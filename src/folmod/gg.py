"""Cohomology of group-graphs: groups attached to a finite graph.

A group-graph assigns a group to every vertex and edge of a finite
undirected graph together with a restriction homomorphism ``rho(v, e)``
for every incidence.  Its degree-0 coboundary sends a 0-cochain
``(g_v)_v`` to the 1-cochain whose value on an edge is the image of the
head datum minus the image of the tail datum; ``H^0`` and ``H^1`` are the
kernel and cokernel of that single block homomorphism.

Two parallel representations are provided: :class:`GroupGraph` carries
:class:`~folmod.abgroup.PresentedAbelianGroup` data and is computed
exactly, while :class:`FiniteGroupGraph` carries explicit finite
multiplication tables (possibly non-abelian) and is solved by direct
orbit enumeration, serving as an independent oracle.

>>> t = SymbolTable([])
>>> triv = PresentedAbelianGroup.trivial(t)
>>> z3 = PresentedAbelianGroup.from_invariant_factors(t, [3])
>>> g = Graph([0, 1], [("s", 0, 1)])
>>> gg = GroupGraph(g, {0: triv, 1: triv}, {"s": z3},
...                 {(0, "s"): zero_hom(triv, z3), (1, "s"): zero_hom(triv, z3)})
>>> classify(h1(gg)).text()
'Z/3'
>>> classify(cohomology(gg).h0).text()
'0'

The non-abelian oracle on a loop acts by twisted conjugation, so the
orbit count is the number of conjugacy classes:

>>> s3 = FiniteGroup.symmetric(3)
>>> lp = Graph(["v"], [("e", "v", "v")])
>>> fgg = FiniteGroupGraph(lp, {"v": s3}, {"e": s3},
...                        {("v", "e"): FiniteHom.identity(s3)})
>>> brute_force_h1(fgg).orbit_count
3
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Sized,
    Tuple,
    Union,
)

from .exactnum import Scalar, SymbolTable
from .abgroup import (
    GroupHom,
    PresentedAbelianGroup,
    block_hom,
    check_hom,
    classify,
    cokernel,
    compose,
    direct_sum,
    factor_through,
    hom_equal,
    identity_hom,
    is_exact_at,
    is_injective,
    is_surjective,
    kernel,
    negate_hom,
    preimage_element,
    zero_hom,
)

__all__ = [
    "BoundExceeded",
    "CoverMismatch",
    "Graph",
    "GroupGraph",
    "GroupGraphMorphism",
    "FiniteGroup",
    "FiniteHom",
    "FiniteGroupGraph",
    "cohomology",
    "h1",
    "prune",
    "prune_all",
    "mayer_vietoris",
    "long_exact_sequence",
    "brute_force_h1",
]

Id = Union[int, str]

#: Largest number of entries in any one list of an input document: the
#: vertices and edges of a group-graph (``folmod cohomology``) and the
#: components, corners, attachments, singularities and holonomies of a
#: foliation (``folmod check`` and ``folmod moduli``).  The seed-0 geodesic
#: of k=129 rigid joints has 257 components and 512 singularities.
MAX_ITEMS = 10_000


def _check_count(items: Sized, what: str) -> None:
    """Refuse an input list longer than :data:`MAX_ITEMS` with ValueError."""
    if len(items) > MAX_ITEMS:
        raise ValueError(f"{len(items)} {what} exceed the bound of {MAX_ITEMS}")


class NotRepulsive(ValueError):
    """The dead branch fails the outward-surjectivity condition."""


class BoundExceeded(RuntimeError):
    """The brute-force state space exceeds the configured bound."""


class NotShortExact(ValueError):
    """A group-graph triple fails element-wise short exactness."""


class CoverMismatch(ValueError):
    """The two sub-graphs do not cover the base graph."""


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def _id_key(x: Id) -> Tuple[int, object]:
    return (1, x) if isinstance(x, str) else (0, x)


def _check_id(x: object) -> None:
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise ValueError(f"ids must be ints or strings, got {x!r}")


class Graph:
    """A finite undirected graph; loops and multi-edges are permitted.

    Vertices and edges carry int or string ids.  Every edge has a
    deterministic orientation: the tail is the endpoint with the smaller
    id, the head the larger (equal for loops).

    >>> g = Graph([2, 0, 1], [("a", 1, 0), ("b", 1, 2), ("c", 2, 2)])
    >>> g.vertices
    (0, 1, 2)
    >>> g.endpoints("a")
    (0, 1)
    >>> g.valency(2)
    3
    >>> g.rank_h1()
    1
    """

    __slots__ = ("vertices", "edges", "_ends", "_incident")

    def __init__(
        self,
        vertices: Iterable[Id],
        edges: Union[Mapping[Id, Tuple[Id, Id]], Iterable[Tuple[Id, Id, Id]]] = (),
    ):
        vs = list(vertices)
        for v in vs:
            _check_id(v)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex id")
        self.vertices: Tuple[Id, ...] = tuple(sorted(vs, key=_id_key))
        vset = set(self.vertices)
        items: List[Tuple[Id, Id, Id]]
        if isinstance(edges, Mapping):
            items = [(e, u, v) for e, (u, v) in edges.items()]
        else:
            items = [(e, u, v) for e, u, v in edges]
        ends: Dict[Id, Tuple[Id, Id]] = {}
        for e, u, v in items:
            _check_id(e)
            if e in ends:
                raise ValueError(f"duplicate edge id {e!r}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e!r} has an endpoint outside the graph")
            tail, head = sorted((u, v), key=_id_key)
            ends[e] = (tail, head)
        self.edges: Tuple[Id, ...] = tuple(sorted(ends, key=_id_key))
        self._ends = ends
        incident: Dict[Id, List[Id]] = {v: [] for v in self.vertices}
        for e in self.edges:
            t, h = ends[e]
            incident[t].append(e)
            if h != t:
                incident[h].append(e)
        self._incident = {v: tuple(es) for v, es in incident.items()}

    # -- structure -------------------------------------------------------------

    def endpoints(self, e: Id) -> Tuple[Id, Id]:
        """``(tail, head)`` of the edge."""
        return self._ends[e]

    def tail(self, e: Id) -> Id:
        return self._ends[e][0]

    def head(self, e: Id) -> Id:
        return self._ends[e][1]

    def is_loop(self, e: Id) -> bool:
        t, h = self._ends[e]
        return t == h

    def incident(self, v: Id) -> Tuple[Id, ...]:
        """Edges meeting ``v``; a loop appears once."""
        return self._incident[v]

    def valency(self, v: Id) -> int:
        """Number of edge-ends at ``v``; loops count twice."""
        return sum(2 if self.is_loop(e) else 1 for e in self._incident[v])

    def induced_edges(self, vertices: Iterable[Id]) -> Tuple[Id, ...]:
        keep = set(vertices)
        return tuple(
            e for e in self.edges if self._ends[e][0] in keep and self._ends[e][1] in keep
        )

    def subgraph(
        self, vertices: Iterable[Id], edges: Optional[Iterable[Id]] = None
    ) -> "Graph":
        """The subgraph on the given vertices (induced edges by default)."""
        keep_v = list(vertices)
        keep_e = self.induced_edges(keep_v) if edges is None else tuple(edges)
        return Graph(keep_v, [(e, *self._ends[e]) for e in keep_e])

    def connected_components(self) -> Tuple[Tuple[Id, ...], ...]:
        parent = {v: v for v in self.vertices}

        def find(x: Id) -> Id:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            t, h = self._ends[e]
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rh] = rt
        groups: Dict[Id, List[Id]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        comps = [tuple(sorted(g, key=_id_key)) for g in groups.values()]
        return tuple(sorted(comps, key=lambda c: _id_key(c[0])))

    def rank_h1(self) -> int:
        """First Betti number ``E - V + C`` of the underlying space."""
        return len(self.edges) - len(self.vertices) + len(self.connected_components())

    # -- equality / serialization ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self._ends == other._ends
        )

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(sorted(self._ends.items(), key=lambda kv: _id_key(kv[0])))))

    def __repr__(self) -> str:
        return f"<Graph V={len(self.vertices)} E={len(self.edges)}>"

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "ends": list(self._ends[e])} for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Graph":
        """The graph of :meth:`to_json`; more than :data:`MAX_ITEMS`
        vertices or edges raise ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError(f"graph must be an object, got {data!r}")
        _check_count(data["vertices"], "vertices")
        _check_count(data.get("edges", ()), "edges")
        edges = []
        for e in data.get("edges", ()):
            ends = e["ends"]
            if not (isinstance(ends, list) and len(ends) == 2):
                raise ValueError(f"edge {e['id']!r} must have a list of two ends, got {ends!r}")
            edges.append((e["id"], ends[0], ends[1]))
        return cls(data["vertices"], edges)


# ---------------------------------------------------------------------------
# Abelian group-graphs
# ---------------------------------------------------------------------------


class GroupGraph:
    """Presented abelian groups on a graph with restriction maps.

    ``rhos`` maps each incidence ``(v, e)`` (with ``v`` an endpoint of
    ``e``) to a hom from the vertex group to the edge group; every map is
    verified with :func:`~folmod.abgroup.check_hom` on construction.
    """

    __slots__ = ("graph", "table", "_vgroups", "_egroups", "_rhos")

    def __init__(
        self,
        graph: Graph,
        vertex_groups: Mapping[Id, PresentedAbelianGroup],
        edge_groups: Mapping[Id, PresentedAbelianGroup],
        rhos: Mapping[Tuple[Id, Id], GroupHom],
        table: Optional[SymbolTable] = None,
        check: bool = True,
    ):
        self.graph = graph
        self._vgroups = dict(vertex_groups)
        self._egroups = dict(edge_groups)
        self._rhos = dict(rhos)
        tables = {g.table for g in self._vgroups.values()}
        tables |= {g.table for g in self._egroups.values()}
        if table is not None:
            tables.add(table)
        if len(tables) > 1:
            raise ValueError("groups live over different symbol tables")
        if not tables:
            raise ValueError("an empty group-graph needs an explicit symbol table")
        self.table = next(iter(tables))
        if check:
            self.validate()

    def validate(self) -> None:
        g = self.graph
        missing_v = [v for v in g.vertices if v not in self._vgroups]
        missing_e = [e for e in g.edges if e not in self._egroups]
        if missing_v or missing_e:
            raise ValueError(f"missing group data for {missing_v + missing_e!r}")
        for e in g.edges:
            for v in set(g.endpoints(e)):
                r = self._rhos.get((v, e))
                if r is None:
                    raise ValueError(f"missing restriction map for incidence ({v!r}, {e!r})")
                if r.dom != self._vgroups[v] or r.cod != self._egroups[e]:
                    raise ValueError(f"restriction map at ({v!r}, {e!r}) has wrong ends")
                check_hom(r)

    def vertex_group(self, v: Id) -> PresentedAbelianGroup:
        return self._vgroups[v]

    def edge_group(self, e: Id) -> PresentedAbelianGroup:
        return self._egroups[e]

    def rho(self, v: Id, e: Id) -> GroupHom:
        return self._rhos[(v, e)]

    def restrict(
        self, vertices: Iterable[Id], edges: Optional[Iterable[Id]] = None
    ) -> "GroupGraph":
        """The group-graph on a subgraph (induced edges by default)."""
        sub = self.graph.subgraph(vertices, edges)
        return GroupGraph(
            sub,
            {v: self._vgroups[v] for v in sub.vertices},
            {e: self._egroups[e] for e in sub.edges},
            {
                (v, e): self._rhos[(v, e)]
                for e in sub.edges
                for v in set(sub.endpoints(e))
            },
            table=self.table,
            check=False,
        )

    def __repr__(self) -> str:
        return f"<GroupGraph on {self.graph!r}>"

    def to_json(self) -> dict:
        return {
            "symbols": self.table.to_json(),
            "graph": self.graph.to_json(),
            "vertex_groups": [
                {"id": v, "group": _group_json(self._vgroups[v])} for v in self.graph.vertices
            ],
            "edge_groups": [
                {"id": e, "group": _group_json(self._egroups[e])} for e in self.graph.edges
            ],
            "rhos": [
                {"vertex": v, "edge": e, "map": self._rhos[(v, e)].to_json()}
                for e in self.graph.edges
                for v in sorted(set(self.graph.endpoints(e)), key=_id_key)
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupGraph":
        table = SymbolTable.from_json(data["symbols"])
        graph = Graph.from_json(data["graph"])
        vgroups = {
            item["id"]: _group_from_json(table, item["group"])
            for item in data["vertex_groups"]
        }
        egroups = {
            item["id"]: _group_from_json(table, item["group"])
            for item in data["edge_groups"]
        }
        rhos = {
            (item["vertex"], item["edge"]): GroupHom.from_json(
                vgroups[item["vertex"]], egroups[item["edge"]], item["map"]
            )
            for item in data["rhos"]
        }
        return cls(graph, vgroups, egroups, rhos, table=table)


def _group_json(g: PresentedAbelianGroup) -> dict:
    out = g.to_json()
    out.pop("symbols", None)
    return out


def _group_from_json(table: SymbolTable, data: Mapping) -> PresentedAbelianGroup:
    payload = dict(data)
    payload["symbols"] = table.to_json()
    return PresentedAbelianGroup.from_json(payload)


class GroupGraphMorphism:
    """A map of group-graphs over the same base graph.

    ``vertex_maps[v]`` and ``edge_maps[e]`` must commute with the
    restriction maps: ``edge_map . rho_dom == rho_cod . vertex_map`` at
    every incidence.
    """

    __slots__ = ("dom", "cod", "_vmaps", "_emaps")

    def __init__(
        self,
        dom: GroupGraph,
        cod: GroupGraph,
        vertex_maps: Mapping[Id, GroupHom],
        edge_maps: Mapping[Id, GroupHom],
        check: bool = True,
    ):
        if dom.graph != cod.graph:
            raise ValueError("group-graph morphism across different base graphs")
        self.dom = dom
        self.cod = cod
        self._vmaps = dict(vertex_maps)
        self._emaps = dict(edge_maps)
        if check:
            self.validate()

    def validate(self) -> None:
        g = self.dom.graph
        for v in g.vertices:
            m = self._vmaps.get(v)
            if m is None or m.dom != self.dom.vertex_group(v) or m.cod != self.cod.vertex_group(v):
                raise ValueError(f"bad vertex map at {v!r}")
            check_hom(m)
        for e in g.edges:
            m = self._emaps.get(e)
            if m is None or m.dom != self.dom.edge_group(e) or m.cod != self.cod.edge_group(e):
                raise ValueError(f"bad edge map at {e!r}")
            check_hom(m)
            for v in set(g.endpoints(e)):
                left = compose(m, self.dom.rho(v, e))
                right = compose(self.cod.rho(v, e), self._vmaps[v])
                if not hom_equal(left, right):
                    raise ValueError(f"morphism does not commute at ({v!r}, {e!r})")

    def vertex_map(self, v: Id) -> GroupHom:
        return self._vmaps[v]

    def edge_map(self, e: Id) -> GroupHom:
        return self._emaps[e]


# ---------------------------------------------------------------------------
# Cochains and cohomology
# ---------------------------------------------------------------------------


class _Cochains(NamedTuple):
    """The cochain group ``(+)_x G_x`` of one degree, with its summand ids,
    summand groups and block offsets."""

    ids: Tuple[Id, ...]
    groups: Tuple[PresentedAbelianGroup, ...]
    total: PresentedAbelianGroup
    offsets: List[Tuple[int, int, int]]


def _cochains(G: GroupGraph, degree: int) -> _Cochains:
    """The 0-cochains (vertex groups) or 1-cochains (edge groups) of ``G``."""
    ids = G.graph.vertices if degree == 0 else G.graph.edges
    groups = tuple(map(G.vertex_group if degree == 0 else G.edge_group, ids))
    total, offsets = direct_sum(groups, G.table)
    return _Cochains(ids, groups, total, offsets)


def _by_id(
    src: _Cochains, dst: _Cochains, hom_of: Optional[Callable[[Id], GroupHom]] = None
) -> GroupHom:
    """The block hom sending summand ``x`` of ``src`` to summand ``x`` of
    ``dst`` by ``hom_of(x)`` (the identity by default), for every id the
    two sums share; the other summands of ``src`` map to zero."""
    where = {x: k for k, x in enumerate(dst.ids)}
    blocks = [
        (k, where[x], identity_hom(g) if hom_of is None else hom_of(x), 1)
        for k, (x, g) in enumerate(zip(src.ids, src.groups))
        if x in where
    ]
    return block_hom(src.total, src.offsets, dst.total, dst.offsets, blocks)


def coboundary0(G: GroupGraph) -> GroupHom:
    """The block hom from the vertex sum to the edge sum.

    The block at an incidence is ``+rho`` when the vertex is the head of
    the edge and ``-rho`` when it is the tail; for a loop both signs hit
    the same map and the block vanishes.  A vertex atom restricting onto
    two edge atoms raises :class:`~folmod.abgroup.UnsupportedAtomMap`.

    >>> t = SymbolTable([])
    >>> z2 = PresentedAbelianGroup.from_invariant_factors(t, [2])
    >>> g = Graph([0, 1], [("s", 0, 1)])
    >>> gg = GroupGraph(g, {0: z2, 1: z2}, {"s": z2},
    ...     {(0, "s"): identity_hom(z2), (1, "s"): identity_hom(z2)})
    >>> [d for _, d in coboundary0(gg).disc_images]  # (a, b) -> b - a
    [(-1,), (1,)]
    """
    c0, c1 = _cochains(G, 0), _cochains(G, 1)
    vindex = {v: i for i, v in enumerate(c0.ids)}
    blocks = []
    for ei, e in enumerate(c1.ids):
        tail, head = G.graph.endpoints(e)
        if tail != head:  # on a loop the two signed blocks cancel
            blocks.append((vindex[head], ei, G.rho(head, e), 1))
            blocks.append((vindex[tail], ei, G.rho(tail, e), -1))
    return block_hom(c0.total, c0.offsets, c1.total, c1.offsets, blocks)


@dataclass(frozen=True)
class CohomologyResult:
    """``H^0``/``H^1`` of a group-graph with the maps that witness them.

    ``witnesses`` is the assembled degree-0 coboundary; ``h0`` is its
    kernel and ``h1`` its normalized cokernel.
    """

    h0: PresentedAbelianGroup
    h1: PresentedAbelianGroup
    witnesses: GroupHom
    h0_inclusion: GroupHom
    h1_projection: GroupHom
    h1_section: GroupHom


def cohomology(G: GroupGraph) -> CohomologyResult:
    d0 = coboundary0(G)
    k = kernel(d0)
    c = cokernel(d0)
    return CohomologyResult(
        h0=k.group,
        h1=c.group,
        witnesses=d0,
        h0_inclusion=k.inclusion,
        h1_projection=c.projection,
        h1_section=c.section,
    )


def h1(G: GroupGraph) -> PresentedAbelianGroup:
    return cokernel(coboundary0(G)).group


# ---------------------------------------------------------------------------
# Dead branches and pruning
# ---------------------------------------------------------------------------


class DeadBranch(NamedTuple):
    """A chain subgraph hanging off the rest of the graph.

    ``vertices`` runs from the extremity (valency 1) to the attaching
    vertex; every interior vertex has valency 2.  ``edges[i]`` joins
    ``vertices[i]`` to ``vertices[i+1]``.
    """

    vertices: Tuple[Id, ...]
    edges: Tuple[Id, ...]

    @property
    def extremity(self) -> Id:
        return self.vertices[0]

    @property
    def attach(self) -> Id:
        return self.vertices[-1]


def find_partial_dead_branches(
    g: Union[Graph, GroupGraph, "FiniteGroupGraph"]
) -> List[DeadBranch]:
    """All chains hanging off an extremity, one entry per chain prefix.

    Walks inward from every valency-1 vertex while the interior has
    valency 2, emitting each prefix as its own branch (the attaching
    vertex of a prefix may itself have valency 2).  Cycles have no
    extremities and yield nothing.

    >>> g = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2)])
    >>> [(b.vertices, b.attach) for b in find_partial_dead_branches(g)]
    [((0, 1), 1), ((0, 1, 2), 2), ((2, 1), 1), ((2, 1, 0), 0)]
    >>> find_partial_dead_branches(Graph([0, 1], [("a", 0, 1), ("b", 0, 1)]))
    []
    """
    graph = g if isinstance(g, Graph) else g.graph
    out: List[DeadBranch] = []
    for x in graph.vertices:
        if graph.valency(x) != 1:
            continue
        chain_v = [x]
        chain_e: List[Id] = []
        cur: Id = x
        prev_edge: Optional[Id] = None
        while True:
            candidates = [e for e in graph.incident(cur) if e != prev_edge]
            if len(candidates) != 1:
                break
            e = candidates[0]
            u, w = graph.endpoints(e)
            nxt = w if u == cur else u
            if nxt in chain_v:
                break
            chain_v.append(nxt)
            chain_e.append(e)
            out.append(DeadBranch(tuple(chain_v), tuple(chain_e)))
            if graph.valency(nxt) != 2:
                break
            prev_edge = e
            cur = nxt
    return out


def _as_branch(
    graph: Graph, m: Union[DeadBranch, Sequence[Id]], attach: Optional[Id]
) -> DeadBranch:
    if isinstance(m, DeadBranch):
        if attach is not None and m.attach != attach:
            raise ValueError("attaching vertex does not match the branch")
        branch = m
    else:
        verts = list(m)
        if attach is not None and (not verts or verts[-1] != attach):
            verts.append(attach)
        if len(verts) < 2:
            raise ValueError("a dead branch needs at least one edge")
        edges = []
        for a, b in zip(verts, verts[1:]):
            linking = [
                e for e in graph.incident(a) if set(graph.endpoints(e)) == {a, b}
            ]
            if len(linking) != 1:
                raise ValueError(f"no unique edge between {a!r} and {b!r}")
            edges.append(linking[0])
        branch = DeadBranch(tuple(verts), tuple(edges))
    if len(set(branch.vertices)) != len(branch.vertices):
        raise ValueError("dead branch revisits a vertex")
    if graph.valency(branch.extremity) != 1:
        raise ValueError(f"extremity {branch.extremity!r} does not have valency 1")
    for v in branch.vertices[1:-1]:
        if graph.valency(v) != 2:
            raise ValueError(f"interior vertex {v!r} does not have valency 2")
    return branch


def _rho_surjective(G: Union[GroupGraph, "FiniteGroupGraph"], v: Id, e: Id) -> bool:
    r = G.rho(v, e)
    if isinstance(r, FiniteHom):
        return r.is_surjective()
    return is_surjective(r)


def is_repulsive(
    G: Union[GroupGraph, "FiniteGroupGraph"],
    m: Union[DeadBranch, Sequence[Id]],
    attach: Optional[Id] = None,
) -> bool:
    """Whether every outward restriction along the branch is surjective.

    For each branch edge the outward vertex is the endpoint closer to the
    extremity; its restriction map onto the edge group must be onto, which
    lets cocycle values on the branch be normalized away from the
    extremity inward.
    """
    branch = _as_branch(G.graph, m, attach)
    return all(
        _rho_surjective(G, outer, e) for outer, e in zip(branch.vertices, branch.edges)
    )


def prune(
    G: Union[GroupGraph, "FiniteGroupGraph"],
    m: Union[DeadBranch, Sequence[Id]],
    attach: Optional[Id] = None,
):
    """Remove a repulsive dead branch, keeping the attaching vertex.

    Raises :class:`NotRepulsive` when some outward restriction fails to be
    surjective.  ``h1`` of the result is isomorphic to ``h1`` of the input.
    """
    branch = _as_branch(G.graph, m, attach)
    if not is_repulsive(G, branch):
        raise NotRepulsive(
            f"branch {branch.vertices!r} has a non-surjective outward restriction"
        )
    removed = set(branch.vertices[:-1])
    keep = [v for v in G.graph.vertices if v not in removed]
    return G.restrict(keep)


def prune_all(G: Union[GroupGraph, "FiniteGroupGraph"]):
    """Iteratively prune repulsive dead branches until none remains.

    Shortest branches are tried first, so exactly the certified piece is
    removed at each step; the loop terminates because every prune removes
    at least one vertex.
    """
    while True:
        branches = sorted(
            find_partial_dead_branches(G),
            key=lambda b: (len(b.vertices), _id_key(b.vertices[0])),
        )
        for b in branches:
            if is_repulsive(G, b):
                G = prune(G, b)
                break
        else:
            return G


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _pseudo_section(h: GroupHom) -> GroupHom:
    """Generator-wise preimages of a surjection, as a raw map container.

    The result satisfies ``h . s == id`` on generators but need not itself
    be a homomorphism; compositions through it must be re-validated with
    :func:`~folmod.abgroup.check_hom` once they descend to actual homs.
    """
    one = Scalar.one(h.dom.table)
    cont = []
    for i in range(h.cod.cont_rank):
        pre = preimage_element(h, {i: one}, [0] * h.cod.disc_rank)
        if pre is None or any(pre[1]):
            raise ValueError("map has no continuous section on generators")
        cont.append(pre[0])
    disc = []
    for j in range(h.cod.disc_rank):
        pre = preimage_element(h, {}, [1 if c == j else 0 for c in range(h.cod.disc_rank)])
        if pre is None:
            raise ValueError("map has no discrete section on generators")
        disc.append(pre)
    atoms: List[Optional[int]] = []
    for j in range(len(h.cod.atoms)):
        k = next((k for k, jj in enumerate(h.atom_images) if jj == j), None)
        if k is None:
            raise ValueError("map has no atom section")
        atoms.append(k)
    # note the roles swap: this is a map cod -> dom
    return GroupHom(h.cod, h.dom, cont, disc, tuple(atoms))


# ---------------------------------------------------------------------------
# Mayer–Vietoris
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MayerVietorisResult:
    """Six-term sequence of a two-piece cover with its exactness verdict.

    ``groups`` runs ``H0(whole), H0(piece0)+H0(piece1), H0(overlap),
    H1(whole), H1(piece0)+H1(piece1), H1(overlap)`` and ``maps`` holds the
    five arrows between them; ``failures`` names the nodes where exactness
    could not be verified.  ``pieces`` is the cohomology of the two cover
    pieces, with the maps that witness it.
    """

    groups: Tuple[PresentedAbelianGroup, ...]
    maps: Tuple[GroupHom, ...]
    exact: bool
    failures: Tuple[str, ...]
    pieces: Tuple[CohomologyResult, CohomologyResult]


def _cover_part(G: GroupGraph, cover) -> Tuple[Tuple[Id, ...], Tuple[Id, ...]]:
    if isinstance(cover, Graph):
        return cover.vertices, cover.edges
    vs, es = cover
    return tuple(vs), tuple(es)


def mayer_vietoris(G: GroupGraph, cover0, cover1) -> MayerVietorisResult:
    """The six-term sequence of a cover by two subgraphs.

    Each cover piece is a ``(vertices, edges)`` pair (or a :class:`Graph`);
    together they must exhaust the base graph.  The connecting map lifts a
    0-cochain on the overlap by zero outside it and applies the coboundary
    of the whole graph.  Exactness is verified at every node.
    """
    vs0, es0 = _cover_part(G, cover0)
    vs1, es1 = _cover_part(G, cover1)
    g = G.graph
    if set(vs0) | set(vs1) != set(g.vertices) or set(es0) | set(es1) != set(g.edges):
        raise CoverMismatch("the two pieces do not cover the graph")
    for vs, es in ((vs0, es0), (vs1, es1)):
        vset = set(vs)
        if not vset <= set(g.vertices) or not set(es) <= set(g.edges):
            raise CoverMismatch("cover piece is not a subgraph")
        for e in es:
            t, h = g.endpoints(e)
            if t not in vset or h not in vset:
                raise CoverMismatch(f"edge {e!r} leaves its cover piece")
    vs01 = tuple(sorted(set(vs0) & set(vs1), key=_id_key))
    es01 = tuple(sorted(set(es0) & set(es1), key=_id_key))

    GA = G
    G0 = G.restrict(vs0, es0)
    G1 = G.restrict(vs1, es1)
    G01 = G.restrict(vs01, es01)
    cA, c0, c1, c01 = cohomology(GA), cohomology(G0), cohomology(G1), cohomology(G01)
    vA, v0, v1, v01 = (_cochains(H, 0) for H in (GA, G0, G1, G01))
    eA, e0, e1, e01 = (_cochains(H, 1) for H in (GA, G0, G1, G01))
    table = G.table
    point = [(0, 0, 0)]  # the block offsets of a group that is not a sum

    # H0(A) -> H0(A0) + H0(A1)
    rest0 = factor_through(compose(_by_id(vA, v0), cA.h0_inclusion), c0.h0_inclusion)
    rest1 = factor_through(compose(_by_id(vA, v1), cA.h0_inclusion), c1.h0_inclusion)
    h0sum, h0offs = direct_sum([c0.h0, c1.h0], table)
    alpha = block_hom(cA.h0, point, h0sum, h0offs, [(0, 0, rest0, 1), (0, 1, rest1, 1)])

    # H0(A0) + H0(A1) -> H0(A01), difference of the overlaps
    d0_ = factor_through(compose(_by_id(v0, v01), c0.h0_inclusion), c01.h0_inclusion)
    d1_ = factor_through(compose(_by_id(v1, v01), c1.h0_inclusion), c01.h0_inclusion)
    beta = block_hom(
        h0sum, h0offs, c01.h0, point, [(0, 0, d0_, 1), (1, 0, negate_hom(d1_), 1)]
    )

    # connecting map: lift a 0-cocycle on the overlap by (zero-extension, 0)
    # into piece 0, apply that piece's coboundary, and view the resulting
    # 1-cochain (zero on the piece-1-only edges) on the whole graph
    ext01_to0 = _by_id(v01, v0)
    ext0_toA = _by_id(e0, eA)
    delta = compose(
        cA.h1_projection,
        compose(ext0_toA, compose(c0.witnesses, compose(ext01_to0, c01.h0_inclusion))),
    )
    check_hom(delta)

    # H1(A) -> H1(A0) + H1(A1)
    gma0 = compose(c0.h1_projection, compose(_by_id(eA, e0), cA.h1_section))
    check_hom(gma0)
    gma1 = compose(c1.h1_projection, compose(_by_id(eA, e1), cA.h1_section))
    check_hom(gma1)
    h1sum, h1offs = direct_sum([c0.h1, c1.h1], table)
    gamma = block_hom(cA.h1, point, h1sum, h1offs, [(0, 0, gma0, 1), (0, 1, gma1, 1)])

    # H1(A0) + H1(A1) -> H1(A01)
    eps0 = compose(c01.h1_projection, compose(_by_id(e0, e01), c0.h1_section))
    check_hom(eps0)
    eps1 = compose(c01.h1_projection, compose(_by_id(e1, e01), c1.h1_section))
    check_hom(eps1)
    epsilon = block_hom(
        h1sum, h1offs, c01.h1, point, [(0, 0, eps0, 1), (1, 0, negate_hom(eps1), 1)]
    )

    checks = [
        ("H0(whole)", is_injective(alpha)),
        ("H0(pieces)", is_exact_at(alpha, beta)),
        ("H0(overlap)", is_exact_at(beta, delta)),
        ("H1(whole)", is_exact_at(delta, gamma)),
        ("H1(pieces)", is_exact_at(gamma, epsilon)),
        ("H1(overlap)", is_surjective(epsilon)),
    ]
    failures = tuple(name for name, ok in checks if not ok)
    return MayerVietorisResult(
        groups=(cA.h0, h0sum, c01.h0, cA.h1, h1sum, c01.h1),
        maps=(alpha, beta, delta, gamma, epsilon),
        exact=not failures,
        failures=failures,
        pieces=(c0, c1),
    )


# ---------------------------------------------------------------------------
# Long exact sequence of a short exact triple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LongExactSequenceResult:
    """Six-term sequence of a short exact group-graph triple.

    ``groups`` runs ``H0(sub), H0(total), H0(quotient), H1(sub),
    H1(total), H1(quotient)``; ``maps`` holds the five arrows including
    the connecting map at position 2.  ``middle`` is the cohomology of the
    middle group-graph, with the coboundary and maps that witness it.
    """

    groups: Tuple[PresentedAbelianGroup, ...]
    maps: Tuple[GroupHom, ...]
    exact: bool
    failures: Tuple[str, ...]
    middle: CohomologyResult


def long_exact_sequence(
    iota: GroupGraphMorphism, pi: GroupGraphMorphism
) -> LongExactSequenceResult:
    """The six-term sequence of ``0 -> F -> G -> J -> 0``.

    The two morphisms must share the middle group-graph (the same object,
    or the same graph with equal restriction maps at every incidence;
    raises :class:`ValueError` otherwise), and the triple must be short
    exact at every vertex and edge (checked; raises :class:`NotShortExact`).
    The connecting map lifts a 0-cocycle of the quotient through ``pi``,
    applies the middle coboundary and pulls the result back through
    ``iota``.
    """
    F, Gmid, J = iota.dom, iota.cod, pi.cod
    mid = Gmid.graph
    if Gmid is not pi.dom and (
        mid != pi.dom.graph
        or any(Gmid.rho(v, e) != pi.dom.rho(v, e) for e in mid.edges for v in set(mid.endpoints(e)))
    ):
        raise ValueError("the morphisms do not share the middle group-graph")
    g = F.graph
    for a in list(g.vertices) + list(g.edges):
        is_vertex = a in set(g.vertices)
        im = iota.vertex_map(a) if is_vertex else iota.edge_map(a)
        pm = pi.vertex_map(a) if is_vertex else pi.edge_map(a)
        if im.cod != pm.dom:
            raise NotShortExact(f"maps at {a!r} are not composable")
        if not is_injective(im):
            raise NotShortExact(f"inclusion at {a!r} is not injective")
        if not is_surjective(pm):
            raise NotShortExact(f"projection at {a!r} is not surjective")
        if not is_exact_at(im, pm):
            raise NotShortExact(f"triple is not exact at {a!r}")

    cF, cG, cJ = cohomology(F), cohomology(Gmid), cohomology(J)
    (F0, F1), (G0, G1), (J0, J1) = ((_cochains(H, 0), _cochains(H, 1)) for H in (F, Gmid, J))
    iota_c0 = _by_id(F0, G0, iota.vertex_map)
    pi_c0 = _by_id(G0, J0, pi.vertex_map)
    iota_c1 = _by_id(F1, G1, iota.edge_map)
    pi_c1 = _by_id(G1, J1, pi.edge_map)

    f0 = factor_through(compose(iota_c0, cF.h0_inclusion), cG.h0_inclusion)
    g0 = factor_through(compose(pi_c0, cG.h0_inclusion), cJ.h0_inclusion)

    sec = _pseudo_section(pi_c0)
    sigma = compose(cG.witnesses, compose(sec, cJ.h0_inclusion))
    pulled = factor_through(sigma, iota_c1, check=False)
    delta = compose(cF.h1_projection, pulled)
    check_hom(delta)

    f1 = compose(cG.h1_projection, compose(iota_c1, cF.h1_section))
    check_hom(f1)
    g1 = compose(cJ.h1_projection, compose(pi_c1, cG.h1_section))
    check_hom(g1)

    checks = [
        ("H0(sub)", is_injective(f0)),
        ("H0(total)", is_exact_at(f0, g0)),
        ("H0(quotient)", is_exact_at(g0, delta)),
        ("H1(sub)", is_exact_at(delta, f1)),
        ("H1(total)", is_exact_at(f1, g1)),
        ("H1(quotient)", is_surjective(g1)),
    ]
    failures = tuple(name for name, ok in checks if not ok)
    return LongExactSequenceResult(
        groups=(cF.h0, cG.h0, cJ.h0, cF.h1, cG.h1, cJ.h1),
        maps=(f0, g0, delta, f1, g1),
        exact=not failures,
        failures=failures,
        middle=cG,
    )


# ---------------------------------------------------------------------------
# Finite groups as explicit tables (possibly non-abelian)
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are ``0..n-1``; ``table[a][b]`` is the product ``a*b``.
    Associativity, a two-sided identity and inverses are verified on
    construction.

    >>> z4 = FiniteGroup.cyclic(4)
    >>> z4.mul(3, 2), z4.inv(3)
    (1, 1)
    >>> FiniteGroup.symmetric(3).is_abelian()
    False
    """

    __slots__ = ("table", "identity", "_inv")

    def __init__(self, table: Sequence[Sequence[int]]):
        tbl = tuple(tuple(int(x) for x in row) for row in table)
        n = len(tbl)
        if n == 0:
            raise ValueError("a group needs at least the identity")
        for row in tbl:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("multiplication table is not square over 0..n-1")
        identity = next(
            (
                e
                for e in range(n)
                if all(tbl[e][x] == x and tbl[x][e] == x for x in range(n))
            ),
            None,
        )
        if identity is None:
            raise ValueError("table has no two-sided identity")
        inv = [None] * n
        for a in range(n):
            b = next(
                (b for b in range(n) if tbl[a][b] == identity and tbl[b][a] == identity),
                None,
            )
            if b is None:
                raise ValueError(f"element {a} has no inverse")
            inv[a] = b
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                        raise ValueError("table is not associative")
        self.table = tbl
        self.identity = identity
        self._inv = tuple(inv)

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def is_abelian(self) -> bool:
        n = len(self.table)
        return all(
            self.table[a][b] == self.table[b][a] for a in range(n) for b in range(a)
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        return cls([[(a + b) % n for b in range(n)] for a in range(n)])

    @classmethod
    def direct_product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        na, nb = a.order, b.order

        def enc(x: int, y: int) -> int:
            return x * nb + y

        table = [
            [
                enc(a.mul(x1, x2), b.mul(y1, y2))
                for x2 in range(na)
                for y2 in range(nb)
            ]
            for x1 in range(na)
            for y1 in range(nb)
        ]
        return cls(table)

    @classmethod
    def from_factors(cls, factors: Sequence[int]) -> "FiniteGroup":
        """Product of cyclic groups, elements in mixed-radix order."""
        g = cls.trivial()
        for f in factors:
            g = cls.direct_product(g, cls.cyclic(f))
        return g

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if not 1 <= n <= 5:
            raise ValueError("symmetric group table limited to n <= 5")
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
        ]
        return cls(table)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order}>"

    def to_json(self) -> dict:
        return {"table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, data: Mapping) -> "FiniteGroup":
        return cls(data["table"])


class FiniteHom:
    """A homomorphism of finite groups given element-wise.

    >>> z4, z2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
    >>> f = FiniteHom(z4, z2, [0, 1, 0, 1])
    >>> f.is_surjective(), f.apply(3)
    (True, 1)
    """

    __slots__ = ("dom", "cod", "images")

    def __init__(self, dom: FiniteGroup, cod: FiniteGroup, images: Sequence[int]):
        images = tuple(int(x) for x in images)
        if len(images) != dom.order:
            raise ValueError("wrong number of element images")
        if any(not 0 <= x < cod.order for x in images):
            raise ValueError("image out of range")
        for a in range(dom.order):
            for b in range(dom.order):
                if images[dom.mul(a, b)] != cod.mul(images[a], images[b]):
                    raise ValueError("not a homomorphism")
        self.dom = dom
        self.cod = cod
        self.images = images

    def apply(self, a: int) -> int:
        return self.images[a]

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.cod.order

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.dom.order

    @classmethod
    def identity(cls, g: FiniteGroup) -> "FiniteHom":
        return cls(g, g, list(range(g.order)))

    @classmethod
    def trivial(cls, dom: FiniteGroup, cod: FiniteGroup) -> "FiniteHom":
        return cls(dom, cod, [cod.identity] * dom.order)

    def __repr__(self) -> str:
        return f"<FiniteHom {self.dom.order} -> {self.cod.order}>"

    def to_json(self) -> dict:
        return {"images": list(self.images)}


class FiniteGroupGraph:
    """Finite groups (as tables) on a graph with restriction maps."""

    __slots__ = ("graph", "_vgroups", "_egroups", "_rhos")

    def __init__(
        self,
        graph: Graph,
        vertex_groups: Mapping[Id, FiniteGroup],
        edge_groups: Mapping[Id, FiniteGroup],
        rhos: Mapping[Tuple[Id, Id], FiniteHom],
        check: bool = True,
    ):
        self.graph = graph
        self._vgroups = dict(vertex_groups)
        self._egroups = dict(edge_groups)
        self._rhos = dict(rhos)
        if check:
            self.validate()

    def validate(self) -> None:
        g = self.graph
        missing_v = [v for v in g.vertices if v not in self._vgroups]
        missing_e = [e for e in g.edges if e not in self._egroups]
        if missing_v or missing_e:
            raise ValueError(f"missing group data for {missing_v + missing_e!r}")
        for e in g.edges:
            for v in set(g.endpoints(e)):
                r = self._rhos.get((v, e))
                if r is None:
                    raise ValueError(f"missing restriction map for incidence ({v!r}, {e!r})")
                if r.dom is not self._vgroups[v] and r.dom != self._vgroups[v]:
                    raise ValueError(f"restriction at ({v!r}, {e!r}) has the wrong domain")
                if r.cod is not self._egroups[e] and r.cod != self._egroups[e]:
                    raise ValueError(f"restriction at ({v!r}, {e!r}) has the wrong codomain")

    def vertex_group(self, v: Id) -> FiniteGroup:
        return self._vgroups[v]

    def edge_group(self, e: Id) -> FiniteGroup:
        return self._egroups[e]

    def rho(self, v: Id, e: Id) -> FiniteHom:
        return self._rhos[(v, e)]

    def is_abelian(self) -> bool:
        return all(g.is_abelian() for g in self._vgroups.values()) and all(
            g.is_abelian() for g in self._egroups.values()
        )

    def restrict(
        self, vertices: Iterable[Id], edges: Optional[Iterable[Id]] = None
    ) -> "FiniteGroupGraph":
        sub = self.graph.subgraph(vertices, edges)
        return FiniteGroupGraph(
            sub,
            {v: self._vgroups[v] for v in sub.vertices},
            {e: self._egroups[e] for e in sub.edges},
            {
                (v, e): self._rhos[(v, e)]
                for e in sub.edges
                for v in set(sub.endpoints(e))
            },
            check=False,
        )

    def __repr__(self) -> str:
        return f"<FiniteGroupGraph on {self.graph!r}>"

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "vertex_groups": [
                {"id": v, **self._vgroups[v].to_json()} for v in self.graph.vertices
            ],
            "edge_groups": [
                {"id": e, **self._egroups[e].to_json()} for e in self.graph.edges
            ],
            "rhos": [
                {"vertex": v, "edge": e, **self._rhos[(v, e)].to_json()}
                for e in self.graph.edges
                for v in sorted(set(self.graph.endpoints(e)), key=_id_key)
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FiniteGroupGraph":
        graph = Graph.from_json(data["graph"])
        vgroups = {item["id"]: FiniteGroup(item["table"]) for item in data["vertex_groups"]}
        egroups = {item["id"]: FiniteGroup(item["table"]) for item in data["edge_groups"]}
        rhos = {
            (item["vertex"], item["edge"]): FiniteHom(
                vgroups[item["vertex"]], egroups[item["edge"]], item["images"]
            )
            for item in data["rhos"]
        }
        return cls(graph, vgroups, egroups, rhos)


class BruteForceResult(NamedTuple):
    orbit_count: int
    representatives: Tuple[Tuple[int, ...], ...]


def brute_force_h1(G: FiniteGroupGraph, bound: int = 10_000_000) -> BruteForceResult:
    """``H^1`` by direct orbit enumeration, valid for non-abelian groups.

    The 1-cocycles are exactly the tuples over the edge groups (one entry
    per edge in the chosen orientation); a 0-cochain ``(g_v)`` acts on an
    edge value by ``rho_tail(g_tail)^{-1} * z * rho_head(g_head)``, which
    on a loop is twisted conjugation.  Raises :class:`BoundExceeded` when
    ``prod |G_e| * prod |G_v|`` exceeds ``bound``.  Representatives are
    the lexicographically smallest tuples of their orbits, reported in
    sorted order.
    """
    g = G.graph
    eids = g.edges
    egroups = [G.edge_group(e) for e in eids]
    total = 1
    for ge in egroups:
        total *= ge.order
    for v in g.vertices:
        total *= G.vertex_group(v).order
    if total > bound:
        raise BoundExceeded(f"state space {total} exceeds bound {bound}")

    # one generator per (vertex, non-identity element)
    generators: List[Tuple[Id, int]] = []
    for v in g.vertices:
        gv = G.vertex_group(v)
        generators.extend((v, x) for x in gv.elements() if x != gv.identity)

    # Each generator permutes the values of the edges it touches; tabulate
    # those permutations once so the search only looks values up.
    ends = [g.endpoints(e) for e in eids]
    tables: List[List[Tuple[int, Tuple[int, ...]]]] = []
    for v, x in generators:
        table: List[Tuple[int, Tuple[int, ...]]] = []
        for i, e in enumerate(eids):
            t, h = ends[i]
            if v != t and v != h:
                continue
            ge = egroups[i]
            r = G.rho(v, e).images[x]
            ri = ge.inv(r)
            if t == v and h == v:
                perm = tuple(ge.mul(ri, ge.mul(val, r)) for val in range(ge.order))
            elif t == v:
                perm = tuple(ge.mul(ri, val) for val in range(ge.order))
            else:
                perm = tuple(ge.mul(val, r) for val in range(ge.order))
            table.append((i, perm))
        tables.append(table)

    def act(z: Tuple[int, ...], table: List[Tuple[int, Tuple[int, ...]]]) -> Tuple[int, ...]:
        out = list(z)
        for i, perm in table:
            out[i] = perm[out[i]]
        return tuple(out)

    seen: Dict[Tuple[int, ...], bool] = {}
    reps: List[Tuple[int, ...]] = []
    for z in itertools.product(*(range(ge.order) for ge in egroups)):
        if z in seen:
            continue
        orbit = [z]
        seen[z] = True
        best = z
        qi = 0
        while qi < len(orbit):
            cur = orbit[qi]
            qi += 1
            for table in tables:
                nxt = act(cur, table)
                if nxt not in seen:
                    seen[nxt] = True
                    orbit.append(nxt)
                    if nxt < best:
                        best = nxt
        reps.append(best)
    reps.sort()
    return BruteForceResult(len(reps), tuple(reps))


def _selftest() -> None:  # pragma: no cover
    import doctest

    doctest.testmod()


if __name__ == "__main__":  # pragma: no cover
    _selftest()
