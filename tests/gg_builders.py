"""Shared builders for group-graph tests.

Produces matched pairs of exact (:class:`~folmod.gg.GroupGraph`) and
table-based (:class:`~folmod.gg.FiniteGroupGraph`) group-graphs over
cyclic groups, so the symbolic cohomology and the brute-force orbit count
can be compared on identical data, and exact group-graphs whose groups may
also carry an opaque atom factor.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from hypothesis import strategies as st

from folmod.abgroup import GroupHom, PresentedAbelianGroup, direct_sum
from folmod.exactnum import SymbolTable
from folmod.gg import FiniteGroup, FiniteGroupGraph, FiniteHom, Graph, GroupGraph

TABLE = SymbolTable([])
ATOM = PresentedAbelianGroup.atom_group(TABLE, "cremer")


def cyclic_group(order: int) -> PresentedAbelianGroup:
    """``Z/order`` as a presented group (one generator, one relation)."""
    return PresentedAbelianGroup.from_invariant_factors(TABLE, [order])


def cyclic_hom(*, dom_order: int, cod_order: int, mult: int) -> GroupHom:
    """The hom ``Z/dom -> Z/cod`` sending the generator to ``mult``."""
    return GroupHom(
        cyclic_group(dom_order),
        cyclic_group(cod_order),
        [],
        [({}, {0: mult % cod_order})],
        (),
    )


def hom_multipliers(dom_order: int, cod_order: int) -> List[int]:
    """All multipliers giving genuine homs ``Z/dom -> Z/cod``."""
    step = cod_order // math.gcd(dom_order, cod_order)
    return [j * step for j in range(math.gcd(dom_order, cod_order))]


def matched_pair(
    *,
    graph: Graph,
    vertex_orders: Dict[object, int],
    edge_orders: Dict[object, int],
    multipliers: Dict[Tuple[object, object], int],
) -> Tuple[GroupGraph, FiniteGroupGraph]:
    """One cyclic group-graph in both representations."""
    exact = GroupGraph(
        graph,
        {v: cyclic_group(n) for v, n in vertex_orders.items()},
        {e: cyclic_group(n) for e, n in edge_orders.items()},
        {
            (v, e): cyclic_hom(
                dom_order=vertex_orders[v], cod_order=edge_orders[e], mult=k
            )
            for (v, e), k in multipliers.items()
        },
        table=TABLE,
    )
    fgroups_v = {v: FiniteGroup.cyclic(n) for v, n in vertex_orders.items()}
    fgroups_e = {e: FiniteGroup.cyclic(n) for e, n in edge_orders.items()}
    finite = FiniteGroupGraph(
        graph,
        fgroups_v,
        fgroups_e,
        {
            (v, e): FiniteHom(
                fgroups_v[v],
                fgroups_e[e],
                [k * x % edge_orders[e] for x in range(vertex_orders[v])],
            )
            for (v, e), k in multipliers.items()
        },
    )
    return exact, finite


@st.composite
def small_graphs(draw, max_vertices: int = 3, max_edges: int = 3) -> Graph:
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = []
    for i in range(m):
        u = draw(st.integers(0, n - 1))
        w = draw(st.integers(0, n - 1))
        edges.append((f"e{i}", u, w))
    return Graph(range(n), edges)


@st.composite
def cyclic_pairs(
    draw, max_vertices: int = 3, max_edges: int = 3, max_order: int = 3
) -> Tuple[GroupGraph, FiniteGroupGraph]:
    graph = draw(small_graphs(max_vertices, max_edges))
    orders = st.integers(1, max_order)
    vertex_orders = {v: draw(orders) for v in graph.vertices}
    edge_orders = {e: draw(orders) for e in graph.edges}
    multipliers = {}
    for e in graph.edges:
        for v in set(graph.endpoints(e)):
            choices = hom_multipliers(vertex_orders[v], edge_orders[e])
            multipliers[(v, e)] = draw(st.sampled_from(choices))
    return matched_pair(
        graph=graph,
        vertex_orders=vertex_orders,
        edge_orders=edge_orders,
        multipliers=multipliers,
    )


@st.composite
def prunable_group_graphs(draw) -> GroupGraph:
    """A small core graph with pendant chains of random cyclic data."""
    core_kind = draw(st.sampled_from(["vertex", "edge", "triangle", "loop"]))
    if core_kind == "vertex":
        vertices: List[object] = [0]
        edges: List[Tuple[object, object, object]] = []
    elif core_kind == "edge":
        vertices = [0, 1]
        edges = [("c0", 0, 1)]
    elif core_kind == "loop":
        vertices = [0]
        edges = [("c0", 0, 0)]
    else:
        vertices = [0, 1, 2]
        edges = [("c0", 0, 1), ("c1", 1, 2), ("c2", 0, 2)]
    n_chains = draw(st.integers(0, 2))
    nxt = len(vertices)
    for c in range(n_chains):
        length = draw(st.integers(1, 2))
        attach = draw(st.sampled_from(list(vertices)))
        prev = attach
        for k in range(length):
            vertices.append(nxt)
            edges.append((f"p{c}_{k}", prev, nxt))
            prev = nxt
            nxt += 1
    graph = Graph(vertices, edges)
    orders = st.integers(1, 3)
    vertex_orders = {v: draw(orders) for v in graph.vertices}
    edge_orders = {e: draw(orders) for e in graph.edges}
    multipliers = {}
    for e in graph.edges:
        for v in set(graph.endpoints(e)):
            choices = hom_multipliers(vertex_orders[v], edge_orders[e])
            multipliers[(v, e)] = draw(st.sampled_from(choices))
    exact, _ = matched_pair(
        graph=graph,
        vertex_orders=vertex_orders,
        edge_orders=edge_orders,
        multipliers=multipliers,
    )
    return exact


@st.composite
def atom_group_graphs(
    draw, max_vertices: int = 3, max_edges: int = 4, max_order: int = 3
) -> GroupGraph:
    """Cyclic group-graphs whose vertex and edge groups mostly carry the atom
    ``cremer`` too; a restriction mostly sends a vertex atom onto the edge
    atom, else to zero, so a vertex atom may land on several edge atoms.
    There are at least two edges; they join distinct vertices first, loops
    last."""
    n = draw(st.integers(2, max_vertices))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)] + [(v, v) for v in range(n)]
    ends = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=max_edges))
    graph = Graph(range(n), [(f"e{i}", u, w) for i, (u, w) in enumerate(ends)])
    orders = st.integers(1, max_order)

    def group(order: int, atom: bool) -> PresentedAbelianGroup:
        base = cyclic_group(order)
        return direct_sum([base, ATOM])[0] if atom else base

    vertex_orders = {v: draw(orders) for v in graph.vertices}
    edge_orders = {e: draw(orders) for e in graph.edges}
    mostly = st.sampled_from([True, True, False])
    vgroups = {v: group(order, draw(mostly)) for v, order in vertex_orders.items()}
    egroups = {e: group(order, draw(mostly)) for e, order in edge_orders.items()}
    rhos = {}
    for e in graph.edges:
        for v in set(graph.endpoints(e)):
            k = draw(st.sampled_from(hom_multipliers(vertex_orders[v], edge_orders[e])))
            onto_atom = bool(egroups[e].atoms) and draw(mostly)
            rhos[(v, e)] = GroupHom(
                vgroups[v],
                egroups[e],
                [],
                [({}, {0: k})],
                [0 if onto_atom else None] * len(vgroups[v].atoms),
            )
    return GroupGraph(graph, vgroups, egroups, rhos, table=TABLE)
