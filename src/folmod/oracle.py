"""Randomized cross-check suites for the group-graph engine.

Four seeded suites compare independent computations of the same quantity:

* ``abelian_agreement`` — the classified order of ``h1`` of a random
  abelian group-graph against a brute-force orbit count over the same data
  presented as multiplication tables;
* ``prune_invariance`` — the brute-force ``H^1`` cardinality of a random
  group-graph (non-abelian tables included) before and after pruning a
  constructed repulsive dead branch;
* ``mayer_vietoris_exactness`` — the exactness verdict of the
  Mayer-Vietoris sequence of a random two-piece edge cover;
* ``les_exactness`` — the exactness verdict of the long exact sequence of
  a random element-wise short exact triple of abelian group-graphs.

Every suite draws from one :class:`random.Random` stream, so a fixed seed
reproduces the identical report.  Instances whose brute-force state space
exceeds the bound are skipped and re-drawn; the skip count is reported.
On a failure the offending instance is serialized into the report for
replay.

Instances share their small values: the presented groups ``Z/n`` and
``Z/a (+) Z/b``, the homs between them that the suites draw, the
multiplication tables and the table homs between them (``x -> k*x`` on
cyclic tables, identities and trivial maps) come from builders memoized
per process.  They are immutable values (see
:class:`~folmod.abgroup.PresentedAbelianGroup`), so sharing changes no
result; a shared group or hom keeps its relation span or preimage system,
which is then factored once per process, and a shared table hom is
checked once, when it is built.  The keys are drawn orders and
multipliers of at most 8 and the memoized tables, which bounds the memos.
No group drawn here has a continuous generator, so every preimage system
is an integer one and does no field work (see
:class:`~folmod.abgroup._PreimageSystem`).

>>> report = run_oracle(seed=7, runs=2)
>>> report.ok
True
>>> [s.runs for s in report.suites]
[2, 2, 2, 2]
"""

from __future__ import annotations

import json
import random
from functools import cache
from math import gcd
from typing import Callable, List, NamedTuple, Optional, Tuple

from .abgroup import (
    GroupHom,
    PresentedAbelianGroup,
    Relation,
    classify,
)
from .exactnum import SymbolTable
from .gg import (
    BoundExceeded,
    CoverMismatch,
    FiniteGroup,
    FiniteGroupGraph,
    FiniteHom,
    Graph,
    GroupGraph,
    GroupGraphMorphism,
    brute_force_h1,
    h1,
    long_exact_sequence,
    mayer_vietoris,
    prune,
)

__all__ = [
    "DEFAULT_BOUND",
    "run_oracle",
]

DEFAULT_BOUND = 60_000
"""Largest brute-force state space attempted per instance."""

DEFAULT_RUNS = {
    "abelian_agreement": 200,
    "prune_invariance": 100,
    "mayer_vietoris_exactness": 100,
    "les_exactness": 100,
}

_MAX_REDRAWS = 50
"""Redraw attempts per completed run before giving up as a skip."""

_TABLE = SymbolTable([])

_SMALL_ORDERS = (1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8)
"""Group orders up to 8, weighted toward cheap instances."""


class SuiteResult(NamedTuple):
    """Outcome of one suite: completed ``runs``, all of which ``passed``,
    plus the number of over-bound draws ``skipped``; on a mismatch,
    ``failure`` holds a JSON dump of the offending instance."""

    name: str
    runs: int
    passed: int
    skipped: int
    failure: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failure is None and self.passed == self.runs

    def line(self) -> str:
        state = "ok" if self.ok else "FAIL"
        out = f"{self.name}: {state} ({self.passed}/{self.runs} passed, {self.skipped} skipped)"
        if self.failure is not None:
            out += f"\n  failing instance: {self.failure}"
        return out


class OracleReport(NamedTuple):
    seed: int
    bound: int
    suites: Tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def text(self) -> str:
        lines = [f"oracle run (seed={self.seed}, bound={self.bound})"]
        lines.extend(s.line() for s in self.suites)
        lines.append("all suites ok" if self.ok else "FAILURES detected")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "bound": self.bound,
            "ok": self.ok,
            "suites": [
                {
                    "name": s.name,
                    "runs": s.runs,
                    "passed": s.passed,
                    "skipped": s.skipped,
                    "ok": s.ok,
                    "failure": s.failure,
                }
                for s in self.suites
            ],
        }


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


@cache
def _cyclic(order: int) -> PresentedAbelianGroup:
    """``Z/order`` with exactly one discrete generator, even for order 1."""
    return PresentedAbelianGroup(_TABLE, 0, 1, [Relation({}, {0: order}, "Z")])


@cache
def _pair_group(a: int, b: int) -> PresentedAbelianGroup:
    """``Z/a (+) Z/b`` with exactly two discrete generators."""
    return PresentedAbelianGroup(
        _TABLE, 0, 2, [Relation({}, {0: a}, "Z"), Relation({}, {1: b}, "Z")]
    )


@cache
def _cyclic_hom(dom_order: int, cod_order: int, mult: int) -> GroupHom:
    """The hom ``Z/dom -> Z/cod`` sending the generator to ``mult``."""
    return GroupHom(_cyclic(dom_order), _cyclic(cod_order), [], [({}, {0: mult})], ())


@cache
def _inclusion(a: int, b: int) -> GroupHom:
    """The inclusion ``Z/a -> Z/a (+) Z/b`` of the first factor."""
    return GroupHom(_cyclic(a), _pair_group(a, b), [], [({}, {0: 1})], ())


@cache
def _projection(a: int, b: int) -> GroupHom:
    """The projection ``Z/a (+) Z/b -> Z/b`` onto the second factor."""
    return GroupHom(_pair_group(a, b), _cyclic(b), [], [({}, {}), ({}, {0: 1})], ())


@cache
def _cyclic_table(order: int) -> FiniteGroup:
    """The multiplication table of ``Z/order``."""
    return FiniteGroup.cyclic(order)


@cache
def _cyclic_table_hom(dom_order: int, cod_order: int, mult: int) -> FiniteHom:
    """The table hom ``Z/dom -> Z/cod``, ``x -> mult * x``."""
    return FiniteHom(
        _cyclic_table(dom_order),
        _cyclic_table(cod_order),
        [mult * x % cod_order for x in range(dom_order)],
    )


@cache
def _identity_table_hom(g: FiniteGroup) -> FiniteHom:
    """The identity of a table group."""
    return FiniteHom.identity(g)


@cache
def _trivial_table_hom(dom: FiniteGroup, cod: FiniteGroup) -> FiniteHom:
    """The trivial hom between table groups."""
    return FiniteHom.trivial(dom, cod)


@cache
def _table_group(kind: int) -> FiniteGroup:
    """The drawn non-cyclic table: S3, ``Z2 x Z2`` or ``Z2 x Z4``."""
    if kind == 0:
        return FiniteGroup.symmetric(3)
    return FiniteGroup.from_factors([2, 2] if kind == 1 else [2, 4])


def _cyclic_hom_mult(rng: random.Random, dom_order: int, cod_order: int) -> int:
    """A random multiplier defining a hom ``Z/dom -> Z/cod``."""
    g = gcd(dom_order, cod_order)
    step = cod_order // g
    return step * rng.randrange(g)


def _random_graph(rng: random.Random, max_vertices: int, max_edges: int) -> Graph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = []
    for i in range(m):
        edges.append((f"e{i}", rng.randrange(n), rng.randrange(n)))
    return Graph(range(n), edges)


def _state_space(vertex_orders: List[int], edge_orders: List[int]) -> int:
    total = 1
    for n in vertex_orders + edge_orders:
        total *= n
    return total


def _random_cyclic_pair(
    rng: random.Random, bound: int
) -> Optional[Tuple[GroupGraph, FiniteGroupGraph]]:
    """A random abelian group-graph in exact and table form, or ``None``
    when the drawn instance exceeds the brute-force bound."""
    graph = _random_graph(rng, 6, 6)
    vorders = {v: rng.choice(_SMALL_ORDERS) for v in graph.vertices}
    eorders = {e: rng.choice(_SMALL_ORDERS) for e in graph.edges}
    if _state_space(list(vorders.values()), list(eorders.values())) > bound:
        return None
    mults = {}
    for e in graph.edges:
        for v in set(graph.endpoints(e)):
            mults[(v, e)] = _cyclic_hom_mult(rng, vorders[v], eorders[e])
    exact = GroupGraph(
        graph,
        {v: _cyclic(n) for v, n in vorders.items()},
        {e: _cyclic(n) for e, n in eorders.items()},
        {
            (v, e): _cyclic_hom(vorders[v], eorders[e], k % eorders[e])
            for (v, e), k in mults.items()
        },
        table=_TABLE,
    )
    finite = FiniteGroupGraph(
        graph,
        {v: _cyclic_table(n) for v, n in vorders.items()},
        {e: _cyclic_table(n) for e, n in eorders.items()},
        {
            (v, e): _cyclic_table_hom(vorders[v], eorders[e], k)
            for (v, e), k in mults.items()
        },
    )
    return exact, finite


def _random_finite_group(rng: random.Random) -> FiniteGroup:
    kind = rng.randrange(6)
    if kind < 3:
        return _table_group(kind)
    return _cyclic_table(rng.choice(_SMALL_ORDERS))


def _easy_hom(rng: random.Random, dom: FiniteGroup, cod: FiniteGroup) -> FiniteHom:
    """A valid hom between arbitrary table groups: identity when the
    tables coincide (half of the time), otherwise the trivial map."""
    if dom == cod and rng.random() < 0.5:
        return _identity_table_hom(dom)
    return _trivial_table_hom(dom, cod)


def _random_prunable(
    rng: random.Random, bound: int
) -> Optional[Tuple[FiniteGroupGraph, Tuple]]:
    """A table group-graph with one constructed repulsive dead branch.

    The branch carries identity outward restrictions (hence is repulsive
    by construction) and arbitrary inward ones.
    """
    core_n = rng.randint(1, 3)
    vertices: List[object] = list(range(core_n))
    edges: List[Tuple[object, object, object]] = []
    for i in range(rng.randint(0, 3)):
        edges.append((f"c{i}", rng.randrange(core_n), rng.randrange(core_n)))
    groups = {v: _random_finite_group(rng) for v in vertices}
    egroups = {}
    rhos = {}
    for name, u, w in edges:
        egroups[name] = _random_finite_group(rng)
        for v in {u, w}:
            rhos[(v, name)] = _easy_hom(rng, groups[v], egroups[name])

    # attach the branch to a random core vertex
    attach = rng.randrange(core_n)
    length = rng.randint(1, 2)
    branch_vertices = []
    prev = attach
    for k in range(length):
        vid = f"x{k}"
        ename = f"f{k}"
        egroups[ename] = _random_finite_group(rng)
        groups[vid] = egroups[ename]
        vertices.append(vid)
        edges.append((ename, prev, vid))
        rhos[(vid, ename)] = _identity_table_hom(egroups[ename])
        rhos[(prev, ename)] = _easy_hom(rng, groups[prev], egroups[ename])
        branch_vertices.append(vid)
        prev = vid

    orders_v = [groups[v].order for v in vertices]
    orders_e = [egroups[e].order for e, _, _ in edges]
    if _state_space(orders_v, orders_e) > bound:
        return None
    graph = Graph(vertices, edges)
    ggraph = FiniteGroupGraph(graph, groups, egroups, rhos)
    branch = tuple(reversed(branch_vertices)) + (attach,)
    return ggraph, branch


def _random_mv_instance(
    rng: random.Random,
) -> Optional[Tuple[GroupGraph, Tuple, Tuple]]:
    """A random abelian group-graph with a two-piece cover of its edges."""
    graph = _random_graph(rng, 5, 6)
    vorders = {v: rng.choice(_SMALL_ORDERS) for v in graph.vertices}
    eorders = {e: rng.choice(_SMALL_ORDERS) for e in graph.edges}
    ggraph = GroupGraph(
        graph,
        {v: _cyclic(n) for v, n in vorders.items()},
        {e: _cyclic(n) for e, n in eorders.items()},
        {
            (v, e): _cyclic_hom(
                vorders[v], eorders[e], _cyclic_hom_mult(rng, vorders[v], eorders[e])
            )
            for e in graph.edges
            for v in set(graph.endpoints(e))
        },
        table=_TABLE,
    )
    sides: List[List] = [[], []]
    for e in graph.edges:
        side = rng.randrange(3)
        if side in (0, 2):
            sides[0].append(e)
        if side in (1, 2):
            sides[1].append(e)
    cover = []
    for side_edges in sides:
        vs = set()
        for e in side_edges:
            vs.update(graph.endpoints(e))
        cover.append((vs, list(side_edges)))
    for v in graph.vertices:
        if v not in cover[0][0] and v not in cover[1][0]:
            cover[rng.randrange(2)][0].add(v)
    if rng.random() < 0.5 and graph.vertices:
        cover[rng.randrange(2)][0].add(rng.choice(graph.vertices))
    c0 = (sorted(cover[0][0]), cover[0][1])
    c1 = (sorted(cover[1][0]), cover[1][1])
    return ggraph, c0, c1


def _random_les_triple(
    rng: random.Random,
) -> Tuple[GroupGraphMorphism, GroupGraphMorphism]:
    """An element-wise short exact triple sub -> total -> quot.

    Each stalk of the total graph is ``Z/a (+) Z/b`` with the sub graph on
    the first factors and the quotient on the second; the total restriction
    maps are upper-triangular, so the inclusion and projection commute with
    them for any choice of off-diagonal entry.
    """
    graph = _random_graph(rng, 4, 4)
    pairs_v = {v: (rng.randint(1, 5), rng.randint(1, 5)) for v in graph.vertices}
    pairs_e = {e: (rng.randint(1, 5), rng.randint(1, 5)) for e in graph.edges}

    sub_v = {v: _cyclic(a) for v, (a, _) in pairs_v.items()}
    quot_v = {v: _cyclic(b) for v, (_, b) in pairs_v.items()}
    tot_v = {v: _pair_group(a, b) for v, (a, b) in pairs_v.items()}
    sub_e = {e: _cyclic(a) for e, (a, _) in pairs_e.items()}
    quot_e = {e: _cyclic(b) for e, (_, b) in pairs_e.items()}
    tot_e = {e: _pair_group(a, b) for e, (a, b) in pairs_e.items()}

    sub_rho, quot_rho, tot_rho = {}, {}, {}
    for e in graph.edges:
        ae, be = pairs_e[e]
        for v in set(graph.endpoints(e)):
            av, bv = pairs_v[v]
            a_mult = _cyclic_hom_mult(rng, av, ae)
            b_mult = _cyclic_hom_mult(rng, bv, be)
            # off-diagonal entry: the quotient generator may feed into the
            # sub factor of the edge, constrained only by its own order
            c_step = ae // gcd(bv, ae)
            c_mult = c_step * rng.randrange(gcd(bv, ae))
            sub_rho[(v, e)] = _cyclic_hom(av, ae, a_mult)
            quot_rho[(v, e)] = _cyclic_hom(bv, be, b_mult)
            tot_rho[(v, e)] = GroupHom(
                tot_v[v],
                tot_e[e],
                [],
                [({}, {0: a_mult}), ({}, {0: c_mult, 1: b_mult})],
                (),
            )

    sub = GroupGraph(graph, sub_v, sub_e, sub_rho, table=_TABLE)
    quot = GroupGraph(graph, quot_v, quot_e, quot_rho, table=_TABLE)
    total = GroupGraph(graph, tot_v, tot_e, tot_rho, table=_TABLE)

    iota = GroupGraphMorphism(
        sub,
        total,
        {v: _inclusion(*pairs_v[v]) for v in graph.vertices},
        {e: _inclusion(*pairs_e[e]) for e in graph.edges},
    )
    pi = GroupGraphMorphism(
        total,
        quot,
        {v: _projection(*pairs_v[v]) for v in graph.vertices},
        {e: _projection(*pairs_e[e]) for e in graph.edges},
    )
    return iota, pi


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _run_suite(
    name: str,
    rng: random.Random,
    runs: int,
    one: Callable[[random.Random], Optional[Tuple[bool, Callable[[], str]]]],
) -> SuiteResult:
    """Drive one suite: draw until ``runs`` instances complete, counting
    over-bound draws as skips; stop early on the first failure."""
    passed = skipped = done = 0
    failure: Optional[str] = None
    while done < runs:
        outcome = None
        for _ in range(_MAX_REDRAWS):
            outcome = one(rng)
            if outcome is not None:
                break
            skipped += 1
        if outcome is None:
            break  # bound too tight to complete the quota; report skips
        ok, dump = outcome
        done += 1
        if ok:
            passed += 1
        else:
            failure = dump()
            break
    return SuiteResult(name, done, passed, skipped, failure)


def _abelian_one(bound: int) -> Callable:
    def one(rng: random.Random):
        pair = _random_cyclic_pair(rng, bound)
        if pair is None:
            return None
        exact, finite = pair
        try:
            brute = brute_force_h1(finite, bound=bound)
        except BoundExceeded:
            return None
        order = classify(h1(exact)).order()
        ok = order == brute.orbit_count
        return ok, lambda: json.dumps(
            {
                "suite": "abelian_agreement",
                "classified_order": order,
                "orbit_count": brute.orbit_count,
                "instance": finite.to_json(),
            },
            sort_keys=True,
        )

    return one


def _prune_one(bound: int) -> Callable:
    def one(rng: random.Random):
        drawn = _random_prunable(rng, bound)
        if drawn is None:
            return None
        ggraph, branch = drawn
        try:
            before = brute_force_h1(ggraph, bound=bound).orbit_count
            after = brute_force_h1(prune(ggraph, branch), bound=bound).orbit_count
        except BoundExceeded:
            return None
        ok = before == after
        return ok, lambda: json.dumps(
            {
                "suite": "prune_invariance",
                "before": before,
                "after": after,
                "branch": list(branch),
                "instance": ggraph.to_json(),
            },
            sort_keys=True,
        )

    return one


def _mv_one(rng: random.Random):
    drawn = _random_mv_instance(rng)
    if drawn is None:
        return None
    ggraph, c0, c1 = drawn
    try:
        result = mayer_vietoris(ggraph, c0, c1)
    except CoverMismatch:
        return None
    return result.exact, lambda: json.dumps(
        {
            "suite": "mayer_vietoris_exactness",
            "failures": list(result.failures),
            "cover0": [list(c0[0]), list(c0[1])],
            "cover1": [list(c1[0]), list(c1[1])],
            "instance": ggraph.to_json(),
        },
        sort_keys=True,
    )


def _les_one(rng: random.Random):
    iota, pi = _random_les_triple(rng)
    result = long_exact_sequence(iota, pi)
    return result.exact, lambda: json.dumps(
        {
            "suite": "les_exactness",
            "failures": list(result.failures),
            "sub": iota.dom.to_json(),
            "total": iota.cod.to_json(),
            "quot": pi.cod.to_json(),
        },
        sort_keys=True,
    )


def run_oracle(
    *,
    seed: int = 0,
    bound: Optional[int] = None,
    runs: Optional[int] = None,
) -> OracleReport:
    """Run all four suites and collect an :class:`OracleReport`.

    ``runs`` overrides the per-suite quota uniformly (handy for quick
    smoke checks); ``bound`` caps the brute-force state space.

    >>> run_oracle(seed=1, runs=1).ok
    True
    >>> run_oracle(seed=1, runs=1).text() == run_oracle(seed=1, runs=1).text()
    True
    """
    bound = DEFAULT_BOUND if bound is None else int(bound)
    quotas = {
        name: (runs if runs is not None else default)
        for name, default in DEFAULT_RUNS.items()
    }
    rng = random.Random(seed)
    suites = (
        _run_suite(
            "abelian_agreement", rng, quotas["abelian_agreement"], _abelian_one(bound)
        ),
        _run_suite(
            "prune_invariance", rng, quotas["prune_invariance"], _prune_one(bound)
        ),
        _run_suite(
            "mayer_vietoris_exactness",
            rng,
            quotas["mayer_vietoris_exactness"],
            _mv_one,
        ),
        _run_suite("les_exactness", rng, quotas["les_exactness"], _les_one),
    )
    return OracleReport(seed=seed, bound=bound, suites=suites)
