"""The exactness predicates and the brute-force orbit count against the code
they replaced.

The references below are the earlier implementations:
:func:`ref_is_injective`, :func:`ref_is_surjective` and
:func:`ref_is_exact_at` classify a whole kernel or cokernel, and
:func:`ref_brute_force_h1` searches orbits over tuples.  A group that the
normal form returned is classified by the report stored on it; a fresh
normalization is its reference.  The predicates now
test span membership of generators and the search codes tuples as ints;
on random homs, group-graph coboundaries and kernel/cokernel pairs, and
on seeded table group-graphs, both must give the same answers and raise
the same errors.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gg_builders as gb
from folmod.abgroup import (
    GroupHom,
    PresentedAbelianGroup,
    UnsupportedAtomMap,
    _PreimageSystem,
    _normalize_full,
    check_hom,
    classify,
    cokernel,
    compose,
    hom_is_zero,
    is_exact_at,
    is_injective,
    is_surjective,
    kernel,
    zero_hom,
)
from folmod.exactnum import Scalar, SymbolTable
from folmod.gg import (
    BoundExceeded,
    BruteForceResult,
    FiniteGroup,
    FiniteGroupGraph,
    FiniteHom,
    Graph,
    brute_force_h1,
    coboundary0,
)
from test_sparse_linalg import _draw_hom

# ---------------------------------------------------------------------------
# Reference predicates: classify the kernel or the cokernel
# ---------------------------------------------------------------------------


def ref_is_surjective(h: GroupHom) -> bool:
    return classify(cokernel(h).group).is_trivial


def ref_is_injective(h: GroupHom) -> bool:
    for k, j in enumerate(h.atom_images):
        if j is None:
            return False
        if h.dom.atoms[k].mod_order is None and h.cod.atoms[j].mod_order is not None:
            return False  # a genuine quotient on the atom
    return classify(kernel(h).group).is_trivial


def ref_is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    if f.cod != g.dom:
        raise ValueError("maps are not composable")
    if not hom_is_zero(compose(g, f)):
        return False
    covered = {j for j in f.atom_images if j is not None}
    for k, j in enumerate(g.atom_images):
        if j is None:
            if k not in covered:
                return False
        elif g.dom.atoms[k].mod_order is None and g.cod.atoms[j].mod_order is not None:
            raise UnsupportedAtomMap(
                "exactness against a genuine atom quotient cannot be verified"
            )
    bare = PresentedAbelianGroup(g.dom.table, g.dom.cont_rank, g.dom.disc_rank, g.dom.relations)
    stripped = GroupHom(bare, g.cod, g.cont_images, g.disc_images, ())
    inclusion = kernel(stripped).inclusion
    span = _PreimageSystem(g.dom, f.cont_images, f.disc_images)
    return span.contains(inclusion.cont_images, inclusion.disc_images)


def _verdict(predicate, *maps):
    """The predicate's answer, or the type and text of the error it raised."""
    try:
        return predicate(*maps)
    except UnsupportedAtomMap as exc:
        return type(exc), str(exc)


def _assert_same_verdicts(h: GroupHom) -> None:
    """Both predicates on ``h``, and exactness at both ends of its kernel
    and its cokernel, against the references."""
    check_hom(h)
    assert _verdict(is_injective, h) == _verdict(ref_is_injective, h)
    assert _verdict(is_surjective, h) == _verdict(ref_is_surjective, h)
    k, c = kernel(h), cokernel(h)
    pairs = [
        (k.inclusion, h),
        (h, c.projection),
        # exact iff h is injective: some of these pairs are not exact
        (zero_hom(k.group, h.dom), h),
    ]
    for f, g in pairs:
        assert _verdict(is_exact_at, f, g) == _verdict(ref_is_exact_at, f, g)
    for m in (k.inclusion, c.projection):
        assert _verdict(is_injective, m) == _verdict(ref_is_injective, m)
        assert _verdict(is_surjective, m) == _verdict(ref_is_surjective, m)


class TestPredicatesEqualTheReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_on_homs_with_line_and_lattice_rows(self, data) -> None:
        _assert_same_verdicts(_draw_hom(data))

    @settings(max_examples=40, deadline=None)
    @given(gb.atom_group_graphs())
    def test_on_coboundaries_with_atoms(self, G) -> None:
        try:
            d = coboundary0(G)
        except UnsupportedAtomMap:
            assume(False)
        _assert_same_verdicts(d)


class TestStoredReports:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_normal_form_reads_its_stored_report(self, data) -> None:
        # classify of a group the normal form returned reads the report
        # stored on it, which must be the one a fresh normalization gives,
        # over line and lattice rows of symbols and rational functions too,
        # and normalizing that group again must give it back
        group = cokernel(_draw_hom(data)).group
        normalized, _, _, fresh = _normalize_full.__wrapped__(group)
        report = classify(group)
        assert report == fresh and report.text() == fresh.text()
        if group._report is not None:
            assert group._report == fresh._classification()
            assert report.group is group and normalized == group
        else:
            assert report.lattices or report.nondiscrete or report.nondiscrete_blocks

    def test_a_lattice_display_is_not_stored(self) -> None:
        # Normalizing the normal form of this torus again displays the
        # inverse period, so its report is computed again, as before.
        t = SymbolTable(["a"])
        a, one = Scalar.symbol(t, "a"), Scalar.one(t)
        torus = PresentedAbelianGroup.lattice_quotient(t, [a + one, a / (a - one.scale(2))])
        report = classify(torus)
        assert report.text() == "C/(Z + ((-a)/(a^2 - 2))Z)"
        assert report.group._report is None
        assert classify(report.group).text() == "C/(Z + ((-a^2 + 2)/(a))Z)"


# ---------------------------------------------------------------------------
# Reference orbit search over tuples
# ---------------------------------------------------------------------------


def ref_brute_force_h1(G: FiniteGroupGraph, bound: int = 10_000_000) -> BruteForceResult:
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

    generators = []
    for v in g.vertices:
        gv = G.vertex_group(v)
        generators.extend((v, x) for x in gv.elements() if x != gv.identity)

    ends = [g.endpoints(e) for e in eids]
    tables = []
    for v, x in generators:
        table = []
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

    def act(z, table):
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


GROUPS = (
    FiniteGroup.trivial(),
    FiniteGroup.cyclic(2),
    FiniteGroup.cyclic(3),
    FiniteGroup.cyclic(4),
    FiniteGroup.from_factors([2, 2]),
    FiniteGroup.symmetric(3),
)


def _generators(g: FiniteGroup) -> List[int]:
    """A generating set of ``g``, chosen greedily in element order."""
    gens: List[int] = []
    reached = {g.identity}
    for x in g.elements():
        if x in reached:
            continue
        gens.append(x)
        reached, frontier = {g.identity}, [g.identity]
        while frontier:
            a = frontier.pop()
            for y in gens:
                b = g.mul(a, y)
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return gens


def _all_homs(dom: FiniteGroup, cod: FiniteGroup) -> List[FiniteHom]:
    """Every hom ``dom -> cod``: each choice of images of the generators
    that extends consistently along right multiplication."""
    gens = _generators(dom)
    homs = []
    for imgs in itertools.product(cod.elements(), repeat=len(gens)):
        images = {dom.identity: cod.identity}
        frontier, ok = [dom.identity], True
        while frontier and ok:
            a = frontier.pop()
            for x, y in zip(gens, imgs):
                b, c = dom.mul(a, x), cod.mul(images[a], y)
                if b not in images:
                    images[b] = c
                    frontier.append(b)
                elif images[b] != c:
                    ok = False
                    break
        if ok:
            homs.append(FiniteHom(dom, cod, [images[a] for a in dom.elements()]))
    return homs


HOMS = {
    (a, b): _all_homs(GROUPS[a], GROUPS[b])
    for a in range(len(GROUPS))
    for b in range(len(GROUPS))
}


def _table_graph(rng: random.Random) -> FiniteGroupGraph:
    """A table group-graph of up to three vertices and three edges, loops
    included, each restriction map drawn from every hom between its ends."""
    n = rng.randint(1, 3)
    edges = [(f"e{i}", rng.randrange(n), rng.randrange(n)) for i in range(rng.randint(0, 3))]
    graph = Graph(range(n), edges)
    vkind = {v: rng.randrange(len(GROUPS)) for v in graph.vertices}
    ekind = {e: rng.randrange(len(GROUPS)) for e in graph.edges}
    rhos = {
        (v, e): rng.choice(HOMS[(vkind[v], ekind[e])])
        for e in graph.edges
        for v in set(graph.endpoints(e))
    }
    return FiniteGroupGraph(
        graph,
        {v: GROUPS[k] for v, k in vkind.items()},
        {e: GROUPS[k] for e, k in ekind.items()},
        rhos,
    )


def _both(G: FiniteGroupGraph, bound: int):
    out = []
    for search in (brute_force_h1, ref_brute_force_h1):
        try:
            out.append(search(G, bound=bound))
        except BoundExceeded as exc:
            out.append(str(exc))
    return out


class TestBruteForceEqualsTheReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_on_seeded_table_graphs(self, seed) -> None:
        rng = random.Random(f"brute-force-{seed}")
        for _ in range(60):
            G = _table_graph(rng)
            got, want = _both(G, bound=20_000)
            assert got == want

    def test_edgeless_trivial_and_loop_graphs(self) -> None:
        s3, z1 = GROUPS[5], GROUPS[0]
        edgeless = FiniteGroupGraph(Graph(range(2), []), {0: s3, 1: z1}, {}, {})
        want = BruteForceResult(1, ((),))
        assert brute_force_h1(edgeless) == ref_brute_force_h1(edgeless) == want
        trivial = FiniteGroupGraph(
            Graph(range(2), [("e", 0, 1), ("l", 1, 1)]),
            {0: z1, 1: z1},
            {"e": z1, "l": z1},
            {key: FiniteHom.identity(z1) for key in ((0, "e"), (1, "e"), (1, "l"))},
        )
        assert brute_force_h1(trivial) == ref_brute_force_h1(trivial) == BruteForceResult(1, ((0, 0),))
        # S3 acting on an S3 loop by conjugation: one orbit per conjugacy class.
        loop = FiniteGroupGraph(
            Graph([0], [("l", 0, 0)]), {0: s3}, {"l": s3}, {(0, "l"): FiniteHom.identity(s3)}
        )
        got = brute_force_h1(loop)
        assert got == ref_brute_force_h1(loop)
        assert got.orbit_count == 3

    def test_bound_message(self) -> None:
        s3 = GROUPS[5]
        G = FiniteGroupGraph(
            Graph(range(2), [("e", 0, 1)]),
            {0: s3, 1: s3},
            {"e": s3},
            {(0, "e"): FiniteHom.identity(s3), (1, "e"): FiniteHom.identity(s3)},
        )
        got, want = _both(G, bound=215)
        assert got == want == "state space 216 exceeds bound 215"
        assert _both(G, bound=216)[0] == BruteForceResult(1, ((0,),))
