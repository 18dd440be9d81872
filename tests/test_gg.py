"""Tests for group-graph cohomology."""

from __future__ import annotations

import inspect
import itertools
import random
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gg_builders as gb
from folmod.abgroup import (
    GroupHom,
    HomError,
    PresentedAbelianGroup,
    classify,
    compose,
    direct_sum,
    hom_is_zero,
    identity_hom,
    is_injective,
    is_surjective,
    zero_hom,
)
from folmod import gg, oracle
from folmod.exactnum import Scalar, SymbolTable
from folmod.gg import (
    BoundExceeded,
    BruteForceResult,
    CoverMismatch,
    DeadBranch,
    FiniteGroup,
    FiniteGroupGraph,
    FiniteHom,
    Graph,
    GroupGraph,
    GroupGraphMorphism,
    NotRepulsive,
    NotShortExact,
    brute_force_h1,
    coboundary0,
    cohomology,
    h1,
    is_repulsive,
    long_exact_sequence,
    mayer_vietoris,
    prune,
    prune_all,
)

T = gb.TABLE


def z_mod(n: int) -> PresentedAbelianGroup:
    return gb.cyclic_group(n)


def identity_rho_graph(graph: Graph, group: PresentedAbelianGroup) -> GroupGraph:
    rhos = {
        (v, e): identity_hom(group)
        for e in graph.edges
        for v in set(graph.endpoints(e))
    }
    return GroupGraph(
        graph,
        {v: group for v in graph.vertices},
        {e: group for e in graph.edges},
        rhos,
        table=T,
    )


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


class TestGraph:
    def test_orientation_is_sorted_by_id(self):
        g = Graph([5, 2], [("e", 5, 2)])
        assert g.endpoints("e") == (2, 5)
        assert g.tail("e") == 2 and g.head("e") == 5

    def test_int_ids_precede_string_ids(self):
        g = Graph([3, "a"], [("e", "a", 3)])
        assert g.endpoints("e") == (3, "a")

    def test_loop_counts_twice_in_valency(self):
        g = Graph([0, 1], [("l", 0, 0), ("e", 0, 1)])
        assert g.valency(0) == 3
        assert g.valency(1) == 1
        assert g.is_loop("l") and not g.is_loop("e")
        assert g.incident(0) == ("e", "l")

    def test_multi_edges_are_distinct(self):
        g = Graph([0, 1], [("a", 0, 1), ("b", 1, 0)])
        assert g.edges == ("a", "b")
        assert g.rank_h1() == 1

    def test_rank_h1(self):
        assert Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]).rank_h1() == 1
        assert Graph([0, 1, 2], [("a", 0, 1)]).rank_h1() == 0
        assert Graph([0], [("l", 0, 0)]).rank_h1() == 1

    def test_connected_components(self):
        g = Graph([0, 1, 2, 3], [("a", 0, 1), ("b", 2, 3)])
        assert g.connected_components() == ((0, 1), (2, 3))

    def test_subgraph_induced_edges(self):
        g = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
        sub = g.subgraph([0, 1])
        assert sub.edges == ("a",)
        explicit = g.subgraph([0, 1, 2], ["b"])
        assert explicit.edges == ("b",)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 0])
        with pytest.raises(ValueError):
            Graph([0, 1], [("e", 0, 1), ("e", 1, 0)])
        with pytest.raises(ValueError):
            Graph([0], [("e", 0, 7)])

    def test_json_round_trip(self):
        g = Graph([0, "v"], [("a", 0, "v"), ("l", "v", "v")])
        assert Graph.from_json(g.to_json()) == g


# ---------------------------------------------------------------------------
# Group-graph construction
# ---------------------------------------------------------------------------


class TestGroupGraph:
    def test_rhos_are_checked_on_load(self):
        g = Graph([0, 1], [("e", 0, 1)])
        bad = GroupHom(z_mod(2), z_mod(3), [], [({}, {0: 1})], ())
        with pytest.raises(HomError):
            GroupGraph(
                g,
                {0: z_mod(2), 1: z_mod(2)},
                {"e": z_mod(3)},
                {(0, "e"): bad, (1, "e"): zero_hom(z_mod(2), z_mod(3))},
            )

    def test_missing_restriction_rejected(self):
        g = Graph([0, 1], [("e", 0, 1)])
        with pytest.raises(ValueError, match="missing restriction"):
            GroupGraph(
                g,
                {0: z_mod(2), 1: z_mod(2)},
                {"e": z_mod(2)},
                {(0, "e"): identity_hom(z_mod(2))},
            )

    def test_json_round_trip(self):
        G, _ = gb.matched_pair(
            graph=Graph([0, 1], [("e", 0, 1), ("l", 1, 1)]),
            vertex_orders={0: 4, 1: 2},
            edge_orders={"e": 2, "l": 4},
            multipliers={(0, "e"): 1, (1, "e"): 1, (1, "l"): 2},
        )
        back = GroupGraph.from_json(G.to_json())
        assert back.graph == G.graph
        assert classify(h1(back)) == classify(h1(G))
        for e in G.graph.edges:
            for v in set(G.graph.endpoints(e)):
                assert back.rho(v, e).disc_images == G.rho(v, e).disc_images


# The two kinds of group-graph: class, group of order n, identity map,
# trivial map.
KINDS = {
    "exact": (GroupGraph, z_mod, identity_hom, zero_hom),
    "finite": (FiniteGroupGraph, FiniteGroup.cyclic, FiniteHom.identity, FiniteHom.trivial),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_both_kinds_store_check_and_restrict_alike(kind, monkeypatch):
    cls, group, ident, trivial = KINDS[kind]
    z2, z3 = group(2), group(3)
    g = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2)])
    groups = ({v: z2 for v in g.vertices}, {e: z2 for e in g.edges})
    rhos = {(v, e): ident(z2) for e in g.edges for v in g.endpoints(e)}
    assert "check" not in inspect.signature(cls).parameters

    missing = {k: r for k, r in rhos.items() if k != (1, "b")}
    with pytest.raises(ValueError, match=r"^missing restriction map for incidence \(1, 'b'\)$"):
        cls(g, *groups, missing)
    with pytest.raises(ValueError, match=r"^restriction map at \(1, 'b'\) has wrong ends$"):
        cls(g, *groups, {**rhos, (1, "b"): trivial(z2, z3)})

    calls = []
    monkeypatch.setattr(gg, "check_hom", calls.append)
    whole = cls(g, *groups, rhos)
    assert len(calls) == (4 if cls is GroupGraph else 0)
    calls.clear()
    part = whole.restrict([0, 1])
    assert calls == []
    assert type(part) is cls and part.graph == Graph([0, 1], [("a", 0, 1)])
    assert part.rho(1, "a") is whole.rho(1, "a")
    if cls is GroupGraph:
        assert part.table is whole.table
        # a morphism checks every square, and no option skips that
        assert "check" not in inspect.signature(GroupGraphMorphism).parameters
        bent = cls(g, *groups, {**rhos, (0, "a"): trivial(z2, z2)})
        maps = [{x: ident(z2) for x in xs} for xs in (g.vertices, g.edges)]
        with pytest.raises(ValueError, match=r"^morphism does not commute at \(0, 'a'\)$"):
            GroupGraphMorphism(whole, bent, *maps)


def test_restrict_shares_the_data_keeps_the_table_and_no_sums():
    whole = identity_rho_graph(Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2)]), z_mod(2))
    cohomology(whole)
    assert set(whole._sums) == {0, 1}
    part = whole.restrict([0, 1])
    assert part.table is whole.table and part._sums == {}
    assert part.vertex_group(1) is whole.vertex_group(1)
    assert part.edge_group("a") is whole.edge_group("a")
    assert part.rho(0, "a") is whole.rho(0, "a")
    fresh = GroupGraph(
        part.graph,
        {v: part.vertex_group(v) for v in part.graph.vertices},
        {e: part.edge_group(e) for e in part.graph.edges},
        {(v, "a"): part.rho(v, "a") for v in (0, 1)},
    )
    assert cohomology(part) == cohomology(fresh)
    assert set(part._sums) == {0, 1} and set(whole._sums) == {0, 1}


RESULT_FIELDS = {
    gg.CohomologyResult: (
        "h0",
        "h1",
        "witnesses",
        "h0_inclusion",
        "h1_projection",
        "h1_section",
    ),
    gg.MayerVietorisResult: ("groups", "maps", "exact", "failures", "pieces"),
    gg.LongExactSequenceResult: ("groups", "maps", "exact", "failures", "middle"),
}


@pytest.mark.parametrize("cls", list(RESULT_FIELDS), ids=lambda cls: cls.__name__)
def test_results_keep_their_fields_and_compare_every_one(cls):
    names = RESULT_FIELDS[cls]
    assert cls._fields == names and cls.__doc__
    built = cls(**{name: name for name in names})
    assert [getattr(built, name) for name in names] == list(names)
    assert built == cls(*names) and hash(built) == hash(cls(*names))
    for k in range(len(names)):
        assert built != cls(*names[:k], None, *names[k + 1 :])


def test_a_cohomology_result_builds_from_its_keywords():
    G = identity_rho_graph(Graph([0, 1], [("e", 0, 1)]), z_mod(2))
    c = cohomology(G)
    assert gg.CohomologyResult(**c._asdict()) == c
    assert c.witnesses == coboundary0(G)


# ---------------------------------------------------------------------------
# Degree-0 coboundary and cohomology
# ---------------------------------------------------------------------------


class TestCoboundary:
    def test_single_edge_is_difference_map(self):
        G = identity_rho_graph(Graph([0, 1], [("e", 0, 1)]), z_mod(2))
        d0 = coboundary0(G)
        # (a, b) -> b - a on the single edge copy of Z/2
        assert [d for _, d in d0.disc_images] == [{0: -1}, {0: 1}]

    def test_two_isolated_vertices_map_to_trivial_group(self):
        g = Graph([0, 1], [])
        G = GroupGraph(g, {0: z_mod(2), 1: z_mod(3)}, {}, {}, table=T)
        d0 = coboundary0(G)
        assert d0.cod.cont_rank == 0 and d0.cod.disc_rank == 0
        assert hom_is_zero(d0)
        assert classify(cohomology(G).h0).text() == "Z/6"  # invariant-factor form of Z/2 (+) Z/3
        assert classify(h1(G)).is_trivial

    def test_a_line_hit_only_by_a_discrete_generator_has_no_section(self):
        # The preimage of the line's generator is the discrete part {0: 1},
        # whose only nonzero entry sits at column 0.
        z, line = PresentedAbelianGroup.free_disc(T, 1), PresentedAbelianGroup.free_cont(T, 1)
        h = GroupHom(z, line, [], [({0: Scalar.one(T)}, {})], ())
        with pytest.raises(ValueError, match="no continuous section"):
            gg._pseudo_section(h)

    def test_loop_block_vanishes(self):
        G = identity_rho_graph(Graph([0], [("l", 0, 0)]), z_mod(2))
        assert hom_is_zero(coboundary0(G))
        assert classify(h1(G)).text() == "Z/2"
        assert classify(cohomology(G).h0).text() == "Z/2"

    def test_result_fields_are_consistent(self):
        G = identity_rho_graph(Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]), z_mod(2))
        res = cohomology(G)
        assert classify(res.h1).text() == "Z/2"
        assert classify(res.h0).text() == "Z/2"
        assert is_injective(res.h0_inclusion)
        assert is_surjective(res.h1_projection)
        assert hom_is_zero(compose(res.witnesses, res.h0_inclusion))
        round_trip = compose(res.h1_projection, res.h1_section)
        assert classify(res.h1) == classify(round_trip.dom)


class TestCohomologyOracles:
    def test_tree_with_surjective_restrictions_has_trivial_h1(self):
        G = identity_rho_graph(Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2)]), z_mod(4))
        assert classify(h1(G)).is_trivial
        assert classify(cohomology(G).h0).text() == "Z/4"

    def test_triangle_of_z2_identities(self):
        G = identity_rho_graph(
            Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]), z_mod(2)
        )
        assert classify(h1(G)).text() == "Z/2"

    def test_single_edge_trivial_vertices_keeps_edge_group(self):
        triv = PresentedAbelianGroup.trivial(T)
        g = Graph([0, 1], [("e", 0, 1)])
        G = GroupGraph(
            g,
            {0: triv, 1: triv},
            {"e": z_mod(3)},
            {(0, "e"): zero_hom(triv, z_mod(3)), (1, "e"): zero_hom(triv, z_mod(3))},
        )
        assert classify(h1(G)).text() == "Z/3"

    def test_h1_respects_connected_components(self):
        g = Graph(
            [0, 1, 2, 3, 4],
            [("a", 0, 1), ("t0", 2, 3), ("t1", 3, 4), ("t2", 2, 4)],
        )
        parts = {
            **{(v, e): identity_hom(z_mod(2)) for e in g.edges for v in g.endpoints(e)}
        }
        G = GroupGraph(
            g,
            {v: z_mod(2) for v in g.vertices},
            {e: z_mod(2) for e in g.edges},
            parts,
        )
        comps = G.graph.connected_components()
        assert comps == ((0, 1), (2, 3, 4))
        total, _ = direct_sum([h1(G.restrict(c)) for c in comps], T)
        assert classify(total) == classify(h1(G))


# ---------------------------------------------------------------------------
# Dead branches and pruning
# ---------------------------------------------------------------------------


def find_partial_dead_branches(g: Graph) -> List[DeadBranch]:
    """All chains hanging off an extremity, one entry per chain prefix: the
    branch finder of the reference pruning below.

    Walks inward from every valency-1 vertex while the interior has
    valency 2, emitting each prefix as its own branch (the attaching
    vertex of a prefix may itself have valency 2).  Cycles have no
    extremities and yield nothing.
    """
    out: List[DeadBranch] = []
    for x in g.vertices:
        if g.valency(x) != 1:
            continue
        chain_v = [x]
        chain_e: List = []
        cur = x
        prev_edge: Optional[object] = None
        while True:
            candidates = [e for e in g.incident(cur) if e != prev_edge]
            if len(candidates) != 1:
                break
            e = candidates[0]
            u, w = g.endpoints(e)
            nxt = w if u == cur else u
            if nxt in chain_v:
                break
            chain_v.append(nxt)
            chain_e.append(e)
            out.append(DeadBranch(tuple(chain_v), tuple(chain_e)))
            if g.valency(nxt) != 2:
                break
            prev_edge = e
            cur = nxt
    return out


def reference_prune_all(G):
    """Pruning as a search: after each prune, find every dead branch again
    and prune the first repulsive one, shortest first, then by the id of
    its extremity."""
    while True:
        branches = sorted(
            find_partial_dead_branches(G.graph),
            key=lambda b: (len(b.vertices), gg._id_key(b.vertices[0])),
        )
        for b in branches:
            if is_repulsive(G, b):
                G = prune(G, b)
                break
        else:
            return G


class TestDeadBranches:
    def test_path_yields_prefixes_from_both_ends(self):
        g = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2)])
        found = find_partial_dead_branches(g)
        assert [(b.vertices, b.attach) for b in found] == [
            ((0, 1), 1),
            ((0, 1, 2), 2),
            ((2, 1), 1),
            ((2, 1, 0), 0),
        ]

    def test_cycle_has_no_branches(self):
        g = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
        assert find_partial_dead_branches(g) == []

    def test_branch_stops_at_high_valency_vertex(self):
        # pendant edge into a triangle: the walk cannot enter the cycle
        g = Graph(
            [0, 1, 2, 3],
            [("p", 3, 0), ("a", 0, 1), ("b", 1, 2), ("c", 0, 2)],
        )
        found = find_partial_dead_branches(g)
        assert [(b.vertices, b.edges) for b in found] == [((3, 0), ("p",))]

    def test_star_center_blocks_extension(self):
        g = Graph([0, 1, 2, 3], [("a", 0, 1), ("b", 0, 2), ("c", 0, 3)])
        found = find_partial_dead_branches(g)
        assert {(b.extremity, b.attach) for b in found} == {(1, 0), (2, 0), (3, 0)}
        assert all(len(b.edges) == 1 for b in found)

    def test_loop_end_is_not_an_extremity(self):
        g = Graph([0, 1], [("e", 0, 1), ("l", 1, 1)])
        found = find_partial_dead_branches(g)
        assert [(b.vertices, b.edges) for b in found] == [((0, 1), ("e",))]


class TestPruning:
    def surjective_chain(self) -> GroupGraph:
        return identity_rho_graph(
            Graph([0, 1, 2, 3], [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)]), z_mod(2)
        )

    def blocked_chain(self) -> GroupGraph:
        """Five-vertex chain whose inner neighbours cannot be pruned through."""
        triv = PresentedAbelianGroup.trivial(T)
        g = Graph(
            ["c1", "d1", "d", "d2", "c2"],
            [
                ("e1", "c1", "d1"),
                ("e2", "d1", "d"),
                ("e3", "d", "d2"),
                ("e4", "d2", "c2"),
            ],
        )
        groups = {"c1": z_mod(2), "d1": triv, "d": z_mod(2), "d2": triv, "c2": z_mod(2)}
        rhos = {
            (v, e): identity_hom(z_mod(2)) if groups[v].disc_rank else zero_hom(triv, z_mod(2))
            for e in g.edges
            for v in g.endpoints(e)
        }
        return GroupGraph(g, groups, {e: z_mod(2) for e in g.edges}, rhos)

    def test_repulsive_needs_outward_surjectivity(self):
        G = self.blocked_chain()
        assert is_repulsive(G, ["c1", "d1"])
        assert not is_repulsive(G, ["c1", "d1", "d"])

    def test_prune_keeps_attaching_vertex(self):
        G = self.surjective_chain()
        P = prune(G, [0, 1])  # branch 0 -> attaching vertex 1
        assert P.graph.vertices == (1, 2, 3)
        assert classify(h1(P)) == classify(h1(G))

    def test_prune_rejects_non_repulsive_branch(self):
        G = self.blocked_chain()
        with pytest.raises(NotRepulsive):
            prune(G, ["c1", "d1", "d"])

    def test_prune_rejects_malformed_branches(self):
        G = self.surjective_chain()
        with pytest.raises(ValueError, match="valency"):
            prune(G, [1, 2])  # interior vertex used as an extremity
        with pytest.raises(ValueError, match="at least one edge"):
            prune(G, [0])

    def test_prune_all_collapses_surjective_chain(self):
        P = prune_all(self.surjective_chain())
        assert P.graph.vertices == (3,)
        assert P.graph.edges == ()

    def test_prune_all_stops_at_blocked_core(self):
        P = prune_all(self.blocked_chain())
        assert P.graph.vertices == ("d", "d1", "d2")
        assert classify(h1(P)).text() == "Z/2"

    @settings(max_examples=20, deadline=None)
    @given(gb.prunable_group_graphs())
    def test_prune_all_preserves_h1(self, G):
        assert classify(h1(prune_all(G))) == classify(h1(G))

    @settings(max_examples=60, deadline=None)
    @given(gb.prunable_group_graphs())
    def test_prune_all_equals_the_search(self, G):
        assert prune_all(G).to_json() == reference_prune_all(G).to_json()

    def test_prune_all_equals_the_search_on_oracle_draws(self):
        drawn = 0
        for seed in range(3000):
            pair = oracle._random_prunable(random.Random(seed), oracle.DEFAULT_BOUND)
            if pair is not None:
                G = pair[0]
                assert prune_all(G).to_json() == reference_prune_all(G).to_json()
                drawn += 1
        assert drawn > 1000

    def test_prune_all_tests_each_restriction_once(self, monkeypatch):
        # A chain whose first vertex cannot be pruned: the search tested
        # that extremity again after every prune, and each prune tested
        # its branch twice.
        n = 200
        triv = PresentedAbelianGroup.trivial(T)
        g = Graph(list(range(n)), [(f"e{i}", i, i + 1) for i in range(n - 1)])
        groups = {v: triv if v == 0 else z_mod(2) for v in g.vertices}
        rhos = {
            (v, e): zero_hom(triv, z_mod(2)) if v == 0 else identity_hom(z_mod(2))
            for e in g.edges
            for v in g.endpoints(e)
        }
        G = GroupGraph(g, groups, {e: z_mod(2) for e in g.edges}, rhos)
        calls = 0
        surjective = gg._rho_surjective

        def counted(*args):
            nonlocal calls
            calls += 1
            return surjective(*args)

        monkeypatch.setattr(gg, "_rho_surjective", counted)
        assert prune_all(G).graph.vertices == (0,)
        assert 0 < calls <= n


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------


class TestMayerVietoris:
    def triangle(self) -> GroupGraph:
        return identity_rho_graph(
            Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]), z_mod(2)
        )

    def test_triangle_split_is_exact(self):
        G = self.triangle()
        mv = mayer_vietoris(G, ((0, 1, 2), ("a", "b")), ((0, 2), ("c",)))
        assert mv.exact and mv.failures == ()
        assert classify(mv.groups[3]).text() == "Z/2"  # H1 of the whole graph
        assert mv.pieces == (
            cohomology(G.restrict((0, 1, 2), ("a", "b"))),
            cohomology(G.restrict((0, 2), ("c",))),
        )

    def test_disjoint_cover_degenerates_to_sum(self):
        g = Graph([0, 1, 2, 3], [("a", 0, 1), ("b", 2, 3)])
        G = identity_rho_graph(g, z_mod(2))
        mv = mayer_vietoris(G, ((0, 1), ("a",)), ((2, 3), ("b",)))
        assert mv.exact
        # empty overlap: both overlap groups are trivial, the first map is an iso
        assert classify(mv.groups[2]).is_trivial
        assert classify(mv.groups[5]).is_trivial
        alpha = mv.maps[0]
        assert is_injective(alpha) and is_surjective(alpha)

    def test_cover_must_exhaust_graph(self):
        G = self.triangle()
        with pytest.raises(CoverMismatch):
            mayer_vietoris(G, ((0, 1), ("a",)), ((0, 2), ("c",)))  # edge b missing
        with pytest.raises(CoverMismatch):
            mayer_vietoris(G, ((0, 1), ("a", "b")), ((0, 2), ("c",)))  # b leaves piece

    @settings(max_examples=20, deadline=None)
    @given(gb.cyclic_pairs(max_vertices=3, max_edges=3), st.data())
    def test_random_covers_are_exact(self, pair, data):
        G, _ = pair
        g = G.graph
        if not g.edges:
            keep = data.draw(
                st.sets(st.sampled_from(list(g.vertices)), min_size=0), label="v0"
            )
            v0 = tuple(sorted(keep)) or (g.vertices[0],)
            v1 = tuple(v for v in g.vertices if v not in keep) or (g.vertices[0],)
            mv = mayer_vietoris(G, (v0, ()), (v1, ()))
            assert mv.exact, mv.failures
            return
        side = {
            e: data.draw(st.booleans(), label=f"side[{e}]") for e in g.edges
        }
        e0 = tuple(e for e in g.edges if side[e])
        e1 = tuple(e for e in g.edges if not side[e])
        v0 = set(v for e in e0 for v in g.endpoints(e))
        v1 = set(v for e in e1 for v in g.endpoints(e))
        # distribute isolated leftovers to both sides so the cover is total
        for v in g.vertices:
            if v not in v0 and v not in v1:
                v0.add(v)
                v1.add(v)
        if not v0:
            v0.add(g.vertices[0])
        if not v1:
            v1.add(g.vertices[0])
        mv = mayer_vietoris(G, (tuple(v0), e0), (tuple(v1), e1))
        assert mv.exact, mv.failures


# ---------------------------------------------------------------------------
# Long exact sequence
# ---------------------------------------------------------------------------


def constant_morphism(
    dom: GroupGraph, cod: GroupGraph, hom: GroupHom
) -> GroupGraphMorphism:
    g = dom.graph
    return GroupGraphMorphism(
        dom,
        cod,
        {v: hom for v in g.vertices},
        {e: hom for e in g.edges},
    )


class TestLongExactSequence:
    def mod_tower(self, graph: Graph):
        """0 -> Z --2--> Z -> Z/2 -> 0 with identity restrictions."""
        z = PresentedAbelianGroup.free_disc(T, 1)
        z2 = z_mod(2)
        F = identity_rho_graph(graph, z)
        Gm = identity_rho_graph(graph, z)
        J = identity_rho_graph(graph, z2)
        double = GroupHom(z, z, [], [({}, {0: 2})], ())
        reduce_ = GroupHom(z, z2, [], [({}, {0: 1})], ())
        return constant_morphism(F, Gm, double), constant_morphism(Gm, J, reduce_)

    def test_single_edge_tower(self):
        iota, pi = self.mod_tower(Graph([0, 1], [("e", 0, 1)]))
        les = long_exact_sequence(iota, pi)
        assert les.exact, les.failures
        assert [classify(gp).text() for gp in les.groups] == [
            "Z",
            "Z",
            "Z/2",
            "0",
            "0",
            "0",
        ]

    def test_triangle_tower(self):
        graph = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
        iota, pi = self.mod_tower(graph)
        les = long_exact_sequence(iota, pi)
        assert les.exact, les.failures
        texts = [classify(gp).text() for gp in les.groups]
        assert texts == ["Z", "Z", "Z/2", "Z", "Z", "Z/2"]

    def test_nonzero_connecting_map(self):
        # sub-graph concentrated on the edge, quotient on a vertex: the
        # connecting map is forced to be an isomorphism Z/2 -> Z/2
        graph = Graph([0, 1], [("e", 0, 1)])
        triv = PresentedAbelianGroup.trivial(T)
        z2 = z_mod(2)

        def mk(v0, v1, ed, rho0, rho1):
            return GroupGraph(
                graph, {0: v0, 1: v1}, {"e": ed}, {(0, "e"): rho0, (1, "e"): rho1}
            )

        F = mk(triv, triv, z2, zero_hom(triv, z2), zero_hom(triv, z2))
        Gm = mk(triv, z2, z2, zero_hom(triv, z2), identity_hom(z2))
        J = mk(triv, z2, triv, zero_hom(triv, triv), zero_hom(z2, triv))
        iota = GroupGraphMorphism(
            F,
            Gm,
            {0: identity_hom(triv), 1: zero_hom(triv, z2)},
            {"e": identity_hom(z2)},
        )
        pi = GroupGraphMorphism(
            Gm,
            J,
            {0: identity_hom(triv), 1: identity_hom(z2)},
            {"e": zero_hom(z2, triv)},
        )
        les = long_exact_sequence(iota, pi)
        assert les.exact, les.failures
        delta = les.maps[2]
        assert classify(delta.dom).text() == "Z/2"
        assert classify(delta.cod).text() == "Z/2"
        assert not hom_is_zero(delta)
        assert is_injective(delta) and is_surjective(delta)

    def test_split_sum_triple(self):
        graph = Graph([0, 1], [("e", 0, 1)])
        z2, z3 = z_mod(2), z_mod(3)
        total, _ = direct_sum([z2, z3], T)
        inc = GroupHom(z2, total, [], [({}, {0: 1})], ())
        proj = GroupHom(total, z3, [], [({}, {}), ({}, {0: 1})], ())
        F = identity_rho_graph(graph, z2)
        Gm = identity_rho_graph(graph, total)
        J = identity_rho_graph(graph, z3)
        les = long_exact_sequence(
            constant_morphism(F, Gm, inc), constant_morphism(Gm, J, proj)
        )
        assert les.exact, les.failures
        assert classify(les.groups[1]).text() == "Z/6"

    def test_rejects_a_middle_graph_with_other_restrictions(self):
        # pi starts from a copy of the middle group-graph whose restriction
        # at (1, "e") is multiplication by 3 instead of the identity
        graph = Graph([0, 1], [("e", 0, 1)])
        iota, pi = self.mod_tower(graph)
        assert long_exact_sequence(iota, pi).exact
        mid = iota.cod
        rhos = {(v, "e"): mid.rho(v, "e") for v in (0, 1)}
        z = mid.vertex_group(1)
        rhos[(1, "e")] = GroupHom(z, z, [], [({}, {0: 3})], ())
        other = GroupGraph(graph, {0: z, 1: z}, {"e": z}, rhos)
        pi_other = GroupGraphMorphism(
            other,
            pi.cod,
            {v: pi.vertex_map(v) for v in graph.vertices},
            {"e": pi.edge_map("e")},
        )
        with pytest.raises(ValueError, match="do not share the middle group-graph"):
            long_exact_sequence(iota, pi_other)

    def test_rejects_non_exact_triple(self):
        graph = Graph([0, 1], [("e", 0, 1)])
        z2 = z_mod(2)
        F = identity_rho_graph(graph, z2)
        Gm = identity_rho_graph(graph, z2)
        J = identity_rho_graph(graph, z2)
        zero = zero_hom(z2, z2)
        with pytest.raises(NotShortExact):
            long_exact_sequence(
                constant_morphism(F, Gm, zero), constant_morphism(Gm, J, identity_hom(z2))
            )
        with pytest.raises(NotShortExact):
            long_exact_sequence(
                constant_morphism(F, Gm, identity_hom(z2)),
                constant_morphism(Gm, J, zero),
            )

    def test_morphism_must_commute_with_restrictions(self):
        graph = Graph([0, 1], [("e", 0, 1)])
        z4 = z_mod(4)
        F = identity_rho_graph(graph, z4)
        # codomain uses multiplication by 3 on one restriction only
        rhos = {
            (0, "e"): GroupHom(z4, z4, [], [({}, {0: 3})], ()),
            (1, "e"): identity_hom(z4),
        }
        Gm = GroupGraph(graph, {0: z4, 1: z4}, {"e": z4}, rhos)
        with pytest.raises(ValueError, match="commute"):
            GroupGraphMorphism(
                F,
                Gm,
                {0: identity_hom(z4), 1: identity_hom(z4)},
                {"e": identity_hom(z4)},
            )


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------


def reference_brute_force_h1(G: FiniteGroupGraph) -> BruteForceResult:
    """Orbits of the action of every element of every vertex group, joined
    by union-find over all edge tuples, each with its least tuple."""
    g = G.graph
    egroups = [G.edge_group(e) for e in g.edges]
    tuples = list(itertools.product(*(range(ge.order) for ge in egroups)))
    parent = {z: z for z in tuples}

    def find(z):
        while parent[z] != z:
            z = parent[z]
        return z

    for v in g.vertices:
        for x in G.vertex_group(v).elements():
            for z in tuples:
                w = list(z)
                for i, e in enumerate(g.edges):
                    t, h = g.endpoints(e)
                    ge = egroups[i]
                    if v == t:
                        w[i] = ge.mul(ge.inv(G.rho(v, e).apply(x)), w[i])
                    if v == h:
                        w[i] = ge.mul(w[i], G.rho(v, e).apply(x))
                a, b = find(z), find(tuple(w))
                if a != b:
                    parent[max(a, b)] = min(a, b)
    # itertools.product runs in tuple order: each orbit's first is its least.
    reps = {}
    for z in tuples:
        reps.setdefault(find(z), z)
    return BruteForceResult(len(reps), tuple(reps.values()))


BRUTE_FORCE_GROUPS = (
    FiniteGroup.symmetric(3),
    FiniteGroup.from_factors([2, 4]),
    FiniteGroup.from_factors([2, 2]),
    *(FiniteGroup.cyclic(n) for n in (1, 2, 3, 4, 6)),
)


def random_table_hom(rng: random.Random, dom: FiniteGroup, cod: FiniteGroup) -> FiniteHom:
    """A random hom: random images of a generating set, extended over words
    and kept when it is a hom; the trivial hom when no draw is."""
    gens = gg._generating_set(dom)
    for _ in range(10):
        at = {s: rng.randrange(cod.order) for s in gens}
        images, frontier, ok = {dom.identity: cod.identity}, [dom.identity], True
        while frontier and ok:
            a = frontier.pop()
            for s in gens:
                b, ib = dom.mul(a, s), cod.mul(images[a], at[s])
                if b not in images:
                    images[b] = ib
                    frontier.append(b)
                ok = ok and images[b] == ib
        if ok:
            try:
                return FiniteHom(dom, cod, [images[x] for x in dom.elements()])
            except ValueError:
                pass
    return FiniteHom.trivial(dom, cod)


def random_table_graph(rng: random.Random) -> FiniteGroupGraph:
    n = rng.randint(1, 3)
    edges = [(f"e{i}", rng.randrange(n), rng.randrange(n)) for i in range(rng.randint(0, 3))]
    graph = Graph(range(n), edges)
    groups = {v: rng.choice(BRUTE_FORCE_GROUPS) for v in graph.vertices}
    egroups = {e: rng.choice(BRUTE_FORCE_GROUPS) for e in graph.edges}
    rhos = {
        (v, e): random_table_hom(rng, groups[v], egroups[e])
        for e in graph.edges
        for v in graph.endpoints(e)
    }
    return FiniteGroupGraph(graph, groups, egroups, rhos)


class TestBruteForce:
    def test_acting_by_generators_keeps_the_orbits(self):
        rng, acting = random.Random(0), set()
        for _ in range(150):
            fgg = random_table_graph(rng)
            acting.update(
                fgg.vertex_group(v) for v in fgg.graph.vertices if fgg.graph.incident(v)
            )
            assert brute_force_h1(fgg) == reference_brute_force_h1(fgg)
        s3, z2z4 = BRUTE_FORCE_GROUPS[:2]
        assert s3 in acting and z2z4 in acting

    def test_generating_sets(self):
        assert gg._generating_set(FiniteGroup.trivial()) == []
        assert gg._generating_set(FiniteGroup.cyclic(7)) == [1]
        assert gg._generating_set(FiniteGroup.symmetric(3)) == [1, 2]
        assert gg._generating_set(FiniteGroup.from_factors([2, 4])) == [1, 4]

    def test_symmetric_loop_counts_conjugacy_classes(self):
        s3 = FiniteGroup.symmetric(3)
        g = Graph(["v"], [("l", "v", "v")])
        fgg = FiniteGroupGraph(
            g, {"v": s3}, {"l": s3}, {("v", "l"): FiniteHom.identity(s3)}
        )
        res = brute_force_h1(fgg)
        assert res.orbit_count == 3
        assert res.representatives[0] == (s3.identity,)

    def test_translation_on_plain_edge_is_transitive(self):
        s3 = FiniteGroup.symmetric(3)
        g = Graph([0, 1], [("e", 0, 1)])
        fgg = FiniteGroupGraph(
            g,
            {0: s3, 1: s3},
            {"e": s3},
            {(0, "e"): FiniteHom.identity(s3), (1, "e"): FiniteHom.identity(s3)},
        )
        assert brute_force_h1(fgg).orbit_count == 1

    def test_triangle_of_z2(self):
        z2 = FiniteGroup.cyclic(2)
        g = Graph([0, 1, 2], [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
        fgg = FiniteGroupGraph(
            g,
            {v: z2 for v in g.vertices},
            {e: z2 for e in g.edges},
            {
                (v, e): FiniteHom.identity(z2)
                for e in g.edges
                for v in g.endpoints(e)
            },
        )
        res = brute_force_h1(fgg)
        assert res.orbit_count == 2
        assert res.representatives == ((0, 0, 0), (0, 0, 1))

    def test_bound_is_enforced(self):
        z2 = FiniteGroup.cyclic(2)
        g = Graph([0, 1], [("e", 0, 1)])
        fgg = FiniteGroupGraph(
            g,
            {0: z2, 1: z2},
            {"e": z2},
            {(0, "e"): FiniteHom.identity(z2), (1, "e"): FiniteHom.identity(z2)},
        )
        with pytest.raises(BoundExceeded):
            brute_force_h1(fgg, bound=7)

    def test_representatives_are_deterministic(self):
        z4 = FiniteGroup.cyclic(4)
        g = Graph([0], [("l", 0, 0)])
        fgg = FiniteGroupGraph(
            g, {0: z4}, {"l": z4}, {(0, "l"): FiniteHom.identity(z4)}
        )
        assert brute_force_h1(fgg) == brute_force_h1(fgg)
        assert brute_force_h1(fgg) == BruteForceResult(4, ((0,), (1,), (2,), (3,)))

    @settings(max_examples=30, deadline=None)
    @given(gb.cyclic_pairs())
    def test_agrees_with_exact_h1_on_abelian_data(self, pair):
        G, FG = pair
        rep = classify(h1(G))
        assert rep.is_finite
        assert brute_force_h1(FG).orbit_count == rep.order()

    @settings(max_examples=20, deadline=None)
    @given(gb.cyclic_pairs(max_vertices=2, max_edges=2))
    def test_pruned_graph_agrees_with_brute_force(self, pair):
        G, FG = pair
        rep = classify(h1(prune_all(G)))
        assert brute_force_h1(FG).orbit_count == rep.order()


class TestFiniteGroups:
    def test_table_validation(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup([[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="square"):
            FiniteGroup([[0, 1]])
        # left-translation tables that are not associative are rejected
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(
                [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ]
            )

    def test_cyclic_and_products(self):
        z6 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
        assert z6.order == 6
        assert all(z6.mul(a, b) == z6.mul(b, a) for a in z6.elements() for b in z6.elements())
        assert FiniteGroup.from_factors([2, 2]).order == 4

    def test_symmetric_group(self):
        s4 = FiniteGroup.symmetric(4)
        assert s4.order == 24
        assert any(s4.mul(a, b) != s4.mul(b, a) for a in s4.elements() for b in s4.elements())

    def test_hom_validation(self):
        z4, z2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
        with pytest.raises(ValueError, match="not a homomorphism"):
            FiniteHom(z4, z2, [0, 1, 1, 0])
        f = FiniteHom(z4, z2, [0, 1, 0, 1])
        assert f.is_surjective() and not f.is_injective()

    def test_finite_group_graph_json_round_trip(self):
        z2 = FiniteGroup.cyclic(2)
        g = Graph([0], [("l", 0, 0)])
        fgg = FiniteGroupGraph(
            g, {0: z2}, {"l": z2}, {(0, "l"): FiniteHom.identity(z2)}
        )
        back = FiniteGroupGraph.from_json(fgg.to_json())
        assert back.graph == fgg.graph
        assert brute_force_h1(back) == brute_force_h1(fgg)


# ---------------------------------------------------------------------------
# Orientation independence
# ---------------------------------------------------------------------------


class TestOrientationIndependence:
    def test_relabelling_that_flips_orientations_preserves_h1(self):
        # 0 < 1 orients a; relabelling 0 -> 2 flips the edge
        mult = {"lo": 1, "hi": 2}

        def build(lo, hi):
            g = Graph([lo, hi], [("e", lo, hi), ("f", lo, hi)])
            z4 = z_mod(4)
            rhos = {
                (lo, "e"): GroupHom(z4, z4, [], [({}, {0: mult["lo"]})], ()),
                (hi, "e"): GroupHom(z4, z4, [], [({}, {0: mult["hi"]})], ()),
                (lo, "f"): identity_hom(z4),
                (hi, "f"): identity_hom(z4),
            }
            return GroupGraph(g, {lo: z4, hi: z4}, {"e": z4, "f": z4}, rhos)

        assert classify(h1(build(0, 1))) == classify(h1(build(2, 1)))
