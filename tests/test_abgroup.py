"""Presented topological abelian groups: homs, kernels, cokernels, classify."""

from __future__ import annotations

from collections import defaultdict
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import gg_builders as gb
from folmod import abgroup
from folmod.exactnum import Scalar, SymbolTable
from folmod.abgroup import (
    AtomFactor,
    CokernelResult,
    GroupHom,
    HomError,
    NormalFormReport,
    PresentedAbelianGroup,
    Relation,
    UnsupportedAtomMap,
    block_hom,
    check_hom,
    classify,
    cokernel,
    compose,
    direct_sum,
    hom_is_zero,
    identity_hom,
    is_exact_at,
    is_injective,
    is_surjective,
    kernel,
    zero_hom,
)
from folmod.gg import GroupGraph

TABLE = SymbolTable(["mu", "tau_i", "alpha_t", "beta_t"])
ONE = Scalar.one(TABLE)
ZERO = Scalar.zero(TABLE)
MU = Scalar.symbol(TABLE, "mu")
TAU = Scalar.symbol(TABLE, "tau_i")


def make_finite(*, factors: list) -> PresentedAbelianGroup:
    return PresentedAbelianGroup.from_invariant_factors(TABLE, factors)


def make_lattice(*, gens: list) -> PresentedAbelianGroup:
    return PresentedAbelianGroup.lattice_quotient(TABLE, gens)


def sum_with_injections(groups: list):
    """The direct sum and its summand injections, each one block."""
    total, offsets = direct_sum(groups)
    injections = [
        block_hom(g, [(0, 0, 0)], total, offsets, [(0, i, identity_hom(g), 1)])
        for i, g in enumerate(groups)
    ]
    return total, injections, offsets


def hom_equal(a: GroupHom, b: GroupHom) -> bool:
    """Equality as maps: the difference kills every generator."""
    assert a.dom == b.dom and a.cod == b.cod

    def minus(u: dict, v: dict) -> dict:
        return {j: u.get(j, ZERO) - v.get(j, ZERO) for j in u.keys() | v.keys()}

    diff_cont = [minus(u, v) for u, v in zip(a.cont_images, b.cont_images)]
    diff_disc = [
        (minus(c1, c2), {j: d1.get(j, 0) - d2.get(j, 0) for j in d1.keys() | d2.keys()})
        for (c1, d1), (c2, d2) in zip(a.disc_images, b.disc_images)
    ]
    if a.atom_images != b.atom_images:
        return False
    stripped = PresentedAbelianGroup(
        a.dom.table, a.dom.cont_rank, a.dom.disc_rank, a.dom.relations
    )
    return hom_is_zero(GroupHom(stripped, a.cod, diff_cont, diff_disc, ()))


def invariant_factors_oracle(factors: list) -> tuple:
    """Canonical invariant factors of a direct sum of cyclic groups, computed
    by merging prime-power exponents (independent of any matrix code)."""
    exps: dict = defaultdict(list)
    for f in factors:
        n = f
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exps[p].append(e)
            p += 1
        if n > 1:
            exps[n].append(1)
    width = max((len(v) for v in exps.values()), default=0)
    for v in exps.values():
        v.sort(reverse=True)
        v.extend([0] * (width - len(v)))
    out = []
    for i in range(width - 1, -1, -1):
        f = 1
        for p, v in exps.items():
            f *= p ** v[i]
        if f > 1:
            out.append(f)
    return tuple(out)


def factor_lists():
    return st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), min_size=0, max_size=3)


@st.composite
def obscured_finite_presentations(draw):
    """A finite abelian group presented by a sheared, padded relation matrix."""
    factors = draw(factor_lists())
    free = draw(st.integers(0, 2))
    n = len(factors) + free
    rows = [
        [factors[i] if j == i else 0 for j in range(n)] for i in range(len(factors))
    ]
    if len(rows) >= 2:
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            c = draw(st.integers(-2, 2))
            if i != j:
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if n >= 2:
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(0, n - 1))
            c = draw(st.integers(-2, 2))
            if i != j:
                for r in rows:
                    r[j] += c * r[i]
    if rows and draw(st.booleans()):
        rows.append([sum(col) for col in zip(*rows)])
    group = PresentedAbelianGroup(
        TABLE, 0, n, [Relation({}, dict(enumerate(r)), "Z") for r in rows]
    )
    return group, tuple(factors), free


@st.composite
def finite_maps(draw):
    """A valid homomorphism between two random finite abelian groups."""
    dom_f = draw(factor_lists())
    cod_f = draw(factor_lists())
    dom, cod = make_finite(factors=dom_f), make_finite(factors=cod_f)
    images = []
    for f in dom_f:
        row = []
        for g in cod_f:
            step = g // gcd(g, f)
            row.append(step * draw(st.integers(0, max(g // step - 1, 0))))
        images.append(({}, dict(enumerate(row))))
    return GroupHom(dom, cod, disc_images=images)


class TestPresentation:
    def test_constructors(self) -> None:
        assert classify(PresentedAbelianGroup.trivial(TABLE)).text() == "0"
        assert classify(PresentedAbelianGroup.free_cont(TABLE, 2)).text() == "C^2"
        assert classify(PresentedAbelianGroup.free_disc(TABLE, 3)).text() == "Z^3"
        assert classify(make_finite(factors=[2, 4])).text() == "Z/2 (+) Z/4"

    def test_relation_validation(self) -> None:
        with pytest.raises(ValueError):
            PresentedAbelianGroup(TABLE, 1, 1, [Relation({0: ONE}, {0: 1}, "C")])
        with pytest.raises(ValueError):
            PresentedAbelianGroup(TABLE, 1, 0, [Relation({0: ONE, 1: ONE}, {}, "Z")])
        with pytest.raises(ValueError):
            PresentedAbelianGroup(TABLE, 0, 0, (), [AtomFactor("D", 1)])

    def test_json_round_trip(self) -> None:
        g = PresentedAbelianGroup(
            TABLE,
            1,
            1,
            [Relation({0: MU}, {0: 2}, "Z"), Relation({0: ONE}, {}, "C")],
            [AtomFactor("Diff(C,0)", None), AtomFactor("Sym", 3)],
        )
        assert PresentedAbelianGroup.from_json(g.to_json()) == g

    def test_atom_labels(self) -> None:
        assert AtomFactor("D", None).label() == "D"
        assert AtomFactor("D", 0).label() == "D/<h>"
        assert AtomFactor("D", 5).label() == "D/<h:5>"


class TestClassify:
    def test_lattice_quotient_torus(self) -> None:
        rep = classify(make_lattice(gens=[TAU, TAU * MU]))
        assert rep.text() == "C/(Z + (mu)Z)"
        assert rep.lattices == ((ONE, MU),)
        assert not rep.has_nondiscrete and not rep.is_finite

    def test_lattice_scaling_invariance(self) -> None:
        a = classify(make_lattice(gens=[TAU, TAU * MU]))
        b = classify(make_lattice(gens=[TAU.scale(2), (TAU * MU).scale(2)]))
        assert a == b

    def test_rank_three_subgroup_is_nondiscrete(self) -> None:
        a2 = Scalar.symbol(TABLE, "alpha_t").scale(2)
        b2 = Scalar.symbol(TABLE, "beta_t").scale(2)
        rep = classify(make_lattice(gens=[ONE, a2, b2]))
        assert rep.text() == "C/(Z + (2*alpha_t)Z + (2*beta_t)Z)"
        assert rep.has_nondiscrete

    def test_rank_one_subgroup_is_cstar(self) -> None:
        rep = classify(make_lattice(gens=[TAU.scale(2)]))
        assert rep.text() == "C*"
        assert rep.cstar_count == 1

    def test_full_rank_two_coordinates(self) -> None:
        g = PresentedAbelianGroup(
            TABLE,
            2,
            0,
            [
                Relation({0: ONE, 1: ZERO}, {}, "Z"),
                Relation({0: ZERO, 1: ONE}, {}, "Z"),
            ],
        )
        assert classify(g).text() == "(C*)^2"

    def test_mixed_group_text(self) -> None:
        g, _ = direct_sum(
            [
                PresentedAbelianGroup.free_cont(TABLE, 1),
                make_lattice(gens=[ONE, MU]),
                PresentedAbelianGroup.free_disc(TABLE, 1),
                make_finite(factors=[4]),
            ]
        )
        assert classify(g).text() == "C (+) C/(Z + (mu)Z) (+) Z (+) Z/4"

    def test_order(self) -> None:
        assert classify(make_finite(factors=[2, 4])).order() == 8
        assert classify(make_finite(factors=[])).order() == 1
        assert classify(PresentedAbelianGroup.free_disc(TABLE, 1)).order() is None

    def test_atoms_reported(self) -> None:
        g = PresentedAbelianGroup.atom_group(TABLE, "Diff(C,0)")
        rep = classify(g)
        assert rep.has_atoms and rep.text() == "Diff(C,0)"

    def test_report_is_an_immutable_value_without_its_group(self) -> None:
        a = classify(make_finite(factors=[2, 4]))
        fields = {name: getattr(a, name) for name in NormalFormReport.__slots__}
        b = NormalFormReport(**{**fields, "group": make_finite(factors=[8, 2])})
        assert b.group != a.group
        assert a == b and not (a != b) and hash(a) == hash(b)
        other = NormalFormReport(**{**fields, "invariant_factors": (8,)})
        assert a != other and not (a == other)
        assert a != fields["invariant_factors"]
        for name in ("free_disc_rank", "group"):
            with pytest.raises(AttributeError):
                setattr(a, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a.invariant_factors == (2, 4) and a.group is fields["group"]

    # classification is idempotent: the normal form classifies to itself
    @settings(deadline=None, max_examples=40)
    @given(obscured_finite_presentations())
    def test_classify_idempotent(self, data) -> None:
        group, _, _ = data
        rep = classify(group)
        assert classify(rep.group) == rep

    # invariant factors match the prime-merge oracle on sheared presentations
    @settings(deadline=None, max_examples=60)
    @given(obscured_finite_presentations())
    def test_invariant_factors_oracle(self, data) -> None:
        group, factors, free = data
        rep = classify(group)
        assert rep.invariant_factors == invariant_factors_oracle(list(factors))
        assert rep.free_disc_rank == free


def assert_normal_form_isomorphism(g: PresentedAbelianGroup) -> None:
    """The cokernel of the zero map into ``g`` is ``g``'s normal form, and
    its projection and section are homs inverse to each other."""
    ck = cokernel(zero_hom(PresentedAbelianGroup.trivial(TABLE), g))
    check_hom(ck.projection)
    check_hom(ck.section)
    assert hom_equal(compose(ck.projection, ck.section), identity_hom(ck.group))
    assert hom_equal(compose(ck.section, ck.projection), identity_hom(g))


class TestNormalization:
    # the normal-form maps are homomorphisms realizing an isomorphism
    @settings(deadline=None, max_examples=25)
    @given(obscured_finite_presentations())
    def test_normalize_maps_invert(self, data) -> None:
        group, _, _ = data
        assert_normal_form_isomorphism(group)

    def test_normalize_lattice_maps(self) -> None:
        assert_normal_form_isomorphism(make_lattice(gens=[TAU, TAU * MU]))


class TestHoms:
    def test_check_hom_rejects_bad_map(self) -> None:
        g2, g3 = make_finite(factors=[2]), make_finite(factors=[3])
        with pytest.raises(HomError):
            check_hom(GroupHom(g2, g3, disc_images=[({}, {0: 1})]))

    def test_a_failed_check_raises_every_time(self) -> None:
        # A failure records no verdict, so the second call checks again.
        g2, g3 = make_finite(factors=[2]), make_finite(factors=[3])
        bad = GroupHom(g2, g3, disc_images=[({}, {0: 1})])
        for _ in range(2):
            with pytest.raises(HomError):
                check_hom(bad)
        a = PresentedAbelianGroup.atom_group(TABLE, "A")
        b = PresentedAbelianGroup.atom_group(TABLE, "B")
        across = GroupHom(a, b, atom_images=[0])
        for _ in range(2):
            with pytest.raises(UnsupportedAtomMap):
                check_hom(across)

    def test_zero_hom_is_zero(self) -> None:
        g, _ = direct_sum(
            [make_finite(factors=[4]), PresentedAbelianGroup.atom_group(TABLE, "D")]
        )
        h = zero_hom(g, make_finite(factors=[2]))
        check_hom(h)
        assert hom_is_zero(h)
        assert not hom_is_zero(identity_hom(g))

    def test_compose_associates_with_apply(self) -> None:
        g6, g3 = make_finite(factors=[6]), make_finite(factors=[3])
        f = GroupHom(g6, g3, disc_images=[({}, {0: 1})])
        g = GroupHom(g3, g3, disc_images=[({}, {0: 2})])
        gf = compose(g, f)
        c, d = gf.apply({}, {0: 5})
        assert d == {0: 10}

    def test_atom_map_across_names_rejected(self) -> None:
        a = PresentedAbelianGroup.atom_group(TABLE, "A")
        b = PresentedAbelianGroup.atom_group(TABLE, "B")
        with pytest.raises(UnsupportedAtomMap):
            check_hom(GroupHom(a, b, atom_images=[0]))

    def test_hom_json_round_trip(self) -> None:
        g = make_lattice(gens=[TAU])
        h = GroupHom(
            PresentedAbelianGroup.free_disc(TABLE, 1), g, disc_images=[({0: MU}, {})]
        )
        assert GroupHom.from_json(h.dom, h.cod, h.to_json()) == h


class TestKernel:
    def test_kernel_of_lattice_projection(self) -> None:
        torus = make_lattice(gens=[TAU, TAU * MU])
        line = PresentedAbelianGroup.free_cont(TABLE, 1)
        h = GroupHom(line, torus, cont_images=[{0: ONE}])
        k = kernel(h)
        check_hom(k.inclusion)
        assert classify(k.group).text() == "Z^2"
        assert [str(c[0]) for c, _ in k.inclusion.disc_images] == ["tau_i", "mu*tau_i"]

    def test_kernel_of_cyclic_quotient(self) -> None:
        g6, g3 = make_finite(factors=[6]), make_finite(factors=[3])
        k = kernel(GroupHom(g6, g3, disc_images=[({}, {0: 1})]))
        check_hom(k.inclusion)
        assert classify(k.group).text() == "Z/2"

    def test_kernel_of_atom_collapse(self) -> None:
        d = PresentedAbelianGroup.atom_group(TABLE, "Diff(C,0)")
        k = kernel(zero_hom(d, make_finite(factors=[2])))
        assert [a.label() for a in k.group.atoms] == ["Diff(C,0)"]

    def test_kernel_of_atom_quotient_unsupported(self) -> None:
        a = PresentedAbelianGroup.atom_group(TABLE, "D")
        aq = PresentedAbelianGroup.atom_group(TABLE, "D", 2)
        with pytest.raises(UnsupportedAtomMap):
            kernel(GroupHom(a, aq, atom_images=[0]))

    def test_injectivity(self) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        doubling = GroupHom(z, z, disc_images=[({}, {0: 2})])
        assert is_injective(doubling)
        assert not is_surjective(doubling)


class TestVerdicts:
    """``is_injective`` and ``is_surjective`` decide once per hom object and
    answer as their bodies do, however often they are asked."""

    @staticmethod
    def assert_verdicts_equal_the_bodies(G: GroupGraph) -> None:
        for e in G.graph.edges:
            for v in set(G.graph.endpoints(e)):
                h = G.rho(v, e)
                injective, surjective = abgroup._injective(h), abgroup._surjective(h)
                for _ in range(2):
                    assert is_injective(h) is injective
                    assert is_surjective(h) is surjective

    @settings(deadline=None, max_examples=40)
    @given(gb.cyclic_pairs())
    def test_on_cyclic_group_graphs(self, pair) -> None:
        self.assert_verdicts_equal_the_bodies(pair[0])

    @settings(deadline=None, max_examples=40)
    @given(gb.atom_group_graphs())
    def test_on_atom_group_graphs(self, G: GroupGraph) -> None:
        self.assert_verdicts_equal_the_bodies(G)


class TestCokernel:
    def test_cokernel_of_scalar_embedding(self) -> None:
        line = PresentedAbelianGroup.free_cont(TABLE, 1)
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        ck = cokernel(GroupHom(z, line, disc_images=[({0: TAU}, {})]))
        assert classify(ck.group).text() == "C*"
        check_hom(ck.projection)
        assert is_surjective(ck.projection)

    def test_cokernel_of_injection_kills_summand(self) -> None:
        a = PresentedAbelianGroup.atom_group(TABLE, "D")
        total, (inj1, inj2), _ = sum_with_injections([make_finite(factors=[4]), a])
        ck = cokernel(inj1)
        assert classify(ck.group).text() == "D"
        ck2 = cokernel(inj2)
        assert classify(ck2.group).text() == "Z/4"

    def test_projection_section_identity(self) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        ck = cokernel(GroupHom(z, z, disc_images=[({}, {0: 6})]))
        assert classify(ck.group).text() == "Z/6"
        round_trip = compose(ck.projection, ck.section)
        assert hom_equal(round_trip, identity_hom(ck.group))


class TestExactness:
    def test_short_exact_sequence(self) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        z2 = make_finite(factors=[2])
        f = GroupHom(z, z, disc_images=[({}, {0: 2})])
        g = GroupHom(z, z2, disc_images=[({}, {0: 1})])
        assert is_exact_at(f, g)
        assert not is_exact_at(f, GroupHom(z, z2, disc_images=[({}, {})]))

    def test_sum_injection_projection_exact(self) -> None:
        z2, z3 = make_finite(factors=[2]), make_finite(factors=[3])
        total, (inj1, inj2), _ = sum_with_injections([z2, z3])
        proj2 = GroupHom(total, z3, disc_images=[({}, {}), ({}, {0: 1})])
        check_hom(proj2)
        assert is_exact_at(inj1, proj2)
        assert not is_exact_at(inj2, proj2)

    def test_atom_coverage(self) -> None:
        a = PresentedAbelianGroup.atom_group(TABLE, "D")
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        total, (inj_a, inj_z), _ = sum_with_injections([a, z])
        proj_z = GroupHom(
            total, z, disc_images=[({}, {0: 1})], atom_images=[None]
        )
        check_hom(proj_z)
        assert is_exact_at(inj_a, proj_z)
        trivial = PresentedAbelianGroup.trivial(TABLE)
        assert not is_exact_at(zero_hom(trivial, total), proj_z)

    # image(f) == kernel(g) holds for kernel inclusions by construction
    @settings(deadline=None, max_examples=30)
    @given(finite_maps())
    def test_kernel_inclusion_exact(self, h: GroupHom) -> None:
        check_hom(h)
        k = kernel(h)
        check_hom(k.inclusion)
        assert is_exact_at(k.inclusion, h)

    # image(h) == kernel(projection) for cokernel projections by construction
    @settings(deadline=None, max_examples=30)
    @given(finite_maps())
    def test_cokernel_projection_exact(self, h: GroupHom) -> None:
        ck = cokernel(h)
        check_hom(ck.projection)
        assert hom_is_zero(compose(ck.projection, h))
        assert is_exact_at(h, ck.projection)


class TestOrderLaw:
    # |dom| * |coker| == |cod| * |ker| for maps of finite groups
    @settings(deadline=None, max_examples=60)
    @given(finite_maps())
    def test_kernel_cokernel_order_balance(self, h: GroupHom) -> None:
        dom_order = classify(h.dom).order()
        cod_order = classify(h.cod).order()
        ker_order = classify(kernel(h).group).order()
        coker_order = classify(cokernel(h).group).order()
        assert None not in (dom_order, cod_order, ker_order, coker_order)
        assert dom_order * coker_order == cod_order * ker_order


class TestDirectSum:
    def test_offsets_and_injections(self) -> None:
        g1 = make_finite(factors=[2])
        g2 = make_lattice(gens=[TAU])
        total, injections, offsets = sum_with_injections([g1, g2])
        assert offsets == [(0, 0, 0), (0, 1, 0)]
        for inj in injections:
            check_hom(inj)
            assert is_injective(inj)
        assert injections[1].cont_images == ({0: ONE},)
        assert injections[0].disc_images == (({}, {0: 1}),)

    def test_empty_sum_needs_table(self) -> None:
        with pytest.raises(ValueError):
            direct_sum([])
        total, offsets = direct_sum([], TABLE)
        assert classify(total).is_trivial and offsets == []


class TestBlockHom:
    def test_blocks_into_one_summand_add_with_their_signs(self) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        line = PresentedAbelianGroup.free_cont(TABLE, 1)
        total, offsets = direct_sum([z, line])
        by3 = GroupHom(z, z, disc_images=[({}, {0: 3})])
        mu = GroupHom(line, line, cont_images=[{0: MU}])
        h = block_hom(
            total,
            offsets,
            total,
            offsets,
            [
                (0, 0, by3, 1),
                (0, 0, identity_hom(z), -1),
                (1, 1, mu, -1),
                (1, 1, identity_hom(line), 1),
            ],
        )
        assert h.disc_images == (({}, {0: 2}),)
        assert h.cont_images == ({0: ONE - MU},)

    def test_block_of_the_wrong_shape_is_refused(self) -> None:
        z2 = make_finite(factors=[2])
        total, offsets = direct_sum([z2, PresentedAbelianGroup.free_cont(TABLE, 1)])
        with pytest.raises(ValueError):
            block_hom(total, offsets, z2, [(0, 0, 0)], [(1, 0, identity_hom(z2), 1)])

    def test_an_atom_slot_is_assigned_once(self) -> None:
        a = PresentedAbelianGroup.atom_group(TABLE, "D")
        total, offsets = direct_sum([a, a])
        one = identity_hom(a)
        pair = [(0, 0, one, 1), (0, 1, one, 1)]
        with pytest.raises(UnsupportedAtomMap):
            block_hom(a, [(0, 0, 0)], total, offsets, pair)
        # the sign never touches an atom
        h = block_hom(total, offsets, a, [(0, 0, 0)], [(1, 0, one, -1)])
        assert h.atom_images == (None, 0)


class TestColumnZero:
    """A discrete part is an int row, and its column 0 is a falsy key: each
    case below has its only nonzero discrete entry at column 0, so a test
    of the row's keys instead of the row itself gets it wrong."""

    def test_a_c_span_relation_on_a_discrete_generator_is_refused(self) -> None:
        with pytest.raises(ValueError, match="C-span"):
            PresentedAbelianGroup(TABLE, 1, 1, [Relation({0: ONE}, {0: 2}, "C")])

    def test_a_map_onto_a_generator_is_not_zero(self) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        assert not hom_is_zero(GroupHom(z, make_finite(factors=[3]), disc_images=[({}, {0: 1})]))

    def test_a_relation_sent_onto_a_generator_is_refused(self) -> None:
        trivial_z = PresentedAbelianGroup(TABLE, 0, 1, [Relation({}, {0: 1}, "Z")])
        with pytest.raises(HomError):
            check_hom(GroupHom(trivial_z, make_finite(factors=[2]), disc_images=[({}, {0: 1})]))

    def test_a_torsion_relation_classifies(self) -> None:
        z2 = PresentedAbelianGroup(TABLE, 0, 1, [Relation({}, {0: 2}, "Z")])
        assert classify(z2).text() == "Z/2"

    def test_a_torsion_relation_beside_a_line_relation_classifies(self) -> None:
        g = PresentedAbelianGroup(
            TABLE, 1, 1, [Relation({0: ONE}, {}, "C"), Relation({0: MU}, {0: 2}, "Z")]
        )
        assert classify(g).text() == "Z/2"

    def test_a_kernel_keeps_a_torsion_relation(self) -> None:
        z2 = make_finite(factors=[2])
        k = kernel(zero_hom(z2, PresentedAbelianGroup.trivial(TABLE)))
        assert classify(k.group).text() == "Z/2"

    def test_the_zero_map_is_not_onto(self) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        assert not is_surjective(zero_hom(z, z))


class TestMalformedDiscreteParts:
    def test_a_group_with_a_short_dense_disc_is_refused(self) -> None:
        data = make_finite(factors=[2, 3]).to_json()
        data["relations"][0]["disc"] = [2]
        with pytest.raises(ValueError, match="relation width does not match generator counts"):
            PresentedAbelianGroup.from_json(data)

    def test_a_hom_with_a_long_dense_disc_is_refused(self) -> None:
        z2 = make_finite(factors=[2])
        data = identity_hom(z2).to_json()
        data["disc_images"][0]["disc"] = [1, 0]
        with pytest.raises(ValueError, match="discrete image has wrong width"):
            GroupHom.from_json(z2, z2, data)

    @pytest.mark.parametrize("column", [-1, 1, 5])
    def test_a_column_out_of_range_is_refused(self, column: int) -> None:
        z = PresentedAbelianGroup.free_disc(TABLE, 1)
        with pytest.raises(ValueError, match=f"column {column} is outside a row of width 1"):
            PresentedAbelianGroup(TABLE, 0, 1, [Relation({}, {column: 2}, "Z")])
        with pytest.raises(ValueError, match=f"column {column} is outside a row of width 1"):
            GroupHom(z, z, disc_images=[({}, {column: 1})])
