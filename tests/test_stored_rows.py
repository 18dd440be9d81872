"""The one stored form of group vectors: sparse rows, canonical on construction.

A relation's continuous part and every continuous part of a generator
image are rows, dicts from column to nonzero Scalar; a relation's discrete
part and every discrete part of a generator image are int rows, dicts from
column to nonzero int.  On maps built by the algebra itself (composites,
block homs, kernel inclusions, cokernel projections and sections,
corestrictions), over random cyclic group-graphs and over random groups
with continuous and discrete parts, these tests check that both kinds of
row hold no zero, are sorted by column and keep every column in range,
that the same map built two ways compares and hashes equal, and that JSON
round-trips every group and hom, writing each row densely.  The algebra
builds its own groups and homs through the private ``_from_stored``
constructors, which keep rows as given; over the oracle runs and the
bundled examples, every row they get is what the validating constructor
stores, item for item and in the same order.
"""

from __future__ import annotations

import json
from typing import List

from hypothesis import given, settings, strategies as st

import gg_builders as gb
from folmod import cli
from folmod.abgroup import (
    GroupHom,
    PresentedAbelianGroup,
    Relation,
    UnsupportedAtomMap,
    block_hom,
    cokernel,
    compose,
    direct_sum,
    factor_through,
    identity_hom,
    kernel,
)
from folmod.examples import EXAMPLES, example_doc
from folmod.exactnum import Scalar, SymbolTable
from folmod.gg import cohomology
from folmod.oracle import run_oracle
from memo_caches import clear_caches

TABLE = SymbolTable(["mu"])
MU = Scalar.symbol(TABLE, "mu")


def scalars():
    """Mostly small rationals and multiples of ``mu``, a third of them zero."""
    return st.builds(
        lambda c, symbolic: Scalar.rational(TABLE, c) * (MU if symbolic else Scalar.one(TABLE)),
        st.sampled_from([0, 0, 1, -1, 2, 3]),
        st.booleans(),
    )


@st.composite
def rows(draw, width: int) -> dict:
    """A row written with explicit zeros and in a random column order."""
    columns = draw(st.permutations(range(width)))
    return {j: draw(scalars()) for j in columns[: draw(st.integers(0, width))]}


@st.composite
def int_rows(draw, width: int) -> dict:
    """An int row written with explicit zeros and in a random column order."""
    columns = draw(st.permutations(range(width)))
    return {j: draw(st.integers(-4, 4)) for j in columns[: draw(st.integers(0, width))]}


@st.composite
def continuous_homs(draw) -> GroupHom:
    """A hom from a free group onto a quotient of ``C^c (+) Z^d``; a free
    domain makes any choice of images a homomorphism."""
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    c, d = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    relations = [
        Relation(draw(rows(c)), draw(int_rows(d)), "Z") for _ in range(draw(st.integers(0, 2)))
    ]
    cod = PresentedAbelianGroup(TABLE, c, d, relations)
    dom = PresentedAbelianGroup(TABLE, a, b)
    cont = [draw(rows(c)) for _ in range(a)]
    disc = [(draw(rows(c)), draw(int_rows(d))) for _ in range(b)]
    return GroupHom(dom, cod, cont, disc)


def built_maps(h: GroupHom) -> List[GroupHom]:
    """Maps the algebra builds from ``h``."""
    k, ck = kernel(h), cokernel(h)
    total, offsets = direct_sum([h.cod, h.cod], h.dom.table)
    pair = block_hom(h.dom, [(0, 0, 0)], total, offsets, [(0, 0, h, 1), (0, 1, h, -1)])
    return [
        h,
        k.inclusion,
        ck.projection,
        ck.section,
        compose(ck.projection, h),
        pair,
        factor_through(k.inclusion, k.inclusion),
    ]


def assert_stored(row: dict, width: int) -> None:
    assert all(0 <= j < width for j in row)
    assert not any(x.is_zero() for x in row.values())
    assert list(row) == sorted(row)


def assert_ints_stored(row: dict, width: int) -> None:
    assert type(row) is dict
    assert all(0 <= j < width for j in row)
    assert all(type(x) is int and x != 0 for x in row.values())
    assert list(row) == sorted(row)


def assert_group_stored(g: PresentedAbelianGroup) -> None:
    for r in g.relations:
        assert_stored(r.cont, g.cont_rank)
        assert_ints_stored(r.disc, g.disc_rank)
    data = json.loads(json.dumps(g.to_json()))
    assert all(len(r["disc"]) == g.disc_rank for r in data["relations"])
    assert PresentedAbelianGroup.from_json(data) == g


def assert_hom_stored(h: GroupHom) -> None:
    assert_group_stored(h.dom)
    assert_group_stored(h.cod)
    for v in h.cont_images:
        assert_stored(v, h.cod.cont_rank)
    for c, d in h.disc_images:
        assert_stored(c, h.cod.cont_rank)
        assert_ints_stored(d, h.cod.disc_rank)
    # The same map built two ways: through the algebra, and from its rows
    # inserted in reverse column order.
    for again in (
        compose(identity_hom(h.cod), h),
        GroupHom(
            h.dom,
            h.cod,
            [dict(reversed(v.items())) for v in h.cont_images],
            [(dict(reversed(c.items())), dict(reversed(d.items()))) for c, d in h.disc_images],
            h.atom_images,
        ),
    ):
        assert again == h and hash(again) == hash(h)
    data = json.loads(json.dumps(h.to_json()))
    assert all(len(d["disc"]) == h.cod.disc_rank for d in data["disc_images"])
    assert GroupHom.from_json(h.dom, h.cod, data) == h


@settings(max_examples=60, deadline=None)
@given(continuous_homs())
def test_maps_of_continuous_groups_store_canonical_rows(h: GroupHom) -> None:
    for m in built_maps(h):
        assert_hom_stored(m)


@settings(max_examples=40, deadline=None)
@given(st.one_of(gb.cyclic_pairs().map(lambda pair: pair[0]), gb.atom_group_graphs()))
def test_cohomology_maps_store_canonical_rows(G) -> None:
    try:
        coh = cohomology(G)
    except UnsupportedAtomMap:  # a vertex atom restricting onto two edge atoms
        return
    for m in (coh.witnesses, coh.h0_inclusion, coh.h1_projection, coh.h1_section):
        assert_hom_stored(m)


def _items(row: dict) -> tuple:
    """A row's entries in stored order, each with the type of its value."""
    return tuple((j, type(x), x) for j, x in row.items())


def _relation_items(g: PresentedAbelianGroup) -> list:
    return [(_items(r.cont), _items(r.disc), r.span) for r in g.relations]


def _image_items(h: GroupHom) -> tuple:
    return (
        [_items(v) for v in h.cont_images],
        [(_items(c), _items(d)) for c, d in h.disc_images],
        h.atom_images,
    )


def test_trusted_rows_are_the_stored_rows(monkeypatch, tmp_path, capsys) -> None:
    built = {PresentedAbelianGroup: 0, GroupHom: 0}
    group_from = PresentedAbelianGroup._from_stored.__func__
    hom_from = GroupHom._from_stored.__func__

    def group_checked(cls, *args, **kwargs):
        g = group_from(cls, *args, **kwargs)
        stored = PresentedAbelianGroup(g.table, g.cont_rank, g.disc_rank, g.relations, g.atoms)
        assert _relation_items(g) == _relation_items(stored)
        assert (type(g.relations), type(g.atoms)) == (tuple, tuple)
        assert all(type(r) is Relation for r in g.relations) and g.atoms == stored.atoms
        built[PresentedAbelianGroup] += 1
        return g

    def hom_checked(cls, *args, **kwargs):
        h = hom_from(cls, *args, **kwargs)
        stored = GroupHom(h.dom, h.cod, h.cont_images, h.disc_images, h.atom_images)
        assert _image_items(h) == _image_items(stored)
        assert (type(h.cont_images), type(h.disc_images)) == (tuple, tuple)
        built[GroupHom] += 1
        return h

    paths = []
    for n in EXAMPLES:
        path = tmp_path / f"ex{n}.json"
        path.write_text(json.dumps(example_doc(n)), encoding="utf-8")
        paths.append(path)
    clear_caches()
    monkeypatch.setattr(PresentedAbelianGroup, "_from_stored", classmethod(group_checked))
    monkeypatch.setattr(GroupHom, "_from_stored", classmethod(hom_checked))
    run_oracle(seed=0, runs=10)
    for path in paths:
        assert cli.main(["moduli", str(path), "--format", "json"]) in (0, 3)
    capsys.readouterr()
    monkeypatch.undo()
    clear_caches()
    assert built[PresentedAbelianGroup] > 0 and built[GroupHom] > 0
