"""The block-hom builder against the hand-written assemblers it replaced.

The reference functions below are the element-by-element assemblers the
group-graph layer used before every map between direct sums went through
:func:`folmod.abgroup.block_hom`: the degree-0 coboundary, the coordinate
maps between cochain sums of a graph and a subgraph, the block-diagonal
maps of a group-graph morphism, and the pairing into a sum of two
codomains.  On random cyclic group-graphs, with and without atom factors,
the builder-based maps must equal the reference maps, and raise
:class:`~folmod.abgroup.UnsupportedAtomMap` on exactly the same inputs.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import gg_builders as gb
from folmod.abgroup import (
    GroupHom,
    PresentedAbelianGroup,
    UnsupportedAtomMap,
    block_hom,
    direct_sum,
)
from folmod.exactnum import Scalar, SymbolTable
from folmod.gg import Graph, GroupGraph, _by_id, _cochains, coboundary0

# ---------------------------------------------------------------------------
# Reference assemblers
# ---------------------------------------------------------------------------


def as_row(vec: Sequence[Scalar]) -> dict:
    """A dense vector written as a row or an int row; ``GroupHom`` drops its
    zero entries."""
    return dict(enumerate(vec))


def ref_coboundary0(G: GroupGraph) -> GroupHom:
    verts = G.graph.vertices
    eids = G.graph.edges
    dom, voff = direct_sum([G.vertex_group(v) for v in verts], G.table)
    cod, eoff = direct_sum([G.edge_group(e) for e in eids], G.table)
    zero = Scalar.zero(G.table)
    cont_rows = [[zero] * cod.cont_rank for _ in range(dom.cont_rank)]
    disc_rows = [
        ([zero] * cod.cont_rank, [0] * cod.disc_rank) for _ in range(dom.disc_rank)
    ]
    atom_targets: List[Optional[int]] = [None] * len(dom.atoms)
    vindex = {v: i for i, v in enumerate(verts)}
    for ei, e in enumerate(eids):
        tail, head = G.graph.endpoints(e)
        if tail == head:
            continue
        eco, edo, eao = eoff[ei]
        for v, sign in ((head, 1), (tail, -1)):
            vi = vindex[v]
            gv = G.vertex_group(v)
            vco, vdo, vao = voff[vi]
            r = G.rho(v, e)
            for i in range(gv.cont_rank):
                row = cont_rows[vco + i]
                for c, x in r.cont_images[i].items():
                    row[eco + c] = row[eco + c] + (x if sign > 0 else -x)
            for j in range(gv.disc_rank):
                cpart, dpart = r.disc_images[j]
                crow, drow = disc_rows[vdo + j]
                for c, x in cpart.items():
                    crow[eco + c] = crow[eco + c] + (x if sign > 0 else -x)
                for c, n in dpart.items():
                    drow[edo + c] += sign * n
            for k, tgt in enumerate(r.atom_images):
                if tgt is None:
                    continue
                slot = vao + k
                if atom_targets[slot] is not None:
                    raise UnsupportedAtomMap(
                        f"vertex atom at {v!r} restricts onto more than one edge atom"
                    )
                atom_targets[slot] = eao + tgt
    return GroupHom(
        dom,
        cod,
        [as_row(r) for r in cont_rows],
        [(as_row(c), as_row(d)) for c, d in disc_rows],
        tuple(atom_targets),
    )


def ref_coord_map(
    table: SymbolTable,
    src_ids: Sequence[object],
    src_groups: Sequence[PresentedAbelianGroup],
    src_sum: PresentedAbelianGroup,
    src_off: Sequence[Tuple[int, int, int]],
    dst_ids: Sequence[object],
    dst_sum: PresentedAbelianGroup,
    dst_off: Sequence[Tuple[int, int, int]],
) -> GroupHom:
    zero = Scalar.zero(table)
    one = Scalar.one(table)
    cont_rows = [[zero] * dst_sum.cont_rank for _ in range(src_sum.cont_rank)]
    disc_rows = [
        ([zero] * dst_sum.cont_rank, [0] * dst_sum.disc_rank)
        for _ in range(src_sum.disc_rank)
    ]
    atoms: List[Optional[int]] = [None] * len(src_sum.atoms)
    dst_index = {i: k for k, i in enumerate(dst_ids)}
    for k, i in enumerate(src_ids):
        kk = dst_index.get(i)
        if kk is None:
            continue
        g = src_groups[k]
        sc, sd, sa = src_off[k]
        dc, dd, da = dst_off[kk]
        for a in range(g.cont_rank):
            cont_rows[sc + a][dc + a] = one
        for a in range(g.disc_rank):
            disc_rows[sd + a][1][dd + a] = 1
        for a in range(len(g.atoms)):
            atoms[sa + a] = da + a
    return GroupHom(
        src_sum,
        dst_sum,
        [as_row(r) for r in cont_rows],
        [(as_row(c), as_row(d)) for c, d in disc_rows],
        tuple(atoms),
    )


def ref_pair_hom(
    f0: GroupHom,
    f1: GroupHom,
    cod_sum: PresentedAbelianGroup,
    off0: Tuple[int, int, int],
    off1: Tuple[int, int, int],
) -> GroupHom:
    if f0.dom != f1.dom:
        raise ValueError("paired homs must share a domain")
    table = f0.dom.table
    zero = Scalar.zero(table)

    def place(vec0, vec1):
        out = [zero] * cod_sum.cont_rank
        for c, x in vec0.items():
            out[off0[0] + c] = x
        for c, x in vec1.items():
            out[off1[0] + c] = x
        return as_row(out)

    cont = [place(v0, v1) for v0, v1 in zip(f0.cont_images, f1.cont_images)]
    disc = []
    for (c0, d0), (c1, d1) in zip(f0.disc_images, f1.disc_images):
        dvec = [0] * cod_sum.disc_rank
        for c, n in d0.items():
            dvec[off0[1] + c] = n
        for c, n in d1.items():
            dvec[off1[1] + c] = n
        disc.append((place(c0, c1), as_row(dvec)))
    atoms: List[Optional[int]] = []
    for j0, j1 in zip(f0.atom_images, f1.atom_images):
        if j0 is not None and j1 is not None:
            raise UnsupportedAtomMap("an atom cannot map into both cover pieces")
        if j0 is not None:
            atoms.append(off0[2] + j0)
        elif j1 is not None:
            atoms.append(off1[2] + j1)
        else:
            atoms.append(None)
    return GroupHom(f0.dom, cod_sum, cont, disc, tuple(atoms))


def ref_block_diag_hom(
    ids: Sequence[object],
    maps: Mapping[object, GroupHom],
    dom_sum: PresentedAbelianGroup,
    dom_off: Sequence[Tuple[int, int, int]],
    cod_sum: PresentedAbelianGroup,
    cod_off: Sequence[Tuple[int, int, int]],
) -> GroupHom:
    table = dom_sum.table
    zero = Scalar.zero(table)
    cont_rows = [[zero] * cod_sum.cont_rank for _ in range(dom_sum.cont_rank)]
    disc_rows = [
        ([zero] * cod_sum.cont_rank, [0] * cod_sum.disc_rank)
        for _ in range(dom_sum.disc_rank)
    ]
    atoms: List[Optional[int]] = [None] * len(dom_sum.atoms)
    for k, i in enumerate(ids):
        m = maps[i]
        dc, dd, da = dom_off[k]
        cc, cd, ca = cod_off[k]
        for a, v in enumerate(m.cont_images):
            for c, x in v.items():
                cont_rows[dc + a][cc + c] = x
        for a, (cvec, dvec) in enumerate(m.disc_images):
            crow, drow = disc_rows[dd + a]
            for c, x in cvec.items():
                crow[cc + c] = x
            for c, n in dvec.items():
                drow[cd + c] = n
        for a, tgt in enumerate(m.atom_images):
            atoms[da + a] = None if tgt is None else ca + tgt
    return GroupHom(
        dom_sum,
        cod_sum,
        [as_row(r) for r in cont_rows],
        [(as_row(c), as_row(d)) for c, d in disc_rows],
        tuple(atoms),
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def outcome(build):
    """The built hom, or the marker ``UnsupportedAtomMap`` when it raised."""
    try:
        return build()
    except UnsupportedAtomMap:
        return UnsupportedAtomMap


def ref_coords(G: GroupGraph, src: GroupGraph, dst: GroupGraph, degree: int) -> GroupHom:
    s, d = _cochains(src, degree), _cochains(dst, degree)
    return ref_coord_map(G.table, s.ids, s.groups, s.total, s.offsets, d.ids, d.total, d.offsets)


group_graphs = st.one_of(gb.cyclic_pairs().map(lambda pair: pair[0]), gb.atom_group_graphs())


@st.composite
def graphs_with_pieces(draw):
    """A group-graph with two vertex subsets, each taken with its induced
    edges."""
    G = draw(group_graphs)
    subsets = st.lists(st.sampled_from(G.graph.vertices), unique=True)
    return G, G.restrict(draw(subsets)), G.restrict(draw(subsets))


@settings(max_examples=80, deadline=None)
@given(group_graphs)
def test_coboundary_equals_the_reference(G: GroupGraph) -> None:
    assert outcome(lambda: coboundary0(G)) == outcome(lambda: ref_coboundary0(G))


def test_a_vertex_atom_on_two_edge_atoms_is_refused_by_both() -> None:
    atom_z1 = direct_sum([gb.cyclic_group(1), gb.ATOM])[0]
    G = GroupGraph(
        Graph([0, 1, 2], [("e", 0, 1), ("f", 0, 2)]),
        {v: atom_z1 for v in (0, 1, 2)},
        {e: atom_z1 for e in ("e", "f")},
        {
            (v, e): GroupHom(atom_z1, atom_z1, [], [({}, {})], [0])
            for v, e in ((0, "e"), (1, "e"), (0, "f"), (2, "f"))
        },
        table=gb.TABLE,
    )
    assert outcome(lambda: coboundary0(G)) is UnsupportedAtomMap
    assert outcome(lambda: ref_coboundary0(G)) is UnsupportedAtomMap


@settings(max_examples=80, deadline=None)
@given(graphs_with_pieces(), st.sampled_from([0, 1]))
def test_coordinate_maps_equal_the_reference(pieces, degree: int) -> None:
    G, H, _ = pieces
    whole, part = _cochains(G, degree), _cochains(H, degree)
    assert _by_id(whole, part) == ref_coords(G, G, H, degree)
    assert _by_id(part, whole) == ref_coords(G, H, G, degree)


@settings(max_examples=80, deadline=None)
@given(graphs_with_pieces(), st.sampled_from([0, 1]))
def test_pairing_equals_the_reference(pieces, degree: int) -> None:
    G, H0, H1 = pieces
    whole = _cochains(G, degree)
    c0, c1 = _cochains(H0, degree), _cochains(H1, degree)
    f0, f1 = _by_id(whole, c0), _by_id(whole, c1)
    pair, offs = direct_sum([c0.total, c1.total], G.table)
    built = outcome(
        lambda: block_hom(whole.total, [(0, 0, 0)], pair, offs, [(0, 0, f0, 1), (0, 1, f1, 1)])
    )
    assert built == outcome(lambda: ref_pair_hom(f0, f1, pair, offs[0], offs[1]))


@settings(max_examples=80, deadline=None)
@given(group_graphs, st.sampled_from([0, 1]), st.integers(0, 5))
def test_block_diagonal_maps_equal_the_reference(G: GroupGraph, degree: int, m: int) -> None:
    c = _cochains(G, degree)
    maps = {
        x: GroupHom(g, g, [], [({}, {0: m})], range(len(g.atoms)))
        for x, g in zip(c.ids, c.groups)
    }
    expected = ref_block_diag_hom(c.ids, maps, c.total, c.offsets, c.total, c.offsets)
    assert _by_id(c, c, maps.__getitem__) == expected
