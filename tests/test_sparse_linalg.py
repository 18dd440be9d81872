"""The sparse field and integer solvers against the dense ones they replaced.

The reference functions below are the dense solvers of `folmod.abgroup`
before its linear algebra moved to sparse rows (dicts from column to a
nonzero Scalar): reduced row echelon form, nullspace and one solution over
Q(symbols), the monomial expansion of a Scalar system into integer rows,
and the integer solve on top of the Smith normal form.  On random
matrices, at least half of whose entries are zero, over symbol tables of
width 0, 1 and 2 with rational, polynomial and rational-function entries,
the sparse functions must return equal results.  `factor_through` builds
its preimage system once per mono; it must equal the per-generator
`preimage_element` loop it replaced.

The sparse solvers are methods of one elimination, ``_Elimination``: over
the rows of a matrix it gives the reduced form and the nullspace; over the
columns it solves ``A x = b`` and its dependencies are the nullspace of
``A``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import gg_builders as gb
from folmod import abgroup
from folmod.abgroup import (
    GroupHom,
    _by_coordinate,
    _Elimination,
    _int_rows_from_scalar_columns,
    _int_solve,
    compose,
    factor_through,
    preimage_element,
)
from folmod.exactnum import IntMatrix, Scalar, SymbolTable, monomial_vectors, smith_normal_form
from folmod.gg import cohomology

# ---------------------------------------------------------------------------
# Reference dense solvers
# ---------------------------------------------------------------------------


def ref_vzero(table: SymbolTable, n: int) -> List[Scalar]:
    return [Scalar.zero(table)] * n


def ref_viszero(u: Sequence[Scalar]) -> bool:
    return all(a.is_zero() for a in u)


def ref_vsub(u: Sequence[Scalar], v: Sequence[Scalar]) -> List[Scalar]:
    return [a - b for a, b in zip(u, v)]


def ref_vscale(u: Sequence[Scalar], c: Scalar) -> List[Scalar]:
    return [c * a for a in u]


def ref_field_rref(rows):
    work = [list(r) for r in rows if not ref_viszero(r)]
    pivots: List[int] = []
    ncols = len(work[0]) if work else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][col].is_zero():
                work[i] = ref_vsub(work[i], ref_vscale(work[r], work[i][col]))
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def ref_field_solve(rows, b, ncols, table) -> Optional[List[Scalar]]:
    aug = [list(rows[i]) + [b[i]] for i in range(len(rows))]
    rref, pivots = ref_field_rref(aug)
    if ncols in pivots:
        return None
    x = ref_vzero(table, ncols)
    for row, p in zip(rref, pivots):
        x[p] = row[ncols]
    return x


def ref_field_nullspace(rows, ncols, table) -> List[List[Scalar]]:
    rref, pivots = ref_field_rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    one = Scalar.one(table)
    for f in free:
        vec = ref_vzero(table, ncols)
        vec[f] = one
        for row, p in zip(rref, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def ref_int_rows_from_scalar_columns(columns, targets) -> Tuple[List[List[int]], List[int]]:
    rows: List[List[int]] = []
    rhs: List[int] = []
    for coord in range(len(targets)):
        scalars = [col[coord] for col in columns] + [targets[coord]]
        if all(s.is_zero() for s in scalars):
            continue
        vectors = monomial_vectors(scalars)
        nmono = len(vectors[0]) if vectors else 0
        for m in range(nmono):
            fracs = [vec[m] for vec in vectors]
            if all(f == 0 for f in fracs):
                continue
            denom = 1
            for f in fracs:
                denom = lcm(denom, f.denominator)
            ints = [f.numerator * (denom // f.denominator) for f in fracs]
            rows.append(ints[:-1])
            rhs.append(ints[-1])
    return rows, rhs


def ref_int_solve(rows, b, ncols) -> Optional[List[int]]:
    if not rows:
        return [0] * ncols
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
    u, d, v = smith_normal_form(IntMatrix._of_int_rows(rows))
    ub = [sum(u.rows[i][k] * b[k] for k in range(len(b))) for i in range(len(rows))]
    diag = d.diagonal()
    y = [0] * ncols
    for i in range(len(rows)):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        elif ub[i] % di != 0:
            return None
        else:
            y[i] = ub[i] // di
    return [sum(v.rows[r][k] * y[k] for k in range(ncols)) for r in range(ncols)]


# ---------------------------------------------------------------------------
# Random sparse matrices
# ---------------------------------------------------------------------------

TABLES = {width: SymbolTable(["a", "b"][:width]) for width in (0, 1, 2)}


def _bases(table: SymbolTable) -> List[Scalar]:
    """Rational, polynomial and rational-function Scalars over ``table``."""
    one = Scalar.one(table)
    syms = [Scalar.symbol(table, name) for name in table.names]
    out = [one, Scalar.rational(table, -3, 2)]
    if syms:
        a = syms[0]
        b = syms[-1]
        out += [a, a * a + one, one / (a + one), a / (a - Scalar.rational(table, 2))]
        out += [a * b - one, a / (b + a + one)]
    return out


@st.composite
def sparse_matrices(draw, max_rows: int = 4, max_cols: int = 5):
    """``(table, dense rows, ncols)`` with at least half the entries zero."""
    table = TABLES[draw(st.sampled_from([0, 1, 2]))]
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    nonzero = draw(
        st.lists(st.sampled_from(cells), max_size=len(cells) // 2, unique=True)
        if cells
        else st.just([])
    )
    zero = Scalar.zero(table)
    rows = [[zero] * ncols for _ in range(nrows)]
    bases = _bases(table)
    for i, j in nonzero:
        base = draw(st.sampled_from(bases))
        rows[i][j] = base.scale(Fraction(draw(st.sampled_from([1, -1, 2, 3])), draw(st.integers(1, 3))))
    return table, rows, ncols


def _sparse(v: Sequence[Scalar]) -> dict:
    return {j: x for j, x in enumerate(v) if not x.is_zero()}


def _dense(row, n: int, table: SymbolTable) -> List[Scalar]:
    out = [Scalar.zero(table)] * n
    for j, x in row.items():
        out[j] = x
    return out


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _columns(rows, ncols: int) -> List[dict]:
    return [{i: row[j] for i, row in enumerate(rows) if not row[j].is_zero()} for j in range(ncols)]


class TestFieldSolvers:
    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices())
    def test_rref_and_nullspace(self, case) -> None:
        table, rows, ncols = case
        want_rows, want_pivots = ref_field_rref(rows)
        elim = _Elimination([_sparse(r) for r in rows], table)
        got_rows, got_pivots = elim.rref()
        assert got_pivots == want_pivots
        assert [_dense(r, ncols, table) for r in got_rows] == want_rows
        got_null = elim.nullspace(ncols)
        assert [_dense(v, ncols, table) for v in got_null] == ref_field_nullspace(rows, ncols, table)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_solve_over_the_columns(self, case, data) -> None:
        table, rows, ncols = case
        if data.draw(st.booleans()):
            # A right side in the column span, so a solution exists.
            xs = [data.draw(st.sampled_from([0, 0, 1, -2])) for _ in range(ncols)]
            b = [Scalar.zero(table)] * len(rows)
            for i, row in enumerate(rows):
                for x, entry in zip(xs, row):
                    if x:
                        b[i] = b[i] + entry.scale(x)
        else:
            b = [data.draw(st.sampled_from(_bases(table) + [Scalar.zero(table)] * 3)) for _ in rows]
        elim = _Elimination(_columns(rows, ncols), table, track=True)
        got = elim.express(_sparse(b))
        want = ref_field_solve(rows, b, ncols, table)
        assert (None if got is None else _dense(got, ncols, table)) == want
        deps = [_dense(v, ncols, table) for v in elim.dependencies]
        assert deps == ref_field_nullspace(rows, ncols, table)


class TestIntegerSolvers:
    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_int_rows_from_scalar_columns(self, case, data) -> None:
        table, rows, ncols = case
        # The rows of the random matrix serve as columns over ncols coordinates.
        targets = [data.draw(st.sampled_from(_bases(table) + [Scalar.zero(table)] * 3)) for _ in range(ncols)]
        want = ref_int_rows_from_scalar_columns(rows, targets)
        columns = [_sparse(r) for r in rows]
        got = _int_rows_from_scalar_columns(_by_coordinate(columns), len(columns), _sparse(targets))
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_int_solve(self, data) -> None:
        nrows = data.draw(st.integers(0, 5))
        ncols = data.draw(st.integers(0, 5))
        cells = nrows * ncols
        values = [0] * cells
        for pos in data.draw(st.lists(st.integers(0, max(cells - 1, 0)), max_size=cells // 2, unique=True)):
            values[pos] = data.draw(st.integers(-6, 6))
        rows = [values[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        if data.draw(st.booleans()):
            y = [data.draw(st.integers(-3, 3)) for _ in range(ncols)]
            b = [sum(r * x for r, x in zip(row, y)) for row in rows]
        else:
            b = [data.draw(st.sampled_from([0, 0, 1, -2, 5])) for _ in range(nrows)]
        assert _int_solve(rows, b, ncols) == ref_int_solve(rows, b, ncols)


class TestFactorThrough:
    @settings(max_examples=40, deadline=None)
    @given(gb.cyclic_pairs(max_vertices=3, max_edges=3), st.integers(-2, 3))
    def test_equals_per_generator_preimages(self, pair, mult) -> None:
        G, _ = pair
        mono = cohomology(G).h0_inclusion
        h0 = mono.dom
        scale = GroupHom(
            h0,
            h0,
            [],
            [({}, tuple(mult if j == i else 0 for j in range(h0.disc_rank))) for i in range(h0.disc_rank)],
            tuple(range(len(h0.atoms))),
        )
        f = compose(mono, scale)
        got = factor_through(f, mono)
        disc = []
        for c, d in f.disc_images:
            # A fresh system per generator, as the per-generator loop had: a
            # hom keeps its preimage system, so each generator gets a copy.
            fresh = GroupHom(mono.dom, mono.cod, mono.cont_images, mono.disc_images, mono.atom_images)
            pre = preimage_element(fresh, c, list(d))
            assert pre is not None
            disc.append((pre[0], tuple(pre[1])))
        want = GroupHom(f.dom, mono.dom, [], disc, tuple(range(len(h0.atoms))))
        assert got == want
