"""The sparse field and integer solvers against the dense ones they replaced.

The reference functions below are the dense solvers of `folmod.abgroup`
before its linear algebra moved to sparse rows (dicts from column to a
nonzero Scalar): reduced row echelon form, nullspace and one solution over
Q(symbols), the monomial expansion of a Scalar system into integer rows,
and the integer solve on top of the Smith normal form.  On random
matrices, at least half of whose entries are zero, over symbol tables of
width 0, 1 and 2 with rational, polynomial and rational-function entries,
the sparse functions must return equal results.  The integer solve is the
exception: its Smith transforms are free (see ``tests/test_memo.py``), so
against the dense reference ``reference_snf`` it must find a solution
exactly when the reference does, that solution must solve the system, and
its kernel must span the reference's lattice.  `factor_through` builds
its preimage system once per mono; it must equal the per-generator
`preimage_element` loop it replaced.

The sparse solvers are methods of one elimination, ``_Elimination``: over
the rows of a matrix it gives the reduced form, and reducing a vector reads
off every left-null functional at once (``eta_f . v == reduce(v)[f]``);
over the columns it solves ``A x = b`` and its dependencies are the
nullspace of ``A``.

Membership in a relation span and preimages under a hom were once two
solvers: ``RefSpan`` reduced each vector against the eliminated C-rows,
and ``RefPreimageSystem`` took one left-null functional per free column.
Both are kept below as references for the one system that replaced them:
on random groups and homs, its membership verdicts and the results of
`preimage_element` and `factor_through` must equal theirs.  A `kernel`
must have the reference's generators, atoms and inclusion; it presents its
relations as the kernel of that inclusion, so only their span must equal
the reference's, which writes the domain's relations in kernel coordinates.

The integer side of the references runs on the integer solvers as they
were before the one system factored its integer matrix once, copied below
(``old_int_*``): a system rebuilt its integer rows for every target and
solved them through a fresh Smith form lookup.  The factored system must
give the same ``y`` as that per-target system, or None with it.  Both run
on the same kernel (``smith_normal_form`` is its dense view), so an equal
matrix gives equal transforms.
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
    HomError,
    KernelResult,
    NonFiniteTypeKernel,
    PresentedAbelianGroup,
    Relation,
    UnsupportedAtomMap,
    _by_coordinate,
    _Elimination,
    _head,
    _hnf_rows,
    _int_rows_from_scalar_columns,
    _IntSystem,
    _kernel,
    _neg,
    _PreimageSystem,
    _span_of,
    check_hom,
    compose,
    factor_through,
    preimage_element,
)
from folmod.exactnum import IntMatrix, Scalar, SymbolTable, monomial_vectors, smith_normal_form
from folmod.gg import cohomology
from test_memo import old_int_system_nullspace, reference_snf

# ---------------------------------------------------------------------------
# The integer solvers before factoring once
# ---------------------------------------------------------------------------


def sparse_ints(values: Sequence[int]) -> dict:
    """The int row of a dense int vector: its nonzero entries by column."""
    return {j: x for j, x in enumerate(values) if x}


def dense_ints(row, n: int) -> List[int]:
    """The dense int vector of width ``n`` of an int row."""
    return [row.get(j, 0) for j in range(n)]


def old_int_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Basis of the integer kernel ``{y : rows . y = 0}``."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    u, d, v = smith_normal_form(IntMatrix(rows))
    diag = d.diagonal()
    basis = []
    for i in range(ncols):
        if i >= len(diag) or diag[i] == 0:
            basis.append([v.rows[r][i] for r in range(ncols)])
    return basis


def old_int_solve(
    rows: Sequence[Sequence[int]], b: Sequence[int], ncols: int
) -> Optional[List[int]]:
    """One integer solution of ``rows . y = b``, or None."""
    if not rows:
        return [0] * ncols
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
    u, d, v = smith_normal_form(IntMatrix(rows))
    # b and y are mostly zero: the products run over their nonzero entries.
    bnz = [(k, x) for k, x in enumerate(b) if x]
    diag = d.diagonal()
    ynz: List[Tuple[int, int]] = []
    for i, urow in enumerate(u.rows):
        ub = sum(urow[k] * x for k, x in bnz)
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub != 0:
                return None
        elif ub % di != 0:
            return None
        elif ub:
            ynz.append((i, ub // di))
    return [sum(vrow[k] * y for k, y in ynz) for vrow in v.rows]


def old_int_rows_from_scalar_columns(at, ncols: int, target) -> Tuple[List[List[int]], List[int]]:
    """Expand ``sum n_j columns[j] = target`` coordinate-wise over monomials.

    The ``ncols`` columns come grouped by coordinate, ``at[coord][j]`` (see
    :func:`_by_coordinate`), and ``target`` is sparse over the coordinates.
    Each coordinate where some entry is nonzero contributes, in coordinate
    order, one integer row per monomial appearing there, with denominators
    cleared row by row; returns ``(rows, rhs)``.  A coordinate whose entries
    are all rational is one monomial and skips the expansion.
    """
    rows: List[List[int]] = []
    rhs: List[int] = []
    for coord in sorted(at.keys() | target.keys()):
        entries = at.get(coord, {})
        t = target.get(coord)
        scalars = list(entries.values()) if t is None else [*entries.values(), t]
        if all(x.is_rational() for x in scalars):
            vectors = [[x.rat] for x in scalars]
        else:
            vectors = monomial_vectors(scalars)[0]
        for m in range(len(vectors[0])):
            fracs = [vec[m] for vec in vectors]
            if not any(fracs):
                continue
            denom = 1
            for f in fracs:
                denom = lcm(denom, f.denominator)
            ints = [f.numerator * (denom // f.denominator) for f in fracs]
            row = [0] * ncols
            for j, n in zip(entries, ints):
                row[j] = n
            rows.append(row)
            rhs.append(ints[-1] if t is not None else 0)
    return rows, rhs


def old_int_system(system: _PreimageSystem, target_cont, target_disc) -> Tuple[List[List[int]], List[int]]:
    """Integer rows and right side of a system's conditions on ``y``, built
    afresh for one target."""
    rows, rhs = old_int_rows_from_scalar_columns(
        system.ycoords, len(system.ycols), system.elim.reduce(target_cont)
    )
    # The conditions read sum y_i reduce(ycols_i) = -reduce(t_c).
    rhs = [-b for b in rhs]
    for coord in sorted(system.disc_rows.keys() | target_disc.keys()):
        rows.append(dense_ints(system.disc_rows.get(coord, {}), len(system.ycols)))
        rhs.append(target_disc.get(coord, 0))
    return rows, rhs


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
        vectors = monomial_vectors(scalars)[0]
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
    u, d, v = reference_snf(IntMatrix(rows))
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
        # Reducing the unit vectors reads off the left-null functionals.
        zero = Scalar.zero(table)
        reduced = [elim.reduce({j: Scalar.one(table)}) for j in range(ncols)]
        free = [f for f in range(ncols) if f not in got_pivots]
        etas = [[reduced[j].get(f, zero) for j in range(ncols)] for f in free]
        assert etas == ref_field_nullspace(rows, ncols, table)

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
    @given(sparse_matrices())
    def test_int_rows_from_scalar_columns(self, case) -> None:
        table, rows, ncols = case
        # The rows of the random matrix serve as columns over ncols
        # coordinates.  The rows take no target: the factored system forms
        # its right sides itself (TestOneSystem below).
        want = ref_int_rows_from_scalar_columns(rows, [Scalar.zero(table)] * ncols)
        columns = [_sparse(r) for r in rows]
        got, _ = _int_rows_from_scalar_columns(_by_coordinate(columns))
        assert all(all(row.values()) for row in got)  # sparse rows hold no zero
        dense = [[row.get(j, 0) for j in range(len(columns))] for row in got]
        assert (dense, [0] * len(got)) == want

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
        system = _IntSystem([{j: x for j, x in enumerate(row) if x} for row in rows], ncols)
        got, want = system.solve(dict(enumerate(b))), ref_int_solve(rows, b, ncols)
        assert (got is None) == (want is None)
        if got is not None:
            assert [sum(row[j] * x for j, x in got.items()) for row in rows] == b
        if rows:
            want_kernel = old_int_system_nullspace(IntMatrix(rows))
            got_kernel = [dense_ints(y, ncols) for y in system.nullspace()]
            assert _hnf_rows(got_kernel) == _hnf_rows(want_kernel)


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
            [({}, {i: mult}) for i in range(h0.disc_rank)],
            tuple(range(len(h0.atoms))),
        )
        f = compose(mono, scale)
        got = factor_through(f, mono)
        disc = []
        for c, d in f.disc_images:
            # A fresh system per generator, as the per-generator loop had: a
            # hom keeps its preimage system, so each generator gets a copy.
            fresh = GroupHom(mono.dom, mono.cod, mono.cont_images, mono.disc_images, mono.atom_images)
            pre = preimage_element(fresh, c, d)
            assert pre is not None
            disc.append(pre)
        want = GroupHom(f.dom, mono.dom, [], disc, tuple(range(len(h0.atoms))))
        assert got == want


# ---------------------------------------------------------------------------
# Reference span and preimage solvers: the two solvers the one system merged
# ---------------------------------------------------------------------------


def ref_vdot(u, v, table: SymbolTable) -> Scalar:
    acc = Scalar.zero(table)
    for j, a in u.items():
        b = v.get(j)
        if b is not None:
            acc = acc + a * b
    return acc


def ref_nullspace(elim: _Elimination, ncols: int, table: SymbolTable) -> List[dict]:
    """Basis of ``{x : v . x = 0}`` over the eliminated vectors, one per free column."""
    above: dict = {}
    for p, row in elim.rows.items():
        for f, y in row.items():
            if f != p:
                above.setdefault(f, {})[p] = -y
    basis = []
    for f in range(ncols):
        if f not in elim.rows:
            vec = dict(above.get(f, {}))
            vec[f] = Scalar.one(table)
            basis.append(vec)
    return basis


def ref_eta_coefficients(eta, cols, table: SymbolTable) -> dict:
    row = {}
    for j, col in enumerate(cols):
        c = ref_vdot(eta, col, table)
        if not c.is_zero():
            row[j] = c
    return {0: row} if row else {}


class RefSpan:
    """The relation span of a group plus extra rows: the C-rows eliminated,
    every Z-row's continuous part reduced against them."""

    def __init__(self, g: PresentedAbelianGroup, extra_c=(), extra_z=()):
        crows = [r.cont for r in g.relations if r.span == "C"] + list(extra_c)
        self.elim = _Elimination((r for r in crows if r), g.table)
        zrows = [(r.cont, r.disc) for r in g.relations if r.span == "Z"] + list(extra_z)
        self.zcols = [self.elim.reduce(c) for c, _ in zrows]
        self.zcoords = _by_coordinate(self.zcols)
        self.zdisc = [[d.get(coord, 0) for _, d in zrows] for coord in range(g.disc_rank)]

    def has_line(self, vcont) -> bool:
        return not self.elim.reduce(vcont)

    def member(self, vcont, vdisc) -> Optional[List[int]]:
        """Integer coefficients over the Z-rows summing to the vector, or None."""
        reduced = self.elim.reduce(vcont)
        rows, rhs = old_int_rows_from_scalar_columns(self.zcoords, len(self.zcols), reduced)
        for coord, row in enumerate(self.zdisc):
            b = vdisc.get(coord, 0)
            if b or any(row):
                rows.append(row)
                rhs.append(b)
        if not rows:
            return [0] * len(self.zcols)
        return old_int_solve(rows, rhs, len(self.zcols))


class RefPreimageSystem:
    """The system of a hom in the functional form: one left-null functional
    ``eta`` per free column of ``(h(c_j), -C_k)`` and one dot product per
    (``eta``, column) pair."""

    def __init__(self, h: GroupHom):
        table = self.table = h.dom.table
        self.gc, self.gd = h.dom.cont_rank, h.dom.disc_rank
        crows = [r.cont for r in h.cod.relations if r.span == "C" and r.cont]
        zrows = h.cod.zrows()
        columns = list(h.cont_images) + [_neg(r) for r in crows]
        self.elim = _Elimination(columns, table, track=True)
        self.etas = ref_nullspace(self.elim, h.cod.cont_rank, table)
        self.ycols = [_neg(c) for c, _ in h.disc_images] + [r.cont for r in zrows]
        self.coeffs = [ref_eta_coefficients(eta, self.ycols, table) for eta in self.etas]
        self.disc_rows = [
            [d.get(coord, 0) for _, d in h.disc_images] + [-r.disc.get(coord, 0) for r in zrows]
            for coord in range(h.cod.disc_rank)
        ]

    def int_system(self, target_cont, target_disc):
        rows: List[List[int]] = []
        rhs: List[int] = []
        for eta, at in zip(self.etas, self.coeffs):
            t = ref_vdot(eta, target_cont, self.table)
            target = {} if t.is_zero() else {0: -t}
            r, b = old_int_rows_from_scalar_columns(at, len(self.ycols), target)
            rows += r
            rhs += b
        for coord, row in enumerate(self.disc_rows):
            b = target_disc.get(coord, 0)
            if b or any(row):
                rows.append(row)
                rhs.append(int(b))
        return rows, rhs

    def field_part(self, y, target_cont):
        rem = dict(target_cont)
        for val, col in zip(y, self.ycols):
            if val:
                abgroup._addmul(rem, val, col)
        return self.elim.express(rem)

    def preimage(self, target_cont, target_disc):
        rows, rhs = self.int_system(target_cont, target_disc)
        y = old_int_solve(rows, rhs, len(self.ycols))
        if y is None:
            return None
        x = self.field_part(y, target_cont)
        if x is None:
            return None
        return _head(x, self.gc), sparse_ints(y[: self.gd])


def ref_kernel(h: GroupHom) -> KernelResult:
    """The kernel computed through the reference span and system."""
    table = h.dom.table
    kernel_atoms = []
    kernel_atom_indices = []
    for k, j in enumerate(h.atom_images):
        if j is None:
            kernel_atoms.append(h.dom.atoms[k])
            kernel_atom_indices.append(k)
        elif h.dom.atoms[k].mod_order != h.cod.atoms[j].mod_order:
            raise UnsupportedAtomMap("quotient map on an atom")
    gc, gd = h.dom.cont_rank, h.dom.disc_rank
    system = RefPreimageSystem(h)
    int_rows, _ = system.int_system({}, {})
    ybasis = old_int_nullspace(int_rows, len(system.ycols))
    disc_gens = []
    for y in ybasis:
        xi = system.field_part(y, {})
        if xi is None:
            raise NonFiniteTypeKernel("admissible integer solution lost field solvability")
        disc_gens.append((_head(xi, gc), list(y[:gd])))
    xparts = [_head(dep, gc) for dep in system.elim.dependencies]
    vbasis, _ = _Elimination(xparts, table).rref()
    vspan = _Elimination(vbasis, table, track=True)
    cont_coords = vspan.express
    relations = []
    syz_rows: List[List[int]] = []
    xcols = [x for x, _ in disc_gens]
    for eta in ref_nullspace(vspan, gc, table):
        at = ref_eta_coefficients(eta, xcols, table)
        rows, _ = old_int_rows_from_scalar_columns(at, len(xcols), {})
        syz_rows.extend(rows)
    for coord in range(gd):
        row = [n[coord] for _, n in disc_gens]
        if any(row):
            syz_rows.append(row)

    def residual(cont, a):
        resid = dict(cont)
        for val, (x, _) in zip(a, disc_gens):
            if val:
                abgroup._addmul(resid, -val, x)
        return resid

    for a in old_int_nullspace(syz_rows, len(disc_gens)):
        if not any(a):
            continue
        b = cont_coords(residual({}, a))
        if b is None:
            raise NonFiniteTypeKernel("syzygy residual escaped the kernel")
        relations.append(Relation(b, sparse_ints(a), "Z"))
    span = RefSpan(h.cod)
    arows = [[y[kk] for y in ybasis] for kk in range(len(system.ycols))]
    for cont, disc, kind in h.dom.relations:
        if kind == "C":
            b = cont_coords(cont)
            if b is None:
                raise NonFiniteTypeKernel("domain line relation escaped the kernel")
            if b:
                relations.append(Relation(b, {}, "C"))
            continue
        img_c, img_d = h.apply(cont, disc)
        m = span.member(img_c, img_d)
        if m is None:
            raise HomError("domain relation has no image certificate")
        a = old_int_solve(arows, dense_ints(disc, gd) + m, len(ybasis))
        if a is None:
            raise NonFiniteTypeKernel("domain relation escaped the kernel lattice")
        b = cont_coords(residual(cont, a))
        if b is None:
            raise NonFiniteTypeKernel("domain relation residual escaped the kernel")
        if any(a) or b:
            relations.append(Relation(b, sparse_ints(a), "Z"))
    kg = PresentedAbelianGroup(table, len(vbasis), len(disc_gens), relations, kernel_atoms)
    disc_images = [(x, sparse_ints(n)) for x, n in disc_gens]
    inclusion = GroupHom(kg, h.dom, vbasis, disc_images, tuple(kernel_atom_indices))
    return KernelResult(kg, inclusion)


def same_relation_span(g: PresentedAbelianGroup, r: PresentedAbelianGroup) -> bool:
    """Whether two groups on the same generators have one relation span:
    each span holds the other's rows, a C-row with its whole line."""

    def rows(x: PresentedAbelianGroup):
        lines = [rel.cont for rel in x.relations if rel.span == "C"]
        return lines, [(rel.cont, rel.disc) for rel in x.zrows()]

    return _span_of(g).contains(*rows(r)) and _span_of(r).contains(*rows(g))


def assert_same_kernel(got: KernelResult, want: KernelResult) -> None:
    """The kernels have the same generators, atoms and inclusion, and
    relations with the same span."""
    g, r = got.group, want.group
    assert (g.table, g.cont_rank, g.disc_rank) == (r.table, r.cont_rank, r.disc_rank)
    assert g.atoms == r.atoms
    i, j = got.inclusion, want.inclusion
    assert (i.cod, i.cont_images, i.disc_images) == (j.cod, j.cont_images, j.disc_images)
    assert i.atom_images == j.atom_images
    assert same_relation_span(g, r)


def ref_factor_through(f: GroupHom, mono: GroupHom) -> Optional[GroupHom]:
    """``g`` with ``mono . g == f`` through the reference system, or None;
    atoms are left out (the random homs below have none)."""
    system = RefPreimageSystem(mono)
    cont_images = []
    for v in f.cont_images:
        sol = system.elim.express(v)
        if sol is None:
            return None
        cont_images.append(_head(sol, len(mono.cont_images)))
    disc_images = []
    for c, d in f.disc_images:
        pre = system.preimage(c, d)
        if pre is None:
            return None
        disc_images.append(pre)
    return GroupHom(f.dom, mono.dom, cont_images, disc_images, ())


# ---------------------------------------------------------------------------
# Random groups and homs: C-rows and Z-rows over tables of width 0-2
# ---------------------------------------------------------------------------


def _draw_row(data, table: SymbolTable, width: int) -> dict:
    bases = _bases(table)
    row = {}
    for j in range(width):
        if data.draw(st.booleans()):
            base = data.draw(st.sampled_from(bases))
            row[j] = base.scale(data.draw(st.sampled_from([1, -1, 2, 3])))
    return row


def _draw_disc(data, width: int) -> dict:
    entries = st.sampled_from([0, 0, 1, -1, 2, 3, 4, -6])
    return sparse_ints([data.draw(entries) for _ in range(width)])


def _draw_group(data, table: SymbolTable) -> PresentedAbelianGroup:
    a, b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    relations = []
    for _ in range(data.draw(st.integers(0, 3))):
        if a and data.draw(st.integers(0, 3)) == 0:
            relations.append(Relation(_draw_row(data, table, a), {}, "C"))
        else:
            relations.append(Relation(_draw_row(data, table, a), _draw_disc(data, b), "Z"))
    return PresentedAbelianGroup(table, a, b, relations)


def _draw_images(data, dom: PresentedAbelianGroup, cod: PresentedAbelianGroup):
    table = dom.table
    cont = [_draw_row(data, table, cod.cont_rank) for _ in range(dom.cont_rank)]
    disc = [
        (_draw_row(data, table, cod.cont_rank), _draw_disc(data, cod.disc_rank))
        for _ in range(dom.disc_rank)
    ]
    return cont, disc


def _draw_hom(data) -> GroupHom:
    """A hom whose codomain also kills the images of the domain's relations,
    so that it is a homomorphism by construction."""
    table = TABLES[data.draw(st.sampled_from([0, 1, 2]))]
    dom, base = _draw_group(data, table), _draw_group(data, table)
    cont, disc = _draw_images(data, dom, base)
    free = GroupHom(PresentedAbelianGroup(table, dom.cont_rank, dom.disc_rank), base, cont, disc)
    images = [Relation(*free.apply(r.cont, r.disc), r.span) for r in dom.relations]
    cod = PresentedAbelianGroup(
        table, base.cont_rank, base.disc_rank, list(base.relations) + images
    )
    return GroupHom(dom, cod, cont, disc)


def _draw_element(data, g: PresentedAbelianGroup, hom: Optional[GroupHom] = None):
    """A codomain element: often a combination of relations (and images of
    ``hom``), otherwise arbitrary."""
    table = g.table
    if data.draw(st.booleans()):
        return _draw_row(data, table, g.cont_rank), _draw_disc(data, g.disc_rank)
    cont: dict = {}
    disc = [0] * g.disc_rank
    gens = [(r.cont, r.disc) for r in g.zrows()]
    if hom is not None:
        gens += [(c, d) for c, d in hom.disc_images]
    for c, d in gens:
        n = data.draw(st.sampled_from([0, 1, -1, 2]))
        if n:
            abgroup._addmul(cont, n, c)
            for j, y in d.items():
                disc[j] += n * y
    lines = [r.cont for r in g.relations if r.span == "C"]
    if hom is not None:
        lines += list(hom.cont_images)
    for c in lines:
        if data.draw(st.booleans()):
            abgroup._addmul(cont, data.draw(st.sampled_from(_bases(table))), c)
    return cont, sparse_ints(disc)


def _draw_target(data, g: PresentedAbelianGroup, hom: Optional[GroupHom] = None):
    """A codomain element as :func:`_draw_element` draws it, sometimes
    spoilt where the factored system forms its right side alone: a
    monomial or a denominator the system's entries lack, a scale that makes
    the right side non-integral, or a nonzero discrete entry everywhere,
    which meets a zero discrete row when the system has one."""
    table = g.table
    cont, disc = _draw_element(data, g, hom)
    one = Scalar.one(table)
    spoilers = [one.scale(Fraction(1, 5))]
    if len(table):
        a, b = (Scalar.symbol(table, name) for name in (table.names[0], table.names[-1]))
        spoilers += [a * a * a * b, one / (a + b + Scalar.rational(table, 3))]
    if g.cont_rank and data.draw(st.booleans()):
        coord = data.draw(st.integers(0, g.cont_rank - 1))
        extra = data.draw(st.sampled_from(spoilers))
        cont = dict(cont)
        cont[coord] = cont[coord] + extra if coord in cont else extra
        cont = {j: x for j, x in cont.items() if not x.is_zero()}
    if data.draw(st.integers(0, 3)) == 0:
        cont = {j: x.scale(Fraction(1, 7)) for j, x in cont.items()}
    if g.disc_rank and data.draw(st.integers(0, 3)) == 0:
        spoil = st.sampled_from([1, -2, 3])
        disc = {j: disc.get(j) or data.draw(spoil) for j in range(g.disc_rank)}
    return cont, disc


class TestOneSystem:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_factored_solve_equals_the_per_target_system(self, data) -> None:
        table = TABLES[data.draw(st.sampled_from([0, 1, 2]))]
        g = _draw_group(data, table)
        if data.draw(st.booleans()):
            system, hom = _span_of(g), None
        else:
            dom = _draw_group(data, table)
            cont, disc = _draw_images(data, dom, g)
            free = PresentedAbelianGroup(table, dom.cont_rank, dom.disc_rank)
            hom = GroupHom(free, g, cont, disc)
            system = _PreimageSystem(g, cont, disc)
        for _ in range(4):
            c, d = _draw_target(data, g, hom)
            want = old_int_solve(*old_int_system(system, c, d), len(system.ycols))
            assert system.solve(c, d) == (None if want is None else sparse_ints(want))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_membership_verdicts_equal_the_reference(self, data) -> None:
        table = TABLES[data.draw(st.sampled_from([0, 1, 2]))]
        g = _draw_group(data, table)
        if data.draw(st.booleans()):
            # A group's own span: the system with no generators.
            got, want, hom = _span_of(g), RefSpan(g), None
        else:
            # A span with extra rows, as is_exact_at builds it.
            dom = _draw_group(data, table)
            cont, disc = _draw_images(data, dom, g)
            free = PresentedAbelianGroup(table, dom.cont_rank, dom.disc_rank)
            hom = GroupHom(free, g, cont, disc)
            got, want = _PreimageSystem(g, cont, disc), RefSpan(g, cont, disc)
        for _ in range(3):
            c, d = _draw_element(data, g, hom)
            assert got.has_line(c) == want.has_line(c)
            assert (got.solve(c, d) is None) == (want.member(c, d) is None)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_kernel_equals_the_reference(self, data) -> None:
        h = _draw_hom(data)
        check_hom(h)
        assert_same_kernel(_kernel(h), ref_kernel(h))

    def test_kernel_takes_the_relation_span_certificate(self) -> None:
        # The reference writes each domain relation through the codomain's
        # Z-rows.  Certificates from a span solved as [Zc; -Zd] y =
        # [-t_c; t_d] gave this kernel the relations (1,0,4), (0,1,0),
        # (-1,0,-3) and the reference (1,0,4), (-1,1,-4), (2,0,9): two
        # lists with one span, which is what a kernel's relations fix.
        table = TABLES[0]
        q = Scalar.rational(table, -3, 2)
        dom = PresentedAbelianGroup(
            table, 1, 2, [Relation({}, {0: 1, 1: 1}, "Z"), Relation({}, {0: 1}, "Z")]
        )
        cod = PresentedAbelianGroup(
            table,
            1,
            2,
            [
                Relation({}, {0: 2}, "Z"),
                Relation({}, {0: 1, 1: 2}, "Z"),
                Relation({0: q}, {0: -1, 1: 2}, "Z"),
                Relation({}, {0: -1, 1: 1}, "Z"),
            ],
        )
        h = GroupHom(dom, cod, [{}], [({}, {0: -1, 1: 1}), ({0: q}, {1: 1})])
        check_hom(h)
        assert_same_kernel(_kernel(h), ref_kernel(h))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_preimages_equal_the_reference(self, data) -> None:
        h = _draw_hom(data)
        ref = RefPreimageSystem(h)
        for _ in range(3):
            c, d = _draw_element(data, h.cod, h)
            assert preimage_element(h, c, d) == ref.preimage(c, d)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_factor_through_equals_the_reference(self, data) -> None:
        mono = _draw_hom(data)
        table = mono.dom.table
        # f = mono . s for a random s, so that f factors through mono.
        src = _draw_group(data, table)
        cont, disc = _draw_images(data, src, mono.dom)
        free = PresentedAbelianGroup(table, src.cont_rank, src.disc_rank)
        s = GroupHom(free, mono.dom, cont, disc)
        f = compose(mono, s)
        want = ref_factor_through(f, mono)
        assert want is not None
        assert factor_through(f, mono, check=False) == want
