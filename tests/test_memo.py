"""Memoized algebra: preimage systems, normal forms and kernels are computed once.

The preimage systems, the normal form behind `classify`/`cokernel` and
`kernel` keep bounded caches keyed on immutable values; `smith_normal_form`
keeps none.  These tests pin down that a cached answer is the answer a
fresh computation gives, that the caches stay within their bounds, and
that the public functions stay plain functions (profilers and doctest
discovery rely on that).

The Smith form ``exactnum._smith_normal_form(rows, ncols, inverse)`` is
pinned by its contract, not by its transforms.  It takes sparse rows
``{column: entry}`` and returns any ``(u, d, v, v_inv)`` with
``u a v = diag(d)``, ``u`` and ``v`` unimodular, ``d`` a nonnegative
divisibility chain with its nonzero entries first, and ``v_inv v = I``
when the inverse is asked for.  The dense algorithm it replaced is kept
below as the reference (``reference_snf``, with ``old_int_inverse`` for
``V^-1`` and ``old_int_system_*`` for the integer system on dense rows).
On random matrices and on the sparse shapes the pipelines make, the kernel
must meet the contract with the reference's ``d``, and the integer system
must find a solution exactly when the reference does and span the same
kernel lattice.  Which transforms come back is free; that no report
depends on them is checked by running the pipelines and the oracle once
with the kernel and once with the reference in its place.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from folmod import abgroup, cli, exactnum, foliation, gg, oracle
from folmod.abgroup import (
    GroupHom,
    PresentedAbelianGroup,
    Relation,
    _IntSystem,
    classify,
    cokernel,
    kernel,
)
from folmod.exactnum import IntMatrix, Scalar, SymbolTable, smith_normal_form
from folmod.examples import example_doc
from memo_caches import CACHES, clear_caches
from test_pipeline import L0_SIDE, R0_SIDE, R1_SIDE, _star_doc

# The sha256 of the seed-0 oracle report text.
ORACLE_SEED0_SHA256 = "34782649d621520fd001d257e0c1c47a64a19e3d93f022bc5c556577eef220b5"

TABLE = SymbolTable(["mu"])
ONE = Scalar.one(TABLE)
MU = Scalar.symbol(TABLE, "mu")

def reference_snf(a: IntMatrix):
    """The Smith normal form algorithm as it was before memoization."""
    nrows, ncols = a.nrows, a.ncols
    m = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, q):
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def diagonalize():
        t = 0
        while t < min(nrows, ncols):
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            i, j = best
            if i != t:
                swap_rows(i, t)
            if j != t:
                swap_cols(j, t)
            dirty = False
            for i in range(nrows):
                if i != t and m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t] != 0:
                        dirty = True
            for j in range(ncols):
                if m[t][j] != 0 and j != t:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j] != 0:
                        dirty = True
            if not dirty and all(m[i][t] == 0 for i in range(nrows) if i != t) and all(
                m[t][j] == 0 for j in range(ncols) if j != t
            ):
                t += 1

    diagonalize()
    while True:
        rank = sum(1 for i in range(min(nrows, ncols)) if m[i][i] != 0)
        offender = None
        for i in range(rank - 1):
            if m[i + 1][i + 1] % m[i][i] != 0:
                offender = i
                break
        if offender is None:
            break
        row_op(offender, offender + 1, -1)
        diagonalize()
    for i in range(min(nrows, ncols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    return IntMatrix(u), IntMatrix(m), IntMatrix(v)


def old_int_inverse(rows):
    """Inverse of a unimodular integer matrix by Fraction Gauss-Jordan, as
    the discrete Smith step computed it before the Smith form tracked it."""
    n = len(rows)
    aug = [
        [Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    out = []
    for row in aug:
        tail = row[n:]
        if any(x.denominator != 1 for x in tail):
            raise ValueError("matrix is not unimodular")
        out.append([int(x) for x in tail])
    return out


def sparse_rows(a: IntMatrix) -> List[dict]:
    """The rows of ``a`` as the kernel takes them: ``{column: entry}``."""
    return [{j: x for j, x in enumerate(row) if x} for row in a.rows]


def columns(m: IntMatrix) -> List[dict]:
    """The columns of a square ``m`` as the kernel returns them: ``{row: entry}``."""
    n = m.nrows
    return [{i: m.rows[i][k] for i in range(n) if m.rows[i][k]} for k in range(n)]


def reference_smith_form(rows, ncols: int, inverse: bool = False):
    """``reference_snf`` with the signature of ``exactnum._smith_normal_form``:
    sparse rows in; ``u`` and ``v`` as columns, the diagonal, and the rows
    of ``V^-1`` from ``old_int_inverse`` out."""
    if not rows:
        ident = [{j: 1} for j in range(ncols)]
        return [], [], ident, [dict(c) for c in ident] if inverse else None
    u, d, v = reference_snf(IntMatrix([[row.get(j, 0) for j in range(ncols)] for row in rows]))
    vinv = None
    if inverse:
        vinv = [{j: x for j, x in enumerate(r) if x} for r in old_int_inverse(v.rows)]
    return columns(u), d.diagonal(), columns(v), vinv


def dense(cols: List[dict], n: int) -> List[List[int]]:
    """The ``n``-row matrix whose columns are the sparse ``cols``."""
    return [[col.get(i, 0) for col in cols] for i in range(n)]


def matmul(a: List[List[int]], b: List[List[int]], ncols: int) -> List[List[int]]:
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(ncols)] for row in a]


def assert_smith_contract(a: IntMatrix, want: Optional[List[int]] = None) -> None:
    """The kernel meets its contract on ``a``, with the diagonal ``want``
    (by default the reference's)."""
    n, m = a.nrows, a.ncols
    rows = sparse_rows(a)
    u, d, v, vinv = exactnum._smith_normal_form(rows, m, inverse=True)
    assert rows == sparse_rows(a)  # the input is not modified
    assert d == (reference_snf(a)[1].diagonal() if want is None else want)
    # u a v = diag(d), the nonzero entries first, each dividing the next.
    U, V = dense(u, n), dense(v, m)
    assert matmul(matmul(U, [list(r) for r in a.rows], m), V, m) == [
        [d[i] if i == j else 0 for j in range(m)] for i in range(n)
    ]
    nonzero = [x for x in d if x]
    assert d == nonzero + [0] * (len(d) - len(nonzero))
    assert all(x > 0 for x in nonzero)
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    # u and v are unimodular: each has an integer inverse, and v_inv is v's.
    old_int_inverse(U)
    VI = [[row.get(j, 0) for j in range(m)] for row in vinv]
    assert matmul(VI, V, m) == [[int(i == j) for j in range(m)] for i in range(m)]
    assert VI == old_int_inverse(V)
    # The dense view writes out the same factorization.
    assert smith_normal_form(a) == (
        IntMatrix(U),
        IntMatrix([[d[i] if i == j else 0 for j in range(m)] for i in range(n)]),
        IntMatrix(V),
    )


def old_int_system_solve(a: IntMatrix, b) -> Optional[List[int]]:
    """``_IntSystem.solve`` as it was on the dense rows of ``U`` and ``V``."""
    if not (a.nrows and a.ncols):
        return None if any(b.values()) else [0] * a.ncols
    u, d, v = reference_snf(a)
    bnz = [(k, x) for k, x in b.items() if x]
    diag = d.diagonal()
    ynz = []
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


def old_int_system_nullspace(a: IntMatrix) -> List[List[int]]:
    """``_IntSystem.nullspace`` as it was on the dense rows of ``V``."""
    n = a.ncols
    if not a.nrows:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    _, d, v = reference_snf(a)
    diag = d.diagonal()
    return [[vrow[i] for vrow in v.rows] for i in range(n) if i >= len(diag) or diag[i] == 0]


@st.composite
def int_matrices(draw) -> IntMatrix:
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6)) if nrows else 0
    # Mostly small entries with many zeros and units, as cohomology makes.
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-40, 40))
    return IntMatrix([[draw(entry) for _ in range(ncols)] for _ in range(nrows)])


NONZERO = st.one_of(st.sampled_from([1, -1, 1, -1, 2, -2, 3, 4, 6]), st.integers(-30, 30).filter(bool))


@st.composite
def sparse_matrices(draw) -> IntMatrix:
    """Up to 16 x 16, at least 70% of the entries zero."""
    nrows, ncols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    cells = nrows * ncols
    values = [0] * cells
    for pos in draw(st.lists(st.integers(0, cells - 1), max_size=cells * 3 // 10, unique=True)):
        values[pos] = draw(NONZERO)
    return IntMatrix([values[i * ncols : (i + 1) * ncols] for i in range(nrows)])


@st.composite
def permuted_blocks(draw) -> IntMatrix:
    """A block diagonal matrix with rows and columns permuted: blocks of
    size 1 make a signed permutation, non-unit entries make torsion, and
    coprime diagonal entries such as 2, 3, 5 force repairs."""
    entry = st.sampled_from([0, 1, -1, 2, 3, 5, -6])
    square = st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)
    )
    blocks = draw(st.lists(square, min_size=1, max_size=8))
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at : at + len(row)] = row
        at += len(block)
    rperm, cperm = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return IntMatrix([[rows[rperm[i]][cperm[j]] for j in range(n)] for i in range(n)])


def scalar(draw) -> Scalar:
    c = draw(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), 3]))
    return Scalar.rational(TABLE, c) * (MU if draw(st.booleans()) else ONE)


@st.composite
def homs(draw) -> GroupHom:
    """A hom from a free group onto a quotient of ``C^c (+) Z^d``.

    A free domain makes any choice of images a homomorphism.
    """
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    c, d = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        relations.append(
            Relation(
                dict(enumerate(Scalar.rational(TABLE, draw(st.integers(-2, 2))) for _ in range(c))),
                dict(enumerate(draw(st.integers(-6, 6)) for _ in range(d))),
                "Z",
            )
        )
    cod = PresentedAbelianGroup(TABLE, c, d, relations)
    dom = PresentedAbelianGroup(TABLE, a, b)
    cont = [dict(enumerate(scalar(draw) for _ in range(c))) for _ in range(a)]
    disc = [
        (
            dict(enumerate(Scalar.rational(TABLE, draw(st.integers(-2, 2))) for _ in range(c))),
            dict(enumerate(draw(st.integers(-6, 6)) for _ in range(d))),
        )
        for _ in range(b)
    ]
    return GroupHom(dom, cod, cont, disc)


def copy_hom(h: GroupHom) -> GroupHom:
    """An equal hom built from scratch, sharing no object with ``h``."""
    dom = PresentedAbelianGroup.from_json(json.loads(json.dumps(h.dom.to_json())))
    cod = PresentedAbelianGroup.from_json(json.loads(json.dumps(h.cod.to_json())))
    return GroupHom.from_json(dom, cod, json.loads(json.dumps(h.to_json())))


class TestSmithNormalForm:
    @settings(deadline=None, max_examples=300)
    @given(int_matrices())
    def test_matches_reference_algorithm(self, a: IntMatrix) -> None:
        assert_smith_contract(a)

    @settings(deadline=None, max_examples=100)
    @given(int_matrices())
    def test_tracks_the_inverse_of_v(self, a: IntMatrix) -> None:
        _, d, v, vinv = exactnum._smith_normal_form(sparse_rows(a), a.ncols, inverse=True)
        V = dense(v, a.ncols)
        assert [[row.get(j, 0) for j in range(a.ncols)] for row in vinv] == old_int_inverse(V)
        _, d2, _, none = exactnum._smith_normal_form(sparse_rows(a), a.ncols)
        assert (d2, none) == (d, None)  # no inverse unless asked

    def test_matches_reference_on_a_divisibility_repair(self) -> None:
        a = IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert_smith_contract(a, [1, 1, 30])

    @settings(deadline=None, max_examples=100)
    @given(sparse_matrices())
    def test_matches_reference_on_sparse_matrices(self, a: IntMatrix) -> None:
        assert_smith_contract(a)

    @settings(deadline=None, max_examples=60)
    @given(permuted_blocks())
    def test_matches_reference_on_permuted_blocks(self, a: IntMatrix) -> None:
        assert_smith_contract(a)

    @pytest.mark.parametrize(
        "diagonal", [(2, 3, 5), (6, 4), (2, 3, 5, 7, 11), (-2, 0, 3), (4, 2, 1, 9, 3)]
    )
    def test_matches_reference_on_repairs(self, diagonal) -> None:
        n = len(diagonal) + 2
        rows = [[0] * n for _ in range(n - 1)]
        for i, x in enumerate(diagonal):
            rows[i][n - 1 - i] = x
        assert_smith_contract(IntMatrix(rows))

    def test_repairs_a_diagonal_of_forty_primes(self) -> None:
        # Every pair of diagonal entries is coprime, so the chain takes 39
        # repairs down to 1, ..., 1, the product of the primes.  The dense
        # reference replays its elimination after each; its d is known.
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:40]
        rows = [[p if j == 39 - i else 0 for j in range(40)] for i, p in enumerate(primes)]
        product = 1
        for p in primes:
            product *= p
        assert_smith_contract(IntMatrix(rows), [1] * 39 + [product])

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(int_matrices(), sparse_matrices(), permuted_blocks()), st.data())
    def test_int_system_equals_the_dense_rows(self, a: IntMatrix, data) -> None:
        if a.nrows and a.ncols and data.draw(st.booleans()):
            y = [data.draw(st.integers(-3, 3)) for _ in range(a.ncols)]
            b = {i: sum(x * z for x, z in zip(row, y)) for i, row in enumerate(a.rows)}
        else:
            b = {i: data.draw(st.sampled_from([0, 0, 1, -2, 6])) for i in range(a.nrows)}
        system = _IntSystem(sparse_rows(a), a.ncols)
        got, want = system.solve(b), old_int_system_solve(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert [sum(row[j] * z for j, z in got.items()) for row in a.rows] == [
                b[i] for i in range(a.nrows)
            ]
        kernel_rows = [[y.get(j, 0) for j in range(a.ncols)] for y in system.nullspace()]
        assert abgroup._hnf_rows(kernel_rows) == abgroup._hnf_rows(old_int_system_nullspace(a))


def _report_bytes(tmp_path, capsys, seeds) -> dict:
    """From cold caches, the exit code, stdout and stderr of `folmod moduli
    --format json` on examples 0-6, the benchmark's seed-0 geodesics, the
    seed-0 geodesics of 17 and 33 joints and the stars, and the text of the
    oracle at ``seeds``."""
    geo = _geodesic_module()
    docs = {f"example {n}": example_doc(n) for n in range(7)}
    for k in (3, 5, 9, 17, 33):
        docs[f"geodesic {k}"] = geo.geodesic_doc(geo.chain_periods(k, random.Random(f"geodesic-0-{k}")))
    for center in (0, 5):
        docs[f"R0 star {center}"] = _star_doc(center, R0_SIDE)
        docs[f"L0 star {center}"] = _star_doc(center, L0_SIDE)
        docs[f"R1 star {center}"] = _star_doc(center, R1_SIDE, ("-3", "-5", "-7"))
        docs[f"symbolic R1 star {center}"] = _star_doc(center, R1_SIDE, ("a", "b", "a*b"))
    clear_caches()
    out = {}
    for name, doc in docs.items():
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            code = cli.main(["moduli", str(path), "--format", "json"])
        except SystemExit as done:
            code = done.code
        out[name] = (code, *capsys.readouterr())
    for seed in seeds:
        out[f"oracle {seed}"] = oracle.run_oracle(seed=seed).text()
    return out


def test_reports_do_not_depend_on_the_smith_transforms(tmp_path, capsys, monkeypatch) -> None:
    # The kernel's seed-0 oracle text is pinned by its sha256, which
    # test_caches_stay_bounded_after_the_oracle checks; it is not run again.
    kernel_bytes = _report_bytes(tmp_path, capsys, (7,))
    kernel, calls = exactnum._smith_normal_form, 0

    def reference(*args, **kwargs):
        nonlocal calls
        calls += 1
        return reference_smith_form(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "folmod" or name.startswith("folmod."):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, reference)
    reference_bytes = _report_bytes(tmp_path, capsys, (0, 7))
    monkeypatch.undo()
    clear_caches()
    assert calls > 1000  # the oracle alone asks for thousands
    seed0 = reference_bytes.pop("oracle 0")
    assert hashlib.sha256(seed0.encode()).hexdigest() == ORACLE_SEED0_SHA256
    assert reference_bytes == kernel_bytes


class TestMemoizedResults:
    @settings(deadline=None, max_examples=60)
    @given(homs())
    def test_cached_equals_recomputed(self, h: GroupHom) -> None:
        ker, cok, rep = kernel(h), cokernel(h), classify(h.cod)
        same = copy_hom(h)
        assert kernel(same) is ker
        assert classify(same.cod) is rep
        assert abgroup._system_of(same) is abgroup._system_of(h)
        clear_caches()
        ker2, cok2, rep2 = kernel(h), cokernel(h), classify(h.cod)
        assert ker2 is not ker
        assert (ker2, cok2) == (ker, cok)
        assert rep2 == rep and rep2.group == rep.group

    def test_a_span_is_the_system_of_a_map_with_no_generators(self) -> None:
        torus = PresentedAbelianGroup.lattice_quotient(TABLE, [ONE, MU])
        again = PresentedAbelianGroup.lattice_quotient(TABLE, [ONE, MU])
        h = GroupHom(PresentedAbelianGroup.trivial(TABLE), again)
        assert abgroup._system_of(h) is abgroup._span_of(torus)

    def test_symbolic_kernel(self) -> None:
        torus = PresentedAbelianGroup.lattice_quotient(TABLE, [ONE, MU])
        h = GroupHom(PresentedAbelianGroup.free_cont(TABLE, 1), torus, [{0: ONE}])
        ker = kernel(h)
        clear_caches()
        assert kernel(copy_hom(h)) == ker
        assert classify(ker.group).text() == "Z^2"

    @settings(deadline=None, max_examples=60)
    @given(homs())
    def test_equal_homs_hash_equal(self, h: GroupHom) -> None:
        same = copy_hom(h)
        assert same == h and same is not h
        assert hash(same) == hash(h)
        assert hash(same.dom) == hash(h.dom) and hash(same.cod) == hash(h.cod)

    def test_equal_scalars_hash_equal(self) -> None:
        half = Scalar.rational(TABLE, 1, 2)
        assert hash(MU / (MU + MU)) == hash(half)
        assert hash((MU * MU - ONE) / (MU + ONE)) == hash(MU - ONE)


def test_caches_stay_bounded_after_the_oracle() -> None:
    report = oracle.run_oracle(seed=0)
    assert report.ok
    assert hashlib.sha256(report.text().encode()).hexdigest() == ORACLE_SEED0_SHA256
    for cache, bound in CACHES:
        info = cache.cache_info()
        assert info.maxsize == bound
        assert 0 < info.currsize <= bound


def test_clear_caches_empties_every_memo() -> None:
    oracle.run_oracle(seed=0, runs=2)
    clear_caches()
    sizes = {
        f"{name}.{attr}": value.cache_info().currsize
        for name, module in sorted(sys.modules.items())
        if name.startswith("folmod.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_clear")
    }
    assert len(sizes) >= len(CACHES) + 7
    assert sizes == dict.fromkeys(sizes, 0)


@pytest.mark.parametrize("module", [exactnum, abgroup, gg, foliation, oracle, cli])
def test_public_callables_are_plain_functions(module) -> None:
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type):
            assert inspect.isfunction(obj), f"{module.__name__}.{name}"


def _geodesic_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "geodesic.py"
    spec = importlib.util.spec_from_file_location("perfbench_geodesic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_k17_geodesic_moduli(tmp_path, capsys) -> None:
    geo = _geodesic_module()
    periods = geo.chain_periods(17, random.Random("geodesic-0-17"))
    path = tmp_path / "k17.json"
    path.write_text(json.dumps(geo.geodesic_doc(periods)), encoding="utf-8")
    code = cli.main(["moduli", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want = geo.expected_moduli_text(periods)
    assert payload["agree"] is True
    assert [p["moduli"]["text"] for p in payload["pipelines"]] == [want, want]
