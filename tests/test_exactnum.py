"""Exact scalar arithmetic, rank computation and Smith normal form."""

from __future__ import annotations

import contextlib
import itertools
import math
import signal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from folmod import exactnum
from folmod.abgroup import _signnorm
from folmod.exactnum import (
    IntMatrix,
    Scalar,
    SymbolTable,
    monomial_expansion,
    monomial_vectors,
    smith_normal_form,
)
from folmod.foliation import parse_scalar

TABLE = SymbolTable(["mu", "tau_i"])


def sym(name: str) -> Scalar:
    return Scalar.symbol(TABLE, name)


def rat(p: int, q: int = 1) -> Scalar:
    return Scalar.rational(TABLE, p, q)


@st.composite
def scalars(draw) -> Scalar:
    acc = Scalar.zero(TABLE)
    for _ in range(draw(st.integers(0, 3))):
        term = rat(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        for name in ("mu", "tau_i"):
            for _ in range(draw(st.integers(0, 2))):
                term = term * sym(name)
        acc = acc + term
    return acc


def int_matrices(max_dim: int = 4, max_abs: int = 9):
    side = st.integers(1, max_dim)
    return side.flatmap(
        lambda n: side.flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-max_abs, max_abs), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


def _det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination: the unimodularity
    oracle for the Smith form's transforms."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _mul(*matrices: IntMatrix) -> IntMatrix:
    """The product of integer matrices."""
    out = matrices[0].rows
    for b in matrices[1:]:
        cols = list(zip(*b.rows))
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in out]
    return IntMatrix(out)


def determinantal_invariants(rows: list) -> list:
    """Invariant factors via gcds of k-by-k minors (textbook definition)."""
    m, n = len(rows), len(rows[0])
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                g = math.gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


class TestScalar:
    def test_construction_and_str(self) -> None:
        assert str(Scalar.zero(TABLE)) == "0"
        assert str(Scalar.one(TABLE)) == "1"
        assert str(rat(-3, 2)) == "-3/2"
        assert str(sym("mu") + rat(1)) == "mu + 1"
        assert str(sym("mu") * sym("tau_i") * rat(2)) == "2*mu*tau_i"

    def test_division_renders_fraction(self) -> None:
        q = (sym("mu") + rat(1)) / rat(2)
        assert str(q) == "1/2*mu + 1/2"
        q = rat(1) / (sym("mu") + rat(1))
        assert str(q) == "(1)/(mu + 1)"

    def test_as_fraction(self) -> None:
        assert rat(6, 4).rat == Fraction(3, 2)
        assert rat(6, 4).is_rational() and not sym("mu").is_rational()

    @pytest.mark.parametrize("args", [(0.1,), (1, 0.5), (True,), (1, True), (2.0,), ("1",)])
    def test_rational_refuses_anything_but_ints_and_fractions(self, args: tuple) -> None:
        # Scalar.rational(t, 0.1) once became 3602879701896397/36028797018963968.
        with pytest.raises(TypeError):
            rat(*args)

    @pytest.mark.parametrize("c", [0.5, 2.0, True, False, None])
    def test_scale_refuses_anything_but_ints_and_fractions(self, c: object) -> None:
        for s in (sym("mu"), rat(3), Scalar.zero(TABLE)):
            with pytest.raises(TypeError):
                s.scale(c)

    def test_table_mismatch_rejected(self) -> None:
        other = SymbolTable(["mu"])
        with pytest.raises(Exception):
            sym("mu") + Scalar.symbol(other, "mu")

    # a + b == b + a and a * b == b * a
    @settings(deadline=None)
    @given(scalars(), scalars())
    def test_commutativity(self, a: Scalar, b: Scalar) -> None:
        assert a + b == b + a
        assert a * b == b * a

    # (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    @settings(deadline=None)
    @given(scalars(), scalars(), scalars())
    def test_associativity(self, a: Scalar, b: Scalar, c: Scalar) -> None:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    # a * (b + c) == a * b + a * c
    @settings(deadline=None)
    @given(scalars(), scalars(), scalars())
    def test_distributivity(self, a: Scalar, b: Scalar, c: Scalar) -> None:
        assert a * (b + c) == a * b + a * c

    # a - a == 0 and (a / b) * b == a for b != 0
    @settings(deadline=None)
    @given(scalars(), scalars())
    def test_inverses(self, a: Scalar, b: Scalar) -> None:
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a

    # scaling by a rational agrees with multiplication by that rational
    @settings(deadline=None)
    @given(scalars(), st.integers(-4, 4), st.integers(1, 4))
    def test_scale(self, a: Scalar, p: int, q: int) -> None:
        assert a.scale(Fraction(p, q)) == a * rat(p, q)

    # serialization round-trips exactly, including the rendered text
    @settings(deadline=None)
    @given(scalars())
    def test_json_round_trip(self, a: Scalar) -> None:
        back = Scalar.from_json(TABLE, a.to_json())
        assert back == a
        assert str(back) == str(a)

    # every scalar is the stated combination of its monomial basis
    @settings(deadline=None)
    @given(st.lists(scalars(), min_size=1, max_size=4))
    def test_monomial_expansion_reconstructs(self, sc: list) -> None:
        vectors, basis = monomial_expansion(sc)
        for s, vec in zip(sc, vectors):
            acc = Scalar.zero(TABLE)
            for f, b in zip(vec, basis):
                if f:
                    acc = acc + b.scale(f)
            assert acc == s


class TestIntMatrix:
    def test_ops(self) -> None:
        a = IntMatrix([[1, 2], [3, 4]])
        assert (a.nrows, a.ncols, a.diagonal()) == (2, 2, [1, 4])
        assert _det(a.rows) == -2
        assert _mul(a, IntMatrix([[1, 0], [0, 1]])) == a

    def test_ragged_rejected(self) -> None:
        with pytest.raises(ValueError):
            IntMatrix([[1], [2, 3]])

    def test_equal_rows_are_one_key(self) -> None:
        # A matrix is an immutable value: equal rows, equal matrices, one hash.
        a = IntMatrix([[5, -7], [0, 11]])
        b = IntMatrix(((5, -7), (0, 11)))
        assert a == b and hash(a) == hash(b)
        assert a != IntMatrix([[5, -7], [11, 0]])


class TestSmithNormalForm:
    def test_known_forms(self) -> None:
        _, d, _ = smith_normal_form(IntMatrix([[2, 0], [0, 4]]))
        assert d.diagonal() == [2, 4]
        _, d, _ = smith_normal_form(IntMatrix([[1, 2], [3, 4]]))
        assert d.diagonal() == [1, 2]
        a = IntMatrix([[2, 4], [6, 8]])
        u, d, v = smith_normal_form(a)
        assert d.diagonal() == [2, 4]
        assert _mul(u, a, v) == d
        assert (abs(_det(u.rows)), abs(_det(v.rows))) == (1, 1)
        _, d, _ = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
        assert d.diagonal() == [0, 0]

    # U A V == D with U, V unimodular and the diagonal a divisibility chain
    @settings(deadline=None, max_examples=60)
    @given(int_matrices())
    def test_snf_properties(self, rows: list) -> None:
        a = IntMatrix(rows)
        u, d, v = smith_normal_form(a)
        assert _mul(u, a, v) == d
        assert abs(_det(u.rows)) == 1
        assert abs(_det(v.rows)) == 1
        diag = d.diagonal()
        for i in range(len(diag)):
            for j in range(len(d.rows)):
                for k in range(len(d.rows[0])):
                    if j != k:
                        assert d.rows[j][k] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert diag[len(nonzero) :] == [0] * (len(diag) - len(nonzero))

    # the diagonal equals the gcd-of-minors invariant factors
    @settings(deadline=None, max_examples=40)
    @given(int_matrices(max_dim=3, max_abs=6))
    def test_snf_matches_determinantal_divisors(self, rows: list) -> None:
        _, d, _ = smith_normal_form(IntMatrix(rows))
        nonzero = [x for x in d.diagonal() if x]
        assert nonzero == determinantal_invariants(rows)


class TestMonomialVectors:
    def test_alignment(self) -> None:
        one, mu, tau = Scalar.one(TABLE), sym("mu"), sym("tau_i")
        vecs, monos, den = monomial_vectors([one + mu, tau])
        assert len(monos) == 3 and den == {(0, 0): 1}
        assert len(vecs) == 2
        assert len(vecs[0]) == len(vecs[1]) == 3
        assert sum(1 for x in vecs[0] if x) == 2
        assert sum(1 for x in vecs[1] if x) == 1


# Raw Scalar inputs ``(rat, num, den)``: the polynomials are the internal
# ``{exponent tuple: Fraction}`` dicts that ``Scalar.__init__`` normalizes.
# Numerators and denominators are constant about half the time, so both the
# rational fast path and the general polynomial path run.
RAW_TABLES = {0: SymbolTable([]), 1: SymbolTable(["mu"]), 2: TABLE}

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def raw_polys(draw, width: int, nonzero: bool = False) -> dict:
    if width == 0 or draw(st.booleans()):
        c = draw(coefficients.filter(bool) if nonzero else coefficients)
        return {(0,) * width: c} if c else {}
    monos = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * width), min_size=1, max_size=3, unique=True)
    )
    out = {m: c for m in monos if (c := draw(coefficients))}
    if nonzero and not out:
        out[monos[0]] = Fraction(1)
    return out


@st.composite
def raw_scalar_lists(draw, max_size: int) -> tuple:
    """``(table, [(rat, num, den), ...])`` over one table, ``den`` nonzero."""
    width = draw(st.sampled_from(sorted(RAW_TABLES)))
    raw = st.tuples(coefficients, raw_polys(width), raw_polys(width, nonzero=True))
    return RAW_TABLES[width], draw(st.lists(raw, min_size=1, max_size=max_size))


def _to_sympy(poly: dict, table: SymbolTable):
    syms = sympy.symbols(table.names) if len(table) else ()
    total = sympy.Integer(0)
    for mono, c in poly.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(syms, mono):
            term *= x**e
        total += term
    return total


def _scalar_to_sympy(s: Scalar):
    rat = sympy.Rational(s.rat.numerator, s.rat.denominator)
    return rat * _to_sympy(s.num, s.table) / _to_sympy(s.den, s.table)


def _is_primitive_positive(poly: dict) -> bool:
    """Integer coefficients with gcd 1 and a positive graded-lex leading one."""
    if any(c.denominator != 1 for c in poly.values()):
        return False
    if math.gcd(*(c.numerator for c in poly.values())) != 1:
        return False
    leading = max(poly, key=lambda m: (sum(m), m))
    return poly[leading] > 0


class TestNormalForm:
    """``Scalar(table, rat, num, den)`` against ``sympy.cancel``."""

    @settings(deadline=None)
    @given(raw_scalar_lists(max_size=1))
    def test_matches_sympy_cancel(self, data: tuple) -> None:
        table, [(r, num, den)] = data
        s = Scalar(table, r, num, den)
        expected = sympy.cancel(
            sympy.Rational(r.numerator, r.denominator)
            * _to_sympy(num, table)
            / _to_sympy(den, table)
        )
        assert sympy.cancel(_scalar_to_sympy(s) - expected) == 0
        assert _is_primitive_positive(s.num) and _is_primitive_positive(s.den)
        assert sympy.gcd(_to_sympy(s.num, table), _to_sympy(s.den, table)) == 1
        unit = {(0,) * len(table): Fraction(1)}
        if expected.is_Rational:
            assert s.num == s.den == unit
            assert s.rat == Fraction(int(expected.p), int(expected.q))
            assert s.is_rational()
        else:
            assert not s.is_rational()
        assert s.is_polynomial() == (s.den == unit)

    @settings(deadline=None)
    @given(raw_scalar_lists(max_size=4))
    def test_monomial_expansion_recomposes_mixed_denominators(self, data: tuple) -> None:
        table, raws = data
        sc = [Scalar(table, r, num, den) for r, num, den in raws]
        vectors, basis = monomial_expansion(sc)
        shown = [_scalar_to_sympy(b) for b in basis]
        for s, vec in zip(sc, vectors):
            acc = sum(sympy.Rational(f.numerator, f.denominator) * b for f, b in zip(vec, shown))
            assert sympy.cancel(acc - _scalar_to_sympy(s)) == 0

    # the structural sign rule of the lattice display agrees with the
    # rendered-text rule it replaced
    @settings(deadline=None)
    @given(raw_scalar_lists(max_size=1))
    def test_signnorm_matches_rendered_sign(self, data: tuple) -> None:
        table, [(r, num, den)] = data
        s = Scalar(table, r, num, den)
        assert _signnorm(s) == (-s if str(s).startswith("-") else s)


# ---------------------------------------------------------------------------
# The stored representation: int coefficients, content 1, positive lead
# ---------------------------------------------------------------------------

WIDE_TABLES = {width: SymbolTable(["x", "y", "z"][:width]) for width in (1, 2, 3)}

# Operands whose total degrees sum past this are not combined: twice the
# total degree that ``json_polys`` draws.
MAX_DRAWN_DEGREE = 12


def _leading(poly: dict) -> tuple:
    return max(poly, key=lambda m: (sum(m), m))


def _assert_stored_form(s: Scalar) -> None:
    # The rational content is an int when integral, otherwise a Fraction
    # with a denominator above 1, and zero is the one interned Fraction(0).
    if s.rat == 0:
        assert s.rat is exactnum._ZERO
    else:
        assert type(s.rat) is int or (type(s.rat) is Fraction and s.rat.denominator > 1)
    for poly in (s.num, s.den):
        assert poly and all(type(c) is int for c in poly.values())
        assert math.gcd(*poly.values()) == 1
        assert poly[_leading(poly)] > 0


@st.composite
def computed_scalars(draw) -> list:
    """Every Scalar of a short random computation over a table of width 1-3."""
    table = WIDE_TABLES[draw(st.sampled_from(sorted(WIDE_TABLES)))]
    pool = [Scalar.symbol(table, name) for name in table.names]
    pool += [Scalar.rational(table, draw(st.integers(-6, 6)), draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(1, 8))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["+", "-", "*", "/", "neg", "scale"]))
        if a.total_degree() + b.total_degree() > MAX_DRAWN_DEGREE:
            continue
        if op == "+":
            pool.append(a + b)
        elif op == "-":
            pool.append(a - b)
        elif op == "*":
            pool.append(a * b)
        elif op == "/" and not b.is_zero():
            pool.append(a / b)
        elif op == "neg":
            pool.append(-a)
        elif op == "scale":
            pool.append(a.scale(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))))
    return pool


@st.composite
def json_polys(draw, width: int) -> list:
    """``[[exponents, [p, q]], ...]`` with coefficients that are mostly not
    integers, of total degree at most 6; may be empty."""
    monos = draw(
        st.lists(
            st.tuples(*[st.integers(0, 6)] * width).filter(lambda m: sum(m) <= 6),
            max_size=4,
            unique=True,
        )
    )
    return [
        [list(m), [draw(st.integers(-12, 12)), draw(st.sampled_from([1, 2, 3, 4, 6, -6]))]]
        for m in monos
    ]


class TestStoredForm:
    @settings(deadline=None)
    @given(computed_scalars())
    def test_arithmetic_stores_primitive_int_polynomials(self, pool: list) -> None:
        for s in pool:
            _assert_stored_form(s)

    @settings(deadline=None)
    @given(st.data())
    def test_from_json_clears_fraction_coefficients(self, data) -> None:
        table = WIDE_TABLES[data.draw(st.sampled_from(sorted(WIDE_TABLES)))]
        width = len(table)
        num = data.draw(json_polys(width))
        den = data.draw(json_polys(width).filter(lambda p: any(c[0] for _, c in p)))
        rat = [data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 5))]
        s = Scalar.from_json(table, {"rat": rat, "num": num, "den": den})
        _assert_stored_form(s)
        value = sympy.Rational(*rat) * _to_sympy(_poly_of_json(num), table)
        value = value / _to_sympy(_poly_of_json(den), table)
        assert sympy.cancel(_scalar_to_sympy(s) - value) == 0
        back = Scalar.from_json(table, s.to_json())
        assert back == s and str(back) == str(s) and hash(back) == hash(s)

    @settings(deadline=None)
    @given(computed_scalars(), st.integers(-12, 12), st.integers(-12, 12).filter(bool))
    def test_no_rat_is_a_float_and_integral_quotients_are_ints(
        self, pool: list, p: int, q: int
    ) -> None:
        for s in pool:
            assert type(s.rat) in (int, Fraction)
        table = pool[0].table
        integral = [s for s in pool if s.is_rational() and type(s.rat) is int]
        integral += [Scalar.rational(table, p), Scalar.rational(table, q)]
        for a, b in itertools.product(integral, repeat=2):
            if b.is_zero() or a.is_zero():
                continue
            quotient = a / b
            assert quotient.rat == Fraction(a.rat, b.rat)
            assert (type(quotient.rat) is int) == (a.rat % b.rat == 0)

    def test_a_product_with_the_unit_shares_the_other_factor(self) -> None:
        table = WIDE_TABLES[2]
        x, y = Scalar.symbol(table, "x"), Scalar.symbol(table, "y")
        p = x * y + Scalar.one(table)
        unit = table._unit
        assert exactnum._p_mul(unit, p.num) is p.num
        assert exactnum._p_mul(p.num, unit) is p.num
        assert (p * Scalar.rational(table, 3)).num is p.num
        assert p.scale(Fraction(-2, 5)).num is p.num
        assert (Scalar.one(table) / p).den is p.num


def _poly_of_json(data: list) -> dict:
    return {tuple(m): Fraction(*c) for m, c in data if c[0]}


# ---------------------------------------------------------------------------
# Reference implementations: the Fraction-coefficient kernel the int one
# replaced, with a Fraction per monomial
# ---------------------------------------------------------------------------


def _frac_poly(a: dict) -> dict:
    return {m: Fraction(c) for m, c in a.items()}


def _ref_frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator),
    )


def ref_p_content(a: dict) -> Fraction:
    """Positive rational content, signed by the graded-lex leading coefficient."""
    if not a:
        return Fraction(0)
    c = Fraction(0)
    for v in a.values():
        c = _ref_frac_gcd(c, abs(v))
    if a[_leading(a)] < 0:
        c = -c
    return c


def ref_p_primitive(a: dict) -> tuple:
    if not a:
        return Fraction(0), {}
    c = ref_p_content(a)
    if c == 1:
        return c, a
    return c, {m: v / c for m, v in a.items()}


def ref_p_div_exact(a: dict, b: dict) -> dict:
    """Exact division over Q; raises if ``b`` does not divide ``a``."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lm_b = _leading(b)
    lc_b = b[lm_b]
    r = dict(a)
    q: dict = {}
    while r:
        lm_r = _leading(r)
        mono = tuple(x - y for x, y in zip(lm_r, lm_b))
        if any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        c = r[lm_r] / lc_b
        q[mono] = q.get(mono, Fraction(0)) + c
        for m, v in b.items():
            m = tuple(x + y for x, y in zip(mono, m))
            s = r.get(m, Fraction(0)) - c * v
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return q


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def ref_monomial_expansion(scalars: list) -> tuple:
    """Vectors and basis of ``monomial_expansion`` with Fraction polynomials."""
    table = scalars[0].table
    unit = table._unit
    den = _frac_poly(unit)
    for s in scalars:
        if s.den is unit:
            continue
        g = exactnum._p_gcd({m: int(c) for m, c in den.items()}, s.den)
        den = _ref_mul(den, ref_p_div_exact(_frac_poly(s.den), _frac_poly(g)))
    vectors = []
    for s in scalars:
        cofactor = _ref_mul(_frac_poly(s.num), ref_p_div_exact(den, _frac_poly(s.den)))
        vectors.append({m: v * s.rat for m, v in cofactor.items()} if s.rat else {})
    monos = sorted({m for v in vectors for m in v})
    basis = [Scalar(table, Fraction(1), {m: Fraction(1)}, den) for m in monos]
    return [[v.get(m, Fraction(0)) for m in monos] for v in vectors], basis


@st.composite
def int_polys(draw, width: int) -> dict:
    monos = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * width), min_size=1, max_size=4, unique=True)
    )
    return {m: c for m in monos if (c := draw(st.integers(-9, 9)))}


class TestAgainstTheFractionKernel:
    @settings(deadline=None)
    @given(st.data())
    def test_primitive_part_and_content(self, data) -> None:
        width = data.draw(st.integers(1, 3))
        a = data.draw(st.one_of(int_polys(width), raw_polys(width)))
        content, prim = exactnum._p_primitive(a)
        want_content, want_prim = ref_p_primitive(_frac_poly(a))
        assert content == want_content and prim == want_prim
        assert all(type(c) is int for c in prim.values())
        if all(type(c) is int for c in a.values()):
            assert type(content) is int
            if content == 1:
                assert prim is a

    @settings(deadline=None)
    @given(st.data())
    def test_exact_division(self, data) -> None:
        width = data.draw(st.integers(1, 3))
        a = data.draw(int_polys(width))
        b = exactnum._p_primitive(data.draw(int_polys(width)))[1]
        if not b:
            return
        extra = data.draw(st.one_of(st.just({}), int_polys(width)))
        dividend = exactnum._p_add(exactnum._p_mul(a, b), extra)
        try:
            want = ref_p_div_exact(_frac_poly(dividend), _frac_poly(b))
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                exactnum._p_div_exact(dividend, b)
            return
        got = exactnum._p_div_exact(dividend, b)
        assert got == want
        assert all(type(c) is int for c in got.values())

    @settings(deadline=None)
    @given(raw_scalar_lists(max_size=4))
    def test_monomial_expansion(self, data: tuple) -> None:
        table, raws = data
        if not len(table):
            return
        sc = [Scalar(table, r, num, den) for r, num, den in raws]
        vectors, basis = monomial_expansion(sc)
        want_vectors, want_basis = ref_monomial_expansion(sc)
        assert vectors == want_vectors and basis == want_basis
        assert all(type(f) is Fraction for vec in vectors for f in vec)
        assert monomial_vectors(sc)[0] == want_vectors


# ---------------------------------------------------------------------------
# The polynomial gcd and its two general steps, against sympy
# ---------------------------------------------------------------------------


@st.composite
def bounded_polys(draw, width: int, degree: int) -> dict:
    """A nonzero int polynomial of total degree at most ``degree``."""
    monos = draw(
        st.lists(
            st.tuples(*[st.integers(0, degree)] * width).filter(lambda m: sum(m) <= degree),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    out = {m: c for m in monos if (c := draw(st.integers(-9, 9)))}
    return out or {monos[0]: 1}


@st.composite
def planted_pairs(draw) -> tuple:
    """``(width, a * c, b * c)`` with a planted common factor ``c`` and a
    total degree of at most 6."""
    width = draw(st.integers(1, 3))
    deg_c = draw(st.integers(0, 3))
    rest = 6 - deg_c
    c = draw(bounded_polys(width, deg_c))
    a = draw(bounded_polys(width, draw(st.integers(0, rest))))
    b = draw(bounded_polys(width, draw(st.integers(0, rest))))
    return width, exactnum._p_mul(a, c), exactnum._p_mul(b, c)


@st.composite
def monomial_pairs(draw) -> tuple:
    """``(width, monomial, polynomial)``, in either order."""
    width = draw(st.integers(1, 3))
    mono = draw(st.tuples(*[st.integers(0, 3)] * width))
    coefficient = draw(st.integers(-9, 9).filter(bool))
    poly = draw(bounded_polys(width, 6))
    pair = ({mono: coefficient}, poly)
    return (width,) + (pair if draw(st.booleans()) else pair[::-1])


def _normalized(poly: dict) -> dict:
    """The primitive part with a positive graded-lex leading coefficient."""
    content = math.gcd(*poly.values())
    if poly[_leading(poly)] < 0:
        content = -content
    return {m: c // content for m, c in poly.items()}


def _sympy_gcd(width: int, a: dict, b: dict) -> dict:
    gens = sympy.symbols(f"x:{width}")
    g = sympy.gcd(sympy.Poly.from_dict(a, *gens), sympy.Poly.from_dict(b, *gens))
    return {tuple(m): int(c) for m, c in g.as_dict().items()}


class TestGcd:
    @settings(deadline=None)
    @given(st.one_of(planted_pairs(), monomial_pairs()))
    def test_gcd_matches_sympy(self, data: tuple) -> None:
        width, a, b = data
        g = exactnum._p_gcd(a, b)
        assert g == _normalized(_sympy_gcd(width, a, b))
        assert all(type(c) is int for c in g.values())
        if exactnum._p_is_const(g):
            assert g is exactnum._p_unit(width)

    # the heuristic gcd keeps the integer content; it may give up
    @settings(deadline=None)
    @given(planted_pairs())
    def test_heuristic_gcd_matches_sympy(self, data: tuple) -> None:
        width, a, b = data
        g = exactnum._p_heugcd(a, b)
        if g is not None:
            want = _sympy_gcd(width, a, b)
            assert g in (want, {m: -c for m, c in want.items()})

    # the modular gcd takes primitive polynomials
    @settings(deadline=None)
    @given(st.one_of(planted_pairs(), monomial_pairs()))
    def test_modular_gcd_matches_sympy(self, data: tuple) -> None:
        width, a, b = data
        a, b = exactnum._p_primitive(a)[1], exactnum._p_primitive(b)[1]
        g = exactnum._p_modgcd(a, b)
        assert _normalized(g) == _normalized(_sympy_gcd(width, a, b))

    @settings(deadline=None, max_examples=50)
    @given(planted_pairs())
    def test_gcd_falls_back_to_the_modular_gcd(self, data: tuple) -> None:
        width, a, b = data
        want = _normalized(_sympy_gcd(width, a, b))
        original = exactnum._p_heugcd
        exactnum._p_heugcd = lambda f, g: None
        try:
            assert exactnum._p_gcd(a, b) == want
        finally:
            exactnum._p_heugcd = original


@contextlib.contextmanager
def _within(seconds: float):
    """Fail with TimeoutError once ``seconds`` of wall-clock time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _grlex_descending(poly: dict) -> bool:
    keys = [(sum(m), m) for m in poly]
    return keys == sorted(keys, reverse=True)


class TestExactDivision:
    """``_p_div_exact`` against ``_p_mul`` round trips and sympy's division."""

    @settings(deadline=None)
    @given(st.one_of(planted_pairs(), monomial_pairs()))
    def test_a_product_divides_back_to_its_factor(self, data: tuple) -> None:
        _, a, b = data
        for f, g in ((a, b), (b, a)):
            q = exactnum._p_div_exact(exactnum._p_mul(f, g), g)
            assert q == f and _grlex_descending(q)

    @settings(deadline=None)
    @given(st.one_of(planted_pairs(), monomial_pairs()), st.sampled_from([2, 3, 101]))
    def test_a_product_divides_back_modulo_a_prime(self, data: tuple, p: int) -> None:
        _, a, b = data
        a, b = exactnum._p_mod(a, p), exactnum._p_mod(b, p)
        if a and b:
            product = exactnum._p_mod(exactnum._p_mul(a, b), p)
            assert exactnum._p_div_exact(product, b, p) == a

    @settings(deadline=None)
    @given(st.data())
    def test_a_quotient_exists_exactly_when_sympy_finds_one(self, data) -> None:
        # A multiple, perturbed or not: the division is exact iff sympy's
        # division over Q leaves no remainder and an integer quotient.
        width = data.draw(st.integers(1, 3))
        a, b = data.draw(bounded_polys(width, 5)), data.draw(bounded_polys(width, 3))
        extra = data.draw(st.just({}) | bounded_polys(width, 4))
        f = exactnum._p_add(exactnum._p_mul(a, b), extra)
        if not f:
            return
        gens = sympy.symbols(f"x:{width}")
        poly = lambda d: sympy.Poly.from_dict(dict(d), *gens, domain="QQ")  # it converts in place
        q, r = sympy.div(poly(f), poly(b))
        want = {tuple(m): c for m, c in q.as_dict().items()}
        if r.is_zero and all(c.is_integer for c in want.values()):
            assert exactnum._p_div_exact(f, b) == {m: int(c) for m, c in want.items()}
        else:
            with pytest.raises(ArithmeticError):
                exactnum._p_div_exact(f, b)

    def test_a_long_power_divides_by_its_base_quickly(self) -> None:
        # Scanning the whole remainder for each leading term took 0.24 s on
        # the 2,002 terms of (a+b+c+d+e+1)^9, and takes about 0.015 s from a
        # heap; the bound is ten times that.
        width = 5
        base = {tuple(int(j == i) for j in range(width)): 1 for i in range(width)}
        base[(0,) * width] = 1
        power = exactnum._p_unit(width)
        for _ in range(9):
            power = exactnum._p_mul(power, base)
        with _within(0.15):
            q = exactnum._p_div_exact(power, base)
        assert exactnum._p_mul(q, base) == power


class TestGcdRegressions:
    """Inputs on which the primitive remainder sequence once ran for seconds
    or minutes.  Each bound is ten times the target time."""

    def test_a_reduced_fraction_in_three_symbols_parses(self) -> None:
        table = SymbolTable(["x", "y", "z"])
        text = "(2*y*z^3 + 1)/(x^3*y^2*z + y^2 + z^2 + x)"
        with _within(1.0):
            s = parse_scalar(table, text)
        assert str(s) == text

    def test_a_quartic_quotient_in_five_symbols_normalizes(self) -> None:
        table = SymbolTable(list("abcde"))
        num = parse_scalar(table, "(a+b+c+d+e)^4")
        den = parse_scalar(table, "(a+b+c+d+e+1)*(a-b*c+d*e)")
        with _within(10.0):
            q = num / den
        assert (len(q.num), len(q.den)) == (70, 18)
        assert q * den == num

    def test_the_stalled_monomial_expansion_finishes(self) -> None:
        texts = [
            "(18)/(mu^2*tau_i - 9*mu*tau_i^2 - 6)",
            "-4/3*mu^2*tau_i^2 + 2*mu",
            "(-9/2)/(2*mu*tau_i^2 - 9*tau_i^2 + 6*mu)",
            "(-4)/(9*mu*tau_i^2 + 8*mu^2 + 4*tau_i^2)",
        ]
        sc = [parse_scalar(TABLE, text) for text in texts]
        with _within(10.0):
            vectors, basis = monomial_expansion(sc)
        assert (vectors, basis) == ref_monomial_expansion(sc)
