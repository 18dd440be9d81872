"""Exact scalar arithmetic, rank computation and Smith normal form."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from folmod.abgroup import _signnorm
from folmod.exactnum import (
    IntMatrix,
    Scalar,
    SymbolTable,
    monomial_expansion,
    monomial_vectors,
    smith_normal_form,
)

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


def _det(rows: list) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


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
        assert a.det() == -2
        assert (a * IntMatrix.identity(2)) == a

    def test_ragged_rejected(self) -> None:
        with pytest.raises(ValueError):
            IntMatrix([[1], [2, 3]])

    def test_json_round_trip(self) -> None:
        a = IntMatrix([[5, -7], [0, 11]])
        assert IntMatrix(a.to_json()) == a


class TestSmithNormalForm:
    def test_known_forms(self) -> None:
        _, d, _ = smith_normal_form(IntMatrix([[2, 0], [0, 4]]))
        assert d.diagonal() == [2, 4]
        _, d, _ = smith_normal_form(IntMatrix([[1, 2], [3, 4]]))
        assert d.diagonal() == [1, 2]
        _, d, _ = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
        assert d.diagonal() == [2, 4]
        _, d, _ = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
        assert d.diagonal() == [0, 0]

    # U A V == D with U, V unimodular and the diagonal a divisibility chain
    @settings(deadline=None, max_examples=60)
    @given(int_matrices())
    def test_snf_properties(self, rows: list) -> None:
        a = IntMatrix(rows)
        u, d, v = smith_normal_form(a)
        assert u * a * v == d
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
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
        vecs = monomial_vectors([one + mu, tau])
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
