"""Exact scalar and integer-matrix arithmetic.

Everything downstream (group presentations, cohomology, moduli reports) is
computed over the field Q(x_1, ..., x_n) of rational functions in finitely
many formal symbols, with rational coefficients.  Scalars are kept in a
canonical normal form -- a reduced ratio of primitive integer-content
polynomials, with the rational content factored out -- so equality is
decidable and serialized output is reproducible byte for byte.  No floating
point number ever enters a result; `Scalar.numeric` and `numeric_rank` exist
for diagnostics only and say so.

>>> t = SymbolTable(["alpha_t", "beta_t"])
>>> a = Scalar.symbol(t, "alpha_t")
>>> (a / (a + a)).as_fraction()
Fraction(1, 2)
>>> one = Scalar.rational(t, 1)
>>> (a / (one + a)) * ((one + a) / a) == one
True
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SymbolTable",
    "SymbolTableMismatch",
    "NotRationalError",
    "Scalar",
    "IntMatrix",
    "smith_normal_form",
    "monomial_expansion",
    "monomial_vectors",
    "q_linear_rank",
    "numeric_rank",
]


class SymbolTableMismatch(ValueError):
    """Raised when scalars over different symbol tables are combined."""


class NotRationalError(ValueError):
    """Raised when a genuinely symbolic scalar is coerced to a fraction."""


class SymbolTable:
    """An ordered set of distinct formal symbol names.

    Names must be nonempty strings; the name ``"1"`` is reserved for the
    rational unit and can never be a symbol.

    >>> t = SymbolTable(["mu", "tau_i"])
    >>> t.index("tau_i")
    1
    >>> "mu" in t
    True
    >>> SymbolTable(["1"])
    Traceback (most recent call last):
        ...
    ValueError: "1" is not a valid symbol name
    """

    __slots__ = ("names", "_index", "_unit", "_zero", "_one")

    def __init__(self, names: Iterable[str] = ()) -> None:
        names = tuple(names)
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError("symbol names must be nonempty strings")
            if name == "1":
                raise ValueError('"1" is not a valid symbol name')
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._unit = _p_unit(len(names))
        self._zero: Optional[Scalar] = None  # filled by Scalar.zero
        self._one: Optional[Scalar] = None  # filled by Scalar.one

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown symbol {name!r}")
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymbolTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"SymbolTable({list(self.names)!r})"

    def to_json(self) -> list:
        return list(self.names)

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "SymbolTable":
        return cls(data)


# ---------------------------------------------------------------------------
# Internal polynomial arithmetic: dict {exponent tuple: Fraction}, no zeros.
# ---------------------------------------------------------------------------

_Poly = Dict[Tuple[int, ...], Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNITS: Dict[int, _Poly] = {}


def _p_unit(width: int) -> _Poly:
    """The constant polynomial 1 of the given width, shared: never mutate it."""
    unit = _UNITS.get(width)
    if unit is None:
        unit = _UNITS[width] = {(0,) * width: _ONE}
    return unit


def _p_is_const(a: _Poly) -> bool:
    """True for a nonzero constant polynomial."""
    return len(a) == 1 and not any(next(iter(a)))


def _p_sym(width: int, i: int) -> _Poly:
    mono = tuple(1 if j == i else 0 for j in range(width))
    return {mono: _ONE}


def _grlex_key(mono: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    return (sum(mono), mono)


def _p_leading(p: _Poly) -> Tuple[Tuple[int, ...], Fraction]:
    mono = max(p, key=_grlex_key)
    return mono, p[mono]


def _p_add(a: _Poly, b: _Poly) -> _Poly:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, _ZERO) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _p_neg(a: _Poly) -> _Poly:
    return {m: -c for m, c in a.items()}


def _p_sub(a: _Poly, b: _Poly) -> _Poly:
    return _p_add(a, _p_neg(b))


def _p_scale(a: _Poly, c: Fraction) -> _Poly:
    if c == 0:
        return {}
    return {m: v * c for m, v in a.items()}


def _p_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mono, _ZERO) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        _int_gcd(a.numerator, b.numerator),
        (a.denominator * b.denominator) // _int_gcd(a.denominator, b.denominator),
    )


def _p_content(a: _Poly) -> Fraction:
    """Positive rational content, signed by the graded-lex leading coefficient."""
    if not a:
        return _ZERO
    c = _ZERO
    for v in a.values():
        c = _frac_gcd(c, abs(v))
    if _p_leading(a)[1] < 0:
        c = -c
    return c


def _p_primitive(a: _Poly) -> Tuple[Fraction, _Poly]:
    """Split ``a = content * primitive`` with a positive-leading primitive part.

    A polynomial that is already primitive is returned as it is, not copied.
    """
    if not a:
        return _ZERO, {}
    c = _p_content(a)
    if c == 1:
        return c, a
    return c, {m: v / c for m, v in a.items()}


def _p_div_exact(a: _Poly, b: _Poly) -> _Poly:
    """Exact polynomial division; raises if ``b`` does not divide ``a``."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lm_b, lc_b = _p_leading(b)
    r = dict(a)
    q: _Poly = {}
    while r:
        lm_r, lc_r = _p_leading(r)
        mono = tuple(x - y for x, y in zip(lm_r, lm_b))
        if any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        c = lc_r / lc_b
        q[mono] = q.get(mono, _ZERO) + c
        r = _p_sub(r, _p_mul({mono: c}, b))
    return q


def _p_deg_in(a: _Poly, v: int) -> int:
    return max((m[v] for m in a), default=-1)


def _p_coeffs_in(a: _Poly, v: int) -> Dict[int, _Poly]:
    """View ``a`` as a polynomial in variable ``v`` with polynomial coefficients."""
    out: Dict[int, _Poly] = {}
    for mono, c in a.items():
        d = mono[v]
        rest = mono[:v] + (0,) + mono[v + 1:]
        coeff = out.setdefault(d, {})
        coeff[rest] = coeff.get(rest, _ZERO) + c
    return {d: {m: c for m, c in coeff.items() if c} for d, coeff in out.items()}


def _p_shift_var(a: _Poly, v: int, k: int) -> _Poly:
    return {m[:v] + (m[v] + k,) + m[v + 1:]: c for m, c in a.items()}


def _p_content_in(a: _Poly, v: int) -> _Poly:
    """Polynomial content of ``a`` with respect to variable ``v``."""
    g: _Poly = {}
    for coeff in _p_coeffs_in(a, v).values():
        g = _p_gcd(g, coeff)
    return g


def _p_prem(a: _Poly, b: _Poly, v: int) -> _Poly:
    """Pseudo-remainder of ``a`` by ``b`` with respect to variable ``v``."""
    db = _p_deg_in(b, v)
    lc_b = _p_coeffs_in(b, v)[db]
    r = a
    while r and _p_deg_in(r, v) >= db:
        dr = _p_deg_in(r, v)
        lc_r = _p_coeffs_in(r, v)[dr]
        r = _p_sub(_p_mul(lc_b, r), _p_shift_var(_p_mul(lc_r, b), v, dr - db))
    return r


def _p_gcd(a: _Poly, b: _Poly) -> _Poly:
    """Primitive, positive-leading gcd of two polynomials."""
    if not a:
        return _p_primitive(b)[1]
    if not b:
        return _p_primitive(a)[1]
    width = len(next(iter(a)))
    vs = [v for v in range(width) if _p_deg_in(a, v) > 0 or _p_deg_in(b, v) > 0]
    if not vs:
        return _p_unit(width)
    v = vs[-1]
    ca, pa = _p_content_in(a, v), None
    cb, pb = _p_content_in(b, v), None
    pa = _p_div_exact(a, ca) if ca else a
    pb = _p_div_exact(b, cb) if cb else b
    cg = _p_gcd(ca, cb)
    f, g = (pa, pb) if _p_deg_in(pa, v) >= _p_deg_in(pb, v) else (pb, pa)
    while g:
        r = _p_prem(f, g, v)
        f, g = g, (r and _p_div_exact(r, _p_content_in(r, v)) or {})
    return _p_primitive(_p_mul(cg, f))[1]


def _p_str(a: _Poly, names: Sequence[str]) -> str:
    if not a:
        return "0"
    terms: List[str] = []
    for mono in sorted(a, key=_grlex_key, reverse=True):
        c = a[mono]
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(mono)
            if e
        ]
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        terms.append(f"{sign} {body}")
    out = " ".join(terms)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _p_key(a: _Poly) -> tuple:
    return tuple(sorted(a.items()))


def _p_to_json(a: _Poly) -> list:
    return [
        [list(m), [c.numerator, c.denominator]]
        for m, c in sorted(a.items())
    ]


def _p_from_json(data: Sequence, width: int) -> _Poly:
    out: _Poly = {}
    for mono, (p, q) in data:
        mono = tuple(int(e) for e in mono)
        if len(mono) != width:
            raise ValueError("monomial width does not match symbol table")
        out[mono] = Fraction(int(p), int(q))
    return out


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """An exact element of Q(symbols) in canonical normal form.

    The value is ``rat * num / den`` where ``rat`` is a ``Fraction`` and
    ``num``, ``den`` are coprime primitive polynomials with positive
    graded-lex leading coefficients (``num = den = 1`` for plain rationals,
    and ``rat = 0, num = den = 1`` for zero).  Equality is structural.

    Normalization and arithmetic skip the polynomial work whenever a side is
    constant, and rational operands combine their ``rat`` alone.  Two
    invariants make that safe and cheap:

    - a constant ``num`` or ``den`` is always the one unit polynomial shared
      by every table of the same width, so rationals are told apart by
      identity;
    - no code mutates a Scalar's ``num`` or ``den`` in place: Scalars share
      these dicts with each other, with the inputs they were built from and
      with the unit polynomial.

    >>> t = SymbolTable(["mu"])
    >>> mu = Scalar.symbol(t, "mu")
    >>> half = Scalar.rational(t, 1, 2)
    >>> print(mu * half + mu * half)
    mu
    >>> print((mu * mu - Scalar.one(t)) / (mu + Scalar.one(t)))
    mu - 1
    >>> Scalar.rational(t, 6, 4) == Scalar.rational(t, 3, 2)
    True
    >>> print(Scalar.rational(t, -3, 6) - half, Scalar.rational(t, 2) / mu)
    -1 (2)/(mu)
    >>> mu.as_fraction()  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    NotRationalError: mu is not rational
    """

    __slots__ = ("table", "rat", "num", "den")

    def __init__(self, table: SymbolTable, rat: Fraction, num: _Poly, den: _Poly):
        # Normalization happens here so every constructed Scalar is canonical.
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        unit = table._unit
        if not rat or not num:
            rat, num, den = _ZERO, unit, unit
        elif num is unit and den is unit:
            if type(rat) is not Fraction:
                rat = Fraction(rat)
        elif _p_is_const(num) and _p_is_const(den):
            rat = Fraction(rat) * next(iter(num.values())) / next(iter(den.values()))
            num = den = unit
        else:
            cn, num = _p_primitive(num)
            cd, den = _p_primitive(den)
            rat = Fraction(rat) * cn / cd
            # The gcd of a constant and anything is 1.
            if not (_p_is_const(num) or _p_is_const(den)):
                g = _p_gcd(num, den)
                if not _p_is_const(g):
                    cn, num = _p_primitive(_p_div_exact(num, g))
                    cd, den = _p_primitive(_p_div_exact(den, g))
                    rat = rat * cn / cd
            if _p_is_const(num):
                num = unit
            if _p_is_const(den):
                den = unit
        self.table = table
        self.rat = rat
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: SymbolTable) -> "Scalar":
        if table._zero is None:
            table._zero = cls(table, _ZERO, {}, table._unit)
        return table._zero

    @classmethod
    def one(cls, table: SymbolTable) -> "Scalar":
        if table._one is None:
            table._one = cls.rational(table, 1)
        return table._one

    @classmethod
    def rational(cls, table: SymbolTable, p: int | Fraction, q: int = 1) -> "Scalar":
        unit = table._unit
        return cls(table, Fraction(p, q) if q != 1 else Fraction(p), unit, unit)

    @classmethod
    def symbol(cls, table: SymbolTable, name: str) -> "Scalar":
        return cls(table, _ONE, _p_sym(len(table), table.index(name)), table._unit)

    # -- predicates and coercions -----------------------------------------

    def is_zero(self) -> bool:
        return self.rat == 0

    def is_rational(self) -> bool:
        unit = self.table._unit
        return self.num == unit and self.den == unit

    def is_polynomial(self) -> bool:
        """True when the denominator is trivial (rationals count).

        >>> t = SymbolTable(["mu"])
        >>> mu = Scalar.symbol(t, "mu")
        >>> mu.scale(Fraction(1, 2)).is_polynomial()
        True
        >>> (Scalar.one(t) / mu).is_polynomial()
        False
        """
        return self.den == self.table._unit

    def total_degree(self) -> int:
        """Total degree of numerator plus denominator (0 for rationals).

        >>> t = SymbolTable(["mu", "nu"])
        >>> mu, nu = Scalar.symbol(t, "mu"), Scalar.symbol(t, "nu")
        >>> (mu * nu).total_degree()
        2
        >>> (mu / nu).total_degree()
        2
        >>> Scalar.rational(t, 7).total_degree()
        0
        """
        dn = max((sum(m) for m in self.num), default=0)
        dd = max((sum(m) for m in self.den), default=0)
        return dn + dd

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self} is not rational")
        return self.rat

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------
    #
    # ``x.num is x.den`` holds exactly for rationals (both are the shared unit
    # polynomial); two rational operands combine their ``rat`` alone.

    def _check(self, other: "Scalar") -> None:
        if self.table is not other.table and self.table != other.table:
            raise SymbolTableMismatch(
                "cannot combine scalars over different symbol tables"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if self.num is self.den and other.num is other.den:
            return Scalar(self.table, self.rat + other.rat, self.num, self.den)
        num = _p_add(
            _p_scale(_p_mul(self.num, other.den), self.rat),
            _p_scale(_p_mul(other.num, self.den), other.rat),
        )
        return Scalar(self.table, _ONE, num, _p_mul(self.den, other.den))

    def __neg__(self) -> "Scalar":
        return Scalar(self.table, -self.rat, self.num, self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.num is self.den and other.num is other.den:
            self._check(other)
            return Scalar(self.table, self.rat - other.rat, self.num, self.den)
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if self.num is self.den and other.num is other.den:
            return Scalar(self.table, self.rat * other.rat, self.num, self.den)
        return Scalar(
            self.table,
            self.rat * other.rat,
            _p_mul(self.num, other.num),
            _p_mul(self.den, other.den),
        )

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.num is self.den and other.num is other.den:
            return Scalar(self.table, self.rat / other.rat, self.num, self.den)
        return Scalar(
            self.table,
            self.rat / other.rat,
            _p_mul(self.num, other.den),
            _p_mul(self.den, other.num),
        )

    def scale(self, c: int | Fraction) -> "Scalar":
        return Scalar(self.table, self.rat * Fraction(c), self.num, self.den)

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Scalar)
            and self.table == other.table
            and self.rat == other.rat
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.table, self.rat, _p_key(self.num), _p_key(self.den)))

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.rat)
        shown = _p_scale(self.num, self.rat)
        if self.den == self.table._unit:
            return _p_str(shown, self.table.names)
        return f"({_p_str(shown, self.table.names)})/({_p_str(self.den, self.table.names)})"

    def __repr__(self) -> str:
        return f"<Scalar {self}>"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rat": [self.rat.numerator, self.rat.denominator],
            "num": _p_to_json(self.num),
            "den": _p_to_json(self.den),
        }

    @classmethod
    def from_json(cls, table: SymbolTable, data: Mapping) -> "Scalar":
        width = len(table)
        return cls(
            table,
            Fraction(int(data["rat"][0]), int(data["rat"][1])),
            _p_from_json(data["num"], width),
            _p_from_json(data["den"], width),
        )

    # -- diagnostics only ----------------------------------------------------

    def numeric(self, assignment: Mapping[str, complex]) -> complex:
        """Evaluate at a numeric point.  Diagnostics only: results computed
        from this method are never fed back into exact computations."""

        def ev(p: _Poly) -> complex:
            total = 0j
            for mono, c in p.items():
                term = complex(c)
                for i, e in enumerate(mono):
                    if e:
                        term *= complex(assignment[self.table.names[i]]) ** e
                total += term
            return total

        return complex(self.rat) * ev(self.num) / ev(self.den)


# ---------------------------------------------------------------------------
# Q-linear rank
# ---------------------------------------------------------------------------


def monomial_expansion(
    scalars: Sequence[Scalar],
) -> Tuple[List[List[Fraction]], List["Scalar"]]:
    """Expand scalars over a common polynomial denominator.

    Returns ``(vectors, basis)`` with one Q-coefficient vector per scalar over
    a shared basis of scalars (monomial over common denominator), such that
    ``scalars[i] == sum(vectors[i][m] * basis[m] for m)``.  A Q-linear
    relation holds among the scalars iff it holds among the vectors, which is
    what the rank and integer-lattice routines rely on.

    >>> t = SymbolTable(["mu"])
    >>> one, mu = Scalar.one(t), Scalar.symbol(t, "mu")
    >>> vectors, basis = monomial_expansion([one + mu.scale(2)])
    >>> [str(b) for b in basis]
    ['1', 'mu']
    >>> vectors
    [[Fraction(1, 1), Fraction(2, 1)]]
    """
    if not scalars:
        return [], []
    table = scalars[0].table
    unit = table._unit
    den = unit
    for s in scalars:
        if s.table != table:
            raise SymbolTableMismatch("monomial expansion over mixed symbol tables")
        if s.den is unit:
            continue
        if den is unit:
            den = s.den
        else:
            den = _p_mul(den, _p_div_exact(s.den, _p_gcd(den, s.den)))
    vectors: List[_Poly] = []
    for s in scalars:
        if s.den is den:
            cofactor = s.num
        elif s.den is unit:
            cofactor = _p_mul(s.num, den)
        else:
            cofactor = _p_mul(s.num, _p_div_exact(den, s.den))
        vectors.append(_p_scale(cofactor, s.rat))
    monos = sorted({m for v in vectors for m in v})
    basis = [Scalar(table, _ONE, {m: _ONE}, den) for m in monos]
    return [[v.get(m, _ZERO) for m in monos] for v in vectors], basis


def monomial_vectors(scalars: Sequence[Scalar]) -> List[List[Fraction]]:
    """Coefficient vectors of :func:`monomial_expansion`, basis dropped."""
    return monomial_expansion(scalars)[0]


def q_linear_rank(scalars: Sequence[Scalar]) -> int:
    """Rank over Q of the Q-span of the given scalars inside Q(symbols).

    Exact: each scalar is expanded over a common polynomial denominator and
    the resulting monomial-coefficient vectors are reduced over ``Fraction``.

    >>> t = SymbolTable(["alpha_t", "beta_t"])
    >>> one, a, b = Scalar.one(t), Scalar.symbol(t, "alpha_t"), Scalar.symbol(t, "beta_t")
    >>> q_linear_rank([one, a.scale(2), b.scale(2)])
    3
    >>> q_linear_rank([one, Scalar.rational(t, 2), Scalar.rational(t, 1, 2)])
    1
    >>> q_linear_rank([one, a, one + a])
    2
    """
    if not scalars:
        return 0
    return _gauss_rank(monomial_vectors(scalars))


def _gauss_rank(rows: List[List[Fraction]]) -> int:
    rank = 0
    ncols = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows]
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def numeric_rank(scalars: Sequence[Scalar], tol: float = 1e-9) -> int:
    """Floating-point cross-check of :func:`q_linear_rank`.

    Performs the same monomial-basis expansion as the exact routine but
    eliminates in floating point with a pivot threshold of ``tol``.
    Diagnostics only; the tolerance-based answer is never used as a result.

    >>> t = SymbolTable(["mu"])
    >>> numeric_rank([Scalar.one(t), Scalar.symbol(t, "mu")])
    2
    """
    if not scalars:
        return 0
    rows = [[float(x) for x in row] for row in monomial_vectors(scalars)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        best = tol
        for i in range(rank, len(rows)):
            if abs(rows[i][col]) > best:
                best = abs(rows[i][col])
                pivot = i
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and abs(rows[i][col]) > tol:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


class IntMatrix:
    """An immutable arbitrary-precision integer matrix.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> (a * IntMatrix.identity(2)) == a
    True
    >>> a.det()
    -2
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.rows = rows

    @classmethod
    def _of_int_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        """Wrap rows already known to be rectangular and made of Python ints."""
        m = cls.__new__(cls)
        m.rows = tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        ocols = list(zip(*other.rows)) if other.rows else []
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in ocols]
                for row in self.rows
            ]
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)) if self.rows else [])

    def diagonal(self) -> List[int]:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.rows]
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

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def to_json(self) -> list:
        return [list(r) for r in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(data)


def smith_normal_form(a: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns ``(u, d, v)``.

    ``u`` and ``v`` are unimodular, ``d = u * a * v`` is diagonal with
    nonnegative entries satisfying ``d[0] | d[1] | ...``.

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> d.diagonal()
    [2, 4]
    >>> u * IntMatrix([[2, 4], [6, 8]]) * v == d
    True
    >>> abs(u.det()), abs(v.det())
    (1, 1)
    """
    nrows, ncols = a.nrows, a.ncols
    m = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def diagonalize() -> None:
        t = 0
        while t < min(nrows, ncols):
            # Pivot: entry of minimal nonzero magnitude in the trailing block.
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
    # Enforce the divisibility chain, re-diagonalizing after each repair.
    while True:
        rank = sum(1 for i in range(min(nrows, ncols)) if m[i][i] != 0)
        offender = None
        for i in range(rank - 1):
            if m[i + 1][i + 1] % m[i][i] != 0:
                offender = i
                break
        if offender is None:
            break
        row_op(offender, offender + 1, -1)  # reintroduce a coupling entry
        diagonalize()
    for i in range(min(nrows, ncols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    return IntMatrix._of_int_rows(u), IntMatrix._of_int_rows(m), IntMatrix._of_int_rows(v)


def _selftest() -> None:  # pragma: no cover
    import doctest

    doctest.testmod()


if __name__ == "__main__":  # pragma: no cover
    _selftest()
