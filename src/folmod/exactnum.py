"""Exact scalar and integer-matrix arithmetic.

Everything downstream (group presentations, cohomology, moduli reports) is
computed over the field Q(x_1, ..., x_n) of rational functions in finitely
many formal symbols, with rational coefficients.  Scalars are kept in a
canonical normal form -- a reduced ratio of primitive polynomials with
Python int coefficients, times one ``Fraction`` that holds the rational
content -- so equality is decidable and serialized output is reproducible
byte for byte.  No floating point number ever enters a result.

>>> t = SymbolTable(["alpha_t", "beta_t"])
>>> a = Scalar.symbol(t, "alpha_t")
>>> half = a / (a + a)
>>> half.is_rational(), half.rat
(True, Fraction(1, 2))
>>> one = Scalar.rational(t, 1)
>>> (a / (one + a)) * ((one + a) / a) == one
True
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SymbolTable",
    "Scalar",
    "IntMatrix",
    "smith_normal_form",
    "monomial_expansion",
    "monomial_vectors",
]


#: Largest exponent a scalar may carry in from outside: a ``^`` in
#: ``folmod.foliation.parse_scalar`` and a monomial exponent in
#: :meth:`Scalar.from_json`.  ``str(scalar)`` of the bundled examples prints
#: exponents up to 4.
MAX_EXPONENT = 64


class SymbolTableMismatch(ValueError):
    """Raised when scalars over different symbol tables are combined."""


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
# Internal polynomial arithmetic: dict {exponent tuple: int}, no zeros.
#
# Coefficients are Python ints.  A Scalar's numerator and denominator are
# primitive, and every exact division below is by a primitive polynomial (a
# gcd or a denominator), so by Gauss's lemma its quotient has integer
# coefficients too.  Only the polynomials read by ``_p_from_json`` carry
# ``Fraction`` coefficients, until ``_p_primitive`` clears them.
#
# The gcd ``_p_gcd`` takes three steps, cheapest first, and each accepts a
# candidate only when it divides both sides:
#
# 1. The monomial content (the least exponent of each symbol) comes off each
#    side.  When a side is then a constant, the gcd is a monomial; every gcd
#    the bundled examples ask for ends here.
# 2. GCDHEU (``_p_heugcd``) evaluates one symbol at a large integer, finds
#    the gcd of the images by recursion down to an integer gcd, and reads
#    the result back from its digits.  Its first point is large enough that
#    a candidate that divides both sides is the gcd; it gives up after a few
#    points.
# 3. Brown's dense modular gcd (``_p_modgcd``) then computes the gcd modulo
#    primes by evaluation and interpolation, and combines the images by
#    Chinese remaindering.
#
# No step runs a pseudo-remainder sequence, whose coefficients swell.
# ---------------------------------------------------------------------------

_Poly = Dict[Tuple[int, ...], int]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNITS: Dict[int, _Poly] = {}


def _p_unit(width: int) -> _Poly:
    """The constant polynomial 1 of the given width, shared: never mutate it."""
    unit = _UNITS.get(width)
    if unit is None:
        unit = _UNITS[width] = {(0,) * width: 1}
    return unit


def _p_is_const(a: _Poly) -> bool:
    """True for a nonzero constant polynomial."""
    return len(a) == 1 and not any(next(iter(a)))


def _p_sym(width: int, i: int) -> _Poly:
    mono = tuple(1 if j == i else 0 for j in range(width))
    return {mono: 1}


def _grlex_key(mono: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    return (sum(mono), mono)


def _p_leading(p: _Poly) -> Tuple[Tuple[int, ...], int]:
    # The largest (total degree, monomial) pair, compared in C.
    mono = max(zip(map(sum, p), p))[1]
    return mono, p[mono]


def _p_add(a: _Poly, b: _Poly) -> _Poly:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _p_scale(a: _Poly, c: int | Fraction) -> _Poly:
    """``c * a``; ``a`` itself when ``c == 1``."""
    if c == 1:
        return a
    if c == 0:
        return {}
    return {m: v * c for m, v in a.items()}


def _p_mul(a: _Poly, b: _Poly) -> _Poly:
    """``a * b``; a factor equal to the constant 1 returns the other one."""
    if len(a) == 1 and a.get((0,) * len(next(iter(a)))) == 1:
        return b
    if len(b) == 1 and b.get((0,) * len(next(iter(b)))) == 1:
        return a
    out: _Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _p_primitive(a: _Poly) -> Tuple[int | Fraction, _Poly]:
    """Split ``a = content * primitive`` with a positive-leading primitive part
    with int coefficients.

    The content is an int for an int polynomial, and its sign is that of the
    graded-lex leading coefficient.  ``a`` may also have ``Fraction``
    coefficients, as :func:`_p_from_json` reads them.  An int polynomial that
    is already primitive is returned as it is, not copied.
    """
    if not a:
        return 0, {}
    den = 1
    try:
        g = _int_gcd(*a.values())
    except TypeError:  # Fraction coefficients: clear their denominators first
        den = _int_lcm(*(v.denominator for v in a.values()))
        a = {m: v.numerator * (den // v.denominator) for m, v in a.items()}
        g = _int_gcd(*a.values())
    if _p_leading(a)[1] < 0:
        g = -g
    if g != 1:
        a = {m: v // g for m, v in a.items()}
    return (g if den == 1 else Fraction(g, den)), a


def _p_div_exact(a: _Poly, b: _Poly, p: int = 0) -> _Poly:
    """Exact division in Z[x] by a primitive ``b``, or in Z/p[x] for a prime
    ``p``; raises :class:`ArithmeticError` if it is inexact.

    By Gauss's lemma a quotient by a primitive polynomial has integer
    coefficients, so a quotient step that is not an integer means that ``b``
    does not divide ``a``.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lm_b, lc_b = _p_leading(b)
    inverse = pow(lc_b, -1, p) if p else 0
    r = dict(a)
    q: _Poly = {}
    while r:
        lm_r, lc_r = _p_leading(r)
        mono = tuple(x - y for x, y in zip(lm_r, lm_b))
        c, rem = (lc_r * inverse % p, 0) if p else divmod(lc_r, lc_b)
        if rem or any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        q[mono] = c
        for m, v in b.items():
            m = tuple(x + y for x, y in zip(mono, m))
            s = r.get(m, 0) - c * v
            if p:
                s %= p
            if s:
                r[m] = s
            else:
                del r[m]
    return q


def _p_divides(b: _Poly, a: _Poly, p: int = 0) -> bool:
    """True when ``b`` divides ``a`` (see :func:`_p_div_exact`)."""
    try:
        _p_div_exact(a, b, p)
    except ArithmeticError:
        return False
    return True


def _p_gcd(a: _Poly, b: _Poly) -> _Poly:
    """Primitive, positive-leading gcd of two int polynomials; a constant gcd
    is the shared unit polynomial.

    The monomial content of each side comes off first.  If a side is then a
    constant, the gcd is the monomial of the least exponents; otherwise it
    is that monomial times the gcd of the rests, by :func:`_p_heugcd` or,
    when that gives up, :func:`_p_modgcd`.
    """
    if not a or not b:
        g = _p_primitive(a or b)[1]
    elif len(a) == 1 or len(b) == 1:
        g = {tuple(map(min, zip(*a, *b))): 1}
    else:
        low_a, low_b = tuple(map(min, zip(*a))), tuple(map(min, zip(*b)))
        a = _p_primitive({tuple(map(sub, m, low_a)): c for m, c in a.items()})[1]
        b = _p_primitive({tuple(map(sub, m, low_b)): c for m, c in b.items()})[1]
        g = _p_primitive(_p_heugcd(a, b) or _p_modgcd(a, b))[1]
        g = _p_mul(g, {tuple(map(min, low_a, low_b)): 1})
    if _p_is_const(g):
        return _p_unit(len(next(iter(g))))
    return g


#: Evaluation points :func:`_p_heugcd` tries in each variable before it gives
#: up; as in sympy's ``heugcd``, each point is about ``2.73 * xi**1.25`` for
#: the one before, ``xi``.
_HEU_TRIES = 6


def _p_heugcd(f: _Poly, g: _Poly) -> Optional[_Poly]:
    """The gcd of two nonzero int polynomials, up to sign, by the heuristic
    gcd GCDHEU (Char, Geddes & Gonnet 1989); None when it gives up.

    The first variable is set to an integer ``xi``, the gcd of the two
    images is found by recursion down to an integer gcd, and its balanced
    ``xi``-adic digits are read back as the coefficients of the powers of
    the first variable.  The primitive part ``h`` of that is accepted only
    when it divides both sides.

    ``xi`` starts above twice :func:`_factor_bound` of either side (sympy
    starts lower), and that makes an accepted ``h`` the gcd.  The cofactor
    ``q = gcd / h`` takes at ``xi`` a constant value of absolute value at
    most ``xi / 2``, since ``h`` was read from the gcd of the images.  The
    coefficients of ``q``, a factor of both sides, are smaller than
    ``xi / 2`` in absolute value, so they are the balanced digits of that
    constant: ``q`` is a constant, and so 1 or -1, since the gcd of the
    sides with their common integer content divided out is primitive.
    """
    if not next(iter(f)):  # no variable left: integers
        return {(): _int_gcd(f[()], g[()])}
    content = _int_gcd(*f.values(), *g.values())
    if content != 1:
        f = {m: c // content for m, c in f.items()}
        g = {m: c // content for m, c in g.items()}
    xi = 2 * min(_factor_bound(f), _factor_bound(g)) + 29
    for _ in range(_HEU_TRIES):
        f_xi, g_xi = _eval_first(f, xi), _eval_first(g, xi)
        if f_xi and g_xi:
            image = _p_heugcd(f_xi, g_xi)
            if image is None:
                return None
            h = _p_primitive(_interpolate_first(image, xi))[1]
            if _p_divides(h, f) and _p_divides(h, g):
                return _p_scale(h, content)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _factor_bound(f: _Poly) -> int:
    """A bound on the coefficients of every factor of ``f``: two to the sum
    of its degrees in each variable times its 2-norm (Mignotte)."""
    return (isqrt(sum(c * c for c in f.values())) + 1) << sum(map(max, zip(*f)))


def _eval_first(f: _Poly, xi: int) -> _Poly:
    """``f`` with its first variable set to ``xi``, one variable narrower."""
    out: _Poly = {}
    for m, c in f.items():
        out[m[1:]] = out.get(m[1:], 0) + c * xi ** m[0]
    return {m: c for m, c in out.items() if c}


def _interpolate_first(h: _Poly, xi: int) -> _Poly:
    """The polynomial whose coefficients of each power of a new first
    variable are the balanced ``xi``-adic digits of those of ``h``."""
    out: _Poly = {}
    half = xi // 2
    for m, c in h.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(e,) + m] = d
            c = (c - d) // xi
            e += 1
    return out


def _p_modgcd(f: _Poly, g: _Poly) -> _Poly:
    """The gcd of two primitive int polynomials of width at least one, up to
    sign, by Brown's dense modular algorithm (Brown 1971).

    For each prime that divides neither lex leading coefficient the gcd
    modulo the prime is made monic (:func:`_gcd_mod`), scaled by the gcd
    of the leading coefficients and combined with the earlier images by
    Chinese remaindering.  Such an image never has a smaller leading
    monomial than the gcd; images with a larger one are dropped, and a
    smaller one starts over.  When one more prime leaves the combination
    unchanged, its primitive part is accepted if it divides both sides:
    then it divides the gcd and shares its leading monomial, so it is the
    gcd.
    """
    lf, lg = f[max(f)], g[max(g)]
    gamma = _int_gcd(lf, lg)
    h: _Poly = {}
    modulus, top = 1, None
    for p in _primes():
        if not (lf % p and lg % p):
            continue
        image = _gcd_mod(_p_mod(f, p), _p_mod(g, p), p)
        if image is None:
            continue
        lead = max(image)
        if not any(lead):
            return _p_unit(len(lead))
        if top is None or lead < top:
            h, modulus, top = {}, 1, lead
        elif lead > top:
            continue
        step = pow(modulus, -1, p) * modulus
        combined: _Poly = {}
        total = modulus * p
        for m in h.keys() | image.keys():
            old = h.get(m, 0)
            c = (old + (gamma * image.get(m, 0) - old) * step) % total
            combined[m] = c - total if c > total // 2 else c
        modulus = total
        combined = {m: c for m, c in combined.items() if c}
        if combined == h:
            candidate = _p_primitive(h)[1]
            if _p_divides(candidate, f) and _p_divides(candidate, g):
                return candidate
        h = combined


def _primes() -> Iterable[int]:
    """The primes below 2**31 in descending order (Miller-Rabin with the
    bases 2, 3, 5 and 7 decides primality below 3,215,031,751)."""
    n = 2**31 - 1
    while True:
        d, s = n - 1, 0
        while not d & 1:
            d, s = d >> 1, s + 1
        for base in (2, 3, 5, 7):
            x = pow(base, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break
        else:
            yield n
        n -= 2


def _p_mod(f: _Poly, p: int) -> _Poly:
    return {m: r for m, c in f.items() if (r := c % p)}


# Dense polynomials over Z/p in one variable, the last one of a _Poly: lists
# of coefficients from degree 0 up, with no trailing zeros.


def _u_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    a = list(a)
    db = len(b) - 1
    inverse = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + db] * inverse % p
        if c:
            for j, v in enumerate(b):
                a[i + j] = (a[i + j] - c * v) % p
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return q, a


def _u_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic gcd over Z/p; ``[]`` for two zeros."""
    while b:
        a, b = b, _u_divmod(a, b, p)[1]
    if not a:
        return a
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _u_mul(a: List[int], b: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _u_eval(a: List[int], x: int, p: int) -> int:
    out = 0
    for c in reversed(a):
        out = (out * x + c) % p
    return out


def _gcd_mod(f: _Poly, g: _Poly, p: int) -> Optional[_Poly]:
    """The monic (lex) gcd of two nonzero polynomials over Z/p, or None when
    too many evaluation points were unlucky.

    Seen as polynomials in the other variables over Z/p[y], y the last
    variable: the gcd is the gcd ``c`` of all coefficients (the contents)
    times the gcd of the primitive parts.  That one is interpolated in y
    from the gcds at points ``y = a`` where no leading coefficient
    vanishes, each made monic and scaled by the gcd ``delta`` of the
    leading coefficients at ``a``; it has degree in y at most ``n - 1``
    below.  A gcd at a point never has a smaller leading monomial than the
    true one, so only the points with the least one seen are kept.  The
    candidate from ``n`` of them is accepted when it divides both sides: it
    then divides the gcd and shares its leading monomial.  If it does not,
    every kept point was unlucky.
    """
    rows_f, rows_g = _rows_in_last(f), _rows_in_last(g)
    content: List[int] = []
    for row in [*rows_f.values(), *rows_g.values()]:
        content = _u_gcd(content, row, p)
    narrow = len(next(iter(f))) - 1
    if not narrow:
        return _poly_of_rows({(): content})
    lead_f, lead_g = rows_f[max(rows_f)], rows_g[max(rows_g)]
    delta = _u_gcd(lead_f, lead_g, p)
    n = min(max(map(len, rows_f.values())), max(map(len, rows_g.values()))) + len(delta) - 1
    top, points, images = None, [], []
    for a in range(1, 4 * n + 64):
        if not (_u_eval(lead_f, a, p) and _u_eval(lead_g, a, p)):
            continue
        image = _gcd_mod(_eval_rows(rows_f, a, p), _eval_rows(rows_g, a, p), p)
        if image is None:
            continue
        lead = max(image)
        if not any(lead):
            return _poly_of_rows({(0,) * narrow: content})
        if top is None or lead < top:
            top, points, images = lead, [], []
        elif lead > top:
            continue
        scale = _u_eval(delta, a, p)
        points.append(a)
        images.append({m: c * scale % p for m, c in image.items()})
        if len(points) < n:
            continue
        rows = _interpolate_rows(points, images, p)
        common: List[int] = []
        for row in rows.values():
            common = _u_gcd(common, row, p)
        rows = {m: _u_mul(_u_divmod(row, common, p)[0], content, p) for m, row in rows.items()}
        h = _poly_of_rows(rows)
        inverse = pow(h[max(h)], -1, p)
        h = {m: c * inverse % p for m, c in h.items()}
        if _p_divides(h, f, p) and _p_divides(h, g, p):
            return h
        top, points, images = None, [], []
    return None


def _rows_in_last(f: _Poly) -> Dict[Tuple[int, ...], List[int]]:
    """``f`` as ``{monomial in the other variables: dense row in the last}``."""
    rows: Dict[Tuple[int, ...], List[int]] = {}
    for m, c in f.items():
        row = rows.setdefault(m[:-1], [])
        if len(row) <= m[-1]:
            row.extend([0] * (m[-1] + 1 - len(row)))
        row[m[-1]] = c
    return rows


def _poly_of_rows(rows: Dict[Tuple[int, ...], List[int]]) -> _Poly:
    return {m + (e,): c for m, row in rows.items() for e, c in enumerate(row) if c}


def _eval_rows(rows: Dict[Tuple[int, ...], List[int]], a: int, p: int) -> _Poly:
    return {m: v for m, row in rows.items() if (v := _u_eval(row, a, p))}


def _interpolate_rows(
    points: List[int], images: List[_Poly], p: int
) -> Dict[Tuple[int, ...], List[int]]:
    """The rows in the last variable that take the values ``images[i]`` at
    ``points[i]`` (Lagrange)."""
    master = [1]
    for a in points:
        master = _u_mul(master, [-a % p, 1], p)
    rows: Dict[Tuple[int, ...], List[int]] = {}
    for a, image in zip(points, images):
        basis = _u_divmod(master, [-a % p, 1], p)[0]
        weight = pow(_u_eval(basis, a, p), -1, p)
        for m, v in image.items():
            row = rows.setdefault(m, [0] * len(basis))
            for e, c in enumerate(basis):
                row[e] = (row[e] + v * weight * c) % p
    for row in rows.values():
        while row and not row[-1]:
            row.pop()
    return {m: row for m, row in rows.items() if row}


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


def _is_int(x: object) -> bool:
    return type(x) is int


def _fraction_from_json(data: object, what: str) -> Fraction:
    """A ``[numerator, denominator]`` pair of ints with a nonzero denominator."""
    if not (isinstance(data, list) and len(data) == 2 and all(map(_is_int, data))):
        raise ValueError(f"{what} must be a pair of integers, got {data!r}")
    if data[1] == 0:
        raise ValueError(f"{what} has a zero denominator")
    return Fraction(data[0], data[1])


def _p_from_json(data: object, width: int) -> _Poly:
    """A polynomial from ``[[exponents, [p, q]], ...]``; zero terms are dropped.

    Exponents are ints from 0 to :data:`MAX_EXPONENT`, one per symbol of the
    table, and no monomial repeats; anything else raises :class:`ValueError`.
    """
    if not isinstance(data, list):
        raise ValueError(f"polynomial must be a list of terms, got {data!r}")
    out: _Poly = {}
    for term in data:
        if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], list)):
            raise ValueError(f"polynomial term must be [exponents, coefficient], got {term!r}")
        mono = tuple(term[0])
        if len(mono) != width:
            raise ValueError("monomial width does not match symbol table")
        if not all(_is_int(e) and e >= 0 for e in mono):
            raise ValueError(f"monomial exponents must be non-negative ints, got {term[0]!r}")
        if any(e > MAX_EXPONENT for e in mono):
            raise ValueError(f"monomial exponent above {MAX_EXPONENT} in {term[0]!r}")
        if mono in out:
            raise ValueError(f"monomial {term[0]!r} repeats")
        c = _fraction_from_json(term[1], "polynomial coefficient")
        if c:
            out[mono] = c
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

    Normalization divides ``num`` and ``den`` by their gcd.  The gcd splits
    off the monomial content of each first, which settles every gcd of a
    monomial and a polynomial at once; other pairs go to the heuristic gcd
    GCDHEU and, when it gives up, to Brown's modular gcd.  Both are
    bounded: neither builds the swelling remainders of a Euclidean
    sequence.

    Normalization and arithmetic skip the polynomial work whenever a side is
    constant, rational operands combine their ``rat`` alone, and a zero
    operand returns at once.  These invariants make that safe and cheap:

    - every coefficient of ``num`` and ``den`` is a Python ``int`` (their
      content is 1), so ``rat`` is the one ``Fraction`` of a Scalar; an
      integral ``Fraction`` prints, serializes and hashes like its int, so
      the stored form does not show in ``str``, ``to_json`` or ``hash``;

    - every zero Scalar holds the one interned ``Fraction(0)`` as its
      ``rat`` (``__init__`` replaces any zero value by it), so
      :meth:`is_zero` is an identity test;
    - a constant ``num`` or ``den`` is always the one unit polynomial shared
      by every table of the same width, so rationals are told apart by
      identity;
    - no code mutates a Scalar's ``num`` or ``den`` in place: Scalars share
      these dicts with each other, with the inputs they were built from and
      with the unit polynomial.  A product with the unit polynomial is the
      other factor itself, not a copy, so a Scalar times a rational, or
      scaled, keeps its ``num`` and ``den``.

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
            rat = Fraction(
                rat.numerator * next(iter(num.values())),
                rat.denominator * next(iter(den.values())),
            )
            num = den = unit
        else:
            cn, num = _p_primitive(num)
            cd, den = _p_primitive(den)
            if cn != 1 or cd != 1 or type(rat) is not Fraction:
                rat = Fraction(rat.numerator * cn, rat.denominator * cd)
            # The gcd of a constant and anything is 1.  The quotients of two
            # primitive, positive-leading polynomials by their gcd are again
            # primitive and positive-leading (Gauss's lemma), so ``rat``
            # stays as it is.
            if not (_p_is_const(num) or _p_is_const(den)):
                g = _p_gcd(num, den)
                if not _p_is_const(g):
                    num = _p_div_exact(num, g)
                    den = _p_div_exact(den, g)
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
        return self.rat is _ZERO

    def is_rational(self) -> bool:
        return self.num is self.den

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

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------
    #
    # ``x.num is x.den`` holds exactly for rationals (both are the shared unit
    # polynomial); two rational operands combine their ``rat`` alone.  A zero
    # operand (``x.rat is _ZERO``) returns an operand or its negation without
    # any arithmetic: Scalars are immutable, so sharing one is safe.

    def _check(self, other: "Scalar") -> None:
        if self.table is not other.table and self.table != other.table:
            raise SymbolTableMismatch(
                "cannot combine scalars over different symbol tables"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.rat is _ZERO:
            return self
        if self.rat is _ZERO:
            return other
        if self.num is self.den and other.num is other.den:
            return Scalar(self.table, self.rat + other.rat, self.num, self.den)
        return self._combine(other, 1)

    def __neg__(self) -> "Scalar":
        return Scalar(self.table, -self.rat, self.num, self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.rat is _ZERO:
            return self
        if self.num is self.den and other.num is other.den:
            return Scalar(self.table, self.rat - other.rat, self.num, self.den)
        if self.rat is _ZERO:
            return -other
        return self._combine(other, -1)

    def _combine(self, other: "Scalar", sign: int) -> "Scalar":
        """``self + sign * other`` for nonzero operands, over the lcm of the
        two ``rat`` denominators: the numerators become integer multiples of
        int polynomials."""
        a, b = self.rat, other.rat
        g = _int_gcd(a.denominator, b.denominator)
        num = _p_add(
            _p_scale(_p_mul(self.num, other.den), a.numerator * (b.denominator // g)),
            _p_scale(_p_mul(other.num, self.den), sign * b.numerator * (a.denominator // g)),
        )
        rat = Fraction(1, a.denominator // g * b.denominator)
        return Scalar(self.table, rat, num, _p_mul(self.den, other.den))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if self.rat is _ZERO:
            return self
        if other.rat is _ZERO:
            return other
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
        if other.rat is _ZERO:
            raise ZeroDivisionError("scalar division by zero")
        if self.rat is _ZERO:
            return self
        if self.num is self.den and other.num is other.den:
            return Scalar(self.table, self.rat / other.rat, self.num, self.den)
        return Scalar(
            self.table,
            self.rat / other.rat,
            _p_mul(self.num, other.den),
            _p_mul(self.den, other.num),
        )

    def scale(self, c: int | Fraction) -> "Scalar":
        if self.rat is _ZERO:
            return self
        if not c:
            return Scalar.zero(self.table)
        return Scalar(self.table, self.rat * c, self.num, self.den)

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
        # Equal Scalars are both rational or both not (shared unit invariant);
        # zero, the common case, hashes like Fraction(0) without computing it.
        if self.rat is _ZERO:
            return 0
        if self.num is self.den:
            return hash(self.rat)
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
        """The Scalar of :meth:`to_json`; malformed data raises ValueError.

        ``rat`` and every coefficient are ``[p, q]`` pairs of ints with
        ``q != 0``, each monomial lists one int from 0 to :data:`MAX_EXPONENT`
        per symbol of the table, and the denominator polynomial is nonzero.

        >>> t = SymbolTable(["mu"])
        >>> print(Scalar.from_json(t, {"rat": [1, 2], "num": [[[1], [1, 1]]], "den": [[[0], [1, 1]]]}))
        1/2*mu
        >>> Scalar.from_json(t, {"rat": [1, 0], "num": [], "den": []})
        Traceback (most recent call last):
            ...
        ValueError: scalar rat has a zero denominator
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"scalar must be an object, got {data!r}")
        width = len(table)
        rat = _fraction_from_json(data["rat"], "scalar rat")
        num = _p_from_json(data["num"], width)
        den = _p_from_json(data["den"], width)
        if not den:
            raise ValueError("scalar has a zero denominator polynomial")
        return cls(table, rat, num, den)


# ---------------------------------------------------------------------------
# Monomial expansion
# ---------------------------------------------------------------------------


def _numerator_over(s: Scalar, den: _Poly) -> Dict[Tuple[int, ...], Fraction]:
    """The coefficients of the polynomial ``s * den``.

    Raises :class:`ArithmeticError` when the denominator of ``s`` does not
    divide ``den``, that is when ``s * den`` is not a polynomial.
    """
    if s.rat is _ZERO:
        return {}
    if s.den is den:
        cofactor = s.num
    elif s.den is s.table._unit:
        cofactor = _p_mul(s.num, den)
    else:
        cofactor = _p_mul(s.num, _p_div_exact(den, s.den))
    return {m: c * s.rat for m, c in cofactor.items()}


def monomial_vectors(
    scalars: Sequence[Scalar],
) -> Tuple[List[List[Fraction]], List[Tuple[int, ...]], _Poly]:
    """The coefficient vectors of :func:`monomial_expansion` with the
    monomials and the common denominator in place of its basis Scalars:
    ``(vectors, monomials, den)``.

    ``den`` is the lcm of the scalars' denominators, and ``vectors[i]``
    holds the coefficients of ``scalars[i] * den`` at the sorted
    ``monomials``.  A further scalar ``t`` is a Q-combination of the
    scalars only if ``t * den`` is a polynomial in these monomials (see
    :func:`_numerator_over`).
    """
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
    numerators = [_numerator_over(s, den) for s in scalars]
    monos = sorted({m for v in numerators for m in v})
    return [[v.get(m, _ZERO) for m in monos] for v in numerators], monos, den


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
    vectors, monos, den = monomial_vectors(scalars)
    table = scalars[0].table
    return vectors, [Scalar(table, _ONE, {m: 1}, den) for m in monos]


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


class IntMatrix:
    """An immutable arbitrary-precision integer matrix: the key and the
    results of :func:`smith_normal_form`.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> a.nrows, a.ncols, a.diagonal()
    (2, 2, [1, 4])
    >>> a == IntMatrix(((1, 2), (3, 4)))
    True
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

    def diagonal(self) -> List[int]:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def smith_normal_form(a: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns ``(u, d, v)``.

    ``u`` and ``v`` are unimodular, ``d = u * a * v`` is diagonal with
    nonnegative entries satisfying ``d[0] | d[1] | ...``.

    The factorization also tracks the inverse of ``v``: the memo
    ``_snf_cached`` holds ``((u, d, v), v_inv)`` (see
    :func:`_smith_normal_form`), and this function returns its first part.
    Results are memoized on the (immutable) matrix in a bounded cache of
    ``SNF_CACHE_SIZE`` entries, so a repeated matrix shares one result.

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> d.diagonal()
    [2, 4]
    """
    return _snf_cached(a)[0]


def _smith_normal_form(
    a: IntMatrix,
) -> Tuple[Tuple[IntMatrix, IntMatrix, IntMatrix], IntMatrix]:
    """``((u, d, v), v_inv)``: the Smith form and the inverse of ``v``.

    Every column operation on ``v`` is the inverse row operation on
    ``v_inv`` and every column swap a row swap, so the inverse costs no
    elimination of its own.
    """
    nrows, ncols = a.nrows, a.ncols
    m = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    vinv = [list(r) for r in v]

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def pivot(t: int) -> Optional[Tuple[int, int]]:
        # The first entry of minimal nonzero magnitude in the trailing block,
        # row-major; nothing beats a unit, so the scan stops at the first one.
        best, best_abs = None, 0
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                if row[j]:
                    a = abs(row[j])
                    if best is None or a < best_abs:
                        best, best_abs = (i, j), a
                        if a == 1:
                            return best
        return best

    def diagonalize() -> None:
        t = 0
        while t < min(nrows, ncols):
            best = pivot(t)
            if best is None:
                return
            i, j = best
            if i != t:
                swap_rows(i, t)
            if j != t:
                swap_cols(j, t)
            # Row operations never touch row t and column operations never
            # touch column t, so a clean pass leaves both cleared.
            dirty = False
            p = m[t][t]
            for i in range(nrows):
                if i != t and m[i][t] != 0:
                    row_op(i, t, m[i][t] // p)
                    if m[i][t] != 0:
                        dirty = True
            mt = m[t]
            for j in range(ncols):
                if mt[j] != 0 and j != t:
                    col_op(j, t, mt[j] // p)
                    if mt[j] != 0:
                        dirty = True
            if not dirty:
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
    return (
        (IntMatrix._of_int_rows(u), IntMatrix._of_int_rows(m), IntMatrix._of_int_rows(v)),
        IntMatrix._of_int_rows(vinv),
    )


# Bound of the Smith form memo: enough for the distinct matrices one
# cohomology computation revisits, small enough to keep memory flat.
SNF_CACHE_SIZE = 128
_snf_cached = lru_cache(maxsize=SNF_CACHE_SIZE)(_smith_normal_form)


def _selftest() -> None:  # pragma: no cover
    import doctest

    doctest.testmod()


if __name__ == "__main__":  # pragma: no cover
    _selftest()
