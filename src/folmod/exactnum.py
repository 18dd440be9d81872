"""Exact scalar and integer-matrix arithmetic.

Everything downstream (group presentations, cohomology, moduli reports) is
computed over the field Q(x_1, ..., x_n) of rational functions in finitely
many formal symbols, with rational coefficients.  Scalars are kept in a
canonical normal form -- a reduced ratio of primitive polynomials with
Python int coefficients, times one rational content, a Python ``int`` when
it is integral and a ``Fraction`` otherwise -- so equality is decidable and
serialized output is reproducible byte for byte.  No floating point number
ever enters a result.

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
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from heapq import heapify, heappop, heappush
from operator import neg, sub
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
# coefficients too.  Only a polynomial given to ``Scalar.__init__`` from
# outside the arithmetic (``_p_from_json`` reads them, and
# ``folmod.foliation.parse_scalar`` collects sums) may carry ``Fraction``
# coefficients, until ``_p_primitive`` clears them.
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
    does not divide ``a``.  The quotient's terms come in decreasing
    graded-lex order.

    Each step takes the leading monomial of the remainder from a heap of
    its pending monomials in graded-lex order (Johnson 1974, SIGSAM Bull.
    8(3)), so a step costs a few heap operations per term of ``b`` instead
    of a scan of the whole remainder.  A monomial is pushed when it enters
    the remainder; one that cancelled since is skipped when it comes up.
    The heap keys are negated, as ``heapq`` pops the least.  A one-term
    ``b`` changes no term of the remainder but the one it divides, so the
    leading terms are those of ``a`` in order, and no heap is kept.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lm_b, lc_b = _p_leading(b)
    inverse = pow(lc_b, -1, p) if p else 0
    q: _Poly = {}

    def step(lm_r: Tuple[int, ...], lc_r: int) -> Tuple[Tuple[int, ...], int]:
        mono = tuple(x - y for x, y in zip(lm_r, lm_b))
        c, rem = (lc_r * inverse % p, 0) if p else divmod(lc_r, lc_b)
        if rem or any(e < 0 for e in mono):
            raise ArithmeticError("inexact polynomial division")
        q[mono] = c
        return mono, c

    if len(b) == 1:
        for m in sorted(a, key=_grlex_key, reverse=True) if len(a) > 1 else a:
            step(m, a[m])
        return q
    r = dict(a)
    heap = [(-sum(m), tuple(map(neg, m))) for m in r]
    heapify(heap)
    while r:
        lm_r = tuple(map(neg, heappop(heap)[1]))
        lc_r = r.get(lm_r)
        if lc_r is None:
            continue
        mono, c = step(lm_r, lc_r)
        for m, v in b.items():
            m = tuple(x + y for x, y in zip(mono, m))
            s = r.get(m, 0) - c * v
            if p:
                s %= p
            if not s:
                del r[m]
                continue
            if m not in r:
                heappush(heap, (-sum(m), tuple(map(neg, m))))
            r[m] = s
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
# Rational contents: an int when integral, otherwise a Fraction whose
# denominator is greater than 1.  In Python ``int / int`` is a float, so
# every quotient below is built exactly.
# ---------------------------------------------------------------------------


def _stored_rat(x: int | Fraction) -> int | Fraction:
    """``x`` in stored form: an integral ``Fraction`` becomes its numerator."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _ratio(n: int, d: int) -> int | Fraction:
    """``n / d`` in stored form for ints ``n`` and ``d != 0``: ``n // d``
    when ``d`` divides ``n``, ``Fraction(n, d)`` otherwise."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _times_ratio(x: int | Fraction, a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """``x * a / b`` in stored form for rationals ``x``, ``a`` and ``b != 0``."""
    return _ratio(
        x.numerator * a.numerator * b.denominator,
        x.denominator * a.denominator * b.numerator,
    )


def _check_rational(c: object) -> None:
    if type(c) is not int and type(c) is not Fraction:
        raise TypeError(f"expected an int or a Fraction, got {type(c).__name__} {c!r}")


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """An exact element of Q(symbols) in canonical normal form.

    The value is ``rat * num / den`` where ``rat`` is a nonzero rational and
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
    operand returns at once.  Negation, scaling by a nonzero rational and a
    product or quotient with a nonzero rational operand keep ``num`` and
    ``den`` as they are and skip normalization (:meth:`_from_stored`).
    These invariants make that safe and cheap:

    - every coefficient of ``num`` and ``den`` is a Python ``int`` (their
      content is 1), so ``rat`` holds all of the rational content;
    - a nonzero ``rat`` is a Python ``int`` when it is integral and
      otherwise a ``Fraction`` whose denominator is greater than 1, never a
      ``float`` or a ``bool``; an int prints, serializes and hashes like the
      ``Fraction`` of the same value, so the stored form does not show in
      ``str``, ``to_json`` or ``hash``;
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

    def __init__(self, table: SymbolTable, rat: int | Fraction, num: _Poly, den: _Poly):
        # Normalization happens here so every constructed Scalar is canonical.
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        unit = table._unit
        if not rat or not num:
            rat, num, den = _ZERO, unit, unit
        elif num is unit and den is unit:
            rat = _stored_rat(rat)
        elif _p_is_const(num) and _p_is_const(den):
            rat = _times_ratio(rat, next(iter(num.values())), next(iter(den.values())))
            num = den = unit
        else:
            cn, num = _p_primitive(num)
            cd, den = _p_primitive(den)
            rat = _times_ratio(rat, cn, cd) if cn != 1 or cd != 1 else _stored_rat(rat)
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
    def _from_stored(cls, table: SymbolTable, rat: int | Fraction, num: _Poly, den: _Poly) -> "Scalar":
        """The Scalar ``rat * num / den`` from parts already in stored form,
        kept as they are: no normalization, no gcd.

        The caller guarantees the invariants of the class: ``rat`` is a
        nonzero int or a ``Fraction`` with denominator > 1, and ``num`` and
        ``den`` are coprime, primitive, positive-leading int polynomials
        over ``table``, a constant one being the shared unit polynomial.
        They hold for the ``num`` and ``den`` of a nonzero Scalar, and for
        the two swapped, so negation, scaling by a nonzero rational and a
        product or quotient with a nonzero rational operand build their
        results here.
        """
        s = object.__new__(cls)
        s.table = table
        s.rat = rat
        s.num = num
        s.den = den
        return s

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
    def rational(cls, table: SymbolTable, p: int | Fraction, q: int | Fraction = 1) -> "Scalar":
        """The rational ``p / q``; ``p`` and ``q`` are ints or Fractions.

        >>> t = SymbolTable(["mu"])
        >>> Scalar.rational(t, 6, 3).rat, Scalar.rational(t, 3, 6).rat
        (2, Fraction(1, 2))
        >>> Scalar.rational(t, 0.5)
        Traceback (most recent call last):
            ...
        TypeError: expected an int or a Fraction, got float 0.5
        """
        _check_rational(p)
        _check_rational(q)
        unit = table._unit
        return cls(table, _times_ratio(p, 1, q), unit, unit)

    @classmethod
    def symbol(cls, table: SymbolTable, name: str) -> "Scalar":
        # A one-term monomial with coefficient 1 over the unit is canonical.
        return cls._from_stored(table, 1, _p_sym(len(table), table.index(name)), table._unit)

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
        if self.rat is _ZERO:
            return self
        return Scalar._from_stored(self.table, -self.rat, self.num, self.den)

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
        da, db = a.denominator, b.denominator
        g = _int_gcd(da, db)
        num = _p_add(
            _p_scale(_p_mul(self.num, other.den), a.numerator * (db // g)),
            _p_scale(_p_mul(other.num, self.den), sign * b.numerator * (da // g)),
        )
        return Scalar(self.table, _ratio(1, da // g * db), num, _p_mul(self.den, other.den))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if self.rat is _ZERO:
            return self
        if other.rat is _ZERO:
            return other
        rat = self.rat * other.rat
        if other.num is other.den:
            return Scalar._from_stored(self.table, _stored_rat(rat), self.num, self.den)
        if self.num is self.den:
            return Scalar._from_stored(self.table, _stored_rat(rat), other.num, other.den)
        return Scalar(self.table, rat, _p_mul(self.num, other.num), _p_mul(self.den, other.den))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.rat is _ZERO:
            raise ZeroDivisionError("scalar division by zero")
        if self.rat is _ZERO:
            return self
        rat = _times_ratio(self.rat, 1, other.rat)
        if other.num is other.den:
            return Scalar._from_stored(self.table, rat, self.num, self.den)
        if self.num is self.den:
            return Scalar._from_stored(self.table, rat, other.den, other.num)
        return Scalar(
            self.table, rat, _p_mul(self.num, other.den), _p_mul(self.den, other.num)
        )

    def scale(self, c: int | Fraction) -> "Scalar":
        """``c * self`` for an int or Fraction ``c``; anything else, ``bool``
        and ``float`` included, raises :class:`TypeError`."""
        _check_rational(c)
        if self.rat is _ZERO:
            return self
        if not c:
            return Scalar.zero(self.table)
        return Scalar._from_stored(self.table, _stored_rat(self.rat * c), self.num, self.den)

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


def _numerator_over(s: Scalar, den: _Poly) -> Dict[Tuple[int, ...], int | Fraction]:
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
) -> Tuple[List[List[int | Fraction]], List[Tuple[int, ...]], _Poly]:
    """The coefficient vectors of :func:`monomial_expansion` with the
    monomials and the common denominator in place of its basis Scalars:
    ``(vectors, monomials, den)``.  A coefficient is an int or a
    ``Fraction``, as the scalars' ``rat`` are.

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
    return [[v.get(m, 0) for m in monos] for v in numerators], monos, den


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
    vectors = [[x if type(x) is Fraction else Fraction(x) for x in vec] for vec in vectors]
    return vectors, [Scalar(table, 1, {m: 1}, den) for m in monos]


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


class IntMatrix:
    """An immutable arbitrary-precision integer matrix: the argument and the
    results of the dense :func:`smith_normal_form`.  The pipelines never
    build one; their integer rows go to :func:`_smith_normal_form` as
    sparse dicts.

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

    ``u`` and ``v`` are unimodular and ``d = u * a * v`` is diagonal with
    nonnegative entries ``d[0] | d[1] | ...``, the nonzero ones first.
    ``d`` is unique; ``u`` and ``v`` are whichever transforms
    :func:`_smith_normal_form` finds, written out dense.

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> d.diagonal()
    [2, 4]
    """
    nrows, ncols = a.nrows, a.ncols
    rows = [{j: x for j, x in enumerate(row) if x} for row in a.rows]
    u, diag, v, _ = _smith_normal_form(rows, ncols)
    return (
        IntMatrix([[col.get(i, 0) for col in u] for i in range(nrows)]),
        IntMatrix([[diag[i] if i == j else 0 for j in range(ncols)] for i in range(nrows)]),
        IntMatrix([[col.get(i, 0) for col in v] for i in range(ncols)]),
    )


SparseInts = List[Dict[int, int]]


def _sub_multiple(dst: Dict[int, int], q: int, src: Mapping[int, int]) -> None:
    """``dst -= q * src`` over the nonzeros of ``src``; ``q != 0``."""
    for k, y in src.items():
        x = dst.get(k, 0) - q * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def _mix(p: int, x: Mapping[int, int], q: int, y: Mapping[int, int]) -> Dict[int, int]:
    """``p * x + q * y`` of two sparse vectors."""
    out = {}
    for k in x.keys() | y.keys():
        c = p * x.get(k, 0) + q * y.get(k, 0)
        if c:
            out[k] = c
    return out


def _smith_normal_form(
    rows: Sequence[Mapping[int, int]], ncols: int, inverse: bool = False
) -> Tuple[SparseInts, List[int], SparseInts, Optional[SparseInts]]:
    """``(u, d, v, v_inv)`` with ``u a v = diag(d)``, for the matrix ``a``
    whose rows are ``rows`` (``{column: entry}``, zeros left out) over
    ``ncols`` columns.

    The contract, and all a caller may rely on: ``u`` and ``v`` are
    unimodular, given as lists of columns ``{row: entry}``; ``d`` holds the
    ``min(nrows, ncols)`` diagonal entries, nonnegative, nonzero ones
    first, each dividing the next; ``v_inv`` is the rows of the inverse of
    ``v`` if ``inverse`` is set (the discrete Smith step of ``abgroup``
    reads it) and None otherwise.  ``d`` is unique; which ``u`` and ``v``
    come back is not part of the contract.

    The matrix is held as rows with the set of rows each column meets, so
    pivot search, row and column operations and swaps touch only nonzeros.
    The pivot is an entry of least magnitude in the trailing block.  Every
    column operation on ``v`` is the inverse row operation on ``v_inv`` and
    every column swap a row swap, so the inverse costs no elimination of
    its own.  The divisibility chain is then repaired on the diagonal:
    ``(d_i, d_j)`` becomes ``(gcd, lcm)`` by 2x2 unimodular factors on
    ``u``, ``v`` and ``v_inv`` (Kannan & Bachem 1979; Cohen, GTM 138, 2.4).
    """
    nrows = len(rows)
    size = min(nrows, ncols)
    m = [dict(row) for row in rows]
    meets: List[set] = [set() for _ in range(ncols)]  # the rows column j meets
    for i, row in enumerate(m):
        for j in row:
            meets[j].add(i)
    u = [{i: 1} for i in range(nrows)]  # rows, transposed on return
    v = [{j: 1} for j in range(ncols)]  # columns
    vinv = [{j: 1} for j in range(ncols)] if inverse else None  # rows

    def row_op(i: int, t: int, q: int) -> None:  # row_i -= q * row_t
        row = m[i]
        for k, y in m[t].items():
            x = row.get(k, 0) - q * y
            if x:
                row[k] = x
                meets[k].add(i)
            else:
                del row[k]
                meets[k].discard(i)
        _sub_multiple(u[i], q, u[t])

    def col_op(j: int, t: int, q: int, rows: List[int]) -> None:
        # col_j -= q * col_t, where column t meets exactly ``rows``.
        col = meets[j]
        for r in rows:
            row = m[r]
            x = row.get(j, 0) - q * row[t]
            if x:
                row[j] = x
                col.add(r)
            else:
                del row[j]
                col.discard(r)
        _sub_multiple(v[j], q, v[t])
        if vinv is not None:
            _sub_multiple(vinv[t], -q, vinv[j])

    def swap_rows(i: int, t: int) -> None:
        for k in m[i]:
            meets[k].discard(i)
        for k in m[t]:
            meets[k].discard(t)
        m[i], m[t] = m[t], m[i]
        u[i], u[t] = u[t], u[i]
        for k in m[i]:
            meets[k].add(i)
        for k in m[t]:
            meets[k].add(t)

    def swap_cols(j: int, t: int) -> None:
        for r in meets[j] | meets[t]:
            row = m[r]
            x, y = row.pop(j, 0), row.pop(t, 0)
            if x:
                row[t] = x
            if y:
                row[j] = y
        meets[j], meets[t] = meets[t], meets[j]
        v[j], v[t] = v[t], v[j]
        if vinv is not None:
            vinv[j], vinv[t] = vinv[t], vinv[j]

    t = 0
    while t < size:
        # Rows and columns before t hold only their diagonal entry, so the
        # trailing block is the rows from t on.  Nothing beats a unit, so
        # the scan stops after the first row that holds one.  An empty row
        # holds no candidate, so it costs no iterator.
        best, best_abs = None, 0
        for i in range(t, nrows):
            if not m[i]:
                continue
            for j, x in m[i].items():
                mag = -x if x < 0 else x
                if best is None or mag < best_abs:
                    best, best_abs = (i, j), mag
            if best_abs == 1:
                break
        if best is None:
            break
        i, j = best
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        # Row operations never touch row t and column operations never
        # touch column t, so a pass that leaves no remainder clears both.
        p = m[t][t]
        if len(meets[t]) > 1:
            for r in [r for r in meets[t] if r != t]:
                row_op(r, t, m[r][t] // p)
        if len(m[t]) > 1:
            rows_t = list(meets[t])
            for j, x in [(j, x) for j, x in m[t].items() if j != t]:
                col_op(j, t, x // p, rows_t)
        if len(meets[t]) == 1 and len(m[t]) == 1:
            t += 1

    d = [m[i].get(i, 0) for i in range(size)]
    rank = size - d.count(0)  # the nonzero entries come first
    for i in range(rank):
        if d[i] < 0:
            d[i] = -d[i]
            u[i] = {k: -x for k, x in u[i].items()}
    for i in range(rank):
        if d[i] == 1:
            continue  # a unit divides every later entry
        for j in range(i + 1, rank):
            if d[j] % d[i] == 0:
                continue
            # [[s, c], [-b, a]] diag(d_i, d_j) [[1, -c b], [1, s a]] is
            # diag(g, lcm), with a = d_i / g, b = d_j / g and s a + c b = 1.
            g = _int_gcd(d[i], d[j])
            a, b = d[i] // g, d[j] // g
            s = pow(a, -1, b)
            c = (1 - s * a) // b
            d[i], d[j] = g, d[j] * a
            u[i], u[j] = _mix(s, u[i], c, u[j]), _mix(-b, u[i], a, u[j])
            v[i], v[j] = _mix(1, v[i], 1, v[j]), _mix(-c * b, v[i], s * a, v[j])
            if vinv is not None:
                vinv[i], vinv[j] = _mix(s * a, vinv[i], c * b, vinv[j]), _mix(-1, vinv[i], 1, vinv[j])
    ucols: SparseInts = [{} for _ in range(nrows)]
    for i, row in enumerate(u):
        for k, x in row.items():
            ucols[k][i] = x
    return ucols, d, v, vinv
