"""Topological moduli of germs of singular holomorphic foliations.

This module turns the combinatorics of a resolved foliation germ — the dual
graph of the exceptional divisor, Camacho–Sad indices and local analytic
types at the singular points, and the analytic class of each component
holonomy — into the topological moduli group of the germ, presented through
graph cohomology with coefficients in presented abelian groups
(:mod:`folmod.gg`, :mod:`folmod.abgroup`).

The computation runs in stages, each exposed as its own operation:

0. :func:`validate` — one analysis reads the input once: the dual graph,
   the local type of every marked corner, the cut graph, the coloring, the
   singular chains, ``tau``, the two predicate verdicts and every
   violation.  The predicates, :func:`compute_moduli` and the command line
   read it, and the pipelines run only on input without violations.
1. :func:`build_dual_graph` / :func:`check_tc` — the weighted dual graph of
   the divisor and the position condition that every dicritical-free part
   carries a component with singular valency other than two.
2. :func:`build_cut_graph` — drop dicritical components and cut along nodal
   corners; the result is the incidence graph the sheaves live on.
3. :func:`color` — split the cut graph into its *green* part (finite local
   data) and *red* part ``R`` (infinite local data), and isolate the fully
   rigid locus ``R^0`` inside ``R``.  It keeps the local type of every cut
   edge, the :class:`SideType` its sides agree on, and the kind of every
   red vertex on the :class:`Coloring`; the later stages read them from
   there.  A :class:`SideType` checks its invariants when it is built, so
   no later stage checks them again.
4. :func:`build_sym_graph` / :func:`build_exp_graph` / :func:`build_dis_graph`
   — the sheaf ``Sym`` of transverse symmetries on ``R``, its flow part
   ``Exp`` and the totally discontinuous quotient ``Dis``, tied together by
   an elementwise short exact sequence ``0 -> Exp -> Sym -> Dis -> 0``;
   the last two builders return its inclusion and its projection, each a
   morphism that carries both its sheaves.
   Every restriction of ``Sym`` off the non-abelian vertices is one chart
   map: it multiplies the flow coordinate by ``gamma(e) / gamma(s1)``, the
   Camacho–Sad factor of the edge over that of the vertex's chart edge
   ``s1`` (``1`` in the vertex's own chart, so the map into ``s1`` is the
   identity), and fixes the discrete and atom parts.  The restrictions of
   ``Exp`` and ``Dis`` are induced from those of ``Sym``.
5. :func:`compute_moduli` — the two pipelines assembling ``H^1(R, Sym)``
   into a :class:`ModuliReport`, either through singular chains
   (non-degenerate case) or through zones and a four-term exact sequence
   ``Z^p -> C^tau -> Mod -> D -> 0`` (finite-type case).  It builds one SES
   and one LES, and both reports are views of them.

Inputs are plain data (:class:`MarkedDivisor`, :class:`SingularityData`,
:class:`VertexHolonomy`) and are read from a JSON document by
:func:`load_input`.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import count
from math import gcd, lcm
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .exactnum import MAX_EXPONENT, Scalar, SymbolTable, _p_mul, _stored_rat
from .abgroup import (
    GroupHom,
    HomError,
    PresentedAbelianGroup,
    Relation,
    NormalFormReport,
    block_hom,
    check_hom,
    classify,
    cokernel,
    compose,
    direct_sum,
    factor_through,
    identity_hom,
    is_exact_at,
    is_surjective,
    kernel,
    zero_hom,
    _disc_ident,
)
from .gg import (
    Graph,
    GroupGraph,
    GroupGraphMorphism,
    h1,
    long_exact_sequence,
    mayer_vietoris,
    prune_all,
    _check_count,
    _check_id,
    _cochains,
    _id_key,
)

__all__ = [
    "FoliationError",
    "TCviolated",
    "NotFiniteType",
    "PipelineError",
    "SideType",
    "SideData",
    "SingularityData",
    "Component",
    "Corner",
    "Attachment",
    "MarkedDivisor",
    "FiniteHolonomy",
    "AbelianInfiniteHolonomy",
    "NonabelianHolonomy",
    "VertexHolonomy",
    "SingularChain",
    "ChainCounts",
    "FourTermSequence",
    "ModuliReport",
    "build_dual_graph",
    "check_tc",
    "build_cut_graph",
    "color",
    "is_non_degenerate",
    "is_finite_type",
    "build_sym_graph",
    "build_exp_graph",
    "build_dis_graph",
    "compute_moduli",
    "validate",
    "FoliationInput",
    "load_input",
]

Id = Union[int, str]

SCHEMA_VERSION = 1

#: Symbol name reserved for the imaginary period of a linearizable local
#: flow; every input table that declares linearizable corners must carry it.
TAU_SYMBOL = "tau_i"

#: Largest product of operand term counts :func:`parse_scalar` multiplies
#: out in one ``*``, ``/`` or ``^`` step, or in a ``+`` or ``-`` step with a
#: non-polynomial operand, which multiplies each numerator by the other
#: denominator; a term count is that of the larger of numerator and
#: denominator.  A sum or difference of two polynomials only adds their
#: terms and is not bounded.  The bundled examples never exceed 1, and
#: ``(a+b+c+d+e)^6``, the highest power of a five-symbol sum that passes,
#: expands in milliseconds.
MAX_TERMS = 1000


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class FoliationError(ValueError):
    """Base class for errors raised by the foliation layer."""


class TCviolated(FoliationError):
    """The divisor fails the position condition on dicritical-free parts."""


class NotFiniteType(FoliationError):
    """The marked divisor is not of finite type; the witness is the message."""


class TypeHeterogeneity(FoliationError):
    """Local types that must agree (at a corner, a vertex or along a chain)
    do not."""


class UnsupportedSideData(FoliationError):
    """Side data that the symmetry model cannot realize (missing indices,
    incompatible parameters across a corner, failed transports)."""


def _int(value: object, name: str) -> int:
    """``value`` itself when it is an int; a bool, float or string raises."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FoliationError(f"{name} must be an integer, got {value!r}")
    return value


class PipelineError(RuntimeError):
    """An internal cross-check backed by a structure theorem failed."""


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise FoliationError(f"bad character in scalar expression: {text[pos:]!r}")
            break
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_scalar(table: SymbolTable, text: str) -> Scalar:
    """Parse an exact scalar expression over the given symbol table.

    The grammar covers integers, registered symbol names, ``+ - * /``,
    integer powers with ``^`` (exponents up to :data:`MAX_EXPONENT`) and
    parentheses; it accepts everything ``str(scalar)`` prints, so scalars
    round-trip through text.  A ``*``, ``/`` or ``^`` step whose operands'
    term counts multiply past :data:`MAX_TERMS` is refused, and so is a
    ``+`` or ``-`` step that does so with a non-polynomial operand.

    >>> t = SymbolTable(["alpha_t"])
    >>> str(parse_scalar(t, "-2*alpha_t"))
    '-2*alpha_t'
    >>> str(parse_scalar(t, "(-1/2)/(alpha_t)"))
    '(-1/2)/(alpha_t)'
    >>> parse_scalar(t, "3/6") == Scalar.rational(t, 1, 2)
    True
    >>> parse_scalar(t, "beta")
    Traceback (most recent call last):
        ...
    folmod.foliation.FoliationError: unknown symbol 'beta' in scalar expression
    >>> parse_scalar(t, "alpha_t^65")
    Traceback (most recent call last):
        ...
    folmod.foliation.FoliationError: exponent 65 exceeds 64 in scalar expression
    """
    tokens = _tokenize(text)
    pos = 0
    unit = Scalar.one(table).num  # the constant polynomial 1

    def size(a: Scalar) -> int:
        return max(len(a.num), len(a.den))

    def bounded(terms: int) -> None:
        if terms > MAX_TERMS:
            raise FoliationError(f"{terms} terms exceed {MAX_TERMS} in scalar expression")

    def peek() -> Optional[Tuple[str, str]]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> Tuple[str, str]:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise FoliationError(f"unexpected end of scalar expression: {text!r}")
        pos += 1
        return tok

    def parse_atom() -> Scalar:
        kind, value = take()
        if kind == "int":
            return Scalar.rational(table, int(value))
        if kind == "name":
            if value not in table:
                raise FoliationError(f"unknown symbol {value!r} in scalar expression")
            return Scalar.symbol(table, value)
        if value == "(":
            inner = parse_sum()
            kind, value = take()
            if value != ")":
                raise FoliationError(f"expected ')' in scalar expression: {text!r}")
            return inner
        raise FoliationError(f"unexpected {value!r} in scalar expression: {text!r}")

    def parse_power() -> Scalar:
        base = parse_atom()
        tok = peek()
        if tok is not None and tok[1] == "^":
            take()
            kind, value = take()
            if kind != "int":
                raise FoliationError("exponent must be a literal integer")
            n = int(value)
            if n > MAX_EXPONENT:
                raise FoliationError(f"exponent {n} exceeds {MAX_EXPONENT} in scalar expression")
            return power(base, n)
        return base

    def power(base: Scalar, n: int) -> Scalar:
        """``base ^ n``, refused where ``n`` successive products would be.

        The parts of ``base`` are coprime, primitive and positive-leading,
        and so are their powers, which are the parts of the result: no
        product is normalized.  Monomial parts stay one term, so their
        powers scale the exponents and pass every bound.  Otherwise each
        power comes from the one before, which keeps the bound's check on
        every step: the term counts of powers need not grow with ``n``, so
        square-and-multiply could not tell where the steps would stop.
        """
        if n == 0:
            return Scalar.one(table)
        if base.is_zero():
            return base
        num, den, terms = base.num, base.den, size(base)
        if terms == 1:
            # A one-term primitive part is a monomial with coefficient 1.
            num, den = (
                p if p is unit else {tuple(e * n for e in next(iter(p))): 1} for p in (num, den)
            )
        else:
            num = den = unit
            for _ in range(n):
                bounded(max(len(num), len(den)) * terms)
                num, den = _p_mul(num, base.num), _p_mul(den, base.den)
        return Scalar._from_stored(table, _stored_rat(base.rat**n), num, den)

    def parse_signed() -> Scalar:
        sign = 1
        while peek() is not None and peek()[1] in ("+", "-"):
            if take()[1] == "-":
                sign = -sign
        value = parse_power()
        return value if sign == 1 else -value

    def parse_product() -> Scalar:
        value = parse_signed()
        while peek() is not None and peek()[1] in ("*", "/"):
            op = take()[1]
            rhs = parse_signed()
            bounded(size(value) * size(rhs))
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise FoliationError("division by zero in scalar expression")
                value = value / rhs
        return value

    def parse_sum() -> Scalar:
        # Consecutive polynomial terms add into one coefficient dict, and the
        # Scalar is built once, when a non-polynomial term arrives or the sum
        # ends: normalizing the sum so far after each ``+`` made parsing
        # quadratic in the length of a sum.
        value = parse_product()
        poly: Optional[Dict[Tuple[int, ...], object]] = None  # the sum so far
        while peek() is not None and peek()[1] in ("+", "-"):
            sign = 1 if take()[1] == "+" else -1
            rhs = parse_product()
            if rhs.is_polynomial() and (poly is not None or value.is_polynomial()):
                if poly is None:
                    poly = {}
                    add_terms(poly, value, 1)
                add_terms(poly, rhs, sign)
                continue
            if poly is not None:
                value, poly = Scalar(table, 1, poly, unit), None
            bounded(size(value) * size(rhs))
            value = value + rhs if sign == 1 else value - rhs
        return value if poly is None else Scalar(table, 1, poly, unit)

    def add_terms(poly: Dict[Tuple[int, ...], object], p: Scalar, sign: int) -> None:
        """``poly += sign * p`` for a polynomial ``p``."""
        if p.is_zero():
            return
        c = sign * p.rat
        for mono, x in p.num.items():
            y = poly.get(mono, 0) + c * x
            if y:
                poly[mono] = y
            else:
                del poly[mono]

    if not tokens:
        raise FoliationError("empty scalar expression")
    out = parse_sum()
    if pos != len(tokens):
        raise FoliationError(f"trailing tokens in scalar expression: {text!r}")
    return out


# ---------------------------------------------------------------------------
# Local types at singular points
# ---------------------------------------------------------------------------

_KIND_LABEL = {
    "P": "periodic",
    "L1": "linearizable",
    "L0": "non_resonant_non_linearizable",
    "R1": "resonant_normalizable",
    "R0": "resonant_non_normalizable",
}


class SideType:
    """The analytic class of one local holonomy at a singular point.

    ``kind`` is ``"P"`` periodic, ``"L1"`` linearizable non-periodic,
    ``"L0"`` non-resonant non-linearizable, ``"R1"`` resonant normalizable
    or ``"R0"`` resonant non-normalizable.  The parameters mirror the
    standard invariants of germs of one-variable biholomorphisms, one
    keyword-only classmethod constructor per kind:

    * :meth:`periodic` — finite order ``q``;
    * :meth:`linearizable` — linearizable with non-periodic linear part;
    * :meth:`non_resonant_non_linearizable` — irrational rotation number,
      not linearizable; ``atom`` names the (opaque) analytic class of its
      centralizer quotient;
    * :meth:`resonant_normalizable` — embeddable in the exceptional flow,
      with resonance invariants ``(p, r)``;
    * :meth:`resonant_non_normalizable` — finite centralizer quotient,
      described by ``(p, r, m, beta_image_order)``; a missing
      ``beta_image_order`` is ``p``.

    The constructor enforces the invariants of each kind, so every instance
    is a valid local type and later stages read its parameters unchecked.

    >>> SideType.resonant_normalizable(p=3, r=1)
    SideType.resonant_normalizable(p=3, r=1)
    >>> SideType.periodic().kind
    'P'
    >>> SideType.resonant_non_normalizable(p=4, r=2, m=3, beta_image_order=2)
    SideType.resonant_non_normalizable(p=4, r=2, m=3, beta_image_order=2)
    >>> SideType("R0", p=4, r=2, m=1, beta_image_order=3)
    Traceback (most recent call last):
        ...
    folmod.foliation.FoliationError: beta_image_order must divide p, with p/beta_image_order dividing r
    """

    __slots__ = ("kind", "q", "atom", "p", "r", "m", "beta_image_order")

    def __init__(
        self,
        kind: str,
        *,
        q: Optional[int] = None,
        atom: Optional[str] = None,
        p: Optional[int] = None,
        r: Optional[int] = None,
        m: Optional[int] = None,
        beta_image_order: Optional[int] = None,
    ):
        if kind == "P":
            if _int(q, "q") < 1:
                raise FoliationError("a periodic local holonomy has order >= 1")
        elif kind == "L0":
            if not atom or not isinstance(atom, str):
                raise FoliationError("a non-linearizable local type needs an atom name")
        elif kind == "R1":
            if _int(p, "p") < 1 or _int(r, "r") < 0:
                raise FoliationError("resonant invariants need p >= 1 and r >= 0")
        elif kind == "R0":
            if _int(p, "p") < 1 or _int(r, "r") < 0 or _int(m, "m") < 1:
                raise FoliationError("resonant invariants need p >= 1, r >= 0, m >= 1")
            if beta_image_order is None:
                beta_image_order = p
            beta = _int(beta_image_order, "beta_image_order")
            if beta < 1 or p % beta != 0 or r % (p // beta) != 0:
                raise FoliationError(
                    "beta_image_order must divide p, with p/beta_image_order dividing r"
                )
        elif kind != "L1":
            raise FoliationError(f"unknown local type kind {kind!r}")
        self.kind = kind
        self.q = q
        self.atom = atom
        self.p = p
        self.r = r
        self.m = m
        self.beta_image_order = beta_image_order

    @classmethod
    def periodic(cls, q: int = 1) -> "SideType":
        return cls("P", q=q)

    @classmethod
    def linearizable(cls) -> "SideType":
        return cls("L1")

    @classmethod
    def non_resonant_non_linearizable(cls, atom: str) -> "SideType":
        return cls("L0", atom=atom)

    @classmethod
    def resonant_normalizable(cls, p: int, r: int) -> "SideType":
        return cls("R1", p=p, r=r)

    @classmethod
    def resonant_non_normalizable(
        cls, p: int, r: int, m: int, beta_image_order: Optional[int] = None
    ) -> "SideType":
        return cls("R0", p=p, r=r, m=m, beta_image_order=beta_image_order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SideType) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (self.kind, self.q, self.atom, self.p, self.r, self.m, self.beta_image_order)

    def __repr__(self) -> str:
        if self.kind == "P":
            return f"SideType.periodic(q={self.q})"
        if self.kind == "L1":
            return "SideType.linearizable()"
        if self.kind == "L0":
            return f"SideType.non_resonant_non_linearizable({self.atom!r})"
        if self.kind == "R1":
            return f"SideType.resonant_normalizable(p={self.p}, r={self.r})"
        return (
            f"SideType.resonant_non_normalizable(p={self.p}, r={self.r}, "
            f"m={self.m}, beta_image_order={self.beta_image_order})"
        )

    def to_json(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind}
        for name in ("q", "atom", "p", "r", "m", "beta_image_order"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "SideType":
        kind = _object(data, "a local type").get("kind")
        if kind == "P":
            return cls.periodic(data.get("q", 1))
        if kind == "L1":
            return cls.linearizable()
        if kind == "L0":
            return cls.non_resonant_non_linearizable(data["atom"])
        if kind == "R1":
            return cls.resonant_normalizable(data["p"], data["r"])
        if kind == "R0":
            return cls.resonant_non_normalizable(
                data["p"], data["r"], data["m"], data.get("beta_image_order")
            )
        raise FoliationError(f"unknown local type kind {kind!r}")


class SideData:
    """The data attached to one side (point, component) of a singular point:
    the Camacho–Sad index ``cs`` along that component (exact, possibly
    symbolic), the local type, and whether the point is nodal."""

    __slots__ = ("cs", "type", "nodal")

    def __init__(self, *, cs: Optional[Scalar] = None, type: SideType, nodal: bool = False):
        self.cs = cs
        self.type = type
        self.nodal = bool(nodal)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SideData)
            and self.cs == other.cs
            and self.type == other.type
            and self.nodal == other.nodal
        )

    def __repr__(self) -> str:
        cs = "None" if self.cs is None else f"'{self.cs}'"
        return f"SideData(cs={cs}, type={self.type!r}, nodal={self.nodal})"


class SingularityData:
    """Per-side data of all marked singular points, over one symbol table.

    Keys are ``(point id, component id)`` pairs; a corner has up to two
    sides, an attachment at most one.

    >>> t = SymbolTable(["alpha_t", "tau_i"])
    >>> sing = SingularityData(t, {
    ...     ("s", 0): SideData(cs=parse_scalar(t, "-1/2"), type=SideType.linearizable()),
    ... })
    >>> sing.side("s", 0).type.kind
    'L1'
    >>> sing.side("s", 1) is None
    True
    """

    __slots__ = ("table", "_sides")

    def __init__(self, table: SymbolTable, sides: Mapping[Tuple[Id, Id], SideData]):
        self.table = table
        items: Dict[Tuple[Id, Id], SideData] = {}
        for (point, comp), data in sides.items():
            for x in (point, comp):
                _check_id(x)
            if not isinstance(data, SideData):
                raise FoliationError(f"side ({point!r}, {comp!r}) is not SideData")
            if data.cs is not None and data.cs.table != table:
                raise FoliationError(
                    f"side ({point!r}, {comp!r}) has an index over a foreign table"
                )
            items[(point, comp)] = data
        self._sides = items

    def side(self, point: Id, comp: Id) -> Optional[SideData]:
        """The side data at ``(point, comp)``, or ``None`` when not given."""
        return self._sides.get((point, comp))

    def items(self) -> Tuple[Tuple[Tuple[Id, Id], SideData], ...]:
        return tuple(
            sorted(self._sides.items(), key=lambda kv: (_id_key(kv[0][0]), _id_key(kv[0][1])))
        )

    def __repr__(self) -> str:
        return f"<SingularityData on {len(self._sides)} sides>"


# ---------------------------------------------------------------------------
# The marked divisor
# ---------------------------------------------------------------------------


class Component:
    """One irreducible component of the exceptional divisor."""

    __slots__ = ("id", "dicritical", "self_intersection", "topologically_rigid")

    def __init__(
        self,
        id: Id,
        *,
        dicritical: bool = False,
        self_intersection: Optional[int] = None,
        topologically_rigid: bool = False,
    ):
        _check_id(id)
        self.id = id
        self.dicritical = bool(dicritical)
        self.self_intersection = (
            None if self_intersection is None else _int(self_intersection, "self_intersection")
        )
        self.topologically_rigid = bool(topologically_rigid)

    def __repr__(self) -> str:
        flags = []
        if self.dicritical:
            flags.append("dicritical")
        if self.topologically_rigid:
            flags.append("rigid")
        return f"Component({self.id!r}{', ' + ', '.join(flags) if flags else ''})"


class Corner:
    """A crossing point of two distinct components."""

    __slots__ = ("id", "components", "in_sigma")

    def __init__(self, id: Id, components: Sequence[Id], *, in_sigma: bool = True):
        comps = tuple(components)
        for x in (id, *comps):
            _check_id(x)
        if len(comps) != 2 or comps[0] == comps[1]:
            raise FoliationError(f"corner {id!r} must join two distinct components")
        self.id = id
        self.components = comps
        self.in_sigma = bool(in_sigma)

    def __repr__(self) -> str:
        return f"Corner({self.id!r}, {self.components!r}, in_sigma={self.in_sigma})"


class Attachment:
    """A marked singular point lying on a single component (a trace of the
    strict transform, or any non-corner singular point)."""

    __slots__ = ("id", "component", "in_sigma")

    def __init__(self, id: Id, component: Id, *, in_sigma: bool = True):
        for x in (id, component):
            _check_id(x)
        self.id = id
        self.component = component
        self.in_sigma = bool(in_sigma)

    def __repr__(self) -> str:
        return f"Attachment({self.id!r}, on={self.component!r})"


class MarkedDivisor:
    """The combinatorics of a resolved divisor: components, corners and
    attachments, with point ids shared between corners and attachments.

    >>> d = MarkedDivisor(
    ...     components=[Component(0), Component(1)],
    ...     corners=[Corner("s", (0, 1))],
    ...     attachments=[Attachment("a", 0)],
    ... )
    >>> d.val_sigma()[0]
    2
    >>> d.sigma_points(1)
    ('s',)
    """

    __slots__ = ("components", "corners", "attachments", "_by_id", "_sigma")

    def __init__(
        self,
        *,
        components: Iterable[Component],
        corners: Iterable[Corner] = (),
        attachments: Iterable[Attachment] = (),
    ):
        self.components = tuple(components)
        self.corners = tuple(corners)
        self.attachments = tuple(attachments)
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise FoliationError("duplicate component id")
        point_ids = [x.id for x in self.corners] + [x.id for x in self.attachments]
        if len(set(point_ids)) != len(point_ids):
            raise FoliationError("duplicate singular point id")
        if set(ids) & set(point_ids):
            raise FoliationError("a point id collides with a component id")
        known = set(ids)
        for corner in self.corners:
            for c in corner.components:
                if c not in known:
                    raise FoliationError(
                        f"corner {corner.id!r} references unknown component {c!r}"
                    )
        for att in self.attachments:
            if att.component not in known:
                raise FoliationError(
                    f"attachment {att.id!r} references unknown component {att.component!r}"
                )
        self._by_id = {c.id: c for c in self.components}
        sigma: Dict[Id, List[Id]] = {c: [] for c in ids}
        for corner in self.corners:
            if corner.in_sigma:
                for c in dict.fromkeys(corner.components):
                    sigma[c].append(corner.id)
        for att in self.attachments:
            if att.in_sigma:
                sigma[att.component].append(att.id)
        self._sigma = {c: tuple(sorted(pts, key=_id_key)) for c, pts in sigma.items()}

    def component(self, id: Id) -> Component:
        return self._by_id[id]

    def invariant_components(self) -> Tuple[Id, ...]:
        return tuple(c.id for c in self.components if not c.dicritical)

    def sigma_points(self, comp: Id) -> Tuple[Id, ...]:
        """Ids of the marked singular points lying on the component."""
        return self._sigma.get(comp, ())

    def val_sigma(self) -> Dict[Id, int]:
        """Singular valency of every component (number of marked points)."""
        return {c: len(pts) for c, pts in self._sigma.items()}

    def __repr__(self) -> str:
        return (
            f"<MarkedDivisor {len(self.components)} components, "
            f"{len(self.corners)} corners, {len(self.attachments)} attachments>"
        )


# ---------------------------------------------------------------------------
# Holonomy data
# ---------------------------------------------------------------------------


class FiniteHolonomy:
    """A finite (hence cyclic) component holonomy group of order ``n``;
    ``orders[point]`` is the order of the local holonomy at each marked
    point of the component."""

    __slots__ = ("n", "orders")

    kind = "finite"

    def __init__(self, n: int, orders: Optional[Mapping[Id, int]] = None):
        if _int(n, "n") < 1:
            raise FoliationError("a finite holonomy group has order >= 1")
        self.n = n
        self.orders = dict(orders or {})
        for point, order in self.orders.items():
            if _int(order, f"local holonomy order at {point!r}") < 1:
                raise FoliationError(f"local holonomy order at {point!r} must be >= 1")

    def __repr__(self) -> str:
        return f"FiniteHolonomy(n={self.n}, orders={self.orders!r})"


class AbelianInfiniteHolonomy:
    """An infinite abelian component holonomy group."""

    __slots__ = ()

    kind = "abelian_infinite"

    def __repr__(self) -> str:
        return "AbelianInfiniteHolonomy()"


class NonabelianHolonomy:
    """A non-abelian component holonomy group; ``invariant_factors`` are the
    invariant factors of its (finite abelian) centralizer in the group of
    transverse symmetries."""

    __slots__ = ("invariant_factors",)

    kind = "nonabelian"

    def __init__(self, invariant_factors: Sequence[int] = ()):
        factors = tuple(_int(d, "each invariant factor") for d in invariant_factors)
        if any(d < 1 for d in factors):
            raise FoliationError("invariant factors must be >= 1")
        self.invariant_factors = factors

    def __repr__(self) -> str:
        return f"NonabelianHolonomy({self.invariant_factors!r})"


HolonomyClass = Union[FiniteHolonomy, AbelianInfiniteHolonomy, NonabelianHolonomy]


class VertexHolonomy:
    """The analytic class of the holonomy of every invariant component.

    >>> vh = VertexHolonomy({0: NonabelianHolonomy((2,)), 1: AbelianInfiniteHolonomy()})
    >>> vh.cls(0).kind
    'nonabelian'
    >>> vh.has(2)
    False
    """

    __slots__ = ("_classes",)

    def __init__(self, classes: Mapping[Id, HolonomyClass]):
        self._classes = dict(classes)
        for comp, cls in self._classes.items():
            _check_id(comp)
            if not isinstance(
                cls, (FiniteHolonomy, AbelianInfiniteHolonomy, NonabelianHolonomy)
            ):
                raise FoliationError(f"component {comp!r} has an unknown holonomy class")

    def has(self, comp: Id) -> bool:
        return comp in self._classes

    def cls(self, comp: Id) -> HolonomyClass:
        try:
            return self._classes[comp]
        except KeyError:
            raise FoliationError(f"no holonomy class given for component {comp!r}") from None

    def items(self) -> Tuple[Tuple[Id, HolonomyClass], ...]:
        return tuple(sorted(self._classes.items(), key=lambda kv: _id_key(kv[0])))

    def __repr__(self) -> str:
        return f"<VertexHolonomy on {len(self._classes)} components>"


# ---------------------------------------------------------------------------
# Predicate results
# ---------------------------------------------------------------------------


class PredicateResult:
    """Boolean verdict with a human-readable witness for failures.

    >>> bool(PredicateResult(True))
    True
    >>> PredicateResult(False, "component 0: red part disconnected").witness
    'component 0: red part disconnected'
    """

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: Optional[str] = None):
        self.ok = bool(ok)
        self.witness = witness

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "PredicateResult(True)"
        return f"PredicateResult(False, {self.witness!r})"


# ---------------------------------------------------------------------------
# Dual and cut graphs
# ---------------------------------------------------------------------------


def build_dual_graph(divisor: MarkedDivisor) -> Tuple[Graph, Dict[Id, int]]:
    """The dual graph of the divisor with the singular-valency map.

    Vertices are all components (dicritical ones included), edges are all
    corners.  Raises :class:`FoliationError` when the graph is disconnected
    or contains a cycle; only tree divisors are supported.

    >>> d = MarkedDivisor(
    ...     components=[Component(0), Component(1)],
    ...     corners=[Corner("s", (0, 1))],
    ... )
    >>> g, val = build_dual_graph(d)
    >>> g.edges
    ('s',)
    >>> val[0]
    1
    """
    graph = Graph(
        [c.id for c in divisor.components],
        {c.id: c.components for c in divisor.corners},
    )
    if graph.vertices and len(graph.connected_components()) != 1:
        raise FoliationError("the dual graph must be connected")
    if graph.rank_h1() != 0:
        raise FoliationError("the dual graph must be a tree (cycles are unsupported)")
    return graph, divisor.val_sigma()


def check_tc(divisor: MarkedDivisor) -> bool:
    """Whether every connected piece of the divisor minus its dicritical
    components contains a component of singular valency different from two.

    >>> comps = [Component(0, dicritical=True), Component(1), Component(2)]
    >>> d = MarkedDivisor(
    ...     components=comps,
    ...     corners=[Corner("x", (0, 1), in_sigma=False), Corner("s", (1, 2))],
    ...     attachments=[Attachment("a", 1), Attachment("b", 2), Attachment("c", 2)],
    ... )
    >>> check_tc(d)
    True
    """
    return _tc_holds(divisor, *build_dual_graph(divisor))


def _tc_holds(divisor: MarkedDivisor, graph: Graph, val: Mapping[Id, int]) -> bool:
    """The position condition, read on the dual graph and valency map."""
    sub = graph.subgraph(divisor.invariant_components())
    return not any(all(val[v] == 2 for v in piece) for piece in sub.connected_components())


def build_cut_graph(divisor: MarkedDivisor, sing: SingularityData) -> Graph:
    """The incidence graph the symmetry sheaves live on: invariant
    components joined by their non-nodal marked corners.

    Dicritical components disappear together with their corners, and nodal
    corners are cut (the point stays marked, the edge is removed).  It
    checks neither the tree shape nor the nodal flags; :func:`validate` does.
    """
    invariant = set(divisor.invariant_components())
    edges: Dict[Id, Tuple[Id, Id]] = {}
    for corner in divisor.corners:
        u, w = corner.components
        if u not in invariant or w not in invariant:
            continue
        if not corner.in_sigma:
            continue
        if any(s is not None and s.nodal for s in (sing.side(corner.id, c) for c in (u, w))):
            continue
        edges[corner.id] = (u, w)
    return Graph(sorted(invariant, key=_id_key), edges)


# ---------------------------------------------------------------------------
# Corner- and vertex-type helpers
# ---------------------------------------------------------------------------


def _corner_info(sing: SingularityData, point: Id, comps: Sequence[Id]) -> SideType:
    """The local type of a corner: the type its sides carry, checked to
    agree across them.  The two local holonomies of a periodic corner have
    reciprocal multipliers, so their orders ``q`` are data of a side and
    are not compared; a periodic corner gives its first side's type."""
    types = [s.type for s in (sing.side(point, c) for c in comps) if s is not None]
    if not types:
        raise UnsupportedSideData(f"corner {point!r}: no side data")
    kinds = {t.kind for t in types}
    if len(kinds) > 1:
        raise TypeHeterogeneity(
            f"corner {point!r}: sides have different local types {sorted(kinds)}"
        )
    first = types[0]
    for other in types[1:]:
        for name in ("p", "r", "m", "beta_image_order", "atom"):
            a, b = getattr(first, name), getattr(other, name)
            if a != b:
                raise UnsupportedSideData(
                    f"corner {point!r}: sides disagree on {name} ({a!r} vs {b!r})"
                )
    return first


def _cs_at(sing: SingularityData, point: Id, comp: Id, other: Id) -> Optional[Scalar]:
    """The Camacho–Sad index of the ``comp`` side, taking the reciprocal of
    the other side when only that one is given."""
    side = sing.side(point, comp)
    if side is not None and side.cs is not None:
        return side.cs
    mirror = sing.side(point, other)
    if mirror is not None and mirror.cs is not None and not mirror.cs.is_zero():
        return Scalar.one(sing.table) / mirror.cs
    return None


def _designated(u: Id, w: Id) -> Id:
    """The preferred side of a corner: the smaller component id."""
    return u if _id_key(u) <= _id_key(w) else w


def _gamma(sing: SingularityData, point: Id, comp: Id, other: Id) -> Scalar:
    """Transport factor of the flow coordinate from the stored edge chart to
    the ``comp``-side chart: ``1`` on the preferred side, ``-cs(comp)`` on
    the other, an index that :func:`validate` requires."""
    if _designated(comp, other) == comp:
        return Scalar.one(sing.table)
    return -_cs_at(sing, point, comp, other)


def _vertex_red_kind(
    red: Graph,
    corner_info: Mapping[Id, SideType],
    sing: SingularityData,
    divisor: MarkedDivisor,
    v: Id,
) -> str:
    """The (validated homogeneous) local kind seen by an infinite abelian
    vertex: from its red corners, else from its non-periodic attachments."""
    kinds = {corner_info[e].kind for e in red.incident(v)}
    if not kinds:
        for att in divisor.attachments:
            if att.component != v or not att.in_sigma:
                continue
            side = sing.side(att.id, v)
            if side is not None and side.type.kind != "P":
                kinds.add(side.type.kind)
    if not kinds:
        raise TypeHeterogeneity(
            f"component {v!r} has infinite abelian holonomy but no non-periodic "
            "local data to derive its type from"
        )
    if len(kinds) > 1:
        raise TypeHeterogeneity(
            f"component {v!r} sees heterogeneous local types {sorted(kinds)}"
        )
    return kinds.pop()


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------


class Coloring:
    """The green/red split of a cut graph, with the local types it was read
    from.

    ``red`` is the subgraph of components with infinite holonomy and corners
    with non-periodic local type; everything else in ``cut`` is green.
    ``r0_vertices`` / ``r0_edges`` single out the rigid locus ``R^0``
    (non-abelian holonomies, non-normalizable or non-linearizable corners)
    whose symmetries are totally discontinuous.  ``corner_info`` holds the
    :class:`SideType` of every cut edge, the one its sides agree on, and
    ``vertex_kind`` the kind of every red vertex: ``"nonabelian"``, or the
    homogeneous local kind that an infinite abelian component sees.  Local
    types are read once, by :func:`validate`'s analysis; the singular chains
    and the symmetry sheaves read these tables.
    """

    __slots__ = ("cut", "red", "r0_vertices", "r0_edges", "corner_info", "vertex_kind")

    def __init__(
        self,
        cut: Graph,
        red: Graph,
        r0_vertices: FrozenSet[Id],
        r0_edges: FrozenSet[Id],
        corner_info: Mapping[Id, SideType],
        vertex_kind: Mapping[Id, str],
    ):
        self.cut = cut
        self.red = red
        self.r0_vertices = frozenset(r0_vertices)
        self.r0_edges = frozenset(r0_edges)
        self.corner_info = dict(corner_info)
        self.vertex_kind = dict(vertex_kind)

    def __repr__(self) -> str:
        return (
            f"<Coloring red={len(self.red.vertices)}v/{len(self.red.edges)}e "
            f"r0={len(self.r0_vertices)}v/{len(self.r0_edges)}e>"
        )


def color(
    cut: Graph,
    sing: SingularityData,
    vh: VertexHolonomy,
    divisor: MarkedDivisor,
    corner_info: Mapping[Id, SideType],
) -> Coloring:
    """Color the cut graph and isolate the red subgraph with its rigid part.

    ``corner_info`` holds the local type of every cut edge.  A vertex is
    green when its holonomy class is finite; an edge is green when its
    local type is periodic.  No red edge may have a green endpoint: the
    analysis of an input refuses that first, as a finite component with a
    non-periodic local type.
    """
    red_vertices = [v for v in cut.vertices if vh.cls(v).kind != "finite"]
    infos = {e: corner_info[e] for e in cut.edges}
    red_edges = [e for e, info in infos.items() if info.kind != "P"]
    red = cut.subgraph(red_vertices, red_edges)
    vertex_kind = {
        v: "nonabelian"
        if vh.cls(v).kind == "nonabelian"
        else _vertex_red_kind(red, infos, sing, divisor, v)
        for v in red_vertices
    }
    r0_edges = {e for e in red_edges if infos[e].kind in ("R0", "L0")}
    r0_vertices = {v for v, kind in vertex_kind.items() if kind in ("nonabelian", "R0", "L0")}
    return Coloring(cut, red, r0_vertices, r0_edges, infos, vertex_kind)


# ---------------------------------------------------------------------------
# Singular chains
# ---------------------------------------------------------------------------


class SingularChain:
    """A path of corners between two components of singular valency at least
    three, all of whose interior components have singular valency two.

    ``kind`` is one of ``periodic``, ``linearizable``,
    ``resonant_normalizable``, ``resonant_non_normalizable``,
    ``non_resonant_non_linearizable``.
    """

    __slots__ = ("vertices", "edges", "kind")

    def __init__(self, vertices: Sequence[Id], edges: Sequence[Id], kind: str):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SingularChain)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.kind == other.kind
        )

    def __repr__(self) -> str:
        return f"SingularChain({self.vertices!r}, {self.edges!r}, {self.kind!r})"


class ChainCounts(NamedTuple):
    """Chain tallies by kind (periodic chains are never tallied here)."""

    linearizable: int
    resonant_normalizable: int
    non_resonant_non_linearizable: int
    resonant_non_normalizable: int


def singular_chains(
    cut: Graph, val_sigma: Mapping[Id, int], corner_kind: Callable[[Id], str]
) -> Tuple[SingularChain, ...]:
    """All singular chains of the cut graph, classified by the local kind
    ``corner_kind(e)`` of their corners (validated homogeneous along each
    chain); it is asked for the corners of chains only.

    >>> cut = Graph([0, 1, 2], {"s": (0, 1), "t": (1, 2)})
    >>> chains = singular_chains(cut, {0: 3, 1: 2, 2: 3}, {"s": "R1", "t": "R1"}.get)
    >>> [(c.vertices, c.kind) for c in chains]
    [((0, 1, 2), 'resonant_normalizable')]
    """
    chains: List[Tuple[Tuple[Id, ...], Tuple[Id, ...]]] = []
    seen: Set[Tuple[Id, ...]] = set()
    joints = [v for v in cut.vertices if val_sigma.get(v, 0) >= 3]
    for start in joints:
        for e0 in cut.incident(start):
            vertices = [start]
            edges = [e0]
            cur = _other_end(cut, e0, start)
            while True:
                vertices.append(cur)
                if val_sigma.get(cur, 0) >= 3:
                    key = tuple(edges)
                    if key not in seen:
                        seen.add(key)
                        chains.append((tuple(vertices), tuple(edges)))
                    break
                if val_sigma.get(cur, 0) != 2 or cut.valency(cur) != 2:
                    break  # dead end: not a chain
                nxt = [f for f in cut.incident(cur) if f != edges[-1]]
                if len(nxt) != 1:
                    break
                edges.append(nxt[0])
                cur = _other_end(cut, nxt[0], cur)

    out: List[SingularChain] = []
    for vertices, edges in chains:
        if _id_key(vertices[-1]) < _id_key(vertices[0]):
            vertices = tuple(reversed(vertices))
            edges = tuple(reversed(edges))
        kinds = {corner_kind(e) for e in edges}
        if len(kinds) > 1:
            raise TypeHeterogeneity(
                f"chain {vertices!r} mixes local types {sorted(kinds)}"
            )
        out.append(SingularChain(vertices, edges, _KIND_LABEL[kinds.pop()]))
    out.sort(key=lambda c: tuple(_id_key(e) for e in c.edges))
    deduped: List[SingularChain] = []
    edge_sets: Set[FrozenSet[Id]] = set()
    for chain in out:
        edge_set = frozenset(chain.edges)
        if edge_set not in edge_sets:
            edge_sets.add(edge_set)
            deduped.append(chain)
    return tuple(deduped)


def _other_end(graph: Graph, e: Id, v: Id) -> Id:
    u, w = graph.endpoints(e)
    return w if u == v else u


def chain_counts(chains: Iterable[SingularChain]) -> ChainCounts:
    """Tally non-periodic chains by kind."""
    tally = {label: 0 for label in _KIND_LABEL.values()}
    for chain in chains:
        tally[chain.kind] += 1
    return ChainCounts(
        linearizable=tally["linearizable"],
        resonant_normalizable=tally["resonant_normalizable"],
        non_resonant_non_linearizable=tally["non_resonant_non_linearizable"],
        resonant_non_normalizable=tally["resonant_non_normalizable"],
    )


# ---------------------------------------------------------------------------
# The rank tau
# ---------------------------------------------------------------------------


def tau(red: Graph, r0_vertices: Iterable[Id], r0_edges: Iterable[Id]) -> int:
    """First Betti number of the red graph with its rigid locus collapsed to
    a point: ``E - V + C`` of the quotient graph.  The point cancels
    against the component it lies in, which leaves the non-rigid edges,
    minus the non-rigid vertices, plus the components of the red graph
    without its rigid edges that hold no rigid vertex.

    >>> g = Graph([0, 1, 2], {"s": (0, 1), "t": (1, 2)})
    >>> tau(g, [0, 2], [])
    1
    >>> tau(g, [], [])
    0
    """
    r0v = set(r0_vertices)
    r0e = set(r0_edges)
    rest = red.subgraph(red.vertices, [e for e in red.edges if e not in r0e])
    free = sum(1 for piece in rest.connected_components() if not r0v.intersection(piece))
    return len(rest.edges) - (len(red.vertices) - len(r0v)) + free


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_non_degenerate(
    divisor: MarkedDivisor, sing: SingularityData, vh: VertexHolonomy
) -> PredicateResult:
    """Whether the marked divisor is non-degenerate:

    (i) every cut component containing a component of singular valency at
    least three contains a topologically rigid component, (ii) every
    component of singular valency at least three has non-abelian holonomy,
    and (iii) no singular chain is periodic.  Input with violations (see
    :func:`validate`) raises :class:`FoliationError` naming the first.
    """
    return _valid(divisor, sing, vh).nd


def _non_degenerate(
    divisor: MarkedDivisor,
    vh: VertexHolonomy,
    cut: Graph,
    val: Mapping[Id, int],
    chains: Sequence[SingularChain],
) -> PredicateResult:
    """The body of :func:`is_non_degenerate` on a built cut graph and its
    singular chains."""
    for piece in cut.connected_components():
        if not any(val[v] >= 3 for v in piece):
            continue
        if not any(divisor.component(v).topologically_rigid for v in piece):
            anchor = min(piece, key=_id_key)
            return PredicateResult(
                False,
                f"cut component containing {anchor!r}: no topologically rigid component",
            )
    for v in cut.vertices:
        if val[v] >= 3 and vh.cls(v).kind != "nonabelian":
            return PredicateResult(
                False,
                f"component {v!r} has singular valency {val[v]} but "
                f"{vh.cls(v).kind} holonomy",
            )
    for chain in chains:
        if chain.kind == "periodic":
            return PredicateResult(
                False, f"chain through {chain.edges!r} is periodic"
            )
    return PredicateResult(True)


def _far_endpoint(component: Graph, e: Id, anchors: Set[Id]) -> Id:
    """The endpoint of ``e`` on the side (after removing ``e``) that does
    not contain the anchor vertices."""
    u, w = component.endpoints(e)
    rest = component.subgraph(component.vertices, [f for f in component.edges if f != e])
    reachable = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for f in rest.incident(x):
            y = _other_end(rest, f, x)
            if y not in reachable:
                reachable.add(y)
                frontier.append(y)
    if anchors & reachable:
        return w
    return u


def _repulsive_at(vh: VertexHolonomy, v: Id, e: Id) -> Tuple[bool, str]:
    cls = vh.cls(v)
    if cls.kind != "finite":
        return False, f"vertex {v!r} past edge {e!r} is not green"
    if cls.orders[e] != cls.n:
        return (
            False,
            f"vertex {v!r} at edge {e!r}: local order {cls.orders[e]} "
            f"!= holonomy order {cls.n}",
        )
    return True, ""


def is_finite_type(
    divisor: MarkedDivisor, sing: SingularityData, vh: VertexHolonomy
) -> PredicateResult:
    """Whether the marked divisor has finite type: in every cut component
    the red part is connected and repulsive (every green vertex reached by
    walking away from it has full local holonomy), or — when the component
    is entirely green — some vertex sees every other vertex repulsively.
    Input with violations raises :class:`FoliationError` naming the first.
    """
    return _valid(divisor, sing, vh).ft


def _finite_type(vh: VertexHolonomy, coloring: Coloring) -> PredicateResult:
    """The body of :func:`is_finite_type` on a colored cut graph."""
    cut, red_v = coloring.cut, set(coloring.red.vertices)
    for piece in cut.connected_components():
        piece_set = set(piece)
        component = cut.subgraph(piece)
        anchor = min(piece, key=_id_key)
        reds = red_v & piece_set
        if reds:
            red_piece = coloring.red.subgraph(
                sorted(reds, key=_id_key),
                [e for e in coloring.red.edges if set(coloring.red.endpoints(e)) <= piece_set],
            )
            if len(red_piece.connected_components()) > 1:
                return PredicateResult(
                    False,
                    f"cut component containing {anchor!r}: red part disconnected",
                )
            red_edges = set(red_piece.edges)
            for e in component.edges:
                if e in red_edges:
                    continue
                far = _far_endpoint(component, e, reds)
                ok, why = _repulsive_at(vh, far, e)
                if not ok:
                    return PredicateResult(
                        False, f"cut component containing {anchor!r}: {why}"
                    )
        else:
            found = False
            for center in sorted(piece, key=_id_key):
                all_ok = True
                for e in component.edges:
                    far = _far_endpoint(component, e, {center})
                    ok, _ = _repulsive_at(vh, far, e)
                    if not ok:
                        all_ok = False
                        break
                if all_ok:
                    found = True
                    break
            if not found:
                return PredicateResult(
                    False,
                    f"cut component containing {anchor!r}: no repulsive center "
                    "in an all-green component",
                )
    return PredicateResult(True)


# ---------------------------------------------------------------------------
# Symmetry sheaves
# ---------------------------------------------------------------------------


def _edge_sym_group(
    sing: SingularityData, point: Id, u: Id, w: Id, info: SideType
) -> PresentedAbelianGroup:
    """The group of transverse symmetries along a red corner, in the chart
    of its preferred (smaller-id) side.  :func:`validate` requires the
    index and ``tau_i`` that a linearizable corner reads."""
    table = sing.table
    one = Scalar.one(table)
    if info.kind == "L1":
        other = u if _designated(u, w) == w else w
        designated = u if other == w else w
        t = Scalar.symbol(table, TAU_SYMBOL)
        return PresentedAbelianGroup.lattice_quotient(
            table, [t, t * _cs_at(sing, point, other, designated)]
        )
    if info.kind == "R1":
        return PresentedAbelianGroup(
            table,
            1,
            1,
            [
                Relation({0: one}, {0: info.r % info.p}, "Z"),
                Relation({}, {0: info.p}, "Z"),
            ],
        )
    if info.kind == "R0":
        q = info.beta_image_order
        return PresentedAbelianGroup(
            table,
            0,
            2,
            [
                Relation({}, {0: info.m, 1: (info.r * q // info.p) % q}, "Z"),
                Relation({}, {1: q}, "Z"),
            ],
        )
    return PresentedAbelianGroup.atom_group(sing.table, info.atom, 0)


def _chart_map(
    dom: PresentedAbelianGroup, cod: PresentedAbelianGroup, factor: Scalar, what: str
) -> GroupHom:
    """The change of chart from ``dom`` into ``cod``: ``factor`` times the
    flow coordinate when the stalk has one, the identity on discrete
    generators and atoms.  ``what`` names the map when it is refused."""
    h = GroupHom(
        dom,
        cod,
        [{0: factor}] * dom.cont_rank,
        _disc_ident(dom.disc_rank),
        tuple(range(len(dom.atoms))),
    )
    try:
        check_hom(h)
    except HomError as err:
        raise UnsupportedSideData(f"{what} is not a homomorphism: {err}") from None
    return h


def _chart_edge(red: Graph, val: Mapping[Id, int], v: Id) -> Optional[Id]:
    """The edge in whose chart the stalks of a red vertex are stored, or
    ``None`` for the vertex's own canonical chart: canonical when it has no
    red edge or singular valency at least three, else its smallest edge.  A
    component with at most two singular points has cyclic holonomy, so its
    symmetries restrict isomorphically to a corner."""
    edges = red.incident(v)
    if not edges or val[v] >= 3:
        return None
    return min(edges, key=_id_key)


def build_sym_graph(
    coloring: Coloring, sing: SingularityData, vh: VertexHolonomy, divisor: MarkedDivisor
) -> GroupGraph:
    """The sheaf of transverse symmetries on the red graph of ``coloring``.

    Edge stalks realize the centralizer of the corner holonomy modulo the
    holonomy itself, in the chart of the preferred side; vertex stalks
    realize the centralizer of the component holonomy, in the chart that
    :func:`_chart_edge` picks.  A non-abelian vertex restricts by zero, and
    a vertex stored in the chart of its edge ``s1`` restricts to ``s1`` by
    the identity.  Every other restriction from ``v`` to ``e`` is one chart
    map (:func:`_chart_map`) with factor ``gamma(e) / gamma(s1)``, where
    ``gamma(s1)`` is ``1`` in the vertex's own chart.  Only the kinds with
    a flow coordinate (L1, R1) read a Camacho-Sad factor.

    Reads input without violations (see :func:`validate`); raises
    :class:`UnsupportedSideData` on side data it cannot transport.
    """
    red, infos = coloring.red, coloring.corner_info
    table = sing.table
    egroups = {e: _edge_sym_group(sing, e, *red.endpoints(e), infos[e]) for e in red.edges}
    vgroups: Dict[Id, PresentedAbelianGroup] = {}
    rhos: Dict[Tuple[Id, Id], GroupHom] = {}
    val = divisor.val_sigma()
    one = Scalar.one(table)
    identity = cache(identity_hom)  # one hom per group value, checked once
    for v in red.vertices:
        kind, edges = coloring.vertex_kind[v], red.incident(v)
        if kind == "nonabelian":
            vgroups[v] = PresentedAbelianGroup.from_invariant_factors(
                table, vh.cls(v).invariant_factors
            )
            for e in edges:
                rhos[(v, e)] = zero_hom(vgroups[v], egroups[e])
            continue
        s1 = _chart_edge(red, val, v)
        others = [e for e in edges if e != s1]
        if s1 is None:
            vgroups[v] = _canonical_vertex_group(sing, divisor, v, kind, edges, infos)
        else:
            vgroups[v] = egroups[s1]
            rhos[(v, s1)] = identity(vgroups[v])
            # the kinds agree and only periodic corners carry q, so this
            # compares (p, r, m, beta_image_order, atom)
            for e in others:
                if infos[e] != infos[s1]:
                    raise UnsupportedSideData(
                        f"component {v!r}: corners {s1!r} and {e!r} carry different "
                        "type parameters; transport is not defined"
                    )
        flows = kind in ("L1", "R1")
        base = one
        if flows and s1 is not None and others:
            base = _gamma(sing, s1, v, _other_end(red, s1, v))
        for e in others:
            factor = _gamma(sing, e, v, _other_end(red, e, v)) / base if flows else one
            what = (
                f"restriction of component {v!r} into corner {e!r}"
                if s1 is None
                else f"component {v!r}: transport from corner {s1!r} to {e!r}"
            )
            rhos[(v, e)] = _chart_map(vgroups[v], egroups[e], factor, what)
    return GroupGraph(red, vgroups, egroups, rhos, table=table)


def _attachment_params(
    sing: SingularityData, divisor: MarkedDivisor, v: Id, kind: str
) -> SideType:
    """The local type of an isolated red vertex, read off its attachments."""
    types = []
    for att in divisor.attachments:
        if att.component == v and att.in_sigma:
            side = sing.side(att.id, v)
            if side is not None and side.type.kind == kind:
                types.append(side.type)
    if not types:
        raise UnsupportedSideData(
            f"component {v!r}: no local data of kind {kind} to build its stalk from"
        )
    first = types[0]
    for other in types[1:]:
        if (other.p, other.q, other.atom, other.beta_image_order) != (
            first.p,
            first.q,
            first.atom,
            first.beta_image_order,
        ):
            raise UnsupportedSideData(
                f"component {v!r}: attachments disagree on type parameters"
            )
    return first


def _canonical_vertex_group(
    sing: SingularityData,
    divisor: MarkedDivisor,
    v: Id,
    kind: str,
    edges: Sequence[Id],
    infos: Mapping[Id, SideType],
) -> PresentedAbelianGroup:
    """The stalk of an infinite abelian vertex in its own chart."""
    table = sing.table
    if edges:
        params = [infos[e] for e in edges]
    else:
        params = [_attachment_params(sing, divisor, v, kind)]
    if kind == "L1":
        return PresentedAbelianGroup.lattice_quotient(table, [Scalar.symbol(table, TAU_SYMBOL)])
    if kind == "R1":
        ps = {info.p for info in params}
        if len(ps) != 1:
            raise UnsupportedSideData(
                f"component {v!r}: incident corners disagree on p ({sorted(ps)})"
            )
        (p,) = ps
        return PresentedAbelianGroup(
            table, 1, 1, [Relation({}, {0: p}, "Z")]
        )
    if kind == "R0":
        qs = {info.beta_image_order for info in params}
        if len(qs) != 1:
            raise UnsupportedSideData(
                f"component {v!r}: incident corners disagree on the beta image "
                f"order ({sorted(qs)})"
            )
        (q,) = qs
        return PresentedAbelianGroup(table, 0, 2, [Relation({}, {1: q}, "Z")])
    atoms = {info.atom for info in params}
    if len(atoms) != 1:
        raise UnsupportedSideData(
            f"component {v!r}: incident corners disagree on the atom ({sorted(atoms)})"
        )
    return PresentedAbelianGroup.atom_group(table, atoms.pop())


# ---------------------------------------------------------------------------
# Flow part and discontinuous quotient
# ---------------------------------------------------------------------------


def build_exp_graph(
    sym: GroupGraph, coloring: Coloring, divisor: MarkedDivisor
) -> GroupGraphMorphism:
    """The inclusion of the flow part ``Exp`` into the symmetry sheaf ``sym``;
    its ``dom`` is ``Exp`` and its ``cod`` is ``sym``.

    On linearizable elements the flow part is the whole stalk; on resonant
    normalizable elements it is the one-parameter subgroup of flow times; on
    rigid elements it vanishes.  A vertex stalk lives in the chart that
    ``sym`` stores it in.  ``Exp`` is a subsheaf of ``sym``, so its
    restriction maps are induced: each is the restriction of ``sym`` on
    the flow part, factored through the flow part of the edge.
    """
    red, table = coloring.red, sym.table
    one = Scalar.one(table)
    emaps: Dict[Id, GroupHom] = {}
    for e in red.edges:
        info, cod = coloring.corner_info[e], sym.edge_group(e)
        if info.kind == "L1":
            emaps[e] = identity_hom(cod)
        elif info.kind == "R1":
            k = info.p // gcd(info.p, info.r)
            grp = PresentedAbelianGroup(table, 1, 0, [Relation({0: one.scale(k)}, {}, "Z")])
            emaps[e] = GroupHom(grp, cod, [{0: one}], (), ())
        else:
            emaps[e] = zero_hom(PresentedAbelianGroup.trivial(table), cod)

    vmaps: Dict[Id, GroupHom] = {}
    val = divisor.val_sigma()
    for v in red.vertices:
        kind, cod = coloring.vertex_kind[v], sym.vertex_group(v)
        s1 = _chart_edge(red, val, v)
        if kind in ("nonabelian", "R0", "L0"):
            vmaps[v] = zero_hom(PresentedAbelianGroup.trivial(table), cod)
        elif s1 is not None:
            # the vertex stalk is stored in the chart of its smallest edge,
            # so the inclusion into it is the edge-level inclusion there
            vmaps[v] = emaps[s1]
        elif kind == "L1":
            vmaps[v] = identity_hom(cod)
        else:  # R1 canonical chart: flow times inside C (+) Z/p
            vmaps[v] = GroupHom(PresentedAbelianGroup.free_cont(table, 1), cod, [{0: one}], (), ())

    rhos: Dict[Tuple[Id, Id], GroupHom] = {}
    for e in red.edges:
        for v in set(red.endpoints(e)):
            try:
                rhos[(v, e)] = factor_through(compose(sym.rho(v, e), vmaps[v]), emaps[e])
            except HomError as err:  # pragma: no cover - theorem-backed
                raise PipelineError(
                    f"the restriction at ({v!r}, {e!r}) does not carry flows to "
                    f"flows: {err}"
                ) from None
    vgroups = {v: h.dom for v, h in vmaps.items()}
    egroups = {e: h.dom for e, h in emaps.items()}
    exp = GroupGraph(red, vgroups, egroups, rhos, table=table)
    return GroupGraphMorphism(exp, sym, vmaps, emaps)


def build_dis_graph(sym: GroupGraph, inclusion: GroupGraphMorphism) -> GroupGraphMorphism:
    """The projection of ``sym`` onto the totally discontinuous quotient
    sheaf ``Dis = Sym / Exp``, computed stalkwise as an exact cokernel; its
    ``cod`` is ``Dis``."""
    if inclusion.cod is not sym and inclusion.cod != sym:
        raise FoliationError("the inclusion does not land in the given sheaf")
    graph = sym.graph
    vgroups: Dict[Id, PresentedAbelianGroup] = {}
    egroups: Dict[Id, PresentedAbelianGroup] = {}
    vmaps: Dict[Id, GroupHom] = {}
    emaps: Dict[Id, GroupHom] = {}
    sections: Dict[Tuple[str, Id], GroupHom] = {}
    for v in graph.vertices:
        cok = cokernel(inclusion.vertex_map(v))
        vgroups[v] = cok.group
        vmaps[v] = cok.projection
        sections[("v", v)] = cok.section
    for e in graph.edges:
        cok = cokernel(inclusion.edge_map(e))
        egroups[e] = cok.group
        emaps[e] = cok.projection
    rhos: Dict[Tuple[Id, Id], GroupHom] = {}
    for e in graph.edges:
        for v in set(graph.endpoints(e)):
            h = compose(emaps[e], compose(sym.rho(v, e), sections[("v", v)]))
            try:
                check_hom(h)
            except HomError as err:  # pragma: no cover - theorem-backed
                raise PipelineError(
                    f"induced quotient restriction at ({v!r}, {e!r}) is not a "
                    f"homomorphism: {err}"
                ) from None
            rhos[(v, e)] = h
    dis = GroupGraph(graph, vgroups, egroups, rhos, table=sym.table)
    return GroupGraphMorphism(sym, dis, vmaps, emaps)


# ---------------------------------------------------------------------------
# Zones and the four-term exact sequence
# ---------------------------------------------------------------------------


class _Zone(NamedTuple):
    vertices: Tuple[Id, ...]  # non-rigid members
    edges: Tuple[Id, ...]
    boundary: Dict[Id, Id]  # rigid boundary vertex -> its unique zone edge


def _zones(coloring: Coloring) -> List[_Zone]:
    """Connected components of the red part minus its rigid locus, with each
    rigid boundary vertex recorded next to its (unique, by treeness) edge
    into the zone."""
    red = coloring.red
    r0v, r0e = coloring.r0_vertices, coloring.r0_edges
    members: List[Tuple[str, Id]] = [("v", v) for v in red.vertices if v not in r0v]
    members += [("e", e) for e in red.edges if e not in r0e]
    parent: Dict[Tuple[str, Id], Tuple[str, Id]] = {m: m for m in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in red.edges:
        if e in r0e:
            continue
        for v in red.endpoints(e):
            if v not in r0v:
                union(("e", e), ("v", v))
    buckets: Dict[Tuple[str, Id], List[Tuple[str, Id]]] = {}
    for m in members:
        buckets.setdefault(find(m), []).append(m)
    zones: List[_Zone] = []
    for bucket in buckets.values():
        vertices = tuple(sorted((i for k, i in bucket if k == "v"), key=_id_key))
        edges = tuple(sorted((i for k, i in bucket if k == "e"), key=_id_key))
        boundary: Dict[Id, Id] = {}
        for e in edges:
            for v in red.endpoints(e):
                if v in r0v:
                    if v in boundary and boundary[v] != e:
                        raise PipelineError(
                            f"rigid vertex {v!r} meets one zone through two edges; "
                            "the red graph is not a tree"
                        )
                    boundary[v] = e
        zones.append(_Zone(vertices, edges, boundary))
    zones.sort(key=lambda z: _id_key(min(z.vertices + z.edges, key=_id_key)))
    return zones


def _is_trivial_presentation(g: PresentedAbelianGroup) -> bool:
    return g.cont_rank == 0 and g.disc_rank == 0 and not g.atoms


def _blow_up_extremities(
    zone: GroupGraph, identity: Callable[[PresentedAbelianGroup], GroupHom]
) -> GroupGraph:
    """Insert one valency-two vertex past every extremity of the zone, with
    the edge stalk as the new vertex stalk and identity restrictions, so
    that extremal stalks become explicit overlap vertices.  ``H^1`` is
    unchanged.  The new ids are the first ``__blow_<k>_*`` triples that the
    zone does not use.  ``identity(g)`` is the identity of ``g``; the zones
    of one sequence share it, so each group value gets one hom."""
    extremities = [v for v in zone.graph.vertices if zone.graph.valency(v) == 1]
    taken = set(zone.graph.vertices) | set(zone.graph.edges)
    fresh = (
        ids
        for ids in ((f"__blow_{k}_v", f"__blow_{k}_a", f"__blow_{k}_b") for k in count())
        if not taken.intersection(ids)
    )
    current = zone
    for v in sorted(extremities, key=_id_key):
        (e,) = current.graph.incident(v)
        w = _other_end(current.graph, e, v)
        u_id, a_id, b_id = next(fresh)
        ge = current.edge_group(e)
        vertices = list(current.graph.vertices) + [u_id]
        edges = [(f, *current.graph.endpoints(f)) for f in current.graph.edges if f != e]
        edges += [(a_id, v, u_id), (b_id, u_id, w)]
        graph = Graph(vertices, edges)
        vgroups = {x: current.vertex_group(x) for x in current.graph.vertices}
        vgroups[u_id] = ge
        egroups = {f: current.edge_group(f) for f in current.graph.edges if f != e}
        egroups[a_id] = ge
        egroups[b_id] = ge
        rhos: Dict[Tuple[Id, Id], GroupHom] = {}
        for f in current.graph.edges:
            if f == e:
                continue
            for x in set(current.graph.endpoints(f)):
                rhos[(x, f)] = current.rho(x, f)
        rhos[(v, a_id)] = current.rho(v, e)
        rhos[(u_id, a_id)] = rhos[(u_id, b_id)] = identity(ge)
        rhos[(w, b_id)] = current.rho(w, e)
        current = GroupGraph(graph, vgroups, egroups, rhos, table=zone.table)
    return current


class _ZoneAnalysis(NamedTuple):
    actives: Tuple[Tuple[Id, Id], ...]  # (boundary vertex, original zone edge)
    h1_group: PresentedAbelianGroup


def _analyze_zone(
    exp: GroupGraph, zone: _Zone, identity: Callable[[PresentedAbelianGroup], GroupHom]
) -> _ZoneAnalysis:
    """Split a blown-up zone into its flow-trivial segments and flow-positive
    core, verify the gluing is exact, and return the active vertices; the
    blow-up takes its identity maps from ``identity``."""
    completion = sorted(set(zone.vertices) | set(zone.boundary), key=_id_key)
    zone_exp = exp.restrict(completion, zone.edges)
    mod = _blow_up_extremities(zone_exp, identity)
    graph = mod.graph
    trivial_vs = [v for v in graph.vertices if _is_trivial_presentation(mod.vertex_group(v))]
    for e in graph.edges:
        if _is_trivial_presentation(mod.edge_group(e)):  # pragma: no cover
            raise PipelineError(f"zone edge {e!r} has a trivial flow stalk")
    if set(trivial_vs) != set(zone.boundary):
        raise PipelineError(
            f"flow-trivial zone vertices {sorted(map(str, trivial_vs))} differ from "
            f"the rigid boundary {sorted(map(str, zone.boundary))}"
        )
    z1_vs = [v for v in graph.vertices if v not in set(trivial_vs)]
    z1_es = [
        e
        for e in graph.edges
        if not (set(graph.endpoints(e)) & set(trivial_vs))
    ]
    segment_edges = [e for e in graph.edges if e not in set(z1_es)]
    overlap: List[Id] = []
    for v in trivial_vs:
        if graph.valency(v) != 1:
            raise PipelineError(
                f"rigid boundary vertex {v!r} has valency {graph.valency(v)} "
                "after blow-up; expected a segment end"
            )
        (e,) = graph.incident(v)
        overlap.append(_other_end(graph, e, v))
    if trivial_vs:
        cover0 = (tuple(trivial_vs) + tuple(overlap), tuple(segment_edges))
        cover1 = (tuple(z1_vs), tuple(z1_es))
        mv = mayer_vietoris(mod, cover0, cover1)
        if not mv.exact:
            raise PipelineError(
                f"zone gluing sequence not exact at {', '.join(mv.failures)}"
            )
        h1_mod = mv.groups[3]  # H^1 of the whole cover, that is of mod
        if not classify(mv.pieces[1].h1).is_trivial:  # the core is cover1
            raise PipelineError(
                "the flow-positive core of a zone has nontrivial H^1; "
                "the input is not of finite type after all"
            )
    else:
        h1_mod = h1(mod)
        if not classify(h1_mod).is_trivial:
            raise PipelineError(
                "a zone without rigid boundary has nontrivial flow H^1"
            )
    ordered = sorted(trivial_vs, key=_id_key)
    actives = tuple((v, zone.boundary[v]) for v in ordered[1:])
    return _ZoneAnalysis(actives, h1_mod)


class FourTermSequence:
    """The exact sequence ``Z^p -> C^tau -> Mod -> D -> 0`` in normal form.

    ``f`` classifies the kernel of ``H^1(R, Exp) -> H^1(R, Sym)``,
    ``h1_exp`` the middle term ``H^1(R, Exp)`` and ``h1_dis`` the cokernel
    term ``D = H^1(R, Dis)``; ``exact_checked`` records whether exactness of
    the period map against the quotient map was verified (it is skipped in
    the presence of atom factors).
    """

    __slots__ = ("p", "tau", "f", "h1_exp", "h1_dis", "exact_checked")

    def __init__(
        self,
        *,
        p: int,
        tau: int,
        f: NormalFormReport,
        h1_exp: NormalFormReport,
        h1_dis: NormalFormReport,
        exact_checked: bool,
    ):
        self.p = int(p)
        self.tau = int(tau)
        self.f = f
        self.h1_exp = h1_exp
        self.h1_dis = h1_dis
        self.exact_checked = bool(exact_checked)

    def arrow_text(self) -> str:
        return f"Z^{self.p} -> C^{self.tau} -> Mod -> D -> 0"

    def __repr__(self) -> str:
        return f"<FourTermSequence {self.arrow_text()}>"


def _nf_json(nf: NormalFormReport) -> dict:
    return {
        "text": nf.text(),
        "free_cont_rank": nf.free_cont_rank,
        "cstar_count": nf.cstar_count,
        "lattices": [[str(g) for g in gens] for gens in nf.lattices],
        "nondiscrete": [[str(g) for g in gens] for gens in nf.nondiscrete],
        "nondiscrete_blocks": [
            [[str(g) for g in row] for row in block] for block in nf.nondiscrete_blocks
        ],
        "free_disc_rank": nf.free_disc_rank,
        "invariant_factors": list(nf.invariant_factors),
        "atoms": [[a.name, a.mod_order] for a in nf.atoms],
    }


class _SES(NamedTuple):
    """``0 -> Exp -> Sym -> Dis -> 0``: ``inclusion.dom`` is ``Exp`` and
    ``projection.cod`` is ``Dis``."""

    sym: GroupGraph
    inclusion: GroupGraphMorphism
    projection: GroupGraphMorphism


def _build_ses(
    coloring: Coloring, sing: SingularityData, vh: VertexHolonomy, divisor: MarkedDivisor
) -> _SES:
    sym = build_sym_graph(coloring, sing, vh, divisor)
    inclusion = build_exp_graph(sym, coloring, divisor)
    return _SES(sym, inclusion, build_dis_graph(sym, inclusion))


def _assert_dis_shapes(ses: _SES, coloring: Coloring) -> None:
    """Structural sanity of the discontinuous quotient: finite on the
    non-rigid locus, discrete everywhere, atoms exactly at non-linearizable
    elements."""
    red, dis = ses.sym.graph, ses.projection.cod
    for e in red.edges:
        kind = coloring.corner_info[e].kind
        nf = classify(dis.edge_group(e))
        if kind == "L1" and not nf.is_trivial:
            raise PipelineError(f"corner {e!r}: linearizable quotient stalk {nf.text()}")
        if kind in ("R1", "R0") and not nf.is_finite:
            raise PipelineError(f"corner {e!r}: resonant quotient stalk {nf.text()}")
        if kind == "L0" and not nf.has_atoms:
            raise PipelineError(f"corner {e!r}: non-linearizable stalk lost its atom")
    for v in red.vertices:
        kind = coloring.vertex_kind[v]
        nf = classify(dis.vertex_group(v))
        if nf.free_cont_rank or nf.cstar_count or nf.lattices or nf.nondiscrete:
            raise PipelineError(f"component {v!r}: quotient stalk not discrete")
        if kind in ("nonabelian", "L1", "R1") and not nf.is_finite:
            raise PipelineError(
                f"component {v!r}: quotient stalk {nf.text()} is not finite"
            )


def _four_term(
    sing: SingularityData, coloring: Coloring, ses: _SES, les, t: int
) -> Tuple[FourTermSequence, NormalFormReport]:
    """Assemble the four-term sequence data and the moduli normal form from
    the cohomology long exact sequence, with all theorem-backed checks."""
    table = sing.table
    chi, gam = les.maps[3], les.maps[4]
    f_nf = classify(kernel(chi).group)
    if not f_nf.is_finite:
        raise PipelineError(f"kernel of the flow comparison map is not finite: {f_nf.text()}")
    d_nf = classify(les.groups[5])
    if not is_surjective(gam):
        raise PipelineError("the map onto the discontinuous part is not surjective")
    h1_exp_nf = classify(les.groups[3])
    moduli_nf = classify(les.groups[4])

    actives: List[Tuple[Id, Id]] = []
    zone_h1s: List[PresentedAbelianGroup] = []
    identity = cache(identity_hom)  # one hom per group value, checked once
    for zone in _zones(coloring):
        analysis = _analyze_zone(ses.inclusion.dom, zone, identity)
        actives.extend(analysis.actives)
        zone_h1s.append(analysis.h1_group)
    if zone_h1s:
        glued = classify(direct_sum(zone_h1s, table)[0])
        if glued != h1_exp_nf:
            raise PipelineError(
                f"zonewise flow cohomology {glued.text()} differs from the global "
                f"one {h1_exp_nf.text()}"
            )
    elif not h1_exp_nf.is_trivial:
        raise PipelineError("no zones, yet the flow part has nontrivial H^1")
    if len(actives) != t:
        raise PipelineError(f"active vertex count {len(actives)} differs from tau {t}")

    coh = les.middle
    c1 = _cochains(ses.sym, 1)
    rows: List[Mapping[int, Scalar]] = []
    for _, s in actives:
        flow = ses.inclusion.edge_map(s)
        into = block_hom(
            flow.dom, [(0, 0, 0)], c1.total, c1.offsets, [(0, c1.ids.index(s), flow, 1)]
        )
        hom_s = compose(coh.h1_projection, into)
        if hom_s.dom.cont_rank != 1:  # pragma: no cover - defensive
            raise PipelineError(f"active edge {s!r} has no flow line")
        rows.append(hom_s.cont_images[0])
    lam = GroupHom(PresentedAbelianGroup.free_cont(table, t), coh.h1, rows, (), ())
    check_hom(lam)
    k_nf = classify(kernel(lam).group)
    if (
        k_nf.free_cont_rank
        or k_nf.cstar_count
        or k_nf.lattices
        or k_nf.nondiscrete
        or k_nf.nondiscrete_blocks
    ):
        raise PipelineError(f"the period lattice is not discrete: {k_nf.text()}")
    p = k_nf.free_disc_rank + len(k_nf.invariant_factors)

    exact_checked = False
    if not moduli_nf.has_atoms:
        if not is_exact_at(lam, gam):
            raise PipelineError(
                "the period map and the discontinuous projection are not exact "
                "at the moduli group"
            )
        exact_checked = True
    seq = FourTermSequence(
        p=p,
        tau=t,
        f=f_nf,
        h1_exp=h1_exp_nf,
        h1_dis=d_nf,
        exact_checked=exact_checked,
    )
    return seq, moduli_nf


# ---------------------------------------------------------------------------
# Moduli reports and the two pipelines
# ---------------------------------------------------------------------------


class ModuliReport:
    """Everything the pipelines establish about the moduli group of a germ.

    ``moduli`` is the normal form of ``H^1(R, Sym)``; when it carries atom
    factors (``moduli_formal``) the classification is formal and the
    four-term ``sequence`` is the faithful description.  ``chain_counts``
    tallies singular chains as ``(linearizable, resonant normalizable,
    non-resonant non-linearizable, resonant non-normalizable)``; on
    non-degenerate inputs the first two add up to ``tau``.
    """

    __slots__ = (
        "pipeline",
        "tc_ok",
        "finite_type",
        "non_degenerate",
        "ft_witness",
        "nd_witness",
        "tau",
        "chain_counts",
        "chains",
        "red_vertices",
        "red_edges",
        "sequence",
        "moduli",
        "moduli_formal",
    )

    def __init__(
        self,
        *,
        pipeline: str,
        tc_ok: bool,
        finite_type: bool,
        non_degenerate: bool,
        ft_witness: Optional[str],
        nd_witness: Optional[str],
        tau: int,
        chain_counts: ChainCounts,
        chains: Tuple[SingularChain, ...],
        red_vertices: Tuple[Id, ...],
        red_edges: Tuple[Id, ...],
        sequence: FourTermSequence,
        moduli: NormalFormReport,
    ):
        self.pipeline = pipeline
        self.tc_ok = bool(tc_ok)
        self.finite_type = bool(finite_type)
        self.non_degenerate = bool(non_degenerate)
        self.ft_witness = ft_witness
        self.nd_witness = nd_witness
        self.tau = int(tau)
        self.chain_counts = chain_counts
        self.chains = chains
        self.red_vertices = red_vertices
        self.red_edges = red_edges
        self.sequence = sequence
        self.moduli = moduli
        self.moduli_formal = moduli.has_atoms

    def text(self) -> str:
        counts = self.chain_counts
        lines = [
            f"moduli report (pipeline: {self.pipeline})",
            "tc: ok" if self.tc_ok else "tc: violated",
            "finite type: yes" if self.finite_type else f"finite type: no ({self.ft_witness})",
            "non-degenerate: yes"
            if self.non_degenerate
            else f"non-degenerate: no ({self.nd_witness})",
            f"red part: {len(self.red_vertices)} vertices {list(self.red_vertices)!r}, "
            f"{len(self.red_edges)} edges {list(self.red_edges)!r}",
            f"chains (linearizable, resonant normalizable, non-resonant "
            f"non-linearizable, resonant non-normalizable): "
            f"({counts.linearizable}, {counts.resonant_normalizable}, "
            f"{counts.non_resonant_non_linearizable}, {counts.resonant_non_normalizable})",
            f"tau: {self.tau}",
            f"sequence: {self.sequence.arrow_text()}"
            + (" [exactness verified]" if self.sequence.exact_checked else " [formal]"),
            f"F = ker(H1(Exp) -> H1(Sym)): {self.sequence.f.text()}",
            f"H1(R, Exp): {self.sequence.h1_exp.text()}",
            f"D = H1(R, Dis): {self.sequence.h1_dis.text()}",
            f"Mod ~= {self.moduli.text()}",
            _b0_shape_line(self.moduli, self.sequence.f),
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "tc_ok": self.tc_ok,
            "finite_type": self.finite_type,
            "non_degenerate": self.non_degenerate,
            "ft_witness": self.ft_witness,
            "nd_witness": self.nd_witness,
            "red_vertices": list(self.red_vertices),
            "red_edges": list(self.red_edges),
            "tau": self.tau,
            "chain_counts": {
                "linearizable": self.chain_counts.linearizable,
                "resonant_normalizable": self.chain_counts.resonant_normalizable,
                "non_resonant_non_linearizable": self.chain_counts.non_resonant_non_linearizable,
                "resonant_non_normalizable": self.chain_counts.resonant_non_normalizable,
            },
            "chains": [
                {"vertices": list(c.vertices), "edges": list(c.edges), "kind": c.kind}
                for c in self.chains
            ],
            "sequence": {
                "p": self.sequence.p,
                "tau": self.sequence.tau,
                "arrow": self.sequence.arrow_text(),
                "exact_checked": self.sequence.exact_checked,
                "f": _nf_json(self.sequence.f),
                "h1_exp": _nf_json(self.sequence.h1_exp),
                "h1_dis": _nf_json(self.sequence.h1_dis),
            },
            "moduli": _nf_json(self.moduli),
            "moduli_formal": self.moduli_formal,
            "text": self.text(),
        }

    def __repr__(self) -> str:
        return f"<ModuliReport {self.moduli.text()!r} via {self.pipeline}>"


def _b0_shape_line(moduli: NormalFormReport, f: NormalFormReport) -> str:
    """Render the moduli group in the shape (F (+) B (+) T)/Z, listing the
    finite, totally disconnected and one-parameter factors separately."""
    parts = moduli.factor_texts()
    finite = " (+) ".join(parts["Z/d"]) or "0"
    atoms = " (+) ".join(parts["atoms"]) or "none"
    torus = " (+) ".join(parts["C*"] + parts["C/L"]) or "0"
    return (
        f"shape (F (+) B (+) T)/Z with F: {finite}; B: {atoms}; T: {torus}; "
        f"ker(H1(Exp) -> H1(Sym)) = {f.text()}"
    )


def _make_report(
    a: _Analysis, seq: FourTermSequence, moduli: NormalFormReport, pipeline: str
) -> ModuliReport:
    return ModuliReport(
        pipeline=pipeline,
        tc_ok=True,
        finite_type=a.ft.ok,
        non_degenerate=a.nd.ok,
        ft_witness=a.ft.witness,
        nd_witness=a.nd.witness,
        tau=a.tau,
        chain_counts=a.counts,
        chains=a.chains,
        red_vertices=a.coloring.red.vertices,
        red_edges=a.coloring.red.edges,
        sequence=seq,
        moduli=moduli,
    )


def _reports(a: _Analysis) -> List[ModuliReport]:
    """The report of every pipeline that applies to input without
    violations, from one SES and one LES: the non-degenerate report first
    (on non-degenerate input), then the finite-type report.  Each
    theorem-backed check runs once."""
    if not a.tc_ok:
        raise TCviolated(
            "a dicritical-free part of the divisor has all singular valencies "
            "equal to two"
        )
    if not a.ft.ok:
        if a.nd.ok:
            raise PipelineError(
                "non-degenerate input fails the finite-type certificate: "
                f"{a.ft.witness}"
            )
        raise NotFiniteType(a.ft.witness or "not of finite type")
    ses = _build_ses(a.coloring, a.sing, a.vh, a.divisor)
    _assert_dis_shapes(ses, a.coloring)
    les = long_exact_sequence(ses.inclusion, ses.projection)
    if not a.nd.ok:
        seq, moduli_nf = _four_term(a.sing, a.coloring, ses, les, a.tau)
        return [_make_report(a, seq, moduli_nf, "finite_type")]

    pruned = prune_all(ses.sym)
    chain_edges = {e for chain in a.chains for e in chain.edges}
    chain_vertices = {v for chain in a.chains for v in chain.vertices}
    if set(pruned.graph.edges) != chain_edges:
        raise PipelineError(
            f"pruning left edges {sorted(map(str, pruned.graph.edges))}, expected "
            f"the chain union {sorted(map(str, chain_edges))}"
        )
    for v in pruned.graph.vertices:
        if v not in chain_vertices and pruned.graph.valency(v) != 0:
            raise PipelineError(f"pruned vertex {v!r} outside the chain union")
    moduli_nf = classify(h1(pruned))

    counts = a.counts
    for found, factor, expected, chain_kind in (
        (len(moduli_nf.lattices), "lattice", counts.linearizable, "linearizable"),
        (moduli_nf.cstar_count, "C*", counts.resonant_normalizable, "resonant normalizable"),
        (len(moduli_nf.atoms), "atom", counts.non_resonant_non_linearizable, "non-linearizable"),
    ):
        if found != expected:
            raise PipelineError(f"{found} {factor} factors for {expected} {chain_kind} chains")
    if moduli_nf.free_cont_rank or moduli_nf.free_disc_rank or moduli_nf.has_nondiscrete:
        raise PipelineError(f"unexpected free factors in {moduli_nf.text()}")
    if counts.linearizable + counts.resonant_normalizable != a.tau:
        raise PipelineError(
            f"lambda + nu = {counts.linearizable + counts.resonant_normalizable} "
            f"differs from tau = {a.tau}"
        )

    seq, moduli_ft = _four_term(a.sing, a.coloring, ses, les, a.tau)
    if moduli_ft != moduli_nf:
        raise PipelineError(
            f"chain classification {moduli_nf.text()} differs from the sequence "
            f"classification {moduli_ft.text()}"
        )
    return [
        _make_report(a, seq, moduli_nf, "non_degenerate"),
        _make_report(a, seq, moduli_ft, "finite_type"),
    ]


def compute_moduli(
    divisor: MarkedDivisor, sing: SingularityData, vh: VertexHolonomy
) -> List[ModuliReport]:
    """The moduli reports of every pipeline that applies to the input.

    Input with violations (see :func:`validate`) raises
    :class:`FoliationError` naming the first.  One SES and one long exact
    sequence are built; the non-degenerate report (first, on
    non-degenerate input) and the finite-type report are both read from
    them, and their classified moduli are verified equal.  Every report
    carries the non-degenerate verdict and witness (``non_degenerate``,
    ``nd_witness``), so degenerate input is read from the lone finite-type
    report rather than from an exception.  Raises :class:`TCviolated` when
    the position condition fails, :class:`NotFiniteType` on input without
    the repulsivity certificate, and :class:`PipelineError` when a
    theorem-backed internal check fails.
    """
    return _reports(_valid(divisor, sing, vh))


# ---------------------------------------------------------------------------
# One analysis per input, and validation
# ---------------------------------------------------------------------------


class _Analysis(NamedTuple):
    """One reading of an input triple.  ``tc_ok`` is the position
    condition (``True`` on a dual graph that is not a tree, a violation);
    ``coloring`` and ``chains`` are built on every tree whose corners and
    holonomy classes are readable; ``counts``, ``tau``, ``nd`` and ``ft``
    are set on input without violations only."""

    divisor: MarkedDivisor
    sing: SingularityData
    vh: VertexHolonomy
    violations: List[str]
    tc_ok: bool
    coloring: Optional[Coloring]
    chains: Tuple[SingularChain, ...]
    counts: Optional[ChainCounts]
    tau: int
    nd: Optional[PredicateResult]
    ft: Optional[PredicateResult]


def _analyze(
    divisor: MarkedDivisor, sing: SingularityData, vh: VertexHolonomy
) -> _Analysis:
    """Read an input triple once, collecting its violations instead of
    raising; :func:`validate` lists what is checked."""
    out: List[str] = []
    one = Scalar.one(sing.table)

    try:
        graph, val = build_dual_graph(divisor)
    except FoliationError as err:
        out.append(str(err))
        graph, val = None, divisor.val_sigma()

    comp_by_id = {c.id: c for c in divisor.components}
    for corner in divisor.corners:
        u, w = corner.components
        du, dw = comp_by_id[u].dicritical, comp_by_id[w].dicritical
        if not du and not dw and not corner.in_sigma:
            out.append(
                f"corner {corner.id!r}: a crossing of two invariant components "
                "is a singular point and must be marked"
            )
        if (du or dw) and corner.in_sigma:
            out.append(f"corner {corner.id!r}: a dicritical crossing cannot be marked")
        if du and dw:
            out.append(f"corner {corner.id!r}: two dicritical components cross")
    for att in divisor.attachments:
        if comp_by_id[att.component].dicritical:
            out.append(f"attachment {att.id!r}: lies on a dicritical component")
        if not att.in_sigma:
            out.append(f"attachment {att.id!r}: attachments are marked points")

    known_points = {corner.id: corner.components for corner in divisor.corners}
    known_points.update((att.id, (att.component,)) for att in divisor.attachments)
    for (point, comp), side in sing.items():
        if point not in known_points:
            out.append(f"side data at unknown point {point!r}")
            continue
        if comp not in known_points[point]:
            out.append(f"side data at {point!r} on a non-incident component {comp!r}")

    # The local type of every marked corner between invariant components,
    # read once; the component loop reads it, and the coloring reads it when
    # every such corner has one and no finite component has a red corner.
    infos: Dict[Id, SideType] = {}
    corners_ok = True
    for corner in divisor.corners:
        if not corner.in_sigma:
            for c in corner.components:
                if sing.side(corner.id, c) is not None:
                    out.append(f"corner {corner.id!r}: side data on an unmarked point")
            continue
        u, w = corner.components
        if comp_by_id[u].dicritical or comp_by_id[w].dicritical:
            continue
        sides = [sing.side(corner.id, c) for c in (u, w)]
        nodal = {s.nodal for s in sides if s is not None}
        try:
            info = infos[corner.id] = _corner_info(sing, corner.id, (u, w))
        except FoliationError as err:
            out.append(str(err))
            info = None
        if len(nodal) > 1:
            out.append(f"corner {corner.id!r}: sides disagree on the nodal flag")
        corners_ok = corners_ok and info is not None and len(nodal) == 1
        if info is None:
            continue
        # the component loop refuses a non-periodic corner of a finite component
        if info.kind != "P" and any(vh.has(c) and vh.cls(c).kind == "finite" for c in (u, w)):
            corners_ok = False
        cs_u = sides[0].cs if sides[0] is not None else None
        cs_w = sides[1].cs if sides[1] is not None else None
        if cs_u is not None and cs_w is not None and not (cs_u * cs_w - one).is_zero():
            out.append(
                f"corner {corner.id!r}: Camacho-Sad indices are not reciprocal "
                f"({cs_u} and {cs_w})"
            )
        if info.kind == "L1":
            for c, cs in ((u, cs_u), (w, cs_w)):
                if cs is not None and cs.is_rational():
                    out.append(
                        f"corner {corner.id!r}: linearizable non-periodic side on "
                        f"{c!r} has a rational index {cs}"
                    )
            if cs_u is None and cs_w is None:
                out.append(f"corner {corner.id!r}: a linearizable corner needs an index")
        if info.kind in ("R1", "R0"):
            for c, cs in ((u, cs_u), (w, cs_w)):
                if cs is not None and not cs.is_rational():
                    out.append(
                        f"corner {corner.id!r}: resonant side on {c!r} has a "
                        f"non-rational index {cs}"
                    )
        # the flow coordinate of an abelian infinite component is carried
        # across its R1 corners by their index, whichever side is preferred
        if (
            info.kind == "R1"
            and nodal == {False}
            and all(cs is None or cs.is_zero() for cs in (cs_u, cs_w))
            and any(vh.has(c) and vh.cls(c).kind == "abelian_infinite" for c in (u, w))
        ):
            out.append(
                f"corner {corner.id!r}: a resonant normalizable corner of an "
                "abelian infinite component needs a nonzero index"
            )

    coloring: Optional[Coloring] = None
    chains: Tuple[SingularChain, ...] = ()
    if (
        graph is not None
        and corners_ok
        and all(vh.has(c) for c in divisor.invariant_components())
    ):
        try:
            coloring = color(build_cut_graph(divisor, sing), sing, vh, divisor, infos)
            chains = singular_chains(coloring.cut, val, lambda e: infos[e].kind)
        except FoliationError as err:
            out.append(str(err))

    for comp in divisor.components:
        if comp.dicritical:
            if vh.has(comp.id):
                out.append(f"component {comp.id!r}: holonomy data on a dicritical component")
            continue
        if not vh.has(comp.id):
            out.append(f"component {comp.id!r}: no holonomy class")
            continue
        cls = vh.cls(comp.id)
        if cls.kind != "finite":
            continue
        points = divisor.sigma_points(comp.id)
        for point in points:
            if point not in cls.orders:
                out.append(f"component {comp.id!r}: no local holonomy order at {point!r}")
            elif cls.n % cls.orders[point] != 0:
                out.append(
                    f"component {comp.id!r}: local order {cls.orders[point]} at "
                    f"{point!r} does not divide the holonomy order {cls.n}"
                )
        given = [cls.orders[p] for p in points if p in cls.orders]
        if given and len(given) == len(points) and lcm(*given) != cls.n:
            out.append(
                f"component {comp.id!r}: holonomy order {cls.n} is not the lcm "
                f"of the local orders {given}"
            )
        for point in points:
            side = sing.side(point, comp.id)
            local = infos.get(point, side.type if side is not None else None)
            if local is not None and local.kind != "P":
                out.append(
                    f"component {comp.id!r}: finite holonomy but non-periodic "
                    f"local type at {point!r}"
                )
    if any(s.type.kind == "L1" for _, s in sing.items()) and TAU_SYMBOL not in sing.table:
        out.append(
            f"symbol table lacks {TAU_SYMBOL!r} although linearizable data is present"
        )

    tc_ok = graph is None or _tc_holds(divisor, graph, val)
    counts, t, nd, ft = None, 0, None, None
    if not out:
        counts = chain_counts(chains)
        t = tau(coloring.red, coloring.r0_vertices, coloring.r0_edges)
        nd = _non_degenerate(divisor, vh, coloring.cut, val, chains)
        ft = _finite_type(vh, coloring)
    return _Analysis(divisor, sing, vh, out, tc_ok, coloring, chains, counts, t, nd, ft)


def _valid(divisor: MarkedDivisor, sing: SingularityData, vh: VertexHolonomy) -> _Analysis:
    """The analysis of an input triple without violations; input with
    violations raises :class:`FoliationError` naming the first."""
    analysis = _analyze(divisor, sing, vh)
    if analysis.violations:
        raise FoliationError(analysis.violations[0])
    return analysis


def validate(
    divisor: MarkedDivisor, sing: SingularityData, vh: VertexHolonomy
) -> List[str]:
    """Collect consistency violations of an input triple, without raising.

    Checks the tree shape of the dual graph, the marking rules, that side
    data sits on known points, agreement of the two sides of a corner
    (local type, parameters, nodal flag, reciprocal Camacho-Sad indices),
    the indices that L1 and R1 corners need, the coloring of every tree
    whose corners and holonomy classes are readable (no red corner on a
    finite component, one local kind per abelian infinite component and
    per singular chain), finite holonomy orders, and ``tau_i``.  An empty
    list means no violation; the position condition is left to
    :func:`compute_moduli`.
    """
    return _analyze(divisor, sing, vh).violations


# ---------------------------------------------------------------------------
# JSON input documents
# ---------------------------------------------------------------------------


def _object(value: object, what: str) -> Mapping:
    if not isinstance(value, dict):
        raise FoliationError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _objects(doc: Mapping, key: str) -> List[Mapping]:
    """The objects listed under ``key`` of an input document, at most
    :data:`~folmod.gg.MAX_ITEMS` of them."""
    items = doc.get(key, ())
    _check_count(items, key)
    return [_object(item, f"each entry of {key!r}") for item in items]


class FoliationInput(NamedTuple):
    """A parsed input document: the marked divisor, the per-side singularity
    data, the holonomy classes, and the shared symbol table."""

    divisor: MarkedDivisor
    singularities: SingularityData
    holonomies: VertexHolonomy
    table: SymbolTable


def load_input(doc: Mapping) -> FoliationInput:
    """Parse an input document; malformed documents raise.

    The top-level keys and the fields of their entries (optional ones with
    their default):

    - ``schema_version``: must be ``1``; ``symbols``: the symbol names;
    - ``components``: ``id``, ``dicritical`` (false), ``self_intersection``
      (none), ``topologically_rigid`` (false);
    - ``corners``: ``id``, ``components`` (the two ids), ``in_sigma`` (true);
    - ``attachments``: ``id``, ``component``, ``in_sigma`` (true);
    - ``singularities``: ``point``, ``component``, ``type`` (``kind`` one of
      ``P`` with ``q`` (1), ``L1``, ``L0`` with ``atom``, ``R1`` with ``p``
      and ``r``, ``R0`` with ``p``, ``r``, ``m`` and ``beta_image_order``
      (none)), ``cs`` (none; a scalar expression, see :func:`parse_scalar`),
      ``nodal`` (false);
    - ``holonomies``: ``component``, ``class``: ``finite`` with ``n`` and
      ``orders`` (none; pairs of point and order), ``abelian_infinite``, or
      ``nonabelian`` with ``invariant_factors`` (none).

    Each list holds at most :data:`~folmod.gg.MAX_ITEMS` entries.
    ``folmod examples N`` prints complete documents.

    >>> doc = {
    ...     "schema_version": 1,
    ...     "symbols": ["tau_i"],
    ...     "components": [{"id": 0}, {"id": 1}],
    ...     "corners": [{"id": "s", "components": [0, 1]}],
    ...     "attachments": [],
    ...     "singularities": [
    ...         {"point": "s", "component": 0,
    ...          "type": {"kind": "R1", "p": 1, "r": 0}},
    ...     ],
    ...     "holonomies": [
    ...         {"component": 0, "class": "abelian_infinite"},
    ...         {"component": 1, "class": "nonabelian", "invariant_factors": [2]},
    ...     ],
    ... }
    >>> inp = load_input(doc)
    >>> inp.divisor.val_sigma()
    {0: 1, 1: 1}
    """
    if _object(doc, "the input document").get("schema_version") != SCHEMA_VERSION:
        raise FoliationError(
            f"unsupported schema_version {doc.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    table = SymbolTable(doc.get("symbols", ()))
    components = [
        Component(
            item["id"],
            dicritical=item.get("dicritical", False),
            self_intersection=item.get("self_intersection"),
            topologically_rigid=item.get("topologically_rigid", False),
        )
        for item in _objects(doc, "components")
    ]
    corners = [
        Corner(item["id"], tuple(item["components"]), in_sigma=item.get("in_sigma", True))
        for item in _objects(doc, "corners")
    ]
    attachments = [
        Attachment(item["id"], item["component"], in_sigma=item.get("in_sigma", True))
        for item in _objects(doc, "attachments")
    ]
    divisor = MarkedDivisor(
        components=components, corners=corners, attachments=attachments
    )
    sides: Dict[Tuple[Id, Id], SideData] = {}
    for item in _objects(doc, "singularities"):
        key = (item["point"], item["component"])
        if key in sides:
            raise FoliationError(f"duplicate side data for {key!r}")
        cs = item.get("cs")
        sides[key] = SideData(
            cs=None if cs is None else parse_scalar(table, cs),
            type=SideType.from_json(item["type"]),
            nodal=item.get("nodal", False),
        )
    sing = SingularityData(table, sides)
    classes: Dict[Id, HolonomyClass] = {}
    for item in _objects(doc, "holonomies"):
        comp = item["component"]
        if comp in classes:
            raise FoliationError(f"duplicate holonomy class for component {comp!r}")
        kind = item.get("class")
        if kind == "finite":
            classes[comp] = FiniteHolonomy(
                item["n"], {point: order for point, order in item.get("orders", ())}
            )
        elif kind == "abelian_infinite":
            classes[comp] = AbelianInfiniteHolonomy()
        elif kind == "nonabelian":
            classes[comp] = NonabelianHolonomy(item.get("invariant_factors", ()))
        else:
            raise FoliationError(f"unknown holonomy class {kind!r}")
    return FoliationInput(divisor, sing, VertexHolonomy(classes), table)

