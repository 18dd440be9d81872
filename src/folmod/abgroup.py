"""Finitely presented topological abelian groups, exactly.

A group here is a quotient of ``C^a (+) Z^b (+) atoms`` by the span of
finitely many relation rows.  Each row has a continuous part (a sparse
row: a dict from column to nonzero :class:`~folmod.exactnum.Scalar`), a
discrete part (an int row: a dict from column to nonzero int) and a span
tag: ``"Z"`` identifies the row's integer multiples with zero, ``"C"``
identifies the whole complex line through the row with zero (such rows
arise as images of continuous generators and must have a zero discrete
part).
Atoms are opaque named factors -- groups known only abstractly -- and the
only maps they support are collapse to zero, the identity, and the quotient
by one declared cyclic subgroup, recorded in :class:`AtomFactor`
(``mod_order`` ``None`` = not quotiented, ``0`` = quotient by an infinite
cyclic subgroup, ``k >= 2`` = quotient by a cyclic subgroup of order ``k``).

All homological bookkeeping downstream reduces to four operations
implemented here: :func:`check_hom`, :func:`kernel`, :func:`cokernel` and
:func:`classify`.

>>> t = SymbolTable(["mu", "tau_i"])
>>> tau = Scalar.symbol(t, "tau_i")
>>> mu = Scalar.symbol(t, "mu")
>>> torus = PresentedAbelianGroup.lattice_quotient(t, [tau, tau * mu])
>>> classify(torus).text()
'C/(Z + (mu)Z)'
>>> line = PresentedAbelianGroup.free_cont(t, 1)
>>> h = GroupHom(line, torus, cont_images=[{0: Scalar.one(t)}])
>>> k = kernel(h)
>>> classify(k.group).text()
'Z^2'
>>> [str(c[0]) for c, _ in k.inclusion.disc_images]
['tau_i', 'mu*tau_i']
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .exactnum import (
    Scalar,
    SymbolTable,
    _is_int,
    _mix,
    _numerator_over,
    _smith_normal_form,
    _sub_multiple,
    monomial_expansion,
    monomial_vectors,
)

__all__ = [
    "HomError",
    "UnsupportedAtomMap",
    "Relation",
    "PresentedAbelianGroup",
    "GroupHom",
    "check_hom",
    "hom_equal",
    "compose",
    "identity_hom",
    "zero_hom",
    "negate_hom",
    "direct_sum",
    "block_hom",
    "kernel",
    "cokernel",
    "preimage_element",
    "factor_through",
    "classify",
    "NormalFormReport",
    "is_surjective",
    "is_injective",
    "is_exact_at",
]


class HomError(ValueError):
    """A claimed homomorphism fails to send relations into relations."""


class UnsupportedAtomMap(ValueError):
    """An atom factor would need a map this model cannot express."""


class NonFiniteTypeKernel(RuntimeError):
    """Defensive: a kernel computation lost internal consistency."""


class AtomFactor(NamedTuple):
    name: str
    mod_order: Optional[int]  # None: plain; 0: mod an infinite cyclic; k>=2: mod Z/k

    def label(self) -> str:
        if self.mod_order is None:
            return self.name
        if self.mod_order == 0:
            return f"{self.name}/<h>"
        return f"{self.name}/<h:{self.mod_order}>"


class Relation(NamedTuple):
    """One relation: ``cont`` a row (a dict from column to nonzero Scalar),
    ``disc`` an int row (a dict from column to nonzero int), ``span`` ``"Z"``
    or ``"C"``.  A group keeps its relations in the stored form of rows
    (see "Field linear algebra" below), and no code mutates a stored row."""

    cont: "Row"
    disc: "IntRow"
    span: str  # "Z" or "C"


# ---------------------------------------------------------------------------
# Field linear algebra over sparse rows of Scalars
#
# A row is a dict from column index to a nonzero Scalar: absent columns are
# zero, and no stored entry is ever zero, so no arithmetic touches a zero.
# Rows are the one stored form of a continuous vector, and int rows (dicts
# from column to nonzero int) of a discrete one: zero entries dropped,
# columns sorted and in range, every Scalar over the group's table.  Stored
# rows are never mutated; only the JSON methods write them out densely.
#
# Rows reach a group or hom by one of two doors.  The public constructors
# take rows from anywhere and store copies through :func:`_stored_row` and
# :func:`_stored_ints`, which check every column and table.  The private
# ``_from_stored`` constructors take rows the algebra built itself: stored
# rows of its inputs, their shifts and negations, and the results of its
# own arithmetic, which :func:`_addmul` and
# :func:`~folmod.exactnum._sub_multiple` keep zero-free and whose columns
# come from a stored row in range; such a row is only put in column order
# (:func:`_in_order`).  So both doors store the same items in the same
# order, and equality, hashing, keys and every elimination order agree.
#
# Elimination visits columns in their given order and never reorders them.
# The reduced row echelon form of a row space with pivots in column order is
# unique, so every reduced form, nullspace basis and solution below is the
# canonical one, whatever order the rows were eliminated in.
# ---------------------------------------------------------------------------

Row = Dict[int, Scalar]
IntRow = Dict[int, int]
_X = TypeVar("_X", Scalar, int)  # the entry of a row or of an int row


def _stored_row(v: Mapping[int, Scalar], width: int, table: SymbolTable) -> Row:
    """A copy of ``v`` to store: zero entries dropped and columns sorted,
    every column below ``width`` and every Scalar over ``table``."""
    out: Row = {}
    if not v:
        return out
    for j, x in sorted(v.items()):
        if not 0 <= j < width:
            raise ValueError(f"column {j} is outside a row of width {width}")
        if x.table is not table and x.table != table:
            raise ValueError("row scalar over a different symbol table")
        if not x.is_zero():
            out[j] = x
    return out


def _stored_ints(v: Mapping[int, int], width: int) -> IntRow:
    """A copy of the int row ``v`` to store, as :func:`_stored_row` stores
    a row: zero entries dropped, columns sorted and below ``width``."""
    out: IntRow = {}
    if not v:
        return out
    for j, x in sorted(v.items()):
        if not 0 <= j < width:
            raise ValueError(f"column {j} is outside a row of width {width}")
        if x:
            out[j] = int(x)
    return out


def _row_key(row: Mapping[int, _X]) -> Tuple[Tuple[int, _X], ...]:
    # Stored rows are sorted by column, so equal rows give equal keys.
    return tuple(row.items())


def _in_order(row: Dict[int, _X]) -> Dict[int, _X]:
    """A row the algebra built, zero-free and in range, with its columns
    sorted as :func:`_stored_row` sorts them; a row of one entry or none
    is itself."""
    return dict(sorted(row.items())) if len(row) > 1 else row


def _row_to_json(row: Row, width: int, table: SymbolTable) -> List[dict]:
    zero = Scalar.zero(table)
    return [row.get(j, zero).to_json() for j in range(width)]


def _row_from_json(table: SymbolTable, data: Sequence, width: int) -> Row:
    if len(data) != width:
        raise ValueError(f"a row of width {width} has {len(data)} entries")
    return {j: Scalar.from_json(table, s) for j, s in enumerate(data)}


def _int_from_json(x: object, what: str) -> int:
    """``x`` if it is an int (a bool is not), else :class:`ValueError`."""
    if not _is_int(x):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x  # type: ignore[return-value]


def _ints_to_json(row: IntRow, width: int) -> List[int]:
    return [row.get(j, 0) for j in range(width)]


def _ints_from_json(xs: Iterable, width: int, mismatch: str) -> IntRow:
    """The int row written densely as ``xs``; ``mismatch`` is the error
    when ``xs`` does not have ``width`` entries."""
    ints = [_int_from_json(x, "disc entry") for x in xs]
    if len(ints) != width:
        raise ValueError(mismatch)
    return dict(enumerate(ints))


def _shift(row: Mapping[int, _X], offset: int) -> Dict[int, _X]:
    return {offset + j: x for j, x in row.items()}


def _neg(row: Mapping[int, _X]) -> Dict[int, _X]:
    return {j: -x for j, x in row.items()}


def _disc_ident(n: int) -> List[Tuple[Row, IntRow]]:
    """The discrete generator images of an identity on ``Z^n``."""
    return [({}, {i: 1}) for i in range(n)]


def _addmul(
    acc: Row, c: "Scalar | Fraction | int", row: Mapping[int, Scalar], skip: int = -1
) -> None:
    """``acc += c * row`` in place for a nonzero Scalar or rational ``c``,
    leaving out column ``skip``; cancelled entries go, and ``c == 1`` adds
    the entries themselves."""
    rational = not isinstance(c, Scalar)
    unit = rational and c == 1
    for j, x in row.items():
        if j == skip:
            continue
        y = x if unit else x.scale(c) if rational else c * x
        cur = acc.get(j)
        if cur is not None:
            y = cur + y
            if y.is_zero():
                del acc[j]
                continue
        acc[j] = y


def _row_times(row: Mapping[int, Scalar], m: Sequence[Mapping[int, Scalar]]) -> Row:
    """The row vector ``row`` times the matrix with rows ``m``."""
    out: Row = {}
    for j, x in row.items():
        _addmul(out, x, m[j])
    return out


class _Elimination:
    """Gauss-Jordan elimination of sparse vectors, inserted in order, done once.

    ``rows[p]`` is the reduced row with pivot column ``p``: it is 1 at ``p``
    and 0 at every other pivot and every column before ``p``, so the rows
    sorted by pivot are the reduced row echelon form of the vectors.  With
    ``track``, ``combos[p]`` writes ``rows[p]`` as a combination of the
    vectors (keyed by insertion index), and ``dependencies`` holds, for each
    vector ``j`` that reduced to zero, the relation ``e_j - x`` whose ``x``
    writes vector ``j`` through the earlier independent vectors.  The
    vectors are the columns of a system ``sum_j x_j v_j = b``, so
    :meth:`express` solves it and ``dependencies`` is its nullspace basis.
    """

    __slots__ = ("rows", "combos", "dependencies")

    def __init__(
        self, vectors: Iterable[Mapping[int, Scalar]], table: SymbolTable, track: bool = False
    ):
        self.rows: Dict[int, Row] = {}
        self.combos: Dict[int, Row] = {}
        self.dependencies: List[Row] = []
        one = Scalar.one(table)
        for j, v in enumerate(vectors):
            row, x = self._reduce(v, track)
            if track:
                combo = {k: -c for k, c in x.items()}
                combo[j] = one
            if not row:
                if track:
                    self.dependencies.append(combo)
                continue
            p = min(row)
            lead = row[p]
            if lead != one:
                row = {k: y / lead for k, y in row.items()}
                if track:
                    combo = {k: y / lead for k, y in combo.items()}
            for q, other in self.rows.items():
                c = other.pop(p, None)
                if c is not None:
                    c = -c
                    _addmul(other, c, row, p)
                    if track:
                        _addmul(self.combos[q], c, combo)
            self.rows[p] = row
            if track:
                self.combos[p] = combo

    def _reduce(self, v: Mapping[int, Scalar], track: bool) -> Tuple[Row, Row]:
        # Each reduced row is 0 at every other pivot, so v's entry at a pivot
        # is still the original one when that pivot's turn comes.  The pivot
        # row is 1 at its pivot: that entry of v goes, and the row's other
        # entries are subtracted.
        out = dict(v)
        x: Row = {}
        if not (out and self.rows):
            return out, x
        for p in [p for p in v if p in self.rows]:
            c = out.pop(p)
            _addmul(out, -c, self.rows[p], p)
            if track:
                _addmul(x, c, self.combos[p])
        return out, x

    def reduce(self, v: Mapping[int, Scalar]) -> Row:
        """``v`` minus its component in the span, canonical."""
        return self._reduce(v, False)[0]

    def express(self, b: Mapping[int, Scalar]) -> Optional[Row]:
        """Coefficients over the independent vectors summing to ``b``, or None."""
        out, x = self._reduce(b, True)
        return None if out else x

    def rref(self) -> Tuple[List[Row], List[int]]:
        pivots = sorted(self.rows)
        return [self.rows[p] for p in pivots], pivots


def _field_inverse(rows: Sequence[Mapping[int, Scalar]], table: SymbolTable) -> List[Row]:
    """Rows of the inverse of a square matrix given by its rows."""
    elim = _Elimination(rows, table, track=True)
    if sorted(elim.rows) != list(range(len(rows))):
        raise ValueError("singular matrix")
    return [elim.combos[p] for p in range(len(rows))]


# The elimination of no vectors, shared by every preimage system with no
# continuous data.
_NO_FIELD = _Elimination((), SymbolTable([]))


# ---------------------------------------------------------------------------
# Integer linear algebra (on top of Smith normal form)
# ---------------------------------------------------------------------------


class _IntSystem:
    """An integer system ``rows . y = b`` factored once: the Smith form
    ``U A V = D`` of its matrix answers every right side and the kernel.

    ``rows`` are int rows, ``{column: entry}`` over ``ncols`` columns, and
    go to the factorization as they are.  ``U`` and ``V`` are kept as the
    sparse columns it returns, ``{row: entry}``; the system needs no
    ``V^-1``.  Right sides and solutions are int rows too.  :meth:`solve`
    gives one integer solution or None, :meth:`nullspace` a basis of
    ``{y : rows . y = 0}``: the columns of ``V`` at the zero diagonal
    entries.  Both hold for any ``U`` and ``V`` the factorization's
    contract allows; which solution and which basis come back depends on
    them.  A matrix with no rows or no columns is not
    factored.
    """

    __slots__ = ("ncols", "u", "diag", "v")

    def __init__(self, rows: Sequence[Mapping[int, int]], ncols: int):
        self.ncols = ncols
        self.u, self.diag, self.v = [], [], []
        if rows and ncols:
            self.u, self.diag, self.v, _ = _smith_normal_form(rows, ncols)

    def solve(self, b: Mapping[int, int]) -> Optional[IntRow]:
        """One integer solution of ``rows . y = b``, or None; ``b`` maps a
        row index to its right side, and absent rows have zero."""
        if not self.v:
            return None if any(b.values()) else {}
        # U b accumulates over the nonzeros of b, and V y over those of y.
        ub: IntRow = {}
        for k, x in b.items():
            if x:
                _sub_multiple(ub, -x, self.u[k])
        diag = self.diag
        y: IntRow = {}
        for i, s in ub.items():
            di = diag[i] if i < len(diag) else 0
            if di == 0 or s % di != 0:
                return None
            _sub_multiple(y, -(s // di), self.v[i])
        return y

    def nullspace(self) -> List[IntRow]:
        """Basis of the integer kernel ``{y : rows . y = 0}``; the vectors
        are the system's own columns of ``V``, which no caller mutates."""
        n, diag = self.ncols, self.diag
        if not self.v:
            return [{i: 1} for i in range(n)]
        return [self.v[i] for i in range(n) if i >= len(diag) or diag[i] == 0]


def _hnf_rows(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Canonical (Hermite) basis of the integer row span.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)`` and zero rows are dropped, so equal lattices yield
    identical output.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    n = len(m[0])
    r = 0
    for col in range(n):
        while True:
            nz = [i for i in range(r, len(m)) if m[i][col] != 0]
            if not nz:
                break
            if len(nz) == 1:
                i = nz[0]
                m[r], m[i] = m[i], m[r]
                break
            piv = min(nz, key=lambda i: abs(m[i][col]))
            for i in nz:
                if i != piv:
                    q = m[i][col] // m[piv][col]
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[piv])]
        if r < len(m) and m[r][col] != 0:
            if m[r][col] < 0:
                m[r] = [-x for x in m[r]]
            for i in range(r):
                q = m[i][col] // m[r][col]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
    return m[:r]


def _rational_lattice_basis(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Canonical basis of the Z-span of rational vectors."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    denom = 1
    for r in rows:
        for x in r:
            denom = lcm(denom, x.denominator)
    ints = [[int(x * denom) for x in r] for r in rows]
    return [[Fraction(x, denom) for x in r] for r in _hnf_rows(ints)]


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


class PresentedAbelianGroup:
    """``(C^a (+) Z^b (+) atoms) / <relations>`` over a shared symbol table.

    >>> t = SymbolTable([])
    >>> g = PresentedAbelianGroup.from_invariant_factors(t, [2, 4])
    >>> classify(g).text()
    'Z/2 (+) Z/4'
    >>> classify(PresentedAbelianGroup.trivial(t)).text()
    '0'

    The continuous part of each relation is a row over the ``a`` continuous
    generators, a dict from column to nonzero Scalar; the discrete part is
    an int row over the ``b`` discrete generators, a dict from column to
    nonzero int.  The constructor copies every row, drops its zero entries,
    sorts its columns and refuses a column out of range or a Scalar over
    another table, so equal relations are stored identically.  The
    algebra's own groups come from :meth:`_from_stored` instead, which
    trusts rows already in that form (see "Field linear algebra" above).

    Groups are values: equality and hashing are structural, the normal form
    behind :func:`classify` and :func:`cokernel` is memoized on them,
    :func:`kernel` on homs between them, and the preimage systems (a
    group's relation span among them, see :func:`_span_of`) on a codomain
    and generator images.  Two invariants make that safe:

    - no code assigns to a group's attributes or mutates a stored row after
      construction, except that the hash is computed on first use and kept;
      atoms and Scalars are immutable;
    - a memoized result is shared by every caller that passes an equal
      group, so its maps may have an equal but not identical domain or
      codomain; nothing compares groups by identity.
    """

    __slots__ = ("table", "cont_rank", "disc_rank", "relations", "atoms", "_hash")

    def __init__(
        self,
        table: SymbolTable,
        cont_rank: int,
        disc_rank: int,
        relations: Iterable[Relation] = (),
        atoms: Iterable[AtomFactor] = (),
    ):
        relations = tuple(
            Relation(_stored_row(c, cont_rank, table), _stored_ints(d, disc_rank), s)
            for c, d, s in relations
        )
        for r in relations:
            if r.span not in ("Z", "C"):
                raise ValueError(f"invalid relation span {r.span!r}")
            if r.span == "C" and r.disc:
                raise ValueError("C-span relations cannot touch discrete generators")
        atoms = tuple(AtomFactor(a.name, a.mod_order) for a in atoms)
        for a in atoms:
            if a.mod_order is not None and (a.mod_order < 0 or a.mod_order == 1):
                raise ValueError("atom mod_order must be None, 0, or >= 2")
        self._assemble(table, int(cont_rank), int(disc_rank), relations, atoms)

    @classmethod
    def _from_stored(
        cls,
        table: SymbolTable,
        cont_rank: int,
        disc_rank: int,
        relations: Iterable[Relation] = (),
        atoms: Iterable[AtomFactor] = (),
    ) -> "PresentedAbelianGroup":
        """The group on ``Relation`` rows and atoms the algebra built, kept
        as they are: every row already stored (zero-free, sorted, in range,
        over ``table``) and every span valid."""
        g = object.__new__(cls)
        g._assemble(table, cont_rank, disc_rank, tuple(relations), tuple(atoms))
        return g

    def _assemble(
        self,
        table: SymbolTable,
        cont_rank: int,
        disc_rank: int,
        relations: Tuple[Relation, ...],
        atoms: Tuple[AtomFactor, ...],
    ) -> None:
        self.table = table
        self.cont_rank = cont_rank
        self.disc_rank = disc_rank
        self.relations = relations
        self.atoms = atoms
        self._hash: Optional[int] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def trivial(cls, table: SymbolTable) -> "PresentedAbelianGroup":
        return cls(table, 0, 0)

    @classmethod
    def free_cont(cls, table: SymbolTable, n: int) -> "PresentedAbelianGroup":
        return cls(table, n, 0)

    @classmethod
    def free_disc(cls, table: SymbolTable, n: int) -> "PresentedAbelianGroup":
        return cls(table, 0, n)

    @classmethod
    def lattice_quotient(
        cls, table: SymbolTable, gens: Sequence[Scalar]
    ) -> "PresentedAbelianGroup":
        """``C`` modulo the Z-span of the given scalars."""
        return cls(table, 1, 0, [Relation({0: g}, {}, "Z") for g in gens])

    @classmethod
    def from_invariant_factors(
        cls, table: SymbolTable, factors: Sequence[int]
    ) -> "PresentedAbelianGroup":
        rels = [Relation({}, {i: f}, "Z") for i, f in enumerate(factors)]
        return cls(table, 0, len(factors), rels)

    @classmethod
    def atom_group(
        cls, table: SymbolTable, name: str, mod_order: Optional[int] = None
    ) -> "PresentedAbelianGroup":
        return cls(table, 0, 0, (), (AtomFactor(name, mod_order),))

    # -- views ----------------------------------------------------------------

    def zrows(self) -> List[Relation]:
        return [r for r in self.relations if r.span == "Z"]

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, PresentedAbelianGroup)
            and self.table == other.table
            and self.cont_rank == other.cont_rank
            and self.disc_rank == other.disc_rank
            and self.relations == other.relations
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            relations = tuple((_row_key(r.cont), _row_key(r.disc), r.span) for r in self.relations)
            self._hash = hash((self.table, self.cont_rank, self.disc_rank, relations, self.atoms))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"<PresentedAbelianGroup cont={self.cont_rank} disc={self.disc_rank} "
            f"rels={len(self.relations)} atoms={[a.label() for a in self.atoms]}>"
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """The group as JSON, every relation row written densely."""
        return {
            "symbols": self.table.to_json(),
            "cont_rank": self.cont_rank,
            "disc_rank": self.disc_rank,
            "relations": [
                {
                    "cont": _row_to_json(r.cont, self.cont_rank, self.table),
                    "disc": _ints_to_json(r.disc, self.disc_rank),
                    "span": r.span,
                }
                for r in self.relations
            ],
            "atoms": [{"name": a.name, "mod_order": a.mod_order} for a in self.atoms],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PresentedAbelianGroup":
        table = SymbolTable.from_json(data["symbols"])
        cont_rank = _int_from_json(data["cont_rank"], "cont_rank")
        disc_rank = _int_from_json(data["disc_rank"], "disc_rank")
        rels = [
            Relation(
                _row_from_json(table, r["cont"], cont_rank),
                _ints_from_json(
                    r["disc"], disc_rank, "relation width does not match generator counts"
                ),
                r["span"],
            )
            for r in data.get("relations", ())
        ]
        atoms = [
            AtomFactor(
                a["name"],
                None if a["mod_order"] is None else _int_from_json(a["mod_order"], "mod_order"),
            )
            for a in data.get("atoms", ())
        ]
        return cls(table, cont_rank, disc_rank, rels, atoms)


class GroupHom:
    """A homomorphism of presented groups, given by generator images.

    ``cont_images[i]`` is the image of the i-th continuous generator as a
    row over the codomain's continuous generators (a continuous generator
    carries a complex line, so its image cannot touch discrete generators).
    ``disc_images[j]`` is a pair ``(cont_row, disc_part)`` with
    ``disc_part`` an int row over the codomain's discrete generators.
    ``atom_images[k]`` is the index of the codomain atom receiving the k-th
    domain atom, or ``None`` when that atom collapses to zero.  Rows and int
    rows are stored as in :class:`PresentedAbelianGroup`: without zero
    entries, sorted by column, every column in range.  The constructor
    copies and checks every row and every count; :meth:`_from_stored`
    trusts the rows and counts of the maps the algebra builds itself.

    >>> t = SymbolTable([])
    >>> g6 = PresentedAbelianGroup.from_invariant_factors(t, [6])
    >>> g3 = PresentedAbelianGroup.from_invariant_factors(t, [3])
    >>> f = GroupHom(g6, g3, disc_images=[({}, {0: 1})])
    >>> check_hom(f)
    >>> classify(kernel(f).group).text()
    'Z/2'

    Homomorphisms are values like groups: equality and hashing are
    structural, :func:`kernel` memoizes on them, equal homs share one
    preimage system (see :func:`_system_of`), and no code assigns to a
    hom's attributes or mutates a stored row after construction, except that
    the hash and the keys of the images (:meth:`_image_keys`) are computed
    on first use and kept (a kernel inclusion takes the keys of the hom
    whose images it shares), and that :func:`check_hom`, :func:`is_injective`
    and :func:`is_surjective` record their verdicts in the int
    ``_verdicts`` (0 until one is set; see the predicates below); equality
    ignores all three.  So a hom held by a memoized result can be shared by
    every caller.
    """

    __slots__ = (
        "dom",
        "cod",
        "cont_images",
        "disc_images",
        "atom_images",
        "_hash",
        "_keys",
        "_verdicts",
    )

    def __init__(
        self,
        dom: PresentedAbelianGroup,
        cod: PresentedAbelianGroup,
        cont_images: Sequence[Mapping[int, Scalar]] = (),
        disc_images: Sequence[Tuple[Mapping[int, Scalar], Mapping[int, int]]] = (),
        atom_images: Sequence[Optional[int]] = (),
    ):
        if dom.table != cod.table:
            raise ValueError("homomorphism across different symbol tables")
        table, width = dom.table, cod.cont_rank
        cont_images = tuple(_stored_row(v, width, table) for v in cont_images)
        disc_images = tuple(
            (_stored_row(c, width, table), _stored_ints(d, cod.disc_rank)) for c, d in disc_images
        )
        atom_images = tuple(None if x is None else int(x) for x in atom_images)
        if len(cont_images) != dom.cont_rank:
            raise ValueError("wrong number of continuous generator images")
        if len(disc_images) != dom.disc_rank:
            raise ValueError("wrong number of discrete generator images")
        if len(atom_images) != len(dom.atoms):
            raise ValueError("wrong number of atom images")
        for k in atom_images:
            if k is not None and not 0 <= k < len(cod.atoms):
                raise ValueError("atom image index out of range")
        self._assemble(dom, cod, cont_images, disc_images, atom_images)

    @classmethod
    def _from_stored(
        cls,
        dom: PresentedAbelianGroup,
        cod: PresentedAbelianGroup,
        cont_images: Iterable[Row] = (),
        disc_images: Iterable[Tuple[Row, IntRow]] = (),
        atom_images: Iterable[Optional[int]] = (),
    ) -> "GroupHom":
        """The hom with generator images the algebra built, kept as they
        are: one per generator of ``dom``, every row already stored over
        ``cod`` and every atom index in range."""
        h = object.__new__(cls)
        h._assemble(dom, cod, tuple(cont_images), tuple(disc_images), tuple(atom_images))
        return h

    def _assemble(
        self,
        dom: PresentedAbelianGroup,
        cod: PresentedAbelianGroup,
        cont_images: Tuple[Row, ...],
        disc_images: Tuple[Tuple[Row, IntRow], ...],
        atom_images: Tuple[Optional[int], ...],
    ) -> None:
        self.dom = dom
        self.cod = cod
        self.cont_images = cont_images
        self.disc_images = disc_images
        self.atom_images = atom_images
        self._hash: Optional[int] = None
        self._keys: Optional[Tuple[tuple, tuple]] = None
        self._verdicts = 0

    def apply(self, cont: Mapping[int, Scalar], disc: Mapping[int, int]) -> Tuple[Row, IntRow]:
        """Image of the element with continuous coordinates ``cont`` (a row)
        and discrete coordinates ``disc`` (an int row), in the same form;
        neither holds a zero."""
        out_c = _row_times(cont, self.cont_images)
        out_d: IntRow = {}
        for j, n in disc.items():
            c, d = self.disc_images[j]
            if c:
                _addmul(out_c, n, c)
            _sub_multiple(out_d, -n, d)
        return out_c, out_d

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, GroupHom)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.cont_images == other.cont_images
            and self.disc_images == other.disc_images
            and self.atom_images == other.atom_images
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, *self._image_keys(), self.atom_images))
        return self._hash

    def _image_keys(self) -> Tuple[tuple, tuple]:
        """The continuous and the discrete generator images as hashable
        keys, built on first use and kept in ``_keys``: the hash covers
        them, and :func:`_system_of` looks a system up by them."""
        if self._keys is None:
            self._keys = (
                tuple(map(_row_key, self.cont_images)),
                tuple((_row_key(c), _row_key(d)) for c, d in self.disc_images),
            )
        return self._keys

    def __repr__(self) -> str:
        return f"<GroupHom {self.dom!r} -> {self.cod!r}>"

    def to_json(self) -> dict:
        """The images as JSON, every row written densely."""
        width, table, disc_width = self.cod.cont_rank, self.dom.table, self.cod.disc_rank
        return {
            "cont_images": [_row_to_json(v, width, table) for v in self.cont_images],
            "disc_images": [
                {"cont": _row_to_json(c, width, table), "disc": _ints_to_json(d, disc_width)}
                for c, d in self.disc_images
            ],
            "atom_images": list(self.atom_images),
        }

    @classmethod
    def from_json(
        cls, dom: PresentedAbelianGroup, cod: PresentedAbelianGroup, data: Mapping
    ) -> "GroupHom":
        width, table = cod.cont_rank, dom.table
        return cls(
            dom,
            cod,
            [_row_from_json(table, v, width) for v in data["cont_images"]],
            [
                (
                    _row_from_json(table, d["cont"], width),
                    _ints_from_json(d["disc"], cod.disc_rank, "discrete image has wrong width"),
                )
                for d in data["disc_images"]
            ],
            [None if x is None else _int_from_json(x, "atom image") for x in data["atom_images"]],
        )


# ---------------------------------------------------------------------------
# Membership and preimages
#
# Whether an element lies in ``im(h) + relations`` is one question for every
# caller: a group's relation span is the case of a map with no generators.
# One solver, :class:`_PreimageSystem`, built once per codomain and
# generator images, answers it for check_hom, hom_is_zero, is_exact_at,
# kernel, preimage_element and factor_through.
# ---------------------------------------------------------------------------


def _by_coordinate(columns: Sequence[Mapping[int, _X]]) -> Dict[int, Dict[int, _X]]:
    """The entries of sparse columns grouped by coordinate: ``{coord: {j: x}}``,
    each group's ``j`` ascending; the transpose of a list of rows."""
    at: Dict[int, Dict[int, _X]] = {}
    for j, col in enumerate(columns):
        for coord, x in col.items():
            at.setdefault(coord, {})[j] = x
    return at


def _int_rows_from_scalar_columns(
    at: Mapping[int, Mapping[int, Scalar]]
) -> Tuple[List[Dict[int, int]], Dict[int, tuple]]:
    """Expand ``sum n_j columns[j] = 0`` coordinate-wise over monomials.

    The columns come grouped by coordinate, ``at[coord][j]`` (see
    :func:`_by_coordinate`).  Each coordinate where some entry is nonzero
    contributes, in coordinate order, one integer row per monomial of
    :func:`~folmod.exactnum.monomial_vectors` over its entries, with
    denominators cleared row by row (a coefficient is an int or a
    ``Fraction``, and an int's denominator is 1).  A row is sparse, ``{j: entry}``, and
    holds no zero.  A coordinate whose entries are all rational is one
    monomial, keyed ``None``, and skips the expansion.

    Returns ``(rows, index)``: ``index[coord]`` is ``(den, where)``, with
    ``den`` the common denominator of the coordinate's entries (None when
    they are all rational) and ``where[monomial]`` the pair of the row's
    index and the lcm of the row's denominators.
    """
    rows: List[Dict[int, int]] = []
    index: Dict[int, tuple] = {}
    for coord in sorted(at):
        entries = at[coord]
        scalars = list(entries.values())
        if all(x.is_rational() for x in scalars):
            vectors, monos, den = [[x.rat] for x in scalars], [None], None
        else:
            vectors, monos, den = monomial_vectors(scalars)
        where: Dict[object, Tuple[int, int]] = {}
        index[coord] = (den, where)
        for m, mono in enumerate(monos):
            fracs = [vec[m] for vec in vectors]
            if not any(fracs):
                continue
            denom = lcm(*(f.denominator for f in fracs))
            where[mono] = (len(rows), denom)
            rows.append(
                {j: f.numerator * (denom // f.denominator) for j, f in zip(entries, fracs) if f}
            )
    return rows, index


def _coefficients_over(t: Scalar, den: Optional[dict]) -> Optional[Dict[object, int | Fraction]]:
    """The coefficients of ``t * den`` in the monomials of a coordinate
    whose entries have the common denominator ``den`` (None: all rational),
    or None when ``t`` cannot be a Q-combination of those entries."""
    if den is None:
        return {None: t.rat} if t.is_rational() else None
    try:
        return _numerator_over(t, den)
    except ArithmeticError:
        return None


class _PreimageSystem:
    """Which codomain elements a map hits modulo the codomain's relations,
    eliminated once.

    The system is built from a codomain and the generator images of a map
    into it: continuous images ``h(c_j)`` (rows) and discrete images
    ``(c_i, d_i)`` (a row and an int row).  ``(x, n)`` maps onto
    ``(t_c, t_d)`` modulo the codomain's relations iff some field
    coefficients ``lambda`` over the C-rows ``C_k`` and integers ``m`` over
    the Z-rows ``(zc_k, zd_k)`` give ``sum x_j h(c_j) + sum lambda_k C_k =
    t_c + sum y_i ycols_i`` on the continuous part, with ``y = (n, m)`` and
    ``ycols`` the negated continuous parts of the discrete images followed
    by the Z-rows' continuous parts, and ``sum n_i d_i - sum m_k zd_k =
    t_d`` on the discrete part.  A group's relation span is the system of
    the map with no generators: an element lies in the span iff it has a
    preimage.

    The columns ``(h(c_j), C_k)`` are eliminated once.  The field part is
    solvable iff the right side reduces to zero against them, that is iff
    every left-null functional ``eta_f`` of the columns (one per free
    coordinate ``f``) kills it; since ``eta_f . v`` equals ``reduce(v)[f]``,
    reducing each of ``ycols`` once and the target once per solve gives
    these conditions exactly.  They are Q-linear, hence integer, conditions
    on ``y`` (see :func:`_int_rows_from_scalar_columns`), solved together
    with the discrete part.  The elimination also records the field
    coefficients ``(x, lambda)``, which :meth:`preimage` and
    :meth:`kernel_generators` read; membership needs none.

    The integer side is factored once, on first use, and kept in the
    ``ints`` slot (see :meth:`factored`).  Its matrix is the monomial rows
    of ``ycoords``, each row's denominators cleared over the system's own
    entries, followed by the nonzero discrete rows.  A target then gives
    only a right side: at each coordinate where the reduced target is
    nonzero, ``t * den`` is expanded in that coordinate's monomials, and
    each monomial's coefficient ``c`` goes to its row as ``-c * D``, ``D``
    being the row's cleared denominator; a discrete target entry goes to
    its discrete row.  A target entry with no row to go to meets a zero
    left side, so it has no solution: a coordinate or monomial outside the
    system, a ``t`` whose denominator does not divide ``den``, or a nonzero
    discrete entry where no image and no Z-row has one.  So does a right
    side ``-c * D`` that is not an integer.  Whenever a solution exists,
    the matrix is the one the per-target expansion of ``ycoords`` and the
    target would build, so the answer is the same.

    A system with no continuous data (no continuous images, no C-rows and
    an empty continuous column for every integer unknown) is its integer
    side alone: ``field`` is false, it eliminates nothing (``elim`` is the
    shared elimination of no vectors, ``_NO_FIELD``) and expands no
    monomial, a target with a continuous part has no preimage, every
    integer solution is one with no field part, and :meth:`preimage` and
    :meth:`kernel_generators` read the Smith form directly.  They give the
    values the field path would: ``({}, _head(y, gd))`` for each ``y``.

    A system depends only on the codomain and the images, so one is built
    per value (see :func:`_system_of`) and shared.  It keeps the kernel of
    the map on the generators as well (:meth:`kernel_generators`).
    """

    __slots__ = (
        "table", "gc", "gd", "field", "elim", "ycols", "ycoords", "disc_rows", "ints", "kgens"
    )

    def __init__(
        self,
        cod: PresentedAbelianGroup,
        cont_images: Sequence[Row] = (),
        disc_images: Sequence[Tuple[Row, IntRow]] = (),
    ):
        self.table = cod.table
        self.gc, self.gd = len(cont_images), len(disc_images)
        crows = [r.cont for r in cod.relations if r.span == "C" and r.cont]
        zrows = cod.zrows()
        self.ycols = [_neg(c) for c, _ in disc_images] + [r.cont for r in zrows]
        self.disc_rows = _by_coordinate([d for _, d in disc_images] + [_neg(r.disc) for r in zrows])
        self.field = bool(cont_images or crows or any(self.ycols))
        if self.field:
            self.elim = _Elimination(list(cont_images) + crows, cod.table, track=True)
            self.ycoords = _by_coordinate([self.elim.reduce(c) for c in self.ycols])
        else:
            self.elim, self.ycoords = _NO_FIELD, {}
        self.ints: Optional[Tuple[_IntSystem, Dict[int, tuple], Dict[int, int]]] = None
        self.kgens: Optional[_KernelGenerators] = None

    def factored(self) -> Tuple[_IntSystem, Dict[int, tuple], Dict[int, int]]:
        """The integer side, built and factored on first use: the system,
        the index of its monomial rows, and the row of each discrete
        coordinate that has one."""
        if self.ints is None:
            rows, index = _int_rows_from_scalar_columns(self.ycoords)
            disc_at: Dict[int, int] = {}
            for coord in sorted(self.disc_rows):
                disc_at[coord] = len(rows)
                rows.append(self.disc_rows[coord])
            self.ints = (_IntSystem(rows, len(self.ycols)), index, disc_at)
        return self.ints

    def has_line(self, vcont: Mapping[int, Scalar]) -> bool:
        """Whether the whole complex line through ``vcont`` lies in the span
        of the C-rows and the continuous images.

        A finitely generated Z-span can absorb a line only if the line is
        zero, so the Z-rows and the discrete images never help.
        """
        return not self.elim.reduce(vcont)

    def contains(
        self, cont_images: Sequence[Row], disc_images: Sequence[Tuple[Row, IntRow]]
    ) -> bool:
        """Whether the span holds every given generator image, each
        continuous one with its whole complex line."""
        return all(self.has_line(v) for v in cont_images) and all(
            not (c or d) or self.solve(c, d) is not None for c, d in disc_images
        )

    def solve(
        self, target_cont: Mapping[int, Scalar], target_disc: Mapping[int, int]
    ) -> Optional[IntRow]:
        """The integer unknowns ``y`` of one preimage, or None if there is
        none; the target is a row and an int row, neither holding a zero."""
        ints, index, disc_at = self.factored()
        b: Dict[int, int] = {}
        if target_cont and not self.field:
            return None
        for coord, t in self.elim.reduce(target_cont).items():
            at = index.get(coord)
            coeffs = None if at is None else _coefficients_over(t, at[0])
            if coeffs is None:
                return None
            for mono, c in coeffs.items():
                hit = at[1].get(mono)
                if hit is None:
                    return None
                row, denom = hit
                x = -c * denom
                if x.denominator != 1:
                    return None
                b[row] = x.numerator
        for coord, x in target_disc.items():
            row = disc_at.get(coord)
            if row is None:
                return None
            b[row] = x
        return ints.solve(b)

    def field_part(self, y: Mapping[int, int], target_cont: Mapping[int, Scalar]) -> Optional[Row]:
        """Field coefficients ``(x, lambda)`` for an admissible ``y``, or None."""
        rem = dict(target_cont)
        for j, val in y.items():
            col = self.ycols[j]
            if col:
                _addmul(rem, val, col)
        return self.elim.express(rem)

    def preimage(
        self, target_cont: Mapping[int, Scalar], target_disc: Mapping[int, int]
    ) -> Optional[Tuple[Row, IntRow]]:
        y = self.solve(target_cont, target_disc)
        if y is None:
            return None
        if not self.field:
            return {}, _head(y, self.gd)
        x = self.field_part(y, target_cont)
        if x is None:
            return None
        return _head(x, self.gc), _head(y, self.gd)

    def kernel_generators(self) -> _KernelGenerators:
        """The kernel's generators, computed on first use and kept: the
        factored system's integer nullspace with its field parts, and the
        field nullspace projected to the domain's continuous generators."""
        if self.kgens is None:
            ybasis = self.factored()[0].nullspace()
            if self.field:
                self.kgens = self._field_kernel_generators(ybasis)
            else:
                self.kgens = _KernelGenerators([], [({}, _head(y, self.gd)) for y in ybasis])
        return self.kgens

    def _field_kernel_generators(self, ybasis: List[IntRow]) -> _KernelGenerators:
        # Integer unknowns y = (n, m) are admissible iff the field system is
        # solvable for the right side they give.
        disc: List[Tuple[Row, IntRow]] = []  # (x, n) in the domain
        for y in ybasis:
            xi = self.field_part(y, {})
            if xi is None:
                raise NonFiniteTypeKernel("admissible integer solution lost field solvability")
            disc.append((_head(xi, self.gc), _head(y, self.gd)))
        xparts = [_head(dep, self.gc) for dep in self.elim.dependencies]
        cont, _ = _Elimination(xparts, self.table).rref()
        return _KernelGenerators(cont, disc)


class _KernelGenerators(NamedTuple):
    """The generators of a kernel as domain elements, without relations.
    They are kept by a shared system, so no caller mutates them."""

    cont: List[Row]  # continuous directions, one complex line each
    disc: List[Tuple[Row, IntRow]]  # one (x, n) per admissible integer unknown


def _head(row: Mapping[int, _X], n: int) -> Dict[int, _X]:
    """The entries of ``row`` before column ``n``."""
    return {j: x for j, x in row.items() if j < n} if row else {}


# Bound of the preimage system memo: a cohomology computation revisits the
# systems of a few dozen distinct maps (54 on a geodesic of 129 joints).
SYSTEM_CACHE_SIZE = 128


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _system_cached(
    cod: PresentedAbelianGroup, cont_keys: tuple, disc_keys: tuple
) -> _PreimageSystem:
    cont, disc = [dict(c) for c in cont_keys], [(dict(c), dict(d)) for c, d in disc_keys]
    return _PreimageSystem(cod, cont, disc)


def _system_of(h: GroupHom) -> _PreimageSystem:
    """The preimage system of ``h``, shared by every map with an equal
    codomain and equal generator images through one bounded memo of
    ``SYSTEM_CACHE_SIZE`` entries; domains and atoms do not enter it."""
    return _system_cached(h.cod, *h._image_keys())


def _span_of(g: PresentedAbelianGroup) -> _PreimageSystem:
    """The relation span of ``g``: the shared system of a map into ``g``
    with no generators (see :func:`_system_of`)."""
    return _system_cached(g, (), ())


def check_hom(h: GroupHom) -> None:
    """Verify that ``h`` is a homomorphism of presented groups.

    Raises :class:`HomError` naming the offending relation if any domain
    relation fails to land in the codomain's relation span, and
    :class:`UnsupportedAtomMap` for atom maps outside the model.  A hom
    that passes is recorded as checked in its verdict bits (see
    :func:`_verdict`) and not checked again; a failure records nothing, so
    it raises on every call.
    """
    if not h._verdicts & _CHECKED:
        _check_hom(h)
        h._verdicts |= _CHECKED


def _check_hom(h: GroupHom) -> None:
    for k, j in enumerate(h.atom_images):
        if j is None:
            continue
        da, ca = h.dom.atoms[k], h.cod.atoms[j]
        if da.name != ca.name:
            raise UnsupportedAtomMap(
                f"atom {da.label()} cannot map onto a different atom {ca.label()}"
            )
        if da.mod_order != ca.mod_order and da.mod_order is not None:
            raise UnsupportedAtomMap(f"no canonical map {da.label()} -> {ca.label()}")
    if not h.dom.relations:
        return
    span = _span_of(h.cod)
    for idx, r in enumerate(h.dom.relations):
        img_c, img_d = h.apply(r.cont, r.disc)
        if r.span == "C":
            if not span.has_line(img_c):
                raise HomError(f"relation {idx} (C-span) maps outside the codomain span")
        elif (img_c or img_d) and span.solve(img_c, img_d) is None:
            raise HomError(f"relation {idx} maps outside the codomain span")


def _all_die_in(
    g: PresentedAbelianGroup, cont: Sequence[Row], disc: Sequence[Tuple[Row, IntRow]]
) -> bool:
    """Whether every given image, rows and int rows without zeros, lies in
    the relation span of ``g``; all-empty images need no span."""
    if not any(cont) and not any(c or d for c, d in disc):
        return True
    return _span_of(g).contains(cont, disc)


def hom_is_zero(h: GroupHom) -> bool:
    """Whether ``h`` is the zero map (every generator image dies in the cod)."""
    if any(j is not None for j in h.atom_images):
        return False
    return _all_die_in(h.cod, h.cont_images, h.disc_images)


def compose(g: GroupHom, f: GroupHom) -> GroupHom:
    """``g`` after ``f``."""
    if f.cod != g.dom:
        raise ValueError("compose: middle groups differ")
    cont_images = [_in_order(_row_times(v, g.cont_images)) for v in f.cont_images]
    disc_images = []
    for c, d in f.disc_images:
        img_c, img_d = g.apply(c, d)
        disc_images.append((_in_order(img_c), _in_order(img_d)))
    atom_images = [None if j is None else g.atom_images[j] for j in f.atom_images]
    return GroupHom._from_stored(f.dom, g.cod, cont_images, disc_images, atom_images)


def _unit_images(
    g: PresentedAbelianGroup,
) -> Tuple[List[Row], List[Tuple[Row, IntRow]], Tuple[int, ...]]:
    """The generator images of the identity of ``g``."""
    one = Scalar.one(g.table)
    cont = [{i: one} for i in range(g.cont_rank)]
    return cont, _disc_ident(g.disc_rank), tuple(range(len(g.atoms)))


def identity_hom(g: PresentedAbelianGroup) -> GroupHom:
    return GroupHom._from_stored(g, g, *_unit_images(g))


def zero_hom(dom: PresentedAbelianGroup, cod: PresentedAbelianGroup) -> GroupHom:
    disc = [({}, {})] * dom.disc_rank
    return GroupHom._from_stored(dom, cod, [{}] * dom.cont_rank, disc, (None,) * len(dom.atoms))


def negate_hom(h: GroupHom) -> GroupHom:
    """The hom ``x -> -h(x)``.

    Atoms are opaque, so a nonzero atom image cannot be negated coordinate-wise
    and raises :class:`UnsupportedAtomMap`.
    """
    if any(j is not None for j in h.atom_images):
        raise UnsupportedAtomMap("cannot negate a map with nonzero atom images")
    cont = [_neg(v) for v in h.cont_images]
    disc = [(_neg(c), _neg(d)) for c, d in h.disc_images]
    return GroupHom._from_stored(h.dom, h.cod, cont, disc, h.atom_images)


def hom_equal(a: GroupHom, b: GroupHom) -> bool:
    """Whether two homs with the same domain and codomain are equal as maps:
    whether their differences on the generators die in the codomain, read
    off its relation span with no difference hom built."""
    if a.dom != b.dom or a.cod != b.cod:
        raise ValueError("hom_equal: domains or codomains differ")
    if a.atom_images != b.atom_images:
        return False

    def minus(u: Row, v: Row) -> Row:
        out = dict(u)
        if v:
            _addmul(out, -1, v)
        return out

    return _all_die_in(
        a.cod,
        [minus(u, v) for u, v in zip(a.cont_images, b.cont_images)],
        [
            (minus(ca, cb), _mix(1, da, -1, db))
            for (ca, da), (cb, db) in zip(a.disc_images, b.disc_images)
        ],
    )


Offsets = List[Tuple[int, int, int]]


def direct_sum(
    groups: Sequence[PresentedAbelianGroup], table: Optional[SymbolTable] = None
) -> Tuple[PresentedAbelianGroup, Offsets]:
    """Direct sum with the block offsets of its summands.

    Returns ``(total, offsets)`` where ``offsets[i]`` is the
    ``(cont, disc, atom)`` offset triple of the i-th summand inside the sum;
    :func:`block_hom` builds every map into or out of it.  An empty family
    needs an explicit ``table`` and yields the trivial group.

    >>> t = SymbolTable([])
    >>> z2 = PresentedAbelianGroup.from_invariant_factors(t, [2])
    >>> total, offsets = direct_sum([z2, PresentedAbelianGroup.free_cont(t, 1), z2])
    >>> classify(total).text(), offsets
    ('C (+) Z/2 (+) Z/2', [(0, 0, 0), (0, 1, 0), (1, 1, 0)])
    """
    if not groups:
        if table is None:
            raise ValueError("direct sum of an empty family needs a symbol table")
        return PresentedAbelianGroup.trivial(table), []
    table = groups[0].table
    for g in groups:
        if g.table != table:
            raise ValueError("direct sum over mixed symbol tables")
    cont = sum(g.cont_rank for g in groups)
    disc = sum(g.disc_rank for g in groups)
    relations: List[Relation] = []
    atoms: List[AtomFactor] = []
    offsets: Offsets = []
    co = do = ao = 0
    for g in groups:
        offsets.append((co, do, ao))
        for r in g.relations:
            relations.append(Relation(_shift(r.cont, co), _shift(r.disc, do), r.span))
        atoms.extend(g.atoms)
        co += g.cont_rank
        do += g.disc_rank
        ao += len(g.atoms)
    return PresentedAbelianGroup._from_stored(table, cont, disc, relations, atoms), offsets


def _shape(g: PresentedAbelianGroup) -> Tuple[int, int, int]:
    return (g.cont_rank, g.disc_rank, len(g.atoms))


def _summand_shape(
    total: PresentedAbelianGroup, offsets: Sequence[Tuple[int, int, int]], i: int
) -> Tuple[int, int, int]:
    end = offsets[i + 1] if i + 1 < len(offsets) else _shape(total)
    return tuple(b - a for a, b in zip(offsets[i], end))  # type: ignore[return-value]


def block_hom(
    dom: PresentedAbelianGroup,
    dom_offsets: Sequence[Tuple[int, int, int]],
    cod: PresentedAbelianGroup,
    cod_offsets: Sequence[Tuple[int, int, int]],
    blocks: Iterable[Tuple[int, int, GroupHom, int]],
) -> GroupHom:
    """The hom between direct sums assembled from blocks.

    Each block ``(i, j, h, sign)`` adds ``sign * h`` (``sign`` is ``1`` or
    ``-1``) into the rows of domain summand ``i`` and the columns of
    codomain summand ``j``; a group that is not a sum is its own single
    summand with offsets ``[(0, 0, 0)]``.  A block must have the shape of
    its two summands, or :class:`ValueError` is raised.  Atoms are opaque:
    only the image subgroup matters, so the sign does not touch them, and a
    domain atom may be sent to a codomain atom by one block only; a second
    assignment raises :class:`UnsupportedAtomMap`.

    >>> t = SymbolTable([])
    >>> z2 = PresentedAbelianGroup.from_invariant_factors(t, [2])
    >>> total, offsets = direct_sum([z2, z2])
    >>> one = identity_hom(z2)
    >>> diagonal = block_hom(z2, [(0, 0, 0)], total, offsets, [(0, 0, one, 1), (0, 1, one, 1)])
    >>> diagonal.disc_images
    (({}, {0: 1, 1: 1}),)
    >>> block_hom(total, offsets, z2, [(0, 0, 0)], [(0, 0, one, 1), (1, 0, one, -1)]).disc_images
    (({}, {0: 1}), ({}, {0: -1}))
    """
    cont: List[Row] = [{} for _ in range(dom.cont_rank)]
    disc_c: List[Row] = [{} for _ in range(dom.disc_rank)]
    disc_d: List[IntRow] = [{} for _ in range(dom.disc_rank)]
    atoms: List[Optional[int]] = [None] * len(dom.atoms)
    for i, j, h, sign in blocks:
        if _shape(h.dom) != _summand_shape(dom, dom_offsets, i) or _shape(
            h.cod
        ) != _summand_shape(cod, cod_offsets, j):
            raise ValueError(f"block ({i}, {j}) does not have the shape of its summands")
        dc, dd, da = dom_offsets[i]
        cc, cd, ca = cod_offsets[j]
        for a, vec in enumerate(h.cont_images):
            if vec:
                _addmul(cont[dc + a], sign, _shift(vec, cc))
        for a, (cvec, dvec) in enumerate(h.disc_images):
            if cvec:
                _addmul(disc_c[dd + a], sign, _shift(cvec, cc))
            _sub_multiple(disc_d[dd + a], -sign, _shift(dvec, cd))
        for a, tgt in enumerate(h.atom_images):
            if tgt is None:
                continue
            if atoms[da + a] is not None:
                raise UnsupportedAtomMap(
                    f"atom {dom.atoms[da + a].label()} of domain summand {i} "
                    "maps onto more than one codomain atom"
                )
            atoms[da + a] = ca + tgt
    return GroupHom._from_stored(
        dom,
        cod,
        map(_in_order, cont),
        [(_in_order(c), _in_order(d)) for c, d in zip(disc_c, disc_d)],
        atoms,
    )


# ---------------------------------------------------------------------------
# Normalization: elementary steps, each returning (group, T, S) with
# T: old -> new, S: new -> old, and T . S the identity of the new group.
# ---------------------------------------------------------------------------


def _regenerated(
    g: PresentedAbelianGroup, g2: PresentedAbelianGroup
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom]:
    """``g2`` on the generators of ``g``, with the identity maps both ways."""
    images = _unit_images(g2)
    return g2, GroupHom._from_stored(g, g2, *images), GroupHom._from_stored(g2, g, *images)


def _step_eliminate_crows(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom]:
    """Quotient out the C-span rows.

    The quotient of ``C^a`` by a complex subspace is again a complex vector
    space: pivot continuous generators are eliminated and every remaining row
    is reduced modulo the subspace.
    """
    table = g.table
    one = Scalar.one(table)
    crows = [r.cont for r in g.relations if r.span == "C" and r.cont]
    if not crows:
        g2 = PresentedAbelianGroup._from_stored(table, g.cont_rank, g.disc_rank, g.zrows(), g.atoms)
        return _regenerated(g, g2)
    elim = _Elimination(crows, table)
    keep = [j for j in range(g.cont_rank) if j not in elim.rows]
    position = {j: i for i, j in enumerate(keep)}

    def project(v: Mapping[int, Scalar]) -> Row:
        return _in_order({position[j]: x for j, x in elim.reduce(v).items()})

    relations = []
    for r in g.relations:
        if r.span == "C":
            continue
        c2 = project(r.cont)
        if c2 or r.disc:
            relations.append(Relation(c2, r.disc, "Z"))
    g2 = PresentedAbelianGroup._from_stored(table, len(keep), g.disc_rank, relations, g.atoms)
    atoms = tuple(range(len(g.atoms)))
    disc = _disc_ident(g.disc_rank)
    t = GroupHom._from_stored(g, g2, [project({i: one}) for i in range(g.cont_rank)], disc, atoms)
    s = GroupHom._from_stored(g2, g, [{j: one} for j in keep], disc, atoms)
    return g2, t, s


def _step_discrete_smith(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom]:
    """Bring the discrete block of the relations to Smith normal form.

    Afterwards every relation is either pure-continuous or a diagonal torsion
    row ``d * e_k`` with ``d >= 2``.  A torsion row that kept a continuous
    part ``c`` is made pure by the ambient automorphism
    ``(x, n) |-> (x - (n_k / d) c, n)``; unit rows eliminate their generator.
    The new discrete generators are the columns of the Smith form's ``V``,
    so the maps read ``V`` one way and ``V^-1`` the other.  This is the one
    caller that asks the factorization for ``V^-1``.  The discrete parts go
    to it as the int rows they are stored as; it reads the sparse columns
    of ``U`` and ``V`` and the diagonal, and the sparse rows of ``V^-1``
    are the discrete images of ``s`` as they stand.  Which ``U`` and ``V``
    the factorization picks is free: others give another presentation
    of the same group, with the same torsion orders (the diagonal), and
    maps ``t`` and ``s`` that are still inverse isomorphisms.
    """
    table = g.table
    one = Scalar.one(table)
    assert all(r.span == "Z" for r in g.relations), "run after C-row elimination"
    cc, dc = g.cont_rank, g.disc_rank
    if not any(r.disc for r in g.relations):
        relations = [r for r in g.relations if r.cont]
        g2 = PresentedAbelianGroup._from_stored(table, cc, dc, relations, g.atoms)
        return _regenerated(g, g2)

    u, diag, v, vinv = _smith_normal_form([r.disc for r in g.relations], dc, inverse=True)

    # Per-coordinate bookkeeping in the V-transformed discrete coordinates:
    # relation i becomes (sum_k u[i][k] c_k, diag[i] e_i).  Column k of U
    # holds the share of old relation k in each new one.
    conts: List[Row] = [{} for _ in g.relations]
    for r, col in zip(g.relations, u):
        if r.cont:
            for i, coef in col.items():
                _addmul(conts[i], coef, r.cont)
    conts = [_in_order(c) for c in conts]
    diag_order = [0] * dc  # 0 = free, 1 = eliminated, d >= 2 = torsion
    corr: List[Optional[Row]] = [None] * dc  # c / d of a mixed row
    cont_rows: List[Row] = []
    for i, c in enumerate(conts):
        dk = diag[i] if i < len(diag) else 0
        if not dk:
            if c:
                cont_rows.append(c)
            continue
        diag_order[i] = 1 if dk == 1 else dk
        if c:
            corr[i] = {j: x.scale(Fraction(1, dk)) for j, x in c.items()}

    survivors = [k for k in range(dc) if diag_order[k] != 1]
    new_index = {k: i for i, k in enumerate(survivors)}
    nd = len(survivors)
    relations = [Relation(c, {}, "Z") for c in cont_rows]
    for k in survivors:
        if diag_order[k] >= 2:
            relations.append(Relation({}, {new_index[k]: diag_order[k]}, "Z"))
    g2 = PresentedAbelianGroup._from_stored(table, cc, nd, relations, g.atoms)

    # Entry j of column k of V: coordinate k of the old generator e_j after V.
    cont_ident = [{i: one} for i in range(cc)]
    t_disc: List[Tuple[Row, IntRow]] = [({}, {}) for _ in range(dc)]
    for k, col in enumerate(v):
        for j, x in col.items():
            acc, disc_part = t_disc[j]
            if corr[k] is not None:
                _addmul(acc, -x, corr[k])
            if diag_order[k] != 1:
                disc_part[new_index[k]] = x
    atoms = tuple(range(len(g.atoms)))
    t = GroupHom._from_stored(g, g2, cont_ident, [(_in_order(c), d) for c, d in t_disc], atoms)

    s_disc = []
    for k in survivors:
        c_part = corr[k] if corr[k] is not None and diag_order[k] >= 2 else {}
        s_disc.append((c_part, _in_order(vinv[k])))
    s = GroupHom._from_stored(g2, g, cont_ident, s_disc, atoms)
    return g2, t, s


def _signnorm(s: Scalar) -> Scalar:
    return -s if s.rat < 0 and s.is_polynomial() else s


def _gen_sort_key(s: Scalar) -> Tuple[bool, int, str]:
    text = str(s)
    return (text != "1", s.total_degree(), text)


def _canonical_display(
    gens: List[Scalar], table: SymbolTable
) -> Tuple[List[Scalar], Scalar]:
    """Pick the canonical scaling of a lattice generating set.

    Divides by each candidate generator in turn, scoring the rescaled set by
    (number of non-polynomial entries, maximal total degree, rendered text)
    and keeping the best; returns ``(display_gens, scale)`` where the group
    coordinate is divided by ``scale``.
    """
    one = Scalar.one(table)
    candidates = [one] + [_signnorm(g) for g in gens if not g.is_zero()]
    best = None
    for sigma in candidates:
        cand = sorted((_signnorm(g / sigma) for g in gens), key=_gen_sort_key)
        score = (
            sum(1 for g in cand if not g.is_polynomial()),
            max(g.total_degree() for g in cand),
            tuple(str(g) for g in cand),
            str(sigma),
        )
        if best is None or score < best[0]:
            best = (score, cand, sigma)
    return best[1], best[2]


class _ContBlock(NamedTuple):
    kind: str  # "cstar", "lattice", "nondiscrete", "block"
    coords: List[int]  # positions among the transformed coordinates
    gens: List[Row]  # canonical relation rows over the coords
    fwd: List[Row]  # change into the final coordinates
    back: List[Row]  # inverse change


def _split_cont_blocks(
    rows_t: List[Row], d_c: int, table: SymbolTable
) -> List[_ContBlock]:
    """Split the continuous relation rows into independent coordinate blocks
    and canonicalize each block's lattice."""
    parent = list(range(d_c))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for row in rows_t:
        support = sorted(row)
        for q in support[1:]:
            parent[find(q)] = find(support[0])
    groups: dict = {}
    for q in range(d_c):
        groups.setdefault(find(q), []).append(q)
    # Every coordinate of a row lies in one block: bucket the rows once, in order.
    rows_of: Dict[int, List[Row]] = {}
    for row in rows_t:
        if row:
            rows_of.setdefault(find(next(iter(row))), []).append(row)

    one, zero = Scalar.one(table), Scalar.zero(table)
    blocks: List[_ContBlock] = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        coords = sorted(groups[root])
        block_rows = rows_of.get(root, [])
        # Joint monomial expansion: one slice of coefficients per coordinate.
        joint: List[List[Fraction]] = [[] for _ in block_rows]
        slices: List[Tuple[int, int]] = []
        bases: List[List[Scalar]] = []
        offset = 0
        for q in coords:
            vectors, basis = monomial_expansion([row.get(q, zero) for row in block_rows])
            slices.append((offset, len(basis)))
            bases.append(basis)
            for i, vec in enumerate(vectors):
                joint[i].extend(vec)
            offset += len(basis)
        gens: List[Row] = []
        for vec in _rational_lattice_basis(joint):
            gen: Row = {}
            for pos, ((off, width), basis) in enumerate(zip(slices, bases)):
                acc = zero
                for f, b in zip(vec[off : off + width], basis):
                    if f:
                        acc = acc + b.scale(f)
                if not acc.is_zero():
                    gen[pos] = acc
            gens.append(gen)
        rank = len(gens)
        k = len(coords)
        if k == 1:
            flat = [gvec[0] for gvec in gens]
            if rank == 1:
                sigma = _signnorm(flat[0])
                blocks.append(
                    _ContBlock("cstar", coords, [{0: one}], [{0: one / sigma}], [{0: sigma}])
                )
            else:
                display, sigma = _canonical_display(flat, table)
                kind = "lattice" if rank == 2 else "nondiscrete"
                blocks.append(
                    _ContBlock(
                        kind, coords, [{0: g} for g in display], [{0: one / sigma}], [{0: sigma}]
                    )
                )
        else:
            ident = [{i: one} for i in range(k)]
            if rank == k:
                blocks.append(_ContBlock("cstar", coords, ident, _field_inverse(gens, table), gens))
            else:
                blocks.append(_ContBlock("block", coords, gens, ident, ident))
    return blocks


# Bound of the normal form memo shared by classify and cokernel.
NORMALIZE_CACHE_SIZE = 32


@lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def _normalize_full(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom, "NormalFormReport"]:
    table = g.table
    zero, one = Scalar.zero(table), Scalar.one(table)
    # Only the steps that change coordinates are composed: with no C-span
    # relation the first step is the identity of g.
    if any(r.span == "C" for r in g.relations):
        g1, t1, s1 = _step_eliminate_crows(g)
        g2, t, s = _step_discrete_smith(g1)
        t, s = compose(t, t1), compose(s1, s)
    else:
        g2, t, s = _step_discrete_smith(g)

    cc = g2.cont_rank
    cont_rows = [r.cont for r in g2.relations if r.cont]
    torsion: List[Tuple[int, int]] = []
    for r in g2.relations:
        if not r.cont:
            torsion.extend(r.disc.items())  # one entry d at k: the row d * e_k
    torsion.sort()
    invariant_factors = tuple(d for _, d in torsion)
    free_disc = g2.disc_rank - len(torsion)

    unit_rows: List[Row] = [{q: one} for q in range(cc)]
    if cont_rows:
        rref, pivots = _Elimination(cont_rows, table).rref()
        d_c = len(rref)
        nonpivots = [q for q in range(cc) if q not in pivots]
        bmat = rref + [unit_rows[q] for q in nonpivots]
        pmat = _field_inverse(bmat, table)
        rows_t = [_row_times(row, pmat) for row in cont_rows]
        for row in rows_t:
            assert all(q < d_c for q in row), "relation escaped its field span"
        blocks = _split_cont_blocks(rows_t, d_c, table)
        free_cont = cc - d_c
    else:
        d_c = 0
        bmat = pmat = unit_rows
        blocks = []
        free_cont = cc

    # Final coordinate order: block coordinates first, then free ones.
    wmat: List[Row] = [{} for _ in range(cc)]
    winv: List[Row] = [{} for _ in range(cc)]
    final = 0
    block_spans: List[Tuple[_ContBlock, int]] = []
    for block in blocks:
        for q, row in zip(block.coords, block.fwd):
            wmat[q].update(_shift(row, final))
        for j, row in enumerate(block.back):
            winv[final + j] = {block.coords[i]: x for i, x in row.items()}
        block_spans.append((block, final))
        final += len(block.coords)
    for q in range(d_c, cc):
        wmat[q][final] = one
        winv[final][q] = one
        final += 1
    assert final == cc

    tmat = [_row_times(row, wmat) for row in pmat]
    smat = [_row_times(row, bmat) for row in winv]

    relations: List[Relation] = []
    lattices: List[Tuple[Scalar, ...]] = []
    nondiscrete: List[Tuple[Scalar, ...]] = []
    nd_blocks: List[Tuple[Tuple[Scalar, ...], ...]] = []
    cstar_count = 0
    for block, start in block_spans:
        k = len(block.coords)
        if block.kind == "cstar":
            cstar_count += k
        elif block.kind in ("lattice", "nondiscrete"):
            gens = tuple(gvec[0] for gvec in block.gens)
            (lattices if block.kind == "lattice" else nondiscrete).append(gens)
        else:
            # The report lists each generator over every coordinate of its block.
            nd_blocks.append(
                tuple(tuple(gvec.get(j, zero) for j in range(k)) for gvec in block.gens)
            )
        relations.extend(Relation(_shift(gvec, start), {}, "Z") for gvec in block.gens)
    for coord, d in torsion:
        relations.append(Relation({}, {coord: d}, "Z"))
    ng = PresentedAbelianGroup._from_stored(table, cc, g2.disc_rank, relations, g2.atoms)

    if tmat != unit_rows or smat != unit_rows or ng != g2:
        disc_ident = _disc_ident(g2.disc_rank)
        atoms = tuple(range(len(g2.atoms)))
        t3 = GroupHom._from_stored(g2, ng, map(_in_order, tmat), disc_ident, atoms)
        s3 = GroupHom._from_stored(ng, g2, map(_in_order, smat), disc_ident, atoms)
        t, s = compose(t3, t), compose(s, s3)

    report = NormalFormReport(
        free_cont_rank=free_cont,
        cstar_count=cstar_count,
        lattices=tuple(sorted(lattices, key=lambda L: (len(L), tuple(map(str, L))))),
        nondiscrete=tuple(sorted(nondiscrete, key=lambda L: (len(L), tuple(map(str, L))))),
        nondiscrete_blocks=tuple(nd_blocks),
        free_disc_rank=free_disc,
        invariant_factors=invariant_factors,
        atoms=tuple(
            sorted(ng.atoms, key=lambda a: (a.name, -1 if a.mod_order is None else a.mod_order))
        ),
        group=ng,
    )
    return ng, t, s, report


class NormalFormReport:
    """The classification of a presented group into standard factors.

    ``lattices`` holds rank-2 single-coordinate quotients ``C/L`` (discrete
    lattices -- honest quotient tori -- for generic parameter values);
    ``nondiscrete`` holds single-coordinate quotients whose subgroup has
    Q-rank at least 3 and is therefore dense for generic values.  Both store
    canonical generator tuples.  ``group`` is the normalized presentation.

    A report is immutable: assigning or deleting an attribute raises
    :class:`AttributeError`.  Equality and hash cover the eight
    classification fields and ignore ``group``, so ``==`` is the "same
    classification" comparator and ``!=`` its negation.
    """

    __slots__ = (
        "free_cont_rank",
        "cstar_count",
        "lattices",
        "nondiscrete",
        "nondiscrete_blocks",
        "free_disc_rank",
        "invariant_factors",
        "atoms",
        "group",
    )

    def __init__(
        self,
        free_cont_rank: int,
        cstar_count: int,
        lattices: Tuple[Tuple[Scalar, ...], ...],
        nondiscrete: Tuple[Tuple[Scalar, ...], ...],
        nondiscrete_blocks: Tuple[Tuple[Tuple[Scalar, ...], ...], ...],
        free_disc_rank: int,
        invariant_factors: Tuple[int, ...],
        atoms: Tuple[AtomFactor, ...],
        group: PresentedAbelianGroup,
    ):
        values = (
            free_cont_rank,
            cstar_count,
            lattices,
            nondiscrete,
            nondiscrete_blocks,
            free_disc_rank,
            invariant_factors,
            atoms,
            group,
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a NormalFormReport")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a NormalFormReport")

    def _classification(self) -> tuple:
        """The eight fields that equality and hash compare: all but ``group``."""
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._classification() == other._classification()

    def __hash__(self) -> int:
        return hash(self._classification())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"NormalFormReport({fields})"

    @property
    def is_trivial(self) -> bool:
        return self.is_finite and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return (
            self.free_cont_rank == 0
            and self.cstar_count == 0
            and not self.lattices
            and not self.nondiscrete
            and not self.nondiscrete_blocks
            and self.free_disc_rank == 0
            and not self.atoms
        )

    @property
    def has_atoms(self) -> bool:
        return bool(self.atoms)

    @property
    def has_nondiscrete(self) -> bool:
        return bool(self.nondiscrete or self.nondiscrete_blocks)

    def order(self) -> Optional[int]:
        """Group order when finite, else None."""
        if not self.is_finite:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def factor_texts(self) -> Dict[str, List[str]]:
        """The rendered factors by kind, in the order :meth:`text` joins
        them: ``"C"``, ``"C*"``, ``"C/L"`` (lattice, then non-discrete
        quotients), ``"C^k/L"``, ``"Z"``, ``"Z/d"`` and ``"atoms"``."""

        def power(base: str, rank: int, wrapped: str) -> List[str]:
            return [base if rank == 1 else f"{wrapped}^{rank}"] if rank else []

        return {
            "C": power("C", self.free_cont_rank, "C"),
            "C*": power("C*", self.cstar_count, "(C*)"),
            "C/L": [
                "C/(" + " + ".join("Z" if str(g) == "1" else f"({g})Z" for g in gens) + ")"
                for gens in self.lattices + self.nondiscrete
            ],
            "C^k/L": [
                f"C^{len(block[0])}/<"
                + ", ".join("(" + ", ".join(map(str, v)) + ")" for v in block)
                + ">"
                for block in self.nondiscrete_blocks
            ],
            "Z": power("Z", self.free_disc_rank, "Z"),
            "Z/d": [f"Z/{d}" for d in self.invariant_factors],
            "atoms": [a.label() for a in self.atoms],
        }

    def text(self) -> str:
        """Canonical human-readable decomposition, factors joined by (+)."""
        parts = [p for kind in self.factor_texts().values() for p in kind]
        return " (+) ".join(parts) if parts else "0"


def classify(g: PresentedAbelianGroup) -> NormalFormReport:
    """Classify a presented group into standard factors.

    >>> t = SymbolTable(["alpha_t", "beta_t"])
    >>> one = Scalar.one(t)
    >>> a2 = Scalar.symbol(t, "alpha_t").scale(2)
    >>> b2 = Scalar.symbol(t, "beta_t").scale(2)
    >>> rep = classify(PresentedAbelianGroup.lattice_quotient(t, [one, a2, b2]))
    >>> rep.text()
    'C/(Z + (2*alpha_t)Z + (2*beta_t)Z)'
    >>> rep.has_nondiscrete
    True
    >>> classify(PresentedAbelianGroup.lattice_quotient(t, [a2])).text()
    'C*'
    """
    return _normalize_full(g)[3]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class KernelResult(NamedTuple):
    group: PresentedAbelianGroup
    inclusion: GroupHom  # kernel -> domain of the mapped hom


def kernel(h: GroupHom) -> KernelResult:
    """Kernel subgroup with its inclusion into the domain.

    The generators are the domain elements whose image lies in the
    codomain's relation span: the kernel generators of ``h``'s preimage
    system, a mixed field/integer system over the monomial expansion solved
    exactly (see :meth:`_PreimageSystem.kernel_generators`).  The relations
    are the kernel of the inclusion in turn, read off the system of the
    generator images into the domain: the combinations of the generators
    that vanish in the domain, each continuous direction a ``"C"`` row and
    each integer one a ``"Z"`` row.  That system depends only on the domain
    and the images, so it is the inclusion's own, and
    :func:`factor_through` into the inclusion and :func:`is_injective` of
    it reuse it.  Domain atoms are allowed only when they
    collapse to zero (they enter the kernel whole) or map by identity (they
    avoid it); the quotient map on an atom has a kernel this model cannot
    present, raising :class:`UnsupportedAtomMap`.

    The result is memoized on ``h`` in a bounded cache of
    ``KERNEL_CACHE_SIZE`` entries and shared between equal homs; its group
    and inclusion are immutable values (see :class:`PresentedAbelianGroup`).
    """
    return _kernel_cached(h)


def _kernel(h: GroupHom) -> KernelResult:
    table = h.dom.table
    atoms: List[int] = []  # the domain atoms h collapses
    for k, j in enumerate(h.atom_images):
        if j is None:
            atoms.append(k)
        elif h.dom.atoms[k].mod_order != h.cod.atoms[j].mod_order:
            raise UnsupportedAtomMap(
                f"kernel of the quotient map on atom {h.dom.atoms[k].label()} "
                "is not finitely presented"
            )
    vbasis, disc_gens = _system_of(h).kernel_generators()
    # The generators on a free group: the kernel's relations are the kernel
    # of this map, and its system is the inclusion's, shared through the memo.
    free = PresentedAbelianGroup._from_stored(table, len(vbasis), len(disc_gens))
    gens = GroupHom._from_stored(
        free,
        h.dom,
        map(_in_order, vbasis),
        [(_in_order(x), _in_order(n)) for x, n in disc_gens],
    )
    syzygies = _system_of(gens).kernel_generators()
    relations = [Relation(_in_order(v), {}, "C") for v in syzygies.cont]
    # A syzygy among the domain's relations alone is a zero row, and goes.
    relations += [Relation(_in_order(x), _in_order(a), "Z") for x, a in syzygies.disc if x or a]
    kernel_atoms = [h.dom.atoms[k] for k in atoms]
    kg = PresentedAbelianGroup._from_stored(
        table, len(vbasis), len(disc_gens), relations, kernel_atoms
    )
    # The inclusion shares the images gens stored, and their keys.
    inclusion = GroupHom._from_stored(kg, h.dom, gens.cont_images, gens.disc_images, atoms)
    inclusion._keys = gens._image_keys()
    return KernelResult(kg, inclusion)


KERNEL_CACHE_SIZE = 32
_kernel_cached = lru_cache(maxsize=KERNEL_CACHE_SIZE)(_kernel)


# ---------------------------------------------------------------------------
# Cokernels
# ---------------------------------------------------------------------------


class CokernelResult(NamedTuple):
    group: PresentedAbelianGroup  # normalized
    projection: GroupHom  # codomain -> cokernel
    section: GroupHom  # cokernel -> codomain, a choice of representatives


def cokernel(h: GroupHom) -> CokernelResult:
    """Cokernel ``cod / im``, normalized, with projection and a section.

    The image of each continuous generator is killed as a complex line, the
    image of each discrete generator as a cyclic subgroup; codomain atoms
    that receive an atom collapse entirely.  ``section`` picks representative
    elements (``projection . section`` is the identity on the cokernel) but
    is generally not itself a homomorphism into the codomain.

    The quotient ``q`` keeps the generators of the codomain, so the
    projection is the normal form's map out of ``q`` read on them: its
    continuous and discrete images as they stand, and each surviving atom
    sent where the normal form sends it.
    """
    cod = h.cod
    extra = [Relation(v, {}, "C") for v in h.cont_images]
    extra += [Relation(c, d, "Z") for c, d in h.disc_images]
    received = {j for j in h.atom_images if j is not None}
    survivors = [j for j in range(len(cod.atoms)) if j not in received]
    new_atom_index = {j: i for i, j in enumerate(survivors)}
    q = PresentedAbelianGroup._from_stored(
        cod.table,
        cod.cont_rank,
        cod.disc_rank,
        list(cod.relations) + extra,
        [cod.atoms[j] for j in survivors],
    )
    nq, tq, sq, _ = _normalize_full(q)
    projection = GroupHom._from_stored(
        cod,
        nq,
        tq.cont_images,
        tq.disc_images,
        tuple(
            tq.atom_images[new_atom_index[j]] if j in new_atom_index else None
            for j in range(len(cod.atoms))
        ),
    )
    section = GroupHom._from_stored(
        nq,
        cod,
        sq.cont_images,
        sq.disc_images,
        tuple(survivors[j] for j in sq.atom_images),
    )
    return CokernelResult(nq, projection, section)


def preimage_element(
    h: GroupHom, target_cont: Mapping[int, Scalar], target_disc: Mapping[int, int]
) -> Optional[Tuple[Row, IntRow]]:
    """Domain coordinates of one preimage of a codomain element, or None.

    The element is ``(target_cont, target_disc)`` in codomain coordinates,
    a row and an int row, neither holding a zero, and is only required to
    be hit modulo the codomain's relations.  The preimage comes back in the same form.  Atoms
    do not enter: the element lives in the continuous/discrete part.

    >>> t = SymbolTable([])
    >>> z4 = PresentedAbelianGroup.from_invariant_factors(t, [4])
    >>> z2 = PresentedAbelianGroup.from_invariant_factors(t, [2])
    >>> h = GroupHom(z4, z2, [], [({}, {0: 1})], ())
    >>> preimage_element(h, {}, {0: 1})
    ({}, {0: 1})
    """
    return _system_of(h).preimage(target_cont, target_disc)


def factor_through(f: GroupHom, mono: GroupHom, check: bool = True) -> GroupHom:
    """The hom ``g`` with ``mono . g == f``, for ``f`` landing in ``mono``'s image.

    Used to corestrict a map into a kernel via the kernel's inclusion.  The
    result is validated with :func:`check_hom` unless ``check`` is false
    (for intermediate maps that only become homs after further
    composition); raises :class:`HomError` when some generator image does
    not factor.
    """
    if f.cod != mono.cod:
        raise ValueError("factor_through: codomains differ")
    atom_images: List[Optional[int]] = []
    for k, j in enumerate(f.atom_images):
        if j is None:
            atom_images.append(None)
            continue
        t = next(
            (
                t
                for t, jj in enumerate(mono.atom_images)
                if jj == j and mono.dom.atoms[t].mod_order == f.dom.atoms[k].mod_order
            ),
            None,
        )
        if t is None:
            raise HomError(f"atom {f.dom.atoms[k].label()} does not factor")
        atom_images.append(t)
    # One system serves every generator; the coefficients of mono's
    # continuous images come first in each field solution.
    system = _system_of(mono)
    cont_images = []
    for v in f.cont_images:
        sol = system.elim.express(v)
        if sol is None:
            raise HomError("continuous generator does not factor")
        cont_images.append(_in_order(_head(sol, system.gc)))
    disc_images = []
    for c, d in f.disc_images:
        pre = system.preimage(c, d)
        if pre is None:
            raise HomError("discrete generator does not factor")
        disc_images.append((_in_order(pre[0]), _in_order(pre[1])))
    g = GroupHom._from_stored(f.dom, mono.dom, cont_images, disc_images, atom_images)
    if check:
        check_hom(g)
    return g


# ---------------------------------------------------------------------------
# Predicates
#
# A hom is a value that never changes, so whether it is a checked hom, one
# to one or onto is decided once per hom object and recorded in its
# ``_verdicts`` int: one bit for a passed check_hom, and for each predicate
# one bit saying it is decided and the next bit holding the answer.  The
# bits refer to no other object, and equal homs built apart decide apart.
# ---------------------------------------------------------------------------

_CHECKED = 1
_INJECTIVE_DECIDED = 2
_SURJECTIVE_DECIDED = 8


def _verdict(h: GroupHom, decided: int, decide: Callable[[GroupHom], bool]) -> bool:
    """``decide(h)``, computed on the first call for ``h`` and read from its
    verdict bits after: bit ``decided`` is set once it is recorded, and bit
    ``2 * decided`` holds the answer."""
    bits = h._verdicts
    if not bits & decided:
        bits = h._verdicts = bits | decided | (2 * decided if decide(h) else 0)
    return bool(bits & 2 * decided)


def is_surjective(h: GroupHom) -> bool:
    """Whether ``h`` is onto, that is whether ``cokernel(h)`` is trivial.

    It is iff every codomain atom receives an atom and every codomain
    generator lies in the span of the images and the codomain's relations
    (:func:`_system_of`); a continuous generator is tested as its whole
    complex line, which only the complex span can kill.  ``h`` must be a
    checked hom (see :func:`check_hom`), as it is at every caller.  The
    verdict is decided once per hom object (see :func:`_verdict`).
    """
    return _verdict(h, _SURJECTIVE_DECIDED, _surjective)


def _surjective(h: GroupHom) -> bool:
    received = {j for j in h.atom_images if j is not None}
    if len(received) != len(h.cod.atoms):
        return False
    one = Scalar.one(h.cod.table)
    lines = [{i: one} for i in range(h.cod.cont_rank)]
    return _system_of(h).contains(lines, _disc_ident(h.cod.disc_rank))


def is_injective(h: GroupHom) -> bool:
    """Whether ``h`` is one-to-one, that is whether ``kernel(h)`` is trivial.

    An atom collapsed or genuinely quotiented is a kernel; otherwise the
    kernel is trivial iff every one of its generators (kept by ``h``'s
    system, see :meth:`_PreimageSystem.kernel_generators`) is zero in the
    domain, that is lies in the relation span of ``h.dom``, a continuous one
    with its whole line.  ``h`` must be a checked hom (see
    :func:`check_hom`), as it is at every caller.  The verdict is decided
    once per hom object (see :func:`_verdict`).
    """
    return _verdict(h, _INJECTIVE_DECIDED, _injective)


def _injective(h: GroupHom) -> bool:
    for k, j in enumerate(h.atom_images):
        if j is None:
            return False
        if h.dom.atoms[k].mod_order is None and h.cod.atoms[j].mod_order is not None:
            return False  # a genuine quotient on the atom
    gens = _system_of(h).kernel_generators()
    return _span_of(h.dom).contains(gens.cont, gens.disc)


def is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Whether ``image(f) == kernel(g)`` at the middle group ``f.cod == g.dom``.

    The inclusion ``image <= kernel`` is checked as ``g . f == 0``; for the
    converse every generator of ``kernel(g)`` (no relations needed, kept by
    ``g``'s system) must lie in the span of the middle group's relations
    together with the rows of ``f``'s generator images, that is in ``f``'s
    own system, a continuous one with its whole line.  So each map's system
    serves the checks on both sides of it.  Middle-group atoms are matched
    structurally: an atom killed by ``g`` is in the kernel and must receive
    a whole atom under ``f``.  ``f`` and ``g`` must be checked homs (see
    :func:`check_hom`), as they are at every caller.
    """
    if f.cod != g.dom:
        raise ValueError("maps are not composable")
    if not hom_is_zero(compose(g, f)):
        return False
    covered = {j for j in f.atom_images if j is not None}
    for k, j in enumerate(g.atom_images):
        if j is None:
            if k not in covered:
                return False
        elif g.dom.atoms[k].mod_order is None and g.cod.atoms[j].mod_order is not None:
            raise UnsupportedAtomMap(
                "exactness against a genuine atom quotient cannot be verified"
            )
    gens = _system_of(g).kernel_generators()
    return _system_of(f).contains(gens.cont, gens.disc)
