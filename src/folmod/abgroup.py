"""Finitely presented topological abelian groups, exactly.

A group here is a quotient of ``C^a (+) Z^b (+) atoms`` by the span of
finitely many relation rows.  Each row has a continuous part (a vector of
:class:`~folmod.exactnum.Scalar`), a discrete part (a vector of ints) and a
span tag: ``"Z"`` identifies the row's integer multiples with zero, ``"C"``
identifies the whole complex line through the row with zero (such rows arise
as images of continuous generators and must have a zero discrete part).
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
>>> h = GroupHom(line, torus, cont_images=((Scalar.one(t),),), disc_images=())
>>> k = kernel(h)
>>> classify(k.group).text()
'Z^2'
>>> [str(c[0]) for c, _ in k.inclusion.disc_images]
['tau_i', 'mu*tau_i']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import (
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .exactnum import (
    IntMatrix,
    Scalar,
    SymbolTable,
    monomial_expansion,
    monomial_vectors,
    smith_normal_form,
)

__all__ = [
    "HomError",
    "UnsupportedAtomMap",
    "NonFiniteTypeKernel",
    "AtomFactor",
    "Relation",
    "PresentedAbelianGroup",
    "GroupHom",
    "check_hom",
    "hom_is_zero",
    "hom_equal",
    "compose",
    "identity_hom",
    "zero_hom",
    "negate_hom",
    "direct_sum",
    "direct_sum_with_maps",
    "kernel",
    "KernelResult",
    "cokernel",
    "CokernelResult",
    "induced_cokernel_map",
    "preimage_element",
    "factor_through",
    "normalize_with_maps",
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
    cont: Tuple[Scalar, ...]
    disc: Tuple[int, ...]
    span: str  # "Z" or "C"


# ---------------------------------------------------------------------------
# Field linear algebra over vectors of Scalars
# ---------------------------------------------------------------------------


def _vzero(table: SymbolTable, n: int) -> List[Scalar]:
    z = Scalar.zero(table)
    return [z] * n


def _vadd(u: Sequence[Scalar], v: Sequence[Scalar]) -> List[Scalar]:
    return [a + b for a, b in zip(u, v)]


def _vsub(u: Sequence[Scalar], v: Sequence[Scalar]) -> List[Scalar]:
    return [a - b for a, b in zip(u, v)]


def _vscale(u: Sequence[Scalar], c: Scalar) -> List[Scalar]:
    return [c * a for a in u]


def _vq(u: Sequence[Scalar], q: "Fraction | int") -> List[Scalar]:
    return [a.scale(q) for a in u]


def _viszero(u: Sequence[Scalar]) -> bool:
    return all(a.is_zero() for a in u)


def _vdot(u: Sequence[Scalar], v: Sequence[Scalar], table: SymbolTable) -> Scalar:
    acc = Scalar.zero(table)
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


def _field_rref(
    rows: Sequence[Sequence[Scalar]],
) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form over Q(symbols); returns (rows, pivot cols)."""
    work = [list(r) for r in rows if not _viszero(r)]
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
                work[i] = _vsub(work[i], _vscale(work[r], work[i][col]))
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _field_reduce(
    rref: Sequence[Sequence[Scalar]], pivots: Sequence[int], v: Sequence[Scalar]
) -> List[Scalar]:
    out = list(v)
    for row, p in zip(rref, pivots):
        if not out[p].is_zero():
            out = _vsub(out, _vscale(row, out[p]))
    return out


def _field_solve(
    rows: Sequence[Sequence[Scalar]],
    b: Sequence[Scalar],
    ncols: int,
    table: SymbolTable,
) -> Optional[List[Scalar]]:
    """One solution of ``A x = b`` (rows of ``A`` given), free variables 0."""
    aug = [list(rows[i]) + [b[i]] for i in range(len(rows))]
    rref, pivots = _field_rref(aug)
    if ncols in pivots:
        return None
    x = _vzero(table, ncols)
    for row, p in zip(rref, pivots):
        x[p] = row[ncols]
    return x


def _field_nullspace(
    rows: Sequence[Sequence[Scalar]], ncols: int, table: SymbolTable
) -> List[List[Scalar]]:
    """Basis of ``{x : A x = 0}`` with the rows of ``A`` given."""
    rref, pivots = _field_rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis: List[List[Scalar]] = []
    one = Scalar.one(table)
    for f in free:
        vec = _vzero(table, ncols)
        vec[f] = one
        for row, p in zip(rref, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def _field_inverse(
    rows: Sequence[Sequence[Scalar]], table: SymbolTable
) -> List[List[Scalar]]:
    n = len(rows)
    one = Scalar.one(table)
    zero = Scalar.zero(table)
    aug = [list(rows[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rref, pivots = _field_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in rref]


def _mat_mul(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]], table: SymbolTable
) -> List[List[Scalar]]:
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = _vzero(table, n)
        for x, brow in zip(row, b):
            if not x.is_zero():
                acc = _vadd(acc, _vscale(brow, x))
        out.append(acc)
    return out


def _mat_row(
    v: Sequence[Scalar], m: Sequence[Sequence[Scalar]], table: SymbolTable
) -> List[Scalar]:
    out = _vzero(table, len(m[0]) if m else 0)
    for x, row in zip(v, m):
        if not x.is_zero():
            out = _vadd(out, _vscale(row, x))
    return out


# ---------------------------------------------------------------------------
# Integer linear algebra (on top of Smith normal form)
# ---------------------------------------------------------------------------


def _int_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
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


def _int_solve(
    rows: Sequence[Sequence[int]], b: Sequence[int], ncols: int
) -> Optional[List[int]]:
    """One integer solution of ``rows . y = b``, or None."""
    if not rows:
        return [0] * ncols
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
    u, d, v = smith_normal_form(IntMatrix(rows))
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


def _int_inverse(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Inverse of a unimodular integer matrix, exactly."""
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
    """

    __slots__ = ("table", "cont_rank", "disc_rank", "relations", "atoms")

    def __init__(
        self,
        table: SymbolTable,
        cont_rank: int,
        disc_rank: int,
        relations: Iterable[Relation] = (),
        atoms: Iterable[AtomFactor] = (),
    ):
        relations = tuple(
            Relation(tuple(r.cont), tuple(int(x) for x in r.disc), r.span)
            for r in relations
        )
        for r in relations:
            if len(r.cont) != cont_rank or len(r.disc) != disc_rank:
                raise ValueError("relation width does not match generator counts")
            if r.span not in ("Z", "C"):
                raise ValueError(f"invalid relation span {r.span!r}")
            if r.span == "C" and any(r.disc):
                raise ValueError("C-span relations cannot touch discrete generators")
            for s in r.cont:
                if s.table != table:
                    raise ValueError("relation scalar over a different symbol table")
        atoms = tuple(AtomFactor(a.name, a.mod_order) for a in atoms)
        for a in atoms:
            if a.mod_order is not None and (a.mod_order < 0 or a.mod_order == 1):
                raise ValueError("atom mod_order must be None, 0, or >= 2")
        self.table = table
        self.cont_rank = int(cont_rank)
        self.disc_rank = int(disc_rank)
        self.relations = relations
        self.atoms = atoms

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
        return cls(table, 1, 0, [Relation((g,), (), "Z") for g in gens])

    @classmethod
    def from_invariant_factors(
        cls, table: SymbolTable, factors: Sequence[int]
    ) -> "PresentedAbelianGroup":
        n = len(factors)
        rels = [
            Relation((), tuple(f if j == i else 0 for j in range(n)), "Z")
            for i, f in enumerate(factors)
        ]
        return cls(table, 0, n, rels)

    @classmethod
    def atom_group(
        cls, table: SymbolTable, name: str, mod_order: Optional[int] = None
    ) -> "PresentedAbelianGroup":
        return cls(table, 0, 0, (), (AtomFactor(name, mod_order),))

    # -- views ----------------------------------------------------------------

    def crows(self) -> List[List[Scalar]]:
        return [list(r.cont) for r in self.relations if r.span == "C"]

    def zrows(self) -> List[Relation]:
        return [r for r in self.relations if r.span == "Z"]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PresentedAbelianGroup)
            and self.table == other.table
            and self.cont_rank == other.cont_rank
            and self.disc_rank == other.disc_rank
            and self.relations == other.relations
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash(
            (self.table, self.cont_rank, self.disc_rank, self.relations, self.atoms)
        )

    def __repr__(self) -> str:
        return (
            f"<PresentedAbelianGroup cont={self.cont_rank} disc={self.disc_rank} "
            f"rels={len(self.relations)} atoms={[a.label() for a in self.atoms]}>"
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "symbols": self.table.to_json(),
            "cont_rank": self.cont_rank,
            "disc_rank": self.disc_rank,
            "relations": [
                {
                    "cont": [s.to_json() for s in r.cont],
                    "disc": list(r.disc),
                    "span": r.span,
                }
                for r in self.relations
            ],
            "atoms": [{"name": a.name, "mod_order": a.mod_order} for a in self.atoms],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PresentedAbelianGroup":
        table = SymbolTable.from_json(data["symbols"])
        rels = [
            Relation(
                tuple(Scalar.from_json(table, s) for s in r["cont"]),
                tuple(int(x) for x in r["disc"]),
                r["span"],
            )
            for r in data.get("relations", ())
        ]
        atoms = [AtomFactor(a["name"], a["mod_order"]) for a in data.get("atoms", ())]
        return cls(table, data["cont_rank"], data["disc_rank"], rels, atoms)


class GroupHom:
    """A homomorphism of presented groups, given by generator images.

    ``cont_images[i]`` is the image of the i-th continuous generator as a
    coordinate vector over the codomain's continuous generators (a continuous
    generator carries a complex line, so its image cannot touch discrete
    generators).  ``disc_images[j]`` is a pair ``(cont_part, disc_part)``.
    ``atom_images[k]`` is the index of the codomain atom receiving the k-th
    domain atom, or ``None`` when that atom collapses to zero.

    >>> t = SymbolTable([])
    >>> g6 = PresentedAbelianGroup.from_invariant_factors(t, [6])
    >>> g3 = PresentedAbelianGroup.from_invariant_factors(t, [3])
    >>> f = GroupHom(g6, g3, disc_images=[((), (1,))])
    >>> check_hom(f)
    >>> classify(kernel(f).group).text()
    'Z/2'
    """

    __slots__ = ("dom", "cod", "cont_images", "disc_images", "atom_images")

    def __init__(
        self,
        dom: PresentedAbelianGroup,
        cod: PresentedAbelianGroup,
        cont_images: Sequence[Sequence[Scalar]] = (),
        disc_images: Sequence[Tuple[Sequence[Scalar], Sequence[int]]] = (),
        atom_images: Sequence[Optional[int]] = (),
    ):
        if dom.table != cod.table:
            raise ValueError("homomorphism across different symbol tables")
        cont_images = tuple(tuple(v) for v in cont_images)
        disc_images = tuple((tuple(c), tuple(int(x) for x in d)) for c, d in disc_images)
        atom_images = tuple(None if x is None else int(x) for x in atom_images)
        if len(cont_images) != dom.cont_rank:
            raise ValueError("wrong number of continuous generator images")
        if len(disc_images) != dom.disc_rank:
            raise ValueError("wrong number of discrete generator images")
        if len(atom_images) != len(dom.atoms):
            raise ValueError("wrong number of atom images")
        for v in cont_images:
            if len(v) != cod.cont_rank:
                raise ValueError("continuous image has wrong width")
        for c, d in disc_images:
            if len(c) != cod.cont_rank or len(d) != cod.disc_rank:
                raise ValueError("discrete image has wrong width")
        for k in atom_images:
            if k is not None and not 0 <= k < len(cod.atoms):
                raise ValueError("atom image index out of range")
        self.dom = dom
        self.cod = cod
        self.cont_images = cont_images
        self.disc_images = disc_images
        self.atom_images = atom_images

    def apply(
        self, cont: Sequence[Scalar], disc: Sequence[int]
    ) -> Tuple[List[Scalar], List[int]]:
        """Image of the element with the given generator coordinates."""
        table = self.dom.table
        out_c = _vzero(table, self.cod.cont_rank)
        out_d = [0] * self.cod.disc_rank
        for x, v in zip(cont, self.cont_images):
            if not x.is_zero():
                out_c = _vadd(out_c, _vscale(v, x))
        for n, (c, d) in zip(disc, self.disc_images):
            if n:
                out_c = _vadd(out_c, _vq(c, n))
                out_d = [a + n * b for a, b in zip(out_d, d)]
        return out_c, out_d

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.cont_images == other.cont_images
            and self.disc_images == other.disc_images
            and self.atom_images == other.atom_images
        )

    def __repr__(self) -> str:
        return f"<GroupHom {self.dom!r} -> {self.cod!r}>"

    def to_json(self) -> dict:
        return {
            "cont_images": [[s.to_json() for s in v] for v in self.cont_images],
            "disc_images": [
                {"cont": [s.to_json() for s in c], "disc": list(d)}
                for c, d in self.disc_images
            ],
            "atom_images": list(self.atom_images),
        }

    @classmethod
    def from_json(
        cls, dom: PresentedAbelianGroup, cod: PresentedAbelianGroup, data: Mapping
    ) -> "GroupHom":
        return cls(
            dom,
            cod,
            [[Scalar.from_json(dom.table, s) for s in v] for v in data["cont_images"]],
            [
                ([Scalar.from_json(dom.table, s) for s in d["cont"]], d["disc"])
                for d in data["disc_images"]
            ],
            data["atom_images"],
        )


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def _int_rows_from_scalar_columns(
    columns: Sequence[Sequence[Scalar]],
    targets: Sequence[Scalar],
) -> Tuple[List[List[int]], List[int]]:
    """Expand ``sum n_j columns[j] = targets`` coordinate-wise over monomials.

    Each coordinate contributes one integer row per monomial appearing there,
    with denominators cleared row by row; returns ``(rows, rhs)``.
    """
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
            ints = [int(f * denom) for f in fracs]
            rows.append(ints[:-1])
            rhs.append(ints[-1])
    return rows, rhs


def _member(
    cod: PresentedAbelianGroup,
    vcont: Sequence[Scalar],
    vdisc: Sequence[int],
    extra_c: Sequence[Sequence[Scalar]] = (),
    extra_z: Sequence[Tuple[Sequence[Scalar], Sequence[int]]] = (),
) -> Optional[List[int]]:
    """Certificate that ``(vcont, vdisc)`` lies in the span of the codomain's
    relations plus the extra rows, or None.

    The certificate is the vector of integer coefficients over the Z-rows
    (the codomain's own first, then ``extra_z``); C-rows are eliminated over
    the field first, which preserves membership exactly.
    """
    crows = [list(r) for r in cod.crows()] + [list(r) for r in extra_c]
    crows = [r for r in crows if not _viszero(r)]
    zrows = [(list(r.cont), list(r.disc)) for r in cod.zrows()] + [
        (list(c), list(d)) for c, d in extra_z
    ]
    if crows:
        rref, pivots = _field_rref(crows)
        v = _field_reduce(rref, pivots, list(vcont))
        cont_cols = [_field_reduce(rref, pivots, c) for c, _ in zrows]
    else:
        v = list(vcont)
        cont_cols = [c for c, _ in zrows]
    rows, rhs = _int_rows_from_scalar_columns(cont_cols, v)
    for coord in range(cod.disc_rank):
        row = [d[coord] for _, d in zrows]
        b = vdisc[coord]
        if any(row) or b:
            rows.append(row)
            rhs.append(b)
    if not rows:
        return [0] * len(zrows)
    return _int_solve(rows, rhs, len(zrows))


def _line_in_span(
    cod: PresentedAbelianGroup,
    vcont: Sequence[Scalar],
    extra_c: Sequence[Sequence[Scalar]] = (),
) -> bool:
    """Whether the whole complex line through ``vcont`` lies in the span.

    True iff the vector reduces to zero against the C-rows: a finitely
    generated Z-span can absorb a line only if the line is zero, so the
    Z-rows never help.
    """
    crows = [list(r) for r in cod.crows()] + [list(r) for r in extra_c]
    crows = [r for r in crows if not _viszero(r)]
    if not crows:
        return _viszero(vcont)
    rref, pivots = _field_rref(crows)
    return _viszero(_field_reduce(rref, pivots, list(vcont)))


def check_hom(h: GroupHom) -> None:
    """Verify that ``h`` is a homomorphism of presented groups.

    Raises :class:`HomError` naming the offending relation if any domain
    relation fails to land in the codomain's relation span, and
    :class:`UnsupportedAtomMap` for atom maps outside the model.
    """
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
    for idx, r in enumerate(h.dom.relations):
        img_c, img_d = h.apply(r.cont, r.disc)
        if r.span == "C":
            if not _line_in_span(h.cod, img_c):
                raise HomError(f"relation {idx} (C-span) maps outside the codomain span")
        elif any(img_d) or not _viszero(img_c):
            if _member(h.cod, img_c, img_d) is None:
                raise HomError(f"relation {idx} maps outside the codomain span")


def hom_is_zero(h: GroupHom) -> bool:
    """Whether ``h`` is the zero map (every generator image dies in the cod)."""
    if any(j is not None for j in h.atom_images):
        return False
    for v in h.cont_images:
        if not _line_in_span(h.cod, v):
            return False
    for c, d in h.disc_images:
        if (any(d) or not _viszero(c)) and _member(h.cod, c, d) is None:
            return False
    return True


def compose(g: GroupHom, f: GroupHom) -> GroupHom:
    """``g`` after ``f``."""
    if f.cod != g.dom:
        raise ValueError("compose: middle groups differ")
    table = f.dom.table
    cont_images = []
    for v in f.cont_images:
        out = _vzero(table, g.cod.cont_rank)
        for x, w in zip(v, g.cont_images):
            if not x.is_zero():
                out = _vadd(out, _vscale(w, x))
        cont_images.append(tuple(out))
    disc_images = [tuple(map(tuple, g.apply(c, d))) for c, d in f.disc_images]
    atom_images = tuple(None if j is None else g.atom_images[j] for j in f.atom_images)
    return GroupHom(f.dom, g.cod, cont_images, disc_images, atom_images)


def identity_hom(g: PresentedAbelianGroup) -> GroupHom:
    one, zero = Scalar.one(g.table), Scalar.zero(g.table)
    cont = [
        tuple(one if j == i else zero for j in range(g.cont_rank))
        for i in range(g.cont_rank)
    ]
    disc = [
        (
            tuple(zero for _ in range(g.cont_rank)),
            tuple(1 if j == i else 0 for j in range(g.disc_rank)),
        )
        for i in range(g.disc_rank)
    ]
    return GroupHom(g, g, cont, disc, tuple(range(len(g.atoms))))


def zero_hom(dom: PresentedAbelianGroup, cod: PresentedAbelianGroup) -> GroupHom:
    zero = Scalar.zero(dom.table)
    cont = [tuple(zero for _ in range(cod.cont_rank)) for _ in range(dom.cont_rank)]
    disc = [
        (tuple(zero for _ in range(cod.cont_rank)), (0,) * cod.disc_rank)
        for _ in range(dom.disc_rank)
    ]
    return GroupHom(dom, cod, cont, disc, (None,) * len(dom.atoms))


def negate_hom(h: GroupHom) -> GroupHom:
    """The hom ``x -> -h(x)``.

    Atoms are opaque, so a nonzero atom image cannot be negated coordinate-wise
    and raises :class:`UnsupportedAtomMap`.
    """
    if any(j is not None for j in h.atom_images):
        raise UnsupportedAtomMap("cannot negate a map with nonzero atom images")
    cont = [tuple(-x for x in v) for v in h.cont_images]
    disc = [
        (tuple(-x for x in c), tuple(-n for n in d)) for c, d in h.disc_images
    ]
    return GroupHom(h.dom, h.cod, cont, disc, h.atom_images)


def hom_equal(a: GroupHom, b: GroupHom) -> bool:
    """Whether two homs with the same domain and codomain are equal as maps."""
    if a.dom != b.dom or a.cod != b.cod:
        raise ValueError("hom_equal: domains or codomains differ")
    if a.atom_images != b.atom_images:
        return False
    diff = GroupHom(
        _strip_atoms_group(a.dom),
        a.cod,
        [tuple(x - y for x, y in zip(u, v)) for u, v in zip(a.cont_images, b.cont_images)],
        [
            (tuple(x - y for x, y in zip(ca, cb)), tuple(m - n for m, n in zip(da, db)))
            for (ca, da), (cb, db) in zip(a.disc_images, b.disc_images)
        ],
        (),
    )
    return hom_is_zero(diff)


def _strip_atoms_group(g: PresentedAbelianGroup) -> PresentedAbelianGroup:
    if not g.atoms:
        return g
    return PresentedAbelianGroup(
        g.table, g.cont_rank, g.disc_rank, relations=g.relations, atoms=()
    )


def direct_sum(
    groups: Sequence[PresentedAbelianGroup], table: Optional[SymbolTable] = None
) -> PresentedAbelianGroup:
    return direct_sum_with_maps(groups, table)[0]


def direct_sum_with_maps(
    groups: Sequence[PresentedAbelianGroup], table: Optional[SymbolTable] = None
) -> Tuple[PresentedAbelianGroup, List[GroupHom], List[Tuple[int, int, int]]]:
    """Direct sum with injections and block offsets.

    Returns ``(total, injections, offsets)`` where ``offsets[i]`` is the
    ``(cont, disc, atom)`` offset triple of the i-th summand inside the sum.
    An empty family needs an explicit ``table`` and yields the trivial group.
    """
    if not groups:
        if table is None:
            raise ValueError("direct sum of an empty family needs a symbol table")
        return PresentedAbelianGroup.trivial(table), [], []
    table = groups[0].table
    for g in groups:
        if g.table != table:
            raise ValueError("direct sum over mixed symbol tables")
    zero, one = Scalar.zero(table), Scalar.one(table)
    cont = sum(g.cont_rank for g in groups)
    disc = sum(g.disc_rank for g in groups)
    relations: List[Relation] = []
    atoms: List[AtomFactor] = []
    offsets: List[Tuple[int, int, int]] = []
    co = do = ao = 0
    for g in groups:
        offsets.append((co, do, ao))
        for r in g.relations:
            rc = [zero] * cont
            rd = [0] * disc
            rc[co : co + g.cont_rank] = list(r.cont)
            rd[do : do + g.disc_rank] = list(r.disc)
            relations.append(Relation(tuple(rc), tuple(rd), r.span))
        atoms.extend(g.atoms)
        co += g.cont_rank
        do += g.disc_rank
        ao += len(g.atoms)
    total = PresentedAbelianGroup(table, cont, disc, relations, atoms)
    injections = []
    for g, (co, do, ao) in zip(groups, offsets):
        ci = [
            tuple(one if j == co + i else zero for j in range(cont))
            for i in range(g.cont_rank)
        ]
        di = [
            (
                tuple(zero for _ in range(cont)),
                tuple(1 if j == do + i else 0 for j in range(disc)),
            )
            for i in range(g.disc_rank)
        ]
        injections.append(
            GroupHom(g, total, ci, di, tuple(ao + i for i in range(len(g.atoms))))
        )
    return total, injections, offsets


# ---------------------------------------------------------------------------
# Normalization: elementary steps, each returning (group, T, S) with
# T: old -> new, S: new -> old, and T . S the identity of the new group.
# ---------------------------------------------------------------------------


def _step_eliminate_crows(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom]:
    """Quotient out the C-span rows.

    The quotient of ``C^a`` by a complex subspace is again a complex vector
    space: pivot continuous generators are eliminated and every remaining row
    is reduced modulo the subspace.
    """
    table = g.table
    zero, one = Scalar.zero(table), Scalar.one(table)
    crows = [list(r.cont) for r in g.relations if r.span == "C" and not _viszero(r.cont)]
    if not crows:
        g2 = PresentedAbelianGroup(table, g.cont_rank, g.disc_rank, g.zrows(), g.atoms)
        ident = identity_hom(g2)
        t = GroupHom(g, g2, ident.cont_images, ident.disc_images, ident.atom_images)
        s = GroupHom(g2, g, ident.cont_images, ident.disc_images, ident.atom_images)
        return g2, t, s
    rref, pivots = _field_rref(crows)
    keep = [j for j in range(g.cont_rank) if j not in pivots]

    def project(v: Sequence[Scalar]) -> List[Scalar]:
        red = _field_reduce(rref, pivots, list(v))
        return [red[j] for j in keep]

    relations = []
    for r in g.zrows():
        c2 = project(r.cont)
        if _viszero(c2) and not any(r.disc):
            continue
        relations.append(Relation(tuple(c2), r.disc, "Z"))
    g2 = PresentedAbelianGroup(table, len(keep), g.disc_rank, relations, g.atoms)
    disc_ident_new = [
        ((zero,) * len(keep), tuple(1 if j == i else 0 for j in range(g.disc_rank)))
        for i in range(g.disc_rank)
    ]
    disc_ident_old = [
        ((zero,) * g.cont_rank, tuple(1 if j == i else 0 for j in range(g.disc_rank)))
        for i in range(g.disc_rank)
    ]
    t = GroupHom(
        g,
        g2,
        [
            tuple(project([one if j == i else zero for j in range(g.cont_rank)]))
            for i in range(g.cont_rank)
        ],
        disc_ident_new,
        tuple(range(len(g.atoms))),
    )
    s = GroupHom(
        g2,
        g,
        [
            tuple(one if j == keep[i] else zero for j in range(g.cont_rank))
            for i in range(len(keep))
        ],
        disc_ident_old,
        tuple(range(len(g.atoms))),
    )
    return g2, t, s


def _step_discrete_smith(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom]:
    """Bring the discrete block of the relations to Smith normal form.

    Afterwards every relation is either pure-continuous or a diagonal torsion
    row ``d * e_k`` with ``d >= 2``.  A torsion row that kept a continuous
    part ``c`` is made pure by the ambient automorphism
    ``(x, n) |-> (x - (n_k / d) c, n)``; unit rows eliminate their generator.
    """
    table = g.table
    zero, one = Scalar.zero(table), Scalar.one(table)
    assert all(r.span == "Z" for r in g.relations), "run after C-row elimination"
    rows = [(list(r.cont), list(r.disc)) for r in g.relations]
    cc, dc = g.cont_rank, g.disc_rank
    if not rows or dc == 0 or not any(any(d) for _, d in rows):
        relations = [
            Relation(tuple(c), tuple(d), "Z")
            for c, d in rows
            if not _viszero(c) or any(d)
        ]
        g2 = PresentedAbelianGroup(table, cc, dc, relations, g.atoms)
        ident = identity_hom(g2)
        t = GroupHom(g, g2, ident.cont_images, ident.disc_images, ident.atom_images)
        s = GroupHom(g2, g, ident.cont_images, ident.disc_images, ident.atom_images)
        return g2, t, s

    u, dmat, v = smith_normal_form(IntMatrix([d for _, d in rows]))
    vrows = [list(r) for r in v.rows]
    vinv = _int_inverse(vrows)
    nrel = len(rows)
    new_rows: List[Tuple[List[Scalar], List[int]]] = []
    for i in range(nrel):
        c = [zero] * cc
        for k in range(nrel):
            coef = u.rows[i][k]
            if coef:
                c = _vadd(c, _vq(rows[k][0], coef))
        new_rows.append((c, list(dmat.rows[i])))

    # Per-coordinate bookkeeping in the V-transformed discrete coordinates.
    diag_order = [0] * dc  # 0 = free, 1 = eliminated, d >= 2 = torsion
    corr: List[Optional[List[Scalar]]] = [None] * dc  # c / d of a mixed row
    cont_rows: List[List[Scalar]] = []
    for c, d in new_rows:
        nz = [k for k in range(dc) if d[k]]
        if not nz:
            if not _viszero(c):
                cont_rows.append(c)
            continue
        if len(nz) != 1:
            raise NonFiniteTypeKernel("Smith form left a non-diagonal row")
        k = nz[0]
        dk = abs(d[k])
        if d[k] < 0:
            c = _vq(c, -1)
        diag_order[k] = 1 if dk == 1 else dk
        if not _viszero(c):
            corr[k] = _vq(c, Fraction(1, dk))

    survivors = [k for k in range(dc) if diag_order[k] != 1]
    new_index = {k: i for i, k in enumerate(survivors)}
    nd = len(survivors)
    relations = [Relation(tuple(c), (0,) * nd, "Z") for c in cont_rows]
    for k in survivors:
        if diag_order[k] >= 2:
            relations.append(
                Relation(
                    (zero,) * cc,
                    tuple(diag_order[k] if j == new_index[k] else 0 for j in range(nd)),
                    "Z",
                )
            )
    g2 = PresentedAbelianGroup(table, cc, nd, relations, g.atoms)

    cont_ident = [
        tuple(one if j == i else zero for j in range(cc)) for i in range(cc)
    ]
    t_disc = []
    for j in range(dc):
        nv = vrows[j]  # coordinates of the old generator e_j after V
        acc = [zero] * cc
        disc_part = [0] * nd
        for k in range(dc):
            if not nv[k]:
                continue
            if corr[k] is not None:
                acc = _vadd(acc, _vq(corr[k], -nv[k]))
            if diag_order[k] != 1:
                disc_part[new_index[k]] = nv[k]
        t_disc.append((tuple(acc), tuple(disc_part)))
    t = GroupHom(g, g2, cont_ident, t_disc, tuple(range(len(g.atoms))))

    s_disc = []
    for k in survivors:
        if corr[k] is not None and diag_order[k] >= 2:
            c_part = tuple(corr[k])
        else:
            c_part = (zero,) * cc
        s_disc.append((c_part, tuple(vinv[k])))
    s = GroupHom(g2, g, cont_ident, s_disc, tuple(range(len(g.atoms))))
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
    gens: List[List[Scalar]]  # canonical relation vectors over the coords
    fwd: List[List[Scalar]]  # change into the final coordinates
    back: List[List[Scalar]]  # inverse change


def _split_cont_blocks(
    rows_t: List[List[Scalar]], d_c: int, table: SymbolTable
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
        support = [q for q in range(d_c) if not row[q].is_zero()]
        for q in support[1:]:
            parent[find(q)] = find(support[0])
    groups: dict = {}
    for q in range(d_c):
        groups.setdefault(find(q), []).append(q)

    one, zero = Scalar.one(table), Scalar.zero(table)
    blocks: List[_ContBlock] = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        coords = sorted(groups[root])
        rows_q = []
        for row in rows_t:
            restricted = [row[q] for q in coords]
            if not _viszero(restricted):
                rows_q.append(restricted)
        # Joint monomial expansion: one slice of coefficients per coordinate.
        joint: List[List[Fraction]] = [[] for _ in rows_q]
        slices: List[Tuple[int, int]] = []
        bases: List[List[Scalar]] = []
        offset = 0
        for pos in range(len(coords)):
            vectors, basis = monomial_expansion([r[pos] for r in rows_q])
            slices.append((offset, len(basis)))
            bases.append(basis)
            for i, vec in enumerate(vectors):
                joint[i].extend(vec)
            offset += len(basis)
        gens = []
        for vec in _rational_lattice_basis(joint):
            gen = []
            for (off, width), basis in zip(slices, bases):
                acc = zero
                for f, b in zip(vec[off : off + width], basis):
                    if f:
                        acc = acc + b.scale(f)
                gen.append(acc)
            gens.append(gen)
        rank = len(gens)
        k = len(coords)
        if k == 1:
            flat = [gvec[0] for gvec in gens]
            if rank == 1:
                sigma = _signnorm(flat[0])
                blocks.append(
                    _ContBlock("cstar", coords, [[one]], [[one / sigma]], [[sigma]])
                )
            else:
                display, sigma = _canonical_display(flat, table)
                kind = "lattice" if rank == 2 else "nondiscrete"
                blocks.append(
                    _ContBlock(
                        kind, coords, [[g] for g in display], [[one / sigma]], [[sigma]]
                    )
                )
        elif rank == k:
            gmat = [list(gvec) for gvec in gens]
            ginv = _field_inverse(gmat, table)
            ident = [[one if i == j else zero for j in range(k)] for i in range(k)]
            blocks.append(_ContBlock("cstar", coords, ident, ginv, gmat))
        else:
            ident = [[one if i == j else zero for j in range(k)] for i in range(k)]
            blocks.append(_ContBlock("block", coords, gens, ident, ident))
    return blocks


def _normalize_full(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom, "NormalFormReport"]:
    table = g.table
    zero, one = Scalar.zero(table), Scalar.one(table)
    g1, t1, s1 = _step_eliminate_crows(g)
    g2, t2, s2 = _step_discrete_smith(g1)
    t12 = compose(t2, t1)
    s12 = compose(s1, s2)

    cc = g2.cont_rank
    cont_rows = [list(r.cont) for r in g2.relations if not _viszero(r.cont)]
    torsion: List[Tuple[int, int]] = []
    for r in g2.relations:
        if _viszero(r.cont):
            nz = [k for k, x in enumerate(r.disc) if x]
            if nz:
                torsion.append((nz[0], r.disc[nz[0]]))
    torsion.sort()
    invariant_factors = tuple(d for _, d in torsion)
    free_disc = g2.disc_rank - len(torsion)

    if cont_rows:
        rref, pivots = _field_rref(cont_rows)
        d_c = len(rref)
        nonpivots = [q for q in range(cc) if q not in pivots]
        bmat = [list(r) for r in rref] + [
            [one if j == q else zero for j in range(cc)] for q in nonpivots
        ]
        pmat = _field_inverse(bmat, table)
        rows_t = [_mat_row(row, pmat, table) for row in cont_rows]
        for row in rows_t:
            assert _viszero(row[d_c:]), "relation escaped its field span"
        blocks = _split_cont_blocks([row[:d_c] for row in rows_t], d_c, table)
        free_cont = cc - d_c
    else:
        d_c = 0
        bmat = pmat = [[one if j == i else zero for j in range(cc)] for i in range(cc)]
        blocks = []
        free_cont = cc

    # Final coordinate order: block coordinates first, then free ones.
    wmat = [[zero] * cc for _ in range(cc)]
    winv = [[zero] * cc for _ in range(cc)]
    final = 0
    block_spans: List[Tuple[_ContBlock, int]] = []
    for block in blocks:
        k = len(block.coords)
        for i, q in enumerate(block.coords):
            for j in range(k):
                wmat[q][final + j] = block.fwd[i][j]
                winv[final + j][q] = block.back[j][i]
        block_spans.append((block, final))
        final += k
    for q in range(d_c, cc):
        wmat[q][final] = one
        winv[final][q] = one
        final += 1
    assert final == cc

    tmat = _mat_mul(pmat, wmat, table) if cc else []
    smat = _mat_mul(winv, bmat, table) if cc else []

    relations: List[Relation] = []
    lattices: List[Tuple[Scalar, ...]] = []
    nondiscrete: List[Tuple[Scalar, ...]] = []
    nd_blocks: List[Tuple[Tuple[Scalar, ...], ...]] = []
    cstar_count = 0
    for block, start in block_spans:
        k = len(block.coords)
        if block.kind == "cstar":
            cstar_count += k
            for j in range(k):
                row = [zero] * cc
                row[start + j] = one
                relations.append(Relation(tuple(row), (0,) * g2.disc_rank, "Z"))
        elif block.kind in ("lattice", "nondiscrete"):
            gens = tuple(gvec[0] for gvec in block.gens)
            (lattices if block.kind == "lattice" else nondiscrete).append(gens)
            for gen in gens:
                row = [zero] * cc
                row[start] = gen
                relations.append(Relation(tuple(row), (0,) * g2.disc_rank, "Z"))
        else:
            nd_blocks.append(tuple(tuple(gvec) for gvec in block.gens))
            for gvec in block.gens:
                row = [zero] * cc
                row[start : start + k] = list(gvec)
                relations.append(Relation(tuple(row), (0,) * g2.disc_rank, "Z"))
    for coord, d in torsion:
        relations.append(
            Relation(
                (zero,) * cc,
                tuple(d if j == coord else 0 for j in range(g2.disc_rank)),
                "Z",
            )
        )
    ng = PresentedAbelianGroup(table, cc, g2.disc_rank, relations, g2.atoms)

    disc_ident = [
        ((zero,) * cc, tuple(1 if j == i else 0 for j in range(g2.disc_rank)))
        for i in range(g2.disc_rank)
    ]
    t3 = GroupHom(g2, ng, [tuple(r) for r in tmat], disc_ident, tuple(range(len(g2.atoms))))
    s3 = GroupHom(ng, g2, [tuple(r) for r in smat], disc_ident, tuple(range(len(g2.atoms))))
    t = compose(t3, t12)
    s = compose(s12, s3)

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


def normalize_with_maps(
    g: PresentedAbelianGroup,
) -> Tuple[PresentedAbelianGroup, GroupHom, GroupHom]:
    """Canonical normal form with maps in both directions.

    Returns ``(ng, to_normal, from_normal)``; both maps are homomorphisms and
    ``to_normal . from_normal`` is the identity of ``ng``, so they realize an
    isomorphism between ``g`` and its normal form.
    """
    ng, t, s, _ = _normalize_full(g)
    return ng, t, s


@dataclass(frozen=True)
class NormalFormReport:
    """The classification of a presented group into standard factors.

    ``lattices`` holds rank-2 single-coordinate quotients ``C/L`` (discrete
    lattices -- honest quotient tori -- for generic parameter values);
    ``nondiscrete`` holds single-coordinate quotients whose subgroup has
    Q-rank at least 3 and is therefore dense for generic values.  Both store
    canonical generator tuples.  Equality ignores the underlying
    presentation, so ``==`` is the "same classification" comparator.
    """

    free_cont_rank: int
    cstar_count: int
    lattices: Tuple[Tuple[Scalar, ...], ...]
    nondiscrete: Tuple[Tuple[Scalar, ...], ...]
    nondiscrete_blocks: Tuple[Tuple[Tuple[Scalar, ...], ...], ...]
    free_disc_rank: int
    invariant_factors: Tuple[int, ...]
    atoms: Tuple[AtomFactor, ...]
    group: PresentedAbelianGroup = field(compare=False)

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

    def text(self) -> str:
        """Canonical human-readable decomposition, factors joined by (+)."""
        parts: List[str] = []
        if self.free_cont_rank:
            parts.append("C" if self.free_cont_rank == 1 else f"C^{self.free_cont_rank}")
        if self.cstar_count:
            parts.append("C*" if self.cstar_count == 1 else f"(C*)^{self.cstar_count}")
        for gens in self.lattices + self.nondiscrete:
            parts.append(
                "C/(" + " + ".join("Z" if str(g) == "1" else f"({g})Z" for g in gens) + ")"
            )
        for block in self.nondiscrete_blocks:
            k = len(block[0])
            shown = ", ".join("(" + ", ".join(map(str, v)) + ")" for v in block)
            parts.append(f"C^{k}/<{shown}>")
        if self.free_disc_rank:
            parts.append("Z" if self.free_disc_rank == 1 else f"Z^{self.free_disc_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        parts.extend(a.label() for a in self.atoms)
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

    An element is in the kernel iff its image is certified as a combination
    of codomain relation rows; eliminating the certificate coefficients turns
    this into a mixed field/integer linear system over the monomial
    expansion, solved exactly.  Domain atoms are allowed only when they
    collapse to zero (they enter the kernel whole) or map by identity (they
    avoid it); the quotient map on an atom has a kernel this model cannot
    present, raising :class:`UnsupportedAtomMap`.
    """
    table = h.dom.table
    zero = Scalar.zero(table)
    kernel_atoms: List[AtomFactor] = []
    kernel_atom_indices: List[int] = []
    for k, j in enumerate(h.atom_images):
        if j is None:
            kernel_atoms.append(h.dom.atoms[k])
            kernel_atom_indices.append(k)
        elif h.dom.atoms[k].mod_order != h.cod.atoms[j].mod_order:
            raise UnsupportedAtomMap(
                f"kernel of the quotient map on atom {h.dom.atoms[k].label()} "
                "is not finitely presented"
            )
    gc, gd = h.dom.cont_rank, h.dom.disc_rank
    hc, hd = h.cod.cont_rank, h.cod.disc_rank
    crows = [r for r in h.cod.crows() if not _viszero(r)]
    zrows = [(list(r.cont), list(r.disc)) for r in h.cod.zrows()]
    nz = len(zrows)

    # Field unknowns (x, lambda), one column each; the system demands that
    # the continuous image minus a C-row combination equals the Z-row side.
    columns = [list(v) for v in h.cont_images] + [_vq(r, -1) for r in crows]
    nf = len(columns)
    mf_rows = [[columns[j][coord] for j in range(nf)] for coord in range(hc)]

    # Integer unknowns y = (n, m); y is admissible iff the field system is
    # solvable, i.e. iff every left-null functional kills the right side.
    etas = _field_nullspace(columns, hc, table)
    ycols = [_vq(c, -1) for c, _ in h.disc_images] + [list(c) for c, _ in zrows]
    int_rows: List[List[int]] = []
    for eta in etas:
        coeffs = [_vdot(eta, col, table) for col in ycols]
        rows, _ = _int_rows_from_scalar_columns([[c] for c in coeffs], [zero])
        int_rows.extend(rows)
    for coord in range(hd):
        row = [d[coord] for _, d in h.disc_images] + [-d[coord] for _, d in zrows]
        if any(row):
            int_rows.append(row)
    ybasis = _int_nullspace(int_rows, gd + nz)

    def rhs_of(y: Sequence[int]) -> List[Scalar]:
        acc = _vzero(table, hc)
        for val, col in zip(y, ycols):
            if val:
                acc = _vadd(acc, _vq(col, val))
        return acc

    disc_gens: List[Tuple[List[Scalar], List[int]]] = []  # (x, n) in the domain
    for y in ybasis:
        xi = _field_solve(mf_rows, rhs_of(y), nf, table)
        if xi is None:
            raise NonFiniteTypeKernel("admissible integer solution lost field solvability")
        disc_gens.append((xi[:gc], list(y[:gd])))

    # Continuous kernel directions: the field nullspace, projected to x.
    xparts = [xi[:gc] for xi in _field_nullspace(mf_rows, nf, table)]
    vbasis, _ = _field_rref(xparts)

    def cont_coords(vec: Sequence[Scalar]) -> Optional[List[Scalar]]:
        if not vbasis:
            return [] if _viszero(vec) else None
        rows = [[v[coord] for v in vbasis] for coord in range(gc)]
        return _field_solve(rows, list(vec), len(vbasis), table)

    # Relations: syzygies among the chosen generators, then the domain's own
    # relations expressed in kernel coordinates.
    relations: List[Relation] = []
    syz_rows: List[List[int]] = []
    etas2 = _field_nullspace(vbasis, gc, table) if gc else []
    xcols = [list(x) for x, _ in disc_gens]
    for eta in etas2:
        coeffs = [_vdot(eta, col, table) for col in xcols]
        rows, _ = _int_rows_from_scalar_columns([[c] for c in coeffs], [zero])
        syz_rows.extend(rows)
    for coord in range(gd):
        row = [n[coord] for _, n in disc_gens]
        if any(row):
            syz_rows.append(row)
    for a in _int_nullspace(syz_rows, len(disc_gens)):
        if not any(a):
            continue
        resid = _vzero(table, gc)
        for val, (x, _) in zip(a, disc_gens):
            if val:
                resid = _vsub(resid, _vq(x, val))
        b = cont_coords(resid)
        if b is None:
            raise NonFiniteTypeKernel("syzygy residual escaped the kernel")
        relations.append(Relation(tuple(b), tuple(a), "Z"))

    for r in h.dom.relations:
        if r.span == "C":
            b = cont_coords(list(r.cont))
            if b is None:
                raise NonFiniteTypeKernel("domain line relation escaped the kernel")
            if not _viszero(b):
                relations.append(Relation(tuple(b), (0,) * len(disc_gens), "C"))
            continue
        img_c, img_d = h.apply(r.cont, r.disc)
        m = _member(h.cod, img_c, img_d)
        if m is None:
            raise HomError("domain relation has no image certificate")
        y_rho = list(r.disc) + m
        arows = [[y[kk] for y in ybasis] for kk in range(gd + nz)]
        a = _int_solve(arows, y_rho, len(ybasis))
        if a is None:
            raise NonFiniteTypeKernel("domain relation escaped the kernel lattice")
        resid = list(r.cont)
        for val, (x, _) in zip(a, disc_gens):
            if val:
                resid = _vsub(resid, _vq(x, val))
        b = cont_coords(resid)
        if b is None:
            raise NonFiniteTypeKernel("domain relation residual escaped the kernel")
        if any(a) or not _viszero(b):
            relations.append(Relation(tuple(b), tuple(a), "Z"))

    kg = PresentedAbelianGroup(table, len(vbasis), len(disc_gens), relations, kernel_atoms)
    inclusion = GroupHom(
        kg,
        h.dom,
        [tuple(v) for v in vbasis],
        [(tuple(x), tuple(n)) for x, n in disc_gens],
        tuple(kernel_atom_indices),
    )
    return KernelResult(kg, inclusion)


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
    """
    cod = h.cod
    extra = [Relation(tuple(v), (0,) * cod.disc_rank, "C") for v in h.cont_images]
    extra += [Relation(tuple(c), tuple(d), "Z") for c, d in h.disc_images]
    received = {j for j in h.atom_images if j is not None}
    survivors = [j for j in range(len(cod.atoms)) if j not in received]
    new_atom_index = {j: i for i, j in enumerate(survivors)}
    q = PresentedAbelianGroup(
        cod.table,
        cod.cont_rank,
        cod.disc_rank,
        list(cod.relations) + extra,
        [cod.atoms[j] for j in survivors],
    )
    nq, tq, sq, _ = _normalize_full(q)
    pre = GroupHom(
        cod,
        q,
        identity_hom(cod).cont_images,
        identity_hom(cod).disc_images,
        tuple(new_atom_index.get(j) for j in range(len(cod.atoms))),
    )
    projection = compose(tq, pre)
    section = GroupHom(
        nq,
        cod,
        sq.cont_images,
        sq.disc_images,
        tuple(survivors[j] for j in sq.atom_images),
    )
    return CokernelResult(nq, projection, section)


def induced_cokernel_map(finer: CokernelResult, coarser: CokernelResult) -> GroupHom:
    """The canonical map between two cokernels over the same codomain.

    ``finer`` must quotient by a smaller image than ``coarser`` (say, the
    cokernel of ``g . f`` against the cokernel of ``g``); sending a class to
    the class of any representative is then well defined.  The construction
    composes ``coarser``'s projection with ``finer``'s section and verifies
    the result with :func:`check_hom`.
    """
    if finer.section.cod != coarser.projection.dom:
        raise ValueError("cokernels do not share a codomain")
    out = compose(coarser.projection, finer.section)
    check_hom(out)
    return out


def preimage_element(
    h: GroupHom, target_cont: Sequence[Scalar], target_disc: Sequence[int]
) -> Optional[Tuple[List[Scalar], List[int]]]:
    """Domain coordinates of one preimage of a codomain element, or None.

    The element is ``(target_cont, target_disc)`` in codomain coordinates and
    is only required to be hit modulo the codomain's relations.  Atoms do not
    enter: the element lives in the continuous/discrete part.

    >>> t = SymbolTable([])
    >>> z4 = PresentedAbelianGroup.from_invariant_factors(t, [4])
    >>> z2 = PresentedAbelianGroup.from_invariant_factors(t, [2])
    >>> h = GroupHom(z4, z2, [], [((), (1,))], ())
    >>> preimage_element(h, [], [1])[1]
    [1]
    """
    table = h.dom.table
    gc, gd = h.dom.cont_rank, h.dom.disc_rank
    hc, hd = h.cod.cont_rank, h.cod.disc_rank
    crows = [r for r in h.cod.crows() if not _viszero(r)]
    zrows = [(list(r.cont), list(r.disc)) for r in h.cod.zrows()]
    nz = len(zrows)

    # Same mixed system as :func:`kernel`, made inhomogeneous by the target.
    columns = [list(v) for v in h.cont_images] + [_vq(r, -1) for r in crows]
    nf = len(columns)
    mf_rows = [[columns[j][coord] for j in range(nf)] for coord in range(hc)]
    etas = _field_nullspace(columns, hc, table)
    ycols = [_vq(c, -1) for c, _ in h.disc_images] + [list(c) for c, _ in zrows]
    int_rows: List[List[int]] = []
    int_rhs: List[int] = []
    for eta in etas:
        coeffs = [_vdot(eta, col, table) for col in ycols]
        target = -_vdot(eta, list(target_cont), table)
        rows, rhs = _int_rows_from_scalar_columns([[c] for c in coeffs], [target])
        int_rows.extend(rows)
        int_rhs.extend(rhs)
    for coord in range(hd):
        row = [d[coord] for _, d in h.disc_images] + [-d[coord] for _, d in zrows]
        if any(row) or target_disc[coord]:
            int_rows.append(row)
            int_rhs.append(int(target_disc[coord]))
    y = _int_solve(int_rows, int_rhs, gd + nz)
    if y is None:
        return None
    rem = list(target_cont)
    for val, col in zip(y, ycols):
        if val:
            rem = _vadd(rem, _vq(col, val))
    x = _field_solve(mf_rows, rem, nf, table)
    if x is None:
        return None
    return x[:gc], list(y[:gd])


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
    table = f.dom.table
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
    crows = [r for r in mono.cod.crows() if not _viszero(r)]
    cols = [list(v) for v in mono.cont_images] + [list(r) for r in crows]
    rows = [[cols[j][coord] for j in range(len(cols))] for coord in range(mono.cod.cont_rank)]
    nb = len(mono.cont_images)
    cont_images = []
    for v in f.cont_images:
        sol = _field_solve(rows, list(v), len(cols), table)
        if sol is None:
            raise HomError("continuous generator does not factor")
        cont_images.append(tuple(sol[:nb]))
    disc_images = []
    for c, d in f.disc_images:
        pre = preimage_element(mono, list(c), list(d))
        if pre is None:
            raise HomError("discrete generator does not factor")
        disc_images.append((tuple(pre[0]), tuple(pre[1])))
    g = GroupHom(f.dom, mono.dom, cont_images, disc_images, tuple(atom_images))
    if check:
        check_hom(g)
    return g


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_surjective(h: GroupHom) -> bool:
    return classify(cokernel(h).group).is_trivial


def is_injective(h: GroupHom) -> bool:
    for k, j in enumerate(h.atom_images):
        if j is None:
            return False
        if h.dom.atoms[k].mod_order is None and h.cod.atoms[j].mod_order is not None:
            return False  # a genuine quotient on the atom
    return classify(kernel(h).group).is_trivial


def _strip_atoms(h: GroupHom) -> GroupHom:
    dom = PresentedAbelianGroup(
        h.dom.table, h.dom.cont_rank, h.dom.disc_rank, h.dom.relations
    )
    return GroupHom(dom, h.cod, h.cont_images, h.disc_images, ())


def is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Whether ``image(f) == kernel(g)`` at the middle group ``f.cod == g.dom``.

    The inclusion ``image <= kernel`` is checked as ``g . f == 0``; for the
    converse every kernel generator must lie in the span of the middle
    group's relations together with the rows of ``f``'s generator images.
    Middle-group atoms are matched structurally: an atom killed by ``g`` is
    in the kernel and must receive a whole atom under ``f``.
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
    k_res = kernel(_strip_atoms(g))
    extra_c = [list(v) for v in f.cont_images]
    extra_z = [(list(c), list(d)) for c, d in f.disc_images]
    for v in k_res.inclusion.cont_images:
        if not _line_in_span(g.dom, v, extra_c):
            return False
    for c, d in k_res.inclusion.disc_images:
        if (any(d) or not _viszero(c)) and _member(g.dom, c, d, extra_c, extra_z) is None:
            return False
    return True


def _selftest() -> None:  # pragma: no cover
    import doctest

    doctest.testmod()


if __name__ == "__main__":  # pragma: no cover
    _selftest()
