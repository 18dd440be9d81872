"""Seeded geodesic divisors: rigid joints joined by resonant chains.

A geodesic of ``k`` joints has ``2k - 1`` components in a row.  The even
ids are topologically rigid joints with non-abelian holonomy; the odd ids
are the interiors of ``k - 1`` length-two chains, each with abelian
infinite holonomy and two corners.  Both singular points of a chain share
one resonant local type:

* ``R1`` (resonant normalizable) contributes a ``C*`` factor;
* ``R0`` with period ``m`` contributes a ``Z/m`` factor.

One chain in four, rounded down, is ``R0`` with ``m`` in ``{2, 3, 4, 6}``;
the rest are ``R1``.  Fixing the ``R0`` count per size keeps the work
comparable across seeds; the seed draws only which chains are ``R0`` and
their periods.  Every singular point has Camacho-Sad index ``-1``.  The
end joints carry two attachments and the inner joints one, as in bundled
example 5, which is the ``k = 4`` member of this family.

The expected moduli group is ``(C*)^(#R1) (+) Z/m_1 (+) ... (+) Z/m_r``.
:func:`expected_moduli_text` puts it into invariant-factor form with its
own prime-power routine, independently of ``folmod``.

A pitfall when extending this family: a geodesic of linearizable (``L1``)
chains whose Camacho-Sad indices are independent symbols passes
``validate()``, but the pipelines then raise ``UnsupportedSideData``,
because the transport between chain ends is not a homomorphism.  Symbolic
families need transport-compatible indices; this generator uses the
rational index ``-1`` throughout.  :func:`check_geodesic` asserts that a
generated document validates and is non-degenerate.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

R0_PERIODS = (2, 3, 4, 6)


def chain_periods(k: int, rng: random.Random) -> List[int]:
    """Per-chain period of a ``k``-joint geodesic: ``0`` for R1, else ``m``."""
    nchains = k - 1
    periods = [0] * nchains
    for pos in sorted(rng.sample(range(nchains), nchains // 4)):
        periods[pos] = rng.choice(R0_PERIODS)
    return periods


def geodesic_doc(periods: Sequence[int]) -> dict:
    """The input document of the geodesic whose chains have ``periods``."""
    corners: List[dict] = []
    singularities: List[dict] = []
    for i, m in enumerate(periods):
        kind = (
            {"kind": "R0", "p": 1, "r": 0, "m": m, "beta_image_order": 1}
            if m
            else {"kind": "R1", "p": 1, "r": 0}
        )
        for side, pair in (("a", [2 * i, 2 * i + 1]), ("b", [2 * i + 1, 2 * i + 2])):
            corner = f"c{i}{side}"
            corners.append({"id": corner, "components": pair})
            singularities.extend(
                {"point": corner, "component": comp, "cs": "-1", "type": dict(kind)}
                for comp in pair
            )
    last = 2 * len(periods)
    attached: List[int] = []
    for joint in range(0, last + 1, 2):
        attached += [joint] * (2 if joint in (0, last) else 1)
    return {
        "schema_version": 1,
        "symbols": ["tau_i"],
        "components": [
            {"id": i, "topologically_rigid": i % 2 == 0} for i in range(last + 1)
        ],
        "corners": corners,
        "attachments": [
            {"id": f"a{n}", "component": c} for n, c in enumerate(attached)
        ],
        "singularities": singularities,
        "holonomies": [
            {"component": i, "class": "nonabelian", "invariant_factors": []}
            for i in range(0, last + 1, 2)
        ]
        + [{"component": i, "class": "abelian_infinite"} for i in range(1, last, 2)],
    }


def component_count(k: int) -> int:
    return 2 * k - 1


def _prime_powers(n: int) -> Dict[int, int]:
    """``{p: p**e}`` for each prime power exactly dividing ``n``."""
    out: Dict[int, int] = {}
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    return out


def invariant_factors(orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors ``d1 | d2 | ...`` of ``Z/o1 (+) Z/o2 (+) ...``.

    Each cyclic factor splits into prime powers; the ``i``-th largest power
    of every prime goes into the ``i``-th largest invariant factor.

    >>> invariant_factors([4, 6])
    (2, 12)
    >>> invariant_factors([1, 3, 3])
    (3, 3)
    """
    by_prime: Dict[int, List[int]] = {}
    for n in orders:
        for p, q in _prime_powers(n).items():
            by_prime.setdefault(p, []).append(q)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            factors[width - 1 - i] *= q
    return tuple(factors)


def expected_moduli_text(periods: Sequence[int]) -> str:
    """The moduli group of the geodesic, in ``folmod``'s text notation.

    >>> expected_moduli_text([0, 4, 0, 6])
    '(C*)^2 (+) Z/2 (+) Z/12'
    >>> expected_moduli_text([0])
    'C*'
    """
    parts = []
    rank = sum(1 for m in periods if not m)
    if rank:
        parts.append("C*" if rank == 1 else f"(C*)^{rank}")
    parts.extend(f"Z/{d}" for d in invariant_factors([m for m in periods if m]))
    return " (+) ".join(parts) if parts else "0"


def check_geodesic(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` validates and is non-degenerate."""
    from folmod.foliation import is_non_degenerate, load_input, validate

    inp = load_input(doc)
    violations = validate(inp.divisor, inp.singularities, inp.holonomies)
    if violations:
        raise ValueError(f"generated geodesic violates: {violations}")
    if not is_non_degenerate(inp.divisor, inp.singularities, inp.holonomies):
        raise ValueError("generated geodesic is degenerate")
