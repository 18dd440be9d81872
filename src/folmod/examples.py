"""Bundled worked inputs for the moduli pipelines.

Seven documents, numbered 0 to 6, exercise every branch of the engine on a
family of multicusp divisors (two cusps whose resolution shares a central
component) and two degenerate shapes:

========  ==================================================================
example   configuration
========  ==================================================================
0         all core components abelian linearizable; the moduli group is
          trivial and the green branches prune down to the red chain
1         non-abelian topologically rigid core; the moduli group is a
          product of two elliptic curves
2         abelian central component between non-abelian outer ones; the
          moduli group is a non-discrete rank-3 quotient of C
3         one corner is periodic, the red part disconnects; the input is
          not of finite type and the pipelines refuse it
4         Cremer corners (non-resonant, non-linearizable); the moduli
          group carries two opaque atom factors
5         a geodesic of four rigid joints connected by three resonant
          length-two chains; the moduli group is C* + Z/4 + Z/6, which
          reports print in invariant-factor form as ``C* (+) Z/2 (+) Z/12``
6         two rigid components joined through a dicritical component; the
          red parts are single vertices and the moduli group is trivial
========  ==================================================================

Each ``example_doc(n)`` is a plain JSON-serializable dictionary accepted by
:func:`folmod.foliation.load_input`.

>>> from folmod.foliation import load_input, validate
>>> all(validate(*load_input(example_doc(n))[:3]) == [] for n in EXAMPLES)
True
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "EXAMPLES",
    "example_doc",
    "example_description",
]

EXAMPLES = (0, 1, 2, 3, 4, 5, 6)

_DESCRIPTIONS = {
    0: "abelian linearizable multicusp; trivial moduli",
    1: "non-abelian rigid multicusp; two elliptic factors",
    2: "abelian central component; non-discrete rank-3 quotient of C",
    3: "periodic corner; red part disconnected, not of finite type",
    4: "Cremer corners; formal moduli with two atom factors",
    5: "geodesic with three resonant chains; moduli C* + Z/4 + Z/6",
    6: "junction through a dicritical component; trivial moduli",
}


def _multicusp_doc(
    *,
    holonomies: List[dict],
    rigid:tuple = (),
    s0_types: tuple = ("L1", "L1"),
) -> dict:
    """The shared five-component divisor of examples 0 to 4.

    Components ``1`` (with end curve ``3``) and ``2`` (with end curve
    ``4``) meet the central component ``0`` at the corners ``s'0`` and
    ``s''0``; the corners at infinity are periodic.  ``s0_types`` selects
    the local types at ``s'0`` and ``s''0``.
    """
    kinds = []
    for name, kind in zip(("s'0", "s''0"), s0_types):
        if kind == "L1":
            kinds.append((name, {"kind": "L1"}, {"kind": "L1"}))
        elif kind == "P":
            kinds.append((name, {"kind": "P", "q": 1}, {"kind": "P", "q": 2}))
        else:  # L0 atom named after the corner
            atom = "cremer_1" if name == "s'0" else "cremer_2"
            kinds.append(
                (name, {"kind": "L0", "atom": atom}, {"kind": "L0", "atom": atom})
            )
    cs_pairs = {
        "s'0": ("-2*alpha_t", "(-1/2)/(alpha_t)"),
        "s''0": ("-2*beta_t", "(-1/2)/(beta_t)"),
    }
    singularities = []
    for (name, outer_type, inner_type), outer in zip(kinds, (1, 2)):
        cs_outer, cs_inner = cs_pairs[name]
        if outer_type.get("kind") == "P":
            cs_outer, cs_inner = "-2", "-1/2"
        singularities.append(
            {"point": name, "component": outer, "cs": cs_outer, "type": outer_type}
        )
        singularities.append(
            {"point": name, "component": 0, "cs": cs_inner, "type": inner_type}
        )
    for name, outer, end in (("s'inf", 1, 3), ("s''inf", 2, 4)):
        singularities.append(
            {"point": name, "component": outer, "cs": "1/2", "type": {"kind": "P", "q": 2}}
        )
        singularities.append(
            {"point": name, "component": end, "cs": "2", "type": {"kind": "P", "q": 1}}
        )
    return {
        "schema_version": 1,
        "symbols": ["alpha_t", "beta_t", "tau_i"],
        "components": [
            {"id": i, "topologically_rigid": i in rigid} for i in range(5)
        ],
        "corners": [
            {"id": "s'0", "components": [1, 0]},
            {"id": "s''0", "components": [2, 0]},
            {"id": "s'inf", "components": [1, 3]},
            {"id": "s''inf", "components": [2, 4]},
        ],
        "attachments": [
            {"id": f"a{k}", "component": c}
            for k, c in enumerate((1, 1, 1, 2, 2, 2, 0))
        ],
        "singularities": singularities,
        "holonomies": holonomies,
    }


def _end_curves() -> List[dict]:
    return [
        {"component": 3, "class": "finite", "n": 1, "orders": [["s'inf", 1]]},
        {"component": 4, "class": "finite", "n": 1, "orders": [["s''inf", 1]]},
    ]


def _example0() -> dict:
    return _multicusp_doc(
        holonomies=[
            {"component": i, "class": "abelian_infinite"} for i in (0, 1, 2)
        ]
        + _end_curves(),
    )


def _example1() -> dict:
    return _multicusp_doc(
        holonomies=[
            {"component": i, "class": "nonabelian", "invariant_factors": []}
            for i in (0, 1, 2)
        ]
        + _end_curves(),
        rigid=(0, 1, 2),
    )


def _example2() -> dict:
    return _multicusp_doc(
        holonomies=[
            {"component": 0, "class": "abelian_infinite"},
            {"component": 1, "class": "nonabelian", "invariant_factors": []},
            {"component": 2, "class": "nonabelian", "invariant_factors": []},
        ]
        + _end_curves(),
        rigid=(1, 2),
    )


def _example3() -> dict:
    return _multicusp_doc(
        holonomies=[
            {"component": 0, "class": "nonabelian", "invariant_factors": []},
            {"component": 1, "class": "nonabelian", "invariant_factors": []},
            {"component": 2, "class": "abelian_infinite"},
        ]
        + _end_curves(),
        rigid=(0, 1),
        s0_types=("P", "L1"),
    )


def _example4() -> dict:
    return _multicusp_doc(
        holonomies=[
            {"component": i, "class": "nonabelian", "invariant_factors": []}
            for i in (0, 1, 2)
        ]
        + _end_curves(),
        rigid=(0, 1, 2),
        s0_types=("L0", "L0"),
    )


def _example5() -> dict:
    """Four rigid joints (even ids) and three chain interiors (odd ids)."""
    chain_types = {
        "u": {"kind": "R1", "p": 1, "r": 0},
        "v": {"kind": "R0", "p": 1, "r": 0, "m": 4, "beta_image_order": 1},
        "w": {"kind": "R0", "p": 1, "r": 0, "m": 6, "beta_image_order": 1},
    }
    corners = [
        {"id": "u0", "components": [0, 1]},
        {"id": "u1", "components": [1, 2]},
        {"id": "v0", "components": [2, 3]},
        {"id": "v1", "components": [3, 4]},
        {"id": "w0", "components": [4, 5]},
        {"id": "w1", "components": [5, 6]},
    ]
    singularities = [
        {
            "point": corner["id"],
            "component": comp,
            "cs": "-1",
            "type": chain_types[corner["id"][0]],
        }
        for corner in corners
        for comp in corner["components"]
    ]
    return {
        "schema_version": 1,
        "symbols": ["tau_i"],
        "components": [
            {"id": i, "topologically_rigid": i % 2 == 0} for i in range(7)
        ],
        "corners": corners,
        "attachments": [
            {"id": f"a{k}", "component": c}
            for k, c in enumerate((0, 0, 2, 4, 6, 6))
        ],
        "singularities": singularities,
        "holonomies": [
            {"component": i, "class": "nonabelian", "invariant_factors": []}
            for i in (0, 2, 4, 6)
        ]
        + [{"component": i, "class": "abelian_infinite"} for i in (1, 3, 5)],
    }


def _example6() -> dict:
    return {
        "schema_version": 1,
        "symbols": ["tau_i"],
        "components": [
            {"id": 0, "topologically_rigid": True},
            {"id": 1, "dicritical": True},
            {"id": 2, "topologically_rigid": True},
        ],
        "corners": [
            {"id": "c0", "components": [0, 1], "in_sigma": False},
            {"id": "c1", "components": [1, 2], "in_sigma": False},
        ],
        "attachments": [
            {"id": f"a{k}", "component": c}
            for k, c in enumerate((0, 0, 0, 2, 2, 2))
        ],
        "singularities": [],
        "holonomies": [
            {"component": 0, "class": "nonabelian", "invariant_factors": []},
            {"component": 2, "class": "nonabelian", "invariant_factors": []},
        ],
    }


_BUILDERS = {
    0: _example0,
    1: _example1,
    2: _example2,
    3: _example3,
    4: _example4,
    5: _example5,
    6: _example6,
}


def example_doc(n: int) -> Dict:
    """The raw JSON document of bundled example ``n``.

    A fresh dictionary is built on every call, so callers may mutate the
    result freely.

    >>> example_doc(0)["schema_version"]
    1
    >>> sorted(example_doc(6)) == sorted(example_doc(1))
    True
    >>> example_doc(9)
    Traceback (most recent call last):
        ...
    KeyError: 'no bundled example 9; available: 0..6'
    """
    if n not in _BUILDERS:
        raise KeyError(f"no bundled example {n}; available: 0..6")
    return _BUILDERS[n]()


def example_description(n: int) -> str:
    """A one-line summary of bundled example ``n``.

    >>> example_description(5)
    'geodesic with three resonant chains; moduli C* + Z/4 + Z/6'
    """
    if n not in _DESCRIPTIONS:
        raise KeyError(f"no bundled example {n}; available: 0..6")
    return _DESCRIPTIONS[n]
