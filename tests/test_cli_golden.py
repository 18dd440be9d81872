"""Golden reports: `folmod moduli --format json` on the bundled examples
and on the seed-0 geodesics of the benchmark, and `folmod check` on one
small valid document and on edits of it that trip each violation.

The sha256 of each JSON report is fixed here, so any change to a report
byte, or to a classified moduli group, fails this test.  A change that
moves a report on purpose must say why and update the digest.  The
`folmod check` reports are fixed line by line.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from folmod.cli import main
from folmod.examples import EXAMPLES, example_doc
from test_pipeline import _geodesic_doc

GOLDEN_SHA256 = {
    0: "0746b23dba2d82d78bd3acb10bf47a6c05ce3a5aead4d34f63373ad6f31e354f",
    1: "04c2195a5756fafd9fb072befb68f9796187704de8ae1efc771ed896afade2d7",
    2: "26b2bce3449da0467a3c31b34ce5b8999d73729ba784024dfac57d83b311bebc",
    3: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    4: "096b20e81bd21d6a4a8c44a267ec0eb82c6fa630eeb3ef1cddf42974acb2e3b0",
    5: "e82a24a619ce76aa41b15b43cc6c8cb03350ec6f4bcd80b15fe63b605b845b0d",
    6: "61eb403f7297613daf5a1d02643c818c69dd375f438c99ca4f33bde5b03aa2b1",
}

EXAMPLE3_STDERR = "NotFiniteType: cut component containing 0: red part disconnected\n"


@pytest.mark.parametrize("n", EXAMPLES)
def test_moduli_json_report_is_golden(n: int, tmp_path, capsys) -> None:
    path = tmp_path / f"ex{n}.json"
    path.write_text(json.dumps(example_doc(n), sort_keys=True, indent=2), encoding="utf-8")
    code = main(["moduli", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    if n == 3:
        assert (code, err) == (3, EXAMPLE3_STDERR)
    else:
        assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[n]


GEODESIC_SHA256 = {
    3: "8940355cfb3165fe345972a3aedb6be5d2e6a3777278a4b304c3ae381a5a5b67",
    5: "4feaadca6ccc035bbc59c674f00f134aba8590fb67b84b105d4acf788e774647",
    9: "3d72e3ace7732a36b4f577b8318cfa1b6fb5cbcacf22cd63db7c38b23ce7e60c",
    17: "f0732774830ada5e9ab47c3c0aa1cc8439190466614925db20966b4b0bd704fe",
}


@pytest.mark.parametrize("k", sorted(GEODESIC_SHA256))
def test_moduli_json_report_on_a_geodesic_is_golden(k: int, tmp_path, capsys) -> None:
    path = tmp_path / f"geodesic{k}.json"
    path.write_text(json.dumps(_geodesic_doc(k), sort_keys=True, indent=2), encoding="utf-8")
    assert main(["moduli", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GEODESIC_SHA256[k]


# -- folmod check -------------------------------------------------------------


def _check_base() -> dict:
    """Rigid non-abelian components 0 and 2, joined through the abelian
    infinite component 1 by the resonant corners ``s`` and ``t``, and the
    finite component 3 on the periodic corner ``u`` of 2."""
    r1 = {"kind": "R1", "p": 1, "r": 0}
    return {
        "schema_version": 1,
        "symbols": ["tau_i", "mu"],
        "components": [
            {"id": 0, "topologically_rigid": True},
            {"id": 1},
            {"id": 2, "topologically_rigid": True},
            {"id": 3},
        ],
        "corners": [
            {"id": "s", "components": [0, 1]},
            {"id": "t", "components": [1, 2]},
            {"id": "u", "components": [2, 3]},
        ],
        "attachments": [
            {"id": "a", "component": 0},
            {"id": "b", "component": 0},
            {"id": "c", "component": 2},
            {"id": "d", "component": 3},
        ],
        "singularities": [
            {"point": "s", "component": 0, "cs": "-1", "type": dict(r1)},
            {"point": "s", "component": 1, "cs": "-1", "type": dict(r1)},
            {"point": "t", "component": 1, "cs": "-1", "type": dict(r1)},
            {"point": "t", "component": 2, "cs": "-1", "type": dict(r1)},
            {"point": "u", "component": 2, "type": {"kind": "P", "q": 1}},
            {"point": "u", "component": 3, "type": {"kind": "P", "q": 2}},
            {"point": "d", "component": 3, "type": {"kind": "P", "q": 2}},
        ],
        "holonomies": [
            {"component": 0, "class": "nonabelian"},
            {"component": 1, "class": "abelian_infinite"},
            {"component": 2, "class": "nonabelian"},
            {"component": 3, "class": "finite", "n": 2, "orders": [["u", 2], ["d", 2]]},
        ],
    }


def _item(doc: dict, key: str, **match) -> dict:
    """The entry of ``doc[key]`` whose fields equal ``match``."""
    return next(x for x in doc[key] if all(x[k] == v for k, v in match.items()))


def _drop(doc: dict, key: str, **match) -> None:
    doc[key] = [x for x in doc[key] if not all(x[k] == v for k, v in match.items())]


def _side(doc: dict, point, comp) -> dict:
    return _item(doc, "singularities", point=point, component=comp)


def _disconnected(doc):
    _drop(doc, "corners", id="u")
    _drop(doc, "singularities", point="u")
    _item(doc, "holonomies", component=3)["orders"] = [["d", 2]]


def _cycle(doc):
    doc["corners"].append({"id": "v", "components": [0, 2]})
    for comp in (0, 2):
        doc["singularities"].append(
            {"point": "v", "component": comp, "type": {"kind": "R1", "p": 1, "r": 0}}
        )


def _unmarked_corner(doc):
    _item(doc, "corners", id="u")["in_sigma"] = False


def _dicritical_leaf(doc):
    _item(doc, "components", id=3)["dicritical"] = True


def _dicritical_pair(doc):
    _item(doc, "components", id=3)["dicritical"] = True
    doc["components"].append({"id": 4, "dicritical": True})
    _item(doc, "corners", id="u")["in_sigma"] = False
    doc["corners"].append({"id": "w", "components": [3, 4], "in_sigma": False})
    _drop(doc, "attachments", id="d")
    _drop(doc, "singularities", point="u")
    _drop(doc, "singularities", point="d")
    _drop(doc, "holonomies", component=3)


def _unmarked_attachment(doc):
    _item(doc, "attachments", id="d")["in_sigma"] = False
    _item(doc, "holonomies", component=3)["orders"] = [["u", 2]]
    _drop(doc, "singularities", point="d")


def _stray_sides(doc):
    doc["singularities"].append({"point": "z", "component": 0, "type": {"kind": "P"}})
    doc["singularities"].append({"point": "s", "component": 2, "type": {"kind": "P"}})


def _no_side_data(doc):
    _drop(doc, "singularities", point="t")


def _mixed_kinds(doc):
    _side(doc, "s", 1)["type"] = {"kind": "R0", "p": 1, "r": 0, "m": 2}


def _different_p(doc):
    _side(doc, "s", 1)["type"]["p"] = 2


def _nodal_flags(doc):
    _side(doc, "s", 0)["nodal"] = True


def _not_reciprocal(doc):
    _side(doc, "s", 1)["cs"] = "2"


def _linearizable(cs):
    def edit(doc):
        for point in ("s", "t"):
            for comp in _item(doc, "corners", id=point)["components"]:
                side = _side(doc, point, comp)
                side["type"] = {"kind": "L1"}
                side.pop("cs")
                if cs is not None:
                    side["cs"] = cs if comp == 1 else f"1/({cs})"

    return edit


def _no_tau(doc):
    _linearizable("mu")(doc)
    doc["symbols"] = ["mu"]


def _resonant_without_index(doc):
    for comp in (0, 1):
        _side(doc, "s", comp).pop("cs")


def _symbolic_resonant_index(doc):
    _side(doc, "s", 0)["cs"] = "mu"
    _side(doc, "s", 1)["cs"] = "1/mu"


def _no_holonomy(comp):
    def edit(doc):
        _drop(doc, "holonomies", component=comp)

    return edit


def _orders(orders):
    def edit(doc):
        _item(doc, "holonomies", component=3)["orders"] = orders

    return edit


def _resonant_on_finite(doc):
    _side(doc, "d", 3)["type"] = {"kind": "R1", "p": 1, "r": 0}


def _resonant_into_finite(doc):
    for comp in (2, 3):
        _side(doc, "u", comp)["type"] = {"kind": "R1", "p": 1, "r": 0}


def _resonant_into_finite_one_side(doc):
    _item(doc, "holonomies", component=1)["class"] = "nonabelian"
    _side(doc, "u", 2)["type"] = {"kind": "R1", "p": 1, "r": 0}
    _drop(doc, "singularities", point="u", component=3)


def _abelian_without_local_type(doc):
    _item(doc, "holonomies", component=3)["class"] = "abelian_infinite"


def _heterogeneous_center(doc):
    for comp in (1, 2):
        _side(doc, "t", comp)["type"] = {"kind": "R0", "p": 1, "r": 0, "m": 2}


def _all_valencies_two(doc):
    _drop(doc, "attachments", id="b")
    _drop(doc, "attachments", id="c")


CHECK_GOLDEN = {
    "valid": (lambda doc: None, []),
    "disconnected": (_disconnected, ["the dual graph must be connected"]),
    "cycle": (_cycle, ["the dual graph must be a tree (cycles are unsupported)"]),
    "unmarked corner": (
        _unmarked_corner,
        [
            "corner 'u': a crossing of two invariant components is a singular point "
            "and must be marked",
            "corner 'u': side data on an unmarked point",
            "corner 'u': side data on an unmarked point",
        ],
    ),
    "dicritical leaf": (
        _dicritical_leaf,
        [
            "corner 'u': a dicritical crossing cannot be marked",
            "attachment 'd': lies on a dicritical component",
            "component 3: holonomy data on a dicritical component",
        ],
    ),
    "dicritical pair": (_dicritical_pair, ["corner 'w': two dicritical components cross"]),
    "unmarked attachment": (
        _unmarked_attachment,
        ["attachment 'd': attachments are marked points"],
    ),
    "stray sides": (
        _stray_sides,
        [
            "side data at 's' on a non-incident component 2",
            "side data at unknown point 'z'",
        ],
    ),
    "no side data": (_no_side_data, ["corner 't': no side data"]),
    "mixed kinds": (
        _mixed_kinds,
        ["corner 's': sides have different local types ['R0', 'R1']"],
    ),
    "different p": (_different_p, ["corner 's': sides disagree on p (1 vs 2)"]),
    "nodal flags": (_nodal_flags, ["corner 's': sides disagree on the nodal flag"]),
    "not reciprocal": (
        _not_reciprocal,
        ["corner 's': Camacho-Sad indices are not reciprocal (-1 and 2)"],
    ),
    "rational linearizable index": (
        _linearizable("-2"),
        [
            "corner 's': linearizable non-periodic side on 0 has a rational index -1/2",
            "corner 's': linearizable non-periodic side on 1 has a rational index -2",
            "corner 't': linearizable non-periodic side on 1 has a rational index -2",
            "corner 't': linearizable non-periodic side on 2 has a rational index -1/2",
        ],
    ),
    "linearizable without index": (
        _linearizable(None),
        [
            "corner 's': a linearizable corner needs an index",
            "corner 't': a linearizable corner needs an index",
        ],
    ),
    "no tau symbol": (
        _no_tau,
        ["symbol table lacks 'tau_i' although linearizable data is present"],
    ),
    # this input passed `folmod check` and then exited 3 from `folmod
    # moduli`: the transport at component 1 reads the index on its side
    "resonant corner without index": (
        _resonant_without_index,
        [
            "corner 's': a resonant normalizable corner of an abelian infinite "
            "component needs a nonzero index"
        ],
    ),
    "symbolic resonant index": (
        _symbolic_resonant_index,
        [
            "corner 's': resonant side on 0 has a non-rational index mu",
            "corner 's': resonant side on 1 has a non-rational index (1)/(mu)",
        ],
    ),
    "no holonomy on 1": (_no_holonomy(1), ["component 1: no holonomy class"]),
    "no holonomy on 2": (_no_holonomy(2), ["component 2: no holonomy class"]),
    "missing order": (
        _orders([["u", 2]]),
        ["component 3: no local holonomy order at 'd'"],
    ),
    "missing order at a corner": (
        _orders([["d", 2]]),
        ["component 3: no local holonomy order at 'u'"],
    ),
    "order not dividing": (
        _orders([["u", 2], ["d", 3]]),
        [
            "component 3: local order 3 at 'd' does not divide the holonomy order 2",
            "component 3: holonomy order 2 is not the lcm of the local orders [3, 2]",
        ],
    ),
    "order not the lcm": (
        _orders([["u", 1], ["d", 1]]),
        ["component 3: holonomy order 2 is not the lcm of the local orders [1, 1]"],
    ),
    "resonant side on a finite component": (
        _resonant_on_finite,
        ["component 3: finite holonomy but non-periodic local type at 'd'"],
    ),
    "resonant corner into a finite component": (
        _resonant_into_finite,
        ["component 3: finite holonomy but non-periodic local type at 'u'"],
    ),
    # the finite component has no side at the corner, so the component
    # loop reads the type the corner's one side gives it; this input once
    # passed `folmod check` and then exited 3 from `folmod moduli`
    "resonant corner into a finite component, one side": (
        _resonant_into_finite_one_side,
        ["component 3: finite holonomy but non-periodic local type at 'u'"],
    ),
    "abelian without local type": (
        _abelian_without_local_type,
        [
            "component 3 has infinite abelian holonomy but no non-periodic local "
            "data to derive its type from"
        ],
    ),
    "heterogeneous center": (
        _heterogeneous_center,
        ["component 1 sees heterogeneous local types ['R0', 'R1']"],
    ),
    "all valencies two": (
        _all_valencies_two,
        [
            "position condition violated: a dicritical-free part has all singular "
            "valencies equal to two"
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
def test_check_report_is_golden(case: str, tmp_path, capsys) -> None:
    edit, lines = CHECK_GOLDEN[case]
    doc = _check_base()
    edit(doc)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8")
    code = main(["check", str(path)])
    expected = "".join(f"violation: {line}\n" for line in lines)
    expected += f"{path}: {len(lines)} violation(s)\n"
    assert (code, capsys.readouterr()) == (1 if lines else 0, (expected, ""))
