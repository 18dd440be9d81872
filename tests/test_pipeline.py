"""The moduli pipelines: one analysis per input, and a hardened input boundary.

One analysis reads each input: `validate`, the two predicates,
`compute_moduli` and `folmod check` and `moduli` all read it.
`compute_moduli` builds the short exact sequence of symmetry sheaves and
its long exact sequence once; the non-degenerate and finite-type reports
are both read from them.  These tests pin down that the dual graph, the
cut graph and the coloring are built once per `validate`, `folmod check`
and `folmod moduli` call, that the expensive stages run once per `folmod
moduli` call, that each local type is read once and the flow sheaf's
restrictions are induced from the symmetry sheaf, that its reports are
the ones the CLI prints, that the two public predicates agree with the
verdicts on the reports and refuse input with violations, that the gates
and the symmetry sheaf refuse what they refused before, that any valid id
passes the pipelines, that a stalk without a flow coordinate reads no
Camacho-Sad index, that a refused atom map ends in exit code 3, that a
resonant side refuses a non-rational index and an R1 corner of an abelian
infinite component refuses a missing one, that inputs without a red vertex
and isolated red components run the general pipelines, that a local type
refuses bad parameters where it is built, that relabelling the ids of an
input leaves its moduli unchanged, and that malformed documents end in
exit code 2 with a message naming the file instead of a traceback.
"""

from __future__ import annotations

import copy
import importlib.util
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from folmod import cli, exactnum, foliation
from folmod.exactnum import Scalar, SymbolTable
from folmod.examples import EXAMPLES, example_doc
from folmod.foliation import (
    NotFiniteType,
    compute_moduli,
    is_finite_type,
    is_non_degenerate,
    load_input,
)


def _args(n: int) -> tuple:
    inp = load_input(example_doc(n))
    return inp.divisor, inp.singularities, inp.holonomies


def _geodesic_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "geodesic.py"
    spec = importlib.util.spec_from_file_location("perfbench_geodesic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _geodesic_doc(k: int) -> dict:
    """The seed-0 geodesic of ``k`` joints, as the benchmark draws it."""
    geo = _geodesic_module()
    return geo.geodesic_doc(geo.chain_periods(k, random.Random(f"geodesic-0-{k}")))


def _write(tmp_path, doc, name: str = "input.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8")
    return str(path)


def _moduli_code(argv) -> int:
    """The exit code of `folmod moduli`; unreadable input exits through
    ``SystemExit``, every other outcome is returned."""
    try:
        return cli.main(argv)
    except SystemExit as done:
        return done.code


COUNTED = (
    "long_exact_sequence",
    "build_sym_graph",
    "mayer_vietoris",
    "is_exact_at",
    "check_hom",
    "prune_all",
)


def _count_calls(monkeypatch, names) -> dict:
    """Calls of each named ``foliation`` function, counted from now on."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(foliation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(foliation, name, counting(name))
    return calls


def test_one_moduli_call_builds_one_ses_and_les(tmp_path, monkeypatch, capsys) -> None:
    geo = _geodesic_module()
    periods = geo.chain_periods(5, random.Random("geodesic-0-5"))
    path = _write(tmp_path, geo.geodesic_doc(periods))
    calls = _count_calls(monkeypatch, COUNTED)
    assert cli.main(["moduli", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["pipeline"] for p in payload["pipelines"]] == ["non_degenerate", "finite_type"]
    assert payload["pipelines"][0]["moduli"]["text"] == geo.expected_moduli_text(periods)
    assert calls["long_exact_sequence"] == 1
    assert calls["build_sym_graph"] == 1
    for name in ("mayer_vietoris", "is_exact_at", "check_hom", "prune_all"):
        assert calls[name] >= 1, name


def test_validate_builds_the_cut_graph_and_the_coloring_once(
    tmp_path, monkeypatch, capsys
) -> None:
    # validate, `folmod check` and `folmod moduli` each read the input
    # once: one dual graph, cut graph and coloring, and one local type per
    # marked corner between invariant components, 16 on the geodesic and 6
    # on example 5.
    names = ("build_dual_graph", "build_cut_graph", "color", "_corner_info")
    calls = _count_calls(monkeypatch, names)
    for doc, corners in ((_geodesic_doc(9), 16), (example_doc(5), 6)):
        inp = load_input(doc)
        path = _write(tmp_path, doc)
        for run in (
            lambda: foliation.validate(inp.divisor, inp.singularities, inp.holonomies) == [],
            lambda: cli.main(["check", path]) == 0,
            lambda: cli.main(["moduli", path]) == 0,
        ):
            calls.update(dict.fromkeys(calls, 0))
            assert run()
            assert calls == {
                "build_dual_graph": 1,
                "build_cut_graph": 1,
                "color": 1,
                "_corner_info": corners,
            }
        capsys.readouterr()


def test_local_types_are_read_once(monkeypatch) -> None:
    # The three geodesics have 28 cut edges and 14 abelian infinite
    # components; 11 of their chains are R1, and each R1 transport reads
    # the Camacho-Sad factors of its two corners.
    calls = _count_calls(monkeypatch, ("_corner_info", "_vertex_red_kind", "_gamma"))
    for k in (3, 5, 9):
        inp = load_input(_geodesic_doc(k))
        compute_moduli(inp.divisor, inp.singularities, inp.holonomies)
    assert calls == {"_corner_info": 28, "_vertex_red_kind": 14, "_gamma": 22}


@pytest.mark.parametrize("n", [1, 4, 5, 6])
def test_the_flow_sheaf_is_induced_from_the_symmetry_sheaf(n: int, monkeypatch) -> None:
    divisor, sing, vh = _args(n)
    coloring = foliation._analyze(divisor, sing, vh).coloring
    sym = foliation.build_sym_graph(coloring, sing, vh, divisor)
    calls = _count_calls(monkeypatch, ("_gamma", "check_hom"))
    inclusion = foliation.build_exp_graph(sym, coloring, divisor)
    assert calls == {"_gamma": 0, "check_hom": 0}
    assert inclusion.cod is sym and inclusion.dom.graph is coloring.red


def test_zone_cores_read_their_h1_from_the_gluing_sequence(monkeypatch) -> None:
    # Every zone of a geodesic has a rigid boundary, so the H^1 of its core
    # is that of the second Mayer-Vietoris cover piece; the one h1 call left
    # computes the moduli group.
    geo = _geodesic_module()
    inp = load_input(geo.geodesic_doc(geo.chain_periods(5, random.Random("geodesic-0-5"))))
    calls = _count_calls(monkeypatch, ("h1", "mayer_vietoris"))
    foliation.compute_moduli(inp.divisor, inp.singularities, inp.holonomies)
    assert calls["mayer_vietoris"] >= 2
    assert calls["h1"] == 1


def _marked_divisors():
    geo = _geodesic_module()
    docs = [example_doc(n) for n in EXAMPLES]
    docs.append(geo.geodesic_doc(geo.chain_periods(9, random.Random("geodesic-0-9"))))
    return [load_input(doc).divisor for doc in docs]


def test_sigma_points_equal_a_scan_of_every_point() -> None:
    for divisor in _marked_divisors():
        for comp in divisor.components:
            points = [c.id for c in divisor.corners if c.in_sigma and comp.id in c.components]
            points += [
                a.id for a in divisor.attachments if a.in_sigma and a.component == comp.id
            ]
            assert divisor.sigma_points(comp.id) == tuple(sorted(points, key=foliation._id_key))
            assert divisor.val_sigma()[comp.id] == len(points)
        assert list(divisor.val_sigma()) == [c.id for c in divisor.components]


EX3_WITNESS = "cut component containing 0: red part disconnected"


@pytest.mark.parametrize("n", [1, 4, 5, 6])
def test_public_views_equal_the_cli_reports(n: int, tmp_path, capsys) -> None:
    assert cli.main(["moduli", _write(tmp_path, example_doc(n)), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    reports = compute_moduli(*_args(n))
    assert [r.pipeline for r in reports] == ["non_degenerate", "finite_type"]
    assert payload["pipelines"] == [json.loads(json.dumps(r.to_json())) for r in reports]
    assert payload["agree"] is True


def test_example3_is_not_of_finite_type() -> None:
    with pytest.raises(NotFiniteType) as raised:
        compute_moduli(*_args(3))
    assert str(raised.value) == EX3_WITNESS


def test_example2_is_degenerate() -> None:
    (report,) = compute_moduli(*_args(2))
    assert report.pipeline == "finite_type"
    assert report.non_degenerate is False
    assert report.nd_witness == "component 0 has singular valency 3 but abelian_infinite holonomy"


@pytest.mark.parametrize("n", [n for n in EXAMPLES if n != 3])
def test_predicates_match_the_report_verdicts(n: int) -> None:
    args = _args(n)
    nd, ft = is_non_degenerate(*args), is_finite_type(*args)
    for report in compute_moduli(*args):
        assert (nd.ok, nd.witness) == (report.non_degenerate, report.nd_witness)
        assert (ft.ok, ft.witness) == (report.finite_type, report.ft_witness)


def test_the_predicates_refuse_input_with_violations() -> None:
    doc = example_doc(5)
    doc["holonomies"] = doc["holonomies"][1:]
    inp = load_input(doc)
    first = foliation.validate(inp.divisor, inp.singularities, inp.holonomies)[0]
    for predicate in (is_non_degenerate, is_finite_type, compute_moduli):
        with pytest.raises(foliation.FoliationError) as raised:
            predicate(inp.divisor, inp.singularities, inp.holonomies)
        assert str(raised.value) == first


def test_example3_predicate_witness_is_the_refusal_message() -> None:
    ft = is_finite_type(*_args(3))
    assert ft.ok is False
    assert ft.witness == EX3_WITNESS


def _with_side_field(doc: dict, field: str, value) -> dict:
    for side in doc["singularities"]:
        if field in side["type"]:
            side["type"][field] = value
            return doc
    raise AssertionError(f"no side type carries {field!r}")


def _with_factors(doc: dict, factors) -> dict:
    for item in doc["holonomies"]:
        if item["class"] == "nonabelian":
            item["invariant_factors"] = factors
            return doc
    raise AssertionError("no nonabelian holonomy")


def _with_cs(doc: dict, text: str) -> dict:
    for side in doc["singularities"]:
        if "cs" in side:
            side["cs"] = text
            return doc
    raise AssertionError("no Camacho-Sad index")


MALFORMED = {
    "top-level list": lambda: [example_doc(1)],
    "factor string": lambda: _with_factors(example_doc(1), ["x"]),
    "p true": lambda: _with_side_field(example_doc(5), "p", True),
    "p float": lambda: _with_side_field(example_doc(5), "p", 1.5),
    "huge exponent": lambda: _with_cs(example_doc(1), "alpha_t^99999999"),
    "type string": lambda: dict(example_doc(5), singularities=[{"point": "s", "component": 0, "type": "R1"}]),
    "components object": lambda: dict(example_doc(1), components={"id": 0}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_2(case: str, tmp_path, capsys) -> None:
    path = _write(tmp_path, MALFORMED[case]())
    assert _moduli_code(["moduli", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}: ") and "Traceback" not in err


def test_exponents_up_to_the_bound_parse() -> None:
    table = foliation.SymbolTable(["mu"])
    power = foliation.Scalar.one(table)
    for _ in range(foliation.MAX_EXPONENT):
        power = power * foliation.Scalar.symbol(table, "mu")
    assert foliation.parse_scalar(table, f"mu^{foliation.MAX_EXPONENT}") == power
    with pytest.raises(foliation.FoliationError, match="exceeds"):
        foliation.parse_scalar(table, f"mu^{foliation.MAX_EXPONENT + 1}")


def test_an_expansion_past_the_term_bound_exits_2_at_once(tmp_path, capsys) -> None:
    # (a+b+c+d+e)^64 passes the exponent bound but would expand to 814,385
    # terms; the refusal comes after the 210 terms of the sixth power
    doc = _with_cs(example_doc(1), "(a+b+c+d+e)^64")
    doc["symbols"] = doc["symbols"] + ["a", "b", "c", "d", "e"]
    path = _write(tmp_path, doc)
    started = time.perf_counter()
    assert _moduli_code(["moduli", path]) == 2
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}: ") and f"exceed {foliation.MAX_TERMS}" in err


def test_a_sum_past_the_term_bound_exits_2_quickly(tmp_path, capsys) -> None:
    # Each + multiplies the denominators out: summed in full, these eight
    # reciprocals are a 792/1287-term fraction and took 3.9 s to parse
    text = "+".join(f"1/(a+b+c+d+e+{i})" for i in range(1, 9))
    doc = _with_cs(example_doc(1), text)
    doc["symbols"] = doc["symbols"] + ["a", "b", "c", "d", "e"]
    path = _write(tmp_path, doc)
    started = time.perf_counter()
    assert _moduli_code(["moduli", path]) == 2
    assert time.perf_counter() - started < 1.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}: ") and f"exceed {foliation.MAX_TERMS}" in err


def test_a_sum_of_polynomials_is_not_bounded() -> None:
    # Adding polynomials only adds their terms: both sums pass though their
    # operands' term counts multiply past the bound.
    table = SymbolTable(["a", "b", "c", "d", "e"])
    power = foliation.parse_scalar(table, "(a+b+c+d+e)^6")
    small = foliation.parse_scalar(table, "(a+b)^5")
    assert len(power.num) * len(small.num) > foliation.MAX_TERMS
    assert foliation.parse_scalar(table, "(a+b+c+d+e)^6 + (a+b)^5") == power + small
    text = "+".join(f"(a+b+c+d+e)^6*a^{7 * k}" for k in range(6))
    total = foliation.parse_scalar(table, text)
    assert len(total.num) == 6 * len(power.num) > foliation.MAX_TERMS


def test_a_long_polynomial_round_trips_through_text_quickly() -> None:
    # Each + re-normalizes the sum so far, so parsing stays quadratic in the
    # number of terms; with a Fraction per coefficient this sum of 1,200
    # monomials took 8-12 s to parse back from its own text.
    table = SymbolTable(["a", "b", "c"])
    monos = sorted(m for m in itertools.product(range(19), repeat=3) if sum(m) <= 18)[:1200]
    rng = random.Random(0)
    terms = [[list(m), [rng.choice([-1, 1]) * rng.randint(1, 99), 1]] for m in monos]
    p = Scalar.from_json(table, {"rat": [1, 1], "num": terms, "den": [[[0, 0, 0], [1, 1]]]})
    assert len(p.num) == 1200
    started = time.perf_counter()
    assert foliation.parse_scalar(table, str(p)) == p
    assert time.perf_counter() - started < 4.0


def test_parsing_a_long_polynomial_normalizes_each_term_once(monkeypatch) -> None:
    # A sum is normalized once, not after each +: parsing the text of the
    # 1,200-monomial sum above passed 764,968 monomials to _p_primitive in
    # 45,568 calls when each + normalized the whole sum so far.  Now each
    # product step of a term (at most 18 symbol factors) normalizes two
    # one-term polynomials, and the sum is normalized once.  Each a^k was
    # built by k normalized products, 35,486 calls in all; a power built
    # from its base's parts leaves the symbols and the products between
    # powers, about 8 calls per term.
    table = SymbolTable(["a", "b", "c"])
    monos = sorted(m for m in itertools.product(range(19), repeat=3) if sum(m) <= 18)[:1200]
    rng = random.Random(0)
    terms = [[list(m), [rng.choice([-1, 1]) * rng.randint(1, 99), 1]] for m in monos]
    p = Scalar.from_json(table, {"rat": [1, 1], "num": terms, "den": [[[0, 0, 0], [1, 1]]]})
    text = str(p)
    primitive = exactnum._p_primitive
    seen = calls = 0

    def counted(a: dict):
        nonlocal seen, calls
        seen += len(a)
        calls += 1
        return primitive(a)

    monkeypatch.setattr(exactnum, "_p_primitive", counted)
    assert foliation.parse_scalar(table, text) == p
    assert seen <= 40 * 1200
    assert calls <= 10 * 1200


POWER_BASES = [
    "0", "-7/3", "a", "2*a*b^2", "a/b", "(-3/2)*a^2/(b*c)", "a + b", "(a + b)/(a - b)",
    "a + b + c + d + e", "(a + b + c + d + e + 1)/(a*b + 1)", "(a^2 - b)/c", "1/(a + 2)",
]


def _successive_power(table: SymbolTable, base: Scalar, n: int):
    """``base^n`` by ``n`` normalized products, or the refusal's message."""
    out = Scalar.one(table)
    for _ in range(n):
        terms = max(len(out.num), len(out.den)) * max(len(base.num), len(base.den))
        if terms > foliation.MAX_TERMS:
            return f"{terms} terms exceed {foliation.MAX_TERMS} in scalar expression"
        out = out * base
    return out


@pytest.mark.parametrize("text", POWER_BASES)
def test_powers_equal_successive_products(text: str) -> None:
    # The same stored parts, down to the order of the terms, and the same
    # refusals at the same exponents.
    table = SymbolTable(["a", "b", "c", "d", "e"])
    base = foliation.parse_scalar(table, text)
    small = max(len(base.num), len(base.den)) == 1
    for n in [0, 1, 2, 3, 5, 6, 7, 8, 12] + ([foliation.MAX_EXPONENT] if small else []):
        want = _successive_power(table, base, n)
        if isinstance(want, str):
            with pytest.raises(foliation.FoliationError) as refused:
                foliation.parse_scalar(table, f"({text})^{n}")
            assert str(refused.value) == want
            continue
        got = foliation.parse_scalar(table, f"({text})^{n}")
        assert type(got.rat) is type(want.rat) and got.rat == want.rat
        assert list(got.num.items()) == list(want.num.items())
        assert list(got.den.items()) == list(want.den.items())
        assert (got.num is table._unit) == (want.num is table._unit)
        assert (got.den is table._unit) == (want.den is table._unit)


def test_a_sum_is_bounded_from_its_first_non_polynomial_term() -> None:
    # The polynomial terms before a fraction add up first; the fraction is
    # then bounded against their sum, as it was when each + built the sum.
    table = SymbolTable(["a", "b", "c", "d", "e"])
    power = "+".join(f"a^{i}*b^{j}" for i in range(40) for j in range(30))
    with pytest.raises(foliation.FoliationError, match="terms exceed"):
        foliation.parse_scalar(table, f"{power} + 1/(a+b)")
    total = foliation.parse_scalar(table, "a + b - a - b + 1/(a+b) - 1/(a+b) + c + d")
    assert total == Scalar.symbol(table, "c") + Scalar.symbol(table, "d")


def test_the_bundled_examples_stay_within_the_term_bound() -> None:
    for n in EXAMPLES:
        load_input(example_doc(n))


# -- fuzzed documents -------------------------------------------------------

SWAPS = st.sampled_from([None, True, 0, -1, 2, 1.5, "", "x", "1/0", [], [0], {}, {"kind": "R1"}])


def _paths(node, prefix=()):
    """Every (container path, key) of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = example_doc(draw(st.sampled_from([n for n in EXAMPLES if n != 1])))
    for _ in range(draw(st.integers(1, 2))):
        places = list(_paths(doc))
        prefix, key = draw(st.sampled_from(places))
        parent = doc
        for step in prefix:
            parent = parent[step]
        how = draw(st.sampled_from(["swap", "drop", "listify"]))
        if how == "drop" and isinstance(parent, dict):
            del parent[key]
        elif how == "listify" and isinstance(parent[key], dict):
            parent[key] = list(parent[key].values())
        else:
            parent[key] = copy.deepcopy(draw(SWAPS))
    return doc


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(mutated_documents())
def test_fuzzed_documents_never_raise(tmp_path, capsys, doc) -> None:
    code = _moduli_code(["moduli", _write(tmp_path, doc)])
    assert code in {0, 1, 2, 3}
    capsys.readouterr()


# -- refusals of the symmetry sheaf -----------------------------------------


def _r1_doc(components, corners) -> dict:
    """Components ``{id: holonomy class}`` joined by R1 ``corners``
    ``(id, (u, w), p)``, with both sides of every corner given, each with
    the Camacho-Sad index -1."""
    return {
        "schema_version": 1,
        "symbols": [],
        "components": [{"id": c} for c in components],
        "corners": [{"id": s, "components": list(ends)} for s, ends, _ in corners],
        "singularities": [
            {"point": s, "component": c, "cs": "-1", "type": {"kind": "R1", "p": p, "r": 0}}
            for s, ends, p in corners
            for c in ends
        ],
        "holonomies": [
            {"component": c, "class": cls} for c, cls in components.items()
        ],
    }


SES_REFUSALS = {
    "star": (
        _r1_doc(
            {0: "abelian_infinite", 1: "nonabelian", 2: "nonabelian", 3: "nonabelian"},
            [("s1", (0, 1), 2), ("s2", (0, 2), 3), ("s3", (0, 3), 3)],
        ),
        "UnsupportedSideData: component 0: incident corners disagree on p ([2, 3])\n",
    ),
    "chain": (
        _r1_doc(
            {0: "nonabelian", 1: "abelian_infinite", 2: "nonabelian"},
            [("s1", (0, 1), 2), ("s2", (1, 2), 3)],
        ),
        "UnsupportedSideData: component 1: corners 's1' and 's2' carry different "
        "type parameters; transport is not defined\n",
    ),
}


@pytest.mark.parametrize("case", sorted(SES_REFUSALS))
def test_r1_corners_with_different_p_are_refused(case: str, tmp_path, capsys) -> None:
    doc, stderr = SES_REFUSALS[case]
    inp = load_input(doc)
    assert foliation.validate(inp.divisor, inp.singularities, inp.holonomies) == []
    assert _moduli_code(["moduli", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr() == ("", stderr)


# -- ids that the pipelines use internally ----------------------------------


def _renamed(doc: dict, old, new) -> dict:
    """``doc`` with the component, corner or point id ``old`` renamed."""
    doc = copy.deepcopy(doc)

    def swap(x):
        return new if type(x) is type(old) and x == old else x

    for key in ("components", "corners", "attachments", "singularities", "holonomies"):
        for item in doc.get(key, ()):
            for field in ("id", "point", "component"):
                if field in item:
                    item[field] = swap(item[field])
            if key == "corners":
                item["components"] = [swap(c) for c in item["components"]]
            if "orders" in item:
                item["orders"] = [[swap(p), n] for p, n in item["orders"]]
    return doc


RENAMED_INPUTS = {
    "example 1": (lambda: example_doc(1), "C/(Z + (2*alpha_t)Z) (+) C/(Z + (2*beta_t)Z)"),
    "example 5": (lambda: example_doc(5), "C* (+) Z/2 (+) Z/12"),
    "geodesic 3": (lambda: _geodesic_doc(3), "(C*)^2"),
}

RENAMINGS = [
    (name, old, new)
    for name in sorted(RENAMED_INPUTS)
    for old, new in ((0, "__r0__"), (0, "__blow_0_v"))
] + [("geodesic 3", "c0a", "__blow_0_a")]


@pytest.mark.parametrize("name, old, new", RENAMINGS)
def test_any_valid_id_passes_the_pipelines(name: str, old, new, tmp_path, capsys) -> None:
    make, expected = RENAMED_INPUTS[name]
    doc = _renamed(make(), old, new)
    assert doc != make()
    assert _moduli_code(["moduli", _write(tmp_path, doc), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["moduli"]["text"] for p in payload["pipelines"]] == [expected, expected]


# -- a star of rigid components around one abelian component ---------------


def _star_doc(center, side: dict, indices=()) -> dict:
    """Topologically rigid non-abelian components 1, 2 and 3, each joined
    to the abelian infinite component ``center`` by a corner ``x1``-``x3``
    whose two sides carry the local type ``side``.  ``indices`` are the
    Camacho-Sad indices of the center's sides of ``x1``-``x3``, over the
    symbols ``a`` and ``b``, and the other sides carry their reciprocals;
    without them no side has an index."""
    rigid = (1, 2, 3)
    sides = []
    for c in rigid:
        for end in (center, c):
            item = {"point": f"x{c}", "component": end, "type": side}
            if indices:
                cs = indices[c - 1]
                item["cs"] = cs if end == center else f"1/({cs})"
            sides.append(item)
    return {
        "schema_version": 1,
        "symbols": ["tau_i", "a", "b"] if indices else ["tau_i"],
        "components": [{"id": c, "topologically_rigid": True} for c in rigid]
        + [{"id": center}],
        "corners": [{"id": f"x{c}", "components": [center, c]} for c in rigid],
        "attachments": [],
        "singularities": sides,
        "holonomies": [{"component": c, "class": "nonabelian"} for c in rigid]
        + [{"component": center, "class": "abelian_infinite"}],
    }


R0_SIDE = {"kind": "R0", "p": 2, "r": 0, "m": 1}
L0_SIDE = {"kind": "L0", "atom": "cremer"}


@pytest.mark.parametrize("center", [0, 5])
def test_a_rigid_star_needs_no_index(center: int, tmp_path, capsys, monkeypatch) -> None:
    # An R0 stalk has no flow coordinate, so its restrictions read no
    # Camacho-Sad index, whichever side of its corners is preferred.
    doc = _star_doc(center, R0_SIDE)
    inp = load_input(doc)
    assert foliation.validate(inp.divisor, inp.singularities, inp.holonomies) == []
    calls = _count_calls(monkeypatch, ("_gamma",))
    assert _moduli_code(["moduli", _write(tmp_path, doc), "--format", "json"]) == 0
    assert calls == {"_gamma": 0}
    payload = json.loads(capsys.readouterr().out)
    # a center of valency three with abelian holonomy is degenerate
    assert [(p["pipeline"], p["moduli"]["text"]) for p in payload["pipelines"]] == [
        ("finite_type", "Z/2 (+) Z/2")
    ]


@pytest.mark.parametrize("center", [0, 5])
def test_an_atom_star_exits_3_without_a_traceback(
    center: int, tmp_path, capsys, monkeypatch
) -> None:
    # The atom of the center restricts onto the atoms of three corners,
    # which the atom model refuses; the refusal is an exit code that names
    # the center and its first two corners.
    doc = _star_doc(center, L0_SIDE)
    inp = load_input(doc)
    assert foliation.validate(inp.divisor, inp.singularities, inp.holonomies) == []
    calls = _count_calls(monkeypatch, ("_gamma",))
    assert _moduli_code(["moduli", _write(tmp_path, doc)]) == 3
    assert calls == {"_gamma": 0}
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"UnsupportedAtomMap: vertex {center}: atom cremer ")
    assert err.endswith(" restricts onto the atoms of edges 'x1' and 'x2'\n")


R1_SIDE = {"kind": "R1", "p": 2, "r": 1}


@pytest.mark.parametrize("center", [0, 5])
def test_a_resonant_star_with_rational_indices(center: int, tmp_path, capsys) -> None:
    doc = _star_doc(center, R1_SIDE, ("-3", "-5", "-7"))
    assert _moduli_view(doc, tmp_path, capsys) == (
        0,
        [("finite_type", "(C*)^2", "Z^2 -> C^2 -> Mod -> D -> 0")],
    )


@pytest.mark.parametrize("center", [0, 5])
def test_a_non_rational_resonant_index_is_a_violation(center: int, tmp_path, capsys) -> None:
    # Accepted, these indices gave (C*)^2 with the center named 0 and a
    # non-discrete quotient of C^2 with the center named 5.
    path = _write(tmp_path, _star_doc(center, R1_SIDE, ("a", "b", "a*b")))
    lines = [
        f"corner 'x{c}': resonant side on {end} has a non-rational index {cs}"
        for c, index in ((1, "a"), (2, "b"), (3, "a*b"))
        for end, cs in ((center, index), (c, f"(1)/({index})"))
    ]
    assert _moduli_code(["check", path]) == 1
    violations = "".join(f"violation: {line}\n" for line in lines)
    assert capsys.readouterr() == (violations + f"{path}: 6 violation(s)\n", "")
    assert _moduli_code(["moduli", path]) == 1
    assert capsys.readouterr() == ("", violations)


@pytest.mark.parametrize("center", [0, 5])
def test_a_resonant_star_without_indices_is_a_violation(center: int, tmp_path, capsys) -> None:
    # Accepted, this star gave (C*)^2 with the center named 0 and exited 3
    # with the center named 5: only the larger-id side's index is read.
    path = _write(tmp_path, _star_doc(center, R1_SIDE))
    violations = "".join(
        f"violation: corner 'x{c}': a resonant normalizable corner of an abelian "
        "infinite component needs a nonzero index\n"
        for c in (1, 2, 3)
    )
    assert _moduli_code(["check", path]) == 1
    assert capsys.readouterr() == (violations + f"{path}: 3 violation(s)\n", "")
    assert _moduli_code(["moduli", path]) == 1
    assert capsys.readouterr() == ("", violations)


# -- inputs without a red vertex, and isolated red components ---------------


def _green_doc(n: int, corners, attachments, orders) -> dict:
    """Components of finite holonomy of order ``n`` joined by the periodic
    ``corners`` ``(id, (u, w))``, with the ``attachments`` ``(id,
    component)``; ``orders[point]`` is the local holonomy order at each
    point, on every component through it."""
    points = {}
    for point, ends in corners:
        for c in ends:
            points.setdefault(c, []).append(point)
    for point, c in attachments:
        points.setdefault(c, []).append(point)
    return {
        "schema_version": 1,
        "symbols": [],
        "components": [{"id": c} for c in sorted(points)],
        "corners": [{"id": point, "components": list(ends)} for point, ends in corners],
        "attachments": [{"id": point, "component": c} for point, c in attachments],
        "singularities": [
            {"point": point, "component": c, "type": {"kind": "P", "q": orders[point]}}
            for point, ends in corners
            for c in ends
        ],
        "holonomies": [
            {"component": c, "class": "finite", "n": n, "orders": [[p, orders[p]] for p in pts]}
            for c, pts in sorted(points.items())
        ],
    }


def _isolated_doc(*sides: dict) -> dict:
    """One abelian infinite component 0 with one attachment per local type."""
    return {
        "schema_version": 1,
        "symbols": ["tau_i"],
        "components": [{"id": 0}],
        "corners": [],
        "attachments": [{"id": f"a{k}", "component": 0} for k in range(len(sides))],
        "singularities": [
            {"point": f"a{k}", "component": 0, "type": side} for k, side in enumerate(sides)
        ],
        "holonomies": [{"component": 0, "class": "abelian_infinite"}],
    }


NO_RED_INPUTS = {
    # component 0 has valency three and finite holonomy, so it is degenerate
    "two components": lambda: _green_doc(
        1, [("s", (0, 1))], [("a", 0), ("b", 0)], {"s": 1, "a": 1, "b": 1}
    ),
    "one component": lambda: _green_doc(1, [], [("a", 0)], {"a": 1}),
}


def _zero_report(pipeline: str, red: str, nd: str) -> str:
    return (
        f"moduli report (pipeline: {pipeline})\n"
        "tc: ok\n"
        "finite type: yes\n"
        f"non-degenerate: {nd}\n"
        f"red part: {red}\n"
        "chains (linearizable, resonant normalizable, non-resonant non-linearizable, "
        "resonant non-normalizable): (0, 0, 0, 0)\n"
        "tau: 0\n"
        "sequence: Z^0 -> C^0 -> Mod -> D -> 0 [exactness verified]\n"
        "F = ker(H1(Exp) -> H1(Sym)): 0\n"
        "H1(R, Exp): 0\n"
        "D = H1(R, Dis): 0\n"
        "Mod ~= 0\n"
        "shape (F (+) B (+) T)/Z with F: 0; B: none; T: 0; ker(H1(Exp) -> H1(Sym)) = 0\n"
    )


NO_RED = "0 vertices [], 0 edges []"


def test_two_green_components_give_the_finite_type_report(tmp_path, capsys) -> None:
    path = _write(tmp_path, NO_RED_INPUTS["two components"]())
    assert _moduli_code(["moduli", path]) == 0
    nd = "no (cut component containing 0: no topologically rigid component)"
    assert capsys.readouterr() == (_zero_report("finite_type", NO_RED, nd), "")


def test_one_green_component_gives_both_reports(tmp_path, capsys) -> None:
    path = _write(tmp_path, NO_RED_INPUTS["one component"]())
    assert _moduli_code(["moduli", path]) == 0
    both = "\n".join(_zero_report(p, NO_RED, "yes") for p in ("non_degenerate", "finite_type"))
    assert capsys.readouterr() == (both + "\npipelines agree on the classified moduli\n", "")


@pytest.mark.parametrize("side", [R1_SIDE, R0_SIDE, L0_SIDE], ids=lambda side: side["kind"])
def test_an_isolated_red_component_reads_its_attachments(side: dict, tmp_path, capsys) -> None:
    path = _write(tmp_path, _isolated_doc(side, side, side))
    assert _moduli_code(["moduli", path]) == 0
    nd = "no (cut component containing 0: no topologically rigid component)"
    red = "1 vertices [0], 0 edges []"
    assert capsys.readouterr() == (_zero_report("finite_type", red, nd), "")


def test_attachments_of_different_p_are_refused(tmp_path, capsys) -> None:
    doc = _isolated_doc(R1_SIDE, dict(R1_SIDE, p=3), R1_SIDE)
    inp = load_input(doc)
    assert foliation.validate(inp.divisor, inp.singularities, inp.holonomies) == []
    assert _moduli_code(["moduli", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr() == (
        "",
        "UnsupportedSideData: component 0: attachments disagree on type parameters\n",
    )


def test_a_green_chain_without_a_repulsive_center_is_refused(tmp_path, capsys) -> None:
    # every corner has local order 1 below the holonomy order 2
    corners = [("s", (0, 1)), ("t", (1, 2))]
    attachments = [("a0", 0), ("a1", 1), ("a2", 2)]
    orders = {"s": 1, "t": 1, "a0": 2, "a1": 2, "a2": 2}
    path = _write(tmp_path, _green_doc(2, corners, attachments, orders))
    assert _moduli_code(["check", path]) == 0
    capsys.readouterr()
    assert _moduli_code(["moduli", path]) == 3
    assert capsys.readouterr() == (
        "",
        "NotFiniteType: cut component containing 0: no repulsive center in an "
        "all-green component\n",
    )


# -- local types check themselves -------------------------------------------


BAD_SIDE_TYPES = {
    "P without q": (("P", {}), "q must be an integer, got None"),
    "P of order 0": (("P", {"q": 0}), "a periodic local holonomy has order >= 1"),
    "L0 without atom": (("L0", {}), "a non-linearizable local type needs an atom name"),
    "L0 atom not a string": (
        ("L0", {"atom": 3}),
        "a non-linearizable local type needs an atom name",
    ),
    "R1 without r": (("R1", {"p": 1}), "r must be an integer, got None"),
    "R1 p true": (("R1", {"p": True, "r": 0}), "p must be an integer, got True"),
    "R1 p = 0": (("R1", {"p": 0, "r": 0}), "resonant invariants need p >= 1 and r >= 0"),
    "R1 r < 0": (("R1", {"p": 1, "r": -1}), "resonant invariants need p >= 1 and r >= 0"),
    "R0 m = 0": (
        ("R0", {"p": 2, "r": 0, "m": 0}),
        "resonant invariants need p >= 1, r >= 0, m >= 1",
    ),
    "R0 beta image order 0": (
        ("R0", {"p": 2, "r": 0, "m": 1, "beta_image_order": 0}),
        "beta_image_order must divide p, with p/beta_image_order dividing r",
    ),
    "R0 beta image order not dividing p": (
        ("R0", {"p": 4, "r": 2, "m": 1, "beta_image_order": 3}),
        "beta_image_order must divide p, with p/beta_image_order dividing r",
    ),
    "R0 p / beta image order not dividing r": (
        ("R0", {"p": 4, "r": 1, "m": 1, "beta_image_order": 2}),
        "beta_image_order must divide p, with p/beta_image_order dividing r",
    ),
    "R0 beta image order a string": (
        ("R0", {"p": 2, "r": 0, "m": 1, "beta_image_order": "2"}),
        "beta_image_order must be an integer, got '2'",
    ),
    "unknown kind": (("Q", {}), "unknown local type kind 'Q'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIDE_TYPES))
def test_a_side_type_refuses_bad_parameters(case: str) -> None:
    (kind, params), message = BAD_SIDE_TYPES[case]
    with pytest.raises(foliation.FoliationError) as raised:
        foliation.SideType(kind, **params)
    assert str(raised.value) == message


def test_a_side_type_completes_the_beta_image_order() -> None:
    built = foliation.SideType("R0", p=4, r=2, m=1)
    assert built.beta_image_order == 4
    assert built == foliation.SideType.resonant_non_normalizable(4, 2, 1, 4)


# -- relabelled ids ---------------------------------------------------------


def _relabelled(doc: dict, rng: random.Random) -> dict:
    """``doc`` with its component ids permuted among themselves, and its
    point ids (corners and attachments) among themselves."""
    doc = copy.deepcopy(doc)
    comps = [c["id"] for c in doc["components"]]
    points = [p["id"] for key in ("corners", "attachments") for p in doc.get(key, ())]
    comp = dict(zip(comps, rng.sample(comps, len(comps))))
    point = dict(zip(points, rng.sample(points, len(points))))
    for item in doc["components"]:
        item["id"] = comp[item["id"]]
    for item in doc["corners"]:
        item["id"] = point[item["id"]]
        item["components"] = [comp[c] for c in item["components"]]
    for item in doc.get("attachments", ()):
        item["id"], item["component"] = point[item["id"]], comp[item["component"]]
    for item in doc["singularities"]:
        item["point"], item["component"] = point[item["point"]], comp[item["component"]]
    for item in doc["holonomies"]:
        item["component"] = comp[item["component"]]
        if "orders" in item:
            item["orders"] = [[point[p], n] for p, n in item["orders"]]
    return doc


RELABELLED_INPUTS = {
    **{f"example {n}": (lambda n=n: example_doc(n)) for n in EXAMPLES},
    "geodesic 3": lambda: _geodesic_doc(3),
    "geodesic 5": lambda: _geodesic_doc(5),
    "R0 star": lambda: _star_doc(5, R0_SIDE),
    "L0 star": lambda: _star_doc(5, L0_SIDE),
    "R1 star": lambda: _star_doc(5, R1_SIDE, ("-3", "-5", "-7")),
    "R1 star without indices": lambda: _star_doc(5, R1_SIDE),
    **{f"no red, {name}": make for name, make in NO_RED_INPUTS.items()},
}


def _moduli_view(doc: dict, tmp_path, capsys) -> tuple:
    """The exit code of `folmod moduli` and, on exit 0, the moduli text and
    sequence arrow of each pipeline."""
    code = _moduli_code(["moduli", _write(tmp_path, doc), "--format", "json"])
    out = capsys.readouterr().out
    if code != 0:
        return code, None
    views = [
        (p["pipeline"], p["moduli"]["text"], p["sequence"]["arrow"])
        for p in json.loads(out)["pipelines"]
    ]
    return code, views


@pytest.mark.parametrize("name", sorted(RELABELLED_INPUTS))
def test_relabelled_ids_give_the_same_moduli(name: str, tmp_path, capsys) -> None:
    doc = RELABELLED_INPUTS[name]()
    expected = _moduli_view(doc, tmp_path, capsys)
    rng = random.Random(f"relabel-{name}")
    for i in range(4):
        assert _moduli_view(_relabelled(doc, rng), tmp_path, capsys) == expected, i
