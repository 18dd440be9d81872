"""`folmod cohomology` and `folmod oracle` end in exit codes, not tracebacks."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from folmod import cli
from folmod.abgroup import PresentedAbelianGroup, direct_sum, identity_hom
from folmod.exactnum import Scalar, SymbolTable
from folmod.gg import MAX_ITEMS, Graph, GroupGraph


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as done:
        return done.code


def test_a_vertex_atom_on_two_edge_atoms_exits_3(tmp_path, capsys) -> None:
    # vertex 0 restricts its atom onto the atoms of both edges e and f
    cremer = PresentedAbelianGroup.atom_group(SymbolTable([]), "cremer")
    graph = Graph([0, 1, 2], [("e", 0, 1), ("f", 0, 2)])
    doc = GroupGraph(
        graph,
        {v: cremer for v in graph.vertices},
        {e: cremer for e in graph.edges},
        {(v, e): identity_hom(cremer) for e in graph.edges for v in graph.endpoints(e)},
    ).to_json()
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _exit_code(["cohomology", str(path)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == (
        "",
        "UnsupportedAtomMap: vertex 0: atom cremer restricts onto the atoms of "
        "edges 'e' and 'f'\n",
    )


def test_a_non_integer_oracle_bound_exits_2(capsys) -> None:
    assert _exit_code(["oracle", "--bound", "abc"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--bound" in err and "'abc'" in err


def test_main_builds_its_parser_once(monkeypatch, capsys) -> None:
    # Each call's exit code and output, with a parser built per call (as
    # the command did before it kept one) and then with the kept parser.
    argvs = (
        ["examples", "3"],
        ["oracle", "--bound", "abc"],
        ["examples", "9"],
        ["moduli", "--help"],
        ["examples", "3"],
    )

    def outputs() -> list:
        return [(_exit_code(argv), *capsys.readouterr()) for argv in argvs]

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = outputs()
    monkeypatch.undo()
    cli._build_parser.cache_clear()
    assert outputs() == fresh
    assert cli._build_parser.cache_info().misses == 1


def _two_vertex_doc() -> dict:
    """A group-graph on one edge whose groups are ``C/(Z + mu Z) (+) Z/2``."""
    table = SymbolTable(["mu"])
    torus = PresentedAbelianGroup.lattice_quotient(
        table, [Scalar.one(table), Scalar.symbol(table, "mu")]
    )
    group, _ = direct_sum([torus, PresentedAbelianGroup.from_invariant_factors(table, [2])])
    graph = Graph([0, 1], [("e", 0, 1)])
    return GroupGraph(
        graph,
        {0: group, 1: group},
        {"e": group},
        {(0, "e"): identity_hom(group), (1, "e"): identity_hom(group)},
        table=table,
    ).to_json()


def _write(tmp_path, doc: dict) -> str:
    path = tmp_path / "gg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _first_scalar(doc: dict) -> dict:
    return doc["vertex_groups"][0]["group"]["relations"][0]["cont"][0]


def test_the_two_vertex_document_runs(tmp_path, capsys) -> None:
    assert _exit_code(["cohomology", _write(tmp_path, _two_vertex_doc())]) == 0
    assert capsys.readouterr().out == "H0: C/(Z + (mu)Z) (+) Z/2\nH1: 0\n"


def _one_vertex_doc(factors) -> dict:
    """A group-graph of one vertex and no edges whose group has the given
    invariant factors."""
    group = PresentedAbelianGroup.from_invariant_factors(SymbolTable([]), factors)
    return GroupGraph(Graph([0], []), {0: group}, {}, {}).to_json()


@pytest.mark.parametrize(
    "factors, rank",
    # Z/2 read with a boolean rank, and Z read with a float rank, both
    # exited 0 when ranks went through int().
    [([2], True), ([], 1.0)],
)
def test_a_non_integer_rank_exits_2(factors, rank, tmp_path, capsys) -> None:
    doc = _one_vertex_doc(factors)
    doc["vertex_groups"][0]["group"]["disc_rank"] = rank
    path = _write(tmp_path, doc)
    assert _exit_code(["cohomology", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and path in err and "disc_rank" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc["vertex_groups"][0]["group"]["relations"][-1].update(disc=[]),
            "relation width does not match generator counts",
        ),
        (
            lambda doc: doc["rhos"][0]["map"]["disc_images"][0].update(disc=[1, 0]),
            "discrete image has wrong width",
        ),
    ],
)
def test_a_disc_list_of_the_wrong_width_exits_2(edit, message, tmp_path, capsys) -> None:
    doc = _two_vertex_doc()
    edit(doc)
    path = _write(tmp_path, doc)
    assert _exit_code(["cohomology", path]) == 2
    assert capsys.readouterr() == ("", f"{path}: {message}\n")


@pytest.mark.parametrize("key", ["components", "corners", "attachments"])
def test_a_foliation_over_the_size_bound_exits_2(key: str, tmp_path, capsys) -> None:
    doc = {"schema_version": 1, "symbols": [], key: [{}] * (MAX_ITEMS + 1)}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("check", "moduli"):
        assert _exit_code([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{path}: {MAX_ITEMS + 1} {key} exceed")


@pytest.mark.parametrize("key", ["vertices", "edges"])
def test_a_group_graph_over_the_size_bound_exits_2(key: str, tmp_path, capsys) -> None:
    doc = _two_vertex_doc()
    doc["graph"][key] = list(range(MAX_ITEMS + 1))
    path = _write(tmp_path, doc)
    assert _exit_code(["cohomology", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{path}: {MAX_ITEMS + 1} {key} exceed")


MALFORMED_SCALARS = {
    "rat with zero denominator": lambda s: s.update(rat=[1, 0]),
    "short rat": lambda s: s.update(rat=[1]),
    "coefficient with zero denominator": lambda s: s["num"][0].__setitem__(1, [1, 0]),
    "negative exponent": lambda s: s["num"][0].__setitem__(0, [-1]),
    "exponent of the wrong width": lambda s: s["num"][0].__setitem__(0, [0, 0]),
    "exponent above MAX_EXPONENT": lambda s: s["num"][0].__setitem__(0, [10**4]),
    "zero denominator polynomial": lambda s: s.update(den=[]),
    "float coefficient": lambda s: s["den"][0].__setitem__(1, [1.5, 1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCALARS))
def test_malformed_scalars_exit_2(case: str, tmp_path, capsys) -> None:
    doc = _two_vertex_doc()
    MALFORMED_SCALARS[case](_first_scalar(doc))
    path = _write(tmp_path, doc)
    assert _exit_code(["cohomology", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}: ") and "Traceback" not in err


SWAPS = st.sampled_from(
    [None, True, 0, -1, 2, 1.5, "x", [], [0], [1, 0], [0, 0], [-1], [[-1], [1, 1]], {}]
)


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
def mutated_group_graphs(draw):
    doc = _two_vertex_doc()
    for _ in range(draw(st.integers(1, 2))):
        prefix, key = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for step in prefix:
            parent = parent[step]
        how = draw(st.sampled_from(["swap", "drop"]))
        if how == "drop":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(SWAPS))
    return doc


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(mutated_group_graphs())
def test_fuzzed_group_graphs_never_raise(tmp_path, capsys, doc) -> None:
    assert _exit_code(["cohomology", _write(tmp_path, doc)]) in {0, 1, 2, 3}
    capsys.readouterr()
