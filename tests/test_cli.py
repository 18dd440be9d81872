"""`folmod cohomology` and `folmod oracle` end in exit codes, not tracebacks."""

from __future__ import annotations

import json

from folmod import cli
from folmod.abgroup import PresentedAbelianGroup, identity_hom
from folmod.exactnum import SymbolTable
from folmod.gg import Graph, GroupGraph


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
    assert out == ""
    assert err.startswith("UnsupportedAtomMap: ") and "Traceback" not in err


def test_a_non_integer_oracle_bound_exits_2(monkeypatch, capsys) -> None:
    monkeypatch.setenv("FOLMOD_BOUND", "abc")
    assert _exit_code(["oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "FOLMOD_BOUND" in err and "'abc'" in err
