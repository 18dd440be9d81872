"""The public surface of ``folmod`` is sized to what uses it.

Each name in a module's ``__all__`` must be imported by another ``folmod``
module, be read by the benchmark (a name that ``perfbench/layers.py`` traces
or that ``perfbench/geodesic.py`` imports), or carry a one-line reason in
``KEPT``.  The benchmark's tracer wraps only the functions listed in
``__all__``, so the traced names must stay there.

Below the surface, every private module-level function and class and every
method defined in ``src/folmod`` must be referenced somewhere in
``src/folmod`` outside its own body, or carry a one-line reason in
``UNREFERENCED``: code that only tests call, or that only calls itself, or
that nothing calls, is deleted.  So is a module-level import that nothing
references: not its own module's code or doctests, not that module's
``__all__``, and no ``from .module import name`` in another module.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import folmod

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "folmod"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

KEPT = {
    "foliation.TCviolated": "raised on a failed position condition; an exit-3 refusal",
    "foliation.NotFiniteType": "raised on input not of finite type; an exit-3 refusal",
    "foliation.SideType": "input model: the local type of a side",
    "foliation.SideData": "input model: one side of a singular point",
    "foliation.SingularityData": "input model: load_input(...).singularities",
    "foliation.Component": "input model: a divisor component",
    "foliation.Corner": "input model: a corner between two components",
    "foliation.Attachment": "input model: a singular point on one component",
    "foliation.MarkedDivisor": "input model: load_input(...).divisor",
    "foliation.FiniteHolonomy": "input model: a holonomy class",
    "foliation.AbelianInfiniteHolonomy": "input model: a holonomy class",
    "foliation.NonabelianHolonomy": "input model: a holonomy class",
    "foliation.VertexHolonomy": "input model: load_input(...).holonomies",
    "foliation.FoliationInput": "input model: what load_input returns",
    "foliation.ModuliReport": "report model: what compute_moduli returns",
    "foliation.compute_moduli": "the library entry point; the CLI runs its body on one analysis",
    "foliation.FourTermSequence": "report model: ModuliReport.sequence",
    "foliation.SingularChain": "report model: ModuliReport.chains",
    "foliation.ChainCounts": "report model: ModuliReport.chain_counts",
    "cli.main": "the folmod console script",
    "exactnum.IntMatrix": "the argument and results of smith_normal_form, which perfbench calls",
}


UNREFERENCED = {
    "exactnum.IntMatrix.diagonal": "perfbench reads the diagonal of smith_normal_form's d",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> dict:
    """``{qualified name: node}`` of every private module-level function and
    class and every method, dunders aside, in ``src/folmod``."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not _dunder(node.name):
                defs[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = item
    return defs


def _references(tree: ast.AST) -> Counter:
    """How often each name, attribute and imported name is used in ``tree``."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def _unreferenced(defs: dict) -> list:
    """The definitions that nothing in ``src/folmod`` references outside
    their own body; a call of a same-named method of another class from
    inside the body does not count."""
    used: Counter = Counter()
    for path in SRC.glob("*.py"):
        used += _references(ast.parse(path.read_text(encoding="utf-8")))
    return [
        qualified
        for qualified, node in defs.items()
        if used[node.name] == _references(node)[node.name]
    ]


def test_every_private_definition_and_method_is_referenced() -> None:
    unreferenced = [q for q in _unreferenced(_definitions()) if q not in UNREFERENCED]
    assert unreferenced == [], f"nothing in src/folmod references {unreferenced}"


def test_unreferenced_entries_are_defined_and_unreferenced() -> None:
    defs = _definitions()
    unreferenced = _unreferenced(defs)
    for qualified in UNREFERENCED:
        assert qualified in defs, qualified
        assert qualified in unreferenced, qualified


def _unused_imports() -> list:
    """``module.name`` of each module-level import in ``src/folmod`` whose
    bound name nothing references (see the module docstring)."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    reimported = {
        f"{node.module}.{alias.name}"
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unused = []
    for stem, tree in trees.items():
        module = importlib.import_module("folmod" if stem == "__init__" else f"folmod.{stem}")
        sources = [tree] + [
            ast.parse(example.source)
            for test in doctest.DocTestFinder().find(module)
            for example in test.examples
        ]
        used = {node.id for t in sources for node in ast.walk(t) if isinstance(node, ast.Name)}
        used.update(getattr(module, "__all__", ()))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and f"{stem}.{name}" not in reimported:
                    unused.append(f"{stem}.{name}")
    return unused


def test_every_import_is_referenced() -> None:
    unused = _unused_imports()
    assert unused == [], f"nothing in src/folmod references the imports {unused}"


def _imported_by(module: str) -> set:
    """Names that ``folmod`` modules other than ``module`` and the package
    itself import from another ``folmod`` module."""
    names = set()
    for stem in MODULES:
        if stem == module:
            continue
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("folmod")
            ):
                names.update(alias.name for alias in node.names)
    return names


def _benchmark_names() -> set:
    """Names in string literals of ``layers.py`` and imports of ``geodesic.py``."""
    names = set()
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    for node in ast.walk(layers):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    geodesic = ast.parse((ROOT / "perfbench" / "geodesic.py").read_text(encoding="utf-8"))
    for node in ast.walk(geodesic):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("folmod"):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used(module: str) -> None:
    used = _imported_by(module) | _benchmark_names()
    exported = importlib.import_module(f"folmod.{module}").__all__
    unused = [n for n in exported if n not in used and f"{module}.{n}" not in KEPT]
    assert unused == [], f"folmod.{module}.__all__ exports names nothing uses: {unused}"


def test_kept_names_are_exported() -> None:
    for qualified in KEPT:
        module, name = qualified.split(".")
        assert name in importlib.import_module(f"folmod.{module}").__all__, qualified


def test_package_names_resolve() -> None:
    for name in folmod.__all__:
        assert hasattr(folmod, name), name
