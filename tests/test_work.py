"""Work guards: the geodesic family stays cheap as it grows.

The moduli group is ``H^1`` of a group-graph over a tree, so its cochain
maps are mostly zero.  The linear algebra keeps those zeros out of the
Scalar arithmetic; these tests pin that down by counting the Scalars one
`folmod moduli` run constructs, and run a geodesic of 33 joints (65
components), which the dense solvers took seconds on.  The integer side
factors each system once; a guard counts the Smith forms one run asks for.
The exactness checks read only a kernel's generators, not its relations;
guards count the kernels a run computes.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from folmod import abgroup, cli, exactnum
from folmod.examples import EXAMPLES, example_doc
from folmod.oracle import run_oracle
from memo_caches import clear_caches

# A run on the k=9 geodesic constructed 22,254 Scalars with dense rows, the
# same under PYTHONHASHSEED 0 and 1; sparse rows need a fraction of that.
MAX_SCALARS_K9 = 6000

# Examples 0-6 constructed 5,427 Scalars when the elimination still reduced
# through each pivot's own unit entry and a sum of polynomials went through
# a negated copy; they need about 3,000 without that waste.
MAX_SCALARS_EXAMPLES = 4000


# The seed-0 k=9 geodesic asked for 635 Smith forms when every preimage
# solve rebuilt its integer matrix and every kernel relation solved its own;
# factored once per system it asks for about 160.
MAX_SMITH_FORMS_K9 = 250

# The seed-0 k=9 geodesic computed 22 kernels, and ten runs of each oracle
# suite (seed 0) 231, when every injectivity and exactness check built a
# whole kernel presentation; reading its generators alone leaves 9 and 63.
MAX_KERNELS_K9 = 12
MAX_KERNELS_ORACLE = 100


def _geodesic_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "geodesic.py"
    spec = importlib.util.spec_from_file_location("perfbench_geodesic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_geodesic(k: int, tmp_path, capsys):
    """``folmod moduli`` on the seed-0 geodesic of ``k`` joints, as the
    benchmark draws it; returns the chain periods and the JSON payload."""
    geo = _geodesic_module()
    periods = geo.chain_periods(k, random.Random(f"geodesic-0-{k}"))
    path = tmp_path / f"k{k}.json"
    path.write_text(json.dumps(geo.geodesic_doc(periods)), encoding="utf-8")
    code = cli.main(["moduli", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return geo, periods, json.loads(out)


def _count_scalars(monkeypatch, run) -> int:
    """The Scalars ``run()`` constructs from cold caches."""
    count = 0
    init = exactnum.Scalar.__init__

    def counted(self, *args) -> None:
        nonlocal count
        count += 1
        init(self, *args)

    clear_caches()
    monkeypatch.setattr(exactnum.Scalar, "__init__", counted)
    try:
        run()
    finally:
        monkeypatch.undo()
    return count


def test_k9_geodesic_constructs_few_scalars(tmp_path, capsys, monkeypatch) -> None:
    count = _count_scalars(monkeypatch, lambda: _run_geodesic(9, tmp_path, capsys))
    assert 0 < count <= MAX_SCALARS_K9


def test_examples_construct_few_scalars(tmp_path, capsys, monkeypatch) -> None:
    paths = []
    for n in EXAMPLES:
        path = tmp_path / f"ex{n}.json"
        path.write_text(json.dumps(example_doc(n)), encoding="utf-8")
        paths.append(path)

    def run() -> None:
        for path in paths:
            assert cli.main(["moduli", str(path), "--format", "json"]) in (0, 3)
        capsys.readouterr()

    count = _count_scalars(monkeypatch, run)
    assert 0 < count <= MAX_SCALARS_EXAMPLES


def test_k33_geodesic_moduli(tmp_path, capsys) -> None:
    geo, periods, payload = _run_geodesic(33, tmp_path, capsys)
    want = geo.expected_moduli_text(periods)
    assert payload["agree"] is True
    assert [p["moduli"]["text"] for p in payload["pipelines"]] == [want, want]


def test_k9_geodesic_requests_few_smith_forms(tmp_path, capsys, monkeypatch) -> None:
    # Every Smith form goes through the memo: count the calls of its entry
    # point, wherever a folmod module holds it.
    memo = exactnum._snf_cached
    count = 0

    def counted(a):
        nonlocal count
        count += 1
        return memo(a)

    clear_caches()
    for name, module in list(sys.modules.items()):
        if name == "folmod" or name.startswith("folmod."):
            for attr, value in list(vars(module).items()):
                if value is memo:
                    monkeypatch.setattr(module, attr, counted)
    _run_geodesic(9, tmp_path, capsys)
    monkeypatch.undo()
    assert 0 < count <= MAX_SMITH_FORMS_K9


def _count_kernels(monkeypatch, run) -> int:
    """The kernels ``run()`` computes from cold caches: the calls that
    reach the computation behind the kernel memo."""
    count = 0
    compute = abgroup._kernel

    def counted(h):
        nonlocal count
        count += 1
        return compute(h)

    clear_caches()
    memo = lru_cache(maxsize=abgroup.KERNEL_CACHE_SIZE)(counted)
    monkeypatch.setattr(abgroup, "_kernel_cached", memo)
    try:
        run()
    finally:
        monkeypatch.undo()
    return count


def test_k9_geodesic_computes_few_kernels(tmp_path, capsys, monkeypatch) -> None:
    count = _count_kernels(monkeypatch, lambda: _run_geodesic(9, tmp_path, capsys))
    assert 0 < count <= MAX_KERNELS_K9


def test_oracle_computes_few_kernels(monkeypatch) -> None:
    count = _count_kernels(monkeypatch, lambda: run_oracle(seed=0, runs=10))
    assert 0 < count <= MAX_KERNELS_ORACLE
