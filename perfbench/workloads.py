"""The three workloads: their inputs, one pass over them, and their checks.

``prepare`` and ``run_pass`` import ``folmod`` and run in the worker
process.  ``check_pass`` runs in the runner process and judges a pass by
values fixed here or derived from the seed by this package alone, never by
asking ``folmod``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from time import perf_counter
from typing import Dict, List

from geodesic import check_geodesic, chain_periods, expected_moduli_text, geodesic_doc

WORKLOADS = ("examples", "geodesic", "oracle")

GEODESIC_SIZES = (3, 5, 9)

EXAMPLES_EXPECTED = {
    # example: (exit code, moduli text of each pipeline, sha256 of JSON stdout)
    0: (0, ("0",), "0746b23dba2d82d78bd3acb10bf47a6c05ce3a5aead4d34f63373ad6f31e354f"),
    1: (
        0,
        ("C/(Z + (2*alpha_t)Z) (+) C/(Z + (2*beta_t)Z)",) * 2,
        "04c2195a5756fafd9fb072befb68f9796187704de8ae1efc771ed896afade2d7",
    ),
    2: (
        0,
        ("C/(Z + (2*alpha_t)Z + (2*beta_t)Z)",),
        "26b2bce3449da0467a3c31b34ce5b8999d73729ba784024dfac57d83b311bebc",
    ),
    3: (3, (), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    4: (
        0,
        ("cremer_1/<h> (+) cremer_2/<h>",) * 2,
        "096b20e81bd21d6a4a8c44a267ec0eb82c6fa630eeb3ef1cddf42974acb2e3b0",
    ),
    5: (
        0,
        ("C* (+) Z/2 (+) Z/12",) * 2,
        "e82a24a619ce76aa41b15b43cc6c8cb03350ec6f4bcd80b15fe63b605b845b0d",
    ),
    6: (0, ("0", "0"), "61eb403f7297613daf5a1d02643c818c69dd375f438c99ca4f33bde5b03aa2b1"),
}

EXAMPLE3_STDERR = "NotFiniteType: cut component containing 0: red part disconnected\n"

ORACLE_QUOTAS = {
    "abelian_agreement": 200,
    "prune_invariance": 100,
    "mayer_vietoris_exactness": 100,
    "les_exactness": 100,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan(workload: str, seed: int) -> List[dict]:
    """The inputs of one pass, derived from ``seed`` alone, in run order."""
    if workload == "examples":
        order = sorted(EXAMPLES_EXPECTED)
        random.Random(f"examples-{seed}").shuffle(order)
        return [{"name": f"ex{n}", "example": n} for n in order]
    if workload == "geodesic":
        return [
            {
                "name": f"k{k}",
                "k": k,
                "periods": chain_periods(k, random.Random(f"geodesic-{seed}-{k}")),
            }
            for k in GEODESIC_SIZES
        ]
    if workload == "oracle":
        return [{"name": "oracle", "seed": seed}]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, workdir: str) -> List[dict]:
    """Generate and write the pass inputs; returns the plan with file paths."""
    from folmod.examples import example_doc

    specs = plan(workload, seed)
    for spec in specs:
        if workload == "examples":
            doc = example_doc(spec["example"])
        elif workload == "geodesic":
            doc = geodesic_doc(spec["periods"])
            check_geodesic(doc)
        else:
            doc = {"seed": spec["seed"]}
        spec["path"] = os.path.join(workdir, f"{workload}-{seed}-{spec['name']}.json")
        with open(spec["path"], "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True, indent=2)
    return specs


def _moduli_call(path: str) -> dict:
    from folmod.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["moduli", path, "--format", "json"])
    stdout = out.getvalue()
    record = {"code": code, "sha256": _sha(stdout), "stderr": err.getvalue(), "moduli": []}
    if code == 0:
        payload = json.loads(stdout)
        record["agree"] = payload["agree"]
        record["non_degenerate"] = [p["non_degenerate"] for p in payload["pipelines"]]
        record["moduli"] = [p["moduli"]["text"] for p in payload["pipelines"]]
    return record


def _oracle_call(path: str) -> dict:
    from folmod.oracle import run_oracle

    with open(path, encoding="utf-8") as handle:
        seed = json.load(handle)["seed"]
    report = run_oracle(seed=seed)
    return {
        "ok": report.ok,
        "sha256": _sha(report.text()),
        "suites": [[s.name, s.runs, s.passed, s.skipped] for s in report.suites],
    }


def run_pass(workload: str, specs: List[dict]) -> List[dict]:
    """Run every input once; one record per input, with its start and end."""
    call = _oracle_call if workload == "oracle" else _moduli_call
    records = []
    for spec in specs:
        start = perf_counter()
        record = call(spec["path"])
        record["end"] = perf_counter()
        record["start"] = start
        record["name"] = spec["name"]
        records.append(record)
    return records


def check_pass(workload: str, seed: int, records: List[dict]) -> Dict[str, str]:
    """``{input name: reason}`` for every record that is not as expected."""
    bad: Dict[str, str] = {}
    specs = {spec["name"]: spec for spec in plan(workload, seed)}
    if sorted(specs) != sorted(r["name"] for r in records):
        bad["*"] = "pass did not run the planned inputs"
    for rec in records:
        spec = specs.get(rec["name"])
        if spec is None:
            continue
        if workload == "examples":
            code, moduli, sha = EXAMPLES_EXPECTED[spec["example"]]
            want_err = EXAMPLE3_STDERR if spec["example"] == 3 else ""
            got = (rec["code"], tuple(rec["moduli"]), rec["sha256"], rec["stderr"])
            if got != (code, moduli, sha, want_err):
                bad[rec["name"]] = f"got {got!r}"
        elif workload == "geodesic":
            want = expected_moduli_text(spec["periods"])
            ok = (
                rec["code"] == 0
                and rec.get("agree") is True
                and rec.get("non_degenerate") == [True, True]
                and rec["moduli"] == [want, want]
            )
            if not ok:
                bad[rec["name"]] = f"expected {want!r}, got {rec!r}"
        else:
            quotas = [[name, n, n] for name, n in ORACLE_QUOTAS.items()]
            got = [s[:3] for s in rec["suites"]]
            if not rec["ok"] or got != quotas:
                bad[rec["name"]] = f"report not ok or quotas short: {rec['suites']!r}"
    return bad
