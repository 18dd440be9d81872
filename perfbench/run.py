"""The folmod benchmark runner.

Usage::

    python3 perfbench/run.py --workload {examples,geodesic,oracle} \
        --seed N --seconds S --trace {0,1}

Run it from the root of the repository.  It runs passes of the workload,
one worker process at a time (see ``worker.py``), for about ``S`` seconds,
checks every output, and prints one JSON line last: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a traced
pass, and runs one untraced pass first to measure the tracing overhead.
``README.md`` in this directory describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from geodesic import component_count  # noqa: E402
from workloads import GEODESIC_SIZES, WORKLOADS, check_pass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

MIN_PASSES = 3
"""Untraced passes run even when they take longer than ``--seconds``."""

MIN_SETUPS = 9
"""Set-up samples behind ``setup_s``; set-up-only workers make up the rest."""

DEADLINE_S = 160.0
"""No pass starts that would end after this many seconds into the run."""

WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    """A worker failed to produce a pass; the run has no result."""


def _worker(workload: str, seed: int, mode: str = "") -> dict:
    """Run one worker to completion; its JSON plus its set-up seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), WORKDIR]
    if mode:
        cmd.append(mode)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=os.path.join(WORKDIR, "pycache"))
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["setup_done"] - started) * out["speed"]
    out["elapsed_s"] = perf_counter() - started
    return out


def _slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _git_sha() -> str:
    """The commit of the checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_sha": _git_sha(),
    }


class Run:
    """The passes of one benchmark run and the verdicts on their outputs."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = perf_counter()
        self.attempted = 0
        self.raw_walls: List[float] = []
        self.failures: List[str] = []
        self.fingerprints: Optional[List[Tuple[str, str]]] = None

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def room_for(self, passes: List[dict], minimum: int = 1) -> bool:
        """Whether to start another pass.

        It starts when fewer than ``minimum`` passes ran, or when a pass as
        long as the median so far still ends within ``--seconds``; never
        when it would end after ``DEADLINE_S``.
        """
        if not passes:
            return True
        end = self.elapsed() + median(p["elapsed_s"] for p in passes)
        return end <= DEADLINE_S and (len(passes) < minimum or end <= self.seconds)

    def one_pass(self, mode: str = "") -> dict:
        out = _worker(self.workload, self.seed, mode)
        self.raw_walls.append(out["raw_wall_s"])
        records = out["records"]
        self.attempted += len(records)
        bad = check_pass(self.workload, self.seed, records)
        prints = [(r["name"], r["sha256"]) for r in records]
        if self.fingerprints is None:
            self.fingerprints = prints
        elif prints != self.fingerprints:
            bad.setdefault("*", "output fingerprints differ from the first pass")
        self.failures.extend(f"{name}: {why}" for name, why in bad.items())
        return out


def _end_to_end(run: Run) -> Dict[str, Tuple[float, str]]:
    passes: List[dict] = []
    while run.room_for(passes, MIN_PASSES):
        passes.append(run.one_pass())
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(_worker(run.workload, run.seed, "--setup-only")["setup_s"])
    if run.workload == "geodesic":
        per_size = [
            median(p["records"][i]["seconds"] for p in passes)
            for i in range(len(GEODESIC_SIZES))
        ]
        exponent = _slope([component_count(k) for k in GEODESIC_SIZES], per_size)
    else:
        exponent = 1.0  # no size ladder; see README.md
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "scaling_exponent": (exponent, "slope"),
    }


def _per_layer(run: Run) -> Dict[str, Tuple[float, str]]:
    untraced = run.one_pass()
    traced = [run.one_pass("--trace")]
    while run.room_for(traced):
        traced.append(run.one_pass("--trace"))
    metrics = {
        name: (median(p["layers"][name][0] for p in traced), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    overhead = median(p["wall_s"] for p in traced) / untraced["wall_s"]
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "folmod", "__init__.py")):
        print(f"no folmod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    context = _context(args)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = _per_layer(run) if args.trace else _end_to_end(run)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    context["loadavg_end"] = os.getloadavg()
    context["elapsed_s"] = run.elapsed()
    context["unscaled_pass_s"] = run.raw_walls
    for failure in run.failures:
        print(f"incorrect output: {failure}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
