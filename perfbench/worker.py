"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/worker.py <workload> <seed> <workdir> [--trace | --setup-only]``

The runner (``run.py``) starts one worker per pass, so no cache inside
``folmod`` survives from one pass to the next, just as between two runs
of the ``folmod`` command.  ``setup_done`` is read on the same monotonic
clock as the runner's, which times set-up from just before it started this
interpreter; ``speed`` scales that time to the reference speed of
:mod:`calibrate`.  Pass and input times are scaled the same way, by the
speed sampled while they ran.  With ``--trace`` the pass runs under
:mod:`tracer` and its spans are written into ``workdir``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    mode = argv[3] if len(argv) > 3 else ""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import folmod.cli  # noqa: F401  (imports every traced module)

    if not os.path.abspath(folmod.cli.__file__).startswith(src + os.sep):
        print(f"folmod was imported from outside {src}", file=sys.stderr)
        return 2
    import workloads
    from calibrate import REFERENCE_S, SpeedSampler, reference_seconds

    specs = workloads.prepare(workload, seed, workdir)
    setup_done = perf_counter()
    out = {"setup_done": setup_done, "speed": REFERENCE_S / reference_seconds()}
    if mode != "--setup-only":
        tracer = None
        if mode == "--trace":
            import layers
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(layers.PROBES)
        start = perf_counter()
        try:
            with SpeedSampler(tracer.exclude if tracer else None) as sampler:
                records = workloads.run_pass(workload, specs)
        finally:
            end = perf_counter()
            if tracer is not None:
                tracer.uninstall()
        for rec in records:
            rec["seconds"] = sampler.scaled(rec.pop("start"), rec.pop("end"))
        out["raw_wall_s"] = end - start
        out["wall_s"] = sampler.scaled(start, end)
        out["records"] = records
        if tracer is not None:
            scale = out["wall_s"] / sampler.unscaled(start, end)
            out["layers"] = {
                name: (value * scale if unit == "s" else value, unit)
                for name, (value, unit) in layers.layer_metrics(tracer, records).items()
            }
            tracer.write_spans(os.path.join(workdir, f"spans-{workload}-{seed}.json"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
