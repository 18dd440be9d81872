"""Per-layer metrics of a traced pass, named ``<module>.<what>.<measure>``.

The probes run after a wrapped call with the wrappers paused, so neither
their counts nor their cost leak into the layer numbers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from tracer import Tracer

SCALAR_ARITH = tuple(
    f"exactnum.Scalar.{m}" for m in ("__add__", "__neg__", "__sub__", "__mul__", "__truediv__", "scale")
)
SES = ("foliation.build_sym_graph", "foliation.build_exp_graph", "foliation.build_dis_graph")
PREDICATES = ("foliation.check_tc", "foliation.is_non_degenerate", "foliation.is_finite_type")
PIPELINES = ("foliation.compute_moduli_nondegenerate", "foliation.compute_moduli_finite_type")
SCALAR_KINDS = ("zero", "rational", "polynomial", "ratfunc")


def _scalar_kind(tracer: Tracer, args, result, error) -> None:
    if error is not None:
        return
    s = args[0]
    if s.is_zero():
        kind = "zero"
    elif s.is_rational():
        kind = "rational"
    elif s.is_polynomial():
        kind = "polynomial"
    else:
        kind = "ratfunc"
    tracer.count(f"exactnum.scalar_new.{kind}")


def _snf_cells(tracer: Tracer, args, result, error) -> None:
    a = args[0]
    tracer.maximum("exactnum.smith_normal_form.max_cells", a.nrows * a.ncols)


def _kernel_cells(tracer: Tracer, args, result, error) -> None:
    h = args[0]
    rows = h.dom.cont_rank + h.dom.disc_rank
    cols = h.cod.cont_rank + h.cod.disc_rank
    tracer.maximum("abgroup.kernel.max_cells", rows * cols)


def _distinct(name: str):
    def probe(tracer: Tracer, args, result, error) -> None:
        text = json.dumps(args[0].to_json(), sort_keys=True)
        tracer.see(name, hashlib.sha1(text.encode("utf-8")).digest())

    return probe


def _bound_exceeded(tracer: Tracer, args, result, error) -> None:
    if type(error).__name__ == "BoundExceeded":
        tracer.count("gg.brute_force_h1.bound_exceeded")


PROBES = {
    "exactnum.Scalar.__init__": _scalar_kind,
    "exactnum.smith_normal_form": _snf_cells,
    "abgroup.kernel": _kernel_cells,
    "abgroup.classify": _distinct("abgroup.classify"),
    "gg.cohomology": _distinct("gg.cohomology"),
    "gg.brute_force_h1": _bound_exceeded,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, records: List[dict]) -> Dict[str, Tuple[float, str]]:
    """``{metric: (value, unit)}`` for one traced pass over ``records``."""
    out: Dict[str, Tuple[float, str]] = {}

    def count_self(metric: str, *names: str) -> None:
        s = tracer.stat(*names)
        out[f"{metric}.count"] = (s.count, "count")
        out[f"{metric}.self_s"] = (s.self_s, "s")

    new = tracer.stat("exactnum.Scalar.__init__").count
    out["exactnum.scalar_new.count"] = (new, "count")
    for kind in SCALAR_KINDS:
        kinds = tracer.counters.get(f"exactnum.scalar_new.{kind}", 0)
        out[f"exactnum.scalar_new.{kind}_ratio"] = (_ratio(kinds, new), "ratio")
    count_self("exactnum.scalar_arith", *SCALAR_ARITH)
    count_self("exactnum.monomial_expansion", "exactnum.monomial_expansion")
    count_self("exactnum.smith_normal_form", "exactnum.smith_normal_form")
    out["exactnum.smith_normal_form.max_cells"] = (
        tracer.counters.get("exactnum.smith_normal_form.max_cells", 0),
        "cells",
    )
    count_self("abgroup.kernel", "abgroup.kernel")
    out["abgroup.kernel.max_cells"] = (tracer.counters.get("abgroup.kernel.max_cells", 0), "cells")
    count_self("abgroup.cokernel", "abgroup.cokernel")
    for name in ("abgroup.classify", "gg.cohomology"):
        count_self(name, name)
        seen = len(tracer.distinct.get(name, ()))
        out[f"{name}.distinct_ratio"] = (_ratio(seen, tracer.stat(name).count), "ratio")
    for name in ("build_dual_graph", "build_cut_graph", "color"):
        out[f"foliation.{name}.count"] = (tracer.stat(f"foliation.{name}").count, "count")
    count_self("foliation.ses", *SES)
    for name in (
        "abgroup.check_hom",
        "abgroup.is_exact_at",
        "gg.mayer_vietoris",
        "gg.long_exact_sequence",
        "abgroup.compose",
        "gg.prune_all",
        "gg.brute_force_h1",
    ):
        count_self(name, name)
    out["foliation.predicates.self_s"] = (tracer.stat(*PREDICATES).self_s, "s")
    out["foliation.validate.self_s"] = (tracer.stat("foliation.validate").self_s, "s")
    out["foliation.pipeline.self_s"] = (tracer.stat(*PIPELINES).self_s, "s")
    out["cli.run_moduli.self_s"] = (tracer.stat("cli.run_moduli").self_s, "s")
    out["gg.brute_force_h1.bound_exceeded.count"] = (
        tracer.counters.get("gg.brute_force_h1.bound_exceeded", 0),
        "count",
    )
    suites = [s for r in records for s in r.get("suites", ())]
    runs = sum(s[1] for s in suites)
    skipped = sum(s[3] for s in suites)
    out["oracle.skipped.count"] = (skipped, "count")
    out["oracle.completed_ratio"] = (_ratio(runs, runs + skipped), "ratio")
    return out
