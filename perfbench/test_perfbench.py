"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from time import perf_counter

import pytest

from geodesic import (
    check_geodesic,
    chain_periods,
    component_count,
    expected_moduli_text,
    geodesic_doc,
    invariant_factors,
)
from tracer import SCALAR_HOT, Tracer
from workloads import GEODESIC_SIZES, check_pass, plan

HERE = os.path.dirname(os.path.abspath(__file__))


def _spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_self_time_excludes_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _spin(0.02))

    def outer_body():
        _spin(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert (o.count, i.count) == (1, 2)
    assert o.self_s == pytest.approx(o.total - i.total, abs=1e-9)
    assert i.self_s == pytest.approx(i.total, abs=1e-9)
    assert 0.01 <= o.self_s < 0.02
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]


def test_hot_wrappers_keep_no_spans_but_count_as_children():
    tracer = Tracer()
    hot = tracer.wrap("hot", lambda: _spin(0.01), hot=True)
    outer = tracer.wrap("outer", lambda: hot())
    outer()
    assert [s[0] for s in tracer.spans] == ["outer"]
    assert tracer.stats["outer"].self_s < 0.005


def test_probe_cost_is_charged_to_nobody():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None, probe=lambda *a: _spin(0.02))
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert tracer.stats["outer"].self_s < 0.005
    assert tracer.stats["inner"].self_s < 0.005


def _bindings():
    import folmod.cli  # noqa: F401

    out = {}
    for key, mod in sys.modules.items():
        if key == "folmod" or key.startswith("folmod."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(key, attr)] = value
    scalar = sys.modules["folmod.exactnum"].Scalar
    for attr in SCALAR_HOT:
        out[("Scalar", attr)] = vars(scalar)[attr]
    return out


def test_install_rebinds_everywhere_and_uninstall_restores():
    import folmod.abgroup
    import folmod.foliation
    import folmod.gg

    before = _bindings()
    kernel = folmod.abgroup.kernel
    tracer = Tracer()
    tracer.install()
    try:
        assert folmod.abgroup.kernel is not kernel
        assert folmod.gg.kernel is folmod.abgroup.kernel
        assert folmod.foliation.kernel is folmod.abgroup.kernel
        assert folmod.abgroup.kernel.__wrapped__ is kernel
        changed = [k for k, v in _bindings().items() if before[k] is not v]
        assert ("Scalar", "__init__") in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


_COUNTS = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import folmod.cli, layers, workloads
from tracer import Tracer
specs = [s for s in workloads.prepare("geodesic", 4, {tmp!r}) if s["k"] == 3]
t = Tracer()
t.install(layers.PROBES)
records = workloads.run_pass("geodesic", specs)
t.uninstall()
m = layers.layer_metrics(t, records)
print(json.dumps({{k: v[0] for k, v in m.items() if not k.endswith("self_s")}}))
"""


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    code = _COUNTS.format(here=HERE, src=os.path.join(os.path.dirname(HERE), "src"), tmp=str(tmp_path))
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120).stdout)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0]["exactnum.scalar_new.count"] > 0
    assert runs[0]["abgroup.check_hom.count"] > 0


@pytest.mark.parametrize("seed", range(12))
def test_geodesic_chain_mix(seed):
    for k in GEODESIC_SIZES:
        periods = chain_periods(k, random.Random(seed))
        assert len(periods) == k - 1
        assert sum(1 for m in periods if m) == (k - 1) // 4
        assert set(periods) <= {0, 2, 3, 4, 6}


@pytest.mark.parametrize("seed", range(6))
def test_generated_geodesics_validate(seed):
    for spec in plan("geodesic", seed):
        doc = geodesic_doc(spec["periods"])
        assert len(doc["components"]) == component_count(spec["k"])
        check_geodesic(doc)


def test_example5_is_a_geodesic():
    from folmod.examples import example_doc

    doc = geodesic_doc([0, 4, 6])
    ex5 = example_doc(5)
    assert len(doc["components"]) == len(ex5["components"])
    assert [a["component"] for a in doc["attachments"]] == [
        a["component"] for a in ex5["attachments"]
    ]
    assert expected_moduli_text([0, 4, 6]) == "C* (+) Z/2 (+) Z/12"


def test_invariant_factors_match_smith_normal_form():
    from folmod.exactnum import IntMatrix, smith_normal_form

    rng = random.Random(0)
    for _ in range(200):
        orders = [rng.randint(1, 40) for _ in range(rng.randint(0, 4))]
        diag = IntMatrix([[m if i == j else 0 for j in range(len(orders))] for i, m in enumerate(orders)])
        snf = [d for d in smith_normal_form(diag)[1].diagonal() if d != 1] if orders else []
        assert list(invariant_factors(orders)) == snf


def test_check_pass_flags_wrong_outputs():
    good = {"name": "ex5", "code": 0, "moduli": ["C* (+) Z/2 (+) Z/12"] * 2, "stderr": ""}
    good["sha256"] = "e82a24a619ce76aa41b15b43cc6c8cb03350ec6f4bcd80b15fe63b605b845b0d"
    others = [
        {"name": f"ex{n}", "code": -1, "moduli": [], "stderr": "", "sha256": ""}
        for n in (0, 1, 2, 3, 4, 6)
    ]
    bad = check_pass("examples", 0, [good] + others)
    assert "ex5" not in bad and len(bad) == 6
    wrong = dict(good, moduli=["C* (+) Z/4 (+) Z/6"] * 2)
    assert "ex5" in check_pass("examples", 0, [wrong])
    geo = plan("geodesic", 0)
    rec = {"name": "k3", "code": 0, "agree": True, "non_degenerate": [True, True], "moduli": ["(C*)^2"] * 2}
    assert "k3" not in check_pass("geodesic", 0, [rec])
    assert geo[0]["periods"] == [0, 0]
    assert "k3" in check_pass("geodesic", 0, [dict(rec, moduli=["C*"] * 2)])


def test_speed_scaling_leaves_out_sampling_time():
    from calibrate import REFERENCE_S, SpeedSampler

    sampler = SpeedSampler()
    sampler.samples = [(1.0, 2 * REFERENCE_S), (1.5, 4 * REFERENCE_S), (3.0, REFERENCE_S)]
    work = 1.1 - 6 * REFERENCE_S
    assert sampler.scaled(0.9, 2.0) == pytest.approx(work * (1 / 2 + 1 / 4) / 2)
    assert sampler.scaled(2.0, 2.5) == pytest.approx(0.5 * (1 / 2 + 1 / 4 + 1) / 3)
    with SpeedSampler() as live:
        _spin(0.35)
    assert len(live.samples) >= 2
