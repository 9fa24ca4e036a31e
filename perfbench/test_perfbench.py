"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import harness
import inputs
import spans

# the layer each workload exists to exercise
MAIN_LAYER = {
    "verify_plane": "quadrature.node_pairs",
    "verify_curved": "spaces.node_pairs",
    "mayer_checks": "mayer.slope_calls",
    "field_checks": "quadrature.winding_calls",
}


def _setup(workload, tmp_path):
    state, warm = harness.setup(workload, 3, tmp_path, tiny=True)
    assert warm.gate_errors == []
    return state


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_each_workload_runs_tiny(workload, tmp_path):
    state = _setup(workload, tmp_path)
    phase = harness.measure(state, 0.0, rounds=1)
    assert harness.gate_errors(phase.records) == []
    m = harness.end_to_end(phase)
    for name in ("reports_per_s", "report_s_p50", "reports_per_ref",
                 "report_p50_ref", "peak_rss_mb"):
        assert m[name][0] > 0

    tracer = spans.Tracer()
    tracer.install(state.mods)
    try:
        traced = harness.measure(state, 0.0, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert harness.gate_errors(traced.records) == []
    layers = spans.layer_metrics(tracer, traced.rounds, 0, 1.0)
    assert set(layers) == set(spans.LAYER_METRICS)
    assert layers[MAIN_LAYER[workload]][0] > 0
    roots = [s for s in tracer.spans if s[1] == 0]
    assert len(roots) == len(traced.records)


def test_known_failure_counts_without_breaking_the_gate(tmp_path):
    # the octant at default refinement is a measured baseline failure
    state = _setup("verify_curved", tmp_path)
    phase = harness.measure(state, 0.0, rounds=1)
    octant = [r for r in phase.records if r.name == "octant"]
    assert octant and octant[0].failed and not octant[0].gate_errors
    assert harness.end_to_end(phase)["fail_ratio"][0] > 0


def test_pair_sum_one_percent_off_raises_fail_ratio(tmp_path):
    state = _setup("verify_plane", tmp_path)
    base = harness.end_to_end(harness.measure(state, 0.0, rounds=1))
    q = state.mods.quadrature
    original = q.double_boundary_integral
    q.double_boundary_integral = lambda *a, **k: 1.01 * original(*a, **k)
    try:
        phase = harness.measure(state, 0.0, rounds=1)
    finally:
        q.double_boundary_integral = original
    assert harness.end_to_end(phase)["fail_ratio"][0] > base["fail_ratio"][0]
    assert any("gated input failed" in e
               for e in harness.gate_errors(phase.records))


def test_alternating_last_bit_is_caught(tmp_path):
    state = _setup("verify_plane", tmp_path)
    q = state.mods.quadrature
    original = q.double_boundary_integral
    calls = itertools.count()

    def flip(*a, **k):
        x = original(*a, **k)
        return math.nextafter(x, math.inf) if next(calls) % 2 else x

    q.double_boundary_integral = flip
    try:
        phase = harness.measure(state, 0.0, rounds=2)
    finally:
        q.double_boundary_integral = original
    assert any("not bit-identical" in e
               for e in harness.gate_errors(phase.records))


def test_self_times_partition_the_operation():
    tracer = spans.Tracer()
    ns = SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        ns.inner()
        time.sleep(0.005)

    ns.inner = tracer._wrap(inner, "inner")
    ns.outer = tracer._wrap(outer, "outer")
    tracer.begin_op(0, "op.lib")
    ns.outer()
    tracer.end_op()
    st = tracer.self_times()
    assert st["inner"][1] == st["outer"][1] == 1
    assert st["outer"][0] < st["inner"][0]
    root = next(t1 - t0 for _, parent, _, _, t0, t1 in tracer.spans
                if parent == 0)
    assert sum(v[0] for v in st.values()) == pytest.approx(root, abs=1e-9)


def test_fails_without_isocal_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_plane",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
