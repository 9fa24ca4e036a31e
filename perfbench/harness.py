"""Set-up, closed-loop measurement and the correctness gate.

One client, one process: each operation starts only after the previous one
returned.  Reports run in-process through ``isocal.cli.main(argv)`` with
``--out`` pointed at a file in the run's scratch directory; library calls go
through the public functions of ``isocal.quadrature``.  Every call is made
through a module attribute looked up at call time, so the tracer in
``spans.py`` can wrap it.

The gate.  An operation *fails* (fail_ratio) when its exit code is not 0, its
report says ``"passed": false``, an exception escapes, or its results are not
bit-identical to the first run of the same input in this process.  The gate
additionally requires, for every operation, that no exception escapes, that
the exit code is 0 or 1 and agrees with ``passed``, that results are
bit-identical, and that perimeter, area, winding number or Stokes agreement
match the benchmark's own independent values.  Gated inputs must also pass;
ungated inputs (inputs.BASELINE_FAILURES) may fail.  A run is correct when
no operation breaks the gate.
"""

from __future__ import annotations

import bisect
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "curves", "quadrature", "spaces", "mayer", "checks", "io",
           "biform")

# relative agreement required between the program's perimeter / area and
# the benchmark's independent formulas
GEOMETRY_RTOL = 1e-9
# |winding_integral - 4 pi w| bound (the library's own tolerance is 1e-9)
WINDING_ATOL = 1e-6
# |lhs - rhs| / perimeter bound for stokes_check at refinement
# STOKES_REFINEMENT: five times the largest deviation (4.0e-3) measured over
# 120 seeded star inputs
STOKES_RTOL = 2e-2
STOKES_REFINEMENT = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example: no isocal sources)."""


def import_isocal() -> SimpleNamespace:
    """Import isocal afresh from the checkout's src/ and return its modules."""
    if not (SRC / "isocal" / "__init__.py").is_file():
        raise BenchError(f"no isocal sources under {SRC}")
    for name in [m for m in sys.modules if m == "isocal" or m.startswith("isocal.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("isocal")
    if Path(pkg.__file__).resolve().parent != SRC / "isocal":
        raise BenchError(f"isocal imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"isocal.{m}")
                              for m in MODULES})


@dataclass
class Record:
    """Outcome of one operation."""

    name: str
    start: float                 # perf_counter at the call
    seconds: float
    failed: bool                 # fail_ratio sense
    gate_errors: list
    tol_ratio: float             # largest ratio to tolerance of its checks
    gated: bool


@dataclass
class State:
    mods: SimpleNamespace
    out_path: Path
    ops: list                    # (Op, bound callable) in round order
    reference: dict = field(default_factory=dict)   # op name -> results key


def setup(workload: str, seed: int, workdir: Path, tiny: bool = False):
    """Import isocal, generate and write the inputs, run one warm-up op.

    Returns (state, warm-up record)."""
    mods = import_isocal()
    spec = inputs.generate(workload, seed, tiny)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for op in spec.round:
        if op.kind == "verify":
            path = workdir / f"{op.name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op.curve, fh)
            ops.append((op, _cli_call(mods, op.argv + [str(path)])))
        elif op.kind in ("mayer", "calibration"):
            ops.append((op, _cli_call(mods, op.argv)))
        else:
            ops.append((op, _library_call(mods, op)))
    state = State(mods, workdir / "report.json", ops)
    warm = execute(state, spec.warmup)
    return state, warm


def _cli_call(mods, argv):
    def call(out_path):
        return mods.cli.main(argv + ["--out", str(out_path)])
    return call


def _library_call(mods, op):
    curve = mods.curves.ClosedCurve(op.vertices)
    point = op.point
    if op.kind == "winding":
        def call(_):
            return (mods.quadrature.winding_integral(curve, point),)
    else:
        def call(_):
            return mods.quadrature.stokes_check(
                curve, point, refinement=STOKES_REFINEMENT)
    return call


def execute(state: State, index: int, tracer=None) -> Record:
    op, call = state.ops[index]
    errors = []
    if op.argv:
        try:
            state.out_path.unlink()
        except FileNotFoundError:
            pass
    if tracer is not None:
        tracer.begin_op(index, "op.cli" if op.argv else "op.lib")
    t0 = time.perf_counter()
    try:
        value = call(state.out_path)
    except Exception as e:  # the gate reports any escape, then goes on
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        return Record(op.name, t0, t1 - t0, True,
                      [f"{op.name}: exception {type(e).__name__}: {e}"],
                      math.inf, op.gated)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
    if op.argv:
        failed, ratio, key = _check_report(op, value, state.out_path, errors)
    else:
        failed, ratio, key = _check_library(op, value, errors)
    if failed and op.gated:
        errors.append(f"{op.name}: gated input failed its checks "
                      f"(largest ratio to tolerance {ratio:.3g})")
    first = state.reference.setdefault(op.name, key)
    if key != first:
        failed = True
        errors.append(f"{op.name}: results not bit-identical to the first run")
    return Record(op.name, t0, t1 - t0, failed, errors, ratio, op.gated)


def tol_ratio(check: dict, kind: str) -> float:
    v, tol = check["value"], check["tolerance"]
    return (max(0.0, -v) if kind == "min" else abs(v)) / tol


def _check_report(op, rc, out_path, errors):
    if rc not in (0, 1):
        errors.append(f"{op.name}: exit code {rc}")
        return True, math.inf, None
    with open(out_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report["passed"] != (rc == 0):
        errors.append(f"{op.name}: exit code {rc} disagrees with passed="
                      f"{report['passed']}")
    ratios = []
    for c in report["checks"]:
        kind = "min" if c["name"] in ("deficit", "calibration_gap") or \
            c["name"].endswith("_min") else "abs"
        r = tol_ratio(c, kind)
        ratios.append(r)
        if (r <= 1.0) != c["passed"]:
            errors.append(f"{op.name}: check {c['name']} verdict disagrees "
                          f"with its value and tolerance")
    res = report["results"]
    for name, want in op.expect.items():
        got = res[name]
        if not abs(got - want) <= GEOMETRY_RTOL * abs(want):
            errors.append(f"{op.name}: {name} {got!r} != independent {want!r}")
    if not all(math.isfinite(x) for x in res.values()):
        errors.append(f"{op.name}: non-finite result")
    return rc != 0, max(ratios), json.dumps(res, sort_keys=True)


def _check_library(op, value, errors):
    value = tuple(float(x) for x in value)
    if op.kind == "winding":
        dev = abs(value[0] - 4.0 * math.pi * op.expect["winding"])
        ratio = dev / WINDING_ATOL
    else:
        lhs, rhs = value
        ratio = abs(lhs - rhs) / (STOKES_RTOL * op.expect["perimeter"])
        if lhs > op.expect["perimeter"] + 1e-9:
            errors.append(f"{op.name}: boundary integral exceeds the perimeter")
    return not ratio <= 1.0, ratio, tuple(x.hex() for x in value)


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Phase:
    records: list
    elapsed: float       # measured seconds, reference samples excluded
    rounds: int
    ref_log: list        # (start, duration) of each reference task sample


# The reference task: fixed work that does not touch isocal, an interpreter
# loop and numpy passes over 4 MB arrays, like the operations' own mix.  It
# runs before the first operation and then after any operation that ends
# REF_EVERY_S or more after the previous sample.  Dividing each operation's
# time by the samples taken around it cancels the speed of the (shared)
# machine at that time, which drifts by tens of percent over 5 to 30 s.
REF_EVERY_S = 0.5
_REF_A = np.linspace(0.0, 1.0, 500_000)
_REF_B = np.empty_like(_REF_A)


def reference_task() -> tuple:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    for _ in range(10):
        np.multiply(_REF_A, _REF_A, out=_REF_B)
        np.add(_REF_B, _REF_A, out=_REF_B)
    return t0, time.perf_counter() - t0


def measure(state: State, seconds: float, rounds: int | None = None,
            tracer=None) -> Phase:
    """Run whole rounds until `seconds` have passed (or exactly `rounds`),
    sampling the reference task between operations."""
    records, ref_log = [], [reference_task()]
    n = 0
    t0 = last_ref = time.perf_counter()
    while True:
        for i in range(len(state.ops)):
            records.append(execute(state, i, tracer))
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                ref_log.append(reference_task())
                last_ref = time.perf_counter()
        n += 1
        if rounds is not None:
            if n >= rounds:
                break
        elif _measured(t0, ref_log) >= seconds:
            break
    return Phase(records, _measured(t0, ref_log), n, ref_log)


def _measured(t0, ref_log) -> float:
    return time.perf_counter() - t0 - sum(d for _, d in ref_log[1:])


REF_WINDOW_S = 5.0


def ref_units(phase: Phase) -> list:
    """Each operation's time divided by the median of the reference samples
    that started within REF_WINDOW_S of it (at least the sample just before
    and the one just after): long enough to average the samples' own
    jitter, short enough to follow the machine's drift."""
    starts = [t for t, _ in phase.ref_log]
    out = []
    for r in phase.records:
        lo = bisect.bisect_left(starts, r.start - REF_WINDOW_S)
        hi = bisect.bisect_right(starts, r.start + r.seconds + REF_WINDOW_S)
        k = bisect.bisect_right(starts, r.start)
        lo, hi = min(lo, max(k - 1, 0)), max(hi, k + 1)
        out.append(r.seconds / statistics.median(
            d for _, d in phase.ref_log[lo:hi]))
    return out


P90_MIN_SAMPLES = 100


def end_to_end(phase: Phase) -> dict:
    """End-to-end metrics of one untraced phase, as (value, unit) pairs."""
    recs = phase.records
    times = [r.seconds for r in recs]
    gated = [r.tol_ratio for r in recs if r.gated]
    units = ref_units(phase)
    return {
        "reports_per_s": (len(recs) / phase.elapsed, "1/s"),
        "report_s_p50": (statistics.median(times), "s"),
        "report_s_p90": ((statistics.quantiles(times, n=10)[8], "s")
                         if len(times) >= P90_MIN_SAMPLES else None),
        "ref_s": (statistics.median(d for _, d in phase.ref_log), "s"),
        "reports_per_ref": (len(recs) / sum(units), "1/ref"),
        "report_p50_ref": (statistics.median(units), "ref"),
        "fail_ratio": (sum(r.failed for r in recs) / len(recs), "ratio"),
        "tol_ratio_max": (max(r.tol_ratio for r in recs), "ratio"),
        "tol_ratio_max_gated": (max(gated), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate_errors(records) -> list:
    return [e for r in records for e in r.gate_errors]


def refinement(mods, op) -> int:
    """The refinement `isocal verify` uses for a verify input."""
    if op.refinement is not None:
        return op.refinement
    if op.curve["space"] != "euclidean":
        return 1
    return mods.quadrature.auto_refinement(
        mods.curves.ClosedCurve(op.curve["vertices"]))


def near_pairs(mods, op) -> int:
    """Ordered cross-edge node pairs closer than max sub-edge / 4: the pairs
    double_boundary_integral re-integrates on a refined subgrid (its
    docstring rule), counted from boundary_node_arrays."""
    curve = mods.curves.ClosedCurve(op.curve["vertices"])
    P, _, W, E, _, _ = mods.curves.boundary_node_arrays(
        curve, refinement(mods, op))
    delta2 = (float(W.max()) / 4.0) ** 2
    total = 0
    for i0 in range(0, len(P), 256):
        d = P[i0:i0 + 256, None, :] - P[None, :, :]
        close = (d * d).sum(axis=2) < delta2
        close &= E[i0:i0 + 256, None] != E[None, :]
        total += int(close.sum())
    return total
