"""isocal benchmark: one closed-loop client, in-process, seeded inputs.

    python3 perfbench/run.py --workload verify_plane --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: verify_plane, verify_curved, mayer_checks, field_checks (see
perfbench/README.md).  With --trace 0 the run sets up three to nine times
(import, seeded inputs, curve files, one warm-up operation), then repeats
the workload's round of operations until --seconds have passed, checks every
output and prints the end-to-end metrics.  With --trace 1 it measures the
same number of rounds untraced and then traced, and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.  Full
results, the environment stamp and the span dump go to perfbench/out/.

Exit codes: 0 correct, 1 an output failed the gate, 2 the benchmark cannot
run here (for example: no isocal sources next to perfbench/).
"""

from __future__ import annotations

import argparse
import os
import sys

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
os.environ.pop("ISOCAL_CONFIG", None)

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

OUT = harness.ROOT / "perfbench" / "out"
# set-up is repeated at least SETUP_MIN_REPEATS times, and more while the
# repeats took less than SETUP_BUDGET_S in total.  setup_wall_s is the median
# wall time; setup_s is the median of each repeat's time scaled to a machine
# on which the reference task takes REF_NOMINAL_S (its median on the 2-vCPU
# VM the benchmark was built on), using reference samples taken just before
# and after that repeat, so that machine drift does not read as a change.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 9, 4.0
REF_NOMINAL_S = 0.015

END_TO_END = ("reports_per_ref", "report_p50_ref", "setup_s", "peak_rss_mb")


def environment() -> dict:
    """Stamp for every output: versions, CPUs, BLAS, cache sizes, code id."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "l2_bytes": _cache_bytes(191),
        "l3_bytes": _cache_bytes(194),
        "git_sha": _git_sha(),
        "src_sha256": _tree_hash(harness.SRC),
    }


def _cache_bytes(name: int):
    # glibc's sysconf(_SC_LEVEL2_CACHE_SIZE = 191 / _SC_LEVEL3_CACHE_SIZE =
    # 194) answers from CPUID; None where unavailable
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _git_sha():
    """HEAD commit of the checkout, read from .git; None outside git."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_hash(root) -> str:
    """sha256 over the relative paths and bytes of the .py files under root."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_untraced(workload, seed, seconds, workdir):
    setups, scaled = [], []
    warm_records = []
    harness.reference_task()  # first touch of its arrays, not a sample
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS):
        _, ref_before = harness.reference_task()
        t0 = time.perf_counter()
        state, warm = harness.setup(workload, seed, workdir)
        setups.append(time.perf_counter() - t0)
        _, ref_after = harness.reference_task()
        scaled.append(setups[-1] * 2.0 * REF_NOMINAL_S
                      / (ref_before + ref_after))
        warm_records.append(warm)
    phase = harness.measure(state, seconds)
    metrics = harness.end_to_end(phase)
    metrics["setup_wall_s"] = (statistics.median(setups), "s")
    metrics["setup_s"] = (statistics.median(scaled), "s")
    return phase, warm_records, metrics, {"setup_s_samples": setups}


def run_traced(workload, seed, seconds, workdir):
    state, warm = harness.setup(workload, seed, workdir)
    near = {op.name: harness.near_pairs(state.mods, op)
            for op, _ in state.ops
            if op.kind == "verify" and op.curve["space"] == "euclidean"}
    props = {op.name: {"vertices": len(op.curve["vertices"]),
                       "nodes": len(op.curve["vertices"])
                       * harness.refinement(state.mods, op),
                       "near_pairs": near.get(op.name)}
             for op, _ in state.ops if op.kind == "verify"}
    plain = harness.measure(state, seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install(state.mods)
    try:
        traced = harness.measure(state, 0.0, rounds=plain.rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = (len(traced.records) / traced.elapsed) / \
        (len(plain.records) / plain.elapsed)
    near_total = sum(near.get(r.name, 0) for r in traced.records)
    metrics = spans.layer_metrics(tracer, traced.rounds, near_total, overhead)
    phase = harness.Phase(plain.records + traced.records,
                          plain.elapsed + traced.elapsed,
                          plain.rounds + traced.rounds,
                          plain.ref_log + traced.ref_log)
    return phase, [warm], metrics, {"inputs": props, "tracer": tracer}


def run_one(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            phase, warm, metrics, extra = run_traced(
                args.workload, args.seed, args.seconds, workdir)
        else:
            phase, warm, metrics, extra = run_untraced(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    errors = harness.gate_errors(warm + phase.records)
    correct = not errors
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    tracer = extra.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{tag}.jsonl", header)
    result = dict(header, correct=correct, gate_errors=errors,
                  rounds=phase.rounds, elapsed_s=phase.elapsed,
                  metrics={k: v and {"value": v[0], "unit": v[1]}
                           for k, v in metrics.items()},
                  operations=[r.__dict__ for r in phase.records],
                  reference_samples=phase.ref_log, **extra)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload}: {len(phase.records)} operations in "
          f"{phase.rounds} rounds, {phase.elapsed:.2f} s measured")
    if args.workload in inputs.BASELINE_FAILURES:
        print(f"# baseline failures (ungated): "
              f"{inputs.BASELINE_FAILURES[args.workload]}")
    for name, v in metrics.items():
        if v is None:
            print(f"{args.workload:14s} {name:28s} n/a (fewer than "
                  f"{harness.P90_MIN_SAMPLES} operations)")
        else:
            print(f"{args.workload:14s} {name:28s} {v[0]:.6g} {v[1]}")
    for e in errors:
        print(f"# GATE: {e}")
    if args.trace:
        keys = spans.LAYER_METRICS
    else:
        keys = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": len(phase.records),
        "failed": sum(1 for r in phase.records if r.gate_errors),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in keys},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return 2
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update(
            {f"{w}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(inputs.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (harness.SRC / "isocal" / "__init__.py").is_file():
        print(f"perfbench: no isocal sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except harness.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
