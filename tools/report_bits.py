"""Write the comparison reports of one source tree, for a byte-identity check,
or compare two such sets of reports value by value.

    python3 tools/report_bits.py SRC OUT
    python3 tools/report_bits.py --compare A B

SRC is the directory that holds the ``isocal`` package of the tree under
test (for example ``src`` of a checkout).  The script runs 52 reports in
process through ``isocal.cli.main`` and writes each to ``OUT/<name>.json`` as
``{"rc": exit code, "rep": report}``, without the fields that differ from run
to run or from tree to tree: ``wall_time_s``, ``argv`` and ``input.path``.
At each of the seeds 1 and 7 the reports are

- ``verify`` of every input of the ``verify_plane`` and ``verify_curved``
  workloads of ``perfbench/inputs.py`` (generated at that seed, read only);
- ``calibration --space r2`` and ``--space r3`` with ``--seed`` at that seed,
  and ``--space r3`` at ``--samples`` 2975, 2976 and 2977 and at 3968 and
  3969: on both sides of the first block edge of its point pairs, whose
  blocks hold 2976 planar and 3968 three-space samples at the sweep
  budget of 1 MiB;
- ``mayer`` of the ``free``, ``oscillator`` and ``cosh`` problems, likewise.

Beside them it writes 190 library results at those seeds, one file each,
every value as ``float.hex``:

- of every operation of the ``field_checks`` workload (62 files),
  ``{"winding_integral": x}`` of a winding operation and
  ``{"stokes_check": [lhs, rhs]}`` at ``perfbench/harness.py``'s
  ``STOKES_REFINEMENT`` of a Stokes operation;
- ``{"distance_to_boundary": x, "interior_curl_integral": x}``, the
  latter of tangent (1, 0), at the point of every winding and Stokes
  operation of that workload (62 files);
- ``{"averaged_field": [v1, v2]}`` at each inside winding point of that
  workload (24 files);
- ``{"winding_integral": x}`` at points ``BOUNDARY_OFFSETS`` boundary
  tolerances left of edge 0 of each polygon of that workload, off its
  midpoint and off its line half an edge beyond its end (32 files), or
  the class name of the error raised in place of x, as a point within the
  tolerance raises ``PointOnBoundaryError``;
- ``{"d1d2_fd": [...]}`` of ``r2`` and ``r3``, one batched call of step
  1e-3 on the 20 pairs of ``d1d2_pairs`` (4 files);
- ``{"path_independence_check": [[i1, i2], ...], "minimality_gap": [...]}``
  of each ``mayer`` problem, on ``MAYER_PATHS`` pairs and competitors of
  ``bump_path``, the ``CallablePath`` of a sweep's bump path (6 files).

Once, not per seed, it writes ``plotdata vfield`` at its default 21 x 21
grid as ``{"rc": exit code, "vfield": rows}``, each CSV value as
``float.hex``.  Together these call every caller of the pointwise kernel.

Run it once per tree into two directories; ``diff -r`` on them is the check
of byte identity.  A process imports ``isocal`` once, so a later call of
``main`` in the same process with another SRC exits 2 rather than write
the first tree's reports; ``main`` leaves ``sys.path`` and
``sys.dont_write_bytecode`` as it found them.  Where a change moves values
by rounding, ``--compare A B`` reads the reports of both directories and
prints every leaf that differs, a numeric one with both values and the
relative change (B - A) / |A|.  It exits 1 when a report is missing from
one side, when a report's key sets differ, or when a leaf that is not a
plain number differs: an exit code (``rc``), a check verdict (``passed``),
a string, among them every field result that moved by a bit.  It exits 0
when only numbers differ, or nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 7)
VERIFY_WORKLOADS = ("verify_plane", "verify_curved")
CALIBRATION_SPACES = ("r2", "r3")
CALIBRATION_R3_SAMPLES = (2975, 2976, 2977, 3968, 3969)
MAYER_PROBLEMS = ("free", "oscillator", "cosh")
FIELD_WORKLOADS = ("field_checks",)
D1D2_SPACES = ("r2", "r3")
PLOTDATA_KINDS = ("vfield",)
D1D2_PAIRS = 20
MAYER_PATHS = 3
BOUNDARY_OFFSETS = (0.5, 2.0)


def _reports(inputs, seed: int, scratch: Path):
    """(name, argv) of the comparison reports at one seed; curve files are
    written to scratch."""
    for workload in VERIFY_WORKLOADS:
        for op in inputs.generate(workload, seed).round:
            path = scratch / f"{op.name}.json"
            path.write_text(json.dumps(op.curve), encoding="utf-8")
            yield f"{workload}-{op.name}", op.argv + [str(path)]
    for space in CALIBRATION_SPACES:
        yield f"calibration-{space}", ["calibration", "--space", space,
                                       "--seed", str(seed)]
    for samples in CALIBRATION_R3_SAMPLES:
        yield f"calibration-r3-samples{samples}", [
            "calibration", "--space", "r3", "--samples", str(samples),
            "--seed", str(seed)]
    for problem in MAYER_PROBLEMS:
        yield f"mayer-{problem}", ["mayer", "--problem", problem,
                                   "--seed", str(seed)]


def _hex(values) -> str | list:
    """float.hex of every value of an array, nested as its tolist()."""
    values = np.asarray(values, float).tolist()
    if isinstance(values, float):
        return values.hex()
    return [_hex(v) for v in values]


def _offset_points(curve, tol: float):
    """(name, point) BOUNDARY_OFFSETS times tol left of edge 0 of the
    curve, off its midpoint ("edge") and off its line half an edge beyond
    its end ("extension")."""
    a, b = curve.vertices[:2]
    t = (b - a) / math.hypot(*(b - a))
    normal = np.array([-t[1], t[0]])
    for f in BOUNDARY_OFFSETS:
        yield f"edge-{f}", 0.5 * (a + b) + f * tol * normal
        yield f"extension-{f}", b + 0.5 * (b - a) + f * tol * normal


def _field_results(inputs, harness, isocal, seed: int):
    """(name, result) of the winding and Stokes operations at one seed, of
    distance_to_boundary and interior_curl_integral at their points, of
    averaged_field at the inside winding points, of winding_integral at
    points off edge 0 of each polygon and of d1d2_fd on seeded pairs, each
    value as float.hex."""
    for workload in FIELD_WORKLOADS:
        polygons = []
        for op in inputs.generate(workload, seed).round:
            if op.kind not in ("winding", "stokes"):
                continue
            curve = isocal.ClosedCurve(op.vertices)
            if not any(np.array_equal(op.vertices, v) for v in polygons):
                polygons.append(op.vertices)
            yield f"{workload}-{op.name}-distance_curl", {
                "distance_to_boundary": isocal.curves.distance_to_boundary(
                    curve, op.point).hex(),
                "interior_curl_integral": isocal.quadrature.
                interior_curl_integral(curve, op.point, (1.0, 0.0)).hex()}
            if op.kind == "winding":
                value = isocal.winding_integral(curve, op.point)
                yield f"{workload}-{op.name}", {"winding_integral": value.hex()}
                if op.expect["winding"]:
                    yield f"{workload}-{op.name}-averaged_field", {
                        "averaged_field": _hex(
                            isocal.averaged_field(curve, op.point))}
            else:
                values = isocal.stokes_check(
                    curve, op.point, refinement=harness.STOKES_REFINEMENT)
                yield f"{workload}-{op.name}", {
                    "stokes_check": [v.hex() for v in values]}
        for i, vertices in enumerate(polygons):
            curve = isocal.ClosedCurve(vertices)
            tol = isocal.curves.BOUNDARY_TOL_FACTOR * curve.diameter
            for name, x in _offset_points(curve, tol):
                try:
                    value = isocal.winding_integral(curve, x).hex()
                except isocal.CurveError as exc:
                    value = type(exc).__name__
                yield f"{workload}-polygon{i}-{name}", {
                    "winding_integral": value}
    for space in D1D2_SPACES:
        yield f"d1d2_fd-{space}", {"d1d2_fd": _hex(
            isocal.d1d2_fd(space, *d1d2_pairs(space, seed), 1e-3))}


def d1d2_pairs(space: str, seed: int):
    """x and y, (D1D2_PAIRS, dim) each, drawn from default_rng([seed, dim])
    at separations in [1, 2), far beyond the step 1e-3."""
    dim = 2 if space == "r2" else 3
    rng = np.random.default_rng([seed, dim])
    x, u = rng.normal(size=(2, D1D2_PAIRS, dim))
    r = rng.uniform(1.0, 2.0, (D1D2_PAIRS, 1))
    return x, x + r * u / np.linalg.norm(u, axis=1, keepdims=True)


def bump_path(isocal, problem, coeffs):
    """The CallablePath of the bump path of coeffs (3,) that the mayer
    sweeps add up on their grid: the central leaf plus c_j sin(k_j (t - a)),
    k_j = j pi / (b - a), with the slope likewise."""
    a, b = problem.lagrangian.domain
    leaf = problem.family.central_leaf
    ks = np.arange(1, 4) * math.pi / (b - a)
    return isocal.CallablePath(
        f=lambda t: leaf.value(t) + sum(
            np.multiply.outer(coeffs[j], np.sin(k * (t - a)))
            for j, k in enumerate(ks)),
        fdot=lambda t: leaf.derivative(t) + sum(
            np.multiply.outer(coeffs[j] * k, np.cos(k * (t - a)))
            for j, k in enumerate(ks)))


def _mayer_results(isocal, seed: int):
    """(name, result) of path_independence_check and minimality_gap of each
    mayer problem on MAYER_PATHS pairs and competitors of bump_path, their
    coefficients drawn from default_rng(seed) within the problem's
    amplitude, each value as float.hex."""
    for name in MAYER_PROBLEMS:
        problem = isocal.get_problem(name)
        L, family = problem.lagrangian, problem.family
        nl = isocal.null_lagrangian(L, family)
        amp = problem.amplitude
        rng = np.random.default_rng(seed)
        pairs = rng.uniform(-amp, amp, (MAYER_PATHS, 2, 3))
        competitors = rng.uniform(-amp, amp, (MAYER_PATHS, 3))
        yield f"mayer-{name}-paths", {
            "path_independence_check": [
                _hex(isocal.path_independence_check(
                    nl, *(bump_path(isocal, problem, c) for c in pair)))
                for pair in pairs],
            "minimality_gap": [
                _hex(isocal.minimality_gap(L, family,
                                           bump_path(isocal, problem, c)))
                for c in competitors]}


def _plotdata(isocal, scratch: Path):
    """(name, result) of each plotdata kind at its defaults, the exit code
    and every CSV value as float.hex."""
    for kind in PLOTDATA_KINDS:
        out = scratch / f"plotdata-{kind}"
        with contextlib.redirect_stdout(io.StringIO()):  # the CSV's path
            rc = isocal.cli.main(["plotdata", kind, "--out", str(out)])
        with open(out / f"{kind}.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        yield f"plotdata-{kind}", {
            "rc": rc, kind: [[float(v).hex() for v in row] for row in rows]}


def _leaves(value, path: str = ""):
    """(path, value) of every leaf of a JSON value; a path reads like
    ``rep.checks[2].value``."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a: Path, b: Path) -> int:
    """Print how the reports of b differ from those of a; 1 if more than
    numbers differ, else 0."""
    names_a = {p.name for p in a.glob("*.json")}
    names_b = {p.name for p in b.glob("*.json")}
    status = 0
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {a if name in names_a else b}")
        status = 1
    for name in sorted(names_a & names_b):
        leaves_a = dict(_leaves(json.loads((a / name).read_text("utf-8"))))
        leaves_b = dict(_leaves(json.loads((b / name).read_text("utf-8"))))
        if leaves_a.keys() != leaves_b.keys():
            print(f"{name}: key sets differ: "
                  f"{sorted(leaves_a.keys() ^ leaves_b.keys())}")
            status = 1
        for key in sorted(leaves_a.keys() & leaves_b.keys()):
            x, y = leaves_a[key], leaves_b[key]
            if type(x) is type(y) and x == y:
                continue
            if _number(x) and _number(y) and key != "rc":
                rel = (y - x) / abs(x) if x else float("inf")
                print(f"{name} {key}: {x!r} -> {y!r} (relative {rel:+.3e})")
            else:
                print(f"{name} {key}: {x!r} -> {y!r}")
                status = 1
    return status


def _write(out: Path, name: str, value) -> None:
    text = json.dumps(value, sort_keys=True, indent=2)
    (out / f"{name}.json").write_text(text + "\n", encoding="utf-8")


def _write_reports(inputs, harness, isocal, out: Path) -> None:
    """Run every comparison report through isocal.cli.main, and every
    library result and plotdata kind, into OUT."""
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        report = scratch / "report.json"
        for seed in SEEDS:
            for name, args in _reports(inputs, seed, scratch):
                report.unlink(missing_ok=True)
                rc = isocal.cli.main(args + ["--out", str(report)])
                rep = None
                if report.exists():
                    rep = json.loads(report.read_text(encoding="utf-8"))
                    del rep["wall_time_s"], rep["argv"]
                    rep.get("input", {}).pop("path", None)
                _write(out, f"seed{seed}-{name}", {"rc": rc, "rep": rep})
            for name, result in _field_results(inputs, harness, isocal, seed):
                _write(out, f"seed{seed}-{name}", result)
            for name, result in _mayer_results(isocal, seed):
                _write(out, f"seed{seed}-{name}", result)
        for name, result in _plotdata(isocal, scratch):
            _write(out, name, result)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print("usage: python3 tools/report_bits.py SRC OUT\n"
              "       python3 tools/report_bits.py --compare A B",
              file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    saved = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave both trees as they are
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1]
                                  / "perfbench")]
    try:
        import harness
        import inputs
        import isocal
        import isocal.cli

        # a process imports isocal once: a second SRC gets the first tree
        if not Path(isocal.__file__).resolve().is_relative_to(src):
            print(f"isocal is imported from {Path(isocal.__file__).parent}, "
                  f"not from SRC {src}: run each tree in its own process",
                  file=sys.stderr)
            return 2
        _write_reports(inputs, harness, isocal, out)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    print(f"{len(list(out.glob('*.json')))} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
