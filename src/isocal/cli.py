"""Command-line front end.

Subcommands: verify (isoperimetric report for a curve file), calibration
(kernel invariant sweep), mayer (null-Lagrangian checks on a registry
problem), plotdata (CSV field/foliation samples; no rendering).

Exit codes: 0 all checks passed, 1 a numeric check failed, 2 input or usage
error.  Reports are JSON with a versioned schema; at fixed configuration all
fields except wall_time_s are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, checks, io, mayer, quadrature, spaces
from .curves import CurveError

ENV_CONFIG = "ISOCAL_CONFIG"

DEFAULT_TOLERANCES = {
    # report invariants
    "deficit_min": 1e-8,
    "calibration_gap_min": 1e-8,
    "double_integral_rel": 1e-3,
    # kernel sweep
    "unit_norm": 1e-12,
    "orthogonality": 1e-12,
    "circle_equality": 1e-12,
    "consistency": 1e-12,
    "mixed_r2": 1e-5,
    "mixed_r3": 1e-4,
    # null-Lagrangian sweep
    "dominance_min": 1e-10,
    "field_equality_max": 1e-8,
    "path_independence_max": 1e-6,
    "pullback_max": 1e-5,
    "minimality_min": 1e-8,
}

_EXPECTED_DOUBLE = {
    "euclidean": lambda A: 4.0 * math.pi * A,
    "sphere": lambda A: (4.0 * math.pi - A) * A,
    "hyperbolic": lambda A: (4.0 * math.pi + A) * A,
}


class UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return data


def _tolerances(config: dict, overrides: list[str] | None) -> dict:
    """Named tolerances: the defaults, then the config's `tolerances` object,
    then each --tolerance NAME=VALUE; every value a finite positive number."""
    tol = dict(DEFAULT_TOLERANCES)
    configured = config.get("tolerances", {})
    if not isinstance(configured, dict):
        raise UsageError(
            f"tolerances must be a JSON object, got {configured!r}")
    for name, val in configured.items():
        if name not in tol:
            raise UsageError(f"unknown tolerance {name!r} in config")
        tol[name] = val
    for item in overrides or []:
        name, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"--tolerance expects NAME=VALUE, got {item!r}")
        if name not in tol:
            raise UsageError(
                f"unknown tolerance {name!r}; known: {sorted(tol)}")
        try:
            tol[name] = float(val)
        except ValueError as e:
            raise UsageError(f"bad tolerance value {item!r}") from e
    for name, val in tol.items():
        # the upper bound also rejects nan, inf and ints too large for a float
        if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                and 0 < val <= sys.float_info.max):
            raise UsageError(
                f"tolerance {name} must be a finite positive number, "
                f"got {val!r}")
        tol[name] = float(val)
    return tol


def _samples_and_seed(args, config: dict, default_samples):
    """Sample count and seed: the flag, else the config, else the default.

    The sample count is a positive integer (or None where the command has
    no default), the seed a non-negative integer.
    """
    samples = args.samples if args.samples is not None \
        else config.get("samples", default_samples)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if samples is not None and not _int_at_least(samples, 1):
        raise UsageError(f"samples must be a positive integer, got {samples!r}")
    if not _int_at_least(seed, 0):
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    return samples, seed


def _int_at_least(val, least: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= least


def _check(name: str, value: float, tolerance: float, kind: str) -> dict:
    if kind == "min":
        ok = value >= -tolerance
    else:
        ok = abs(value) <= tolerance
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": bool(ok)}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(report: dict, out: str | None, t0: float, argv: list[str]) -> int:
    report["argv"] = list(argv)
    report["passed"] = all(c["passed"] for c in report["checks"])
    report["wall_time_s"] = time.perf_counter() - t0
    _emit(report, out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    config = _load_config(args.config)
    tol = _tolerances(config, args.tolerance)
    try:
        with open(args.curve, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read curve file: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed curve JSON: {e}") from e
    curve = io.curve_from_dict(data)
    file_space = data.get("space", "euclidean")
    if args.space and args.space != file_space:
        raise UsageError(
            f"--space {args.space} conflicts with curve file space {file_space!r}")
    space = file_space
    refinement = args.refinement if args.refinement is not None \
        else config.get("refinement")
    if refinement is not None and not _int_at_least(refinement, 1):
        raise UsageError(
            f"refinement must be a positive integer, got {refinement!r}")
    if refinement is None:
        refinement = quadrature.auto_refinement(curve) \
            if space == "euclidean" else 1

    if space == "euclidean":
        report_data = quadrature.verify_isoperimetric(curve, refinement)
    elif space == "sphere":
        report_data = spaces.verify_sphere_isoperimetric(curve, refinement)
    else:
        report_data = spaces.verify_hyperbolic_isoperimetric(curve, refinement)

    expected = _EXPECTED_DOUBLE[space](report_data.area)
    rel_err = (report_data.double_integral - expected) / expected
    checks_list = [
        _check("deficit", report_data.deficit, tol["deficit_min"], "min"),
        _check("calibration_gap", report_data.calibration_gap,
               tol["calibration_gap_min"], "min"),
        _check("double_integral_rel_error", rel_err,
               tol["double_integral_rel"], "abs"),
    ]
    notes = []
    if space == "hyperbolic":
        notes.append(
            "hyperbolic kernel norm bound |alpha| <= 1 is verified "
            "empirically, not proved")
    report = {
        "schema": 1,
        "tool": {"name": "isocal", "version": __version__},
        "command": "verify",
        "space": space,
        "config": {"refinement": refinement, "tolerances": tol},
        "input": {"path": args.curve, "content_hash": io.content_hash(curve)},
        "results": {
            "perimeter": report_data.perimeter,
            "area": report_data.area,
            "double_integral": report_data.double_integral,
            "lower_bound": report_data.lower_bound,
            "deficit": report_data.deficit,
            "calibration_gap": report_data.calibration_gap,
            "expected_double_integral": expected,
        },
        "checks": checks_list,
        "notes": notes,
    }
    return _finish(report, args.out, t0, args.argv_echo)


# ---------------------------------------------------------------------------
# calibration


def _cmd_calibration(args) -> int:
    t0 = time.perf_counter()
    config = _load_config(args.config)
    tol = _tolerances(config, args.tolerance)
    samples, seed = _samples_and_seed(args, config, 10000)
    n_circles = min(samples, 100)
    n_mixed = min(samples, 50)

    results = {
        "unit_norm": checks.mayer_vector_norm_residual(samples, seed),
        "orthogonality_r2": checks.orthogonality_residual(2, samples, seed),
        "circle_equality_r2": checks.circle_equality_residual(2, n_circles, seed),
        "consistency": checks.consistency_residual(samples, seed),
        "mixed_r2": checks.mixed_derivative_residual("r2", n_mixed, seed),
    }
    checks_list = [
        _check("unit_norm", results["unit_norm"], tol["unit_norm"], "abs"),
        _check("orthogonality_r2", results["orthogonality_r2"],
               tol["orthogonality"], "abs"),
        _check("circle_equality_r2", results["circle_equality_r2"],
               tol["circle_equality"], "abs"),
        _check("consistency", results["consistency"], tol["consistency"], "abs"),
        _check("mixed_r2", results["mixed_r2"], tol["mixed_r2"], "abs"),
    ]
    if args.space == "r3":
        results["orthogonality_r3"] = checks.orthogonality_residual(3, samples, seed)
        results["circle_equality_r3"] = checks.circle_equality_residual(
            3, n_circles, seed)
        results["mixed_r3"] = checks.mixed_derivative_residual("r3", n_mixed, seed)
        checks_list += [
            _check("orthogonality_r3", results["orthogonality_r3"],
                   tol["orthogonality"], "abs"),
            _check("circle_equality_r3", results["circle_equality_r3"],
                   tol["circle_equality"], "abs"),
            _check("mixed_r3", results["mixed_r3"], tol["mixed_r3"], "abs"),
        ]
    report = {
        "schema": 1,
        "tool": {"name": "isocal", "version": __version__},
        "command": "calibration",
        "space": args.space or "r2",
        "config": {"samples": samples, "seed": seed, "tolerances": tol},
        "results": results,
        "checks": checks_list,
        "notes": [],
    }
    return _finish(report, args.out, t0, args.argv_echo)


# ---------------------------------------------------------------------------
# mayer


def _cmd_mayer(args) -> int:
    t0 = time.perf_counter()
    config = _load_config(args.config)
    tol = _tolerances(config, args.tolerance)
    samples, seed = _samples_and_seed(args, config, 2000)
    try:
        problem = mayer.get_problem(args.problem)
    except KeyError as e:
        raise UsageError(str(e)) from e

    results = checks.run_mayer_checks(
        problem, samples=samples, seed=seed,
        n_pairs=5, n_pullback=50, n_perturbations=20)
    kind = {"dominance_min": "min", "minimality_min": "min"}
    checks_list = [
        _check(name, val, tol[name], kind.get(name, "abs"))
        for name, val in results.items()
    ]
    report = {
        "schema": 1,
        "tool": {"name": "isocal", "version": __version__},
        "command": "mayer",
        "problem": problem.name,
        "config": {"samples": samples, "seed": seed, "tolerances": tol},
        "results": results,
        "checks": checks_list,
        "notes": [problem.description],
    }
    return _finish(report, args.out, t0, args.argv_echo)


# ---------------------------------------------------------------------------
# plotdata


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cmd_plotdata(args) -> int:
    config = _load_config(args.config)
    samples, _ = _samples_and_seed(args, config, None)
    out_dir = args.out or "plotdata"
    if args.kind == "vfield":
        n = samples if samples is not None else 21
        if n < 2:
            raise UsageError("vfield needs --samples >= 2 grid points per axis")
        os.makedirs(out_dir, exist_ok=True)
        y = np.array([0.0, 0.0])
        ty = np.array([1.0, 0.0])
        rows = []
        for x1 in np.linspace(-2.0, 2.0, n):
            for x2 in np.linspace(-2.0, 2.0, n):
                d = np.array([x1, x2]) - y
                r2 = d @ d
                if r2 < 1e-12:
                    continue
                v = (2.0 * (d @ ty) / r2) * d - ty
                rows.append([x1, x2, v[0], v[1]])
        path = os.path.join(out_dir, "vfield.csv")
        _write_csv(path, ["x1", "x2", "v1", "v2"], rows)
    elif args.kind == "circles":
        n = samples if samples is not None else 9
        os.makedirs(out_dir, exist_ok=True)
        rows = []
        # circles through y=(0,0) tangent to t_y=(1,0): centers (0, d/2)
        for k in range(1, n + 1):
            for sgn in (1.0, -1.0):
                d = sgn * 2.0 * k / n
                c2, radius = d / 2.0, abs(d) / 2.0
                orient = 1 if d > 0 else -1
                for th in np.linspace(0.0, 2.0 * np.pi, 129):
                    rows.append([
                        f"{k}{'p' if sgn > 0 else 'm'}", 0.0, c2, radius,
                        orient, th,
                        radius * math.cos(th), c2 + radius * math.sin(th),
                    ])
        path = os.path.join(out_dir, "circles.csv")
        _write_csv(path, ["circle_id", "center1", "center2", "radius",
                          "orientation", "theta", "x1", "x2"], rows)
    else:  # leaves
        n = samples if samples is not None else 9
        try:
            problem = mayer.get_problem(args.problem or "oscillator")
        except KeyError as e:
            raise UsageError(str(e)) from e
        os.makedirs(out_dir, exist_ok=True)
        lo, hi = problem.family.s_interval
        a, b = problem.family.t_domain
        rows = []
        for s in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n):
            for t in np.linspace(a, b, 101):
                rows.append([s, t, problem.family.u(float(s), float(t))])
        path = os.path.join(out_dir, "leaves.csv")
        _write_csv(path, ["s", "t", "u"], rows)
    sys.stdout.write(path + "\n")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocal",
        description="Isoperimetric calibration and Mayer-field verification")
    parser.add_argument("--version", action="version",
                        version=f"isocal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--refinement", type=int, default=None,
                       help="sub-edge refinement (default: automatic)")
        p.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
        p.add_argument("--samples", type=int, default=None,
                       help="sample count for randomised sweeps")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--config", default=None,
                       help=f"config JSON (default: ${ENV_CONFIG})")

    p = sub.add_parser("verify", help="isoperimetric report for a curve file")
    common(p)
    p.add_argument("--space", choices=io.SPACES, default=None,
                   help="expected geometry of the curve file")
    p.add_argument("curve", help="curve JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("calibration", help="kernel invariant sweep")
    common(p)
    p.add_argument("--space", choices=["r2", "r3"], default="r2",
                   help="r3 adds the three-space checks incl. the mixed-"
                        "derivative closed form")
    p.set_defaults(func=_cmd_calibration)

    p = sub.add_parser("mayer", help="null-Lagrangian checks on a problem")
    common(p)
    p.add_argument("--problem", required=True,
                   help=f"one of {mayer.problem_names()}")
    p.set_defaults(func=_cmd_mayer)

    p = sub.add_parser("plotdata", help="CSV samples for figures")
    common(p)
    p.add_argument("kind", choices=["vfield", "circles", "leaves"])
    p.add_argument("--problem", default=None,
                   help="registry problem for `leaves`")
    p.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv_echo = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        return args.func(args)
    except UsageError as e:
        print(f"isocal: error: {e}", file=sys.stderr)
        return 2
    except CurveError as e:
        print(f"isocal: invalid curve: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"isocal: i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
