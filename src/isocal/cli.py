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
import operator
import os
import sys
import time

import numpy as np

from . import __version__, biform, checks, io, mayer
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


class UsageError(Exception):
    pass


def _read_json(path: str, what: str):
    """The JSON value in the file; UsageError when it cannot be read, is not
    UTF-8, is not JSON or nests too deep for the parser."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise UsageError(f"cannot read {what} {path}: {e}") from e


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    data = _read_json(path, "config")
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


def _samples_and_seed(config: dict, samples, seed, default_samples):
    """Sample count and seed: the flag, else the config, else the default.

    The sample count is a positive integer (or None where the command has
    no default), the seed a non-negative integer.
    """
    if samples is None:
        samples = config.get("samples", default_samples)
    if seed is None:
        seed = config.get("seed", 0)
    if samples is not None and not _int_at_least(samples, 1):
        raise UsageError(f"samples must be a positive integer, got {samples!r}")
    if not _int_at_least(seed, 0):
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    return samples, seed


def _int_at_least(val, least: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= least


def _report(args, tol: dict, settings: dict, head: dict, results: dict,
            entries, notes=()) -> int:
    """Write a command's JSON report to --out, else stdout, and return its
    exit code: 0 if every check passed, else 1.

    Each entry (check name, value, tolerance name) is one check.  A
    tolerance named *_min bounds the value from below, value >= -tol; any
    other bounds its size, |value| <= tol."""
    checks_list = []
    for name, value, tol_name in entries:
        bound = tol[tol_name]
        ok = value >= -bound if tol_name.endswith("_min") \
            else abs(value) <= bound
        checks_list.append({"name": name, "value": value, "tolerance": bound,
                            "passed": bool(ok)})
    passed = all(c["passed"] for c in checks_list)
    report = {
        "schema": 1,
        "tool": {"name": "isocal", "version": __version__},
        "command": args.command,
        **head,
        "config": {**settings, "tolerances": tol},
        "results": results,
        "checks": checks_list,
        "notes": list(notes),
        "argv": args.argv_echo,
        "passed": passed,
        "wall_time_s": time.perf_counter() - args.t0,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, config: dict) -> int:
    tol = _tolerances(config, args.tolerance)
    curve = io.curve_from_dict(_read_json(args.curve, "curve file"))
    geometry = curve.geometry
    if args.space and args.space != geometry.tag:
        raise UsageError(f"--space {args.space} conflicts with curve file "
                         f"space {geometry.tag!r}")
    refinement = args.refinement if args.refinement is not None \
        else config.get("refinement")
    if refinement is not None and not _int_at_least(refinement, 1):
        raise UsageError(
            f"refinement must be a positive integer, got {refinement!r}")
    verify = operator.attrgetter(geometry.verify)(sys.modules[__package__])
    r = verify(curve) if refinement is None else verify(curve, refinement)

    # the double integral converges to (planar: equals) the sharp bound
    results = {
        "perimeter": r.perimeter,
        "area": r.area,
        "double_integral": r.double_integral,
        "lower_bound": r.lower_bound,
        "deficit": r.deficit,
        "calibration_gap": r.calibration_gap,
        "expected_double_integral": r.lower_bound,
    }
    if r.midpoint_double_integral is not None:  # a witness, not a check
        results["midpoint_double_integral"] = r.midpoint_double_integral
        results["midpoint_rel_deviation"] = (
            r.midpoint_double_integral - r.double_integral) / r.lower_bound
    entries = [
        ("deficit", r.deficit, "deficit_min"),
        ("calibration_gap", r.calibration_gap, "calibration_gap_min"),
        ("double_integral_rel_error",
         (r.double_integral - r.lower_bound) / r.lower_bound,
         "double_integral_rel"),
    ]
    head = {"space": geometry.tag,
            "input": {"path": args.curve,
                      "content_hash": io.content_hash(curve)}}
    return _report(args, tol, {"refinement": refinement}, head, results,
                   entries, geometry.notes)


# ---------------------------------------------------------------------------
# calibration

# The checks in report order: (check name, sweep(samples, seed), tolerance
# name); r3 adds three to the five of r2.  Each sweep looks its function up
# on the checks module when it runs, so a wrapper set there sees the call.
_CALIBRATION_R2 = [
    ("unit_norm", lambda n, s: checks.mayer_vector_norm_residual(n, s),
     "unit_norm"),
    ("orthogonality_r2", lambda n, s: checks.orthogonality_residual(2, n, s),
     "orthogonality"),
    ("circle_equality_r2",
     lambda n, s: checks.circle_equality_residual(2, min(n, 100), s),
     "circle_equality"),
    ("consistency", lambda n, s: checks.consistency_residual(n, s),
     "consistency"),
    ("mixed_r2",
     lambda n, s: checks.mixed_derivative_residual("r2", min(n, 50), s),
     "mixed_r2"),
]
_CALIBRATION = {"r2": _CALIBRATION_R2, "r3": _CALIBRATION_R2 + [
    ("orthogonality_r3", lambda n, s: checks.orthogonality_residual(3, n, s),
     "orthogonality"),
    ("circle_equality_r3",
     lambda n, s: checks.circle_equality_residual(3, min(n, 100), s),
     "circle_equality"),
    ("mixed_r3",
     lambda n, s: checks.mixed_derivative_residual("r3", min(n, 50), s),
     "mixed_r3"),
]}


def _cmd_calibration(args, config: dict) -> int:
    tol = _tolerances(config, args.tolerance)
    samples, seed = _samples_and_seed(config, args.samples, args.seed, 10000)
    table = _CALIBRATION[args.space]
    results = {name: sweep(samples, seed) for name, sweep, _ in table}
    entries = [(name, results[name], tol_name) for name, _, tol_name in table]
    return _report(args, tol, {"samples": samples, "seed": seed},
                   {"space": args.space}, results, entries)


# ---------------------------------------------------------------------------
# mayer


def _cmd_mayer(args, config: dict) -> int:
    tol = _tolerances(config, args.tolerance)
    samples, seed = _samples_and_seed(config, args.samples, args.seed, 2000)
    try:
        problem = mayer.get_problem(args.problem)
    except KeyError as e:
        raise UsageError(str(e)) from e
    # each result is named after its tolerance
    results = checks.run_mayer_checks(problem, samples, seed)
    return _report(args, tol, {"samples": samples, "seed": seed},
                   {"problem": problem.name}, results,
                   [(name, value, name) for name, value in results.items()],
                   [problem.description])


# ---------------------------------------------------------------------------
# plotdata


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cmd_plotdata(args, config: dict) -> int:
    if args.problem is not None and args.kind != "leaves":
        raise UsageError("unrecognized arguments: --problem "
                         f"(plotdata {args.kind} reads none)")
    samples, _ = _samples_and_seed(config, args.samples, None, None)
    out_dir = args.out or "plotdata"
    if args.kind == "vfield":
        n = samples if samples is not None else 21
        if n < 2:
            raise UsageError("vfield needs --samples >= 2 grid points per axis")
        os.makedirs(out_dir, exist_ok=True)
        # V(y, t_y, x) = m(x - y) t_y on the grid, y = (0, 0), t_y = (1, 0)
        g = np.linspace(-2.0, 2.0, n)
        x = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        x = x[np.einsum("ij,ij->i", x, x) >= 1e-12]
        rows = np.c_[x, biform._field(x, np.array([1.0, 0.0]))].tolist()
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
        s = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n)
        t = np.linspace(a, b, 101)
        u = problem.family.u(s[:, None], t[None, :])
        rows = zip(np.repeat(s, len(t)).tolist(), np.tile(t, n).tolist(),
                   u.ravel().tolist())
        path = os.path.join(out_dir, "leaves.csv")
        _write_csv(path, ["s", "t", "u"], rows)
    sys.stdout.write(path + "\n")
    return 0


# ---------------------------------------------------------------------------

# the common flags; each command adds only the ones it reads, so argparse
# rejects any other with exit code 2
_FLAGS = {
    "refinement": {"type": int,
                   "help": "midpoint pieces per edge (planar: a witness)"},
    "tolerance": {"action": "append", "metavar": "NAME=VALUE",
                  "help": "override a named tolerance (repeatable)"},
    "samples": {"type": int, "help": "sample count for randomised sweeps"},
    "seed": {"type": int, "help": "RNG seed"},
    "out": {"help": "output path"},
    "config": {"help": f"config JSON (default: ${ENV_CONFIG})"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocal",
        description="Isoperimetric calibration and Mayer-field verification")
    parser.add_argument("--version", action="version",
                        version=f"isocal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, func, flags):
        p = sub.add_parser(name, help=about)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("verify", "isoperimetric report for a curve file",
                _cmd_verify, ["refinement", "tolerance", "out", "config"])
    p.add_argument("--space", choices=io.SPACES, default=None,
                   help="expected geometry of the curve file")
    p.add_argument("curve", help="curve JSON file")

    p = command("calibration", "kernel invariant sweep", _cmd_calibration,
                ["tolerance", "samples", "seed", "out", "config"])
    p.add_argument("--space", choices=sorted(_CALIBRATION), default="r2",
                   help="r3 adds the three-space checks incl. the mixed-"
                        "derivative closed form")

    p = command("mayer", "null-Lagrangian checks on a problem", _cmd_mayer,
                ["tolerance", "samples", "seed", "out", "config"])
    p.add_argument("--problem", required=True,
                   help=f"one of {mayer.problem_names()}")

    p = command("plotdata", "CSV samples for figures", _cmd_plotdata,
                ["samples", "out", "config"])
    p.add_argument("kind", choices=["vfield", "circles", "leaves"])
    p.add_argument("--problem", default=None,
                   help="registry problem for `leaves`")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse's usage error, --help or --version
        return e.code
    args.argv_echo = list(argv) if argv is not None else list(sys.argv[1:])
    args.t0 = time.perf_counter()
    try:
        return args.func(args, _load_config(args.config))
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
