"""Traced run: spans around the calls into each isocal module.

The tracer replaces module attributes of the code under test with timing
wrappers.  isocal calls these functions through module globals (for
example ``quadrature.verify_isoperimetric`` from the CLI,
``double_boundary_integral`` inside ``quadrature``, ``mayer_slope`` inside
``mayer``, and ``d1d2_fd`` as imported into ``checks``), so replacing the
attribute on the module the caller looks it up in is enough.  Nothing in
the program changes; spans inside its functions are left to the program.

Each span records (id, parent id, operation id, name, start, end).  Spans
stay in memory and are written out by ``dump`` at the end of the run.  A
span's self time is its duration minus the durations of its direct child
spans; every ``*_s`` layer metric below is a sum of self times, so the
layers of one operation add up to its wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name)
WRAPS = [
    ("io", "curve_from_dict", "io.load"),
    ("io", "content_hash", "io.hash"),
    ("curves", "ensure_simple", "curves.simple"),
    ("curves", "boundary_node_arrays", "curves.nodes"),
    ("quadrature", "verify_isoperimetric", "quadrature.verify"),
    ("quadrature", "double_boundary_integral", "quadrature.pair_sum"),
    ("quadrature", "winding_integral", "quadrature.winding"),
    ("quadrature", "stokes_check", "quadrature.stokes"),
    ("quadrature", "interior_curl_integral", "quadrature.curl"),
    ("spaces", "verify_sphere_isoperimetric", "spaces.verify"),
    ("spaces", "verify_hyperbolic_isoperimetric", "spaces.verify"),
    ("spaces", "sphere_perimeter", "spaces.area"),
    ("spaces", "hyperbolic_perimeter", "spaces.area"),
    ("spaces", "sphere_area", "spaces.area"),
    ("spaces", "hyperbolic_area", "spaces.area"),
    ("spaces", "sphere_double_integral", "spaces.pair_sum"),
    ("spaces", "hyperbolic_double_integral", "spaces.pair_sum"),
    ("spaces", "sphere_boundary_nodes", "spaces.nodes"),
    ("spaces", "hyperbolic_boundary_nodes", "spaces.nodes"),
    ("mayer", "get_problem", "mayer.problem"),
    ("mayer", "mayer_slope", "mayer.slope"),
    ("mayer", "action", "mayer.action"),
    ("mayer", "legendre_inverse", "mayer.legendre"),
    ("checks", "null_lagrangian", "mayer.null_lagrangian"),
    ("checks", "dominance_minimum", "checks.dominance"),
    ("checks", "field_equality_residual", "checks.field_equality"),
    ("checks", "path_independence_residual", "checks.path_independence"),
    ("checks", "pullback_residual", "checks.pullback"),
    ("checks", "minimality_minimum", "checks.minimality"),
    ("checks", "mayer_vector_norm_residual", "checks.kernel_sweeps"),
    ("checks", "orthogonality_residual", "checks.kernel_sweeps"),
    ("checks", "circle_equality_residual", "checks.kernel_sweeps"),
    ("checks", "consistency_residual", "checks.kernel_sweeps"),
    ("checks", "mixed_derivative_residual", "checks.kernel_sweeps"),
    ("checks", "d1d2_fd", "biform.mixed_fd"),
]

# Bytes of float64 / bool temporaries the seed implementation of the planar
# pair sum materialises per node pair, from the array shapes in
# quadrature._kernel_rows and double_boundary_integral: d (16), r2, zu, zv,
# dt and the masked r2 (5 x 8), same (1), the four products of K and the
# masked K (5 x 8), sqrt and masked distance (2 x 8), the weight outer
# product and contrib (2 x 8), the near mask (1).  A model, not a measurement.
PAIR_SUM_BYTES_PER_PAIR = 16 + 5 * 8 + 1 + 5 * 8 + 2 * 8 + 2 * 8 + 1


def _refinement(args, kwargs):
    return kwargs.get("refinement", args[1] if len(args) > 1 else 1)


def _count_planar_pairs(counts, args, kwargs, result):
    n = args[0].n_vertices * _refinement(args, kwargs)
    counts["quadrature.node_pairs"] += n * n


def _count_vertices(counts, args, kwargs, result):
    counts["curves.vertices"] += args[0].n_vertices


def _count_space_pairs(counts, args, kwargs, result):
    counts["spaces.node_pairs"] += len(result[0]) ** 2


COUNTERS = {
    "quadrature.pair_sum": _count_planar_pairs,
    "curves.nodes": _count_vertices,
    "spaces.nodes": _count_space_pairs,
}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = [0]
        self._next = 1
        self._op = -1
        self._saved = []

    # -- operation root spans, opened by the harness -------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        self._op = op_id
        self._open = (self._next, name, time.perf_counter())
        self._stack.append(self._next)
        self._next += 1

    def end_op(self) -> None:
        sid, name, t0 = self._open
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, 0, self._op, name, t0, t1))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self._op, name, t0, t1))
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, mods) -> None:
        for module, attr, name in WRAPS:
            mod = getattr(mods, module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (total self seconds, call count)."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for sid, _, _, name, t0, t1 in self.spans:
            acc = out[name]
            acc[0] += (t1 - t0) - child[sid]
            acc[1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path, header: dict) -> None:
        """Write the header and then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# per-layer metric -> (unit, function of (self_times, counts, extra))
def _s(name):
    return lambda st, c, x: st.get(name, (0.0, 0))[0]


def _calls(name):
    return lambda st, c, x: st.get(name, (0.0, 0))[1]


def _count(name):
    return lambda st, c, x: c.get(name, 0)


def _pair_rate(st, c, x):
    t = st.get("quadrature.pair_sum", (0.0, 0))[0]
    return c.get("quadrature.node_pairs", 0) / t if t > 0 else 0.0


LAYER_METRICS = {
    "curves.simple_s": ("s", _s("curves.simple")),
    "curves.nodes_s": ("s", _s("curves.nodes")),
    "curves.vertices": ("count", _count("curves.vertices")),
    "io.load_s": ("s", _s("io.load")),
    "io.hash_s": ("s", _s("io.hash")),
    "cli.self_s": ("s", _s("op.cli")),
    "quadrature.verify_self_s": ("s", _s("quadrature.verify")),
    "quadrature.pair_sum_s": ("s", _s("quadrature.pair_sum")),
    "quadrature.node_pairs": ("count", _count("quadrature.node_pairs")),
    "quadrature.pair_rate": ("1/s", _pair_rate),
    "quadrature.near_pairs": ("count", lambda st, c, x: x["near_pairs"]),
    "quadrature.bytes_computed": (
        "B", lambda st, c, x: c.get("quadrature.node_pairs", 0)
        * PAIR_SUM_BYTES_PER_PAIR),
    "quadrature.winding_s": ("s", _s("quadrature.winding")),
    "quadrature.winding_calls": ("count", _calls("quadrature.winding")),
    "quadrature.stokes_s": ("s", _s("quadrature.stokes")),
    "quadrature.curl_s": ("s", _s("quadrature.curl")),
    "spaces.nodes_s": ("s", _s("spaces.nodes")),
    "spaces.pair_sum_s": ("s", _s("spaces.pair_sum")),
    "spaces.node_pairs": ("count", _count("spaces.node_pairs")),
    "spaces.area_s": ("s", _s("spaces.area")),
    "spaces.verify_self_s": ("s", _s("spaces.verify")),
    "mayer.slope_calls": ("count", _calls("mayer.slope")),
    "mayer.slope_s": ("s", _s("mayer.slope")),
    "mayer.action_calls": ("count", _calls("mayer.action")),
    "mayer.action_s": ("s", _s("mayer.action")),
    "mayer.legendre_calls": ("count", _calls("mayer.legendre")),
    "mayer.legendre_s": ("s", _s("mayer.legendre")),
    "mayer.problem_s": ("s", _s("mayer.problem")),
    "mayer.null_lagrangian_s": ("s", _s("mayer.null_lagrangian")),
    "checks.dominance_s": ("s", _s("checks.dominance")),
    "checks.field_equality_s": ("s", _s("checks.field_equality")),
    "checks.path_independence_s": ("s", _s("checks.path_independence")),
    "checks.pullback_s": ("s", _s("checks.pullback")),
    "checks.minimality_s": ("s", _s("checks.minimality")),
    "checks.kernel_sweeps_s": ("s", _s("checks.kernel_sweeps")),
    "biform.mixed_fd_s": ("s", _s("biform.mixed_fd")),
    "biform.mixed_fd_calls": ("count", _calls("biform.mixed_fd")),
    "trace.overhead": ("ratio", lambda st, c, x: x["overhead"]),
}


# metrics that are not totals, and so are not divided by the round count
RATIOS = ("quadrature.pair_rate", "trace.overhead")


def layer_metrics(tracer: Tracer, rounds: int, near_pairs: int,
                  overhead: float) -> dict:
    """Per-layer metrics of a traced phase of `rounds` whole rounds.

    Times and counts are per round, so runs that fit a different number of
    rounds into their time compare directly."""
    st = tracer.self_times()
    extra = {"near_pairs": near_pairs, "overhead": overhead}
    out = {}
    for name, (unit, fn) in LAYER_METRICS.items():
        value = fn(st, tracer.counts, extra)
        out[name] = (value if name in RATIOS else value / rounds, unit)
    return out
