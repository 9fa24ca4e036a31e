"""Randomised property sweeps over the kernel and the Mayer machinery.

These drive both the CLI's calibration/mayer commands and the acceptance
tests, so the sampled quantities live in one place; the tolerances they are
judged by are the CLI's (cli.DEFAULT_TOLERANCES).  Every sweep takes an
explicit seed and is deterministic given it.

The kernel sweeps work on arrays.  mayer_vector_norm_residual,
orthogonality_residual in the plane and consistency_residual read one draw
of samples (_planar_draw): within one run_calibration_checks call the three
share it and the field V evaluated on it; called alone, each draws its own.
These sweeps, and orthogonality_residual in three-space, hold all their
samples at once, so their memory grows with the number of samples.

circle_equality_residual and mixed_derivative_residual draw each sample as
one row of each of two streams spawned from the seed, one of normal and one
of uniform draws, and evaluate the samples in blocks within the byte budget
curves._BLOCK_BYTES, as dominance_minimum does: one QR factorisation, one
kernel call or one d1d2_fd call per block.  A block draws the rows that
follow the previous block's, and each sample gets the same bits as alone,
so no result depends on the blocking.

The Mayer sweeps path_independence_residual and minimality_minimum draw
their random paths from one uniform stream, a block of rows of three
sine-mode coefficients at a time (_bump_paths), the rows a path at a time
would draw; each sweep evaluates the sine modes on its Simpson grid once
(_mode_table).  A block holds as many paths as keep its whole working set,
a few to a few dozen float arrays of one value per Simpson node and path,
within curves._BLOCK_BYTES: one pair, or two competitors, by default.  A
block of path pairs is one path_independence_check, so one evaluation of
lam and one leaf location over all its points; a block of competitors is
one evaluation of L against the central leaf's action and the region
bounds, which the sweep computes once.  Each path gets the bits it gets
alone.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

from . import curves
from .biform import _field, _pair_kernel, d1d2_fd
from .biform import mixed_derivative_closed_form
from .mayer import (
    CallablePath,
    MayerProblem,
    _PULLBACK_STEP,
    _gap_to_leaf,
    _simpson_grid,
    _takes_arrays,
    lagrangian_submanifold_check,
    null_lagrangian,
    path_independence_check,
    weierstrass_gap,
)


def _random_points(rng, n, dim):
    """n point pairs, each at least 1e-6 apart."""
    x = rng.normal(size=(n, dim)) * 1.5
    y = rng.normal(size=(n, dim)) * 1.5
    while (bad := np.linalg.norm(x - y, axis=1) < 1e-6).any():
        y[bad] = rng.normal(size=(int(bad.sum()), dim)) * 1.5
    return x, y


def _random_units(rng, n, dim):
    u = rng.normal(size=(n, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


# The draws of run_calibration_checks' planar sweeps, by (n, seed), while
# one report runs in this context; None outside a report.
_REPORT_DRAWS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_REPORT_DRAWS", default=None)


def _planar_draw(n: int, seed: int):
    """The samples of the three planar sweeps as read-only arrays: z = x - y,
    t, u and the field V = m(z) t, with x, y (_random_points), t and u drawn
    in that order from one stream seeded with seed.  Within one
    run_calibration_checks call the sweeps share one draw; otherwise each
    call draws its own."""
    draws = _REPORT_DRAWS.get()
    if draws is not None and (n, seed) in draws:
        return draws[n, seed]
    rng = np.random.default_rng(seed)
    x, y = _random_points(rng, n, 2)
    t = _random_units(rng, n, 2)
    u = _random_units(rng, n, 2)
    z = x - y
    draw = z, t, u, _field(z, t)
    for a in draw:
        a.flags.writeable = False
    if draws is not None:
        draws[n, seed] = draw
    return draw


def mayer_vector_norm_residual(n: int = 10000, seed: int = 0) -> float:
    """max over samples of | |V(y, t_y, x)| - 1 |."""
    v = _planar_draw(n, seed)[3]
    return float(np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0).max(initial=0.0))


def orthogonality_residual(dim: int, n: int = 10000, seed: int = 0) -> float:
    """max over samples of ||m^T m - I||_inf for the kernel matrix.

    m is bitwise symmetric (K(z; a, b) is bitwise K(z; b, a)), so m m is
    too, and its upper triangle holds every entry's bits."""
    if dim == 2:
        z = _planar_draw(n, seed)[0]
    else:
        x, y = _random_points(np.random.default_rng(seed), n, dim)
        z = x - y
    m = _field(z[:, None, :], np.eye(dim))
    worst = 0.0
    for i, k in zip(*np.triu_indices(dim)):
        # (m m)_ik = sum_j m_ij m_jk, summed in j order
        mm = m[:, i, 0] * m[:, 0, k]
        for j in range(1, dim):
            mm += m[:, i, j] * m[:, j, k]
        if i == k:
            mm -= 1.0
        worst = float(np.max(np.abs(mm, out=mm), initial=worst))
    return worst


def circle_equality_residual(dim: int, n_circles: int = 100,
                             seed: int = 0) -> float:
    """max over random circles and point pairs of |K(tangent pair) - 1|.

    Each circle is one row of each of two streams spawned from the seed: a
    normal row holds its frame and centre, a uniform row its radius and two
    angles.  The circles are evaluated in blocks, one QR and one kernel
    call each.  Two points of a circle of radius >= 0.1 at angles >= 2e-3
    apart never coincide."""
    normal, uniform = np.random.default_rng(seed).spawn(2)
    worst = 0.0
    step = max(1, curves._BLOCK_BYTES // (8 * dim * dim))
    for start in range(0, n_circles, step):
        m = min(step, n_circles - start)
        g = normal.normal(size=(m, dim + 1, dim))
        radius, a1, a2 = uniform.uniform(
            (0.1, 0.0, 0.0), (3.0, 2 * np.pi, 2 * np.pi), size=(m, 3)).T
        a2 = np.where(np.abs(np.sin((a1 - a2) / 2)) < 1e-3, a2 + 0.5, a2)
        q = np.linalg.qr(g[:, :dim])[0]
        e1, e2 = q[:, :, 0], q[:, :, 1]
        c1, s1, c2, s2 = (f(a)[:, None] for a in (a1, a2)
                          for f in (np.cos, np.sin))
        center, r = g[:, dim] * 2, radius[:, None]
        x = center + r * (c1 * e1 + s1 * e2)
        y = center + r * (c2 * e1 + s2 * e2)
        k = _pair_kernel(x - y, -s1 * e1 + c1 * e2, -s2 * e1 + c2 * e2)
        worst = float(np.max(np.abs(k - 1.0), initial=worst))
    return worst


def consistency_residual(n: int = 10000, seed: int = 0) -> float:
    """max of |K(x, y; u, t) - <V(y, t, x), u>| over random samples."""
    z, t, u, v = _planar_draw(n, seed)
    lhs = _pair_kernel(z, u, t)
    rhs = np.einsum("ij,ij->i", v, u)
    return float(np.abs(lhs - rhs).max(initial=0.0))


def mixed_derivative_residual(space: str, n: int = 50, seed: int = 0) -> float:
    """max abs deviation of the finite-difference mixed derivative, of step
    1e-3, from the closed form, over pairs at unit-order separation.

    Each pair is one row of each of two streams spawned from the seed: a
    normal row holds a direction and a base point, a uniform row the
    distance.  The pairs go to d1d2_fd in blocks (all 50 of the CLI's in
    one call)."""
    normal, uniform = np.random.default_rng(seed).spawn(2)
    worst = 0.0
    dim = 2 if space == "r2" else 3
    # a pair's stencil holds 4 dim^4 kernel entries
    step = max(1, curves._BLOCK_BYTES // (8 * 4 * dim ** 4))
    for start in range(0, n, step):
        m = min(step, n - start)
        u, y = normal.normal(size=(m, 2, dim)).transpose(1, 0, 2)
        r = uniform.uniform(1.0, 2.0, size=m)
        x = y + r[:, None] * (u / np.linalg.norm(u, axis=1, keepdims=True))
        got = d1d2_fd(space, x, y, 1e-3)
        want = mixed_derivative_closed_form(space, x, y)
        worst = float(np.max(np.abs(got - want), initial=worst))
    return worst


def run_calibration_checks(space: str, samples: int,
                           seed: int) -> dict[str, float]:
    """The kernel checks of the calibration command in report order: five in
    the plane, and for r3 three more in three-space.  The circle sweeps take
    at most 100 circles, the mixed-derivative sweeps at most 50 pairs."""
    if space not in ("r2", "r3"):
        raise ValueError(f"space must be 'r2' or 'r3', got {space!r}")
    n_circles, n_pairs = min(samples, 100), min(samples, 50)
    # the planar sweeps share one draw, released after its last reader
    token = _REPORT_DRAWS.set({})
    try:
        results = {
            "unit_norm": mayer_vector_norm_residual(samples, seed),
            "orthogonality_r2": orthogonality_residual(2, samples, seed),
            "circle_equality_r2": circle_equality_residual(2, n_circles,
                                                           seed),
            "consistency": consistency_residual(samples, seed),
        }
    finally:
        _REPORT_DRAWS.reset(token)
    results["mixed_r2"] = mixed_derivative_residual("r2", n_pairs, seed)
    if space == "r3":
        results["orthogonality_r3"] = orthogonality_residual(3, samples, seed)
        results["circle_equality_r3"] = circle_equality_residual(
            3, n_circles, seed)
        results["mixed_r3"] = mixed_derivative_residual("r3", n_pairs, seed)
    return results


# ---------------------------------------------------------------------------
# Mayer-side sweeps

def _sine_modes(a: float, b: float, t):
    """The wavenumbers k of the bump paths' three sine modes on [a, b], and
    sin(k (t - a)) and cos(k (t - a)) for each."""
    ks = np.arange(1, 4) * math.pi / (b - a)
    x = t - a
    return ks, [np.sin(k * x) for k in ks], [np.cos(k * x) for k in ks]


def _mode_table(problem: MayerProblem, n_quad: int):
    """The n_quad-interval Simpson grid of the problem's domain and the bump
    modes on it (_sine_modes): computed once for all the blocks of a
    sweep."""
    a, b = problem.lagrangian.domain
    ts = _simpson_grid(a, b, n_quad)
    return ts, _sine_modes(a, b, ts)


def _bump_paths(problem: MayerProblem, coeffs, table) -> CallablePath:
    """The central leaf plus three sine modes vanishing at both endpoints,
    one path per row of coeffs (..., 3); the paths' values at times t have
    the shape coeffs.shape[:-1] + t.shape.  On the grid of the sweep's
    _mode_table the modes are read from the table, with the same bits;
    elsewhere (the endpoint checks) they are evaluated."""
    a, b = problem.lagrangian.domain
    base = problem.family.central_leaf
    coeffs = np.asarray(coeffs, float)
    grid, tabled = table

    def modes(t):
        return tabled if np.array_equal(t, grid) else _sine_modes(a, b, t)

    @_takes_arrays
    def f(t):
        _, sines, _ = modes(t)
        return base.value(t) + sum(np.multiply.outer(coeffs[..., j], m)
                                   for j, m in enumerate(sines))

    @_takes_arrays
    def fdot(t):
        ks, _, cosines = modes(t)
        return base.derivative(t) + sum(
            np.multiply.outer(coeffs[..., j] * ks[j], m)
            for j, m in enumerate(cosines))

    return CallablePath(f=f, fdot=fdot)


def _bump_block(arrays: int, n_quad: int) -> int:
    """Rows per block of a Mayer sweep whose working set holds `arrays`
    float arrays a row, each of one value per node of the n_quad-interval
    Simpson grid, so that the block's arrays stay within
    curves._BLOCK_BYTES (one row at least)."""
    row = 8 * arrays * _simpson_grid(0.0, 1.0, n_quad).size
    return max(1, curves._BLOCK_BYTES // row)


def dominance_minimum(problem: MayerProblem, n: int = 10000,
                      seed: int = 0) -> float:
    """min over samples of L - lam at (t, q, qdot) inside the foliation."""
    rng = np.random.default_rng(seed)
    a, b = problem.family.t_domain
    lo, hi = problem.family.s_interval
    low = [a + 1e-3, lo + 0.05 * (hi - lo), -3.0]
    high = [b - 1e-3, hi - 0.05 * (hi - lo), 3.0]
    worst = math.inf
    # blocks of budget / 32 samples (4096) bound the memory; each (t, s,
    # qdot) row takes the draws of one scalar sample, whatever the blocking
    block = max(1, curves._BLOCK_BYTES // 32)
    for start in range(0, n, block):
        t, s, qd = rng.uniform(low, high, size=(min(block, n - start), 3)).T
        gap = weierstrass_gap(problem.lagrangian, problem.family, t,
                              problem.family.u(s, t), qd)
        worst = float(np.min(gap, initial=worst))
    return worst


def field_equality_residual(problem: MayerProblem) -> float:
    """max |L - lam| at 33 times along the central leaf."""
    a, b = problem.lagrangian.domain
    leaf = problem.family.central_leaf
    t = np.linspace(a + 1e-3, b - 1e-3, 33)
    gap = weierstrass_gap(problem.lagrangian, problem.family, t,
                          leaf.value(t), leaf.derivative(t))
    return float(np.max(np.abs(gap), initial=0.0))


def path_independence_residual(problem: MayerProblem, n_pairs: int = 20,
                               seed: int = 0) -> float:
    """max |action(lam, f1) - action(lam, f2)| over random endpoint-matched
    path pairs.

    Pair i's two paths are rows 2i and 2i + 1 of the uniform draws, so a
    block of pairs is one draw and one path_independence_check."""
    rng = np.random.default_rng(seed)
    nl = null_lagrangian(problem.lagrangian, problem.family)
    amp = problem.amplitude
    worst = 0.0
    # leaf location holds about 14 arrays for each of a pair's two rows
    step = _bump_block(28, 2000)
    table = _mode_table(problem, 2000)
    for start in range(0, n_pairs, step):
        c = rng.uniform(-amp, amp, size=(2 * min(step, n_pairs - start), 3))
        i1, i2 = path_independence_check(
            nl, _bump_paths(problem, c[0::2], table),
            _bump_paths(problem, c[1::2], table))
        worst = float(np.max(np.abs(i1 - i2), initial=worst))
    return worst


def pullback_residual(problem: MayerProblem, n: int = 100,
                      seed: int = 0) -> float:
    """max |pullback coefficient of the symplectic form| over random (s, t)."""
    rng = np.random.default_rng(seed)
    h = _PULLBACK_STEP
    a, b = problem.family.t_domain
    lo, hi = problem.family.s_interval
    s, t = rng.uniform([lo + 0.1 * (hi - lo), a + 10 * h],
                       [hi - 0.1 * (hi - lo), b - 10 * h], size=(n, 2)).T
    return float(np.max(np.abs(lagrangian_submanifold_check(
        problem.lagrangian, problem.family, s, t, h)), initial=0.0))


def minimality_minimum(problem: MayerProblem, n: int = 100,
                       seed: int = 0, n_quad: int = 2000) -> float:
    """min minimality_gap of random endpoint-matched perturbations of the
    central leaf, a block of rows of the uniform draws at a time."""
    rng = np.random.default_rng(seed)
    gap = _gap_to_leaf(problem.lagrangian, problem.family,
                       problem.family.central_leaf, n_quad)
    amp = problem.amplitude
    worst = math.inf
    # a competitor's values, its slopes and two temporaries of L
    step = _bump_block(4, n_quad)
    table = _mode_table(problem, n_quad)
    for start in range(0, n, step):
        c = rng.uniform(-amp, amp, size=(min(step, n - start), 3))
        worst = float(np.min(gap(_bump_paths(problem, c, table)),
                             initial=worst))
    return worst


def run_mayer_checks(problem: MayerProblem, samples: int,
                     seed: int) -> dict[str, float]:
    """The five null-Lagrangian checks of the mayer command, at its sizes (5
    path pairs, 50 pullback points, 20 perturbations); keys match the
    report's check and tolerance names."""
    return {
        "dominance_min": dominance_minimum(problem, samples, seed),
        "field_equality_max": field_equality_residual(problem),
        "path_independence_max": path_independence_residual(
            problem, 5, seed + 1),
        "pullback_max": pullback_residual(problem, 50, seed + 2),
        "minimality_min": minimality_minimum(problem, 20, seed + 3),
    }
