"""Randomised property sweeps over the kernel and the Mayer machinery.

These drive both the CLI's calibration/mayer commands and the acceptance
tests, so the sampled quantities live in one place; the tolerances they are
judged by are the CLI's (cli.DEFAULT_TOLERANCES).  Every sweep takes an
explicit seed and is deterministic given it.

The kernel sweeps work on arrays.  circle_equality_residual and
mixed_derivative_residual draw each sample as one row of each of two
streams spawned from the seed, one of normal and one of uniform draws, and
evaluate the samples in blocks within the byte budget curves._BLOCK_BYTES,
as dominance_minimum does: one QR factorisation, one kernel call or one
d1d2_fd call per block.  A block draws the rows that follow the previous
block's, and each sample gets the same bits as alone, so no result depends
on the blocking.
"""

from __future__ import annotations

import math

import numpy as np

from . import curves
from .biform import _field, _pair_kernel, d1d2_fd
from .biform import mixed_derivative_closed_form
from .mayer import (
    CallablePath,
    MayerProblem,
    _PULLBACK_STEP,
    _takes_arrays,
    lagrangian_submanifold_check,
    minimality_gap,
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


def mayer_vector_norm_residual(n: int = 10000, seed: int = 0) -> float:
    """max over samples of | |V(y, t_y, x)| - 1 |."""
    rng = np.random.default_rng(seed)
    x, y = _random_points(rng, n, 2)
    t = _random_units(rng, n, 2)
    v = _field(x - y, t)
    return float(np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0).max())


def orthogonality_residual(dim: int, n: int = 10000, seed: int = 0) -> float:
    """max over samples of ||m^T m - I||_inf for the kernel matrix."""
    rng = np.random.default_rng(seed)
    x, y = _random_points(rng, n, dim)
    m = _field((x - y)[:, None, :], np.eye(dim))
    # (m m)_ik = sum_j m_ij m_jk, summed in j order
    mm = m[:, :, 0, None] * m[:, None, 0, :]
    for j in range(1, dim):
        mm += m[:, :, j, None] * m[:, None, j, :]
    mm -= np.eye(dim)
    return float(np.abs(mm).max())


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
    rng = np.random.default_rng(seed)
    x, y = _random_points(rng, n, 2)
    t = _random_units(rng, n, 2)
    u = _random_units(rng, n, 2)
    lhs = _pair_kernel(x - y, u, t)
    rhs = np.einsum("ij,ij->i", _field(x - y, t), u)
    return float(np.abs(lhs - rhs).max())


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


# ---------------------------------------------------------------------------
# Mayer-side sweeps

def _bump_path(problem: MayerProblem, rng) -> CallablePath:
    """Central leaf plus three random sine modes vanishing at both
    endpoints, with coefficients within the problem's amplitude."""
    a, b = problem.lagrangian.domain
    base = problem.family.central_leaf
    coeffs = rng.uniform(-problem.amplitude, problem.amplitude, size=3)
    ks = np.arange(1, len(coeffs) + 1) * math.pi / (b - a)

    @_takes_arrays
    def f(t):
        x = t - a
        return base.value(t) + sum(c * np.sin(k * x) for c, k in zip(coeffs, ks))

    @_takes_arrays
    def fdot(t):
        x = t - a
        return base.derivative(t) + sum(
            c * k * np.cos(k * x) for c, k in zip(coeffs, ks))

    return CallablePath(f=f, fdot=fdot)


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
    path pairs."""
    rng = np.random.default_rng(seed)
    nl = null_lagrangian(problem.lagrangian, problem.family)
    worst = 0.0
    for _ in range(n_pairs):
        f1 = _bump_path(problem, rng)
        f2 = _bump_path(problem, rng)
        i1, i2 = path_independence_check(nl, f1, f2)
        worst = max(worst, abs(i1 - i2))
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
    central leaf."""
    rng = np.random.default_rng(seed)
    L, family = problem.lagrangian, problem.family
    leaf = family.central_leaf
    worst = math.inf
    for _ in range(n):
        f = _bump_path(problem, rng)
        worst = min(worst, minimality_gap(L, family, f, leaf, n_quad))
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
