"""Randomised property sweeps over the kernel and the Mayer machinery.

These drive both the CLI's calibration/mayer commands and the acceptance
tests, so the sampled quantities and their tolerances live in one place.
Every sweep takes an explicit seed and is deterministic given it.
"""

from __future__ import annotations

import math

import numpy as np

from .biform import _field, _pair_kernel, biform_apply, d1d2_fd
from .biform import mixed_derivative_closed_form
from .mayer import (
    CallablePath,
    MayerProblem,
    _competitor_action,
    _takes_arrays,
    action,
    lagrangian_submanifold_check,
    null_lagrangian,
    path_independence_check,
    weierstrass_gap,
)


def _random_points(rng, n, dim, min_sep=1e-6):
    x = rng.normal(size=(n, dim)) * 1.5
    y = rng.normal(size=(n, dim)) * 1.5
    d = np.linalg.norm(x - y, axis=1)
    bad = d < min_sep
    while bad.any():
        y[bad] = rng.normal(size=(int(bad.sum()), dim)) * 1.5
        d = np.linalg.norm(x - y, axis=1)
        bad = d < min_sep
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
    mm = np.einsum("nij,njk->nik", m, m) - np.eye(dim)[None, :, :]
    return float(np.abs(mm).max())


def circle_equality_residual(dim: int, n_circles: int = 100,
                             seed: int = 0) -> float:
    """max over random circles and point pairs of |K(tangent pair) - 1|."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_circles):
        if dim == 2:
            e1, e2 = np.eye(2)
            center = rng.normal(size=2) * 2
        else:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            e1, e2 = q[:, 0], q[:, 1]
            center = rng.normal(size=3) * 2
        radius = rng.uniform(0.1, 3.0)
        a1, a2 = rng.uniform(0, 2 * np.pi, size=2)
        if abs(math.sin((a1 - a2) / 2)) < 1e-3:
            a2 += 0.5
        x = center + radius * (math.cos(a1) * e1 + math.sin(a1) * e2)
        y = center + radius * (math.cos(a2) * e1 + math.sin(a2) * e2)
        tx = -math.sin(a1) * e1 + math.cos(a1) * e2
        ty = -math.sin(a2) * e1 + math.cos(a2) * e2
        worst = max(worst, abs(biform_apply(x, y, tx, ty) - 1.0))
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


def mixed_derivative_residual(space: str, n: int = 50, seed: int = 0,
                              h: float = 1e-3) -> float:
    """max abs deviation of the finite-difference mixed derivative from the
    closed form, over pairs at unit-order separation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    dim = 2 if space == "r2" else 3
    for _ in range(n):
        u = _random_units(rng, 1, dim)[0]
        r = rng.uniform(1.0, 2.0)
        y = rng.normal(size=dim)
        x = y + r * u
        got = d1d2_fd(space, x, y, h).value
        want = mixed_derivative_closed_form(space, x, y)
        worst = max(worst, float(np.abs(np.asarray(got) - np.asarray(want)).max()))
    return worst


# ---------------------------------------------------------------------------
# Mayer-side sweeps

_AMPLITUDE = {"free": 0.8, "oscillator": 0.12, "cosh": 0.8}
_SAMPLE_BLOCK = 4096


def _bump_path(problem: MayerProblem, rng, amplitude: float,
               n_modes: int = 3) -> CallablePath:
    """Central leaf plus random sine modes vanishing at both endpoints."""
    a, b = problem.lagrangian.domain
    base = problem.family.central_leaf
    coeffs = rng.uniform(-amplitude, amplitude, size=n_modes)
    ks = np.arange(1, n_modes + 1) * math.pi / (b - a)

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
    # blocks bound the memory; each (t, s, qdot) row takes the same draws as
    # one scalar sample would, and results do not depend on the blocking
    for start in range(0, n, _SAMPLE_BLOCK):
        t, s, qd = rng.uniform(low, high,
                               size=(min(_SAMPLE_BLOCK, n - start), 3)).T
        gap = weierstrass_gap(problem.lagrangian, problem.family, t,
                              problem.family.u(s, t), qd)
        worst = float(np.min(gap, initial=worst))
    return worst


def field_equality_residual(problem: MayerProblem, n: int = 33) -> float:
    """max |L - lam| along the central leaf."""
    a, b = problem.lagrangian.domain
    leaf = problem.family.central_leaf
    t = np.linspace(a + 1e-3, b - 1e-3, n)
    gap = weierstrass_gap(problem.lagrangian, problem.family, t,
                          leaf.value(t), leaf.derivative(t))
    return float(np.max(np.abs(gap), initial=0.0))


def path_independence_residual(problem: MayerProblem, n_pairs: int = 20,
                               seed: int = 0, n_quad: int = 2000) -> float:
    """max |action(lam, f1) - action(lam, f2)| over random endpoint-matched
    path pairs."""
    rng = np.random.default_rng(seed)
    nl = null_lagrangian(problem.lagrangian, problem.family)
    amp = _AMPLITUDE[problem.name]
    worst = 0.0
    for _ in range(n_pairs):
        f1 = _bump_path(problem, rng, amp)
        f2 = _bump_path(problem, rng, amp)
        i1, i2 = path_independence_check(nl, f1, f2, n=n_quad)
        worst = max(worst, abs(i1 - i2))
    return worst


def pullback_residual(problem: MayerProblem, n: int = 100, seed: int = 0,
                      h: float = 1e-4) -> float:
    """max |pullback coefficient of the symplectic form| over random (s, t)."""
    rng = np.random.default_rng(seed)
    a, b = problem.family.t_domain
    lo, hi = problem.family.s_interval
    worst = 0.0
    for _ in range(n):
        s = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        t = rng.uniform(a + 10 * h, b - 10 * h)
        worst = max(worst, abs(lagrangian_submanifold_check(
            problem.lagrangian, problem.family, s, t, h)))
    return worst


def minimality_minimum(problem: MayerProblem, n: int = 100,
                       seed: int = 0, n_quad: int = 2000) -> float:
    """min action gap of random endpoint-matched perturbations of the leaf.

    Equals min(minimality_gap(...)) over the same draws, bit for bit, with
    the central leaf's action integrated once."""
    rng = np.random.default_rng(seed)
    amp = _AMPLITUDE[problem.name]
    L, family = problem.lagrangian, problem.family
    leaf = family.central_leaf
    central = action(L, leaf, n=n_quad)
    worst = math.inf
    for _ in range(n):
        f = _bump_path(problem, rng, amp)
        worst = min(worst,
                    _competitor_action(L, family, f, leaf, n_quad) - central)
    return worst


def run_mayer_checks(problem: MayerProblem, samples: int = 10000,
                     seed: int = 0, n_pairs: int = 20,
                     n_pullback: int = 100,
                     n_perturbations: int = 100) -> dict[str, float]:
    """The five null-Lagrangian checks; keys match the report names."""
    return {
        "dominance_min": dominance_minimum(problem, samples, seed),
        "field_equality_max": field_equality_residual(problem),
        "path_independence_max": path_independence_residual(
            problem, n_pairs, seed + 1),
        "pullback_max": pullback_residual(problem, n_pullback, seed + 2),
        "minimality_min": minimality_minimum(problem, n_perturbations, seed + 3),
    }
