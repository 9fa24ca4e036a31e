"""Randomised property sweeps over the kernel and the Mayer machinery.

These drive both the CLI's calibration/mayer commands and the acceptance
tests; the tolerances they are judged by are the CLI's
(cli.DEFAULT_TOLERANCES).  Every sweep takes an explicit seed and is
deterministic given it.

Every randomised sweep runs one driver, _sweep.  It draws each sample as
one row of each of the sweep's streams, default_rng(seed) or the two
streams spawned from it (one of normal, one of uniform draws), in blocks
whose whole working set stays within _SWEEP_BYTES, so memory does not grow
with the samples.  Each sample gets the bits it gets alone, so no result
depends on the blocking, and each score's worst value comes with the index
of its sample: draw index rows, then one, and that sample replays.  The
point-pair sweeps read one stream of standard normal draws through
_pair_sweep, in one or more passes: a calibration report's planar samples
are rows of 8 of its draws, and in r3 its three-space samples rows of 6 of
the same draws, read in lockstep, so the report draws each normal once.  The
Mayer sweeps' bump paths are arrays on one Simpson grid (_bump_grid): a
block of path pairs is one evaluation of the null Lagrangian, a block of
competitors one of L against the central leaf's action and region bounds."""

from __future__ import annotations

import math

import numpy as np

from .biform import _field, _matrix, _space_dim, d1d2_fd
from .biform import mixed_derivative_closed_form
from .mayer import (MayerProblem, _PULLBACK_STEP, _gap_to_leaf, _null_actions,
                    _sample, _simpson_grid, lagrangian_submanifold_check,
                    null_lagrangian, weierstrass_gap)
from .quadrature import _pair_kernel

# Bytes of one block of a sweep.  At curves._BLOCK_BYTES (128 KiB) numpy's
# fixed cost a call repeats in too many blocks; 1 MiB keeps the sweeps at
# the speed of one whole draw (README, "Numerical conventions").
_SWEEP_BYTES = 1 << 20
# A point-pair sample is a row of normal draws: x and y, then in the plane
# the tangents t and u.  Its working set alone in a block: its draws, z, t,
# u, V and the scores' temporaries (tracemalloc, one block of 10^4 to
# 4 10^4 samples: 245 bytes in the plane, 212 in three-space).
_ROW_DRAWS = {2: 8, 3: 6}
_ROW_BYTES = {2: 248, 3: 216}


def _sweep(streams, n: int, row_bytes: int, draw, scores, group: int = 1):
    """The worst value of each score over n samples and the index of its
    sample, a list of (value, index) in the order of scores.

    draw(*streams, m) draws the next m samples, one row of each stream a
    sample, and returns them as a block; a score maps a block to one value
    a sample, the larger the worse.  A score may see fewer samples of a
    block than were drawn (a narrower pass of _pair_sweep), and the index
    of a value counts the values its score returned before it.  The worst
    is the largest value, or NaN if one is NaN, at the first sample that
    takes it; over no samples it is (-inf, -1).  A block holds as many
    groups of `group` samples as keep their working set, row_bytes a
    group, within _SWEEP_BYTES (one group at least), and the last block
    the rest."""
    worst = [(-math.inf, -1)] * len(scores)
    seen = [0] * len(scores)
    step = group * max(1, _SWEEP_BYTES // row_bytes)
    for start in range(0, n, step):
        block = draw(*streams, min(step, n - start))
        for k, score in enumerate(scores):
            values = score(block)
            if not values.size:
                continue
            i = int(np.argmax(values))  # the first NaN, if any
            if not (math.isnan(worst[k][0]) or values[i] <= worst[k][0]):
                worst[k] = float(values[i]), seen[k] + i
            seen[k] += values.size
        del block  # not held while the next block is drawn
    return worst


def _maxima(worst) -> list[float]:
    """The worst values of a _sweep of residuals, 0.0 over no samples."""
    return [max(value, 0.0) for value, _ in worst]


def _require_dim(dim) -> None:
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")


def _points(rows, dim: int, field: bool = True):
    """The point pairs of rows of normal draws, a row a sample: x and y (dim
    draws each, times 1.5), then in the plane unit tangents t and u.  Where
    x and y lie within 1e-6, y moves by 1 in every coordinate, so a sample
    depends on its row alone.  The block is (z, t, u, V), z = x - y and the
    field V = m(z) t, in the plane with field, else (z,); each is
    components first, a sample a column (_pair_kernel)."""
    # the rows' transpose: the first pass over each stream writes it
    # component by component, so every later pass runs along the samples
    cols = rows.T
    x = np.multiply(cols[:dim], 1.5, order="C")
    y = np.multiply(cols[dim:2 * dim], 1.5, order="C")
    z = x - y
    near = np.linalg.norm(z, axis=0) < 1e-6
    if near.any():
        z[:, near] = x[:, near] - (y[:, near] + 1)
    if dim == 3 or not field:
        return z,
    t, u = cols[4:6].copy(), cols[6:].copy()  # C order, off the draws
    t /= np.linalg.norm(t, axis=0)
    u /= np.linalg.norm(u, axis=0)
    return z, t, u, _field(z, t)


def _pair_sweep(rng, n: int, passes):
    """The _sweep of every score of passes, in their order, over n point
    pairs a pass, all read from one stream of standard normal draws.

    A pass (dim, field, scores) reads the stream from its start in rows of
    _ROW_DRAWS[dim] draws, a sample a row (_points, with the field only in
    the plane).  A block draws m rows of the widest pass and hands each
    narrower pass the whole rows of its own in them until it has n; its
    scores see no sample after that.  A block but the last holds a whole
    number of every pass's rows, so each pass's samples get the bits, and
    its worst values the indices, that they get alone."""
    widths = [_ROW_DRAWS[dim] for dim, _, _ in passes]
    wide = max(widths)
    unit = math.lcm(*widths)  # the draws that end a row of every pass
    taken = [0] * len(passes)

    def draw(rng, m):
        flat = rng.standard_normal((m, wide)).reshape(-1)
        blocks = []
        for p, (dim, field, _) in enumerate(passes):
            # the widest pass takes every row: _sweep stops it at n
            k = m if widths[p] == wide else min(m * wide // widths[p],
                                                n - taken[p])
            taken[p] += k
            rows = flat[:k * widths[p]].reshape(k, widths[p])
            blocks.append(_points(rows, dim, field) if k else ())
        return blocks

    def reads(p, score):
        return lambda blocks: score(blocks[p]) if blocks[p] else np.empty(0)

    # the passes score one after another, so a block's working set is the
    # largest of one pass's own beside the blocks the others hold (z, and
    # t, u and V with the field: 8 bytes a float)
    own, held = zip(*((unit // width * _ROW_BYTES[dim],
                       unit // width * 8 * dim * (4 if field else 1))
                      for (dim, field, _), width in zip(passes, widths)))
    return _sweep([rng], n, max(o - h for o, h in zip(own, held)) + sum(held),
                  draw, [reads(p, score) for p, (_, _, scores)
                         in enumerate(passes) for score in scores],
                  unit // wide)


def _unit_norm(block):
    return np.abs(np.hypot(*block[3]) - 1.0)


def _orthogonality(block):
    """||m^T m - I||_inf of each sample's kernel matrix m = m(z).

    m is bitwise symmetric (K(z; a, b) is bitwise K(z; b, a)), so m m is
    too, and its upper triangle holds every entry's bits."""
    z = block[0]
    dim = len(z)
    m = _matrix(z)
    worst = np.zeros(z.shape[1])
    for i, k in zip(*np.triu_indices(dim)):
        # (m m)_ik = sum_j m_ij m_jk, summed in j order
        mm = m[i, 0] * m[0, k]
        for j in range(1, dim):
            mm += m[i, j] * m[j, k]
        if i == k:
            mm -= 1.0
        np.maximum(worst, np.abs(mm, out=mm), out=worst)
    return worst


def _consistency(block):
    z, t, u, v = block
    return np.abs(_pair_kernel(z, u, t) - (v[0] * u[0] + v[1] * u[1]))


def mayer_vector_norm_residual(n: int = 10000, seed: int = 0) -> float:
    """max over samples of | |V(y, t_y, x)| - 1 |."""
    return _maxima(_pair_sweep(np.random.default_rng(seed), n,
                               [(2, True, [_unit_norm])]))[0]


def orthogonality_residual(dim: int, n: int = 10000, seed: int = 0) -> float:
    """max over samples of ||m^T m - I||_inf, dim 2 or 3 (_orthogonality)."""
    _require_dim(dim)
    return _maxima(_pair_sweep(np.random.default_rng(seed), n,
                               [(dim, False, [_orthogonality])]))[0]


def circle_equality_residual(dim: int, n_circles: int = 100,
                             seed: int = 0) -> float:
    """max over random circles and point pairs of |K(tangent pair) - 1|,
    dim 2 or 3.

    Each circle is one row of each of two streams spawned from the seed: a
    normal row holds its frame and centre, a uniform row its radius and two
    angles.  A block of circles is one QR and one kernel call.  Two points
    of a circle of radius >= 0.1 at angles >= 2e-3 apart never coincide."""
    _require_dim(dim)

    def draw(normal, uniform, m):
        return normal.standard_normal((m, dim + 1, dim)), uniform.uniform(
            (0.1, 0.0, 0.0), (3.0, 2 * np.pi, 2 * np.pi), (m, 3)).T

    def score(block):
        g, (radius, a1, a2) = block
        a2 = np.where(np.abs(np.sin((a1 - a2) / 2)) < 1e-3, a2 + 0.5, a2)
        # components first: the frame's columns e1, e2 and the centre as
        # (dim, m), against which the circles' scalars broadcast
        e1, e2 = np.linalg.qr(g[:, :dim])[0].T[:2]
        c1, s1, c2, s2 = (f(a) for a in (a1, a2) for f in (np.cos, np.sin))
        center = g[:, dim].T * 2
        x = center + radius * (c1 * e1 + s1 * e2)
        y = center + radius * (c2 * e1 + s2 * e2)
        return np.abs(_pair_kernel(x - y, -s1 * e1 + c1 * e2,
                                   -s2 * e1 + c2 * e2) - 1.0)

    # a circle's working set: about 20 floats a dimension (tracemalloc, one
    # block of 10^3 to 4 10^3 circles: 310 bytes in the plane, 454 in
    # three-space)
    return _maxima(_sweep(np.random.default_rng(seed).spawn(2), n_circles,
                          156 * dim, draw, [score]))[0]


def consistency_residual(n: int = 10000, seed: int = 0) -> float:
    """max of |K(x, y; u, t) - <V(y, t, x), u>| over random samples."""
    return _maxima(_pair_sweep(np.random.default_rng(seed), n,
                               [(2, True, [_consistency])]))[0]


def mixed_derivative_residual(space: str, n: int = 50, seed: int = 0) -> float:
    """max abs deviation of the finite-difference mixed derivative, of step
    1e-3, from the closed form, over pairs at unit-order separation.  Each
    pair is one row of each of two streams spawned from the seed: a normal
    row holds a direction and a base point, a uniform row the distance."""
    dim = _space_dim(space)

    def draw(normal, uniform, m):
        u, y = normal.standard_normal((m, 2, dim)).transpose(1, 0, 2)
        r = uniform.uniform(1.0, 2.0, size=m)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return y + r[:, None] * u, y

    def score(block):
        x, y = block
        got = d1d2_fd(space, x, y, 1e-3)
        want = mixed_derivative_closed_form(space, x, y)
        return np.abs(got - want).reshape(len(x), -1).max(axis=1)

    # a pair's stencil of 4 dim^4 kernel entries and its temporaries
    # (tracemalloc, a pair's share of one block from 256 pairs on: 1.5-1.8
    # kB in R^2, 8.0 kB in R^3; blocks of 4-16 pairs take 3.1 and 12.3 kB)
    return _maxima(_sweep(np.random.default_rng(seed).spawn(2), n,
                          2000 if dim == 2 else 8400, draw, [score]))[0]


def run_calibration_checks(space: str, samples: int,
                           seed: int) -> dict[str, float]:
    """The kernel checks of the calibration command in report order: five in
    the plane, and for r3 three more in three-space.  The circle sweeps take
    at most 100 circles, the mixed-derivative sweeps at most 50 pairs.  Unit
    norm, orthogonality and consistency are three scores of one planar
    pass, and for r3 the three-space orthogonality reads the same draws in
    lockstep (_pair_sweep)."""
    dim = _space_dim(space)  # ValueError for any space but r2 and r3
    n_circles, n_pairs = min(samples, 100), min(samples, 50)
    passes = [(2, True, [_unit_norm, _orthogonality, _consistency])]
    if dim == 3:
        passes.append((3, False, [_orthogonality]))
    unit_norm, orthogonality, consistency, *orthogonality_r3 = _maxima(
        _pair_sweep(np.random.default_rng(seed), samples, passes))
    results = {
        "unit_norm": unit_norm,
        "orthogonality_r2": orthogonality,
        "circle_equality_r2": circle_equality_residual(2, n_circles, seed),
        "consistency": consistency,
        "mixed_r2": mixed_derivative_residual("r2", n_pairs, seed),
    }
    if dim == 3:
        results["orthogonality_r3"], = orthogonality_r3
        results["circle_equality_r3"] = circle_equality_residual(
            3, n_circles, seed)
        results["mixed_r3"] = mixed_derivative_residual("r3", n_pairs, seed)
    return results


# ---------------------------------------------------------------------------
# Mayer-side sweeps

def _bump_grid(problem: MayerProblem, n_quad: int):
    """A Mayer sweep's grid record, computed once for all its blocks: the
    n_quad-interval Simpson grid ts of the problem's domain, the central
    leaf's values and slopes on it (_sample), and the bump paths' three
    sine modes there, their wavenumbers k with sin(k (t - a)) and
    cos(k (t - a)) of each."""
    a, b = problem.lagrangian.domain
    ts = _simpson_grid(a, b, n_quad)
    ks = np.arange(1, 4) * math.pi / (b - a)
    x = ts - a
    return (ts, _sample(problem.family.central_leaf, ts),
            (ks, [np.sin(k * x) for k in ks], [np.cos(k * x) for k in ks]))


def _bump_block(grid, coeffs):
    """The values and slopes on the grid's ts of the bump paths of coeffs
    (..., 3), each of shape coeffs.shape[:-1] + ts.shape: the central leaf
    plus three sine modes vanishing at both ends (_bump_grid)."""
    _, (q, qd), (ks, sines, cosines) = grid
    return (q + sum(np.multiply.outer(coeffs[..., j], m)
                    for j, m in enumerate(sines)),
            qd + sum(np.multiply.outer(coeffs[..., j] * ks[j], m)
                     for j, m in enumerate(cosines)))


def dominance_minimum(problem: MayerProblem, n: int = 10000,
                      seed: int = 0) -> float:
    """min over samples of L - lam at (t, q, qdot) inside the foliation,
    each sample one row (t, s, qdot) of the uniform draws."""
    L, family = problem.lagrangian, problem.family
    a, b = family.t_domain
    lo, hi = family.s_interval
    low = [a + 1e-3, lo + 0.05 * (hi - lo), -3.0]
    high = [b - 1e-3, hi - 0.05 * (hi - lo), 3.0]

    def score(block):  # -gap: the least gap is the worst
        t, s, qd = block.T
        return -weierstrass_gap(L, family, t, family.u(s, t), qd)

    # a sample's working set, measured 141 bytes on the built-ins
    return -_sweep([np.random.default_rng(seed)], n, 144,
                   lambda rng, m: rng.uniform(low, high, (m, 3)),
                   [score])[0][0]


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

    A pair's two paths are one row of six uniform draws, the rows 2i and
    2i + 1 of three that a path at a time would draw; a block of pairs is
    one stacked pair of sampled paths (mayer._null_actions)."""
    nl = null_lagrangian(problem.lagrangian, problem.family)
    amp = problem.amplitude
    grid = _bump_grid(problem, 2000)

    def score(c):  # the pairs' two sides stacked: coefficients (2, m, 3)
        i1, i2 = _null_actions(nl, grid[0], *_bump_block(
            grid, c.reshape(-1, 2, 3).swapaxes(0, 1)))
        return np.abs(i1 - i2)

    # leaf location holds most of a pair's working set, measured (by
    # tracemalloc) 31-33 floats a node a pair on the built-ins
    return _maxima(_sweep([np.random.default_rng(seed)], n_pairs,
                          8 * 32 * grid[0].size,
                          lambda rng, m: rng.uniform(-amp, amp, (m, 6)),
                          [score]))[0]


def pullback_residual(problem: MayerProblem, n: int = 100,
                      seed: int = 0) -> float:
    """max |pullback coefficient of the symplectic form| over random (s, t),
    each one row of the uniform draws."""
    h = _PULLBACK_STEP
    a, b = problem.family.t_domain
    lo, hi = problem.family.s_interval
    low, high = [lo + 0.1 * (hi - lo), a + 10 * h], [hi - 0.1 * (hi - lo),
                                                     b - 10 * h]

    def score(block):
        return np.abs(lagrangian_submanifold_check(
            problem.lagrangian, problem.family, *block.T))

    # a point's working set, measured 122-146 bytes on the built-ins
    return _maxima(_sweep([np.random.default_rng(seed)], n, 160,
                          lambda rng, m: rng.uniform(low, high, (m, 2)),
                          [score]))[0]


def minimality_minimum(problem: MayerProblem, n: int = 100,
                       seed: int = 0, n_quad: int = 2000) -> float:
    """min minimality_gap of random endpoint-matched perturbations of the
    central leaf, each one row of three uniform draws."""
    grid = _bump_grid(problem, n_quad)
    gap = _gap_to_leaf(problem.lagrangian, problem.family, *grid[:2])
    amp = problem.amplitude
    # a competitor's values and slopes, L's temporaries, then its odd and
    # even terms and their level buffer: measured 5.2-5.9 floats a node on
    # the built-ins; -gap: the least gap is the worst
    return -_sweep([np.random.default_rng(seed)], n, 8 * 6 * grid[0].size,
                   lambda rng, m: rng.uniform(-amp, amp, (m, 3)),
                   [lambda c: -gap(*_bump_block(grid, c))])[0][0]


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
