"""Integration engines for boundary one-forms, the double boundary integral
of the tangent kernel, and the singular interior curl integral.

The planar double integral is exact, a corner sum over vertex pairs; the
midpoint rule, pair_sum, serves all three geometries.  Every total is
correctly rounded: the short sums are one math.fsum each, and the corner
and pair sums, millions of terms, one exact binned reduction each (two
float halves per term, np.bincount by sign and exponent), the same bits as
math.fsum.  Either way a total is a function of the multiset of its terms
alone: the same, bit for bit, for any row blocking and any starting
vertex.  The pair sum walks row blocks within a fixed byte budget; every
block is a view of buffers allocated once per call, which the kernel fills
through _kernel(..., out), and as nodes come edge by edge its same-edge
pairs lie in a narrow band of columns.  The winding integral's adaptive
Simpson trees are evaluated level by level, all pieces in one numpy pass
per level, and summed back up each tree as a depth-first recursion would:
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import curves
# auto_refinement stays importable here: perfbench/harness.py calls it
from .curves import (_BLOCK_BYTES, PLANE, ClosedCurve, auto_refinement,
                     metric_dot, _vec2)


@dataclass(frozen=True)
class IsoperimetricReport:
    """Scalar summary of one isoperimetric verification run.

    deficit = perimeter^2 - lower_bound, where lower_bound is the sharp
    bound (4*pi - K*area) * area of the curvature K.  calibration_gap is
    perimeter^2 minus the computed double boundary integral; both must be
    nonnegative up to quadrature tolerance.
    """

    perimeter: float
    area: float
    double_integral: float
    lower_bound: float
    deficit: float
    calibration_gap: float
    space_tag: str
    midpoint_double_integral: float | None = None  # planar, with refinement

    @classmethod
    def of(cls, geometry: curves.Geometry, perimeter: float, area: float,
           double_integral: float) -> "IsoperimetricReport":
        """The report with the sharp bound (4*pi - K*area) * area of the
        geometry's curvature K; as 0*A = 0 and (-1)*A = -A exactly, this is
        4*pi*A, (4*pi - A)*A and (4*pi + A)*A bit for bit."""
        L = perimeter
        lower = (4.0 * math.pi - geometry.K * area) * area
        return cls(perimeter=L, area=area, double_integral=double_integral,
                   lower_bound=lower, deficit=L * L - lower,
                   calibration_gap=L * L - double_integral,
                   space_tag=geometry.tag)


def line_integral(curve: ClosedCurve, field, refinement: int = 1) -> float:
    """Midpoint-rule line integral of <field(x), dx> over the curve.

    `field` maps a point array of shape (2,) to a vector of shape (2,);
    evaluation failures at a node propagate unchanged.
    """
    pts, tan, wts, _, _, _ = curves.boundary_node_arrays(curve, refinement)
    terms = [
        w * float(np.asarray(field(p), float) @ t)
        for p, t, w in zip(pts, tan, wts)
    ]
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# winding integral: adaptive Simpson of 2 det(y - x, dy)/|y - x|^2

# Depth at which an interval is a leaf whatever its error estimate.
_SIMPSON_DEPTH = 48
# The rows of a level's work array q in _simpson_pass: the interval record
# (edge, s0, s2, f0, f1, f2) with the midpoint s1, the values lm, rm of f at
# the halves' midpoints and the halves' estimates left, right.  A split
# interval's left half is the record (edge, s0, s1, f0, lm, f1, left) and
# its right half (edge, s1, s2, f1, rm, f2, right): the columns of _HALVES.
_HALVES = np.array([[0, 0], [1, 6], [6, 2], [3, 4], [7, 8], [4, 5], [9, 10]])


def _winding_f(edges, x, s):
    """2 c / |a + s e - x|^2 at parameters s of the edges (a0, a1, e0, e1, c)
    from a along e, where c = det(a - x, e)."""
    a0, a1, e0, e1, c = edges
    d0 = a0 + s * e0 - x[0]
    d1 = a1 + s * e1 - x[1]
    return 2.0 * c / (d0 * d0 + d1 * d1)


def _simpson_pass(edges, x, tol15, nodes):
    """One level of adaptive Simpson for the intervals given as the rows
    (edge, s0, s2, f0, f1, f2, whole) of nodes: [s0, s2] on the edge
    edges[:, edge], f at s0, at the midpoint and at s2, and the interval's
    Simpson estimate.  Evaluates f at the midpoints of both halves of every
    interval and returns the values as leaves, left + right + err / 15, the
    indices of the intervals with |err| >= tol15 (15 tol) or NaN, which
    split, and the records of their halves: the left halves, then the
    right halves."""
    q = np.empty((11, nodes.shape[1]))
    q[:6] = nodes[:6]
    s0, s2, whole = nodes[1], nodes[2], nodes[6]
    s1 = np.multiply(0.5, s0 + s2, out=q[6])
    mids = np.array([s0 + s1, s1 + s2])
    mids *= 0.5
    q[7:9] = _winding_f(edges[:, nodes[0].astype(np.intp)], x, mids)
    # left, right = h / 12 (f0 + 4 lm + f1), h / 12 (f1 + 4 rm + f2)
    np.multiply((s2 - s0) / 12.0, q[3:5] + 4.0 * q[7:9] + q[4:6], out=q[9:11])
    both = q[9] + q[10]
    err = both - whole
    split = np.flatnonzero(~(np.abs(err) < tol15))
    return both + err / 15.0, split, q[:, split][_HALVES].reshape(7, -1)


def _simpson_tree(edges, x, tol15, depth, nodes):
    """Adaptive Simpson values of intervals all at one depth of their edges'
    trees (the records of _simpson_pass), level-synchronous: one pass per
    level, and the halves of all the intervals that split go one level down
    together, where each takes the value of its left half plus that of its
    right half, as a depth-first recursion would.  Intervals at depth
    _SIMPSON_DEPTH are leaves.  As subtrees are independent, a level of
    more than _BLOCK_BYTES / 128 intervals goes down in chunks of that
    many, one after the other: what a level holds while its subtrees are
    evaluated, its values and the records of its halves (15 floats an
    interval), fits the budget, and the whole descent holds at most
    _SIMPSON_DEPTH + 1 budgets."""
    step = max(1, _BLOCK_BYTES // 128)
    if nodes.shape[1] > step:
        return np.concatenate([
            _simpson_tree(edges, x, tol15, depth, nodes[:, k:k + step])
            for k in range(0, nodes.shape[1], step)])
    value, split, halves = _simpson_pass(edges, x, tol15, nodes)
    if depth < _SIMPSON_DEPTH and len(split):
        sub = _simpson_tree(edges, x, tol15, depth + 1, halves)
        value[split] = sub[:len(split)] + sub[len(split):]
    return value


def winding_integral(curve: ClosedCurve, x, refinement: int = 1,
                     tol: float = 1e-9) -> float:
    """Loop integral of 2 det(y - x, dy)/|y - x|^2; equals 4*pi times the
    winding number up to the quadrature tolerance.

    Each edge is pre-split `refinement` times and then integrated by
    adaptive Simpson with a per-piece budget of tol / #pieces: an interval
    is split until its error estimate is below 15 times that, or at depth
    48.  The trees of all pieces are evaluated level by level, one numpy
    pass per level (_simpson_tree), and each piece's value is summed back
    up its own tree, left half plus right half: the same bits as a
    depth-first recursion per piece.  The pieces' values go into one fsum.
    A piece whose line passes through x (det(a - x, e) = 0) adds 0.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    p = curves._require_off_boundary(curve, x)
    *_, starts, ends = PLANE.nodes(curve.vertices, refinement)
    tol15 = 15.0 * (tol / len(starts))
    a, e = starts.T, (ends - starts).T
    # det(y(s) - x, e) is independent of s along the edge
    c = (a[0] - p[0]) * e[1] - (a[1] - p[1]) * e[0]
    g = np.flatnonzero(c != 0.0)
    edges = np.array([*a, *e, c])
    f = _winding_f(edges[:, g], p, np.array([[0.0], [0.5], [1.0]]))
    nodes = np.array([g, np.zeros(len(g)), np.ones(len(g)), *f,
                      (f[0] + 4.0 * f[1] + f[2]) / 6.0])
    return math.fsum(_simpson_tree(edges, p, tol15, 0, nodes).tolist())


# ---------------------------------------------------------------------------
# double boundary integral of the tangent kernel

def _kernel(d, ti, tj, J, r2, out=None):
    """2 <d, ti> <d, tj> / r2 - <ti, tj> under J, for d = x_i - x_j.  Swapping
    i and j negates d and swaps the dots: K(i, j) is bitwise K(j, i).  With
    out, three contiguous arrays of the result's shape, the same operations
    in the same order write into them, allocate nothing and return out[0].
    """
    if out is None:
        return (2.0 * metric_dot(J, d, ti) * metric_dot(J, d, tj) / r2
                - metric_dot(J, ti, tj))
    w, u, s = out
    k = np.multiply(2.0, metric_dot(J, d, ti, (w, s)), out=w)
    k *= metric_dot(J, d, tj, (u, s))
    k /= r2
    k -= metric_dot(J, ti, tj, (u, s))
    return k


# Terms binned between two flushes of an _ExactSum.  Each term is split into
# two floats whose per-bin sums stay integers below 2^53 units of their last
# place, exact in any order, up to 2^26 terms.
_FLUSH_TERMS = 1 << 26
# Clears the low 26 bits of a float64's fraction.
_HI_MASK = np.uint64((1 << 64) - (1 << 26))
# The biased exponent of 2^998: from here on 2^26 terms of one bin could
# sum beyond the float range.
_BIG = 998 + 1023


class _ExactSum:
    """Exact sum of float64 arrays, rounded once: the same bits as
    math.fsum over the same terms.

    Binned exact summation (Demmel & Nguyen, "Parallel reproducible
    summation", IEEE TC 2015): np.bincount indexes each term x by its top
    12 bits (sign and exponent E) and sums two floats per bin, hi = x with
    its low 26 fraction bits cleared (a bit mask) and lo = x - hi, both
    exact.  In a bin, hi is a multiple of 2^(E-26) below 2^27 of them and lo
    a multiple of 2^(E-52) below 2^26 of them, so up to 2^26 terms every
    partial sum is an integer below 2^53 units, exact in any order.  A flush
    turns each bin sum, m 2^k by frexp, into an exact Python int in units of
    2^-1127, and value() divides the total by 2^1127 with one correct
    rounding.  A float bin sum stays finite for E < 998; a chunk whose hi
    bins show larger or non-finite terms takes the path _rare.  Non-finite
    terms decide the result alone, as in fsum: value() is then math.fsum of
    them.  A sum beyond the float range raises OverflowError, as fsum does.
    """

    def __init__(self):
        self._bins = np.zeros((2, 4096))  # the sums of hi and of lo per bin
        self._terms = 0  # binned since the last flush
        self._total = 0
        self._special = []  # the non-finite terms
        self._buf = np.empty((2, 0), np.uint64)  # bin indices, hi then lo
        self._big = None  # the terms of 2^998 and above, times 2^-128

    def add(self, x) -> None:
        x = np.ascontiguousarray(x, dtype=np.float64).ravel()
        for k0 in range(0, len(x), _FLUSH_TERMS):
            self._bin(x[k0:k0 + _FLUSH_TERMS])

    def _bin(self, x) -> None:
        if self._terms + len(x) > _FLUSH_TERMS:
            self._flush()
        if self._buf.shape[1] < len(x):
            self._buf = np.empty((2, len(x)), np.uint64)
        b = x.view(np.uint64)
        top = np.right_shift(b, np.uint64(52), out=self._buf[0, :len(x)])
        top = top.view(np.int64)
        half = np.bitwise_and(b, _HI_MASK, out=self._buf[1, :len(x)])
        half = half.view(np.float64)
        hi = np.bincount(top, half, 4096)
        if hi[_BIG:0x800].any() or hi[0x800 + _BIG:].any():
            self._rare(x)
            return
        self._terms += len(x)
        self._bins[0] += hi
        self._bins[1] += np.bincount(top, np.subtract(x, half, out=half), 4096)

    def _rare(self, x) -> None:
        """Non-finite terms are kept apart; finite ones of 2^998 and above,
        where a bin sum could overflow, go exactly scaled by 2^-128 into a
        second accumulator."""
        finite = np.isfinite(x)
        self._special.extend(x[~finite].tolist())
        big = finite & (np.abs(x) >= 2.0 ** 998)
        if self._big is None:
            self._big = _ExactSum()
        self._big.add(np.ldexp(x[big], -128))
        self._bin(x[finite & ~big])

    def _flush(self) -> None:
        nz = np.flatnonzero(self._bins)
        m, k = np.frexp(self._bins.ravel()[nz])
        for mi, ki in zip(np.ldexp(m, 53).astype(np.int64).tolist(),
                          k.tolist()):
            self._total += mi << (ki + 1074)
        self._bins[:] = 0.0
        self._terms = 0

    def value(self) -> float:
        if self._special:
            return math.fsum(self._special)
        self._flush()
        total = self._total
        if self._big is not None:
            self._big._flush()
            total += self._big._total << 128
        return total / (1 << 1127)  # int division rounds correctly


def pair_sum(P, T, W, E, J) -> float:
    """Sum_{i,j} w_i w_j K(x_i, t_i; x_j, t_j) under the diagonal metric J.

    K = 2 <z, t_i> <z, t_j> / <z, z> - <t_i, t_j>, z = x_i - x_j, <a, b> =
    sum_k J_k a_k b_k, J = (1, 1), (1, 1, 1) or (1, 1, -1).  Pairs on one
    edge (equal E) take the exact value 1.  E must be nondecreasing, as
    Geometry.nodes lays nodes out edge by edge (ValueError otherwise): in
    the row block i0:i1 the same-edge pairs then lie in the columns up to
    the last node of edge E[i1 - 1], a narrow band where the mask is built.
    As K(i, j) is bitwise K(j, i), the diagonal terms and the doubled
    strict-upper terms go into one exact binned reduction, correctly
    rounded, the same bits as math.fsum: the correctly rounded sum of the
    ordered-pair multiset, whatever the row blocking or starting vertex.
    Every block is a view of buffers allocated once per call; the kernel
    fills its workspace through _kernel(..., out).
    """
    n = len(P)
    if (np.diff(E) < 0).any():
        raise ValueError("edge ids E must be nondecreasing")
    # contiguous coordinate and tangent columns
    pc = [np.ascontiguousarray(p) for p in P.T]
    tc = [np.ascontiguousarray(t) for t in T.T]
    W2 = 2.0 * W
    acc = _ExactSum()
    acc.add(W * W)  # the diagonal: one edge, kernel exactly 1
    # a block has at most this many entries: one row, or within the budget
    buf = np.empty((len(pc) + 4, max(_BLOCK_BYTES // 8, n)))
    i0 = 0
    while i0 < n - 1:
        # rows i0:i1 against columns i0+1:n; entry (r, c) is the pair
        # (i0 + r, i0 + 1 + c), in the strict upper triangle when c >= r
        i1 = min(n, i0 + max(1, _BLOCK_BYTES // (8 * (n - i0))))
        rows, cols = slice(i0, i1), slice(i0 + 1, n)
        m, c = i1 - i0, n - i0 - 1
        *d, r2, k0, k1, k2 = (b[:m * c].reshape(m, c) for b in buf)
        for p, dp in zip(pc, d):
            np.subtract(p[rows, None], p[None, cols], out=dp)
        metric_dot(J, d, d, (r2, k0))
        # the kernel restricted to one geodesic edge is identically 1, so
        # same-edge pairs take that value rather than a near-singular one
        band = int(np.searchsorted(E, E[i1 - 1], "right")) - (i0 + 1)
        same = E[rows, None] == E[None, i0 + 1:i0 + 1 + band]
        np.copyto(r2[:, :band], 1.0, where=same)
        K = _kernel(d, [t[rows, None] for t in tc],
                    [t[None, cols] for t in tc], J, r2, (k0, k1, k2))
        np.copyto(K[:, :band], 1.0, where=same)
        terms = np.multiply(K, np.multiply(W2[rows, None], W[None, cols],
                                           out=k1), out=K)
        # entries below the strict upper triangle add zero
        corner = terms[:, :m]
        corner[np.tri(*corner.shape, -1, dtype=bool)] = 0.0
        acc.add(terms)
        i0 = i1
    return acc.value()


def _corner_terms(v, t):
    """Doubled terms Re((conj(t_i)^2 + conj(t_j)^2) S_ij) of the edge pairs
    i < j of the closed polygon v with unit edge tangents t, both complex,
    in row blocks within the budget: entry (r, k) is the pair (i0 + r,
    i0 + 1 + k), 0 unless i < j.  S_ij = (G11 + G00) - (G10 + G01), G =
    z^2 (Log z - 1/2) at z_pq = v_p - v_q, p in {i, i+1}, q in {j, j+1},
    Log continuous on the pair's parallelogram of z.  Log is taken of w =
    +-z, Re w > 0 or Re w = 0 < Im w, so z and -z give the same bits: a
    term depends on its unordered pair alone, not on blocking or starting
    vertex.  Corners flipped alike shift Log by a constant, which changes
    no term; the other pairs get their branch back, Log w + i pi k.
    """
    n = len(v)
    vz = np.append(v, v[0])  # vertex n is vertex 0
    c = 0.5 * np.conj(t) ** 2
    i0 = 0
    while i0 < n - 1:
        # edge rows i0:i1 against edge columns i0+1:n, on vertex rows
        # i0..i1 against vertex columns i0+1..n
        i1 = min(n - 1, i0 + max(1, _BLOCK_BYTES // (16 * (n - i0))))
        z = vz[i0:i1 + 1, None] - vz[None, i0 + 1:]
        flip = (z.real < 0.0) | ((z.real == 0.0) & (z.imag <= 0.0))
        w = np.where(flip, -z, z)
        r2 = w.real * w.real + w.imag * w.imag
        # 2 G = w^2 (log|w|^2 - 1 + 2i arg w); at a zero corner, 0
        g = w * w * ((np.log(np.where(r2 == 0.0, 1.0, r2)) - 1.0)
                     + 2j * np.arctan2(w.imag, w.real))
        s = (g[1:, 1:] + g[:-1, :-1]) - (g[1:, :-1] + g[:-1, 1:])
        alike = ((flip[1:, 1:] == flip[:-1, :-1])
                 & (flip[1:, :-1] == flip[:-1, :-1])
                 & (flip[:-1, 1:] == flip[:-1, :-1]))
        rr, kk = np.nonzero(np.triu(~alike))
        # their corners 11, 00, 10 and 01; k is the flip, or its complement
        # where the args, zero corners left out, span more than pi (the
        # parallelogram crosses the imaginary axis below 0).  As zero
        # corners are flipped, the least k of the others is always 0
        corner = (rr + [[1], [0], [1], [0]], kk + [[1], [0], [0], [1]])
        fk, wk = flip[corner], w[corner]
        zero = wk == 0.0
        turn = np.where(zero, np.nan, np.angle(wk) + np.pi * fk)
        k = fk != (np.fmax.reduce(turn) - np.fmin.reduce(turn) > np.pi)
        kw = np.where(k, wk * wk, 0.0)
        s[rr, kk] += 2j * np.pi * ((kw[0] + kw[1]) - (kw[2] + kw[3]))
        yield np.triu(((c[i0:i1, None] + c[None, i0 + 1:]) * s).real)
        i0 = i1


def double_boundary_integral(curve: ClosedCurve, refinement: int = 1,
                             check_simple: bool = True) -> float:
    """The double integral of the tangent kernel over the polygon, exactly:
    Sum L_i^2 - 2 Sum L_i^2 log L_i + Sum_{i != j} Re(c_ij S_ij), c_ij =
    (conj(t_i)^2 + conj(t_j)^2) / 2 (_corner_terms; README, Numerical
    conventions), in one exact binned reduction.  For a simple positively
    oriented curve it is 4 pi area up to rounding, a few n eps L^2 for n
    vertices and perimeter L.  `refinement` changes nothing;
    midpoint_double_integral is the rule that takes one.
    """
    if check_simple:
        curves.ensure_simple(curve)
    v = curve.vertices[:, 0] + 1j * curve.vertices[:, 1]
    e = np.roll(v, -1) - v
    L = np.abs(e)
    acc = _ExactSum()
    acc.add(L * L)
    acc.add(-2.0 * (L * L) * np.log(L))
    for terms in _corner_terms(v, e / L):
        acc.add(terms)
    return acc.value()


def midpoint_double_integral(curve: ClosedCurve, refinement: int) -> float:
    """double_boundary_integral by the midpoint rule: pair_sum over the
    nodes of each edge cut into `refinement` pieces."""
    P, T, W, E, _, _ = curves.boundary_node_arrays(curve, refinement)
    return pair_sum(P, T, W, E, PLANE.J)


# ---------------------------------------------------------------------------
# interior curl integral in polar coordinates and the Stokes check


def _locate_on_boundary(curve: ClosedCurve, y):
    """Edge index and tangent of the edge containing y; error if off-curve."""
    p = _vec2(y)
    i, d = curves._nearest_edge(curve, p)
    if d > curves.BOUNDARY_TOL_FACTOR * curve.diameter:
        raise curves.CurveError(f"point {p.tolist()} does not lie on the curve")
    v = curve.vertices
    e = v[(i + 1) % len(v)] - v[i]
    return i, e / math.hypot(*e)


def interior_curl_integral(curve: ClosedCurve, y, t_y, n_phi: int = 4096) -> float:
    """Integral over the curve's interior of 2 det(y - x, t_y)/|x - y|^2 dA.

    In polar coordinates centred at the singular point y the integrand times
    the area element is -2 det(w(phi), t_y) dr dphi, bounded; the radial
    integral reduces exactly to the inside-length of each ray, obtained by
    ray casting against the polygon.  Only the angular variable is quadratured
    (midpoint rule on n_phi samples).

    Crossing parity: each vertex's side det(w, v - y) is computed once per
    ray, so a ray through a vertex counts it alike on both of its edges; an
    edge crosses where one side is > 0 and the other is not, at a distance
    interpolated from <v - y, w>.  Beyond its farthest crossing a ray is
    outside, so its inside length is r_K - r_(K-1) + ...  An edge along a
    sample ray stays ill-conditioned, as in any float ray caster.
    """
    curves._require_count("n_phi", n_phi)
    p = _vec2(y)
    t = np.asarray(t_y, float)
    d = curve.vertices - p
    rmin = 1e-12 * curve.diameter
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    w = np.c_[np.cos(phi), np.sin(phi)]
    mu = np.empty(n_phi)
    # blocks of rays whose (rays, vertices) temporaries fit the budget
    step = max(1, _BLOCK_BYTES // (8 * len(d)))
    for r0 in range(0, n_phi, step):
        w0, w1 = w[r0:r0 + step, :1], w[r0:r0 + step, 1:]
        side = w0 * d[:, 1] - w1 * d[:, 0]
        dist = w0 * d[:, 0] + w1 * d[:, 1]
        side1, dist1 = np.roll(side, -1, axis=1), np.roll(dist, -1, axis=1)
        cross = (side > 0) != (side1 > 0)
        lam = np.divide(side, side - side1, out=np.zeros_like(side),
                        where=cross)
        r = dist + (dist1 - dist) * lam
        # descending, non-crossings as zeros, paired off from the top
        r = -np.sort(-np.where(cross & (r > rmin), r, 0.0), axis=1)
        if r.shape[1] % 2:
            r = np.pad(r, ((0, 0), (0, 1)))
        mu[r0:r0 + step] = (r[:, 0::2] - r[:, 1::2]).sum(axis=1)
    dphi = 2.0 * np.pi / n_phi
    detwt = w[:, 0] * t[1] - w[:, 1] * t[0]
    return math.fsum(-2.0 * detwt * mu * dphi)


def stokes_check(curve: ClosedCurve, y, t_y=None, refinement: int = 1,
                 n_phi: int = 4096) -> tuple[float, float]:
    """Boundary integral of <V(y, t_y, .), dx> versus the interior curl
    integral, for a source point y on the curve.

    Returns (lhs, rhs); the two agree up to the quadrature tolerances.  The
    node on y's own edge uses the exact along-edge kernel value 1.
    """
    curves._require_count("n_phi", n_phi)
    edge, edge_tangent = _locate_on_boundary(curve, y)
    t = edge_tangent if t_y is None else np.asarray(_vec2(t_y), float)
    p = _vec2(y)
    pts, tan, wts, eids, _, _ = curves.boundary_node_arrays(curve, refinement)
    d = list((pts - p).T)
    own = eids == edge
    r2 = np.where(own, 1.0, metric_dot((1.0, 1.0), d, d))
    kern = _kernel(d, list(tan.T), t, (1.0, 1.0), r2)
    # along y's own edge the kernel is exactly <t_y, edge tangent> (1 for
    # the canonical tangent), including at the node that coincides with y
    kern = np.where(own, float(t @ edge_tangent), kern)
    lhs = math.fsum(wts * kern)
    rhs = interior_curl_integral(curve, p, t, n_phi=n_phi)
    return lhs, rhs


# ---------------------------------------------------------------------------


def verify_isoperimetric(curve: ClosedCurve,
                         refinement: int | None = None) -> IsoperimetricReport:
    """Full planar report: perimeter, area, exact double integral, sharp
    bound, and with a refinement the midpoint rule's double integral too.

    Requires a simple, positively oriented curve; a negatively oriented
    input raises OrientationError rather than silently flipping signs.
    Computed in units of 2^e, the diameter's power of two, which changes no
    bits where the values are normal floats; a curve whose perimeter^2 or
    area is not one is rejected with CurveError before any arithmetic
    over- or underflows.
    """
    e = math.frexp(curve.diameter)[1]
    unit = ClosedCurve(np.ldexp(curve.vertices, -e))
    L = curves.perimeter(unit)
    k = math.frexp(L)[1] + e  # L = m 2^k, 1/2 <= m < 1
    if not -510 <= k <= 512:
        raise curves.CurveError(f"perimeter squared, about 2^{2 * k}, "
                                "is not a normal float")
    curves.ensure_positive(curve)
    curves.ensure_simple(curve)
    A = curves.signed_area(unit)
    k = math.frexp(A)[1] + 2 * e  # below L^2 / (4 pi), so at most 1024
    if k < -1021:
        raise curves.CurveError(f"area, about 2^{k}, is not a normal float")
    I = double_boundary_integral(unit, check_simple=False)
    rep = IsoperimetricReport.of(PLANE, math.ldexp(L, e),
                                 math.ldexp(A, 2 * e), math.ldexp(I, 2 * e))
    if refinement is None:
        return rep
    mid = midpoint_double_integral(unit, refinement)
    return replace(rep, midpoint_double_integral=math.ldexp(mid, 2 * e))
