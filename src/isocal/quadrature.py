"""Integration engines for boundary one-forms, the double boundary integral
of the tangent kernel, and the singular interior curl integral.

The planar double integral is exact: of its corner sum over edge pairs
only the Log branch terms remain, on the pairs whose x-ranges overlap; the
midpoint rule, pair_sum, serves all three geometries.  Every total is
correctly rounded: the short sums are one math.fsum each, and the branch
and pair sums, up to millions of terms, one exact binned reduction each
(two float halves per term, np.bincount by sign and exponent), the same
bits as math.fsum.  Either way a total is a function of the multiset of
its terms alone: the same, bit for bit, for any blocking and any starting
vertex.  Blocks stay within the byte budget curves._BLOCK_BYTES.  Every
row block of the pair sum is a view of buffers allocated once per call,
which the kernel fills through _kernel(..., out).  As nodes come edge by
edge, the pair sum adds its same-edge pairs in closed form, and its
blocks' columns start past the row's edge.  The winding
integral is exact too, twice the sum of the angles the edges subtend at
the point, and so is the interior curl integral, one closed-form term per
fan triangle from its singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import curves
# auto_refinement stays importable here: perfbench/harness.py calls it
from .curves import PLANE, ClosedCurve, auto_refinement, metric_dot, _vec2


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


def winding_integral(curve: ClosedCurve, x) -> float:
    """Loop integral of 2 det(y - x, dy)/|y - x|^2, exactly: the one-form is
    2 dtheta, so the integral is twice the sum of the angles the edges
    subtend at x, in one fsum (curves._subtended_angles).  It is 4 pi times
    the winding number up to rounding, a few n eps for n vertices; the same
    bits from any starting vertex, negated under reversal.
    """
    return 2.0 * math.fsum(curves._subtended_angles(curve, x))


# ---------------------------------------------------------------------------
# double boundary integral of the tangent kernel

def _kernel(d, ti, tj, J, r2, out=None):
    """2 <d, ti> <d, tj> / r2 - <ti, tj> under J, for d = x_i - x_j, in that
    order of ufuncs.  Swapping i and j negates d and swaps the dots: K(i, j)
    is bitwise K(j, i).  out = (w, u, s), contiguous arrays of the result's
    shape or None, are the ufuncs' out targets; with arrays, nothing is
    allocated and the result is w."""
    w, u, s = out or (None, None, None)
    k = np.multiply(2.0, metric_dot(J, d, ti, (w, s)), out=w)
    k = np.multiply(k, metric_dot(J, d, tj, (u, s)), out=w)
    k = np.divide(k, r2, out=w)
    return np.subtract(k, metric_dot(J, ti, tj, (u, s)), out=w)


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

    def __init__(self, size: int = 0):
        self._bins = np.zeros((2, 4096))  # the sums of hi and of lo per bin
        self._terms = 0  # binned since the last flush
        self._total = 0
        self._special = []  # the non-finite terms
        # bin indices, hi then lo: room for size terms, grown by larger adds
        self._buf = np.empty((2, size), np.uint64)
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

    def add_copies(self, x: float, count: int) -> None:
        """Add count >= 0 copies of the float x, exactly for any count: one
        Python-int product in the units of _flush, 2^-1127, which hold
        every finite float as an integer.  A non-finite x decides the
        result as one copy does in fsum."""
        if count == 0:
            return
        if not math.isfinite(x):
            self._special.append(x)
            return
        p, q = x.as_integer_ratio()  # q is a power of two
        self._total += count * p * ((1 << 1127) // q)

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
    sum_k J_k a_k b_k, J = (1, 1), (1, 1, 1) or (1, 1, -1).  E must be
    nondecreasing, as Geometry.nodes lays nodes out edge by edge, and W
    constant on each run of equal E, an edge (ValueError otherwise).  On
    one geodesic edge K is identically 1, so the pairs of an edge of m
    nodes of weight w are summed in closed form: the diagonal terms w w
    and m (m - 1) / 2 copies of the doubled term (2 w) w
    (_ExactSum.add_copies).  As K(i, j) is bitwise K(j, i), the kernel
    sees only the pairs i < j of distinct edges, doubled: rows i0:i1
    against the columns c0:n past row i0's edge.  Rows that reach past c0,
    into later edges, meet their own and earlier edges in the columns up
    to the end of edge E[i1 - 1], a narrow band where those entries are
    masked to zero.  Every term goes into one exact binned reduction,
    correctly rounded, the same bits as math.fsum: the correctly rounded
    sum of the ordered-pair multiset, whatever the row blocking or
    starting vertex.  Every block is a view of buffers allocated once per
    call; the kernel fills its workspace through _kernel(..., out).
    """
    n = len(P)
    if (np.diff(E) < 0).any():
        raise ValueError("edge ids E must be nondecreasing")
    # the runs of equal E: edge k holds the nodes starts[k]:ends[k]
    starts = np.flatnonzero(np.diff(E, prepend=np.nan))
    ends = np.append(starts[1:], n)
    m = ends - starts
    if (W != np.repeat(W[starts], m)).any():
        raise ValueError("weights W must be constant on each edge")
    # a block has at most this many entries: one row, or within the budget
    budget = curves._BLOCK_BYTES
    size = max(budget // 8, n)
    acc = _ExactSum(size)
    acc.add(W * W)  # the diagonal
    w, k = W[starts[m > 1]], m[m > 1]
    for x, count in zip(((2.0 * w) * w).tolist(), (k * (k - 1) // 2).tolist()):
        acc.add_copies(x, count)
    # contiguous coordinate and tangent columns
    pc = [np.ascontiguousarray(p) for p in P.T]
    tc = [np.ascontiguousarray(t) for t in T.T]
    W2 = 2.0 * W
    past = np.repeat(ends, m)  # the first node past each node's edge
    buf = np.empty((len(pc) + 4, size))
    i0, last = 0, starts[-1] if n else 0  # the last edge's rows pair nothing
    while i0 < last:
        # rows i0:i1 against columns c0:n; entry (r, c) is the pair
        # (i0 + r, c0 + c)
        c0 = int(past[i0])
        i1 = min(last, i0 + max(1, budget // (8 * (n - c0))))
        rows, cols = slice(i0, i1), slice(c0, n)
        *d, r2, k0, k1, k2 = (b[:(i1 - i0) * (n - c0)].reshape(i1 - i0, -1)
                              for b in buf)
        for p, dp in zip(pc, d):
            np.subtract(p[rows, None], p[None, cols], out=dp)
        metric_dot(J, d, d, (r2, k0))
        band = int(past[i1 - 1]) - c0
        if band > 0:
            # pairs on the row's own edge, summed in closed form, or with j
            # on an earlier one, summed as (j, i); r2 = 1 spares i = j 0 / 0
            done = E[None, c0:c0 + band] <= E[rows, None]
            np.copyto(r2[:, :band], 1.0, where=done)
        K = _kernel(d, [t[rows, None] for t in tc],
                    [t[None, cols] for t in tc], J, r2, (k0, k1, k2))
        terms = np.multiply(K, np.multiply(W2[rows, None], W[None, cols],
                                           out=k1), out=K)
        if band > 0:
            np.copyto(terms[:, :band], 0.0, where=done)
        acc.add(terms)
        i0 = i1
    return acc.value()


def _branch_terms(vz, c, i, j):
    """Doubled terms Re((conj(t_i)^2 + conj(t_j)^2) S_ij) of the edge
    pairs (i, j), i != j, of the closed polygon vz (complex, vertex n
    repeated as n + 1), with c = conj(t)^2 / 2 of its unit edge tangents
    t.  S_ij = i pi (k w^2 at corners 11 + 00 - 10 - 01), at z_pq = v_p -
    v_q, p in {i, i+1}, q in {j, j+1}, is what the Log branch adds to the
    pair's second difference of G = z^2 (Log z - 1/2).  Log is taken of w
    = +-z, Re w > 0 or Re w = 0 < Im w, so z and -z give the same bits.
    Corners flipped alike shift Log by a constant, which adds no term, so
    such pairs give 0; the others get Log w + i pi k back, k the flip, or
    its complement where the args, zero corners left out, span more than
    pi (the parallelogram crosses the imaginary axis below 0).  As zero
    corners are flipped, the least k of the others is always 0.  Swapping
    i and j negates the nonzero corners, which complements both their
    flips and the span test: k, and the term, depend on the unordered pair
    alone.
    """
    # corners 11, 00, 10 and 01 of each pair
    z = vz[[i + 1, i, i + 1, i]] - vz[[j + 1, j, j, j + 1]]
    flip = (z.real < 0.0) | ((z.real == 0.0) & (z.imag <= 0.0))
    w = np.where(flip, -z, z)
    turn = np.where(w == 0.0, np.nan, np.angle(w) + np.pi * flip)
    k = flip != (np.fmax.reduce(turn) - np.fmin.reduce(turn) > np.pi)
    k &= (flip != flip[0]).any(axis=0)  # pairs flipped alike add 0
    kw = np.where(k, w * w, 0.0)
    s = 2j * np.pi * ((kw[0] + kw[1]) - (kw[2] + kw[3]))
    return ((c[i] + c[j]) * s).real


def double_boundary_integral(curve: ClosedCurve) -> float:
    """The double integral of the tangent kernel over the polygon, exactly:
    the Log branch terms of the corner sum, Sum_{i != j} Re(c_ij S_ij),
    c_ij = (conj(t_i)^2 + conj(t_j)^2) / 2 (_branch_terms; README,
    Numerical conventions), in one exact binned reduction.  Every other
    term of the corner sum cancels, and a pair has branch terms only where
    the closed x-ranges of its edges overlap, as its corners' flips compare
    vertices lexicographically, so only those pairs are visited
    (curves._box_pairs on 1-D boxes), in chunks within the budget.  For a
    simple positively oriented curve it is 4 pi area up to rounding, a few
    eps times the sum of the terms' magnitudes.  midpoint_double_integral
    is the rule that takes a refinement.
    """
    curves.ensure_simple(curve)
    v = curve.vertices[:, 0] + 1j * curve.vertices[:, 1]
    vz = np.append(v, v[0])  # vertex n is vertex 0
    e = np.diff(vz)
    c = 0.5 * np.conj(e / np.abs(e)) ** 2
    x = vz.real
    lo, hi = np.minimum(x[:-1], x[1:]), np.maximum(x[:-1], x[1:])
    step = max(1, curves._BLOCK_BYTES // 64)  # pairs of 4 complex corners
    acc = _ExactSum()
    for i, j in curves._box_pairs(lo[:, None], hi[:, None]):
        for k0 in range(0, len(i), step):
            acc.add(_branch_terms(vz, c, i[k0:k0 + step], j[k0:k0 + step]))
    return acc.value()


def midpoint_double_integral(curve: ClosedCurve, refinement: int) -> float:
    """double_boundary_integral by the midpoint rule: pair_sum over the
    nodes of each edge cut into `refinement` pieces."""
    P, T, W, E, _, _ = curves.boundary_node_arrays(curve, refinement)
    return pair_sum(P, T, W, E, PLANE.J)


# ---------------------------------------------------------------------------
# interior curl integral over the fan triangles, and the Stokes check


def _locate_on_boundary(curve: ClosedCurve, y):
    """Edge index and tangent of the edge containing y; error if off-curve."""
    p = _vec2(y)
    i, d = curves._nearest_edge(curve, p)
    if d > curves.BOUNDARY_TOL_FACTOR * curve.diameter:
        raise curves.CurveError(f"point {p.tolist()} does not lie on the curve")
    v = curve.vertices
    e = v[(i + 1) % len(v)] - v[i]
    return i, e / math.hypot(*e)


def interior_curl_integral(curve: ClosedCurve, y, t_y) -> float:
    """Integral over the curve's interior of 2 det(y - x, t_y)/|x - y|^2 dA,
    exactly, for any y: the fan triangles (y, v_k, v_k+1) cover the
    interior with winding-number weights, and in polar coordinates about y
    triangle k adds J_k = -2 (D_k / |e_k|) (<t_y, u_k> theta_k + det(u_k,
    t_y) log(|d_k+1| / |d_k|)), d_k = v_k - y, D_k = det(d_k, d_k+1), e_k =
    d_k+1 - d_k = |e_k| u_k and theta_k the angle edge k subtends at y
    (curves._fan; README, Numerical conventions).  A degenerate triangle,
    D_k = 0, adds 0.  One fsum in units of a power of two: the same bits
    from any starting vertex and at any power-of-two scale, negated under
    reversal.
    """
    t = _vec2(t_y)
    d, d1, D, theta, scale = curves._fan(curve, _vec2(y))
    edge = d1 - d
    L = np.hypot(*edge.T)
    u0, u1 = edge[:, 0] / L, edge[:, 1] / L
    r = np.hypot(*d.T)
    log_r = np.log(np.where(r > 0.0, r, 1.0))  # r = 0, y at a vertex: D = 0
    terms = -2.0 * (D / L) * ((u0 * t[0] + u1 * t[1]) * theta
                              + (u0 * t[1] - u1 * t[0])
                              * (np.roll(log_r, -1) - log_r))
    return math.ldexp(math.fsum(terms), scale)


def stokes_check(curve: ClosedCurve, y, t_y=None,
                 refinement: int = 1) -> tuple[float, float]:
    """Boundary integral of <V(y, t_y, .), dx> versus the interior curl
    integral, for a source point y on the curve.

    Returns (lhs, rhs): the midpoint rule with `refinement` pieces per edge
    and the exact interior integral, which agree up to the midpoint rule's
    error.  The node on y's own edge uses the exact along-edge kernel value.
    """
    edge, edge_tangent = _locate_on_boundary(curve, y)
    t = edge_tangent if t_y is None else _vec2(t_y)
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
    rhs = interior_curl_integral(curve, p, t)
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
    curves.ensure_simple(unit)
    A = curves.signed_area(unit)
    k = math.frexp(A)[1] + 2 * e  # below L^2 / (4 pi), so at most 1024
    if k < -1021:
        raise curves.CurveError(f"area, about 2^{k}, is not a normal float")
    I = double_boundary_integral(unit)
    rep = IsoperimetricReport.of(PLANE, math.ldexp(L, e),
                                 math.ldexp(A, 2 * e), math.ldexp(I, 2 * e))
    if refinement is None:
        return rep
    mid = midpoint_double_integral(unit, refinement)
    return replace(rep, midpoint_double_integral=math.ldexp(mid, 2 * e))
