"""Integration engines for boundary one-forms, the double boundary integral
of the tangent kernel, and the singular interior curl integral.

The planar double integral is exact: of its corner sum over edge pairs
only the Log branch terms remain, on the pairs whose x-ranges overlap; the
midpoint rule, pair_sum, serves all three geometries.  Every total is
correctly rounded: the short sums are one math.fsum each, and the branch
and pair sums, up to millions of terms, one exact reduction each, the
bits of math.fsum wherever fsum returns one.  Both exact reductions,
_ExactSum of a 1-D stream and _row_sums of every row of a 2-D block (the
Mayer actions' Simpson sums), run one level loop, _levels, fixed-grid
extraction with one sigma per block; rows off that grid go to _ExactSum.
Either way a total is a function of the multiset of its terms alone: the
same, bit for bit, for any blocking and any starting vertex.  Blocks stay
within the byte budget curves._BLOCK_BYTES.  Every row block of the pair
sum is a view of buffers allocated once per call, which the kernel fills
through _kernel(..., out); pointwise callers enter through _pair_kernel,
with arrays components first as the pair sum's own.
Those buffers and the exact reduction's start each row on a 64-byte cache line
(curves._workspace), since the pair sum ran 14-35 % slower on rows that
straddle lines.  As nodes come edge by edge, the pair sum adds its
same-edge pairs in closed form, and its blocks' columns start past the
row's edge.  The winding integral is exact too, twice the sum of the
angles the edges subtend at the point, and so is the interior curl
integral, one closed-form term per fan triangle from its singular point.
"""

from __future__ import annotations

import functools
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
    return 2.0 * math.fsum(curves._subtended_angles(curve, x).tolist())


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


def _pair_kernel(z, a, b):
    """K(z; a, b) = a^T m(z) b: the one pointwise entry to _kernel, under
    the identity metric.  The first axis of z, a and b is the component,
    as in _kernel's component arrays; the batch axes come after it and
    broadcast against each other, so a single vector of shape (dim,)
    serves a whole batch.  With the samples innermost every ufunc pass
    runs along them, not along axes of length 2 or 3.  z is first scaled
    by the power of two that brings its largest component into [1/2, 1):
    K has degree 0 in z, so this changes no bits where |z|^2 is a normal
    number, and keeps the kernel finite at any separation."""
    z, a, b = (np.asarray(v, float) for v in (z, a, b))
    _, e = np.frexp(functools.reduce(np.maximum, np.abs(z)))
    d = np.ldexp(z, -e)
    J = (1.0,) * len(d)
    return _kernel(d, a, b, J, metric_dot(J, d, d))


# The most terms one extraction takes: below 2^998 and at most 2^24 of
# them, sigma = 2^k stays at most 2^1023 and x + sigma finite.
_CHUNK_TERMS = 1 << 24
# Terms from here on are summed scaled by 2^-128.
_BIG = 2.0 ** 998


class _ExactSum:
    """Exact sum of float64 arrays, rounded once: the bits of math.fsum
    over the same terms wherever fsum returns one.

    Fixed-grid extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation I", SIAM J. Sci. Comput. 31, 2008, ExtractVector; Demmel &
    Nguyen, IEEE TC 2015).  A chunk of n <= 2^24 terms below 2^e in
    magnitude takes sigma = 2^k, k = e + b, b the bit length of n, so n 2^e
    < 2^k.  q = (x + sigma) - sigma is x rounded to a multiple of
    2^(k-53), at most 2^e in magnitude, and r = x - q, the rounding error
    of x + sigma, is exact and at most 2^(k-53).  Every partial sum of the
    q is then a multiple of 2^(k-53) below 2^k: np.add.reduce adds them
    exactly in any order, and the sum goes into an exact Python int in
    units of 2^-1127 (add_copies).  The residues r take the next grid, k
    - 52 + b; after two levels, nonzero residues start again from their
    own maximum.  Once k <= -1021 the terms are added directly: every
    partial sum is a multiple of 2^-1074 below 2^-1021, a float.  This
    level loop, one sigma per chunk, is _levels, which _row_sums shares.
    value() divides the total by 2^1127 with one correct rounding.  Terms
    of 2^998 and above go exactly scaled by 2^-128 into a second
    accumulator, so that k <= 998 + 25 keeps sigma and x + sigma finite.
    Non-finite terms decide the result alone, as in fsum: value() is then
    math.fsum of them.  A sum beyond the float range raises OverflowError,
    as fsum does, but a partial sum beyond it does not.  The q and r of a
    level share one curves._workspace, each row on a cache line, so that
    the level's four passes over them split no loads across lines.
    """

    def __init__(self, size: int = 0):
        self._total = 0  # in units of 2^-1127
        self._special = []  # the non-finite terms
        # q and r of one level: room for size terms, grown by larger adds
        self._buf = curves._workspace(2, size)
        self._big = None  # the terms of 2^998 and above, times 2^-128

    def add(self, x) -> None:
        x = np.ascontiguousarray(x, dtype=np.float64).ravel()
        for k0 in range(0, len(x), _CHUNK_TERMS):
            self._extract(x[k0:k0 + _CHUNK_TERMS])

    def _extract(self, x) -> None:
        n = len(x)
        if not n:
            return
        hi, lo = x.max(), x.min()
        if not (hi < _BIG and lo > -_BIG):  # also false for nan
            finite = np.isfinite(x)
            self._special.extend(x[~finite].tolist())
            big = finite & (np.abs(x) >= _BIG)
            if self._big is None:
                self._big = _ExactSum()
            self._big.add(np.ldexp(x[big], -128))
            self._extract(x[finite & ~big])
            return
        if self._buf.shape[1] < n:
            self._buf = curves._workspace(2, n)
        q, r = self._buf[:, :n]
        for level in _levels(x, max(hi, -lo), q, r):
            self.add_copies(level, 1)

    def add_copies(self, x: float, count: int) -> None:
        """Add count >= 0 copies of the float x, exactly for any count: one
        Python-int product in units of 2^-1127, which hold every finite
        float as an integer.  A non-finite x decides the result as one
        copy does in fsum."""
        if count == 0:
            return
        if not math.isfinite(x):
            self._special.append(x)
            return
        p, q = x.as_integer_ratio()  # q is a power of two
        self._total += count * p * ((1 << 1127) // q)

    def value(self) -> float:
        if self._special:
            return math.fsum(self._special)
        total = self._total
        if self._big is not None:
            total += self._big._total << 128
        return total / (1 << 1127)  # int division rounds correctly


def _levels(x, top, q, r):
    """The level sums of the fixed-grid extraction of x, float64 of at most
    2^24 terms along its last axis, each of magnitude at most top < 2^998:
    np.add.reduce(q, axis=-1) of each level, exact by the _ExactSum
    docstring, on one grid for the whole block.  q and r are workspaces of
    x's shape; r may be x itself, which then ends as the residues."""
    b = x.shape[-1].bit_length()
    while top:
        k = math.frexp(top)[1] + b
        for _ in range(2):
            if k <= -1021:
                yield np.add.reduce(x, axis=-1)
                return
            sigma = math.ldexp(1.0, k)
            np.subtract(np.add(x, sigma, out=q), sigma, out=q)
            x = np.subtract(x, q, out=r)
            yield np.add.reduce(q, axis=-1)
            k += b - 52
        top = max(x.max(), -x.min())


def _row_sums(x) -> np.ndarray:
    """The exact sum of each row of the 2-D float64 array x, rounded once.

    All rows go through one fixed-grid extraction, _levels, with one sigma
    for the whole block from its largest term: each level's
    np.add.reduce(q, axis=-1) is exact per row, and one math.fsum per row
    adds the row's level sums with one correct rounding.  The one cost of
    the shared sigma: two levels take every term within 52 - 2b binades of
    the block's top, b the bit length of the row length (32 for rows of
    1000), and a lower row takes further levels over the whole block; the
    rows of the built-in problems' Simpson blocks have tops within 14
    binades.  Rows off that grid (a non-finite term or one of 2^998 or
    more, all zeros, past 2^24 terms) go to _ExactSum.  When every row is
    on it, the levels work in x itself, a float64 x then ends as the
    residues: pass a copy to keep it."""
    given = np.asarray(x, dtype=np.float64)
    e = np.maximum(given.max(axis=1, initial=0.0),
                   -given.min(axis=1, initial=0.0))  # nan for a nan
    plain = (e > 0) & (e < _BIG) & (given.shape[1] <= _CHUNK_TERMS)
    x = given if plain.all() else given[plain]  # reduced to its residues
    levels = _levels(x, e[plain].max(initial=0.0), np.empty_like(x), x)
    out = np.empty(len(given))
    out[plain] = [math.fsum(row) for row in
                  zip(*(sums.tolist() for sums in levels))]
    for i in np.flatnonzero(~plain).tolist():
        acc = _ExactSum()
        acc.add(given[i])
        out[i] = acc.value()
    return out


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
    masked to zero.  Every term goes into one exact reduction, _ExactSum,
    the same bits as math.fsum: the correctly rounded sum of the
    ordered-pair multiset, whatever the row blocking or starting vertex.
    Every block is a view of buffers allocated once per call; the kernel
    fills its workspace through _kernel(..., out).  Each buffer is a row of
    one curves._workspace and starts on a cache line: the 30-40 ufunc passes
    of a block took 14-35 % longer on rows 8, 16 or 32 bytes past one, with
    the same bits (curves._CACHE_LINE).
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
    buf = curves._workspace(len(pc) + 4, size)
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
        # 0 / 0 where two nodes coincide, i = j in the band included
        with np.errstate(divide="ignore", invalid="ignore"):
            K = _kernel(d, [t[rows, None] for t in tc],
                        [t[None, cols] for t in tc], J, r2, (k0, k1, k2))
        terms = np.multiply(K, np.multiply(W2[rows, None], W[None, cols],
                                           out=k1), out=K)
        band = int(past[i1 - 1]) - c0
        if band > 0:
            # pairs on the row's own edge, summed in closed form, or with j
            # on an earlier one, summed as (j, i)
            np.copyto(terms[:, :band], 0.0,
                      where=E[None, c0:c0 + band] <= E[rows, None])
        acc.add(terms)
        if acc._special:
            r, c = np.unravel_index(np.argmin(np.isfinite(terms)), terms.shape)
            i, j = i0 + int(r), c0 + int(c)
            raise curves.CurveError(f"nodes {i} and {j} of edges {E[i]} and "
                                    f"{E[j]} coincide to rounding")
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
    Numerical conventions), in one exact reduction.  Every other
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


def interior_curl_integral(curve: ClosedCurve, y, t_y) -> float:
    """Integral over the curve's interior of 2 det(y - x, t_y)/|x - y|^2 dA,
    in closed form for any y: the fan triangles (y, v_k, v_k+1) cover the
    interior with winding-number weights, and in polar coordinates about y
    triangle k adds J_k = -2 (D_k / |e_k|) (<t_y, u_k> theta_k + det(u_k,
    t_y) log(|d_k+1| / |d_k|)), d_k = v_k - y, D_k = det(d_k, d_k+1), e_k =
    d_k+1 - d_k = |e_k| u_k and theta_k the angle edge k subtends at y
    (curves._fan alone: y may lie anywhere, so nothing is projected;
    README, Numerical conventions).  A degenerate triangle, D_k = 0, adds
    0.  One fsum in units of a power of two: the same bits from any
    starting vertex and at any power-of-two scale, negated under reversal.
    The error is at most n eps max |v_k - y|, and the value falls as 1/|y|:
    relative, 2e-10 at 100 diameters off, order 1 at 1e8 (README).
    """
    t = _vec2(t_y)
    d, D, theta, scale = curves._fan(curve, _vec2(y))
    edge = np.diff(d)
    L = np.hypot(*edge)
    u0, u1 = edge / L
    r = np.hypot(*d)
    log_r = np.log(np.where(r > 0.0, r, 1.0))  # r = 0, y at a vertex: D = 0
    terms = -2.0 * (D / L) * ((u0 * t[0] + u1 * t[1]) * theta
                              + (u0 * t[1] - u1 * t[0]) * np.diff(log_r))
    return math.ldexp(math.fsum(terms), scale)


def stokes_check(curve: ClosedCurve, y, t_y=None,
                 refinement: int = 1) -> tuple[float, float]:
    """Boundary integral of <V(y, t_y, .), dx> versus the interior curl
    integral, for a source point y on the curve.

    Returns (lhs, rhs): the midpoint rule with `refinement` pieces per edge
    and the exact interior integral, which agree up to the midpoint rule's
    error.  The on-curve test and y's own edge, the first nearest one, come
    from the fan and projection of y (curves._fan, curves._projection);
    interior_curl_integral then makes its own fan pass, without a
    projection.  Along y's own edge the kernel takes its exact value;
    elsewhere it is _pair_kernel's.
    """
    p = _vec2(y)
    d, _, _, scale = curves._fan(curve, p)
    edge, gap = curves._projection(curve, p, d, scale)
    if gap > math.ldexp(curves.BOUNDARY_TOL_FACTOR * curve.diameter, -scale):
        raise curves.CurveError(f"point {p.tolist()} does not lie on the curve")
    e = curve._closed[1][:, edge]
    edge_tangent = e / math.hypot(*e)
    t = edge_tangent if t_y is None else _vec2(t_y)
    pts, tan, wts, eids, _, _ = curves.boundary_node_arrays(curve, refinement)
    own = eids == edge
    # along y's own edge the kernel is exactly <t_y, edge tangent> (1 for
    # the canonical tangent), including at the node that coincides with y
    kern = _pair_kernel(np.where(own, 1.0, pts.T - p[:, None]), tan.T, t)
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
    v, e = curve._unit
    unit = ClosedCurve(v)
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
