"""Integration engines for boundary one-forms, the double boundary integral
of the tangent kernel, and the singular interior curl integral.

Every total is one math.fsum, which returns the correctly rounded sum of
its inputs whatever their order.  The pair sum feeds all of its terms into a
single fsum, so its value is a function of the multiset of terms alone: it
is the same, bit for bit, for any row blocking and any starting vertex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import curves
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


def _edge_winding_integral(a, b, x, tol: float) -> float:
    e0, e1 = b[0] - a[0], b[1] - a[1]
    # det(y(s) - x, e) is independent of s along the edge
    c = (a[0] - x[0]) * e1 - (a[1] - x[1]) * e0
    if c == 0.0:
        return 0.0

    def f(s: float) -> float:
        d0 = a[0] + s * e0 - x[0]
        d1 = a[1] + s * e1 - x[1]
        return 2.0 * c / (d0 * d0 + d1 * d1)

    def rec(s0, s2, f0, f1, f2, whole, depth):
        s1 = 0.5 * (s0 + s2)
        lm = f(0.5 * (s0 + s1))
        rm = f(0.5 * (s1 + s2))
        h = s2 - s0
        left = h / 12.0 * (f0 + 4.0 * lm + f1)
        right = h / 12.0 * (f1 + 4.0 * rm + f2)
        err = left + right - whole
        if depth >= 48 or abs(err) < 15.0 * tol:
            return left + right + err / 15.0
        return rec(s0, s1, f0, lm, f1, left, depth + 1) + rec(
            s1, s2, f1, rm, f2, right, depth + 1
        )

    f0, f1, f2 = f(0.0), f(0.5), f(1.0)
    whole = (f0 + 4.0 * f1 + f2) / 6.0
    return rec(0.0, 1.0, f0, f1, f2, whole, 0)


def winding_integral(curve: ClosedCurve, x, refinement: int = 1,
                     tol: float = 1e-9) -> float:
    """Loop integral of 2 det(y - x, dy)/|y - x|^2; equals 4*pi times the
    winding number up to the quadrature tolerance.

    Each edge is pre-split `refinement` times and then integrated by
    adaptive Simpson with a per-piece budget of tol / #pieces.
    """
    p = curves._require_off_boundary(curve, x)
    *_, starts, ends = PLANE.nodes(curve.vertices, refinement)
    per = tol / len(starts)
    return math.fsum(_edge_winding_integral(a, b, p, per)
                     for a, b in zip(starts, ends))


# ---------------------------------------------------------------------------
# double boundary integral of the tangent kernel

def _kernel(d, ti, tj, J, r2):
    """2 <d, ti> <d, tj> / r2 - <ti, tj> under J, for d = x_i - x_j.  Swapping
    i and j negates d and swaps the dots: K(i, j) is bitwise K(j, i)."""
    return (2.0 * metric_dot(J, d, ti) * metric_dot(J, d, tj) / r2
            - metric_dot(J, ti, tj))


def _refined_terms(SA, SB, T, W, J, i, j, k=8):
    """Doubled terms of the near pairs (i, j) on a k x k midpoint subgrid of
    their two sub-edges, batched within the block budget."""
    s = (np.arange(k) + 0.5) / k
    step = max(1, _BLOCK_BYTES // (8 * k * k))
    for c0 in range(0, len(i), step):
        a, b = i[c0:c0 + step], j[c0:c0 + step]
        d = [(sa[a, None] + s * (sb[a] - sa[a])[:, None])[:, :, None]
             - (sa[b, None] + s * (sb[b] - sa[b])[:, None])[:, None, :]
             for sa, sb in zip(SA.T, SB.T)]
        vals = _kernel(d, [t[a, None, None] for t in T.T],
                       [t[b, None, None] for t in T.T], J, metric_dot(J, d, d))
        wt = 2.0 * (W[a] / k) * (W[b] / k)
        yield (wt[:, None, None] * vals).ravel().tolist()


def _pair_terms(P, T, W, E, J, near):
    n = len(P)
    yield (W * W).tolist()  # the diagonal: one edge, kernel exactly 1
    delta = float(W.max()) / 4.0
    i0 = 0
    while i0 < n - 1:
        # rows i0:i1 against columns i0+1:n; entry (r, c) is the pair
        # (i0 + r, i0 + 1 + c), in the strict upper triangle when c >= r
        i1 = min(n, i0 + max(1, _BLOCK_BYTES // (8 * (n - i0))))
        rows, cols = slice(i0, i1), slice(i0 + 1, n)
        d = [p[rows, None] - p[None, cols] for p in P.T]
        same = E[rows, None] == E[None, cols]
        # the kernel restricted to one geodesic edge is identically 1, so
        # same-edge pairs take that value rather than a near-singular one
        r2 = np.where(same, 1.0, metric_dot(J, d, d))
        K = np.where(same, 1.0, _kernel(d, [t[rows, None] for t in T.T],
                                         [t[None, cols] for t in T.T], J, r2))
        terms = (2.0 * W[rows, None]) * W[None, cols]
        terms *= K
        if near is not None:
            # candidates by r2, then the rule dist < delta itself; a near
            # pair's own term is left out rather than added and subtracted
            rr, cc = np.nonzero(r2 < 1.01 * delta * delta)
            hit = (cc >= rr) & ~same[rr, cc] & (np.sqrt(r2[rr, cc]) < delta)
            rr, cc = rr[hit], cc[hit]
            terms[rr, cc] = 0.0
            yield from _refined_terms(*near, T, W, J, rr + i0, cc + i0 + 1)
        for r in range(i1 - i0):
            yield terms[r, r:].tolist()
        i0 = i1


def pair_sum(P, T, W, E, J, near=None) -> float:
    """Sum_{i,j} w_i w_j K(x_i, t_i; x_j, t_j) under the diagonal metric J.

    K = 2 <z, t_i> <z, t_j> / <z, z> - <t_i, t_j>, z = x_i - x_j, <a, b> =
    sum_k J_k a_k b_k, J = (1, 1), (1, 1, 1) or (1, 1, -1).  Pairs on one
    edge (equal E) take the exact value 1.  With near = (sub_starts,
    sub_ends), cross-edge pairs closer than max(W) / 4 are re-integrated on
    an 8 x 8 midpoint subgrid of their sub-edges.  As K(i, j) is bitwise
    K(j, i), the diagonal terms, the doubled strict-upper terms and the
    subgrid terms go into one math.fsum: the correctly rounded sum of the
    ordered-pair multiset, whatever the row blocking or starting vertex.
    """
    return math.fsum(itertools.chain.from_iterable(
        _pair_terms(P, T, W, E, J, near)))


def double_boundary_integral(curve: ClosedCurve, refinement: int = 1,
                             check_simple: bool = True) -> float:
    """Sum_{i,j} w_i w_j K(x_i, t_i; y_j, t_j) over all boundary node pairs.

    Evaluated symmetrically by pair_sum: the diagonal plus twice the strict
    upper triangle, in one exact sum.  Same-edge pairs use the exact value 1;
    cross-edge pairs closer than max-sub-edge/4 are re-integrated on an 8x
    locally refined subgrid.  For a simple positively oriented curve the
    value converges to 4*pi*area quadratically in the sub-edge length.
    """
    if check_simple:
        curves.ensure_simple(curve)
    P, T, W, E, SA, SB = curves.boundary_node_arrays(curve, refinement)
    return pair_sum(P, T, W, E, (1.0, 1.0), near=(SA, SB))


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


def verify_isoperimetric(curve: ClosedCurve, refinement: int | None = None,
                         check_simple: bool = True) -> IsoperimetricReport:
    """Full planar report: perimeter, area, double integral, sharp bound.

    Requires a simple, positively oriented curve; a negatively oriented
    input raises OrientationError rather than silently flipping signs.
    Computed in units of 2^e, the diameter's power of two, which changes no
    bits where the values are normal floats; a curve whose perimeter^2 is
    not one is rejected with CurveError before any arithmetic overflows.
    """
    e = math.frexp(curve.diameter)[1]
    unit = ClosedCurve(np.ldexp(curve.vertices, -e))
    L = curves.perimeter(unit)
    k = math.frexp(L)[1] + e  # L = m 2^k, 1/2 <= m < 1
    if not -510 <= k <= 512:
        raise curves.CurveError(f"perimeter squared, about 2^{2 * k}, "
                                "is not a normal float")
    curves.ensure_positive(curve)
    if check_simple:
        curves.ensure_simple(curve)
    if refinement is None:
        refinement = auto_refinement(curve)
    A = curves.signed_area(unit)
    I = double_boundary_integral(unit, refinement, check_simple=False)
    return IsoperimetricReport.of(PLANE, math.ldexp(L, e),
                                  math.ldexp(A, 2 * e), math.ldexp(I, 2 * e))
