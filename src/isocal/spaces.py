"""Constant-curvature counterparts: geodesic polygons on the unit sphere and
on the hyperboloid model of the hyperbolic plane.

Areas come from turning angles (exact for geodesic polygons, no pole or chart
issues); boundary node tangents are sub-arc chords, which at the geodesic
midpoint of a sub-arc lie exactly in the tangent plane.  The hyperbolic
kernel replaces every Euclidean pairing in the three-space kernel with the
Minkowski pairing <a, b> = a1 b1 + a2 b2 - a3 b3; chords between distinct
hyperboloid points are spacelike, so the denominators stay positive.  Its
pointwise norm bound on the hyperboloid is verified empirically by the test
suite, not proved here; reports produced by the CLI flag this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .curves import ClosedCurve, CurveError, Geometry, _box_pairs, metric_dot
from .quadrature import IsoperimetricReport, pair_sum

_MINK = (1.0, 1.0, -1.0)
_EUCLID3 = (1.0, 1.0, 1.0)


def minkowski_dot(a, b) -> float:
    return float(metric_dot(_MINK, np.asarray(a, float), np.asarray(b, float)))


def _rowdot(J, x, y):
    """metric_dot of the rows of x and y."""
    return metric_dot(J, x.T, y.T)


# ---------------------------------------------------------------------------
# spherical curves


def _sphere_lengths(a, b):
    """Great-circle lengths between the rows of a and b."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=1),
                      _rowdot(_EUCLID3, a, b))


SPHERE = Geometry(tag="sphere", K=1.0, J=_EUCLID3, f=np.sin,
                  length=_sphere_lengths,
                  verify="spaces.verify_sphere_isoperimetric")


@dataclass(frozen=True, eq=False)
class SphericalCurve:
    """Geodesic polygon on the unit sphere: unit vertices, great-circle edges.

    Vertex order defines the interior (the region on the left of travel).
    """

    vertices: np.ndarray
    geometry: ClassVar[Geometry] = SPHERE

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 3:
            raise CurveError(f"need (n>=3, 3) vertex array, got {v.shape}")
        norms = np.linalg.norm(v, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise CurveError("vertices must lie on the unit sphere (|v| = 1)")
        dots = np.einsum("ij,ij->i", v, np.roll(v, -1, axis=0))
        if (dots.max() >= 1.0 - 1e-15
                or not np.cross(v, np.roll(v, -1, axis=0)).any(axis=1).all()):
            raise CurveError("consecutive vertices coincide")
        if dots.min() <= -1.0 + 1e-9:
            raise CurveError("consecutive vertices are antipodal")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def sphere_perimeter(curve: SphericalCurve) -> float:
    """Sum of great-circle edge lengths."""
    return SPHERE.perimeter(curve.vertices)


def _turning(v, J):
    """Signed turning angle at each vertex of a geodesic polygon under the
    metric J: the angle from the incoming to the outgoing edge's plane
    normal J (v_i x (v_{i+1} - v_i)), oriented by det(v_i, ., .).  The edge
    difference keeps the normal accurate to rounding for short edges."""
    m = np.cross(v, np.roll(v, -1, axis=0) - v) * J
    p = np.roll(m, 1, axis=0)
    return np.arctan2(_rowdot(_EUCLID3, v, np.cross(p, m)), _rowdot(J, p, m))


def sphere_area(curve: SphericalCurve) -> float:
    """Area by angular excess: 2*pi minus the total turning, in [0, 4*pi).

    Exact for geodesic polygons.  The excess equals the sum of interior
    angles minus (n - 2)*pi.
    """
    area = 2.0 * math.pi - math.fsum(_turning(curve.vertices, _EUCLID3))
    return area % (4.0 * math.pi)


def geodesic_cap(theta: float, n: int) -> SphericalCurve:
    """Regular n-gon at colatitude theta, positively oriented seen from the
    north pole (the enclosed cap contains the pole)."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"colatitude must lie in (0, pi), got {theta}")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    phi = 2.0 * np.pi * np.arange(n) / n
    st, ct = math.sin(theta), math.cos(theta)
    return SphericalCurve(np.c_[st * np.cos(phi), st * np.sin(phi),
                                np.full(n, ct)])


def sphere_boundary_nodes(curve: SphericalCurve, refinement: int = 1):
    """(points, tangents, weights, edge_ids) for arc-length quadrature.

    Nodes are geodesic midpoints of equal sub-arcs; the chord of a sub-arc is
    exactly tangent at its geodesic midpoint, so tangents are normalised
    chords with no extra projection error.
    """
    return SPHERE.nodes(curve.vertices, refinement)[:4]


def sphere_double_integral(curve: SphericalCurve, refinement: int = 1) -> float:
    """Double boundary integral of the three-space tangent kernel restricted
    to the sphere; converges to 4*pi*A - A^2 for the enclosed area A."""
    return pair_sum(*sphere_boundary_nodes(curve, refinement), SPHERE.J)


# Relative error bound of (a x b) . c in floats, against its permanent (the
# sum of |a_k b_l c_m| over its six products): at most five roundings reach
# each product, 5 eps / (1 - 5 eps) on the exact permanent, and the float
# permanent's own rounding stays inside 8 eps.
_DET3_ERRBOUND = 8.0 * 2.0 ** -53


def _plane_signs(nrm, mag, x) -> np.ndarray:
    """Row-wise sign of det(a, b, x) = nrm . x, for nrm = a x b in floats,
    where _DET3_ERRBOUND certifies it against the permanent mag . |x| (mag
    = |a_2 b_3| + |a_3 b_2|, ... componentwise), plus the smallest normal
    for products that underflow; 0 where it does not (the exact call
    decides those)."""
    det = _rowdot(_EUCLID3, nrm, x)
    err = (_DET3_ERRBOUND * _rowdot(_EUCLID3, mag, np.abs(x))
           + np.finfo(float).tiny)
    return (det > err).astype(np.int8) - (det < -err)


def _arcs_meet(a, b, c, d) -> int:
    """0 if the closed great-circle arcs ab and cd are disjoint, 1 if they
    share one point, 2 if they share more (an arc of one great circle).

    Exact on the given coordinates, in Fractions: the arc ab is the cone
    alpha a + beta b (alpha, beta >= 0) of its end rays, so the vertices
    need not be exact unit vectors.  A ray x in ab's plane has alpha and
    beta of the signs of (x x b) . n and (a x x) . n, n = a x b.
    """
    a, b, c, d = (np.array([Fraction(t) for t in p], dtype=object)
                  for p in (a, b, c, d))
    nab, ncd = np.cross(a, b), np.cross(c, d)
    sc, sd, sa, sb = nab @ c, nab @ d, ncd @ a, ncd @ b
    if sc * sd > 0 or sa * sb > 0:
        return 0  # one arc strictly on one side of the other's plane

    def low(x, p, q, n):
        # alpha |n|^2 or beta |n|^2, whichever is smaller
        return min(np.cross(x, q) @ n, np.cross(p, x) @ n)

    if sc == 0 and sd == 0:
        # one great circle: arcs meet where an end lies in the other arc,
        # and overlap where an end lies strictly inside, or the arcs match
        ends = [low(c, a, b, nab), low(d, a, b, nab),
                low(a, c, d, ncd), low(b, c, d, ncd)]
        if max(ends) < 0:
            return 0
        return 2 if max(ends) > 0 or ends[0] == ends[1] == 0 else 1
    # cd meets ab's plane in the ray of the chord point (sc d - sd c)/(sc - sd)
    return int(low((sc * d - sd * c) / (sc - sd), a, b, nab) >= 0)


def _check_simple_sphere(curve: SphericalCurve) -> None:
    """Reject great-circle edges that meet anywhere but at their shared
    vertex, closed arcs: touching counts.

    Candidate pairs come from the box sweep of curves._box_pairs; an arc lies
    in its endpoint box padded on every axis by its sagitta 1 - cos(L/2).
    A pair is apart where the signs of det(v_i, w_i, v_j) and det(v_i, w_i,
    w_j), or of det(v_j, w_j, v_i) and det(v_j, w_j, w_i), certify one arc
    strictly on one side of the other's plane; _arcs_meet decides the rest
    exactly.  Adjacent arcs meet beyond their vertex only on one great
    circle, turning back.  The first meeting pair in vertex order names the
    error: "overlapping great-circle edges" if the two share more than a
    point.
    """
    v = curve.vertices
    n = len(v)
    w = np.roll(v, -1, axis=0)
    u = np.roll(v, -2, axis=0)
    # 1 - cos(L/2) = 2 sin^2(L/4); 1e-11 covers the vertices' 1e-12
    # unit-norm tolerance and rounding
    pad = (2.0 * np.sin(0.25 * _sphere_lengths(v, w)) ** 2 + 1e-11)[:, None]
    nrm = np.cross(v, w)
    r1, r2 = [1, 2, 0], [2, 0, 1]
    mag = np.abs(v[:, r1] * w[:, r2]) + np.abs(v[:, r2] * w[:, r1])
    hits = []  # (i * n + j, overlap) of meeting pairs, i < j
    for i in np.flatnonzero(_plane_signs(nrm, mag, u) == 0):
        if _arcs_meet(v[i], w[i], w[i], u[i]) == 2:
            i, j = sorted((int(i), (int(i) + 1) % n))
            hits.append((i * n + j, True))
    for i, j in _box_pairs(np.minimum(v, w) - pad, np.maximum(v, w) + pad):
        i, j = np.minimum(i, j), np.maximum(i, j)
        far = (j - i > 1) & (j - i < n - 1)
        i, j = i[far], j[far]
        apart = ((_plane_signs(nrm[i], mag[i], v[j])
                  * _plane_signs(nrm[i], mag[i], w[j]) > 0)
                 | (_plane_signs(nrm[j], mag[j], v[i])
                    * _plane_signs(nrm[j], mag[j], w[i]) > 0))
        keys = np.sort(i[~apart] * n + j[~apart])
        for key in keys.tolist():
            if hits and key >= min(hits)[0]:
                break
            meet = _arcs_meet(v[key // n], w[key // n], v[key % n],
                              w[key % n])
            if meet:
                hits.append((key, meet == 2))
                break
    if hits:
        raise CurveError("overlapping great-circle edges" if min(hits)[1]
                         else "spherical curve is self-intersecting")


def verify_sphere_isoperimetric(curve: SphericalCurve,
                                refinement: int = 1) -> IsoperimetricReport:
    """Report with the sharp spherical bound (4*pi - A) * A."""
    _check_simple_sphere(curve)
    return IsoperimetricReport.of(SPHERE, sphere_perimeter(curve),
                                  sphere_area(curve),
                                  sphere_double_integral(curve, refinement))


# ---------------------------------------------------------------------------
# hyperbolic curves on the upper hyperboloid


def _hyperbolic_lengths(a, b):
    """Geodesic lengths 2 asinh(sqrt(<b - a, b - a>) / 2) between the rows of
    a and b: the chord's Minkowski length is 2 sinh(d / 2).  Unlike
    arccosh(-<a, b>) it does not cancel on short edges."""
    c = b - a
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(_rowdot(_MINK, c, c), 0.0)))


HYPERBOLIC = Geometry(
    tag="hyperbolic", K=-1.0, J=_MINK, f=np.sinh,
    length=_hyperbolic_lengths, verify="spaces.verify_hyperbolic_isoperimetric",
    notes=("hyperbolic kernel norm bound |alpha| <= 1 is verified "
           "empirically, not proved",))


@dataclass(frozen=True, eq=False)
class HyperbolicCurve:
    """Geodesic polygon on {<x, x> = -1, x3 > 0} with the Minkowski pairing."""

    vertices: np.ndarray
    geometry: ClassVar[Geometry] = HYPERBOLIC

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 3:
            raise CurveError(f"need (n>=3, 3) vertex array, got {v.shape}")
        quad = v[:, 0] ** 2 + v[:, 1] ** 2 - v[:, 2] ** 2
        if np.abs(quad + 1.0).max() > 1e-10:
            raise CurveError("vertices must lie on the unit hyperboloid")
        if v[:, 2].min() < 1.0 - 1e-12:
            raise CurveError("vertices must lie on the upper sheet (x3 >= 1)")
        # -<v_i, v_{i+1}> = cosh(edge length); 1 means coincident vertices
        cosh_d = -_rowdot(_MINK, v, np.roll(v, -1, axis=0))
        if cosh_d.min() <= 1.0 + 1e-14:
            raise CurveError("consecutive vertices coincide")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def hyperbolic_circle(radius: float, n: int, phase: float = 0.0) -> HyperbolicCurve:
    """Regular n-gon inscribed in the metric circle of given radius about the
    apex (0, 0, 1), positively oriented."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    phi = phase + 2.0 * np.pi * np.arange(n) / n
    sr, cr = math.sinh(radius), math.cosh(radius)
    return HyperbolicCurve(np.c_[sr * np.cos(phi), sr * np.sin(phi),
                                 np.full(n, cr)])


def hyperbolic_perimeter(curve: HyperbolicCurve) -> float:
    """Sum of geodesic edge lengths d(v_i, v_{i+1})."""
    return HYPERBOLIC.perimeter(curve.vertices)


def hyperbolic_area(curve: HyperbolicCurve) -> float:
    """Area by angle defect: total turning minus 2*pi, equivalently
    (n - 2)*pi minus the interior angle sum.  Exact for geodesic polygons."""
    return math.fsum(_turning(curve.vertices, _MINK)) - 2.0 * math.pi


def hyperbolic_boundary_nodes(curve: HyperbolicCurve, refinement: int = 1):
    """(points, tangents, weights, edge_ids); chords of geodesic sub-arcs are
    exactly tangent at the geodesic midpoint, Minkowski-normalised."""
    return HYPERBOLIC.nodes(curve.vertices, refinement)[:4]


def hyperbolic_double_integral(curve: HyperbolicCurve,
                               refinement: int = 1) -> float:
    """Double boundary integral of the Minkowski-analog tangent kernel;
    matches (4*pi + A) * A on the curves tested and equals perimeter^2 on
    metric circles (the equality case)."""
    return pair_sum(*hyperbolic_boundary_nodes(curve, refinement),
                    HYPERBOLIC.J)


def _check_simple_hyperbolic(curve: HyperbolicCurve) -> None:
    """Project to the Klein disk, where geodesics are straight chords, and
    reuse the exact planar simplicity test."""
    v = curve.vertices
    klein = v[:, :2] / v[:, 2:3]
    try:
        flat = ClosedCurve(klein)
    except CurveError as e:
        raise CurveError(f"degenerate hyperbolic polygon: {e}") from e
    if not flat.is_simple:
        raise CurveError("hyperbolic curve is self-intersecting")


def verify_hyperbolic_isoperimetric(curve: HyperbolicCurve,
                                    refinement: int = 1) -> IsoperimetricReport:
    """Report with the sharp hyperbolic bound (4*pi + A) * A."""
    _check_simple_hyperbolic(curve)
    return IsoperimetricReport.of(HYPERBOLIC, hyperbolic_perimeter(curve),
                                  hyperbolic_area(curve),
                                  hyperbolic_double_integral(curve, refinement))


def lorentz_boost(rapidity: float, angle: float = 0.0) -> np.ndarray:
    """Boost of given rapidity along the direction at `angle` in the plane;
    preserves the Minkowski form and the upper sheet."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    B = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return R @ B @ R.T
