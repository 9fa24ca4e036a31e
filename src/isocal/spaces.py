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
                  verify="spaces.verify_sphere_isoperimetric",
                  default_refinement=lambda curve: 1)


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
        if dots.max() >= 1.0 - 1e-15:
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


def _check_simple_sphere(curve: SphericalCurve) -> None:
    """Reject crossing great-circle edges.

    Candidate pairs come from the box sweep of curves._box_pairs; an arc lies
    in its endpoint box padded on every axis by its sagitta 1 - cos(L/2).
    Two non-adjacent arcs cross when each one's great circle strictly
    separates the other's endpoints and a common point of the two circles
    lies in both arcs' hemispheres; the first such pair in vertex order
    names the error.
    """
    v = curve.vertices
    n = len(v)
    w = np.roll(v, -1, axis=0)
    nrm = np.cross(v, w)
    # 1 - cos(L/2) = 2 sin^2(L/4); 1e-11 covers the vertices' 1e-12
    # unit-norm tolerance and rounding
    pad = (2.0 * np.sin(0.25 * _sphere_lengths(v, w)) ** 2 + 1e-11)[:, None]

    def dot(x, y):
        return _rowdot(_EUCLID3, x, y)

    first = None  # (i * n + j, overlap) of the first hit pair, i < j
    for i, j in _box_pairs(np.minimum(v, w) - pad, np.maximum(v, w) + pad):
        i, j = np.minimum(i, j), np.maximum(i, j)
        far = (j - i > 1) & (j - i < n - 1)
        i, j = i[far], j[far]
        crossing = ((dot(v[j], nrm[i]) * dot(w[j], nrm[i]) < 0)
                    & (dot(nrm[j], v[i]) * dot(nrm[j], w[i]) < 0))
        i, j = i[crossing], j[crossing]
        p = np.cross(nrm[i], nrm[j])
        overlap = np.linalg.norm(p, axis=1) < 1e-15
        hi, hj = dot(p, v[i] + w[i]), dot(p, v[j] + w[j])
        meet = ((hi > 0) & (hj > 0)) | ((hi < 0) & (hj < 0))
        hit = np.flatnonzero(overlap | meet)
        if len(hit):
            k = hit[np.argmin(i[hit] * n + j[hit])]
            if first is None or i[k] * n + j[k] < first[0]:
                first = (i[k] * n + j[k], overlap[k])
    if first is not None:
        raise CurveError("overlapping great-circle edges" if first[1]
                         else "spherical curve is self-intersecting")


def verify_sphere_isoperimetric(curve: SphericalCurve,
                                refinement: int = 1,
                                check_simple: bool = True) -> IsoperimetricReport:
    """Report with the sharp spherical bound (4*pi - A) * A."""
    if check_simple:
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
    default_refinement=lambda curve: 1,
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
                                    refinement: int = 1,
                                    check_simple: bool = True) -> IsoperimetricReport:
    """Report with the sharp hyperbolic bound (4*pi + A) * A."""
    if check_simple:
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
