"""Constant-curvature counterparts: geodesic polygons on the unit sphere and
on the hyperboloid model of the hyperbolic plane.

Areas are exact for geodesic polygons, with no pole or chart issues: turning
angles on the sphere, a fan of triangles from the apex on the hyperboloid.
Boundary node tangents are sub-arc chords, which at the geodesic midpoint of
a sub-arc lie exactly in the tangent plane.  Both curve classes are
curves.Polygon, with its vertex contract and its exact simplicity test
(curves.ensure_simple): a geodesic edge is the section of the cone spanned
by its end rays, as a planar segment is.  The hyperbolic kernel replaces
every Euclidean pairing in the three-space kernel with the Minkowski pairing
<a, b> = a1 b1 + a2 b2 - a3 b3; chords between distinct hyperboloid points
are spacelike, so the denominators stay positive.  Its pointwise norm bound
on the hyperboloid is verified empirically by the test suite, not proved
here; reports produced by the CLI flag this.
"""

from __future__ import annotations

import math

import numpy as np

from . import curves
from .curves import CurveError, Geometry, Polygon, _require_count, metric_dot
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


class SphericalCurve(Polygon):
    """Geodesic polygon on the unit sphere: unit vertices, great-circle
    edges, the interior on the left of travel."""

    geometry = SPHERE
    _meeting_errors = ("spherical curve is self-intersecting",
                       "overlapping great-circle edges")

    def _check_vertices(self, v) -> None:
        norms = np.linalg.norm(v, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise CurveError("vertices must lie on the unit sphere (|v| = 1)")
        dots = np.einsum("ij,ij->i", v, np.roll(v, -1, axis=0))
        if (dots.max() >= 1.0 - 1e-15
                or not np.cross(v, np.roll(v, -1, axis=0)).any(axis=1).all()):
            raise CurveError("consecutive vertices coincide")
        if dots.min() <= -1.0 + 1e-9:
            raise CurveError("consecutive vertices are antipodal")


def sphere_perimeter(curve: SphericalCurve) -> float:
    """Sum of great-circle edge lengths."""
    return SPHERE.perimeter(curve.vertices)


def sphere_area(curve: SphericalCurve) -> float:
    """Area by angular excess: 2*pi minus the total turning, in [0, 4*pi).

    Exact for geodesic polygons.  The excess equals the sum of interior
    angles minus (n - 2)*pi.
    """
    # the turning angle at v_i, from the incoming to the outgoing edge's
    # normal v_i x (v_i+1 - v_i), oriented by det(v_i, ., .); the edge
    # difference keeps the normal accurate to rounding for short edges
    v = curve.vertices
    m = np.cross(v, np.roll(v, -1, axis=0) - v)
    p = np.roll(m, 1, axis=0)
    turning = np.arctan2(_rowdot(_EUCLID3, v, np.cross(p, m)),
                         _rowdot(_EUCLID3, p, m))
    return (2.0 * math.pi - math.fsum(turning)) % (4.0 * math.pi)


def geodesic_cap(theta: float, n: int) -> SphericalCurve:
    """Regular n-gon at colatitude theta, positively oriented seen from the
    north pole (the enclosed cap contains the pole)."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"colatitude must lie in (0, pi), got {theta}")
    _require_count("n", n, 3)
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


def verify_sphere_isoperimetric(curve: SphericalCurve,
                                refinement: int = 1) -> IsoperimetricReport:
    """Report with the sharp spherical bound (4*pi - A) * A, for a simple
    curve (curves.ensure_simple)."""
    curves.ensure_simple(curve)
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


class HyperbolicCurve(Polygon):
    """Geodesic polygon on {<x, x> = -1, x3 > 0} with the Minkowski pairing."""

    geometry = HYPERBOLIC
    _meeting_errors = ("hyperbolic curve is self-intersecting",) * 2

    def _check_vertices(self, v) -> None:
        # |<v, v> + 1| against 1e-10 + 8 eps x3^2: the rounding of <v, v>
        # on generated circles reaches 5.7 eps x3^2, and a vertex moved
        # along its ray by lambda is off by lambda^2 - 1.  From 2^22 on,
        # 8 eps x3^2 passes 2^-5, so the floats no longer fix a vertex's
        # place on its ray to within 1.6 %, and such vertices are rejected.
        if np.abs(v).max() >= 2.0 ** 22 or np.any(np.abs(
                v[:, 0] ** 2 + v[:, 1] ** 2 - v[:, 2] ** 2 + 1.0)
                > 1e-10 + 2.0 ** -49 * v[:, 2] ** 2):
            raise CurveError("vertices must lie on the unit hyperboloid")
        if v[:, 2].min() < 1.0 - 1e-12:
            raise CurveError("vertices must lie on the upper sheet (x3 >= 1)")
        # -<v_i, v_{i+1}> = cosh(edge length); 1 means coincident vertices,
        # and so do vertices on one ray, which span no cone
        cosh_d = -_rowdot(_MINK, v, np.roll(v, -1, axis=0))
        if (cosh_d.min() <= 1.0 + 1e-14
                or not np.cross(v, np.roll(v, -1, axis=0)).any(axis=1).all()):
            raise CurveError("consecutive vertices coincide")


def hyperbolic_circle(radius: float, n: int) -> HyperbolicCurve:
    """Regular n-gon inscribed in the metric circle of given radius about the
    apex (0, 0, 1), positively oriented."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    _require_count("n", n, 3)
    phi = 2.0 * np.pi * np.arange(n) / n
    sr, cr = math.sinh(radius), math.cosh(radius)
    return HyperbolicCurve(np.c_[sr * np.cos(phi), sr * np.sin(phi),
                                 np.full(n, cr)])


def hyperbolic_perimeter(curve: HyperbolicCurve) -> float:
    """Sum of geodesic edge lengths d(v_i, v_{i+1})."""
    return HYPERBOLIC.perimeter(curve.vertices)


def hyperbolic_area(curve: HyperbolicCurve) -> float:
    """Area by angle defect, total turning minus 2*pi: A if positively
    oriented, -4*pi - A if not, where the bound (4*pi + a) * a is the same.
    A fan of geodesic triangles (c, a, b) from the apex c = (0, 0, 1) gives
    the signed area, each tan(A/2) = det(c, a, b) / (1 - <c,a> - <a,b> -
    <b,c>) (Van Oosterom & Strackee's solid-angle formula under the
    Minkowski form), in one fsum.  Its denominator 1 + a3 + b3 + cosh d(a,
    b) >= 4 cancels nothing, so far-out polygons keep their digits."""
    a = curve.vertices
    b = np.roll(a, -1, axis=0)
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    fan = 2.0 * math.fsum(np.arctan2(det, 1.0 + a[:, 2] + b[:, 2]
                                     - _rowdot(_MINK, a, b)))
    return fan if fan >= 0.0 else fan - 4.0 * math.pi


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


def verify_hyperbolic_isoperimetric(curve: HyperbolicCurve,
                                    refinement: int = 1) -> IsoperimetricReport:
    """Report with the sharp hyperbolic bound (4*pi + A) * A, for a simple
    curve (curves.ensure_simple)."""
    curves.ensure_simple(curve)
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
