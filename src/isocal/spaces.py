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

import numpy as np

from .curves import ClosedCurve, CurveError
from .quadrature import IsoperimetricReport, metric_dot, pair_sum

_MINK = np.array([1.0, 1.0, -1.0])
_EUCLID3 = (1.0, 1.0, 1.0)


def minkowski_dot(a, b) -> float:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(a[0] * b[0] + a[1] * b[1] - a[2] * b[2])


# ---------------------------------------------------------------------------
# spherical curves


@dataclass(frozen=True, eq=False)
class SphericalCurve:
    """Geodesic polygon on the unit sphere: unit vertices, great-circle edges.

    Vertex order defines the interior (the region on the left of travel).
    """

    vertices: np.ndarray

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


def _arc_angle(a, b) -> float:
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))


def sphere_perimeter(curve: SphericalCurve) -> float:
    """Sum of great-circle edge lengths."""
    v = curve.vertices
    return math.fsum(
        _arc_angle(v[i], v[(i + 1) % len(v)]) for i in range(len(v))
    )


def sphere_area(curve: SphericalCurve) -> float:
    """Area by angular excess: 2*pi minus the total turning, in [0, 4*pi).

    Exact for geodesic polygons.  The excess equals the sum of interior
    angles minus (n - 2)*pi.
    """
    v = curve.vertices
    n = len(v)
    turning = []
    for i in range(n):
        a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
        t_in = b * float(a @ b) - a
        t_in /= np.linalg.norm(t_in)
        t_out = c - b * float(b @ c)
        t_out /= np.linalg.norm(t_out)
        turning.append(math.atan2(float(b @ np.cross(t_in, t_out)),
                                  float(t_in @ t_out)))
    area = 2.0 * math.pi - math.fsum(turning)
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


def _nodes(v, refinement: int, length, f, J):
    """(points, tangents, weights, edge_ids) of the geodesic sub-arcs, with
    breakpoints (f((1 - t) L) a + f(t L) b) / f(L), t = k / refinement, on
    each edge (a, b) of length L; f = sin (sphere) or sinh (hyperboloid).
    Midpoints and chords are normalised under J (|<m, m>|: timelike m)."""
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    a, b = v, np.roll(v, -1, axis=0)
    L = length(a, b)[:, None]
    t = np.arange(refinement + 1) / refinement
    q = ((f((1.0 - t) * L)[..., None] * a[:, None, :]
          + f(t * L)[..., None] * b[:, None, :]) / f(L)[..., None])
    p0, p1 = q[:, :-1].reshape(-1, 3), q[:, 1:].reshape(-1, 3)
    m, ch = p0 + p1, p1 - p0
    m = m / np.sqrt(np.abs(metric_dot(J, m.T, m.T)))[:, None]
    ch = ch / np.sqrt(metric_dot(J, ch.T, ch.T))[:, None]
    return (m, ch, np.repeat(L[:, 0] / refinement, refinement),
            np.repeat(np.arange(len(v)), refinement))


def sphere_boundary_nodes(curve: SphericalCurve, refinement: int = 1):
    """(points, tangents, weights, edge_ids) for arc-length quadrature.

    Nodes are geodesic midpoints of equal sub-arcs; the chord of a sub-arc is
    exactly tangent at its geodesic midpoint, so tangents are normalised
    chords with no extra projection error.
    """
    return _nodes(
        curve.vertices, refinement,
        lambda a, b: np.arctan2(np.linalg.norm(np.cross(a, b), axis=1),
                                metric_dot(_EUCLID3, a.T, b.T)),
        np.sin, _EUCLID3)


def sphere_double_integral(curve: SphericalCurve, refinement: int = 1) -> float:
    """Double boundary integral of the three-space tangent kernel restricted
    to the sphere; converges to 4*pi*A - A^2 for the enclosed area A."""
    P, T, W, E = sphere_boundary_nodes(curve, refinement)
    return pair_sum(P, T, W, E, _EUCLID3)


def _check_simple_sphere(curve: SphericalCurve) -> None:
    """Reject crossing great-circle edges (O(n^2) sign tests)."""
    v = curve.vertices
    n = len(v)
    nrm = np.cross(v, np.roll(v, -1, axis=0))
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        js = [j for j in range(i + 2, n) if not (i == 0 and j == n - 1)]
        if not js:
            continue
        c = v[js]
        d = v[[(j + 1) % n for j in js]]
        s1 = c @ nrm[i]
        s2 = d @ nrm[i]
        s3 = nrm[js] @ a
        s4 = nrm[js] @ b
        cand = np.nonzero((s1 * s2 < 0) & (s3 * s4 < 0))[0]
        for k in cand:
            j = js[k]
            p = np.cross(nrm[i], nrm[j])
            norm = np.linalg.norm(p)
            if norm < 1e-15:
                raise CurveError("overlapping great-circle edges")
            p /= norm
            for q in (p, -p):
                if q @ (a + b) > 0 and q @ (v[j] + v[(j + 1) % n]) > 0:
                    raise CurveError("spherical curve is self-intersecting")


def verify_sphere_isoperimetric(curve: SphericalCurve,
                                refinement: int = 1,
                                check_simple: bool = True) -> IsoperimetricReport:
    """Report with the sharp spherical bound (4*pi - A) * A."""
    if check_simple:
        _check_simple_sphere(curve)
    L = sphere_perimeter(curve)
    A = sphere_area(curve)
    I = sphere_double_integral(curve, refinement)
    lower = (4.0 * math.pi - A) * A
    return IsoperimetricReport(
        perimeter=L, area=A, double_integral=I, lower_bound=lower,
        deficit=L * L - lower, calibration_gap=L * L - I, space_tag="sphere",
    )


# ---------------------------------------------------------------------------
# hyperbolic curves on the upper hyperboloid


@dataclass(frozen=True, eq=False)
class HyperbolicCurve:
    """Geodesic polygon on {<x, x> = -1, x3 > 0} with the Minkowski pairing."""

    vertices: np.ndarray

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
        cosh_d = -np.einsum("ij,ij->i", v * _MINK[None, :], np.roll(v, -1, axis=0))
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
    """Sum of geodesic edge lengths arccosh(-<v_i, v_{i+1}>)."""
    v = curve.vertices
    n = len(v)
    return math.fsum(
        math.acosh(max(-minkowski_dot(v[i], v[(i + 1) % n]), 1.0))
        for i in range(n)
    )


def hyperbolic_area(curve: HyperbolicCurve) -> float:
    """Area by angle defect: total turning minus 2*pi, equivalently
    (n - 2)*pi minus the interior angle sum.  Exact for geodesic polygons."""
    v = curve.vertices
    n = len(v)
    turning = []
    for i in range(n):
        a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
        t_in = -(a + minkowski_dot(a, b) * b)
        t_in = t_in / math.sqrt(minkowski_dot(t_in, t_in))
        t_out = c + minkowski_dot(c, b) * b
        t_out = t_out / math.sqrt(minkowski_dot(t_out, t_out))
        # det(b, t_in, t_out) is the Lorentz-invariant area form at b
        sin_part = float(np.linalg.det(np.array([b, t_in, t_out])))
        turning.append(math.atan2(sin_part, minkowski_dot(t_in, t_out)))
    return math.fsum(turning) - 2.0 * math.pi


def hyperbolic_boundary_nodes(curve: HyperbolicCurve, refinement: int = 1):
    """(points, tangents, weights, edge_ids); chords of geodesic sub-arcs are
    exactly tangent at the geodesic midpoint, Minkowski-normalised."""
    return _nodes(
        curve.vertices, refinement,
        lambda a, b: np.arccosh(np.maximum(-metric_dot(_MINK, a.T, b.T), 1.0)),
        np.sinh, _MINK)


def hyperbolic_double_integral(curve: HyperbolicCurve,
                               refinement: int = 1) -> float:
    """Double boundary integral of the Minkowski-analog tangent kernel;
    matches (4*pi + A) * A on the curves tested and equals perimeter^2 on
    metric circles (the equality case)."""
    P, T, W, E = hyperbolic_boundary_nodes(curve, refinement)
    return pair_sum(P, T, W, E, _MINK)


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
    L = hyperbolic_perimeter(curve)
    A = hyperbolic_area(curve)
    I = hyperbolic_double_integral(curve, refinement)
    lower = (4.0 * math.pi + A) * A
    return IsoperimetricReport(
        perimeter=L, area=A, double_integral=I, lower_bound=lower,
        deficit=L * L - lower, calibration_gap=L * L - I, space_tag="hyperbolic",
    )


def lorentz_boost(rapidity: float, angle: float = 0.0) -> np.ndarray:
    """Boost of given rapidity along the direction at `angle` in the plane;
    preserves the Minkowski form and the upper sheet."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    B = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return R @ B @ R.T
