"""Oriented closed polygonal curves in the plane, and the geometry records
whose node generator and perimeter sum serve the sphere and the hyperboloid
too.

Everything downstream treats a curve as a polygon: smooth boundaries enter as
fine polygons, which turns every integral in the package into a finite sum
with a controllable deficit.  Orientation is never declared by the caller; it
is derived from the signed area (positive area = counterclockwise = interior
on the left of travel).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

# Single documented constant for "is this point on the boundary".
BOUNDARY_TOL_FACTOR = 1e-9
# Consecutive vertices closer than this fraction of the diameter are degenerate.
VERTEX_SEP_FACTOR = 1e-12
# Bytes of one float64 temporary of a blocked computation (the pair sum's
# row blocks, the simplicity sweep's pair chunks, the curl integral's ray
# blocks), so memory stays bounded at any size.  128 KiB keeps a block's
# dozen temporaries in a 2 MiB L2 (64-256 KiB measured alike).
_BLOCK_BYTES = 1 << 17


class CurveError(ValueError):
    """Invalid or degenerate curve input."""


class PointOnBoundaryError(CurveError):
    """Query point lies on (or numerically on) the curve."""


class OrientationError(CurveError):
    """Curve has the wrong orientation for the requested operation."""


def _require_count(name: str, value) -> None:
    """ValueError unless value is an integer >= 1 (a Python or numpy
    integer, not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def metric_dot(J, a, b, out=None):
    """sum_k J_k a_k b_k over component arrays, for J_0 = 1, J_k = +-1: in
    component order with no BLAS call, so bitwise symmetric in (a, b) and
    odd in the sign of each.  With out = (result, scratch), two arrays of
    the broadcast shape, the same operations write into them and allocate
    nothing; without, operators allocate, which is faster on scalars."""
    if out is None:
        res = a[0] * b[0]
        for s, x, y in zip(J[1:], a[1:], b[1:]):
            res = res + x * y if s > 0 else res - x * y
        return res
    res, xy = out
    np.multiply(a[0], b[0], out=res)
    for s, x, y in zip(J[1:], a[1:], b[1:]):
        (np.add if s > 0 else np.subtract)(res, np.multiply(x, y, out=xy),
                                           out=res)
    return res


@dataclass(frozen=True)
class Geometry:
    """One geometry of the inequality perimeter^2 >= (4 pi - K area) area
    for geodesic polygons: the plane (PLANE, below), the unit sphere and the
    hyperboloid (SPHERE and HYPERBOLIC in spaces).  Each curve class carries
    its record as the class attribute `geometry`."""

    tag: str          # the curve file's "space" key and the report's space_tag
    K: float          # curvature: 0, +1 or -1
    J: tuple          # the ambient pairing's diagonal, for metric_dot
    f: Callable       # identity, sin or sinh: the edge parametrisation of nodes
    length: Callable  # geodesic lengths between the rows of a and b
    verify: str       # the report function as "module.name" in the package,
                      # looked up at call time, so wrappers of it see the call
    notes: tuple = ()  # caveats that every report in this geometry carries

    def perimeter(self, v) -> float:
        """Sum of the edge lengths of the closed polygon v, in one fsum."""
        return math.fsum(self.length(v, np.roll(v, -1, axis=0)))

    def nodes(self, v, refinement: int):
        """(points, tangents, weights, edge_ids, sub_starts, sub_ends) of the
        closed polygon v, each edge (a, b) of length L cut into `refinement`
        equal pieces.  The point at arc length s is (f(L - s) / f(L)) a +
        (f(s) / f(L)) b, ratios first, so coordinates are never multiplied
        by L.  Nodes are the pieces' midpoints, weights L / refinement, and
        tangents their chords (tangent at the midpoint of a geodesic piece),
        scaled by a power of two and normalised under J: finite at any scale.
        """
        _require_count("refinement", refinement)
        a, b = v, np.roll(v, -1, axis=0)
        L = self.length(a, b)[:, None]
        # even columns are the pieces' ends, odd columns their midpoints
        s = L * (np.arange(2 * refinement + 1) / (2 * refinement))
        fL = self.f(L)
        q = ((self.f(L - s) / fL)[..., None] * a[:, None, :]
             + (self.f(s) / fL)[..., None] * b[:, None, :])
        starts = q[:, :-1:2].reshape(-1, v.shape[1])
        ends = q[:, 2::2].reshape(-1, v.shape[1])
        ch = ends - starts
        ch = np.ldexp(ch, -np.frexp(np.abs(ch).max(axis=1))[1][:, None])
        tangents = ch / np.sqrt(metric_dot(self.J, ch.T, ch.T))[:, None]
        return (q[:, 1::2].reshape(-1, v.shape[1]), tangents,
                np.repeat(L[:, 0] / refinement, refinement),
                np.repeat(np.arange(len(v)), refinement), starts, ends)


def auto_refinement(curve, target_nodes: int = 512) -> int:
    """Sub-edge refinement giving at least target_nodes nodes (minimum 2)."""
    return max(2, math.ceil(target_nodes / curve.n_vertices))


def _plane_lengths(a, b):
    """Euclidean lengths between the rows of a and b."""
    return np.hypot(*(b - a).T)


PLANE = Geometry(tag="euclidean", K=0.0, J=(1.0, 1.0), f=np.positive,
                 length=_plane_lengths, verify="quadrature.verify_isoperimetric")


@dataclass(frozen=True)
class Point2:
    """A point of the plane."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2])


@dataclass(frozen=True)
class UnitVector2:
    """A unit vector of the plane; the norm is enforced to 1e-12."""

    u1: float
    u2: float

    def __post_init__(self):
        n = math.hypot(self.u1, self.u2)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector: |u| = {n!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2])


def _vec2(p) -> np.ndarray:
    """Coerce Point2 / UnitVector2 / sequence to a float array of shape (2,)."""
    if hasattr(p, "as_array"):
        return p.as_array()
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class BoundaryNode:
    """Arc-length quadrature node: midpoint of a sub-edge with its tangent."""

    point: Point2
    tangent: UnitVector2
    weight: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("quadrature weight must be positive")


@dataclass(frozen=True, eq=False)
class ClosedCurve:
    """Oriented closed polyline, at least 3 vertices, no repeated neighbours.

    The vertex array is copied and frozen; instances are immutable and safe
    to share across threads.
    """

    vertices: np.ndarray
    geometry: ClassVar[Geometry] = PLANE

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise CurveError(f"vertices must have shape (n, 2), got {v.shape}")
        if len(v) < 3:
            raise CurveError("a closed curve needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise CurveError("vertices must be finite")
        # below 2^1022 every coordinate difference and its hypot is finite
        if np.abs(v).max() >= 2.0 ** 1022:
            raise CurveError("vertex coordinates must be below 2^1022 in "
                             "magnitude (their differences would overflow)")
        diam = float(np.hypot(*(v.max(axis=0) - v.min(axis=0))))
        if diam == 0.0:
            raise CurveError("all vertices coincide")
        gaps = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
        if gaps.min() <= VERTEX_SEP_FACTOR * diam:
            raise CurveError("consecutive vertices coincide (degenerate edge)")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def diameter(self) -> float:
        """Diagonal of the bounding box; the scale for all tolerances."""
        v = self.vertices
        return float(np.hypot(*(v.max(axis=0) - v.min(axis=0))))

    @cached_property
    def orientation(self) -> int:
        """+1 for positive (counterclockwise) orientation, -1 otherwise: the
        sign of the area in units of the diameter's power of two, so right
        at any scale."""
        return 1 if _unit_area(self)[0] > 0 else -1

    @cached_property
    def is_simple(self) -> bool:
        """True if no two non-adjacent edges intersect (exact predicates)."""
        return _polygon_is_simple(self.vertices)

    def reversed(self) -> "ClosedCurve":
        return ClosedCurve(self.vertices[::-1])


def reverse(curve: ClosedCurve) -> ClosedCurve:
    """Same polygon traversed the other way round."""
    return curve.reversed()


def regular_polygon(n: int, radius: float = 1.0, center=(0.0, 0.0),
                    phase: float = 0.0) -> ClosedCurve:
    """Regular n-gon inscribed in the circle of given radius, CCW."""
    if n < 3:
        raise CurveError("need at least 3 vertices")
    th = phase + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    c = _vec2(center)
    return ClosedCurve(np.c_[c[0] + radius * np.cos(th), c[1] + radius * np.sin(th)])


def perimeter(curve: ClosedCurve) -> float:
    """Sum of edge lengths; strictly positive for a valid curve."""
    return PLANE.perimeter(curve.vertices)


def _unit_area(curve: ClosedCurve) -> tuple[float, int]:
    """(a, e): the signed area is a 4^e, with a the shoelace sum in units of
    2^e, the diameter's power of two, so a neither over- nor underflows.

    Taken relative to the bounding box's low corner, so a curve far from the
    origin keeps its area, and the terms depend on neither the starting
    vertex nor the direction: reversal negates the area exactly.
    """
    e = math.frexp(curve.diameter)[1]
    v = np.ldexp(curve.vertices, -e)
    v -= v.min(axis=0)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * math.fsum(x * np.roll(y, -1) - np.roll(x, -1) * y), e


def signed_area(curve: ClosedCurve) -> float:
    """Shoelace sum; positive iff the interior lies left of travel.

    Computed in units of the diameter's power of two (_unit_area) and scaled
    back with one rounding, which changes no bits where the area is a normal
    float; OverflowError if it is beyond the float range.
    """
    a, e = _unit_area(curve)
    return math.ldexp(a, 2 * e)


def boundary_node_arrays(curve: ClosedCurve, refinement: int = 1):
    """Quadrature nodes as plain arrays: (points, tangents, weights,
    edge_ids, sub_starts, sub_ends) of each edge subdivided `refinement`
    times, from the shared generator PLANE.nodes.  Tangents are the
    (constant) edge directions, weights the sub-edge lengths.
    """
    return PLANE.nodes(curve.vertices, refinement)


def boundary_nodes(curve: ClosedCurve, refinement: int = 1) -> list[BoundaryNode]:
    """BoundaryNode list; weights sum to the perimeter up to rounding."""
    pts, tan, wts, _, _, _ = boundary_node_arrays(curve, refinement)
    return [
        BoundaryNode(Point2(*p), UnitVector2(*t), float(w))
        for p, t, w in zip(pts, tan, wts)
    ]


def _nearest_edge(curve: ClosedCurve, p: np.ndarray) -> tuple[int, float]:
    """(index, distance) of the edge nearest to the point p, by projection
    onto each edge clamped to its ends."""
    v = curve.vertices
    e = np.roll(v, -1, axis=0) - v
    ee = np.einsum("ij,ij->i", e, e)
    t = np.clip(np.einsum("ij,ij->i", p[None, :] - v, e) / ee, 0.0, 1.0)
    d = np.hypot(*(v + t[:, None] * e - p).T)
    i = int(np.argmin(d))
    return i, float(d[i])


def distance_to_boundary(curve: ClosedCurve, x) -> float:
    """Euclidean distance from x to the polygon boundary."""
    return _nearest_edge(curve, _vec2(x))[1]


def _require_off_boundary(curve: ClosedCurve, x) -> np.ndarray:
    p = _vec2(x)
    if distance_to_boundary(curve, p) <= BOUNDARY_TOL_FACTOR * curve.diameter:
        raise PointOnBoundaryError(f"point {p.tolist()} lies on the curve")
    return p


def winding_number(curve: ClosedCurve, x) -> int:
    """Signed number of turns of (y - x) as y traverses the curve.

    Computed as the sum of exact per-edge subtended angles; each edge that
    does not contain x subtends strictly less than pi, so the per-edge
    increment is unambiguous.
    """
    p = _require_off_boundary(curve, x)
    d = curve.vertices - p
    ang = np.arctan2(d[:, 1], d[:, 0])
    inc = np.diff(np.r_[ang, ang[:1]])
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(math.fsum(inc) / (2.0 * np.pi)))


def contains(curve: ClosedCurve, x) -> bool:
    """Point membership for the region enclosed by the curve."""
    return winding_number(curve, x) != 0


def ensure_simple(curve: ClosedCurve) -> None:
    """Raise CurveError unless the polygon is simple.

    Exact: a bounding-box sweep and a float sign filter certified by the
    orientation error bound discard edge pairs that cannot meet; exact
    orientation predicates decide the rest.
    """
    if not curve.is_simple:
        raise CurveError("curve is self-intersecting")


def ensure_positive(curve: ClosedCurve) -> None:
    """Raise OrientationError unless positively oriented (area > 0)."""
    if curve.orientation < 0:
        a, e = _unit_area(curve)
        k = math.frexp(a)[1] + 2 * e  # |area| < 2^k
        area = (f"{math.ldexp(a, 2 * e):.6g}" if -1021 <= k <= 1024
                else f"{a:.6g} * 4^{e}")
        raise OrientationError(f"curve is negatively oriented (signed area "
                               f"{area}); reverse it explicitly")


# ---------------------------------------------------------------------------
# exact orientation predicate and simplicity test

# Shewchuk's bound (3 + 16 eps) eps on the relative error of the float
# orientation determinant: beyond it, the float sign is the exact sign.
_ORIENT_ERRBOUND = 3.3306690738754716e-16


def _orient_exact(ax, ay, bx, by, cx, cy) -> int:
    """Sign of det(b - a, c - a), exactly.

    Fast float path with an error-bound filter; falls back to rational
    arithmetic when the float result is not certain.
    """
    detl = (bx - ax) * (cy - ay)
    detr = (by - ay) * (cx - ax)
    det = detl - detr
    errbound = _ORIENT_ERRBOUND * (abs(detl) + abs(detr))
    if det > errbound:
        return 1
    if det < -errbound:
        return -1
    d = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    return (d > 0) - (d < 0)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    """Assuming p collinear with segment ab: does p lie on it (inclusive)?"""
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
    )


def _segments_intersect(a, b, c, d) -> bool:
    """Closed-segment intersection with exact orientation signs."""
    o1 = _orient_exact(a[0], a[1], b[0], b[1], c[0], c[1])
    o2 = _orient_exact(a[0], a[1], b[0], b[1], d[0], d[1])
    o3 = _orient_exact(c[0], c[1], d[0], d[1], a[0], a[1])
    o4 = _orient_exact(c[0], c[1], d[0], d[1], b[0], b[1])
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a[0], a[1], b[0], b[1], c[0], c[1]):
        return True
    if o2 == 0 and _on_segment(a[0], a[1], b[0], b[1], d[0], d[1]):
        return True
    if o3 == 0 and _on_segment(c[0], c[1], d[0], d[1], a[0], a[1]):
        return True
    if o4 == 0 and _on_segment(c[0], c[1], d[0], d[1], b[0], b[1]):
        return True
    return False


def _orient_signs(a, b, c) -> np.ndarray:
    """Row-wise sign of det(b - a, c - a) where _orient_exact's float filter
    certifies it, 0 where it does not (the exact call decides those)."""
    detl = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    detr = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = detl - detr
    errbound = _ORIENT_ERRBOUND * (np.abs(detl) + np.abs(detr))
    return (det > errbound).astype(np.int8) - (det < -errbound)


def _box_pairs(lo, hi):
    """Index arrays (i, j), i != j, of every pair of closed boxes [lo, hi]
    (shape (m, d)) that overlap on every axis, each pair once.

    Sort-and-sweep (Shamos & Hoey): boxes sorted by low x; box k's x-overlap
    partners follow it up to the first low x above its high x.  The pairs
    are enumerated in chunks of at most _BLOCK_BYTES / (8 d) pairs, so a
    float64 (pairs, d) gather of a chunk fits the block budget.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order].T, hi[order].T
    end = np.searchsorted(lo[0], hi[0], side="right")
    offsets = np.r_[0, np.cumsum(end - np.arange(1, len(order) + 1))]
    step = max(1, _BLOCK_BYTES // (8 * len(lo)))
    for t0 in range(0, int(offsets[-1]), step):
        t = np.arange(t0, min(t0 + step, int(offsets[-1])))
        i = np.searchsorted(offsets, t, side="right") - 1
        j = i + 1 + (t - offsets[i])
        keep = np.ones(len(t), dtype=bool)
        for l, h in zip(lo[1:], hi[1:]):
            keep &= (l[j] <= h[i]) & (l[i] <= h[j])
        yield order[i[keep]], order[j[keep]]


def _polygon_is_simple(v: np.ndarray) -> bool:
    n = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    c = np.roll(v, -2, axis=0)
    # adjacent edges: reject collinear backtracking through the shared vertex
    back = np.einsum("ij,ij->i", c - b, a - b) > 0
    for i in np.flatnonzero(back & (_orient_signs(a, b, c) == 0)):
        if _orient_exact(*a[i], *b[i], *c[i]) == 0:
            return False
    # non-adjacent pairs: overlapping boxes, then a certified sign filter
    # (both ends of one segment strictly on one side of the other's line),
    # then exact confirmation of the pairs it cannot rule out
    for i, j in _box_pairs(np.minimum(a, b), np.maximum(a, b)):
        gap = (j - i) % n
        far = (gap != 1) & (gap != n - 1)
        i, j = i[far], j[far]
        apart = ((_orient_signs(a[i], b[i], a[j])
                  * _orient_signs(a[i], b[i], b[j]) > 0)
                 | (_orient_signs(a[j], b[j], a[i])
                    * _orient_signs(a[j], b[j], b[i]) > 0))
        for p, q in zip(i[~apart], j[~apart]):
            if _segments_intersect(a[p], b[p], a[q], b[q]):
                return False
    return True
