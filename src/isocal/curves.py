"""Closed geodesic polygons of the plane, the sphere and the hyperboloid:
Polygon holds their vertex contract and exact simplicity test (every edge
is the cone of its end rays; ensure_simple is the one entry), and their
Geometry records the node generator and perimeter sum.  ClosedCurve is
the plane's polygon; the curved ones live in spaces.  Points, tangents
and quadrature nodes are plain float arrays (_vec2 coerces and checks a
single point; boundary_node_arrays gives the nodes).

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
# Bytes of one float64 temporary of a blocked computation, so memory stays
# bounded at any size.  Every blocked loop reads it here when it is called:
# quadrature.pair_sum's row blocks, _box_pairs' pair chunks (the simplicity
# test and the branch terms of quadrature.double_boundary_integral).  128
# KiB keeps a block's dozen temporaries in a 2 MiB L2: pair_sum on aligned
# workspaces took 87, 71, 69 and 79 ms at 64, 128, 256 and 512 KiB on the
# benchmark's 2048-node sphere star, 59, 52, 52 and 58 ms on its 12-gon
# (medians of 15, one Xeon core with AVX-512).  The randomised sweeps have
# their own budget, checks._SWEEP_BYTES.
_BLOCK_BYTES = 1 << 17
# The cache line.  numpy's malloc aligns to 16 bytes, and a large block to
# 16 bytes past a page, so a ufunc pass over such a row splits its vector
# loads and stores across lines.  The pair sum's and the exact reduction's
# workspaces come from _workspace, whose rows each start on a line: on rows
# 8, 16 or 32 bytes past one, pair_sum took 103-109 ms against 81 ms on the
# sphere star and 64-69 ms against 56 ms on the 12-gon, with the same bits.
_CACHE_LINE = 64


def _workspace(rows: int, size: int) -> np.ndarray:
    """A float64 (rows, size) array, uninitialised, whose every row starts on
    a _CACHE_LINE boundary: one line more than rows whole-line rows (at
    least one line each, so that empty rows keep their own starts) is
    allocated and the view starts at its first line boundary."""
    line = _CACHE_LINE // 8
    width = -(-max(size, 1) // line) * line
    raw = np.empty(rows * width + line)
    skip = -raw.ctypes.data % _CACHE_LINE // 8
    return raw[skip:skip + rows * width].reshape(rows, width)[:, :size]


class CurveError(ValueError):
    """Invalid or degenerate curve input."""


class PointOnBoundaryError(CurveError):
    """Query point lies on (or numerically on) the curve."""


class OrientationError(CurveError):
    """Curve has the wrong orientation for the requested operation."""


def _require_count(name: str, value, least: int = 1) -> None:
    """ValueError unless value is an integer >= least (a Python or numpy
    integer, not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")


def metric_dot(J, a, b, out=None):
    """sum_k J_k a_k b_k over component arrays, for J_0 = 1, J_k = +-1: in
    component order with no BLAS call, so bitwise symmetric in (a, b) and
    odd in the sign of each.  out = (result, scratch), arrays of the
    broadcast shape or None, are the ufuncs' out targets; with arrays,
    nothing is allocated."""
    buf, xy = out or (None, None)
    res = np.multiply(a[0], b[0], out=buf)
    for s, x, y in zip(J[1:], a[1:], b[1:]):
        res = (np.add if s > 0 else np.subtract)(
            res, np.multiply(x, y, out=xy), out=buf)
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


def auto_refinement(curve) -> int:
    """Sub-edge refinement giving at least 512 nodes (minimum 2)."""
    return max(2, math.ceil(512 / curve.n_vertices))


def _plane_lengths(a, b):
    """Euclidean lengths between the rows of a and b."""
    return np.hypot(*(b - a).T)


PLANE = Geometry(tag="euclidean", K=0.0, J=(1.0, 1.0), f=np.positive,
                 length=_plane_lengths, verify="quadrature.verify_isoperimetric")


def _vec2(p) -> np.ndarray:
    """Coerce a point or vector to a finite float array of shape (2,)."""
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"expected a finite 2-vector, got {a.tolist()}")
    return a


@dataclass(frozen=True, eq=False)
class Polygon:
    """Closed geodesic polygon of the class's geometry: at least 3 finite
    vertices in its dimension, copied and frozen, so instances are immutable
    and safe to share across threads.  Each subclass adds its own checks,
    _check_vertices(v), and ensure_simple's messages for a first meeting in
    one point and in more, _meeting_errors."""

    vertices: np.ndarray
    geometry: ClassVar[Geometry]
    _meeting_errors: ClassVar[tuple] = ("curve is self-intersecting",) * 2

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        dim = len(self.geometry.J)
        if v.ndim != 2 or v.shape[1] != dim:
            raise CurveError(f"vertices must have shape (n, {dim}), "
                             f"got {v.shape}")
        if len(v) < 3:
            raise CurveError("a closed curve needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise CurveError("vertices must be finite")
        self._check_vertices(v)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def _meeting(self):
        """_first_meeting of the vertices: None if simple, else 1 or 2."""
        return _first_meeting(self.vertices)

    @property
    def is_simple(self) -> bool:
        """True if only adjacent edges meet, at their shared vertex."""
        return self._meeting is None


class ClosedCurve(Polygon):
    """Oriented closed polyline of the plane, no repeated neighbours."""

    geometry = PLANE

    def _check_vertices(self, v) -> None:
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

    @cached_property
    def diameter(self) -> float:
        """Diagonal of the bounding box; the scale for all tolerances."""
        v = self.vertices
        return float(np.hypot(*(v.max(axis=0) - v.min(axis=0))))

    @cached_property
    def _unit(self) -> tuple[np.ndarray, int]:
        """(v, e): the vertices in units of 2^e, the diameter's power of two,
        read-only, where every scale-free computation on the curve starts."""
        e = math.frexp(self.diameter)[1]
        v = np.ldexp(self.vertices, -e)
        v.flags.writeable = False
        return v, e

    @cached_property
    def _closed(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, edges), read-only, for _fan: rows x and y of the vertices
        with vertex 0 again at the end, and of the edges v_i+1 - v_i."""
        w = np.append(self.vertices, self.vertices[:1], axis=0).T.copy()
        edges = np.diff(w)
        w.flags.writeable = edges.flags.writeable = False
        return w, edges

    @cached_property
    def _edge_bounds(self) -> tuple[np.ndarray, float]:
        """(lengths, big) for _off_boundary: upper bounds on the edges'
        lengths, read-only, their hypot times 1 + 2^-48, and the largest
        vertex coordinate in magnitude.  A subnormal hypot is rounded by
        half a unit, which no factor bounds: its bound is inf, which
        _off_boundary never certifies."""
        lengths = np.hypot(*self._closed[1])
        lengths = np.where(lengths >= 2.0 ** -1022,
                           lengths * (1.0 + 2.0 ** -48), np.inf)
        lengths.flags.writeable = False
        return lengths, float(np.abs(self.vertices).max())

    @cached_property
    def orientation(self) -> int:
        """+1 for positive (counterclockwise) orientation, -1 otherwise: the
        sign of _unit_area, so right at any scale."""
        return 1 if _unit_area(self)[0] > 0 else -1

    def reversed(self) -> "ClosedCurve":
        """Same polygon traversed the other way round."""
        return ClosedCurve(self.vertices[::-1])


def regular_polygon(n: int, radius: float = 1.0,
                    center=(0.0, 0.0)) -> ClosedCurve:
    """Regular n-gon inscribed in the circle of given radius, CCW."""
    _require_count("n", n, 3)
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    c = _vec2(center)
    return ClosedCurve(np.c_[c[0] + radius * np.cos(th), c[1] + radius * np.sin(th)])


def perimeter(curve: ClosedCurve) -> float:
    """Sum of edge lengths; strictly positive for a valid curve."""
    return PLANE.perimeter(curve.vertices)


def _unit_area(curve: ClosedCurve) -> tuple[float, int]:
    """(a, e): the signed area is a 4^e, with a the shoelace sum in the
    units 2^e of curve._unit, so a neither over- nor underflows.  Taken
    relative to the bounding box's low corner, so a curve far from the
    origin keeps its area, and the terms depend on neither the starting
    vertex nor the direction: reversal negates the area exactly."""
    v, e = curve._unit
    v = v - v.min(axis=0)
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
    (constant) edge directions, weights the sub-edge lengths; the weights
    sum to the perimeter up to rounding.
    """
    return PLANE.nodes(curve.vertices, refinement)


def distance_to_boundary(curve: ClosedCurve, x) -> float:
    """Euclidean distance from x to the polygon boundary (_projection)."""
    p = _vec2(x)
    d, _, _, e = _fan(curve, p)
    return math.ldexp(_projection(curve, p, d, e)[1], e)


def _fan(curve: ClosedCurve, p: np.ndarray):
    """(d, det, angle, e) of the fan triangles (p, v_i, v_i+1), each term
    from its edge alone.  d_i = v_i - p in units of 2^e, the power of two
    of the largest |d_i| component, so nothing overflows and nothing that
    matters underflows, as rows x and y, d_n = d_0 at the end; angle =
    arctan2(det, <d_i, d_i+1>), det = det(d_i, d_i+1), the signed angle the
    edge subtends at p, both negated by reversal bit for bit.  Whether p is
    off the boundary is _off_boundary's question, and how far _projection's."""
    w, _ = curve._closed
    d = w - p[:, None]
    e = math.frexp(np.abs(d).max())[1]
    d = np.ldexp(d, -e)
    x0, y0, x1, y1 = d[0, :-1], d[1, :-1], d[0, 1:], d[1, 1:]
    det = x0 * y1 - y0 * x1
    dot = x0 * x1 + y0 * y1
    return d, det, np.arctan2(det, dot), e


def _projection(curve: ClosedCurve, p: np.ndarray, d: np.ndarray, e: int):
    """(edge, gap) for _fan's d and e at p: gap is p's distance from the
    polygon in units of 2^e, edge the first nearest edge: p projected onto
    each edge clamped to its ends, (v_i + t e_i) - p, with e_i = v_i+1 -
    v_i, not d_i+1 - d_i, which loses a tiny curve's edges when p is far;
    where e_i underflows, p is so far off that gap is min |d_i| to
    rounding."""
    w, edges = curve._closed
    x0, y0 = d[0, :-1], d[1, :-1]
    ev = np.ldexp(edges, -e)
    ee = np.maximum(ev[0] * ev[0] + ev[1] * ev[1], 2.0 ** -1022)
    t = np.minimum(np.maximum((x0 * ev[0] + y0 * ev[1]) / -ee, 0.0), 1.0)
    q = np.ldexp(w[:, :-1], -e) + t * ev - np.ldexp(p, -e)[:, None]
    gap = np.hypot(*q)
    edge = int(gap.argmin())
    return edge, float(gap[edge])


# The rounding bounds of _off_boundary, in _fan's units, where every |d_i|
# component is below 1, with u = 2^-53.  _FAN_DET_ERR bounds |det_i -
# det(v_i - p, e_i)|, for the exact v_i - p and _projection's float edge
# e_i, by 16 u: 4 u each from rounding v_i - p, from the determinant's
# products and difference, and from e_i against d_i+1 - d_i.  _PROJ_ERR
# times 4 plus the largest |v_i|, |p| component bounds how far
# _projection's gap can fall below the exact distance from p to the point
# v_i + t e_i it rounds: under 1.5 u per unit of that component and 15 u
# besides.
_FAN_DET_ERR = 16 * 2.0 ** -53
_PROJ_ERR = 8 * 2.0 ** -53


def _off_boundary(curve: ClosedCurve, p: np.ndarray, det: np.ndarray,
                  e: int) -> bool:
    """True only if _projection's gap at p exceeds the boundary tolerance:
    the float filter of _subtended_angles, which projects where it is
    False.  Each edge's distance from p is at least that from its line,
    |det(v_i - p, e_i)| / |e_i|, and so above tol + delta, tol the boundary
    tolerance and delta the projection's rounding, wherever |det_i| -
    _FAN_DET_ERR > (tol + delta) |e_i|, every |e_i| bounded by the curve's
    _edge_bounds.  The right side is formed as k |e_i| with k = (tol +
    delta) 2^-e, |e_i| in the curve's units, and it is False where k is
    not a normal float; NaN compares False."""
    lengths, big = curve._edge_bounds
    s = math.ldexp(BOUNDARY_TOL_FACTOR * curve.diameter
                   + _PROJ_ERR * max(big, abs(p[0]), abs(p[1])), -e)
    s += 4.0 * _PROJ_ERR  # tol + delta in _fan's units
    if not -1021 <= math.frexp(s)[1] - e <= 1024:
        return False
    k = math.ldexp(s, -e)
    return bool((np.abs(det) - k * lengths).min() > _FAN_DET_ERR)


def _subtended_angles(curve: ClosedCurve, x) -> np.ndarray:
    """The signed angle each edge subtends at x (_fan); PointOnBoundaryError
    within BOUNDARY_TOL_FACTOR diameters of the boundary.  _off_boundary
    certifies most points from the fan's determinants alone; the others
    are projected (_projection), so the error is raised where the
    projection puts x within the tolerance, and only there.  Farther off,
    near +-pi, |det| = L h (L the edge's length, h the distance of x from
    it) is far above its rounding, so the angle keeps its sign."""
    p = _vec2(x)
    d, det, angle, e = _fan(curve, p)
    if not _off_boundary(curve, p, det, e):
        gap = _projection(curve, p, d, e)[1]
        if gap <= math.ldexp(BOUNDARY_TOL_FACTOR * curve.diameter, -e):
            raise PointOnBoundaryError(f"point {p.tolist()} lies on the curve")
    return angle


def winding_number(curve: ClosedCurve, x) -> int:
    """Signed number of turns of (y - x) as y traverses the curve: the sum
    of the edges' subtended angles over 2 pi, rounded."""
    return round(math.fsum(_subtended_angles(curve, x).tolist()) / math.tau)


def contains(curve: ClosedCurve, x) -> bool:
    """Point membership for the region enclosed by the curve."""
    return winding_number(curve, x) != 0


def ensure_simple(curve: Polygon) -> None:
    """Raise CurveError unless the polygon, in any geometry, is simple.

    Exact (_first_meeting): a bounding-box sweep and a float sign filter
    certified by error bounds discard edge pairs that cannot meet; exact
    predicates on the vertices as rays decide the rest.
    """
    if not curve.is_simple:
        raise CurveError(curve._meeting_errors[curve._meeting - 1])


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
# exact simplicity test: every edge is the cone of its end rays

# Shewchuk's bound (3 + 16 eps) eps on the relative error of the float
# orientation determinant: beyond it, the float sign is the exact sign.
_ORIENT_ERRBOUND = 3.3306690738754716e-16
# Relative error bound of (a x b) . c in floats, against its permanent (the
# sum of |a_k b_l c_m| over its six products): at most five roundings reach
# each product, 5 eps / (1 - 5 eps) on the exact permanent, and the float
# permanent's own rounding stays inside 8 eps.
_DET3_ERRBOUND = 8.0 * 2.0 ** -53


def _orient_signs(a, b, c) -> np.ndarray:
    """Row-wise sign of det(b - a, c - a) where the float determinant is
    certified by _ORIENT_ERRBOUND, 0 where it is not.  The difference form
    stays certified for a polygon far from the origin."""
    detl = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    detr = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = detl - detr
    errbound = _ORIENT_ERRBOUND * (np.abs(detl) + np.abs(detr))
    return (det > errbound).astype(np.int8) - (det < -errbound)


def _plane_signs(nrm, mag, x) -> np.ndarray:
    """Row-wise sign of det(a, b, x) = nrm . x, for nrm = a x b in floats,
    where _DET3_ERRBOUND certifies it against the permanent mag . |x| (mag
    = |a_2 b_3| + |a_3 b_2|, ... componentwise), plus the smallest normal
    for products that underflow; 0 where it does not."""
    one = (1.0, 1.0, 1.0)
    det = metric_dot(one, nrm.T, x.T)
    err = (_DET3_ERRBOUND * metric_dot(one, mag.T, np.abs(x).T)
           + np.finfo(float).tiny)
    return (det > err).astype(np.int8) - (det < -err)


def _cones_meet(a, b, c, d) -> int:
    """0 if the closed cones alpha a + beta b and gamma c + delta d (alpha,
    beta, gamma, delta >= 0) of two pairs of independent rays in R^3, each
    within an open half-space, share only the origin, 1 if they share one
    ray, 2 if they share more (a wedge of one plane).

    Exact on the given coordinates, in Fractions.  A ray x in ab's plane
    has alpha and beta of the signs of (x x b) . n and (a x x) . n, n = a x
    b.
    """
    a, b, c, d = (np.array([Fraction(t) for t in p], dtype=object)
                  for p in (a, b, c, d))
    nab, ncd = np.cross(a, b), np.cross(c, d)
    sc, sd, sa, sb = nab @ c, nab @ d, ncd @ a, ncd @ b
    if sc * sd > 0 or sa * sb > 0:
        return 0  # one cone strictly on one side of the other's plane

    def low(x, p, q, n):
        # alpha |n|^2 or beta |n|^2, whichever is smaller
        return min(np.cross(x, q) @ n, np.cross(p, x) @ n)

    if sc == 0 and sd == 0:
        # one plane: cones meet where an end ray lies in the other cone,
        # and overlap where one lies strictly inside, or the cones match
        ends = [low(c, a, b, nab), low(d, a, b, nab),
                low(a, c, d, ncd), low(b, c, d, ncd)]
        if max(ends) < 0:
            return 0
        return 2 if max(ends) > 0 or ends[0] == ends[1] == 0 else 1
    # cd meets ab's plane in the ray of (sc d - sd c) / (sc - sd)
    return int(low((sc * d - sd * c) / (sc - sd), a, b, nab) >= 0)


def _box_pairs(lo, hi):
    """Index arrays (i, j), i != j, of every pair of closed boxes [lo, hi]
    (shape (m, d)) that overlap on every axis, each pair once.

    Sort-and-sweep (Shamos & Hoey): boxes sorted by low x; box k's x-overlap
    partners follow it up to the first low x above its high x.  The pairs
    are enumerated in chunks of at most _BLOCK_BYTES / (8 d) pairs, so a
    float64 (pairs, d) gather of a chunk fits the budget.
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


def _first_meeting(v):
    """None if the closed polygon v is simple, else the number of common
    points (1, or 2 for more) of its first offending edge pair in vertex
    order: non-adjacent edges may not meet, adjacent ones only at their
    shared vertex.

    Every edge is the cone of its end rays: planar vertices (n, 2) lift
    exactly to (x, y, 1), and sphere and hyperboloid vertices (n, 3) are
    rays as they are.  Candidate pairs come from _box_pairs over boxes that
    hold each edge's section (the segment; the unit-sphere arc of the
    rays); a pair is apart where certified signs put one edge's ends
    strictly on one side of the other's line or plane; _cones_meet decides
    the rest exactly.
    """
    n = len(v)
    w = np.roll(v, -1, axis=0)
    if v.shape[1] == 2:
        rays = np.c_[v, np.ones(n)]
        lo, hi = np.minimum(v, w), np.maximum(v, w)
        # adjacent segments turn back only where <v_i+2 - v_i+1, v_i - v_i+1>
        # > 0, a sign floats get right on collinear points
        back = np.einsum("ij,ij->i", np.roll(w, -1, axis=0) - w, v - w) > 0

        def side(i, j):
            return _orient_signs(v[i], w[i], v[j])
    else:
        rays = v
        nrm, c1, c2 = np.cross(v, w), [1, 2, 0], [2, 0, 1]
        mag = np.abs(v[:, c1] * w[:, c2]) + np.abs(v[:, c2] * w[:, c1])
        u = v / np.linalg.norm(v, axis=1)[:, None]
        u1 = np.roll(u, -1, axis=0)
        # an arc of angle L < pi lies in its chord's box padded by its
        # sagitta 1 - cos(L/2) <= |u1 - u|^2 / 2; 1e-11 covers rounding
        pad = 0.5 * ((u1 - u) ** 2).sum(axis=1)[:, None] + 1e-11
        lo, hi = np.minimum(u, u1) - pad, np.maximum(u, u1) + pad
        back = True

        def side(i, j):
            return _plane_signs(nrm[i], mag[i], v[j])

    def candidates():  # keys i * n + j, i < j, of edge pairs that may meet
        i = np.flatnonzero(back & (side(np.arange(n), np.arange(2, n + 2) % n)
                                   == 0))
        yield np.where(i < n - 1, i * (n + 1) + 1, n - 1)
        for i, j in _box_pairs(lo, hi):
            i, j = np.minimum(i, j), np.maximum(i, j)
            far = (j - i > 1) & (j - i < n - 1)
            i, j = i[far], j[far]
            apart = ((side(i, j) * side(i, (j + 1) % n) > 0)
                     | (side(j, i) * side(j, (i + 1) % n) > 0))
            yield i[~apart] * n + j[~apart]

    first = None  # (key, common points) of the first meeting pair so far
    for keys in candidates():
        for key in np.sort(keys).tolist():
            if first and key >= first[0]:
                break
            i, j = divmod(key, n)
            meet = _cones_meet(rays[i], rays[(i + 1) % n], rays[j],
                               rays[(j + 1) % n])
            if meet > (j - i in (1, n - 1)):
                first = key, meet
                break
    return None if first is None else first[1]
