import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (near_point, random_rotation2, star_polygon,
                      vertex_angle_winding_number)
from isocal import (
    ClosedCurve,
    CurveError,
    PointOnBoundaryError,
    contains,
    perimeter,
    regular_polygon,
    signed_area,
    verify_isoperimetric,
    winding_number,
)
from isocal import curves
from isocal.curves import _ORIENT_ERRBOUND, distance_to_boundary, ensure_simple

SQUARE = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# domain types


def test_curve_requires_three_vertices():
    with pytest.raises(CurveError):
        ClosedCurve([[0, 0], [1, 0]])


def test_curve_rejects_repeated_vertex():
    with pytest.raises(CurveError):
        ClosedCurve([[0, 0], [1, 0], [1, 0], [0, 1]])


@pytest.mark.parametrize("v", [
    [[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]],
    [[0.0, 0.0], [2.0**1022, 0.0], [0.0, 1.0]],
    [[-1.5e308, -1.5e308], [0.0, 0.0], [1.0, -1.0]]])
def test_curve_rejects_out_of_range_vertices(v):
    # before any difference of coordinates overflows (a RuntimeWarning fails
    # the suite) and with the cause named
    with pytest.raises(CurveError, match="below 2\\^1022"):
        ClosedCurve(v)


def test_curve_accepts_vertices_just_in_range():
    big = math.nextafter(2.0**1022, 0.0)
    c = ClosedCurve([[-big, -big], [big, -big], [0.0, big]])
    assert math.isfinite(c.diameter)


def test_curve_vertices_frozen():
    with pytest.raises(ValueError):
        SQUARE.vertices[0, 0] = 5.0


# ---------------------------------------------------------------------------
# perimeter and area


def test_perimeter_unit_square():
    assert perimeter(SQUARE) == 4.0


def test_perimeter_1024gon_vs_circumference():
    # inscribed-polygon deficit is bounded by 2 pi^3 / n^2
    c = regular_polygon(1024)
    assert abs(perimeter(c) - 2.0 * math.pi) < 2e-5


def test_signed_area_square_and_reverse():
    assert signed_area(SQUARE) == 1.0
    assert signed_area(SQUARE.reversed()) == -1.0


def test_signed_area_1024gon_vs_disk():
    c = regular_polygon(1024)
    assert abs(signed_area(c) - math.pi) < 2e-5


def test_orientation_derived_from_area():
    assert SQUARE.orientation == 1
    assert SQUARE.reversed().orientation == -1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_reverse_antisymmetry_exact(seed):
    c = star_polygon(np.random.default_rng(seed))
    assert signed_area(c.reversed()) == -signed_area(c)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = star_polygon(rng)
        r = random_rotation2(rng)
        shift = rng.normal(size=2) * 10
        moved = ClosedCurve(c.vertices @ r.T + shift)
        assert perimeter(moved) == pytest.approx(perimeter(c), rel=1e-12)
        assert signed_area(moved) == pytest.approx(
            signed_area(c), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shift", [1e6, 1e9])
def test_signed_area_of_translated_curve(shift):
    # a regular 64-gon on a 2^-20 grid: translating it by 1e6 or 1e9 is exact
    v = np.round(regular_polygon(64).vertices * 2**20) / 2**20
    want = signed_area(ClosedCurve(v))
    moved = ClosedCurve(v + shift)
    assert np.array_equal(moved.vertices - shift, v)
    assert abs(signed_area(moved) - want) <= 1e-12 * want
    assert moved.orientation == 1
    curves.ensure_positive(moved)


def test_signed_area_bitwise_independent_of_start_vertex():
    c = star_polygon(np.random.default_rng(12), 30, 30, center=(1e3, -2e3))
    for k in range(c.n_vertices):
        rolled = ClosedCurve(np.roll(c.vertices, k, axis=0))
        assert signed_area(rolled).hex() == signed_area(c).hex()


def test_orientation_of_a_thin_tiny_triangle():
    # area 5e-331: every raw shoelace product underflows to 0, so a raw sum
    # reads both directions as negative
    tri = ClosedCurve([[0.0, 0.0], [1e-150, 0.0], [5e-151, 1e-180]])
    assert tri.orientation == 1
    assert tri.reversed().orientation == -1
    curves.ensure_positive(tri)
    with pytest.raises(curves.OrientationError):
        curves.ensure_positive(tri.reversed())
    # the area itself rounds once, to 0; the report rejects it by name
    assert signed_area(tri) == 0.0
    with pytest.raises(CurveError, match="area, about 2\\^-1097, is not a "
                                         "normal float"):
        verify_isoperimetric(tri)


@pytest.mark.parametrize("k", [-900, -500, -60, 60, 500, 600, 1000])
def test_signed_area_scales_exactly(k):
    # the area times 4^k, rounded once: 0 below the float range, and
    # OverflowError above it
    c = star_polygon(np.random.default_rng(5), 20, 20, center=(3.0, -1.0))
    scaled = ClosedCurve(np.ldexp(c.vertices, k))
    assert scaled.orientation == -scaled.reversed().orientation == 1
    if k <= 500:
        want = math.ldexp(signed_area(c), 2 * k)
        assert signed_area(scaled).hex() == want.hex()
    else:
        with pytest.raises(OverflowError):
            signed_area(scaled)


def test_huge_square_orientation_without_overflow():
    # a warning would fail here: RuntimeWarnings are errors in this suite
    big = ClosedCurve(np.array(SQUARE.vertices) * 1e200)
    assert big.orientation == 1 and big.reversed().orientation == -1
    with pytest.raises(OverflowError):
        signed_area(big)
    with pytest.raises(curves.OrientationError,
                       match=r"signed area -0\.\d+ \* 4\^665"):
        curves.ensure_positive(big.reversed())
    with pytest.raises(curves.OrientationError, match=r"signed area -1\)"):
        curves.ensure_positive(SQUARE.reversed())


def test_scaling_law():
    rng = np.random.default_rng(8)
    for lam in (2.0, 0.5, 3.7):
        c = star_polygon(rng)
        scaled = ClosedCurve(lam * c.vertices)
        assert perimeter(scaled) == pytest.approx(lam * perimeter(c), rel=1e-12)
        assert signed_area(scaled) == pytest.approx(
            lam * lam * signed_area(c), rel=1e-12)


def test_polygon_deficit_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = star_polygon(rng)
        assert perimeter(c) ** 2 - 4 * math.pi * signed_area(c) >= -1e-8


# ---------------------------------------------------------------------------
# boundary nodes


def test_boundary_nodes_square_refinement_1():
    pts, tan, wts = curves.boundary_node_arrays(SQUARE, 1)[:3]
    assert len(pts) == 4
    assert all(w == 1.0 for w in wts)
    mids = {(p[0], p[1]) for p in pts.tolist()}
    assert mids == {(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)}
    for t in tan:
        assert abs(t[0]) in (0.0, 1.0) and abs(t[1]) in (0.0, 1.0)


def test_boundary_nodes_square_refinement_2():
    pts, _, wts = curves.boundary_node_arrays(SQUARE, 2)[:3]
    assert len(pts) == 8
    assert all(w == 0.5 for w in wts)


def test_boundary_node_weights_sum_to_perimeter():
    # every tangent a unit vector to 1e-12 and every weight positive
    rng = np.random.default_rng(10)
    for _ in range(20):
        c = star_polygon(rng)
        ref = int(rng.integers(1, 6))
        _, tan, wts = curves.boundary_node_arrays(c, ref)[:3]
        assert np.abs(np.hypot(*tan.T) - 1.0).max() <= 1e-12
        assert wts.min() > 0
        assert math.fsum(wts) == pytest.approx(perimeter(c), rel=1e-10)


def test_boundary_nodes_bad_refinement():
    with pytest.raises(ValueError):
        curves.boundary_node_arrays(SQUARE, 0)


@pytest.mark.parametrize("refinement", [2.5, 2.0, -1, True, "2", None])
def test_nodes_reject_a_refinement_that_is_not_a_positive_integer(refinement):
    # 2.5 used to reach numpy as a broadcast error
    with pytest.raises(ValueError, match="refinement must be an integer"):
        curves.PLANE.nodes(SQUARE.vertices, refinement)


def test_nodes_accept_numpy_integers():
    want = curves.PLANE.nodes(SQUARE.vertices, 3)
    got = curves.PLANE.nodes(SQUARE.vertices, np.int64(3))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# the shared node generator


def planar_nodes_reference(v, refinement):
    """The planar formula before the shared generator: sub-edge ends
    a + e k / refinement, their midpoints, and edge directions by hypot."""
    a = np.repeat(v, refinement, axis=0)
    e = np.repeat(np.roll(v, -1, axis=0) - v, refinement, axis=0)
    k = np.tile(np.arange(refinement, dtype=float), len(v))
    starts = a + e * (k / refinement)[:, None]
    ends = a + e * ((k + 1) / refinement)[:, None]
    lengths = np.hypot(e[:, 0], e[:, 1])
    return (0.5 * (starts + ends), e / lengths[:, None], lengths / refinement,
            starts, ends)


@pytest.mark.parametrize("refinement", [1, 3, 32])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_planar_nodes_match_reference(refinement, scale):
    c = star_polygon(np.random.default_rng(refinement), 20, 40, scale=scale,
                     center=(0.3 * scale, -0.2 * scale))
    P, T, W, E, SA, SB = curves.boundary_node_arrays(c, refinement)
    rP, rT, rW, rSA, rSB = planar_nodes_reference(c.vertices, refinement)
    size = np.abs(c.vertices).max()
    assert np.array_equal(E, np.repeat(np.arange(c.n_vertices), refinement))
    assert np.allclose(W, rW, rtol=1e-15, atol=0)
    for got, want in ((P, rP), (SA, rSA), (SB, rSB)):
        assert np.abs(got - want).max() <= 1e-15 * size
    # a chord of a short piece rounds as the points' scale over its length
    assert (np.abs(T - rT).max(axis=1) * W <= 4e-15 * size).all()


@pytest.mark.parametrize("exponent", [-990, 990])
def test_planar_nodes_scale_free(exponent):
    # finite, unit tangents under J, and exactly the unit-scale nodes scaled
    c = star_polygon(np.random.default_rng(8))
    unit = curves.boundary_node_arrays(c, 8)
    far = curves.boundary_node_arrays(
        ClosedCurve(np.ldexp(c.vertices, exponent)), 8)
    for a in far[:3] + far[4:]:
        assert np.isfinite(a).all()
    T = far[1]
    assert np.abs(curves.metric_dot(curves.PLANE.J, T.T, T.T) - 1.0).max() \
        <= 4e-16
    for i in (0, 2, 4, 5):
        assert np.array_equal(far[i], np.ldexp(unit[i], exponent))
    assert np.array_equal(far[1], unit[1])


# ---------------------------------------------------------------------------
# winding number and containment


def test_winding_square_cases():
    assert winding_number(SQUARE, (0.5, 0.5)) == 1
    assert winding_number(SQUARE, (2.0, 2.0)) == 0
    assert winding_number(SQUARE.reversed(), (0.5, 0.5)) == -1


def test_point_on_boundary_rejected():
    with pytest.raises(PointOnBoundaryError):
        winding_number(SQUARE, (0.5, 0.0))
    with pytest.raises(PointOnBoundaryError):
        contains(SQUARE, (1.0, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_and_tangents_are_rejected(bad):
    # a NaN distance compares false with every tolerance, so the one
    # 2-vector coercion point has to reject it
    from isocal.quadrature import stokes_check, winding_integral
    calls = [lambda: stokes_check(SQUARE, (bad, 0.0)),
             lambda: stokes_check(SQUARE, (0.5, 0.0), (1.0, bad)),
             lambda: winding_integral(SQUARE, (bad, 0.5)),
             lambda: winding_number(SQUARE, (0.5, bad)),
             lambda: contains(SQUARE, (0.5, bad))]
    for call in calls:
        with pytest.raises(ValueError, match=r"finite 2-vector, got \[.*(nan|inf)"):
            call()


def test_point_on_edge_extension_is_fine():
    # collinear with the bottom edge but outside the segment: subtended
    # angle is exactly zero, no ambiguity
    assert winding_number(SQUARE, (2.5, 0.0)) == 0


def _crossing_number_inside(vertices: np.ndarray, p) -> bool:
    """Independent ray-casting oracle (left-test crossing count)."""
    px, py = p
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if xc > px:
                inside = not inside
    return inside


def test_winding_matches_raycast_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        c = star_polygon(rng)
        for _ in range(10):
            p = rng.uniform(-1.8, 1.8, 2)
            if distance_to_boundary(c, p) < 1e-3:
                continue
            w = winding_number(c, p)
            assert w in (0, 1)
            assert (w == 1) == _crossing_number_inside(c.vertices, p)
            assert contains(c, p) == (w == 1)
            checked += 1
    assert checked > 500


def test_winding_number_matches_the_vertex_angle_formula():
    # 1.01e-9 diameters off the boundary, just beyond BOUNDARY_TOL_FACTOR,
    # next to every edge and vertex, and at random points farther off
    rng = np.random.default_rng(13)
    for _ in range(30):
        c = star_polygon(rng, 3, 40, scale=2.0 ** int(rng.integers(-60, 60)))
        gap = 1.01e-9 * c.diameter
        points = [near_point(c.vertices, i, kind, gap)
                  for i in range(c.n_vertices)
                  for kind in ("left", "right", "vertex")]
        points += [p for p in rng.uniform(-0.8, 0.8, (40, 2)) * c.diameter
                   if distance_to_boundary(c, p) >= 1e-9 * c.diameter]
        for p in points:
            w = vertex_angle_winding_number(c, p)
            assert winding_number(c, p) == w
            assert contains(c, p) == (w != 0)


def test_interior_exterior_winding_values():
    # the generating center of a star polygon is always interior
    rng = np.random.default_rng(12)
    for _ in range(50):
        center = rng.normal(size=2) * 3
        c = star_polygon(rng, center=center)
        assert winding_number(c, center) == 1
        assert winding_number(c, center + np.array([50.0, 0.0])) == 0


# ---------------------------------------------------------------------------
# simplicity


def test_simple_square():
    assert SQUARE.is_simple
    ensure_simple(SQUARE)


def test_self_intersection_detected():
    bowtie = ClosedCurve([[0, 0], [2, 2], [2, 0], [0, 2]])
    assert not bowtie.is_simple
    with pytest.raises(CurveError):
        ensure_simple(bowtie)


def test_collinear_backtrack_detected():
    c = ClosedCurve([[0, 0], [2, 0], [1, 0], [1, 1]])
    assert not c.is_simple


def test_touching_nonadjacent_edges_detected():
    c = ClosedCurve([[0, 0], [4, 0], [4, 4], [2, 0], [0, 4]])
    assert not c.is_simple


def test_fine_polygon_is_simple_fast():
    assert regular_polygon(1024).is_simple


# ---------------------------------------------------------------------------
# the sweep-filtered simplicity test against the all-pairs test it replaced


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


def polygon_is_simple_reference(v):
    """The all-pairs simplicity test: one exact backtrack test and one numpy
    row of edge tests per vertex."""
    n = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    for i in range(n):
        j = (i + 1) % n
        if _orient_exact(*v[i], *v[j], *v[(j + 1) % n]) == 0:
            back = (v[(j + 1) % n] - v[j]) @ (v[i] - v[j])
            if back > 0:
                return False
    ex = b - a
    for i in range(n - 2):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if len(js) == 0:
            continue
        ca = a[js] - a[i]
        cb = b[js] - a[i]
        o1 = ex[i, 0] * ca[:, 1] - ex[i, 1] * ca[:, 0]
        o2 = ex[i, 0] * cb[:, 1] - ex[i, 1] * cb[:, 0]
        da = a[i] - a[js]
        db = b[i] - a[js]
        o3 = ex[js, 0] * da[:, 1] - ex[js, 1] * da[:, 0]
        o4 = ex[js, 0] * db[:, 1] - ex[js, 1] * db[:, 0]
        scale = np.abs(o1) + np.abs(o2) + np.abs(o3) + np.abs(o4) + 1e-300
        guard = (1e-12 * scale) ** 2
        candidates = js[(o1 * o2 <= guard) & (o3 * o4 <= guard)]
        for j in candidates:
            if _segments_intersect(a[i], b[i], a[j], b[j]):
                return False
    return True


def random_polygon(rng, kind, n):
    """Uniform points; points on a small integer grid (collinear and touching
    edges); an axis-parallel lattice walk (backtracking edges); a star
    polygon (simple), or one snapped to a grid (simple or touching)."""
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, 2))
    if kind == "grid":
        return rng.integers(0, 5, (n, 2)).astype(float)
    if kind == "walk":
        steps = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float)
        return np.cumsum(steps[rng.integers(0, 4, n)]
                         * rng.integers(1, 3, (n, 1)), axis=0)
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    v = rng.uniform(0.2, 1.0, (n, 1)) * np.c_[np.cos(th), np.sin(th)]
    return v if kind == "star" else np.round(4.0 * v)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform", "grid", "walk", "star",
                             "snapped"]),
       n=st.integers(3, 24), shift=st.integers(0, 10**6))
def test_simplicity_matches_all_pairs_reference(seed, kind, n, shift):
    v = random_polygon(np.random.default_rng(seed), kind, n)
    try:
        ClosedCurve(v)
    except CurveError:
        return  # coincident neighbours: not a curve
    want = polygon_is_simple_reference(v)
    assert ClosedCurve(v).is_simple == want
    assert ClosedCurve(np.roll(v, shift % n, axis=0)).is_simple == want
    assert ClosedCurve(v[::-1]).is_simple == want


def test_collinear_disjoint_edges_are_simple():
    # the bottom edges (0,0)-(1,0) and (2,0)-(3,0) share a line, not a point
    c = ClosedCurve([[0, 0], [1, 0], [1, 1], [2, 1], [2, 0], [3, 0], [3, 2],
                     [0, 2]])
    assert c.is_simple
    assert polygon_is_simple_reference(c.vertices)


@pytest.mark.parametrize("offset, simple", [((41, 48), False),
                                            ((48, 41), True)])
def test_orientation_rounding_decided_exactly(offset, simple):
    # Kettner et al.'s near-collinear example: c = (12, 12) lies a hair right
    # (41, 48) or left (48, 41) of the edge from a to (24, 24), and the float
    # determinant gets the side wrong both times.  Right of it, the edges
    # into and out of c cross that edge; the all-pairs test's uncertified
    # float prefilter missed that crossing.
    u = 2.0**-53
    a = (0.5 + offset[0] * u, 0.5 + offset[1] * u)
    v = np.array([a, (24, 24), (23, 30), (14, 20), (12, 12), (6, 10)])
    assert ClosedCurve(v).is_simple is simple
    assert polygon_is_simple_reference(v) is True


def test_translated_polygon_is_simple_without_exact_predicates(monkeypatch):
    # the difference-form filter stays certified far from the origin, where
    # a filter on the lifted points (x, y, 1) would leave hundreds of the
    # star's edge pairs to the exact test
    calls = []
    meet = curves._cones_meet
    monkeypatch.setattr(curves, "_cones_meet",
                        lambda *rays: calls.append(rays) or meet(*rays))
    th = 2.0 * np.pi * (np.arange(512) + 0.5) / 512
    r = np.random.default_rng(5).uniform(0.3, 1.0, 512)
    for shift in (0.0, 1e6):
        assert regular_polygon(2048, center=(shift, shift)).is_simple
        assert ClosedCurve(np.c_[shift + r * np.cos(th),
                                 shift + r * np.sin(th)]).is_simple
    assert calls == []


def test_large_regular_polygon_is_simple():
    assert regular_polygon(16384).is_simple


def test_crossing_between_far_apart_edges_detected():
    # vertex n/2 pulled across the polygon to just outside edge 0: its two
    # edges cross edges half the polygon away in vertex order
    n = 16384
    v = regular_polygon(n).vertices.copy()
    v[n // 2] = 1.001 * np.array([math.cos(2 * math.pi / n),
                                  math.sin(2 * math.pi / n)])
    c = ClosedCurve(v)
    assert not c.is_simple
    with pytest.raises(CurveError):
        ensure_simple(c)


@pytest.mark.parametrize("budget", [1, 40, 100, 1 << 17])
def test_box_pairs_chunks_and_verdicts_at_any_budget(monkeypatch, budget):
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.0, 1.0, (60, 2))
    hi = lo + rng.uniform(0.0, 0.3, (60, 2))
    lo[7] = lo[8]  # equal low x
    chunks = list(curves._box_pairs(lo, hi))
    assert all(len(i) <= max(1, budget // 16) for i, _ in chunks)
    got = sorted(tuple(sorted(p)) for i, j in chunks for p in zip(i, j))
    want = [(i, j) for i in range(60) for j in range(i + 1, 60)
            if np.all((lo[j] <= hi[i]) & (lo[i] <= hi[j]))]
    assert got == want
    for seed in range(40):
        v = random_polygon(np.random.default_rng(seed), "grid", 12)
        try:
            ClosedCurve(v)
        except CurveError:
            continue
        assert ClosedCurve(v).is_simple == polygon_is_simple_reference(v)
    assert star_polygon(rng, 200, 200).is_simple
