import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation2, star_polygon
from isocal import (
    ClosedCurve,
    CurveError,
    Point2,
    PointOnBoundaryError,
    UnitVector2,
    boundary_nodes,
    contains,
    perimeter,
    regular_polygon,
    reverse,
    signed_area,
    winding_number,
)
from isocal import curves
from isocal.curves import (
    _orient_exact,
    _polygon_is_simple,
    _segments_intersect,
    ensure_simple,
)

SQUARE = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# domain types


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


def test_unit_vector_norm_enforced():
    UnitVector2(0.6, 0.8)
    with pytest.raises(ValueError):
        UnitVector2(0.6, 0.81)


def test_curve_requires_three_vertices():
    with pytest.raises(CurveError):
        ClosedCurve([[0, 0], [1, 0]])


def test_curve_rejects_repeated_vertex():
    with pytest.raises(CurveError):
        ClosedCurve([[0, 0], [1, 0], [1, 0], [0, 1]])


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
    assert signed_area(reverse(SQUARE)) == -1.0


def test_signed_area_1024gon_vs_disk():
    c = regular_polygon(1024)
    assert abs(signed_area(c) - math.pi) < 2e-5


def test_orientation_derived_from_area():
    assert SQUARE.orientation == 1
    assert reverse(SQUARE).orientation == -1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_reverse_antisymmetry_exact(seed):
    c = star_polygon(np.random.default_rng(seed))
    assert signed_area(reverse(c)) == -signed_area(c)


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
    nodes = boundary_nodes(SQUARE, 1)
    assert len(nodes) == 4
    assert all(n.weight == 1.0 for n in nodes)
    mids = {(n.point.x1, n.point.x2) for n in nodes}
    assert mids == {(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)}
    for n in nodes:
        assert abs(n.tangent.u1) in (0.0, 1.0) and abs(n.tangent.u2) in (0.0, 1.0)


def test_boundary_nodes_square_refinement_2():
    nodes = boundary_nodes(SQUARE, 2)
    assert len(nodes) == 8
    assert all(n.weight == 0.5 for n in nodes)


def test_boundary_node_weights_sum_to_perimeter():
    rng = np.random.default_rng(10)
    for _ in range(20):
        c = star_polygon(rng)
        ref = int(rng.integers(1, 6))
        total = math.fsum(n.weight for n in boundary_nodes(c, ref))
        assert total == pytest.approx(perimeter(c), rel=1e-10)


def test_boundary_nodes_bad_refinement():
    with pytest.raises(ValueError):
        boundary_nodes(SQUARE, 0)


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
    assert winding_number(reverse(SQUARE), (0.5, 0.5)) == -1


def test_point_on_boundary_rejected():
    with pytest.raises(PointOnBoundaryError):
        winding_number(SQUARE, (0.5, 0.0))
    with pytest.raises(PointOnBoundaryError):
        contains(SQUARE, (1.0, 0.5))


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
            from isocal.curves import distance_to_boundary
            if distance_to_boundary(c, p) < 1e-3:
                continue
            w = winding_number(c, p)
            assert w in (0, 1)
            assert (w == 1) == _crossing_number_inside(c.vertices, p)
            assert contains(c, p) == (w == 1)
            checked += 1
    assert checked > 500


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
    assert _polygon_is_simple(np.roll(v, shift % n, axis=0)) == want
    assert _polygon_is_simple(v[::-1].copy()) == want


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
        assert _polygon_is_simple(v) == polygon_is_simple_reference(v)
    assert _polygon_is_simple(star_polygon(rng, 200, 200).vertices)
