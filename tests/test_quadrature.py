import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import star_polygon
from isocal import (
    ClosedCurve,
    CurveError,
    OrientationError,
    PointOnBoundaryError,
    biform_apply,
    boundary_nodes,
    double_boundary_integral,
    line_integral,
    mayer_vector,
    perimeter,
    regular_polygon,
    reverse,
    signed_area,
    stokes_check,
    verify_isoperimetric,
    winding_integral,
    winding_number,
)
from isocal import quadrature
from isocal.curves import boundary_node_arrays, distance_to_boundary
from isocal.quadrature import auto_refinement, interior_curl_integral
from isocal.spaces import (
    geodesic_cap,
    hyperbolic_boundary_nodes,
    hyperbolic_circle,
    sphere_boundary_nodes,
)

SQUARE = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# line integrals


def test_line_integral_constant_field_vanishes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = star_polygon(rng)
        val = line_integral(c, lambda p: np.array([1.0, 0.0]), refinement=2)
        assert abs(val) <= 1e-10


def test_line_integral_rotational_field_gives_area():
    # Green's theorem: the field (-x2, x1)/2 integrates to the enclosed area,
    # and the midpoint rule is exact for fields linear in position
    val = line_integral(SQUARE, lambda p: 0.5 * np.array([-p[1], p[0]]))
    assert val == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = star_polygon(rng)
        val = line_integral(c, lambda p: 0.5 * np.array([-p[1], p[0]]))
        assert val == pytest.approx(signed_area(c), rel=1e-12)


def test_line_integral_of_unit_field_bounded_by_perimeter():
    c = regular_polygon(256)
    y = boundary_nodes(c, 1)[10]
    yv, tv = y.point.as_array(), y.tangent.as_array()

    def field(p):
        v = mayer_vector(yv, tv, p)
        return np.array([v.u1, v.u2])

    # integration nodes at refinement 2 are quarter points, distinct from y
    val = line_integral(c, field, refinement=2)
    assert abs(val) <= perimeter(c) + 1e-9


# ---------------------------------------------------------------------------
# the winding integral


def test_winding_integral_circle_center():
    c = regular_polygon(1024)
    assert winding_integral(c, (0.0, 0.0)) == pytest.approx(4 * math.pi, abs=1e-6)


def test_winding_integral_exterior_point():
    c = regular_polygon(1024)
    assert abs(winding_integral(c, (2.0, 2.0))) <= 1e-6


def test_winding_integral_near_boundary():
    c = regular_polygon(1024)
    assert winding_integral(c, (0.99, 0.0)) == pytest.approx(4 * math.pi, abs=1e-3)


def test_winding_integral_rounds_to_winding_number():
    rng = np.random.default_rng(2)
    done = 0
    while done < 200:
        c = star_polygon(rng)
        p = rng.uniform(-2.0, 2.0, 2)
        if distance_to_boundary(c, p) < 1e-3:
            continue
        w = winding_number(c, p)
        val = winding_integral(c, p)
        assert round(val / (4 * math.pi)) == w
        assert val == pytest.approx(4 * math.pi * w, abs=1e-6)
        done += 1


def test_winding_integral_point_on_boundary():
    with pytest.raises(PointOnBoundaryError):
        winding_integral(SQUARE, (0.5, 0.0))


# ---------------------------------------------------------------------------
# double boundary integral


def test_double_integral_circle():
    c = regular_polygon(1024)
    val = double_boundary_integral(c, 1)
    assert val == pytest.approx(4 * math.pi ** 2, rel=1e-4)


def test_double_integral_square():
    val = double_boundary_integral(SQUARE, 128)
    assert val == pytest.approx(4 * math.pi, rel=1e-3)


def test_double_integral_ellipse():
    th = 2 * np.pi * (np.arange(512) + 0.5) / 512
    ellipse = ClosedCurve(np.c_[2 * np.cos(th), np.sin(th)])
    val = double_boundary_integral(ellipse, 1)
    assert val == pytest.approx(8 * math.pi ** 2, rel=1e-3)
    # the identity targets the polygon's own area
    assert val == pytest.approx(4 * math.pi * signed_area(ellipse), rel=1e-4)


def test_kernel_symmetric_under_argument_exchange():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.normal(size=2) * 2, rng.normal(size=2) * 2
        if np.hypot(*(x - y)) < 1e-3:
            continue
        u, v = rng.normal(size=2), rng.normal(size=2)
        assert biform_apply(x, y, u, v) == pytest.approx(
            biform_apply(y, x, v, u), abs=1e-13)


def test_double_integral_quadratic_convergence():
    poly = regular_polygon(64)
    target = 4 * math.pi * signed_area(poly)
    errs = [abs(double_boundary_integral(poly, r) - target) for r in (1, 2, 4, 8)]
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 3.0


def test_double_integral_inequality_chain():
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = star_polygon(rng)
        ref = auto_refinement(c)
        val = double_boundary_integral(c, ref)
        p2 = perimeter(c) ** 2
        lower = 4 * math.pi * signed_area(c)
        assert p2 >= val - 1e-8 * p2
        assert val >= lower - 1e-3 * lower


def test_double_integral_rejects_self_intersection():
    bowtie = ClosedCurve([[0, 0], [2, 2], [2, 0], [0, 2]])
    with pytest.raises(CurveError):
        double_boundary_integral(bowtie, 4)


def test_double_integral_nonconvex_star():
    # deep concave star: near-touching boundary arcs across the core
    th = 2 * np.pi * np.arange(10) / 10
    r = np.where(np.arange(10) % 2 == 0, 1.0, 0.35)
    star = ClosedCurve(np.c_[r * np.cos(th), r * np.sin(th)])
    val = double_boundary_integral(star, 104)
    assert val == pytest.approx(4 * math.pi * signed_area(star), rel=1e-3)


def test_double_integral_thin_triangle_near_pairs():
    # a short edge flanked by long ones produces cross-edge node pairs inside
    # the near-diagonal band, exercising the local re-integration
    tri = ClosedCurve([[0.0, 0.0], [2.0, 0.0], [2.0, 0.1]])
    val = double_boundary_integral(tri, 256)
    assert val == pytest.approx(4 * math.pi * signed_area(tri), rel=1e-3)


def spiky_star(rng, n):
    """Simple star with jittered, monotone angles and random radii: many
    near-diagonal pairs at its spikes."""
    th = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = rng.uniform(0.3, 1.5, n)
    return np.c_[r * np.cos(th), r * np.sin(th)]


METRICS = {"plane": (1.0, 1.0), "sphere": (1.0, 1.0, 1.0),
           "hyperboloid": (1.0, 1.0, -1.0)}


def metric_nodes(space, rng):
    if space == "plane":
        c = ClosedCurve(spiky_star(rng, 40))
        return boundary_node_arrays(c, 3)[:4]
    if space == "sphere":
        return sphere_boundary_nodes(geodesic_cap(rng.uniform(0.3, 2.5), 37), 3)
    return hyperbolic_boundary_nodes(
        hyperbolic_circle(rng.uniform(0.3, 2.0), 37, rng.uniform(0, 1)), 3)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), refinement=st.integers(2, 3),
       shift=st.integers(1, 10**6))
def test_double_integral_bitwise_independent_of_blocking_and_start(
        seed, refinement, shift):
    # 400 to 1050 nodes: several row blocks at every budget below
    rng = np.random.default_rng(seed)
    v = spiky_star(rng, int(rng.integers(200, 350)))
    want = double_boundary_integral(ClosedCurve(v), refinement, False).hex()
    rolled = ClosedCurve(np.roll(v, shift % len(v), axis=0))
    assert double_boundary_integral(rolled, refinement, False).hex() == want
    for budget in (1 << 12, 1 << 15, 1 << 24):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_BLOCK_BYTES", budget)
            got = double_boundary_integral(ClosedCurve(v), refinement, False)
        assert got.hex() == want


@settings(max_examples=30, deadline=None)
@given(space=st.sampled_from(sorted(METRICS)), seed=st.integers(0, 2**32 - 1))
def test_kernel_bitwise_symmetric(space, seed):
    J = METRICS[space]
    P, T, _, _ = metric_nodes(space, np.random.default_rng(seed))
    i, j = np.nonzero(~np.eye(len(P), dtype=bool))

    def kern(a, b):
        d = [p[a] - p[b] for p in P.T]
        return quadrature._kernel(d, [t[a] for t in T.T], [t[b] for t in T.T],
                                  J, quadrature.metric_dot(J, d, d))

    assert kern(i, j).tobytes() == kern(j, i).tobytes()


@pytest.mark.parametrize("space", sorted(METRICS))
def test_pair_sum_equals_exact_sum_of_full_matrix(space):
    # doubling the upper triangle sums the same multiset as all ordered pairs
    J = METRICS[space]
    P, T, W, E = metric_nodes(space, np.random.default_rng(7))
    d = [p[:, None] - p[None, :] for p in P.T]
    same = E[:, None] == E[None, :]
    r2 = np.where(same, 1.0, quadrature.metric_dot(J, d, d))
    K = np.where(same, 1.0, quadrature._kernel(
        d, [t[:, None] for t in T.T], [t[None, :] for t in T.T], J, r2))
    full = math.fsum(((W[:, None] * W[None, :]) * K).ravel())
    assert quadrature.pair_sum(P, T, W, E, J).hex() == full.hex()


def refined_pair_reference(sa_i, sb_i, t_i, sa_j, sb_j, t_j, w_i, w_j, k=8):
    """One near pair re-integrated on a k x k midpoint subgrid, pair by
    pair: the reference for the batched refinement."""
    s = (np.arange(k) + 0.5) / k
    pi = sa_i[None, :] + s[:, None] * (sb_i - sa_i)[None, :]
    pj = sa_j[None, :] + s[:, None] * (sb_j - sa_j)[None, :]
    d = pi[:, None, :] - pj[None, :, :]
    r2 = np.einsum("abk,abk->ab", d, d)
    vals = 2.0 * (d @ t_i) * (d @ t_j) / r2 - t_i @ t_j
    return (w_i / k) * (w_j / k) * math.fsum(vals.ravel())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), refinement=st.integers(1, 4))
def test_batched_refinement_matches_per_pair_reference(seed, refinement):
    rng = np.random.default_rng(seed)
    c = ClosedCurve(spiky_star(rng, int(rng.integers(20, 80))))
    P, T, W, E, SA, SB = boundary_node_arrays(c, refinement)
    dist = np.hypot(*(P[:, None] - P[None, :]).T)
    i, j = np.nonzero((dist < W.max() / 4) & (E[:, None] != E[None, :]))
    assume(len(i) > 0)
    terms = np.concatenate([np.asarray(t) for t in quadrature._refined_terms(
        SA, SB, T, W, (1.0, 1.0), i, j)]).reshape(len(i), -1)
    for a, b, row in zip(i, j, terms):
        want = refined_pair_reference(SA[a], SB[a], T[a], SA[b], SB[b], T[b],
                                      W[a], W[b])
        # relative to w_i w_j, which bounds the pair's integral (|K| <= 1)
        # where the integral itself cancels
        assert abs(math.fsum(row) / 2 - want) <= 1e-15 * W[a] * W[b]


def test_line_integral_propagates_field_failure():
    def broken(p):
        raise RuntimeError("no field here")

    with pytest.raises(RuntimeError):
        line_integral(SQUARE, broken)


# ---------------------------------------------------------------------------
# Stokes check


def test_stokes_circle_node():
    c = regular_polygon(256)
    y = boundary_nodes(c, 1)[0]
    lhs, rhs = stokes_check(c, y.point.as_array())
    assert lhs == pytest.approx(2 * math.pi, abs=1e-3)
    assert rhs == pytest.approx(2 * math.pi, abs=1e-3)
    assert abs(lhs - rhs) <= 1e-3


def test_stokes_square_nodes():
    pts, _, _, _, _, _ = boundary_node_arrays(SQUARE, 64)
    for idx in (0, 31, 63):  # corner-adjacent and mid-edge
        lhs, rhs = stokes_check(SQUARE, pts[idx], refinement=64, n_phi=8192)
        assert abs(lhs - rhs) <= 1e-3 * perimeter(SQUARE)


def test_stokes_lhs_bounded_by_perimeter():
    c = regular_polygon(128)
    pts, _, _, _, _, _ = boundary_node_arrays(c, 1)
    for idx in (0, 17, 100):
        lhs, _ = stokes_check(c, pts[idx], n_phi=512)
        assert lhs <= perimeter(c) + 1e-9


def test_stokes_requires_point_on_curve():
    with pytest.raises(CurveError):
        stokes_check(SQUARE, (0.5, 0.5))


def test_interior_curl_integral_sign():
    # positively oriented circle: positive density at interior points seen
    # from any boundary source
    c = regular_polygon(64)
    y = boundary_nodes(c, 1)[0]
    val = interior_curl_integral(c, y.point.as_array(),
                                 y.tangent.as_array(), n_phi=1024)
    assert val > 0


def inside_length_exact(v, p, w) -> Fraction:
    """Length of {r > 0 : p + r w inside the polygon v}, in rationals: the
    line crossings by the half-open side rule, alternately summed from the
    farthest one (outside beyond it)."""
    P, W = [Fraction(c) for c in p], [Fraction(c) for c in w]
    V = [(Fraction(a) - P[0], Fraction(b) - P[1]) for a, b in v]
    side = [W[0] * b - W[1] * a for a, b in V]
    dist = [W[0] * a + W[1] * b for a, b in V]
    rs = []
    for i in range(len(V)):
        j = (i + 1) % len(V)
        if (side[i] > 0) != (side[j] > 0):
            r = dist[i] + (dist[j] - dist[i]) * side[i] / (side[i] - side[j])
            if r > 0:
                rs.append(r)
    rs.sort(reverse=True)
    return sum(rs[0::2], Fraction(0)) - sum(rs[1::2], Fraction(0))


def one_vertex_per_ray_polygons(count, n_phi):
    """Star polygons with y the midpoint of edge 0 and every other vertex
    moved onto its own sample ray of interior_curl_integral from y, so that
    rays pass through vertices but no edge lies along a ray."""
    rng = np.random.default_rng(2024)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    w = np.c_[np.cos(phi), np.sin(phi)]
    out = []
    while len(out) < count:
        v = star_polygon(rng, 6, 20).vertices.copy()
        y = 0.5 * (v[0] + v[1])
        d = v[2:] - y
        k = np.floor(np.arctan2(d[:, 1], d[:, 0]) % (2 * np.pi)
                     / (2 * np.pi) * n_phi).astype(int) % n_phi
        if len(set(k)) < len(k):
            continue
        v[2:] = y + np.hypot(*d.T)[:, None] * w[k]
        c = ClosedCurve(v)
        if c.is_simple and c.orientation > 0:
            out.append((c, y))
    return out


def test_interior_curl_integral_rays_through_vertices():
    # a ray through a vertex meets both of its edges there; crossing parity
    # must count that vertex once (or twice, where the ray only touches it)
    n_phi = 64
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    w = np.c_[np.cos(phi), np.sin(phi)]
    for c, y in one_vertex_per_ray_polygons(40, n_phi):
        e = c.vertices[1] - c.vertices[0]
        t = e / np.hypot(*e)
        mu = [float(inside_length_exact(c.vertices, y, wk)) for wk in w]
        want = math.fsum(-2.0 * (w[:, 0] * t[1] - w[:, 1] * t[0])
                         * np.array(mu) * (2.0 * np.pi / n_phi))
        got = interior_curl_integral(c, y, t, n_phi=n_phi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_interior_curl_integral_bitwise_independent_of_blocking(monkeypatch):
    c = star_polygon(np.random.default_rng(17), 40, 60)
    y = 0.5 * (c.vertices[0] + c.vertices[1])
    t = (1.0, 0.0)
    want = interior_curl_integral(c, y, t, n_phi=1000).hex()
    for budget in (1, 1 << 10, 1 << 24):
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
        assert interior_curl_integral(c, y, t, n_phi=1000).hex() == want


# ---------------------------------------------------------------------------
# reports


def test_verify_circle_equality_case():
    c = regular_polygon(2048)
    rep = verify_isoperimetric(c)
    assert abs(rep.deficit) <= 1e-4
    assert abs(rep.calibration_gap) <= 1e-4
    assert rep.double_integral == pytest.approx(rep.lower_bound, rel=1e-4)
    assert rep.space_tag == "euclidean"


def test_verify_square_exact_deficit():
    rep = verify_isoperimetric(SQUARE)
    assert rep.deficit == pytest.approx(16.0 - 4.0 * math.pi, abs=1e-12)
    assert rep.perimeter == 4.0
    assert rep.area == 1.0


def test_verify_random_polygons_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = star_polygon(rng)
        rep = verify_isoperimetric(c)
        assert rep.deficit >= 0.0
        assert rep.calibration_gap >= -1e-8


def test_verify_hundred_random_polygons_cheap_refinement():
    # wider sweep at a coarse refinement: deficits of generic polygons
    # dominate the quadrature error by orders of magnitude
    rng = np.random.default_rng(6)
    for _ in range(100):
        c = star_polygon(rng)
        rep = verify_isoperimetric(
            c, refinement=max(2, math.ceil(128 / c.n_vertices)))
        assert rep.deficit >= 0.0
        assert rep.calibration_gap >= -1e-8


def test_verify_rejects_reversed_orientation():
    with pytest.raises(OrientationError):
        verify_isoperimetric(reverse(SQUARE))
    # and the signed area itself reports the flipped sign rather than hiding it
    assert signed_area(reverse(SQUARE)) == -1.0


def test_auto_refinement_targets_node_count():
    assert auto_refinement(SQUARE) * 4 >= 512
    assert auto_refinement(regular_polygon(1024)) == 2
