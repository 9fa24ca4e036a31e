import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_rotation3
from isocal import (
    CurveError,
    HyperbolicCurve,
    SphericalCurve,
    geodesic_cap,
    hyperbolic_area,
    hyperbolic_circle,
    hyperbolic_double_integral,
    hyperbolic_perimeter,
    minkowski_dot,
    regular_polygon,
    sphere_area,
    sphere_double_integral,
    sphere_perimeter,
    verify_hyperbolic_isoperimetric,
    verify_isoperimetric,
    verify_sphere_isoperimetric,
)
from isocal import quadrature
from isocal import curves
from isocal.spaces import (
    _check_simple_sphere,
    hyperbolic_boundary_nodes,
    lorentz_boost,
    sphere_boundary_nodes,
)

OCTANT = SphericalCurve([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def wobbled_cap(theta, n, amplitude=0.05, modes=3):
    phi = 2.0 * np.pi * np.arange(n) / n
    th = theta * (1.0 + amplitude * np.sin(modes * phi))
    return SphericalCurve(np.c_[np.sin(th) * np.cos(phi),
                                np.sin(th) * np.sin(phi), np.cos(th)])


def wobbled_hyperbolic_circle(r, n, amplitude=0.05, modes=3):
    phi = 2.0 * np.pi * np.arange(n) / n
    rr = r * (1.0 + amplitude * np.sin(modes * phi))
    return HyperbolicCurve(np.c_[np.sinh(rr) * np.cos(phi),
                                 np.sinh(rr) * np.sin(phi), np.cosh(rr)])


# ---------------------------------------------------------------------------
# spherical curves


def test_spherical_curve_validation():
    with pytest.raises(CurveError):
        SphericalCurve([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(CurveError):
        SphericalCurve([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_sphere_perimeter_equator():
    eq = geodesic_cap(math.pi / 2, 512)
    assert sphere_perimeter(eq) == pytest.approx(2 * math.pi, abs=1e-4)


def test_sphere_perimeter_small_circle():
    cap = geodesic_cap(math.pi / 3, 512)
    assert sphere_perimeter(cap) == pytest.approx(
        2 * math.pi * math.sin(math.pi / 3), abs=1e-4)


def test_sphere_area_octant():
    assert sphere_area(OCTANT) == pytest.approx(math.pi / 2, abs=1e-14)
    assert sphere_perimeter(OCTANT) == pytest.approx(3 * math.pi / 2, abs=1e-14)


def test_sphere_area_caps():
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        cap = geodesic_cap(theta, 512)
        assert sphere_area(cap) == pytest.approx(
            2 * math.pi * (1 - math.cos(theta)), abs=1e-3)


def test_sphere_area_hemisphere():
    assert sphere_area(geodesic_cap(math.pi / 2, 512)) == pytest.approx(
        2 * math.pi, abs=1e-3)


def test_geodesic_cap_equator_square():
    sq = geodesic_cap(math.pi / 2, 4)
    assert np.abs(sq.vertices[:, 2]).max() <= 1e-15
    assert sphere_area(sq) == pytest.approx(2 * math.pi, abs=1e-12)


def test_geodesic_cap_identity():
    # L^2 = (4 pi - A) A for metric circles on the sphere
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        cap = geodesic_cap(theta, 512)
        L, A = sphere_perimeter(cap), sphere_area(cap)
        assert L * L == pytest.approx((4 * math.pi - A) * A, rel=5e-3)


def test_geodesic_cap_flat_limit():
    cap = geodesic_cap(0.05, 64)
    L, A = sphere_perimeter(cap), sphere_area(cap)
    assert A < 0.01 and L < 0.4
    assert L * L / (4 * math.pi * A) == pytest.approx(1.0, abs=0.01)


def test_geodesic_cap_bad_arguments():
    with pytest.raises(ValueError):
        geodesic_cap(0.0, 64)
    with pytest.raises(ValueError):
        geodesic_cap(0.5, 2)


def test_sphere_double_integral_caps():
    for theta, a_exact in ((math.pi / 3, math.pi), (math.pi / 2, 2 * math.pi)):
        cap = geodesic_cap(theta, 512)
        A = sphere_area(cap)
        val = sphere_double_integral(cap)
        assert val == pytest.approx(4 * math.pi * A - A * A, rel=1e-2)
        # sanity against the closed-form cap area
        assert A == pytest.approx(2 * math.pi * (1 - math.cos(theta)), abs=1e-3)


def test_sphere_double_integral_hemisphere_value():
    cap = geodesic_cap(math.pi / 2, 512)
    assert sphere_double_integral(cap) == pytest.approx(
        4 * math.pi ** 2, rel=1e-2)


def test_sphere_double_integral_tiny_cap_flat_limit():
    cap = geodesic_cap(0.05, 512)
    A = sphere_area(cap)
    val = sphere_double_integral(cap)
    assert val == pytest.approx(4 * math.pi * A, rel=1e-2)


def test_verify_sphere_equality_cases():
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
        rep = verify_sphere_isoperimetric(geodesic_cap(theta, 512))
        assert abs(rep.deficit) <= 5e-3 * rep.perimeter ** 2
        assert rep.space_tag == "sphere"


def test_verify_sphere_wobbled_cap_has_deficit():
    rep = verify_sphere_isoperimetric(wobbled_cap(math.pi / 4, 256))
    assert rep.deficit > 0.01
    # the integrated restriction identity holds off the equality case too
    want = 4 * math.pi * rep.area - rep.area ** 2
    assert abs(rep.double_integral - want) <= 1e-2 * 4 * math.pi * rep.area


def test_verify_sphere_octant_deficit():
    rep = verify_sphere_isoperimetric(OCTANT, refinement=256)
    want = (3 * math.pi / 2) ** 2 - (4 * math.pi - math.pi / 2) * (math.pi / 2)
    assert rep.deficit == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.5 * math.pi ** 2, abs=1e-12)
    assert rep.deficit > 0


def test_sphere_rotation_invariance():
    rng = np.random.default_rng(0)
    cap = wobbled_cap(math.pi / 5, 128)
    L, A = sphere_perimeter(cap), sphere_area(cap)
    for _ in range(5):
        r = random_rotation3(rng)
        moved = SphericalCurve(cap.vertices @ r.T)
        assert sphere_perimeter(moved) == pytest.approx(L, abs=1e-10)
        assert sphere_area(moved) == pytest.approx(A, abs=1e-10)


def test_sphere_self_intersection_rejected():
    def pt(lon, lat):
        return [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
                math.sin(lat)]

    bowtie = SphericalCurve([pt(0.0, 0.0), pt(1.5, 0.0),
                             pt(0.0, 0.6), pt(1.5, 0.6)])
    with pytest.raises(CurveError):
        verify_sphere_isoperimetric(bowtie)


def check_simple_sphere_reference(curve):
    """The all-pairs great-circle crossing test: one row of sign tests per
    vertex, in vertex order."""
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


def simplicity_error(check, curve):
    try:
        check(curve)
    except CurveError as e:
        return str(e)
    return None


def random_geodesic_polygon(rng, kind, n):
    """Points scattered in a cap (mostly self-intersecting), or a star about
    the cap's centre (sorted azimuths, random colatitudes), turned at
    random."""
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    if kind == "star":
        phi.sort()
    radius = rng.uniform(0.05, 2.5)
    th = radius * (np.sqrt(rng.uniform(0.0, 1.0, n)) if kind == "scatter"
                   else rng.uniform(0.3, 1.0, n))
    v = np.c_[np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi), np.cos(th)]
    return v @ random_rotation3(rng).T


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["scatter", "star"]),
       n=st.integers(3, 40), shift=st.integers(0, 10**6))
def test_sphere_simplicity_matches_all_pairs_reference(seed, kind, n, shift):
    try:
        curve = SphericalCurve(random_geodesic_polygon(
            np.random.default_rng(seed), kind, n))
    except CurveError:
        return  # coincident or antipodal neighbours: not a curve
    want = simplicity_error(check_simple_sphere_reference, curve)
    assert simplicity_error(_check_simple_sphere, curve) == want
    for v in (np.roll(curve.vertices, shift % n, axis=0), curve.vertices[::-1]):
        got = simplicity_error(_check_simple_sphere, SphericalCurve(v))
        assert (got is None) == (want is None)


def test_sphere_crossing_in_the_bulge_of_a_long_arc_detected():
    # the 160-degree equator arc reaches x = 1 at longitude 0, far outside
    # its endpoints' box (x = cos 80 degrees); edge DE crosses it there
    def pt(lat, lon):
        lat, lon = math.radians(lat), math.radians(lon)
        return [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
                math.sin(lat)]

    curve = SphericalCurve([pt(0, -80), pt(0, 80), pt(40, 80), pt(10, 0),
                            pt(-10, 0), pt(-40, -80)])
    with pytest.raises(CurveError, match="self-intersecting"):
        _check_simple_sphere(curve)
    assert simplicity_error(check_simple_sphere_reference, curve) is not None


@pytest.mark.parametrize("budget", [1, 100, 1 << 17])
def test_sphere_simplicity_at_any_chunk_budget(monkeypatch, budget):
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    _check_simple_sphere(geodesic_cap(1.0, 4096))
    _check_simple_sphere(wobbled_cap(2.8, 300, 0.05, 5))
    for seed in range(30):
        curve = SphericalCurve(random_geodesic_polygon(
            np.random.default_rng(seed), "scatter", 12))
        assert (simplicity_error(_check_simple_sphere, curve)
                == simplicity_error(check_simple_sphere_reference, curve))


# ---------------------------------------------------------------------------
# hyperbolic curves


def test_hyperbolic_curve_validation():
    with pytest.raises(CurveError):
        HyperbolicCurve([[0.0, 0.0, 1.1], [1.0, 0.0, math.sqrt(2.0)],
                         [0.0, 1.0, math.sqrt(2.0)]])
    lower = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, -math.sqrt(2)],
                      [0.0, 1.0, -math.sqrt(2)]])
    with pytest.raises(CurveError):
        HyperbolicCurve(lower)


def test_hyperbolic_circle_perimeter_and_area():
    c = hyperbolic_circle(1.0, 512)
    assert hyperbolic_perimeter(c) == pytest.approx(
        2 * math.pi * math.sinh(1.0), abs=1e-3)
    assert hyperbolic_area(c) == pytest.approx(
        2 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-3)


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_hyperbolic_polygon_perimeter_closed_form(r, n):
    # each edge of the inscribed regular n-gon has length
    # 2 asinh(sinh r sin(pi / n)); arccosh(-<a, b>) cancels on short edges
    want = n * 2.0 * math.asinh(math.sinh(r) * math.sin(math.pi / n))
    assert hyperbolic_perimeter(hyperbolic_circle(r, n)) == pytest.approx(
        want, rel=1e-14, abs=0)


def test_right_angled_pentagon_area():
    # a regular pentagon with five right angles has defect
    # (5 - 2) pi - 5 pi/2 = pi/2; circumradius arccosh(cot(pi/5 ... 36 deg))
    R = math.acosh(1.0 / math.tan(math.radians(36.0)))
    phi = 2.0 * np.pi * np.arange(5) / 5
    pent = HyperbolicCurve(np.c_[np.sinh(R) * np.cos(phi),
                                 np.sinh(R) * np.sin(phi),
                                 np.full(5, math.cosh(R))])
    assert hyperbolic_area(pent) == pytest.approx(math.pi / 2, abs=1e-12)


def test_hyperbolic_equality_cases():
    for r in (0.1, 0.5, 1.0):
        c = hyperbolic_circle(r, 512)
        L, A = hyperbolic_perimeter(c), hyperbolic_area(c)
        assert L * L == pytest.approx((4 * math.pi + A) * A, rel=5e-3)


def test_hyperbolic_double_integral_equality_on_circles():
    for r in (0.5, 1.0):
        c = hyperbolic_circle(r, 384)
        val = hyperbolic_double_integral(c)
        L, A = hyperbolic_perimeter(c), hyperbolic_area(c)
        assert val == pytest.approx(L * L, rel=1e-4)
        assert val == pytest.approx((4 * math.pi + A) * A, rel=1e-3)


def test_verify_hyperbolic_reports():
    for r in (0.1, 0.5, 1.0):
        rep = verify_hyperbolic_isoperimetric(hyperbolic_circle(r, 512))
        assert abs(rep.deficit) <= 5e-3 * rep.perimeter ** 2
        assert rep.calibration_gap >= -1e-6 * rep.perimeter ** 2
        assert rep.space_tag == "hyperbolic"


def test_verify_hyperbolic_wobbled_circle_has_deficit():
    rep = verify_hyperbolic_isoperimetric(wobbled_hyperbolic_circle(0.8, 256))
    assert rep.deficit > 0.01
    # the double integral still tracks the sharp bound away from equality
    assert rep.double_integral == pytest.approx(rep.lower_bound, rel=1e-2)


def test_hyperbolic_flat_limit_matches_plane():
    c = hyperbolic_circle(0.1, 512)
    L, A = hyperbolic_perimeter(c), hyperbolic_area(c)
    assert L * L / (4 * math.pi * A) == pytest.approx(1.0, abs=0.01)
    flat = verify_isoperimetric(regular_polygon(512, radius=0.1))
    assert L == pytest.approx(flat.perimeter, rel=5e-3)
    assert A == pytest.approx(flat.area, rel=5e-3)


def test_lorentz_invariance():
    rng = np.random.default_rng(1)
    c = wobbled_hyperbolic_circle(0.7, 128)
    L, A = hyperbolic_perimeter(c), hyperbolic_area(c)
    for _ in range(5):
        b = lorentz_boost(rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi))
        moved = HyperbolicCurve(c.vertices @ b.T)
        assert hyperbolic_perimeter(moved) == pytest.approx(L, abs=1e-8)
        assert hyperbolic_area(moved) == pytest.approx(A, abs=1e-8)


def test_boost_preserves_hyperboloid():
    b = lorentz_boost(0.8, 0.3)
    v = hyperbolic_circle(0.5, 16).vertices @ b.T
    quad = v[:, 0] ** 2 + v[:, 1] ** 2 - v[:, 2] ** 2
    assert np.abs(quad + 1.0).max() <= 1e-12
    assert v[:, 2].min() >= 1.0


def test_hyperbolic_self_intersection_rejected():
    c = hyperbolic_circle(0.8, 8).vertices.copy()
    c[[0, 1]] = c[[1, 0]]  # swap two vertices to force a crossing
    with pytest.raises(CurveError):
        verify_hyperbolic_isoperimetric(HyperbolicCurve(c))


def test_minkowski_dot_signature():
    assert minkowski_dot([1, 2, 3], [4, 5, 6]) == 4 + 10 - 18


def test_hyperbolic_kernel_norm_bound_empirical():
    # the |alpha| <= 1 bound for the Minkowski kernel on hyperboloid tangent
    # pairs is claimed empirically only; this is that evidence
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5000):
        pts = []
        for w in rng.normal(size=(2, 2)) * 1.2:
            r = np.linalg.norm(w)
            d = w / r if r > 1e-9 else np.array([1.0, 0.0])
            pts.append(np.array([math.sinh(r) * d[0], math.sinh(r) * d[1],
                                 math.cosh(r)]))
        x, y = pts
        z = x - y
        zz = minkowski_dot(z, z)
        if zz < 1e-12:
            continue

        def tangent(p):
            v = rng.normal(size=3)
            v = v + minkowski_dot(v, p) * p
            return v / math.sqrt(minkowski_dot(v, v))

        u, v = tangent(x), tangent(y)
        val = 2 * minkowski_dot(z, u) * minkowski_dot(z, v) / zz \
            - minkowski_dot(u, v)
        worst = max(worst, abs(val))
    assert worst <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# node generation and the pair sum


def sphere_nodes_reference(v, refinement):
    """Per-sub-arc loop over slerp breakpoints: the reference for the array
    node generator."""
    pts, tans, wts = [], [], []
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        ang = math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))
        q = [(math.sin((1 - k / refinement) * ang) * a
              + math.sin(k / refinement * ang) * b) / math.sin(ang)
             for k in range(refinement + 1)]
        for p0, p1 in zip(q, q[1:]):
            pts.append((p0 + p1) / np.linalg.norm(p0 + p1))
            tans.append((p1 - p0) / np.linalg.norm(p1 - p0))
            wts.append(ang / refinement)
    return np.array(pts), np.array(tans), np.array(wts)


def hyperbolic_nodes_reference(v, refinement):
    pts, tans, wts = [], [], []
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        d = 2.0 * math.asinh(math.sqrt(minkowski_dot(b - a, b - a)) / 2.0)
        q = [(math.sinh((1 - k / refinement) * d) * a
              + math.sinh(k / refinement * d) * b) / math.sinh(d)
             for k in range(refinement + 1)]
        for p0, p1 in zip(q, q[1:]):
            m, ch = p0 + p1, p1 - p0
            pts.append(m / math.sqrt(-minkowski_dot(m, m)))
            tans.append(ch / math.sqrt(minkowski_dot(ch, ch)))
            wts.append(d / refinement)
    return np.array(pts), np.array(tans), np.array(wts)


@pytest.mark.parametrize("refinement", [1, 3, 32])
def test_array_nodes_match_loop_reference(refinement):
    cap = wobbled_cap(1.0, 40)
    circle = HyperbolicCurve(wobbled_hyperbolic_circle(0.8, 40).vertices
                             @ lorentz_boost(0.7, 1.1).T)
    for nodes, reference, curve in (
            (sphere_boundary_nodes, sphere_nodes_reference, cap),
            (hyperbolic_boundary_nodes, hyperbolic_nodes_reference, circle)):
        P, T, W, E = nodes(curve, refinement)
        rP, rT, rW = reference(curve.vertices, refinement)
        scale = np.abs(curve.vertices).max()
        assert np.array_equal(E, np.repeat(np.arange(40), refinement))
        assert np.allclose(W, rW, rtol=1e-14, atol=0)
        assert np.abs(P - rP).max() <= 1e-14 * scale
        # a chord is a difference of two nearby points: its rounding grows
        # as the points' scale over the sub-arc length
        assert (np.abs(T - rT).max(axis=1) * W <= 4e-15 * scale).all()


@settings(max_examples=12, deadline=None)
@given(space=st.sampled_from(["sphere", "hyperbolic"]),
       seed=st.integers(0, 2**32 - 1), refinement=st.integers(1, 4),
       shift=st.integers(1, 10**6))
def test_pair_sum_bitwise_independent_of_blocking_and_start(
        space, seed, refinement, shift):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 200))
    amplitude, modes = rng.uniform(0.0, 0.2), int(rng.integers(2, 7))
    if space == "sphere":
        make, integral = SphericalCurve, sphere_double_integral
        v = wobbled_cap(rng.uniform(0.3, 2.5), n, amplitude, modes).vertices
    else:
        make, integral = HyperbolicCurve, hyperbolic_double_integral
        v = wobbled_hyperbolic_circle(rng.uniform(0.3, 2.0), n, amplitude,
                                      modes).vertices
    want = integral(make(v), refinement).hex()
    rolled = make(np.roll(v, shift % n, axis=0))
    assert integral(rolled, refinement).hex() == want
    for budget in (1 << 12, 1 << 15, 1 << 24):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_BLOCK_BYTES", budget)
            assert integral(make(v), refinement).hex() == want
