import math
import sys
import tracemalloc
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
from isocal.curves import PLANE, boundary_node_arrays, distance_to_boundary
from isocal.quadrature import auto_refinement, interior_curl_integral
from isocal.spaces import (
    HYPERBOLIC,
    SPHERE,
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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_winding_integral_rejects_a_tolerance_that_is_not_positive(tol):
    # at tol <= 0 or NaN every interval would split to depth 48: 2^48
    # integrand calls per edge
    with pytest.raises(ValueError, match="tol must be positive"):
        winding_integral(SQUARE, (0.5, 0.5), tol=tol)


def edge_winding_reference(a, b, x, tol: float) -> float:
    """One edge's adaptive Simpson by depth-first recursion, as the winding
    integral was evaluated before its trees were evaluated level by level."""
    e0, e1 = b[0] - a[0], b[1] - a[1]
    c = (a[0] - x[0]) * e1 - (a[1] - x[1]) * e0
    if c == 0.0:
        return 0.0

    def f(s: float) -> float:
        d0 = a[0] + s * e0 - x[0]
        d1 = a[1] + s * e1 - x[1]
        return 2.0 * c / (d0 * d0 + d1 * d1)

    def rec(s0, s2, f0, f1, f2, whole, depth):
        s1 = 0.5 * (s0 + s2)
        lm = f(0.5 * (s0 + s1))
        rm = f(0.5 * (s1 + s2))
        h = s2 - s0
        left = h / 12.0 * (f0 + 4.0 * lm + f1)
        right = h / 12.0 * (f1 + 4.0 * rm + f2)
        err = left + right - whole
        if depth >= 48 or abs(err) < 15.0 * tol:
            return left + right + err / 15.0
        return rec(s0, s1, f0, lm, f1, left, depth + 1) + rec(
            s1, s2, f1, rm, f2, right, depth + 1
        )

    f0, f1, f2 = f(0.0), f(0.5), f(1.0)
    whole = (f0 + 4.0 * f1 + f2) / 6.0
    return rec(0.0, 1.0, f0, f1, f2, whole, 0)


def winding_reference(curve, x, refinement=1, tol=1e-9) -> float:
    *_, starts, ends = PLANE.nodes(curve.vertices, refinement)
    per = tol / len(starts)
    return math.fsum(edge_winding_reference(a, b, np.asarray(x, float), per)
                     for a, b in zip(starts, ends))


def off_edge(curve, i, gap):
    """The point at `gap` edge lengths left of the midpoint of edge i."""
    v = curve.vertices
    a, b = v[i], v[(i + 1) % len(v)]
    return (a + b) / 2 + gap * np.array([-(b - a)[1], (b - a)[0]])


def test_winding_integral_keeps_the_bits_of_the_recursion():
    # inside, outside, and near an edge on either side
    rng = np.random.default_rng(21)
    for _ in range(12):
        c = star_polygon(rng, 3, 48)
        i = int(rng.integers(c.n_vertices))
        for x in ((0.0, 0.0), rng.uniform(2.0, 3.0, 2), off_edge(c, i, 1e-6),
                  off_edge(c, i, -1e-4)):
            for refinement, tol in ((1, 1e-9), (3, 1e-12), (1, 1e-2)):
                assert winding_integral(c, x, refinement, tol).hex() == \
                    winding_reference(c, x, refinement, tol).hex()


@pytest.mark.parametrize("budget", [8, 1 << 10])
def test_winding_integral_is_independent_of_the_chunking(monkeypatch,
                                                         budget):
    # levels of more than budget / 128 intervals go down in chunks
    c = regular_polygon(40)
    x = off_edge(c, 3, 1e-7)
    want = winding_reference(c, x, 2, 1e-11).hex()
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
    assert winding_integral(c, x, 2, 1e-11).hex() == want


def test_winding_integral_keeps_the_bits_at_the_depth_cap():
    # a triangle of size 1e-154 and a point 1.6e-162 from an edge: near the
    # point |y - x|^2 is subnormal, and its rounding keeps the error
    # estimate above 15 tol down to depth 48 on a few intervals
    L, d = 1e-154, 1.6e-162 * (1 - 1e-6)
    c = ClosedCurve([[0.0, 0.0], [L, 0.0], [L / 2, L]])
    depths = []
    simpson_tree = quadrature._simpson_tree

    def spy(edges, x, tol15, depth, nodes):
        depths.append(depth)
        return simpson_tree(edges, x, tol15, depth, nodes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_simpson_tree", spy)
        got = winding_integral(c, (L / 3, -d))
    assert max(depths) == quadrature._SIMPSON_DEPTH
    assert got.hex() == winding_reference(c, (L / 3, -d)).hex()


@pytest.mark.parametrize("budget", [1 << 12, 1 << 14])
def test_winding_integral_memory_is_linear_in_budget(monkeypatch, budget):
    # 1024 pieces refined to depth 33, some 60,000 intervals (7 MB of
    # records).  A level holds at most one budget while its subtrees are
    # evaluated, 48 levels deep; per piece, some 40 floats of nodes, edge
    # data and root records.
    c = regular_polygon(256)
    x = off_edge(c, 0, 4e-6)
    winding_integral(c, x, 4, 1e-12)
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        winding_integral(c, x, 4, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (quadrature._SIMPSON_DEPTH + 1) * budget + 512 * 1024 \
        + (1 << 16)


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
    errs = [abs(quadrature.midpoint_double_integral(poly, r) - target)
            for r in (1, 2, 4, 8)]
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
    # a short edge flanked by long ones: nearly coincident edges, where the
    # kernel's ridge is narrow
    tri = ClosedCurve([[0.0, 0.0], [2.0, 0.0], [2.0, 0.1]])
    val = double_boundary_integral(tri, 256)
    assert val == pytest.approx(4 * math.pi * signed_area(tri), rel=1e-3)


# ---------------------------------------------------------------------------
# the corner sum

# closed polygons and an edge pair (i, j), i < j, of each; the pair's
# parallelogram of z = x - y: z00 = v_i - v_j, z10 = v_(i+1) - v_j, ...
CORNER_PAIRS = {
    "generic": ([[0, 0], [1, 0.2], [0.3, 1.5], [-0.7, 1.1]], 0, 2),
    "adjacent": ([[0, 0], [1, 0], [0.2, 0.7]], 0, 1),
    "adjacent-through-vertex-0": ([[0, 0], [1, 0], [0.2, 0.7]], 0, 2),
    "adjacent-collinear": ([[0, 0], [1, 0], [2.5, 0], [1, 1]], 0, 1),
    "collinear-facing": ([[0, 0], [1, 0], [3, 0], [2, 0]], 0, 2),
    "parallel-1e-3-apart": ([[0, 0], [1, 0], [1, 1e-3], [0, 1e-3]], 0, 2),
    # z straddles x = 0 above 0: corners flipped unalike, no wrap
    "across-the-cut-above-0": ([[0, 0], [1, 0], [0.5, -2], [-0.6, -1.9]],
                               0, 2),
    # z straddles x = 0 below 0: the args span the canonical cut
    "across-the-cut-below-0": ([[0, 0], [1, 0], [0.5, 2], [-0.6, 1.9]], 0, 2),
    # z straddles the negative real axis: all flipped alike
    "across-the-negative-real-axis": ([[0, 0.3], [0, -0.3], [2, -0.6],
                                       [2, 0.6]], 0, 2),
}


def corner_pair_integral(v, i, j):
    """The corner sum's value of the edge pair (i, j): half its doubled
    corner term plus the second difference of -|z|^2 log|z|, which the
    full sum folds into -2 Sum L^2 log L."""
    v = np.asarray(v, float)
    n = len(v)
    z = v[:, 0] + 1j * v[:, 1]
    e = np.roll(z, -1) - z
    L = np.abs(e)
    # n <= 4: all rows in one block
    block = next(quadrature._corner_terms(z, e / L))
    parts = [block[i, j - 1] / 2]
    for p, q, sign in ((i + 1, j + 1, 1), (i, j, 1), (i + 1, j, -1),
                       (i, j + 1, -1)):
        d = v[p % n] - v[q % n]
        r2 = float(d @ d)
        parts.append(-sign * 0.5 * r2 * math.log(r2) if r2 else 0.0)
    return math.fsum(parts), L[i], L[j]


def kernel_dblquad(v, i, j):
    """The integral of quadrature._kernel over edges i and j by
    scipy.integrate.dblquad, the inner integral split where it meets the
    ridge of nearly coincident points."""
    integrate = pytest.importorskip("scipy.integrate")
    v = np.asarray(v, float)
    n = len(v)
    a, b, c, d = v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]
    Li, Lj = float(np.hypot(*(b - a))), float(np.hypot(*(d - c)))
    ti, tj = ((b - a) / Li).tolist(), ((d - c) / Lj).tolist()
    ox, oy = (a - c).tolist()

    def f(t, s):
        z = [ox + s * ti[0] - t * tj[0], oy + s * ti[1] - t * tj[1]]
        return quadrature._kernel(z, ti, tj, (1.0, 1.0),
                                  z[0] * z[0] + z[1] * z[1])

    def ridge(s):
        t = (ox + s * ti[0]) * tj[0] + (oy + s * ti[1]) * tj[1]
        return min(max(t, 0.0), Lj)

    opts = {"epsabs": 1e-14 * Li * Lj, "epsrel": 0.0}
    return (integrate.dblquad(f, 0.0, Li, 0.0, ridge, **opts)[0]
            + integrate.dblquad(f, 0.0, Li, ridge, Lj, **opts)[0])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(CORNER_PAIRS))
def test_corner_term_is_the_integral_of_the_kernel(name):
    v, i, j = CORNER_PAIRS[name]
    want = kernel_dblquad(v, i, j)
    got, Li, Lj = corner_pair_integral(v, i, j)
    assert abs(got - want) <= 1e-14 * Li * Lj


def test_double_integral_does_not_depend_on_the_refinement():
    c = ClosedCurve(spiky_star(np.random.default_rng(5), 60))
    want = double_boundary_integral(c).hex()
    for refinement in (1, 3, 64):
        assert double_boundary_integral(c, refinement).hex() == want


@pytest.mark.parametrize("n, budget", [(512, 1 << 12), (2048, 1 << 17)])
def test_corner_sum_memory_is_linear_in_budget(monkeypatch, n, budget):
    # spiky stars.  A block's complex temporaries, on its vertex grid, have
    # at most max(budget, 16 n) + 16 n <= 2 max(budget, 16 n) bytes; some
    # fifteen live at once, the reduction's included; each pair whose
    # branch is restored, at most one per grid entry, takes some 250
    # bytes; per vertex, a few complex numbers; the 4096-bin sums are
    # fixed.  The full complex matrix is 4 MiB and 64 MiB.
    c = ClosedCurve(spiky_star(np.random.default_rng(9), n))
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        double_boundary_integral(c, check_simple=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * max(budget, 16 * n) + (1 << 17)


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


# ---------------------------------------------------------------------------
# the exact binned reduction against math.fsum


def exact_sum(*chunks):
    acc = quadrature._ExactSum()
    for c in chunks:
        acc.add(np.asarray(c, dtype=float))
    return acc.value()


def split(terms, cuts):
    """terms cut into consecutive chunks at the given positions."""
    edges = sorted({min(c, len(terms)) for c in cuts})
    return [terms[a:b] for a, b in zip([0] + edges, edges + [len(terms)])]


# sign * m * 2^e over every exponent, subnormals included; below 2^1000 in
# magnitude, so that no sum of a few thousand terms leaves the float range
spread = st.builds(lambda s, m, e: s * math.ldexp(m, e),
                   st.sampled_from([1.0, -1.0]), st.integers(0, 2**53 - 1),
                   st.integers(-1074, 946))
anyfloat = st.floats(-2.0**1000, 2.0**1000) | spread | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022])


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(anyfloat, max_size=200),
       cuts=st.lists(st.integers(0, 200), max_size=4))
def test_exact_sum_matches_fsum_bit_for_bit(terms, cuts):
    assert exact_sum(*split(terms, cuts)).hex() == math.fsum(terms).hex()


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(st.sampled_from([0.0, -0.0]), max_size=20),
       extra=st.lists(anyfloat, max_size=3))
def test_exact_sum_signed_zeros(terms, extra):
    for t in (terms, terms + extra):
        assert exact_sum(t).hex() == math.fsum(t).hex()


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(anyfloat, min_size=1, max_size=100),
       extra=st.lists(anyfloat, max_size=1), seed=st.integers(0, 2**32 - 1))
def test_exact_sum_exact_cancellation(terms, extra, seed):
    both = np.random.default_rng(seed).permutation(
        terms + [-t for t in terms] + extra)
    assert exact_sum(both).hex() == math.fsum(both).hex()
    if not extra:
        assert exact_sum(both).hex() == (0.0).hex()


@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_exact_sum_of_one_term_is_the_term(x):
    # fsum([-0.0]) is 0.0, its zero sum
    assert exact_sum([x]).hex() == math.fsum([x]).hex() == (x + 0.0).hex()


@settings(max_examples=50, deadline=None)
@given(e=st.integers(-1074, 940), count=st.integers(1, 5000),
       sign=st.sampled_from([1.0, -1.0]))
def test_exact_sum_many_max_significand_terms(e, count, sign):
    # every fraction bit set: both halves of each bin at their largest
    x = sign * math.ldexp(2**53 - 1, e)
    terms = [x] * count
    assert exact_sum(terms).hex() == math.fsum(terms).hex()


@settings(max_examples=50, deadline=None)
@given(terms=st.lists(anyfloat, max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=4),
       limit=st.integers(1, 7))
def test_exact_sum_across_flushes(terms, cuts, limit):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_FLUSH_TERMS", limit)
        got = exact_sum(*split(terms, cuts))
    assert got.hex() == math.fsum(terms).hex()


def test_exact_sum_flushes_hold_at_most_the_limit(monkeypatch):
    monkeypatch.setattr(quadrature, "_FLUSH_TERMS", 5)
    flushes = []
    flush = quadrature._ExactSum._flush
    monkeypatch.setattr(quadrature._ExactSum, "_flush",
                        lambda self: flushes.append(self._terms) or flush(self))
    terms = np.random.default_rng(2).normal(size=23) * 1e10
    assert exact_sum(terms[:3], terms[3:17], terms[17:]).hex() == \
        math.fsum(terms).hex()
    assert sum(flushes) == 23 and len(flushes) >= 5
    assert all(0 <= k <= 5 for k in flushes)


def test_pair_sum_bitwise_independent_of_flush_limit(monkeypatch):
    c = ClosedCurve(spiky_star(np.random.default_rng(4), 120))
    want = double_boundary_integral(c, 3, False).hex()
    monkeypatch.setattr(quadrature, "_FLUSH_TERMS", 997)
    assert double_boundary_integral(c, 3, False).hex() == want


@pytest.mark.parametrize("terms", [
    [math.inf, 1.0], [-math.inf, -1.0, 1e308], [1.0, math.inf, math.inf],
    [math.nan, 1.0], [math.inf, math.nan], [-0.0, math.nan, -math.inf]])
def test_exact_sum_non_finite_like_fsum(terms):
    assert exact_sum(terms).hex() == math.fsum(terms).hex()


@pytest.mark.parametrize("terms", [[math.inf, -math.inf],
                                   [1.0, -math.inf, 2.0, math.inf]])
def test_exact_sum_inf_minus_inf_raises_like_fsum(terms):
    with pytest.raises(ValueError):
        math.fsum(terms)
    with pytest.raises(ValueError):
        exact_sum(terms)


def test_exact_sum_beyond_float_range_raises_like_fsum():
    big = [1.7e308, 1.7e308]
    with pytest.raises(OverflowError):
        math.fsum(big)
    with pytest.raises(OverflowError):
        exact_sum(big)
    # the largest float plus half its last place rounds to even, upward
    edge = [sys.float_info.max, math.ldexp(1.0, 970)]
    with pytest.raises(OverflowError):
        exact_sum(edge)
    assert exact_sum([sys.float_info.max, math.ldexp(1.0, 969)]) == \
        sys.float_info.max


@pytest.mark.parametrize("x", [math.ldexp(2**53 - 1, -600),
                               -math.ldexp(2**53 - 1, -1074),
                               math.ldexp(2**52 - 1, -1074),
                               math.ldexp(2**53 - 1, 997 - 52),
                               -math.ldexp(2**53 - 1, 998 - 52)],
                         ids=["normal", "lowest-binade", "subnormal",
                              "top-binned", "first-scaled"])
def test_exact_sum_at_its_flush_limit(x):
    # 2^26 + 3 terms of one bin, every fraction bit set, in 2^20-term chunks:
    # the bin sums reach their largest value just before the flush, and a
    # limit above 2^26 would round them (or, from 2^998 on, overflow them).
    # Terms of the opposite sign, the sum rounded to a float or as many
    # times the largest float as fit, leave the exact residual, which shows
    # any such rounding.
    count = (1 << 26) + 3
    total = count * Fraction(x)
    chunk = np.full(1 << 20, x)
    acc = quadrature._ExactSum()
    for k0 in range(0, count, len(chunk)):
        acc.add(chunk[:count - k0])
    big = sys.float_info.max
    if abs(total) <= big:
        assert acc.value().hex() == float(total).hex()
        cancel = [-float(total)]
    else:
        cancel = [math.copysign(big, -x)] * int(abs(total) // Fraction(big))
    acc.add(cancel)
    assert acc.value().hex() == float(total + sum(map(Fraction, cancel))).hex()


# ---------------------------------------------------------------------------
# the pair sum's blocks, band and buffers


def full_matrix_sum(P, T, W, E, J):
    """Sum over every ordered node pair, one math.fsum: no blocking, no
    triangle, no band."""
    d = [p[:, None] - p[None, :] for p in P.T]
    same = E[:, None] == E[None, :]
    r2 = np.where(same, 1.0, quadrature.metric_dot(J, d, d))
    K = np.where(same, 1.0, quadrature._kernel(
        d, [t[:, None] for t in T.T], [t[None, :] for t in T.T], J, r2))
    return math.fsum(((W[:, None] * W[None, :]) * K).ravel())


def metric_polygon(space, rng, n):
    """(geometry, vertices) of an n-gon in the space."""
    if space == "plane":
        return PLANE, spiky_star(rng, n)
    if space == "sphere":
        return SPHERE, geodesic_cap(rng.uniform(0.3, 2.5), n).vertices
    return HYPERBOLIC, hyperbolic_circle(rng.uniform(0.3, 2.0), n,
                                         rng.uniform(0, 1)).vertices


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from(sorted(METRICS)), seed=st.integers(0, 2**32 - 1),
       refinement=st.integers(1, 5),
       budget=st.sampled_from([8, 1 << 12, 1 << 17, 1 << 24]),
       shift=st.integers(1, 10**6))
def test_pair_sum_band_and_blocking_match_the_full_matrix(
        space, seed, refinement, budget, shift):
    # blocks of one row (8 B), of a few rows starting and ending mid-edge
    # (4 KiB), of many rows (128 KiB) and of the whole matrix (16 MiB)
    rng = np.random.default_rng(seed)
    geometry, v = metric_polygon(space, rng, int(rng.integers(5, 40)))
    J = METRICS[space]
    want = full_matrix_sum(*geometry.nodes(v, refinement)[:4], J).hex()
    for start in (0, shift % len(v)):
        P, T, W, E = geometry.nodes(np.roll(v, start, axis=0), refinement)[:4]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_BLOCK_BYTES", budget)
            assert quadrature.pair_sum(P, T, W, E, J).hex() == want


def reference_pair_sum(P, T, W, E, J) -> float:
    """The pair sum as it was before the same-edge band and the reused
    buffers: full-block masks and np.where, fresh arrays per block, and all
    terms into one math.fsum."""
    n = len(P)
    terms_all = [W * W]
    i0 = 0
    while i0 < n - 1:
        i1 = min(n, i0 + max(1, (1 << 17) // (8 * (n - i0))))
        rows, cols = slice(i0, i1), slice(i0 + 1, n)
        d = [p[rows, None] - p[None, cols] for p in P.T]
        same = E[rows, None] == E[None, cols]
        r2 = np.where(same, 1.0, quadrature.metric_dot(J, d, d))
        K = np.where(same, 1.0, quadrature._kernel(
            d, [t[rows, None] for t in T.T], [t[None, cols] for t in T.T],
            J, r2))
        terms = (2.0 * W[rows, None]) * W[None, cols]
        terms *= K
        corner = terms[:, :i1 - i0]
        corner[np.tri(*corner.shape, -1, dtype=bool)] = 0.0
        terms_all.append(terms.ravel())
        i0 = i1
    return math.fsum(np.concatenate(terms_all))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), refinement=st.integers(1, 4),
       budget=st.sampled_from([1 << 12, 1 << 17]))
def test_midpoint_double_integral_matches_the_reference_pair_sum(
        seed, refinement, budget):
    # spiky stars: many nearly coincident edges
    rng = np.random.default_rng(seed)
    c = ClosedCurve(spiky_star(rng, int(rng.integers(30, 150))))
    P, T, W, E, _, _ = boundary_node_arrays(c, refinement)
    want = reference_pair_sum(P, T, W, E, (1.0, 1.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_BLOCK_BYTES", budget)
        assert quadrature.midpoint_double_integral(c, refinement).hex() == \
            want.hex()


def test_pair_sum_requires_nondecreasing_edge_ids():
    P, T, W, E = metric_nodes("plane", np.random.default_rng(3))
    order = np.random.default_rng(4).permutation(len(P))
    with pytest.raises(ValueError, match="nondecreasing"):
        quadrature.pair_sum(P[order], T[order], W[order], E[order], (1.0, 1.0))
    E = E.copy()
    E[[5, -5]] = E[[-5, 5]]
    with pytest.raises(ValueError, match="nondecreasing"):
        quadrature.pair_sum(P, T, W, E, (1.0, 1.0))


@pytest.mark.parametrize("budget", [1 << 12, 1 << 17])
def test_pair_sum_memory_is_linear_in_budget_and_nodes(monkeypatch, budget):
    # a 2048-node star, k = 2 coordinates.  A block has at most
    # max(budget, 8 n) bytes of float64 entries: k + 4 buffers of that size
    # live for the call (coordinate differences, r2, the kernel's
    # workspace) and two more in the reduction; per node, copies of the
    # coordinate and tangent columns and the weights (2k + 4 floats); the
    # 4096-bin sums are fixed.  The full matrix is 32 MiB.
    c = ClosedCurve(spiky_star(np.random.default_rng(9), 512))
    P, T, W, E, _, _ = boundary_node_arrays(c, 4)
    n = len(P)
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        quadrature.pair_sum(P, T, W, E, (1.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * max(budget, 8 * n) + 8 * 8 * n + (1 << 17)


@pytest.mark.parametrize("terms", [
    [1.7e308, 1.7e308, -1.6e308, -1.7e308],
    [sys.float_info.max] * 3 + [-sys.float_info.max] * 2 + [-2.0**970],
    [2.0**1000] * 20 + [-2.0**1000] * 19 + [1e-300]])
def test_exact_sum_near_overflow_is_exact(terms):
    # a bin's float sum would overflow where the total does not (fsum,
    # summing in order, raises on some of these): the exact value
    want = float(sum(map(Fraction, terms)))
    for seed in range(3):
        shuffled = np.random.default_rng(seed).permutation(terms)
        assert exact_sum(shuffled).hex() == want.hex()


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


@pytest.mark.parametrize("n_phi", [0, -5, 2.5])
def test_curl_and_stokes_reject_a_sample_count_that_is_not_positive(n_phi):
    # 0 used to raise ZeroDivisionError, -5 a numpy error, 2.5 a TypeError
    y = np.array([0.5, 0.0])
    with pytest.raises(ValueError, match="n_phi must be an integer >= 1"):
        interior_curl_integral(SQUARE, y, (1.0, 0.0), n_phi=n_phi)
    with pytest.raises(ValueError, match="n_phi must be an integer >= 1"):
        stokes_check(SQUARE, y, n_phi=n_phi)


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
