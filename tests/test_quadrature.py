import hashlib
import math
import sys
import tracemalloc
import warnings
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
    double_boundary_integral,
    perimeter,
    regular_polygon,
    signed_area,
    stokes_check,
    verify_isoperimetric,
    winding_integral,
    winding_number,
)
from isocal import curves, quadrature
from isocal.curves import PLANE, boundary_node_arrays, distance_to_boundary
from isocal.quadrature import auto_refinement, interior_curl_integral
from isocal.spaces import (
    HYPERBOLIC,
    SPHERE,
    HyperbolicCurve,
    geodesic_cap,
    hyperbolic_boundary_nodes,
    hyperbolic_circle,
    sphere_boundary_nodes,
)

SQUARE = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
EPS = sys.float_info.epsilon


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


def edge_winding_reference(a, b, x, tol: float) -> float:
    """One edge's integral of 2 det(y - x, dy)/|y - x|^2 by adaptive Simpson,
    depth-first: a witness of the subtended-angle terms that shares no
    formula with them."""
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


def edge_winding_quad(a, b, x) -> float:
    """The same edge integral by scipy.integrate.quad, with breakpoints at
    geometric distances from the foot of x on the edge's line, so that a
    peak as narrow as x's distance from the line is resolved."""
    integrate = pytest.importorskip("scipy.integrate")
    e = b - a
    c = (a[0] - x[0]) * e[1] - (a[1] - x[1]) * e[0]
    if c == 0.0:
        return 0.0
    foot = float((x - a) @ e / (e @ e))
    g = abs(c) / (e @ e) * np.geomspace(1.0, 1e9, 10)
    points = [s for s in np.r_[foot - g, foot, foot + g] if 0.0 < s < 1.0]
    val, *_ = integrate.quad(
        lambda s: 2.0 * c / ((a + s * e - x) @ (a + s * e - x)), 0.0, 1.0,
        points=points or None, epsabs=1e-14, epsrel=1e-14, limit=400,
        full_output=1)
    return val


def off_edge(curve, i, gap):
    """The point at `gap` edge lengths left of the midpoint of edge i."""
    v = curve.vertices
    a, b = v[i], v[(i + 1) % len(v)]
    return (a + b) / 2 + gap * np.array([-(b - a)[1], (b - a)[0]])


def test_winding_integral_terms_are_the_edge_integrals():
    # per edge, twice the subtended angle is the integral of the one-form,
    # within the Simpson rule's error at tol 1e-12 (1.3e-12 seen).  1e-8
    # edge lengths off an edge, the integrand itself is only good to about
    # eps / 1e-8 relative where it peaks, so either rule is too (the Simpson
    # rule came within 2.1e-9, quad within 1.8e-8 there)
    rng = np.random.default_rng(5)
    for _ in range(6):
        c = star_polygon(rng, 5, 9)
        v, n = c.vertices, c.n_vertices
        # the longest edge: 1e-8 of its length is over 1e-9 diameters
        i = int(np.argmax(np.hypot(*(np.roll(v, -1, axis=0) - v).T)))
        a, b = v[i], v[(i + 1) % n]
        points = [((0.0, 0.0), 1e-11), (rng.uniform(2.0, 3.0, 2), 1e-11),
                  (off_edge(c, i, 1e-8), 1e-7), (off_edge(c, i, -1e-8), 1e-7),
                  # on the edge's line, beyond either end
                  (a + 1.5 * (b - a), 1e-11), (a - 0.5 * (b - a), 1e-11)]
        for x, tol in points:
            x = np.asarray(x, float)
            terms = 2.0 * curves._subtended_angles(c, x)
            for j in range(n):
                p, q = v[j], v[(j + 1) % n]
                assert terms[j] == pytest.approx(
                    edge_winding_reference(p, q, x, 1e-12), abs=tol)
                assert terms[j] == pytest.approx(
                    edge_winding_quad(p, q, x), abs=tol)
            assert winding_integral(c, x) == math.fsum(terms)


# ---------------------------------------------------------------------------
# double boundary integral


def test_double_integral_circle():
    c = regular_polygon(1024)
    val = double_boundary_integral(c)
    assert val == pytest.approx(4 * math.pi ** 2, rel=1e-4)


def test_double_integral_square():
    val = double_boundary_integral(SQUARE)
    assert val == pytest.approx(4 * math.pi, rel=1e-3)


def test_double_integral_ellipse():
    th = 2 * np.pi * (np.arange(512) + 0.5) / 512
    ellipse = ClosedCurve(np.c_[2 * np.cos(th), np.sin(th)])
    val = double_boundary_integral(ellipse)
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
        val = double_boundary_integral(c)
        p2 = perimeter(c) ** 2
        lower = 4 * math.pi * signed_area(c)
        assert p2 >= val - 1e-8 * p2
        assert val >= lower - 1e-3 * lower


def test_double_integral_rejects_self_intersection():
    bowtie = ClosedCurve([[0, 0], [2, 2], [2, 0], [0, 2]])
    with pytest.raises(CurveError):
        double_boundary_integral(bowtie)


def test_double_integral_nonconvex_star():
    # deep concave star: near-touching boundary arcs across the core
    th = 2 * np.pi * np.arange(10) / 10
    r = np.where(np.arange(10) % 2 == 0, 1.0, 0.35)
    star = ClosedCurve(np.c_[r * np.cos(th), r * np.sin(th)])
    val = double_boundary_integral(star)
    assert val == pytest.approx(4 * math.pi * signed_area(star), rel=1e-3)


def test_double_integral_thin_triangle_near_pairs():
    # a short edge flanked by long ones: nearly coincident edges, where the
    # kernel's ridge is narrow
    tri = ClosedCurve([[0.0, 0.0], [2.0, 0.0], [2.0, 0.1]])
    val = double_boundary_integral(tri)
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


def corner_terms(v, t, rows=64):
    """Doubled terms Re((conj(t_i)^2 + conj(t_j)^2) S_ij) of the edge pairs
    i < j of the closed polygon v with unit edge tangents t, both complex,
    in blocks of `rows` edge rows: entry (r, k) is the pair (i0 + r, i0 + 1
    + k), 0 unless i < j.  S_ij = (G11 + G00) - (G10 + G01), G = z^2 (Log z
    - 1/2) at z_pq = v_p - v_q, p in {i, i+1}, q in {j, j+1}, Log
    continuous on the pair's parallelogram of z.  Log is taken of w = +-z,
    Re w > 0 or Re w = 0 < Im w; corners flipped alike shift Log by a
    constant, which changes no term; the other pairs get their branch back,
    Log w + i pi k.  double_boundary_integral keeps only these branch
    terms, as the rest cancels over all pairs; this is the all-pairs
    reference for it.
    """
    n = len(v)
    vz = np.append(v, v[0])  # vertex n is vertex 0
    c = 0.5 * np.conj(t) ** 2
    for i0 in range(0, n - 1, rows):
        # edge rows i0:i1 against edge columns i0+1:n, on vertex rows
        # i0..i1 against vertex columns i0+1..n
        i1 = min(n - 1, i0 + rows)
        z = vz[i0:i1 + 1, None] - vz[None, i0 + 1:]
        flip = (z.real < 0.0) | ((z.real == 0.0) & (z.imag <= 0.0))
        w = np.where(flip, -z, z)
        r2 = w.real * w.real + w.imag * w.imag
        # 2 G = w^2 (log|w|^2 - 1 + 2i arg w); at a zero corner, 0
        g = w * w * ((np.log(np.where(r2 == 0.0, 1.0, r2)) - 1.0)
                     + 2j * np.arctan2(w.imag, w.real))
        s = (g[1:, 1:] + g[:-1, :-1]) - (g[1:, :-1] + g[:-1, 1:])
        alike = ((flip[1:, 1:] == flip[:-1, :-1])
                 & (flip[1:, :-1] == flip[:-1, :-1])
                 & (flip[:-1, 1:] == flip[:-1, :-1]))
        rr, kk = np.nonzero(np.triu(~alike))
        # their corners 11, 00, 10 and 01; k is the flip, or its complement
        # where the args, zero corners left out, span more than pi
        corner = (rr + [[1], [0], [1], [0]], kk + [[1], [0], [0], [1]])
        fk, wk = flip[corner], w[corner]
        turn = np.where(wk == 0.0, np.nan, np.angle(wk) + np.pi * fk)
        k = fk != (np.fmax.reduce(turn) - np.fmin.reduce(turn) > np.pi)
        kw = np.where(k, wk * wk, 0.0)
        s[rr, kk] += 2j * np.pi * ((kw[0] + kw[1]) - (kw[2] + kw[3]))
        yield np.triu(((c[i0:i1, None] + c[None, i0 + 1:]) * s).real)


def corner_sum_reference(curve):
    """The double integral as the full corner sum over all edge pairs,
    Sum L_i^2 - 2 Sum L_i^2 log L_i + Sum_{i != j} Re(c_ij S_ij), in one
    exact sum."""
    v = curve.vertices[:, 0] + 1j * curve.vertices[:, 1]
    e = np.roll(v, -1) - v
    L = np.abs(e)
    acc = quadrature._ExactSum()
    acc.add(L * L)
    acc.add(-2.0 * (L * L) * np.log(L))
    for terms in corner_terms(v, e / L):
        acc.add(terms)
    return acc.value()


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
    block = next(corner_terms(z, e / L))
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


def histogram_polygon(rng):
    """Lattice polygon over 1 to 11 columns of widths 1 to 3 and heights 1
    to 5: vertical edges, exact x-ties between edges, straight runs."""
    w = rng.integers(1, 4, int(rng.integers(1, 12)))
    h = rng.integers(1, 6, len(w))
    x = np.r_[0, np.cumsum(w)]
    v = [(0, 0), (x[-1], 0)]
    for k in range(len(w) - 1, -1, -1):
        v += [(x[k + 1], h[k]), (x[k], h[k])]
    v = np.array(v, float)
    # equal heights side by side repeat a vertex
    return v[(v != np.roll(v, 1, axis=0)).any(axis=1)]


def agreement_polygon(kind, rng):
    if kind == "star":
        return star_polygon(rng, 3, 300).vertices
    if kind == "ellipse":
        n = int(rng.integers(3, 300))
        a, b = rng.uniform(0.2, 3.0, 2)
        th = rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
        return np.c_[a * np.cos(th), b * np.sin(th)]
    if kind == "rectangle":
        (x, y), (w, h) = rng.integers(-5, 6, 2), rng.integers(1, 6, 2)
        return np.array([[x, y], [x + w, y], [x + w, y + h], [x, y + h]],
                        float)
    return histogram_polygon(rng)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["star", "ellipse", "rectangle", "histogram"]),
       seed=st.integers(0, 2**32 - 1), turns=st.integers(0, 3))
def test_branch_terms_equal_the_all_pairs_corner_sum(kind, seed, turns):
    # quarter turns (x, y) -> (-y, x) are exact: the lattice shapes' x-ties
    # become y-ties and back
    v = agreement_polygon(kind, np.random.default_rng(seed))
    for _ in range(turns):
        v = np.c_[-v[:, 1], v[:, 0]]
    c = ClosedCurve(v)
    L = perimeter(c)
    got = double_boundary_integral(c)
    assert abs(got - corner_sum_reference(c)) <= 4 * len(v) * EPS * L * L


def test_branch_terms_on_a_2048_vertex_star():
    c = star_polygon(np.random.default_rng(16), 2048, 2048)
    n, L = len(c.vertices), perimeter(c)
    got = double_boundary_integral(c)
    assert abs(got - corner_sum_reference(c)) <= 4 * n * EPS * L * L
    assert abs(got - 4 * math.pi * signed_area(c)) <= 4 * n * EPS * L * L


def test_double_integral_takes_no_refinement():
    # the corner sum is exact: a refinement, which it would ignore, is an
    # error, by position or by name
    c = ClosedCurve(spiky_star(np.random.default_rng(5), 60))
    for args, kwargs in (((3,), {}), ((), {"refinement": 3})):
        with pytest.raises(TypeError):
            double_boundary_integral(c, *args, **kwargs)


@pytest.mark.parametrize("n, budget", [(512, 1 << 12), (2048, 1 << 17)])
def test_corner_sum_memory_is_linear_in_budget(monkeypatch, n, budget):
    # spiky stars.  The one budget sets both the sweep's pair chunks
    # and the branch terms' sub-chunks.  A chunk's index arrays and a
    # sub-chunk's complex corners each take at most max(budget, 16 n)
    # bytes, and some dozen live at once, the reduction's included; per vertex, a few complex
    # numbers.  The full complex matrix is
    # 4 MiB and 64 MiB.
    c = ClosedCurve(spiky_star(np.random.default_rng(9), n))
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    curves.ensure_simple(c)  # cached on c: the integral's own test is free
    tracemalloc.start()
    try:
        double_boundary_integral(c)
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


def turned_hyperbolic_circle(rng, n):
    """hyperbolic_circle of n vertices at a random radius, turned about the
    apex by a random angle in [0, 1)."""
    v = hyperbolic_circle(rng.uniform(0.3, 2.0), n).vertices
    a = rng.uniform(0, 1)
    c, s = math.cos(a), math.sin(a)
    return HyperbolicCurve(v @ np.array([[c, s, 0.0], [-s, c, 0.0],
                                         [0.0, 0.0, 1.0]]))


def metric_nodes(space, rng):
    if space == "plane":
        c = ClosedCurve(spiky_star(rng, 40))
        return boundary_node_arrays(c, 3)[:4]
    if space == "sphere":
        return sphere_boundary_nodes(geodesic_cap(rng.uniform(0.3, 2.5), 37), 3)
    return hyperbolic_boundary_nodes(turned_hyperbolic_circle(rng, 37), 3)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.integers(1, 10**6))
def test_double_integral_bitwise_independent_of_blocking_and_start(
        seed, shift):
    # 200 to 350 vertices: many row blocks at the two smaller budgets below
    rng = np.random.default_rng(seed)
    v = spiky_star(rng, int(rng.integers(200, 350)))
    want = double_boundary_integral(ClosedCurve(v)).hex()
    rolled = ClosedCurve(np.roll(v, shift % len(v), axis=0))
    assert double_boundary_integral(rolled).hex() == want
    for budget in (1 << 12, 1 << 15, 1 << 24):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves, "_BLOCK_BYTES", budget)
            got = double_boundary_integral(ClosedCurve(v))
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
# the exact reduction against math.fsum


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
    # every fraction bit set: the most residue bits at every level
    x = sign * math.ldexp(2**53 - 1, e)
    terms = [x] * count
    assert exact_sum(terms).hex() == math.fsum(terms).hex()


@settings(max_examples=50, deadline=None)
@given(terms=st.lists(anyfloat, max_size=60),
       cuts=st.lists(st.integers(0, 60), max_size=4),
       limit=st.integers(1, 7))
def test_exact_sum_across_chunks(terms, cuts, limit):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_CHUNK_TERMS", limit)
        got = exact_sum(*split(terms, cuts))
    assert got.hex() == math.fsum(terms).hex()


def test_exact_sum_chunks_hold_at_most_the_limit(monkeypatch):
    monkeypatch.setattr(quadrature, "_CHUNK_TERMS", 5)
    chunks = []
    extract = quadrature._ExactSum._extract
    monkeypatch.setattr(quadrature._ExactSum, "_extract",
                        lambda self, x: chunks.append(len(x)) or
                        extract(self, x))
    terms = np.random.default_rng(2).normal(size=23) * 1e10
    assert exact_sum(terms[:3], terms[3:17], terms[17:]).hex() == \
        math.fsum(terms).hex()
    assert sum(chunks) == 23 and len(chunks) >= 5
    assert all(1 <= k <= 5 for k in chunks)


def test_pair_sum_bitwise_independent_of_chunk_limit(monkeypatch):
    c = ClosedCurve(spiky_star(np.random.default_rng(4), 120))
    want = double_boundary_integral(c).hex()
    monkeypatch.setattr(quadrature, "_CHUNK_TERMS", 997)
    assert double_boundary_integral(c).hex() == want


def levels(monkeypatch):
    """The list that each chunk's extraction levels append to: every level,
    and every direct sum, adds its float through add_copies once."""
    calls = []
    add_copies = quadrature._ExactSum.add_copies
    monkeypatch.setattr(quadrature._ExactSum, "add_copies",
                        lambda self, x, count: calls.append(x) or
                        add_copies(self, x, count))
    return calls


def wide_block(seed, n, top, spread, signs=(-1.0, 1.0)):
    """n terms with random full significands and signs, their exponents
    uniform on [top - spread, top]."""
    rng = np.random.default_rng(seed)
    m = rng.integers(2**52, 2**53, n) * rng.choice(signs, n)
    return np.ldexp(m.astype(float), rng.integers(top - spread, top + 1, n)
                    - 52)


def cancelled(terms, seed):
    """terms with the negations of their larger half, shuffled: the
    smaller half decides the sum, low bits and all."""
    big = terms[np.abs(terms) >= np.median(np.abs(terms))]
    return np.random.default_rng(seed).permutation(np.r_[terms, -big])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1000, 6000),
       top=st.integers(-1074, 940), spread=st.integers(0, 2000),
       signs=st.sampled_from([(1.0,), (-1.0, 1.0)]))
def test_exact_sum_wide_blocks_of_thousands(seed, n, top, spread, signs):
    # beyond 52 - 2b binades below the largest term (26 to 32 here, b the
    # bit length of n), a term's low bits lie below the second level's
    # grid and start the extraction again
    terms = wide_block(seed, n, top, min(spread, top + 1074), signs)
    for t in (terms, cancelled(terms, seed)):
        assert exact_sum(t).hex() == math.fsum(t).hex()


@pytest.mark.parametrize("top", [-1060, -1030, -1022, -1010, -1000, -990])
@pytest.mark.parametrize("signs", [(1.0,), (-1.0, 1.0)])
def test_exact_sum_blocks_near_the_subnormals(top, signs):
    # 5000 terms: k = top + 1 + 13 lies on either side of -1021, where the
    # terms are first added directly
    terms = wide_block(-top, 5000, top, 30, signs)
    for t in (terms, cancelled(terms, 1)):
        assert exact_sum(t).hex() == math.fsum(t).hex()


def test_exact_sum_residues_start_again(monkeypatch):
    # 4096 terms of 2^-10 to 2^1 take two levels, on the grids 2^-39 and
    # 2^-78 (k = 1 + 13, then 14 - 52 + 13); a term just under 2^-299 with
    # every significand bit set leaves residues below 2^-78, which start
    # the extraction again
    calls = levels(monkeypatch)
    terms = wide_block(5, 4096, 0, 10)
    assert exact_sum(terms).hex() == math.fsum(terms).hex()
    assert len(calls) == 2
    calls.clear()
    terms[77] = math.ldexp(2**53 - 1, -352)
    assert exact_sum(terms).hex() == math.fsum(terms).hex()
    assert len(calls) > 2


@settings(max_examples=50, deadline=None)
@given(m=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=2000),
       extra=st.lists(st.integers(-(2**52) + 1, 2**52 - 1), max_size=50))
def test_exact_sum_subnormal_blocks(m, extra):
    # at most 2^-1034: n 2^e < 2^-1021 up to 2000 terms, summed directly;
    # with full subnormals mixed in, extracted on grids down to 2^-1074
    terms = [math.ldexp(k, -1074) for k in m]
    assert exact_sum(terms).hex() == math.fsum(terms).hex()
    terms += [math.ldexp(k, -1074) for k in extra]
    assert exact_sum(terms).hex() == math.fsum(terms).hex()


def test_exact_sum_subnormal_block_is_one_direct_sum(monkeypatch):
    calls = levels(monkeypatch)
    terms = [math.ldexp(k, -1074) for k in range(-1000, 1001, 3)]
    assert exact_sum(terms).hex() == math.fsum(terms).hex()
    assert len(calls) == 1


def test_exact_sum_full_chunk_just_under_its_range():
    # 2^24 terms, the largest just under 2^998: k = 998 + 25, so sigma =
    # 2^1023 and x + sigma, below 1.5 2^1023, stay finite.  The largest
    # float below 2^998 alternates with its negated lower neighbour, and
    # 4000 wide terms stand among them; 384 MiB with the two buffers
    n = quadrature._CHUNK_TERMS
    top = math.ldexp(2**53 - 1, 998 - 53)
    below = math.nextafter(top, 0.0)
    terms = np.full(n, top)
    terms[1::2] = -below
    where = np.random.default_rng(8).choice(n, 4000, replace=False)
    terms[where] = wide_block(8, 4000, 990, 60)
    even = int((where % 2 == 0).sum())
    total = ((n // 2 - even) * Fraction(top)
             - (n // 2 - 4000 + even) * Fraction(below)
             + sum(map(Fraction, terms[where].tolist())))
    assert exact_sum(terms).hex() == float(total).hex()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
       specials=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                         max_size=3),
       big=st.lists(st.floats(2.0**998, 2.0**1000), max_size=3))
def test_exact_sum_wide_subnormal_big_and_non_finite(seed, n, specials, big):
    # wide and subnormal terms with terms of 2^998 and above and inf and
    # nan among them, anywhere: the same value or error as fsum
    rng = np.random.default_rng(seed)
    terms = np.concatenate([wide_block(seed, n, 900, 1974), big, specials,
                            np.ldexp(rng.integers(-2**52, 2**52, 9), -1074)])
    terms = rng.permutation(terms)
    try:
        want = math.fsum(terms).hex()
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e)):
            exact_sum(terms)
    else:
        assert exact_sum(terms).hex() == want


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


def test_row_sums_past_an_intermediate_overflow_match_exact_sum():
    # fsum overflows on the partial sum 2^1024; both exact reductions take
    # such rows by one rule and return the float the exact sum rounds to
    x = [2.0**1023, 2.0**1023, -2.0**1023]
    with pytest.raises(OverflowError):
        math.fsum(x)
    assert exact_sum(x) == 2.0**1023
    got = quadrature._row_sums(np.array([x, [1.0, 2.0, 3.0]]))
    assert got.tolist() == [2.0**1023, 6.0]


@pytest.mark.parametrize("x", [math.ldexp(2**53 - 1, -600),
                               -math.ldexp(2**53 - 1, -1074),
                               math.ldexp(2**52 - 1, -1074),
                               math.ldexp(2**53 - 1, 997 - 52),
                               -math.ldexp(2**53 - 1, 998 - 52)],
                         ids=["normal", "lowest-binade", "subnormal",
                              "top-binned", "first-scaled"])
def test_exact_sum_at_its_flush_limit(x):
    # 2^26 + 3 terms of one binade, every fraction bit set, in 2^20-term
    # adds: the total reaches 2^26 times the term, beyond any one chunk's
    # grid, and from 2^998 on the terms are summed scaled by 2^-128.
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


def rounded(total):
    """The float a sum rounds to, or the error it raises."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as e:
        return type(e).__name__


# every exponent: subnormals, and terms of 2^998 and above (the _rare path)
everyexp = st.builds(lambda s, m, e: s * math.ldexp(m, e),
                     st.sampled_from([1.0, -1.0]), st.integers(0, 2**53 - 1),
                     st.integers(-1074, 971))


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(st.lists(everyexp, max_size=4), everyexp,
                              st.integers(0, 50) | st.integers(0, 2**40)),
                    max_size=6))
def test_exact_sum_add_copies_is_exact(ops):
    # ordinary adds interleaved with repeated ones, against the exact sum;
    # with at most 50 copies each, against fsum over the expanded list too
    acc, total, expanded = quadrature._ExactSum(), Fraction(0), []
    for terms, x, count in ops:
        acc.add(terms)
        acc.add_copies(x, count)
        total += sum(map(Fraction, terms)) + count * Fraction(x)
        expanded += terms + [x] * min(count, 51)  # read if count <= 50
    got = rounded(acc.value)
    assert got == rounded(lambda: float(total))
    if all(count <= 50 for _, _, count in ops) and \
            rounded(lambda: math.fsum(expanded)) != "OverflowError":
        assert got == math.fsum(expanded).hex()


@pytest.mark.parametrize("x, count, terms", [
    (math.inf, 3, [1.0]), (-math.inf, 1, [1e308, 2.0]),
    (math.nan, 2, [1.0]), (math.inf, 0, [1.0, -math.inf])])
def test_exact_sum_add_copies_non_finite_like_fsum(x, count, terms):
    acc = quadrature._ExactSum()
    acc.add(terms)
    acc.add_copies(x, count)
    assert acc.value().hex() == math.fsum(terms + [x] * count).hex()


# ---------------------------------------------------------------------------
# the row-wise exact sum

def fsum_rows(x):
    """math.fsum of each row, or (the first row's error type, None)."""
    out = []
    for row in np.asarray(x, dtype=float).tolist():
        try:
            out.append(math.fsum(row).hex())
        except (ValueError, OverflowError) as e:
            return type(e), None
    return out


def assert_row_sums_are_fsums(x):
    x = np.asarray(x, dtype=float)
    want = fsum_rows(x)
    if isinstance(want, tuple):
        with pytest.raises(want[0]):
            quadrature._row_sums(x.copy())
        return
    got = quadrature._row_sums(x.copy())  # which it may overwrite
    assert got.shape == (len(x),) and got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       n=st.integers(1, 2000), spread=st.integers(0, 2000))
def test_row_sums_on_rows_over_hundreds_of_binades(seed, m, n, spread):
    # each row its own top exponent, its terms up to 2000 binades deep,
    # every other row cancelled down to its smaller half
    rng = np.random.default_rng(seed)
    rows = []
    for i, top in enumerate(rng.integers(-1074, 940, m).tolist()):
        row = wide_block(seed + i, n, top, min(spread, top + 1074))
        rows.append(cancelled(row, seed + i)[:n] if i % 2 else row)
    x = np.zeros((m, n))
    for i, row in enumerate(rows):
        x[i, :len(row)] = row
    assert_row_sums_are_fsums(x)


rowterm = anyfloat | st.floats(2.0**998, 2.0**1000) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.ldexp(2**52 - 1, -1074), -2.0**998])


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(rowterm, min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), m=st.integers(0, 6),
       n=st.integers(0, 60), pairs=st.integers(0, 30))
def test_row_sums_on_zeros_subnormals_big_terms_and_cancelling_pairs(
        pool, seed, m, n, pairs):
    # values of 2^998 and above (fsum's rows, which may overflow as fsum
    # does), zeros of both signs and subnormals drawn into every
    # arrangement, the first terms of each row next to their negations
    x = np.random.default_rng(seed).choice(np.array(pool), (m, n))
    pairs = min(pairs, n // 2)
    x[:, 1:2 * pairs:2] = -x[:, 0:2 * pairs:2]
    assert_row_sums_are_fsums(x)


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(rowterm | st.sampled_from([math.inf, -math.inf,
                                                math.nan]),
                     min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200),
       pairs=st.integers(0, 100))
def test_one_row_has_the_bits_of_exact_sum_and_fsum(pool, seed, n, pairs):
    # both callers of the one level loop on the same terms: a (1, n) block
    # through _row_sums, the stream through _ExactSum, against fsum
    x = np.random.default_rng(seed).choice(np.array(pool), n)
    pairs = min(pairs, n // 2)
    x[1:2 * pairs:2] = -x[0:2 * pairs:2]
    want = rounded(lambda: math.fsum(x.tolist()))
    assert rounded(lambda: quadrature._row_sums(x[None].copy())[0]) == want
    assert rounded(lambda: exact_sum(x)) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 1500),
       spread=st.integers(0, 60), order=st.permutations(range(4)))
def test_row_sums_on_rows_600_binades_apart(seed, n, spread, order):
    # one sigma from the block's top: two levels leave the lower rows
    # untouched, and each is reached by a restart under the block's sigma
    tops = [940, 280, -380, -1000]
    x = np.array([wide_block(seed + i, n, tops[i], spread) for i in order])
    top = np.abs(x).max()
    levels = list(quadrature._levels(x.copy(), top, np.empty_like(x),
                                     x.copy()))
    assert len(levels) > 2
    assert_row_sums_are_fsums(x)


@pytest.mark.parametrize("shape", [(0, 0), (0, 7), (3, 0), (1, 0), (1, 1),
                                   (1, 999), (2, 1)])
def test_row_sums_on_empty_and_single_row_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 60, shape))
    assert_row_sums_are_fsums(x)
    assert_row_sums_are_fsums(-np.zeros(shape))


@pytest.mark.parametrize("special", [[math.nan], [math.inf], [-math.inf],
                                     [math.inf, math.inf, math.nan],
                                     [-math.inf, 2.0**1000]])
def test_row_sums_non_finite_row_is_its_fsum(special):
    x = wide_block(3, 3 * 50, 10, 40).reshape(3, 50)
    x[1, :len(special)] = special
    got = quadrature._row_sums(x.copy())
    assert [v.hex() for v in got.tolist()] == fsum_rows(x)
    assert not math.isfinite(got[1]) and np.all(np.isfinite(got[[0, 2]]))


def test_row_sums_inf_minus_inf_raises_like_fsum():
    x = np.ones((3, 5))
    x[2, 1], x[2, 3] = math.inf, -math.inf
    with pytest.raises(ValueError):
        math.fsum(x[2].tolist())
    with pytest.raises(ValueError):
        quadrature._row_sums(x)


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
    return HYPERBOLIC, turned_hyperbolic_circle(rng, n).vertices


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from(sorted(METRICS)), seed=st.integers(0, 2**32 - 1),
       refinement=st.integers(1, 5) | st.sampled_from([17, 64]),
       budget=st.sampled_from([8, 1 << 12, 1 << 17, 1 << 24]),
       shift=st.integers(1, 10**6))
def test_pair_sum_band_and_blocking_match_the_full_matrix(
        space, seed, refinement, budget, shift):
    # blocks of one row (8 B), of a few rows starting and ending mid-edge
    # (4 KiB), of many rows (128 KiB) and of the whole matrix (16 MiB); at
    # refinements 17 and 64 (5 to 9 vertices) most row blocks lie inside
    # one edge
    rng = np.random.default_rng(seed)
    geometry, v = metric_polygon(
        space, rng, int(rng.integers(5, 40 if refinement <= 5 else 10)))
    J = METRICS[space]
    want = full_matrix_sum(*geometry.nodes(v, refinement)[:4], J).hex()
    for start in (0, shift % len(v)):
        P, T, W, E = geometry.nodes(np.roll(v, start, axis=0), refinement)[:4]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves, "_BLOCK_BYTES", budget)
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
        mp.setattr(curves, "_BLOCK_BYTES", budget)
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


@pytest.mark.parametrize("space", sorted(METRICS))
def test_pair_sum_requires_one_weight_per_edge(space):
    # the same-edge pairs are summed as copies of one term per edge
    P, T, W, E = metric_nodes(space, np.random.default_rng(3))
    for node in (0, 7, len(W) - 1):  # first, inner and last run
        bent = W.copy()
        bent[node] = np.nextafter(bent[node], np.inf)
        with pytest.raises(ValueError, match="constant on each edge"):
            quadrature.pair_sum(P, T, bent, E, METRICS[space])


@pytest.mark.parametrize("vertices, refinement", [(SQUARE.vertices, 64),
                                                  (SQUARE.vertices[:3], 50)])
@pytest.mark.parametrize("budget", [1 << 12, 1 << 17])
def test_pair_sum_evaluates_only_cross_edge_pairs(monkeypatch, vertices,
                                                  refinement, budget):
    # the kernel sees each pair i < j of distinct edges once; beyond those,
    # only a block's rows past its first column c0 see the columns from c0
    # to the end of their own edge, which add zero.  At 4 KiB the row
    # blocks lie inside one edge, and nothing more is evaluated.
    P, T, W, E, _, _ = boundary_node_arrays(ClosedCurve(vertices), refinement)
    n, m = len(P), np.bincount(E)
    ends = np.repeat(np.cumsum(m), m)
    want = full_matrix_sum(P, T, W, E, (1.0, 1.0))
    kernel, shapes = quadrature._kernel, []
    monkeypatch.setattr(quadrature, "_kernel",
                        lambda *a: shapes.append(a[4].shape) or kernel(*a))
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    assert quadrature.pair_sum(P, T, W, E, (1.0, 1.0)).hex() == want.hex()
    cross = (n * n - (m * m).sum()) // 2
    evaluated, slack, i0 = 0, 0, 0
    for rows, cols in shapes:
        c0 = n - cols
        evaluated += rows * cols
        slack += (ends[c0:i0 + rows] - c0).sum()
        i0 += rows
    assert evaluated == cross + slack < n * (n - 1) // 2
    if budget == 1 << 12:
        assert slack == 0


@pytest.mark.parametrize("budget", [1 << 12, 1 << 17])
def test_pair_sum_memory_is_linear_in_budget_and_nodes(monkeypatch, budget):
    # a 2048-node star, k = 2 coordinates.  A block has at most
    # max(budget, 8 n) bytes of float64 entries: k + 4 buffers of that size
    # live for the call (coordinate differences, r2, the kernel's
    # workspace) and two more in the reduction; per node, copies of the
    # coordinate and tangent columns and the weights (2k + 4 floats).  The
    # full matrix is 32 MiB.
    c = ClosedCurve(spiky_star(np.random.default_rng(9), 512))
    P, T, W, E, _, _ = boundary_node_arrays(c, 4)
    n = len(P)
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        quadrature.pair_sum(P, T, W, E, (1.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * max(budget, 8 * n) + 8 * 8 * n + (1 << 17)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 2049])
def test_workspace_rows_start_on_cache_lines(size):
    for rows in (1, 2, 6):
        ws = curves._workspace(rows, size)
        assert ws.shape == (rows, size) and ws.dtype == np.float64
        assert all(row.ctypes.data % 64 == 0 for row in ws)
        ws[...] = np.arange(rows)[:, None]  # the rows do not overlap
        assert (ws == np.arange(rows)[:, None]).all()
    # the exact reduction's level buffer, made and grown there
    acc = quadrature._ExactSum(size)
    assert all(row.ctypes.data % 64 == 0 for row in acc._buf)
    acc.add(np.ones(2 * size + 3))
    assert acc._buf.shape[1] >= 2 * size + 3
    assert all(row.ctypes.data % 64 == 0 for row in acc._buf)


@pytest.mark.parametrize("space", sorted(METRICS))
@pytest.mark.parametrize("budget", [1 << 12, 1 << 17])
def test_pair_sum_bits_do_not_depend_on_workspace_alignment(monkeypatch,
                                                           space, budget):
    # the workspaces only place the blocks; their bits are the same on rows
    # 8, 16 or 32 bytes past a cache line
    P, T, W, E = metric_nodes(space, np.random.default_rng(5))
    J = METRICS[space]
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    kernel, aligned, blocks = quadrature._kernel, curves._workspace, []

    def checked_kernel(d, ti, tj, J, r2, out):
        blocks.append(all(a.ctypes.data % 64 == 0 for a in (*d, r2, *out)))
        return kernel(d, ti, tj, J, r2, out)

    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "_kernel", checked_kernel)
        want = quadrature.pair_sum(P, T, W, E, J).hex()
    assert blocks and all(blocks)
    for offset in (8, 16, 32):
        skip = offset // 8
        monkeypatch.setattr(curves, "_workspace", lambda rows, size:
                            aligned(rows, size + skip)[:, skip:])
        assert quadrature.pair_sum(P, T, W, E, J).hex() == want


@pytest.mark.parametrize("terms", [
    [1.7e308, 1.7e308, -1.6e308, -1.7e308],
    [sys.float_info.max] * 3 + [-sys.float_info.max] * 2 + [-2.0**970],
    [2.0**1000] * 20 + [-2.0**1000] * 19 + [1e-300]])
def test_exact_sum_near_overflow_is_exact(terms):
    # a float sum would overflow where the total does not (fsum,
    # summing in order, raises on some of these): the exact value
    want = float(sum(map(Fraction, terms)))
    for seed in range(3):
        shuffled = np.random.default_rng(seed).permutation(terms)
        assert exact_sum(shuffled).hex() == want.hex()


# ---------------------------------------------------------------------------
# Stokes check


def test_stokes_circle_node():
    c = regular_polygon(256)
    lhs, rhs = stokes_check(c, boundary_node_arrays(c, 1)[0][0])
    assert lhs == pytest.approx(2 * math.pi, abs=1e-3)
    assert rhs == pytest.approx(2 * math.pi, abs=1e-3)
    assert abs(lhs - rhs) <= 1e-3


def test_stokes_square_nodes():
    pts, _, _, _, _, _ = boundary_node_arrays(SQUARE, 64)
    for idx in (0, 31, 63):  # corner-adjacent and mid-edge
        lhs, rhs = stokes_check(SQUARE, pts[idx], refinement=64)
        assert abs(lhs - rhs) <= 1e-3 * perimeter(SQUARE)


def _gear(n=48):
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    rad = np.where(np.arange(n) % 2 == 0, 0.6, 1.4)
    return ClosedCurve(np.c_[rad * np.cos(th), rad * np.sin(th)])


# sha256 of the lhs and rhs hex values of stokes_check at vertex i and then
# at the midpoint of edge i, i = 0, 1, ...: pinned bits, which move with
# the rule that picks y's own edge at a vertex
STOKES_PINS = {
    "12-gon": "b0cb06b53bcb55ce7e0fd77e3913f2ef9a67e3696c3ab317970882d21d006618",
    "gear": "1157351f55178e1d38bef02dfb59c4e1bd899541f7ca85966310fefbdad4d33c",
}


@pytest.mark.parametrize("name", sorted(STOKES_PINS))
def test_stokes_own_edge_rule_keeps_its_bits(name):
    c = regular_polygon(12) if name == "12-gon" else _gear()
    v = c.vertices
    n = len(v)
    hexes = []
    for i in range(n):
        for y in (v[i], 0.5 * (v[i] + v[(i + 1) % n])):
            hexes += [s.hex() for s in stokes_check(c, y)]
    digest = hashlib.sha256(" ".join(hexes).encode()).hexdigest()
    assert digest == STOKES_PINS[name]
    # y's own edge at a vertex: the lower index of the two edges where the
    # previous edge's clamped projection, v_i-1 + (v_i - v_i-1), lands on
    # v_i exactly, edge i where it misses by a rounding
    ties = 0
    for i in range(n):
        tie = (v[i - 1] + (v[i] - v[i - 1]) == v[i]).all()
        ties += bool(tie)
        want = min(i, (i - 1) % n) if tie else i
        for y, edge in ((v[i], want), (0.5 * (v[i] + v[(i + 1) % n]), i)):
            d, _, _, e = curves._fan(c, y)
            assert curves._projection(c, y, d, e)[0] == edge
    assert ties == (11 if name == "12-gon" else 36)


def test_stokes_lhs_bounded_by_perimeter():
    c = regular_polygon(128)
    pts, _, _, _, _, _ = boundary_node_arrays(c, 1)
    for idx in (0, 17, 100):
        lhs, _ = stokes_check(c, pts[idx])
        assert lhs <= perimeter(c) + 1e-9


def test_stokes_requires_point_on_curve():
    with pytest.raises(CurveError):
        stokes_check(SQUARE, (0.5, 0.5))


def test_pointwise_queries_project_only_where_they_need_to(monkeypatch):
    # points like the benchmark's field_checks ones, on stars of 24 to 48
    # vertices at radii 0.7 to 1.3 and on a 48-vertex gear: inside at 0.1
    # to 0.5 of the inradius bound r_min cos(pi / n) from the centre,
    # outside beyond 1.3 times the largest radius, and on the curve.  The
    # fan's determinants certify the points off the boundary, so
    # winding_integral projects nothing; interior_curl_integral never
    # projects; and stokes_check projects once, for y's own edge
    calls = []
    projection = curves._projection
    monkeypatch.setattr(curves, "_projection",
                        lambda *args: calls.append(1) or projection(*args))

    def projections(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    rng = np.random.default_rng(7)
    radii = [rng.uniform(0.7, 1.3, n) for n in (24, 32, 48)]
    radii.append(np.where(np.arange(48) % 2 == 0, 0.6, 1.4))
    for r in radii:
        n = len(r)
        th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        center = rng.uniform(-1.0, 1.0, 2)
        c = ClosedCurve(center + np.c_[r * np.cos(th), r * np.sin(th)])
        inradius = r.min() * math.cos(math.pi / n)
        for f in (0.1, 0.2, 0.35, 0.5):
            for rad in (f * inradius, (1.3 + 1.4 * f) * r.max()):
                a = rng.uniform(0.0, 2.0 * math.pi)
                x = center + rad * np.array([math.cos(a), math.sin(a)])
                assert projections(winding_integral, c, x) == 0
                assert projections(interior_curl_integral, c, x,
                                   (1.0, 0.0)) == 0
        v = c.vertices
        i = int(rng.integers(n))
        y = v[i] + rng.uniform(0.2, 0.8) * (v[(i + 1) % n] - v[i])
        assert projections(interior_curl_integral, c, y, (1.0, 0.0)) == 0
        assert projections(stokes_check, c, y, None, 4) == 1


@pytest.mark.parametrize("k", [520, -540])
def test_pointwise_checks_are_scale_free(k):
    # at scales where |x - y|^2 and |e|^2 leave the float range, the Stokes
    # check and the distance to the boundary are their unit-scale values
    # times 2^k, bit for bit, and an edge's midpoint is still on the curve
    c = regular_polygon(12)
    v = c.vertices
    scaled = ClosedCurve(np.ldexp(v, k))
    for y, t in [(0.5 * (v[0] + v[1]), None),
                 (0.3 * v[4] + 0.7 * v[5], (0.6, 0.8))]:
        want = [math.ldexp(s, k).hex() for s in stokes_check(c, y, t, 3)]
        got = stokes_check(scaled, np.ldexp(y, k), t, 3)
        assert [s.hex() for s in got] == want
    for x in [(0.1, 0.2), (0.9, -0.4), (3.0, 1.0)]:
        want = math.ldexp(distance_to_boundary(c, x), k)
        assert distance_to_boundary(scaled, np.ldexp(x, k)).hex() == want.hex()
    with pytest.raises(PointOnBoundaryError):
        winding_number(scaled, np.ldexp(0.5 * (v[0] + v[1]), k))


def test_interior_curl_integral_sign():
    # positively oriented circle: positive density at interior points seen
    # from any boundary source
    c = regular_polygon(64)
    pts, tan = boundary_node_arrays(c, 1)[:2]
    val = interior_curl_integral(c, pts[0], tan[0])
    assert val > 0


def test_interior_curl_integral_reads_t_y_as_a_2_vector():
    # as stokes_check does: a 2-sequence is accepted, a 3-vector rejected
    c = regular_polygon(64)
    pts, tan = boundary_node_arrays(c, 1)[:2]
    want = interior_curl_integral(c, pts[0], tan[0])
    assert interior_curl_integral(c, pts[0], tuple(tan[0].tolist())) == want
    with pytest.raises(ValueError, match="expected a 2-vector"):
        interior_curl_integral(c, pts[0], (1.0, 0.0, 5.0))


def fan_triangle_dblquad(y, a, b, t) -> float:
    """The integral of 2 det(y - x, t)/|x - y|^2 over the triangle (y, a, b),
    negated if it is negatively oriented, by scipy's dblquad in polar
    coordinates about y: the integrand times dA is -2 det(w, t) dr dphi,
    for r up to the edge ab."""
    integrate = pytest.importorskip("scipy.integrate")
    da, db, e = a - y, b - y, b - a
    D = da[0] * db[1] - da[1] * db[0]
    if D == 0.0:
        return 0.0
    phi0 = math.atan2(da[1], da[0])
    lo, hi = sorted((phi0, phi0 + math.atan2(D, da @ db)))
    with warnings.catch_warnings():
        # at epsrel 1e-13 quadpack may say that rounding limits its own
        # error estimate; the agreement is what the caller asserts
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val = integrate.dblquad(
            lambda r, p: -2.0 * (math.cos(p) * t[1] - math.sin(p) * t[0]),
            lo, hi, 0.0,
            lambda p: D / (math.cos(p) * e[1] - math.sin(p) * e[0]),
            epsabs=0.0, epsrel=1e-13)[0]
    return val if D > 0.0 else -val


# |closed form - dblquad| / diameter: the largest seen over the cases below
# is 6.4e-16.
CURL_DBLQUAD_ERROR = 2e-15


@pytest.mark.parametrize("curve", [
    regular_polygon(9), star_polygon(np.random.default_rng(5), 12, 12)],
    ids=["9-gon", "star"])
@pytest.mark.parametrize("where", ["mid-edge", "near-vertex", "vertex",
                                   "inside", "outside"])
@pytest.mark.parametrize("tangent", [True, False], ids=["tangent", "oblique"])
def test_interior_curl_integral_matches_dblquad(curve, where, tangent):
    # per fan triangle, as a curve of its own whose two edges at y add 0,
    # and in total
    v, n = curve.vertices, curve.n_vertices
    e = v[1] - v[0]
    y = {"mid-edge": 0.5 * (v[0] + v[1]), "near-vertex": v[0] + 1e-8 * e,
         "vertex": v[0], "inside": 0.25 * (v[0] + v[3]),
         "outside": 2.0 * v[2]}[where]
    t = e / math.hypot(*e) if tangent else np.array([0.6, 0.8])
    tol = CURL_DBLQUAD_ERROR * curve.diameter
    want = []
    for k in range(n):
        a, b = v[k], v[(k + 1) % n]
        want.append(fan_triangle_dblquad(y, a, b, t))
        if not (np.array_equal(y, a) or np.array_equal(y, b)):
            fan = ClosedCurve([y, a, b])
            assert abs(interior_curl_integral(fan, y, t) - want[-1]) <= tol
    assert abs(interior_curl_integral(curve, y, t) - math.fsum(want)) <= tol


# a hexagon with a reflex vertex and dyadic rational vertices, each a float
# exactly, and dyadic points: inside, outside, on edge 2 and at vertex 4
CURL_CERTIFICATE_HEXAGON = ((0, 0), (3, -1 / 2), (19 / 4, 5 / 4), (2, 1),
                            (7 / 8, 23 / 8), (-5 / 4, 3 / 2))
CURL_CERTIFICATE_POINTS = ((3 / 4, 1 / 2), (-3 / 2, -7 / 4),
                           (27 / 8, 9 / 8), (7 / 8, 23 / 8))


def test_fan_term_is_the_triangle_curl_integral():
    # Certificate, by evaluation in 50-digit arithmetic at rational points,
    # of the fan term of quadrature.interior_curl_integral, J_k = -2 (D_k /
    # |e_k|) (<t, u_k> theta_k + det(u_k, t) log(|d_k+1| / |d_k|)).  The
    # triangle's curl integral, the integral of 2 det(y - x, t) / |x - y|^2
    # over (y, v_k, v_k+1) negated if it is negatively oriented, maps by x
    # = y + s (d_k + r e_k), of Jacobian s D_k, to the integral over r in
    # [0, 1] of -2 D_k det(q, t) / |q|^2, q = d_k + r e_k, a rational
    # function, which mpmath.quad evaluates; J_k must match it to 40
    # digits, and the float function the sums of the triangles
    mpmath = pytest.importorskip("mpmath")
    v = [tuple(map(Fraction, p)) for p in CURL_CERTIFICATE_HEXAGON]
    curve = ClosedCurve(np.array(CURL_CERTIFICATE_HEXAGON))
    n = len(v)
    with mpmath.workdps(50):
        for y in CURL_CERTIFICATE_POINTS:
            for t in ((1, 0), (Fraction(3, 5), Fraction(-4, 5))):
                total = []
                for k in range(n):
                    (ax, ay), (bx, by) = v[k], v[(k + 1) % n]
                    if (ax - y[0]) * (by - y[1]) == (ay - y[1]) * (bx - y[0]):
                        # D_k = 0: y on the edge's line, or at its ends
                        total.append(mpmath.mpf(0))
                        continue
                    dax, day, dbx, dby, tx, ty = (
                        mpmath.mpf(q.numerator) / q.denominator
                        for q in map(Fraction, (ax - y[0], ay - y[1],
                                                bx - y[0], by - y[1], *t)))
                    ex, ey = dbx - dax, dby - day
                    D = dax * dby - day * dbx
                    want = mpmath.quad(
                        lambda r: -2 * D * ((dax + r * ex) * ty
                                            - (day + r * ey) * tx)
                        / ((dax + r * ex) ** 2 + (day + r * ey) ** 2),
                        [0, 1])
                    L = mpmath.sqrt(ex * ex + ey * ey)
                    ux, uy = ex / L, ey / L
                    theta = mpmath.atan2(D, dax * dbx + day * dby)
                    log_ratio = mpmath.log(mpmath.sqrt(
                        (dbx * dbx + dby * dby) / (dax * dax + day * day)))
                    J = -2 * (D / L) * ((ux * tx + uy * ty) * theta
                                        + (ux * ty - uy * tx) * log_ratio)
                    assert abs(J - want) <= mpmath.mpf(10) ** -40
                    total.append(want)
                    # the float function on the triangle alone, whose two
                    # edges at y add 0
                    tri = ClosedCurve(np.array([y, v[k], v[(k + 1) % n]],
                                               dtype=float))
                    got = interior_curl_integral(tri, y, np.array(t, float))
                    assert abs(got - want) <= 32 * EPS * max(1, abs(want))
                got = interior_curl_integral(curve, y, np.array(t, float))
                assert abs(got - mpmath.fsum(total)) <= 64 * EPS * n


def test_curl_integrals_over_boundary_nodes_converge_to_double_integral():
    # Stokes, then Fubini: Sum_y w_y interior_curl_integral(c, y, t_y) over
    # the midpoint nodes is a quadrature of the double boundary integral,
    # of observed order about 1.9
    for c in (SQUARE, star_polygon(np.random.default_rng(3))):
        want = double_boundary_integral(c)
        errs = []
        for refinement in (4, 16, 64):
            P, T, W, _, _, _ = boundary_node_arrays(c, refinement)
            got = math.fsum(w * interior_curl_integral(c, p, t)
                            for p, t, w in zip(P, T, W))
            errs.append(abs(got - want) / want)
        assert errs[-1] <= 1e-4
        assert all(coarse / fine > 8.0 for coarse, fine in zip(errs, errs[1:]))


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
        verify_isoperimetric(SQUARE.reversed())
    # and the signed area itself reports the flipped sign rather than hiding it
    assert signed_area(SQUARE.reversed()) == -1.0


def test_auto_refinement_targets_node_count():
    assert auto_refinement(SQUARE) * 4 >= 512
    assert auto_refinement(regular_polygon(1024)) == 2
