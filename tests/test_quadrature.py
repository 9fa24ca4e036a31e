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
    # numbers; the 4096-bin sums are fixed.  The full complex matrix is
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


def metric_nodes(space, rng):
    if space == "plane":
        c = ClosedCurve(spiky_star(rng, 40))
        return boundary_node_arrays(c, 3)[:4]
    if space == "sphere":
        return sphere_boundary_nodes(geodesic_cap(rng.uniform(0.3, 2.5), 37), 3)
    return hyperbolic_boundary_nodes(
        hyperbolic_circle(rng.uniform(0.3, 2.0), 37, rng.uniform(0, 1)), 3)


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
    want = double_boundary_integral(c).hex()
    monkeypatch.setattr(quadrature, "_FLUSH_TERMS", 997)
    assert double_boundary_integral(c).hex() == want


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


def rounded(total):
    """The float a sum rounds to, or the error it raises."""
    try:
        return total().hex()
    except OverflowError:
        return "OverflowError"


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
    # coordinate and tangent columns and the weights (2k + 4 floats); the
    # 4096-bin sums are fixed.  The full matrix is 32 MiB.
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


def test_stokes_lhs_bounded_by_perimeter():
    c = regular_polygon(128)
    pts, _, _, _, _, _ = boundary_node_arrays(c, 1)
    for idx in (0, 17, 100):
        lhs, _ = stokes_check(c, pts[idx])
        assert lhs <= perimeter(c) + 1e-9


def test_stokes_requires_point_on_curve():
    with pytest.raises(CurveError):
        stokes_check(SQUARE, (0.5, 0.5))


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
