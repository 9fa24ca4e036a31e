"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Tolerances are pinned here and not loosened anywhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import star_polygon
from isocal import (
    OrientationError,
    SolutionFamily,
    checks,
    d1d2_fd,
    double_boundary_integral,
    geodesic_cap,
    get_problem,
    hyperbolic_area,
    hyperbolic_circle,
    hyperbolic_perimeter,
    lagrangian_submanifold_check,
    mixed_derivative_closed_form,
    regular_polygon,
    signed_area,
    sphere_area,
    sphere_double_integral,
    sphere_perimeter,
    verify_isoperimetric,
    winding_integral,
    winding_number,
)
from isocal.curves import ClosedCurve, distance_to_boundary


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] {label}: FAIL")
        raise
    print(f"[criterion {n}] {label}: PASS")


def test_criterion_1_planar_equality_case():
    with criterion(1, "planar equality case on the unit-circle 1024-gon"):
        t0 = time.perf_counter()
        rep = verify_isoperimetric(regular_polygon(1024))
        elapsed = time.perf_counter() - t0
        assert abs(rep.deficit) <= 1e-3
        target = 4.0 * math.pi ** 2
        assert abs(rep.double_integral - target) <= 1e-3 * target
        assert elapsed < 10.0


def test_criterion_2_shape_independent_identity():
    with criterion(2, "double integral = 4*pi*area for square and ellipse"):
        square = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        t0 = time.perf_counter()
        val = double_boundary_integral(square)
        t_square = time.perf_counter() - t0
        want = 4.0 * math.pi * signed_area(square)
        assert abs(val - want) <= 1e-3 * want
        assert t_square < 60.0

        th = 2.0 * np.pi * (np.arange(512) + 0.5) / 512
        ellipse = ClosedCurve(np.c_[2.0 * np.cos(th), np.sin(th)])
        t0 = time.perf_counter()
        val = double_boundary_integral(ellipse)
        t_ellipse = time.perf_counter() - t0
        want = 4.0 * math.pi * signed_area(ellipse)
        assert abs(val - want) <= 1e-3 * want
        assert t_ellipse < 60.0


def test_criterion_3_dirac_identity():
    with criterion(3, "winding integral equals 4*pi * winding number"):
        rng = np.random.default_rng(2024)
        done = 0
        worst = 0.0
        while done < 1000:
            poly = star_polygon(rng)
            p = rng.uniform(-2.2, 2.2, 2)
            if distance_to_boundary(poly, p) < 1e-3:
                continue
            w = winding_number(poly, p)
            val = winding_integral(poly, p)
            worst = max(worst, abs(val - 4.0 * math.pi * w))
            done += 1
        assert worst <= 1e-6, f"worst deviation {worst:.3e}"


def test_criterion_4_calibration_suite():
    with criterion(4, "norm-one field, orthogonal kernel, circle equality"):
        assert checks.mayer_vector_norm_residual(10_000, seed=41) <= 1e-12
        assert checks.orthogonality_residual(2, 10_000, seed=42) <= 1e-12
        assert checks.orthogonality_residual(3, 10_000, seed=43) <= 1e-12
        assert checks.circle_equality_residual(2, 100, seed=44) <= 1e-12
        assert checks.circle_equality_residual(3, 100, seed=45) <= 1e-12


def test_criterion_5_mixed_derivative_order():
    with criterion(5, "mixed derivative matches closed form at order h^2"):
        hs = (1e-2, 5e-3, 2.5e-3)
        rng = np.random.default_rng(55)
        # R^3: compare against the closed form on fixed pairs
        errs3 = []
        pairs = []
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            y = rng.normal(size=3)
            pairs.append((y + rng.uniform(1.5, 2.5) * u, y))
        for h in hs:
            worst = 0.0
            for x, y in pairs:
                got = d1d2_fd("r3", x, y, h)
                want = mixed_derivative_closed_form("r3", x, y)
                worst = max(worst, float(np.abs(got - want).max()))
            errs3.append(worst)
        assert 3.0 <= errs3[0] / errs3[1] <= 5.5
        assert 3.0 <= errs3[1] / errs3[2] <= 5.5
        c3 = errs3[0] / hs[0] ** 2
        for h, e in zip(hs, errs3):
            assert e <= 1.5 * c3 * h * h

        # R^2: the scalar vanishes off-diagonal at the same order
        pairs2 = []
        for _ in range(10):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            y = rng.normal(size=2)
            pairs2.append((y + rng.uniform(1.5, 2.5) * u, y))
        errs2 = []
        for h in hs:
            worst = max(abs(d1d2_fd("r2", x, y, h)) for x, y in pairs2)
            errs2.append(worst)
        assert 3.0 <= errs2[0] / errs2[1] <= 5.5
        assert 3.0 <= errs2[1] / errs2[2] <= 5.5
        c2 = errs2[0] / hs[0] ** 2
        for h, e in zip(hs, errs2):
            assert e <= 1.5 * c2 * h * h


def test_criterion_6_mayer_suite():
    with criterion(6, "null-Lagrangian suite on the oscillator"):
        prob = get_problem("oscillator")
        assert prob.lagrangian.domain == (0.5, 2.5)
        assert checks.dominance_minimum(prob, 10_000, seed=61) >= -1e-10
        assert checks.field_equality_residual(prob) <= 1e-8
        assert checks.path_independence_residual(prob, 20, seed=62) <= 1e-6
        assert checks.pullback_residual(prob, 100, seed=63) <= 1e-5
        assert checks.minimality_minimum(prob, 100, seed=64) >= -1e-8


def test_criterion_7_sphere_equality_cases():
    with criterion(7, "geodesic caps achieve the spherical bound"):
        for theta in (math.pi / 6, math.pi / 3, math.pi / 2):
            cap = geodesic_cap(theta, 512)
            L = sphere_perimeter(cap)
            A = sphere_area(cap)
            assert abs(L * L - (4.0 * math.pi - A) * A) <= 5e-3 * L * L
            val = sphere_double_integral(cap)
            want = 4.0 * math.pi * A - A * A
            assert abs(val - want) <= 1e-2 * want


def test_criterion_8_hyperbolic_equality_cases():
    with criterion(8, "hyperbolic circles achieve the hyperbolic bound"):
        for r in (0.1, 0.5, 1.0):
            c = hyperbolic_circle(r, 512)
            L = hyperbolic_perimeter(c)
            A = hyperbolic_area(c)
            assert abs(L * L - (4.0 * math.pi + A) * A) <= 5e-3 * L * L


def test_criterion_9_negative_controls():
    with criterion(9, "corrupted foliation and reversed orientation rejected"):
        prob = get_problem("oscillator")
        corrupted = SolutionFamily(
            u=lambda s, t: s * math.sin(t) + 0.1 * s * s * t,
            s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
            du_dt=lambda s, t: s * math.cos(t) + 0.1 * s * s,
        )
        bad = [abs(lagrangian_submanifold_check(prob.lagrangian, corrupted, s, t))
               for s in (0.7, 1.0, 1.4) for t in (0.9, 1.5, 2.1)]
        good = [abs(lagrangian_submanifold_check(prob.lagrangian, prob.family, s, t))
                for s in (0.7, 1.0, 1.4) for t in (0.9, 1.5, 2.1)]
        assert min(bad) > 1e-2, "corrupted foliation not detected"
        assert max(good) <= 1e-5

        square = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(OrientationError):
            verify_isoperimetric(square.reversed())
        assert signed_area(square.reversed()) == -signed_area(square)
