import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isocal import (
    CallablePath,
    EndpointError,
    Extremal,
    FoliationError,
    Lagrangian1D,
    LegendreError,
    PhaseLift,
    SolutionFamily,
    action,
    el_residual,
    energy,
    family_from_shooting,
    get_problem,
    hamiltonian,
    lagrangian_submanifold_check,
    legendre_inverse,
    mayer_slope,
    minimality_gap,
    null_lagrangian,
    path_independence_check,
    solve_el,
    weierstrass_gap,
)
from isocal import checks, curves, mayer

FREE = get_problem("free")
OSC = get_problem("oscillator")
COSH = get_problem("cosh")

QUARTIC = Lagrangian1D(
    l=lambda t, q, qd: qd ** 4,
    dL_dq=lambda t, q, qd: 0.0,
    dL_dqdot=lambda t, q, qd: 4.0 * qd ** 3,
    d2L_dqdot2=lambda t, q, qd: 12.0 * qd ** 2,
    domain=(0.0, 1.0),
)


def corrupted_family() -> SolutionFamily:
    """Leaves that are not extremals of the oscillator Lagrangian."""
    return SolutionFamily(
        u=lambda s, t: s * math.sin(t) + 0.1 * s * s * t,
        s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
        du_dt=lambda s, t: s * math.cos(t) + 0.1 * s * s,
    )


# ---------------------------------------------------------------------------
# Lagrangians and partials


def test_registry_partials_match_differences():
    for prob in (FREE, OSC, COSH):
        assert prob.lagrangian.partials_residual(200, seed=1) <= 1e-6


def test_registry_legendre_condition():
    rng = np.random.default_rng(2)
    for prob in (FREE, OSC, COSH):
        a, b = prob.lagrangian.domain
        vals = [prob.lagrangian.d2L_dqdot2(t, q, qd)
                for t, q, qd in zip(rng.uniform(a, b, 100),
                                    rng.uniform(-2, 2, 100),
                                    rng.uniform(-2, 2, 100))]
        assert min(vals) >= 0.0


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals and solving


def test_el_residual_free_line():
    path = CallablePath(f=lambda t: 1.0 + 2.0 * t, fdot=lambda t: 2.0)
    assert abs(el_residual(FREE.lagrangian, path, 0.5)) <= 1e-8


def test_el_residual_oscillator_sine():
    path = CallablePath(f=math.sin, fdot=math.cos)
    assert abs(el_residual(OSC.lagrangian, path, 1.3)) <= 1e-6


def test_el_residual_nonextremal():
    path = CallablePath(f=lambda t: t * t, fdot=lambda t: 2.0 * t)
    assert el_residual(FREE.lagrangian, path, 0.5) == pytest.approx(2.0, abs=1e-6)


def test_el_residual_outside_domain():
    path = CallablePath(f=math.sin, fdot=math.cos)
    with pytest.raises(ValueError):
        el_residual(OSC.lagrangian, path, 3.0)


def test_solve_el_free_particle():
    grid = np.linspace(0.0, 1.0, 101)
    f = solve_el(FREE.lagrangian, 0.0, 0.0, 1.0, grid)
    assert np.abs(f.values - grid).max() <= 1e-10
    assert np.abs(f.derivatives - 1.0).max() <= 1e-10


def test_solve_el_oscillator_sine():
    grid = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    f = solve_el(OSC.lagrangian, 0.0, 0.0, 1.0, grid)
    assert np.abs(f.values - np.sin(grid)).max() <= 1e-8
    assert np.abs(f.derivatives - np.cos(grid)).max() <= 1e-8


def test_solve_el_residual_at_grid_points():
    # the measured residual is floored by the interpolant's O(grid^2)
    # second-derivative accuracy, not by the solver
    grid = np.arange(0.5, 2.5 + 1e-12, 1e-3)
    f = solve_el(OSC.lagrangian, 0.5, 0.3, 0.1, grid)
    for k in (300, 1000, 1700):
        assert abs(el_residual(OSC.lagrangian, f, float(f.grid[k]))) <= 1e-7


def test_solve_el_degenerate_legendre():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(LegendreError):
        solve_el(QUARTIC, 0.0, 0.0, 0.0, grid)


def test_solve_el_blowup_guard():
    L = Lagrangian1D(
        l=lambda t, q, qd: 0.5 * qd * qd + 0.25 * q ** 4,
        dL_dq=lambda t, q, qd: q ** 3,
        dL_dqdot=lambda t, q, qd: qd,
        d2L_dqdot2=lambda t, q, qd: 1.0,
        domain=(0.0, 10.0),
    )
    with pytest.raises(OverflowError):
        solve_el(L, 0.0, 3.0, 3.0, np.linspace(0.0, 10.0, 2001))


def test_hamilton_equations_along_solution():
    L = OSC.lagrangian
    grid = np.arange(0.5, 2.5 + 1e-12, 1e-3)
    f = solve_el(L, 0.5, 0.4, 0.2, grid)
    h = 1e-5
    for t in (0.9, 1.6, 2.3):
        q, qd = f.value(t), f.derivative(t)
        g = L.dL_dqdot(t, q, qd)
        dfdt = (f.value(t + h) - f.value(t - h)) / (2 * h)
        dgdt = (L.dL_dqdot(t + h, f.value(t + h), f.derivative(t + h))
                - L.dL_dqdot(t - h, f.value(t - h), f.derivative(t - h))) / (2 * h)
        dH_dp = (hamiltonian(L, t, q, g + h) - hamiltonian(L, t, q, g - h)) / (2 * h)
        dH_dq = (hamiltonian(L, t, q + h, g) - hamiltonian(L, t, q - h, g)) / (2 * h)
        assert dfdt == pytest.approx(dH_dp, abs=1e-5)
        assert dgdt == pytest.approx(-dH_dq, abs=1e-5)


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_inverse_quadratic():
    assert legendre_inverse(FREE.lagrangian, 0.3, 1.0, 0.7) == pytest.approx(
        0.7, abs=1e-12)


def test_legendre_inverse_cosh():
    for p in (-2.0, -0.3, 0.0, 1.1, 5.0):
        got = legendre_inverse(COSH.lagrangian, 0.5, 0.0, p)
        assert got == pytest.approx(math.asinh(p), abs=1e-10)
    # sinh overflows at the bracket's ends, whose +-inf still compare right
    got = legendre_inverse(COSH.lagrangian, 0.5, 0.0, 1e3)
    assert abs(got - math.asinh(1e3)) <= math.ulp(math.asinh(1e3))


def test_legendre_inverse_quartic_regular_point():
    # away from the flat point the quartic is invertible: 4 x^3 = 4 at x = 1
    assert legendre_inverse(QUARTIC, 0.0, 0.0, 4.0) == pytest.approx(1.0, abs=1e-9)


def test_legendre_inverse_degenerate():
    with pytest.raises(LegendreError):
        legendre_inverse(QUARTIC, 0.0, 0.0, 0.0)


SQRT = Lagrangian1D(
    l=lambda t, q, qd: np.sqrt(1.0 + qd * qd),
    dL_dq=lambda t, q, qd: 0.0,
    dL_dqdot=lambda t, q, qd: qd / np.sqrt(1.0 + qd * qd),
    d2L_dqdot2=lambda t, q, qd: (1.0 + qd * qd) ** -1.5,
    domain=(0.0, 1.0),
)


def test_legendre_inverse_errors_name_the_first_bad_point_of_a_batch():
    # the momentum of sqrt(1 + qdot^2) stays inside (-1, 1): no bracket
    with pytest.raises(LegendreError,
                       match=r"no bracket within 1e8 for p=2\.0 at t=0\.2"):
        legendre_inverse(SQRT, [0.1, 0.2, 0.3], 0.0, [0.5, 2.0, -3.0])
    # 4 qdot^3 = 0 has its root where the coefficient 12 qdot^2 vanishes
    with pytest.raises(LegendreError, match=r"degenerate .* p=0\.0\)"):
        legendre_inverse(QUARTIC, 0.0, [0.1, 0.2], [4.0, 0.0])


@pytest.mark.parametrize("L", [FREE.lagrangian, OSC.lagrangian,
                               COSH.lagrangian, QUARTIC, SQRT],
                         ids=["free", "oscillator", "cosh", "quartic", "sqrt"])
def test_legendre_inverse_and_hamiltonian_batch_equal_scalar_calls(L):
    # a fixed count of halvings: a point gets the same bits alone or in a
    # batch, whatever bracket its neighbours need
    rng = np.random.default_rng(22)
    t = rng.uniform(*L.domain, 40)
    q = rng.uniform(-2.0, 2.0, 40)
    p = rng.uniform(-0.9, 0.9, 40) if L is SQRT else rng.uniform(-30, 30, 40)
    for fn in (legendre_inverse, hamiltonian):
        batch = fn(L, t, q, p)
        single = np.array([fn(L, *x) for x in zip(t, q, p)])
        assert batch.tobytes() == single.tobytes()
        assert isinstance(fn(L, t[0], q[0], p[0]), float)
        assert fn(L, t[::-1], q[::-1], p[::-1]).tobytes() == batch[::-1].tobytes()
    # and the root's residual is at the rounding level of the momentum
    qhat = legendre_inverse(L, t, q, p)
    assert np.abs(L.dL_dqdot(t, q, qhat) - p).max() <= 1e-12 * np.abs(p).max()


def test_legendre_duality_roundtrip():
    rng = np.random.default_rng(3)
    for L in (OSC.lagrangian, COSH.lagrangian):
        for _ in range(50):
            t = rng.uniform(*L.domain)
            q = rng.uniform(-2, 2)
            qd = rng.uniform(-3, 3)
            p = L.dL_dqdot(t, q, qd)
            assert legendre_inverse(L, t, q, p) == pytest.approx(qd, abs=1e-9)


def test_hamiltonian_free():
    assert hamiltonian(FREE.lagrangian, 0.1, 2.0, 0.8) == pytest.approx(
        0.32, abs=1e-12)


def test_hamiltonian_oscillator():
    for q, p in ((0.3, 0.7), (-1.2, 0.4), (0.0, 2.0)):
        assert hamiltonian(OSC.lagrangian, 1.0, q, p) == pytest.approx(
            0.5 * (p * p + q * q), abs=1e-10)


def test_hamiltonian_partial_identities():
    # dH/dp = qhat and dH/dq = -dL/dq at qhat
    rng = np.random.default_rng(4)
    h = 1e-5
    for L in (OSC.lagrangian, COSH.lagrangian):
        for _ in range(100):
            t = rng.uniform(*L.domain)
            q = rng.uniform(-1.5, 1.5)
            p = rng.uniform(-2, 2)
            qhat = legendre_inverse(L, t, q, p)
            dH_dp = (hamiltonian(L, t, q, p + h) - hamiltonian(L, t, q, p - h)) / (2 * h)
            dH_dq = (hamiltonian(L, t, q + h, p) - hamiltonian(L, t, q - h, p)) / (2 * h)
            assert dH_dp == pytest.approx(qhat, abs=1e-6)
            assert dH_dq == pytest.approx(-L.dL_dq(t, q, qhat), abs=1e-6)


# ---------------------------------------------------------------------------
# slope fields


def test_mayer_slope_free_family():
    for t, q in ((0.2, 0.5), (0.9, -2.0), (0.5, 3.0)):
        assert mayer_slope(FREE.family, t, q) == pytest.approx(1.0, abs=1e-12)


def test_mayer_slope_oscillator():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0.6, 2.4)
        q = rng.uniform(0.05, 2.0) * math.sin(t)
        assert mayer_slope(OSC.family, t, q) == pytest.approx(
            q / math.tan(t), abs=1e-8)


def test_mayer_slope_outside_region():
    with pytest.raises(FoliationError):
        mayer_slope(OSC.family, 1.0, 100.0)


def test_family_monotonicity_enforced():
    with pytest.raises(FoliationError):
        SolutionFamily(u=lambda s, t: s * s * math.sin(t),
                       s_interval=(-1.0, 1.0), t_domain=(0.5, 2.5), s0=0.0)


def test_family_direction_flip_detected():
    with pytest.raises(FoliationError):
        SolutionFamily(u=lambda s, t: s * math.cos(t),
                       s_interval=(0.1, 2.0), t_domain=(1.0, 2.2), s0=1.0)


def test_family_s0_inside_interval():
    with pytest.raises(FoliationError):
        SolutionFamily(u=lambda s, t: s + t, s_interval=(0.0, 1.0),
                       t_domain=(0.0, 1.0), s0=2.0)


# ---------------------------------------------------------------------------
# the null Lagrangian


def test_null_lagrangian_free_closed_form():
    nl = null_lagrangian(FREE.lagrangian, FREE.family)
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = rng.uniform(0.05, 0.95)
        q = rng.uniform(-3, 3)
        qd = rng.uniform(-3, 3)
        assert nl.lam(t, q, qd) == pytest.approx(qd - 0.5, abs=1e-10)


def test_null_lagrangian_oscillator_closed_form():
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    rng = np.random.default_rng(7)
    for _ in range(30):
        t = rng.uniform(0.6, 2.4)
        q = rng.uniform(0.1, 2.0) * math.sin(t)
        qd = rng.uniform(-2, 2)
        want = q * qd / math.tan(t) - q * q / (2 * math.sin(t) ** 2)
        assert nl.lam(t, q, qd) == pytest.approx(want, abs=1e-8)


def test_null_lagrangian_is_total_derivative_of_potential():
    # along any in-region path, lam(t, f, f') equals d/dt of S(t, f(t)) with
    # S(t, q) = q^2 cot(t) / 2
    nl = null_lagrangian(OSC.lagrangian, OSC.family)

    def S(t, q):
        return 0.5 * q * q / math.tan(t)

    f = CallablePath(f=lambda t: 0.4 * math.sin(t) + 0.1 * math.sin(2 * t - 1.0),
                     fdot=lambda t: 0.4 * math.cos(t) + 0.2 * math.cos(2 * t - 1.0))
    h = 1e-6
    for t in np.linspace(0.7, 2.3, 9):
        t = float(t)
        dS = (S(t + h, f.value(t + h)) - S(t - h, f.value(t - h))) / (2 * h)
        assert nl.lam(t, f.value(t), f.derivative(t)) == pytest.approx(dS, abs=1e-6)


def test_equality_along_central_leaf():
    assert checks.field_equality_residual(OSC) <= 1e-8


def test_corrupted_family_rejected_by_validation():
    with pytest.raises(FoliationError):
        null_lagrangian(OSC.lagrangian, corrupted_family())


def test_weierstrass_gap_zero_on_field():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = rng.uniform(0.6, 2.4)
        s = rng.uniform(0.1, 2.5)
        q = OSC.family.u(s, t)
        psi = mayer_slope(OSC.family, t, q)
        assert abs(weierstrass_gap(OSC.lagrangian, OSC.family, t, q, psi)) <= 1e-10


def test_weierstrass_gap_free_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(20):
        t, q, qd = rng.uniform(0.1, 0.9), rng.uniform(-2, 2), rng.uniform(-3, 3)
        assert weierstrass_gap(FREE.lagrangian, FREE.family, t, q, qd) == \
            pytest.approx(0.5 * (qd - 1.0) ** 2, abs=1e-12)


def test_weierstrass_gap_nonnegative_sweep():
    assert checks.dominance_minimum(OSC, 2000, seed=10) >= -1e-10
    assert checks.dominance_minimum(COSH, 500, seed=11) >= -1e-10


# ---------------------------------------------------------------------------
# endpoint dependence


def test_action_simpson_against_analytic():
    # L along the central oscillator leaf is 0.125 cos(2t)
    val = action(OSC.lagrangian, OSC.family.central_leaf)
    want = 0.0625 * (math.sin(5.0) - math.sin(1.0))
    assert val == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n", [0, -4, 2.5, True])
def test_action_rejects_an_interval_count_that_is_not_a_positive_integer(n):
    leaf = OSC.family.central_leaf
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    for call in (lambda: action(OSC.lagrangian, leaf, n=n),
                 lambda: path_independence_check(nl, leaf, leaf, n=n),
                 lambda: minimality_gap(OSC.lagrangian, OSC.family, leaf,
                                        n=n)):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            call()


def test_path_independence_leaf_vs_cubic():
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    a, b = 0.5, 2.5
    qa, qb = 0.3 * math.sin(a), 0.3 * math.sin(b)
    f1 = CallablePath(f=lambda t: 0.3 * math.sin(t), fdot=lambda t: 0.3 * math.cos(t))
    # Hermite cubic with the same endpoint values, different slopes
    m0, m1 = 0.5 * math.cos(a), 0.1 * math.cos(b)

    def cubic(t):
        s = (t - a) / (b - a)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * qa + h10 * (b - a) * m0 + h01 * qb + h11 * (b - a) * m1)

    f2 = CallablePath(f=cubic)
    i1, i2 = path_independence_check(nl, f1, f2)
    assert i1 == pytest.approx(i2, abs=1e-6)
    # both equal the potential difference S(b, qb) - S(a, qa)
    want = 0.5 * qb * qb / math.tan(b) - 0.5 * qa * qa / math.tan(a)
    assert i1 == pytest.approx(want, abs=1e-6)
    assert i2 == pytest.approx(want, abs=1e-6)


def test_path_independence_identical_paths():
    nl = null_lagrangian(FREE.lagrangian, FREE.family)
    f = CallablePath(f=lambda t: t, fdot=lambda t: 1.0)
    i1, i2 = path_independence_check(nl, f, f)
    assert i1 == i2


def test_path_independence_endpoint_mismatch():
    nl = null_lagrangian(FREE.lagrangian, FREE.family)
    f1 = CallablePath(f=lambda t: t, fdot=lambda t: 1.0)
    f2 = CallablePath(f=lambda t: t + 0.1, fdot=lambda t: 1.0)
    with pytest.raises(EndpointError):
        path_independence_check(nl, f1, f2)


@pytest.mark.parametrize("shift, shared", [(2e-10, False), (5e-11, True)])
def test_endpoints_within_1e_10_count_as_shared(shift, shared):
    # path_independence_check and minimality_gap share one endpoint guard
    nl = null_lagrangian(FREE.lagrangian, FREE.family)
    leaf = FREE.family.central_leaf
    f = CallablePath(f=lambda t: t + shift, fdot=lambda t: 1.0)
    for call in (lambda: path_independence_check(nl, leaf, f),
                 lambda: minimality_gap(FREE.lagrangian, FREE.family, f)):
        if shared:
            call()
        else:
            with pytest.raises(EndpointError):
                call()


def test_null_lagrangian_el_property_on_arbitrary_paths():
    # every in-region path solves the Euler-Lagrange equation of lam
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    lam = nl.as_lagrangian()
    paths = [
        CallablePath(f=lambda t: 0.4 * math.sin(t) + 0.1 * math.cos(2 * t),
                     fdot=lambda t: 0.4 * math.cos(t) - 0.2 * math.sin(2 * t)),
        CallablePath(f=lambda t: 0.25 * math.sin(t) * (1.0 + 0.3 * t),
                     fdot=lambda t: 0.25 * math.cos(t) * (1.0 + 0.3 * t)
                     + 0.075 * math.sin(t)),
    ]
    for f in paths:
        for t in (0.8, 1.4, 2.1):
            assert abs(el_residual(lam, f, t)) <= 1e-6


def test_momentum_minus_energy_form_is_closed():
    # mixed partials of P dq - H dt with P = dL_dqdot(t, q, psi)
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    h = 1e-4

    def P(t, q):
        return nl.dlambda_dqdot(t, q)

    def Hq(t, q):
        return hamiltonian(OSC.lagrangian, t, q, P(t, q))

    rng = np.random.default_rng(12)
    for _ in range(10):
        t = rng.uniform(0.7, 2.3)
        q = rng.uniform(0.15, 1.5) * math.sin(t)
        dP_dt = (P(t + h, q) - P(t - h, q)) / (2 * h)
        dH_dq = (Hq(t, q + h) - Hq(t, q - h)) / (2 * h)
        assert dP_dt + dH_dq == pytest.approx(0.0, abs=1e-5)


# ---------------------------------------------------------------------------
# phase lift / symplectic pullback


def test_pullback_vanishes_free():
    assert abs(lagrangian_submanifold_check(
        FREE.lagrangian, FREE.family, 0.3, 0.5)) <= 1e-8


def test_pullback_vanishes_oscillator_sweep():
    assert checks.pullback_residual(OSC, 100, seed=13) <= 1e-5


def test_pullback_detects_corrupted_family():
    fam = corrupted_family()
    vals = [abs(lagrangian_submanifold_check(OSC.lagrangian, fam, s, t))
            for s in (0.7, 1.0, 1.4) for t in (0.9, 1.5, 2.1)]
    assert min(vals) > 0.01
    assert max(vals) > 0.1


def test_phase_lift_map_components():
    pl = PhaseLift(OSC.lagrangian, OSC.family)
    t, u, w, v = pl.map(0.5, 1.2)
    assert t == 1.2
    assert u == pytest.approx(0.5 * math.sin(1.2), abs=1e-12)
    assert v == pytest.approx(0.5 * math.cos(1.2), abs=1e-12)
    assert w == pytest.approx(0.5 * (u * u + v * v), abs=1e-10)


def test_pullback_interior_domain_required():
    with pytest.raises(ValueError):
        lagrangian_submanifold_check(OSC.lagrangian, OSC.family, 5.0, 1.0)
    # every point of a batch is checked, a NaN one included
    for s in ([1.0, 5.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match=r"\(s, t\) = \((5\.0|nan), 1\.5\)"):
            lagrangian_submanifold_check(OSC.lagrangian, OSC.family, s, 1.5)


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh", "corrupted"])
def test_submanifold_check_batch_equals_scalar_calls(name):
    fam = corrupted_family() if name == "corrupted" else get_problem(name).family
    L = OSC.lagrangian if name == "corrupted" else get_problem(name).lagrangian
    rng = np.random.default_rng(23)
    (lo, hi), (a, b) = fam.s_interval, fam.t_domain
    s = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 30)
    t = rng.uniform(a + 1e-3, b - 1e-3, 30)
    batch = lagrangian_submanifold_check(L, fam, s, t)
    single = np.array([lagrangian_submanifold_check(L, fam, *x)
                       for x in zip(s, t)])
    assert batch.tobytes() == single.tobytes()
    pl = PhaseLift(L, fam)
    for k, part in enumerate(pl.map(s, t)):
        want = np.array([pl.map(*x)[k] for x in zip(s, t)], float)
        assert np.broadcast_to(part, s.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_pullback_sweep_equals_the_per_sample_loop(name):
    # the parent algorithm drew s, then t, per sample and called the check
    # on scalars; the batched sweep must reproduce it bit for bit
    prob = get_problem(name)
    rng = np.random.default_rng(24)
    (lo, hi), (a, b), h = prob.family.s_interval, prob.family.t_domain, 1e-4
    worst = 0.0
    for _ in range(40):
        s = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        t = rng.uniform(a + 10 * h, b - 10 * h)
        worst = max(worst, abs(lagrangian_submanifold_check(
            prob.lagrangian, prob.family, s, t, h)))
    assert checks.pullback_residual(prob, 40, seed=24) == worst


def test_pullback_sweep_calls_legendre_inverse_a_fixed_number_of_times(
        monkeypatch):
    calls = []
    inverse = mayer.legendre_inverse

    def counted(*args):
        calls.append(np.size(args[3]))
        return inverse(*args)

    monkeypatch.setattr(mayer, "legendre_inverse", counted)
    counts = []
    for n in (5, 100):
        calls.clear()
        checks.pullback_residual(OSC, n, seed=25)
        counts.append(len(calls))
        assert sum(calls) == 2 * n
    assert counts[0] == counts[1] == 2


def test_pullback_richardson_sanity():
    # centred differences: the nonzero coefficient of the corrupted family
    # converges as the step shrinks, so halving barely moves it
    fam = corrupted_family()
    vals = [lagrangian_submanifold_check(OSC.lagrangian, fam, 1.0, 1.5, h=h)
            for h in (2e-3, 1e-3, 5e-4)]
    assert abs(vals[0] - vals[1]) <= 1e-4
    assert abs(vals[1] - vals[2]) <= abs(vals[0] - vals[1]) + 1e-9


# ---------------------------------------------------------------------------
# minimality


def test_minimality_gap_of_bump():
    a, b = OSC.lagrangian.domain
    f = CallablePath(
        f=lambda t: 0.5 * math.sin(t) + 0.2 * math.sin(math.pi * (t - a) / (b - a)),
        fdot=lambda t: 0.5 * math.cos(t)
        + 0.2 * math.pi / (b - a) * math.cos(math.pi * (t - a) / (b - a)))
    assert minimality_gap(OSC.lagrangian, OSC.family, f) > 0.0


def test_minimality_gap_on_leaf_is_zero():
    assert minimality_gap(OSC.lagrangian, OSC.family, OSC.family.central_leaf) == 0.0


def test_minimality_random_perturbations():
    assert checks.minimality_minimum(OSC, 30, seed=14) >= -1e-8


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_minimality_minimum_equals_min_of_gaps(name):
    prob = get_problem(name)
    rng = np.random.default_rng(21)
    gaps = [minimality_gap(prob.lagrangian, prob.family,
                           checks._bump_path(prob, rng),
                           n=500)
            for _ in range(8)]
    got = checks.minimality_minimum(prob, 8, seed=21, n_quad=500)
    assert got.hex() == min(gaps).hex()


def test_minimality_gap_evaluates_the_competitor_once_per_grid():
    # the region test and the action sum share one evaluation of the
    # competitor on the n + 1 nodes of the Simpson grid
    sizes = []

    class Counted(CallablePath):
        def value(self, t):
            sizes.append(np.size(t))
            return super().value(t)

    path = checks._bump_path(OSC, np.random.default_rng(4))
    f = Counted(path.f, path.fdot)
    gap = minimality_gap(OSC.lagrangian, OSC.family, f, n=500)
    assert sizes.count(501) == 1
    assert gap == minimality_gap(OSC.lagrangian, OSC.family, path, n=500)


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_mayer_checks_do_not_depend_on_the_problem_name(name):
    # the sweeps' perturbation amplitude belongs to the problem: a copy
    # under another name gets the registry problem's numbers, bit for bit
    prob = get_problem(name)
    want = checks.run_mayer_checks(prob, 200, 1)
    got = checks.run_mayer_checks(dataclasses.replace(prob, name="mine"),
                                  200, 1)
    assert {k: v.hex() for k, v in got.items()} == \
        {k: v.hex() for k, v in want.items()}


def test_minimality_endpoint_mismatch():
    f = CallablePath(f=lambda t: 0.5 * math.sin(t) + 0.05,
                     fdot=lambda t: 0.5 * math.cos(t))
    with pytest.raises(EndpointError):
        minimality_gap(OSC.lagrangian, OSC.family, f)


def test_minimality_path_outside_region():
    a, b = OSC.lagrangian.domain
    f = CallablePath(
        f=lambda t: 0.5 * math.sin(t) + 2.9 * math.sin(math.pi * (t - a) / (b - a)),
        fdot=lambda t: 0.5 * math.cos(t)
        + 2.9 * math.pi / (b - a) * math.cos(math.pi * (t - a) / (b - a)))
    with pytest.raises(FoliationError):
        minimality_gap(OSC.lagrangian, OSC.family, f)


def test_minimality_rejects_an_excursion_between_33_check_times():
    # a bump of width 0.01 midway between the 16th and 17th of 33 equally
    # spaced times leaves the foliated region (q <= 3 sin t) by 1.51 on the
    # action's grid; the region is checked on every node the action uses
    a, b = OSC.lagrangian.domain
    c = a + 15.5 / 32 * (b - a)

    def bump(t):
        return 4.0 * np.exp(-((t - c) / 0.01) ** 2)

    f = CallablePath(f=lambda t: 0.5 * np.sin(t) + bump(t),
                     fdot=lambda t: 0.5 * np.cos(t) - 2e4 * (t - c) * bump(t))
    ts = np.linspace(a, b, 2001)
    assert np.max(f.value(ts) - 3.0 * np.sin(ts)) > 1.5
    with pytest.raises(FoliationError, match="leaves the foliated region"):
        minimality_gap(OSC.lagrangian, OSC.family, f)


# ---------------------------------------------------------------------------
# shooting families and interpolation


def test_shooting_family_free_particle():
    fam = family_from_shooting(
        FREE.lagrangian, initial=lambda s: (s, 1.0),
        s_interval=(-2.0, 2.0), t_grid=np.linspace(0.0, 1.0, 101), s0=0.0)
    rng = np.random.default_rng(15)
    for _ in range(20):
        s, t = rng.uniform(-1.9, 1.9), rng.uniform(0.0, 1.0)
        assert fam.u(s, t) == pytest.approx(s + t, abs=1e-9)
    assert mayer_slope(fam, 0.5, 0.7) == pytest.approx(1.0, abs=1e-8)


def test_shooting_family_oscillator_matches_analytic():
    fam = family_from_shooting(
        OSC.lagrangian,
        initial=lambda s: (s * math.sin(0.5), s * math.cos(0.5)),
        s_interval=(0.05, 2.0), t_grid=np.arange(0.5, 2.5 + 1e-12, 2e-3),
        s0=0.5)
    rng = np.random.default_rng(16)
    for _ in range(20):
        s, t = rng.uniform(0.1, 1.9), rng.uniform(0.5, 2.5)
        assert fam.u(s, t) == pytest.approx(s * math.sin(t), abs=1e-6)
    q = 0.6 * math.sin(1.7)
    assert mayer_slope(fam, 1.7, q) == pytest.approx(
        q / math.tan(1.7), abs=1e-6)


ANHARMONIC = Lagrangian1D(
    l=lambda t, q, qd: 0.5 * qd * qd - 0.25 * q ** 4,
    dL_dq=lambda t, q, qd: -q ** 3,
    dL_dqdot=lambda t, q, qd: qd,
    d2L_dqdot2=lambda t, q, qd: 1.0,
    domain=(0.5, 2.5),
)


@pytest.mark.parametrize("L", [OSC.lagrangian, ANHARMONIC],
                         ids=["oscillator", "anharmonic"])
def test_shooting_family_equals_the_per_leaf_loop(monkeypatch, L):
    # the parent algorithm integrated each leaf on its own with solve_el;
    # the one-pass RK4 must give every leaf the same bits, also where a
    # callable rounds differently on a numpy scalar (q ** 3)
    g = np.linspace(0.5, 2.5, 101)

    def initial(s):
        return s * math.sin(0.5), s * math.cos(0.5)

    fam = family_from_shooting(L, initial, (0.05, 0.6), g, 0.5)
    leaves = [solve_el(L, float(g[0]), *initial(float(s)), g)
              for s in np.linspace(0.05, 0.6, 33)]
    values = np.array([f.values for f in leaves])
    slopes = np.array([f.derivatives for f in leaves])
    monkeypatch.setattr(mayer, "_integrate_el", lambda *a: (values, slopes))
    ref = family_from_shooting(L, initial, (0.05, 0.6), g, 0.5)
    rng = np.random.default_rng(26)
    s, t = rng.uniform(0.05, 0.6, 200), rng.uniform(0.5, 2.5, 200)
    s[:33], t[:33] = np.linspace(0.05, 0.6, 33), g[:99:3]  # on the nodes
    assert fam.u(s, t).tobytes() == ref.u(s, t).tobytes()
    assert fam.du_dt(s, t).tobytes() == ref.du_dt(s, t).tobytes()


def test_shooting_family_keeps_its_guards():
    with pytest.raises(ValueError, match="strictly increasing"):
        family_from_shooting(OSC.lagrangian, lambda s: (s, 0.0), (0.1, 1.0),
                             [0.5, 0.5, 1.0], 0.5)
    with pytest.raises(LegendreError, match="q=0.25, qdot=0.0"):
        family_from_shooting(QUARTIC, lambda s: (s, s - 0.25), (0.0, 1.0),
                             np.linspace(0.0, 1.0, 11), 0.5, n_leaves=5)


@pytest.mark.parametrize("n_leaves", [3, 2, 1, 0, True, 33.0, "33"])
def test_shooting_family_needs_four_leaves(n_leaves):
    # the cubic blend in s takes four leaves around each s
    with pytest.raises(ValueError, match="n_leaves must be an integer >= 4"):
        family_from_shooting(
            OSC.lagrangian, lambda s: (s * math.sin(0.5), s * math.cos(0.5)),
            (0.05, 2.0), np.linspace(0.5, 2.5, 101), 0.5, n_leaves=n_leaves)


# ---------------------------------------------------------------------------
# Jacobi's condition: past the first conjugate point there is no field


def test_oscillator_family_past_the_conjugate_point_is_rejected():
    with pytest.raises(FoliationError, match="monotonicity direction flips"):
        SolutionFamily(u=lambda s, t: s * np.sin(t), s_interval=(0.01, 3.0),
                       t_domain=(0.5, 4.0), s0=0.5,
                       du_dt=lambda s, t: s * np.cos(t))


def test_shooting_past_the_conjugate_point_is_rejected():
    def shoot(b):
        return family_from_shooting(
            OSC.lagrangian, lambda s: (s * math.sin(0.5), s * math.cos(0.5)),
            (0.01, 3.0), np.linspace(0.5, b, 141), 0.5)

    with pytest.raises(FoliationError):
        shoot(4.0)
    assert shoot(2.5).s_interval == (0.01, 3.0)


@pytest.mark.parametrize("T, want", [(3.5, -4.25e-4), (2.0, 1.83e-3)])
def test_bump_gap_is_the_second_variation(T, want):
    # the Lagrangian is quadratic and 0.5 sin t an extremal, so the gap of
    # 0.5 sin t + eps sin(pi (t - a) / T) is eps^2 (T/4) ((pi/T)^2 - 1):
    # negative past the conjugate point pi, positive before it
    a, eps, k = 0.5, 0.05, math.pi / T
    leaf = CallablePath(f=lambda t: 0.5 * np.sin(t),
                        fdot=lambda t: 0.5 * np.cos(t))
    bump = CallablePath(
        f=lambda t: 0.5 * np.sin(t) + eps * np.sin(k * (t - a)),
        fdot=lambda t: 0.5 * np.cos(t) + eps * k * np.cos(k * (t - a)))
    L = OSC.lagrangian
    gap = action(L, bump, a, a + T) - action(L, leaf, a, a + T)
    closed = eps * eps * (T / 4) * (k * k - 1.0)
    assert gap == pytest.approx(closed, abs=1e-12)
    assert closed == pytest.approx(want, rel=5e-3)


def test_first_zero_of_the_jacobi_field_is_pi():
    # the Jacobi field du/ds of the leaves s sin t, by centred differences
    h = 1e-4

    def positive(t):
        return (0.5 + h) * np.sin(t) - (0.5 - h) * np.sin(t) > 0.0

    t0 = mayer._bisect(positive, np.array(0.5), 3.5, 60)
    assert abs(t0 - math.pi) <= 1e-10


def test_extremal_hermite_interpolation():
    grid = np.linspace(0.0, 2.0, 41)
    f = Extremal(grid, np.sin(grid), np.cos(grid))
    for t in (0.33, 1.111, 1.97):
        assert f.value(t) == pytest.approx(math.sin(t), abs=1e-6)
        assert f.derivative(t) == pytest.approx(math.cos(t), abs=1e-4)


def test_energy_and_impulsion_definitions():
    L = COSH.lagrangian
    t, q, qd = 0.3, 0.1, 0.8
    assert L.dL_dqdot(t, q, qd) == math.sinh(0.8)
    assert energy(L, t, q, qd) == pytest.approx(
        0.8 * math.sinh(0.8) - math.cosh(0.8), abs=1e-14)


# ---------------------------------------------------------------------------
# batches: results do not depend on how points are grouped

BATCH_FAMILIES = {
    "oscillator": OSC.family,
    "shooting": family_from_shooting(
        OSC.lagrangian,
        initial=lambda s: (s * math.sin(0.5), s * math.cos(0.5)),
        s_interval=(0.05, 2.0), t_grid=np.arange(0.5, 2.5 + 1e-12, 1e-2),
        s0=0.5),
    # scalar-only callables run element by element
    "scalar_only": SolutionFamily(
        u=lambda s, t: s * math.sin(t),
        s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
        du_dt=lambda s, t: s * math.cos(t)),
}


def _batch(fam, data):
    lo, hi = fam.s_interval
    a, b = fam.t_domain
    n = data.draw(st.integers(1, 40), label="n")
    t = np.array(data.draw(st.lists(st.floats(a, b), min_size=n, max_size=n),
                           label="t"))
    s = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n),
                           label="s"))
    return t, fam.u(s, t)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BATCH_FAMILIES)), data=st.data())
def test_mayer_slope_batch_equals_scalar_calls(name, data):
    fam = BATCH_FAMILIES[name]
    t, q = _batch(fam, data)
    batch = mayer_slope(fam, t, q)
    single = np.array([mayer_slope(fam, ti, qi) for ti, qi in zip(t, q)])
    assert batch.tobytes() == single.tobytes()
    assert mayer_slope(fam, t[::-1], q[::-1]).tobytes() == batch[::-1].tobytes()
    k = data.draw(st.integers(0, len(t)), label="split")
    parts = np.concatenate([mayer_slope(fam, t[:k], q[:k]),
                            mayer_slope(fam, t[k:], q[k:])])
    assert parts.tobytes() == batch.tobytes()


def test_mayer_slope_accepts_points_on_leaves_next_to_the_ends():
    # u(s, t) one ulp inside the parameter interval rounds below u(lo, t)
    fam = BATCH_FAMILIES["shooting"]
    t = np.array([1.0, 0.625])
    q = fam.u(np.array([1.0, np.nextafter(fam.s_interval[0], 1.0)]), t)
    batch = mayer_slope(fam, t, q)
    single = np.array([mayer_slope(fam, ti, qi) for ti, qi in zip(t, q)])
    assert batch.tobytes() == single.tobytes()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BATCH_FAMILIES)), data=st.data())
def test_mayer_slope_batch_out_of_range_point_raises(name, data):
    fam = BATCH_FAMILIES[name]
    t, q = _batch(fam, data)
    j = data.draw(st.integers(0, len(t) - 1), label="j")
    lo, hi = fam.s_interval
    q[j] = max(fam.u(lo, t[j]), fam.u(hi, t[j])) + 1.0
    with pytest.raises(FoliationError, match=re.escape(f"q={q[j]} ")):
        mayer_slope(fam, t, q)


def test_slope_and_gap_batch_equal_scalar_calls_where_powers_round():
    # a numpy scalar's t ** 3 rounds unlike an array's, so a scalar call
    # must reach the callables as a one-point array
    fam = SolutionFamily(u=lambda s, t: s * (1.0 + 0.25 * t ** 4),
                         s_interval=(0.1, 2.0), t_domain=(0.0, 1.0), s0=0.5,
                         du_dt=lambda s, t: s * t ** 3)
    L = Lagrangian1D(l=lambda t, q, qd: 0.25 * qd ** 4 + q ** 3,
                     dL_dq=lambda t, q, qd: 3.0 * q ** 2,
                     dL_dqdot=lambda t, q, qd: qd ** 3,
                     d2L_dqdot2=lambda t, q, qd: 3.0 * qd ** 2,
                     domain=(0.0, 1.0))
    rng = np.random.default_rng(27)
    t, s, qd = rng.uniform([0.01, 0.2, -2.0], [1.0, 1.9, 2.0], (300, 3)).T
    q = fam.u(s, t)
    slope = np.array([mayer_slope(fam, *x) for x in zip(t, q)])
    assert mayer_slope(fam, t, q).tobytes() == slope.tobytes()
    gap = np.array([weierstrass_gap(L, fam, *x) for x in zip(t, q, qd)])
    assert weierstrass_gap(L, fam, t, q, qd).tobytes() == gap.tobytes()
    lam = mayer.NullLagrangianField(L, fam).lam
    assert (lam(t, q, qd).tobytes()
            == np.array([lam(*x) for x in zip(t, q, qd)]).tobytes())
    path = CallablePath(lambda t: t ** 3 + t / 2, lambda t: 3 * t ** 2 + 0.5)
    grid = np.linspace(0.0, 1.0, 101)
    curve = Extremal(grid, path.f(grid), path.fdot(grid))
    t = t[t < 0.99]
    for fn in (lambda t: el_residual(L, path, t), curve.value,
               curve.derivative):
        assert fn(t).tobytes() == np.array([fn(x) for x in t]).tobytes()


def test_dominance_sweep_matches_scalar_loop_and_any_blocking(monkeypatch):
    # the parent algorithm drew (t, s, qdot) per sample and called the gap
    # on scalars; the batched sweep must reproduce it bit for bit
    rng = np.random.default_rng(17)
    a, b = OSC.family.t_domain
    lo, hi = OSC.family.s_interval
    gaps = []
    for _ in range(150):
        t = rng.uniform(a + 1e-3, b - 1e-3)
        s = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        qd = rng.uniform(-3.0, 3.0)
        gaps.append(weierstrass_gap(OSC.lagrangian, OSC.family, t,
                                    OSC.family.u(s, t), qd))
    assert checks.dominance_minimum(OSC, 150, seed=17) == min(gaps)
    monkeypatch.setattr(curves, "_BLOCK_BYTES", 7 * 32)  # blocks of 7
    assert checks.dominance_minimum(OSC, 150, seed=17) == min(gaps)
