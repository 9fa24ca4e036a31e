import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isocal import (
    CallablePath,
    EndpointError,
    FoliationError,
    Lagrangian1D,
    LegendreError,
    PhaseLift,
    SolutionFamily,
    action,
    el_residual,
    get_problem,
    lagrangian_submanifold_check,
    legendre_inverse,
    mayer_slope,
    minimality_gap,
    null_lagrangian,
    path_independence_check,
    weierstrass_gap,
)
from isocal import checks, mayer

from conftest import spy_sweeps

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


def scalar_bump(prob, rng) -> CallablePath:
    """One random bump path of the Mayer sweeps, drawn (three uniform
    coefficients) and built one path at a time: the reference for the
    sweeps' blocks."""
    a, b = prob.lagrangian.domain
    base = prob.family.central_leaf
    coeffs = rng.uniform(-prob.amplitude, prob.amplitude, size=3)
    ks = np.arange(1, 4) * math.pi / (b - a)
    return CallablePath(
        f=lambda t: base.value(t) + sum(
            c * np.sin(k * (t - a)) for c, k in zip(coeffs, ks)),
        fdot=lambda t: base.derivative(t) + sum(
            c * k * np.cos(k * (t - a)) for c, k in zip(coeffs, ks)))


def corrupted_family() -> SolutionFamily:
    """Leaves that are not extremals of the oscillator Lagrangian."""
    return SolutionFamily(
        u=lambda s, t: s * np.sin(t) + 0.1 * s * s * t,
        s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
        du_dt=lambda s, t: s * np.cos(t) + 0.1 * s * s,
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


def test_callables_must_evaluate_arrays():
    # the Mayer layer calls every callable on arrays: a scalar-only family
    # fails where it is built, at its monotonicity grid, and a scalar-only
    # Lagrangian at its first batch
    with pytest.raises(TypeError):
        SolutionFamily(u=lambda s, t: s * math.sin(t),
                       s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
                       du_dt=lambda s, t: s * math.cos(t))
    L = Lagrangian1D(
        l=lambda t, q, qd: math.cosh(qd),
        dL_dq=lambda t, q, qd: 0.0,
        dL_dqdot=lambda t, q, qd: math.sinh(qd),
        d2L_dqdot2=lambda t, q, qd: math.cosh(qd),
        domain=(0.0, 1.0),
    )
    with pytest.raises(TypeError):
        weierstrass_gap(L, COSH.family, [0.2, 0.6], [0.1, 0.3], [0.5, -0.5])


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def test_el_residual_free_line():
    path = CallablePath(f=lambda t: 1.0 + 2.0 * t, fdot=lambda t: 2.0)
    assert abs(el_residual(FREE.lagrangian, path, 0.5)) <= 1e-8


def test_el_residual_oscillator_sine():
    path = CallablePath(f=np.sin, fdot=np.cos)
    assert abs(el_residual(OSC.lagrangian, path, 1.3)) <= 1e-6


def test_el_residual_nonextremal():
    path = CallablePath(f=lambda t: t * t, fdot=lambda t: 2.0 * t)
    assert el_residual(FREE.lagrangian, path, 0.5) == pytest.approx(2.0, abs=1e-6)


def test_el_residual_outside_domain():
    path = CallablePath(f=np.sin, fdot=np.cos)
    with pytest.raises(ValueError):
        el_residual(OSC.lagrangian, path, 3.0)


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
    qhat = legendre_inverse(L, t, q, p)
    single = np.array([legendre_inverse(L, *x) for x in zip(t, q, p)])
    assert qhat.tobytes() == single.tobytes()
    assert isinstance(legendre_inverse(L, t[0], q[0], p[0]), float)
    assert (legendre_inverse(L, t[::-1], q[::-1], p[::-1]).tobytes()
            == qhat[::-1].tobytes())
    # and the root's residual is at the rounding level of the momentum
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
        SolutionFamily(u=lambda s, t: s * s * np.sin(t),
                       s_interval=(-1.0, 1.0), t_domain=(0.5, 2.5), s0=0.0,
                       du_dt=lambda s, t: s * s * np.cos(t))


def test_family_direction_flip_detected():
    with pytest.raises(FoliationError):
        SolutionFamily(u=lambda s, t: s * np.cos(t),
                       s_interval=(0.1, 2.0), t_domain=(1.0, 2.2), s0=1.0,
                       du_dt=lambda s, t: -s * np.sin(t))


def test_family_s0_inside_interval():
    with pytest.raises(FoliationError):
        SolutionFamily(u=lambda s, t: s + t, s_interval=(0.0, 1.0),
                       t_domain=(0.0, 1.0), s0=2.0, du_dt=lambda s, t: 1.0)


def test_slopes_are_required():
    # every slope comes from the caller: no family without du_dt, no path
    # without fdot
    with pytest.raises(TypeError):
        SolutionFamily(u=lambda s, t: s + t, s_interval=(0.0, 1.0),
                       t_domain=(0.0, 1.0), s0=0.5)
    with pytest.raises(TypeError):
        CallablePath(f=np.sin)


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

    f = CallablePath(f=lambda t: 0.4 * np.sin(t) + 0.1 * np.sin(2 * t - 1.0),
                     fdot=lambda t: 0.4 * np.cos(t) + 0.2 * np.cos(2 * t - 1.0))
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


def fsum_simpson(row, ts):
    """A path's composite-Simpson sum with both weighted sums by fsum."""
    h = (float(ts[-1]) - float(ts[0])) / (len(ts) - 1)
    row = row.tolist()
    odd, even = math.fsum(row[1:-1:2]), math.fsum(row[2:-1:2])
    return h / 3.0 * (row[0] + row[-1] + 4.0 * odd + 2.0 * even)


@pytest.mark.parametrize("rows", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 7, 2000])
def test_simpson_rows_keep_the_bits_of_fsum(rows, n):
    # values over 60 binades, both signs, with cancellation
    ts = mayer._simpson_grid(-1.0, 2.5, n)
    rng = np.random.default_rng(rows * n)
    vals = rng.standard_normal((rows, len(ts))) * np.exp2(
        rng.integers(-30, 30, (rows, len(ts))))
    vals[0, 3:-1:4] = -vals[0, 1:-3:4]  # odd terms cancel in pairs
    got = mayer._simpson(vals, ts)
    assert got.shape == (rows,)
    assert [x.hex() for x in got.tolist()] == \
        [fsum_simpson(row, ts).hex() for row in vals]
    one = mayer._simpson(vals[0], ts)
    assert type(one) is float and one.hex() == fsum_simpson(vals[0], ts).hex()


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
    f1 = CallablePath(f=lambda t: 0.3 * np.sin(t), fdot=lambda t: 0.3 * np.cos(t))
    # Hermite cubic with the same endpoint values, different slopes
    m0, m1 = 0.5 * math.cos(a), 0.1 * math.cos(b)

    def cubic(t):
        s = (t - a) / (b - a)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * qa + h10 * (b - a) * m0 + h01 * qb + h11 * (b - a) * m1)

    def cubic_dot(t):
        s = (t - a) / (b - a)
        d00 = 6 * s * (s - 1)
        d10 = (1 - s) * (1 - 3 * s)
        d01 = 6 * s * (1 - s)
        d11 = s * (3 * s - 2)
        return (d00 * qa + d10 * (b - a) * m0 + d01 * qb
                + d11 * (b - a) * m1) / (b - a)

    f2 = CallablePath(f=cubic, fdot=cubic_dot)
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


@pytest.mark.parametrize("end", [0, 1])
def test_a_nan_end_is_not_shared(end):
    # a NaN compares false to everything, so the guard must not read
    # "no end differs by more than the tolerance" as "the ends agree"
    nl = null_lagrangian(FREE.lagrangian, FREE.family)
    leaf = FREE.family.central_leaf
    t_end = FREE.lagrangian.domain[end]
    path = CallablePath(f=lambda t: np.where(t == t_end, np.nan, t),
                        fdot=lambda t: 1.0)
    for call in (lambda: path_independence_check(nl, leaf, path),
                 lambda: path_independence_check(nl, path, leaf),
                 lambda: minimality_gap(FREE.lagrangian, FREE.family, path)):
        with pytest.raises(EndpointError):
            call()


def test_null_lagrangian_el_property_on_arbitrary_paths():
    # every in-region path solves the Euler-Lagrange equation of lam
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    lam = nl.as_lagrangian()
    paths = [
        CallablePath(f=lambda t: 0.4 * np.sin(t) + 0.1 * np.cos(2 * t),
                     fdot=lambda t: 0.4 * np.cos(t) - 0.2 * np.sin(2 * t)),
        CallablePath(f=lambda t: 0.25 * np.sin(t) * (1.0 + 0.3 * t),
                     fdot=lambda t: 0.25 * np.cos(t) * (1.0 + 0.3 * t)
                     + 0.075 * np.sin(t)),
    ]
    for f in paths:
        for t in (0.8, 1.4, 2.1):
            assert abs(el_residual(lam, f, t)) <= 1e-6


def test_momentum_minus_energy_form_is_closed():
    # mixed partials of P dq - H dt with P = dL_dqdot(t, q, psi) and the
    # oscillator's Hamiltonian H = (p^2 + q^2) / 2
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    h = 1e-4

    def P(t, q):
        return nl.dlambda_dqdot(t, q)

    def Hq(t, q):
        return 0.5 * (P(t, q) ** 2 + q * q)

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
            prob.lagrangian, prob.family, s, t)))
    assert checks.pullback_residual(prob, 40, seed=24) == worst


def counted(fn, calls, name):
    """fn, appending (name, number of points) to calls at every call."""
    def wrapper(*args):
        calls.append((name, np.broadcast(*args).size))
        return fn(*args)
    return wrapper


def counted_problem(prob, calls):
    """prob with its family's and Lagrangian's callables counted in calls,
    from after their construction on."""
    L, fam = prob.lagrangian, prob.family
    L = dataclasses.replace(L, **{
        name: counted(getattr(L, name), calls, name)
        for name in ("l", "dL_dq", "dL_dqdot", "d2L_dqdot2")})
    fam = dataclasses.replace(fam, u=counted(fam.u, calls, "u"),
                              du_dt=counted(fam.du_dt, calls, "du_dt"))
    calls.clear()
    return dataclasses.replace(prob, lagrangian=L, family=fam)


def test_pullback_sweep_is_batched_without_legendre_inverse(monkeypatch):
    # one block: its four stencil points take one call each of u, the time
    # slope, the momentum and L; the energy needs no inverse
    monkeypatch.setattr(mayer, "legendre_inverse", None)
    calls = []
    prob = counted_problem(OSC, calls)
    for n in (5, 100):
        calls.clear()
        checks.pullback_residual(prob, n, seed=25)
        for name in ("u", "du_dt", "dL_dqdot", "l"):
            assert [k for f, k in calls if f == name] == [n] * 4
        assert {f for f, _ in calls} == {"u", "du_dt", "dL_dqdot", "l"}


def test_lam_takes_one_momentum_per_call():
    calls = []
    prob = counted_problem(COSH, calls)
    lam = mayer.NullLagrangianField(prob.lagrangian, prob.family).lam
    for t, q, qd in ((0.3, 0.1, 0.8), ([0.2, 0.6], [0.0, 1.0], [-1.0, 2.0])):
        calls.clear()
        lam(t, q, qd)
        assert [f for f, _ in calls if f != "u"] == ["du_dt", "dL_dqdot", "l"]


def interior_draws(fam, seed, n):
    """n draws of (s, t, qdot) inside the family's parameter rectangle."""
    (lo, hi), (a, b) = fam.s_interval, fam.t_domain
    return np.random.default_rng(seed).uniform(
        [lo + 0.1 * (hi - lo), a + 1e-3, -3.0],
        [hi - 0.1 * (hi - lo), b - 1e-3, 3.0], (n, 3)).T


# the Hamiltonian H(q, p) of each built-in Lagrangian (none depends on t),
# in closed form
HAMILTONIANS = {
    "free": lambda q, p: 0.5 * p * p,
    "oscillator": lambda q, p: 0.5 * (p * p + q * q),
    "cosh": lambda q, p: p * np.arcsinh(p) - np.sqrt(1.0 + p * p),
}


@pytest.mark.parametrize("name", sorted(HAMILTONIANS))
def test_phase_lift_energy_is_the_hamiltonian_of_its_momentum(name):
    # the energy of the leaf's slope is H at the leaf's momentum, to a few
    # ulps of the scale
    prob = get_problem(name)
    s, t, _ = interior_draws(prob.family, 33, 2000)
    _, u, w, v = PhaseLift(prob.lagrangian, prob.family).map(s, t)
    want = HAMILTONIANS[name](u, v)
    scale = np.max(np.abs(want), initial=1.0)
    assert np.max(np.abs(w - want)) <= 4 * np.finfo(float).eps * scale


# sha256 of the hex values of the pullback coefficient at 200 seeded (s, t),
# then of weierstrass_gap and lam at (t, u(s, t), qdot): the bits of the
# phase lift that inverted its momentum by legendre_inverse
FIELD_PINS = {
    "free":
        "3d75fbc5adc5f3e34b26a4f2ec888dae1736e9782f4fed41cd1dd85f89718d03",
    "oscillator":
        "f94eb7ce4d0676f38e1a846e7b866455bcd339d9489dee811b166d255025d103",
    "cosh":
        "9610da5966c4979fb895eaaa66ebfc892858c790ef3df5b2d8d3ace9746dc687",
}


@pytest.mark.parametrize("name", sorted(FIELD_PINS))
def test_field_values_keep_their_bits(name):
    prob = get_problem(name)
    L, fam = prob.lagrangian, prob.family
    s, t, qd = interior_draws(fam, 34, 200)
    q = fam.u(s, t)
    values = (lagrangian_submanifold_check(L, fam, s, t),
              weierstrass_gap(L, fam, t, q, qd),
              mayer.NullLagrangianField(L, fam).lam(t, q, qd))
    hexes = [x.hex() for v in values for x in v.tolist()]
    digest = hashlib.sha256(" ".join(hexes).encode()).hexdigest()
    assert digest == FIELD_PINS[name]


def test_pullback_richardson_sanity(monkeypatch):
    # centred differences: the nonzero coefficient of the corrupted family
    # converges as the step shrinks, so halving barely moves it
    fam = corrupted_family()
    vals = []
    for h in (2e-3, 1e-3, 5e-4):
        monkeypatch.setattr(mayer, "_PULLBACK_STEP", h)
        vals.append(lagrangian_submanifold_check(OSC.lagrangian, fam, 1.0,
                                                 1.5))
    assert abs(vals[0] - vals[1]) <= 1e-4
    assert abs(vals[1] - vals[2]) <= abs(vals[0] - vals[1]) + 1e-9


# ---------------------------------------------------------------------------
# minimality


def test_minimality_gap_of_bump():
    a, b = OSC.lagrangian.domain
    f = CallablePath(
        f=lambda t: 0.5 * np.sin(t) + 0.2 * np.sin(math.pi * (t - a) / (b - a)),
        fdot=lambda t: 0.5 * np.cos(t)
        + 0.2 * math.pi / (b - a) * np.cos(math.pi * (t - a) / (b - a)))
    assert minimality_gap(OSC.lagrangian, OSC.family, f) > 0.0


def test_minimality_gap_on_leaf_is_zero():
    assert minimality_gap(OSC.lagrangian, OSC.family, OSC.family.central_leaf) == 0.0


def test_minimality_random_perturbations():
    assert checks.minimality_minimum(OSC, 30, seed=14) >= -1e-8


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_minimality_minimum_equals_min_of_gaps(name, monkeypatch):
    # the per-path loop is the reference, for any blocking of the sweep
    prob = get_problem(name)
    rng = np.random.default_rng(21)
    gaps = [minimality_gap(prob.lagrangian, prob.family,
                           scalar_bump(prob, rng), n=500)
            for _ in range(8)]
    rows = spy_block_rows(monkeypatch)
    for budget in (1, 9 << 13, 3 << 15, 1 << 20):
        monkeypatch.setattr(checks, "_SWEEP_BYTES", budget)
        got = checks.minimality_minimum(prob, 8, seed=21, n_quad=500)
        assert got.hex() == min(gaps).hex()
    assert set(rows) == {1, 2, 3, 4, 8}


def spy_block_rows(monkeypatch) -> list:
    """The number of paths in each block the Mayer sweeps build, in order:
    of a pair block, the paths of one side."""
    rows = []
    block = checks._bump_block

    def spy(grid, coeffs):
        rows.append(coeffs.shape[-2])
        return block(grid, coeffs)

    monkeypatch.setattr(checks, "_bump_block", spy)
    return rows


class CountedTrig:
    """numpy, but recording the size of each argument of sin and cos."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x):
        self.sizes.append(np.size(x))
        return np.sin(x)

    cos = sin


def test_mayer_sweeps_table_their_modes_once(monkeypatch):
    # each sweep evaluates its bump modes on its Simpson grid once, and
    # every block reads them from its grid record; no mode and no path is
    # evaluated at the endpoints alone (the endpoint guard reads the ends
    # of the grid), so the family meets no 2-point call
    sizes, calls = [], []
    prob = counted_problem(OSC, calls)
    monkeypatch.setattr(checks, "np", CountedTrig(sizes))
    monkeypatch.setattr(checks, "_SWEEP_BYTES", 1)  # a pair or path a block
    checks.path_independence_residual(prob, 3, seed=2)
    assert sizes == [2001] * 6
    sizes.clear()
    checks.minimality_minimum(prob, 3, seed=2, n_quad=500)
    assert sizes == [501] * 6
    assert calls and all(k != 2 for _, k in calls)


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_path_independence_sweep_matches_scalar_loop_and_any_blocking(
        name, monkeypatch):
    # the parent algorithm drew and integrated one path at a time, each on
    # its own; the blocks, and the pair's paths stacked into one evaluation
    # of lam, must reproduce it bit for bit
    prob = get_problem(name)
    lam = null_lagrangian(prob.lagrangian, prob.family).as_lagrangian()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(7):
        f1, f2 = scalar_bump(prob, rng), scalar_bump(prob, rng)
        worst = max(worst, abs(action(lam, f1) - action(lam, f2)))
    rows = spy_block_rows(monkeypatch)
    for budget in (1, 1 << 20, 3 << 19, 1 << 23):
        monkeypatch.setattr(checks, "_SWEEP_BYTES", budget)
        got = checks.path_independence_residual(prob, 7, seed=33)
        assert got.hex() == worst.hex()
    assert set(rows) == {1, 2, 3, 7}


def test_minimality_minimum_names_the_first_time_a_competitor_leaves():
    # with three times the amplitude some competitors leave the foliation;
    # the sweep names the first time the first of them (in draw order)
    # leaves, whatever the blocking
    prob = dataclasses.replace(OSC, amplitude=3 * OSC.amplitude)
    lo, hi = prob.family.s_interval
    ts = np.linspace(*prob.lagrangian.domain, 501)
    low, high = prob.family.u(lo, ts), prob.family.u(hi, ts)
    rng = np.random.default_rng(5)
    for i in range(40):
        q = scalar_bump(prob, rng).value(ts)
        outside = np.flatnonzero((q < low) | (q > high))
        if outside.size:
            break
    assert 0 < i < 39 and outside[0] > 0  # not the first competitor or time
    for budget in (1, 3 << 14, 1 << 20):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_SWEEP_BYTES", budget)
            with pytest.raises(FoliationError, match=re.escape(
                    f"leaves the foliated region at t={ts[outside[0]]}")):
                checks.minimality_minimum(prob, 40, seed=5, n_quad=500)


def test_block_path_independence_check_rejects_a_mismatched_pair():
    # one pair of a block of three ends apart, at either end alone: the
    # block raises
    nl = null_lagrangian(OSC.lagrangian, OSC.family)
    c = np.random.default_rng(8).uniform(-0.1, 0.1, size=(2, 3, 3))
    grid = checks._bump_grid(OSC, 2000)
    ts, (q, qd) = grid[0], checks._bump_block(grid, c)
    i1, i2 = mayer._null_actions(nl, ts, q, qd)
    assert i1.shape == i2.shape == (3,)
    for shift in (ts - ts[0], ts[-1] - ts):
        moved = q.copy()
        moved[1, 1] += 1e-9 * shift
        with pytest.raises(EndpointError):
            mayer._null_actions(nl, ts, moved, qd)


def bump_block_path(prob, coeffs) -> CallablePath:
    """The CallablePath of the bump paths of coeffs (..., 3), a row of
    values a path, by the expressions of the sweeps' blocks."""
    a, b = prob.lagrangian.domain
    leaf = prob.family.central_leaf
    ks = np.arange(1, 4) * math.pi / (b - a)
    return CallablePath(
        f=lambda t: leaf.value(t) + sum(
            np.multiply.outer(coeffs[..., j], np.sin(k * (t - a)))
            for j, k in enumerate(ks)),
        fdot=lambda t: leaf.derivative(t) + sum(
            np.multiply.outer(coeffs[..., j] * k, np.cos(k * (t - a)))
            for j, k in enumerate(ks)))


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_public_path_functions_give_the_sweeps_bits(name, monkeypatch):
    # path_independence_check and minimality_gap on CallablePaths of the
    # coefficients a sweep draws, a path at a time or all in one block,
    # give the sweep's worst value bit for bit, at any sweep budget; the
    # paths sample to the sweep's own values and slopes
    prob = get_problem(name)
    L, fam, amp = prob.lagrangian, prob.family, prob.amplitude
    nl = null_lagrangian(L, fam)
    pairs = np.random.default_rng(41).uniform(-amp, amp, (6, 6))
    competitors = np.random.default_rng(42).uniform(-amp, amp, (6, 3))
    grid = checks._bump_grid(prob, 500)
    path = bump_block_path(prob, competitors)
    for got, want in zip(checks._bump_block(grid, competitors),
                         (path.value(grid[0]), path.derivative(grid[0]))):
        assert got.tobytes() == want.tobytes()
    gaps = minimality_gap(L, fam, bump_block_path(prob, competitors), n=500)
    i1, i2 = path_independence_check(nl, bump_block_path(prob, pairs[:, :3]),
                                     bump_block_path(prob, pairs[:, 3:]))
    alone = np.array([minimality_gap(L, fam, bump_block_path(prob, c), n=500)
                      for c in competitors])
    assert gaps.tobytes() == alone.tobytes()
    alone = np.array([path_independence_check(
        nl, bump_block_path(prob, row[:3]), bump_block_path(prob, row[3:]))
        for row in pairs])
    assert np.stack([i1, i2], axis=1).tobytes() == alone.tobytes()
    for budget in (1, 3 << 15, 3 << 19, 1 << 20):
        monkeypatch.setattr(checks, "_SWEEP_BYTES", budget)
        assert checks.path_independence_residual(prob, 6, seed=41).hex() == \
            float(np.max(np.abs(i1 - i2))).hex()
        assert checks.minimality_minimum(prob, 6, seed=42,
                                         n_quad=500).hex() == \
            float(np.min(gaps)).hex()


def test_minimality_gap_evaluates_the_competitor_once_per_grid():
    # the region test and the action sum share one evaluation of the
    # competitor on the n + 1 nodes of the Simpson grid
    sizes = []

    class Counted(CallablePath):
        def value(self, t):
            sizes.append(np.size(t))
            return super().value(t)

    path = scalar_bump(OSC, np.random.default_rng(4))
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
    f = CallablePath(f=lambda t: 0.5 * np.sin(t) + 0.05,
                     fdot=lambda t: 0.5 * np.cos(t))
    with pytest.raises(EndpointError):
        minimality_gap(OSC.lagrangian, OSC.family, f)


def test_minimality_path_outside_region():
    a, b = OSC.lagrangian.domain
    f = CallablePath(
        f=lambda t: 0.5 * np.sin(t) + 2.9 * np.sin(math.pi * (t - a) / (b - a)),
        fdot=lambda t: 0.5 * np.cos(t)
        + 2.9 * math.pi / (b - a) * np.cos(math.pi * (t - a) / (b - a)))
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
# Jacobi's condition: past the first conjugate point there is no field


def test_oscillator_family_past_the_conjugate_point_is_rejected():
    with pytest.raises(FoliationError, match="monotonicity direction flips"):
        SolutionFamily(u=lambda s, t: s * np.sin(t), s_interval=(0.01, 3.0),
                       t_domain=(0.5, 4.0), s0=0.5,
                       du_dt=lambda s, t: s * np.cos(t))


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


def test_energy_and_impulsion_definitions():
    # the cosh leaves s + t / 2 have slope 1/2: impulsion sinh(1/2) and
    # energy (1/2) sinh(1/2) - cosh(1/2)
    t, u, w, v = PhaseLift(COSH.lagrangian, COSH.family).map(0.1, 0.3)
    assert (t, u) == (0.3, 0.1 + 0.5 * 0.3)
    assert v == math.sinh(0.5)
    assert w == pytest.approx(0.5 * math.sinh(0.5) - math.cosh(0.5), abs=1e-14)


# ---------------------------------------------------------------------------
# batches: results do not depend on how points are grouped

BATCH_FAMILIES = {
    "oscillator": OSC.family,
    # the oscillator's leaves s sin t, written so that u rounds below
    # u(lo, t) at some s one ulp inside the interval (t = 0.75)
    "rounding": SolutionFamily(
        u=lambda s, t: s * np.sin(t) + s * np.cos(t) - s * np.cos(t),
        s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
        du_dt=lambda s, t: s * np.cos(t)),
    # steep and flat in s, where false position takes unequal step counts
    "sinh": SolutionFamily(
        u=lambda s, t: np.sinh(5.0 * s) + t,
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: 1.0),
    "exp": SolutionFamily(
        u=lambda s, t: np.exp(3.0 * s) * (1.0 + t),
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: np.exp(3.0 * s)),
    "flat_cubic": SolutionFamily(
        u=lambda s, t: s ** 3 + 1e-6 * s + t,
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: 1.0),
    # falling in s
    "falling": SolutionFamily(
        u=lambda s, t: t - np.sinh(s),
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: 1.0),
}
LEAF_FAMILIES = {
    **BATCH_FAMILIES,
    # moderate: 16 u calls a batch, up to 52 without the Illinois halvings
    "cubic": SolutionFamily(
        u=lambda s, t: s ** 3 + s + t,
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: 1.0),
    # unguarded, the Illinois halvings alone would take up to 145 steps
    "sinh20": SolutionFamily(
        u=lambda s, t: np.sinh(20.0 * s) + t,
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: 1.0),
}


def _u_s(fam, s, t):
    """du/ds by centred differences, to a few digits."""
    return (fam.u(s + 1e-6, t) - fam.u(s - 1e-6, t)) / 2e-6


@pytest.mark.parametrize("name", sorted(LEAF_FAMILIES))
def test_leaf_is_located_within_the_bisection_bound(name):
    # the midpoint of a bracket at most _LEAF_TOL wide, where rounding (a
    # few ulps of u's terms) lets the sign of u(s, t) - q be told; near
    # s = 0 the flat cubic's leaves are told apart only to 1e-10 or so
    fam = LEAF_FAMILIES[name]
    lo, hi = fam.s_interval
    a, b = fam.t_domain
    rng = np.random.default_rng(9)
    s = np.concatenate([rng.uniform(lo, hi, 300),
                        rng.uniform(-0.01, 0.01, 100 * (lo < 0))])
    t = rng.uniform(a, b, s.size)
    q = fam.u(s, t)
    got = mayer._locate_leaf(fam, t, q)
    eps = np.finfo(float).eps
    bound = mayer._LEAF_TOL / 2 + 8 * eps * (1 + np.abs(q) + np.abs(t)) / \
        np.abs(_u_s(fam, s, t))
    assert np.all(np.abs(got - s) <= bound)


def _counted(fam):
    """fam with u counting its calls, the count reset after construction."""
    calls = [0]
    u = fam.u

    def counted(s, t):
        calls[0] += 1
        return u(s, t)

    fam = dataclasses.replace(fam, u=counted)
    calls[0] = 0
    return fam, calls


@pytest.mark.parametrize("name, most", [
    ("free", 5), ("oscillator", 5), ("cosh", 5),
    ("cubic", 20),
    ("sinh", None), ("exp", None), ("flat_cubic", None), ("sinh20", None)])
def test_leaf_location_evaluates_u_a_bounded_number_of_times(name, most):
    # two ends, then one call a step: on the affine built-ins the first
    # secant point is the root up to rounding and the next closes the
    # bracket (bisection took 44 to 46 calls); no family takes more than
    # bisection's count and six steps
    fam = (LEAF_FAMILIES[name] if name in LEAF_FAMILIES
           else get_problem(name).family)
    fam, calls = _counted(fam)
    lo, hi = fam.s_interval
    a, b = fam.t_domain
    rng = np.random.default_rng(10)
    s, t = rng.uniform(lo, hi, 500), rng.uniform(a, b, 500)
    q = fam.u(s, t)
    calls[0] = 0
    mayer._locate_leaf(fam, t, q)
    if most is None:
        most = 2 + math.ceil(math.log2((hi - lo) / mayer._LEAF_TOL)) + 6
    assert calls[0] <= most


def masked_locate_leaf(family, t, q):
    """mayer._locate_leaf as it was with masked writes (np.copyto and
    ufuncs with where=), the oracle of the select-based loop."""
    lo0, hi0 = family.s_interval
    qlo = np.broadcast_to(family.u(lo0, t), t.shape)
    qhi = np.broadcast_to(family.u(hi0, t), t.shape)
    slack = 4.0 * np.finfo(float).eps * np.maximum(np.abs(qlo), np.abs(qhi))
    inside = (((qlo - slack <= q) & (q <= qhi + slack))
              | ((qhi - slack <= q) & (q <= qlo + slack)))
    assert np.all(inside)
    sign = family._monotone_sign
    fa, fb = sign * (qlo - q), sign * (qhi - q)
    a = np.where(fb <= 0, float(hi0), float(lo0))
    b = np.where(fa >= 0, float(lo0), float(hi0))
    active = (fa < 0) & (fb > 0)
    last, moved = np.full(a.shape, np.nan), np.zeros(a.shape)
    steps = max(0, math.ceil(math.log2((hi0 - lo0) / mayer._LEAF_TOL))) + 6
    for k in range(1, steps + 1):
        if not active.any():
            break
        w = b - a
        with np.errstate(all="ignore"):
            x = a - fa * (w / (fb - fa))
        tiny = 2.0 * np.finfo(float).eps * np.maximum(np.abs(last), 1.0)
        np.copyto(x, last + moved * tiny, where=np.abs(x - last) <= tiny)
        r = mayer._LEAF_TOL * 2.0 ** (steps - k)
        np.clip(x, b - r, a + r, out=x)
        np.copyto(x, a + 0.5 * w, where=~((a < x) & (x < b)))
        gx = sign * (family.u(x, t) - q)
        left, right = active & (gx < 0), active & (gx > 0)
        np.multiply(fa, 0.5, out=fa, where=right & (moved < 0))
        np.multiply(fb, 0.5, out=fb, where=left & (moved > 0))
        for end, value, side in ((a, fa, left), (b, fb, right)):
            np.copyto(end, x, where=side)
            np.copyto(value, gx, where=side)
        root = active & ~(left | right)
        np.copyto(a, x, where=root)
        np.copyto(b, x, where=root)
        last, moved = x, left * 1.0 - right
        active &= b - a > mayer._LEAF_TOL
    return a + 0.5 * (b - a)


def masked_bisect(below, lo, width, halvings):
    """mayer._bisect as it was, writing lo in place through a mask."""
    half = width
    for _ in range(halvings):
        half = half * 0.5
        mid = lo + half
        np.copyto(lo, mid, where=below(mid))
    return lo + 0.5 * half


@pytest.mark.parametrize("name", sorted(LEAF_FAMILIES)
                         + ["free", "oscillator", "cosh"])
def test_leaf_location_selects_the_bits_of_the_masked_writes(name):
    # in a batch and one point at a time, with points on the end leaves
    fam = (LEAF_FAMILIES[name] if name in LEAF_FAMILIES
           else get_problem(name).family)
    lo, hi = fam.s_interval
    a, b = fam.t_domain
    rng = np.random.default_rng(11)
    s = np.r_[lo, hi, np.nextafter(lo, hi), rng.uniform(lo, hi, 97)]
    t = rng.uniform(a, b, s.size)
    q = fam.u(s, t)
    want = masked_locate_leaf(fam, t, q)
    assert mayer._locate_leaf(fam, t, q).tobytes() == want.tobytes()
    one = [mayer._locate_leaf(fam, t[i:i + 1], q[i:i + 1])
           for i in range(len(t))]
    assert np.concatenate(one).tobytes() == want.tobytes()


def test_bisection_selects_the_bits_of_the_masked_writes():
    # the Jacobi test's 0-d bracket, and legendre_inverse's brackets of the
    # cosh Lagrangian (sinh qdot = p) in a batch and one at a time
    def positive(t):
        return (0.5 + 1e-4) * np.sin(t) - (0.5 - 1e-4) * np.sin(t) > 0.0

    want = masked_bisect(positive, np.array(0.5), 3.5, 60)
    lo = np.array(0.5)
    assert mayer._bisect(positive, lo, 3.5, 60).tobytes() == want.tobytes()
    assert lo == 0.5  # not written
    p = np.random.default_rng(12).uniform(-20.0, 20.0, 64)
    w = 2.0 ** np.ceil(np.log2(np.arcsinh(np.abs(p)) + 1.0))
    want = masked_bisect(lambda x: np.sinh(x) <= p, -w, 2.0 * w, 68)
    got = mayer._bisect(lambda x: np.sinh(x) <= p, -w, 2.0 * w, 68)
    assert got.tobytes() == want.tobytes()
    one = [mayer._bisect(lambda x: np.sinh(x) <= p[i:i + 1], -w[i:i + 1],
                         2.0 * w[i:i + 1], 68) for i in range(len(p))]
    assert np.concatenate(one).tobytes() == want.tobytes()


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
    # u(s, t) one ulp inside the parameter interval rounds below u(lo, t),
    # so the point is accepted only by the few-ulp slack at the ends
    fam = BATCH_FAMILIES["rounding"]
    lo = fam.s_interval[0]
    t = np.array([1.0, 0.75])
    q = fam.u(np.array([1.0, np.nextafter(lo, 1.0)]), t)
    assert q[1] < fam.u(lo, t[1])
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
    t = t[t < 0.99]
    residual = el_residual(L, path, t)
    assert (residual.tobytes()
            == np.array([el_residual(L, path, x) for x in t]).tobytes())


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
    calls = spy_sweeps(monkeypatch)
    assert checks.dominance_minimum(OSC, 150, seed=17) == min(gaps)
    row = calls[0].row_bytes
    for samples in (1, 7):  # blocks of 1 and of 7
        monkeypatch.setattr(checks, "_SWEEP_BYTES", samples * row)
        assert checks.dominance_minimum(OSC, 150, seed=17) == min(gaps)
    assert [set(call.blocks) for call in calls] == [{150}, {1}, {7, 3}]


@pytest.mark.parametrize("name", ["free", "oscillator", "cosh"])
def test_pullback_sweep_is_independent_of_the_blocking(name, monkeypatch):
    # blocks of 1, of 7 and of all 50 points give the same bits
    prob = get_problem(name)
    calls = spy_sweeps(monkeypatch)
    want = checks.pullback_residual(prob, 50, seed=19)
    row = calls[0].row_bytes
    for points in (1, 7):
        monkeypatch.setattr(checks, "_SWEEP_BYTES", points * row)
        assert checks.pullback_residual(prob, 50, seed=19).hex() == \
            want.hex()
    assert [set(call.blocks) for call in calls] == [{50}, {1}, {7, 1}]
