import math

import numpy as np
import pytest

from conftest import random_rotation2, star_polygon
from isocal import (
    CoincidentPointsError,
    PointOnBoundaryError,
    averaged_field,
    biform2,
    biform3,
    biform_apply,
    curl_density,
    d1d2_fd,
    mayer_vector,
    mixed_derivative_closed_form,
    regular_polygon,
)
from isocal.biform import BiformValue
from isocal import checks, cli, quadrature


def _rot90(v):
    return np.array([-v[1], v[0]])


# ---------------------------------------------------------------------------
# the circle-field vector


def test_mayer_vector_along_tangent_direction():
    # x - y parallel to t_y: formula collapses to 2 t_y - t_y
    v = mayer_vector((0.0, 0.0), (1.0, 0.0), (2.5, 0.0))
    assert (v.u1, v.u2) == (1.0, 0.0)


def test_mayer_vector_orthogonal_direction():
    v = mayer_vector((0.0, 0.0), (1.0, 0.0), (0.0, 3.0))
    assert (v.u1, v.u2) == (-1.0, 0.0)


def test_mayer_vector_diagonal_case():
    # 2 <., t> = 2, |x-y|^2 = 2: V = (1,1) - (1,0)
    v = mayer_vector((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    assert abs(v.u1) < 1e-15 and abs(v.u2 - 1.0) < 1e-15


def test_mayer_vector_is_circle_tangent():
    # V(y, t_y, x) is the oriented unit tangent at x of the circle through
    # x and y that is tangent to t_y at y
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = rng.normal(size=2) * 2
        a = rng.uniform(0, 2 * np.pi)
        ty = np.array([math.cos(a), math.sin(a)])
        x = rng.normal(size=2) * 2
        n = _rot90(ty)
        denom = 2.0 * (n @ (x - y))
        if abs(denom) < 1e-3:
            continue
        s = float((x - y) @ (x - y)) / denom
        center = y + s * n
        radius = abs(s)
        t_exp = math.copysign(1.0, s) * _rot90(x - center) / radius
        v = mayer_vector(y, ty, x)
        assert np.allclose([v.u1, v.u2], t_exp, atol=1e-10)


def test_mayer_vector_unit_norm_sweep():
    assert checks.mayer_vector_norm_residual(10_000, seed=1) <= 1e-12


def test_mayer_vector_coincident_points():
    with pytest.raises(CoincidentPointsError):
        mayer_vector((1.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def test_coincidence_is_relative_to_point_scale():
    # distinct points at scale 1e-13 are distinct; equal points never are
    v = mayer_vector((0.0, 0.0), (1.0, 0.0), (1e-13, 0.0))
    assert (v.u1, v.u2) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert biform2((1e-13, 0.0), (0.0, 0.0)).m[0, 0] == pytest.approx(1.0)
    assert biform3((0.0, 0.0, 1e-13), (0.0, 0.0, 0.0)).m[2, 2] == \
        pytest.approx(1.0)
    for p in ((0.0, 0.0), (1e-13, 0.0), (1e8, 3.0)):
        with pytest.raises(CoincidentPointsError):
            biform2(p, p)
        with pytest.raises(CoincidentPointsError):
            mayer_vector(p, (1.0, 0.0), p)


# powers of two scale exactly; the decimal scales round the inputs
_SCALES = [pytest.param(2.0 ** k, id=f"2^{k}")
           for k in (-1000, -600, -60, 60, 600, 1000)] \
    + [pytest.param(s, id=f"{s:g}") for s in (1e155, 1e-155, 1e-170)]


@pytest.mark.parametrize("s", _SCALES)
def test_kernel_is_scale_free(s):
    x, y = np.array([0.3, -1.1]), np.array([-0.7, 0.4])
    x3, y3 = np.array([0.3, -1.1, 0.8]), np.array([-0.7, 0.4, -0.2])
    t, u = np.array([0.6, 0.8]), np.array([0.28, -0.96])

    def values(s):
        v = mayer_vector(s * y, t, s * x)
        return [np.array([v.u1, v.u2]),
                biform_apply(s * x, s * y, u, t),
                biform_apply(s * x3, s * y3, np.r_[u, 0.0], np.r_[0.0, t]),
                biform2(s * x, s * y).m,
                biform3(s * x3, s * y3).m]

    for got, want in zip(values(s), values(1.0)):
        if math.frexp(s)[0] == 0.5:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_sweeps_and_reports_share_one_kernel(monkeypatch):
    # the randomised sweeps and the pair sum (here the planar midpoint rule;
    # the planar report's exact corner sum has no kernel to call) evaluate
    # one kernel function: perturbing it where it is looked up moves all of
    # them past their report tolerances
    tol = cli.DEFAULT_TOLERANCES
    curve = regular_polygon(64)

    def sweeps():
        return [("unit_norm", checks.mayer_vector_norm_residual(1000)),
                ("orthogonality", checks.orthogonality_residual(2, 1000)),
                ("orthogonality", checks.orthogonality_residual(3, 1000)),
                ("circle_equality", checks.circle_equality_residual(2, 20)),
                ("circle_equality", checks.circle_equality_residual(3, 20)),
                ("consistency", checks.consistency_residual(1000))]

    before = sweeps()
    integral = quadrature.midpoint_double_integral(curve, 2)
    kernel = quadrature._kernel
    monkeypatch.setattr(quadrature, "_kernel", lambda *a: kernel(*a) + 0.01)
    for (name, old), (_, new) in zip(before, sweeps()):
        assert old <= tol[name] < new, name
    moved = quadrature.midpoint_double_integral(curve, 2)
    assert abs(moved / integral - 1.0) > tol["double_integral_rel"]


# ---------------------------------------------------------------------------
# kernel matrices


def test_biform2_axis_pair():
    m = biform2((1.0, 0.0), (0.0, 0.0)).m
    assert np.array_equal(m, [[1.0, 0.0], [0.0, -1.0]])


def test_biform2_diagonal_pair():
    m = biform2((1.0, 1.0), (0.0, 0.0)).m
    assert np.allclose(m, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_biform2_eigenvalues_are_unit():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        if np.hypot(*(x - y)) < 1e-3:
            continue
        ev = np.linalg.eigvalsh(biform2(x, y).m)
        assert np.allclose(ev, [-1.0, 1.0], atol=1e-12)


def test_biform_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        BiformValue(np.array([[1.0, 0.1], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        BiformValue(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_biform2_involution():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        if np.hypot(*(x - y)) < 1e-3:
            continue
        m = biform2(x, y).m
        assert np.abs(m @ m - np.eye(2)).max() <= 1e-12


def test_biform2_rotation_equivariance_translation_scale():
    rng = np.random.default_rng(4)
    for _ in range(25):
        x, y = rng.normal(size=2), rng.normal(size=2) + 2.0
        r = random_rotation2(rng)
        m = biform2(x, y).m
        assert np.abs(biform2(r @ x, r @ y).m - r @ m @ r.T).max() <= 1e-12
        shift = rng.normal(size=2) * 5
        assert np.abs(biform2(x + shift, y + shift).m - m).max() <= 1e-12
        # powers of two scale exactly
        assert np.array_equal(biform2(2.0 * x, 2.0 * y).m, m)


def test_biform_apply_parallel_and_orthogonal():
    x, y = np.array([2.0, 1.0]), np.array([0.0, 1.0])
    u = (x - y) / np.hypot(*(x - y))
    assert biform_apply(x, y, u, u) == pytest.approx(1.0, abs=1e-15)
    assert biform_apply(x, y, _rot90(u), _rot90(u)) == pytest.approx(-1.0, abs=1e-15)


def test_circle_tangent_equality_r2():
    assert checks.circle_equality_residual(2, 100, seed=5) <= 1e-12


def test_consistency_with_mayer_vector():
    assert checks.consistency_residual(10_000, seed=6) <= 1e-12


def test_biform3_axis_value():
    m = biform3((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)).m
    assert np.array_equal(m, np.diag([1.0, -1.0, -1.0]))


def test_biform3_trace_and_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = rng.normal(size=3), rng.normal(size=3)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        m = biform3(x, y).m
        assert abs(np.trace(m) + 1.0) <= 1e-12
        assert np.abs(m @ m - np.eye(3)).max() <= 1e-12


def test_circle_tangent_equality_r3():
    assert checks.circle_equality_residual(3, 100, seed=8) <= 1e-12


def test_orthogonality_sweeps():
    assert checks.orthogonality_residual(2, 10_000, seed=9) <= 1e-12
    assert checks.orthogonality_residual(3, 10_000, seed=9) <= 1e-12


# ---------------------------------------------------------------------------
# curl density


def test_curl_density_parallel_vanishes():
    assert curl_density((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)) == 0.0


def test_curl_density_frozen_example():
    # det((-1,0),(0,1)) = -1, |x-y|^2 = 1
    assert curl_density((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)) == -2.0


def test_curl_density_bound():
    rng = np.random.default_rng(11)
    for _ in range(200):
        y, x = rng.normal(size=2) * 2, rng.normal(size=2) * 2
        r = np.hypot(*(x - y))
        if r < 1e-3:
            continue
        a = rng.uniform(0, 2 * np.pi)
        t = np.array([math.cos(a), math.sin(a)])
        assert abs(curl_density(y, t, x)) <= 2.0 / r + 1e-12


@pytest.mark.parametrize("s", [1e-170, 1e155, 2.0**-600, 2.0**600])
def test_curl_density_scale_free(s):
    # -2 / s: exact where s is a power of two
    got = curl_density((0.0, 0.0), (0.0, 1.0), (s, 0.0))
    if math.frexp(s)[0] == 0.5:
        assert got == -2.0 / s
    else:
        assert got == pytest.approx(-2.0 / s, rel=1e-15, abs=0)


def test_curl_density_unchanged_at_ordinary_separations():
    rng = np.random.default_rng(13)
    for _ in range(500):
        y, x = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-3, 4, (2, 1))
        a = rng.uniform(0, 2 * np.pi)
        t = np.array([math.cos(a), math.sin(a)])
        d, z = y - x, x - y
        assert curl_density(y, t, x) == 2.0 * (d[0] * t[1] - d[1] * t[0]) / (z @ z)


def test_curl_density_matches_field_curl():
    # finite-difference curl of the vector field cross-checks the closed form
    rng = np.random.default_rng(12)
    h = 1e-5
    for _ in range(50):
        y = rng.normal(size=2)
        a = rng.uniform(0, 2 * np.pi)
        t = np.array([math.cos(a), math.sin(a)])
        x = y + rng.normal(size=2)
        if np.hypot(*(x - y)) < 0.3:
            continue

        def v(p):
            w = mayer_vector(y, t, p)
            return np.array([w.u1, w.u2])

        curl_fd = (
            (v(x + [h, 0.0])[1] - v(x - [h, 0.0])[1])
            - (v(x + [0.0, h])[0] - v(x - [0.0, h])[0])
        ) / (2 * h)
        assert curl_fd == pytest.approx(curl_density(y, t, x), abs=1e-7)


# ---------------------------------------------------------------------------
# averaged field


def test_averaged_field_circle_center_vanishes():
    c = regular_polygon(1024)
    v = averaged_field(c, (0.0, 0.0))
    assert np.hypot(*v) < 1e-10


def test_averaged_field_norm_bound():
    rng = np.random.default_rng(13)
    for _ in range(25):
        c = star_polygon(rng)
        for _ in range(8):
            p = rng.uniform(-2, 2, 2)
            from isocal.curves import distance_to_boundary
            if distance_to_boundary(c, p) < 1e-3:
                continue
            assert np.hypot(*averaged_field(c, p, refinement=2)) <= 1.0 + 1e-8


def test_averaged_field_near_boundary_inside_circle():
    c = regular_polygon(1024)
    for ang in np.linspace(0, 2 * np.pi, 7):
        p = 0.99 * np.array([math.cos(ang), math.sin(ang)])
        assert np.hypot(*averaged_field(c, p)) <= 1.0


def test_averaged_field_on_boundary_raises():
    c = regular_polygon(64)
    with pytest.raises(PointOnBoundaryError):
        averaged_field(c, c.vertices[0])


# ---------------------------------------------------------------------------
# mixed exterior derivative


def test_d1d2_r2_vanishes_off_diagonal():
    t = d1d2_fd("r2", (1.0, 0.0), (0.0, 0.0), 1e-3)
    assert isinstance(t.value, float)
    assert abs(t.value) <= 1e-5


def test_d1d2_r3_frozen_component():
    # z = (1,0,0): closed form 4 z z^T/|z|^4 has (23|23) entry 4
    t = d1d2_fd("r3", (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1e-3)
    assert t.value.shape == (3, 3)
    assert t.value[0, 0] == pytest.approx(4.0, abs=1e-4)


def test_d1d2_r3_matches_closed_form_random():
    assert checks.mixed_derivative_residual("r3", 50, seed=14, h=1e-3) <= 1e-4


def test_d1d2_r3_second_order():
    rng = np.random.default_rng(15)
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    x *= 1.5
    y = np.zeros(3)
    want = mixed_derivative_closed_form("r3", x, y)
    errs = [np.abs(d1d2_fd("r3", x, y, h).value - want).max()
            for h in (4e-3, 2e-3, 1e-3)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)


def test_d1d2_r2_second_order():
    errs = [abs(d1d2_fd("r2", (1.3, 0.4), (0.1, -0.2), h).value)
            for h in (4e-3, 2e-3, 1e-3)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)


def test_d1d2_step_guards():
    with pytest.raises(ValueError):
        d1d2_fd("r2", (1.0, 0.0), (0.0, 0.0), 0.2)
    with pytest.raises(CoincidentPointsError):
        d1d2_fd("r2", (1.0, 0.0), (1.0, 0.0), 1e-4)
    with pytest.raises(ValueError):
        d1d2_fd("r7", (1.0, 0.0), (0.0, 0.0), 1e-4)


def test_closed_form_r2_is_zero():
    assert mixed_derivative_closed_form("r2", (1.0, 0.3), (0.0, 0.0)) == 0.0


@pytest.mark.parametrize("space", ["r2", "r3"])
def test_d1d2_and_closed_form_batched_keep_the_bits_of_each_pair(space):
    dim = 2 if space == "r2" else 3
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 5, dim))
    y = x + rng.uniform(1.0, 2.0, size=(4, 5, 1)) * rng.normal(size=(4, 5, dim))
    got = d1d2_fd(space, x, y, 1e-3).value
    want = mixed_derivative_closed_form(space, x, y)
    assert np.shape(got) == np.shape(want) == (4, 5) + ((3, 3) if dim == 3
                                                        else ())
    for i in range(4):
        for j in range(5):
            one = d1d2_fd(space, x[i, j], y[i, j], 1e-3).value
            exact = mixed_derivative_closed_form(space, x[i, j], y[i, j])
            assert type(one) is (float if dim == 2 else np.ndarray)
            assert np.asarray(one).tobytes() == got[i, j].tobytes()
            assert np.asarray(exact).tobytes() == want[i, j].tobytes()


def test_d1d2_batched_guards_name_the_offending_pair():
    x = np.array([[1.0, 0.0], [2.0, 2.0], [3.0, 0.0]])
    y = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(CoincidentPointsError, match=r"\[2.0, 2.0\]"):
        d1d2_fd("r2", x, y, 1e-4)
    with pytest.raises(CoincidentPointsError, match=r"\[2.0, 2.0\]"):
        mixed_derivative_closed_form("r2", x, y)
    y[1] = (2.0, 1.95)
    with pytest.raises(ValueError, match="too large for separation"):
        d1d2_fd("r2", x, y, 1e-2)
    with pytest.raises(ValueError, match="dimension 3"):
        d1d2_fd("r3", x, y, 1e-4)
