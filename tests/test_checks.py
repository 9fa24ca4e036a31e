"""The blocked kernel sweeps of isocal.checks against per-sample loops over
the same draws: the same bits, whatever the blocking, in bounded memory."""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest

from isocal import checks, cli, curves, quadrature
from isocal.biform import _field, biform_apply, d1d2_fd
from isocal.biform import mixed_derivative_closed_form


# ---------------------------------------------------------------------------
# the per-sample loops: the same rows of the same two streams, drawn one
# sample at a time and evaluated one sample at a time


def circle_equality_reference(dim, n_circles=100, seed=0):
    normal, uniform = np.random.default_rng(seed).spawn(2)
    worst = 0.0
    for _ in range(n_circles):
        g = normal.normal(size=(dim + 1, dim))
        radius, a1, a2 = uniform.uniform((0.1, 0.0, 0.0),
                                         (3.0, 2 * np.pi, 2 * np.pi))
        if abs(np.sin((a1 - a2) / 2)) < 1e-3:
            a2 += 0.5
        q, _ = np.linalg.qr(g[:dim])
        e1, e2 = q[:, 0], q[:, 1]
        center = g[dim] * 2
        x = center + radius * (np.cos(a1) * e1 + np.sin(a1) * e2)
        y = center + radius * (np.cos(a2) * e1 + np.sin(a2) * e2)
        tx = -np.sin(a1) * e1 + np.cos(a1) * e2
        ty = -np.sin(a2) * e1 + np.cos(a2) * e2
        worst = max(worst, abs(biform_apply(x, y, tx, ty) - 1.0))
    return worst


def mixed_derivative_reference(space, n=50, seed=0, h=1e-3):
    normal, uniform = np.random.default_rng(seed).spawn(2)
    worst = 0.0
    dim = 2 if space == "r2" else 3
    for _ in range(n):
        u, y = normal.normal(size=(2, dim))
        r = uniform.uniform(1.0, 2.0)
        u = (u[None] / np.linalg.norm(u[None], axis=1, keepdims=True))[0]
        x = y + r * u
        got = d1d2_fd(space, x, y, h)
        want = mixed_derivative_closed_form(space, x, y)
        worst = max(worst,
                    float(np.abs(np.asarray(got) - np.asarray(want)).max()))
    return worst


def orthogonality_reference(dim, n=10000, seed=0):
    rng = np.random.default_rng(seed)
    x, y = checks._random_points(rng, n, dim)
    m = _field((x - y)[:, None, :], np.eye(dim))
    mm = np.einsum("nij,njk->nik", m, m) - np.eye(dim)[None, :, :]
    return float(np.abs(mm).max())


# ---------------------------------------------------------------------------
# bit identity


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7, 100])
def test_circle_equality_keeps_the_bits_of_the_loop(dim, n):
    for seed in range(20):
        assert checks.circle_equality_residual(dim, n, seed).hex() == \
            circle_equality_reference(dim, n, seed).hex()


@pytest.mark.parametrize("dim", [2, 3])
def test_circle_equality_is_independent_of_the_blocking(monkeypatch, dim):
    # blocks of 1, 3 and 4 circles: 7 circles end mid-block or on its edge
    for budget in (8, 8 * dim * dim * 3, 8 * dim * dim * 4):
        monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
        for seed in range(5):
            assert checks.circle_equality_residual(dim, 7, seed).hex() == \
                circle_equality_reference(dim, 7, seed).hex()


@pytest.mark.parametrize("space", ["r2", "r3"])
@pytest.mark.parametrize("n", [0, 1, 50])
def test_mixed_derivative_keeps_the_bits_of_the_loop(space, n):
    for seed in range(10):
        assert checks.mixed_derivative_residual(space, n, seed).hex() == \
            mixed_derivative_reference(space, n, seed).hex()


@pytest.mark.parametrize("space", ["r2", "r3"])
def test_mixed_derivative_is_independent_of_the_blocking(monkeypatch, space):
    dim = 2 if space == "r2" else 3
    # blocks of 1 pair and of 7: 50 pairs end mid-block
    for budget in (8, 7 * 8 * 4 * dim ** 4):
        monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
        for seed in range(3):
            assert checks.mixed_derivative_residual(space, 50, seed).hex() \
                == mixed_derivative_reference(space, 50, seed).hex()


@pytest.mark.parametrize("dim", [2, 3])
def test_orthogonality_keeps_the_bits_of_einsum(dim):
    # the sweep sums the upper triangle of m m only
    for n in (1, 7, 2000):
        for seed in range(20):
            assert checks.orthogonality_residual(dim, n, seed).hex() == \
                orthogonality_reference(dim, n, seed).hex()


def test_planar_sweeps_of_no_samples_read_zero():
    # like the blocked sweeps, a maximum over no samples is 0.0
    assert checks.mayer_vector_norm_residual(0) == 0.0
    assert checks.orthogonality_residual(2, 0) == 0.0
    assert checks.orthogonality_residual(3, 0) == 0.0
    assert checks.consistency_residual(0) == 0.0


def test_sweeps_call_d1d2_fd_once_per_block(monkeypatch):
    # the CLI's 50 pairs go in one call, for r2 and r3 alike
    calls = []

    def counted(space, x, y, h):
        calls.append(np.shape(x))
        return d1d2_fd(space, x, y, h)

    monkeypatch.setattr(checks, "d1d2_fd", counted)
    checks.mixed_derivative_residual("r2", 50)
    checks.mixed_derivative_residual("r3", 50)
    assert calls == [(50, 2), (50, 3)]


# the calibration command's checks: (name, sweep, its arguments at
# samples=150, seed=5), in report order; the circle sweeps clamp to 100
# circles and the mixed-derivative sweeps to 50 pairs
CALIBRATION_R2 = [
    ("unit_norm", "mayer_vector_norm_residual", (150, 5)),
    ("orthogonality_r2", "orthogonality_residual", (2, 150, 5)),
    ("circle_equality_r2", "circle_equality_residual", (2, 100, 5)),
    ("consistency", "consistency_residual", (150, 5)),
    ("mixed_r2", "mixed_derivative_residual", ("r2", 50, 5)),
]
CALIBRATION_R3 = CALIBRATION_R2 + [
    ("orthogonality_r3", "orthogonality_residual", (3, 150, 5)),
    ("circle_equality_r3", "circle_equality_residual", (3, 100, 5)),
    ("mixed_r3", "mixed_derivative_residual", ("r3", 50, 5)),
]


@pytest.mark.parametrize("space, table", [("r2", CALIBRATION_R2),
                                          ("r3", CALIBRATION_R3)])
def test_calibration_checks_in_report_order_with_their_clamps(monkeypatch,
                                                              space, table):
    # each sweep is called through the module, as a wrapper set there sees it
    calls = []
    for sweep in {sweep for _, sweep, _ in table}:
        def recorded(*args, _sweep=sweep, _fn=getattr(checks, sweep)):
            calls.append((_sweep, args))
            return _fn(*args)
        monkeypatch.setattr(checks, sweep, recorded)
    got = checks.run_calibration_checks(space, 150, 5)
    monkeypatch.undo()
    assert list(got) == [name for name, _, _ in table]
    assert calls == [(sweep, args) for _, sweep, args in table]
    for name, sweep, args in table:
        assert got[name].hex() == getattr(checks, sweep)(*args).hex()


@pytest.mark.parametrize("space, dims", [("r2", [2]), ("r3", [2, 3])])
def test_calibration_report_draws_the_plane_once(monkeypatch, space, dims):
    # unit_norm, orthogonality_r2 and consistency read one planar draw;
    # orthogonality_r3 draws its own three-space points
    calls = []

    def counted(rng, n, dim):
        calls.append(dim)
        return random_points(rng, n, dim)

    random_points = checks._random_points
    monkeypatch.setattr(checks, "_random_points", counted)
    checks.run_calibration_checks(space, 150, 5)
    assert calls == dims


def test_planar_draw_is_read_only():
    for a in checks._planar_draw(10, 0):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_no_draw_survives_a_report(monkeypatch):
    # a sweep after the report draws and evaluates afresh: with the kernel
    # perturbed where it is looked up, it moves past its tolerance
    tol = cli.DEFAULT_TOLERANCES
    checks.run_calibration_checks("r2", 1000, 0)
    kernel = quadrature._kernel
    monkeypatch.setattr(quadrature, "_kernel", lambda *a: kernel(*a) + 0.01)
    assert checks.mayer_vector_norm_residual(1000) > tol["unit_norm"]
    assert checks.orthogonality_residual(2, 1000) > tol["orthogonality"]
    assert checks.consistency_residual(1000) > tol["consistency"]


def test_calibration_reports_in_threads_match_serial_ones():
    # each thread's report shares its draw with itself only
    seeds = range(6)
    serial = [checks.run_calibration_checks("r3", 3000, s) for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(
            lambda s: checks.run_calibration_checks("r3", 3000, s), seeds))
    for got, want in zip(threaded, serial):
        assert {k: v.hex() for k, v in got.items()} == \
            {k: v.hex() for k, v in want.items()}


def test_calibration_checks_reject_an_unknown_space():
    with pytest.raises(ValueError, match="space"):
        checks.run_calibration_checks("r4", 10, 0)


# ---------------------------------------------------------------------------
# memory


def _peak(fn, warm):
    warm()  # first calls allocate module-level state (numpy.linalg, caches)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circle_equality_memory_is_linear_in_budget(monkeypatch):
    # a block of circles holds some 90 floats a circle, about 10 budgets
    # (the budget buys budget / 72 circles); 100,000 circles at once would
    # take some 50 MB
    budget = 1 << 14
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    peak = _peak(lambda: checks.circle_equality_residual(3, 100_000),
                 lambda: checks.circle_equality_residual(3, 10))
    assert peak < 12 * budget + (1 << 16)


def test_mixed_derivative_memory_is_linear_in_budget(monkeypatch):
    # a block of pairs holds about 5 budgets of stencil kernel entries
    # (the budget buys budget / 2592 pairs in R^3); 20,000 pairs at once
    # would take over 200 MB
    budget = 1 << 15
    monkeypatch.setattr(curves, "_BLOCK_BYTES", budget)
    peak = _peak(lambda: checks.mixed_derivative_residual("r3", 20_000),
                 lambda: checks.mixed_derivative_residual("r3", 10))
    assert peak < 8 * budget + (1 << 16)
