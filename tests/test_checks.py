"""The kernel sweeps of isocal.checks against per-sample loops over the same
draws: the same bits, whatever the blocking, in bounded memory, with a
worst sample that replays from the seed."""

import concurrent.futures
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isocal import checks, cli, mayer, quadrature
from isocal.biform import _field, biform_apply, d1d2_fd
from isocal.biform import mixed_derivative_closed_form

from conftest import spy_sweeps

OSC = mayer.get_problem("oscillator")


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
    # a sample a row: x and y, 1.5 times normal draws, then in the plane
    # the tangents t and u; y moves by 1 where the points nearly coincide
    rows = np.random.default_rng(seed).normal(size=(n, 8 if dim == 2 else 6))
    x, y = rows[:, :dim] * 1.5, rows[:, dim:2 * dim] * 1.5
    y[np.linalg.norm(x - y, axis=1) < 1e-6] += 1.0
    # the kernel matrices, components first (dim, dim, n), as (n, dim, dim)
    m = np.moveaxis(_field((x - y).T[:, None], np.eye(dim)[:, :, None]), -1, 0)
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
    calls = spy_sweeps(monkeypatch)
    checks.circle_equality_residual(dim, 1)
    row = calls.pop().row_bytes
    for circles in (1, 3, 4):
        monkeypatch.setattr(checks, "_SWEEP_BYTES", circles * row)
        for seed in range(5):
            assert checks.circle_equality_residual(dim, 7, seed).hex() == \
                circle_equality_reference(dim, 7, seed).hex()
    assert {size for call in calls for size in call.blocks} == {1, 3, 4}


@pytest.mark.parametrize("space", ["r2", "r3"])
@pytest.mark.parametrize("n", [0, 1, 50])
def test_mixed_derivative_keeps_the_bits_of_the_loop(space, n):
    for seed in range(10):
        assert checks.mixed_derivative_residual(space, n, seed).hex() == \
            mixed_derivative_reference(space, n, seed).hex()


@pytest.mark.parametrize("space", ["r2", "r3"])
def test_mixed_derivative_is_independent_of_the_blocking(monkeypatch, space):
    # blocks of 1 pair, of 3 and of 7: 50 pairs end mid-block
    calls = spy_sweeps(monkeypatch)
    checks.mixed_derivative_residual(space, 1)
    row = calls.pop().row_bytes
    for pairs in (1, 3, 7):
        monkeypatch.setattr(checks, "_SWEEP_BYTES", pairs * row)
        for seed in range(3):
            assert checks.mixed_derivative_residual(space, 50, seed).hex() \
                == mixed_derivative_reference(space, 50, seed).hex()
    assert {size for call in calls for size in call.blocks} == {1, 2, 3, 7}


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


# the calibration command's checks: (name, sweep, its arguments at samples
# n and seed s), in report order; the circle sweeps clamp to 100 circles
# and the mixed-derivative sweeps to 50 pairs
CALIBRATION_R2 = [
    ("unit_norm", "mayer_vector_norm_residual", lambda n, s: (n, s)),
    ("orthogonality_r2", "orthogonality_residual", lambda n, s: (2, n, s)),
    ("circle_equality_r2", "circle_equality_residual",
     lambda n, s: (2, min(n, 100), s)),
    ("consistency", "consistency_residual", lambda n, s: (n, s)),
    ("mixed_r2", "mixed_derivative_residual",
     lambda n, s: ("r2", min(n, 50), s)),
]
CALIBRATION_R3 = CALIBRATION_R2 + [
    ("orthogonality_r3", "orthogonality_residual", lambda n, s: (3, n, s)),
    ("circle_equality_r3", "circle_equality_residual",
     lambda n, s: (3, min(n, 100), s)),
    ("mixed_r3", "mixed_derivative_residual",
     lambda n, s: ("r3", min(n, 50), s)),
]


def _point_pass(space, n, seed):
    """The _sweep call of the report's point pairs, n samples at seed."""
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_sweeps(mp)
        checks.run_calibration_checks(space, n, seed)
    (call,) = [call for call in calls if len(call.streams) == 1]
    return call


@pytest.mark.parametrize("space, table", [("r2", CALIBRATION_R2),
                                          ("r3", CALIBRATION_R3)])
def test_calibration_checks_in_report_order_with_their_clamps(space, table):
    # each value has the bits of its sweep called alone, at sample counts
    # on both sides of the point-pair pass's block edges: of the shared
    # pass's group of 3 planar and 4 three-space rows, and of a block
    per_block = _point_pass(space, 10_000, 0).blocks[0]
    assert per_block % (3 if space == "r3" else 1) == 0
    for seed in (0, 5, 7):
        for n in (1, 2, 3, 4, 5, 150, per_block - 1, per_block,
                  per_block + 1):
            got = checks.run_calibration_checks(space, n, seed)
            assert list(got) == [name for name, _, _ in table]
            for name, sweep, args in table:
                assert got[name].hex() == \
                    getattr(checks, sweep)(*args(n, seed)).hex(), (name, n)


@pytest.mark.parametrize("space, dims", [("r2", [2]), ("r3", [2, 3])])
def test_calibration_report_draws_the_plane_once(monkeypatch, space, dims):
    # one driver pass over the point pairs: unit_norm, orthogonality_r2 and
    # consistency score the planar samples, and for r3 orthogonality_r3
    # scores the three-space samples of the same draws, 8 a planar sample
    # from one stream, each geometry's 150 samples in the one block; the
    # circle and mixed-derivative sweeps draw from two streams each
    calls = spy_sweeps(monkeypatch)
    checks.run_calibration_checks(space, 150, 5)
    (points,) = [call for call in calls if len(call.streams) == 1]
    assert [len(block[0]) for block in points.first] == dims
    assert [block[0].shape[1] for block in points.first] == [150] * len(dims)
    assert len(points.scores) == 3 + (space == "r3")
    assert points.blocks == [150]
    want = np.random.default_rng(5)
    want.standard_normal(8 * 150)
    assert points.streams[0].bit_generator.state == want.bit_generator.state
    assert [len(call.streams) for call in calls] == \
        [1] + [2] * (2 * len(dims))


def test_sweeps_draw_the_bits_of_normal(monkeypatch):
    # the sweeps draw with standard_normal, which gives the bits of normal()
    # and leaves the generator in its state (but for a draw of exactly -0.0,
    # which normal() returns as 0.0 + 1.0 * -0.0 = +0.0): pinned at the
    # suite's seeds and at every calibration seed of the benchmark's
    # field_checks at its seeds 7 and 11, in the shapes a report draws, on
    # the point pairs' stream and on the spawned normal stream
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    seeds = list(range(20)) + [
        int(op.argv[op.argv.index("--seed") + 1]) for bench in (7, 11)
        for op in inputs.generate("field_checks", bench).round
        if op.kind == "calibration"]
    assert len(seeds) == 28
    calls = spy_sweeps(monkeypatch)
    checks.orthogonality_residual(3, 10_000, 0)
    shapes = ([(m, 8) for m in _point_pass("r3", 10_000, 0).blocks]
              + [(m, 6) for m in calls[0].blocks]
              + [(1, 8), (1, 6), (100, 3, 2), (100, 4, 3), (50, 2, 2),
                 (50, 2, 3)])
    for seed in seeds:
        for stream in (lambda: np.random.default_rng(seed),
                       lambda: np.random.default_rng(seed).spawn(2)[0]):
            a, b = stream(), stream()
            for shape in shapes:
                assert a.standard_normal(shape).tobytes() == \
                    b.normal(size=shape).tobytes()
                assert a.bit_generator.state == b.bit_generator.state


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


def test_mixed_derivative_rejects_an_unknown_space_without_samples():
    # validated up front: with n = 0 no sweep runs to fail on it
    with pytest.raises(ValueError, match="space must be 'r2' or 'r3'"):
        checks.mixed_derivative_residual("bogus", 0)


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
    # a block of circles holds some 60 floats a circle, about one budget
    # (the budget buys budget / 468 circles); 100,000 circles at once would
    # take some 50 MB
    budget = 1 << 17
    monkeypatch.setattr(checks, "_SWEEP_BYTES", budget)
    peak = _peak(lambda: checks.circle_equality_residual(3, 100_000),
                 lambda: checks.circle_equality_residual(3, 10))
    assert peak < budget + (1 << 16)


def test_mixed_derivative_memory_is_linear_in_budget(monkeypatch):
    # a block of pairs holds about one budget of stencil kernel entries and
    # their temporaries (the budget buys budget / 8400 pairs in R^3);
    # 20,000 pairs at once would take over 200 MB
    budget = 1 << 16
    monkeypatch.setattr(checks, "_SWEEP_BYTES", budget)
    peak = _peak(lambda: checks.mixed_derivative_residual("r3", 20_000),
                 lambda: checks.mixed_derivative_residual("r3", 10))
    assert peak < 2 * budget + (1 << 16)


@pytest.mark.parametrize("sweep, small, large", [
    (lambda n: checks.run_calibration_checks("r3", n, 0), 10_000, 1_000_000),
    (lambda n: checks.dominance_minimum(OSC, n), 10_000, 1_000_000),
    (lambda n: checks.pullback_residual(OSC, n), 10_000, 100_000),
], ids=["calibration_r3", "dominance", "pullback"])
def test_sweep_memory_is_flat_in_the_samples(sweep, small, large):
    # blocks of one budget (1 MiB): the peak does not grow with the samples,
    # where the samples all at once would take hundreds of MB
    peaks = [_peak(lambda: sweep(n), lambda: sweep(10)) for n in (small, large)]
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 2 * checks._SWEEP_BYTES


# ---------------------------------------------------------------------------
# the driver: replayable worst samples, a per-row distinctness rule, NaN


def _replayed(call, streams):
    """The worst value of the call's first score, replayed from fresh
    streams: the rows before its sample are drawn and dropped, then its own
    row is drawn alone."""
    index = call.result[0][1]
    call.draw(*streams, index)
    return float(call.scores[0](call.draw(*streams, 1))[0])


@pytest.mark.parametrize("sweep, seed, streams", [
    (lambda s: checks.circle_equality_residual(3, 100, s), 5,
     lambda s: np.random.default_rng(s).spawn(2)),
    (lambda s: checks.consistency_residual(2000, s), 6,
     lambda s: [np.random.default_rng(s)]),
    (lambda s: checks.minimality_minimum(OSC, 20, s, n_quad=500), 7,
     lambda s: [np.random.default_rng(s)]),
], ids=["circle_equality_r3", "consistency", "minimality"])
@pytest.mark.parametrize("per_block", [None, 7])
def test_worst_sample_replays_from_seed_and_index(monkeypatch, sweep, seed,
                                                  streams, per_block):
    calls = spy_sweeps(monkeypatch)
    if per_block:
        sweep(seed)
        monkeypatch.setattr(checks, "_SWEEP_BYTES",
                            per_block * calls.pop().row_bytes)
    got = sweep(seed)
    (call,) = calls
    worst, index = call.result[0]
    assert abs(got) == abs(worst)  # a minimum is the largest of -score
    assert 0 < index < call.n
    assert _replayed(call, streams(seed)).hex() == worst.hex()
    if per_block:
        assert len(call.blocks) > 2


def test_report_three_space_worst_sample_is_the_lone_sweeps():
    # the report's orthogonality_r3 reads the planar pass's draws, 4
    # three-space samples to 3 planar ones, over three blocks; its worst
    # sample has the lone sweep's index and replays from rows of 6 of
    # default_rng(seed), at seed 1 from the second block
    n, indices = 10_000, []
    for seed in (0, 1, 2):
        report = _point_pass("r3", n, seed)
        per_block = report.blocks[0] * 4 // 3
        assert 2 * per_block < n
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_sweeps(mp)
            checks.orthogonality_residual(3, n, seed)
        (lone,) = calls
        worst, index = report.result[3]
        assert (worst.hex(), index) == (lone.result[0][0].hex(),
                                        lone.result[0][1])
        rng = np.random.default_rng(seed)
        rng.standard_normal((index, 6))
        block = checks._points(rng.standard_normal((1, 6)), 3)
        assert checks._orthogonality(block)[0].hex() == worst.hex()
        indices.append(index)
    assert 0 <= min(indices) and per_block <= max(indices) < n


def test_driver_reduces_each_score_to_its_first_worst_sample():
    def draw(rng, m):
        start = draw.rows
        draw.rows += m
        return np.arange(start, start + m)

    # a NaN is the worst, and of equal values the first counts
    values = np.array([1.0, 3.0, 2.0, 3.0, np.nan, 5.0, np.nan])
    finite = np.nan_to_num(values, nan=0.5)
    for budget in (1, 2, 3, 8):
        draw.rows = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_SWEEP_BYTES", budget)
            got = checks._sweep([None], 7, 1, draw, [
                lambda i: values[i], lambda i: finite[i],
                lambda i: -finite[i], lambda i: np.minimum(finite[i], 3.0)])
        assert draw.rows == 7
        assert np.isnan(got[0][0]) and got[0][1] == 4
        assert got[1:] == [(5.0, 5), (-0.5, 4), (3.0, 1)]
    assert checks._sweep([None], 0, 1, draw, [np.negative]) == \
        [(-np.inf, -1)]


class Rows:
    """A stream of normal draws that repeats a crafted row."""

    def __init__(self, row):
        self.row = np.asarray(row, float)

    def standard_normal(self, size):
        assert size[1:] == self.row.shape
        return np.tile(self.row, (size[0], 1))


def first_block(rows, m, dim):
    """The block of the first m samples that a pass of dim over the stream
    rows scores."""
    blocks = []

    def score(block):
        blocks.append(block)
        return np.zeros(block[0].shape[1])

    checks._pair_sweep(rows, m, [(dim, True, [score])])
    return blocks[0]


@pytest.mark.parametrize("dim", [2, 3])
def test_point_pairs_move_a_coinciding_point_by_its_own_row(dim):
    # x = y, x 1e-7 from y, and x 1e-5 from y: only the first two move y
    x = np.array([0.3, -0.2, 0.7][:dim])
    tangents = [1.0, 0.0, 0.6, 0.8] if dim == 2 else []
    for gap, moved in ((0.0, True), (1e-7, True), (1e-5, False)):
        y = x + gap / 1.5
        z = first_block(Rows(np.r_[x, y, tangents]), 1, dim)[0]
        want = 1.5 * x - (1.5 * y + 1.0 if moved else 1.5 * y)
        assert z.tobytes() == want[None].tobytes()


def test_planar_sample_of_coinciding_points_scores_as_alone():
    # the field and the scores are finite, and the sample reads the same
    # alone as in a block of three
    rows = Rows([0.3, -0.2, 0.3, -0.2, 1.0, 0.0, 0.6, 0.8])
    for score in (checks._unit_norm, checks._orthogonality,
                  checks._consistency):
        values = score(first_block(rows, 3, 2))
        assert np.all(np.isfinite(values)) and np.all(values < 1e-12)
        assert values.tobytes() == \
            np.tile(score(first_block(rows, 1, 2)), 3).tobytes()


@pytest.mark.parametrize("dim", [0, 1, 4])
@pytest.mark.parametrize("sweep", [checks.circle_equality_residual,
                                   checks.orthogonality_residual])
def test_kernel_sweeps_reject_an_invalid_dimension(sweep, dim):
    with pytest.raises(ValueError, match="dim must be 2 or 3"):
        sweep(dim, 5)
