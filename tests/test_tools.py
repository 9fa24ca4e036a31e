import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import spy_sweeps

spec = importlib.util.spec_from_file_location(
    "report_bits",
    Path(__file__).resolve().parents[1] / "tools" / "report_bits.py")
report_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_bits)

REPORT = {"rc": 0, "rep": {"checks": [{"name": "x_max", "passed": True,
                                       "value": 2.0e-13}],
                           "results": {"x_max": 2.0e-13}}}


def _write(tmp_path, name, report):
    d = tmp_path / name
    d.mkdir()
    (d / "seed1-mayer-free.json").write_text(json.dumps(report), "utf-8")
    return d


def _changed(**edits):
    report = json.loads(json.dumps(REPORT))
    for path, value in edits.items():
        *keys, last = path.split(".")
        node = report
        for key in keys:
            node = node[int(key)] if key.isdigit() else node[key]
        node[last] = value
    return report


def test_compare_prints_numeric_changes_and_passes(tmp_path, capsys):
    a = _write(tmp_path, "a", REPORT)
    b = _write(tmp_path, "b", _changed(**{"rep.checks.0.value": 2.2e-13,
                                          "rep.results.x_max": 2.2e-13}))
    assert report_bits.compare(a, b) == 0
    out = capsys.readouterr().out
    assert "rep.checks[0].value: 2e-13 -> 2.2e-13 (relative +1.000e-01)" in out
    assert "rep.results.x_max" in out
    assert report_bits.compare(a, a) == 0


def test_compare_fails_on_exit_code_verdict_or_key_set(tmp_path):
    a = _write(tmp_path, "a", REPORT)
    for i, report in enumerate([_changed(rc=1),
                                _changed(**{"rep.checks.0.passed": False}),
                                _changed(**{"rep.extra": 1.0})]):
        b = _write(tmp_path, f"b{i}", report)
        assert report_bits.compare(a, b) == 1
    assert report_bits.compare(a, tmp_path / "b0" / "missing") == 1


def test_writer_repeats_the_mayer_reports_byte_for_byte(tmp_path,
                                                         monkeypatch):
    # the writer end to end, cut to the three mayer reports at one seed:
    # two runs of one tree give byte-identical files, and compare finds no
    # difference between them
    monkeypatch.setattr(report_bits, "SEEDS", (7,))
    monkeypatch.setattr(report_bits, "VERIFY_WORKLOADS", ())
    monkeypatch.setattr(report_bits, "CALIBRATION_SPACES", ())
    monkeypatch.setattr(report_bits, "CALIBRATION_R3_SAMPLES", ())
    monkeypatch.setattr(report_bits, "FIELD_WORKLOADS", ())
    monkeypatch.setattr(report_bits, "D1D2_SPACES", ())
    monkeypatch.setattr(report_bits, "PLOTDATA_KINDS", ())
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    src = Path(__file__).resolve().parents[1] / "src"
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert report_bits.main([str(src), str(out)]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == [f"seed7-mayer-{name}{part}.json"
                     for name in ("cosh", "free", "oscillator")
                     for part in ("-paths", "")]
    assert sorted(p.name for p in runs[1].iterdir()) == names
    for name in names:
        text = (runs[0] / name).read_bytes()
        assert text == (runs[1] / name).read_bytes()
        report = json.loads(text)
        if name.endswith("-paths.json"):
            assert len(report["minimality_gap"]) == report_bits.MAYER_PATHS
        else:
            assert report["rc"] == 0 and report["rep"]["checks"]
    assert report_bits.compare(*runs) == 0


def test_writer_runs_r3_calibration_at_the_block_edge(tmp_path,
                                                     monkeypatch):
    # calibration --space r3 at --samples on both sides of the first block
    # edge of its point pairs, each report's results those of the library
    for name in ("VERIFY_WORKLOADS", "CALIBRATION_SPACES", "MAYER_PROBLEMS",
                 "FIELD_WORKLOADS", "D1D2_SPACES", "PLOTDATA_KINDS"):
        monkeypatch.setattr(report_bits, name, ())
    monkeypatch.setattr(report_bits, "SEEDS", (7,))
    from isocal import checks

    with pytest.MonkeyPatch.context() as mp:
        calls = spy_sweeps(mp)
        checks.run_calibration_checks("r3", 10_000, 0)
    planar = calls[0].blocks[0]  # and 4 three-space samples to 3 planar
    assert {planar, planar + 1, planar * 4 // 3, planar * 4 // 3 + 1} <= \
        set(report_bits.CALIBRATION_R3_SAMPLES)
    monkeypatch.setattr(report_bits, "CALIBRATION_R3_SAMPLES", (2976, 2977))
    src = Path(__file__).resolve().parents[1] / "src"
    assert report_bits.main([str(src), str(tmp_path)]) == 0
    for samples in (2976, 2977):
        report = json.loads((tmp_path / f"seed7-calibration-r3-samples"
                             f"{samples}.json").read_text("utf-8"))
        assert report["rc"] == 0
        assert report["rep"]["config"]["samples"] == samples
        want = checks.run_calibration_checks("r3", samples, 7)
        assert {k: report["rep"]["results"][k] for k in want} == want
    assert len(list(tmp_path.iterdir())) == 2


def test_writer_records_field_results_as_hex(tmp_path, monkeypatch):
    # the library results at one seed, one file each, every value the
    # float.hex of the library call: winding and Stokes of the field_checks
    # inputs as the benchmark makes them, the distance to the boundary and
    # the interior curl integral at their points, averaged_field at the
    # inside winding points, winding_integral (or the error's name) off
    # edge 0 of each polygon, and d1d2_fd on the seeded pairs of each space
    monkeypatch.setattr(report_bits, "SEEDS", (7,))
    monkeypatch.setattr(report_bits, "VERIFY_WORKLOADS", ())
    monkeypatch.setattr(report_bits, "CALIBRATION_SPACES", ())
    monkeypatch.setattr(report_bits, "CALIBRATION_R3_SAMPLES", ())
    monkeypatch.setattr(report_bits, "MAYER_PROBLEMS", ())
    monkeypatch.setattr(report_bits, "PLOTDATA_KINDS", ())
    root = Path(__file__).resolve().parents[1]
    assert report_bits.main([str(root / "src"), str(tmp_path)]) == 0
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import harness
    import inputs
    from isocal import (ClosedCurve, PointOnBoundaryError, averaged_field,
                        d1d2_fd, stokes_check, winding_integral)
    from isocal.curves import BOUNDARY_TOL_FACTOR, distance_to_boundary
    from isocal.quadrature import interior_curl_integral

    want, polygons = {}, []
    for op in inputs.generate("field_checks", 7).round:
        name = f"seed7-field_checks-{op.name}"
        if op.kind in ("winding", "stokes"):
            curve = ClosedCurve(op.vertices)
            want[f"{name}-distance_curl"] = {
                "distance_to_boundary":
                    distance_to_boundary(curve, op.point).hex(),
                "interior_curl_integral": interior_curl_integral(
                    curve, op.point, (1.0, 0.0)).hex()}
            if not any(np.array_equal(op.vertices, v) for v in polygons):
                polygons.append(op.vertices)
        if op.kind == "winding":
            value = winding_integral(ClosedCurve(op.vertices), op.point)
            assert abs(value - 4.0 * math.pi * op.expect["winding"]) < 1e-12
            want[name] = {"winding_integral": value.hex()}
            if op.expect["winding"]:
                v = averaged_field(ClosedCurve(op.vertices), op.point)
                want[f"{name}-averaged_field"] = {
                    "averaged_field": [float(c).hex() for c in v]}
        elif op.kind == "stokes":
            lhs_rhs = stokes_check(ClosedCurve(op.vertices), op.point,
                                   refinement=harness.STOKES_REFINEMENT)
            want[name] = {"stokes_check": [v.hex() for v in lhs_rhs]}
    assert len(want) == 31 + 31 + 12 and len(polygons) == 4
    raised = 0
    for i, vertices in enumerate(polygons):
        # 0.5 and 2 tolerances left of edge 0's midpoint and of its line
        # half an edge beyond its end: only the first is on the boundary
        curve = ClosedCurve(vertices)
        tol = BOUNDARY_TOL_FACTOR * curve.diameter
        for name, x in report_bits._offset_points(curve, tol):
            try:
                value = winding_integral(curve, x).hex()
            except PointOnBoundaryError:
                value = "PointOnBoundaryError"
                raised += 1
                assert name == "edge-0.5"
            want[f"seed7-field_checks-polygon{i}-{name}"] = {
                "winding_integral": value}
    assert raised == 4
    for space in ("r2", "r3"):
        # the batched call keeps each pair's bits alone
        pairs = zip(*report_bits.d1d2_pairs(space, 7))
        want[f"seed7-d1d2_fd-{space}"] = {
            "d1d2_fd": [report_bits._hex(d1d2_fd(space, x, y, 1e-3))
                        for x, y in pairs]}
    got = {p.name[:-len(".json")]: json.loads(p.read_text("utf-8"))
           for p in tmp_path.iterdir()}
    assert got == want


def test_writer_records_mayer_path_results_as_hex(tmp_path, monkeypatch):
    # per problem and seed, path_independence_check and minimality_gap on
    # bump_path pairs and competitors, each value the float.hex of the
    # library call; bump_path samples to the sweeps' own block on the grid
    for name in ("VERIFY_WORKLOADS", "CALIBRATION_SPACES",
                 "CALIBRATION_R3_SAMPLES", "FIELD_WORKLOADS", "D1D2_SPACES",
                 "PLOTDATA_KINDS"):
        monkeypatch.setattr(report_bits, name, ())
    monkeypatch.setattr(report_bits, "SEEDS", (7,))
    monkeypatch.setattr(report_bits, "MAYER_PROBLEMS", ("oscillator",))
    root = Path(__file__).resolve().parents[1]
    assert report_bits.main([str(root / "src"), str(tmp_path / "a")]) == 0
    got = json.loads((tmp_path / "a" / "seed7-mayer-oscillator-paths.json")
                     .read_text("utf-8"))
    import isocal
    from isocal import checks

    prob = isocal.get_problem("oscillator")
    L, fam, amp = prob.lagrangian, prob.family, prob.amplitude
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-amp, amp, (report_bits.MAYER_PATHS, 2, 3))
    competitors = rng.uniform(-amp, amp, (report_bits.MAYER_PATHS, 3))
    nl = isocal.null_lagrangian(L, fam)
    assert got == {
        "path_independence_check": [
            [float(v).hex() for v in isocal.path_independence_check(
                nl, *(report_bits.bump_path(isocal, prob, c) for c in pair))]
            for pair in pairs],
        "minimality_gap": [isocal.minimality_gap(
            L, fam, report_bits.bump_path(isocal, prob, c)).hex()
            for c in competitors]}
    grid = checks._bump_grid(prob, 2000)
    q, qd = checks._bump_block(grid, competitors)
    for c, want_q, want_qd in zip(competitors, q, qd):
        path = report_bits.bump_path(isocal, prob, c)
        assert path.value(grid[0]).tobytes() == want_q.tobytes()
        assert path.derivative(grid[0]).tobytes() == want_qd.tobytes()


def test_writer_records_the_vfield_grid_as_hex(tmp_path, monkeypatch):
    # plotdata vfield at its default grid, once: the 21 x 21 points but the
    # origin, each CSV value as float.hex
    for name in ("VERIFY_WORKLOADS", "CALIBRATION_SPACES",
                 "CALIBRATION_R3_SAMPLES", "MAYER_PROBLEMS",
                 "FIELD_WORKLOADS", "D1D2_SPACES"):
        monkeypatch.setattr(report_bits, name, ())
    root = Path(__file__).resolve().parents[1]
    assert report_bits.main([str(root / "src"), str(tmp_path / "a")]) == 0
    assert [p.name for p in (tmp_path / "a").iterdir()] == \
        ["plotdata-vfield.json"]
    got = json.loads((tmp_path / "a" / "plotdata-vfield.json")
                     .read_text("utf-8"))
    assert got["rc"] == 0 and len(got["vfield"]) == 21 * 21 - 1
    from isocal import mayer_vector

    for row in got["vfield"][::37]:
        x1, x2, v1, v2 = (float.fromhex(v) for v in row)
        v = mayer_vector((0.0, 0.0), (1.0, 0.0), (x1, x2))
        assert [v1, v2] == v.tolist()


def test_writer_refuses_a_second_tree_in_one_process(tmp_path, capsys,
                                                     monkeypatch):
    # the first call imports isocal from its SRC; a second SRC in the same
    # process would get that tree's reports, so it exits 2 and writes none.
    # Both calls leave sys.path and sys.dont_write_bytecode as they were.
    monkeypatch.setattr(report_bits, "SEEDS", (7,))
    monkeypatch.setattr(report_bits, "VERIFY_WORKLOADS", ())
    monkeypatch.setattr(report_bits, "CALIBRATION_SPACES", ())
    monkeypatch.setattr(report_bits, "CALIBRATION_R3_SAMPLES", ())
    monkeypatch.setattr(report_bits, "MAYER_PROBLEMS", ("free",))
    monkeypatch.setattr(report_bits, "FIELD_WORKLOADS", ())
    monkeypatch.setattr(report_bits, "D1D2_SPACES", ())
    monkeypatch.setattr(report_bits, "PLOTDATA_KINDS", ())
    src = Path(__file__).resolve().parents[1] / "src"
    other = tmp_path / "other" / "src"
    shutil.copytree(src / "isocal", other / "isocal",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    assert report_bits.main([str(src), str(tmp_path / "a")]) == 0
    assert sys.path == path and sys.dont_write_bytecode == bytecode
    capsys.readouterr()
    assert report_bits.main([str(other), str(tmp_path / "b")]) == 2
    assert "run each tree in its own process" in capsys.readouterr().err
    assert sys.path == path and sys.dont_write_bytecode == bytecode
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
        ["seed7-mayer-free-paths.json", "seed7-mayer-free.json"]
    assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------------------
# the suite's own set-up

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_fails(x):
    assert x < 0


def test_b_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # with the suite's conftest and warning filters, a failing @given test
    # is reported and the run goes on to the next test (a DeprecationWarning
    # raised while hypothesis loads its patch printer once ended it with an
    # INTERNALERROR)
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "conftest.py").write_text(
        (root / "tests" / "conftest.py").read_text("utf-8"), "utf-8")
    (tmp_path / "test_order.py").write_text(FAILING_THEN_PASSING, "utf-8")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_order.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
