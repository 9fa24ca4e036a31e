import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isocal import (
    ClosedCurve,
    content_hash,
    geodesic_cap,
    get_problem,
    HyperbolicCurve,
    hyperbolic_circle,
    load_curve,
    regular_polygon,
    save_curve,
    verify_hyperbolic_isoperimetric,
    verify_isoperimetric,
    verify_sphere_isoperimetric,
)
import isocal
from isocal import io
from isocal.cli import main
from isocal.curves import CurveError

SQUARE = ClosedCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_curve(SQUARE, str(path))
    return str(path)


@pytest.fixture()
def spike_file(tmp_path):
    # a needle: L^2 / (4 pi area) is about 3e5, yet the double integral's
    # rounding reads as a relative error of 1.3e-16, so a tolerance of
    # 1e-17 fails it
    path = tmp_path / "spike.json"
    save_curve(ClosedCurve([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-6]]), str(path))
    return str(path)


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    save_curve(regular_polygon(512), str(path))
    return str(path)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# curve files


def test_curve_roundtrip(tmp_path, circle_file):
    c = load_curve(circle_file)
    assert c.n_vertices == 512
    assert content_hash(c) == content_hash(regular_polygon(512))


def test_curve_roundtrip_sphere_hyperbolic(tmp_path):
    sp = tmp_path / "cap.json"
    save_curve(geodesic_cap(1.0, 64), str(sp))
    cap = load_curve(str(sp))
    assert cap.vertices.shape == (64, 3)
    hp = tmp_path / "hyp.json"
    save_curve(hyperbolic_circle(0.5, 64), str(hp))
    hyp = load_curve(str(hp))
    assert hyp.vertices.shape == (64, 3)
    assert content_hash(cap) != content_hash(hyp)


def test_loader_rejects_off_manifold(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
        "closed": True, "space": "sphere"}))
    with pytest.raises(CurveError):
        load_curve(str(path))


def test_loader_rejects_open_curves(tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]],
                                "closed": False}))
    with pytest.raises(CurveError):
        load_curve(str(path))


# ---------------------------------------------------------------------------
# verify


def test_verify_circle_passes(tmp_path, circle_file):
    out = tmp_path / "report.json"
    assert main(["verify", circle_file, "--out", str(out)]) == 0
    rep = _read(out)
    assert rep["schema"] == 1
    assert rep["passed"] is True
    assert rep["space"] == "euclidean"
    assert rep["input"]["content_hash"].startswith("sha256:")
    assert abs(rep["results"]["deficit"]) < 1e-3
    assert {c["name"] for c in rep["checks"]} == {
        "deficit", "calibration_gap", "double_integral_rel_error"}
    for c in rep["checks"]:
        assert c["passed"] is True and c["tolerance"] > 0
    assert rep["wall_time_s"] > 0


def test_verify_reports_byte_stable(tmp_path, circle_file):
    out = tmp_path / "r.json"
    argv = ["verify", circle_file, "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    assert main(argv) == 0
    second = out.read_text()
    # wall time is the only field allowed to differ between identical runs
    r1, r2 = json.loads(first), json.loads(second)
    assert r1.pop("wall_time_s") > 0 and r2.pop("wall_time_s") > 0
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_verify_sphere_cap(tmp_path):
    path = tmp_path / "cap.json"
    save_curve(geodesic_cap(math.pi / 3, 256), str(path))
    out = tmp_path / "rep.json"
    assert main(["verify", str(path), "--out", str(out)]) == 0
    rep = _read(out)
    A = rep["results"]["area"]
    assert rep["results"]["lower_bound"] == pytest.approx((4 * math.pi - A) * A)


def test_verify_hyperbolic_flags_empirical_bound(tmp_path):
    path = tmp_path / "hyp.json"
    save_curve(hyperbolic_circle(0.5, 256), str(path))
    out = tmp_path / "rep.json"
    assert main(["verify", str(path), "--out", str(out)]) == 0
    rep = _read(out)
    assert any("empirically" in note for note in rep["notes"])


def test_verify_reversed_hyperbolic_circle_passes_like_the_forward_one(
        tmp_path):
    # reversed, the polygon turns by -(2 pi + A) and its area reads
    # -4 pi - A, where the sharp bound (4 pi + a) a takes the value it has
    # at A; the midpoint double integral does not see the orientation
    forward = hyperbolic_circle(1.0, 256)
    reports = []
    for name, curve in (("fwd", forward),
                        ("rev", HyperbolicCurve(forward.vertices[::-1]))):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-rep.json"
        save_curve(curve, str(path))
        assert main(["verify", str(path), "--out", str(out)]) == 0
        reports.append(_read(out))
    fwd, rev = (r["results"] for r in reports)
    assert rev["area"] == pytest.approx(-4 * math.pi - fwd["area"],
                                        rel=1e-14)
    assert rev["lower_bound"] == pytest.approx(fwd["lower_bound"], rel=1e-14)
    assert rev["double_integral"] == fwd["double_integral"]
    assert all(r["passed"] for r in reports)


def test_space_tags_agree():
    cases = [(SQUARE, verify_isoperimetric),
             (geodesic_cap(1.0, 16), verify_sphere_isoperimetric),
             (hyperbolic_circle(0.5, 16), verify_hyperbolic_isoperimetric)]
    assert io.SPACES == tuple(type(c).geometry.tag for c, _ in cases)
    for curve, verify in cases:
        tag = type(curve).geometry.tag
        assert verify(curve, 2).space_tag == tag
        data = io.curve_to_dict(curve)
        assert data["space"] == tag
        assert type(io.curve_from_dict(data)) is type(curve)


@pytest.mark.parametrize("scale", [1e300, 1e155, 1e-160])
def test_verify_extreme_scale_exit_2(tmp_path, capsys, scale):
    # the report would hold inf or NaN: rejected as input, no report
    path, out = tmp_path / "square.json", tmp_path / "r.json"
    save_curve(ClosedCurve(SQUARE.vertices * scale), str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "perimeter squared" in capsys.readouterr().err


def test_verify_out_of_range_vertices_exit_2(tmp_path, capsys):
    path, out = tmp_path / "huge.json", tmp_path / "r.json"
    path.write_text(json.dumps({"vertices": [[-1e308, 0.0], [1e308, 0.0],
                                             [0.0, 1e308]], "closed": True}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "2^1022" in err and "coincide" not in err


@pytest.mark.parametrize("vertices", [
    [["0", "0"], [1, 0], [True, True], [0, "1e0"]],
    [[0, 0], [10 ** 400, 0], [0, 1]]],
    ids=["strings-and-booleans", "huge-int"])
def test_verify_non_number_coordinates_exit_2(tmp_path, capsys, vertices):
    # a coordinate must be a JSON number that fits a float; numpy would read
    # the strings and booleans, and overflow on the 401-digit integer
    path, out = tmp_path / "bad.json", tmp_path / "r.json"
    path.write_text(json.dumps({"vertices": vertices, "closed": True}))
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "bad vertex list" in capsys.readouterr().err


@pytest.mark.parametrize("space, v", [
    ("sphere", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("hyperbolic", [[0.0, 0.0, 1.0], [1.0, 0.0, math.sqrt(2.0)],
                    [0.0, 1.0, math.sqrt(2.0)]])])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_non_finite_curved_vertex_exit_2(tmp_path, capsys, space, v,
                                                bad):
    v[1][0] = bad
    path, out = tmp_path / "bad.json", tmp_path / "r.json"
    path.write_text(json.dumps({"vertices": v, "closed": True,
                                "space": space}))
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "vertices must be finite" in capsys.readouterr().err


def test_verify_hyperbolic_vertex_too_far_out_exit_2(tmp_path, capsys):
    path, out = tmp_path / "far.json", tmp_path / "r.json"
    v = hyperbolic_circle(1.0, 8).vertices.copy()
    v[0] = [math.sinh(710.0), 0.0, math.cosh(710.0)]
    path.write_text(json.dumps({"vertices": v.tolist(), "closed": True,
                                "space": "hyperbolic"}))
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "unit hyperboloid" in capsys.readouterr().err


@pytest.mark.parametrize("radius, n, scale", [
    (6.0, 64, 1.0 + 1e-6), (6.9, 13, 1.0 + 1e-6), (10.0, 64, 1.0 + 1e-4),
    (15.0, 64, 1.5), (15.9, 64, 1.02)])
def test_verify_hyperbolic_circle_far_out(tmp_path, capsys, radius, n, scale):
    # the membership tolerance grows with x3^2, as the rounding of <v, v>
    # does, but stays rounding-sized: a vertex off the sheet by 1e-8
    # relative, or moved along its ray by the scale, is still rejected
    path, out = tmp_path / "far.json", tmp_path / "r.json"
    save_curve(hyperbolic_circle(radius, n), str(path))
    assert main(["verify", str(path), "--out", str(out)]) in (0, 1)
    for k, factor in ((0, 1.0 + 1e-8), (2, 1.0 + 1e-8), (slice(None), scale)):
        v = hyperbolic_circle(radius, n).vertices.copy()
        v[0, k] *= factor
        path.write_text(json.dumps({"vertices": v.tolist(), "closed": True,
                                    "space": "hyperbolic"}))
        assert main(["verify", str(path), "--out", str(out)]) == 2
        assert "unit hyperboloid" in capsys.readouterr().err


def test_verify_subnormal_area_exit_2_with_its_cause(tmp_path, capsys):
    # positively oriented, perimeter^2 a normal float, area about 5e-331
    path, out = tmp_path / "thin.json", tmp_path / "r.json"
    save_curve(ClosedCurve([[0.0, 0.0], [1e-150, 0.0], [5e-151, 1e-180]]),
               str(path))
    assert main(["verify", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "area, about 2^-1097, is not a normal float" in err
    assert "oriented" not in err


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_verify_large_and_small_squares_pass(tmp_path, scale):
    reports = []
    for s in (1.0, scale):
        path, out = tmp_path / "square.json", tmp_path / "r.json"
        save_curve(ClosedCurve(SQUARE.vertices * s), str(path))
        assert main(["verify", str(path), "--out", str(out)]) == 0
        reports.append(_read(out)["results"])
    unit, scaled = reports
    assert scaled["perimeter"] == 4.0 * scale
    assert scaled["area"] == scale * scale
    assert scaled["lower_bound"] == 4.0 * math.pi * (scale * scale)
    assert scaled["double_integral"] == pytest.approx(
        unit["double_integral"] * scale ** 2, rel=1e-15, abs=0)


def test_verify_space_conflict(tmp_path, circle_file, capsys):
    assert main(["verify", "--space", "sphere", circle_file]) == 2


def test_verify_failing_tolerance_exits_1(tmp_path, spike_file):
    out = tmp_path / "rep.json"
    rc = main(["verify", spike_file, "--tolerance",
               "double_integral_rel=1e-17", "--out", str(out)])
    assert rc == 1
    assert _read(out)["passed"] is False


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_verify_calibration_gap_of_one_ulp_passes_far_out(tmp_path):
    # at refinement 1 every node lies on the circle, so the double integral
    # is L^2 = 5.1e9 up to one rounding; the bound is 1e-8 L^2, not 1e-8
    path, out = tmp_path / "far.json", tmp_path / "r.json"
    save_curve(hyperbolic_circle(15.9, 4096), str(path))
    main(["verify", str(path), "--out", str(out)])
    rep = _read(out)
    L2 = rep["results"]["perimeter"] ** 2
    gap = _check(rep, "calibration_gap")
    assert -math.ulp(L2) <= gap["value"] < 0.0
    assert gap["passed"] is True and gap["tolerance"] == 1e-8 * L2


@pytest.mark.parametrize("rel, passed", [(-1e-6, False), (-1e-8, True),
                                         (-0.9e-8, True), (-1.1e-8, False)])
def test_verify_calibration_gap_bound_is_relative(tmp_path, square_file,
                                                  monkeypatch, rel, passed):
    # the verdict is the report's value against its tolerance, tol L^2
    exact = isocal.quadrature.verify_isoperimetric

    def shifted(curve, *args):
        r = exact(curve, *args)
        return dataclasses.replace(
            r, calibration_gap=rel * (r.perimeter * r.perimeter))

    monkeypatch.setattr(isocal.quadrature, "verify_isoperimetric", shifted)
    out = tmp_path / "r.json"
    assert main(["verify", square_file, "--out", str(out)]) == \
        (0 if passed else 1)
    gap = _check(_read(out), "calibration_gap")
    assert gap["tolerance"] == 1e-8 * 16.0
    assert gap["passed"] is passed
    assert (max(0.0, -gap["value"]) / gap["tolerance"] <= 1.0) is passed


def test_verify_planar_refinement_adds_the_midpoint_witness(tmp_path,
                                                            square_file):
    out = tmp_path / "rep.json"
    assert main(["verify", square_file, "--out", str(out)]) == 0
    exact = _read(out)
    assert exact["config"]["refinement"] is None
    assert "midpoint_double_integral" not in exact["results"]
    assert "midpoint_rel_deviation" not in exact["results"]
    assert main(["verify", square_file, "--refinement", "8",
                 "--out", str(out)]) == 0
    rep = _read(out)
    assert rep["config"]["refinement"] == 8
    res = rep["results"]
    # the exact value and the checks do not depend on the refinement
    assert res["double_integral"] == exact["results"]["double_integral"]
    assert rep["checks"] == exact["checks"]
    # the midpoint rule at 8 pieces an edge is off by about 1e-2
    assert res["midpoint_rel_deviation"] == pytest.approx(
        (res["midpoint_double_integral"] - res["double_integral"])
        / res["lower_bound"], rel=1e-15)
    assert 1e-4 < abs(res["midpoint_rel_deviation"]) < 1e-1


def test_verify_curved_reports_have_no_midpoint_witness(tmp_path):
    path, out = tmp_path / "cap.json", tmp_path / "rep.json"
    save_curve(geodesic_cap(1.0, 64), str(path))
    assert main(["verify", str(path), "--refinement", "2",
                 "--out", str(out)]) == 0
    assert "midpoint_double_integral" not in _read(out)["results"]


def test_verify_corrupt_json_exit_2_no_partial_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    out = tmp_path / "never.json"
    assert main(["verify", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 100000],
                         ids=["not-utf8", "deep-nesting"])
@pytest.mark.parametrize("which", ["curve", "config"])
def test_unreadable_json_exit_2_no_partial_report(tmp_path, capsys,
                                                  square_file, which,
                                                  content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "never.json"
    argv = (["verify", str(bad)] if which == "curve"
            else ["verify", square_file, "--config", str(bad)])
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_verify_missing_file_exit_2(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_verify_reversed_curve_rejected(tmp_path, capsys):
    path = tmp_path / "rev.json"
    save_curve(SQUARE.reversed(), str(path))
    assert main(["verify", str(path)]) == 2
    assert "negatively oriented" in capsys.readouterr().err


def _on_equator(lon):
    t = math.radians(lon)
    return [math.cos(t), math.sin(t), 0.0]


def _at(space, r, phi):
    """The point at distance r from the centre (0, 0, 1) of the sphere or
    the hyperboloid, or from the origin of the plane, at azimuth phi."""
    if space == "euclidean":
        return [r * math.cos(phi), r * math.sin(phi)]
    if space == "sphere":
        return [math.sin(r) * math.cos(phi), math.sin(r) * math.sin(phi),
                math.cos(r)]
    return [math.sinh(r) * math.cos(phi), math.sinh(r) * math.sin(phi),
            math.cosh(r)]


@pytest.mark.parametrize("space, valid, k, moved, message", [
    ("euclidean", regular_polygon(8).vertices, 0,
     _at("euclidean", 1.2, 2 * math.pi * 5 / 8), "self-intersecting"),
    ("sphere", geodesic_cap(1.0, 8).vertices, 0,
     _at("sphere", 1.3, 2 * math.pi * 4.5 / 8), "self-intersecting"),
    # edge 3 runs from 60 to 90 degrees on the equator; moved to 10 degrees
    # it covers part of edge 0, from 0 to 30 degrees
    ("sphere", [_on_equator(0), _on_equator(30), [0.5, 0.5, math.sqrt(0.5)],
                _on_equator(60), _on_equator(90),
                [0.5, 0.5, -math.sqrt(0.5)]], 4, _on_equator(10),
     "overlapping great-circle edges"),
    ("hyperbolic", hyperbolic_circle(1.0, 8).vertices, 0,
     _at("hyperbolic", 1.3, 2 * math.pi * 4.5 / 8), "self-intersecting")],
    ids=["plane", "sphere", "sphere-overlap", "hyperbolic"])
def test_verify_vertex_moved_across_an_edge_exit_2(tmp_path, capsys, space,
                                                   valid, k, moved, message):
    # the valid polygon is accepted (its check may fail at refinement 1);
    # with vertex k moved across a non-adjacent edge it is rejected
    path = tmp_path / "c.json"

    def verify(v):
        path.write_text(json.dumps({"vertices": v.tolist(), "closed": True,
                                    "space": space}))
        return main(["verify", str(path), "--out", str(tmp_path / "r.json")])

    v = np.array(valid, float)
    assert verify(v) in (0, 1)
    v[k] = moved
    assert verify(v) == 2
    err = capsys.readouterr().err
    assert "invalid curve" in err and message in err


def test_verify_unknown_tolerance_exit_2(square_file):
    assert main(["verify", square_file, "--tolerance", "bogus=1"]) == 2


# ---------------------------------------------------------------------------
# calibration


def test_calibration_passes(tmp_path):
    out = tmp_path / "cal.json"
    assert main(["calibration", "--samples", "2000", "--out", str(out)]) == 0
    rep = _read(out)
    names = {c["name"] for c in rep["checks"]}
    assert "unit_norm" in names and "circle_equality_r2" in names
    assert "mixed_r3" not in names


def test_calibration_r3_adds_closed_form_comparison(tmp_path):
    out = tmp_path / "cal3.json"
    assert main(["calibration", "--samples", "2000", "--space", "r3",
                 "--out", str(out)]) == 0
    rep = _read(out)
    names = {c["name"] for c in rep["checks"]}
    assert {"mixed_r3", "circle_equality_r3", "orthogonality_r3"} <= names


def test_calibration_zero_samples_usage_error(capsys):
    assert main(["calibration", "--samples", "0"]) == 2


def test_calibration_impossible_tolerance_exit_1(tmp_path):
    out = tmp_path / "cal.json"
    rc = main(["calibration", "--samples", "500",
               "--tolerance", "mixed_r2=1e-30", "--out", str(out)])
    assert rc == 1


def test_parser_is_built_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for seed in ("1", "2"):
        assert main(["calibration", "--samples", "5", "--seed", seed,
                     "--out", str(tmp_path / "cal.json")]) == 0
    assert built == []


# ---------------------------------------------------------------------------
# mayer


def test_mayer_oscillator_all_checks_pass(tmp_path):
    out = tmp_path / "m.json"
    assert main(["mayer", "--problem", "oscillator", "--samples", "500",
                 "--out", str(out)]) == 0
    rep = _read(out)
    names = [c["name"] for c in rep["checks"]]
    assert names == ["dominance_min", "field_equality_max",
                     "path_independence_max", "pullback_max",
                     "minimality_min"]
    assert rep["passed"] is True


def test_mayer_free_problem_passes(tmp_path):
    out = tmp_path / "m.json"
    assert main(["mayer", "--problem", "free", "--samples", "300",
                 "--out", str(out)]) == 0


def test_mayer_unknown_problem_exit_2(capsys):
    assert main(["mayer", "--problem", "nosuch"]) == 2
    assert "unknown problem" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plotdata


def test_plotdata_vfield_unit_rows(tmp_path):
    out = tmp_path / "pd"
    assert main(["plotdata", "vfield", "--samples", "9", "--out", str(out)]) == 0
    with open(out / "vfield.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 50
    for row in rows:
        assert math.hypot(float(row["v1"]), float(row["v2"])) == pytest.approx(
            1.0, abs=1e-12)


def test_plotdata_vfield_empty_grid_usage_error(tmp_path):
    assert main(["plotdata", "vfield", "--samples", "1",
                 "--out", str(tmp_path / "x")]) == 2


def test_plotdata_leaves_monotone(tmp_path):
    out = tmp_path / "pd"
    assert main(["plotdata", "leaves", "--problem", "oscillator",
                 "--samples", "7", "--out", str(out)]) == 0
    with open(out / "leaves.csv") as fh:
        rows = list(csv.DictReader(fh))
    # one array call gives each point's scalar value, bit for bit
    family = get_problem("oscillator").family
    by_t = {}
    for row in rows:
        s, t, u = float(row["s"]), float(row["t"]), float(row["u"])
        assert u == family.u(s, t)
        by_t.setdefault(t, []).append((s, u))
    for t, pairs in by_t.items():
        pairs.sort()
        us = [u for _, u in pairs]
        assert all(a < b for a, b in zip(us, us[1:]))


def test_plotdata_circles_written(tmp_path):
    out = tmp_path / "pd"
    assert main(["plotdata", "circles", "--samples", "4", "--out", str(out)]) == 0
    with open(out / "circles.csv") as fh:
        rows = list(csv.DictReader(fh))
    # every circle passes through the base point y = (0, 0)
    by_id = {}
    for row in rows:
        by_id.setdefault(row["circle_id"], []).append(
            (float(row["x1"]), float(row["x2"])))
    for pts in by_id.values():
        assert min(math.hypot(x1, x2) for x1, x2 in pts) < 0.2


# ---------------------------------------------------------------------------
# flags


# every flag some command reads, given to a command that does not read it
UNREAD_FLAGS = [
    (["verify", "CURVE"], "--samples", "5"),
    (["verify", "CURVE"], "--seed", "1"),
    (["verify", "CURVE"], "--problem", "free"),
    (["calibration"], "--refinement", "2"),
    (["calibration"], "--problem", "free"),
    (["mayer", "--problem", "free"], "--refinement", "2"),
    (["mayer", "--problem", "free"], "--space", "r2"),
    (["plotdata", "vfield"], "--refinement", "2"),
    (["plotdata", "vfield"], "--tolerance", "unit_norm=1"),
    (["plotdata", "vfield"], "--seed", "1"),
    (["plotdata", "vfield"], "--space", "r2"),
    (["plotdata", "vfield"], "--problem", "free"),
    (["plotdata", "circles"], "--problem", "free"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS,
                         ids=[f"{c[0]}{f}" for c, f, _ in UNREAD_FLAGS])
def test_flag_the_command_does_not_read_exits_2(tmp_path, square_file, capsys,
                                                command, flag, value):
    out = tmp_path / "out"
    argv = [square_file if a == "CURVE" else a for a in command]
    assert main(argv + [flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, shown", [
    (["--help"], "usage: isocal"), (["--version"], "isocal "),
    (["verify", "--help"], "--refinement")])
def test_help_and_version_exit_0(capsys, argv, shown):
    assert main(argv) == 0
    assert shown in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config file and env var


def test_config_file_tolerances_respected(tmp_path, spike_file, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"double_integral_rel": 1e-17},
                               "refinement": 8}))
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    out = tmp_path / "rep.json"
    assert main(["verify", spike_file, "--out", str(out)]) == 1
    rep = _read(out)
    assert rep["config"]["refinement"] == 8
    assert "midpoint_double_integral" in rep["results"]


def test_cli_flag_overrides_config(tmp_path, square_file, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"double_integral_rel": 1e-12}}))
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    assert main(["verify", square_file, "--refinement", "128",
                 "--tolerance", "double_integral_rel=1e-3"]) == 0


def test_bad_config_exit_2(tmp_path, square_file, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    assert main(["verify", square_file]) == 2


@pytest.mark.parametrize("command", [
    ["mayer", "--problem", "free"], ["calibration"], ["plotdata", "leaves"]])
@pytest.mark.parametrize("setting", [
    {"samples": 2.5}, {"samples": "8"}, {"samples": True}, {"samples": 0},
    {"seed": "x"}, {"seed": -1}, {"seed": 1.0}])
def test_bad_samples_or_seed_in_config_exit_2(tmp_path, monkeypatch, capsys,
                                              command, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    assert main(command + ["--out", str(tmp_path / "out")]) == 2
    assert f"{next(iter(setting))} must be" in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 14.9 GiB for an array")


@pytest.mark.parametrize("target, command", [
    ("isocal.quadrature.verify_isoperimetric", "verify"),
    ("isocal.checks.run_calibration_checks", "calibration"),
    ("isocal.biform._field", "plotdata vfield")])
def test_out_of_memory_exit_2_no_report(tmp_path, square_file, monkeypatch,
                                        capsys, target, command):
    monkeypatch.setattr(target, _out_of_memory)
    out = tmp_path / "out.json"
    argv = command.split() + ([square_file] if command == "verify" else [])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isocal: error: out of memory: Unable to allocate")
    assert err.count("\n") == 1
    assert not out.exists()  # plotdata: no directory either


@pytest.mark.parametrize("refinement", ["8", 2.5, True, 0, -1])
def test_bad_refinement_in_config_exit_2(tmp_path, square_file, monkeypatch,
                                         capsys, refinement):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"refinement": refinement}))
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    assert main(["verify", square_file]) == 2
    assert "refinement must be a positive integer" in capsys.readouterr().err


def test_zero_refinement_flag_exit_2(square_file, capsys):
    assert main(["verify", square_file, "--refinement", "0"]) == 2
    assert "refinement must be a positive integer" in capsys.readouterr().err


def test_negative_seed_flag_exit_2(capsys):
    assert main(["mayer", "--problem", "free", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances", [
    {"deficit_min": "abc"}, {"deficit_min": "1e-3"}, {"deficit_min": None},
    {"deficit_min": True}, {"deficit_min": 0}, {"deficit_min": -1e-3},
    {"deficit_min": 1e999}, {"deficit_min": 10**400}, [1], None, "1e-3"])
def test_bad_tolerances_in_config_exit_2(tmp_path, square_file, monkeypatch,
                                         capsys, tolerances):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": tolerances}))
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    out = tmp_path / "out.json"
    assert main(["verify", square_file, "--out", str(out)]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3", "x"])
def test_bad_tolerance_flag_exit_2(tmp_path, square_file, capsys, value):
    out = tmp_path / "out.json"
    assert main(["verify", square_file, "--out", str(out),
                 "--tolerance", f"double_integral_rel={value}"]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_integer_tolerance_in_config_accepted(tmp_path, square_file,
                                              monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"double_integral_rel": 1}}))
    monkeypatch.setenv("ISOCAL_CONFIG", str(cfg))
    out = tmp_path / "out.json"
    assert main(["verify", square_file, "--out", str(out)]) == 0
    assert _read(out)["config"]["tolerances"]["double_integral_rel"] == 1.0


# With the packages that only tests use made unimportable, the package
# still imports, stokes_check runs, and verify (plane and sphere),
# calibration and mayer exit 0: the runtime needs numpy alone.
NUMPY_ONLY = """
import sys
for name in ("scipy", "mpmath", "sympy", "hypothesis"):
    sys.modules[name] = None
sys.path.insert(0, sys.argv[1])
import isocal
from isocal.cli import main
tmp = sys.argv[2]
isocal.save_curve(isocal.regular_polygon(64), tmp + "/plane.json")
isocal.save_curve(isocal.geodesic_cap(1.0, 64), tmp + "/sphere.json")
square = isocal.ClosedCurve([[0, 0], [1, 0], [1, 1], [0, 1]])
lhs, rhs = isocal.stokes_check(square, (0.5, 0.0), refinement=64)
assert abs(lhs - rhs) < 1e-3, (lhs, rhs)
print([main(argv + ["--out", tmp + "/out.json"]) for argv in (
    ["verify", tmp + "/plane.json"], ["verify", tmp + "/sphere.json"],
    ["calibration", "--samples", "50"],
    ["mayer", "--problem", "oscillator", "--samples", "50"])])
"""


def test_runtime_needs_numpy_only(tmp_path):
    src = str(Path(isocal.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "ISOCAL_CONFIG"}
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, src,
                           str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0]", proc.stderr
