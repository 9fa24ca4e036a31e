"""Valid curves pass `isocal verify` at default settings.

The plane: random-radius stars, combs with narrow gaps, needles, runs of
collinear vertices and regular polygons, each scaled by a power of two and
translated.  The exact double integral is then 4 pi area to within rounding,
|I - 4 pi A| <= 8 n eps L^2 for n vertices and perimeter L, and the exact
winding integral is 4 pi w to within rounding at points off the boundary.
The exact interior curl integral keeps its bits under rotation of the
start vertex and power-of-two scaling, and is negated under reversal.
"""

import json
import math
import sys

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from conftest import near_point, vertex_angle_winding_number
from isocal import (ClosedCurve, contains, save_curve,
                    winding_integral, winding_number)
from isocal.cli import main
from isocal.curves import distance_to_boundary
from isocal.quadrature import interior_curl_integral

EPS = sys.float_info.epsilon


def star(seed, n):
    """Equally spaced angles, radii uniform in [0.3, 1.5]."""
    r = np.random.default_rng(seed).uniform(0.3, 1.5, n)
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return np.c_[r * np.cos(th), r * np.sin(th)]


def comb(teeth, gap):
    """`teeth` teeth of width 1 and height `teeth` on a common base, with
    gaps of `gap` times the diameter between them."""
    g = gap * math.hypot(2.0 * teeth, teeth)
    x = np.arange(teeth) * (1.0 + g)
    top, base = float(teeth), 0.1 * teeth
    v = [(0.0, 0.0), (x[-1] + 1.0, 0.0)]
    for i in range(teeth - 1, -1, -1):
        v += [(x[i] + 1.0, top), (x[i], top)]
        if i:
            v += [(x[i], base), (x[i - 1] + 1.0, base)]
    return np.array(v)


def needle(aspect, at):
    """A unit square with a needle of length 1 and width 1 / aspect on
    its top edge, at `at` along it: inside the edge for aspect > 5 and
    0.1 <= at <= 0.9."""
    h = 0.5 / aspect
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [at + h, 1.0],
                     [at, 2.0], [at - h, 1.0], [0.0, 1.0]])


def sliver(aspect, at):
    """A triangle of base 1 and height 1 / aspect."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [at, 1.0 / aspect]])


def collinear(seed, n, pieces):
    """A star whose every edge is cut into `pieces` collinear pieces, at
    dyadic fractions of it."""
    v = star(seed, n)
    w = np.roll(v, -1, axis=0)
    t = np.arange(pieces)[:, None, None] / pieces
    return (v + t * (w - v)).transpose(1, 0, 2).reshape(-1, 2)


def regular(n):
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return np.c_[np.cos(th), np.sin(th)]


seeds = st.integers(0, 2**32 - 1)
shapes = st.one_of(
    st.builds(star, seeds, st.integers(3, 128)),
    st.builds(comb, st.integers(2, 12), st.floats(1e-6, 1e-1)),
    st.builds(needle, st.floats(10.0, 1e6), st.floats(0.1, 0.9)),
    st.builds(sliver, st.floats(1.0, 1e6), st.floats(-0.5, 1.5)),
    st.builds(collinear, seeds, st.integers(3, 24),
              st.sampled_from([2, 4, 8])),
    st.builds(regular, st.sampled_from([16, 64, 256, 2048])),
)


@settings(max_examples=40, deadline=None)
@given(v=shapes, k=st.integers(-500, 500),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_valid_planar_curves_pass_verify_at_default_settings(
        tmp_path_factory, v, k, shift):
    curve = ClosedCurve(np.ldexp(v + np.array(shift), k))
    path = tmp_path_factory.mktemp("plane")
    save_curve(curve, str(path / "curve.json"))
    out = path / "report.json"
    assert main(["verify", str(path / "curve.json"), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)["results"]
    L = res["perimeter"]
    err = abs(res["double_integral"] - res["lower_bound"]) / (L * L)
    assert err <= 8 * curve.n_vertices * EPS


# |I - 4 pi w| / (n eps): the largest seen in 48,000 examples of this test
# and 200,000 random 3- to 6-gons run by hand is 8/3, on triangles (one
# unit in the last place of 4 pi).  Without the power-of-two scaling of
# v_i - x, 37 of 600 examples exceeded it, the worst by 9.4e4 n eps at
# scale 2^-500.
WINDING_ERROR_N_EPS = 3.0


@settings(max_examples=60, deadline=None)
@given(v=shapes, k=st.one_of(st.sampled_from([-500, 500]),
                             st.integers(-500, 500)),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       i=st.integers(0, 2**16),
       kind=st.sampled_from(["left", "right", "vertex", "line"]),
       gap=st.one_of(st.just(1.01e-9), st.floats(1.01e-9, 1.0)),
       turn=st.integers(1, 2**16))
def test_winding_integral_is_4_pi_times_the_winding_number(
        v, k, shift, i, kind, gap, turn):
    curve = ClosedCurve(np.ldexp(v + np.array(shift), k))
    n = curve.n_vertices
    x = near_point(curve.vertices, i, kind, gap * curve.diameter)
    assume(distance_to_boundary(curve, x) >= 1e-9 * curve.diameter)
    w = winding_number(curve, x)
    assert w == vertex_angle_winding_number(curve, x)
    assert contains(curve, x) == (w != 0)
    I = winding_integral(curve, x)
    assert abs(I - 4.0 * math.pi * w) <= WINDING_ERROR_N_EPS * n * EPS
    # each edge's term depends on that edge alone, and reversal negates it
    rotated = ClosedCurve(np.roll(curve.vertices, turn % n, axis=0))
    assert winding_integral(rotated, x).hex() == I.hex()
    assert winding_integral(curve.reversed(), x) == -I


@settings(max_examples=60, deadline=None)
@given(v=shapes, k=st.one_of(st.sampled_from([-500, 500]),
                             st.integers(-500, 500)),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       i=st.integers(0, 2**16),
       kind=st.sampled_from(["mid", "at", "left", "right", "vertex", "line"]),
       gap=st.floats(1e-9, 1.0), a=st.floats(0.0, 2.0 * math.pi),
       turn=st.integers(1, 2**16))
def test_interior_curl_integral_keeps_its_bits(v, k, shift, i, kind, gap, a,
                                               turn):
    # the fan sum's terms depend each on its own edge, in units of a power
    # of two: the same bits from any start vertex and at any scale 2^k,
    # negated under reversal, for y on the curve or off it
    curve = ClosedCurve(v + np.array(shift))
    n = curve.n_vertices
    w = curve.vertices
    if kind == "mid":
        y = 0.5 * (w[i % n] + w[(i + 1) % n])
    elif kind == "at":
        y = w[i % n]
    else:
        y = near_point(w, i, kind, gap * curve.diameter)
    t = (math.cos(a), math.sin(a))
    scaled = ClosedCurve(np.ldexp(w, k))
    # 2^k scales every coordinate exactly unless it leaves the normal range
    assume(np.array_equal(np.ldexp(scaled.vertices, -k), w)
           and np.array_equal(np.ldexp(np.ldexp(y, k), -k), y))
    I = interior_curl_integral(curve, y, t)
    assert math.isfinite(I)
    rotated = ClosedCurve(np.roll(w, turn % n, axis=0))
    assert interior_curl_integral(rotated, y, t).hex() == I.hex()
    assert interior_curl_integral(curve.reversed(), y, t) == -I
    assert (interior_curl_integral(scaled, np.ldexp(y, k), t).hex()
            == math.ldexp(I, k).hex())
