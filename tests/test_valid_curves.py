"""Valid curves pass `isocal verify` at default settings.

The plane: random-radius stars, combs with narrow gaps, needles, runs of
collinear vertices and regular polygons, each scaled by a power of two and
translated.  The exact double integral is then 4 pi area to within rounding,
|I - 4 pi A| <= 8 n eps L^2 for n vertices and perimeter L.
"""

import json
import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from isocal import ClosedCurve, save_curve
from isocal.cli import main

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
    its top edge, at `at` along it."""
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
    st.builds(needle, st.floats(1.0, 1e6), st.floats(0.1, 0.9)),
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
