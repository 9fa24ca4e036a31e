"""Shared generators for the test suite."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from isocal import ClosedCurve, checks

# To print a patch for a failing example, hypothesis' pytest plugin imports
# hypothesis.extra._patching, whose libcst import raises mypy_extensions'
# DeprecationWarning: an error under the suite's filters, which ends the
# whole run with an INTERNALERROR.  Imported here once, with that warning
# ignored, the plugin's import finds the module loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin prints no patch
        pass


def star_polygon(rng, n_min=5, n_max=16, r_min=0.3, r_max=1.5, scale=1.0,
                 center=(0.0, 0.0)):
    """Random star-shaped (hence simple) polygon, positively oriented."""
    n = int(rng.integers(n_min, n_max + 1))
    # bounded angular gaps: at least min_gap, so no degenerate edges, plus
    # the rest of the turn split by normalised exponentials (the spacings
    # of sorted uniform angles); gaps below pi keep the generating center
    # strictly inside
    min_gap = 1e-3
    while True:
        x = rng.exponential(size=n)
        gaps = min_gap + (2.0 * np.pi - n * min_gap) * (x / x.sum())
        if gaps.max() < 2.5:
            break
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.r_[0.0, np.cumsum(gaps[:-1])]
    radii = rng.uniform(r_min, r_max, n) * scale
    c = np.asarray(center, float)
    return ClosedCurve(np.c_[c[0] + radii * np.cos(angles),
                             c[1] + radii * np.sin(angles)])


def vertex_angle_winding_number(curve, x) -> int:
    """Winding number from the polar angles of the vertices about x: the
    increments between neighbours, wrapped into [-pi, pi), summed.  A
    reference for curves.winding_number, which sums subtended angles."""
    d = curve.vertices - np.asarray(x, float)
    ang = np.arctan2(d[:, 1], d[:, 0])
    inc = np.diff(np.r_[ang, ang[:1]])
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    return round(math.fsum(inc) / (2.0 * np.pi))


def near_point(v, i, kind, gap):
    """A point `gap` away from vertex or edge i of the closed polygon v:
    left ("left") or right ("right") of the edge's midpoint, outward from
    the vertex along t_in - t_out, the difference of its edges' directions,
    where the vertex is the nearest point of both edges ("vertex"), or on
    the edge's line beyond its end ("line")."""
    n = len(v)
    a, b = v[i % n], v[(i + 1) % n]
    t = (b - a) / math.hypot(*(b - a))
    if kind == "line":
        return b + gap * t
    normal = np.array([-t[1], t[0]])
    if kind == "vertex":
        t_in = (a - v[(i - 1) % n]) / math.hypot(*(a - v[(i - 1) % n]))
        u = t_in - t
        if not u.any():  # a vertex inside a straight run
            return a + gap * normal
        return a + gap * u / math.hypot(*u)
    side = 1.0 if kind == "left" else -1.0
    return (a + b) / 2 + side * gap * normal


def random_rotation2(rng) -> np.ndarray:
    a = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def random_rotation3(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _fcross(x, y):
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0]]


def _fdot(x, y):
    return sum(s * t for s, t in zip(x, y))


def cones_meet_reference(a, b, c, d):
    """0, 1 or 2 (for more) common rays of the closed cones spanned by the
    rays a, b and by c, d (great-circle arcs on the sphere), in Fractions:
    two planes through the origin meet in the rays +-p, p = (a x b) x (c x
    d); in one plane, the common rays are bounded by end rays lying in both
    cones, so two distinct such rays mean a common wedge."""
    a, b, c, d = ([Fraction(float(t)) for t in q] for q in (a, b, c, d))
    nab, ncd = _fcross(a, b), _fcross(c, d)

    def inside(x, p, q, n):  # x = alpha p + beta q, alpha, beta >= 0
        return (_fdot(x, n) == 0 and _fdot(_fcross(p, x), n) >= 0
                and _fdot(_fcross(x, q), n) >= 0)

    def both(x):
        return inside(x, a, b, nab) and inside(x, c, d, ncd)

    p = _fcross(nab, ncd)
    if any(p):
        return int(both(p) or both([-t for t in p]))
    rays = []
    for x in filter(both, (a, b, c, d)):
        if not any(_fdot(x, y) > 0 and not any(_fcross(x, y)) for y in rays):
            rays.append(x)
    return min(len(rays), 2)


def simplicity_reference(v):
    """None if the closed polygon of rays v (rows) is simple, else the
    cones_meet_reference count (1, or 2 for an overlap) of its first
    offending edge pair i < j in vertex order, over all pairs: non-adjacent
    edges may not meet, adjacent ones only in their shared ray."""
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            meet = cones_meet_reference(v[i], v[(i + 1) % n], v[j],
                                        v[(j + 1) % n])
            if meet > adjacent:
                return meet
    return None


def spy_sweeps(monkeypatch) -> list:
    """A record of each checks._sweep call, in call order: its arguments
    (draw as the sweep passed it), the size of each block it drew, its
    first block and its result."""
    calls = []
    sweep = checks._sweep

    def spy(streams, n, row_bytes, draw, scores, group=1):
        call = SimpleNamespace(streams=streams, n=n, row_bytes=row_bytes,
                               draw=draw, scores=scores, group=group,
                               blocks=[], first=None, result=None)
        calls.append(call)

        def counted(*args):
            block = draw(*args)
            if not call.blocks:
                call.first = block
            call.blocks.append(args[-1])
            return block

        call.result = sweep(streams, n, row_bytes, counted, scores, group)
        return call.result

    monkeypatch.setattr(checks, "_sweep", spy)
    return calls
