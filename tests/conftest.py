"""Shared generators for the test suite."""

from __future__ import annotations

import math

import numpy as np

from isocal import ClosedCurve


def star_polygon(rng, n_min=5, n_max=16, r_min=0.3, r_max=1.5, scale=1.0,
                 center=(0.0, 0.0)):
    """Random star-shaped (hence simple) polygon, positively oriented."""
    n = int(rng.integers(n_min, n_max + 1))
    # bounded angular gaps: no degenerate edges, and gaps below pi keep the
    # generating center strictly inside
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.r_[angles, angles[0] + 2 * np.pi])
        if gaps.min() > 1e-3 and gaps.max() < 2.5:
            break
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
