"""Pointwise evaluation of the circle-field vector V, the associated one-form,
and the rank-two "biform" kernel on R^2 x R^2 and R^3 x R^3.

Everything here is pure and stateless.  The kernel at a point pair (x, y) is
the reflection matrix m = 2 u u^T - I with u = (x - y)/|x - y|; it is
symmetric, orthogonal, and has operator norm exactly one, which is what makes
the calibration argument work.  The kernel is undefined on the diagonal
x = y: coincident inputs raise instead of returning NaN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, UnitVector2, _require_off_boundary, _vec2
from .curves import boundary_node_arrays, perimeter

MayerVector = UnitVector2


class CoincidentPointsError(ValueError):
    """The kernel is bounded but undefined at x = y."""


def _check_distinct(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x - y
    # relative to the points' own scale, so distinct points at any scale
    # pass; identical points (the origin included) never do
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()))
    if float(np.hypot(*z) if len(z) == 2 else np.linalg.norm(z)) <= 1e-12 * scale:
        raise CoincidentPointsError(f"points coincide: {x.tolist()} ~ {y.tolist()}")
    return z


def _unit(v) -> np.ndarray:
    a = _vec2(v) if np.shape(v) == (2,) or hasattr(v, "as_array") else np.asarray(v, float)
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"expected a unit vector, |v| = {n!r}")
    return a


def mayer_vector(y, t_y, x) -> UnitVector2:
    """Unit vector V(y, t_y, x) = 2 <x-y, t_y> (x-y)/|x-y|^2 - t_y.

    Geometrically: the positively oriented unit tangent at x of the unique
    oriented circle through x and y whose tangent at y is t_y.
    """
    yv, xv = _vec2(y), _vec2(x)
    t = _unit(t_y)
    d = _check_distinct(xv, yv)
    r2 = d @ d
    v = (2.0 * (d @ t) / r2) * d - t
    return UnitVector2(float(v[0]), float(v[1]))


@dataclass(frozen=True, eq=False)
class BiformValue2:
    """2x2 coefficient matrix of the kernel at a point pair; acts as u^T m v."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        _check_kernel_matrix(m, expected_trace=0.0)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def apply(self, u, v) -> float:
        return float(np.asarray(u, float) @ self.m @ np.asarray(v, float))


@dataclass(frozen=True, eq=False)
class BiformValue3:
    """3x3 kernel matrix m = 2 z z^T/|z|^2 - I with z = x - y; trace -1."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        _check_kernel_matrix(m, expected_trace=-1.0)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def apply(self, u, v) -> float:
        return float(np.asarray(u, float) @ self.m @ np.asarray(v, float))


def _check_kernel_matrix(m: np.ndarray, expected_trace: float) -> None:
    if abs(m - m.T).max() > 1e-12:
        raise ValueError("kernel matrix must be symmetric")
    if abs(np.trace(m) - expected_trace) > 1e-12:
        raise ValueError(f"kernel trace must be {expected_trace}")
    if abs(m @ m - np.eye(len(m))).max() > 1e-12:
        raise ValueError("kernel matrix must be orthogonal (an involution)")


def biform2(x, y) -> BiformValue2:
    """Kernel matrix at (x, y) in the plane."""
    xv, yv = _vec2(x), _vec2(y)
    z = _check_distinct(xv, yv)
    u = z / np.hypot(*z)
    return BiformValue2(2.0 * np.outer(u, u) - np.eye(2))


def biform3(x, y) -> BiformValue3:
    """Kernel matrix at (x, y) in three-space."""
    xv = np.asarray(x, float).reshape(3)
    yv = np.asarray(y, float).reshape(3)
    z = _check_distinct(xv, yv)
    u = z / np.linalg.norm(z)
    return BiformValue3(2.0 * np.outer(u, u) - np.eye(3))


def _anyvec(v) -> np.ndarray:
    if hasattr(v, "as_array"):
        return v.as_array()
    return np.asarray(v, float).ravel()


def biform_apply(x, y, u, v) -> float:
    """u^T m(x, y) v without building the matrix; works in R^2 and R^3.

    For unit v this equals <V(y, v, x), u>: the kernel applied to a tangent
    pair is the cosine between V and the first tangent.
    """
    xv = _anyvec(x)
    yv = _anyvec(y)
    uv = _anyvec(u)
    vv = _anyvec(v)
    z = _check_distinct(xv, yv)
    r2 = z @ z
    return float(2.0 * (z @ uv) * (z @ vv) / r2 - uv @ vv)


def apply_pairs(X, U, Y, V) -> np.ndarray:
    """Vectorised kernel values for broadcast batches of point/vector pairs.

    X, U and Y, V broadcast against each other on the leading axes; the last
    axis is the space dimension.  The caller is responsible for keeping the
    point pairs off the diagonal.
    """
    X, U = np.asarray(X, float), np.asarray(U, float)
    Y, V = np.asarray(Y, float), np.asarray(V, float)
    z = X - Y
    r2 = np.einsum("...k,...k->...", z, z)
    zu = np.einsum("...k,...k->...", z, np.broadcast_to(U, z.shape))
    zv = np.einsum("...k,...k->...", z, np.broadcast_to(V, z.shape))
    uv = np.einsum("...k,...k->...", np.broadcast_to(U, z.shape),
                   np.broadcast_to(V, z.shape))
    return 2.0 * zu * zv / r2 - uv


def curl_density(y, t_y, x) -> float:
    """2 det(y - x, t_y) / |x - y|^2, the x-exterior-derivative coefficient
    of the one-form <V(y, t_y, x), dx>.  det(a, b) = a1 b2 - a2 b1."""
    yv, xv = _vec2(y), _vec2(x)
    t = _unit(t_y)
    z = _check_distinct(xv, yv)
    d = yv - xv
    return float(2.0 * (d[0] * t[1] - d[1] * t[0]) / (z @ z))


def averaged_field(curve: ClosedCurve, x, refinement: int = 1) -> np.ndarray:
    """Perimeter-average of V(y, t_y, x) over boundary nodes y.

    A convex combination of unit vectors, so its norm is at most 1 up to
    rounding; at the centre of a circle it vanishes by antipodal symmetry.
    """
    p = _require_off_boundary(curve, x)
    pts, tan, wts, _, _, _ = boundary_node_arrays(curve, refinement)
    d = p[None, :] - pts
    r2 = np.einsum("ij,ij->i", d, d)
    proj = np.einsum("ij,ij->i", d, tan)
    field = (2.0 * proj / r2)[:, None] * d - tan
    total = np.array([
        math.fsum(wts * field[:, 0]),
        math.fsum(wts * field[:, 1]),
    ])
    return total / perimeter(curve)


# ---------------------------------------------------------------------------
# mixed exterior derivative d1 d2 by centred finite differences

_EPS3 = np.zeros((3, 3, 3))
for _p in itertools.permutations(range(3)):
    _sg = 1
    for _i in range(3):
        for _j in range(_i + 1, 3):
            if _p[_i] > _p[_j]:
                _sg = -_sg
    _EPS3[_p] = _sg


@dataclass(frozen=True)
class MixedDerivativeTensor:
    """d1 d2 of the kernel in the area-element basis.

    In R^2 a single scalar (coefficient of dx1^dx2 (x) dy1^dy2); in R^3 a
    3x3 array in the cyclic basis [dx2^dx3, dx3^dx1, dx1^dx2] for each slot.
    Antisymmetry in each index pair is built into the reduction.
    """

    space: str
    value: float | np.ndarray
    step: float


def _kernel_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x - y
    r2 = z @ z
    return 2.0 * np.outer(z, z) / r2 - np.eye(len(z))


def _mixed_partials(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """D[k, l, i, j] = centred d^2 m_ij / dx_k dy_l."""
    dim = len(x)
    D = np.empty((dim, dim, dim, dim))
    basis = np.eye(dim)
    for k in range(dim):
        for l in range(dim):
            ek, el = h * basis[k], h * basis[l]
            D[k, l] = (
                _kernel_matrix(x + ek, y + el)
                - _kernel_matrix(x + ek, y - el)
                - _kernel_matrix(x - ek, y + el)
                + _kernel_matrix(x - ek, y - el)
            ) / (4.0 * h * h)
    return D


def d1d2_fd(space: str, x, y, h: float) -> MixedDerivativeTensor:
    """Mixed second derivative of the kernel, antisymmetrised in each slot.

    Requires h < |x - y| / 10 so the stencil stays clear of the diagonal.
    Off the diagonal the R^2 value converges to 0 at order h^2 and the R^3
    tensor to mixed_derivative_closed_form at order h^2.
    """
    if space not in ("r2", "r3"):
        raise ValueError(f"space must be 'r2' or 'r3', got {space!r}")
    dim = 2 if space == "r2" else 3
    xv = np.asarray(x, float).reshape(dim)
    yv = np.asarray(y, float).reshape(dim)
    z = _check_distinct(xv, yv)
    r = float(np.linalg.norm(z))
    if not 0.0 < h < r / 10.0:
        raise ValueError(f"step {h} too large for separation {r} (need h < r/10)")
    D = _mixed_partials(xv, yv, h)
    if dim == 2:
        value = float(D[0, 0, 1, 1] - D[0, 1, 1, 0] - D[1, 0, 0, 1] + D[1, 1, 0, 0])
    else:
        value = np.einsum("aki,blj,klij->ab", _EPS3, _EPS3, D)
    return MixedDerivativeTensor(space=space, value=value, step=h)


def mixed_derivative_closed_form(space: str, x, y) -> float | np.ndarray:
    """Exact off-diagonal value of d1 d2 of the kernel.

    Identically zero in R^2; in R^3 equal to 4 z z^T / |z|^4 with z = x - y,
    expressed in the same cyclic area-element basis as d1d2_fd.
    """
    if space == "r2":
        xv = np.asarray(x, float).reshape(2)
        yv = np.asarray(y, float).reshape(2)
        _check_distinct(xv, yv)
        return 0.0
    if space == "r3":
        xv = np.asarray(x, float).reshape(3)
        yv = np.asarray(y, float).reshape(3)
        z = _check_distinct(xv, yv)
        r2 = z @ z
        return 4.0 * np.outer(z, z) / (r2 * r2)
    raise ValueError(f"space must be 'r2' or 'r3', got {space!r}")
