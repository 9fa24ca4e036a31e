"""Pointwise evaluation of the circle-field vector V, the associated one-form,
and the rank-two "biform" kernel on R^2 x R^2 and R^3 x R^3.

Everything here is pure and stateless.  The kernel at a point pair (x, y) is
the reflection matrix m = 2 u u^T - I with u = (x - y)/|x - y|; it is
symmetric, orthogonal, and has operator norm exactly one, which is what makes
the calibration argument work.  The kernel is undefined on the diagonal
x = y: coincident inputs raise instead of returning NaN.

Its three forms, the value K(x, y; a, b) = a^T m b, the field V = m t_y and
the matrix m itself, are all evaluated by one formula, the pair sum's
quadrature._kernel, through _pair_kernel and _field.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .curves import ClosedCurve, UnitVector2, _require_off_boundary, _vec2
from .curves import boundary_node_arrays, perimeter


class CoincidentPointsError(ValueError):
    """The kernel is bounded but undefined at x = y."""


def _check_distinct(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x - y
    # relative to the points' own scale, so distinct points at any scale
    # pass; identical points (the origin included) never do
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()))
    if math.hypot(*z) <= 1e-12 * scale:
        raise CoincidentPointsError(f"points coincide: {x.tolist()} ~ {y.tolist()}")
    return z


def _unit(v) -> np.ndarray:
    a = _vec2(v) if np.shape(v) == (2,) or hasattr(v, "as_array") else np.asarray(v, float)
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"expected a unit vector, |v| = {n!r}")
    return a


def _pair_kernel(z, a, b):
    """K(z; a, b) = a^T m(z) b over the last axis, broadcast over the others,
    by the pair sum's own formula quadrature._kernel.  z is first scaled by
    the power of two that brings its largest component into [1/2, 1): K has
    degree 0 in z, so this changes no bits where |z|^2 is a normal number,
    and keeps the kernel finite at any separation."""
    z, a, b = (list(np.rollaxis(np.asarray(v, float), -1)) for v in (z, a, b))
    _, e = np.frexp(functools.reduce(np.maximum, map(np.abs, z)))
    d = [np.ldexp(c, -e) for c in z]
    J = (1.0,) * len(d)
    return quadrature._kernel(d, a, b, J, quadrature.metric_dot(J, d, d))


def _field(z, t):
    """m(z) t over the last axis, z and t broadcast over the others:
    component i is K(z; e_i, t).  With t = I, whose rows are the e_j, the
    result is the kernel matrix m_ji = K(z; e_i, e_j), for a batch of z
    given as z[..., None, :]."""
    z, t = np.asarray(z, float), np.asarray(t, float)
    return _pair_kernel(z[..., None, :], np.eye(z.shape[-1]), t[..., None, :])


def mayer_vector(y, t_y, x) -> UnitVector2:
    """Unit vector V(y, t_y, x) = 2 <x-y, t_y> (x-y)/|x-y|^2 - t_y.

    Geometrically: the positively oriented unit tangent at x of the unique
    oriented circle through x and y whose tangent at y is t_y.
    """
    yv, xv = _vec2(y), _vec2(x)
    v = _field(_check_distinct(xv, yv), _unit(t_y))
    return UnitVector2(float(v[0]), float(v[1]))


@dataclass(frozen=True, eq=False)
class BiformValue:
    """Kernel matrix m = 2 z z^T/|z|^2 - I at a point pair, z = x - y, in the
    plane (2x2) or in three-space (3x3): symmetric, an involution, trace
    2 - dim.  Acts as u^T m v."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape not in ((2, 2), (3, 3)):
            raise ValueError(f"expected a 2x2 or 3x3 matrix, got {m.shape}")
        if abs(m - m.T).max() > 1e-12:
            raise ValueError("kernel matrix must be symmetric")
        if abs(np.trace(m) - (2 - len(m))) > 1e-12:
            raise ValueError(f"kernel trace must be {2 - len(m)}")
        if abs(m @ m - np.eye(len(m))).max() > 1e-12:
            raise ValueError("kernel matrix must be orthogonal (an involution)")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def apply(self, u, v) -> float:
        return float(np.asarray(u, float) @ self.m @ np.asarray(v, float))


def _biform(x, y, dim: int) -> BiformValue:
    xv = np.asarray(x, float).reshape(dim)
    yv = np.asarray(y, float).reshape(dim)
    return BiformValue(_field(_check_distinct(xv, yv), np.eye(dim)))


def biform2(x, y) -> BiformValue:
    """Kernel matrix at (x, y) in the plane."""
    return _biform(_vec2(x), _vec2(y), 2)


def biform3(x, y) -> BiformValue:
    """Kernel matrix at (x, y) in three-space."""
    return _biform(x, y, 3)


def _anyvec(v) -> np.ndarray:
    if hasattr(v, "as_array"):
        return v.as_array()
    return np.asarray(v, float).ravel()


def biform_apply(x, y, u, v) -> float:
    """u^T m(x, y) v without building the matrix; works in R^2 and R^3.

    For unit v this equals <V(y, v, x), u>: the kernel applied to a tangent
    pair is the cosine between V and the first tangent.
    """
    z = _check_distinct(_anyvec(x), _anyvec(y))
    return float(_pair_kernel(z, _anyvec(u), _anyvec(v)))


def curl_density(y, t_y, x) -> float:
    """2 det(y - x, t_y) / |x - y|^2, the x-exterior-derivative coefficient
    of the one-form <V(y, t_y, x), dx>.  det(a, b) = a1 b2 - a2 b1.  Exact
    to rounding wherever the value is a float; at separations below about
    1e-308 it overflows, and math.ldexp raises OverflowError."""
    t = _unit(t_y)
    # degree -1 in y - x: scaled by the power of two 2^-e that brings its
    # largest component into [1/2, 1), as in _pair_kernel, and the value
    # by the same 2^-e, which changes no bits where |x - y|^2 is normal
    z = _check_distinct(_vec2(x), _vec2(y))
    e = int(np.frexp(np.abs(z).max())[1])
    d = np.ldexp(-z, -e)
    return math.ldexp(float(2.0 * (d[0] * t[1] - d[1] * t[0]) / (d @ d)), -e)


def averaged_field(curve: ClosedCurve, x, refinement: int = 1) -> np.ndarray:
    """Perimeter-average of V(y, t_y, x) over boundary nodes y.

    A convex combination of unit vectors, so its norm is at most 1 up to
    rounding; at the centre of a circle it vanishes by antipodal symmetry.
    """
    p = _require_off_boundary(curve, x)
    pts, tan, wts, _, _, _ = boundary_node_arrays(curve, refinement)
    field = _field(p[None, :] - pts, tan)
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


def _mixed_partials(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """D[k, l, i, j] = centred d^2 m_ij / dx_k dy_l, all 4 dim^2 stencil
    matrices in one kernel call."""
    dim = len(x)
    # the stencil points x + s_a h e_k and y + s_b h e_l, s = (+1, -1)
    step = np.array([1.0, -1.0])[None, :, None] * (h * np.eye(dim))[:, None, :]
    xs, ys = x + step, y + step
    z = xs[:, None, :, None] - ys[None, :, None, :]
    m = _field(z[..., None, :], np.eye(dim))
    return (m[:, :, 0, 0] - m[:, :, 0, 1] - m[:, :, 1, 0]
            + m[:, :, 1, 1]) / (4.0 * h * h)


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
