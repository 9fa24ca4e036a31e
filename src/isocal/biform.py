"""Pointwise evaluation of the circle-field vector V, the associated one-form,
and the rank-two "biform" kernel on R^2 x R^2 and R^3 x R^3.

Everything here is pure and stateless.  The kernel at a point pair (x, y) is
the reflection matrix m = 2 u u^T - I with u = (x - y)/|x - y|; it is
symmetric, orthogonal, and has operator norm exactly one, which is what makes
the calibration argument work.  The kernel is undefined on the diagonal
x = y: coincident inputs raise instead of returning NaN.

Its three forms, the value K(x, y; a, b) = a^T m b, the field V = m t_y and
the matrix m itself, are all evaluated by one formula, the pair sum's kernel,
through its scale-free pointwise entry quadrature._pair_kernel and _field.
Inside, batches are components first, as the pair sum holds coordinates:
the component axis leads and the batch axes follow, so every pass of the
kernel runs along the batch; the public functions keep their shapes.

Points, tangents and values are plain arrays and floats: each entry point
coerces array-likes and checks them (curves._vec2, _unit).  Only the kernel
matrix has a type, BiformValue, which checks a matrix anyone may construct.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, _subtended_angles, _vec2
from .curves import boundary_node_arrays, perimeter
from .quadrature import _pair_kernel


class CoincidentPointsError(ValueError):
    """The kernel is bounded but undefined at x = y."""


def _check_distinct(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z = x - y over the last axis, batched over the others; raises
    CoincidentPointsError for the first pair that coincides."""
    z = x - y
    # relative to each pair's own scale, so distinct points at any scale
    # pass; identical points (the origin included) never do.  |z| by nested
    # hypot, which neither over- nor underflows where |z| is a float, over
    # z's components read in place: np.moveaxis would leave two 1-tuples a
    # call in CPython's tuple free list, 96 kB that tracemalloc counts.
    scale = np.maximum(np.abs(x).max(axis=-1), np.abs(y).max(axis=-1))
    norm = functools.reduce(np.hypot, (z[..., k] for k in range(z.shape[-1])))
    bad = np.flatnonzero(norm <= 1e-12 * scale)
    if bad.size:
        at = np.unravel_index(bad[0], z.shape[:-1])
        xk, yk = (np.broadcast_to(v, z.shape)[at] for v in (x, y))
        raise CoincidentPointsError(
            f"points coincide: {xk.tolist()} ~ {yk.tolist()}")
    return z


def _unit(v) -> np.ndarray:
    a = _vec2(v)
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"expected a unit vector, |v| = {n!r}")
    return a


def _field(z, t):
    """m(z) t, components first: z and t have the component on their first
    axis and batch axes after it, broadcast against each other, as
    _pair_kernel takes them.  Component i is K(z; e_i, t), so the result
    has the shape (dim, *batch).  With t the identity, whose columns e_j
    form a batch axis, it is the kernel matrix m_ij = K(z; e_i, e_j)
    (_matrix)."""
    z, t = np.asarray(z, float), np.asarray(t, float)
    dim = len(z)
    basis = np.eye(dim).reshape((dim, dim) + (1,) * (max(z.ndim, t.ndim) - 1))
    return _pair_kernel(z[:, None], basis, t[:, None])


def _matrix(z):
    """The kernel matrix m_ij = K(z; e_i, e_j) of z, components first: of
    shape (dim, dim, *batch) for z of shape (dim, *batch).  m is bitwise
    symmetric (K(z; a, b) is bitwise K(z; b, a))."""
    z = np.asarray(z, float)
    dim = len(z)
    return _field(z[:, None], np.eye(dim).reshape((dim,) * 2
                                                  + (1,) * (z.ndim - 1)))


def mayer_vector(y, t_y, x) -> np.ndarray:
    """Unit vector V(y, t_y, x) = 2 <x-y, t_y> (x-y)/|x-y|^2 - t_y, an
    array of shape (2,).

    Geometrically: the positively oriented unit tangent at x of the unique
    oriented circle through x and y whose tangent at y is t_y.
    """
    return _field(_check_distinct(_vec2(x), _vec2(y)), _unit(t_y))


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
    return BiformValue(_matrix(_check_distinct(xv, yv)))


def biform2(x, y) -> BiformValue:
    """Kernel matrix at (x, y) in the plane."""
    return _biform(_vec2(x), _vec2(y), 2)


def biform3(x, y) -> BiformValue:
    """Kernel matrix at (x, y) in three-space."""
    return _biform(x, y, 3)


def biform_apply(x, y, u, v) -> float:
    """u^T m(x, y) v without building the matrix; works in R^2 and R^3.

    For unit v this equals <V(y, v, x), u>: the kernel applied to a tangent
    pair is the cosine between V and the first tangent.
    """
    x, y, u, v = (np.asarray(a, float).ravel() for a in (x, y, u, v))
    return float(_pair_kernel(_check_distinct(x, y), u, v))


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
    p = _vec2(x)
    _subtended_angles(curve, p)  # PointOnBoundaryError on the boundary
    pts, tan, wts, _, _, _ = boundary_node_arrays(curve, refinement)
    field = _field(p[:, None] - pts.T, tan.T)
    return np.array([math.fsum(wts * f) for f in field]) / perimeter(curve)


# ---------------------------------------------------------------------------
# mixed exterior derivative d1 d2 by centred finite differences

# the Levi-Civita symbol: +1 on the even permutations of (0, 1, 2), -1 on
# the odd ones
_EPS3 = np.zeros((3, 3, 3))
_EPS3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS3[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0


def _points(v, dim: int) -> np.ndarray:
    """v as points of shape (..., dim); dim entries in any shape, as a
    single point always was, give one point of shape (dim,)."""
    a = np.asarray(v, float)
    if a.size == dim:
        return a.reshape(dim)
    if a.shape[-1:] != (dim,):
        raise ValueError(f"expected points of dimension {dim}, "
                         f"got shape {a.shape}")
    return a


def _space_dim(space: str) -> int:
    if space not in ("r2", "r3"):
        raise ValueError(f"space must be 'r2' or 'r3', got {space!r}")
    return 2 if space == "r2" else 3


def _mixed_partials(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """D[..., k, l, i, j] = centred d^2 m_ij / dx_k dy_l for point pairs
    (x, y) of shape (..., dim), all 4 dim^2 stencil matrices of every pair
    in one kernel call.  The stencil is built components first, the pairs
    after the signs, so every kernel pass runs along the pairs; D is
    written in the order that d1d2_fd reads."""
    dim = x.shape[-1]
    # the stencil points x + s_a h e_k and y + s_b h e_l, s = (+1, -1), as
    # step[c, a, 0, k] = s_a h delta_ck
    step = (np.array([1.0, -1.0])[:, None, None]
            * (h * np.eye(dim))[:, None, None])
    xs = x.reshape(-1, dim).T[:, None, :, None] + step
    ys = y.reshape(-1, dim).T[:, None, :, None] + step
    # z[c, a, b, n, k, l] = xs[c, a, n, k] - ys[c, b, n, l]
    m = _matrix(xs[:, :, None, :, :, None] - ys[:, None, :, :, None, :])
    D = np.empty((xs.shape[2],) + (dim,) * 4)
    out = D.transpose(3, 4, 0, 1, 2)  # out[i, j, n, k, l] = D[n, k, l, i, j]
    np.subtract(m[:, :, 0, 0], m[:, :, 0, 1], out=out)
    np.subtract(out, m[:, :, 1, 0], out=out)
    np.add(out, m[:, :, 1, 1], out=out)
    np.divide(out, 4.0 * h * h, out=out)
    return D.reshape(x.shape[:-1] + (dim,) * 4)


def d1d2_fd(space: str, x, y, h: float) -> float | np.ndarray:
    """Mixed second derivative d1 d2 of the kernel by centred differences
    of step h, antisymmetrised in each slot, in the area-element basis.

    In R^2 a scalar, the coefficient of dx1^dx2 (x) dy1^dy2: a float for
    one pair.  In R^3 a 3x3 array in the cyclic basis [dx2^dx3, dx3^dx1,
    dx1^dx2] for each slot.  Requires h < |x - y| / 10 so the stencil stays
    clear of the diagonal.  Off the diagonal the R^2 value converges to 0
    at order h^2 and the R^3 tensor to mixed_derivative_closed_form at
    order h^2.  x and y may carry leading batch axes, (..., dim): the value
    then has them too, in front, and each pair's entry has the same bits
    as the call on that pair alone.
    """
    dim = _space_dim(space)
    xv, yv = _points(x, dim), _points(y, dim)
    z = _check_distinct(xv, yv)
    r = np.sqrt(np.vecdot(z, z))  # as np.linalg.norm of one pair
    if not (0.0 < h and np.all(h < r / 10.0)):
        raise ValueError(f"step {h} too large for separation "
                         f"{float(np.min(r))} (need h < r/10)")
    D = _mixed_partials(xv, yv, h)
    if dim == 2:
        value = (D[..., 0, 0, 1, 1] - D[..., 0, 1, 1, 0] - D[..., 1, 0, 0, 1]
                 + D[..., 1, 1, 0, 0])
        return float(value) if value.ndim == 0 else value
    return np.einsum("aki,blj,...klij->...ab", _EPS3, _EPS3, D)


def mixed_derivative_closed_form(space: str, x, y) -> float | np.ndarray:
    """Exact off-diagonal value of d1 d2 of the kernel.

    Identically zero in R^2; in R^3 equal to 4 z z^T / |z|^4 with z = x - y,
    expressed in the same cyclic area-element basis as d1d2_fd.  Batched
    over leading axes of x and y as d1d2_fd is; one R^2 pair gives 0.0.
    """
    dim = _space_dim(space)
    z = _check_distinct(_points(x, dim), _points(y, dim))
    if dim == 2:
        return 0.0 if z.ndim == 1 else np.zeros(z.shape[:-1])
    r2 = np.vecdot(z, z)[..., None, None]  # z @ z, bit for bit
    return 4.0 * (z[..., :, None] * z[..., None, :]) / (r2 * r2)
