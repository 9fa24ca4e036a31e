"""One-dimensional variational machinery: Lagrangians, extremal solving,
foliations by extremals, Mayer slope fields, the Legendre transform, and the
null Lagrangian built from a slope field.

The central object is a family u(s, t) of extremal graphs covering a strip
diffeomorphically.  Differentiating the leaf through (t, q) in time yields
the slope field psi; combining psi with the impulsion and the energy gives a
Lagrangian that is affine in the velocity, bounded above by the original one,
and whose action depends on endpoint values only.

Every callable here is evaluated on numpy arrays, one call per batch of
points.  A user callable that only takes scalars (a math.sin lambda, a
Python branch) is detected once, where it enters CallablePath,
SolutionFamily or Lagrangian1D, and is run element by element from then on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curves import _require_count

Scalar3 = Callable[[float, float, float], float]

# Below this the Legendre coefficient counts as degenerate: every downstream
# formula divides by it.
DEGENERATE_D2 = 1e-10
# Centred-difference steps: _FD_CROSS for time derivatives and the
# Euler-Lagrange cross partials, _FD_STEP for the residuals checked against
# stated partials, _PULLBACK_STEP for the pullback coefficient
# (lagrangian_submanifold_check, checks.pullback_residual).
_FD_CROSS = 1e-6
_FD_STEP = 1e-5
_PULLBACK_STEP = 1e-4
_ENDPOINT_TOL = 1e-10  # paths that agree to this at both ends share them
_LEAF_TOL = 1e-12  # bracket width of a leaf parameter (_locate_leaf)
_EL_TOL = 1e-6  # Euler-Lagrange residual bound on null_lagrangian's leaves


class LegendreError(ValueError):
    """Degenerate or non-invertible Legendre transform."""


class FoliationError(ValueError):
    """Query outside the foliated region, or the family is not a foliation."""


class EndpointError(ValueError):
    """Paths do not share endpoints."""


_TAKES_ARRAYS = "_isocal_takes_arrays"


def _takes_arrays(fn):
    """Mark a callable built by this package as evaluating arrays elementwise."""
    setattr(fn, _TAKES_ARRAYS, True)
    return fn


def _array_callable(fn, *probe):
    """fn itself if it evaluates the probe arrays elementwise, else fn wrapped
    once in np.vectorize.

    A callable takes arrays when calling it on the probe arrays gives the
    same values as calling it on each probe point.  Anything else, an error
    included, means scalar-only.
    """
    if fn is None or getattr(fn, _TAKES_ARRAYS, False):
        return fn
    try:
        with np.errstate(all="ignore"):
            got = np.asarray(fn(*probe), float)
            want = np.array([fn(*p) for p in zip(*(a.tolist() for a in probe))],
                            float)
        if got.shape in ((), want.shape) and np.allclose(
                got, want, rtol=1e-9, atol=1e-12, equal_nan=True):
            return fn
    except (TypeError, ValueError, ArithmeticError):
        pass
    vec = np.vectorize(fn, otypes=[float])

    def elementwise(*args):
        if all(np.ndim(a) == 0 for a in args):
            return fn(*args)
        return vec(*args)

    return _takes_arrays(elementwise)


def _out(x, *like):
    """x broadcast to the common shape of `like`: a float when that shape is
    (), from x of one point, else a fresh array."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in like))
    x = np.broadcast_to(np.asarray(x, float), shape or (1,))
    return float(x[0]) if shape == () else x.copy()


def _points(*xs):
    """xs as float arrays of their common shape, at least 1-d: callables see
    arrays only, so a point gets the same bits alone or in a batch (a numpy
    scalar's x ** 3 rounds unlike an array's)."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in xs)) or (1,)
    return [np.broadcast_to(np.asarray(x, float), shape) for x in xs]


@dataclass(frozen=True)
class Lagrangian1D:
    """Scalar Lagrangian L(t, q, qdot) with its first and second partials.

    The convexity coefficient d2L_dqdot2 must be nonnegative on the working
    domain; operations that invert the velocity require it strictly positive.
    """

    l: Scalar3
    dL_dq: Scalar3
    dL_dqdot: Scalar3
    d2L_dqdot2: Scalar3
    domain: tuple[float, float]

    def __post_init__(self):
        a, b = self.domain
        probe = (a + (b - a) * np.array([0.3, 0.7]), np.array([0.2, -0.4]),
                 np.array([0.5, -0.3]))
        for name in ("l", "dL_dq", "dL_dqdot", "d2L_dqdot2"):
            object.__setattr__(self, name,
                               _array_callable(getattr(self, name), *probe))

    def partials_residual(self, n: int = 200, seed: int = 0) -> float:
        """Max relative deviation of the stated partials from differences."""
        rng = np.random.default_rng(seed)
        a, b = self.domain
        h = _FD_STEP
        t, q, qd = rng.uniform([a + 1e-3, -2.0, -2.0], [b - 1e-3, 2.0, 2.0],
                               size=(n, 3)).T
        fd_q = (self.l(t, q + h, qd) - self.l(t, q - h, qd)) / (2 * h)
        fd_qd = (self.l(t, q, qd + h) - self.l(t, q, qd - h)) / (2 * h)
        scale = 1.0 + np.abs(fd_q) + np.abs(fd_qd)
        dev = np.maximum(np.abs(fd_q - self.dL_dq(t, q, qd)),
                         np.abs(fd_qd - self.dL_dqdot(t, q, qd))) / scale
        return float(np.max(dev, initial=0.0))


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class CallablePath:
    """Path backed by analytic callables."""

    f: Callable[[float], float]
    fdot: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        probe = np.array([0.3, 0.7])
        for name in ("f", "fdot"):
            object.__setattr__(self, name,
                               _array_callable(getattr(self, name), probe))

    def value(self, t):
        return self.f(t)

    def derivative(self, t):
        if self.fdot is not None:
            return self.fdot(t)
        h = _FD_CROSS
        return (self.f(t + h) - self.f(t - h)) / (2 * h)


def _grid_cell(grid: np.ndarray, t):
    """Cell index, cell width and offset within the cell, per time t; times
    outside the grid use the end cells."""
    i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
    h = grid[i + 1] - grid[i]
    return i, h, (t - grid[i]) / h


def _hermite_value(s, h, v0, d0, v1, d1):
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * v0 + h * h10 * d0 + h01 * v1 + h * h11 * d1


def _hermite_slope(s, h, v0, d0, v1, d1):
    d00 = 6 * s * (s - 1)
    d10 = (1 - s) * (1 - 3 * s)
    d01 = -d00
    d11 = s * (3 * s - 2)
    return (d00 * v0 + h * d10 * d0 + d01 * v1 + h * d11 * d1) / h


@dataclass(frozen=True, eq=False)
class Extremal:
    """Grid samples of a solution, with cubic Hermite evaluation between."""

    grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, float)
        v = np.asarray(self.values, float)
        d = np.asarray(self.derivatives, float)
        if not (g.ndim == 1 and g.shape == v.shape == d.shape and len(g) >= 2):
            raise ValueError("grid, values, derivatives must be equal-length 1d")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        for arr in (g, v, d):
            arr.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "derivatives", d)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def _eval(self, basis, t):
        i, h, s = _grid_cell(self.grid, _points(t)[0])
        return _out(basis(s, h, self.values[i], self.derivatives[i],
                          self.values[i + 1], self.derivatives[i + 1]), t)

    def value(self, t):
        return self._eval(_hermite_value, t)

    def derivative(self, t):
        return self._eval(_hermite_slope, t)


def _integrate_el(L: Lagrangian1D, t0: float, q0, qdot0, grid):
    """(values, slopes) of solve_el for arrays q0, qdot0 in one pass, with the
    bits each gets alone (_points): a row per initial value, a column per time."""
    g = np.asarray(grid, float)
    if len(g) < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    if abs(g[0] - t0) > 1e-12 * max(1.0, abs(t0)):
        raise ValueError("grid must start at t0")

    fd = _FD_CROSS
    q, qd = _points(q0, qdot0)

    def acc(t, q, qd):
        m = np.broadcast_to(L.d2L_dqdot2(t, q, qd), q.shape)
        k = np.argmin(np.abs(m))  # the most degenerate point
        if abs(m.flat[k]) < DEGENERATE_D2:
            raise LegendreError(
                f"degenerate Legendre coefficient {m.flat[k]!r} at t={t}, "
                f"q={q.flat[k]}, qdot={qd.flat[k]}")
        dpdt = (L.dL_dqdot(t + fd, q, qd) - L.dL_dqdot(t - fd, q, qd)) / (2 * fd)
        dpdq = (L.dL_dqdot(t, q + fd, qd) - L.dL_dqdot(t, q - fd, qd)) / (2 * fd)
        return (L.dL_dq(t, q, qd) - dpdt - dpdq * qd) / m

    qs, ds = np.empty((2,) + q.shape + g.shape)
    qs[..., 0], ds[..., 0] = q, qd
    for i in range(len(g) - 1):
        t, h = g[i], g[i + 1] - g[i]
        k1q, k1v = qd, acc(t, q, qd)
        k2q = qd + 0.5 * h * k1v
        k2v = acc(t + 0.5 * h, q + 0.5 * h * k1q, k2q)
        k3q = qd + 0.5 * h * k2v
        k3v = acc(t + 0.5 * h, q + 0.5 * h * k2q, k3q)
        k4q = qd + h * k3v
        k4v = acc(t + h, q + h * k3q, k4q)
        q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if np.any(np.abs(q) > 1e8) or np.any(np.abs(qd) > 1e8):
            raise OverflowError(f"solution blew up near t={g[i + 1]}")
        qs[..., i + 1], ds[..., i + 1] = q, qd
    return qs, ds


def solve_el(L: Lagrangian1D, t0: float, q0: float, qdot0: float,
             grid) -> Extremal:
    """Integrate the Euler-Lagrange equation by classical fixed-step RK4.

    The second-order equation is solved for the acceleration through the
    Legendre coefficient; cross-partials of dL_dqdot are taken by centred
    differences.  Degenerate Legendre coefficients and solution blow-up are
    hard errors.
    """
    values, slopes = _integrate_el(L, t0, float(q0), float(qdot0), grid)
    return Extremal(grid, values[0], slopes[0])


def el_residual(L: Lagrangian1D, f, t, domain=None):
    """d/dt [dL_dqdot along f] - dL_dq along f, by centred differences.

    Times must lie the step, 1e-5, inside `domain`, which defaults to the
    path's own domain when it has one and to the Lagrangian's otherwise.
    """
    h = _FD_STEP
    a, b = domain if domain is not None else getattr(f, "domain", L.domain)
    tt = _points(t)[0]
    inside = (a + h <= tt) & (tt <= b - h)
    if not np.all(inside):
        raise ValueError(f"t={tt[~inside].flat[0]} not interior to the path "
                         f"domain ({a}, {b})")

    def p(x):
        return L.dL_dqdot(x, f.value(x), f.derivative(x))

    return _out((p(tt + h) - p(tt - h)) / (2 * h)
                - L.dL_dq(tt, f.value(tt), f.derivative(tt)), t)


# ---------------------------------------------------------------------------
# foliations and the slope field


@dataclass(frozen=True)
class SolutionFamily:
    """Family u(s, t) of extremal graphs, strictly monotone in s per time.

    Monotonicity (the diffeomorphism half of the foliation condition) is
    verified on a sample grid at construction; being extremal is the other
    half and is checked against a Lagrangian by null_lagrangian.
    """

    u: Callable[[float, float], float]
    s_interval: tuple[float, float]
    t_domain: tuple[float, float]
    s0: float
    du_dt: Optional[Callable[[float, float], float]] = None
    _monotone_sign: int = field(init=False, default=0)

    def __post_init__(self):
        lo, hi = self.s_interval
        a, b = self.t_domain
        if not lo < hi or not a < b:
            raise ValueError("empty parameter or time interval")
        if not lo <= self.s0 <= hi:
            raise FoliationError(f"s0={self.s0} outside the parameter interval")
        probe = (lo + (hi - lo) * np.array([0.3, 0.7]),
                 a + (b - a) * np.array([0.6, 0.2]))
        for name in ("u", "du_dt"):
            object.__setattr__(self, name,
                               _array_callable(getattr(self, name), *probe))
        ss = np.linspace(lo, hi, 33)
        ts = np.linspace(a, b, 17)[:, None]
        steps = np.diff(np.broadcast_to(self.u(ss, ts), (17, 33)), axis=1)
        # per time: +1 where u rises in s, -1 where it falls, 0 otherwise
        sign = np.all(steps > 0, axis=1).astype(int) - np.all(steps < 0, axis=1)
        k = int(np.argmax((sign == 0) | (sign != sign[0])))
        if sign[k] == 0:
            raise FoliationError(
                f"family is not strictly monotone in s at t={ts[k, 0]}")
        if sign[k] != sign[0]:
            raise FoliationError("monotonicity direction flips with t")
        object.__setattr__(self, "_monotone_sign", int(sign[0]))

    def time_slope(self, s, t):
        if self.du_dt is not None:
            return self.du_dt(s, t)
        h = _FD_CROSS
        return (self.u(s, t + h) - self.u(s, t - h)) / (2 * h)

    def leaf(self, s: float) -> CallablePath:
        u, du_dt = self.u, self.du_dt
        return CallablePath(
            f=_takes_arrays(lambda t: u(s, t)),
            fdot=_takes_arrays(lambda t: du_dt(s, t)) if du_dt is not None
            else None,
        )

    @property
    def central_leaf(self) -> CallablePath:
        return self.leaf(self.s0)


def _locate_leaf(family: SolutionFamily, t, q):
    """Parameter of the leaf through each (t, q), arrays of one shape
    (_points), by bisection.

    Every point takes ceil(log2(width / _LEAF_TOL)) halvings, a count set
    by the width of the parameter interval alone, so a point gets the same
    bits whether it is solved alone or inside a batch.
    """
    lo0, hi0 = family.s_interval
    qlo = np.broadcast_to(family.u(lo0, t), t.shape)
    qhi = np.broadcast_to(family.u(hi0, t), t.shape)
    # u(s, t) of an interpolated family can leave [u(lo), u(hi)] by rounding
    # for s next to an end, so the ends take a few ulps of the range's scale;
    # written so that a NaN q counts as outside
    slack = 4.0 * np.finfo(float).eps * np.maximum(np.abs(qlo), np.abs(qhi))
    inside = (((qlo - slack <= q) & (q <= qhi + slack))
              | ((qhi - slack <= q) & (q <= qlo + slack)))
    if not np.all(inside):
        k = np.flatnonzero(~inside)[0]
        a, b = sorted((float(qlo.flat[k]), float(qhi.flat[k])))
        raise FoliationError(f"q={q.flat[k]} outside the foliated range at "
                             f"t={t.flat[k]} ([{a}, {b}])")
    # below(s): the leaf through (t, q) has a parameter at or above s
    below = ((lambda s: family.u(s, t) <= q) if family._monotone_sign > 0
             else (lambda s: family.u(s, t) >= q))
    return _bisect(below, np.full(t.shape, float(lo0)), float(hi0 - lo0),
                   max(0, math.ceil(math.log2((hi0 - lo0) / _LEAF_TOL))))


def _bisect(below, lo, width, halvings: int):
    """Where below(x) turns from true to false in each bracket [lo, lo +
    width], by halving all at once and keeping the half that holds it; lo,
    a float array, is updated in place."""
    half = width
    for _ in range(halvings):
        half = half * 0.5
        mid = lo + half
        np.copyto(lo, mid, where=below(mid))
    return lo + 0.5 * half


def mayer_slope(family: SolutionFamily, t, q):
    """Slope field psi(t, q): time derivative of the leaf through (t, q).

    Takes scalars or arrays; a float for scalar input.
    """
    args = t, q
    t, q = _points(*args)
    return _out(family.time_slope(_locate_leaf(family, t, q), t), *args)


# ---------------------------------------------------------------------------
# Legendre transform and Hamiltonian


def energy(L: Lagrangian1D, t, q, qdot):
    """qdot * dL/dqdot - L, elementwise on arrays."""
    return qdot * L.dL_dqdot(t, q, qdot) - L.l(t, q, qdot)


def legendre_inverse(L: Lagrangian1D, t, q, p):
    """Velocity qhat with dL_dqdot(t, q, qhat) = p, elementwise on arrays; a
    float for scalar input.

    Each point doubles its own bracket [-w, w] from w = 1 + |p| until it
    holds the root, then halves it 68 times (_bisect), whatever the batch,
    so a point gets the same bits alone or in a batch.  LegendreError names
    the first point with no bracket within 1e8, or with a degenerate (so
    ill-defined) inverse: a Legendre coefficient at the root below 1e-10.
    """
    args = t, q, p
    t, q, p = _points(*args)
    w = 1.0 + np.abs(p)
    while True:
        # written so that a non-finite p, q or end value holds no root; an
        # end value that overflows to +-inf still compares right
        with np.errstate(over="ignore"):
            held = (np.isfinite(w) & (L.dL_dqdot(t, q, -w) <= p)
                    & (p <= L.dL_dqdot(t, q, w)))
        if np.all(held):
            break
        w = np.where(held, w, 2.0 * w)
        if not np.all(w <= 1e8):
            k = np.argmin(w <= 1e8)  # the first point beyond, or NaN
            raise LegendreError(f"no bracket within 1e8 for p={p.flat[k]} "
                                f"at t={t.flat[k]}, q={q.flat[k]}")
    x = _bisect(lambda x: L.dL_dqdot(t, q, x) <= p, -w, 2.0 * w, 68)
    d2 = np.broadcast_to(L.d2L_dqdot2(t, q, x), x.shape)
    if not np.all(d2 >= DEGENERATE_D2):
        k = np.argmin(d2 >= DEGENERATE_D2)  # the first degenerate point
        raise LegendreError(
            f"degenerate Legendre coefficient {d2.flat[k]!r} at the solution "
            f"qdot={x.flat[k]!r} (t={t.flat[k]}, q={q.flat[k]}, p={p.flat[k]})")
    return _out(x, *args)


def hamiltonian(L: Lagrangian1D, t, q, p):
    """H(t, q, p) = p qhat - L(t, q, qhat), qhat = legendre_inverse."""
    args = t, q, p
    t, q, p = _points(*args)
    qhat = legendre_inverse(L, t, q, p)
    return _out(p * qhat - L.l(t, q, qhat), *args)


# ---------------------------------------------------------------------------
# the null Lagrangian of a slope field


@dataclass(frozen=True)
class NullLagrangianField:
    """Slope field psi with the derived affine-in-velocity Lagrangian.

    lam(t, q, qdot) = dL_dqdot(t, q, psi) qdot - energy(L, t, q, psi), with
    psi = mayer_slope(family, t, q); it is dominated by the generating
    Lagrangian, agrees with it along the field, and its action depends only
    on path endpoints.
    """

    lagrangian: Lagrangian1D
    family: SolutionFamily

    @_takes_arrays
    def lam(self, t, q, qdot):
        args = t, q, qdot
        t, q, qdot = _points(*args)
        s = mayer_slope(self.family, t, q)
        return _out(self.lagrangian.dL_dqdot(t, q, s) * qdot
                    - energy(self.lagrangian, t, q, s), *args)

    @_takes_arrays
    def dlambda_dqdot(self, t, q, qdot=0.0):
        # lam is affine in qdot, so this is exact
        return self.lagrangian.dL_dqdot(t, q, mayer_slope(self.family, t, q))

    @_takes_arrays
    def dlambda_dq(self, t, q, qdot):
        h = _FD_STEP
        return (self.lam(t, q + h, qdot) - self.lam(t, q - h, qdot)) / (2 * h)

    def as_lagrangian(self) -> Lagrangian1D:
        return Lagrangian1D(
            l=self.lam,
            dL_dq=self.dlambda_dq,
            dL_dqdot=self.dlambda_dqdot,
            d2L_dqdot2=_takes_arrays(lambda t, q, qd: 0.0),
            domain=self.lagrangian.domain,
        )


def null_lagrangian(L: Lagrangian1D,
                    family: SolutionFamily) -> NullLagrangianField:
    """Build the null Lagrangian of the family's slope field.

    Five leaves are checked to satisfy the Euler-Lagrange equation of L to
    1e-6 at seven times each; a corrupted family fails here.
    """
    a, b = family.t_domain
    lo, hi = family.s_interval
    margin = 1e-3 * (b - a)
    ts = np.linspace(a + margin, b - margin, 7)
    for s in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5):
        r = el_residual(L, family.leaf(float(s)), ts, domain=(a, b))
        bad = np.flatnonzero(np.abs(r) > _EL_TOL)
        if bad.size:
            k = bad[0]
            raise FoliationError(
                f"leaf s={s} violates the Euler-Lagrange equation "
                f"(residual {r[k]:.3e} at t={ts[k]})")
    return NullLagrangianField(lagrangian=L, family=family)


def weierstrass_gap(L: Lagrangian1D, family: SolutionFamily, t, q, qdot):
    """Pointwise excess L - lam at (t, q, qdot); nonnegative under convexity,
    zero exactly when qdot equals the slope field."""
    args = t, q, qdot
    t, q, qdot = _points(*args)
    lam = NullLagrangianField(lagrangian=L, family=family).lam(t, q, qdot)
    return _out(L.l(t, q, qdot) - lam, *args)


# ---------------------------------------------------------------------------
# action integrals and the endpoint-dependence checks


def _simpson_grid(a: float, b: float, n: int) -> np.ndarray:
    """The nodes of action's composite Simpson rule over (a, b)."""
    _require_count("n", n)
    return np.linspace(a, b, n + n % 2 + 1)


def _simpson(vals, ts) -> float:
    """Composite-Simpson sum of the integrand values vals on the grid ts of
    _simpson_grid; both weighted sums are exact (math.fsum)."""
    h = (float(ts[-1]) - float(ts[0])) / (len(ts) - 1)
    vals = _out(vals, ts).tolist()
    odd = math.fsum(vals[1:-1:2])
    even = math.fsum(vals[2:-1:2])
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * odd + 2.0 * even)


def action(L: Lagrangian1D, path, a: float | None = None,
           b: float | None = None, n: int = 2000) -> float:
    """Composite-Simpson action integral of L along the path over (a, b),
    on n intervals (n + 1 if n is odd); n must be an integer >= 1.

    The integrand is evaluated once on the whole grid.
    """
    if a is None:
        a = L.domain[0]
    if b is None:
        b = L.domain[1]
    ts = _simpson_grid(a, b, n)
    return _simpson(L.l(ts, path.value(ts), path.derivative(ts)), ts)


def _require_shared_endpoints(domain, f, g) -> None:
    """Raise EndpointError unless f and g agree at both ends of domain."""
    ends = np.array(domain)
    if np.max(np.abs(f.value(ends) - g.value(ends))) > _ENDPOINT_TOL:
        raise EndpointError("paths do not share endpoints")


def path_independence_check(nl: NullLagrangianField, f1, f2,
                            n: int = 2000) -> tuple[float, float]:
    """Action of the null Lagrangian along two paths with shared endpoints.

    Returns the two integrals; they agree up to quadrature tolerance.
    """
    _require_shared_endpoints(nl.lagrangian.domain, f1, f2)
    lam = nl.as_lagrangian()
    return action(lam, f1, n=n), action(lam, f2, n=n)


@dataclass(frozen=True)
class PhaseLift:
    """The map (s, t) -> (t, u, w, v) into (time, position, energy, momentum).

    v is the impulsion along the leaf and w the Hamiltonian there.  For a
    true foliation by extremals, the symplectic form dp^dq - de^dt pulls
    back to zero under this map.
    """

    lagrangian: Lagrangian1D
    family: SolutionFamily

    def u(self, s, t):
        return self.family.u(s, t)

    def v(self, s, t):
        return self.lagrangian.dL_dqdot(t, self.family.u(s, t),
                                        self.family.time_slope(s, t))

    def w(self, s, t):
        return hamiltonian(self.lagrangian, t, self.family.u(s, t), self.v(s, t))

    def map(self, s, t):
        return (t, self.u(s, t), self.w(s, t), self.v(s, t))

    def pullback_coefficient(self, s, t, h: float):
        """Coefficient of dt^ds in the pulled-back symplectic form:
        dv/dt du/ds - dv/ds du/dt + dw/ds, by centred differences."""
        dv_dt = (self.v(s, t + h) - self.v(s, t - h)) / (2 * h)
        du_ds = (self.u(s + h, t) - self.u(s - h, t)) / (2 * h)
        dv_ds = (self.v(s + h, t) - self.v(s - h, t)) / (2 * h)
        du_dt = (self.u(s, t + h) - self.u(s, t - h)) / (2 * h)
        dw_ds = (self.w(s + h, t) - self.w(s - h, t)) / (2 * h)
        return dv_dt * du_ds - dv_ds * du_dt + dw_ds


def lagrangian_submanifold_check(L: Lagrangian1D, family: SolutionFamily,
                                 s, t, h: float = _PULLBACK_STEP):
    """Pullback coefficient of the symplectic form at each interior (s, t);
    near zero for a genuine foliation by extremals, else bounded away."""
    args = s, t
    s, t = _points(*args)
    a, b = family.t_domain
    lo, hi = family.s_interval
    inside = (lo < s) & (s < hi) & (a < t) & (t < b)
    if not np.all(inside):
        k = np.argmin(inside)
        raise ValueError(f"(s, t) = ({s.flat[k]}, {t.flat[k]}) not interior")
    return _out(PhaseLift(L, family).pullback_coefficient(s, t, h), *args)


def minimality_gap(L: Lagrangian1D, family: SolutionFamily, f,
                   f_o=None, n: int = 2000) -> float:
    """Action difference between a competitor path and the central leaf.

    The competitor must share endpoints with the leaf and stay inside the
    foliated region at every node its action is summed on; the gap is
    nonnegative up to quadrature tolerance.
    """
    if f_o is None:
        f_o = family.central_leaf
    _require_shared_endpoints(L.domain, f, f_o)
    lo, hi = family.s_interval
    ts = _simpson_grid(*L.domain, n)
    q = f.value(ts)
    qlo, qhi = family.u(lo, ts), family.u(hi, ts)
    inside = (np.minimum(qlo, qhi) <= q) & (q <= np.maximum(qlo, qhi))
    if not np.all(inside):
        raise FoliationError(
            f"path leaves the foliated region at t={ts[~inside][0]}")
    return _simpson(L.l(ts, q, f.derivative(ts)), ts) - action(L, f_o, n=n)


# ---------------------------------------------------------------------------
# shooting-generated families


def family_from_shooting(L: Lagrangian1D, initial, s_interval, t_grid,
                         s0: float, n_leaves: int = 33) -> SolutionFamily:
    """Foliate by integrating a line of initial conditions.

    `initial(s)` returns (q0, qdot0) at t_grid[0].  Leaves are solved on the
    grid in one pass, each with solve_el's bits, and interpolated cubically
    in both s and t, which takes n_leaves >= 4; monotonicity is verified by
    SolutionFamily as usual.
    """
    _require_count("n_leaves", n_leaves, 4)
    s_nodes = np.linspace(s_interval[0], s_interval[1], n_leaves)
    g = np.asarray(t_grid, float)
    q0, qdot0 = np.array([initial(float(s)) for s in s_nodes], float).T
    values, slopes = _integrate_el(L, g[0], q0, qdot0, g)

    def blend(basis, s, t):
        # cubic Lagrange weights over the four leaves around each s, applied
        # to the Hermite interpolants of those leaves at each t
        s, t = np.asarray(s, float), np.asarray(t, float)
        k = np.clip(np.searchsorted(s_nodes, s) - 2, 0, len(s_nodes) - 4)
        xs = [s_nodes[k + j] for j in range(4)]
        i, h, x = _grid_cell(g, t)
        total = 0.0
        for m in range(4):
            w = 1.0
            for j in range(4):
                if j != m:
                    w = w * ((s - xs[j]) / (xs[m] - xs[j]))
            total = total + w * basis(x, h, values[k + m, i], slopes[k + m, i],
                                      values[k + m, i + 1], slopes[k + m, i + 1])
        return _out(total, s, t)

    u = _takes_arrays(lambda s, t: blend(_hermite_value, s, t))
    du_dt = _takes_arrays(lambda s, t: blend(_hermite_slope, s, t))

    return SolutionFamily(
        u=u, s_interval=(float(s_interval[0]), float(s_interval[1])),
        t_domain=(float(g[0]), float(g[-1])), s0=float(s0), du_dt=du_dt,
    )


# ---------------------------------------------------------------------------
# built-in problems


@dataclass(frozen=True)
class MayerProblem:
    """A Lagrangian with a foliation by its extremals; the sweeps' sine-mode
    perturbations of the central leaf stay inside it at `amplitude`."""

    name: str
    lagrangian: Lagrangian1D
    family: SolutionFamily
    description: str
    amplitude: float


def _free() -> MayerProblem:
    L = Lagrangian1D(
        l=lambda t, q, qd: 0.5 * qd * qd,
        dL_dq=lambda t, q, qd: 0.0,
        dL_dqdot=lambda t, q, qd: qd,
        d2L_dqdot2=lambda t, q, qd: 1.0,
        domain=(0.0, 1.0),
    )
    fam = SolutionFamily(
        u=lambda s, t: s + t,
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: 1.0,
    )
    return MayerProblem("free", L, fam, "free particle, unit-slope line field",
                        0.8)


def _oscillator() -> MayerProblem:
    L = Lagrangian1D(
        l=lambda t, q, qd: 0.5 * (qd * qd - q * q),
        dL_dq=lambda t, q, qd: -q,
        dL_dqdot=lambda t, q, qd: qd,
        d2L_dqdot2=lambda t, q, qd: 1.0,
        domain=(0.5, 2.5),
    )
    fam = SolutionFamily(
        u=lambda s, t: s * np.sin(t),
        s_interval=(0.01, 3.0), t_domain=(0.5, 2.5), s0=0.5,
        du_dt=lambda s, t: s * np.cos(t),
    )
    return MayerProblem("oscillator", L, fam,
                        "harmonic oscillator on a sine-leaf foliation", 0.12)


def _cosh() -> MayerProblem:
    c = 0.5
    L = Lagrangian1D(
        l=lambda t, q, qd: np.cosh(qd),
        dL_dq=lambda t, q, qd: 0.0,
        dL_dqdot=lambda t, q, qd: np.sinh(qd),
        d2L_dqdot2=lambda t, q, qd: np.cosh(qd),
        domain=(0.0, 1.0),
    )
    fam = SolutionFamily(
        u=lambda s, t: s + c * t,
        s_interval=(-5.0, 5.0), t_domain=(0.0, 1.0), s0=0.0,
        du_dt=lambda s, t: c,
    )
    return MayerProblem("cosh", L, fam,
                        "cosh velocity cost; extremals are straight lines", 0.8)


_BUILDERS = {"free": _free, "oscillator": _oscillator, "cosh": _cosh}


def get_problem(name: str) -> MayerProblem:
    """Registry lookup for the built-in problems: free, oscillator, cosh."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; known: {sorted(_BUILDERS)}") from None


def problem_names() -> list[str]:
    return sorted(_BUILDERS)
