"""One-dimensional variational machinery: Lagrangians, foliations by
extremals, Mayer slope fields, the Legendre transform, and the null
Lagrangian built from a slope field.

The central object is a family u(s, t) of extremal graphs covering a strip
diffeomorphically.  Differentiating the leaf through (t, q) in time yields
the slope field psi; combining psi with the impulsion and the energy gives a
Lagrangian that is affine in the velocity, bounded above by the original one,
and whose action depends on endpoint values only.

Every callable here is evaluated on numpy arrays, one call per batch of
points, and must evaluate them elementwise (np.sin, not math.sin); one that
returns a constant is broadcast.  A scalar-only callable raises where it
first meets an array: a SolutionFamily at construction, a Lagrangian1D or a
CallablePath at its first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curves import _require_count
from .quadrature import _row_sums

Scalar3 = Callable[[float, float, float], float]

# Below this the Legendre coefficient counts as degenerate: the velocity
# legendre_inverse returns is then ill-defined.
DEGENERATE_D2 = 1e-10
# Centred-difference steps: _FD_STEP for the residuals checked against
# stated partials, _PULLBACK_STEP for the pullback coefficient
# (lagrangian_submanifold_check, checks.pullback_residual).
_FD_STEP = 1e-5
_PULLBACK_STEP = 1e-4
_ENDPOINT_TOL = 1e-10  # paths that agree to this at both ends share them
_LEAF_TOL = 1e-12  # widest final bracket of a leaf parameter (_locate_leaf)
_EL_TOL = 1e-6  # Euler-Lagrange residual bound on null_lagrangian's leaves


class LegendreError(ValueError):
    """Degenerate or non-invertible Legendre transform."""


class FoliationError(ValueError):
    """Query outside the foliated region, or the family is not a foliation."""


class EndpointError(ValueError):
    """Paths do not share endpoints."""


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
    """Path backed by analytic callables: its values f and its slope fdot."""

    f: Callable[[float], float]
    fdot: Callable[[float], float]

    def value(self, t):
        return self.f(t)

    def derivative(self, t):
        return self.fdot(t)


def el_residual(L: Lagrangian1D, f, t, domain=None):
    """d/dt [dL_dqdot along f] - dL_dq along f, by centred differences.

    Times must lie the step, 1e-5, inside `domain`, which defaults to the
    Lagrangian's.
    """
    h = _FD_STEP
    a, b = domain if domain is not None else L.domain
    tt = _points(t)[0]
    inside = (a + h <= tt) & (tt <= b - h)
    if not np.all(inside):
        raise ValueError(f"t={tt[~inside].flat[0]} not interior to the domain "
                         f"({a}, {b})")

    def p(x):
        return L.dL_dqdot(x, f.value(x), f.derivative(x))

    return _out((p(tt + h) - p(tt - h)) / (2 * h)
                - L.dL_dq(tt, f.value(tt), f.derivative(tt)), t)


# ---------------------------------------------------------------------------
# foliations and the slope field


@dataclass(frozen=True)
class SolutionFamily:
    """Family u(s, t) of extremal graphs, strictly monotone in s per time.

    du_dt is the leaves' closed-form time derivative, the slope field's
    source.  Monotonicity (the diffeomorphism half of the foliation
    condition) is verified on a sample grid at construction; being extremal
    is the other half and is checked against a Lagrangian by null_lagrangian.
    """

    u: Callable[[float, float], float]
    s_interval: tuple[float, float]
    t_domain: tuple[float, float]
    s0: float
    du_dt: Callable[[float, float], float]
    _monotone_sign: int = field(init=False, default=0)

    def __post_init__(self):
        lo, hi = self.s_interval
        a, b = self.t_domain
        if not lo < hi or not a < b:
            raise ValueError("empty parameter or time interval")
        if not lo <= self.s0 <= hi:
            raise FoliationError(f"s0={self.s0} outside the parameter interval")
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

    def leaf(self, s: float) -> CallablePath:
        u, du_dt = self.u, self.du_dt
        return CallablePath(f=lambda t: u(s, t), fdot=lambda t: du_dt(s, t))

    @property
    def central_leaf(self) -> CallablePath:
        return self.leaf(self.s0)


def _locate_leaf(family: SolutionFamily, t, q):
    """Parameter of the leaf through each (t, q), arrays of one shape
    (_points), by false position on the parameter interval.

    The Illinois variant (Dowell & Jarratt 1971) halves the value kept at
    an end that two steps in a row left in place.  A secant point within
    2 eps max(|s|, 1) of the last point moves that far towards the root,
    so a converged point closes its bracket at the next step.  With n =
    ceil(log2(width / _LEAF_TOL)) + 6, step k moves its point into [b - r,
    a + r], r = _LEAF_TOL 2^(n - k), as ITP does (Oliveira & Takahashi
    2020), so no point takes more than n steps: bisection's count and six.

    Each point stops on its own, with the root itself or the midpoint of a
    bracket at most _LEAF_TOL wide, and every step is elementwise, so a
    point gets the same bits whether it is solved alone or inside a batch.
    A step updates its arrays by np.where selects, which copy values
    exactly, in a third or less of a masked write's time (np.copyto).
    """
    lo0, hi0 = family.s_interval
    qlo = np.broadcast_to(family.u(lo0, t), t.shape)
    qhi = np.broadcast_to(family.u(hi0, t), t.shape)
    # u(s, t) can leave [u(lo), u(hi)] by rounding for s next to an end, so
    # the ends take a few ulps of the range's scale; written so that a NaN q
    # counts as outside
    slack = 4.0 * np.finfo(float).eps * np.maximum(np.abs(qlo), np.abs(qhi))
    inside = (((qlo - slack <= q) & (q <= qhi + slack))
              | ((qhi - slack <= q) & (q <= qlo + slack)))
    if not np.all(inside):
        k = np.flatnonzero(~inside)[0]
        a, b = sorted((float(qlo.flat[k]), float(qhi.flat[k])))
        raise FoliationError(f"q={q.flat[k]} outside the foliated range at "
                             f"t={t.flat[k]} ([{a}, {b}])")
    # g(s) = sign (u(s, t) - q) rises through the root in [a, b]; a q that
    # rounding puts outside [u(lo), u(hi)] takes the nearer end
    sign = family._monotone_sign
    fa, fb = sign * (qlo - q), sign * (qhi - q)
    del qlo, qhi, slack, inside  # not held through the loop
    a = np.where(fb <= 0, float(hi0), float(lo0))
    b = np.where(fa >= 0, float(lo0), float(hi0))
    active = (fa < 0) & (fb > 0)
    last, moved = np.full(a.shape, np.nan), np.zeros(a.shape)
    steps = max(0, math.ceil(math.log2((hi0 - lo0) / _LEAF_TOL))) + 6
    for k in range(1, steps + 1):
        if not active.any():
            break
        w = b - a
        with np.errstate(all="ignore"):
            x = a - fa * (w / (fb - fa))
        # a secant point within rounding of the last point steps that far
        # towards the root instead, so the next bracket can close on it
        tiny = 2.0 * np.finfo(float).eps * np.maximum(np.abs(last), 1.0)
        x = np.where(np.abs(x - last) <= tiny, last + moved * tiny, x)
        # either side of x leaves a bracket of at most r, which halving in
        # the steps left takes to _LEAF_TOL; a point off the open bracket
        # bisects
        r = _LEAF_TOL * 2.0 ** (steps - k)
        x = np.clip(x, b - r, a + r)
        x = np.where((a < x) & (x < b), x, a + 0.5 * w)
        gx = sign * (family.u(x, t) - q)
        left, right = active & (gx < 0), active & (gx > 0)
        # u(x, t) = q: the bracket closes on x
        root = active & ~(left | right)
        # Illinois: the value of an end kept twice in a row is halved
        fa = np.where(left, gx, np.where(right & (moved < 0), fa * 0.5, fa))
        fb = np.where(right, gx, np.where(left & (moved > 0), fb * 0.5, fb))
        a, b = np.where(left | root, x, a), np.where(right | root, x, b)
        last, moved = x, left * 1.0 - right
        active &= b - a > _LEAF_TOL
    return a + 0.5 * (b - a)


def _bisect(below, lo, width, halvings: int):
    """Where below(x) turns from true to false in each bracket [lo, lo +
    width], by halving all at once and selecting the half that holds it
    (np.where; lo, a float array, is not written).  legendre_inverse
    inverts by it, a fixed number of halvings for every point."""
    half = width
    for _ in range(halvings):
        half = half * 0.5
        mid = lo + half
        lo = np.where(below(mid), mid, lo)
    return lo + 0.5 * half


def mayer_slope(family: SolutionFamily, t, q):
    """Slope field psi(t, q): time derivative of the leaf through (t, q).

    Takes scalars or arrays; a float for scalar input.
    """
    args = t, q
    t, q = _points(*args)
    return _out(family.du_dt(_locate_leaf(family, t, q), t), *args)


# ---------------------------------------------------------------------------
# Legendre transform


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


# ---------------------------------------------------------------------------
# the null Lagrangian of a slope field


@dataclass(frozen=True)
class NullLagrangianField:
    """Slope field psi with the derived affine-in-velocity Lagrangian.

    lam(t, q, qdot) = p qdot - (psi p - L(t, q, psi)), with psi =
    mayer_slope(family, t, q) and p = dL_dqdot(t, q, psi): the momentum
    times the velocity, less the energy of the field's slope.  It is
    dominated by the generating Lagrangian, agrees with it along the field,
    and its action depends only on path endpoints.
    """

    lagrangian: Lagrangian1D
    family: SolutionFamily

    def lam(self, t, q, qdot):
        args = t, q, qdot
        t, q, qdot = _points(*args)
        psi = mayer_slope(self.family, t, q)
        p = self.lagrangian.dL_dqdot(t, q, psi)
        # the energy of the slope, psi p - L, with p taken once
        return _out(p * qdot - (psi * p - self.lagrangian.l(t, q, psi)), *args)

    def dlambda_dqdot(self, t, q, qdot=0.0):
        # lam is affine in qdot, so this is exact
        return self.lagrangian.dL_dqdot(t, q, mayer_slope(self.family, t, q))

    def dlambda_dq(self, t, q, qdot):
        h = _FD_STEP
        return (self.lam(t, q + h, qdot) - self.lam(t, q - h, qdot)) / (2 * h)

    def as_lagrangian(self) -> Lagrangian1D:
        return Lagrangian1D(
            l=self.lam,
            dL_dq=self.dlambda_dq,
            dL_dqdot=self.dlambda_dqdot,
            d2L_dqdot2=lambda t, q, qd: 0.0,
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


def _simpson(vals, ts):
    """Composite-Simpson sums of the integrand values vals on the grid ts of
    _simpson_grid, one per path (a row of vals; a float for one path).
    The odd and the even node values of all the paths are summed exactly
    in one quadrature._row_sums, the bits of math.fsum of each."""
    h = (float(ts[-1]) - float(ts[0])) / (len(ts) - 1)
    vals = np.asarray(vals, float)
    vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, ts.shape))
    rows = vals.reshape(-1, len(ts))
    m = len(rows)
    terms = np.empty((2 * m, len(ts) // 2))
    terms[:m] = rows[:, 1:-1:2]
    terms[m:, :-1] = rows[:, 2:-1:2]
    terms[m:, -1] = -0.0  # the even rows are a term short: -0.0 adds nothing
    odd, even = _row_sums(terms).reshape(2, m)
    sums = h / 3.0 * (rows[:, 0] + rows[:, -1] + 4.0 * odd + 2.0 * even)
    return float(sums[0]) if vals.ndim == 1 else sums.reshape(vals.shape[:-1])


def action(L: Lagrangian1D, path, a: float | None = None,
           b: float | None = None, n: int = 2000):
    """Composite-Simpson action integral of L along the path over (a, b),
    on n intervals (n + 1 if n is odd); n must be an integer >= 1.

    The integrand is evaluated once on the whole grid.  A path whose values
    on the grid are rows, one per path of a block, gets one action per row;
    a single path gets a float.
    """
    if a is None:
        a = L.domain[0]
    if b is None:
        b = L.domain[1]
    ts = _simpson_grid(a, b, n)
    return _simpson(L.l(ts, path.value(ts), path.derivative(ts)), ts)


def _sample(path, ts):
    """A path's values and slopes on the Simpson grid ts; the values as an
    array whose last axis is the grid, rows a block's paths."""
    q = path.value(ts)
    return (np.broadcast_to(q, np.broadcast_shapes(np.shape(q), ts.shape)),
            path.derivative(ts))


def _require_shared_endpoints(q1, q2) -> None:
    """Raise EndpointError unless the values q1 and q2 of paths sampled on a
    Simpson grid agree at its first and last nodes, which np.linspace puts
    at the domain's ends exactly."""
    ends = [0, -1]
    # written so that a NaN end counts as not shared
    if not np.all(np.abs(q1[..., ends] - q2[..., ends]) <= _ENDPOINT_TOL):
        raise EndpointError("paths do not share endpoints")


def _null_actions(nl: NullLagrangianField, ts, q, qd):
    """The null Lagrangian's actions along a stacked pair of paths sampled
    on the Simpson grid ts, values q and slopes qd of shape (2, ...,
    len(ts)): one lam evaluation, and one action per path, side 0's rows
    paired with side 1's.  Every pair must share its endpoints."""
    _require_shared_endpoints(q[0], q[1])
    return _simpson(nl.lam(ts, q, qd), ts)


def path_independence_check(nl: NullLagrangianField, f1, f2, n: int = 2000):
    """Action of the null Lagrangian along two paths with shared endpoints.

    Returns the two integrals; they agree up to quadrature tolerance.  For
    blocks of paths (see action) row i of f1 is paired with row i of f2,
    and every pair must share its endpoints.
    """
    ts = _simpson_grid(*nl.lagrangian.domain, n)
    sides = _sample(f1, ts), _sample(f2, ts)
    # the values of both sides as one stacked block, then the slopes
    i1, i2 = _null_actions(nl, ts, *(np.stack(np.broadcast_arrays(*x, ts)[:2])
                                     for x in zip(*sides)))
    return i1, i2


@dataclass(frozen=True)
class PhaseLift:
    """The map (s, t) -> (t, u, w, v) into (time, position, energy, momentum).

    v is the impulsion along the leaf and w the Hamiltonian there: the
    energy of the leaf's slope, which needs no Legendre inversion.  For a
    true foliation by extremals, the symplectic form dp^dq - de^dt pulls
    back to zero under this map.
    """

    lagrangian: Lagrangian1D
    family: SolutionFamily

    def map(self, s, t):
        L = self.lagrangian
        u, udot = self.family.u(s, t), self.family.du_dt(s, t)
        v = L.dL_dqdot(t, u, udot)
        return (t, u, udot * v - L.l(t, u, udot), v)

    def pullback_coefficient(self, s, t):
        """Coefficient of dt^ds in the pulled-back symplectic form:
        dv/dt du/ds - dv/ds du/dt + dw/ds, by centred differences of the
        map at four points, a step _PULLBACK_STEP away."""
        h = _PULLBACK_STEP
        _, du_dt, _, dv_dt = [(x - y) / (2 * h) for x, y in
                              zip(self.map(s, t + h), self.map(s, t - h))]
        _, du_ds, dw_ds, dv_ds = [(x - y) / (2 * h) for x, y in
                                  zip(self.map(s + h, t), self.map(s - h, t))]
        return dv_dt * du_ds - dv_ds * du_dt + dw_ds


def lagrangian_submanifold_check(L: Lagrangian1D, family: SolutionFamily,
                                 s, t):
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
    return _out(PhaseLift(L, family).pullback_coefficient(s, t), *args)


def _gap_to_leaf(L: Lagrangian1D, family: SolutionFamily, ts, leaf):
    """minimality_gap as a function of a competitor's values and slopes
    (q, qd) on the Simpson grid ts (_sample), given the central leaf's
    there, leaf = (q, qd): the foliated region's bounds on ts and the
    leaf's action are computed once."""
    lo, hi = family.s_interval
    qlo, qhi = family.u(lo, ts), family.u(hi, ts)
    low, high = np.minimum(qlo, qhi), np.maximum(qlo, qhi)
    base = _simpson(L.l(ts, *leaf), ts)

    def gap(q, qd):
        _require_shared_endpoints(q, leaf[0])
        inside = (low <= q) & (q <= high)
        if not np.all(inside):
            k = np.flatnonzero(~inside)[0] % len(ts)
            raise FoliationError(
                f"path leaves the foliated region at t={ts[k]}")
        return _simpson(L.l(ts, q, qd), ts) - base

    return gap


def minimality_gap(L: Lagrangian1D, family: SolutionFamily, f,
                   n: int = 2000):
    """Action difference between a competitor path and the central leaf,
    one per row for a block of competitors (see action).

    Every competitor must share endpoints with the leaf and stay inside the
    foliated region at every node its action is summed on, or the first
    one that does not raises; the gap is nonnegative up to quadrature
    tolerance.
    """
    ts = _simpson_grid(*L.domain, n)
    return _gap_to_leaf(L, family, ts, _sample(family.central_leaf, ts))(
        *_sample(f, ts))


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
