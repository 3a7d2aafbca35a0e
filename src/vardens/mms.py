"""Manufactured exact solutions and automatic source-term derivation.

Each case bundles closed-form density/velocity/pressure closures; the
transport and momentum sources are derived by forward-mode dual-number
differentiation of those closures (first-order partials in space and time
plus the pure second spatial partials needed for the Laplacian), which
avoids hand-transcribing the 3D nonlinear terms.

Cases:
    square2d         smooth solution on the unit square
    cube3d           smooth solution in the unit cube
    cube3d_nonsmooth density kink |x - 1/2|^c with c = 1.51 (limited
                     spatial smoothness); keep the mesh subdivision even so
                     interior quadrature points avoid the kink plane
"""

import math

import numpy as np
from scipy.special import roots_legendre


class Dual:
    """Vectorized dual number: value, d+1 first partials (space then time),
    and the pure second spatial partials."""

    __slots__ = ("val", "grad", "hess", "dim")

    def __init__(self, val, grad, hess, dim):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.dim = dim

    @classmethod
    def space_var(cls, values, axis, dim):
        values = np.asarray(values, dtype=float)
        grad = np.zeros(values.shape + (dim + 1,))
        grad[..., axis] = 1.0
        return cls(values, grad, np.zeros(values.shape + (dim,)), dim)

    @classmethod
    def time_var(cls, t, shape, dim):
        val = np.full(shape, float(t))
        grad = np.zeros(shape + (dim + 1,))
        grad[..., dim] = 1.0
        return cls(val, grad, np.zeros(shape + (dim,)), dim)

    @classmethod
    def const(cls, c, shape, dim):
        return cls(
            np.full(shape, float(c)),
            np.zeros(shape + (dim + 1,)),
            np.zeros(shape + (dim,)),
            dim,
        )

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        return Dual.const(other, self.val.shape, self.dim)

    def __add__(self, other):
        o = self._lift(other)
        return Dual(self.val + o.val, self.grad + o.grad,
                    self.hess + o.hess, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.grad, -self.hess, self.dim)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.val * other, self.grad * other,
                        self.hess * other, self.dim)
        d = self.dim
        val = self.val * other.val
        grad = self.grad * other.val[..., None] + self.val[..., None] * other.grad
        hess = (
            self.hess * other.val[..., None]
            + 2.0 * self.grad[..., :d] * other.grad[..., :d]
            + self.val[..., None] * other.hess
        )
        return Dual(val, grad, hess, d)

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp):
        """Unary composition with value f, derivative fp, second fpp.

        An unbounded second derivative (the |.|^c kink) propagates as
        inf/nan in the hessian slots only; values and first partials stay
        finite, so the quiet arithmetic is intentional.
        """
        d = self.dim
        val = f(self.val)
        dfdu = fp(self.val)
        grad = dfdu[..., None] * self.grad
        with np.errstate(invalid="ignore"):
            hess = (
                fpp(self.val)[..., None] * self.grad[..., :d] ** 2
                + dfdu[..., None] * self.hess
            )
        return Dual(val, grad, hess, d)

    # spatial gradient, time derivative, spatial Laplacian
    def spatial_grad(self):
        return self.grad[..., : self.dim]

    def dt(self):
        return self.grad[..., self.dim]

    def laplacian(self):
        return self.hess.sum(axis=-1)


def dsin(u: Dual) -> Dual:
    return u._chain(np.sin, np.cos, lambda v: -np.sin(v))


def dcos(u: Dual) -> Dual:
    return u._chain(np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))


def dabspow(u: Dual, c: float) -> Dual:
    """|u|^c with the right-limit sign convention on the kink set u = 0.

    For 1 < c < 2 the value and first derivative stay finite through the
    kink; the unbounded second derivative is reported as inf there.
    """
    sign = np.where(np.asarray(u.val) >= 0.0, 1.0, -1.0)

    def f(v):
        return np.abs(v) ** c

    def fp(v):
        return c * sign * np.abs(v) ** (c - 1.0)

    def fpp(v):
        with np.errstate(divide="ignore"):
            return c * (c - 1.0) * np.abs(v) ** (c - 2.0)

    return u._chain(f, fp, fpp)


def make_vars(x, t):
    """Seed dual variables for points x (..., d) at scalar time t."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    X = [Dual.space_var(x[..., k], k, d) for k in range(d)]
    T = Dual.time_var(t, x.shape[:-1], d)
    return X, T


class ExactCase:
    """Closed-form (rho, u, p) with derived sources f and g."""

    u_time_independent = True  # all shipped cases have steady velocity

    def __init__(self, name, dim, rho_dual, u_dual, p_dual,
                 rho_plain, u_plain, p_plain, smoothness_exponent=None,
                 kink_location=None):
        self.name = name
        self.dim = dim
        self.smoothness_exponent = smoothness_exponent
        self.kink_location = kink_location
        self.kink_evaluations = 0  # points hit exactly on the kink set
        self._rho_dual = rho_dual
        self._u_dual = u_dual
        self._p_dual = p_dual
        self._rho = rho_plain
        self._u = u_plain
        self._p = p_plain
        self._p_mean_cache = {}

    def _count_kink_hits(self, x):
        """Source evaluations exactly on the kink set use the right-limit
        derivative convention; keep a tally so runs can report it."""
        if self.kink_location is not None:
            self.kink_evaluations += int(
                np.count_nonzero(np.asarray(x) == self.kink_location)
            )

    # plain evaluations -----------------------------------------------
    def rho(self, x, t):
        return self._rho(np.asarray(x, dtype=float), t)

    def u(self, x, t):
        return self._u(np.asarray(x, dtype=float), t)

    def p(self, x, t):
        """Pressure re-centered to zero mean over the unit domain."""
        x = np.asarray(x, dtype=float)
        return self._p(x, t) - self.p_mean(t)

    def p_mean(self, t):
        key = round(float(t), 14)
        if key not in self._p_mean_cache:
            pts, w = _unit_box_rule(self.dim, 12)
            self._p_mean_cache[key] = float(w @ self._p(pts, t))
        return self._p_mean_cache[key]

    # dual-derived quantities -------------------------------------------
    def source_f(self, x, t):
        """Transport source: d_t rho + u . grad rho (u is divergence-free)."""
        self._count_kink_hits(x)
        X, T = make_vars(x, t)
        rho = self._rho_dual(X, T)
        u = self._u_dual(X, T)
        gr = rho.spatial_grad()
        adv = sum(u[k].val * gr[..., k] for k in range(self.dim))
        return rho.dt() + adv

    def source_g(self, x, t, mu):
        """Momentum source: rho d_t u + rho (u.grad)u + grad p - mu lap u."""
        self._count_kink_hits(x)
        X, T = make_vars(x, t)
        rho = self._rho_dual(X, T)
        u = self._u_dual(X, T)
        p = self._p_dual(X, T)
        gp = p.spatial_grad()
        uval = np.stack([c.val for c in u], axis=-1)
        out = np.empty_like(uval)
        for k in range(self.dim):
            gu = u[k].spatial_grad()
            conv = np.einsum("...d,...d->...", uval, gu)
            out[..., k] = (
                rho.val * (u[k].dt() + conv)
                + gp[..., k]
                - mu * u[k].laplacian()
            )
        return out

    def scheme_momentum_source(self, x, t, mu):
        """Momentum source consistent with the stabilized discrete form.

        The velocity step's stabilization pair amounts to adding
        (1/2)(d_t rho + div(rho u)) u to the momentum balance, which equals
        (1/2) f u once the transport equation carries the source f.  With
        f = 0 this coincides with ``source_g``; with manufactured sources
        the compensation is required for the exact solution to remain a
        solution of the discrete form.
        """
        f = self.source_f(x, t)
        return self.source_g(x, t, mu) + 0.5 * f[..., None] * self.u(x, t)

    def div_u(self, x, t):
        X, T = make_vars(x, t)
        u = self._u_dual(X, T)
        return sum(u[k].spatial_grad()[..., k] for k in range(self.dim))

    def make_source_evaluator(self, mu):
        return SourceEvaluator(self, mu)


class SourceEvaluator:
    """Per-run source closures sharing one dual pass per (points, time).

    The transport and momentum sources are needed at the same quadrature
    points within a step; this evaluator derives both from a single pass
    and, since the shipped velocities are steady, reuses the velocity
    duals across steps for each distinct point set.
    """

    def __init__(self, case, mu):
        self.case = case
        self.mu = mu
        self._u_cache = {}
        self._last = None  # (key, t) -> dict

    @staticmethod
    def _points_key(x):
        """Key on the values of the points, so equal arrays share a cache
        entry and an array changed in place gets a new one."""
        return (x.shape, x.tobytes())

    def _u_duals(self, key, X, T):
        if not self.case.u_time_independent:
            return self.case._u_dual(X, T)
        if key not in self._u_cache:
            self._u_cache[key] = self.case._u_dual(X, T)
        return self._u_cache[key]

    def _bundle(self, x, t):
        points_key = self._points_key(x)
        key = (points_key, float(t))
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        case = self.case
        d = case.dim
        case._count_kink_hits(x)
        X, T = make_vars(x, t)
        rho = case._rho_dual(X, T)
        u = self._u_duals(points_key, X, T)
        p = case._p_dual(X, T)
        gr = rho.spatial_grad()
        uval = np.stack([c.val for c in u], axis=-1)
        f = rho.dt() + np.einsum("...d,...d->...", uval, gr)
        gp = p.spatial_grad()
        g = np.empty_like(uval)
        for k in range(d):
            gu = u[k].spatial_grad()
            conv = np.einsum("...d,...d->...", uval, gu)
            g[..., k] = (
                rho.val * (u[k].dt() + conv)
                + gp[..., k]
                - self.mu * u[k].laplacian()
                + 0.5 * f * uval[..., k]
            )
        out = {"f": f, "g": g}
        self._last = (key, out)
        return out

    def f(self, x, t):
        return self._bundle(np.asarray(x, dtype=float), t)["f"]

    def g(self, x, t):
        return self._bundle(np.asarray(x, dtype=float), t)["g"]


def _unit_box_rule(dim, n):
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(pts.shape[0])
    for k in range(dim):
        weights *= np.broadcast_to(
            w[(None,) * k + (slice(None),) + (None,) * (dim - 1 - k)],
            [n] * dim,
        ).ravel()
    return pts, weights


# --------------------------------------------------------------------------
# case definitions
# --------------------------------------------------------------------------

def _square2d():
    def rho_dual(X, T):
        x, y = X
        st = dsin(T)
        return 2.0 + x * (x - 1.0) * dcos(st) + y * (y - 1.0) * dsin(st)

    def u_dual(X, T):
        x, y = X
        sx, sy = dsin(math.pi * x), dsin(math.pi * y)
        return [
            sx * sx * dsin(2.0 * math.pi * y),
            -1.0 * dsin(2.0 * math.pi * x) * sy * sy,
        ]

    def p_dual(X, T):
        x, y = X
        return T * x + y - 0.5 * (T + 1.0)

    def rho(x, t):
        st = math.sin(t)
        return (2.0 + x[..., 0] * (x[..., 0] - 1.0) * math.cos(st)
                + x[..., 1] * (x[..., 1] - 1.0) * math.sin(st))

    def u(x, t):
        px, py = np.pi * x[..., 0], np.pi * x[..., 1]
        return np.stack([
            np.sin(px) ** 2 * np.sin(2.0 * py),
            -np.sin(2.0 * px) * np.sin(py) ** 2,
        ], axis=-1)

    def p(x, t):
        return t * x[..., 0] + x[..., 1] - 0.5 * (t + 1.0)

    return ExactCase("square2d", 2, rho_dual, u_dual, p_dual, rho, u, p)


def _cube_velocity_dual(X):
    x, y, z = X
    sx, sy, sz = dsin(math.pi * x), dsin(math.pi * y), dsin(math.pi * z)
    s2x, s2y, s2z = (
        dsin(2.0 * math.pi * x), dsin(2.0 * math.pi * y),
        dsin(2.0 * math.pi * z),
    )
    return [
        sx * sx * s2y * s2z,
        s2x * (sy * sy) * s2z,
        -2.0 * s2x * s2y * (sz * sz),
    ]


def _cube_velocity(x):
    px, py, pz = np.pi * x[..., 0], np.pi * x[..., 1], np.pi * x[..., 2]
    return np.stack([
        np.sin(px) ** 2 * np.sin(2 * py) * np.sin(2 * pz),
        np.sin(2 * px) * np.sin(py) ** 2 * np.sin(2 * pz),
        -2.0 * np.sin(2 * px) * np.sin(2 * py) * np.sin(pz) ** 2,
    ], axis=-1)


def _cube_pressure_dual(X, T):
    x, y, z = X
    return T * (x + y) + z - 0.5 * (T + 1.0)


def _cube_pressure(x, t):
    return t * (x[..., 0] + x[..., 1]) + x[..., 2] - 0.5 * (t + 1.0)


def _cube3d():
    def rho_dual(X, T):
        x, y, z = X
        osc = dsin(math.pi * T + 0.5 * math.pi)
        return 2.0 + (1.0 / 3.0) * (
            dsin(math.pi * x) + dsin(math.pi * y) + dsin(math.pi * z)
        ) * osc

    def rho(x, t):
        osc = math.sin(math.pi * t + 0.5 * math.pi)
        return 2.0 + (1.0 / 3.0) * (
            np.sin(np.pi * x[..., 0]) + np.sin(np.pi * x[..., 1])
            + np.sin(np.pi * x[..., 2])
        ) * osc

    return ExactCase(
        "cube3d", 3, rho_dual, lambda X, T: _cube_velocity_dual(X),
        _cube_pressure_dual, rho, lambda x, t: _cube_velocity(x),
        _cube_pressure,
    )


_NONSMOOTH_C = 1.51


def _cube3d_nonsmooth():
    c = _NONSMOOTH_C

    def rho_dual(X, T):
        x, y, z = X
        st = dsin(T)
        gx = dabspow(x - 0.5, c)
        gy = dabspow(y - 0.5, c)
        gz = dabspow(z - 0.5, c)
        return 2.0 + gx * dcos(st) + (gy + gz) * dsin(st)

    def rho(x, t):
        st = math.sin(t)
        gx = np.abs(x[..., 0] - 0.5) ** c
        gy = np.abs(x[..., 1] - 0.5) ** c
        gz = np.abs(x[..., 2] - 0.5) ** c
        return 2.0 + gx * math.cos(st) + (gy + gz) * math.sin(st)

    return ExactCase(
        "cube3d_nonsmooth", 3, rho_dual,
        lambda X, T: _cube_velocity_dual(X), _cube_pressure_dual,
        rho, lambda x, t: _cube_velocity(x), _cube_pressure,
        smoothness_exponent=c, kink_location=0.5,
    )


_CASES = {
    "square2d": _square2d,
    "cube3d": _cube3d,
    "cube3d_nonsmooth": _cube3d_nonsmooth,
}


def make_case(name: str) -> ExactCase:
    try:
        return _CASES[name]()
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; choose from {sorted(_CASES)}"
        ) from None


def source_f(case: ExactCase, x, t):
    """Transport source of ``case`` at points x and time t."""
    return case.source_f(x, t)


def source_g(case: ExactCase, x, t, mu):
    """Momentum source of ``case`` at points x and time t."""
    return case.source_g(x, t, mu)


def hand_coded_square2d_f(x, t):
    """Independently transcribed transport source for the 2D case."""
    x = np.asarray(x, dtype=float)
    xx, yy = x[..., 0], x[..., 1]
    st, ct = math.sin(t), math.cos(t)
    drho_dt = (-xx * (xx - 1.0) * math.sin(st) * ct
               + yy * (yy - 1.0) * math.cos(st) * ct)
    drho_dx = (2.0 * xx - 1.0) * math.cos(st)
    drho_dy = (2.0 * yy - 1.0) * math.sin(st)
    u1 = np.sin(np.pi * xx) ** 2 * np.sin(2.0 * np.pi * yy)
    u2 = -np.sin(2.0 * np.pi * xx) * np.sin(np.pi * yy) ** 2
    return drho_dt + u1 * drho_dx + u2 * drho_dy
