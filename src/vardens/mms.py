"""Manufactured exact solutions and their source terms.

Every shipped case is separable.  The velocity u(x) is steady by
construction, and density and pressure are sums of (time factor) x (space
factor) terms, rho = sum_k theta_k(t) a_k(x) and p = sum_j phi_j(t) b_j(x).
The sources then split into spatial fields weighted by scalars of time:

    f = sum_k [theta_k'(t) a_k + theta_k(t) u.grad a_k]
    g = (sum_k theta_k a_k) (u.grad)u + sum_j phi_j grad b_j - mu lap u

(plus (1/2) f u for the scheme's momentum source).  The fields a_k,
u.grad a_k, u, (u.grad)u, lap u and grad b_j come from one forward-mode
dual-number pass over space (first partials and the pure second spatial
partials), which avoids hand-transcribing the 3D nonlinear terms.  Each
step then evaluates only the time factors, as duals on a 0-d time
variable, and a few weighted sums.

The plain (non-dual) rho, u and p are an independent transcription, used
for initial data, error tracking and tests.  The plain rho is its own list
of (time factor) x (space factor) terms.  ``ExactCase`` keeps, for the
last point set only, the plain rho's space factors, the values of the
steady u and the sources' spatial fields, so a run that loads its sources
and tracks its errors at one set of quadrature points evaluates no
trigonometric or power function of the points after the first step.  The
terms are summed in the order of the closed-form formulas, so the cached
values equal those formulas bit for bit.

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

# Points per chunk of the dual pass in ``ExactCase._spatial``; each dual
# temporary then holds at most a few MB.
CHUNK_POINTS = 8192


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

    def _chain(self, val, dfdu, d2fdu2):
        """Unary composition f(self), given f, f' and f'' at ``self.val``.

        An unbounded second derivative (the |.|^c kink) propagates as
        inf/nan in the hessian slots only; values and first partials stay
        finite, so the quiet arithmetic is intentional.
        """
        d = self.dim
        grad = dfdu[..., None] * self.grad
        with np.errstate(invalid="ignore"):
            hess = (
                d2fdu2[..., None] * self.grad[..., :d] ** 2
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
    s, c = np.sin(u.val), np.cos(u.val)
    return u._chain(s, c, -s)


def dcos(u: Dual) -> Dual:
    s, c = np.sin(u.val), np.cos(u.val)
    return u._chain(c, -s, -c)


def dabspow(u: Dual, c: float) -> Dual:
    """|u|^c with the right-limit sign convention on the kink set u = 0.

    For 1 < c < 2 the value and first derivative stay finite through the
    kink; the unbounded second derivative is reported as inf there.
    """
    sign = np.where(np.asarray(u.val) >= 0.0, 1.0, -1.0)
    v = np.abs(u.val)
    with np.errstate(divide="ignore"):
        fpp = c * (c - 1.0) * v ** (c - 2.0)
    return u._chain(v ** c, c * sign * v ** (c - 1.0), fpp)


def _space_vars(x):
    d = x.shape[-1]
    return [Dual.space_var(x[..., k], k, d) for k in range(d)]


def make_vars(x, t):
    """Seed dual variables for points x (..., d) at scalar time t."""
    x = np.asarray(x, dtype=float)
    return _space_vars(x), Dual.time_var(t, x.shape[:-1], x.shape[-1])


def _at(factor, var):
    """A term's factor at the dual variable(s) var; a constant is itself."""
    return factor(var) if callable(factor) else factor


def _sum_terms(field, w):
    """sum_k w_k field[..., k] as one matrix-vector product: a product per
    point of its own small matrix would cost ten times as much."""
    return (field.reshape(-1, len(w)) @ w).reshape(field.shape[:-1])


class _LastPointSet:
    """Fields of the points, kept for the point set of the last call.

    ``compute`` maps a field's name to its function of the points.  Points
    are compared by value, so an array changed in place is computed
    afresh; the fields share one copy of the points.  One set is enough: a
    run loads its sources and tracks its errors at the same quadrature
    points every step, and holding no other set keeps the memory of a
    study, which runs one case on mesh after mesh, bounded.
    """

    def __init__(self, compute):
        self.compute = compute
        self.points = None
        self.values = {}

    def __call__(self, name, x):
        if self.points is None or not np.array_equal(self.points, x):
            self.points, self.values = x.copy(), {}
        if name not in self.values:
            self.values[name] = self.compute[name](x)
        return self.values[name]


class ExactCase:
    """Separable closed-form (rho, u, p) with derived sources f and g.

    ``rho_terms`` and ``p_terms`` are sequences of (time factor, space
    factor) pairs.  A time factor maps a dual time variable to a Dual, a
    space factor maps the dual coordinates to a Dual, and either may be a
    constant instead.  ``u_space`` maps the dual coordinates to the list of
    velocity components.  The plain fields are an independent transcription
    of the same fields: ``rho_plain_terms`` are (time factor, space factor)
    pairs of a float time and of points (..., d), either of which may be a
    constant; ``u_plain`` maps points to the steady velocity and ``p_plain``
    maps (points, time) to the pressure.
    """

    def __init__(self, name, dim, rho_terms, u_space, p_terms,
                 rho_plain_terms, u_plain, p_plain):
        self.name = name
        self.dim = dim
        self._rho_terms = rho_terms
        self._u_space = u_space
        self._p_terms = p_terms
        self._rho_plain_terms = rho_plain_terms
        self._p = p_plain
        # ``_spatial`` is looked up at call time, so it can be replaced
        self._cache = _LastPointSet({
            "rho": lambda x: [_at(a, x) for _, a in rho_plain_terms],
            "u": u_plain,
            "sources": lambda x: self._spatial(x),
        })

    # plain evaluations -----------------------------------------------
    def rho(self, x, t):
        """sum_k theta_k(t) a_k(x) in term order, the a_k kept for the last
        point set."""
        space = self._cache("rho", np.asarray(x, dtype=float))
        out = None
        for (theta, _), a in zip(self._rho_plain_terms, space):
            term = a * _at(theta, t)
            out = term if out is None else out + term
        return out

    def u(self, x, t):
        """The steady velocity, kept for the last point set; a new array
        each call."""
        return self._cache("u", np.asarray(x, dtype=float)).copy()

    def p(self, x, t):
        """Pressure re-centered to zero mean over the unit domain."""
        x = np.asarray(x, dtype=float)
        return self._p(x, t) - self.p_mean(t)

    def p_mean(self, t):
        pts, w = _unit_box_rule(self.dim, 12)
        return float(w @ self._p(pts, t))

    # dual closures composed from the terms -----------------------------
    def _rho_dual(self, X, T):
        return sum(_at(a, T) * _at(b, X) for a, b in self._rho_terms)

    def _u_dual(self, X, T):
        return self._u_space(X)

    def _p_dual(self, X, T):
        return sum(_at(a, T) * _at(b, X) for a, b in self._p_terms)

    # sources: spatial fields once, then time-weighted sums -------------
    def _spatial(self, x):
        """The sources' spatial fields at points x (..., d), one dual pass.

        Every field has the point axes first.  ``a`` and ``u_grad_a`` stack
        a_k and u.grad a_k over the density terms in the last axis, and
        ``grad_b`` stacks grad b_j over the pressure terms there too;
        ``u``, ``u_grad_u`` and ``lap_u`` carry the velocity in the last
        axis.  The pass runs over ``CHUNK_POINTS`` points at a time, so its
        dual temporaries do not grow with the point set.
        """
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, x.shape[-1])
        out = {}
        for a in range(0, max(len(pts), 1), CHUNK_POINTS):
            part = self._spatial_points(pts[a:a + CHUNK_POINTS])
            for key, v in part.items():
                if key not in out:
                    out[key] = np.empty((len(pts),) + v.shape[1:])
                out[key][a:a + CHUNK_POINTS] = v
        return {key: v.reshape(x.shape[:-1] + v.shape[1:])
                for key, v in out.items()}

    def _spatial_points(self, x):
        """``_spatial`` on a flat point list (npts, d)."""
        X = _space_vars(x)
        u = self._u_space(X)
        uval = np.stack([c.val for c in u], axis=-1)

        def along_u(q):
            return np.einsum("...d,...d->...", uval, q.spatial_grad())

        a = [X[0]._lift(_at(s, X)) for _, s in self._rho_terms]
        b = [X[0]._lift(_at(s, X)) for _, s in self._p_terms]
        return {
            "a": np.stack([s.val for s in a], axis=-1),
            "u_grad_a": np.stack([along_u(s) for s in a], axis=-1),
            "u": uval,
            "u_grad_u": np.stack([along_u(c) for c in u], axis=-1),
            "lap_u": np.stack([c.laplacian() for c in u], axis=-1),
            "grad_b": np.stack([s.spatial_grad() for s in b], axis=-1),
        }

    def _time_factors(self, terms, t):
        """Values and time derivatives of the terms' time factors at t."""
        T = Dual.time_var(t, (), self.dim)
        w = [T._lift(_at(a, T)) for a, _ in terms]
        return np.array([[float(v.val), float(v.dt())] for v in w]).T

    def _f(self, fields, t):
        """f = sum_k theta_k' a_k + theta_k u.grad a_k at time t from the
        fields of ``_spatial``."""
        theta, dtheta = self._time_factors(self._rho_terms, t)
        return (_sum_terms(fields["a"], dtheta)
                + _sum_terms(fields["u_grad_a"], theta))

    def _g(self, fields, t, mu, scheme=False):
        """g = rho (u.grad)u + sum_j phi_j grad b_j - mu lap u at time t
        from the fields of ``_spatial`` (u is steady), with (1/2) f u added
        when ``scheme`` is set."""
        theta, _ = self._time_factors(self._rho_terms, t)
        phi, _ = self._time_factors(self._p_terms, t)
        rho = _sum_terms(fields["a"], theta)
        g = (rho[..., None] * fields["u_grad_u"]
             + _sum_terms(fields["grad_b"], phi) - mu * fields["lap_u"])
        if scheme:
            g += 0.5 * self._f(fields, t)[..., None] * fields["u"]
        return g

    def source_f(self, x, t):
        """Transport source: d_t rho + u . grad rho (u is divergence-free)."""
        return self._f(self._spatial(x), t)

    def source_g(self, x, t, mu):
        """Momentum source: rho d_t u + rho (u.grad)u + grad p - mu lap u."""
        return self._g(self._spatial(x), t, mu)

    def scheme_momentum_source(self, x, t, mu):
        """Momentum source consistent with the stabilized discrete form.

        The velocity step's stabilization pair amounts to adding
        (1/2)(d_t rho + div(rho u)) u to the momentum balance, which equals
        (1/2) f u once the transport equation carries the source f.  With
        f = 0 this coincides with ``source_g``; with manufactured sources
        the compensation is required for the exact solution to remain a
        solution of the discrete form.
        """
        return self._g(self._spatial(x), t, mu, scheme=True)

    def div_u(self, x, t):
        u = self._u_dual(*make_vars(x, t))
        return sum(u[k].spatial_grad()[..., k] for k in range(self.dim))

    def make_source_evaluator(self, mu):
        return SourceEvaluator(self, mu)


class SourceEvaluator:
    """Per-run source closures: f and the scheme's momentum source g at
    viscosity ``mu``.

    The transport and momentum sources are needed at the same quadrature
    points every step.  The spatial fields come from the case's cache of
    the last point set, so the dual pass over space runs only when the
    points change; a new time costs the scalar time factors and a few
    weighted sums of the cached fields.  The evaluator itself keeps no
    array.
    """

    def __init__(self, case, mu):
        self.case = case
        self.mu = mu

    def _fields(self, x):
        return self.case._cache("sources", np.asarray(x, dtype=float))

    def f(self, x, t):
        return self.case._f(self._fields(x), t)

    def g(self, x, t):
        return self.case._g(self._fields(x), t, self.mu, scheme=True)


def _unit_box_rule(dim, n):
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts = np.stack([g.ravel() for g in np.meshgrid(*[x] * dim, indexing="ij")],
                   axis=-1)
    weights = np.meshgrid(*[w] * dim, indexing="ij")
    return pts, np.prod([g.ravel() for g in weights], axis=0)


# --------------------------------------------------------------------------
# case definitions
# --------------------------------------------------------------------------

def _square2d():
    rho_terms = (
        (1.0, 2.0),
        (lambda T: dcos(dsin(T)), lambda X: X[0] * (X[0] - 1.0)),
        (lambda T: dsin(dsin(T)), lambda X: X[1] * (X[1] - 1.0)),
    )

    def u_space(X):
        x, y = X
        sx, sy = dsin(math.pi * x), dsin(math.pi * y)
        return [
            sx * sx * dsin(2.0 * math.pi * y),
            -1.0 * dsin(2.0 * math.pi * x) * sy * sy,
        ]

    p_terms = ((lambda T: T, lambda X: X[0] - 0.5),
               (1.0, lambda X: X[1] - 0.5))

    # rho = 2 + x (x - 1) cos(sin t) + y (y - 1) sin(sin t)
    rho_plain = (
        (1.0, 2.0),
        (lambda t: math.cos(math.sin(t)),
         lambda x: x[..., 0] * (x[..., 0] - 1.0)),
        (lambda t: math.sin(math.sin(t)),
         lambda x: x[..., 1] * (x[..., 1] - 1.0)),
    )

    def u(x):
        px, py = np.pi * x[..., 0], np.pi * x[..., 1]
        return np.stack([
            np.sin(px) ** 2 * np.sin(2.0 * py),
            -np.sin(2.0 * px) * np.sin(py) ** 2,
        ], axis=-1)

    def p(x, t):
        return t * x[..., 0] + x[..., 1] - 0.5 * (t + 1.0)

    return ExactCase("square2d", 2, rho_terms, u_space, p_terms, rho_plain,
                     u, p)


def _cube_velocity_dual(X):
    s = [dsin(math.pi * c) for c in X]
    s2 = [dsin(2.0 * math.pi * c) for c in X]
    return [
        s[0] * s[0] * s2[1] * s2[2],
        s2[0] * (s[1] * s[1]) * s2[2],
        -2.0 * s2[0] * s2[1] * (s[2] * s[2]),
    ]


def _cube_velocity(x):
    # the six distinct sines, each evaluated once
    px, py, pz = np.pi * x[..., 0], np.pi * x[..., 1], np.pi * x[..., 2]
    sx, sy, sz = np.sin(px) ** 2, np.sin(py) ** 2, np.sin(pz) ** 2
    s2x, s2y, s2z = np.sin(2 * px), np.sin(2 * py), np.sin(2 * pz)
    return np.stack([
        sx * s2y * s2z, s2x * sy * s2z, -2.0 * s2x * s2y * sz,
    ], axis=-1)


# p = t (x + y - 1/2) + (z - 1/2) in both 3D cases
_CUBE_PRESSURE_TERMS = (
    (lambda T: T, lambda X: X[0] + X[1] - 0.5),
    (1.0, lambda X: X[2] - 0.5),
)


def _cube_pressure(x, t):
    return t * (x[..., 0] + x[..., 1]) + x[..., 2] - 0.5 * (t + 1.0)


def _cube3d():
    rho_terms = (
        (1.0, 2.0),
        (lambda T: dsin(math.pi * T + 0.5 * math.pi),
         lambda X: (1.0 / 3.0) * (dsin(math.pi * X[0]) + dsin(math.pi * X[1])
                                  + dsin(math.pi * X[2]))),
    )

    # rho = 2 + (1/3) (sin pi x + sin pi y + sin pi z) sin(pi t + pi/2)
    rho_plain = (
        (1.0, 2.0),
        (lambda t: math.sin(math.pi * t + 0.5 * math.pi),
         lambda x: (1.0 / 3.0) * np.sin(np.pi * x).sum(axis=-1)),
    )

    return ExactCase("cube3d", 3, rho_terms, _cube_velocity_dual,
                     _CUBE_PRESSURE_TERMS, rho_plain, _cube_velocity,
                     _cube_pressure)


_NONSMOOTH_C = 1.51


def _cube3d_nonsmooth():
    c = _NONSMOOTH_C
    rho_terms = (
        (1.0, 2.0),
        (lambda T: dcos(dsin(T)), lambda X: dabspow(X[0] - 0.5, c)),
        (lambda T: dsin(dsin(T)),
         lambda X: dabspow(X[1] - 0.5, c) + dabspow(X[2] - 0.5, c)),
    )

    # rho = 2 + |x - 1/2|^c cos(sin t) + (|y - 1/2|^c + |z - 1/2|^c) sin(sin t)
    rho_plain = (
        (1.0, 2.0),
        (lambda t: math.cos(math.sin(t)),
         lambda x: np.abs(x[..., 0] - 0.5) ** c),
        (lambda t: math.sin(math.sin(t)),
         lambda x: np.abs(x[..., 1] - 0.5) ** c + np.abs(x[..., 2] - 0.5) ** c),
    )

    return ExactCase(
        "cube3d_nonsmooth", 3, rho_terms, _cube_velocity_dual,
        _CUBE_PRESSURE_TERMS, rho_plain, _cube_velocity, _cube_pressure,
    )


CASES = {
    "square2d": _square2d,
    "cube3d": _cube3d,
    "cube3d_nonsmooth": _cube3d_nonsmooth,
}


def make_case(name: str) -> ExactCase:
    try:
        return CASES[name]()
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; choose from {sorted(CASES)}"
        ) from None


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
