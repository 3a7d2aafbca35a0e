"""Manufactured exact solutions and their source terms.

Every shipped case is separable.  The velocity u(x) is steady by
construction, and density and pressure are sums of (time factor) x (space
factor) terms, rho = sum_k theta_k(t) a_k(x) and p = sum_j phi_j(t) b_j(x).
So each source is a short sum of scalar time weights times fixed spatial
columns:

    f = sum_k [theta_k'(t) a_k + theta_k(t) u.grad a_k]
    g = sum_k theta_k a_k (u.grad)u + sum_j phi_j grad b_j - mu lap u

plus (1/2) f u in the scheme's momentum source.  The columns of f are a_k
and u.grad a_k, weighted by theta_k' and theta_k.  Those of each
component of the scheme's g are a_k (u.grad)u, grad b_j, lap u, a_k u and
(u.grad a_k) u, weighted by theta_k, phi_j, -mu, theta_k'/2 and
theta_k/2.  The columns come from one forward-mode dual-number pass over
space (first partials and the Laplacian), which avoids hand-transcribing
the 3D nonlinear terms; the weights come from the time factors, as duals
on a 0-d time variable.

A run loads its sources at the same quadrature points every step, so
``SourceEvaluator.loads`` integrates every column against the test
functions once, into load matrices; a step's load is then one small
product of a matrix and the step's time weights.  ``scheme.TimeStepper``
loads its sources that way only.  The pointwise sources (``source_f``,
``source_g``, ``scheme_momentum_source`` and the evaluator's ``f`` and
``g``) run the pass over space at each call and keep nothing; they are
the references the loads are checked against.

The plain (non-dual) rho, u and p are an independent transcription, used
for initial data, error tracking and tests.  The plain rho is its own list
of (time factor) x (space factor) terms; the plain p has zero mean by
construction (the dual p enters only through grad p).  ``ExactCase`` keeps,
for the last point set only, the plain rho's space factors and the values
of the steady u, so a run that tracks its errors at one set of quadrature
points evaluates no trigonometric or power function of the points after
the first step.  The terms are summed in the order of the closed-form
formulas, so the cached values equal those formulas bit for bit.

Cases:
    square2d         smooth solution on the unit square
    cube3d           smooth solution in the unit cube
    cube3d_nonsmooth density kink |x - 1/2|^c with c = 1.51 (limited
                     spatial smoothness); keep the mesh subdivision even so
                     interior quadrature points avoid the kink plane
"""

import math

import numpy as np

from . import assemble

# Points per chunk of the dual pass (``ExactCase._spatial``,
# ``SourceEvaluator.loads``); each dual temporary then holds at most a few
# hundred kB.
CHUNK_POINTS = 8192


class Dual:
    """Vectorized dual number: a value, its first partials and its spatial
    Laplacian.

    ``d1`` (m, *shape) holds the d spatial first partials, the partial axis
    first, and, in a number with a time slot, the time partial after them
    (m = d + 1); the pass over space alone carries no time slot (m = d).
    ``lap`` (*shape) holds the Laplacian, the only second-order quantity
    the sources read: a product takes lap(fg) = f lap g + g lap f
    + 2 grad f . grad g, a composition lap phi(u) = phi'(u) lap u
    + phi''(u) |grad u|^2.  A result may share an array with an operand,
    and no operation writes into an operand: products and chains add into
    arrays of their own.
    """

    __slots__ = ("val", "d1", "lap", "dim")

    def __init__(self, val, d1, lap, dim):
        self.val = val
        self.d1 = d1
        self.lap = lap
        self.dim = dim

    @classmethod
    def _seed(cls, values, slot, slots, dim):
        """A variable at ``values``: partial 1 in ``slot`` of ``slots``."""
        values = np.array(values, dtype=float)
        d1 = np.zeros((slots,) + values.shape)
        d1[slot] = 1.0
        return cls(values, d1, np.zeros(values.shape), dim)

    @classmethod
    def time_var(cls, t, shape, dim):
        return cls._seed(np.full(shape, float(t)), dim, dim + 1, dim)

    def _lift(self, other):
        """``other`` as a Dual with this one's shape and slots."""
        if isinstance(other, Dual):
            return other
        return Dual(np.full(self.val.shape, float(other)),
                    np.zeros(self.d1.shape), np.zeros(self.val.shape),
                    self.dim)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.d1 + other.d1,
                        self.lap + other.lap, self.dim)
        return Dual(self.val + other, self.d1, self.lap, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.d1, -self.lap, self.dim)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.val * other, self.d1 * other, self.lap * other,
                        self.dim)
        d = self.dim
        d1 = self.d1 * other.val
        d1 += self.val * other.d1
        lap = (self.d1[:d] * other.d1[:d]).sum(axis=0)
        lap *= 2.0
        lap += self.lap * other.val
        lap += self.val * other.lap
        return Dual(self.val * other.val, d1, lap, d)

    __rmul__ = __mul__

    def _chain(self, val, dfdu, d2fdu2):
        """Unary composition f(self), given f, f' and f'' at ``self.val``.

        An unbounded second derivative (the |.|^c kink) propagates as
        inf/nan in the Laplacian only; values and first partials stay
        finite, so the quiet arithmetic is intentional.
        """
        d = self.dim
        lap = np.square(self.d1[:d]).sum(axis=0)
        with np.errstate(invalid="ignore"):
            lap *= d2fdu2
            lap += self.lap * dfdu
        return Dual(val, self.d1 * dfdu, lap, d)

    # spatial gradient, time derivative, spatial Laplacian
    def spatial_grad(self):
        return np.moveaxis(self.d1[: self.dim], 0, -1)

    def dt(self):
        """The time partial; 0 for a number without a time slot."""
        if len(self.d1) == self.dim:
            return np.zeros(self.val.shape)
        return self.d1[self.dim]

    def laplacian(self):
        return self.lap


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


def _space_vars(x, slots):
    """The coordinates of points x (..., d) as duals with ``slots`` first
    partials: d for the pass over space, d + 1 with a time slot."""
    d = x.shape[-1]
    return [Dual._seed(x[..., k], k, slots, d) for k in range(d)]


def make_vars(x, t):
    """Seed dual variables, with a time slot, for points x (..., d) at
    scalar time t."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return _space_vars(x, d + 1), Dual.time_var(t, x.shape[:-1], d)


def _at(factor, var):
    """A term's factor at the dual variable(s) var; a constant is itself."""
    return factor(var) if callable(factor) else factor


class _LastPointSet:
    """Fields of the points, kept for the point set of the last call.

    ``compute`` maps a field's name to its function of the points.  Points
    are compared by value, so an array changed in place is computed
    afresh; the fields share one copy of the points.  One set is enough: a
    run tracks its errors at the same quadrature points every step, and
    holding no other set keeps the memory of a study, which runs one case
    on mesh after mesh, bounded.
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
    maps (points, time) to the pressure of zero mean over the unit domain.
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
        self._cache = _LastPointSet({
            "rho": lambda x: [_at(a, x) for _, a in rho_plain_terms],
            "u": u_plain,
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
        """The pressure, of zero mean over the unit domain by construction."""
        return self._p(np.asarray(x, dtype=float), t)

    # dual closures composed from the terms -----------------------------
    def _rho_dual(self, X, T):
        return sum(_at(a, T) * _at(b, X) for a, b in self._rho_terms)

    def _p_dual(self, X, T):
        return sum(_at(a, T) * _at(b, X) for a, b in self._p_terms)

    # sources: spatial columns once, then time-weighted sums ------------
    def _spatial(self, x):
        """The sources' spatial columns at points x (..., d), one dual pass
        over space (module docstring).

        "f" holds f's columns (2K, ...): a_k, then u.grad a_k, over the K
        density terms.  "g" holds the scheme's g's per component
        (d, 3K + Kp + 1, ...): a_k (u.grad)u, grad b_j over the Kp
        pressure terms, lap u, a_k u and (u.grad a_k) u.  The point axes
        are last.  The pass runs over ``CHUNK_POINTS`` points at a time,
        so its dual temporaries do not grow with the point set.
        """
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, x.shape[-1])
        out = {}
        for a in range(0, max(len(pts), 1), CHUNK_POINTS):
            part = self._spatial_points(pts[a:a + CHUNK_POINTS])
            for key, v in part.items():
                if key not in out:
                    out[key] = np.empty(v.shape[:-1] + (len(pts),))
                out[key][..., a:a + CHUNK_POINTS] = v
        return {key: v.reshape(v.shape[:-1] + x.shape[:-1])
                for key, v in out.items()}

    def _spatial_points(self, x):
        """``_spatial`` on a flat point list (npts, d)."""
        d = self.dim
        X = _space_vars(x, d)
        u = self._u_space(X)
        uval = np.stack([c.val for c in u])

        def along_u(q):
            return (uval * q.d1[:d]).sum(axis=0)

        a = [X[0]._lift(_at(s, X)) for _, s in self._rho_terms]
        b = [X[0]._lift(_at(s, X)) for _, s in self._p_terms]
        av = np.stack([s.val for s in a])
        u_grad_a = np.stack([along_u(s) for s in a])
        g = np.concatenate([
            av * np.stack([along_u(c) for c in u])[:, None],
            np.stack([s.d1[:d] for s in b], axis=1),
            np.stack([c.laplacian() for c in u])[:, None],
            av * uval[:, None],
            u_grad_a * uval[:, None],
        ], axis=1)
        return {"f": np.concatenate([av, u_grad_a]), "g": g}

    def _time_factors(self, terms, t):
        """Values and time derivatives of the terms' time factors at t."""
        T = Dual.time_var(t, (), self.dim)
        w = [T._lift(_at(a, T)) for a, _ in terms]
        return np.array([[float(v.val), float(v.dt())] for v in w]).T

    def _weights(self, t, mu, half):
        """The time weights of the columns of ``_spatial`` at t: f's
        (theta_k', theta_k) and g's (theta_k, phi_j, -mu, half theta_k',
        half theta_k), half 1/2 for the scheme's g and 0 for g itself."""
        theta, dtheta = self._time_factors(self._rho_terms, t)
        phi, _ = self._time_factors(self._p_terms, t)
        return (np.concatenate([dtheta, theta]),
                np.concatenate([theta, phi, [-mu], half * dtheta,
                                half * theta]))

    def _g(self, x, t, mu, half):
        """g at points x and time t, the components in the last axis, with
        ``half`` f u added: half 1/2 for the scheme's g, 0 for g itself."""
        _, w = self._weights(t, mu, half)
        return np.moveaxis(np.tensordot(w, self._spatial(x)["g"], (0, 1)),
                           0, -1)

    def source_f(self, x, t):
        """Transport source: d_t rho + u . grad rho (u is divergence-free)."""
        w, _ = self._weights(t, 0.0, 0.0)
        return np.tensordot(w, self._spatial(x)["f"], 1)

    def source_g(self, x, t, mu):
        """Momentum source: rho d_t u + rho (u.grad)u + grad p - mu lap u."""
        return self._g(x, t, mu, 0.0)

    def scheme_momentum_source(self, x, t, mu):
        """Momentum source consistent with the stabilized discrete form.

        The velocity step's stabilization pair amounts to adding
        (1/2)(d_t rho + div(rho u)) u to the momentum balance, which equals
        (1/2) f u once the transport equation carries the source f.  With
        f = 0 this coincides with ``source_g``; with manufactured sources
        the compensation is required for the exact solution to remain a
        solution of the discrete form.
        """
        return self._g(x, t, mu, 0.5)

    def div_u(self, x, t):
        u = self._u_space(make_vars(x, t)[0])
        return sum(u[k].spatial_grad()[..., k] for k in range(self.dim))

    def make_source_evaluator(self, mu):
        return SourceEvaluator(self, mu)


class SourceEvaluator:
    """The sources of a run at viscosity ``mu``: f and the scheme's
    momentum source g.

    ``loads`` integrates the sources' spatial columns (module docstring)
    against the test functions once, and ``weights(t)`` gives their time
    weights, so a load at time t is one small product per source; this is
    how ``scheme.TimeStepper`` loads a config's ``f`` and ``g``, which are
    the bound ``f`` and ``g`` of one evaluator.  ``f(x, t)`` and
    ``g(x, t)`` are the same sources at points, the case's
    ``source_f`` and ``scheme_momentum_source``.  The evaluator keeps no
    array.
    """

    def __init__(self, case, mu):
        self.case = case
        self.mu = mu

    def f(self, x, t):
        return self.case.source_f(x, t)

    def g(self, x, t):
        return self.case.scheme_momentum_source(x, t, self.mu)

    def weights(self, t):
        """{"f": f's time weights, "g": the scheme's g's} at time t."""
        return dict(zip("fg", self.case._weights(t, self.mu, 0.5)))

    def loads(self, tabs):
        """The load matrices of the sources named in ``tabs``, {"f": tab,
        "g": tab} on one cell quadrature: the loads of the columns of
        ``ExactCase._spatial`` against the tab's basis, (n_dofs, 2K) for f
        and (n_dofs, d, 3K + Kp + 1) for g.  A source's load at time t is
        its matrix times ``weights(t)``'s vector.  The dual pass runs over
        about ``CHUNK_POINTS`` points of whole cells at a time
        (``assemble.load_matrices``), and nothing is kept here."""
        points = next(iter(tabs.values())).geom.points
        step = max(1, CHUNK_POINTS // points.shape[1])
        cells = [slice(a, a + step) for a in range(0, len(points), step)]
        return assemble.load_matrices(
            tabs, ((s, self.case._spatial(points[s])) for s in cells))


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


# p = t (x + y - 1/2) + (z - 1/2) in both 3D cases, up to a constant
_CUBE_PRESSURE_TERMS = (
    (lambda T: T, lambda X: X[0] + X[1] - 0.5),
    (1.0, lambda X: X[2] - 0.5),
)


def _cube_pressure(x, t):
    return t * (x[..., 0] + x[..., 1] - 1.0) + x[..., 2] - 0.5


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
