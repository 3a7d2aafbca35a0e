"""Fully discrete, linearized, decoupled time stepper.

One step advances density first and velocity/pressure second:

* density: backward-Euler upwind dG transport, with the transport field
  taken as the divergence-free post-processed velocity of the previous
  step, so mass is conserved exactly and the upwind facet terms are purely
  dissipative;
* velocity/pressure: one linear saddle-point solve on the P1+bubble / P1
  pair with the skew-symmetrized convection and the density-weighted time
  quotient split that makes the discrete energy decay unconditionally;
* post-processing: the new velocity is projected onto the divergence-free,
  zero-flux H(div) subspace and cached for the next density step.

``TimeStepper.step`` is the one way to advance a state.  Without sources
each step checks the discrete energy inequality E^{n+1} + tau mu
||grad u^{n+1}||^2 <= E^n to 1e-9 absolute.

Density values entering the velocity step pass through a Lipschitz cut-off
that clamps to [rho_min/2, 3*rho_max/2] (optionally widened by a safety
factor, or disabled); the bounds default to the extrema of the sampled
initial density.  On a cell whose Bernstein coefficients lie inside the
band no sample is clamped, so there chi(rho) = rho is the P2 field itself.
The velocity forms are built from its coefficients on every cell, and the
point values of chi(rho) - rho are added on the other cells only.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assemble, linalg
from .mms import SourceEvaluator
from .projections import (CELL_DEGREE, RtProjectionWorkspace,
                          interpolate_mini, project_dg_cells)
from .spaces import FeField, MiniVectorSpace, P1Space, P2DGSpace

CELL_DEGREE_LOW = CELL_DEGREE  # the workspace's rule: transport + projection
FACET_DEGREE = 6
DENSITY_RESTART = 60         # GMRES restart length of the density solve
HISTORY = 3                  # earlier solutions a state keeps for GMRES starts
WIDEN_FACTOR = 1.5           # the widened cut-off band's safety factor
CUTOFF_MODES = ("strict", "widened", "off")


def _cell_degree_high(dim):
    # 2 * (bubble degree) + 2, the bubble has degree d + 1
    return 2 * (dim + 1) + 2


class PositivityError(Exception):
    pass


class NumericalBreakdownError(Exception):
    """A step without sources broke the discrete energy inequality."""


_SOLVER_ERRORS = (linalg.ResidualError, linalg.SingularMatrixError)
# a step's phases, named as its record keys and as its failure messages
PHASES = {"density": "density solve", "velocity": "velocity solve",
          "projection": "projection"}


@contextmanager
def _names_failure(phase, step, times):
    """Time the phase ``phase`` (a key of ``PHASES``) into ``times[phase]``,
    in seconds; re-raise a solver's ``ResidualError`` or
    ``SingularMatrixError`` as the same type, its message led by
    "<PHASES[phase]> at step <step>: "."""
    t0 = time.perf_counter()
    try:
        yield
    except _SOLVER_ERRORS as exc:
        raise type(exc)(f"{PHASES[phase]} at step {step}: {exc}") from exc
    times[phase] = time.perf_counter() - t0


def _starts(now, earlier):
    """The GMRES start candidates of a step's solve from the solutions of
    the last steps, newest first (``linalg.solve_gmres``): ``now`` alone
    while there is no earlier one, else a stack of ``now`` and the
    polynomial extrapolation through ``now`` and ``earlier`` to the next
    step, of degree len(earlier): 2 x^n - x^(n-1), 3 x^n - 3 x^(n-1) +
    x^(n-2), then 4 x^n - 6 x^(n-1) + 4 x^(n-2) - x^(n-3).  The solutions
    move by O(tau) per step, so the cubic one starts from an O(tau^4)
    residual where smooth; GMRES keeps ``now`` whenever the extrapolation's
    residual is not smaller, such as after a rough first step."""
    if not earlier:
        return now
    k = len(earlier)
    guess = (k + 1) * now
    for j, x in enumerate(earlier, 1):
        guess += (-1) ** j * math.comb(k + 1, j + 1) * x
    return np.stack([now, guess])


def _note_extrapolated(report):
    """Replace the ``start`` of the report's extras, the index of the
    candidate of ``_starts`` that GMRES started from, by ``extrapolated``,
    whether it was the extrapolation."""
    report.extras["extrapolated"] = report.extras.pop("start") == 1


def horizon_steps(T, tau):
    """The number of steps tau in the horizon T; a ``ValueError`` unless
    T / tau is a positive whole number, to 1e-8 relative."""
    steps = T / tau
    n = round(steps)
    if n < 1 or abs(steps - n) > 1e-8 * max(1.0, steps):
        raise ValueError(f"T = {T} is not a whole number of steps "
                         f"tau = {tau}")
    return n


@dataclass
class SchemeConfig:
    """Time step, viscosity, horizon, cut-off and source settings.

    The horizon is ``n_steps``, a positive integer (``horizon_steps`` turns
    a time T into steps).  The sources ``f`` and ``g`` are both None or are
    the bound ``f`` and ``g`` of one ``mms.SourceEvaluator``, which the
    stepper loads them from (``TimeStepper._source_load``).  ``initialize``
    fills a ``rho_min`` or ``rho_max`` left None from the sampled initial
    density, as every shipped caller does.  They stay inputs because that
    density lies inside its own band: only a narrower band reaches the
    clamped path (``_cutoff_cells``, the point rows of a
    ``assemble.FieldWeight``), and the tests of that path set one here.
    """

    tau: float
    mu: float
    n_steps: int
    rho_min: float | None = None
    rho_max: float | None = None
    cutoff_mode: str = "strict"      # strict | widened | off
    f: object = None                 # transport source
    g: object = None                 # momentum source

    def __post_init__(self):
        if not (0 < self.tau < np.inf and 0 < self.mu < np.inf):
            raise ValueError("need 0 < tau < inf and 0 < mu < inf")
        if self.cutoff_mode not in CUTOFF_MODES:
            raise ValueError(f"unknown cutoff mode {self.cutoff_mode!r}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer: "
                             f"{self.n_steps!r}")
        ev = getattr(self.f, "__self__", None)
        bound = ((ev.f, ev.g) if isinstance(ev, SourceEvaluator)
                 else (None, None))
        if (self.f, self.g) != bound:
            raise ValueError("f and g must both be None or be the bound f "
                             "and g of one mms.SourceEvaluator")
        self.check_bounds()

    def check_bounds(self):
        """Reject density bounds that the cut-off cannot use: with it on,
        rho_min must be positive and rho_max at least rho_min."""
        if self.cutoff_mode == "off":
            return
        lo, hi = self.rho_min, self.rho_max
        if lo is not None and lo <= 0:
            raise ValueError("rho_min must be positive with the cutoff on")
        if hi is not None and (hi <= 0 or (lo is not None and hi < lo)):
            raise ValueError("rho_max must be positive and at least rho_min")

    @property
    def widen_factor(self):
        return WIDEN_FACTOR


def cutoff_bounds(config: SchemeConfig):
    """The band (lo, hi) that ``cutoff`` clamps into; None when it is off."""
    if config.cutoff_mode == "off":
        return None
    if config.rho_min is None or config.rho_max is None:
        raise ValueError("cutoff bounds not set; initialize first")
    lo = 0.5 * config.rho_min
    hi = 1.5 * config.rho_max
    if config.cutoff_mode == "widened":
        lo /= WIDEN_FACTOR
        hi *= WIDEN_FACTOR
    return lo, hi


def cutoff(s, config: SchemeConfig):
    """Lipschitz clamp of density samples into the configured band."""
    bounds = cutoff_bounds(config)
    if bounds is None:
        return np.asarray(s, dtype=float)
    return np.clip(s, *bounds)


@dataclass
class StepState:
    n: int
    t: float
    rho: FeField
    u: FeField
    p: FeField
    w: FeField  # cached divergence-free post-processed velocity
    # the (rho, u, p) of at most HISTORY earlier states, newest first: the
    # same field objects, so the next step's GMRES starts (``_starts``)
    # copy nothing and no state holds a chain of states
    history: tuple


class TimeStepper:
    """Discretization bundle and the three step operations on one mesh."""

    def __init__(self, mesh, config: SchemeConfig):
        self.mesh = mesh
        self.config = config
        d = mesh.dim

        self.rho_space = P2DGSpace(mesh)
        self.vel_space = MiniVectorSpace(mesh)
        self.p_space = P1Space(mesh)

        self.workspace = RtProjectionWorkspace(mesh)
        self.geom_lo = self.workspace.geom
        self.geom_hi = assemble.CellQuadrature(mesh, _cell_degree_high(d))
        self.fquad = assemble.FacetQuadrature(mesh, FACET_DEGREE)

        self.p2_lo = assemble.ScalarTab(self.rho_space, self.geom_lo)
        self.p2_hi = assemble.ScalarTab(self.rho_space, self.geom_hi)
        self.mini_hi = assemble.ScalarTab(self.vel_space.scalar, self.geom_hi)
        self.p1_hi = assemble.ScalarTab(self.p_space, self.geom_hi)
        # the chi-weighted MINI mass and convection where chi(rho) = rho
        self.weighted_forms = assemble.WeightedForms(self.mini_hi, self.p2_hi)
        self.trace = assemble.DGFacetTrace(self.rho_space, self.fquad)

        self.mini_lo = self.workspace.mini_tab
        self.rt_space = self.workspace.rt_space
        self.rt_lo = self.workspace.rt_tab
        self.rt_flux = assemble.RTFacetFlux(
            self.rt_space, self.fquad, mesh.interior_facets
        )

        # The P2-dG dofs are numbered cell by cell, so the density matrices
        # are block-sparse over cell blocks: the mass is block diagonal, cell
        # K's block |det J_K| times the reference mass, and the transport
        # operator adds to the upwind matrix's blocks.
        self.rho_convection = assemble.RTConvection(self.p2_lo, self.rt_lo)
        self._rho_ref_mass = self.p2_lo.ref_mass
        self._rho_ref_mass_inv_t = np.linalg.inv(self._rho_ref_mass).T
        self._abs_dets = self.geom_lo.abs_dets
        self.ones_rho = self.rho_mass(np.ones(self.rho_space.n_dofs))
        self.K_s = assemble.stiffness_matrix(self.mini_hi)
        self.B = assemble.div_coupling(self.mini_hi, self.p1_hi)
        self.c_p = assemble.load_vector(self.p1_hi, 1.0)  # P1 basis integrals

        ns = self.vel_space.scalar.n_dofs
        mask = np.ones(ns, dtype=bool)
        mask[self.vel_space.scalar.boundary_dofs()] = False
        self.free_s = np.flatnonzero(mask)
        self.free_vel = np.concatenate(
            [self.free_s + k * ns for k in range(d)]
        )
        self._build_saddle_template()

        self._vel_lu = None
        self._chi_cache = []
        self.sources = getattr(config.f, "__self__", None)  # f's evaluator
        self._loads = None  # built on the first step (``_source_load``)
        self._weights = (None, None)  # the last (t, sources.weights(t))

    def _build_saddle_template(self):
        """Structure of the velocity saddle matrix, built once.

        The matrix is [[diag(A_s)_free, -B_free], [-B_free^T, 0]], with the
        MINI block A_s repeated per component and the last pressure dof
        pinned: its column of B is dropped, as ``RtProjectionWorkspace``
        pins its last multiplier.  The pressure is fixed only up to a
        constant, and with u = 0 on the boundary and sum_m q_m = 1 the
        divergence row of the pinned dof is minus the sum of the others,
        so the pinned system is nonsingular and loses no equation.  It is
        built once with entry numbers in place of values, and only its
        structure and the gather are kept: each step fills its data with one
        gather from [A_s.data, -B.data].
        """
        d = self.mesh.dim
        pattern = self.mini_hi.pattern
        nA, nB = pattern.nnz, self.B.nnz
        A = pattern.with_data(np.arange(1.0, nA + 1))
        B = sp.csr_matrix(
            (np.arange(nA + 1.0, nA + nB + 1), self.B.indices, self.B.indptr),
            shape=self.B.shape,
        )[self.free_vel][:, :-1]
        A_free = A[self.free_s][:, self.free_s]
        K = sp.bmat([[sp.block_diag([A_free] * d), B], [B.T, None]],
                    format="csc")
        self._saddle_shape = K.shape
        self._saddle_index = (K.indices, K.indptr)
        self._saddle_gather = K.data.astype(np.intp) - 1
        self._saddle_fixed = -self.B.data

    # ------------------------------------------------------------------
    def initialize(self, rho0, u0) -> StepState:
        """Project the initial density, interpolate the initial velocity,
        auto-fill the cut-off bounds, and cache the post-processed field.

        ``rho0`` is sampled once at the vertices and once on the high rule,
        ``assemble.CHUNK`` cells at a time at points that are not kept, so
        no array spans the high rule's points on the mesh.  Each chunk's
        samples give its least and greatest value for the bounds and its
        cells' projection (``project_dg_cells``).
        """
        nc, tab = self.mesh.n_cells, self.p2_hi
        at_vertices = rho0(self.mesh.vertices)
        lows, highs = [np.min(at_vertices)], [np.max(at_vertices)]
        coeffs = np.empty((nc, tab.vals.shape[1]))
        for s in assemble._chunks(nc):
            rho_q = rho0(self.geom_hi.map_points(s))
            lows.append(np.min(rho_q))
            highs.append(np.max(rho_q))
            coeffs[s] = project_dg_cells(tab, rho_q, s)
        smin, smax = float(np.min(lows)), float(np.max(highs))
        if smin <= 0.0:
            raise PositivityError(
                f"initial density sampled nonpositive (min {smin:.3e})"
            )
        if self.config.rho_min is None:
            self.config.rho_min = smin
        if self.config.rho_max is None:
            self.config.rho_max = smax
        self.config.check_bounds()

        rho_h = FeField(self.rho_space, coeffs.ravel())
        u_h = interpolate_mini(self.vel_space, u0)
        p_h = FeField(self.p_space, np.zeros(self.p_space.n_dofs))
        with _names_failure("projection", 0, {}):
            w_h, _ = self.workspace.project(u_h)
        return StepState(0, 0.0, rho_h, u_h, p_h, w_h, ())

    # ------------------------------------------------------------------
    def rho_mass(self, x):
        """The density mass times ``x``: the (n_cells, nloc) coefficients
        times the reference mass, scaled by |det J| per cell."""
        y = x.reshape(len(self._abs_dets), -1) @ self._rho_ref_mass
        return (y * self._abs_dets[:, None]).ravel()

    def rho_mass_solve(self, r):
        """The inverse of ``rho_mass``, the density solve's preconditioner."""
        y = r.reshape(len(self._abs_dets), -1) @ self._rho_ref_mass_inv_t
        return (y / self._abs_dets[:, None]).ravel()

    def density_matrix(self, w):
        """M + tau (C - U), M the density mass, for the transport field
        ``w`` as a BSR matrix over cell blocks, and the normal flux of ``w``
        on the interior facets.

        It is the upwind matrix scaled by -tau, with the mass and tau times
        the convection added to its diagonal blocks, which lead their block
        rows (``assemble.upwind_matrix``).
        """
        tau = self.config.tau
        flux = assemble.eval_rt_flux(self.rt_flux, w)
        A = assemble.upwind_matrix(self.trace, flux)
        A.data *= -tau
        A.data[A.indptr[:-1]] += (
            self._abs_dets[:, None, None] * self._rho_ref_mass
            + tau * self.rho_convection.blocks(w))
        return A, flux

    def density_step(self, state: StepState):
        """Upwind dG transport solve for the new density, by GMRES on the
        inverse cell-mass blocks; returns the new density and the solve's
        report.  GMRES starts from the old density or from the extrapolation
        through it and the densities of ``state.history``, whichever has the
        smaller residual (``_starts``).

        The preconditioner ignores the transport, so the iteration count
        grows about linearly with tau: on the unit square at h = 1/16 with
        a density ratio of 100, the first step takes about 250 iterations
        at tau = 1/16 and 3,800 at tau = 1.  GMRES is therefore allowed 400
        restart cycles.  Its report holds, as extras, the relative residual
        GMRES started from, whether that was the extrapolation, the
        matrix's cell blocks and the new density's upwind dissipation,
        tau (1/2) sum_F || |w.nu|^(1/2) [[rho]] ||^2.
        """
        cfg = self.config
        tau = cfg.tau
        t_new = state.t + tau
        A, flux = self.density_matrix(state.w)
        rhs = self.rho_mass(state.rho.coeffs)
        if cfg.f is not None:
            rhs = rhs + tau * self._source_load("f", t_new)
        x, report = linalg.solve_gmres(
            A, rhs, restart=DENSITY_RESTART, maxiter=400 * DENSITY_RESTART,
            preconditioner=self.rho_mass_solve,
            x0=_starts(state.rho.coeffs,
                       [rho.coeffs for rho, _, _ in state.history]),
        )
        _note_extrapolated(report)
        rho_new = FeField(self.rho_space, x)
        report.extras["blocks"] = len(A.indices)
        minus, plus = assemble.eval_dg_traces(self.trace, rho_new)
        report.extras["upwind_dissipation"] = tau * (
            assemble.upwind_jump_quadratic(self.trace, flux, minus, plus))
        return rho_new, report

    def _source_load(self, name, t):
        """The load of the source ``name``, "f" or "g", at time t: f's on
        the P2-dG space (n,), g's on the MINI scalar space per component
        (n, d).  The sources are smooth data; the low rule over-integrates
        them.

        It is the load matrix of ``name`` times its time weights at t.  The
        matrices of both sources come from one dual pass on the first step
        (``mms.SourceEvaluator.loads``) and are kept, and so are the last
        t's weights, which both phases of a step read.
        """
        if self._loads is None:
            self._loads = self.sources.loads({"f": self.p2_lo,
                                              "g": self.mini_lo})
        if self._weights[0] != t:
            self._weights = (t, self.sources.weights(t))
        return self._loads[name] @ self._weights[1][name]

    def _solve_velocity_system(self, K, b, x0):
        """GMRES preconditioned on the right by a lagged factorization.

        ``K`` is the saddle matrix with its last pressure dof pinned
        (``_build_saddle_template``); ``x0`` holds the start candidates in
        its coordinates (``_starts``).  The saddle matrix drifts slowly
        from step to step (only through the cut-off density and lagged
        velocity), so one factorization preconditions many solves.  The
        matrix is factored, with the minimum-degree ordering as it is
        structurally symmetric, when there is no factor, and again when one
        cycle of 40 GMRES iterations does not converge; GMRES then runs
        again from the same candidates, so its report is GMRES's own.  When
        GMRES fails on a factor of this very matrix, its error is raised:
        refactoring would give the same factor.  Every report says in
        ``extras["refreshed"]`` whether the solve refactored, and one that
        factored carries the factor's fill as ``extras["factor_nnz"]``,
        ``SuperLU.nnz``: reading ``L`` or ``U`` instead would make scipy
        keep CSC copies of both for the factor's life.
        """
        refreshed = False
        while True:
            fresh = self._vel_lu is None
            if fresh:
                self._vel_lu = linalg.factorize(K, "mmd")
            try:
                x, report = linalg.solve_gmres(
                    K, b, restart=40, maxiter=40,
                    preconditioner=self._vel_lu.solve, x0=x0,
                )
                break
            except linalg.ResidualError:
                if fresh:
                    raise
                self._vel_lu, refreshed = None, True
        report.extras["refreshed"] = refreshed
        _note_extrapolated(report)
        if fresh:
            report.extras["factor_nnz"] = self._vel_lu.nnz
        return x, report

    def _cutoff_cells(self, rho):
        """The cells where the cut-off may clamp ``rho``, sorted: those with
        a Bernstein coefficient (``P2DGSpace.bernstein``) not inside the
        band by a margin of 64 ulps of its upper end, which covers the
        rounding of the samples.  On every other cell each sample lies
        strictly inside the band, so chi(rho) = rho there.  No cell with
        the cut-off off."""
        band = cutoff_bounds(self.config)
        if band is None:
            return np.empty(0, dtype=np.intp)
        lo, hi = band
        slack = 64 * np.finfo(float).eps * hi
        b = self.rho_space.bernstein(rho.coeffs)
        inside = np.all((b > lo + slack) & (b < hi - slack), axis=1)
        return np.flatnonzero(~inside)

    def _chi_weight(self, rho):
        """chi = cutoff(rho) as an ``assemble.FieldWeight``, and the number
        of its samples on the high rule that the cut-off clamps.

        The weight is ``rho`` itself on every cell plus chi - rho at the
        high-rule points of the cells where the cut-off may clamp
        (``_cutoff_cells``); there ``rho`` is sampled once and cut off, and
        only those samples can be clamped.
        """
        cells = self._cutoff_cells(rho)
        rho_q = np.empty((0, self.geom_hi.npoints))
        if len(cells):
            rho_q = assemble.eval_scalar(self.p2_hi, rho, cells)
        chi = cutoff(rho_q, self.config)
        weight = assemble.FieldWeight(self.weighted_forms, rho, cells,
                                      chi - rho_q)
        return weight, int(np.count_nonzero(chi != rho_q))

    def _weighted_mass(self, rho):
        """The MINI mass matrix weighted by chi = cutoff(rho), and chi and
        its clamped count (``_chi_weight``), cached on the values of ``rho``
        and the band for the last two densities, so what one step builds
        for its new density serves the next step's old one."""
        band = cutoff_bounds(self.config)
        for hit_band, coeffs, hit in self._chi_cache:
            if hit_band == band and np.array_equal(coeffs, rho.coeffs):
                return hit
        weight, clamped = self._chi_weight(rho)
        hit = (assemble.mass_matrix(self.mini_hi, weight), weight, clamped)
        self._chi_cache = self._chi_cache[-1:] + [
            (band, rho.coeffs.copy(), hit)]
        return hit

    # ------------------------------------------------------------------
    def velocity_step(self, state: StepState, rho_new: FeField):
        """Linearized saddle-point solve for the new velocity and pressure;
        returns them and the solve's report.

        The chi-weighted masses of the old and new density and the
        convection by the old velocity weighted by chi(rho_new) are built
        from the fields' cell coefficients (``assemble.WeightedForms``),
        plus point rows on the cells where the cut-off may clamp rho_new:
        there chi - rho and the old velocity are sampled on the high rule,
        chi - rho once for both forms (``_chi_weight``).  The saddle system
        pins the last pressure dof (``_build_saddle_template``).  Its GMRES
        starts from the old velocity and pressure or from the extrapolation
        through them and those of ``state.history`` (``_starts``); the map
        to the pinned coordinates, the free velocity dofs and the pressure
        shifted to 0 at the pinned dof, is linear, so the extrapolation is
        taken on the fields and mapped once.  The new pressure is then
        shifted to zero mean.  Every divergence row is checked, the pinned
        one too, so a pressure load that the velocity cannot meet is
        caught.  Its report holds that residual and, for rho_new, the share
        of its high-rule samples that the cut-off clamped and the count of
        cells where the cut-off may clamp.
        """
        cfg = self.config
        tau = cfg.tau
        d = self.mesh.dim
        t_new = state.t + tau

        M_old, _, _ = self._weighted_mass(state.rho)
        M_new, chi, clamped = self._weighted_mass(rho_new)
        N = assemble.convection_matrix(self.mini_hi, state.u, coef=chi)

        A_s = (
            (0.5 / tau) * (M_old.data + M_new.data)
            + 0.5 * (N.data - N.data[self.mini_hi.pattern.transpose_perm])
            + cfg.mu * self.K_s.data
        )
        source = np.concatenate([A_s, self._saddle_fixed])
        K = sp.csc_matrix((source[self._saddle_gather], *self._saddle_index),
                          shape=self._saddle_shape)

        ns = self.vel_space.scalar.n_dofs
        F = (M_old @ state.u.coeffs.reshape(d, ns).T) / tau
        if cfg.g is not None:
            F += self._source_load("g", t_new)
        b = np.concatenate(
            [F[self.free_s].T.ravel(), np.zeros(self.p_space.n_dofs - 1)]
        )
        u0 = _starts(state.u.coeffs, [u.coeffs for _, u, _ in state.history])
        p0 = _starts(state.p.coeffs, [p.coeffs for _, _, p in state.history])
        x0 = np.concatenate(
            [u0[..., self.free_vel], p0[..., :-1] - p0[..., -1:]], axis=-1
        )
        x, report = self._solve_velocity_system(K, b, x0)

        nf = len(self.free_s)
        u_new = np.zeros(self.vel_space.n_dofs)
        u_new[self.free_vel] = x[: d * nf]
        p_new = np.append(x[d * nf :], 0.0)
        p_new -= (self.c_p @ p_new) / self.c_p.sum()

        div_residual = float(np.abs(self.B.T @ u_new).max())
        if div_residual > 1e-9:
            raise linalg.ResidualError(
                f"discrete divergence constraint {div_residual:.3e}")
        report.extras["div_residual"] = div_residual
        report.extras["cutoff_fraction"] = clamped / (
            self.mesh.n_cells * self.geom_hi.npoints)
        report.extras["cutoff_cells"] = len(chi.cells)
        return (FeField(self.vel_space, u_new), FeField(self.p_space, p_new),
                report)

    # ------------------------------------------------------------------
    def step(self, state: StepState):
        """One full step: density, velocity/pressure, post-processing;
        returns the new state and the step's record.  Only here is the step
        numbered: a solver's failure in a phase is raised again naming the
        phase and the step (``_names_failure``).  Without sources the step
        raises ``NumericalBreakdownError`` when its ``energy`` plus
        ``viscous_dissipation`` exceeds the energy of ``state`` by more than
        1e-9; both chi-weighted masses are cached by then, so the check
        builds no form.

        The record is one flat dict of JSON scalars, built by one rule.
        From the new state: ``n``, ``t``, ``energy`` (0.5||rho||^2 + int
        0.5 chi(rho)|u|^2), ``viscous_dissipation`` (tau mu ||grad u||^2)
        and ``mass`` (int rho).  For each phase p of ``PHASES``: ``p_s``,
        its wall time in seconds, ``p_residual`` and ``p_iterations`` from
        the report it returned, and ``p_<key>`` for each key of that
        report's extras.  Last, ``step_s``, the wall time of the step.
        """
        t0 = time.perf_counter()
        n = state.n + 1
        times = {}
        with _names_failure("density", n, times):
            rho_new, density = self.density_step(state)
        with _names_failure("velocity", n, times):
            u_new, p_new, velocity = self.velocity_step(state, rho_new)
        with _names_failure("projection", n, times):
            w_new, projection = self.workspace.project(u_new)
        history = ((state.rho, state.u, state.p), *state.history)[:HISTORY]
        new = StepState(n, state.t + self.config.tau, rho_new, u_new, p_new,
                        w_new, history)

        viscous = 0.0
        for comp in u_new.coeffs.reshape(self.mesh.dim, -1):
            viscous += float(comp @ (self.K_s @ comp))
        record = {
            "n": n, "t": new.t, "energy": self.energy(new),
            "viscous_dissipation": self.config.tau * self.config.mu * viscous,
            "mass": float(self.ones_rho @ rho_new.coeffs),
        }
        if self.config.f is None:
            spent = record["energy"] + record["viscous_dissipation"]
            before = self.energy(state)
            if spent > before + 1e-9:
                raise NumericalBreakdownError(
                    f"energy inequality violated at step {n}: "
                    f"{spent:.17g} > {before:.17g}")
        for phase, report in zip(PHASES, (density, velocity, projection)):
            record[f"{phase}_s"] = times[phase]
            record[f"{phase}_residual"] = report.residual
            record[f"{phase}_iterations"] = report.iterations
            for key, value in report.extras.items():
                record[f"{phase}_{key}"] = value
        record["step_s"] = time.perf_counter() - t0
        return new, record

    def energy(self, state: StepState):
        """0.5||rho||^2 + int 0.5 chi(rho)|u|^2 for an arbitrary state:
        0.5 rho . rho_mass(rho) + 0.5 sum_k u_k^T M u_k, M the chi-weighted
        mass (cached on the density, ``_weighted_mass``)."""
        M, _, _ = self._weighted_mass(state.rho)
        rho = state.rho.coeffs
        e = 0.5 * float(rho @ self.rho_mass(rho))
        for comp in state.u.coeffs.reshape(self.mesh.dim, -1):
            e += 0.5 * float(comp @ (M @ comp))
        return e
