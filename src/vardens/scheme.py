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

Density values entering the velocity step pass through a Lipschitz cut-off
that clamps to [rho_min/2, 3*rho_max/2] (optionally widened by a safety
factor, or disabled); the bounds default to the extrema of the sampled
initial density.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assemble, linalg
from .projections import RtProjectionWorkspace, interpolate_mini, project_dg
from .spaces import FeField, MiniVectorSpace, P1Space, P2DGSpace

CELL_DEGREE_LOW = 6          # transport + mixed projection forms
FACET_DEGREE = 6


def _cell_degree_high(dim):
    # 2 * (bubble degree) + 2, the bubble has degree d + 1
    return 2 * (dim + 1) + 2


class PositivityError(Exception):
    pass


class NumericalBreakdownError(Exception):
    pass


@dataclass
class SchemeConfig:
    """Time step, viscosity, horizon, cut-off and solver settings."""

    tau: float
    mu: float
    T: float | None = None
    n_steps: int | None = None
    rho_min: float | None = None
    rho_max: float | None = None
    cutoff_mode: str = "strict"      # strict | widened | off
    widen_factor: float = 1.5
    solver_tol: float = 1e-10
    density_solver: str = "auto"     # auto | direct | gmres
    velocity_solver: str = "auto"    # auto | direct | lagged-lu
    f: object = None                 # f(x, t) transport source
    g: object = None                 # g(x, t) momentum source

    def __post_init__(self):
        if self.tau <= 0 or self.mu <= 0:
            raise ValueError("need tau > 0 and mu > 0")
        if self.cutoff_mode not in ("strict", "widened", "off"):
            raise ValueError(f"unknown cutoff mode {self.cutoff_mode!r}")
        if self.n_steps is None:
            if self.T is None:
                raise ValueError("give either T or n_steps")
            steps = self.T / self.tau
            self.n_steps = int(round(steps))
            if abs(steps - self.n_steps) > 1e-8 * max(1.0, steps):
                raise ValueError("T must be an integer multiple of tau")
        if self.T is None:
            self.T = self.n_steps * self.tau
        if self.rho_min is not None and self.cutoff_mode != "off":
            if self.rho_min <= 0:
                raise ValueError("rho_min must be positive with the cutoff on")


def cutoff_bounds(config: SchemeConfig):
    """The band (lo, hi) that ``cutoff`` clamps into; None when it is off."""
    if config.cutoff_mode == "off":
        return None
    if config.rho_min is None or config.rho_max is None:
        raise ValueError("cutoff bounds not set; initialize first")
    lo = 0.5 * config.rho_min
    hi = 1.5 * config.rho_max
    if config.cutoff_mode == "widened":
        lo /= config.widen_factor
        hi *= config.widen_factor
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


@dataclass
class StepDiagnostics:
    n: int
    t: float
    energy: float                 # 0.5||rho||^2 + int 0.5 chi(rho)|u|^2
    viscous_dissipation: float    # tau * mu * ||grad u||^2
    upwind_dissipation: float     # tau * (1/2) sum_F || |w.nu|^(1/2) [[rho]] ||^2
    mass: float                   # int rho
    cutoff_active: bool
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    @staticmethod
    def csv_header():
        return "n,t,energy,dissipation,mass,cutoff_active"

    def csv_row(self):
        dissip = self.viscous_dissipation + self.upwind_dissipation
        return (
            f"{self.n},{self.t:.12g},{self.energy:.17g},"
            f"{dissip:.17g},{self.mass:.17g},{int(self.cutoff_active)}"
        )


class TimeStepper:
    """Discretization bundle and the three step operations on one mesh."""

    def __init__(self, mesh, config: SchemeConfig):
        self.mesh = mesh
        self.config = config
        d = mesh.dim

        self.rho_space = P2DGSpace(mesh)
        self.vel_space = MiniVectorSpace(mesh)
        self.p_space = P1Space(mesh)

        self.geom_lo = assemble.CellQuadrature(mesh, CELL_DEGREE_LOW)
        self.geom_hi = assemble.CellQuadrature(mesh, _cell_degree_high(d))
        self.fquad = assemble.FacetQuadrature(mesh, FACET_DEGREE)

        self.p2_lo = assemble.ScalarTab(self.rho_space, self.geom_lo)
        self.p2_hi = assemble.ScalarTab(self.rho_space, self.geom_hi)
        self.mini_hi = assemble.ScalarTab(self.vel_space.scalar, self.geom_hi)
        self.mini_lo = assemble.ScalarTab(self.vel_space.scalar, self.geom_lo)
        self.p1_hi = assemble.ScalarTab(self.p_space, self.geom_hi)
        self.trace = assemble.DGFacetTrace(self.rho_space, self.fquad)

        self.workspace = RtProjectionWorkspace(mesh, geom=self.geom_lo)
        self.rt_space = self.workspace.rt_space
        self.rt_lo = self.workspace.rt_tab
        self.rt_flux = assemble.RTFacetFlux(
            self.rt_space, self.fquad, mesh.interior_facets
        )

        # fixed matrices
        self.M_rho = assemble.mass_matrix(self.p2_lo)
        self.ones_rho = assemble.load_vector(
            self.p2_lo, np.ones_like(self.geom_lo.wdet)
        )
        self.K_s = assemble.stiffness_matrix(self.mini_hi)
        self.B = assemble.div_coupling(self.mini_hi, self.p1_hi)
        self.c_p = assemble.load_vector(
            self.p1_hi, np.ones_like(self.geom_hi.wdet)
        )

        ns = self.vel_space.scalar.n_dofs
        mask = np.ones(ns, dtype=bool)
        mask[self.vel_space.scalar.boundary_dofs()] = False
        self.free_s = np.flatnonzero(mask)
        self.free_vel = np.concatenate(
            [self.free_s + k * ns for k in range(d)]
        )
        self.B_free = self.B[self.free_vel, :]
        self.Ks_free = self.K_s[self.free_s, :][:, self.free_s]

        self._mass_block_inv = None
        self._vel_lu = None
        self.last_reports = {}

    # ------------------------------------------------------------------
    def initialize(self, rho0, u0) -> StepState:
        """Project the initial density, interpolate the initial velocity,
        auto-fill the cut-off bounds, and cache the post-processed field."""
        samples = np.concatenate(
            [rho0(self.geom_hi.points).ravel(), rho0(self.mesh.vertices)]
        )
        smin, smax = float(samples.min()), float(samples.max())
        if smin <= 0.0:
            raise PositivityError(
                f"initial density sampled nonpositive (min {smin:.3e})"
            )
        if self.config.rho_min is None:
            self.config.rho_min = smin
        if self.config.rho_max is None:
            self.config.rho_max = smax

        rho_h = project_dg(self.p2_hi, rho0)
        u_h = interpolate_mini(self.vel_space, u0)
        p_h = FeField(self.p_space, np.zeros(self.p_space.n_dofs))
        w_h = self.workspace.project(u_h, self.config.solver_tol)
        return StepState(0, 0.0, rho_h, u_h, p_h, w_h)

    # ------------------------------------------------------------------
    def density_step(self, state: StepState, t_new=None) -> FeField:
        """Upwind dG transport solve for the new density."""
        cfg = self.config
        tau = cfg.tau
        if t_new is None:
            t_new = state.t + tau
        wvals = assemble.eval_rt(self.rt_lo, state.w)
        flux = assemble.eval_rt_flux(self.rt_flux, state.w)
        C = assemble.convection_matrix(self.p2_lo, wvals)
        U = assemble.upwind_matrix(self.trace, flux)
        A = self.M_rho + tau * (C - U)
        rhs = self.M_rho @ state.rho.coeffs
        if cfg.f is not None:
            rhs = rhs + tau * assemble.load_vector(
                self.p2_lo, cfg.f(self.geom_lo.points, t_new)
            )
        system = linalg.LinearSystem(A, rhs)
        if self._density_solver() == "direct":
            x, report = linalg.solve_direct(system, cfg.solver_tol)
        else:
            x, report = linalg.solve_gmres(
                system, cfg.solver_tol,
                preconditioner=self._mass_preconditioner(),
            )
        if not np.all(np.isfinite(x)):
            raise NumericalBreakdownError(
                f"density coefficients not finite at step {state.n + 1}"
            )
        self.last_reports["density"] = report
        self.last_reports["upwind_flux"] = flux
        return FeField(self.rho_space, x)

    def _density_solver(self):
        mode = self.config.density_solver
        if mode == "auto":
            return "direct" if self.mesh.dim == 2 else "gmres"
        return mode

    def _mass_preconditioner(self):
        if self._mass_block_inv is None:
            local = np.einsum(
                "cq,qi,qj->cij", self.geom_lo.wdet,
                self.p2_lo.vals, self.p2_lo.vals,
            )
            self._mass_block_inv = np.linalg.inv(local)
        inv = self._mass_block_inv
        nloc = inv.shape[1]

        def apply(r):
            return np.einsum(
                "cij,cj->ci", inv, r.reshape(-1, nloc)
            ).ravel()

        n = self.rho_space.n_dofs
        return spla.LinearOperator((n, n), apply)

    def _solve_velocity_system(self, K, rhs, constraint):
        """Direct solve, or GMRES preconditioned by a lagged factorization.

        The saddle matrix drifts slowly from step to step (only through the
        cut-off density and lagged velocity), so one factorization
        preconditions many subsequent solves; it is refreshed whenever the
        iteration stalls.  The residual contract is enforced either way.
        """
        mode = self.config.velocity_solver
        if mode == "auto":
            mode = "direct" if self.mesh.dim == 2 else "lagged-lu"
        system = linalg.LinearSystem(K, rhs, constraint)
        if mode == "direct":
            return linalg.solve_constrained(system, self.config.solver_tol)

        Kc, b = linalg.augment_with_constraint(K, rhs, constraint)
        if self._vel_lu is None:
            self._vel_lu = linalg.factorize(Kc)
        precond = spla.LinearOperator(Kc.shape, self._vel_lu.solve)
        try:
            x, report = linalg.solve_gmres(
                linalg.LinearSystem(Kc, b), self.config.solver_tol,
                restart=40, maxiter=40, preconditioner=precond,
            )
        except linalg.ResidualError:
            self._vel_lu = linalg.factorize(Kc)
            x = self._vel_lu.solve(b)
            res = np.linalg.norm(Kc @ x - b) / max(np.linalg.norm(b), 1e-300)
            if res > self.config.solver_tol:
                raise
            report = linalg.SolveReport(res, 0, 0.0)
        lam = x[-1]
        x = x[:-1]
        nb = max(np.linalg.norm(rhs), 1.0)
        conflict = np.linalg.norm(K @ x - rhs) / nb
        if conflict > 1e-8:
            raise linalg.ConstraintConflictError(
                f"constraint is inconsistent with the equations "
                f"(original residual {conflict:.3e}, multiplier {lam:.3e})"
            )
        report.extras["multiplier"] = float(lam)
        return x, report

    # ------------------------------------------------------------------
    def velocity_step(self, state: StepState, rho_new: FeField, t_new=None):
        """Linearized saddle-point solve for the new velocity and pressure."""
        cfg = self.config
        tau = cfg.tau
        d = self.mesh.dim
        if t_new is None:
            t_new = state.t + tau

        rho_old_q = assemble.eval_scalar(self.p2_hi, state.rho)
        rho_new_q = assemble.eval_scalar(self.p2_hi, rho_new)
        chi_old = cutoff(rho_old_q, cfg)
        chi_new = cutoff(rho_new_q, cfg)

        M_old = assemble.mass_matrix(self.mini_hi, chi_old)
        M_new = assemble.mass_matrix(self.mini_hi, chi_new)
        u_old_q = assemble.eval_mini_vector(self.mini_hi, state.u)
        N = assemble.convection_matrix(self.mini_hi, u_old_q, coef=chi_new)

        A_s = (
            (0.5 / tau) * (M_old + M_new)
            + 0.5 * (N - N.T)
            + cfg.mu * self.K_s
        )
        A_free = A_s[self.free_s, :][:, self.free_s].tocsr()

        ns = self.vel_space.scalar.n_dofs
        F = np.empty(d * len(self.free_s))
        nf = len(self.free_s)
        # the source load is smooth data; the lower rule over-integrates it
        g_vals = cfg.g(self.geom_lo.points, t_new) if cfg.g is not None else None
        for k in range(d):
            comp = state.u.coeffs[k * ns : (k + 1) * ns]
            Fk = (M_old @ comp) / tau
            if g_vals is not None:
                Fk = Fk + assemble.load_vector(self.mini_lo, g_vals[..., k])
            F[k * nf : (k + 1) * nf] = Fk[self.free_s]

        A_block = sp.block_diag([A_free] * d, format="csr")
        K = sp.bmat(
            [[A_block, -self.B_free], [-self.B_free.T, None]], format="csr"
        )
        np_ = self.p_space.n_dofs
        rhs = np.concatenate([F, np.zeros(np_)])
        constraint = np.concatenate([np.zeros(d * nf), self.c_p])
        x, report = self._solve_velocity_system(K, rhs, constraint)
        if not np.all(np.isfinite(x)):
            raise NumericalBreakdownError(
                f"velocity coefficients not finite at step {state.n + 1}"
            )

        u_new = np.zeros(self.vel_space.n_dofs)
        for k in range(d):
            u_new[k * ns + self.free_s] = x[k * nf : (k + 1) * nf]
        p_new = x[d * nf :]

        div_residual = float(np.abs(self.B.T @ u_new).max())
        if div_residual > 1e-9:
            raise linalg.ResidualError(
                f"discrete divergence constraint {div_residual:.3e} at "
                f"step {state.n + 1}"
            )
        self.last_reports["velocity"] = report
        self.last_reports["div_residual"] = div_residual
        self.last_reports["M_new"] = M_new
        return (
            FeField(self.vel_space, u_new),
            FeField(self.p_space, p_new),
        )

    # ------------------------------------------------------------------
    def step(self, state: StepState):
        """One full step: density, velocity/pressure, post-processing."""
        t0 = time.perf_counter()
        cfg = self.config
        t_new = state.t + cfg.tau
        rho_new = self.density_step(state, t_new)
        u_new, p_new = self.velocity_step(state, rho_new, t_new)
        w_new = self.workspace.project(u_new, cfg.solver_tol)
        new_state = StepState(state.n + 1, t_new, rho_new, u_new, p_new, w_new)
        diag = self._diagnostics(state, new_state, time.perf_counter() - t0)
        return new_state, diag

    def _diagnostics(self, old, new, wall):
        cfg = self.config
        tau = cfg.tau
        d = self.mesh.dim
        ns = self.vel_space.scalar.n_dofs
        M_new = self.last_reports["M_new"]
        energy = 0.5 * float(new.rho.coeffs @ (self.M_rho @ new.rho.coeffs))
        viscous = 0.0
        for k in range(d):
            comp = new.u.coeffs[k * ns : (k + 1) * ns]
            energy += 0.5 * float(comp @ (M_new @ comp))
            viscous += float(comp @ (self.K_s @ comp))
        viscous *= tau * cfg.mu

        minus, plus = assemble.eval_dg_traces(self.trace, new.rho)
        upwind = tau * assemble.upwind_jump_quadratic(
            self.trace, self.last_reports["upwind_flux"], minus, plus
        )
        mass = float(self.ones_rho @ new.rho.coeffs)

        rho_q = assemble.eval_scalar(self.p2_hi, new.rho)
        bounds = cutoff_bounds(cfg)
        active = bounds is not None and bool(
            rho_q.min() < bounds[0] or rho_q.max() > bounds[1]
        )
        return StepDiagnostics(
            new.n, new.t, energy, viscous, upwind, mass, active, wall,
        )

    def energy(self, state: StepState):
        """0.5||rho||^2 + int 0.5 chi(rho)|u|^2 for an arbitrary state."""
        rho_q = assemble.eval_scalar(self.p2_hi, state.rho)
        chi = cutoff(rho_q, self.config)
        M = assemble.mass_matrix(self.mini_hi, chi)
        ns = self.vel_space.scalar.n_dofs
        e = 0.5 * float(state.rho.coeffs @ (self.M_rho @ state.rho.coeffs))
        for k in range(self.mesh.dim):
            comp = state.u.coeffs[k * ns : (k + 1) * ns]
            e += 0.5 * float(comp @ (M @ comp))
        return e

    def run(self, rho0, u0, diag_stream=None, on_step=None,
            check_energy=None):
        """March n_steps steps; returns the final state and all diagnostics.

        With zero sources the per-step energy inequality is asserted
        (tolerance 1e-9 absolute) unless ``check_energy`` is False.  The
        optional ``diag_stream`` receives CSV rows
        (n, t, energy, dissipation, mass, cutoff_active).
        """
        cfg = self.config
        if check_energy is None:
            check_energy = cfg.f is None and cfg.g is None
        state = self.initialize(rho0, u0)
        diagnostics = []
        if diag_stream is not None:
            print(StepDiagnostics.csv_header(), file=diag_stream)
        prev_energy = self.energy(state)
        for _ in range(cfg.n_steps):
            try:
                state, diag = self.step(state)
            except Exception as exc:
                err = NumericalBreakdownError(
                    f"step {state.n + 1} failed: {exc}"
                )
                err.last_state = state
                err.step_index = state.n + 1
                raise err from exc
            diagnostics.append(diag)
            if diag_stream is not None:
                print(diag.csv_row(), file=diag_stream)
            if check_energy:
                if diag.energy + diag.viscous_dissipation > prev_energy + 1e-9:
                    raise NumericalBreakdownError(
                        f"energy inequality violated at step {diag.n}: "
                        f"{diag.energy + diag.viscous_dissipation:.17g} > "
                        f"{prev_energy:.17g}"
                    )
            prev_energy = diag.energy
            if on_step is not None:
                on_step(state, diag)
        return state, diagnostics
