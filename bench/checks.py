"""Output checks, each computed apart from the code path it checks.

The checks read the finite-element coefficients the scheme returns and the
basis tabulations and quadrature rules that define the discrete spaces.
They do not call the assembly forms, the solvers, the cut-off or the
source evaluator under test:

* the discrete divergence (q, div u_h) is evaluated from the MINI basis
  gradients and scattered with ``np.bincount``, not through
  ``assemble.div_coupling``;
* the nodal divergence of the post-processed field comes from
  ``projections.rt_divergence_nodal`` and its boundary normal flux from
  the RT basis at the boundary facets, not from ``RTFacetFlux``;
* energy, dissipation and mass are quadrature sums of point values, not
  ``TimeStepper.energy`` or the stepper's mass matrices;
* the mass balance integrates the closed-form ``ExactCase.source_f``, not
  ``SourceEvaluator.f`` which the scheme uses.

Every check is a ``Check`` whose value must be finite and at most its limit.
``operations`` gives the checks of each solve the scheme makes (a solve
that breaks one counts as a failed operation); ``energy_check`` and
``error_checks`` judge the whole run.
"""

import math
from dataclasses import dataclass

import numpy as np

from vardens import projections

DIV_LIMIT = 1e-10          # |B^T u| per pressure test function
W_LIMIT = 1e-11            # nodal divergence and boundary flux of w
ENERGY_SLACK = 1e-9        # energy inequality, per step
MASS_DRIFT_LIMIT = 1e-9    # zero sources: |int rho^n - int rho^0|
MASS_BALANCE_LIMIT = 1e-11  # |int rho^{n+1} - int rho^n - tau int f|
REFERENCE_RTOL = 1e-8      # E_rho and E_u against the stored reference


@dataclass
class Check:
    name: str
    value: float
    limit: float

    @property
    def ok(self):
        return bool(math.isfinite(self.value) and self.value <= self.limit)


def _at_points(tab, coeffs):
    """Values (nc, nq) of a scalar field at ``tab``'s quadrature points."""
    return coeffs[tab.cell_dofs] @ tab.vals.T


def _components(stepper, u):
    """Component-major MINI coefficients as a (d, n_scalar) view."""
    return u.coeffs.reshape(stepper.mesh.dim, -1)


def divergence_residual(stepper, u):
    """max_m |(q_m, div u_h)| over the P1 pressure basis."""
    tab, p1 = stepper.mini_hi, stepper.p1_hi
    comps = _components(stepper, u)
    div = np.einsum("kci,cqik->cq", comps[:, tab.cell_dofs], tab.grads)
    local = (tab.geom.wdet * div) @ p1.vals
    r = np.bincount(p1.cell_dofs.ravel(), weights=local.ravel(),
                    minlength=p1.space.n_dofs)
    return float(np.abs(r).max())


class BoundaryFlux:
    """max |w.n| at the boundary facets' quadrature points.

    The RT basis is tabulated there once per stepper and reused per field.
    """

    def __init__(self, stepper):
        mesh = stepper.mesh
        bf = mesh.boundary_facets
        cells = mesh.facet_minus[bf]
        vals, _ = stepper.rt_space.tabulate(cells, stepper.fquad.points[bf])
        self.normal_vals = np.einsum("fqid,fd->fqi", vals,
                                     mesh.facet_normals[bf])
        self.dofs = stepper.rt_space.cell_dofs[cells]

    def __call__(self, w):
        flux = np.einsum("fi,fqi->fq", w.coeffs[self.dofs], self.normal_vals)
        return float(np.abs(flux).max())


def mass(stepper, rho):
    geom = stepper.p2_lo.geom
    return float(np.sum(geom.wdet * _at_points(stepper.p2_lo, rho.coeffs)))


def _cutoff_band(config):
    if config.cutoff_mode == "off":
        return -np.inf, np.inf
    lo, hi = 0.5 * config.rho_min, 1.5 * config.rho_max
    if config.cutoff_mode == "widened":
        return lo / config.widen_factor, hi * config.widen_factor
    return lo, hi


def energy(stepper, state):
    """0.5 int rho^2 + 0.5 int chi(rho) |u|^2 and tau mu ||grad u||^2."""
    cfg = stepper.config
    tab = stepper.mini_hi
    wdet = tab.geom.wdet
    rho = _at_points(stepper.p2_hi, state.rho.coeffs)
    chi = np.clip(rho, *_cutoff_band(cfg))
    comps = _components(stepper, state.u)[:, tab.cell_dofs]
    speed2 = np.einsum("kci,qi->kcq", comps, tab.vals) ** 2
    grads = np.einsum("kci,cqid->kcqd", comps, tab.grads)
    e = 0.5 * float(np.sum(wdet * rho * rho))
    e += 0.5 * float(np.sum(wdet * chi * speed2.sum(axis=0)))
    viscous = cfg.tau * cfg.mu * float(np.sum(wdet * (grads ** 2).sum(axis=(0, 3))))
    return e, viscous


def projection_checks(w, flux):
    return [
        Check("div_w_nodal",
              float(np.abs(projections.rt_divergence_nodal(w)).max()),
              W_LIMIT),
        Check("flux_w_boundary", flux(w), W_LIMIT),
    ]


def operations(stepper, states, integrals=None):
    """The checks of each solve the scheme made, as (label, checks).

    The solves are the projection in ``initialize`` and, for each step, the
    density solve, the velocity solve and the projection.  With
    ``integrals`` (int f(t_n), n = 1..steps) the density solve is held to
    the mass balance, without them to zero mass drift.
    """
    flux = BoundaryFlux(stepper)
    tau = stepper.config.tau
    masses = [mass(stepper, s.rho) for s in states]
    ops = [("initialize: projection", projection_checks(states[0].w, flux))]
    for n, s in enumerate(states[1:], start=1):
        if integrals is None:
            density = Check("mass_drift", abs(masses[n] - masses[0]),
                            MASS_DRIFT_LIMIT)
        else:
            density = Check(
                "mass_balance",
                abs(masses[n] - masses[n - 1] - tau * integrals[n - 1]),
                MASS_BALANCE_LIMIT)
        ops += [
            (f"step {n}: density", [density]),
            (f"step {n}: velocity",
             [Check("div_u", divergence_residual(stepper, s.u), DIV_LIMIT)]),
            (f"step {n}: projection", projection_checks(s.w, flux)),
        ]
    return ops


def source_integrals(case, geom, times):
    """int f(t) for each t, from the closed-form source, on the cell rule
    ``geom`` that the scheme loads its source with."""
    return [float(np.sum(geom.wdet * case.source_f(geom.points, t)))
            for t in times]


def energy_check(stepper, states):
    """Largest E^{n+1} + tau mu ||grad u^{n+1}||^2 - E^n over the steps."""
    slack = -math.inf
    prev, _ = energy(stepper, states[0])
    for s in states[1:]:
        e, viscous = energy(stepper, s)
        slack = max(slack, e + viscous - prev)
        prev = e
    return Check("energy_slack", slack, ENERGY_SLACK)


def error_checks(errors, bounds, reference):
    """E_rho and E_u: finite, under their bounds, equal to the reference."""
    out = []
    for key in ("E_rho", "E_u"):
        value = errors[key]
        out.append(Check(f"{key}_bound", value, bounds[key]))
        if reference is None:
            out.append(Check(f"{key}_reference", math.nan, REFERENCE_RTOL))
        else:
            ref = reference[key]
            out.append(Check(f"{key}_reference", abs(value - ref) / abs(ref),
                             REFERENCE_RTOL))
    return out
