"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The full suite covers the desk-scale convergence studies (2D space/time,
3D smooth and limited-smoothness), unconditional energy stability, exact
mass conservation, the divergence-free post-processing contracts, the
upwind dissipation identity, discrete incompressibility, and the
source-term oracles.  The full-scale 3D regimes run only with
VARDENS_EXTENDED=1: side by side on a 2-core host, one BLAS thread each,
criterion 3 took 9.5 minutes and criterion 4 9.7 minutes, each process
peaking near 1.5 GB (results/README.md).  Each of their rows prints its h,
errors and seconds as it finishes, and each report ends with the study's
CSV, the file ``vardens study`` writes.

Run as: pytest tests/test_acceptance.py -v -s
"""

import math
import os

import numpy as np
import pytest

from vardens import assemble
from vardens.harness import (StudySpec, compute_order, records_to_csv,
                             run_study, study_line)
from vardens.mesh import unit_cube_mesh, unit_square_mesh
from vardens.mms import hand_coded_square2d_f, make_case
from vardens.projections import (RtProjectionWorkspace, project_rt_divfree,
                                 rt_divergence_nodal)
from vardens.scheme import SchemeConfig, TimeStepper
from vardens.spaces import FeField, MiniVectorSpace, P2DGSpace

EXTENDED = os.environ.get("VARDENS_EXTENDED", "") == "1"


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _extended_study(spec):
    """The records of ``spec``, each row printed as it finishes, and the
    study's CSV as ``vardens study`` writes it, for the report."""
    records = run_study(spec, progress=lambda r: print(
        f"\n  h={r.h:.6g} E_rho={r.E_rho:.6e} E_u={r.E_u:.6e} "
        f"seconds={r.seconds:.1f}", flush=True))
    return records, "\n" + study_line(spec) + records_to_csv(records)


@pytest.mark.slow
def test_criterion_01_2d_spatial_convergence():
    spec = StudySpec(case="square2d", mode="space",
                     params=[1 / 8, 1 / 10, 1 / 12, 1 / 14],
                     tau=1 / 2048, T=0.25, mu=0.001)
    records = run_study(spec)
    assert not any(r.failed for r in records)
    rho_orders = [r.order_rho for r in records[1:]]
    u_orders = [r.order_u for r in records[1:]]
    decreasing = all(
        a.E_rho > b.E_rho and a.E_u > b.E_u
        for a, b in zip(records, records[1:])
    )
    ok = (
        decreasing
        and all(1.7 <= o <= 2.3 for o in rho_orders)
        and all(1.8 <= o <= 2.3 for o in u_orders)
    )
    _report(
        "criterion 1 (2D spatial, tau=1/2048, h=1/8..1/14)", ok,
        f"order_rho={[f'{o:.2f}' for o in rho_orders]} "
        f"order_u={[f'{o:.2f}' for o in u_orders]} "
        f"E_rho={[f'{r.E_rho:.3e}' for r in records]} "
        f"E_u={[f'{r.E_u:.3e}' for r in records]}",
    )


def test_criterion_02_2d_temporal_convergence():
    """Temporal sweep with h = sqrt(tau).

    The acceptance band applies to the observed order of the sweep (the
    study-level slope); individual pairs wobble because the velocity
    error carries the h^(3/2+alpha) component the convergence theory
    predicts, which scales like tau^(3/4+...) under this coupling.
    """
    spec = StudySpec(case="square2d", mode="time",
                     params=[1 / 16, 1 / 36, 1 / 64, 1 / 100],
                     T=0.25, mu=0.001)
    records = run_study(spec)
    assert not any(r.failed for r in records)
    decreasing = all(
        a.E_rho > b.E_rho and a.E_u > b.E_u
        for a, b in zip(records, records[1:])
    )
    first, last = records[0], records[-1]
    rho_order = compute_order(first.E_rho, first.tau, last.E_rho, last.tau)
    u_order = compute_order(first.E_u, first.tau, last.E_u, last.tau)
    ok = decreasing and 0.9 <= rho_order <= 1.2 and 0.9 <= u_order <= 1.2
    _report(
        "criterion 2 (2D temporal, h=sqrt(tau))", ok,
        f"observed order_rho={rho_order:.3f} order_u={u_order:.3f} "
        f"(pairwise rho={[f'{r.order_rho:.2f}' for r in records[1:]]} "
        f"u={[f'{r.order_u:.2f}' for r in records[1:]]})",
    )


def _desk_3d(case_name, criterion):
    spec = StudySpec(case=case_name, mode="space",
                     params=[1 / 4, 1 / 6, 1 / 8],
                     tau=1 / 512, T=0.25, mu=0.001)
    records = run_study(spec)
    assert not any(r.failed for r in records)
    decreasing = all(
        a.E_rho > b.E_rho and a.E_u > b.E_u
        for a, b in zip(records, records[1:])
    )
    finest = records[-1]
    ok = decreasing and finest.order_rho >= 1.5 and finest.order_u >= 1.5
    _report(
        criterion, ok,
        f"E_rho={[f'{r.E_rho:.3e}' for r in records]} "
        f"E_u={[f'{r.E_u:.3e}' for r in records]} "
        f"finest orders rho={finest.order_rho:.2f} u={finest.order_u:.2f}",
    )


@pytest.mark.slow
def test_criterion_03_3d_desk_scale_convergence():
    _desk_3d("cube3d", "criterion 3 (3D smooth, desk scale)")


@pytest.mark.slow
def test_criterion_04_3d_nonsmooth_convergence():
    _desk_3d("cube3d_nonsmooth", "criterion 4 (3D limited smoothness, desk scale)")


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set VARDENS_EXTENDED=1 for the "
                    "full-scale 3D regime (about 10 minutes)")
def test_criterion_03_extended_full_table_regime():
    spec = StudySpec(case="cube3d", mode="space",
                     params=[1 / 10, 1 / 12, 1 / 14, 1 / 16],
                     tau=1 / 2048, T=0.25, mu=0.001)
    records, csv = _extended_study(spec)
    orders = [r.order_rho for r in records[1:]] + \
             [r.order_u for r in records[1:]]
    ok = all(1.7 <= o <= 2.4 for o in orders)
    _report("criterion 3 extended (full 3D regime)", ok,
            f"orders={orders}{csv}")


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set VARDENS_EXTENDED=1 for the "
                    "full-scale 3D regime (about 10 minutes)")
def test_criterion_04_extended_full_table_regime():
    spec = StudySpec(case="cube3d_nonsmooth", mode="space",
                     params=[1 / 10, 1 / 12, 1 / 14, 1 / 16],
                     tau=1 / 2048, T=0.25, mu=0.001)
    records, csv = _extended_study(spec)
    orders = [r.order_rho for r in records[1:]]
    ok = all(1.8 <= o <= 2.2 for o in orders)
    _report("criterion 4 extended (full 3D regime)", ok,
            f"rho orders={orders}{csv}")


@pytest.fixture(scope="module")
def stability_run():
    case = make_case("square2d")
    mesh = unit_square_mesh(8)
    config = SchemeConfig(tau=1 / 64, mu=0.001, n_steps=32,
                          cutoff_mode="strict")
    stepper = TimeStepper(mesh, config)
    state0 = stepper.initialize(lambda x: case.rho(x, 0.0),
                                lambda x: case.u(x, 0.0))
    energy0 = stepper.energy(state0)
    mass0 = float(stepper.ones_rho @ state0.rho.coeffs)
    state, diags = state0, []
    for _ in range(config.n_steps):
        state, diag = stepper.step(state)
        diags.append(diag)
    return stepper, energy0, mass0, diags


def test_criterion_05_energy_stability(stability_run):
    _, energy0, _, diags = stability_run
    prev = energy0
    worst = -np.inf
    for d in diags:
        worst = max(worst, d["energy"] + d["viscous_dissipation"] - prev)
        prev = d["energy"]
    ok = worst <= 1e-9
    _report(
        "criterion 5 (energy stability, 32 zero-source steps)", ok,
        f"worst per-step slack (incl. viscous dissipation) = {worst:.3e}",
    )


def test_criterion_06_mass_conservation(stability_run):
    _, _, mass0, diags = stability_run
    drift = max(abs(d["mass"] - mass0) for d in diags)
    ok = drift <= 1e-9
    _report("criterion 6 (discrete mass conservation)", ok,
            f"max |mass drift| = {drift:.3e}")


@pytest.mark.parametrize("make_mesh,label", [
    (unit_square_mesh, "2D"), (unit_cube_mesh, "3D"),
])
def test_criterion_07_postprocessing_invariants(make_mesh, label):
    mesh = make_mesh(4)
    ws = RtProjectionWorkspace(mesh)
    vel = MiniVectorSpace(mesh)
    mini_tab = assemble.ScalarTab(vel.scalar, ws.geom)
    fq = assemble.FacetQuadrature(mesh, 6)
    bflux_tab = assemble.RTFacetFlux(ws.rt_space, fq, mesh.boundary_facets)
    rng = np.random.default_rng(1234)
    worst = {"div": 0.0, "flux": 0.0, "ortho": 0.0, "idem": 0.0}
    for _ in range(100):
        v = FeField(vel, rng.standard_normal(vel.n_dofs))
        sigma = project_rt_divfree(ws, v)
        worst["div"] = max(worst["div"],
                           np.abs(rt_divergence_nodal(sigma)).max())
        worst["flux"] = max(worst["flux"],
                            np.abs(assemble.eval_rt_flux(bflux_tab, sigma)).max())
        w, _ = ws.project(assemble.eval_rt(ws.rt_tab, FeField(
            ws.rt_space, rng.standard_normal(ws.rt_space.n_dofs))))
        vv = assemble.eval_mini_vector(mini_tab, v)
        sv = assemble.eval_rt(ws.rt_tab, sigma)
        wv = assemble.eval_rt(ws.rt_tab, w)
        worst["ortho"] = max(worst["ortho"], abs(assemble.integrate(
            ws.geom, np.einsum("cqd,cqd->cq", vv - sv, wv))))
        again, _ = ws.project(assemble.eval_rt(ws.rt_tab, sigma))
        worst["idem"] = max(worst["idem"],
                            np.abs(again.coeffs - sigma.coeffs).max())
    ok = (worst["div"] <= 1e-11 and worst["flux"] <= 1e-11
          and worst["ortho"] <= 1e-10 and worst["idem"] <= 1e-10)
    _report(
        f"criterion 7 (post-processing invariants, {label}, 100 fields)", ok,
        f"div={worst['div']:.2e} flux={worst['flux']:.2e} "
        f"ortho={worst['ortho']:.2e} idem={worst['idem']:.2e}",
    )


def test_criterion_08_rt_projection_rate():
    case = make_case("square2d")
    errs = []
    for n in (8, 16, 32):
        mesh = unit_square_mesh(n)
        ws = RtProjectionWorkspace(mesh)
        sigma, _ = ws.project(case.u(ws.geom.points, 0.0))
        geom = assemble.CellQuadrature(mesh, 8)
        rt_tab = assemble.RTTab(ws.rt_space, geom)
        diff = assemble.eval_rt(rt_tab, sigma) - case.u(geom.points, 0.0)
        errs.append(math.sqrt(assemble.integrate(
            geom, np.einsum("cqd,cqd->cq", diff, diff))))
    orders = [math.log(a / b) / math.log(2.0) for a, b in zip(errs, errs[1:])]
    ok = all(o >= 1.8 for o in orders)
    _report("criterion 8 (divergence-free projection rate)", ok,
            f"errors={[f'{e:.3e}' for e in errs]} "
            f"orders={[f'{o:.2f}' for o in orders]}")


def test_criterion_09_upwind_identity():
    worst, worst_neg = 0.0, 0.0
    rng = np.random.default_rng(99)
    for make_mesh, pairs in ((unit_square_mesh, 50), (unit_cube_mesh, 10)):
        mesh = make_mesh(4)
        ws = RtProjectionWorkspace(mesh)
        geom = ws.geom
        p2 = P2DGSpace(mesh)
        tab = assemble.ScalarTab(p2, geom)
        fq = assemble.FacetQuadrature(mesh, 6)
        trace = assemble.DGFacetTrace(p2, fq)
        flux_tab = assemble.RTFacetFlux(ws.rt_space, fq, mesh.interior_facets)
        for _ in range(pairs):
            w, _ = ws.project(assemble.eval_rt(ws.rt_tab, FeField(
                ws.rt_space, rng.standard_normal(ws.rt_space.n_dofs))))
            rho = FeField(p2, rng.standard_normal(p2.n_dofs))
            wv = assemble.eval_rt(ws.rt_tab, w)
            s = assemble.eval_rt_flux(flux_tab, w)
            C = assemble.convection_matrix(tab, wv, None)
            U = assemble.upwind_matrix(trace, s)
            lhs = float(rho.coeffs @ ((C - U) @ rho.coeffs))
            minus, plus = assemble.eval_dg_traces(trace, rho)
            rhs = assemble.upwind_jump_quadratic(trace, s, minus, plus)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            worst_neg = min(worst_neg, rhs)
    ok = worst <= 1e-10 and worst_neg >= 0.0
    _report("criterion 9 (upwind dissipation identity, 60 random pairs)", ok,
            f"worst identity residual={worst:.2e}, min dissipation={worst_neg:.2e}")


def test_criterion_10_discrete_incompressibility():
    case = make_case("square2d")
    mesh = unit_square_mesh(8)
    mu = 0.001
    src = case.make_source_evaluator(mu)
    config = SchemeConfig(tau=1 / 64, mu=mu, n_steps=8,
                          cutoff_mode="widened", f=src.f, g=src.g)
    stepper = TimeStepper(mesh, config)
    state = stepper.initialize(lambda x: case.rho(x, 0.0),
                               lambda x: case.u(x, 0.0))
    worst = 0.0
    for _ in range(config.n_steps):
        state, _ = stepper.step(state)
        # recompute (div u_h, q_m) for every pressure basis function
        worst = max(worst, np.abs(stepper.B.T @ state.u.coeffs).max())
    ok = worst <= 1e-10
    _report("criterion 10 (discrete incompressibility over 8 steps)", ok,
            f"max |(div u_h, q_h)| = {worst:.3e}")


def test_criterion_11_source_term_oracle():
    rng = np.random.default_rng(2024)
    worst_fd = 0.0
    for name in ("square2d", "cube3d", "cube3d_nonsmooth"):
        case = make_case(name)
        d = case.dim
        x = rng.uniform(0.02, 0.98, size=(100, d))
        if name == "cube3d_nonsmooth":
            x = np.where(np.abs(x - 0.5) < 0.02, x + 0.05, x)
        for t in (0.08, 0.21):
            h, h2, mu = 1e-6, 1e-4, 0.001
            drho_dt = (case.rho(x, t + h) - case.rho(x, t - h)) / (2 * h)
            grad = np.stack(
                [(case.rho(x + h * np.eye(d)[k], t)
                  - case.rho(x - h * np.eye(d)[k], t)) / (2 * h)
                 for k in range(d)], axis=-1)
            f_fd = drho_dt + np.einsum("pd,pd->p", case.u(x, t), grad)
            rel_f = np.abs(case.source_f(x, t) - f_fd) / np.maximum(
                1.0, np.abs(f_fd))
            du_dt = (case.u(x, t + h) - case.u(x, t - h)) / (2 * h)
            gradu = np.stack(
                [(case.u(x + h * np.eye(d)[k], t)
                  - case.u(x - h * np.eye(d)[k], t)) / (2 * h)
                 for k in range(d)], axis=-2)
            conv = np.einsum("pd,pdk->pk", case.u(x, t), gradu)
            gradp = np.stack(
                [(case.p(x + h * np.eye(d)[k], t)
                  - case.p(x - h * np.eye(d)[k], t)) / (2 * h)
                 for k in range(d)], axis=-1)
            lap = sum((case.u(x + h2 * np.eye(d)[k], t) - 2 * case.u(x, t)
                       + case.u(x - h2 * np.eye(d)[k], t)) / h2 ** 2
                      for k in range(d))
            g_fd = (case.rho(x, t)[:, None] * (du_dt + conv)
                    + gradp - mu * lap)
            rel_g = np.abs(case.source_g(x, t, mu) - g_fd) / np.maximum(
                1.0, np.abs(g_fd))
            worst_fd = max(worst_fd, rel_f.max(), rel_g.max())
    case = make_case("square2d")
    x = rng.uniform(0, 1, size=(100, 2))
    hand = max(
        np.abs(case.source_f(x, t) - hand_coded_square2d_f(x, t)).max()
        for t in (0.0, 0.1, 0.25)
    )
    ok = worst_fd <= 1e-6 and hand <= 1e-10
    _report("criterion 11 (source-term oracle)", ok,
            f"worst FD relative error={worst_fd:.2e}, "
            f"hand-coded deviation={hand:.2e}")
