"""The cut-off, the two solve steps, and full time-marching."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from vardens import assemble, linalg
from vardens.mesh import unit_cube_mesh, unit_square_mesh
from vardens.mms import make_case
from vardens.projections import project_dg
from vardens.scheme import (PHASES, NumericalBreakdownError,
                            PositivityError, SchemeConfig, StepState,
                            TimeStepper, cutoff, cutoff_bounds,
                            horizon_steps)
from vardens.spaces import FeField


def _config(**kw):
    base = dict(tau=1 / 64, mu=0.001, n_steps=4, cutoff_mode="strict")
    base.update(kw)
    return SchemeConfig(**base)


def _run(st, rho0, u0):
    """Initialize ``st`` from ``rho0`` and ``u0`` and take its n_steps
    steps; returns the last state and every step's record."""
    state = st.initialize(rho0, u0)
    records = []
    for _ in range(st.config.n_steps):
        state, record = st.step(state)
        records.append(record)
    return state, records


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.0, mu=1.0, n_steps=1)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, mu=-1.0, n_steps=1)
    for tau, mu in ((0.1, np.nan), (0.1, np.inf), (np.nan, 1.0),
                    (np.inf, 1.0)):
        with pytest.raises(ValueError, match="0 < tau < inf"):
            SchemeConfig(tau=tau, mu=mu, n_steps=2)
    with pytest.raises(TypeError):
        SchemeConfig(tau=0.1, mu=1.0)  # no n_steps
    for T in (0.25, -1 / 32):  # not a positive whole number of steps
        with pytest.raises(ValueError, match="T = "):
            horizon_steps(T, 0.1)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, mu=1.0, n_steps=1, cutoff_mode="sideways")
    with pytest.raises(ValueError, match="rho_min must be positive"):
        SchemeConfig(tau=0.1, mu=1.0, n_steps=1, rho_min=0.0)
    assert horizon_steps(0.25, 0.05) == 5


@pytest.mark.parametrize("kw", [dict(n_steps=None), dict(n_steps=-3),
                                dict(n_steps=0), dict(n_steps=2.5),
                                dict(n_steps=2.0), dict(n_steps="2")])
def test_config_rejects_a_horizon_that_cannot_be_marched(kw):
    with pytest.raises(ValueError, match="n_steps"):
        SchemeConfig(tau=1 / 64, mu=1e-3, **kw)


def test_config_accepts_a_consistent_horizon():
    assert SchemeConfig(tau=1 / 64, mu=1e-3, n_steps=np.int64(2)).n_steps == 2
    assert horizon_steps(1 / 32, 1 / 64) == 2


@pytest.mark.parametrize("kind", ["plain callable", "two evaluators",
                                  "f without g", "g without f",
                                  "f and g swapped"])
def test_config_rejects_sources_not_of_one_evaluator(kind):
    case = make_case("square2d")
    ev, other = (case.make_source_evaluator(1e-3) for _ in range(2))
    sources = {"plain callable": dict(f=lambda x, t: ev.f(x, t), g=ev.g),
               "two evaluators": dict(f=ev.f, g=other.g),
               "f without g": dict(f=ev.f),
               "g without f": dict(g=ev.g),
               "f and g swapped": dict(f=ev.g, g=ev.f)}[kind]
    with pytest.raises(ValueError, match="one mms.SourceEvaluator"):
        _config(**sources)


def test_config_takes_wrapped_evaluator_sources(monkeypatch):
    """The bound ``f`` and ``g`` of an evaluator pass, also when a tracer
    has wrapped the methods with ``functools.wraps``; the stepper's
    ``sources`` is the evaluator."""
    import functools

    from vardens import mms

    for attr in "fg":
        fn = getattr(mms.SourceEvaluator, attr)
        monkeypatch.setattr(mms.SourceEvaluator, attr,
                            functools.wraps(fn)(lambda *a, fn=fn: fn(*a)))
    ev = make_case("square2d").make_source_evaluator(1e-3)
    st = TimeStepper(unit_square_mesh(2), _config(f=ev.f, g=ev.g))
    assert st.sources is ev
    assert TimeStepper(unit_square_mesh(2), _config()).sources is None


@pytest.mark.parametrize("mode", ["strict", "widened"])
@pytest.mark.parametrize("bounds", [dict(rho_min=3.0, rho_max=0.5),
                                    dict(rho_max=-2.0), dict(rho_max=0.0)])
def test_config_rejects_unusable_rho_max(mode, bounds):
    """rho_max below rho_min or not positive would clamp every sample to
    one value, or to a negative weight of the MINI mass."""
    with pytest.raises(ValueError, match="rho_max"):
        SchemeConfig(tau=0.1, mu=1.0, n_steps=1, cutoff_mode=mode, **bounds)
    # without the cut-off the bounds are not used
    SchemeConfig(tau=0.1, mu=1.0, n_steps=1, cutoff_mode="off", **bounds)


@pytest.mark.parametrize("bounds", [dict(rho_max=1.0), dict(rho_min=3.0)])
def test_initialize_rejects_rho_max_below_the_filled_rho_min(bounds):
    st = TimeStepper(unit_square_mesh(2), _config(**bounds))
    with pytest.raises(ValueError, match="rho_max"):
        st.initialize(lambda x: np.full(x.shape[:-1], 2.0),
                      lambda x: np.zeros_like(x))


@pytest.mark.parametrize("make_mesh,n", [(unit_square_mesh, 8),
                                         (unit_cube_mesh, 3)])
def test_density_mass_matches_the_assembled_mass(make_mesh, n):
    """The reference-block mass and its inverse against the assembled P2-dG
    mass matrix."""
    st = TimeStepper(make_mesh(n), _config())
    M = assemble.mass_matrix(st.p2_lo, None)
    x = np.random.default_rng(7).standard_normal(st.rho_space.n_dofs)
    ref = M @ x
    got = st.rho_mass(x)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    back = st.rho_mass_solve(ref)
    assert np.linalg.norm(back - x) <= 1e-14 * np.linalg.norm(x)


def test_cutoff_branches():
    cfg = _config(rho_min=1.0, rho_max=2.0)
    assert cutoff(1.0, cfg) == 1.0            # chi(s) = s inside the band
    assert cutoff(0.25, cfg) == 0.5           # clamps to rho_min / 2
    assert cutoff(4.0, cfg) == 3.0            # clamps to 3 rho_max / 2
    s = np.linspace(-1, 5, 1201)
    c = cutoff(s, cfg)
    assert np.abs(np.diff(c) / np.diff(s)).max() <= 1.0 + 1e-12  # Lipschitz-1
    wide = _config(rho_min=1.0, rho_max=2.0, cutoff_mode="widened")
    assert cutoff(0.25, wide) == 0.5 / 1.5
    assert cutoff(10.0, wide) == 4.5
    off = _config(rho_min=1.0, rho_max=2.0, cutoff_mode="off")
    assert cutoff(-3.0, off) == -3.0
    with pytest.raises(ValueError, match="initialize first"):
        cutoff_bounds(_config(rho_min=1.0))


def test_initialize_constant_state():
    m = unit_square_mesh(3)
    st = TimeStepper(m, _config())
    state = st.initialize(
        lambda x: np.full(x.shape[:-1], 2.0), lambda x: np.zeros_like(x)
    )
    assert np.abs(state.rho.coeffs - 2.0).max() < 1e-12
    assert np.abs(state.u.coeffs).max() == 0.0
    assert np.abs(state.p.coeffs).max() == 0.0
    assert np.abs(state.w.coeffs).max() < 1e-12
    assert st.config.rho_min == pytest.approx(2.0)
    assert st.config.rho_max == pytest.approx(2.0)


def test_initialize_case_bounds_and_projection_error():
    case = make_case("square2d")
    m = unit_square_mesh(8)
    st = TimeStepper(m, _config())
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    # rho0 = 2 + x(x-1) ranges over [1.75, 2]
    assert st.config.rho_min == pytest.approx(1.75, abs=1e-6)
    assert st.config.rho_max == pytest.approx(2.0, abs=1e-12)
    # the initial density is quadratic, so its projection is exact
    vals = assemble.eval_scalar(st.p2_hi, state.rho)
    assert np.abs(vals - case.rho(st.geom_hi.points, 0.0)).max() < 1e-11


def test_initialize_samples_the_density_a_chunk_at_a_time(monkeypatch):
    """rho0 is sampled at the vertices and then on ``assemble.CHUNK`` cells
    of the high rule at a time; the bounds are those of all the samples and
    the density is the projection of them all, to rounding."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(8), _config())  # 128 cells
    monkeypatch.setattr(assemble, "CHUNK", 40)
    shapes = []

    def rho0(x):
        shapes.append(x.shape[:-1])
        return case.rho(x, 0.0)

    state = st.initialize(rho0, lambda x: case.u(x, 0.0))
    nq = st.geom_hi.npoints
    assert shapes == [(st.mesh.n_vertices,)] + [(40, nq)] * 3 + [(8, nq)]
    values = case.rho(st.geom_hi.points, 0.0)
    samples = np.concatenate([values.ravel(),
                              case.rho(st.mesh.vertices, 0.0)])
    assert (st.config.rho_min, st.config.rho_max) == (samples.min(),
                                                      samples.max())
    ref = project_dg(st.p2_hi, values).coeffs
    assert np.abs(state.rho.coeffs - ref).max() <= 1e-14 * np.abs(ref).max()


def test_initialize_rejects_nonpositive_density():
    m = unit_square_mesh(2)
    st = TimeStepper(m, _config())
    with pytest.raises(PositivityError):
        st.initialize(lambda x: x[..., 0] - 0.5, lambda x: np.zeros_like(x))


def test_density_step_pure_mass_is_identity():
    """Zero transport field and no source leave the density untouched."""
    case = make_case("square2d")
    m = unit_square_mesh(4)
    st = TimeStepper(m, _config())
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: np.zeros_like(x))
    rho1, _ = st.density_step(state)
    assert np.abs(rho1.coeffs - state.rho.coeffs).max() < 1e-11


def test_density_step_constant_in_transport_kernel():
    """Constants lie in the kernel of convection plus upwind terms."""
    case = make_case("square2d")
    m = unit_square_mesh(3)
    st = TimeStepper(m, _config())
    state = st.initialize(lambda x: np.full(x.shape[:-1], 1.5),
                          lambda x: case.u(x, 0.0))
    assert np.abs(state.w.coeffs).max() > 1e-3  # transport really active
    rho1, _ = st.density_step(state)
    assert np.abs(rho1.coeffs - 1.5).max() < 1e-10


def test_density_step_conserves_mass_two_cells():
    """Facet-pairing oracle on the smallest mesh: the single interior facet
    contributes equal and opposite fluxes, so total mass telescopes."""
    case = make_case("square2d")
    m = unit_square_mesh(1)
    st = TimeStepper(m, _config(tau=1 / 16))
    rng = np.random.default_rng(2)
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    state.rho.coeffs[:] = 2.0 + 0.3 * rng.standard_normal(
        st.rho_space.n_dofs
    )
    state.w.coeffs[:] = rng.standard_normal(st.rt_space.n_dofs)
    # keep the hand-made transport field admissible: zero boundary flux and
    # exactly divergence-free via one projection
    state.w, _ = st.workspace.project(
        assemble.eval_rt(st.rt_lo, state.w))
    rho1, _ = st.density_step(state)
    m0 = float(st.ones_rho @ state.rho.coeffs)
    m1 = float(st.ones_rho @ rho1.coeffs)
    assert abs(m1 - m0) < 1e-12

    # brute-force facet pairing on the single interior facet: testing the
    # transport operator against the indicator of either cell gives equal
    # and opposite fluxes, so the total is what telescopes away
    flux = assemble.eval_rt_flux(st.rt_flux, state.w)
    wvals = assemble.eval_rt(st.rt_lo, state.w)
    C = assemble.convection_matrix(st.p2_lo, wvals, None)
    U = assemble.upwind_matrix(st.trace, flux)
    ind_minus = np.zeros(st.rho_space.n_dofs)
    ind_minus[st.rho_space.cell_dofs[m.facet_minus[m.interior_facets[0]]]] = 1.0
    ind_plus = np.zeros(st.rho_space.n_dofs)
    ind_plus[st.rho_space.cell_dofs[m.facet_plus[m.interior_facets[0]]]] = 1.0
    gain_minus = float(ind_minus @ ((C - U) @ rho1.coeffs))
    gain_plus = float(ind_plus @ ((C - U) @ rho1.coeffs))
    assert abs(gain_minus + gain_plus) < 1e-12


def test_velocity_step_zero_data_zero_solution():
    m = unit_square_mesh(4)
    st = TimeStepper(m, _config(rho_min=1.0, rho_max=2.0))
    state = st.initialize(lambda x: np.full(x.shape[:-1], 1.5),
                          lambda x: np.zeros_like(x))
    u1, p1, _ = st.velocity_step(state, state.rho)
    assert np.abs(u1.coeffs).max() < 1e-12
    assert np.abs(p1.coeffs).max() < 1e-12


def test_velocity_step_divergence_constraint():
    case = make_case("square2d")
    m = unit_square_mesh(6)
    mu = 0.001
    src = case.make_source_evaluator(mu)
    cfg = _config(tau=1 / 128, mu=mu, cutoff_mode="widened",
                  f=src.f, g=src.g)
    st = TimeStepper(m, cfg)
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    rho1, _ = st.density_step(state)
    u1, p1, _ = st.velocity_step(state, rho1)
    assert np.abs(st.B.T @ u1.coeffs).max() <= 1e-10
    assert abs(float(st.c_p @ p1.coeffs)) <= 1e-10  # zero-mean pressure


def test_run_energy_monotone_and_mass_constant():
    case = make_case("square2d")
    m = unit_square_mesh(8)
    st = TimeStepper(m, _config(n_steps=16))
    state, diags = _run(st, lambda x: case.rho(x, 0.0),
                        lambda x: case.u(x, 0.0))
    init = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    prev = st.energy(init)
    mass0 = float(st.ones_rho @ init.rho.coeffs)
    for d in diags:
        assert d["energy"] + d["viscous_dissipation"] <= prev + 1e-9
        assert d["density_upwind_dissipation"] >= 0.0
        assert abs(d["mass"] - mass0) <= 1e-10
        assert d["velocity_cutoff_fraction"] == 0
        prev = d["energy"]
    assert state.n == 16


def _inflate_velocity(st, monkeypatch):
    """Make every velocity phase of ``st`` return 1.5 times its velocity."""
    solve = st.velocity_step

    def inflated(state, rho_new):
        u, p, report = solve(state, rho_new)
        return FeField(st.vel_space, 1.5 * u.coeffs), p, report

    monkeypatch.setattr(st, "velocity_step", inflated)


def test_step_without_sources_checks_the_energy_inequality(monkeypatch):
    """Without sources a step whose energy and viscous dissipation exceed
    the energy before it raises, naming the step: a velocity scaled by 1.5
    takes E from about 1.87 to about 2.09 here."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=1))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    _inflate_velocity(st, monkeypatch)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^energy inequality violated at step 1: "):
        st.step(state)


def test_step_with_sources_does_not_check_the_energy(monkeypatch):
    """Sources may add energy, so the same inflated step completes."""
    case = make_case("square2d")
    ev = case.make_source_evaluator(1e-3)
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=1, cutoff_mode="widened", f=ev.f, g=ev.g))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    _inflate_velocity(st, monkeypatch)
    _, record = st.step(state)
    spent = record["energy"] + record["viscous_dissipation"]
    assert spent > st.energy(state) + 1e-9


@pytest.mark.parametrize("sourced", [False, True])
def test_energy_check_builds_no_form(sourced, monkeypatch):
    """After the first step a step builds one chi-weighted mass, the new
    density's, with sources or without: the check reads cached masses."""
    case = make_case("square2d")
    kw = {}
    if sourced:
        ev = case.make_source_evaluator(1e-3)
        kw = dict(f=ev.f, g=ev.g)
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=3, cutoff_mode="widened", **kw))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    calls = []
    inner = assemble.mass_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(assemble, "mass_matrix", counted)
    per_step = []
    for _ in range(3):
        state, _ = st.step(state)
        per_step.append(len(calls))
        calls.clear()
    assert per_step == [2, 1, 1]


def test_homogeneous_systems_have_zero_solution():
    """Zero previous state and no sources solve to exactly zero."""
    m = unit_square_mesh(4)
    st = TimeStepper(m, _config(rho_min=1.0, rho_max=2.0))
    zero_rho = FeField(st.rho_space, np.zeros(st.rho_space.n_dofs))
    state = st.initialize(lambda x: np.full(x.shape[:-1], 1.5),
                          lambda x: np.zeros_like(x))
    state.rho = zero_rho
    rho1, _ = st.density_step(state)
    assert np.abs(rho1.coeffs).max() < 1e-12
    u1, p1, _ = st.velocity_step(state, rho1)
    assert np.abs(u1.coeffs).max() < 1e-12
    assert np.abs(p1.coeffs).max() < 1e-12


def test_3d_single_step_smoke():
    case = make_case("cube3d")
    m = unit_cube_mesh(2)
    src = case.make_source_evaluator(0.001)
    cfg = _config(tau=1 / 64, n_steps=2, cutoff_mode="widened",
                  f=src.f, g=src.g)
    st = TimeStepper(m, cfg)
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    state, diag = st.step(state)
    assert np.isfinite(diag["energy"])
    assert np.abs(st.B.T @ state.u.coeffs).max() <= 1e-10
    from vardens.projections import rt_divergence_nodal
    assert np.abs(rt_divergence_nodal(state.w)).max() < 1e-11


@pytest.mark.parametrize("rho,mode,active", [
    (1.6, "strict", True), (1.6, "widened", False), (1.6, "off", False),
    (2.4, "widened", True), (2.4, "off", False),
    (0.4, "strict", True), (0.4, "widened", False), (0.3, "widened", True),
])
def test_cutoff_active_follows_cutoff_mode(rho, mode, active):
    """The clamped fraction is positive exactly where ``cutoff`` clamps:
    the strict band is [0.5, 1.5] here, the widened one [1/3, 2.25], and
    off never clamps."""
    st = TimeStepper(unit_square_mesh(2), _config(
        n_steps=1, cutoff_mode=mode, rho_min=1.0, rho_max=1.0))
    _, diags = _run(st, lambda x: np.full(x.shape[:-1], rho),
                      lambda x: np.zeros_like(x))
    assert (diags[0]["velocity_cutoff_fraction"] > 0) is active


@pytest.mark.parametrize("mode", ["strict", "widened", "off"])
def test_cutoff_fraction_counts_clamped_samples(mode):
    """The strict band is [0.5, 1.5] here and the widened one [1/3, 2.25];
    the density ranges over [0.2, 2.7], so both clamp a part of it."""
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=1, cutoff_mode=mode, rho_min=1.0, rho_max=1.0))
    state, diags = _run(st, lambda x: 0.2 + 2.5 * x[..., 0],
                        lambda x: np.zeros_like(x))
    rho_q = assemble.eval_scalar(st.p2_hi, state.rho)
    lo, hi = {"strict": (0.5, 1.5), "widened": (0.5 / 1.5, 2.25),
              "off": (-np.inf, np.inf)}[mode]
    expected = np.count_nonzero((rho_q < lo) | (rho_q > hi)) / rho_q.size
    fraction = diags[0]["velocity_cutoff_fraction"]
    assert fraction == expected
    assert (fraction > 0) is (mode != "off")


def test_step_records_cells_sent_to_the_pointwise_path():
    """``cutoff_cells`` counts the cells where chi is sampled: none on an
    unclamped run or with the cut-off off, and on a clamped run at least
    every cell with a clamped sample."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=2, cutoff_mode="widened"))
    _, diags = _run(st, lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    assert [d["velocity_cutoff_cells"] for d in diags] == [0, 0]
    assert not any(d["velocity_cutoff_fraction"] > 0 for d in diags)
    for mode in ("strict", "off"):
        st = TimeStepper(unit_square_mesh(4), _config(
            n_steps=1, cutoff_mode=mode, rho_min=1.0, rho_max=1.0))
        state, diags = _run(st, lambda x: 0.2 + 2.5 * x[..., 0],
                            lambda x: np.zeros_like(x))
        rho_q = assemble.eval_scalar(st.p2_hi, state.rho)
        hit = np.count_nonzero(np.any((rho_q < 0.5) | (rho_q > 1.5), axis=1))
        cells = diags[0]["velocity_cutoff_cells"]
        if mode == "off":
            assert cells == 0
        else:
            assert st.mesh.n_cells > cells >= hit > 0


def test_clamped_step_samples_the_new_density_once(monkeypatch):
    """On a step where the strict cut-off clamps, the new density is
    sampled on the high rule once per flagged cell, for both the mass and
    the convection."""
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=1, rho_min=1.0, rho_max=1.0))
    calls = []
    inner = assemble.eval_scalar

    def record(tab, field, cells=slice(None)):
        if tab is st.p2_hi:
            calls.append((field.coeffs.copy(), cells))
        return inner(tab, field, cells)

    monkeypatch.setattr(assemble, "eval_scalar", record)
    case = make_case("square2d")
    state, diags = _run(st, lambda x: 0.2 + 2.5 * x[..., 0],
                        lambda x: case.u(x, 0.0))
    flagged = st._cutoff_cells(state.rho)
    assert 0 < len(flagged) < st.mesh.n_cells
    assert diags[0]["velocity_cutoff_fraction"] > 0
    sampled = [np.arange(st.mesh.n_cells)[cells] for coeffs, cells in calls
               if np.array_equal(coeffs, state.rho.coeffs)]
    assert np.array_equal(np.sort(np.concatenate(sampled)), flagged)


@pytest.mark.parametrize("make_mesh,n", [
    (unit_square_mesh, 4), (unit_square_mesh, 8), (unit_cube_mesh, 2),
    (unit_cube_mesh, 4)])
@pytest.mark.parametrize("density,mode", [
    ("ramp", "strict"), ("band", "strict"), ("above", "strict"),
    ("ramp", "off")])
def test_weighted_forms_match_the_pointwise_forms(make_mesh, n, density,
                                                   mode):
    """The chi-weighted MINI mass and convection from field coefficients,
    sampled only where the cut-off may clamp, against ``mass_matrix`` and
    ``convection_matrix`` fed chi at every high-rule point.  The strict
    band is [0.5, 1.5]: the ramp leaves it where x > 3/4, the band density
    nowhere and the above density everywhere."""
    st = TimeStepper(make_mesh(n), _config(
        cutoff_mode=mode, rho_min=1.0, rho_max=1.0))
    a, b = {"ramp": (0.6, 1.2), "band": (0.9, 0.2),
            "above": (2.0, 0.2)}[density]
    rho = project_dg(st.p2_hi, a + b * st.geom_hi.points[..., 0])
    u = FeField(st.vel_space, np.random.default_rng(n).standard_normal(
        st.vel_space.n_dofs))
    M, weight, clamped = st._weighted_mass(rho)
    cells = weight.cells
    N = assemble.convection_matrix(st.mini_hi, u, coef=weight)

    rho_q = assemble.eval_scalar(st.p2_hi, rho)
    chi = cutoff(rho_q, st.config)
    M_ref = assemble.mass_matrix(st.mini_hi, chi)
    N_ref = assemble.convection_matrix(
        st.mini_hi, assemble.eval_mini_vector(st.mini_hi, u), coef=chi)
    for got, ref in ((M, M_ref), (N, N_ref)):
        assert np.array_equal(got.indices, ref.indices)
        err = np.abs(got.data - ref.data).max()
        assert err <= 1e-13 * np.abs(ref.data).max()
    assert np.array_equal(M.data, M.data[st.mini_hi.pattern.transpose_perm])
    expected = np.count_nonzero(chi != rho_q)
    assert clamped == expected
    if density == "ramp" and mode == "strict":
        assert 0 < len(cells) < st.mesh.n_cells and expected > 0
    elif density == "above":
        assert len(cells) == st.mesh.n_cells and expected == rho_q.size
    else:
        assert len(cells) == 0 and expected == 0


@pytest.mark.parametrize("make_mesh,n", [(unit_square_mesh, 4),
                                         (unit_cube_mesh, 2)])
def test_cutoff_cells_hold_every_clamped_sample(make_mesh, n):
    """On random P2 densities every cell with a high-rule sample outside
    the band is flagged, and every sample lies within the range of its
    cell's Bernstein coefficients, up to the rounding of the samples."""
    st = TimeStepper(make_mesh(n), _config(rho_min=1.0, rho_max=1.0))
    rng = np.random.default_rng(11)
    for scale in (0.1, 0.3, 1.0):
        rho = FeField(st.rho_space, 1.0 + scale * rng.standard_normal(
            st.rho_space.n_dofs))
        rho_q = assemble.eval_scalar(st.p2_hi, rho)
        outside = np.flatnonzero(np.any((rho_q < 0.5) | (rho_q > 1.5),
                                        axis=1))
        cells = st._cutoff_cells(rho)
        assert np.isin(outside, cells).all()
        assert np.all(np.diff(cells) > 0)
        b = st.rho_space.bernstein(rho.coeffs)
        tol = 64 * np.finfo(float).eps * np.abs(b).max(axis=1)
        assert np.all(rho_q >= b.min(axis=1, keepdims=True) - tol[:, None])
        assert np.all(rho_q <= b.max(axis=1, keepdims=True) + tol[:, None])
    st.config.cutoff_mode = "off"
    assert len(st._cutoff_cells(rho)) == 0


def test_unclamped_step_samples_nothing_on_the_high_rule(monkeypatch):
    """With no cell where the cut-off may clamp, a step builds its forms
    from field coefficients alone: no density or velocity values on the
    high rule."""
    case = make_case("cube3d")
    st = TimeStepper(unit_cube_mesh(2), _config(
        n_steps=1, cutoff_mode="widened"))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    calls = []
    for name in ("eval_scalar", "eval_mini_vector"):
        inner = getattr(assemble, name)

        def counted(tab, *args, inner=inner, name=name):
            if tab is st.p2_hi or tab is st.mini_hi:
                calls.append(name)
            return inner(tab, *args)

        monkeypatch.setattr(assemble, name, counted)
    state, diag = st.step(state)
    assert calls == []
    assert diag["velocity_cutoff_cells"] == 0
    st.energy(state)
    assert calls == []


def test_step_with_sources_forms_no_point_weights(monkeypatch):
    """With sources and no cell where the cut-off may clamp, a 3D step
    applies |det J| per cell in every form and load: no quadrature forms
    its weights at points."""
    case = make_case("cube3d")
    src = case.make_source_evaluator(0.001)
    st = TimeStepper(unit_cube_mesh(2), _config(
        n_steps=1, cutoff_mode="widened", f=src.f, g=src.g))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    calls = []
    inner = assemble.CellQuadrature.weights_at

    def counted(geom, cells):
        calls.append(geom)
        return inner(geom, cells)

    monkeypatch.setattr(assemble.CellQuadrature, "weights_at", counted)
    state, diag = st.step(state)
    assert diag["velocity_cutoff_cells"] == 0
    assert calls == []


@pytest.mark.parametrize("make_mesh,n", [(unit_square_mesh, 4),
                                         (unit_cube_mesh, 2)])
def test_basis_integrals_match_the_quadrature_loads(make_mesh, n):
    """``ones_rho`` and ``c_p``, formed per cell from reference blocks,
    equal the loads of the constant 1 at the quadrature points."""
    st = TimeStepper(make_mesh(n), _config())
    for got, tab in ((st.ones_rho, st.p2_lo), (st.c_p, st.p1_hi)):
        ref = assemble.load_vector(tab, np.ones_like(tab.geom.wdet))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_energy_matches_diagnostics():
    case = make_case("square2d")
    cfg = _config(n_steps=3)
    st = TimeStepper(unit_square_mesh(4), cfg)
    state, diags = _run(st, lambda x: case.rho(x, 0.0),
                        lambda x: case.u(x, 0.0))
    assert abs(st.energy(state) - diags[-1]["energy"]) <= 1e-14
    # a stepper with no cached mass matrices agrees as well
    fresh = TimeStepper(st.mesh, cfg).energy(state)
    assert abs(fresh - diags[-1]["energy"]) <= 1e-14


def test_velocity_step_cached_mass_is_bit_identical():
    """M_old is reused from the previous step's M_new; the cache is keyed on
    the density values, so changing them in place is seen."""
    case = make_case("square2d")
    m = unit_square_mesh(4)
    cfg = _config(cutoff_mode="widened")
    st = TimeStepper(m, cfg)
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    state, _ = st.step(state)
    rho_new, _ = st.density_step(state)

    def same(a, b):  # the new velocity and pressure of two steps
        return all(np.array_equal(x.coeffs, y.coeffs)
                   for x, y in zip(a[:2], b[:2]))

    # every solve factors its own matrix afresh, as a new stepper does, so
    # both sides precondition GMRES with the same LU
    st._vel_lu = None
    cached = st.velocity_step(state, rho_new)
    assert same(cached, TimeStepper(m, cfg).velocity_step(state, rho_new))
    # a different old density, first as a new array, then changed in place
    other = FeField(state.rho.space, state.rho.coeffs.copy())
    other.coeffs *= 1.01
    for rho_old in (other, state.rho):
        if rho_old is state.rho:
            state.rho.coeffs[:] = other.coeffs * 0.99
        moved = StepState(state.n, state.t, rho_old, state.u, state.p,
                          state.w, state.history)
        st._vel_lu = None
        got = st.velocity_step(moved, rho_new)
        assert same(got, TimeStepper(m, cfg).velocity_step(moved, rho_new))
        assert not same(got, cached)


def _returned_reports(st):
    """The reports that ``st``'s density and velocity phases and its
    projection return, one list per phase, appended to at every later
    step."""
    reports = {"density": [], "velocity": [], "projection": []}
    density_step, velocity_step = st.density_step, st.velocity_step
    project = st.workspace.project

    def density(state):
        *out, report = density_step(state)
        reports["density"].append(report)
        return *out, report

    def velocity(state, rho_new):
        *out, report = velocity_step(state, rho_new)
        reports["velocity"].append(report)
        return *out, report

    def projection(v):
        w, report = project(v)
        reports["projection"].append(report)
        return w, report

    st.density_step, st.velocity_step = density, velocity
    st.workspace.project = projection
    return reports


# the same small problem on each dimension's mesh
_IN_2D_AND_3D = pytest.mark.parametrize("name,mesh", [
    ("square2d", lambda: unit_square_mesh(4)),
    ("cube3d", lambda: unit_cube_mesh(3)),
], ids=["square2d", "cube3d"])


@_IN_2D_AND_3D
def test_lagged_velocity_solve_matches_constrained_direct(name, mesh):
    """Minimum-degree LU, then GMRES preconditioned by it."""
    from vardens import linalg

    case = make_case(name)
    src = case.make_source_evaluator(0.001)
    st = TimeStepper(mesh(), _config(
        tau=1 / 64, cutoff_mode="widened", f=src.f, g=src.g))
    solves = []
    inner = st._solve_velocity_system

    def record(K, b, x0):
        x, report = inner(K, b, x0)
        solves.append((K, b, x))
        return x, report

    st._solve_velocity_system = record
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    reports = _returned_reports(st)
    for _ in range(2):
        state, _ = st.step(state)
    assert reports["velocity"][-1].iterations > 0  # GMRES on a lagged LU
    nu = len(st.free_vel)
    B = st.B[st.free_vel]
    constraint = np.concatenate([np.zeros(nu), st.c_p])
    for K, b, x in solves:
        # the unpinned system, bordered by the zero-mean pressure constraint
        full = sp.bmat([[K[:nu, :nu], -B], [-B.T, None]], format="csr")
        ref, _ = linalg.solve_constrained(full, np.append(b, 0.0),
                                          constraint)
        p = np.append(x[nu:], 0.0)
        p -= (st.c_p @ p) / st.c_p.sum()
        for got, want in ((x[:nu], ref[:nu]), (p, ref[nu:])):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@_IN_2D_AND_3D
def test_density_gmres_matches_direct(name, mesh, monkeypatch):
    """GMRES on the inverse cell-mass blocks against a direct solve."""
    from vardens import linalg

    case = make_case(name)
    src = case.make_source_evaluator(0.001)
    st = TimeStepper(mesh(), _config(
        tau=1 / 64, cutoff_mode="widened", f=src.f, g=src.g))
    solves = []
    inner = linalg.solve_gmres

    def record(A, b, **kwargs):
        x, report = inner(A, b, **kwargs)
        if A.shape[0] == st.rho_space.n_dofs:
            solves.append((A, b, x))
        return x, report

    monkeypatch.setattr(linalg, "solve_gmres", record)
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    for _ in range(2):
        state, _ = st.step(state)
    assert len(solves) == 2
    for A, b, x in solves:
        ref, _ = linalg.solve_direct(A, b)
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_step_records_solver_iterations_and_refreshes():
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=3))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    reports = _returned_reports(st)
    for _ in range(3):
        state, diag = st.step(state)
        density = reports["density"][-1]
        velocity = reports["velocity"][-1]
        assert diag["density_iterations"] == density.iterations > 0
        assert diag["velocity_iterations"] == velocity.iterations > 0
        assert diag["velocity_refreshed"] is False


def test_step_records_velocity_factor_fill():
    """A step that factors the velocity matrix reports the factor's stored
    count, ``SuperLU.nnz``; the steps that reuse the factor report none."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    reports = _returned_reports(st)["velocity"]
    state, diag = st.step(state)
    fill = st._vel_lu.nnz
    assert diag["velocity_factor_nnz"] == fill > 0
    assert reports[-1].extras["factor_nnz"] == fill
    state, diag = st.step(state)
    assert "velocity_factor_nnz" not in diag
    assert "factor_nnz" not in reports[-1].extras


def _rho_ratio_100(x):
    """A density that rises from 1 to 100 across y = 1/2."""
    return 1.0 + 49.5 * (1.0 + np.tanh((x[..., 1] - 0.5) / 0.1))


def test_density_solve_converges_at_large_time_step():
    """A density ratio of 100 transported at tau = 1: the mass-block
    preconditioner ignores transport, so each density solve takes well
    over a thousand GMRES iterations, and it must still converge.  Each
    ``step`` checks the energy inequality (zero sources)."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(8), _config(tau=1.0, n_steps=2))
    state, diags = _run(st, _rho_ratio_100, lambda x: case.u(x, 0.0))
    init = st.initialize(_rho_ratio_100, lambda x: case.u(x, 0.0))
    mass0 = float(st.ones_rho @ init.rho.coeffs)
    assert state.n == 2
    assert max(d["density_iterations"] for d in diags) > 1000
    for d in diags:
        assert abs(d["mass"] - mass0) <= 1e-9


def _march(config, rho0, n, strip):
    """March square2d on ``unit_square_mesh(n)`` from ``rho0`` and the
    case's velocity; with ``strip`` every state loses its history before
    its step, so each GMRES starts from the last solution alone.  Returns
    the states, the initial one first, and the records."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(n), config)
    states = [st.initialize(rho0, lambda x: case.u(x, 0.0))]
    records = []
    for _ in range(config.n_steps):
        state = states[-1]
        if strip:
            state = dataclasses.replace(state, history=())
        state, record = st.step(state)
        states.append(state)
        records.append(record)
    return states, records


def _total(records, key):
    return sum(record[key] for record in records)


def test_history_holds_earlier_fields_and_keeps_the_solution():
    """A state's history is the (rho, u, p) objects of at most three
    earlier states, newest first, not copies; starting GMRES from their
    extrapolation moves the solution only inside the solver tolerance."""
    rho0 = make_case("square2d").rho
    states, records = _march(_config(n_steps=10),
                             lambda x: rho0(x, 0.0), 8, False)
    assert states[0].history == ()
    for k, state in enumerate(states[1:], 1):
        assert len(state.history) == min(k, 3)
        for j, fields in enumerate(state.history):
            earlier = states[k - 1 - j]
            assert all(a is b for a, b in
                       zip(fields, (earlier.rho, earlier.u, earlier.p)))
    assert any(r["density_extrapolated"] for r in records)
    assert any(r["velocity_extrapolated"] for r in records)
    stripped, _ = _march(_config(n_steps=10), lambda x: rho0(x, 0.0), 8,
                         True)
    for name in ("rho", "u", "p"):
        got = getattr(states[-1], name).coeffs
        want = getattr(stripped[-1], name).coeffs
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_guarded_start_takes_no_more_iterations_at_large_time_step():
    """At tau = 1 the solutions move by O(1) per step and the
    extrapolation is no better a start; the guard keeps the last solution
    then, so the march takes no more density iterations than one that
    starts from the last solution only."""
    config = dict(tau=1.0, n_steps=4)
    _, history = _march(_config(**config), _rho_ratio_100, 8, False)
    _, stripped = _march(_config(**config), _rho_ratio_100, 8, True)
    assert (_total(history, "density_iterations")
            <= _total(stripped, "density_iterations"))


def test_extrapolated_start_saves_iterations():
    """The warm start, counted in iterations, not seconds: square2d at
    h = 1/16 and tau = 1/256, 32 steps, takes at most 0.75 of the density
    and 0.85 of the velocity GMRES iterations of a march whose GMRES
    starts from the last solution only (285 / 417 and 104 / 139 when this
    test was written)."""
    rho0 = make_case("square2d").rho
    config = dict(tau=1 / 256, n_steps=32)
    _, history = _march(_config(**config), lambda x: rho0(x, 0.0), 16,
                        False)
    _, stripped = _march(_config(**config), lambda x: rho0(x, 0.0), 16,
                         True)
    for key, bound in (("density_iterations", 0.75),
                       ("velocity_iterations", 0.85)):
        assert _total(history, key) <= bound * _total(stripped, key), key


def test_step_records_density_blocks():
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    nc, nfi = st.mesh.n_cells, len(st.trace.facets)
    for _ in range(2):
        A, _ = st.density_matrix(state.w)
        state, diag = st.step(state)
        assert diag["density_blocks"] == len(A.indices)
        assert nc < len(A.indices) <= nc + 2 * nfi


def _fail_density_gmres(st, monkeypatch):
    def fail(*args, **kwargs):
        raise linalg.ResidualError("gmres: residual 1.0e-03 above 1.0e-12")

    monkeypatch.setattr(linalg, "solve_gmres", fail)


def _fail_velocity_factorization(st, monkeypatch):
    # with the divergence block zeroed the pressure rows of the saddle
    # matrix are empty, so SuperLU finds it exactly singular
    monkeypatch.setattr(st, "_saddle_fixed", np.zeros_like(st._saddle_fixed))


def _fail_projection(st, monkeypatch):
    # a wrong mass block in the residual check makes every projection fail
    monkeypatch.setattr(st.workspace, "_Mk", 2.0 * st.workspace._Mk)


def _nan_density_preconditioner(st, monkeypatch):
    monkeypatch.setattr(st, "rho_mass_solve",
                        lambda r: np.full_like(r, np.nan))


def test_failed_density_solve_names_the_solve_and_step(monkeypatch):
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    state, _ = st.step(state)
    _fail_density_gmres(st, monkeypatch)
    with pytest.raises(linalg.ResidualError,
                       match=r"^density solve at step 2: gmres: residual"):
        st.step(state)


def _stale_velocity_factor(st):
    """A factor of a random diagonal matrix of the velocity system's size,
    which preconditions the saddle matrix so poorly that one cycle of 40
    GMRES iterations stalls."""
    n = st._saddle_shape[0]
    scale = 10.0 ** np.random.default_rng(2).uniform(-3, 3, n)
    return linalg.factorize(sp.diags(scale, format="csc"), "colamd")


def _refactor_velocity_as(st, monkeypatch, solve):
    """Give the stepper a stale velocity factor, and make the factor that
    replaces it, from ``linalg.factorize``, solve by ``solve(exact, b)``,
    ``exact`` the true factor."""
    st._vel_lu = _stale_velocity_factor(st)
    factorize = linalg.factorize

    def refactor(matrix, ordering):
        exact = factorize(matrix, ordering)
        return SimpleNamespace(solve=lambda b: solve(exact, b),
                               nnz=exact.nnz)

    monkeypatch.setattr(linalg, "factorize", refactor)


def test_failed_velocity_refresh_names_the_step_and_residual(monkeypatch):
    """GMRES stalls on a stale factor and fails again on the refreshed one,
    here a factor that gives NaN: the error is the second GMRES's, named
    by the phase and the step."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    _refactor_velocity_as(st, monkeypatch,
                          lambda exact, b: np.full_like(b, np.nan))
    with pytest.raises(linalg.ResidualError,
                       match=r"^velocity solve at step 1: gmres solve: "
                             r"relative residual nan > 1\.0e-10$"):
        st.step(state)


def test_refreshed_velocity_factor_is_used_by_gmres(monkeypatch):
    """A refreshed factor that is exact only up to a scale, here half the
    exact solve, preconditions GMRES to convergence: the step completes as
    refreshed, its velocity solve within the solver tolerance."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    _refactor_velocity_as(st, monkeypatch,
                          lambda exact, b: 0.5 * exact.solve(b))
    _, diag = st.step(state)
    assert diag["velocity_refreshed"] is True
    assert diag["velocity_residual"] <= 1e-10
    assert 0 < diag["velocity_iterations"] <= 40
    assert diag["velocity_div_residual"] <= 1e-9


def test_failed_projection_names_the_step(monkeypatch):
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    _fail_projection(st, monkeypatch)
    with pytest.raises(linalg.ResidualError,
                       match=r"^projection at step 1: hybridized projection "
                             r"residual"):
        st.step(state)
    # initialize's projection is step 0
    with pytest.raises(linalg.ResidualError, match=r"^projection at step 0: "):
        st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))


@pytest.mark.parametrize("inject,error,message", [
    (_fail_density_gmres, linalg.ResidualError,
     r"density solve at step 1: gmres: residual"),
    (_fail_velocity_factorization, linalg.SingularMatrixError,
     r"velocity solve at step 1: singular factorization"),
    (_fail_projection, linalg.ResidualError,
     r"projection at step 1: hybridized projection residual"),
    (_nan_density_preconditioner, linalg.ResidualError,
     r"density solve at step 1: gmres solve: relative residual nan > "),
], ids=["density-gmres", "velocity-singular", "projection",
        "nan-preconditioner"])
def test_step_names_the_failed_phase_and_step(inject, error, message,
                                              monkeypatch):
    """A solver failure in any phase leaves ``step`` as the solver's own
    error type, its message led by the phase and the step.  A NaN from
    the density preconditioner reaches the solution, and the residual
    check names the non-finite solve."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    inject(st, monkeypatch)
    with pytest.raises(error, match="^" + message):
        st.step(state)


@pytest.mark.parametrize("inject,message", [
    (_fail_density_gmres, r"density solve at step 2: gmres: residual"),
    (_fail_projection, r"projection at step 2: hybridized projection residual"),
    (_nan_density_preconditioner,
     r"density solve at step 2: gmres solve: relative residual nan > "
     r"1\.0e-10$"),
], ids=["density-gmres", "projection", "nan-preconditioner"])
def test_run_raises_a_named_solver_failure_unchanged(inject, message,
                                                     monkeypatch):
    """A solver failure on a later step of a march leaves ``step`` as the
    solver's own ``ResidualError``, wrapped in nothing, its message led
    once by the phase and the step."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=3))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    state, _ = st.step(state)
    inject(st, monkeypatch)
    with pytest.raises(linalg.ResidualError, match="^" + message) as exc:
        st.step(state)
    assert type(exc.value) is linalg.ResidualError
    assert str(exc.value).count(" at step ") == 1


def test_step_reports_hold_no_arrays():
    """The density and velocity phases and the projection return one
    report each, holding no array of the step, such as the facet fluxes of
    the transport field; neither the stepper nor its workspace keeps a
    report."""
    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(4), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    reports = _returned_reports(st)
    st.step(state)
    assert [len(r) for r in reports.values()] == [1, 1, 1]
    for [report] in reports.values():
        for value in [report.residual, report.iterations,
                      *report.extras.values()]:
            assert not isinstance(value, np.ndarray)
    assert not any(isinstance(v, linalg.SolveReport)
                   for v in [*vars(st).values(), *vars(st.workspace).values()])


def test_stale_velocity_factor_is_refreshed_within_one_cycle(monkeypatch):
    """A preconditioner factored from another matrix stalls GMRES; the step
    refactors after one cycle of 40 iterations and runs GMRES again, which
    meets the solve's residual and divergence contracts; its report is the
    second GMRES's, started from the candidate of least residual."""
    from vardens import projections

    case = make_case("square2d")
    st = TimeStepper(unit_square_mesh(8), _config(n_steps=2))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    state, _ = st.step(state)
    st._vel_lu = stale = _stale_velocity_factor(st)

    calls = []
    inner = linalg.solve_gmres

    def record(A, b, **kwargs):
        try:
            out = inner(A, b, **kwargs)
        except linalg.ResidualError as exc:
            calls.append((kwargs["restart"], A, b, kwargs["x0"], str(exc)))
            raise
        calls.append((kwargs["restart"], A, b, kwargs["x0"], out[1]))
        return out

    monkeypatch.setattr(linalg, "solve_gmres", record)
    reports = _returned_reports(st)
    state, diag = st.step(state)
    velocity = [call for call in calls if call[0] == 40]
    assert len(velocity) == 2
    (_, A, b, x0, failed), (_, A2, b2, x02, rerun) = velocity
    assert "after 40 iterations" in failed
    assert A2 is A and b2 is b and x02 is x0
    [report] = reports["velocity"]
    assert report is rerun
    assert st._vel_lu is not stale
    assert report.extras["refreshed"] is True
    assert diag["velocity_s"] > 0.0
    assert report.residual <= 1e-10
    assert diag["velocity_div_residual"] <= 1e-10
    assert np.abs(projections.rt_divergence_nodal(state.w)).max() <= 1e-11
    assert diag["velocity_refreshed"] is True
    assert diag["velocity_iterations"] == report.iterations > 0
    assert diag["velocity_factor_nnz"] == st._vel_lu.nnz
    # the rerun starts from the candidate of least residual
    starts = [np.linalg.norm(b - A @ x) / np.linalg.norm(b) for x in x0]
    assert diag["velocity_start_residual"] == min(starts) > 0
    assert diag["velocity_extrapolated"] is (int(np.argmin(starts)) == 1)


@pytest.mark.parametrize("name,mesh,sourced", [
    ("square2d", lambda: unit_square_mesh(4), False),
    ("cube3d", lambda: unit_cube_mesh(2), True),
], ids=["square2d-unsourced", "cube3d-sourced"])
def test_step_record_is_built_from_the_phase_reports(name, mesh, sourced):
    """Each record is flat JSON; its phase times fit in the step's, and its
    phase keys are the fields of the reports the phases returned."""
    case = make_case(name)
    kw = {}
    if sourced:
        ev = case.make_source_evaluator(1e-3)
        kw = dict(f=ev.f, g=ev.g)
    st = TimeStepper(mesh(), _config(n_steps=3, cutoff_mode="widened", **kw))
    reports = _returned_reports(st)
    _, records = _run(st, lambda x: case.rho(x, 0.0),
                      lambda x: case.u(x, 0.0))
    assert len(records) == 3
    for k, record in enumerate(records):
        assert json.loads(json.dumps(record)) == record
        times = [record[f"{phase}_s"] for phase in PHASES]
        assert min(times) >= 0.0 and sum(times) <= record["step_s"]
        keys = {"n", "t", "energy", "viscous_dissipation", "mass", "step_s"}
        # the projection of ``initialize`` comes first
        for phase, report in (("density", reports["density"][k]),
                              ("velocity", reports["velocity"][k]),
                              ("projection", reports["projection"][k + 1])):
            fields = {"residual": report.residual,
                      "iterations": report.iterations, **report.extras}
            for key, value in fields.items():
                assert record[f"{phase}_{key}"] == value
            keys |= {f"{phase}_{key}" for key in ("s", *fields)}
        assert set(record) == keys


# -- the sources' load matrices --------------------------------------------

@pytest.mark.parametrize("name,mesh", [
    ("square2d", lambda: unit_square_mesh(8)),
    ("cube3d", lambda: unit_cube_mesh(4)),
    ("cube3d_nonsmooth", lambda: unit_cube_mesh(4)),
])
def test_source_load_matrices_match_pointwise_loads(name, mesh):
    """The sources are loaded from load matrices; their loads equal those
    of the pointwise sources at the low-rule points to relative 1e-13."""
    ev = make_case(name).make_source_evaluator(0.001)
    st = TimeStepper(mesh(), _config(f=ev.f, g=ev.g))
    x = st.geom_lo.points
    for t in (0.0, 1 / 64, 0.13, 0.25, 1.1):
        want = {"f": assemble.load_vector(st.p2_lo, ev.f(x, t)),
                "g": np.stack([assemble.load_vector(st.mini_lo, ev.g(x, t)[..., k])
                               for k in range(st.mesh.dim)], axis=-1)}
        for source in "fg":
            got = st._source_load(source, t)
            assert got.shape == want[source].shape
            err = np.abs(got - want[source]).max()
            assert err <= 1e-13 * np.abs(want[source]).max(), (source, t)


def test_source_loads_are_built_once(monkeypatch):
    """The first step builds the load matrices from the dual pass; later
    steps call neither the pass nor the evaluator's pointwise sources.
    The sources are wrapped by name, as a tracer wraps them."""
    import functools

    from vardens import mms

    calls = []

    def counted(owner, attr):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((mms.ExactCase, "_spatial"),
                        (mms.SourceEvaluator, "f"),
                        (mms.SourceEvaluator, "g")):
        counted(owner, attr)
    case = make_case("cube3d")
    ev = case.make_source_evaluator(0.001)
    st = TimeStepper(unit_cube_mesh(2), _config(
        cutoff_mode="widened", f=ev.f, g=ev.g))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    state, _ = st.step(state)
    assert calls and set(calls) == {"_spatial"}
    assert sorted(st._loads) == ["f", "g"]
    calls.clear()
    for _ in range(3):
        state, _ = st.step(state)
    assert calls == []


@_IN_2D_AND_3D
def test_every_step_records_its_three_solve_residuals(name, mesh):
    """Each step's record holds the relative residuals of its density,
    velocity and projection solves, the ones their reports return, each
    within the solver contract."""
    case = make_case(name)
    ev = case.make_source_evaluator(1e-3)
    st = TimeStepper(mesh(), _config(n_steps=3, cutoff_mode="widened",
                                     f=ev.f, g=ev.g))
    reports = _returned_reports(st)
    _, diags = _run(st, lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    assert len(diags) == 3
    for k, diag in enumerate(diags):
        got = [diag[f"{phase}_residual"]
               for phase in ("density", "velocity", "projection")]
        # the projection of ``initialize`` comes first
        assert got == [reports["density"][k].residual,
                       reports["velocity"][k].residual,
                       reports["projection"][k + 1].residual]
        assert all(0.0 <= r <= linalg.SOLVER_TOL for r in got)


def test_cached_chi_forms_equal_a_fresh_build():
    """With a narrowed band the cut-off flags some cells; the chi weight,
    clamped count and mass that a step cached for its new density are
    those a fresh build gives, and the convection by the cached weight is
    bit for bit the one by the fresh weight."""
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=1, rho_min=1.0, rho_max=1.0))
    case = make_case("square2d")
    state, _ = _run(st, lambda x: 0.2 + 2.5 * x[..., 0],
                    lambda x: case.u(x, 0.0))
    M, chi, clamped = st._weighted_mass(state.rho)
    assert st._weighted_mass(state.rho)[0] is M  # a cache hit
    fresh, count = st._chi_weight(state.rho)
    assert 0 < len(fresh.cells) < st.mesh.n_cells and count > 0
    assert clamped == count
    assert np.array_equal(chi.cells, fresh.cells)
    assert np.array_equal(chi.values, fresh.values)
    M_ref = assemble.mass_matrix(st.mini_hi, fresh)
    assert np.array_equal(M.indices, M_ref.indices)
    assert np.array_equal(M.data, M_ref.data)
    got, ref = (assemble.convection_matrix(st.mini_hi, state.u, coef=w)
                for w in (chi, fresh))
    assert np.array_equal(got.data, ref.data)


def test_source_weights_are_evaluated_once_per_step(monkeypatch):
    """Both phases of a step load their source at the step's new time, so
    the evaluator's time weights are computed once per step."""
    from vardens import mms

    calls = []
    weights = mms.SourceEvaluator.weights
    monkeypatch.setattr(mms.SourceEvaluator, "weights",
                        lambda self, t: calls.append(t) or weights(self, t))
    case = make_case("square2d")
    ev = case.make_source_evaluator(0.001)
    st = TimeStepper(unit_square_mesh(4), _config(
        n_steps=3, cutoff_mode="widened", f=ev.f, g=ev.g))
    state, records = _run(st, lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    assert calls == [record["t"] for record in records]


def test_saddle_template_holds_structure_only():
    """The velocity saddle's template is its shape, its index arrays and
    the gather that fills it: no matrix, and no float array of entry
    numbers."""
    st = TimeStepper(unit_square_mesh(4), _config())
    assert not [name for name, value in vars(st).items()
                if name.startswith("_saddle") and sp.issparse(value)]
    for a in (*st._saddle_index, st._saddle_gather):
        assert a.dtype.kind == "i"
