"""Memory bounds: chunked kernels equal their one-batch forms bit for bit,
the H(div) space and tabs hold no per-basis-function tables, and the set-up
of a stepper stays within a measured allocation budget."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from vardens import assemble, mms
from vardens.mesh import unit_cube_mesh, unit_square_mesh
from vardens.projections import RtProjectionWorkspace
from vardens.scheme import SchemeConfig, TimeStepper
from vardens.spaces import (FeField, MiniScalarSpace, P1Space, P2DGSpace,
                            RT1Space)


@pytest.fixture(scope="module")
def cube6():
    mesh = unit_cube_mesh(6)
    assert mesh.n_cells > assemble.CHUNK  # several chunks
    return mesh


def _same(A, B):
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def test_pattern_build_matches_one_batch_unique(cube6):
    p2 = P2DGSpace(cube6)
    trace = assemble.DGFacetTrace(p2, assemble.FacetQuadrature(cube6, 6))
    n = p2.n_dofs
    dofs = np.concatenate([p2.cell_dofs[trace.minus],
                           p2.cell_dofs[trace.plus]], axis=1)
    r = dofs.astype(np.int64)[:, :, None]
    c = dofs.astype(np.int64)[:, None, :]
    uniq, slot = np.unique((r * n + c).ravel(), return_inverse=True)
    row, col = np.divmod(uniq, n)
    pattern = assemble.Pattern.build((n, n), dofs, dofs)
    assert np.array_equal(pattern.indptr,
                          np.searchsorted(row, np.arange(n + 1)))
    assert np.array_equal(pattern.indices, col)
    assert np.array_equal(pattern.slot, slot)
    assert pattern.indices.dtype == np.int32


def test_chunked_forms_match_one_batch(cube6):
    d = cube6.dim
    geom = assemble.CellQuadrature(cube6, 2 * (d + 1) + 2)
    mini = assemble.ScalarTab(MiniScalarSpace(cube6), geom)
    rng = np.random.default_rng(5)
    coef = rng.uniform(0.5, 2.0, size=geom.wdet.shape)
    wvec = rng.standard_normal(geom.wdet.shape + (d,))
    nc = cube6.n_cells
    inv_t = np.swapaxes(cube6.inv_jacobians, 1, 2)
    nloc = mini.vals.shape[1]

    K = np.matmul(wvec, inv_t) * (geom.wdet * coef)[..., None]
    local = K.reshape(nc, -1) @ mini._convection_ref
    ref = mini.pattern.matrix(local.reshape(nc, nloc, nloc))
    assert _same(assemble.convection_matrix(mini, wvec, coef=coef), ref)


@pytest.mark.parametrize("chunk", [7, 10**6])
def test_chunked_forms_do_not_depend_on_the_chunk(cube6, monkeypatch, chunk):
    """Bitwise against one batch; chunks of 7 cells are products small
    enough for OpenBLAS's small-matrix kernel, which sums in another order,
    so there the forms agree to rounding (assemble module docstring)."""
    d = cube6.dim
    geom = assemble.CellQuadrature(cube6, 2 * (d + 1) + 2)
    mini = assemble.ScalarTab(MiniScalarSpace(cube6), geom)
    rng = np.random.default_rng(6)
    coef = rng.uniform(0.5, 2.0, size=geom.wdet.shape)
    wvec = rng.standard_normal(geom.wdet.shape + (d,))

    want = assemble.convection_matrix(mini, wvec, coef=coef)
    monkeypatch.setattr(assemble, "CHUNK", chunk)
    got = assemble.convection_matrix(mini, wvec, coef=coef)
    if chunk > cube6.n_cells:
        assert _same(got, want)
    else:
        assert np.array_equal(got.indices, want.indices)
        err = np.abs(got.data - want.data).max()
        assert err <= 1e-14 * np.abs(want.data).max()


# Peak traced allocation of each form on unit_cube_mesh(6) with the degree-10
# rule, its pattern included, was 1.2 MB (stiffness) and 2.4 MB (divergence)
# when this bound was set, against 9.6 MB and 16.4 MB when both formed a
# coefficient row entry per quadrature point.
CELL_GEOMETRY_FORM_PEAK_BOUND_MB = 3.0


def test_cell_geometry_forms_allocate_no_point_rows(cube6):
    """The stiffness and the MINI-P1 divergence apply |det J| and J^-1 once
    per cell against reference integrals, so neither forms an array with
    an entry per cell and quadrature point."""
    d = cube6.dim
    geom = assemble.CellQuadrature(cube6, 2 * (d + 1) + 2)
    mini = assemble.ScalarTab(MiniScalarSpace(cube6), geom)
    p1 = assemble.ScalarTab(P1Space(cube6), geom)
    for form, tabs in ((assemble.stiffness_matrix, (mini,)),
                       (assemble.div_coupling, (mini, p1))):
        tracemalloc.start()
        try:
            form(*tabs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < CELL_GEOMETRY_FORM_PEAK_BOUND_MB, (
            form.__name__, peak / 1e6)


@pytest.mark.parametrize("name", ["cube3d", "cube3d_nonsmooth"])
def test_chunked_spatial_fields_match_one_pass(cube6, monkeypatch, name):
    case = mms.make_case(name)
    x = assemble.CellQuadrature(cube6, 6).points
    assert x[..., 0].size > mms.CHUNK_POINTS
    got = case._spatial(x)
    monkeypatch.setattr(mms, "CHUNK_POINTS", x[..., 0].size)
    ref = case._spatial(x)
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].shape == ref[key].shape, key
        assert np.array_equal(got[key], ref[key], equal_nan=True), key


@pytest.mark.parametrize("make_mesh, n", [(unit_square_mesh, 8),
                                          (unit_cube_mesh, 3)])
def test_rt_tabs_hold_no_basis_tables(make_mesh, n):
    mesh = make_mesh(n)
    d = mesh.dim
    space = RT1Space(mesh)
    geom = assemble.CellQuadrature(mesh, 6)
    fquad = assemble.FacetQuadrature(mesh, 6)
    tab = assemble.RTTab(space, geom)
    flux = assemble.RTFacetFlux(space, fquad, mesh.interior_facets)
    w = FeField(space, np.random.default_rng(2).standard_normal(space.n_dofs))
    assemble.eval_rt(tab, w)
    assemble.eval_rt_flux(flux, w)
    assemble.rt_load(tab, np.ones(geom.wdet.shape + (d,)))
    for obj, items, nq in ((tab, mesh.n_cells, geom.npoints),
                           (flux, len(mesh.interior_facets), fquad.npoints)):
        arrays = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert arrays
        for a in arrays:
            assert a.size <= items * nq * (d + 1), (type(obj).__name__,
                                                    a.shape)
    # the space keeps no per-cell basis: no array of n_cells n_local^2
    assemble.rt_blocks(tab)
    space.tabulate(np.arange(mesh.n_cells), geom.points)
    space.nodal_divergences()
    arrays = [a for v in vars(space).values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert arrays
    for a in arrays:
        assert a.size < mesh.n_cells * space.n_local ** 2, a.shape


# Peak traced allocation of TimeStepper(unit_cube_mesh(6)) plus initialize
# was 88.2 MB when this bound was set; the bound is 1.25 times that.
SETUP_PEAK_BOUND_MB = 1.25 * 88.2


def test_stepper_setup_allocation_is_bounded():
    case = mms.make_case("cube3d")
    mesh = unit_cube_mesh(6)
    config = SchemeConfig(tau=1 / 512, mu=0.001, n_steps=1,
                          cutoff_mode="widened")
    tracemalloc.start()
    try:
        stepper = TimeStepper(mesh, config)
        stepper.initialize(lambda x: case.rho(x, 0.0),
                           lambda x: case.u(x, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= SETUP_PEAK_BOUND_MB, peak / 1e6


# Peak traced allocation of RtProjectionWorkspace(unit_cube_mesh(6)) was
# 14.8 MB when this bound was set; the bound is 1.25 times that.  Every cell
# of that mesh is distinct (``RT1Space.distinct_cells``), so the tables set
# up on the distinct cells are as large as the gathered ones.
WORKSPACE_PEAK_BOUND_MB = 1.25 * 14.8


def test_workspace_setup_allocation_is_bounded(cube6):
    assert len(RT1Space(cube6).distinct_cells[0]) == cube6.n_cells
    tracemalloc.start()
    try:
        RtProjectionWorkspace(cube6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= WORKSPACE_PEAK_BOUND_MB, peak / 1e6


@pytest.mark.parametrize("make_mesh, n", [(unit_square_mesh, 4),
                                          (unit_cube_mesh, 2)])
def test_stepper_keeps_no_assembled_mass_copies(make_mesh, n):
    """The density mass is one reference block and the projection check
    reads the cell blocks: after two steps no stepper or workspace attribute
    holds a per-cell P2 mass array, the stepper no sparse matrix on the
    density space, and the workspace no sparse matrix at all: it keeps the
    factor of its facet system, not the system."""
    case = mms.make_case("square2d" if n == 4 else "cube3d")
    st = TimeStepper(make_mesh(n), SchemeConfig(
        tau=1 / 64, mu=0.001, n_steps=2, cutoff_mode="widened"))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    for _ in range(2):
        state, _ = st.step(state)
    nloc, nrho = st.rho_space.n_local, st.rho_space.n_dofs
    for obj in (st, st.workspace):
        for name, value in vars(obj).items():
            if isinstance(value, np.ndarray):
                assert value.size != st.mesh.n_cells * nloc ** 2, name
            if sp.issparse(value):
                assert value.shape[0] != nrho, name
                assert obj is st, name


def test_stepper_forms_no_facet_points():
    """Nothing in set-up or a step reads the facet quadrature's physical
    points, so they are never formed."""
    case = mms.make_case("cube3d")
    st = TimeStepper(unit_cube_mesh(2), SchemeConfig(
        tau=1 / 64, mu=0.001, n_steps=1, cutoff_mode="widened"))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    st.step(state)
    assert "points" not in vars(st.fquad)


def _arrays(value):
    """The NumPy arrays ``value`` holds: itself, its items if it is a tuple,
    list or dict, a sparse matrix's data, and the attributes of an object of
    the package, such as a quadrature, tab, pattern or workspace."""
    if isinstance(value, np.ndarray):
        return [value]
    if sp.issparse(value):
        return [value.data]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    if type(value).__module__.startswith("vardens."):
        return _arrays(vars(value))
    return []


@pytest.mark.parametrize("make_mesh, n", [(unit_square_mesh, 4),
                                          (unit_cube_mesh, 2)])
def test_stepper_keeps_no_high_rule_arrays(make_mesh, n):
    """After two steps the stepper, its quadratures, tabs and workspace and the
    chi cache hold no array with an entry per cell and high-rule point:
    none of shape (n_cells, nq_hi, ...), and no flat one whose size is a
    multiple of n_cells nq_hi.  So no points, weights, density samples or
    chi of the high rule survive a step."""
    case = mms.make_case("square2d" if n == 4 else "cube3d")
    st = TimeStepper(make_mesh(n), SchemeConfig(
        tau=1 / 64, mu=0.001, n_steps=2, cutoff_mode="widened"))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    for _ in range(2):
        state, _ = st.step(state)
    nc, nq = st.mesh.n_cells, st.geom_hi.npoints
    assert st._chi_cache
    for name, value in vars(st).items():
        for a in _arrays(value):
            flat = a.ndim == 1 and a.size and a.size % (nc * nq) == 0
            assert a.shape[:2] != (nc, nq) and not flat, (name, a.shape)


# Peak traced allocation over two steps with sources on unit_cube_mesh(6),
# after initialize and with the source fields built, and the largest growth
# within one velocity step, were 15.7 MB and 7.0 MB when these bounds were
# set; each bound is 1.25 times its figure.  Before the velocity step formed
# its high-rule values chunk by chunk they were 30.1 MB and 24.0 MB.
MARCH_PEAK_BOUND_MB = 1.25 * 15.7
VELOCITY_STEP_PEAK_BOUND_MB = 1.25 * 7.0


def test_march_allocation_is_bounded():
    """What two steps allocate, the first step's build of the source load
    matrices included.  The density step sets the march's peak, so the
    growth within each velocity step is bounded on its own too."""
    case = mms.make_case("cube3d")
    sources = case.make_source_evaluator(0.001)
    config = SchemeConfig(tau=1 / 512, mu=0.001, n_steps=2,
                          cutoff_mode="widened", f=sources.f, g=sources.g)
    stepper = TimeStepper(unit_cube_mesh(6), config)
    state = stepper.initialize(lambda x: case.rho(x, 0.0),
                               lambda x: case.u(x, 0.0))
    # the march's peak is the largest of the peaks between resets
    velocity_step, peaks, growth = stepper.velocity_step, [], []

    def traced_velocity_step(*args):
        start, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        out = velocity_step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        growth.append(peaks[-1] - start)
        tracemalloc.reset_peak()
        return out

    stepper.velocity_step = traced_velocity_step
    tracemalloc.start()
    try:
        for _ in range(2):
            state, _ = stepper.step(state)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(growth) == 2
    assert max(growth) / 1e6 <= VELOCITY_STEP_PEAK_BOUND_MB, max(growth) / 1e6
    assert max(peaks) / 1e6 <= MARCH_PEAK_BOUND_MB, max(peaks) / 1e6


def test_case_keeps_the_only_copy_of_the_source_points():
    """After a step with sources the evaluator holds no array, the case's
    cache holds the one copy of the low-rule points, and rho and u at those
    points, at several times, ran one plain pass; f and g use no cache."""
    case = mms.make_case("cube3d")
    sources = case.make_source_evaluator(0.001)
    stepper = TimeStepper(unit_cube_mesh(2), SchemeConfig(
        tau=1 / 64, mu=0.001, n_steps=1, cutoff_mode="widened",
        f=sources.f, g=sources.g))
    state = stepper.initialize(lambda x: case.rho(x, 0.0),
                               lambda x: case.u(x, 0.0))
    calls = []
    case._cache.compute = {
        name: (lambda x, name=name, f=f: calls.append(name) or f(x))
        for name, f in case._cache.compute.items()}
    state, _ = stepper.step(state)
    x = stepper.geom_lo.points
    for t in (state.t, 0.0, 0.5):
        sources.f(x, t), sources.g(x, t), case.rho(x, t), case.u(x, t)
    assert calls == ["rho", "u"]
    assert [name for name, value in vars(sources).items()
            if value is not case and _arrays(value)] == []
    copies = [a for a in _arrays(vars(case))
              if a.shape == x.shape and np.array_equal(a, x)]
    assert len(copies) == 1 and copies[0] is case._cache.points
