"""The three projection/interpolation operators."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vardens import assemble, linalg
from vardens.mesh import Mesh, unit_cube_mesh, unit_square_mesh
from vardens.mms import make_case
from vardens.projections import (RtProjectionWorkspace, _mixed_inverse,
                                 interpolate_mini, project_dg,
                                 project_rt_divfree, rt_divergence_nodal)
from vardens.spaces import FeField, MiniVectorSpace, P2DGSpace, RT1Space


def _jittered_cube(n):
    """``unit_cube_mesh(n)`` with every interior vertex moved by up to a
    tenth of h per axis, so that no two cells share their Piola data and
    the map to distinct cells keeps every cell."""
    mesh = unit_cube_mesh(n)
    vertices = mesh.vertices.copy()
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            mesh.boundary_vertices)
    rng = np.random.default_rng(11)
    vertices[interior] += rng.uniform(-0.1, 0.1, (len(interior), 3)) / n
    mesh = Mesh(3, vertices, mesh.cells)
    reps, inverse = RT1Space(mesh).distinct_cells
    assert np.array_equal(reps[inverse], np.arange(mesh.n_cells))
    return mesh


def _p2_tab(mesh, degree=8):
    geom = assemble.CellQuadrature(mesh, degree)
    return assemble.ScalarTab(P2DGSpace(mesh), geom)


def test_project_dg_constant_exact():
    tab = _p2_tab(unit_square_mesh(2))
    field = project_dg(tab, np.full(tab.geom.points.shape[:-1], 3.25))
    assert np.abs(field.coeffs - 3.25).max() < 1e-12
    vals = assemble.eval_scalar(tab, field)
    assert np.abs(vals - 3.25).max() < 1e-12


def test_project_dg_rejects_anything_but_point_values():
    """A callable or point values of another shape are a ``ValueError``
    naming the shape (nc, nq) expected at ``tab.geom.points``."""
    tab = _p2_tab(unit_square_mesh(2))
    nc, nq = tab.geom.points.shape[:-1]
    for values in (lambda x: x[..., 0], np.ones((nc, nq + 1)),
                   np.ones(nq)):
        with pytest.raises(ValueError, match=rf"\({nc}, {nq}\)"):
            project_dg(tab, values)


def test_project_dg_reproduces_quadratics():
    tab = _p2_tab(unit_square_mesh(3))

    def f(x):
        return 1.0 + 2 * x[..., 0] - x[..., 1] + x[..., 0] * x[..., 1] \
            + 0.5 * x[..., 0] ** 2

    field = project_dg(tab, f(tab.geom.points))
    vals = assemble.eval_scalar(tab, field)
    assert np.abs(vals - f(tab.geom.points)).max() < 1e-12


def test_project_dg_orthogonality():
    tab = _p2_tab(unit_square_mesh(4))

    def f(x):
        return np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1])

    field = project_dg(tab, f(tab.geom.points))
    resid = assemble.eval_scalar(tab, field) - f(tab.geom.points)
    # (f - Pf, w) = 0 for every dG basis function
    defect = np.einsum("cq,cq,qi->ci", tab.geom.wdet, resid, tab.vals)
    assert np.abs(defect).max() < 1e-11


def test_project_dg_third_order():
    errs = []
    for n in (4, 8, 16):
        tab = _p2_tab(unit_square_mesh(n))

        def f(x):
            return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

        field = project_dg(tab, f(tab.geom.points))
        resid = assemble.eval_scalar(tab, field) - f(tab.geom.points)
        errs.append(math.sqrt(assemble.integrate(tab.geom, resid ** 2)))
    order1 = math.log(errs[0] / errs[1]) / math.log(2.0)
    order2 = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert order1 > 2.8 and order2 > 2.9


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 4), (unit_cube_mesh, 3),
                                    (_jittered_cube, 3)])
def test_rt_projection_invariants_random_fields(make, n):
    mesh = make(n)
    ws = RtProjectionWorkspace(mesh)
    vel = MiniVectorSpace(mesh)
    fq = assemble.FacetQuadrature(mesh, 6)
    flux_tab = assemble.RTFacetFlux(ws.rt_space, fq, mesh.boundary_facets)
    mini_tab = assemble.ScalarTab(vel.scalar, ws.geom)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = FeField(vel, rng.standard_normal(vel.n_dofs))
        sigma = project_rt_divfree(ws, v)
        assert np.abs(rt_divergence_nodal(sigma)).max() < 1e-11
        assert np.abs(assemble.eval_rt_flux(flux_tab, sigma)).max() < 1e-11
        # L2 orthogonality against another projected (divergence-free) field
        w, _ = ws.project(assemble.eval_rt(ws.rt_tab, FeField(
            ws.rt_space, rng.standard_normal(ws.rt_space.n_dofs))))
        vv = assemble.eval_mini_vector(mini_tab, v)
        sv = assemble.eval_rt(ws.rt_tab, sigma)
        wv = assemble.eval_rt(ws.rt_tab, w)
        ortho = assemble.integrate(
            ws.geom, np.einsum("cqd,cqd->cq", vv - sv, wv)
        )
        assert abs(ortho) < 1e-10
        again, _ = ws.project(assemble.eval_rt(ws.rt_tab, sigma))
        assert np.abs(again.coeffs - sigma.coeffs).max() < 1e-10


def test_rt_projection_zero_field():
    ws = RtProjectionWorkspace(unit_square_mesh(3))
    vel = MiniVectorSpace(ws.mesh)
    sigma, _ = ws.project(FeField(vel, np.zeros(vel.n_dofs)))
    assert np.abs(sigma.coeffs).max() < 1e-14


def test_rt_projection_mesh_mismatch():
    ws = RtProjectionWorkspace(unit_square_mesh(2))
    other = MiniVectorSpace(unit_square_mesh(3))
    with pytest.raises(ValueError, match="different mesh"):
        ws.project(FeField(other, np.zeros(other.n_dofs)))


def test_rt_projection_gauge_independence():
    """The projected field must not depend on how the multiplier's null
    space is removed: mean pinning vs pinning any single dof."""
    mesh = unit_square_mesh(3)
    ws = RtProjectionWorkspace(mesh)
    rng = np.random.default_rng(5)
    vel = MiniVectorSpace(mesh)
    v = FeField(vel, rng.standard_normal(vel.n_dofs))
    sigma, _ = ws.project(v)

    M = assemble.rt_mass_matrix(ws.rt_tab)
    D = assemble.mixed_div_matrix(ws.rt_tab, ws.dg_tab)
    Mff = M[ws.free, :][:, ws.free]
    Df = D[:, ws.free]
    K = sp.bmat([[Mff, Df.T], [Df, None]], format="csr")
    vals = assemble.eval_mini_vector(
        assemble.ScalarTab(vel.scalar, ws.geom), v
    )
    b = assemble.rt_load(ws.rt_tab, vals)[ws.free]
    for pin_dof in (0, ws.dg_space.n_dofs // 2):
        constraint = np.zeros(K.shape[0])
        constraint[len(ws.free) + pin_dof] = 1.0
        rhs = np.concatenate([b, np.zeros(ws.dg_space.n_dofs)])
        x, _ = linalg.solve_constrained(K, rhs, constraint)
        assert np.abs(x[: len(ws.free)] - sigma.coeffs[ws.free]).max() < 1e-10


def test_rt_projection_rate_on_exact_velocity():
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
            geom, np.einsum("cqd,cqd->cq", diff, diff)
        )))
    for (e1, n1), (e2, n2) in zip([(errs[0], 8), (errs[1], 16)],
                                  [(errs[1], 16), (errs[2], 32)]):
        order = math.log(e1 / e2) / math.log(n2 / n1)
        assert order >= 1.8


def test_interpolate_mini_zero_and_linear():
    mesh = unit_square_mesh(4)
    vel = MiniVectorSpace(mesh)
    z = interpolate_mini(vel, lambda x: np.zeros_like(x))
    assert np.abs(z.coeffs).max() == 0.0


def test_interpolate_mini_vertex_values_and_bubbles():
    mesh = unit_square_mesh(3)
    vel = MiniVectorSpace(mesh)
    case = make_case("square2d")
    field = interpolate_mini(vel, lambda x: case.u(x, 0.0))
    ns = vel.scalar.n_dofs
    nv = mesh.n_vertices
    exact = case.u(mesh.vertices, 0.0)
    for k in range(2):
        comp = field.coeffs[k * ns : (k + 1) * ns]
        assert np.abs(comp[:nv] - exact[:, k]).max() < 1e-12
        assert np.abs(comp[nv:]).max() == 0.0  # bubble dofs stay zero
    bverts = np.unique(mesh.facet_vertices[mesh.boundary_facets].ravel())
    assert np.abs(field.coeffs[bverts]).max() == 0.0


def test_interpolate_mini_rejects_values_of_the_wrong_shape():
    vel = MiniVectorSpace(unit_square_mesh(2))
    with pytest.raises(ValueError, match="one d-vector per vertex"):
        interpolate_mini(vel, lambda x: x[:, 0])


def test_interpolate_mini_warns_on_nonzero_boundary():
    mesh = unit_square_mesh(2)
    vel = MiniVectorSpace(mesh)
    with pytest.warns(UserWarning, match="nonzero on the boundary"):
        field = interpolate_mini(vel, lambda x: np.ones_like(x))
    bverts = np.unique(mesh.facet_vertices[mesh.boundary_facets].ravel())
    assert np.abs(field.coeffs[bverts]).max() == 0.0


def test_interpolate_mini_rate():
    case = make_case("square2d")
    errs = []
    for n in (8, 16, 32):
        mesh = unit_square_mesh(n)
        vel = MiniVectorSpace(mesh)
        geom = assemble.CellQuadrature(mesh, 8)
        tab = assemble.ScalarTab(vel.scalar, geom)
        field = interpolate_mini(vel, lambda x: case.u(x, 0.0))
        diff = assemble.eval_mini_vector(tab, field) - case.u(geom.points, 0.0)
        errs.append(math.sqrt(assemble.integrate(
            geom, np.einsum("cqd,cqd->cq", diff, diff)
        )))
    for e1, e2 in zip(errs, errs[1:]):
        assert math.log(e1 / e2) / math.log(2.0) >= 1.8


def _bordered_mixed_projection(ws, values):
    """The projection through the global mixed system, bordered by the
    multiplier's mean (``linalg.solve_constrained``)."""
    M = assemble.rt_mass_matrix(ws.rt_tab)
    D = assemble.mixed_div_matrix(ws.rt_tab, ws.dg_tab)
    Mff = M[ws.free, :][:, ws.free]
    Df = D[:, ws.free]
    K = sp.bmat([[Mff, Df.T], [Df, None]], format="csr")
    mean = assemble.load_vector(ws.dg_tab, np.ones_like(ws.geom.wdet))
    constraint = np.concatenate([np.zeros(len(ws.free)), mean])
    b = assemble.rt_load(ws.rt_tab, values)
    rhs = np.concatenate([b[ws.free], np.zeros(ws.dg_space.n_dofs)])
    x, _ = linalg.solve_constrained(K, rhs, constraint)
    coeffs = np.zeros(ws.rt_space.n_dofs)
    coeffs[ws.free] = x[: len(ws.free)]
    return coeffs


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 8), (unit_cube_mesh, 3),
                                    (_jittered_cube, 3)])
def test_rt_projection_matches_global_mixed_system(make, n):
    mesh = make(n)
    ws = RtProjectionWorkspace(mesh)
    vel = MiniVectorSpace(mesh)
    mini_tab = assemble.ScalarTab(vel.scalar, ws.geom)
    rng = np.random.default_rng(17)
    for _ in range(3):
        v = FeField(vel, rng.standard_normal(vel.n_dofs))
        sigma, _ = ws.project(v)
        ref = _bordered_mixed_projection(
            ws, assemble.eval_mini_vector(mini_tab, v)
        )
        assert np.abs(sigma.coeffs - ref).max() <= 1e-10 * np.abs(ref).max()
    # the pinned facet system is symmetric positive definite
    S = ws.system_matrix().toarray()
    assert (S == S.T).all()
    eig = np.linalg.eigvalsh(S)
    assert eig[0] > 1e-10 * eig[-1]


def test_rt_projection_contracts_cube_n8():
    """Nodal divergence and boundary flux stay within 1e-11 at h = 1/8."""
    mesh = unit_cube_mesh(8)
    ws = RtProjectionWorkspace(mesh)
    vel = MiniVectorSpace(mesh)
    fq = assemble.FacetQuadrature(mesh, 6)
    flux_tab = assemble.RTFacetFlux(ws.rt_space, fq, mesh.boundary_facets)
    case = make_case("cube3d")
    rng = np.random.default_rng(8)
    for v in (case.u(ws.geom.points, 0.0),
              FeField(vel, rng.standard_normal(vel.n_dofs))):
        sigma, _ = ws.project(v)
        assert np.abs(rt_divergence_nodal(sigma)).max() <= 1e-11
        assert np.abs(assemble.eval_rt_flux(flux_tab, sigma)).max() <= 1e-11


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 8),
                                    (unit_cube_mesh, 4)])
def test_mini_field_load_matches_its_point_values(make, n):
    """A MINI field is loaded from its cell coefficients; the projection
    equals that of its values at the rule's points, and for the cube3d
    velocity it keeps the divergence and flux contracts."""
    mesh = make(n)
    ws = RtProjectionWorkspace(mesh)
    vel = MiniVectorSpace(mesh)
    case = make_case("square2d" if mesh.dim == 2 else "cube3d")
    rng = np.random.default_rng(n)
    fq = assemble.FacetQuadrature(mesh, 6)
    flux_tab = assemble.RTFacetFlux(ws.rt_space, fq, mesh.boundary_facets)
    for v in (FeField(vel, rng.standard_normal(vel.n_dofs)),
              interpolate_mini(vel, lambda x: case.u(x, 0.0))):
        got = ws.project(v)[0].coeffs
        ref = ws.project(assemble.eval_mini_vector(ws.mini_tab, v))[0].coeffs
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    sigma, _ = ws.project(v)
    assert np.abs(rt_divergence_nodal(sigma)).max() <= 1e-11
    assert np.abs(assemble.eval_rt_flux(flux_tab, sigma)).max() <= 1e-11


def test_rt_factor_in_dissection_order_keeps_fill_and_accuracy():
    """The facet system, factored in the mesh's nested-dissection order, has
    no more fill than a minimum-degree factor of the same matrix numbered by
    RT1 facet dofs, and it solves a random right-hand side to rounding."""
    mesh = unit_cube_mesh(8)
    ws = RtProjectionWorkspace(mesh)
    S = ws.system_matrix().tocsc()
    d = mesh.dim
    # RT1 facet dof of every multiplier but the pinned last one
    dofs = (mesh.facet_dissection_order[:, None] * d
            + np.arange(d)).ravel()[:-1]
    by_dof = np.argsort(dofs)
    mmd = spla.splu(S[by_dof][:, by_dof], permc_spec="MMD_AT_PLUS_A",
                    options={"SymmetricMode": True, "DiagPivotThresh": 0.01})
    assert ws.lu.L.nnz + ws.lu.U.nnz <= mmd.L.nnz + mmd.U.nnz
    b = np.random.default_rng(3).standard_normal(S.shape[0])
    x = ws.lu.solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 3), (unit_cube_mesh, 2)])
def test_workspace_facet_signs_and_weights_match_their_formulas(make, n):
    mesh = make(n)
    ws = RtProjectionWorkspace(mesh)
    d, nc = mesh.dim, mesh.n_cells
    owner = mesh.facet_minus[mesh.cell_facets] == np.arange(nc)[:, None]
    sign = np.repeat(np.where(owner, 1.0, -1.0), d, axis=1)
    interior = mesh.facet_plus[mesh.cell_facets] >= 0
    weight = np.repeat(np.where(interior, 0.5, 0.0), d, axis=1)
    assert ws._sign.dtype == sign.dtype and np.array_equal(ws._sign, sign)
    assert (ws._facet_weight.dtype == weight.dtype
            and np.array_equal(ws._facet_weight, weight))


def test_corrupted_divergence_blocks_fail_the_residual_check():
    """The projection is checked on the cell blocks it keeps: wrong
    divergence blocks are caught on a field with a gradient part."""
    ws = RtProjectionWorkspace(unit_square_mesh(4))
    x = ws.geom.points
    v = np.stack([x[..., 0] + x[..., 1] ** 2, np.sin(x[..., 0]) * x[..., 1]],
                 axis=-1)
    _, report = ws.project(v)
    assert report.residual <= 1e-12
    ws._Bk = 2.0 * ws._Bk
    with pytest.raises(linalg.ResidualError,
                       match="hybridized projection residual"):
        ws.project(v)


def test_project_makes_one_solve_of_the_factor():
    """No refinement step: one solve of ``lu`` per projection, and the
    result still passes the mixed-residual check."""
    ws = RtProjectionWorkspace(unit_cube_mesh(2))

    class Counting:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, b):
            self.solves += 1
            return self.lu.solve(b)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    ws.lu = Counting(ws.lu)
    x = ws.geom.points
    v = np.stack([np.sin(3 * x[..., 1]), x[..., 0] * x[..., 2],
                  np.cos(x[..., 0])], axis=-1)
    for calls in (1, 2):
        _, report = ws.project(v)
        assert ws.lu.solves == calls
    assert report.residual <= 1e-12


def test_projection_leaves_no_report_on_the_workspace():
    """The projection returns its report; no attribute of the workspace
    holds one after it, so no projection's report outlives its call."""
    mesh = unit_square_mesh(3)
    ws = RtProjectionWorkspace(mesh)
    vel = MiniVectorSpace(mesh)
    v = FeField(vel, np.random.default_rng(2).standard_normal(vel.n_dofs))
    ws.project(v)
    assert not [name for name, value in vars(ws).items()
                if isinstance(value, linalg.SolveReport)]


def test_project_rejects_a_callable():
    """The projection takes a MINI field or point values at the rule's
    points; a callable is evaluated by its caller."""
    ws = RtProjectionWorkspace(unit_square_mesh(2))
    with pytest.raises(ValueError, match="point values or a MINI"):
        ws.project(lambda x: np.zeros(x.shape))


def _per_cell_workspace(mesh, monkeypatch):
    """The workspace with every table computed cell by cell: the map to
    distinct cells replaced by the identity."""
    nc = mesh.n_cells
    with monkeypatch.context() as m:
        m.setattr(RT1Space, "distinct_cells",
                  property(lambda self: (np.arange(nc), np.arange(nc))))
        ws = RtProjectionWorkspace(mesh)
        assert len(ws.rt_space.distinct_cells[0]) == nc
    return ws


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 16),
                                    (unit_cube_mesh, 4),
                                    (unit_cube_mesh, 8)])
def test_gathered_tables_match_per_cell_tables(make, n, monkeypatch):
    """The tables set up on the distinct cells and gathered are those of a
    set-up cell by cell, to 1e-14 relative; the facet system has the same
    structure."""
    mesh = make(n)
    ws = RtProjectionWorkspace(mesh)
    ref = _per_cell_workspace(mesh, monkeypatch)
    assert len(ws.rt_space.distinct_cells[0]) < mesh.n_cells
    for name in ("_Mk", "_Bk", "_solve_local", "_nodal_div", "_div_fix"):
        got, want = getattr(ws, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
    S, R = ws.system_matrix(), ref.system_matrix()
    assert np.array_equal(S.indptr, R.indptr)
    assert np.array_equal(S.indices, R.indices)
    assert np.abs(S.data - R.data).max() <= 1e-14 * np.abs(R.data).max()


def _kept_system_matrix(ws):
    """The pinned facet system as set-up once kept it: the signed blocks
    formed on the distinct cells, gathered per cell and summed over the
    facets' d x d blocks, the facets ranked from the dissection order."""
    mesh, d = ws.mesh, ws.mesh.dim
    nf, nfl = mesh.n_facets, d * (d + 1)
    reps, inverse = ws.rt_space.distinct_cells
    H = _mixed_inverse(*assemble.rt_blocks(ws.rt_tab, ws.dg_tab))
    sign = ws._sign[reps]
    Hf = (assemble._symmetric(H[:, :nfl, :nfl])
          * sign[:, :, None] * sign[:, None, :])
    Hf = np.swapaxes(Hf.reshape(-1, d + 1, d, d + 1, d), 2, 3)
    rank = np.empty(nf, dtype=np.int64)
    rank[mesh.facet_dissection_order] = np.arange(nf)
    ranks = rank[mesh.cell_facets]
    pattern = assemble.Pattern.build((nf, nf), ranks, ranks)
    return pattern.block_matrix(Hf[inverse]).tocsr()[:-1, :-1]


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 8), (unit_cube_mesh, 3)])
def test_system_matrix_is_the_kept_system_bit_for_bit(make, n):
    """The facet system assembled from the per-cell tables the workspace
    keeps is bitwise symmetric, bit for bit the one set-up built on the
    distinct cells, and ``lu`` solves it to ``SOLVER_TOL``."""
    ws = RtProjectionWorkspace(make(n))
    S = ws.system_matrix()
    assert abs(S - S.T).max() == 0.0
    ref = _kept_system_matrix(ws)
    assert S.format == ref.format == "csr"
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(S, attr), getattr(ref, attr)), attr
    b = np.random.default_rng(n).standard_normal(S.shape[0])
    x = ws.lu.solve(b)
    assert np.linalg.norm(b - S @ x) <= linalg.SOLVER_TOL * np.linalg.norm(b)
