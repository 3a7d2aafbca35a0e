"""Cell and facet form assembly, including the upwind transport terms."""

import copy
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from vardens import assemble, linalg
from vardens.mesh import Mesh, unit_cube_mesh, unit_square_mesh
from vardens.projections import RtProjectionWorkspace, project_dg
from vardens.scheme import SchemeConfig, TimeStepper
from vardens.spaces import (FeField, MiniScalarSpace, P1Space, P2DGSpace,
                            RT1Space, barycentric)


@pytest.fixture(scope="module")
def square8():
    return unit_square_mesh(8)


def test_p2dg_mass_is_block_diagonal():
    m = unit_square_mesh(1)
    geom = assemble.CellQuadrature(m, 6)
    tab = assemble.ScalarTab(P2DGSpace(m), geom)
    M = assemble.mass_matrix(tab, None).tocoo()
    # every entry stays inside its cell's 6x6 block
    assert ((M.row // 6) == (M.col // 6)).all()
    assert M.shape == (12, 12)


def test_stiffness_annihilates_constants(square8):
    geom = assemble.CellQuadrature(square8, 6)
    for space in (P1Space(square8), MiniScalarSpace(square8),
                  P2DGSpace(square8)):
        tab = assemble.ScalarTab(space, geom)
        K = assemble.stiffness_matrix(tab)
        const = np.ones(space.n_dofs)
        if isinstance(space, MiniScalarSpace):
            const[square8.n_vertices:] = 0.0  # bubbles are zero-mean extras
        assert np.abs(K @ const).max() <= 1e-12


def test_mixed_div_matrix_kills_projected_fields(square8):
    ws = RtProjectionWorkspace(square8)
    D = assemble.mixed_div_matrix(ws.rt_tab, ws.dg_tab)

    def v(x):
        out = np.zeros(x.shape)
        out[..., 0] = np.sin(np.pi * x[..., 0]) ** 2 * np.sin(2 * np.pi * x[..., 1])
        out[..., 1] = -np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) ** 2
        return out

    sigma, _ = ws.project(v(ws.geom.points))
    assert np.abs(D @ sigma.coeffs).max() < 1e-11


@pytest.mark.parametrize("make_mesh,n,degree", [(unit_square_mesh, 5, 6),
                                                (unit_cube_mesh, 3, 10)])
def test_map_points_is_the_affine_map(make_mesh, n, degree):
    """The physical points, one batched product with the Jacobians, against
    x = v0 + J xhat written out per component, to a few ulp of the unit
    domain."""
    mesh = make_mesh(n)
    geom = assemble.CellQuadrature(mesh, degree)
    got = geom.map_points(slice(None))
    ref = mesh.vertices[mesh.cells[:, 0]][:, None, :] + np.einsum(
        "qk,cdk->cqd", geom.rule.points, mesh.jacobians)
    assert got.shape == ref.shape and got.flags.c_contiguous
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps


def test_integrate_basics(square8):
    geom = assemble.CellQuadrature(square8, 6)
    one = np.ones_like(geom.wdet)
    assert abs(assemble.integrate(geom, one) - 1.0) < 1e-12
    assert abs(assemble.integrate(geom, geom.points[..., 0]) - 0.5) < 1e-12


def test_integrate_sine_norm():
    m = unit_square_mesh(32)
    geom = assemble.CellQuadrature(m, 8)
    f = np.sin(np.pi * geom.points[..., 0]) * np.sin(np.pi * geom.points[..., 1])
    assert abs(assemble.integrate(geom, f * f) - 0.25) < 1e-6


def test_symmetric_forms_give_symmetric_matrices(square8):
    geom = assemble.CellQuadrature(square8, 8)
    tab = assemble.ScalarTab(MiniScalarSpace(square8), geom)
    rng = np.random.default_rng(4)
    coef = rng.uniform(0.5, 2.0, size=geom.wdet.shape)
    for A in (assemble.mass_matrix(tab, coef), assemble.stiffness_matrix(tab)):
        asym = abs(A - A.T).max()
        assert asym <= 1e-12 * abs(A).max()


@pytest.mark.parametrize("make_mesh,n", [(unit_square_mesh, 8),
                                         (unit_cube_mesh, 3)])
def test_symmetric_forms_are_bitwise_symmetric(make_mesh, n):
    """Exact symmetry, independent of einsum's contraction order and of the
    order in which COO->CSR sums duplicates (3D P1 and MINI entries collect
    three or more cell contributions)."""
    mesh = make_mesh(n)
    geom = assemble.CellQuadrature(mesh, 6)
    coef = np.random.default_rng(5).uniform(0.5, 2.0, size=geom.wdet.shape)
    mats = []
    for space in (P1Space(mesh), MiniScalarSpace(mesh), P2DGSpace(mesh)):
        tab = assemble.ScalarTab(space, geom)
        mats += [assemble.mass_matrix(tab, coef),
                 assemble.stiffness_matrix(tab)]
    mats.append(assemble.rt_mass_matrix(
        assemble.RTTab(RT1Space(mesh), geom)))
    for A in mats:
        assert abs(A - A.T).max() == 0.0


@pytest.mark.parametrize("make_mesh,n", [(unit_square_mesh, 8),
                                         (unit_cube_mesh, 3)])
def test_rt_projection_system_is_bitwise_symmetric(make_mesh, n):
    """The facet system, summed in d x d blocks of a facet's multipliers,
    is bitwise symmetric and bit for bit the one summed entry by entry over
    the multipliers, so it factors with the same fill."""
    ws = RtProjectionWorkspace(make_mesh(n))
    K = ws.system_matrix()
    assert abs(K - K.T).max() == 0.0
    nfl, nmult = ws._mult.shape[1], ws.rt_space.n_facet_dofs
    sign = ws._sign[:, :, None] * ws._sign[:, None, :]
    pattern = assemble.Pattern.build((nmult, nmult), ws._mult, ws._mult)
    S = pattern.matrix(assemble._symmetric(ws._solve_local[:, :nfl, :nfl])
                       * sign)[:-1, :-1]
    assert K.format == S.format == "csr"
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K, attr), getattr(S, attr)), attr
    assert ws.lu.nnz == linalg.factorize(S, "given").nnz


def test_assembly_determinism(square8):
    geom = assemble.CellQuadrature(square8, 6)
    tab = assemble.ScalarTab(P2DGSpace(square8), geom)
    rng = np.random.default_rng(0)
    coef = rng.uniform(1.0, 2.0, size=geom.wdet.shape)
    A1 = assemble.mass_matrix(tab, coef)
    A2 = assemble.mass_matrix(tab, coef)
    assert (A1.indptr == A2.indptr).all()
    assert (A1.indices == A2.indices).all()
    assert (A1.data == A2.data).all()  # bit-identical


def test_upwind_zero_field_gives_zero_matrix(square8):
    rt = RT1Space(square8)
    fq = assemble.FacetQuadrature(square8, 6)
    trace = assemble.DGFacetTrace(P2DGSpace(square8), fq)
    flux_tab = assemble.RTFacetFlux(rt, fq, square8.interior_facets)
    w = FeField(rt, np.zeros(rt.n_dofs))
    U = assemble.upwind_matrix(trace, assemble.eval_rt_flux(flux_tab, w))
    assert U.nnz == 0 or np.abs(U.data).max() == 0.0


def test_upwind_annihilates_continuous_fields(square8):
    """Continuous densities have zero jumps, so the operator kills them."""
    m = square8
    ws = RtProjectionWorkspace(m)
    geom = ws.geom
    p2 = P2DGSpace(m)
    tab = assemble.ScalarTab(p2, geom)
    fq = assemble.FacetQuadrature(m, 6)
    trace = assemble.DGFacetTrace(p2, fq)

    def stream_velocity(x):
        # curl of a smooth stream function vanishing on the boundary
        sx = np.sin(np.pi * x[..., 0]) ** 2
        sy = np.sin(np.pi * x[..., 1]) ** 2
        out = np.zeros(x.shape)
        out[..., 0] = sx * np.sin(2 * np.pi * x[..., 1]) * np.pi
        out[..., 1] = -np.sin(2 * np.pi * x[..., 0]) * sy * np.pi
        return out

    w, _ = ws.project(stream_velocity(geom.points))
    flux_tab = assemble.RTFacetFlux(ws.rt_space, fq, m.interior_facets)
    U = assemble.upwind_matrix(trace, assemble.eval_rt_flux(flux_tab, w))
    # a globally continuous function, represented in the dG basis
    x = geom.points
    rho = project_dg(tab, 1.0 + x[..., 0] ** 2 + x[..., 1])
    assert np.abs(U @ rho.coeffs).max() < 1e-12


def _hand_upwind_oracle(mesh, trace_space, s_of_t, nsub=400):
    """Split-facet quadrature of the upwind pairing on a 2-cell mesh.

    Integrates s (rho_minus - rho_plus) phi_downwind over the single
    interior facet by composite Gauss quadrature on the two sign regions
    (the flux root is found by bisection on the facet parameter).
    """
    from vardens.quadrature import simplex_rule

    f = mesh.interior_facets[0]
    fv = mesh.vertices[mesh.facet_vertices[f]]
    meas = np.linalg.norm(fv[1] - fv[0])
    cm, cp = mesh.facet_minus[f], mesh.facet_plus[f]
    rule = simplex_rule(1, 11)

    # locate the sign change
    ts = np.linspace(0.0, 1.0, nsub + 1)
    roots = [0.0, 1.0]
    for a, b in zip(ts[:-1], ts[1:]):
        if s_of_t(np.array([a]))[0] * s_of_t(np.array([b]))[0] < 0:
            lo, hi = a, b
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if s_of_t(np.array([lo]))[0] * s_of_t(np.array([mid]))[0] <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.insert(-1, 0.5 * (lo + hi))
    n = trace_space.n_dofs
    U = np.zeros((n, n))
    for a, b in zip(roots[:-1], roots[1:]):
        t = a + rule.points[:, 0] * (b - a)
        wq = rule.weights * (b - a) * meas
        pts = fv[0] + t[:, None] * (fv[1] - fv[0])
        rm = mesh.reference_coords(np.array([cm]), pts[None])[0]
        rp = mesh.reference_coords(np.array([cp]), pts[None])[0]
        Tm = trace_space.ref_values(rm)
        Tp = trace_space.ref_values(rp)
        s = s_of_t(t)
        down_is_minus = s[len(s) // 2] < 0
        dofs_m = trace_space.cell_dofs[cm]
        dofs_p = trace_space.cell_dofs[cp]
        phi_down = Tm if down_is_minus else Tp
        dofs_down = dofs_m if down_is_minus else dofs_p
        for i in range(Tm.shape[1]):
            for j in range(Tm.shape[1]):
                U[dofs_down[i], dofs_m[j]] += np.sum(wq * s * Tm[:, j] * phi_down[:, i])
                U[dofs_down[i], dofs_p[j]] -= np.sum(wq * s * Tp[:, j] * phi_down[:, i])
    return U


def _two_cell_flux_field(mesh, moments):
    """RT field whose interior-facet normal flux has the given P1 moments."""
    rt = RT1Space(mesh)
    w = np.zeros(rt.n_dofs)
    f = mesh.interior_facets[0]
    w[2 * f], w[2 * f + 1] = moments
    return rt, FeField(rt, w)


def test_upwind_matches_hand_quadrature_without_sign_change():
    mesh = unit_square_mesh(1)
    p2 = P2DGSpace(mesh)
    fq = assemble.FacetQuadrature(mesh, 6)
    trace = assemble.DGFacetTrace(p2, fq)
    rt, w = _two_cell_flux_field(mesh, (0.6, 1.1))  # one-signed linear flux
    flux_tab = assemble.RTFacetFlux(rt, fq, mesh.interior_facets)
    s = assemble.eval_rt_flux(flux_tab, w)
    assert (s > 0).all()
    U = assemble.upwind_matrix(trace, s).toarray()
    oracle = _hand_upwind_oracle(mesh, p2, _flux_closure(mesh, rt, w))
    assert np.abs(U - oracle).max() < 1e-12


def _flux_closure(mesh, rt, w):
    f = mesh.interior_facets[0]
    fv = mesh.vertices[mesh.facet_vertices[f]]
    cm = mesh.facet_minus[f]
    nu = mesh.facet_normals[f]

    def s_of_t(t):
        pts = fv[0] + np.atleast_1d(t)[:, None] * (fv[1] - fv[0])
        vals, _ = rt.tabulate(np.array([cm]), pts[None])
        wf = np.einsum("i,qid->qd", w.coeffs[rt.cell_dofs[cm]], vals[0])
        return wf @ nu

    return s_of_t


def test_upwind_sign_change_matches_split_oracle():
    """Linear flux crossing zero inside the facet: per-point indicator
    assembly approximates the exact two-region integral; the deviation is
    pure quadrature error of the kinked integrand and shrinks with rule
    refinement."""
    mesh = unit_square_mesh(1)
    p2 = P2DGSpace(mesh)
    rt, w = _two_cell_flux_field(mesh, (-0.5, 0.5))  # flux root mid-facet
    oracle = _hand_upwind_oracle(mesh, p2, _flux_closure(mesh, rt, w))
    scale = np.abs(oracle).max()

    errs = []
    for degree in (6, 14, 30):
        fq = assemble.FacetQuadrature(mesh, degree)
        trace = assemble.DGFacetTrace(p2, fq)
        flux_tab = assemble.RTFacetFlux(rt, fq, mesh.interior_facets)
        U = assemble.upwind_matrix(trace, assemble.eval_rt_flux(flux_tab, w))
        errs.append(np.abs(U.toarray() - oracle).max() / scale)
    # the per-point indicator rule carries a kink-quadrature error on a
    # sign-changing facet (~13% at the production degree on this worst-case
    # O(1) jump; the scheme's actual facet jumps are mesh-size small)
    assert errs[0] < 0.15
    assert errs[1] < errs[0] / 3   # refinement converges to the oracle
    assert errs[2] < errs[1] / 3


def test_upwind_skew_identity_random(square8):
    m = square8
    ws = RtProjectionWorkspace(m)
    geom = ws.geom
    p2 = P2DGSpace(m)
    tab = assemble.ScalarTab(p2, geom)
    fq = assemble.FacetQuadrature(m, 6)
    trace = assemble.DGFacetTrace(p2, fq)
    rng = np.random.default_rng(11)
    flux_tab = assemble.RTFacetFlux(ws.rt_space, fq, m.interior_facets)
    for _ in range(3):
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
        assert rhs >= 0.0
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))



# -- the tensor-representation kernel against plain einsum references -----

def _ref_scatter(local, rows, cols, shape):
    r = np.repeat(rows, cols.shape[1], axis=1).ravel()
    c = np.tile(cols, (1, rows.shape[1])).ravel()
    return sp.coo_matrix((local.ravel(), (r, c)), shape=shape).tocsr()


def _ref_grads(tab):
    return np.einsum("qid,cde->cqie", tab.space.ref_grads(tab.geom.rule.points),
                     tab.space.mesh.inv_jacobians)


def _close(A, ref, rtol=1e-13):
    scale = np.abs(ref).max()
    if hasattr(ref, "toarray"):
        return abs(A - ref).max() <= rtol * scale
    return np.abs(np.asarray(A) - ref).max() <= rtol * scale


def _reference_traces(trace):
    """Minus and plus side traces (nfi, nq, n_local) of the basis, each at
    the reference coordinates of the physical facet points in its cell."""
    space, mesh = trace.space, trace.space.mesh
    pts = trace.fquad.points[trace.facets]
    out = []
    for cells in (trace.minus, trace.plus):
        ref = mesh.reference_coords(cells, pts)
        vals = space.ref_values(ref.reshape(-1, mesh.dim))
        out.append(vals.reshape(len(cells), pts.shape[1], -1))
    return out


def _upwind_reference(trace, s):
    """The upwind matrix for the flux ``s``, one einsum per pair of sides."""
    Tm, Tp = _reference_traces(trace)
    dofs = trace.space.cell_dofs
    md, pd = dofs[trace.minus], dofs[trace.plus]
    sw = s * trace.wscale
    sm, spos = np.where(s < 0, sw, 0.0), np.where(s > 0, sw, 0.0)
    shape = (trace.space.n_dofs,) * 2
    return (
        _ref_scatter(np.einsum("fq,fqi,fqj->fij", sm, Tm, Tm), md, md, shape)
        - _ref_scatter(np.einsum("fq,fqi,fqj->fij", sm, Tm, Tp), md, pd, shape)
        + _ref_scatter(np.einsum("fq,fqi,fqj->fij", spos, Tp, Tm), pd, md,
                       shape)
        - _ref_scatter(np.einsum("fq,fqi,fqj->fij", spos, Tp, Tp), pd, pd,
                       shape))


@pytest.fixture(scope="module", params=[(unit_square_mesh, 8),
                                        (unit_cube_mesh, 3)],
                ids=["square8", "cube3"])
def kernel_setup(request):
    make_mesh, n = request.param
    mesh = make_mesh(n)
    d = mesh.dim
    geom = assemble.CellQuadrature(mesh, 2 * (d + 1) + 2)
    geom_lo = assemble.CellQuadrature(mesh, 6)
    rng = np.random.default_rng(17)
    return mesh, geom, geom_lo, rng


def test_scalar_forms_match_einsum_references(kernel_setup):
    mesh, geom, _, rng = kernel_setup
    d = mesh.dim
    coef = rng.uniform(0.5, 2.0, size=geom.wdet.shape)
    wvec = rng.standard_normal(geom.wdet.shape + (d,))
    for space in (P1Space(mesh), MiniScalarSpace(mesh), P2DGSpace(mesh)):
        tab = assemble.ScalarTab(space, geom)
        G = _ref_grads(tab)
        w = geom.wdet * coef
        dofs, n = tab.cell_dofs, space.n_dofs
        refs = {
            "mass": np.einsum("cq,qi,qj->cij", w, tab.vals, tab.vals),
            "stiffness": np.einsum("cq,cqid,cqjd->cij", geom.wdet, G, G),
            "convection": np.einsum("cq,cqd,cqjd,qi->cij", w, wvec, G,
                                    tab.vals),
        }
        got = {
            "mass": assemble.mass_matrix(tab, coef),
            "stiffness": assemble.stiffness_matrix(tab),
            "convection": assemble.convection_matrix(tab, wvec, coef=coef),
        }
        for key, local in refs.items():
            ref = _ref_scatter(local, dofs, dofs, (n, n))
            assert _close(got[key], ref), (type(space).__name__, key)
        np.testing.assert_array_equal(tab.grads, G)

        f = rng.standard_normal(geom.wdet.shape)
        ref = np.bincount(dofs.ravel(), minlength=n, weights=np.einsum(
            "cq,cq,qi->ci", geom.wdet, f, tab.vals).ravel())
        assert _close(assemble.load_vector(tab, f), ref)
        field = FeField(space, rng.standard_normal(n))
        ref = np.einsum("ci,qi->cq", field.coeffs[dofs], tab.vals)
        assert _close(assemble.eval_scalar(tab, field), ref)


def test_mixed_forms_match_einsum_references(kernel_setup):
    mesh, geom, geom_lo, rng = kernel_setup
    from vardens.spaces import MiniVectorSpace, P1DGSpace

    d = mesh.dim
    vel = MiniVectorSpace(mesh)
    mini = assemble.ScalarTab(vel.scalar, geom)
    p1 = assemble.ScalarTab(P1Space(mesh), geom)
    G = _ref_grads(mini)
    ns, np_ = vel.scalar.n_dofs, p1.space.n_dofs
    ref = sum(
        _ref_scatter(
            np.einsum("cq,cqa,qm->cam", geom.wdet, G[..., k], p1.vals),
            mini.cell_dofs + k * ns, p1.cell_dofs, (d * ns, np_))
        for k in range(d))
    assert _close(assemble.div_coupling(mini, p1), ref)

    u = FeField(vel, rng.standard_normal(vel.n_dofs))
    ref = np.stack([np.einsum("ci,qi->cq", u.coeffs[k * ns:(k + 1) * ns]
                              [mini.cell_dofs], mini.vals)
                    for k in range(d)], axis=-1)
    assert _close(assemble.eval_mini_vector(mini, u), ref)

    rt = RT1Space(mesh)
    rt_tab = assemble.RTTab(rt, geom_lo)
    dg_tab = assemble.ScalarTab(P1DGSpace(mesh), geom_lo)
    V, divs = rt.tabulate(np.arange(mesh.n_cells), geom_lo.points)
    wd = geom_lo.wdet
    ref = _ref_scatter(np.einsum("cq,cqid,cqjd->cij", wd, V, V),
                       rt.cell_dofs, rt.cell_dofs, (rt.n_dofs,) * 2)
    assert _close(assemble.rt_mass_matrix(rt_tab), ref)
    ref = _ref_scatter(
        np.einsum("cq,cqj,qm->cmj", wd, divs, dg_tab.vals),
        dg_tab.cell_dofs, rt.cell_dofs, (dg_tab.space.n_dofs, rt.n_dofs))
    assert _close(assemble.mixed_div_matrix(rt_tab, dg_tab), ref)

    f = rng.standard_normal(wd.shape + (d,))
    ref = np.bincount(rt.cell_dofs.ravel(), minlength=rt.n_dofs,
                      weights=np.einsum("cq,cqd,cqid->ci", wd, f, V).ravel())
    assert _close(assemble.rt_load(rt_tab, f), ref)
    w = FeField(rt, rng.standard_normal(rt.n_dofs))
    ref = np.einsum("ci,cqid->cqd", w.coeffs[rt.cell_dofs], V)
    assert _close(assemble.eval_rt(rt_tab, w), ref)


def test_facet_forms_match_einsum_references(kernel_setup):
    mesh, _, _, rng = kernel_setup
    p2 = P2DGSpace(mesh)
    fq = assemble.FacetQuadrature(mesh, 6)
    trace = assemble.DGFacetTrace(p2, fq)
    rt = RT1Space(mesh)
    flux_tab = assemble.RTFacetFlux(rt, fq, mesh.interior_facets)
    w = FeField(rt, rng.standard_normal(rt.n_dofs))
    s = assemble.eval_rt_flux(flux_tab, w)
    # the normal trace from the minus cell's basis, tabulated there
    fi = mesh.interior_facets
    cells = mesh.facet_minus[fi]
    vals, _ = rt.tabulate(cells, fq.points[fi])
    ref = np.einsum("fi,fqid,fd->fq", w.coeffs[rt.cell_dofs[cells]], vals,
                    mesh.facet_normals[fi])
    assert _close(s, ref)

    assert _close(assemble.upwind_matrix(trace, s), _upwind_reference(trace, s))

    Tm, Tp = _reference_traces(trace)
    md, pd = p2.cell_dofs[trace.minus], p2.cell_dofs[trace.plus]
    rho = FeField(p2, rng.standard_normal(p2.n_dofs))
    minus, plus = assemble.eval_dg_traces(trace, rho)
    assert _close(minus, np.einsum("fi,fqi->fq", rho.coeffs[md], Tm))
    assert _close(plus, np.einsum("fi,fqi->fq", rho.coeffs[pd], Tp))


def test_trace_tables_match_reference_coordinates(kernel_setup):
    """Every facet side's reference table equals the basis at the
    reference coordinates of the physical facet points in its cell."""
    mesh = kernel_setup[0]
    d = mesh.dim
    trace = assemble.DGFacetTrace(P2DGSpace(mesh),
                                  assemble.FacetQuadrature(mesh, 6))
    assert len(trace.tables) == (d + 1) * (2 if d == 2 else 6)
    for k, ref in enumerate(_reference_traces(trace)):
        got = trace.tables[trace.table[:, k]]
        assert np.abs(got - ref).max() <= 1e-14


@pytest.mark.parametrize("make_mesh,n",
                         [(unit_square_mesh, n) for n in (1, 2, 3, 16, 32)]
                         + [(unit_cube_mesh, n) for n in (1, 2, 3, 4, 8)])
def test_trace_tables_match_their_formula(make_mesh, n):
    """``tables`` and ``table`` from the mesh's facet facts equal the ones
    with each side's local facet and vertex order searched for in
    ``cell_facets`` and ``cells``."""
    mesh = make_mesh(n)
    d = mesh.dim
    space = P2DGSpace(mesh)
    fquad = assemble.FacetQuadrature(mesh, 6)
    trace = assemble.DGFacetTrace(space, fquad)
    fi = mesh.interior_facets
    perms = np.array(list(itertools.permutations(range(d))))
    facet_local = np.array([[j for j in range(d + 1) if j != i]
                            for i in range(d + 1)])
    ref_vertices = np.vstack([np.zeros(d), np.eye(d)])
    lam = barycentric(fquad.rule.points, d - 1)
    tables = np.stack([
        space.ref_values(lam @ ref_vertices[facet_local[i][perm]])
        for i in range(d + 1) for perm in perms
    ])
    powers = d ** np.arange(d)
    perm_index = np.zeros(d ** d, dtype=np.intp)
    perm_index[perms @ powers] = np.arange(len(perms))
    ids = []
    for cells in (mesh.facet_minus[fi], mesh.facet_plus[fi]):
        i = np.argmax(mesh.cell_facets[cells] == fi[:, None], axis=1)
        verts = np.take_along_axis(mesh.cells[cells], facet_local[i], axis=1)
        order = np.argsort(verts, axis=1)
        ids.append(i * len(perms) + perm_index[order @ powers])
    table = np.stack(ids, axis=1)
    assert trace.tables.dtype == tables.dtype
    assert np.array_equal(trace.tables, tables)
    assert trace.table.dtype == table.dtype
    assert np.array_equal(trace.table, table)


def test_successive_matrices_share_no_data(square8):
    geom = assemble.CellQuadrature(square8, 8)
    tab = assemble.ScalarTab(MiniScalarSpace(square8), geom)
    rng = np.random.default_rng(8)
    wvec = rng.standard_normal(geom.wdet.shape + (2,))
    for form in (lambda c: assemble.mass_matrix(tab, c),
                 lambda c: assemble.convection_matrix(tab, wvec, coef=c)):
        A1 = form(rng.uniform(0.5, 2.0, size=geom.wdet.shape))
        kept = A1.data.copy()
        A2 = form(rng.uniform(0.5, 2.0, size=geom.wdet.shape))
        assert not np.shares_memory(A1.data, A2.data)
        assert (A1.data == kept).all()
        assert (A1.data != A2.data).any()


def test_div_coupling_equals_one_pattern_over_component_rows(kernel_setup):
    """The divergence coupling, stacked from one component pattern, is bit
    for bit the form scattered through one pattern over the component-major
    rows."""
    mesh, geom, _, _ = kernel_setup
    d, nc = mesh.dim, mesh.n_cells
    mini = assemble.ScalarTab(MiniScalarSpace(mesh), geom)
    p1 = assemble.ScalarTab(P1Space(mesh), geom)
    ns = mini.space.n_dofs
    K = (np.swapaxes(mesh.inv_jacobians, 1, 2)
         * geom.abs_dets[:, None, None])
    wg = mini.ref_grads * geom.rule.weights[:, None, None]
    R = np.einsum("qae,qm->eam", wg, p1.vals).reshape(d, -1)
    rows = (mini.cell_dofs[:, None, :]
            + ns * np.arange(d)[:, None]).reshape(nc, -1)
    pattern = assemble.Pattern.build((d * ns, p1.space.n_dofs), rows,
                                     p1.cell_dofs)
    ref = pattern.matrix((K.reshape(nc * d, d) @ R).reshape(nc, -1))
    got = assemble.div_coupling(mini, p1)
    assert got.format == "csr" and got.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


def test_block_matrix_sums_the_entries_of_matrix(kernel_setup):
    """Blocks r x c summed per slot are the matrix of the same entries
    scattered one by one over the dofs r i + a and c j + b."""
    mesh, _, _, rng = kernel_setup
    dofs = mesh.cell_facets
    n = mesh.n_facets
    pattern = assemble.Pattern.build((n, n), dofs, dofs)
    r, c = 2, 3
    local = rng.standard_normal(dofs.shape + (dofs.shape[1], r, c))
    got = pattern.block_matrix(local)
    assert got.format == "bsr" and got.shape == (n * r, n * c)
    rows = (r * dofs[:, :, None] + np.arange(r)).reshape(len(dofs), -1)
    cols = (c * dofs[:, :, None] + np.arange(c)).reshape(len(dofs), -1)
    entries = np.swapaxes(local, 2, 3).reshape(len(dofs), rows.shape[1], -1)
    ref = assemble.Pattern.build((n * r, n * c), rows, cols).matrix(entries)
    got = got.tocsr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


def test_transpose_perm_transposes_convection(square8):
    geom = assemble.CellQuadrature(square8, 6)
    tab = assemble.ScalarTab(P2DGSpace(square8), geom)
    N = assemble.convection_matrix(
        tab, np.random.default_rng(1).standard_normal(geom.wdet.shape + (2,)),
        None)
    assert (tab.pattern.with_data(N.data[tab.pattern.transpose_perm])
            != N.T).nnz == 0


def test_transpose_perm_rejects_an_unsymmetric_pattern():
    # entries (0, 1) and (1, 1): the transpose of (0, 1) is not stored
    pattern = assemble.Pattern.build((2, 2), np.array([[0], [1]]),
                                     np.array([[1], [1]]))
    with pytest.raises(ValueError, match="not structurally symmetric"):
        pattern.transpose_perm


# -- the block-sparse density operator ------------------------------------

def test_mesh_orients_every_cell_positively():
    """A clockwise cell is reordered, so RTConvection's sign(det J) is 1."""
    mesh = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 2, 1]])
    assert (mesh.dets > 0).all()


def test_rt_convection_matches_quadrature_convection(kernel_setup):
    mesh, _, geom_lo, rng = kernel_setup
    tab = assemble.ScalarTab(P2DGSpace(mesh), geom_lo)
    rt = RT1Space(mesh)
    rt_tab = assemble.RTTab(rt, geom_lo)
    conv = assemble.RTConvection(tab, rt_tab)
    w = FeField(rt, rng.standard_normal(rt.n_dofs))
    nc = mesh.n_cells
    got = sp.bsr_matrix((conv.blocks(w), np.arange(nc), np.arange(nc + 1)),
                        shape=(tab.space.n_dofs,) * 2)
    ref = assemble.convection_matrix(tab, assemble.eval_rt(rt_tab, w),
                                     None)
    assert _close(got, ref, 1e-14)

    flipped = copy.copy(mesh)
    flipped.dets = mesh.dets.copy()
    flipped.dets[0] *= -1.0
    with pytest.raises(ValueError, match="positively oriented"):
        assemble.RTConvection(
            assemble.ScalarTab(P2DGSpace(flipped), geom_lo), rt_tab)


def test_reference_tensor_forms_reject_tabs_on_two_rules(kernel_setup):
    """Each form that contracts two tabs' tables needs them on one rule."""
    mesh, geom, geom_lo, _ = kernel_setup
    rt_tab = assemble.RTTab(RT1Space(mesh), geom_lo)
    mini = MiniScalarSpace(mesh)
    p2 = P2DGSpace(mesh)
    for make, tab, other in (
            (assemble.RTConvection, assemble.ScalarTab(p2, geom), rt_tab),
            (assemble.MiniRTLoad, assemble.ScalarTab(mini, geom), rt_tab),
            (assemble.WeightedForms, assemble.ScalarTab(mini, geom),
             assemble.ScalarTab(p2, geom_lo)),
            (assemble.div_coupling, assemble.ScalarTab(mini, geom),
             assemble.ScalarTab(P1Space(mesh), geom_lo))):
        with pytest.raises(ValueError, match="share one quadrature rule"):
            make(tab, other)


def test_upwind_stores_inflow_blocks_only(kernel_setup):
    """For a one-signed flux every facet has one inflow side and one
    nonzero off-diagonal block, in that side's block row."""
    mesh, _, _, rng = kernel_setup
    trace = assemble.DGFacetTrace(P2DGSpace(mesh),
                                  assemble.FacetQuadrature(mesh, 6))
    nc = mesh.n_cells
    for sign, inflow_cells in ((1.0, trace.plus), (-1.0, trace.minus)):
        s = sign * rng.uniform(0.5, 1.5, trace.wscale.shape)
        U = assemble.upwind_matrix(trace, s)
        assert U.format == "bsr"
        rows = np.repeat(np.arange(nc), np.diff(U.indptr))
        assert np.array_equal(U.indices[U.indptr[:-1]], np.arange(nc))
        off = U.indices != rows
        assert np.array_equal(np.sort(rows[off]), np.sort(inflow_cells))
        assert (np.abs(U.data[off]).max(axis=(1, 2)) > 0.0).all()
        assert _close(U, _upwind_reference(trace, s))


@pytest.mark.parametrize("make_mesh,n", [(unit_square_mesh, 8),
                                         (unit_cube_mesh, 3)])
def test_density_operator_matches_quadrature_reference(make_mesh, n):
    """M_rho + tau (C - U) from the reference coefficients and the inflow
    blocks against the mass, the quadrature convection on ``eval_rt``
    values and the einsum upwind reference."""
    st = TimeStepper(make_mesh(n), SchemeConfig(tau=1 / 8, mu=1e-3,
                                                 n_steps=1))
    rng = np.random.default_rng(12)
    w, _ = st.workspace.project(assemble.eval_rt(st.rt_lo, FeField(
        st.rt_space, rng.standard_normal(st.rt_space.n_dofs))))
    A, flux = st.density_matrix(w)
    assert A.format == "bsr"
    C = assemble.convection_matrix(st.p2_lo, assemble.eval_rt(st.rt_lo, w),
                                   None)
    ref = assemble.mass_matrix(st.p2_lo, None) + st.config.tau * (
        C - _upwind_reference(st.trace, flux))
    assert _close(A, ref, 1e-14)
