"""Vectorized assembly of cell and facet forms into CSR matrices.

Per mesh and quadrature rule we precompute physical quadrature geometry and
basis tabulations once; every weighted form is then an einsum over cells
followed by one COO->CSR scatter.  Assembly is deterministic: identical
inputs produce bit-identical matrices.

The symmetric forms (``mass_matrix``, ``stiffness_matrix``,
``rt_mass_matrix``) are also bitwise symmetric, so the saddle systems built
from them stay exactly symmetric after bordering.  Neither step gives that
on its own:

* einsum with ``optimize=True`` folds the weight into the first basis
  factor before contracting, so the local entries ``L_ij`` and ``L_ji`` are
  rounded differently;
* COO->CSR sums duplicate entries after an unstable sort, so in 3D, where a
  global entry collects three or more cell contributions, ``(i, j)`` and
  ``(j, i)`` are summed in different orders.

The assembled matrix is therefore replaced by ``(A + A^T) / 2``, which is
exact because floating-point addition commutes.
"""

import io

import numpy as np
import scipy.sparse as sp

from .quadrature import facet_rule, reference_simplex_measure, simplex_rule


class CellQuadrature:
    """Physical quadrature points and weights for every cell."""

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.rule = simplex_rule(mesh.dim, degree)
        B = mesh.jacobians
        v0 = mesh.vertices[mesh.cells[:, 0]]
        self.points = v0[:, None, :] + np.einsum(
            "qk,cdk->cqd", self.rule.points, B
        )
        self.wdet = np.abs(mesh.dets)[:, None] * self.rule.weights[None, :]
        self.npoints = self.rule.npoints


class ScalarTab:
    """Basis values and physical gradients of a scalar space at cell quads."""

    def __init__(self, space, geom):
        self.space = space
        self.geom = geom
        self.cell_dofs = space.cell_dofs
        self.vals = space.ref_values(geom.rule.points)
        ref_g = space.ref_grads(geom.rule.points)
        self.grads = np.einsum(
            "qid,cde->cqie", ref_g, space.mesh.inv_jacobians
        )


class RTTab:
    """H(div) basis values and divergences at cell quadrature points."""

    def __init__(self, space, geom):
        self.space = space
        self.geom = geom
        self.cell_dofs = space.cell_dofs
        self.vals, self.divs = space.tabulate(
            np.arange(space.mesh.n_cells), geom.points
        )


class FacetQuadrature:
    """Shared physical quadrature on every facet.

    Points are parametrized from the facet's sorted global vertices, so the
    two adjacent cells see the same physical points; ``wscale`` carries the
    quadrature weight times the facet measure.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.rule = facet_rule(mesh.dim, degree)
        d = mesh.dim
        fverts = mesh.vertices[mesh.facet_vertices]  # (nf, d, d)
        edges = fverts[:, 1:, :] - fverts[:, :1, :]
        self.points = fverts[:, None, 0, :] + np.einsum(
            "qk,fkd->fqd", self.rule.points, edges
        )
        refmeas = reference_simplex_measure(d - 1)
        self.wscale = (
            mesh.facet_measures[:, None] / refmeas
        ) * self.rule.weights[None, :]
        self.npoints = self.rule.npoints


class DGFacetTrace:
    """Two-sided traces of a dG space on the interior facets."""

    def __init__(self, space, fquad):
        mesh = space.mesh
        self.space = space
        self.fquad = fquad
        fi = mesh.interior_facets
        self.facets = fi
        self.minus = mesh.facet_minus[fi]
        self.plus = mesh.facet_plus[fi]
        pts = fquad.points[fi]
        self.minus_vals = self._traces(space, mesh, self.minus, pts)
        self.plus_vals = self._traces(space, mesh, self.plus, pts)
        self.minus_dofs = space.cell_dofs[self.minus]
        self.plus_dofs = space.cell_dofs[self.plus]
        self.wscale = fquad.wscale[fi]

    @staticmethod
    def _traces(space, mesh, cells, pts):
        ref = mesh.reference_coords(cells, pts)
        nfi, nq, d = ref.shape
        vals = space.ref_values(ref.reshape(-1, d))
        return vals.reshape(nfi, nq, -1)


class RTFacetFlux:
    """Normal flux of the H(div) basis at facet quadrature points.

    Evaluated from the minus cell; normal-trace continuity makes the value
    single-valued for conforming coefficient vectors.
    """

    def __init__(self, space, fquad, facets=None):
        mesh = space.mesh
        if facets is None:
            facets = np.arange(mesh.n_facets)
        self.facets = facets
        self.space = space
        cells = mesh.facet_minus[facets]
        vals, _ = space.tabulate(cells, fquad.points[facets])
        normals = mesh.facet_normals[facets]
        self.flux = np.einsum("fqid,fd->fqi", vals, normals)
        self.cell_dofs = space.cell_dofs[cells]
        self.wscale = fquad.wscale[facets]


def _scatter(local, row_dofs, col_dofs, shape):
    nc, ni, nj = local.shape
    rows = np.repeat(row_dofs, nj, axis=1).ravel()
    cols = np.tile(col_dofs, (1, ni)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape)
    return M.tocsr()


def symmetric_scatter(local, dofs, n):
    """Scatter a symmetric form and make the result bitwise symmetric."""
    A = _scatter(local, dofs, dofs, (n, n))
    return 0.5 * (A + A.T)


def mass_matrix(tab, coef=None):
    """(coef u, v) on ``tab``'s space; bitwise symmetric (module docstring)."""
    w = tab.geom.wdet if coef is None else tab.geom.wdet * coef
    local = np.einsum("cq,qi,qj->cij", w, tab.vals, tab.vals, optimize=True)
    return symmetric_scatter(local, tab.cell_dofs, tab.space.n_dofs)


def stiffness_matrix(tab, coef=None):
    """(coef grad u, grad v); bitwise symmetric (module docstring)."""
    w = tab.geom.wdet if coef is None else tab.geom.wdet * coef
    local = np.einsum("cq,cqid,cqjd->cij", w, tab.grads, tab.grads, optimize=True)
    return symmetric_scatter(local, tab.cell_dofs, tab.space.n_dofs)


def convection_matrix(tab, wvec, coef=None):
    """(coef (wvec . grad u), v) with wvec given at quadrature points."""
    w = tab.geom.wdet if coef is None else tab.geom.wdet * coef
    local = np.einsum("cq,cqd,cqjd,qi->cij", w, wvec, tab.grads, tab.vals, optimize=True)
    n = tab.space.n_dofs
    return _scatter(local, tab.cell_dofs, tab.cell_dofs, (n, n))


def rt_mass_blocks(rt_tab):
    """Cell blocks (nc, n_local, n_local) of (sigma, eta) on the H(div) space."""
    return np.einsum(
        "cq,cqid,cqjd->cij", rt_tab.geom.wdet, rt_tab.vals, rt_tab.vals,
        optimize=True,
    )


def rt_mass_matrix(rt_tab):
    """(sigma, eta) on the H(div) space; bitwise symmetric (module docstring)."""
    return symmetric_scatter(
        rt_mass_blocks(rt_tab), rt_tab.cell_dofs, rt_tab.space.n_dofs
    )


def mixed_div_blocks(rt_tab, dg_tab):
    """Cell blocks (nc, dG n_local, H(div) n_local) of (div eta_j, psi_m)."""
    return np.einsum(
        "cq,cqj,qm->cmj", rt_tab.geom.wdet, rt_tab.divs, dg_tab.vals,
        optimize=True,
    )


def mixed_div_matrix(rt_tab, dg_tab):
    """(div eta_j, psi_m): rows on the dG space, columns on the H(div) space."""
    return _scatter(
        mixed_div_blocks(rt_tab, dg_tab), dg_tab.cell_dofs, rt_tab.cell_dofs,
        (dg_tab.space.n_dofs, rt_tab.space.n_dofs),
    )


def div_coupling(mini_tab, p1_tab):
    """B[(k,a), m] = (q_m, d_k psi_a), component-major velocity rows."""
    ns = mini_tab.space.n_dofs
    d = mini_tab.space.dim
    np_ = p1_tab.space.n_dofs
    blocks = []
    for k in range(d):
        local = np.einsum(
            "cq,cqa,qm->cam",
            mini_tab.geom.wdet, mini_tab.grads[:, :, :, k], p1_tab.vals,
        )
        blocks.append(
            _scatter(local, mini_tab.cell_dofs, p1_tab.cell_dofs, (ns, np_))
        )
    return sp.vstack(blocks, format="csr")


def load_vector(tab, values):
    """(f, v) with f given at quadrature points, shape (nc, nq)."""
    local = np.einsum("cq,cq,qi->ci", tab.geom.wdet, values, tab.vals, optimize=True)
    return np.bincount(
        tab.cell_dofs.ravel(), weights=local.ravel(),
        minlength=tab.space.n_dofs,
    )


def rt_load_blocks(rt_tab, values):
    """Cell vectors (nc, n_local) of (f, eta), f at quadrature points."""
    return np.einsum("cq,cqd,cqid->ci", rt_tab.geom.wdet, values, rt_tab.vals,
                     optimize=True)


def rt_load(rt_tab, values):
    """(f, eta) with vector f at quadrature points, shape (nc, nq, d)."""
    return np.bincount(
        rt_tab.cell_dofs.ravel(), weights=rt_load_blocks(rt_tab, values).ravel(),
        minlength=rt_tab.space.n_dofs,
    )


def upwind_matrix(trace, flux):
    """Sum over cells of <w.[[rho]], phi> on the inflow boundary.

    ``flux`` holds w.nu (minus to plus) at the interior facet quadrature
    points; the inflow side is resolved per quadrature point by the sign of
    the flux, points with zero flux contribute nothing.
    """
    sw = flux * trace.wscale
    sm = np.where(flux < 0.0, sw, 0.0)
    spos = np.where(flux > 0.0, sw, 0.0)
    Tm, Tp = trace.minus_vals, trace.plus_vals
    n = trace.space.n_dofs
    blocks = [
        (np.einsum("fq,fqi,fqj->fij", sm, Tm, Tm, optimize=True), trace.minus_dofs, trace.minus_dofs),
        (-np.einsum("fq,fqi,fqj->fij", sm, Tm, Tp, optimize=True), trace.minus_dofs, trace.plus_dofs),
        (np.einsum("fq,fqi,fqj->fij", spos, Tp, Tm, optimize=True), trace.plus_dofs, trace.minus_dofs),
        (-np.einsum("fq,fqi,fqj->fij", spos, Tp, Tp, optimize=True), trace.plus_dofs, trace.plus_dofs),
    ]
    out = None
    for local, rd, cd in blocks:
        M = _scatter(local, rd, cd, (n, n))
        out = M if out is None else out + M
    return out


def upwind_jump_quadratic(trace, flux, minus_vals, plus_vals):
    """(1/2) sum over facets of || |w.nu|^(1/2) [[rho]] ||^2."""
    jump = minus_vals - plus_vals
    return 0.5 * float(
        np.einsum("fq,fq->", np.abs(flux) * trace.wscale, jump * jump)
    )


def integrate(geom, values):
    """Quadrature sum of point values (nc, nq) over the whole mesh."""
    return float(np.einsum("cq,cq->", geom.wdet, values))


def eval_scalar(tab, field):
    """Point values (nc, nq) of a scalar field on ``tab``'s quadrature."""
    return np.einsum("ci,qi->cq", field.coeffs[tab.cell_dofs], tab.vals)


def eval_mini_vector(tab, field):
    """Point values (nc, nq, d) of a component-major vector field."""
    space = field.space
    out = np.empty(tab.geom.wdet.shape + (space.dim,))
    for k in range(space.dim):
        comp = field.coeffs[space.component_slice(k)]
        out[..., k] = np.einsum("ci,qi->cq", comp[tab.cell_dofs], tab.vals)
    return out


def eval_rt(rt_tab, field):
    return np.einsum(
        "ci,cqid->cqd", field.coeffs[rt_tab.cell_dofs], rt_tab.vals
    )


def eval_dg_traces(trace, field):
    """Minus and plus side traces (nfi, nq) of a dG field."""
    minus = np.einsum(
        "fi,fqi->fq", field.coeffs[trace.minus_dofs], trace.minus_vals
    )
    plus = np.einsum(
        "fi,fqi->fq", field.coeffs[trace.plus_dofs], trace.plus_vals
    )
    return minus, plus


def eval_rt_flux(flux_tab, field):
    """Normal flux w.nu (minus to plus) at facet quadrature points."""
    return np.einsum(
        "fi,fqi->fq", field.coeffs[flux_tab.cell_dofs], flux_tab.flux
    )


def matrix_market_dump(matrix, stream):
    """Matrix-market text dump for debugging."""
    import scipy.io

    buf = io.BytesIO()
    scipy.io.mmwrite(buf, matrix)
    stream.write(buf.getvalue().decode())
