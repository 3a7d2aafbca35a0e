"""Assembly of cell and facet forms in tensor representation.

On affine simplices each form splits into a part that depends only on the
reference cell and a part that depends only on the cell's geometry and the
coefficients (Kirby & Logg, "A compiler for variational forms", ACM TOMS
32, 2006).  Per tabulation and form a reference tensor R is built once from
the reference basis, e.g. ``R[q, ij] = phi_qi phi_qj`` for the mass or
``R[(q, d), ij] = phi_qi dphi_qjd`` for the convection.  Per call the
quadrature weights, the coefficient and the inverse Jacobian are folded
into a coefficient matrix K with one row per cell, and one GEMM ``K @ R``
gives every local block.  The H(div) basis is built in physical
coordinates, so its forms and evaluators are batched matmuls over cells on
tabulations stored with the basis index first.

Local blocks are scattered through a ``Pattern``: the CSR (or CSC)
structure of the global matrix, built once per pair of row and column dof
maps, with the slot of every local entry in the data array.  A new matrix
costs one ``np.bincount`` over the slots.  Forms built on one pattern share
its structure, so a linear combination of them is one of their data arrays.

The symmetric forms (``mass_matrix``, ``stiffness_matrix``,
``rt_mass_matrix``) are bitwise symmetric by construction, so the saddle
systems built from them stay exactly symmetric after bordering.  Their
local blocks are exactly symmetric: the mass and stiffness kernels compute
the upper triangle only and mirror it, and the RT mass block is averaged
with its transpose, which is exact because floating-point addition
commutes.  ``np.bincount`` then adds the contributions to entry (i, j) and
to (j, i) in the same order, cell by cell.  Assembly is deterministic:
identical inputs produce bit-identical matrices.
"""

import functools

import numpy as np
import scipy.sparse as sp

from .quadrature import facet_rule, reference_simplex_measure, simplex_rule


class Pattern:
    """Sparse structure of an assembled form and the slot of each local entry.

    ``slot`` holds, for every local entry (cell, i, j) in C order, its
    position in the data array; ``matrix(local)`` sums the local blocks into
    that array with one ``np.bincount``.  Matrices made from one pattern
    share its ``indptr`` and ``indices`` arrays.
    """

    def __init__(self, shape, indptr, indices, slot, csc):
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.slot = slot
        self.csc = csc
        self.nnz = len(indices)

    @classmethod
    def build(cls, shape, *blocks, csc=False):
        """One pattern per (row_dofs, col_dofs) pair, all on the union of
        their entries; each dof map is (n_items, n_local)."""
        nrow, ncol = shape
        nminor = nrow if csc else ncol
        keys = []
        for rows, cols in blocks:
            r = rows.astype(np.int64)[:, :, None]
            c = cols.astype(np.int64)[:, None, :]
            keys.append((c * nrow + r if csc else r * ncol + c).ravel())
        uniq, slot = np.unique(np.concatenate(keys), return_inverse=True)
        major, minor = np.divmod(uniq, nminor)
        itype = np.int32 if max(shape + (len(uniq),)) < 2**31 else np.int64
        indptr = np.searchsorted(
            major, np.arange((ncol if csc else nrow) + 1)
        ).astype(itype)
        indices = minor.astype(itype)
        for a in (indptr, indices):  # shared by every matrix made from it
            a.setflags(write=False)
        ends = np.cumsum([len(k) for k in keys])[:-1]
        return tuple(cls(shape, indptr, indices, s, csc)
                     for s in np.split(slot, ends))

    def matrix(self, local):
        """The matrix with local blocks ``local``, scattered in cell order."""
        data = np.bincount(self.slot, weights=local.ravel(),
                           minlength=self.nnz)
        return self.with_data(data)

    def with_data(self, data):
        kind = sp.csc_matrix if self.csc else sp.csr_matrix
        return kind((data, self.indices, self.indptr), shape=self.shape)

    @functools.cached_property
    def transpose_perm(self):
        """``perm`` with ``A.T`` equal to ``with_data(A.data[perm])``;
        the pattern must be structurally symmetric."""
        n = self.shape[0]
        major = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        keys = major * n + self.indices
        swapped = self.indices.astype(np.int64) * n + major
        perm = np.minimum(np.searchsorted(keys, swapped), self.nnz - 1)
        if not np.array_equal(keys[perm], swapped):
            raise ValueError("pattern is not structurally symmetric")
        return perm


@functools.cache
def _upper(n):
    """Pairs (i, j), i <= j, and the pair index of every (i, j) in C order."""
    iu, ju = np.triu_indices(n)
    full = np.empty((n, n), dtype=np.intp)
    full[iu, ju] = full[ju, iu] = np.arange(len(iu))
    out = iu, ju, full.ravel()
    for a in out:  # cached and shared by every caller
        a.setflags(write=False)
    return out


def _mirror(upper):
    """Exactly symmetric blocks (nc, nloc, nloc) from their upper triangles."""
    nloc = int(np.sqrt(2 * upper.shape[1]))
    return upper[:, _upper(nloc)[2]].reshape(-1, nloc, nloc)


def _square_pattern(dofs, n):
    return Pattern.build((n, n), (dofs, dofs))[0]


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
    """Reference basis values and gradients of a scalar space at cell quads.

    Physical gradients are not stored: the forms fold the inverse Jacobian
    into their coefficient matrices.  ``grads`` computes them on first use.
    """

    def __init__(self, space, geom):
        self.space = space
        self.geom = geom
        self.cell_dofs = space.cell_dofs
        self.vals = space.ref_values(geom.rule.points)      # (nq, nloc)
        self.ref_grads = space.ref_grads(geom.rule.points)  # (nq, nloc, d)

    @functools.cached_property
    def grads(self):
        """Physical gradients (nc, nq, nloc, d)."""
        return np.einsum(
            "qid,cde->cqie", self.ref_grads, self.space.mesh.inv_jacobians
        )

    @functools.cached_property
    def pattern(self):
        return _square_pattern(self.cell_dofs, self.space.n_dofs)

    @functools.cached_property
    def _mass_ref(self):
        """(nq, n_upper): phi_qi phi_qj over the upper triangle."""
        iu, ju, _ = _upper(self.vals.shape[1])
        return self.vals[:, iu] * self.vals[:, ju]

    @functools.cached_property
    def _stiffness_ref(self):
        """(nq * d * d, n_upper): dphi_qid dphi_qje over the upper triangle."""
        iu, ju, _ = _upper(self.vals.shape[1])
        g = self.ref_grads
        R = g[:, iu, :, None] * g[:, ju, None, :]
        return np.moveaxis(R, 1, -1).reshape(-1, len(iu))

    @functools.cached_property
    def _convection_ref(self):
        """(nq * d, nloc * nloc): phi_qi dphi_qjd."""
        v, g = self.vals, self.ref_grads
        R = v[:, None, :, None] * np.swapaxes(g, 1, 2)[:, :, None, :]
        return R.reshape(-1, v.shape[1] ** 2)


class RTTab:
    """H(div) basis values and divergences at cell quadrature points.

    ``vals_t`` (nc, n_local, nq, d) holds the values basis index first, so
    evaluation and loads are batched matmuls; ``vals`` is its (nc, nq,
    n_local, d) view.
    """

    def __init__(self, space, geom):
        self.space = space
        self.geom = geom
        self.cell_dofs = space.cell_dofs
        self.vals_t, self.divs = space.tabulate(
            np.arange(space.mesh.n_cells), geom.points, basis_first=True
        )
        self.vals = self.vals_t.transpose(0, 2, 1, 3)


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
    """Two-sided traces of a dG space on the interior facets.

    ``dofs`` (nfi, 2 n_local) and ``rows`` (nfi, 2 n_local, nq) stack the
    minus side's basis before the plus side's; ``vals`` (nfi, nq,
    2 n_local) is a view of ``rows``.
    """

    def __init__(self, space, fquad):
        mesh = space.mesh
        self.space = space
        self.fquad = fquad
        fi = mesh.interior_facets
        self.facets = fi
        self.minus = mesh.facet_minus[fi]
        self.plus = mesh.facet_plus[fi]
        pts = fquad.points[fi]
        self.rows = np.concatenate(
            [np.swapaxes(self._traces(space, mesh, cells, pts), 1, 2)
             for cells in (self.minus, self.plus)], axis=1,
        )
        self.vals = np.swapaxes(self.rows, 1, 2)
        self.dofs = np.concatenate(
            [space.cell_dofs[self.minus], space.cell_dofs[self.plus]], axis=1
        )
        self.wscale = fquad.wscale[fi]

    @staticmethod
    def _traces(space, mesh, cells, pts):
        ref = mesh.reference_coords(cells, pts)
        nfi, nq, d = ref.shape
        vals = space.ref_values(ref.reshape(-1, d))
        return vals.reshape(nfi, nq, -1)

    @functools.cached_property
    def pattern(self):
        return _square_pattern(self.dofs, self.space.n_dofs)


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


def _weights(tab, coef):
    return tab.geom.wdet if coef is None else tab.geom.wdet * coef


def mass_blocks(tab, coef=None):
    """Exactly symmetric cell blocks (nc, nloc, nloc) of (coef u, v)."""
    return _mirror(_weights(tab, coef) @ tab._mass_ref)


def mass_matrix(tab, coef=None, pattern=None):
    """(coef u, v) on ``tab``'s space; bitwise symmetric (module docstring).

    The matrix lives on ``pattern``, by default the tab's cell pattern.
    """
    return (pattern or tab.pattern).matrix(mass_blocks(tab, coef))


def stiffness_matrix(tab, coef=None):
    """(coef grad u, grad v); bitwise symmetric (module docstring)."""
    inv = tab.space.mesh.inv_jacobians
    G = (inv @ np.swapaxes(inv, 1, 2)).reshape(len(inv), -1)  # invJ invJ^T
    K = _weights(tab, coef)[:, :, None] * G[:, None, :]
    upper = K.reshape(len(K), -1) @ tab._stiffness_ref
    return tab.pattern.matrix(_mirror(upper))


def convection_matrix(tab, wvec, coef=None, pattern=None):
    """(coef (wvec . grad u), v) with wvec given at quadrature points."""
    inv = tab.space.mesh.inv_jacobians
    K = np.matmul(wvec, np.swapaxes(inv, 1, 2)) * _weights(tab, coef)[..., None]
    local = K.reshape(len(K), -1) @ tab._convection_ref
    nloc = tab.vals.shape[1]
    return (pattern or tab.pattern).matrix(local.reshape(-1, nloc, nloc))


def _basis_rows(rt_tab):
    """The H(div) values as (nc, n_local, nq * d)."""
    nc, nloc = rt_tab.vals_t.shape[:2]
    return rt_tab.vals_t.reshape(nc, nloc, -1)


def rt_mass_blocks(rt_tab):
    """Cell blocks (nc, n_local, n_local) of (sigma, eta) on the H(div) space,
    exactly symmetric."""
    X = _basis_rows(rt_tab)
    d = rt_tab.space.dim
    w = np.repeat(rt_tab.geom.wdet, d, axis=1)[:, None, :]
    L = (X * w) @ np.swapaxes(X, 1, 2)
    return 0.5 * (L + np.swapaxes(L, 1, 2))


def rt_mass_matrix(rt_tab):
    """(sigma, eta) on the H(div) space; bitwise symmetric (module docstring)."""
    pattern = _square_pattern(rt_tab.cell_dofs, rt_tab.space.n_dofs)
    return pattern.matrix(rt_mass_blocks(rt_tab))


def mixed_div_blocks(rt_tab, dg_tab):
    """Cell blocks (nc, dG n_local, H(div) n_local) of (div eta_j, psi_m)."""
    return dg_tab.vals.T @ (rt_tab.geom.wdet[..., None] * rt_tab.divs)


def mixed_div_matrix(rt_tab, dg_tab):
    """(div eta_j, psi_m): rows on the dG space, columns on the H(div) space."""
    shape = (dg_tab.space.n_dofs, rt_tab.space.n_dofs)
    pattern = Pattern.build(shape, (dg_tab.cell_dofs, rt_tab.cell_dofs))[0]
    return pattern.matrix(mixed_div_blocks(rt_tab, dg_tab))


def div_coupling(mini_tab, p1_tab):
    """B[(k,a), m] = (q_m, d_k psi_a), component-major velocity rows."""
    ns = mini_tab.space.n_dofs
    d = mini_tab.space.dim
    nc = len(mini_tab.cell_dofs)
    # K[(c, k), (q, e)] = w_cq invJ_cek; R[(q, e), (a, m)] = dpsi_qae q_qm
    inv_t = np.swapaxes(mini_tab.space.mesh.inv_jacobians, 1, 2)
    K = mini_tab.geom.wdet[:, None, :, None] * inv_t[:, :, None, :]
    R = (np.swapaxes(mini_tab.ref_grads, 1, 2)[:, :, :, None]
         * p1_tab.vals[:, None, None, :])
    local = K.reshape(nc * d, -1) @ R.reshape(K.shape[2] * d, -1)
    rows = (mini_tab.cell_dofs[:, None, :]
            + ns * np.arange(d)[:, None]).reshape(nc, -1)
    shape = (d * ns, p1_tab.space.n_dofs)
    pattern = Pattern.build(shape, (rows, p1_tab.cell_dofs))[0]
    return pattern.matrix(local.reshape(nc, rows.shape[1], -1))


def load_blocks(tab, values):
    """Cell vectors (nc, nloc) of (f, v), f at quadrature points (nc, nq)."""
    return (tab.geom.wdet * values) @ tab.vals


def load_vector(tab, values):
    """(f, v) with f given at quadrature points, shape (nc, nq)."""
    return np.bincount(
        tab.cell_dofs.ravel(), weights=load_blocks(tab, values).ravel(),
        minlength=tab.space.n_dofs,
    )


def rt_load_blocks(rt_tab, values):
    """Cell vectors (nc, n_local) of (f, eta), f at quadrature points."""
    f = (rt_tab.geom.wdet[..., None] * values).reshape(len(values), -1, 1)
    return (_basis_rows(rt_tab) @ f)[..., 0]


def rt_load(rt_tab, values):
    """(f, eta) with vector f at quadrature points, shape (nc, nq, d)."""
    return np.bincount(
        rt_tab.cell_dofs.ravel(), weights=rt_load_blocks(rt_tab, values).ravel(),
        minlength=rt_tab.space.n_dofs,
    )


def upwind_matrix(trace, flux, pattern=None):
    """Sum over cells of <w.[[rho]], phi> on the inflow boundary.

    ``flux`` holds w.nu (minus to plus) at the interior facet quadrature
    points; the inflow side is resolved per quadrature point by the sign of
    the flux, points with zero flux contribute nothing.  Per facet the
    local block over the stacked [minus; plus] basis is one matmul whose
    rows carry the inflow weight of their side; the plus side's columns
    are then negated, which is the jump.
    """
    sw = flux * trace.wscale
    inflow = np.stack(
        [np.where(flux < 0.0, sw, 0.0), np.where(flux > 0.0, sw, 0.0)], axis=1
    )
    nfi, nloc2, nq = trace.rows.shape
    rows = trace.rows.reshape(nfi, 2, nloc2 // 2, nq) * inflow[:, :, None, :]
    local = rows.reshape(nfi, nloc2, nq) @ trace.vals
    np.negative(local[:, :, nloc2 // 2:], out=local[:, :, nloc2 // 2:])
    return (pattern or trace.pattern).matrix(local)


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
    return field.coeffs[tab.cell_dofs] @ tab.vals.T


def eval_mini_vector(tab, field):
    """Point values (nc, nq, d) of a component-major vector field."""
    space = field.space
    comps = field.coeffs.reshape(space.dim, -1)[:, tab.cell_dofs]
    return np.moveaxis(comps @ tab.vals.T, 0, -1)


def eval_rt(rt_tab, field):
    """Point values (nc, nq, d) of an H(div) field."""
    nc, _, nq, d = rt_tab.vals_t.shape
    coeffs = field.coeffs[rt_tab.cell_dofs][:, None, :]
    return (coeffs @ _basis_rows(rt_tab)).reshape(nc, nq, d)


def eval_dg_traces(trace, field):
    """Minus and plus side traces (nfi, nq) of a dG field."""
    coeffs = field.coeffs[trace.dofs][:, :, None]
    nfi, nloc2, nq = trace.rows.shape
    both = (trace.rows * coeffs).reshape(nfi, 2, nloc2 // 2, nq).sum(axis=2)
    return both[:, 0], both[:, 1]


def eval_rt_flux(flux_tab, field):
    """Normal flux w.nu (minus to plus) at facet quadrature points."""
    coeffs = field.coeffs[flux_tab.cell_dofs][:, :, None]
    return (flux_tab.flux @ coeffs)[..., 0]
