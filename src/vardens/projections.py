"""Projection and interpolation operators used by the scheme.

* elementwise L2 projection of point values onto a discontinuous space,
* L2 projection of a MINI velocity or of point values onto the
  divergence-free, zero-normal-flux H(div) subspace, computed by
  hybridizing its mixed system (a piecewise-linear discontinuous
  multiplier for the divergence, facet multipliers for the normal
  continuity): the cell unknowns are eliminated locally and one symmetric
  positive definite facet system, its multipliers numbered in the mesh's
  nested-dissection order of the facets and the last of them pinned, is
  factorized once per mesh in that order, and only the factor is kept for
  every time step; each projection returns the field and its residual's
  report.  The per-cell tables are set up once per distinct cell
  (``RT1Space.distinct_cells``) and gathered, and the facet system is
  summed from them in d x d blocks, one per pair of facets,
* nodal interpolation into the P1+bubble velocity space.
"""

import warnings

import numpy as np

from . import assemble, linalg
from .spaces import (FeField, MiniScalarSpace, MiniVectorSpace, P1DGSpace,
                     RT1Space)

# the workspace's cell rule: degree 6 integrates the loads of MINI fields
# on RT1 exactly
CELL_DEGREE = 6


def project_dg(tab, values):
    """Elementwise L2 projection onto the dG space tabulated in ``tab`` of
    point values (nc, nq) at ``tab.geom.points``.  Cell K's mass block is
    |det J_K| times the reference mass, so one solve with ``tab.ref_mass``
    serves every cell.  ``ValueError`` on values of any other shape.
    """
    return FeField(tab.space,
                   project_dg_cells(tab, values, slice(None)).ravel())


def project_dg_cells(tab, values, cells):
    """The coefficients (n, nloc) of ``project_dg`` on the n cells
    ``cells`` selects, from their point values (n, nq); each cell's are
    its own, so the cells may be projected a part at a time."""
    values = np.asarray(values)
    shape = (len(tab.geom.abs_dets[cells]), tab.geom.npoints)
    if values.shape != shape:
        raise ValueError(f"expected point values of shape {shape} at "
                         f"tab.geom.points, got {values.shape}")
    rhs = assemble.load_blocks(tab, values, cells)
    coeffs = np.linalg.solve(tab.ref_mass, rhs.T).T
    return coeffs / tab.geom.abs_dets[cells, None]


class RtProjectionWorkspace:
    """Hybridized solver for the divergence-free, zero-flux projection.

    The projection is the mixed problem: find w in RT1 with zero normal
    flux on the boundary and p in P1-dG such that

        (w, eta) + (div eta, p) = (v, eta)   for all such eta,
        (div w, q)             = 0          for all q in P1-dG.

    It is solved by hybridization (Arnold & Brezzi, M2AN 19, 1985; Cockburn
    & Gopalakrishnan, SINUM 42, 2004).  Normal continuity of RT1 is broken
    and imposed instead by one multiplier per facet dof: on an interior
    facet it makes the dofs of the two sides equal, on a boundary facet it
    makes the dof zero.  Each cell's RT1 and P1-dG unknowns are eliminated
    through the inverse of its local block [M_K, B_K^T; B_K, 0], which
    leaves the SPD facet system

        S = sum_K E_K H_K E_K^T,

    where H_K is the RT1 block of that inverse and E_K the signed map from
    the cell's facet dofs to the multipliers.  The multipliers are
    numbered facet by facet in ``mesh.facet_dissection_order``, the d of
    one facet in the order of its RT1 dofs, so that every separator of the
    dissection comes after the two halves it separates.  S has one null
    mode, which comes from the constant in p; the last multiplier, on the
    top separator, is pinned to remove it, and w does not depend on which
    one is.  ``lu`` factors the pinned S in that order, once per mesh, and
    S itself (``system_matrix()``, bitwise symmetric) is not kept.

    A cell's blocks, inverse and nodal divergences depend only on its
    Jacobian, dof order and facet scales, and the structured meshes have
    few distinct values of those (``RT1Space.distinct_cells``: 72 on the
    cube at h = 1/4 and 1/8).  So they are computed for the distinct cells,
    in one batched call each, and gathered into the per-cell arrays that
    ``project`` reads; on a mesh whose cells all differ the gather is a
    permutation.  S is summed from the gathered H_K over the facets' d x d
    blocks (``Pattern.block_matrix``): the pattern is that of the facets,
    with (d+1)^2 slots per cell, and each entry sums its cells in cell
    order, so S is bit for bit the matrix summed entry by entry over the
    multipliers.

    Each projection condenses the cell loads, solves for the multipliers
    with one solve of ``lu``, back-substitutes cell by cell, averages the
    two one-sided values of every interior facet dof and zeroes the
    boundary ones.  Last, each cell's interior dofs are corrected so that
    the cell's nodal divergence is constant; that constant is the cell's
    net flux, which the averaged facet dofs balance.
    The result is checked against the residual of the mixed system, with
    p recovered from the cells: per-cell products with the blocks M_K and
    B_K, scattered with ``np.bincount`` and restricted to the free dofs.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.geom = assemble.CellQuadrature(mesh, CELL_DEGREE)
        self.rt_space = RT1Space(mesh)
        self.rt_tab = assemble.RTTab(self.rt_space, self.geom)
        self.dg_space = P1DGSpace(mesh)
        self.dg_tab = assemble.ScalarTab(self.dg_space, self.geom)
        space, d, nc = self.rt_space, mesh.dim, mesh.n_cells

        bdofs = space.boundary_dofs()
        mask = np.ones(space.n_dofs, dtype=bool)
        mask[bdofs] = False
        self.free = np.flatnonzero(mask)

        # signed facet-dof -> multiplier map: +1 from the facet's minus
        # cell; the multipliers of a facet are d consecutive ones, in the
        # order of its RT1 dofs, from its rank in the dissection order
        nf = mesh.n_facets
        facet_rank = np.empty(nf, dtype=np.int64)
        facet_rank[mesh.facet_dissection_order] = np.arange(nf)
        cell_ranks = facet_rank[mesh.cell_facets]
        self._mult = (d * cell_ranks[:, :, None] + np.arange(d)).reshape(nc, -1)
        self._sign = np.repeat(mesh.cell_facet_signs, d, axis=1)
        # the averaging weights: 1/2 per side on interior facets, 0 on the
        # boundary, where the projected field's flux is zero exactly
        interior = mesh.facet_plus[mesh.cell_facets] >= 0
        self._facet_weight = np.repeat(np.where(interior, 0.5, 0.0), d, axis=1)

        # local blocks, kept for the residual check, and the first nl
        # columns of every cell's mixed inverse, set up on the distinct
        # cells and gathered; on a mesh of distinct cells those tables are
        # as large as the gathered ones, so they are dropped once gathered
        reps, inverse = space.distinct_cells
        Mk, Bk = assemble.rt_blocks(self.rt_tab, self.dg_tab)
        H = _mixed_inverse(Mk, Bk)
        self._Mk, self._Bk = Mk[inverse], Bk[inverse]
        self._solve_local = H[inverse]
        del Mk, Bk, H
        self.lu = linalg.factorize(self.system_matrix(), "given")

        # interior-dof correction: the pseudo-inverse of the interior dofs'
        # nodal divergences removes the non-constant part of div w
        self._nodal_div = space.nodal_divergences()
        self._div_fix = np.linalg.pinv(
            self._nodal_div[reps, :, d * (d + 1):])[inverse]
        # every MINI space on the mesh has the same cell dofs and basis
        self.mini_tab = assemble.ScalarTab(MiniScalarSpace(mesh), self.geom)
        self.mini_load = assemble.MiniRTLoad(self.mini_tab, self.rt_tab)

    def system_matrix(self):
        """The pinned facet system S (CSR), summed from the kept per-cell
        tables as the class docstring says; ``lu`` is its factor."""
        d, nf, nfl = self.mesh.dim, self.mesh.n_facets, self._mult.shape[1]
        Hf = assemble._symmetric(self._solve_local[:, :nfl, :nfl])
        Hf *= self._sign[:, :, None]
        Hf *= self._sign[:, None, :]
        Hf = np.swapaxes(Hf.reshape(-1, d + 1, d, d + 1, d), 2, 3)
        ranks = self._mult[:, ::d] // d  # the ranks of each cell's facets
        pattern = assemble.Pattern.build((nf, nf), ranks, ranks)
        # the last multiplier pinned
        return pattern.block_matrix(Hf).tocsr()[:-1, :-1]

    def _load_blocks(self, v):
        """Cell vectors (nc, n_local) of (v, eta): a MINI vector field from
        its cell coefficients (``assemble.MiniRTLoad``), point values from
        the rule's points."""
        if isinstance(v, np.ndarray):
            return assemble.rt_load_blocks(self.rt_tab, v)
        if not isinstance(getattr(v, "space", None), MiniVectorSpace):
            raise ValueError("expected point values or a MINI vector field")
        if v.space.mesh is not self.mesh:
            raise ValueError("field lives on a different mesh")
        return self.mini_load.blocks(v)

    def project(self, v):
        """Divergence-free, zero-flux projection of a MINI vector field on
        the mesh, its load read off its cell coefficients with no point
        values (``assemble.MiniRTLoad``), or of point values (nc, nq, d) at
        ``geom.points``.  Returns the projected RT1 field and the
        ``SolveReport`` of the mixed system's relative residual."""
        space = self.rt_space
        nfl, nmult = self._mult.shape[1], space.n_facet_dofs
        bk = self._load_blocks(v)

        # condense onto the multipliers and solve
        Hb = np.einsum("cij,cj->ci", self._solve_local[:, :nfl], bk)
        r = np.bincount(self._mult.ravel(), weights=(self._sign * Hb).ravel(),
                        minlength=nmult)[:-1]
        lam = np.zeros(nmult)
        lam[:-1] = self.lu.solve(r)

        # back-substitute per cell, then glue the facet dofs together
        rhs = bk.copy()
        rhs[:, :nfl] -= self._sign * lam[self._mult]
        x = np.einsum("cij,cj->ci", self._solve_local, rhs)
        nl = space.n_local
        coeffs = np.zeros(space.n_dofs)
        coeffs[:nmult] = np.bincount(
            space.cell_dofs[:, :nfl].ravel(),
            weights=(self._facet_weight * x[:, :nfl]).ravel(), minlength=nmult,
        )
        local = coeffs[space.cell_dofs]
        local[:, nfl:] = x[:, nfl:nl]
        nodal = np.einsum("cvi,ci->cv", self._nodal_div, local)
        local[:, nfl:] -= np.einsum("civ,cv->ci", self._div_fix, nodal)
        coeffs[space.cell_dofs[:, nfl:]] = local[:, nfl:]

        # residual of the mixed system from the cell blocks, p recovered per
        # cell; w is zero on the boundary dofs, so only the free rows remain
        p = x[:, nl:]
        r = (np.einsum("cij,cj->ci", self._Mk, local)
             + np.einsum("cmi,cm->ci", self._Bk, p) - bk)
        div = np.einsum("cmi,ci->cm", self._Bk, local)  # P1-dG is cellwise
        rel = linalg._check(
            np.concatenate([assemble._scatter(self.rt_tab, r)[self.free],
                            div.ravel()]),
            assemble._scatter(self.rt_tab, bk)[self.free],
            "hybridized projection")
        return FeField(space, coeffs), linalg.SolveReport(rel)


def _mixed_inverse(Mk, Bk):
    """The first n_local columns of the inverse of every local mixed
    matrix [M_K, B_K^T; B_K, 0], for blocks M_K (k, nl, nl) and B_K
    (k, nm, nl), in one batched solve."""
    k, nm, nl = Bk.shape
    A = np.zeros((k, nl + nm, nl + nm))
    A[:, :nl, :nl] = Mk
    A[:, :nl, nl:] = np.swapaxes(Bk, 1, 2)
    A[:, nl:, :nl] = Bk
    return np.linalg.solve(A, np.eye(nl + nm)[:, :nl])


def project_rt_divfree(workspace: RtProjectionWorkspace, v):
    """The projected field of ``workspace.project(v)``, without its report."""
    return workspace.project(v)[0]


def rt_divergence_nodal(field):
    """Nodal values of div(sigma) on every cell (the P1 coefficients)."""
    space = field.space
    return np.einsum("ci,cvi->cv", field.coeffs[space.cell_dofs],
                     space.nodal_divergences())


def interpolate_mini(space: MiniVectorSpace, u0):
    """Nodal interpolation into the P1+bubble space; bubble dofs stay zero.

    Boundary vertex dofs are set exactly to zero; if ``u0`` is nonzero
    there beyond 1e-12 a warning is recorded.
    """
    mesh = space.mesh
    vals = np.asarray(u0(mesh.vertices), dtype=float)
    if vals.shape != (mesh.n_vertices, mesh.dim):
        raise ValueError("u0 must return one d-vector per vertex")
    bverts = mesh.boundary_vertices
    worst = float(np.abs(vals[bverts]).max()) if len(bverts) else 0.0
    if worst > 1e-12:
        warnings.warn(
            f"interpolated velocity is nonzero on the boundary "
            f"(max {worst:.3e}); clamping to zero",
            stacklevel=2,
        )
    vals[bverts] = 0.0
    ns = space.scalar.n_dofs
    coeffs = np.zeros(space.n_dofs)
    for k in range(mesh.dim):
        coeffs[k * ns : k * ns + mesh.n_vertices] = vals[:, k]
    return FeField(space, coeffs)
