"""Finite element spaces and degree-of-freedom maps.

Scalar spaces (P1, P1 discontinuous, P2 discontinuous, P1+bubble) are nodal
on the reference simplex and mapped affinely.  The vector velocity space is
d stacked copies of the P1+bubble scalar space (component-major dof layout).
The H(div) space is built directly in physical coordinates on each cell as
span{P1(K)^d + x P1(K)}, with shared facet degrees of freedom defined as
normal-flux moments against the P1 nodal functions of the facet in sorted
global-vertex order; sharing those dofs makes the normal trace single-valued
across facets without any per-cell sign bookkeeping.

The bubble is the barycentric product scaled to value 1 at the barycenter
(factor 27 on triangles, 256 on tetrahedra).
"""

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .quadrature import reference_simplex_measure, simplex_rule


def barycentric(points, dim):
    """Barycentric coordinates (nq, dim+1) of reference points (nq, dim)."""
    pts = np.atleast_2d(points)
    lam0 = 1.0 - pts.sum(axis=1)
    return np.column_stack([lam0] + [pts[:, k] for k in range(dim)])


_P2_EDGES = {2: [(0, 1), (0, 2), (1, 2)],
             3: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}

# gradient of barycentric coordinate i w.r.t. reference coordinates
def _bary_grads(dim):
    g = np.zeros((dim + 1, dim))
    g[0, :] = -1.0
    g[1:, :] = np.eye(dim)
    return g


class ScalarSpace:
    """Base for affine-mapped nodal scalar spaces."""

    kind = None
    continuous = True

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = mesh.dim
        self.cell_dofs = self._build_dofs(mesh)
        self.n_dofs = int(self.cell_dofs.max()) + 1
        self.n_local = self.cell_dofs.shape[1]

    def boundary_dofs(self):
        """Dofs with support on the domain boundary (vertex dofs only)."""
        bverts = np.unique(
            self.mesh.facet_vertices[self.mesh.boundary_facets].ravel()
        )
        return bverts

    def ref_values(self, points):
        raise NotImplementedError

    def ref_grads(self, points):
        raise NotImplementedError


class P1Space(ScalarSpace):
    kind = "P1"

    def _build_dofs(self, mesh):
        return mesh.cells.copy()

    def ref_values(self, points):
        return barycentric(points, self.dim)

    def ref_grads(self, points):
        nq = np.atleast_2d(points).shape[0]
        return np.broadcast_to(
            _bary_grads(self.dim)[None], (nq, self.dim + 1, self.dim)
        ).copy()


class P1DGSpace(P1Space):
    kind = "P1_dG"
    continuous = False

    def _build_dofs(self, mesh):
        nloc = mesh.dim + 1
        return np.arange(mesh.n_cells * nloc).reshape(mesh.n_cells, nloc)


class P2DGSpace(ScalarSpace):
    kind = "P2_dG"
    continuous = False

    def _build_dofs(self, mesh):
        nloc = 6 if mesh.dim == 2 else 10
        return np.arange(mesh.n_cells * nloc).reshape(mesh.n_cells, nloc)

    def ref_values(self, points):
        lam = barycentric(points, self.dim)
        vert = lam * (2.0 * lam - 1.0)
        edge = [4.0 * lam[:, a] * lam[:, b] for a, b in _P2_EDGES[self.dim]]
        return np.column_stack([vert] + edge)

    def ref_grads(self, points):
        lam = barycentric(points, self.dim)
        g = _bary_grads(self.dim)
        nq = lam.shape[0]
        nloc = 6 if self.dim == 2 else 10
        out = np.zeros((nq, nloc, self.dim))
        for i in range(self.dim + 1):
            out[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * g[i]
        for m, (a, b) in enumerate(_P2_EDGES[self.dim]):
            out[:, self.dim + 1 + m, :] = 4.0 * (
                lam[:, a][:, None] * g[b] + lam[:, b][:, None] * g[a]
            )
        return out


class MiniScalarSpace(ScalarSpace):
    """P1 vertex dofs plus one interior bubble dof per cell."""

    kind = "P1b"

    def _build_dofs(self, mesh):
        bub = mesh.n_vertices + np.arange(mesh.n_cells)
        return np.column_stack([mesh.cells, bub])

    @property
    def bubble_scale(self):
        return float((self.dim + 1) ** (self.dim + 1))

    def ref_values(self, points):
        lam = barycentric(points, self.dim)
        bubble = self.bubble_scale * np.prod(lam, axis=1)
        return np.column_stack([lam, bubble])

    def ref_grads(self, points):
        lam = barycentric(points, self.dim)
        g = _bary_grads(self.dim)
        nq = lam.shape[0]
        out = np.zeros((nq, self.dim + 2, self.dim))
        out[:, : self.dim + 1, :] = g[None]
        for i in range(self.dim + 1):
            others = [j for j in range(self.dim + 1) if j != i]
            out[:, self.dim + 1, :] += (
                np.prod(lam[:, others], axis=1)[:, None] * g[i]
            )
        out[:, self.dim + 1, :] *= self.bubble_scale
        return out


class MiniVectorSpace:
    """d copies of the P1+bubble scalar space, component-major layout."""

    kind = "P1b_vector"

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = mesh.dim
        self.scalar = MiniScalarSpace(mesh)
        self.n_dofs = mesh.dim * self.scalar.n_dofs

    def component_slice(self, k):
        ns = self.scalar.n_dofs
        return slice(k * ns, (k + 1) * ns)

    def boundary_dofs(self):
        ns = self.scalar.n_dofs
        sb = self.scalar.boundary_dofs()
        return np.concatenate([sb + k * ns for k in range(self.dim)])


def _reference_mesh(dim):
    """The reference simplex as a one-cell mesh."""
    return Mesh(dim, np.vstack([np.zeros(dim), np.eye(dim)]),
                [np.arange(dim + 1)])


class RT1Space:
    """H(div)-conforming space of order 1: w|_K in P1(K)^d + x P1(K).

    Facet dofs are mean-scaled normal-flux moments against the facet's P1
    nodal functions in sorted global-vertex order; interior dofs are cell
    averages of each component.  Local bases are recovered per cell from a
    generalized Vandermonde solve against centroid-centered monomial modes.
    """

    kind = "RT1"

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = d = mesh.dim
        nf, nc = mesh.n_facets, mesh.n_cells
        self.n_facet_dofs = d * nf
        self.n_dofs = d * nf + d * nc
        self.n_local = d * (d + 1) + d
        self.n_modes = self.n_local

        fd = (mesh.cell_facets[:, :, None] * d + np.arange(d)).reshape(nc, -1)
        idofs = d * nf + (np.arange(nc)[:, None] * d + np.arange(d))
        self.cell_dofs = np.concatenate([fd, idofs], axis=1)

        self.centers = mesh.vertices[mesh.cells].mean(axis=1)
        self.scales = mesh.cell_diameters.copy()
        self._build_coefficients()

    def boundary_dofs(self):
        d = self.dim
        return (
            self.mesh.boundary_facets[:, None] * d + np.arange(d)
        ).ravel()

    def _modes(self, cells, points):
        """Monomial modes and divergences at physical points (k, ..., d)."""
        d = self.dim
        shape = points.shape[:-1]
        xt = (points - self.centers[cells].reshape((-1,) + (1,) * (len(shape) - 1) + (d,))) / self.scales[cells].reshape((-1,) + (1,) * (len(shape) - 1) + (1,))
        nm = self.n_modes
        vals = np.zeros(shape + (nm, d))
        divs = np.zeros(shape + (nm,))
        inv_s = 1.0 / self.scales[cells].reshape((-1,) + (1,) * (len(shape) - 1))
        m = 0
        for k in range(d):
            vals[..., m, k] = 1.0
            m += 1
            for j in range(d):
                vals[..., m, k] = xt[..., j]
                if j == k:
                    divs[..., m] = inv_s
                m += 1
        for j in range(d):
            for k in range(d):
                vals[..., m, k] = xt[..., j] * xt[..., k]
            divs[..., m] = (d + 1) * xt[..., j] * inv_s
            m += 1
        return vals, divs

    def _build_coefficients(self):
        mesh, d = self.mesh, self.dim
        nc = mesh.n_cells
        refmeas_f = reference_simplex_measure(d - 1)
        refmeas_c = reference_simplex_measure(d)
        frule = simplex_rule(d - 1, 3)
        crule = simplex_rule(d, 3)

        # facet moment rows, one block per local facet
        fids = mesh.cell_facets  # (nc, d+1)
        fverts = mesh.vertices[mesh.facet_vertices[fids]]  # (nc, d+1, d, d)
        t = frule.points  # (nqf, d-1)
        lam_f = barycentric(t, d - 1)  # (nqf, d) nodal moments on the facet
        # physical facet quadrature points: v0 + sum t_k (v_{k+1} - v0)
        edges = fverts[:, :, 1:, :] - fverts[:, :, :1, :]
        fpts = fverts[:, :, None, 0, :] + np.einsum(
            "qk,cfkd->cfqd", t, edges
        )
        normals = mesh.facet_normals[fids]  # (nc, d+1, d)
        cells_rep = np.repeat(np.arange(nc), (d + 1) * frule.npoints)
        mvals, _ = self._modes(
            cells_rep, fpts.reshape(-1, 1, d)
        )
        mvals = mvals.reshape(nc, d + 1, frule.npoints, self.n_modes, d)
        flux = np.einsum("cfqmd,cfd->cfqm", mvals, normals)
        facet_rows = np.einsum(
            "q,qi,cfqm->cfim", frule.weights / refmeas_f, lam_f, flux
        ).reshape(nc, (d + 1) * d, self.n_modes)

        # interior rows: componentwise cell averages
        cpts = mesh.vertices[mesh.cells[:, 0]][:, None, :] + np.einsum(
            "qk,ckd->cqd", crule.points, np.swapaxes(mesh.jacobians, 1, 2)
        )
        cells_rep = np.repeat(np.arange(nc), crule.npoints)
        cvals, _ = self._modes(cells_rep, cpts.reshape(-1, 1, d))
        cvals = cvals.reshape(nc, crule.npoints, self.n_modes, d)
        interior_rows = np.einsum(
            "q,cqmd->cdm", crule.weights / refmeas_c, cvals
        )

        V = np.concatenate([facet_rows, interior_rows], axis=1)
        self.coeffs = np.linalg.inv(V)  # (nc, n_modes, n_local)

    def tabulate(self, cells, points):
        """Basis values (k, nq, n_local, d) and divergences (k, nq, n_local)
        at physical points.

        cells : (k,) cell indices; points : (k, nq, d).  The values are a
        view of a (k, n_local, nq, d) array.
        """
        mvals, mdivs = self._modes(cells, points)
        C = self.coeffs[cells]
        k, nq, nm, d = mvals.shape
        modes = np.ascontiguousarray(np.swapaxes(mvals, 1, 2))
        vals = (np.swapaxes(C, 1, 2) @ modes.reshape(k, nm, nq * d)).reshape(
            k, -1, nq, d
        )
        divs = mdivs @ C
        return vals.transpose(0, 2, 1, 3), divs

    def reference_values(self, ref_points):
        """Values (n_local, nq, d) of the reference basis at reference
        points: the basis for the same dofs on the reference simplex."""
        ref = RT1Space(_reference_mesh(self.dim))
        vals, _ = ref.tabulate(np.array([0]), ref_points[None])
        return vals[0].transpose(1, 0, 2)

    def piola_map(self):
        """Each cell's local basis through the reference basis.

        The contravariant Piola map u = J uhat / det J, x = v0 + J xi,
        keeps normal-flux moments against matching facet functions and
        takes cell averages to adj(J) = det J J^-1 times them.  So a field
        with local coefficients c is J sum_i chat_i phihat_i / det J on
        cell K, where in reference dof order chat is c reordered by
        ``order`` (n_cells, n_local) and then multiplied, on the facet
        dofs, by ``scale`` (n_cells, (d+1) d) = s |F| / |Fhat|, with s = +1
        where the global normal leaves K and -1 otherwise, and on the
        interior dofs by adj(J).  The reference dof i of local facet f
        belongs to the facet's i-th vertex in local order, the local dof
        to its i-th vertex in sorted global order.
        """
        mesh, d = self.mesh, self.dim
        nc = mesh.n_cells
        ref = _reference_mesh(d)
        # the cell's vertices on local facet f (opposite vertex f), in order
        verts = np.array([[m for m in range(d + 1) if m != f]
                          for f in range(d + 1)])
        rank = np.argsort(np.argsort(mesh.cells[:, verts], axis=2), axis=2)
        order = np.concatenate(
            [(d * np.arange(d + 1)[:, None] + rank).reshape(nc, -1),
             np.broadcast_to(np.arange(d * (d + 1), self.n_local),
                             (nc, d))], axis=1)
        faces = mesh.cell_facets
        sign = np.where(mesh.facet_minus[faces] == np.arange(nc)[:, None],
                        1.0, -1.0)
        ratio = mesh.facet_measures[faces] / ref.facet_measures[
            ref.cell_facets[0]]
        return order, np.repeat(sign * ratio, d, axis=1)


@dataclass
class FeField:
    """Coefficient vector bound to a finite element space."""

    space: object
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"space has {self.space.n_dofs} dofs"
            )

    def copy(self):
        return FeField(self.space, self.coeffs.copy())
