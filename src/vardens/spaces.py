"""Finite element spaces and degree-of-freedom maps.

Scalar spaces (P1, P1 discontinuous, P2 discontinuous, P1+bubble) are nodal
on the reference simplex and mapped affinely.  The vector velocity space is
d stacked copies of the P1+bubble scalar space (component-major dof layout).
The H(div) space is span{P1^d + x P1}, with shared facet degrees of freedom
defined as normal-flux moments against the P1 nodal functions of the facet
in sorted global-vertex order; sharing those dofs makes the normal trace
single-valued across facets.  Its basis is solved for once, on the reference
simplex, and each cell's local basis is the contravariant Piola image of
that one basis, reordered and signed by the cell's vertex order and facet
orientations (``RT1Space.piola_map``).

The bubble is the barycentric product scaled to value 1 at the barycenter
(factor 27 on triangles, 256 on tetrahedra).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import local_facet_vertices
from .quadrature import reference_simplex_measure, simplex_rule


def barycentric(points, dim):
    """Barycentric coordinates (nq, dim+1) of reference points (nq, dim)."""
    pts = np.atleast_2d(points)
    lam0 = 1.0 - pts.sum(axis=1)
    return np.column_stack([lam0] + [pts[:, k] for k in range(dim)])


def _edges(dim):
    """The local vertex pairs (a, b), a < b, of the edges of a simplex, in
    the order of the P2 edge dofs."""
    return list(itertools.combinations(range(dim + 1), 2))


# gradient of barycentric coordinate i w.r.t. reference coordinates
def _bary_grads(dim):
    g = np.zeros((dim + 1, dim))
    g[0, :] = -1.0
    g[1:, :] = np.eye(dim)
    return g


class ScalarSpace:
    """Base for affine-mapped nodal scalar spaces."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = mesh.dim
        self.cell_dofs = self._build_dofs(mesh)
        self.n_dofs = int(self.cell_dofs.max()) + 1
        self.n_local = self.cell_dofs.shape[1]

    def boundary_dofs(self):
        """Dofs with support on the domain boundary (vertex dofs only)."""
        return self.mesh.boundary_vertices


class P1Space(ScalarSpace):
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
    def _build_dofs(self, mesh):
        nloc = mesh.dim + 1
        return np.arange(mesh.n_cells * nloc).reshape(mesh.n_cells, nloc)


class P2DGSpace(ScalarSpace):
    def _build_dofs(self, mesh):
        nloc = mesh.dim + 1 + len(_edges(mesh.dim))
        return np.arange(mesh.n_cells * nloc).reshape(mesh.n_cells, nloc)

    def ref_values(self, points):
        lam = barycentric(points, self.dim)
        vert = lam * (2.0 * lam - 1.0)
        edge = [4.0 * lam[:, a] * lam[:, b] for a, b in _edges(self.dim)]
        return np.column_stack([vert] + edge)

    def ref_grads(self, points):
        lam = barycentric(points, self.dim)
        g = _bary_grads(self.dim)
        nq = lam.shape[0]
        out = np.zeros((nq, self.n_local, self.dim))
        for i in range(self.dim + 1):
            out[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * g[i]
        for m, (a, b) in enumerate(_edges(self.dim)):
            out[:, self.dim + 1 + m, :] = 4.0 * (
                lam[:, a][:, None] * g[b] + lam[:, b][:, None] * g[a]
            )
        return out

    def bernstein(self, coeffs):
        """Bernstein coefficients (n_cells, n_local) of the field with
        coefficients ``coeffs``, numbered cell by cell: the vertex values,
        and 2 m_ab - (v_a + v_b) / 2 on edge ab with midpoint value m_ab.
        The Bernstein polynomials are nonnegative and sum to 1, so on each
        cell the field lies between the least and the greatest of them
        (Ainsworth, Andriamaro & Davydov, SISC 33, 2011)."""
        c = coeffs.reshape(-1, self.n_local)
        a, b = np.array(_edges(self.dim)).T
        out = c.copy()
        out[:, self.dim + 1:] = 2.0 * c[:, self.dim + 1:] - 0.5 * (
            c[:, a] + c[:, b])
        return out


class MiniScalarSpace(ScalarSpace):
    """P1 vertex dofs plus one interior bubble dof per cell."""

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
        for i, others in enumerate(local_facet_vertices(self.dim)):
            out[:, self.dim + 1, :] += (
                np.prod(lam[:, others], axis=1)[:, None] * g[i]
            )
        out[:, self.dim + 1, :] *= self.bubble_scale
        return out


class MiniVectorSpace:
    """d copies of the P1+bubble scalar space, component-major layout."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = mesh.dim
        self.scalar = MiniScalarSpace(mesh)
        self.n_dofs = mesh.dim * self.scalar.n_dofs


def _rt1_modes(points):
    """Monomial modes of P1^d + x P1 and their divergences at reference
    points (nq, d): (nq, n_modes, d) and (nq, n_modes)."""
    nq, d = points.shape
    vals = np.zeros((nq, d * (d + 2), d))
    divs = np.zeros((nq, d * (d + 2)))
    for k in range(d):  # e_k, e_k x_1, ..., e_k x_d
        vals[:, k * (d + 1), k] = 1.0
        vals[:, k * (d + 1) + 1:(k + 1) * (d + 1), k] = points
        divs[:, k * (d + 2) + 1] = 1.0
    vals[:, d * (d + 1):] = points[:, :, None] * points[:, None, :]  # x_j x
    divs[:, d * (d + 1):] = (d + 1) * points
    return vals, divs


@functools.cache
def _rt1_reference_coefficients(d):
    """Mode coefficients (n_modes, n_local) of the reference basis: the
    inverse of its dof functionals applied to the modes.

    The dofs of reference facet f (opposite vertex f) are mean-scaled
    moments of the outward normal flux against the barycentric coordinates
    of the facet's vertices in local order; the interior dofs are the cell
    averages of each component."""
    vertices = np.vstack([np.zeros(d), np.eye(d)])
    frule, crule = simplex_rule(d - 1, 3), simplex_rule(d, 3)
    lam = barycentric(frule.points, d - 1)  # (nq, d)
    mean = (frule.weights / reference_simplex_measure(d - 1))[:, None] * lam
    g = _bary_grads(d)
    rows = []
    for f, local in enumerate(local_facet_vertices(d)):
        vals, _ = _rt1_modes(lam @ vertices[local])
        rows.append(mean.T @ (vals @ (-g[f] / np.linalg.norm(g[f]))))
    vals, _ = _rt1_modes(crule.points)
    rows.append(np.einsum("q,qmk->km",
                          crule.weights / reference_simplex_measure(d), vals))
    return np.linalg.inv(np.concatenate(rows))


class RT1Space:
    """H(div)-conforming space of order 1: w|_K in P1(K)^d + x P1(K).

    Facet dofs are mean-scaled normal-flux moments against the facet's P1
    nodal functions in sorted global-vertex order; interior dofs are cell
    averages of each component.  The basis is solved for once, on the
    reference simplex, and each cell's local basis is its contravariant
    Piola image (``piola_map``), so the space stores O(n_local) numbers
    per cell and no basis coefficients.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.dim = d = mesh.dim
        nf, nc = mesh.n_facets, mesh.n_cells
        self.n_facet_dofs = d * nf
        self.n_dofs = d * nf + d * nc
        self.n_local = d * (d + 1) + d

        fd = self.facet_dofs(mesh.cell_facets).reshape(nc, -1)
        idofs = d * nf + (np.arange(nc)[:, None] * d + np.arange(d))
        self.cell_dofs = np.concatenate([fd, idofs], axis=1)

    def facet_dofs(self, facets):
        """Dofs (..., d) of ``facets``: facet k owns d k, ..., d k + d - 1."""
        return facets[..., None] * self.dim + np.arange(self.dim)

    def boundary_dofs(self):
        return self.facet_dofs(self.mesh.boundary_facets).ravel()

    def reference_basis(self, points):
        """Values (nq, n_local, d) and divergences (nq, n_local) of the
        reference basis at reference points (nq, d)."""
        vals, divs = _rt1_modes(points)
        C = _rt1_reference_coefficients(self.dim)
        return np.einsum("qmd,mi->qid", vals, C), divs @ C

    @functools.cached_property
    def piola_map(self):
        """Each cell's local basis through the reference basis.

        The contravariant Piola map u = J uhat / det J, x = v0 + J xi,
        keeps normal-flux moments against matching facet functions and
        takes cell averages to adj(J) = det J J^-1 times them.  So a field
        with local coefficients c is J sum_i chat_i phihat_i / det J on
        cell K, with chat = T_K c: in reference dof order chat is c
        reordered by ``order`` (n_cells, n_local) and then multiplied, on
        the facet dofs, by ``scale`` (n_cells, (d+1) d) = s |F| / |Fhat|,
        with s = +1 where the global normal leaves K and -1 otherwise, and
        on the interior dofs by ``adj`` (n_cells, d, d) = adj(J).  The
        reference dof i of local facet f belongs to the facet's i-th vertex
        in local order, the local dof to its i-th vertex in sorted global
        order.  |Fhat| = |grad lambda_f| / (d-1)! on the reference simplex.
        """
        mesh, d = self.mesh, self.dim
        nc = mesh.n_cells
        rank = mesh.cell_facet_ranks
        order = np.concatenate(
            [(d * np.arange(d + 1)[:, None] + rank).reshape(nc, -1),
             np.broadcast_to(np.arange(d * (d + 1), self.n_local),
                             (nc, d))], axis=1)
        ratio = mesh.facet_measures[mesh.cell_facets] * (
            math.factorial(d - 1) / np.linalg.norm(_bary_grads(d), axis=1))
        adj = mesh.dets[:, None, None] * mesh.inv_jacobians
        return (order, np.repeat(mesh.cell_facet_signs * ratio, d, axis=1),
                adj)

    @functools.cached_property
    def distinct_cells(self):
        """The cells with distinct Piola data, as (reps, inverse): cell K's
        Jacobian, dof order and facet scales (``piola_map``) are bit for
        bit those of cell ``reps[inverse[K]]``.

        A cell's local basis, and so every per-cell table built from it,
        depends on that data only (adj(J) and det J are J's), so a table
        computed on ``reps`` and gathered with ``inverse`` is the per-cell
        table.  The rows are keyed by their bytes, never by identity.  On
        the structured meshes with h = 1/2^k few values occur: 8 among the
        triangles of the square, 72 among the tetrahedra of the cube from
        h = 1/4.  At other h the vertex coordinates are not binary
        fractions, the Jacobians differ in their last bits, and most or
        all cells are their own representatives.
        """
        order, scale, _ = self.piola_map
        nc = self.mesh.n_cells
        rows = np.ascontiguousarray(np.concatenate(
            [self.mesh.jacobians.reshape(nc, -1), order, scale], axis=1,
            dtype=float))
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, reps, inverse = np.unique(keys.ravel(), return_index=True,
                                     return_inverse=True)
        return reps, inverse

    def to_local(self, cells, X):
        """X T_K for every cell K of ``cells``: an array (k, ..., n_local)
        over the reference dofs taken to the local dofs (``piola_map``)."""
        order, scale, adj = (a[cells] for a in self.piola_map)
        nfl = scale.shape[1]
        lead = (len(order),) + (1,) * (X.ndim - 2)
        out = np.empty(X.shape)
        np.put_along_axis(out, order[:, :nfl].reshape(lead + (nfl,)),
                          X[..., :nfl] * scale.reshape(lead + (nfl,)),
                          axis=-1)
        out[..., nfl:] = np.einsum("c...a,cab->c...b", X[..., nfl:], adj)
        return out

    def to_reference(self, coeffs):
        """T_K c for every cell K: the reference coefficients (n_cells,
        n_local) of the field with global coefficients ``coeffs``, the
        transpose of ``to_local`` (``piola_map``)."""
        order, scale, adj = self.piola_map
        nfl = scale.shape[1]
        chat = np.take_along_axis(coeffs[self.cell_dofs], order, axis=1)
        chat[:, :nfl] *= scale
        chat[:, nfl:] = np.einsum("cij,cj->ci", adj, chat[:, nfl:])
        return chat

    def tabulate(self, cells, points):
        """Basis values (k, nq, n_local, d) and divergences (k, nq, n_local)
        at physical points, as the Piola image of the reference basis.

        cells : (k,) cell indices; points : (k, nq, d).
        """
        mesh, d = self.mesh, self.dim
        xi = mesh.reference_coords(cells, points)
        k, nq = xi.shape[:2]
        vals, divs = self.reference_basis(xi.reshape(-1, d))
        det = mesh.dets[cells, None, None]
        vals = np.einsum("cde,cqie->cqdi", mesh.jacobians[cells] / det,
                         vals.reshape(k, nq, -1, d))
        divs = divs.reshape(k, nq, -1) / det
        return (np.swapaxes(self.to_local(cells, vals), 2, 3),
                self.to_local(cells, divs))

    def nodal_divergences(self):
        """Divergence (n_cells, d+1, n_local) of every local basis function
        at its cell's vertices: the reference basis's at the reference
        vertices over det J, computed on the distinct cells and gathered
        (``distinct_cells``)."""
        d, mesh = self.dim, self.mesh
        reps, inverse = self.distinct_cells
        _, divs = self.reference_basis(np.vstack([np.zeros(d), np.eye(d)]))
        return self.to_local(reps, divs / mesh.dets[reps, None, None])[inverse]


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
