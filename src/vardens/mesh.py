"""Structured simplicial meshes of the unit square and unit cube.

The square is split into 2n^2 right triangles along a fixed diagonal; the
cube is split into 6n^3 tetrahedra (Kuhn split of each subcube).  Every
cell is reordered to positive signed volume, facet connectivity is built
with a deterministic minus/plus orientation (minus = lower cell index),
and facet unit normals point from the minus cell toward the plus cell
(outward on the boundary).  ``Mesh.facet_dissection_order`` numbers the
facets by a nested dissection of the cells (George, SINUM 10, 1973), the
elimination order of the RT projection's facet system.
"""

import functools
import itertools
import math

import numpy as np


class MeshError(Exception):
    pass


class Mesh:
    """Simplicial mesh with oriented facet adjacency.

    Attributes
    ----------
    dim : 2 or 3
    vertices : (nv, dim) float array
    cells : (nc, dim+1) int array, positively oriented
    jacobians, inv_jacobians : (nc, dim, dim) affine map data, x = v0 + B xi
    dets : (nc,) signed determinants (positive after orientation fix)
    volumes : (nc,) cell measures
    h : max cell diameter
    facet_vertices : (nf, dim) int array (sorted global indices), facets
        numbered by first appearance in the cells
    facet_minus, facet_plus : (nf,) cell indices, plus = -1 on the boundary
    facet_normals : (nf, dim) unit normals, minus -> plus
    facet_measures : (nf,) length/area of the facet
    facet_centers : (nf, dim) facet barycenters
    interior_facets, boundary_facets : facets with and without a plus side
    boundary_vertices : sorted vertices of the boundary facets
    local_facet_vertices : (dim+1, dim) local vertices of local facet i,
        the facet opposite local vertex i
    cell_facets : (nc, dim+1) the facet of every local facet
    cell_facet_signs : (nc, dim+1) +1 where the cell is the minus side
    cell_facet_ranks : (nc, dim+1, dim) rank of each local facet vertex in
        the facet's sorted global order
    facet_local_index : (nf, 2) local index in the minus and plus cell
        (-1: no plus cell)
    facet_dissection_order : (nf,) the facets in nested-dissection order,
        built on first use
    """

    def __init__(self, dim, vertices, cells):
        self.dim = dim
        self.vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        self._orient_and_map(cells)
        self._build_facets()
        a, b = np.triu_indices(dim + 1, 1)  # every edge of a cell
        corners = self.vertices[self.cells]  # (nc, d+1, d)
        self.h = float(np.linalg.norm(corners[:, a] - corners[:, b],
                                      axis=2).max())

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def n_facets(self):
        return self.facet_vertices.shape[0]

    def _orient_and_map(self, cells):
        def jacobians(cells):
            corners = self.vertices[cells]
            return np.stack([corners[:, k + 1] - corners[:, 0]
                             for k in range(self.dim)], axis=2)

        B = jacobians(cells)
        det = np.linalg.det(B)
        flip = det < 0
        if np.any(flip):
            cells = cells.copy()
            cells[flip, -2:] = cells[flip, -1:-3:-1]  # swap the last two
            B = jacobians(cells)
            det = np.linalg.det(B)
        if np.any(np.abs(det) < 1e-300):
            raise MeshError("degenerate cell with zero volume")
        self.cells = cells
        self.jacobians = B
        self.inv_jacobians = np.linalg.inv(B)
        self.dets = det
        self.volumes = det / math.factorial(self.dim)

    def _build_facets(self):
        d = self.dim
        nc = self.n_cells
        local = local_facet_vertices(d)
        verts = self.cells[:, local]  # (nc, d+1, d) global vertex indices
        # side k = (d+1) c + i is local facet i of cell c; a stable sort of
        # the sides by their sorted global vertices puts each facet's sides
        # next to each other, in cell order
        keys = np.sort(verts, axis=2).reshape(-1, d)
        order = np.lexsort(keys.T[::-1])
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
        start = np.flatnonzero(new)
        count = np.diff(np.append(start, len(order)))
        if np.any(count > 2):
            raise MeshError("a facet is shared by more than two cells")
        # facets numbered by first appearance, the lower cell's side first
        by_first = np.argsort(order[start])
        start, count = start[by_first], count[by_first]
        facet = np.empty(len(start), dtype=np.int64)
        facet[by_first] = np.arange(len(start))
        side_facet = np.empty(len(order), dtype=np.int64)
        side_facet[order] = facet[np.cumsum(new) - 1]
        sides = np.full((len(start), 2), -1, dtype=np.int64)
        sides[:, 0] = order[start]
        sides[count == 2, 1] = order[start[count == 2] + 1]

        self.cell_facets = side_facet.reshape(nc, d + 1)
        self.facet_vertices = keys[sides[:, 0]]
        self.facet_minus = sides[:, 0] // (d + 1)
        self.facet_plus = np.where(sides[:, 1] >= 0, sides[:, 1] // (d + 1), -1)
        self.interior_facets = np.flatnonzero(self.facet_plus >= 0)
        self.boundary_facets = np.flatnonzero(self.facet_plus < 0)
        self.boundary_vertices = np.unique(
            self.facet_vertices[self.boundary_facets])
        self.local_facet_vertices = local
        self.facet_local_index = np.where(sides >= 0, sides % (d + 1), -1)
        signs = np.full(nc * (d + 1), -1.0)
        signs[sides[:, 0]] = 1.0
        self.cell_facet_signs = signs.reshape(nc, d + 1)
        self.cell_facet_ranks = np.argsort(np.argsort(verts, axis=2), axis=2)

        pts = self.vertices[self.facet_vertices]  # (nf, d, d)
        if d == 2:
            t = pts[:, 1] - pts[:, 0]
            normals = np.column_stack([t[:, 1], -t[:, 0]])
            self.facet_measures = np.linalg.norm(t, axis=1)
        else:
            cr = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
            normals = cr
            self.facet_measures = 0.5 * np.linalg.norm(cr, axis=1)
        normals = normals / np.linalg.norm(normals, axis=1)[:, None]
        centers = pts.mean(axis=1)
        centroids = self.vertices[self.cells].mean(axis=1)
        outward = np.einsum(
            "fd,fd->f", normals, centers - centroids[self.facet_minus]
        )
        normals[outward < 0] *= -1.0
        self.facet_normals = normals
        self.facet_centers = centers

    @functools.cached_property
    def facet_dissection_order(self):
        """The facets sorted so that every separator follows the two halves
        it separates.

        The cells are bisected at the median of their centroids down to
        single cells (``_dissection_leaves``); each facet belongs to the
        lowest tree node above both its cells, and the facets are sorted,
        stably, by the postorder index of that node.  Eliminated in this order, a facet of
        one subtree couples only to facets of that subtree and of the
        separators above it, so fill stays inside subtrees.
        """
        height, prefix = _facet_dissection_nodes(self)
        # in a complete binary tree, leaf j has postorder index
        # 2 j - popcount(j), and a node follows its rightmost leaf by its
        # height
        last = ((prefix + 1) << height) - 1
        post = 2 * last - np.bitwise_count(last) + height
        return np.argsort(post, kind="stable")

    def reference_coords(self, cells, points):
        """Reference coordinates of physical ``points`` inside ``cells``.

        cells : (k,) cell indices; points : (k, ..., dim) physical points.
        """
        v0 = self.vertices[self.cells[cells, 0]]
        Binv = self.inv_jacobians[cells]
        rel = points - v0[(slice(None),) + (None,) * (points.ndim - 2)]
        return np.einsum("ced,c...d->c...e", Binv, rel)


def _dissection_leaves(points):
    """Leaf of every point in a median bisection tree.

    Each level splits every part at the median of its points along the
    part's widest axis, ties broken by point index, into a lower child
    (the first half, which keeps the smaller share of an odd part) and an
    upper one.  All leaves lie at one depth, the least at which each holds
    at most one point; a leaf is numbered by its path from the root, one
    bit per level, 1 for the upper child.  Leaves are single points, not
    groups of up to 16: on the unit square at h = 1/16, 1/32 and the cube
    at h = 1/4, 1/8, 1/12, 1/16 that gives the RT factor 3-36% less fill,
    and it factors as fast.
    """
    n = len(points)
    depth = (n - 1).bit_length()
    leaf = np.zeros(n, dtype=np.int64)
    order = np.arange(n)  # the points grouped by part, parts ascending
    for _ in range(depth):
        part = leaf[order]
        start = np.flatnonzero(np.diff(part, prepend=-1))
        size = np.diff(np.append(start, n))
        pts = points[order]
        extent = (np.maximum.reduceat(pts, start)
                  - np.minimum.reduceat(pts, start))
        axis = np.repeat(np.argmax(extent, axis=1), size)
        order = order[np.lexsort((order, pts[np.arange(n), axis], part))]
        rank = np.arange(n) - np.repeat(start, size)
        leaf[order] = 2 * part + (rank >= np.repeat(size // 2, size))
    return leaf


def _facet_dissection_nodes(mesh):
    """The lowest node of the cells' bisection tree above both cells of
    every facet, as (height above the leaves, path from the root): the
    common binary prefix of the two cells' leaves.  A boundary facet's
    node is its cell's leaf."""
    leaf = _dissection_leaves(mesh.vertices[mesh.cells].mean(axis=1))
    minus = leaf[mesh.facet_minus]
    plus = np.where(mesh.facet_plus >= 0, leaf[mesh.facet_plus], minus)
    height = np.frexp(minus ^ plus)[1].astype(np.int64)  # the bit length
    return height, minus >> height


def local_facet_vertices(dim):
    """(dim+1, dim) local vertices of every local facet of a simplex, in
    increasing order; local facet i is the one opposite local vertex i."""
    return np.array([[j for j in range(dim + 1) if j != i]
                     for i in range(dim + 1)])


# corner offsets (parity of i + j, cell, vertex, axis) of the two triangles
# of grid square (i, j)
_SQUARE_SPLIT = np.array([
    [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]],
    [[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]],
])


def _unit_grid_mesh(n, dim, offsets):
    """The mesh of the n^dim grid of the unit square or cube whose grid
    squares or subcubes, in C order of their lower corners, are split into
    the cells with corner offsets ``offsets(corner)``."""
    if n < 1:
        raise ValueError("need at least one subdivision per side")
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.column_stack(
        [g.ravel() for g in np.meshgrid(*[xs] * dim, indexing="ij")])
    corner = np.indices((n,) * dim).reshape(dim, -1).T
    local = corner[:, None, None, :] + offsets(corner)
    strides = (n + 1) ** np.arange(dim - 1, -1, -1)
    return Mesh(dim, vertices, (local @ strides).reshape(-1, dim + 1))


def unit_square_mesh(n: int) -> Mesh:
    """n x n grid of the unit square split into 2n^2 right triangles.

    The diagonal direction alternates with the parity of the grid square,
    which removes the directional bias a one-direction split imprints on
    transported fields (a uniform-diagonal mesh measurably degrades the
    velocity convergence order of the flow scheme).
    """
    return _unit_grid_mesh(n, 2, lambda c: _SQUARE_SPLIT[c.sum(axis=1) % 2])


# corner offsets (tet, vertex, axis) of the Kuhn split of a unit subcube:
# one tet per axis order, stepping along one axis per vertex
_KUHN_STEPS = np.concatenate([
    np.zeros((6, 1, 3), dtype=np.int64),
    np.cumsum(np.eye(3, dtype=np.int64)[list(itertools.permutations(range(3)))],
              axis=1)], axis=1)


def unit_cube_mesh(n: int) -> Mesh:
    """n x n x n grid of the unit cube, each subcube Kuhn-split into 6 tets.

    The split is reflected with the parity of each grid index (subcube
    (i, j, k) is mirrored along every axis with an odd index).  The induced
    diagonal on a shared face depends only on the parities of the two
    in-plane axes, which adjacent subcubes agree on, so the mesh stays
    conforming, and the reflection removes the directional bias of the
    translation-invariant split.
    """
    # mirror the odd-parity axes inside each subcube
    return _unit_grid_mesh(n, 3, lambda c: np.where(
        c[:, None, None, :] % 2 == 1, 1 - _KUHN_STEPS, _KUHN_STEPS))
