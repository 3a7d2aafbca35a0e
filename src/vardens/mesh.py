"""Structured simplicial meshes of the unit square and unit cube.

The square is split into 2n^2 right triangles along a fixed diagonal; the
cube is split into 6n^3 tetrahedra (Kuhn split of each subcube).  Every
cell is reordered to positive signed volume, facet connectivity is built
with a deterministic minus/plus orientation (minus = lower cell index),
and facet unit normals point from the minus cell toward the plus cell
(outward on the boundary).
"""

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
    facet_vertices : (nf, dim) int array (sorted global indices)
    facet_minus, facet_plus : (nf,) cell indices, plus = -1 on the boundary
    facet_normals : (nf, dim) unit normals, minus -> plus
    facet_measures : (nf,) length/area of the facet
    """

    def __init__(self, dim, vertices, cells):
        self.dim = dim
        self.vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        self._orient_and_map(cells)
        self._build_facets()
        diffs = self.vertices[self.cells]  # (nc, d+1, d)
        diam = np.zeros(len(self.cells))
        for a in range(dim + 1):
            for b in range(a + 1, dim + 1):
                diam = np.maximum(
                    diam, np.linalg.norm(diffs[:, a] - diffs[:, b], axis=1)
                )
        self.h = float(diam.max())

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
        d = self.dim
        v0 = self.vertices[cells[:, 0]]
        B = np.stack(
            [self.vertices[cells[:, k + 1]] - v0 for k in range(d)], axis=2
        )
        det = np.linalg.det(B)
        flip = det < 0
        if np.any(flip):
            cells = cells.copy()
            cells[flip, -2], cells[flip, -1] = (
                cells[flip, -1].copy(),
                cells[flip, -2].copy(),
            )
            v0 = self.vertices[cells[:, 0]]
            B = np.stack(
                [self.vertices[cells[:, k + 1]] - v0 for k in range(d)], axis=2
            )
            det = np.linalg.det(B)
        if np.any(np.abs(det) < 1e-300):
            raise MeshError("degenerate cell with zero volume")
        self.cells = cells
        self.jacobians = B
        self.inv_jacobians = np.linalg.inv(B)
        self.dets = det
        self.volumes = det / math.factorial(d)

    def _build_facets(self):
        d = self.dim
        nc = self.n_cells
        # facet opposite local vertex i, for every cell
        local = [tuple(j for j in range(d + 1) if j != i) for i in range(d + 1)]
        seen = {}
        fv, fminus, fplus = [], [], []
        cell_facets = np.empty((nc, d + 1), dtype=np.int64)
        for c in range(nc):
            cell = self.cells[c]
            for i, loc in enumerate(local):
                key = tuple(sorted(int(cell[j]) for j in loc))
                if key in seen:
                    fid = seen[key]
                    fplus[fid] = c
                else:
                    fid = len(fv)
                    seen[key] = fid
                    fv.append(key)
                    fminus.append(c)
                    fplus.append(-1)
                cell_facets[c, i] = fid
        self.cell_facets = cell_facets
        self.facet_vertices = np.array(fv, dtype=np.int64)
        self.facet_minus = np.array(fminus, dtype=np.int64)
        self.facet_plus = np.array(fplus, dtype=np.int64)
        self.interior_facets = np.flatnonzero(self.facet_plus >= 0)
        self.boundary_facets = np.flatnonzero(self.facet_plus < 0)

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

    def reference_coords(self, cells, points):
        """Reference coordinates of physical ``points`` inside ``cells``.

        cells : (k,) cell indices; points : (k, ..., dim) physical points.
        """
        v0 = self.vertices[self.cells[cells, 0]]
        Binv = self.inv_jacobians[cells]
        rel = points - v0[(slice(None),) + (None,) * (points.ndim - 2)]
        return np.einsum("ced,c...d->c...e", Binv, rel)


def unit_square_mesh(n: int) -> Mesh:
    """n x n grid of the unit square split into 2n^2 right triangles.

    The diagonal direction alternates with the parity of the grid square,
    which removes the directional bias a one-direction split imprints on
    transported fields (a uniform-diagonal mesh measurably degrades the
    velocity convergence order of the flow scheme).
    """
    if n < 1:
        raise ValueError("need at least one subdivision per side")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                cells.append((v00, v10, v11))
                cells.append((v00, v11, v01))
            else:
                cells.append((v00, v10, v01))
                cells.append((v10, v11, v01))
    return Mesh(2, vertices, cells)


_KUHN_PERMS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def unit_cube_mesh(n: int) -> Mesh:
    """n x n x n grid of the unit cube, each subcube Kuhn-split into 6 tets.

    The split is reflected with the parity of each grid index (subcube
    (i, j, k) is mirrored along every axis with an odd index).  The induced
    diagonal on a shared face depends only on the parities of the two
    in-plane axes, which adjacent subcubes agree on, so the mesh stays
    conforming, and the reflection removes the directional bias of the
    translation-invariant split.
    """
    if n < 1:
        raise ValueError("need at least one subdivision per side")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corner = np.array([i, j, k])
                parity = np.array([i % 2, j % 2, k % 2])
                for perm in _KUHN_PERMS:
                    steps = np.zeros((4, 3), dtype=int)
                    for m, axis in enumerate(perm):
                        steps[m + 1] = steps[m]
                        steps[m + 1, axis] += 1
                    # mirror odd-parity axes inside the subcube
                    local = np.where(parity, 1 - steps, steps)
                    tet = [vid(*(corner + s)) for s in local]
                    cells.append(tuple(tet))
    return Mesh(3, vertices, cells)
