"""Structured mesh construction, facet orientation, and geometric maps."""

import math

import numpy as np
import pytest

from vardens.mesh import (Mesh, MeshError, _facet_dissection_nodes,
                          unit_cube_mesh, unit_square_mesh)


def test_smallest_square_mesh():
    m = unit_square_mesh(1)
    assert m.n_cells == 2
    assert m.n_vertices == 4
    assert m.n_facets == 5
    assert len(m.boundary_facets) == 4
    assert len(m.interior_facets) == 1


def test_square_counts_and_h():
    m = unit_square_mesh(8)
    assert m.n_cells == 2 * 8**2
    assert abs(m.h - math.sqrt(2) / 8) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_square_tiles_unit_area(n):
    m = unit_square_mesh(n)
    assert abs(m.volumes.sum() - 1.0) < 1e-12
    assert (m.dets > 0).all()


def test_smallest_cube_mesh():
    m = unit_cube_mesh(1)
    assert m.n_cells == 6
    assert abs(m.volumes.sum() - 1.0) < 1e-12


def test_cube_adjacency_brute_force():
    m = unit_cube_mesh(2)
    assert m.n_cells == 48
    # every interior facet references exactly two cells; recompute adjacency
    # from scratch by matching sorted vertex triples
    from collections import defaultdict

    seen = defaultdict(list)
    for c, cell in enumerate(m.cells):
        for i in range(4):
            key = tuple(sorted(np.delete(cell, i)))
            seen[key].append(c)
    for f in range(m.n_facets):
        key = tuple(m.facet_vertices[f])
        cells = seen[key]
        if m.facet_plus[f] >= 0:
            assert sorted(cells) == sorted(
                [m.facet_minus[f], m.facet_plus[f]]
            )
            assert m.facet_minus[f] < m.facet_plus[f]
        else:
            assert cells == [m.facet_minus[f]]


def test_cube_boundary_facets_on_box_planes():
    m = unit_cube_mesh(4)
    pts = m.vertices[m.facet_vertices[m.boundary_facets]]
    on_plane = np.zeros(len(m.boundary_facets), dtype=bool)
    for axis in range(3):
        for value in (0.0, 1.0):
            on_plane |= np.all(np.abs(pts[:, :, axis] - value) < 1e-14, axis=1)
    assert on_plane.all()


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 3), (unit_cube_mesh, 2)])
def test_facet_normals_unit_and_consistent(make, n):
    m = make(n)
    assert np.abs(np.linalg.norm(m.facet_normals, axis=1) - 1.0).max() < 1e-14
    assert (m.facet_measures <= m.h + 1e-14).all()
    # outward normal computed from the plus side must be the negation
    centroids = m.vertices[m.cells].mean(axis=1)
    fi = m.interior_facets
    centers = m.facet_centers[fi]
    to_plus = centers - centroids[m.facet_plus[fi]]
    outward_plus = np.sign(np.einsum("fd,fd->f", m.facet_normals[fi], to_plus))
    assert (outward_plus < 0).all()  # normal points minus -> plus
    # boundary normals point out of the unit box
    bf = m.boundary_facets
    out = m.facet_centers[bf] + 1e-3 * m.facet_normals[bf]
    assert ((out < -1e-12) | (out > 1 + 1e-12)).any(axis=1).all()


@pytest.mark.parametrize("make,ns", [(unit_square_mesh, (1, 2, 4)),
                                     (unit_cube_mesh, (1, 2, 4))])
def test_divergence_theorem_affine_field(make, ns):
    rng = np.random.default_rng(5)
    for n in ns:
        m = make(n)
        d = m.dim
        a = rng.standard_normal(d)
        M = rng.standard_normal((d, d))

        def v(x):
            return a + x @ M.T

        # brute force: every cell, every local facet, with the cell's own
        # outward normal; affine integrand is exact at the facet centroid
        lhs = 0.0
        for c in range(m.n_cells):
            for f in m.cell_facets[c]:
                sign = 1.0 if m.facet_minus[f] == c else -1.0
                nu = sign * m.facet_normals[f]
                lhs += v(m.facet_centers[f]) @ nu * m.facet_measures[f]
        rhs = 0.0
        for f in m.boundary_facets:
            rhs += (v(m.facet_centers[f]) @ m.facet_normals[f]
                    * m.facet_measures[f])
        assert abs(lhs - rhs) < 1e-11
        assert abs(rhs - np.trace(M)) < 1e-11


def test_affine_map_reference_simplex_identity():
    ref = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               np.array([[0, 1, 2]]))
    assert np.allclose(ref.jacobians[0], np.eye(2))
    assert np.allclose(ref.inv_jacobians[0], np.eye(2))
    assert abs(ref.dets[0] - 1.0) < 1e-15


def test_affine_map_determinant_is_factorial_times_volume():
    m = unit_square_mesh(2)
    for c in range(m.n_cells):
        det = m.dets[c]
        assert abs(abs(det) - 2 * m.volumes[c]) < 1e-14
        assert abs(abs(det) - 0.25) < 1e-14


def test_reflected_cell_is_reoriented():
    # handing in a negatively oriented triangle must flip it to positive
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(2, verts, np.array([[0, 2, 1]]))  # clockwise input
    assert m.dets[0] > 0
    raw = np.linalg.det(np.column_stack([verts[2] - verts[0],
                                         verts[1] - verts[0]]))
    assert raw < 0  # the unfixed ordering really was reflected


def test_zero_volume_cell_is_rejected():
    with pytest.raises(MeshError, match="zero volume"):
        Mesh(2, [(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_invalid_subdivisions():
    with pytest.raises(ValueError):
        unit_square_mesh(0)
    with pytest.raises(ValueError):
        unit_cube_mesh(0)


def test_reference_coords_roundtrip():
    m = unit_cube_mesh(2)
    rng = np.random.default_rng(0)
    cells = rng.integers(0, m.n_cells, size=7)
    lam = rng.dirichlet(np.ones(4), size=(7, 5))  # barycentric samples
    pts = np.einsum("cqk,ckd->cqd", lam, m.vertices[m.cells[cells]])
    ref = m.reference_coords(cells, pts)
    assert np.abs(ref - lam[:, :, 1:]).max() < 1e-12


def _loop_cells(dim, n):
    """Cells of the structured meshes, one grid square or subcube at a
    time: the construction the array build must reproduce."""
    if dim == 2:
        def vid(i, j):
            return i * (n + 1) + j

        cells = []
        for i in range(n):
            for j in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                if (i + j) % 2 == 0:
                    cells += [(v00, v10, v11), (v00, v11, v01)]
                else:
                    cells += [(v00, v10, v01), (v10, v11, v01)]
        return cells

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corner = np.array([i, j, k])
                parity = np.array([i % 2, j % 2, k % 2])
                for perm in perms:
                    steps = np.zeros((4, 3), dtype=int)
                    for m, axis in enumerate(perm):
                        steps[m + 1] = steps[m]
                        steps[m + 1, axis] += 1
                    local = np.where(parity, 1 - steps, steps)
                    cells.append(tuple(vid(*(corner + s)) for s in local))
    return cells


def _loop_facets(cells, d):
    """cell_facets, facet_vertices, facet_minus, facet_plus from one pass
    over the cells with a dict of sorted vertex keys: facets numbered by
    first appearance, the lower cell the minus side."""
    local = [tuple(j for j in range(d + 1) if j != i) for i in range(d + 1)]
    seen = {}
    fv, fminus, fplus = [], [], []
    cell_facets = np.empty((len(cells), d + 1), dtype=np.int64)
    for c, cell in enumerate(cells):
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
    return (cell_facets, np.array(fv, dtype=np.int64),
            np.array(fminus, dtype=np.int64), np.array(fplus, dtype=np.int64))


def _bitwise_equal(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


MESHES = ([(unit_square_mesh, n) for n in (1, 2, 3, 16, 32)]
          + [(unit_cube_mesh, n) for n in (1, 2, 3, 4, 8)])


@pytest.mark.parametrize("make,n", MESHES)
def test_mesh_arrays_match_cell_loop_reference(make, n):
    m = make(n)
    ref = Mesh(m.dim, m.vertices, _loop_cells(m.dim, n))
    for name, value in vars(ref).items():
        assert _bitwise_equal(getattr(m, name), value), name
    facets = _loop_facets(m.cells, m.dim)
    for name, value in zip(("cell_facets", "facet_vertices", "facet_minus",
                            "facet_plus"), facets):
        assert _bitwise_equal(getattr(m, name), value), name


@pytest.mark.parametrize("make,n", MESHES)
def test_facet_facts_match_their_formulas(make, n):
    m = make(n)
    d, nc = m.dim, m.n_cells
    verts = np.array([[j for j in range(d + 1) if j != i]
                      for i in range(d + 1)])
    assert np.array_equal(m.local_facet_vertices, verts)
    assert np.array_equal(
        m.cell_facet_signs,
        np.where(m.facet_minus[m.cell_facets] == np.arange(nc)[:, None],
                 1.0, -1.0))
    assert np.array_equal(
        m.cell_facet_ranks,
        np.argsort(np.argsort(m.cells[:, verts], axis=2), axis=2))
    assert np.array_equal(
        m.boundary_vertices,
        np.unique(m.facet_vertices[m.boundary_facets].ravel()))
    fi = m.interior_facets
    for k, cells in enumerate((m.facet_minus, m.facet_plus)):
        local = np.argmax(m.cell_facets[cells[fi]] == fi[:, None], axis=1)
        assert np.array_equal(m.facet_local_index[fi, k], local)
    bf = m.boundary_facets
    assert np.array_equal(
        m.facet_local_index[bf, 0],
        np.argmax(m.cell_facets[m.facet_minus[bf]] == bf[:, None], axis=1))
    assert (m.facet_local_index[bf, 1] == -1).all()


def test_facet_shared_by_three_cells_is_rejected():
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
    with pytest.raises(MeshError, match="more than two cells"):
        Mesh(2, verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


DISSECTED = ([(unit_square_mesh, n) for n in (1, 2, 8)]
             + [(unit_cube_mesh, n) for n in (1, 2, 4)])


def _bisection_reference(m):
    """Leaf of every cell and tree depth from recursive median bisection,
    one part at a time: split the part along its widest centroid axis,
    cells sorted by (coordinate, index), the first half to the lower
    child, down to single cells at one depth."""
    points = m.vertices[m.cells].mean(axis=1)
    depth = 0
    while 2 ** depth < m.n_cells:
        depth += 1
    leaf = np.full(m.n_cells, -1, dtype=np.int64)

    def bisect(cells, path, level):
        if level == depth:
            leaf[cells] = path
            return
        if not cells:
            return
        pts = points[cells]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        cells = sorted(cells, key=lambda c: (points[c, axis], c))
        half = len(cells) // 2
        bisect(cells[:half], 2 * path, level + 1)
        bisect(cells[half:], 2 * path + 1, level + 1)

    bisect(list(range(m.n_cells)), 0, 0)
    return leaf, depth


def _postorder(depth):
    """(level, path) of every node of the complete binary tree of the
    given depth, mapped to its postorder index."""
    out = {}

    def visit(level, path):
        if level < depth:
            visit(level + 1, 2 * path)
            visit(level + 1, 2 * path + 1)
        out[(level, path)] = len(out)

    visit(0, 0)
    return out


@pytest.mark.parametrize("make,n", DISSECTED)
def test_facet_dissection_order_is_a_deterministic_permutation(make, n):
    m = make(n)
    order = m.facet_dissection_order
    assert order.dtype == np.int64
    assert np.array_equal(np.sort(order), np.arange(m.n_facets))
    assert m.facet_dissection_order is order  # built once
    assert np.array_equal(make(n).facet_dissection_order, order)


@pytest.mark.parametrize("make,n", DISSECTED)
def test_facet_dissection_order_matches_recursive_bisection(make, n):
    """Each facet's node is the lowest common ancestor of its cells'
    leaves (its one cell's leaf on the boundary), and the facets follow
    the nodes' postorder, ties in facet order."""
    m = make(n)
    leaf, depth = _bisection_reference(m)
    assert np.bincount(leaf).max() == 1
    nodes = []
    for f in range(m.n_facets):
        a = leaf[m.facet_minus[f]]
        b = leaf[m.facet_plus[f]] if m.facet_plus[f] >= 0 else a
        level = depth
        while a != b:
            a, b, level = a >> 1, b >> 1, level - 1
        nodes.append((level, int(a)))
    height, prefix = _facet_dissection_nodes(m)
    assert [(depth - int(h), int(p)) for h, p in zip(height, prefix)] == nodes
    post = _postorder(depth)
    expected = sorted(range(m.n_facets), key=lambda f: (post[nodes[f]], f))
    assert m.facet_dissection_order.tolist() == expected


@pytest.mark.parametrize("make,n", DISSECTED)
def test_facets_of_a_cell_lie_on_one_root_path(make, n):
    """The separator property: of any two facets of one cell, one facet's
    tree node is an ancestor of, or equal to, the other's, so eliminating
    a subtree's facets fills in only that subtree and its separators."""
    m = make(n)
    height, prefix = _facet_dissection_nodes(m)
    for facets in m.cell_facets:
        for f in facets:
            for g in facets:
                if height[f] >= height[g]:
                    shift = height[f] - height[g]
                    assert prefix[g] >> shift == prefix[f]
