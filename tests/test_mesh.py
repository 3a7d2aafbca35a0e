"""Structured mesh construction, facet orientation, and geometric maps."""

import math

import numpy as np
import pytest

from vardens.mesh import Mesh, unit_cube_mesh, unit_square_mesh


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
