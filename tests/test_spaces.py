"""Shape functions, dof maps, and the H(div) element construction."""

import math

import numpy as np
import pytest

from vardens import assemble
from vardens.mesh import unit_cube_mesh, unit_square_mesh
from vardens.quadrature import reference_simplex_measure, simplex_rule
from vardens.spaces import (FeField, MiniScalarSpace, MiniVectorSpace,
                            P1DGSpace, P1Space, P2DGSpace, RT1Space,
                            barycentric)


def test_p1_vertex_indicator_pattern():
    m = unit_square_mesh(2)
    space = P1Space(m)
    ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vals = space.ref_values(ref_vertices)
    assert np.allclose(vals, np.eye(3))


@pytest.mark.parametrize("dim", [2, 3])
def test_p2_nodal_property(dim):
    mesh = unit_square_mesh(1) if dim == 2 else unit_cube_mesh(1)
    space = P2DGSpace(mesh)
    if dim == 2:
        nodes = np.array([
            [0, 0], [1, 0], [0, 1],
            [0.5, 0], [0, 0.5], [0.5, 0.5],
        ], dtype=float)
    else:
        nodes = np.array([
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5],
            [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5],
        ], dtype=float)
    vals = space.ref_values(nodes)
    assert np.allclose(vals, np.eye(len(nodes)), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_bubble_is_one_at_barycenter_and_zero_on_faces(dim):
    mesh = unit_square_mesh(1) if dim == 2 else unit_cube_mesh(1)
    space = MiniScalarSpace(mesh)
    bary = np.full((1, dim), 1.0 / (dim + 1))
    vals = space.ref_values(bary)
    assert abs(vals[0, -1] - 1.0) < 1e-14
    # zero on each face of the reference simplex
    rng = np.random.default_rng(2)
    pts = rng.dirichlet(np.ones(dim + 1), size=50)
    for k in range(dim + 1):
        face = pts.copy()
        face[:, k] = 0.0
        face /= face.sum(axis=1)[:, None]
        face_pts = face[:, 1:]
        assert np.abs(space.ref_values(face_pts)[:, -1]).max() < 1e-14


def test_partition_of_unity_scalar_spaces():
    m = unit_cube_mesh(1)
    rng = np.random.default_rng(1)
    pts = rng.dirichlet(np.ones(4), size=20)[:, 1:]
    for cls in (P1Space, P1DGSpace, P2DGSpace):
        space = cls(m)
        assert np.abs(space.ref_values(pts).sum(axis=1) - 1.0).max() < 1e-13
        assert np.abs(space.ref_grads(pts).sum(axis=1)).max() < 1e-13


def test_dof_counts():
    m2, m3 = unit_square_mesh(3), unit_cube_mesh(2)
    assert P1Space(m2).n_dofs == m2.n_vertices
    assert P2DGSpace(m2).n_dofs == 6 * m2.n_cells
    assert P2DGSpace(m3).n_dofs == 10 * m3.n_cells
    assert MiniScalarSpace(m2).n_dofs == m2.n_vertices + m2.n_cells
    assert MiniVectorSpace(m2).n_dofs == 2 * (m2.n_vertices + m2.n_cells)
    assert RT1Space(m2).n_dofs == 2 * m2.n_facets + 2 * m2.n_cells
    assert RT1Space(m3).n_dofs == 3 * m3.n_facets + 3 * m3.n_cells
    assert RT1Space(m2).n_local == 8
    assert RT1Space(m3).n_local == 15


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 2), (unit_cube_mesh, 1),
                                    (unit_cube_mesh, 2)])
def test_rt_facet_moments_reproduce_dofs(make, n):
    """Brute-force check, on every cell, that the RT1 dof functionals of the
    local basis are the identity on its dofs: the mean-scaled moments of
    b_i . nu against the P1 nodal functions of each facet (sorted global
    vertices, global normal) and the cell averages of each component.  By
    unisolvence this pins every local basis to the defining functionals."""
    mesh = make(n)
    d = mesh.dim
    space = RT1Space(mesh)
    cells = np.arange(mesh.n_cells)
    frule = simplex_rule(d - 1, 6)
    moments = barycentric(frule.points, d - 1)
    weights = frule.weights / reference_simplex_measure(d - 1)
    got, rows = [], []
    for loc in range(d + 1):
        f = mesh.cell_facets[:, loc]
        fv = mesh.vertices[mesh.facet_vertices[f]]
        pts = fv[:, :1] + np.einsum("qk,ckd->cqd", frule.points,
                                    fv[:, 1:] - fv[:, :1])
        vals, _ = space.tabulate(cells, pts)
        flux = np.einsum("cqid,cd->cqi", vals, mesh.facet_normals[f])
        got.append(np.einsum("q,qm,cqi->cmi", weights, moments, flux))
        rows.append(f[:, None] * d + np.arange(d))
    geom = assemble.CellQuadrature(mesh, 2)
    vals, _ = space.tabulate(cells, geom.points)
    volumes = geom.abs_dets / math.factorial(d)
    got.append(np.einsum("cq,cqik->cki", geom.wdet, vals)
               / volumes[:, None, None])
    rows.append(space.n_facet_dofs + d * cells[:, None] + np.arange(d))
    got, rows = np.concatenate(got, axis=1), np.concatenate(rows, axis=1)
    # row r of cell c is the functional of global dof rows[c, r]
    expect = rows[:, :, None] == space.cell_dofs[:, None, :]
    assert np.abs(got - expect).max() < 1e-12


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 3), (unit_cube_mesh, 2)])
def test_rt_normal_trace_continuity_random(make, n):
    mesh = make(n)
    space = RT1Space(mesh)
    rng = np.random.default_rng(42)
    fq = assemble.FacetQuadrature(mesh, 6)
    fi = mesh.interior_facets
    cm, cp = mesh.facet_minus[fi], mesh.facet_plus[fi]
    vm, _ = space.tabulate(cm, fq.points[fi])
    vp, _ = space.tabulate(cp, fq.points[fi])
    for _ in range(5):
        w = rng.standard_normal(space.n_dofs)
        fm = np.einsum("fqid,fd,fi->fq", vm, mesh.facet_normals[fi],
                       w[space.cell_dofs[cm]])
        fp = np.einsum("fqid,fd,fi->fq", vp, mesh.facet_normals[fi],
                       w[space.cell_dofs[cp]])
        assert np.abs(fm - fp).max() < 1e-12


def test_rt_divergence_theorem_per_basis_function():
    mesh = unit_square_mesh(2)
    space = RT1Space(mesh)
    geom = assemble.CellQuadrature(mesh, 6)
    fq = assemble.FacetQuadrature(mesh, 6)
    # the facet weights: the rule's, times the facet's measure over the
    # reference facet's
    wscale = (mesh.facet_measures[:, None] / reference_simplex_measure(1)
              * fq.rule.weights)
    for c in (0, 3, 5):
        _, divs = space.tabulate(np.array([c]), geom.points[c][None])
        vol = np.einsum("q,qi->i", geom.wdet[c], divs[0])
        bnd = np.zeros(space.n_local)
        for f in mesh.cell_facets[c]:
            sign = 1.0 if mesh.facet_minus[f] == c else -1.0
            vals, _ = space.tabulate(np.array([c]), fq.points[f][None])
            bnd += sign * np.einsum("q,qid,d->i", wscale[f], vals[0],
                                    mesh.facet_normals[f])
        assert np.abs(vol - bnd).max() < 1e-13


def test_basis_evaluation_shapes():
    m = unit_square_mesh(2)
    pts = np.array([[0.25, 0.25], [1 / 3, 1 / 3]])
    p1 = P1Space(m)
    assert p1.ref_values(pts).shape == (2, 3)
    assert p1.ref_grads(pts).shape == (2, 3, 2)
    phys = m.vertices[m.cells[0, 0]] + pts @ m.jacobians[0].T
    vals, divs = RT1Space(m).tabulate(np.array([0]), phys[None])
    assert vals.shape == (1, 2, 8, 2) and divs.shape == (1, 2, 8)
    vals = MiniScalarSpace(m).ref_values(np.array([[1 / 3, 1 / 3]]))
    assert abs(vals[0, -1] - 1.0) < 1e-14


def test_fe_field_length_check():
    m = unit_square_mesh(1)
    space = P1Space(m)
    with pytest.raises(ValueError):
        FeField(space, np.zeros(space.n_dofs + 1))


def test_boundary_dofs_are_boundary_vertices():
    m = unit_square_mesh(3)
    space = MiniScalarSpace(m)
    b = space.boundary_dofs()
    coords = m.vertices[b]
    on_bdry = ((np.abs(coords) < 1e-14) | (np.abs(coords - 1) < 1e-14)).any(axis=1)
    assert on_bdry.all()
    assert len(b) == 4 * 3  # perimeter vertices of a 3x3 grid


@pytest.mark.parametrize("make,n", [(unit_square_mesh, n) for n in (1, 2, 3, 16, 32)]
                         + [(unit_cube_mesh, n) for n in (1, 2, 3, 4, 8)])
def test_piola_map_matches_its_formula(make, n):
    """``piola_map`` from the mesh's facet facts equals the same map with
    every facet fact worked out from ``cells`` and ``facet_minus``."""
    mesh = make(n)
    space = RT1Space(mesh)
    d, nc = mesh.dim, mesh.n_cells
    verts = np.array([[m for m in range(d + 1) if m != f]
                      for f in range(d + 1)])
    rank = np.argsort(np.argsort(mesh.cells[:, verts], axis=2), axis=2)
    order = np.concatenate(
        [(d * np.arange(d + 1)[:, None] + rank).reshape(nc, -1),
         np.broadcast_to(np.arange(d * (d + 1), space.n_local), (nc, d))],
        axis=1)
    faces = mesh.cell_facets
    sign = np.where(mesh.facet_minus[faces] == np.arange(nc)[:, None],
                    1.0, -1.0)
    g = np.vstack([-np.ones(d), np.eye(d)])  # barycentric gradients
    ratio = mesh.facet_measures[faces] * (
        math.factorial(d - 1) / np.linalg.norm(g, axis=1))
    adj = mesh.dets[:, None, None] * mesh.inv_jacobians
    ref = (order, np.repeat(sign * ratio, d, axis=1), adj)
    for got, want in zip(space.piola_map, ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("make,n,distinct", [(unit_square_mesh, 16, 8),
                                              (unit_cube_mesh, 4, 72),
                                              (unit_cube_mesh, 8, 72)])
def test_distinct_cells_share_their_piola_data(make, n, distinct):
    """Every cell's Jacobian, dof order and facet scales are bit for bit
    those of its representative, and no two representatives share them;
    the structured meshes have few distinct cells."""
    mesh = make(n)
    space = RT1Space(mesh)
    reps, inverse = space.distinct_cells
    assert len(reps) == distinct and inverse.shape == (mesh.n_cells,)
    order, scale, adj = space.piola_map
    rows = np.concatenate([mesh.jacobians.reshape(mesh.n_cells, -1),
                           order, scale, adj.reshape(mesh.n_cells, -1)],
                          axis=1)
    assert np.array_equal(rows, rows[reps][inverse])
    assert len(np.unique(rows[reps], axis=0)) == distinct


@pytest.mark.parametrize("make,n", [(unit_square_mesh, 3), (unit_cube_mesh, 2)])
def test_to_reference_is_the_transpose_of_to_local(make, n):
    """sum_K X_K . (T_K c) = sum_K (X_K T_K) . c_K for any reference-order
    rows X and global coefficients c."""
    space = RT1Space(make(n))
    rng = np.random.default_rng(3)
    X = rng.standard_normal((space.mesh.n_cells, space.n_local))
    c = rng.standard_normal(space.n_dofs)
    lhs = X * space.to_reference(c)
    rhs = space.to_local(slice(None), X) * c[space.cell_dofs]
    assert lhs.shape == rhs.shape
    assert abs(lhs.sum() - rhs.sum()) <= 1e-13 * np.abs(rhs).sum()
