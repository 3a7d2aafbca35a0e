"""Assembly of cell and facet forms in tensor representation.

On affine simplices each form splits into a part that depends only on the
reference cell and a part that depends only on the cell's geometry and the
coefficients (Kirby & Logg, "A compiler for variational forms", ACM TOMS
32, 2006).  Per tabulation and form a reference tensor R is built once from
the reference basis.  Per call |det J| and J^-1 are applied per cell in a
coefficient matrix K with one row per cell, and one GEMM ``K @ R`` gives
every local block.  Where only the geometry varies over the cells, the
quadrature is in R, e.g. ``R[(d, e), ij] = sum_q w_q dphi_qid dphi_qje``
for the stiffness, with K = |det J| J^-1 J^-T; only a coefficient given at
points keeps one row entry per point, e.g. ``R[(q, d), ij] = phi_qi
dphi_qjd`` for the convection by point values.  The H(div) basis exists
only on the reference cell: each cell's basis is the contravariant Piola
image of it, reordered and scaled per cell (Rognes, Kirby & Logg,
"Efficient assembly of H(div) and H(curl) conforming finite elements",
SISC 31, 2009).  So its evaluators and loads are one GEMM against the
reference basis at the reference points, and its mass and divergence forms
are reference tensors mapped by each cell's Piola matrix, computed once
per distinct cell (``rt_blocks``); no physical basis is tabulated.

A form weighted by a finite element field needs no point values either.
The rho-weighted MINI mass and convection are trilinear in the cell
coefficients of rho, of the convecting velocity and of J^-1, so one
reference tensor per form, contracted once from the tab's mass or
convection reference, gives every block from those coefficients
(``WeightedForms``).  A weight adds rows of point values on some cells
(``FieldWeight``): chi - rho where a cut-off may clamp, or every cell's
values for a weight given at points.  The load of a MINI field on the
H(div) space is the same sum reassociated (``MiniRTLoad``).

The forms with coefficients at points or from fields, and the pattern
slots, run over ``CHUNK`` cells at a time, the forms through one kernel,
``_cell_blocks``, which asks for each chunk's coefficients in turn.  So no
coefficient array of a form spans the mesh, and the quadrature stores no
per-point array (``CellQuadrature``); the per-step forms on the high rule
hold point values only where a ``FieldWeight`` has them.  The rows are the
one-batch rows up to the BLAS's summation order: OpenBLAS runs products of
at most 10^6 multiply-adds through a small-matrix kernel, so a chunk of a
few cells can differ from one batch in the last bits.

Local blocks are scattered through a ``Pattern``: the CSR structure of the
global matrix, built once per pair of row and column dof maps, with the
slot of every local entry in the data array.  A new matrix costs one
``np.bincount`` over the slots.  Forms built on one pattern share its
structure, so a linear combination of them is one of their data arrays.

The density transport needs no pattern.  The P2-dG dofs are numbered cell
by cell, so its operator is block-sparse (BSR) over cell blocks: the upwind
form stores an off-diagonal block only for a facet's inflow side
(``upwind_matrix``), and the cell forms add to the diagonal blocks.  The
convection by an H(div) field is read off the field's reference
coefficients, one GEMM against one reference tensor (``RTConvection``).
The facet forms follow the same idea: a cell's dG basis on a facet is one
of (d+1) d! reference trace tables (``DGFacetTrace``), so the upwind blocks
of all facet sides with one pair of tables are one GEMM of their inflow
weights against a product tensor of the two tables, and the traces of a
field are one GEMM per table.

The symmetric forms (``mass_matrix``, ``stiffness_matrix``,
``rt_mass_matrix``, the reference mass) are bitwise symmetric by
construction, so the saddle systems built from them are exactly symmetric.
One rule makes their local blocks exactly symmetric: each
block is averaged with its transpose (``_symmetric``), which is exact
because floating-point addition commutes.  ``np.bincount`` then adds the
contributions to entry (i, j) and to (j, i) in the same order, cell by
cell.  Assembly is deterministic: identical inputs produce bit-identical
matrices.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .quadrature import reference_simplex_measure, simplex_rule
from .spaces import barycentric

# Cells or facets per chunk in the loops that bound temporaries.
CHUNK = 512


def _chunks(n):
    """Consecutive slices of at most ``CHUNK`` items covering range(n)."""
    return [slice(a, min(a + CHUNK, n)) for a in range(0, n, CHUNK)]


def _cell_blocks(n, coef, R):
    """``coef(s) @ R`` over the chunks s of range(n) cells, one row per
    cell: ``coef(s)`` is the chunk's coefficient array, a whole number of
    rows of length ``len(R)`` per cell."""
    return np.concatenate([
        (coef(s).reshape(-1, len(R)) @ R).reshape(s.stop - s.start, -1)
        for s in _chunks(n)])


def _same_rule(tab, other):
    """Raise ``ValueError`` unless the two tabs share one quadrature rule."""
    if not np.array_equal(tab.geom.rule.points, other.geom.rule.points):
        raise ValueError("the tabs must share one quadrature rule")


def _symmetric(blocks):
    """Blocks (..., n, n) averaged with their transposes: exactly symmetric,
    because floating-point addition commutes."""
    return 0.5 * (blocks + np.swapaxes(blocks, -1, -2))


class Pattern:
    """CSR structure of an assembled form and the slot of each local entry.

    ``slot`` holds, for every local entry (cell, i, j) in C order, its
    position in the data array; ``matrix(local)`` sums the local blocks into
    that array with one ``np.bincount``.  Matrices made from one pattern
    share its ``indptr`` and ``indices`` arrays.
    """

    def __init__(self, shape, indptr, indices, slot):
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.slot = slot
        self.nnz = len(indices)

    @classmethod
    def build(cls, shape, rows, cols):
        """The pattern of local blocks with row dofs ``rows`` and column
        dofs ``cols``, each (n_items, n_local).

        The structure is that of I_row^T I_col, with I the item-by-dof
        incidence of a dof map, so no array of every local entry is formed;
        the slots are then looked up chunk by chunk.
        """
        nrow, ncol = shape

        def incidence(dofs, n):
            ptr = np.arange(len(dofs) + 1) * dofs.shape[1]
            return sp.csr_matrix((np.ones(dofs.size, dtype=np.int32),
                                  dofs.ravel(), ptr), shape=(len(dofs), n))

        S = (incidence(rows, nrow).T @ incidence(cols, ncol)).tocsr()
        S.sort_indices()
        itype = np.int32 if max(shape + (S.nnz,)) < 2**31 else np.int64
        indptr = S.indptr.astype(itype)
        indices = S.indices.astype(itype)
        keys = np.repeat(np.arange(nrow, dtype=np.int64),
                         np.diff(indptr)) * ncol + indices
        del S
        for a in (indptr, indices):  # shared by every matrix made from it
            a.setflags(write=False)
        slot = np.empty((len(rows), rows.shape[1], cols.shape[1]),
                        dtype=np.intp)
        for s in _chunks(len(rows)):
            r = rows[s, :, None].astype(np.int64)
            c = cols[s, None, :].astype(np.int64)
            slot[s] = np.searchsorted(keys, r * ncol + c)
        return cls(shape, indptr, indices, slot.ravel())

    def matrix(self, local):
        """The matrix with local blocks ``local``, scattered in cell order."""
        data = np.bincount(self.slot, weights=local.ravel(),
                           minlength=self.nnz)
        return self.with_data(data)

    def with_data(self, data):
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def block_matrix(self, local):
        """The block-sparse (BSR) matrix with local blocks ``local``,
        (n_items, n_local, n_local, r, c): block (i, j) of item K is
        summed into the block at its slot, in item order, one
        ``np.bincount`` per block entry.  Each entry of the matrix is the
        sum ``matrix`` would make of the same entries over the row dofs
        r i + a and the column dofs c j + b."""
        r, c = local.shape[-2:]
        data = np.empty((self.nnz, r, c))
        for a, b in itertools.product(range(r), range(c)):
            data[:, a, b] = np.bincount(self.slot,
                                        weights=local[..., a, b].ravel(),
                                        minlength=self.nnz)
        nrow, ncol = self.shape
        return sp.bsr_matrix((data, self.indices, self.indptr),
                             shape=(nrow * r, ncol * c))

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


class CellQuadrature:
    """A reference rule mapped to every cell.

    It stores per-cell data only, |det J| and the mesh's affine maps; the
    forms and loads apply |det J| per cell to the rule's weights.  The
    weights times |det J|, ``wdet`` (nc, nq), are formed on every access,
    or for the cells ``weights_at`` selects, for the point-valued rows of
    ``mass_matrix`` and ``convection_matrix``; the physical points by
    ``map_points``, and ``points`` caches them on first use.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.rule = simplex_rule(mesh.dim, degree)
        self.abs_dets = np.abs(mesh.dets)
        self.npoints = self.rule.npoints

    def map_points(self, cells):
        """Physical points (n, nq, d) of the cells ``cells`` selects, a new
        array on every call."""
        mesh = self.mesh
        v0 = mesh.vertices[mesh.cells[cells, 0]]
        return v0[:, None, :] + self.rule.points @ np.swapaxes(
            mesh.jacobians[cells], 1, 2)

    @functools.cached_property
    def points(self):
        return self.map_points(slice(None))

    def weights_at(self, cells):
        """Weights times |det J| (n, nq) of the cells ``cells`` selects."""
        return self.abs_dets[cells, None] * self.rule.weights[None, :]

    @property
    def wdet(self):
        return self.weights_at(slice(None))


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
        n = self.space.n_dofs
        return Pattern.build((n, n), self.cell_dofs, self.cell_dofs)

    @functools.cached_property
    def _mass_ref(self):
        """(nq, nloc * nloc): phi_qi phi_qj."""
        v = self.vals
        return (v[:, :, None] * v[:, None, :]).reshape(len(v), -1)

    @functools.cached_property
    def ref_mass(self):
        """The reference mass (nloc, nloc), exactly symmetric: on affine
        cells the mass block of cell K is |det J_K| times it."""
        nloc = self.vals.shape[1]
        w = self.geom.rule.weights[None]
        return _symmetric((w @ self._mass_ref).reshape(nloc, nloc))

    @functools.cached_property
    def _stiffness_ref(self):
        """(d * d, nloc * nloc): sum_q w_q dphi_qid dphi_qje, the reference
        stiffness per pair (d, e) of reference derivatives."""
        g = self.ref_grads
        wg = g * self.geom.rule.weights[:, None, None]
        return np.einsum("qid,qje->deij", wg, g).reshape(-1, g.shape[1] ** 2)

    @functools.cached_property
    def _convection_ref(self):
        """(nq * d, nloc * nloc): phi_qi dphi_qjd."""
        v, g = self.vals, self.ref_grads
        R = v[:, None, :, None] * np.swapaxes(g, 1, 2)[:, :, None, :]
        return R.reshape(-1, v.shape[1] ** 2)


class RTTab:
    """The H(div) space at cell quadrature points, without basis values.

    Each local basis is the contravariant Piola image of one reference
    basis (``RT1Space.piola_map``; Rognes, Kirby & Logg, SISC 31, 2009): a
    field with local coefficients c is J_K sum_i chat_i phihat_i / det J_K
    on cell K, with chat c reordered and then scaled on the facet dofs and
    multiplied by adj(J_K) on the interior ones.  Its values are one GEMM
    of every cell's chat against the reference basis at the rule's
    reference points, ``ref_vals`` (n_local, nq d), and then J_K / det J_K
    per cell.  Loads are the transpose: on affine cells the rule's weights
    are det J_K times the reference weights, which cancel the 1/det J_K,
    so ``ref_loads`` (nq d, n_local) carries the reference weights.

    The tab holds those two tables only: the map from local to reference
    coefficients is the space's (``RT1Space.to_reference``), and
    ``eval_rt`` forms J_K^T / det J_K on each call.
    """

    def __init__(self, space, geom):
        self.space = space
        self.geom = geom
        self.cell_dofs = space.cell_dofs
        nl = space.n_local
        vals = np.swapaxes(space.reference_basis(geom.rule.points)[0], 0, 1)
        self.ref_vals = vals.reshape(nl, -1)
        self.ref_loads = (vals * geom.rule.weights[:, None]).reshape(nl, -1).T


class RTConvection:
    """Cell blocks of (w . grad u, v) on a scalar tab, w an H(div) field.

    With w the contravariant Piola image J what / det J and grad u =
    J^-T grad uhat, w . grad u = what . grad uhat / det J, and dx =
    |det J| dxi.  So a cell's block is sign(det J) sum_a chat_a T_a, with
    chat the cell's reference coefficients of w (``RT1Space.to_reference``)
    and one reference tensor T_a[i, j] = sum_q w_q phihat_a . grad phihat_j
    phihat_i at the reference points (Rognes, Kirby & Logg, SISC 31, 2009).
    The mesh orients every cell positively, which the set-up checks, so the
    blocks are one GEMM chat @ T with no geometry in it.  T contracts the
    tab's convection reference with the reference H(div) basis at the same
    rule: the sum is the one ``convection_matrix`` makes of ``eval_rt``
    values, reassociated.
    """

    def __init__(self, tab, rt_tab):
        _same_rule(tab, rt_tab)
        if np.any(tab.space.mesh.dets <= 0.0):
            raise ValueError("every cell must be positively oriented")
        self.rt_tab = rt_tab
        self.nloc = tab.vals.shape[1]
        weights = np.repeat(tab.geom.rule.weights, tab.space.dim)
        self.ref = (rt_tab.ref_vals * weights) @ tab._convection_ref

    def blocks(self, field):
        """Cell blocks (nc, nloc, nloc) of the convection by ``field``."""
        local = self.rt_tab.space.to_reference(field.coeffs) @ self.ref
        return local.reshape(-1, self.nloc, self.nloc)


class MiniRTLoad:
    """Cell vectors (nc, n_local) of (u, eta) on an H(div) space, u a
    component-major vector field of ``tab``'s space on the same rule.

    ``rt_load_blocks`` contracts the rows u_q^T J of u's point values with
    ``RTTab.ref_loads``.  With u = sum_l U_l phi_l that is (U_K J) @ T, the
    cell's coefficient rows U_l^T J against the one reference tensor T[(l,
    e), i] = sum_q phi_ql ref_loads[(q, e), i]: the same sum reassociated,
    with no point values.
    """

    def __init__(self, tab, rt_tab):
        _same_rule(tab, rt_tab)
        self.tab = tab
        self.rt_tab = rt_tab
        nq, nl = len(tab.vals), rt_tab.space.n_local
        self.ref = (tab.vals.T @ rt_tab.ref_loads.reshape(nq, -1)
                    ).reshape(-1, nl)

    def blocks(self, field):
        """The load blocks of ``field``, one chunk of cells at a time."""
        J = self.rt_tab.space.mesh.jacobians

        def coefficients(s):  # rows U_l^T J (n, nl, d)
            return np.moveaxis(_components(self.tab, field, s), 0, -1) @ J[s]

        local = _cell_blocks(len(J), coefficients, self.ref)
        return self.rt_tab.space.to_local(slice(None), local)


class WeightedForms:
    """The mass and the convection on ``tab`` weighted by a field of
    ``weight_tab``'s space, as reference tensors built once.

    With the weight rho = sum_k rho_k psi_k and the velocity u = sum_l U_l
    phi_l in cell coefficients, (rho u . grad phi_j, phi_i) and (rho phi_j,
    phi_i) are trilinear in the coefficients of rho, u and J^-1.  So on one
    rule the blocks of cell K are |det J| rho_K @ Tm and (|det J| rho_K (x)
    U_K J^-T) @ Tc with the reference tensors

        Tm[k, (i, j)] = sum_q w_q psi_qk phi_qi phi_qj,
        Tc[(k, l, e), (i, j)] = sum_q w_q psi_qk phi_ql phi_qi dphi_qje,

    the weighted basis products of ``weight_tab`` contracted with the
    tab's mass and convection references: the sums that ``mass_matrix``
    and ``convection_matrix`` make of point values, reassociated (Kirby &
    Logg, ACM TOMS 32, 2006).  A ``FieldWeight`` binds them to one field.
    """

    def __init__(self, tab, weight_tab):
        _same_rule(tab, weight_tab)
        rule = tab.geom.rule
        self.tab = tab
        self.weight_tab = weight_tab
        psi = weight_tab.vals.T * rule.weights  # (nk, nq)
        nq = len(rule.weights)
        self.mass_ref = psi @ tab._mass_ref
        psi_phi = (psi[:, None, :] * tab.vals.T[None]).reshape(-1, nq)
        self.convection_ref = (
            psi_phi @ tab._convection_ref.reshape(nq, -1)
        ).reshape(-1, tab._convection_ref.shape[1])


@dataclass(frozen=True)
class FieldWeight:
    """A weight for ``mass_matrix`` and ``convection_matrix``: the field
    ``field`` of ``forms.weight_tab``'s space (``WeightedForms``) on every
    cell, plus the point values ``values`` (len(cells), nq) on the rule on
    the cells ``cells``, an index array.  With ``field`` None the weight
    is the point values alone and ``forms`` is not read; ``values`` None
    stands for 1."""

    forms: WeightedForms
    field: object
    cells: np.ndarray
    values: np.ndarray

    def blocks(self, tab, form, coef, point_coef):
        """The rows of ``form`` ("mass" or "convection") on ``tab``, one per
        cell: ``coef(s) @ forms.<form>_ref`` on the chunks s of every cell
        if the weight has a field, plus ``point_coef(c, w) @
        tab._<form>_ref`` on the chunks c of ``cells``, w the chunk's
        ``point_weights`` (``_cell_blocks``)."""
        n, P = len(tab.cell_dofs), getattr(tab, f"_{form}_ref")
        local = (np.zeros((n, P.shape[1])) if self.field is None else
                 _cell_blocks(n, coef, getattr(self.forms, f"{form}_ref")))
        if len(self.cells):
            local[self.cells] += _cell_blocks(len(self.cells), lambda s: (
                point_coef(self.cells[s], self.point_weights(tab, s))), P)
        return local

    def point_weights(self, tab, s):
        """The rule's weights times |det J| times ``values`` (if given) on
        the chunk s of ``cells``."""
        w = tab.geom.weights_at(self.cells[s])
        return w if self.values is None else w * self.values[s]

    def coefficients(self, s):
        """|det J| times the field's coefficients (n, nk) on the cells s."""
        tab = self.forms.weight_tab
        return (tab.geom.abs_dets[s, None]
                * self.field.coeffs[tab.cell_dofs[s]])


class FacetQuadrature:
    """Shared physical quadrature on every facet.

    Points are parametrized from the facet's sorted global vertices, so the
    two adjacent cells see the same physical points; ``points`` is its one
    per-facet array, and ``DGFacetTrace`` forms the facet weights.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.rule = simplex_rule(mesh.dim - 1, degree)
        self.npoints = self.rule.npoints

    @functools.cached_property
    def points(self):
        """Physical points (nf, nq, d), formed on first use."""
        fverts = self.mesh.vertices[self.mesh.facet_vertices]  # (nf, d, d)
        edges = fverts[:, 1:, :] - fverts[:, :1, :]
        return fverts[:, None, 0, :] + np.einsum(
            "qk,fkd->fqd", self.rule.points, edges
        )


class DGFacetTrace:
    """Two-sided traces of a dG space on the interior facets, as reference
    trace tables.

    The facet rule is parametrized from the facet's sorted global vertices
    (``FacetQuadrature``), so a cell's basis at a facet's points depends
    only on which local facet it is and on the order of the facet's sorted
    vertices among the cell's local vertices: one of (d+1) d! reference
    tables, 24 in 3D and 6 in 2D (the tensor representation of Kirby &
    Logg, ACM TOMS 32, 2006, applied to facets).  ``tables`` (n_tables, nq,
    n_local) holds them, tabulated at the reference images of the rule's
    points, and ``table`` (nfi, 2) is the table of the minus and of the
    plus side of every interior facet, read off the cell connectivity.
    ``minus`` and ``plus`` are the two cells of every interior facet; their
    dofs are the space's ``cell_dofs`` of those cells; ``wscale`` (nfi,
    nq) holds their quadrature weights.
    """

    def __init__(self, space, fquad):
        mesh = space.mesh
        d = mesh.dim
        self.space = space
        self.fquad = fquad
        fi = mesh.interior_facets
        self.facets = fi
        self.minus = mesh.facet_minus[fi]
        self.plus = mesh.facet_plus[fi]
        self.wscale = (mesh.facet_measures[fi, None]
                       / reference_simplex_measure(d - 1)) * fquad.rule.weights
        # table (i, perm) holds the basis on local facet i whose sorted
        # vertex s is the facet's local vertex perm[s]; local vertex j sits
        # at reference vertex j
        perms = np.array(list(itertools.permutations(range(d))))
        facet_local = mesh.local_facet_vertices
        ref_vertices = np.vstack([np.zeros(d), np.eye(d)])
        lam = barycentric(fquad.rule.points, d - 1)  # (nq, d)
        self.tables = np.stack([
            space.ref_values(lam @ ref_vertices[facet_local[i][perm]])
            for i in range(d + 1) for perm in perms
        ])
        # perm is the inverse of the ranks of the facet's local vertices in
        # sorted order; a perm's index in ``perms`` from the base-d code of
        # its ranks
        powers = d ** np.arange(d)
        perm_index = np.zeros(d ** d, dtype=np.intp)
        perm_index[np.argsort(perms, axis=1) @ powers] = np.arange(len(perms))
        ids = []
        for k, cells in enumerate((self.minus, self.plus)):
            i = mesh.facet_local_index[fi, k]
            rank = mesh.cell_facet_ranks[cells, i]
            ids.append(i * len(perms) + perm_index[rank @ powers])
        self.table = np.stack(ids, axis=1)

    @functools.cached_property
    def _inflow_groups(self):
        """The facet sides grouped by (own table, other table).

        Facet side p = k nfi + f is side k of facet f.  Returns the sides
        sorted by group, the group boundaries in that order, the own and the
        other cell of every side, per group the (nq, 2 n_local^2) product
        tensor [T_a[q, i] T_a[q, j] | T_a[q, i] T_b[q, j]], with T_a the
        own side's table and T_b the other side's, whose product with the
        inflow weights is the side's own and other block, and for the
        traces the table a per group and the sorted sides' own dofs.
        """
        ntab = len(self.tables)
        groups = _groups(self.table.T.ravel() * ntab
                         + self.table[:, ::-1].T.ravel())
        keys = np.array([key for key, _ in groups])
        Ta, Tb = self.tables[keys // ntab], self.tables[keys % ntab]
        P = np.stack([Ta[..., :, None] * Ta[..., None, :],
                      Ta[..., :, None] * Tb[..., None, :]], axis=2)
        order = np.concatenate([sides for _, sides in groups])
        own = np.concatenate([self.minus, self.plus])
        return (order, np.cumsum([0] + [len(sides) for _, sides in groups]),
                own, np.concatenate([self.plus, self.minus]),
                P.reshape(len(keys), P.shape[1], -1),
                keys // ntab, self.space.cell_dofs[own[order]])


def _groups(ids):
    """(id, items with that id) for every id in ``ids``, in id order."""
    order = np.argsort(ids, kind="stable")
    values, starts = np.unique(ids[order], return_index=True)
    return list(zip(values, np.split(order, starts[1:])))


class RTFacetFlux:
    """Normal flux of H(div) fields at facet quadrature points.

    The normal trace of RT1 on a facet is P1, and the facet's d dofs are
    its mean-scaled moments against the facet's P1 nodal functions:
    dof = G phi, with phi the nodal values of w.nu and G = (I + 11^T) /
    (d (d+1)) the mean-scaled mass matrix of the facet's barycentric
    coordinates.  The flux at the points is then the facet dofs times one
    (d, nq) table, ``G^-1`` times the barycentric coordinates of the
    points.  It depends on the facet's dofs alone, so it is single-valued
    and equals the normal trace from either adjacent cell.
    """

    def __init__(self, space, fquad, facets):
        d = space.dim
        self.dofs = space.facet_dofs(facets)
        lam = barycentric(fquad.rule.points, d - 1)       # (nq, d)
        self.table = (d * (d + 1) * np.eye(d) - d) @ lam.T  # G^-1 lam^T


def _weight(tab, coef):
    """``coef`` as a ``FieldWeight``: point values (nc, nq) on the tab's
    rule, or None for 1, are a weight with no field and those values on
    every cell."""
    if isinstance(coef, FieldWeight):
        return coef
    return FieldWeight(None, None, np.arange(len(tab.cell_dofs)), coef)


def mass_matrix(tab, coef):
    """(coef u, v) on ``tab``'s space; bitwise symmetric (module docstring).

    ``coef`` is a ``FieldWeight`` on the tab, or point values (nc, nq) at
    the tab's quadrature points (``_weight``).
    """
    weight = _weight(tab, coef)
    local = weight.blocks(tab, "mass", weight.coefficients, lambda c, w: w)
    nloc = tab.vals.shape[1]
    return tab.pattern.matrix(_symmetric(local.reshape(-1, nloc, nloc)))


def stiffness_matrix(tab):
    """(grad u, grad v); bitwise symmetric (module docstring).  Cell K's
    block is (|det J| J^-1 J^-T)_K contracted with the reference stiffness."""
    inv = tab.space.mesh.inv_jacobians
    G = (inv @ np.swapaxes(inv, 1, 2)) * tab.geom.abs_dets[:, None, None]
    local = G.reshape(len(G), -1) @ tab._stiffness_ref
    nloc = tab.vals.shape[1]
    return tab.pattern.matrix(_symmetric(local.reshape(-1, nloc, nloc)))


def convection_matrix(tab, wvec, coef):
    """(coef (wvec . grad u), v), ``coef`` as in ``mass_matrix`` and wvec
    given at the quadrature points (nc, nq, d) or a vector field of the
    tab's space (``eval_mini_vector``).  The rows from a weight's field
    take wvec's cell coefficients, so there wvec must be a field."""
    weight = _weight(tab, coef)
    inv_t = np.swapaxes(tab.space.mesh.inv_jacobians, 1, 2)

    def velocity(c):  # point values (n, nq, d) on the cells c
        if isinstance(wvec, np.ndarray):
            return wvec[c]
        return eval_mini_vector(tab, wvec, c)

    def coefficients(s):
        # rows U_l^T J^-T of the cells' velocity coefficients (n, nl, d)
        V = np.matmul(np.moveaxis(_components(tab, wvec, s), 0, -1),
                      inv_t[s])
        return weight.coefficients(s)[:, :, None, None] * V[:, None]

    local = weight.blocks(
        tab, "convection", coefficients,
        lambda c, w: np.matmul(velocity(c), inv_t[c]) * w[..., None])
    nloc = tab.vals.shape[1]
    return tab.pattern.matrix(local.reshape(-1, nloc, nloc))


def rt_blocks(rt_tab, dg_tab=None):
    """Blocks of (sigma, eta) on the H(div) space, (k, n_local, n_local)
    and exactly symmetric, and with ``dg_tab`` those of (div eta_j, psi_m),
    (k, dG n_local, n_local), else None, on the k distinct cells
    (``RT1Space.distinct_cells``): cell K's blocks are those at
    ``inverse[K]``.

    Both are reference tensors mapped by each cell's Piola matrix T
    (``RT1Space.piola_map``).  The mass of the reference basis, R[(a, b),
    (i, j)] = sum_q w_q phihat_qia phihat_qjb, contracted with G_K =
    J^T J / det J, is the mass of the mapped reference basis, and the
    block is T^T (G_K R) T averaged with its transpose.  div(J phihat /
    det J) = div phihat / det J, so the divergence block is the
    geometry-free Bhat T.  The mesh orients every cell positively.
    """
    space, rule = rt_tab.space, rt_tab.geom.rule
    mesh, nl = space.mesh, space.n_local
    reps, _ = space.distinct_cells
    vals, divs = space.reference_basis(rule.points)
    wvals = vals * rule.weights[:, None, None]
    R = np.einsum("qia,qjb->abij", wvals, vals).reshape(-1, nl * nl)
    J = mesh.jacobians[reps]
    G = np.swapaxes(J, 1, 2) @ J / mesh.dets[reps, None, None]
    L = (G.reshape(len(G), -1) @ R).reshape(-1, nl, nl)
    L = space.to_local(reps, np.swapaxes(space.to_local(reps, L), 1, 2))
    M = _symmetric(L)
    if dg_tab is None:
        return M, None
    B = (dg_tab.vals.T * rule.weights) @ divs
    return M, space.to_local(reps, np.broadcast_to(B, (len(G),) + B.shape))


def rt_mass_matrix(rt_tab):
    """(sigma, eta) on the H(div) space; bitwise symmetric (module docstring)."""
    n = rt_tab.space.n_dofs
    pattern = Pattern.build((n, n), rt_tab.cell_dofs, rt_tab.cell_dofs)
    _, inverse = rt_tab.space.distinct_cells
    return pattern.matrix(rt_blocks(rt_tab)[0][inverse])


def mixed_div_matrix(rt_tab, dg_tab):
    """(div eta_j, psi_m): rows on the dG space, columns on the H(div) space."""
    shape = (dg_tab.space.n_dofs, rt_tab.space.n_dofs)
    pattern = Pattern.build(shape, dg_tab.cell_dofs, rt_tab.cell_dofs)
    _, inverse = rt_tab.space.distinct_cells
    return pattern.matrix(rt_blocks(rt_tab, dg_tab)[1][inverse])


def div_coupling(mini_tab, p1_tab):
    """B[(k,a), m] = (q_m, d_k psi_a), component-major velocity rows.

    The d component blocks (k, :) share one pattern, that of the MINI
    scalar dofs against the P1 dofs, so it is built once and the blocks
    are stacked; each entry sums its cells in cell order, as one pattern
    over the component-major rows would."""
    _same_rule(mini_tab, p1_tab)
    d = mini_tab.space.dim
    nc = len(mini_tab.cell_dofs)
    # K[(c, k), e] = |det J_c| invJ_cek; R[e, (a, m)] = sum_q w_q dpsi_qae q_qm
    K = (np.swapaxes(mini_tab.space.mesh.inv_jacobians, 1, 2)
         * mini_tab.geom.abs_dets[:, None, None])
    wg = mini_tab.ref_grads * mini_tab.geom.rule.weights[:, None, None]
    R = np.einsum("qae,qm->eam", wg, p1_tab.vals).reshape(d, -1)
    local = (K.reshape(nc * d, d) @ R).reshape(
        nc, d, mini_tab.cell_dofs.shape[1], -1)
    shape = (mini_tab.space.n_dofs, p1_tab.space.n_dofs)
    pattern = Pattern.build(shape, mini_tab.cell_dofs, p1_tab.cell_dofs)
    return sp.vstack([pattern.matrix(local[:, k]) for k in range(d)],
                     format="csr")


def load_blocks(tab, values, cells):
    """Cell vectors (..., n, nloc) of (f, v) on the cells ``cells``
    selects, f at their points (..., n, nq) or constant."""
    geom = tab.geom
    return ((values * geom.rule.weights) @ tab.vals) * geom.abs_dets[cells, None]


def _scatter(tab, blocks):
    """Cell vectors (nc, n_local) summed into the tab's dofs."""
    return np.bincount(tab.cell_dofs.ravel(), weights=blocks.ravel(),
                       minlength=tab.space.n_dofs)


def load_vector(tab, values):
    """(f, v) with f given at quadrature points (``load_blocks``)."""
    return _scatter(tab, load_blocks(tab, values, slice(None)))


def load_matrices(tabs, chunks):
    """The loads (c_m, v) of a set of columns c_m on each tab of ``tabs``,
    {name: tab} on one cell quadrature; returns {name: (n_dofs, ...)}, the
    column axes last.

    ``chunks`` yields (s, columns) for consecutive slices s that cover the
    cells: ``columns[name]`` holds that tab's columns at the points of the
    cells s, (..., n, nq).  So no array of the columns spans the mesh; the
    cell vectors, one row per column, are ``load_blocks``'s.
    """
    blocks = {}
    for s, columns in chunks:
        for name, tab in tabs.items():
            b = load_blocks(tab, columns[name], s)
            if name not in blocks:
                blocks[name] = np.empty(
                    b.shape[:-2] + (len(tab.cell_dofs), b.shape[-1]))
            blocks[name][..., s, :] = b
    out = {}
    for name, tab in tabs.items():
        b = blocks[name]
        rows = b.reshape((-1,) + b.shape[-2:])
        out[name] = np.stack([_scatter(tab, r) for r in rows],
                             axis=-1).reshape((-1,) + b.shape[:-2])
    return out


def rt_load_blocks(rt_tab, values):
    """Cell vectors (nc, n_local) of (f, eta), f at quadrature points: the
    transpose of ``eval_rt``, weighted by the rule (``RTTab``)."""
    space = rt_tab.space
    F = (values @ space.mesh.jacobians).reshape(len(values), -1)
    return space.to_local(slice(None), F @ rt_tab.ref_loads)


def rt_load(rt_tab, values):
    """(f, eta) with vector f at quadrature points, shape (nc, nq, d)."""
    return _scatter(rt_tab, rt_load_blocks(rt_tab, values))


def upwind_matrix(trace, flux):
    """Sum over cells of <w.[[rho]], phi> on the inflow boundary, as a
    block-sparse (BSR) matrix over cell blocks.

    ``flux`` holds w.nu (minus to plus) at the interior facet quadrature
    points; the inflow side is resolved per quadrature point by the sign of
    the flux, points with zero flux contribute nothing.  The dG dofs are
    numbered cell by cell, so block row and column c are cell c.  Only the
    rows of a facet's inflow side are nonzero.  The facet sides with inflow
    are taken group by group of (own table, other table)
    (``DGFacetTrace``): one GEMM of their weights |w.nu| at the inflow
    points against the group's product tensor gives every side's own block
    and its off-diagonal block with the other side.  Minus the own blocks
    are added to the cells' diagonal blocks by one incidence product.
    Every block row holds its diagonal block first, at ``indptr[c]``, then
    its off-diagonal blocks by column.
    """
    nloc = trace.tables.shape[2]
    nb = nloc * nloc
    nc = trace.space.mesh.n_cells
    sides, ptr, own_cells, other_cells, P, *_ = trace._inflow_groups
    sw = flux * trace.wscale
    # |w.nu| at the inflow points of every facet side, minus sides first
    inflow = np.concatenate([flux < 0.0, flux > 0.0])
    W = np.where(inflow, np.concatenate([-sw, sw]), 0.0)
    has = W.any(axis=1)[sides]
    pairs = sides[has]  # the sides with inflow, group by group
    bounds = np.concatenate([[0], np.cumsum(has)])[ptr]
    own, other = own_cells[pairs], other_cells[pairs]
    npair = len(pairs)
    # off-diagonal blocks row by row and by column, each row's diagonal first
    order = np.argsort(own * nc + other)
    pair_ptr = np.searchsorted(own[order], np.arange(nc + 1))
    indptr = pair_ptr + np.arange(nc + 1)
    slot = np.empty(npair, dtype=np.intp)
    slot[order] = np.arange(npair) + own[order] + 1
    indices = np.empty(nc + npair, dtype=np.intp)
    indices[indptr[:-1]] = np.arange(nc)
    indices[slot] = other
    data = np.empty((nc + npair, nloc, nloc))
    own_blocks = np.empty((npair, nb))
    W = W[pairs]
    for g in np.flatnonzero(np.diff(bounds)):
        s = slice(bounds[g], bounds[g + 1])
        both = W[s] @ P[g]
        own_blocks[s] = both[:, :nb]
        data[slot[s]] = both[:, nb:].reshape(-1, nloc, nloc)
    incidence = sp.csr_matrix((np.full(npair, -1.0), order, pair_ptr),
                              shape=(nc, npair))
    data[indptr[:-1]] = (incidence @ own_blocks).reshape(nc, nloc, nloc)
    return sp.bsr_matrix((data, indices, indptr), shape=(nc * nloc,) * 2)


def upwind_jump_quadratic(trace, flux, minus_vals, plus_vals):
    """(1/2) sum over facets of || |w.nu|^(1/2) [[rho]] ||^2."""
    jump = minus_vals - plus_vals
    return 0.5 * float(
        np.einsum("fq,fq->", np.abs(flux) * trace.wscale, jump * jump)
    )


def integrate(geom, values):
    """Quadrature sum of point values (nc, nq) over the whole mesh."""
    return float(geom.abs_dets @ (values @ geom.rule.weights))


def eval_scalar(tab, field, cells=slice(None)):
    """Point values (n, nq) of a scalar field on ``tab``'s quadrature, on
    the cells ``cells`` selects (all by default)."""
    return field.coeffs[tab.cell_dofs[cells]] @ tab.vals.T


def _components(tab, field, cells):
    """Cell coefficients (d, n, nloc) of a component-major vector field on
    the cells ``cells`` selects."""
    return field.coeffs.reshape(field.space.dim, -1)[:, tab.cell_dofs[cells]]


def eval_mini_vector(tab, field, cells=slice(None)):
    """Point values (n, nq, d) of a component-major vector field on the
    cells ``cells`` selects (all by default)."""
    return np.moveaxis(_components(tab, field, cells) @ tab.vals.T, 0, -1)


def eval_rt(rt_tab, field):
    """Point values (nc, nq, d) of an H(div) field (``RTTab``)."""
    mesh = rt_tab.space.mesh
    U = rt_tab.space.to_reference(field.coeffs) @ rt_tab.ref_vals
    return U.reshape(len(U), -1, mesh.dim) @ np.ascontiguousarray(
        np.swapaxes(mesh.jacobians, 1, 2) / mesh.dets[:, None, None])


def eval_dg_traces(trace, field):
    """Minus and plus side traces (nfi, nq) of a dG field: the facet sides'
    own coefficients, gathered once in group order, times each group's own
    table (``DGFacetTrace._inflow_groups``), one GEMM per group."""
    sides, ptr, *_, own_table, dofs = trace._inflow_groups
    coeffs = field.coeffs[dofs]
    out = np.empty((len(sides), trace.tables.shape[1]))
    for g, table in enumerate(own_table):
        s = slice(ptr[g], ptr[g + 1])
        out[sides[s]] = coeffs[s] @ trace.tables[table].T
    nfi = len(trace.facets)
    return out[:nfi], out[nfi:]


def eval_rt_flux(flux_tab, field):
    """Normal flux w.nu (minus to plus) at facet quadrature points."""
    return field.coeffs[flux_tab.dofs] @ flux_tab.table
