"""Direct, constrained, and iterative sparse solves."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vardens import assemble, linalg, mms
from vardens.mesh import unit_cube_mesh, unit_square_mesh
from vardens.scheme import SchemeConfig, TimeStepper
from vardens.spaces import FeField, MiniVectorSpace, P1Space


def test_identity_solve():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    x, report = linalg.solve_direct(A, b)
    assert np.allclose(x, b)
    assert report.iterations == 0
    assert report.residual <= 1e-10


def test_two_by_two_hand_solve():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, _ = linalg.solve_direct(A, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_mass_system_recovers_field():
    m = unit_square_mesh(5)
    geom = assemble.CellQuadrature(m, 6)
    tab = assemble.ScalarTab(P1Space(m), geom)
    M = assemble.mass_matrix(tab, None)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(tab.space.n_dofs)
    vals = np.einsum("ci,qi->cq", coeffs[tab.cell_dofs], tab.vals)
    b = assemble.load_vector(tab, vals)
    x, _ = linalg.solve_direct(M, b)
    assert np.abs(x - coeffs).max() < 1e-10


def test_singular_matrix_reports_pivot_row():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(linalg.SingularMatrixError, match="row"):
        linalg.solve_direct(A, np.ones(2))


def test_shape_validation():
    A = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        linalg.solve_direct(A, np.ones(4))
    with pytest.raises(ValueError):
        linalg.solve_constrained(A, np.ones(4), np.ones(3))
    with pytest.raises(ValueError):
        linalg.solve_constrained(A, np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        linalg.solve_direct(sp.csr_matrix(np.ones((2, 3))), np.ones(2))


def test_constraint_conflict_detected():
    # the unconstrained solution has a nonzero constrained component, and
    # the matrix has no null space to absorb it
    A = sp.identity(2, format="csr")
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 0.0])
    with pytest.raises(linalg.ConstraintConflictError):
        linalg.solve_constrained(A, b, c)


def test_velocity_solve_detects_constraint_conflict(monkeypatch):
    """The stepper's velocity solve pins one pressure dof, so its system
    leaves out that dof's divergence row; a pressure load with nonzero mean
    cannot be met by a velocity with zero boundary values, and the check of
    every divergence row, the pinned one too, catches it."""
    case = mms.make_case("square2d")
    st = TimeStepper(unit_square_mesh(4),
                     SchemeConfig(tau=1 / 64, mu=0.001, n_steps=1))
    state = st.initialize(lambda x: case.rho(x, 0.0), lambda x: case.u(x, 0.0))
    solve = st._solve_velocity_system

    def loaded(K, b, x0):
        b = b.copy()
        b[len(b) - len(st.c_p) + 1:] += st.c_p[:-1]  # the pressure rows
        return solve(K, b, x0)

    monkeypatch.setattr(st, "_solve_velocity_system", loaded)
    with pytest.raises(linalg.ResidualError,
                       match=r"^velocity solve at step 1: discrete divergence "
                             r"constraint \S+$"):
        st.step(state)


def _stokes_system(n, mu=1.0):
    mesh = unit_square_mesh(n)
    vel = MiniVectorSpace(mesh)
    p1 = P1Space(mesh)
    geom = assemble.CellQuadrature(mesh, 8)
    mini_tab = assemble.ScalarTab(vel.scalar, geom)
    p1_tab = assemble.ScalarTab(p1, geom)
    K = assemble.stiffness_matrix(mini_tab)
    B = assemble.div_coupling(mini_tab, p1_tab)
    c = assemble.load_vector(p1_tab, np.ones_like(geom.wdet))
    ns = vel.scalar.n_dofs
    mask = np.ones(ns, dtype=bool)
    mask[vel.scalar.boundary_dofs()] = False
    free = np.flatnonzero(mask)
    free_vel = np.concatenate([free, free + ns])
    A = sp.block_diag([mu * K[free, :][:, free]] * 2, format="csr")
    Bf = B[free_vel, :]
    Ksys = sp.bmat([[A, -Bf], [-Bf.T, None]], format="csr")
    return mesh, vel, geom, mini_tab, free, Ksys, c, B


def test_stokes_zero_data_gives_zero():
    mesh, vel, geom, mini_tab, free, Ksys, c, _ = _stokes_system(4)
    nfree = 2 * len(free)
    np_ = c.shape[0]
    rhs = np.zeros(nfree + np_)
    constraint = np.concatenate([np.zeros(nfree), c])
    x, report = linalg.solve_constrained(Ksys, rhs, constraint)
    assert np.abs(x).max() < 1e-12
    assert abs(report.extras["multiplier"]) < 1e-12


def test_stokes_manufactured_velocity_order_two():
    case = mms.make_case("square2d")
    mu = 1.0
    errs = []
    for n in (4, 8, 16):
        mesh, vel, geom, mini_tab, free, Ksys, c, B = _stokes_system(n, mu)
        # g = -mu lap(u) + grad(p) at t = 0 via the dual closures
        X, T = mms.make_vars(geom.points, 0.0)
        ud = case._u_space(X)
        pd = case._p_dual(X, T)
        gp = pd.spatial_grad()
        g = np.stack(
            [-mu * ud[k].laplacian() + gp[..., k] for k in range(2)], axis=-1
        )
        ns = vel.scalar.n_dofs
        nfree = len(free)
        F = np.concatenate([
            assemble.load_vector(mini_tab, g[..., 0])[free],
            assemble.load_vector(mini_tab, g[..., 1])[free],
        ])
        rhs = np.concatenate([F, np.zeros(c.shape[0])])
        constraint = np.concatenate([np.zeros(2 * nfree), c])
        x, _ = linalg.solve_constrained(Ksys, rhs, constraint)
        coeffs = np.zeros(vel.n_dofs)
        coeffs[free] = x[:nfree]
        coeffs[ns + free] = x[nfree:2 * nfree]
        uh = assemble.eval_mini_vector(mini_tab, FeField(vel, coeffs))
        diff = uh - case.u(geom.points, 0.0)
        errs.append(
            math.sqrt(assemble.integrate(
                geom, np.einsum("cqd,cqd->cq", diff, diff)
            ))
        )
    order1 = math.log(errs[0] / errs[1]) / math.log(2.0)
    order2 = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert errs[0] > errs[1] > errs[2]
    assert order1 > 1.7 and order2 > 1.85


def test_gmres_with_ilu_matches_direct():
    m = unit_square_mesh(6)
    geom = assemble.CellQuadrature(m, 6)
    tab = assemble.ScalarTab(P1Space(m), geom)
    A = assemble.mass_matrix(tab, None) + 0.05 * assemble.stiffness_matrix(tab)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    xd, _ = linalg.solve_direct(A, b)
    ilu = spla.spilu(A.tocsc(), drop_tol=1e-5, fill_factor=10)
    xi, report = linalg.solve_gmres(
        A, b, restart=60, maxiter=400,
        preconditioner=spla.LinearOperator(A.shape, ilu.solve),
        x0=np.zeros_like(b),
    )
    assert report.iterations > 0
    assert np.abs(xd - xi).max() < 1e-8


def _density_system():
    """A nonsymmetric upwind-dG density matrix M + tau (C - U), its
    inverse cell-mass preconditioner and a random right-hand side."""
    case = mms.make_case("square2d")
    st = TimeStepper(unit_square_mesh(6), SchemeConfig(
        tau=1 / 8, mu=1e-3, n_steps=1, cutoff_mode="widened"))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    C = assemble.convection_matrix(
        st.p2_lo, assemble.eval_rt(st.rt_lo, state.w), None)
    U = assemble.upwind_matrix(st.trace,
                               assemble.eval_rt_flux(st.rt_flux, state.w))
    M = assemble.mass_matrix(st.p2_lo, None)
    A = (M + st.config.tau * (C - U)).tocsc()
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    return A, st.rho_mass_solve, b


@pytest.mark.parametrize("restart", [60, 4])
def test_gmres_on_upwind_density_matches_direct(restart):
    A, precond, b = _density_system()
    assert abs(A - A.T).max() > 1e-3          # upwinding is not symmetric
    ref, _ = linalg.solve_direct(A, b)
    x, report = linalg.solve_gmres(
        A, b, restart=restart, maxiter=400, preconditioner=precond,
        x0=np.zeros_like(b))
    assert report.iterations > 0
    if restart == 4:
        assert report.iterations > restart    # it restarted and converged
    assert report.residual <= 1e-10
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_gmres_exact_preconditioner_takes_one_iteration():
    A, _, b = _density_system()
    lu = linalg.factorize(A, "colamd")
    _, report = linalg.solve_gmres(A, b, restart=60, maxiter=400,
                                   preconditioner=lu.solve,
                                   x0=np.zeros_like(b))
    assert report.iterations == 1


def test_factorize_rejects_an_unknown_ordering():
    A, _, _ = _density_system()
    with pytest.raises(ValueError, match="unknown ordering"):
        linalg.factorize(A, "amd")


def test_gmres_from_the_solution_takes_no_iteration():
    A, precond, b = _density_system()
    ref, _ = linalg.solve_direct(A, b)
    x, report = linalg.solve_gmres(A, b, restart=60, maxiter=400,
                                   preconditioner=precond, x0=ref)
    assert report.iterations == 0
    assert np.array_equal(x, ref)


def test_gmres_zero_rhs_returns_zeros():
    A, precond, b = _density_system()
    for x0 in (np.zeros_like(b), b):
        x, report = linalg.solve_gmres(
            A, np.zeros_like(b), restart=60, maxiter=400,
            preconditioner=precond, x0=x0)
        assert report.iterations == 0
        assert not x.any()


def test_gmres_breakdown_on_the_zero_operator():
    A = sp.csr_matrix((3, 3))
    with pytest.raises(linalg.ResidualError,
                       match="^gmres: breakdown on a singular operator$"):
        linalg.solve_gmres(A, np.ones(3), restart=10, maxiter=10,
                           preconditioner=lambda r: r, x0=np.zeros(3))


def test_gmres_raises_when_maxiter_is_spent():
    """The error names the residual and the spent iterations in its
    message, and carries no data."""
    A, precond, b = _density_system()
    with pytest.raises(linalg.ResidualError,
                       match=r"^gmres: residual .* after 2 iterations$") as exc:
        linalg.solve_gmres(A, b, restart=60, maxiter=2,
                           preconditioner=precond, x0=np.zeros_like(b))
    assert not hasattr(exc.value, "extras")


def _gmres(A, b, precond, x0):
    return linalg.solve_gmres(A, b, restart=60, maxiter=400,
                              preconditioner=precond, x0=x0)


def test_gmres_single_guess_is_a_stack_of_one():
    """One guess runs as before: as the one-row stack of it, bitwise, from
    one product for its residual, which the report gives."""
    A, precond, b = _density_system()
    x0 = precond(b)
    x, report = _gmres(A, b, precond, x0)
    xs, stacked = _gmres(A, b, precond, x0[None])
    assert np.array_equal(x, xs) and report == stacked
    assert report.extras == {
        "start": 0,
        "start_residual": np.linalg.norm(b - A @ x0) / np.linalg.norm(b)}


@pytest.mark.parametrize("good_first", [True, False],
                         ids=["good-first", "poor-first"])
def test_gmres_starts_from_the_candidate_of_least_residual(good_first):
    """Of a good and a poor candidate, in either order, GMRES starts from
    the good one, at one more product: the good one's iterations and
    solution alone, and its index and start residual in the report."""
    A, precond, b = _density_system()
    ref, _ = linalg.solve_direct(A, b)
    rng = np.random.default_rng(5)
    good = ref + 1e-6 * np.abs(ref).max() * rng.standard_normal(len(b))
    alone_x, alone = _gmres(A, b, precond, good)
    candidates = [good, np.zeros_like(b)]
    if not good_first:
        candidates.reverse()
    counted = _CountingOperator(A)
    x, report = _gmres(counted, b, precond, np.stack(candidates))
    assert report.iterations == alone.iterations > 0
    assert np.linalg.norm(x - alone_x) <= 1e-12 * np.linalg.norm(alone_x)
    assert report.extras["start"] == (0 if good_first else 1)
    assert report.extras["start_residual"] == alone.extras["start_residual"]
    assert report.extras["start_residual"] < 1e-3
    cycles = -(-report.iterations // 60)
    assert counted.products == report.iterations + cycles + 2


class _CountingOperator:
    """A matrix that counts its products with a vector."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


@pytest.mark.parametrize("restart,start", [(60, False), (4, False),
                                           (60, True)])
def test_gmres_checks_the_residual_of_its_last_cycle(restart, start):
    """One product per inner iteration and one per cycle, for the cycle's
    residual, which is also the one the contract is checked on, and one
    for the residual of the guess x0, zero or (``start``) not.  No product
    is made only to check the result."""
    A, precond, b = _density_system()
    counted = _CountingOperator(A)
    x0 = precond(b) if start else np.zeros_like(b)
    x, report = linalg.solve_gmres(counted, b, restart=restart, maxiter=400,
                                   preconditioner=precond, x0=x0)
    cycles = -(-report.iterations // restart)
    assert counted.products == report.iterations + cycles + 1
    r = b - A @ x
    assert report.residual == np.linalg.norm(r) / np.linalg.norm(b)


@pytest.mark.parametrize("name,make_mesh,n,tau,bound", [
    ("square2d", unit_square_mesh, 16, 1 / 256, 0.35),
    ("cube3d", unit_cube_mesh, 4, 1 / 512, 0.8),
])
def test_saddle_factor_keeps_its_fill_reducing_order(
        name, make_mesh, n, tau, bound, monkeypatch):
    """The first step's velocity saddle matrix, factored symmetrically:
    with diagonal pivots preferred down to 1% of the column maximum, the
    fill stays well below SuperLU's default threshold of 1.0 (which pivots
    off the diagonal and loses the order), and the factor solves to
    rounding.  The pressure rows have zero diagonal entries; with the last
    pressure pinned, elimination fills them and no pivot leaves the
    diagonal."""
    case = mms.make_case(name)
    st = TimeStepper(make_mesh(n), SchemeConfig(tau=tau, mu=1e-3, n_steps=1))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    factored = []
    inner = linalg.factorize

    def record(matrix, ordering):
        lu = inner(matrix, ordering)
        factored.append((matrix, ordering, lu))
        return lu

    monkeypatch.setattr(linalg, "factorize", record)
    st.step(state)
    [(K, ordering, lu)] = factored
    assert ordering == "mmd"
    K = K.tocsc()
    K.eliminate_zeros()
    default = spla.splu(K, permc_spec="MMD_AT_PLUS_A",
                        options={"SymmetricMode": True})
    fill = lu.L.nnz + lu.U.nnz
    assert fill < bound * (default.L.nnz + default.U.nnz)
    b = np.random.default_rng(7).standard_normal(K.shape[0])
    x = lu.solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


def _update_once_gmres(A, b, precond, x0, k):
    """k right-preconditioned Arnoldi steps from x0, by modified
    Gram-Schmidt, and one preconditioner call on the combined update,
    x0 + P (V_k y): how GMRES once ended a cycle."""
    r = b - A @ x0
    beta = np.linalg.norm(r)
    V = np.zeros((k + 1, len(b)))
    H = np.zeros((k + 1, k))
    V[0] = r / beta
    for j in range(k):
        w = A @ precond(V[j])
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 0:
            V[j + 1] = w / H[j + 1, j]
    e1 = np.zeros(k + 1)
    e1[0] = beta
    y = np.linalg.lstsq(H, e1, rcond=None)[0]
    return x0 + precond(y @ V[:k])


def test_gmres_applies_the_preconditioner_once_per_iteration(monkeypatch):
    """The density and velocity solves of a step on the square, run again
    with a counting preconditioner: one call per iteration, and the
    solution that of one preconditioner call on the combined update, to
    1e-13 relative."""
    case = mms.make_case("square2d")
    st = TimeStepper(unit_square_mesh(8), SchemeConfig(
        tau=1 / 64, mu=1e-3, n_steps=2, cutoff_mode="widened"))
    state = st.initialize(lambda x: case.rho(x, 0.0),
                          lambda x: case.u(x, 0.0))
    state, _ = st.step(state)
    systems, solve_gmres = [], linalg.solve_gmres

    def record(A, b, **kw):
        systems.append((A, b, kw))
        return solve_gmres(A, b, **kw)

    monkeypatch.setattr(linalg, "solve_gmres", record)
    st.step(state)
    assert len(systems) == 2  # the density and the velocity solve
    for A, b, kw in systems:
        x0 = np.atleast_2d(kw["x0"])
        calls = []

        def counted(v, precond=kw["preconditioner"]):
            calls.append(1)
            return precond(v)

        x, report = solve_gmres(A, b, **{**kw, "preconditioner": counted})
        k = report.iterations
        assert 0 < k < kw["restart"]  # one cycle
        assert len(calls) == k
        ref = _update_once_gmres(A, b, kw["preconditioner"],
                                 x0[report.extras["start"]], k)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
