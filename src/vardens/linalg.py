"""Sparse solvers for the system shapes the scheme produces.

Each solver takes the matrix and the right-hand side as they are, and
returns the solution and a ``SolveReport``; it keeps nothing between calls.
The scheme's per-step systems go through ``solve_gmres``, a restarted GMRES
(Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) with a preconditioner
the caller builds for the system: inverse cell-mass blocks for the density,
a lagged SuperLU factorization for the velocity.  It preconditions on the
right, so it minimises and stops on the true residual.  It starts from the
caller's guess, or from the best of a stack of candidates at one product
each: the scheme passes the previous step's solution and the extrapolation
through the last solutions, up to four, so the extrapolation is taken only
when its residual is smaller.  Its ``maxiter`` counts inner iterations over all restart
cycles: the velocity solve allows one cycle of 40, and when that does not
converge it refactors its preconditioner and calls GMRES again.  A failed
solve raises its error, which carries a message and no data.
``factorize`` gives the velocity factorization and the one of the RT
projection.  Both remove the constant null mode of their saddle systems by
pinning one unknown.  The direct solves are the exact references the tests
compare against; ``solve_constrained`` imposes a zero-mean constraint
instead: it borders the system with one Lagrange multiplier row and column,
which keeps the matrix symmetric whenever the blocks are, and solves the
bordered system through ``solve_direct``.

Every solve asserts its relative residual, at most ``SOLVER_TOL``, on the
residual vector b - A x (``_check``).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SOLVER_TOL = 1e-10  # relative residual of every solve


class SingularMatrixError(Exception):
    pass


class ConstraintConflictError(Exception):
    pass


class ResidualError(Exception):
    pass


@dataclass
class SolveReport:
    """A solve's relative residual, its inner iterations (0 for a direct
    solve) and the scalar facts a caller adds to ``extras``."""

    residual: float
    iterations: int = 0
    extras: dict = field(default_factory=dict)


def _check(r, b, context):
    """The relative residual ||r|| / ||b|| (||r|| when b = 0) of a solve
    whose residual is r = b - A x; ``ResidualError`` above ``SOLVER_TOL``
    or when it is not finite."""
    nb = np.linalg.norm(b)
    res = np.linalg.norm(r)
    if nb > 0:
        res /= nb
    if not np.isfinite(res) or res > SOLVER_TOL:
        raise ResidualError(
            f"{context}: relative residual {res:.3e} > {SOLVER_TOL:.1e}")
    return res


def _suspect_row(A):
    absA = abs(A.tocsr())
    sums = np.asarray(absA.sum(axis=1)).ravel()
    return int(np.argmin(sums))


# SuperLU's settings for each ordering that ``factorize`` accepts
_ORDERINGS = {
    "colamd": {},
    "mmd": {"permc_spec": "MMD_AT_PLUS_A",
            "options": {"SymmetricMode": True, "DiagPivotThresh": 0.01}},
    "given": {"permc_spec": "NATURAL",
              "options": {"SymmetricMode": True, "DiagPivotThresh": 0.01}},
}


def factorize(matrix, ordering):
    """SuperLU factorization in one of three column orderings.

    ``"colamd"`` is SuperLU's default, for any square matrix.  ``"mmd"`` is
    minimum degree on the pattern of A + A^T, and ``"given"`` keeps the
    matrix's own order, which the caller has made fill-reducing; both run
    SuperLU's symmetric mode, which needs a structurally symmetric matrix.
    That mode takes a diagonal pivot whenever it is at least
    ``DiagPivotThresh = 0.01`` times the largest entry of its column, so
    the order survives; at SuperLU's default threshold of 1.0 it pivots off
    the diagonal and loses it.  On the first step's 3D velocity saddle
    matrix at h = 1/8, its last pressure pinned, ``"mmd"`` gives L + U
    0.51 M nonzeros against 1.35 M at threshold 1.0 (at h = 1/16 threshold
    1.0 runs out of memory).  The threshold is not 0: the saddle matrices
    have zero diagonal entries, which may have to be pivoted away.  The
    velocity matrix bordered by a zero-mean multiplier did: at 0 its first
    step's factors on the unit square (h = 1/16) and on the cube (h = 1/4)
    solved a random right-hand side to relative residuals of 0.19 and 9.4.
    The pinned one takes every pivot on the diagonal.  The facet system of the
    RT projection comes in nested-dissection order
    (``Mesh.facet_dissection_order``) and is factored as ``"given"``: on
    the cube at h = 1/8, in under half the time of ``"mmd"`` on the same
    matrix numbered by RT1 facet dofs, whose ordering alone takes longer,
    with 3.37 M nonzeros in L + U against 3.95 M.
    Stored zeros are dropped first: the forms keep a fixed sparsity
    pattern, so a matrix can hold entries that are zero for the current
    coefficients, and they would only add fill.
    """
    if ordering not in _ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    matrix = matrix.tocsc(copy=True)
    matrix.eliminate_zeros()
    try:
        return spla.splu(matrix, **_ORDERINGS[ordering])
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"singular factorization (suspect pivot row {_suspect_row(matrix)}): {exc}"
        ) from exc


def _check_shapes(A, *vectors):
    """``ValueError`` unless A is square and each vector matches it."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix of shape {A.shape} is not square")
    for v in vectors:
        if v.shape != (n,):
            raise ValueError(f"vector of shape {v.shape} does not match "
                             f"the matrix of shape {A.shape}")


def solve_direct(A, b):
    """Direct sparse solve of A x = b; residual checked against
    ``SOLVER_TOL``.  ``ValueError`` when A is not square or b does not
    match it."""
    _check_shapes(A, b)
    x = factorize(A, "colamd").solve(b)
    return x, SolveReport(_check(b - A @ x, b, "direct solve"))


def solve_constrained(A, b, constraint):
    """Direct solve of A x = b under one linear constraint functional,
    c . x = 0: ``solve_direct`` on the system bordered by its multiplier,
    [[A, -c], [-c^T, 0]], which stays symmetric when A is.

    The tests' reference for the saddle-point steps: the constraint fixes
    the zero-mean pressure (or the multiplier's constant mode in the mixed
    projection).  A nonzero multiplier lam means the constraint fights the
    equations: A x - b = lam c.  So unless the unbordered residual is at
    most 1e-8 max(||b||, 1), ``ConstraintConflictError`` is raised.  The
    report is ``solve_direct``'s, on the bordered system, with lam as its
    ``multiplier``.  ``ValueError`` when A is not square or b or c does not
    match it.
    """
    _check_shapes(A, b, constraint)
    c = sp.csr_matrix(-constraint[:, None])
    xl, report = solve_direct(sp.bmat([[A, c], [c.T, None]], format="csc"),
                              np.append(b, 0.0))
    x, lam = xl[:-1], xl[-1]
    conflict = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1.0)
    if conflict > 1e-8:
        raise ConstraintConflictError(
            f"constraint is inconsistent with the equations "
            f"(original residual {conflict:.3e}, multiplier {lam:.3e})"
        )
    report.extras["multiplier"] = float(lam)
    return x, report


def solve_gmres(A, b, *, restart, maxiter, preconditioner, x0):
    """Restarted GMRES for A x = b, preconditioned on the right, from the
    guess ``x0``.  A needs only ``A @ v``.

    ``x0`` is one guess (n,) or a stack of candidates (k, n): GMRES starts
    from the candidate of least residual, the first of equals, at one
    product each.  The report's extras hold ``start``, the index of that
    candidate, and ``start_residual``, its relative residual.
    ``preconditioner`` is any callable r -> z ~ A^-1 r that returns a new
    array on every call, such as a ``LinearOperator``.  With right
    preconditioning the minimised residual is the true one, b - A x, and
    GMRES stops once it is below max(SOLVER_TOL / 100, 1e-14) ||b||;
    ``_check`` then asserts ``SOLVER_TOL`` on the residual the last cycle
    formed, so no product is spent on it.
    ``maxiter`` bounds the inner iterations over all cycles, and the report
    counts them: 0 when the start already meets the target.  Raises
    ``ResidualError`` when it is spent, and from ``_check`` when a NaN, say
    from the preconditioner, reached x.
    """
    nb = np.linalg.norm(b)
    if nb == 0.0:
        start, x, r = 0, np.zeros(b.shape[0]), b.copy()
    else:
        X = np.atleast_2d(np.asarray(x0, dtype=float))
        residuals = [b - A @ guess for guess in X]
        start = int(np.argmin([np.linalg.norm(r) for r in residuals]))
        x, r = X[start].copy(), residuals[start]
    beta = np.linalg.norm(r)
    extras = {"start": start,
              "start_residual": float(beta / nb if nb > 0 else beta)}
    x, r, iters = _gmres_cycles(A, b, x, r, restart, maxiter, preconditioner,
                                max(SOLVER_TOL * 1e-2, 1e-14) * nb)
    return x, SolveReport(_check(r, b, "gmres solve"), iters, extras)


def _gmres_cycles(A, b, x, r, restart, maxiter, preconditioner, target):
    """Restart cycles from x, whose residual is r, until the residual is at
    most ``target``; returns x, its residual and the inner iterations.

    Arnoldi orthogonalises by classical Gram-Schmidt applied twice, two
    GEMVs against the basis (Giraud, Langou & Rozlozník, Comput. Math.
    Appl. 50, 2005).  The vectors z_j = P v_j that the products A z_j
    need are kept as the preconditioner returned them, one per iteration
    taken, so a cycle ends with x += sum_j y_j z_j and no further call.
    """
    beta = np.linalg.norm(r)
    V = np.empty((restart + 1, b.shape[0]))
    R = np.zeros((restart, restart))
    iters = 0
    while beta > target:
        if iters >= maxiter:
            raise ResidualError(
                f"gmres: residual {beta:.3e} above {target:.1e} after "
                f"{iters} iterations"
            )
        V[0] = r / beta
        g = [beta]
        cs, sn, Z = [], [], []
        for j in range(min(restart, maxiter - iters)):
            Z.append(preconditioner(V[j]))
            w = A @ Z[j]
            h = V[: j + 1] @ w
            w -= h @ V[: j + 1]
            h2 = V[: j + 1] @ w
            w -= h2 @ V[: j + 1]
            col = (h + h2).tolist()
            hn = float(np.linalg.norm(w))
            for i in range(j):
                a, c = col[i], col[i + 1]
                col[i] = cs[i] * a + sn[i] * c
                col[i + 1] = cs[i] * c - sn[i] * a
            rho = math.hypot(col[j], hn)
            if rho == 0.0:
                raise ResidualError("gmres: breakdown on a singular operator")
            cs.append(col[j] / rho)
            sn.append(hn / rho)
            col[j] = rho
            R[: j + 1, j] = col
            g.append(-sn[j] * g[j])
            g[j] *= cs[j]
            iters += 1
            if abs(g[j + 1]) <= target or hn == 0.0:
                break
            V[j + 1] = w / hn
        k = len(cs)
        y = sla.solve_triangular(R[:k, :k], g[:k], check_finite=False)
        for yj, z in zip(y, Z):
            x += yj * z
        r = b - A @ x
        beta = np.linalg.norm(r)
    return x, r, iters
