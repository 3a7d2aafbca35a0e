"""Quadrature rules on reference simplices.

A rule is the conical product of Gauss--Jacobi lines, one per axis, in
collapsed coordinates (``simplex_rule``), so a rule requested for
polynomial degree ``p`` is exact for all monomials of total degree <= p,
with strictly positive weights and interior points.  A facet rule is the
rule of the simplex one dimension down.  The reference cells are

    segment:     {0 <= t <= 1}
    triangle:    {x, y >= 0, x + y <= 1}
    tetrahedron: {x, y, z >= 0, x + y + z <= 1}

and weights sum to the reference measure (1, 1/2, 1/6 respectively).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi


@dataclass(frozen=True)
class QuadratureRule:
    """Points (nq, dim) and positive weights (nq,) on a reference simplex."""

    dim: int
    degree: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self):
        return self.weights.shape[0]


def _gauss_jacobi_01(n, alpha):
    """Nodes/weights on [0, 1] for the weight (1 - t)^alpha."""
    x, w = roots_jacobi(n, alpha, 0.0)
    t = 0.5 * (x + 1.0)
    w = w * 0.5 ** (alpha + 1.0)
    return t, w


def simplex_rule(dim: int, degree: int) -> QuadratureRule:
    """Conical-product rule on the reference simplex, exact to ``degree``.

    Axis k carries an n-point Gauss--Jacobi line with alpha = k, and the
    point with line coordinates t is x_k = t_k prod_{j>k} (1 - t_j)."""
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported simplex dimension {dim}")
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    n = max(1, (degree + 2) // 2)  # 2n - 1 >= degree
    lines = [_gauss_jacobi_01(n, float(k)) for k in range(dim)]
    grid = np.meshgrid(*(t for t, _ in lines), indexing="ij")
    points = []
    for k in range(dim):
        x = grid[k]
        for t in grid[k + 1:]:
            x = x * (1.0 - t)
        points.append(x.ravel())
    w = lines[0][1]
    for _, wk in lines[1:]:
        w = w[..., None] * wk
    return QuadratureRule(dim, 2 * n - 1, np.column_stack(points), w.ravel())


def reference_simplex_measure(dim: int) -> float:
    return 1.0 / math.factorial(dim)
