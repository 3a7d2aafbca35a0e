"""Exactness and positivity of the simplex quadrature rules."""

import math
from itertools import product

import numpy as np
import pytest

from vardens.quadrature import reference_simplex_measure, simplex_rule


def monomial_integral(alpha):
    """Exact integral of x^alpha over the unit simplex."""
    # int_simplex prod x_i^a_i dx = prod(a_i!) / (|a| + d)!
    d = len(alpha)
    num = 1.0
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + d)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 5, 6, 8, 10, 13])
def test_monomial_exactness(dim, degree):
    rule = simplex_rule(dim, degree)
    assert rule.degree >= degree
    for alpha in product(range(degree + 1), repeat=dim):
        if sum(alpha) > degree:
            continue
        vals = np.ones(rule.npoints)
        for k, a in enumerate(alpha):
            vals *= rule.points[:, k] ** a
        exact = monomial_integral(alpha)
        got = float(rule.weights @ vals)
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), (
            dim, degree, alpha,
        )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_positive_and_sum_to_measure(dim):
    for degree in range(14):
        rule = simplex_rule(dim, degree)
        assert (rule.weights > 0).all()
        assert abs(rule.weights.sum() - reference_simplex_measure(dim)) < 1e-14
        inside = (rule.points >= 0).all() and (rule.points.sum(axis=1) <= 1 + 1e-14).all()
        assert inside


def test_invalid_requests():
    with pytest.raises(ValueError):
        simplex_rule(4, 2)
    with pytest.raises(ValueError):
        simplex_rule(2, -1)
