"""Gauss-Jacobi rules: moments, degree exactness, node/weight structure."""

import warnings

import numpy as np
import pytest

from templap.core import gamma_fn
from templap.quadrature import jacobi_gauss_rule


def jacobi_moments(kmax: int, a: float, b: float) -> list:
    """Exact integrals of x^k (1-x)^a (1+x)^b over [-1, 1] for k <= kmax.

    Integrating x^k d[(1-x)^{a+1}(1+x)^{b+1}] by parts yields the stable
    recurrence m_{k+1} = ((b - a) m_k + k m_{k-1}) / (a + b + k + 2).
    """
    m0 = 2.0 ** (a + b + 1.0) * gamma_fn(a + 1.0) * gamma_fn(b + 1.0) / gamma_fn(a + b + 2.0)
    moments = [m0]
    prev = 0.0
    for k in range(kmax):
        nxt = ((b - a) * moments[-1] + k * prev) / (a + b + k + 2.0)
        prev = moments[-1]
        moments.append(nxt)
    return moments


def test_one_point_legendre_is_midpoint():
    rule = jacobi_gauss_rule(1, 0.0, 0.0)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [2.0], rtol=1e-15)


def test_weight_sum_matches_zeroth_moment():
    beta = 0.5
    rule = jacobi_gauss_rule(24, 0.0, 1.0 - beta)
    assert rule.weights.sum() == pytest.approx(2.0 ** 1.5 / 1.5, rel=1e-13)
    for a, b in ((0.0, 0.0), (0.0, -0.7), (0.0, 0.9), (1.3, -0.2)):
        rule = jacobi_gauss_rule(16, a, b)
        mu0 = 2.0 ** (a + b + 1) * gamma_fn(a + 1) * gamma_fn(b + 1) / gamma_fn(a + b + 2)
        assert rule.weights.sum() == pytest.approx(mu0, rel=1e-12)


def test_degree_six_monomial_with_eight_points():
    rule = jacobi_gauss_rule(8, 0.0, 0.0)
    assert rule.weights @ rule.nodes ** 6 == pytest.approx(2.0 / 7.0, rel=1e-12)


@pytest.mark.parametrize("n,a,b", [(4, 0.0, 0.0), (7, 0.0, 0.5), (9, 0.0, -0.5),
                                   (12, 0.0, -0.9), (6, 1.0, 1.0), (10, 0.3, -0.4)])
def test_exact_through_degree_2n_minus_1(n, a, b):
    rule = jacobi_gauss_rule(n, a, b)
    moments = jacobi_moments(2 * n - 1, a, b)
    for k in range(2 * n):
        got = rule.weights @ rule.nodes ** k
        assert got == pytest.approx(moments[k], rel=1e-10, abs=1e-12), f"degree {k}"


def test_nodes_sorted_interior_weights_positive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 80))
        b = rng.uniform(-0.95, 1.5)
        rule = jacobi_gauss_rule(n, 0.0, b)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0.0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        jacobi_gauss_rule(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        jacobi_gauss_rule(4, -1.0, 0.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_chebyshev_rule(n):
    # a + b = -1 makes the general j = 1 recurrence term 0/0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = jacobi_gauss_rule.__wrapped__(n, -0.5, -0.5)  # bypass the cache
    k = np.arange(n, 0, -1)
    np.testing.assert_allclose(rule.nodes, np.cos((2 * k - 1) * np.pi / (2 * n)),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, np.full(n, np.pi / n), rtol=1e-14)


@pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.0, 0.0), (0.0, -0.5), (1.3, -0.2),
                                 (-0.3, -0.7), (-0.5, -0.5)])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_matches_scipy_roots_jacobi(n, a, b):
    from scipy.special import roots_jacobi

    with np.errstate(invalid="ignore"):  # scipy's own 0/0 at a + b = -1, discarded by np.where
        nodes, weights = roots_jacobi(n, a, b)
    rule = jacobi_gauss_rule(n, a, b)
    np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rule.weights, weights, rtol=1e-10)
