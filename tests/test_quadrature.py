"""Gauss rules for the weight (1+x)^b: moments, degree exactness, node/weight structure."""

import numpy as np
import pytest

from templap.quadrature import jacobi_gauss_rule


def jacobi_moments(kmax: int, b: float) -> list:
    """Exact integrals of x^k (1+x)^b over [-1, 1] for k <= kmax.

    Integrating x^k d[(1-x)(1+x)^{b+1}] by parts yields the stable
    recurrence m_{k+1} = (b m_k + k m_{k-1}) / (b + k + 2), from
    m_0 = 2^(b+1) / (b+1).
    """
    moments = [2.0 ** (b + 1.0) / (b + 1.0)]
    prev = 0.0
    for k in range(kmax):
        nxt = (b * moments[-1] + k * prev) / (b + k + 2.0)
        prev = moments[-1]
        moments.append(nxt)
    return moments


def test_one_point_legendre_is_midpoint():
    nodes, weights = jacobi_gauss_rule(1, 0.0)
    np.testing.assert_array_equal(nodes, [0.0])
    np.testing.assert_array_equal(weights, [2.0])


@pytest.mark.parametrize("b", [-0.9, -0.5, 0.5, 0.95])
def test_one_point_rule_is_the_weight_mean(b):
    # The single node is the mean of x under (1+x)^b, 2 (b+1)/(b+2) - 1.
    nodes, weights = jacobi_gauss_rule(1, b)
    assert nodes[0] == pytest.approx(b / (b + 2.0), rel=1e-15)
    assert weights[0] == pytest.approx(2.0 ** (b + 1.0) / (b + 1.0), rel=1e-15)


def test_weight_sum_matches_zeroth_moment():
    for b in (0.0, -0.7, 0.5, 0.9):
        _, weights = jacobi_gauss_rule(16, b)
        assert weights.sum() == pytest.approx(2.0 ** (b + 1.0) / (b + 1.0), rel=1e-13)


def test_degree_six_monomial_with_eight_points():
    nodes, weights = jacobi_gauss_rule(8, 0.0)
    assert weights @ nodes ** 6 == pytest.approx(2.0 / 7.0, rel=1e-12)


# b = 1 - beta: b -> -1 is the near field as beta -> 2, b -> 1 as beta -> 0.
@pytest.mark.parametrize("n,b", [(4, 0.0), (7, 0.5), (9, -0.5), (12, -0.9), (12, -1.0 + 1e-12),
                                 (12, 0.95)])
def test_exact_through_degree_2n_minus_1(n, b):
    nodes, weights = jacobi_gauss_rule(n, b)
    moments = jacobi_moments(2 * n - 1, b)
    for k in range(2 * n):
        got = weights @ nodes ** k
        assert got == pytest.approx(moments[k], rel=1e-10, abs=1e-12), f"degree {k}"


def test_nodes_sorted_interior_weights_positive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 80))
        b = rng.uniform(-0.95, 1.5)
        nodes, weights = jacobi_gauss_rule(n, b)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] > -1.0 and nodes[-1] < 1.0
        assert np.all(weights > 0.0)


def test_rules_are_read_only():
    nodes, weights = jacobi_gauss_rule(8, -0.5)
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_invalid_arguments():
    with pytest.raises(ValueError):
        jacobi_gauss_rule(0, 0.0)
    with pytest.raises(ValueError):
        jacobi_gauss_rule(4, -1.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_half_power_rule_folds_legendre(n):
    # x = 2t^2 - 1 maps (1+x)^(-1/2) dx to 2 sqrt(2) dt on t in [-1, 1], an even
    # integrand for f(x), so the n-point rule is the positive half of the
    # 2n-point Gauss-Legendre rule, folded.
    t, w = np.polynomial.legendre.leggauss(2 * n)
    nodes, weights = jacobi_gauss_rule.__wrapped__(n, -0.5)  # bypass the cache
    np.testing.assert_allclose(nodes, 2.0 * t[n:] ** 2 - 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights, 2.0 * np.sqrt(2.0) * w[n:], rtol=1e-14)


@pytest.mark.parametrize("b", [0.5, 0.0, -0.5])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_matches_scipy_roots_jacobi(n, b):
    from scipy.special import roots_jacobi

    want_nodes, want_weights = roots_jacobi(n, 0.0, b)
    nodes, weights = jacobi_gauss_rule(n, b)
    np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, want_weights, rtol=1e-10)
