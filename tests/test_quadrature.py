"""Gauss rules: Legendre nodes from Newton iteration on the cosine series
of P_{n+1} against numpy's independent implementation, their weights against
a 40-digit mpmath reference, Jacobi-Gauss rules, and polynomial
exactness."""

import math

import mpmath
import numpy as np
import pytest

from cltau.orthopoly import shifted_legendre_table
from cltau.quadrature import (
    QuadratureRule,
    jacobi_gauss_rule,
    legendre_gauss_rule,
)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 63, 127])
def test_legendre_nodes_match_numpy(n):
    # Independent oracle: numpy.polynomial builds the same (n+1)-point rule
    # on [-1, 1] by eigenvalue methods; mapped to (0, 1) it is ours.
    rule = legendre_gauss_rule(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n + 1)
    assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0
    assert np.allclose(rule.nodes, (ref_nodes + 1.0) / 2.0, rtol=0, atol=1e-14)
    assert np.allclose(rule.weights, ref_weights / 2.0, rtol=0, atol=5e-14)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)


def _reference_weights(nodes):
    """Weights 2/((1-x^2) P_m'(x)^2) at 40 digits on [-1, 1], halved for (0, 1),
    after two Newton steps that polish each float node to a root of P_m."""
    m = nodes.size

    def legendre(x):  # P_m(x) and P_m'(x) by the three-term recurrence
        p_prev, p = mpmath.mpf(1), x
        for k in range(1, m):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, m * (x * p - p_prev) / (x * x - 1)

    weights = []
    with mpmath.workdps(40):
        for node in nodes:
            x = 2 * mpmath.mpf(float(node)) - 1
            for _ in range(2):
                p, dp = legendre(x)
                x -= p / dp
            weights.append(1 / ((1 - x * x) * legendre(x)[1] ** 2))
    return weights


@pytest.mark.parametrize("n", [63, 127])
def test_legendre_weights_match_a_40_digit_reference(n):
    # A few eps relative everywhere, including the nodes nearest the
    # midpoint, where 2/((1-x^2) P'^2) from the recurrence lost 1e-13.
    rule = legendre_gauss_rule(n)
    reference = _reference_weights(rule.nodes)
    relative = max(abs((mpmath.mpf(float(w)) - ref) / ref)
                   for w, ref in zip(rule.weights, reference))
    assert relative <= 5e-15
    assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-15


@pytest.mark.parametrize("n", [692, 720, 1002])
def test_legendre_rule_converges_where_the_last_newton_update_cycles(n):
    # At these sizes (and 12 others up to 1528) the last Newton update
    # cycled at 1-2e-15, just above the 1e-15 tolerance, while the angle
    # split kept the factor 513 for every m; the rule converges there and
    # is as accurate as its neighbours: every (n+1)-point rule up to
    # n = 1600 has |sum w - 1| and |sum w L_{1,k}(x)| below 1e-13.
    rule = legendre_gauss_rule(n)
    moments = shifted_legendre_table(2 * n + 1, rule.nodes) @ rule.weights
    assert abs(moments[0] - 1.0) <= 5e-14
    assert np.max(np.abs(moments[1:])) <= 5e-14


@pytest.mark.parametrize("n", [600, 800, 1500])
def test_legendre_weights_sum_to_one_above_511_points(n):
    # The Veltkamp split keeps (m - 2k) hi exact at every m = n + 1; a fixed
    # factor 513 does so only for m < 512 and left |sum w - 1| at 1.6e-14
    # for n = 800.
    assert abs(float(np.sum(legendre_gauss_rule(n).weights)) - 1.0) <= 1e-15


def test_rule_structure():
    rule = legendre_gauss_rule(12)
    assert rule.npoints == 13
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # Gauss nodes are symmetric about the midpoint.
    assert np.allclose(rule.nodes + rule.nodes[::-1], 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(rule.weights, rule.weights[::-1]) and rule.nodes[6] == 0.5
    with pytest.raises(ValueError):
        legendre_gauss_rule(-1)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.5, 0.25]), np.array([0.5, 0.5]))
    for nodes, weights in (([0.25, 0.5], [1.0]), ([0.0, 0.5], [0.5, 0.5]),
                           ([0.5, 1.0], [0.5, 0.5]), ([0.25, 0.5], [0.5, 0.0]),
                           ([0.25, np.nan], [0.5, 0.5]), ([0.25, 0.5], [np.nan, 0.5])):
        with pytest.raises(ValueError):
            QuadratureRule(np.array(nodes), np.array(weights))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_polynomial_exactness(n):
    # An (n+1)-point Gauss rule integrates monomials through degree 2n + 1.
    rule = legendre_gauss_rule(n)
    for k in range(2 * n + 2):
        approx = float(np.sum(rule.weights * rule.nodes ** k))
        exact = 1.0 / (k + 1)
        assert abs(approx - exact) / exact < 1e-14, f"degree {k}"


def test_exactness_boundary_is_sharp():
    # Degree 2n + 2 is the first degree a Gauss rule misses; this pins that
    # the rule is the genuine (n+1)-point one and not secretly larger.
    n = 2
    rule = legendre_gauss_rule(n)
    k = 2 * n + 2
    approx = float(np.sum(rule.weights * rule.nodes ** k))
    assert abs(approx - 1.0 / (k + 1)) > 1e-6


@pytest.mark.parametrize("exponent", [-0.5, 0.0, 0.3, 1.2, 2.5])
@pytest.mark.parametrize("n", [0, 3, 16, 63])
def test_jacobi_rule_exactness(n, exponent):
    # The (n+1)-point rule for the weight x^b integrates x^b x^k exactly,
    # 1/(b + k + 1), through k = 2n + 1, and misses degree 2n + 2.
    rule = jacobi_gauss_rule(n, exponent)
    assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0 and rule.npoints == n + 1
    for k in range(2 * n + 2):
        exact = 1.0 / (exponent + k + 1)
        approx = float(np.sum(rule.weights * rule.nodes ** k))
        assert abs(approx - exact) / exact < 1e-13, f"degree {k}"
    k = 2 * n + 2
    if n <= 3:
        assert abs(float(np.sum(rule.weights * rule.nodes ** k))
                   - 1.0 / (exponent + k + 1)) > 1e-6


def test_jacobi_rule_zero_exponent_is_legendre_and_validates():
    jacobi = jacobi_gauss_rule(20, 0.0)
    legendre = legendre_gauss_rule(20)
    assert np.allclose(jacobi.nodes, legendre.nodes, rtol=0, atol=1e-15)
    assert np.allclose(jacobi.weights, legendre.weights, rtol=0, atol=1e-15)
    for bad in (-1.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            jacobi_gauss_rule(4, bad)
    with pytest.raises(ValueError):
        jacobi_gauss_rule(-1, 0.5)
