"""Gauss rules: Newton-iterated Legendre nodes against numpy's independent
implementation, closed-form Chebyshev nodes, Jacobi-Gauss rules, and polynomial
exactness."""

import math

import numpy as np
import pytest

from cltau.quadrature import (
    QuadratureRule,
    chebyshev_gauss_rule,
    jacobi_gauss_rule,
    legendre_gauss_rule,
)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 63, 127])
def test_legendre_nodes_match_numpy(n):
    # Independent oracle: numpy.polynomial builds the same (n+1)-point rule
    # by eigenvalue methods.
    rule = legendre_gauss_rule(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n + 1)
    assert np.allclose(rule.nodes, ref_nodes, rtol=0, atol=1e-14)
    assert np.allclose(rule.weights, ref_weights, rtol=0, atol=5e-14)


@pytest.mark.parametrize("n", [0, 3, 10, 127])
def test_shifted_rule_is_affine_image(n):
    plain = legendre_gauss_rule(n)
    shifted = legendre_gauss_rule(n, shifted=True)
    assert shifted.domain == (0.0, 1.0)
    assert np.allclose(shifted.nodes, 0.5 * (plain.nodes + 1.0), rtol=0, atol=1e-15)
    assert np.allclose(shifted.weights, 0.5 * plain.weights, rtol=0, atol=1e-15)
    assert shifted.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_rule_structure():
    rule = legendre_gauss_rule(12, shifted=True)
    assert rule.npoints == 13
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    # Gauss nodes are symmetric about the midpoint.
    assert np.allclose(rule.nodes + rule.nodes[::-1], 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        legendre_gauss_rule(-1)
    with pytest.raises(ValueError):
        QuadratureRule("legendre", (0.0, 1.0), np.array([0.5, 0.25]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_polynomial_exactness(n):
    # An (n+1)-point Gauss rule integrates monomials through degree 2n + 1.
    rule = legendre_gauss_rule(n, shifted=True)
    for k in range(2 * n + 2):
        approx = float(np.sum(rule.weights * rule.nodes ** k))
        exact = 1.0 / (k + 1)
        assert abs(approx - exact) / exact < 1e-14, f"degree {k}"


def test_exactness_boundary_is_sharp():
    # Degree 2n + 2 is the first degree a Gauss rule misses; this pins that
    # the rule is the genuine (n+1)-point one and not secretly larger.
    n = 2
    rule = legendre_gauss_rule(n, shifted=True)
    k = 2 * n + 2
    approx = float(np.sum(rule.weights * rule.nodes ** k))
    assert abs(approx - 1.0 / (k + 1)) > 1e-6


@pytest.mark.parametrize("exponent", [-0.5, 0.0, 0.3, 1.2, 2.5])
@pytest.mark.parametrize("n", [0, 3, 16, 63])
def test_jacobi_rule_exactness(n, exponent):
    # The (n+1)-point rule for the weight x^b integrates x^b x^k exactly,
    # 1/(b + k + 1), through k = 2n + 1, and misses degree 2n + 2.
    rule = jacobi_gauss_rule(n, exponent)
    assert rule.domain == (0.0, 1.0) and rule.npoints == n + 1
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
    legendre = legendre_gauss_rule(20, shifted=True)
    assert np.allclose(jacobi.nodes, legendre.nodes, rtol=0, atol=1e-15)
    assert np.allclose(jacobi.weights, legendre.weights, rtol=0, atol=1e-15)
    for bad in (-1.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            jacobi_gauss_rule(4, bad)
    with pytest.raises(ValueError):
        jacobi_gauss_rule(-1, 0.5)


def test_chebyshev_rule_closed_forms():
    n = 7
    rule = chebyshev_gauss_rule(n)
    k = np.arange(n + 1)
    expected = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * n + 2.0))
    assert np.allclose(rule.nodes, np.sort(expected), rtol=0, atol=1e-15)
    assert np.allclose(rule.weights, np.pi / (n + 1.0), rtol=0, atol=1e-15)
    shifted = chebyshev_gauss_rule(n, shifted=True)
    assert np.allclose(shifted.nodes, 0.5 * (np.sort(expected) + 1.0), rtol=0, atol=1e-15)


def test_chebyshev_rule_integrates_weighted_polynomials():
    # With the (1 - x^2)^(-1/2) weight, int T_i T_j is pi (i=j=0) or pi/2
    # (i=j>0) or 0; the n+1 point rule is exact for integrands through
    # degree 2n + 1.
    n = 5
    rule = chebyshev_gauss_rule(n)
    t0 = np.ones_like(rule.nodes)
    t1 = rule.nodes
    t2 = 2.0 * rule.nodes ** 2 - 1.0
    assert float(np.sum(rule.weights * t0 * t0)) == pytest.approx(np.pi, abs=1e-14)
    assert float(np.sum(rule.weights * t1 * t1)) == pytest.approx(np.pi / 2, abs=1e-14)
    assert float(np.sum(rule.weights * t2 * t2)) == pytest.approx(np.pi / 2, abs=1e-14)
    assert float(np.sum(rule.weights * t1 * t2)) == pytest.approx(0.0, abs=1e-14)
