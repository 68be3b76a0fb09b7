"""Caputo derivatives and their shifted Legendre operational matrices.

The operational-matrix oracle here is deliberately independent of the
module under test: it expands each basis polynomial from its exact integer
monomial coefficients, differentiates term by term with the power rule
written out inline, and integrates against the basis with a Gauss rule made
exact by the substitution x = u^sigma (sigma chosen so every exponent in
the integrand becomes an integer).  The package builds its matrices in
float64; the mpmath references here (the oracle, the extended-precision
double sum the package used to build with, and the single-sum closed forms)
live only in the tests."""

import math
from math import gamma

import mpmath
import numpy as np
import pytest

from test_orthopoly import monomial_form_legendre

from cltau.fracderiv import (
    CaputoOrder,
    _caputo_basis,
    caputo_apply,
    caputo_power_rule,
    operational_matrix,
)
from cltau.orthopoly import MonomialSeries, shifted_legendre_table
from cltau.quadrature import legendre_gauss_rule

_SQRT_PI = math.sqrt(math.pi)


def test_caputo_order_normalization():
    assert CaputoOrder(0.5).m == 1
    assert CaputoOrder(1.0).m == 1
    assert CaputoOrder(1.5).m == 2
    assert CaputoOrder(2.0).m == 2
    assert CaputoOrder(2.25).m == 3
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CaputoOrder(bad)


def test_caputo_order_m_is_derived_not_passed():
    with pytest.raises(TypeError):
        CaputoOrder(0.5, 7)
    with pytest.raises(TypeError):
        CaputoOrder(alpha=0.5, m=1)
    assert CaputoOrder(0.5) == CaputoOrder(0.5)
    assert hash(CaputoOrder(0.5)) == hash(CaputoOrder(0.5))
    assert CaputoOrder(0.5) != CaputoOrder(1.5)


def test_power_rule_classical_values():
    # D^(1/2) x = 2 sqrt(x / pi), the textbook half-derivative.
    coeff, expo = caputo_power_rule(1.0, 0.5)
    assert coeff == pytest.approx(2.0 / _SQRT_PI, rel=1e-15)
    assert expo == pytest.approx(0.5, abs=0)
    # D^alpha x^alpha = Gamma(alpha + 1), a constant.
    coeff, expo = caputo_power_rule(1.5, 1.5)
    assert coeff == pytest.approx(gamma(2.5), rel=1e-15)
    assert expo == 0.0
    # Integer order reduces to the classical derivative: D^2 x^5 = 20 x^3.
    coeff, expo = caputo_power_rule(5.0, 2.0)
    assert coeff == pytest.approx(20.0, rel=1e-15)
    assert expo == 3.0


def test_power_rule_annihilation_and_domain():
    # Integer powers below m vanish identically.
    assert caputo_power_rule(0.0, 0.5) == (0.0, 0.0)
    assert caputo_power_rule(0.0, 1.5) == (0.0, 0.0)
    assert caputo_power_rule(1.0, 1.5) == (0.0, 0.0)
    # Non-integer powers at or below m - 1 are outside the Caputo domain.
    with pytest.raises(ValueError):
        caputo_power_rule(0.5, 1.5)
    with pytest.raises(ValueError):
        caputo_power_rule(-0.5, 0.5)


def test_power_rule_past_the_gamma_overflow():
    # Gamma(beta + 1) overflows for beta > 170, but the coefficient of
    # D^(1/2) x^beta, Gamma(beta + 1)/Gamma(beta + 1/2), is near sqrt(beta).
    for beta in (171.0, 200.0, 500.0, 1000.0):
        coeff, expo = caputo_power_rule(beta, 0.5)
        with mpmath.workdps(30):
            expected = float(mpmath.gamma(beta + 1) / mpmath.gamma(beta + 0.5))
        assert abs(coeff - expected) <= 1e-12 * expected, beta
        assert expo == beta - 0.5
    # A coefficient past the float range itself is an error naming the exponent.
    with pytest.raises(ValueError, match=r"x\^171\.5 .* beyond the float range"):
        caputo_power_rule(171.5, 171.4)


def test_caputo_apply_drops_annihilated_terms():
    # D^(3/2) (8x + 3x^3) = 3 Gamma(4) / Gamma(5/2) x^(3/2) = (24 / sqrt(pi)) x^(3/2).
    series = MonomialSeries(((8.0, 1.0), (3.0, 3.0)))
    deriv = caputo_apply(series, 1.5)
    assert len(deriv.terms) == 1
    coeff, expo = deriv.terms[0]
    assert coeff == pytest.approx(24.0 / _SQRT_PI, rel=1e-14)
    assert expo == pytest.approx(1.5, abs=0)


def _oracle_matrix(alpha: float, n: int, sigma: int) -> np.ndarray:
    """(2j+1) int_0^1 D^alpha L_{1,i} L_{1,j} dx, all from first principles.

    After x = u^sigma every exponent sigma*(k - alpha) is an integer, so the
    integrand is a polynomial of degree <= sigma*(2n + 1) and the 64-point
    rule is exact with room to spare.  The derivative values are accumulated
    in mpmath because the monomial coefficients of L_{1,i} alternate and
    reach ~1e7 by i = 12, which costs float64 eight digits of cancellation.
    """
    m = math.ceil(alpha)
    entries = np.zeros((n + 1, n + 1))
    rule = legendre_gauss_rule(63)
    u, w = rule.nodes, rule.weights
    x = u ** sigma
    w = w * sigma * u ** (sigma - 1)
    basis = shifted_legendre_table(n, x)
    with mpmath.mp.workdps(40):
        a = mpmath.mpf(float(alpha))
        x_mp = [mpmath.mpf(float(up)) ** sigma for up in u]
        for i in range(m, n + 1):
            terms = [(q, k) for q, k in monomial_form_legendre(i).terms if k >= m]
            ratios = [mpmath.gamma(k + 1) / mpmath.gamma(k - a + 1) for _, k in terms]
            deriv = np.array([
                float(mpmath.fsum(q * r * xp ** (k - a)
                                  for (q, k), r in zip(terms, ratios)))
                for xp in x_mp])
            entries[i] = (2.0 * np.arange(n + 1) + 1.0) * ((w * deriv) @ basis.T)
    return entries


@pytest.mark.parametrize("alpha,sigma", [(0.25, 4), (0.5, 2), (0.75, 4), (1.5, 2), (2.5, 2)])
def test_operational_matrix_matches_first_principles_oracle(alpha, sigma):
    n = 12
    matrix = operational_matrix(alpha, n)
    oracle = _oracle_matrix(alpha, n, sigma)
    assert np.max(np.abs(matrix - oracle)) <= 1e-9
    # Rows below m = ceil(alpha) are exactly zero, not merely small.
    m = math.ceil(alpha)
    assert np.all(matrix[:m] == 0.0)
    assert matrix.shape == (n + 1, n + 1)


def test_operational_matrix_integer_collapse():
    # alpha = 1: D L_1 = 2 L_0 and D L_2 = 6 L_1.
    first = operational_matrix(1.0, 2)
    assert np.allclose(first, [[0, 0, 0], [2, 0, 0], [0, 6, 0]], rtol=0, atol=1e-12)
    # alpha = 2: D^2 L_2 = 12 L_0 and D^2 L_3 = 60 L_1.
    second = operational_matrix(2.0, 3)
    expected = np.zeros((4, 4))
    expected[2, 0] = 12.0
    expected[3, 1] = 60.0
    assert np.allclose(second, expected, rtol=0, atol=1e-12)


def test_operational_matrix_half_order_known_entry():
    # D^(1/2) L_{1,1} = D^(1/2) (2x - 1) = (4 / sqrt pi) sqrt(x), whose L_0
    # coefficient is int_0^1 of it: 8 / (3 sqrt pi).
    matrix = operational_matrix(0.5, 2)
    assert matrix[1, 0] == pytest.approx(8.0 / (3.0 * _SQRT_PI), rel=1e-13)


def test_operational_matrix_large_truncation_stays_finite():
    # The monomial double sum would cancel catastrophically in float64 by
    # N ~ 20; the Jacobi-Gauss construction never expands in monomials and
    # must stay bounded (entries grow like the derivative norms, nothing
    # worse) and keep the zero rows exact.
    matrix = operational_matrix(0.5, 32)
    assert np.all(np.isfinite(matrix))
    assert np.all(matrix[0] == 0.0)
    # Projection coefficients do not depend on the truncation, so the
    # top-left block must match the N = 12 oracle.
    oracle = _oracle_matrix(0.5, 12, 2)
    assert np.max(np.abs(matrix[:13, :13] - oracle)) <= 1e-9


def _mpmath_double_sum(alpha: float, n: int) -> np.ndarray:
    """S(i,j) = (2j+1) sum_k c_ik G(k) sum_l c_jl/(k+l-alpha+1) in mpmath.

    c are the exact integer monomial coefficients of the basis and
    G(k) = Gamma(k+1)/Gamma(k-alpha+1); the working precision 30 + 1.5n
    digits absorbs the cancellation between them.  This is the
    extended-precision construction the float64 builder replaced.
    """
    m = math.ceil(alpha)
    coeffs = [[int(q) for q, _ in monomial_form_legendre(i).terms] for i in range(n + 1)]
    entries = np.zeros((n + 1, n + 1))
    with mpmath.mp.workdps(30 + (3 * n) // 2):
        a = mpmath.mpf(alpha)
        grow = {k: mpmath.gamma(k + 1) / mpmath.gamma(k - a + 1) for k in range(m, n + 1)}
        inner = {}
        for k in range(m, n + 1):
            for j in range(n + 1):
                inner[k, j] = mpmath.fsum(
                    coeffs[j][l] / (k + l - a + 1) for l in range(j + 1))
        for i in range(m, n + 1):
            for j in range(n + 1):
                entries[i, j] = float((2 * j + 1) * mpmath.fsum(
                    coeffs[i][k] * grow[k] * inner[k, j] for k in range(m, i + 1)))
    return entries


@pytest.mark.parametrize("alpha,n", [(0.25, 8), (0.5, 8), (1.5, 8), (1.9, 8), (2.7, 8),
                                     (0.25, 32), (0.5, 32), (1.5, 32), (1.9, 32), (2.7, 32),
                                     (1.9, 64)])
def test_fractional_matrix_matches_extended_precision_double_sum(alpha, n):
    # Row-normalised, since rows grow like the derivative norms (~1e5 at
    # n = 64, alpha = 2.7); measured worst 4.0e-13.
    reference = _mpmath_double_sum(alpha, n)
    entries = operational_matrix(alpha, n)
    scale = np.max(np.abs(reference), axis=1, keepdims=True)
    m = math.ceil(alpha)
    assert np.all(entries[:m] == 0.0)
    assert np.max(np.abs(entries[m:] - reference[m:]) / scale[m:]) <= 1e-12


def _exact_derivative_matrix(n: int, m: int) -> np.ndarray:
    """Row i: shifted Legendre coefficients of the m-th derivative of L_{1,i},
    as Python integers, from L'_{1,i+1} = L'_{1,i-1} + 2 (2i+1) L_{1,i}."""
    rows = np.zeros((n + 1, n + 1), dtype=object)
    for i in range(n + 1):
        rows[i, i] = 1
    for _ in range(m):
        lower = rows
        rows = np.zeros((n + 1, n + 1), dtype=object)
        for i in range(n):
            rows[i + 1] = (rows[i - 1] if i >= 1 else 0) + 2 * (2 * i + 1) * lower[i]
    return rows


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_integer_matrix_is_exact_integers(m):
    n = 128
    exact = _exact_derivative_matrix(n, m)
    assert max(abs(int(v)) for v in exact.flat) < 2 ** 53
    entries = operational_matrix(m, n)
    assert np.array_equal(entries, exact.astype(float))


def test_integer_matrix_leading_block_does_not_depend_on_truncation():
    for m in (1, 2, 3):
        small = operational_matrix(m, 12)
        large = operational_matrix(m, 24)
        assert np.array_equal(small, large[:13, :13])


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 2.7])
def test_caputo_legendre_factors_match_power_rule(alpha):
    # D^alpha L_{1,j}(x) = x^(m-alpha) g_j(x): against the power rule applied
    # to the exact integer monomial forms, summed in 40-digit arithmetic, at
    # points that include both endpoints.
    n = 24
    m = math.ceil(alpha)
    x = np.array([0.0, 1e-3, 0.1, 0.37, 0.5, 0.83, 1.0])
    factors = _caputo_basis(CaputoOrder(alpha), 0, n, x)
    assert factors.shape == (n + 1, x.size)
    assert np.all(factors[:m] == 0.0)
    with mpmath.mp.workdps(40):
        a = mpmath.mpf(alpha)
        for j in range(m, n + 1):
            terms = [(q, k) for q, k in monomial_form_legendre(j).terms if k >= m]
            expected = np.array([float(mpmath.fsum(
                q * mpmath.gamma(k + 1) / mpmath.gamma(k - a + 1) * mpmath.mpf(xp) ** (k - m)
                for q, k in terms)) for xp in x])
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(factors[j] - expected)) <= 1e-14 * scale, f"j={j}"


def test_operational_matrix_transpose_projects_derivative():
    # y = 14x has Legendre coefficients (7, 7, 0, ...); matrix.T times them
    # must give the exact projection coefficients of D^(1/2) y =
    # (28 / sqrt pi) sqrt(x), whose closed form uses the beta integral
    # int x^(1/2) L_j = Gamma(3/2)^2 / (Gamma(3/2 - j) Gamma(j + 5/2)).
    n = 6
    matrix = operational_matrix(0.5, n)
    coeffs = np.zeros(n + 1)
    coeffs[0] = 7.0
    coeffs[1] = 7.0
    result = matrix.T @ coeffs
    g = math.gamma
    scale = 28.0 / _SQRT_PI
    for j in range(n + 1):
        expected = scale * (2 * j + 1) * g(1.5) ** 2 / (g(1.5 - j) * g(j + 2.5))
        assert result[j] == pytest.approx(expected, abs=1e-12)


def _single_sum_entries(alpha: float, n: int, corrected: bool = False) -> np.ndarray:
    """Single-sum closed forms of the operational matrix, non-integer alpha.

    With corrected=False this is the arrangement as printed,

        S(i,j) = sum_k (-1)^{i+k} (2j+1) (i+k)! Gamma(k-j-a+1)
                 / ((i-k)! k! Gamma(k-a+1) Gamma(k+j-a+1)),

    which does NOT reproduce the projection (max deviation 1.58e3 at
    alpha = 0.5 and 3.59e4 at alpha = 1.5, both at n = 8; entry (1, 0)
    comes out 2.2568 where the projection gives 8/(3 sqrt(pi)) = 1.5045).
    With corrected=True the gamma factors are transposed per the moment
    identity int_0^1 x^mu L_{1,j} dx = Gamma(mu+1)^2 / (Gamma(mu-j+1) Gamma(mu+j+2)):

        S(i,j) = sum_k (-1)^{i+k} (2j+1) (i+k)! Gamma(k-a+1)
                 / ((i-k)! k! Gamma(k-j-a+1) Gamma(k+j-a+2)),

    which agrees with operational_matrix to 1e-12.  Integer orders put
    gamma poles in both forms.
    """
    m = math.ceil(alpha)
    entries = np.zeros((n + 1, n + 1))
    with mpmath.mp.workdps(60):
        a = mpmath.mpf(alpha)
        for i in range(m, n + 1):
            for j in range(n + 1):
                total = mpmath.mpf(0)
                for k in range(m, i + 1):
                    lead = ((-1) ** (i + k) * (2 * j + 1) * mpmath.factorial(i + k)
                            / (mpmath.factorial(i - k) * mpmath.factorial(k)))
                    if corrected:
                        term = lead * mpmath.gamma(k - a + 1) / (
                            mpmath.gamma(k - j - a + 1) * mpmath.gamma(k + j - a + 2))
                    else:
                        term = lead * mpmath.gamma(k - j - a + 1) / (
                            mpmath.gamma(k - a + 1) * mpmath.gamma(k + j - a + 1))
                    total += term
                entries[i, j] = float(total)
    return entries


def test_single_sum_printed_form_disagrees():
    # The closed-form single sum, transcribed as printed, is far from the
    # projection matrix; the corrected gamma placement reproduces it.  The
    # frozen magnitudes document how wrong the printed form is.
    for alpha, printed_dev in ((0.5, 1.58e3), (1.5, 3.59e4)):
        exact = operational_matrix(alpha, 8)
        printed = _single_sum_entries(alpha, 8)
        corrected = _single_sum_entries(alpha, 8, corrected=True)
        dev = np.max(np.abs(printed - exact))
        assert dev == pytest.approx(printed_dev, rel=0.01)
        assert np.max(np.abs(corrected - exact)) <= 1e-11


def test_single_sum_printed_value_spot_check():
    # Printed (1, 0) entry at alpha = 0.5 evaluates to 2.2568 where the
    # projection gives 8 / (3 sqrt pi) = 1.5045.
    printed = _single_sum_entries(0.5, 2)
    assert printed[1, 0] == pytest.approx(2.2567583, rel=1e-6)
    assert operational_matrix(0.5, 2)[1, 0] == pytest.approx(1.5045055, rel=1e-6)


def test_operational_matrix_validation():
    with pytest.raises(ValueError):
        operational_matrix(-0.5, 4)
    with pytest.raises(ValueError):
        operational_matrix(0.5, -1)


@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_order_zero_is_the_cached_float64_identity(n):
    # Order 0 is the zeroth power of the first-derivative matrix: the
    # identity bit for bit.
    matrix = operational_matrix(0, n)
    assert matrix.shape == (n + 1, n + 1)
    assert matrix.dtype == np.float64
    assert matrix.tobytes() == np.eye(n + 1).tobytes()
