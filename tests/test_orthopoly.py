"""Shifted Legendre/Chebyshev tables and series evaluation, checked against
hand-expanded low-degree polynomials, exact closed monomial forms, endpoint
identities, and quadrature orthogonality.  The closed monomial forms and
the shifted Chebyshev table are test oracles (the fracderiv, cltransform
and solver tests use them too); the package itself never expands a basis
polynomial in monomials and never tabulates T_{1,k}."""

from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest

from cltau.orthopoly import LegendreSeries, MonomialSeries, shifted_legendre_table
from cltau.quadrature import legendre_gauss_rule

# Hand-expanded shifted polynomials on [0, 1] (degree: monomial coefficients,
# ascending).  L_{1,k}(x) = P_k(2x - 1), T_{1,k}(x) = T_k(2x - 1).
_LEGENDRE_LOW = {
    0: (1,),
    1: (-1, 2),
    2: (1, -6, 6),
    3: (-1, 12, -30, 20),
    4: (1, -20, 90, -140, 70),
}
_CHEBYSHEV_LOW = {
    0: (1,),
    1: (-1, 2),
    2: (1, -8, 8),
    3: (-1, 18, -48, 32),
}


def shifted_chebyshev_table(n: int, x) -> np.ndarray:
    """Values of T_{1,0}..T_{1,n} at x in [0, 1]; row k holds degree k (numpy's
    Chebyshev Vandermonde matrix, the three-term recurrence, at t = 2x - 1)."""
    t = 2.0 * np.asarray(x, dtype=float) - 1.0
    return np.moveaxis(np.polynomial.chebyshev.chebvander(t, n), -1, 0)


def _poly(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def monomial_form_legendre(i: int) -> MonomialSeries:
    """Exact monomial expansion of L_{1,i}.

    L_{1,i}(x) = sum_k (-1)^{i+k} (i+k)! / ((i-k)! (k!)^2) x^k.  Coefficients
    are exact integers at every degree; note that evaluating the monomial
    form in float64 loses accuracy past i ~ 30 (the coefficients exceed
    2^53), so use shifted_legendre_table for large degrees.
    """
    terms = []
    for k in range(i + 1):
        c = (-1) ** (i + k) * (factorial(i + k) // (factorial(i - k) * factorial(k) ** 2))
        terms.append((c, k))
    return MonomialSeries(tuple(terms))


def monomial_form_chebyshev(i: int) -> MonomialSeries:
    """Exact monomial expansion of T_{1,i}.

    T_{1,i}(x) = i * sum_k (-1)^{i-k} (i+k-1)! 4^k / ((i-k)! (2k)!) x^k for
    i >= 1; T_{1,0} = 1.  Individual terms of the sum are not integers, so
    they are accumulated as exact rationals and verified integral.
    """
    if i == 0:
        return MonomialSeries(((1, 0),))
    terms = []
    for k in range(i + 1):
        c = (Fraction(i) * (-1) ** (i - k) * factorial(i + k - 1) * 4**k
             / (factorial(i - k) * factorial(2 * k)))
        if c.denominator != 1:
            raise AssertionError(f"non-integer Chebyshev monomial coefficient at i={i}, k={k}")
        terms.append((int(c), k))
    return MonomialSeries(tuple(terms))


def test_legendre_table_matches_hand_expansions():
    x = np.linspace(0.0, 1.0, 17)
    table = shifted_legendre_table(4, x)
    for k, coeffs in _LEGENDRE_LOW.items():
        assert np.allclose(table[k], _poly(coeffs, x), rtol=0, atol=1e-13)


def test_chebyshev_table_matches_hand_expansions():
    x = np.linspace(0.0, 1.0, 17)
    table = shifted_chebyshev_table(3, x)
    for k, coeffs in _CHEBYSHEV_LOW.items():
        assert np.allclose(table[k], _poly(coeffs, x), rtol=0, atol=1e-13)


def test_endpoint_values():
    # Both families satisfy p_k(1) = 1 and p_k(0) = (-1)^k.
    for table in (shifted_legendre_table, shifted_chebyshev_table):
        vals = table(12, np.array([0.0, 1.0]))
        signs = (-1.0) ** np.arange(13)
        assert np.allclose(vals[:, 0], signs, rtol=0, atol=1e-13)
        assert np.allclose(vals[:, 1], 1.0, rtol=0, atol=1e-13)


def test_recurrence_agrees_with_exact_monomial_forms():
    # The closed-form coefficients are exact integers, but float64 EVALUATION
    # of the monomial sums cancels catastrophically as the degree grows (the
    # coefficients alternate and reach ~1e7 by degree 12), so the tight
    # comparison stops at degree 10 and the tolerance widens with degree.
    rng = np.random.default_rng(20260816)
    x = rng.uniform(0.0, 1.0, size=64)
    leg = shifted_legendre_table(14, x)
    cheb = shifted_chebyshev_table(14, x)
    for i in range(11):
        assert np.allclose(leg[i], monomial_form_legendre(i)(x), rtol=0, atol=1e-9)
        assert np.allclose(cheb[i], monomial_form_chebyshev(i)(x), rtol=0, atol=1e-9)
    for i in range(11, 15):
        assert np.allclose(leg[i], monomial_form_legendre(i)(x), rtol=0, atol=1e-5)
        assert np.allclose(cheb[i], monomial_form_chebyshev(i)(x), rtol=0, atol=1e-5)


def test_monomial_form_coefficients_are_exact_ints():
    for i in range(8):
        for q, p in monomial_form_legendre(i).terms:
            assert isinstance(q, int) and float(p) == int(p)
        for q, p in monomial_form_chebyshev(i).terms:
            assert isinstance(q, int) and float(p) == int(p)
    # Spot values: leading coefficient of L_{1,n} is binom(2n, n) * ... ;
    # easier to pin the full expansions already listed above.
    assert tuple(q for q, _ in monomial_form_legendre(3).terms) == (-1, 12, -30, 20)
    assert tuple(q for q, _ in monomial_form_chebyshev(3).terms) == (-1, 18, -48, 32)


def test_single_index_evaluators_match_tables():
    x = np.linspace(0.0, 1.0, 9)
    leg = shifted_legendre_table(6, x)
    cheb = shifted_chebyshev_table(6, x)
    for i in range(7):
        assert np.allclose(shifted_legendre_table(i, x)[i], leg[i], rtol=0, atol=0)
        assert np.allclose(shifted_chebyshev_table(i, x)[i], cheb[i], rtol=0, atol=0)
    assert shifted_legendre_table(2, 0.5)[2] == pytest.approx(-0.5, abs=1e-15)


def test_legendre_orthogonality():
    # <L_i, L_j> = delta_ij / (2i + 1) on [0, 1]; a 33-point rule is exact
    # through degree 65.
    rule = legendre_gauss_rule(32)
    table = shifted_legendre_table(16, rule.nodes)
    gram = (table * rule.weights) @ table.T
    expected = np.diag(1.0 / (2.0 * np.arange(17) + 1.0))
    assert np.max(np.abs(gram - expected)) < 1e-14


def test_chebyshev_discrete_orthogonality():
    # T_{1,i} are orthogonal under the Chebyshev weight; check the plain
    # continuous inner products against the classical values via substitution
    # x = (1 + cos phi) / 2 on a trapezoid-dense grid is overkill here, so
    # instead pin the Gauss-Chebyshev discrete orthogonality used by the
    # interpolation transform: sum_m T_i(x_m) T_j(x_m) over the n+1 roots.
    n = 8
    k = np.arange(n + 1)
    x = 0.5 * (1.0 + np.cos((2.0 * k + 1.0) * np.pi / (2.0 * (n + 1))))
    table = shifted_chebyshev_table(n, x)
    gram = table @ table.T
    expected = np.diag(np.full(n + 1, (n + 1) / 2.0))
    expected[0, 0] = n + 1.0
    assert np.max(np.abs(gram - expected)) < 1e-12


def test_series_evaluation_matches_explicit_sum():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=33)
    coeffs = rng.uniform(-2.0, 2.0, size=11)
    leg_table = shifted_legendre_table(10, x)
    leg = LegendreSeries(coeffs)
    assert np.allclose(leg(x), coeffs @ leg_table, rtol=1e-13, atol=1e-13)
    # scalar in, scalar out
    assert isinstance(leg(0.3), float)


def test_series_evaluation_is_accurate_at_degree_256():
    # Reference: the three-term recurrence in 40-digit arithmetic.  Summing
    # the recurrence rows gives at most 1.4e-15 * sum |c_k| on these inputs;
    # a Clenshaw recursion gives 5.2e-14 on the all-ones profile.
    degree, rng = 256, np.random.default_rng(11)
    x = np.concatenate((np.linspace(0.0, 1.0, 41), [1e-3, 1.0 - 1e-3]))
    profiles = (rng.uniform(-1.0, 1.0, degree + 1), np.ones(degree + 1),
                rng.choice([-1.0, 1.0], degree + 1) / np.arange(1.0, degree + 2.0) ** 2)
    with mpmath.workdps(40):
        reference = np.empty((degree + 1, x.size), dtype=object)
        for q, xq in enumerate(x):
            t = 2 * mpmath.mpf(float(xq)) - 1
            reference[0, q], reference[1, q] = mpmath.mpf(1), t
            for k in range(2, degree + 1):
                reference[k, q] = ((2 * k - 1) * t * reference[k - 1, q]
                                   - (k - 1) * reference[k - 2, q]) / k
        for coeffs in profiles:
            exact = np.array([float(v) for v in [mpmath.mpf(float(c)) for c in coeffs] @ reference])
            error = np.max(np.abs(LegendreSeries(coeffs)(x) - exact))
            assert error <= 5e-15 * np.abs(coeffs).sum()


def test_monomial_series_fractional_exponents():
    s = MonomialSeries(((2.0, 1.5), (-1.0, 0.0)))
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(s(x), 2.0 * x ** 1.5 - 1.0, rtol=0, atol=0)
    with pytest.raises(ValueError):
        MonomialSeries(((1.0, -1.0),))  # not integrable
    with pytest.raises(ValueError):
        MonomialSeries(((float("nan"), 1.0),))


def _termwise(terms, x):
    """Per-term loop reference: the sum and the sum of absolute terms."""
    x = np.asarray(x, dtype=float)
    total, magnitude = np.zeros(x.shape), np.zeros(x.shape)
    for q, p in terms:
        term = float(q) * x ** float(p)
        total += term
        magnitude += np.abs(term)
    return total, magnitude


def test_monomial_series_matches_termwise_sum():
    # The broadcast sums the terms in another order than the loop; measured
    # worst 1.5 * eps * sum |q x^p| on these inputs.
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    inputs = (np.linspace(0.0, 1.0, 41), rng.uniform(0.0, 1.0, (5, 7)), np.zeros((2, 3)))
    for count in (1, 4, 12, 21):
        powers = np.concatenate(([0.0, 0.5], rng.integers(1, 20, count),
                                 rng.uniform(0.0, 9.0, count)))
        coeffs = rng.standard_normal(powers.size) * 10.0 ** rng.integers(-3, 4, powers.size)
        series = MonomialSeries(tuple(zip(coeffs.tolist(), powers.tolist())))
        for x in inputs:
            value = series(x)
            total, magnitude = _termwise(series.terms, x)
            assert value.shape == x.shape
            assert np.all(np.abs(value - total) <= 8.0 * eps * magnitude)
        scalar = series(0.3)
        total, magnitude = _termwise(series.terms, 0.3)
        assert isinstance(scalar, float)
        assert abs(scalar - total) <= 8.0 * eps * magnitude
    at_zero = MonomialSeries(((2.0, 0.0), (3.0, 0.5), (4.0, 1.0)))
    assert at_zero(0.0) == 2.0
    empty = MonomialSeries(())
    assert empty(0.5) == 0.0
    assert empty(np.ones((2, 3)) / 2).shape == (2, 3)


def test_monomial_series_overflows_to_inf_without_a_warning():
    # Callers check the samples for finiteness and name the function; the
    # suite's filter turns an overflow warning into a failure.
    series = MonomialSeries(((1e308, 0.0), (1e308, 1.0)))
    assert series(np.array([0.0, 0.5, 1.0])).tolist() == [1e308, 1.5e308, np.inf]


def test_legendre_series_overflows_to_inf_without_a_warning():
    # As for MonomialSeries: the sum near x = 1 passes the float range.
    series = LegendreSeries([1e308] * 3)
    assert series(np.array([0.0, 0.5, 0.95, 1.0])).tolist() == [1e308, 5e307, np.inf, np.inf]


@pytest.mark.parametrize("coeffs, message", [
    ([[1.0, 2.0]], "one-dimensional and non-empty"),
    ([], "one-dimensional and non-empty"),
    ([1.0, np.nan], "non-finite coefficient"),
    ([np.inf], "non-finite coefficient"),
], ids=["2-d", "empty", "nan", "inf"])
def test_legendre_series_rejects_bad_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        LegendreSeries(coeffs)


def test_domain_validation():
    with pytest.raises(ValueError):
        shifted_legendre_table(4, np.array([-0.1]))
    with pytest.raises(ValueError):
        LegendreSeries([1.0, 2.0])(np.array([1.1]))
    with pytest.raises(ValueError):
        shifted_legendre_table(-1, np.array([0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            MonomialSeries(((1.0, 1.0),))(np.array([0.5, bad]))
    for bad in (2.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            shifted_legendre_table(3, np.array([0.5, bad]))
