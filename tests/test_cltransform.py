"""Legendre/Chebyshev coefficient transforms and Chebyshev-Gauss
interpolation: inverse-pair identities, the parity/triangular zero pattern,
hand-expanded low-degree entries, and spectral interpolation accuracy."""

import math

import numpy as np
import pytest

from cltau.cltransform import chebyshev_interpolate, transform_pair
from cltau.orthopoly import ChebyshevSeries, LegendreSeries


def chebyshev_to_legendre(series: ChebyshevSeries) -> LegendreSeries:
    """Re-expand a shifted Chebyshev series in the shifted Legendre basis."""
    pair = transform_pair(series.degree)
    return LegendreSeries(pair.b @ series.coeffs)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_transforms_are_mutual_inverses(n):
    pair = transform_pair(n)
    eye = np.eye(n + 1)
    assert np.max(np.abs(pair.a @ pair.b - eye)) <= 1e-12
    assert np.max(np.abs(pair.b @ pair.a - eye)) <= 1e-12


@pytest.mark.parametrize("n", [4, 8, 16, 33])
def test_structural_zero_pattern_is_exact(n):
    # Both bases consist of polynomials with parity about x = 1/2, so the
    # change of basis is upper triangular with matching-parity entries; the
    # remaining entries must be exactly zero, not small.
    pair = transform_pair(n)
    for i in range(n + 1):
        for j in range(n + 1):
            if j < i or (i + j) % 2 == 1:
                assert pair.a[i, j] == 0.0
                assert pair.b[i, j] == 0.0


def test_hand_expanded_entries():
    # L_{1,2} = (1/4) T_{1,0} + (3/4) T_{1,2} and
    # T_{1,2} = -(1/3) L_{1,0} + (4/3) L_{1,2}.
    pair = transform_pair(3)
    assert pair.a[0, 2] == pytest.approx(0.25, abs=1e-14)
    assert pair.a[2, 2] == pytest.approx(0.75, abs=1e-14)
    assert pair.b[0, 2] == pytest.approx(-1.0 / 3.0, abs=1e-14)
    assert pair.b[2, 2] == pytest.approx(4.0 / 3.0, abs=1e-14)
    # Degrees 0 and 1 coincide in the two families.
    assert pair.a[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert pair.a[1, 1] == pytest.approx(1.0, abs=1e-14)


def test_diagonal_is_leading_coefficient_ratio():
    # a[j, j] = lead(L_{1,j}) / lead(T_{1,j}) = binom(2j, j) / 2^(2j - 1)
    # for j >= 1 (the leading coefficients are binom(2j, j) and 2^(2j - 1)).
    pair = transform_pair(8)
    assert pair.a[0, 0] == pytest.approx(1.0, abs=1e-14)
    for j in range(1, 9):
        expected = math.comb(2 * j, j) / 2.0 ** (2 * j - 1)
        assert pair.a[j, j] == pytest.approx(expected, rel=1e-13)


def test_series_round_trip():
    rng = np.random.default_rng(42)
    coeffs = rng.uniform(-3.0, 3.0, size=17)
    leg = LegendreSeries(coeffs)
    cheb = ChebyshevSeries(transform_pair(leg.degree).a @ leg.coeffs)
    back = chebyshev_to_legendre(cheb)
    assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-10
    x = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(cheb(x) - leg(x))) <= 1e-10


def test_chebyshev_interpolate_reproduces_polynomials():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return x ** 3 - 2.0 * x + 1.0

    interp = chebyshev_interpolate(f, 5)
    assert calls == [(6,)]  # one call, on the whole node array
    x = np.linspace(0.0, 1.0, 33)
    assert np.max(np.abs(interp(x) - f(x))) <= 1e-13
    # A constant forcing need not broadcast itself.
    constant = chebyshev_interpolate(lambda x: 2.0, 5).coeffs
    assert np.allclose(constant, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)
    # Degree beyond n is genuinely truncated, not magically recovered.
    coarse = chebyshev_interpolate(f, 2)
    assert np.max(np.abs(coarse(x) - f(x))) > 1e-3


def test_chebyshev_interpolate_known_coefficients():
    # f = T_{1,0} + 0.5 T_{1,3} must come back as its own coefficients.
    target = ChebyshevSeries(np.array([1.0, 0.0, 0.0, 0.5]))
    interp = chebyshev_interpolate(target, 3)
    assert np.allclose(interp.coeffs, target.coeffs, rtol=0, atol=1e-14)


def test_chebyshev_interpolate_spectral_decay():
    errors = []
    x = np.linspace(0.0, 1.0, 101)
    for n in (4, 8, 16):
        interp = chebyshev_interpolate(np.exp, n)
        errors.append(np.max(np.abs(interp(x) - np.exp(x))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-13


def test_interpolate_rejects_non_finite_values():
    with pytest.raises(ValueError):
        chebyshev_interpolate(lambda x: float("nan"), 4)


def test_transform_pair_validation_and_caching():
    with pytest.raises(ValueError):
        transform_pair(-1)
    assert transform_pair(8) is transform_pair(8)
    with pytest.raises(ValueError):
        transform_pair(8).a[0, 0] = 2.0  # frozen buffers
