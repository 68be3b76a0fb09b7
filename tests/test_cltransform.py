"""Chebyshev interpolation in the Legendre frame: chebyshev_interpolate and
its cached sampling-to-projection map against a 40-digit projection of the
same interpolant, polynomial reproduction and spectral accuracy.  The
Chebyshev<->Legendre coefficient transform pair and the Chebyshev discrete
transform are test oracles here (the acceptance and solver tests use them
too); their own checks are the inverse-pair identities, the
parity/triangular zero pattern and hand-expanded low-degree entries."""

import math
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from test_orthopoly import shifted_chebyshev_table

from cltau import cltransform
from cltau.cltransform import chebyshev_interpolate
from cltau.orthopoly import LegendreSeries, shifted_legendre_table
from cltau.quadrature import chebyshev_gauss_rule, legendre_gauss_rule
from cltau.solver import builtin_example


class TransformPair(NamedTuple):
    """a: Legendre->Chebyshev coefficient matrix; b: its inverse. a @ b = I."""

    a: np.ndarray
    b: np.ndarray


def transform_pair(n: int) -> TransformPair:
    """Transform matrices for degrees 0..n: for u = sum_j beta_j L_{1,j} =
    sum_j alpha_j T_{1,j}, alpha = a beta and beta = b alpha.

    a[i, j] = (T_{1,i}, L_{1,j})_w / h_i with the Chebyshev weight
    (x - x^2)^(-1/2), h_0 = pi and h_i = pi/2 otherwise, via Chebyshev-Gauss
    quadrature; b[i, j] = (2i+1) (L_{1,i}, T_{1,j}) via Legendre-Gauss.  Both
    integrands have degree <= 2n, so the (n+1)-point rules are exact.
    Entries with i > j or i + j odd vanish by parity and are pinned to
    exact zeros.
    """
    i, j = np.indices((n + 1, n + 1))
    upper_even = (j >= i) & ((j - i) % 2 == 0)
    cg = chebyshev_gauss_rule(n)
    h = np.full(n + 1, np.pi / 2.0)
    h[0] = np.pi
    a = ((shifted_chebyshev_table(n, cg.nodes) * cg.weights)
         @ shifted_legendre_table(n, cg.nodes).T) / h[:, None]
    lg = legendre_gauss_rule(n)
    b = ((shifted_legendre_table(n, lg.nodes) * lg.weights)
         @ shifted_chebyshev_table(n, lg.nodes).T) * (2.0 * np.arange(n + 1) + 1.0)[:, None]
    a[~upper_even] = 0.0
    b[~upper_even] = 0.0
    return TransformPair(a, b)


def chebyshev_dct(n: int) -> np.ndarray:
    """The discrete Chebyshev transform at the n+1 shifted Chebyshev-Gauss
    points: dct @ f(x) holds the shifted Chebyshev coefficients of the
    interpolant, u_k = (2 - delta_{k0})/(n+1) sum_j f(x_j) T_{1,k}(x_j)."""
    scale = np.full(n + 1, 2.0 / (n + 1))
    scale[0] = 1.0 / (n + 1)
    return scale[:, None] * shifted_chebyshev_table(n, chebyshev_gauss_rule(n).nodes)


def chebyshev_to_legendre(coeffs) -> LegendreSeries:
    """Re-expand shifted Chebyshev coefficients in the shifted Legendre basis."""
    return LegendreSeries(transform_pair(len(coeffs) - 1).b @ coeffs)


def _legendre_values(m: int, t) -> list:
    """P_0(t)..P_m(t) by the three-term recurrence, in the working precision."""
    values = [mpmath.mpf(1), t]
    for k in range(1, m):
        values.append(((2 * k + 1) * t * values[k] - k * values[k - 1]) / (k + 1))
    return values[:m + 1]


def projection_40_digits(values, n: int) -> np.ndarray:
    """(I_n v, L_{1,k}) for k = 0..n at 40 digits, for each column v of values.

    I_n v interpolates the float samples v at the float nodes y_j of
    chebyshev_gauss_rule(n), in barycentric form with the weights
    1/prod_k (y_j - y_k) of those very nodes.  It is integrated against
    L_{1,k} by the (n + 2)-point Legendre-Gauss rule, exact through degree
    2n + 3, whose float nodes are refined by Newton steps on P_{n+2}; with
    n + 2 points no node of it falls on a Chebyshev node.
    """
    values = np.asarray(values, dtype=float)
    columns = values.reshape(n + 1, -1).T
    with mpmath.workdps(40):
        y = [mpmath.mpf(float(v)) for v in chebyshev_gauss_rule(n).nodes]
        lam = [1 / mpmath.fprod(y[j] - y[k] for k in range(n + 1) if k != j)
               for j in range(n + 1)]
        samples = [[mpmath.mpf(float(v)) for v in column] for column in columns]
        out = [[mpmath.mpf(0)] * (n + 1) for _ in samples]
        for node in legendre_gauss_rule(n + 1).nodes:
            t = 2 * mpmath.mpf(float(node)) - 1
            for _ in range(3):
                p = _legendre_values(n + 2, t)
                dp = (n + 2) * (t * p[-1] - p[-2]) / (t * t - 1)
                t -= p[-1] / dp
            weight = 1 / ((1 - t * t) * dp * dp)  # 2/((1 - t^2) P'^2), halved for (0, 1)
            terms = [lj / ((t + 1) / 2 - yj) for lj, yj in zip(lam, y)]
            total = mpmath.fsum(terms)
            basis = _legendre_values(n, t)
            for column, target in zip(samples, out):
                value = weight * mpmath.fdot(terms, column) / total
                for k in range(n + 1):
                    target[k] += value * basis[k]
        result = np.array([[float(v) for v in target] for target in out]).T
    return result.reshape(values.shape)


def _interpolant(f, n: int) -> LegendreSeries:
    """The interpolant as a Legendre series: coefficient k is (2k+1) f_k."""
    return LegendreSeries((2.0 * np.arange(n + 1) + 1.0) * chebyshev_interpolate(f, n))


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
    cheb = transform_pair(leg.degree).a @ leg.coeffs
    back = chebyshev_to_legendre(cheb)
    assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-10
    x = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(np.polynomial.chebyshev.chebval(2.0 * x - 1.0, cheb) - leg(x))) <= 1e-10


def test_chebyshev_interpolate_reproduces_polynomials():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return x ** 3 - 2.0 * x + 1.0

    interp = _interpolant(f, 5)
    assert calls == [(6,)]  # one call, on the whole node array
    x = np.linspace(0.0, 1.0, 33)
    assert np.max(np.abs(interp(x) - f(x))) <= 1e-13
    # A constant forcing need not broadcast itself.
    constant = chebyshev_interpolate(lambda x: 2.0, 5)
    assert np.allclose(constant, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)
    # Degree beyond n is genuinely truncated, not magically recovered.
    coarse = _interpolant(f, 2)
    assert np.max(np.abs(coarse(x) - f(x))) > 1e-3


def test_chebyshev_interpolate_known_coefficients():
    # f = T_{1,0} + 0.5 T_{1,3} = L_{1,0} - 0.3 L_{1,1} + 0.8 L_{1,3}, since
    # T_3 = (8/5) P_3 - (3/5) P_1; its projections are those over 2k + 1.
    def target(x):
        return np.polynomial.chebyshev.chebval(2.0 * x - 1.0, [1.0, 0.0, 0.0, 0.5])

    projections = chebyshev_interpolate(target, 3)
    assert np.allclose(projections, [1.0, -0.1, 0.0, 0.8 / 7.0], rtol=0, atol=1e-14)


def test_chebyshev_interpolate_spectral_decay():
    errors = []
    x = np.linspace(0.0, 1.0, 101)
    for n in (4, 8, 16):
        errors.append(np.max(np.abs(_interpolant(np.exp, n)(x) - np.exp(x))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-13


def test_interpolate_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite forcing sample"):
        chebyshev_interpolate(lambda x: float("nan"), 4)


@pytest.mark.filterwarnings("error")
def test_interpolate_rejects_complex_values():
    # float64 would keep only the real part, so the imaginary one would
    # vanish without an error.
    with pytest.raises(ValueError, match="forcing returned complex samples"):
        chebyshev_interpolate(lambda x: x + 0.5j, 4)
    with pytest.raises(ValueError, match="forcing returned shape"):
        chebyshev_interpolate(lambda x: np.ones(3), 4)


def test_forcing_map_validation_and_caching():
    with pytest.raises(ValueError):
        chebyshev_interpolate(np.exp, -1)
    assert cltransform._legendre_projection(8) is cltransform._legendre_projection(8)
    with pytest.raises(ValueError):
        cltransform._legendre_projection(8)[4][0, 0] = 2.0  # frozen buffers


@pytest.mark.parametrize("n", [16, 48, 96])
def test_forcing_map_matches_a_40_digit_projection(n):
    # Each catalog forcing's float samples, mapped by the cached float64
    # matrix, against the exact projection of their interpolant.  The
    # deviation is measured against the largest sample, the scale of the
    # map's rounding: problem 5.2 has samples up to 6.4 and projections
    # below 1.
    nodes = chebyshev_gauss_rule(n).nodes
    for example_id in ("5.1", "5.2", "5.3", "5.4"):
        samples = builtin_example(example_id).problem.forcing(nodes)
        reference = projection_40_digits(samples, n)
        deviation = np.max(np.abs(cltransform._legendre_projection(n)[4] @ samples - reference))
        assert deviation <= 1e-15 * np.max(np.abs(samples)), f"{example_id}: {deviation:.3e}"


def test_forcing_map_is_finite_and_read_only_for_every_size():
    # The barycentric denominators x_q - y_j never vanish: the Chebyshev
    # rule holds an exact 0.5 for even n, the Legendre rule for odd n.
    for n in range(257):
        *_, nodes, matrix = cltransform._legendre_projection(n)
        assert matrix.shape == (n + 1, n + 1) and np.all(np.isfinite(matrix)), f"n={n}"
        assert not nodes.flags.writeable and not matrix.flags.writeable
