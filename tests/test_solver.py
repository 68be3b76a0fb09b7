"""Tau solver: kernel moments and forcing projections against closed forms,
a fully hand-checked 2x2 assembly, the built-in problem catalog with frozen
error magnitudes, manufactured-solution round trips, scaling equivariance,
the convergence-study classifier, and the solve against a scipy LU
reference, including both ways the pivot gate is decided."""

import json
import math
import sys
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from math import gamma

import mpmath
import numpy as np
import pytest
import scipy.linalg

from test_cltransform import projection_40_digits
from test_orthopoly import monomial_form_legendre

from cltau import cli, cltransform, exprlang, fracderiv, orthopoly, solver
from cltau.cltransform import chebyshev_interpolate
from cltau.fracderiv import (CaputoOrder, caputo_apply, caputo_legendre_factors,
                             operational_matrix)
from cltau.orthopoly import MonomialSeries, shifted_legendre_table
from cltau.quadrature import legendre_gauss_rule
from cltau.solver import (
    ConvergenceEntry,
    ConvergenceReport,
    DecayFit,
    FIDEProblem,
    SolverError,
    assemble_system,
    builtin_example,
    builtin_example_ids,
    convergence_study,
    error_norms,
    example_config,
    fredholm_block,
    initial_condition_residuals,
    mms_forcing,
    solve_fide,
    tau_residuals,
)

_SQRT_PI = math.sqrt(math.pi)


def _const_kernel(value):
    return lambda t, s: np.full(np.broadcast(t, s).shape, value)


def _zero_forcing(t):
    return np.zeros_like(np.asarray(t, dtype=float))


# ---------------------------------------------------------------- moments

@dataclass(frozen=True)
class KernelMoments:
    """entries[l, r] = (2r+1) * double integral of k(x, s) L_{1,l}(s)
    L_{1,r}(x): the L_{1,r}-coefficient of the Legendre projection of
    x -> integral_0^1 k(x, s) L_{1,l}(s) ds."""

    truncation: int
    entries: np.ndarray


def kernel_moments(kernel, truncation: int, quad_points: int | None = None,
                   s_power: int = 1) -> KernelMoments:
    """Reference for the kernel term: project x -> integral_0^1 k(x, s)
    L_{1,l}(s) ds onto the Legendre basis with quad_points points (default
    truncation + 16), in s by the package's singular rule with phi = 0, in x
    by the shifted Legendre-Gauss rule.  Exact for kernels polynomial of
    degree <= truncation in x and polynomial in s**(1/s_power)."""
    quad_points = truncation + 16 if quad_points is None else quad_points
    s, ws = solver._singular_rule(quad_points, 0.0, s_power)
    rule = legendre_gauss_rule(quad_points - 1)
    weighted = rule.weights[:, None] * shifted_legendre_table(truncation, rule.nodes).T
    samples = np.broadcast_to(kernel(rule.nodes[:, None], s[None, :]), (rule.npoints, s.size))
    inner = samples @ (ws * shifted_legendre_table(truncation, s)).T
    entries = (inner.T @ weighted) * (2.0 * np.arange(truncation + 1) + 1.0)
    entries.flags.writeable = False
    return KernelMoments(truncation, entries)


def test_kernel_moments_product_kernel_closed_form():
    # k(x, s) = x s separates: entries[l, r] = (2r+1) (int s L_l)(int x L_r),
    # and int_0^1 s L_{1,l}(s) ds is 1/2, 1/6, 0, 0, ... by orthogonality.
    moments = kernel_moments(lambda t, s: t * s, 2)
    expected = np.array([[0.25, 0.25, 0.0],
                         [1.0 / 12.0, 1.0 / 12.0, 0.0],
                         [0.0, 0.0, 0.0]])
    assert np.allclose(moments.entries, expected, rtol=0, atol=1e-14)
    assert moments.truncation == 2
    with pytest.raises(ValueError):
        moments.entries[0, 0] = 1.0  # frozen buffer


def test_kernel_moments_polynomial_kernels_are_quadrature_exact():
    kernel = lambda t, s: 1.0 + t * s ** 2 - 0.5 * t ** 2
    default = kernel_moments(kernel, 4)
    dense = kernel_moments(kernel, 4, quad_points=200)
    assert np.max(np.abs(default.entries - dense.entries)) <= 1e-14


def test_kernel_moments_s_power_substitution():
    # k(x, s) = sqrt(s): with s = u^2 the inner integrand is polynomial, so
    # the moments match the beta closed form int_0^1 s^(1/2) L_{1,l} =
    # Gamma(3/2)^2 / (Gamma(3/2 - l) Gamma(l + 5/2)) to machine precision.
    moments = kernel_moments(lambda t, s: np.sqrt(s) * np.ones_like(t), 4, s_power=2)
    for l in range(5):
        expected = gamma(1.5) ** 2 / (gamma(1.5 - l) * gamma(l + 2.5))
        assert moments.entries[l, 0] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(moments.entries[l, 1:], 0.0, rtol=0, atol=1e-14)
    # Without the substitution the same moments carry visible quadrature
    # error; this is the measured gap the substitution exists to close.
    plain = kernel_moments(lambda t, s: np.sqrt(s) * np.ones_like(t), 4)
    worst = max(abs(plain.entries[l, 0]
                    - gamma(1.5) ** 2 / (gamma(1.5 - l) * gamma(l + 2.5)))
                for l in range(5))
    assert 1e-8 < worst < 1e-4


@pytest.mark.parametrize("s_power", [1.5, 0, True, 2.0])
def test_fredholm_block_checks_s_power(s_power):
    # As FIDEProblem and mms_forcing do, before the table store, which takes
    # True and 1 for one key.
    with pytest.raises(ValueError, match="kernel_s_power must be an integer >= 1"):
        fredholm_block(lambda t, s: t * s, 0.5, 8, s_power)


def test_fredholm_block_rejects_non_finite_kernel():
    with pytest.raises(ValueError, match="non-finite kernel"):
        fredholm_block(lambda t, s: np.full(np.broadcast(t, s).shape, np.nan), 0.5, 2)


@pytest.mark.filterwarnings("error")
def test_complex_kernel_is_rejected_not_cut_to_its_real_part():
    problem = FIDEProblem(n=1, a=(0.0, 1.0), order=0.5, kernel=lambda t, s: t * s * (1 + 1j),
                          forcing=lambda t: t, ics=(0.0,))
    with pytest.raises(ValueError, match="kernel returned complex samples"):
        solve_fide(problem, 8)


def _per_truncation_block(kernel, alpha, truncation, s_power):
    """fredholm_block with its own (truncation + 16)-point inner rule and
    Caputo table, in the operations and order of fredholm_block."""
    order = CaputoOrder(alpha)
    s, weights = solver._singular_rule(truncation + 16, order.m - order.alpha, s_power)
    table = caputo_legendre_factors(order, truncation, s) * weights
    x, weighted, scale, *_ = cltransform._legendre_projection(truncation)
    samples = np.broadcast_to(kernel(x[:, None], s[None, :]), (x.size, s.size))
    return ((samples @ table.T).T @ weighted) * scale[None, :]


@pytest.mark.parametrize("example_id", ["5.1", "5.2", "5.3", "5.4"])
def test_fredholm_block_matches_the_per_truncation_table(example_id):
    # Every truncation N integrates on the (N + 16)-point rules built for N
    # itself, so the block is that of the per-truncation table bit for bit.
    problem = builtin_example(example_id).problem
    args = (problem.kernel, problem.order.alpha)
    for truncation in (0, 1, 5, 16, 17, 20, 31, 32, 47, 48, 64):
        block = fredholm_block(*args, truncation, problem.kernel_s_power)
        reference = _per_truncation_block(*args, truncation, problem.kernel_s_power)
        assert block.tobytes() == reference.tobytes(), truncation


@pytest.mark.parametrize("truncation", [4, 8, 16])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5, 2.7])
def test_fredholm_block_equals_projected_product_for_polynomial_kernels(alpha, truncation):
    # For a kernel polynomial of degree <= N in s, integrating it against
    # D^alpha L_{1,j} or against the projection of D^alpha L_{1,j} onto
    # degree <= N gives the same number, since the projection is
    # self-adjoint.  So the exact block must equal operational matrix times
    # kernel moments there.
    for kernel in (lambda t, s: t * s, lambda t, s: 1.0 + t * s ** 2 - 0.5 * t ** 2):
        block = fredholm_block(kernel, alpha, truncation)
        product = (operational_matrix(alpha, truncation)
                   @ kernel_moments(kernel, truncation).entries)
        assert block.shape == product.shape
        assert np.max(np.abs(block - product)) <= 1e-12 * np.max(np.abs(product))


def test_fredholm_block_sqrt_kernel_closed_form():
    # k(x, s) = sqrt(s) with s = v^2: block[j, 0] = int_0^1 sqrt(s)
    # D^(3/2) L_{1,j}(s) ds = sum_k c_jk Gamma(k+1)/Gamma(k-1/2) / k over
    # the exact monomial coefficients c_jk (k >= 2), summed in 40-digit
    # arithmetic; the x-direction columns r >= 1 vanish.
    block = fredholm_block(lambda t, s: np.sqrt(s) * np.ones_like(t), 1.5, 8, s_power=2)
    with mpmath.mp.workdps(40):
        for j in range(9):
            expected = float(mpmath.fsum(
                q * mpmath.gamma(k + 1) / mpmath.gamma(k - mpmath.mpf(0.5)) / k
                for q, k in monomial_form_legendre(j).terms if k >= 2))
            assert block[j, 0] == pytest.approx(expected, rel=1e-13, abs=1e-13)
    assert np.allclose(block[:, 1:], 0.0, rtol=0, atol=1e-11)
    with pytest.raises(ValueError):
        block[0, 0] = 1.0  # frozen buffer


@pytest.mark.parametrize("s_power", [1, 2, 3])
@pytest.mark.parametrize("phi", [-0.3, 0.0, 0.25, 0.5])
def test_singular_rule_integrates_weighted_powers(phi, s_power):
    # sum_q w_q s_q^k = int_0^1 s^phi s^k ds = 1/(phi + k + 1) whenever
    # s^k = v^(s_power k) has degree below 2 points in v = s**(1/s_power).
    points = 20
    s, weights = solver._singular_rule(points, phi, s_power)
    assert s.shape == weights.shape == (points,)
    for k in range((2 * points - 1) // s_power + 1):
        exact = 1.0 / (phi + k + 1.0)
        approx = float(weights @ s ** k)
        assert abs(approx - exact) / exact < 1e-13, f"degree {k}"
    for array in (s, weights):
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


# ---------------------------------------------------------------- forcing

def test_forcing_coeffs_closed_forms():
    # The solver's forcing coefficients f_k = int_0^1 f L_{1,k} come from
    # chebyshev_interpolate: constants project to (c, 0, ...), f = t to
    # (1/2, 1/6, 0), and f = L_{1,2} to (0, 0, 1/5).
    const = chebyshev_interpolate(lambda t: np.full_like(np.asarray(t, dtype=float), 14.0), 2)
    assert np.allclose(const, [14.0, 0.0, 0.0], rtol=0, atol=1e-14)
    linear = chebyshev_interpolate(lambda t: np.asarray(t, dtype=float), 2)
    assert np.allclose(linear, [0.5, 1.0 / 6.0, 0.0], rtol=0, atol=1e-14)
    basis2 = chebyshev_interpolate(lambda t: shifted_legendre_table(2, np.asarray(t))[2], 3)
    assert np.allclose(basis2, [0.0, 0.0, 0.2, 0.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("truncation", [1, 4, 16, 64])
def test_forcing_coeffs_is_the_legendre_transform_of_the_interpolant(truncation):
    # The forcing coefficients of the solver are the projections of the
    # interpolant of the float samples, which a 40-digit computation of the
    # same interpolant pins to 1e-15.
    forcing = builtin_example("5.4").problem.forcing
    coeffs = chebyshev_interpolate(forcing, truncation)
    samples = forcing(cltransform._chebyshev_nodes((truncation,))[0])
    reference = projection_40_digits(samples, truncation)
    deviation = np.max(np.abs(coeffs - reference))
    assert deviation <= 1e-15 * np.max(np.abs(reference))


@pytest.mark.filterwarnings("error")
def test_complex_forcing_is_rejected_not_cut_to_its_real_part():
    problem = FIDEProblem(n=1, a=(0.0, 1.0), order=0.5, kernel=lambda t, s: t * s,
                          forcing=lambda t: t + 0.5j, ics=(0.0,))
    with pytest.raises(ValueError, match="forcing returned complex samples"):
        solve_fide(problem, 8)


# ---------------------------------------------------------------- assembly

def test_assembly_hand_checked_two_by_two():
    # First catalog problem at N = 2, unknown v = y' in span{L_0, L_1}, so
    # y = I v (y(0) = 0).  With a = (0, 1) the classical part is v itself.
    # The kernel term of L_{1,j} is x -> x int_0^1 s I^(1/2) L_{1,j}(s) ds,
    # and x has the coefficients c = (1/2, 1/2); the moments are
    # int s I^(1/2) L_0 = (2/5)/Gamma(3/2) = 4/(5 sqrt pi) and
    # int s I^(1/2) L_1 = 2 (2/7)/Gamma(5/2) - (2/5)/Gamma(3/2)
    # = -4/(105 sqrt pi), so the matrix is I - c m^T.  The right side holds
    # the coefficients of f = 14 - (11.2/sqrt pi) t: (14 - 5.6/sqrt pi,
    # -5.6/sqrt pi).  At N = 1 the system is its leading 1x1 block.
    problem = builtin_example("5.1").problem
    moments = np.array([4.0 / (5.0 * _SQRT_PI), -4.0 / (105.0 * _SQRT_PI)])
    expected = np.eye(2) - 0.5 * moments[None, :]
    expected_rhs = np.array([14.0 - 5.6 / _SQRT_PI, -5.6 / _SQRT_PI])
    for truncation in (1, 2):
        matrix, rhs = assemble_system(problem, truncation)
        assert matrix.shape == (truncation, truncation) and rhs.shape == (truncation,)
        np.testing.assert_allclose(matrix, expected[:truncation, :truncation], rtol=0, atol=1e-15)
        np.testing.assert_allclose(rhs, expected_rhs[:truncation], rtol=0, atol=1e-14)
    assert rhs[0] == pytest.approx(14.0 * (1.0 - 1.0 / (5.0 * gamma(1.5))), rel=1e-14)
    np.testing.assert_allclose(np.linalg.solve(matrix, rhs), [14.0, 0.0], rtol=0, atol=1e-14)


def test_assembly_shapes_and_condition_rows():
    # The system has one row per unknown of v, truncation - n + 1, and no
    # initial-condition row: y = p + I^n v meets y^(i)(0) = d_i by
    # construction.  The condition rows d^i L_{1,j}(0) =
    # (-1)^(j-i) (j+i)! / (i! (j-i)!), exact integers here, applied to the
    # solved series give the initial values, and initial_condition_residuals
    # (through the operational matrices) agrees.
    problem = builtin_example("5.4").problem
    matrix, rhs = assemble_system(problem, 6)
    assert matrix.shape == (4, 4) and rhs.shape == (4,)
    for truncation in (6, 64):
        solution = solve_fide(problem, truncation)
        coeffs = solution.coeffs.coeffs
        for i in range(problem.n):
            row = np.array([(-1) ** (j - i) * (math.perm(j + i, 2 * i) // math.factorial(i))
                            for j in range(truncation + 1)], dtype=float)
            scale = np.abs(row) @ np.abs(coeffs)
            assert abs(row @ coeffs - problem.ics[i]) <= 1e-14 * scale, (truncation, i)
        assert np.max(initial_condition_residuals(problem, solution)) <= 1e-12, truncation


# ---------------------------------------------------------------- catalog

def test_catalog_ids_and_variants():
    assert builtin_example_ids() == ("5.1", "5.2", "5.3", "5.4")
    with pytest.raises(KeyError):
        builtin_example("9.9")
    with pytest.raises(ValueError):
        builtin_example("5.1", "blessed")
    # The first problem's transcribed forcing is consistent, so it has no
    # discrepancy note and both variants coincide.
    ex = builtin_example("5.1")
    assert ex.note is None
    printed = solve_fide(builtin_example("5.1", "printed").problem, 4)
    corrected = solve_fide(ex.problem, 4)
    assert np.max(np.abs(printed.coeffs.coeffs - corrected.coeffs.coeffs)) <= 1e-10
    for example_id in ("5.2", "5.3", "5.4"):
        assert builtin_example(example_id).note is not None


def test_example_config_shapes():
    printed = example_config("5.3", "printed")
    corrected = example_config("5.3", "corrected")
    assert printed["n"] == 2 and printed["alpha"] == 1.5
    assert "forcing" in printed and "mms_exact" not in printed
    assert "mms_exact" in corrected and "forcing" not in corrected
    assert printed["kernel_s_power"] == 2
    assert corrected["ics"] == [0.0, 8.0]
    assert sorted(corrected["mms_exact"]) == [[3.0, 3.0], [8.0, 1.0]]


@pytest.mark.parametrize("example_id", ["5.1", "5.2", "5.3", "5.4"])
def test_catalog_callables_match_their_sources(example_id):
    # The catalog keeps a numpy kernel beside the "kernel" expression of its
    # config (an exprlang kernel call costs more, and a warm solve makes
    # two).  The pair may not drift apart: the kernels agree bit for bit.
    expression = exprlang.parse(example_config(example_id)["kernel"])
    grid = np.linspace(0.0, 1.0, 41)
    t, s = grid[:, None], grid[None, :]
    kernel = np.broadcast_to(builtin_example(example_id).problem.kernel(t, s), (41, 41))
    source = np.broadcast_to(exprlang.evaluate(expression, t=t, s=s), (41, 41))
    assert kernel.tobytes() == source.tobytes()


def test_first_problem_is_solved_exactly():
    # Exact solution 14x lives in every trial space: coefficients (7, 7, 0...).
    for truncation in range(1, 7):
        solution = solve_fide(builtin_example("5.1").problem, truncation)
        expected = np.zeros(truncation + 1)
        expected[0] = 7.0
        expected[1] = 7.0
        assert np.max(np.abs(solution.coeffs.coeffs - expected)) <= 1e-12
        assert solution.condition_estimate >= 1.0
    assert solve_fide(builtin_example("5.1").problem, 3)(0.5) == pytest.approx(7.0, abs=1e-12)


def test_quarter_order_problem_frozen_errors():
    # Exact solution 2x^4 - x^(3/2): the x^(3/2) tail limits the spectral
    # rate to an algebraic one; these magnitudes are frozen from the
    # pre-build oracle run and pin any regression.
    ex = builtin_example("5.2")
    expected = {4: 1.333607e-3, 8: 1.599945e-4, 16: 1.953296e-5}
    for truncation, err in expected.items():
        solution = solve_fide(ex.problem, truncation)
        assert error_norms(solution, ex.exact)[0] == pytest.approx(err, rel=1e-4)


def test_quarter_order_printed_forcing_is_inconsistent():
    # The transcribed forcing text does not belong to the stated exact
    # solution; the solver reproduces the forcing faithfully, so the error
    # against the stated solution plateaus near 8.0e-3 instead of converging.
    ex = builtin_example("5.2", "printed")
    solution = solve_fide(ex.problem, 8)
    assert error_norms(solution, ex.exact)[0] == pytest.approx(8.004777e-3, rel=1e-3)


def test_three_halves_order_problem_commitment_error():
    # Exact solution 8x + 3x^3 has Legendre coefficients (4.75, 5.35, 0.75,
    # 0.15, 0, ...) and lies in every trial space from N = 3 on.  Neither
    # sqrt(s) (kernel) nor D^(3/2) y ~ s^(3/2) is polynomial, so a kernel
    # term that projected D^(3/2) of the basis onto degree <= N before the
    # s-integral would commit an error decaying only algebraically (7.5e-7
    # in the coefficients at N = 4).  The kernel term integrates against the
    # exact derivative instead, by a Jacobi-Gauss rule that absorbs the
    # s^(1/2) factor, so the solve commits no such error and recovers the
    # coefficients to round-off.
    ex = builtin_example("5.3")
    for truncation in (4, 8):
        solution = solve_fide(ex.problem, truncation)
        exact_coeffs = np.zeros(truncation + 1)
        exact_coeffs[:4] = [4.75, 5.35, 0.75, 0.15]
        deviation = np.max(np.abs(solution.coeffs.coeffs - exact_coeffs))
        assert deviation <= 1e-13, f"N={truncation}: deviation {deviation:.3e}"


def test_three_halves_order_printed_forcing_residual():
    ex = builtin_example("5.3", "printed")
    solution = solve_fide(ex.problem, 4)
    assert error_norms(solution, ex.exact)[1] == pytest.approx(9.151927e-2, rel=1e-3)


def test_exponential_kernel_problem_frozen_errors():
    # Exact solution x e^x with an analytic kernel: the decay is
    # exponential; N = 8 reaches 2.0e-9.
    ex = builtin_example("5.4")
    solution = solve_fide(ex.problem, 8)
    assert error_norms(solution, ex.exact)[0] == pytest.approx(2.012422e-9, rel=1e-3)
    assert np.max(tau_residuals(ex.problem, solution)) <= 1e-9
    assert np.max(initial_condition_residuals(ex.problem, solution)) <= 1e-9
    # The manufactured exact series is a 21-term exponential tail, accurate
    # far below the solver's error floor.
    assert ex.exact(1.0) == pytest.approx(math.e, rel=1e-15)


# ------------------------------------------------------- manufactured runs

def test_mms_forcing_trivial_and_closed_form():
    # y = t, n = 1, alpha = 1/2, kernel x s: D^(1/2) y = 2 sqrt(s/pi), so
    # f(t) = 1 - t int_0^1 s (2/sqrt pi) sqrt(s) ds = 1 - 4t / (5 sqrt pi).
    forcing = mms_forcing(MonomialSeries(((1.0, 1.0),)), 1, (0.0, 1.0), 0.5,
                          lambda t, s: t * s)
    t = np.linspace(0.0, 1.0, 9)
    assert np.allclose(forcing(t), 1.0 - 4.0 * t / (5.0 * _SQRT_PI), rtol=0, atol=1e-13)
    assert forcing(0.5) == pytest.approx(1.0 - 2.0 / (5.0 * _SQRT_PI), abs=1e-13)
    # Zero kernel reduces to the differential part alone.
    plain = mms_forcing(MonomialSeries(((1.0, 1.0),)), 1, (0.0, 1.0), 0.5, _const_kernel(0.0))
    assert np.allclose(plain(t), 1.0, rtol=0, atol=1e-14)


def test_mms_forcing_matches_catalog_closed_form():
    # For the three-halves problem the corrected forcing has the closed form
    # 8 + 36t + (9 - 8/sqrt pi) t^2.
    ex = builtin_example("5.3")
    t = np.linspace(0.0, 1.0, 11)
    closed = 8.0 + 36.0 * t + (9.0 - 8.0 / _SQRT_PI) * t ** 2
    assert np.max(np.abs(ex.problem.forcing(t) - closed)) <= 1e-12


def test_mms_forcing_rejects_unreachable_exponents():
    # A non-integer exponent at or below n - 1 has no Caputo derivative of
    # order in (n - 1, n].
    with pytest.raises(ValueError):
        mms_forcing(MonomialSeries(((1.0, 0.5),)), 2, (0.0, 0.0, 1.0), 1.5, _const_kernel(0.0))


@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.7, 1.9])
def test_mms_forcing_is_exact_at_every_alpha(alpha):
    # y = t^2, n = 2, kernel t s: D^alpha t^2 = 2 s^(2 - alpha) / Gamma(3 - alpha),
    # so f(t) = 2 - 2t / (Gamma(3 - alpha) (4 - alpha)).
    forcing = mms_forcing(MonomialSeries(((1.0, 2.0),)), 2, (0.0, 0.0, 1.0), alpha,
                          lambda t, s: t * s)
    t = np.linspace(0.0, 1.0, 11)
    closed = 2.0 - 2.0 * t / (gamma(3.0 - alpha) * (4.0 - alpha))
    assert np.max(np.abs(forcing(t) - closed)) <= 1e-14


def _oracle_forcing(terms, n, a, alpha, kernel, t):
    """f(t) of the manufactured problem in 30-digit arithmetic: power-rule
    derivatives of sum q s^p and mpmath.quad for the kernel integral."""
    m = math.ceil(alpha)
    with mpmath.workdps(30):
        alpha, t = mpmath.mpf(alpha), mpmath.mpf(t)
        caputo = [(q * mpmath.gamma(p + 1) / mpmath.gamma(p - alpha + 1), p - alpha)
                  for q, p in terms if not (p == int(p) and p < m)]
        integral = mpmath.quad(
            lambda s: kernel(t, s) * mpmath.fsum(c * s ** e for c, e in caputo), [0, 1])
        classical = mpmath.fsum(a[i] * q * mpmath.ff(p, i) * t ** (p - i)
                                for i in range(n + 1) for q, p in terms
                                if not (p == int(p) and p < i))
        return float(classical - integral)


@pytest.mark.parametrize("terms, n, a, alpha, kernel, kernel_mp", [
    # two fractional parts (3/4 and 1/4) in D^(1/4) exact
    (((2.0, 4.0), (-1.0, 1.5), (0.5, 2.0)), 1, (0.0, 1.0), 0.25,
     lambda t, s: t ** 2 * s ** 2, lambda t, s: t ** 2 * s ** 2),
    # D^(3/2) t^1.2 carries s^(-0.3): a negative fractional part
    (((1.0, 1.2), (1.0, 3.0)), 1, (0.0, 1.0), 1.5,
     lambda t, s: 1.0 + t + 0.0 * s, lambda t, s: 1 + t),
    (((1.0, 3.0), (0.3, 5.5), (0.1, 7.0)), 3, (1.0, 0.0, -1.0, 3.0), 2.7,
     lambda t, s: np.exp(t - s), lambda t, s: mpmath.exp(t - s)),
])
def test_mms_forcing_matches_mpmath_oracle(terms, n, a, alpha, kernel, kernel_mp):
    forcing = mms_forcing(MonomialSeries(terms), n, a, alpha, kernel)
    for t in (0.05, 0.3, 0.7, 1.0):
        expected = _oracle_forcing(terms, n, a, alpha, kernel_mp, t)
        assert abs(forcing(t) - expected) <= 1e-13 * max(1.0, abs(expected)), f"t={t}"


@pytest.mark.parametrize("terms, n, a", [
    # 5.4: the 21-term series of t e^t, a with a zero entry
    (example_config("5.4")["mms_exact"], 3, (1.0, 0.0, -1.0, 3.0)),
    # fractional exponents, merged with integer ones after differentiation
    (((1.0, 2.5), (-2.0, 3.25), (0.5, 4.0), (3.0, 1.0)), 2, (0.5, -1.0, 2.0)),
    # only the leading coefficient nonzero
    (((1.0, 2.0), (4.0, 5.0), (-1.0, 7.0)), 2, (0.0, 0.0, 1.0)),
], ids=["5.4", "fractional", "leading-only"])
def test_mms_forcing_folds_the_classical_terms(terms, n, a):
    # With a zero kernel the forcing is the merged classical series alone; it
    # must match sum_i a_i D^i(exact) evaluated series by series.
    exact = MonomialSeries(tuple(tuple(term) for term in terms))
    forcing = mms_forcing(exact, n, a, 0.5, _const_kernel(0.0))
    t = np.linspace(0.0, 1.0, 41)
    termwise = sum(coeff * (caputo_apply(exact, i) if i else exact)(t)
                   for i, coeff in enumerate(a) if coeff != 0.0)
    assert np.all(np.abs(forcing(t) - termwise) <= 1e-14 * np.maximum(1.0, np.abs(termwise)))


def test_mms_forcing_validates_kernel_s_power():
    exact = MonomialSeries(((1.0, 1.0),))
    for bad in (0, -1, 2.0, "2"):
        with pytest.raises(ValueError, match=r"kernel_s_power must be an integer >= 1"):
            mms_forcing(exact, 1, (0.0, 1.0), 0.5, _const_kernel(1.0), kernel_s_power=bad)


def test_manufactured_polynomial_round_trips():
    # Twenty random problems: polynomial exact solutions of degree <= 6 with
    # coefficients in [-5, 5], first or second order equations with orders
    # 1/2 or 3/2, polynomial kernels of degree <= 2; the solver at N = 8
    # must recover the manufactured solution to 1e-7.
    rng = np.random.default_rng(20260816)
    for trial in range(20):
        n = int(rng.integers(1, 3))
        alpha = 0.5 if n == 1 else 1.5
        degree = int(rng.integers(n, 7))
        poly = rng.uniform(-5.0, 5.0, size=degree + 1)
        exact = MonomialSeries(tuple((float(q), float(p)) for p, q in enumerate(poly)))
        kc = rng.uniform(-2.0, 2.0, size=(3, 3))
        kernel = lambda t, s, kc=kc: sum(kc[i, j] * t ** i * s ** j
                                         for i in range(3) for j in range(3))
        a = tuple(rng.uniform(-3.0, 3.0, size=n)) + (float(rng.uniform(1.0, 3.0)),)
        ics = tuple(math.factorial(i) * poly[i] for i in range(n))
        forcing = mms_forcing(exact, n, a, alpha, kernel)
        problem = FIDEProblem(n=n, a=a, order=alpha, kernel=kernel,
                              forcing=forcing, ics=ics)
        solution = solve_fide(problem, 8)
        assert max(error_norms(solution, exact)) <= 1e-7, f"trial {trial}"


def test_scaling_equivariance():
    # The equation is linear: scaling forcing and initial data by the same
    # factor scales the solution coefficients by it.
    ex = builtin_example("5.4")
    lam = 3.0
    scaled = FIDEProblem(n=3, a=ex.problem.a, order=ex.problem.order,
                         kernel=ex.problem.kernel,
                         forcing=lambda t: lam * ex.problem.forcing(t),
                         ics=tuple(lam * d for d in ex.problem.ics))
    base = solve_fide(ex.problem, 8)
    bigger = solve_fide(scaled, 8)
    assert np.max(np.abs(bigger.coeffs.coeffs - lam * base.coeffs.coeffs)) <= 1e-10


def test_tau_residuals_are_orthogonality_violations():
    # The solved coefficients must satisfy the re-assembled Galerkin rows to
    # solver precision; a deliberately wrong coefficient vector must not.
    ex = builtin_example("5.2")
    solution = solve_fide(ex.problem, 8)
    assert np.max(tau_residuals(ex.problem, solution)) <= 1e-9
    from cltau.solver import SpectralSolution
    from cltau.orthopoly import LegendreSeries
    coeffs = solution.coeffs.coeffs.copy()
    coeffs[2] += 0.1
    wrong = SpectralSolution(8, LegendreSeries(coeffs), solution.condition_estimate)
    assert np.max(tau_residuals(ex.problem, wrong)) > 1e-3
    with pytest.raises(ValueError, match="below the derivative order"):
        tau_residuals(builtin_example("5.4").problem, LegendreSeries(coeffs[:3]))


# ------------------------------------------------------------ error norms

def test_error_norms_reference_behavior():
    ex = builtin_example("5.1")
    solution = solve_fide(ex.problem, 4)
    assert max(error_norms(solution, ex.exact)) <= 1e-13
    # A constant offset of 1 must register as exactly 1 in both norms.
    shifted = lambda x: ex.exact(x) + 1.0
    assert error_norms(solution, shifted) == pytest.approx((1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("eid", ["5.2", "5.4"])
def test_error_norms_is_both_norms_from_one_evaluation(eid):
    ex = builtin_example(eid)
    for truncation in (4, 12, 32):
        solution = solve_fide(ex.problem, truncation)
        l2, largest = error_norms(solution, ex.exact)
        # Bitwise the separate evaluations on the 128 Gauss nodes and the
        # 101 equispaced points.
        rule = legendre_gauss_rule(127)
        diff = solution(rule.nodes) - ex.exact(rule.nodes)
        assert l2 == math.sqrt(float(np.sum(rule.weights * diff * diff)))
        grid = np.linspace(0.0, 1.0, 101)
        assert largest == float(np.max(np.abs(solution(grid) - ex.exact(grid))))


@pytest.mark.filterwarnings("error")
def test_error_norms_rejects_a_complex_exact_solution():
    solution = solve_fide(builtin_example("5.1").problem, 4)
    with pytest.raises(ValueError, match="exact solution returned complex samples"):
        error_norms(solution, lambda t: 14.0 * t + 1e-3j)


def test_error_norms_rejects_a_non_finite_exact_solution():
    # A NaN on the error grid used to come back as (nan, nan), which
    # convergence_study then passed to ConvergenceEntry.
    ex = builtin_example("5.1")
    exact = lambda t: np.where(t == 1.0, np.nan, ex.exact(t))
    with pytest.raises(ValueError, match="non-finite exact solution sample"):
        error_norms(solve_fide(ex.problem, 4), exact)
    with pytest.raises(ValueError, match="non-finite exact solution sample"):
        convergence_study(ex.problem, exact, [4, 8])


# ----------------------------------------------------------- convergence

def test_convergence_study_algebraic_classification():
    ex = builtin_example("5.2")
    report = convergence_study(ex.problem, ex.exact, [4, 8, 16])
    fit = report.fitted_decay
    assert fit.kind == "algebraic"
    assert fit.rate == pytest.approx(3.0466, rel=1e-3)
    assert fit.r_squared >= 0.999
    l2s = [entry.l2_error for entry in report.entries]
    assert l2s[0] > l2s[1] > l2s[2]


def test_convergence_study_exponential_classification():
    ex = builtin_example("5.4")
    report = convergence_study(ex.problem, ex.exact, [4, 6, 8, 10, 12])
    fit = report.fitted_decay
    assert fit.kind == "exponential"
    assert fit.r_squared >= 0.98
    assert fit.rate == pytest.approx(3.7863, rel=1e-3)


def test_convergence_study_resolved_below_floor():
    # The first problem is exact at every truncation, so all errors sit
    # below the 1e-12 floor: no decay fit is attempted, and the sweep is
    # resolved from its first truncation on.
    ex = builtin_example("5.1")
    report = convergence_study(ex.problem, ex.exact, [1, 2, 3, 4, 5, 6])
    assert report.fitted_decay.kind == "resolved"
    assert report.fitted_decay.resolved_at == 1
    assert report.fitted_decay.rate is None
    assert max(entry.l2_error for entry in report.entries) <= 1e-12


def test_decay_fit_resolved_from_the_last_error_above_floor():
    def fit(errors):
        return solver._fit_decay(tuple(
            solver.ConvergenceEntry(n, err, err, None if err is not None else "failed")
            for n, err in zip((4, 8, 12, 16, 20), errors)))

    assert fit((1e-3, 1e-8, 1e-14, None, 1e-15)) == DecayFit("resolved", None, None, 12)
    # A dip below the floor that does not last is not resolution.
    assert fit((1e-13, 1e-8, 1e-14, 1e-15, 1e-15)).resolved_at == 12
    assert fit((1e-14, 1e-15, 1e-14, 1e-15, 1e-6)).kind == "stagnated"
    assert fit((None,) * 5).kind == "stagnated"
    for bad in (("resolved", None, None, None), ("resolved", 1.0, 0.99, 12),
                ("exponential", 1.0, 0.99, 12), ("stagnated", None, None, 4)):
        with pytest.raises(ValueError):
            DecayFit(*bad)


def test_convergence_study_records_failures():
    # A kernel of 1 with a first derivative knocks out the k = 0 Galerkin
    # row entirely (the Fredholm term reproduces the derivative's mean), so
    # the tau matrix is singular at every truncation.
    problem = FIDEProblem(n=1, a=(0.0, 1.0), order=1.0,
                          kernel=_const_kernel(1.0),
                          forcing=_zero_forcing, ics=(0.0,))
    report = convergence_study(problem, _zero_forcing, [2, 3, 4])
    assert all(entry.failure is not None for entry in report.entries)
    assert all(entry.l2_error is None for entry in report.entries)
    assert report.fitted_decay.kind == "stagnated"


def test_convergence_study_evaluates_each_solution_once(monkeypatch):
    # One sweep samples `exact` once on the 128 + 101 points of the error
    # grid and builds one Legendre table there, of the largest degree; each
    # truncation's series is its coefficients times the leading rows of that
    # table, with no LegendreSeries evaluation per truncation.
    exact_sizes, table_sizes, series_sizes = [], [], []
    ex = builtin_example("5.4")
    table, series = orthopoly.shifted_legendre_table, orthopoly.LegendreSeries.__call__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cltau") and hasattr(module, "shifted_legendre_table"):
            monkeypatch.setattr(module, "shifted_legendre_table",
                                lambda n, x: table_sizes.append((n, np.size(x))) or table(n, x))
    monkeypatch.setattr(orthopoly.LegendreSeries, "__call__",
                        lambda s, x: series_sizes.append(np.size(x)) or series(s, x))
    report = convergence_study(ex.problem, lambda t: exact_sizes.append(np.size(t)) or ex.exact(t),
                               [4, 8, 12, 16])
    assert len(report.entries) == 4
    assert exact_sizes == [128 + 101]
    assert [size for size in table_sizes if size[1] == 128 + 101] == [(16, 229)]
    assert series_sizes == []
    for entry in report.entries:
        expected = error_norms(solve_fide(ex.problem, entry.truncation), ex.exact)
        np.testing.assert_allclose((entry.l2_error, entry.max_error), expected,
                                   rtol=1e-6, atol=1e-14)


def _sweep_solutions(monkeypatch, problem, truncations) -> dict:
    """(coefficients, condition estimate) of every truncation of one
    convergence_study, from the lifted columns and outcomes of its one call
    of _solve_systems.

    The recording patch is undone before returning, so that later
    solve_fide calls neither go through it nor overwrite what it kept.
    """
    returned, solve_systems = [], solver._solve_systems

    def record(*args):
        returned.append(solve_systems(*args))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_solve_systems", record)
        report = convergence_study(problem, lambda t: np.zeros_like(t), truncations)
    assert [entry.failure for entry in report.entries] == [None] * len(truncations)
    ((series, conditions),) = returned
    assert series.shape == (truncations[-1] + 1, len(truncations))
    for column, truncation in enumerate(truncations):
        assert not series[truncation + 1:, column].any()
    return {truncation: (series[:truncation + 1, column], conditions[column])
            for column, truncation in enumerate(truncations)}


def _t_exp_problem(n: int, alpha: float) -> FIDEProblem:
    # y^(n) + y with kernel exp(t - s) and exact solution t e^t, y^(i)(0) = i.
    a = (1.0,) + (0.0,) * (n - 1) + (1.0,)
    kernel = lambda t, s: np.exp(t - s)
    terms = MonomialSeries(tuple((1.0 / math.factorial(k), float(k + 1)) for k in range(21)))
    return FIDEProblem(n=n, a=a, order=alpha, kernel=kernel, ics=tuple(map(float, range(n))),
                       forcing=mms_forcing(terms, n, a, alpha, kernel))


_EVERY_FOURTH = tuple(range(4, 129, 4))


@pytest.mark.parametrize(
    "case",
    [(eid, variant, _EVERY_FOURTH) for eid in ("5.1", "5.2", "5.3", "5.4")
     for variant in ("printed", "corrected")]
    + [("t exp t", n, _EVERY_FOURTH) for n in (4, 5, 6)]
    # The 33-point Legendre rule of N = 17 and the Chebyshev rule of every
    # even N share the node 0.5, where the barycentric formula divides by
    # zero (a RuntimeWarning fails this suite).
    + [("5.4", "corrected", tuple(range(4, 18)))])
def test_sweep_entries_match_standalone_solves(monkeypatch, case):
    # Every truncation of a sweep solves the leading block of the system at
    # the largest one, whose kernel term is integrated on the largest
    # truncation's rules.  For kernels those rules integrate to round-off
    # the coefficients match a standalone solve to round-off (measured
    # <= 1.6e-15); the largest truncation is the standalone solve itself.
    name, detail, truncations = case
    problem = (_t_exp_problem(detail, 0.5) if name == "t exp t"
               else builtin_example(name, detail).problem)
    truncations = [n for n in truncations if n >= problem.n]
    solved = _sweep_solutions(monkeypatch, problem, truncations)
    for truncation in truncations:
        alone = solve_fide(problem, truncation)
        (got, condition), expected = solved[truncation], alone.coeffs.coeffs
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert condition == pytest.approx(alone.condition_estimate, rel=1e-8)
    assert got.tobytes() == expected.tobytes()
    assert condition == alone.condition_estimate


def test_a_sweep_keeps_one_table_per_cache():
    # Every truncation is a slice of the largest one's tables, so a cold
    # sweep over N = 4..32 leaves one entry per builder in the table store.
    ex = builtin_example("5.4")
    cltransform._tables.clear()
    convergence_study(ex.problem, ex.exact, range(4, 33, 4))
    assert Counter(builder.__name__ for builder, _ in cltransform._tables) == {
        "_integral_rows": 1, "_legendre_projection": 1, "_caputo_quadrature": 1,
        "_singular_rule": 1, "_error_grid": 1}


def test_a_sweep_samples_the_forcing_twice():
    # One call on the Chebyshev nodes of every N below N_max together, one
    # at N_max.
    ex = builtin_example("5.4")
    samples = []
    problem = replace(ex.problem,
                      forcing=lambda t: samples.append(t.copy()) or ex.problem.forcing(t))
    cltransform._tables.clear()
    convergence_study(problem, ex.exact, range(4, 33, 4))
    assert len(samples) == 2
    np.testing.assert_array_equal(samples[0], np.concatenate(
        [cltransform._chebyshev_nodes((n,))[0] for n in range(4, 32, 4)]))
    np.testing.assert_array_equal(samples[1], cltransform._chebyshev_nodes((32,))[0])


def test_a_failed_slice_leaves_the_other_entries_alone(monkeypatch):
    # A SolverError at one truncation is that entry's failure; the other
    # truncations keep the errors of the sweep without it.
    ex = builtin_example("5.4")
    truncations = range(4, 33, 4)
    clean = convergence_study(ex.problem, ex.exact, truncations)
    gated = solver._gated_solve

    def fail_at_16(truncation, matrix, rhs):
        if truncation == 16:
            raise SolverError("forced at truncation 16")
        return gated(truncation, matrix, rhs)

    monkeypatch.setattr(solver, "_gated_solve", fail_at_16)
    report = convergence_study(ex.problem, ex.exact, truncations)
    for entry, expected in zip(report.entries, clean.entries):
        if entry.truncation == 16:
            assert entry == solver.ConvergenceEntry(16, None, None, "forced at truncation 16")
        else:
            assert entry == expected
            assert entry.failure is None


def test_a_non_finite_slice_stops_the_sweep_at_its_truncation(monkeypatch):
    # Slices are solved in increasing N, so the first non-finite system
    # raises its own ValueError before any later slice is solved.
    ex = builtin_example("5.4")
    nested, assembled = solver._nested_systems, []

    def poisoned(problem, truncations):
        for truncation, matrix, rhs in nested(problem, truncations):
            if truncation >= 16:
                rhs = rhs.copy()
                rhs[0] = np.inf
            assembled.append(truncation)
            yield truncation, matrix, rhs

    monkeypatch.setattr(solver, "_nested_systems", poisoned)
    with pytest.raises(ValueError, match="non-finite entries at truncation 16$"):
        convergence_study(ex.problem, ex.exact, range(4, 33, 4))
    assert assembled == [4, 8, 12, 16]


def test_convergence_study_validation():
    ex = builtin_example("5.1")
    with pytest.raises(ValueError):
        convergence_study(ex.problem, ex.exact, [4, 4, 8])
    with pytest.raises(ValueError):
        convergence_study(ex.problem, ex.exact, [])
    with pytest.raises(ValueError):
        convergence_study(builtin_example("5.4").problem, ex.exact, [2, 4])


# ------------------------------------------------------------- validation

def test_problem_validation():
    with pytest.raises(ValueError):
        FIDEProblem(n=1, a=(1.0, 0.0), order=0.5, kernel=_const_kernel(0.0),
                    forcing=_zero_forcing, ics=(0.0,))  # vanishing leading coefficient
    with pytest.raises(ValueError):
        FIDEProblem(n=2, a=(0.0, 0.0, 1.0), order=1.5, kernel=_const_kernel(0.0),
                    forcing=_zero_forcing, ics=(0.0,))  # wrong ics length
    with pytest.raises(ValueError):
        FIDEProblem(n=1, a=(0.0, 1.0), order=-0.5, kernel=_const_kernel(0.0),
                    forcing=_zero_forcing, ics=(0.0,))
    with pytest.raises(ValueError):
        FIDEProblem(n=1, a=(0.0, 1.0), order=0.5, kernel=_const_kernel(0.0),
                    forcing=_zero_forcing, ics=(0.0,), kernel_s_power=0)
    with pytest.raises(TypeError):
        FIDEProblem(n=1, a=(0.0, 1.0), order=0.5, kernel=1.0,
                    forcing=_zero_forcing, ics=(0.0,))


_VALID = dict(n=1, a=(0.0, 1.0), order=0.5, kernel=_const_kernel(0.0),
              forcing=_zero_forcing, ics=(0.0,))


@pytest.mark.parametrize("build, message", [
    (lambda: FIDEProblem(**{**_VALID, "n": True}), "derivative order n"),
    (lambda: FIDEProblem(**_VALID, kernel_s_power=True), "kernel_s_power"),
    (lambda: solve_fide(FIDEProblem(**_VALID), True), "truncation must be"),
    (lambda: mms_forcing(MonomialSeries(((1.0, 1.0),)), True, (0.0, 1.0), 0.5,
                         _const_kernel(0.0)), "derivative order n"),
], ids=["problem-n", "kernel-s-power", "truncation", "mms-n"])
def test_bool_is_not_an_integer(build, message):
    # True == 1 in Python; the CLI's config reader rejects bools, and so
    # does the library.
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_orders_solve_like_python_ints():
    ex = builtin_example("5.3")
    built = {}
    for kind in (int, np.int64):
        n, s_power = kind(ex.problem.n), kind(ex.problem.kernel_s_power)
        forcing = mms_forcing(MonomialSeries(((8.0, 1.0), (3.0, 3.0))), n, ex.problem.a,
                              ex.problem.order, ex.problem.kernel, kernel_s_power=s_power)
        problem = FIDEProblem(n=n, a=ex.problem.a, order=ex.problem.order,
                              kernel=ex.problem.kernel, forcing=forcing, ics=ex.problem.ics,
                              kernel_s_power=s_power)
        assert type(problem.n) is int and type(problem.kernel_s_power) is int
        built[kind] = solve_fide(problem, kind(12))
        assert type(built[kind].truncation) is int
    np.testing.assert_array_equal(built[np.int64].coeffs.coeffs, built[int].coeffs.coeffs)
    assert built[np.int64].condition_estimate == built[int].condition_estimate
    for bad in (np.int64(0), np.float64(1.0), np.bool_(True)):
        with pytest.raises(ValueError, match="derivative order n"):
            FIDEProblem(**{**_VALID, "n": bad})


def test_solver_error_paths():
    problem = builtin_example("5.4").problem
    with pytest.raises(ValueError):
        solve_fide(problem, 2)  # truncation below the derivative order
    singular = FIDEProblem(n=1, a=(0.0, 1.0), order=1.0,
                           kernel=_const_kernel(1.0),
                           forcing=_zero_forcing, ics=(0.0,))
    with pytest.raises(SolverError) as err:
        solve_fide(singular, 3)
    assert "truncation 3" in str(err.value)
    assert "smallest pivot" in str(err.value)
    assert "threshold 1e-14*max|A| = " in str(err.value)


def _perturb_the_solution(monkeypatch):
    """Scale the solution column of numpy.linalg.solve by 1 + 1e-6, so the
    inverse (and so the pivot gate) is untouched and only the residual
    gate can see it."""
    original = np.linalg.solve

    def perturbed(matrix, rhs):
        joint = original(matrix, rhs)
        joint[:, -1] *= 1.0 + 1e-6
        return joint

    monkeypatch.setattr(np.linalg, "solve", perturbed)


def test_the_residual_gate_rejects_an_inaccurate_solve(monkeypatch):
    ex = builtin_example("5.4")
    _perturb_the_solution(monkeypatch)
    with pytest.raises(SolverError, match=r"solve residual \S+ exceeds \S+ at truncation 16$"):
        solve_fide(ex.problem, 16)
    report = convergence_study(ex.problem, ex.exact, (8, 16))
    assert [(e.truncation, e.l2_error, e.max_error) for e in report.entries] == [
        (8, None, None), (16, None, None)]
    assert all(e.failure.startswith("solve residual ") for e in report.entries)
    assert report.fitted_decay.kind == "stagnated"


@pytest.mark.parametrize("build, error, message", [
    (lambda: FIDEProblem(**{**_VALID, "a": (1.0,)}), ValueError, "need 2 coefficients"),
    (lambda: FIDEProblem(**{**_VALID, "a": (0.0, math.inf)}), ValueError,
     "non-finite derivative coefficient"),
    (lambda: FIDEProblem(**{**_VALID, "ics": (math.nan,)}), ValueError,
     "non-finite initial value"),
    (lambda: ConvergenceEntry(4, -1.0, 0.0), ValueError, "error must be finite and >= 0"),
    (lambda: ConvergenceEntry(4, 0.0, math.nan), ValueError, "error must be finite and >= 0"),
    (lambda: DecayFit("linear", 1.0, 1.0), ValueError, "unknown decay kind"),
    (lambda: ConvergenceReport((ConvergenceEntry(8, 0.0, 0.0), ConvergenceEntry(4, 0.0, 0.0)),
                               DecayFit("stagnated", None, None)),
     ValueError, "strictly increasing"),
    (lambda: mms_forcing(lambda t: t, 1, (0.0, 1.0), 0.5, _const_kernel(0.0)), TypeError,
     "exact must be a MonomialSeries, got function"),
    (lambda: mms_forcing(MonomialSeries(((1.0, 1.0),)), 1, (1.0,), 0.5, _const_kernel(0.0)),
     ValueError, "need 2 coefficients"),
    (lambda: error_norms(np.zeros(3), np.exp), TypeError,
     "expected SpectralSolution or LegendreSeries, got ndarray"),
], ids=["a-length", "a-non-finite", "ics-non-finite", "entry-negative", "entry-nan",
        "fit-kind", "report-order", "mms-type", "mms-a-length", "norms-type"])
def test_invalid_fields_are_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _edge_problem(n, alpha):
    """Exact t e^t (a 25-term series), kernel e^(t - s), a = (1, 0, .., 0, 1)."""
    exact = MonomialSeries(tuple((1.0 / math.factorial(k), float(k + 1)) for k in range(25)))
    kernel = lambda t, s: np.exp(t - s)
    a = (1.0,) + (0.0,) * (n - 1) + (1.0,)
    return FIDEProblem(n=n, a=a, order=alpha, kernel=kernel,
                       forcing=mms_forcing(exact, n, a, alpha, kernel),
                       ics=tuple(float(i) for i in range(n)))


@pytest.mark.parametrize("n, truncation", [(5, 96), (5, 128), (6, 64), (6, 128)])
def test_high_order_edge_cases_solve(n, truncation):
    # Exact t e^t, kernel e^(t - s), alpha = 1/2, a = (1, 0, .., 0, 1): the
    # classical tau system of these cases is conditioned at 1e16 and beyond,
    # and its pivot gate rejected them.  In the unknown v of y = p + I^n v
    # the matrix is the identity plus compact terms.
    problem = _edge_problem(n, 0.5)
    solution = solve_fide(problem, truncation)
    assert solution.condition_estimate <= 10.0
    assert error_norms(solution, lambda t: t * np.exp(t))[0] <= 1e-14


@pytest.mark.parametrize("truncation", [8, 64, 256])
def test_catalog_condition_does_not_grow_with_truncation(truncation):
    for eid in builtin_example_ids():
        solution = solve_fide(builtin_example(eid).problem, truncation)
        assert 1.0 <= solution.condition_estimate <= 10.0, eid


def _classical_tau_coeffs(problem, truncation):
    """The coefficients of the classical tau system: Galerkin rows of
    sum_i a_i D^i - K D^alpha from the operational matrices and
    fredholm_block, divided by 2k + 1, then n initial-condition rows
    d^i L_{1,j}(0) = (-1)^(j-i) (j+i)! / (i! (j-i)!) in closed form."""
    rows = truncation - problem.n + 1
    operator = sum(coeff * operational_matrix(i, truncation)
                   for i, coeff in enumerate(problem.a))
    operator = operator - fredholm_block(problem.kernel, problem.order, truncation,
                                         problem.kernel_s_power)
    matrix = np.empty((truncation + 1, truncation + 1))
    matrix[:rows] = operator[:, :rows].T / (2.0 * np.arange(rows) + 1.0)[:, None]
    for i in range(problem.n):
        matrix[rows + i] = [(-1) ** (j - i) * (math.perm(j + i, 2 * i) // math.factorial(i))
                            for j in range(truncation + 1)]
    rhs = np.concatenate((chebyshev_interpolate(problem.forcing, truncation)[:rows],
                          problem.ics))
    return np.linalg.solve(matrix, rhs)


_CLASSICAL_TRUNCATIONS = (4, 17, 33, 64, 128)


@pytest.mark.parametrize("variant", ["printed", "corrected"])
@pytest.mark.parametrize("eid", ["5.1", "5.2", "5.3", "5.4"])
def test_catalog_matches_the_classical_tau_system(eid, variant):
    # Same trial space, same test functions, same quadrature: the two
    # systems have one solution, up to the rounding of the classical one.
    problem = builtin_example(eid, variant).problem
    for truncation in _CLASSICAL_TRUNCATIONS:
        reference = _classical_tau_coeffs(problem, truncation)
        coeffs = solve_fide(problem, truncation).coeffs.coeffs
        deviation = np.max(np.abs(coeffs - reference)) / np.max(np.abs(reference))
        assert deviation <= 1e-14, (truncation, deviation)


@pytest.mark.parametrize("n, alpha", [(1, 1.0), (1, 1.5), (2, 2.5), (3, 3.0), (3, 2.7),
                                      (4, 0.5)])
def test_orders_match_the_classical_tau_system(n, alpha):
    # Both branches of the kernel table: alpha <= n (I^(n - alpha) L_j, with
    # the t^l/l! rows for l = ceil(alpha)..n-1) and alpha > n (D^(alpha - n)).
    problem = _edge_problem(n, alpha)
    for truncation in _CLASSICAL_TRUNCATIONS:
        if truncation < n:
            continue
        reference = _classical_tau_coeffs(problem, truncation)
        coeffs = solve_fide(problem, truncation).coeffs.coeffs
        deviation = np.max(np.abs(coeffs - reference)) / np.max(np.abs(reference))
        assert deviation <= 1e-14, (truncation, deviation)


def _lapack_smallest_pivot(matrix):
    return float(np.min(np.abs(np.diag(scipy.linalg.lu_factor(matrix)[0]))))


@pytest.mark.parametrize("eid", ["5.1", "5.2", "5.3", "5.4"])
@pytest.mark.parametrize("truncation", [8, 32, 64, 128])
def test_smallest_pivot_matches_lapack_on_tau_systems(eid, truncation):
    matrix, _ = assemble_system(builtin_example(eid).problem, truncation)
    reference = _lapack_smallest_pivot(matrix)
    assert abs(solver._smallest_pivot(matrix) - reference) <= 1e-14 * reference


def test_smallest_pivot_matches_lapack_on_random_matrices():
    # Blocked getrf sums the trailing updates in another order than plain
    # elimination, so pivots agree to backward-error size, not bitwise:
    # measured worst 2.2 * size * eps * max|A| over 160 such matrices.
    rng = np.random.default_rng(5)
    for size in (3, 8, 32, 64, 128):
        for _ in range(4):
            matrix = rng.standard_normal((size, size))
            bound = 8.0 * size * np.finfo(float).eps * np.max(np.abs(matrix))
            assert abs(solver._smallest_pivot(matrix) - _lapack_smallest_pivot(matrix)) <= bound
    singular = rng.standard_normal((6, 6))
    singular[:, 4] = singular[:, 1]
    assert solver._smallest_pivot(singular) <= 1e-15 * np.max(np.abs(singular))


def _counting_smallest_pivot(monkeypatch):
    calls = []
    smallest_pivot = solver._smallest_pivot

    def counted(matrix):
        calls.append(matrix.shape)
        return smallest_pivot(matrix)

    monkeypatch.setattr(solver, "_smallest_pivot", counted)
    return calls


def test_well_conditioned_solve_skips_elimination(monkeypatch):
    # alpha > n puts the highest derivative under the integral, so the
    # condition grows with N (9e7 at N = 64), yet the bound from the
    # inverse still certifies every pivot without elimination.
    problem = _edge_problem(1, 2.5)
    calls = _counting_smallest_pivot(monkeypatch)
    solution = solve_fide(problem, 64)
    assert solution.condition_estimate > 1e7
    assert calls == []


def _matrix_with_pivot(relative_pivot):
    """8x8 A = L U, no row exchanges, U[3, 3] = relative_pivot * max|A|.

    Dyadic entries and a zero column of U above the small pivot keep every
    product and every elimination step exact, so the small pivot is exact."""
    rng = np.random.default_rng(11)
    choices = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    lower = np.eye(8) + np.tril(rng.choice(choices, (8, 8)), -1)
    upper = np.eye(8) + np.triu(rng.choice(choices, (8, 8)), 1)
    upper[:3, 3] = 0.0
    upper[3, 3] = 0.0
    scale = float(np.max(np.abs(lower @ upper)))
    upper[3, 3] = relative_pivot * scale
    matrix = lower @ upper
    assert np.max(np.abs(matrix)) == scale
    assert solver._smallest_pivot(matrix) == upper[3, 3]
    return matrix


def test_pivot_gate_decided_by_elimination_near_the_edge(monkeypatch):
    matrices = {relative_pivot: _matrix_with_pivot(relative_pivot)
                for relative_pivot in (1e-15, 1e-13)}
    calls = _counting_smallest_pivot(monkeypatch)
    problem = builtin_example("5.1").problem
    exact = np.linspace(1.0, 2.0, 8)
    # 5.1 has n = 1, so at N = 8 its system has M + 1 = 8 unknowns.
    for relative_pivot, matrix in matrices.items():
        monkeypatch.setattr(solver, "assemble_system",
                            lambda *args, m=matrix: (m, m @ exact))
        if relative_pivot < 1e-14:
            with pytest.raises(SolverError, match=r"truncation 8 \(smallest pivot"):
                solve_fide(problem, 8)
        else:
            assert solve_fide(problem, 8).condition_estimate > 1e12
    assert len(calls) == 2


def _count_linalg(monkeypatch):
    calls = {"solve": 0, "inv": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_factorization_per_solve(monkeypatch):
    # The inverse for the condition estimate and the pivot gate and the
    # coefficients come from one gesv; an exactly zero pivot (LAPACK's
    # LinAlgError) is decided by elimination and raises the pivot message.
    calls = _count_linalg(monkeypatch)
    solve_fide(builtin_example("5.4").problem, 32)
    assert calls == {"solve": 1, "inv": 0}
    # 5.1 has n = 1, so at N = 8 its system has M + 1 = 8 unknowns.
    problem = builtin_example("5.1").problem
    for relative_pivot in (1e-13, 0.0):
        matrix = _matrix_with_pivot(relative_pivot)
        monkeypatch.setattr(solver, "assemble_system",
                            lambda *args, m=matrix: (m, m @ np.linspace(1.0, 2.0, 8)))
        calls.update(solve=0, inv=0)
        if relative_pivot:
            assert solve_fide(problem, 8).condition_estimate > 1e12
        else:
            with pytest.raises(SolverError, match=r"smallest pivot 0\.000e\+00, threshold"):
                solve_fide(problem, 8)
        assert calls == {"solve": 1, "inv": 0}


@pytest.mark.parametrize("eid", ["5.1", "5.2", "5.3", "5.4"])
@pytest.mark.parametrize("truncation", [8, 16, 32, 64, 128])
def test_solve_matches_scipy_lu_reference(eid, truncation):
    # The LU solution v of the assembled system maps to y = I^n v + p, with
    # I^n and the Taylor polynomial p = sum_l d_l t^l/l! = sum_l d_l I^l 1
    # taken from numpy's Legendre integration (on [-1, 1], hence scl=0.5).
    problem = builtin_example(eid).problem
    matrix, rhs = assemble_system(problem, truncation)
    v = scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), rhs)
    integrate = lambda c, times: np.polynomial.legendre.legint(c, m=times, lbnd=-1, scl=0.5)
    reference = integrate(v, problem.n)
    for l, d in enumerate(problem.ics):
        taylor = integrate([1.0], l)
        reference[:taylor.size] += d * taylor
    solution = solve_fide(problem, truncation)
    assert solution.coeffs.coeffs.shape == reference.shape
    deviation = np.max(np.abs(solution.coeffs.coeffs - reference))
    assert deviation <= 1e-14 * np.max(np.abs(reference))
    assert solution.condition_estimate == float(np.linalg.cond(matrix, 1))


_OVERFLOWING = dict(n=1, a=(1.7e308, 1.7e308), order=0.5, kernel=lambda t, s: t * s,
                   forcing=_zero_forcing, ics=(0.0,))


def test_overflowing_system_is_rejected():
    # a_1 + a_0 / 2 (the L_0 part of I L_0 is 1/2) overflows.  Without the
    # check the overflowed system would solve to NaN coefficients that slip
    # past the residual gate (NaN > tol is False).
    # No errstate: the solve raises without an overflow warning.
    problem = FIDEProblem(**_OVERFLOWING)
    with pytest.raises(ValueError, match="non-finite"):
        solve_fide(problem, 8)


def test_an_overflowing_kernel_term_is_inf_without_a_warning():
    # exp(700 t s) is finite on the grid, but the kernel term's products
    # overflow.  No errstate: the RuntimeWarning filter of the suite turns a
    # warning from fredholm_block, assemble_system or solve_fide into a failure.
    kernel = lambda t, s: np.exp(700.0 * t * s)
    assert not np.isfinite(fredholm_block(kernel, 7.3, 16)).all()
    problem = FIDEProblem(n=3, a=(1.0, 0.0, -1.0, 3.0), order=7.3, kernel=kernel,
                          forcing=np.exp, ics=(0.0, 0.0, 0.0))
    matrix, _ = assemble_system(problem, 16)
    assert not np.isfinite(matrix).all()
    with pytest.raises(ValueError, match="non-finite entries at truncation 16"):
        solve_fide(problem, 16)
    # A kernel term of -1.7e308 is finite, but the matrix subtracts it
    # from the classical rows' 1.7e308.
    huge = lambda t, s: np.full(np.broadcast(t, s).shape, -1.7e308)
    problem = FIDEProblem(n=1, a=(0.0, 1.7e308), order=0.5, kernel=huge,
                          forcing=np.ones_like, ics=(0.0,))
    matrix, _ = assemble_system(problem, 4)
    assert np.isinf(matrix).any()
    with pytest.raises(ValueError, match="non-finite entries at truncation 4"):
        solve_fide(problem, 4)


def test_overflowing_coefficient_is_rejected_without_a_warning(tmp_path, capsys):
    # No errstate here: the RuntimeWarning filter of the suite turns an
    # overflow warning from the assembly into a failure.  The kernel-free
    # table is cached with its inf, so the repeat raises the same error,
    # again without a warning, and the CLI exits with the config code 2.
    problem = FIDEProblem(**_OVERFLOWING)
    matrix, _ = assemble_system(problem, 8)
    assert not np.isfinite(matrix).all()
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite entries at truncation 8"):
            solve_fide(problem, 8)
    config = tmp_path / "overflow.json"
    config.write_text('{"n": 1, "a": [1.7e308, 1.7e308], "alpha": 0.5, "kernel": "t*s", '
                      '"forcing": "0", "ics": [0]}', encoding="utf-8")
    assert cli.main(["solve", "--config", str(config), "--N", "8"]) == 2
    assert "non-finite entries" in capsys.readouterr().err


def test_a_solvable_system_whose_one_norm_overflows_keeps_its_condition(tmp_path, capsys):
    # max|A| = 1.5e308 is finite, but the column sums of |A| overflow.  The
    # condition is that of a = (1e300, 1e300), the same system scaled.  No
    # errstate: an overflow warning fails the solve, the sweep and the CLI.
    def problem(scale):
        return FIDEProblem(n=1, a=(scale, scale), order=0.5, kernel=lambda t, s: t * s,
                           forcing=lambda t: np.ones_like(t), ics=(0.0,))

    expected = solve_fide(problem(1e300), 8).condition_estimate
    assert expected == pytest.approx(2.414553286985642, rel=1e-12)
    assert solve_fide(problem(1e308), 8).condition_estimate == pytest.approx(expected, rel=1e-12)
    report = convergence_study(problem(1e308), np.zeros_like, (4, 8))
    assert all(entry.failure is None for entry in report.entries)
    config = tmp_path / "overflow.json"
    config.write_text('{"n": 1, "a": [1e308, 1e308], "alpha": 0.5, "kernel": "t*s", '
                      '"forcing": "1", "ics": [0]}', encoding="utf-8")
    assert cli.main(["solve", "--config", str(config), "--N", "8"]) == 0
    condition = json.loads(capsys.readouterr().out)["condition_estimate"]
    assert condition == pytest.approx(expected, rel=1e-12)


def test_a_non_finite_solution_fails_the_residual_gate():
    # A is well conditioned (condition 2), but v = A^-1 rhs overflows to
    # (-inf, inf); its residual is NaN, which no "residual > tolerance" rejects.
    matrix = np.array([[1.0, 1.0], [1.0, -1.0]]) * 1e-10
    with pytest.raises(SolverError, match="^solution is not finite at truncation 4$"):
        solver._gated_solve(4, matrix, np.array([1e300, -1e300]))
    # In a sweep each such truncation is a failed entry, not an aborted study.
    problem = FIDEProblem(n=1, a=(0.0, 1e-300), order=0.5, kernel=lambda t, s: 1e-300 * t * s,
                          forcing=lambda t: 1e10 * np.sqrt(t), ics=(0.0,))
    report = convergence_study(problem, np.zeros_like, (4, 8))
    assert [entry.failure for entry in report.entries] == [
        f"solution is not finite at truncation {n}" for n in (4, 8)]


def test_a_lifted_solution_that_overflows_is_a_solver_error():
    # v is finite, but adding the initial value 1.7e308 to the lifted
    # series overflows.  No errstate: an overflow warning fails the test.
    problem = FIDEProblem(n=1, a=(0.0, 1.0), order=0.5, kernel=lambda t, s: 0.0 * t * s,
                          forcing=lambda t: np.full_like(t, 1e308), ics=(1.7e308,))
    with pytest.raises(SolverError, match="^solution is not finite at truncation 4$"):
        solve_fide(problem, 4)
    report = convergence_study(problem, np.zeros_like, (4, 8))
    assert [entry.failure for entry in report.entries] == [
        f"solution is not finite at truncation {n}" for n in (4, 8)]


def _count_calls(monkeypatch, original):
    """Count calls of a package function through every cltau binding of its name."""
    name = original.__name__
    calls = {name: 0}

    def counted(*args):
        calls[name] += 1
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cltau") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_warm_solve_rebuilds_no_basis_table(monkeypatch):
    # The package tabulates no Chebyshev polynomial: the forcing is sampled
    # at the Chebyshev nodes and mapped straight to Legendre projections.
    # A cold solve builds Legendre tables, a warm one none.
    problem = builtin_example("5.4").problem
    cltransform._tables.clear()
    assert not [name for name, module in sys.modules.items()
                if name.startswith("cltau") and hasattr(module, "shifted_chebyshev_table")]
    calls = _count_calls(monkeypatch, orthopoly.shifted_legendre_table)
    cold = solve_fide(problem, 24)
    assert calls["shifted_legendre_table"] > 0
    calls["shifted_legendre_table"] = 0
    warm = solve_fide(problem, 24)
    assert calls == {"shifted_legendre_table": 0}
    np.testing.assert_array_equal(warm.coeffs.coeffs, cold.coeffs.coeffs)


def test_warm_solve_sums_no_operational_matrix(monkeypatch):
    # The kernel-free rows depend only on (a, N) and come from the banded
    # integration recurrence: neither a cold nor a warm solve builds an
    # operational matrix, and the warm repeat is the same bit for bit.
    problem = builtin_example("5.4").problem
    cltransform._tables.clear()
    calls = _count_calls(monkeypatch, operational_matrix)
    cold = solve_fide(problem, 24)
    warm = solve_fide(problem, 24)
    assert calls == {"operational_matrix": 0}
    assert warm.coeffs.coeffs.tobytes() == cold.coeffs.coeffs.tobytes()


def test_cold_solve_builds_no_operational_matrix(monkeypatch):
    # Every classical row of 5.4 (orders 0..3) is a power of the banded
    # integral I, and its kernel term needs I^(n - alpha) L_j only, so a cold
    # solve builds no operational matrix and no derivative matrix.
    problem = builtin_example("5.4").problem
    cltransform._tables.clear()
    calls = _count_calls(monkeypatch, operational_matrix)
    derivative = _count_calls(monkeypatch, fracderiv._legendre_derivative_coeffs)
    solve_fide(problem, 24)
    assert calls == {"operational_matrix": 0}
    assert derivative == {"_legendre_derivative_coeffs": 0}


def test_cached_classical_rows_serve_another_problem_with_the_same_a():
    # 5.1 and 5.2 share a = (0, 1) but differ in order, kernel and forcing:
    # the second assembly reuses the first one's rows and must equal an
    # assembly from an empty table store bit for bit.
    first, second = builtin_example("5.1").problem, builtin_example("5.2").problem
    assert first.a == second.a
    assemble_system(first, 16)
    warm = assemble_system(second, 16)
    cltransform._tables.clear()
    fresh = assemble_system(second, 16)
    for got, expected in zip(warm, fresh):
        assert got.tobytes() == expected.tobytes()


def _held_truncations(builder):
    return {args[-1] for stored, args in cltransform._tables if stored is builder.__wrapped__}


def test_the_table_store_is_bounded_in_bytes(monkeypatch):
    # The budget, derived from the measured entry sizes, holds the tables
    # of the two largest of these truncations but not of the three
    # smallest, so every new truncation past the second evicts, least
    # recently used first; at 1 MiB the projection tables of N = 260
    # (1.16 MB) are not kept at all.  No eviction changes a bit of any
    # solution.
    problem = builtin_example("5.4").problem
    expected, sizes = {}, {}
    for truncation in (200, 220, 240, 260):
        cltransform._tables.clear()
        expected[truncation] = solve_fide(problem, truncation).coeffs.coeffs.tobytes()
        sizes[truncation] = {builder.__name__: sum(array.nbytes for array in tables)
                             for (builder, _), (tables, _) in cltransform._tables.items()}
    # Every entry is charged at least budget / 512, below 16 KiB while the
    # budget is below 8 MiB.
    budget = sum(max(size, 16 << 10) for n in (240, 260) for size in sizes[n].values())
    assert budget < min(8 << 20, sum(sum(sizes[n].values()) for n in (200, 220, 240)))
    assert sizes[260]["_legendre_projection"] > 1 << 20
    monkeypatch.setattr(cltransform, "_tables", OrderedDict())
    monkeypatch.setattr(cltransform, "_TABLE_BYTES", budget)
    for truncation in (200, 220, 200, 240, 260):
        assert solve_fide(problem, truncation).coeffs.coeffs.tobytes() == expected[truncation]
        assert sum(size for _, size in cltransform._tables.values()) <= budget
        if truncation == 240:  # 200 was used after 220, so 220 went first
            assert _held_truncations(solver._integral_rows) == {200, 240}
    assert _held_truncations(solver._integral_rows) == {240, 260}
    monkeypatch.setattr(cltransform, "_TABLE_BYTES", 1 << 20)
    cltransform._tables.clear()
    assert solve_fide(problem, 260).coeffs.coeffs.tobytes() == expected[260]
    assert sum(size for _, size in cltransform._tables.values()) <= 1 << 20
    # The kernel-free rows went to make room for the kernel table.
    assert [builder.__name__ for builder, _ in cltransform._tables] == [
        "_singular_rule", "_caputo_quadrature"]


def test_cached_tables_are_read_only():
    arrays = (list(cltransform._legendre_projection(12))
              + list(solver._caputo_quadrature(0.5, 1, 12, 3))
              + list(solver._error_grid())
              + list(solver._integral_rows((1.0, 0.0, -1.0, 3.0), 12)))
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 1.0
