"""Tau solver: kernel moments and forcing projections against closed forms,
a fully hand-checked 2x2 assembly, the built-in problem catalog with frozen
error magnitudes, manufactured-solution round trips, scaling equivariance,
the convergence-study classifier, and the solve against a scipy LU
reference, including both ways the pivot gate is decided."""

import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
import scipy.linalg

from test_cltransform import projection_40_digits
from test_orthopoly import monomial_form_legendre

from cltau import cltransform, exprlang, orthopoly, solver
from cltau.fracderiv import (CaputoOrder, caputo_apply, caputo_legendre_factors, gamma,
                             operational_matrix)
from cltau.orthopoly import MonomialSeries, shifted_legendre_table
from cltau.quadrature import chebyshev_gauss_rule, legendre_gauss_rule
from cltau.solver import (
    DecayFit,
    FIDEProblem,
    SolverError,
    assemble_system,
    builtin_example,
    builtin_example_ids,
    convergence_study,
    error_norms,
    example_config,
    forcing_coeffs,
    fredholm_block,
    initial_condition_residuals,
    l2_error,
    max_error,
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
    # A truncation N reads the leading rows of the table built for its rung
    # R = 16 ceil(N / 16).  At a multiple of 16 that table is the one built
    # for N itself, so the block is the same bit for bit.  Elsewhere the
    # inner rule has R + 16 > N + 16 points; both rules are exact for the
    # catalog kernels (to round-off for exp(t - s)), so the blocks agree to
    # round-off: at most 3.8e-14 of the largest entry measured at these N.
    entry = solver._CATALOG[example_id]
    args = (entry.kernel, entry.alpha)
    for truncation in (0, 16, 32, 48, 64):
        block = fredholm_block(*args, truncation, entry.kernel_s_power)
        reference = _per_truncation_block(*args, truncation, entry.kernel_s_power)
        assert block.tobytes() == reference.tobytes(), truncation
    for truncation in (1, 5, 17, 20, 31, 47):
        block = fredholm_block(*args, truncation, entry.kernel_s_power)
        reference = _per_truncation_block(*args, truncation, entry.kernel_s_power)
        assert block.shape == reference.shape
        assert np.max(np.abs(block - reference)) <= 1e-13 * np.max(np.abs(reference)), truncation


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
        product = (operational_matrix(alpha, truncation).entries
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
    # f_k = int_0^1 f L_{1,k}: constants project to (c, 0, ...), f = t to
    # (1/2, 1/6, 0), and f = L_{1,2} to (0, 0, 1/5).
    const = forcing_coeffs(lambda t: np.full_like(np.asarray(t, dtype=float), 14.0), 2)
    assert np.allclose(const, [14.0, 0.0, 0.0], rtol=0, atol=1e-14)
    linear = forcing_coeffs(lambda t: np.asarray(t, dtype=float), 2)
    assert np.allclose(linear, [0.5, 1.0 / 6.0, 0.0], rtol=0, atol=1e-14)
    basis2 = forcing_coeffs(lambda t: shifted_legendre_table(2, np.asarray(t))[2], 3)
    assert np.allclose(basis2, [0.0, 0.0, 0.2, 0.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("truncation", [1, 4, 16, 64])
def test_forcing_coeffs_is_the_legendre_transform_of_the_interpolant(truncation):
    # forcing_coeffs is chebyshev_interpolate, bit for bit, and both are the
    # projections of the interpolant of the float samples, which a 40-digit
    # computation of the same interpolant pins to 1e-15.
    forcing = builtin_example("5.4").problem.forcing
    coeffs = forcing_coeffs(forcing, truncation)
    np.testing.assert_array_equal(coeffs, cltransform.chebyshev_interpolate(forcing, truncation))
    samples = forcing(chebyshev_gauss_rule(truncation).nodes)
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
    # First catalog problem at N = 1.  Galerkin row (k = 0): the derivative
    # contributes S_1(1,0) c_1 = 2 c_1; the Fredholm term contributes
    # [S_(1/2)(1,0) b_00 + S_(1/2)(1,1) b_10] c_1 = (8/(3 sqrt pi) * 1/4
    # + 8/(5 sqrt pi) * 1/12) c_1 = 4/(5 sqrt pi) c_1; the right side is
    # int f = 14 (1 - 1/(5 Gamma(3/2))).  Condition row: y(0) = c_0 - c_1.
    problem = builtin_example("5.1").problem
    matrix, rhs = assemble_system(problem, 1)
    assert matrix[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert matrix[0, 1] == pytest.approx(2.0 - 4.0 / (5.0 * _SQRT_PI), rel=1e-13)
    assert np.allclose(matrix[1], [1.0, -1.0], rtol=0, atol=1e-15)
    assert rhs[0] == pytest.approx(14.0 * (1.0 - 1.0 / (5.0 * gamma(1.5))), rel=1e-13)
    assert rhs[1] == 0.0


def test_assembly_shapes_and_condition_rows():
    problem = builtin_example("5.4").problem
    matrix, rhs = assemble_system(problem, 6)
    assert matrix.shape == (7, 7) and rhs.shape == (7,)
    # The last n rows enforce y(0), y'(0), y''(0); with all coefficients
    # equal they must evaluate the derivative tables at 0.
    signs = (-1.0) ** np.arange(7)
    assert np.allclose(matrix[4], signs, rtol=0, atol=1e-15)
    assert np.allclose(rhs[4:], [0.0, 1.0, 2.0], rtol=0, atol=0)
    # Every condition row against the closed form
    # d^i L_{1,j}(0) = (-1)^(j-i) (j+i)! / (i! (j-i)!), exact integers here.
    for truncation in (6, 64):
        matrix, _ = assemble_system(problem, truncation)
        for i in range(problem.n):
            expected = [(-1) ** (j - i) * (math.perm(j + i, 2 * i) // math.factorial(i))
                        for j in range(truncation + 1)]
            row = matrix[truncation - problem.n + 1 + i]
            np.testing.assert_array_equal(row, np.array(expected, dtype=float))


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
    # The catalog keeps a numpy kernel beside kernel_expr (an exprlang
    # kernel call costs more, and a warm solve makes two) and a numpy exact
    # solution beside mms_exact.  Neither pair may drift apart: the kernels
    # agree bit for bit, and so do the exact solutions except for the
    # truncated exponential series of 5.4, which stays within 1e-15.
    entry = solver._catalog_entry(example_id)
    grid = np.linspace(0.0, 1.0, 41)
    t, s = grid[:, None], grid[None, :]
    kernel = np.broadcast_to(entry.kernel(t, s), (41, 41))
    source = np.broadcast_to(exprlang.evaluate(exprlang.parse(entry.kernel_expr), t=t, s=s),
                             (41, 41))
    assert kernel.tobytes() == source.tobytes()
    points = np.linspace(0.0, 1.0, 6001)
    exact, series = entry.exact(points), entry.mms_exact(points)
    if example_id == "5.4":
        assert np.all(np.abs(exact - series) <= 1e-15 * np.abs(exact))
    else:
        assert exact.tobytes() == series.tobytes()


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
        assert l2_error(solution, ex.exact) == pytest.approx(err, rel=1e-4)


def test_quarter_order_printed_forcing_is_inconsistent():
    # The transcribed forcing text does not belong to the stated exact
    # solution; the solver reproduces the forcing faithfully, so the error
    # against the stated solution plateaus near 8.0e-3 instead of converging.
    ex = builtin_example("5.2", "printed")
    solution = solve_fide(ex.problem, 8)
    assert l2_error(solution, ex.exact) == pytest.approx(8.004777e-3, rel=1e-3)


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
    assert max_error(solution, ex.exact) == pytest.approx(9.151927e-2, rel=1e-3)


def test_exponential_kernel_problem_frozen_errors():
    # Exact solution x e^x with an analytic kernel: the decay is
    # exponential; N = 8 reaches 2.0e-9.
    ex = builtin_example("5.4")
    solution = solve_fide(ex.problem, 8)
    assert l2_error(solution, ex.exact) == pytest.approx(2.012422e-9, rel=1e-3)
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
        assert l2_error(solution, exact) <= 1e-7, f"trial {trial}"
        assert max_error(solution, exact) <= 1e-7, f"trial {trial}"


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


# ------------------------------------------------------------ error norms

def test_error_norms_reference_behavior():
    ex = builtin_example("5.1")
    solution = solve_fide(ex.problem, 4)
    assert l2_error(solution, ex.exact) <= 1e-13
    assert max_error(solution, ex.exact) <= 1e-13
    # A constant offset of 1 must register as exactly 1 in both norms.
    shifted = lambda x: ex.exact(x) + 1.0
    assert l2_error(solution, shifted) == pytest.approx(1.0, abs=1e-12)
    assert max_error(solution, shifted) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eid", ["5.2", "5.4"])
def test_error_norms_is_both_norms_from_one_evaluation(eid):
    ex = builtin_example(eid)
    for truncation in (4, 12, 32):
        solution = solve_fide(ex.problem, truncation)
        l2, largest = error_norms(solution, ex.exact)
        assert (l2, largest) == (l2_error(solution, ex.exact), max_error(solution, ex.exact))
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
    calls = []
    original = orthopoly.eval_series
    monkeypatch.setattr(orthopoly, "eval_series",
                        lambda series, x: calls.append(np.size(x)) or original(series, x))
    ex = builtin_example("5.4")
    report = convergence_study(ex.problem, ex.exact, [4, 8, 12, 16])
    assert len(report.entries) == 4
    assert calls == [128 + 101] * 4


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
    calls = _counting_smallest_pivot(monkeypatch)
    solution = solve_fide(builtin_example("5.4").problem, 32)
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
    for relative_pivot, matrix in matrices.items():
        monkeypatch.setattr(solver, "assemble_system",
                            lambda *args, m=matrix: (m, m @ exact))
        if relative_pivot < 1e-14:
            with pytest.raises(SolverError, match=r"truncation 7 \(smallest pivot"):
                solve_fide(problem, 7)
        else:
            assert solve_fide(problem, 7).condition_estimate > 1e12
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
    problem = builtin_example("5.4").problem
    calls = _count_linalg(monkeypatch)
    solve_fide(problem, 32)
    assert calls == {"solve": 1, "inv": 0}
    for relative_pivot in (1e-13, 0.0):
        matrix = _matrix_with_pivot(relative_pivot)
        monkeypatch.setattr(solver, "assemble_system",
                            lambda *args, m=matrix: (m, m @ np.linspace(1.0, 2.0, 8)))
        calls.update(solve=0, inv=0)
        if relative_pivot:
            assert solve_fide(problem, 7).condition_estimate > 1e12
        else:
            with pytest.raises(SolverError, match=r"smallest pivot 0\.000e\+00, threshold"):
                solve_fide(problem, 7)
        assert calls == {"solve": 1, "inv": 0}


@pytest.mark.parametrize("eid", ["5.1", "5.2", "5.3", "5.4"])
@pytest.mark.parametrize("truncation", [8, 16, 32, 64, 128])
def test_solve_matches_scipy_lu_reference(eid, truncation):
    problem = builtin_example(eid).problem
    matrix, rhs = assemble_system(problem, truncation)
    reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), rhs)
    solution = solve_fide(problem, truncation)
    deviation = np.max(np.abs(solution.coeffs.coeffs - reference))
    assert deviation <= 1e-14 * np.max(np.abs(reference))
    assert solution.condition_estimate == float(np.linalg.cond(matrix, 1))


def test_overflowing_system_is_rejected():
    # Without the check the overflowed system would solve to NaN
    # coefficients that slip past the residual gate (NaN > tol is False).
    problem = FIDEProblem(n=1, a=(1e308, 1e308), order=0.5, kernel=lambda t, s: t * s,
                          forcing=_zero_forcing, ics=(0.0,))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        solve_fide(problem, 8)


def test_overflowing_coefficient_is_named_without_a_warning():
    # No errstate here: the RuntimeWarning filter of the suite turns an
    # overflow warning from the assembly into a failure.
    problem = FIDEProblem(n=1, a=(1e308, 1e308), order=0.5, kernel=lambda t, s: t * s,
                          forcing=_zero_forcing, ics=(0.0,))
    with pytest.raises(ValueError, match=r"a_1 = 1e\+308 .* non-finite"):
        assemble_system(problem, 8)
    with pytest.raises(ValueError, match="a_1"):
        solve_fide(problem, 8)
    # The derivative operator is cached, but a failed build is not: the
    # repeat raises the same error, again without a warning.
    with pytest.raises(ValueError, match=r"a_1 = 1e\+308 .* non-finite"):
        assemble_system(problem, 8)


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
    for cache in (cltransform._legendre_projection, solver._caputo_quadrature,
                  solver._classical_rows):
        cache.cache_clear()
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
    # Sum_i a_i D^i depends only on (a, N): a warm repeat of the solve
    # takes it from the cache and builds no operational matrix.
    problem = builtin_example("5.4").problem
    solver._classical_rows.cache_clear()
    calls = _count_calls(monkeypatch, operational_matrix)
    cold = solve_fide(problem, 24)
    assert calls["operational_matrix"] > 0
    calls["operational_matrix"] = 0
    warm = solve_fide(problem, 24)
    assert calls == {"operational_matrix": 0}
    assert warm.coeffs.coeffs.tobytes() == cold.coeffs.coeffs.tobytes()


def test_cold_solve_builds_only_the_first_derivative_matrix(monkeypatch):
    # Every classical row of 5.4 (orders 0..3) is a power of the order-1
    # operational matrix, so a cold solve builds that one matrix and no
    # other; the Caputo factors of its kernel term take D^1 straight from
    # the integer derivative coefficients.
    problem = builtin_example("5.4").problem
    for cache in (solver._classical_rows, solver._caputo_quadrature):
        cache.cache_clear()
    calls = _count_calls(monkeypatch, operational_matrix)
    solve_fide(problem, 24)
    assert calls == {"operational_matrix": 1}


def test_one_caputo_table_per_rung():
    # N = 4..16 share the rung 16 and N = 20..32 the rung 32, so a sweep
    # over N = 4..32 step 4 builds two Caputo tables, not eight, and a
    # later solve at N = 20 finds its table in the cache.
    problem = builtin_example("5.4").problem
    solver._caputo_quadrature.cache_clear()
    solver._singular_rule.cache_clear()
    for truncation in range(4, 33, 4):
        solve_fide(problem, truncation)
    assert solver._caputo_quadrature.cache_info().currsize == 2
    assert solver._singular_rule.cache_info().currsize == 2
    before = solver._caputo_quadrature.cache_info()
    solve_fide(problem, 20)
    after = solver._caputo_quadrature.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_cached_classical_rows_serve_another_problem_with_the_same_a():
    # 5.1 and 5.2 share a = (0, 1) but differ in order, kernel and forcing:
    # the second assembly reuses the first one's rows and must equal an
    # assembly from an empty cache bit for bit.
    first, second = builtin_example("5.1").problem, builtin_example("5.2").problem
    assert first.a == second.a
    assemble_system(first, 16)
    warm = assemble_system(second, 16)
    solver._classical_rows.cache_clear()
    fresh = assemble_system(second, 16)
    for got, expected in zip(warm, fresh):
        assert got.tobytes() == expected.tobytes()


def test_cached_tables_are_read_only():
    arrays = (list(cltransform._legendre_projection(12))
              + list(solver._caputo_quadrature(0.5, 1, 12))
              + list(solver._error_grid())
              + [solver._classical_rows((1.0, 0.0, -1.0, 3.0), 12)])
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 1.0
