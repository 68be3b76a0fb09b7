"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Every criterion is asserted at its stated tolerance.  Two of them rest on
facts worth stating here:

* criterion 2 checks the coarser transcribed reference column for
  problem 5.4 at the truncation that column needs.  The source labels it
  N = 4, but no degree-4 polynomial meeting the three initial conditions
  comes within 1e-5 of it (the best misses by 6.69e-4), so the source's N
  does not count the trial degree the way this solver's truncation does.
  The test derives the smallest degree that can reach the column from the
  column alone, checks that it is above 4, and solves at that degree;
* criterion 5 recovers the Legendre coefficients of 8t + 3t^3 for problem
  5.3 at N = 4 to 1e-9.  The exact solution lies in the trial space, and
  the kernel term integrates sqrt(s) against the exact D^(3/2) of the
  trial basis, so nothing but round-off separates the solve from it.

The suite exercises the public API end to end: the problem registry, the
solver, the error norms, the convergence-study fits, the operational
matrices, the basis transforms, the quadrature rules, and the
manufactured-solution harness.
"""

import math
import time

import numpy as np

from test_cltransform import applied_map, chebyshev_dct, projection_40_digits, transform_pair
from test_fracderiv import _oracle_matrix

from cltau.cltransform import chebyshev_interpolate
from cltau.fracderiv import operational_matrix
from cltau.orthopoly import LegendreSeries, MonomialSeries
from cltau.quadrature import legendre_gauss_rule
from cltau.solver import (
    FIDEProblem,
    builtin_example,
    convergence_study,
    error_norms,
    mms_forcing,
    solve_fide,
)

# Transcribed reference values for problem 5.4 (ten printed digits) at
# t = 0, 0.2, ..., 1.0: the runs the source labels N = 4 and N = 8, and the
# exact solution t*e^t.
_T_GRID = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
_REF_N4 = np.array([0.0, 0.2442815491, 0.5967277463,
                    1.093273679, 1.780432013, 2.718281658])
_REF_N8 = np.array([0.0, 0.2442805512, 0.5967298754,
                    1.093271221, 1.780432791, 2.718281815])


def test_01_exact_linear_solution_at_every_truncation():
    # Problem 5.1 has the exact polynomial solution 14t, i.e. shifted
    # Legendre coefficients (7, 7, 0, ...); every truncation from 1 to 6
    # must recover them to 1e-10, in under a second altogether.
    problem = builtin_example("5.1").problem
    start = time.perf_counter()
    for truncation in range(1, 7):
        solution = solve_fide(problem, truncation)
        target = np.zeros(truncation + 1)
        target[:2] = 7.0
        deviation = float(np.max(np.abs(solution.coeffs.coeffs - target)))
        assert deviation <= 1e-10, f"N={truncation}: deviation {deviation:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def _least_squares_misfits(column):
    # Max deviation from `column` on _T_GRID of the least-squares fit
    # t + t^2 + c_3 t^3 + ... + c_d t^d, by degree d: every polynomial with
    # y(0) = 0, y'(0) = 1, y''(0) = 2 has this form.  The column is 0 at
    # t = 0, so degree 2 + (number of other grid points) interpolates it and
    # the last misfit is round-off.
    target = column - _T_GRID - _T_GRID ** 2
    misfits = {}
    for degree in range(3, 2 + len(_T_GRID)):
        basis = _T_GRID[:, None] ** np.arange(3, degree + 1)
        fit = np.linalg.lstsq(basis, target, rcond=None)[0]
        misfits[degree] = float(np.max(np.abs(basis @ fit - target)))
    return misfits


def test_02_reference_table_reproduction():
    # Problem 5.4 against the transcribed reference table at
    # t in {0, 0.2, 0.4, 0.6, 0.8, 1}.  The coarser column is checked at
    # the smallest trial degree that can come within 1e-5 of it, taken
    # from the column alone; the source's label N = 4 is not that degree.
    misfits = _least_squares_misfits(_REF_N4)
    degree = min(d for d, misfit in misfits.items() if misfit <= 1e-5)
    assert degree > 4, (
        f"a degree-{degree} polynomial with the initial conditions fits the "
        f"column labelled N=4 to {misfits[degree]:.3e}")

    example = builtin_example("5.4")
    start = time.perf_counter()
    coarse = solve_fide(example.problem, degree)
    sol8 = solve_fide(example.problem, 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s exceeds 5s"

    dev8 = float(np.max(np.abs(sol8(_T_GRID) - _REF_N8)))
    assert dev8 <= 5e-7, f"N=8 vs reference column: {dev8:.3e} > 5e-7"
    dev8_exact = float(np.max(np.abs(sol8(_T_GRID) - _T_GRID * np.exp(_T_GRID))))
    assert dev8_exact <= 5e-7, f"N=8 vs t*e^t: {dev8_exact:.3e} > 5e-7"

    dev_coarse = float(np.max(np.abs(coarse(_T_GRID) - _REF_N4)))
    assert dev_coarse <= 1e-5, (
        f"N={degree} vs the column labelled N=4: {dev_coarse:.3e} > 1e-5 "
        f"(a least-squares polynomial of that degree with the initial "
        f"conditions reaches {misfits[degree]:.3e}; at degree 4 the best "
        f"reaches only {misfits[4]:.3e})")


def test_03_error_ratio_between_truncations():
    # Problem 5.4: the L2 error at N = 8 must undercut 1/100 of the N = 4
    # error (measured ratio is ~4.5e6, far past the requirement).
    example = builtin_example("5.4")
    err4 = error_norms(solve_fide(example.problem, 4), example.exact)[0]
    err8 = error_norms(solve_fide(example.problem, 8), example.exact)[0]
    assert err8 < err4 / 100.0, f"err(8)={err8:.3e} not < err(4)/100={err4 / 100.0:.3e}"


def test_04_exponential_decay_classification():
    # Problem 5.4 has an entire exact solution, so the error must decay
    # exponentially over N in {4, 6, 8, 10, 12} with a clean fit
    # (R^2 >= 0.98) before reaching the 1e-12 floor.
    example = builtin_example("5.4")
    report = convergence_study(example.problem, example.exact, [4, 6, 8, 10, 12])
    fit = report.fitted_decay
    assert fit.kind == "exponential", f"classified {fit.kind}, expected exponential"
    assert fit.r_squared >= 0.98, f"R^2 {fit.r_squared:.4f} < 0.98"


def test_05_corrected_quartic_coefficients():
    # Problem 5.3 with the corrected forcing has the exact solution
    # 8x + 3x^3, whose shifted Legendre coefficients are
    # (4.75, 5.35, 0.75, 0.15, 0).
    target = np.array([4.75, 5.35, 0.75, 0.15, 0.0])

    # Documentation clause (passes): the as-transcribed forcing does NOT
    # reproduce 8x + 3x^3 — its residual is computed here and is five
    # orders of magnitude above solver precision, which is why the
    # corrected forcing exists.
    printed = builtin_example("5.3", "printed")
    printed_residual = error_norms(solve_fide(printed.problem, 4), printed.exact)[1]
    assert printed_residual > 1e-3, (
        f"transcribed-forcing residual {printed_residual:.3e} unexpectedly small")
    assert math.isclose(printed_residual, 9.151927e-2, rel_tol=1e-2), (
        f"transcribed-forcing residual drifted: {printed_residual:.6e}")

    corrected = builtin_example("5.3", "corrected")
    solution = solve_fide(corrected.problem, 4)
    deviation = float(np.max(np.abs(solution.coeffs.coeffs - target)))
    assert deviation <= 1e-9, (
        f"coefficient deviation {deviation:.3e} > 1e-9: 8x + 3x^3 lies in the "
        "degree-4 trial space, so only an inexact ingredient (kernel term, "
        "forcing, operational entries) can keep the solve from recovering it"
    )


def test_06_algebraic_decay_and_reference_bound():
    # Problem 5.2 (corrected forcing) has exact solution 2t^4 - t^1.5; the
    # t^1.5 cusp caps the decay at an algebraic rate.  Errors must strictly
    # decrease over N in {4, 8, 16}; the N = 16 solution must sit below the
    # pre-registered bound 1.76e-5 against a dense N = 32 reference; the
    # study must classify the decay as algebraic.
    example = builtin_example("5.2")
    errors = [error_norms(solve_fide(example.problem, n), example.exact)[0]
              for n in (4, 8, 16)]
    assert errors[0] > errors[1] > errors[2], f"not strictly decreasing: {errors}"

    reference = solve_fide(example.problem, 32)
    err16_vs_reference = error_norms(solve_fide(example.problem, 16), reference)[0]
    assert err16_vs_reference < 1.76e-5, (
        f"N=16 vs N=32 reference: {err16_vs_reference:.6e} >= 1.76e-5")

    fit = convergence_study(example.problem, example.exact, [4, 8, 16]).fitted_decay
    assert fit.kind == "algebraic", f"classified {fit.kind}, expected algebraic"


def test_07_operational_matrix_oracle_equivalence():
    # The closed-form operational matrices must agree with an independent
    # oracle that differentiates each basis polynomial termwise by the
    # power rule and projects by adaptive-precision quadrature
    # (test_fracderiv._oracle_matrix: 40-digit accumulation, substituted
    # 64-point rule).  sigma clears the fractional exponents of D^alpha.
    for alpha, sigma in ((0.25, 4), (0.5, 2), (0.75, 4), (1.5, 2), (2.5, 2)):
        built = operational_matrix(alpha, 12)
        oracle = _oracle_matrix(alpha, 12, sigma)
        deviation = float(np.max(np.abs(built - oracle)))
        assert deviation <= 1e-9, f"alpha={alpha}: deviation {deviation:.3e}"
        rows_annihilated = math.ceil(alpha)
        assert np.all(built[:rows_annihilated, :] == 0.0), (
            f"alpha={alpha}: first {rows_annihilated} rows not exactly zero")


def test_08_transform_inverse_and_round_trip():
    # The Chebyshev<->Legendre coefficient transforms must be exact
    # inverses to 1e-12, carry the exact structural zero pattern, and
    # round-trip polynomial samples to 1e-10.  The pair is built in the
    # tests; the package carries samples straight to Legendre projections,
    # weighted^T (P f) in chebyshev_interpolate, and the map that applies
    # to the unit sample vectors must be diag(1/(2k+1)) B (Chebyshev DCT)
    # to 1e-15 beyond that product's own distance from the exact map
    # (float64 B and DCT drift from it by up to 6.2e-15 at n = 32).
    for n in (4, 8, 16, 32):
        pair = transform_pair(n)
        identity = np.eye(n + 1)
        assert float(np.max(np.abs(pair.a @ pair.b - identity))) <= 1e-12
        assert float(np.max(np.abs(pair.b @ pair.a - identity))) <= 1e-12
        for i in range(n + 1):
            for j in range(n + 1):
                if i > j or (i + j) % 2 == 1:
                    assert pair.a[i, j] == 0.0 and pair.b[i, j] == 0.0, (
                        f"structural zero violated at ({i}, {j}) for n={n}")

        norms = 2.0 * np.arange(n + 1) + 1.0
        product = (pair.b / norms[:, None]) @ chebyshev_dct(n)
        scale = float(np.max(np.abs(product)))
        drift = float(np.max(np.abs(product - projection_40_digits(identity, n)))) / scale
        deviation = float(np.max(np.abs(applied_map(n) - product))) / scale
        assert deviation <= 1e-15 + drift, (
            f"n={n}: map deviation {deviation:.3e}, product drift {drift:.3e}")

        degree = min(n, 6)
        coeffs = [1.0, -3.0, 0.5, 2.0, -1.0, 0.25, 1.5][: degree + 1]
        poly = np.polynomial.Polynomial(coeffs)
        legendre = LegendreSeries(norms * chebyshev_interpolate(poly, n))
        grid = np.linspace(0.0, 1.0, 41)
        round_trip = float(np.max(np.abs(legendre(grid) - poly(grid))))
        assert round_trip <= 1e-10, f"n={n}: round-trip error {round_trip:.3e}"


def test_09_quadrature_exactness():
    # The (N+1)-point rule must integrate every monomial through degree
    # 2N+1 over [0, 1] to 1e-12.
    for n in (2, 4, 8, 16):
        nodes, weights = legendre_gauss_rule(n)
        for degree in range(2 * n + 2):
            value = float(weights @ nodes ** degree)
            assert abs(value - 1.0 / (degree + 1)) <= 1e-12, (
                f"n={n}, degree {degree}: error {abs(value - 1.0 / (degree + 1)):.3e}")


def test_10_manufactured_solution_suite():
    # Twenty random manufactured problems (polynomial exact solutions of
    # degree <= 6, first/second order, fractional orders 1/2 and 3/2,
    # polynomial kernels of degree <= 2) must round-trip through
    # forcing-derivation and solve to 1e-7, all inside 30 seconds.
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.3f}s exceeds 30s"
