"""Build a problem of your own and verify the solver on it.

The manufactured-solutions harness turns any polynomial "answer" into a
fully posed problem: pick the exact solution, pick the equation's
coefficients, order, and kernel, and `mms_forcing` derives the forcing
that makes your pick solve the equation.  Solving then has a known
target, so real errors (not residuals) can be measured.

Here: a second-order equation with a Caputo order of 3/2 under the
integral,

    y''(t) - 2 y'(t) + 3 y(t) = f(t) + integral_0^1 (1 + t) s^2 D^(3/2) y(s) ds,
    y(0) = 1,  y'(0) = 0,

manufactured so the exact solution is y(t) = 1 + t^2 - t^5.

Run with:  python3 demos/custom_problem.py
"""

import numpy as np

from cltau.orthopoly import MonomialSeries
from cltau.solver import (
    FIDEProblem,
    error_norms,
    initial_condition_residuals,
    mms_forcing,
    solve_fide,
    tau_residuals,
)


def main():
    exact = MonomialSeries(((1.0, 0.0), (1.0, 2.0), (-1.0, 5.0)))  # 1 + t^2 - t^5
    n, a, alpha = 2, (3.0, -2.0, 1.0), 1.5
    kernel = lambda t, s: (1.0 + t) * s * s
    forcing = mms_forcing(exact, n, a, alpha, kernel)
    problem = FIDEProblem(n=n, a=a, order=alpha, kernel=kernel,
                          forcing=forcing, ics=(1.0, 0.0))

    print("Manufactured problem: exact solution 1 + t^2 - t^5")
    print(f"    {'N':>3}  {'l2_error':>12}  {'max_error':>12}")
    for truncation in (2, 3, 4, 5, 8):
        l2, largest = error_norms(solve_fide(problem, truncation), exact)
        print(f"    {truncation:>3}  {l2:12.4e}  {largest:12.4e}")

    print("\nThe exact solution is a quintic, so N = 5 is the first")
    print("truncation that can represent it — and the error drops to")
    print("solver precision exactly there.")

    solution = solve_fide(problem, 8)
    ic = initial_condition_residuals(problem, solution)
    tau = tau_residuals(problem, solution)
    print(f"\nAt N = 8: initial-condition residuals {np.max(np.abs(ic)):.2e}, "
          f"Galerkin residuals {np.max(np.abs(tau)):.2e}")
    print(f"Sampled solution at t = 0.5: {solution(0.5):.15f}")
    print(f"Exact value at t = 0.5:      {1 + 0.25 - 0.5 ** 5:.15f}")


if __name__ == "__main__":
    main()
