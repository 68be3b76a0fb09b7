"""Algebraic versus exponential convergence, measured and classified.

Two catalog problems tell the whole story:

* 5.2 has the exact solution 2t^4 - t^1.5.  The t^1.5 cusp at the origin
  limits every polynomial approximation, so the error decays like a
  power of 1/N (algebraic).
* 5.4 has the entire exact solution t*e^t, so the error decays
  geometrically (exponential) until it hits the rounding floor.

The convergence-study harness fits both decay models to the measured
errors and reports the better-fitting one with its rate and R^2.

Run with:  python3 demos/convergence_story.py
"""

from cltau.solver import builtin_example, convergence_study


def show(example_id: str, truncations):
    example = builtin_example(example_id)
    report = convergence_study(example.problem, example.exact, truncations)
    print(f"\n[{example_id}] {example.description}")
    print(f"    {'N':>4}  {'l2_error':>12}  {'max_error':>12}")
    for entry in report.entries:
        if entry.failure is not None:
            print(f"    {entry.truncation:>4}  solve failed: {entry.failure}")
        else:
            print(f"    {entry.truncation:>4}  {entry.l2_error:12.4e}  {entry.max_error:12.4e}")
    fit = report.fitted_decay
    if fit.kind == "stagnated":
        print("    fitted decay: stagnated")
    elif fit.kind == "resolved":
        print(f"    fitted decay: resolved at N={fit.resolved_at}")
    else:
        print(f"    fitted decay: {fit.kind}, rate {fit.rate:.4g}, R^2 {fit.r_squared:.6f}")


def main():
    print("Decay classification on two catalog problems")
    print("=" * 60)
    show("5.2", [4, 8, 16, 32])
    show("5.4", [4, 6, 8, 10, 12])
    print("\nReading the rates: for 5.2 the error behaves like N^(-rate), so")
    print("each doubling of N buys a fixed factor 2^rate; for 5.4 it behaves")
    print("like e^(-rate * N), so each increment of N buys rate / ln 10 digits")
    print("(a rate of 3.79 is 1.64 digits) — until the 1e-12 floor, below")
    print("which points are excluded from the fit.")


if __name__ == "__main__":
    main()
