"""What the fractional-derivative operational matrix looks like.

The matrix maps shifted-Legendre coefficients of y to the coefficients
of the degree-N projection of D^alpha y.  Two things are worth seeing:

1. At integer orders it collapses to the classical derivative matrix,
   built from the exact Legendre derivative recurrence: exact integer
   entries, with exact zeros where the derivative has no component.
2. At fractional orders the first ceil(alpha) rows are exactly zero
   (those basis polynomials are annihilated), and the remaining entries
   are dense; the (1, 0) entry at alpha = 1/2 matches its closed form.

Run with:  python3 demos/operational_matrices.py
"""

import math

from cltau.fracderiv import operational_matrix


def show_matrix(label, matrix):
    print(f"\n{label}")
    for row in matrix:
        print("    [" + "  ".join(f"{v:9.5f}" for v in row) + "]")


def main():
    print("Integer orders collapse to classical derivative matrices")
    print("=" * 60)
    show_matrix("alpha = 1, N = 3:", operational_matrix(1.0, 3))
    show_matrix("alpha = 2, N = 3:", operational_matrix(2.0, 3))

    print("\n\nFractional order alpha = 1/2, N = 3")
    print("=" * 60)
    half = operational_matrix(0.5, 3)
    show_matrix("entries (first row annihilated):", half)
    known = 8.0 / (3.0 * math.sqrt(math.pi))
    print(f"\n    entry (1, 0) = {half[1, 0]:.10f}")
    print(f"    closed form 8/(3 sqrt(pi)) = {known:.10f}")


if __name__ == "__main__":
    main()
