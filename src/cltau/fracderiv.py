"""Caputo fractional derivatives of monomials and the shifted-Legendre
operational matrix.

The power rule is exact: D^a x^b = Gamma(b+1)/Gamma(b-a+1) x^{b-a}, with
integer powers below m = ceil(a) annihilated.  _caputo_basis evaluates D^a
of each trial function of the solver, un-truncated, as x^(m-a) times a
polynomial; its n = 0 case is D^a of the shifted Legendre polynomials
themselves.  The operational matrix projects D^a applied to
each shifted Legendre polynomial back onto the basis, in float64 and
without monomial expansions: integer orders are powers of the exact
integer first-derivative matrix, and fractional orders integrate those
polynomial factors against the basis with a Jacobi-Gauss rule that carries
the x^(m-a) weight and is exact for them.  Nothing here is cached: the
solver keeps the per-truncation tables it builds from these.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import (MonomialSeries, _check_integer, _jacobi_table, _over_gamma,
                        shifted_legendre_table)
from .quadrature import jacobi_gauss_rule

__all__ = [
    "CaputoOrder",
    "caputo_power_rule",
    "caputo_apply",
    "operational_matrix",
]


@dataclass(frozen=True)
class CaputoOrder:
    """Fractional order alpha > 0 with m = ceil(alpha), so m - 1 < alpha <= m."""

    alpha: float
    m: int = field(init=False)

    def __post_init__(self):
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha <= 0:
            raise ValueError(f"Caputo order must be finite and positive, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "m", math.ceil(alpha))


def _as_order(order) -> CaputoOrder:
    if isinstance(order, CaputoOrder):
        return order
    return CaputoOrder(float(order))


def caputo_power_rule(beta: float, order) -> tuple[float, float]:
    """(coefficient, exponent) of D^alpha x^beta.

    Integer beta below m is annihilated, returned as (0.0, 0.0).  Non-integer
    beta must satisfy beta > m - 1 (below that the Caputo integral of the
    m-th derivative diverges at 0).
    """
    order = _as_order(order)
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"exponent must be finite and non-negative, got {beta!r}")
    if beta == int(beta):
        if beta < order.m:
            return (0.0, 0.0)
    elif beta <= order.m - 1:
        raise ValueError(
            f"non-integer exponent {beta!r} must exceed m - 1 = {order.m - 1} "
            f"for Caputo order {order.alpha!r}")
    try:
        coeff = math.gamma(beta + 1.0) / math.gamma(beta - order.alpha + 1.0)
    except OverflowError:  # a Gamma factor past the float range (beta > 170): take logs
        log_coeff = math.lgamma(beta + 1.0) - math.lgamma(beta - order.alpha + 1.0)
        coeff = math.exp(log_coeff) if log_coeff < 709.78 else math.inf  # e^709.78 < 2^1024
    if math.isinf(coeff):
        raise ValueError(f"the Caputo coefficient of x^{beta!r} at order {order.alpha!r} "
                         "is beyond the float range")
    return (coeff, beta - order.alpha)


def caputo_apply(series: MonomialSeries, order) -> MonomialSeries:
    """Termwise Caputo derivative of a monomial series (vanishing terms dropped)."""
    order = _as_order(order)
    out = []
    for q, p in series.terms:
        coeff, expo = caputo_power_rule(p, order)
        if coeff != 0.0 and q != 0:
            out.append((float(q) * coeff, expo))
    return MonomialSeries(tuple(out))


def _legendre_derivative_coeffs(n: int, m: int) -> np.ndarray:
    """Row j: shifted Legendre coefficients of the m-th derivative of L_{1,j}.

    d/dx L_{1,j} = sum over k < j with j - k odd of 2 (2k+1) L_{1,k}; the
    entries are integers, exact in float64 while below 2^53.
    """
    j, k = np.indices((n + 1, n + 1))
    first = np.where((k < j) & ((j - k) % 2 == 1), 2.0 * (2 * k + 1), 0.0)
    return np.linalg.matrix_power(first, m)


def _caputo_basis(order: CaputoOrder, n: int, degree: int, x: np.ndarray) -> np.ndarray:
    """Row j: g_j at the points x, where D^alpha u_j = x^(m-alpha) g_j for the
    trial functions of y = p + I^n v: u_j = x^l/l! for l = m..n-1, then
    I^n L_{1,j} for j = 0..degree.  D^alpha x^l/l! is x^(m-alpha)
    x^(l-m)/Gamma(l-alpha+1), and with lift = max(m - n, 0),
    D^alpha I^n L_{1,j} = I^mu D^lift L_{1,j}, mu = lift + n - alpha: the
    integer matrix of _legendre_derivative_coeffs, then x^mu times the rows
    of orthopoly._jacobi_table.  Nothing is expanded in monomials, so the
    values stay accurate at high degree."""
    m, alpha = order.m, order.alpha
    lift = max(m - n, 0)
    factors = _jacobi_table(lift + n - alpha, degree, x)
    if lift:
        factors = np.tensordot(_legendre_derivative_coeffs(degree, lift), factors, axes=1)
    taylor = np.reshape([_over_gamma(x ** (l - m), l - alpha + 1.0) for l in range(m, n)],
                        (-1,) + x.shape)
    return np.concatenate((taylor, factors * x ** (n + lift - m)))


def operational_matrix(order, n: int) -> np.ndarray:
    """Operational matrix of D^alpha on shifted Legendre coefficients, degree <= n:
    the (n+1) x (n+1) float64 array S(i,j) = (2j+1) int_0^1 D^alpha L_{1,i}
    L_{1,j} dx, the coefficient of L_{1,j} in the projection of D^alpha L_{1,i}.

    Row i expands the derivative of basis element i, so coefficient vectors
    transform by S.T: S.T @ c holds the Legendre coefficients of the
    projected D^alpha of the series c.  The first ceil(alpha) rows are exact
    zeros.  `order` is a CaputoOrder, a positive real, or a non-negative
    integer; order 0 is the identity by convention.  The projection does not
    depend on n, so the matrix for a smaller n is the leading block of the
    one for a larger n: bit for bit at integer orders, to rounding at
    fractional ones.  Built afresh on every call.

    Integer alpha = m: the m-th power of the first-derivative matrix of
    _legendre_derivative_coeffs (m = 0: exactly the identity).  Its entries
    are non-negative integers, so every partial sum of the power is an
    integer no larger than the final entry and the result is exact while
    the largest entry is below 2^53: m <= 4 up to n = 128 (largest entry
    9.2e13) and m = 5 up to n = 64.  Beyond that the rounding is relative,
    about m * n * eps.

    Fractional alpha: D^alpha L_{1,i}(x) = x^(m-alpha) g_i(x) with g_i a
    polynomial of degree i - m (_caputo_basis at n = 0), so
    S(i,j) = (2j+1) sum_q w_q g_i(s_q) L_{1,j}(s_q) over the (n+2)-point
    Jacobi-Gauss rule for the weight x^(m-alpha), which is exact because
    g_i L_{1,j} has degree at most 2n.
    """
    n = _check_integer(n, 0, "truncation degree must be a non-negative integer")
    if not isinstance(order, CaputoOrder) and float(order) == 0.0:
        return _legendre_derivative_coeffs(n, 0)
    order = _as_order(order)
    if order.alpha == order.m:
        return _legendre_derivative_coeffs(n, order.m)
    s, w = jacobi_gauss_rule(n + 1, order.m - order.alpha)
    factors = _caputo_basis(order, 0, n, s) * w
    basis = shifted_legendre_table(n, s)
    entries = (factors @ basis.T) * (2.0 * np.arange(n + 1) + 1.0)
    entries[:order.m] = 0.0
    return entries
