"""Coefficient transforms between shifted Chebyshev and shifted Legendre bases.

For u = sum_j beta_j L_{1,j} = sum_j alpha_j T_{1,j} the matrices satisfy
alpha = A beta and beta = B alpha.  Entries are weighted/unweighted inner
products of basis pairs; both are polynomials of degree <= 2n, so an
(n+1)-point Gauss rule of the matching family evaluates them exactly and
no recurrence bootstrapping is needed.  Entries with i > j or i + j odd
vanish by parity and are pinned to exact zeros.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orthopoly import (ChebyshevSeries, LegendreSeries, shifted_chebyshev_table,
                        shifted_legendre_table)
from .quadrature import chebyshev_gauss_rule, legendre_gauss_rule

__all__ = [
    "TransformPair",
    "transform_pair",
    "legendre_to_chebyshev",
    "chebyshev_to_legendre",
    "chebyshev_interpolate",
]

_PAIR_CACHE = 128


@dataclass(frozen=True)
class TransformPair:
    """a: Legendre->Chebyshev coefficient matrix; b: its inverse. a @ b = I."""

    n: int
    a: np.ndarray
    b: np.ndarray


@lru_cache(maxsize=_PAIR_CACHE)
def transform_pair(n: int) -> TransformPair:
    """Build the transform matrices for degrees 0..n.

    a[i, j] = (T_{1,i}, L_{1,j})_w / h_i with the Chebyshev weight
    (x - x^2)^(-1/2), h_0 = pi and h_i = pi/2 otherwise, via Chebyshev-Gauss
    quadrature; b[i, j] = (2i+1) (L_{1,i}, T_{1,j}) via Legendre-Gauss.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"truncation degree must be a non-negative integer, got {n!r}")
    n = int(n)
    upper_even = np.zeros((n + 1, n + 1), dtype=bool)
    for i in range(n + 1):
        for j in range(i, n + 1, 2):
            upper_even[i, j] = True

    cg = chebyshev_gauss_rule(n, shifted=True)
    cheb_c = shifted_chebyshev_table(n, cg.nodes)
    leg_c = shifted_legendre_table(n, cg.nodes)
    h = np.full(n + 1, np.pi / 2.0)
    h[0] = np.pi
    a = ((cheb_c * cg.weights) @ leg_c.T) / h[:, None]

    lg = legendre_gauss_rule(n, shifted=True)
    leg_l = shifted_legendre_table(n, lg.nodes)
    cheb_l = shifted_chebyshev_table(n, lg.nodes)
    scale = 2.0 * np.arange(n + 1) + 1.0
    b = ((leg_l * lg.weights) @ cheb_l.T) * scale[:, None]

    a[~upper_even] = 0.0
    b[~upper_even] = 0.0
    a.flags.writeable = False
    b.flags.writeable = False
    return TransformPair(n=n, a=a, b=b)


def legendre_to_chebyshev(series: LegendreSeries) -> ChebyshevSeries:
    """Re-expand a shifted Legendre series in the shifted Chebyshev basis."""
    pair = transform_pair(series.degree)
    return ChebyshevSeries(pair.a @ series.coeffs)


def chebyshev_to_legendre(series: ChebyshevSeries) -> LegendreSeries:
    """Re-expand a shifted Chebyshev series in the shifted Legendre basis."""
    pair = transform_pair(series.degree)
    return LegendreSeries(pair.b @ series.coeffs)


def chebyshev_interpolate(f, n: int) -> ChebyshevSeries:
    """Interpolate f at the n+1 shifted Chebyshev-Gauss points.

    f is called once, on the array of nodes, and must broadcast; a result
    that does not depend on its argument (a constant) is broadcast to the
    nodes.  Returns the shifted Chebyshev coefficients of the interpolant
    via the discrete transform
    u_k = (2 - delta_{k0})/(n+1) sum_j f(x_j) T_{1,k}(x_j), which is exact
    at Gauss (interior) nodes.
    """
    rule = chebyshev_gauss_rule(n, shifted=True)
    values = np.broadcast_to(np.asarray(f(rule.nodes), dtype=float), rule.nodes.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("function is not finite at the interpolation nodes")
    table = shifted_chebyshev_table(rule.npoints - 1, rule.nodes)
    scale = np.full(rule.npoints, 2.0 / rule.npoints)
    scale[0] = 1.0 / rule.npoints
    return ChebyshevSeries(scale * (table @ values))
