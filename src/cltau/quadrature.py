"""Chebyshev-Gauss, Legendre-Gauss and Jacobi-Gauss quadrature rules.

Chebyshev-Gauss nodes and weights are closed-form.  Legendre-Gauss nodes are
computed by Newton iteration on the Legendre recurrence from the classical
cosine initial guesses, then symmetrized; this is cheap and accurate for the
rule sizes a spectral solver on [0, 1] ever needs.  Jacobi-Gauss rules for
the weight x^b on (0, 1), which absorb an integrable power singularity at
x = 0, come from the eigenvalues of the Jacobi matrix (Golub-Welsch).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "chebyshev_gauss_rule",
    "legendre_gauss_rule",
    "jacobi_gauss_rule",
]

_RULE_CACHE = 128
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITERS = 100


@dataclass(frozen=True)
class QuadratureRule:
    """An (N+1)-point rule: family name, domain, strictly increasing nodes, positive weights."""

    family: str
    domain: tuple[float, float]
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        lo, hi = self.domain
        if np.any(nodes <= lo) or np.any(nodes >= hi):
            raise ValueError("quadrature nodes must lie strictly inside the domain")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def npoints(self) -> int:
        return self.nodes.size


def _check_rule_index(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"rule index must be a non-negative integer, got {n!r}")
    return int(n)


@lru_cache(maxsize=_RULE_CACHE)
def chebyshev_gauss_rule(n: int, shifted: bool = False) -> QuadratureRule:
    """(n+1)-point Chebyshev-Gauss rule for the weight (1-x^2)^(-1/2).

    Nodes x_j = -cos((2j+1)pi/(2n+2)), constant weights pi/(n+1); exact for
    polynomials of degree <= 2n+1 against the weight.  With shifted=True the
    rule lives on (0, 1) with weight (x - x^2)^(-1/2) (same weights).
    """
    n = _check_rule_index(n)
    j = np.arange(n + 1)
    nodes = -np.cos((2 * j + 1) * np.pi / (2 * n + 2))
    nodes = (nodes - nodes[::-1]) / 2.0  # enforce exact antisymmetry (exact 0 mid-node)
    weights = np.full(n + 1, np.pi / (n + 1))
    if shifted:
        rule = QuadratureRule("chebyshev_gauss", (0.0, 1.0), (nodes + 1.0) / 2.0, weights)
    else:
        rule = QuadratureRule("chebyshev_gauss", (-1.0, 1.0), nodes, weights)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1 by recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=_RULE_CACHE)
def legendre_gauss_rule(n: int, shifted: bool = False) -> QuadratureRule:
    """(n+1)-point Legendre-Gauss rule: nodes are the roots of P_{n+1}.

    Newton iteration from the initial guesses cos(pi(4j+3)/(4n+6)) with
    update tolerance 1e-15, then the symmetrization x_j <- (x_j - x_{n-j})/2
    to remove the last-bit asymmetry.  Weights 2/((1-x^2) P'_{n+1}(x)^2).
    Exact for polynomials of degree <= 2n+1.  With shifted=True the rule is
    mapped to (0, 1) (weights halved).
    """
    n = _check_rule_index(n)
    m = n + 1
    j = np.arange(m)
    x = np.cos(np.pi * (4 * j + 3) / (4 * n + 6))
    for _ in range(_NEWTON_MAX_ITERS):
        p, dp = _legendre_and_derivative(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Legendre-Gauss Newton iteration failed to converge for n={n}")
    x = (x - x[::-1]) / 2.0
    _, dp = _legendre_and_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    if shifted:
        rule = QuadratureRule("legendre_gauss", (0.0, 1.0), (x + 1.0) / 2.0, w / 2.0)
    else:
        rule = QuadratureRule("legendre_gauss", (-1.0, 1.0), x, w)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def jacobi_gauss_rule(n: int, exponent: float) -> QuadratureRule:
    """(n+1)-point Gauss rule on (0, 1) for the weight x^exponent, exponent > -1.

    sum_j w_j g(x_j) equals int_0^1 x^exponent g(x) dx for polynomials g of
    degree <= 2n+1.  Nodes and weights come from the symmetric tridiagonal
    Jacobi matrix of the Jacobi polynomials P^(0, exponent) mapped to
    (0, 1) (Golub-Welsch); exponent 0 gives the shifted Legendre-Gauss rule.
    """
    n = _check_rule_index(n)
    b = float(exponent)
    if not np.isfinite(b) or b <= -1.0:
        raise ValueError(f"weight exponent must be finite and > -1, got {exponent!r}")
    k = np.arange(1, n + 1)
    two_kb = 2.0 * k + b
    diag = np.empty(n + 1)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (two_kb * (two_kb + 2.0))
    off = 2.0 * k * (k + b) / (two_kb * np.sqrt(two_kb * two_kb - 1.0))
    jacobi = np.diag((1.0 + diag) / 2.0) + np.diag(off / 2.0, 1) + np.diag(off / 2.0, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2 / (b + 1.0)
    return QuadratureRule("jacobi_gauss", (0.0, 1.0), nodes, weights)

