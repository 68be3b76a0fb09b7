"""Legendre-Gauss and Jacobi-Gauss quadrature rules, both on (0, 1).

Legendre-Gauss nodes are computed by Newton iteration in theta = arccos x
on the positive cosine series of P_{n+1}, one matrix of cosines per step,
for the half with x >= 0 and then mirrored, so the rule is exactly
symmetric; the weights come from the theta-derivative without a 1 - x^2
factor and are accurate to a few eps relative (Swarztrauber, SIAM J. Sci.
Comput. 24, 2002).  Jacobi-Gauss rules for the weight x^b on (0, 1), which
absorb an integrable power singularity at x = 0, come from the eigenvalues
of the Jacobi matrix (Golub-Welsch).
"""

from dataclasses import dataclass

import numpy as np

from .orthopoly import _check_integer

__all__ = [
    "QuadratureRule",
    "legendre_gauss_rule",
    "jacobi_gauss_rule",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITERS = 100


@dataclass(frozen=True)
class QuadratureRule:
    """An (N+1)-point rule on (0, 1): strictly increasing nodes, positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        # Each condition is written so that NaN fails it.
        if not np.all((nodes > 0.0) & (nodes < 1.0)):
            raise ValueError("quadrature nodes must lie strictly inside (0, 1)")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def npoints(self) -> int:
        return self.nodes.size


def _check_rule_index(n) -> int:
    return _check_integer(n, 0, "rule index must be a non-negative integer")


def legendre_gauss_rule(n: int) -> QuadratureRule:
    """(n+1)-point Legendre-Gauss rule on (0, 1): nodes are the roots of L_{1,n+1}.

    Newton iteration in theta = arccos x on the cosine series
    P_m(cos theta) = sum_k c_k cos((m - 2k) theta), m = n + 1, with
    c_k = g_k g_{m-k} and g_k = prod_{i<=k} (2i-1)/(2i): every c_k is
    positive and they sum to P_m(1) = 1, so one series evaluation loses no
    digits to cancellation.  c_k = c_{m-k}, so each such pair is one term.
    The c_k are correctly rounded from exact integer products; a float
    cumulative product drifts enough to leave |sum w - 1| near 1e-15.
    Each angle is split as hi + lo (Veltkamp, factor 2^s + 1 with
    s = max(9, bit length of m)), so hi has 53 - s bits, (m - 2k) hi is
    exact, and (m - 2k) lo, below 2^(2s-53), enters as a first-order
    correction; the second-order term it drops is below rounding for
    m < 8192.  (A fixed 513 leaves (m - 2k) hi inexact from m = 512 on and
    |sum w - 1| up to 9e-14 by n = 2099.)  Only the roots with x >= 0 are
    iterated, from the guesses theta_j = pi(4j+3)/(4n+6) to an update
    below 1e-15 (reached at every n <= 2099, where |sum w - 1| is at most
    6.7e-16), and mirrored; the
    middle node of an odd rule is 0.  Weights are 2/(dP_m/dtheta)^2, free
    of the 1 - x^2 factor.  The rule is then mapped to (0, 1): nodes
    (x + 1)/2, weights halved.  Exact for polynomials of degree <= 2n+1.
    """
    n = _check_rule_index(n)
    m = n + 1
    k = np.arange(m // 2 + 1)
    freq = m - 2.0 * k
    i = np.arange(1, m + 1, dtype=object)
    odd = np.concatenate(([1], np.cumprod(2 * i - 1)))
    even = np.concatenate(([1], np.cumprod(2 * i)))
    coef = np.where(freq > 0, 2.0, 1.0) * (
        odd[k] * odd[m - k] / (even[k] * even[m - k])).astype(float)
    split = 2.0 ** max(9, m.bit_length()) + 1.0

    def series(theta):  # P_m(cos theta) and -dP_m/dtheta
        t = split * theta
        hi = t - (t - theta)
        big, small = np.multiply.outer(hi, freq), np.multiply.outer(theta - hi, freq)
        cos, sin = np.cos(big), np.sin(big)
        cos, sin = cos - small * sin, sin + small * cos
        return cos @ coef, sin @ (freq * coef)

    theta = np.pi * (4 * np.arange((m + 1) // 2) + 3) / (4 * n + 6)
    for _ in range(_NEWTON_MAX_ITERS):
        p, dp = series(theta)
        step = p / dp
        theta += step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Legendre-Gauss Newton iteration failed to converge for n={n}")
    x = np.cos(theta)
    if m % 2:
        x[-1] = 0.0
    w = 1.0 / series(theta)[1] ** 2
    x = np.concatenate((-x, x[::-1][m % 2:]))
    w = np.concatenate((w, w[::-1][m % 2:]))
    return QuadratureRule((x + 1.0) / 2.0, w)


def jacobi_gauss_rule(n: int, exponent: float) -> QuadratureRule:
    """(n+1)-point Gauss rule on (0, 1) for the weight x^exponent, exponent > -1.

    sum_j w_j g(x_j) equals int_0^1 x^exponent g(x) dx for polynomials g of
    degree <= 2n+1.  Nodes and weights come from the symmetric tridiagonal
    Jacobi matrix of the Jacobi polynomials P^(0, exponent) mapped to
    (0, 1) (Golub-Welsch); exponent 0 gives the Legendre-Gauss rule.
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
    return QuadratureRule(nodes, weights)

