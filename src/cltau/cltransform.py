"""Chebyshev interpolation carried into the shifted Legendre frame.

Known functions are sampled at the n + 1 shifted Chebyshev-Gauss points and
enter the solver only through the weighted Legendre projections
f_k = (I_n f, L_{1,k}) of their interpolant I_n f (Don & Gottlieb, SIAM J.
Numer. Anal. 31, 1994).  I_n f is evaluated by barycentric interpolation
(Berrut & Trefethen, SIAM Rev. 46, 2004) at the nodes of the
(n + 16)-point shifted Legendre-Gauss rule that also projects the kernel
term, and integrated against L_{1,k} there; (I_n f) L_{1,k} has degree
<= 2n, so the rule is exact.  That rule, its weighted Legendre table and
the sampling-to-projection map depend on n alone and share one cache,
_legendre_projection, which the solver's kernel term reads too.
"""

from functools import lru_cache

import numpy as np

from .orthopoly import _check_integer, shifted_legendre_table
from .quadrature import chebyshev_gauss_rule, legendre_gauss_rule

__all__ = [
    "chebyshev_interpolate",
]

_TABLE_CACHE = 128
_KERNEL_EXTRA_POINTS = 16


@lru_cache(maxsize=_TABLE_CACHE)
def _legendre_projection(n: int) -> tuple[np.ndarray, ...]:
    """The per-n tables of the projection onto degrees 0..n; cached, read-only.

    Returns the nodes x of the (n + 16)-point shifted Legendre-Gauss rule,
    the weighted table w_x L_{1,r}(x) (indexed [x, r]), the scale 2r + 1,
    the shifted Chebyshev-Gauss nodes y_j and the forcing map M with
    M @ f(y) = ((I_n f, L_{1,k}))_k.

    M = weighted^T P, where P[q, j] is the barycentric interpolation matrix
    from the y_j to the x_q, with the closed-form weights
    (-1)^j sin((2j + 1) pi / (2n + 2)) of Chebyshev points of the first
    kind.  No x_q equals a y_j: both rules hold an exact 0.5 midpoint, the
    Chebyshev one for even n and the Legendre one for odd n.
    """
    rule = legendre_gauss_rule(n + _KERNEL_EXTRA_POINTS - 1)
    x = rule.nodes
    weighted = rule.weights[:, None] * shifted_legendre_table(n, x).T
    scale = 2.0 * np.arange(n + 1) + 1.0
    nodes = chebyshev_gauss_rule(n).nodes
    j = np.arange(n + 1)
    terms = ((-1.0) ** j * np.sin((2 * j + 1) * np.pi / (2 * n + 2))) / (x[:, None] - nodes)
    matrix = weighted.T @ (terms / terms.sum(axis=1, keepdims=True))
    tables = (x, weighted, scale, nodes, matrix)
    for array in tables:
        array.flags.writeable = False
    return tables


def _real_samples(raw, shape: tuple[int, ...], name: str, where: str) -> np.ndarray:
    """The samples raw of a problem function as float64, broadcast to shape.

    Raises ValueError naming the function (name) when they are complex
    (float64 would keep only the real part), do not broadcast to shape, or
    are not finite.
    """
    values = np.asarray(raw)
    if np.iscomplexobj(values):
        raise ValueError(f"{name} returned complex samples {where}")
    try:
        values = np.broadcast_to(values.astype(float, copy=False), shape)
    except ValueError:
        raise ValueError(
            f"{name} returned shape {values.shape}, not broadcastable to {shape}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {name} sample {where}")
    return values


def chebyshev_interpolate(f, n: int) -> np.ndarray:
    """Weighted Legendre projections f_k = (I_n f, L_{1,k}), k = 0..n, of the
    interpolant I_n f of f at the n+1 shifted Chebyshev-Gauss points.

    f is called once, on the array of nodes, and must broadcast; a result
    that does not depend on its argument (a constant) is broadcast to the
    nodes.  The solver interpolates its forcing here, so complex or
    non-finite samples raise ValueError naming f the forcing.  The nodes
    and the sampling-to-projection map depend only on n and come from a
    bounded cache, so a repeated call evaluates only f and one
    matrix-vector product.
    """
    *_, nodes, matrix = _legendre_projection(
        _check_integer(n, 0, "truncation must be a non-negative integer"))
    return matrix @ _real_samples(f(nodes), nodes.shape, "forcing", "at the interpolation nodes")
