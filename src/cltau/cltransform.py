"""Chebyshev interpolation carried into the shifted Legendre frame.

Known functions are sampled at the n + 1 shifted Chebyshev-Gauss points and
enter the solver only through the weighted Legendre projections
f_k = (I_n f, L_{1,k}) of their interpolant I_n f (Don & Gottlieb, SIAM J.
Numer. Anal. 31, 1994).  I_n f is evaluated by barycentric interpolation
(Berrut & Trefethen, SIAM Rev. 46, 2004), in one place,
_barycentric_matrix P, at the nodes of the (n + 16)-point shifted
Legendre-Gauss rule that also projects the kernel term, and integrated
against L_{1,k} there: every projection is weighted^T (P f) with the
rule's weighted Legendre table; (I_n f) L_{1,k} has degree <= 2n, so the
rule is exact.  That rule, its weighted Legendre table, the Chebyshev nodes
and P depend on n alone and are one entry, _legendre_projection, which the
solver's kernel term reads too.  The rule of any larger n' is exact as
well, so a convergence sweep projects the interpolants of all its
truncations on the rule of its largest one, from one call of f on the
nodes of every truncation below it (_nested_projections).

Every table the package reuses, here and in the solver, is kept in one
store: _stored wraps each builder, keys its tables on (builder, arguments),
makes them read-only and evicts the least recently used ones past a budget
in bytes.
"""

import functools
import threading
from collections import OrderedDict

import numpy as np

from .orthopoly import _check_integer, shifted_legendre_table
from .quadrature import legendre_gauss_rule

__all__ = [
    "chebyshev_interpolate",
]

_KERNEL_EXTRA_POINTS = 16
# Byte budget of the table store.  Every entry counts as at least 1/512 of
# it, so the store never holds more than 512 entries.
_TABLE_BYTES = 256 << 20

_tables = OrderedDict()  # (builder, args) -> (tables, bytes charged), oldest use first
_tables_lock = threading.Lock()


def _stored(builder):
    """builder, with the tuple of arrays it returns kept in the one table
    store, read-only, keyed on (builder, positional arguments).

    A hit moves its entry to the recent end.  A miss builds outside the
    lock (a builder may look up another one), then evicts from the least
    recently used end until the charged bytes fit _TABLE_BYTES.  An entry
    larger than the whole budget is returned and not kept.  Two threads
    that miss one key may both build it; the first insert is kept.
    """
    @functools.wraps(builder)
    def lookup(*args):
        key = (builder, args)
        with _tables_lock:
            entry = _tables.get(key)
            if entry is not None:
                _tables.move_to_end(key)
                return entry[0]
        tables = builder(*args)
        for array in tables:
            array.flags.writeable = False
        charge = max(sum(array.nbytes for array in tables), _TABLE_BYTES // 512)
        if charge > _TABLE_BYTES:
            return tables
        with _tables_lock:
            entry = _tables.setdefault(key, (tables, charge))
            _tables.move_to_end(key)
            held = sum(size for _, size in _tables.values())
            while held > _TABLE_BYTES:
                held -= _tables.popitem(last=False)[1][1]
        return entry[0]
    return lookup


@_stored
def _legendre_projection(n: int) -> tuple[np.ndarray, ...]:
    """The per-n tables of the projection onto degrees 0..n; stored.

    Returns the nodes x of the (n + 16)-point shifted Legendre-Gauss rule,
    the weighted table w_x L_{1,r}(x) (indexed [x, r]), the shifted
    Chebyshev-Gauss nodes y_j and the (n + 16) x (n + 1)
    _barycentric_matrix P from the y_j to the x_q, so that
    weighted^T (P f(y)) = ((I_n f, L_{1,k}))_k.
    """
    x, w_x = legendre_gauss_rule(n + _KERNEL_EXTRA_POINTS - 1)
    weighted = w_x[:, None] * shifted_legendre_table(n, x).T
    nodes, weights, _ = _chebyshev_nodes((n,))
    return x, weighted, nodes, _barycentric_matrix(x, nodes, weights)


def _chebyshev_nodes(ns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shifted Chebyshev-Gauss nodes (1 - cos((2j + 1) pi / (2n + 2)))/2,
    j = 0..n, of every n in ns, concatenated, each block exactly symmetric;
    their barycentric weights (-1)^j sin((2j + 1) pi / (2n + 2)) (Chebyshev
    points of the first kind); and where each n's block starts."""
    sizes = np.asarray(ns, dtype=int) + 1
    starts = np.cumsum(sizes) - sizes
    start, n = np.repeat(starts, sizes), np.repeat(sizes - 1, sizes)
    j = np.arange(sizes.sum()) - start
    angle = (2 * j + 1) * np.pi / (2 * n + 2)
    nodes = -np.cos(angle)
    nodes = (nodes - nodes[start + n - j]) / 2.0  # exact antisymmetry, exact 0 mid-node
    return (nodes + 1.0) / 2.0, (-1.0) ** j * np.sin(angle), starts


def _barycentric_matrix(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The matrix P[q, j] of barycentric interpolation from the nodes y_j,
    with weights w_j, to the points x_q.  A point x_q equal to a node y_j
    gets the unit row e_j: the Legendre rule of an odd size and the
    Chebyshev nodes of an even n both hold 0.5."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights / (x[:, None] - nodes)
        matrix = terms / terms.sum(axis=1, keepdims=True)
    hit, node = np.nonzero(x[:, None] == nodes)
    matrix[hit] = 0.0
    matrix[hit, node] = 1.0
    return matrix


def _real_samples(raw, shape: tuple[int, ...], name: str, where: str) -> np.ndarray:
    """The samples raw of a problem function as float64, broadcast to shape.

    Raises ValueError naming the function (name) when they are complex
    (float64 would keep only the real part), do not broadcast to shape, or
    are not finite.  Float64 samples of that shape come back uncopied.
    """
    values = np.asarray(raw)
    if np.iscomplexobj(values):
        raise ValueError(f"{name} returned complex samples {where}")
    values = values.astype(float, copy=False)
    try:
        values = values if values.shape == shape else np.broadcast_to(values, shape)
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
    non-finite samples raise ValueError naming f the forcing.  The nodes,
    the weighted table and the barycentric matrix P depend only on n and
    come from the table store, so a repeated call evaluates only f and
    the two matrix-vector products of weighted^T (P f).
    """
    _, weighted, nodes, interpolation = _legendre_projection(
        _check_integer(n, 0, "truncation must be a non-negative integer"))
    return weighted.T @ (interpolation @ _forcing_samples(f, nodes))


def _forcing_samples(f, nodes: np.ndarray) -> np.ndarray:
    return _real_samples(f(nodes), nodes.shape, "forcing", "at the interpolation nodes")


def _nested_projections(f, truncations) -> list[np.ndarray]:
    """chebyshev_interpolate(f, n) for each n of the strictly increasing
    truncations, the largest, top, by chebyshev_interpolate itself.

    Every n below top is integrated on the rule of _legendre_projection(top):
    (I_n f) L_{1,k} has degree <= 2n, so it gives the same projections up
    to round-off.  f is called once on the nodes of all those n together;
    each n's projections are weighted[:, :n + 1]^T (P_n f_n), with P_n its
    own _barycentric_matrix to the top + 16 Legendre nodes, built here and
    not stored, so the scratch is one (top + 16) x (n + 1) array at a time.
    """
    *below, top = truncations
    projections = []
    if below:
        x, weighted, *_ = _legendre_projection(top)
        nodes, weights, starts = _chebyshev_nodes(below)
        samples = _forcing_samples(f, nodes)
        blocks = [slice(start, start + n + 1) for n, start in zip(below, starts)]
        interpolated = (_barycentric_matrix(x, nodes[b], weights[b]) @ samples[b] for b in blocks)
        projections = [weighted[:, :n + 1].T @ values for n, values in zip(below, interpolated)]
    return projections + [chebyshev_interpolate(f, top)]
