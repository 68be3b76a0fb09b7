"""Shifted Legendre polynomials on [0, 1].

L_{1,k}(x) = P_k(2x - 1) is the mu = 0 case of one stable scaled Jacobi
recurrence, _jacobi_rows, written once: every basis table fills its rows
from it, and LegendreSeries sums its coefficients against them as they
arrive.  MonomialSeries carries finite sums of real powers of x, which the
fractional calculus needs explicitly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LegendreSeries",
    "MonomialSeries",
    "shifted_legendre_table",
]


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    # NaN fails both comparisons, so one min and one max also reject it.
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError("evaluation point outside [0, 1]")
    return x


def _check_integer(value, minimum: int, message: str) -> int:
    """value as a Python int: an int or numpy integer, never a bool, >= minimum.

    The one rule for every size, degree and order the package takes.  Run it
    before any table store lookup: the store treats True and 1 as one key.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def _over_gamma(value, z: float):
    """value / Gamma(z); where Gamma(z) is past the float range (z > 171.6),
    value * exp(-lgamma(z)), which underflows towards 0."""
    try:
        return value / math.gamma(z)
    except OverflowError:
        return value * math.exp(-math.lgamma(z))


def _jacobi_rows(mu: float, n: int, x):
    """Rows k = 0..n, one at a time, of k!/Gamma(k+mu+1) P_k^(-mu,mu)(2x-1)
    for mu >= 0, so that I^mu L_{1,k} is x^mu times row k; mu = 0 gives
    L_{1,k} itself.  From the Jacobi recurrence k P_k = (2k-1) t P_{k-1} -
    ((k-1)^2 - mu^2)/(k-1) P_{k-2} with the scale folded in."""
    t = 2.0 * np.asarray(x, dtype=float) - 1.0
    previous, row = None, np.full(t.shape, _over_gamma(1.0, mu + 1.0))
    yield row
    if n >= 1:
        previous, row = row, _over_gamma(t - mu, mu + 2.0)
        yield row
    for k in range(2, n + 1):
        previous, row = row, ((2 * k - 1) * t * row - (k - 1 - mu) * previous) / (k + mu)
        yield row


def _jacobi_table(mu: float, n: int, x) -> np.ndarray:
    """The rows of _jacobi_rows as one (n + 1, *x.shape) array."""
    x = np.asarray(x, dtype=float)
    table = np.empty((n + 1,) + x.shape)
    for k, row in enumerate(_jacobi_rows(mu, n, x)):
        table[k] = row
    return table


def shifted_legendre_table(n: int, x) -> np.ndarray:
    """Values of L_{1,0}..L_{1,n} at x in [0, 1]; row k holds degree k."""
    n = _check_integer(n, 0, "polynomial degree must be a non-negative integer")
    return _jacobi_table(0.0, n, _check_domain(x))


@dataclass(frozen=True)
class MonomialSeries:
    """Finite sum q_1 x^{p_1} + ... with real exponents p_k > -1.

    Coefficients may be Python ints (kept exact) or floats.  This is the
    carrier for manufactured exact solutions and for Caputo derivatives of
    them, whose exponents are genuinely non-integer (and may sit in
    (-1, 0), an integrable singularity at x = 0).  Evaluation is one broadcast,
    x[..., None] ** p @ q, over float64 copies of the terms made once at
    construction; it keeps the shape of x and returns a float for a
    scalar.  A sum past the float range is inf or NaN, without a warning:
    the callers check samples for finiteness and name the function.
    """

    terms: tuple[tuple[float, float], ...]
    _qp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qp = np.array(self.terms, dtype=float).reshape(len(self.terms), 2).T
        if not np.isfinite(qp).all():
            raise ValueError("non-finite monomial term")
        if (qp[1] <= -1).any():
            raise ValueError(f"exponent {float(qp[1].min())!r} is not integrable on [0, 1]")
        qp.flags.writeable = False
        object.__setattr__(self, "_qp", qp)

    def __call__(self, x):
        x = _check_domain(x)
        q, p = self._qp
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = (x[..., None] ** p) @ q
        return float(out) if out.ndim == 0 else out


def _check_coeffs(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient vector must be one-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coefficient")
    return arr


@dataclass(frozen=True)
class LegendreSeries:
    """u(x) = sum_j coeffs[j] L_{1,j}(x) on [0, 1].  A sum past the float
    range is inf or NaN, without a warning, as for MonomialSeries."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _check_coeffs(self.coeffs))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        # Summed as _jacobi_rows yields each row: no (degree + 1) x points table.
        rows = _jacobi_rows(0.0, self.degree, _check_domain(x))
        with np.errstate(over="ignore", invalid="ignore"):
            out = sum(c * row for c, row in zip(self.coeffs, rows))
        return float(out) if np.ndim(out) == 0 else out
