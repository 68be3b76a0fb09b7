"""Tau discretization of linear Fredholm fractional integro-differential
equations on [0, 1].

The problem is sum_i a_i y^(i)(t) = f(t) + integral_0^1 k(t, s) D^alpha y(s) ds
with initial values y^(i)(0) = d_i.  The unknown is stored as a shifted
Legendre series.  The forcing is sampled at Chebyshev-Gauss points, and one
cached map of cltransform carries the samples to the Legendre projections
of their interpolant, so the assembled system is entirely a statement about
Legendre coefficients: the first truncation - n + 1 rows test the equation
against basis polynomials, the remaining n rows pin the initial values.  The
kernel term integrates k against the exact D^alpha of each basis polynomial
(not its projection onto degree <= truncation) by a Jacobi-Gauss rule that
absorbs the s^(ceil(alpha) - alpha) factor of that derivative.  That rule
and its table of derivatives are built once per rung R = 16 * ceil(N / 16)
of the truncation N, with R + 16 points, and every N of the rung reads its
first N + 1 rows; the outer Legendre-Gauss rule keeps N + 16 points per N.
See fredholm_block.

The system is solved by one LAPACK gesv through numpy.linalg.solve (LU with
partial pivoting) behind two gates: every LU pivot must reach 1e-14 times the
largest matrix entry, and the residual must stay below 1e-10 * (1 + max |rhs|).
The pivot gate is certified from the inverse that the 1-norm condition
estimate computes anyway, from the same factorization, and decided by explicit
elimination only when that bound is inconclusive; see solve_fide.

Kernels, forcings and exact solutions must accept numpy arrays, broadcast
(wrap scalar callables in numpy.vectorize if needed) and return real, finite
samples; anything else raises ValueError naming the function.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import exprlang
from .cltransform import (_KERNEL_EXTRA_POINTS, _legendre_projection, _real_samples,
                          chebyshev_interpolate)
from .fracderiv import (CaputoOrder, _as_order, caputo_apply, caputo_legendre_factors,
                        operational_matrix)
from .orthopoly import LegendreSeries, MonomialSeries, _check_integer
from .quadrature import jacobi_gauss_rule, legendre_gauss_rule

__all__ = [
    "SolverError",
    "FIDEProblem",
    "SpectralSolution",
    "ConvergenceEntry",
    "DecayFit",
    "ConvergenceReport",
    "fredholm_block",
    "forcing_coeffs",
    "assemble_system",
    "solve_fide",
    "mms_forcing",
    "BuiltinExample",
    "builtin_example",
    "builtin_example_ids",
    "example_config",
    "error_norms",
    "l2_error",
    "max_error",
    "initial_condition_residuals",
    "tau_residuals",
    "convergence_study",
]

_PIVOT_RTOL = 1e-14
_RESIDUAL_RTOL = 1e-10
_ERROR_RULE_POINTS = 128
_MMS_QUAD_POINTS = 64
_MAX_ERROR_POINTS = 101
_ERROR_FLOOR = 1e-12
_FIT_R2_MIN = 0.98
_TABLE_CACHE = 128
_INTEGER_TOL = 1e-12


class SolverError(RuntimeError):
    """Raised when the assembled tau system cannot be solved reliably."""


@dataclass(frozen=True)
class FIDEProblem:
    """One linear Fredholm fractional integro-differential problem.

    n is the classical derivative order (a has n + 1 entries, a[n] != 0),
    order the Caputo order of the derivative under the integral, and ics
    the n initial values y^(i)(0).  kernel_s_power = p declares the kernel
    smooth in v = s**(1/p) (p = 2 for sqrt(s)).  Each s-integral of the
    kernel against s^phi times a polynomial (phi = ceil(alpha) - alpha in
    the kernel term) is then one Jacobi-Gauss rule in v for the weight
    v^(p (phi + 1) - 1), exact for kernels polynomial in v (_singular_rule).
    """

    n: int
    a: tuple[float, ...]
    order: CaputoOrder
    kernel: Callable
    forcing: Callable
    ics: tuple[float, ...]
    kernel_s_power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", _check_order_n(self.n))
        a = tuple(float(v) for v in self.a)
        if len(a) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients a_0..a_n, got {len(a)}")
        if not all(math.isfinite(v) for v in a):
            raise ValueError("non-finite derivative coefficient")
        if a[self.n] == 0.0:
            raise ValueError("leading coefficient a_n must be nonzero")
        ics = tuple(float(v) for v in self.ics)
        if len(ics) != self.n:
            raise ValueError(f"need {self.n} initial values, got {len(ics)}")
        if not all(math.isfinite(v) for v in ics):
            raise ValueError("non-finite initial value")
        if not callable(self.kernel) or not callable(self.forcing):
            raise TypeError("kernel and forcing must be callable")
        object.__setattr__(self, "kernel_s_power", _check_s_power(self.kernel_s_power))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "ics", ics)
        object.__setattr__(self, "order", _as_order(self.order))


@dataclass(frozen=True)
class SpectralSolution:
    """Computed Legendre coefficients plus the 1-norm condition number of
    the assembled system."""

    truncation: int
    coeffs: LegendreSeries
    condition_estimate: float

    def __call__(self, x):
        return self.coeffs(x)


@dataclass(frozen=True)
class ConvergenceEntry:
    """Errors at one truncation; failure carries the solver message when
    that truncation could not be solved (errors are then None)."""

    truncation: int
    l2_error: float | None
    max_error: float | None
    failure: str | None = None

    def __post_init__(self):
        for err in (self.l2_error, self.max_error):
            if err is not None and not (math.isfinite(err) and err >= 0.0):
                raise ValueError(f"error must be finite and >= 0, got {err!r}")


@dataclass(frozen=True)
class DecayFit:
    """Decay classification of an error sequence.

    kind is "exponential" (log error linear in the truncation),
    "algebraic" (log error linear in log truncation), "resolved" (fewer
    than three errors above the 1e-12 floor, and every solved error from
    truncation resolved_at on below it) or "stagnated" (a failed fit: too
    few errors above the floor without a resolved tail, or neither fit
    reaching R^2 >= 0.98 with negative slope).  rate is the positive decay
    rate of the accepted fit, None for the other two kinds.
    """

    kind: str
    rate: float | None
    r_squared: float | None
    resolved_at: int | None = None

    def __post_init__(self):
        if self.kind not in ("exponential", "algebraic", "resolved", "stagnated"):
            raise ValueError(f"unknown decay kind {self.kind!r}")
        if (self.rate is None) != (self.kind in ("resolved", "stagnated")):
            raise ValueError("rate must be present exactly for fitted kinds")
        if (self.resolved_at is not None) != (self.kind == "resolved"):
            raise ValueError("resolved_at must be present exactly for the resolved kind")


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[ConvergenceEntry, ...]
    fitted_decay: DecayFit

    def __post_init__(self):
        ns = [e.truncation for e in self.entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("truncations must be strictly increasing")


def _check_truncation(truncation) -> int:
    return _check_integer(truncation, 0, "truncation must be a non-negative integer")


def _check_s_power(s_power) -> int:
    return _check_integer(s_power, 1, "kernel_s_power must be an integer >= 1")


def _check_order_n(n) -> int:
    return _check_integer(n, 1, "derivative order n must be an integer >= 1")


@lru_cache(maxsize=_TABLE_CACHE)
def _singular_rule(points: int, phi: float, s_power: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_q, weights w_q with sum_q w_q h(s_q) = integral_0^1 s^phi h(s) ds.

    Under s = v**s_power the integrand is s_power v^(s_power (phi + 1) - 1)
    h(v**s_power): the points-point Jacobi-Gauss rule in v for that weight
    is exact when h(v**s_power) is a polynomial of degree < 2 points.
    Cached, read-only.
    """
    rule = jacobi_gauss_rule(points - 1, s_power * (phi + 1.0) - 1.0)
    s = rule.nodes ** s_power
    weights = s_power * rule.weights
    s.flags.writeable = False
    weights.flags.writeable = False
    return s, weights


def _kernel_grid(kernel: Callable, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    return _real_samples(kernel(x[:, None], s[None, :]), (x.size, s.size), "kernel",
                         "on the quadrature grid")


@lru_cache(maxsize=_TABLE_CACHE)
def _caputo_quadrature(alpha: float, s_power: int,
                       truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_q and table[j, q] with sum_q h(s_q) table[j, q] =
    integral_0^1 h(s) D^alpha L_{1,j}(s) ds.

    D^alpha L_{1,j}(s) = s^mu g_j(s) with mu = m - alpha and g_j a
    polynomial of degree j - m, so the table is the weights of the
    (truncation + 16)-point _singular_rule for phi = mu times g_j: row j is
    exact whenever h(v**s_power) is polynomial in v = s**(1/s_power) of
    degree <= 2 (truncation + 16) - 1 - s_power (j - m).  fredholm_block
    asks only for truncations R that are multiples of 16 and reads the
    leading rows, so there is one entry per (alpha, s_power, R).
    """
    order = CaputoOrder(alpha)
    s, weights = _singular_rule(truncation + _KERNEL_EXTRA_POINTS, order.m - order.alpha,
                                s_power)
    table = caputo_legendre_factors(order, truncation, s) * weights
    table.flags.writeable = False
    return s, table


def fredholm_block(kernel: Callable, order, truncation: int, s_power: int = 1) -> np.ndarray:
    """Kernel term of the tau system: the Legendre projection of
    x -> integral_0^1 k(x, s) D^alpha L_{1,j}(s) ds.

    block[j, r] = (2r+1) * double integral of k(x, s) D^alpha L_{1,j}(s)
    L_{1,r}(x), with D^alpha L_{1,j} itself (not its projection onto
    degree <= truncation) under the integral.  The inner integral is a
    Jacobi-Gauss rule whose weight carries the s^(m - alpha) factor of
    D^alpha L_{1,j} and the substitution s = v**s_power; it is read from
    the table of the rung R = 16 * ceil(truncation / 16), whose first
    truncation + 1 rows are the D^alpha L_{1,j} needed here, so it takes
    R + 16 >= truncation + 16 points and every truncation of one rung
    shares one rule and one table.  The outer integral is the
    (truncation + 16)-point shifted Legendre-Gauss rule of this truncation.
    Exact for kernels polynomial in x of degree <= truncation + 31 and
    polynomial in v = s**(1/s_power) of degree
    <= 2 (R + 16) - 1 - s_power (truncation - m).
    Where the kernel is polynomial of degree <= truncation in s, this
    equals the operational matrix times the Legendre kernel moments, since
    projecting D^alpha L_{1,j} onto degree <= truncation is then free.
    At a truncation that is a multiple of 16, R is the truncation itself.
    The weighted basis table is cached per (alpha, s_power, R), and the
    outer nodes and weighted Legendre table per truncation, in bounded
    caches of read-only arrays, so a repeated call evaluates only the
    kernel.
    """
    truncation = _check_truncation(truncation)
    rung = -(-truncation // _KERNEL_EXTRA_POINTS) * _KERNEL_EXTRA_POINTS
    s, table = _caputo_quadrature(_as_order(order).alpha, s_power, rung)
    x, weighted, scale, *_ = _legendre_projection(truncation)
    inner = _kernel_grid(kernel, x, s) @ table[:truncation + 1].T
    block = (inner.T @ weighted) * scale[None, :]
    block.flags.writeable = False
    return block


def forcing_coeffs(forcing: Callable, truncation: int) -> np.ndarray:
    """Weighted Legendre projections f_k = (interpolant of f, L_{1,k}).

    The forcing is sampled once at the truncation + 1 shifted Chebyshev-Gauss
    points; one product with the cached map of chebyshev_interpolate gives
    the projections of its interpolant.
    """
    return chebyshev_interpolate(forcing, truncation)


@lru_cache(maxsize=_TABLE_CACHE)
def _classical_rows(a: tuple[float, ...], truncation: int) -> np.ndarray:
    """The tau matrix without its kernel term, before the Galerkin rows are
    divided by 2k + 1; cached per (a, truncation), read-only.

    Row k < truncation - n + 1 is column k of sum_i a_i D^i over the nonzero
    a_i (a is FIDEProblem.a, n = len(a) - 1), summed in order; row
    truncation - n + 1 + i is y^(i)(0), D^i applied to L_{1,l}(0) = (-1)^l.
    D^i is matrix_power of the integer first-derivative matrix, exact below
    2^53 where a chain of products is not.  The sum is checked after each
    term, so the ValueError names the first a_i that makes it non-finite;
    lru_cache keeps no exception, so it is raised on every call.
    """
    n = len(a) - 1
    size = truncation + 1
    first = operational_matrix(1, truncation).entries
    signs = (-1.0) ** np.arange(size)
    core = np.zeros((size, size))
    rows = np.empty((size, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, coeff in enumerate(a):
            power = np.linalg.matrix_power(first, i)
            if i < n:
                rows[size - n + i] = power @ signs
            if coeff != 0.0:
                core += coeff * power
                if not np.isfinite(core).all():
                    raise ValueError(
                        f"derivative coefficient a_{i} = {coeff!r} makes the tau system "
                        f"non-finite at truncation {truncation}")
    rows[:size - n] = core[:, :size - n].T
    rows.flags.writeable = False
    return rows


def assemble_system(problem: FIDEProblem, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense tau system (matrix, rhs) for the given truncation.

    Rows 0..truncation - n test the equation against L_{1,k}, each divided
    by the norm 2k + 1; the last n rows pin y^(i)(0).  Both come from the
    cached _classical_rows(a, truncation), less, in the Galerkin rows, the
    kernel term of fredholm_block (the kernel against the exact D^alpha
    L_{1,l}, not its projection onto degree <= truncation).  A repeated call
    with the same a and truncation therefore evaluates only the kernel and
    the forcing.  Raises ValueError naming the first a_i whose derivative
    term makes the sum non-finite.
    """
    truncation = _check_truncation(truncation)
    if truncation < problem.n:
        raise ValueError(
            f"truncation {truncation} leaves no room for {problem.n} initial conditions")
    galerkin_rows = truncation - problem.n + 1
    matrix = np.array(_classical_rows(problem.a, truncation))
    kernel_term = fredholm_block(problem.kernel, problem.order, truncation,
                                 problem.kernel_s_power)
    matrix[:galerkin_rows] -= kernel_term[:, :galerkin_rows].T
    matrix[:galerkin_rows] /= (2.0 * np.arange(galerkin_rows) + 1.0)[:, None]
    rhs = np.zeros(truncation + 1)
    rhs[:galerkin_rows] = forcing_coeffs(problem.forcing, truncation)[:galerkin_rows]
    rhs[galerkin_rows:] = problem.ics
    return matrix, rhs


def _smallest_pivot(matrix: np.ndarray) -> float:
    """Smallest |u_kk| of the LU factorisation with partial pivoting, by
    explicit elimination with the row choice of LAPACK getrf."""
    work = np.array(matrix, dtype=float)
    smallest = math.inf
    for k in range(work.shape[0]):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        work[[k, p]] = work[[p, k]]
        pivot = work[k, k]
        smallest = min(smallest, abs(float(pivot)))
        if pivot != 0.0:
            work[k + 1:, k] /= pivot
            work[k + 1:, k + 1:] -= np.outer(work[k + 1:, k], work[k, k + 1:])
    return smallest


def solve_fide(problem: FIDEProblem, truncation: int) -> SpectralSolution:
    """Assemble and solve the tau system by dense LU with partial pivoting:
    one LAPACK gesv through numpy.linalg.solve against [I | rhs] yields A^-1
    (the first size columns, as numpy.linalg.inv) and the coefficients.

    Raises SolverError when a pivot of that LU falls below 1e-14 times the
    largest matrix entry, or when the solved system's residual exceeds
    1e-10 * (1 + max |rhs|).  The pivot gate is decided from the inverse
    that the 1-norm condition estimate computes anyway: every pivot u_kk of
    partial pivoting has 1/|u_kk| <= size * ||A^-1||_1, so when
    2 * size * ||A^-1||_1 * 1e-14 * max|A| < 1 no pivot can fail (the 2
    covers rounding in the computed inverse).  Only when that bound is
    inconclusive, or the matrix is exactly singular, does _smallest_pivot
    eliminate explicitly to decide.  condition_estimate is
    ||A||_1 * ||A^-1||_1, the value of numpy.linalg.cond(A, 1).
    """
    matrix, rhs = assemble_system(problem, truncation)
    absolute = np.abs(matrix)
    scale = float(absolute.max())
    if not (math.isfinite(scale) and np.all(np.isfinite(rhs))):
        raise ValueError(f"tau system has non-finite entries at truncation {truncation}")

    def singular(pivot_min: float) -> SolverError:
        return SolverError(
            f"tau system is singular or numerically rank-deficient at "
            f"truncation {truncation} (smallest pivot {pivot_min:.3e}, threshold "
            f"{_PIVOT_RTOL:.0e}*max|A| = {_PIVOT_RTOL * scale:.3e})")

    size = matrix.shape[0]
    joint = np.eye(size, size + 1)
    joint[:, size] = rhs
    try:
        joint = np.linalg.solve(matrix, joint)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        joint = None
    # ||.||_1 as numpy.linalg.norm(., 1) computes it: the largest column sum of |.|.
    inverse_norm = math.inf if joint is None else float(np.abs(joint[:, :size]).sum(axis=0).max())
    if not 2.0 * size * inverse_norm * _PIVOT_RTOL * scale < 1.0:
        pivot_min = _smallest_pivot(matrix)
        if joint is None or scale == 0.0 or pivot_min < _PIVOT_RTOL * scale:
            raise singular(pivot_min)
    coeffs = joint[:, size].copy()
    residual = float(np.max(np.abs(matrix @ coeffs - rhs)))
    tolerance = _RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(rhs))))
    if residual > tolerance:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds {tolerance:.3e} at "
            f"truncation {truncation}")
    condition = float(absolute.sum(axis=0).max()) * inverse_norm
    return SpectralSolution(truncation, LegendreSeries(coeffs), condition)


def mms_forcing(exact: MonomialSeries, n: int, a, order, kernel: Callable,
                kernel_s_power: int = 1) -> Callable:
    """Forcing that makes `exact` solve the problem (manufactured solution).

    f(t) = sum_i a_i (d/dt)^i exact(t) - integral_0^1 k(t, s) D^alpha exact(s) ds.
    Derivatives are applied termwise by the Caputo power rule; the classical
    sum is one MonomialSeries with equal exponents merged.  The terms of
    D^alpha exact are grouped by the fractional part phi of their exponents
    (phi < 0 for an exponent in (-1, 0)); each group, s^phi times a
    polynomial, gets the 64-point rule of _singular_rule under
    s = v**kernel_s_power (pass FIDEProblem.kernel_s_power), so the forcing
    is exact at every alpha for kernels polynomial in s**(1/kernel_s_power).
    """
    if not isinstance(exact, MonomialSeries):
        raise TypeError(f"exact must be a MonomialSeries, got {type(exact).__name__}")
    n = _check_order_n(n)
    a = tuple(float(v) for v in a)
    if len(a) != n + 1:
        raise ValueError(f"need {n + 1} coefficients a_0..a_n, got {len(a)}")
    order = _as_order(order)
    kernel_s_power = _check_s_power(kernel_s_power)
    for _, p in exact.terms:
        if abs(p - round(p)) > _INTEGER_TOL and p <= n - 1:
            raise ValueError(
                f"non-integer exponent {p!r} must exceed n - 1 = {n - 1} so all "
                f"classical derivatives up to order {n} stay integrable")
    classical: dict[float, float] = {}  # exponent -> summed coefficient
    for i, coeff in enumerate(a):
        if coeff != 0.0:
            for q, p in (caputo_apply(exact, i) if i else exact).terms:
                classical[p] = classical.get(p, 0.0) + coeff * q
    classical_series = MonomialSeries(tuple((q, p) for p, q in classical.items()))
    groups: dict[float, list] = {}  # phi -> terms (q, p - phi) in (near-)integer powers
    for q, p in caputo_apply(exact, order).terms:
        phi = p - max(math.floor(p), 0)
        phi = 0.0 if abs(phi - round(phi)) <= _INTEGER_TOL else next(
            (key for key in groups if abs(key - phi) <= _INTEGER_TOL), phi)
        groups.setdefault(phi, []).append((q, p - phi))
    s, weighted = np.empty(0), np.empty(0)
    for phi, terms in groups.items():
        nodes, weights = _singular_rule(_MMS_QUAD_POINTS, phi, kernel_s_power)
        s = np.concatenate((s, nodes))
        weighted = np.concatenate((weighted, weights * MonomialSeries(tuple(terms))(nodes)))

    def forcing(t):
        t_arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t_arr)
        out = classical_series(flat) - _kernel_grid(kernel, flat, s) @ weighted
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    return forcing


@dataclass(frozen=True)
class _CatalogEntry:
    example_id: str
    description: str
    n: int
    a: tuple[float, ...]
    alpha: float
    ics: tuple[float, ...]
    kernel: Callable
    kernel_expr: str
    forcing_expr: str
    mms_exact: MonomialSeries
    exact: Callable
    kernel_s_power: int
    note: str | None
    forcing: Callable = field(init=False)  # the printed forcing, compiled once

    def __post_init__(self):
        tree = exprlang.parse(self.forcing_expr)
        object.__setattr__(self, "forcing", lambda t: exprlang.evaluate(tree, t=t))


@dataclass(frozen=True)
class BuiltinExample:
    """A catalog problem plus its exact solution.

    variant "printed" uses the forcing as transcribed in the catalog
    source; "corrected" rebuilds the forcing from the exact solution by
    manufactured solutions.  Where the two disagree, `note` states the
    discrepancy (None when the transcribed forcing is consistent).
    """

    example_id: str
    variant: str
    problem: FIDEProblem
    exact: Callable
    description: str
    note: str | None


def _catalog() -> dict[str, _CatalogEntry]:
    entries = [
        _CatalogEntry(
            example_id="5.1",
            description="y' with product kernel t*s, order 1/2, exact solution 14t",
            n=1,
            a=(0.0, 1.0),
            alpha=0.5,
            ics=(0.0,),
            kernel=lambda t, s: t * s,
            kernel_expr="t*s",
            forcing_expr="14*(1 - t/(2.5*gamma(1.5)))",
            mms_exact=MonomialSeries(((14.0, 1.0),)),
            exact=lambda t: 14.0 * np.asarray(t, dtype=float),
            kernel_s_power=1,
            note=None,
        ),
        _CatalogEntry(
            example_id="5.2",
            description="y' with kernel t^2*s^2, order 1/4, exact solution 2t^4 - t^(3/2)",
            n=1,
            a=(0.0, 1.0),
            alpha=0.25,
            ics=(0.0,),
            kernel=lambda t, s: t**2 * s**2,
            kernel_expr="t^2*s^2",
            forcing_expr=("8*t^3 - 1.5*sqrt(t) - (48/(6.75*gamma(4.75)) "
                          "- gamma(2.75)/(4.25*gamma(2.25)))*t^2"),
            mms_exact=MonomialSeries(((2.0, 4.0), (-1.0, 1.5))),
            exact=lambda t: 2.0 * np.asarray(t, dtype=float)**4 - np.asarray(t, dtype=float)**1.5,
            kernel_s_power=1,
            note=("the transcribed forcing's t^2 coefficient carries gamma(2.75) "
                  "where the fractional power rule applied to t^1.5 gives "
                  "gamma(2.5), so it is inconsistent with the stated exact "
                  "solution"),
        ),
        _CatalogEntry(
            example_id="5.3",
            description=("2y'' + y' with kernel t^2*sqrt(s), order 3/2, "
                         "exact solution 8t + 3t^3"),
            n=2,
            a=(0.0, 1.0, 2.0),
            alpha=1.5,
            ics=(0.0, 8.0),
            kernel=lambda t, s: t**2 * np.sqrt(s),
            kernel_expr="t^2*sqrt(s)",
            forcing_expr="((9*sqrt(pi) - 12)/sqrt(pi))*t^2 + 36*t + 8",
            mms_exact=MonomialSeries(((8.0, 1.0), (3.0, 3.0))),
            exact=lambda t: 8.0 * np.asarray(t, dtype=float) + 3.0 * np.asarray(t, dtype=float)**3,
            kernel_s_power=2,
            note=("the transcribed forcing's t^2 coefficient is 9 - 12/sqrt(pi) "
                  "where re-deriving from the stated exact solution gives "
                  "9 - 8/sqrt(pi)"),
        ),
        _CatalogEntry(
            example_id="5.4",
            description=("3y''' - y'' + y with kernel exp(t - s), order 1/2, "
                         "exact solution t*exp(t)"),
            n=3,
            a=(1.0, 0.0, -1.0, 3.0),
            alpha=0.5,
            ics=(0.0, 1.0, 2.0),
            kernel=lambda t, s: np.exp(t - s),
            kernel_expr="exp(t - s)",
            forcing_expr="(7 - 32/(15*sqrt(pi)))*exp(t) + 3*t*exp(t)",
            # exp tail: 1/21! < 2e-20, far below the solver's error floor.
            mms_exact=MonomialSeries(tuple(
                (1.0 / math.factorial(k), float(k + 1)) for k in range(21))),
            exact=lambda t: np.asarray(t, dtype=float) * np.exp(np.asarray(t, dtype=float)),
            kernel_s_power=1,
            note=("the transcribed forcing folds in 32/(15*sqrt(pi)) = 1.2036... "
                  "for the moment integral of exp(-s) times the order-1/2 "
                  "derivative of s*exp(s) over [0, 1], whose value is "
                  "0.8930285053...; re-deriving from the stated exact solution "
                  "uses the latter"),
        ),
    ]
    return {entry.example_id: entry for entry in entries}


_CATALOG = _catalog()
_VARIANTS = ("printed", "corrected")


def builtin_example_ids() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def _catalog_entry(example_id: str) -> _CatalogEntry:
    entry = _CATALOG.get(str(example_id))
    if entry is None:
        known = ", ".join(builtin_example_ids())
        raise KeyError(f"unknown example id {example_id!r} (known: {known})")
    return entry


def builtin_example(example_id: str, variant: str = "corrected") -> BuiltinExample:
    """Fetch a catalog problem by id ("5.1" .. "5.4").

    See BuiltinExample for the variant semantics; "corrected" is the
    default because three of the four transcribed forcings are
    inconsistent with their stated exact solutions.
    """
    entry = _catalog_entry(example_id)
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if variant == "printed":
        forcing = entry.forcing
    else:
        forcing = mms_forcing(entry.mms_exact, entry.n, entry.a, entry.alpha,
                              entry.kernel, kernel_s_power=entry.kernel_s_power)
    problem = FIDEProblem(n=entry.n, a=entry.a, order=entry.alpha,
                          kernel=entry.kernel, forcing=forcing, ics=entry.ics,
                          kernel_s_power=entry.kernel_s_power)
    return BuiltinExample(example_id=entry.example_id, variant=variant,
                          problem=problem, exact=entry.exact,
                          description=entry.description, note=entry.note)


def example_config(example_id: str, variant: str = "corrected") -> dict:
    """JSON-ready problem configuration for a catalog entry.

    The printed variant carries the transcribed forcing expression; the
    corrected variant carries the exact solution's monomial terms under
    "mms_exact" so the forcing is rebuilt on load.
    """
    entry = _catalog_entry(example_id)
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    config = {
        "name": f"example-{entry.example_id}-{variant}",
        "n": entry.n,
        "a": list(entry.a),
        "alpha": entry.alpha,
        "kernel": entry.kernel_expr,
        "ics": list(entry.ics),
    }
    if variant == "printed":
        config["forcing"] = entry.forcing_expr
    else:
        config["mms_exact"] = [[q, p] for q, p in entry.mms_exact.terms]
    if entry.kernel_s_power != 1:
        config["kernel_s_power"] = entry.kernel_s_power
    return config


def _as_series(solution) -> LegendreSeries:
    if isinstance(solution, SpectralSolution):
        return solution.coeffs
    if isinstance(solution, LegendreSeries):
        return solution
    raise TypeError(f"expected SpectralSolution or LegendreSeries, got {type(solution).__name__}")


@lru_cache(maxsize=1)
def _error_grid() -> tuple[np.ndarray, np.ndarray]:
    """The 128 shifted Legendre-Gauss nodes followed by the 101 equispaced
    points of [0, 1] (both endpoints included), and the Gauss weights;
    cached, read-only."""
    rule = legendre_gauss_rule(_ERROR_RULE_POINTS - 1)
    grid = np.concatenate((rule.nodes, np.linspace(0.0, 1.0, _MAX_ERROR_POINTS)))
    grid.flags.writeable = False
    rule.weights.flags.writeable = False
    return grid, rule.weights


def error_norms(solution, exact: Callable) -> tuple[float, float]:
    """(l2, max) distance between the solution and `exact` on [0, 1] from
    one evaluation of each on _error_grid: the weighted L2 norm by the
    128-point shifted Legendre-Gauss rule, the largest absolute deviation
    over the 101 equispaced points.  Complex or non-finite samples of
    `exact` raise ValueError."""
    series = _as_series(solution)
    grid, weights = _error_grid()
    diff = series(grid) - _real_samples(exact(grid), grid.shape, "exact solution",
                                        "on the error grid")
    gauss = diff[:_ERROR_RULE_POINTS]
    l2 = math.sqrt(max(float(np.sum(weights * gauss * gauss)), 0.0))
    return l2, float(np.max(np.abs(diff[_ERROR_RULE_POINTS:])))


def l2_error(solution, exact: Callable) -> float:
    """The L2 part of error_norms."""
    return error_norms(solution, exact)[0]


def max_error(solution, exact: Callable) -> float:
    """The max part of error_norms."""
    return error_norms(solution, exact)[1]


def initial_condition_residuals(problem: FIDEProblem, solution) -> np.ndarray:
    """|y^(i)(0) - d_i| for i < n, derivatives taken through integer
    operational matrices."""
    series = _as_series(solution)
    size = series.degree + 1
    signs = (-1.0) ** np.arange(size)
    residuals = np.empty(problem.n)
    for i in range(problem.n):
        at_zero = series.coeffs @ (operational_matrix(i, series.degree).entries @ signs)
        residuals[i] = abs(at_zero - problem.ics[i])
    return residuals


def tau_residuals(problem: FIDEProblem, solution) -> np.ndarray:
    """Absolute Galerkin-row residuals of the solution, re-assembled from
    scratch (independent of any factorization used to compute it)."""
    series = _as_series(solution)
    matrix, rhs = assemble_system(problem, series.degree)
    rows = series.degree - problem.n + 1
    return np.abs(matrix[:rows, :] @ series.coeffs - rhs[:rows])


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    return float(slope), r_squared


def _fit_decay(entries: tuple[ConvergenceEntry, ...]) -> DecayFit:
    solved = [(e.truncation, e.l2_error) for e in entries if e.l2_error is not None]
    live = [(n, err) for n, err in solved if err >= _ERROR_FLOOR]
    if len(live) < 3:
        if solved and solved[-1][1] < _ERROR_FLOOR:
            last_live = live[-1][0] if live else -1
            resolved_at = next(n for n, _ in solved if n > last_live)
            return DecayFit("resolved", None, None, resolved_at)
        return DecayFit("stagnated", None, None)
    ns = np.array([n for n, _ in live], dtype=float)
    log_err = np.log(np.array([err for _, err in live]))
    slope, r_squared = _linear_fit(ns, log_err)
    if slope < 0.0 and r_squared >= _FIT_R2_MIN:
        return DecayFit("exponential", -slope, r_squared)
    slope, r_squared = _linear_fit(np.log(ns), log_err)
    if slope < 0.0 and r_squared >= _FIT_R2_MIN:
        return DecayFit("algebraic", -slope, r_squared)
    return DecayFit("stagnated", None, None)


def convergence_study(problem: FIDEProblem, exact: Callable, truncations) -> ConvergenceReport:
    """Solve at each truncation, record L2 and max errors against `exact`,
    and classify the decay of the L2 errors.

    Solver failures at individual truncations are recorded on their
    entries without aborting the sweep.  Errors below 1e-12 are treated
    as the machine floor and excluded from the decay fit; a sweep that
    sinks below the floor before three errors lie above it is "resolved"
    (see DecayFit).
    """
    ns = [_check_truncation(n) for n in truncations]
    if not ns:
        raise ValueError("need at least one truncation")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("truncations must be strictly increasing")
    if ns[0] < problem.n:
        raise ValueError(f"smallest truncation {ns[0]} is below derivative order {problem.n}")
    entries = []
    for n in ns:
        try:
            sol = solve_fide(problem, n)
        except SolverError as exc:
            entries.append(ConvergenceEntry(n, None, None, str(exc)))
            continue
        entries.append(ConvergenceEntry(n, *error_norms(sol, exact)))
    entries = tuple(entries)
    return ConvergenceReport(entries, _fit_decay(entries))
