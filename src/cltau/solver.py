"""Tau discretization of linear Fredholm fractional integro-differential
equations on [0, 1].

The problem is sum_i a_i y^(i)(t) = f(t) + integral_0^1 k(t, s) D^alpha y(s) ds
with initial values y^(i)(0) = d_i.  The solution of degree N is y = p + I^n v:
p = sum_l d_l t^l/l! carries the initial values, I integrates from 0, and the
shifted Legendre series v of degree N - n solves the equation's first N - n + 1
Legendre coefficients (Greengard, SIAM J. Numer. Anal. 28, 1991; Olver &
Townsend, SIAM Rev. 55, 2013).  That is the classical tau solution, without
rows for the initial values; for alpha <= n the matrix is a_n I plus compact
terms, so its condition does not grow with N.  The forcing is sampled at
Chebyshev-Gauss points, and cltransform gives the Legendre projections of
its interpolant as weighted^T (P f), with P the stored barycentric matrix
to the (N + 16)-point Legendre-Gauss rule.  The kernel term integrates k
against the exact D^alpha of t^l/l! and I^n L_{1,j}
(fracderiv._caputo_basis) by an (N + 16)-point Jacobi-Gauss rule that
absorbs the s^(ceil(alpha) - alpha) factor and an (N + 16)-point
Legendre-Gauss rule, exact for kernels polynomial in v = s^(1/p) (p the
kernel_s_power) of degree <= 2 (N + 16) - 1 - p (N - ceil(alpha)); see
_kernel_rows.  The system at N is the leading block of the one at any
larger truncation, up to quadrature, so convergence_study assembles once,
at its largest N (_nested_systems).

The system is solved by one LAPACK gesv through numpy.linalg.solve (LU with
partial pivoting) behind two gates: every LU pivot must reach 1e-14 times the
largest matrix entry, and the residual must stay below 1e-10 * (1 + max |rhs|).
The pivot gate is certified from the inverse that the 1-norm condition
estimate computes anyway, from the same factorization, and decided by explicit
elimination only when that bound is inconclusive; see _gated_solve.  One loop,
_solve_systems, runs that solve for solve_fide and for every truncation of
convergence_study, and lifts the solutions to y.

Kernels, forcings and exact solutions must accept numpy arrays, broadcast
(wrap scalar callables in numpy.vectorize if needed) and return real, finite
samples; anything else raises ValueError naming the function.
"""

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cltransform import (_KERNEL_EXTRA_POINTS, _legendre_projection, _nested_projections,
                          _real_samples, _stored, chebyshev_interpolate)
from .fracderiv import CaputoOrder, _as_order, _caputo_basis, caputo_apply, operational_matrix
from .orthopoly import LegendreSeries, MonomialSeries, _check_integer, shifted_legendre_table
from .quadrature import jacobi_gauss_rule, legendre_gauss_rule

__all__ = [
    "SolverError",
    "FIDEProblem",
    "SpectralSolution",
    "ConvergenceEntry",
    "DecayFit",
    "ConvergenceReport",
    "fredholm_block",
    "assemble_system",
    "solve_fide",
    "mms_forcing",
    "BuiltinExample",
    "builtin_example",
    "builtin_example_ids",
    "example_config",
    "error_norms",
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
    rate of the accepted fit, None for the other two kinds: the decrease of
    the natural log of the error per unit truncation (exponential, error ~
    e^(-rate N), so rate / ln 10 digits per unit N) or per unit log
    truncation (algebraic, error ~ N^(-rate)).
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


@_stored
def _singular_rule(points: int, phi: float, s_power: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_q, weights w_q with sum_q w_q h(s_q) = integral_0^1 s^phi h(s) ds.

    Under s = v**s_power the integrand is s_power v^(s_power (phi + 1) - 1)
    h(v**s_power): the points-point Jacobi-Gauss rule in v for that weight
    is exact when h(v**s_power) is a polynomial of degree < 2 points.
    Stored.
    """
    rule = jacobi_gauss_rule(points - 1, s_power * (phi + 1.0) - 1.0)
    return rule.nodes ** s_power, s_power * rule.weights


def _kernel_grid(kernel: Callable, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    return _real_samples(kernel(x[:, None], s[None, :]), (x.size, s.size), "kernel",
                         "on the quadrature grid")


@_stored
def _caputo_quadrature(alpha: float, s_power: int, truncation: int,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_q and table[j, q] with sum_q h(s_q) table[j, q] = integral_0^1
    h(s) D^alpha u_j(s) ds for the trial functions u_j of
    fracderiv._caputo_basis(order, n, truncation - n): its factors times the
    weights of the (truncation + 16)-point _singular_rule for
    phi = m - alpha (m = ceil(alpha)).  Exact whenever h(v**s_power) is
    polynomial in v = s**(1/s_power) of degree
    <= 2 (truncation + 16) - 1 - s_power (truncation - m).
    """
    order = CaputoOrder(alpha)
    s, weights = _singular_rule(truncation + _KERNEL_EXTRA_POINTS, order.m - alpha, s_power)
    return s, _caputo_basis(order, n, truncation - n, s) * weights


def _kernel_rows(kernel: Callable, order: CaputoOrder, truncation: int, s_power: int,
                 n: int) -> np.ndarray:
    """block[j, r] = (2r+1) * double integral of k(x, s) D^alpha u_j(s)
    L_{1,r}(x), r <= truncation - n, for the u_j of _caputo_quadrature: the
    L_{1,r}-coefficient of the kernel term of u_j, with D^alpha u_j itself
    (not its projection onto degree <= truncation) under the integral.
    Both rules have truncation + 16 points, the inner one the table of
    _caputo_quadrature, the outer one that of _legendre_projection; both are
    stored, so a repeat evaluates only the kernel.  Exact for kernels
    polynomial in x of degree <= truncation + 31 and in v = s**(1/s_power)
    of degree <= 2 (truncation + 16) - 1 - s_power (truncation - m).  A
    product that overflows stays in the block as inf or NaN without a warning.
    """
    s, table = _caputo_quadrature(order.alpha, s_power, truncation, n)
    x, weighted, scale, *_ = _legendre_projection(truncation)
    grid = _kernel_grid(kernel, x, s)
    with np.errstate(over="ignore", invalid="ignore"):
        return ((grid @ table.T).T @ weighted[:, :truncation - n + 1]) * scale[:truncation - n + 1]


def fredholm_block(kernel: Callable, order, truncation: int, s_power: int = 1) -> np.ndarray:
    """Kernel term of the classical tau system, _kernel_rows for n = 0,
    read-only: the Legendre projection of x -> integral_0^1 k(x, s)
    D^alpha L_{1,j}(s) ds, which tau_residuals checks solutions against.
    It is exact for kernels polynomial in v = s**(1/s_power) of degree
    <= 2 (truncation + 16) - 1 - s_power (truncation - ceil(alpha)).  Where
    the kernel is polynomial of degree <= truncation in s, it equals the
    operational matrix times the Legendre kernel moments, since projecting
    D^alpha L_{1,j} onto degree <= truncation is then free.
    """
    block = _kernel_rows(kernel, _as_order(order), _check_truncation(truncation),
                         _check_s_power(s_power), 0)
    block.flags.writeable = False
    return block


def _integrate(coeffs: np.ndarray) -> np.ndarray:
    """Legendre coefficients (axis 0) of the integrals from 0 of the series
    in the columns of coeffs, by I L_{1,0} = (L_{1,0} + L_{1,1})/2 and
    I L_{1,j} = (L_{1,j+1} - L_{1,j-1}) / (2 (2j + 1)); the last row must be 0."""
    half = coeffs / (4.0 * np.arange(len(coeffs)) + 2.0)[:, None]
    out = np.concatenate((half[:1], half[:-1]))
    out[:-1] -= half[1:]
    return out


@_stored
def _integral_rows(a: tuple[float, ...], truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel-free tables of assemble_system, stored per (a, truncation);
    n = len(a) - 1, M = truncation - n and k, j <= M:
    classical[k, j] is the L_{1,k}-coefficient of sum_i a_i I^(n-i) L_{1,j},
    lower[k, l] that of sum_i a_i (t^l/l!)^(i), with t^l/l! = I^l L_{1,0}.
    Each I^q is _integrate applied q times to identity columns of degree
    <= M, so no degree exceeds the truncation.  A sum that overflows stays
    in the table as inf, and solve_fide rejects the non-finite system.
    """
    n = len(a) - 1
    cols = truncation - n + 1
    current = np.eye(truncation + 1, cols)
    classical, lower = np.zeros((cols, cols)), np.zeros((cols, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for q in range(n + 1):
            classical += a[n - q] * current[:cols]
            lower[:, q:] += np.outer(current[:cols, 0], a[:n - q])
            current = _integrate(current)
    return classical, lower


def assemble_system(problem: FIDEProblem, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense tau system (matrix, rhs) for v of y = p + I^n v: row k,
    k <= truncation - n, is the L_{1,k}-coefficient (not divided by 2k + 1) of
    sum_i a_i I^(n-i) v - K D^alpha I^n v = f - sum_i a_i p^(i) + K D^alpha p,
    K the kernel operator.  The forcing enters as (2k+1) f_k from
    chebyshev_interpolate, the rest from the stored _integral_rows(a,
    truncation) and _kernel_rows, so a repeat evaluates only k and f.  It is
    the one-truncation case of _nested_systems.
    """
    truncation = _check_truncation(truncation)
    if truncation < problem.n:
        raise ValueError(
            f"truncation {truncation} leaves no room for {problem.n} initial conditions")
    (_, matrix, rhs), = _nested_systems(problem, (truncation,))
    return matrix, rhs


def _nested_systems(problem: FIDEProblem, truncations):
    """(truncation, matrix, rhs) of assemble_system for each of the strictly
    increasing truncations (all >= n), every one sliced from one assembly at
    the largest, top.  The system at N is the leading (N - n + 1)^2 block of
    the one at top, up to quadrature: its classical rows are the leading
    block of _integral_rows(a, top) (bit for bit), its kernel term the Taylor
    rows and leading block of _kernel_rows at top, integrated on top's rules,
    and its forcing interpolates f at N's own N + 1 Chebyshev nodes and
    projects on top's Legendre rule.  The forcing is sampled twice per
    sweep, on the nodes of every N below top together and at top
    (_nested_projections).  At N = top this is the one-truncation assembly,
    so a single solve does not depend on the sweep.
    """
    n, m = problem.n, problem.order.m
    top = truncations[-1]
    classical, lower = _integral_rows(problem.a, top)
    kernel_term = _kernel_rows(problem.kernel, problem.order, top, problem.kernel_s_power, n)
    taylor = max(n - m, 0)  # rows of t^l/l!, l = m..n-1, then those of I^n L_{1,j}
    for truncation, forcing in zip(truncations, _nested_projections(problem.forcing, truncations)):
        cols = truncation - n + 1
        forcing = forcing[:cols]
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = classical[:cols, :cols] - kernel_term[taylor:taylor + cols, :cols].T
            rhs = (2.0 * np.arange(cols) + 1.0) * forcing - lower[:cols] @ problem.ics
            rhs += kernel_term[:taylor, :cols].T @ problem.ics[m:]
        yield truncation, matrix, rhs


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
    """Assemble the tau system at truncation and solve it through
    _solve_systems: one gesv behind the pivot and residual gates of
    _gated_solve, then the lift to y = p + I^n v, whose coefficients the
    solution carries.  condition_estimate is ||A||_1 * ||A^-1||_1, the value
    of numpy.linalg.cond(A, 1).

    Raises SolverError when a gate trips or the lifted solution is not
    finite, and ValueError when the system has non-finite entries; no
    overflow warns.
    """
    truncation = _check_truncation(truncation)
    # A generator, so that the system is assembled under the loop's errstate.
    lifted, (outcome,) = _solve_systems((truncation,), problem.ics, (
        (n, *assemble_system(problem, n)) for n in (truncation,)))
    if isinstance(outcome, str):
        raise SolverError(outcome)
    return SpectralSolution(truncation, LegendreSeries(lifted[:, 0]), outcome)


def _solve_systems(truncations, ics, systems) -> tuple[np.ndarray, list]:
    """The one solve loop of solve_fide and convergence_study.

    systems yields (truncation, matrix, rhs) for the strictly increasing
    truncations, each system of size truncation - n + 1 for v of
    y = p + I^n v, n = len(ics); it is built, solved and lifted under one
    numpy.errstate, so an overflow becomes inf or NaN without a warning.
    Each system goes through _gated_solve and its v is zero-padded to
    degree max(truncations); all columns are lifted together to
    y = d_0 + I(d_1 + I(... + I(d_(n-1) + I v))).  Returns the lifted
    columns, (max(truncations) + 1) x len(truncations), and one outcome
    per truncation: the condition estimate, or the SolverError message of a
    gate that tripped or of a lifted column that is not finite.  A failed
    column is zero.  A ValueError (a non-finite system) propagates at its
    truncation, so no later system is built.
    """
    lifted, outcomes = np.zeros((truncations[-1] + 1, len(truncations))), []
    with np.errstate(over="ignore", invalid="ignore"):
        for column, (truncation, matrix, rhs) in enumerate(systems):
            try:
                coeffs, outcome = _gated_solve(truncation, matrix, rhs)
                lifted[:coeffs.size, column] = coeffs
            except SolverError as exc:
                outcome = str(exc)
            outcomes.append(outcome)
        for d in reversed(ics):
            lifted = _integrate(lifted)
            lifted[0] += d
    if not np.isfinite(lifted).all():
        finite = np.isfinite(lifted).all(axis=0)
        for column in np.flatnonzero(~finite):
            if not isinstance(outcomes[column], str):
                outcomes[column] = f"solution is not finite at truncation {truncations[column]}"
        lifted[:, ~finite] = 0.0
    return lifted, outcomes


def _gated_solve(truncation: int, matrix: np.ndarray,
                 rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """One LAPACK gesv through numpy.linalg.solve against [I | rhs], LU
    with partial pivoting, yields A^-1 (the first size columns, as
    numpy.linalg.inv) and v behind two gates; returns v and the 1-norm
    condition estimate ||A||_1 * ||A^-1||_1.

    Raises SolverError when a pivot of that LU falls below 1e-14 times the
    largest matrix entry, when v is not finite, or when the residual is not
    at most 1e-10 * (1 + max |rhs|): a NaN residual fails, and one that
    overflows is re-evaluated on A / max|A| so the message carries a number.
    A system with non-finite entries raises ValueError.  The pivot gate is
    decided from the inverse: every pivot u_kk of partial pivoting has
    1/|u_kk| <= size * ||A^-1||_1, so when 2 * size * ||A^-1||_1 * 1e-14 *
    max|A| < 1 no pivot can fail (the 2 covers rounding in the computed
    inverse).  Only when that bound is inconclusive, or the matrix is
    exactly singular, does _smallest_pivot eliminate explicitly to decide.
    _solve_systems holds the numpy.errstate under which an overflow becomes
    inf without a warning.
    """
    absolute = np.abs(matrix)
    scale = float(absolute.max())
    if not (math.isfinite(scale) and np.isfinite(rhs).all()):
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
        raise singular(_smallest_pivot(matrix)) from None
    # ||.||_1 as numpy.linalg.norm(., 1) computes it: the largest column sum of |.|.
    inverse_norm = float(np.abs(joint[:, :size]).sum(axis=0).max())
    if not 2.0 * size * inverse_norm * _PIVOT_RTOL * scale < 1.0:
        pivot_min = _smallest_pivot(matrix)
        if pivot_min < _PIVOT_RTOL * scale:
            raise singular(pivot_min)
    coeffs = joint[:, size]
    if not np.isfinite(coeffs).all():
        raise SolverError(f"solution is not finite at truncation {truncation}")
    residual = float(np.abs(matrix @ coeffs - rhs).max())
    if not math.isfinite(residual):  # the product overflowed: scale by max|A| first
        residual = scale * float(np.max(np.abs((matrix / scale) @ coeffs - rhs / scale)))
    tolerance = _RESIDUAL_RTOL * (1.0 + float(np.abs(rhs).max()))
    if not residual <= tolerance:  # a NaN residual fails too
        raise SolverError(
            f"solve residual {residual:.3e} exceeds {tolerance:.3e} at "
            f"truncation {truncation}")
    condition = float(absolute.sum(axis=0).max()) * inverse_norm
    if not math.isfinite(condition):  # ||A||_1 itself overflowed: scale by max|A| first
        condition = float((absolute / scale).sum(axis=0).max()) * (scale * inverse_norm)
    return coeffs, condition


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
class BuiltinExample:
    """A catalog problem plus its exact solution, the MonomialSeries that
    example_config writes as "mms_exact".

    variant "printed" uses the forcing as transcribed in the catalog
    source; "corrected" rebuilds the forcing from the exact solution by
    manufactured solutions.  Where the two disagree, `note` states the
    discrepancy (None when the transcribed forcing is consistent).
    """

    example_id: str
    variant: str
    problem: FIDEProblem
    exact: MonomialSeries
    description: str
    note: str | None


# Each problem's config fields once, in example_config's key order, with both
# the printed "forcing" and the exact "mms_exact".  The numpy kernel beside them
# is the "kernel" expression bit for bit, and cheaper: a warm solve makes two calls.
_CATALOG = {
    "5.1": {
        "config": {"n": 1, "a": [0.0, 1.0], "alpha": 0.5, "kernel": "t*s", "ics": [0.0],
                   "forcing": "14*(1 - t/(2.5*gamma(1.5)))", "mms_exact": [[14.0, 1.0]]},
        "kernel": lambda t, s: t * s,
        "description": "y' with product kernel t*s, order 1/2, exact solution 14t",
        "note": None,
    },
    "5.2": {
        "config": {"n": 1, "a": [0.0, 1.0], "alpha": 0.25, "kernel": "t^2*s^2", "ics": [0.0],
                   "forcing": ("8*t^3 - 1.5*sqrt(t) - (48/(6.75*gamma(4.75)) "
                               "- gamma(2.75)/(4.25*gamma(2.25)))*t^2"),
                   "mms_exact": [[2.0, 4.0], [-1.0, 1.5]]},
        "kernel": lambda t, s: t**2 * s**2,
        "description": "y' with kernel t^2*s^2, order 1/4, exact solution 2t^4 - t^(3/2)",
        "note": ("the transcribed forcing's t^2 coefficient carries gamma(2.75) "
                 "where the fractional power rule applied to t^1.5 gives "
                 "gamma(2.5), so it is inconsistent with the stated exact "
                 "solution"),
    },
    "5.3": {
        "config": {"n": 2, "a": [0.0, 1.0, 2.0], "alpha": 1.5, "kernel": "t^2*sqrt(s)",
                   "ics": [0.0, 8.0], "forcing": "((9*sqrt(pi) - 12)/sqrt(pi))*t^2 + 36*t + 8",
                   "mms_exact": [[8.0, 1.0], [3.0, 3.0]], "kernel_s_power": 2},
        "kernel": lambda t, s: t**2 * np.sqrt(s),
        "description": "2y'' + y' with kernel t^2*sqrt(s), order 3/2, exact solution 8t + 3t^3",
        "note": ("the transcribed forcing's t^2 coefficient is 9 - 12/sqrt(pi) "
                 "where re-deriving from the stated exact solution gives "
                 "9 - 8/sqrt(pi)"),
    },
    "5.4": {
        "config": {"n": 3, "a": [1.0, 0.0, -1.0, 3.0], "alpha": 0.5, "kernel": "exp(t - s)",
                   "ics": [0.0, 1.0, 2.0], "forcing": "(7 - 32/(15*sqrt(pi)))*exp(t) + 3*t*exp(t)",
                   # exp tail: 1/21! < 2e-20, far below the solver's error floor.
                   "mms_exact": [[1.0 / math.factorial(k), float(k + 1)] for k in range(21)]},
        "kernel": lambda t, s: np.exp(t - s),
        "description": ("3y''' - y'' + y with kernel exp(t - s), order 1/2, "
                        "exact solution t*exp(t)"),
        "note": ("the transcribed forcing folds in 32/(15*sqrt(pi)) = 1.2036... "
                 "for the moment integral of exp(-s) times the order-1/2 "
                 "derivative of s*exp(s) over [0, 1], whose value is "
                 "0.8930285053...; re-deriving from the stated exact solution "
                 "uses the latter"),
    },
}
_VARIANTS = ("printed", "corrected")


def builtin_example_ids() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def _catalog_entry(example_id: str, variant: str) -> dict:
    entry = _CATALOG.get(str(example_id))
    if entry is None:
        known = ", ".join(builtin_example_ids())
        raise KeyError(f"unknown example id {example_id!r} (known: {known})")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    return entry


def _compiled(fields: dict, key: str, variables: tuple[str, ...]) -> Callable:
    """fields[key], expression text, as a callable of `variables` over
    exprlang.evaluate; ValueError names the key if the text does not parse
    or uses another name."""
    from . import exprlang
    try:
        program = exprlang.parse(fields[key])
    except exprlang.ParseError as exc:
        raise ValueError(f"{key} does not parse: {exc}") from None
    unknown = exprlang.free_variables(program) - set(variables)
    if unknown:
        raise ValueError(f"{key} may use only {sorted(variables)}, found {sorted(unknown)}")
    if variables == ("t",):
        return lambda tv: exprlang.evaluate(program, t=tv)
    return lambda tv, sv: exprlang.evaluate(program, t=tv, s=sv)


def _config_problem(fields: dict, kernel: Callable | None = None
                    ) -> tuple[FIDEProblem, MonomialSeries | None]:
    """(problem, exact) from config fields (example_config's keys); exact is
    the MonomialSeries of "mms_exact", or None.  The "kernel" expression is
    compiled unless `kernel` is given as a callable, and the "forcing"
    expression when the key is present; otherwise mms_forcing builds the
    forcing from exact, and each d_i must match exact's i-th derivative at
    0 to 1e-12 * max(1, |derivative|).  The catalog and the CLI both build
    here, and only here is expression text compiled."""
    if kernel is None:
        kernel = _compiled(fields, "kernel", ("t", "s"))
    n, a, alpha, ics = fields["n"], fields["a"], fields["alpha"], fields["ics"]
    s_power = fields.get("kernel_s_power", 1)
    exact = None if "mms_exact" not in fields else MonomialSeries(
        tuple(map(tuple, fields["mms_exact"])))
    if "forcing" in fields:
        forcing = _compiled(fields, "forcing", ("t",))
    else:
        forcing = mms_forcing(exact, n, a, alpha, kernel, kernel_s_power=s_power)
        for i, given in enumerate(ics):
            value = (caputo_apply(exact, i) if i else exact)(0.0)
            if abs(given - value) > 1e-12 * max(1.0, abs(value)):
                raise ValueError(f"ics[{i}] = {given!r} contradicts mms_exact, whose derivative "
                                 f"of order {i} at 0 is {value!r}")
    return FIDEProblem(n=n, a=a, order=alpha, kernel=kernel, forcing=forcing, ics=ics,
                       kernel_s_power=s_power), exact


def builtin_example(example_id: str, variant: str = "corrected") -> BuiltinExample:
    """Fetch a catalog problem by id ("5.1" .. "5.4").

    See BuiltinExample for the variant semantics; "corrected" is the
    default because three of the four transcribed forcings are
    inconsistent with their stated exact solutions.  Built by
    _config_problem from the catalog config and its numpy kernel: the
    printed variant compiles the "forcing" expression, so it loads the
    expression parser; the corrected one drops that key.
    """
    entry = _catalog_entry(example_id, variant)
    config = {key: value for key, value in entry["config"].items()
              if key != "forcing" or variant == "printed"}
    problem, exact = _config_problem(config, entry["kernel"])
    return BuiltinExample(example_id=str(example_id), variant=variant, problem=problem,
                          exact=exact, description=entry["description"], note=entry["note"])


def example_config(example_id: str, variant: str = "corrected") -> dict:
    """JSON-ready problem configuration for a catalog entry.

    The printed variant carries the transcribed forcing expression; the
    corrected variant carries the exact solution's monomial terms under
    "mms_exact" so the forcing is rebuilt on load.
    """
    fields = _catalog_entry(example_id, variant)["config"]
    dropped = "mms_exact" if variant == "printed" else "forcing"
    return {"name": f"example-{example_id}-{variant}",
            **{key: copy.deepcopy(value) for key, value in fields.items() if key != dropped}}


def _as_series(solution) -> LegendreSeries:
    if isinstance(solution, SpectralSolution):
        return solution.coeffs
    if isinstance(solution, LegendreSeries):
        return solution
    raise TypeError(f"expected SpectralSolution or LegendreSeries, got {type(solution).__name__}")


@_stored
def _error_grid() -> tuple[np.ndarray, np.ndarray]:
    """The 128 shifted Legendre-Gauss nodes followed by the 101 equispaced
    points of [0, 1] (both endpoints included), and the Gauss weights;
    stored."""
    rule = legendre_gauss_rule(_ERROR_RULE_POINTS - 1)
    return np.concatenate((rule.nodes, np.linspace(0.0, 1.0, _MAX_ERROR_POINTS))), rule.weights


def error_norms(solution, exact: Callable) -> tuple[float, float]:
    """(l2, max) distance between the solution and `exact` on [0, 1] from
    one evaluation of each on _error_grid: the weighted L2 norm by the
    128-point shifted Legendre-Gauss rule, the largest absolute deviation
    over the 101 equispaced points.  Where the weighted sum of squared
    differences d overflows, the L2 norm is m * sqrt(sum w (d/m)^2) with
    m = max |d| over the Gauss nodes, so it stays finite.  The 128-point
    rule integrates (y_N - y)^2 exactly only while that is a polynomial of
    degree <= 255, so for a polynomial exact solution only up to N = 127:
    on 5.2 the L2 error differs from that of a 4N + 256-point rule by
    2.2e-4 relative at N = 128 and 3.3e-2 at N = 256 (ROADMAP item 10).
    Complex or non-finite samples of `exact` raise ValueError."""
    series = _as_series(solution)
    return _distances(series(_error_grid()[0]), _exact_samples(exact))


def _exact_samples(exact: Callable) -> np.ndarray:
    grid = _error_grid()[0]
    return _real_samples(exact(grid), grid.shape, "exact solution", "on the error grid")


def _distances(values: np.ndarray, exact_values: np.ndarray) -> tuple[float, float]:
    """error_norms from samples of the solution and the exact one on _error_grid."""
    diff = values - exact_values
    gauss, weights = diff[:_ERROR_RULE_POINTS], _error_grid()[1]
    with np.errstate(over="ignore"):
        l2 = math.sqrt(max(float(np.sum(weights * gauss * gauss)), 0.0))
    if not math.isfinite(l2):  # the squares overflowed: scale by max|d| first
        scale = float(np.max(np.abs(gauss)))
        l2 = scale * math.sqrt(float(np.sum(weights * (gauss / scale) ** 2)))
    return l2, float(np.max(np.abs(diff[_ERROR_RULE_POINTS:])))


def initial_condition_residuals(problem: FIDEProblem, solution) -> np.ndarray:
    """|y^(i)(0) - d_i| for i < n, derivatives taken through integer
    operational matrices."""
    series = _as_series(solution)
    size = series.degree + 1
    signs = (-1.0) ** np.arange(size)
    residuals = np.empty(problem.n)
    for i in range(problem.n):
        at_zero = series.coeffs @ (operational_matrix(i, series.degree) @ signs)
        residuals[i] = abs(at_zero - problem.ics[i])
    return residuals


def tau_residuals(problem: FIDEProblem, solution) -> np.ndarray:
    """Absolute Galerkin-row residuals of the classical tau system, from the
    operational matrices and fredholm_block, rows divided by 2k + 1: an
    oracle independent of the system and factorization solve_fide uses."""
    series = _as_series(solution)
    degree, rows = series.degree, series.degree - problem.n + 1
    if rows < 1:
        raise ValueError(f"degree {degree} is below the derivative order {problem.n}")
    operator = sum(coeff * operational_matrix(i, degree)
                   for i, coeff in enumerate(problem.a) if coeff != 0.0) - fredholm_block(
        problem.kernel, problem.order, degree, problem.kernel_s_power)
    applied = (operator.T @ series.coeffs)[:rows] / (2.0 * np.arange(rows) + 1.0)
    return np.abs(applied - chebyshev_interpolate(problem.forcing, degree)[:rows])


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

    One assembly serves the whole sweep (_nested_systems): every truncation
    N solves the leading block of the system at the largest one, N_max, in
    increasing N, through the one solve loop of solve_fide (_solve_systems:
    gesv, gates, lift), with its own condition estimate.  The forcing of
    each N still interpolates at N's own Chebyshev nodes and is projected
    exactly; it is sampled twice per sweep, at N_max and on the nodes of
    every smaller N together.  The cost: below N_max the kernel term is
    integrated by N_max's rules, not N's.  For kernels both rules integrate
    exactly (polynomial in t and in s**(1/kernel_s_power), as in the
    catalog) an entry equals a standalone solve_fide(N) to round-off: at
    most 1.6e-15 of the coefficients, max-normalised, on 5.1-5.4 at
    N = 4..128 and on t e^t with kernel exp(t - s) for n = 4..6.  For other
    kernels the sweep entry is the more accurate one, off a standalone solve
    by that solve's quadrature error.  For alpha > n the systems are
    ill-conditioned and the gap grows with the condition: on that t e^t
    problem 3.9e-13 at n = 1, alpha = 1.5 and up to 6.0e-9 at (1, 2.5) and
    (2, 3.5), N = 4..128.
    `exact` is sampled once on _error_grid.  The lifted solutions of all
    truncations, one matrix from _solve_systems, are evaluated on
    _error_grid by one product with the Legendre table of degree N_max, so
    their errors can differ from error_norms(solve_fide(N)) in the last
    digits.

    Solver failures at individual truncations, a lifted solution that is
    not finite among them, are recorded on their entries without aborting
    the sweep.  Errors below 1e-12 are treated as the machine floor and
    excluded from the decay fit; a sweep that sinks below the floor before
    three errors lie above it is "resolved" (see DecayFit).
    """
    ns = [_check_truncation(n) for n in truncations]
    if not ns:
        raise ValueError("need at least one truncation")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("truncations must be strictly increasing")
    if ns[0] < problem.n:
        raise ValueError(f"smallest truncation {ns[0]} is below derivative order {problem.n}")
    exact_values = _exact_samples(exact)
    lifted, outcomes = _solve_systems(ns, problem.ics, _nested_systems(problem, ns))
    values = lifted.T @ shifted_legendre_table(ns[-1], _error_grid()[0])
    entries = tuple(ConvergenceEntry(n, None, None, outcome) if isinstance(outcome, str)
                    else ConvergenceEntry(n, *_distances(row, exact_values))
                    for n, outcome, row in zip(ns, outcomes, values))
    return ConvergenceReport(entries, _fit_decay(entries))
