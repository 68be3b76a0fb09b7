"""Chebyshev interpolation in the Legendre frame: chebyshev_interpolate,
weighted^T (P f) with the stored barycentric matrix P, and the map it
applies to unit samples, against a 40-digit projection of the same
interpolant; polynomial reproduction and spectral accuracy.  The
Chebyshev<->Legendre coefficient transform pair and the Chebyshev discrete
transform are test oracles here (the acceptance and solver tests use them
too); their own checks are the inverse-pair identities, the
parity/triangular zero pattern and hand-expanded low-degree entries."""

import math
import sys
import threading
from collections import OrderedDict
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from test_orthopoly import shifted_chebyshev_table

from cltau import cltransform
from cltau.cltransform import chebyshev_interpolate
from cltau.orthopoly import LegendreSeries, shifted_legendre_table
from cltau.quadrature import legendre_gauss_rule
from cltau.solver import builtin_example


class TransformPair(NamedTuple):
    """a: Legendre->Chebyshev coefficient matrix; b: its inverse. a @ b = I."""

    a: np.ndarray
    b: np.ndarray


def transform_pair(n: int) -> TransformPair:
    """Transform matrices for degrees 0..n: for u = sum_j beta_j L_{1,j} =
    sum_j alpha_j T_{1,j}, alpha = a beta and beta = b alpha.

    a[i, j] = (T_{1,i}, L_{1,j})_w / h_i with the Chebyshev weight
    (x - x^2)^(-1/2), h_0 = pi and h_i = pi/2 otherwise, via Chebyshev-Gauss
    quadrature (the nodes of cltransform, the closed-form weights pi/(n+1));
    b[i, j] = (2i+1) (L_{1,i}, T_{1,j}) via Legendre-Gauss.  Both integrands
    have degree <= 2n, so the (n+1)-point rules are exact.  Entries with
    i > j or i + j odd vanish by parity and are pinned to exact zeros.
    """
    i, j = np.indices((n + 1, n + 1))
    upper_even = (j >= i) & ((j - i) % 2 == 0)
    nodes = cltransform._chebyshev_nodes((n,))[0]
    h = np.full(n + 1, np.pi / 2.0)
    h[0] = np.pi
    a = ((shifted_chebyshev_table(n, nodes) * (np.pi / (n + 1)))
         @ shifted_legendre_table(n, nodes).T) / h[:, None]
    lg = legendre_gauss_rule(n)
    b = ((shifted_legendre_table(n, lg.nodes) * lg.weights)
         @ shifted_chebyshev_table(n, lg.nodes).T) * (2.0 * np.arange(n + 1) + 1.0)[:, None]
    a[~upper_even] = 0.0
    b[~upper_even] = 0.0
    return TransformPair(a, b)


def chebyshev_dct(n: int) -> np.ndarray:
    """The discrete Chebyshev transform at the n+1 shifted Chebyshev-Gauss
    points: dct @ f(x) holds the shifted Chebyshev coefficients of the
    interpolant, u_k = (2 - delta_{k0})/(n+1) sum_j f(x_j) T_{1,k}(x_j)."""
    scale = np.full(n + 1, 2.0 / (n + 1))
    scale[0] = 1.0 / (n + 1)
    return scale[:, None] * shifted_chebyshev_table(n, cltransform._chebyshev_nodes((n,))[0])


def chebyshev_to_legendre(coeffs) -> LegendreSeries:
    """Re-expand shifted Chebyshev coefficients in the shifted Legendre basis."""
    return LegendreSeries(transform_pair(len(coeffs) - 1).b @ coeffs)


def _legendre_values(m: int, t) -> list:
    """P_0(t)..P_m(t) by the three-term recurrence, in the working precision."""
    values = [mpmath.mpf(1), t]
    for k in range(1, m):
        values.append(((2 * k + 1) * t * values[k] - k * values[k - 1]) / (k + 1))
    return values[:m + 1]


def projection_40_digits(values, n: int) -> np.ndarray:
    """(I_n v, L_{1,k}) for k = 0..n at 40 digits, for each column v of values.

    I_n v interpolates the float samples v at the float nodes y_j of
    cltransform._chebyshev_nodes((n,)), in barycentric form with the weights
    1/prod_k (y_j - y_k) of those very nodes.  It is integrated against
    L_{1,k} by the (n + 2)-point Legendre-Gauss rule, exact through degree
    2n + 3, whose float nodes are refined by Newton steps on P_{n+2}; with
    n + 2 points no node of it falls on a Chebyshev node.
    """
    values = np.asarray(values, dtype=float)
    columns = values.reshape(n + 1, -1).T
    with mpmath.workdps(40):
        y = [mpmath.mpf(float(v)) for v in cltransform._chebyshev_nodes((n,))[0]]
        lam = [1 / mpmath.fprod(y[j] - y[k] for k in range(n + 1) if k != j)
               for j in range(n + 1)]
        samples = [[mpmath.mpf(float(v)) for v in column] for column in columns]
        out = [[mpmath.mpf(0)] * (n + 1) for _ in samples]
        for node in legendre_gauss_rule(n + 1).nodes:
            t = 2 * mpmath.mpf(float(node)) - 1
            for _ in range(3):
                p = _legendre_values(n + 2, t)
                dp = (n + 2) * (t * p[-1] - p[-2]) / (t * t - 1)
                t -= p[-1] / dp
            weight = 1 / ((1 - t * t) * dp * dp)  # 2/((1 - t^2) P'^2), halved for (0, 1)
            terms = [lj / ((t + 1) / 2 - yj) for lj, yj in zip(lam, y)]
            total = mpmath.fsum(terms)
            basis = _legendre_values(n, t)
            for column, target in zip(samples, out):
                value = weight * mpmath.fdot(terms, column) / total
                for k in range(n + 1):
                    target[k] += value * basis[k]
        result = np.array([[float(v) for v in target] for target in out]).T
    return result.reshape(values.shape)


def applied_map(n: int) -> np.ndarray:
    """The (n+1) x (n+1) map from samples at the Chebyshev nodes to
    projections as the package applies it: column j is chebyshev_interpolate
    of the unit sample vector e_j."""
    return np.column_stack([chebyshev_interpolate(lambda t, e=e: e, n) for e in np.eye(n + 1)])


def _interpolant(f, n: int) -> LegendreSeries:
    """The interpolant as a Legendre series: coefficient k is (2k+1) f_k."""
    return LegendreSeries((2.0 * np.arange(n + 1) + 1.0) * chebyshev_interpolate(f, n))


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_transforms_are_mutual_inverses(n):
    pair = transform_pair(n)
    eye = np.eye(n + 1)
    assert np.max(np.abs(pair.a @ pair.b - eye)) <= 1e-12
    assert np.max(np.abs(pair.b @ pair.a - eye)) <= 1e-12


@pytest.mark.parametrize("n", [4, 8, 16, 33])
def test_structural_zero_pattern_is_exact(n):
    # Both bases consist of polynomials with parity about x = 1/2, so the
    # change of basis is upper triangular with matching-parity entries; the
    # remaining entries must be exactly zero, not small.
    pair = transform_pair(n)
    for i in range(n + 1):
        for j in range(n + 1):
            if j < i or (i + j) % 2 == 1:
                assert pair.a[i, j] == 0.0
                assert pair.b[i, j] == 0.0


def test_hand_expanded_entries():
    # L_{1,2} = (1/4) T_{1,0} + (3/4) T_{1,2} and
    # T_{1,2} = -(1/3) L_{1,0} + (4/3) L_{1,2}.
    pair = transform_pair(3)
    assert pair.a[0, 2] == pytest.approx(0.25, abs=1e-14)
    assert pair.a[2, 2] == pytest.approx(0.75, abs=1e-14)
    assert pair.b[0, 2] == pytest.approx(-1.0 / 3.0, abs=1e-14)
    assert pair.b[2, 2] == pytest.approx(4.0 / 3.0, abs=1e-14)
    # Degrees 0 and 1 coincide in the two families.
    assert pair.a[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert pair.a[1, 1] == pytest.approx(1.0, abs=1e-14)


def test_diagonal_is_leading_coefficient_ratio():
    # a[j, j] = lead(L_{1,j}) / lead(T_{1,j}) = binom(2j, j) / 2^(2j - 1)
    # for j >= 1 (the leading coefficients are binom(2j, j) and 2^(2j - 1)).
    pair = transform_pair(8)
    assert pair.a[0, 0] == pytest.approx(1.0, abs=1e-14)
    for j in range(1, 9):
        expected = math.comb(2 * j, j) / 2.0 ** (2 * j - 1)
        assert pair.a[j, j] == pytest.approx(expected, rel=1e-13)


def test_series_round_trip():
    rng = np.random.default_rng(42)
    coeffs = rng.uniform(-3.0, 3.0, size=17)
    leg = LegendreSeries(coeffs)
    cheb = transform_pair(leg.degree).a @ leg.coeffs
    back = chebyshev_to_legendre(cheb)
    assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-10
    x = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(np.polynomial.chebyshev.chebval(2.0 * x - 1.0, cheb) - leg(x))) <= 1e-10


def test_chebyshev_interpolate_reproduces_polynomials():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return x ** 3 - 2.0 * x + 1.0

    interp = _interpolant(f, 5)
    assert calls == [(6,)]  # one call, on the whole node array
    x = np.linspace(0.0, 1.0, 33)
    assert np.max(np.abs(interp(x) - f(x))) <= 1e-13
    # A constant forcing need not broadcast itself.
    constant = chebyshev_interpolate(lambda x: 2.0, 5)
    assert np.allclose(constant, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)
    # Degree beyond n is genuinely truncated, not magically recovered.
    coarse = _interpolant(f, 2)
    assert np.max(np.abs(coarse(x) - f(x))) > 1e-3


def test_chebyshev_interpolate_known_coefficients():
    # f = T_{1,0} + 0.5 T_{1,3} = L_{1,0} - 0.3 L_{1,1} + 0.8 L_{1,3}, since
    # T_3 = (8/5) P_3 - (3/5) P_1; its projections are those over 2k + 1.
    def target(x):
        return np.polynomial.chebyshev.chebval(2.0 * x - 1.0, [1.0, 0.0, 0.0, 0.5])

    projections = chebyshev_interpolate(target, 3)
    assert np.allclose(projections, [1.0, -0.1, 0.0, 0.8 / 7.0], rtol=0, atol=1e-14)


def test_barycentric_matrix_gives_a_unit_row_on_a_node():
    # The 33-point Legendre rule and the 5 Chebyshev nodes of n = 4 share
    # the node 0.5: its row is e_2, not 0/0, and every row still reproduces
    # polynomials of degree <= 4 at the Legendre nodes.
    x = legendre_gauss_rule(32).nodes
    nodes, weights, _ = cltransform._chebyshev_nodes((4,))
    matrix = cltransform._barycentric_matrix(x, nodes, weights)
    assert x[16] == nodes[2] == 0.5
    np.testing.assert_array_equal(matrix[16], [0.0, 0.0, 1.0, 0.0, 0.0])
    quartic = lambda t: t ** 4 - 3.0 * t ** 3 + t
    assert np.max(np.abs(matrix @ quartic(nodes) - quartic(x))) <= 1e-14


def test_interpolating_on_a_larger_rule_gives_the_same_projections():
    # (I_n f) L_{1,k} has degree <= 2n, so the rule of any top >= n projects
    # it exactly; at top the path is chebyshev_interpolate's own.  The
    # 33-point Legendre rule of top = 17 holds the node 0.5 of every even n,
    # and the 145-point rule of top = 129 that of the 63 even n below it.
    # Its longer sums round further from the n + 16 point rule of each n,
    # by 1.1-1.3e-15 (5-6 ulp of f_0 = e - 1) whatever the order of the
    # barycentric sums.
    cases = [(truncations, 1e-15) for truncations in
             ((4, 17), (7, 16), (16,), (4, 7, 16), tuple(range(4, 18)))]
    for truncations, bound in cases + [(tuple(range(3, 130)), 2e-15)]:
        got = cltransform._nested_projections(np.exp, truncations)
        assert len(got) == len(truncations)
        for n, projections in zip(truncations, got):
            expected = chebyshev_interpolate(np.exp, n)
            assert projections.shape == expected.shape
            assert np.max(np.abs(projections - expected)) <= bound
        assert projections.tobytes() == expected.tobytes()


def test_nested_projections_sample_once_below_the_top():
    # One call of f on the nodes of every n below the top, concatenated and
    # bit for bit those of each n alone, and one at the top.
    calls = []
    cltransform._nested_projections(lambda t: calls.append(t.copy()) or np.exp(t), (3, 4, 9))
    assert [t.size for t in calls] == [4 + 5, 10]
    single = lambda n: cltransform._chebyshev_nodes((n,))
    np.testing.assert_array_equal(calls[0], np.concatenate((single(3)[0], single(4)[0])))
    for n in range(130):
        nodes, weights, starts = cltransform._chebyshev_nodes((n, 2 * n + 1))
        assert starts.tolist() == [0, n + 1]
        for block, m in ((slice(None, n + 1), n), (slice(n + 1, None), 2 * n + 1)):
            assert nodes[block].tobytes() == single(m)[0].tobytes()
            assert weights[block].tobytes() == single(m)[1].tobytes()


def test_chebyshev_interpolate_spectral_decay():
    errors = []
    x = np.linspace(0.0, 1.0, 101)
    for n in (4, 8, 16):
        errors.append(np.max(np.abs(_interpolant(np.exp, n)(x) - np.exp(x))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-13


def test_interpolate_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite forcing sample"):
        chebyshev_interpolate(lambda x: float("nan"), 4)


def test_interpolate_rejects_complex_values():
    # float64 would keep only the real part, so the imaginary one would
    # vanish without an error.
    with pytest.raises(ValueError, match="forcing returned complex samples"):
        chebyshev_interpolate(lambda x: x + 0.5j, 4)
    with pytest.raises(ValueError, match="forcing returned shape"):
        chebyshev_interpolate(lambda x: np.ones(3), 4)


def test_real_samples_broadcast_only_when_shapes_differ():
    # Float64 samples of the right shape come back as the same array (no
    # copy, no broadcast view); a constant is still broadcast, and a shape
    # that does not broadcast still raises.
    samples = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert cltransform._real_samples(samples, (3, 4), "kernel", "here") is samples
    constant = cltransform._real_samples(2.5, (3, 4), "forcing", "here")
    assert constant.shape == (3, 4) and np.all(constant == 2.5)
    with pytest.raises(ValueError, match="kernel returned shape"):
        cltransform._real_samples(np.ones(3), (3, 4), "kernel", "here")
    with pytest.raises(ValueError, match="kernel returned complex samples here"):
        cltransform._real_samples(samples + 1j, (3, 4), "kernel", "here")
    with pytest.raises(ValueError, match="non-finite kernel sample here"):
        cltransform._real_samples(np.full((3, 4), np.inf), (3, 4), "kernel", "here")


def test_forcing_map_validation_and_caching():
    with pytest.raises(ValueError):
        chebyshev_interpolate(np.exp, -1)
    assert cltransform._legendre_projection(8) is cltransform._legendre_projection(8)
    with pytest.raises(ValueError):
        cltransform._legendre_projection(8)[4][0, 0] = 2.0  # frozen buffers


@pytest.mark.parametrize("n", [16, 48, 96])
def test_forcing_map_matches_a_40_digit_projection(n):
    # Each catalog forcing projected by chebyshev_interpolate, weighted^T
    # (P f) in float64, against the exact projection of the interpolant of
    # the same float samples.  The deviation is measured against the
    # largest sample, the scale of the projection's rounding: problem 5.2
    # has samples up to 6.4 and projections below 1.
    nodes = cltransform._chebyshev_nodes((n,))[0]
    for example_id in ("5.1", "5.2", "5.3", "5.4"):
        forcing = builtin_example(example_id).problem.forcing
        samples = forcing(nodes)
        reference = projection_40_digits(samples, n)
        deviation = np.max(np.abs(chebyshev_interpolate(forcing, n) - reference))
        assert deviation <= 1e-15 * np.max(np.abs(samples)), f"{example_id}: {deviation:.3e}"


def test_forcing_map_is_finite_and_read_only_for_every_size():
    # The barycentric denominators x_q - y_j never vanish: the Chebyshev
    # rule holds an exact 0.5 for even n, the Legendre rule for odd n.  So
    # the stored (n + 16) x (n + 1) matrix P, and the map the package
    # applies to every unit sample vector, are finite.
    for n in range(257):
        *_, nodes, interpolation = cltransform._legendre_projection(n)
        assert interpolation.shape == (n + 16, n + 1), f"n={n}"
        assert np.all(np.isfinite(applied_map(n))), f"n={n}"
        assert not nodes.flags.writeable and not interpolation.flags.writeable


def test_the_table_store_keeps_its_bound_under_threads(monkeypatch):
    # Six threads on two cores, switching every microsecond, look up 300
    # keys of a 64 KiB store through a builder that looks up another key
    # (a build runs outside the lock, so this cannot deadlock).  Every
    # lookup must return its own key's table, and at the end the held
    # entries must fit the budget and each be its own key's.
    monkeypatch.setattr(cltransform, "_tables", OrderedDict())
    monkeypatch.setattr(cltransform, "_TABLE_BYTES", 64 << 10)

    @cltransform._stored
    def inner(key):
        return (np.full(key % 37 + 1, float(key)),)

    @cltransform._stored
    def outer(key):
        return inner(key // 2)[0] * 0.0 + key, np.arange(key % 5 + 1.0)

    wrong, errors, done = [], [], []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for key in rng.integers(0, 300, 2000):
                table, _ = outer(int(key))
                if not np.all(table == key):
                    wrong.append(int(key))
        except Exception as exc:  # reported below; a thread's exception fails no test
            errors.append(repr(exc))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (sorted(done), errors, wrong) == (list(range(6)), [], [])
    assert sum(size for _, size in cltransform._tables.values()) <= 64 << 10
    for (builder, (key,)), (tables, _) in cltransform._tables.items():
        assert np.all(tables[0] == (key if builder is outer.__wrapped__ else float(key)))
