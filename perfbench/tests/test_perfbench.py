"""Tests of the benchmark itself (not of cltau).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert inputs.fingerprint(7) == inputs.fingerprint(7)
    assert inputs.fingerprint(7) != inputs.fingerprint(8)


def test_generator_keeps_the_grid_fixed_across_seeds():
    def structure(seed):
        cases, schedule = inputs.warm_cases(seed)
        return ([(c.alpha, c.n, c.a, c.kernel, any(p != int(p) for _, p in c.exact))
                 for c in cases],
                sorted(schedule))
    assert structure(1) == structure(2)


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(count, expected):
    assert checks.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert checks.percentile(values, 90.0) == 90
    assert checks.percentile(values, 99.0) == 99
    summary = checks.latency_summary([v / 1000.0 for v in values])
    assert summary["tail_percentile"] == 90.0 and summary["tail"] == pytest.approx(90.0)


def _span(op, name, start, end, parent):
    return [op, name, start, end, parent, None]


def test_self_time_is_duration_minus_covered_children():
    spans = [
        _span(0, tracing.OP_ROOT, 0.0, 10.0, -1),
        _span(0, "a", 1.0, 4.0, 0),
        _span(0, "b", 5.0, 6.0, 0),
        _span(0, "c", 2.0, 3.0, 1),
        _span(1, tracing.OP_ROOT, 20.0, 22.0, -1),
        _span(1, "a", 19.0, 21.0, 4),  # starts before its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_layer_table_self_times_sum_to_wall_time():
    spans = [
        _span(0, tracing.OP_ROOT, 0.0, 10.0, -1),
        _span(0, "solver.lu", 1.0, 9.0, 0),
        _span(0, "solver.assemble", 2.0, 5.0, 1),
        _span(1, tracing.OP_ROOT, 10.0, 14.0, -1),
        _span(1, "solver.lu", 10.5, 13.5, 3),
    ]
    table, gap = tracing.layer_table(spans)
    assert gap == pytest.approx(0.0, abs=1e-12)
    assert table["trace.ops"] == 2
    assert table["solver.lu.self_s"] == pytest.approx((5.0 + 3.0) / 2)
    assert table["solver.assemble.self_s"] == pytest.approx(1.5)
    assert table["bench.self_s"] == pytest.approx((2.0 + 1.0) / 2)


def test_merge_keeps_ops_and_parents_apart():
    first = [_span(0, tracing.OP_ROOT, 0.0, 1.0, -1), _span(0, "a", 0.1, 0.2, 0)]
    second = [_span(0, tracing.OP_ROOT, 5.0, 6.0, -1), _span(0, "a", 5.1, 5.2, 0)]
    merged = tracing.merge([first, second])
    assert [s[0] for s in merged] == [0, 0, 1, 1]
    assert [s[4] for s in merged] == [-1, 0, -1, 2]


def _solved_case(truncation=16):
    from cltau.orthopoly import MonomialSeries
    from cltau.solver import FIDEProblem, mms_forcing, solve_fide

    terms = ((0.5, 0.0), (-0.75, 1.0), (0.3, 2.0), (-0.1, 3.0))
    a = inputs.OPERATORS[1]
    kernel = lambda t, s: t * s  # noqa: E731
    forcing = mms_forcing(MonomialSeries(terms), 1, a, 0.5, kernel)
    problem = FIDEProblem(n=1, a=a, order=0.5, kernel=kernel, forcing=forcing,
                          ics=inputs.initial_values(terms, 1))
    return problem, terms, solve_fide(problem, truncation)


def test_accuracy_check_rejects_one_perturbed_coefficient():
    _, terms, solution = _solved_case()
    coeffs = solution.coeffs.coeffs.copy()
    ok, error = checks.accurate(coeffs, terms, 0.5, 16, 1, False)
    assert ok and error < 1e-12
    coeffs[5] += 1e-6
    ok, error = checks.accurate(coeffs, terms, 0.5, 16, 1, False)
    assert not ok and error > checks.l2_bound(terms, 0.5, 16, 1, False)


def test_tracing_leaves_results_and_functions_unchanged():
    import cltau.solver as solver

    problem, _, plain = _solved_case()
    original = solver.solve_fide
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        with tracer.operation():
            traced = solver.solve_fide(problem, 16)
    finally:
        tracing.uninstall(undo)
    assert solver.solve_fide is original
    np.testing.assert_array_equal(traced.coeffs.coeffs, plain.coeffs.coeffs)
    names = {span[1] for span in tracer.spans}
    assert {"solver.lu", "solver.assemble", "fracderiv.opmatrix",
            "cltransform.interpolate"} <= names
    assert tracing.layer_table(tracer.spans)[1] == pytest.approx(0.0, abs=1e-9)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
