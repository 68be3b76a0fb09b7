"""End-to-end checks of the command-line interface.

Every test drives ``cltau.cli.main`` in process with an argv list and
inspects exit codes, written files, and the stdout/stderr streams, so the
whole argument-parsing -> config -> solve -> serialize pipeline is covered
without spawning subprocesses.
"""

import json
import math

import numpy as np
import pytest

from test_solver import _perturb_the_solution

from cltau.cli import ProblemConfig, main
from cltau.solver import (_CATALOG, FIDEProblem, SolverError, builtin_example,
                          builtin_example_ids, error_norms, example_config, solve_fide)

# ------------------------------------------------------------------ helpers


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_config(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


_MMS_CONFIG = {
    "name": "mms-quartic",
    "n": 1,
    "a": [0, 1],
    "alpha": 0.25,
    "kernel": "t^2*s^2",
    "mms_exact": [[2, 4], [-1, 1.5]],
    "ics": [0],
    "kernel_s_power": 1,
}

_FORCING_CONFIG = {
    "name": "forcing-only",
    "n": 1,
    "a": [0, 1],
    "alpha": 0.5,
    "kernel": "t*s",
    "forcing": "1 - 4*t/(5*sqrt(pi))",
    "ics": [0],
}

# The tau matrix for this problem is singular at every truncation: the
# equation constrains only y' and the mean of y, leaving the constant
# mode undetermined.
_SINGULAR_CONFIG = {
    "name": "underdetermined",
    "n": 1,
    "a": [0, 1],
    "alpha": 1,
    "kernel": "1",
    "forcing": "1",
    "ics": [0],
}

# ------------------------------------------------------------------- solve


def test_solve_example_writes_solution_json(capsys, tmp_path):
    out = tmp_path / "solution.json"
    code, stdout, stderr = _run(
        capsys, ["solve", "--example", "5.1", "--N", "3", "--out", str(out)])
    assert code == 0
    assert stdout == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(payload) == ["N", "condition_estimate",
                               "legendre_coeffs", "problem_digest"]
    assert payload["N"] == 3
    coeffs = payload["legendre_coeffs"]
    assert len(coeffs) == 4
    # The exact solution 14t has shifted-Legendre coefficients (7, 7, 0, 0).
    assert math.isclose(coeffs[0], 7.0, abs_tol=1e-10)
    assert math.isclose(coeffs[1], 7.0, abs_tol=1e-10)
    assert abs(coeffs[2]) < 1e-10 and abs(coeffs[3]) < 1e-10
    assert "solved" in stderr and "l2_error=" in stderr


def test_solve_output_is_byte_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert _run(capsys, ["solve", "--example", "5.4", "--N", "8",
                         "--out", str(first)])[0] == 0
    assert _run(capsys, ["solve", "--example", "5.4", "--N", "8",
                         "--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_solve_matches_direct_solver_call(capsys, tmp_path):
    out = tmp_path / "solution.json"
    code, _, _ = _run(capsys, ["solve", "--example", "5.4", "--N", "8",
                               "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    direct = solve_fide(builtin_example("5.4").problem, 8)
    np.testing.assert_allclose(payload["legendre_coeffs"],
                               direct.coeffs.coeffs, rtol=0, atol=0)


def test_solve_stdout_default_and_variant_note(capsys):
    code, stdout, stderr = _run(
        capsys, ["solve", "--example", "5.3", "--N", "4", "--variant", "printed"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["N"] == 4
    assert stderr.startswith("note (5.3, printed forcing):")


def test_solve_consistent_example_has_no_note(capsys):
    code, _, stderr = _run(capsys, ["solve", "--example", "5.1", "--N", "2"])
    assert code == 0
    assert "note (" not in stderr


def test_emit_config_round_trips_digest_and_coefficients(capsys, tmp_path):
    emitted = tmp_path / "resolved.json"
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code, _, _ = _run(capsys, ["solve", "--example", "5.2", "--N", "8",
                               "--out", str(out_a), "--emit-config", str(emitted)])
    assert code == 0
    resolved = json.loads(emitted.read_text(encoding="utf-8"))
    assert "N" not in resolved
    code, _, _ = _run(capsys, ["solve", "--config", str(emitted), "--N", "8",
                               "--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_solve_custom_mms_config_reports_small_error(capsys, tmp_path):
    path = _write_config(tmp_path, _MMS_CONFIG)
    code, stdout, stderr = _run(capsys, ["solve", "--config", path, "--N", "8"])
    assert code == 0
    payload = json.loads(stdout)
    expected = ProblemConfig.from_dict(_MMS_CONFIG).digest()
    assert payload["problem_digest"] == expected
    # This config states the same problem as catalog entry 5.2 (exact
    # solution 2t^4 - t^1.5), so the reported error must match the known
    # N=8 value for that entry.
    l2 = float(stderr.split("l2_error=")[1].split(",")[0])
    assert math.isclose(l2, 1.599945e-4, rel_tol=1e-4)


@pytest.mark.parametrize("example_id, variant, digest", [
    ("5.1", "printed", "5f94030448afc9742f88b5c7fc255554ef275c34137ec8ad7ac065789bdee13c"),
    ("5.1", "corrected", "a161e515f2c5ba6c882496b61cf00d365e61b7c9bc57f7c0796caa93a25f33bc"),
    ("5.2", "printed", "09b4cf7c6b47b1ba1fbd22d0432961e0c3628ea8ae5bcc73f5b40d2145571b65"),
    ("5.2", "corrected", "75b10d58910cfeb4b6b6d259b2a6667a109f961b506d90f4ba0d05aa108a9bb1"),
    ("5.3", "printed", "cf13f4eaf948e171027166c70d66796853cf386ad5c6a182318ad770c1a3d60b"),
    ("5.3", "corrected", "6d481ed8c194299f0c266cca95dd5419978ae5f54f5a29637dd9655cfbfab784"),
    ("5.4", "printed", "ff1f87e3c0b018670083bc26734666fa66adb651ee69b4615bc13c6e0ab8fcce"),
    ("5.4", "corrected", "b7d80df0afeb6e55541e9773b6033d485226f839f7a25a8a4dabdd55723f4406"),
])
def test_catalog_problem_digests_are_pinned(example_id, variant, digest):
    # A digest names a problem across versions: the canonical fields, their
    # order and their number format may not drift.
    assert ProblemConfig.from_dict(example_config(example_id, variant)).digest() == digest


def test_config_build_passes_kernel_s_power_to_the_forcing():
    # Example 5.3 as a config: the kernel t^2*sqrt(s) is polynomial in
    # sqrt(s), so with kernel_s_power 2 the manufactured forcing is exact,
    # 8 + 36t + (9 - 8/sqrt(pi)) t^2.
    config = ProblemConfig.from_dict({
        "name": "sqrt-kernel", "n": 2, "a": [0, 1, 2], "alpha": 1.5,
        "kernel": "t^2*sqrt(s)", "mms_exact": [[8, 1], [3, 3]], "ics": [0, 8],
        "kernel_s_power": 2})
    problem, _ = config.build()
    assert problem.kernel_s_power == 2
    t = np.linspace(0.0, 1.0, 11)
    closed = 8.0 + 36.0 * t + (9.0 - 8.0 / math.sqrt(math.pi)) * t ** 2
    assert np.max(np.abs(problem.forcing(t) - closed)) <= 1e-12


def test_mms_config_is_checked_against_its_initial_values(capsys, tmp_path, monkeypatch):
    # y = t^2 has y(0) = 0; with ics [5] the solver would report an l2 error
    # of 5 and a stagnated sweep for a problem it solves exactly.
    bad = dict(_MMS_CONFIG, alpha=0.5, kernel="t*s", mms_exact=[[1, 2]], ics=[5.0])
    path = _write_config(tmp_path, bad)
    for command in (["solve", "--N", "8"], ["convergence", "--N-sweep", "4:16:4"]):
        code, stdout, stderr = _run(capsys, [*command, "--config", path])
        assert (code, stdout) == (2, "")
        assert "ics[0] = 5.0 contradicts mms_exact" in stderr and "is 0.0" in stderr
    # Derivatives are checked too: y'' of t e^t is 2 at 0.
    config = example_config("5.4")
    config["ics"][2] = 2.5
    with pytest.raises(ValueError, match=r"ics\[2\] = 2.5 .* order 2 at 0 is 2.0"):
        ProblemConfig.from_dict(config).build()
    for example_id in builtin_example_ids():
        for variant in ("printed", "corrected"):
            ProblemConfig.from_dict(example_config(example_id, variant)).build()
    # A catalog problem is built by the same code, so the same check holds it.
    monkeypatch.setitem(_CATALOG["5.4"]["config"], "ics", [0.0, 1.0, 2.5])
    with pytest.raises(ValueError, match=r"ics\[2\] = 2.5 contradicts mms_exact"):
        builtin_example("5.4")


def test_solve_survives_an_overflowing_gamma_factor(capsys, tmp_path):
    # D^(1/2) t^200 has the finite coefficient Gamma(201)/Gamma(200.5) = 14.15,
    # though Gamma(201) alone overflows; a coefficient past the float range
    # (t^171.5 at order 171.4) is a configuration error, exit 2.
    big = dict(_MMS_CONFIG, alpha=0.5, kernel="t*s", mms_exact=[[1, 200]])
    code, stdout, _ = _run(capsys, ["solve", "--config", _write_config(tmp_path, big), "--N", "16"])
    assert code == 0 and json.loads(stdout)["N"] == 16
    huge = dict(big, alpha=171.4, mms_exact=[[1, 171.5]])
    code, stdout, stderr = _run(capsys, ["solve", "--config", _write_config(tmp_path, huge),
                                         "--N", "16"])
    assert (code, stdout) == (2, "")
    assert "x^171.5 at order 171.4 is beyond the float range" in stderr


@pytest.mark.parametrize("n", [171, 175])
def test_solve_at_a_derivative_order_past_the_gamma_range(capsys, tmp_path, n):
    # The trial functions t^l/l! and I^n L_j carry 1/Gamma(l - alpha + 1) and
    # 1/Gamma(n - alpha + 2), and Gamma overflows past 171.6: those factors
    # are then taken through lgamma, not raised as OverflowError.
    config = {"n": n, "a": [0] * n + [1], "alpha": 0.5, "kernel": "t*s", "forcing": "1",
              "ics": [0] * n}
    code, stdout, stderr = _run(capsys, ["solve", "--config", _write_config(tmp_path, config),
                                         "--N", str(n + 2)])
    assert code == 0, stderr
    assert json.loads(stdout)["N"] == n + 2


def test_solve_forcing_config_has_no_error_report(capsys, tmp_path):
    path = _write_config(tmp_path, _FORCING_CONFIG)
    code, stdout, stderr = _run(capsys, ["solve", "--config", path, "--N", "6"])
    assert code == 0
    assert "l2_error" not in stderr
    # This forcing manufactures y = t, whose coefficients are (1/2, 1/2, 0...).
    coeffs = json.loads(stdout)["legendre_coeffs"]
    np.testing.assert_allclose(coeffs[:2], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(coeffs[2:], 0.0, atol=1e-12)


# ---------------------------------------------------------- config failures


def test_solve_rejects_forcing_plus_mms(capsys, tmp_path):
    bad = dict(_FORCING_CONFIG)
    bad["mms_exact"] = [[1, 1]]
    path = _write_config(tmp_path, bad)
    code, _, stderr = _run(capsys, ["solve", "--config", path, "--N", "4"])
    assert code == 2
    assert "exactly one of forcing / mms_exact" in stderr


def test_solve_rejects_variant_with_config(capsys, tmp_path):
    path = _write_config(tmp_path, _FORCING_CONFIG)
    code, _, stderr = _run(capsys, ["solve", "--config", path, "--N", "4",
                                    "--variant", "printed"])
    assert code == 2
    assert "--variant applies only to --example" in stderr


def test_solve_rejects_unknown_example(capsys):
    code, _, stderr = _run(capsys, ["solve", "--example", "9.9", "--N", "4"])
    assert code == 2
    assert "unknown example id" in stderr


def test_solve_reports_missing_config_file(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, stderr = _run(capsys, ["solve", "--config", missing, "--N", "4"])
    assert code == 2
    assert missing in stderr


def test_solve_requires_truncation(capsys, tmp_path):
    path = _write_config(tmp_path, _FORCING_CONFIG)
    code, _, stderr = _run(capsys, ["solve", "--config", path])
    assert code == 2
    assert "the following arguments are required: --N" in stderr


def test_solve_singular_system_exits_three(capsys, tmp_path):
    path = _write_config(tmp_path, _SINGULAR_CONFIG)
    code, _, stderr = _run(capsys, ["solve", "--config", path, "--N", "4"])
    assert code == 3
    assert stderr.startswith("solver error:")


# The gesv of this system overflows: its solution v is not finite, though
# the matrix and the right-hand side are.
_NON_FINITE_CONFIG = {"n": 1, "a": [0, 1e-300], "alpha": 0.5, "kernel": "1e-300*t*s",
                      "forcing": "1e10*sqrt(t)", "ics": [0]}


def test_solve_with_a_non_finite_solution_exits_three(capsys, tmp_path):
    path = _write_config(tmp_path, _NON_FINITE_CONFIG)
    code, stdout, stderr = _run(capsys, ["solve", "--config", path, "--N", "8"])
    assert (code, stdout) == (3, "")
    assert stderr == "solver error: solution is not finite at truncation 8\n"


# Configs at the edge of the float range, each with its command, exit code
# and complete stderr.  The stderr equality also shows that no
# RuntimeWarning was printed before the message.
_EDGE_CASES = {
    # v is finite, but adding the initial value 1.7e308 to the lifted series overflows.
    "lifted-solution-overflows": (
        {"n": 1, "a": [0, 1], "alpha": 0.5, "kernel": "0*t*s", "forcing": "1e308",
         "ics": [1.7e308]},
        ["solve", "--N", "4"], 3, "solver error: solution is not finite at truncation 4\n"),
    # v is finite (max 2.5e11) and max|A| = 3e297, so A v - rhs overflows to
    # NaN entries, which "residual > tolerance" passed.  Taken on A / max|A|,
    # the residual misses the tolerance by 400 times.
    "residual-overflows-to-nan": (
        {"n": 6, "a": [0.33032792991697624, -1e300, 2.01434350358671, -5.227607847687116,
                       -2.0443358000818233, -0.0751530574271027, -1.0],
         "alpha": 1.0, "kernel": "t^2*s^2", "forcing": "1",
         "ics": [4.157635754311458, 0.846798394129189, -2.243263797692079, 5.416131981392696,
                 0.0, 2.802955845982559]},
        ["solve", "--N", "16"], 3,
        "solver error: solve residual 2.599e+292 exceeds 6.512e+289 at truncation 16\n"),
    # The kernel term's moment product overflows: the system is not finite.
    "kernel-term-overflows": (
        {"n": 3, "a": [-0.54704067817418, 3.0, -2.8220480920929427, -1.07538812372661],
         "alpha": 7.3, "kernel": "exp(700*t*s)", "forcing": "exp(t)",
         "ics": [-4.922040353119332, 3.896189127633442, 0.004285564078624748]},
        ["solve", "--N", "16"], 2, "error: tau system has non-finite entries at truncation 16\n"),
    # The manufactured forcing's projection overflows below the sweep's top.
    "forcing-projection-overflows": (
        {"n": 1, "a": [1e308, 1e300], "alpha": 1.5, "kernel": "1e200*t*s",
         "mms_exact": [[1.772110377251753, 1.0]], "ics": [0.0]},
        ["convergence", "--N-sweep", "1:13:4"], 2,
        "error: tau system has non-finite entries at truncation 1\n"),
    # The kernel product of the manufactured forcing overflows.
    "manufactured-forcing-overflows": (
        {"n": 1, "a": [-4.301746304480553, 5e-324], "alpha": 1e-9, "kernel": "1e200*t*s",
         "mms_exact": [[5.032802246942804, 8.0], [3.0698162932938025, 3.0], [1e300, 5.0]],
         "ics": [0.0]},
        ["convergence", "--N-sweep", "1:13:4"], 2,
        "error: non-finite forcing sample at the interpolation nodes\n"),
    # The exact solution 1e308 (1 + t) overflows on the error grid.
    "exact-solution-overflows": (
        {"n": 1, "a": [0, 1], "alpha": 0.5, "kernel": "0*t*s",
         "mms_exact": [[1e308, 0], [1e308, 1]], "ics": [1e308]},
        ["convergence", "--N-sweep", "2:6:2"], 2,
        "error: non-finite exact solution sample on the error grid\n"),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_configs_at_the_float_range_exit_with_their_code_and_no_warning(capsys, tmp_path, case):
    config, command, expected_code, expected_stderr = _EDGE_CASES[case]
    path = _write_config(tmp_path, config)
    assert _run(capsys, command + ["--config", path]) == (expected_code, "", expected_stderr)


def test_a_solved_series_that_overflows_on_the_error_grid_does_not_warn(capsys, tmp_path):
    # The solve gives finite coefficients near 1.5e308, and their series
    # passes the float range on the error grid, as the exact solution
    # 1e308 (1 + t) does; only the exact solution's failure is reported,
    # and nothing is written, to stdout, to --out or to --emit-config.
    config = {"n": 1, "a": [0, 1], "alpha": 0.5, "kernel": "0*t*s",
              "mms_exact": [[1e308, 0], [1e308, 1]], "ics": [1e308]}
    command = ["solve", "--config", _write_config(tmp_path, config), "--N", "4"]
    error = "error: non-finite exact solution sample on the error grid\n"
    assert _run(capsys, command) == (2, "", error)
    out, emitted = tmp_path / "solution.json", tmp_path / "resolved.json"
    assert _run(capsys, [*command, "--out", str(out), "--emit-config", str(emitted)]) == (
        2, "", error)
    assert not out.exists() and not emitted.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--example", "5.1", "--N", "4", "--emit-config", "{missing}"],
    ["solve", "--example", "5.1", "--N", "4", "--emit-config", "{emitted}", "--out", "{missing}"],
    ["convergence", "--example", "5.1", "--N-sweep", "4:8:4", "--csv", "{missing}"],
], ids=["emit-config", "out", "csv"])
def test_an_unwritable_output_path_exits_two(capsys, tmp_path, argv):
    # A path in a directory that does not exist cannot be opened: exit 2
    # with one error line, nothing on stdout, no summary and no fit.  An
    # --emit-config written before the failing --out stays, complete.
    missing, emitted = tmp_path / "missing" / "file", tmp_path / "resolved.json"
    code, stdout, stderr = _run(capsys, [arg.format(missing=missing, emitted=emitted)
                                         for arg in argv])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: cannot write: ") and stderr.count("\n") == 1
    assert repr(str(missing)) in stderr
    if "{emitted}" in argv:
        assert json.loads(emitted.read_text(encoding="utf-8")) == ProblemConfig.from_dict(
            example_config("5.1")).fields


def test_error_norms_of_a_solution_near_the_float_range_stay_finite(capsys, tmp_path):
    # The exact solution 1e300 t^3 squares past the float range.  The problem
    # is linear in the exact solution (its ics are 0), so its errors are
    # 1e300 times those of t^3, to the 7 digits printed.
    config = {"n": 1, "a": [2.44, -3.08], "alpha": 1e-9, "kernel": "gamma(t+s)", "ics": [0]}
    errors = []
    for coefficient in (1e300, 1.0):
        path = _write_config(tmp_path, dict(config, mms_exact=[[coefficient, 3.0]]))
        code, _, stderr = _run(capsys, ["solve", "--config", path, "--N", "1"])
        assert code == 0, stderr
        l2, largest = (float(stderr.split(f"{key}=")[1].split(",")[0])
                       for key in ("l2_error", "max_error"))
        errors.append((l2, largest))
    (l2, largest), (unit_l2, unit_largest) = errors
    assert math.isfinite(l2)
    assert l2 == pytest.approx(1e300 * unit_l2, rel=1e-6)
    assert largest == pytest.approx(1e300 * unit_largest, rel=1e-6)


def test_a_sweep_whose_errors_square_past_the_float_range_keeps_its_entries(capsys, tmp_path):
    # The N = 1 error is about 5e199, whose square overflows; the larger
    # truncations fail the pivot gate.  Each is an entry, not a lost sweep.
    config = {"n": 1, "a": [1, 1], "alpha": 2.5, "kernel": "1e200*t*s",
              "mms_exact": [[1, 3]], "ics": [0]}
    code, stdout, stderr = _run(capsys, ["convergence", "--config", _write_config(tmp_path, config),
                                         "--N-sweep", "1:13:4"])
    assert code == 0, stderr
    header, first, *failed = stdout.splitlines()
    assert (header, failed) == ("N,l2_error,max_error", ["5,,", "9,,", "13,,"])
    l2, largest = (float(v) for v in first.split(",")[1:])
    assert first.startswith("1,") and 0.0 < l2 <= largest < 1e201
    failures = [line.split(" failed: ")[0] for line in stderr.splitlines()[1:]]
    assert failures == ["N=5", "N=9", "N=13"]


@pytest.mark.parametrize("argv, message", [
    (["solve", "--config", "{kernel}", "--N", "4"], "error: kernel does not parse: offset 2:"),
    (["solve", "--config", "{forcing}", "--N", "4"], "error: forcing does not parse: offset 3:"),
    (["solve", "--config", "{forcing_s}", "--N", "4"],
     "error: forcing may use only ['t'], found ['s']"),
    (["solve", "--config", "{truncation}", "--N", "4"], "error: unknown config key 'N'"),
    (["convergence", "--config", "{sweep}", "--N-sweep", "4:8:2"],
     "error: unknown config key 'N_sweep'"),
    (["solve", "--config", "{not_json}", "--N", "4"], "is not valid JSON"),
    (["solve", "--N", "4"], "need exactly one of --config PATH or --example ID"),
    (["solve", "--config", "{kernel}", "--example", "5.1", "--N", "4"],
     "need exactly one of --config PATH or --example ID"),
    (["convergence", "--example", "5.1", "--N-sweep", "4:x:4"],
     "sweep must be three integers, got '4:x:4'"),
    (["opmatrix", "--alpha", "0.5", "--N", "-1"], "must be a non-negative integer, got -1"),
], ids=["kernel-parse", "forcing-parse", "forcing-uses-s", "config-N", "config-N_sweep",
        "not-json", "neither", "both", "sweep-integers", "opmatrix-negative"])
def test_malformed_invocation_is_config_error(capsys, tmp_path, argv, message):
    paths = {"kernel": _write_config(tmp_path, dict(_FORCING_CONFIG, kernel="t**s"), "k.json"),
             "forcing": _write_config(tmp_path, dict(_FORCING_CONFIG, forcing="1 +"), "f.json"),
             "forcing_s": _write_config(tmp_path, dict(_FORCING_CONFIG, forcing="t*s"), "fs.json"),
             "truncation": _write_config(tmp_path, dict(_FORCING_CONFIG, N=6), "n.json"),
             "sweep": _write_config(tmp_path, dict(_MMS_CONFIG, N_sweep={"from": 4, "to": 8,
                                                                         "step": 2}), "sw.json"),
             "not_json": str(tmp_path / "broken.json")}
    (tmp_path / "broken.json").write_text('{"n": 1,', encoding="utf-8")
    code, stdout, stderr = _run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and message in stderr


@pytest.mark.parametrize("command, base, key, source, named", [
    ("solve", _FORCING_CONFIG, "kernel", "sqrt(t - s)", "sqrt(t - s)"),
    ("solve", _FORCING_CONFIG, "forcing", "1 + ln(t - 0.5)", "ln(t - 0.5)"),
    ("convergence", _MMS_CONFIG, "kernel", "t/(s - s)", "t/(s - s)"),
])
def test_expression_error_is_config_error(capsys, tmp_path, command, base, key, source, named):
    # An expression that fails on the solve grid is a problem of the
    # config: exit code 2, naming the offending sub-expression.
    path = _write_config(tmp_path, dict(base, **{key: source}))
    extra = ["--N", "6"] if command == "solve" else ["--N-sweep", "4:6:2"]
    code, stdout, stderr = _run(capsys, [command, "--config", path, *extra])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert f"in {named!r}" in stderr


@pytest.mark.parametrize("base", [_FORCING_CONFIG, _MMS_CONFIG], ids=["forcing", "mms_exact"])
@pytest.mark.parametrize("key, value, message", [
    ("n", 0, "derivative order n must be an integer >= 1, got 0"),
    ("n", True, "derivative order n must be an integer >= 1, got True"),
    ("n", 1.5, "derivative order n must be an integer >= 1, got 1.5"),
    ("n", "1", "derivative order n must be an integer >= 1, got '1'"),
    ("a", [0, 1, 2], "need 2 coefficients a_0..a_n, got 3"),
    ("ics", [0, 0], "need 1 initial values, got 2"),
    ("kernel_s_power", 0, "kernel_s_power must be an integer >= 1, got 0"),
    ("kernel_s_power", True, "kernel_s_power must be an integer >= 1, got True"),
    ("kernel_s_power", 1.0, "kernel_s_power must be an integer >= 1, got 1.0"),
], ids=["n-0", "n-true", "n-1.5", "n-text", "a-3", "ics-2", "s_power-0", "s_power-true",
        "s_power-1.0"])
def test_problem_values_are_worded_by_fide_problem(capsys, tmp_path, base, key, value, message):
    # The config reader checks JSON types only; the values of n, a, ics and
    # kernel_s_power are checked by FIDEProblem's rules, so a config states
    # each fault in FIDEProblem's words whether it gives forcing or
    # mms_exact, and a wrong count of ics is a count, not a contradiction.
    fields = {"n": 1, "a": (0.0, 1.0), "order": 0.5, "kernel": lambda t, s: t * s,
              "forcing": lambda t: t, "ics": (0.0,)}
    with pytest.raises(ValueError) as raised:
        FIDEProblem(**{**fields, key: value})
    assert str(raised.value) == message
    path = _write_config(tmp_path, dict(base, **{key: value}))
    code, stdout, stderr = _run(capsys, ["solve", "--config", path, "--N", "4"])
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("key, value", [
    ("mms_exact", [[10**400, 1]]),
    ("a", [0, 10**400]),
    ("alpha", 10**400),
    ("ics", [10**400]),
], ids=("mms_exact", "a", "alpha", "ics"))
def test_integer_beyond_float64_is_config_error(capsys, tmp_path, key, value):
    # JSON integers are unbounded; one that no float64 holds is rejected
    # like any other non-finite number, not raised as OverflowError.
    path = _write_config(tmp_path, dict(_MMS_CONFIG, **{key: value}))
    code, stdout, stderr = _run(capsys, ["solve", "--config", path, "--N", "4"])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "must be finite" in stderr


def test_integer_past_the_digit_limit_is_config_error(capsys, tmp_path):
    # Python refuses to read integer literals of more than 4300 digits;
    # json.load raises a plain ValueError for them, not a JSONDecodeError.
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_MMS_CONFIG).replace('"ics": [0]', '"ics": [' + "9" * 5000 + "]"),
                    encoding="utf-8")
    code, stdout, stderr = _run(capsys, ["solve", "--config", str(path), "--N", "4"])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "cannot be read" in stderr


# ------------------------------------------------------------- convergence


def test_convergence_writes_csv_and_fit(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, _, stderr = _run(capsys, ["convergence", "--example", "5.2",
                                    "--N-sweep", "4:16:4", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,l2_error,max_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["4", "8", "12", "16"]
    l2 = {int(row[0]): float(row[1]) for row in rows}
    np.testing.assert_allclose(
        [l2[4], l2[8], l2[16]],
        [1.333607e-3, 1.599945e-4, 1.953296e-5], rtol=1e-4)
    assert "fitted decay: algebraic" in stderr


def test_convergence_to_an_odd_truncation_prints_the_same_bytes_twice(capsys):
    # N = 17's Legendre rule and the Chebyshev rules of the even N share the
    # node 0.5.  The first sweep runs from an empty table store, the second
    # from a full one.
    from cltau import cltransform
    cltransform._tables.clear()
    argv = ["convergence", "--example", "5.4", "--N-sweep", "4:17:1"]
    first, second = _run(capsys, argv), _run(capsys, argv)
    assert first == second
    code, stdout, _ = first
    assert code == 0
    rows = [line.split(",") for line in stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(n) for n in range(4, 18)]
    example = builtin_example("5.4")
    for row in rows:
        alone = error_norms(solve_fide(example.problem, int(row[0])), example.exact)
        np.testing.assert_allclose([float(row[1]), float(row[2])], alone, rtol=1e-6, atol=1e-14)


@pytest.mark.parametrize("example_id", ["5.1", "5.2", "5.3", "5.4"])
def test_example_and_its_config_print_the_same_bytes(capsys, tmp_path, example_id):
    # --example ID and --config on example_config(ID) pose the same problem
    # with the same exact solution, so stdout and the last stderr line (the
    # solve summary, the fitted decay) match byte for byte.  The printed
    # variant's config has no mms_exact, so only its solve's stdout is
    # compared.
    path = _write_config(tmp_path, example_config(example_id))
    for command in (["solve", "--N", "17"], ["convergence", "--N-sweep", "4:32:4"]):
        code, stdout, stderr = _run(capsys, [*command, "--example", example_id])
        assert code == 0
        assert _run(capsys, [*command, "--config", path]) == (
            0, stdout, stderr.splitlines(keepends=True)[-1]), command
    printed = _write_config(tmp_path, example_config(example_id, "printed"), "printed.json")
    code, stdout, _ = _run(capsys, ["solve", "--N", "17", "--example", example_id,
                                    "--variant", "printed"])
    assert code == 0
    assert _run(capsys, ["solve", "--N", "17", "--config", printed])[:2] == (0, stdout)


def test_convergence_with_every_truncation_failed_exits_three(capsys, monkeypatch):
    # Scaling the solution column of the gesv by 1 + 1e-6 trips the residual
    # gate at every truncation: each gets empty CSV fields and its stderr
    # line, the fit stagnates, and the command exits with the solver code.
    _perturb_the_solution(monkeypatch)
    code, stdout, stderr = _run(capsys, ["convergence", "--example", "5.4",
                                         "--N-sweep", "8:16:8"])
    assert code == 3
    assert stdout == "N,l2_error,max_error\n8,,\n16,,\n"
    note, fit, *failures, last = stderr.splitlines()
    assert note.startswith("note (5.4, corrected forcing)")
    assert fit == "fitted decay: stagnated"
    assert [line.split(" failed: solve residual ")[0] for line in failures] == ["N=8", "N=16"]
    assert last == "solver error: every truncation in the sweep failed"


def test_convergence_reports_resolved_sweep(capsys):
    # 5.4 sits below the 1e-12 floor from N = 12 on, with only N = 4 and 8
    # above it: too few errors to fit, and the sweep is resolved.
    code, _, stderr = _run(capsys, ["convergence", "--example", "5.4",
                                    "--N-sweep", "4:64:4"])
    assert code == 0
    assert "fitted decay: resolved at N=12" in stderr


# |t - s| is integrated exactly by neither N's rules nor N_max's, so below
# N_max a sweep entry is not the standalone solve at its N.
_KINK_CONFIG = {"n": 1, "a": [1, 1], "alpha": 0.5, "kernel": "abs(t - s)",
                "mms_exact": [[1, 2], [1, 3]], "ics": [0]}


def _counting_cli_solves(monkeypatch):
    from cltau import cli
    truncations = []

    def counted(problem, truncation):
        truncations.append(truncation)
        return solve_fide(problem, truncation)

    monkeypatch.setattr(cli, "solve_fide", counted)
    return truncations


def test_convergence_notes_an_entry_that_the_standalone_solve_misses(capsys, tmp_path,
                                                                    monkeypatch):
    # The sweep's N = 8 entry reads 3.25e-5; solve --N 8 errs by 1.07e-4.
    from cltau import cli
    path = _write_config(tmp_path, _KINK_CONFIG)
    argv = ["convergence", "--config", path, "--N-sweep", "8:32:8"]
    solves = _counting_cli_solves(monkeypatch)
    code, stdout, stderr = _run(capsys, argv)
    assert code == 0
    assert solves == [8]
    problem, exact = ProblemConfig.from_dict(_KINK_CONFIG).build()
    entry = float(stdout.splitlines()[1].split(",")[1])
    alone = error_norms(solve_fide(problem, 8), exact)[0]
    assert 3.2e-5 < entry < 3.3e-5 and 1.0e-4 < alone < 1.1e-4
    note, fit = stderr.splitlines()
    assert note == (f"note: at N=8 the sweep reads l2_error={entry:.6e}, but solve --N 8 "
                    f"gives l2_error={alone:.6e}: below N=32 the sweep integrates the kernel "
                    "term on the rules of N=32")
    assert fit == "fitted decay: stagnated, of the sweep entries, not of standalone solves"
    # The CSV keeps its bytes: without the check it is the same text.
    monkeypatch.setattr(cli, "_standalone_gap", lambda *args: None)
    assert _run(capsys, argv) == (0, stdout, "fitted decay: stagnated\n")


@pytest.mark.parametrize("error", [SolverError, ValueError], ids=["solver", "value"])
def test_convergence_notes_a_standalone_solve_that_fails(capsys, tmp_path, monkeypatch, error):
    # A solver gate, or a kernel that is not finite on N0's own rules.
    from cltau import cli

    def failing(problem, truncation):
        raise error(f"gate tripped at truncation {truncation}")

    monkeypatch.setattr(cli, "solve_fide", failing)
    path = _write_config(tmp_path, _KINK_CONFIG)
    code, _, stderr = _run(capsys, ["convergence", "--config", path, "--N-sweep", "8:16:8"])
    assert code == 0
    note, fit = stderr.splitlines()
    assert note.startswith("note: at N=8 the sweep reads l2_error=")
    assert note.endswith(", but solve --N 8 fails (gate tripped at truncation 8): below N=16 "
                         "the sweep integrates the kernel term on the rules of N=16")
    assert fit.endswith(", of the sweep entries, not of standalone solves")


@pytest.mark.parametrize("variant", ["printed", "corrected"])
@pytest.mark.parametrize("example_id", ["5.1", "5.2", "5.3", "5.4"])
def test_catalog_sweeps_match_their_standalone_solves(capsys, monkeypatch, example_id, variant):
    # The catalog's kernels are exact on every rule, so the check runs its
    # one solve and prints nothing.
    solves = _counting_cli_solves(monkeypatch)
    code, _, stderr = _run(capsys, ["convergence", "--example", example_id,
                                    "--variant", variant, "--N-sweep", "4:32:4"])
    assert code == 0
    assert solves == [4]
    assert "note: at N=" not in stderr
    assert "standalone" not in stderr


def test_a_one_truncation_sweep_runs_no_standalone_solve(capsys, tmp_path, monkeypatch):
    solves = _counting_cli_solves(monkeypatch)
    path = _write_config(tmp_path, _KINK_CONFIG)
    code, _, stderr = _run(capsys, ["convergence", "--config", path, "--N-sweep", "8:8:1"])
    assert code == 0
    assert solves == []
    assert stderr == "fitted decay: stagnated\n"


def test_convergence_requires_exact_solution(capsys, tmp_path):
    path = _write_config(tmp_path, _FORCING_CONFIG)
    code, _, stderr = _run(capsys, ["convergence", "--config", path,
                                    "--N-sweep", "4:8:2"])
    assert code == 2
    assert "needs a known exact solution" in stderr


def test_convergence_rejects_sweep_below_order(capsys):
    code, _, stderr = _run(capsys, ["convergence", "--example", "5.1",
                                    "--N-sweep", "0:0:1"])
    assert code == 2
    assert "below" in stderr


def test_convergence_rejects_malformed_sweep(capsys):
    code, _, stderr = _run(capsys, ["convergence", "--example", "5.1",
                                    "--N-sweep", "4-8-2"])
    assert code == 2
    assert "FROM:TO:STEP" in stderr


# ---------------------------------------------------------------- opmatrix


def test_opmatrix_integer_order_rows(capsys):
    code, stdout, _ = _run(capsys, ["opmatrix", "--alpha", "1", "--N", "2"])
    assert code == 0
    assert stdout.splitlines() == ["0,0,0", "2,0,0", "0,6,0"]


def test_opmatrix_rejects_nonpositive_order(capsys):
    # operational_matrix(0, N) is the identity, but the command asks for a
    # derivative order > 0.
    for alpha in ("-1", "0"):
        code, stdout, stderr = _run(capsys, ["opmatrix", "--alpha", alpha, "--N", "2"])
        assert code == 2, alpha
        assert "error:" in stderr and stdout == "", alpha


# ---------------------------------------------------------------- examples


def test_examples_lists_catalog(capsys):
    code, stdout, _ = _run(capsys, ["examples"])
    assert code == 0
    for example_id in ("5.1", "5.2", "5.3", "5.4"):
        assert any(line.startswith(example_id) for line in stdout.splitlines())
    assert "variants:" in stdout


def test_unknown_subcommand_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
