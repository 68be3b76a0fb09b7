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

from cltau.cli import ProblemConfig, main
from cltau.solver import builtin_example, solve_fide

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
    assert resolved["N"] == 8
    code, _, _ = _run(capsys, ["solve", "--config", str(emitted),
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
    assert "no truncation" in stderr


def test_solve_singular_system_exits_three(capsys, tmp_path):
    path = _write_config(tmp_path, _SINGULAR_CONFIG)
    code, _, stderr = _run(capsys, ["solve", "--config", path, "--N", "4"])
    assert code == 3
    assert stderr.startswith("solver error:")


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


def test_convergence_uses_config_sweep(capsys, tmp_path):
    payload = dict(_MMS_CONFIG)
    payload["N_sweep"] = {"from": 4, "to": 8, "step": 2}
    path = _write_config(tmp_path, payload)
    code, stdout, _ = _run(capsys, ["convergence", "--config", path])
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "N,l2_error,max_error"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "6", "8"]


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
    code, _, stderr = _run(capsys, ["opmatrix", "--alpha", "-1", "--N", "2"])
    assert code == 2
    assert "error:" in stderr


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
