"""Property test of the command line's exit-code contract.

Configs are drawn from pools that reach the float range's edges: huge and
tiny coefficients, kernels and forcings that overflow, Caputo orders far
above the classical order.  Whatever the draw, ``cltau.cli.main`` must
return 0 with finite numbers on stdout, 2 with an ``error:`` message, or 3
with a ``solver error:`` message, and no RuntimeWarning may escape (the
suite's filter turns one into a failure).
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cltau.cli import main

_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, 1e300, -1e300, 1e-300, 2.0 ** 53]),
    st.floats(-10.0, 10.0))
_KERNELS = ["t*s", "exp(t - s)", "1/(1 + 400*(t - s)^2)", "abs(t - s)", "1e200*t*s",
            "exp(700*t*s)", "gamma(t + s)", "sqrt(s)*t^2", "0*t*s", "ln(1 + t*s)",
            "1e-300*t*s", "t^2*s^2"]
_FORCINGS = ["1", "sqrt(t)", "1e10*sqrt(t)", "exp(t)", "1e308", "t^3 - t", "gamma(t + 1)",
             "1e-300"]
_EXPONENTS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 1.5, 2.5, 3.5]
_COMMANDS = [["solve", "--N", str(n)] for n in (1, 4, 7, 16)] + [
    ["convergence", "--N-sweep", "1:13:4"]]


def _consistent_ics(terms, n: int) -> list[float]:
    """y^(i)(0) of sum q x^p: i! q summed over the terms with p == i."""
    return [math.factorial(i) * sum(q for q, p in terms if p == i) for i in range(n)]


@st.composite
def _configs(draw) -> dict:
    n = draw(st.sampled_from([1, 2, 3, 6]))
    config = {"n": n, "a": draw(st.lists(_NUMBERS, min_size=n + 1, max_size=n + 1)),
              "alpha": draw(st.sampled_from([1e-9, 0.5, 1.0, 1.5, 2.5, 3.5, 7.3])),
              "kernel": draw(st.sampled_from(_KERNELS))}
    if draw(st.booleans()):
        config["forcing"] = draw(st.sampled_from(_FORCINGS))
        config["ics"] = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
    else:
        terms = draw(st.lists(st.tuples(_NUMBERS, st.sampled_from(_EXPONENTS)),
                              min_size=1, max_size=3))
        config["mms_exact"] = [list(term) for term in terms]
        config["ics"] = _consistent_ics(terms, n)
    return config


def _numbers(stdout: str) -> list[float]:
    """The numbers of a solution's JSON or of a sweep's CSV (failed entries empty)."""
    if stdout.startswith("{"):
        payload = json.loads(stdout, parse_constant=float)
        return [float(v) for v in [payload["N"], payload["condition_estimate"],
                                   *payload["legendre_coeffs"]]]
    return [float(v) for line in stdout.splitlines()[1:] for v in line.split(",") if v]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(config=_configs(), command=st.sampled_from(_COMMANDS))
def test_every_config_exits_zero_two_or_three_without_a_warning(config_path, config, command):
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + ["--config", str(config_path)])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (code, stderr)
    if code == 0:
        assert all(math.isfinite(v) for v in _numbers(stdout)), stdout
    elif code == 2:
        assert stderr.startswith("error:"), stderr
    else:
        assert stderr.startswith("solver error:"), stderr
