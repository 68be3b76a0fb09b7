"""Package-wide properties: the one table store is bounded, every exported name is
used by the package or a demo, every private name the README cites exists,
and numpy is the only runtime dependency: the package imports without
mpmath and solves without scipy (both test-only dependencies).  The CLI
loads the expression parser only to compile a config's expressions, and at
a fixed BLAS thread count the same invocation prints the same bytes."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import cltau
from cltau import cltransform, fracderiv, orthopoly, quadrature

_MODULES = ("cli", "cltransform", "exprlang", "fracderiv", "orthopoly", "quadrature", "solver")


def test_every_lru_cache_is_bounded(monkeypatch):
    # No lru_cache is left: every reused table goes through the one store,
    # whose budget is finite bytes, and every entry counts as at least
    # 1/512 of it, so no more than 512 entries are ever held.
    stored, lookup = set(), cltransform._legendre_projection.__code__
    for name in _MODULES:
        module = importlib.import_module(f"cltau.{name}")
        assert "lru_cache" not in Path(module.__file__).read_text(encoding="utf-8")
        for attr, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{name}.{attr}"
            # Counted where defined, not again where imported.
            if getattr(value, "__code__", None) is lookup and value.__module__ == module.__name__:
                stored.add(f"{name}.{attr}")
    assert {"cltransform._legendre_projection", "solver._caputo_quadrature",
            "solver._singular_rule", "solver._error_grid", "solver._integral_rows",
            "solver._error_table"} == stored
    assert isinstance(cltransform._TABLE_BYTES, int) and 0 < cltransform._TABLE_BYTES < 2**40
    monkeypatch.setattr(cltransform, "_tables", OrderedDict())
    tiny = cltransform._stored(lambda key: (np.zeros(1),))
    for key in range(600):
        tiny(key)
    assert len(cltransform._tables) == 512
    assert [args for _, args in cltransform._tables] == [(key,) for key in range(88, 600)]


# Every entry point that takes a size or degree, reduced to an array.
_SIZED = {
    "legendre_gauss_rule": lambda n: quadrature.legendre_gauss_rule(n)[0],
    "jacobi_gauss_rule": lambda n: quadrature.jacobi_gauss_rule(n, 0.5)[0],
    "shifted_legendre_table": lambda n: orthopoly.shifted_legendre_table(n, [0.25, 0.5]),
    "operational_matrix": lambda n: fracderiv.operational_matrix(1, n),
    "chebyshev_interpolate": lambda n: cltransform.chebyshev_interpolate(np.exp, n),
}


@pytest.mark.parametrize("entry", sorted(_SIZED))
def test_sizes_and_degrees_are_integers_never_bools(entry):
    # One rule everywhere: an int or numpy integer, never a bool.  The
    # check runs before any cache lookup, and the call with 1 comes first
    # so that a cache keyed on 1 would hand back its entry for True.
    call = _SIZED[entry]
    reference = call(1)
    np.testing.assert_array_equal(call(np.int64(1)), reference)
    for bad in (True, False, 1.0, -1):
        with pytest.raises(ValueError, match="non-negative integer"):
            call(bad)


def test_every_exported_name_is_used_outside_the_tests():
    # A name in a module's __all__ must be loaded, read as an attribute or
    # imported by name somewhere in the package or the demos; a name only
    # the tests call belongs in the tests.
    root = Path(cltau.__file__).resolve().parent
    used = set()
    for path in [*root.glob("*.py"), *(root.parent.parent / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{name}.{attr}" for name in _MODULES
              for attr in importlib.import_module(f"cltau.{name}").__all__ if attr not in used]
    assert not unused


def test_every_private_name_the_readme_cites_exists():
    # The README cites private helpers as `module._name`; a helper renamed
    # or removed under a stale README fails here.
    readme = (Path(cltau.__file__).resolve().parent.parent.parent / "README.md").read_text(
        encoding="utf-8")
    cited = [(name, attr) for name, attr in re.findall(r"`(\w+)\.(_\w+)`", readme)
             if name in _MODULES]
    assert cited
    missing = [f"{name}.{attr}" for name, attr in cited
               if not hasattr(importlib.import_module(f"cltau.{name}"), attr)]
    assert not missing


def _run_fresh(code: str, **environ: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that finds this checkout's cltau,
    with the environment variables `environ` set on top of this one's."""
    env = dict(os.environ, PYTHONPATH=str(Path(cltau.__file__).resolve().parent.parent),
               **environ)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_import_without_mpmath():
    # A None entry in sys.modules makes any `import mpmath` raise ImportError.
    result = _run_fresh("import sys; sys.modules['mpmath'] = None; "
                        "import cltau, cltau.cli; "
                        "print(cltau.fracderiv.operational_matrix(0.5, 4)[1, 0])")
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) > 1.5


def test_cli_solves_without_scipy():
    result = _run_fresh("import sys; sys.modules['scipy'] = None; "
                        "import cltau.cli; "
                        "sys.exit(cltau.cli.main(['solve', '--example', '5.4', '--N', '16']))")
    assert result.returncode == 0, result.stderr
    assert '"legendre_coeffs"' in result.stdout


def test_cli_import_loads_no_scipy():
    # Nor the expression parser, which only an expression's text needs: not
    # at import, not for a solve of a corrected catalog example, and not to
    # list the catalog; a printed example parses its forcing when built.
    loaded = ("print(sorted(m for m in sys.modules if m.startswith('scipy') "
              "or m == 'cltau.exprlang'))")
    printed = ("problem = cltau.solver.builtin_example('5.2', 'printed').problem; "
               "problem.kernel(0.5, 0.5); ")
    for solve, modules in (("", "[]"),
                           ("cltau.cli.main(['solve', '--example', '5.4', '--N', '16']); ", "[]"),
                           ("cltau.cli.main(['examples']); ", "[]"),
                           (printed, "['cltau.exprlang']"),
                           (printed + "problem.forcing(0.5); ", "['cltau.exprlang']")):
        result = _run_fresh("import sys, cltau.cli; " + solve + loaded)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == modules, solve


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_prints_the_same_bytes_at_a_fixed_blas_thread_count(threads):
    # Only at a fixed count: at N = 96 one and two BLAS threads can print
    # different last digits, so nothing is compared across counts.
    code = ("import sys, cltau.cli; "
            "sys.exit(cltau.cli.main(['solve', '--example', '5.2', '--N', '96']))")
    first, second = (_run_fresh(code, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
                     for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert '"legendre_coeffs"' in first.stdout
    assert (first.stdout, first.stderr) == (second.stdout, second.stderr)


def test_module_entry_reports_a_non_finite_solution_as_a_solver_error(tmp_path):
    # The exit-code contract outside pytest's warning filter: a solve whose
    # gesv overflows exits 3 before any RuntimeWarning can be raised.
    config = tmp_path / "non_finite.json"
    config.write_text('{"n": 1, "a": [0, 1e-300], "alpha": 0.5, "kernel": "1e-300*t*s", '
                      '"forcing": "1e10*sqrt(t)", "ics": [0]}', encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cltau.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "cltau.cli",
                             "solve", "--config", str(config), "--N", "8"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("solver error:")


_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[path.stem for path in _DEMOS])
def test_demo_runs_without_a_runtime_warning(demo):
    # The demos print condition estimates, errors and residuals of the solve
    # path; a RuntimeWarning (overflow, invalid value) fails them.
    env = dict(os.environ, PYTHONPATH=str(Path(cltau.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
