"""Package-wide properties: every cache is bounded, and the package imports
without mpmath (a test-only dependency)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import cltau

_MODULES = ("cli", "cltransform", "exprlang", "fracderiv", "orthopoly", "quadrature", "solver")


def test_every_lru_cache_is_bounded():
    cached = {}
    for name in _MODULES:
        module = importlib.import_module(f"cltau.{name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                cached[f"{name}.{attr}"] = value.cache_info().maxsize
    assert {"fracderiv._operational_entries", "quadrature.legendre_gauss_rule",
            "quadrature.chebyshev_gauss_rule", "cltransform.transform_pair",
            "solver._caputo_quadrature"} <= set(cached)
    unbounded = [name for name, maxsize in cached.items() if maxsize is None]
    assert not unbounded


def test_import_without_mpmath():
    # A None entry in sys.modules makes any `import mpmath` raise ImportError.
    code = ("import sys; sys.modules['mpmath'] = None; "
            "import cltau, cltau.cli; "
            "print(cltau.operational_matrix(0.5, 4).entries[1, 0])")
    env = dict(os.environ, PYTHONPATH=str(Path(cltau.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) > 1.5
