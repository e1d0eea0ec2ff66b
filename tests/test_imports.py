"""The import graph: numpy, scipy and mpmath stay off every runtime path.

``rho``, ``E_series``, the coefficient table and the Gauss rules are built
from float literals and pure Python, and adaptive quadrature (``E``, ``nu``,
``mu``) is a pure-Python QAGS, so no evaluation loads any of the three.
Only the verify suites load a package: mpmath, for their high-precision
oracles.

Each check runs in a fresh interpreter, so modules this test session has
already imported cannot leak into ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpoch

HEAVY = ("mpmath", "numpy", "scipy")
SRC = str(Path(cpoch.__file__).resolve().parent.parent)

CLI = "from click.testing import CliRunner\nfrom cpoch.cli import main\n"


def _heavy_loaded_after(code: str) -> list[str]:
    """The heavy packages in sys.modules after a fresh interpreter runs code."""
    report = f"\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", code + report], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import cpoch",
    "import cpoch.cli",
    CLI + "assert CliRunner().invoke(main, ['eval', 'gamma', '--z', '3']).output == '2\\n'",
    CLI + "assert CliRunner().invoke(main, ['table', 'rtilde', '--max-n', '10']).exit_code == 0",
    "from fractions import Fraction\n"
    "from cpoch import pochhammer_discrete, rtilde_triangle\n"
    "rtilde_triangle(48)\n"
    "assert pochhammer_discrete(Fraction(1, 3), Fraction(2, 5), 7) > 0",
    "from cpoch import c_table\nc_table()",
    "from cpoch import rho\nrho(4.59, 1.06, 17.99)",
    "from cpoch import E_series\nE_series(2.0, 29.0)",
    "from cpoch import gaussian_expectation\ngaussian_expectation(1.0, 5)",
    CLI + "out = CliRunner().invoke(main, ['eval', 'rho', '--x', '2', '--y', '0.5', '--z', '4.5'])\n"
    "assert out.output == '87.625917008015605\\n'",
    "from cpoch import E_quadrature\nE_quadrature(2.0, 5.0)",
    "from cpoch import nu\nnu(1.0)",
    "from cpoch import mu_function\nmu_function(2.0, 1.0, 0.5)",
    CLI + "out = CliRunner().invoke(main, ['eval', 'nu', '--x', '1'])\n"
    "assert out.output == '2.2665345076998493\\n'",
], ids=["import_cpoch", "import_cli", "eval_gamma", "table_rtilde", "exact_layer",
        "c_table", "rho", "E_series", "gaussian_expectation", "eval_rho",
        "E_quadrature", "nu", "mu_function", "eval_nu"])
def test_exact_layer_and_cold_cli_load_none(code):
    assert _heavy_loaded_after(code) == []


@pytest.mark.parametrize("code, loaded", [
    ("from cpoch.verify import run_suite\nrun_suite('recip')", "mpmath"),
], ids=["verify_recip"])
def test_first_use_loads_the_package(code, loaded):
    assert loaded in _heavy_loaded_after(code)
