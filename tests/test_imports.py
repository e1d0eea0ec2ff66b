"""The import graph: numpy, scipy and mpmath stay off every runtime path.

``rho``, ``E_series``, the coefficient table and the Gauss rules are built
from float literals and pure Python, and adaptive quadrature (``E``, ``nu``,
``mu``) is a pure-Python QAGS, so no evaluation loads any of the three.
Only the verify suites load a package: mpmath, for their high-precision
oracles.

The runtime snippets run one after another in one fresh interpreter, so
modules this test session has already imported cannot leak into
``sys.modules``; the heavy packages loaded are read after each snippet.
Modules never unload, so a snippet that loads one fails at that snippet, or
at an earlier one that loaded it first.  The verify suite, which must load
mpmath, runs in an interpreter of its own.
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

#: Snippets on runtime paths, run in this order; none may load a HEAVY package.
RUNTIME = {
    "import_cpoch": "import cpoch",
    "import_cli": "import cpoch.cli",
    "eval_gamma": CLI + "assert CliRunner().invoke(main, ['eval', 'gamma', '--z', '3']).output == '2\\n'",
    "table_rtilde": CLI + "assert CliRunner().invoke(main, ['table', 'rtilde', '--max-n', '10']).exit_code == 0",
    "exact_layer": "from fractions import Fraction\n"
    "from cpoch import pochhammer_discrete, rtilde_triangle\n"
    "rtilde_triangle(48)\n"
    "assert pochhammer_discrete(Fraction(1, 3), Fraction(2, 5), 7) > 0",
    "c_table": "from cpoch import c_table\nc_table()",
    "rho": "from cpoch import rho\nrho(4.59, 1.06, 17.99)",
    "E_series": "from cpoch import E_series\nE_series(2.0, 29.0)",
    "gaussian_expectation": "from cpoch import gaussian_expectation\ngaussian_expectation(1.0, 5)",
    "eval_rho": CLI + "out = CliRunner().invoke(main, ['eval', 'rho', '--x', '2', '--y', '0.5', '--z', '4.5'])\n"
    "assert out.output == '87.625917008015605\\n'",
    "E_quadrature": "from cpoch import E_quadrature\nE_quadrature(2.0, 5.0)",
    "nu": "from cpoch import nu\nnu(1.0)",
    "mu_function": "from cpoch import mu_function\nmu_function(2.0, 1.0, 0.5)",
    "eval_nu": CLI + "out = CliRunner().invoke(main, ['eval', 'nu', '--x', '1'])\n"
    "assert out.output == '2.2665345076998493\\n'",
}

#: Runs each (name, snippet) of argv[1] in order and prints a report per name.
_SEQUENCE = f"""
import json, sys
report = {{}}
for name, code in json.loads(sys.argv[1]):
    try:
        exec(code, {{}})
        error = None
    except Exception as exc:
        error = repr(exc)
    report[name] = [error, [m for m in {HEAVY!r} if m in sys.modules]]
print(json.dumps(report))
"""


def _fresh_report(snippets: list) -> dict:
    """name -> [error or None, heavy packages then loaded], from one fresh interpreter."""
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", _SEQUENCE, json.dumps(snippets)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runtime_report() -> dict:
    return _fresh_report(list(RUNTIME.items()))


@pytest.mark.parametrize("name", list(RUNTIME))
def test_exact_layer_and_cold_cli_load_none(runtime_report, name):
    assert runtime_report[name] == [None, []]


@pytest.mark.parametrize("code, loaded", [
    ("from cpoch.verify import run_suite\nrun_suite('recip')", "mpmath"),
], ids=["verify_recip"])
def test_first_use_loads_the_package(code, loaded):
    error, heavy = _fresh_report([["first_use", code]])["first_use"]
    assert error is None and loaded in heavy
