"""The input contract: finite real arguments in, a value or a refusal out.

Every public function of the five numerical modules that takes a float
refuses nan, +inf and -inf in each float argument, ``tol`` included, with
a ValueError that names the function and the argument, before any long
loop.  The one exception is E's upper limit z = +inf, which is nu.  The
entries are enumerated from each module's ``__all__``, so a new float entry
without a row in ``VALID`` fails here.  ``cpoch eval`` turns each refusal
into exit 2.
"""

import importlib
import inspect
import math
import re

import pytest
from click.testing import CliRunner

from cpoch.cli import EVAL_TARGETS, main
from cpoch.rho import nu

# by import_module: the package's own ``rho`` is the function
MODULES = tuple(importlib.import_module(f"cpoch.{name}")
                for name in ("gammafns", "recip_gamma", "quadrature", "rho", "rtilde"))

#: In-domain float arguments of every public float entry; each call with
#: them returns at once.
VALID = {
    "gamma": {"z": 2.5},
    "regularized_q": {"z": 2.5, "x": 1.5, "tol": 1e-10},
    "log_e_partial": {"z": 2.5, "x": 1.5},
    "e_partial_sum": {"n": 5, "x": 1.5},
    "e_partial": {"z": 5.0, "x": 1.5},
    "gamma_y": {"y": 2.0, "x": 3.0},
    "pochhammer_continuous": {"x": 1.5, "y": 0.5, "z": 6.25},
    "recip_gamma_series": {"t": 0.5},
    "weighted_series_coeffs": {"x": 2.0},
    "QuadratureRequest": {"integrand": math.exp, "lower": 0.0, "upper": 1.0, "tolerance": 1e-10},
    "integrate_simplex": {"k": 2, "x": 1.5, "moment": True},
    "E_series": {"x": 2.0, "z": 4.5, "tol": 1e-10},
    "E_quadrature": {"x": 2.0, "z": 4.5, "tol": 1e-10},
    "nu_cutoff": {"x": 2.0, "tol": 1e-10},
    "nu": {"x": 2.0, "tol": 1e-10},
    "mu_function": {"x": 2.0, "beta": 1.0, "alpha": 0.5, "tol": 1e-10},
    "rho": {"x": 2.0, "y": 0.5, "z": 4.5, "tol": 1e-10},
    "E_deriv_z": {"x": 2.0, "z": 1.5, "k": 1},
    "rtilde_poly": {"x": 1.5, "y": 0.5, "n": 6},
    "rtilde_closed": {"x": 1.5, "y": 0.5, "n": 6},
    "rtilde_ext": {"x": 1.5, "y": 0.5, "z": 6.25},
    "rtilde_series_lower": {"x": 1.5, "y": 0.5, "z": 6.25},
    "rtilde_series_upper": {"x": 1.5, "y": 0.5, "z": 6.25},
    "cosh_truncated": {"n": 4, "u": 0.5},
    "gaussian_expectation": {"y": 0.5, "n": 4},
}

#: nu(x) is E_quadrature(x, inf): its engine checks x and tol under its own name.
REFUSED_AS = {"nu": "E_quadrature"}

NON_FINITE = (math.nan, math.inf, -math.inf)


def _float_entries():
    """(name, function, float parameter names) of every public float entry."""
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            params = inspect.signature(obj).parameters.values()
            floats = [p.name for p in params if p.annotation in ("float", float)]
            if floats:
                yield name, obj, floats


ENTRIES = sorted(_float_entries(), key=lambda entry: entry[0])
FUNCTIONS = {name: function for name, function, _ in ENTRIES}
CASES = [(name, arg) for name, _, floats in ENTRIES for arg in floats]


def test_every_entry_has_valid_arguments():
    found = {name: floats for name, _, floats in ENTRIES}
    assert set(found) == set(VALID)
    for name, floats in found.items():
        assert set(floats) <= set(VALID[name]), name


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_are_in_the_domain(name, bounded):
    FUNCTIONS[name](**VALID[name])


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name, arg", CASES)
def test_non_finite_argument_is_refused(name, arg, value, bounded):
    function = FUNCTIONS[name]
    arguments = {**VALID[name], arg: value}
    if name in ("E_series", "E_quadrature") and arg == "z" and value == math.inf:
        # E(x, inf) = nu(x): the quadrature engine is nu's, bit for bit
        result = function(**arguments)
        expected = nu(arguments["x"], arguments["tol"])
        if name == "E_quadrature":
            assert result == expected
        else:
            assert result.converged and abs(result.value - expected) <= 1e-12 * expected
        return
    with pytest.raises(ValueError) as refusal:
        function(**arguments)
    message = str(refusal.value)
    assert REFUSED_AS.get(name, name) in message
    assert re.search(rf"\b{arg}\b", message), message


# --- cpoch eval -------------------------------------------------------------

#: In-domain options of every eval target; the tolerance joins where the
#: target passes it on (the others take no tolerance and ignore --tol).
CLI_VALID = {
    "r": {"x": "1.5", "y": "0.5", "z": "6"},
    "r-cont": {"x": "1.5", "y": "0.5", "z": "6.25"},
    "rtilde": {"x": "1.5", "y": "0.5", "z": "6"},
    "rtilde-ext": {"x": "1.5", "y": "0.5", "z": "6.25"},
    "rho": {"x": "2", "y": "0.5", "z": "4.5", "tol": "1e-10"},
    "E": {"x": "2", "z": "4.5", "tol": "1e-10"},
    "nu": {"x": "2", "tol": "1e-10"},
    "mu": {"x": "2", "beta": "1", "alpha": "0.5", "tol": "1e-10"},
    "gamma": {"z": "3"},
    "gamma-y": {"x": "3", "y": "2"},
    "Q": {"z": "5.5", "x": "3", "tol": "1e-10"},
}

CLI_CASES = [(target, option) for target, options in CLI_VALID.items() for option in options]


def _argv(target, options):
    return ["eval", target, *(part for k, v in options.items() for part in (f"--{k}", v))]


def test_every_target_has_valid_options():
    assert set(CLI_VALID) == set(EVAL_TARGETS)
    for target, (required, optional, _) in EVAL_TARGETS.items():
        assert set(CLI_VALID[target]) - {"tol"} == set(required + optional), target
    result = CliRunner().invoke(main, _argv("E", CLI_VALID["E"]))
    assert result.exit_code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("target, option", CLI_CASES)
def test_non_finite_option_is_usage_error(target, option, value, bounded):
    result = CliRunner().invoke(main, _argv(target, {**CLI_VALID[target], option: value}))
    if (target, option, value) == ("E", "z", "inf"):
        nu_result = CliRunner().invoke(main, _argv("nu", CLI_VALID["nu"]))
        assert result.exit_code == 0
        assert result.stdout == nu_result.stdout
        return
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
