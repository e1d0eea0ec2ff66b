"""Oracle-judged cases of ``cpoch.verify`` catch a wrong program.

A correct program passes the three ``*_as_stated`` cases; a program whose E
or rho is off fails them, although the published bounds are refuted either
way.  A wrong groupoid recurrence, which now also builds St, fails the cases
that judge it against the forward-substitution oracle.  Cases that walk the
same grid share its values, so each rho, groupoid cell and partial sum is
computed once.
"""

from dataclasses import replace

import pytest

import cpoch.rtilde
import cpoch.verify
from cpoch.verify import run_suite

AS_STATED = (
    "linear_envelope_as_stated",
    "rho_envelope_as_stated",
    "rho_ratio_envelope_as_stated",
)


def _analogue2_verdicts() -> dict[str, bool]:
    return {c.case_id: c.passed for c in run_suite("analogue2").cases}


@pytest.mark.parametrize("case_id", AS_STATED)
def test_as_stated_cases_pass_on_correct_program(verify_cases, case_id):
    verify_cases.check(f"analogue2/{case_id}")


def test_E_series_error_fails_linear_envelope_case(monkeypatch):
    exact = cpoch.verify.E_series

    def off(x, z, tol=1e-10):
        result = exact(x, z, tol)
        return replace(result, value=result.value * (1 + 1e-9))

    monkeypatch.setattr(cpoch.verify, "E_series", off)
    assert not _analogue2_verdicts()["linear_envelope_as_stated"]


def test_rho_error_fails_rho_envelope_case(monkeypatch):
    exact = cpoch.verify.rho
    monkeypatch.setattr(cpoch.verify, "rho", lambda *args: 0.7 * exact(*args))
    assert not _analogue2_verdicts()["rho_envelope_as_stated"]


def test_groupoid_recurrence_error_fails_oracle_cases(monkeypatch):
    exact = cpoch.rtilde._groupoid_prefix

    def off(k, m):
        even, odd = exact(k, m)
        if m >= 2:
            even[2] += 1
        return even, odd

    monkeypatch.setattr(cpoch.rtilde, "_groupoid_prefix", off)
    verdicts = {c.case_id: c.passed for c in run_suite("analogue1").cases}
    assert not verdicts["groupoid_identity"]
    assert not verdicts["st_vs_forward_substitution"]


@pytest.mark.parametrize("suite,name,calls", [
    ("analogue2", "rho", 272),
    ("analogue1", "groupoid_cardinalities", 325),
    ("kernel", "e_partial_sum", 150),
])
def test_each_grid_value_computed_once(monkeypatch, suite, name, calls):
    exact = getattr(cpoch.verify, name)
    seen = []

    def counted(*args):
        seen.append(args)
        return exact(*args)

    monkeypatch.setattr(cpoch.verify, name, counted)
    run_suite(suite)
    assert len(seen) == calls
