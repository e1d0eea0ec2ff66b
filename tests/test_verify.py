"""Oracle-judged cases of ``cpoch.verify`` catch a wrong program.

A correct program passes every case, the three ``*_as_stated`` ones
included; a program whose E or rho is off fails them, although the
published bounds are refuted either way.  A wrong groupoid recurrence,
which now also builds St, fails the cases that judge it against the
forward-substitution oracle.  Cases that walk the same grid share its
values, so each rho, groupoid cell and partial sum is computed once.

Each suite with a mutation or a call count runs once more, patched, and
every test of that suite reads that one run.  Sharing it is sound.  The
analogue2 patches rebind ``E_series`` and ``rho`` in ``cpoch.verify`` only,
so ``cpoch.rho.rho`` still calls the exact ``cpoch.rho.E_series`` and each
wrong value reaches only the cases that call it from verify.  A patched run
starts from and leaves an empty store of exact tables, so the wrong
recurrence builds every table it judges and no other test reads them.  The
verify grids are fixed, so a call count does not depend on the values
returned.
"""

from dataclasses import replace

import pytest

import cpoch.rtilde
import cpoch.verify
from cpoch.verify import SUITE_NAMES, run_suite
from conftest import empty_exact_tables

def _off_E_series(exact):
    def off(x, z, tol=1e-10):
        result = exact(x, z, tol)
        return replace(result, value=result.value * (1 + 1e-9))
    return off


def _off_rho(exact):
    return lambda *args: 0.7 * exact(*args)


def _off_groupoid_prefix(exact):
    def off(k, m, start=((1, 0),)):
        column = exact(k, m, start)
        if len(start) <= 2 <= m:
            even, odd = column[2]
            column = column[:2] + ((even + 1, odd),) + column[3:]
        return column
    return off


#: suite -> the (module, name, wrong version) patches of its patched run
MUTATIONS = {
    "analogue2": ((cpoch.verify, "E_series", _off_E_series), (cpoch.verify, "rho", _off_rho)),
    "analogue1": ((cpoch.rtilde, "_groupoid_prefix", _off_groupoid_prefix),),
    "kernel": (),
}
#: suite -> the name in ``cpoch.verify`` whose calls its patched run counts, and the count
GRID_CALLS = {
    "analogue2": ("rho", 272),
    "analogue1": ("groupoid_cardinalities", 325),
    "kernel": ("e_partial_sum", 150),
}


@pytest.fixture(scope="module")
def patched_run():
    """Case verdicts and counted calls of each suite's one patched run."""
    runs = {}

    def run(suite: str) -> tuple[dict[str, bool], int]:
        if suite not in runs:
            seen = []
            with pytest.MonkeyPatch.context() as patch:
                for module, name, wrong in MUTATIONS[suite]:
                    patch.setattr(module, name, wrong(getattr(module, name)))
                counted_name = GRID_CALLS[suite][0]
                exact = getattr(cpoch.verify, counted_name)

                def counted(*args):
                    seen.append(args)
                    return exact(*args)

                patch.setattr(cpoch.verify, counted_name, counted)
                empty_exact_tables()
                try:
                    report = run_suite(suite)
                finally:
                    empty_exact_tables()
            runs[suite] = {c.case_id: c.passed for c in report.cases}, len(seen)
        return runs[suite]

    return run


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_case_passes(verify_cases, suite):
    verify_cases.check(suite)


def test_E_series_error_fails_linear_envelope_case(patched_run):
    verdicts, _ = patched_run("analogue2")
    assert not verdicts["linear_envelope_as_stated"]


def test_rho_error_fails_rho_envelope_case(patched_run):
    verdicts, _ = patched_run("analogue2")
    assert not verdicts["rho_envelope_as_stated"]


def test_groupoid_recurrence_error_fails_oracle_cases(patched_run):
    verdicts, _ = patched_run("analogue1")
    assert not verdicts["groupoid_identity"]
    assert not verdicts["st_vs_forward_substitution"]


@pytest.mark.parametrize("suite,name,calls", [
    (suite, name, calls) for suite, (name, calls) in GRID_CALLS.items()
])
def test_each_grid_value_computed_once(patched_run, suite, name, calls):
    _, seen = patched_run(suite)
    assert seen == calls
