"""Shared fixture: the verify suites, run once per session, looked up by case id or suite.

Every property check is defined once, in ``cpoch.verify``; a test that
asserts such a property names the case as ``suite/case_id`` instead of
restating its inputs, formula and threshold.  ``empty_exact_tables`` lets a
test build the process-wide exact tables from nothing, and ``bounded``
fails a call that would hang the session.
"""

import signal
import time

import pytest

import cpoch.discrete
import cpoch.rtilde
from cpoch.verify import CaseResult, VerificationReport, run_suite


SECONDS = 5  # a refusal comes before any loop; a hang fails instead of stalling the run


@pytest.fixture
def bounded():
    """Fail a call that runs past SECONDS instead of hanging the session."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: The memoised functions that hold the exact tables.
EXACT_TABLE_CACHES = (
    cpoch.rtilde._column,
    cpoch.rtilde._groupoid_cell,
    cpoch.rtilde._triangle_row,
    cpoch.discrete._stirling_rows,
)


def empty_exact_tables() -> None:
    """Forget every held groupoid column and cell, rtilde triangle row and Stirling row."""
    for cache in EXACT_TABLE_CACHES:
        cache.cache_clear()


class SuiteCases:
    """Runs each verify suite on first use and keeps its report and wall time."""

    def __init__(self):
        self._reports = {}
        self._seconds = {}

    def report(self, suite: str) -> VerificationReport:
        """The suite's report from its one run this session."""
        if suite not in self._reports:
            start = time.perf_counter()
            self._reports[suite] = run_suite(suite)
            self._seconds[suite] = time.perf_counter() - start
        return self._reports[suite]

    def seconds(self, suite: str) -> float:
        """Wall time of the suite's one run."""
        self.report(suite)
        return self._seconds[suite]

    def cases(self, *refs: str, **inputs) -> list[CaseResult]:
        """The cases named ``suite/case_id``, or all of ``suite``, narrowed to the given inputs."""
        found = []
        for ref in refs:
            suite, _, case_id = ref.partition("/")
            matches = [
                c for c in self.report(suite).cases
                if case_id in ("", c.case_id) and all(c.inputs.get(k) == v for k, v in inputs.items())
            ]
            assert matches, f"verify has no case {ref} with inputs {inputs}"
            found.extend(matches)
        return found

    def check(self, *refs: str, **inputs) -> None:
        """Assert that every named case passes; the message carries actual and residual."""
        failed = [self.describe(c) for c in self.cases(*refs, **inputs) if not c.passed]
        assert not failed, "; ".join(failed)

    @staticmethod
    def describe(case: CaseResult) -> str:
        inputs = ", ".join(f"{k}={v}" for k, v in case.inputs.items())
        return (
            f"{case.suite}/{case.case_id} ({inputs}): expected {case.expected}, "
            f"actual {case.actual}, residual {case.residual:.3g}"
        )


@pytest.fixture(scope="session")
def verify_cases() -> SuiteCases:
    return SuiteCases()
