"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 times the CLI.  Every other criterion is a set of
``cpoch.verify`` cases, named here by ``suite/case_id`` and run once per
session by the ``verify_cases`` fixture; their inputs, formulas and
thresholds are defined in ``cpoch.verify`` only.  The time bounds of
criteria 2 and 3 apply to the whole discrete suite, which contains their
checks.

Criterion 12 is split by bound family.  The linear and the rho envelopes
are published on the inequality Gamma(t+1) >= e^(gamma t), which is false
on 0 < t < 2.9097, the root of ln Gamma(t+1) = gamma t (counterexample
Gamma(1.5) = 0.886 < e^(gamma/2) = 1.335, hence E(e^gamma, 1) = 1.4668 > 1).
Their ``*_as_stated`` cases check the published orientation as refuted
against an independent oracle, E by 30-digit ``mpmath.quad``: the program's
E and rho match the oracle at every point, the program's verdict on each
published bound is the oracle's, and every point whose range of integration
lies below the crossover is refuted.  The sign-corrected bounds, from
Gamma(t+1) >= e^(-gamma t), must hold at the same points.
"""

import time

from click.testing import CliRunner

from cpoch.cli import main as cli_main


def _announce(number: str, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")
    return passed


def _accept(verify_cases, number, label, *refs, ok=True, detail=""):
    """Announce a criterion made of verify cases; a failure names the failing cases."""
    cases = verify_cases.cases(*refs)
    failed = [verify_cases.describe(c) for c in cases if not c.passed]
    if failed:
        detail = "; ".join(failed)
    elif not detail:
        detail = f"{len(cases)} cases, worst residual {max(c.residual for c in cases):.2e}"
    assert _announce(number, label, ok and not failed, detail)


def test_criterion_01_nu_reference_value():
    start = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["eval", "nu", "--x", "1"])
    elapsed = time.perf_counter() - start
    value = float(result.output.strip()) if result.exit_code == 0 else float("nan")
    ok = result.exit_code == 0 and abs(value - 2.2665) <= 5e-4 and elapsed < 1.0
    assert _announce("1", "nu(1) reference", ok, f"value={value:.6f}, {elapsed:.2f}s")


def test_criterion_02_stirling_exactness(verify_cases):
    elapsed = verify_cases.seconds("discrete")
    _accept(
        verify_cases, "2", "Stirling exactness",
        "discrete/triangle_vs_lattice_oracle", "discrete/row_sums_factorial",
        "discrete/double_factorial_rows",
        ok=elapsed < 5.0, detail=f"discrete suite {elapsed:.2f}s",
    )


def test_criterion_03_simplex_moments(verify_cases):
    elapsed = verify_cases.seconds("discrete")
    _accept(
        verify_cases, "3", "simplex moments", "discrete/simplex_quadrature_vs_closed_forms",
        ok=elapsed < 10.0, detail=f"discrete suite {elapsed:.2f}s",
    )


def test_criterion_04_partial_exponential_identity(verify_cases):
    _accept(verify_cases, "4", "partial-exponential identity",
            "kernel/partial_exponential_identity")


def test_criterion_05_extension_consistency(verify_cases):
    _accept(
        verify_cases, "5", "extension consistency", "analogue1/extension_consistency",
        "analogue1/series_forms_mutual", "analogue1/series_forms_region_nonempty",
    )


def test_criterion_06_recursion_and_derivatives(verify_cases):
    _accept(verify_cases, "6", "recursion and derivatives", "analogue1/order_recursion",
            "analogue1/scale_derivative_identities")


def test_criterion_07_gaussian_expectation(verify_cases):
    _accept(verify_cases, "7", "Gaussian expectation", "analogue1/gaussian_expectation")


def test_criterion_08_reciprocal_gamma_coefficients(verify_cases):
    _accept(verify_cases, "8", "reciprocal-gamma coefficients",
            "recip/c_recursion_vs_compositions", "recip/series_vs_gamma")


def test_criterion_09_E_consistency(verify_cases):
    _accept(verify_cases, "9", "E series vs quadrature", "analogue2/series_vs_quadrature")


def test_criterion_10_exact_inversion_suite(verify_cases):
    _accept(
        verify_cases, "10", "exact inversion suite", "analogue1/exact_inversion",
        "analogue1/st_vs_forward_substitution", "analogue1/mobius_chain_oracle",
        "analogue1/groupoid_identity", "analogue1/composition_sum_bound",
    )


def test_criterion_11_limit_checks(verify_cases):
    _accept(verify_cases, "11", "limit checks", "analogue1/reduced_limit_to_exp",
            "analogue2/nu_truncation_gap", "kernel/q_central_value")


def test_criterion_12_sandwich_bounds(verify_cases):
    _accept(verify_cases, "12", "sandwich bounds", "analogue2/sandwich_bounds")


def test_criterion_12_linear_envelope_as_stated(verify_cases):
    (stated,) = verify_cases.cases("analogue2/linear_envelope_as_stated")
    _accept(
        verify_cases, "12", "linear envelope as stated",
        "analogue2/linear_envelope_as_stated", "analogue2/linear_envelope_sign_corrected",
        detail=f"{stated.actual}; sign-corrected holds",
    )


def test_criterion_12_rho_envelopes_as_stated(verify_cases):
    (e_case,) = verify_cases.cases("analogue2/rho_envelope_as_stated")
    (f_case,) = verify_cases.cases("analogue2/rho_ratio_envelope_as_stated")
    _accept(
        verify_cases, "12", "rho envelopes as stated",
        "analogue2/rho_envelope_as_stated", "analogue2/rho_envelope_sign_corrected",
        "analogue2/rho_ratio_envelope_as_stated", "analogue2/rho_ratio_envelope_sign_corrected",
        detail=f"e-case {e_case.actual}; f-case {f_case.actual}; sign-corrected holds",
    )


def test_criterion_12_limit_bounds(verify_cases):
    _accept(verify_cases, "12", "limit bounds", "analogue2/limit_bounds")


def test_criterion_12_cross_bound(verify_cases):
    _accept(verify_cases, "12", "rho vs rtilde cross bound", "analogue2/cross_bound_rho_rtilde")


def test_criterion_12_asymptotic_envelopes(verify_cases):
    _accept(verify_cases, "12", "asymptotic envelopes (constant 10)",
            "analogue2/asymptotic_envelopes")


def test_criterion_12_trend_checks(verify_cases):
    _accept(verify_cases, "12", "asymptotic trend checks", "analogue1/asymptote_trend_a",
            "analogue1/asymptote_trend_b", "analogue1/asymptote_trend_e")
