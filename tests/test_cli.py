import hashlib
import json
import math
import sys

import pytest
from click.testing import CliRunner

import cpoch.cli
from cpoch.cli import main
from cpoch.core import LogScaled
from cpoch.verify import CaseResult, VerificationReport


@pytest.fixture
def runner():
    return CliRunner()


#: The message of each failing eval below; rho's E(w, z - 1) at w = 4900.5 and 499999000000.5.
NAMED_FAILURES = {
    "nu --x 800":
        "E_quadrature's integrand x^t / Gamma(t+1) overflows in floats at (x=800.0, z=inf)",
    "rho --x 1 --y 1 --z 100":
        "E_series's segment factor x^t0 overflows in floats at (x=4900.5, z=99.0)",
    "rho --x 1e300 --y 1e300 --z 1e6":
        "E_series's segment factor x^t0 overflows in floats at (x=499999000000.5, z=999999.0)",
    "rho --x 1e-300 --y 1e308 --z 50":
        "rho's reduced argument w = y (z-1)^2 / 2x overflows at (x=1e-300, y=1e+308, z=50.0)",
    "rho --x 1e300 --y 1e-300 --z 2":
        "rho's reduced argument w = y (z-1)^2 / 2x underflows to 0 at (x=1e+300, y=1e-300, z=2.0)",
    "E --x 800 --z 900":
        "E_quadrature's integrand x^t / Gamma(t+1) overflows in floats at (x=800.0, z=900.0)",
    "mu --x 800":
        "mu_function's integrand or tail bound overflows in floats at (x=800.0, beta=0.0, alpha=0.0)",
}


class TestEval:
    def test_nu_reference(self, runner):
        result = runner.invoke(main, ["eval", "nu", "--x", "1"])
        assert result.exit_code == 0
        assert abs(float(result.output.strip()) - 2.2665) <= 5e-4

    def test_gamma(self, runner):
        result = runner.invoke(main, ["eval", "gamma", "--z", "5"])
        assert result.exit_code == 0
        assert float(result.output.strip()) == 24.0

    def test_gamma_log_scaled(self, runner):
        result = runner.invoke(main, ["eval", "gamma", "--z", "200", "--log-scaled"])
        assert result.exit_code == 0
        sign, log_mag = result.output.split()
        assert sign == "1"
        assert abs(float(log_mag) - 857.9336698258574) <= 1e-9

    def test_overflowing_value_auto_promotes(self, runner):
        result = runner.invoke(main, ["eval", "gamma", "--z", "200"])
        assert result.exit_code == 0
        assert len(result.output.split()) == 2  # sign + log magnitude

    # stdout of --log-scaled for values inside the binary64 range
    @pytest.mark.parametrize("args, output", [
        (["rho", "--x", "2", "--y", "0.5", "--z", "4.5"], "1 4.4730768104414\n"),
        (["rtilde-ext", "--x", "2", "--y", "1", "--z", "12.5"], "1 30.567369407713635\n"),
        (["r-cont", "--x", "3", "--y", "2", "--z", "40.5"], "1 142.22745483177471\n"),
        (["gamma-y", "--x", "3", "--y", "2"], "1 0.22579135264472749\n"),
    ])
    def test_log_scaled_bytes(self, runner, args, output):
        result = runner.invoke(main, ["eval", *args, "--log-scaled"])
        assert result.exit_code == 0
        assert result.stdout == output

    # stdout of the quadrature-backed evals in the benchmark's CLI universe,
    # with scipy unimportable: the pure-Python QAGS gives quad's bits
    @pytest.mark.parametrize("args, output", [
        (["E", "--x", "2", "--z", "30"], "6.997579629175668\n"),
        (["E", "--x", "0.3", "--z", "7.5"], "0.79033387811165867\n"),
        (["nu", "--x", "1"], "2.2665345076998493\n"),
        (["nu", "--x", "25"], "72004899337.156052\n"),
        (["mu", "--x", "2", "--beta", "1", "--alpha", "0.5"], "11.513832797498804\n"),
        (["mu", "--x", "0.5", "--beta", "2.5", "--alpha", "1"], "0.087929256436240444\n"),
    ])
    def test_quadrature_bytes_without_scipy(self, runner, monkeypatch, args, output):
        monkeypatch.setitem(sys.modules, "scipy", None)  # `import scipy` now raises
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 0
        assert result.stdout == output

    def test_overflowing_reduced_argument_is_log_scaled(self, runner):
        result = runner.invoke(main, ["eval", "rtilde-ext", "--x", "1e300", "--y", "1e300",
                                      "--z", "1e6"])
        assert result.exit_code == 0
        assert result.stdout == "1 704897868.32656372\n"

    def test_discrete_pochhammer(self, runner):
        result = runner.invoke(main, ["eval", "r", "--x", "1", "--y", "2", "--z", "3"])
        assert result.exit_code == 0
        assert float(result.output.strip()) == 15.0

    def test_q_value(self, runner):
        result = runner.invoke(main, ["eval", "Q", "--z", "1000", "--x", "1000"])
        assert result.exit_code == 0
        assert abs(float(result.output.strip()) - 0.5) <= 0.01

    def test_json_record_fields(self, runner):
        result = runner.invoke(
            main, ["eval", "rho", "--x", "1", "--y", "1", "--z", "2", "--format", "json"]
        )
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert set(record) == {"name", "inputs", "value", "sign", "log_magnitude", "converged"}
        assert record["sign"] is None
        assert record["converged"] is True
        assert abs(record["value"] - 0.7829345677497096) < 1e-12

    def test_json_overflow_uses_null_value(self, runner):
        result = runner.invoke(
            main, ["eval", "gamma", "--z", "200", "--format", "json"]
        )
        record = json.loads(result.output)
        assert record["value"] is None
        assert record["sign"] == 1
        assert abs(record["log_magnitude"] - 857.9336698258574) <= 1e-9

    def test_unknown_parameter_rejected(self, runner):
        result = runner.invoke(main, ["eval", "nu", "--x", "1", "--y", "2"])
        assert result.exit_code == 2
        assert "does not take" in result.output

    def test_missing_parameter_rejected(self, runner):
        result = runner.invoke(main, ["eval", "rho", "--x", "1", "--y", "1"])
        assert result.exit_code == 2

    def test_domain_error_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "gamma", "--z", "-1"])
        assert result.exit_code == 2

    def test_non_finite_E_argument_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "E", "--x", "inf", "--z", "5"])
        assert result.exit_code == 2
        assert "requires a finite x > 0, got inf" in result.output

    def test_rtilde_order_beyond_bound_is_usage_error(self, runner):
        # the coefficient row alone would take minutes to build
        result = runner.invoke(main, ["eval", "rtilde", "--x", "1e300", "--y", "1e300",
                                      "--z", "1e6"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["nu", "--x", "800"],
        ["rho", "--x", "1", "--y", "1", "--z", "100"],
        ["rho", "--x", "1e300", "--y", "1e300", "--z", "1e6"],
        ["rho", "--x", "1e-300", "--y", "1e308", "--z", "50"],  # w itself overflows
        ["rho", "--x", "1e300", "--y", "1e-300", "--z", "2"],  # w underflows to 0
        ["E", "--x", "800", "--z", "900"],
        ["mu", "--x", "800"],
    ])
    def test_overflow_is_numerical_failure(self, runner, args):
        # the message names the function that failed and its inputs, not a bare
        # (34, 'Numerical result out of range'), math range error or fsum error
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 3
        assert result.stderr == f"numerical failure in {args[0]}: {NAMED_FAILURES[' '.join(args)]}\n"

    @pytest.mark.parametrize("flags", [[], ["--log-scaled"]])
    def test_overflowing_rtilde_sum_is_log_scaled(self, runner, flags):
        result = runner.invoke(main, ["eval", "rtilde", "--x", "1e5", "--y", "1e5", "--z", "60",
                                      *flags])
        assert result.exit_code == 0
        sign, log_mag = result.output.split()
        assert sign == "1"
        assert abs(float(log_mag) - 946.53) <= 0.01

    @pytest.mark.parametrize("args, output", [
        # a = x/y underflows to 0: Gamma_y(x) -> 1/x, and the Pochhammer ratio -> x y^(z-1) Gamma(z)
        (["gamma-y", "--x", "1e-300", "--y", "1e300"], "9.999999999999999e+299\n"),
        (["r-cont", "--x", "1e-300", "--y", "1e300", "--z", "2"], "1\n"),
        # a overflows and x <= e: Gamma_y(x) underflows
        (["gamma-y", "--x", "1", "--y", "1e-309"], "0\n"),
    ])
    def test_ratio_leaving_binary64_prints(self, runner, args, output):
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 0
        assert result.stdout == output

    def test_overflowing_gamma_y_is_numerical_failure(self, runner):
        # a = x/y overflows and x > e: named, not a nan
        result = runner.invoke(main, ["eval", "gamma-y", "--x", "1e300", "--y", "1e-300"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "gamma_y overflows" in result.stderr
        assert "nan" not in result.stderr

    def test_non_finite_float_is_numerical_failure(self, runner):
        result = runner.invoke(main, ["eval", "r", "--x", "1e200", "--y", "1e200", "--z", "5"])
        assert result.exit_code == 3
        assert "numerical failure" in result.stderr

    @pytest.mark.parametrize("args, refused", [
        (["rtilde", "--x", "nan", "--y", "1", "--z", "5"], "finite x and y, got x=nan, y=1.0"),
        (["rtilde", "--x", "inf", "--y", "1", "--z", "5"], "finite x and y, got x=inf, y=1.0"),
        (["rtilde", "--x", "1", "--y", "nan", "--z", "5", "--log-scaled"],
         "rtilde_poly requires a finite x and y, got x=1.0, y=nan"),
        (["rtilde", "--x", "1", "--y", "1", "--z", "inf"], "--z must be a non-negative integer"),
        (["gamma", "--z", "inf"], "gamma requires a finite z > 0"),
        (["r-cont", "--x", "nan", "--y", "1", "--z", "5"],
         "pochhammer_continuous requires a finite x > 0"),
        (["r", "--x", "inf", "--y", "1", "--z", "5"], "pochhammer_discrete requires finite x"),
        (["rho", "--x", "1", "--y", "1", "--z", "5", "--tol", "nan"],
         "rho requires a finite tol > 0"),
    ])
    def test_non_finite_argument_is_usage_error(self, runner, args, refused):
        # refused by the function's own domain check, before any work
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert refused in result.stderr

    @pytest.mark.parametrize("args", [
        ["rtilde-ext", "--x", "1e300", "--y", "0", "--z", "1e308"],
        ["rtilde-ext", "--x", "1e300", "--y", "0", "--z", "1e308", "--log-scaled"],
        ["rtilde-ext", "--x", "1e300", "--y", "0", "--z", "1e308", "--format", "json"],
        ["r-cont", "--x", "1e300", "--y", "1", "--z", "1e308"],
        ["r-cont", "--x", "1e300", "--y", "1", "--z", "1e308", "--format", "json"],
    ])
    def test_non_finite_log_scaled_is_numerical_failure(self, runner, args):
        # finite arguments whose LogScaled result has log magnitude +inf (z ln x
        # overflows), refused like a float inf in every output form
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "numerical failure" in result.stderr
        assert "log_magnitude=inf" in result.stderr

    def test_nan_log_scaled_is_numerical_failure(self, runner, monkeypatch):
        # no finite argument gives a nan log magnitude, so a patched target does
        required, optional, _ = cpoch.cli.EVAL_TARGETS["gamma"]
        monkeypatch.setitem(cpoch.cli.EVAL_TARGETS, "gamma",
                            (required, optional, lambda tol, z: LogScaled(1, math.nan)))
        result = runner.invoke(main, ["eval", "gamma", "--z", "3"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "numerical failure in gamma: result is LogScaled(sign=1, log_magnitude=nan)" \
            in result.stderr

    @pytest.mark.parametrize("args, output", [
        (["rtilde", "--x", "0", "--y", "1", "--z", "5", "--log-scaled"], "0 -inf\n"),
        (["rtilde", "--x", "1e300", "--y", "-1e300", "--z", "40"], "-1 27783.064352446047\n"),
    ])
    def test_zero_and_negative_log_scaled_print(self, runner, args, output):
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 0
        assert result.stdout == output

    def test_gamma_near_zero_is_log_scaled(self, runner):
        result = runner.invoke(main, ["eval", "gamma", "--z", "1e-320"])
        assert result.exit_code == 0
        sign, log_mag = result.output.split()
        assert sign == "1"
        assert abs(float(log_mag) - 736.8272408909739) <= 1e-9

    def test_uncertified_rho_is_numerical_failure(self, runner):
        result = runner.invoke(main, [
            "eval", "rho", "--x", "23681.166079424744", "--y", "1.1231528383600349",
            "--z", "26.82961228779542",
        ])
        assert result.exit_code == 3
        assert "numerical failure" in result.stderr

    def test_non_integer_order_rejected_for_discrete(self, runner):
        result = runner.invoke(main, ["eval", "r", "--x", "1", "--y", "1", "--z", "2.5"])
        assert result.exit_code == 2

    def test_mu_optional_parameters(self, runner):
        result = runner.invoke(main, ["eval", "mu", "--x", "1"])
        assert result.exit_code == 0
        nu_result = runner.invoke(main, ["eval", "nu", "--x", "1"])
        assert abs(float(result.output) - float(nu_result.output)) <= 1e-8


class TestTable:
    def test_stirling1_row(self, runner):
        result = runner.invoke(main, ["table", "stirling1", "--max-n", "4", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "n,k=0,k=1,k=2,k=3,k=4"
        assert lines[5] == "4,0,6,11,6,1"

    def test_rtilde_rationals(self, runner):
        result = runner.invoke(main, ["table", "rtilde", "--max-n", "4"])
        lines = result.output.strip().split("\n")
        assert lines[3].startswith("2,0,1/2,1")
        assert lines[5] == "4,0,243/16,81/8,9/2,1"

    def test_stilde_signs(self, runner):
        result = runner.invoke(main, ["table", "stilde", "--max-n", "3"])
        assert result.output.strip().split("\n")[4] == "3,0,2,-2,1"

    def test_second_kind_analogue(self, runner):
        result = runner.invoke(main, ["table", "Stilde", "--max-n", "3"])
        assert result.output.strip().split("\n")[4] == "3,0,-1,2,1"

    def test_groupoid_layout(self, runner):
        result = runner.invoke(main, ["table", "groupoid", "--max-n", "3"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "n,k,g,g_even,g_odd"
        assert "3,1,2,1,2" in lines

    def test_json_records(self, runner):
        result = runner.invoke(main, ["table", "stirling2", "--max-n", "3", "--format", "json"])
        records = [json.loads(line) for line in result.output.strip().split("\n")]
        assert len(records) == 4
        assert records[3]["inputs"] == {"n": "3"}
        assert records[3]["value"]["k=2"] == "3"

    def test_max_n_guard(self, runner):
        assert runner.invoke(main, ["table", "stirling1", "--max-n", "65"]).exit_code == 2
        assert runner.invoke(main, ["table", "rtilde", "--max-n", "49"]).exit_code == 2
        assert runner.invoke(main, ["table", "groupoid", "--max-n", "20"]).exit_code == 2

    # sha256 of the stdout, recorded while St still came from the O(n^3)
    # Fraction forward substitution
    @pytest.mark.parametrize("kind, fmt, digest", [
        ("rtilde", "csv", "c7dcfdd77e48161fa63507074e9de36663ce2aa411f05a0e678568f85091bb04"),
        ("rtilde", "json", "b14d35b05c607dbee21af78b06c4ebab41aa715c5f297c5a928a917660fd7156"),
        ("stilde", "csv", "9ab7157de95aac53b41f830f7418ac71df40a296f5ad8dd9a84ab598b4df2fb1"),
        ("stilde", "json", "68517d4f6d68278b404107018e99ee6f02b33856838adc41dd41841ac55d4451"),
        ("Stilde", "csv", "6bea9b0b330139862fa5c9a1abb799266d140e9967e83d4bb2b412cb40b7d021"),
        ("Stilde", "json", "560bb37139cc46370025fa6990a317004f707ebd58ee06b5ea98c9820e019c9e"),
    ])
    def test_largest_rtilde_tables_pinned(self, runner, kind, fmt, digest):
        result = runner.invoke(main, ["table", kind, "--max-n", "48", "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_determinism(self, runner):
        a = runner.invoke(main, ["table", "rtilde", "--max-n", "8", "--format", "json"])
        b = runner.invoke(main, ["table", "rtilde", "--max-n", "8", "--format", "json"])
        assert a.output == b.output


class TestVerify:
    # the commands render the session's reports; CI's property-suite step is
    # the unpatched end-to-end run of `cpoch verify --suite all`
    @pytest.fixture(autouse=True)
    def session_reports(self, monkeypatch, verify_cases):
        monkeypatch.setattr(cpoch.cli, "run_suite", verify_cases.report)

    def test_discrete_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "discrete"])
        assert result.exit_code == 0
        assert result.output.startswith("suite,case,inputs,expected,actual,residual,pass")

    def test_kernel_suite_passes(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "kernel"]).exit_code == 0

    def test_recip_suite_passes(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "recip"]).exit_code == 0

    def test_analogue2_reports_published_bound_defect(self, runner):
        # the as-stated envelope bounds are false at small z; their cases pass
        # by finding them refuted where the oracle does, and say so
        result = runner.invoke(main, ["verify", "--suite", "analogue2", "--format", "json"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.strip().split("\n")]
        assert all(r["pass"] for r in records)
        by_name = {r["name"]: r for r in records}
        for name, refuted in (("linear_envelope_as_stated", "4 of 4"),
                              ("rho_envelope_as_stated", "3 of 4"),
                              ("rho_ratio_envelope_as_stated", "15 of 16")):
            assert by_name[f"analogue2/{name}"]["value"].startswith(
                f"refuted at {refuted} points, as the oracle finds"
            )
        assert by_name["analogue2/linear_envelope_sign_corrected"]["pass"]

    def test_failed_case_exits_1(self, runner, monkeypatch):
        failed = CaseResult("kernel", "broken", {"x": 1.0}, "0", "1", 1.0, False)
        monkeypatch.setattr(cpoch.cli, "run_suite", lambda suite: VerificationReport(suite, [failed]))
        result = runner.invoke(main, ["verify", "--suite", "kernel"])
        assert result.exit_code == 1
        assert result.stdout.splitlines()[1:] == ["kernel,broken,x=1.0,0,1,1,false"]
        assert "kernel: 0/1 cases passed" in result.stderr

    def test_bad_suite_rejected(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "bogus"]).exit_code == 2
