"""The benchmark's own checks; they are not part of the project's test suite.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout.  They take about a minute.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
from scipy import special

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.take(workload, 7, 300)
        assert first == workloads.take(workload, 7, 300)
        assert first != workloads.take(workload, 8, 300)


def test_kernel_inputs_never_repeat():
    ops = workloads.take("kernel-scatter", 3, 20000)
    assert len(set(ops)) == len(ops)


def test_traced_and_untraced_outputs_identical():
    for workload in ("kernel-scatter", "analogue2-curves", "exact-tables"):
        plain = run.run_worker(workload, 5, 0.3, trace=False)
        traced = run.run_worker(workload, 5, 0.3, trace=True, count=len(plain["records"]))
        assert run._same_outputs(plain, traced), workload
        assert traced["spans"], workload


def test_timed_streams_fail_nothing():
    """The timed streams keep to where cpoch answers within tol."""
    for workload in ("kernel-scatter", "analogue2-curves"):
        result = run.run_worker(workload, 1, 1.0, trace=False)
        verdict = run.judge(result)
        assert verdict["correct"] and verdict["failed"] == 0, (workload, run._failure_breakdown(result))


def test_known_defects_stay_in_the_probe():
    """At the commit that defined the benchmark the kernel gives false
    certificates and rho/nu fail on the curves; the full-domain probe keeps them."""
    kernel, _ = run.probe_outcomes("kernel-scatter", 1)
    assert kernel["gammafns.false_cert"] > 0 and kernel["probe.fail_share"] > 0
    curves, _ = run.probe_outcomes("analogue2-curves", 1)
    assert curves["rho.convergence_errors"] > 0 and curves["rho.overflow_errors"] > 0
    none, _ = run.probe_outcomes("exact-tables", 1)
    assert none["probe.fail_share"] == 0.0


def test_exact_and_cli_outputs_match_the_record():
    result = run.run_worker("exact-tables", 2, 0.1, trace=False)
    verdict = run.judge(result)
    assert verdict["correct"] and verdict["failed"] == 0
    metrics, ok = run.cli_metrics(2)
    assert ok and metrics["cli.eval_p50_ms"] > 0


def _kernel_points(n: int):
    rng = random.Random(11)
    for _ in range(n):
        z = workloads._order(rng)
        yield z, workloads._argument(rng, z)


def test_q_references_within_their_bounds():
    for z, x in _kernel_points(150):
        exact = oracles._mp_q(z, x)
        assert abs(float(special.gammaincc(z, x)) - exact) <= oracles._SCIPY_Q_ERR
        if exact > 0:
            log_q, err = oracles.log_q_ref(z, x)
            with mp.workdps(40):
                assert abs(log_q - float(mp.log(exact))) <= err, (z, x)


def test_deep_tail_oracle():
    """mpmath.gammainc gives up here; the fallback still gives ~e^-4770."""
    q = oracles._mp_q(12891.39, 27373.31)
    with mp.workdps(40):
        log_q = float(mp.log(q))
    assert -4800 < log_q < -4700
    assert abs(oracles._log_q_tail(12891.39, 27373.31) - log_q) <= 1e-12 * abs(log_q)


def test_integral_references_against_mp_quad():
    rng = random.Random(12)
    for _ in range(6):
        x = workloads._log_uniform(rng, 1e-5, 1e3)
        z = rng.uniform(0.1, 30.0)
        assert abs(oracles.log_e_ref(x, z) - oracles.mp_log_e(x, z)) <= 1e-13 * max(1.0, abs(oracles.mp_log_e(x, z)))
    for x in (0.05, 2.0, 40.0):
        assert abs(oracles.log_nu_ref(x) - oracles.mp_log_e(x, oracles._nu_cutoff(x))) <= 1e-13 * 10
        beta, alpha = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        assert abs(oracles.log_mu_ref(x, beta, alpha) - oracles.mp_log_mu(x, beta, alpha)) <= 1e-12


def test_verdict_contract():
    assert oracles.verdict("Q", (2.0, 1.0), (0, "S", 0.5, False, 3), {}) == "uncertified"
    assert oracles.verdict("rho", (1.0, 1.0, 2.0), (0, "E", "ConvergenceError"), {}) == "raised:ConvergenceError"
    q = float(special.gammaincc(2.0, 1.0))
    assert oracles.verdict("Q", (2.0, 1.0), (0, "S", q + 5e-11, True, 3), {}) == "pass"
    assert oracles.verdict("Q", (2.0, 1.0), (0, "S", q + 5e-10, True, 3), {}) == "false_cert"
    # an underflowed float is within tol of a tiny true value
    assert oracles.log_distance((0, "f", 0.0), -5000.0) == 0.0


def test_tail_percentile_rule():
    value, note = run.tail([float(i) for i in range(1, 2001)])
    assert value == 1980.0 and note.startswith("p99")
    value, note = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and note.startswith("p90")


def test_self_time_subtracts_children():
    spans = [dict(start=0.0, end=10.0, parent=-1), dict(start=1.0, end=4.0, parent=0),
             dict(start=2.0, end=3.0, parent=1), dict(start=5.0, end=6.0, parent=0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_refuses_to_run_without_the_program():
    """In a directory holding only BENCHMARK.json and perfbench/ it exits non-zero."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernel-scatter",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_input_summary_shares():
    ops = workloads.take("kernel-scatter", 4, 20000)
    summary = workloads.input_summary("kernel-scatter", ops)
    assert 0.0 < summary["Q_transition_z_ge_1e2_share"] < 0.5
    low, high = summary["order_range"]
    assert low < 1e-6 and high > 1e6
    q_orders = [args[0] for family, args in ops if family == "Q"]
    assert max(q_orders) <= workloads.KERNEL_MAX_ORDER
    curves = workloads.input_summary("analogue2-curves", workloads.take("analogue2-curves", 4, 3200))
    assert curves["rho_w_below_1e-4_share"] == 0.0 and curves["E_series_repeat_x_share"] > 0.3
