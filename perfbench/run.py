"""The cpoch benchmark: one workload, one seed, judged and summarised.

    python3 perfbench/run.py --workload kernel-scatter --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ``src`` is put on PYTHONPATH, nothing is
installed.  With ``--trace 0`` it measures the end-to-end metrics of
BENCHMARK.json: set-up (median of nine fresh interpreters, four before and
four after the timed one, scaled by a reference interpreter timed next to
each), then one untraced closed-loop pass in a fresh interpreter
(worker.py), its op times scaled to a fixed machine speed by the worker's
calibration loop.  With
``--trace 1`` an untraced pass and a traced replay of the same ops must give
the same outputs; it reports the per-layer metrics from the spans, the
failures of a full-domain probe, and cold-import and verify probes.
Every op is judged by oracles.py outside the timed interpreters.
Human-readable lines come first; the last line is one JSON object.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 9  # fresh interpreters timed for setup_s; the median is reported
SETUP_BEFORE = 4  # of them timed before the timed pass, the rest after it
#: numpy's BLAS would start a thread per core at import; the benchmark runs
#: one caller and no extra threads.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Timed next to every set-up: a fresh interpreter importing standard-library
#: modules (pure Python and C extensions), which tracks how fast the host
#: starts processes and loads modules.  cpoch cannot change it.
REFERENCE_IMPORT = "import argparse, decimal, email.parser, fractions, http.client, json, statistics"
#: About the reference's median time on the 2-vCPU VM the benchmark was
#: written on; setup_s is in that machine's seconds.
REFERENCE_NOMINAL_S = 0.12
IMPORT_PROBES = 3
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT = 150


class BenchError(RuntimeError):
    """The benchmark could not run here; exit non-zero without a result."""


def _env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **ONE_THREAD)


def _worker(*args: str, python_flags=()) -> list[str]:
    return [sys.executable, *python_flags, str(HERE / "worker.py"), *args]


def _expect_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready: {line!r} {proc.stderr.read()[-2000:]}")
    return time.perf_counter() - started


def time_setup(workload: str) -> float:
    """Spawn to ready: imports plus the first call of each op family."""
    started = time.perf_counter()
    proc = subprocess.Popen(_worker("--mode", "setup", "--workload", workload), env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        return _expect_ready(proc, started)
    finally:
        try:
            proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def time_reference() -> float:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], env=_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT)
    if done.returncode:
        raise BenchError(f"reference interpreter failed: {done.stderr.decode()[-2000:]}")
    return time.perf_counter() - started


def run_worker(workload: str, seed: int, seconds: float, trace: bool, count: int | None = None,
               tag: str = "") -> dict:
    """One closed-loop run in a fresh interpreter; outputs read back from disk."""
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{workload}-{seed}-{int(trace)}{tag}.out"
    args = ["--mode", "run", "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(int(trace)), "--out", str(out)]
    if count is not None:
        args += ["--count", str(count)]
    started = time.perf_counter()
    proc = subprocess.Popen(_worker(*args), env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        setup = _expect_ready(proc, started)
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode:
        raise BenchError(f"worker failed: {stderr[-2000:]}")
    _, done, peak_kb, busy, scale = stdout.split()
    records = []
    with open(out, "rb") as f:
        while True:
            try:
                records += marshal.load(f)
            except EOFError:
                break
    out.unlink()
    if len(records) != int(done):
        raise BenchError(f"worker wrote {len(records)} outputs, reported {done}")
    spans = None
    if trace:
        import tracing

        spans = tracing.load(str(out) + ".spans")
        os.unlink(str(out) + ".spans")
    return dict(setup=setup, records=records, peak_mb=int(peak_kb) / 1024.0, spans=spans,
                ops=workloads.take(workload, seed, len(records)), busy=float(busy),
                scale=float(scale))


def judge(run: dict) -> dict:
    """Verdict of every op.  The timed streams keep to where cpoch answers
    within tol, so any op that does not pass makes the run incorrect."""
    import oracles

    expected = json.loads((HERE / "expected.json").read_text())
    verdicts = [oracles.verdict(family, args, record, expected)
                for (family, args), record in zip(run["ops"], run["records"])]
    run["verdicts"] = verdicts
    failed = sum(v != "pass" for v in verdicts)
    return dict(failed=failed, correct=failed == 0)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def tail(times: list[float]) -> tuple[float, str]:
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in (99, 90, 75):
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            return percentile(ordered, p), f"p{p}, {beyond} beyond, n={n}"
    beyond = n - math.ceil(0.75 * n)
    return percentile(ordered, 75), f"p75, only {beyond} beyond, n={n}"


def end_to_end(run: dict, setups: list[float], references: list[float]) -> tuple[dict, list[str]]:
    times = [record[0] for record in run["records"]]
    n = len(times)
    tail_value, tail_note = tail(times)
    setup = statistics.median(setups)
    reference = statistics.median(references)
    metrics = {
        "setup_s": setup * REFERENCE_NOMINAL_S / reference,
        "ops_per_s": n / math.fsum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": run["peak_mb"],
    }
    notes = [f"latency_tail_ms is {tail_note}",
             f"setup_s is the median of {len(setups)} set-ups, {setup:.4f} s as measured, times "
             f"{REFERENCE_NOMINAL_S} s over the reference interpreter's median {reference:.4f} s"]
    return metrics, notes


# --- per-layer ---------------------------------------------------------------

def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean_or_zero(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def span_metrics(run: dict) -> dict:
    import tracing

    spans = run["spans"] or []
    own = tracing.self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def self_ms(*names) -> float:
        return 1e3 * math.fsum(own[i] for name in names for i in by_name.get(name, ()))

    def of(name):
        return [spans[i] for i in by_name.get(name, ())]

    gamma_names = [n for n in by_name if n.startswith("gammafns.")]
    q = of("gammafns.regularized_q")
    weighted_x = [s["arg"] for s in of("recip_gamma.weighted_series_coeffs")]
    quad = of("quadrature.integrate_adaptive")
    e_series = of("rho.E_series")
    return {
        "gammafns.calls": sum(len(by_name[n]) for n in gamma_names),
        "gammafns.self_ms": self_ms(*gamma_names),
        "gammafns.q_series_p50_us": 1e6 * _median_or_zero(
            s["end"] - s["start"] for s in q if s["arg"] == 1.0),
        "gammafns.q_cf_p50_us": 1e6 * _median_or_zero(
            s["end"] - s["start"] for s in q if s["arg"] == 0.0),
        "gammafns.terms_mean": _mean_or_zero(s["terms"] for s in q if not math.isnan(s["terms"])),
        "recip_gamma.weighted_calls": len(weighted_x),
        "recip_gamma.weighted_self_ms": self_ms("recip_gamma.weighted_series_coeffs"),
        "recip_gamma.repeat_x_share": (1.0 - len(set(weighted_x)) / len(weighted_x)) if weighted_x else 0.0,
        "quadrature.calls": len(quad),
        "quadrature.self_ms": self_ms("quadrature.integrate_adaptive"),
        "quadrature.integrand_evals": int(math.fsum(s["terms"] for s in quad if not math.isnan(s["terms"]))),
        "quadrature.errors": sum(s["error"] == "QuadratureError" for s in quad),
        "rho.E_series_self_ms": self_ms("rho.E_series"),
        "rho.E_series_terms_mean": _mean_or_zero(
            s["terms"] for s in e_series if not math.isnan(s["terms"])),
        "rho.E_quadrature_self_ms": self_ms("rho.E_quadrature"),
        "rho.nu_self_ms": self_ms("rho.nu"),
        "rho.rho_self_ms": self_ms("rho.rho"),
        "rtilde.groupoid_self_ms": self_ms("rtilde.groupoid_cardinalities"),
        "rtilde.groupoid_cells": len(by_name.get("rtilde.groupoid_cardinalities", ())),
        "rtilde.triangle_self_ms": self_ms("rtilde.rtilde_triangle"),
        "rtilde.poly_self_ms": self_ms("rtilde.rtilde_poly"),
        "rtilde.ext_self_ms": self_ms("rtilde.rtilde_ext"),
        "discrete.stirling_self_ms": self_ms("discrete.stirling_triangle"),
        "discrete.pochhammer_self_ms": self_ms("discrete.pochhammer_discrete"),
    }


ANALOGUE2_FAMILIES = ("E_series", "E_quadrature", "nu", "mu", "rho")


def probe_outcomes(workload: str, seed: int) -> tuple[dict, dict]:
    """Failures over the workload's whole documented domain, untimed
    (workloads.probe_ops): the known defects the timed streams avoid."""
    import oracles

    ops = workloads.probe_ops(workload, seed)
    verdicts = []
    if ops:
        WORK.mkdir(exist_ok=True)
        out = WORK / f"{workload}-{seed}.probe"
        done = subprocess.run(_worker("--mode", "probe", "--workload", workload, "--seed", str(seed),
                                      "--out", str(out)),
                              env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if done.returncode:
            raise BenchError(done.stderr[-2000:])
        with open(out, "rb") as f:
            records = marshal.load(f)
        out.unlink()
        verdicts = [oracles.verdict(family, args, record, {})
                    for (family, args), record in zip(ops, records)]
    rows = [(family, v) for (family, _), v in zip(ops, verdicts)]
    analogue = [v for f, v in rows if f in ANALOGUE2_FAMILIES]
    breakdown: dict[str, int] = {}
    for family, v in rows:
        if v != "pass":
            breakdown[f"{family}:{v}"] = breakdown.get(f"{family}:{v}", 0) + 1
    metrics = {
        "probe.fail_share": sum(v != "pass" for v in verdicts) / len(verdicts) if verdicts else 0.0,
        "gammafns.false_cert": sum(v == "false_cert" for f, v in rows if f == "Q"),
        "gammafns.uncertified": sum(v == "uncertified" for f, v in rows if f == "Q"),
        "rho.convergence_errors": sum(
            v in ("raised:ConvergenceError", "raised:QuadratureError", "uncertified")
            for v in analogue),
        "rho.overflow_errors": sum(v == "raised:OverflowError" for v in analogue),
    }
    return metrics, dict(sorted(breakdown.items()))


def cli_metrics(seed: int) -> tuple[dict, bool]:
    """Wall time of a seeded sample of cold CLI calls, unscaled, and whether
    each printed its recorded stdout and exit code.  One unrecorded call
    goes first: the first cold processes of a series run slow."""
    import oracles
    from worker import run_cli

    expected = json.loads((HERE / "expected.json").read_text())
    probe = workloads.cli_probe(seed)
    run_cli(probe[0], env=_env())
    times = {"eval": [], "table": []}
    ok = True
    for argv in probe:
        elapsed, record = run_cli(argv, env=_env())
        times[argv[0]].append(elapsed)
        ok = ok and list(record) == expected.get(oracles.key("cli", argv))
    return {"cli.eval_p50_ms": 1e3 * statistics.median(times["eval"]),
            "cli.table_p50_ms": 1e3 * statistics.median(times["table"])}, ok


def _importtime(stderr: str) -> dict[str, int]:
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum)
    return cumulative


def probe_metrics() -> dict:
    """Cold imports, the cold coefficient table and the verify suites."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(_worker("--mode", "import", python_flags=("-X", "importtime")),
                              env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if done.returncode:
            raise BenchError(done.stderr[-2000:])
        total_ms, c_table_ms = map(float, done.stdout.split())
        cum = _importtime(done.stderr)
        samples.append({
            "import.total_ms": total_ms,
            "import.quadrature_ms": cum.get("cpoch.quadrature", 0) / 1e3,
            "import.recip_gamma_ms": cum.get("cpoch.recip_gamma", 0) / 1e3,
            "import.cli_ms": (cum.get("cpoch.cli", 0) - cum.get("cpoch", 0)) / 1e3,
            "recip_gamma.c_table_cold_ms": c_table_ms,
        })
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    done = subprocess.run(_worker("--mode", "suites"), env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if done.returncode:
        raise BenchError(done.stderr[-2000:])
    for line in done.stdout.splitlines():
        name, value = line.split()
        if name == "passed":
            metrics["verify.cases_passed"] = int(value)
        else:
            metrics[f"verify.suite_ms.{name}"] = float(value)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "cpoch.cli", "verify", "--suite", "all"], env=_env(),
                   capture_output=True, timeout=CHILD_TIMEOUT)  # exits 1: three cases fail by design
    metrics["cli.verify_all_s"] = time.perf_counter() - started
    return metrics


# --- entry point -------------------------------------------------------------

def _failure_breakdown(run: dict) -> dict:
    counts: dict[str, int] = {}
    for (family, _), v in zip(run["ops"], run["verdicts"]):
        if v != "pass":
            counts[f"{family}:{v}"] = counts.get(f"{family}:{v}", 0) + 1
    return dict(sorted(counts.items()))


def _same_outputs(a: dict, b: dict) -> bool:
    return len(a["records"]) == len(b["records"]) and all(
        x[1:] == y[1:] for x, y in zip(a["records"], b["records"]))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    notes = []
    if not trace:
        references, setups = [], []
        for i in range(SETUP_RUNS):
            references.append(time_reference())
            if i == SETUP_BEFORE:
                run = run_worker(workload, seed, seconds, trace=False)
                setups.append(run["setup"])
            else:
                setups.append(time_setup(workload))
        verdict = judge(run)
        metrics, setup_notes = end_to_end(run, setups, references)
        notes += setup_notes
    else:
        run = run_worker(workload, seed, seconds / 2.0, trace=False)
        traced = run_worker(workload, seed, seconds, trace=True, count=len(run["records"]),
                            tag=".traced")
        verdict = judge(run)
        same = _same_outputs(run, traced)
        verdict["correct"] = verdict["correct"] and same
        notes.append(f"traced and untraced passes gave the same outputs: {same}")
        run["spans"] = traced["spans"]
        plain = math.fsum(r[0] for r in run["records"])
        slowed = math.fsum(r[0] for r in traced["records"])
        n = len(run["records"])
        probe, probe_failures = probe_outcomes(workload, seed)
        notes.append(f"full-domain probe failures: {json.dumps(probe_failures)}")
        cli, cli_ok = cli_metrics(seed)
        verdict["correct"] = verdict["correct"] and cli_ok
        notes.append(f"CLI calls printed their recorded output: {cli_ok}")
        logscaled = sum(r[1] in ("L", "SL") for r in run["records"]) / n
        metrics = {**span_metrics(run), **probe, **cli, **probe_metrics(),
                   "core.logscaled_share": logscaled,
                   "trace.untraced_ops_per_s": n / plain,
                   "trace.traced_ops_per_s": n / slowed,
                   "trace.overhead_pct": 100.0 * (slowed / plain - 1.0)}
    verdict["attempted"] = len(run["records"])
    notes.append(f"failed {verdict['failed']} of {verdict['attempted']}: "
                 f"{json.dumps(_failure_breakdown(run))}")
    notes.append(f"op time {run['busy']:.3f} s as measured; median scale to the nominal "
                 f"machine speed {run['scale']:.4f}")
    notes.append(f"inputs: {json.dumps(workloads.input_summary(workload, run['ops']))}")
    return verdict, metrics, notes


def report(workload: str, args, verdict: dict, values: dict, notes: list[str], wanted: list) -> None:
    """Human-readable lines, then the result as one JSON line."""
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  correct {verdict['correct']}")
    for m in wanted:
        print(f"  {m['name']:<28} {values[m['name']]:>16.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "cpoch" / "__init__.py").is_file():
        print("run from the root of a cpoch checkout (src/cpoch and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for name in names:
        try:
            verdict, values, notes = measure(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"benchmark failed: no value for {missing}", file=sys.stderr)
            return 1
        report(name, args, verdict, values, notes, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
