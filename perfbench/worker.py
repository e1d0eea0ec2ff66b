"""Timed side of the benchmark: one fresh interpreter per workload run.

Started by run.py with ``src`` on PYTHONPATH.  It imports cpoch and fills
its lazy state (the set-up), prints ``ready``, then runs the workload's op
stream in a closed loop -- one caller, the next op only after the previous
returned -- until the op time reaches ``--seconds``, stopping at a whole
block of curves or table round (workloads.unit).  Outputs are encoded
after each op's clock stops and written to ``--out``; the runner judges
them.  With ``--trace 1`` the
public functions are wrapped in spans (tracing.py) and the spans written
next to the outputs.

Op times are scaled to a fixed machine speed.  A shared host's speed swings
by half for seconds to minutes as its neighbours load it, and every
in-process Python op slows alike.  So between blocks of about
``BLOCK_S`` of ops the worker times a fixed calibration loop of the
standard library (``calibrate``), and each op's time in a block is
multiplied by ``CAL_NOMINAL_S`` over the mean of the loop's times before
and after the block.  A change to cpoch cannot change the loop, so a slower
or faster cpoch still reads slower or faster.

Other modes, each in its own fresh interpreter:
``setup`` stops after ``ready``; ``import`` times ``import cpoch.cli`` and
the cold coefficient table (run under ``-X importtime``); ``suites`` times
each verify suite in process; ``probe`` evaluates workloads.probe_ops
untimed.  ``--count`` replays exactly the first N ops
of the stream, so later passes time the same ops as the first.
"""

from __future__ import annotations

import argparse
import hashlib
import marshal
import math
import resource
import subprocess
import sys
import time
from fractions import Fraction

import workloads
from workloads import TOL

CHUNK = 4096  # outputs per marshal record, so the worker's memory stays flat
BLOCK_S = 0.02  # op time between two calibrations
#: About the median time of ``calibrate``'s loop on the 2-vCPU VM the
#: benchmark was written on; scaled op times are in that machine's ms.
CAL_NOMINAL_S = 0.28e-3
_CAL_COEFFS = tuple(1.0 / (k + 1.5) for k in range(110))


def _cal_loop() -> float:
    """A fixed mix of the kinds of work cpoch's ops do, from the standard
    library only: generator-fed fsums, Horner sums and products, a
    continued fraction, lgamma/exp, Fractions, big ints, a dict."""
    coeffs = _CAL_COEFFS
    total = 0.0
    for n in range(0, 110, 10):
        total += math.fsum(coeffs[n - k] * coeffs[k] for k in range(n + 1))
    for k in range(4):
        u = 0.1 + 0.2 * k
        value = 0.0
        for c in coeffs:
            value = value * u + c
        denom = 1.0
        for j in range(1, 12):
            denom *= u + j
        total += value / denom
    b, c, d = 8.0, 1e300, 1.0 / 8.0
    h = d
    for i in range(1, 40):
        an = -i * (i - 2.5)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
    total += h
    for i in range(60):
        total += math.lgamma(1.5 + i * 0.01) * math.exp(-i * 1e-3)
    frac = Fraction(0)
    for i in range(1, 25):
        frac += Fraction(i, i + 7)
    big = 1
    for i in range(1, 60):
        big *= i + 12345
    seen = {i: (i, total) for i in range(64)}
    return total + float(frac) + (big & 7) + len(seen)


def calibrate() -> float:
    """Median of three timings of ``_cal_loop``."""
    perf = time.perf_counter
    times = []
    for _ in range(3):
        start = perf()
        _cal_loop()
        times.append(perf() - start)
    return sorted(times)[1]


def families(cpoch) -> dict:
    """Op family -> call into cpoch's public API, looked up at call time."""
    c = cpoch
    return {
        "Q": lambda z, x: c.regularized_q(z, x, TOL),
        "e_partial": lambda z, x: c.e_partial(z, x),
        "rtilde_ext": lambda x, y, z: c.rtilde_ext(x, y, z),
        "gamma": lambda z: c.gamma(z),
        "gamma_y": lambda y, x: c.gamma_y(y, x),
        "pochhammer_continuous": lambda x, y, z: c.pochhammer_continuous(x, y, z),
        "rho": lambda x, y, z: c.rho(x, y, z, TOL),
        "E_series": lambda x, z: c.E_series(x, z, TOL),
        "E_quadrature": lambda x, z: c.E_quadrature(x, z, TOL),
        "nu": lambda x: c.nu(x, TOL),
        "mu": lambda x, beta, alpha: c.mu_function(x, beta, alpha, TOL),
        "groupoid": lambda n, k: c.groupoid_cardinalities(n, k),
        "rtilde_triangle": lambda n: c.rtilde_triangle(n),
        "stirling": lambda kind, n: c.stirling_triangle(kind, n),
        "rtilde_poly": lambda x, y, n, log_scaled: c.rtilde_poly(x, y, n, log_scaled),
        "pochhammer_discrete": lambda x, y, n: c.pochhammer_discrete(x, y, n),
    }


#: First call of each op family, on inputs no workload draws.
WARM = {
    "kernel-scatter": [("Q", (2.5, 1.0)), ("e_partial", (2.5, 1.0)), ("rtilde_ext", (1.0, 1.0, 2.5)),
                       ("gamma", (2.5,)), ("gamma_y", (2.0, 3.0)),
                       ("pochhammer_continuous", (1.0, 2.0, 3.5)), ("rho", (1.0, 1.0, 2.0))],
    "analogue2-curves": [("E_series", (1.5, 3.5)), ("E_quadrature", (1.5, 3.5)), ("nu", (1.0,)),
                         ("rho", (1.0, 1.0, 2.0))],
    "exact-tables": [("groupoid", (3, 1)), ("rtilde_triangle", (3,)), ("stirling", ("second", 3)),
                     ("rtilde_poly", (1.0, 1.0, 3, False)), ("pochhammer_discrete", (1, 1, 3))],
}


def _rows_text(rows) -> str:
    return "|".join(",".join(map(str, row)) for row in rows)


def canonical(family: str, result) -> str:
    """Text of an exact result's mathematical content (not its class)."""
    if family == "groupoid":
        return f"{result.g} {result.g_even} {result.g_odd}"
    if family == "rtilde_triangle":
        return "/".join(_rows_text(rows) for rows in (result.r_rows, result.s_rows, result.S_rows))
    if family == "stirling":
        return _rows_text(result.rows)
    return str(result)


def encode(family: str, result, LogScaled, SeriesEval) -> tuple:
    """A marshal-able record of one output, floats with all their bits."""
    if isinstance(result, SeriesEval):
        value = result.value
        if isinstance(value, LogScaled):
            return ("SL", value.sign, value.log_magnitude, result.converged, result.terms_used)
        return ("S", float(value), result.converged, result.terms_used)
    if isinstance(result, LogScaled):
        return ("L", result.sign, result.log_magnitude)
    if isinstance(result, float):
        return ("f", result)
    return ("D", hashlib.sha256(canonical(family, result).encode()).hexdigest())


def run_cli(argv, env=None) -> tuple[float, tuple]:
    """One cold CLI process; its wall time and (exit code, stdout digest)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cpoch.cli", *argv], capture_output=True,
                          timeout=120, env=env)
    elapsed = time.perf_counter() - start
    return elapsed, ("C", done.returncode, hashlib.sha256(done.stdout).hexdigest())


def _ready() -> None:
    print("ready", flush=True)


def run(workload: str, seed: int, seconds: float, count: int | None, out_path: str,
        trace: bool) -> None:
    stream = workloads.ops(workload, seed)
    unit = workloads.unit(workload)
    perf = time.perf_counter
    tracer = None
    import cpoch

    if trace:
        import tracing

        tracer = tracing.install()
    call = families(cpoch)
    for family, args in WARM[workload]:
        call[family](*args)
    _ready()
    if tracer is not None:
        tracer.clear()  # keep only the timed ops' spans
    types = (cpoch.LogScaled, cpoch.SeriesEval)
    busy = 0.0
    done = 0
    chunk = []
    block = []
    block_busy = 0.0
    scales = []
    cal_before = calibrate()

    def close_block() -> None:
        nonlocal cal_before, block_busy
        cal_after = calibrate()
        scale = 2.0 * CAL_NOMINAL_S / (cal_before + cal_after)
        cal_before = cal_after
        scales.append(scale)
        chunk.extend((elapsed * scale,) + record for elapsed, record in block)
        block.clear()
        block_busy = 0.0

    with open(out_path, "wb") as out:
        while (busy < seconds or done < 2 * unit or done % unit) if count is None else done < count:
            family, args = next(stream)
            fn = call[family]
            start = perf()
            try:
                result = fn(*args)
            except Exception as exc:  # a failed op is data; the runner counts it
                elapsed = perf() - start
                record = ("E", type(exc).__name__)
            else:
                elapsed = perf() - start
                record = encode(family, result, *types)
            busy += elapsed
            block_busy += elapsed
            done += 1
            block.append((elapsed, record))
            if block_busy >= BLOCK_S:
                close_block()
            if len(chunk) >= CHUNK:
                marshal.dump(chunk, out)
                chunk = []
        close_block()
        marshal.dump(chunk, out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(out_path + ".spans")
    scales.sort()
    print(f"done {done} {peak_kb} {busy!r} {scales[len(scales) // 2]!r}", flush=True)


def probe(workload: str, seed: int, out_path: str) -> None:
    """Evaluate the full-domain probe ops untimed and write their outputs."""
    import cpoch

    table = families(cpoch)
    types = (cpoch.LogScaled, cpoch.SeriesEval)
    records = []
    for family, args in workloads.probe_ops(workload, seed):
        try:
            records.append((0.0,) + encode(family, table[family](*args), *types))
        except Exception as exc:
            records.append((0.0, "E", type(exc).__name__))
    with open(out_path, "wb") as out:
        marshal.dump(records, out)
    print(f"done {len(records)}", flush=True)


def import_probe() -> None:
    """Time the cold import and the cold coefficient table; run under -X importtime."""
    start = time.perf_counter()
    import cpoch.cli  # noqa: F401

    imported = time.perf_counter()
    from cpoch import c_table

    c_table(110)
    print(f"{(imported - start) * 1e3!r} {(time.perf_counter() - imported) * 1e3!r}", flush=True)


def suites_probe() -> None:
    """Wall time of each verify suite and the number of passing cases."""
    from cpoch.verify import SUITE_NAMES, run_suite

    passed = 0
    for name in SUITE_NAMES:
        start = time.perf_counter()
        report = run_suite(name)
        elapsed = time.perf_counter() - start
        passed += report.counts[0]
        print(f"{name} {elapsed * 1e3!r}", flush=True)
    print(f"passed {passed}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "import", "suites", "probe"),
                        required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, help="run exactly this many ops, not --seconds")
    args = parser.parse_args()
    if args.mode == "import":
        import_probe()
    elif args.mode == "suites":
        suites_probe()
    elif args.mode == "probe":
        probe(args.workload, args.seed, args.out)
    elif args.mode == "setup":
        import cpoch

        table = families(cpoch)
        for family, fargs in WARM[args.workload]:
            table[family](*fargs)
        _ready()
    else:
        run(args.workload, args.seed, args.seconds, args.count, args.out, bool(args.trace))


if __name__ == "__main__":
    main()
