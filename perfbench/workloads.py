"""Seeded inputs for the three cpoch benchmark workloads.

Each workload is an endless stream of ops ``(family, args)`` made from the
seed alone; the worker consumes a prefix of it in a closed loop and the
runner regenerates the same prefix to judge the outputs.  This module uses
the standard library only, because the timed worker imports it.

Why these workloads:

* ``analogue2-curves`` -- curves at fixed parameters.  E is evaluated by
  series and quadrature over many orders z in [0, 30], then nu and the
  default (series) rho along z.  x repeats along a curve, so a per-x cache
  of the weighted reciprocal-gamma coefficients would show here; time goes
  to rho, recip_gamma and quadrature.
* ``kernel-scatter`` -- unique points, none repeated, mostly the
  incomplete-gamma kernel with orders log-uniform over 1e-8 .. 1e4 and half
  the points in the transition zone |x - z| <= sqrt(z).  A small share of
  default rho at unshared points is where a per-x cache only costs.
* ``exact-tables`` -- the exact rational layer and nothing else: every
  groupoid cell up to n = 19, rtilde_triangle(48), the Stirling triangles up
  to 64, rtilde_poly and pochhammer_discrete on Fractions, in an order the
  seed shuffles.

The cli layer is not a timed workload: one cold process per op gives about
eight ops in a ten-second run, too few for a steady median on a shared
host.  The traced run times a seeded sample of CLI calls (``cli_probe``),
and ``setup_s`` holds the import cost every CLI call pays.

The timed streams keep to the part of each function's domain where cpoch
answers within tol, so no timed op fails and a failure is a regression.
The rest of the documented domain is where cpoch's known defects live:
false certificates of Q above order ~1e5, e_partial overflowing past
x ~ 709, nu overflowing above x ~ 700, E's series left uncertified below
x ~ 0.03 and rho failing along with it, and mu's quadrature missing tol
now and then.  ``probe_ops`` draws from the whole
domain, untimed, and the traced run counts those failures per layer.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

TOL = 1e-10  # the CLI default tolerance; every float op is judged against it

WORKLOADS = ("analogue2-curves", "kernel-scatter", "exact-tables")

CURVE_POINTS = 16
CURVE_BLOCK = 16  # curves per stratified block
GROUPOID_MAX_N = 19
RTILDE_TRIANGLE_N = 48
STIRLING_N = 64
STIRLING_KINDS = ("first_unsigned", "first_signed", "second")
EXACT_UNIVERSE = 350  # recorded poly / pochhammer inputs, all used every round


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- kernel-scatter -------------------------------------------------------

KERNEL_MAX_ORDER = 1e4  # Q certifies wrong values from order ~1e5 on
E_PARTIAL_MAX_X = 700.0  # e_{z-1}(x) ~ e^x overflows binary64 past x ~ 709
FULL_MAX_ORDER = 1e7


def _order(rng: random.Random, hi: float = FULL_MAX_ORDER) -> float:
    return _log_uniform(rng, 1e-8, hi)


def _argument(rng: random.Random, z: float) -> float:
    """Half the points in the transition zone |x - z| <= sqrt(z)."""
    if rng.random() < 0.5:
        return abs(z + rng.uniform(-1.0, 1.0) * math.sqrt(z))
    return max(z, 1.0) * 10.0 ** rng.uniform(-2.0, 1.0)


def kernel_ops(seed: int, full: bool = False):
    """The kernel stream; ``full`` draws from the whole documented domain."""
    rng = _rng("kernel-scatter", seed)
    hi = FULL_MAX_ORDER if full else KERNEL_MAX_ORDER
    while True:
        u = rng.random()
        if u < 0.45:
            z = _order(rng, hi)
            yield "Q", (z, _argument(rng, z))
        elif u < 0.60:
            if full:
                z = _order(rng)
                x = _argument(rng, z)
            else:
                z = _order(rng, 600.0)
                x = _argument(rng, z)
                while x > E_PARTIAL_MAX_X:
                    x = _argument(rng, z)
            yield "e_partial", (z, x)
        elif u < 0.72:
            z = _order(rng, hi)
            w = _argument(rng, z)
            x = _log_uniform(rng, 0.1, 10.0)
            y = 2.0 * x * w / (z - 1.0) ** 2 if z != 1.0 else 1.0
            yield "rtilde_ext", (x, y, z)
        elif u < 0.80:
            yield "gamma", (_log_uniform(rng, 1e-8, 1e3),)
        elif u < 0.88:
            yield "gamma_y", (_log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 1e-3, 1e3))
        elif u < 0.999:
            yield "pochhammer_continuous", (
                _log_uniform(rng, 1e-3, 1e3), _log_uniform(rng, 0.1, 10.0), _order(rng)
            )
        elif full:
            yield "rho", (_log_uniform(rng, 1e-2, 1e6), _log_uniform(rng, 1e-2, 1e2),
                          rng.uniform(1.0, 31.0))
        else:  # the domain of the timed curves' rho (see curve_ops)
            x = _log_uniform(rng, 1e-2, 1e3)
            yield "rho", (x, 2.0 * x * rng.uniform(0.05, 0.5), rng.uniform(2.0, 31.0))


# --- analogue2-curves -----------------------------------------------------

def _strata(rng: random.Random, lo: float, hi: float) -> list[float]:
    """CURVE_BLOCK log-uniform draws, one from each equal slice of [lo, hi].

    Stratifying keeps the share of each region of a curve's parameters
    fixed while every seed differs.
    """
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / CURVE_BLOCK
    draws = [math.exp(a + (i + rng.random()) * width) for i in range(CURVE_BLOCK)]
    rng.shuffle(draws)
    return draws


def curve_ops(seed: int, full: bool = False):
    """Curves at fixed parameters; ops of one curve are contiguous.

    The timed curves keep E's argument in [0.05, 500]: E_series certifies
    nothing past z = 3 below x ~ 0.03, and nu overflows above x ~ 700.
    rho's E argument is w = c t^2 with c = y / 2x in [0.05, 0.5] and
    t = z - 1 in [1, 30].  mu runs only with ``full``: its quadrature misses
    tol now and then anywhere in its domain (about one call in 1000-4000,
    by up to 4 tol).  ``full`` draws from the whole documented domain.
    """
    rng = _rng("analogue2-curves", seed)
    while True:
        if full:
            xs = _strata(rng, 1e-2, 1e3)
            rxs = _strata(rng, 1e-2, 1e6)
            ratios = _strata(rng, 1e-8, 1e4)  # y / x
        else:
            xs = _strata(rng, 0.05, 500.0)
            rxs = _strata(rng, 1e-2, 1e3)
            ratios = _strata(rng, 0.1, 1.0)
        for x, rx, ratio in zip(xs, rxs, ratios):
            ry = rx * ratio
            # one z from each equal slice of [0, 30], so every curve spans it
            zs = [(i + rng.random()) * 30.0 / CURVE_POINTS for i in range(CURVE_POINTS)]
            for z in zs:
                yield "E_series", (x, z)
                yield "E_quadrature", (x, z)
            yield "nu", (x,)
            if full:
                yield "mu", (x, rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
            for z in zs:
                yield "rho", (rx, ry, 1.0 + z if full else 2.0 + z * 29.0 / 30.0)


# --- exact-tables ---------------------------------------------------------

def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 40))


def exact_universe():
    """The fixed poly and pochhammer inputs whose outputs are recorded."""
    rng = random.Random("exact-universe")
    poly = []
    poch = []
    for _ in range(EXACT_UNIVERSE):
        poly.append((_log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0),
                     rng.randint(1, RTILDE_TRIANGLE_N), rng.random() < 0.5))
        poch.append((_fraction(rng), _fraction(rng), rng.randint(0, 40)))
    return poly, poch


def exact_round():
    """Every table op of one round, in a fixed order (the seed shuffles it)."""
    ops = [("groupoid", (n, k)) for n in range(1, GROUPOID_MAX_N + 1) for k in range(1, n + 1)]
    ops.append(("rtilde_triangle", (RTILDE_TRIANGLE_N,)))
    ops += [("stirling", (kind, STIRLING_N)) for kind in STIRLING_KINDS]
    return ops


def exact_ops(seed: int):
    """Rounds of every table op and every recorded input, in seeded order.

    A round holds 894 ops, so the two rounds a run makes at least put ten
    ops beyond p99, and p99 always falls on a round's ninth-slowest op.
    That op sits among four groupoid cells of about the same cost, far from
    the cliffs either side (rtilde_triangle(48) costs twice as much, the
    twelfth op half), so noise that swaps neighbours cannot move the tail.
    """
    rng = _rng("exact-tables", seed)
    poly, poch = exact_universe()
    while True:
        ops = exact_round()
        ops += [("rtilde_poly", args) for args in poly]
        ops += [("pochhammer_discrete", args) for args in poch]
        rng.shuffle(ops)
        yield from ops


# --- the cli probe --------------------------------------------------------

#: Every eval target twice, every table kind at two small sizes.  Their
#: stdout bytes and exit codes are recorded in expected.json.
CLI_UNIVERSE = (
    ("eval", "r", "--x", "1.5", "--y", "0.5", "--z", "6"),
    ("eval", "r", "--x", "2", "--y", "3", "--z", "10"),
    ("eval", "r-cont", "--x", "1.5", "--y", "0.5", "--z", "6.25"),
    ("eval", "r-cont", "--x", "3", "--y", "2", "--z", "40.5"),
    ("eval", "rtilde", "--x", "1.5", "--y", "0.5", "--z", "6"),
    ("eval", "rtilde", "--x", "2", "--y", "1", "--z", "20"),
    ("eval", "rtilde-ext", "--x", "1.5", "--y", "0.5", "--z", "6.25"),
    ("eval", "rtilde-ext", "--x", "2", "--y", "1", "--z", "12.5"),
    ("eval", "rho", "--x", "1", "--y", "1", "--z", "12"),
    ("eval", "rho", "--x", "2", "--y", "0.5", "--z", "4.5"),
    ("eval", "E", "--x", "2", "--z", "30"),
    ("eval", "E", "--x", "0.3", "--z", "7.5"),
    ("eval", "nu", "--x", "1"),
    ("eval", "nu", "--x", "25"),
    ("eval", "mu", "--x", "2", "--beta", "1", "--alpha", "0.5"),
    ("eval", "mu", "--x", "0.5", "--beta", "2.5", "--alpha", "1"),
    ("eval", "gamma", "--z", "3"),
    ("eval", "gamma", "--z", "200.5", "--format", "json"),
    ("eval", "gamma-y", "--x", "3", "--y", "2"),
    ("eval", "gamma-y", "--x", "0.5", "--y", "1.5"),
    ("eval", "Q", "--z", "5.5", "--x", "3"),
    ("eval", "Q", "--z", "500", "--x", "500", "--format", "json"),
    ("table", "stirling1", "--max-n", "8"),
    ("table", "stirling1", "--max-n", "12", "--format", "json"),
    ("table", "stirling2", "--max-n", "8"),
    ("table", "stirling2", "--max-n", "12", "--format", "json"),
    ("table", "rtilde", "--max-n", "6"),
    ("table", "rtilde", "--max-n", "10"),
    ("table", "stilde", "--max-n", "6"),
    ("table", "stilde", "--max-n", "10"),
    ("table", "Stilde", "--max-n", "6"),
    ("table", "Stilde", "--max-n", "10"),
    ("table", "groupoid", "--max-n", "6"),
    ("table", "groupoid", "--max-n", "9"),
)


CLI_PROBE = 6  # CLI calls per traced run, half eval and half table


def cli_probe(seed: int) -> list:
    """A seeded sample of the universe: CLI_PROBE // 2 eval and table calls each."""
    rng = _rng("cli", seed)
    evals = [argv for argv in CLI_UNIVERSE if argv[0] == "eval"]
    tables = [argv for argv in CLI_UNIVERSE if argv[0] == "table"]
    return rng.sample(evals, CLI_PROBE // 2) + rng.sample(tables, CLI_PROBE // 2)


STREAMS = {
    "analogue2-curves": curve_ops,
    "kernel-scatter": kernel_ops,
    "exact-tables": exact_ops,
}


def ops(workload: str, seed: int):
    """The endless op stream of ``workload`` for ``seed``."""
    return STREAMS[workload](seed)


#: Untimed ops over each workload's whole documented domain (see the top).
PROBES = {"kernel-scatter": (kernel_ops, 4000), "analogue2-curves": (curve_ops, 800)}


def probe_ops(workload: str, seed: int) -> list:
    """The full-domain sample the traced run judges; empty where there is none."""
    if workload not in PROBES:
        return []
    stream, n = PROBES[workload]
    ops = stream(seed, full=True)
    return [next(ops) for _ in range(n)]


def take(workload: str, seed: int, n: int) -> list:
    stream = ops(workload, seed)
    return [next(stream) for _ in range(n)]


def input_summary(workload: str, op_list: list) -> dict:
    """Input properties later optimisations cite as measured shares."""
    summary: dict = {"ops": len(op_list)}
    e_series_x = [a[0] for f, a in op_list if f == "E_series"]
    rho_args = [a for f, a in op_list if f == "rho"]
    e_calls = e_series_x + [y * (z - 1.0) ** 2 / (2.0 * x) for x, y, z in rho_args if z > 1.0]
    if e_calls:
        summary["E_series_repeat_x_share"] = 1.0 - len(set(e_calls)) / len(e_calls)
    if rho_args:
        small = sum(1 for x, y, z in rho_args if y * (z - 1.0) ** 2 / (2.0 * x) < 1e-4)
        summary["rho_w_below_1e-4_share"] = small / len(rho_args)
    q_args = [a for f, a in op_list if f == "Q"]
    if q_args:
        zone = sum(1 for z, x in q_args if z >= 1e2 and abs(x - z) <= math.sqrt(z))
        summary["Q_transition_z_ge_1e2_share"] = zone / len(q_args)
    orders = [a[-1] if f in ("rtilde_ext", "pochhammer_continuous") else a[0]
              for f, a in op_list if f in ("Q", "e_partial", "rtilde_ext", "pochhammer_continuous")]
    if orders:
        summary["order_range"] = [min(orders), max(orders)]
    rows = [a[0] for f, a in op_list if f == "groupoid"]
    if rows:
        summary["groupoid_n_range"] = [min(rows), max(rows)]
    return summary


def unit(workload: str) -> int:
    """Ops per whole block of curves or table round.  A run makes at least
    two units and stops only at a unit boundary, so every run covers each
    stratum of the curves and whole table rounds."""
    if workload == "analogue2-curves":
        return CURVE_BLOCK * (3 * CURVE_POINTS + 1)
    if workload == "exact-tables":
        return len(exact_round()) + 2 * EXACT_UNIVERSE
    return 1
