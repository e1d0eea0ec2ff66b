"""Property suites behind the ``verify`` CLI subcommand.

This module is the one definition of every property check: the tests look
its cases up by ``suite/case_id`` instead of restating them.  Each suite
re-checks the identities, recursions, bounds and asymptotic trends of one
module against independent oracles (brute-force enumeration, quadrature,
finite differences, exact rational arithmetic, mpmath at 30 to 140
digits).  The shipped float tables, the reciprocal-gamma coefficients,
the head cut's circle bounds and the Gauss rules, are checked against
their mpmath constructions here too.  Results
come back as a structured report: one residual per case, pass/fail per
case, process-level success only if everything passed.

Two upper-bound families of criterion 12, the linear and the rho
envelopes, are published on "Gamma(t+1) >= e^(gamma t)".  That inequality
is false on 0 < t < 2.9097, the root of ln Gamma(t+1) = gamma t
(Gamma(1.5) = 0.886 < e^(gamma/2) = 1.335); the true bound with gamma
negated, Gamma(t+1) >= e^(-gamma t), follows from convexity of
ln Gamma(t+1) + gamma t at its double zero t = 0.  The ``*_as_stated``
cases judge the published orientation against an independent oracle, E by
30-digit ``mpmath.quad``: at every point the program's value matches the
oracle, the program's verdict on the bound is the oracle's, and the bound
is refuted wherever the integral's upper end lies below the crossover.  On
a correct program they pass and report the refutation; the
``*_sign_corrected`` companions check the true bounds at the same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import EULER_GAMMA
from .discrete import (
    _compositions,
    pochhammer_discrete,
    power_sum_pair,
    geometric_sum_pair,
    simplex_moment,
    simplex_volume,
    stirling_lattice_oracle,
    stirling_triangle,
)
from .gammafns import (
    e_partial_sum,
    gamma,
    gamma_minimum,
    log_e_partial,
    regularized_q,
)
from .quadrature import (
    _LEGENDRE_RULES,
    QuadratureRequest,
    _hermite_rule,
    integrate_adaptive,
    integrate_simplex,
)
from .recip_gamma import (
    _CIRCLE_RADIUS,
    _SECTOR_LOG_BOUNDS,
    TABLE_ORDER,
    c_composition_oracle,
    c_table,
    recip_gamma_series,
    weighted_series_coeffs,
)
from .rho import E_deriv_z, E_quadrature, E_series, _mu_integrand, mu_function, nu, rho
from .rtilde import (
    RTILDE_MAX_N,
    gaussian_expectation,
    groupoid_cardinalities,
    rtilde_closed,
    rtilde_coefficient,
    rtilde_ext,
    rtilde_series_lower,
    rtilde_series_upper,
    rtilde_poly,
    rtilde_triangle,
    stilde_mobius_oracle,
)

__all__ = ["CaseResult", "VerificationReport", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("kernel", "recip", "discrete", "analogue1", "analogue2")

_FD_STEP = 1e-6
_FD_TOL = 1e-5

E_GAMMA = math.exp(EULER_GAMMA)
#: Gamma(t+1) >= e^(gamma t) fails on 0 < t < 2.90974 (mpmath findroot of
#: ln Gamma(t+1) = gamma t); rounded down, so every point below it is refuted.
GAMMA_CROSSOVER = 2.9097
ORACLE_DPS = 30
ORACLE_RTOL = 1e-10
#: Working digits of the Newton solve behind the Gauss rules, and the bound
#: on each rule's worst node (relative to max(1, |node|)) and weight errors:
#: numpy's 24-node Legendre end weights, shipped as literals, are off by
#: 1.21e-13 relative.
RULE_DPS = 40
RULE_RTOL = 2e-13

# Grids of the cases reported point by point; tests parametrize over them.
GAMMA_RECURRENCE_Z = (0.1, 0.5, 1.7, 10.3, 50.5)
RECIP_SERIES_T = (-0.5, -0.25, 0.0, 0.3, 1.0, 1.7, 2.5, 3.0)
SIMPLEX_K = tuple(range(6))
SIMPLEX_X = (0.5, 1.0, 2.0)
E_SERIES_X = (0.3, 1.0, E_GAMMA, 4.0)
E_SERIES_Z = (0.5, 2.0, 5.0, 10.0)
#: The rule behind gaussian_expectation (n <= 20) and the ends of the guard.
HERMITE_RULE_NODES = (2, 20, 128)


@dataclass(frozen=True)
class CaseResult:
    suite: str
    case_id: str
    inputs: dict
    expected: str
    actual: str
    residual: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.cases if c.passed)
        return good, len(self.cases)


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.cases: list[CaseResult] = []

    def close(self, case_id, inputs, expected, actual, tol, scale=None):
        """Residual |expected - actual| / scale, scale max(1, |expected|) by default."""
        if scale is None:
            scale = max(1.0, abs(expected))
        resid = abs(expected - actual) / scale
        self.add(case_id, inputs, f"{expected:.17g}", f"{actual:.17g}", resid, tol)

    def add(self, case_id, inputs, expected, actual, residual, tol):
        self.cases.append(
            CaseResult(
                self.suite, case_id, inputs, str(expected), str(actual),
                residual, residual <= tol,
            )
        )

    def holds(self, case_id, inputs, ok, detail=""):
        self.cases.append(
            CaseResult(
                self.suite, case_id, inputs, "holds", detail or str(ok),
                0.0 if ok else float("inf"), bool(ok),
            )
        )

    def as_stated(self, case_id, inputs, points):
        """Judge a published envelope ``value <= bound`` point by point by the oracle.

        Each point is (name, t_max, program value, oracle value, bound), where
        t_max is the upper end of the E integral.  The program must match the
        oracle within ORACLE_RTOL, reach the oracle's verdict on the bound (the
        bound is the same float on both sides), and find the bound refuted
        wherever t_max lies below the crossover, since there the integrand
        exceeds the envelope's.  The residual is the worst relative deviation
        from the oracle, infinite on a wrong verdict.
        """
        worst, refuted, faults, wrong_verdict = 0.0, 0, [], False
        for name, t_max, value, exact, bound in points:
            err = abs(value - exact) / abs(exact)
            worst = max(worst, err)
            if err > ORACLE_RTOL:
                faults.append(f"{name}: {value!r} vs oracle {exact!r}")
            if (value <= bound) != (exact <= bound):
                faults.append(f"{name}: verdict differs from the oracle's")
                wrong_verdict = True
            if exact <= bound and t_max <= GAMMA_CROSSOVER:
                faults.append(f"{name}: holds below the crossover")
                wrong_verdict = True
            refuted += exact > bound
        if faults:
            actual = "; ".join(faults[:6]) + (" ..." if len(faults) > 6 else "")
        else:
            actual = (
                f"refuted at {refuted} of {len(points)} points, as the oracle finds "
                f"(worst rel {worst:.1e})"
            )
        expected = f"oracle verdicts; refuted where t_max <= {GAMMA_CROSSOVER}"
        self.add(case_id, inputs, expected, actual,
                 float("inf") if wrong_verdict else worst, ORACLE_RTOL)


def _central_diff(f, x, h=_FD_STEP):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _E_oracle(x: float, z: float) -> float:
    """E(x, z) = int_0^z x^t / Gamma(t+1) dt by mpmath.quad, split at the integers."""
    import mpmath as mp

    with mp.workdps(ORACLE_DPS):
        x, z = mp.mpf(x), mp.mpf(z)
        nodes = [mp.mpf(k) for k in range(int(mp.ceil(z)))] + [z]
        return float(mp.quad(lambda t: x**t * mp.rgamma(t + 1), nodes))


def _rho_oracle(x: float, y: float, z: float) -> float:
    """rho(x, y, z) = x^z E(y (z-1)^2 / 2x, z - 1), E by ``_E_oracle``."""
    import mpmath as mp

    with mp.workdps(ORACLE_DPS):
        x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
        return float(x**z * _E_oracle(y * (z - 1) ** 2 / (2 * x), z - 1))


def _c_recursion_oracle() -> tuple[float, ...]:
    """c_0 .. c_{TABLE_ORDER} by the recursion at 30 + TABLE_ORDER digits, rounded to binary64.

    (n+1) c_{n+1} = sum_{k<=n} (-1)^k zh(k+1) c_{n-k} with zh(1) = gamma and
    zh(k) = zeta(k); the module docstring of ``cpoch.recip_gamma`` says why
    binary64 cannot run it.
    """
    import mpmath as mp

    with mp.workdps(30 + TABLE_ORDER):
        zh = [mp.mpf(0), +mp.euler] + [mp.zeta(k) for k in range(2, TABLE_ORDER + 2)]
        coeffs = [mp.mpf(1)]
        for n in range(TABLE_ORDER):
            acc = mp.fsum(
                (-1) ** k * zh[k + 1] * coeffs[n - k] for k in range(n + 1)
            )
            coeffs.append(acc / (n + 1))
        return tuple(float(c) for c in coeffs)


#: Equally spaced theta per sector at which ``_circle_sector_oracle`` samples.
CIRCLE_SECTOR_GRID = 33


def _circle_sector_oracle() -> tuple[float, ...]:
    """Upper bounds on ln|1/Gamma(1 + t)|, t = r e^(i theta), over each sector
    s pi/S <= theta <= (s+1) pi/S of the head cut's circle (r, S as shipped).

    Each is the largest sampled value plus r max|psi(1 + t)| times half the
    spacing: the theta-derivative of ln|1/Gamma(1 + t)| is Im(t psi(1 + t)),
    at most r |psi(1 + t)|.  The value at each midpoint between samples,
    where that margin is used most, is taken too, so a margin too thin
    there raises the bound.  mpmath's double-precision context serves: its
    error, ~1e-13 here, is far below the shipped bounds' rounding up.
    """
    import cmath

    from mpmath import fp

    sectors = len(_SECTOR_LOG_BOUNDS)
    step = math.pi / sectors / (CIRCLE_SECTOR_GRID - 1)
    bounds = []
    for s in range(sectors):
        ts = [_CIRCLE_RADIUS * cmath.exp(1j * (math.pi * s / sectors + i * step / 2))
              for i in range(2 * CIRCLE_SECTOR_GRID - 1)]
        values = [-fp.loggamma(1 + t).real for t in ts]
        slope = _CIRCLE_RADIUS * max(abs(fp.digamma(1 + t)) for t in ts[::2])
        bounds.append(max(max(values[::2]) + slope * step / 2, max(values[1::2])))
    return tuple(bounds)


def _rule_oracle(kind: str, n: int, starts) -> list[tuple]:
    """(node, weight) pairs of the n-node Gauss rule, ascending, by Newton at RULE_DPS digits.

    Newton runs from each of ``starts``, the rule's non-negative nodes, and
    the result is mirrored about 0.

    Legendre on [-1, 1]: P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1),
    (1 - x^2) P_n' = n (P_{n-1} - x P_n), w = 2 / ((1 - x^2) P_n'^2).
    Hermite for the standard normal law: He_{j+1} = x He_j - j He_{j-1},
    He_n' = n He_{n-1}, w = n! / (n He_{n-1})^2.
    """
    import mpmath as mp

    def values(x):  # (p_{n-1}(x), p_n(x))
        prev, cur = mp.mpf(0), mp.mpf(1)
        for j in range(n):
            if kind == "legendre":
                prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
            else:
                prev, cur = cur, x * cur - j * prev
        return prev, cur

    def derivative(x, prev, cur):
        if kind == "legendre":
            return n * (prev - x * cur) / (1 - x * x)
        return n * prev

    out = []
    with mp.workdps(RULE_DPS):
        for start in starts:
            x = mp.mpf(start)
            for _ in range(3):  # from ~1e-13, two steps pass 40 digits; one spare
                prev, cur = values(x)
                x -= cur / derivative(x, prev, cur)
            prev, cur = values(x)
            if kind == "legendre":
                weight = 2 / ((1 - x * x) * derivative(x, prev, cur) ** 2)
            else:
                weight = mp.factorial(n) / (n * prev) ** 2
            out.append((x, weight))
        return [(-x, w) for x, w in reversed(out[n % 2:])] + out


def _groupoid_oracle(n: int, k: int) -> tuple[Fraction, ...]:
    """(|G^e|, |G^o|) by summing every composition of n - k term by term."""
    m = n - k
    sums = [0, 0]
    for parts in _compositions(m) if m else ():
        term, prefix = math.factorial(m), k - 1
        for a in parts:
            prefix += a
            term = term // math.factorial(a) * prefix ** (2 * a)
        sums[len(parts) % 2] += term
    return tuple(Fraction(s, 2**m * math.factorial(m)) for s in sums)


def _stilde_forward_oracle(max_n: int) -> tuple[tuple[Fraction, ...], ...]:
    """St rows 0..max_n by exact forward substitution against st.

    st = (-1)^(n-k) rt is unit lower triangular, so its inverse has
    St_{n,n} = 1 and St_{n,k} = -sum_{k<=l<n} st_{n,l} St_{l,k} for n > k.
    O(max_n^3) Fraction products, independent of the groupoid recurrence
    that ``rtilde_triangle`` builds St from.
    """
    st = [[(-1) ** (n - l) * rtilde_coefficient(n, l) for l in range(n + 1)]
          for n in range(max_n + 1)]
    rows: list[tuple[Fraction, ...]] = []
    for n in range(max_n + 1):
        row = [Fraction(0)] * (n + 1)
        row[n] = Fraction(1)
        for k in range(n - 1, -1, -1):
            row[k] = -sum((st[n][l] * rows[l][k] for l in range(k, n)), Fraction(0))
        rows.append(tuple(row))
    return tuple(rows)


# ----------------------------------------------------------------- kernel


def _suite_kernel() -> list[CaseResult]:
    col = _Collector("kernel")

    for z in GAMMA_RECURRENCE_Z:
        col.close("gamma_recurrence", {"z": z}, gamma(z + 1.0), z * gamma(z), 1e-12,
                  scale=abs(gamma(z + 1.0)))

    z_grid = (0.5, 1.0, 2.0, 5.0, 20.0)
    x_grid = (0.0, 0.5, 1.0, 3.0, 10.0, 30.0)
    monotone_x = all(
        regularized_q(z, a).value >= regularized_q(z, b).value - 1e-13
        for z in z_grid
        for a, b in zip(x_grid, x_grid[1:])
    )
    col.holds("q_nonincreasing_in_x", {"z": z_grid, "x": x_grid}, monotone_x)
    monotone_z = all(
        regularized_q(za, x).value <= regularized_q(zb, x).value + 1e-13
        for x in x_grid
        for za, zb in zip(z_grid, z_grid[1:])
    )
    col.holds("q_nondecreasing_in_z", {"z": z_grid, "x": x_grid}, monotone_z)

    q = regularized_q(1000.0, 1000.0, 1e-12)
    col.add("q_central_value", {"z": 1000, "x": 1000}, "0.5", f"{q.value:.17g}",
            abs(q.value - 0.5) if q.converged else float("inf"), 0.01)

    # the direct sum against exp(log_e_partial) and, on n <= 20, x < 40,
    # against e_{n-1}(x) = e^x Gamma(n, x) / Gamma(n)
    worst_paths = worst_identity = 0.0
    for n in range(1, 31):
        for x in (0.1, 1.0, 5.0, 20.0, 40.0):
            a = e_partial_sum(n, x)
            b = math.exp(log_e_partial(float(n), x))
            worst_paths = max(worst_paths, abs(a - b) / abs(a))
            if n <= 20 and x < 40.0:
                rhs = math.exp(x) * regularized_q(float(n), x, 1e-15).value
                worst_identity = max(worst_identity, abs(a - rhs) / abs(a))
    col.add("e_partial_two_paths", {"n": "1..30", "x": "(0, 40]"},
            "0", f"{worst_paths:.3e}", worst_paths, 1e-10)
    col.add("partial_exponential_identity", {"n": "1..20", "x": (0.1, 1, 5, 20)},
            "0", f"{worst_identity:.3e}", worst_identity, 1e-10)

    z = 100.0
    stirling_main = 0.5 * math.log(2 * math.pi) - z + (z - 0.5) * math.log(z)
    dev = abs(math.lgamma(z) - stirling_main)
    col.add("stirling_asymptotic", {"z": z}, "0", f"{dev:.3e}", dev, math.log(1.01))

    devs = []
    x, y = 2.0, 1.0
    for z in (50.0, 100.0, 200.0):
        a = x / y
        log_r = z * math.log(y) + math.lgamma(a + z) - math.lgamma(a)
        log_asym = (
            0.5 * math.log(2 * math.pi) - math.lgamma(a)
            + z * math.log(y) - z + (z + a - 0.5) * math.log(z)
        )
        devs.append(abs(log_r - log_asym))
    col.holds("pochhammer_asymptote_trend", {"x": x, "y": y, "z": (50, 100, 200)},
              devs[0] > devs[1] > devs[2], f"log devs {devs}")

    return col.cases


# ------------------------------------------------------------------ recip


def _suite_recip() -> list[CaseResult]:
    col = _Collector("recip")
    table = c_table(TABLE_ORDER)

    worst = max(abs(c_composition_oracle(n) - table[n]) for n in range(1, 16))
    col.add("c_recursion_vs_compositions", {"n": "1..15"},
            "0", f"{worst:.3e}", worst, 1e-10)

    worst = max(abs(a - b) / math.ulp(b) for a, b in zip(table, _c_recursion_oracle()))
    col.add("c_table_vs_recursion", {"n": f"0..{TABLE_ORDER}", "dps": 30 + TABLE_ORDER},
            "0 ulp", f"{worst:g} ulp", worst, 0.0)

    # the head cut's Cauchy estimate needs each shipped sector bound at or above its oracle
    short = max(b - shipped for b, shipped in zip(_circle_sector_oracle(), _SECTOR_LOG_BOUNDS))
    col.add("circle_sector_bounds",
            {"r": _CIRCLE_RADIUS, "sectors": len(_SECTOR_LOG_BOUNDS), "grid": CIRCLE_SECTOR_GRID},
            "every bound >= its oracle", f"largest shortfall {short:.3g}", max(short, 0.0), 0.0)

    # Each shipped rule against the Newton solve started from its own
    # non-negative nodes; the refined nodes must be distinct, so each root is
    # found once.
    rules = [("legendre", n, _LEGENDRE_RULES[n]) for n in sorted(_LEGENDRE_RULES)]
    rules += [("hermite", n, _hermite_rule(n)) for n in HERMITE_RULE_NODES]
    for kind, n, (nodes, weights) in rules:
        exact = _rule_oracle(kind, n, nodes[n // 2:])
        node_err = max(float(abs(x - ex)) / max(1.0, abs(x)) for x, (ex, _) in zip(nodes, exact))
        weight_err = max(float(abs(w - ew) / ew) for w, (_, ew) in zip(weights, exact))
        distinct = all(a[0] < b[0] for a, b in zip(exact, exact[1:]))
        col.add("gauss_rule_vs_newton", {"rule": kind, "nodes": n},
                f"{RULE_DPS}-digit rule, distinct roots",
                f"node {node_err:.3g}, weight {weight_err:.3g}"
                + ("" if distinct else ", roots repeat"),
                max(node_err, weight_err) if distinct else float("inf"), RULE_RTOL)

    for t in RECIP_SERIES_T:
        series = recip_gamma_series(t)
        exact = 1.0 / math.gamma(t + 1.0)
        err = abs(series.value - exact) if series.converged else float("inf")
        col.add("series_vs_gamma", {"t": t, "N": TABLE_ORDER},
                f"{exact:.17g}", f"{series.value:.17g}", err, 1e-12)

    col.holds("c80_decay", {"n": 80}, abs(table[80]) < 1e-12, f"|c_80| = {abs(table[80]):.3e}")

    x = 2.0
    worst = 0.0
    for k in (1, 2):
        for t in (0.2, 1.1):
            series = E_deriv_z(x, t, k + 1)  # k-th derivative of the integrand
            if k == 1:
                fd = _central_diff(lambda s: x**s / math.gamma(s + 1.0), t)
            else:
                # second differences need a coarser step: rounding grows as eps/h^2
                h = 1e-4
                fd = (
                    x ** (t + h) / math.gamma(t + h + 1.0)
                    - 2.0 * x**t / math.gamma(t + 1.0)
                    + x ** (t - h) / math.gamma(t - h + 1.0)
                ) / h**2
            worst = max(worst, abs(series - fd) / max(1.0, abs(series)))
    col.add("weighted_derivative_series", {"x": x, "k": (1, 2), "t": (0.2, 1.1)},
            "0", f"{worst:.3e}", worst, 1e-6)

    h = 1e-5
    fd = (weighted_series_coeffs(2.0 + h)[3] - weighted_series_coeffs(2.0 - h)[3]) / (2.0 * h)
    target = weighted_series_coeffs(2.0)[2] / 2.0
    col.add("coefficient_x_derivative", {"n": 3, "x": 2.0},
            f"{target:.12e}", f"{fd:.12e}", abs(fd - target), 1e-7)

    return col.cases


# --------------------------------------------------------------- discrete


def _suite_discrete() -> list[CaseResult]:
    col = _Collector("discrete")
    first = stirling_triangle("first_unsigned", 12)
    second = stirling_triangle("second", 12)

    ok = all(
        first.value(n, k) == stirling_lattice_oracle(n, k)
        for n in range(10)
        for k in range(n + 1)
    )
    col.holds("triangle_vs_lattice_oracle", {"n": "0..9"}, ok)

    ok = all(sum(first.row(n)) == math.factorial(n) for n in range(13))
    col.holds("row_sums_factorial", {"n": "0..12"}, ok)

    ok = all(
        sum(first.value(n, k) * 2 ** (n - k) for k in range(n + 1))
        == pochhammer_discrete(1, 2, n)
        for n in range(13)
    )
    col.holds("double_factorial_rows", {"n": "0..12"}, ok)

    ok = True
    for n in range(11):
        for x in range(-3, 4):
            xf = Fraction(x)
            rhs = sum(
                second.value(n, k) * pochhammer_discrete(xf, Fraction(-1), k)
                for k in range(n + 1)
            )
            if rhs != xf**n:
                ok = False
    col.holds("powers_from_falling_factorials", {"n": "0..10", "x": "-3..3"}, ok)

    ok = all(
        simplex_moment(Fraction(p, q), k)
        == pochhammer_discrete(1, 2, k) * Fraction(p, q) ** (2 * k) / math.factorial(2 * k)
        for p, q in ((1, 2), (3, 1), (7, 5))
        for k in range(9)
    )
    col.holds("moment_double_factorial_form", {"k": "0..8"}, ok)

    ok = all(
        pochhammer_discrete(n, -1, n) == math.factorial(n) for n in range(16)
    )
    col.holds("falling_factorial_is_factorial", {"n": "0..15"}, ok)
    ok = all(pochhammer_discrete(1, 1, n) == math.factorial(n) for n in range(16))
    col.holds("rising_factorial_is_factorial", {"n": "0..15"}, ok)

    for k in SIMPLEX_K:
        for x in SIMPLEX_X:
            vol, mom = simplex_volume(x, k), simplex_moment(x, k)
            err = max(
                abs(integrate_simplex(k, x, moment=False) - vol) / max(1.0, vol),
                abs(integrate_simplex(k, x, moment=True) - mom) / max(1.0, mom),
            )
            col.add("simplex_quadrature_vs_closed_forms", {"k": k, "x": x},
                    "0", f"{err:.3e}", err, 1e-7)

    discrete, continuous = power_sum_pair(10_000, 2)
    ratio = discrete / continuous
    col.add("power_sum_ratio_limit", {"n": 10_000, "k": 2},
            "1", f"{ratio:.8f}", abs(ratio - 1.0), 2e-4)

    # The ratio decays only like 1/ln(x), so the 0.01 mark needs x ~ e^100.
    ratios = []
    for x in (1e2, 1e6, 1e50):
        discrete, continuous = geometric_sum_pair(x, 2.0)
        ratios.append(continuous / discrete)
    col.holds("geometric_ratio_decreasing", {"x": "1e2,1e6,1e50", "y": 2},
              ratios[0] > ratios[1] > ratios[2], f"ratios {[f'{r:.3e}' for r in ratios]}")
    col.add("geometric_ratio_limit", {"x": 1e50, "y": 2},
            "0", f"{ratios[2]:.3e}", ratios[2], 0.01)

    return col.cases


# -------------------------------------------------------------- analogue1


def _suite_analogue1() -> list[CaseResult]:
    col = _Collector("analogue1")
    grid = (0.5, 1.0, 2.0)

    worst = 0.0
    for n in range(2, 13):
        for x in grid:
            for y in grid:
                lhs = rtilde_closed(x, y, n + 1)
                rhs = x * rtilde_closed(x, n**2 / (n - 1) ** 2 * y, n) + n ** (2 * n) * x * y**n / (
                    2**n * math.factorial(n)
                )
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    col.add("order_recursion", {"n": "2..12", "x,y": grid}, "0", f"{worst:.3e}", worst, 1e-10)

    worst = 0.0
    for n in range(3, 9):
        for x in grid:
            for y in grid:
                shrunk = (n - 1) ** 2 / (n - 2) ** 2 * y
                fd_x = _central_diff(lambda s: rtilde_closed(s, y, n), x)
                rhs = n * rtilde_closed(x, y, n) - (n - 1) ** 2 * y / 2.0 * rtilde_closed(x, shrunk, n - 1)
                worst = max(worst, abs(x * fd_x - rhs) / max(1.0, abs(rhs)))
                fd_y = _central_diff(lambda s: rtilde_closed(x, s, n), y)
                rhs_y = (n - 1) ** 2 / 2.0 * rtilde_closed(x, shrunk, n - 1)
                worst = max(worst, abs(fd_y - rhs_y) / max(1.0, abs(rhs_y)))
    col.add("scale_derivative_identities", {"n": "3..8", "x,y": grid},
            "0", f"{worst:.3e}", worst, _FD_TOL)

    worst = 0.0
    for y in (0.5, 1.0, 2.0):
        worst = max(worst, abs(e_partial_sum(60, y) - math.exp(y)))
    col.add("reduced_limit_to_exp", {"n": 60, "y": (0.5, 1, 2)},
            "0", f"{worst:.3e}", worst, 1e-12)

    def log_dev_seq(kind):
        devs = []
        if kind == "a":  # fixed y, z -> infinity
            y = 15.0
            for z in (20.0, 40.0, 80.0):
                lhs = math.exp(y) * regularized_q(z, y).value
                rhs = math.exp(y) - math.exp(z * math.log(y) - math.lgamma(z + 1.0))
                devs.append(abs(math.log(lhs) - math.log(rhs)))
        elif kind == "b":  # fixed z, y -> infinity
            z = 6.0
            for y in (50.0, 100.0, 200.0):
                lhs = log_e_partial(z, y)
                rhs = (z - 1.0) * math.log(y) - math.lgamma(z)
                devs.append(abs(lhs - rhs))
        elif kind == "c":
            x = 12.0
            for z in (20.0, 40.0, 80.0):
                lhs = math.exp(x) * regularized_q(z, x).value
                rhs = math.exp(x) - math.exp(z * math.log(x) - math.lgamma(z + 1.0))
                devs.append(abs(math.log(lhs) - math.log(rhs)))
        elif kind == "d":
            z = 6.0
            for x in (50.0, 100.0, 200.0):
                lhs = (1.0 - z) * math.log(x) + log_e_partial(z, x)
                rhs = -math.lgamma(z)
                devs.append(abs(lhs - rhs))
        else:  # "e": along the diagonal
            for z in (20.0, 40.0, 80.0):
                lhs = math.log(regularized_q(z, z).value)
                devs.append(abs(lhs - math.log(0.5)))
        return devs

    # a and c reach a deviation of exactly 0 in binary64 by their third point
    for kind in "abcde":
        devs = log_dev_seq(kind)
        ok = devs[0] > devs[1] >= devs[2] if kind in "ac" else devs[0] > devs[1] > devs[2]
        col.holds(f"asymptote_trend_{kind}", {"points": 3},
                  ok, f"log devs {[f'{d:.3e}' for d in devs]}")

    tri = rtilde_triangle(RTILDE_MAX_N)
    forward = _stilde_forward_oracle(RTILDE_MAX_N)
    col.holds("st_vs_forward_substitution", {"n": f"0..{RTILDE_MAX_N}"},
              tri.S_rows == forward)

    ok = all(
        sum(tri.s(n, l) * tri.S(l, k) for l in range(k, n + 1))
        == sum(tri.S(n, l) * tri.s(l, k) for l in range(k, n + 1))
        == (1 if n == k else 0)
        for n in range(13)
        for k in range(n + 1)
    )
    col.holds("exact_inversion", {"n": "0..12", "orders": "both"}, ok)

    ok = all(
        stilde_mobius_oracle(n, k) == tri.S(n, k)
        for n in range(1, 13)
        for k in range(1, n + 1)
    )
    col.holds("mobius_chain_oracle", {"n": "1..12"}, ok)

    # Each cell against rt and St, against the composition oracle (n <= 12)
    # and, for n > k, under |G^e| + |G^o| <= (n-1)^(2(n-k)) S_{n-k}(n-k) / (2^(n-k) (n-k)!)
    ok_identity = ok_oracle = ok_bound = True
    for n in range(1, 26):
        for k in range(1, n + 1):
            cards = groupoid_cardinalities(n, k)
            if cards.g != tri.r(n, k):
                ok_identity = False
            if n <= 12 and (cards.g_even, cards.g_odd) != _groupoid_oracle(n, k):
                ok_oracle = False
            if n > k:
                m = n - k
                if (-1) ** m * (cards.g_even - cards.g_odd) != forward[n][k]:
                    ok_identity = False
                bound = Fraction((n - 1) ** (2 * m) * power_sum_pair(m, m)[0],
                                 2**m * math.factorial(m))
                if cards.g_even + cards.g_odd > bound:
                    ok_bound = False
    col.holds("groupoid_identity", {"n": "1..25"}, ok_identity)
    col.holds("groupoid_vs_composition_oracle", {"n": "1..12"}, ok_oracle)
    col.holds("composition_sum_bound", {"n": "2..25"}, ok_bound)

    worst_ext = worst_series = 0.0
    compared = 0
    for n in range(1, 13):
        for x in grid:
            for y in grid:
                closed = rtilde_closed(x, y, n)
                poly = rtilde_poly(x, y, n)
                ext = rtilde_ext(x, y, float(n))
                worst_ext = max(worst_ext, abs(poly - closed) / abs(closed),
                                abs(ext - closed) / abs(closed))
                lo = rtilde_series_lower(x, y, float(n))
                hi = rtilde_series_upper(x, y, float(n))
                if lo.converged and hi.converged:
                    compared += 1
                    worst_series = max(worst_series,
                                       abs(lo.value - hi.value) / max(1.0, abs(hi.value)))
    col.add("extension_consistency", {"n": "1..12", "x,y": grid},
            "0", f"{worst_ext:.3e}", worst_ext, 1e-10)
    col.add("series_forms_mutual", {"compared": compared},
            "0", f"{worst_series:.3e}", worst_series, 1e-9)
    col.holds("series_forms_region_nonempty", {"compared": compared}, compared >= 10)

    worst = 0.0
    for n in range(1, 11):
        for y in (0.3, 1.0, 2.5):
            expected = rtilde_closed(1.0, y, n)
            got = gaussian_expectation(y, n)
            worst = max(worst, abs(got - expected) / abs(expected))
    col.add("gaussian_expectation", {"n": "1..10", "y": (0.3, 1, 2.5)},
            "0", f"{worst:.3e}", worst, 1e-9)

    ok = True
    for x in (0.7, 1.0, 2.5, 4.0):
        for y in (0.25, 1.0, 3.0):
            for z in (1.3, 2.0, 4.7, 9.5):
                w = y * (z - 1.0) ** 2 / (2.0 * x)
                if rtilde_ext(x, y, z) > x**z * math.exp(w) * (1.0 + 1e-12):
                    ok = False
    col.holds("upper_envelope", {"grid": "4x3x4"}, ok)

    x, y, z = 2.0, 3.0, 2.5
    a = rtilde_ext(x, y, z)
    b = y**z * rtilde_ext(x / y, 1.0, z)
    col.add("scaling_identity", {"x": x, "y": y, "z": z},
            f"{a:.15e}", f"{b:.15e}", abs(a - b) / abs(a), 1e-11)

    return col.cases


# -------------------------------------------------------------- analogue2


def _suite_analogue2() -> list[CaseResult]:
    col = _Collector("analogue2")
    _, m_min = gamma_minimum()
    slack = (1.0 - m_min) / m_min

    for x in E_SERIES_X:
        for z in E_SERIES_Z:
            s = E_series(x, z, 1e-10)
            q = E_quadrature(x, z, 1e-12)
            err = abs(s.value - q) / abs(q) if s.converged else float("inf")
            col.add("series_vs_quadrature", {"x": x, "z": z},
                    f"{q:.17g}", f"{s.value:.17g}", err, 1e-8)

    # Euler's identity x rho_x + y rho_y = z rho, y rho_y against its series
    # and rho_z against its closed form, from one rho and three central
    # differences per point
    worst_euler = worst_y = worst_z = 0.0
    for x in (0.5, 1.0, 2.0):
        for y in (0.5, 1.0, 2.0):
            for z in (1.5, 2.5, 4.0):
                r0 = rho(x, y, z, 1e-12)
                dx = _central_diff(lambda s: rho(s, y, z, 1e-12), x)
                dy = _central_diff(lambda s: rho(x, s, z, 1e-12), y)
                dz = _central_diff(lambda s: rho(x, y, s, 1e-12), z)
                resid = abs(x * dx + y * dy - z * r0) / max(1.0, abs(z * r0))
                worst_euler = max(worst_euler, resid)
                zz = z - 1.0
                w = y * zz**2 / (2.0 * x)
                series = 0.0
                coeffs = weighted_series_coeffs(w)
                power = zz**2
                for n in range(2, len(coeffs) + 2):
                    series += coeffs[n - 2] * power / n
                    power *= zz
                series *= x**z
                worst_y = max(worst_y, abs(y * dy - series) / max(1.0, abs(series)))
                rhs = math.log(x) * r0 + 2.0 * y / zz * dy + x**z * E_deriv_z(w, zz, 1)
                worst_z = max(worst_z, abs(dz - rhs) / max(1.0, abs(rhs)))
    col.add("euler_identity", {"x,y": "{0.5,1,2}", "z": "{1.5,2.5,4}"},
            "0", f"{worst_euler:.3e}", worst_euler, _FD_TOL)
    col.add("y_derivative_series", {"grid": "3x3x3"}, "0", f"{worst_y:.3e}", worst_y, _FD_TOL)
    col.add("z_derivative_identity", {"grid": "3x3x3"}, "0", f"{worst_z:.3e}", worst_z, _FD_TOL)

    # Envelope bounds built on Gamma(t+1) >= e^(gamma t): the published
    # orientation, refuted below t = 2.9097 (see the module docstring), judged
    # by the oracle; and the convexity-backed Gamma(t+1) >= e^(-gamma t).
    e_neg = math.exp(-EULER_GAMMA)
    z_grid = (0.5, 1.0, 2.0, 5.0)
    points = [(f"z={z:g}", z, E_series(E_GAMMA, z, 1e-10).value, _E_oracle(E_GAMMA, z), z)
              for z in z_grid]
    col.as_stated("linear_envelope_as_stated", {"z": (0.5, 1, 2, 5)}, points)
    ok_fixed = all(E_series(e_neg, z, 1e-10).value <= z for z in z_grid)
    col.holds("linear_envelope_sign_corrected", {"z": (0.5, 1, 2, 5)}, ok_fixed)

    # With y = 2/(z-1)^2, rho(x, y, z) = x^z E(1/x, z-1): the same flipped sign
    # on t in (0, z-1).
    z_grid = (2.0, 3.0, 5.0, 10.0)
    points, ok_fixed = [], True
    for z in z_grid:
        y = 2.0 / (z - 1.0) ** 2
        points.append((f"z={z:g}", z - 1.0, rho(e_neg, y, z, 1e-12), _rho_oracle(e_neg, y, z),
                       (z - 1.0) * math.exp(-EULER_GAMMA * z)))
        if rho(E_GAMMA, y, z, 1e-12) > (z - 1.0) * math.exp(EULER_GAMMA * z) * (1 + 1e-12):
            ok_fixed = False
    col.as_stated("rho_envelope_as_stated", {"z": (2, 3, 5, 10)}, points)
    col.holds("rho_envelope_sign_corrected", {"z": (2, 3, 5, 10)}, ok_fixed)

    points, ok_fixed = [], True
    for x in (0.5, 2.0, math.e, 5.0):
        for z in z_grid:
            y = 2.0 / (z - 1.0) ** 2
            lhs = rho(x, y, z, 1e-12)
            bound = (x**z - x * math.exp(EULER_GAMMA * (1.0 - z))) / (math.log(x) + EULER_GAMMA)
            points.append((f"x={x:.3g} z={z:g}", z - 1.0, lhs, _rho_oracle(x, y, z), bound))
            fixed = (x**z - x * math.exp(EULER_GAMMA * (z - 1.0))) / (math.log(x) - EULER_GAMMA)
            if lhs > fixed * (1 + 1e-12):
                ok_fixed = False
    col.as_stated("rho_ratio_envelope_as_stated", {"x": "4-pt", "z": "4-pt"}, points)
    col.holds("rho_ratio_envelope_sign_corrected", {"x": "4-pt", "z": "4-pt"}, ok_fixed)

    ok = True
    for x in (0.3, 0.9, 1.0, 1.5, 4.0):
        for z in (2.2, 3.7, 6.5):
            e_val = E_quadrature(x, z, 1e-12)
            fl, ce = math.floor(z), math.ceil(z)
            if x >= 1.0:
                lower = (e_partial_sum(fl + 1, x) - 1.0) / x
                upper = x * (e_partial_sum(ce, x) + slack)
            else:
                lower = e_partial_sum(fl + 1, x) - 1.0
                upper = e_partial_sum(ce, x) + slack
            if not lower <= e_val * (1 + 1e-12) or not e_val <= upper * (1 + 1e-12):
                ok = False
    col.holds("sandwich_bounds", {"x": "5-pt", "z": "3-pt"}, ok)

    ok = True
    for y, is_big in ((2.0, True), (0.5, False)):
        e_val = E_quadrature(y, 39.0, 1e-12)
        if is_big:
            lo, hi = (math.exp(y) - 1.0) / y, y * (math.exp(y) + slack)
        else:
            lo, hi = math.exp(y) - 1.0, math.exp(y) + slack
        if not lo <= e_val <= hi:
            ok = False
    col.holds("limit_bounds", {"n": 40, "y": (0.5, 2)}, ok)

    ok = True
    for n in range(3, 13):
        for x in (1.0, 2.0):
            for y in (0.5, 1.0, 2.0):
                if (n - 1) ** 2 * y >= 2.0 * x >= 2.0:
                    lhs = x * rho(x, y, float(n), 1e-12)
                    rhs = n**2 * y * rtilde_closed(x, y, n)
                    if lhs > rhs * (1 + 1e-12):
                        ok = False
    col.holds("cross_bound_rho_rtilde", {"n": "3..12"}, ok)

    ok = True
    for n in (10, 20, 40):
        for y in (1.0, 2.0):
            log_rho_reduced = math.log(E_quadrature(y, n - 1.0, 1e-12))
            # rho((n-1)^2, 2y, n) <= 10 n^(2n), compared in log space
            if log_rho_reduced + 2 * n * math.log(n - 1.0) > math.log(10.0) + 2 * n * math.log(n):
                ok = False
        e_big = E_quadrature(float(n), n - 1.0, 1e-10)
        if math.log(e_big) > math.log(10.0) + math.log(n) + n:
            ok = False
    col.holds("asymptotic_envelopes", {"n": (10, 20, 40), "constant": 10}, ok)

    gap = abs(E_quadrature(1.0, 29.0, 1e-12) - nu(1.0, 1e-12))
    col.add("nu_truncation_gap", {"x": 1.0, "z": 29.0}, "0", f"{gap:.3e}", gap, 1e-10)

    ok = True
    s_grid = (0.1, 0.5, 1.0, 2.0)
    for s in s_grid:
        vals = [E_quadrature(math.exp(-s), z, 1e-12) for z in (1.0, 2.0, 4.0, 8.0)]
        if any(b < a - 1e-13 for a, b in zip(vals, vals[1:])):
            ok = False
    nus = [nu(math.exp(-s), 1e-11) for s in s_grid]
    if any(b >= a for a, b in zip(nus, nus[1:])):
        ok = False
    col.holds("laplace_monotonicity", {"s": s_grid}, ok)

    col.close("integrand_derivative", {"x": 1.3, "z": 0.8},
              1.3**0.8 / math.gamma(1.8), E_deriv_z(1.3, 0.8, 1), 1e-9)
    fd = _central_diff(lambda s: E_deriv_z(2.0, s, 1), 1.5)
    col.close("second_derivative_fd", {"x": 2.0, "z": 1.5}, fd, E_deriv_z(2.0, 1.5, 2), 1e-6,
              scale=abs(fd))

    nu1 = nu(1.0, 1e-10)
    col.close("mu_reduces_to_nu", {"x": 1.0}, nu1, mu_function(1.0, 0.0, 0.0, 1e-10), 1e-8,
              scale=1.0)
    col.close("mu_is_tail_of_nu", {"x": 1.5, "z": 2.0},
              nu(1.5, 1e-11) - E_quadrature(1.5, 2.0, 1e-11),
              mu_function(1.5, 0.0, 2.0, 1e-10), 1e-8, scale=1.0)
    # pushing mu's certified cutoff out by 10 changes nothing
    a = mu_function(1.0, 1.0, 0.0, 1e-10)
    integrand, cutoff = _mu_integrand(1.0, 1.0, 0.0, 1e-10)
    b, _ = integrate_adaptive(QuadratureRequest(integrand, 0.0, cutoff + 10.0, tolerance=1e-10 / 2.0))
    col.close("mu_cutoff_consistency", {"x": 1.0, "beta": 1.0, "cutoff": cutoff + 10.0},
              a, b, 1e-9)

    v2 = nu(2.0, 1e-10)
    col.holds("nu_lower_bound", {"x": 2.0}, v2 >= (math.e**2 - 1.0) / 2.0, f"nu(2) = {v2:.6f}")
    v = nu(0.5, 1e-10)
    ok = math.exp(0.5) - 1.0 <= v <= math.exp(0.5) + slack
    col.holds("nu_bracket", {"x": 0.5}, ok, f"nu(0.5) = {v:.6f}")

    return col.cases


_SUITES = {
    "kernel": _suite_kernel,
    "recip": _suite_recip,
    "discrete": _suite_discrete,
    "analogue1": _suite_analogue1,
    "analogue2": _suite_analogue2,
}


def run_suite(name: str) -> VerificationReport:
    """Run one property suite (or 'all'); deterministic case ordering."""
    if name == "all":
        report = VerificationReport("all")
        for suite in SUITE_NAMES:
            report.cases.extend(_SUITES[suite]())
        return report
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return VerificationReport(name, _SUITES[name]())
