"""Oracles that judge every op, evaluated by the runner after the timed run.

Tolerances follow each function's contract at tol = 1e-10 (the CLI
default): absolute for Q; for every other float op, relative to
max(1, |value|), and for a ``LogScaled`` result relative to
max(1, |log magnitude|), the precision that representation carries.

A 40-digit ``mpmath.gammainc`` (Q) or 30-digit ``mp.quad`` (E, nu, mu, rho)
costs milliseconds, far more than the op it judges, so each op is first
compared with a double-precision reference that carries an error bound:
``scipy.special`` for the gamma kernel, and Gauss-Legendre (tanh-sinh next
to the t^beta singularity of mu) summed in log space for the integrals.
Only when the bound cannot settle the verdict does the high-precision
oracle decide.  selftest.py checks the references against those oracles.
The exact layers and the CLI are judged against digests and stdout bytes
recorded at one commit (expected.json).
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import special

from workloads import TOL

_EPS = 2.220446049250313e-16
_SCIPY_Q_ERR = 1e-13  # absolute; selftest measures ~2e-15
_SCIPY_LOGQ_ERR = 5e-11  # in log Q below 0.5; selftest measures ~1e-11
_QUAD_REL_ERR = 1e-13  # Gauss-Legendre / tanh-sinh reference, relative


# --- distances --------------------------------------------------------------

def log_distance(record: tuple, log_ref: float) -> float:
    """Distance of a positive result from exp(log_ref), by the contract above."""
    kind = record[1]
    if kind in ("L", "SL"):
        sign, log_mag = record[2], record[3]
        if sign != 1:
            return math.inf
        return abs(log_mag - log_ref) / max(1.0, abs(log_ref))
    value = record[2]
    if not math.isfinite(value):
        return math.inf
    if log_ref <= 0.0:
        return abs(value - math.exp(log_ref))
    if value <= 0.0:
        return math.inf
    return abs(math.expm1(math.log(value) - log_ref))


def _decide(d: float, err: float, exact) -> bool:
    """Pass if the reference settles it; otherwise ask the exact oracle."""
    if d + err <= TOL:
        return True
    if d - err > TOL:
        return False
    return exact() <= TOL


def _judge_log(record: tuple, ref: float, err: float, exact_log) -> bool:
    """Judge against ln-value ``ref`` known to within ``err``; ``exact_log``
    gives the high-precision ln-value when the reference cannot decide."""
    if record[1] in ("L", "SL"):
        err /= max(1.0, abs(ref))
    elif ref < 0.0:
        err *= math.exp(ref + err)  # below 1 the distance is absolute
    return _decide(log_distance(record, ref), err,
                   lambda: log_distance(record, float(exact_log())))


# --- the incomplete gamma kernel -------------------------------------------

def _mp_q(z: float, x: float):
    """Q(z, x) to 40 digits or more.

    ``mpmath.gammainc`` gives up (NoConvergence) at large orders and in the
    deep tail, e.g. Q(12891.39, 27373.31) ~ e^-4770; there the lower series
    (positive terms) or Legendre's continued fraction is summed at 50 digits
    with no term limit.
    """
    with mp.workdps(40):
        try:
            return mp.re(mp.gammainc(z, x, mp.inf, regularized=True))
        except mp.libmp.NoConvergence:
            pass
    with mp.workdps(50):
        z, x = mp.mpf(z), mp.mpf(x)
        prefactor = mp.exp(z * mp.log(x) - x - mp.loggamma(z))
        eps = mp.mpf(10) ** -50
        if x <= z + 1:
            term = total = 1 / z
            k = 0
            while term > total * eps:
                k += 1
                term *= x / (z + k)
                total += term
            return 1 - prefactor * total
        b = x + 1 - z
        c = 1 / mp.mpf(10) ** -300
        d = 1 / b
        h = d
        i = 0
        while True:
            i += 1
            an = -i * (i - z)
            b += 2
            d = 1 / (an * d + b)
            c = b + an / c
            h *= d * c
            if abs(d * c - 1) < eps:
                return prefactor * h


def _mp_log_e_partial(z: float, x: float):
    with mp.workdps(40):
        return x + mp.log(_mp_q(z, x))


def _log_q_tail(z: float, x: float) -> float:
    """ln Q(z, x) far in the upper tail: 30-digit prefactor, Legendre's
    continued fraction in binary64 (modified Lentz)."""
    with mp.workdps(30):
        log_pref = float(z * mp.log(x) - x - mp.loggamma(z))
    b = x + 1.0 - z
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - z)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if d != 0.0 else 1e-300)
        c = b + an / c
        if c == 0.0:
            c = 1e-300
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return log_pref + math.log(h)


def log_q_ref(z: float, x: float) -> tuple[float, float]:
    """(ln Q(z, x), error bound)."""
    q = float(special.gammaincc(z, x))
    if q > 1e-280:
        return math.log(q), _SCIPY_LOGQ_ERR
    if x <= z + 1.0:
        return _mp_log_e_partial(z, x) - x, 1e-12
    log_q = _log_q_tail(z, x)
    return log_q, 1e-12 + 4.0 * _EPS * abs(log_q)


def judge_q(z: float, x: float, record: tuple) -> bool:
    ref = float(special.gammaincc(z, x))
    d = abs(record[2] - ref)
    return _decide(d, _SCIPY_Q_ERR, lambda: abs(record[2] - float(_mp_q(z, x))))


def judge_e_partial(z: float, x: float, record: tuple) -> bool:
    log_q, err = log_q_ref(z, x)
    ref = x + log_q
    err += 4.0 * _EPS * (abs(x) + abs(ref))
    return _judge_log(record, ref, err, lambda: _mp_log_e_partial(z, x))


def judge_rtilde_ext(x: float, y: float, z: float, record: tuple) -> bool:
    w = y * (z - 1.0) ** 2 / (2.0 * x)  # the argument cpoch evaluates Q at
    log_q, err = log_q_ref(z, w)
    # z ln x + w cancel heavily when x < 1: the binary64 sum carries its
    # bound, and 30 digits decide only when that cannot.
    z_log_x = z * math.log(x)
    ref = z_log_x + w + log_q
    err += 4.0 * _EPS * (abs(z_log_x) + abs(w) + abs(ref) + abs(log_q))

    def exact():
        with mp.workdps(30):
            head = z * mp.log(x) + w
        return head + _mp_log_e_partial(z, w) - w

    return _judge_log(record, ref, err, exact)


def _mp_log_gamma_sum(terms) -> float:
    """The sum of coef * ln Gamma(arg) or coef * ln(arg) over the terms, at 30 digits."""
    with mp.workdps(30):
        total = mp.mpf(0)
        for kind, coef, arg in terms:
            total += coef * (mp.loggamma(arg) if kind == "lgamma" else mp.log(arg))
        return float(total)


def _judge_log_sum(terms, record: tuple, exact_terms) -> bool:
    """Judge a value whose log is sum(coef * ln Gamma(arg) or coef * ln(arg)).

    ``terms`` are rounded to binary64; rounding an lgamma argument a moves
    ln Gamma by at most EPS a |digamma(a)| <= EPS (a (|ln a| + 1) + 1).
    ``exact_terms()`` gives the terms with exact (mpmath) arguments."""
    parts = []
    err = 0.0
    for kind, coef, arg in terms:
        if kind == "lgamma":
            parts.append(coef * float(special.gammaln(arg)))
            err += abs(coef) * _EPS * (arg * (abs(math.log(arg)) + 1.0) + 1.0)
        else:
            parts.append(coef * math.log(arg))
    ref = math.fsum(parts)
    err += 8.0 * _EPS * (math.fsum(abs(p) for p in parts) + 1.0)
    return _judge_log(record, ref, err, lambda: _mp_log_gamma_sum(exact_terms()))


def judge_gamma(z: float, record: tuple) -> bool:
    terms = [("lgamma", 1, z)]
    return _judge_log_sum(terms, record, lambda: terms)


def judge_gamma_y(y: float, x: float, record: tuple) -> bool:
    a = x / y

    def exact_terms():
        a = mp.mpf(x) / y
        return [("log", a - 1, y), ("lgamma", 1, a)]

    return _judge_log_sum([("log", a - 1.0, y), ("lgamma", 1.0, a)], record, exact_terms)


def judge_pochhammer(x: float, y: float, z: float, record: tuple) -> bool:
    a = x / y

    def exact_terms():
        a = mp.mpf(x) / y
        return [("log", z, y), ("lgamma", 1, a + z), ("lgamma", -1, a)]

    return _judge_log_sum([("log", z, y), ("lgamma", 1.0, a + z), ("lgamma", -1.0, a)], record,
                          exact_terms)


# --- E, nu, mu, rho --------------------------------------------------------

@lru_cache(maxsize=None)
def _legendre():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    return tuple(map(float, nodes)), tuple(map(float, weights))


@lru_cache(maxsize=None)
def _tanh_sinh(h: float = 1.0 / 64.0, s_max: float = 3.5):
    """Nodes as (ln t, ln weight) on (0, 1), the tanh-sinh substitution."""
    out = []
    k = -int(s_max / h)
    while k * h <= s_max:
        s = k * h
        u = 0.5 * math.pi * math.sinh(s)
        log_t = -math.log1p(math.exp(-2.0 * u)) if u >= 0 else 2.0 * u - math.log1p(math.exp(2.0 * u))
        log_1mt = -math.log1p(math.exp(2.0 * u)) if u <= 0 else -2.0 * u - math.log1p(math.exp(-2.0 * u))
        out.append((log_t, math.log(h * math.pi * math.cosh(s)) + log_t + log_1mt))
        k += 1
    return tuple(out)


def _log_sum(logs: list[float]) -> float:
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in logs))


def _log_gl(log_f, lo: float, hi: float) -> list[float]:
    """ln(weight * f(node)) on unit segments of [lo, hi]."""
    nodes, weights = _legendre()
    logs = []
    a = lo
    while a < hi:
        b = min(hi, a + 1.0)
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        logs += [math.log(w * half) + log_f(mid + half * t) for t, w in zip(nodes, weights)]
        a = b
    return logs


def _log_e_integrand(x: float):
    lx = math.log(x)
    return lambda t: t * lx - math.lgamma(t + 1.0)


def log_e_ref(x: float, z: float) -> float:
    """ln E(x, z) = ln of the integral of x^t / Gamma(t+1) over [0, z]."""
    return _log_sum(_log_gl(_log_e_integrand(x), 0.0, z))


def _nu_cutoff(x: float, beta: float = 0.0) -> float:
    return x + 12.0 * math.sqrt(x) + 2.0 * beta + 40.0  # tail below e^-70 of the peak


def log_nu_ref(x: float) -> float:
    return log_e_ref(x, _nu_cutoff(x))


def log_mu_ref(x: float, beta: float, alpha: float) -> float:
    lx = math.log(x)
    lg_beta = math.lgamma(beta + 1.0)

    def log_f(t: float, log_t: float) -> float:
        return (alpha + t) * lx + beta * log_t - math.lgamma(alpha + t + 1.0) - lg_beta

    head = [lw + log_f(math.exp(lt), lt) for lt, lw in _tanh_sinh()]
    tail = _log_gl(lambda t: log_f(t, math.log(t)), 1.0, _nu_cutoff(x, beta))
    return _log_sum(head + tail)


def _mp_log_quad(f, hi: float) -> float:
    with mp.workdps(30):
        points = [mp.mpf(0)] + [mp.mpf(t) for t in range(1, int(hi) + 1)] + [mp.mpf(hi)]
        return float(mp.log(mp.quad(f, sorted(set(points)))))


def mp_log_e(x: float, z: float) -> float:
    """30-digit ln E(x, z) by mp.quad over unit segments."""
    return _mp_log_quad(lambda t: mp.power(x, t) * mp.rgamma(t + 1), z)


def mp_log_mu(x: float, beta: float, alpha: float) -> float:
    return _mp_log_quad(
        lambda t: mp.power(x, alpha + t) * mp.power(t, beta) * mp.rgamma(alpha + t + 1)
        * mp.rgamma(beta + 1),
        _nu_cutoff(x, beta),
    )


def _judge_quad(ref: float, record: tuple, exact) -> bool:
    return _judge_log(record, ref, _QUAD_REL_ERR + 8.0 * _EPS * abs(ref), exact)


def judge_rho(x: float, y: float, z: float, record: tuple) -> bool:
    w = y * (z - 1.0) ** 2 / (2.0 * x)
    head = z * math.log(x)
    return _judge_quad(head + log_e_ref(w, z - 1.0), record,
                       lambda: head + mp_log_e(w, z - 1.0))


# --- dispatch ---------------------------------------------------------------

FLOAT_JUDGES = {
    "Q": judge_q,
    "e_partial": judge_e_partial,
    "rtilde_ext": judge_rtilde_ext,
    "gamma": judge_gamma,
    "gamma_y": judge_gamma_y,
    "pochhammer_continuous": judge_pochhammer,
    "rho": judge_rho,
    "E_series": lambda x, z, r: _judge_quad(log_e_ref(x, z), r, lambda: mp_log_e(x, z)),
    "E_quadrature": lambda x, z, r: _judge_quad(log_e_ref(x, z), r, lambda: mp_log_e(x, z)),
    "nu": lambda x, r: _judge_quad(log_nu_ref(x), r, lambda: mp_log_e(x, _nu_cutoff(x))),
    "mu": lambda x, b, a, r: _judge_quad(log_mu_ref(x, b, a), r, lambda: mp_log_mu(x, b, a)),
}


def key(family: str, args) -> str:
    return f"{family}{tuple(args)!r}"


def verdict(family: str, args, record: tuple, expected: dict) -> str:
    """'pass' or why the op failed: raised:<error>, uncertified, false_cert,
    miss (a float off its oracle), mismatch (exact or CLI output differs),
    unrecorded (no recorded output for this input)."""
    kind = record[1]
    if kind == "E":
        return f"raised:{record[2]}"
    if kind in ("S", "SL"):
        converged = record[-2]
        if not converged:
            return "uncertified"
    if kind in ("D", "C") or family == "rtilde_poly":
        want = expected.get(key(family, args))
        if want is None:
            return "unrecorded"
        if family == "rtilde_poly":
            return "pass" if log_distance(record, want) <= TOL else "miss"
        return "pass" if list(record[1:]) == want else "mismatch"
    ok = FLOAT_JUDGES[family](*args, record)
    if ok:
        return "pass"
    return "false_cert" if kind in ("S", "SL") else "miss"
