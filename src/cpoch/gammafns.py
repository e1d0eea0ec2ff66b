"""Gamma-function kernel.

Real gamma, the regularized upper incomplete gamma Q(z, x) = Gamma(z, x) /
Gamma(z), partial exponential sums e_{z-1}(x) = e^x Q(z, x), the deformed
gamma function Gamma_y, and the classical continuous Pochhammer extension
r(x, y, z) = y^z Gamma(x/y + z) / Gamma(x/y).

Q is evaluated by the lower power series for x <= z + 1 and by a modified
Lentz continued fraction for x > z + 1, the standard numerically stable
split.  Gamma itself is the platform libm implementation (accurate to a few
ulp on (0, 171.62]).

Gamma, e_{z-1}, Gamma_y and the continuous Pochhammer return
``float | LogScaled`` by the one rule of ``cpoch.core``: a value whose
natural log exceeds ``LOG_SCALED_FROM`` is a ``LogScaled``, any other a
float.  For Gamma that means LogScaled from z ~ 171.43 on and for
0 < z < ~1.512e-308.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .core import LOG_SCALED_FROM, MACHINE_EPS, LogScaled, SeriesEval, exp_or_log_scaled

__all__ = [
    "gamma",
    "gamma_minimum",
    "regularized_q",
    "log_e_partial",
    "e_partial",
    "e_partial_sum",
    "gamma_y",
    "pochhammer_continuous",
]

#: Largest z for which Gamma(z) fits in binary64; guards math.gamma in gamma_y.
GAMMA_OVERFLOW_Z = 171.624

#: Gamma(z) ~ 1/z exceeds binary64 for 0 < z <= this (about 5.56e-309); guards
#: math.gamma in gamma_y.
GAMMA_TINY_Z = 1.0 / sys.float_info.max

#: e^LOG_SCALED_FROM: a direct sum above it is a LogScaled by the core rule.
_FLOAT_FROM = math.exp(LOG_SCALED_FROM)

#: Largest integer order whose partial exponential e_{n-1} is summed term by
#: term (``e_partial``, ``rtilde_closed``); past it ``log_e_partial`` answers
#: in microseconds.  At n = 1000 the two routes agree to 8.9e-16 relative
#: (2000 x log-uniform in [1e-3, 720]).
DIRECT_SUM_MAX_N = 1000

#: a = x/y past which ``pochhammer_continuous`` takes Stirling's series.
_STIRLING_FROM_A = 1e4

_MAX_SERIES_TERMS = 10_000
_MAX_CF_TERMS = 10_000
_TINY = 1e-300


def gamma(z: float) -> float | LogScaled:
    """Gamma(z) for z > 0; LogScaled where ln Gamma(z) exceeds
    ``LOG_SCALED_FROM`` (the rule of ``cpoch.core``), else a float."""
    if not 0.0 < z < math.inf:
        raise ValueError(f"gamma requires a finite z > 0, got {z}")
    log_value = math.lgamma(z)
    if log_value > LOG_SCALED_FROM:
        return LogScaled(1, log_value)
    return math.gamma(z)


@lru_cache(maxsize=1)
def gamma_minimum() -> tuple[float, float]:
    """Location a and value m = Gamma(a+1) of the minimum of Gamma(t+1) on (0, 1).

    Golden-section search; a ~ 0.4616, m ~ 0.8856.  The value is accurate to
    machine precision (the objective is flat to second order at the minimum,
    the location to ~sqrt(eps)).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = math.gamma(a + 1.0), math.gamma(b + 1.0)
    for _ in range(120):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = math.gamma(a + 1.0)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = math.gamma(b + 1.0)
    t = 0.5 * (lo + hi)
    return t, math.gamma(t + 1.0)


def _lower_series(z: float, x: float) -> tuple[float, int, float]:
    """P(z, x) by the lower power series; returns (P, terms, tail estimate).

    Valid and fast for x <= z + 1 where the term ratio x / (z + k) < 1.
    """
    ap = z
    total = 1.0 / z
    term = total
    terms = 0
    for terms in range(1, _MAX_SERIES_TERMS + 1):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) <= abs(total) * 1e-17:
            break
    scale = math.exp(-x + z * math.log(x) - math.lgamma(z))
    # geometric continuation bound on the dropped tail
    ratio = x / (ap + 1.0)
    tail = abs(term) * scale * (ratio / (1.0 - ratio) if ratio < 1.0 else 1.0)
    return total * scale, terms, tail


def _upper_cf(z: float, x: float) -> tuple[float, int, float]:
    """Q(z, x) / scale by modified Lentz; returns (h, terms, |delta-1|).

    The caller multiplies by scale = exp(z ln x - x - ln Gamma(z)).
    Requires x > z + 1 for rapid convergence.
    """
    b = x + 1.0 - z
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    delta = 0.0
    terms = 0
    for terms in range(1, _MAX_CF_TERMS + 1):
        an = -terms * (terms - z)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 1e-16:
            break
    return h, terms, abs(delta - 1.0)


def regularized_q(z: float, x: float, tol: float = 1e-13) -> SeriesEval:
    """Regularized upper incomplete gamma Q(z, x) = Gamma(z, x) / Gamma(z).

    Absolute error below ``tol`` whenever ``converged`` is reported.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"regularized_q requires a finite z > 0, got {z}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"regularized_q requires a finite x >= 0, got {x}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"regularized_q requires a finite tol > 0, got {tol}")
    if x == 0.0:
        return SeriesEval(1.0, 0, 0.0, True)
    if x <= z + 1.0:
        p, terms, tail = _lower_series(z, x)
        q = 1.0 - p
        tail = tail + 4.0 * MACHINE_EPS
        return SeriesEval(q, terms, tail, tail <= tol and terms < _MAX_SERIES_TERMS)
    h, terms, resid = _upper_cf(z, x)
    scale = math.exp(z * math.log(x) - x - math.lgamma(z))
    q = h * scale
    tail = abs(q) * (resid + 8.0 * MACHINE_EPS) + _TINY
    return SeriesEval(q, terms, tail, tail <= tol and terms < _MAX_CF_TERMS)


def log_e_partial(z: float, x: float) -> float:
    """ln of e^x Q(z, x), computed without forming e^x.

    This is ln e_{z-1}(x) for the real-order partial exponential; stable for
    arguments far beyond the overflow threshold of e^x.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"log_e_partial requires a finite z > 0, got {z}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"log_e_partial requires a finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x <= z + 1.0:
        p, _, _ = _lower_series(z, x)
        # e^x Q = e^x (1 - P); P < ~0.8 on this branch keeps log1p stable.
        return x + math.log1p(-p)
    h, _, _ = _upper_cf(z, x)
    return z * math.log(x) - math.lgamma(z) + math.log(h)


def e_partial_sum(n: int, x: float) -> float:
    """Partial exponential sum e_{n-1}(x) = sum_{k<n} x^k / k! for integer n >= 1.

    One term per unit of n until a term underflows to 0, after which every
    later term is 0 and leaves the total's bits as they are: ``e_partial``
    and ``rtilde_closed`` call it only up to ``DIRECT_SUM_MAX_N`` and take
    the log route past it, except a negative-sign ``rtilde_closed``, which
    has no log route and relies on that stop.
    """
    if n < 1:
        raise ValueError(f"e_partial_sum requires n >= 1, got {n}")
    if not -math.inf < x < math.inf:
        raise ValueError(f"e_partial_sum requires a finite x, got {x}")
    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= x / k
        if term == 0.0:
            break
        total += term
    return total


def e_partial(z: float, x: float) -> float | LogScaled:
    """Partial exponential of real order: e_{z-1}(x) = e^x Gamma(z, x) / Gamma(z).

    Float or LogScaled by the rule of ``cpoch.core``.  Integer z up to
    ``DIRECT_SUM_MAX_N`` uses the direct sum wherever the rule keeps a
    float; other orders, and an integer sum past ``LOG_SCALED_FROM``, go
    through ``log_e_partial``.  Both paths agree to ~1e-12 relative where
    they overlap.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"e_partial requires a finite z > 0, got {z}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"e_partial requires a finite x >= 0, got {x}")
    if z <= DIRECT_SUM_MAX_N and z == int(z):
        total = e_partial_sum(int(z), x)
        if total <= _FLOAT_FROM:
            return total
    return exp_or_log_scaled(log_e_partial(z, x))


def gamma_y(y: float, x: float) -> float | LogScaled:
    """Deformed gamma Gamma_y(x) = integral of t^(x-1) exp(-t^y / y).

    Evaluated through the reduction Gamma_y(x) = y^(x/y - 1) Gamma(x/y):
    as that product where both factors are floats, otherwise from its log,
    float or LogScaled by the rule of ``cpoch.core``.

    The float product and its guards (``GAMMA_TINY_Z``, ``GAMMA_OVERFLOW_Z``)
    stay because exp of the log alone loses the last bits: it gives
    gamma_y(2, 3) = 1.2533141373155 instead of 1.2533141373155003 (the
    printed bytes of ``eval gamma-y --x 3 --y 2``) and gamma_y(1, 5) =
    23.999999999999982 instead of 24.

    Where a = x/y underflows to 0 the value is its limit 1/x.  Where
    lgamma(a) overflows (a above ~2.5e305, inf included) the log is
    Stirling's, ln Gamma_y(x) = a (ln x - 1) - ln y - ln(a / 2 pi) / 2 +
    O(1/a): 0 for x <= e, a LogScaled where that log is finite and an
    OverflowError naming the inputs past it.
    """
    if not 0.0 < y < math.inf:
        raise ValueError(f"gamma_y requires a finite y > 0, got {y}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"gamma_y requires a finite x > 0, got {x}")
    a = x / y
    exponent = a - 1.0
    try:
        log_value = exponent * math.log(y) + math.lgamma(a)
    except ValueError:  # a underflows to 0: Gamma_y(x) = (1 + O(a ln y)) / x
        log_value = -math.log(x)
        return LogScaled(1, log_value) if log_value > LOG_SCALED_FROM else 1.0 / x
    except OverflowError:
        return _gamma_y_by_stirling(y, x, a)
    if (log_value > LOG_SCALED_FROM or abs(exponent * math.log(y)) > 690.0
            or not GAMMA_TINY_Z < a < GAMMA_OVERFLOW_Z):
        if a == math.inf:  # lgamma(inf) is inf, so log_value is nan
            return _gamma_y_by_stirling(y, x, a)
        return exp_or_log_scaled(log_value)
    return y**exponent * math.gamma(a)


#: e - math.e, which places e between math.e and the next float.
_E_GAP = 1.4456468917292502e-16


def _gamma_y_by_stirling(y: float, x: float, a: float) -> float | LogScaled:
    """Gamma_y(x) where lgamma(a = x/y) overflows, by Stirling's log (see ``gamma_y``).

    a (ln x - 1) decides: below -1e289 for x <= math.e < e, positive past it.
    ln x - 1 = log1p((x - e) / e) keeps its digits next to e, where
    math.log(x) - 1 is 0 or one ulp of 1.
    """
    if x <= math.e:
        return 0.0
    log_excess = math.log1p((x - math.e - _E_GAP) / math.e)
    log_value = a * log_excess - math.log(y) - 0.5 * math.log(a / (2.0 * math.pi))
    if not log_value < math.inf:
        raise OverflowError(f"gamma_y overflows: a = x/y = {a} at (y={y}, x={x}), where "
                            f"ln Gamma_y(x) ~ (x/y)(ln x - 1) leaves binary64")
    return LogScaled(1, log_value)


def pochhammer_continuous(x: float, y: float, z: float) -> float | LogScaled:
    """Continuous Pochhammer extension y^z Gamma(x/y + z) / Gamma(x/y).

    Agrees with the product x (x+y) ... (x+(n-1)y) at integer z = n.
    Formed in logs; float or LogScaled by the rule of ``cpoch.core``.

    For a = x/y up to ``_STIRLING_FROM_A`` the log is z ln y + lgamma(a+z) -
    lgamma(a).  Past it that difference cancels (at a = 1e15 and z = 3 it
    gives 2.7e43 for 1e45), so the log is Stirling's series for both
    lgammas with the leading terms cancelled by hand, t = z/a:

        z ln x + z (log1p(t)/t - 1) + (z - 1/2) log1p(t) + 1/12(a+z) - 1/12a.

    The first term left out is below 1/360a^3 (2.8e-15 at a = 1e4).  z ln x
    stays finite where a overflows; t = 0 there (and at z = 0), where the
    second term is 0.  Where a underflows to 0 the ratio is its limit
    a Gamma(z): the value x y^(z-1) Gamma(z), and 1 at z = 0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"pochhammer_continuous requires a finite x > 0, got {x}")
    if not 0.0 < y < math.inf:
        raise ValueError(f"pochhammer_continuous requires a finite y > 0, got {y}")
    if not 0.0 <= z < math.inf:
        raise ValueError(f"pochhammer_continuous requires a finite z >= 0, got {z}")
    a = x / y
    if a <= _STIRLING_FROM_A:
        try:
            log_gamma_a = math.lgamma(a)
        except ValueError:  # a underflows to 0, where Gamma(a+z)/Gamma(a) -> a Gamma(z)
            if not z:
                return 1.0
            return exp_or_log_scaled(math.log(x) + (z - 1.0) * math.log(y) + math.lgamma(z))
        return exp_or_log_scaled(z * math.log(y) + math.lgamma(a + z) - log_gamma_a)
    t = z / a
    log1p_t = math.log1p(t)
    return exp_or_log_scaled(z * math.log(x) + z * (log1p_t / t - 1.0 if t else 0.0)
                             + (z - 0.5) * log1p_t + 1.0 / (12.0 * (a + z)) - 1.0 / (12.0 * a))
