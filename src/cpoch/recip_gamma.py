"""Taylor machinery for the reciprocal gamma function 1/Gamma(t+1).

The entire function 1/Gamma(t+1) = exp(sum_{k>=1} (-1)^(k+1) zh(k)/k t^k)
with zh(1) = gamma and zh(k) = zeta(k) has Taylor coefficients c_n obeying

    (n+1) c_{n+1} = sum_{k=0}^{n} (-1)^k zh(k+1) c_{n-k},      c_0 = 1.

Shifted coefficients c_n(x) = sum_k c_{n-k} ln(x)^k / k! turn the table into
a series for x^t / Gamma(t+1); they drive every series evaluation of the
second continuous analogue.

There is one table, c_0 .. c_110 (``TABLE_ORDER``), and every series in
the package reads it or its shifted form ``weighted_series_coeffs(x)``.
The recursion is run once at elevated working precision and the results
rounded to binary64, so each coefficient is correctly rounded and a
shorter table is a prefix of a longer one.  Run naively in doubles it
hits an absolute noise floor near 1e-19 from n ~ 26 on (the true
coefficients fall below 1e-80 by n = 80, while the head terms
zeta(n+1) c_0 ~ 1 must cancel), and t^n amplification then destroys every
evaluation near the edge of the window.  That build is the only use of
mpmath, which is imported there, on first use.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .core import MACHINE_EPS, SeriesEval, zeta_hat
from .discrete import _compositions

__all__ = [
    "TABLE_ORDER",
    "SERIES_WINDOW",
    "c_table",
    "c_composition_oracle",
    "recip_gamma_series",
    "weighted_series_coeffs",
]

#: Order of the coefficient table; |c_110| 3^110 is about 3e-70, far below
#: every downstream tolerance on the series window.
TABLE_ORDER = 110

#: Validated evaluation window of the c_n series in t (empirical, double
#: precision).  Past it E_series recentres on unit subintervals.
SERIES_WINDOW = 3.0

_COMPOSITION_LIMIT = 20

#: Distinct x whose shifted coefficients are kept; a z-sweep at fixed x
#: (E_series, rho along a curve) then builds them once.
_WEIGHTED_CACHE_SIZE = 64


@lru_cache(maxsize=1)
def _table() -> tuple[float, ...]:
    """c_0 .. c_{TABLE_ORDER}, built once per process, each correctly rounded."""
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


def c_table(n_max: int = TABLE_ORDER) -> tuple[float, ...]:
    """Coefficients c_0 .. c_{n_max} of 1/Gamma(t+1), a prefix of the one table."""
    if not 0 <= n_max <= TABLE_ORDER:
        raise ValueError(f"n_max must lie in [0, {TABLE_ORDER}], got {n_max}")
    return _table()[: n_max + 1]


def c_composition_oracle(n: int) -> float:
    """Independent value of c_n by explicit enumeration of compositions of n.

    c_n = sum over compositions (k_1..k_l) of (-1)^(n+l)/l! prod zh(k_i)/k_i.
    Exponential in n, hence the budget guard.
    """
    if not 1 <= n <= _COMPOSITION_LIMIT:
        raise ValueError(f"composition oracle limited to 1 <= n <= {_COMPOSITION_LIMIT}")
    terms = []
    for parts in _compositions(n):
        l = len(parts)
        prod = 1.0
        for k in parts:
            prod *= zeta_hat(k) / k
        terms.append((-1.0) ** (n + l) / math.factorial(l) * prod)
    return math.fsum(terms)


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    """sum_n coeffs[n] t^n, from the highest term."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def recip_gamma_series(t: float) -> SeriesEval:
    """Evaluate sum c_n t^n, i.e. 1/Gamma(t+1), from the coefficient table.

    ``converged`` is withheld outside the validated window |t| <= 3 and when
    the tail or round-off floor exceeds 1e-12 relative to max(1, |value|).
    """
    coeffs = _table()
    value = _horner(coeffs, t)
    at = abs(t)
    tail = (abs(coeffs[-1]) * at**TABLE_ORDER * 2.0
            + MACHINE_EPS * max(abs(c) * at**k for k, c in enumerate(coeffs)))
    converged = at <= SERIES_WINDOW and tail <= 1e-12 * max(1.0, abs(value))
    return SeriesEval(value, len(coeffs), tail, converged)


@lru_cache(maxsize=_WEIGHTED_CACHE_SIZE)
def weighted_series_coeffs(x: float) -> tuple[float, ...]:
    """Coefficients c_0(x) .. c_110(x) of t -> x^t / Gamma(t+1).

    c_n(x) = sum_{k<=n} c_{n-k} ln(x)^k / k!, so c_n(1) = c_n.  Cached for
    the 64 most recent x; the returned tuple is shared by every caller.
    """
    if x <= 0:
        raise ValueError(f"weighted_series_coeffs requires x > 0, got {x}")
    coeffs = _table()
    if x == 1.0:
        return coeffs
    lx = math.log(x)
    # c_n(x) = sum_k c_{n-k} lx^k / k!, all orders from one list of lx^k / k!.
    log_powers = [1.0]
    for k in range(1, len(coeffs)):
        log_powers.append(log_powers[-1] * lx / k)
    return tuple(
        math.fsum(map(operator.mul, coeffs[n::-1], log_powers[: n + 1]))
        for n in range(len(coeffs))
    )
