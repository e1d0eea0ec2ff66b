"""Taylor machinery for the reciprocal gamma function 1/Gamma(t+1).

The entire function 1/Gamma(t+1) = exp(sum_{k>=1} (-1)^(k+1) zh(k)/k t^k)
with zh(1) = gamma and zh(k) = zeta(k) has Taylor coefficients c_n obeying

    (n+1) c_{n+1} = sum_{k=0}^{n} (-1)^k zh(k+1) c_{n-k},      c_0 = 1.

Shifted coefficients c_n(x) = sum_k c_{n-k} ln(x)^k / k! turn the table into
a series for x^t / Gamma(t+1); they drive every series evaluation of the
second continuous analogue.

The recursion itself is run once per table order at elevated working
precision and the results rounded to binary64.  Run naively in doubles it
hits an absolute noise floor near 1e-19 from n ~ 26 on (the true
coefficients fall below 1e-80 by n = 80, while the head terms
zeta(n+1) c_0 ~ 1 must cancel), and t^n amplification then destroys every
evaluation near the edge of the window.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .core import SeriesEval, zeta_hat
from .discrete import _compositions

__all__ = [
    "CoeffTable",
    "DEFAULT_TERMS",
    "SERIES_WINDOW",
    "c_table",
    "c_composition_oracle",
    "c_of_x",
    "recip_gamma_series",
    "weighted_series_coeffs",
]

#: Default table order; |c_80| < 1e-12, which bounds every downstream truncation.
DEFAULT_TERMS = 80

#: Validated evaluation window for the series in t (empirical, double precision).
SERIES_WINDOW = 3.0

_COMPOSITION_LIMIT = 20
_EPS = 2.220446049250313e-16

#: Distinct x whose shifted coefficients are kept; a z-sweep at fixed x
#: (E_series, rho along a curve) then builds them once.
_WEIGHTED_CACHE_SIZE = 64


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients c_0 .. c_N of a power series in t."""

    coefficients: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> float:
        return self.coefficients[n]

    def __len__(self) -> int:
        return len(self.coefficients)


@lru_cache(maxsize=None)
def c_table(n_max: int = DEFAULT_TERMS) -> CoeffTable:
    """Coefficients c_0 .. c_{n_max} of 1/Gamma(t+1) by the zeta recursion.

    The zeta-hat values and the recursion run at an order-dependent working
    precision so that every returned binary64 coefficient is correctly
    rounded.  Deterministic and cached per order.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    with mp.workdps(30 + n_max):
        zh = [mp.mpf(0), +mp.euler] + [mp.zeta(k) for k in range(2, n_max + 2)]
        coeffs = [mp.mpf(1)]
        for n in range(n_max):
            acc = mp.fsum(
                (-1) ** k * zh[k + 1] * coeffs[n - k] for k in range(n + 1)
            )
            coeffs.append(acc / (n + 1))
        return CoeffTable(tuple(float(c) for c in coeffs))


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


def c_of_x(n: int, x: float, table: CoeffTable | None = None) -> float:
    """Shifted coefficient c_n(x) = sum_{k<=n} c_{n-k} ln(x)^k / k!; c_n(1) = c_n."""
    if x <= 0:
        raise ValueError(f"c_of_x requires x > 0, got {x}")
    if table is None:
        table = c_table()
    if n > table.order:
        raise ValueError(f"table holds {table.order + 1} coefficients, need n={n}")
    return weighted_series_coeffs(x, table)[n]


def recip_gamma_series(
    t: float, table: CoeffTable | None = None, tol: float = 1e-12
) -> SeriesEval:
    """Evaluate sum c_n t^n, i.e. 1/Gamma(t+1), from a coefficient table.

    Horner from the highest term.  ``converged`` is withheld outside the
    validated window |t| <= 3 and when the tail or round-off floor exceeds
    ``tol``.
    """
    if table is None:
        table = c_table()
    coeffs = table.coefficients
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    n = table.order
    at = abs(t)
    tail = abs(coeffs[-1]) * at**n * 2.0 + _EPS * max(abs(c) * at**k for k, c in enumerate(coeffs))
    converged = at <= SERIES_WINDOW and tail <= tol * max(1.0, abs(value))
    return SeriesEval(value, len(coeffs), tail, converged)


@lru_cache(maxsize=_WEIGHTED_CACHE_SIZE)
def weighted_series_coeffs(x: float, table: CoeffTable | None = None) -> CoeffTable:
    """Coefficient table of t -> x^t / Gamma(t+1), i.e. all c_n(x).

    Cached for the 64 most recent (x, table) arguments; the returned table
    is immutable, so callers share it.
    """
    if x <= 0:
        raise ValueError(f"weighted_series_coeffs requires x > 0, got {x}")
    if table is None:
        table = c_table()
    if x == 1.0:
        return table
    lx = math.log(x)
    # c_n(x) = sum_k c_{n-k} lx^k / k!, all orders from one list of lx^k / k!.
    log_powers = [1.0]
    for k in range(1, len(table)):
        log_powers.append(log_powers[-1] * lx / k)
    coeffs = table.coefficients
    shifted = tuple(
        math.fsum(map(operator.mul, coeffs[n::-1], log_powers[: n + 1]))
        for n in range(len(coeffs))
    )
    return CoeffTable(shifted)
