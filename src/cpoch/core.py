"""Exact rationals, overflow-safe scaled values, series bookkeeping, zeta values.

Everything downstream builds on three carriers:

* ``fractions.Fraction`` -- arbitrary-precision rationals, gcd-reduced
  after every operation, for the combinatorial coefficient triangles (all
  of which are rational numbers).
* ``LogScaled`` -- a (sign, log-magnitude) pair for quantities such as
  ``(n-1)**(2*n)`` that overflow binary64 long before the mathematics
  becomes uninteresting.
* ``SeriesEval`` -- the value/terms/tail/converged record returned by every
  series-based routine, so callers can tell a truncated answer from a
  trusted one.

The analogues (rt, rho, the continuous Pochhammer, Gamma_y) leave the
binary64 range at modest orders, so they return ``float | LogScaled`` by one
rule, applied by ``exp_or_log_scaled``: a value whose natural log exceeds
``LOG_SCALED_FROM`` = ``LOG_FLOAT_MAX`` - 1 is a ``LogScaled``, any other a
float.

The input contract: every public function of the numerical modules
(``gammafns``, ``recip_gamma``, ``quadrature``, ``rho``, ``rtilde``) takes
finite real arguments.  Its one domain comparison per argument, such as
``0.0 < x < math.inf``, refuses nan and +-inf with the domain's other
violations: a ``ValueError`` naming the function and the argument.  The
one documented exception is E's upper limit z = +inf, which is nu.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "LogScaled",
    "SeriesEval",
    "exp_or_log_scaled",
    "log_add",
    "reduced_argument",
    "ConvergenceError",
    "EULER_GAMMA",
    "zeta",
    "zeta_hat",
]

#: Euler-Mascheroni constant, 20 significant digits (the limit definition
#: converges far too slowly to be computed at runtime).
EULER_GAMMA = 0.57721566490153286061

LOG_FLOAT_MAX = math.log(sys.float_info.max)  # ~709.78

LOG_SCALED_FROM = LOG_FLOAT_MAX - 1.0  # one unit of headroom
MACHINE_EPS = sys.float_info.epsilon  # 2**-52


class ConvergenceError(RuntimeError):
    """A numerical routine could not certify its requested tolerance."""


@dataclass(frozen=True)
class SeriesEval:
    """Outcome of a truncated series or continued-fraction evaluation.

    ``converged`` is only set when ``tail_estimate`` (truncation plus an
    estimated round-off floor) is below the tolerance the caller asked for.
    """

    value: "float | LogScaled"
    terms_used: int
    tail_estimate: float
    converged: bool


@dataclass(frozen=True)
class LogScaled:
    """A real number stored as sign and natural log of the magnitude.

    ``sign`` is -1, 0 or +1; ``log_magnitude`` is meaningless when sign is 0
    (it is kept at ``-inf`` so arithmetic stays total).  Multiplication adds
    log magnitudes; addition is ``log_add``, log-sum-exp on the two (sign,
    log) pairs.  Subtraction of nearly equal magnitudes loses relative
    precision, as any log representation must.
    """

    sign: int
    log_magnitude: float

    @staticmethod
    def from_float(x: float) -> "LogScaled":
        if math.isnan(x):
            raise ValueError("LogScaled.from_float requires a number, got nan")
        if x == 0.0:
            return LogScaled(0, float("-inf"))
        return LogScaled(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > LOG_FLOAT_MAX:
            raise OverflowError(
                f"log magnitude {self.log_magnitude:.6g} exceeds binary64 range"
            )
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogScaled | float | int") -> "LogScaled":
        other = _as_log_scaled(other)
        if self.sign == 0 or other.sign == 0:
            return LogScaled(0, float("-inf"))
        return LogScaled(self.sign * other.sign, self.log_magnitude + other.log_magnitude)

    __rmul__ = __mul__

    def __neg__(self) -> "LogScaled":
        return LogScaled(-self.sign, self.log_magnitude)

    def __add__(self, other: "LogScaled | float | int") -> "LogScaled":
        other = _as_log_scaled(other)
        return LogScaled(*log_add(self.sign, self.log_magnitude,
                                  other.sign, other.log_magnitude))

    __radd__ = __add__

    def __sub__(self, other: "LogScaled | float | int") -> "LogScaled":
        return self + (-_as_log_scaled(other))


def log_add(s1: int, l1: float, s2: int, l2: float) -> tuple[int, float]:
    """(sign, log magnitude) of s1 e^l1 + s2 e^l2, by log-sum-exp.

    A sign of 0 is zero whatever its log.  Exact cancellation gives
    (0, -inf).  This is ``LogScaled`` addition on bare floats, for loops
    that sum many terms without building an object per term.
    """
    if s1 == 0:
        return s2, l2
    if s2 == 0:
        return s1, l1
    if l2 > l1:
        s1, l1, s2, l2 = s2, l2, s1, l1
    delta = l2 - l1  # <= 0
    if s1 == s2:
        return s1, l1 + math.log1p(math.exp(delta))
    diff = -math.expm1(delta)  # 1 - exp(delta) in [0, 1)
    if diff == 0.0:
        return 0, -math.inf
    return s1, l1 + math.log(diff)


def _as_log_scaled(x: "LogScaled | float | int") -> LogScaled:
    if isinstance(x, LogScaled):
        return x
    return LogScaled.from_float(float(x))


def exp_or_log_scaled(log_value: float) -> "float | LogScaled":
    """exp(log_value), as LogScaled past ``LOG_SCALED_FROM``."""
    if log_value > LOG_SCALED_FROM:
        return LogScaled(1, log_value)
    return math.exp(log_value)


def reduced_argument(x: float, y: float, z: float) -> float:
    """w = y (z-1)^2 / 2x of both analogues; y / 2x goes first only where
    y (z-1)^2 overflows, so that a moderate w stays finite, and (z-1)^2 is
    a product only where the power itself leaves binary64."""
    try:
        numerator = y * (z - 1.0) ** 2
    except OverflowError:  # w itself may still be a float
        return y / (2.0 * x) * (z - 1.0) * (z - 1.0)
    if math.isinf(numerator):
        return (y / (2.0 * x)) * (z - 1.0) ** 2
    return numerator / (2.0 * x)


@lru_cache(maxsize=None)
def zeta(k: int) -> float:
    """Riemann zeta at integer k >= 2, relative error below 1e-15.

    Direct summation to a cutoff N plus an Euler-Maclaurin tail with three
    correction terms; the first omitted term is O(k^7 / N^(k+7)), which the
    cutoffs below keep under 1e-17 in relative terms.
    """
    if not isinstance(k, int):
        raise TypeError(f"zeta expects an integer, got {type(k).__name__}")
    if k < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    if k < 10:
        cutoff = 64
    elif k < 40:
        cutoff = 16
    else:
        cutoff = 8
    head = math.fsum(float(n) ** -k for n in range(1, cutoff))
    n = float(cutoff)
    tail = (
        n ** (1 - k) / (k - 1)
        + 0.5 * n**-k
        + (k / 12.0) * n ** (-k - 1)
        - (k * (k + 1) * (k + 2) / 720.0) * n ** (-k - 3)
        + (k * (k + 1) * (k + 2) * (k + 3) * (k + 4) / 30240.0) * n ** (-k - 5)
    )
    return head + tail


def zeta_hat(k: int) -> float:
    """zeta(k) for k >= 2, and Euler's gamma at k = 1."""
    if not isinstance(k, int):
        raise TypeError(f"zeta_hat expects an integer, got {type(k).__name__}")
    if k < 1:
        raise ValueError(f"zeta_hat requires k >= 1, got {k}")
    if k == 1:
        return EULER_GAMMA
    return zeta(k)
