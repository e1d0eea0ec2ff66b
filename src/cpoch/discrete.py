"""Exact discrete Pochhammer symbol and its Stirling coefficient machinery.

The product r(x, y, n) = x (x+y) ... (x+(n-1)y) expands as
sum_k r_{n,k} x^k y^(n-k) with r_{n,k} the unsigned Stirling numbers of the
first kind; the signed numbers s_{n,k} = (-1)^(n-k) r_{n,k} and the second
kind S_{n,k} invert each other.  A brute-force lattice-point oracle and the
ordered-simplex closed forms keep every identity independently checkable.

The Stirling tables are ``lru_cache`` entries, built once per process:
``_stirling_rows`` holds rows 0..64 of each kind (3 x 65 rows at most), and
each triangle is a slice of them.  The entries are immutable, so concurrent
callers need no lock.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

__all__ = [
    "StirlingTriangle",
    "pochhammer_discrete",
    "stirling_triangle",
    "stirling_lattice_oracle",
    "simplex_volume",
    "simplex_moment",
    "power_sum_pair",
    "geometric_sum_pair",
]

STIRLING_MAX_N = 64
LATTICE_ORACLE_MAX_N = 9

TRIANGLE_KINDS = ("first_unsigned", "first_signed", "second")


def pochhammer_discrete(x, y, n: int):
    """r(x, y, n) = prod_{l=0}^{n-1} (x + l*y); exact for exact inputs.

    Works uniformly on finite int, Fraction and float operands; r(x, y, 0) = 1.
    Two Fractions x = a/b, y = c/d give prod_l (a d + l b c) / (b d)^n,
    normalized once instead of at every factor.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        ad, bc = x.numerator * y.denominator, x.denominator * y.numerator
        numerator = 1
        for l in range(n):
            numerator *= ad + l * bc
        return Fraction(numerator, (x.denominator * y.denominator) ** n)
    if not (-math.inf < x < math.inf and -math.inf < y < math.inf):
        raise ValueError(f"pochhammer_discrete requires finite x and y, got x={x}, y={y}")
    result = x**0  # multiplicative identity of the operand type
    for l in range(n):
        result = result * (x + l * y)
    return result


@dataclass(frozen=True)
class StirlingTriangle:
    """Lower-triangular table of exact Stirling coefficients."""

    kind: str
    max_n: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        """Entry (n, k); zero outside the triangle."""
        if n < 0 or n > self.max_n:
            raise IndexError(f"n={n} outside triangle of max_n={self.max_n}")
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]

    def row(self, n: int) -> tuple[int, ...]:
        if n < 0 or n > self.max_n:
            raise IndexError(f"n={n} outside triangle of max_n={self.max_n}")
        return self.rows[n]


@lru_cache(maxsize=None)
def _stirling_rows(kind: str) -> tuple[tuple[int, ...], ...]:
    """Rows 0..STIRLING_MAX_N of the Stirling triangle of kind.

    first_unsigned:  r_{n+1,k} = r_{n,k-1} + n r_{n,k}
    second:          S_{n+1,k} = S_{n,k-1} + k S_{n,k}
    first_signed:    s_{n,k} = (-1)^(n-k) r_{n,k}
    """
    rows = [(1,)]
    for n in range(1, STIRLING_MAX_N + 1):
        prev = (0, *rows[-1], 0)  # prev[k] is entry k - 1 of row n - 1
        rows.append(tuple(prev[k] + (k if kind == "second" else n - 1) * prev[k + 1]
                          for k in range(n + 1)))
    if kind == "first_signed":
        rows = [tuple(-v if (n - k) & 1 else v for k, v in enumerate(row))
                for n, row in enumerate(rows)]
    return tuple(rows)


def stirling_triangle(kind: str, max_n: int) -> StirlingTriangle:
    """The Stirling triangle of kind up to row max_n, by the standard recurrences.

    The rows of each kind are built once, when a call first asks for the
    kind (``_stirling_rows``), and each call slices them into a new
    triangle; max_n must be an integer.
    """
    if kind not in TRIANGLE_KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    max_n = operator.index(max_n)  # refuses a float, 3.0 included
    if not 0 <= max_n <= STIRLING_MAX_N:
        raise ValueError(f"max_n must lie in [0, {STIRLING_MAX_N}], got {max_n}")
    return StirlingTriangle(kind, max_n, _stirling_rows(kind)[:max_n + 1])


def stirling_lattice_oracle(n: int, k: int) -> int:
    """r_{n,k} as a sum of lattice products over strictly increasing tuples.

    Enumerates all 0 <= s_1 < ... < s_{n-k} <= n-1 and sums the products
    s_1 ... s_{n-k}.  Exponential cost, hence the small-n guard.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n > LATTICE_ORACLE_MAX_N:
        raise ValueError(f"lattice oracle limited to n <= {LATTICE_ORACLE_MAX_N}")
    total = 0
    for chosen in combinations(range(n), n - k):
        prod = 1
        for s in chosen:
            prod *= s
        total += prod
    return total


def _compositions(n: int):
    """All compositions of n >= 1 as lists of positive parts (2^(n-1) of them)."""
    for mask in range(1 << (n - 1)):
        parts = []
        current = 1
        for gap in range(n - 1):
            if (mask >> gap) & 1:
                parts.append(current)
                current = 1
            else:
                current += 1
        parts.append(current)
        yield parts


def _past_floats(form: str, inputs: str, log_value, exact) -> float:
    """A value whose float form overflowed in an intermediate.

    log_value() estimates the value's log.  Below binary64's least
    subnormal, e^-744.4, the value rounds to 0.0; past its largest float,
    e^709.8, the OverflowError names form and inputs; between them exact()
    gives the value, rounded once from exact rationals where it can (a
    float x is the rational x.as_integer_ratio(), and an int quotient is
    correctly rounded, subnormals included).  Each bound is widened by 1,
    so no rounding in the estimate decides a value near either end, and the
    estimate comes first, so no exact power is built far past binary64.
    """
    try:
        log = log_value()
        if log < -746.0:
            return 0.0
        if log > 711.0:
            raise OverflowError(f"its log is about {log:.6g}")
        return exact()
    except OverflowError as exc:
        raise OverflowError(f"{form} exceeds the largest float at {inputs}") from exc


def simplex_volume(x, k: int):
    """vol of the ordered simplex 0 <= s_1 <= ... <= s_k <= x, i.e. x^k / k!.

    Where x^k or k! overflows as a float, the exact quotient rounded once.
    Its p^k, x = p/q, has k times p's bits: about 1 s at k = 10^5 and more
    beyond, which only x within about 750/k relative of k/e reaches (else
    the estimated log refuses first, or returns 0.0).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    # Fraction / int stays exact; int / int falls through to float.
    try:
        return x**k / math.factorial(k)
    except OverflowError:  # x^k, k! or their quotient as a float
        p, q = x.as_integer_ratio()
        return _past_floats("simplex_volume's x^k / k!", f"(x={x}, k={k})",
                            lambda: k * math.log(x) - math.lgamma(k + 1) if x else -math.inf,
                            lambda: p**k / (q**k * math.factorial(k)))


def simplex_moment(x, k: int):
    """Integral of s_1 ... s_k over the ordered simplex with top x.

    Closed form x^(2k) / (2^k k!) = (2k-1)!! x^(2k) / (2k)!; past the float
    range of an intermediate, the exact quotient rounded once, as in
    ``simplex_volume``.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    try:
        return x ** (2 * k) / (2**k * math.factorial(k))
    except OverflowError:  # x^(2k), 2^k k! or their quotient as a float
        p, q = x.as_integer_ratio()
        return _past_floats(
            "simplex_moment's x^(2k) / (2^k k!)", f"(x={x}, k={k})",
            lambda: (2 * k * math.log(x) - k * math.log(2.0) - math.lgamma(k + 1)
                     if x else -math.inf),
            lambda: p ** (2 * k) / (q ** (2 * k) * math.factorial(k) << k))


def power_sum_pair(n: int, k: int) -> tuple[int, float]:
    """(discrete, continuous): S_k(n) = 1^k + ... + n^k and its analogue n^(k+1)/(k+1).

    Where n^(k+1) overflows as a float, the continuous side is the exact
    quotient rounded once.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:  # before the exact sum, so a refusal costs no loop over n
        continuous = float(n) ** (k + 1) / (k + 1)
    except OverflowError:
        continuous = _past_floats("power_sum_pair's n^(k+1) / (k+1)", f"(n={n}, k={k})",
                                  lambda: (k + 1) * math.log(n) - math.log(k + 1),
                                  lambda: n ** (k + 1) / (k + 1))
    discrete = sum(l**k for l in range(1, n + 1))
    return discrete, continuous


def _power_quotient(form: str, x: float, y: float, e: float, d: Fraction) -> float:
    """(x^e - 1) / d, d = x - 1 or ln x exactly, where its float form overflowed.

    Exact, rounded once, for an integral e; else in logs, where the 1 lies
    below x^e's last bit.
    """
    def log_value():
        return e * math.log(x) - math.log(abs(d))

    def exact():
        if e % 1 == 0:
            return float((Fraction(x) ** int(e) - 1) / d)
        return math.copysign(math.exp(log_value()), d)

    return _past_floats(f"geometric_sum_pair's {form}", f"(x={x}, y={y})", log_value, exact)


def geometric_sum_pair(x: float, y: float) -> tuple[float, float]:
    """(discrete, continuous): geometric sum (x^(y+1)-1)/(x-1), analogue (x^y-1)/ln x.

    At integer y the discrete side is 1 + x + ... + x^y.  The analogue has a
    removable singularity at x = 1 (limit value y); that point is rejected.
    Where x^(y+1), x^y or a quotient overflows as a float, that side is
    formed exactly at an integral y and in logs otherwise.
    """
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    if x == 1.0:
        raise ValueError("x = 1 is the removable singularity; the limit value is y")
    try:
        discrete = (x ** (y + 1) - 1.0) / (x - 1.0)
    except OverflowError:  # x^(y+1)
        discrete = math.inf
    if math.isinf(discrete):  # x^(y+1) or the quotient
        discrete = _power_quotient("(x^(y+1) - 1) / (x - 1)", x, y, y + 1, Fraction(x) - 1)
    try:
        continuous = (x**y - 1.0) / math.log(x)
    except OverflowError:  # x^y
        continuous = math.inf
    if math.isinf(continuous):  # x^y or the quotient
        continuous = _power_quotient("(x^y - 1) / ln x", x, y, y, Fraction(math.log(x)))
    return discrete, continuous
