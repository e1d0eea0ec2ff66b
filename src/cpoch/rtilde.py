"""First continuous analogue of the Pochhammer symbol.

The discrete coefficients r_{n,k} (lattice-point sums over an ordered
simplex) are replaced by the simplex moment integrals

    rt_{n,k} = (n-1)^(2(n-k)) / (2^(n-k) (n-k)!),

giving the homogeneous polynomial rt(x, y, n) = sum_k rt_{n,k} x^k y^(n-k)
with closed form x^n e_{n-1}(y (n-1)^2 / 2x) and a smooth extension in the
order variable through the regularized incomplete gamma.  The signed
companions st_{n,k} = (-1)^(n-k) rt_{n,k} invert to exact rational
analogues St_{n,k} of the second-kind Stirling numbers, whose values are
signed differences of groupoid cardinalities.

One integer recurrence per column k (``_groupoid_prefix``) yields both: the
groupoid cardinalities of the cells (k+p, k) and, through their signed
difference, the St column.  The exact forward substitution against st is
the independent oracle for both, in ``cpoch.verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (MACHINE_EPS, LogScaled, NonFiniteInputError, SeriesEval, exp_or_log_scaled,
                   log_add, reduced_argument)
from .discrete import _compositions
from .gammafns import e_partial_sum, log_e_partial
from .quadrature import gauss_hermite

__all__ = [
    "RTildeTriangle",
    "GroupoidCardinalities",
    "rtilde_coefficient",
    "rtilde_triangle",
    "stilde_mobius_oracle",
    "groupoid_cardinalities",
    "rtilde_poly",
    "rtilde_closed",
    "rtilde_ext",
    "rtilde_series_lower",
    "rtilde_series_upper",
    "cosh_truncated",
    "gaussian_expectation",
]

RTILDE_MAX_N = 48
MOBIUS_ORACLE_MAX_N = 12

#: Largest order rtilde_poly takes: its row builds n + 1 exact coefficients
#: with numerators up to (n-1)^(2n), 0.25 s at n = 1000 (2-vCPU VM).
RTILDE_POLY_MAX_N = 1000

_MAX_TERMS = 4000
SERIES_FORMS_TOL = 1e-9  # relative; behind the converged flag of both series forms

#: Orders n whose coefficient rows rtilde_poly keeps; every order of the
#: exact tables (n <= RTILDE_MAX_N) fits, so a sweep over them builds each once.
_POLY_ROW_CACHE_SIZE = 64


def rtilde_coefficient(n: int, k: int) -> Fraction:
    """Exact coefficient rt_{n,k} = (n-1)^(2(n-k)) / (2^(n-k) (n-k)!)."""
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return Fraction(0)
    if n == 0:
        return Fraction(1)  # rt_{0,0}
    if k == 0:
        return Fraction(0)
    m = n - k
    return Fraction((n - 1) ** (2 * m), 2**m * math.factorial(m))


@dataclass(frozen=True)
class RTildeTriangle:
    """Exact triangles rt, st = (-1)^(n-k) rt, and the inverse triangle St."""

    max_n: int
    r_rows: tuple[tuple[Fraction, ...], ...]
    s_rows: tuple[tuple[Fraction, ...], ...]
    S_rows: tuple[tuple[Fraction, ...], ...]

    def r(self, n: int, k: int) -> Fraction:
        return self.r_rows[n][k] if 0 <= k <= n else Fraction(0)

    def s(self, n: int, k: int) -> Fraction:
        return self.s_rows[n][k] if 0 <= k <= n else Fraction(0)

    def S(self, n: int, k: int) -> Fraction:
        return self.S_rows[n][k] if 0 <= k <= n else Fraction(0)


def _groupoid_prefix(k: int, m: int) -> tuple[list[int], list[int]]:
    """Integer groupoid numerators even[0..m], odd[0..m] of column k >= 1.

    Splitting the last part a off a composition of p gives G[0] = (1, 0) and

        G[p][parity] = sum_{a=1..p} binom(p, a) (p+k-1)^(2a) G[p-a][1-parity],

    so even[p], odd[p] = G[p][0], G[p][1].  Over 2^p p! they are |G^e| and
    |G^o| of the cell (k+p, k), and their signed difference is St_{k+p,k}.
    Each sum is a polynomial in (p+k-1)^2, evaluated by Horner's rule.
    """
    even, odd = [1], [0]
    for p in range(1, m + 1):
        square = (p + k - 1) ** 2
        e = o = 0
        for a in range(p, 0, -1):
            weight = math.comb(p, a)
            e = (e + weight * odd[p - a]) * square
            o = (o + weight * even[p - a]) * square
        even.append(e)
        odd.append(o)
    return even, odd


def rtilde_triangle(max_n: int) -> RTildeTriangle:
    """Build the exact rt/st/St triangles up to row max_n.

    St inverts the unit lower triangular st.  Written for column k >= 1 with
    St_{k+p,k} = (-1)^p D[p] / (2^p p!), the inversion sum_l st_{n,l} St_{l,k}
    = delta_{n,k} is the recurrence D[p] = -sum_{a=1..p} binom(p, a)
    (p+k-1)^(2a) D[p-a], D[0] = 1, which D = even - odd of
    ``_groupoid_prefix`` satisfies; so one run of it per column gives

        St_{k+p,k} = (-1)^p (even[p] - odd[p]) / (2^p p!).

    Column 0 is the unit vector, since st_{n,0} = 0 for n >= 1.  The exact
    forward substitution St_{n,k} = -sum_{k<=l<n} st_{n,l} St_{l,k} is the
    independent oracle ``cpoch.verify._stilde_forward_oracle``.
    """
    if not 0 <= max_n <= RTILDE_MAX_N:
        raise ValueError(f"max_n must lie in [0, {RTILDE_MAX_N}], got {max_n}")
    r_rows = tuple(
        tuple(rtilde_coefficient(n, k) for k in range(n + 1)) for n in range(max_n + 1)
    )
    s_rows = tuple(
        tuple(-v if (n - k) & 1 else v for k, v in enumerate(row))
        for n, row in enumerate(r_rows)
    )
    S_rows = [[Fraction(0)] * (n + 1) for n in range(max_n + 1)]
    S_rows[0][0] = Fraction(1)
    for k in range(1, max_n + 1):
        even, odd = _groupoid_prefix(k, max_n - k)
        for p, (e, o) in enumerate(zip(even, odd)):
            S_rows[k + p][k] = Fraction(o - e if p & 1 else e - o, 2**p * math.factorial(p))
    return RTildeTriangle(max_n, r_rows, s_rows, tuple(map(tuple, S_rows)))


def stilde_mobius_oracle(n: int, k: int) -> Fraction:
    """St_{n,k} by the alternating chain sum (Moebius inversion), exactly.

    Sums (-1)^l st_{i_l,i_{l-1}} ... st_{i_1,i_0} over all chains
    k = i_0 < i_1 < ... < i_l = n, whose steps are the 2^(n-k-1)
    compositions of n - k.  St_{n,n} = 1 by the empty-chain convention.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got n={n}, k={k}")
    if n > MOBIUS_ORACLE_MAX_N:
        raise ValueError(f"chain oracle limited to n <= {MOBIUS_ORACLE_MAX_N}")
    if k == n:
        return Fraction(1)
    total = Fraction(0)
    for steps in _compositions(n - k):
        prod = Fraction(1)
        lower = k
        for step in steps:
            prod *= (-1) ** step * rtilde_coefficient(lower + step, lower)
            lower += step
        total += (-1) ** len(steps) * prod
    return total


@dataclass(frozen=True)
class GroupoidCardinalities:
    """|G|, |G^e| and |G^o| for one (n, k) cell; all exact rationals."""

    g: Fraction
    g_even: Fraction
    g_odd: Fraction


def groupoid_cardinalities(n: int, k: int) -> GroupoidCardinalities:
    """Cardinalities of the weighted-map groupoids behind rt and St.

    |G_{n,k}| has the closed form of rt_{n,k}; the even/odd refinements sum
    multinomially weighted composition terms of m = n - k:

        sum over (a_1..a_l) of binom(m; a_1..a_l)
            prod_i (a_1+...+a_i+k-1)^(2 a_i) / (2^m m!)

    restricted to even (respectively odd) part counts l.  They are entry m
    of the integer recurrence ``_groupoid_prefix`` over 2^m m!, the same
    recurrence that builds St in ``rtilde_triangle``; the n = k cell is
    (0, 0).
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got n={n}, k={k}")
    m = n - k
    g = rtilde_coefficient(n, k)
    if m == 0:
        return GroupoidCardinalities(g, Fraction(0), Fraction(0))
    even, odd = _groupoid_prefix(k, m)
    denom = 2**m * math.factorial(m)
    return GroupoidCardinalities(g, Fraction(even[m], denom), Fraction(odd[m], denom))


@lru_cache(maxsize=_POLY_ROW_CACHE_SIZE)
def _poly_row(n: int) -> tuple[tuple[int, float, float], ...]:
    """(k, float(rt_{n,k}), ln rt_{n,k}) for every k with rt_{n,k} != 0.

    The float is inf where rt_{n,k} exceeds the binary64 range.
    """
    row = []
    for k in range(n + 1):
        coeff = rtilde_coefficient(n, k)
        if not coeff:
            continue
        try:
            value = float(coeff)
        except OverflowError:
            value = math.inf
        row.append((k, value, math.log(coeff.numerator) - math.log(coeff.denominator)))
    return tuple(row)


def rtilde_poly(x: float, y: float, n: int, log_scaled: bool = False) -> float | LogScaled:
    """Evaluate the coefficient polynomial sum_k rt_{n,k} x^k y^(n-k).

    The plain form sums floats; where a coefficient, a power or the sum
    leaves the binary64 range it returns the log-scaled sum instead.  That
    sum forms each term's sign and log as ``LogScaled`` multiplication
    would, adds the terms in k order with ``log_add`` and builds one
    ``LogScaled`` at the end, so it equals the left fold of ``LogScaled``
    additions bit for bit.  A nan or infinite x or y is refused
    (``NonFiniteInputError``).
    """
    if not 0 <= n <= RTILDE_POLY_MAX_N:
        raise ValueError(f"n must lie in [0, {RTILDE_POLY_MAX_N}], got {n}")
    if not math.isfinite(x):
        raise NonFiniteInputError(f"rtilde_poly requires a finite x, got {x}")
    if not math.isfinite(y):
        raise NonFiniteInputError(f"rtilde_poly requires a finite y, got {y}")
    row = _poly_row(n)
    if not log_scaled:
        total = 0.0
        try:
            for k, coeff, _ in row:
                total += coeff * x**k * y ** (n - k)
        except OverflowError:  # x**k or y**(n-k)
            total = math.inf
        if math.isfinite(total):
            return total
    acc_sign, acc_log = 0, -math.inf
    lx = LogScaled.from_float(x)
    ly = LogScaled.from_float(y)
    for k, _, log_coeff in row:
        # the products LogScaled multiplication would form, in its order
        sign, log_term = 1, log_coeff
        if k:
            sign *= lx.sign**k
            log_term += k * lx.log_magnitude
        if n - k:
            sign *= ly.sign ** (n - k)
            log_term += (n - k) * ly.log_magnitude
        if sign:  # a zero term leaves the sum as it is
            acc_sign, acc_log = log_add(acc_sign, acc_log, sign, log_term)
    return LogScaled(acc_sign, acc_log)


def _log_closed_form(x: float, y: float, z: float) -> float:
    """ln(x^z e_{z-1}(w)), w = y (z-1)^2 / 2x, for x > 0 and y >= 0: the log
    route of ``rtilde_closed`` and ``rtilde_ext``.

    z ln x + ``log_e_partial(z, w)`` while w is a float.  Past binary64
    e_{z-1}(w) = w^(z-1) / Gamma(z) (1 + (z-1)/w + ...), whose last factor
    rounds to 1 there, so its log is formed from ln w = ln y + 2 ln|z-1| -
    ln 2x.
    """
    w = reduced_argument(x, y, z)
    if w == math.inf:
        log_w = math.log(y) + 2.0 * math.log(abs(z - 1.0)) - math.log(2.0 * x)
        return z * math.log(x) + (z - 1.0) * log_w - math.lgamma(z)
    return z * math.log(x) + log_e_partial(z, w)


def rtilde_closed(x: float, y: float, n: int) -> float | LogScaled:
    """Closed form x^n e_{n-1}(y (n-1)^2 / 2x) of the coefficient polynomial.

    The float product where it is finite.  Past the binary64 range (of
    x^n, of w, of e_{n-1} or of their product) it is formed in logs as
    ``rtilde_ext`` forms it, float or LogScaled by the rule of
    ``cpoch.core``; that needs x > 0 and y >= 0, and other signs raise
    OverflowError there.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if x == 0:
        raise ValueError("x = 0 requires the polynomial form")
    w = reduced_argument(x, y, n)
    try:
        value = x**n * e_partial_sum(n, w)
    except OverflowError:  # x**n
        value = math.inf
    if math.isfinite(value):
        return value
    if x < 0 or w < 0:
        raise OverflowError(f"rtilde_closed({x}, {y}, {n}) leaves binary64; "
                            "its log-scaled form needs x > 0 and y >= 0")
    return exp_or_log_scaled(_log_closed_form(x, y, n))


def rtilde_ext(x: float, y: float, z: float) -> float | LogScaled:
    """Smooth extension x^z e^w Gamma(z, w)/Gamma(z) with w = y (z-1)^2 / 2x.

    Always evaluated through the incomplete-gamma route, so that at integer
    z it provides a path independent of the closed-form sum.  Formed in
    logs, also where w itself leaves binary64; float or LogScaled by the
    rule of ``cpoch.core``.
    """
    if x <= 0:
        raise ValueError(f"rtilde_ext requires x > 0, got {x}")
    if y < 0:
        raise ValueError(f"rtilde_ext requires y >= 0, got {y}")
    if z <= 0:
        raise ValueError(f"rtilde_ext requires z > 0, got {z}")
    return exp_or_log_scaled(_log_closed_form(x, y, z))


def rtilde_series_lower(x: float, y: float, z: float) -> SeriesEval:
    """Extension via the alternating lower-incomplete-gamma series.

    x^z e^w (1 - w^z/Gamma(z) * sum_k (-w)^k / ((z+k) k!)), with w as in
    rtilde_ext.  The alternating sum cancels heavily for large w, so the
    converged flag accounts for the round-off floor as well as truncation.
    """
    if x <= 0 or y < 0 or z <= 0:
        raise ValueError("requires x > 0, y >= 0, z > 0")
    w = reduced_argument(x, y, z)
    xz = x**z
    if w == 0.0:
        return SeriesEval(xz, 0, 0.0, True)
    if w > 200.0:
        return SeriesEval(float("nan"), 0, float("inf"), False)
    u = 1.0  # (-w)^k / k!
    total = 1.0 / z
    peak = abs(total)
    terms = 0
    for terms in range(1, _MAX_TERMS + 1):
        u *= -w / terms
        term = u / (z + terms)
        total += term
        peak = max(peak, abs(term))
        if abs(u) <= 1e-18 * max(1.0, abs(total)) and terms > w:
            break
    scale = math.exp(z * math.log(w) - math.lgamma(z))
    value = xz * math.exp(w) * (1.0 - scale * total)
    trunc = abs(u) * scale * math.exp(w) * xz
    floor = MACHINE_EPS * (peak * scale + 1.0) * math.exp(w) * xz
    tail = trunc + floor
    return SeriesEval(value, terms, tail, tail <= SERIES_FORMS_TOL * max(1.0, abs(value)))


def rtilde_series_upper(x: float, y: float, z: float) -> SeriesEval:
    """Extension via the reciprocal-gamma series.

    x^z e^w - x^z w^z sum_k w^k / Gamma(z+k+1); positive terms, but the
    leading difference cancels as e^w outgrows the result for large w.
    """
    if x <= 0 or y < 0 or z <= 0:
        raise ValueError("requires x > 0, y >= 0, z > 0")
    w = reduced_argument(x, y, z)
    xz = x**z
    if w == 0.0:
        return SeriesEval(xz, 0, 0.0, True)
    if w > 700.0 or z * math.log(w) > 700.0:
        return SeriesEval(float("nan"), 0, float("inf"), False)
    term = math.exp(-math.lgamma(z + 1.0))
    total = term
    terms = 0
    for terms in range(1, _MAX_TERMS + 1):
        term *= w / (z + terms)
        total += term
        if term <= 1e-18 * total and z + terms > w:
            break
    wz = math.exp(z * math.log(w))
    value = xz * (math.exp(w) - wz * total)
    trunc = xz * wz * term * 2.0
    floor = MACHINE_EPS * xz * math.exp(w) * 2.0
    tail = trunc + floor
    return SeriesEval(value, terms, tail, tail <= SERIES_FORMS_TOL * max(1.0, abs(value)))


def cosh_truncated(n: int, u: float) -> float:
    """Truncated even exponential sum_{k<=n} u^(2k) / (2k)!."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    term = 1.0
    total = 1.0
    u2 = u * u
    for k in range(1, n + 1):
        term *= u2 / ((2 * k - 1) * (2 * k))
        total += term
    return total


def gaussian_expectation(y: float, n: int) -> float:
    """E[2cosh_{2(n-1)}((n-1) sqrt(y) X)] for standard normal X.

    Equals the closed form e_{n-1}(y (n-1)^2 / 2); the integrand is a
    polynomial of degree 2(n-1), so the rule of max(n, 20) nodes is exact.
    """
    if y <= 0:
        raise ValueError(f"y must be > 0, got {y}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scale = (n - 1) * math.sqrt(y)
    return gauss_hermite(lambda t: cosh_truncated(n - 1, scale * t), max(n, 20))
