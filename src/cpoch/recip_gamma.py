"""Taylor machinery for the reciprocal gamma function 1/Gamma(t+1).

The entire function 1/Gamma(t+1) = exp(sum_{k>=1} (-1)^(k+1) zh(k)/k t^k)
with zh(1) = gamma and zh(k) = zeta(k) has Taylor coefficients c_n obeying

    (n+1) c_{n+1} = sum_{k=0}^{n} (-1)^k zh(k+1) c_{n-k},      c_0 = 1.

Shifted coefficients c_n(x) = sum_k c_{n-k} ln(x)^k / k! turn the table into
a series for x^t / Gamma(t+1); they drive every series evaluation of the
second continuous analogue.

There is one table, c_0 .. c_110 (``TABLE_ORDER``), and every series in
the package reads it or its shifted form ``weighted_series_coeffs(x)``.
It is written below as float literals: the recursion run at 140 digits
and each result rounded to binary64, so each coefficient is correctly
rounded and a shorter table is a prefix of a longer one.  Run naively in
doubles the recursion hits an absolute noise floor near 1e-19 from
n ~ 26 on (the true coefficients fall below 1e-80 by n = 80, while the
head terms zeta(n+1) c_0 ~ 1 must cancel), and t^n amplification then
destroys every evaluation near the edge of the window.  The 140-digit
recursion itself lives in ``cpoch.verify``, as the oracle that the
literals must match bit for bit.

``rho``'s per-x series state does not build the whole shifted table, and
its two cut orders live here.  The head's is proven: its sums
sum_k c_k(x) h^(k+1) / (k+1) over h <= 3 add their terms in order, and past
a cut order N(x) every term is provably below a quarter ulp of the running
sum, so rounding absorbs it (``_head_cut``).  The state builds c_0(x) ..
c_N(x) and c_110(x), which the head's truncation estimate reads; N(x) < 110
for x in [0.0037, 1200].  The node series' is measured: at u in [0, 1]
they run over c_0(x) .. c_M(x), M(x) <= N(x), dropping coefficients that
sum below 2^-80 of every node value (``_node_cut``), which kept Horner's
bits over 1,000,000 seeded (x, u) pairs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import accumulate

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


#: c_0 .. c_{TABLE_ORDER}, each correctly rounded.
_TABLE = (
    1.0,                     0.5772156649015329,      -0.6558780715202539,
    -0.04200263503409524,    0.16653861138229148,     -0.04219773455554433,
    -0.009621971527876973,   0.0072189432466631,      -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162,   -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06,   -2.056338416977607e-07,
    6.116095104481416e-09,   5.002007644469223e-09,   -1.18127457048702e-09,
    1.0434267116911005e-10,  7.782263439905071e-12,   -3.696805618642206e-12,
    5.100370287454476e-13,   -2.0583260535665066e-14, -5.348122539423018e-15,
    1.2267786282382608e-15,  -1.1812593016974588e-16, 1.1866922547516004e-18,
    1.4123806553180319e-18,  -2.29874568443537e-19,   1.7144063219273374e-20,
    1.337351730493693e-22,   -2.0542335517666728e-22, 2.736030048608e-23,
    -1.7323564459105165e-24, -2.3606190244992872e-26, 1.8649829417172943e-26,
    -2.2180956242071973e-27, 1.2977819749479937e-28,  1.1806974749665284e-30,
    -1.124584349277088e-30,  1.277085175140866e-31,   -7.391451169615141e-33,
    1.1347502575542158e-35,  4.639134641058722e-35,   -5.3473368184391986e-36,
    3.2079959236133524e-37,  -4.4458297365507567e-39, -1.3111745188819888e-39,
    1.647033352543814e-40,   -1.0562331785035812e-41, 2.6784429826430494e-43,
    2.424715494851783e-44,   -3.7365878345356127e-45, 2.6283329809401953e-46,
    -9.298175995376887e-48,  -2.3279424186994706e-49, 6.169620835244387e-50,
    -4.92829558677099e-51,   2.1835131834145106e-52,  -1.2187221891475166e-54,
    -7.117108841662875e-55,  6.92050405432869e-56,    -3.6764384683566766e-57,
    8.563098056275654e-59,   4.9630454283668445e-60,  -7.154294577081616e-61,
    4.551727689088504e-62,   -1.6183993053202943e-63, -3.81804342439995e-66,
    5.185052411905849e-66,   -4.167136809223921e-67,  1.916290692937389e-68,
    -3.808928132468366e-70,  -2.206386105592412e-71,  2.7722310960098956e-72,
    -1.598766047810018e-73,  5.319730780417403e-75,   -8.051746141684239e-78,
    -1.2484629810263795e-77, 9.643188768399223e-79,   -4.282798048301748e-80,
    9.508714236903045e-82,   2.7131392138694382e-83,  -4.0968779415069156e-84,
    2.374298001974016e-85,   -8.277089021007278e-87,  9.072497609426646e-89,
    1.0645558195026986e-89,  -9.285335619603755e-91,  4.333313592720367e-92,
    -1.1745606334673316e-93, -2.6908010752365216e-96, 2.389895289203681e-96,
    -1.5569361182789167e-97, 6.0488748201074135e-99,  -1.2273370571029378e-100,
    -2.5407388509162387e-102, 3.7708800953170817e-103, -2.0089261677502892e-104,
    6.615810091144735e-106,  -9.240470202212157e-108, -4.820720186552466e-109,
    4.4938898756858355e-110, -2.0497789059725778e-111, 5.786277056986693e-113,
    -4.569674462433439e-115, -5.826736555330375e-116, 4.202538069929734e-117,
    -1.6889318527713703e-118, 4.1226213324018606e-120, -8.245119659374557e-123,
)

#: c_110 .. c_0; its suffix from index TABLE_ORDER - n is c_n .. c_0.
_REVERSED = _TABLE[::-1]


def c_table(n_max: int = TABLE_ORDER) -> tuple[float, ...]:
    """Coefficients c_0 .. c_{n_max} of 1/Gamma(t+1), a prefix of the one table."""
    if not 0 <= n_max <= TABLE_ORDER:
        raise ValueError(f"n_max must lie in [0, {TABLE_ORDER}], got {n_max}")
    return _TABLE[: n_max + 1]


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
    the tail or round-off floor exceeds 1e-12 relative to max(1, |value|);
    the tail is inf once |t|^110 leaves binary64 (|t| above ~633).
    """
    if not -math.inf < t < math.inf:
        raise ValueError(f"recip_gamma_series requires a finite t, got {t}")
    coeffs = _TABLE
    value = _horner(coeffs, t)
    at = abs(t)
    try:
        tail = (abs(coeffs[-1]) * at**TABLE_ORDER * 2.0
                + MACHINE_EPS * max(abs(c) * at**k for k, c in enumerate(coeffs)))
    except OverflowError:
        tail = math.inf
    converged = at <= SERIES_WINDOW and tail <= 1e-12 * max(1.0, abs(value))
    return SeriesEval(value, len(coeffs), tail, converged)


def _log_powers(x: float) -> list[float]:
    """ln(x)^k / k! for k = 0 .. TABLE_ORDER, the weights of every c_n(x)."""
    lx = math.log(x)
    log_powers = [1.0]
    for k in range(1, TABLE_ORDER + 1):
        log_powers.append(log_powers[-1] * lx / k)
    return log_powers


def _shifted(log_powers: list[float], orders: range | tuple[int, ...]) -> tuple[float, ...]:
    """c_n(x) = sum_k c_{n-k} ln(x)^k / k!, rounded once, for each n of orders.

    map stops at the shorter operand, c_n .. c_0, so no slice of log_powers.
    """
    return tuple(
        math.fsum(map(operator.mul, _REVERSED[TABLE_ORDER - n:], log_powers)) for n in orders
    )


def weighted_series_coeffs(x: float) -> tuple[float, ...]:
    """Coefficients c_0(x) .. c_110(x) of t -> x^t / Gamma(t+1).

    c_n(x) = sum_{k<=n} c_{n-k} ln(x)^k / k!, so c_n(1) = c_n.  Built whole
    on every call, for ``E_deriv_z`` and the verify oracles; ``rho``'s per-x
    state keeps only the prefix c_0(x) .. c_N(x) of ``_cut_series_coeffs``.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"weighted_series_coeffs requires a finite x > 0, got {x}")
    return _shifted(_log_powers(x), range(TABLE_ORDER + 1))


#: 3^k, the largest power of a head argument in the series window.
_WINDOW_POWERS = tuple(SERIES_WINDOW**k for k in range(TABLE_ORDER + 1))
#: R_i = sum_{m=i}^{110} |c_m| 3^m, for i = 110 down to 0.
_TAIL_SUMS = tuple(accumulate(map(operator.mul, map(abs, _REVERSED), _WINDOW_POWERS[::-1])))
#: R_111 = 0, R_110 .. R_1 and then R_0 110 times: from index 110 - N on,
#: entry j is R_{N+1-j} for j <= N and R_0 past it.
_CUT_WEIGHTS = (0.0, *_TAIL_SUMS[:-1]) + _TAIL_SUMS[-1:] * TABLE_ORDER
#: Covers the rounding of the bound's own float sums, of the coefficients
#: and of the head terms (a few hundred roundings of 2^-53 each).
_CUT_MARGIN = 1.0 + 2.0**-30


def _head_cut(x: float, log_powers: list[float]) -> int:
    """Least N for which a head sum over c_0(x) .. c_N(x) has the full table's bits.

    A head sum adds the terms c_k(x) h^(k+1) / (k+1), k = 0 .. 110, in
    order, for an h <= 3.  |c_k(x)| <= A_k = sum_j |c_{k-j}| l^j / j! with
    l = |ln x|, so every term past order N is below h times

        sum_{k>N} A_k 3^k <= sum_{j<=N} (3l)^j/j! R_{N+1-j} + R_0 sum_{N<j<=110} (3l)^j/j!,

    R_i = sum_{m=i}^{110} |c_m| 3^m.  The sum approximates E(x, h), which
    is at least h min(1, x^3) / 6 because x^t >= min(1, x^3) and
    Gamma(t+1) <= 6 on [0, 3]; a quarter ulp of a sum s is at least
    2^-55 |s|.  So once the bound, times a rounding margin, is below
    2^-56 min(1, x^3) / 6, every dropped term is below a quarter ulp of the
    running sum at order N, which then absorbs it: the sum keeps the full
    table's bits.  The factor 2 between 2^-56 and 2^-55 covers the computed
    sum's own error against E: wherever an order certifies (x in [0.0037,
    1200]) its round-off bound, 250 * 2^-53 sum_k A_k h^(k+1) / (k+1), stays
    below 4e-5 of the sum (checked on a grid of 400 x per decade).  Each
    probe of N is one C-level sum over the build's own ``log_powers``, and
    the binary search makes at most 7; TABLE_ORDER where none certifies.
    """
    bounds = list(map(operator.mul, map(abs, log_powers), _WINDOW_POWERS))
    limit = 2.0**-56 * min(1.0, x) ** 3 / 6.0 / _CUT_MARGIN
    return bisect_left(
        range(TABLE_ORDER), True,
        key=lambda n: sum(map(operator.mul, bounds, _CUT_WEIGHTS[TABLE_ORDER - n:])) < limit)


#: Relative size, against min(1, x), below which the node series may drop
#: their tail.  Measured, not proven: over 1,000,000 seeded (x, u) pairs, x
#: log-uniform in [0.01, 1000] and u in [0, 1], Horner over c_0(x) .. c_M(x)
#: differed from Horner over c_0(x) .. c_N(x) at 11,781 pairs with 1e-15 in
#: its place, 139 with 1e-17, 1 with 1e-19 and none with 2^-80 (M median 36,
#: max 50, against N median 76).
_NODE_CUT = 2.0**-80


def _node_cut(x: float, coeffs: tuple[float, ...]) -> int:
    """Least M <= N for which the node series keep only c_0(x) .. c_M(x).

    A node series sum_k c_k(x) u^k runs at u in [0, 1], where its value
    x^u / Gamma(u+1) is at least min(1, x) (Gamma(u+1) <= 1 there), and every
    dropped term is at most |c_k(x)|.  The terms past the head's N are below
    B_N = 2^-56 min(1, x^3) / 6 / 3^(N+1), since ``_head_cut`` bounds their
    3^k-weighted sum by 2^-56 min(1, x^3) / 6 (where no order certifies,
    N = 110 and B_N is slack past the table).  So M is the least order with
    sum_{M<k<=N} |c_k(x)| + B_N, times the rounding margin, below
    ``_NODE_CUT`` min(1, x): one accumulate over the built coefficients.
    B_N alone is far below that, as N >= N(1) = 49.
    """
    beyond = 2.0**-56 * min(1.0, x) ** 3 / 6.0 / SERIES_WINDOW ** len(coeffs)
    rests = list(accumulate(map(abs, reversed(coeffs)), initial=beyond))  # M = N, N - 1, ...
    return len(coeffs) - bisect_right(rests, _NODE_CUT * min(1.0, x) / _CUT_MARGIN)


def _cut_series_coeffs(x: float) -> tuple[tuple[float, ...], float, int]:
    """(c_0(x) .. c_N(x), c_110(x), M) for the N of ``_head_cut`` and the M of
    ``_node_cut``.

    The head reads the whole prefix and its truncation estimate c_110(x), so
    that is built too; the node series read c_0(x) .. c_M(x).
    """
    log_powers = _log_powers(x)
    *coeffs, last = _shifted(log_powers, (*range(_head_cut(x, log_powers) + 1), TABLE_ORDER))
    coeffs = tuple(coeffs)
    return coeffs, last, _node_cut(x, coeffs)
