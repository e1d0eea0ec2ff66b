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
sum, so rounding absorbs it (``_head_cut``: a majorant of the coefficients
and Cauchy's estimate on a circle bound the dropped terms, and the
log-concavity of x^t / Gamma(t+1) bounds E from below).  The state builds
c_0(x) .. c_N(x) and c_110(x), which the head's truncation estimate reads;
N(x) < 110 for x in [8.97e-4, 1.168e6], with median 53 over [0.01, 1000].
The node series' is measured: at u in [0, 1] they run over c_0(x) ..
c_M(x), M(x) <= N(x), dropping coefficients that sum below 2^-80 of every
node value (``_node_cut``), which kept Horner's
bits over 1,000,000 seeded (x, u) pairs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat

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
#: and of the head terms (a few hundred roundings of 2^-53 each), and that of
#: the floor's and of M's float forms in ``_head_cut`` (below 1e-12 relative).
_CUT_MARGIN = 1.0 + 2.0**-30
#: psi(4) = 11/6 - gamma, rounded up: the largest |psi(h+1)| for h in (0, 3].
_PSI_4 = 1.2561176684318005
#: ln Gamma(4) = ln 6.
_LN_6 = 1.791759469228055
#: Radius r of the circle on which Cauchy's estimate bounds c_k(x).
_CIRCLE_RADIUS = 12.5
#: For the sectors s pi/16 <= theta <= (s+1) pi/16, s = 0 .. 15, an upper bound
#: on ln|1/Gamma(1 + r e^(i theta))|: the largest value on 33 equally spaced
#: theta plus r max|psi(1 + t)| times half their spacing, the most the
#: function can rise between them, rounded up to 1e-3
#: (``cpoch.verify`` re-derives each, case ``recip/circle_sector_bounds``).
_SECTOR_LOG_BOUNDS = (
    -20.316, -17.83, -13.853, -8.628, -2.473, 4.23, 11.057, 17.567,
    23.323, 27.916, 30.992, 32.266, 32.293, 31.55, 28.742, 23.864,
)
#: r cos(theta) at the sector edges theta = s pi/16, s = 0 .. 16.
_SECTOR_EDGES = tuple(_CIRCLE_RADIUS * math.cos(math.pi * s / len(_SECTOR_LOG_BOUNDS))
                      for s in range(len(_SECTOR_LOG_BOUNDS) + 1))
#: (3/r)^k / (1 - 3/r): sum_{k>N} M r^-k 3^k is M times entry N + 1.
_CIRCLE_TAILS = tuple((SERIES_WINDOW / _CIRCLE_RADIUS) ** k / (1.0 - SERIES_WINDOW / _CIRCLE_RADIUS)
                      for k in range(TABLE_ORDER + 2))
#: fl(c_k(x)) - c_k(x) is at most (4k + 3) 2^-53 A_k, which is this times A_k for k <= 110.
_COEFF_ROUNDING = (4 * TABLE_ORDER + 3) * 2.0**-53


def _head_floor(x: float, log_x: float, n: int) -> float:
    """F(n) with E(x, h) >= h F(n) (h/3)^(n+1) for every h in (0, 3] (see ``_head_cut``)."""
    if n + 1 < 3.0 * (abs(log_x) + _PSI_4):
        return min(1.0, x) ** 3 / 6.0
    g = 3.0 * log_x - _LN_6  # ln(x^3 / Gamma(4))
    return math.expm1(g) / g if g else 1.0


def _head_cut(x: float, log_powers: list[float]) -> int:
    """Least N for which a head sum over c_0(x) .. c_N(x) has the full table's bits.

    A head sum adds the terms c_k(x) h^(k+1) / (k+1), k = 0 .. 110, in
    order, for an h in (0, 3].  Every term past order N is at most
    h (h/3)^(N+1) T_N, T_N = sum_{k>N} |c_k(x)| 3^k over the computed
    coefficients, and a quarter ulp of a sum s is at least 2^-55 |s|.  So
    once T_N, times a rounding margin, is below 2^-56 F(N), with
    E(x, h) >= h F(N) (h/3)^(N+1) on (0, 3], every dropped term is below a
    quarter ulp of the running sum at order N, which then absorbs it: the
    sum keeps the full table's bits.  The factor 2 between 2^-56 and 2^-55
    covers the computed sum's own error against E: wherever an order
    certifies (x in [8.97e-4, 1.168e6]) its round-off bound,
    700 * 2^-53 sum_k A_k h^(k+1) / (k+1), stays below 1e-2 of the sum
    (checked at h = 3, where it is largest, on a grid of 400 x per decade;
    0.0064 at the lower end).  700 covers the coefficients' rounding below,
    the k + 2 roundings of each term and the 110 of the running sum.

    The floor F(N) is the larger of two:

    * min(1, x^3) / 6, as x^t >= min(1, x^3) and Gamma(t+1) <= 6 on [0, 3];
    * m(3) = expm1(g) / g, g = ln(x^3 / 6), once N + 1 >= 3 (|ln x| + psi(4)).
      f(t) = x^t / Gamma(t+1) has a concave logarithm (Gamma is log-convex)
      and f(0) = 1, so f(t) >= f(h)^(t/h) and E(x, h) >= h m(h), m(h) =
      (f(h) - 1) / ln f(h).  d ln m / dh is at most |ln x - psi(h+1)|
      <= |ln x| + psi(4) (psi(4) = 1.2561...) <= (N+1) / h, so m(h) (3/h)^(N+1)
      falls towards h = 3 and its least value is m(3).  m(3), the
      logarithmic mean of 1 and x^3/6, is never below min(1, x^3) / 6.

    T_N is bounded two ways, and the lesser bound counts:

    * |c_k(x)| <= A_k = sum_j |c_{k-j}| l^j / j!, l = |ln x|, so T_N is below
      sum_{j<=N} (3l)^j/j! R_{N+1-j} + R_0 sum_{N<j<=110} (3l)^j/j!, with
      R_i = sum_{m=i}^{110} |c_m| 3^m;
    * Cauchy's estimate on the circle |t| = r = 12.5: |c_k(x)| <= M r^-k,
      M the largest |x^t / Gamma(1+t)| on it.  Conjugate symmetry leaves
      theta in [0, pi]; on each of 16 sectors ln|1/Gamma(1+t)| is below
      its ``_SECTOR_LOG_BOUNDS`` entry and r ln(x) cos(theta) is largest at
      the edge nearest theta = 0 (x >= 1) or pi (x < 1).  So the exact
      coefficients' T_N is below M (3/r)^(N+1) / (1 - 3/r).  The computed
      ones differ from them by at most (4k + 3) 2^-53 A_k: ln(x)^j / j!
      carries 4j roundings (math.log's ulp of ln x counts as two, raised
      to the j-th power, then j products and j quotients), its product
      with c_{k-j} two more (the correctly rounded literal's and its own)
      and fsum one.  For k <= 110 that is at most 443 * 2^-53 A_k, so the
      computed T_N is below the circle's bound plus 443 * 2^-53 times the
      first bound.

    The key is monotone in N, so each probe is one C-level sum over the
    build's own ``log_powers`` and a few float operations, and the binary
    search makes at most 7; TABLE_ORDER where none certifies.  M is formed
    only for |ln x| <= 110/3 - psi(4), where some order below 110 may use
    m(3) and r |ln x| stays far from overflow; elsewhere the first bound
    alone counts.
    """
    log_x = log_powers[1]
    bounds = list(map(operator.mul, map(abs, log_powers), _WINDOW_POWERS))
    circle = math.inf
    if 3.0 * (abs(log_x) + _PSI_4) <= TABLE_ORDER:
        edges = _SECTOR_EDGES[:-1] if log_x >= 0.0 else _SECTOR_EDGES[1:]
        circle = math.exp(max(map(operator.add, _SECTOR_LOG_BOUNDS,
                                  map(operator.mul, edges, repeat(log_x)))))

    def certified(n: int) -> bool:
        major = sum(map(operator.mul, bounds, _CUT_WEIGHTS[TABLE_ORDER - n:]))
        tail = min(major, circle * _CIRCLE_TAILS[n + 1] + _COEFF_ROUNDING * major)
        return tail < 2.0**-56 * _head_floor(x, log_x, n) / _CUT_MARGIN

    return bisect_left(range(TABLE_ORDER), True, key=certified)


#: Relative size, against min(1, x), below which the node series may drop
#: their tail.  Measured, not proven: over 1,000,000 seeded (x, u) pairs, x
#: log-uniform in [0.01, 1000] and u in [0, 1], Horner over c_0(x) .. c_M(x)
#: differed from Horner over c_0(x) .. c_N(x) at 11,781 pairs with 1e-15 in
#: its place, 139 with 1e-17, 1 with 1e-19 and none with 2^-80 (M median 36,
#: max 50, against N median 76 under the head cut of that time; M is the
#: same under today's, N median 53).
_NODE_CUT = 2.0**-80


def _node_cut(x: float, coeffs: tuple[float, ...]) -> int:
    """Least M <= N for which the node series keep only c_0(x) .. c_M(x).

    A node series sum_k c_k(x) u^k runs at u in [0, 1], where its value
    x^u / Gamma(u+1) is at least min(1, x) (Gamma(u+1) <= 1 there), and every
    dropped term is at most |c_k(x)|.  The terms past the head's N are below
    B_N = 2^-56 F(N) / 3^(N+1), since ``_head_cut`` bounds their 3^k-weighted
    sum by 2^-56 F(N), F(N) the floor it certified N with (where no order
    certifies, N = 110 and B_N is slack past the table).  So M is the least
    order with sum_{M<k<=N} |c_k(x)| + B_N, times the rounding margin, below
    ``_NODE_CUT`` min(1, x): one accumulate over the built coefficients.
    B_N alone is far below that wherever an order certifies.
    """
    beyond = 2.0**-56 * _head_floor(x, math.log(x), len(coeffs) - 1) / SERIES_WINDOW ** len(coeffs)
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
