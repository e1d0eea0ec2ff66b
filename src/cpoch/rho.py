"""Second continuous analogue of the Pochhammer symbol.

Here the coefficient sum over lattice points is replaced outright by an
integral over the interval:

    rho(x, y, z) = x^z E(y (z-1)^2 / 2x, z - 1),
    E(x, z)      = integral_0^z x^t / Gamma(t+1) dt,
    nu(x)        = integral_0^infinity x^t / Gamma(t+1) dt,

with nu an instance of the classical mu-function
mu(x, beta, alpha) = integral_0^inf x^(alpha+t) t^beta /
(Gamma(alpha+t+1) Gamma(beta+1)) dt.

E has two independent evaluations: the power series
E(x, z) = sum_{n>=1} c_{n-1}(x) z^n / n built from the shifted
reciprocal-gamma coefficients c_n(x) (recentred on unit subintervals past
the series window z = 3), and adaptive quadrature of the integrand.
Both stop at nu's certified cutoff, so E(x, z > cutoff) is nu(x) = E(x, inf);
mu adds its own Stirling-type tail bound on top of the quadrature.

Recentring detail: on [t0, t0+1] with integer t0 the integrand factors
through the gamma functional equation as

    x^(t0+u) / Gamma(t0+u+1) = x^t0 [sum_n c_n(x) u^n] / ((u+1)...(u+t0)),

so every series argument stays inside [0, 1].  (Taylor-shifting the
coefficient table instead is exact in theory but numerically dead in
binary64: the shifted-coefficient sums carry terms of size ~exp(pi t0 / 2)
that must cancel to reach tiny targets.)  Every full subinterval is
integrated at the same Gauss-Legendre nodes u, so the node series values
are shared by all of them; from one subinterval to the next only x^t0
changes and each node's denominator gains the factor (u+t0).  Only a final
partial subinterval evaluates the series at nodes of its own, and forms
its denominators afresh.  Both kinds of subinterval go through one node
rule (``_node_products``) and one segment sum (``_add_segment``).

Cut orders: two, both chosen in ``recip_gamma``.  The head runs over
c_0(x) .. c_N(x) only, where N(x) is the proven cut of
``recip_gamma._head_cut`` (below TABLE_ORDER = 110 for x in [8.97e-4,
1.168e6], 110 elsewhere).  Every head term past N is below a quarter ulp of
the head sum, so the head keeps the bits of the full table c_0(x) ..
c_110(x); its truncation estimate still reads c_110(x).  The node series
(Horner's rule at u in [0, 1]) run over c_0(x) .. c_M(x), M(x) <= N(x)
from ``recip_gamma._node_cut``: the coefficients they drop sum below
2^-80 of every node value (median M 36 against N 53 for x in [0.01,
1000]).  That the node series keep the full table's bits is measured, not
proven: 0 differences over 1,000,000 seeded (x, u) pairs of the node
series, and 0 in over 100k seeded E_series and rho calls.
``E_deriv_z`` multiplies its terms by rising factors that the head bound
does not cover, so it reads the full table.

One per-x cache, ``_series_state``, holds E at x: a ``_SeriesState``
built whole with the cut coefficients, the head sum over the whole window
and the full-node series values, and grown by the running sum after each
full segment, so a z-sweep at fixed x pays for each once and a call adds
only its own partial segment.  The full-node denominators depend on
neither x nor z, so the ``lru_cache`` of ``_full_denoms`` holds them for
every x.
Memory: per cached x (64 at most) the fixed fields and one running entry
per full segment a call reached, at most cutoff - 3; one denominator row
per t0 <= cutoff (< 746) any call reached.  The one growing field and
each row are assigned whole and equal whoever builds them, so concurrent
callers need no lock.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv

from .core import LOG_SCALED_FROM, MACHINE_EPS, ConvergenceError, LogScaled, SeriesEval
from .core import reduced_argument
from .quadrature import _LEGENDRE_RULES, QuadratureError, QuadratureRequest, integrate_adaptive
from .recip_gamma import SERIES_WINDOW, TABLE_ORDER, _cut_series_coeffs, _horner
from .recip_gamma import weighted_series_coeffs

__all__ = [
    "E_series",
    "E_quadrature",
    "nu",
    "nu_cutoff",
    "mu_function",
    "rho",
    "E_deriv_z",
]

_SEGMENT_RULE_NODES = 24  # Gauss-Legendre per unit subinterval
_NODES, _WEIGHTS = _LEGENDRE_RULES[_SEGMENT_RULE_NODES]
_NODE_SHIFTS = tuple(node + 1.0 for node in _NODES)  # a segment of width 2h has u = h (node + 1)
_FULL_U = tuple(0.5 * shift for shift in _NODE_SHIFTS)


@lru_cache(maxsize=None)
def _full_denoms(t0: int) -> tuple[float, ...]:
    """(u+1)...(u+t0) at the full-segment nodes, shared by every x.  Each
    row extends row t0 - 1 by the factor (u+t0), in the order a fresh
    product takes, so the floats match it; callers ask in ascending t0,
    so a row recurses once."""
    if not t0:
        return (1.0,) * _SEGMENT_RULE_NODES
    return tuple(map(mul, _full_denoms(t0 - 1), map(add, _FULL_U, repeat(t0))))


def _head(coeffs: tuple[float, ...], last: float, head: float) -> tuple[float, float, float]:
    """sum_n coeffs[n] head^(n+1) / (n+1), its truncation bound from last = c_110(x)
    and its round-off floor."""
    terms = list(map(truediv, map(mul, coeffs, accumulate(repeat(head, len(coeffs)), mul)),
                     range(1, len(coeffs) + 1)))
    # reduce, not sum(): from Python 3.12 on sum() compensates float sums, moving E's bits
    total = reduce(add, terms, 0.0)
    peak = max(0.0, *map(abs, terms))
    trunc = abs(last) * head ** (TABLE_ORDER + 1) * 2.0
    return total, trunc, MACHINE_EPS * peak * 8.0


def _node_products(nodes: tuple[float, ...], us) -> tuple[float, ...]:
    """weight * series value at a segment's Gauss-Legendre nodes u."""
    return tuple(map(mul, _WEIGHTS, [_horner(nodes, u) for u in us]))


def _add_segment(total: float, floor: float, x: float, t0: int, products, denoms,
                 half: float) -> tuple[float, float]:
    """(total, floor) after adding the segment [t0, t0 + 2 half] of E at x:
    x^t0 half sum_i products_i / denoms_i, and its round-off floor."""
    segment = reduce(add, map(truediv, products, denoms), 0.0)
    seg_value = x**t0 * segment * half
    return total + seg_value, floor + MACHINE_EPS * (abs(seg_value) + 1.0) * 8.0


#: Distinct x whose ``_SeriesState`` is kept; a z-sweep at fixed x builds it once.
_SERIES_STATE_CACHE_SIZE = 64


class _SeriesState:
    """E at one x, summed from 0 to any z up to the cutoff.

    Built whole: the cut coefficients c_0(x) .. c_N(x) of the head,
    ``last`` = c_110(x), ``nodes`` = c_0(x) .. c_M(x) of the node series,
    the head's truncation bound over the whole window, the weight * series
    value at each full-segment node, and ``running``, the (total, floor)
    after 0, 1, 2, ... full segments t0 = 3, 4, ..., begun from the window
    head.  Only ``running`` changes after construction: a call extends a
    copy of it by the segments no call at x has reached, assigns it whole
    and reads the entry at its own count; a concurrent call may assign an
    equal shorter prefix after it, which costs work, not bits.  The sums
    are added in segment order whatever z asks, so every z reads the floats
    its own loop over the segments would give; tol only moves the cutoff,
    which caps the count.
    """

    __slots__ = ("x", "coeffs", "last", "nodes", "window_trunc", "full_products", "running")

    def __init__(self, x: float, coeffs: tuple[float, ...], last: float, node_order: int):
        self.x = x
        self.coeffs = coeffs
        self.last = last
        self.nodes = coeffs[:node_order + 1]
        total, self.window_trunc, floor = _head(coeffs, last, SERIES_WINDOW)
        self.full_products = _node_products(self.nodes, _FULL_U)
        self.running = ((total, floor),)

    def integral(self, z: float) -> tuple[float, float, float, int]:
        """(total, trunc, floor, terms_used) of E from 0 to z, z at most the
        cutoff: the head for z <= 3, else the full segments [t0, t0+1] for
        t0 = 3 .. int(z) - 1 and a final partial segment."""
        terms = len(self.coeffs)
        if z <= SERIES_WINDOW:
            return *_head(self.coeffs, self.last, z), terms
        full = int(z) - 3  # z - t0 is exact for every integer t0 <= z
        running = self.running
        if full >= len(running):
            grown = list(running)
            total, floor = grown[-1]
            try:
                for t0 in range(len(grown) + 2, full + 3):
                    total, floor = _add_segment(total, floor, self.x, t0, self.full_products,
                                                _full_denoms(t0), 0.5)
                    grown.append((total, floor))
            finally:  # keeps the segments before an OverflowError of x^t0
                self.running = running = tuple(grown)
        total, floor = running[full]
        node_series = bool(full)  # the full nodes' series, then the partial nodes'
        t0 = 3 + full
        if t0 < z:  # a final partial segment
            half = 0.5 * (z - t0)
            part_u = [half * shift for shift in _NODE_SHIFTS]
            denoms = [math.prod(map(add, repeat(u, t0), range(1, t0 + 1))) for u in part_u]
            total, floor = _add_segment(total, floor, self.x, t0,
                                        _node_products(self.nodes, part_u), denoms, half)
            node_series += 1
        terms += node_series * _SEGMENT_RULE_NODES * len(self.nodes)
        return total, self.window_trunc, floor, terms


@lru_cache(maxsize=_SERIES_STATE_CACHE_SIZE)
def _series_state(x: float) -> _SeriesState:
    """The state of x; the package's one per-x cache."""
    return _SeriesState(x, *_cut_series_coeffs(x))


def E_series(x: float, z: float, tol: float = 1e-10) -> SeriesEval:
    """E(x, z) by the coefficient series sum_{n=1}^{N+1} c_{n-1}(x) z^n / n.

    N = N(x) <= 110 is x's certified head cut order (see the module
    docstring): the terms past it cannot move a bit of the sum over the
    whole table.  The node series past the window run over c_0(x) .. c_M(x),
    M = M(x) <= N the node cut order.

    Single-centre for z <= 3 (``SERIES_WINDOW``); past that, unit
    subintervals [t0, t0+1] are integrated with the recentred representation
    x^t0 series(u) / ((u+1)...(u+t0)), whose series argument u stays in
    [0, 1].  The running sum after each full subinterval is cached per x,
    with the coefficients, the head sum over the whole window and the
    full-node values, and the full-node denominators are shared by every x;
    so a call at a cached x adds only its final partial subinterval, which
    evaluates its own nodes.
    A z past ``nu_cutoff(x, tol)``, +inf included, stops at the cutoff and
    adds its bound e^-cutoff on the rest to the tail (for x above ~28, x^t0
    overflows first: OverflowError).  ``terms_used`` counts the coefficients
    evaluated: N + 1 for the head, and M + 1 for each node series the
    representation evaluates, cached or not.  Agrees with E_quadrature
    to ~1e-13 relative over the tested domain (x <= 50, z <= 30).
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"E_series requires a finite x > 0, got {x}")
    if not z >= 0.0:  # +inf is E(x, inf) = nu(x)
        raise ValueError(f"E_series requires z >= 0, got {z}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"E_series requires a finite tol > 0, got {tol}")
    if z == 0.0:
        return SeriesEval(0.0, 0, 0.0, True)
    limit, _, rest = _cut_at_nu(x, z, tol)
    try:
        total, trunc, floor, terms = _series_state(x).integral(limit)
    except OverflowError as exc:  # x^t0 of a segment; the state keeps the segments before it
        raise OverflowError(
            f"E_series's segment factor x^t0 overflows in floats at (x={x}, z={z})") from exc
    tail = trunc + floor + rest
    converged = tail <= tol * max(1.0, abs(total))
    return SeriesEval(total, terms, tail, converged)


def E_quadrature(x: float, z: float, tol: float = 1e-10) -> float:
    """E(x, z) by adaptive quadrature of the integrand; the series oracle's
    independent counterpart.

    The pure-Python QAGS of ``integrate_adaptive`` (scipy's ``quad`` is only
    a test-time reference for it).  A z past ``nu_cutoff(x, tol)``, +inf
    included, integrates to the cutoff at tol/2 and so returns nu(x, tol);
    QAGS's nodes on [0, z] would otherwise all miss the integrand's mass
    and certify 0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"E_quadrature requires a finite x > 0, got {x}")
    if not z >= 0.0:  # +inf is E(x, inf) = nu(x)
        raise ValueError(f"E_quadrature requires z >= 0, got {z}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"E_quadrature requires a finite tol > 0, got {tol}")
    limit, tol, _ = _cut_at_nu(x, z, tol)
    log_x = math.log(x)

    def integrand(t: float) -> float:
        return math.exp(t * log_x - math.lgamma(t + 1.0))

    try:
        value, _ = integrate_adaptive(QuadratureRequest(integrand, 0.0, limit, tolerance=tol))
    except OverflowError as exc:  # math.exp of the integrand
        raise OverflowError(
            f"E_quadrature's integrand x^t / Gamma(t+1) overflows in floats at (x={x}, z={z})"
        ) from exc
    return value


def nu_cutoff(x: float, tol: float) -> float:
    """Cutoff Z with a certified tail bound integral_Z^inf x^t/Gamma(t+1) <= tol/2.

    Gamma(t+1) >= (t/e)^t for t >= 1, so the integrand is below (e x / t)^t,
    which is below e^-t once t >= e^2 x; the remaining exponential tail
    integrates to e^-Z.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"nu_cutoff requires a finite x > 0, got {x}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"nu_cutoff requires a finite tol > 0, got {tol}")
    return max(30.0, math.e**2 * x, -math.log(tol / 2.0) + 1.0)


def _cut_at_nu(x: float, z: float, tol: float) -> tuple[float, float, float]:
    """(limit, tol on [0, limit], bound on the rest) of E(x, z) to tol: the
    tail rule of both E engines.  Past ``nu_cutoff(x, tol)`` the rest is
    below e^-cutoff <= tol/2e, so (cutoff, tol/2, e^-cutoff); else (z, tol, 0)."""
    cutoff = nu_cutoff(x, tol)
    if z > cutoff:
        return cutoff, tol / 2.0, math.exp(-cutoff)
    return z, tol, 0.0


def nu(x: float, tol: float = 1e-10) -> float:
    """nu(x) = E(x, inf) = integral_0^inf x^t / Gamma(t+1) dt, to within tol."""
    try:
        return E_quadrature(x, math.inf, tol)
    except QuadratureError as exc:
        raise ConvergenceError(f"nu({x}) quadrature failed: {exc}") from exc


def _mu_integrand(x: float, beta: float, alpha: float, tol: float):
    """mu's integrand and a cutoff Z whose tail integral past Z is below tol/2."""
    log_x = math.log(x)
    log_gamma_beta = math.lgamma(beta + 1.0)
    cutoff = max(30.0, math.e**2 * x, 2.0 * beta + 10.0)
    # integrand <= x^alpha t^beta e^-t / Gamma(beta+1) past e^2 x; for
    # Z >= 2 beta the factor t^beta e^-t/2 is decreasing, so the tail is
    # below 2 x^alpha Z^beta e^-Z / Gamma(beta+1).
    def tail_bound(zc: float) -> float:
        return math.exp(
            alpha * log_x + beta * math.log(zc) - zc - log_gamma_beta + math.log(2.0)
        )

    while tail_bound(cutoff) > tol / 2.0:
        cutoff += 10.0
        if cutoff > 10_000.0:
            raise ConvergenceError("mu_function could not certify a tail cutoff")

    def integrand(t: float) -> float:
        if t == 0.0:
            return 0.0 if beta > 0 else math.exp(alpha * log_x - math.lgamma(alpha + 1.0) - log_gamma_beta)
        return math.exp(
            (alpha + t) * log_x
            + beta * math.log(t)
            - math.lgamma(alpha + t + 1.0)
            - log_gamma_beta
        )

    return integrand, cutoff


def mu_function(x: float, beta: float = 0.0, alpha: float = 0.0, tol: float = 1e-10) -> float:
    """mu(x, beta, alpha): the classical three-parameter transcendent.

    Quadrature over [0, Z] with Z chosen so that the Stirling-type bound
    x^alpha (e x / t)^t t^beta / Gamma(beta+1) certifies a tail below
    tol/2; mu(x, 0, 0) = nu(x).
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"mu_function requires a finite x > 0, got {x}")
    if not (0.0 <= beta < math.inf and 0.0 <= alpha < math.inf):
        raise ValueError(f"mu_function requires finite beta, alpha >= 0, got {beta=}, {alpha=}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"mu_function requires a finite tol > 0, got {tol}")
    try:
        integrand, cutoff = _mu_integrand(x, beta, alpha, tol)
        value, _ = integrate_adaptive(
            QuadratureRequest(integrand, 0.0, cutoff, tolerance=tol / 2.0)
        )
    except QuadratureError as exc:
        raise ConvergenceError(f"mu({x}, {beta}, {alpha}) quadrature failed: {exc}") from exc
    except OverflowError as exc:  # math.exp of the integrand or of its tail bound
        raise OverflowError(f"mu_function's integrand or tail bound overflows in floats at "
                            f"(x={x}, beta={beta}, alpha={alpha})") from exc
    return value


def rho(x: float, y: float, z: float, tol: float = 1e-10) -> float | LogScaled:
    """rho(x, y, z) = x^z E(y (z-1)^2 / 2x, z - 1).

    Defined for z > 1; the boundary value rho(x, y, 1) = 0 is accepted by
    continuity.  E is evaluated by ``E_series``, the coefficient machinery,
    which is smooth in the parameters; ``E_quadrature`` is its independent
    oracle.  Raises ConvergenceError where w = y (z-1)^2 / 2x underflows to
    0, and unless E's series certifies ``tol`` and x^z times its tail
    estimate stays within tol * max(1, |rho|); OverflowError where w or E's
    segments leave binary64.
    The float product x^z E, or LogScaled by the rule of ``cpoch.core``.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"rho requires a finite x > 0, got {x}")
    if not 0.0 < y < math.inf:
        raise ValueError(f"rho requires a finite y > 0, got {y}")
    if not 1.0 <= z < math.inf:
        raise ValueError(f"rho requires a finite z >= 1, got {z}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"rho requires a finite tol > 0, got {tol}")
    if z == 1.0:
        return 0.0
    w = reduced_argument(x, y, z)
    if w == math.inf:
        raise OverflowError(
            f"rho's reduced argument w = y (z-1)^2 / 2x overflows at (x={x}, y={y}, z={z})")
    if w == 0.0:
        raise ConvergenceError(
            f"rho's reduced argument w = y (z-1)^2 / 2x underflows to 0 at (x={x}, y={y}, z={z})")
    result = E_series(w, z - 1.0, tol)
    if not result.converged:
        raise ConvergenceError(
            f"E series did not certify tol={tol} at (x={w}, z={z - 1.0}); "
            f"tail estimate {result.tail_estimate:.3g}"
        )
    # E's certificate is absolute when E < 1; rho's is relative to rho = x^z E
    # once that exceeds 1, so the tail is scaled by x^z (in logs, to cover
    # the LogScaled range) and checked again.
    log_scale = z * math.log(x)
    log_value = log_scale + math.log(result.value)
    if log_scale + math.log(result.tail_estimate) > math.log(tol) + max(0.0, log_value):
        raise ConvergenceError(
            f"rho did not certify tol={tol} at (x={x}, y={y}, z={z}): E tail estimate "
            f"{result.tail_estimate:.3g} scaled by x^z exceeds tol * max(1, |rho|)"
        )
    if log_value > LOG_SCALED_FROM:
        return LogScaled(1, log_value)
    return x**z * result.value


def E_deriv_z(x: float, z: float, k: int = 1) -> float:
    """k-th z-derivative of E by the termwise-differentiated series.

    d^k E / dz^k = sum_n (n+1)^(rising k-1) c_{n+k-1}(x) z^n over the
    whole shifted table c_0(x) .. c_110(x), built on each call (the rising
    factors lie outside the cut order's bound); at k = 1 this is the integrand
    x^z / Gamma(z+1).  Restricted to the series window z <= 3 and k in
    {1, 2, 3}.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"E_deriv_z requires a finite x > 0, got {x}")
    if not 0.0 <= z <= SERIES_WINDOW:
        raise ValueError(f"E_deriv_z requires z in [0, {SERIES_WINDOW}], got {z}")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    coeffs = weighted_series_coeffs(x)
    total = 0.0
    power = 1.0
    for n in range(len(coeffs) - k + 1):
        rising = 1.0
        for j in range(k - 1):
            rising *= n + 1 + j
        total += rising * coeffs[n + k - 1] * power
        power *= z
    return total
