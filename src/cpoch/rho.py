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
reciprocal-gamma coefficients c_0(x) .. c_110(x) of
``recip_gamma.weighted_series_coeffs`` (recentred on unit subintervals
past the series window z = 3), and adaptive quadrature of the integrand.
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
partial subinterval evaluates the series at nodes of its own.

One per-x cache, ``_series_state``, holds the coefficients, the head sum
over the whole window, the full-node series values and the running sum
after each full segment, so a z-sweep at fixed x pays for each once and a
call adds only its own partial segment; ``E_deriv_z`` reads its
coefficients there too.  The full-node denominators depend on neither x
nor z, so one module-level table holds them for every x.  Memory: per
cached x (64 at most) one running entry per full segment a call reached,
at most cutoff - 3; in the table one row per t0 any call reached.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv

from .core import LOG_SCALED_FROM, MACHINE_EPS, ConvergenceError, LogScaled, SeriesEval
from .core import reduced_argument
from .quadrature import _LEGENDRE_RULES, QuadratureError, QuadratureRequest, integrate_adaptive
from .recip_gamma import SERIES_WINDOW, _horner, weighted_series_coeffs

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
#: Row t0 - 2 is (u+1)...(u+t0) at the full-segment nodes, for t0 = 2 up to
#: the largest t0 any call has reached; shared by every x.
_FULL_DENOMS = [tuple((u + 1.0) * (u + 2.0) for u in _FULL_U)]
#: Held while a call appends to ``_FULL_DENOMS`` or to a state's running
#: sums, so that concurrent callers never append a row or an entry twice.
_GROWING = threading.Lock()


def _full_denoms(t0: int) -> tuple[float, ...]:
    """(u+1)...(u+t0) at the full-segment nodes; the caller holds ``_GROWING``.
    Each row extends the one before by the factor (u+t0), in the order a
    fresh product takes, so the floats match it."""
    while len(_FULL_DENOMS) < t0 - 1:
        factor = len(_FULL_DENOMS) + 2
        _FULL_DENOMS.append(tuple(map(mul, _FULL_DENOMS[-1], map(add, _FULL_U, repeat(factor)))))
    return _FULL_DENOMS[t0 - 2]


def _head(coeffs: tuple[float, ...], head: float) -> tuple[float, float, float]:
    """sum_n coeffs[n] head^(n+1) / (n+1), its truncation bound and its round-off floor."""
    terms = list(map(truediv, map(mul, coeffs, accumulate(repeat(head, len(coeffs)), mul)),
                     range(1, len(coeffs) + 1)))
    # reduce, not sum(): from Python 3.12 on sum() compensates float sums, moving E's bits
    total = reduce(add, terms, 0.0)
    peak = max(0.0, *map(abs, terms))
    trunc = abs(coeffs[-1]) * head ** len(coeffs) * 2.0
    return total, trunc, MACHINE_EPS * peak * 8.0


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
    """E_series's z-independent work at one x, shared by every z.

    The coefficients; once a call passes the window, the head's truncation
    bound over the whole window (``_head``) and ``running``, the (total,
    floor) after 0, 1, 2, ... full segments t0 = 3, 4, ..., begun from the
    window head; and the weight * series value at each full-segment node,
    which extends ``running``.  A call appends the segments no call at x
    has reached and reads the entry at its own count.  The sums are added
    in segment order whatever z asks, so every z reads the floats its own
    loop over the segments would give; tol only moves the cutoff, which
    caps the count.
    """

    __slots__ = ("x", "coeffs", "window_trunc", "running", "full_products")

    def __init__(self, x: float, coeffs: tuple[float, ...]):
        self.x = x
        self.coeffs = coeffs
        self.window_trunc = None
        self.running = None
        self.full_products = None

    def after_full_segments(self, count: int) -> tuple[float, float, float]:
        """(total, trunc, floor) of E from 0 to 3 + count: the head over the
        window and ``count`` full segments."""
        if self.running is None or count >= len(self.running):
            with _GROWING:
                if self.running is None:
                    total, self.window_trunc, floor = _head(self.coeffs, SERIES_WINDOW)
                    self.running = [(total, floor)]
                running = self.running
                if count >= len(running):
                    if self.full_products is None:
                        self.full_products = tuple(
                            map(mul, _WEIGHTS, [_horner(self.coeffs, u) for u in _FULL_U]))
                    total, floor = running[-1]
                    for t0 in range(len(running) + 2, count + 3):
                        total, floor = _add_segment(total, floor, self.x, t0, self.full_products,
                                                    _full_denoms(t0), 0.5)
                        running.append((total, floor))
        total, floor = self.running[count]
        return total, self.window_trunc, floor


@lru_cache(maxsize=_SERIES_STATE_CACHE_SIZE)
def _series_state(x: float) -> _SeriesState:
    """The state of x; the package's one per-x cache."""
    return _SeriesState(x, weighted_series_coeffs(x))


def E_series(x: float, z: float, tol: float = 1e-10) -> SeriesEval:
    """E(x, z) by the coefficient series sum_{n=1}^{111} c_{n-1}(x) z^n / n.

    Single-centre for z <= 3 (``SERIES_WINDOW``); past that, unit
    subintervals [t0, t0+1] are integrated with the recentred representation
    x^t0 series(u) / ((u+1)...(u+t0)), whose series argument u stays in
    [0, 1].  The running sum after each full subinterval is cached per x,
    with the coefficients and the head sum over the whole window, and the
    full-node denominators are shared by every x; so a call at a cached x
    adds only its final partial subinterval, which evaluates its own nodes.
    A z past ``nu_cutoff(x, tol)``, +inf included, stops at the cutoff and
    adds its bound e^-cutoff on the rest to the tail (for x above ~28, x^t0
    overflows first: OverflowError).  ``terms_used`` adds the terms of every
    node series the representation evaluates to the head terms, cached or
    not.  Agrees with E_quadrature to ~1e-13 relative over the tested
    domain (x <= 50, z <= 30).  A nan or infinite x is refused.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"E_series requires a finite x > 0, got {x}")
    if z < 0:
        raise ValueError(f"E_series requires z >= 0, got {z}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if z == 0.0:
        return SeriesEval(0.0, 0, 0.0, True)
    z, _, rest = _cut_at_nu(x, z, tol)
    state = _series_state(x)
    coeffs = state.coeffs
    terms = len(coeffs)
    if not z > SERIES_WINDOW:  # not <=, so a nan z sums the head at nan
        total, trunc, floor = _head(coeffs, z)
    else:
        # full segments [t0, t0+1] for t0 = 3 .. int(z) - 1; z is finite
        # here, and z - t0 is exact for every integer t0 <= z
        full = int(z) - 3
        total, trunc, floor = state.after_full_segments(full)
        if full:
            terms += _SEGMENT_RULE_NODES * len(coeffs)
        t0 = 3 + full
        if t0 < z:  # a final partial segment
            half = 0.5 * (z - t0)
            part_u = [half * shift for shift in _NODE_SHIFTS]
            products = map(mul, _WEIGHTS, [_horner(coeffs, u) for u in part_u])
            denoms = [math.prod(map(add, repeat(u, t0), range(1, t0 + 1))) for u in part_u]
            total, floor = _add_segment(total, floor, x, t0, products, denoms, half)
            terms += _SEGMENT_RULE_NODES * len(coeffs)
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
    and certify 0.  A nan or infinite x is refused.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"E_quadrature requires a finite x > 0, got {x}")
    if z < 0:
        raise ValueError(f"E_quadrature requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    z, tol, _ = _cut_at_nu(x, z, tol)
    log_x = math.log(x)

    def integrand(t: float) -> float:
        return math.exp(t * log_x - math.lgamma(t + 1.0))

    value, _ = integrate_adaptive(QuadratureRequest(integrand, 0.0, z, tolerance=tol))
    return value


def nu_cutoff(x: float, tol: float) -> float:
    """Cutoff Z with a certified tail bound integral_Z^inf x^t/Gamma(t+1) <= tol/2.

    Gamma(t+1) >= (t/e)^t for t >= 1, so the integrand is below (e x / t)^t,
    which is below e^-t once t >= e^2 x; the remaining exponential tail
    integrates to e^-Z.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    if not 0.0 < x < math.inf:
        raise ValueError(f"nu requires a finite x > 0, got {x}")
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
    if x <= 0:
        raise ValueError(f"mu_function requires x > 0, got {x}")
    if beta < 0 or alpha < 0:
        raise ValueError("beta and alpha must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    integrand, cutoff = _mu_integrand(x, beta, alpha, tol)
    try:
        value, _ = integrate_adaptive(
            QuadratureRequest(integrand, 0.0, cutoff, tolerance=tol / 2.0)
        )
    except QuadratureError as exc:
        raise ConvergenceError(f"mu({x}, {beta}, {alpha}) quadrature failed: {exc}") from exc
    return value


def rho(x: float, y: float, z: float, tol: float = 1e-10) -> float | LogScaled:
    """rho(x, y, z) = x^z E(y (z-1)^2 / 2x, z - 1).

    Defined for z > 1; the boundary value rho(x, y, 1) = 0 is accepted by
    continuity.  E is evaluated by ``E_series``, the coefficient machinery,
    which is smooth in the parameters; ``E_quadrature`` is its independent
    oracle.  Raises ConvergenceError unless E's series certifies ``tol`` and
    x^z times its tail estimate stays within tol * max(1, |rho|), and
    OverflowError where w = y (z-1)^2 / 2x or E's segments leave binary64.
    The float product x^z E, or LogScaled by the rule of ``cpoch.core``.
    """
    if x <= 0:
        raise ValueError(f"rho requires x > 0, got {x}")
    if y <= 0:
        raise ValueError(f"rho requires y > 0, got {y}")
    if z < 1:
        raise ValueError(f"rho requires z >= 1, got {z}")
    if z == math.inf:
        raise ValueError(f"rho requires a finite z, got {z}")
    if z == 1.0:
        return 0.0
    w = reduced_argument(x, y, z)
    if w == math.inf:
        raise OverflowError(
            f"rho's reduced argument w = y (z-1)^2 / 2x overflows at (x={x}, y={y}, z={z})")
    if math.isnan(w):  # E_series refuses a nan argument; E is uncertified there
        raise ConvergenceError(f"E is uncertified at a nan argument (x={x}, y={y}, z={z})")
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
    shifted coefficients c_0(x) .. c_110(x); at k = 1 this is the integrand
    x^z / Gamma(z+1).  Restricted to the series window z <= 3 and k in
    {1, 2, 3}.
    """
    if x <= 0:
        raise ValueError(f"E_deriv_z requires x > 0, got {x}")
    if not 0.0 <= z <= SERIES_WINDOW:
        raise ValueError(f"z must lie in [0, {SERIES_WINDOW}], got {z}")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    coeffs = _series_state(x).coeffs
    total = 0.0
    power = 1.0
    for n in range(len(coeffs) - k + 1):
        rising = 1.0
        for j in range(k - 1):
            rising *= n + 1 + j
        total += rising * coeffs[n + k - 1] * power
        power *= z
    return total
