"""Numerical integration services: production paths and verification oracles.

* ``integrate_adaptive`` -- adaptive 1-D quadrature: QUADPACK's QAGS
  (21-point Gauss-Kronrod, bisection, epsilon-algorithm extrapolation),
  ported to pure Python in ``cpoch._qags``.  The production path of
  ``E_quadrature``, ``nu`` and ``mu_function`` in ``cpoch.rho``, behind
  ``cpoch eval E/nu/mu``.
  ``cpoch.verify`` uses it as an oracle: through ``E_quadrature`` against
  ``E_series``, and directly in ``mu_cutoff_consistency``.
* ``_LEGENDRE_RULES`` -- the 10- and 24-node Gauss-Legendre rules on
  [-1, 1].  The 24-node rule is on the production path of ``E_series``
  (behind ``rho``); the 10-node rule serves ``integrate_simplex``.
* ``gauss_hermite`` -- Gauss-Hermite rules normalized for the standard
  normal weight, built by Newton's method on the Hermite recurrence; the
  path of ``rtilde.gaussian_expectation``, an alternative form of rtilde
  that verify checks against ``rtilde_closed``.
* ``integrate_simplex`` -- the nested fixed-rule recursion over ordered
  simplices; an oracle only, for the closed-form simplex volumes and
  moments of ``cpoch.discrete`` in verify's discrete suite.

The Legendre rules are float literals, the bits numpy's ``leggauss``
returns, so ``E_series`` and the values pinned from it do not depend on
an installed numpy; verify checks them, and the Hermite rules, against a
40-digit Newton solve.  Nothing here imports a third-party package;
``integrate_adaptive`` imports ``cpoch._qags`` on first use.  scipy's
``quad`` wraps the same QAGS and is now only a test-time reference: the
port returns its value, error estimate and failure flag bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .core import ConvergenceError

__all__ = [
    "QuadratureRequest",
    "QuadratureError",
    "integrate_adaptive",
    "gauss_hermite",
    "integrate_simplex",
]

MAX_HERMITE_NODES = 128
MAX_SUBDIVISIONS = 200  # QUADPACK interval budget of integrate_adaptive
SIMPLEX_MAX_DEPTH = 5
_SIMPLEX_RULE_NODES = 10  # Gauss-Legendre, exact to polynomial degree 19
_NEWTON_MAX_STEPS = 10  # every Hermite node for 2 <= n <= 128 converges within 7
#: What each nonzero return code of ``_qags.qags`` means.
_QAGS_FAILURES = {
    1: f"the subdivision limit ({MAX_SUBDIVISIONS}) was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour at some points of the interval",
    4: "roundoff error in the extrapolation table prevents the requested tolerance",
    5: "the integral is probably divergent or slowly convergent",
}


def _mirrored(half_nodes, half_weights):
    """A rule symmetric about 0, in ascending order, from its positive half."""
    return tuple(-x for x in reversed(half_nodes)) + half_nodes, half_weights[::-1] + half_weights


#: Gauss-Legendre rules on [-1, 1] by node count: the bits of numpy 2.4.6's
#: ``leggauss``, which are symmetric bit for bit.  The 24-node end weights
#: are off by up to 1.21e-13 relative (verify's ``recip/gauss_rule_vs_newton``
#: reports it); the pinned ``E_series`` and ``rho`` bits rest on these.
_LEGENDRE_RULES = {
    10: _mirrored(
        (0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
         0.8650633666889845, 0.9739065285171717),
        (0.2955242247147528, 0.2692667193099965, 0.219086362515982,
         0.1494513491505804, 0.06667134430868814),
    ),
    24: _mirrored(
        (0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
         0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
         0.7401241915785544, 0.820001985973903, 0.8864155270044011,
         0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
        (0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
         0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
         0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
         0.04427743881741941, 0.02853138862893356, 0.01234122979998869),
    ),
}


class QuadratureError(ConvergenceError):
    """Raised when the adaptive scheme cannot certify the tolerance."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureRequest:
    integrand: Callable[[float], float]
    lower: float
    upper: float
    tolerance: float = 1e-10

    def __post_init__(self):
        if not -math.inf < self.lower <= self.upper < math.inf:
            raise ValueError(f"QuadratureRequest requires finite lower <= upper, "
                             f"got [{self.lower}, {self.upper}]")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"QuadratureRequest requires a finite tolerance > 0: {self.tolerance}")


def integrate_adaptive(request: QuadratureRequest) -> tuple[float, float]:
    """Integrate over [lower, upper], returning (value, error estimate).

    QUADPACK's QAGS (``cpoch._qags``) with ``tolerance`` as both its
    absolute and relative target, so the tolerance is absolute for
    integrals of magnitude <= 1 and relative beyond that, within
    ``MAX_SUBDIVISIONS`` intervals.  A nonzero QAGS return code or an error
    estimate above the tolerance raises QuadratureError carrying the best
    estimate and its error estimate.  The results are those of scipy's
    ``quad(..., limit=MAX_SUBDIVISIONS)`` bit for bit.
    """
    if request.lower == request.upper:
        return 0.0, 0.0
    from ._qags import qags

    value, abserr, ier = qags(
        request.integrand,
        request.lower,
        request.upper,
        request.tolerance,
        request.tolerance,
        MAX_SUBDIVISIONS,
    )
    allowed = request.tolerance * max(1.0, abs(value))
    if ier or abserr > allowed:
        message = _QAGS_FAILURES[ier] if ier else (
            f"error estimate {abserr:.3g} exceeds tolerance {allowed:.3g}"
        )
        raise QuadratureError(message, best_estimate=value, error_estimate=abserr)
    return value, abserr


def _hermite_values(n: int, t: float) -> tuple[float, float]:
    """(p_{n-1}(t), p_n(t)), Hermite polynomials orthonormal for the standard normal law."""
    prev, cur = 0.0, 1.0
    for j in range(1, n + 1):
        prev, cur = cur, (t * cur - math.sqrt(j - 1) * prev) / math.sqrt(j)
    return prev, cur


@lru_cache(maxsize=None)
def _hermite_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-node rule for the standard normal law.

    Newton's method on p_n, with p_n' = sqrt(n) p_{n-1}; the weight at a
    node is 1 / (n p_{n-1}^2) (Golub & Welsch, Math. Comp. 23, 1969).  The
    positive nodes are found from the largest down, from the asymptotic
    initial guesses of Numerical Recipes' ``gauher`` scaled by sqrt(2) to
    this weight; the rule is mirrored from them.
    """
    n = nodes
    found: list[float] = []
    weights: list[float] = []
    for i in range((n + 1) // 2):
        if i == 0:
            t = math.sqrt(2.0) * (math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** (-1.0 / 6.0))
        elif i == 1:
            t -= 2.28 * n**0.426 / t
        elif i == 2:
            t = 1.86 * t - 0.86 * found[0]
        elif i == 3:
            t = 1.91 * t - 0.91 * found[1]
        else:
            t = 2.0 * t - found[i - 2]
        for _ in range(_NEWTON_MAX_STEPS):
            prev, cur = _hermite_values(n, t)
            step = cur / (math.sqrt(n) * prev)
            t -= step
            if abs(step) <= 1e-15 * max(1.0, abs(t)):
                break
        prev, _ = _hermite_values(n, t)
        found.append(t)
        weights.append(1.0 / (n * prev * prev))
    # for odd n the last node found is the middle one, at 0
    mirrored = n // 2
    points = tuple(-t for t in found) + tuple(reversed(found[:mirrored]))
    return points, tuple(weights) + tuple(reversed(weights[:mirrored]))


def gauss_hermite(f: Callable[[float], float], nodes: int) -> float:
    """Expectation of f under the standard normal law by Gauss-Hermite.

    Exact (to rounding) for polynomials of degree <= 2*nodes - 1.
    """
    if not 2 <= nodes <= MAX_HERMITE_NODES:
        raise ValueError(f"nodes must lie in [2, {MAX_HERMITE_NODES}], got {nodes}")
    points, weights = _hermite_rule(nodes)
    return math.fsum(w * f(t) for t, w in zip(points, weights))


def integrate_simplex(k: int, x: float, moment: bool) -> float:
    """Nested integral over the ordered simplex 0 <= s_1 <= ... <= s_k <= x.

    Integrates the constant 1 (volume) or the product s_1 ... s_k (moment)
    by recursing on the one-dimensional layers of the simplex.  The fixed
    Gauss-Legendre rule is exact for these polynomial layers.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > SIMPLEX_MAX_DEPTH:
        raise ValueError(f"nested quadrature limited to k <= {SIMPLEX_MAX_DEPTH}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"integrate_simplex requires a finite x >= 0, got {x}")
    if k == 0:
        return 1.0
    nodes, weights = _LEGENDRE_RULES[_SIMPLEX_RULE_NODES]

    def layer(depth: int, upper: float) -> float:
        if depth == 0:
            return 1.0
        half = 0.5 * upper
        total = 0.0
        for t, w in zip(nodes, weights):
            s = half * (t + 1.0)
            inner = layer(depth - 1, s)
            total += w * (s * inner if moment else inner)
        return total * half

    return layer(k, float(x))
