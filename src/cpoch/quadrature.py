"""Numerical integration services: production paths and verification oracles.

* ``integrate_adaptive`` -- adaptive 1-D quadrature (Gauss-Kronrod via
  scipy's QUADPACK bindings).  The production path of ``E_quadrature``,
  ``nu`` and ``mu_function`` in ``cpoch.rho``, behind ``cpoch eval E/nu/mu``.
  ``cpoch.verify`` uses it as an oracle: through ``E_quadrature`` against
  ``E_series``, and directly in ``mu_cutoff_consistency``.
* ``_legendre_rule`` -- cached Gauss-Legendre nodes.  The 24-node rule is
  on the production path of ``E_series`` (behind ``rho``); the 10-node rule
  serves ``integrate_simplex``.
* ``gauss_hermite`` -- Gauss-Hermite rules normalized for the standard
  normal weight; the path of ``rtilde.gaussian_expectation``, an
  alternative form of rtilde that verify checks against ``rtilde_closed``.
* ``integrate_simplex`` -- the nested fixed-rule recursion over ordered
  simplices; an oracle only, for the closed-form simplex volumes and
  moments of ``cpoch.discrete`` in verify's discrete suite.

scipy and numpy are imported on first use, inside the functions that need
them, so that importing cpoch for its exact layer does not load them.
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
        if not self.lower <= self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def integrate_adaptive(request: QuadratureRequest) -> tuple[float, float]:
    """Integrate over [lower, upper], returning (value, error estimate).

    The tolerance is absolute for integrals of magnitude <= 1 and relative
    beyond that.  A subdivision-budget failure raises QuadratureError
    carrying the best estimate.
    """
    if request.lower == request.upper:
        return 0.0, 0.0
    from scipy import integrate

    out = integrate.quad(
        request.integrand,
        request.lower,
        request.upper,
        epsabs=request.tolerance,
        epsrel=request.tolerance,
        limit=MAX_SUBDIVISIONS,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    allowed = request.tolerance * max(1.0, abs(value))
    if len(out) > 3 or abserr > allowed:
        message = out[3] if len(out) > 3 else (
            f"error estimate {abserr:.3g} exceeds tolerance {allowed:.3g}"
        )
        raise QuadratureError(str(message), best_estimate=value, error_estimate=abserr)
    return value, abserr


@lru_cache(maxsize=None)
def _hermite_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    import numpy as np

    x, w = np.polynomial.hermite.hermgauss(nodes)
    # hermgauss targets weight exp(-x^2); rescale for the standard normal:
    # E[f(X)] = sum w_i f(sqrt(2) x_i) / sqrt(pi).
    points = tuple(float(math.sqrt(2.0) * xi) for xi in x)
    weights = tuple(float(wi / math.sqrt(math.pi)) for wi in w)
    return points, weights


def gauss_hermite(f: Callable[[float], float], nodes: int) -> float:
    """Expectation of f under the standard normal law by Gauss-Hermite.

    Exact (to rounding) for polynomials of degree <= 2*nodes - 1.
    """
    if not 2 <= nodes <= MAX_HERMITE_NODES:
        raise ValueError(f"nodes must lie in [2, {MAX_HERMITE_NODES}], got {nodes}")
    points, weights = _hermite_rule(nodes)
    return math.fsum(w * f(t) for t, w in zip(points, weights))


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(nodes)
    return tuple(map(float, x)), tuple(map(float, w))


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
    if x < 0:
        raise ValueError("x must be non-negative")
    if k == 0:
        return 1.0
    nodes, weights = _legendre_rule(_SIMPLEX_RULE_NODES)

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
