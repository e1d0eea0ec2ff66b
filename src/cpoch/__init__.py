"""Discrete Pochhammer symbol, exact Stirling machinery, and two continuous analogues.

The discrete product r(x, y, n) = x (x+y) ... (x + (n-1)y) is a weighted
count of lattice points in ordered simplices.  Replacing the counts by
volumes and the sums by integrals yields two continuous companions: the
truncated-exponential analogue rtilde (exact rational coefficient triangles
with a smooth incomplete-gamma extension in the order) and the integral
analogue rho built on E(x, z) = integral_0^z x^t / Gamma(t+1) dt and the
classical nu / mu transcendents.
"""

from .core import (
    EULER_GAMMA,
    ConvergenceError,
    LogScaled,
    SeriesEval,
    zeta,
    zeta_hat,
)
from .discrete import (
    StirlingTriangle,
    geometric_sum_pair,
    pochhammer_discrete,
    power_sum_pair,
    simplex_moment,
    simplex_volume,
    stirling_lattice_oracle,
    stirling_triangle,
)
from .gammafns import (
    e_partial,
    e_partial_sum,
    gamma,
    gamma_minimum,
    gamma_y,
    log_e_partial,
    pochhammer_continuous,
    regularized_q,
)
from .quadrature import (
    QuadratureError,
    QuadratureRequest,
    gauss_hermite,
    integrate_adaptive,
    integrate_simplex,
)
from .recip_gamma import (
    c_composition_oracle,
    c_table,
    recip_gamma_series,
    weighted_series_coeffs,
)
from .rho import (
    E_deriv_z,
    E_quadrature,
    E_series,
    mu_function,
    nu,
    rho,
)
from .rtilde import (
    GroupoidCardinalities,
    RTildeTriangle,
    cosh_truncated,
    gaussian_expectation,
    groupoid_cardinalities,
    rtilde_closed,
    rtilde_coefficient,
    rtilde_ext,
    rtilde_poly,
    rtilde_series_lower,
    rtilde_series_upper,
    rtilde_triangle,
    stilde_mobius_oracle,
)

__version__ = "0.1.0"
