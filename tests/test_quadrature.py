import math
import random

import pytest

from cpoch import _qags
from cpoch.discrete import simplex_moment
from cpoch.gammafns import gamma, regularized_q
from cpoch.quadrature import (
    MAX_HERMITE_NODES,
    MAX_SUBDIVISIONS,
    QuadratureError,
    QuadratureRequest,
    _hermite_rule,
    gauss_hermite,
    integrate_adaptive,
    integrate_simplex,
)
from cpoch.verify import HERMITE_RULE_NODES, SIMPLEX_K, SIMPLEX_X


class TestAdaptive:
    def test_linear(self):
        value, err = integrate_adaptive(QuadratureRequest(lambda t: t, 0.0, 1.0, 1e-12))
        assert abs(value - 0.5) <= 1e-12
        assert err <= 1e-12

    def test_truncated_exponential(self):
        value, _ = integrate_adaptive(
            QuadratureRequest(lambda t: math.exp(-t), 0.0, 40.0, 1e-12)
        )
        assert abs(value - 1.0) <= 1e-12

    def test_lower_incomplete_gamma_cross_check(self):
        # two independent code paths: QUADPACK vs the series/CF kernel
        value, _ = integrate_adaptive(
            QuadratureRequest(lambda t: t**1.5 * math.exp(-t), 0.0, 3.0, 1e-12)
        )
        p = 1.0 - regularized_q(2.5, 3.0, 1e-14).value
        assert abs(value - p * gamma(2.5)) <= 1e-10

    def test_gamma_integral_grid(self):
        for z in (1.5, 3.0, 7.0):
            value, _ = integrate_adaptive(
                QuadratureRequest(lambda t, z=z: t ** (z - 1.0) * math.exp(-t), 0.0, 50.0, 1e-12)
            )
            assert abs(value - gamma(z)) <= 1e-10 * gamma(z)

    def test_budget_failure_reports_best_estimate(self):
        # 1e6 / (2 pi) oscillations outrun the subdivision budget
        request = QuadratureRequest(lambda t: math.sin(1e6 * t), 0.0, 1.0, tolerance=1e-13)
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(request)
        # the true value is (1 - cos 1e6) / 1e6 ~ 1.07e-6
        assert abs(info.value.best_estimate) <= info.value.error_estimate
        assert info.value.error_estimate > 1e-13

    def test_empty_interval(self):
        assert integrate_adaptive(QuadratureRequest(lambda t: t, 2.0, 2.0)) == (0.0, 0.0)


def _quadpack_cases(seed: int = 13):
    """(integrand, a, b, tol): a seeded grid of E integrands, then hard ones.

    The hard integrands drive QAGS into extrapolation and failure codes.
    """
    rng = random.Random(seed)
    for _ in range(150):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(600.0)))
        z = rng.uniform(0.0, 40.0)
        tol = 10.0 ** rng.uniform(-13.0, -6.0)
        yield (lambda t, log_x=math.log(x): math.exp(t * log_x - math.lgamma(t + 1.0))), 0.0, z, tol
    hard = (
        lambda t: 1.0 / math.sqrt(t),
        math.log,
        lambda t: math.sin(1.0 / t),
        lambda t: abs(t - 0.37) ** 0.3,
        lambda t: 1.0 if t < 0.4123 else 0.0,
        lambda t: 1.0 / abs(t - 0.37) if t != 0.37 else 0.0,  # divergent
        lambda t: 1.0 / (t * math.log(t) ** 2),  # slowly convergent
    )
    for f in hard:
        for tol in (1e-13, 1e-10, 1e-6):
            yield f, 0.0, 1.0, tol


class TestMatchesQuadpack:
    """The pure-Python QAGS against scipy's quad, the compiled QUADPACK it ports."""

    @pytest.mark.parametrize("limit", [5, 20, 200])
    def test_bit_identical_to_scipy_quad(self, monkeypatch, limit):
        integrate = pytest.importorskip("scipy.integrate")
        extrapolations = []
        qelg = _qags._qelg
        monkeypatch.setattr(_qags, "_qelg", lambda *a: extrapolations.append(1) or qelg(*a))
        failures = 0
        for f, a, b, tol in _quadpack_cases():
            out = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit, full_output=1)
            value, abserr, ier = _qags.qags(f, a, b, tol, tol, limit)
            assert (value, abserr, ier != 0) == (out[0], out[1], len(out) > 3), (a, b, tol)
            failures += ier != 0
        # the grid reaches the epsilon algorithm and the failure paths
        assert extrapolations and failures

    def test_integrate_adaptive_is_scipy_quad(self):
        integrate = pytest.importorskip("scipy.integrate")
        for f, a, b, tol in _quadpack_cases():
            out = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=MAX_SUBDIVISIONS,
                                 full_output=1)
            try:
                got = integrate_adaptive(QuadratureRequest(f, a, b, tol))
            except QuadratureError as exc:
                got = exc.best_estimate, exc.error_estimate
            assert got == (out[0], out[1]), (a, b, tol)


class TestGaussHermite:
    def test_normalization(self):
        assert abs(gauss_hermite(lambda t: 1.0, 8) - 1.0) <= 1e-14

    def test_second_moment(self):
        assert abs(gauss_hermite(lambda t: t * t, 8) - 1.0) <= 1e-13

    def test_fourth_moment(self):
        assert abs(gauss_hermite(lambda t: t**4, 8) - 3.0) <= 1e-12

    @pytest.mark.parametrize("nodes", [2, 8, 32])
    def test_even_moments_exact(self, nodes):
        # E[X^(2m)] = (2m-1)!! for the standard normal
        for m in range(nodes):
            expected = 1.0
            for j in range(1, m + 1):
                expected *= 2 * j - 1
            got = gauss_hermite(lambda t, m=m: t ** (2 * m), nodes)
            assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            gauss_hermite(lambda t: 1.0, 1)
        with pytest.raises(ValueError):
            gauss_hermite(lambda t: 1.0, 129)

    def test_every_admitted_rule_has_distinct_nodes_and_unit_mass(self):
        for n in range(2, MAX_HERMITE_NODES + 1):
            points, weights = _hermite_rule(n)
            assert len(points) == len(weights) == n
            assert all(a < b for a, b in zip(points, points[1:])), n
            assert abs(math.fsum(weights) - 1.0) <= 1e-14, n
            assert abs(math.fsum(w * t * t for t, w in zip(points, weights)) - 1.0) <= 1e-13, n


class TestGaussRules:
    @pytest.mark.parametrize("rule, nodes", [
        ("legendre", 10), ("legendre", 24), *(("hermite", n) for n in HERMITE_RULE_NODES),
    ])
    def test_against_newton(self, verify_cases, rule, nodes):
        verify_cases.check("recip/gauss_rule_vs_newton", rule=rule, nodes=nodes)


class TestSimplex:
    # the verify case checks volume and moment together
    @pytest.mark.parametrize("x", SIMPLEX_X)
    @pytest.mark.parametrize("k", SIMPLEX_K)
    def test_volume_closed_form(self, verify_cases, k, x):
        verify_cases.check("discrete/simplex_quadrature_vs_closed_forms", k=k, x=x)

    @pytest.mark.parametrize("x", SIMPLEX_X)
    @pytest.mark.parametrize("k", SIMPLEX_K)
    def test_moment_closed_form(self, k, x):
        # x^(2k) / (2^k k!) straight from the nested rule, outside the verify suite
        expected = simplex_moment(x, k)
        got = integrate_simplex(k, x, moment=True)
        assert abs(got - expected) <= 1e-7 * max(1.0, expected)

    def test_examples(self):
        assert abs(integrate_simplex(1, 2.0, moment=True) - 2.0) <= 1e-10
        assert abs(integrate_simplex(2, 1.0, moment=False) - 0.5) <= 1e-10
        assert abs(integrate_simplex(3, 1.0, moment=True) - 1.0 / 48.0) <= 1e-8

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            integrate_simplex(6, 1.0, moment=False)
