import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from cpoch import gammafns
from cpoch.core import LOG_SCALED_FROM, LogScaled
from cpoch.discrete import pochhammer_discrete
from cpoch.gammafns import (
    DIRECT_SUM_MAX_N,
    e_partial,
    e_partial_sum,
    gamma,
    gamma_minimum,
    gamma_y,
    log_e_partial,
    pochhammer_continuous,
    regularized_q,
)
from cpoch.quadrature import QuadratureRequest, integrate_adaptive
from cpoch.verify import GAMMA_RECURRENCE_Z


def stirling_log_gamma(z: float) -> float:
    """Independent oracle: Stirling series with six Bernoulli corrections."""
    corrections = (
        1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188,
        -691.0 / 360360,
    )
    total = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2 * math.pi)
    power = z
    for c in corrections:
        total += c / power
        power *= z * z
    return total


class TestGamma:
    def test_factorial_value(self):
        assert gamma(5.0) == 24.0

    def test_half_integer(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-15

    def test_overflow_switches_to_log_scale(self):
        result = gamma(200.0)
        assert isinstance(result, LogScaled)
        assert result.sign == 1
        assert abs(result.log_magnitude - stirling_log_gamma(200.0)) <= 1e-12 * result.log_magnitude

    @pytest.mark.parametrize("z,log_scaled", [(171.4, False), (171.5, True), (171.6, True)])
    def test_switches_where_log_gamma_passes_the_core_threshold(self, z, log_scaled):
        # ln Gamma passes LOG_SCALED_FROM at z ~ 171.43, short of the overflow at 171.62
        assert (math.lgamma(z) > LOG_SCALED_FROM) == log_scaled
        expected = LogScaled(1, math.lgamma(z)) if log_scaled else math.gamma(z)
        assert gamma(z) == expected
        assert gamma_y(1.0, z) == expected
        assert isinstance(gamma_y(1.0000001, z), LogScaled) == log_scaled

    def test_near_zero_switches_to_log_scale(self):
        # Gamma(z) ~ 1/z exceeds binary64 for z <= 1/DBL_MAX ~ 5.56e-309
        result = gamma(1e-320)
        assert isinstance(result, LogScaled)
        assert (result.sign, result.log_magnitude) == (1, math.lgamma(1e-320))
        # ln Gamma(z) ~ -ln z passes LOG_SCALED_FROM below z ~ 1.512e-308,
        # before the float overflows: the rule of cpoch.core, as at z ~ 171.43
        for z, log_scaled in ((5.6e-309, True), (1.5e-308, True), (1.52e-308, False)):
            assert (math.lgamma(z) > LOG_SCALED_FROM) == log_scaled
            expected = LogScaled(1, math.lgamma(z)) if log_scaled else math.gamma(z)
            assert gamma(z) == expected
            assert gamma_y(1.0, z) == expected
            assert type(gamma_y(1.0, z)) is type(gamma_y(1.0000001, z)) is type(expected)

    @pytest.mark.parametrize("z", GAMMA_RECURRENCE_Z)
    def test_recurrence(self, verify_cases, z):
        verify_cases.check("kernel/gamma_recurrence", z=z)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-3.2)

    def test_stirling_asymptotic_at_100(self, verify_cases):
        verify_cases.check("kernel/stirling_asymptotic")

    def test_minimum_constants(self):
        a, m = gamma_minimum()
        assert abs(a - 0.4616) < 5e-4
        assert abs(m - 0.8856) < 5e-5
        # stationarity: neighbours are no smaller
        assert math.gamma(a + 1.0 - 1e-6) >= m
        assert math.gamma(a + 1.0 + 1e-6) >= m


class TestRegularizedQ:
    def test_zero_limit(self):
        assert regularized_q(3.7, 0.0).value == 1.0

    @pytest.mark.parametrize("x", [0.3, 1.0, 2.0, 10.0, 35.0])
    def test_unit_shape_is_exponential(self, x):
        q = regularized_q(1.0, x, 1e-14)
        assert q.converged
        assert abs(q.value - math.exp(-x)) <= 1e-13

    def test_central_value(self, verify_cases):
        verify_cases.check("kernel/q_central_value")

    @pytest.mark.parametrize("z,x", [(0.7, 2.5), (2.5, 1.0), (4.0, 9.0), (12.0, 3.0)])
    def test_against_quadrature(self, z, x):
        upper, _ = integrate_adaptive(
            QuadratureRequest(
                lambda t: t ** (z - 1.0) * math.exp(-t), x, x + 60.0, 1e-13
            )
        )
        assert abs(regularized_q(z, x, 1e-14).value - upper / gamma(z)) <= 1e-12

    def test_monotonicity(self, verify_cases):
        verify_cases.check("kernel/q_nonincreasing_in_x", "kernel/q_nondecreasing_in_z")

    def test_in_unit_interval(self):
        for z in (0.3, 2.0, 17.5):
            for x in (0.0, 0.1, 1.0, 7.0, 50.0):
                assert 0.0 <= regularized_q(z, x).value <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_q(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_q(1.0, -0.5)


class TestPartialExponential:
    def test_order_one_is_constant(self):
        for x in (0.0, 0.5, 7.3, 30.0):
            assert e_partial(1, x) == 1.0

    def test_small_sum(self):
        assert e_partial(3, 2.0) == 5.0

    def test_fractional_order_against_quadrature(self):
        upper, _ = integrate_adaptive(
            QuadratureRequest(lambda t: t**1.5 * math.exp(-t), 1.0, 80.0, 1e-13)
        )
        expected = math.e * upper / gamma(2.5)
        assert abs(e_partial(2.5, 1.0) - expected) <= 1e-12 * expected

    def test_both_paths_agree(self, verify_cases):
        verify_cases.check("kernel/e_partial_two_paths")

    def test_acceptance_identity_grid(self, verify_cases):
        verify_cases.check("kernel/partial_exponential_identity")

    def test_negative_argument_sum(self):
        assert e_partial_sum(3, -2.0) == 1.0 - 2.0 + 2.0

    # ln e_{z-1}(x) by 40-digit mpmath: past binary64 e_partial is LogScaled,
    # where it returned inf (integer z) or raised OverflowError; past
    # LOG_SCALED_FROM a finite integer sum is LogScaled too
    @pytest.mark.parametrize("z, x, log_value", [
        (800, 800.0, 799.2974051051622954),
        (800, 709.5, 709.4995450438206645),
        (10000.5, 1e4, 9999.308181758755015),
    ])
    def test_log_scaled_past_binary64(self, z, x, log_value):
        got = e_partial(z, x)
        assert isinstance(got, LogScaled) and got.sign == 1
        assert got.log_magnitude == pytest.approx(log_value, rel=1e-14)

    def test_direct_sum_stops_at_its_order_cap(self, monkeypatch):
        # the direct sum costs one term per unit of order, ~0.9 s for e_partial(1e7, 1)
        orders = []
        direct = gammafns.e_partial_sum
        monkeypatch.setattr(gammafns, "e_partial_sum",
                            lambda n, x: orders.append(n) or direct(n, x))
        at_cap = e_partial(float(DIRECT_SUM_MAX_N), 7.9)
        assert at_cap == pytest.approx(math.exp(log_e_partial(DIRECT_SUM_MAX_N, 7.9)), rel=1e-15)
        assert e_partial(1e7, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert e_partial(float(DIRECT_SUM_MAX_N + 1), 1.0) == pytest.approx(math.e, rel=1e-15)
        assert orders == [DIRECT_SUM_MAX_N]


class TestGammaY:
    def test_reduces_to_gamma(self):
        for x in (0.4, 1.0, 3.7):
            assert gamma_y(1.0, x) == gamma(x)

    def test_gaussian_case(self):
        # integral of exp(-t^2/2) over [0, inf) = sqrt(pi/2)
        assert abs(gamma_y(2.0, 1.0) - math.sqrt(math.pi / 2.0)) <= 1e-14

    def test_substitution_identity(self):
        assert abs(gamma_y(2.0, 3.0) - math.sqrt(2.0) * gamma(1.5)) <= 1e-14

    @pytest.mark.parametrize("y,x", [(0.5, 1.3), (2.0, 0.7), (3.0, 2.2), (1.5, 4.0)])
    def test_against_defining_integral(self, y, x):
        # truncate where the exponent t^y / y reaches ~60
        upper = max(60.0, (60.0 * y) ** (1.0 / y))
        value, _ = integrate_adaptive(
            QuadratureRequest(
                lambda t: t ** (x - 1.0) * math.exp(-(t**y) / y) if t > 0 else 0.0,
                0.0, upper, 1e-11,
            )
        )
        assert abs(gamma_y(y, x) - value) <= 1e-8 * abs(value)

    def test_near_zero_order_stays_finite(self):
        # Gamma(1e-309) alone overflows; y^(a-1) Gamma(a) ~ 1e306 does not
        a = 1e-306 / 1000.0
        expected = math.exp((a - 1.0) * math.log(1000.0) + math.lgamma(a))
        assert gamma_y(1000.0, 1e-306) == pytest.approx(expected, rel=1e-14)

    def test_underflowing_ratio_is_one_over_x(self):
        # a = x/y = 1e-600 underflows to 0, where lgamma(a) is a domain error;
        # y^(a-1) Gamma(a) = (1 + O(a ln y)) / x by 30-digit mpmath at the exact a
        with mpmath.workdps(30):
            y, x = mpmath.mpf(1e300), mpmath.mpf(1e-300)
            expected = float(y ** (x / y - 1) * mpmath.gamma(x / y))
        assert gamma_y(1e300, 1e-300) == pytest.approx(expected, rel=1e-14)
        # where 1/x itself leaves binary64 the value is LogScaled
        with mpmath.workdps(30):
            y, x = mpmath.mpf(1e20), mpmath.mpf(1e-310)
            log_expected = float((x / y - 1) * mpmath.log(y) + mpmath.loggamma(x / y))
        got = gamma_y(1e20, 1e-310)
        assert isinstance(got, LogScaled) and got.sign == 1
        assert got.log_magnitude == pytest.approx(log_expected, rel=1e-14)

    @pytest.mark.parametrize("y, x", [(1e-309, 1.0), (1e-308, 2.5), (1e-308, math.e),
                                      (1e-306, 2.5), (1e-306, math.e)])
    def test_overflowing_ratio_up_to_e_is_zero(self, y, x):
        # a = x/y overflows, or lgamma(a) does (a = 2.5e306); ln Gamma_y(x) =
        # a (ln x - 1) + O(ln a), below binary64's least log for x <= math.e
        # (by 30-digit mpmath at the exact a)
        with mpmath.workdps(30):
            a = mpmath.mpf(x) / mpmath.mpf(y)
            log_expected = (a - 1) * mpmath.log(y) + mpmath.loggamma(a)
        assert log_expected < math.log(sys.float_info.min * sys.float_info.epsilon)
        assert gamma_y(y, x) == 0.0

    @pytest.mark.parametrize("y, x", [(1e-300, 1e300), (0.5, 1e308), (1e-300, 1e8)])
    def test_overflowing_ratio_past_e_raises(self, y, x):
        # a = x/y overflows and Gamma_y(x) with it; this returned nan.  At
        # a = 1e308 lgamma(a) overflows and raised its bare "math range error"
        with pytest.raises(OverflowError, match="gamma_y overflows") as raised:
            gamma_y(y, x)
        assert f"(y={y}, x={x})" in str(raised.value)

    @pytest.mark.parametrize("y, x", [(1e-306, 3.0), (1e-306, math.nextafter(math.e, 3.0)),
                                      (2e-306, 5.0)])
    def test_overflowing_lgamma_past_e_is_log_scaled(self, y, x):
        # a = x/y is finite but lgamma(a) overflows: Stirling's log, against
        # 50-digit mpmath at the exact a (next to e, ln x - 1 is 1.1e-16 and
        # the two logs cancel to 1e-19 of their size)
        with mpmath.workdps(50):
            a = mpmath.mpf(x) / mpmath.mpf(y)
            log_expected = float((a - 1) * mpmath.log(y) + mpmath.loggamma(a))
        got = gamma_y(y, x)
        assert isinstance(got, LogScaled) and got.sign == 1
        assert got.log_magnitude == pytest.approx(log_expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_y(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_y(1.0, 0.0)


class TestPochhammerContinuous:
    def test_empty_product(self):
        assert pochhammer_continuous(2.2, 0.7, 0.0) == 1.0

    def test_matches_discrete_product(self):
        assert abs(pochhammer_continuous(2.0, 3.0, 3.0) - 80.0) <= 1e-11 * 80.0
        assert abs(pochhammer_continuous(1.0, 1.0, 4.0) - 24.0) <= 1e-11 * 24.0

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=4.0),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80)
    def test_interpolates_products(self, x, y, n):
        product = 1.0
        for l in range(n):
            product *= x + l * y
        got = pochhammer_continuous(x, y, float(n))
        assert abs(got - product) <= 1e-11 * abs(product)

    def test_log_scaled_output(self):
        # 1 * 3 * 5 * ... * 799 leaves binary64: the value comes back log-scaled
        result = pochhammer_continuous(1.0, 2.0, 400.0)
        assert isinstance(result, LogScaled) and result.sign == 1
        log_product = math.fsum(math.log(1.0 + 2.0 * l) for l in range(400))
        assert abs(result.log_magnitude - log_product) <= 1e-13 * log_product

    def test_asymptotic_trend(self, verify_cases):
        verify_cases.check("kernel/pochhammer_asymptote_trend")

    # past a = x/y = 1e4, lgamma(a+z) - lgamma(a) cancels: at (1e15, 1, 3) it
    # gives 2.688e43, at (1e300, 1, 5) the value 1.0
    @pytest.mark.parametrize("x, y, n", [
        (1e15, 1.0, 3), (1e7, 3.0, 25), (10000.5, 1.0, 7), (3e4, 0.5, 20), (2e-3, 1e-8, 30),
    ])
    def test_large_ratio_matches_discrete_product(self, x, y, n):
        product = pochhammer_discrete(x, y, n)
        assert pochhammer_continuous(x, y, float(n)) == pytest.approx(product, rel=1e-13)

    @pytest.mark.parametrize("x, y, z", [
        (1e4 + 1.0, 1.0, 0.5), (1e6, 1.0, 1e7), (2.5e9, 0.25, 7.25), (1e300, 1.0, 5.0),
        (1e300, 1e-5, 1e3), (1e-10, 1e-20, 3.3),
    ])
    def test_large_ratio_log_matches_mpmath(self, x, y, z):
        with mpmath.workdps(int(math.log10(x / y)) + 40):
            a = mpmath.mpf(x) / mpmath.mpf(y)
            log_value = z * mpmath.log(y) + mpmath.loggamma(a + z) - mpmath.loggamma(a)
            expected = float(log_value)
        got = pochhammer_continuous(x, y, z)
        log_got = got.log_magnitude if isinstance(got, LogScaled) else math.log(got)
        assert log_got == pytest.approx(expected, rel=1e-14, abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, 2.0])
    def test_underflowing_ratio(self, z):
        # a = x/y = 1e-600 underflows to 0, where lgamma(a) is a domain error;
        # Gamma(a+z)/Gamma(a) -> a Gamma(z), and 30-digit mpmath at the exact a
        with mpmath.workdps(30):
            x, y = mpmath.mpf(1e-300), mpmath.mpf(1e300)
            a = x / y
            expected = float(y**z * mpmath.gamma(a + z) / mpmath.gamma(a))
        assert pochhammer_continuous(1e-300, 1e300, z) == pytest.approx(expected, rel=1e-14)

    def test_overflowing_ratio(self):
        # a = x/y is inf; z ln x carries the value and z = 0 is still 1
        got = pochhammer_continuous(1e308, 1e-308, 5.0)
        assert isinstance(got, LogScaled) and got.sign == 1
        assert got.log_magnitude == 5.0 * math.log(1e308)
        assert pochhammer_continuous(1e308, 1e-308, 0.0) == 1.0
