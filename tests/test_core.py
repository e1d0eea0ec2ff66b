import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpoch.core import (
    EULER_GAMMA,
    LOG_SCALED_FROM,
    LogScaled,
    exp_or_log_scaled,
    log_add,
    reduced_argument,
    zeta,
    zeta_hat,
)


class TestZeta:
    def test_zeta2_against_pi_squared(self):
        assert abs(zeta(2) - math.pi**2 / 6) <= 1e-15 * zeta(2)

    def test_zeta4_against_pi_fourth(self):
        assert abs(zeta(4) - math.pi**4 / 90) <= 1e-15 * zeta(4)

    def test_zeta50_two_term_dominance(self):
        expected = 1.0 + 2.0**-50
        assert abs(zeta(50) - expected) <= 1e-30 * expected

    def test_zeta3_against_direct_sum(self):
        # brute-force oracle: direct sum plus integral tail bound
        n = 20_000
        head = math.fsum(k**-3.0 for k in range(1, n))
        tail_low = 1.0 / (2 * n**2)
        assert head + tail_low <= zeta(3) <= head + 1.0 / (2 * (n - 1) ** 2)

    def test_strictly_decreasing_to_one(self):
        values = [zeta(k) for k in range(2, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert abs(zeta(60) - 1.0) < 1e-18

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            zeta(1)
        with pytest.raises(ValueError):
            zeta_hat(0)

    def test_zeta_hat_matches(self):
        assert zeta_hat(1) == EULER_GAMMA
        assert zeta_hat(2) == zeta(2)
        assert abs(zeta_hat(3) - 1.2020569031595943) < 1e-15


class TestEulerGamma:
    def test_known_digits(self):
        assert abs(EULER_GAMMA - 0.57721566490153286) < 1e-17

    def test_exponential(self):
        assert abs(math.exp(EULER_GAMMA) - 1.7810724179901979) < 1e-15

    def test_limit_definition_oracle(self):
        n = 10**6
        harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
        assert abs(EULER_GAMMA - (harmonic - math.log(n))) < 1e-6


finite = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)
signed = st.one_of(finite, finite.map(lambda v: -v))


class TestLogScaled:
    @given(signed)
    def test_round_trip(self, x):
        back = LogScaled.from_float(x).to_float()
        assert abs(back - x) <= 1e-12 * abs(x)

    @given(signed, signed)
    def test_multiplication(self, a, b):
        product = LogScaled.from_float(a) * LogScaled.from_float(b)
        expected = a * b
        if expected == 0.0 or abs(math.log(abs(expected))) > 700:
            return  # beyond round-trip range
        assert abs(product.to_float() - expected) <= 1e-12 * abs(expected)

    @given(finite, finite)
    def test_addition_same_sign(self, a, b):
        total = LogScaled.from_float(a) + LogScaled.from_float(b)
        expected = a + b
        assert abs(total.to_float() - expected) <= 1e-12 * expected

    def test_from_float_refuses_nan(self):
        with pytest.raises(ValueError, match="nan"):
            LogScaled.from_float(math.nan)

    def test_mixed_sign_addition(self):
        total = LogScaled.from_float(3.0) + LogScaled.from_float(-2.0)
        assert abs(total.to_float() - 1.0) < 1e-12
        zero = LogScaled.from_float(5.5) + LogScaled.from_float(-5.5)
        assert zero.sign == 0 and zero.to_float() == 0.0

    def test_overflow_guard(self):
        big = LogScaled(1, 800.0)
        with pytest.raises(OverflowError):
            big.to_float()
        assert (big * big).log_magnitude == 1600.0


class TestLogAdd:
    @pytest.mark.parametrize("s, l", [(1, 3.5), (-1, -700.0), (0, -math.inf)])
    def test_zero_sign_operand_returns_the_other(self, s, l):
        # a sign of 0 is zero whatever log it carries
        assert log_add(0, -math.inf, s, l) == (s, l)
        assert log_add(s, l, 0, -math.inf) == (s, l)
        assert log_add(0, 12.0, s, l) == (s, l)

    @pytest.mark.parametrize("l", [0.0, -3.25, 812.5])
    def test_exact_cancellation_is_zero(self, l):
        assert log_add(1, l, -1, l) == (0, -math.inf)
        assert log_add(-1, l, 1, l) == (0, -math.inf)

    @pytest.mark.parametrize("sign, l", [(1, 0.0), (-1, 2.5), (1, 1e4)])
    def test_equal_logs_same_sign_add_log_two(self, sign, l):
        assert log_add(sign, l, sign, l) == (sign, l + math.log(2.0))


class TestOverflowRule:
    def test_threshold(self):
        assert exp_or_log_scaled(LOG_SCALED_FROM) == math.exp(LOG_SCALED_FROM)
        above = math.nextafter(LOG_SCALED_FROM, math.inf)
        assert exp_or_log_scaled(above) == LogScaled(1, above)
        assert exp_or_log_scaled(-3.0) == math.exp(-3.0)

    @given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 1e3))
    @settings(max_examples=200)
    def test_reduced_argument_keeps_the_plain_bits(self, x, y, z):
        assert reduced_argument(x, y, z) == y * (z - 1.0) ** 2 / (2.0 * x)

    def test_reduced_argument_past_an_overflowing_numerator(self):
        assert reduced_argument(1e300, 1e300, 1e6) == 0.5 * (1e6 - 1.0) ** 2

    def test_reduced_argument_past_an_overflowing_square(self):
        # (z-1)^2 raises OverflowError as a power, although w = 5e99 is a float
        with pytest.raises(OverflowError):
            (1e200 - 1.0) ** 2
        assert reduced_argument(1.0, 1e-300, 1e200) == 1e-300 / 2.0 * 1e200 * 1e200
        assert reduced_argument(2.0, 1e308, 1e200) == math.inf

