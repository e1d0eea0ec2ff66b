import math

import pytest

from cpoch.core import EULER_GAMMA, zeta
from cpoch.recip_gamma import (
    c_composition_oracle,
    c_of_x,
    c_table,
    recip_gamma_series,
    weighted_series_coeffs,
)
from cpoch.rho import E_series
from cpoch.verify import RECIP_SERIES_T


class TestCoefficients:
    def test_order_zero(self):
        assert c_table(0).coefficients == (1.0,)

    def test_first_is_euler_gamma(self):
        assert abs(c_table(5)[1] - EULER_GAMMA) <= 1e-16

    def test_second_closed_form(self):
        expected = (EULER_GAMMA**2 - zeta(2)) / 2.0
        assert abs(c_table(5)[2] - expected) <= 1e-15
        assert abs(expected - -0.6558780715) <= 1e-10

    def test_second_by_taylor_fit(self):
        # finite-difference Taylor fit of 1/Gamma(t+1) at 0
        h = 1e-3
        f = lambda t: 1.0 / math.gamma(t + 1.0)
        second = (f(h) - 2.0 * f(0.0) + f(-h)) / h**2
        assert abs(c_table(5)[2] - second / 2.0) <= 1e-6

    def test_composition_oracle_small(self):
        assert abs(c_composition_oracle(1) - EULER_GAMMA) <= 1e-16
        table = c_table(20)
        assert abs(c_composition_oracle(2) - table[2]) <= 1e-12
        assert abs(c_composition_oracle(10) - table[10]) <= 1e-10

    def test_composition_oracle_full_range(self, verify_cases):
        verify_cases.check("recip/c_recursion_vs_compositions")

    def test_composition_budget_guard(self):
        with pytest.raises(ValueError):
            c_composition_oracle(21)

    def test_decay(self, verify_cases):
        verify_cases.check("recip/c80_decay")


class TestSeries:
    def test_unit_values(self):
        table = c_table(80)
        assert recip_gamma_series(0.0, table).value == 1.0
        assert abs(recip_gamma_series(1.0, table).value - 1.0) <= 1e-14

    def test_near_minimum(self):
        table = c_table(80)
        got = recip_gamma_series(0.4616, table).value
        assert abs(got - 1.0 / math.gamma(1.4616)) <= 1e-13
        assert abs(got - 1.1292) <= 1e-3  # reciprocal of the gamma minimum

    @pytest.mark.parametrize("t", RECIP_SERIES_T)
    def test_against_gamma_on_window(self, verify_cases, t):
        verify_cases.check("recip/series_vs_gamma", t=t)

    def test_flags_outside_window(self):
        assert not recip_gamma_series(4.5, c_table(80)).converged


class TestShiftedCoefficients:
    def test_at_one_is_identity(self):
        table = c_table(40)
        for n in (0, 1, 7, 25):
            assert c_of_x(n, 1.0, table) == table[n]
        assert weighted_series_coeffs(1.0, table).coefficients == table.coefficients

    def test_constant_term(self):
        table = c_table(10)
        for x in (0.2, 1.0, 9.0):
            assert c_of_x(0, x, table) == 1.0

    def test_log_shift_at_e(self):
        table = c_table(10)
        assert abs(c_of_x(1, math.e, table) - (table[1] + 1.0)) <= 1e-15

    @pytest.mark.parametrize("x", [0.3, 2.0, 4.0])
    def test_weighted_series_evaluates_weighted_function(self, x):
        table = c_table(80)
        coeffs = weighted_series_coeffs(x, table).coefficients
        for t in (-2.0, -0.5, 0.0, 0.9, 2.0):
            total = 0.0
            for c in reversed(coeffs):
                total = total * t + c
            expected = x**t * recip_gamma_series(t, table).value
            assert abs(total - expected) <= 1e-11 * max(1.0, abs(expected))
            if t > -1.0:  # gamma pole-free points double-checked directly
                direct = x**t / math.gamma(t + 1.0)
                assert abs(total - direct) <= 1e-11 * max(1.0, abs(direct))

    def test_derivative_relation(self, verify_cases):
        # d c_n(x) / dx = c_{n-1}(x) / x at (n, x) = (3, 2)
        verify_cases.check("recip/coefficient_x_derivative")

    def test_domain(self):
        with pytest.raises(ValueError):
            c_of_x(2, 0.0, c_table(5))
        with pytest.raises(ValueError):
            weighted_series_coeffs(-1.0, c_table(5))


class TestWeightedCache:
    def test_z_sweep_builds_coefficients_once(self):
        weighted_series_coeffs.cache_clear()
        for k in range(16):
            E_series(3.7, 0.4 + 1.9 * k)
        info = weighted_series_coeffs.cache_info()
        assert (info.misses, info.hits) == (1, 15)
        table = c_table(110)
        assert weighted_series_coeffs(3.7, table) == weighted_series_coeffs.__wrapped__(3.7, table)

    def test_bounded(self):
        weighted_series_coeffs.cache_clear()
        size = weighted_series_coeffs.cache_info().maxsize
        assert size is not None
        table = c_table(10)
        for k in range(size + 10):
            weighted_series_coeffs(0.5 + k / 16.0, table)
        assert weighted_series_coeffs.cache_info().currsize == size

    def test_rejected_x_raises_every_call(self):
        for _ in range(3):
            for x in (0.0, -1.0):
                with pytest.raises(ValueError):
                    weighted_series_coeffs(x, c_table(5))
