import hashlib
import math
import sys

import pytest

from cpoch.core import EULER_GAMMA, zeta
from cpoch.recip_gamma import (
    TABLE_ORDER,
    c_composition_oracle,
    c_table,
    recip_gamma_series,
    weighted_series_coeffs,
)
from cpoch.rho import _SERIES_STATE_CACHE_SIZE, E_deriv_z, E_series, _series_state
from cpoch.verify import RECIP_SERIES_T


def _digest(coeffs):
    return hashlib.sha256(",".join(map(float.hex, coeffs)).encode()).hexdigest()


class TestCoefficients:
    def test_order_zero(self):
        assert c_table(0) == (1.0,)

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

    def test_shorter_table_is_prefix(self):
        # every coefficient is correctly rounded, so the order only truncates
        assert c_table(80) == c_table()[:81]

    @pytest.mark.parametrize("n_max", [-1, TABLE_ORDER + 1])
    def test_order_outside_the_table_rejected(self, n_max):
        with pytest.raises(ValueError):
            c_table(n_max)

    def test_composition_budget_guard(self):
        with pytest.raises(ValueError):
            c_composition_oracle(21)

    def test_decay(self, verify_cases):
        verify_cases.check("recip/c80_decay")


class TestSeries:
    def test_unit_values(self):
        assert recip_gamma_series(0.0).value == 1.0
        assert abs(recip_gamma_series(1.0).value - 1.0) <= 1e-14

    def test_near_minimum(self):
        got = recip_gamma_series(0.4616).value
        assert abs(got - 1.0 / math.gamma(1.4616)) <= 1e-13
        assert abs(got - 1.1292) <= 1e-3  # reciprocal of the gamma minimum

    @pytest.mark.parametrize("t", RECIP_SERIES_T)
    def test_against_gamma_on_window(self, verify_cases, t):
        verify_cases.check("recip/series_vs_gamma", t=t)

    def test_flags_outside_window(self):
        assert not recip_gamma_series(4.5).converged


class TestShiftedCoefficients:
    def test_at_one_is_identity(self):
        assert weighted_series_coeffs(1.0) == c_table()

    def test_constant_term(self):
        for x in (0.2, 1.0, 9.0):
            assert weighted_series_coeffs(x)[0] == 1.0

    def test_log_shift_at_e(self):
        assert abs(weighted_series_coeffs(math.e)[1] - (c_table()[1] + 1.0)) <= 1e-15

    @pytest.mark.parametrize("x", [0.3, 2.0, 4.0])
    def test_weighted_series_evaluates_weighted_function(self, x):
        coeffs = weighted_series_coeffs(x)
        for t in (-2.0, -0.5, 0.0, 0.9, 2.0):
            total = 0.0
            for c in reversed(coeffs):
                total = total * t + c
            expected = x**t * recip_gamma_series(t).value
            assert abs(total - expected) <= 1e-11 * max(1.0, abs(expected))
            if t > -1.0:  # gamma pole-free points double-checked directly
                direct = x**t / math.gamma(t + 1.0)
                assert abs(total - direct) <= 1e-11 * max(1.0, abs(direct))

    def test_derivative_relation(self, verify_cases):
        # d c_n(x) / dx = c_{n-1}(x) / x at (n, x) = (3, 2)
        verify_cases.check("recip/coefficient_x_derivative")

    def test_domain(self):
        with pytest.raises(ValueError):
            weighted_series_coeffs(0.0)
        with pytest.raises(ValueError):
            weighted_series_coeffs(-1.0)
        assert len(weighted_series_coeffs(2.0)) == TABLE_ORDER + 1
        with pytest.raises(IndexError):
            weighted_series_coeffs(2.0)[TABLE_ORDER + 1]


class TestWeightedCache:
    def test_z_sweep_builds_coefficients_once(self, monkeypatch):
        # the module, not the function cpoch.rho that the package exports
        rho_module = sys.modules["cpoch.rho"]
        builds = []

        def counting(x):
            builds.append(x)
            return weighted_series_coeffs(x)

        monkeypatch.setattr(rho_module, "weighted_series_coeffs", counting)
        _series_state.cache_clear()
        for k in range(16):
            E_series(3.7, 0.4 + 1.9 * k)
        E_deriv_z(3.7, 1.5)
        assert builds == [3.7]
        assert _series_state.cache_info()[:2] == (16, 1)  # hits, misses

    def test_each_full_segment_once_per_x(self, monkeypatch):
        # after E_series(x, 30), a call at any z <= 30 adds no running entry
        # and no denominator row, and sums only its own partial segment
        rho_module = sys.modules["cpoch.rho"]
        _series_state.cache_clear()
        E_series(2.0, 30.0)
        state = _series_state(2.0)
        entries, rows = len(state.running), len(rho_module._FULL_DENOMS)
        assert entries == 1 + 27  # the window head, then t0 = 3 .. 29
        add_segment, summed = rho_module._add_segment, []

        def counting(total, floor, x, t0, *rest):
            summed.append(t0)
            return add_segment(total, floor, x, t0, *rest)

        monkeypatch.setattr(rho_module, "_add_segment", counting)
        for z in (0.5, 3.0, 3.5, 4.0, 12.25, 29.0, 29.75, 30.0):
            E_series(2.0, z)
        assert (len(state.running), len(rho_module._FULL_DENOMS)) == (entries, rows)
        assert summed == [3, 12, 29]

    def test_series_state_bounded(self):
        _series_state.cache_clear()
        assert _series_state.cache_info().maxsize == _SERIES_STATE_CACHE_SIZE
        for k in range(_SERIES_STATE_CACHE_SIZE + 10):
            E_series(0.5 + k / 16.0, 12.5)
        assert _series_state.cache_info().currsize == _SERIES_STATE_CACHE_SIZE

    def test_rejected_x_raises_every_call(self):
        for _ in range(3):
            for x in (0.0, -1.0):
                with pytest.raises(ValueError):
                    weighted_series_coeffs(x)


class TestOneTable:
    def test_literals_match_the_recursion(self, verify_cases):
        # the shipped c_0 .. c_110 are the 140-digit recursion's, bit for bit
        verify_cases.check("recip/c_table_vs_recursion")


# Bits of the coefficient layer; a change to any returned float fails here.
C_TABLE_SHA256 = "bd74a60ac3f9ae6e75d3e9caf48f00aba2f97e24d84a3b753a071474e5cba532"

WEIGHTED_SHA256 = {
    1e-3: "d951fb9b140ea82e495f54031ef8b7b716ef6b3d99c2692162741d8ee245f4c0",
    0.3: "4a76c694c49e3550642f3c20eaab776ab0b9ade64ce43248049879b7f9612618",
    1.0: C_TABLE_SHA256,
    2.0: "be475104a2985481b0791573c0c3285b69db2ec2847aed0b52fc3323349e8470",
    500.0: "da27ddd9149d196faca7753071914393645445be0a1a8219d17fc9922d4a7380",
}

# t -> (value, tail estimate) of recip_gamma_series, both as float.hex; all converged
RECIP_SERIES_PINS = {
    -0.5: ("0x1.20dd750429b6dp-1", "0x1.0000000000000p-52"),
    -0.25: ("0x1.a1d12aa2b99e4p-1", "0x1.0000000000000p-52"),
    0.0: ("0x1.0000000000000p+0", "0x1.0000000000000p-52"),
    0.3: ("0x1.1d3eff3e060ebp+0", "0x1.0000000000000p-52"),
    1.0: ("0x1.0000000000000p+0", "0x1.0000000000000p-52"),
    1.7: ("0x1.4b757fee24ae6p-1", "0x1.e53ead569f130p-52"),
    2.5: ("0x1.341f6bc02c7ecp-2", "0x1.a058b616c07cfp-50"),
    3.0: ("0x1.555555555556cp-3", "0x1.f935e4e98c5e2p-49"),
}

# (x, z, k) -> E_deriv_z as float.hex, at the points the verify suites use
E_DERIV_PINS = {
    (1.3, 0.8, 1): "0x1.530d3f01e4c30p+0",
    (2.0, 1.5, 2): "-0x1.5cee4d1110f90p-6",
    (2.0, 0.2, 2): "0x1.3a91fd462f03dp+0",
    (2.0, 1.1, 3): "-0x1.27924b2cde48ap+0",
}


class TestPinnedBits:
    def test_table(self):
        assert len(c_table()) == TABLE_ORDER + 1
        assert _digest(c_table()) == C_TABLE_SHA256

    @pytest.mark.parametrize("x", sorted(WEIGHTED_SHA256))
    def test_weighted_coefficients(self, x):
        assert _digest(weighted_series_coeffs(x)) == WEIGHTED_SHA256[x]

    @pytest.mark.parametrize("t", RECIP_SERIES_T)
    def test_recip_series(self, t):
        got = recip_gamma_series(t)
        assert (got.value.hex(), got.tail_estimate.hex(), got.converged) == (
            *RECIP_SERIES_PINS[t], True)

    @pytest.mark.parametrize("point", sorted(E_DERIV_PINS))
    def test_E_deriv_z(self, point):
        assert E_deriv_z(*point).hex() == E_DERIV_PINS[point]
