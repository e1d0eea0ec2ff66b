import hashlib
import math
import random
import sys
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv

import pytest

from cpoch.core import EULER_GAMMA, zeta
from cpoch.recip_gamma import (
    TABLE_ORDER,
    _NODE_CUT,
    _cut_series_coeffs,
    _head_cut,
    _horner,
    _log_powers,
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

    @pytest.mark.parametrize("t", [1e3, -1e3, 1e300])
    def test_tail_past_binary64_is_infinite(self, t):
        # |t|^110 overflows from |t| ~ 633 on: no OverflowError, an unconverged inf tail
        got = recip_gamma_series(t)
        assert got.tail_estimate == math.inf and not got.converged


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
        state_class, builds = rho_module._SeriesState, []

        def counting(x, *coeffs):
            builds.append(x)
            return state_class(x, *coeffs)

        monkeypatch.setattr(rho_module, "_SeriesState", counting)
        _series_state.cache_clear()
        for k in range(16):
            E_series(3.7, 0.4 + 1.9 * k)
        E_deriv_z(3.7, 1.5)  # reads the full table, not the state
        assert builds == [3.7]
        assert _series_state.cache_info()[:2] == (15, 1)  # hits, misses

    def test_each_full_segment_once_per_x(self, monkeypatch):
        # after E_series(x, 30), a call at any z <= 30 adds no running entry
        # and no denominator row, and sums only its own partial segment
        rho_module = sys.modules["cpoch.rho"]
        _series_state.cache_clear()
        E_series(2.0, 30.0)
        state = _series_state(2.0)
        entries, rows = len(state.running), rho_module._full_denoms.cache_info()
        assert entries == 1 + 27  # the window head, then t0 = 3 .. 29
        add_segment, summed = rho_module._add_segment, []

        def counting(total, floor, x, t0, *rest):
            summed.append(t0)
            return add_segment(total, floor, x, t0, *rest)

        monkeypatch.setattr(rho_module, "_add_segment", counting)
        for z in (0.5, 3.0, 3.5, 4.0, 12.25, 29.0, 29.75, 30.0):
            E_series(2.0, z)
        assert (len(state.running), rho_module._full_denoms.cache_info()) == (entries, rows)
        assert summed == [3, 12, 29]

    def test_overflowing_fill_keeps_its_segments(self, monkeypatch):
        # at x = 30, x^t0 overflows at t0 = 209, before nu's cutoff; the
        # segments summed before it stay held, so a second call retries one
        rho_module = sys.modules["cpoch.rho"]
        _series_state.cache_clear()
        with pytest.raises(OverflowError):
            E_series(30.0, math.inf)
        assert len(_series_state(30.0).running) == 1 + 206  # t0 = 3 .. 208
        add_segment, summed = rho_module._add_segment, []

        def counting(total, floor, x, t0, *rest):
            summed.append(t0)
            return add_segment(total, floor, x, t0, *rest)

        monkeypatch.setattr(rho_module, "_add_segment", counting)
        with pytest.raises(OverflowError):
            E_series(30.0, math.inf)
        assert summed == [209]

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


class TestCutOrder:
    """The state's head cut order N(x) drops only head terms that cannot move a
    bit; its node cut order M(x) drops a tail below 2^-80 of every node value."""

    def test_dropped_head_terms_are_absorbed(self):
        # against the full table: the head sum adds its terms in order, and
        # each term past the cut is below a quarter ulp of the sum at the cut.
        # Seeded log-uniform x in [1e-3, 1e3], more in [1, 1.2e6], where the
        # cut moves most, x = 1 and its neighbours, and both ends of the
        # certified range [8.97e-4, 1.168e6] (measured), where the cut falls
        # to the whole table just outside
        rng = random.Random(2206)
        xs = [math.exp(rng.uniform(math.log(1e-3), math.log(1e3))) for _ in range(150)]
        xs += [math.exp(rng.uniform(0.0, math.log(1.2e6))) for _ in range(100)]
        xs += [1.0, 1.0 + 1e-12, 1.0 - 1e-12]
        ends = [8.9e-4, 9e-4, 1.1e6, 1.2e6]
        cuts = []
        for x in xs + ends:
            cut = _head_cut(x, _log_powers(x))
            full = weighted_series_coeffs(x)
            for head in (0.5, 1.7, 2.9, 3.0):
                powers = accumulate(repeat(head, len(full)), mul)
                terms = list(map(truediv, map(mul, full, powers), range(1, len(full) + 1)))
                total = reduce(add, terms[:cut + 1], 0.0)
                assert all(abs(t) < math.ulp(total) / 4 for t in terms[cut + 1:]), (x, head, cut)
            cuts.append(cut)
        assert cuts[-4:] == [TABLE_ORDER, 109, 109, TABLE_ORDER]
        assert all(cut < TABLE_ORDER for cut in cuts[:-4])
        assert cuts[-7:-4] == [cuts[-7]] * 3  # x = 1 +- 1e-12 cut as x = 1

    def test_round_off_is_far_below_the_sum_wherever_an_order_certifies(self):
        # the cut's factor 2 needs the head sum's round-off bound,
        # 700 * 2^-53 sum_k A_k h^(k+1) / (k+1), below half the sum; it stays
        # below 1e-2 of it at h = 3, where it is largest, on a grid of 400 x
        # per decade over the certified range and a step past each end.
        # sum_k A_k 3^(k+1) / (k+1) = sum_j l^j / j! W_j and the sum is
        # sum_j ln(x)^j / j! V_j, with W_j, V_j over the table alone
        table = c_table()
        weights = [[c * 3.0 ** (m + j + 1) / (m + j + 1)
                    for m, c in enumerate(table[:TABLE_ORDER + 1 - j])]
                   for j in range(TABLE_ORDER + 1)]
        majors = [math.fsum(map(abs, row)) for row in weights]
        sums = [math.fsum(row) for row in weights]
        worst = 0.0
        for k in range(-1220, 2430):  # x = 10^(k/400) in [8.9e-4, 1.2e6]
            x = 10.0 ** (k / 400)
            log_powers = _log_powers(x)
            major = math.fsum(map(mul, map(abs, log_powers), majors))
            ratio = 700 * 2.0**-53 * major / abs(math.fsum(map(mul, log_powers, sums)))
            if _head_cut(x, log_powers) < TABLE_ORDER:
                worst = max(worst, ratio)
                assert ratio < 1e-2, x
        assert 0.0 < worst < 1e-2

    @pytest.mark.parametrize("x", [1e-3, 0.3, 1.0, 2.0, 500.0])
    def test_state_holds_a_prefix_of_the_full_table(self, x):
        # c_0(x) .. c_N(x) and c_110(x), each with the full table's bits
        full = weighted_series_coeffs(x)
        coeffs, last, node_order = _cut_series_coeffs(x)
        assert coeffs == full[:len(coeffs)] and last == full[-1]
        assert len(coeffs) == _head_cut(x, _log_powers(x)) + 1
        assert node_order < len(coeffs)

    def test_node_cut_certificate(self):
        # the coefficients the node series drop sum below 2^-80 min(1, x),
        # which is below 2^-80 of x^u / Gamma(u+1) for every u in [0, 1]
        rng = random.Random(2301)
        for x in [math.exp(rng.uniform(math.log(1e-3), math.log(1e3))) for _ in range(60)] + [1.0]:
            node_order = _cut_series_coeffs(x)[2]
            dropped = math.fsum(map(abs, weighted_series_coeffs(x)[node_order + 1:]))
            assert dropped <= _NODE_CUT * min(1.0, x), (x, node_order)

    def test_node_series_bits_match_the_head_prefix(self):
        # measured, not proven: Horner over c_0(x) .. c_M(x) equals Horner
        # over c_0(x) .. c_N(x) bit for bit at nodes u in [0, 1]
        rng = random.Random(2302)
        node_orders = []
        for _ in range(150):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            coeffs, _, node_order = _cut_series_coeffs(x)
            nodes = coeffs[:node_order + 1]
            for u in [rng.random() for _ in range(40)] + [0.0, 1.0]:
                assert _horner(nodes, u) == _horner(coeffs, u), (x, u, node_order)
            node_orders.append(node_order)
        assert max(node_orders) <= 60  # the cut keeps well under the head's ~55


class TestOneTable:
    def test_literals_match_the_recursion(self, verify_cases):
        # the shipped c_0 .. c_110 are the 140-digit recursion's, bit for bit
        verify_cases.check("recip/c_table_vs_recursion")

    def test_circle_sector_bounds_cover_their_oracle(self, verify_cases):
        # the head cut's Cauchy estimate reads these literals as upper bounds
        verify_cases.check("recip/circle_sector_bounds")


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
