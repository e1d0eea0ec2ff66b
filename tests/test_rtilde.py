import functools
import math
import operator
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpoch.discrete
import cpoch.rtilde
from conftest import empty_exact_tables
from cpoch.core import LogScaled
from cpoch.discrete import stirling_triangle
from cpoch.gammafns import DIRECT_SUM_MAX_N, e_partial_sum
from cpoch.rtilde import (
    RTILDE_MAX_N,
    RTILDE_POLY_MAX_N,
    _POLY_ROW_CACHE_SIZE,
    _poly_row,
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
from cpoch.verify import _groupoid_oracle, _stilde_forward_oracle

# rtilde_poly bits recorded while it still rebuilt every Fraction per call,
# and (the last four rows) while its log-scaled sum still added LogScaled
# objects: (x, y, n, plain float.hex or None where the plain form returns
# the log-scaled sum, log-scaled sign, log-scaled log_magnitude.hex)
POLY_PINNED = [
    (1.5, 0.75, 0, "0x1.0000000000000p+0", 1, "0x0.0p+0"),
    (1.5, 0.75, 1, "0x1.8000000000000p+0", 1, "0x1.9f323ecbf984cp-2"),
    (1.5, 0.75, 2, "0x1.6800000000000p+1", 1, "0x1.08b90ef531f6ap+0"),
    (1.5, 0.75, 17, "0x1.125514857d7b0p+62", 1, "0x1.585ab3b26e2cdp+5"),
    (1.5, 0.75, 47, "0x1.f99be3ff5bac6p+251", 1, "0x1.5d5230c7d14c6p+7"),
    (1.5, 0.75, 48, "0x1.f681ffc9fe215p+258", 1, "0x1.670347b07369ap+7"),
    (0.25, 4.0, 0, "0x1.0000000000000p+0", 1, "0x0.0p+0"),
    (0.25, 4.0, 1, "0x1.0000000000000p-2", 1, "-0x1.62e42fefa39efp+0"),
    (0.25, 4.0, 2, "0x1.2000000000000p-1", 1, "-0x1.269621134db92p-1"),
    (0.25, 4.0, 17, "0x1.b1e2966879174p+97", 1, "0x1.0f0d301c4dd04p+6"),
    (0.25, 4.0, 47, "0x1.48ec35d3eddffp+360", 1, "0x1.f39137fe1c00fp+7"),
    (0.25, 4.0, 48, "0x1.b4b9d67481594p+369", 1, "0x1.004e312f8c51ep+8"),
    (-1.5, 0.75, 48, "-0x1.a7b48154f1ec5p+258", -1, "0x1.66abf247e18dbp+7"),
    (-0.25, 4.0, 47, "-0x1.4723d1ab95dcbp+360", -1, "0x1.f38e6fa4aca04p+7"),
    (1e300, -1e300, 40, None, -1, "0x1.b21c41e59b8ccp+14"),
    (-1e300, 1e300, 41, None, -1, "0x1.bcfb3f1af2d09p+14"),
]


class TestCoefficients:
    def test_known_values(self):
        assert rtilde_coefficient(3, 1) == 2
        assert rtilde_coefficient(3, 2) == 2
        assert rtilde_coefficient(0, 0) == 1
        assert rtilde_coefficient(4, 1) == Fraction(243, 16)

    def test_boundaries(self):
        for n in range(1, 10):
            assert rtilde_coefficient(n, 0) == 0
            assert rtilde_coefficient(n, n) == 1

    def test_simplex_moment_identity(self):
        # rt_{n,k} equals the moment integral a_{n-1, n-k}
        from cpoch.discrete import simplex_moment

        for n in range(1, 9):
            for k in range(1, n + 1):
                assert rtilde_coefficient(n, k) == simplex_moment(Fraction(n - 1), n - k)


class TestTriangles:
    def test_signed_and_inverse_values(self):
        tri = rtilde_triangle(6)
        assert tri.s(3, 1) == 2
        assert tri.s(3, 2) == -2
        assert tri.S(3, 2) == 2
        assert tri.S(3, 1) == -1
        # St_{n,n-1} = -st_{n,n-1} = (n-1)^2 / 2
        for n in range(2, 7):
            assert tri.S(n, n - 1) == Fraction((n - 1) ** 2, 2)

    def test_row_outside_the_triangle_is_refused(self):
        # any n outside 0..max_n is a named IndexError, whatever k; inside
        # the triangle's rows a k outside 0..n is zero
        tri = rtilde_triangle(5)
        for entry in (tri.r, tri.s, tri.S):
            for n, k in ((6, 1), (6, 7), (-1, 0)):
                with pytest.raises(IndexError, match=f"n={n} outside triangle of max_n=5"):
                    entry(n, k)
        assert tri.S(5, 7) == tri.r(5, -1) == tri.s(0, 1) == 0

    def test_exact_inversion_both_orders(self, verify_cases):
        verify_cases.check("analogue1/exact_inversion")

    def test_recurrence_matches_forward_substitution(self, verify_cases):
        verify_cases.check("analogue1/st_vs_forward_substitution")

    def test_mobius_oracle_matches_inversion(self, verify_cases):
        verify_cases.check("analogue1/mobius_chain_oracle")

    def test_mobius_oracle_examples(self):
        assert stilde_mobius_oracle(5, 5) == 1
        assert stilde_mobius_oracle(3, 2) == 2
        tri = rtilde_triangle(6)
        assert stilde_mobius_oracle(6, 2) == tri.S(6, 2)

    def test_budget_guards(self):
        with pytest.raises(ValueError):
            rtilde_triangle(49)
        with pytest.raises(ValueError):
            stilde_mobius_oracle(13, 2)


class TestGroupoids:
    def test_closed_form_total(self):
        cards = groupoid_cardinalities(3, 1)
        assert cards.g == 2
        assert cards.g_even == 1
        assert cards.g_odd == 2

    def test_diagonal_is_empty(self):
        cards = groupoid_cardinalities(5, 5)
        assert cards.g_even == 0 and cards.g_odd == 0

    def test_signed_difference_is_second_kind_analogue(self, verify_cases):
        verify_cases.check("analogue1/groupoid_identity")

    def test_specific_cell(self):
        tri = rtilde_triangle(5)
        cards = groupoid_cardinalities(5, 2)
        assert (-1) ** 3 * (cards.g_even - cards.g_odd) == tri.S(5, 2)

    def test_composition_sum_bound(self, verify_cases):
        verify_cases.check("analogue1/composition_sum_bound")

    def test_recurrence_matches_composition_oracle(self, verify_cases):
        verify_cases.check("analogue1/groupoid_vs_composition_oracle")


@pytest.fixture(scope="module")
def forward_st():
    """St rows 0..48 by the forward-substitution oracle."""
    return _stilde_forward_oracle(RTILDE_MAX_N)


def _held_counts():
    """(held columns, held cells, held triangle rows)."""
    return tuple(cache.cache_info().currsize for cache in (
        cpoch.rtilde._column, cpoch.rtilde._groupoid_cell, cpoch.rtilde._triangle_row))


class TestHeldTables:
    """The groupoid columns and cells and the triangle rows are built once per process."""

    @pytest.mark.parametrize("sizes", [(0, 5, 12, 30, 48), (48, 30, 12, 5, 0)],
                             ids=["small_first", "large_first"])
    def test_store_filled_in_either_order(self, forward_st, sizes):
        # each size requests its cells (n <= 12) in the same direction, then its triangle
        empty_exact_tables()
        for size in sizes:
            cells = [(n, k) for n in range(1, min(size, 12) + 1) for k in range(1, n + 1)]
            for n, k in cells if sizes[0] < sizes[-1] else reversed(cells):
                cards = groupoid_cardinalities(n, k)
                assert cards.g == rtilde_coefficient(n, k)
                assert (cards.g_even, cards.g_odd) == _groupoid_oracle(n, k)
            tri = rtilde_triangle(size)
            assert tri.max_n == size
            assert tri.S_rows == forward_st[:size + 1]
            assert tri.r_rows == tuple(
                tuple(rtilde_coefficient(n, k) for k in range(n + 1)) for n in range(size + 1))
            assert tri.s_rows == tuple(
                tuple((-1) ** (n - k) * v for k, v in enumerate(row))
                for n, row in enumerate(tri.r_rows))
        # the columns 1..48, the 78 cells with n <= 12 and the rows 0..48,
        # each computed once
        assert _held_counts() == (RTILDE_MAX_N, 78, RTILDE_MAX_N + 1)
        assert cpoch.rtilde._column.cache_info().misses == RTILDE_MAX_N
        assert cpoch.rtilde._triangle_row.cache_info().misses == RTILDE_MAX_N + 1

    def test_cells_past_the_bound_are_not_held(self):
        empty_exact_tables()
        rtilde_triangle(20)
        columns, cells, rows = _held_counts()
        for n, k in ((49, 1), (60, 3), (60, 57), (55, 50), (55, 30)):
            cards = groupoid_cardinalities(n, k)
            if n - k <= 3:  # the composition oracle is cheap there
                assert (cards.g_even, cards.g_odd) == _groupoid_oracle(n, k)
        # column 30 is built for (55, 30), through its cell (48, 30); no
        # cell past n = 48 is held, in a column or as a cell
        assert _held_counts() == (columns + 1, cells, rows)
        for k in (1, 3, 30):
            assert len(cpoch.rtilde._column(k)) == RTILDE_MAX_N + 1 - k

    def test_cells_past_the_bound_extend_the_held_column(self):
        # the held column extended past n = 48 gives what the recurrence
        # started from (1, 0) gives
        for k in range(1, 61):
            column = cpoch.rtilde._groupoid_prefix(k, 60 - k)
            for n in range(max(49, k), 61):
                cards = groupoid_cardinalities(n, k)
                denom = 2 ** (n - k) * math.factorial(n - k)
                expected = [Fraction(v, denom) for v in column[n - k]] if n > k else [0, 0]
                assert [cards.g_even, cards.g_odd] == expected

    def test_held_cell_is_returned_again(self):
        empty_exact_tables()
        cards = groupoid_cardinalities(40, 7)
        assert groupoid_cardinalities(40, 7) is cards
        assert cpoch.rtilde._groupoid_cell.cache_info()[:2] == (1, 1)  # hits, misses
        # the first call builds column 7 whole, through its cell (48, 7)
        assert _held_counts()[0] == 1
        assert len(cpoch.rtilde._column(7)) == RTILDE_MAX_N + 1 - 7

    @pytest.mark.parametrize("call", [
        lambda order: rtilde_triangle(order),
        lambda order: groupoid_cardinalities(order, 1),
        lambda order: groupoid_cardinalities(5, order - 2),
    ], ids=["triangle", "cell_n", "cell_k"])
    def test_float_orders_refused_cold_and_warm(self, call):
        # a float equal to an int is refused, also once that int's entry is held
        empty_exact_tables()
        for _ in range(2):
            with pytest.raises(TypeError):
                call(3.0)
            assert _held_counts() == (0, 0, 0)
        call(3)
        held = _held_counts()
        with pytest.raises(TypeError):
            call(3.0)
        assert _held_counts() == held

    def test_concurrent_growth_matches_cold_calls(self):
        # threads that fill the groupoid columns and cells, the triangle
        # rows and the Stirling rows at once return the cold tables
        requests = [("triangle", 48), ("cell", (19, 3)), ("triangle", 7), ("cell", (48, 1)),
                    ("triangle", 30), ("cell", (25, 12)), ("cell", (40, 2)),
                    ("stirling", ("first_signed", 64)), ("stirling", ("second", 40)),
                    ("stirling", ("first_unsigned", 12))]
        threads_per_round = 7

        def call(request):
            kind, arg = request
            if kind == "stirling":
                return stirling_triangle(*arg)
            return rtilde_triangle(arg) if kind == "triangle" else groupoid_cardinalities(*arg)

        cold = []
        for request in requests:
            empty_exact_tables()
            cold.append(call(request))
        results = []

        def sweep(k):  # the requests rotated by k, so the threads fill the caches in turn
            got = {request: call(request) for request in requests[k:] + requests[:k]}
            results.append([got[request] for request in requests])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                empty_exact_tables()
                threads = [threading.Thread(target=sweep, args=(k,))
                           for k in range(threads_per_round)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                # every column, the four cells, the rows 0..48; the Stirling
                # rows of each of the three kinds
                assert _held_counts() == (RTILDE_MAX_N, 4, RTILDE_MAX_N + 1)
                assert cpoch.discrete._stirling_rows.cache_info().currsize == 3
        finally:
            sys.setswitchinterval(interval)
        assert results == [cold] * (3 * threads_per_round)


class TestEvaluations:
    def test_poly_degenerate_cases(self):
        assert rtilde_poly(3.3, 9.9, 0) == 1.0
        for x, y in ((0.5, 2.0), (4.0, -1.0)):
            assert rtilde_poly(x, y, 1) == x
        assert rtilde_poly(2.2, 0.0, 4) == pytest.approx(2.2**4, rel=1e-14)
        assert rtilde_poly(0.0, 3.0, 5) == 0.0

    @pytest.mark.parametrize("x, y, n, plain, sign, log_magnitude", POLY_PINNED)
    def test_poly_pinned_bits(self, x, y, n, plain, sign, log_magnitude):
        scaled = rtilde_poly(x, y, n, log_scaled=True)
        assert (scaled.sign, scaled.log_magnitude.hex()) == (sign, log_magnitude)
        if plain is None:
            assert rtilde_poly(x, y, n) == scaled
        else:
            assert rtilde_poly(x, y, n).hex() == plain

    def test_poly_log_sum_is_the_left_fold_of_log_scaled_terms(self):
        # the log-scaled sum adds the terms rt_{n,k} x^k y^(n-k) in k order,
        # each formed as LogScaled multiplication would form it
        rng = random.Random(2024)
        points = [(-1.5, 0.0, 7), (-0.3, 0.0, 60), (-2.0, 0.0, 1)]
        for _ in range(60):
            x = -(10.0 ** rng.uniform(-3, 3))
            y = rng.choice((0.0, rng.uniform(-4.0, 4.0), 10.0 ** rng.uniform(-3, 3)))
            points.append((x, y, rng.randint(0, 60)))
        zero = LogScaled(0, -math.inf)
        for x, y, n in points:
            lx, ly = LogScaled.from_float(x), LogScaled.from_float(y)
            terms = []
            for k, _, log_coeff in _poly_row(n):
                sign, log_term = 1, log_coeff
                if k:
                    sign *= lx.sign**k
                    log_term += k * lx.log_magnitude
                if n - k:
                    sign *= ly.sign ** (n - k)
                    log_term += (n - k) * ly.log_magnitude
                terms.append(LogScaled(sign, log_term))
            expected = functools.reduce(operator.add, terms, zero)
            assert rtilde_poly(x, y, n, log_scaled=True) == expected, (x, y, n)

    def test_poly_row_cache_is_bounded_and_exact(self):
        _poly_row.cache_clear()
        for n in range(_POLY_ROW_CACHE_SIZE + 8):
            nonzero = [k for k in range(n + 1) if rtilde_coefficient(n, k)]
            assert [k for k, _, _ in _poly_row(n)] == nonzero
            for k, value, log_value in _poly_row(n):
                coeff = rtilde_coefficient(n, k)
                assert value == float(coeff)
                assert log_value == math.log(coeff.numerator) - math.log(coeff.denominator)
        info = _poly_row.cache_info()
        assert info.maxsize == info.currsize == _POLY_ROW_CACHE_SIZE

    def test_poly_beyond_binary64_coefficients(self):
        # rt_{200,1} overflows a float: the plain form returns the log-scaled sum
        scaled = rtilde_poly(1.1, 0.9, 200, log_scaled=True)
        assert scaled.sign == 1 and math.isfinite(scaled.log_magnitude)
        assert rtilde_poly(1.1, 0.9, 200) == scaled

    @pytest.mark.parametrize("x, y, n, log_value", [
        (1e5, 1e5, 60, 946.53),    # finite coefficients, the float sum overflows
        (1e3, 1e3, 100, 1172.87),
        (1e5, 1e5, 70, None),      # x**k itself overflows
    ])
    def test_poly_overflowing_sum_is_log_scaled(self, x, y, n, log_value):
        scaled = rtilde_poly(x, y, n, log_scaled=True)
        assert rtilde_poly(x, y, n) == scaled
        if log_value is not None:
            assert abs(scaled.log_magnitude - log_value) <= 0.01

    def test_small_values(self):
        assert rtilde_poly(1.0, 1.0, 3) == 5.0
        assert rtilde_closed(1.0, 1.0, 3) == 5.0
        assert rtilde_ext(1.0, 1.0, 2.0) == pytest.approx(1.5, rel=1e-12)

    def test_closed_vs_truncated_exponential(self):
        for n in range(1, 9):
            got = rtilde_closed(1.0, 1.0, n)
            assert got == pytest.approx(e_partial_sum(n, (n - 1) ** 2 / 2.0), rel=1e-14)

    @given(
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_poly_equals_closed(self, x, y, n):
        poly = rtilde_poly(x, y, n)
        closed = rtilde_closed(x, y, n)
        assert abs(poly - closed) <= 1e-11 * abs(closed)

    def test_homogeneity(self):
        a, x, y, n = 2.0, 1.0, 3.0, 4
        assert rtilde_closed(a * x, a * y, n) == pytest.approx(
            a**n * rtilde_closed(x, y, n), rel=1e-13
        )

    def test_negative_slope_form(self):
        # closed form handles y < 0 through the alternating sum
        n, x = 5, 2.0
        got = rtilde_closed(x, -1.0, n)
        assert got == pytest.approx(x**n * e_partial_sum(n, -((n - 1) ** 2) / (2 * x)), rel=1e-12)

    def test_extension_consistency_grid(self, verify_cases):
        verify_cases.check("analogue1/extension_consistency")

    def test_extension_scaling_identity(self, verify_cases):
        verify_cases.check("analogue1/scaling_identity")

    def test_extension_upper_envelope(self, verify_cases):
        verify_cases.check("analogue1/upper_envelope")

    def test_log_scaled_matches_plain(self):
        plain = rtilde_closed(1.5, 2.0, 8)
        poly_scaled = rtilde_poly(1.5, 2.0, 8, log_scaled=True)
        assert poly_scaled.to_float() == pytest.approx(plain, rel=1e-11)

    def test_log_scaled_beyond_overflow(self):
        # 10**400 overflows: the closed form sums in logs, as the polynomial does
        big = rtilde_closed(10, 2, 400)
        assert isinstance(big, LogScaled) and big.sign == 1
        assert big.log_magnitude > 710.0
        assert big.log_magnitude == pytest.approx(rtilde_poly(10, 2, 400).log_magnitude, rel=1e-13)

    # ln rt(x, y, n) = n ln x + ln e_{n-1}(w) by 40-digit mpmath, rounded:
    # 2787.009942752205660729854, 946.5298990996165272930614 and, where
    # e_199(w) overflows and x^n underflows but their product is a float,
    # exp(270.525603284735562530799) = 3.074515735395309328678833e+117
    @pytest.mark.parametrize("x, y, n, expected", [
        (10.0, 2.0, 400, LogScaled(1, 2787.0099427522057)),
        (1e5, 1e5, 60, LogScaled(1, 946.5298990996165)),
        (0.01, 0.015, 200, 3.074515735395309e+117),
    ])
    def test_closed_past_binary64_matches_mpmath(self, x, y, n, expected):
        got = rtilde_closed(x, y, n)
        if isinstance(expected, LogScaled):
            assert isinstance(got, LogScaled) and got.sign == 1
            assert got.log_magnitude == pytest.approx(expected.log_magnitude, rel=1e-15)
        else:
            # n ln x and ln e_199(w) are ~1e3, so their rounding is ~1e-13 of the value
            assert got == pytest.approx(expected, rel=1e-12)

    # 60-digit mpmath of ln(x^z e_{z-1}(w)) where w = y (z-1)^2 / 2x leaves
    # binary64 (every z here is an integer, so e_{z-1}(w) is the finite sum
    # w^(z-1)/(z-1)! sum_j (z-1)!/((z-1-j)! w^j), whose terms past j = 4 are
    # below 1e-1500), and where only (z-1)^2 overflows: w = 5e99 is far below
    # z there, so e_{z-1}(w) = e^w
    @pytest.mark.parametrize("form, x, y, z, log_value", [
        (rtilde_closed, 1e-300, 1e308, 50, 34262.70712898898296),
        (rtilde_ext, 1e-300, 1e308, 50.0, 34262.70712898898296),
        (rtilde_closed, 1.0, 1e308, 10**6, 723317839.8743054844),
        (rtilde_ext, 2.0, 1e308, 1e200, 1.1700200800604152267e203),
        (rtilde_ext, 1.0, 1e-300, 1e200, 4.9999999999999998226e99),
    ])
    def test_past_the_range_of_w_matches_mpmath(self, form, x, y, z, log_value):
        got = form(x, y, z)
        assert isinstance(got, LogScaled) and got.sign == 1
        assert got.log_magnitude == pytest.approx(log_value, rel=1e-15)

    def test_closed_sums_directly_only_up_to_the_order_cap(self, monkeypatch):
        # the direct sum costs one term per unit of order, ~0.8 s for
        # rtilde_closed(0.5, 1, 10**7); past the cap x > 0, y >= 0 take
        # rtilde_ext's log route, and a negative x (no log form) keeps the sum
        orders = []
        rtilde_module = sys.modules["cpoch.rtilde"]
        monkeypatch.setattr(rtilde_module, "e_partial_sum",
                            lambda n, x: orders.append(n) or e_partial_sum(n, x))
        at_cap = rtilde_closed(1.7, 1.6e-5, DIRECT_SUM_MAX_N)
        assert at_cap == pytest.approx(rtilde_ext(1.7, 1.6e-5, float(DIRECT_SUM_MAX_N)), rel=1e-12)
        assert rtilde_closed(0.5, 1.0, 10**7) == rtilde_ext(0.5, 1.0, 1e7)
        assert rtilde_closed(1.7, 1.6e-5, DIRECT_SUM_MAX_N + 1) == rtilde_ext(
            1.7, 1.6e-5, float(DIRECT_SUM_MAX_N + 1))
        assert orders == [DIRECT_SUM_MAX_N]
        assert rtilde_closed(-1.0, 1e-9, DIRECT_SUM_MAX_N + 1) == pytest.approx(
            -math.exp(-1e-9 * DIRECT_SUM_MAX_N**2 / 2.0), rel=1e-12)
        assert orders == [DIRECT_SUM_MAX_N, DIRECT_SUM_MAX_N + 1]

    def test_closed_negative_sum_stops_once_terms_underflow(self, bounded):
        # no log route for x < 0: at w = -y (n-1)^2 / 2 = -0.01 the terms of
        # e_{n-1}(w) reach 0.0 by k ~ 100, so order 1e9 sums what order 400 does
        assert e_partial_sum(10**9, -0.01) == e_partial_sum(400, -0.01)
        assert rtilde_closed(-1.0, 2e-20, 10**9) == pytest.approx(math.exp(-0.01), rel=1e-8)

    def test_closed_overflow_without_log_form(self):
        # a negative x has no log-scaled form; leaving binary64 is an error
        with pytest.raises(OverflowError):
            rtilde_closed(-10.0, 2.0, 400)

    def test_ext_overflowing_reduced_argument(self):
        # y (z-1)^2 overflows although w = 5e11 does not; 50-digit mpmath
        # gives 704897868.32656376
        assert rtilde_ext(1e300, 1e300, 1e6) == LogScaled(1, 704897868.3265637)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            rtilde_closed(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            rtilde_ext(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            rtilde_ext(1.0, -0.5, 2.0)
        with pytest.raises(ValueError):
            rtilde_poly(1.0, 1.0, RTILDE_POLY_MAX_N + 1)
        # a nan or infinite x or y, named, instead of a LogScaled with a nan log
        for x, y in ((math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)):
            for log_scaled in (False, True):
                with pytest.raises(ValueError, match=f"finite x and y, got x={x}, y={y}"):
                    rtilde_poly(x, y, 5, log_scaled)


class TestSeriesForms:
    def test_mutual_agreement_where_converged(self, verify_cases):
        verify_cases.check("analogue1/series_forms_mutual", "analogue1/series_forms_region_nonempty")

    def test_agree_with_gamma_route(self):
        for z in (1.5, 2.5, 4.0):
            for w_target in (0.2, 1.0, 4.0):
                x, y = 1.0, 2.0 * w_target / (z - 1.0) ** 2
                ext = rtilde_ext(x, y, z)
                lo = rtilde_series_lower(x, y, z)
                hi = rtilde_series_upper(x, y, z)
                assert lo.value == pytest.approx(ext, rel=1e-10)
                assert hi.value == pytest.approx(ext, rel=1e-10)

    def test_cancellation_is_flagged(self):
        # far outside the double-precision window the flags must come back off
        lo = rtilde_series_lower(0.5, 2.0, 12.0)
        assert not lo.converged

    @pytest.mark.parametrize("form", [rtilde_series_lower, rtilde_series_upper])
    @pytest.mark.parametrize("x, y, z", [(10.0, 1.0, 400.0), (10.0, 0.0, 400.0),
                                         (2.0, 1e-300, 1100.0), (2, 1e-300, 1100), (10, 0, 400)])
    def test_overflowing_power_is_refused(self, form, x, y, z):
        # x^z leaves binary64 at a finite in-domain point: the large-w guard's
        # unconverged nan, not an uncaught OverflowError; with int x and z too,
        # where x**z is an exact int (10**400 came back as a converged value)
        result = form(x, y, z)
        assert math.isnan(result.value)
        assert (result.terms_used, result.tail_estimate, result.converged) == (0, math.inf, False)


class TestRecursionAndDerivatives:
    def test_order_recursion(self, verify_cases):
        verify_cases.check("analogue1/order_recursion")

    def test_scale_derivatives(self, verify_cases):
        verify_cases.check("analogue1/scale_derivative_identities")


class TestGaussianExpectation:
    def test_order_one_is_unit(self):
        assert gaussian_expectation(1.0, 1) == pytest.approx(1.0, abs=1e-14)

    def test_order_two(self):
        assert gaussian_expectation(1.0, 2) == pytest.approx(1.5, rel=1e-13)

    def test_matches_closed_form(self, verify_cases):
        verify_cases.check("analogue1/gaussian_expectation")

    def test_specific_case(self):
        assert gaussian_expectation(0.7, 6) == pytest.approx(
            rtilde_closed(1.0, 0.7, 6), rel=1e-9
        )

    def test_cosh_truncated(self):
        assert cosh_truncated(0, 3.0) == 1.0
        assert cosh_truncated(1, 2.0) == 3.0
        big = cosh_truncated(40, 1.0)
        assert big == pytest.approx(math.cosh(1.0), rel=1e-15)


class TestLimitsAndAsymptotics:
    def test_reduced_limit_to_exponential(self, verify_cases):
        # rt((n-1)^2, 2y, n) / (n-1)^(2n) in its reduced form e_{n-1}(y)
        verify_cases.check("analogue1/reduced_limit_to_exp")

    def test_reduced_limit_matches_scaled_triangle(self):
        # the algebraic reduction agrees with the direct evaluation, in logs
        n, y = 30, 1.0
        direct = rtilde_closed((n - 1) ** 2.0, 2.0 * y, n)
        reduced = math.log(e_partial_sum(n, y)) + 2.0 * n * math.log(n - 1.0)
        assert math.log(direct) == pytest.approx(reduced, rel=1e-13)

    def test_trend_fixed_y(self, verify_cases):
        verify_cases.check("analogue1/asymptote_trend_a")

    def test_trend_fixed_z_growing_y(self, verify_cases):
        verify_cases.check("analogue1/asymptote_trend_b")

    def test_trend_reciprocal_base(self, verify_cases):
        verify_cases.check("analogue1/asymptote_trend_c")

    def test_trend_reciprocal_base_growing_x(self, verify_cases):
        verify_cases.check("analogue1/asymptote_trend_d")

    def test_trend_diagonal(self, verify_cases):
        verify_cases.check("analogue1/asymptote_trend_e")
