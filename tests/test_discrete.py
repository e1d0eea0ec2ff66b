import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_exact_tables
from cpoch.discrete import (
    TRIANGLE_KINDS,
    _stirling_rows,
    geometric_sum_pair,
    pochhammer_discrete,
    power_sum_pair,
    simplex_moment,
    simplex_volume,
    stirling_lattice_oracle,
    stirling_triangle,
)
from cpoch.verify import SIMPLEX_X

def _recurrence_rows(kind: str, max_n: int) -> list[tuple[int, ...]]:
    """Rows 0..max_n of kind, each entry by its recurrence from scratch."""
    rows = [(1,)]
    for n in range(max_n):
        rows.append(tuple((rows[n][k - 1] if k else 0)
                          + (k if kind == "second" else n) * (rows[n][k] if k <= n else 0)
                          for k in range(n + 2)))
    if kind == "first_signed":
        rows = [tuple((-1) ** (n - k) * v for k, v in enumerate(row)) for n, row in enumerate(rows)]
    return rows


small_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12
)


class TestPochhammerDiscrete:
    def test_empty_product(self):
        assert pochhammer_discrete(7, 3, 0) == 1
        assert pochhammer_discrete(Fraction(1, 3), Fraction(2), 0) == 1

    def test_double_factorial(self):
        assert pochhammer_discrete(1, 2, 3) == 15
        for n in range(13):
            expected = 1
            for odd in range(1, 2 * n, 2):
                expected *= odd
            assert pochhammer_discrete(1, 2, n) == expected

    def test_product_example(self):
        assert pochhammer_discrete(2, 3, 3) == 80

    def test_factorials(self, verify_cases):
        verify_cases.check("discrete/falling_factorial_is_factorial",
                           "discrete/rising_factorial_is_factorial")

    @given(small_fractions, small_fractions, st.integers(min_value=0, max_value=8))
    @settings(max_examples=150)
    def test_triangle_expansion(self, x, y, n):
        # r(x, y, n) = sum_k r_{n,k} x^k y^(n-k), exactly in rationals
        tri = stirling_triangle("first_unsigned", 8)
        expansion = sum(
            tri.value(n, k) * x**k * y ** (n - k) for k in range(n + 1)
        )
        assert pochhammer_discrete(x, y, n) == expansion

    @given(small_fractions, small_fractions, small_fractions,
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=100)
    def test_homogeneity(self, a, x, y, n):
        assert pochhammer_discrete(a * x, a * y, n) == a**n * pochhammer_discrete(x, y, n)

    def test_fraction_product_matches_per_factor_product(self):
        # one normalization at the end against one at every factor
        def per_factor(x, y, n):
            result = Fraction(1)
            for l in range(n):
                result *= x + l * y
            return result

        rng = random.Random(20240118)
        cases = [(Fraction(-3, 4), Fraction(1, 4), 6),  # x = -3y: a zero factor
                 (Fraction(6, 5), Fraction(-2, 5), 9),
                 (Fraction(-7, 3), Fraction(-5, 6), 0)]
        for _ in range(300):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
            cases.append((x, y, rng.randint(0, 30)))
        for x, y, n in cases:
            got, want = pochhammer_discrete(x, y, n), per_factor(x, y, n)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_mixed_operands_keep_their_result_type(self):
        assert type(pochhammer_discrete(1, Fraction(1, 2), 0)) is int
        assert type(pochhammer_discrete(1, Fraction(1, 2), 3)) is Fraction
        assert type(pochhammer_discrete(Fraction(1, 2), 0.5, 3)) is float

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            pochhammer_discrete(1, 1, -1)


class TestStirlingTriangles:
    def test_lattice_oracle_matches_triangle(self, verify_cases):
        verify_cases.check("discrete/triangle_vs_lattice_oracle")

    def test_oracle_boundaries(self):
        for n in range(1, 10):
            assert stirling_lattice_oracle(n, n) == 1
            assert stirling_lattice_oracle(n, 0) == 0
        assert stirling_lattice_oracle(4, 2) == 11

    def test_oracle_budget(self):
        with pytest.raises(ValueError):
            stirling_lattice_oracle(10, 3)

    def test_row_sums(self, verify_cases):
        verify_cases.check("discrete/row_sums_factorial")

    def test_double_factorial_expansion(self, verify_cases):
        verify_cases.check("discrete/double_factorial_rows")

    def test_signed_inversion(self):
        signed = stirling_triangle("first_signed", 12)
        second = stirling_triangle("second", 12)
        for n in range(13):
            for k in range(13):
                total = sum(
                    signed.value(n, l) * second.value(l, k) for l in range(k, n + 1)
                )
                assert total == (1 if n == k else 0)

    def test_powers_from_falling_factorials(self, verify_cases):
        verify_cases.check("discrete/powers_from_falling_factorials")

    def test_no_overflow_at_max_order(self):
        tri = stirling_triangle("first_unsigned", 64)
        assert tri.value(64, 1) == math.factorial(63)
        assert max(tri.row(64)) > 2**64  # far beyond machine words

    @pytest.mark.parametrize("kind", TRIANGLE_KINDS)
    def test_held_rows_match_recurrence(self, kind):
        # the rows held after the largest triangle serve every smaller one
        empty_exact_tables()
        expected = _recurrence_rows(kind, 64)
        for max_n in (64, 0, 1, 17, 63, 64):
            tri = stirling_triangle(kind, max_n)
            assert (tri.kind, tri.max_n) == (kind, max_n)
            assert tri.rows == tuple(expected[:max_n + 1])

    @pytest.mark.parametrize("kind", TRIANGLE_KINDS)
    def test_held_rows_each_built_once(self, kind):
        empty_exact_tables()
        tri = stirling_triangle(kind, 17)
        assert stirling_triangle(kind, 17) == tri
        stirling_triangle(kind, 64)
        # rows 0..64 of the kind, from one run of its recurrence
        assert _stirling_rows.cache_info()[:] == (2, 1, None, 1)  # hits, misses, maxsize, currsize

    def test_guards(self):
        with pytest.raises(ValueError):
            stirling_triangle("first_unsigned", 65)
        with pytest.raises(ValueError):
            stirling_triangle("third", 5)

    @pytest.mark.parametrize("kind", TRIANGLE_KINDS)
    def test_float_order_refused_cold_and_warm(self, kind):
        # a float equal to an int is refused, also once the kind's rows are held
        empty_exact_tables()
        with pytest.raises(TypeError):
            stirling_triangle(kind, 3.0)
        assert _stirling_rows.cache_info().currsize == 0
        stirling_triangle(kind, 3)
        with pytest.raises(TypeError):
            stirling_triangle(kind, 3.0)
        assert _stirling_rows.cache_info()[1:] == (1, None, 1)  # misses, maxsize, currsize

    def test_row_bound_is_the_value_bound(self):
        tri = stirling_triangle("second", 5)
        for n in (-1, 6):
            with pytest.raises(IndexError):
                tri.value(n, 0)
            with pytest.raises(IndexError):
                tri.row(n)
        assert tri.row(5) == (0, 1, 15, 25, 10, 1)


class TestSimplexClosedForms:
    def test_volume_values(self):
        assert simplex_volume(3.0, 2) == 4.5
        assert simplex_volume(0.77, 0) == 1.0
        assert simplex_volume(Fraction(1), 4) == Fraction(1, 24)

    def test_moment_values(self):
        assert simplex_moment(2.0, 1) == 2.0
        assert simplex_moment(1.5, 0) == 1.0
        assert simplex_moment(Fraction(1), 3) == Fraction(1, 48)

    def test_moment_double_factorial_identity(self, verify_cases):
        # x^(2k) / (2^k k!) = (2k-1)!! x^(2k) / (2k)! exactly
        verify_cases.check("discrete/moment_double_factorial_form")

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("x", SIMPLEX_X)
    def test_against_nested_quadrature(self, verify_cases, k, x):
        verify_cases.check("discrete/simplex_quadrature_vs_closed_forms", k=k, x=x)


class TestSumAnalogues:
    def test_power_sum_values(self):
        assert power_sum_pair(3, 1) == (6, 4.5)

    def test_power_sum_ratio_limit(self, verify_cases):
        verify_cases.check("discrete/power_sum_ratio_limit")

    def test_geometric_values(self):
        discrete, continuous = geometric_sum_pair(2.0, 3.0)
        assert discrete == 15.0  # 1 + 2 + 4 + 8
        assert abs(continuous - 7.0 / math.log(2.0)) <= 1e-12
        assert abs(continuous - 10.0989) <= 1e-4

    def test_geometric_ratio_decays(self, verify_cases):
        verify_cases.check("discrete/geometric_ratio_decreasing", "discrete/geometric_ratio_limit")

    def test_geometric_rejects_unit_base(self):
        with pytest.raises(ValueError):
            geometric_sum_pair(1.0, 2.0)


@pytest.mark.parametrize("form, args, expected", [
    # x^k, k! or x^(y+1) overflows as a float, the value does not: the exact
    # quotient, rounded once
    (simplex_volume, (2.0, 200), float(Fraction(2**200, math.factorial(200)))),  # 2.04e-315
    (simplex_volume, (1e5, 70), float(Fraction(10**350, math.factorial(70)))),  # 8.35e249
    (simplex_volume, (0.5, 300), 0.0),  # below the least subnormal
    (simplex_volume, (0.0, 200), 0.0),
    (simplex_moment, (30.0, 200), float(Fraction(30**400, 2**200 * math.factorial(200)))),
    (power_sum_pair, (10, 308), (sum(l**308 for l in range(1, 11)), float(Fraction(10**309, 309)))),
    (geometric_sum_pair, (1e10, 30.0),
     (float(Fraction(10**310 - 1, 10**10 - 1)), (1e300 - 1.0) / math.log(1e10))),
    # x^y = 1e310 overflows, its quotient by ln x = -356.9 does not
    (geometric_sum_pair, (1e-155, -2.0),
     ((1e155 - 1.0) / (1e-155 - 1.0),
      float((Fraction(1e-155) ** -2 - 1) / Fraction(math.log(1e-155))))),
])
def test_float_form_overflow_returns_the_value(bounded, form, args, expected):
    assert form(*args) == expected


@pytest.mark.parametrize("x, y", [(1e10, 30.5), (1e-300, -1.03)])
def test_geometric_overflow_at_fractional_y_is_formed_in_logs(x, y):
    # x^(y+1) or x^y overflows as a float; 30-digit references
    with mpmath.workdps(30):
        mx, my = mpmath.mpf(x), mpmath.mpf(y)
        reference = ((mx ** (my + 1) - 1) / (mx - 1), (mx**my - 1) / mpmath.log(mx))
    for got, want in zip(geometric_sum_pair(x, y), reference):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("form, args, inputs", [
    (simplex_volume, (1e200, 5), "(x=1e+200, k=5)"),
    (simplex_moment, (1e100, 5), "(x=1e+100, k=5)"),
    (power_sum_pair, (10**6, 60), "(n=1000000, k=60)"),
    (geometric_sum_pair, (1e10, 40.0), "(x=10000000000.0, y=40.0)"),
    (geometric_sum_pair, (1.5, 1749.0), "(x=1.5, y=1749.0)"),  # the quotient, not x^(y+1)
])
def test_float_overflow_names_the_function_and_its_inputs(bounded, form, args, inputs):
    # each value leaves binary64: no bare (34, 'Numerical result out of range')
    # and no inf; the power sum's continuous side is refused before its exact
    # sum over n
    with pytest.raises(OverflowError, match=f"^{form.__name__}'s ") as raised:
        form(*args)
    assert str(raised.value).endswith(f" exceeds the largest float at {inputs}")
