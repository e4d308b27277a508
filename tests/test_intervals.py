"""Directed-rounding primitives and interval arithmetic.

The core contract under test: every operation returns bounds that bracket the
exact real result (verified against rational arithmetic), and stays within a
couple of ULPs of the optimal float bounds.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantrange.intervals import (
    EMPTY,
    DivisionByZeroInterval,
    EmptyInterval,
    Interval,
    add_down,
    add_up,
    div_down,
    div_up,
    frac_to_float_down,
    frac_to_float_up,
    is_empty,
    iv_add,
    iv_cos,
    iv_div,
    iv_hull,
    iv_mul,
    iv_pow,
    iv_sin,
    iv_sub,
    mul_down,
    mul_up,
    two_product,
    two_sum,
)

FINITE = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)


# ---------------------------------------------------------------------------
# Interval construction and queries
# ---------------------------------------------------------------------------


class TestIntervalBasics:
    def test_construction_and_accessors(self):
        iv = Interval(1.0, 2.5)
        assert iv.lo == 1.0 and iv.hi == 2.5
        assert iv.width == 1.5
        assert iv.mid == 1.75

    def test_point_and_symmetric_constructors(self):
        assert Interval.point(3.0) == Interval(3.0, 3.0)
        assert Interval.symmetric(0.25) == Interval(-0.25, 0.25)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_negative_zero_normalized(self):
        iv = Interval(-0.0, 0.0)
        assert math.copysign(1.0, iv.lo) == 1.0
        assert math.copysign(1.0, iv.hi) == 1.0

    def test_mig_and_mag(self):
        assert Interval(-2.0, 3.0).mig() == 0.0
        assert Interval(-2.0, 3.0).mag() == 3.0
        assert Interval(1.0, 3.0).mig() == 1.0
        assert Interval(-4.0, -2.0).mig() == 2.0
        assert Interval(-4.0, -2.0).mag() == 4.0

    def test_membership_and_containment(self):
        iv = Interval(-1.0, 2.0)
        assert 0.0 in iv and -1.0 in iv and 2.0 in iv
        assert 2.1 not in iv
        assert iv.contains_interval(Interval(-0.5, 1.0))
        assert iv.contains_interval(iv)
        assert not iv.contains_interval(Interval(-0.5, 2.5))

    def test_empty_is_a_distinct_singleton(self):
        assert EmptyInterval() is EMPTY
        assert is_empty(EMPTY)
        assert not is_empty(Interval(0.0, 0.0))
        assert 0.0 not in EMPTY
        assert repr(EMPTY) == "EMPTY"


# ---------------------------------------------------------------------------
# Error-free transforms and directed rounding
# ---------------------------------------------------------------------------


class TestDirectedRounding:
    @given(FINITE, FINITE)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_two_sum_is_exact(self, a, b):
        s, e = two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    @given(FINITE, FINITE)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_two_product_is_exact_in_normal_range(self, a, b):
        p, e = two_product(a, b)
        if p != 0.0 and abs(p) > 1e-290:
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    @given(FINITE, FINITE)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_add_brackets_exact_sum_within_one_ulp(self, a, b):
        exact = Fraction(a) + Fraction(b)
        lo, hi = add_down(a, b), add_up(a, b)
        assert Fraction(lo) <= exact <= Fraction(hi)
        nearest = a + b
        assert lo >= math.nextafter(nearest, -math.inf)
        assert hi <= math.nextafter(nearest, math.inf)

    @given(FINITE, FINITE)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_mul_brackets_exact_product_within_one_ulp(self, a, b):
        exact = Fraction(a) * Fraction(b)
        lo, hi = mul_down(a, b), mul_up(a, b)
        assert Fraction(lo) <= exact <= Fraction(hi)
        nearest = a * b
        assert lo >= math.nextafter(nearest, -math.inf)
        assert hi <= math.nextafter(nearest, math.inf)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
    )
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_div_brackets_exact_quotient_within_one_ulp(self, x, y):
        if abs(y) < 1e-100:
            return
        exact = Fraction(x) / Fraction(y)
        lo, hi = div_down(x, y), div_up(x, y)
        assert Fraction(lo) <= exact <= Fraction(hi)
        nearest = x / y
        assert lo >= math.nextafter(nearest, -math.inf)
        assert hi <= math.nextafter(nearest, math.inf)

    def test_exact_dyadic_operations_are_not_widened(self):
        assert add_down(0.25, 0.5) == 0.75 == add_up(0.25, 0.5)
        assert mul_down(2.0, 3.0) == 6.0 == mul_up(2.0, 3.0)
        assert div_down(6.0, 2.0) == 3.0 == div_up(6.0, 2.0)

    def test_multiplication_underflow_keeps_correct_side(self):
        # Products whose value AND error term underflow to zero still need a
        # bound on the far side of zero.
        assert mul_up(1e-200, 1e-200) == 5e-324
        assert mul_down(1e-200, 1e-200) == 0.0
        assert mul_down(1e-200, -1e-200) == -5e-324
        assert mul_up(1e-200, -1e-200) == 0.0
        assert mul_up(0.0, -1e-200) == 0.0 == mul_down(0.0, 1e-200)

    def test_division_underflow_keeps_correct_side(self):
        assert div_up(1e-300, 1e300) == 5e-324
        assert div_down(1e-300, 1e300) == 0.0

    def test_fraction_conversions_are_adjacent_floats(self):
        third = Fraction(1, 3)
        lo, hi = frac_to_float_down(third), frac_to_float_up(third)
        assert Fraction(lo) <= third <= Fraction(hi)
        assert math.nextafter(lo, math.inf) == hi
        # Exactly representable values convert without widening.
        assert frac_to_float_down(Fraction(3, 4)) == 0.75 == frac_to_float_up(Fraction(3, 4))
        assert frac_to_float_down(Fraction(-5, 2)) == -2.5 == frac_to_float_up(Fraction(-5, 2))

    def test_fraction_conversions_beyond_the_float_range(self):
        huge = 2 * Fraction(sys.float_info.max)
        assert frac_to_float_down(huge) == sys.float_info.max
        assert frac_to_float_up(huge) == math.inf
        assert frac_to_float_down(-huge) == -math.inf
        assert frac_to_float_up(-huge) == -sys.float_info.max


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


def _contains_sample_products(result: Interval, a: Interval, b: Interval) -> bool:
    pts_a = [a.lo, a.mid, a.hi]
    pts_b = [b.lo, b.mid, b.hi]
    return all(x * y in result for x in pts_a for y in pts_b)


class TestIntervalArithmetic:
    def test_add_sub_exact_on_dyadics(self):
        assert iv_add(Interval(1.0, 2.0), Interval(3.0, 4.0)) == Interval(4.0, 6.0)
        assert iv_sub(Interval(1.0, 2.0), Interval(3.0, 4.0)) == Interval(-3.0, -1.0)
        assert -Interval(1.0, 2.0) == Interval(-2.0, -1.0)
        assert Interval(1.0, 2.0) + Interval(3.0, 4.0) == Interval(4.0, 6.0)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (Interval(-1.0, 2.0), Interval(3.0, 4.0), Interval(-4.0, 8.0)),
            (Interval(-2.0, -1.0), Interval(-4.0, -3.0), Interval(3.0, 8.0)),
            (Interval(-2.0, 3.0), Interval(-1.0, 4.0), Interval(-8.0, 12.0)),
            (Interval(0.0, 0.0), Interval(-5.0, 7.0), Interval(0.0, 0.0)),
            (Interval(0.5, 0.5), Interval(0.25, 0.75), Interval(0.125, 0.375)),
        ],
    )
    def test_mul_four_corner_cases_exact_on_dyadics(self, a, b, expected):
        got = iv_mul(a, b)
        assert got == expected
        assert _contains_sample_products(got, a, b)

    @given(
        st.tuples(FINITE, FINITE).map(sorted),
        st.tuples(FINITE, FINITE).map(sorted),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mul_containment_fuzz(self, ab, cd, t, u):
        a = Interval(ab[0], ab[1])
        b = Interval(cd[0], cd[1])
        got = iv_mul(a, b)
        x = min(max(a.lo + t * (a.hi - a.lo), a.lo), a.hi)
        y = min(max(b.lo + u * (b.hi - b.lo), b.lo), b.hi)
        exact = Fraction(x) * Fraction(y)
        assert Fraction(got.lo) <= exact <= Fraction(got.hi)

    def test_div_exact_on_dyadics(self):
        assert iv_div(Interval(1.0, 4.0), Interval(2.0, 2.0)) == Interval(0.5, 2.0)
        assert iv_div(Interval(-6.0, 8.0), Interval(2.0, 4.0)) == Interval(-3.0, 4.0)
        assert iv_div(Interval(1.0, 2.0), Interval(-4.0, -2.0)) == Interval(-1.0, -0.25)

    def test_div_by_interval_containing_zero_raises(self):
        for divisor in (Interval(-1.0, 1.0), Interval(0.0, 1.0), Interval(-1.0, 0.0), Interval(0.0, 0.0)):
            with pytest.raises(DivisionByZeroInterval):
                iv_div(Interval(1.0, 2.0), divisor)
        # the error is a ZeroDivisionError subclass
        assert issubclass(DivisionByZeroInterval, ZeroDivisionError)

    def test_pow_even_uses_minimum_magnitude(self):
        assert iv_pow(Interval(-1.0, 1.0), 2) == Interval(0.0, 1.0)
        assert iv_pow(Interval(-2.0, 3.0), 2) == Interval(0.0, 9.0)
        assert iv_pow(Interval(-3.0, -2.0), 2) == Interval(4.0, 9.0)
        assert iv_pow(Interval(2.0, 3.0), 4) == Interval(16.0, 81.0)

    def test_pow_odd_is_monotone(self):
        assert iv_pow(Interval(-2.0, 3.0), 3) == Interval(-8.0, 27.0)
        assert iv_pow(Interval(-2.0, -1.0), 3) == Interval(-8.0, -1.0)

    def test_pow_zero_and_one(self):
        assert iv_pow(Interval(-5.0, 7.0), 0) == Interval(1.0, 1.0)
        assert iv_pow(Interval(-5.0, 7.0), 1) == Interval(-5.0, 7.0)

    def test_pow_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            iv_pow(Interval(1.0, 2.0), -1)


class TestTrig:
    def test_sin_cos_at_zero_are_exact(self):
        assert iv_sin(Interval(0.0, 0.0)) == Interval(0.0, 0.0)
        assert iv_cos(Interval(0.0, 0.0)) == Interval(1.0, 1.0)

    def test_sin_monotone_window_is_tight(self):
        iv = iv_sin(Interval(-0.015, 0.015))
        lo_ref, hi_ref = math.sin(-0.015), math.sin(0.015)
        assert iv.lo <= lo_ref and hi_ref <= iv.hi
        assert iv.lo >= lo_ref - 4 * math.ulp(1.0)
        assert iv.hi <= hi_ref + 4 * math.ulp(1.0)

    def test_sin_hits_critical_points_exactly(self):
        assert iv_sin(Interval(1.5, 1.7)).hi == 1.0  # crosses pi/2
        assert iv_sin(Interval(-1.7, -1.5)).lo == -1.0
        assert iv_cos(Interval(-0.1, 0.1)).hi == 1.0
        assert iv_cos(Interval(3.0, 3.3)).lo == -1.0  # crosses pi

    def test_full_period_collapses_to_unit_interval(self):
        assert iv_sin(Interval(0.0, 7.0)) == Interval(-1.0, 1.0)
        assert iv_cos(Interval(-10.0, 10.0)) == Interval(-1.0, 1.0)

    @given(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).map(sorted), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sin_containment_fuzz(self, ab, t):
        iv = Interval(ab[0], ab[1])
        got = iv_sin(iv)
        x = min(max(iv.lo + t * (iv.hi - iv.lo), iv.lo), iv.hi)
        assert got.lo <= math.sin(x) <= got.hi
        assert -1.0 <= got.lo and got.hi <= 1.0

    @given(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).map(sorted), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_cos_containment_fuzz(self, ab, t):
        iv = Interval(ab[0], ab[1])
        got = iv_cos(iv)
        x = min(max(iv.lo + t * (iv.hi - iv.lo), iv.lo), iv.hi)
        assert got.lo <= math.cos(x) <= got.hi


class TestLatticeOps:
    def test_hull(self):
        assert iv_hull(Interval(0.0, 1.0), Interval(2.0, 3.0)) == Interval(0.0, 3.0)
        assert iv_hull(Interval(0.0, 5.0), Interval(1.0, 2.0)) == Interval(0.0, 5.0)

    def test_hull_absorbs_empty(self):
        assert iv_hull(EMPTY, Interval(1.0, 2.0)) == Interval(1.0, 2.0)
        assert iv_hull(Interval(1.0, 2.0), EMPTY) == Interval(1.0, 2.0)
        assert is_empty(iv_hull(EMPTY, EMPTY))

