"""Directed-rounding primitives and interval arithmetic.

The core contract under test: every operation returns bounds that bracket the
exact real result (verified against rational arithmetic), and stays within a
couple of ULPs of the optimal float bounds, over the whole finite range.
The sign-case product and quotient are checked bit for bit against the
four-corner oracles in helpers.py.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quantrange import intervals
from quantrange.intervals import (
    EMPTY,
    DivisionByZeroInterval,
    EmptyInterval,
    Interval,
    add_down,
    add_up,
    div_down,
    div_up,
    is_empty,
    iv_add,
    iv_cos,
    iv_div,
    iv_hull,
    iv_mul,
    iv_neg,
    iv_pow,
    iv_sin,
    iv_sub,
    mul_down,
    mul_up,
    round_ratio,
    two_product,
    two_sum,
)

from helpers import (
    contains,
    frac_to_float_down,
    frac_to_float_up,
    oracle_iv_div,
    oracle_iv_mul,
)

# The whole finite range: subnormals, +-0.0 and operands near the float
# maximum included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MAX = Fraction(sys.float_info.max)


def _assert_brackets_within_one_ulp(lo: float, hi: float, exact: Fraction, nearest: float) -> None:
    """lo <= exact <= hi, each bound within one ULP of the nearest float.

    A result that overflows to +-inf is the only case set aside; an infinite
    bound next to a finite nearest value is compared as an extended real.
    """
    if math.isinf(nearest):
        assert abs(exact) > _MAX
        return
    assert lo == -math.inf or Fraction(lo) <= exact
    assert hi == math.inf or exact <= Fraction(hi)
    assert lo >= math.nextafter(nearest, -math.inf)
    assert hi <= math.nextafter(nearest, math.inf)


# ---------------------------------------------------------------------------
# Interval construction and queries
# ---------------------------------------------------------------------------


class TestIntervalBasics:
    def test_construction_and_accessors(self):
        iv = Interval(1.0, 2.5)
        assert iv.lo == 1.0 and iv.hi == 2.5
        assert iv.width == 1.5
        assert iv.mid == 1.75

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
        assert contains(iv, 0.0) and contains(iv, -1.0) and contains(iv, 2.0)
        assert not contains(iv, 2.1)
        assert contains(iv, Interval(-0.5, 1.0))
        assert contains(iv, iv)
        assert not contains(iv, Interval(-0.5, 2.5))

    def test_empty_is_a_distinct_singleton(self):
        assert EmptyInterval() is EMPTY
        assert is_empty(EMPTY)
        assert not is_empty(Interval(0.0, 0.0))
        assert not contains(EMPTY, 0.0)
        assert repr(EMPTY) == "EMPTY"


# ---------------------------------------------------------------------------
# Error-free transforms and directed rounding
# ---------------------------------------------------------------------------


class TestDirectedRounding:
    @given(FINITE, FINITE)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_two_sum_is_exact(self, a, b):
        s, e = two_sum(a, b)
        if math.isinf(s):
            assert abs(Fraction(a) + Fraction(b)) > _MAX
            return
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    @given(FINITE, FINITE)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_two_product_is_exact_in_normal_range(self, a, b):
        p, e = two_product(a, b)
        if math.isinf(p):
            assert abs(Fraction(a) * Fraction(b)) > _MAX
            return
        if p != 0.0 and abs(p) > 1e-290:
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    @given(FINITE, FINITE)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_add_brackets_exact_sum_within_one_ulp(self, a, b):
        exact = Fraction(a) + Fraction(b)
        _assert_brackets_within_one_ulp(add_down(a, b), add_up(a, b), exact, a + b)

    @given(FINITE, FINITE)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_mul_brackets_exact_product_within_one_ulp(self, a, b):
        exact = Fraction(a) * Fraction(b)
        _assert_brackets_within_one_ulp(mul_down(a, b), mul_up(a, b), exact, a * b)

    @given(FINITE, FINITE)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_div_brackets_exact_quotient_within_one_ulp(self, x, y):
        assume(y != 0.0)
        exact = Fraction(x) / Fraction(y)
        _assert_brackets_within_one_ulp(div_down(x, y), div_up(x, y), exact, x / y)

    @pytest.mark.parametrize(
        "a, b",
        [
            (7.967744395866206e301, 1.0242394083360167),  # the split of a overflows
            (2.0**997 + 2.0**946, 1.0 + 2.0**-52),
            (-(2.0**1000) * 1.1, 3.3e-7),
            (1.3e154, 1.25e154),  # a partial product beyond 2**995
            (sys.float_info.max * 0.75, 1.3),
        ],
    )
    def test_huge_operands_round_outward(self, a, b):
        exact = Fraction(a) * Fraction(b)
        assert Fraction(mul_down(a, b)) < exact < Fraction(mul_up(a, b))
        quotient = Fraction(a) / Fraction(b)
        assert Fraction(div_down(a, b)) < quotient < Fraction(div_up(a, b))
        assert Fraction(div_down(b, a)) < 1 / quotient < Fraction(div_up(b, a))

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
        lo, hi = round_ratio(1, 3, False), round_ratio(1, 3, True)
        assert Fraction(lo) <= third <= Fraction(hi)
        assert math.nextafter(lo, math.inf) == hi
        # Exactly representable values convert without widening.
        assert round_ratio(3, 4, False) == 0.75 == round_ratio(3, 4, True)
        assert round_ratio(-5, 2, False) == -2.5 == round_ratio(-5, 2, True)

    def test_fraction_conversions_beyond_the_float_range(self):
        huge = 2 * Fraction(sys.float_info.max)
        n, d = huge.numerator, huge.denominator
        assert round_ratio(n, d, False) == sys.float_info.max
        assert round_ratio(n, d, True) == math.inf
        assert round_ratio(-n, d, False) == -math.inf
        assert round_ratio(-n, d, True) == -sys.float_info.max


# ---------------------------------------------------------------------------
# round_ratio against the Fraction oracle
# ---------------------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max
_MAX_ULP = math.ulp(_FLOAT_MAX)
# Denominators: 1, the row models' 2**1074 and q * 2**1075, and any.
_DENOMS = st.one_of(
    st.just(1),
    st.just(1 << 1074),
    st.integers(1, 1 << 64).map(lambda q: q << 1075),
    st.integers(1, 1 << 3000),
)
# Values to put a ratio next to: zero, subnormals, the smallest normal,
# exact floats, and the float maximum, of either sign.
_ANCHORS = st.one_of(
    st.sampled_from(
        [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 1.0, 0.1, 1e308]
        + [_FLOAT_MAX, math.nextafter(_FLOAT_MAX, 0.0)]
    ),
    FINITE,
).flatmap(lambda f: st.sampled_from([f, -f]))


# Dividends below the error-term threshold, and divisors that make any
# quotient of a dividend within 1e10 fall below it.
_TINY_FLOATS = st.floats(-1e-290, 1e-290)
_HUGE_FLOATS = st.floats(1e300, _FLOAT_MAX).flatmap(lambda f: st.sampled_from([f, -f]))


def _assert_rounds_like_the_oracle(n: int, d: int) -> None:
    exact = Fraction(n, d)
    assert repr(round_ratio(n, d, False)) == repr(frac_to_float_down(exact))
    assert repr(round_ratio(n, d, True)) == repr(frac_to_float_up(exact))


def _assert_divides_like_the_oracle(x: float, y: float) -> None:
    """Compared by value: a zero quotient may come back as 0.0 where x / y
    gives -0.0."""
    exact = Fraction(x) / Fraction(y)
    assert div_down(x, y) == frac_to_float_down(exact)
    assert div_up(x, y) == frac_to_float_up(exact)


class TestRoundRatioMatchesFractionOracle:
    @given(st.integers(-(1 << 3000), 1 << 3000), _DENOMS)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_any_ratio(self, n, d):
        _assert_rounds_like_the_oracle(n, d)

    @given(_ANCHORS, _DENOMS, st.integers(-3, 3))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_ratios_next_to_a_float(self, f, d, step):
        """A ratio a few units of 1/d from f, or f itself (step 0, where
        f * d is an integer)."""
        _assert_rounds_like_the_oracle(round(Fraction(f) * d) + step, d)

    @pytest.mark.parametrize("quarters", range(-4, 9))
    @pytest.mark.parametrize("sign", (1, -1))
    def test_just_inside_and_past_the_float_maximum(self, quarters, sign):
        """max + k/4 ulp: up to half an ulp past it, n / d still rounds to
        the maximum; beyond that it overflows and the clamp takes over."""
        exact = sign * (Fraction(_FLOAT_MAX) + Fraction(quarters, 4) * Fraction(_MAX_ULP))
        _assert_rounds_like_the_oracle(exact.numerator, exact.denominator)
        if quarters > 0:
            away = round_ratio(exact.numerator, exact.denominator, sign > 0)
            toward = round_ratio(exact.numerator, exact.denominator, sign < 0)
            assert away == sign * math.inf and toward == sign * _FLOAT_MAX

    @given(_TINY_FLOATS, FINITE)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_tiny_dividends(self, x, y):
        """div_down and div_up where the error term of q * y may underflow."""
        assume(y != 0.0)
        _assert_divides_like_the_oracle(x, y)

    @given(st.floats(-1e10, 1e10), _HUGE_FLOATS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_tiny_quotients(self, x, y):
        _assert_divides_like_the_oracle(x, y)

    @pytest.mark.parametrize(
        "x, y",
        [
            (5e-324, 3.0),
            (-5e-324, 3.0),
            (5e-324, -3.0),
            (-5e-324, -1e300),
            (1e-300, -7.0),
            (0.0, -1.0),
            (-0.0, 2.0),
            (3e-310, 3e-310),
            (1e-300, 1e300),
        ],
    )
    def test_tiny_quotient_cases(self, x, y):
        _assert_divides_like_the_oracle(x, y)


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


def _contains_sample_products(result: Interval, a: Interval, b: Interval) -> bool:
    pts_a = [a.lo, a.mid, a.hi]
    pts_b = [b.lo, b.mid, b.hi]
    return all(contains(result, x * y) for x in pts_a for y in pts_b)


class TestIntervalArithmetic:
    def test_add_sub_exact_on_dyadics(self):
        assert iv_add(Interval(1.0, 2.0), Interval(3.0, 4.0)) == Interval(4.0, 6.0)
        assert iv_sub(Interval(1.0, 2.0), Interval(3.0, 4.0)) == Interval(-3.0, -1.0)
        assert iv_neg(Interval(1.0, 2.0)) == Interval(-2.0, -1.0)
        assert iv_add(Interval(3.0, 4.0), Interval(1.0, 2.0)) == Interval(4.0, 6.0)

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
        corners = [f(p, q) for f in (mul_down, mul_up) for p in (a.lo, a.hi) for q in (b.lo, b.hi)]
        if any(math.isinf(c) for c in corners):
            with pytest.raises(ValueError):  # an overflowing product is refused
                iv_mul(a, b)
            return
        got = iv_mul(a, b)
        # (1 - t)*lo + t*hi cannot overflow to nan the way lo + t*(hi - lo) can
        x = min(max(a.lo * (1.0 - t) + a.hi * t, a.lo), a.hi)
        y = min(max(b.lo * (1.0 - u) + b.hi * u, b.lo), b.hi)
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


# Interval bounds drawn so that every sign class, +-0.0, subnormals and the
# float maximum come up often.
_BOUND = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]),
    FINITE,
    st.floats(-4.0, 4.0),
)
_INTERVAL = st.tuples(_BOUND, _BOUND).map(sorted).map(lambda p: Interval(*p))


def _kernel_outcome(fn, a, b):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(fn(a, b))
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _count_calls(monkeypatch, *names):
    calls = []
    for name in names:
        fn = getattr(intervals, name)
        monkeypatch.setattr(intervals, name, lambda x, y, fn=fn, name=name: calls.append(name) or fn(x, y))
    return calls


class TestSignCaseKernels:
    @given(_INTERVAL, _INTERVAL)
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_mul_matches_four_corner_oracle(self, a, b):
        assert _kernel_outcome(iv_mul, a, b) == _kernel_outcome(oracle_iv_mul, a, b)

    @given(_INTERVAL, _INTERVAL)
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_div_matches_four_corner_oracle(self, a, b):
        assert _kernel_outcome(iv_div, a, b) == _kernel_outcome(oracle_iv_div, a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Interval(1.0, 2.0), Interval(3.0, 4.0)),
            (Interval(-2.0, -1.0), Interval(3.0, 4.0)),
            (Interval(0.0, 2.0), Interval(-4.0, -3.0)),
            (Interval(-2.0, 1.0), Interval(3.0, 4.0)),
            (Interval(1.0, 2.0), Interval(-3.0, 4.0)),
        ],
    )
    def test_one_directed_product_per_bound_unless_both_straddle(self, monkeypatch, a, b):
        calls = _count_calls(monkeypatch, "mul_down", "mul_up")
        iv_mul(a, b)
        assert sorted(calls) == ["mul_down", "mul_up"]

    def test_two_straddling_factors_compare_two_corners_per_bound(self, monkeypatch):
        calls = _count_calls(monkeypatch, "mul_down", "mul_up")
        assert iv_mul(Interval(-2.0, 3.0), Interval(-1.0, 4.0)) == Interval(-8.0, 12.0)
        assert sorted(calls) == ["mul_down", "mul_down", "mul_up", "mul_up"]

    @pytest.mark.parametrize("a", [Interval(1.0, 2.0), Interval(-2.0, -1.0), Interval(-1.0, 2.0)])
    @pytest.mark.parametrize("b", [Interval(3.0, 4.0), Interval(-4.0, -3.0)])
    def test_one_directed_quotient_per_bound(self, monkeypatch, a, b):
        calls = _count_calls(monkeypatch, "div_down", "div_up")
        iv_div(a, b)
        assert sorted(calls) == ["div_down", "div_up"]

    def test_results_match_the_public_constructor(self):
        got = iv_mul(Interval(-0.0, 1.0), Interval(-1.0, 0.0))
        assert type(got) is Interval and got == Interval(-1.0, 0.0)
        assert math.copysign(1.0, got.hi) == 1.0  # -0.0 normalised
        with pytest.raises(ValueError, match="must be finite"):
            iv_mul(Interval(1e300, 1e300), Interval(1e300, 1e300))


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

