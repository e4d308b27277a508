"""Closed-interval arithmetic with a floating-point soundness contract.

Every operation on intervals [lo, hi] (finite bounds, lo <= hi) satisfies
containment: for any points x in a and y in b, the pointwise result x op y
lies inside the computed interval.  Bounds are rounded outward — the lower
bound toward -inf, the upper toward +inf — using exact error terms
(two_sum / two_product) so the nudge is applied only when the float result
is actually inexact.  Results are therefore tight to 1 ULP for +,-,*,/ and
to ~2 ULP for sin/cos.

The error terms are exact over the whole finite range: when an operand or
the product exceeds 2**995, two_product scales the larger operand by a
power of two before Dekker's split, which would otherwise overflow and
leave huge products and quotients rounded to nearest; and a quotient near
the underflow range is rounded from the exact ratio of its operands instead
of placed against an error term that may underflow.  Directed products and
quotients are therefore monotone in the exact value, which is what lets
iv_mul and iv_div take each bound from the single corner that the
operands' signs select (the sign table of Moore, Kearfott & Cloud,
*Introduction to Interval Analysis*, SIAM 2009, §2.2): the result equals
the min/max over all four corners, bit for bit.  Only a product of two
zero-straddling factors compares two candidate corners per bound.

Results of the iv_* operations are built by a private constructor that
makes the same checks as Interval (finite bounds, lo <= hi, -0.0
normalised) and defers to Interval to raise the same error, but skips
the dataclass initialiser when they pass.

An empty result (from emptiness conditions downstream) is the distinct
singleton EMPTY, never a crossed interval.

round_ratio is the one step from an exact ratio of integers to a float,
rounded toward +inf or -inf: the tiny-quotient case above and the row
models' sums (scalar) use it.  CPython's int / int is correctly rounded,
so one integer comparison of cross products settles the direction
(Muller et al., *Handbook of Floating-Point Arithmetic*, 2nd ed., 2018,
ch. 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Interval",
    "EmptyInterval",
    "EMPTY",
    "MaybeInterval",
    "DivisionByZeroInterval",
    "iv_add",
    "iv_sub",
    "iv_mul",
    "iv_div",
    "iv_neg",
    "iv_pow",
    "iv_sin",
    "iv_cos",
    "iv_hull",
    "is_empty",
    "round_ratio",
]

_INF = math.inf
_MAX = sys.float_info.max


class DivisionByZeroInterval(ZeroDivisionError):
    """Raised when dividing by an interval that contains zero."""


# ---------------------------------------------------------------------------
# Directed rounding primitives
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def _next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Return (s, e) with s = fl(a + b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _dekker_split(a: float) -> tuple[float, float]:
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _product_error(a: float, b: float, p: float) -> float:
    ah, al = _dekker_split(a)
    bh, bl = _dekker_split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


# Beyond this magnitude of a factor the split (a * _SPLIT) can overflow, and
# beyond it for the product one of the partial products can.
_SPLIT_LIMIT = 2.0**995
_SCALE_DOWN = 2.0**-64
_SCALE_UP = 2.0**64


def two_product(a: float, b: float) -> tuple[float, float]:
    """Return (p, e) with p = fl(a * b) and a * b = p + e exactly.

    Exact whenever p is finite and not below the subnormal range's reach;
    callers guard the subnormal range.  An overflowed p comes with e = 0.
    """
    p = a * b
    if -_SPLIT_LIMIT <= a <= _SPLIT_LIMIT and -_SPLIT_LIMIT <= b <= _SPLIT_LIMIT and (
        -_SPLIT_LIMIT <= p <= _SPLIT_LIMIT
    ):
        return p, _product_error(a, b, p)
    if math.isinf(p):
        return p, 0.0
    # p is finite, so the smaller factor is below 2**512.  Scaling the larger
    # one by 2**-64 is exact (a nonzero scaled product stays above 2**-143,
    # far from the subnormal range) and keeps every intermediate finite.
    if abs(a) < abs(b):
        a, b = b, a
    return p, _product_error(a * _SCALE_DOWN, b, p * _SCALE_DOWN) * _SCALE_UP


# Below this magnitude the Dekker error term may itself underflow; nudge
# unconditionally (1 ULP here is on the order of 1e-306 — harmless).
_TINY = 1e-290


def round_ratio(n: int, d: int, up: bool) -> float:
    """The smallest float >= n/d (up) or the largest float <= it, for d > 0.

    n / d is correctly rounded, so at most one step away from the exact
    ratio, which one integer comparison detects.  Beyond the float range it
    starts from the largest finite float of the ratio's sign, so rounding
    toward zero stays finite and rounding away from it reaches the infinity.
    """
    try:
        f = n / d
    except OverflowError:
        f = _MAX if n > 0 else -_MAX
    fn, fd = f.as_integer_ratio()
    if up:
        return _next_up(f) if fn * d < n * fd else f
    return _next_down(f) if fn * d > n * fd else f


def add_down(a: float, b: float) -> float:
    s, e = two_sum(a, b)
    return _next_down(s) if e < 0.0 else s


def add_up(a: float, b: float) -> float:
    s, e = two_sum(a, b)
    return _next_up(s) if e > 0.0 else s


def mul_down(a: float, b: float) -> float:
    p, e = two_product(a, b)
    if p == 0.0:
        # a*b may have underflowed to zero entirely (error term included);
        # a nonzero true product still needs a bound on the correct side.
        if a != 0.0 and b != 0.0 and (a > 0.0) != (b > 0.0):
            return _next_down(0.0)
        return 0.0
    if abs(p) < _TINY:
        return _next_down(p)
    return _next_down(p) if e < 0.0 else p


def mul_up(a: float, b: float) -> float:
    p, e = two_product(a, b)
    if p == 0.0:
        if a != 0.0 and b != 0.0 and (a > 0.0) == (b > 0.0):
            return _next_up(0.0)
        return 0.0
    if abs(p) < _TINY:
        return _next_up(p)
    return _next_up(p) if e > 0.0 else p


def _div_directed(x: float, y: float, up: bool) -> float:
    """Quotient rounded toward +inf (up) or -inf (not up): the largest float
    <= x/y or the smallest float >= it, so monotone in the exact quotient."""
    q = x / y
    if abs(x) < _TINY or abs(q) < _TINY:
        # The error term of q*y may underflow here; round the exact ratio instead.
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        if yn < 0:  # round_ratio takes a positive denominator
            xn, yn = -xn, -yn
        return round_ratio(xn * yd, xd * yn, up)
    # q*y = p + e exactly; compare with x to find which side q is on.
    p, e = two_product(q, y)
    if p == x and e == 0.0:
        return q  # exact quotient
    qy_gt_x = p > x or (p == x and e > 0.0)
    q_gt_true = qy_gt_x if y > 0.0 else not qy_gt_x
    if up:
        return q if q_gt_true else _next_up(q)
    return _next_down(q) if q_gt_true else q


def div_down(x: float, y: float) -> float:
    return _div_directed(x, y, up=False)


def div_up(x: float, y: float) -> float:
    return _div_directed(x, y, up=True)


# ---------------------------------------------------------------------------
# Interval and the empty variant
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed real interval [lo, hi] with finite float bounds, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo) + 0.0  # normalize -0.0
        hi = float(self.hi) + 0.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"crossed interval [{lo}, {hi}]; use EMPTY for empty results")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ---- basic queries ----

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        """Rounded midpoint; halving first when lo + hi overflows is exact."""
        mid = (self.lo + self.hi) / 2.0
        return mid if math.isfinite(mid) else self.lo / 2.0 + self.hi / 2.0

    def mig(self) -> float:
        """Minimum absolute value over the interval (0 if it contains 0)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def mag(self) -> float:
        """Maximum absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class EmptyInterval:
    """The empty set, a distinct variant rather than a crossed interval."""

    _instance: EmptyInterval | None = None

    def __new__(cls) -> EmptyInterval:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = EmptyInterval()

MaybeInterval = Union[Interval, EmptyInterval]


def is_empty(x: MaybeInterval) -> bool:
    return isinstance(x, EmptyInterval)


# ---------------------------------------------------------------------------
# Arithmetic operations
# ---------------------------------------------------------------------------


_new_interval = object.__new__
_set_lo = Interval.lo.__set__  # slot descriptors bypass the frozen __setattr__
_set_hi = Interval.hi.__set__


def _interval(lo: float, hi: float) -> Interval:
    """Interval(lo, hi) for float bounds: the same checks, the same error
    (raised by Interval itself), without the dataclass initialiser."""
    lo += 0.0  # normalize -0.0
    hi += 0.0
    if -_MAX <= lo <= hi <= _MAX:
        iv = _new_interval(Interval)
        _set_lo(iv, lo)
        _set_hi(iv, hi)
        return iv
    return Interval(lo, hi)


def iv_add(a: Interval, b: Interval) -> Interval:
    """Sound: x + y in result for all x in a, y in b."""
    return _interval(add_down(a.lo, b.lo), add_up(a.hi, b.hi))


def iv_sub(a: Interval, b: Interval) -> Interval:
    """Sound: x - y in result for all x in a, y in b."""
    return _interval(add_down(a.lo, -b.hi), add_up(a.hi, -b.lo))


def iv_neg(a: Interval) -> Interval:
    return _interval(-a.hi, -a.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    """Sound product: the directed products of the corners the signs select.

    Each bound is the min (or max) of the four corner products; the sign
    classes of a and b (>= 0, <= 0, straddling 0) determine which corner
    that is, except that two straddling factors leave two candidates.
    """
    al, ah, bl, bh = a.lo, a.hi, b.lo, b.hi
    if al >= 0.0:
        if bl >= 0.0:
            return _interval(mul_down(al, bl), mul_up(ah, bh))
        if bh <= 0.0:
            return _interval(mul_down(ah, bl), mul_up(al, bh))
        return _interval(mul_down(ah, bl), mul_up(ah, bh))
    if ah <= 0.0:
        if bl >= 0.0:
            return _interval(mul_down(al, bh), mul_up(ah, bl))
        if bh <= 0.0:
            return _interval(mul_down(ah, bh), mul_up(al, bl))
        return _interval(mul_down(al, bh), mul_up(al, bl))
    if bl >= 0.0:
        return _interval(mul_down(al, bh), mul_up(ah, bh))
    if bh <= 0.0:
        return _interval(mul_down(ah, bl), mul_up(al, bl))
    return _interval(
        min(mul_down(al, bh), mul_down(ah, bl)), max(mul_up(al, bl), mul_up(ah, bh))
    )


def iv_div(a: Interval, b: Interval) -> Interval:
    """Sound quotient; the divisor must not contain zero.

    The divisor has one sign, so each bound is one directed quotient: the
    corner that the signs of a and b select.

    Raises:
        DivisionByZeroInterval: when 0 in b.
    """
    bl, bh = b.lo, b.hi
    if bl <= 0.0 <= bh:
        raise DivisionByZeroInterval(f"division by zero-containing interval {b}")
    al, ah = a.lo, a.hi
    if bl > 0.0:
        if al >= 0.0:
            return _interval(div_down(al, bh), div_up(ah, bl))
        if ah <= 0.0:
            return _interval(div_down(al, bl), div_up(ah, bh))
        return _interval(div_down(al, bl), div_up(ah, bl))
    if al >= 0.0:
        return _interval(div_down(ah, bh), div_up(al, bl))
    if ah <= 0.0:
        return _interval(div_down(ah, bl), div_up(al, bh))
    return _interval(div_down(ah, bh), div_up(al, bh))


def _pow_nonneg_down(x: float, n: int) -> float:
    """x**n rounded down, for x >= 0, n >= 1."""
    r = x
    for _ in range(n - 1):
        r = mul_down(r, x)
    return r


def _pow_nonneg_up(x: float, n: int) -> float:
    r = x
    for _ in range(n - 1):
        r = mul_up(r, x)
    return r


def iv_pow(a: Interval, n: int) -> Interval:
    """Sound x**n for integer n >= 0, with even-power tightening.

    Even n uses [mig(a)**n, mag(a)**n] — tighter than repeated interval
    products when a straddles zero (e.g. [-1,1]**2 = [0,1]).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"exponent must be a non-negative integer, got {n}")
    if n == 0:
        return _interval(1.0, 1.0)
    if n == 1:
        return a
    if n % 2 == 0:
        return _interval(_pow_nonneg_down(a.mig(), n), _pow_nonneg_up(a.mag(), n))
    lo = -_pow_nonneg_up(-a.lo, n) if a.lo < 0.0 else _pow_nonneg_down(a.lo, n)
    hi = _pow_nonneg_up(a.hi, n) if a.hi > 0.0 else -_pow_nonneg_down(-a.hi, n)
    return _interval(lo, hi)


# ---------------------------------------------------------------------------
# Trigonometric operations
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0


def _has_critical_point(lo: float, hi: float, phase: float) -> bool:
    """Conservative test for a point phase + 2*pi*k inside [lo, hi].

    The test widens the window by a rounding slack so a critical point is
    never missed; false positives only widen the enclosure (sound).
    """
    slack = 1e-9 + 4.0 * (math.ulp(abs(lo)) + math.ulp(abs(hi)))
    k_lo = math.floor((lo - phase) / _TWO_PI) - 1
    k_hi = math.ceil((hi - phase) / _TWO_PI) + 1
    for k in range(k_lo, k_hi + 1):
        crit = phase + _TWO_PI * k
        if lo - slack <= crit <= hi + slack:
            return True
    return False


def _nudge2_down(x: float) -> float:
    return _next_down(_next_down(x))


def _nudge2_up(x: float) -> float:
    return _next_up(_next_up(x))


def _iv_trig(a: Interval, fn, max_phase: float, min_phase: float) -> Interval:
    if a.width >= _TWO_PI:
        return _interval(-1.0, 1.0)
    f_lo = fn(a.lo)
    f_hi = fn(a.hi)
    if _has_critical_point(a.lo, a.hi, max_phase):
        hi = 1.0
    else:
        hi = min(1.0, _nudge2_up(max(f_lo, f_hi)))
    if _has_critical_point(a.lo, a.hi, min_phase):
        lo = -1.0
    else:
        lo = max(-1.0, _nudge2_down(min(f_lo, f_hi)))
    return _interval(lo, hi)


def iv_sin(a: Interval) -> Interval:
    """Sound sine: the true range widened by at most ~2 ULP, within [-1, 1].

    Monotonicity across critical points pi/2 + 2*pi*k is handled exactly up
    to a conservative rounding slack; sin([0,0]) is exactly [0,0].
    """
    if a.lo == 0.0 and a.hi == 0.0:
        return _interval(0.0, 0.0)
    return _iv_trig(a, math.sin, _HALF_PI, -_HALF_PI)


def iv_cos(a: Interval) -> Interval:
    """Sound cosine; cos([0,0]) is exactly [1,1]."""
    if a.lo == 0.0 and a.hi == 0.0:
        return _interval(1.0, 1.0)
    return _iv_trig(a, math.cos, 0.0, math.pi)


# ---------------------------------------------------------------------------
# Hull
# ---------------------------------------------------------------------------


def iv_hull(a: MaybeInterval, b: MaybeInterval) -> MaybeInterval:
    """Smallest interval containing both arguments; EMPTY absorbs."""
    if is_empty(a):
        return b
    if is_empty(b):
        return a
    return _interval(min(a.lo, b.lo), max(a.hi, b.hi))
