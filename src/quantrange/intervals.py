"""Closed-interval arithmetic with a floating-point soundness contract.

Every operation on intervals [lo, hi] (finite bounds, lo <= hi) satisfies
containment: for any points x in a and y in b, the pointwise result x op y
lies inside the computed interval.  Bounds are rounded outward — the lower
bound toward -inf, the upper toward +inf — using exact error terms
(two_sum / two_product) so the nudge is applied only when the float result
is actually inexact.  Results are therefore tight to 1 ULP for +,-,*,/ and
to ~2 ULP for sin/cos.

An empty result (from emptiness conditions downstream) is the distinct
singleton EMPTY, never a crossed interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
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
    "frac_to_float_down",
    "frac_to_float_up",
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


def two_product(a: float, b: float) -> tuple[float, float]:
    """Return (p, e) with p = fl(a * b) and a * b = p + e exactly.

    Exact provided neither the product nor the split overflows and the
    product is not subnormal; callers guard the subnormal range.
    """
    p = a * b
    ah, al = _dekker_split(a)
    bh, bl = _dekker_split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


# Below this magnitude the Dekker error term may itself underflow; nudge
# unconditionally (1 ULP here is on the order of 1e-306 — harmless).
_TINY = 1e-290


def _float(x: Fraction) -> float:
    """float(x), or the largest finite float of x's sign when x is beyond
    the float range (the directed step below then reaches the infinity)."""
    try:
        return float(x)
    except OverflowError:
        return _MAX if x > 0 else -_MAX


def frac_to_float_down(x: Fraction) -> float:
    """Largest float <= x (float() is correctly rounded, so one step suffices)."""
    f = _float(x)
    if Fraction(f) > x:
        f = _next_down(f)
    return f


def frac_to_float_up(x: Fraction) -> float:
    """Smallest float >= x."""
    f = _float(x)
    if Fraction(f) < x:
        f = _next_up(f)
    return f


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
    """Quotient rounded toward +inf (up) or -inf (not up)."""
    q = x / y
    p, e = two_product(q, y)
    if p == x and e == 0.0 and abs(x) < 1e290:
        return q  # exact quotient
    # q*y = p + e exactly; compare with x to find which side q is on.
    if p > x or (p == x and e > 0.0):
        qy_gt_x = True
    elif p < x or (p == x and e < 0.0):
        qy_gt_x = False
    else:  # pragma: no cover - covered by the exactness branch
        return q
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

    # ---- constructors ----

    @classmethod
    def point(cls, v: float) -> Interval:
        return cls(v, v)

    @classmethod
    def symmetric(cls, r: float) -> Interval:
        """[-r, r] for r >= 0."""
        return cls(-r, r)

    # ---- basic queries ----

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2.0

    def mig(self) -> float:
        """Minimum absolute value over the interval (0 if it contains 0)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def mag(self) -> float:
        """Maximum absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: Interval) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    # ---- arithmetic (containment-sound, outward-rounded) ----

    def __add__(self, other: Interval) -> Interval:
        return iv_add(self, other)

    def __sub__(self, other: Interval) -> Interval:
        return iv_sub(self, other)

    def __mul__(self, other: Interval) -> Interval:
        return iv_mul(self, other)

    def __truediv__(self, other: Interval) -> Interval:
        return iv_div(self, other)

    def __neg__(self) -> Interval:
        return iv_neg(self)


class EmptyInterval:
    """The empty set, a distinct variant rather than a crossed interval."""

    _instance: EmptyInterval | None = None

    def __new__(cls) -> EmptyInterval:
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"

    def __contains__(self, x: float) -> bool:
        return False


EMPTY = EmptyInterval()

MaybeInterval = Union[Interval, EmptyInterval]


def is_empty(x: MaybeInterval) -> bool:
    return isinstance(x, EmptyInterval)


# ---------------------------------------------------------------------------
# Arithmetic operations
# ---------------------------------------------------------------------------


def iv_add(a: Interval, b: Interval) -> Interval:
    """Sound: x + y in result for all x in a, y in b."""
    return Interval(add_down(a.lo, b.lo), add_up(a.hi, b.hi))


def iv_sub(a: Interval, b: Interval) -> Interval:
    """Sound: x - y in result for all x in a, y in b."""
    return Interval(add_down(a.lo, -b.hi), add_up(a.hi, -b.lo))


def iv_neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    """Sound product: min/max over the four directed corner products."""
    lo = min(
        mul_down(a.lo, b.lo),
        mul_down(a.lo, b.hi),
        mul_down(a.hi, b.lo),
        mul_down(a.hi, b.hi),
    )
    hi = max(
        mul_up(a.lo, b.lo),
        mul_up(a.lo, b.hi),
        mul_up(a.hi, b.lo),
        mul_up(a.hi, b.hi),
    )
    return Interval(lo, hi)


def iv_div(a: Interval, b: Interval) -> Interval:
    """Sound quotient; the divisor must not contain zero.

    Raises:
        DivisionByZeroInterval: when 0 in b.
    """
    if b.lo <= 0.0 <= b.hi:
        raise DivisionByZeroInterval(f"division by zero-containing interval {b}")
    lo = min(
        div_down(a.lo, b.lo),
        div_down(a.lo, b.hi),
        div_down(a.hi, b.lo),
        div_down(a.hi, b.hi),
    )
    hi = max(
        div_up(a.lo, b.lo),
        div_up(a.lo, b.hi),
        div_up(a.hi, b.lo),
        div_up(a.hi, b.hi),
    )
    return Interval(lo, hi)


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
        return Interval(1.0, 1.0)
    if n == 1:
        return a
    if n % 2 == 0:
        return Interval(_pow_nonneg_down(a.mig(), n), _pow_nonneg_up(a.mag(), n))
    lo = -_pow_nonneg_up(-a.lo, n) if a.lo < 0.0 else _pow_nonneg_down(a.lo, n)
    hi = _pow_nonneg_up(a.hi, n) if a.hi > 0.0 else -_pow_nonneg_down(-a.hi, n)
    return Interval(lo, hi)


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
        return Interval(-1.0, 1.0)
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
    return Interval(lo, hi)


def iv_sin(a: Interval) -> Interval:
    """Sound sine: the true range widened by at most ~2 ULP, within [-1, 1].

    Monotonicity across critical points pi/2 + 2*pi*k is handled exactly up
    to a conservative rounding slack; sin([0,0]) is exactly [0,0].
    """
    if a.lo == 0.0 and a.hi == 0.0:
        return Interval(0.0, 0.0)
    return _iv_trig(a, math.sin, _HALF_PI, -_HALF_PI)


def iv_cos(a: Interval) -> Interval:
    """Sound cosine; cos([0,0]) is exactly [1,1]."""
    if a.lo == 0.0 and a.hi == 0.0:
        return Interval(1.0, 1.0)
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
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))
