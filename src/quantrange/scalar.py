"""Scalar quantified range bounds: guaranteed inner and outer intervals.

Given a scalar expression f over boxed variables under a normalized
(forall, exists) block prefix, this module computes

  * an inner interval guaranteed to be a subset of the quantified range, and
  * an outer interval guaranteed to be a superset of it.

Method.  Around the linearization center c, each variable j gets two signed
"contribution" intervals derived from a partial-derivative enclosure G_j
over the full box (deviation d_j in [-(c_j - lo_j), hi_j - c_j]):

  outer row  O_j = G_j * [-(c_j - lo_j), hi_j - c_j]   (everything f could add),
  inner row  I_j = the swing f is guaranteed to achieve by moving x_j alone:
                   mig(G_j) * deviations, signed by the gradient, and [0, 0]
                   when the gradient enclosure straddles zero.

Both rows always contain 0.  The bounds are assembled per (forall, exists)
pair: the inner bound charges every universal block its full outer row and
credits existential blocks only their inner rows; the outer bound does the
reverse.  Each bound is valid under an alternation condition comparing row
widths across later pairs; a failed inner condition yields the empty inner
set (always sound) and a failed outer condition falls back to the plain
mean-value range enclosure f(c) + sum of all outer rows.

Affine expressions take an exact path instead: after rescaling each domain
to [-1, 1], per-block coefficient norms decide emptiness and give the
quantified range exactly, with the same alternation condition.  For affine
f the inner and outer results coincide, and neither the center value nor
the gradient is computed.  The constant and the coefficients come from a
dyadic integer fold (every float literal is m * 2**e for integers m and
e), with a Fraction fallback for non-power-of-two divisors.

Both routes are one integer assembly (RowModel): every endpoint is an
exact multiple of a common unit, so the sums and the validity conditions
are decided exactly, and final endpoints are rounded inward (inner) or
outward (outer) by intervals.round_ratio.  The model also gives the inner
box of any kept set: the prefix rewrite of a vector solve.

`prepare` folds an expression's affine form, or else evaluates its center
value and rows, once, and returns its RowModel under the problem's prefix;
the model's `result` reports the bounds of any kept set.  `solve_scalar`
is `prepare`, then `result` with every existential kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exprs import (
    ADD,
    CONST,
    COS,
    DIV,
    MSIN,
    MUL,
    NEG,
    POW,
    SIN,
    SUB,
    VAR,
    Tape,
    eval_grad,
    eval_interval,
)
from .intervals import (
    EMPTY,
    Interval,
    MaybeInterval,
    add_down,
    add_up,
    is_empty,
    iv_mul,
    mul_down,
    round_ratio,
)
from .problem import Block, QuantifiedProblem

__all__ = [
    "ContributionRow",
    "ScalarResult",
    "RowModel",
    "contribution_rows",
    "assemble_bounds",
    "affine_coefficients",
    "exact_affine_range",
    "prepare",
    "solve_scalar",
]


# ---------------------------------------------------------------------------
# Contribution rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ContributionRow:
    """Per-variable signed contribution bounds; both intervals contain 0."""

    inner: Interval
    outer: Interval

    def __post_init__(self) -> None:
        if not (self.inner.lo <= 0.0 <= self.inner.hi):
            raise ValueError(f"inner contribution must contain 0, got {self.inner!r}")
        if not (self.outer.lo <= 0.0 <= self.outer.hi):
            raise ValueError(f"outer contribution must contain 0, got {self.outer!r}")
        if not (self.outer.lo <= self.inner.lo and self.inner.hi <= self.outer.hi):
            raise ValueError(
                f"inner contribution {self.inner!r} must lie inside "
                f"outer contribution {self.outer!r}"
            )


_ZERO_IV = Interval(0.0, 0.0)


def contribution_rows(expr: Tape, problem: QuantifiedProblem) -> dict[str, ContributionRow]:
    """Compute contribution rows for every declared variable of the problem.

    The gradient enclosure is taken over the full box; deviation radii are
    measured from each variable's center, rounded outward for outer rows and
    inward (clamped at zero) for inner rows.
    """
    env = problem.domains()
    grad = eval_grad(expr, env)
    rows: dict[str, ContributionRow] = {}
    for spec in problem.variables:
        g = grad.partials[spec.name]
        c, lo, hi = spec.center, spec.domain.lo, spec.domain.hi
        r_minus_out = add_up(c, -lo)
        r_plus_out = add_up(hi, -c)
        r_minus_in = max(0.0, add_down(c, -lo))
        r_plus_in = max(0.0, add_down(hi, -c))
        outer = iv_mul(g, Interval(-r_minus_out, r_plus_out))
        if g.lo >= 0.0:
            slope = g.lo
            neg = max(0.0, mul_down(slope, r_minus_in))
            pos = max(0.0, mul_down(slope, r_plus_in))
            inner = Interval(-neg, pos)
        elif g.hi <= 0.0:
            slope = -g.hi
            neg = max(0.0, mul_down(slope, r_plus_in))
            pos = max(0.0, mul_down(slope, r_minus_in))
            inner = Interval(-neg, pos)
        else:
            inner = _ZERO_IV
        rows[spec.name] = ContributionRow(inner, outer)
    return rows


# ---------------------------------------------------------------------------
# Bound assembly in scaled integers
# ---------------------------------------------------------------------------

# Every finite double is an integer multiple of 2**-1074.
_FLOAT_DENOM = 1 << 1074

# (inner lo, inner hi, outer lo, outer hi) of one row, in units of 1/denom
_ScaledRow = tuple[int, int, int, int]
_ZERO_SCALED: _ScaledRow = (0, 0, 0, 0)


def _scaled_float(x: float) -> int:
    """x in units of 2**-1074."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _first_negative_suffix(slack: Sequence[int]) -> int | None:
    """0-based index of the first pair whose alternation condition fails:
    the suffix sum of slack (existential minus universal width) from that
    pair onward is < 0."""
    failed, suffix = None, 0
    for l in range(len(slack) - 1, -1, -1):
        suffix += slack[l]
        if suffix < 0:
            failed = l
    return failed


@dataclass(slots=True)
class ScalarResult:
    """Inner/outer quantified range bounds for one scalar expression."""

    inner: MaybeInterval
    outer: MaybeInterval
    method: str  # "exact-affine" or "mean-value"
    inner_failed_pair: int | None = None
    outer_failed_pair: int | None = None


class RowModel:
    """The assembled bounds of one output, for every kept set, from integer
    additions.

    A kept set (bit i of a mask for the i-th existential of the prefix)
    names the existentials that stay existential; the others are demoted
    to the universal block of their pair, as in a vector solve's rewritten
    prefix.  Every quantity is an integer count of 1/denom: 2**-1074 for
    contribution rows, 2**-1075 over the lcm of the constant's and the
    coefficients' denominators for an affine output.

    Inner box.  The model starts from the prefix where every existential
    is demoted: lo = fc.hi + the sum of every outer hi, hi = fc.lo + the
    sum of every outer lo, and slack[l] = -(universal width of pair l),
    where a universal row's width is outer hi - lo.  Keeping existential v
    moves its row to the existential side of its pair: lo gains il - oh, hi
    gains ih - ol, and slack[l] gains the outer width and the inner width
    of the row.  The inner set is nonempty when every suffix sum of slack
    is >= 0 and the inward-rounded endpoints do not cross.  Rounding inward
    gives +inf only to lo and -inf only to hi, so endpoints that do not
    cross are finite: an inner box never fails.

    Those suffix conditions, over the original pairs, hold exactly when the
    conditions over the rewritten prefix's normalized pairs do: a dropped
    empty block adds 0 to every sum, and a pair that keeps none of its
    existentials merges into the next one, whose suffix sum is at least the
    merged pair's, as every width is >= 0.  So the first failing original
    pair starts a merged pair, and its index on the rewritten prefix is its
    own minus the number of earlier pairs merged away.

    Outer bound, with every existential kept: universal rows are credited
    their inner rows and existential rows charged their outer rows, under
    the same conditions with the roles of the widths swapped.  When one
    fails, the bound falls back to the mean-value enclosure fc + the sum of
    every outer row.  As every variable sits in exactly one block, that is
    the all-demoted inner box with its endpoints swapped: [hi, lo].  An
    exact model reports the empty set instead, and no failing pair.

    An affine output fits the same model exactly, with fc = [const, const]
    and, for each variable, il = ol = -r and ih = oh = r, where const is the
    value at the domain midpoints and r = |c| * (hi - lo) / 2: the sums are
    then the exact range const -+ the alternating norm sums, and the
    conditions are the norm conditions, doubled.
    """

    __slots__ = (
        "exact", "denom", "lo", "hi", "slack", "deltas", "pair_masks",
        "outer_sums", "outer_slack", "inner_widths", "universal_width",
    )

    def __init__(
        self,
        denom: int,
        scaled_fc: tuple[int, int],
        scaled: Mapping[str, _ScaledRow],
        pairs: Sequence[tuple[Block, Block]],
        exact: bool,
    ) -> None:
        self.exact = exact
        fl, fh = scaled_fc
        self.denom = denom
        self.lo, self.hi = fh, fl
        out_lo, out_hi = fl, fh
        self.slack: list[int] = []
        self.outer_slack: list[int] = []
        self.deltas: list[tuple[int, int, int, int]] = []  # (pair, d lo, d hi, d slack)
        self.pair_masks: list[int] = []  # the kept-set bits of each pair's existentials
        self.inner_widths: list[int] = []  # for greedy: each existential's ih - il
        self.universal_width = 0  # for greedy: the universals' total oh - ol
        for pair, (fa, ex) in enumerate(pairs):
            slack = out_slack = mask = 0
            for v in fa.names:
                il, ih, ol, oh = scaled.get(v, _ZERO_SCALED)
                self.lo, self.hi, slack = self.lo + oh, self.hi + ol, slack - (oh - ol)
                out_lo, out_hi, out_slack = out_lo + ih, out_hi + il, out_slack - (ih - il)
                self.universal_width += oh - ol
            for v in ex.names:
                il, ih, ol, oh = scaled.get(v, _ZERO_SCALED)
                self.lo, self.hi, slack = self.lo + oh, self.hi + ol, slack - (oh - ol)
                out_lo, out_hi, out_slack = out_lo + ol, out_hi + oh, out_slack + (oh - ol)
                mask |= 1 << len(self.deltas)
                self.deltas.append((pair, il - oh, ih - ol, (oh - ol) + (ih - il)))
                self.inner_widths.append(ih - il)
            self.slack.append(slack)
            self.outer_slack.append(out_slack)
            self.pair_masks.append(mask)
        self.outer_sums = out_lo, out_hi

    @property
    def keep_all(self) -> int:
        """The kept set of every existential: the original prefix."""
        return (1 << len(self.deltas)) - 1

    def inner(self, kept: int) -> tuple[MaybeInterval, int | None]:
        """The inner box of the kept set's rewritten prefix and the first
        pair of that prefix, 1-based, whose condition fails."""
        lo, hi, slack = self.lo, self.hi, self.slack[:]
        bits = kept
        while bits:
            low = bits & -bits
            pair, d_lo, d_hi, d_slack = self.deltas[low.bit_length() - 1]
            lo += d_lo
            hi += d_hi
            slack[pair] += d_slack
            bits ^= low
        failed = _first_negative_suffix(slack)
        if failed is not None:
            merged = sum(1 for mask in self.pair_masks[:failed] if mask and not kept & mask)
            return EMPTY, failed + 1 - merged
        lo_f = round_ratio(lo, self.denom, True)
        hi_f = round_ratio(hi, self.denom, False)
        return (Interval(lo_f, hi_f) if lo_f <= hi_f else EMPTY), None

    def score(self, kept: int) -> tuple[int, int]:
        """(1, inner width in units of 2**-1074) when the inner set of this
        kept set is nonempty, else (0, 0)."""
        box, _ = self.inner(kept)
        if is_empty(box):
            return 0, 0
        return 1, _scaled_float(box.hi) - _scaled_float(box.lo)

    def outer(self) -> tuple[MaybeInterval, int | None]:
        """The outward-rounded outer bound and the first failing pair,
        1-based; raises ValueError when the bound leaves the float range."""
        failed = _first_negative_suffix(self.outer_slack)
        if failed is None:
            lo, hi = self.outer_sums
        elif self.exact:
            return EMPTY, failed + 1
        else:
            lo, hi = self.hi, self.lo
        outer = Interval(round_ratio(lo, self.denom, False), round_ratio(hi, self.denom, True))
        return outer, None if failed is None else failed + 1

    def result(self, kept: int) -> ScalarResult:
        """The outer bound of the model's prefix and the inner box of the
        kept set.  An exact model reports no failing pair."""
        inner, inner_failed = self.inner(kept)
        outer, outer_failed = self.outer()
        if self.exact:
            return ScalarResult(inner, outer, "exact-affine")
        return ScalarResult(inner, outer, "mean-value", inner_failed, outer_failed)


def _mean_value_model(
    fc: Interval,
    rows: Mapping[str, ContributionRow],
    pairs: Sequence[tuple[Block, Block]],
) -> RowModel:
    scaled = {
        name: tuple(map(_scaled_float, (r.inner.lo, r.inner.hi, r.outer.lo, r.outer.hi)))
        for name, r in rows.items()
    }
    fc_scaled = _scaled_float(fc.lo), _scaled_float(fc.hi)
    return RowModel(_FLOAT_DENOM, fc_scaled, scaled, pairs, False)


def assemble_bounds(
    fc: Interval,
    rows: Mapping[str, ContributionRow],
    pairs: Sequence[tuple[Block, Block]],
) -> ScalarResult:
    """Pairwise inner/outer assembly from contribution rows (exact)."""
    model = _mean_value_model(fc, rows, pairs)
    return model.result(model.keep_all)


# ---------------------------------------------------------------------------
# Affine expressions: exact quantified range
# ---------------------------------------------------------------------------


# An affine form over one denominator q: (n0, {var: n}, q) stands for
# n0/q + sum of n/q * var, with q the lcm of the terms' denominators.
_Affine = tuple[int, dict[str, int], int]

# A folded value m * 2**e, m odd or 0 (and then e = 0): every float literal
# is one, and so is every sum, product and quotient by +-2**k of them.
_Dyadic = tuple[int, int]
_DyadicPair = tuple[_Dyadic, dict[str, _Dyadic]]
_ZERO: _Dyadic = (0, 0)
_ONE: _Dyadic = (1, 0)

_FractionPair = tuple[Fraction, dict[str, Fraction]]

# A folded constant or coefficient beyond this many bits (numerator or
# denominator, in lowest terms) is left to interval evaluation, so neither
# nested powers such as (c^1024)^1024 nor long products or sums of large
# constants can grow a rational without bound.
_MAX_FOLD_BITS = 1 << 16

_TRIG_OPS = frozenset((SIN, COS, MSIN))


class _NotDyadic(Exception):
    """A quotient by a constant other than +-2**k: its value is not dyadic."""


def affine_coefficients(tape: Tape) -> _Affine | None:
    """Exact (n0, {var: n}, q) when the expression is affine, else None:
    the constant n0/q and the coefficients n/q, as integer numerators over
    their least common denominator q.

    Constant subtrees are folded exactly by a dyadic integer fold, with a
    Fraction fallback for non-power-of-two divisors: each value is m * 2**e,
    a sum shifts to the smaller exponent, a product adds exponents, and a
    quotient by +-2**k subtracts k; the first quotient by any other
    constant refolds the tape in Fractions.  A folded constant or
    coefficient beyond _MAX_FOLD_BITS makes the expression non-affine,
    which leaves it to the mean-value route.  Any trigonometric node
    disqualifies the expression, as its value has no exact rational form.
    Non-affinity reaches the root through every node except a power with
    exponent 0, so a tape with a trigonometric node and no such power is
    rejected without folding anything.
    """
    code = tape.code
    ops = {ins[0] for ins in code}
    if not ops.isdisjoint(_TRIG_OPS) and not any(op == POW and b == 0 for op, _, b in code):
        return None
    readers = tape.readers
    done: list[_DyadicPair | None] = []
    try:
        for op, a, b in code:
            done.append(_affine_step(op, a, b, done, readers))
    except _NotDyadic:
        return _fraction_fold(tape)
    if done[-1] is None:
        return None
    (m, e), lin = done[-1]
    k = max(0, -e, *(-f for _, f in lin.values()))  # q = 2**k; a zero has e = 0
    return m << (e + k), {name: n << (f + k) for name, (n, f) in lin.items()}, 1 << k


def _dyadic(x: float) -> _Dyadic:
    """x as m * 2**e (both zeros as 0)."""
    n, d = x.as_integer_ratio()
    if not n:
        return _ZERO
    zeros = (n & -n).bit_length() - 1
    return n >> zeros, zeros + 1 - d.bit_length()


def _add(x: _Dyadic, y: _Dyadic) -> _Dyadic:
    (m, e), (n, f) = x, y
    if e > f:
        m, e, n, f = n, f, m, e
    s = m + (n << (f - e))
    if not s:
        return _ZERO
    zeros = (s & -s).bit_length() - 1
    return s >> zeros, e + zeros


def _fold_bits(x: _Dyadic) -> int:
    """The bits of x's numerator or denominator in lowest terms, whichever
    has more: m * 2**e over 1 when e >= 0, else m over 2**-e."""
    m, e = x
    if e >= 0:
        return max(m.bit_length() + e, 1)
    return max(m.bit_length(), 1 - e)


def _affine_step(
    op: int, a, b, done: list[_DyadicPair | None], readers: tuple[int, ...]
) -> _DyadicPair | None:
    """Fold one instruction.  A child's coefficient dict is updated in place
    (and so shared with this slot) only when this is its sole reader."""
    if op == CONST:
        return _dyadic(a), {}
    if op == VAR:
        return _ZERO, {a: _ONE}
    if op == POW and b == 0:
        return _ONE, {}
    left = done[a]
    if op in _TRIG_OPS or left is None:
        return None
    if op == NEG:
        (m, e), lin = left
        return (-m, e), {name: (-n, f) for name, (n, f) in lin.items()}
    if op == POW:
        c, lin = left
        if b == 1:
            return c, lin if readers[a] == 1 else dict(lin)
        if lin or _fold_bits(c) * b > _MAX_FOLD_BITS:
            return None
        m, e = c
        return (m**b, e * b), {}
    right = done[b]
    if right is None:
        return None
    if op == ADD or op == SUB:
        sign = 1 if op == ADD else -1
        (n, f), right_lin = right
        c = _add(left[0], (sign * n, f))
        lin = left[1] if readers[a] == 1 else dict(left[1])
        for name, (n, f) in right_lin.items():
            old = lin.get(name)
            if old is None:  # bounded already, as right's coefficient
                lin[name] = sign * n, f
                continue
            lin[name] = total = _add(old, (sign * n, f))
            if _fold_bits(total) > _MAX_FOLD_BITS:
                return None
        return None if _fold_bits(c) > _MAX_FOLD_BITS else (c, lin)
    if op == MUL:
        if not left[1]:
            scale, other = left[0], right
        elif not right[1]:
            scale, other = right[0], left
        else:
            return None  # bilinear
        return _scaled(other, scale)
    # DIV
    (n, f), right_lin = right
    if right_lin or not n:
        return None
    if n != 1 and n != -1:
        raise _NotDyadic
    return _scaled(left, (n, -f))


def _scaled(pair: _DyadicPair, factor: _Dyadic) -> _DyadicPair | None:
    """factor * pair, or None when a product exceeds the fold bound."""
    n, f = factor
    (m, e), lin = pair
    if not n:
        return _ZERO, dict.fromkeys(lin, _ZERO)
    c = (m * n, e + f) if m else _ZERO
    lin = {name: (m * n, e + f) if m else _ZERO for name, (m, e) in lin.items()}
    if max(map(_fold_bits, (c, *lin.values()))) > _MAX_FOLD_BITS:
        return None
    return c, lin


# ---------------------------------------------------------------------------
# The Fraction fold: the fallback for a quotient by a non-power of two
# ---------------------------------------------------------------------------


def _too_big(x: Fraction) -> bool:
    return x.numerator.bit_length() > _MAX_FOLD_BITS or x.denominator.bit_length() > _MAX_FOLD_BITS


def _fraction_fold(tape: Tape) -> _Affine | None:
    """affine_coefficients in Fractions, for a tape whose values need not
    be dyadic; the same steps and the same fold bound."""
    readers = tape.readers
    done: list[_FractionPair | None] = []
    for op, a, b in tape.code:
        done.append(_fraction_step(op, a, b, done, readers))
    return None if done[-1] is None else _over_lcm(*done[-1])


def _fraction_step(
    op: int, a, b, done: list[_FractionPair | None], readers: tuple[int, ...]
) -> _FractionPair | None:
    if op == CONST:
        return Fraction(a), {}
    if op == VAR:
        return Fraction(0), {a: Fraction(1)}
    if op == POW and b == 0:
        return Fraction(1), {}
    left = done[a]
    if op in _TRIG_OPS or left is None:
        return None
    if op == NEG:
        c, lin = left
        return -c, {name: -coeff for name, coeff in lin.items()}
    if op == POW:
        c, lin = left
        if b == 1:
            return c, lin if readers[a] == 1 else dict(lin)
        if lin:
            return None
        if max(c.numerator.bit_length(), c.denominator.bit_length()) * b > _MAX_FOLD_BITS:
            return None
        return c**b, {}
    right = done[b]
    if right is None:
        return None
    if op == ADD or op == SUB:
        sign = 1 if op == ADD else -1
        c = left[0] + sign * right[0]
        lin = left[1] if readers[a] == 1 else dict(left[1])
        for name, coeff in right[1].items():
            lin[name] = total = lin.get(name, Fraction(0)) + sign * coeff
            if _too_big(total):
                return None
        return None if _too_big(c) else (c, lin)
    if op == MUL:
        if not left[1]:
            scale, other = left[0], right
        elif not right[1]:
            scale, other = right[0], left
        else:
            return None  # bilinear
        return _fraction_scaled(other, scale)
    # DIV
    if right[1] or right[0] == 0:
        return None
    return _fraction_scaled(left, 1 / right[0])


def _fraction_scaled(pair: _FractionPair, factor: Fraction) -> _FractionPair | None:
    c = pair[0] * factor
    lin = {name: coeff * factor for name, coeff in pair[1].items()}
    if _too_big(c) or any(_too_big(coeff) for coeff in lin.values()):
        return None
    return c, lin


def _over_lcm(const: Fraction, coeffs: Mapping[str, Fraction]) -> _Affine:
    """(const, coeffs) as numerators over the lcm q of their denominators."""
    q = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
    return (
        const.numerator * (q // const.denominator),
        {name: c.numerator * (q // c.denominator) for name, c in coeffs.items()},
        q,
    )


def _affine_model(affine: _Affine, problem: QuantifiedProblem) -> RowModel:
    """The exact row model of affine = (n0, {v: n}, q): each domain is
    rescaled to [-1, 1] around its midpoint, and variable v gets the row
    [-r, r] for both inner and outer, r = |n / q| * (hi - lo) / 2.

    The unit is 1 / (q * 2**1075): an endpoint is an integer count of
    2**-1074 (_scaled_float), so each term n / q * (hi + lo) / 2 and each
    radius is an integer count of the unit.  q is a power of two from the
    dyadic integer fold and the lcm of the denominators from its Fraction
    fallback for non-power-of-two divisors; either way it is the least
    common denominator, so both folds give the same model."""
    point, coeffs, q = affine
    point <<= 1075
    scaled: dict[str, _ScaledRow] = {}
    for spec in problem.variables:
        n = coeffs.get(spec.name)
        if n:
            lo, hi = _scaled_float(spec.domain.lo), _scaled_float(spec.domain.hi)
            point += n * (hi + lo)
            r = abs(n) * (hi - lo)
            scaled[spec.name] = (-r, r, -r, r)
    return RowModel(q << 1075, (point, point), scaled, problem.normalized_pairs(), True)


def exact_affine_range(
    delta0: Fraction,
    coeffs: Mapping[str, Fraction],
    problem: QuantifiedProblem,
) -> tuple[Fraction, Fraction] | None:
    """Exact quantified range of an affine function; None when the set is empty.

    Each domain is rescaled to [-1, 1]; per normalized block i the norm
    |Delta_i| sums |coefficient| * radius over the block's variables.  The
    range is centered at the value at the domain midpoints, with endpoints
    offset by the signed alternating norm sums, valid precisely when every
    universal norm is covered by the existential norms that follow it.
    """
    model = _affine_model(_over_lcm(delta0, coeffs), problem)
    if _first_negative_suffix(model.outer_slack) is not None:
        return None
    lo, hi = model.outer_sums
    return Fraction(lo, model.denom), Fraction(hi, model.denom)


# ---------------------------------------------------------------------------
# Scalar solve: prepare once, report any kept set
# ---------------------------------------------------------------------------


def prepare(
    problem: QuantifiedProblem,
    tape: Tape,
    supplied_rows: Mapping[str, ContributionRow] | None = None,
) -> RowModel:
    """The tape's row model under the problem's prefix.

    An affine tape gets the exact model of its folded coefficients.  Its
    interval value over the box is evaluated and discarded, so that a tape
    whose evaluation fails there (a divisor interval containing zero under
    a zero power, an intermediate overflow) still fails.  Any other tape is
    evaluated at the center and gets its contribution rows, which supplied
    rows replace; supplied rows also force row assembly."""
    if supplied_rows is None:
        affine = affine_coefficients(tape)
        if affine is not None:
            eval_interval(tape, problem.domains())
            return _affine_model(affine, problem)
    fc = eval_interval(tape, problem.center_env())
    rows = contribution_rows(tape, problem) if supplied_rows is None else supplied_rows
    return _mean_value_model(fc, rows, problem.normalized_pairs())


def solve_scalar(
    problem: QuantifiedProblem,
    expr: Tape,
    supplied_rows: Mapping[str, ContributionRow] | None = None,
) -> ScalarResult:
    """Bound the quantified range of expr under the problem's prefix."""
    model = prepare(problem, expr, supplied_rows)
    return model.result(model.keep_all)
