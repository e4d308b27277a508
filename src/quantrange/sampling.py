"""Sampling-based estimator of quantified ranges.

The estimator walks the normalized prefix with per-variable sample grids:
an existential block contributes the hull over its grid assignments, a
universal block the intersection (empty when the intersection crosses),
and a leaf evaluates the expression in plain float arithmetic.  The walk is
a loop over an explicit stack, so any number of blocks works.  Each output
component is estimated independently, and every leaf is one `eval_point`
sweep of its tape (see exprs), a few microseconds for a small polynomial.

The result is an estimate, not a bound — finite universal grids weaken the
adversary and finite existential grids weaken the witness.  On affine
problems, extrema sit at domain vertices, so the 2-point endpoint grid is
exact there.

Cost is points^(number of variables), where a point domain counts as one
value, not points (see work_digits); callers are expected to budget it.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

from .exprs import Tape, eval_point
from .intervals import EMPTY, Interval, MaybeInterval, is_empty
from .problem import Block, QuantifiedProblem, Quantifier

__all__ = [
    "EmptyEstimate",
    "sampling_estimate",
    "ratio_pair",
    "work_digits",
]


class EmptyEstimate(ValueError):
    """Raised when tightness ratios are requested against an empty estimate."""


def _grid(domain: Interval, points: int) -> list[float]:
    """points evenly spaced values from lo to hi; one value on a point domain."""
    lo, hi = domain.lo, domain.hi
    if lo == hi:
        return [lo]
    step = (hi - lo) / (points - 1)
    if step == math.inf:  # space the exact halves of lo and hi, then double
        half = (hi / 2 - lo / 2) / (points - 1)
        return [lo] + [2 * (lo / 2 + i * half) for i in range(1, points - 1)] + [hi]
    return [lo] + [lo + i * step for i in range(1, points - 1)] + [hi]


def work_digits(problem: QuantifiedProblem, points: int) -> float:
    """log10 of the leaf-evaluation count: points values per variable, except
    that a point domain's grid holds its one value."""
    sampled = sum(1 for v in problem.variables if v.domain.lo != v.domain.hi)
    return sampled * math.log10(points)


class _Level:
    """One nonempty block of the prefix while its grid assignments are
    enumerated, with the range folded from the assignments so far."""

    __slots__ = ("names", "universal", "assignments", "lo", "hi")

    def __init__(self, block: Block, grids: Mapping[str, list[float]]) -> None:
        self.names = block.names
        self.universal = block.quantifier is Quantifier.FORALL
        self.assignments = itertools.product(*(grids[name] for name in block.names))
        # The fold starts from the identity of intersection or hull.
        self.lo, self.hi = (-math.inf, math.inf) if self.universal else (math.inf, -math.inf)


def _estimate_component(
    tape: Tape, blocks: Sequence[Block], grids: Mapping[str, list[float]]
) -> tuple[float, float] | None:
    """Grid estimate of one output under the prefix; None when empty.

    A loop over a stack with one level per nonempty block, so the length of
    the prefix does not bound the Python stack.  A universal level that
    meets an empty child range is empty itself and stops enumerating.  A
    level's range is empty exactly when lo > hi: an existential level that
    folded nothing still holds the hull identity, and a universal level
    folds at least one child, since an empty child pops it at once.
    """
    blocks = [block for block in blocks if block.names]
    env: dict[str, float] = {}
    if not blocks:
        v = eval_point(tape, env)
        return (v, v)
    levels = [_Level(blocks[0], grids)]
    while True:
        top = levels[-1]
        assignment = next(top.assignments, None)
        if assignment is not None:
            env.update(zip(top.names, assignment))
            if len(levels) < len(blocks):
                levels.append(_Level(blocks[len(levels)], grids))
                continue
            v = eval_point(tape, env)
            got: tuple[float, float] | None = (v, v)
        else:
            levels.pop()
            got = None if top.lo > top.hi else (top.lo, top.hi)
            if not levels:
                return got
            top = levels[-1]
        while got is None and top.universal:
            levels.pop()
            if not levels:
                return None
            top = levels[-1]
        if got is None:
            continue
        if top.universal:
            top.lo = max(top.lo, got[0])
            top.hi = min(top.hi, got[1])
        else:
            top.lo = min(top.lo, got[0])
            top.hi = max(top.hi, got[1])


def sampling_estimate(problem: QuantifiedProblem, points: int) -> tuple[MaybeInterval, ...]:
    """Per-output estimates of the quantified range over grids of points
    values per variable (points >= 2); each output's tape is evaluated at
    every leaf."""
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    grids = {v.name: _grid(v.domain, points) for v in problem.variables}
    blocks = problem.normalized()
    out: list[MaybeInterval] = []
    for output in problem.outputs:
        got = _estimate_component(output.expr, blocks, grids)
        out.append(EMPTY if got is None else Interval(got[0], got[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Tightness ratios
# ---------------------------------------------------------------------------


def _width_ratio(width: float, sample_width: float) -> float:
    if sample_width == 0.0:
        return 1.0 if width == 0.0 else math.inf
    return width / sample_width


def ratio_pair(
    inner: MaybeInterval, outer: MaybeInterval, estimate: MaybeInterval
) -> tuple[float, float]:
    """(inner width / sample width, outer width / sample width).

    The inner ratio is 0 for an empty inner bound; an empty estimate (or an
    empty outer, which only arises alongside one) raises EmptyEstimate.
    """
    if is_empty(estimate):
        raise EmptyEstimate("sampling estimate is empty; ratios are undefined")
    if is_empty(outer):
        raise EmptyEstimate("outer bound is empty; ratios are undefined")
    sample_width = estimate.width
    inner_ratio = 0.0 if is_empty(inner) else _width_ratio(inner.width, sample_width)
    outer_ratio = _width_ratio(outer.width, sample_width)
    return inner_ratio, outer_ratio

