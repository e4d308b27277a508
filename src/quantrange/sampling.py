"""Sampling-based estimator of quantified ranges.

The estimator walks the normalized prefix with per-variable sample grids:
an existential block contributes the hull over its grid assignments, a
universal block the intersection (empty when the intersection crosses),
and a grid point evaluates the expression in plain float arithmetic.  The
walk is a loop over an explicit stack with one level per nonempty block, so
any number of blocks works.  Each output component is estimated
independently.

Evaluation is staged.  Each slot of an output's tape belongs to the
deepest block it reads: a slot of constants only is evaluated once per
output, and a slot of block k each time the walk gives block k an
assignment, right after it does.  The slots that read the innermost block's
last variable are evaluated as columns instead, one list per slot over that
variable's grid, and the innermost level enumerates only its block's other
variables.  Each column is folded into the innermost level in grid order,
seeded with the level's running range: min(lo, *column), never
min(column), which keeps a leading NaN.  So every value and every fold step
is that of a sweep of the whole tape at each grid point, and the estimate
is the same bit for bit, signed zeros and NaN included.  A 3-variable
polynomial at 41 points takes 41^2 column sweeps of 41 values.  The column
runs over one variable, not the whole innermost block, so that it never
holds more than one grid: the block of a one-block problem is the whole
grid.

A failing float operation (a division by zero, an overflowing power,
sin(inf)) raises its exception.  When several slots would fail, the one
reported is the first in staged order: the stages in walk order, a stage's
slots in tape order, and each column slot over its whole column before the
next slot.  So the error may name another slot than a sweep of the first
failing grid point would, but the estimate fails exactly when such a sweep
fails somewhere.

The result is an estimate, not a bound — finite universal grids weaken the
adversary and finite existential grids weaken the witness.  On affine
problems, extrema sit at domain vertices, so the 2-point endpoint grid is
exact there.

Cost is counted in grid points, points^(number of variables), where a
point domain counts as one value, not points (see work_digits); callers
are expected to budget it.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Mapping, Sequence

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
    _msin_point,
    eval_point,
)
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

    __slots__ = ("universal", "assignments", "lo", "hi")

    def __init__(
        self, block: Block, names: Sequence[str], grids: Mapping[str, list[float]]
    ) -> None:
        self.universal = block.quantifier is Quantifier.FORALL
        self.assignments = itertools.product(*(grids[name] for name in names))
        # The fold starts from the identity of intersection or hull.
        self.lo, self.hi = (-math.inf, math.inf) if self.universal else (math.inf, -math.inf)


# The point operation of each opcode, as eval_point computes it: pow(x, n)
# is x ** n and operator.neg(x) is -x.  A power's exponent is a constant
# operand.
_POINT_OPS = {
    ADD: operator.add,
    SUB: operator.sub,
    MUL: operator.mul,
    DIV: operator.truediv,
    NEG: operator.neg,
    POW: pow,
    SIN: math.sin,
    COS: math.cos,
    MSIN: _msin_point,
}


class _Stages:
    """One output's tape split into evaluation stages over a prefix of
    nonempty blocks.

    Stage 0 holds the slots of constants only, and stage k + 1 the slots
    whose deepest variable lies in block k, except that the innermost
    block's last variable starts the column stage.  vals holds each slot's
    latest value, a float, or for a column slot a list over the last
    variable's grid; the exponents of powers follow the slots.
    """

    __slots__ = ("vals", "reads", "steps", "column_steps", "root", "root_is_column")

    def __init__(
        self, tape: Tape, blocks: Sequence[Block], grids: Mapping[str, list[float]]
    ) -> None:
        column = len(blocks) + 1
        # (stage, position in that stage's assignment) of each variable
        where = {
            name: (k + 1, i) for k, block in enumerate(blocks) for i, name in enumerate(block.names)
        }
        last = blocks[-1].names[-1]
        where[last] = (column, 0)
        vals: list[Any] = [None] * len(tape.code)
        stage_of: list[int] = []
        self.reads: list[list[tuple[int, int]]] = [[] for _ in range(column)]
        self.steps: list[list[tuple[Any, ...]]] = [[] for _ in range(column)]
        self.column_steps: list[tuple[Any, ...]] = []
        for slot, (op, a, b) in enumerate(tape.code):
            if op == CONST:
                stage = 0
                vals[slot] = a
            elif op == VAR:
                stage, i = where[a]
                if stage == column:
                    vals[slot] = list(grids[a])
                else:
                    self.reads[stage].append((slot, i))
            else:
                if op == POW:  # the exponent is a constant operand
                    vals.append(b)
                    b, b_stage = len(vals) - 1, 0
                else:
                    b_stage = 0 if b is None else stage_of[b]
                stage = max(stage_of[a], b_stage)
                fn = _POINT_OPS[op]
                if stage < column:
                    self.steps[stage].append((slot, fn, a, b))
                else:  # with which operands are columns; the others are floats
                    self.column_steps.append(
                        (slot, fn, a, b, stage_of[a] == column, b_stage == column)
                    )
            stage_of.append(stage)
        self.vals = vals
        self.root = len(tape.code) - 1
        self.root_is_column = stage_of[-1] == column
        self.run(0, ())

    def run(self, stage: int, assignment: tuple[float, ...]) -> None:
        """Evaluate stage's slots after its block takes assignment."""
        vals = self.vals
        for slot, i in self.reads[stage]:
            vals[slot] = assignment[i]
        for slot, fn, a, b in self.steps[stage]:
            vals[slot] = fn(vals[a]) if b is None else fn(vals[a], vals[b])

    def column(self) -> list[float]:
        """Evaluate the column stage; the root's values over the last
        variable's grid, in grid order (one value when the root does not
        read that variable)."""
        vals, repeat = self.vals, itertools.repeat
        for slot, fn, a, b, a_col, b_col in self.column_steps:
            x = vals[a] if a_col else repeat(vals[a])
            if b is None:
                vals[slot] = list(map(fn, x))
            else:
                vals[slot] = list(map(fn, x, vals[b] if b_col else repeat(vals[b])))
        root = vals[self.root]
        return root if self.root_is_column else [root]


def _estimate_component(
    tape: Tape, blocks: Sequence[Block], grids: Mapping[str, list[float]]
) -> tuple[float, float] | None:
    """Grid estimate of one output under the prefix; None when empty.

    A loop over a stack with one level per nonempty block, so the length of
    the prefix does not bound the Python stack.  The innermost level
    enumerates all but its block's last variable and folds a column per
    assignment.  A universal level that meets an empty child range is empty
    itself and stops enumerating.  A level's range is empty exactly when
    lo > hi: an existential level that folded nothing still holds the hull
    identity, and a universal level folds at least one child, since an
    empty child pops it at once.
    """
    blocks = [block for block in blocks if block.names]
    if not blocks:
        v = eval_point(tape, {})
        return (v, v)
    stages = _Stages(tape, blocks, grids)
    innermost = len(blocks) - 1

    def level(k: int) -> _Level:
        names = blocks[k].names
        return _Level(blocks[k], names[:-1] if k == innermost else names, grids)

    levels = [level(0)]
    while True:
        top = levels[-1]
        assignment = next(top.assignments, None)
        if assignment is not None:
            stages.run(len(levels), assignment)
            if len(levels) <= innermost:
                levels.append(level(len(levels)))
                continue
            col = stages.column()
            if top.universal:
                top.lo = max(top.lo, *col)
                top.hi = min(top.hi, *col)
            else:
                top.lo = min(top.lo, *col)
                top.hi = max(top.hi, *col)
            continue
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
    values per variable (points >= 2), each in stages over its tape."""
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

