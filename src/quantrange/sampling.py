"""Sampling-based estimator of quantified ranges, plus the affine vertex oracle.

The estimator walks the normalized prefix with per-variable sample grids:
an existential block contributes the hull over its grid assignments, a
universal block the intersection (empty when the intersection crosses),
and a leaf evaluates the expression in plain float arithmetic.  The walk is
a loop over an explicit stack, so any number of blocks works.  Each output
component is estimated independently: it is compiled once into a tape
(see exprs), and every leaf is one `eval_point` sweep of that tape, a few
microseconds for a small polynomial.

The result is an estimate, not a bound — finite universal grids weaken the
adversary and finite existential grids weaken the witness.  On affine
problems, extrema sit at domain vertices, so the 2-point endpoint grid is
exact there; that specialization serves as an independent oracle for the
exact affine solver.

Cost is points^(number of variables), where a point domain counts as one
value, not points (see work_digits); callers are expected to budget it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exprs import Add, Const, Expr, Mul, Tape, Var, compile_expr, eval_point
from .intervals import EMPTY, Interval, MaybeInterval, is_empty
from .problem import Block, Output, QuantifiedProblem, Quantifier

__all__ = [
    "SamplingConfig",
    "EmptyEstimate",
    "sampling_estimate",
    "vertex_oracle_affine",
    "ratio_pair",
    "work_digits",
]


class EmptyEstimate(ValueError):
    """Raised when tightness ratios are requested against an empty estimate."""


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    """Grid configuration: uniform endpoint-inclusive grids by default;
    a seed switches interior points to a seeded uniform draw (fuzzing)."""

    points: int = 2
    include_endpoints: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")


def _grid(domain: Interval, cfg: SamplingConfig, rng: random.Random | None) -> list[float]:
    lo, hi = domain.lo, domain.hi
    n = cfg.points
    if lo == hi:
        return [lo]
    if rng is not None:
        interior = sorted(rng.uniform(lo, hi) for _ in range(max(0, n - 2)))
        if cfg.include_endpoints:
            return [lo, *interior, hi]
        return interior if interior else [lo, hi]
    if cfg.include_endpoints:
        step = (hi - lo) / (n - 1)
        return [lo] + [lo + i * step for i in range(1, n - 1)] + [hi]
    step = (hi - lo) / (n + 1)
    return [lo + (i + 1) * step for i in range(n)]


def work_digits(problem: QuantifiedProblem, points: int) -> float:
    """log10 of the leaf-evaluation count: points values per variable, except
    that a point domain's grid holds its one value."""
    sampled = sum(1 for v in problem.variables if v.domain.lo != v.domain.hi)
    return sampled * math.log10(points)


class _Level:
    """One nonempty block of the prefix while its grid assignments are
    enumerated, with the range folded from the assignments so far."""

    __slots__ = ("names", "universal", "assignments", "lo", "hi", "seen")

    def __init__(self, block: Block, grids: Mapping[str, list[float]]) -> None:
        self.names = block.names
        self.universal = block.quantifier is Quantifier.FORALL
        self.assignments = itertools.product(*(grids[name] for name in block.names))
        # The fold starts from the identity of intersection or hull.
        self.lo, self.hi = (-math.inf, math.inf) if self.universal else (math.inf, -math.inf)
        self.seen = False


def _estimate_component(
    tape: Tape, blocks: Sequence[Block], grids: Mapping[str, list[float]]
) -> tuple[float, float] | None:
    """Grid estimate of one output under the prefix; None when empty.

    A loop over a stack with one level per nonempty block, so the length of
    the prefix does not bound the Python stack.  A universal level that
    meets an empty child range is empty itself and stops enumerating.
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
            got = None if not top.seen or top.lo > top.hi else (top.lo, top.hi)
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
        top.seen = True
        if top.universal:
            top.lo = max(top.lo, got[0])
            top.hi = min(top.hi, got[1])
        else:
            top.lo = min(top.lo, got[0])
            top.hi = max(top.hi, got[1])


def sampling_estimate(
    problem: QuantifiedProblem, cfg: SamplingConfig = SamplingConfig()
) -> tuple[MaybeInterval, ...]:
    """Per-output estimates of the quantified range over the sample grids;
    each output is compiled once and its tape evaluated at every leaf."""
    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    grids = {v.name: _grid(v.domain, cfg, rng) for v in problem.variables}
    blocks = problem.normalized()
    out: list[MaybeInterval] = []
    for output in problem.outputs:
        got = _estimate_component(compile_expr(output.expr), blocks, grids)
        out.append(EMPTY if got is None else Interval(got[0], got[1]))
    return tuple(out)


def vertex_oracle_affine(
    delta0: float | Fraction,
    coeffs: Mapping[str, float | Fraction],
    problem: QuantifiedProblem,
) -> MaybeInterval:
    """Endpoint-grid estimate of an affine function under the problem's
    prefix and domains — exact for affine problems (extrema at vertices)."""
    expr: Expr = Const(float(delta0))
    for spec in problem.variables:
        c = float(coeffs.get(spec.name, 0.0))
        if c != 0.0:
            expr = Add(expr, Mul(Const(c), Var(spec.name)))
    oracle_problem = problem.with_outputs([Output("f", expr)])
    return sampling_estimate(oracle_problem, SamplingConfig(points=2))[0]


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

