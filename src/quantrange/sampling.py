"""Sampling-based estimator of quantified ranges, plus the affine vertex oracle.

The estimator recurses over the normalized prefix with per-variable sample
grids: an existential block contributes the hull over its grid assignments,
a universal block the intersection (empty when the intersection crosses),
and a leaf evaluates the expression in plain float arithmetic.  Each output
component is estimated independently.

The result is an estimate, not a bound — finite universal grids weaken the
adversary and finite existential grids weaken the witness.  On affine
problems, extrema sit at domain vertices, so the 2-point endpoint grid is
exact there; that specialization serves as an independent oracle for the
exact affine solver.

Cost is points^(number of variables); callers are expected to budget it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exprs import Add, Const, Expr, Mul, Var, eval_point
from .intervals import EMPTY, Interval, MaybeInterval, is_empty
from .problem import Output, QuantifiedProblem, Quantifier

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
    """log10 of the leaf-evaluation count: p * log10(points)."""
    return len(problem.variables) * math.log10(points)


def _estimate_component(
    expr: Expr,
    blocks: Sequence,
    grids: Mapping[str, list[float]],
    env: dict[str, float],
    i: int,
) -> tuple[float, float] | None:
    if i == len(blocks):
        v = eval_point(expr, env)
        return (v, v)
    block = blocks[i]
    if not block.names:
        return _estimate_component(expr, blocks, grids, env, i + 1)
    lo = math.inf
    hi = -math.inf
    universal = block.quantifier is Quantifier.FORALL
    if universal:
        lo, hi = -math.inf, math.inf
    seen = False
    for assignment in itertools.product(*(grids[name] for name in block.names)):
        for name, value in zip(block.names, assignment):
            env[name] = value
        child = _estimate_component(expr, blocks, grids, env, i + 1)
        if child is None:
            if universal:
                for name in block.names:
                    del env[name]
                return None
            continue
        seen = True
        if universal:
            lo = max(lo, child[0])
            hi = min(hi, child[1])
        else:
            lo = min(lo, child[0])
            hi = max(hi, child[1])
    for name in block.names:
        del env[name]
    if not seen or lo > hi:
        return None
    return (lo, hi)


def sampling_estimate(
    problem: QuantifiedProblem, cfg: SamplingConfig = SamplingConfig()
) -> tuple[MaybeInterval, ...]:
    """Per-output estimates of the quantified range over the sample grids."""
    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    grids = {v.name: _grid(v.domain, cfg, rng) for v in problem.variables}
    blocks = problem.normalized()
    out: list[MaybeInterval] = []
    for output in problem.outputs:
        got = _estimate_component(output.expr, blocks, grids, {}, 0)
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

