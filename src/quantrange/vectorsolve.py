"""Vector quantified range bounds via per-component prefix rewriting.

Outer box: each component's scalar outer bound is computed on the original
prefix; the product of those intervals contains the quantified set.

Inner box: the existential variables are partitioned among the output
components by an assignment pi.  For component j, every existential variable
assigned elsewhere is demoted to the universal block of its pair (after the
pair's original universals, preserving declaration order within the block),
and only the variables with pi = j stay existential.  The per-component
scalar inner bounds on these rewritten prefixes multiply to a guaranteed
inner box of the vector set.

Each output is prepared once per solve (center value, contribution rows,
affine form; see scalar.prepare).  Component j's rewritten prefix depends
only on the set of existentials j keeps, so it is assembled once per (j,
kept set), shared by the search, inner_for_assignment, the final inner box
and the outer bound: keeping every existential demotes nothing, and
normalizing is idempotent, so that entry's prefix is the original one.

Assignment search:
  * exhaustive — score every assignment (components^existentials), keep the
    one maximizing (number of nonempty components, total exact inner
    width), ties resolved toward the lexicographically smallest assignment
    vector in normalized-prefix variable order.  For m components and e
    existentials this costs exactly m*2^e exact assemblies (the outer
    bounds among them) plus an m^e loop over cached scores;
    exhaustive_limit still bounds m^e;
  * greedy — seed each component with its universal outer-row widths as a
    deficit, then hand out existential variables in decreasing best-row
    order to the component where min(row width, remaining deficit) is
    largest.  Linear cost, no optimality guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

# eval_interval, affine_coefficients, assemble_bounds, contribution_rows,
# exact_affine_range and solve_scalar are not called here: perfbench/spans.py
# traces them under these names and aborts when one is missing.
from .exprs import eval_interval
from .intervals import DivisionByZeroInterval, Interval, MaybeInterval, is_empty
from .problem import Block, QuantifiedProblem, Quantifier
from .scalar import (
    ZERO_ROW,
    ContributionRow,
    PreparedOutput,
    affine_coefficients,
    assemble,
    assemble_bounds,
    contribution_rows,
    exact_affine_range,
    prepare,
    solve_scalar,
)

__all__ = [
    "OutputError",
    "ComponentResult",
    "VectorResult",
    "existential_order",
    "derived_blocks",
    "inner_for_assignment",
    "solve_vector",
]

SuppliedRows = Mapping[str, Mapping[str, ContributionRow]]


@dataclass(slots=True)
class ComponentResult:
    """Per-output bounds: outer from the original prefix, inner from the
    rewritten prefix of the chosen assignment."""

    name: str
    inner: MaybeInterval
    outer: MaybeInterval
    center_value: Interval
    rows: dict[str, ContributionRow]
    method: str
    derived: tuple[Block, ...]
    inner_failed_pair: int | None
    outer_failed_pair: int | None


@dataclass(slots=True)
class VectorResult:
    components: tuple[ComponentResult, ...]
    assignment: dict[str, int]  # existential variable -> component index
    strategy_used: str  # "exhaustive" or "greedy"

    @property
    def inner_empty(self) -> bool:
        return any(is_empty(c.inner) for c in self.components)


def existential_order(problem: QuantifiedProblem) -> tuple[str, ...]:
    """Existential variables in normalized-prefix order (the canonical order
    for assignment vectors)."""
    names: list[str] = []
    for block in problem.normalized():
        if block.quantifier is Quantifier.EXISTS:
            names.extend(block.names)
    return tuple(names)


def derived_blocks(
    problem: QuantifiedProblem, component: int, assignment: Mapping[str, int]
) -> tuple[Block, ...]:
    """Prefix rewrite for one component under an existential assignment."""
    out: list[Block] = []
    for fa, ex in problem.normalized_pairs():
        moved = tuple(n for n in ex.names if assignment[n] != component)
        kept = tuple(n for n in ex.names if assignment[n] == component)
        out.append(Block(Quantifier.FORALL, fa.names + moved))
        out.append(Block(Quantifier.EXISTS, kept))
    return tuple(out)


# ---------------------------------------------------------------------------
# Prepared outputs, assembled once per kept set
# ---------------------------------------------------------------------------


class OutputError(ValueError):
    """One output cannot be bounded (e.g. its bounds overflow, or a divisor
    interval contains zero); the message names the output."""


def _named(name: str, fn: Callable, *args):
    """fn(*args) for the output called name; every failure to prepare or
    assemble it is re-raised as an OutputError that names it."""
    try:
        return fn(*args)
    except (ValueError, DivisionByZeroInterval) as exc:
        raise OutputError(f"output {name!r}: {exc}") from exc


def _kept_set_inners(
    problem: QuantifiedProblem, prepared: Sequence[PreparedOutput], exist_names: Sequence[str]
) -> Callable[[int, Sequence[int]], tuple]:
    """(rewritten prefix, ScalarResult on it, nonempty, exact inner width) of
    component j under an assignment vector (a component index per name of
    exist_names), assembled once per (j, kept set): the rewritten prefix of
    j depends only on which existentials j keeps."""
    memo: dict[tuple[int, tuple[bool, ...]], tuple] = {}

    def inner(j: int, vec: Sequence[int]) -> tuple:
        key = (j, tuple(c == j for c in vec))
        if key not in memo:
            derived = derived_blocks(problem, j, dict(zip(exist_names, vec)))
            res = _named(
                problem.outputs[j].name, assemble, prepared[j], problem.with_blocks(derived)
            )
            iv, nonempty = res.inner, not is_empty(res.inner)
            width = Fraction(iv.hi) - Fraction(iv.lo) if nonempty else Fraction(0)
            memo[key] = (derived, res, nonempty, width)
        return memo[key]

    return inner


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------


def _exhaustive_assignment(
    inner: Callable[[int, Sequence[int]], tuple], m: int, exist_names: Sequence[str]
) -> dict[str, int]:
    """Each assignment's score adds up the cached parts of its components;
    max keeps the first maximiser in product order, the smallest vector."""
    def score(vec: tuple[int, ...]) -> tuple[int, Fraction]:
        parts = [inner(j, vec)[2:] for j in range(m)]
        return sum(n for n, _ in parts), sum((w for _, w in parts), Fraction(0))

    best = max(itertools.product(range(m), repeat=len(exist_names)), key=score)
    return dict(zip(exist_names, best))


def _greedy_assignment(
    problem: QuantifiedProblem,
    prepared: Sequence[PreparedOutput],
    exist_names: Sequence[str],
) -> dict[str, int]:
    universal = [
        name
        for block in problem.normalized()
        if block.quantifier is Quantifier.FORALL
        for name in block.names
    ]

    def row_width(p: PreparedOutput, name: str, inner: bool) -> Fraction:
        row = p.rows.get(name, ZERO_ROW)
        iv = row.inner if inner else row.outer
        return Fraction(iv.hi) - Fraction(iv.lo)

    deficit = [
        sum((row_width(p, u, inner=False) for u in universal), Fraction(0))
        for p in prepared
    ]
    order = sorted(
        range(len(exist_names)),
        key=lambda i: max(row_width(p, exist_names[i], inner=True) for p in prepared),
        reverse=True,
    )
    assignment: dict[str, int] = {}
    for i in order:
        name = exist_names[i]
        # max keeps the first component of largest gain
        assignment[name] = best_j = max(
            range(len(prepared)),
            key=lambda j: min(row_width(prepared[j], name, inner=True), deficit[j]),
        )
        deficit[best_j] -= row_width(prepared[best_j], name, inner=True)
    return assignment


# ---------------------------------------------------------------------------
# Full vector solve
# ---------------------------------------------------------------------------


def solve_vector(
    problem: QuantifiedProblem,
    supplied: SuppliedRows | None = None,
    strategy: str = "auto",
    exhaustive_limit: int = 4096,
    pinned: Mapping[str, int] | None = None,
) -> VectorResult:
    """Inner and outer boxes for all outputs.

    strategy: "auto" (exhaustive when the assignment count fits under
    exhaustive_limit, greedy otherwise), "exhaustive" (error if over the
    limit), or "greedy".  A pinned assignment (existential variable ->
    component index, covering every existential variable) bypasses the
    search entirely.
    """
    rows = supplied or {}
    prepared = [
        _named(out.name, prepare, problem, out.expr, rows.get(out.name)) for out in problem.outputs
    ]
    exist_names = existential_order(problem)
    m = len(prepared)
    inner = _kept_set_inners(problem, prepared, exist_names)
    # Keeping every existential demotes nothing: the original prefix.
    outers = [inner(j, [j] * len(exist_names))[1] for j in range(m)]

    count = m ** len(exist_names) if m > 0 else 0
    if strategy not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown assignment strategy {strategy!r}")
    if pinned is not None:
        missing = set(exist_names) - set(pinned)
        if missing:
            raise ValueError(
                f"pinned assignment misses existential variable(s): {sorted(missing)}"
            )
        bad = [n for n in exist_names if not (0 <= pinned[n] < m)]
        if bad:
            raise ValueError(f"pinned assignment targets unknown components for: {bad}")
        assignment = {name: pinned[name] for name in exist_names}
        used = "pinned"
    elif strategy == "exhaustive" and count > exhaustive_limit:
        raise ValueError(
            f"exhaustive assignment search covers {count} assignments, "
            f"over the limit of {exhaustive_limit}; use the greedy strategy "
            f"or raise the limit"
        )
    elif m == 1:
        assignment = {name: 0 for name in exist_names}
        used = "exhaustive"
    elif strategy == "greedy" or (strategy == "auto" and count > exhaustive_limit):
        assignment = _greedy_assignment(problem, prepared, exist_names)
        used = "greedy"
    else:
        assignment = _exhaustive_assignment(inner, m, exist_names)
        used = "exhaustive"

    vec = [assignment[n] for n in exist_names]
    components: list[ComponentResult] = []
    for j, (out, p, outer) in enumerate(zip(problem.outputs, prepared, outers)):
        derived, got, _, _ = inner(j, vec)
        components.append(
            ComponentResult(
                name=out.name,
                inner=got.inner,
                outer=outer.outer,
                center_value=p.fc,
                rows=p.rows,
                method=outer.method,
                derived=derived,
                inner_failed_pair=got.inner_failed_pair,
                outer_failed_pair=outer.outer_failed_pair,
            )
        )
    return VectorResult(tuple(components), assignment, used)


def inner_for_assignment(
    problem: QuantifiedProblem,
    assignment: Mapping[str, int],
    supplied: SuppliedRows | None = None,
) -> tuple[MaybeInterval, ...]:
    """Per-component inner intervals under an existential assignment, checked like a pinned one."""
    return tuple(c.inner for c in solve_vector(problem, supplied, pinned=assignment).components)
