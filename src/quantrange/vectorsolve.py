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
affine form; see scalar.prepare) and assembled once per prefix it is bounded
under: the original prefix for the outer bound, and one rewritten prefix per
scored assignment and for the final inner bound.

Assignment search:
  * exhaustive — score every assignment (components^existentials), keep the
    one maximizing (number of nonempty components, total inner width), ties
    resolved toward the lexicographically smallest assignment vector in
    normalized-prefix variable order;
  * greedy — seed each component with its universal outer-row widths as a
    deficit, then hand out existential variables in decreasing best-row
    order to the component where min(row width, remaining deficit) is
    largest.  Linear cost, no optimality guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

# eval_interval, affine_coefficients, assemble_bounds, contribution_rows,
# exact_affine_range and solve_scalar are not called here: perfbench/spans.py
# traces them under these names and aborts when one is missing.
from .exprs import eval_interval
from .intervals import Interval, MaybeInterval, is_empty
from .problem import Block, QuantifiedProblem, Quantifier
from .scalar import (
    ZERO_ROW,
    ContributionRow,
    PreparedOutput,
    ScalarResult,
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
# Prepared outputs, assembled once per prefix
# ---------------------------------------------------------------------------


class OutputError(ValueError):
    """One output cannot be bounded (e.g. its bounds overflow); the message
    names the output."""


def _prepare(
    problem: QuantifiedProblem, supplied: SuppliedRows | None
) -> list[tuple[PreparedOutput, ScalarResult]]:
    """Each output prepared and assembled on the original prefix; a failure
    names the output."""
    solved = []
    for out in problem.outputs:
        rows = None if supplied is None else supplied.get(out.name)
        try:
            prepared = prepare(problem, out.expr, rows)
            solved.append((prepared, assemble(prepared, problem)))
        except ValueError as exc:
            raise OutputError(f"output {out.name!r}: {exc}") from exc
    return solved


def _inners(
    problem: QuantifiedProblem, prepared: Sequence[PreparedOutput], assignment: Mapping[str, int]
) -> tuple[MaybeInterval, ...]:
    """Each component's inner bound on its rewritten prefix."""
    return tuple(
        assemble(p, problem.with_blocks(derived_blocks(problem, j, assignment))).inner
        for j, p in enumerate(prepared)
    )


def inner_for_assignment(
    problem: QuantifiedProblem,
    assignment: Mapping[str, int],
    supplied: SuppliedRows | None = None,
) -> tuple[MaybeInterval, ...]:
    """Per-component inner intervals under a specific existential assignment."""
    return _inners(problem, [p for p, _ in _prepare(problem, supplied)], assignment)


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------


def _score(inners: Sequence[MaybeInterval]) -> tuple[int, Fraction]:
    nonempty = 0
    width = Fraction(0)
    for iv in inners:
        if not is_empty(iv):
            nonempty += 1
            width += Fraction(iv.hi) - Fraction(iv.lo)
    return nonempty, width


def _exhaustive_assignment(
    problem: QuantifiedProblem,
    prepared: Sequence[PreparedOutput],
    exist_names: Sequence[str],
) -> dict[str, int]:
    best_vec: tuple[int, ...] | None = None
    best_score: tuple[int, Fraction] | None = None
    for vec in itertools.product(range(len(prepared)), repeat=len(exist_names)):
        score = _score(_inners(problem, prepared, dict(zip(exist_names, vec))))
        if best_score is None or score > best_score:
            best_score = score
            best_vec = vec
    assert best_vec is not None
    return dict(zip(exist_names, best_vec))


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
        best_j = 0
        best_gain: Fraction | None = None
        for j, p in enumerate(prepared):
            gain = min(row_width(p, name, inner=True), deficit[j])
            if best_gain is None or gain > best_gain:
                best_gain = gain
                best_j = j
        assignment[name] = best_j
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
    solved = _prepare(problem, supplied)
    prepared = [p for p, _ in solved]
    exist_names = existential_order(problem)
    m = len(prepared)

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
            f"exhaustive assignment search needs {count} evaluations, "
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
        assignment = _exhaustive_assignment(problem, prepared, exist_names)
        used = "exhaustive"

    components: list[ComponentResult] = []
    for j, (out, (p, outer)) in enumerate(zip(problem.outputs, solved)):
        derived = derived_blocks(problem, j, assignment)
        inner = assemble(p, problem.with_blocks(derived))
        components.append(
            ComponentResult(
                name=out.name,
                inner=inner.inner,
                outer=outer.outer,
                center_value=p.fc,
                rows=p.rows,
                method=outer.method,
                derived=derived,
                inner_failed_pair=inner.inner_failed_pair,
                outer_failed_pair=outer.outer_failed_pair,
            )
        )
    return VectorResult(tuple(components), assignment, used)
