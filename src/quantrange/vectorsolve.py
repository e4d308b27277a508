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

Each output is prepared once per solve into a scalar.RowModel (see
scalar.prepare), the integer form of the scalar assembly.  Component j's
rewritten prefix depends only on the set of existentials j keeps, and the
model gives the inner box of any kept set directly.  The result reads two
entries per component: the outer bound (every existential kept, which
demotes nothing: the original prefix) and the inner box of the kept set
the assignment gives it.  No rewritten problem is built.

Assignment search:
  * exhaustive — the assignment maximizing (number of nonempty components,
    total exact inner width), ties resolved toward the lexicographically
    smallest assignment vector in normalized-prefix variable order.  A
    branch-and-bound search finds it (see _branch_and_bound); it scores
    kept sets with the row models, at most m*2^e of them for m components
    and e existentials and usually far fewer.  exhaustive_limit still
    bounds m^e;
  * greedy — seed each component with its universal outer-row widths as a
    deficit, then hand out existential variables in decreasing best-row
    order to the component where min(row width, remaining deficit) is
    largest.  The widths are the row models' exact integers, in one unit
    for all components.  Linear cost, no optimality guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

# eval_interval, affine_coefficients, assemble_bounds, contribution_rows,
# exact_affine_range and solve_scalar are not called here: perfbench/spans.py
# traces them under these names and aborts when one is missing.
from .exprs import eval_interval
from .intervals import DivisionByZeroInterval, MaybeInterval, is_empty
from .problem import QuantifiedProblem, existential_order
from .scalar import (
    ContributionRow,
    RowModel,
    affine_coefficients,
    assemble_bounds,
    contribution_rows,
    exact_affine_range,
    prepare,
    solve_scalar,
)

__all__ = [
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "OutputError",
    "ComponentResult",
    "VectorResult",
    "solve_vector",
]

SuppliedRows = Mapping[str, Mapping[str, ContributionRow]]

# The largest assignment count m^e that the "auto" strategy searches exhaustively.
DEFAULT_EXHAUSTIVE_LIMIT = 4096


@dataclass(slots=True)
class ComponentResult:
    """Per-output bounds: outer from the original prefix, inner from the
    rewritten prefix of the chosen assignment."""

    name: str
    inner: MaybeInterval
    outer: MaybeInterval
    method: str
    inner_failed_pair: int | None
    outer_failed_pair: int | None


@dataclass(slots=True)
class VectorResult:
    components: tuple[ComponentResult, ...]
    assignment: dict[str, int]  # existential variable -> component index
    strategy_used: str  # "exhaustive", "greedy" or "pinned"

    @property
    def inner_empty(self) -> bool:
        return any(is_empty(c.inner) for c in self.components)


# ---------------------------------------------------------------------------
# Output failures
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


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------


def _branch_and_bound(models: Sequence[RowModel], e: int) -> tuple[int, ...]:
    """The assignment vector maximizing (nonempty components, total inner
    width); the smallest one among equal maximizers.

    Depth-first over the existentials in order, components 0..m-1 at each
    position, so leaves come in lexicographic order (Land & Doig 1960).  A
    node's bound is the score where component j keeps its assigned
    existentials and every unassigned one.  Every leaf below keeps a subset
    of that in each component, and a component's score is monotone in its
    kept set: keeping one more existential lowers the exact inner lo
    (il <= 0 <= oh), raises the exact inner hi (ol <= 0 <= ih) and adds a
    width >= 0 to one slack, which relaxes every suffix condition; directed
    rounding is monotone, so the rounded endpoints move apart or stay, and
    nonemptiness and width can only grow.  A subtree whose bound is <= the
    best so far is pruned: it holds nothing better, and its leaves come
    after the best one, so they would lose a tie.  Each (component, kept
    set) is scored once.  The stack holds at most e*m nodes.
    """
    m = len(models)
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def part(j: int, kept: int) -> tuple[int, int]:
        got = memo.get((j, kept))
        if got is None:
            got = memo[j, kept] = models[j].score(kept)
        return got

    best, best_vec = (-1, -1), ()
    stack = [((), ((1 << e) - 1,) * m)]
    while stack:
        vec, kept = stack.pop()
        parts = [part(j, k) for j, k in enumerate(kept)]
        bound = (sum(n for n, _ in parts), sum(w for _, w in parts))
        if bound <= best:
            continue
        i = len(vec)
        if i == e:
            best, best_vec = bound, vec
            continue
        drop = ~(1 << i)
        for c in reversed(range(m)):
            stack.append((vec + (c,), tuple(k if j == c else k & drop for j, k in enumerate(kept))))
    return best_vec


def _greedy_assignment(models: Sequence[RowModel], exist_names: Sequence[str]) -> dict[str, int]:
    """The greedy assignment, in the order it hands the existentials out.
    Every model's widths are scaled to the lcm of the models' units, so the
    widths of different outputs compare exactly."""
    unit = math.lcm(*(model.denom for model in models))
    widths = [[w * (unit // model.denom) for w in model.inner_widths] for model in models]
    deficit = [model.universal_width * (unit // model.denom) for model in models]
    order = sorted(range(len(exist_names)), key=lambda i: max(w[i] for w in widths), reverse=True)
    assignment: dict[str, int] = {}
    for i in order:
        # max keeps the first component of largest gain
        best_j = max(range(len(models)), key=lambda j: min(widths[j][i], deficit[j]))
        assignment[exist_names[i]] = best_j
        deficit[best_j] -= widths[best_j][i]
    return assignment


# ---------------------------------------------------------------------------
# Full vector solve
# ---------------------------------------------------------------------------


def solve_vector(
    problem: QuantifiedProblem,
    supplied: SuppliedRows | None = None,
    strategy: str = "auto",
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    pinned: Mapping[str, int] | None = None,
) -> VectorResult:
    """Inner and outer boxes for all outputs.

    strategy: "auto" (exhaustive when the assignment count fits under
    exhaustive_limit, greedy otherwise), "exhaustive" (error if over the
    limit), or "greedy".  A pinned assignment (existential variable ->
    component index, covering every existential variable) bypasses the
    search entirely.  The arguments are checked before any output is
    prepared.
    """
    if strategy not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown assignment strategy {strategy!r}")
    exist_names = existential_order(problem)
    m = len(problem.outputs)
    count = m ** len(exist_names)
    if pinned is not None:
        missing = set(exist_names) - set(pinned)
        if missing:
            raise ValueError(
                f"pinned assignment misses existential variable(s): {sorted(missing)}"
            )
        bad = [n for n in exist_names if not (0 <= pinned[n] < m)]
        if bad:
            raise ValueError(f"pinned assignment targets unknown components for: {bad}")
    elif strategy == "exhaustive" and count > exhaustive_limit:
        raise ValueError(
            f"exhaustive assignment search covers {count} assignments, "
            f"over the limit of {exhaustive_limit}; use the greedy strategy "
            f"or raise the limit"
        )

    rows = supplied or {}
    models = [
        _named(out.name, prepare, problem, out.expr, rows.get(out.name)) for out in problem.outputs
    ]
    if pinned is not None:
        assignment = {name: pinned[name] for name in exist_names}
        used = "pinned"
    elif m == 1:
        assignment = {name: 0 for name in exist_names}
        used = "exhaustive"
    elif strategy == "greedy" or count > exhaustive_limit:
        assignment = _greedy_assignment(models, exist_names)
        used = "greedy"
    else:
        assignment = dict(zip(exist_names, _branch_and_bound(models, len(exist_names))))
        used = "exhaustive"

    components: list[ComponentResult] = []
    for j, (out, model) in enumerate(zip(problem.outputs, models)):
        kept = sum(1 << i for i, name in enumerate(exist_names) if assignment[name] == j)
        got = _named(out.name, model.result, kept)
        components.append(
            ComponentResult(
                name=out.name,
                inner=got.inner,
                outer=got.outer,
                method=got.method,
                inner_failed_pair=got.inner_failed_pair,
                outer_failed_pair=got.outer_failed_pair,
            )
        )
    return VectorResult(tuple(components), assignment, used)
