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
only on the set of existentials j keeps.  The result reports two kept sets
per component, each assembled once: keeping every existential (the outer
bound; it demotes nothing, so it is assembled on the original prefix) and
the one the assignment gives it (the inner box).

Assignment search:
  * exhaustive — the assignment maximizing (number of nonempty components,
    total exact inner width), ties resolved toward the lexicographically
    smallest assignment vector in normalized-prefix variable order.  A
    branch-and-bound search finds it (see _branch_and_bound); it scores
    kept sets with an integer model of the inner assembly (_InnerModel),
    at most m*2^e of them for m components and e existentials and usually
    far fewer, and assembles none.  exhaustive_limit still bounds m^e;
  * greedy — seed each component with its universal outer-row widths as a
    deficit, then hand out existential variables in decreasing best-row
    order to the component where min(row width, remaining deficit) is
    largest.  Linear cost, no optimality guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

# eval_interval, affine_coefficients, assemble_bounds, contribution_rows,
# exact_affine_range and solve_scalar are not called here: perfbench/spans.py
# traces them under these names and aborts when one is missing.
from .exprs import eval_interval
from .intervals import (
    DivisionByZeroInterval,
    Interval,
    MaybeInterval,
    frac_to_float_down,
    frac_to_float_up,
    is_empty,
)
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
# Prepared outputs and their failures
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
# Kept-set scores in scaled integers
# ---------------------------------------------------------------------------

# Every finite double is an integer multiple of 2**-1074.
_FLOAT_DENOM = 1 << 1074


def _scaled_float(x: float) -> int:
    """x in units of 2**-1074."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


class _InnerModel:
    """assemble(prepared, rewritten prefix).inner of one output, for any
    kept set, from integer additions.

    Every quantity is an integer count of 1/denom: 2**-1074 for
    contribution rows, the lcm of the exact terms' denominators for an
    affine output.  The model starts from the prefix where every
    existential is demoted: lo = fc.hi + the sum of every outer hi,
    hi = fc.lo + the sum of every outer lo, and slack[l] = -(universal
    width of pair l), where a universal row's width is outer hi - lo.
    Keeping existential v (bit i of a kept mask when v is the i-th name of
    existential_order) moves its row to the existential side of its pair:
    lo gains il - oh, hi gains ih - ol, and slack[l] gains the outer width
    and the inner width of the row.  The inner set is nonempty when every
    suffix sum of slack is >= 0 (the alternation condition: the universal
    widths from pair l onward are covered by the existential ones) and the
    inward-rounded endpoints do not cross.  Rounding inward gives +inf
    only to lo and -inf only to hi, so endpoints that do not cross are
    finite: a score, like the assembled inner box, never fails.

    Those suffix conditions, over the original pairs, hold exactly when the
    conditions over the rewritten prefix's normalized pairs do: a dropped
    empty block adds 0 to every sum, and the condition at a pair whose
    blocks merged into a neighbour's is implied by the condition where the
    merged pair starts, as every width is >= 0.

    An affine output fits the same model with fc = [const, const] and, for
    each variable, il = ol = -r and ih = oh = r, where const is the value at
    the domain midpoints and r = |c| * (hi - lo) / 2: lo and hi are then
    exact_affine_range's const - offset and const + offset, and the slack
    conditions are its norm conditions, doubled.
    """

    __slots__ = ("denom", "lo", "hi", "slack", "rows")

    def __init__(self, prepared: PreparedOutput, problem: QuantifiedProblem) -> None:
        if prepared.affine is None:
            denom = _FLOAT_DENOM
            fl, fh = _scaled_float(prepared.fc.lo), _scaled_float(prepared.fc.hi)

            def row(v: str) -> tuple[int, int, int, int]:
                r = prepared.rows.get(v, ZERO_ROW)
                return tuple(map(_scaled_float, (r.inner.lo, r.inner.hi, r.outer.lo, r.outer.hi)))

        else:
            const, coeffs = prepared.affine
            radius: dict[str, Fraction] = {}
            for spec in problem.variables:
                c = coeffs.get(spec.name, Fraction(0))
                lo, hi = Fraction(spec.domain.lo), Fraction(spec.domain.hi)
                const += c * (hi + lo) / 2
                radius[spec.name] = abs(c) * (hi - lo) / 2
            denom = math.lcm(const.denominator, *(r.denominator for r in radius.values()))
            fl = fh = const.numerator * (denom // const.denominator)

            def row(v: str) -> tuple[int, int, int, int]:
                r = radius[v].numerator * (denom // radius[v].denominator)
                return -r, r, -r, r

        self.denom = denom
        self.lo, self.hi = fh, fl
        self.slack: list[int] = []
        self.rows: list[tuple[int, int, int, int]] = []  # (pair, d lo, d hi, d slack)
        for pair, (fa, ex) in enumerate(problem.normalized_pairs()):
            slack = 0
            for v in fa.names + ex.names:
                il, ih, ol, oh = row(v)
                self.lo += oh
                self.hi += ol
                slack -= oh - ol
            for v in ex.names:
                il, ih, ol, oh = row(v)
                self.rows.append((pair, il - oh, ih - ol, (oh - ol) + (ih - il)))
            self.slack.append(slack)

    def score(self, kept: int) -> tuple[int, int]:
        """(1, inner width in units of 2**-1074) when the inner set of this
        kept set is nonempty, else (0, 0)."""
        lo, hi, slack = self.lo, self.hi, self.slack[:]
        while kept:
            low = kept & -kept
            pair, d_lo, d_hi, d_slack = self.rows[low.bit_length() - 1]
            lo += d_lo
            hi += d_hi
            slack[pair] += d_slack
            kept ^= low
        suffix = 0
        for s in reversed(slack):
            suffix += s
            if suffix < 0:
                return 0, 0
        lo_f = frac_to_float_up(Fraction(lo, self.denom))
        hi_f = frac_to_float_down(Fraction(hi, self.denom))
        if lo_f > hi_f:
            return 0, 0
        return 1, _scaled_float(hi_f) - _scaled_float(lo_f)


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------


def _branch_and_bound(models: Sequence[_InnerModel], e: int) -> tuple[int, ...]:
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
    memo: dict[tuple[int, tuple[bool, ...]], ScalarResult] = {}

    def assembled(j: int, assignment: Mapping[str, int]) -> ScalarResult:
        """Component j's bounds on its rewritten prefix, once per kept set."""
        kept = tuple(assignment[n] == j for n in exist_names)
        if (j, kept) not in memo:
            # Keeping every existential demotes nothing: the original prefix.
            prefix = problem
            if not all(kept):
                prefix = problem.with_blocks(derived_blocks(problem, j, assignment))
            memo[j, kept] = _named(problem.outputs[j].name, assemble, prepared[j], prefix)
        return memo[j, kept]

    outers = [assembled(j, dict.fromkeys(exist_names, j)) for j in range(m)]

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
        models = [_InnerModel(p, problem) for p in prepared]
        assignment = dict(zip(exist_names, _branch_and_bound(models, len(exist_names))))
        used = "exhaustive"

    components: list[ComponentResult] = []
    for j, (out, p, outer) in enumerate(zip(problem.outputs, prepared, outers)):
        got = assembled(j, assignment)
        components.append(
            ComponentResult(
                name=out.name,
                inner=got.inner,
                outer=outer.outer,
                center_value=p.fc,
                rows=p.rows,
                method=outer.method,
                derived=derived_blocks(problem, j, assignment),
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
