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

Assembly is performed in exact rational arithmetic on the rounded row
endpoints, so the validity conditions are decided exactly; final endpoints
are converted to float directed inward (inner) or outward (outer).

Affine expressions take an exact path instead: after rescaling each domain
to [-1, 1], per-block coefficient norms decide emptiness and give the
quantified range exactly (in rationals), with the same alternation
condition.  For affine f the inner and outer results coincide.

None of the per-expression work depends on the prefix: `prepare` computes
the center value, the rows and the affine form once, and `assemble` turns
them into bounds for any prefix over the same variables.  `solve_scalar`
is the two in sequence.
"""

from __future__ import annotations

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
    Expr,
    Tape,
    as_tape,
    compile_expr,
    eval_grad,
    eval_interval,
)
from .intervals import (
    EMPTY,
    Interval,
    MaybeInterval,
    add_down,
    add_up,
    frac_to_float_down,
    frac_to_float_up,
    iv_mul,
    mul_down,
)
from .problem import Block, QuantifiedProblem

__all__ = [
    "ContributionRow",
    "ZERO_ROW",
    "AssembledBounds",
    "ScalarResult",
    "PreparedOutput",
    "contribution_rows",
    "assemble_bounds",
    "affine_coefficients",
    "exact_affine_range",
    "prepare",
    "assemble",
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


_ZERO_IV = Interval(0.0, 0.0)
ZERO_ROW = ContributionRow(_ZERO_IV, _ZERO_IV)


def contribution_rows(expr: Expr | Tape, problem: QuantifiedProblem) -> dict[str, ContributionRow]:
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
# Exact rational helpers
# ---------------------------------------------------------------------------


def _first_failing_pair(
    forall_widths: Sequence[Fraction], exists_widths: Sequence[Fraction]
) -> int | None:
    """First 1-based pair index violating the alternation condition, if any.

    Pair l is fine when the universal width at l does not exceed the
    existential widths from pair l onward minus the universal widths after l.
    One backward pass keeps that right-hand side as a running sum.
    """
    failed = None
    rhs = later_forall = Fraction(0)
    for l in range(len(forall_widths) - 1, -1, -1):
        rhs += exists_widths[l] - later_forall
        later_forall = forall_widths[l]
        if later_forall > rhs:
            failed = l + 1
    return failed


# ---------------------------------------------------------------------------
# Pairwise assembly of inner and outer bounds
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AssembledBounds:
    inner: MaybeInterval
    outer: Interval
    inner_failed_pair: int | None
    outer_failed_pair: int | None


def _block_sums(
    rows: Mapping[str, ContributionRow], block: Block
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(inner_lo, inner_hi, outer_lo, outer_hi) summed over a block."""
    il = ih = ol = oh = Fraction(0)
    for name in block.names:
        row = rows.get(name, ZERO_ROW)
        il += Fraction(row.inner.lo)
        ih += Fraction(row.inner.hi)
        ol += Fraction(row.outer.lo)
        oh += Fraction(row.outer.hi)
    return il, ih, ol, oh


def assemble_bounds(
    fc: Interval,
    rows: Mapping[str, ContributionRow],
    pairs: Sequence[tuple[Block, Block]],
    all_names: Sequence[str],
) -> AssembledBounds:
    """Pairwise inner/outer assembly from contribution rows (exact rationals)."""
    fl, fh = Fraction(fc.lo), Fraction(fc.hi)

    fa = [_block_sums(rows, p[0]) for p in pairs]  # universal blocks
    ex = [_block_sums(rows, p[1]) for p in pairs]  # existential blocks

    # Inner: universal blocks charged their outer rows, existential blocks
    # credited their inner rows.
    inner_lo = fh + sum((fa[k][3] + ex[k][0] for k in range(len(pairs))), Fraction(0))
    inner_hi = fl + sum((ex[k][1] + fa[k][2] for k in range(len(pairs))), Fraction(0))
    inner_failed = _first_failing_pair(
        [fa[k][3] - fa[k][2] for k in range(len(pairs))],
        [ex[k][1] - ex[k][0] for k in range(len(pairs))],
    )
    inner: MaybeInterval
    if inner_failed is not None:
        inner = EMPTY
    else:
        lo_f = frac_to_float_up(inner_lo)
        hi_f = frac_to_float_down(inner_hi)
        inner = EMPTY if lo_f > hi_f else Interval(lo_f, hi_f)

    # Outer: universal blocks credited their inner rows, existential blocks
    # charged their outer rows.
    outer_failed = _first_failing_pair(
        [fa[k][1] - fa[k][0] for k in range(len(pairs))],
        [ex[k][3] - ex[k][2] for k in range(len(pairs))],
    )
    if outer_failed is None:
        outer_lo = fl + sum((fa[k][1] + ex[k][2] for k in range(len(pairs))), Fraction(0))
        outer_hi = fh + sum((fa[k][0] + ex[k][3] for k in range(len(pairs))), Fraction(0))
    else:
        # Fallback: plain mean-value range enclosure over every variable.
        outer_lo = fl + sum((Fraction(rows.get(n, ZERO_ROW).outer.lo) for n in all_names), Fraction(0))
        outer_hi = fh + sum((Fraction(rows.get(n, ZERO_ROW).outer.hi) for n in all_names), Fraction(0))
    outer = Interval(frac_to_float_down(outer_lo), frac_to_float_up(outer_hi))

    return AssembledBounds(inner, outer, inner_failed, outer_failed)


# ---------------------------------------------------------------------------
# Affine expressions: exact quantified range
# ---------------------------------------------------------------------------


_AffinePair = tuple[Fraction, dict[str, Fraction]]

# A folded constant or coefficient beyond this many bits (numerator or
# denominator) is left to interval evaluation, so neither nested powers
# such as (c^1024)^1024 nor long products or sums of large constants can
# grow a rational without bound.
_MAX_FOLD_BITS = 1 << 16

_TRIG_OPS = frozenset((SIN, COS, MSIN))


def _too_big(x: Fraction) -> bool:
    return x.numerator.bit_length() > _MAX_FOLD_BITS or x.denominator.bit_length() > _MAX_FOLD_BITS


def affine_coefficients(e: Expr | Tape) -> _AffinePair | None:
    """Exact (constant, {var: coefficient}) when e is affine, else None.

    Constant subtrees are folded in exact rational arithmetic; a folded
    constant or coefficient beyond _MAX_FOLD_BITS makes the tree
    non-affine, which leaves it to the mean-value route.  Any trigonometric
    node disqualifies the tree, as its value has no exact rational form.
    Non-affinity reaches the root through every node except a power with
    exponent 0, so a tape with a trigonometric node and no such power is
    rejected without folding anything.
    """
    tape = as_tape(e)
    code = tape.code
    ops = {ins[0] for ins in code}
    if not ops.isdisjoint(_TRIG_OPS) and not any(op == POW and b == 0 for op, _, b in code):
        return None
    readers = tape.readers
    done: list[_AffinePair | None] = []
    for op, a, b in code:
        done.append(_affine_step(op, a, b, done, readers))
    return done[-1]


def _affine_step(
    op: int, a, b, done: list[_AffinePair | None], readers: tuple[int, ...]
) -> _AffinePair | None:
    """Fold one instruction.  A child's coefficient dict is updated in place
    (and so shared with this slot) only when this is its sole reader."""
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
        return _scaled(other, scale)
    # DIV
    if right[1] or right[0] == 0:
        return None
    return _scaled(left, 1 / right[0])


def _scaled(pair: _AffinePair, factor: Fraction) -> _AffinePair | None:
    """factor * pair, or None when a product exceeds the fold bound."""
    c = pair[0] * factor
    lin = {name: coeff * factor for name, coeff in pair[1].items()}
    if _too_big(c) or any(_too_big(coeff) for coeff in lin.values()):
        return None
    return c, lin


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
    specs = {v.name: v for v in problem.variables}
    const = delta0
    norms: list[Fraction] = []
    for block in problem.normalized():
        total = Fraction(0)
        for name in block.names:
            spec = specs[name]
            coeff = coeffs.get(name, Fraction(0))
            lo, hi = Fraction(spec.domain.lo), Fraction(spec.domain.hi)
            total += abs(coeff) * (hi - lo) / 2
            const += coeff * (hi + lo) / 2
        norms.append(total)
    forall_norms = norms[0::2]
    exists_norms = norms[1::2]
    if _first_failing_pair(forall_norms, exists_norms) is not None:
        return None
    offset = sum(exists_norms, Fraction(0)) - sum(forall_norms, Fraction(0))
    return const - offset, const + offset


# ---------------------------------------------------------------------------
# Scalar solve: prepare once, assemble per prefix
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ScalarResult:
    """Inner/outer quantified range bounds for one scalar expression."""

    inner: MaybeInterval
    outer: MaybeInterval
    center_value: Interval
    rows: dict[str, ContributionRow]
    method: str  # "exact-affine" or "mean-value"
    inner_failed_pair: int | None = None
    outer_failed_pair: int | None = None


@dataclass(frozen=True, slots=True)
class PreparedOutput:
    """Everything the bounds of one expression need, whatever the prefix:
    the center value, the contribution rows and the exact affine form
    (None when the expression is not affine or its rows were supplied)."""

    fc: Interval
    rows: dict[str, ContributionRow]
    affine: _AffinePair | None


def prepare(
    problem: QuantifiedProblem,
    expr: Expr,
    supplied_rows: Mapping[str, ContributionRow] | None = None,
) -> PreparedOutput:
    """Compile expr once and evaluate its tape over the problem's variables;
    the prefix is not read.  Supplied rows replace the computed ones and
    force row assembly."""
    tape = compile_expr(expr)
    fc = eval_interval(tape, problem.center_env())
    if supplied_rows is not None:
        return PreparedOutput(fc, dict(supplied_rows), None)
    return PreparedOutput(fc, contribution_rows(tape, problem), affine_coefficients(tape))


def assemble(prepared: PreparedOutput, problem: QuantifiedProblem) -> ScalarResult:
    """Bounds of a prepared expression under the problem's prefix.

    Affine expressions are solved exactly, with inner == outer; an empty
    exact range reports both bounds empty.  All others use contribution-row
    assembly.
    """
    fc, rows = prepared.fc, prepared.rows
    if prepared.affine is not None:
        exact = exact_affine_range(*prepared.affine, problem)
        if exact is None:
            return ScalarResult(EMPTY, EMPTY, fc, rows, "exact-affine")
        lo, hi = exact
        in_lo, in_hi = frac_to_float_up(lo), frac_to_float_down(hi)
        inner = Interval(in_lo, in_hi) if in_lo <= in_hi else EMPTY
        outer = Interval(frac_to_float_down(lo), frac_to_float_up(hi))
        return ScalarResult(inner, outer, fc, rows, "exact-affine")
    names = [v.name for v in problem.variables]
    got = assemble_bounds(fc, rows, problem.normalized_pairs(), names)
    return ScalarResult(
        got.inner, got.outer, fc, rows, "mean-value", got.inner_failed_pair, got.outer_failed_pair
    )


def solve_scalar(
    problem: QuantifiedProblem,
    expr: Expr,
    supplied_rows: Mapping[str, ContributionRow] | None = None,
) -> ScalarResult:
    """Bound the quantified range of expr under the problem's prefix."""
    return assemble(prepare(problem, expr, supplied_rows), problem)
