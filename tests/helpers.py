"""Deterministic generators shared by the property and acceptance suites,
and the slow references that the fast paths are tested against: the
four-corner interval product and quotient (for the sign-case kernels),
tree-walking evaluators built on them and a tree-walking affine fold (for
the compiled tape), the alternation check (one-pass and quadratic), the
bound assembly and the exact affine range summed in Fractions, the inner
bound of one assembly alone and brute-force assignment search (for the
integer row model and the solvers), and the affine vertex oracle (for the
exact affine route).

Everything here is seeded by the caller; the same rng state always yields the
same problems, so failures reproduce exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from quantrange.exprs import (
    Add,
    Const,
    Cos,
    Div,
    Expr,
    GradEnclosure,
    MissingVariable,
    Msin,
    Mul,
    Neg,
    Pow,
    Sin,
    Sub,
    Var,
    msin_enclosures,
    parse,
    variables_of,
)
from quantrange.intervals import (
    EMPTY,
    DivisionByZeroInterval,
    Interval,
    MaybeInterval,
    div_down,
    div_up,
    frac_to_float_down,
    frac_to_float_up,
    is_empty,
    iv_add,
    iv_cos,
    iv_neg,
    iv_pow,
    iv_sin,
    iv_sub,
    mul_down,
    mul_up,
)
from quantrange.problem import (
    Block,
    Output,
    Quantifier,
    QuantifiedProblem,
    VariableSpec,
)
from quantrange.sampling import _grid, sampling_estimate
from quantrange.scalar import (
    ZERO_ROW,
    AssembledBounds,
    ContributionRow,
    PreparedOutput,
    ScalarResult,
)
from quantrange.vectorsolve import derived_blocks


def dyadic(rng: random.Random, denom: int, lo: int, hi: int) -> float:
    """A float of the form k/denom with k in [lo*denom, hi*denom]."""
    return rng.randint(lo * denom, hi * denom) / denom


def make_affine_problem(rng: random.Random):
    """Random affine problem with dyadic data.

    Returns (constant, coeffs, problem) where the single output is
    constant + sum(coeffs[name] * name).  All numbers are dyadic rationals that
    floats represent exactly, so text round-trips and exact rational
    arithmetic agree bit for bit.
    """
    p = rng.randint(1, 8)
    names = [f"x{i}" for i in range(1, p + 1)]
    blocks = tuple(
        Block(rng.choice((Quantifier.FORALL, Quantifier.EXISTS)), (name,))
        for name in names
    )
    variables = []
    for name in names:
        a = rng.randint(-128, 128) / 64
        b = rng.randint(-128, 128) / 64
        lo, hi = min(a, b), max(a, b)
        dom = Interval(lo, hi)
        variables.append(VariableSpec(name, dom, dom.mid))
    constant = rng.randint(-1024, 1024) / 1024
    coeffs = {name: rng.randint(-1024, 1024) / 1024 for name in names}
    text = repr(constant) + "".join(
        f" + {coeffs[name]!r}*{name}" for name in names
    )
    problem = QuantifiedProblem(
        blocks=blocks,
        variables=tuple(variables),
        outputs=(Output("f", parse(text)),),
    )
    return constant, coeffs, problem


def _random_tree(rng: random.Random, names: list[str], depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Var(rng.choice(names))
        return Const(dyadic(rng, 16, -2, 2))
    kind = rng.choice(
        ("add", "sub", "mul", "neg", "pow", "sin", "cos", "msin")
    )
    a = _random_tree(rng, names, depth - 1)
    if kind == "add":
        return Add(a, _random_tree(rng, names, depth - 1))
    if kind == "sub":
        return Sub(a, _random_tree(rng, names, depth - 1))
    if kind == "mul":
        return Mul(a, _random_tree(rng, names, depth - 1))
    if kind == "neg":
        return Neg(a)
    if kind == "pow":
        return Pow(a, rng.choice((2, 3)))
    if kind == "sin":
        return Sin(a)
    if kind == "cos":
        return Cos(a)
    return Msin(a, _random_tree(rng, names, depth - 1))


def random_expr(rng: random.Random, names: list[str]) -> Expr:
    """Random expression over names; always mentions at least one variable."""
    tree = _random_tree(rng, names, depth=3)
    if not variables_of(tree):
        tree = Add(tree, Var(rng.choice(names)))
    return tree


def make_random_problem(rng: random.Random, n_outputs: int = 1) -> QuantifiedProblem:
    """Random nonlinear problem on dyadic sub-boxes of [-2, 2]^p."""
    p = rng.randint(1, 4)
    names = [f"v{i}" for i in range(1, p + 1)]
    blocks = tuple(
        Block(rng.choice((Quantifier.FORALL, Quantifier.EXISTS)), (name,))
        for name in names
    )
    variables = []
    for name in names:
        lo = dyadic(rng, 16, -2, 1)
        width = rng.randint(0, 32) / 16
        dom = Interval(lo, min(lo + width, 2.0))
        variables.append(VariableSpec(name, dom, dom.mid))
    outputs = tuple(
        Output(f"g{j}", random_expr(rng, names)) for j in range(1, n_outputs + 1)
    )
    return QuantifiedProblem(
        blocks=blocks, variables=tuple(variables), outputs=outputs
    )


# ---------------------------------------------------------------------------
# Reference interval kernels: min/max over all four directed corners
# ---------------------------------------------------------------------------


def oracle_iv_mul(a: Interval, b: Interval) -> Interval:
    lo = min(
        mul_down(a.lo, b.lo),
        mul_down(a.lo, b.hi),
        mul_down(a.hi, b.lo),
        mul_down(a.hi, b.hi),
    )
    hi = max(
        mul_up(a.lo, b.lo),
        mul_up(a.lo, b.hi),
        mul_up(a.hi, b.lo),
        mul_up(a.hi, b.hi),
    )
    return Interval(lo, hi)


def oracle_iv_div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise DivisionByZeroInterval(f"division by zero-containing interval {b}")
    lo = min(
        div_down(a.lo, b.lo),
        div_down(a.lo, b.hi),
        div_down(a.hi, b.lo),
        div_down(a.hi, b.hi),
    )
    hi = max(
        div_up(a.lo, b.lo),
        div_up(a.lo, b.hi),
        div_up(a.hi, b.lo),
        div_up(a.hi, b.hi),
    )
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Reference evaluators: one combine per node over a post-order tree walk
# ---------------------------------------------------------------------------


def fold_postorder(root: Expr, combine: Callable[[Expr, tuple[Any, ...]], Any]) -> Any:
    """Bottom-up evaluation without Python recursion.

    combine(node, child_values) produces the value of node from its
    children's values, left to right.  Shared subtree objects are combined
    once and their value reused.
    """
    done: dict[int, Any] = {}
    stack: list[Expr] = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [c for c in node.children() if id(c) not in done]
        if pending:
            stack.extend(reversed(pending))
        else:
            done[id(node)] = combine(node, tuple(done[id(c)] for c in node.children()))
            stack.pop()
    return done[id(root)]


def _lookup(env: Mapping[str, Any], node: Var) -> Any:
    try:
        return env[node.name]
    except KeyError:
        raise MissingVariable(node.name) from None


def oracle_eval_interval(e: Expr, env: Mapping[str, Interval]) -> Interval:
    def combine(node: Expr, kids: tuple[Interval, ...]) -> Interval:
        if isinstance(node, Const):
            return Interval(node.value, node.value)
        if isinstance(node, Var):
            return _lookup(env, node)
        if isinstance(node, Add):
            return iv_add(kids[0], kids[1])
        if isinstance(node, Sub):
            return iv_sub(kids[0], kids[1])
        if isinstance(node, Mul):
            return oracle_iv_mul(kids[0], kids[1])
        if isinstance(node, Div):
            return oracle_iv_div(kids[0], kids[1])
        if isinstance(node, Neg):
            return iv_neg(kids[0])
        if isinstance(node, Pow):
            return iv_pow(kids[0], node.exponent)
        if isinstance(node, Sin):
            return iv_sin(kids[0])
        if isinstance(node, Cos):
            return iv_cos(kids[0])
        return msin_enclosures(kids[0], kids[1])[0]

    return fold_postorder(e, combine)


def oracle_eval_point(e: Expr, env: Mapping[str, float]) -> float:
    def combine(node: Expr, kids: tuple[float, ...]) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return _lookup(env, node)
        if isinstance(node, Add):
            return kids[0] + kids[1]
        if isinstance(node, Sub):
            return kids[0] - kids[1]
        if isinstance(node, Mul):
            return kids[0] * kids[1]
        if isinstance(node, Div):
            return kids[0] / kids[1]
        if isinstance(node, Neg):
            return -kids[0]
        if isinstance(node, Pow):
            return kids[0] ** node.exponent
        if isinstance(node, Sin):
            return math.sin(kids[0])
        if isinstance(node, Cos):
            return math.cos(kids[0])
        u, v = kids
        if v == 0.0:
            return math.cos(u)
        return (math.sin(u + v) - math.sin(u)) / v

    return fold_postorder(e, combine)


_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)


def _merge_linear(
    da: dict[str, Interval],
    db: dict[str, Interval],
    fa: Interval | None,
    fb: Interval | None,
) -> dict[str, Interval]:
    """Sparse combine fa*da + fb*db (None factor means identity)."""
    out: dict[str, Interval] = {}
    for name, d in da.items():
        out[name] = d if fa is None else oracle_iv_mul(fa, d)
    for name, d in db.items():
        term = d if fb is None else oracle_iv_mul(fb, d)
        prev = out.get(name)
        out[name] = term if prev is None else iv_add(prev, term)
    return out


_GradPair = tuple[Interval, dict[str, Interval]]


def _oracle_grad(e: Expr, env: Mapping[str, Interval]) -> _GradPair:
    def combine(node: Expr, kids: tuple[_GradPair, ...]) -> _GradPair:
        if isinstance(node, Const):
            return Interval(node.value, node.value), {}
        if isinstance(node, Var):
            return _lookup(env, node), {node.name: _ONE}
        if isinstance(node, Add):
            (va, da), (vb, db) = kids
            return iv_add(va, vb), _merge_linear(da, db, None, None)
        if isinstance(node, Sub):
            (va, da), (vb, db) = kids
            return iv_sub(va, vb), _merge_linear(da, db, None, Interval(-1.0, -1.0))
        if isinstance(node, Mul):
            (va, da), (vb, db) = kids
            return oracle_iv_mul(va, vb), _merge_linear(da, db, vb, va)
        if isinstance(node, Div):
            (va, da), (vb, db) = kids
            val = oracle_iv_div(va, vb)
            # d(a/b) = (da - (a/b)*db) / b
            out: dict[str, Interval] = {}
            for name in da.keys() | db.keys():
                num = da.get(name, _ZERO)
                d_b = db.get(name)
                if d_b is not None:
                    num = iv_sub(num, oracle_iv_mul(val, d_b))
                out[name] = oracle_iv_div(num, vb)
            return val, out
        if isinstance(node, Neg):
            va, da = kids[0]
            return iv_neg(va), {name: iv_neg(d) for name, d in da.items()}
        if isinstance(node, Pow):
            va, da = kids[0]
            val = iv_pow(va, node.exponent)
            if node.exponent == 0:
                return val, {}
            n = float(node.exponent)
            factor = oracle_iv_mul(Interval(n, n), iv_pow(va, node.exponent - 1))
            return val, {name: oracle_iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Sin):
            va, da = kids[0]
            factor = iv_cos(va)
            return iv_sin(va), {name: oracle_iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Cos):
            va, da = kids[0]
            factor = iv_neg(iv_sin(va))
            return iv_cos(va), {name: oracle_iv_mul(factor, d) for name, d in da.items()}
        (vu, du_map), (vv, dv_map) = kids
        value, d_du, d_dv = msin_enclosures(vu, vv)
        return value, _merge_linear(du_map, dv_map, d_du, d_dv)

    return fold_postorder(e, combine)


def oracle_eval_grad(e: Expr, env: Mapping[str, Interval]) -> GradEnclosure:
    value, sparse = _oracle_grad(e, env)
    return GradEnclosure(value, {name: sparse.get(name, _ZERO) for name in env})


_MAX_FOLD_BITS = 1 << 16  # scalar._MAX_FOLD_BITS


def _foldable(values: Sequence[Fraction]) -> bool:
    return all(max(v.numerator.bit_length(), v.denominator.bit_length()) <= _MAX_FOLD_BITS for v in values)


_AffinePair = tuple[Fraction, dict[str, Fraction]]


def oracle_affine_coefficients(e: Expr) -> _AffinePair | None:
    """scalar.affine_coefficients as a tree walk that folds every node,
    copies every coefficient dict and bounds every folded value."""

    def combine(node: Expr, kids: tuple[_AffinePair | None, ...]) -> _AffinePair | None:
        if isinstance(node, Const):
            return Fraction(node.value), {}
        if isinstance(node, Var):
            return Fraction(0), {node.name: Fraction(1)}
        if isinstance(node, Pow) and node.exponent == 0:
            return Fraction(1), {}
        if isinstance(node, (Sin, Cos, Msin)) or any(k is None for k in kids):
            return None
        if isinstance(node, Neg):
            c, lin = kids[0]
            return -c, {name: -coeff for name, coeff in lin.items()}
        if isinstance(node, Pow):
            c, lin = kids[0]
            if node.exponent == 1:
                return c, dict(lin)
            if lin or max(c.numerator.bit_length(), c.denominator.bit_length()) * node.exponent > _MAX_FOLD_BITS:
                return None
            return c**node.exponent, {}
        (ca, la), (cb, lb) = kids
        if isinstance(node, (Add, Sub)):
            sign = 1 if isinstance(node, Add) else -1
            c, lin = ca + sign * cb, dict(la)
            for name, coeff in lb.items():
                lin[name] = lin.get(name, Fraction(0)) + sign * coeff
        elif isinstance(node, Mul):
            if la and lb:
                return None
            scale, (c, lin) = (ca, (cb, lb)) if not la else (cb, (ca, la))
            c, lin = c * scale, {name: coeff * scale for name, coeff in lin.items()}
        else:  # Div
            if lb or cb == 0:
                return None
            c, lin = ca / cb, {name: coeff / cb for name, coeff in la.items()}
        return (c, lin) if _foldable([c, *lin.values()]) else None

    return fold_postorder(e, combine)


def _oracle_estimate(expr, blocks, grids, env, i):
    if i == len(blocks):
        v = oracle_eval_point(expr, env)
        return (v, v)
    block = blocks[i]
    if not block.names:
        return _oracle_estimate(expr, blocks, grids, env, i + 1)
    universal = block.quantifier is Quantifier.FORALL
    lo, hi = (-math.inf, math.inf) if universal else (math.inf, -math.inf)
    seen = False
    for assignment in itertools.product(*(grids[name] for name in block.names)):
        env.update(zip(block.names, assignment))
        child = _oracle_estimate(expr, blocks, grids, env, i + 1)
        if child is None:
            if universal:
                return None
            continue
        seen = True
        if universal:
            lo, hi = max(lo, child[0]), min(hi, child[1])
        else:
            lo, hi = min(lo, child[0]), max(hi, child[1])
    if not seen or lo > hi:
        return None
    return (lo, hi)


def oracle_sampling_estimate(problem: QuantifiedProblem, points: int) -> tuple:
    """The grid estimate by recursion over the normalized prefix (one
    Python frame per block) and tree-walking point evaluation."""
    grids = {v.name: _grid(v.domain, points) for v in problem.variables}
    out = []
    for output in problem.outputs:
        got = _oracle_estimate(output.expr, problem.normalized(), grids, {}, 0)
        out.append(EMPTY if got is None else Interval(got[0], got[1]))
    return tuple(out)


def oracle_first_failing_pair(
    forall_widths: Sequence[Fraction], exists_widths: Sequence[Fraction]
) -> int | None:
    """The alternation check with every suffix summed afresh (quadratic)."""
    n = len(forall_widths)
    for l in range(n):
        rhs = sum(exists_widths[l:], Fraction(0)) - sum(forall_widths[l + 1 :], Fraction(0))
        if forall_widths[l] > rhs:
            return l + 1
    return None


def oracle_first_failing_pair_one_pass(
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


def _oracle_block_sums(
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


def _inward(lo: Fraction, hi: Fraction) -> MaybeInterval:
    lo_f, hi_f = frac_to_float_up(lo), frac_to_float_down(hi)
    return Interval(lo_f, hi_f) if lo_f <= hi_f else EMPTY


def oracle_inner_bounds(
    fc: Interval, rows: Mapping[str, ContributionRow], pairs: Sequence[tuple[Block, Block]]
) -> tuple[MaybeInterval, int | None]:
    """The inner half of assemble_bounds in Fractions: the box and the
    first failing pair."""
    fa = [_oracle_block_sums(rows, p[0]) for p in pairs]  # universal blocks
    ex = [_oracle_block_sums(rows, p[1]) for p in pairs]  # existential blocks
    # Universal blocks charged their outer rows, existential blocks
    # credited their inner rows.
    inner_lo = Fraction(fc.hi) + sum((fa[k][3] + ex[k][0] for k in range(len(pairs))), Fraction(0))
    inner_hi = Fraction(fc.lo) + sum((ex[k][1] + fa[k][2] for k in range(len(pairs))), Fraction(0))
    failed = oracle_first_failing_pair_one_pass(
        [fa[k][3] - fa[k][2] for k in range(len(pairs))],
        [ex[k][1] - ex[k][0] for k in range(len(pairs))],
    )
    return (EMPTY, failed) if failed is not None else (_inward(inner_lo, inner_hi), None)


def oracle_assemble_bounds(
    fc: Interval,
    rows: Mapping[str, ContributionRow],
    pairs: Sequence[tuple[Block, Block]],
    all_names: Sequence[str],
) -> AssembledBounds:
    """Pairwise inner/outer assembly from contribution rows, summed in
    Fractions block by block."""
    fl, fh = Fraction(fc.lo), Fraction(fc.hi)
    inner, inner_failed = oracle_inner_bounds(fc, rows, pairs)
    fa = [_oracle_block_sums(rows, p[0]) for p in pairs]
    ex = [_oracle_block_sums(rows, p[1]) for p in pairs]
    # Outer: universal blocks credited their inner rows, existential blocks
    # charged their outer rows.
    outer_failed = oracle_first_failing_pair_one_pass(
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


def oracle_exact_affine_range(
    delta0: Fraction,
    coeffs: Mapping[str, Fraction],
    problem: QuantifiedProblem,
) -> tuple[Fraction, Fraction] | None:
    """Exact quantified range of an affine function, None when the set is
    empty, from per-block norms summed in Fractions."""
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
    if oracle_first_failing_pair_one_pass(forall_norms, exists_norms) is not None:
        return None
    offset = sum(exists_norms, Fraction(0)) - sum(forall_norms, Fraction(0))
    return const - offset, const + offset


def oracle_assemble(prepared: PreparedOutput, problem: QuantifiedProblem) -> ScalarResult:
    """assemble(prepared, problem) from the Fraction oracles."""
    fc, rows = prepared.fc, prepared.rows
    if prepared.affine is not None:
        exact = oracle_exact_affine_range(*prepared.affine, problem)
        if exact is None:
            return ScalarResult(EMPTY, EMPTY, fc, rows, "exact-affine")
        lo, hi = exact
        outer = Interval(frac_to_float_down(lo), frac_to_float_up(hi))
        return ScalarResult(_inward(lo, hi), outer, fc, rows, "exact-affine")
    names = [v.name for v in problem.variables]
    got = oracle_assemble_bounds(fc, rows, problem.normalized_pairs(), names)
    return ScalarResult(
        got.inner, got.outer, fc, rows, "mean-value", got.inner_failed_pair, got.outer_failed_pair
    )


def oracle_inner(
    prepared: PreparedOutput, problem: QuantifiedProblem
) -> tuple[MaybeInterval, int | None]:
    """oracle_assemble(prepared, problem)'s inner box and failing pair
    without the outer half, which can fail on its own."""
    if prepared.affine is None:
        return oracle_inner_bounds(prepared.fc, prepared.rows, problem.normalized_pairs())
    exact = oracle_exact_affine_range(*prepared.affine, problem)
    return (EMPTY if exact is None else _inward(*exact)), None


def oracle_exhaustive_assignment(
    problem: QuantifiedProblem,
    prepared: Sequence[PreparedOutput],
    exist_names: Sequence[str],
) -> dict[str, int]:
    """Brute-force search over every assignment: a later assignment wins
    only with a strictly larger (nonempty components, total inner width).
    Each (component, kept set) inner box comes from oracle_inner on the
    rewritten prefix, once."""
    boxes: dict[tuple[int, tuple[bool, ...]], MaybeInterval] = {}
    best_vec: tuple[int, ...] | None = None
    best_score: tuple[int, Fraction] | None = None
    for vec in itertools.product(range(len(prepared)), repeat=len(exist_names)):
        nonempty, width = 0, Fraction(0)
        for j, p in enumerate(prepared):
            kept = tuple(c == j for c in vec)
            if (j, kept) not in boxes:
                derived = derived_blocks(problem, j, dict(zip(exist_names, vec)))
                boxes[j, kept] = oracle_inner(p, problem.with_blocks(derived))[0]
            iv = boxes[j, kept]
            if not is_empty(iv):
                nonempty += 1
                width += Fraction(iv.hi) - Fraction(iv.lo)
        if best_score is None or (nonempty, width) > best_score:
            best_score = (nonempty, width)
            best_vec = vec
    assert best_vec is not None
    return dict(zip(exist_names, best_vec))


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
    oracle_problem = QuantifiedProblem(problem.variables, problem.blocks, (Output("f", expr),))
    return sampling_estimate(oracle_problem, 2)[0]
