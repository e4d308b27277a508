"""Benchmark problem generators: alternating linear and unicycle-motion families.

linear_problem(k, seed): 2k variables on [-1, 1] under k strictly alternating
(forall 1, exists 1) singleton blocks, with an affine output whose
coefficients are drawn from a seeded generator on the dyadic grid
{i/1024 : -1024 <= i <= 1024}.  Within each pair the existential coefficient
magnitude is raised to at least the universal one, which guarantees a
non-empty quantified range; the dyadic grid keeps every float computation on
these problems exact, so inner and outer bounds coincide bit-for-bit.

motion_problem(k): discretized unicycle x-position after k steps of length
0.5.  Variables: initial position x0 in [-0.1, 0.1], heading theta0 in
[-0.01, 0.01], per-step controls a_i (existential) and disturbances b_i
(universal) in [-0.01, 0.01], and a final slack delta in
[-0.005*(k+1), 0.005*(k+1)].  Output:

    x0 + sum_i 0.5 * msin(theta0 + 0.5 * (a_1 + ... + a_{i-1}), 0.5 * a_i)
       + 0.5 * (b_1 + ... + b_k) + delta

under the prefix exists{x0, theta0}, (exists a_i, forall b_i) * k,
exists{delta} — normalizing to k+1 alternations.  The msin primitive is the
continuous extension of (sin(u+v) - sin u)/v, removing the 1/a_i singularity
of the closed-form step while agreeing with it wherever a_i != 0.  The slack
radius grows with k exactly fast enough that every alternation condition
holds with margin, keeping the inner bound non-empty for all k.
"""

from __future__ import annotations

import random

from .exprs import ADD, CONST, MSIN, MUL, NEG, SUB, VAR, TapeBuilder
from .intervals import Interval
from .problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec

__all__ = ["linear_problem", "motion_problem"]

_UNIT = Interval(-1.0, 1.0)


def linear_problem(k: int, seed: int = 0) -> QuantifiedProblem:
    """Alternating affine benchmark with 2k variables; deterministic per seed."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = random.Random(seed)

    def dyadic() -> int:
        return rng.randint(-1024, 1024)

    variables: list[VariableSpec] = []
    blocks: list[Block] = []
    # Emitted in the parser's order (negative terms as subtractions of
    # positive literals), so the printed text re-parses to the same tape.
    builder = TapeBuilder()
    emit = builder.emit
    constant = dyadic()
    root = emit(CONST, abs(constant) / 1024.0)
    if constant < 0:
        root = emit(NEG, root)
    for i in range(1, k + 1):
        ua = dyadic()
        ea = dyadic()
        if abs(ea) < abs(ua):  # existential must dominate its pair
            ea = abs(ua) if ea >= 0 else -abs(ua)
        for name, quantifier, coeff in (
            (f"x{2 * i - 1}", Quantifier.FORALL, ua),
            (f"x{2 * i}", Quantifier.EXISTS, ea),
        ):
            variables.append(VariableSpec(name, _UNIT, 0.0))
            blocks.append(Block(quantifier, (name,)))
            if coeff != 0:
                term = emit(MUL, emit(CONST, abs(coeff) / 1024.0), emit(VAR, name))
                root = emit(ADD if coeff > 0 else SUB, root, term)
    return QuantifiedProblem(
        tuple(variables), tuple(blocks), (Output("f", builder.tape()),)
    )


def motion_problem(k: int) -> QuantifiedProblem:
    """Unicycle x-position benchmark with 3 + 2k variables, k+1 alternations."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    small = Interval(-0.01, 0.01)
    slack = 0.005 * (k + 1)

    variables = [
        VariableSpec("x0", Interval(-0.1, 0.1), 0.0),
        VariableSpec("theta0", small, 0.0),
    ]
    blocks = [Block(Quantifier.EXISTS, ("x0", "theta0"))]
    for i in range(1, k + 1):
        variables.append(VariableSpec(f"a{i}", small, 0.0))
        variables.append(VariableSpec(f"b{i}", small, 0.0))
        blocks.append(Block(Quantifier.EXISTS, (f"a{i}",)))
        blocks.append(Block(Quantifier.FORALL, (f"b{i}",)))
    variables.append(VariableSpec("delta", Interval(-slack, slack), 0.0))
    blocks.append(Block(Quantifier.EXISTS, ("delta",)))

    # Emitted in the parser's order; heading i is the sum read by step i,
    # so the last heading, which no step reads, is never emitted.
    builder = TapeBuilder()
    emit = builder.emit
    root = emit(VAR, "x0")
    half = emit(CONST, 0.5)
    heading = step = None
    for i in range(1, k + 1):
        heading = emit(VAR, "theta0") if i == 1 else emit(ADD, heading, step)
        step = emit(MUL, half, emit(VAR, f"a{i}"))
        root = emit(ADD, root, emit(MUL, half, emit(MSIN, heading, step)))
    for i in range(1, k + 1):
        root = emit(ADD, root, emit(MUL, half, emit(VAR, f"b{i}")))
    root = emit(ADD, root, emit(VAR, "delta"))

    return QuantifiedProblem(
        tuple(variables), tuple(blocks), (Output("x", builder.tape()),)
    )
