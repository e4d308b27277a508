"""Quantified range problems: variables on boxes under an alternating prefix.

A problem quantifies each input variable of a vector function with "forall"
or "exists", in a fixed left-to-right block order.  The solvers work on the
normalized form of that prefix:

  * empty blocks are dropped and adjacent blocks with the same quantifier
    are merged (quantifier order within the problem is preserved);
  * a leading empty "forall" block is inserted when the prefix starts
    existentially, and a trailing empty "exists" block is appended when it
    ends universally.

The normalized prefix therefore strictly alternates
forall, exists, forall, exists, ... with an even number of blocks, i.e. a
sequence of (forall, exists) pairs.  Normalization is idempotent and does
not change the described set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .exprs import Tape
from .intervals import Interval

__all__ = [
    "Quantifier",
    "Block",
    "VariableSpec",
    "Output",
    "QuantifiedProblem",
    "normalize_blocks",
    "existential_order",
]


class Quantifier(str, Enum):
    FORALL = "forall"
    EXISTS = "exists"


@dataclass(frozen=True, slots=True)
class Block:
    """One quantifier block: an ordered group of variable names."""

    quantifier: Quantifier
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.names)


def normalize_blocks(blocks: Sequence[Block]) -> tuple[Block, ...]:
    """Normalize a raw block list to alternating (forall, exists) pairs."""
    merged: list[Block] = []
    for block in blocks:
        if len(block) == 0:
            continue
        if merged and merged[-1].quantifier is block.quantifier:
            merged[-1] = Block(block.quantifier, merged[-1].names + block.names)
        else:
            merged.append(Block(block.quantifier, block.names))
    if not merged or merged[0].quantifier is Quantifier.EXISTS:
        merged.insert(0, Block(Quantifier.FORALL, ()))
    if merged[-1].quantifier is Quantifier.FORALL:
        merged.append(Block(Quantifier.EXISTS, ()))
    assert len(merged) % 2 == 0
    for k, block in enumerate(merged):
        expected = Quantifier.FORALL if k % 2 == 0 else Quantifier.EXISTS
        assert block.quantifier is expected
    return tuple(merged)


@dataclass(frozen=True, slots=True)
class VariableSpec:
    """A named input with its interval domain and linearization center."""

    name: str
    domain: Interval
    center: float

    def __post_init__(self) -> None:
        if not (self.domain.lo <= self.center <= self.domain.hi):
            raise ValueError(
                f"center {self.center!r} of variable '{self.name}' lies outside "
                f"its domain {self.domain!r}"
            )


@dataclass(frozen=True, slots=True)
class Output:
    """A named output component with its defining expression."""

    name: str
    expr: Tape


@dataclass(frozen=True, slots=True)
class QuantifiedProblem:
    """Vector function outputs over quantified boxed variables.

    variables: declaration order fixes the canonical variable order.
    blocks:    the raw quantifier prefix, left to right.
    outputs:   the components of the vector function.
    """

    variables: tuple[VariableSpec, ...]
    blocks: tuple[Block, ...]
    outputs: tuple[Output, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in problem")
        declared = set(names)
        seen: set[str] = set()
        for block in self.blocks:
            for name in block.names:
                if name not in declared:
                    raise ValueError(f"block references undeclared variable '{name}'")
                if name in seen:
                    raise ValueError(f"variable '{name}' appears in more than one block")
                seen.add(name)
        missing = declared - seen
        if missing:
            raise ValueError(f"variables not covered by any block: {sorted(missing)}")
        out_names = [o.name for o in self.outputs]
        if len(set(out_names)) != len(out_names):
            raise ValueError("duplicate output names in problem")
        if not self.outputs:
            raise ValueError("problem has no outputs")
        for out in self.outputs:
            free = out.expr.variables - declared
            if free:
                raise ValueError(
                    f"output '{out.name}' references undeclared variables: {sorted(free)}"
                )

    # ---- views -----------------------------------------------------------

    def domains(self) -> dict[str, Interval]:
        return {v.name: v.domain for v in self.variables}

    def center_env(self) -> dict[str, Interval]:
        """Degenerate point box at the linearization center."""
        return {v.name: Interval(v.center, v.center) for v in self.variables}

    def normalized(self) -> tuple[Block, ...]:
        return normalize_blocks(self.blocks)

    def normalized_pairs(self) -> tuple[tuple[Block, Block], ...]:
        """(forall, exists) block pairs of the normalized prefix."""
        blocks = self.normalized()
        return tuple((blocks[2 * k], blocks[2 * k + 1]) for k in range(len(blocks) // 2))


def existential_order(problem: QuantifiedProblem) -> tuple[str, ...]:
    """Existential variables in normalized-prefix order: the canonical order
    of assignment vectors, and bit i of a kept set names the i-th one."""
    return tuple(name for _, ex in problem.normalized_pairs() for name in ex.names)
