"""Problem model: prefix normalization and declaration validation."""

from __future__ import annotations

import random

import pytest

from quantrange.exprs import parse
from quantrange.intervals import Interval
from quantrange.problem import (
    Block,
    Output,
    QuantifiedProblem,
    Quantifier,
    VariableSpec,
    normalize_blocks,
)

from helpers import centers, with_blocks

FA = Quantifier.FORALL
EX = Quantifier.EXISTS


def _b(q, *names):
    return Block(q, tuple(names))


class TestNormalizeBlocks:
    def test_leading_existential_gets_empty_universal(self):
        got = normalize_blocks([_b(EX, "a", "b", "c", "d"), _b(FA, "e"), _b(EX, "f")])
        assert got == (_b(FA), _b(EX, "a", "b", "c", "d"), _b(FA, "e"), _b(EX, "f"))

    def test_adjacent_same_quantifier_blocks_merge(self):
        got = normalize_blocks([_b(FA, "a", "b"), _b(FA, "c")])
        assert got == (_b(FA, "a", "b", "c"), _b(EX))

    def test_trailing_universal_gets_empty_existential(self):
        got = normalize_blocks([_b(FA, "a"), _b(EX, "b"), _b(FA, "c")])
        assert got == (_b(FA, "a"), _b(EX, "b"), _b(FA, "c"), _b(EX))

    def test_empty_prefix_normalizes_to_one_trivial_pair(self):
        assert normalize_blocks([]) == (_b(FA), _b(EX))

    def test_interior_empty_blocks_are_dropped(self):
        got = normalize_blocks([_b(FA), _b(EX, "a"), _b(FA)])
        assert got == (_b(FA), _b(EX, "a"))

    def test_merge_across_dropped_empty_block(self):
        got = normalize_blocks([_b(EX, "a"), _b(FA), _b(EX, "b")])
        assert got == (_b(FA), _b(EX, "a", "b"))

    def test_order_within_and_across_blocks_is_preserved(self):
        got = normalize_blocks([_b(FA, "x2", "x1"), _b(FA, "x3")])
        assert got[0].names == ("x2", "x1", "x3")

    def test_idempotent(self):
        cases = [
            [],
            [_b(EX, "a")],
            [_b(FA, "a"), _b(FA, "b"), _b(EX, "c"), _b(EX, "d"), _b(FA, "e")],
        ]
        for blocks in cases:
            once = normalize_blocks(blocks)
            assert normalize_blocks(once) == once

    def test_random_prefixes_normalize_to_alternating_even_length(self):
        rng = random.Random(5)
        for _ in range(100):
            blocks = []
            idx = 0
            for _ in range(rng.randint(0, 6)):
                names = tuple(f"v{idx + i}" for i in range(rng.randint(0, 3)))
                idx += len(names)
                blocks.append(Block(rng.choice((FA, EX)), names))
            got = normalize_blocks(blocks)
            assert len(got) % 2 == 0 and len(got) >= 2
            for k, block in enumerate(got):
                assert block.quantifier is (FA if k % 2 == 0 else EX)
            flat = [n for b in got for n in b.names]
            assert flat == [n for b in blocks for n in b.names]
            assert normalize_blocks(got) == got


class TestVariableSpec:
    def test_center_inside_domain(self):
        spec = VariableSpec("x", Interval(-1.0, 1.0), 0.25)
        assert spec.center == 0.25

    def test_center_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            VariableSpec("x", Interval(-1.0, 1.0), 1.5)

    def test_center_on_boundary_is_allowed(self):
        VariableSpec("x", Interval(-1.0, 1.0), 1.0)
        VariableSpec("x", Interval(-1.0, 1.0), -1.0)


def _problem(**overrides):
    base = dict(
        variables=(
            VariableSpec("x", Interval(-1.0, 1.0), 0.0),
            VariableSpec("y", Interval(0.0, 2.0), 1.0),
        ),
        blocks=(_b(EX, "x"), _b(FA, "y")),
        outputs=(Output("f", parse("x + y")),),
    )
    base.update(overrides)
    return QuantifiedProblem(**base)


class TestQuantifiedProblemValidation:
    def test_valid_problem_constructs(self):
        _problem()

    def test_duplicate_variable_names(self):
        with pytest.raises(ValueError, match="duplicate variable"):
            _problem(
                variables=(
                    VariableSpec("x", Interval(-1.0, 1.0), 0.0),
                    VariableSpec("x", Interval(0.0, 2.0), 1.0),
                )
            )

    def test_variable_in_two_blocks(self):
        with pytest.raises(ValueError, match="more than one block"):
            _problem(blocks=(_b(EX, "x"), _b(FA, "y", "x")))

    def test_block_references_undeclared_variable(self):
        with pytest.raises(ValueError, match="undeclared"):
            _problem(blocks=(_b(EX, "x"), _b(FA, "y", "z")))

    def test_variable_not_covered_by_any_block(self):
        with pytest.raises(ValueError, match="not covered"):
            _problem(blocks=(_b(EX, "x"),))

    def test_duplicate_output_names(self):
        with pytest.raises(ValueError, match="duplicate output"):
            _problem(outputs=(Output("f", parse("x")), Output("f", parse("y"))))

    def test_no_outputs(self):
        with pytest.raises(ValueError, match="no outputs"):
            _problem(outputs=())

    def test_output_references_undeclared_variable(self):
        with pytest.raises(ValueError, match="undeclared"):
            _problem(outputs=(Output("f", parse("x + q")),))


class TestViews:
    def test_lookup_and_dict_views(self):
        p = _problem()
        assert p.domains() == {"x": Interval(-1.0, 1.0), "y": Interval(0.0, 2.0)}
        assert centers(p) == {"x": 0.0, "y": 1.0}
        assert p.center_env() == {"x": Interval(0.0, 0.0), "y": Interval(1.0, 1.0)}

    def test_normalized_pairs(self):
        p = _problem()
        pairs = p.normalized_pairs()
        assert pairs == ((_b(FA), _b(EX, "x")), (_b(FA, "y"), _b(EX)))

    def test_with_blocks_replaces_only_that_field(self):
        p = _problem()
        r = with_blocks(p, (_b(FA, "x", "y"),))
        assert r.blocks == (_b(FA, "x", "y"),) and r.outputs == p.outputs

    def test_with_blocks_still_validates(self):
        p = _problem()
        with pytest.raises(ValueError):
            with_blocks(p, (_b(FA, "x"),))  # y no longer covered
