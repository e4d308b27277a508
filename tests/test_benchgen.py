"""Benchmark family generators: the alternating affine family and the
unicycle-motion family."""

from __future__ import annotations

from fractions import Fraction

import pytest

from quantrange.benchgen import linear_problem, motion_problem
from quantrange.exprs import parse, to_text
from quantrange.intervals import Interval
from quantrange.problem import Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.scalar import affine_coefficients, solve_scalar

from helpers import contains

FA = Quantifier.FORALL
EX = Quantifier.EXISTS


class TestLinearFamily:
    def test_shape_and_domains(self):
        p = linear_problem(5, seed=1)
        assert len(p.variables) == 10
        assert [v.name for v in p.variables] == [f"x{i}" for i in range(1, 11)]
        assert all(v.domain == Interval(-1.0, 1.0) and v.center == 0.0 for v in p.variables)
        assert len(p.blocks) == 10
        for i, block in enumerate(p.blocks):
            assert len(block.names) == 1
            assert block.quantifier is (FA if i % 2 == 0 else EX)
        assert len(p.normalized_pairs()) == 5

    def test_deterministic_per_seed(self):
        assert linear_problem(4, seed=9) == linear_problem(4, seed=9)
        assert linear_problem(4, seed=9) != linear_problem(4, seed=10)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            linear_problem(0)

    @pytest.mark.parametrize("k,seed", [(5, 0), (5, 3), (17, 100)])
    def test_coefficients_are_dyadic_and_existentially_dominated(self, k, seed):
        p = linear_problem(k, seed=seed)
        got = affine_coefficients(p.outputs[0].expr)
        assert got is not None
        constant, coeffs = got
        for value in [constant, *coeffs.values()]:
            assert Fraction(1024) % Fraction(value).denominator == 0
            assert abs(value) <= 1
        for i in range(1, k + 1):
            ua = abs(coeffs.get(f"x{2 * i - 1}", Fraction(0)))
            ea = abs(coeffs.get(f"x{2 * i}", Fraction(0)))
            assert ea >= ua

    @pytest.mark.parametrize("k", [1, 2, 7, 25])
    def test_inner_equals_outer_and_nonempty(self, k):
        p = linear_problem(k, seed=k)
        res = solve_scalar(p, p.outputs[0].expr)
        assert res.method == "exact-affine"
        assert res.inner == res.outer  # bitwise
        assert res.inner.lo <= res.inner.hi


class TestMotionFamily:
    def test_shape_and_domains(self):
        k = 4
        p = motion_problem(k)
        assert len(p.variables) == 3 + 2 * k
        names = [v.name for v in p.variables]
        assert names[0] == "x0" and names[1] == "theta0" and names[-1] == "delta"
        spec = {v.name: v for v in p.variables}
        quantifier = {n: b.quantifier for b in p.blocks for n in b.names}
        assert spec["x0"].domain == Interval(-0.1, 0.1)
        assert spec["theta0"].domain == Interval(-0.01, 0.01)
        for i in range(1, k + 1):
            assert spec[f"a{i}"].domain == Interval(-0.01, 0.01)
            assert spec[f"b{i}"].domain == Interval(-0.01, 0.01)
            assert quantifier[f"a{i}"] is EX
            assert quantifier[f"b{i}"] is FA
        slack = 0.005 * (k + 1)
        assert spec["delta"].domain == Interval(-slack, slack)
        assert len(p.normalized_pairs()) == k + 1

    def test_deterministic(self):
        a, b = motion_problem(3), motion_problem(3)
        assert [v.name for v in a.variables] == [v.name for v in b.variables]
        assert a.blocks == b.blocks
        res_a = solve_scalar(a, a.outputs[0].expr)
        res_b = solve_scalar(b, b.outputs[0].expr)
        assert res_a.inner == res_b.inner and res_a.outer == res_b.outer

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            motion_problem(0)

    def test_expression_uses_every_variable(self):
        p = motion_problem(3)
        assert p.outputs[0].expr.variables == {v.name for v in p.variables}

    def test_single_step_pinned_bounds(self):
        p = motion_problem(1)
        res = solve_scalar(p, p.outputs[0].expr)
        assert res.method == "mean-value"
        assert res.inner == Interval(0.395, 0.605)
        assert res.outer == Interval(0.3948875042187025, 0.6051124957812976)
        assert res.inner_failed_pair is None

    def test_ten_step_pinned_bounds(self):
        p = motion_problem(10)
        res = solve_scalar(p, p.outputs[0].expr)
        assert res.inner == Interval(4.8950000000000005, 5.1049999999999995)
        assert res.outer == Interval(4.886940660655247, 5.113059339344753)

    def test_degenerate_controls_reduce_to_affine_translation(self):
        # Pinning heading and step controls to zero turns the step term into
        # exactly 0.5, so the solve must agree bit-for-bit with the affine
        # problem x0 + 0.5 + delta under the same prefix.
        p = motion_problem(1)
        pinned_vars = tuple(
            VariableSpec(v.name, Interval(0.0, 0.0), 0.0)
            if v.name in ("theta0", "a1", "b1")
            else v
            for v in p.variables
        )
        pinned = QuantifiedProblem(pinned_vars, p.blocks, p.outputs)
        res = solve_scalar(pinned, pinned.outputs[0].expr)

        affine = QuantifiedProblem(
            pinned_vars, p.blocks, (Output("x", parse("x0 + 0.5 + delta")),)
        )
        ref = solve_scalar(affine, affine.outputs[0].expr)
        assert ref.method == "exact-affine"
        assert res.inner == ref.inner
        assert res.outer == ref.outer

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_inner_nonempty_and_inside_outer(self, k):
        p = motion_problem(k)
        res = solve_scalar(p, p.outputs[0].expr)
        assert res.inner_failed_pair is None
        assert contains(res.outer, res.inner)


@pytest.mark.parametrize(
    "problem", [linear_problem(50, seed=3), motion_problem(1), motion_problem(10)],
    ids=["linear50", "motion1", "motion10"],
)
def test_generated_tape_is_the_parse_of_its_text(problem):
    """Every slot but the root is read, and the printed expression parses
    back to the same slots in the same order."""
    tape = problem.outputs[0].expr
    assert min(tape.readers[:-1]) >= 1 and tape.readers[-1] == 0
    assert parse(to_text(tape)) == tape
