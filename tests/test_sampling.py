"""Grid-sampling estimator: alternating hull/intersection recursion, the
affine vertex oracle, and tightness ratios."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from quantrange.exprs import parse
from quantrange.intervals import EMPTY, Interval, is_empty
from quantrange.problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.problemfile import load_problem
from quantrange.sampling import (
    EmptyEstimate,
    SamplingConfig,
    _grid,
    ratio_pair,
    sampling_estimate,
    vertex_oracle_affine,
    work_digits,
)
from quantrange.scalar import exact_affine_range, solve_scalar
from quantrange.vectorsolve import solve_vector

from conftest import FIXTURES
from helpers import make_affine_problem

FA = Quantifier.FORALL
EX = Quantifier.EXISTS


def _b(q, *names):
    return Block(q, tuple(names))


def _problem(expr_text, var_specs, blocks):
    return QuantifiedProblem(
        variables=tuple(VariableSpec(n, Interval(lo, hi), c) for n, lo, hi, c in var_specs),
        blocks=tuple(blocks),
        outputs=(Output("f", parse(expr_text)),),
    )


class TestSamplingConfig:
    def test_points_floor(self):
        with pytest.raises(ValueError):
            SamplingConfig(points=1)
        SamplingConfig(points=2)

    def test_work_digits(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        assert math.isclose(work_digits(loaded.problem, 41), 3 * math.log10(41))
        assert math.isclose(work_digits(loaded.problem, 10), 3.0)


class TestGrids:
    def test_uniform_endpoint_grid(self):
        got = _grid(Interval(0.0, 1.0), SamplingConfig(points=5), None)
        assert got == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_two_point_grid_is_the_endpoints(self):
        assert _grid(Interval(-1.0, 3.0), SamplingConfig(points=2), None) == [-1.0, 3.0]

    def test_degenerate_domain_is_a_single_point(self):
        got = _grid(Interval(2.0, 2.0), SamplingConfig(points=7), None)
        assert got == [2.0]

    def test_interior_grid_excludes_endpoints(self):
        got = _grid(
            Interval(0.0, 1.0), SamplingConfig(points=3, include_endpoints=False), None
        )
        assert got == [0.25, 0.5, 0.75]
        assert 0.0 not in got and 1.0 not in got

    def test_seeded_grid_keeps_endpoints_and_sorts_interior(self):
        rng = random.Random(11)
        got = _grid(Interval(0.0, 1.0), SamplingConfig(points=6, seed=11), rng)
        assert len(got) == 6
        assert got[0] == 0.0 and got[-1] == 1.0
        assert got == sorted(got)
        assert all(0.0 < v < 1.0 for v in got[1:-1])

    def test_seeded_estimates_are_reproducible(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        cfg = SamplingConfig(points=4, seed=11)
        a = sampling_estimate(loaded.problem, cfg)
        b = sampling_estimate(loaded.problem, cfg)
        assert a == b
        c = sampling_estimate(loaded.problem, SamplingConfig(points=4, seed=12))
        assert a != c


class TestEstimateValues:
    def test_endpoint_estimate_on_nonlinear_fixture(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        (got,) = sampling_estimate(loaded.problem, SamplingConfig(points=2))
        assert got == Interval(6.25, 16.25)

    def test_dense_estimate_on_nonlinear_fixture(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        (got,) = sampling_estimate(loaded.problem, SamplingConfig(points=41))
        assert got == Interval(6.0, 16.25)

    def test_universal_grid_intersection_can_empty_the_estimate(self):
        p = _problem(
            "x1*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(EX, "x1"), _b(FA, "x2")],
        )
        (got,) = sampling_estimate(p, SamplingConfig(points=2))
        assert is_empty(got)
        # a grid containing the witness x1 = 0 recovers the exact answer {0}
        (got3,) = sampling_estimate(p, SamplingConfig(points=3))
        assert got3 == Interval(0.0, 0.0)

    def test_existential_refinement_grows_the_hull(self):
        p = _problem("sin(x) + x", [("x", -2.0, 2.0, 0.0)], [_b(EX, "x")])
        est = {
            k: sampling_estimate(p, SamplingConfig(points=k))[0] for k in (2, 3, 5)
        }
        assert est[5].contains_interval(est[3])
        assert est[3].contains_interval(est[2])

    def test_universal_refinement_shrinks_the_estimate(self):
        p = _problem(
            "x + sin(3*y)",
            [("y", -1.0, 1.0, 0.0), ("x", -2.0, 2.0, 0.0)],
            [_b(FA, "y"), _b(EX, "x")],
        )
        est = {
            k: sampling_estimate(p, SamplingConfig(points=k))[0] for k in (3, 5, 9)
        }
        assert est[3].contains_interval(est[5])
        assert est[5].contains_interval(est[9])

    def test_multi_output_estimates_are_per_output(self):
        p = QuantifiedProblem(
            (VariableSpec("x", Interval(-1.0, 1.0), 0.0),),
            (_b(EX, "x"),),
            (Output("f", parse("x")), Output("g", parse("2*x"))),
        )
        got = sampling_estimate(p, SamplingConfig(points=2))
        assert got == (Interval(-1.0, 1.0), Interval(-2.0, 2.0))


class TestVertexOracle:
    def test_matches_exact_affine_range_on_random_problems(self):
        rng = random.Random(314)
        for _ in range(50):
            constant, coeffs, problem = make_affine_problem(rng)
            frac_coeffs = {k: Fraction(v) for k, v in coeffs.items()}
            exact = exact_affine_range(Fraction(constant), frac_coeffs, problem)
            got = vertex_oracle_affine(constant, coeffs, problem)
            if exact is None:
                assert is_empty(got)
            else:
                assert not is_empty(got)
                assert Fraction(got.lo) == exact[0]
                assert Fraction(got.hi) == exact[1]

    def test_empty_case(self):
        p = _problem(
            "2*x1 + x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        assert is_empty(vertex_oracle_affine(0.0, {"x1": 2.0, "x2": 1.0}, p))

    def test_simple_value(self):
        p = _problem(
            "x1 + 2*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        assert vertex_oracle_affine(0.0, {"x1": 1.0, "x2": 2.0}, p) == Interval(-1.0, 1.0)


class TestRatios:
    def test_ratio_pair_on_nonlinear_fixture(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        res = solve_scalar(loaded.problem, loaded.problem.outputs[0].expr)
        (est,) = sampling_estimate(loaded.problem, SamplingConfig(points=2))
        inner_ratio, outer_ratio = ratio_pair(res.inner, res.outer, est)
        assert inner_ratio == 0.2
        assert outer_ratio == 1.9

    def test_empty_inner_gives_zero_ratio(self):
        got = ratio_pair(EMPTY, Interval(0.0, 2.0), Interval(0.0, 1.0))
        assert got == (0.0, 2.0)

    def test_empty_estimate_raises(self):
        with pytest.raises(EmptyEstimate):
            ratio_pair(Interval(0.0, 1.0), Interval(0.0, 2.0), EMPTY)

    def test_empty_outer_raises(self):
        with pytest.raises(EmptyEstimate):
            ratio_pair(EMPTY, EMPTY, Interval(0.0, 1.0))

    def test_degenerate_widths(self):
        assert ratio_pair(Interval(1.0, 1.0), Interval(1.0, 1.0), Interval(1.0, 1.0)) == (1.0, 1.0)
        got = ratio_pair(Interval(0.0, 1.0), Interval(0.0, 1.0), Interval(0.5, 0.5))
        assert got == (math.inf, math.inf)
        assert ratio_pair(EMPTY, Interval(1.0, 1.0), Interval(1.0, 1.0)) == (0.0, 1.0)

    def test_ratio_pair_on_linear_system_components(self):
        linear = load_problem(str(FIXTURES / "linear_system.json")).problem
        vres = solve_vector(linear)
        vest = sampling_estimate(linear, SamplingConfig(points=2))
        assert len(vres.components) == len(vest) == 2
        for comp, est in zip(vres.components, vest):
            inner_ratio, outer_ratio = ratio_pair(comp.inner, comp.outer, est)
            assert 0.0 < inner_ratio <= outer_ratio
