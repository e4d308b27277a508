"""Grid-sampling estimator: alternating hull/intersection recursion, the
affine vertex oracle of the test helpers, and tightness ratios."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import quantrange.exprs as exprs_mod
import quantrange.sampling as sampling_mod
from quantrange.exprs import parse
from quantrange.intervals import EMPTY, Interval, is_empty
from quantrange.problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.problemfile import load_problem
from quantrange.sampling import (
    EmptyEstimate,
    _grid,
    ratio_pair,
    sampling_estimate,
    work_digits,
)
from quantrange.scalar import exact_affine_range, solve_scalar
from quantrange.vectorsolve import solve_vector

from conftest import FIXTURES
from helpers import (
    _oracle_estimate,
    contains,
    make_affine_problem,
    make_random_problem,
    oracle_sampling_estimate,
    tree_of,
    vertex_oracle_affine,
)

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
        p = _problem("x", [("x", -1.0, 1.0, 0.0)], [_b(EX, "x")])
        with pytest.raises(ValueError):
            sampling_estimate(p, 1)
        sampling_estimate(p, 2)

    def test_work_digits(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        assert math.isclose(work_digits(loaded.problem, 41), 3 * math.log10(41))
        assert math.isclose(work_digits(loaded.problem, 10), 3.0)

    def test_point_domains_count_one_value(self):
        p = _problem(
            "x + y + z",
            [("x", -1.0, 1.0, 0.0), ("y", 0.5, 0.5, 0.5), ("z", 0.0, 2.0, 1.0)],
            [_b(EX, "x", "y"), _b(FA, "z")],
        )
        sizes = [len(_grid(v.domain, 10)) for v in p.variables]
        assert sizes == [10, 1, 10]
        assert work_digits(p, 10) == 2.0


def test_one_tape_per_output_and_one_column_sweep_per_outer_assignment(monkeypatch):
    """On the 41^3 grid the sampler sweeps the innermost variable's column
    once per assignment of the outer two variables, 41^2 times, and never
    sweeps the whole tape at a grid point."""
    calls = {"eval_point": 0, "column": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (exprs_mod, sampling_mod):
        monkeypatch.setattr(module, "eval_point", counted("eval_point", module.eval_point))
    stages = sampling_mod._Stages
    monkeypatch.setattr(stages, "column", counted("column", stages.column))
    loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
    (got,) = sampling_estimate(loaded.problem, 41)
    assert got == Interval(6.0, 16.25)
    assert calls == {"eval_point": 0, "column": 41**2}


class TestGrids:
    def test_uniform_endpoint_grid(self):
        got = _grid(Interval(0.0, 1.0), 5)
        assert got == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_two_point_grid_is_the_endpoints(self):
        assert _grid(Interval(-1.0, 3.0), 2) == [-1.0, 3.0]

    def test_degenerate_domain_is_a_single_point(self):
        got = _grid(Interval(2.0, 2.0), 7)
        assert got == [2.0]

    def test_overflowing_width_keeps_the_points_inside(self):
        assert _grid(Interval(-1e308, 1e308), 3) == [-1e308, 0.0, 1e308]

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(2, 41),
    )
    @example(-sys.float_info.max, sys.float_info.max, 41)
    @example(-sys.float_info.max, -5e-324, 2)
    @example(-1e308, 1e308, 3)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_points_are_finite_ordered_and_inside(self, a, b, points):
        """Over the whole finite range; a grid of finite width is the plain
        lo + i*step grid, bit for bit."""
        lo, hi = min(a, b), max(a, b)
        got = _grid(Interval(lo, hi), points)
        assert all(math.isfinite(x) and lo <= x <= hi for x in got)
        assert got == sorted(got)
        assert len(got) == (1 if lo == hi else points)
        if lo != hi and math.isfinite(hi - lo):
            step = (hi - lo) / (points - 1)
            assert got == [lo] + [lo + i * step for i in range(1, points - 1)] + [hi]


class TestEstimateValues:
    def test_endpoint_estimate_on_nonlinear_fixture(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        (got,) = sampling_estimate(loaded.problem, 2)
        assert got == Interval(6.25, 16.25)

    def test_dense_estimate_on_nonlinear_fixture(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        (got,) = sampling_estimate(loaded.problem, 41)
        assert got == Interval(6.0, 16.25)

    def test_universal_grid_intersection_can_empty_the_estimate(self):
        p = _problem(
            "x1*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(EX, "x1"), _b(FA, "x2")],
        )
        (got,) = sampling_estimate(p, 2)
        assert is_empty(got)
        # a grid containing the witness x1 = 0 recovers the exact answer {0}
        (got3,) = sampling_estimate(p, 3)
        assert got3 == Interval(0.0, 0.0)

    def test_empty_range_under_a_universal_empties_the_estimate(self):
        # for a = 1 no value of a*c is attained for every c, whatever b is,
        # so no single value is attained for every a either
        p = _problem(
            "a*c + b",
            [("a", 0.0, 1.0, 0.5), ("b", 0.0, 0.0, 0.0), ("c", -1.0, 1.0, 0.0)],
            [_b(FA, "a"), _b(EX, "b"), _b(FA, "c")],
        )
        (got,) = sampling_estimate(p, 2)
        assert is_empty(got)

    def test_existential_refinement_grows_the_hull(self):
        p = _problem("sin(x) + x", [("x", -2.0, 2.0, 0.0)], [_b(EX, "x")])
        est = {
            k: sampling_estimate(p, k)[0] for k in (2, 3, 5)
        }
        assert contains(est[5], est[3])
        assert contains(est[3], est[2])

    def test_universal_refinement_shrinks_the_estimate(self):
        p = _problem(
            "x + sin(3*y)",
            [("y", -1.0, 1.0, 0.0), ("x", -2.0, 2.0, 0.0)],
            [_b(FA, "y"), _b(EX, "x")],
        )
        est = {
            k: sampling_estimate(p, k)[0] for k in (3, 5, 9)
        }
        assert contains(est[3], est[5])
        assert contains(est[5], est[9])

    def test_multi_output_estimates_are_per_output(self):
        p = QuantifiedProblem(
            (VariableSpec("x", Interval(-1.0, 1.0), 0.0),),
            (_b(EX, "x"),),
            (Output("f", parse("x")), Output("g", parse("2*x"))),
        )
        got = sampling_estimate(p, 2)
        assert got == (Interval(-1.0, 1.0), Interval(-2.0, 2.0))

    def test_matches_the_recursive_oracle_on_random_problems(self):
        rng = random.Random(2024)
        empty = 0
        for _ in range(150):
            p = make_random_problem(rng, n_outputs=2)
            points = rng.choice((2, 3, 4))
            got = sampling_estimate(p, points)
            assert repr(got) == repr(oracle_sampling_estimate(p, points))
            empty += sum(map(is_empty, got))
        assert empty > 0  # some grid intersections cross

    @pytest.mark.parametrize(
        "expr_text, var_specs, blocks, want",
        [
            # under every a, each x leaves a crossed intersection over y
            (
                "a + x*y",
                [("a", 0.0, 1.0, 0.5), ("x", 1.0, 2.0, 1.5), ("y", -1.0, 1.0, 0.0)],
                [_b(FA, "a"), _b(EX, "x"), _b(FA, "y")],
                EMPTY,
            ),
            # the same under an existential: every level above is empty too
            (
                "a + x*y",
                [("a", 0.0, 1.0, 0.5), ("x", 1.0, 2.0, 1.5), ("y", -1.0, 1.0, 0.0)],
                [_b(EX, "a", "x"), _b(FA, "y")],
                EMPTY,
            ),
            # every leaf is NaN (inf - inf), so the hull folds nothing
            ("x*1e308*10 - x*1e308*10", [("x", 1.0, 2.0, 1.5)], [_b(EX, "x")], EMPTY),
            # a NaN leaf beside a finite one leaves the finite value
            (
                "x*1e308*10 - x*1e308*10",
                [("x", 0.0, 1.0, 0.5)],
                [_b(EX, "x")],
                Interval(0.0, 0.0),
            ),
        ],
    )
    def test_existential_levels_with_only_empty_children(
        self, expr_text, var_specs, blocks, want
    ):
        p = _problem(expr_text, var_specs, blocks)
        got = sampling_estimate(p, 2)
        assert repr(got) == repr(oracle_sampling_estimate(p, 2)) == repr((want,))


# Cases where folding a column differs from folding its grid points one by
# one unless the fold is seeded with the level's running range and keeps
# grid order, or where a slot's stage is not the innermost one.
FOLD_TRAPS = {
    # [nan, ..., 0.0]: min(column) would be nan; the running fold skips it
    "nan first, exists": ("x*1e308*10 - x*1e308*10", [("x", -1.0, 0.0, 0.0)], [_b(EX, "x")]),
    "nan first, forall": ("x*1e308*10 - x*1e308*10", [("x", -1.0, 0.0, 0.0)], [_b(FA, "x")]),
    # 0.0 and -0.0 tie: the first in grid order is kept
    "signed zeros, exists": ("-(x*0)", [("x", -1.0, 1.0, 0.0)], [_b(EX, "x")]),
    "signed zeros, forall": ("-(x*0)", [("x", -1.0, 1.0, 0.0)], [_b(FA, "x")]),
    "signed product, exists": (
        "y*x",
        [("x", -1.0, 1.0, 0.0), ("y", -1.0, 1.0, 0.0)],
        [_b(FA, "y"), _b(EX, "x")],
    ),
    "signed product, forall": (
        "y*x",
        [("x", -1.0, 1.0, 0.0), ("y", -1.0, 1.0, 0.0)],
        [_b(EX, "y"), _b(FA, "x")],
    ),
    # the root reads no innermost variable: each a gives {a + 2}
    "root above the column": (
        "a + 2",
        [("a", 0.0, 1.0, 0.5), ("x", -1.0, 1.0, 0.0)],
        [_b(FA, "a"), _b(EX, "x")],
    ),
    "point-domain innermost block": (
        "a*x + x",
        [("a", -1.0, 1.0, 0.0), ("x", 0.5, 0.5, 0.5)],
        [_b(FA, "a"), _b(EX, "x")],
    ),
    "two-variable innermost block": (
        "a + sin(x)*y - x",
        [("a", 0.0, 1.0, 0.5), ("x", -1.0, 1.0, 0.0), ("y", -2.0, 0.0, -1.0)],
        [_b(FA, "a"), _b(EX, "x", "y")],
    ),
    "no variables in the output": (
        "2 + 3",
        [("a", 0.0, 1.0, 0.5), ("x", -1.0, 1.0, 0.0)],
        [_b(FA, "a"), _b(EX, "x")],
    ),
}
FOLD_WANT = {
    "nan first, exists": Interval(0.0, 0.0),
    "nan first, forall": Interval(0.0, 0.0),
    "root above the column": EMPTY,
    "no variables in the output": Interval(5.0, 5.0),
}


@pytest.mark.parametrize("points", [2, 3, 5])
@pytest.mark.parametrize("case", sorted(FOLD_TRAPS))
def test_column_folds_match_the_recursive_oracle(case, points):
    p = _problem(*FOLD_TRAPS[case])
    got = sampling_estimate(p, points)
    assert repr(got) == repr(oracle_sampling_estimate(p, points))
    if case in FOLD_WANT:
        assert got == (FOLD_WANT[case],)
    # Interval turns -0.0 into 0.0, so compare the raw ranges for the
    # zero that each fold keeps
    tape, blocks = p.outputs[0].expr, p.normalized()
    grids = {v.name: _grid(v.domain, points) for v in p.variables}
    raw = sampling_mod._estimate_component(tape, blocks, grids)
    assert repr(raw) == repr(_oracle_estimate(tree_of(tape), blocks, grids, {}, 0))


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
        (est,) = sampling_estimate(loaded.problem, 2)
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
        vest = sampling_estimate(linear, 2)
        assert len(vres.components) == len(vest) == 2
        for comp, est in zip(vres.components, vest):
            inner_ratio, outer_ratio = ratio_pair(comp.inner, comp.outer, est)
            assert 0.0 < inner_ratio <= outer_ratio
