"""Vector solves: per-component outer bounds on the original prefix, inner
bounds on the rewritten prefix of a chosen existential-variable assignment,
and the exhaustive/greedy assignment searches."""

from __future__ import annotations

import sys

import pytest

from quantrange.exprs import parse
from quantrange.intervals import EMPTY, Interval, is_empty
from quantrange.problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.problemfile import load_problem
from quantrange.scalar import solve_scalar
from quantrange.vectorsolve import (
    OutputError,
    derived_blocks,
    existential_order,
    inner_for_assignment,
    solve_vector,
)

from conftest import FIXTURES

FA = Quantifier.FORALL
EX = Quantifier.EXISTS


def _b(q, *names):
    return Block(q, tuple(names))


@pytest.fixture(scope="module")
def linear_system():
    return load_problem(str(FIXTURES / "linear_system.json")).problem


@pytest.fixture(scope="module")
def flow():
    return load_problem(str(FIXTURES / "dubbins_flow.json"))


class TestExistentialOrder:
    def test_normalized_prefix_order(self, linear_system):
        assert existential_order(linear_system) == ("x1", "x3", "x4")


class TestDerivedBlocks:
    def test_other_components_existentials_are_demoted(self, linear_system):
        assignment = {"x1": 0, "x3": 0, "x4": 1}
        assert derived_blocks(linear_system, 0, assignment) == (
            _b(FA),
            _b(EX, "x1"),
            _b(FA, "x2", "x4"),
            _b(EX, "x3"),
        )
        assert derived_blocks(linear_system, 1, assignment) == (
            _b(FA, "x1"),
            _b(EX),
            _b(FA, "x2", "x3"),
            _b(EX, "x4"),
        )

    def test_demoted_names_follow_original_universals(self, linear_system):
        # within a pair, demoted existentials append after the universal names
        got = derived_blocks(linear_system, 0, {"x1": 1, "x3": 0, "x4": 1})
        assert got[2].names == ("x2", "x4")


class TestLinearSystemSolve:
    def test_exhaustive_assignment_and_bounds(self, linear_system):
        res = solve_vector(linear_system)
        assert res.strategy_used == "exhaustive"
        assert res.assignment == {"x1": 0, "x3": 0, "x4": 1}
        z1, z2 = res.components
        assert (z1.name, z2.name) == ("z1", "z2")
        assert z1.inner == Interval(-1.0, 5.0)
        assert z1.outer == Interval(-3.0, 7.0)
        assert z2.inner == Interval(-3.0, 1.0)
        assert z2.outer == Interval(-7.0, 5.0)
        assert z1.method == "exact-affine" and z2.method == "exact-affine"
        assert not res.inner_empty

    def test_alternative_assignments_pin_their_inners(self, linear_system):
        got = inner_for_assignment(linear_system, {"x1": 0, "x3": 1, "x4": 0})
        assert is_empty(got[0]) and is_empty(got[1])
        got = inner_for_assignment(linear_system, {"x1": 1, "x3": 1, "x4": 0})
        assert is_empty(got[0]) and is_empty(got[1])
        got = inner_for_assignment(linear_system, {"x1": 1, "x3": 0, "x4": 1})
        assert is_empty(got[0])
        assert got[1] == Interval(-5.0, 3.0)

    def test_winner_matches_inner_for_assignment(self, linear_system):
        got = inner_for_assignment(linear_system, {"x1": 0, "x3": 0, "x4": 1})
        assert got == (Interval(-1.0, 5.0), Interval(-3.0, 1.0))

    def test_greedy_strategy_is_deterministic_here(self, linear_system):
        res = solve_vector(linear_system, strategy="greedy")
        assert res.strategy_used == "greedy"
        assert res.assignment == {"x1": 0, "x3": 1, "x4": 0}
        # this heuristic choice empties both inners; outer bounds are
        # assignment-independent
        assert res.inner_empty
        assert is_empty(res.components[0].inner) and is_empty(res.components[1].inner)
        assert res.components[0].outer == Interval(-3.0, 7.0)
        assert res.components[1].outer == Interval(-7.0, 5.0)

    def test_pinned_assignment_bypasses_search(self, linear_system):
        res = solve_vector(linear_system, pinned={"x1": 1, "x3": 0, "x4": 1})
        assert res.strategy_used == "pinned"
        assert res.assignment == {"x1": 1, "x3": 0, "x4": 1}
        assert is_empty(res.components[0].inner)
        assert res.components[1].inner == Interval(-5.0, 3.0)

    def test_pinned_must_cover_all_existentials(self, linear_system):
        with pytest.raises(ValueError, match="misses existential"):
            solve_vector(linear_system, pinned={"x1": 0})

    def test_pinned_component_indices_must_exist(self, linear_system):
        with pytest.raises(ValueError, match="unknown components"):
            solve_vector(linear_system, pinned={"x1": 0, "x3": 2, "x4": 0})

    def test_exhaustive_over_limit_raises(self, linear_system):
        with pytest.raises(ValueError, match="over the limit"):
            solve_vector(linear_system, strategy="exhaustive", exhaustive_limit=7)
        solve_vector(linear_system, strategy="exhaustive", exhaustive_limit=8)

    def test_unknown_strategy_rejected(self, linear_system):
        with pytest.raises(ValueError, match="unknown assignment strategy"):
            solve_vector(linear_system, strategy="magic")

    def test_derived_prefix_recorded_per_component(self, linear_system):
        res = solve_vector(linear_system)
        assert res.components[0].derived == (
            _b(FA),
            _b(EX, "x1"),
            _b(FA, "x2", "x4"),
            _b(EX, "x3"),
        )
        assert res.components[1].derived == (
            _b(FA, "x1"),
            _b(EX),
            _b(FA, "x2", "x3"),
            _b(EX, "x4"),
        )


class TestFlowJointSolve:
    def test_single_shared_existential_feeds_one_component(self, flow):
        res = solve_vector(flow.problem, supplied=flow.supplied)
        byname = {c.name: c for c in res.components}
        # only one component can claim the final existential; the widest wins
        assert res.assignment["t"] == 0
        assert byname["x"].inner == Interval(-0.095, 0.5899999819999999)
        assert is_empty(byname["y"].inner)
        assert is_empty(byname["theta"].inner)
        # outer bounds still come from the original prefix per component
        assert byname["x"].outer == Interval(-0.10000196350000001, 0.6050019635)
        assert byname["y"].outer == Interval(-0.10763090000000002, 0.10763090000000002)
        assert byname["theta"].outer == Interval(-0.02, 0.02)
        assert res.inner_empty

    def test_supplied_rows_force_mean_value_method(self, flow):
        res = solve_vector(flow.problem, supplied=flow.supplied)
        assert all(c.method == "mean-value" for c in res.components)


class TestJointFixtureSolve:
    def test_pinned_exhaustive_solution(self):
        loaded = load_problem(str(FIXTURES / "dubbins_joint.json"))
        res = solve_vector(loaded.problem, supplied=loaded.supplied)
        assert res.strategy_used == "exhaustive"
        assert res.assignment == {
            "a": 2, "x0": 0, "y0": 1, "theta0": 2, "t": 0, "d2": 1, "d3": 2,
        }
        byname = {c.name: c for c in res.components}
        assert byname["x"].inner == Interval(-0.0949993455, 0.5899993275)
        assert byname["x"].outer == Interval(-0.10000065450000001, 0.6050006545000001)
        assert byname["y"].inner == Interval(-0.0925, 0.0925)
        assert byname["y"].outer == Interval(-0.10776180000000002, 0.10776180000000002)
        assert byname["theta"].inner == Interval(-0.01, 0.01)
        assert byname["theta"].outer == Interval(-0.025, 0.025)
        assert not res.inner_empty


def _many_existentials_problem(n_exist=13):
    names = [f"e{i}" for i in range(1, n_exist + 1)]
    variables = [VariableSpec(n, Interval(-1.0, 1.0), 0.0) for n in names]
    variables.append(VariableSpec("u", Interval(-0.5, 0.5), 0.0))
    blocks = (_b(FA, "u"), _b(EX, *names))
    outputs = (
        Output("f1", parse(" + ".join(names))),
        Output("f2", parse("e1 - u")),
    )
    return QuantifiedProblem(tuple(variables), blocks, outputs)


class TestStrategySelection:
    def test_auto_falls_back_to_greedy_over_the_limit(self):
        p = _many_existentials_problem()
        res = solve_vector(p)  # 2^13 assignments > default limit
        assert res.strategy_used == "greedy"

    def test_explicit_exhaustive_over_limit_raises_but_can_be_raised(self):
        p = _many_existentials_problem()
        with pytest.raises(ValueError):
            solve_vector(p, strategy="exhaustive")
        res = solve_vector(p, strategy="exhaustive", exhaustive_limit=8192)
        assert res.strategy_used == "exhaustive"

    def test_single_output_skips_the_search(self):
        p = QuantifiedProblem(
            tuple(VariableSpec(f"e{i}", Interval(-1.0, 1.0), 0.0) for i in range(1, 14)),
            (_b(EX, *[f"e{i}" for i in range(1, 14)]),),
            (Output("f", parse(" + ".join(f"e{i}" for i in range(1, 14)))),),
        )
        res = solve_vector(p, exhaustive_limit=4)
        assert res.strategy_used == "exhaustive"
        assert set(res.assignment.values()) == {0}
        assert res.components[0].inner == Interval(-13.0, 13.0)


FIXTURE_FILES = (
    "dubbins_flow.json",
    "dubbins_joint.json",
    "dubbins_taylor.json",
    "linear_system.json",
    "nonlinear_scalar.json",
)


@pytest.mark.parametrize("fixture", FIXTURE_FILES)
def test_each_output_is_prepared_at_most_once(fixture, monkeypatch):
    """The per-output work runs once per output, wherever it is reached from."""
    names = ("eval_grad", "eval_interval", "contribution_rows", "affine_coefficients")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "quantrange"]
    for module in modules:
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counted(name, fn))
    loaded = load_problem(str(FIXTURES / fixture))
    solve_vector(loaded.problem, supplied=loaded.supplied)
    n = len(loaded.problem.outputs)
    assert all(count <= n for count in calls.values()), calls


@pytest.mark.parametrize("fixture", FIXTURE_FILES)
def test_components_match_scalar_solves_bit_for_bit(fixture):
    """Outer fields match solve_scalar on the original prefix, inner fields
    match it on the component's rewritten prefix (repr tells -0.0 from 0.0)."""
    loaded = load_problem(str(FIXTURES / fixture))
    problem, supplied = loaded.problem, loaded.supplied
    res = solve_vector(problem, supplied=supplied)
    for out, comp in zip(problem.outputs, res.components):
        rows = None if supplied is None else supplied.get(out.name)
        ref = solve_scalar(problem, out.expr, rows)
        got = (comp.outer, comp.outer_failed_pair, comp.method, comp.center_value, comp.rows)
        want = (ref.outer, ref.outer_failed_pair, ref.method, ref.center_value, ref.rows)
        assert repr(got) == repr(want), out.name
        ref = solve_scalar(problem.with_blocks(comp.derived), out.expr, rows)
        assert repr((comp.inner, comp.inner_failed_pair)) == repr(
            (ref.inner, ref.inner_failed_pair)
        ), out.name


def test_overflowing_output_is_named():
    p = QuantifiedProblem(
        (VariableSpec("x", Interval(0.0, 1.0), 0.5),),
        (_b(EX, "x"),),
        (Output("ok", parse("x")), Output("big", parse("x*1e300*1e300"))),
    )
    with pytest.raises(OutputError, match=r"output 'big': interval bounds must be finite"):
        solve_vector(p)
