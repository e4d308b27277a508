"""Scalar quantified range bounding: contribution rows, pairwise assembly,
and the exact affine path.

Fixture value pins are bit-exact regression anchors computed once from the
implementation and cross-checked by hand where tractable.
"""

from __future__ import annotations

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantrange import scalar
from quantrange.benchgen import linear_problem
from quantrange.exprs import parse
from quantrange.intervals import EMPTY, Interval, is_empty
from quantrange.problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.problemfile import load_problem
from quantrange.scalar import (
    ZERO_ROW,
    AssembledBounds,
    ContributionRow,
    affine_coefficients,
    assemble_bounds,
    contribution_rows,
    exact_affine_range,
    prepare,
    solve_scalar,
)

from conftest import FIXTURES
from helpers import oracle_first_failing_pair, oracle_first_failing_pair_one_pass

FA = Quantifier.FORALL
EX = Quantifier.EXISTS


def _b(q, *names):
    return Block(q, tuple(names))


def _simple_problem(expr_text, var_specs, blocks):
    """var_specs: list of (name, lo, hi, center)."""
    return QuantifiedProblem(
        variables=tuple(VariableSpec(n, Interval(lo, hi), c) for n, lo, hi, c in var_specs),
        blocks=tuple(blocks),
        outputs=(Output("f", parse(expr_text)),),
    )


# ---------------------------------------------------------------------------
# Contribution rows
# ---------------------------------------------------------------------------


class TestContributionRow:
    def test_rows_must_contain_zero(self):
        ContributionRow(Interval(-1.0, 1.0), Interval(-2.0, 2.0))
        with pytest.raises(ValueError):
            ContributionRow(Interval(0.5, 1.0), Interval(-2.0, 2.0))
        with pytest.raises(ValueError):
            ContributionRow(Interval(-1.0, 1.0), Interval(-2.0, -0.5))

    def test_zero_row(self):
        assert ZERO_ROW.inner == Interval(0.0, 0.0)
        assert ZERO_ROW.outer == Interval(0.0, 0.0)


class TestContributionRows:
    def test_affine_rows_with_asymmetric_center(self):
        p = _simple_problem(
            "x + 2*y",
            [("x", -1.0, 1.0, 0.0), ("y", 0.0, 4.0, 1.0)],
            [_b(FA, "x"), _b(EX, "y")],
        )
        rows = contribution_rows(p.outputs[0].expr, p)
        assert rows["x"] == ContributionRow(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
        assert rows["y"] == ContributionRow(Interval(-2.0, 6.0), Interval(-2.0, 6.0))

    def test_negative_slope_flips_deviations(self):
        p = _simple_problem(
            "-2*x", [("x", 0.0, 3.0, 1.0)], [_b(EX, "x")]
        )
        rows = contribution_rows(p.outputs[0].expr, p)
        # slope -2, backward deviation 1, forward deviation 2
        assert rows["x"] == ContributionRow(Interval(-4.0, 2.0), Interval(-4.0, 2.0))

    def test_sign_straddling_gradient_zeroes_inner_row(self):
        p = _simple_problem(
            "x*y",
            [("x", -1.0, 1.0, 0.0), ("y", -1.0, 1.0, 0.0)],
            [_b(EX, "x"), _b(FA, "y")],
        )
        rows = contribution_rows(p.outputs[0].expr, p)
        assert rows["x"].inner == Interval(0.0, 0.0)
        assert rows["x"].outer == Interval(-1.0, 1.0)

    def test_wide_positive_gradient_uses_minimum_slope_for_inner(self):
        p = _simple_problem("x^2", [("x", 1.0, 3.0, 2.0)], [_b(EX, "x")])
        rows = contribution_rows(p.outputs[0].expr, p)
        # gradient enclosure 2x over [1,3] is [2,6]
        assert rows["x"].inner == Interval(-2.0, 2.0)
        assert rows["x"].outer == Interval(-6.0, 6.0)

    def test_unused_declared_variable_gets_zero_row(self):
        p = _simple_problem(
            "x",
            [("x", -1.0, 1.0, 0.0), ("z", -5.0, 5.0, 0.0)],
            [_b(EX, "x", "z")],
        )
        rows = contribution_rows(p.outputs[0].expr, p)
        assert rows["z"] == ZERO_ROW


# ---------------------------------------------------------------------------
# Pairwise assembly
# ---------------------------------------------------------------------------


def _row(ilo, ihi, olo, ohi):
    return ContributionRow(Interval(ilo, ihi), Interval(olo, ohi))


class TestAssembleBounds:
    def test_single_existential_with_thick_center_value(self):
        fc = Interval(10.0, 11.0)
        rows = {"x": _row(-2.0, 3.0, -2.0, 3.0)}
        pairs = ((_b(FA), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs, ["x"])
        # inner must hold for every center value in [10, 11]
        assert got.inner == Interval(9.0, 13.0)
        assert got.outer == Interval(8.0, 14.0)
        assert got.inner_failed_pair is None and got.outer_failed_pair is None

    def test_alternation_condition_holds_at_equality(self):
        fc = Interval(0.0, 0.0)
        rows = {"u": _row(0.0, 0.0, -1.0, 1.0), "x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs, ["u", "x"])
        assert got.inner == Interval(0.0, 0.0)
        assert got.inner_failed_pair is None

    def test_alternation_condition_strictly_violated_empties_inner(self):
        eps = 2.0**-20
        fc = Interval(0.0, 0.0)
        rows = {"u": _row(0.0, 0.0, -1.0 - eps, 1.0), "x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs, ["u", "x"])
        assert is_empty(got.inner)
        assert got.inner_failed_pair == 1

    def test_failure_reported_for_second_pair(self):
        fc = Interval(0.0, 0.0)
        rows = {"x": _row(-3.0, 3.0, -3.0, 3.0), "u": _row(0.0, 0.0, -2.0, 2.0)}
        pairs = ((_b(FA), _b(EX, "x")), (_b(FA, "u"), _b(EX)))
        got = assemble_bounds(fc, rows, pairs, ["x", "u"])
        assert is_empty(got.inner)
        assert got.inner_failed_pair == 2
        # outer is fine: trailing universal block is credited inward
        assert got.outer == Interval(-3.0, 3.0)
        assert got.outer_failed_pair is None

    def test_outer_falls_back_to_plain_enclosure_when_condition_fails(self):
        fc = Interval(0.0, 0.0)
        rows = {"u": _row(-3.0, 3.0, -3.0, 3.0), "x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs, ["u", "x"])
        assert got.outer == Interval(-4.0, 4.0)
        assert got.outer_failed_pair == 1
        assert is_empty(got.inner) and got.inner_failed_pair == 1

    def test_wide_center_value_can_empty_inner_without_condition_failure(self):
        fc = Interval(0.0, 10.0)
        rows = {"x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs, ["x"])
        assert is_empty(got.inner)
        assert got.inner_failed_pair is None
        assert got.outer == Interval(-1.0, 11.0)

    def test_missing_rows_count_as_zero(self):
        fc = Interval(1.0, 1.0)
        rows = {"x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs, ["u", "x"])
        assert got.inner == Interval(0.0, 2.0)
        assert got.outer == Interval(0.0, 2.0)


# Few distinct values, zero among them, so that conditions often hold with
# equality; a few odd denominators keep the sums genuinely rational.
_WIDTH = st.sampled_from([0, 0, 1, 1, 2, 3]).map(Fraction) | st.fractions(0, 4, max_denominator=7)


def _assembled_failing_pair(forall, exists):
    """The inner failing pair of assemble_bounds on one universal and one
    existential variable per pair whose row widths are the given ones."""
    rows, pairs = {}, []
    for l, (f, e) in enumerate(zip(forall, exists)):
        rows[f"u{l}"] = _row(0.0, 0.0, 0.0, float(f))
        rows[f"e{l}"] = _row(0.0, float(e), 0.0, float(e))
        pairs.append((_b(FA, f"u{l}"), _b(EX, f"e{l}")))
    return assemble_bounds(Interval(0.0, 0.0), rows, pairs, list(rows)).inner_failed_pair


# Dyadic widths are exact as float rows.
_DYADIC_WIDTH = st.sampled_from([0, 0, 1, 1, 2, 3]).map(Fraction) | st.integers(0, 64).map(
    lambda k: Fraction(k, 16)
)


class TestFirstFailingPair:
    @pytest.mark.parametrize(
        "forall, exists, want",
        [
            ([], [], None),
            ([1], [1], None),  # equality holds
            ([1, 1], [1, 1], None),  # equality at both pairs
            ([0, 2], [1, 1], 2),  # pair 1 holds with equality, pair 2 fails
            ([2, 0], [1, 1], None),  # pair 1 holds with equality
            ([3, 0], [1, 1], 1),
            ([3, 1], [1, 0], 1),  # both fail: the first is reported
            ([0, 0, 0], [0, 0, 0], None),
        ],
    )
    def test_cases(self, forall, exists, want):
        forall, exists = [Fraction(w) for w in forall], [Fraction(w) for w in exists]
        assert _assembled_failing_pair(forall, exists) == want
        assert oracle_first_failing_pair_one_pass(forall, exists) == want
        assert oracle_first_failing_pair(forall, exists) == want

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_quadratic_oracle(self, data):
        pairs = data.draw(st.lists(st.tuples(_WIDTH, _WIDTH), max_size=8))
        forall, exists = [f for f, _ in pairs], [e for _, e in pairs]
        want = oracle_first_failing_pair(forall, exists)
        assert oracle_first_failing_pair_one_pass(forall, exists) == want

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_assembly_matches_quadratic_oracle(self, data):
        pairs = data.draw(st.lists(st.tuples(_DYADIC_WIDTH, _DYADIC_WIDTH), max_size=8))
        forall, exists = [f for f, _ in pairs], [e for _, e in pairs]
        want = oracle_first_failing_pair(forall, exists)
        assert _assembled_failing_pair(forall, exists) == want


# ---------------------------------------------------------------------------
# Affine coefficient extraction and the exact affine range
# ---------------------------------------------------------------------------


class TestAffineCoefficients:
    def test_folds_constants_exactly(self):
        got = affine_coefficients(parse("2 + 3*x - y/2 + x^1 + (1 + 1)*y"))
        assert got == (Fraction(2), {"x": Fraction(4), "y": Fraction(3, 2)})

    def test_pure_constant_expressions(self):
        assert affine_coefficients(parse("2^3")) == (Fraction(8), {})
        assert affine_coefficients(parse("-(1/4)")) == (Fraction(-1, 4), {})

    def test_power_zero_is_constant_one(self):
        assert affine_coefficients(parse("x^0")) == (Fraction(1), {})

    @pytest.mark.parametrize(
        "text",
        ["x*y", "sin(x)", "cos(x)", "msin(x, y)", "x^2", "(x + 1)*(y + 2)", "1/x", "x/(y + 1)"],
    )
    def test_non_affine_forms_return_none(self, text):
        assert affine_coefficients(parse(text)) is None

    def test_division_by_constant(self):
        assert affine_coefficients(parse("x/4")) == (Fraction(0), {"x": Fraction(1, 4)})

    def test_division_by_zero_constant_is_not_affine(self):
        assert affine_coefficients(parse("x/0")) is None

    def test_constant_powers_fold_up_to_the_bit_bound(self):
        c = Fraction(1.0000001)
        got = affine_coefficients(parse("x + 1.0000001^1024"))
        assert got == (c**1024, {"x": Fraction(1)})
        # c^(2^20) would need about 55 million bits; the subtree is left to
        # interval evaluation instead of being folded
        assert affine_coefficients(parse("x + (1.0000001^1024)^1024")) is None
        assert affine_coefficients(parse("((1.0000001^1024)^1024)^1024")) is None

    @pytest.mark.parametrize(
        "text",
        [
            "x + (1.0000001^1024)*(1.0000001^1024)",
            "x + 1.0000001^1024 + 1/1.0000001^1024",
            "x/1.0000001^1024/1.0000001^1024",
            "(1.0000001^1024)*x*(1.0000001^1024)",
        ],
    )
    def test_sums_products_and_quotients_fold_up_to_the_bit_bound(self, text):
        # each power folds to about 54,000 bits; combining two exceeds 65,536
        assert affine_coefficients(parse(text)) is None

    def test_long_product_of_large_constants_leaves_for_the_mean_value_route(self):
        # about 7 s of rational gcds when every product was folded
        text = "x + " + "*".join(["(1.0000001^1024)"] * 30)
        problem = _simple_problem(text, [("x", -1.0, 1.0, 0.0)], [_b(EX, "x")])
        start = time.perf_counter()
        result = solve_scalar(problem, problem.outputs[0].expr)
        assert time.perf_counter() - start < 1.0
        assert result.method == "mean-value"

    def test_trigonometric_tape_without_a_zero_power_is_not_folded(self, monkeypatch):
        calls = []
        fold = scalar._affine_step
        monkeypatch.setattr(scalar, "_affine_step", lambda *args: calls.append(args[0]) or fold(*args))
        assert affine_coefficients(parse("x + 2*msin(x, y)")) is None
        assert calls == []
        tape = parse("x + msin(x, y)^0")
        assert affine_coefficients(tape) == (Fraction(1), {"x": Fraction(1)})
        assert len(calls) == len(tape.code)

    def test_dropped_terms_cancel(self):
        got = affine_coefficients(parse("x - x + y"))
        assert got == (Fraction(0), {"x": Fraction(0), "y": Fraction(1)})


class TestExactAffineRange:
    def test_existential_covers_universal(self):
        p = _simple_problem(
            "x1 + 2*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        got = exact_affine_range(Fraction(0), {"x1": Fraction(1), "x2": Fraction(2)}, p)
        assert got == (Fraction(-1), Fraction(1))

    def test_universal_dominates_gives_empty(self):
        p = _simple_problem(
            "2*x1 + x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        assert exact_affine_range(Fraction(0), {"x1": Fraction(2), "x2": Fraction(1)}, p) is None

    def test_non_dyadic_constant_stays_exact(self):
        p = _simple_problem(
            "x1 + 2*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        got = exact_affine_range(Fraction(1, 3), {"x1": Fraction(1), "x2": Fraction(2)}, p)
        assert got == (Fraction(-2, 3), Fraction(4, 3))

    def test_asymmetric_domain_rescaled_around_midpoint(self):
        p = _simple_problem("x", [("x", 0.0, 3.0, 0.5)], [_b(EX, "x")])
        got = exact_affine_range(Fraction(0), {"x": Fraction(1)}, p)
        assert got == (Fraction(0), Fraction(3))

    def test_missing_coefficients_count_as_zero(self):
        p = _simple_problem(
            "x1",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x2"), _b(EX, "x1")],
        )
        got = exact_affine_range(Fraction(0), {"x1": Fraction(1)}, p)
        assert got == (Fraction(-1), Fraction(1))


# ---------------------------------------------------------------------------
# solve_scalar dispatch and fixture pins
# ---------------------------------------------------------------------------


class TestSolveScalarDispatch:
    def test_affine_goes_exact_and_matches_row_assembly(self):
        p = _simple_problem(
            "x1 + 2*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        exact = solve_scalar(p, p.outputs[0].expr)
        assert exact.method == "exact-affine"
        assert exact.inner == Interval(-1.0, 1.0)
        assert exact.outer == Interval(-1.0, 1.0)
        # forcing the mean-value path with the computed rows agrees here
        forced = solve_scalar(p, p.outputs[0].expr, supplied_rows=exact.rows)
        assert forced.method == "mean-value"
        assert forced.inner == exact.inner
        assert forced.outer == exact.outer

    def test_affine_empty_set_reports_both_bounds_empty(self):
        p = _simple_problem(
            "2*x1 + x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        got = solve_scalar(p, p.outputs[0].expr)
        assert got.method == "exact-affine"
        assert is_empty(got.inner) and is_empty(got.outer)

    def test_supplied_zero_rows_collapse_to_center_value(self):
        p = _simple_problem(
            "x1 + 2*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        got = solve_scalar(
            p, p.outputs[0].expr, supplied_rows={"x1": ZERO_ROW, "x2": ZERO_ROW}
        )
        assert got.inner == Interval(0.0, 0.0)
        assert got.outer == Interval(0.0, 0.0)

    def test_exact_affine_still_reports_rows(self):
        p = _simple_problem(
            "x1 + 2*x2",
            [("x1", -1.0, 1.0, 0.0), ("x2", -1.0, 1.0, 0.0)],
            [_b(FA, "x1"), _b(EX, "x2")],
        )
        got = solve_scalar(p, p.outputs[0].expr)
        assert got.rows == contribution_rows(p.outputs[0].expr, p)


class TestNonlinearScalarFixture:
    def test_pinned_bounds_and_rows(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        p = loaded.problem
        got = solve_scalar(p, p.outputs[0].expr)
        assert got.method == "mean-value"
        assert got.center_value == Interval(11.0, 11.0)
        assert got.inner == Interval(10.0, 12.0)
        assert got.outer == Interval(1.5, 20.5)
        assert got.rows["x1"] == _row(0.0, 0.0, -0.5, 0.5)
        assert got.rows["x2"] == _row(-1.0, 1.0, -3.0, 3.0)
        assert got.rows["x3"] == _row(-4.0, 4.0, -10.0, 10.0)
        assert got.inner_failed_pair is None and got.outer_failed_pair is None


class TestPolynomialFlowFixture:
    def test_pinned_bounds_and_rows(self):
        loaded = load_problem(str(FIXTURES / "dubbins_taylor.json"))
        p = loaded.problem
        got = solve_scalar(p, p.outputs[0].expr)
        assert got.method == "mean-value"
        assert got.inner == Interval(-0.09499996725, 0.5899999017499999)
        assert got.outer == Interval(-0.1, 0.6050000655000002)
        assert got.rows["e1"] == _row(-0.1, 0.1, -0.1, 0.1)
        assert got.rows["e2"] == _row(0.0, 0.0, -0.005, 0.005)
        assert got.rows["e3"] == _row(0.0, 0.0, -3.275e-08, 3.275e-08)
        assert got.rows["t"].inner == Interval(0.0, 0.49499993449999996)
        assert got.rows["t"].outer == Interval(0.0, 0.5050000655000001)


class TestSuppliedRowsFixture:
    def test_supplied_rows_force_mean_value_on_affine_outputs(self):
        loaded = load_problem(str(FIXTURES / "dubbins_flow.json"))
        p = loaded.problem
        # every output expression here is affine, but supplied rows must win
        for out in p.outputs:
            got = solve_scalar(p, out.expr, supplied_rows=loaded.supplied[out.name])
            assert got.method == "mean-value"

    def test_pinned_per_output_bounds(self):
        loaded = load_problem(str(FIXTURES / "dubbins_flow.json"))
        p = loaded.problem
        results = {}
        for out in p.outputs:
            results[out.name] = solve_scalar(p, out.expr, supplied_rows=loaded.supplied[out.name])
        assert results["x"].inner == Interval(-0.095, 0.5899999819999999)
        assert results["x"].outer == Interval(-0.10000196350000001, 0.6050019635)
        assert results["y"].inner == Interval(-0.1, 0.1)
        assert results["y"].outer == Interval(-0.10763090000000002, 0.10763090000000002)
        assert results["theta"].inner == Interval(-0.01, 0.01)
        assert results["theta"].outer == Interval(-0.02, 0.02)


class TestPrepareCost:
    def test_prepare_memory_is_linear_in_a_long_sum(self):
        # about 10 MB when each sum copied its left operand's partial dict
        problem = linear_problem(400)
        tracemalloc.start()
        try:
            prepare(problem, problem.outputs[0].expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
