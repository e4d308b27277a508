"""Scalar quantified range bounding: contribution rows, pairwise assembly,
the exact affine path and the route prepare takes to them.

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
from quantrange.exprs import eval_grad, eval_interval, parse
from quantrange.intervals import EMPTY, Interval, add_down, add_up, is_empty
from quantrange.problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.problemfile import load_problem
from quantrange.scalar import (
    ContributionRow,
    affine_coefficients,
    assemble_bounds,
    contribution_rows,
    exact_affine_range,
    prepare,
    solve_scalar,
)

from conftest import FIXTURES
from quantrange.vectorsolve import OutputError, solve_vector

from helpers import (
    ZERO_ROW,
    affine_fractions,
    oracle_assemble,
    oracle_exact_affine_range,
    oracle_first_failing_pair,
    oracle_first_failing_pair_one_pass,
    oracle_output,
)

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

    def test_inner_row_must_lie_inside_outer_row(self):
        ContributionRow(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
        for inner in (Interval(-2.0, 2.0), Interval(-1.5, 0.5), Interval(0.0, 1.0 + 2**-52)):
            with pytest.raises(ValueError, match="must lie inside"):
                ContributionRow(inner, Interval(-1.0, 1.0))

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


# Endpoints whose differences are rarely floats: tenths, values far apart
# in magnitude and subnormals.
_ENDPOINTS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 0.1, 0.3, -0.7, 1.0, 3.0, 1e16, -1e100]
) | st.floats(-1e100, 1e100)

_ROW_EXPRS = ("x", "-x", "3*x", "x/7 + y", "x*x", "x*y", "sin(x) - y*y", "(x + 0.1)^3")


def _center(draw, lo, hi):
    """A center anywhere in [lo, hi] (-0.0 and 0.0 bound a point domain)."""
    return lo if lo == hi else draw(st.floats(lo, hi))


@st.composite
def _row_problems(draw):
    """A tape over x and y on float domains, with centers drawn anywhere in
    them, so that c - lo and hi - c are seldom floats."""
    specs = []
    for name in ("x", "y"):
        lo, hi = sorted((draw(_ENDPOINTS), draw(_ENDPOINTS)))
        specs.append((name, lo, hi, _center(draw, lo, hi)))
    return _simple_problem(draw(st.sampled_from(_ROW_EXPRS)), specs, [_b(EX, "x", "y")])


def _check_rows_against_exact_deviations(problem):
    """Each row against the exact deviations lo - c and hi - c, in
    Fractions: the outer row holds g * d at every corner of the gradient
    enclosure g and the deviations d, and the inner row lies inside
    mig(g) times the deviations, signed by the gradient.  The radii
    themselves, c - lo and hi - c rounded up for the outer row and down
    for the inner one, bracket the exact deviations."""
    tape = problem.outputs[0].expr
    grad = eval_grad(tape, problem.domains())
    rows = contribution_rows(tape, problem)
    for spec in problem.variables:
        g, row = grad.partials[spec.name], rows[spec.name]
        for a, b in ((spec.center, -spec.domain.lo), (spec.domain.hi, -spec.center)):
            exact = Fraction(a) + Fraction(b)
            assert Fraction(add_up(a, b)) >= exact >= Fraction(add_down(a, b)) >= 0
        c = Fraction(spec.center)
        d_lo, d_hi = Fraction(spec.domain.lo) - c, Fraction(spec.domain.hi) - c
        corners = [Fraction(s) * d for s in (g.lo, g.hi) for d in (d_lo, d_hi)]
        assert Fraction(row.outer.lo) <= min(corners) and max(corners) <= Fraction(row.outer.hi)
        if g.lo >= 0.0:  # slope at least mig(g) = g.lo
            lo, hi = Fraction(g.lo) * d_lo, Fraction(g.lo) * d_hi
        elif g.hi <= 0.0:  # slope at most -mig(g) = g.hi
            lo, hi = Fraction(g.hi) * d_hi, Fraction(g.hi) * d_lo
        else:
            lo = hi = Fraction(0)
        assert lo <= Fraction(row.inner.lo) and Fraction(row.inner.hi) <= hi


class TestContributionRowRounding:
    """A deviation radius rounded one ulp the wrong way fails here."""

    @given(_row_problems())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_rows_bound_the_exact_contributions(self, problem):
        _check_rows_against_exact_deviations(problem)

    @pytest.mark.parametrize("text", ["x", "-x"])
    def test_off_grid_center(self, text):
        """c = 0.1 on [-1e-17, 0.7]: neither c - lo nor hi - c is a float."""
        p = _simple_problem(text, [("x", -1e-17, 0.7, 0.1)], [_b(EX, "x")])
        _check_rows_against_exact_deviations(p)


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
        got = assemble_bounds(fc, rows, pairs)
        # inner must hold for every center value in [10, 11]
        assert got.inner == Interval(9.0, 13.0)
        assert got.outer == Interval(8.0, 14.0)
        assert got.inner_failed_pair is None and got.outer_failed_pair is None

    def test_alternation_condition_holds_at_equality(self):
        fc = Interval(0.0, 0.0)
        rows = {"u": _row(0.0, 0.0, -1.0, 1.0), "x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs)
        assert got.inner == Interval(0.0, 0.0)
        assert got.inner_failed_pair is None

    def test_alternation_condition_strictly_violated_empties_inner(self):
        eps = 2.0**-20
        fc = Interval(0.0, 0.0)
        rows = {"u": _row(0.0, 0.0, -1.0 - eps, 1.0), "x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs)
        assert is_empty(got.inner)
        assert got.inner_failed_pair == 1

    def test_failure_reported_for_second_pair(self):
        fc = Interval(0.0, 0.0)
        rows = {"x": _row(-3.0, 3.0, -3.0, 3.0), "u": _row(0.0, 0.0, -2.0, 2.0)}
        pairs = ((_b(FA), _b(EX, "x")), (_b(FA, "u"), _b(EX)))
        got = assemble_bounds(fc, rows, pairs)
        assert is_empty(got.inner)
        assert got.inner_failed_pair == 2
        # outer is fine: trailing universal block is credited inward
        assert got.outer == Interval(-3.0, 3.0)
        assert got.outer_failed_pair is None

    def test_outer_falls_back_to_plain_enclosure_when_condition_fails(self):
        fc = Interval(0.0, 0.0)
        rows = {"u": _row(-3.0, 3.0, -3.0, 3.0), "x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs)
        assert got.outer == Interval(-4.0, 4.0)
        assert got.outer_failed_pair == 1
        assert is_empty(got.inner) and got.inner_failed_pair == 1

    def test_wide_center_value_can_empty_inner_without_condition_failure(self):
        fc = Interval(0.0, 10.0)
        rows = {"x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs)
        assert is_empty(got.inner)
        assert got.inner_failed_pair is None
        assert got.outer == Interval(-1.0, 11.0)

    def test_missing_rows_count_as_zero(self):
        fc = Interval(1.0, 1.0)
        rows = {"x": _row(-1.0, 1.0, -1.0, 1.0)}
        pairs = ((_b(FA, "u"), _b(EX, "x")),)
        got = assemble_bounds(fc, rows, pairs)
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
    return assemble_bounds(Interval(0.0, 0.0), rows, pairs).inner_failed_pair


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
        got = affine_fractions(affine_coefficients(parse("2 + 3*x - y/2 + x^1 + (1 + 1)*y")))
        assert got == (Fraction(2), {"x": Fraction(4), "y": Fraction(3, 2)})

    def test_pure_constant_expressions(self):
        assert affine_fractions(affine_coefficients(parse("2^3"))) == (Fraction(8), {})
        assert affine_fractions(affine_coefficients(parse("-(1/4)"))) == (Fraction(-1, 4), {})

    def test_power_zero_is_constant_one(self):
        assert affine_fractions(affine_coefficients(parse("x^0"))) == (Fraction(1), {})

    @pytest.mark.parametrize(
        "text",
        ["x*y", "sin(x)", "cos(x)", "msin(x, y)", "x^2", "(x + 1)*(y + 2)", "1/x", "x/(y + 1)"],
    )
    def test_non_affine_forms_return_none(self, text):
        assert affine_coefficients(parse(text)) is None

    def test_division_by_constant(self):
        assert affine_fractions(affine_coefficients(parse("x/4"))) == (Fraction(0), {"x": Fraction(1, 4)})

    def test_division_by_zero_constant_is_not_affine(self):
        assert affine_coefficients(parse("x/0")) is None

    def test_constant_powers_fold_up_to_the_bit_bound(self):
        c = Fraction(1.0000001)
        got = affine_fractions(affine_coefficients(parse("x + 1.0000001^1024")))
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

    @pytest.mark.parametrize(
        "folds,too_big",
        [
            # a power's bound: 1025 bits of 2**1024 times 63, then 64
            ("x + (0.5^1024)^63", "x + (0.5^1024)^64"),
            # a denominator of 2**65535 has 65,536 bits; 2**65536 has 65,537
            ("x + (0.5^1024)^63*0.5^1023", "x + (0.5^1024)^63*0.5^1024"),
            ("x*(0.5^1024)^63*0.5^1023", "x*(0.5^1024)^63*0.5^1024"),
            # the same on the numerator side
            ("x + (2.0^1023)^64*2.0^63", "x + (2.0^1023)^64*2.0^64"),
        ],
    )
    def test_fold_bit_bound_is_exact(self, folds, too_big):
        assert affine_coefficients(parse(folds)) is not None
        assert affine_coefficients(parse(too_big)) is None

    def test_negative_zero_coefficient_folds_to_zero(self):
        p = _simple_problem(
            "-0.0*x + y", [("x", -1.0, 1.0, 0.0), ("y", -1.0, 1.0, 0.0)], [_b(EX, "x", "y")]
        )
        tape = p.outputs[0].expr
        assert affine_fractions(affine_coefficients(tape)) == (Fraction(0), {"x": Fraction(0), "y": Fraction(1)})
        assert solve_scalar(p, tape).method == "exact-affine"

    def test_fold_past_the_bit_bound_reports_mean_value(self):
        # 0.9^1024 folds (54,273 denominator bits); its 64th power does not
        problem = _simple_problem(
            "((0.9)^1024)^64*u + x", [("u", -1.0, 1.0, 0.0), ("x", -1.0, 1.0, 0.0)], [_b(EX, "u", "x")]
        )
        assert solve_scalar(problem, problem.outputs[0].expr).method == "mean-value"

    def test_dyadic_input_builds_no_fraction(self, monkeypatch):
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        problem = linear_problem(20)
        assert prepare(problem, problem.outputs[0].expr).exact
        assert affine_coefficients(parse("(x/-0.25 + 0.1*y)/2^3 - 1e300*1e-300")) is not None
        assert built == []
        # a quotient by 3 refolds the tape in Fractions
        assert affine_fractions(affine_coefficients(parse("0.5 + x/3"))) == (Fraction(1, 2), {"x": Fraction(1, 3)})
        assert built

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
        assert affine_fractions(affine_coefficients(tape)) == (Fraction(1), {"x": Fraction(1)})
        assert len(calls) == len(tape.code)

    def test_dropped_terms_cancel(self):
        got = affine_fractions(affine_coefficients(parse("x - x + y")))
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
        rows = contribution_rows(p.outputs[0].expr, p)
        forced = solve_scalar(p, p.outputs[0].expr, supplied_rows=rows)
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


def _counted_calls(monkeypatch, names=("eval_grad", "eval_interval", "contribution_rows")):
    """Call counts of the named scalar functions, from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(scalar, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(scalar, name, counted)
    return calls


class TestPrepareRoute:
    """An affine output is built from its folded coefficients alone; the
    gradient and the rows are computed only for the mean-value route."""

    def test_affine_output_computes_no_gradient(self, monkeypatch):
        p = _simple_problem("x/3 + 0.1*y", [("x", 0.0, 1.0, 0.1), ("y", -1.0, 1.0, 0.0)],
                            [_b(FA, "x"), _b(EX, "y")])
        calls = _counted_calls(monkeypatch)
        model = prepare(p, p.outputs[0].expr)
        assert model.exact
        assert calls == {"eval_grad": 0, "eval_interval": 1, "contribution_rows": 0}

    def test_mean_value_output_computes_one_gradient(self, monkeypatch):
        p = _simple_problem("x*y", [("x", 0.0, 1.0, 0.1), ("y", -1.0, 1.0, 0.0)],
                            [_b(FA, "x"), _b(EX, "y")])
        calls = _counted_calls(monkeypatch)
        model = prepare(p, p.outputs[0].expr)
        assert not model.exact
        assert calls == {"eval_grad": 1, "eval_interval": 1, "contribution_rows": 1}

    @pytest.mark.parametrize("center", [0.5, 0.0])
    def test_affine_output_keeps_the_box_evaluation_error(self, center):
        """(1/x)^0 + y folds to 1 + y, but 1/x fails on the box [0, 1]
        (and at the center 0): the output is still refused, by name."""
        p = QuantifiedProblem(
            (VariableSpec("x", Interval(0.0, 1.0), center), VariableSpec("y", Interval(-1.0, 1.0), 0.0)),
            (_b(EX, "x", "y"),),
            (Output("ok", parse("y")), Output("g", parse("(1/x)^0 + y"))),
        )
        assert affine_fractions(affine_coefficients(p.outputs[1].expr)) == (Fraction(1), {"y": Fraction(1)})
        with pytest.raises(OutputError, match=r"^output 'g': division by zero"):
            solve_vector(p)

    def test_affine_output_keeps_an_intermediate_overflow(self):
        p = _simple_problem("x*1e200*1e200/1e300", [("x", 0.0, 1.0, 0.0)], [_b(EX, "x")])
        with pytest.raises(ValueError, match="must be finite"):
            prepare(p, p.outputs[0].expr)

    def test_affine_output_whose_derivative_alone_overflows_is_bounded(self):
        """The partial derivative of x*1e300*1e10 overflows, but no value
        over the box does, and this route computes no derivative: the exact
        range is reported."""
        p = _simple_problem("x*1e300*1e10/1e10", [("x", 0.0, 1e-300, 0.0)], [_b(EX, "x")])
        got = solve_scalar(p, p.outputs[0].expr)
        assert got.method == "exact-affine"
        assert got.inner == Interval(0.0, 1.0)
        assert got.outer == Interval(0.0, 1.0000000000000002)


# Endpoints of the exact affine route: subnormals, the float range's edges,
# zero of both signs and values that are not dyadic fractions.
_AFFINE_ENDPOINTS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, -0.3, 1e-17, 7.0]
)
_COEFFS = st.sampled_from(["1", "-2", "0.1", "1/3", "-5/7", "2/9", "1e-300/11", "1e300/13"])


@st.composite
def _affine_route_problems(draw):
    """An affine output with odd-denominator coefficients under a random
    prefix, on domains (point domains among them) from the endpoints above
    and centers drawn anywhere in them."""
    n = draw(st.integers(1, 4))
    variables, blocks = [], []
    for i in range(n):
        lo, hi = sorted((draw(_AFFINE_ENDPOINTS), draw(_AFFINE_ENDPOINTS)))
        if draw(st.booleans()):
            hi = lo  # a point domain
        variables.append(VariableSpec(f"v{i}", Interval(lo, hi), _center(draw, lo, hi)))
        blocks.append(Block(draw(st.sampled_from((FA, EX))), (f"v{i}",)))
    terms = [draw(st.sampled_from(["0", "1/3", "-0.1", "1e308"]))]
    terms += [f"({draw(_COEFFS)})*v{i}" for i in range(n) if draw(st.booleans())]
    return QuantifiedProblem(tuple(variables), tuple(blocks), (Output("f", parse(" + ".join(terms))),))


def _outcome(fn, *args):
    """repr of fn(*args), or of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError({exc})"


class TestIntegerAffineModel:
    @given(_affine_route_problems())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_fraction_norms(self, problem):
        """The integer model's exact range is the oracle's per-block norm
        sums, and the reported bounds are those sums rounded, bit for bit."""
        tape = problem.outputs[0].expr
        affine = affine_fractions(affine_coefficients(tape))
        assert affine is not None
        assert exact_affine_range(*affine, problem) == oracle_exact_affine_range(*affine, problem)
        try:
            model = prepare(problem, tape)
        except ValueError:  # the interval value overflows on the box
            with pytest.raises(ValueError):
                eval_interval(tape, problem.domains())
            return
        assert model.exact
        want = _outcome(oracle_assemble, oracle_output(problem, tape), problem)
        assert _outcome(model.result, model.keep_all) == want


class TestNonlinearScalarFixture:
    def test_pinned_bounds_and_rows(self):
        loaded = load_problem(str(FIXTURES / "nonlinear_scalar.json"))
        p = loaded.problem
        got = solve_scalar(p, p.outputs[0].expr)
        rows = contribution_rows(p.outputs[0].expr, p)
        assert got.method == "mean-value"
        assert eval_interval(p.outputs[0].expr, p.center_env()) == Interval(11.0, 11.0)
        assert got.inner == Interval(10.0, 12.0)
        assert got.outer == Interval(1.5, 20.5)
        assert rows["x1"] == _row(0.0, 0.0, -0.5, 0.5)
        assert rows["x2"] == _row(-1.0, 1.0, -3.0, 3.0)
        assert rows["x3"] == _row(-4.0, 4.0, -10.0, 10.0)
        assert got.inner_failed_pair is None and got.outer_failed_pair is None


class TestPolynomialFlowFixture:
    def test_pinned_bounds_and_rows(self):
        loaded = load_problem(str(FIXTURES / "dubbins_taylor.json"))
        p = loaded.problem
        got = solve_scalar(p, p.outputs[0].expr)
        rows = contribution_rows(p.outputs[0].expr, p)
        assert got.method == "mean-value"
        assert got.inner == Interval(-0.09499996725, 0.5899999017499999)
        assert got.outer == Interval(-0.1, 0.6050000655000002)
        assert rows["e1"] == _row(-0.1, 0.1, -0.1, 0.1)
        assert rows["e2"] == _row(0.0, 0.0, -0.005, 0.005)
        assert rows["e3"] == _row(0.0, 0.0, -3.275e-08, 3.275e-08)
        assert rows["t"].inner == Interval(0.0, 0.49499993449999996)
        assert rows["t"].outer == Interval(0.0, 0.5050000655000001)


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
        # about 10 MB when each sum copied its left operand's partial dict;
        # the affine output's prepare computes no gradient, so its rows are
        # computed here as well
        problem = linear_problem(400)
        tracemalloc.start()
        try:
            prepare(problem, problem.outputs[0].expr)
            contribution_rows(problem.outputs[0].expr, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
