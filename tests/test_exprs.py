"""Expression parsing, printing, and the three evaluators.

Covers the grammar (precedence, functions, integer-only exponents), byte-exact
error reporting, print/parse round-trips, interval and point evaluation, and
gradient enclosures checked against finite differences.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from quantrange.exprs import (
    Add,
    Const,
    Cos,
    Div,
    Msin,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sin,
    Sub,
    Var,
    MissingVariable,
    eval_grad,
    eval_interval,
    eval_point,
    msin_enclosures,
    parse,
    to_text,
    variables_of,
)
from quantrange.intervals import DivisionByZeroInterval, Interval


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_precedence_and_associativity(self):
        assert parse("x + y*z") == Add(Var("x"), Mul(Var("y"), Var("z")))
        assert parse("x - y - z") == Sub(Sub(Var("x"), Var("y")), Var("z"))
        assert parse("x / y / z") == Div(Div(Var("x"), Var("y")), Var("z"))
        assert parse("(x + y)*z") == Mul(Add(Var("x"), Var("y")), Var("z"))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Neg(Pow(Var("x"), 2))
        assert parse("2*-x") == Mul(Const(2.0), Neg(Var("x")))

    def test_number_literals(self):
        assert parse("0.5") == Const(0.5)
        assert parse(".5") == Const(0.5)
        assert parse("1.5e-3") == Const(0.0015)
        assert parse("2e+3") == Const(2000.0)

    def test_functions(self):
        assert parse("sin(x)") == Sin(Var("x"))
        assert parse("cos(x + 1)") == Cos(Add(Var("x"), Const(1.0)))
        assert parse("msin(a, b*2)") == Msin(Var("a"), Mul(Var("b"), Const(2.0)))

    def test_exponent_is_part_of_power_node(self):
        e = parse("x^3")
        assert isinstance(e, Pow) and e.exponent == 3

    def test_whitespace_insensitive(self):
        assert parse(" x+y ") == parse("x + y")

    def test_variables_of(self):
        assert variables_of(parse("x*y + sin(z) - x")) == {"x", "y", "z"}
        assert variables_of(parse("1 + 2")) == set()


class TestParseErrors:
    def test_dangling_function_call(self):
        with pytest.raises(ParseError) as exc:
            parse("sin(")
        assert exc.value.offset == 4
        assert exc.value.expected == {"number", "identifier", "'('", "'-'"}

    def test_double_star_is_not_power(self):
        with pytest.raises(ParseError) as exc:
            parse("2**3")
        assert exc.value.offset == 2

    def test_wrong_arity(self):
        with pytest.raises(ParseError) as exc:
            parse("msin(x)")
        assert exc.value.offset == 6
        assert "2 argument(s)" in str(exc.value)
        with pytest.raises(ParseError) as exc:
            parse("sin(x, y)")
        assert exc.value.offset == 8

    def test_exponent_must_be_nonneg_integer_literal(self):
        for text in ("x^2.5", "x^-2", "x^y"):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.offset == 2

    def test_chained_exponent_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("x^2^3")
        assert exc.value.offset == 3

    def test_overflowing_number_literal(self):
        with pytest.raises(ParseError) as exc:
            parse("1e999")
        assert exc.value.offset == 0
        assert "overflow" in str(exc.value)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 3000 + "x" + ")" * 3000)

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc:
            parse("x 5")
        assert exc.value.offset == 2
        assert exc.value.expected == {"operator", "end of input"}

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError) as exc:
            parse("(x")
        assert exc.value.offset == 2
        assert exc.value.expected == {"')'"}

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("x$y")
        assert exc.value.offset == 1

    def test_offsets_count_bytes_not_characters(self):
        # the two-byte identifier shifts the error two bytes past its
        # character position
        with pytest.raises(ParseError) as exc:
            parse("α + ¤")
        assert exc.value.offset == 5

    def test_unknown_function_name(self):
        with pytest.raises(ParseError):
            parse("foo(x)")
        with pytest.raises(ParseError):
            parse("SIN(x)")  # names are case-sensitive

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")


# ---------------------------------------------------------------------------
# Printing and round-trips
# ---------------------------------------------------------------------------


ROUND_TRIP_TEXTS = [
    "x + y*z",
    "(x + y)*z",
    "x - (y - z)",
    "x - y - z",
    "x/(y*z)",
    "x/y*z",
    "-(x + y)",
    "-x^2",
    "(-x)^2",
    "2 - -3",
    "sin(cos(x) + msin(x, y^2))",
    "x^0 + x^1 + x^12",
    "0.1*e1 + (1 + 0.01*e2)*t + 1.31e-7*e3*t^2",
]


class TestPrinter:
    @pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
    def test_round_trip_is_structurally_identical(self, text):
        tree = parse(text)
        assert parse(to_text(tree)) == tree

    def test_parentheses_only_where_needed(self):
        assert to_text(parse("x + y*z")) == "x + y*z"
        assert to_text(parse("(x + y)*z")) == "(x + y)*z"
        assert to_text(parse("x - (y - z)")) == "x - (y - z)"
        assert to_text(parse("x - y - z")) == "x - y - z"

    def test_floats_print_shortest_form(self):
        assert to_text(Const(0.1)) == "0.1"
        assert to_text(Const(1.31e-7)) == "1.31e-07"

    def test_hand_built_negative_constant_prints_value_correctly(self):
        # The parser itself never produces a negative literal (it wraps a
        # negation node), so the round-trip contract is value-level here.
        tree = Mul(Const(-2.5), Var("x"))
        reparsed = parse(to_text(tree))
        assert eval_point(reparsed, {"x": 3.0}) == eval_point(tree, {"x": 3.0})


def _const_strategy():
    # Parser-canonical constants are non-negative; a negative value is always
    # represented as a negation node wrapping a positive literal.
    return st.floats(
        allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e6
    ).filter(lambda v: math.copysign(1.0, v) > 0).map(Const)


def _tree_strategy(depth: int = 4):
    # Depth-bounded by construction: unbounded unary nesting would exceed the
    # recursive parser's and the generated __eq__'s Python stack budget.
    leaves = st.one_of(_const_strategy(), st.sampled_from("xyz").map(Var))
    if depth == 0:
        return leaves
    sub = _tree_strategy(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, sub).map(lambda p: Add(*p)),
        st.tuples(sub, sub).map(lambda p: Sub(*p)),
        st.tuples(sub, sub).map(lambda p: Mul(*p)),
        st.tuples(sub, sub).map(lambda p: Div(*p)),
        sub.map(Neg),
        st.tuples(sub, st.integers(0, 4)).map(lambda p: Pow(*p)),
        sub.map(Sin),
        sub.map(Cos),
        st.tuples(sub, sub).map(lambda p: Msin(*p)),
    )


class TestPrinterFuzz:
    @given(_tree_strategy())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_trees_round_trip(self, tree):
        assert parse(to_text(tree)) == tree


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class TestEvalInterval:
    def test_power_tracks_dependency_but_product_does_not(self):
        env = {"x": Interval(-1.0, 1.0)}
        assert eval_interval(parse("x^2"), env) == Interval(0.0, 1.0)
        assert eval_interval(parse("x*x"), env) == Interval(-1.0, 1.0)

    def test_affine_evaluation_exact_on_dyadics(self):
        env = {"x": Interval(-1.0, 1.0), "y": Interval(0.0, 2.0)}
        assert eval_interval(parse("2 + 2*x + y"), env) == Interval(0.0, 6.0)

    def test_missing_variable_names_the_culprit(self):
        with pytest.raises(MissingVariable) as exc:
            eval_interval(parse("x + q"), {"x": Interval(0.0, 1.0)})
        assert exc.value.name == "q"

    def test_division_by_zero_spanning_interval(self):
        env = {"x": Interval(-1.0, 1.0)}
        with pytest.raises(DivisionByZeroInterval):
            eval_interval(parse("1/x"), env)

    def test_sin_cos_composition(self):
        env = {"x": Interval(0.0, 0.0)}
        assert eval_interval(parse("sin(x)"), env) == Interval(0.0, 0.0)
        assert eval_interval(parse("cos(x)"), env) == Interval(1.0, 1.0)

    def test_msin_through_interval_evaluator(self):
        got = eval_interval(
            parse("msin(x, y)"), {"x": Interval(0.5, 0.5), "y": Interval(0.0, 0.0)}
        )
        assert got.lo <= math.cos(0.5) <= got.hi
        assert got.width < 1e-12


class TestEvalPoint:
    def test_basic_arithmetic(self):
        assert eval_point(parse("2 + 2*x + y^2"), {"x": 1.5, "y": 2.0}) == 9.0
        assert eval_point(parse("x/(y + 1)"), {"x": 3.0, "y": 1.0}) == 1.5

    def test_msin_divided_difference(self):
        u, v = 0.3, 0.2
        expected = (math.sin(u + v) - math.sin(u)) / v
        assert eval_point(parse("msin(x, y)"), {"x": u, "y": v}) == expected

    def test_msin_at_zero_increment_uses_cosine_limit(self):
        assert eval_point(parse("msin(x, y)"), {"x": 0.5, "y": 0.0}) == math.cos(0.5)

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            eval_point(parse("x"), {})

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            eval_point(parse("1/x"), {"x": 0.0})


GRAD_CASES = [
    "x^2*y + 3*x",
    "sin(x*y)",
    "cos(x) + y^3",
    "msin(x, y)",
    "(x + 2)*(y + 3)",
    "x/(y + 5)",
    "msin(x + y, 0.5*y)",
]

GRAD_POINTS = [(0.3, 0.7), (-1.2, 0.4), (1.0, -0.5)]


def _central_difference(expr, name, env, h=1e-6):
    hi = dict(env)
    lo = dict(env)
    hi[name] = env[name] + h
    lo[name] = env[name] - h
    return (eval_point(expr, hi) - eval_point(expr, lo)) / (2 * h)


class TestEvalGrad:
    @pytest.mark.parametrize("text", GRAD_CASES)
    @pytest.mark.parametrize("point", GRAD_POINTS)
    def test_partials_match_finite_differences(self, text, point):
        expr = parse(text)
        env_f = {"x": point[0], "y": point[1]}
        env_iv = {k: Interval.point(v) for k, v in env_f.items()}
        grad = eval_grad(expr, env_iv)
        value = eval_point(expr, env_f)
        assert grad.value.lo <= value <= grad.value.hi
        for name in ("x", "y"):
            fd = _central_difference(expr, name, env_f)
            tol = 1e-6 * max(1.0, abs(fd))
            assert grad.partials[name].lo - tol <= fd <= grad.partials[name].hi + tol

    def test_unused_variables_get_zero_partials(self):
        grad = eval_grad(
            parse("x^2"), {"x": Interval(0.0, 1.0), "z": Interval(-1.0, 1.0)}
        )
        assert grad.partials["z"] == Interval(0.0, 0.0)
        assert set(grad.partials) == {"x", "z"}

    def test_partials_enclose_derivative_over_whole_box(self):
        expr = parse("sin(x*y) + x^2")
        env = {"x": Interval(0.0, 1.0), "y": Interval(-0.5, 0.5)}
        grad = eval_grad(expr, env)
        for xv in (0.0, 0.25, 0.5, 0.75, 1.0):
            for yv in (-0.5, 0.0, 0.5):
                dx = yv * math.cos(xv * yv) + 2 * xv
                dy = xv * math.cos(xv * yv)
                assert dx in grad.partials["x"]
                assert dy in grad.partials["y"]

    def test_grad_value_matches_interval_evaluation_shape(self):
        expr = parse("x*y")
        env = {"x": Interval(-1.0, 2.0), "y": Interval(0.5, 3.0)}
        grad = eval_grad(expr, env)
        ref = eval_interval(expr, env)
        assert grad.value.contains_interval(ref) or ref.contains_interval(grad.value)


class TestMsinEnclosures:
    def test_exact_zero_case(self):
        value, du, dv = msin_enclosures(Interval(0.0, 0.0), Interval(0.0, 0.0))
        assert value == Interval(1.0, 1.0)
        assert du == Interval(0.0, 0.0)
        assert dv == Interval(0.0, 0.0)

    def test_point_zero_increment_brackets_cosine(self):
        value, du, dv = msin_enclosures(Interval(0.5, 0.5), Interval(0.0, 0.0))
        assert value.lo <= math.cos(0.5) <= value.hi
        assert du.lo <= -math.sin(0.5) <= du.hi
        assert dv.lo <= 0.0 <= dv.hi

    @pytest.mark.parametrize(
        "u, v",
        [
            (Interval(0.1, 0.2), Interval(-0.05, 0.05)),
            (Interval(-1.0, 1.0), Interval(0.0, 0.5)),
            (Interval(2.0, 2.5), Interval(-0.3, -0.1)),
        ],
    )
    def test_value_and_partials_contain_samples(self, u, v):
        value, du, dv = msin_enclosures(u, v)
        h = 1e-6
        for uu in (u.lo, u.mid, u.hi):
            for vv in (v.lo, v.mid, v.hi):
                if vv != 0.0:
                    g = (math.sin(uu + vv) - math.sin(uu)) / vv
                    g_du = ((math.sin(uu + h + vv) - math.sin(uu + h)) / vv - (math.sin(uu - h + vv) - math.sin(uu - h)) / vv) / (2 * h)
                    g_dv = ((math.sin(uu + vv + h) - math.sin(uu)) / (vv + h) - (math.sin(uu + vv - h) - math.sin(uu)) / (vv - h)) / (2 * h)
                else:
                    g = math.cos(uu)
                    g_du = -math.sin(uu)
                    g_dv = None
                assert value.lo - 1e-9 <= g <= value.hi + 1e-9
                assert du.lo - 1e-4 <= g_du <= du.hi + 1e-4
                if g_dv is not None:
                    assert dv.lo - 1e-4 <= g_dv <= dv.hi + 1e-4


# ---------------------------------------------------------------------------
# Deep trees (no recursion limits)
# ---------------------------------------------------------------------------


class TestDeepTrees:
    def test_long_left_deep_chain_evaluates(self):
        one = Const(1.0)
        tree = Var("x")
        for _ in range(5000):
            tree = Add(tree, one)
        env = {"x": Interval(0.0, 0.0)}
        assert eval_interval(tree, env) == Interval(5000.0, 5000.0)
        assert eval_point(tree, {"x": 1.0}) == 5001.0
        grad = eval_grad(tree, env)
        assert grad.partials["x"] == Interval(1.0, 1.0)
        text = to_text(tree)
        assert text.startswith("x + 1.0") and text.endswith("+ 1.0")

    def test_long_parsed_chain_round_trips(self):
        # Compare by canonical text: the printer is injective for parsed
        # trees, while the generated node __eq__ would recurse per level.
        text = " + ".join(["x"] * 2000)
        tree = parse(text)
        assert eval_point(tree, {"x": 1.0}) == 2000.0
        printed = to_text(tree)
        assert to_text(parse(printed)) == printed

    def test_shared_subtrees_evaluated_once(self):
        # build a 2^60-node tree as a 60-level DAG; only sharing-aware
        # traversal can finish
        tree = Var("x")
        for _ in range(60):
            tree = Add(tree, tree)
        assert eval_point(tree, {"x": 1.0}) == 2.0**60
        assert eval_interval(tree, {"x": Interval(1.0, 1.0)}) == Interval(2.0**60, 2.0**60)
