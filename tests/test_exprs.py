"""Expression parsing, printing, the tape, and the three evaluators.

Covers the grammar (precedence, functions, integer-only exponents), exact
error reporting, the parser against the recursive-descent oracle in
helpers.py, print/parse round-trips, hash-consing, interval and point
evaluation, gradient enclosures checked against finite differences, and the
tape sweeps checked bit for bit against the tree-walking oracles and
against the unshared tapes of the same expressions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantrange.benchgen import linear_problem, motion_problem
from quantrange.exprs import (
    ADD,
    CONST,
    DIV,
    MSIN,
    MUL,
    NEG,
    POW,
    SIN,
    SUB,
    VAR,
    MAX_EXPONENT,
    MAX_TEXT,
    ParseError,
    MissingVariable,
    Tape,
    TapeBuilder,
    eval_grad,
    eval_interval,
    eval_point,
    msin_enclosures,
    parse,
    _text_bound,
    to_text,
)
from quantrange.intervals import DivisionByZeroInterval, Interval
from quantrange.problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec
from quantrange.problemfile import load_problem, problem_to_json
from quantrange.scalar import affine_coefficients

from conftest import FIXTURES
from helpers import (
    Add,
    Const,
    Cos,
    Div,
    Msin,
    Mul,
    Neg,
    Pow,
    Sin,
    Sub,
    Var,
    centers,
    compile_expr,
    contains,
    oracle_affine_coefficients,
    oracle_eval_grad,
    oracle_eval_interval,
    oracle_eval_point,
    oracle_parse,
    oracle_tape,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_precedence_and_associativity(self):
        assert parse("x + y*z") == oracle_tape(Add(Var("x"), Mul(Var("y"), Var("z"))))
        assert parse("x - y - z") == oracle_tape(Sub(Sub(Var("x"), Var("y")), Var("z")))
        assert parse("x / y / z") == oracle_tape(Div(Div(Var("x"), Var("y")), Var("z")))
        assert parse("(x + y)*z") == oracle_tape(Mul(Add(Var("x"), Var("y")), Var("z")))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == oracle_tape(Neg(Pow(Var("x"), 2)))
        assert parse("2*-x") == oracle_tape(Mul(Const(2.0), Neg(Var("x"))))

    def test_number_literals(self):
        assert parse("0.5") == oracle_tape(Const(0.5))
        assert parse(".5") == oracle_tape(Const(0.5))
        assert parse("1.5e-3") == oracle_tape(Const(0.0015))
        assert parse("2e+3") == oracle_tape(Const(2000.0))

    def test_functions(self):
        assert parse("sin(x)") == oracle_tape(Sin(Var("x")))
        assert parse("cos(x + 1)") == oracle_tape(Cos(Add(Var("x"), Const(1.0))))
        assert parse("msin(a, b*2)") == oracle_tape(Msin(Var("a"), Mul(Var("b"), Const(2.0))))

    def test_exponent_is_part_of_power_node(self):
        assert parse("x^3").code == ((VAR, "x", None), (POW, 0, 3))

    def test_whitespace_insensitive(self):
        assert parse(" x+y ") == parse("x + y")
        assert parse("\tx\r\n+y  \n") == parse("x + y")

    def test_variables_of(self):
        assert parse("x*y + sin(z) - x").variables == {"x", "y", "z"}
        assert parse("1 + 2").variables == set()

    def test_equal_tapes_hash_alike(self):
        assert parse("x+y*2") == parse("(x) + (y*2.0)")
        assert hash(parse("x+y*2")) == hash(parse("(x) + (y*2.0)"))
        assert parse("x + y") != parse("y + x")
        assert parse("x") != "x"


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

    def test_exponent_cap(self):
        assert parse(f"x^{MAX_EXPONENT}") == oracle_tape(Pow(Var("x"), MAX_EXPONENT))
        assert parse("x^0001024") == oracle_tape(Pow(Var("x"), 1024))
        # the digits are compared before int(), which refuses long literals
        for text in (f"x^{MAX_EXPONENT + 1}", "x^1000000000", "x^" + "9" * 5000):
            with pytest.raises(ParseError, match="exceeds the cap of 1024") as exc:
                parse(text)
            assert exc.value.offset == 2
        with pytest.raises(ParseError) as exc:
            parse("sin(y)^2 + (x + 1)^2048")
        assert exc.value.offset == 19

    def test_chained_exponent_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("x^2^3")
        assert exc.value.offset == 3

    def test_overflowing_number_literal(self):
        with pytest.raises(ParseError) as exc:
            parse("1e999")
        assert exc.value.offset == 0
        assert "overflow" in str(exc.value)

    def test_deep_nesting_parses(self):
        depth = 10_000
        assert parse("(" * depth + "x" + ")" * depth) == parse("x")
        tape = parse("sin(" * depth + "x" + ")" * depth)
        assert len(tape.code) == depth + 1 and tape.code[-1] == (SIN, depth - 1, None)
        tape = parse("-" * depth + "x")
        assert len(tape.code) == depth + 1 and tape.code[-1] == (NEG, depth - 1, None)
        with pytest.raises(ParseError, match="unbalanced parentheses") as exc:
            parse("(" * depth + "x")
        assert exc.value.offset == depth + 1

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

    def test_non_ascii_characters_are_unexpected(self):
        # Tokens are ASCII, so the first non-ASCII character is the error
        # and everything before it is one byte per character.
        with pytest.raises(ParseError, match="unexpected character 'α'") as exc:
            parse("α + ¤")
        assert exc.value.offset == 0
        with pytest.raises(ParseError, match="unexpected character '¤'") as exc:
            parse("x + ¤")
        assert exc.value.offset == 4

    @pytest.mark.parametrize(
        "text, offset",
        [("x + ²", 4), ("x + 1²", 5), ("x^²", 2), ("x^٣", 2)],
    )
    def test_unicode_digits_are_unexpected_characters(self, text, offset):
        # str.isdigit() is true for these, and float() or int() refuses
        # them or, for '٣', reads 3.
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse(text)
        assert exc.value.offset == offset

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
        tape = parse(text)
        assert parse(to_text(tape)) == tape

    def test_parentheses_only_where_needed(self):
        assert to_text(parse("x + y*z")) == "x + y*z"
        assert to_text(parse("(x + y)*z")) == "(x + y)*z"
        assert to_text(parse("x - (y - z)")) == "x - (y - z)"
        assert to_text(parse("x - y - z")) == "x - y - z"

    def test_floats_print_shortest_form(self):
        assert to_text(parse("0.1")) == "0.1"
        assert to_text(parse("1.31e-7")) == "1.31e-07"

    def test_hand_built_negative_constant_prints_value_correctly(self):
        # The parser itself never produces a negative literal (it wraps a
        # negation node), so the round-trip contract is value-level here.
        tape = compile_expr(Mul(Const(-2.5), Var("x")))
        reparsed = parse(to_text(tape))
        assert eval_point(reparsed, {"x": 3.0}) == eval_point(tape, {"x": 3.0})


def _const_strategy():
    # Parser-canonical constants are non-negative; a negative value is always
    # represented as a negation node wrapping a positive literal.
    return st.floats(
        allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e6
    ).filter(lambda v: math.copysign(1.0, v) > 0).map(Const)


def _tree_strategy(max_leaves: int = 16):
    leaves = st.one_of(_const_strategy(), st.sampled_from("xyz").map(Var))

    def extend(sub):
        return st.one_of(
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

    return st.recursive(leaves, extend, max_leaves=max_leaves)


class TestPrinterFuzz:
    @given(_tree_strategy())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_arbitrary_trees_round_trip(self, tree):
        tape = compile_expr(tree)
        text = to_text(tape)
        assert parse(text) == oracle_tape(tree)
        assert len(text) <= _text_bound(tape)


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
        env_iv = {k: Interval(v, v) for k, v in env_f.items()}
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
                assert contains(grad.partials["x"], dx)
                assert contains(grad.partials["y"], dy)

    def test_grad_value_matches_interval_evaluation_shape(self):
        expr = parse("x*y")
        env = {"x": Interval(-1.0, 2.0), "y": Interval(0.5, 3.0)}
        grad = eval_grad(expr, env)
        ref = eval_interval(expr, env)
        assert contains(grad.value, ref) or contains(ref, grad.value)


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
        tape = compile_expr(tree)
        env = {"x": Interval(0.0, 0.0)}
        assert eval_interval(tape, env) == Interval(5000.0, 5000.0)
        assert eval_point(tape, {"x": 1.0}) == 5001.0
        grad = eval_grad(tape, env)
        assert grad.partials["x"] == Interval(1.0, 1.0)
        text = to_text(tape)
        assert text.startswith("x + 1.0") and text.endswith("+ 1.0")

    def test_long_parsed_chain_round_trips(self):
        text = " + ".join(["x"] * 2000)
        tape = parse(text)
        assert len(tape.code) == 2000  # one x, 1999 sums
        assert eval_point(tape, {"x": 1.0}) == 2000.0
        assert parse(to_text(tape)) == tape

    def test_shared_subtrees_evaluated_once(self):
        # build a 2^60-node tree as a 60-level DAG; only sharing-aware
        # traversal can finish
        tree = Var("x")
        for _ in range(60):
            tree = Add(tree, tree)
        tape = compile_expr(tree)
        assert eval_point(tape, {"x": 1.0}) == 2.0**60
        assert eval_interval(tape, {"x": Interval(1.0, 1.0)}) == Interval(2.0**60, 2.0**60)

    def test_printing_a_deep_dag_is_refused_before_building_text(self):
        # its text would hold 2^60 copies of x; only the size sweep runs
        builder = TapeBuilder()
        slot = builder.emit(VAR, "x")
        for _ in range(60):
            slot = builder.emit(ADD, slot, slot)
        tape = builder.tape()
        with pytest.raises(ValueError, match=f"would exceed {MAX_TEXT} characters"):
            to_text(tape)
        problem = QuantifiedProblem(
            (VariableSpec("x", Interval(0.0, 1.0), 0.5),),
            (Block(Quantifier.EXISTS, ("x",)),),
            (Output("f", tape),),
        )
        with pytest.raises(ValueError, match="would exceed"):
            problem_to_json(problem)


# ---------------------------------------------------------------------------
# Compiled tape: structure, and every sweep against its tree-walking oracle
# ---------------------------------------------------------------------------


class TestTape:
    def test_children_precede_parents_and_root_is_last(self):
        tape = parse("x*2 - sin(y)")
        assert isinstance(tape, Tape)
        for slot, (op, a, b) in enumerate(tape.code):
            if op not in (CONST, VAR):
                assert a < slot
            if op in (ADD, SUB, MUL, DIV, MSIN):
                assert b < slot
        assert tape.code[-1][0] == SUB

    def test_shared_subtree_gets_one_slot(self):
        for tape in (parse("sin(x)*sin(x) + sin(x)"), compile_expr(Add(Mul(s := Sin(Var("x")), s), s))):
            assert [ins[0] for ins in tape.code] == [VAR, SIN, MUL, ADD]
            assert tape.code[2] == (MUL, 1, 1) and tape.code[3] == (ADD, 2, 1)
            # sin(x) is read by both operands of the product and by the sum
            assert tape.readers == (1, 3, 1, 0)

    def test_constants_are_shared_by_their_bits(self):
        assert parse("2*x + 2.0*y + 2e0").code.count((CONST, 2.0, None)) == 1
        builder = TapeBuilder()
        zero, minus_zero = builder.emit(CONST, 0.0), builder.emit(CONST, -0.0)
        builder.emit(ADD, zero, minus_zero)
        assert zero != minus_zero and repr(builder.tape().code[1][1]) == "-0.0"

    def test_readers_count_operand_positions(self):
        assert parse("x + y + z").readers == (1, 1, 1, 1, 0)
        tape = parse("x + x + x^2")
        assert tape.readers == (3, 1, 1, 0)
        box = {"x": Interval(-1.0, 2.0)}
        x = Var("x")
        assert eval_grad(tape, box) == oracle_eval_grad(Add(Add(x, x), Pow(x, 2)), box)

    def test_operands_hold_value_name_and_exponent(self):
        tape = parse("x^3 + 0.5")
        assert tape.code == ((VAR, "x", None), (POW, 0, 3), (CONST, 0.5, None), (ADD, 1, 2))

    def test_sweeps_accept_the_tape_or_the_expression(self):
        """A sweep gives the same result on the parsed, shared tape as on
        the unshared tape of the expression tree."""
        text = "msin(x, y)/(2.0 + y^2) + msin(x, y)*y^2"
        tape, unshared = parse(text), compile_expr(oracle_parse(text))
        assert len(tape.code) < len(unshared.code)
        box = {"x": Interval(0.0, 0.5), "y": Interval(-0.25, 0.25)}
        assert eval_point(tape, {"x": 0.1, "y": 0.2}) == eval_point(unshared, {"x": 0.1, "y": 0.2})
        assert eval_interval(tape, box) == eval_interval(unshared, box)
        assert eval_grad(tape, box) == eval_grad(unshared, box)
        assert to_text(tape) == to_text(unshared) == text

    def test_children_walk_the_unshared_tree(self):
        def size(node):
            count, stack = 0, [node]
            while stack:
                count += 1
                stack.extend(stack.pop().children())
            return count

        tape = parse("sin(x)*sin(x) + sin(x)")
        assert len(tape.code) == 4 and size(tape) == 8


@st.composite
def _dag_strategy(draw):
    """Small trees combined with repeated references to earlier nodes, so
    subtrees are shared objects."""
    pool = draw(st.lists(_tree_strategy(3), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.sampled_from(pool))
        b = draw(st.one_of(st.just(a), st.sampled_from(pool)))
        kind = draw(st.sampled_from((Add, Sub, Mul, Div, Msin, Neg, Sin, Cos, Pow)))
        if kind is Pow:
            node = Pow(a, draw(st.integers(0, 4)))
        elif kind in (Neg, Sin, Cos):
            node = kind(a)
        else:
            node = kind(a, b)
        pool.append(node)
    return pool[-1]


# Zero (divisions, msin's limit), hypothesis' edge-seeking floats, and
# uniformly spread ones, whose products round (unlike most small edge values).
_COORD = st.one_of(
    st.just(0.0),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-50 - 4.0),
)


@st.composite
def _point_env(draw):
    env = {name: draw(st.one_of(_COORD, st.floats(allow_nan=False))) for name in "xyz"}
    for name in draw(st.sets(st.sampled_from("xyz"), max_size=1)):
        del env[name]
    return env


@st.composite
def _box_env(draw):
    env = {}
    for name in "xyz":
        a, b = draw(_COORD), draw(_COORD)
        env[name] = Interval(min(a, b), max(a, b))
    for name in draw(st.sets(st.sampled_from("xyz"), max_size=1)):
        del env[name]
    return env


def _outcome(fn, expr, env):
    """repr of the result (tells -0.0 from 0.0 and reads nan as nan), or the
    type of the exception raised."""
    try:
        return repr(fn(expr, env))
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc)


_SHAPES = {"tree": _tree_strategy(), "dag": _dag_strategy()}


@pytest.mark.parametrize("shape", _SHAPES)
class TestTapeMatchesOracles:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_point(self, shape, data):
        expr, env = data.draw(_SHAPES[shape]), data.draw(_point_env())
        assert _outcome(eval_point, compile_expr(expr), env) == _outcome(oracle_eval_point, expr, env)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_interval(self, shape, data):
        expr, env = data.draw(_SHAPES[shape]), data.draw(_box_env())
        got = _outcome(eval_interval, compile_expr(expr), env)
        assert got == _outcome(oracle_eval_interval, expr, env)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_gradient(self, shape, data):
        expr, env = data.draw(_SHAPES[shape]), data.draw(_box_env())
        assert _outcome(eval_grad, compile_expr(expr), env) == _outcome(oracle_eval_grad, expr, env)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_affine_coefficients(self, shape, data):
        expr = data.draw(_SHAPES[shape])
        assert affine_coefficients(compile_expr(expr)) == oracle_affine_coefficients(expr)


def test_affine_fold_through_a_zero_power_of_a_trigonometric_node():
    for text in ("sin(x)^0 + x", "x + msin(x, y)^0*1"):
        want = oracle_affine_coefficients(oracle_parse(text))
        assert affine_coefficients(parse(text)) == want == (Fraction(1), {"x": Fraction(1)})


def test_missing_variable_is_the_oracles_first():
    text = "y*q + p"
    for fn, oracle, env in (
        (eval_point, oracle_eval_point, {"y": 1.0}),
        (eval_interval, oracle_eval_interval, {"y": Interval(0.0, 1.0)}),
        (eval_grad, oracle_eval_grad, {"y": Interval(0.0, 1.0)}),
    ):
        with pytest.raises(MissingVariable) as got:
            fn(parse(text), env)
        with pytest.raises(MissingVariable) as want:
            oracle(oracle_parse(text), env)
        assert got.value.name == want.value.name == "q"


# ---------------------------------------------------------------------------
# The parser against the recursive-descent oracle, and the shared tape
# against the unshared one
# ---------------------------------------------------------------------------

# The grammar's alphabet, with malformed pieces: stray characters, a lone
# dot, an overflowing literal, exponents over the cap and a Unicode digit.
_PIECES = st.sampled_from(
    ["x", "y", "z1", "_w", "sin", "cos", "msin", "foo", "(", ")", ",", "+", "-", "*", "/", "^",
     "0", "2", "3", "0007", "1024", "1025", "1.5", ".5", "2.", "3e2", "4E-1", "1e999",
     " ", "\t", "$", ".", "²", "e"]
)


def _parse_outcome(parse_fn, text):
    try:
        return "ok", repr(parse_fn(text).code)
    except ParseError as exc:
        return "error", str(exc), exc.offset, exc.expected


@st.composite
def _token_walks(draw):
    """Texts that mostly follow the grammar: an operand, a minus or an
    opening bracket where an operand is due, an operator, a comma or a
    closing bracket after one; one piece in eight is any piece, and the
    open brackets are closed at the end half of the time."""
    text, operand_due, depth = "", True, 0
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.integers(0, 7)) == 0:
            piece = draw(_PIECES)
        elif operand_due:
            piece = draw(st.sampled_from(["x", "y", "2", "0.5", "-", "(", "sin(", "cos(", "msin("]))
        else:
            piece = draw(st.sampled_from(["+", "-", "*", "/", "^2", ",", ")"]))
        text += piece
        depth += piece.count("(") - piece.count(")")
        if not piece.isspace():
            operand_due = piece[-1] in "(+-*/,^"
    if draw(st.booleans()):
        text += ")" * max(depth, 0)
    return text


class TestParserMatchesOracle:
    @given(st.one_of(st.lists(_PIECES, max_size=40).map("".join), _token_walks()))
    @settings(max_examples=1500, deadline=None, derandomize=True)
    def test_random_token_strings(self, text):
        # At most 40 pieces nest at most 40 deep, well inside the oracle's
        # budget.
        assert _parse_outcome(parse, text) == _parse_outcome(
            lambda t: oracle_tape(oracle_parse(t)), text
        )

    @given(_tree_strategy(), st.lists(st.tuples(st.floats(0, 1), st.integers(0, 2), _PIECES), max_size=3))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_printed_trees_with_edits(self, tree, edits):
        # Each edit replaces 0-2 characters at a relative position with a
        # piece, so most texts are one or two mistakes away from valid.
        text = to_text(compile_expr(tree))
        for where, cut, piece in edits:
            at = int(where * len(text))
            text = text[:at] + piece + text[at + cut :]
        assert _parse_outcome(parse, text) == _parse_outcome(
            lambda t: oracle_tape(oracle_parse(t)), text
        )


def _sweeps(tape, point, box):
    """repr of each sweep's result, or the type of the exception it raised."""
    return (
        _outcome(eval_point, tape, point),
        _outcome(eval_interval, tape, box),
        _outcome(eval_grad, tape, box),
        _outcome(lambda t, _: affine_coefficients(t), tape, None),
        _outcome(lambda t, _: to_text(t), tape, None),
    )


def _output_texts():
    problems = {path.stem: load_problem(str(path)).problem for path in sorted(FIXTURES.glob("*.json"))}
    problems.update(linear50=linear_problem(50, seed=50), motion10=motion_problem(10), motion80=motion_problem(80))
    return [
        pytest.param(
            to_text(out.expr), centers(p), p.domains(), id=f"{name}-{out.name}"
        )
        for name, p in problems.items()
        for out in p.outputs
    ]


@pytest.mark.parametrize("text, point, box", _output_texts())
def test_shared_tape_sweeps_match_the_unshared_tape(text, point, box):
    assert _sweeps(parse(text), point, box) == _sweeps(compile_expr(oracle_parse(text)), point, box)


@given(tree=_tree_strategy(), point=_point_env(), box=_box_env())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_shared_tape_sweeps_match_on_printed_trees(tree, point, box):
    text = to_text(compile_expr(tree))
    assert _sweeps(parse(text), point, box) == _sweeps(compile_expr(oracle_parse(text)), point, box)
