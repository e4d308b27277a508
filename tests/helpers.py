"""Deterministic generators shared by the property and acceptance suites,
and the slow references that the fast paths are tested against: expression
trees with a recursive-descent parser and an identity-sharing compiler (for
the parser, which emits hash-consed tapes directly), the four-corner
interval product and quotient (for the sign-case kernels), tree-walking
evaluators built on them and a tree-walking affine fold (for the tape
sweeps), the alternation check (one-pass and quadratic), the
bound assembly and the exact affine range summed in Fractions, the inner
bound of one assembly alone, brute-force assignment search and the greedy
assignment on Fraction row widths (for the integer row model and the
solvers), the affine vertex oracle (for the exact affine route), the
directed rounding of a Fraction to a float (for intervals.round_ratio),
and the zero row, interval containment test and center view that the
tests read.

Everything here is seeded by the caller; the same rng state always yields the
same problems, so failures reproduce exactly.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
import sys
from fractions import Fraction
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from quantrange.exprs import (
    ADD,
    CONST,
    COS,
    DIV,
    MAX_EXPONENT,
    MSIN,
    MUL,
    NEG,
    POW,
    SIN,
    SUB,
    VAR,
    GradEnclosure,
    MissingVariable,
    ParseError,
    Tape,
    msin_enclosures,
    parse,
)
from quantrange.intervals import (
    EMPTY,
    DivisionByZeroInterval,
    Interval,
    MaybeInterval,
    div_down,
    div_up,
    is_empty,
    iv_add,
    iv_cos,
    iv_neg,
    iv_pow,
    iv_sin,
    iv_sub,
    mul_down,
    mul_up,
)
from quantrange.problem import (
    Block,
    Output,
    Quantifier,
    QuantifiedProblem,
    VariableSpec,
)
from quantrange.sampling import _grid, sampling_estimate
from quantrange.scalar import (
    ContributionRow,
    ScalarResult,
    contribution_rows,
)


# ---------------------------------------------------------------------------
# Expression trees: the recursive-descent parser and the identity-sharing
# compiler, references for the parser that emits hash-consed tapes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes; subclasses are immutable records."""

    __slots__ = ()

    def children(self) -> tuple[Expr, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expr):
    a: Expr
    b: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Div(Expr):
    a: Expr
    b: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0 or self.exponent != int(self.exponent):
            raise ValueError(f"Pow exponent must be a non-negative integer, got {self.exponent}")

    def children(self) -> tuple[Expr, ...]:
        return (self.base,)


@dataclass(frozen=True, slots=True)
class Sin(Expr):
    a: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)


@dataclass(frozen=True, slots=True)
class Cos(Expr):
    a: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)


@dataclass(frozen=True, slots=True)
class Msin(Expr):
    u: Expr
    v: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.u, self.v)


_OPCODES: dict[type, int] = {
    Const: CONST,
    Var: VAR,
    Add: ADD,
    Sub: SUB,
    Mul: MUL,
    Div: DIV,
    Neg: NEG,
    Pow: POW,
    Sin: SIN,
    Cos: COS,
    Msin: MSIN,
}
_CLASSES = {op: cls for cls, op in _OPCODES.items()}


def compile_expr(root: Expr) -> Tape:
    """Flatten the DAG under root into a tape, without Python recursion.

    Nodes are placed in the post-order of a left-to-right depth-first walk.
    A node object reached again (a shared subtree) keeps its first slot;
    equal but distinct objects get slots of their own.
    """
    slots: dict[int, int] = {}
    code: list[tuple[int, Any, Any]] = []
    stack: list[Expr] = [root]
    while stack:
        node = stack[-1]
        if id(node) in slots:
            stack.pop()
            continue
        kids = node.children()
        pending = [c for c in kids if id(c) not in slots]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        op = _OPCODES[type(node)]
        if op == CONST:
            ins = (CONST, node.value, None)
        elif op == VAR:
            ins = (VAR, node.name, None)
        elif op == POW:
            ins = (POW, slots[id(node.base)], node.exponent)
        else:
            ins = (op, slots[id(kids[0])], slots[id(kids[1])] if len(kids) > 1 else None)
        slots[id(node)] = len(code)
        code.append(ins)
    return Tape(tuple(code))


def hash_consed(tape: Tape) -> Tape:
    """The tape with equal instructions merged into their first slot; a
    CONST compares by its float's bytes.  Merging compile_expr's tape of a
    tree this way gives the tree's hash-consed post-order."""
    new_slot: list[int] = []
    first: dict[tuple, int] = {}
    code: list[tuple[int, Any, Any]] = []
    for op, a, b in tape.code:
        if op == CONST:
            ins, key = (op, a, b), (op, struct.pack("<d", a))
        elif op == VAR:
            ins = key = (op, a, b)
        elif op == POW:
            ins = key = (op, new_slot[a], b)
        else:
            ins = key = (op, new_slot[a], None if b is None else new_slot[b])
        if key not in first:
            first[key] = len(code)
            code.append(ins)
        new_slot.append(first[key])
    return Tape(tuple(code))


def oracle_tape(root: Expr) -> Tape:
    """The tape that `parse` should emit for the text of root."""
    return hash_consed(compile_expr(root))


def tree_of(tape: Tape) -> Expr:
    """The tape as tree nodes, one object per slot."""
    nodes: list[Expr] = []
    for op, a, b in tape.code:
        if op == CONST:
            nodes.append(Const(a))
        elif op == VAR:
            nodes.append(Var(a))
        elif op == POW:
            nodes.append(Pow(nodes[a], b))
        elif b is None:
            nodes.append(_CLASSES[op](nodes[a]))
        else:
            nodes.append(_CLASSES[op](nodes[a], nodes[b]))
    return nodes[-1]


_FUNCTIONS = {"sin": 1, "cos": 1, "msin": 2}
_ATOM_EXPECTED = {"number", "identifier", "'('", "'-'"}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # NUM IDENT OP LPAREN RPAREN COMMA END
        self.text = text
        self.pos = pos  # character position in the source string


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _oracle_tokenize(text: str) -> list[_Token]:
    """A character-by-character scanner; on ASCII input it reads the
    tokens that exprs' regular expression reads."""
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    digits = "0123456789"
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in digits or (c == "." and i + 1 < n and text[i + 1] in digits):
            start = i
            while i < n and text[i] in digits:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i] in digits:
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in digits:
                    i = j
                    while i < n and text[i] in digits:
                        i += 1
            tokens.append(_Token("NUM", text[start:i], start))
            continue
        if c.isascii() and (c.isalpha() or c == "_"):
            start = i
            while i < n and text[i].isascii() and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
            continue
        kind = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA"}.get(c, "OP" if c in "+-*/^" else None)
        if kind is None:
            raise ParseError(
                f"unexpected character {c!r}", _byte_offset(text, i), _ATOM_EXPECTED | {"operator"}
            )
        tokens.append(_Token(kind, c, i))
        i += 1
    tokens.append(_Token("END", "", n))
    return tokens


class _OracleParser:
    """Recursive descent, one method per grammar rule."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _oracle_tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token, expected: set[str]) -> ParseError:
        return ParseError(message, _byte_offset(self.text, tok.pos), expected)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "NUM" or not tok.text.isdigit():
                raise self.error(
                    "exponent must be a non-negative integer literal", tok, {"non-negative integer"}
                )
            digits = tok.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise self.error(
                    f"exponent exceeds the cap of {MAX_EXPONENT}", tok, {f"integer <= {MAX_EXPONENT}"}
                )
            self.advance()
            return Pow(base, int(digits))
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            value = float(tok.text)
            if value == float("inf"):
                raise self.error("number literal overflows", tok, {"finite number"})
            return Const(value)
        if tok.kind == "IDENT":
            self.advance()
            if tok.text in _FUNCTIONS:
                return self.parse_call(tok)
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect_rparen()
            return node
        raise self.error(
            f"expected expression, found {tok.text or 'end of input'!r}", tok, set(_ATOM_EXPECTED)
        )

    def parse_call(self, name_tok: _Token) -> Expr:
        arity = _FUNCTIONS[name_tok.text]
        tok = self.peek()
        if tok.kind != "LPAREN":
            raise self.error(f"function '{name_tok.text}' requires arguments", tok, {"'('"})
        self.advance()
        args = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_expr())
        close = self.peek()
        self.expect_rparen()
        if len(args) != arity:
            raise self.error(
                f"function '{name_tok.text}' takes {arity} argument(s), got {len(args)}",
                close,
                {f"{arity} argument(s)"},
            )
        if name_tok.text == "sin":
            return Sin(args[0])
        if name_tok.text == "cos":
            return Cos(args[0])
        return Msin(args[0], args[1])

    def expect_rparen(self) -> None:
        tok = self.peek()
        if tok.kind != "RPAREN":
            raise self.error("unbalanced parentheses", tok, {"')'"})
        self.advance()

    def parse(self) -> Expr:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "END":
            raise self.error(
                f"unexpected trailing input {tok.text!r}", tok, {"operator", "end of input"}
            )
        return node


def oracle_parse(text: str) -> Expr:
    """The expression tree of text, by recursive descent (one Python frame
    per nesting level, so keep inputs shallow)."""
    return _OracleParser(text).parse()


def with_blocks(problem: QuantifiedProblem, blocks: Iterable[Block]) -> QuantifiedProblem:
    """The problem under another quantifier prefix."""
    return QuantifiedProblem(problem.variables, tuple(blocks), problem.outputs)


def centers(problem: QuantifiedProblem) -> dict[str, float]:
    """Each variable's linearization center, by name."""
    return {v.name: v.center for v in problem.variables}


def contains(outer: MaybeInterval, inner: float | MaybeInterval) -> bool:
    """Whether outer holds the point or the interval inner; EMPTY holds no
    point and lies inside every interval."""
    if isinstance(inner, (int, float)):
        return not is_empty(outer) and outer.lo <= inner <= outer.hi
    if is_empty(inner):
        return True
    return not is_empty(outer) and outer.lo <= inner.lo and inner.hi <= outer.hi


def dyadic(rng: random.Random, denom: int, lo: int, hi: int) -> float:
    """A float of the form k/denom with k in [lo*denom, hi*denom]."""
    return rng.randint(lo * denom, hi * denom) / denom


def make_affine_problem(rng: random.Random):
    """Random affine problem with dyadic data.

    Returns (constant, coeffs, problem) where the single output is
    constant + sum(coeffs[name] * name).  All numbers are dyadic rationals that
    floats represent exactly, so text round-trips and exact rational
    arithmetic agree bit for bit.
    """
    p = rng.randint(1, 8)
    names = [f"x{i}" for i in range(1, p + 1)]
    blocks = tuple(
        Block(rng.choice((Quantifier.FORALL, Quantifier.EXISTS)), (name,))
        for name in names
    )
    variables = []
    for name in names:
        a = rng.randint(-128, 128) / 64
        b = rng.randint(-128, 128) / 64
        lo, hi = min(a, b), max(a, b)
        dom = Interval(lo, hi)
        variables.append(VariableSpec(name, dom, dom.mid))
    constant = rng.randint(-1024, 1024) / 1024
    coeffs = {name: rng.randint(-1024, 1024) / 1024 for name in names}
    text = repr(constant) + "".join(
        f" + {coeffs[name]!r}*{name}" for name in names
    )
    problem = QuantifiedProblem(
        blocks=blocks,
        variables=tuple(variables),
        outputs=(Output("f", parse(text)),),
    )
    return constant, coeffs, problem


def _random_tree(rng: random.Random, names: list[str], depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Var(rng.choice(names))
        return Const(dyadic(rng, 16, -2, 2))
    kind = rng.choice(
        ("add", "sub", "mul", "neg", "pow", "sin", "cos", "msin")
    )
    a = _random_tree(rng, names, depth - 1)
    if kind == "add":
        return Add(a, _random_tree(rng, names, depth - 1))
    if kind == "sub":
        return Sub(a, _random_tree(rng, names, depth - 1))
    if kind == "mul":
        return Mul(a, _random_tree(rng, names, depth - 1))
    if kind == "neg":
        return Neg(a)
    if kind == "pow":
        return Pow(a, rng.choice((2, 3)))
    if kind == "sin":
        return Sin(a)
    if kind == "cos":
        return Cos(a)
    return Msin(a, _random_tree(rng, names, depth - 1))


def random_expr(rng: random.Random, names: list[str]) -> Tape:
    """Random expression over names; always mentions at least one variable."""
    tree = _random_tree(rng, names, depth=3)
    if not compile_expr(tree).variables:
        tree = Add(tree, Var(rng.choice(names)))
    return compile_expr(tree)


def make_random_problem(rng: random.Random, n_outputs: int = 1) -> QuantifiedProblem:
    """Random nonlinear problem on dyadic sub-boxes of [-2, 2]^p."""
    p = rng.randint(1, 4)
    names = [f"v{i}" for i in range(1, p + 1)]
    blocks = tuple(
        Block(rng.choice((Quantifier.FORALL, Quantifier.EXISTS)), (name,))
        for name in names
    )
    variables = []
    for name in names:
        lo = dyadic(rng, 16, -2, 1)
        width = rng.randint(0, 32) / 16
        dom = Interval(lo, min(lo + width, 2.0))
        variables.append(VariableSpec(name, dom, dom.mid))
    outputs = tuple(
        Output(f"g{j}", random_expr(rng, names)) for j in range(1, n_outputs + 1)
    )
    return QuantifiedProblem(
        blocks=blocks, variables=tuple(variables), outputs=outputs
    )


# ---------------------------------------------------------------------------
# Reference directed rounding of an exact rational (for intervals.round_ratio)
# ---------------------------------------------------------------------------


def _float(x: Fraction) -> float:
    """float(x), or the largest finite float of x's sign when x is beyond
    the float range (the directed step below then reaches the infinity)."""
    try:
        return float(x)
    except OverflowError:
        return sys.float_info.max if x > 0 else -sys.float_info.max


def frac_to_float_down(x: Fraction) -> float:
    """Largest float <= x (float() is correctly rounded, so one step suffices)."""
    f = _float(x)
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def frac_to_float_up(x: Fraction) -> float:
    """Smallest float >= x."""
    f = _float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


# The zero row: what a missing row of a supplied-row output stands for.
ZERO_ROW = ContributionRow(Interval(0.0, 0.0), Interval(0.0, 0.0))


# ---------------------------------------------------------------------------
# Reference interval kernels: min/max over all four directed corners
# ---------------------------------------------------------------------------


def oracle_iv_mul(a: Interval, b: Interval) -> Interval:
    lo = min(
        mul_down(a.lo, b.lo),
        mul_down(a.lo, b.hi),
        mul_down(a.hi, b.lo),
        mul_down(a.hi, b.hi),
    )
    hi = max(
        mul_up(a.lo, b.lo),
        mul_up(a.lo, b.hi),
        mul_up(a.hi, b.lo),
        mul_up(a.hi, b.hi),
    )
    return Interval(lo, hi)


def oracle_iv_div(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise DivisionByZeroInterval(f"division by zero-containing interval {b}")
    lo = min(
        div_down(a.lo, b.lo),
        div_down(a.lo, b.hi),
        div_down(a.hi, b.lo),
        div_down(a.hi, b.hi),
    )
    hi = max(
        div_up(a.lo, b.lo),
        div_up(a.lo, b.hi),
        div_up(a.hi, b.lo),
        div_up(a.hi, b.hi),
    )
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Reference evaluators: one combine per node over a post-order tree walk
# ---------------------------------------------------------------------------


def fold_postorder(root: Expr, combine: Callable[[Expr, tuple[Any, ...]], Any]) -> Any:
    """Bottom-up evaluation without Python recursion.

    combine(node, child_values) produces the value of node from its
    children's values, left to right.  Shared subtree objects are combined
    once and their value reused.
    """
    done: dict[int, Any] = {}
    stack: list[Expr] = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [c for c in node.children() if id(c) not in done]
        if pending:
            stack.extend(reversed(pending))
        else:
            done[id(node)] = combine(node, tuple(done[id(c)] for c in node.children()))
            stack.pop()
    return done[id(root)]


def _lookup(env: Mapping[str, Any], node: Var) -> Any:
    try:
        return env[node.name]
    except KeyError:
        raise MissingVariable(node.name) from None


def oracle_eval_interval(e: Expr, env: Mapping[str, Interval]) -> Interval:
    def combine(node: Expr, kids: tuple[Interval, ...]) -> Interval:
        if isinstance(node, Const):
            return Interval(node.value, node.value)
        if isinstance(node, Var):
            return _lookup(env, node)
        if isinstance(node, Add):
            return iv_add(kids[0], kids[1])
        if isinstance(node, Sub):
            return iv_sub(kids[0], kids[1])
        if isinstance(node, Mul):
            return oracle_iv_mul(kids[0], kids[1])
        if isinstance(node, Div):
            return oracle_iv_div(kids[0], kids[1])
        if isinstance(node, Neg):
            return iv_neg(kids[0])
        if isinstance(node, Pow):
            return iv_pow(kids[0], node.exponent)
        if isinstance(node, Sin):
            return iv_sin(kids[0])
        if isinstance(node, Cos):
            return iv_cos(kids[0])
        return msin_enclosures(kids[0], kids[1])[0]

    return fold_postorder(e, combine)


def oracle_eval_point(e: Expr, env: Mapping[str, float]) -> float:
    def combine(node: Expr, kids: tuple[float, ...]) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return _lookup(env, node)
        if isinstance(node, Add):
            return kids[0] + kids[1]
        if isinstance(node, Sub):
            return kids[0] - kids[1]
        if isinstance(node, Mul):
            return kids[0] * kids[1]
        if isinstance(node, Div):
            return kids[0] / kids[1]
        if isinstance(node, Neg):
            return -kids[0]
        if isinstance(node, Pow):
            return kids[0] ** node.exponent
        if isinstance(node, Sin):
            return math.sin(kids[0])
        if isinstance(node, Cos):
            return math.cos(kids[0])
        u, v = kids
        if v == 0.0:
            return math.cos(u)
        return (math.sin(u + v) - math.sin(u)) / v

    return fold_postorder(e, combine)


_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)


def _merge_linear(
    da: dict[str, Interval],
    db: dict[str, Interval],
    fa: Interval | None,
    fb: Interval | None,
) -> dict[str, Interval]:
    """Sparse combine fa*da + fb*db (None factor means identity)."""
    out: dict[str, Interval] = {}
    for name, d in da.items():
        out[name] = d if fa is None else oracle_iv_mul(fa, d)
    for name, d in db.items():
        term = d if fb is None else oracle_iv_mul(fb, d)
        prev = out.get(name)
        out[name] = term if prev is None else iv_add(prev, term)
    return out


_GradPair = tuple[Interval, dict[str, Interval]]


def _oracle_grad(e: Expr, env: Mapping[str, Interval]) -> _GradPair:
    def combine(node: Expr, kids: tuple[_GradPair, ...]) -> _GradPair:
        if isinstance(node, Const):
            return Interval(node.value, node.value), {}
        if isinstance(node, Var):
            return _lookup(env, node), {node.name: _ONE}
        if isinstance(node, Add):
            (va, da), (vb, db) = kids
            return iv_add(va, vb), _merge_linear(da, db, None, None)
        if isinstance(node, Sub):
            (va, da), (vb, db) = kids
            return iv_sub(va, vb), _merge_linear(da, db, None, Interval(-1.0, -1.0))
        if isinstance(node, Mul):
            (va, da), (vb, db) = kids
            return oracle_iv_mul(va, vb), _merge_linear(da, db, vb, va)
        if isinstance(node, Div):
            (va, da), (vb, db) = kids
            val = oracle_iv_div(va, vb)
            # d(a/b) = (da - (a/b)*db) / b
            out: dict[str, Interval] = {}
            for name in da.keys() | db.keys():
                num = da.get(name, _ZERO)
                d_b = db.get(name)
                if d_b is not None:
                    num = iv_sub(num, oracle_iv_mul(val, d_b))
                out[name] = oracle_iv_div(num, vb)
            return val, out
        if isinstance(node, Neg):
            va, da = kids[0]
            return iv_neg(va), {name: iv_neg(d) for name, d in da.items()}
        if isinstance(node, Pow):
            va, da = kids[0]
            val = iv_pow(va, node.exponent)
            if node.exponent == 0:
                return val, {}
            n = float(node.exponent)
            factor = oracle_iv_mul(Interval(n, n), iv_pow(va, node.exponent - 1))
            return val, {name: oracle_iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Sin):
            va, da = kids[0]
            factor = iv_cos(va)
            return iv_sin(va), {name: oracle_iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Cos):
            va, da = kids[0]
            factor = iv_neg(iv_sin(va))
            return iv_cos(va), {name: oracle_iv_mul(factor, d) for name, d in da.items()}
        (vu, du_map), (vv, dv_map) = kids
        value, d_du, d_dv = msin_enclosures(vu, vv)
        return value, _merge_linear(du_map, dv_map, d_du, d_dv)

    return fold_postorder(e, combine)


def oracle_eval_grad(e: Expr, env: Mapping[str, Interval]) -> GradEnclosure:
    value, sparse = _oracle_grad(e, env)
    return GradEnclosure(value, {name: sparse.get(name, _ZERO) for name in env})


_MAX_FOLD_BITS = 1 << 16  # scalar._MAX_FOLD_BITS


def _foldable(values: Sequence[Fraction]) -> bool:
    return all(max(v.numerator.bit_length(), v.denominator.bit_length()) <= _MAX_FOLD_BITS for v in values)


_AffinePair = tuple[Fraction, dict[str, Fraction]]


def oracle_affine_coefficients(e: Expr) -> _AffinePair | None:
    """scalar.affine_coefficients as a tree walk that folds every node,
    copies every coefficient dict and bounds every folded value."""

    def combine(node: Expr, kids: tuple[_AffinePair | None, ...]) -> _AffinePair | None:
        if isinstance(node, Const):
            return Fraction(node.value), {}
        if isinstance(node, Var):
            return Fraction(0), {node.name: Fraction(1)}
        if isinstance(node, Pow) and node.exponent == 0:
            return Fraction(1), {}
        if isinstance(node, (Sin, Cos, Msin)) or any(k is None for k in kids):
            return None
        if isinstance(node, Neg):
            c, lin = kids[0]
            return -c, {name: -coeff for name, coeff in lin.items()}
        if isinstance(node, Pow):
            c, lin = kids[0]
            if node.exponent == 1:
                return c, dict(lin)
            if lin or max(c.numerator.bit_length(), c.denominator.bit_length()) * node.exponent > _MAX_FOLD_BITS:
                return None
            return c**node.exponent, {}
        (ca, la), (cb, lb) = kids
        if isinstance(node, (Add, Sub)):
            sign = 1 if isinstance(node, Add) else -1
            c, lin = ca + sign * cb, dict(la)
            for name, coeff in lb.items():
                lin[name] = lin.get(name, Fraction(0)) + sign * coeff
        elif isinstance(node, Mul):
            if la and lb:
                return None
            scale, (c, lin) = (ca, (cb, lb)) if not la else (cb, (ca, la))
            c, lin = c * scale, {name: coeff * scale for name, coeff in lin.items()}
        else:  # Div
            if lb or cb == 0:
                return None
            c, lin = ca / cb, {name: coeff / cb for name, coeff in la.items()}
        return (c, lin) if _foldable([c, *lin.values()]) else None

    return fold_postorder(e, combine)


def _oracle_estimate(expr, blocks, grids, env, i):
    if i == len(blocks):
        v = oracle_eval_point(expr, env)
        return (v, v)
    block = blocks[i]
    if not block.names:
        return _oracle_estimate(expr, blocks, grids, env, i + 1)
    universal = block.quantifier is Quantifier.FORALL
    lo, hi = (-math.inf, math.inf) if universal else (math.inf, -math.inf)
    seen = False
    for assignment in itertools.product(*(grids[name] for name in block.names)):
        env.update(zip(block.names, assignment))
        child = _oracle_estimate(expr, blocks, grids, env, i + 1)
        if child is None:
            if universal:
                return None
            continue
        seen = True
        if universal:
            lo, hi = max(lo, child[0]), min(hi, child[1])
        else:
            lo, hi = min(lo, child[0]), max(hi, child[1])
    if not seen or lo > hi:
        return None
    return (lo, hi)


def oracle_sampling_estimate(problem: QuantifiedProblem, points: int) -> tuple:
    """The grid estimate by recursion over the normalized prefix (one
    Python frame per block) and tree-walking point evaluation."""
    grids = {v.name: _grid(v.domain, points) for v in problem.variables}
    out = []
    for output in problem.outputs:
        got = _oracle_estimate(tree_of(output.expr), problem.normalized(), grids, {}, 0)
        out.append(EMPTY if got is None else Interval(got[0], got[1]))
    return tuple(out)


def oracle_first_failing_pair(
    forall_widths: Sequence[Fraction], exists_widths: Sequence[Fraction]
) -> int | None:
    """The alternation check with every suffix summed afresh (quadratic)."""
    n = len(forall_widths)
    for l in range(n):
        rhs = sum(exists_widths[l:], Fraction(0)) - sum(forall_widths[l + 1 :], Fraction(0))
        if forall_widths[l] > rhs:
            return l + 1
    return None


def oracle_first_failing_pair_one_pass(
    forall_widths: Sequence[Fraction], exists_widths: Sequence[Fraction]
) -> int | None:
    """First 1-based pair index violating the alternation condition, if any.

    Pair l is fine when the universal width at l does not exceed the
    existential widths from pair l onward minus the universal widths after l.
    One backward pass keeps that right-hand side as a running sum.
    """
    failed = None
    rhs = later_forall = Fraction(0)
    for l in range(len(forall_widths) - 1, -1, -1):
        rhs += exists_widths[l] - later_forall
        later_forall = forall_widths[l]
        if later_forall > rhs:
            failed = l + 1
    return failed


def _oracle_block_sums(
    rows: Mapping[str, ContributionRow], block: Block
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(inner_lo, inner_hi, outer_lo, outer_hi) summed over a block."""
    il = ih = ol = oh = Fraction(0)
    for name in block.names:
        row = rows.get(name, ZERO_ROW)
        il += Fraction(row.inner.lo)
        ih += Fraction(row.inner.hi)
        ol += Fraction(row.outer.lo)
        oh += Fraction(row.outer.hi)
    return il, ih, ol, oh


def _inward(lo: Fraction, hi: Fraction) -> MaybeInterval:
    lo_f, hi_f = frac_to_float_up(lo), frac_to_float_down(hi)
    return Interval(lo_f, hi_f) if lo_f <= hi_f else EMPTY


def oracle_inner_bounds(
    fc: Interval, rows: Mapping[str, ContributionRow], pairs: Sequence[tuple[Block, Block]]
) -> tuple[MaybeInterval, int | None]:
    """The inner half of the row assembly in Fractions: the box and the
    first failing pair."""
    fa = [_oracle_block_sums(rows, p[0]) for p in pairs]  # universal blocks
    ex = [_oracle_block_sums(rows, p[1]) for p in pairs]  # existential blocks
    # Universal blocks charged their outer rows, existential blocks
    # credited their inner rows.
    inner_lo = Fraction(fc.hi) + sum((fa[k][3] + ex[k][0] for k in range(len(pairs))), Fraction(0))
    inner_hi = Fraction(fc.lo) + sum((ex[k][1] + fa[k][2] for k in range(len(pairs))), Fraction(0))
    failed = oracle_first_failing_pair_one_pass(
        [fa[k][3] - fa[k][2] for k in range(len(pairs))],
        [ex[k][1] - ex[k][0] for k in range(len(pairs))],
    )
    return (EMPTY, failed) if failed is not None else (_inward(inner_lo, inner_hi), None)


def oracle_assemble_bounds(
    fc: Interval,
    rows: Mapping[str, ContributionRow],
    pairs: Sequence[tuple[Block, Block]],
    all_names: Sequence[str],
) -> ScalarResult:
    """Pairwise inner/outer assembly from contribution rows, summed in
    Fractions block by block."""
    fl, fh = Fraction(fc.lo), Fraction(fc.hi)
    inner, inner_failed = oracle_inner_bounds(fc, rows, pairs)
    fa = [_oracle_block_sums(rows, p[0]) for p in pairs]
    ex = [_oracle_block_sums(rows, p[1]) for p in pairs]
    # Outer: universal blocks credited their inner rows, existential blocks
    # charged their outer rows.
    outer_failed = oracle_first_failing_pair_one_pass(
        [fa[k][1] - fa[k][0] for k in range(len(pairs))],
        [ex[k][3] - ex[k][2] for k in range(len(pairs))],
    )
    if outer_failed is None:
        outer_lo = fl + sum((fa[k][1] + ex[k][2] for k in range(len(pairs))), Fraction(0))
        outer_hi = fh + sum((fa[k][0] + ex[k][3] for k in range(len(pairs))), Fraction(0))
    else:
        # Fallback: plain mean-value range enclosure over every variable.
        outer_lo = fl + sum((Fraction(rows.get(n, ZERO_ROW).outer.lo) for n in all_names), Fraction(0))
        outer_hi = fh + sum((Fraction(rows.get(n, ZERO_ROW).outer.hi) for n in all_names), Fraction(0))
    outer = Interval(frac_to_float_down(outer_lo), frac_to_float_up(outer_hi))
    return ScalarResult(inner, outer, "mean-value", inner_failed, outer_failed)


def oracle_exact_affine_range(
    delta0: Fraction,
    coeffs: Mapping[str, Fraction],
    problem: QuantifiedProblem,
) -> tuple[Fraction, Fraction] | None:
    """Exact quantified range of an affine function, None when the set is
    empty, from per-block norms summed in Fractions."""
    specs = {v.name: v for v in problem.variables}
    const = delta0
    norms: list[Fraction] = []
    for block in problem.normalized():
        total = Fraction(0)
        for name in block.names:
            spec = specs[name]
            coeff = coeffs.get(name, Fraction(0))
            lo, hi = Fraction(spec.domain.lo), Fraction(spec.domain.hi)
            total += abs(coeff) * (hi - lo) / 2
            const += coeff * (hi + lo) / 2
        norms.append(total)
    forall_norms = norms[0::2]
    exists_norms = norms[1::2]
    if oracle_first_failing_pair_one_pass(forall_norms, exists_norms) is not None:
        return None
    offset = sum(exists_norms, Fraction(0)) - sum(forall_norms, Fraction(0))
    return const - offset, const + offset


@dataclass(frozen=True, slots=True)
class OracleOutput:
    """What the oracles read of one output: its exact affine form, or else
    (affine None) its center value and its contribution rows."""

    affine: _AffinePair | None
    fc: Interval | None = None
    rows: Mapping[str, ContributionRow] | None = None


def oracle_output(
    problem: QuantifiedProblem, tape: Tape, supplied_rows: Mapping[str, ContributionRow] | None = None
) -> OracleOutput:
    """The tape's affine form (tree fold), or its center value (tree walk)
    and rows; supplied rows replace the computed ones and leave the affine
    form out, as in scalar.prepare."""
    tree = tree_of(tape)
    affine = None if supplied_rows is not None else oracle_affine_coefficients(tree)
    if affine is not None:
        return OracleOutput(affine)
    fc = oracle_eval_interval(tree, problem.center_env())
    rows = contribution_rows(tape, problem) if supplied_rows is None else supplied_rows
    return OracleOutput(None, fc, rows)


def oracle_assemble(prepared: OracleOutput, problem: QuantifiedProblem) -> ScalarResult:
    """The bounds of an output's affine form, or of its center value and
    rows, under the problem's prefix, from the Fraction oracles."""
    if prepared.affine is not None:
        exact = oracle_exact_affine_range(*prepared.affine, problem)
        if exact is None:
            return ScalarResult(EMPTY, EMPTY, "exact-affine")
        lo, hi = exact
        outer = Interval(frac_to_float_down(lo), frac_to_float_up(hi))
        return ScalarResult(_inward(lo, hi), outer, "exact-affine")
    names = [v.name for v in problem.variables]
    return oracle_assemble_bounds(prepared.fc, prepared.rows, problem.normalized_pairs(), names)


def oracle_inner(
    prepared: OracleOutput, problem: QuantifiedProblem
) -> tuple[MaybeInterval, int | None]:
    """oracle_assemble(prepared, problem)'s inner box and failing pair
    without the outer half, which can fail on its own."""
    if prepared.affine is None:
        return oracle_inner_bounds(prepared.fc, prepared.rows, problem.normalized_pairs())
    exact = oracle_exact_affine_range(*prepared.affine, problem)
    return (EMPTY if exact is None else _inward(*exact)), None


def derived_blocks(
    problem: QuantifiedProblem, component: int, assignment: Mapping[str, int]
) -> tuple[Block, ...]:
    """The prefix rewrite for one component under an existential assignment:
    each existential assigned elsewhere is demoted to the universal block of
    its pair, after the pair's universals."""
    out: list[Block] = []
    for fa, ex in problem.normalized_pairs():
        moved = tuple(n for n in ex.names if assignment[n] != component)
        kept = tuple(n for n in ex.names if assignment[n] == component)
        out.append(Block(Quantifier.FORALL, fa.names + moved))
        out.append(Block(Quantifier.EXISTS, kept))
    return tuple(out)


def oracle_exhaustive_assignment(
    problem: QuantifiedProblem,
    prepared: Sequence[OracleOutput],
    exist_names: Sequence[str],
) -> dict[str, int]:
    """Brute-force search over every assignment: a later assignment wins
    only with a strictly larger (nonempty components, total inner width).
    Each (component, kept set) inner box comes from oracle_inner on the
    rewritten prefix, once."""
    boxes: dict[tuple[int, tuple[bool, ...]], MaybeInterval] = {}
    best_vec: tuple[int, ...] | None = None
    best_score: tuple[int, Fraction] | None = None
    for vec in itertools.product(range(len(prepared)), repeat=len(exist_names)):
        nonempty, width = 0, Fraction(0)
        for j, p in enumerate(prepared):
            kept = tuple(c == j for c in vec)
            if (j, kept) not in boxes:
                derived = derived_blocks(problem, j, dict(zip(exist_names, vec)))
                boxes[j, kept] = oracle_inner(p, with_blocks(problem, derived))[0]
            iv = boxes[j, kept]
            if not is_empty(iv):
                nonempty += 1
                width += Fraction(iv.hi) - Fraction(iv.lo)
        if best_score is None or (nonempty, width) > best_score:
            best_score = (nonempty, width)
            best_vec = vec
    assert best_vec is not None
    return dict(zip(exist_names, best_vec))


def oracle_greedy_assignment(
    problem: QuantifiedProblem,
    prepared: Sequence[OracleOutput],
    exist_names: Sequence[str],
) -> dict[str, int]:
    """The greedy assignment from row widths summed in Fractions, in the
    order it hands the existentials out.  A prepared output's rows are its
    contribution rows, or for an affine output the exact rows
    +-|c| * (hi - lo) / 2 of each variable."""
    specs = {v.name: v for v in problem.variables}
    universal = [
        name
        for block in problem.normalized()
        if block.quantifier is Quantifier.FORALL
        for name in block.names
    ]

    def row_width(p: OracleOutput, name: str, inner: bool) -> Fraction:
        if p.affine is not None:
            domain = specs[name].domain
            return abs(p.affine[1].get(name, Fraction(0))) * (
                Fraction(domain.hi) - Fraction(domain.lo)
            )
        row = p.rows.get(name, ZERO_ROW)
        iv = row.inner if inner else row.outer
        return Fraction(iv.hi) - Fraction(iv.lo)

    deficit = [
        sum((row_width(p, u, inner=False) for u in universal), Fraction(0))
        for p in prepared
    ]
    order = sorted(
        range(len(exist_names)),
        key=lambda i: max(row_width(p, exist_names[i], inner=True) for p in prepared),
        reverse=True,
    )
    assignment: dict[str, int] = {}
    for i in order:
        name = exist_names[i]
        # max keeps the first component of largest gain
        assignment[name] = best_j = max(
            range(len(prepared)),
            key=lambda j: min(row_width(prepared[j], name, inner=True), deficit[j]),
        )
        deficit[best_j] -= row_width(prepared[best_j], name, inner=True)
    return assignment


def vertex_oracle_affine(
    delta0: float | Fraction,
    coeffs: Mapping[str, float | Fraction],
    problem: QuantifiedProblem,
) -> MaybeInterval:
    """Endpoint-grid estimate of an affine function under the problem's
    prefix and domains — exact for affine problems (extrema at vertices)."""
    expr: Expr = Const(float(delta0))
    for spec in problem.variables:
        c = float(coeffs.get(spec.name, 0.0))
        if c != 0.0:
            expr = Add(expr, Mul(Const(c), Var(spec.name)))
    oracle_problem = QuantifiedProblem(
        problem.variables, problem.blocks, (Output("f", compile_expr(expr)),)
    )
    return sampling_estimate(oracle_problem, 2)[0]
