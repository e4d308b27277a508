"""Expression AST, text parser, and the compiled tape behind every evaluator.

Grammar (infix, precedence climbing):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' nonneg-integer)?      (at most MAX_EXPONENT)
    atom    := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'
    func    := 'sin' | 'cos' | 'msin'
    number  := decimal or scientific literal (e.g. 2, 0.5, 1.31e-7)
    ident   := [A-Za-z_][A-Za-z0-9_]*

msin(u, v) is the continuously extended divided difference
(sin(u+v) - sin(u)) / v, equal to cos(u) at v = 0.  It evaluates and
differentiates through sound enclosures over hull(u, u+v), so a domain
containing v = 0 needs no special casing downstream.

An expression is compiled once into a Tape: its distinct nodes in
topological order, each an opcode with its child slots (shared subtrees
keep one slot).  Point, interval and gradient evaluation, the printer and
the affine folding in `scalar` are sweeps over that one tape; each accepts
an Expr too and compiles it first, so a caller that evaluates an
expression repeatedly compiles it once with `compile_expr` and passes the
tape.  The tape also counts each slot's readers (the instructions that
take it as a child, once per operand position), so a sweep can update a
child's partial dict or linear form in place when no other instruction
reads it, instead of copying it: a sum chain then costs O(n), not O(n^2).
Slots of a shared subtree keep being copied.

Evaluation is containment-sound: for every point assignment drawn from the
environment, the pointwise value (and each partial derivative) lies in the
computed interval.  Gradients are forward-mode over interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .intervals import (
    Interval,
    iv_add,
    iv_cos,
    iv_div,
    iv_hull,
    iv_mul,
    iv_neg,
    iv_pow,
    iv_sin,
    iv_sub,
)

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Sin",
    "Cos",
    "Msin",
    "GradEnclosure",
    "Tape",
    "CONST",
    "VAR",
    "ADD",
    "SUB",
    "MUL",
    "DIV",
    "NEG",
    "POW",
    "SIN",
    "COS",
    "MSIN",
    "ParseError",
    "MAX_EXPONENT",
    "MissingVariable",
    "parse",
    "compile_expr",
    "as_tape",
    "to_text",
    "eval_point",
    "eval_interval",
    "eval_grad",
    "msin_enclosures",
    "variables_of",
]


class MissingVariable(KeyError):
    """Raised when evaluation meets a variable absent from the environment."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(name)

    def __str__(self) -> str:
        return f"variable '{self.name}' is not bound in the evaluation environment"


# ---------------------------------------------------------------------------
# AST
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


def variables_of(e: Expr) -> set[str]:
    """Set of variable names appearing in the tree."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:
            stack.extend(node.children())
    return out


# ---------------------------------------------------------------------------
# Compiled tape
# ---------------------------------------------------------------------------

# Opcodes: one per node class.
CONST, VAR, ADD, SUB, MUL, DIV, NEG, POW, SIN, COS, MSIN = range(11)

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

Instruction = tuple[int, Any, Any]


class Tape:
    """An expression compiled for evaluation: one instruction per distinct
    node, children before parents, the root last.

    Instruction i is (op, a, b) and its value is slot i of a sweep.  a and b
    are the node's child slots, except that a CONST holds its value in a, a
    VAR its name in a, and a POW its exponent in b; unused fields are None.
    readers[i] is the number of operand positions that read slot i (0 for
    the root), so a sweep may reuse slot i's value in place when it is 1.
    """

    __slots__ = ("code", "readers")

    def __init__(self, code: tuple[Instruction, ...], readers: tuple[int, ...]) -> None:
        self.code = code
        self.readers = readers


def compile_expr(root: Expr) -> Tape:
    """Flatten the DAG under root into a tape, without Python recursion.

    Nodes are placed in the post-order of a left-to-right depth-first walk.
    A node object reached again (a shared subtree) keeps its first slot, so
    the tape is linear in distinct nodes and arbitrarily deep trees compile.
    """
    slots: dict[int, int] = {}
    code: list[Instruction] = []
    readers: list[int] = []
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
        op = _OPCODES.get(type(node))
        if op is None:
            raise TypeError(f"unknown node {node!r}")
        if op == CONST:
            ins = (CONST, node.value, None)
        elif op == VAR:
            ins = (VAR, node.name, None)
        elif op == POW:
            ins = (POW, slots[id(node.base)], node.exponent)
        else:
            ins = (op, slots[id(kids[0])], slots[id(kids[1])] if len(kids) > 1 else None)
        for kid in kids:
            readers[slots[id(kid)]] += 1
        slots[id(node)] = len(code)
        code.append(ins)
        readers.append(0)
    return Tape(tuple(code), tuple(readers))


def as_tape(e: Expr | Tape) -> Tape:
    """e itself when already compiled, else its tape."""
    return e if isinstance(e, Tape) else compile_expr(e)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: set[str]) -> None:
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at byte offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


_FUNCTIONS = {"sin": 1, "cos": 1, "msin": 2}

# Largest exponent literal the parser accepts.  Interval powers take one
# directed product per unit of exponent, and exact constant folding grows
# with it, so an unbounded literal means unbounded work.
MAX_EXPONENT = 1024

_ATOM_EXPECTED = {"number", "identifier", "'('", "'-'"}


@dataclass(slots=True)
class _Token:
    kind: str  # NUM IDENT OP LPAREN RPAREN COMMA END
    text: str
    pos: int  # character position in the source string


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(_Token("NUM", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
            continue
        if c in "+-*/^":
            tokens.append(_Token("OP", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("LPAREN", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("RPAREN", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(_Token("COMMA", c, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {c!r}",
            _byte_offset(text, i),
            _ATOM_EXPECTED | {"operator"},
        )
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token, expected: set[str]) -> ParseError:
        return ParseError(message, _byte_offset(self.text, tok.pos), expected)

    # ---- grammar rules ----

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
                    "exponent must be a non-negative integer literal",
                    tok,
                    {"non-negative integer"},
                )
            # Compare digit counts first: int() refuses very long literals.
            digits = tok.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise self.error(
                    f"exponent exceeds the cap of {MAX_EXPONENT}",
                    tok,
                    {f"integer <= {MAX_EXPONENT}"},
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
        raise self.error(f"expected expression, found {tok.text or 'end of input'!r}", tok, set(_ATOM_EXPECTED))

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
            raise self.error(f"unexpected trailing input {tok.text!r}", tok, {"operator", "end of input"})
        return node


def parse(text: str) -> Expr:
    """Parse an infix expression; raises ParseError on malformed input,
    including nesting deeper than the recursive descent can follow."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression nested too deeply", parser.peek(), set()) from None




# ---------------------------------------------------------------------------
# Printer (round-trip: parse(to_text(parse(s))) is structurally identical)
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

_INFIX = {ADD: (" + ", _PREC_ADD), SUB: (" - ", _PREC_ADD), MUL: ("*", _PREC_MUL), DIV: ("/", _PREC_MUL)}


def _wrap(child: tuple[str, int], parent_prec: int, right_side: bool) -> str:
    text, prec = child
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _fmt(op: int, a: Any, b: Any, done: list[tuple[str, int]]) -> tuple[str, int]:
    if op == CONST:
        if a < 0:  # print as unary minus so the printed form reparses
            return f"-{-a!r}", _PREC_NEG
        return repr(a), _PREC_ATOM
    if op == VAR:
        return a, _PREC_ATOM
    if op == SIN or op == COS:
        name = "sin" if op == SIN else "cos"
        return f"{name}({done[a][0]})", _PREC_ATOM
    if op == MSIN:
        return f"msin({done[a][0]}, {done[b][0]})", _PREC_ATOM
    if op == NEG:
        return f"-{_wrap(done[a], _PREC_NEG, False)}", _PREC_NEG
    if op == POW:
        return f"{_wrap(done[a], _PREC_POW, True)}^{b}", _PREC_POW
    sym, prec = _INFIX[op]
    return f"{_wrap(done[a], prec, False)}{sym}{_wrap(done[b], prec, True)}", prec


def to_text(e: Expr | Tape) -> str:
    """Render the expression as parseable infix text."""
    done: list[tuple[str, int]] = []
    for op, a, b in as_tape(e).code:
        done.append(_fmt(op, a, b, done))
    return done[-1][0]


# ---------------------------------------------------------------------------
# Evaluation: interval, point and gradient sweeps over one tape
# ---------------------------------------------------------------------------


def msin_enclosures(u: Interval, v: Interval) -> tuple[Interval, Interval, Interval]:
    """Sound enclosures (value, d/du, d/dv) of msin over the boxes u, v.

    With h = hull(u, u+v):
      value in cos(h)            (mean value of sin over [u, u+v]),
      d/du  in -sin(h)           ((cos(u+v) - cos u)/v by the same argument),
      d/dv  in [-s, s], s = mag(sin(h))   (two mean-value applications).

    At u = v = [0,0] this yields exactly ([1,1], [0,0], [0,0]).
    """
    h = iv_hull(u, iv_add(u, v))
    assert isinstance(h, Interval)
    sin_h = iv_sin(h)
    value = iv_cos(h)
    du = iv_neg(sin_h)
    s = sin_h.mag()
    dv = Interval(-s, s)
    return value, du, dv


def eval_interval(e: Expr | Tape, env: Mapping[str, Interval]) -> Interval:
    """Sound range enclosure of e over the box described by env.

    Raises:
        MissingVariable: a variable of e is not bound in env.
        DivisionByZeroInterval: a divisor enclosure contains zero.
    """
    vals: list[Interval] = []
    push = vals.append
    for op, a, b in as_tape(e).code:
        if op == VAR:
            try:
                push(env[a])
            except KeyError:
                raise MissingVariable(a) from None
        elif op == CONST:
            push(Interval(a, a))
        elif op == ADD:
            push(iv_add(vals[a], vals[b]))
        elif op == MUL:
            push(iv_mul(vals[a], vals[b]))
        elif op == SUB:
            push(iv_sub(vals[a], vals[b]))
        elif op == POW:
            push(iv_pow(vals[a], b))
        elif op == DIV:
            push(iv_div(vals[a], vals[b]))
        elif op == NEG:
            push(iv_neg(vals[a]))
        elif op == SIN:
            push(iv_sin(vals[a]))
        elif op == COS:
            push(iv_cos(vals[a]))
        else:
            push(msin_enclosures(vals[a], vals[b])[0])
    return vals[-1]


def eval_point(e: Expr | Tape, env: Mapping[str, float]) -> float:
    """Plain float evaluation (used by the sampling estimator)."""
    vals: list[float] = []
    push = vals.append
    for op, a, b in as_tape(e).code:
        if op == VAR:
            try:
                push(env[a])
            except KeyError:
                raise MissingVariable(a) from None
        elif op == CONST:
            push(a)
        elif op == ADD:
            push(vals[a] + vals[b])
        elif op == MUL:
            push(vals[a] * vals[b])
        elif op == SUB:
            push(vals[a] - vals[b])
        elif op == POW:
            push(vals[a] ** b)
        elif op == DIV:
            push(vals[a] / vals[b])
        elif op == NEG:
            push(-vals[a])
        elif op == SIN:
            push(math.sin(vals[a]))
        elif op == COS:
            push(math.cos(vals[a]))
        else:
            u, v = vals[a], vals[b]
            push(math.cos(u) if v == 0.0 else (math.sin(u + v) - math.sin(u)) / v)
    return vals[-1]


@dataclass(slots=True)
class GradEnclosure:
    """Value enclosure plus signed partial-derivative enclosures.

    partials holds an entry for every declared variable; variables absent
    from the expression map to [0, 0].
    """

    value: Interval
    partials: dict[str, Interval] = field(default_factory=dict)


_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)
_MINUS_ONE = Interval(-1.0, -1.0)


def _merge_linear(
    da: dict[str, Interval],
    db: dict[str, Interval],
    fa: Interval | None,
    fb: Interval | None,
    reuse: bool,
) -> dict[str, Interval]:
    """Sparse combine fa*da + fb*db (None factor means identity).

    With reuse, da belongs to a slot that nothing else reads and becomes
    the result, updated in place; otherwise it is left untouched.
    """
    if not reuse:
        out = dict(da) if fa is None else {name: iv_mul(fa, d) for name, d in da.items()}
    else:
        out = da
        if fa is not None:
            for name, d in da.items():
                out[name] = iv_mul(fa, d)
    for name, d in db.items():
        term = d if fb is None else iv_mul(fb, d)
        prev = out.get(name)
        out[name] = term if prev is None else iv_add(prev, term)
    return out


def eval_grad(e: Expr | Tape, env: Mapping[str, Interval]) -> GradEnclosure:
    """Value and signed partial enclosures of e over env (forward mode).

    Each partial interval contains de/dx_j at every point of the box; the
    result maps every variable of env, with [0,0] for absent variables.
    """
    tape = as_tape(e)
    readers = tape.readers
    vals: list[Interval] = []
    ders: list[dict[str, Interval]] = []
    for op, a, b in tape.code:
        if op == VAR:
            try:
                val = env[a]
            except KeyError:
                raise MissingVariable(a) from None
            der = {a: _ONE}
        elif op == CONST:
            val, der = Interval(a, a), {}
        elif op == ADD:
            val = iv_add(vals[a], vals[b])
            der = _merge_linear(ders[a], ders[b], None, None, readers[a] == 1)
        elif op == SUB:
            val = iv_sub(vals[a], vals[b])
            der = _merge_linear(ders[a], ders[b], None, _MINUS_ONE, readers[a] == 1)
        elif op == MUL:
            val = iv_mul(vals[a], vals[b])
            der = _merge_linear(ders[a], ders[b], vals[b], vals[a], readers[a] == 1)
        elif op == DIV:
            vb, da, db = vals[b], ders[a], ders[b]
            val = iv_div(vals[a], vb)
            # d(a/b) = (da - (a/b)*db) / b
            der = {}
            for name in da.keys() | db.keys():
                num = da.get(name, _ZERO)
                d_b = db.get(name)
                if d_b is not None:
                    num = iv_sub(num, iv_mul(val, d_b))
                der[name] = iv_div(num, vb)
        elif op == NEG:
            val = iv_neg(vals[a])
            der = {name: iv_neg(d) for name, d in ders[a].items()}
        elif op == POW:
            va = vals[a]
            val = iv_pow(va, b)
            if b == 0:
                der = {}
            else:
                n = float(b)
                factor = iv_mul(Interval(n, n), iv_pow(va, b - 1))
                der = {name: iv_mul(factor, d) for name, d in ders[a].items()}
        elif op == SIN:
            factor = iv_cos(vals[a])
            val = iv_sin(vals[a])
            der = {name: iv_mul(factor, d) for name, d in ders[a].items()}
        elif op == COS:
            factor = iv_neg(iv_sin(vals[a]))
            val = iv_cos(vals[a])
            der = {name: iv_mul(factor, d) for name, d in ders[a].items()}
        else:
            val, d_du, d_dv = msin_enclosures(vals[a], vals[b])
            der = _merge_linear(ders[a], ders[b], d_du, d_dv, readers[a] == 1)
        vals.append(val)
        ders.append(der)
    sparse = ders[-1]
    return GradEnclosure(vals[-1], {name: sparse.get(name, _ZERO) for name in env})
