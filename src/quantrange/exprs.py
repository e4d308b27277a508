"""Expression AST, text parser, interval evaluation, and interval gradients.

Grammar (infix, precedence climbing):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' nonneg-integer)?
    atom    := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'
    func    := 'sin' | 'cos' | 'msin'
    number  := decimal or scientific literal (e.g. 2, 0.5, 1.31e-7)
    ident   := [A-Za-z_][A-Za-z0-9_]*

msin(u, v) is the continuously extended divided difference
(sin(u+v) - sin(u)) / v, equal to cos(u) at v = 0.  It evaluates and
differentiates through sound enclosures over hull(u, u+v), so a domain
containing v = 0 needs no special casing downstream.

Evaluation is containment-sound: for every point assignment drawn from the
environment, the pointwise value (and each partial derivative) lies in the
computed interval.  Gradients are forward-mode over interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

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
    "ParseError",
    "MissingVariable",
    "parse",
    "to_text",
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


def _fold_postorder(root: Expr, combine: Callable[[Expr, tuple[Any, ...]], Any]) -> Any:
    """Bottom-up evaluation without Python recursion.

    combine(node, child_values) produces the value of node from its
    children's values, left to right.  Shared subtree objects are combined
    once and their value reused, so cost is linear in distinct nodes and
    arbitrarily deep trees (e.g. long sum chains) evaluate fine.
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
            self.advance()
            return Pow(base, int(tok.text))
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


def _wrap(child: tuple[str, int], parent_prec: int, right_side: bool) -> str:
    text, prec = child
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _fmt_node(e: Expr, kids: tuple[tuple[str, int], ...]) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:  # print as unary minus so the printed form reparses
            return f"-{-e.value!r}", _PREC_NEG
        return repr(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, (Sin, Cos)):
        name = "sin" if isinstance(e, Sin) else "cos"
        return f"{name}({kids[0][0]})", _PREC_ATOM
    if isinstance(e, Msin):
        return f"msin({kids[0][0]}, {kids[1][0]})", _PREC_ATOM
    if isinstance(e, Neg):
        return f"-{_wrap(kids[0], _PREC_NEG, False)}", _PREC_NEG
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        text = f"{_wrap(kids[0], _PREC_ADD, False)} {op} {_wrap(kids[1], _PREC_ADD, True)}"
        return text, _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        text = f"{_wrap(kids[0], _PREC_MUL, False)}{op}{_wrap(kids[1], _PREC_MUL, True)}"
        return text, _PREC_MUL
    if isinstance(e, Pow):
        return f"{_wrap(kids[0], _PREC_POW, True)}^{e.exponent}", _PREC_POW
    raise TypeError(f"unknown node {e!r}")  # pragma: no cover


def to_text(e: Expr) -> str:
    """Render the tree as parseable infix text."""
    text, _ = _fold_postorder(e, _fmt_node)
    return text


# ---------------------------------------------------------------------------
# Interval evaluation
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


def eval_interval(e: Expr, env: Mapping[str, Interval]) -> Interval:
    """Sound range enclosure of e over the box described by env.

    Raises:
        MissingVariable: a variable of e is not bound in env.
        DivisionByZeroInterval: a divisor enclosure contains zero.
    """

    def combine(node: Expr, kids: tuple[Interval, ...]) -> Interval:
        if isinstance(node, Const):
            return Interval(node.value, node.value)
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise MissingVariable(node.name) from None
        if isinstance(node, Add):
            return iv_add(kids[0], kids[1])
        if isinstance(node, Sub):
            return iv_sub(kids[0], kids[1])
        if isinstance(node, Mul):
            return iv_mul(kids[0], kids[1])
        if isinstance(node, Div):
            return iv_div(kids[0], kids[1])
        if isinstance(node, Neg):
            return iv_neg(kids[0])
        if isinstance(node, Pow):
            return iv_pow(kids[0], node.exponent)
        if isinstance(node, Sin):
            return iv_sin(kids[0])
        if isinstance(node, Cos):
            return iv_cos(kids[0])
        if isinstance(node, Msin):
            return msin_enclosures(kids[0], kids[1])[0]
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    return _fold_postorder(e, combine)


def eval_point(e: Expr, env: Mapping[str, float]) -> float:
    """Plain float evaluation (used by the sampling estimator)."""

    def combine(node: Expr, kids: tuple[float, ...]) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise MissingVariable(node.name) from None
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
        if isinstance(node, Msin):
            u, v = kids
            if v == 0.0:
                return math.cos(u)
            return (math.sin(u + v) - math.sin(u)) / v
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    return _fold_postorder(e, combine)


# ---------------------------------------------------------------------------
# Forward-mode interval gradients
# ---------------------------------------------------------------------------


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


def _merge_linear(
    da: dict[str, Interval],
    db: dict[str, Interval],
    fa: Interval | None,
    fb: Interval | None,
) -> dict[str, Interval]:
    """Sparse combine fa*da + fb*db (None factor means identity)."""
    out: dict[str, Interval] = {}
    for name, d in da.items():
        out[name] = d if fa is None else iv_mul(fa, d)
    for name, d in db.items():
        term = d if fb is None else iv_mul(fb, d)
        prev = out.get(name)
        out[name] = term if prev is None else iv_add(prev, term)
    return out


_GradPair = tuple[Interval, dict[str, Interval]]


def _grad(e: Expr, env: Mapping[str, Interval]) -> _GradPair:
    def combine(node: Expr, kids: tuple[_GradPair, ...]) -> _GradPair:
        if isinstance(node, Const):
            return Interval(node.value, node.value), {}
        if isinstance(node, Var):
            try:
                return env[node.name], {node.name: _ONE}
            except KeyError:
                raise MissingVariable(node.name) from None
        if isinstance(node, Add):
            (va, da), (vb, db) = kids
            return iv_add(va, vb), _merge_linear(da, db, None, None)
        if isinstance(node, Sub):
            (va, da), (vb, db) = kids
            return iv_sub(va, vb), _merge_linear(da, db, None, Interval(-1.0, -1.0))
        if isinstance(node, Mul):
            (va, da), (vb, db) = kids
            return iv_mul(va, vb), _merge_linear(da, db, vb, va)
        if isinstance(node, Div):
            (va, da), (vb, db) = kids
            val = iv_div(va, vb)
            # d(a/b) = (da - (a/b)*db) / b
            out: dict[str, Interval] = {}
            for name in da.keys() | db.keys():
                num = da.get(name, _ZERO)
                d_b = db.get(name)
                if d_b is not None:
                    num = iv_sub(num, iv_mul(val, d_b))
                out[name] = iv_div(num, vb)
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
            factor = iv_mul(Interval(n, n), iv_pow(va, node.exponent - 1))
            return val, {name: iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Sin):
            va, da = kids[0]
            factor = iv_cos(va)
            return iv_sin(va), {name: iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Cos):
            va, da = kids[0]
            factor = iv_neg(iv_sin(va))
            return iv_cos(va), {name: iv_mul(factor, d) for name, d in da.items()}
        if isinstance(node, Msin):
            (vu, du_map), (vv, dv_map) = kids
            value, d_du, d_dv = msin_enclosures(vu, vv)
            return value, _merge_linear(du_map, dv_map, d_du, d_dv)
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    return _fold_postorder(e, combine)


def eval_grad(e: Expr, env: Mapping[str, Interval]) -> GradEnclosure:
    """Value and signed partial enclosures of e over env (forward mode).

    Each partial interval contains de/dx_j at every point of the box; the
    result maps every variable of env, with [0,0] for absent variables.
    """
    value, sparse = _grad(e, env)
    partials = {name: sparse.get(name, _ZERO) for name in env}
    return GradEnclosure(value, partials)
