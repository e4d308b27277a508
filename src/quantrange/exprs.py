"""Expression text, the tape it parses to, and the sweeps over that tape.

Grammar (infix):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' nonneg-integer)?      (at most MAX_EXPONENT)
    atom    := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'
    func    := 'sin' | 'cos' | 'msin'
    number  := [0-9]+ ('.' [0-9]*)? exp? | '.' [0-9]+ exp?
    exp     := [eE] [+-]? [0-9]+
    ident   := [A-Za-z_][A-Za-z0-9_]*

Tokens are ASCII: any other character, a Unicode letter or digit included,
is a syntax error.  The parser climbs precedences over explicit operand and
operator stacks (Pratt, "Top down operator precedence", POPL 1973), so no
nesting depth is too deep for it.

msin(u, v) is the continuously extended divided difference
(sin(u+v) - sin(u)) / v, equal to cos(u) at v = 0.  It evaluates and
differentiates through sound enclosures over hull(u, u+v), so a domain
containing v = 0 needs no special casing downstream.

A Tape is the one form of an expression: its distinct subexpressions in
post-order, each an opcode with its child slots, the root last.  The parser
emits straight into a tape, hash-consed on (opcode, child slots, payload),
so equal subexpressions share one slot wherever they occur in the text.
Point, interval and gradient evaluation, the printer and the affine folding
in `scalar` are sweeps over that one tape.  The tape also counts each
slot's readers (the instructions that take it as a child, once per operand
position), so a sweep can update a child's partial dict or linear form in
place when no other instruction reads it, instead of copying it: a sum
chain then costs O(n), not O(n^2).  Shared slots keep being copied.

Evaluation is containment-sound: for every point assignment drawn from the
environment, the pointwise value (and each partial derivative) lies in the
computed interval.  Gradients are forward-mode over interval arithmetic.
"""

from __future__ import annotations

import math
import re
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
    "GradEnclosure",
    "Tape",
    "TapeBuilder",
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
    "MAX_TEXT",
    "MissingVariable",
    "parse",
    "to_text",
    "eval_point",
    "eval_interval",
    "eval_grad",
    "msin_enclosures",
]


class MissingVariable(KeyError):
    """Raised when evaluation meets a variable absent from the environment."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(name)

    def __str__(self) -> str:
        return f"variable '{self.name}' is not bound in the evaluation environment"


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

CONST, VAR, ADD, SUB, MUL, DIV, NEG, POW, SIN, COS, MSIN = range(11)

_UNARY = frozenset((NEG, POW, SIN, COS))

Instruction = tuple[int, Any, Any]


def _operands(ins: Instruction) -> tuple[int, ...]:
    """The child slots an instruction reads, once per operand position."""
    op, a, b = ins
    if op == CONST or op == VAR:
        return ()
    return (a,) if op in _UNARY else (a, b)


class Tape:
    """An expression as instructions: one per distinct subexpression,
    children before parents, the root last.

    Instruction i is (op, a, b) and its value is slot i of a sweep.  a and b
    are the node's child slots, except that a CONST holds its value in a, a
    VAR its name in a, and a POW its exponent in b; unused fields are None.
    readers[i] is the number of operand positions that read slot i (0 for
    the root), so a sweep may reuse slot i's value in place when it is 1.
    variables holds the names of the VAR slots.  Tapes with equal code are
    equal.
    """

    __slots__ = ("code", "readers", "variables")

    def __init__(self, code: tuple[Instruction, ...]) -> None:
        readers = [0] * len(code)
        for ins in code:
            for slot in _operands(ins):
                readers[slot] += 1
        self.code = code
        self.readers = tuple(readers)
        self.variables = frozenset(a for op, a, _ in code if op == VAR)

    def __eq__(self, other: object) -> bool:
        return self.code == other.code if isinstance(other, Tape) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return f"Tape({self.code!r})"

    def children(self) -> tuple[_Node, ...]:
        """The root's operands as tree nodes: walking children() from here
        visits the expression as the unshared tree its text spells out."""
        return _Node(self.code, len(self.code) - 1).children()


class _Node:
    """One slot of a tape's code, seen as a tree node."""

    __slots__ = ("code", "slot")

    def __init__(self, code: tuple[Instruction, ...], slot: int) -> None:
        self.code = code
        self.slot = slot

    def children(self) -> tuple[_Node, ...]:
        return tuple(_Node(self.code, s) for s in _operands(self.code[self.slot]))


class TapeBuilder:
    """Collects a tape's instructions, hash-consed: emitting an instruction
    equal to an earlier one returns the earlier slot.  A CONST is keyed by
    its float's bits, since 0.0 == -0.0 would merge the two.

    Emit children before parents and the root last, and emit nothing that
    no later instruction reads, so that the tape holds no dead slot.
    """

    __slots__ = ("code", "slots")

    def __init__(self) -> None:
        self.code: list[Instruction] = []
        self.slots: dict[tuple, int] = {}

    def emit(self, op: int, a: Any = None, b: Any = None) -> int:
        """The slot of instruction (op, a, b), appended when new."""
        ins = (op, a, b)
        key = (CONST, a.hex()) if op == CONST else ins
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.code)
            self.code.append(ins)
        return slot

    def tape(self) -> Tape:
        return Tape(tuple(self.code))


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


# Largest exponent literal the parser accepts.  Interval powers take one
# directed product per unit of exponent, and exact constant folding grows
# with it, so an unbounded literal means unbounded work.
MAX_EXPONENT = 1024

_ATOM_EXPECTED = {"number", "identifier", "'('", "'-'"}

# One token per match: a number, an identifier, punctuation, or any other
# non-blank character, which is an error.  The classes are ASCII on purpose:
# \d and str.isdigit() also take digits such as '²', which float() refuses.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([-+*/^(),])"
    r"|([^ \t\r\n]))"
)
_END, _NUM, _IDENT, _PUNCT, _BAD = range(5)  # _NUM.._BAD are group numbers

Token = tuple[int, str, int]  # kind, text, offset

_BINARY = {"+": ADD, "-": SUB, "*": MUL, "/": DIV}
# Binding strength, for the parser's reductions and the printer's brackets.
_PREC = {ADD: 1, SUB: 1, MUL: 2, DIV: 2, NEG: 3, POW: 4}
_PREC_ATOM = 5
_FUNCTIONS = {"sin": (SIN, 1), "cos": (COS, 1), "msin": (MSIN, 2)}


def _tokenize(text: str) -> list[Token]:
    """The tokens of text, then an end token.  Every character before a
    token is ASCII, so a character offset is a byte offset."""
    tokens: list[Token] = []
    # Trailing blanks are cut first: a match never fails inside the rest,
    # so finditer skips nothing and never rescans a run of blanks.
    for m in _TOKEN.finditer(text, 0, len(text.rstrip(" \t\r\n"))):
        kind = m.lastindex
        if kind == _BAD:
            raise ParseError(
                f"unexpected character {m[kind]!r}", m.start(kind), _ATOM_EXPECTED | {"operator"}
            )
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append((_END, "", len(text)))
    return tokens


def _exponent(kind: int, text: str, offset: int) -> int:
    if kind != _NUM or not text.isdigit():
        raise ParseError(
            "exponent must be a non-negative integer literal", offset, {"non-negative integer"}
        )
    # Compare digit counts first: int() refuses very long literals.
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ParseError(
            f"exponent exceeds the cap of {MAX_EXPONENT}", offset, {f"integer <= {MAX_EXPONENT}"}
        )
    return int(digits)


def parse(text: str) -> Tape:
    """Parse an infix expression into its tape; raises ParseError on
    malformed input.  Instructions are emitted in post-order as the
    operators reduce."""
    tokens = _tokenize(text)
    builder = TapeBuilder()
    emit = builder.emit
    operands: list[int] = []  # slots of the finished operands
    operators: list[int] = []  # pending NEG and binary opcodes
    # Open brackets, innermost last: [function name, or None for a plain
    # parenthesis, arguments so far, len(operators) at the bracket].
    frames: list[list[Any]] = []

    def reduce(min_prec: int) -> None:
        floor = frames[-1][2] if frames else 0
        while len(operators) > floor and _PREC[operators[-1]] >= min_prec:
            op = operators.pop()
            b = None if op == NEG else operands.pop()
            operands[-1] = emit(op, operands[-1], b)

    i = 0
    while True:
        # Operand position: minus signs and opening brackets, then an atom.
        kind, tok, offset = tokens[i]
        i += 1
        if kind == _NUM:
            value = float(tok)
            if value == math.inf:
                raise ParseError("number literal overflows", offset, {"finite number"})
            operands.append(emit(CONST, value))
        elif kind == _IDENT and tok not in _FUNCTIONS:
            operands.append(emit(VAR, tok))
        elif kind == _IDENT:
            if tokens[i][1] != "(":
                raise ParseError(f"function '{tok}' requires arguments", tokens[i][2], {"'('"})
            i += 1
            frames.append([tok, 1, len(operators)])
            continue
        elif tok == "(":
            frames.append([None, 1, len(operators)])
            continue
        elif tok == "-":
            operators.append(NEG)
            continue
        else:
            raise ParseError(
                f"expected expression, found {tok or 'end of input'!r}", offset, _ATOM_EXPECTED
            )
        # Operator position, after an atom: a power, then a binary operator
        # or a separator that reduces the pending operators.
        while True:
            kind, tok, offset = tokens[i]
            i += 1
            if tok == "^":
                operands[-1] = emit(POW, operands[-1], _exponent(*tokens[i]))
                kind, tok, offset = tokens[i + 1]
                i += 2
            op = _BINARY.get(tok)
            if op is not None:
                reduce(_PREC[op])
                operators.append(op)
                break
            reduce(0)
            if not frames:
                if kind == _END:
                    return builder.tape()
                raise ParseError(
                    f"unexpected trailing input {tok!r}", offset, {"operator", "end of input"}
                )
            frame = frames[-1]
            if tok == "," and frame[0] is not None:
                frame[1] += 1
                break
            if tok != ")":
                raise ParseError("unbalanced parentheses", offset, {"')'"})
            frames.pop()
            name, args, _ = frame
            if name is not None:  # a call closes into an atom, as a group does
                op, arity = _FUNCTIONS[name]
                if args != arity:
                    raise ParseError(
                        f"function '{name}' takes {arity} argument(s), got {args}",
                        offset,
                        {f"{arity} argument(s)"},
                    )
                b = operands.pop() if arity == 2 else None
                operands[-1] = emit(op, operands[-1], b)


# ---------------------------------------------------------------------------
# Printer (round-trip: parse(to_text(parse(s))) == parse(s))
# ---------------------------------------------------------------------------

_INFIX = {ADD: " + ", SUB: " - ", MUL: "*", DIV: "/"}


def _wrap(child: tuple[str, int], parent_prec: int, right_side: bool) -> str:
    text, prec = child
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _fmt(op: int, a: Any, b: Any, done: list[tuple[str, int]]) -> tuple[str, int]:
    if op == CONST:
        if a < 0:  # print as unary minus so the printed form reparses
            return f"-{-a!r}", _PREC[NEG]
        return repr(a), _PREC_ATOM
    if op == VAR:
        return a, _PREC_ATOM
    if op == SIN or op == COS:
        name = "sin" if op == SIN else "cos"
        return f"{name}({done[a][0]})", _PREC_ATOM
    if op == MSIN:
        return f"msin({done[a][0]}, {done[b][0]})", _PREC_ATOM
    if op == NEG:
        return f"-{_wrap(done[a], _PREC[NEG], False)}", _PREC[NEG]
    if op == POW:
        return f"{_wrap(done[a], _PREC[POW], True)}^{b}", _PREC[POW]
    prec = _PREC[op]
    return f"{_wrap(done[a], prec, False)}{_INFIX[op]}{_wrap(done[b], prec, True)}", prec


# The longest text to_text builds; `gen motion 1000` prints 5.4 M characters.
MAX_TEXT = 1 << 28

# Characters an instruction adds to its operands' text, with one pair of
# brackets around each operand (_wrap adds at most one).
_TEXT_EXTRA = {SIN: 5, COS: 5, MSIN: 8, NEG: 3, POW: 3, ADD: 7, SUB: 7, MUL: 5, DIV: 5}


def _text_bound(tape: Tape) -> int:
    """An upper bound on len(to_text(tape)), capped at MAX_TEXT + 1."""
    size: list[int] = []
    for op, a, b in tape.code:
        if op == CONST or op == VAR:
            n = len(repr(a) if op == CONST else a)
        else:
            extra = len(str(b)) if op == POW else 0 if b is None else size[b]
            n = size[a] + _TEXT_EXTRA[op] + extra
        size.append(min(n, MAX_TEXT + 1))
    return size[-1]


def to_text(tape: Tape) -> str:
    """Render the expression as parseable infix text.  A slot is printed
    once per path to it, so raise ValueError, before building any text,
    when the text could exceed MAX_TEXT characters."""
    if _text_bound(tape) > MAX_TEXT:
        raise ValueError(f"expression text would exceed {MAX_TEXT} characters")
    done: list[tuple[str, int]] = []
    for op, a, b in tape.code:
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


def eval_interval(tape: Tape, env: Mapping[str, Interval]) -> Interval:
    """Sound range enclosure of the expression over the box described by env.

    Raises:
        MissingVariable: a variable of the expression is not bound in env.
        DivisionByZeroInterval: a divisor enclosure contains zero.
    """
    vals: list[Interval] = []
    push = vals.append
    for op, a, b in tape.code:
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


def _msin_point(u: float, v: float) -> float:
    """msin at one point, in plain float arithmetic (eval_point and the
    sampler's column sweeps)."""
    return math.cos(u) if v == 0.0 else (math.sin(u + v) - math.sin(u)) / v


def eval_point(tape: Tape, env: Mapping[str, float]) -> float:
    """Plain float evaluation (used by the sampling estimator)."""
    vals: list[float] = []
    push = vals.append
    for op, a, b in tape.code:
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
            push(_msin_point(vals[a], vals[b]))
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


def eval_grad(tape: Tape, env: Mapping[str, Interval]) -> GradEnclosure:
    """Value and signed partial enclosures of the expression over env
    (forward mode).

    Each partial interval contains de/dx_j at every point of the box; the
    result maps every variable of env, with [0,0] for absent variables.
    """
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
