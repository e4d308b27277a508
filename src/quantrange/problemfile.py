"""JSON problem files: schema validation, loading, and emission.

Layout (schema version 1):

    {
      "schema": 1,
      "variables": [{"name": str, "domain": [lo, hi], "center"?: num, "block": int}],
      "blocks":    [{"quantifier": "forall" | "exists"}],
      "outputs":   [{"name": str, "expr": str}],
      "contributions"?: {output: {var: {"I": [lo, hi], "O": [lo, hi]}}},
      "options"?:  {"pi"?: {var: output}, "exhaustive_limit"?: int,
                    "sampling"?: {"points": int, "enabled": bool, "budget"?: num}}
    }

Validation is strict — unknown keys are rejected — and every error message
is anchored to the JSON path of the offending value (e.g.
"variables[2].domain").  Structural problems raise SchemaError; legal
structure with bad values (crossed domains, off-domain centers,
contribution rows not containing zero, a row whose inner interval "I" is
not inside its outer interval "O") raises DomainError; malformed
expressions propagate ParseError.

Contribution overrides replace the computed linearization rows for an
output and must cover every variable occurring in that output's expression
(mixed computed/supplied rows per output are rejected); rows for unused
variables are allowed and harmless.  options.pi pins the full existential
assignment by name, bypassing the assignment search.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any

from .exprs import parse as parse_expr
from .exprs import to_text
from .intervals import Interval
from .problem import Block, Output, QuantifiedProblem, Quantifier, VariableSpec, existential_order
from .scalar import ContributionRow

__all__ = [
    "SchemaError",
    "DomainError",
    "SolveOptions",
    "LoadedProblem",
    "SCHEMA_VERSION",
    "parse_problem",
    "load_problem",
    "problem_to_json",
]

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = {"sin", "cos", "msin"}


class SchemaError(ValueError):
    """Structural schema violation, anchored to a JSON path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class DomainError(ValueError):
    """Well-formed structure with an invalid value, anchored to a JSON path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(slots=True)
class SolveOptions:
    pinned_assignment: dict[str, str] | None = None  # variable -> output name
    exhaustive_limit: int | None = None
    sampling_points: int | None = None
    sampling_enabled: bool = False
    sampling_budget: float | None = None


@dataclass(slots=True)
class LoadedProblem:
    problem: QuantifiedProblem
    supplied: dict[str, dict[str, ContributionRow]] | None
    options: SolveOptions = field(default_factory=SolveOptions)


# ---------------------------------------------------------------------------
# Typed accessors (schema checking with path-anchored errors)
# ---------------------------------------------------------------------------


def _obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _arr(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if out != out or out in (float("inf"), float("-inf")):
        raise DomainError(path, "number must be finite")
    return out


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value

def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def _name(value: Any, path: str) -> str:
    text = _str(value, path)
    if not _NAME_RE.match(text):
        raise SchemaError(path, f"invalid identifier {text!r}")
    if text in _RESERVED:
        raise SchemaError(path, f"{text!r} is a reserved function name")
    return text


def _fields(
    value: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """value as an object with every required key and no key outside
    required + optional; unknown keys are reported before missing ones."""
    obj = _obj(value, path)
    extra = sorted(set(obj).difference(required, optional))
    if extra:
        raise SchemaError(path, f"unknown key(s): {', '.join(extra)}")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key '{key}'")
    return obj


def _interval(value: Any, path: str) -> Interval:
    arr = _arr(value, path)
    if len(arr) != 2:
        raise SchemaError(path, f"expected [lo, hi], got {len(arr)} element(s)")
    lo = _num(arr[0], f"{path}[0]")
    hi = _num(arr[1], f"{path}[1]")
    if lo > hi:
        raise DomainError(path, f"lower bound {lo!r} exceeds upper bound {hi!r}")
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_problem(data: Any, path: str = "$") -> LoadedProblem:
    """Validate a decoded JSON document and build the problem."""
    top = _fields(
        data, path, ("schema", "variables", "blocks", "outputs"), ("contributions", "options")
    )
    version = _int(top["schema"], f"{path}.schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema", f"unsupported schema version {version}")

    blocks_raw = _arr(top["blocks"], f"{path}.blocks")
    if not blocks_raw:
        raise SchemaError(f"{path}.blocks", "at least one block is required")
    quantifiers: list[Quantifier] = []
    for i, item in enumerate(blocks_raw):
        bpath = f"{path}.blocks[{i}]"
        obj = _fields(item, bpath, ("quantifier",))
        q = _str(obj["quantifier"], f"{bpath}.quantifier")
        if q not in ("forall", "exists"):
            raise SchemaError(f"{bpath}.quantifier", f"expected 'forall' or 'exists', got {q!r}")
        quantifiers.append(Quantifier(q))

    vars_raw = _arr(top["variables"], f"{path}.variables")
    if not vars_raw:
        raise SchemaError(f"{path}.variables", "at least one variable is required")
    specs: list[VariableSpec] = []
    block_members: list[list[str]] = [[] for _ in quantifiers]
    block_of: list[int] = []
    seen_names: set[str] = set()
    for i, item in enumerate(vars_raw):
        vpath = f"{path}.variables[{i}]"
        obj = _fields(item, vpath, ("name", "domain", "block"), ("center",))
        name = _name(obj["name"], f"{vpath}.name")
        if name in seen_names:
            raise SchemaError(f"{vpath}.name", f"duplicate variable name {name!r}")
        seen_names.add(name)
        domain = _interval(obj["domain"], f"{vpath}.domain")
        block_idx = _int(obj["block"], f"{vpath}.block")
        if not (0 <= block_idx < len(quantifiers)):
            raise SchemaError(
                f"{vpath}.block",
                f"block index {block_idx} out of range (have {len(quantifiers)} blocks)",
            )
        if "center" in obj:
            center = _num(obj["center"], f"{vpath}.center")
            if not (domain.lo <= center <= domain.hi):
                raise DomainError(
                    f"{vpath}.center", f"center {center!r} outside domain {domain!r}"
                )
        else:
            center = domain.mid
        specs.append(VariableSpec(name, domain, center))
        block_members[block_idx].append(name)
        block_of.append(block_idx)

    # Variables of one block must be contiguous in declaration order.
    runs: list[int] = []
    for idx in block_of:
        if not runs or runs[-1] != idx:
            runs.append(idx)
    if len(runs) != len(set(runs)):
        dup = next(idx for i, idx in enumerate(runs) if idx in runs[:i])
        raise SchemaError(
            f"{path}.variables",
            f"variables of block {dup} are not contiguous in declaration order",
        )

    blocks = tuple(
        Block(quantifiers[i], tuple(block_members[i])) for i in range(len(quantifiers))
    )

    outputs_raw = _arr(top["outputs"], f"{path}.outputs")
    if not outputs_raw:
        raise SchemaError(f"{path}.outputs", "at least one output is required")
    outputs: list[Output] = []
    out_names: set[str] = set()
    for i, item in enumerate(outputs_raw):
        opath = f"{path}.outputs[{i}]"
        obj = _fields(item, opath, ("name", "expr"))
        name = _name(obj["name"], f"{opath}.name")
        if name in out_names:
            raise SchemaError(f"{opath}.name", f"duplicate output name {name!r}")
        out_names.add(name)
        expr = parse_expr(_str(obj["expr"], f"{opath}.expr"))
        free = expr.variables - seen_names
        if free:
            raise SchemaError(
                f"{opath}.expr", f"undeclared variable(s): {', '.join(sorted(free))}"
            )
        outputs.append(Output(name, expr))

    try:
        problem = QuantifiedProblem(tuple(specs), blocks, tuple(outputs))
    except ValueError as exc:  # residual model-level validation
        raise SchemaError(path, str(exc)) from exc

    supplied = _parse_contributions(top.get("contributions"), problem, f"{path}.contributions")
    options = _parse_options(top.get("options"), problem, f"{path}.options")
    return LoadedProblem(problem, supplied, options)


def _parse_contributions(
    data: Any, problem: QuantifiedProblem, path: str
) -> dict[str, dict[str, ContributionRow]] | None:
    if data is None:
        return None
    obj = _obj(data, path)
    out_names = {o.name for o in problem.outputs}
    var_names = {v.name for v in problem.variables}
    supplied: dict[str, dict[str, ContributionRow]] = {}
    for out_name, rows_raw in obj.items():
        opath = f"{path}.{out_name}"
        if out_name not in out_names:
            raise SchemaError(opath, f"unknown output {out_name!r}")
        rows_obj = _obj(rows_raw, opath)
        rows: dict[str, ContributionRow] = {}
        for var_name, row_raw in rows_obj.items():
            rpath = f"{opath}.{var_name}"
            if var_name not in var_names:
                raise SchemaError(rpath, f"unknown variable {var_name!r}")
            row_obj = _fields(row_raw, rpath, ("I", "O"))
            inner = _interval(row_obj["I"], f"{rpath}.I")
            outer = _interval(row_obj["O"], f"{rpath}.O")
            try:
                rows[var_name] = ContributionRow(inner, outer)
            except ValueError as exc:
                raise DomainError(rpath, str(exc)) from exc
        output = next(o for o in problem.outputs if o.name == out_name)
        missing = output.expr.variables - set(rows)
        if missing:
            raise SchemaError(
                opath,
                "supplied contributions must cover every variable of the output's "
                f"expression; missing: {', '.join(sorted(missing))}",
            )
        supplied[out_name] = rows
    return supplied or None


def _parse_options(data: Any, problem: QuantifiedProblem, path: str) -> SolveOptions:
    options = SolveOptions()
    if data is None:
        return options
    obj = _fields(data, path, (), ("pi", "exhaustive_limit", "sampling"))
    if "pi" in obj:
        pi_obj = _obj(obj["pi"], f"{path}.pi")
        out_names = {o.name for o in problem.outputs}
        existentials = set(existential_order(problem))
        pinned: dict[str, str] = {}
        for var, out in pi_obj.items():
            ppath = f"{path}.pi.{var}"
            if var not in existentials:
                raise SchemaError(ppath, f"{var!r} is not an existential variable")
            target = _str(out, ppath)
            if target not in out_names:
                raise SchemaError(ppath, f"unknown output {target!r}")
            pinned[var] = target
        missing = existentials - set(pinned)
        if missing:
            raise SchemaError(
                f"{path}.pi",
                f"assignment must cover every existential variable; "
                f"missing: {', '.join(sorted(missing))}",
            )
        options.pinned_assignment = pinned
    if "exhaustive_limit" in obj:
        limit = _int(obj["exhaustive_limit"], f"{path}.exhaustive_limit")
        if limit < 1:
            raise DomainError(f"{path}.exhaustive_limit", f"must be >= 1, got {limit}")
        options.exhaustive_limit = limit
    if "sampling" in obj:
        spath = f"{path}.sampling"
        sobj = _fields(obj["sampling"], spath, (), ("points", "enabled", "budget"))
        if "points" in sobj:
            points = _int(sobj["points"], f"{spath}.points")
            if points < 2:
                raise DomainError(f"{spath}.points", f"must be >= 2, got {points}")
            options.sampling_points = points
        if "enabled" in sobj:
            options.sampling_enabled = _bool(sobj["enabled"], f"{spath}.enabled")
        if "budget" in sobj:
            budget = _num(sobj["budget"], f"{spath}.budget")
            if budget <= 0:
                raise DomainError(f"{spath}.budget", f"must be positive, got {budget}")
            options.sampling_budget = budget
    return options


# Longest integer literal read: up to 308 digits every integer is a finite
# float, and Python refuses to convert much longer ones.
_MAX_INT_DIGITS = 308


def _bounded_int(text: str) -> int:
    digits = len(text.lstrip("-"))
    if digits > _MAX_INT_DIGITS:
        raise SchemaError("$", f"integer literal of {digits} digits (at most {_MAX_INT_DIGITS})")
    return int(text)


def load_problem(path: str) -> LoadedProblem:
    """Read and validate a problem file from disk; a file that is not
    UTF-8 JSON is a SchemaError at "$"."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_bounded_int)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not UTF-8 text: {exc}") from exc
        except RecursionError:
            raise SchemaError("$", "invalid JSON: nested too deeply") from None
    return parse_problem(data)


# ---------------------------------------------------------------------------
# Emission (problems -> schema documents)
# ---------------------------------------------------------------------------


def problem_to_json(problem: QuantifiedProblem) -> dict:
    """Schema-1 document for a problem (inverse of parse_problem for
    problems whose variables are declared block by block)."""
    block_index = {
        name: i for i, block in enumerate(problem.blocks) for name in block.names
    }
    return {
        "schema": SCHEMA_VERSION,
        "variables": [
            {
                "name": v.name,
                "domain": [v.domain.lo, v.domain.hi],
                "center": v.center,
                "block": block_index[v.name],
            }
            for v in problem.variables
        ],
        "blocks": [{"quantifier": b.quantifier.value} for b in problem.blocks],
        "outputs": [{"name": o.name, "expr": to_text(o.expr)} for o in problem.outputs],
    }
