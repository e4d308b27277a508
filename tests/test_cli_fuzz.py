"""Random schema-1 files, and byte-level mutations of the bundled fixtures,
through `quantrange solve`: every file ends in exit 0 or in an input error
(exit 3) that names the file, never in an internal error (exit 4), and each
one is solved quickly."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from quantrange.cli import main
from quantrange.exprs import MAX_EXPONENT

from conftest import FIXTURES

NAMES = ("x0", "x1", "x2", "x3")
MAX = 1.7976931348623157e308

DOMAINS = st.sampled_from(
    [
        [-1.0, 1.0],
        [0.5, 2.0],
        [-3.0, -0.25],
        [0.0, 0.0],  # point domains
        [1.5, 1.5],
        [1e308, 1e308],
        [-1e308, 1e308],  # huge domains
        [0.0, 1e308],
        [-MAX, MAX],
        [-5e-324, 5e-324],  # subnormal domains
        [0.0, 1e-310],
        [1e-320, 2e-320],
    ]
)
CONSTANTS = st.sampled_from(["0", "1", "2.5", "0.1", "1e308", "5e-324", "1.0000001"])
EXPONENTS = st.sampled_from([0, 1, 2, 3, 13, MAX_EXPONENT, MAX_EXPONENT + 1, 10**9])
# Row endpoints: a lower end from the first list, an upper end from the second.
ROW_LO = st.sampled_from([0.0, -1.0, -1e308, -5e-324])
ROW_HI = st.sampled_from([0.0, 1.0, 1e308, 5e-324])


def _expressions(names: tuple[str, ...]):
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda a: f"-({a})"),
            st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, inner).map(lambda t: f"msin({t[0]}, {t[1]})"),
            st.tuples(inner, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    return st.recursive(st.sampled_from(names) | CONSTANTS, extend, max_leaves=8)


# Built once: constructing a recursive strategy per draw dominates the run.
EXPRESSIONS = {k: _expressions(NAMES[:k]) for k in range(1, len(NAMES) + 1)}


@st.composite
def rows(draw):
    """A supplied row.  Most rows have I inside O, as a loaded row must; one
    in twenty keeps its independently drawn O, which may cross I and so
    reaches the refusal."""
    inner = [draw(ROW_LO), draw(ROW_HI)]
    outer = [draw(ROW_LO), draw(ROW_HI)]
    if draw(st.integers(0, 19)):
        outer = [min(inner[0], outer[0]), max(inner[1], outer[1])]
    return {"I": inner, "O": outer}


@st.composite
def problem_files(draw):
    n_blocks = draw(st.integers(1, 4))
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    variables = []
    for name in names:
        domain = draw(DOMAINS)
        var = {"name": name, "block": draw(st.integers(0, n_blocks - 1)), "domain": domain}
        center = draw(st.sampled_from([None, "lo", "hi"]))
        if center is not None:
            var["center"] = domain[0] if center == "lo" else domain[1]
        variables.append(var)
    outputs = [
        {"name": f"f{j}", "expr": draw(EXPRESSIONS[len(names)])}
        for j in range(draw(st.integers(1, 3)))
    ]
    doc = {
        "schema": 1,
        "blocks": [
            {"quantifier": draw(st.sampled_from(["forall", "exists"]))} for _ in range(n_blocks)
        ],
        "variables": variables,
        "outputs": outputs,
    }
    supplied = {
        out["name"]: {name: draw(rows()) for name in names}
        for out in outputs
        if draw(st.booleans())
    }
    if supplied:
        doc["contributions"] = supplied
    flags = draw(
        st.sampled_from(
            [[], ["--sample", "points=2"], ["--sample", "points=3"], ["--pi", "greedy"]]
        )
    )
    return doc, flags


def _solve_exit_code(path: str, flags: list[str]) -> int:
    """main's exit code; an input error must name the file."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", path, *flags])
    assert code in (0, 3), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith(f"error: {path}: "), err.getvalue()
    return code


def test_random_files_exit_0_or_a_named_input_error():
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "problem.json")
        seen: dict[int, int] = {}

        @settings(
            max_examples=150,
            deadline=2000,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(problem_files())
        def solve_one(case):
            doc, flags = case
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
            code = _solve_exit_code(path, flags)
            key = (code, "contributions" in doc)
            seen[key] = seen.get(key, 0) + 1

        t0 = time.perf_counter()
        solve_one()
        elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    # Files with and without supplied rows reach both a solve and a refusal.
    assert all(seen.get((code, supplied), 0) > 0 for code in (0, 3) for supplied in (False, True)), seen


FIXTURE_BYTES = [path.read_bytes() for path in sorted(FIXTURES.glob("*.json"))]
_CLOSERS = {b"[": b"]", b'{"a": ': b"}", b"(": b")", b"sin(": b")", b"-": b""}


@st.composite
def mutated_fixtures(draw):
    """A fixture's bytes cut short, with a piece of itself spliced in, with
    deep nesting, with a long run of digits, or with bytes that are not
    UTF-8.  Insertions favour places where the file stays valid JSON:
    after a digit, or inside an expression string."""
    data = draw(st.sampled_from(FIXTURE_BYTES))
    kind = draw(st.sampled_from(["truncate", "splice", "nest", "digits", "utf8"]))
    at = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "splice":
        start = draw(st.integers(0, len(data)))
        piece = data[start : start + draw(st.integers(1, 80))]
        return data[:at] + piece + data[at + draw(st.integers(0, len(piece))) :]
    if kind == "nest":
        opener = draw(st.sampled_from(sorted(_CLOSERS)))
        depth = draw(st.sampled_from([2, 1000, 10_000] + ([100_000] if opener in (b"[", b'{"a": ') else [])))
        if opener in (b"(", b"sin(", b"-"):  # wrap an output expression
            start = data.index(b'"expr": "') + len(b'"expr": "')
            end = data.index(b'"', start)
            return data[:start] + opener * depth + data[start:end] + _CLOSERS[opener] * depth + data[end:]
        return data[:at] + opener * depth + _CLOSERS[opener] * depth + data[at:]
    if kind == "digits":
        after_digit = [i + 1 for i in range(len(data)) if data[i : i + 1].isdigit()]
        at = draw(st.sampled_from(after_digit))
        return data[:at] + b"9" * draw(st.sampled_from([30, 308, 309, 400, 5000])) + data[at:]
    bad = draw(st.sampled_from([b"\xff\xfe", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc3\xa9"]))
    return bad + data if draw(st.booleans()) else data[:at] + bad + data[at:]


def test_mutated_fixtures_exit_0_or_a_named_input_error():
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "problem.json")
        seen: dict[int, int] = {}

        @settings(
            max_examples=300,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(mutated_fixtures())
        def solve_one(data):
            Path(path).write_bytes(data)
            code = _solve_exit_code(path, [])
            seen[code] = seen.get(code, 0) + 1

        t0 = time.perf_counter()
        solve_one()
        elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert seen.get(0, 0) > 0 and seen.get(3, 0) > 0, seen
