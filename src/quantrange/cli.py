"""Command-line front-end.

    quantrange solve <file> [--json out] [--sample points=N] [--pi exhaustive|greedy]
    quantrange bench <linear|motion> <k,k,...> [--csv out]
    quantrange gen <linear|motion> <k> [--seed S]

Exit codes: 0 success (an empty inner bound is a result, not an error),
2 usage, 3 input error (bad file, bad values, infeasible request),
4 internal error.

solve prints a human-readable table, or writes the full report as JSON with
--json (path "-" for stdout).  Report floats use Python's shortest
round-tripping repr, so a reloaded report reproduces identical bits.
Sampling estimates honor a work budget of variables * log10(points) digits,
where variables with a point domain do not count (default 7, i.e. at most
~1e7 evaluation points); requests beyond the budget are refused as input
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import traceback
from typing import Mapping, Sequence

from .benchgen import linear_problem, motion_problem
from .exprs import ParseError
from .intervals import MaybeInterval, is_empty
from .problem import QuantifiedProblem
from .problemfile import (
    DomainError,
    SchemaError,
    load_problem,
    problem_to_json,
)
from .sampling import (
    EmptyEstimate,
    ratio_pair,
    sampling_estimate,
    work_digits,
)
from .vectorsolve import DEFAULT_EXHAUSTIVE_LIMIT, VectorResult, solve_vector

__all__ = ["main"]

DEFAULT_SAMPLING_BUDGET = 7.0  # digits: refuse more than ~1e7 evaluation points
_BENCH_SAMPLING_BUDGET = 6.0


class InputError(Exception):
    """User-correctable problem with the request or its input data."""


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_sample(text: str) -> int:
    if not text.startswith("points="):
        raise argparse.ArgumentTypeError(f"expected points=N, got {text!r}")
    try:
        points = int(text[len("points=") :])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected points=N with integer N, got {text!r}")
    if points < 2:
        raise argparse.ArgumentTypeError(f"points must be >= 2, got {points}")
    return points


def _parse_k_list(text: str) -> list[int]:
    items = [part for part in text.split(",") if part != ""]
    if not items:
        raise argparse.ArgumentTypeError("empty k list")
    try:
        ks = [int(part) for part in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrange",
        description="Guaranteed inner/outer interval bounds for quantified ranges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file", help="problem file (JSON, schema 1)")
    p_solve.add_argument("--json", dest="json_out", metavar="OUT", default=None,
                         help="write the JSON report to OUT ('-' for stdout)")
    p_solve.add_argument("--sample", type=_parse_sample, metavar="points=N", default=None,
                         help="add a sampling estimate on an N-point grid per variable")
    p_solve.add_argument("--pi", choices=("exhaustive", "greedy"), default=None,
                         help="existential assignment search strategy")

    p_bench = sub.add_parser("bench", help="run a benchmark family")
    p_bench.add_argument("family", choices=("linear", "motion"))
    p_bench.add_argument("ks", type=_parse_k_list, metavar="k,k,...")
    p_bench.add_argument("--csv", dest="csv_out", metavar="OUT", default=None,
                         help="write the CSV table to OUT (default: stdout)")

    p_gen = sub.add_parser("gen", help="emit a generated problem file")
    p_gen.add_argument("family", choices=("linear", "motion"))
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _iv_json(iv: MaybeInterval) -> list[float] | None:
    return None if is_empty(iv) else [iv.lo, iv.hi]


def build_report(
    result: VectorResult,
    problem: QuantifiedProblem,
    estimates: Sequence[MaybeInterval] | None,
    timings: Mapping[str, float],
) -> dict:
    outputs = []
    for j, comp in enumerate(result.components):
        entry: dict = {
            "name": comp.name,
            "outer": _iv_json(comp.outer),
            "outer_empty": is_empty(comp.outer),
            "inner": _iv_json(comp.inner),
            "inner_empty": is_empty(comp.inner),
            "method": comp.method,
            "conditions": {
                "inner_failed_pair": comp.inner_failed_pair,
                "outer_failed_pair": comp.outer_failed_pair,
            },
        }
        if estimates is not None:
            est = estimates[j]
            entry["sampling"] = _iv_json(est)
            try:
                inner_r, outer_r = ratio_pair(comp.inner, comp.outer, est)
                entry["ratios"] = {"inner": inner_r, "outer": outer_r}
            except EmptyEstimate:
                entry["ratios"] = None
        outputs.append(entry)
    out_names = [o.name for o in problem.outputs]
    joint = {
        "outer": None
        if any(is_empty(c.outer) for c in result.components)
        else [_iv_json(c.outer) for c in result.components],
        "inner": None
        if result.inner_empty
        else [_iv_json(c.inner) for c in result.components],
        "pi": {var: out_names[idx] for var, idx in result.assignment.items()},
        "strategy": result.strategy_used,
    }
    return {
        "schema": 1,
        "outputs": outputs,
        "joint": joint,
        "timings": dict(timings),
    }


def _print_table(report: dict, stream) -> None:
    rows = [("output", "inner", "outer", "method")]
    for entry in report["outputs"]:
        inner = "EMPTY" if entry["inner"] is None else f"[{entry['inner'][0]!r}, {entry['inner'][1]!r}]"
        outer = "EMPTY" if entry["outer"] is None else f"[{entry['outer'][0]!r}, {entry['outer'][1]!r}]"
        rows.append((entry["name"], inner, outer, entry["method"]))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip(), file=stream)
    for entry in report["outputs"]:
        if entry.get("sampling") is not None:
            sampling = entry["sampling"]
            ratios = entry.get("ratios")
            ratio_text = (
                f"  ratios inner/sample={ratios['inner']!r} outer/sample={ratios['outer']!r}"
                if ratios
                else ""
            )
            print(
                f"sampling {entry['name']}: [{sampling[0]!r}, {sampling[1]!r}]{ratio_text}",
                file=stream,
            )
        elif "sampling" in entry:
            print(f"sampling {entry['name']}: EMPTY", file=stream)
    pi = report["joint"]["pi"]
    if pi:
        pairs = ", ".join(f"{var}->{out}" for var, out in pi.items())
        print(f"assignment ({report['joint']['strategy']}): {pairs}", file=stream)
    timings = report["timings"]
    print(
        "timings: "
        + "  ".join(f"{name} {value:.4f}s" for name, value in timings.items()),
        file=stream,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_file(path: str, text: str) -> None:
    """Write text to the file at path; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}")


def cmd_solve(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    try:
        loaded = load_problem(args.file)
    except FileNotFoundError:
        raise InputError(f"no such file: {args.file}")
    except IsADirectoryError:
        raise InputError(f"not a file: {args.file}")
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc.strerror}")
    except (SchemaError, DomainError, ParseError) as exc:
        raise InputError(f"{args.file}: {exc}")
    t_load = time.perf_counter()

    problem = loaded.problem
    options = loaded.options
    strategy = args.pi if args.pi is not None else "auto"
    limit = options.exhaustive_limit or DEFAULT_EXHAUSTIVE_LIMIT
    pinned_idx = None
    if options.pinned_assignment is not None:
        out_index = {o.name: j for j, o in enumerate(problem.outputs)}
        pinned_idx = {var: out_index[out] for var, out in options.pinned_assignment.items()}
    try:
        result = solve_vector(
            problem,
            supplied=loaded.supplied,
            strategy=strategy,
            exhaustive_limit=limit,
            pinned=pinned_idx,
        )
    except ValueError as exc:  # OutputError among them: it names the output
        raise InputError(f"{args.file}: {exc}")
    t_solve = time.perf_counter()

    estimates = None
    points = args.sample
    if points is None and options.sampling_enabled:
        points = options.sampling_points or 2
    t_sample = t_solve
    if points is not None:
        budget = options.sampling_budget or DEFAULT_SAMPLING_BUDGET
        digits = work_digits(problem, points)
        if digits > budget:
            raise InputError(
                f"{args.file}: sampling budget exceeded: {points} points per variable (one per "
                f"point domain) needs 10^{digits:.1f} evaluations "
                f"(budget 10^{budget:.1f}); reduce points or raise options.sampling.budget"
            )
        try:
            estimates = sampling_estimate(problem, points)
        except (ArithmeticError, ValueError) as exc:  # e.g. sin(inf), a non-finite estimate
            raise InputError(f"{args.file}: sampling evaluation failed: {exc}")
        t_sample = time.perf_counter()

    timings = {
        "load": t_load - t_start,
        "solve": t_solve - t_load,
        "total": time.perf_counter() - t_start,
    }
    if points is not None:
        timings["sampling"] = t_sample - t_solve
    report = build_report(result, problem, estimates, timings)

    if args.json_out is not None:
        text = json.dumps(report, indent=2)
        if args.json_out == "-":
            print(text)
        else:
            _write_file(args.json_out, text + "\n")
    else:
        _print_table(report, sys.stdout)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows = []
    for k in args.ks:
        try:
            if args.family == "linear":
                problem = linear_problem(k, seed=k)
            else:
                problem = motion_problem(k)
        except ValueError as exc:
            raise InputError(str(exc))
        t0 = time.perf_counter()
        result = solve_vector(problem)
        elapsed = time.perf_counter() - t0
        comp = result.components[0]

        inner_ratio: float | str = ""
        outer_ratio: float | str = ""
        if comp.method == "exact-affine" and not is_empty(comp.outer):
            # The exact range doubles as the estimate (endpoint-grid
            # recursion provably coincides with it on affine problems).
            inner_ratio, outer_ratio = ratio_pair(comp.inner, comp.outer, comp.outer)
        elif work_digits(problem, 2) <= _BENCH_SAMPLING_BUDGET:
            est = sampling_estimate(problem, 2)[0]
            try:
                inner_ratio, outer_ratio = ratio_pair(comp.inner, comp.outer, est)
            except EmptyEstimate:
                pass
        rows.append(
            {
                "family": args.family,
                "k": k,
                "variables": len(problem.variables),
                "alternations": len(problem.normalized()) // 2,
                "time_s": f"{elapsed:.6f}",
                "inner_lo": "" if is_empty(comp.inner) else repr(comp.inner.lo),
                "inner_hi": "" if is_empty(comp.inner) else repr(comp.inner.hi),
                "outer_lo": "" if is_empty(comp.outer) else repr(comp.outer.lo),
                "outer_hi": "" if is_empty(comp.outer) else repr(comp.outer.hi),
                "inner_ratio": repr(inner_ratio) if inner_ratio != "" else "",
                "outer_ratio": repr(outer_ratio) if outer_ratio != "" else "",
            }
        )

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.csv_out is not None:
        _write_file(args.csv_out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.family == "linear":
            problem = linear_problem(args.k, seed=args.seed)
        else:
            problem = motion_problem(args.k)
        text = json.dumps(problem_to_json(problem), indent=2)
    except ValueError as exc:  # k out of range, or an expression text too long to print
        raise InputError(str(exc))
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "gen":
            return cmd_gen(args)
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
        return 2  # pragma: no cover
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # pragma: no cover - downstream closed the pipe
        return 0
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
