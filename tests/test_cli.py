"""End-to-end command-line checks: solve/bench/gen, reports, exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import quantrange.cli as cli_mod
import quantrange.exprs as exprs_mod
from quantrange.benchgen import linear_problem, motion_problem
from quantrange.cli import main
from quantrange.problemfile import parse_problem, problem_to_json
from quantrange.vectorsolve import solve_vector

from conftest import FIXTURES

NONLINEAR = str(FIXTURES / "nonlinear_scalar.json")
LINEAR_SYSTEM = str(FIXTURES / "linear_system.json")


def run_json_solve(capsys, *argv):
    code = main(["solve", *argv, "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


class TestSolveHuman:
    def test_table_layout(self, capsys):
        assert main(["solve", NONLINEAR]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["output", "inner", "outer", "method"]
        assert "[10.0, 12.0]" in lines[1]
        assert "[1.5, 20.5]" in lines[1]
        assert "mean-value" in lines[1]
        assert any(line.startswith("assignment (exhaustive):") for line in lines)
        assert any("x1->g" in line and "x3->g" in line for line in lines)
        assert lines[-1].startswith("timings: ")

    def test_empty_inner_prints_empty(self, tmp_path, capsys, write_problem):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "forall"}, {"quantifier": "exists"}],
                "variables": [
                    {"name": "x1", "block": 0, "domain": [-1, 1]},
                    {"name": "x2", "block": 1, "domain": [-1, 1]},
                ],
                "outputs": [{"name": "f", "expr": "2*x1 + x2"}],
            }
        )
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "EMPTY" in out

    def test_sampling_line(self, capsys):
        assert main(["solve", NONLINEAR, "--sample", "points=41"]) == 0
        out = capsys.readouterr().out
        assert "sampling g: [6.0, 16.25]" in out
        assert "ratios inner/sample=" in out


class TestSolveJson:
    def test_report_structure_and_values(self, capsys):
        report = run_json_solve(capsys, NONLINEAR)
        assert report["schema"] == 1
        (entry,) = report["outputs"]
        assert entry["name"] == "g"
        assert entry["inner"] == [10.0, 12.0]
        assert entry["outer"] == [1.5, 20.5]
        assert entry["inner_empty"] is False and entry["outer_empty"] is False
        assert entry["method"] == "mean-value"
        assert entry["conditions"] == {
            "inner_failed_pair": None,
            "outer_failed_pair": None,
        }
        assert "sampling" not in entry and "ratios" not in entry
        joint = report["joint"]
        assert joint["outer"] == [[1.5, 20.5]]
        assert joint["inner"] == [[10.0, 12.0]]
        assert joint["pi"] == {"x1": "g", "x3": "g"}
        assert joint["strategy"] == "exhaustive"
        assert set(report["timings"]) == {"load", "solve", "total"}

    def test_sampling_fields(self, capsys):
        report = run_json_solve(capsys, NONLINEAR, "--sample", "points=41")
        entry = report["outputs"][0]
        assert entry["sampling"] == [6.0, 16.25]
        assert entry["ratios"] == {"inner": 2 / 10.25, "outer": 19 / 10.25}
        assert "sampling" in report["timings"]

    def test_long_prefix_of_point_domains_is_sampled(self, capsys, write_problem):
        # 1500 alternating one-variable blocks: the estimator must not
        # recurse once per block.
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": ("exists", "forall")[i % 2]} for i in range(1500)],
                "variables": [
                    {"name": f"x{i}", "block": i, "domain": [0.5, 0.5]} for i in range(1500)
                ],
                "outputs": [{"name": "f", "expr": "x0 + x1"}],
                "options": {"sampling": {"budget": 1000, "enabled": True}},
            }
        )
        report = run_json_solve(capsys, path)
        assert report["outputs"][0]["sampling"] == [1.0, 1.0]

    def test_point_domains_do_not_count_against_the_budget(self, capsys, write_problem):
        # 3 sampled variables at 5 points need 10^2.1 evaluations; the 20
        # point domains hold one value each, so they add nothing.
        doc = json.loads((FIXTURES / "nonlinear_scalar.json").read_text(encoding="utf-8"))
        doc["variables"] += [
            {"name": f"p{i}", "block": 2, "domain": [0.25, 0.25]} for i in range(20)
        ]
        path = write_problem(doc)
        got = run_json_solve(capsys, path, "--sample", "points=5")["outputs"][0]["sampling"]
        want = run_json_solve(capsys, NONLINEAR, "--sample", "points=5")["outputs"][0]["sampling"]
        assert got == want

    def test_sampling_grid_of_a_domain_wider_than_the_float_range(self, capsys, write_problem):
        # hi - lo overflows; the middle grid point used to be inf
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [{"name": "x", "block": 0, "domain": [-1e308, 1e308]}],
                "outputs": [{"name": "g", "expr": "x*0.5"}],
            }
        )
        report = run_json_solve(capsys, path, "--sample", "points=3")
        assert report["outputs"][0]["sampling"] == [-5e307, 5e307]

    def test_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["solve", NONLINEAR, "--json", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["outputs"][0]["outer"] == [1.5, 20.5]

    def test_empty_results_serialize_as_null(self, capsys, write_problem):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "forall"}, {"quantifier": "exists"}],
                "variables": [
                    {"name": "x1", "block": 0, "domain": [-1, 1]},
                    {"name": "x2", "block": 1, "domain": [-1, 1]},
                ],
                "outputs": [{"name": "f", "expr": "2*x1 + x2"}],
            }
        )
        report = run_json_solve(capsys, path)
        entry = report["outputs"][0]
        assert entry["inner"] is None and entry["inner_empty"] is True
        assert entry["outer"] is None and entry["outer_empty"] is True
        assert report["joint"]["inner"] is None
        assert report["joint"]["outer"] is None


    @pytest.mark.parametrize("op, y", [("*", 1.0242394083360167), ("/", 1.134364244112401)])
    def test_huge_operands_keep_the_point_inside_the_outer_bound(self, capsys, write_problem, op, y):
        # Beyond 2**996 Dekker's split overflowed and the directed product
        # and quotient rounded to nearest, so the outer bound missed the point.
        x = 7.967744395866206e301
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [
                    {"name": "x", "block": 0, "domain": [x, x]},
                    {"name": "y", "block": 0, "domain": [y, y]},
                ],
                "outputs": [{"name": "f", "expr": f"x{op}y"}],
            }
        )
        exact = Fraction(x) * Fraction(y) if op == "*" else Fraction(x) / Fraction(y)
        entry = run_json_solve(capsys, path)["outputs"][0]
        lo, hi = entry["outer"]
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert entry["inner"] is None  # the one point is not a float


class TestAssignmentStrategies:
    def test_pi_greedy_flag(self, capsys):
        report = run_json_solve(capsys, LINEAR_SYSTEM, "--pi", "greedy")
        joint = report["joint"]
        assert joint["strategy"] == "greedy"
        assert joint["pi"] == {"x1": "z1", "x3": "z2", "x4": "z1"}
        # the greedy assignment loses both inners on this system
        assert report["outputs"][0]["inner"] is None
        assert report["outputs"][1]["inner"] is None
        assert report["outputs"][0]["outer"] == [-3.0, 7.0]
        assert report["outputs"][1]["outer"] == [-7.0, 5.0]

    def test_pi_exhaustive_flag(self, capsys):
        report = run_json_solve(capsys, LINEAR_SYSTEM, "--pi", "exhaustive")
        joint = report["joint"]
        assert joint["strategy"] == "exhaustive"
        assert joint["pi"] == {"x1": "z1", "x3": "z1", "x4": "z2"}
        assert report["outputs"][0]["inner"] == [-1.0, 5.0]
        assert report["outputs"][1]["inner"] == [-3.0, 1.0]

    def test_options_pi_reports_pinned(self, capsys, write_problem):
        doc = json.loads(open(LINEAR_SYSTEM, encoding="utf-8").read())
        doc.setdefault("options", {})["pi"] = {"x1": "z1", "x3": "z1", "x4": "z2"}
        path = write_problem(doc)
        report = run_json_solve(capsys, path)
        assert report["joint"]["strategy"] == "pinned"
        assert report["outputs"][0]["inner"] == [-1.0, 5.0]
        assert report["outputs"][1]["inner"] == [-3.0, 1.0]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["solve"],
            ["solve", "x.json", "--sample", "points=1"],
            ["solve", "x.json", "--sample", "n=3"],
            ["solve", "x.json", "--pi", "psychic"],
            ["bench", "cubic", "1"],
            ["bench", "linear", "a,b"],
            ["gen", "linear"],
        ],
        ids=lambda argv: " ".join(argv) or "<no args>",
    )
    def test_exit_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestInputErrors:
    def check_exit_3(self, capsys, argv, fragment):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err
        return err

    def test_missing_file(self, capsys):
        self.check_exit_3(capsys, ["solve", "/nonexistent/q.json"], "no such file")

    def test_unreadable_path(self, tmp_path, capsys):
        path = str(tmp_path / ("q" * 5000))
        self.check_exit_3(capsys, ["solve", path], f"cannot read {path}: File name too long")

    def test_unwritable_json_report(self, capsys):
        out = "/nonexistent/dir/out.json"
        err = self.check_exit_3(
            capsys, ["solve", LINEAR_SYSTEM, "--json", out], f"cannot write {out}: No such file"
        )
        assert "Traceback" not in err

    def test_unwritable_csv_table(self, tmp_path, capsys):
        out = str(tmp_path)  # a directory
        err = self.check_exit_3(
            capsys, ["bench", "linear", "2", "--csv", out], f"cannot write {out}: Is a directory"
        )
        assert "Traceback" not in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        self.check_exit_3(capsys, ["solve", str(path)], "invalid JSON")

    def test_schema_error_is_input_error(self, capsys, write_problem):
        path = write_problem({"schema": 1})
        self.check_exit_3(capsys, ["solve", path], "missing required key")

    def test_supplied_inner_row_outside_its_outer_row(self, capsys, write_problem):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [{"name": "e", "block": 0, "domain": [-1, 1]}],
                "outputs": [{"name": "z", "expr": "e"}],
                "contributions": {"z": {"e": {"I": [-2, 2], "O": [-1, 1]}}},
            }
        )
        err = self.check_exit_3(capsys, ["solve", path], "must lie inside")
        assert err.startswith(f"error: {path}: $.contributions.z.e: inner contribution")

    def test_sampling_budget_refusal(self, tmp_path, capsys):
        path = tmp_path / "motion10.json"
        path.write_text(
            json.dumps(problem_to_json(motion_problem(10))), encoding="utf-8"
        )
        self.check_exit_3(
            capsys,
            ["solve", str(path), "--sample", "points=3"],
            "sampling budget exceeded",
        )

    def test_deeply_nested_expression(self, capsys, write_problem):
        depth = 10_000

        def report(expr):
            path = write_problem(
                {
                    "schema": 1,
                    "blocks": [{"quantifier": "exists"}],
                    "variables": [{"name": "x", "block": 0, "domain": [0, 1]}],
                    "outputs": [{"name": "f", "expr": expr}],
                }
            )
            got = run_json_solve(capsys, path)
            del got["timings"]
            return got

        assert report("(" * depth + "x" + ")" * depth) == report("x")
        assert report("sin(" * depth + "x" + ")" * depth)["outputs"][0]["method"] == "mean-value"
        assert report("-" * depth + "x") == report("x")  # an even number of negations

    @pytest.mark.parametrize(
        "expr, offset", [("x + ²", 4), ("x + 1²", 5), ("x^²", 2), ("x^٣", 2)]
    )
    def test_unicode_digit_is_an_input_error(self, capsys, write_problem, expr, offset):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [{"name": "x", "block": 0, "domain": [0, 1]}],
                "outputs": [{"name": "f", "expr": expr}],
            }
        )
        err = self.check_exit_3(capsys, ["solve", path], "unexpected character")
        assert f"at byte offset {offset}" in err and path in err

    @pytest.mark.parametrize(
        "expr",
        [
            "x*1e300*1e300",  # the enclosure over the box overflows
            "1e308*x*sin(y)",  # only the sum of the contribution rows overflows
        ],
    )
    def test_overflow_names_output_and_file(self, capsys, write_problem, expr):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [
                    {"name": "x", "block": 0, "domain": [-1, 1]},
                    {"name": "y", "block": 0, "domain": [-1, 1]},
                ],
                "outputs": [{"name": "fine", "expr": "x"}, {"name": "big", "expr": expr}],
            }
        )
        err = self.check_exit_3(capsys, ["solve", path], "must be finite")
        assert f"{path}: output 'big': " in err
        assert "internal error" not in err

    def test_division_by_zero_names_output_and_file(self, capsys, write_problem):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [{"name": "x", "block": 0, "domain": [-1, 1], "center": 0}],
                "outputs": [{"name": "g", "expr": "1/x"}],
            }
        )
        self.check_exit_3(
            capsys,
            ["solve", path],
            f"error: {path}: output 'g': division by zero-containing interval",
        )

    @pytest.mark.parametrize(
        "expr, domain, center, detail",
        [
            ("1/x", [-1, 1], 0.5, "division by zero"),  # the grid point x = 0
            ("sin(x + x)", [0, 1e308], 0, "math domain error"),  # sin(inf)
        ],
    )
    def test_sampling_failure_names_the_file(
        self, capsys, write_problem, expr, domain, center, detail
    ):
        # supplied rows skip the gradient, so only the sampling grid fails
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [{"name": "x", "block": 0, "domain": domain, "center": center}],
                "outputs": [{"name": "g", "expr": expr}],
                "contributions": {"g": {"x": {"I": [0, 0], "O": [-1, 1]}}},
            }
        )
        err = self.check_exit_3(
            capsys,
            ["solve", path, "--sample", "points=3"],
            f"error: {path}: sampling evaluation failed: ",
        )
        assert detail in err

    def test_sampling_failure_in_an_outer_stage(self, capsys, write_problem):
        # 1/a reads only the outer block, so it fails in that block's stage
        # at the grid point a = 0, before any column of x is swept
        row = {"I": [0, 0], "O": [-1, 1]}
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "forall"}, {"quantifier": "exists"}],
                "variables": [
                    {"name": "a", "block": 0, "domain": [-1, 1], "center": 0.5},
                    {"name": "x", "block": 1, "domain": [0, 1], "center": 0},
                ],
                "outputs": [{"name": "g", "expr": "1/a + x"}],
                "contributions": {"g": {"a": row, "x": row}},
            }
        )
        err = self.check_exit_3(
            capsys,
            ["solve", path, "--sample", "points=3"],
            f"error: {path}: sampling evaluation failed: ",
        )
        assert "division by zero" in err

    @pytest.mark.parametrize(
        "exponent", ["1025", "1000000000", "9" * 5000], ids=["1025", "1e9", "5000-digits"]
    )
    def test_exponent_over_the_cap(self, capsys, write_problem, exponent):
        path = write_problem(
            {
                "schema": 1,
                "blocks": [{"quantifier": "exists"}],
                "variables": [{"name": "x", "block": 0, "domain": [0, 1]}],
                "outputs": [{"name": "g", "expr": "x^" + exponent}],
            }
        )
        err = self.check_exit_3(
            capsys, ["solve", path], "exponent exceeds the cap of 1024 at byte offset 2"
        )
        assert path in err

    def test_gen_rejects_k_zero(self, capsys):
        self.check_exit_3(capsys, ["gen", "linear", "0"], "k")

    def test_gen_refuses_text_over_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(exprs_mod, "MAX_TEXT", 100)
        self.check_exit_3(capsys, ["gen", "motion", "10"], "would exceed 100 characters")
        assert capsys.readouterr().out == ""

    def test_bench_rejects_k_zero(self, capsys):
        self.check_exit_3(capsys, ["bench", "motion", "0"], "k")


class TestInternalErrors:
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(cli_mod, "solve_vector", boom)
        assert main(["solve", NONLINEAR]) == 4
        err = capsys.readouterr().err
        assert "internal error:" in err
        assert "kaboom" in err


class TestGen:
    def test_gen_emits_parseable_problem(self, capsys):
        assert main(["gen", "linear", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert parse_problem(json.loads(out)).problem == linear_problem(3, seed=7)

    def test_gen_is_deterministic(self, capsys):
        assert main(["gen", "motion", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "motion", "2"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "family,k,seed,problem",
        [
            ("linear", 5, 9, linear_problem(5, seed=9)),
            ("motion", 3, 0, motion_problem(3)),
        ],
        ids=["linear5", "motion3"],
    )
    def test_gen_then_solve_round_trip(self, family, k, seed, problem, tmp_path, capsys):
        assert main(["gen", family, str(k), "--seed", str(seed)]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.json"
        path.write_text(text, encoding="utf-8")
        report = run_json_solve(capsys, str(path))
        direct = solve_vector(problem)
        comp = direct.components[0]
        entry = report["outputs"][0]
        assert entry["inner"] == [comp.inner.lo, comp.inner.hi]
        assert entry["outer"] == [comp.outer.lo, comp.outer.hi]
        assert entry["method"] == comp.method


EXPECTED_COLUMNS = [
    "family",
    "k",
    "variables",
    "alternations",
    "time_s",
    "inner_lo",
    "inner_hi",
    "outer_lo",
    "outer_hi",
    "inner_ratio",
    "outer_ratio",
]


class TestBench:
    def read_rows(self, text):
        reader = csv.DictReader(io.StringIO(text))
        assert reader.fieldnames == EXPECTED_COLUMNS
        return list(reader)

    def test_linear_rows(self, capsys):
        assert main(["bench", "linear", "1,2"]) == 0
        rows = self.read_rows(capsys.readouterr().out)
        assert [r["k"] for r in rows] == ["1", "2"]
        for row in rows:
            assert row["family"] == "linear"
            assert int(row["variables"]) == 2 * int(row["k"])
            assert int(row["alternations"]) == int(row["k"])
            # exact-affine: inner and outer coincide, so both ratios are 1
            assert row["inner_lo"] == row["outer_lo"]
            assert row["inner_hi"] == row["outer_hi"]
            assert row["inner_ratio"] == "1.0"
            assert row["outer_ratio"] == "1.0"
            assert float(row["time_s"]) >= 0.0

    def test_motion_small_k_has_ratios(self, capsys):
        assert main(["bench", "motion", "1"]) == 0
        (row,) = self.read_rows(capsys.readouterr().out)
        assert row["variables"] == "5"
        assert row["alternations"] == "2"
        assert row["inner_ratio"] != "" and row["outer_ratio"] != ""
        assert 0.0 < float(row["inner_ratio"]) <= 1.0
        assert float(row["outer_ratio"]) >= 1.0

    def test_motion_large_k_blank_ratios(self, capsys):
        # 21 variables at 2 points/variable exceeds the bench sampling budget
        assert main(["bench", "motion", "9"]) == 0
        (row,) = self.read_rows(capsys.readouterr().out)
        assert row["inner_ratio"] == "" and row["outer_ratio"] == ""
        assert row["inner_lo"] != "" and row["outer_lo"] != ""

    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "linear", "3", "--csv", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        rows = self.read_rows(out_path.read_text(encoding="utf-8"))
        assert rows[0]["family"] == "linear" and rows[0]["k"] == "3"


def _child_env() -> dict[str, str]:
    """Environment in which a child interpreter imports this checkout's
    package, whether or not it is installed."""
    src = str(FIXTURES.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


class TestConsoleScript:
    def command(self):
        script = shutil.which("quantrange")
        if script:
            return [script]
        return [sys.executable, "-m", "quantrange"]

    def test_help(self):
        proc = subprocess.run(
            [*self.command(), "--help"], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0
        assert "usage:" in proc.stdout

    def test_solve_fixture(self):
        proc = subprocess.run(
            [*self.command(), "solve", NONLINEAR],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "mean-value" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quantrange", "gen", "linear", "1"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == 1
