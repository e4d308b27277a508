"""JSON problem files: schema validation with path-anchored errors,
supplied contribution rows, solver options, and serialization round-trips."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import quantrange
from quantrange.benchgen import linear_problem, motion_problem
from quantrange.exprs import ParseError
from quantrange.intervals import Interval
from quantrange.problem import Quantifier
from quantrange.problemfile import (
    DomainError,
    SchemaError,
    load_problem,
    parse_problem,
    problem_to_json,
)

from conftest import FIXTURES
from helpers import centers


def base_doc():
    return {
        "schema": 1,
        "blocks": [{"quantifier": "exists"}, {"quantifier": "forall"}],
        "variables": [
            {"name": "x", "block": 0, "domain": [-1, 1]},
            {"name": "y", "block": 1, "domain": [0, 2], "center": 1.0},
        ],
        "outputs": [{"name": "f", "expr": "x + y"}],
    }


def expect_error(doc, exc_type, path):
    with pytest.raises(exc_type) as excinfo:
        parse_problem(doc)
    assert excinfo.value.path == path
    return excinfo.value


class TestHappyPath:
    def test_minimal_document(self):
        loaded = parse_problem(base_doc())
        p = loaded.problem
        assert [v.name for v in p.variables] == ["x", "y"]
        quantifier = {n: b.quantifier for b in p.blocks for n in b.names}
        assert quantifier == {"x": Quantifier.EXISTS, "y": Quantifier.FORALL}
        assert loaded.supplied is None
        assert loaded.options.pinned_assignment is None

    def test_center_defaults_to_domain_midpoint(self):
        loaded = parse_problem(base_doc())
        assert centers(loaded.problem) == {"x": 0.0, "y": 1.0}

    @pytest.mark.parametrize(
        "domain, center",
        [([1e308, 1e308], 1e308), ([1e308, 1.7976931348623157e308], 1.398846567431158e308)],
    )
    def test_default_center_of_a_domain_whose_bound_sum_overflows(self, domain, center):
        doc = base_doc()
        doc["variables"][0]["domain"] = domain
        assert centers(parse_problem(doc).problem)["x"] == center

    @pytest.mark.parametrize(
        "name",
        [
            "linear_system.json",
            "nonlinear_scalar.json",
            "dubbins_taylor.json",
            "dubbins_flow.json",
            "dubbins_joint.json",
        ],
    )
    def test_bundled_fixtures_load(self, name):
        loaded = load_problem(str(FIXTURES / name))
        assert loaded.problem.outputs

    def test_fixture_with_contributions_covers_all_outputs(self):
        loaded = load_problem(str(FIXTURES / "dubbins_flow.json"))
        assert set(loaded.supplied) == {o.name for o in loaded.problem.outputs}


class TestTopLevelSchema:
    def test_missing_required_key(self):
        doc = base_doc()
        del doc["schema"]
        expect_error(doc, SchemaError, "$")

    def test_unsupported_schema_version(self):
        doc = base_doc()
        doc["schema"] = 2
        expect_error(doc, SchemaError, "$.schema")

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["extra"] = 1
        err = expect_error(doc, SchemaError, "$")
        assert "extra" in str(err)

    def test_non_object_document(self):
        expect_error([1, 2], SchemaError, "$")

    def test_empty_sections_rejected(self):
        for key in ("blocks", "variables", "outputs"):
            doc = base_doc()
            doc[key] = []
            expect_error(doc, SchemaError, f"$.{key}")


class TestBlocksSchema:
    def test_bad_quantifier_value(self):
        doc = base_doc()
        doc["blocks"][0] = {"quantifier": "some"}
        expect_error(doc, SchemaError, "$.blocks[0].quantifier")

    def test_unknown_block_key(self):
        doc = base_doc()
        doc["blocks"][0]["foo"] = 1
        expect_error(doc, SchemaError, "$.blocks[0]")


class TestVariablesSchema:
    def test_crossed_domain(self):
        doc = base_doc()
        doc["variables"][0]["domain"] = [1, -1]
        expect_error(doc, DomainError, "$.variables[0].domain")

    def test_center_outside_domain(self):
        doc = base_doc()
        doc["variables"][0]["center"] = 5
        expect_error(doc, DomainError, "$.variables[0].center")

    def test_invalid_identifier(self):
        doc = base_doc()
        doc["variables"][0]["name"] = "2x"
        expect_error(doc, SchemaError, "$.variables[0].name")

    def test_reserved_function_names_rejected(self):
        for reserved in ("sin", "cos", "msin"):
            doc = base_doc()
            doc["variables"][0]["name"] = reserved
            doc["outputs"][0]["expr"] = "y"
            expect_error(doc, SchemaError, "$.variables[0].name")

    def test_duplicate_names(self):
        doc = base_doc()
        doc["variables"][1]["name"] = "x"
        expect_error(doc, SchemaError, "$.variables[1].name")

    def test_block_index_out_of_range(self):
        doc = base_doc()
        doc["variables"][0]["block"] = 5
        expect_error(doc, SchemaError, "$.variables[0].block")

    def test_booleans_are_not_numbers(self):
        doc = base_doc()
        doc["variables"][0]["domain"] = [True, 1]
        expect_error(doc, SchemaError, "$.variables[0].domain[0]")

    def test_non_finite_numbers_rejected(self):
        # json.loads accepts Infinity; the schema layer must not
        doc = json.loads('{"domain": [-Infinity, 1]}')
        full = base_doc()
        full["variables"][0]["domain"] = doc["domain"]
        expect_error(full, DomainError, "$.variables[0].domain[0]")
        full["variables"][0]["domain"] = [0, 10**400]  # float() overflows
        expect_error(full, DomainError, "$.variables[0].domain[1]")

    def test_unknown_variable_key(self):
        doc = base_doc()
        doc["variables"][0]["foo"] = 1
        expect_error(doc, SchemaError, "$.variables[0]")

    def test_block_members_must_be_declared_contiguously(self):
        doc = base_doc()
        doc["variables"].append({"name": "z", "block": 0, "domain": [0, 1]})
        err = expect_error(doc, SchemaError, "$.variables")
        assert "contiguous" in str(err)

    def test_point_domain_is_allowed(self):
        doc = base_doc()
        doc["variables"][0]["domain"] = [0.5, 0.5]
        loaded = parse_problem(doc)
        spec = {v.name: v for v in loaded.problem.variables}
        assert spec["x"].domain == Interval(0.5, 0.5)


class TestOutputsSchema:
    def test_expression_syntax_errors_propagate_untranslated(self):
        doc = base_doc()
        doc["outputs"][0]["expr"] = "x +"
        with pytest.raises(ParseError) as excinfo:
            parse_problem(doc)
        assert excinfo.value.offset == 3

    def test_undeclared_variable_in_expression(self):
        doc = base_doc()
        doc["outputs"][0]["expr"] = "x + qq"
        err = expect_error(doc, SchemaError, "$.outputs[0].expr")
        assert "qq" in str(err)

    def test_duplicate_output_names(self):
        doc = base_doc()
        doc["outputs"].append({"name": "f", "expr": "x"})
        expect_error(doc, SchemaError, "$.outputs[1].name")


def with_contributions(doc=None):
    doc = doc or base_doc()
    doc["contributions"] = {
        "f": {
            "x": {"I": [-1, 1], "O": [-1, 1]},
            "y": {"I": [-1, 1], "O": [-1, 1]},
        }
    }
    return doc


class TestContributionsSchema:
    def test_valid_contributions_load(self):
        loaded = parse_problem(with_contributions())
        row = loaded.supplied["f"]["x"]
        assert row.inner == Interval(-1.0, 1.0)
        assert row.outer == Interval(-1.0, 1.0)

    def test_unknown_output(self):
        doc = with_contributions()
        doc["contributions"]["g"] = {}
        expect_error(doc, SchemaError, "$.contributions.g")

    def test_unknown_variable(self):
        doc = with_contributions()
        doc["contributions"]["f"]["zz"] = {"I": [0, 0], "O": [0, 0]}
        expect_error(doc, SchemaError, "$.contributions.f.zz")

    def test_missing_row_interval(self):
        doc = with_contributions()
        del doc["contributions"]["f"]["x"]["O"]
        expect_error(doc, SchemaError, "$.contributions.f.x")

    def test_crossed_row_interval(self):
        doc = with_contributions()
        doc["contributions"]["f"]["x"]["I"] = [1, -1]
        expect_error(doc, DomainError, "$.contributions.f.x.I")

    def test_row_interval_must_contain_zero(self):
        doc = with_contributions()
        doc["contributions"]["f"]["x"]["I"] = [0.5, 1]
        err = expect_error(doc, DomainError, "$.contributions.f.x")
        assert "contain 0" in str(err)

    def test_inner_row_must_lie_inside_outer_row(self):
        doc = with_contributions()
        doc["contributions"]["f"]["y"]["I"] = [-1, 2]
        err = expect_error(doc, DomainError, "$.contributions.f.y")
        assert "must lie inside" in str(err)

    def test_rows_must_cover_expression_variables(self):
        doc = with_contributions()
        del doc["contributions"]["f"]["y"]
        err = expect_error(doc, SchemaError, "$.contributions.f")
        assert "missing: y" in str(err)

    def test_rows_for_unused_variables_are_allowed(self):
        doc = with_contributions()
        doc["variables"].append({"name": "z", "block": 1, "domain": [0, 1]})
        doc["contributions"]["f"]["z"] = {"I": [0, 0], "O": [0, 0]}
        loaded = parse_problem(doc)
        assert "z" in loaded.supplied["f"]

    def test_unknown_row_key(self):
        doc = with_contributions()
        doc["contributions"]["f"]["x"]["foo"] = 1
        expect_error(doc, SchemaError, "$.contributions.f.x")


class TestOptionsSchema:
    def test_pi_assignment_loads(self):
        doc = base_doc()
        doc["options"] = {"pi": {"x": "f"}}
        loaded = parse_problem(doc)
        assert loaded.options.pinned_assignment == {"x": "f"}

    def test_pi_rejects_universal_variables(self):
        doc = base_doc()
        doc["options"] = {"pi": {"x": "f", "y": "f"}}
        expect_error(doc, SchemaError, "$.options.pi.y")

    def test_pi_rejects_unknown_variables(self):
        doc = base_doc()
        doc["options"] = {"pi": {"x": "f", "q": "f"}}
        expect_error(doc, SchemaError, "$.options.pi.q")

    def test_pi_rejects_unknown_outputs(self):
        doc = base_doc()
        doc["options"] = {"pi": {"x": "g"}}
        expect_error(doc, SchemaError, "$.options.pi.x")

    def test_pi_must_cover_every_existential(self):
        doc = base_doc()
        doc["variables"].insert(1, {"name": "w", "block": 0, "domain": [-1, 1]})
        doc["outputs"][0]["expr"] = "x + y + w"
        doc["options"] = {"pi": {"x": "f"}}
        err = expect_error(doc, SchemaError, "$.options.pi")
        assert "missing: w" in str(err)

    def test_exhaustive_limit(self):
        doc = base_doc()
        doc["options"] = {"exhaustive_limit": 10}
        assert parse_problem(doc).options.exhaustive_limit == 10
        doc["options"] = {"exhaustive_limit": 0}
        expect_error(doc, DomainError, "$.options.exhaustive_limit")
        doc["options"] = {"exhaustive_limit": 2.5}
        expect_error(doc, SchemaError, "$.options.exhaustive_limit")

    def test_sampling_options(self):
        doc = base_doc()
        doc["options"] = {"sampling": {"points": 5}}
        opts = parse_problem(doc).options
        assert opts.sampling_points == 5
        assert opts.sampling_enabled is False
        assert opts.sampling_budget is None
        doc["options"] = {"sampling": {"points": 3, "budget": 9.5, "enabled": True}}
        opts = parse_problem(doc).options
        assert opts.sampling_points == 3 and opts.sampling_budget == 9.5
        assert opts.sampling_enabled is True

    def test_sampling_bounds(self):
        doc = base_doc()
        doc["options"] = {"sampling": {"points": 1}}
        expect_error(doc, DomainError, "$.options.sampling.points")
        doc["options"] = {"sampling": {"points": 3, "budget": 0}}
        expect_error(doc, DomainError, "$.options.sampling.budget")

    def test_unknown_option_keys(self):
        doc = base_doc()
        doc["options"] = {"nope": 1}
        expect_error(doc, SchemaError, "$.options")
        doc["options"] = {"sampling": {"points": 3, "foo": 1}}
        expect_error(doc, SchemaError, "$.options.sampling")


class TestLoadProblem:
    def test_invalid_json_reports_document_root(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_problem(str(path))
        assert excinfo.value.path == "$"
        assert "invalid JSON" in str(excinfo.value)

    @pytest.mark.parametrize(
        "data, fragment",
        [
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
            (b'{"schema": 1' + b"0" * 5000 + b"}", "integer literal of 5001 digits"),
            (b"\xff\xfe{}", "not UTF-8"),
        ],
        ids=["deep-json", "long-integer", "utf16-bom"],
    )
    def test_unreadable_json_reports_document_root(self, tmp_path, data, fragment):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=fragment) as excinfo:
            load_problem(str(path))
        assert excinfo.value.path == "$"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(str(tmp_path / "nope.json"))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "problem",
        [linear_problem(3, seed=5), linear_problem(5, seed=0), motion_problem(2)],
        ids=["linear3", "linear5", "motion2"],
    )
    def test_serialize_then_parse_is_identity(self, problem):
        doc = problem_to_json(problem)
        assert doc["schema"] == 1
        assert parse_problem(doc).problem == problem

    def test_serialized_document_is_plain_json(self):
        doc = problem_to_json(motion_problem(1))
        text = json.dumps(doc)
        assert parse_problem(json.loads(text)).problem == motion_problem(1)

    def test_centers_are_always_written(self):
        doc = problem_to_json(linear_problem(1, seed=0))
        assert all("center" in v for v in doc["variables"])


def test_loading_a_file_loads_no_solver():
    """problemfile reads the existential order from the problem module, so
    a fresh interpreter that imports it loads no vectorsolve.  The package
    root imports every module, so the child imports problemfile under a
    bare package object that skips the root's __init__."""
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('quantrange')\n"
        f"pkg.__path__ = [{str(Path(quantrange.__file__).parent)!r}]\n"
        "sys.modules['quantrange'] = pkg\n"
        "import quantrange.problemfile\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('quantrange.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "quantrange.problemfile" in loaded
    assert "quantrange.vectorsolve" not in loaded
