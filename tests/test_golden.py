"""Golden reports: `solve --json` on the fixtures and on generated files,
compared as text against reports written by an earlier version.

A report's floats are shortest round-tripping reprs, so equal text means
bit-identical bounds, sampling estimates, ratios, assignments and
strategies.  The timings vary from run to run and are dropped.

Regenerate (only when a change of a reported number is intended and
documented):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from quantrange.cli import main

from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"  # problem files that are not fixtures

FIXTURE_FILES = (
    "dubbins_flow.json",
    "dubbins_joint.json",
    "dubbins_taylor.json",
    "linear_system.json",
    "nonlinear_scalar.json",
)

# golden file name -> (problem source, extra solve arguments); a source is a
# fixture file, a file under golden/inputs or a `gen` command line
CASES: dict[str, tuple[str | Path | tuple[str, ...], tuple[str, ...]]] = {
    **{name: (name, ()) for name in FIXTURE_FILES},
    "dubbins_joint.greedy.json": ("dubbins_joint.json", ("--pi", "greedy")),
    "linear_system.greedy.json": ("linear_system.json", ("--pi", "greedy")),
    "nonlinear_scalar.points9.json": ("nonlinear_scalar.json", ("--sample", "points=9")),
    "gen_linear_50.json": (("gen", "linear", "50"), ()),
    "gen_motion_10.json": (("gen", "motion", "10"), ()),
    # affine outputs with thirds, sevenths and tenths under forall-exists-forall-exists,
    # on off-grid domains
    "affine_offgrid.json": (INPUTS / "affine_offgrid.json", ()),
    "affine_offgrid.greedy.json": (INPUTS / "affine_offgrid.json", ("--pi", "greedy")),
    # supplied rows with subnormal endpoints and endpoints near 1e308, an outer bound
    # on the mean-value fallback, and affine outputs rounded near both ends of the range
    "rounding_edges.json": (INPUTS / "rounding_edges.json", ()),
}


def _run(argv: list[str]) -> str:
    """stdout of the command line, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def report_text(case: str, workdir: Path) -> str:
    """The case's report without its timings, as indented JSON text."""
    source, extra = CASES[case]
    if isinstance(source, tuple):
        path = workdir / f"{'_'.join(source)}.json"
        path.write_text(_run(list(source)), encoding="utf-8")
    else:
        path = FIXTURES / source  # an absolute Path stays as it is
    report = json.loads(_run(["solve", str(path), *extra, "--json", "-"]))
    del report["timings"]
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_the_golden_file(case, tmp_path):
    want = (GOLDEN / case).read_text(encoding="utf-8")
    assert report_text(case, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / name).write_text(report_text(name, Path(tmp)), encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
