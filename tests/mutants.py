"""Mutation gate for the soundness-critical lines.

Each mutant below is one small edit to a line that the soundness of the
bounds depends on: a rounding direction, a corner, a condition.  For each,
the gate copies src/ to a temporary directory, applies the edit there, and
runs the listed test files against the copy with -x.  A mutant is killed
when some test fails.  The gate exits non-zero when a mutant survives, when
its old text no longer occurs exactly once in its file (the line moved or
changed: update the entry), when its test run errors out instead of
failing, or when its test run outlasts TIMEOUT_S (a mutant that makes a loop
run forever is not counted as killed).  A change to a listed line updates
that line's entry.

    python tests/mutants.py

Pytest does not collect this file; it is not part of the test suite.
(Mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978.)
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per mutant; the slowest test run measured about 9 s on a 2-vCPU host.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/quantrange
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # test files expected to kill it


MUTANTS = (
    Mutant(
        "inner radius c - lo rounded up",
        "scalar.py",
        "r_minus_in = max(0.0, add_down(c, -lo))",
        "r_minus_in = max(0.0, add_up(c, -lo))",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "outer radius hi - c rounded down",
        "scalar.py",
        "r_plus_out = add_up(hi, -c)",
        "r_plus_out = add_down(hi, -c)",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "inner slope from the far end of the gradient enclosure",
        "scalar.py",
        "slope = g.lo",
        "slope = g.hi",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "inner lo rounded down",
        "scalar.py",
        "lo_f = round_ratio(lo, self.denom, True)",
        "lo_f = round_ratio(lo, self.denom, False)",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "outer hi rounded down",
        "scalar.py",
        "round_ratio(hi, self.denom, True))",
        "round_ratio(hi, self.denom, False))",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "universal inner widths in the inner slack",
        "scalar.py",
        "slack - (oh - ol)\n                out_lo, out_hi, out_slack = out_lo + ih,",
        "slack - (ih - il)\n                out_lo, out_hi, out_slack = out_lo + ih,",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "one-unit slip in the suffix scan",
        "scalar.py",
        "for l in range(len(slack) - 1, -1, -1):",
        "for l in range(len(slack) - 1, 0, -1):",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "mean-value fallback with its endpoints left unswapped",
        "scalar.py",
        "lo, hi = self.hi, self.lo",
        "lo, hi = self.lo, self.hi",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "mean-value fallback read from the outer sums",
        "scalar.py",
        "lo, hi = self.hi, self.lo",
        "lo, hi = self.outer_sums",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "dyadic sum shifts the operand with the smaller exponent",
        "scalar.py",
        "s = m + (n << (f - e))",
        "s = (m << (f - e)) + n",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "fold bound counts a denominator 2**-e as -e bits",
        "scalar.py",
        "return max(m.bit_length(), 1 - e)",
        "return max(m.bit_length(), -e)",
        ("tests/test_scalar.py",),
    ),
    Mutant(
        "iv_mul: wrong lower corner for a >= 0, b straddling 0",
        "intervals.py",
        "return _interval(mul_down(ah, bl), mul_up(ah, bh))",
        "return _interval(mul_down(al, bl), mul_up(ah, bh))",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "iv_mul: upper bound rounded down for a, b >= 0",
        "intervals.py",
        "return _interval(mul_down(al, bl), mul_up(ah, bh))",
        "return _interval(mul_down(al, bl), mul_down(ah, bh))",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "huge-operand product error dropped",
        "intervals.py",
        "return p, _product_error(a * _SCALE_DOWN, b, p * _SCALE_DOWN) * _SCALE_UP",
        "return p, 0.0",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "iv_div: wrong lower corner for b < 0, a straddling 0",
        "intervals.py",
        "return _interval(div_down(ah, bh), div_up(al, bh))",
        "return _interval(div_down(ah, bl), div_up(al, bh))",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "iv_sub: lower bound rounded up",
        "intervals.py",
        "return _interval(add_down(a.lo, -b.hi), add_up(a.hi, -b.lo))",
        "return _interval(add_up(a.lo, -b.hi), add_up(a.hi, -b.lo))",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "iv_pow: lower power rounded up",
        "intervals.py",
        "r = mul_down(r, x)",
        "r = mul_up(r, x)",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "iv_pow: upper power rounded down",
        "intervals.py",
        "r = mul_up(r, x)",
        "r = mul_down(r, x)",
        ("tests/test_intervals.py",),
    ),
    Mutant(
        "msin value enclosed over u + v alone, not hull(u, u + v)",
        "exprs.py",
        "h = iv_hull(u, iv_add(u, v))",
        "h = iv_add(u, v)",
        ("tests/test_exprs.py",),
    ),
    Mutant(
        "sampler column folded without the level's running range",
        "sampling.py",
        "top.lo = min(top.lo, *col)",
        "top.lo = min(col)",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "sampler stage tag one block too shallow",
        "sampling.py",
        "name: (k + 1, i) for k, block",
        "name: (k, i) for k, block",
        ("tests/test_sampling.py",),
    ),
    Mutant(
        "branch-and-bound prunes only a strictly worse subtree",
        "vectorsolve.py",
        "if bound <= best:",
        "if bound < best:",
        ("tests/test_golden.py",),
    ),
)


def run(mutant: Mutant, workdir: Path) -> tuple[str, str]:
    """(verdict, detail): "killed" with the first failing test, "survived",
    or "stale"/"error"/"timeout" with the reason."""
    src = workdir / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "quantrange" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale", f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "-o", f"pythonpath={src}", *mutant.tests,
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", f"no result within {TIMEOUT_S:g} s"
    if proc.returncode == 0:
        return "survived", ""
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return "killed", failed[0].removeprefix("FAILED ").split(" - ")[0]
    return "error", f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="quantrange-mutants-") as tmp:
        for number, mutant in enumerate(MUTANTS, 1):
            t0 = time.perf_counter()
            verdict, detail = run(mutant, Path(tmp))
            bad += verdict != "killed"
            print(
                f"{number:2d} {verdict:8s} {time.perf_counter() - t0:6.1f} s  "
                f"{mutant.name}: {detail}",
                flush=True,
            )
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
