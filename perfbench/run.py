"""Outside-in solve benchmark for quantrange.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``
(nothing is installed).  Workloads are defined in ``workloads.py``.

Each workload is a closed loop with one caller: one process, one thread,
and the next ``quantrange.cli.main(["solve", <file>, "--json", <out>, ...])``
starts when the previous one returns.  Problem files are generated from the
seed before each solve, outside the timed call, and every report is checked
(see ``workloads.py``); a non-zero exit or a failed check counts as a
failure.  The loop runs at least ``MIN_SOLVES`` solves and otherwise
starts another only while the median solve so far still fits into
``--seconds``, so a run does not overrun by a whole solve.

``--trace 0`` prints the end-to-end metrics.  Solve times are wall times
scaled to a reference host speed (see PROBE_SHARE below); the raw ones are
printed too.

  setup_s            median time, over SETUP_REPEATS fresh interpreters, to
                     import quantrange.cli (what every ``quantrange solve``
                     pays first); one unmeasured import writes the bytecode
                     cache beforehand
  solve_p50_s        median wall time of one solve request
  solve_tail_s       the highest percentile with ten solves beyond it; the
                     median while a run holds twenty solves or fewer
  solves_per_s       solves divided by their summed wall time
  ok_frac            1 - failed_frac (failed_frac itself is printed too; a
                     compared metric must never be 0)
  peak_rss_mb        ru_maxrss of this process
  inner_outer_ratio  summed inner widths over summed outer widths of the
                     first MIN_SOLVES solves (an empty inner counts 0), so
                     it depends on the seed only

For the default seed, the first report of each workload must also match
``reference.json`` (``reference_entry`` of the report the seed commit gave).

``--trace 1`` alternates untraced and traced solves of the same files,
checks that both reports are identical apart from their timings, and
prints per-layer self times (raw wall seconds) and counts per traced solve
(``spans.py``); the spans are written to ``perfbench/.work/``.

The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit code 0 after a completed run (``correct`` says whether every check
passed), 2 when the program or the workload cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MIN_SOLVES = 4  # inner_outer_ratio is taken over exactly these first solves

# On a shared host the same solve runs up to ~50% slower for minutes at a
# time.  A fixed pure-Python probe is therefore timed after every solve, for
# about PROBE_SHARE of the solve's time, and the solve times are scaled by
# REFERENCE_PROBE_S / (median probe time): they read as seconds on this host
# at the speed where one probe takes REFERENCE_PROBE_S (its typical time on
# a 2.1 GHz Xeon vCPU).  The probe is part of the benchmark, so a change to
# the program moves the scaled times exactly as the raw ones.  setup_s is
# not scaled: it is taken in other processes, at one moment, and scaling it
# by the run's probes made it less steady, not more.
PROBE_SHARE = 0.05
REFERENCE_PROBE_S = 0.007
SETUP_REPEATS = 11
_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import quantrange.cli\n"
    "print(time.perf_counter() - t)\n"
)

# Per-layer metric -> (kind, span or counter name).  "self" is seconds of
# self time per traced solve, "calls" and "count" are counts per solve.
PER_LAYER: dict[str, tuple[str, str]] = {
    "scalar.exact_affine_range_s": ("self", "scalar.exact_affine_range"),
    "scalar.exact_affine_range_calls": ("calls", "scalar.exact_affine_range"),
    "scalar.assemble_bounds_s": ("self", "scalar.assemble_bounds"),
    "scalar.assemble_bounds_calls": ("calls", "scalar.assemble_bounds"),
    "vectorsolve.self_s": ("self", "vectorsolve.solve_vector"),
    "vectorsolve.inner_evals": ("count", "vectorsolve.inner_evals"),
    "exprs.eval_grad_s": ("self", "exprs.eval_grad"),
    "exprs.eval_grad_calls": ("calls", "exprs.eval_grad"),
    "exprs.interval_ops": ("count", "exprs.interval_ops"),
    "exprs.eval_interval_s": ("self", "exprs.eval_interval"),
    "exprs.eval_interval_calls": ("calls", "exprs.eval_interval"),
    "scalar.affine_coefficients_s": ("self", "scalar.affine_coefficients"),
    "scalar.affine_coefficients_calls": ("calls", "scalar.affine_coefficients"),
    "scalar.contribution_rows_s": ("self", "scalar.contribution_rows"),
    "scalar.contribution_rows_calls": ("calls", "scalar.contribution_rows"),
    "scalar.solve_scalar_s": ("self", "scalar.solve_scalar"),
    "exprs.eval_point_s": ("self", "exprs.eval_point"),
    "exprs.eval_point_calls": ("calls", "exprs.eval_point"),
    "sampling.self_s": ("self", "sampling.sampling_estimate"),
    "sampling.leaf_evals": ("count", "sampling.leaf_evals"),
    "exprs.parse_s": ("self", "exprs.parse"),
    "exprs.parse_calls": ("calls", "exprs.parse"),
    "problemfile.load_s": ("self", "problemfile.load_problem"),
    "cli.self_s": ("self", "cli.main"),
}
UNITS = {"self": "s", "calls": "count", "count": "count"}

Metrics = dict[str, tuple[float, str]]  # name -> (value, unit)


def probe() -> float:
    """Wall time of a fixed mix of Fraction, float and container work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(400):
        acc += Fraction(i * 0.1) - Fraction(i, 3)
    rows = [{"k": i, "v": [i * 0.5, i + 1.0]} for i in range(8000)]
    sum(r["v"][0] * r["v"][1] - r["k"] for r in rows)
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times gathered through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe_for(self, seconds: float) -> None:
        """Probe at least once and until about `seconds` are spent."""
        spent = 0.0
        while True:
            self.samples.append(probe())
            spent += self.samples[-1]
            if spent >= seconds:
                return

    def scale(self) -> float:
        """Factor that turns this run's wall times into reference seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)


class SolveLoop:
    """Generates, solves and checks the instances of one workload and seed."""

    def __init__(self, workload: wl.Workload, seed: int, main) -> None:
        self.workload = workload
        self.seed = seed
        self.main = main
        self.index = 0
        self.seen: set[int] = set()  # hashes, so memory stays flat however many solves
        self.property_sums: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.reference = json.loads(REFERENCE.read_text())

    def next_instance(self) -> tuple[wl.Instance, Path]:
        """The next instance of the stream whose file differs from all before."""
        while True:
            inst = self.workload.make(wl.instance_rng(self.workload.name, self.seed, self.index))
            self.index += 1
            text = inst.text()
            key = hash(text)
            if key not in self.seen:
                break
        self.seen.add(key)
        for key, value in inst.properties.items():
            self.property_sums[key] = self.property_sums.get(key, 0) + value
        path = WORK / "problem.json"
        path.write_text(text)
        return inst, path

    def solve(self, problem: Path, out: Path, tracer: spans.Tracer | None = None) -> tuple[float, int]:
        """One timed solve request; returns (seconds, exit code)."""
        argv = ["solve", str(problem), "--json", str(out), *self.workload.solve_args]
        out.unlink(missing_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            code = self.main(argv)
        else:
            with tracer:
                code = tracer.spanned("cli.main", self.main)(argv)
        return time.perf_counter() - t0, code

    def check(self, inst: wl.Instance, out: Path, code: int) -> dict | None:
        """Count the solve and check its report; the report when it passed."""
        self.attempted += 1
        if code != 0:
            errors = [f"exit code {code}"]
            report = None
        else:
            try:
                report = json.loads(out.read_text())
                errors = self.workload.check_report(inst, report)
                if self.seed == wl.DEFAULT_SEED and len(self.seen) == 1:
                    errors += check_reference(self.reference.get(self.workload.name), report)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors = [f"unreadable report: {exc!r}"]
        if errors:
            self.failed += 1
            self.errors += [f"instance {self.index - 1}: {e}" for e in errors]
            return None
        return report


def reference_entry(report: dict) -> dict:
    """The parts of a report pinned for the default seed."""
    return {
        "outputs": {
            o["name"]: {k: o[k] for k in ("inner", "outer", "sampling") if k in o}
            for o in report["outputs"]
        },
        "pi": report["joint"]["pi"],
    }


def check_reference(want: dict | None, report: dict) -> list[str]:
    """Bitwise on the exact affine route, within wl.REL_TOL elsewhere."""
    if want is None:
        return ["no reference values stored for this workload"]
    got = reference_entry(report)
    if got["pi"] != want["pi"]:
        return [f"pi {got['pi']} differs from the reference {want['pi']}"]
    exact = {o["name"] for o in report["outputs"] if o["method"] == "exact-affine"}
    errors = []
    for name, bounds in want["outputs"].items():
        for key, w in bounds.items():
            g = got["outputs"].get(name, {}).get(key)
            if g is None or w is None:
                ok = g is None and w is None
            elif name in exact:
                ok = all(wl.same_bits(a, b) for a, b in zip(g, w))
            else:
                ok = all(wl.close(a, b) for a, b in zip(g, w))
            if not ok:
                errors.append(f"{name}.{key} {g} differs from the reference {w}")
    return errors


def inner_outer_ratio(reports: list[dict]) -> float:
    """Sum of inner widths over sum of outer widths; empty inner counts 0."""
    inner = outer = 0.0
    for report in reports:
        for o in report["outputs"]:
            if o["inner"] is not None:
                inner += o["inner"][1] - o["inner"][0]
            outer += o["outer"][1] - o["outer"][0]
    return inner / outer


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten solves
    beyond it, or the median when there are twenty solves or fewer."""
    n = len(times)
    if n <= 20:
        return 50.0, statistics.median(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def fits(start: float, times: list[float], seconds: float) -> bool:
    """Whether one more step of median length ends within seconds of start."""
    return time.perf_counter() - start + statistics.median(times) <= seconds


def setup_seconds() -> float:
    """Median time a fresh interpreter takes to import quantrange.cli."""
    env = {"PYTHONPATH": str(SRC)}
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i > 0:  # the first import also writes the bytecode cache
            samples.append(float(done.stdout))
    return statistics.median(samples)


def run_untraced(loop: SolveLoop, seconds: float) -> Metrics:
    setup_s = setup_seconds()
    host = HostSpeed()
    times: list[float] = []
    reports: list[dict] = []
    out = WORK / "report.json"
    start = time.perf_counter()
    while len(times) < MIN_SOLVES or fits(start, times, seconds):
        inst, problem = loop.next_instance()
        dt, code = loop.solve(problem, out)
        times.append(dt)
        host.probe_for(PROBE_SHARE * dt)
        report = loop.check(inst, out, code)
        if report is not None and len(times) <= MIN_SOLVES:
            reports.append(report)
    pct, tail_s = tail(times)
    scale = host.scale()
    loop.notes += [
        f"{len(times)} solves; solve_tail_s is their p{pct:.1f}",
        f"failed_frac {loop.failed / loop.attempted:.6g} ratio",
        f"solve times are scaled by {scale:.4f} from {len(host.samples)} host-speed probes; "
        f"raw: solve p50 {statistics.median(times):.4g} s, tail {tail_s:.4g} s, "
        f"{len(times) / sum(times):.4g} solves/s",
    ]
    return {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (statistics.median(times) * scale, "s"),
        "solve_tail_s": (tail_s * scale, "s"),
        "solves_per_s": (len(times) / (sum(times) * scale), "1/s"),
        "ok_frac": (1.0 - loop.failed / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "inner_outer_ratio": (inner_outer_ratio(reports) if reports else 0.0, "ratio"),
    }


def run_traced(loop: SolveLoop, seconds: float) -> Metrics:
    tracer = spans.Tracer()
    plain_times: list[float] = []
    traced_times: list[float] = []
    outputs = 0
    start = time.perf_counter()
    pair_times: list[float] = []
    while len(pair_times) < 2 or fits(start, pair_times, seconds):
        t_pair = time.perf_counter()
        inst, problem = loop.next_instance()
        # Alternate which side goes first so warm-up favours neither.
        order = (None, tracer) if len(traced_times) % 2 == 0 else (tracer, None)
        reports = {}
        for t in order:
            out = WORK / ("report.json" if t is None else "report-traced.json")
            dt, code = loop.solve(problem, out, t)
            (plain_times if t is None else traced_times).append(dt)
            reports[t is None] = loop.check(inst, out, code)
        plain, traced = reports[True], reports[False]
        if traced is not None:
            outputs += len(traced["outputs"])
        if plain is not None and traced is not None:
            plain.pop("timings"), traced.pop("timings")
            if json.dumps(plain) != json.dumps(traced):  # repr keeps every bit
                loop.failed += 1
                loop.errors.append(f"instance {loop.index - 1}: traced report differs")
        pair_times.append(time.perf_counter() - t_pair)
    self_ns, calls = tracer.summarize()
    n = len(traced_times)
    per_run = {
        "self": {name: ns / 1e9 for name, ns in self_ns.items()},
        "calls": calls,
        "count": tracer.counts,
    }
    metrics = {
        name: (per_run[kind].get(src, 0) / n, UNITS[kind]) for name, (kind, src) in PER_LAYER.items()
    }
    metrics["scalar.rows_per_output"] = (
        calls.get("scalar.contribution_rows", 0) / max(outputs, 1), "ratio"
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0, "ratio"
    )
    loop.notes.append(f"{n} traced and {len(plain_times)} untraced solves")
    with open(WORK / f"spans-{loop.workload.name}-{loop.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, separators=(",", ":"))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; have {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "quantrange" / "cli.py").is_file():
        print(f"program not found: {SRC / 'quantrange'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quantrange.cli

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    loop = SolveLoop(workload, args.seed, quantrange.cli.main)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    if args.trace:
        metrics = run_traced(loop, args.seconds)
    else:
        metrics = run_untraced(loop, args.seconds)

    n = len(loop.seen)
    print("inputs (mean per instance): " + ", ".join(
        f"{k}={v / n:g}" for k, v in loop.property_sums.items()
    ))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for note in loop.notes:
        print(note)
    for error in loop.errors:
        print(f"FAILED {error}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
