"""Self-tests of the benchmark's own arithmetic, generators and oracles.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _nest() -> spans.Tracer:
    """root [0, 100] > a [10, 40] > leaf [20, 30];  root > b [50, 90] (also 'a')."""
    tracer = spans.Tracer(sites=())
    tracer.names[:] = ["root", "a", "leaf"]
    for code, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 20, 30), (1, 0, 50, 90)):
        tracer.name_codes.append(code)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    return tracer


def test_self_time_subtracts_direct_children_only():
    self_ns, calls = _nest().summarize()
    assert self_ns == {"root": 100 - 30 - 40, "a": (30 - 10) + 40, "leaf": 10}
    assert calls == {"root": 1, "a": 2, "leaf": 1}
    assert sum(self_ns.values()) == 100  # self times partition the root span


def test_spanned_calls_record_parent_links():
    tracer = spans.Tracer(sites=())
    leaf = tracer.spanned("leaf", lambda x: x + 1, counter=None)
    tracer.counts["mid.calls"] = 0
    mid = tracer.spanned("mid", lambda x: leaf(leaf(x)), counter="mid.calls")
    assert tracer.spanned("root", mid)(1) == 3
    names = [tracer.names[c] for c in tracer.name_codes]
    assert names == ["root", "mid", "leaf", "leaf"]
    assert list(tracer.parents) == [-1, 0, 1, 1]
    assert all(s <= e for s, e in zip(tracer.starts, tracer.ends))
    assert tracer.counts == {"mid.calls": 1}


def test_missing_site_aborts_and_restores_earlier_sites():
    import quantrange.cli as cli

    original = cli.solve_vector
    sites = (
        spans.Site("quantrange.cli", "solve_vector", "vectorsolve.solve_vector"),
        spans.Site("quantrange.cli", "no_such_function", "missing"),
    )
    with pytest.raises(spans.TracingError, match="no_such_function"):
        with spans.Tracer(sites):
            pass
    assert cli.solve_vector is original


def test_every_default_site_is_wrapped_and_restored():
    import importlib

    before = {
        (s.module, s.attr): getattr(importlib.import_module(s.module), s.attr)
        for s in spans.SITES
    }

    def current(key):
        return getattr(importlib.import_module(key[0]), key[1])

    with spans.Tracer():
        assert all(current(key) is not fn for key, fn in before.items())
    assert all(current(key) is fn for key, fn in before.items())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = wl.WORKLOADS[name].make
    first = make(wl.instance_rng(name, 7, 0))
    again = make(wl.instance_rng(name, 7, 0))
    other = make(wl.instance_rng(name, 8, 0))
    assert first.text() == again.text()
    assert first.text() != other.text()
    shape = {k: v for k, v in first.properties.items() if k != "nodes"}
    assert shape == {k: v for k, v in other.properties.items() if k != "nodes"}
    assert len(first.doc["variables"]) == first.properties["variables"]


def _node_count(expr) -> int:
    count, stack = 0, [expr]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children())
    return count


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: wl.linear_instance(rng, pairs=6),
        lambda rng: wl.motion_instance(rng, steps=5),
        wl.joint_instance,
        wl.sampling_instance,
    ],
)
def test_recorded_node_count_matches_the_parsed_file(make):
    from quantrange.problemfile import parse_problem

    inst = make(wl.instance_rng("nodes", 0, 0))
    problem = parse_problem(inst.doc).problem
    assert sum(_node_count(o.expr) for o in problem.outputs) == inst.properties["nodes"]


def test_linear_oracle_on_a_hand_worked_linear_1():
    # f = 1/2 + 1/4 x1 - 3/4 x2, forall x1, exists x2, both on [-1, 1]:
    # whatever x1 does (+-1/4), x2 can move f by +-3/4, so the range is
    # 1/2 +- (3/4 - 1/4) = [0, 1].
    q = Fraction
    assert wl.exact_linear_range(q(1, 2), [q(1, 4), q(-3, 4)]) == (q(0), q(1))
    # The existential no longer covers the universal: empty.
    assert wl.exact_linear_range(q(1, 2), [q(3, 4), q(1, 4)]) is None
    # Equal magnitudes: a single point.
    assert wl.exact_linear_range(q(1, 2), [q(1, 4), q(1, 4)]) == (q(1, 2), q(1, 2))


def test_linear_oracle_on_a_generated_linear_1_file():
    inst = wl.linear_instance(wl.instance_rng("hand", 3, 0), pairs=1)
    constant, (ua, ea) = inst.oracle
    assert abs(ea) >= abs(ua)
    lo, hi = wl.exact_linear_range(constant, [ua, ea])
    assert (lo, hi) == (constant - abs(ea) + abs(ua), constant + abs(ea) - abs(ua))


def test_directed_rounding_brackets_the_exact_value():
    third = Fraction(1, 3)
    assert Fraction(wl.floor_float(third)) < third < Fraction(wl.ceil_float(third))
    assert wl.floor_float(Fraction(1, 4)) == wl.ceil_float(Fraction(1, 4)) == 0.25


def test_tail_is_the_median_up_to_twenty_solves():
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    times = [float(i) for i in range(30)]
    pct, value = run.tail(times)
    assert value == 19.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_inner_outer_ratio_counts_empty_inner_as_zero():
    report = {"outputs": [
        {"inner": [0.0, 1.0], "outer": [-1.0, 2.0]},
        {"inner": None, "outer": [0.0, 1.0]},
    ]}
    assert run.inner_outer_ratio([report]) == 1.0 / 4.0


def test_per_layer_metrics_match_the_benchmark_file():
    import json

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(run.PER_LAYER) | {"scalar.rows_per_output", "trace.overhead_frac"}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_default_seed_matches_the_stored_reference(name, tmp_path):
    import json

    from quantrange.cli import main

    workload = wl.WORKLOADS[name]
    inst = workload.make(wl.instance_rng(name, wl.DEFAULT_SEED, 0))
    problem, out = tmp_path / "problem.json", tmp_path / "report.json"
    problem.write_text(inst.text())
    assert main(["solve", str(problem), "--json", str(out), *workload.solve_args]) == 0
    report = json.loads(out.read_text())
    assert workload.check_report(inst, report) == []
    reference = json.loads(run.REFERENCE.read_text())
    assert run.check_reference(reference[name], report) == []
