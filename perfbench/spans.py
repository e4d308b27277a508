"""Outside-in tracing: spans and counters around the program's public functions.

A site names a module attribute that a caller looks up at call time, such
as ``quantrange.vectorsolve.assemble_bounds``; installing the tracer
replaces that attribute with a wrapper and uninstalling restores it.  The
program itself is not edited.  A site whose attribute is missing aborts
the run (``TracingError``), so a rename cannot silently zero a layer.

Spans are kept in memory in parallel integer arrays (name code, parent
index or -1, start and end in ns), which are cheap to append to and which
the garbage collector does not scan, and are summarized at the end.  A
span's self time is its duration minus the durations of its direct
children; everything is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Sequence


class TracingError(RuntimeError):
    """A traced site does not exist in the program."""


@dataclass(frozen=True, slots=True)
class Site:
    module: str
    attr: str
    span: str | None  # span name; None records only the counter
    counter: str | None = None  # counter bumped once per call


_INTERVAL_OPS = ("add", "cos", "div", "hull", "mul", "neg", "pow", "sin", "sub")

# Every caller-side name through which a traced layer is reached.  The same
# function is wrapped at each module that imported it, under one span name.
SITES: tuple[Site, ...] = (
    Site("quantrange.cli", "load_problem", "problemfile.load_problem"),
    Site("quantrange.cli", "solve_vector", "vectorsolve.solve_vector"),
    Site("quantrange.cli", "sampling_estimate", "sampling.sampling_estimate"),
    Site("quantrange.problemfile", "parse_expr", "exprs.parse"),
    Site("quantrange.vectorsolve", "eval_interval", "exprs.eval_interval"),
    Site("quantrange.vectorsolve", "contribution_rows", "scalar.contribution_rows"),
    Site("quantrange.vectorsolve", "affine_coefficients", "scalar.affine_coefficients"),
    Site("quantrange.vectorsolve", "assemble_bounds", "scalar.assemble_bounds",
         "vectorsolve.inner_evals"),
    Site("quantrange.vectorsolve", "exact_affine_range", "scalar.exact_affine_range",
         "vectorsolve.inner_evals"),
    Site("quantrange.vectorsolve", "solve_scalar", "scalar.solve_scalar"),
    Site("quantrange.scalar", "eval_interval", "exprs.eval_interval"),
    Site("quantrange.scalar", "eval_grad", "exprs.eval_grad"),
    Site("quantrange.scalar", "contribution_rows", "scalar.contribution_rows"),
    Site("quantrange.scalar", "affine_coefficients", "scalar.affine_coefficients"),
    Site("quantrange.scalar", "exact_affine_range", "scalar.exact_affine_range"),
    Site("quantrange.scalar", "assemble_bounds", "scalar.assemble_bounds"),
    Site("quantrange.sampling", "eval_point", "exprs.eval_point", "sampling.leaf_evals"),
    # Interval primitives are only counted: a span per primitive would cost
    # more than the primitive itself.
    *(Site("quantrange.exprs", f"iv_{op}", None, "exprs.interval_ops") for op in _INTERVAL_OPS),
)


class Tracer:
    """Records spans and counters while installed at a set of sites."""

    def __init__(self, sites: Sequence[Site] = SITES) -> None:
        self.sites = tuple(sites)
        self.names: list[str] = []  # span name by code
        self.name_codes = array("l")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: dict[str, int] = {s.counter: 0 for s in self.sites if s.counter}
        self._stack = [-1]
        self._originals: list[tuple[Any, str, Any]] = []

    def spanned(self, name: str, fn: Callable, counter: str | None = None) -> Callable:
        """fn wrapped so that each call records a span called name (and
        bumps counter, if given)."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, parents, starts, ends = self.name_codes, self.parents, self.starts, self.ends
        stack, clock, counts = self._stack, time.perf_counter_ns, self.counts

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap(self, fn: Callable, site: Site) -> Callable:
        if site.span is not None:
            return self.spanned(site.span, fn, site.counter)
        counts, counter = self.counts, site.counter

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> Tracer:
        try:
            for site in self.sites:
                module = importlib.import_module(site.module)
                original = getattr(module, site.attr, None)
                if not callable(original):
                    raise TracingError(f"traced site {site.module}.{site.attr} does not exist")
                self._originals.append((module, site.attr, original))
                setattr(module, site.attr, self._wrap(original, site))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def summarize(self) -> tuple[dict[str, int], dict[str, int]]:
        """(self time in ns, call count) per span name."""
        self_ns = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, own in zip(self.parents, list(self_ns)):
            if parent >= 0:
                self_ns[parent] -= own
        totals: dict[str, int] = {}
        calls: dict[str, int] = {}
        for code, own in zip(self.name_codes, self_ns):
            name = self.names[code]
            totals[name] = totals.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
        return totals, calls

    def dump(self) -> dict:
        """Every span recorded, as plain lists."""
        return {
            "names": self.names,
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "spans": [list(t) for t in zip(self.name_codes, self.parents, self.starts, self.ends)],
        }
