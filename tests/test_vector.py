"""Vector solves: per-component outer bounds on the original prefix, inner
bounds on the rewritten prefix of a chosen existential-variable assignment,
and the exhaustive/greedy assignment searches."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantrange import scalar, vectorsolve
from quantrange.exprs import parse, to_text
from quantrange.intervals import EMPTY, Interval, is_empty
from quantrange.problem import (
    Block,
    Output,
    QuantifiedProblem,
    Quantifier,
    VariableSpec,
    existential_order,
)
from quantrange.problemfile import load_problem
from quantrange.scalar import ContributionRow, contribution_rows, prepare, solve_scalar
from quantrange.vectorsolve import (
    ComponentResult,
    OutputError,
    solve_vector,
)

from conftest import FIXTURES
from helpers import (
    ZERO_ROW,
    derived_blocks,
    oracle_assemble,
    oracle_exhaustive_assignment,
    oracle_greedy_assignment,
    oracle_inner,
    oracle_output,
    with_blocks,
)

FA = Quantifier.FORALL
EX = Quantifier.EXISTS


def _b(q, *names):
    return Block(q, tuple(names))


@pytest.fixture(scope="module")
def linear_system():
    return load_problem(str(FIXTURES / "linear_system.json")).problem


@pytest.fixture(scope="module")
def flow():
    return load_problem(str(FIXTURES / "dubbins_flow.json"))


def _pinned_inners(problem, assignment):
    """Each component's inner box under a pinned assignment."""
    return tuple(c.inner for c in solve_vector(problem, pinned=assignment).components)


class TestExistentialOrder:
    def test_normalized_prefix_order(self, linear_system):
        assert existential_order(linear_system) == ("x1", "x3", "x4")


class TestDerivedBlocks:
    def test_other_components_existentials_are_demoted(self, linear_system):
        assignment = {"x1": 0, "x3": 0, "x4": 1}
        assert derived_blocks(linear_system, 0, assignment) == (
            _b(FA),
            _b(EX, "x1"),
            _b(FA, "x2", "x4"),
            _b(EX, "x3"),
        )
        assert derived_blocks(linear_system, 1, assignment) == (
            _b(FA, "x1"),
            _b(EX),
            _b(FA, "x2", "x3"),
            _b(EX, "x4"),
        )

    def test_demoted_names_follow_original_universals(self, linear_system):
        # within a pair, demoted existentials append after the universal names
        got = derived_blocks(linear_system, 0, {"x1": 1, "x3": 0, "x4": 1})
        assert got[2].names == ("x2", "x4")


class TestLinearSystemSolve:
    def test_exhaustive_assignment_and_bounds(self, linear_system):
        res = solve_vector(linear_system)
        assert res.strategy_used == "exhaustive"
        assert res.assignment == {"x1": 0, "x3": 0, "x4": 1}
        z1, z2 = res.components
        assert (z1.name, z2.name) == ("z1", "z2")
        assert z1.inner == Interval(-1.0, 5.0)
        assert z1.outer == Interval(-3.0, 7.0)
        assert z2.inner == Interval(-3.0, 1.0)
        assert z2.outer == Interval(-7.0, 5.0)
        assert z1.method == "exact-affine" and z2.method == "exact-affine"
        assert not res.inner_empty

    def test_alternative_assignments_pin_their_inners(self, linear_system):
        got = _pinned_inners(linear_system, {"x1": 0, "x3": 1, "x4": 0})
        assert is_empty(got[0]) and is_empty(got[1])
        got = _pinned_inners(linear_system, {"x1": 1, "x3": 1, "x4": 0})
        assert is_empty(got[0]) and is_empty(got[1])
        got = _pinned_inners(linear_system, {"x1": 1, "x3": 0, "x4": 1})
        assert is_empty(got[0])
        assert got[1] == Interval(-5.0, 3.0)

    def test_winner_matches_its_pinned_solve(self, linear_system):
        got = _pinned_inners(linear_system, {"x1": 0, "x3": 0, "x4": 1})
        assert got == (Interval(-1.0, 5.0), Interval(-3.0, 1.0))

    def test_greedy_strategy_is_deterministic_here(self, linear_system):
        res = solve_vector(linear_system, strategy="greedy")
        assert res.strategy_used == "greedy"
        assert res.assignment == {"x1": 0, "x3": 1, "x4": 0}
        # this heuristic choice empties both inners; outer bounds are
        # assignment-independent
        assert res.inner_empty
        assert is_empty(res.components[0].inner) and is_empty(res.components[1].inner)
        assert res.components[0].outer == Interval(-3.0, 7.0)
        assert res.components[1].outer == Interval(-7.0, 5.0)

    def test_pinned_assignment_bypasses_search(self, linear_system):
        res = solve_vector(linear_system, pinned={"x1": 1, "x3": 0, "x4": 1})
        assert res.strategy_used == "pinned"
        assert res.assignment == {"x1": 1, "x3": 0, "x4": 1}
        assert is_empty(res.components[0].inner)
        assert res.components[1].inner == Interval(-5.0, 3.0)

    def test_pinned_must_cover_all_existentials(self, linear_system):
        with pytest.raises(ValueError, match="misses existential"):
            solve_vector(linear_system, pinned={"x1": 0})

    def test_pinned_component_indices_must_exist(self, linear_system):
        with pytest.raises(ValueError, match="unknown components"):
            solve_vector(linear_system, pinned={"x1": 0, "x3": 2, "x4": 0})

    def test_exhaustive_over_limit_raises(self, linear_system):
        with pytest.raises(ValueError, match="covers 8 assignments, over the limit of 7"):
            solve_vector(linear_system, strategy="exhaustive", exhaustive_limit=7)
        solve_vector(linear_system, strategy="exhaustive", exhaustive_limit=8)

    def test_unknown_strategy_rejected(self, linear_system):
        with pytest.raises(ValueError, match="unknown assignment strategy"):
            solve_vector(linear_system, strategy="magic")

    def test_derived_prefix_recorded_per_component(self, linear_system):
        res = solve_vector(linear_system)
        assert derived_blocks(linear_system, 0, res.assignment) == (
            _b(FA),
            _b(EX, "x1"),
            _b(FA, "x2", "x4"),
            _b(EX, "x3"),
        )
        assert derived_blocks(linear_system, 1, res.assignment) == (
            _b(FA, "x1"),
            _b(EX),
            _b(FA, "x2", "x3"),
            _b(EX, "x4"),
        )


class TestFlowJointSolve:
    def test_single_shared_existential_feeds_one_component(self, flow):
        res = solve_vector(flow.problem, supplied=flow.supplied)
        byname = {c.name: c for c in res.components}
        # only one component can claim the final existential; the widest wins
        assert res.assignment["t"] == 0
        assert byname["x"].inner == Interval(-0.095, 0.5899999819999999)
        assert is_empty(byname["y"].inner)
        assert is_empty(byname["theta"].inner)
        # outer bounds still come from the original prefix per component
        assert byname["x"].outer == Interval(-0.10000196350000001, 0.6050019635)
        assert byname["y"].outer == Interval(-0.10763090000000002, 0.10763090000000002)
        assert byname["theta"].outer == Interval(-0.02, 0.02)
        assert res.inner_empty

    def test_supplied_rows_force_mean_value_method(self, flow):
        res = solve_vector(flow.problem, supplied=flow.supplied)
        assert all(c.method == "mean-value" for c in res.components)


class TestJointFixtureSolve:
    def test_pinned_exhaustive_solution(self):
        loaded = load_problem(str(FIXTURES / "dubbins_joint.json"))
        res = solve_vector(loaded.problem, supplied=loaded.supplied)
        assert res.strategy_used == "exhaustive"
        assert res.assignment == {
            "a": 2, "x0": 0, "y0": 1, "theta0": 2, "t": 0, "d2": 1, "d3": 2,
        }
        byname = {c.name: c for c in res.components}
        assert byname["x"].inner == Interval(-0.0949993455, 0.5899993275)
        assert byname["x"].outer == Interval(-0.10000065450000001, 0.6050006545000001)
        assert byname["y"].inner == Interval(-0.0925, 0.0925)
        assert byname["y"].outer == Interval(-0.10776180000000002, 0.10776180000000002)
        assert byname["theta"].inner == Interval(-0.01, 0.01)
        assert byname["theta"].outer == Interval(-0.025, 0.025)
        assert not res.inner_empty


def _many_existentials_problem(n_exist=13):
    names = [f"e{i}" for i in range(1, n_exist + 1)]
    variables = [VariableSpec(n, Interval(-1.0, 1.0), 0.0) for n in names]
    variables.append(VariableSpec("u", Interval(-0.5, 0.5), 0.0))
    blocks = (_b(FA, "u"), _b(EX, *names))
    outputs = (
        Output("f1", parse(" + ".join(names))),
        Output("f2", parse("e1 - u")),
    )
    return QuantifiedProblem(tuple(variables), blocks, outputs)


class TestStrategySelection:
    def test_auto_falls_back_to_greedy_over_the_limit(self):
        p = _many_existentials_problem()
        res = solve_vector(p)  # 2^13 assignments > default limit
        assert res.strategy_used == "greedy"
        assert res.assignment == {"e2": 0, **{f"e{i}": 1 for i in range(1, 14) if i != 2}}

    def test_explicit_exhaustive_over_limit_raises_but_can_be_raised(self):
        p = _many_existentials_problem()
        with pytest.raises(ValueError):
            solve_vector(p, strategy="exhaustive")
        res = solve_vector(p, strategy="exhaustive", exhaustive_limit=8192)
        assert res.strategy_used == "exhaustive"

    def test_greedy_compares_exact_widths(self):
        """e's inner row is 2*0.3333333333333333 wide in a and 2/3 wide in b.
        The float contribution rows tie and gave e to a; the exact widths
        give it to b."""
        p = QuantifiedProblem(
            tuple(VariableSpec(n, Interval(-1.0, 1.0), 0.0) for n in ("u", "e")),
            (_b(FA, "u"), _b(EX, "e")),
            (Output("a", parse("e*0.3333333333333333 + u")), Output("b", parse("e/3 + u"))),
        )
        a, b = (contribution_rows(o.expr, p)["e"].inner for o in p.outputs)
        assert a == b
        assert solve_vector(p, strategy="greedy").assignment == {"e": 1}

    def test_single_output_skips_the_search(self):
        p = QuantifiedProblem(
            tuple(VariableSpec(f"e{i}", Interval(-1.0, 1.0), 0.0) for i in range(1, 14)),
            (_b(EX, *[f"e{i}" for i in range(1, 14)]),),
            (Output("f", parse(" + ".join(f"e{i}" for i in range(1, 14)))),),
        )
        res = solve_vector(p, exhaustive_limit=4)
        assert res.strategy_used == "exhaustive"
        assert set(res.assignment.values()) == {0}
        assert res.components[0].inner == Interval(-13.0, 13.0)


FIXTURE_FILES = (
    "dubbins_flow.json",
    "dubbins_joint.json",
    "dubbins_taylor.json",
    "linear_system.json",
    "nonlinear_scalar.json",
)


@pytest.mark.parametrize("fixture", FIXTURE_FILES)
def test_each_output_is_prepared_at_most_once(fixture, monkeypatch):
    """The per-output work runs once per output, wherever it is reached from."""
    names = ("eval_grad", "eval_interval", "contribution_rows", "affine_coefficients")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "quantrange"]
    for module in modules:
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counted(name, fn))
    loaded = load_problem(str(FIXTURES / fixture))
    solve_vector(loaded.problem, supplied=loaded.supplied)
    n = len(loaded.problem.outputs)
    assert all(count <= n for count in calls.values()), calls


@pytest.mark.parametrize("fixture", FIXTURE_FILES)
def test_components_match_scalar_solves_bit_for_bit(fixture):
    """Outer fields match solve_scalar on the original prefix, inner fields
    match it on the component's rewritten prefix (repr tells -0.0 from 0.0)."""
    loaded = load_problem(str(FIXTURES / fixture))
    problem, supplied = loaded.problem, loaded.supplied
    res = solve_vector(problem, supplied=supplied)
    for j, (out, comp) in enumerate(zip(problem.outputs, res.components)):
        rows = None if supplied is None else supplied.get(out.name)
        ref = solve_scalar(problem, out.expr, rows)
        got = (comp.outer, comp.outer_failed_pair, comp.method)
        want = (ref.outer, ref.outer_failed_pair, ref.method)
        assert repr(got) == repr(want), out.name
        derived = derived_blocks(problem, j, res.assignment)
        ref = solve_scalar(with_blocks(problem, derived), out.expr, rows)
        assert repr((comp.inner, comp.inner_failed_pair)) == repr(
            (ref.inner, ref.inner_failed_pair)
        ), out.name


def test_overflowing_output_is_named():
    p = QuantifiedProblem(
        (VariableSpec("x", Interval(0.0, 1.0), 0.5),),
        (_b(EX, "x"),),
        (Output("ok", parse("x")), Output("big", parse("x*1e300*1e300"))),
    )
    with pytest.raises(OutputError, match=r"output 'big': interval bounds must be finite"):
        solve_vector(p)


def _model_reads(fixture, monkeypatch):
    """The solve of a fixture, the row models it built and the (model,
    kept set) pairs whose bounds it reported."""
    built, reads = [], []
    original_init, original_read = scalar.RowModel.__init__, scalar.RowModel.result

    def init(self, *args):
        built.append(self)
        original_init(self, *args)

    def read(model, kept):
        reads.append((id(model), kept))
        return original_read(model, kept)

    monkeypatch.setattr(scalar.RowModel, "__init__", init)
    monkeypatch.setattr(scalar.RowModel, "result", read)
    loaded = load_problem(str(FIXTURES / fixture))
    return solve_vector(loaded.problem, supplied=loaded.supplied), built, reads


def test_joint_fixture_assembles_once_per_kept_set(monkeypatch):
    """The search scores kept sets on the row models without reporting
    them; each component reports its outer bound (the keep-everything
    entry) and its chosen inner box from its own model, once."""
    res, built, reads = _model_reads("dubbins_joint.json", monkeypatch)
    m, e = len(res.components), len(res.assignment)
    assert (m, e) == (3, 7)
    assert [model for model, _ in reads] == [id(model) for model in built]
    names = tuple(res.assignment)
    assert [kept for _, kept in reads] == [
        sum(1 << i for i, n in enumerate(names) if res.assignment[n] == j) for j in range(m)
    ]


@pytest.mark.parametrize("fixture", FIXTURE_FILES)
def test_each_output_is_assembled_by_one_row_model(fixture, monkeypatch):
    """One row model per output, one report read from it per component,
    and no other assembly runs."""
    for module in (scalar, vectorsolve):
        for name in ("assemble", "assemble_bounds", "exact_affine_range"):
            monkeypatch.setattr(module, name, None, raising=False)
    res, built, reads = _model_reads(fixture, monkeypatch)
    assert len(built) == len(reads) == len(res.components)
    assert [model for model, _ in reads] == [id(model) for model in built]


def test_joint_fixture_scores_few_kept_sets(monkeypatch):
    """Branch-and-bound scores far fewer than the m*2^e kept sets that an
    exhaustive search reads, each at most once."""
    original = scalar.RowModel.score
    scored = []

    def counted(self, kept):
        scored.append((id(self), kept))
        return original(self, kept)

    monkeypatch.setattr(scalar.RowModel, "score", counted)
    loaded = load_problem(str(FIXTURES / "dubbins_joint.json"))
    res = solve_vector(loaded.problem, supplied=loaded.supplied)
    m, e = len(res.components), len(res.assignment)
    assert (m, e) == (3, 7)
    assert len(set(scored)) == len(scored) == 62 < m * 2**e


def test_a_failing_kept_set_assembly_is_named():
    """Only the reported halves of a kept set are assembled: demoting e
    would make a's outer condition fail and the fallback sum of its outer
    rows overflow, but a's outer bound is read on the original prefix,
    where it is fine, so the pinned assignment that demotes e solves."""
    huge = ContributionRow(Interval(0.0, 0.0), Interval(-1e308, 1e308))
    rows = {"u": huge, "e": ContributionRow(Interval(-1.0, 1.0), Interval(-1e308, 1e308))}
    supplied = {"a": rows, "b": {"u": ZERO_ROW, "e": ZERO_ROW}}
    p = QuantifiedProblem(
        (VariableSpec("u", Interval(-1.0, 1.0), 0.0), VariableSpec("e", Interval(-1.0, 1.0), 0.0)),
        (_b(FA, "u"), _b(EX, "e")),
        (Output("a", parse("u + e")), Output("b", parse("u + e"))),
    )
    res = solve_vector(p, supplied, pinned={"e": 1})
    a, b = res.components
    assert is_empty(a.inner) and a.inner_failed_pair == 1
    assert a.outer == Interval(-1e308, 1e308) and a.outer_failed_pair is None
    assert b.inner == Interval(0.0, 0.0)
    with pytest.raises(ValueError, match=r"^interval bounds must be finite"):
        solve_scalar(with_blocks(p, derived_blocks(p, 0, res.assignment)), p.outputs[0].expr, rows)
    res = solve_vector(p, supplied)
    assert res.assignment == {"e": 0}
    assert res.components[0].outer == Interval(-1e308, 1e308)
    assert is_empty(res.components[0].inner)
    assert res.components[1].inner == Interval(0.0, 0.0)


# ---------------------------------------------------------------------------
# Random supplied-row problems: the memoised search against brute force
# ---------------------------------------------------------------------------

# A small palette of rows (zero among them) so that equal rows, and with
# them tied scores, are common.
_ROWS = (
    ZERO_ROW,
    ContributionRow(Interval(-0.5, 0.5), Interval(-0.5, 0.5)),
    ContributionRow(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
    ContributionRow(Interval(0.0, 0.25), Interval(-0.25, 0.5)),
    ContributionRow(Interval(-0.75, 0.0), Interval(-1.0, 0.25)),
    ContributionRow(Interval(0.0, 0.0), Interval(-0.5, 0.5)),
)


@st.composite
def _prefixes(draw, max_exist=(8, 6)):
    """The number of outputs m (2 or 3), up to max_exist[m - 2]
    existentials and up to 2 universals, in random order."""
    m = draw(st.sampled_from((2, 3)))
    n_exist = draw(st.integers(0, max_exist[m - 2]))
    n_forall = draw(st.integers(0, 2))
    names = [f"e{i}" for i in range(n_exist)] + [f"u{i}" for i in range(n_forall)]
    order = draw(st.permutations(names))
    blocks = tuple(_b(EX if n[0] == "e" else FA, n) for n in order)
    variables = tuple(VariableSpec(n, Interval(-1.0, 1.0), 0.0) for n in names)
    return variables, blocks, m


# The palette again, with rows of the smallest subnormal and of magnitude
# 1e308, whose sums leave the float range.
_WIDE_ROWS = _ROWS + (
    ContributionRow(Interval(-5e-324, 5e-324), Interval(-5e-324, 5e-324)),
    ContributionRow(Interval(0.0, 5e-324), Interval(-1e308, 5e-324)),
    ContributionRow(Interval(-1e308, 1e308), Interval(-1e308, 1e308)),
    ContributionRow(Interval(0.0, 0.0), Interval(-1e308, 1e308)),
)


@st.composite
def _supplied_row_problems(draw, palette=_ROWS, centers=(0.0, 0.25, -0.5), max_exist=(8, 6)):
    variables, blocks, m = draw(_prefixes(max_exist))
    outputs = tuple(Output(f"z{j}", parse(repr(draw(st.sampled_from(centers))))) for j in range(m))
    supplied = {}
    for j, out in enumerate(outputs):
        if j and draw(st.booleans()):
            supplied[out.name] = supplied[outputs[j - 1].name]  # equal rows
            continue
        rows = {v.name: draw(st.sampled_from(palette)) for v in variables}
        # a missing row counts as zero: leave some zero rows out
        supplied[out.name] = {
            n: r for n, r in rows.items() if r is not ZERO_ROW or draw(st.booleans())
        }
    return QuantifiedProblem(variables, blocks, outputs), supplied


@given(_supplied_row_problems())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_memoised_search_matches_brute_force(case):
    """Same assignment (tie-break included) and bit-for-bit the components
    that per-component scalar solves give under it."""
    problem, supplied = case
    res = solve_vector(problem, supplied=supplied)
    prepared = [oracle_output(problem, o.expr, supplied[o.name]) for o in problem.outputs]
    want = oracle_exhaustive_assignment(problem, prepared, existential_order(problem))
    assert res.strategy_used == "exhaustive"
    assert res.assignment == want
    components = []
    for j, out in enumerate(problem.outputs):
        outer = solve_scalar(problem, out.expr, supplied[out.name])
        derived = derived_blocks(problem, j, want)
        inner = solve_scalar(with_blocks(problem, derived), out.expr, supplied[out.name])
        components.append(
            ComponentResult(
                out.name, inner.inner, outer.outer, outer.method,
                inner.inner_failed_pair, outer.outer_failed_pair,
            )
        )
    assert repr(res.components) == repr(tuple(components))


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_derived_blocks_depend_only_on_the_kept_set(data):
    """Two assignments that give component j the same existentials rewrite
    j's prefix identically, wherever the others went."""
    variables, blocks, m = data.draw(_prefixes())
    problem = QuantifiedProblem(variables, blocks, (Output("z", parse("0")),))
    names = existential_order(problem)
    j = data.draw(st.integers(0, m - 1))
    kept = {n for n in names if data.draw(st.booleans())}
    others = st.sampled_from([c for c in range(m) if c != j])
    first, second = (
        {n: j if n in kept else data.draw(others) for n in names} for _ in range(2)
    )
    assert derived_blocks(problem, j, first) == derived_blocks(problem, j, second)


# ---------------------------------------------------------------------------
# The integer kept-set scores against assembly
# ---------------------------------------------------------------------------

_DOMAINS = ((-1.0, 1.0), (0.1, 0.7), (-3.0, 0.25), (2.0, 2.0))


@st.composite
def _affine_problems(draw, max_exist=(6, 5)):
    """Affine outputs with rational coefficients such as x/3 on mixed
    domains, on the prefixes above."""
    variables, blocks, m = draw(_prefixes(max_exist))
    domains = [draw(st.sampled_from(_DOMAINS)) for _ in variables]
    variables = tuple(
        VariableSpec(v.name, Interval(lo, hi), (lo + hi) / 2)
        for v, (lo, hi) in zip(variables, domains)
    )
    outputs = []
    for j in range(m):
        terms = [draw(st.sampled_from(("1/3", "0.25", "-2/7")))]
        for v in variables:
            coeff = draw(st.sampled_from(("", "1", "-2", "0.1", "1e300")))
            if coeff:
                terms.append(f"({coeff})*{v.name}/{draw(st.sampled_from((1, 3, 7)))}")
        outputs.append(Output(f"z{j}", parse(" + ".join(terms))))
    return QuantifiedProblem(variables, blocks, tuple(outputs)), None


_KEPT_SET_CASES = st.one_of(
    _supplied_row_problems(
        palette=_WIDE_ROWS, centers=(0.0, -0.5, 5e-324, 1e308, -1e308), max_exist=(6, 6)
    ),
    _affine_problems(),
)


def _models(problem, supplied):
    """The row model of each output, with what the oracles read of it."""
    for out in problem.outputs:
        rows = None if supplied is None else supplied[out.name]
        yield prepare(problem, out.expr, rows), oracle_output(problem, out.expr, rows)


def _kept_sets(problem, j):
    """(kept mask, rewritten problem) for every kept set of component j."""
    names = existential_order(problem)
    for kept in range(1 << len(names)):
        assignment = {n: j if kept >> i & 1 else j + 1 for i, n in enumerate(names)}
        yield kept, with_blocks(problem, derived_blocks(problem, j, assignment))


def _outcome(fn, *args):
    """repr of fn(*args), or of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError({exc})"


@given(_KEPT_SET_CASES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_scores_match_assembly(case):
    """On every kept set the model gives (nonempty, width in units of
    2**-1074) of the inner box that oracle_inner assembles in Fractions on
    the rewritten prefix, bit for bit."""
    problem, supplied = case
    for j, (model, output) in enumerate(_models(problem, supplied)):
        for kept, rewritten in _kept_sets(problem, j):
            want, _ = oracle_inner(output, rewritten)
            if is_empty(want):
                assert model.score(kept) == (0, 0)
            else:
                width = (Fraction(want.hi) - Fraction(want.lo)) * 2**1074
                assert model.score(kept) == (1, width)


@given(_KEPT_SET_CASES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_row_model_matches_the_fraction_assembly(case):
    """The model's result with every existential kept reports the outer
    bound and both failing pairs of the Fraction assembly (or fails as it
    does), and the inner box and failing pair of every kept set match the
    Fraction assembly on the rewritten prefix."""
    problem, supplied = case
    for j, (model, output) in enumerate(_models(problem, supplied)):
        assert _outcome(model.result, model.keep_all) == _outcome(oracle_assemble, output, problem)
        for kept, rewritten in _kept_sets(problem, j):
            box, failed = model.inner(kept)
            want = oracle_inner(output, rewritten)
            assert repr((box, None if model.exact else failed)) == repr(want)


@given(_KEPT_SET_CASES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_score_is_monotone_in_the_kept_set(case):
    """Keeping one more existential never loses nonemptiness or width: the
    property that makes the branch-and-bound bound admissible."""
    problem, supplied = case
    e = len(existential_order(problem))
    for model, _ in _models(problem, supplied):
        for kept in range(1 << e):
            n, w = model.score(kept)
            for i in range(e):
                more = model.score(kept | 1 << i)
                assert more[0] >= n and more[1] >= w


@st.composite
def _mixed_problems(draw):
    """Affine outputs as above, some of them made mean-value by a square
    term, so that exact widths in units such as 1/21 meet float widths in
    units of 2**-1074."""
    problem, _ = draw(_affine_problems(max_exist=(8, 6)))
    names = [v.name for v in problem.variables]
    outputs = []
    for out in problem.outputs:
        if names and draw(st.booleans()):
            v = draw(st.sampled_from(names))
            out = Output(out.name, parse(f"{to_text(out.expr)} + {v}*{v}/3"))
        outputs.append(out)
    return QuantifiedProblem(problem.variables, problem.blocks, tuple(outputs)), None


@given(
    st.one_of(
        _supplied_row_problems(palette=_WIDE_ROWS, centers=(0.0, -0.5, 5e-324, 1e308, -1e308)),
        _mixed_problems(),
    )
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_greedy_matches_the_fraction_greedy(case):
    """The greedy assignment on the models' integers hands out the
    existentials in the order, and to the components, that the greedy on
    Fraction row widths does."""
    problem, supplied = case
    models, outputs = zip(*_models(problem, supplied))
    names = existential_order(problem)
    got = vectorsolve._greedy_assignment(models, names)
    want = oracle_greedy_assignment(problem, outputs, names)
    assert list(got.items()) == list(want.items())


@given(_affine_problems())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_search_on_affine_outputs_matches_brute_force(case):
    """The search scores affine outputs through the same model: the same
    assignment as brute force over assembled exact ranges."""
    problem, _ = case
    res = solve_vector(problem)
    prepared = [oracle_output(problem, o.expr) for o in problem.outputs]
    assert res.assignment == oracle_exhaustive_assignment(
        problem, prepared, existential_order(problem)
    )
