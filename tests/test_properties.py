"""Solver-wide invariants on randomized inputs.

This module is deliberately self-contained so it can also be executed on its
own (the acceptance suite re-runs it in a subprocess): every guarantee here
is a property of the algorithms, not a pinned oracle value.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrange.intervals import is_empty
from quantrange.problem import Block, Quantifier, normalize_blocks
from quantrange.problemfile import load_problem
from quantrange.scalar import affine_coefficients, exact_affine_range, solve_scalar
from quantrange.vectorsolve import solve_vector

from conftest import FIXTURES
from helpers import (
    affine_fractions,
    frac_to_float_down,
    frac_to_float_up,
    make_affine_problem,
    make_random_problem,
    vertex_oracle_affine,
)


class TestInnerOuterSandwich:
    """A nonempty inner bound is always contained in the outer bound."""

    def test_scalar_random_problems(self):
        nonempty = 0
        for seed in range(350):
            problem = make_random_problem(random.Random(seed))
            res = solve_scalar(problem, problem.outputs[0].expr)
            if is_empty(res.inner):
                continue
            nonempty += 1
            assert not is_empty(res.outer), seed
            assert res.outer.lo <= res.inner.lo, seed
            assert res.inner.hi <= res.outer.hi, seed
        # guard against the property silently becoming vacuous
        assert nonempty >= 80

    def test_vector_random_problems(self):
        nonempty = 0
        for seed in range(150):
            problem = make_random_problem(random.Random(10_000 + seed), n_outputs=2)
            res = solve_vector(problem)
            assert res.inner_empty == any(
                is_empty(c.inner) for c in res.components
            ), seed
            for comp in res.components:
                if is_empty(comp.inner):
                    continue
                nonempty += 1
                assert not is_empty(comp.outer), (seed, comp.name)
                assert comp.outer.lo <= comp.inner.lo, (seed, comp.name)
                assert comp.inner.hi <= comp.outer.hi, (seed, comp.name)
        assert nonempty >= 50


class TestAffineExactness:
    """On affine problems the three independent evaluation paths agree.

    The solver's closed-form range, the endpoint-grid oracle, and the float
    bounds reported by solve_scalar must coincide exactly (the float bounds
    are the directed roundings of the rational endpoints).
    """

    def test_three_way_agreement(self):
        nonempty = 0
        for seed in range(200):
            _, _, problem = make_affine_problem(random.Random(seed))
            expr = problem.outputs[0].expr
            res = solve_scalar(problem, expr)
            assert res.method == "exact-affine", seed
            delta0, coeffs = affine_fractions(affine_coefficients(expr))
            exact = exact_affine_range(delta0, coeffs, problem)
            vertex = vertex_oracle_affine(delta0, coeffs, problem)
            if exact is None:
                assert is_empty(res.inner) and is_empty(res.outer), seed
                assert is_empty(vertex), seed
                continue
            nonempty += 1
            lo, hi = exact
            assert Fraction(vertex.lo) == lo and Fraction(vertex.hi) == hi, seed
            assert res.inner == res.outer, seed
            assert res.outer.lo == frac_to_float_down(lo), seed
            assert res.outer.hi == frac_to_float_up(hi), seed
        assert nonempty >= 60


class TestStrategyDominance:
    """The exhaustive search never scores below the greedy heuristic."""

    @staticmethod
    def score(result):
        inners = [c.inner for c in result.components]
        count = sum(0 if is_empty(iv) else 1 for iv in inners)
        width = sum(iv.hi - iv.lo for iv in inners if not is_empty(iv))
        return count, width

    def test_exhaustive_at_least_greedy(self):
        strict = 0
        for seed in range(80):
            problem = make_random_problem(random.Random(20_000 + seed), n_outputs=2)
            greedy = solve_vector(problem, strategy="greedy")
            exhaustive = solve_vector(
                problem, strategy="exhaustive", exhaustive_limit=100_000
            )
            g_count, g_width = self.score(greedy)
            e_count, e_width = self.score(exhaustive)
            # tiny slack: reported widths are inward-rounded floats
            assert (e_count, e_width + 1e-12) >= (g_count, g_width), seed
            if (e_count, e_width) > (g_count, g_width):
                strict += 1
        # the heuristic must actually be beatable, or this test proves nothing
        assert strict >= 5


# Closed-form witness algebra for the bundled 2x2 linear system
#   z1 = 2 + 2*x1 + x2 + 3*x3 + x4
#   z2 = -1 - x1 - x2 + x3 + 5*x4
# Solving the inner 2x2 block for (x3, x4) given targets (z1*, z2*):
#   r1 = z1* - 2 - 2*x1 - x2,  r2 = z2* + 1 + x1 + x2
#   x3 = (5*r1 - r2)/14,       x4 = (3*r2 - r1)/14        (det = 14)

ONE = Fraction(1)


def _witness_x3_x4(z1s, z2s, x1, x2):
    r1 = z1s - 2 - 2 * x1 - x2
    r2 = z2s + 1 + x1 + x2
    return (5 * r1 - r2) / 14, (3 * r2 - r1) / 14


def _feasible_x1(z1s, z2s):
    """Exact interval of x1 values realizing (z1*, z2*) for every x2.

    x3 and x4 are affine in x2, so |x3|,|x4| <= 1 on the whole x2 domain
    iff it holds at both x2 endpoints; each endpoint constraint is affine
    in x1 and contributes one x1 interval.
    """
    lo, hi = -ONE, ONE
    for x2 in (-ONE, ONE):
        beta3, beta4 = _witness_x3_x4(z1s, z2s, Fraction(0), x2)
        for alpha, beta in ((Fraction(-11, 14), beta3), (Fraction(5, 14), beta4)):
            c_lo = (-1 - beta) / alpha
            c_hi = (1 - beta) / alpha
            if c_lo > c_hi:
                c_lo, c_hi = c_hi, c_lo
            lo, hi = max(lo, c_lo), min(hi, c_hi)
    return (lo, hi) if lo <= hi else None


def _grid(lo, hi, n=5):
    return [lo + (hi - lo) * Fraction(i, n - 1) for i in range(n)]


@pytest.fixture(scope="module")
def system():
    loaded = load_problem(str(FIXTURES / "linear_system.json"))
    result = solve_vector(loaded.problem, strategy="exhaustive")
    return loaded.problem, result


class TestWitnessRealizability:
    """Every point of the reported inner box is genuinely realizable."""

    def test_fixture_matches_assumed_coefficients(self, system):
        problem, _ = system
        z1, z2 = (out.expr for out in problem.outputs)
        assert affine_fractions(affine_coefficients(z1)) == (
            Fraction(2),
            {"x1": Fraction(2), "x2": Fraction(1), "x3": Fraction(3), "x4": Fraction(1)},
        )
        assert affine_fractions(affine_coefficients(z2)) == (
            Fraction(-1),
            {"x1": Fraction(-1), "x2": Fraction(-1), "x3": Fraction(1), "x4": Fraction(5)},
        )

    def test_inner_box_values(self, system):
        _, result = system
        assert [(c.inner.lo, c.inner.hi) for c in result.components] == [
            (-1.0, 5.0),
            (-3.0, 1.0),
        ]

    def test_every_inner_grid_point_is_realizable(self, system):
        _, result = system
        (c1, c2) = result.components
        for z1s in _grid(Fraction(c1.inner.lo), Fraction(c1.inner.hi)):
            for z2s in _grid(Fraction(c2.inner.lo), Fraction(c2.inner.hi)):
                window = _feasible_x1(z1s, z2s)
                assert window is not None, (z1s, z2s)
                x1 = (window[0] + window[1]) / 2
                # spot-check several x2, including interior points
                for x2 in (-ONE, Fraction(-1, 3), Fraction(1, 3), ONE):
                    x3, x4 = _witness_x3_x4(z1s, z2s, x1, x2)
                    assert abs(x3) <= 1 and abs(x4) <= 1, (z1s, z2s, x2)
                    assert 2 + 2 * x1 + x2 + 3 * x3 + x4 == z1s
                    assert -1 - x1 - x2 + x3 + 5 * x4 == z2s

    def test_point_outside_outer_is_unrealizable(self, system):
        _, result = system
        z1s, z2s = Fraction(8), Fraction(0)
        assert z1s > Fraction(result.components[0].outer.hi)
        assert _feasible_x1(z1s, z2s) is None


@st.composite
def prefixes(draw):
    n_blocks = draw(st.integers(min_value=0, max_value=6))
    blocks = []
    counter = 0
    for _ in range(n_blocks):
        quantifier = draw(st.sampled_from((Quantifier.FORALL, Quantifier.EXISTS)))
        size = draw(st.integers(min_value=0, max_value=3))
        names = tuple(f"v{counter + j}" for j in range(size))
        counter += size
        blocks.append(Block(quantifier, names))
    return tuple(blocks)


class TestNormalizationProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(prefixes())
    def test_normal_form_invariants(self, blocks):
        normalized = normalize_blocks(blocks)
        # idempotent
        assert normalize_blocks(normalized) == normalized
        # even length, strictly alternating, universal first
        assert len(normalized) % 2 == 0
        for i, block in enumerate(normalized):
            expected = Quantifier.FORALL if i % 2 == 0 else Quantifier.EXISTS
            assert block.quantifier is expected
        # only the edges may be padding blocks
        assert all(len(b) > 0 for b in normalized[1:-1])
        # the flat variable order is untouched
        flat = [name for b in blocks for name in b.names]
        assert [name for b in normalized for name in b.names] == flat
