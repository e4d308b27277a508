"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one ``ACCEPTANCE CRITERION n: PASS/FAIL`` line on
the real stdout (bypassing capture) so a plain ``pytest -v`` log shows the
per-criterion verdicts, then asserts the criterion itself.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from quantrange.benchgen import linear_problem, motion_problem
from quantrange.cli import main
from quantrange.intervals import is_empty
from quantrange.problemfile import load_problem
from quantrange.sampling import sampling_estimate
from quantrange.scalar import affine_coefficients, exact_affine_range, solve_scalar
from quantrange.vectorsolve import solve_vector

from conftest import FIXTURES
from helpers import centers, make_affine_problem, vertex_oracle_affine

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(capfd, number, description):
    passed = False
    try:
        yield
        passed = True
    finally:
        with capfd.disabled():
            verdict = "PASS" if passed else "FAIL"
            print(f"ACCEPTANCE CRITERION {number}: {verdict} - {description}", flush=True)


def close(value, target, tol):
    return abs(value - target) <= tol


def iv_close(iv, lo, hi, tol):
    return not is_empty(iv) and close(iv.lo, lo, tol) and close(iv.hi, hi, tol)


def test_criterion_1_alternating_linear_system(capfd):
    with criterion(
        capfd,
        1,
        "2x2 alternating linear system: exact boxes, winning assignment, "
        "empty alternatives, solve < 0.1 s",
    ):
        problem = load_problem(str(FIXTURES / "linear_system.json")).problem
        t0 = time.perf_counter()
        result = solve_vector(problem, strategy="exhaustive")
        elapsed = time.perf_counter() - t0

        z1, z2 = result.components
        assert (z1.inner.lo, z1.inner.hi) == (-1.0, 5.0)
        assert (z1.outer.lo, z1.outer.hi) == (-3.0, 7.0)
        assert (z2.inner.lo, z2.inner.hi) == (-3.0, 1.0)
        assert (z2.outer.lo, z2.outer.hi) == (-7.0, 5.0)
        assert result.assignment == {"x1": 0, "x3": 0, "x4": 1}

        for alternative in ({"x1": 0, "x3": 1, "x4": 0}, {"x1": 1, "x3": 1, "x4": 0}):
            pinned = solve_vector(problem, pinned=alternative)
            assert all(is_empty(c.inner) for c in pinned.components), alternative

        assert elapsed < 0.1, f"solve took {elapsed:.3f}s"


def test_criterion_2_nonlinear_scalar_bounds(capfd):
    with criterion(
        capfd,
        2,
        "nonlinear scalar problem: inner/outer bounds to 1e-9, "
        "grid estimates to 1e-6",
    ):
        problem = load_problem(str(FIXTURES / "nonlinear_scalar.json")).problem
        res = solve_scalar(problem, problem.outputs[0].expr)
        assert iv_close(res.inner, 10.0, 12.0, 1e-9)
        assert iv_close(res.outer, 1.5, 20.5, 1e-9)

        est2 = sampling_estimate(problem, 2)[0]
        assert iv_close(est2, 6.25, 16.25, 1e-6)
        est41 = sampling_estimate(problem, 41)[0]
        assert iv_close(est41, 6.0, 16.25, 1e-6)


def test_criterion_3_polynomial_motion_bounds(capfd):
    with criterion(
        capfd,
        3,
        "polynomial motion step: inner within 1e-6 of [-0.095, 0.590], "
        "outer within 1e-6 of [-0.1, 0.605]",
    ):
        loaded = load_problem(str(FIXTURES / "dubbins_taylor.json"))
        problem = loaded.problem
        assert centers(problem)["t"] == 0.0
        res = solve_scalar(problem, problem.outputs[0].expr)
        assert iv_close(res.inner, -0.095, 0.590, 1e-6)
        assert iv_close(res.outer, -0.1, 0.605, 1e-6)


def test_criterion_4_supplied_rows_and_joint_solve(capfd):
    with criterion(
        capfd,
        4,
        "flow model with supplied contribution rows: per-output and joint "
        "bounds at stated tolerances",
    ):
        loaded = load_problem(str(FIXTURES / "dubbins_flow.json"))
        problem = loaded.problem
        by_name = {}
        for out in problem.outputs:
            by_name[out.name] = solve_scalar(
                problem, out.expr, supplied_rows=loaded.supplied[out.name]
            )
        x_res, theta_res = by_name["x"], by_name["theta"]
        assert iv_close(x_res.outer, -0.10000196350000001, 0.6050019635, 1e-9)
        assert iv_close(theta_res.inner, -0.01, 0.01, 1e-9)
        assert iv_close(theta_res.outer, -0.02, 0.02, 1e-9)

        joint_loaded = load_problem(str(FIXTURES / "dubbins_joint.json"))
        joint = solve_vector(
            joint_loaded.problem,
            supplied=joint_loaded.supplied,
            strategy="exhaustive",
        )
        comps = {c.name: c for c in joint.components}
        assert iv_close(comps["x"].inner, -0.0949993455, 0.5899993275, 1e-9)
        assert iv_close(comps["y"].inner, -0.0925, 0.0925, 1e-9)
        assert not is_empty(comps["y"].outer)
        assert close(comps["y"].outer.hi, 0.1077618, 1e-6)
        assert close(-comps["y"].outer.lo, 0.1077618, 1e-6)


def test_criterion_5_affine_oracle_agreement(capfd):
    with criterion(
        capfd,
        5,
        "200 random affine problems: solver range equals the endpoint "
        "oracle exactly, in < 5 s",
    ):
        t0 = time.perf_counter()
        nonempty = 0
        for seed in range(200):
            _, _, problem = make_affine_problem(random.Random(seed))
            expr = problem.outputs[0].expr
            res = solve_scalar(problem, expr)
            assert res.method == "exact-affine", seed
            delta0, coeffs = affine_coefficients(expr)
            exact = exact_affine_range(delta0, coeffs, problem)
            vertex = vertex_oracle_affine(delta0, coeffs, problem)
            if exact is None:
                assert is_empty(res.inner) and is_empty(vertex), seed
                continue
            nonempty += 1
            assert Fraction(vertex.lo) == exact[0], seed
            assert Fraction(vertex.hi) == exact[1], seed
            assert res.inner == res.outer, seed
        elapsed = time.perf_counter() - t0
        assert nonempty >= 60
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_benchmark_scale(capfd, tmp_path):
    with criterion(
        capfd,
        6,
        "scale: Linear-100 < 5 s, Linear-1000 < 120 s, Motion-10 < 30 s, "
        "exact families report ratio 1.0",
    ):
        t0 = time.perf_counter()
        r100 = solve_vector(linear_problem(100, seed=100))
        t_100 = time.perf_counter() - t0
        comp = r100.components[0]
        assert (comp.inner.lo, comp.inner.hi) == (-18.1669921875, 17.3310546875)
        assert comp.inner == comp.outer
        assert t_100 < 5.0, f"Linear-100 took {t_100:.2f}s"

        t0 = time.perf_counter()
        r1000 = solve_vector(linear_problem(1000, seed=1000))
        t_1000 = time.perf_counter() - t0
        comp = r1000.components[0]
        assert (comp.inner.lo, comp.inner.hi) == (-169.9287109375, 171.3603515625)
        assert comp.inner == comp.outer
        assert t_1000 < 120.0, f"Linear-1000 took {t_1000:.2f}s"

        t0 = time.perf_counter()
        m10 = solve_vector(motion_problem(10))
        t_m10 = time.perf_counter() - t0
        comp = m10.components[0]
        assert not is_empty(comp.inner)
        assert (comp.inner.lo, comp.inner.hi) == (
            4.8950000000000005,
            5.1049999999999995,
        )
        assert (comp.outer.lo, comp.outer.hi) == (
            4.886940660655247,
            5.113059339344753,
        )
        assert comp.outer.lo <= comp.inner.lo <= comp.inner.hi <= comp.outer.hi
        assert t_m10 < 30.0, f"Motion-10 took {t_m10:.2f}s"

        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "linear", "1,10,100", "--csv", str(csv_path)]) == 0
        import csv as csv_mod

        rows = list(csv_mod.DictReader(csv_path.open(encoding="utf-8")))
        assert [row["k"] for row in rows] == ["1", "10", "100"]
        for row in rows:
            assert row["inner_ratio"] == "1.0" and row["outer_ratio"] == "1.0"
            assert row["inner_lo"] == row["outer_lo"]
            assert row["inner_hi"] == row["outer_hi"]
        assert float(rows[2]["time_s"]) > float(rows[0]["time_s"])


def test_criterion_7_property_suite_standalone(capfd):
    with criterion(
        capfd,
        7,
        "randomized property suite passes in a fresh interpreter",
    ):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "tests/test_properties.py",
                "-q",
                "-p",
                "no:cacheprovider",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
