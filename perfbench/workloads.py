"""Seeded problem-file generators, oracles and report checks for the benchmark.

Every workload is a stream of distinct problem files: instance ``i`` of run
seed ``s`` is drawn from ``random.Random("<workload>:<s>:<i>")`` (string
seeds hash through SHA-512, so the stream does not depend on
PYTHONHASHSEED).  The generators are written here rather than taken from
``quantrange.benchgen``, so a change to the program's own generator cannot
change a workload.  Nothing in this module imports the program.

A check returns a list of error strings; an empty list means the report of
that instance is correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

DEFAULT_SEED = 0
REL_TOL = 1e-9  # tolerance the program's own tests pin on mean-value bounds


@dataclass(slots=True)
class Instance:
    """One generated problem file plus what the checks need to know about it."""

    doc: dict
    properties: dict[str, int]
    oracle: Any = None  # workload-specific data for the check

    def text(self) -> str:
        return json.dumps(self.doc, indent=1) + "\n"


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random], Instance]
    check: Callable[[Instance, dict], list[str]]
    method: str  # route every output must report
    solve_args: tuple[str, ...] = ()

    def check_report(self, inst: Instance, report: dict) -> list[str]:
        return _common_checks(self.method, report) + self.check(inst, report)


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Helpers shared by the generators and checks
# ---------------------------------------------------------------------------


def _var(name: str, lo: float, hi: float, block: int) -> dict:
    return {"name": name, "domain": [lo, hi], "center": (lo + hi) / 2, "block": block}


def _dyadic(rng: random.Random, lo: int, hi: int, denom: int) -> float:
    """A float i/denom with i uniform in [lo, hi]; exact in binary."""
    return rng.randint(lo, hi) / denom


def _sum_text(terms: list[tuple[str, str]]) -> str:
    """Join (sign, term) pairs; the first term's sign becomes a unary minus."""
    sign, first = terms[0]
    parts = [f"-{first}" if sign == "-" else first]
    for sign, term in terms[1:]:
        parts.append(f" {sign} {term}")
    return "".join(parts)


def floor_float(x: Fraction) -> float:
    """Largest float <= x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def ceil_float(x: Fraction) -> float:
    """Smallest float >= x."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _common_checks(method: str, report: dict) -> list[str]:
    errors = []
    for out in report["outputs"]:
        name = out["name"]
        if out["method"] != method:
            errors.append(f"{name}: method {out['method']!r}, expected {method!r}")
        if out["outer"] is None:
            errors.append(f"{name}: empty outer bound")
            continue
        if out["inner"] is not None:
            (ilo, ihi), (olo, ohi) = out["inner"], out["outer"]
            if not (olo <= ilo <= ihi <= ohi):
                errors.append(f"{name}: inner {out['inner']} not inside outer {out['outer']}")
    return errors


# ---------------------------------------------------------------------------
# linear-affine: Linear-400 files on the exact affine route
# ---------------------------------------------------------------------------

LINEAR_PAIRS = 400


def linear_instance(rng: random.Random, pairs: int = LINEAR_PAIRS) -> Instance:
    """2*pairs variables on [-1, 1] in strictly alternating singleton blocks
    (forall first) and one affine output with coefficients i/1024.

    Within each pair the existential coefficient is raised to at least the
    universal one in magnitude, so the quantified range is never empty, and
    every value involved is dyadic, so the exact range is a float.
    """
    constant = rng.randint(-1024, 1024)
    coeffs: list[int] = []
    for _ in range(pairs):
        ua, ea = rng.randint(-1024, 1024), rng.randint(-1024, 1024)
        if abs(ea) < abs(ua):
            ea = abs(ua) if ea >= 0 else -abs(ua)
        coeffs += [ua, ea]
    variables = []
    blocks = []
    terms = [("-" if constant < 0 else "+", repr(abs(constant) / 1024))]
    nodes = 2 if constant < 0 else 1
    for j, c in enumerate(coeffs):
        name = f"x{j + 1}"
        variables.append(_var(name, -1.0, 1.0, j))
        blocks.append({"quantifier": "forall" if j % 2 == 0 else "exists"})
        if c != 0:
            terms.append(("-" if c < 0 else "+", f"{abs(c) / 1024!r}*{name}"))
            nodes += 4  # Add/Sub, Mul, Const, Var
    doc = {
        "schema": 1,
        "variables": variables,
        "blocks": blocks,
        "outputs": [{"name": "f", "expr": _sum_text(terms)}],
    }
    properties = {
        "variables": 2 * pairs,
        "alternation_pairs": pairs,
        "nodes": nodes,
        "assignments": 1,
        "leaf_evals": 0,
    }
    oracle = (Fraction(constant, 1024), [Fraction(c, 1024) for c in coeffs])
    return Instance(doc, properties, oracle)


def exact_linear_range(
    constant: Fraction, coeffs: list[Fraction]
) -> tuple[Fraction, Fraction] | None:
    """Exact quantified range of constant + sum c_j x_j, x_j in [-1, 1],
    under the prefix forall x1, exists x2, forall x3, ...; None when empty.

    Pair l holds when |c_forall(l)| <= sum of |c_exists(k)| for k >= l minus
    sum of |c_forall(k)| for k > l; the range is then the constant plus or
    minus (sum |c_exists| - sum |c_forall|).
    """
    forall = [abs(c) for c in coeffs[0::2]]
    exists = [abs(c) for c in coeffs[1::2]]
    suffix = Fraction(0)  # sum of exists[l:] minus forall[l+1:]
    for l in reversed(range(len(forall))):
        suffix += exists[l]
        if forall[l] > suffix:
            return None
        suffix -= forall[l]
    offset = sum(exists, Fraction(0)) - sum(forall, Fraction(0))
    return constant - offset, constant + offset


def check_linear(inst: Instance, report: dict) -> list[str]:
    exact = exact_linear_range(*inst.oracle)
    if exact is None:
        return ["oracle range is empty; generator broke its guarantee"]
    lo, hi = exact
    out = report["outputs"][0]
    errors = []
    want_outer = [floor_float(lo), ceil_float(hi)]
    want_inner = [ceil_float(lo), floor_float(hi)]
    for key, want in (("outer", want_outer), ("inner", want_inner)):
        got = out[key]
        if got is None or not all(same_bits(g, w) for g, w in zip(got, want)):
            errors.append(f"{key} {got} differs from the exact range {want}")
    return errors


# ---------------------------------------------------------------------------
# motion-file: Motion-80 files on the mean-value route
# ---------------------------------------------------------------------------

MOTION_STEPS = 80


def motion_instance(rng: random.Random, steps: int = MOTION_STEPS) -> Instance:
    """Unicycle x-position after `steps` steps with seeded step lengths.

    Step i has length s_i in {63/128, 1/2, 65/128}; its control a_i (exists)
    turns the heading by s_i*a_i and its disturbance b_i (forall) shifts the
    position by s_i*b_i.  The output is

        x0 + sum_i s_i*msin(theta0 + s_1*a_1 + ... + s_{i-1}*a_{i-1}, s_i*a_i)
           + sum_i s_i*b_i + delta

    written out in full, so the text shares no subexpressions and its tree
    grows quadratically in `steps`.  The final slack delta is wider than all
    disturbances together, so every alternation condition holds, and it can
    cancel any disturbance: the value at the centers, sum_i s_i, belongs to
    the quantified range.
    """
    lengths = [_dyadic(rng, 63, 65, 128) for _ in range(steps)]
    slack = (steps + 1) / 160
    variables = [_var("x0", -0.1, 0.1, 0), _var("theta0", -0.01, 0.01, 0)]
    blocks = [{"quantifier": "exists"}]
    for i in range(1, steps + 1):
        variables.append(_var(f"a{i}", -0.01, 0.01, 2 * i - 1))
        variables.append(_var(f"b{i}", -0.01, 0.01, 2 * i))
        blocks += [{"quantifier": "exists"}, {"quantifier": "forall"}]
    variables.append(_var("delta", -slack, slack, 2 * steps + 1))
    blocks.append({"quantifier": "exists"})

    terms = [("+", "x0")]
    nodes = 1
    heading = ["theta0"]
    for i, s in enumerate(lengths, start=1):
        # Mul, Const, Msin, heading chain, Mul(Const, Var), plus the Add
        heading_nodes = 1 + 4 * (len(heading) - 1)
        terms.append(("+", f"{s!r}*msin({' + '.join(heading)}, {s!r}*a{i})"))
        nodes += 3 + heading_nodes + 3 + 1
        heading.append(f"{s!r}*a{i}")
    for i, s in enumerate(lengths, start=1):
        terms.append(("+", f"{s!r}*b{i}"))
        nodes += 4
    terms.append(("+", "delta"))
    nodes += 2
    doc = {
        "schema": 1,
        "variables": variables,
        "blocks": blocks,
        "outputs": [{"name": "x", "expr": _sum_text(terms)}],
    }
    properties = {
        "variables": 3 + 2 * steps,
        "alternation_pairs": steps + 1,
        "nodes": nodes,
        "assignments": 1,
        "leaf_evals": 0,
    }
    return Instance(doc, properties, sum(map(Fraction, lengths)))


def check_motion(inst: Instance, report: dict) -> list[str]:
    out = report["outputs"][0]
    errors = []
    if out["inner"] is None:
        errors.append("inner bound is empty; the slack guarantees a non-empty one")
    if out["outer"] is not None and not out["outer"][0] <= inst.oracle <= out["outer"][1]:
        errors.append(f"outer {out['outer']} misses the center value {float(inst.oracle)!r}")
    return errors


# ---------------------------------------------------------------------------
# joint-search: dubbins_joint-shaped files with seeded row scales
# ---------------------------------------------------------------------------

# (name, domain, block) and the supplied rows {output: {var: (I, O)}} of the
# three-output Dubins flow problem with one universal disturbance.
_JOINT_VARS = [
    ("a", (-0.01, 0.01), 0),
    ("x0", (-0.1, 0.1), 0),
    ("y0", (-0.1, 0.1), 0),
    ("theta0", (-0.01, 0.01), 0),
    ("b1", (-0.01, 0.01), 1),
    ("t", (0.0, 0.5), 2),
    ("d2", (-1.309e-4, 1.309e-4), 2),
    ("d3", (-0.005, 0.005), 2),
]
_JOINT_QUANTIFIERS = ["exists", "forall", "exists"]
_JOINT_OUTPUTS = {"x": "x0 + t", "y": "y0 + d2", "theta": "theta0 + d3"}
_Z = (0.0, 0.0)
_JOINT_ROWS = {
    "x": {
        "a": (_Z, (-6.545e-7, 6.545e-7)),
        "x0": ((-0.1, 0.1), (-0.1, 0.1)),
        "y0": (_Z, _Z),
        "theta0": (_Z, _Z),
        "b1": (_Z, (-0.005, 0.005)),
        "t": ((0.0, 0.494999982), (0.0, 0.505)),
        "d2": (_Z, _Z),
        "d3": (_Z, _Z),
    },
    "y": {
        "a": (_Z, (-0.0025, 0.0025)),
        "x0": (_Z, _Z),
        "y0": ((-0.1, 0.1), (-0.1, 0.1)),
        "theta0": (_Z, (-0.005, 0.005)),
        "b1": (_Z, _Z),
        "t": (_Z, (-1.309e-4, 1.309e-4)),
        "d2": ((-1.309e-4, 1.309e-4), (-1.309e-4, 1.309e-4)),
        "d3": (_Z, _Z),
    },
    "theta": {
        "a": (_Z, (-0.005, 0.005)),
        "x0": (_Z, _Z),
        "y0": (_Z, _Z),
        "theta0": ((-0.01, 0.01), (-0.01, 0.01)),
        "b1": (_Z, _Z),
        "t": (_Z, (-0.005, 0.005)),
        "d2": (_Z, _Z),
        "d3": ((-0.005, 0.005), (-0.005, 0.005)),
    },
}
JOINT_EXISTENTIALS = ["a", "x0", "y0", "theta0", "t", "d2", "d3"]


def joint_instance(rng: random.Random) -> Instance:
    """The joint Dubins flow file with the supplied rows of each output
    scaled by its own factor i/64, i in [48, 80].

    One factor per output keeps every comparison between the rows of one
    output, and with it the alternation conditions that decide which
    assignments give non-empty inner bounds; several rows of the original
    file sit exactly on those boundaries.  A positive factor keeps every
    row around 0 and each inner row inside its outer row.
    """
    rows: dict = {}
    for out, by_var in _JOINT_ROWS.items():
        f = _dyadic(rng, 48, 80, 64)
        rows[out] = {
            var: {"I": [inner[0] * f, inner[1] * f], "O": [outer[0] * f, outer[1] * f]}
            for var, (inner, outer) in by_var.items()
        }
    doc = {
        "schema": 1,
        "variables": [_var(n, lo, hi, b) for n, (lo, hi), b in _JOINT_VARS],
        "blocks": [{"quantifier": q} for q in _JOINT_QUANTIFIERS],
        "outputs": [{"name": n, "expr": e} for n, e in _JOINT_OUTPUTS.items()],
        "contributions": rows,
    }
    m, e = len(_JOINT_OUTPUTS), len(JOINT_EXISTENTIALS)
    properties = {
        "variables": len(_JOINT_VARS),
        "alternation_pairs": 2,
        "nodes": 3 * len(_JOINT_OUTPUTS),
        "assignments": m**e,
        "leaf_evals": 0,
    }
    return Instance(doc, properties)


def check_joint(inst: Instance, report: dict) -> list[str]:
    errors = []
    pi = report["joint"]["pi"]
    if sorted(pi) != sorted(JOINT_EXISTENTIALS):
        errors.append(f"pi covers {sorted(pi)}, expected {sorted(JOINT_EXISTENTIALS)}")
    bad = {v: o for v, o in pi.items() if o not in _JOINT_OUTPUTS}
    if bad:
        errors.append(f"pi names unknown outputs: {bad}")
    return errors


# ---------------------------------------------------------------------------
# sampling-grid: 3-variable polynomials sampled on a 41-point grid
# ---------------------------------------------------------------------------

SAMPLING_POINTS = 41


def sampling_instance(rng: random.Random) -> Instance:
    """g = c1*x1^2 + (x2 + c2)*(x3 + c3) + (x3 + c4)^2 on [-1, 1]^3 under
    exists x1, forall x2, exists x3, with dyadic coefficients around the
    values of the bundled nonlinear_scalar.json (1/4, 1, 2, 3).  c1 spreads
    widely because the tightness of the bounds barely depends on it; c2, c3
    and c4 move them a lot, so they stay within 1/256 of their centers.
    """
    c = (
        _dyadic(rng, 128, 384, 1024),
        _dyadic(rng, 255, 257, 256),
        _dyadic(rng, 511, 513, 256),
        _dyadic(rng, 767, 769, 256),
    )
    expr = f"{c[0]!r}*x1^2 + (x2 + {c[1]!r})*(x3 + {c[2]!r}) + (x3 + {c[3]!r})^2"
    doc = {
        "schema": 1,
        "variables": [_var(f"x{i}", -1.0, 1.0, i - 1) for i in (1, 2, 3)],
        "blocks": [{"quantifier": q} for q in ("exists", "forall", "exists")],
        "outputs": [{"name": "g", "expr": expr}],
    }
    properties = {
        "variables": 3,
        "alternation_pairs": 2,
        "nodes": 17,
        "assignments": 1,
        "leaf_evals": SAMPLING_POINTS**3,
    }
    return Instance(doc, properties, c)


def grid(lo: float, hi: float, points: int) -> list[float]:
    """Endpoint-inclusive uniform grid."""
    step = (hi - lo) / (points - 1)
    return [lo] + [lo + i * step for i in range(1, points - 1)] + [hi]


def sampling_oracle(c: tuple[float, float, float, float], points: int) -> tuple[float, float] | None:
    """Grid estimate of the quantified range of the sampling polynomial:
    hull over x1, intersection over x2, hull over x3."""
    g = grid(-1.0, 1.0, points)
    lo, hi = math.inf, -math.inf
    for x1 in g:
        a = c[0] * x1**2
        ilo, ihi = -math.inf, math.inf
        for x2 in g:
            vals = [a + (x2 + c[1]) * (x3 + c[2]) + (x3 + c[3]) ** 2 for x3 in g]
            ilo, ihi = max(ilo, min(vals)), min(ihi, max(vals))
        if ilo <= ihi:
            lo, hi = min(lo, ilo), max(hi, ihi)
    return None if lo > hi else (lo, hi)


def check_sampling(inst: Instance, report: dict) -> list[str]:
    want = sampling_oracle(inst.oracle, SAMPLING_POINTS)
    got = report["outputs"][0].get("sampling")
    if want is None or got is None:
        ok = want is None and got is None
    else:
        ok = close(got[0], want[0]) and close(got[1], want[1])
    return [] if ok else [f"sampling estimate {got}, expected {want}"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "linear-affine",
            "Linear-400 files on the exact affine route, where the rational "
            "alternation check is quadratic; no search, no sampling",
            linear_instance,
            check_linear,
            "exact-affine",
        ),
        Workload(
            "motion-file",
            "Motion-80 files on the mean-value route; the text form shares no "
            "subexpressions, so gradient and interval work run on a large tree",
            motion_instance,
            check_motion,
            "mean-value",
        ),
        Workload(
            "joint-search",
            "3-output supplied-row files: the exhaustive search scores 3^7 "
            "assignments by exact assembly and computes no gradient",
            joint_instance,
            check_joint,
            "mean-value",
        ),
        Workload(
            "sampling-grid",
            "3-variable polynomials with --sample points=41: one tiny "
            "expression evaluated 68,921 times per solve",
            sampling_instance,
            check_sampling,
            "mean-value",
            ("--sample", f"points={SAMPLING_POINTS}"),
        ),
    )
}
