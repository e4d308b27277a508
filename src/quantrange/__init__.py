"""quantrange: guaranteed inner/outer interval bounds for quantified ranges.

Computes interval boxes bracketing the set of output values a vector
function attains under an arbitrarily alternating forall/exists prefix over
boxed inputs: the inner box is a guaranteed subset of that quantified set,
the outer box a guaranteed superset, both sound under floating point.
Affine problems are solved exactly; general problems are linearized around
a center with sound contribution bounds.  A sampling estimator, benchmark
generators, and a JSON problem-file CLI round out the package.
"""

from __future__ import annotations

from .benchgen import linear_problem, motion_problem
from .exprs import (
    Expr,
    GradEnclosure,
    MissingVariable,
    ParseError,
    eval_grad,
    eval_interval,
    msin_enclosures,
    parse,
    to_text,
)
from .intervals import (
    EMPTY,
    DivisionByZeroInterval,
    EmptyInterval,
    Interval,
    MaybeInterval,
    is_empty,
)
from .problem import (
    Block,
    Output,
    QuantifiedProblem,
    Quantifier,
    VariableSpec,
    normalize_blocks,
)
from .problemfile import (
    DomainError,
    LoadedProblem,
    SchemaError,
    SolveOptions,
    load_problem,
    parse_problem,
    problem_to_json,
)
from .sampling import (
    EmptyEstimate,
    SamplingConfig,
    ratio_pair,
    sampling_estimate,
    vertex_oracle_affine,
)
from .scalar import (
    ContributionRow,
    ScalarResult,
    affine_coefficients,
    contribution_rows,
    exact_affine_range,
    solve_scalar,
)
from .vectorsolve import (
    ComponentResult,
    VectorResult,
    derived_blocks,
    existential_order,
    inner_for_assignment,
    solve_vector,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "EmptyInterval",
    "EMPTY",
    "MaybeInterval",
    "DivisionByZeroInterval",
    "is_empty",
    "Expr",
    "parse",
    "to_text",
    "ParseError",
    "MissingVariable",
    "eval_interval",
    "eval_grad",
    "GradEnclosure",
    "msin_enclosures",
    "Quantifier",
    "Block",
    "VariableSpec",
    "Output",
    "QuantifiedProblem",
    "normalize_blocks",
    "ContributionRow",
    "ScalarResult",
    "contribution_rows",
    "affine_coefficients",
    "exact_affine_range",
    "solve_scalar",
    "ComponentResult",
    "VectorResult",
    "existential_order",
    "derived_blocks",
    "inner_for_assignment",
    "solve_vector",
    "SamplingConfig",
    "EmptyEstimate",
    "sampling_estimate",
    "vertex_oracle_affine",
    "ratio_pair",
    "linear_problem",
    "motion_problem",
    "SchemaError",
    "DomainError",
    "SolveOptions",
    "LoadedProblem",
    "load_problem",
    "parse_problem",
    "problem_to_json",
    "__version__",
]
