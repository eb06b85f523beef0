"""convexcert: certified two-sided enclosures for convex-function
integrals, convexity gaps, special means and Young-type bounds.

The package is organised as:

* :mod:`convexcert.core` — domain types (intervals, curvature bands,
  enclosures, weights) and the error taxonomy.
* :mod:`convexcert.expr` — the tiny expression language: parsing,
  evaluation, differentiation, curvature bands and the convexity guard.
* :mod:`convexcert.quadrature` — adaptive Gauss–Kronrod oracle, weight
  moments and the sampled weight checks.
* :mod:`convexcert.bounds` — the certified enclosures, their oracle
  targets, and the rule registry pairing the two; the paper's chains
  are enclosures of gap differences.
* :mod:`convexcert.means` — special means and closed-form mean/Young
  checks.
* :mod:`convexcert.verify` — the randomized falsification harness.
* :mod:`convexcert.cli` — the ``convexcert`` command-line front end.
"""

from .core import (
    AdmissibilityViolated,
    CertError,
    ConvexityViolated,
    CurvatureBounds,
    DomainError,
    Enclosure,
    Interval,
    InvalidInterval,
    Lambda,
    Monotonicity,
    MonotonicityViolated,
    NegativeWeight,
    NodeWeights,
    NonConstantExponent,
    NonpositiveInput,
    NonSmoothExpression,
    OracleInconclusive,
    ParameterOutOfRange,
    ParseError,
    Provenance,
    QuadResult,
    RangeViolated,
    Rule,
    WeightSpec,
    enclosure_contains,
    make_interval,
)
from .expr import (
    FunctionSpec,
    curvature_range,
    differentiate,
    evaluate,
    evaluation_spec,
    function_spec,
    parse,
    simplify,
    to_text,
)
from .quadrature import (
    classify_weight,
    integrate,
    moment_ab,
    moment_about,
)
from .bounds import (
    complement_weight_gap,
    fejer,
    fejer_midpoint_gap_bounds,
    fejer_trapezoid_gap_bounds,
    functional_increments,
    gap_bounds,
    h1_functional,
    h2_functional,
    hermite_hadamard,
    subinterval_gap,
    subinterval_gap_difference,
    target_fejer,
    target_gap,
    target_integral_mean,
    target_vasic_lackovic,
    vasic_lackovic,
)
from .means import (
    MeanKind,
    MeanValue,
    al_gap_check,
    arithmetic_mean,
    geometric_mean,
    harmonic_log_gap_check,
    harmonic_mean,
    identric_mean,
    identric_ratio_check,
    integral_power_mean,
    logarithmic_mean,
    mean,
    power_mean,
    young_difference_bounds,
    young_difference_target,
    young_ratio_bounds,
    young_ratio_target,
)
from .verify import (
    ConvexInstance,
    FailureRecord,
    TrialReport,
    falsify,
    random_convex_instance,
    random_monotone_weight,
    random_symmetric_weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "CertError",
    "InvalidInterval",
    "ParseError",
    "DomainError",
    "NonConstantExponent",
    "NonSmoothExpression",
    "OracleInconclusive",
    "ConvexityViolated",
    "NegativeWeight",
    "RangeViolated",
    "MonotonicityViolated",
    "AdmissibilityViolated",
    "NonpositiveInput",
    "ParameterOutOfRange",
    "Provenance",
    "Monotonicity",
    "Rule",
    "Interval",
    "Lambda",
    "NodeWeights",
    "CurvatureBounds",
    "Enclosure",
    "WeightSpec",
    "QuadResult",
    "make_interval",
    "enclosure_contains",
    # expr
    "FunctionSpec",
    "parse",
    "to_text",
    "evaluate",
    "simplify",
    "differentiate",
    "function_spec",
    "evaluation_spec",
    "curvature_range",
    # quadrature
    "integrate",
    "moment_ab",
    "moment_about",
    "classify_weight",
    # bounds
    "hermite_hadamard",
    "fejer",
    "gap_bounds",
    "fejer_trapezoid_gap_bounds",
    "fejer_midpoint_gap_bounds",
    "h1_functional",
    "h2_functional",
    "functional_increments",
    "subinterval_gap",
    "subinterval_gap_difference",
    "complement_weight_gap",
    "vasic_lackovic",
    "target_integral_mean",
    "target_fejer",
    "target_gap",
    "target_vasic_lackovic",
    # means
    "MeanKind",
    "MeanValue",
    "mean",
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "logarithmic_mean",
    "identric_mean",
    "power_mean",
    "integral_power_mean",
    "al_gap_check",
    "harmonic_log_gap_check",
    "identric_ratio_check",
    "young_ratio_bounds",
    "young_difference_bounds",
    "young_ratio_target",
    "young_difference_target",
    # verify
    "ConvexInstance",
    "TrialReport",
    "FailureRecord",
    "random_convex_instance",
    "random_symmetric_weight",
    "random_monotone_weight",
    "falsify",
]
