"""Shared value types for certified convexity bounds.

Everything downstream (quadrature, the inequality engine, the means
module, the CLI) trades in a handful of small immutable values defined
here: intervals, curvature bands, two-sided enclosures, weight
descriptors, and the error taxonomy.  Keeping them in one place avoids
import cycles and makes the contracts easy to audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .expr import FunctionSpec


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------


class CertError(Exception):
    """Base class for every error raised by this package."""


class InvalidInterval(CertError):
    """Interval endpoints are not finite (or an op needed a < b)."""


class ParseError(CertError):
    """Expression text could not be parsed.

    Carries the byte offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(CertError):
    """Evaluation left the real domain (log of a nonpositive value,
    division by zero, fractional power of a negative base, ...)."""

    def __init__(self, message: str, node: object | None = None) -> None:
        super().__init__(message)
        self.node = node


class NonConstantExponent(CertError):
    """Symbolic differentiation only supports constant exponents."""


class NonSmoothExpression(CertError):
    """Differentiation was asked for a nonsmooth construct (abs)."""


class OracleInconclusive(CertError):
    """The quadrature oracle did not converge (depth cap or a non-finite panel)."""

    def __init__(self, message: str, best_estimate: float) -> None:
        super().__init__(message)
        self.best_estimate = best_estimate


class ConvexityViolated(CertError):
    """The lower end of f''s range on the interval, as the curvature
    analysis finds it (exact, or sampled where the band is sampled), is
    below the convexity slack -1e-9."""


class SymmetryViolated(CertError):
    """Weight is not symmetric about the required centre."""


class NegativeWeight(CertError):
    """Weight takes negative values on the working interval."""


class RangeViolated(CertError):
    """Weight leaves the required [0, 1] range."""


class MonotonicityViolated(CertError):
    """Weight does not have the monotonicity an operation requires."""


class AdmissibilityViolated(CertError):
    """Window half-width exceeds the admissible radius."""


class NonpositiveInput(CertError):
    """Means are defined for strictly positive arguments."""


class ParameterOutOfRange(CertError):
    """A numeric parameter sits outside its documented range."""


# --------------------------------------------------------------------------
# Enums
# --------------------------------------------------------------------------


class Provenance(Enum):
    """How a curvature band was obtained."""

    EXACT = "exact"
    USER_SUPPLIED = "user-supplied"
    SAMPLED_HEURISTIC = "sampled-heuristic"


class Monotonicity(Enum):
    """Sampled monotonicity classification of a weight.

    ``UNKNOWN`` is only ever a *declared* state on :class:`WeightSpec`;
    the classifier itself returns one of the other three.
    """

    INCREASING = "increasing"
    DECREASING = "decreasing"
    NEITHER = "neither"
    UNKNOWN = "unknown"


class Rule(Enum):
    """Identifies the inequality an :class:`Enclosure` came from."""

    HERMITE_HADAMARD = "hermite-hadamard"
    FEJER = "fejer"
    CHORD_GAP = "chord-gap"
    SYMMETRIC_PAIR_GAP = "symmetric-pair-gap"
    MIDPOINT_GAP = "midpoint-gap"
    TRAPEZOID_GAP = "trapezoid-gap"
    WEIGHTED_TRAPEZOID_GAP = "weighted-trapezoid-gap"
    WEIGHTED_MIDPOINT_GAP = "weighted-midpoint-gap"
    BISECTION_MEAN = "bisection-mean"
    BISECTION_QUARTER = "bisection-quarter"
    VASIC_LACKOVIC = "vasic-lackovic"
    YOUNG_RATIO = "young-ratio"
    YOUNG_DIFFERENCE = "young-difference"


# --------------------------------------------------------------------------
# Value types
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [a, b] with finite, ordered endpoints and a
    finite width.

    Degenerate intervals (a == b) are legal; gap enclosures on them
    collapse to (0, 0).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidInterval(f"endpoints must be finite, got [{self.a}, {self.b}]")
        if self.a > self.b:
            raise InvalidInterval(f"endpoints out of order: [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):
            raise InvalidInterval(f"width overflows: [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def is_degenerate(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True, slots=True)
class Lambda:
    """A convex-combination weight in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ParameterOutOfRange(f"lambda must lie in [0, 1], got {self.value}")


@dataclass(frozen=True, slots=True)
class NodeWeights:
    """Strictly positive node weights (p, q) for the two endpoints."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 0.0 and self.q > 0.0 and math.isfinite(self.p) and math.isfinite(self.q)):
            raise ParameterOutOfRange(f"node weights must be finite and > 0, got ({self.p}, {self.q})")


@dataclass(frozen=True, slots=True)
class CurvatureBounds:
    """A band m <= f'' <= M on the working interval."""

    m: float
    M: float
    provenance: Provenance = Provenance.USER_SUPPLIED

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.M)):
            raise ParameterOutOfRange(f"curvature bounds must be finite, got ({self.m}, {self.M})")
        if self.m > self.M:
            raise ParameterOutOfRange(f"curvature bounds out of order: m={self.m} > M={self.M}")


@dataclass(frozen=True, slots=True)
class Enclosure:
    """A two-sided bound [lower, upper] for a named target quantity.

    Invariant: ``lower <= upper`` exactly.  ``upper`` may be ``+inf``
    (e.g. an exponential bound that overflows); it is still a bound.
    """

    lower: float
    upper: float
    target_description: str
    source_rule: Rule

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ParameterOutOfRange("enclosure endpoints must not be NaN")
        if self.lower > self.upper:
            raise ParameterOutOfRange(
                f"enclosure out of order: lower={self.lower} > upper={self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, slots=True)
class WeightSpec:
    """A weight function together with its verified structural flags.

    ``function`` only has to be evaluatable (weights may contain ``abs``
    and need not be differentiable); the flags record what the sampled
    checks in :mod:`convexcert.quadrature` established.
    """

    function: "FunctionSpec"
    center: float
    symmetric: bool
    monotone: Monotonicity = Monotonicity.UNKNOWN
    range01: bool = False


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one adaptive quadrature run."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


def make_interval(a: float, b: float) -> tuple[Interval, bool]:
    """Build an interval from two finite endpoints, ordering them.

    Returns:
        ``(interval, swapped)`` where ``swapped`` is True when the
        inputs arrived in descending order.  Idempotent: feeding the
        result's endpoints back in changes nothing.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInterval(f"endpoints must be finite, got ({a}, {b})")
    if a > b:
        return Interval(b, a), True
    return Interval(a, b), False


def check_tolerance(tol: float) -> None:
    """Refuse an oracle tolerance that is not a finite number > 0.

    Every comparison against a NaN tolerance is false and every one
    against an infinite tolerance is true, so neither can decide a check.
    """
    if not tol > 0.0:
        raise ParameterOutOfRange(f"tolerance must be > 0, got {tol}")
    if tol == math.inf:
        raise ParameterOutOfRange(f"tolerance must be finite, got {tol}")


def enclosure_contains(enc: Enclosure, value: float, tol: float = 0.0) -> bool:
    """True iff ``value`` lies in [lower - tol, upper + tol]."""
    if not 0.0 <= tol < math.inf:
        raise ParameterOutOfRange(f"tolerance must be finite and >= 0, got {tol}")
    return (enc.lower - tol) <= value <= (enc.upper + tol)
