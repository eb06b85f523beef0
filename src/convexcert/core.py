"""Shared value types for certified convexity bounds.

Everything downstream (quadrature, the inequality engine, the means
module, the CLI) trades in a handful of small immutable values defined
here: intervals, curvature bands, two-sided enclosures, weight
descriptors, and the error taxonomy.  Keeping them in one place avoids
import cycles and makes the contracts easy to audit.

The value types are NamedTuples, which keep the package cheap to import
(each CLI call imports it in a fresh interpreter).  Those with an
invariant (``Interval``, ``Lambda``, ``NodeWeights``, ``CurvatureBounds``,
``Enclosure``) check it on every construction path, ``_replace`` and
``_make`` included.  Being tuples, they unpack, index, and compare equal
to any tuple with the same fields.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

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
    below the convexity slack -2⁻³⁶·max(|lo|, |hi|) of its ends."""


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


class _Checked:
    """Mixin for a NamedTuple whose subclass checks its fields in
    ``__new__``.  ``_make`` (and so ``_replace``) builds through the
    constructor too, where the tuple's own would skip the check."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Interval(_Checked, NamedTuple("Interval", [("a", float), ("b", float)])):
    """A closed interval [a, b] with finite, ordered endpoints and a
    finite width.

    Degenerate intervals (a == b) are legal; gap enclosures on them
    collapse to (0, 0).
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> Interval:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidInterval(f"endpoints must be finite, got [{a}, {b}]")
        if a > b:
            raise InvalidInterval(f"endpoints out of order: [{a}, {b}]")
        if not math.isfinite(b - a):
            raise InvalidInterval(f"width overflows: [{a}, {b}]")
        return tuple.__new__(cls, (a, b))

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        """(a + b)/2, halved before the sum where the sum overflows."""
        return _midpoint(self.a, self.b)

    def is_degenerate(self) -> bool:
        return self.a == self.b


def _midpoint(a: float, b: float) -> float:
    """:attr:`Interval.midpoint` of two finite floats, with no Interval
    built: bit for bit 0.5·(a + b) wherever that sum is finite."""
    s = a + b
    return 0.5 * s if abs(s) < math.inf else 0.5 * a + 0.5 * b


class Lambda(_Checked, NamedTuple("Lambda", [("value", float)])):
    """A convex-combination weight in [0, 1]."""

    __slots__ = ()

    def __new__(cls, value: float) -> Lambda:
        if not (0.0 <= value <= 1.0):
            raise ParameterOutOfRange(f"lambda must lie in [0, 1], got {value}")
        return tuple.__new__(cls, (value,))


class NodeWeights(_Checked, NamedTuple("NodeWeights", [("p", float), ("q", float)])):
    """Strictly positive node weights (p, q) for the two endpoints."""

    __slots__ = ()

    def __new__(cls, p: float, q: float) -> NodeWeights:
        if not (p > 0.0 and q > 0.0 and math.isfinite(p) and math.isfinite(q)):
            raise ParameterOutOfRange(f"node weights must be finite and > 0, got ({p}, {q})")
        return tuple.__new__(cls, (p, q))


class CurvatureBounds(
    _Checked, NamedTuple("CurvatureBounds", [("m", float), ("M", float), ("provenance", Provenance)])
):
    """A band m <= f'' <= M on the working interval."""

    __slots__ = ()

    def __new__(cls, m: float, M: float, provenance: Provenance = Provenance.USER_SUPPLIED) -> CurvatureBounds:
        if not (math.isfinite(m) and math.isfinite(M)):
            raise ParameterOutOfRange(f"curvature bounds must be finite, got ({m}, {M})")
        if m > M:
            raise ParameterOutOfRange(f"curvature bounds out of order: m={m} > M={M}")
        return tuple.__new__(cls, (m, M, provenance))


class Enclosure(
    _Checked,
    NamedTuple(
        "Enclosure", [("lower", float), ("upper", float), ("target_description", str), ("source_rule", Rule)]
    ),
):
    """A two-sided bound [lower, upper] for a named target quantity.

    ``target_description`` is a fixed label of the target ("midpoint gap"),
    not of the call: a certificate's inputs are in the CLI's ``inputs``.
    Invariant: ``lower <= upper`` exactly.  ``upper`` may be ``+inf``
    (e.g. an exponential bound that overflows); it is still a bound.
    """

    __slots__ = ()

    def __new__(cls, lower: float, upper: float, target_description: str, source_rule: Rule) -> Enclosure:
        if math.isnan(lower) or math.isnan(upper):
            raise ParameterOutOfRange("enclosure endpoints must not be NaN")
        if lower > upper:
            raise ParameterOutOfRange(f"enclosure out of order: lower={lower} > upper={upper}")
        return tuple.__new__(cls, (lower, upper, target_description, source_rule))

    @property
    def width(self) -> float:
        return self.upper - self.lower


class WeightSpec(NamedTuple):
    """A weight function together with its sampled structural flags.

    ``function`` only has to be evaluatable (weights may contain ``abs``
    and need not be differentiable); the flags record what the sampled
    checks in :mod:`convexcert.quadrature` established.  No weighted
    rule needs symmetry: each places its sandwich at the weight's
    barycentre.
    """

    function: "FunctionSpec"
    monotone: Monotonicity = Monotonicity.UNKNOWN
    range01: bool = False


class QuadResult(NamedTuple):
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
