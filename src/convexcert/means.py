"""Special means of positive numbers and certified comparisons.

Provides the classical means (arithmetic, geometric, harmonic,
logarithmic, identric), the two parametric families (power mean and
integral power mean), the subinterval-monotonicity checks that the
convexity-gap machinery induces on them, and two-sided refinements of
the weighted arithmetic--geometric mean inequality (Young's
inequality), in ratio and difference form.

All means require strictly positive arguments and are symmetric in
(a, b); parametric limit cases are dispatched by exact parameter
match with a 1e-12 absolute threshold (|p| for the geometric/identric
limits, |p + 1| for the logarithmic one).
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .bounds import gap_bounds
from .core import (
    CurvatureBounds,
    Enclosure,
    Interval,
    Lambda,
    NonpositiveInput,
    ParameterOutOfRange,
    Rule,
    _midpoint,
)

__all__ = [
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
]

_LIMIT_EPS = 1e-12


class MeanKind(Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"
    HARMONIC = "harmonic"
    LOGARITHMIC = "logarithmic"
    IDENTRIC = "identric"
    POWER = "power"
    INTEGRAL_POWER = "integral-power"


class MeanValue(NamedTuple):
    kind: MeanKind
    value: float
    p: float | None = None


def _require_positive(*values: float) -> None:
    for v in values:
        if not (v > 0.0 and math.isfinite(v)):
            raise NonpositiveInput(f"means need finite arguments > 0, got {v}")


def arithmetic_mean(a: float, b: float) -> float:
    """(a + b)/2, halved before the sum where the sum overflows."""
    _require_positive(a, b)
    return _midpoint(a, b)


def geometric_mean(a: float, b: float) -> float:
    _require_positive(a, b)
    return math.sqrt(a) * math.sqrt(b)


def harmonic_mean(a: float, b: float) -> float:
    """2ab/(a + b).  Where 2ab is not a normal float, anchored at the
    smaller operand: lo·2/(1 + lo/hi)."""
    _require_positive(a, b)
    product = 2.0 * a * b
    if sys.float_info.min <= product < math.inf:
        return product / (a + b)
    lo, hi = min(a, b), max(a, b)
    return lo * (2.0 / (1.0 + lo / hi))


def logarithmic_mean(a: float, b: float) -> float:
    """(b - a) / (log b - log a), extended by continuity at a = b.

    Computed as (b - a) / log1p((b - a)/a) with the operands ordered
    a < b: for operands a few ulp apart the direct log difference rounds
    to zero, while log1p of the exactly-representable gap stays accurate.
    (In the other order, far operands put (b - a)/a near -1, where log1p
    keeps few digits.)  Where (b - a)/a overflows, the operands lie more
    than 10^308 apart, and the plain log difference is accurate.
    """
    _require_positive(a, b)
    if a == b:
        return a
    a, b = min(a, b), max(a, b)
    t = (b - a) / a
    if t < math.inf:
        return (b - a) / math.log1p(t)
    return (b - a) / (math.log(b) - math.log(a))


def identric_mean(a: float, b: float) -> float:
    """exp((b log b - a log a)/(b - a) - 1), extended at a = b.

    Uses the rearrangement b log b - a log a = (b - a) log b + a log(b/a)
    with log(b/a) = log1p((b - a)/a), i.e.

        I = b * exp(a * log1p((b - a)/a) / (b - a) - 1),

    which avoids the catastrophic cancellation of the textbook form for
    nearly equal operands (where it correctly tends to the midpoint).
    It agrees with (1/e)(b^b / a^a)^(1/(b-a)).  The operands are ordered
    a < b first, as for :func:`logarithmic_mean`, so the mean is anchored
    at the larger operand, where the exponent lies in (-1, 0).  Where
    (b - a)/a overflows, log(b/a) is log b - log a.
    """
    _require_positive(a, b)
    if a == b:
        return a
    a, b = min(a, b), max(a, b)
    t = (b - a) / a
    if t < math.inf:
        return b * math.exp(a * math.log1p(t) / (b - a) - 1.0)
    return b * math.exp(a * (math.log(b) - math.log(a)) / (b - a) - 1.0)


def power_mean(p: float, a: float, b: float) -> float:
    """((a^p + b^p)/2)^(1/p); the geometric mean at p = 0.

    Where a^p or b^p is not a normal float, or their sum overflows, the
    mean is anchored at the dominant operand d (the larger for p > 0, the
    smaller for p < 0) as d·((1 + (e/d)^p)/2)^(1/p), with e the other
    operand and (e/d)^p <= 1.
    """
    _require_positive(a, b)
    if not math.isfinite(p):
        raise ParameterOutOfRange(f"power mean exponent must be finite, got {p}")
    if abs(p) < _LIMIT_EPS:
        return geometric_mean(a, b)
    try:
        ap, bp = a**p, b**p
    except OverflowError:
        ap = bp = math.inf
    if min(ap, bp) >= sys.float_info.min and 0.5 * (ap + bp) < math.inf:
        return (0.5 * (ap + bp)) ** (1.0 / p)
    d, e = (max(a, b), min(a, b)) if p > 0.0 else (min(a, b), max(a, b))
    return d * (0.5 * (1.0 + (e / d) ** p)) ** (1.0 / p)


def integral_power_mean(p: float, a: float, b: float) -> float:
    """((b^(p+1) - a^(p+1)) / ((p+1)(b - a)))^(1/p).

    Continuity limits: the logarithmic mean at p = -1, the identric
    mean at p = 0, and the common value a at a = b.

    The quotient is min(a, b)^p · expm1(u)/((p+1)·t), with t = |b - a|/min(a, b)
    and u = (p+1)·log1p(t), so close operands do not cancel.  Where
    expm1(u) would overflow (|u| >= 700) the powers can too, so the
    quotient is anchored at the dominant operand instead: for p > -1 it
    is max(a, b)^p · (1 - r^(p+1))/((p+1)(1 - r)) with r = min/max, and
    for p < -1 it is summed in logs around log min(a, b), with one exp
    at the end.
    """
    _require_positive(a, b)
    if not math.isfinite(p):
        raise ParameterOutOfRange(f"integral power mean exponent must be finite, got {p}")
    if a == b:
        return a
    if abs(p) < _LIMIT_EPS:
        return identric_mean(a, b)
    if abs(p + 1.0) < _LIMIT_EPS:
        return logarithmic_mean(a, b)
    lo, hi = min(a, b), max(a, b)
    t = (hi - lo) / lo
    u = (p + 1.0) * math.log1p(t)
    if abs(u) < 700.0:
        return lo * (math.expm1(u) / ((p + 1.0) * t)) ** (1.0 / p)
    if t == math.inf:  # hi/lo beyond the float range; its log is not
        u = (p + 1.0) * (math.log(hi) - math.log(lo))
    if p > -1.0:  # 1 - r^(p+1) = -expm1(-u) and 1 - r = (hi - lo)/hi
        return hi * (-math.expm1(-u) / ((p + 1.0) * ((hi - lo) / hi))) ** (1.0 / p)
    # hi^(p+1) - lo^(p+1) = lo^(p+1)·expm1(u), negative like (p+1)(hi - lo)
    log_quotient = (p + 1.0) * math.log(lo) + math.log(-math.expm1(u))
    return math.exp((log_quotient - math.log(-(p + 1.0)) - math.log(hi - lo)) / p)


_DISPATCH = {
    MeanKind.ARITHMETIC: arithmetic_mean,
    MeanKind.GEOMETRIC: geometric_mean,
    MeanKind.HARMONIC: harmonic_mean,
    MeanKind.LOGARITHMIC: logarithmic_mean,
    MeanKind.IDENTRIC: identric_mean,
}


def mean(kind: MeanKind, a: float, b: float, p: float | None = None) -> MeanValue:
    """Evaluate a mean by kind.  The parametric kinds require ``p``."""
    if kind in (MeanKind.POWER, MeanKind.INTEGRAL_POWER):
        if p is None:
            raise ParameterOutOfRange(f"{kind.value} mean needs an exponent p")
        fn = power_mean if kind is MeanKind.POWER else integral_power_mean
        return MeanValue(kind, fn(p, a, b), p)
    if p is not None:
        raise ParameterOutOfRange(f"{kind.value} mean takes no exponent")
    return MeanValue(kind, _DISPATCH[kind](a, b))


# --------------------------------------------------------------------------
# Subinterval gap checks
# --------------------------------------------------------------------------


def _check_window(a: float, x: float, b: float) -> None:
    _require_positive(a, x, b)
    if not (a <= x <= b):
        raise ParameterOutOfRange(f"need a <= x <= b, got a={a}, x={x}, b={b}")
    if a == b:
        raise ParameterOutOfRange("gap checks need a < b")


def al_gap_check(p: float, a: float, b: float, x: float) -> tuple[float, float]:
    """Width-scaled gap between p-th powers of the power and integral
    power means, on [a, b] versus [a, x]::

        (b - a)(A_p(a,b)^p - L_p(a,b)^p)  >=  (x - a)(A_p(a,x)^p - L_p(a,x)^p)

    valid for p < 0 (p != -1) or p >= 1, where t^p is convex.  Returns
    the (left, right) pair; both sides are nonnegative in exact
    arithmetic.  Numerically each side is a cancelling difference with
    absolute error on the order of eps * max(a,b)^(p+1), so chain
    comparisons for narrow windows must allow slack at that scale.
    """
    if (0.0 <= p < 1.0) or p == -1.0:
        raise ParameterOutOfRange(
            f"gap check needs p in (-inf, 0) u [1, inf) excluding -1, got {p}"
        )
    _check_window(a, x, b)

    def side(lo: float, hi: float) -> float:
        if lo == hi:
            return 0.0
        ap = 0.5 * (lo**p + hi**p)
        lp = (hi ** (p + 1.0) - lo ** (p + 1.0)) / ((p + 1.0) * (hi - lo))
        return (hi - lo) * (ap - lp)

    return side(a, b), side(a, x)


def harmonic_log_gap_check(a: float, b: float, x: float) -> tuple[float, float]:
    """The p = -1 companion of :func:`al_gap_check`, via reciprocals of
    the harmonic and logarithmic means::

        (b - a)(1/H(a,b) - 1/L(a,b))  >=  (x - a)(1/H(a,x) - 1/L(a,x))
    """
    _check_window(a, x, b)

    def side(lo: float, hi: float) -> float:
        if lo == hi:
            return 0.0
        return (hi - lo) * (1.0 / harmonic_mean(lo, hi) - 1.0 / logarithmic_mean(lo, hi))

    return side(a, b), side(a, x)


def identric_ratio_check(a: float, b: float, x: float) -> tuple[float, float]:
    """Width-powered arithmetic/identric ratios::

        (A(a,b)/I(a,b))^(b-a)  >=  (A(a,x)/I(a,x))^(x-a)  >=  1
    """
    _check_window(a, x, b)

    def side(lo: float, hi: float) -> float:
        if lo == hi:
            return 1.0
        return (arithmetic_mean(lo, hi) / identric_mean(lo, hi)) ** (hi - lo)

    return side(a, b), side(a, x)


# --------------------------------------------------------------------------
# Young refinements
# --------------------------------------------------------------------------


def _young_normalise(a: float, b: float, lam: float) -> tuple[float, float, float]:
    """Check the operands and λ, then order them: return (alpha, beta, weight of alpha)."""
    _require_positive(a, b)
    if not (0.0 <= lam <= 1.0):
        raise ParameterOutOfRange(f"lambda must lie in [0, 1], got {lam}")
    if a <= b:
        return a, b, lam
    return b, a, 1.0 - lam


def _safe_exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def young_ratio_bounds(a: float, b: float, lam: float) -> Enclosure:
    """Two-sided bound for the ratio form of Young's inequality::

        exp(λ(1-λ)(a-b)²/(2β²))  <=  (λa + (1-λ)b) / (a^λ b^(1-λ))
                                 <=  exp(λ(1-λ)(a-b)²/(2α²))

    with α = min(a, b), β = max(a, b).  Both bounds are >= 1; the upper
    one may overflow to +inf for extreme operand ratios and remains a
    valid bound.
    """
    alpha, beta, w = _young_normalise(a, b, lam)
    desc = "(lam*a + (1-lam)*b) / (a^lam * b^(1-lam))"
    c = w * (1.0 - w)
    if c == 0.0 or alpha == beta:
        return Enclosure(1.0, 1.0, desc, Rule.YOUNG_RATIO)
    # scale the gap by each operand before squaring: (alpha - beta)**2
    # can overflow for extreme operand ratios, while the beta-relative
    # ratio lies in (-1, 0] and the alpha-relative one saturates to an
    # IEEE infinity that _safe_exp turns into a still-valid +inf bound
    rb = (alpha - beta) / beta
    ra = (alpha - beta) / alpha
    return Enclosure(
        _safe_exp(0.5 * c * rb * rb),
        _safe_exp(0.5 * c * ra * ra),
        desc,
        Rule.YOUNG_RATIO,
    )


def young_difference_bounds(a: float, b: float, lam: float) -> Enclosure:
    """Two-sided bound for the difference form of Young's inequality::

        λ(1-λ)·α/2·log²(a/b)  <=  λa + (1-λ)b - a^λ b^(1-λ)
                              <=  λ(1-λ)·β/2·log²(a/b)

    with α = min(a, b), β = max(a, b).  This is the chord gap of exp on
    [log α, log β], whose curvature band is (α, β).
    """
    alpha, beta, w = _young_normalise(a, b, lam)
    gap = gap_bounds(
        Rule.CHORD_GAP, CurvatureBounds(alpha, beta), Interval(math.log(alpha), math.log(beta)), Lambda(w)
    )
    return Enclosure(gap.lower, gap.upper, "lam*a + (1-lam)*b - a^lam * b^(1-lam)", Rule.YOUNG_DIFFERENCE)


def young_ratio_target(a: float, b: float, lam: float) -> float:
    """The ratio (λa + (1-λ)b) / (a^λ b^(1-λ)) itself.

    Exact (1.0) at the degenerate corners a = b and λ in {0, 1}, where
    the enclosure collapses to a point.
    """
    _young_normalise(a, b, lam)
    if a == b:
        return 1.0
    num = lam * a + (1.0 - lam) * b
    den = math.pow(a, lam) * math.pow(b, 1.0 - lam)
    return num / den


def young_difference_target(a: float, b: float, lam: float) -> float:
    """The difference λa + (1-λ)b - a^λ b^(1-λ) itself.

    Exact (0.0) at the degenerate corners a = b and λ in {0, 1}.
    """
    _young_normalise(a, b, lam)
    if a == b:
        return 0.0
    return lam * a + (1.0 - lam) * b - math.pow(a, lam) * math.pow(b, 1.0 - lam)
