"""Special means of positive numbers and certified comparisons.

Provides the classical means (arithmetic, geometric, harmonic,
logarithmic, identric), the two parametric families (power mean and
integral power mean), the subinterval-monotonicity checks of t^p and
-log t as enclosures of gap differences, and two-sided refinements of
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

from .bounds import _check_x, _difference, _gap_value, gap_bounds
from .core import (
    CurvatureBounds,
    Enclosure,
    Interval,
    Lambda,
    NonpositiveInput,
    ParameterOutOfRange,
    QuadResult,
    Rule,
    _midpoint,
)
from .expr import _exp, _pow

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


def _window_gap(rule: Rule, f, d2, f_mean, a: float, b: float, x: float, what: str) -> tuple[Enclosure, QuadResult]:
    """(b - a)·L_ab - (x - a)·L_ax for the gap L of ``rule`` of a fixed
    convex f, with f'' = ``d2`` monotone and ``f_mean(a, u)`` the integral
    mean of f on [a, u] in closed form.  The kernel of the difference is
    >= 0, so :func:`bounds._difference` combines the gaps' enclosures in
    the band (f'' at a and b) end by end.  Raises ParameterOutOfRange
    where the band or the value is not finite."""
    _require_positive(a, x, b)
    if not a < b:
        raise ParameterOutOfRange(f"gap checks need a < b, got a={a}, b={b}")
    _check_x(Interval(a, b), x)
    band = CurvatureBounds(*sorted((d2(a), d2(b))))

    def gap(u: float) -> tuple[Enclosure, QuadResult]:
        value = _gap_value(rule, f, a, u, None, lambda: QuadResult(f_mean(a, u), 0.0, 0, True))
        return gap_bounds(rule, band, Interval(a, u)), value

    enc, value = _difference(gap(b), gap(x), b - a, x - a, what)
    if not math.isfinite(value.value):
        raise ParameterOutOfRange(f"{what} is not finite on [{a}, {b}] at x = {x}")
    return enc, value


def al_gap_check(p: float, a: float, b: float, x: float) -> tuple[Enclosure, QuadResult]:
    """Width-scaled gaps between p-th powers of the power and integral
    power means, A_p^p - L_p^p being the trapezoid gap of t^p::

        (b - a)(A_p(a,b)^p - L_p(a,b)^p)  -  (x - a)(A_p(a,x)^p - L_p(a,x)^p)  >=  0

    for p < 0 or p >= 1, where t^p is convex: the difference's enclosure
    and value (see :func:`_window_gap`).  The value cancels, with absolute
    error on the order of eps * max(a,b)^(p+1).
    """
    if 0.0 <= p < 1.0:
        raise ParameterOutOfRange(f"gap check needs p in (-inf, 0) u [1, inf), got {p}")
    return _window_gap(
        Rule.TRAPEZOID_GAP, lambda t: _pow(t, p), lambda t: p * (p - 1.0) * _pow(t, p - 2.0),
        lambda lo, hi: _pow(integral_power_mean(p, lo, hi), p), a, b, x, "window gap difference of t^p",
    )


def harmonic_log_gap_check(a: float, b: float, x: float) -> tuple[Enclosure, QuadResult]:
    """:func:`al_gap_check` at p = -1, via the harmonic and logarithmic means::

        (b - a)(1/H(a,b) - 1/L(a,b))  -  (x - a)(1/H(a,x) - 1/L(a,x))  >=  0
    """
    return al_gap_check(-1.0, a, b, x)


def identric_ratio_check(a: float, b: float, x: float) -> tuple[Enclosure, QuadResult]:
    """Logs of width-powered arithmetic/identric ratios, log(A/I) being the
    midpoint gap of -log t (log I is the integral mean of log t)::

        (b - a)·log(A(a,b)/I(a,b))  -  (x - a)·log(A(a,x)/I(a,x))  >=  0

    The difference's enclosure and value (see :func:`_window_gap`).
    """
    return _window_gap(
        Rule.MIDPOINT_GAP, lambda t: -math.log(t), lambda t: _pow(t, -2.0),
        lambda lo, hi: -math.log(identric_mean(lo, hi)), a, b, x, "window gap difference of -log t",
    )


# --------------------------------------------------------------------------
# Young refinements
# --------------------------------------------------------------------------


def _young_normalise(a: float, b: float, lam: float) -> tuple[float, float, float]:
    """Check the operands and λ, then order them: return (alpha, beta, weight of alpha)."""
    _require_positive(a, b)
    Lambda(lam)
    if a <= b:
        return a, b, lam
    return b, a, 1.0 - lam


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
    # IEEE infinity that _exp turns into a still-valid +inf bound
    rb = (alpha - beta) / beta
    ra = (alpha - beta) / alpha
    return Enclosure(
        _exp(0.5 * c * rb * rb),
        _exp(0.5 * c * ra * ra),
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
    the enclosure collapses to a point.  A subnormal operand is scaled
    exactly with the other (the ratio is homogeneous of degree 0).
    """
    _young_normalise(a, b, lam)
    if a == b:
        return 1.0
    if min(a, b) < sys.float_info.min and max(a, b) < 1.0:  # the larger into [0.5, 1)
        e = math.frexp(max(a, b))[1]
        a, b = math.ldexp(a, -e), math.ldexp(b, -e)
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
