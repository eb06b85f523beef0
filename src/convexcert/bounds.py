"""Certified enclosures for convexity gaps of integrals and means.

Every operation here returns (or supports) a two-sided bound on a
named *gap*: the amount by which a convex function's integral mean,
endpoint average, chord value, or weighted analogue exceeds its
Jensen-side counterpart.  Bounds are closed-form in the curvature band
``m <= f'' <= M`` and, for weighted rules, in oracle values of weight
moments.  The oracle targets the bounds are meant to bracket
are provided alongside as ``target_*`` evaluators so callers (CLI,
falsification harness, tests) can verify containment independently.
An enclosure's ``target_description`` is a fixed label of its target, so a
check formats no text; a certificate's inputs are in the CLI's ``inputs``.

Each of the six unweighted gaps is a table row L[f] = α·mean(f) + Σ β·f(x_j):
its oracle value on [a, b] and on [a, x], with the band's scale w²·L[t²/2]
(see :func:`gap_bounds`).  The weighted rules need no symmetry
of the nonnegative weight g (Lah & Ribarič 1973; Niculescu & Persson,
*Convex Functions and Their Applications*, 2006): with G = ∫g, its
barycentre x̄ and ℓ the chord of f over [a, b], f(x̄)·G <= ∫fg <= ℓ(x̄)·G,
and the weighted gaps scale the band by an oracle moment:

* weighted trapezoid  ℓ(x̄)·G - ∫fg            in ∫(t-a)(b-t)g/2 · [m, M]
* weighted midpoint   ∫fg - f(x̄)·G            in ∫(t-x̄)²g/2 · [m, M]

For g symmetric about the midpoint these are the paper's Fejér forms.

The paper's chains (first >= second >= 0) are differences k₁·L₁ - k₂·L₂
of two gaps of one band (m, M).  Where such a difference has a Peano
kernel >= 0, its enclosure is the two gaps' enclosures combined end by
end (see :func:`_difference`): so for the subinterval differences L_ab - ρ·L_ax,
the complement-weight gap w·T_ab - W_g and the steps of :func:`functional_increments`.

:data:`RULES` pairs each rule with the inputs it needs, its enclosure
and its oracle target, all read from one :class:`Problem`; the CLI and
the falsification harness both iterate it.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Callable, NamedTuple, Sequence, Union

from .core import (
    AdmissibilityViolated,
    CurvatureBounds,
    Enclosure,
    Interval,
    Lambda,
    MonotonicityViolated,
    NodeWeights,
    OracleInconclusive,
    ParameterOutOfRange,
    QuadResult,
    RangeViolated,
    Rule,
    WeightSpec,
    _midpoint,
)
from .expr import Binary, Const, FunctionSpec, Var, _remember, require_convex
from .quadrature import (
    _integral_to,
    classify_weight,
    integrate,
    moment_ab,
    moment_about,
    monotone_profile,
)

__all__ = [
    "Problem",
    "RuleSpec",
    "RULES",
    "WeightLike",
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
]

WeightLike = Union[WeightSpec, FunctionSpec]


# --------------------------------------------------------------------------
# Internal helpers
# --------------------------------------------------------------------------


def _enclosure(lower: float, upper: float, description: str, rule: Rule) -> Enclosure:
    """Build an enclosure, normalising sub-rounding inversions.

    The formulas guarantee lower <= upper mathematically; floating
    point may invert them by an ulp or so (e.g. equal bounds computed
    along two arithmetic paths).  Anything bigger than rounding noise
    is a genuine bug and raises.
    """
    if lower > upper:
        scale = max(1.0, abs(lower), abs(upper))
        if lower - upper > 1e-12 * scale:
            raise ParameterOutOfRange(
                f"enclosure inverted beyond rounding noise: ({lower}, {upper}) for {rule.value}"
            )
        lower, upper = upper, lower
    return Enclosure(lower, upper, description, rule)


def _band(
    c: CurvatureBounds, scale: float, description: str, rule: Rule, divisor: float = 1.0
) -> Enclosure:
    """The curvature band times a nonnegative scale: (m·s/d, M·s/d).

    ``divisor`` divides after the product: m·s/d and m·(s/d) can
    differ in the last bit, and the bisection bands round as m·s/d.
    """
    return _enclosure(c.m * scale / divisor, c.M * scale / divisor, description, rule)


def _weight_function(g: WeightLike) -> FunctionSpec:
    return g.function if isinstance(g, WeightSpec) else g


def _as_weight(g: WeightLike, interval: Interval) -> WeightSpec:
    """Classify a weight on the working interval (remembered per interval
    in the weight's memo), whatever interval a given spec was built on."""
    return classify_weight(_weight_function(g), interval)


def _scaled(nodes: NodeWeights) -> tuple[float, float]:
    """(p, q) times the one power of two that puts max(p, q) in [0.5, 1).

    The ratios of p, q and p + q are unchanged, as binary scaling is
    exact in the normal range, but p + q can no longer overflow, nor a
    product with a subnormal weight underflow.
    """
    e = math.frexp(max(nodes.p, nodes.q))[1]
    return math.ldexp(nodes.p, -e), math.ldexp(nodes.q, -e)


def _barycentre(nodes: NodeWeights, interval: Interval) -> float:
    """A = (pa + qb)/(p + q); the midpoint when p = q."""
    p, q = _scaled(nodes)
    return (p * interval.a + q * interval.b) / (p + q)


def _window(nodes: NodeWeights, interval: Interval, y: float) -> Interval:
    """The window [A - y, A + y] around the barycentre A, in [a, b] (at y = radius, A ± y may leave it)."""
    center = _barycentre(nodes, interval)
    return Interval(max(center - y, interval.a), min(center + y, interval.b))


def _oracle(result: QuadResult, what: str) -> float:
    if not result.converged:
        raise OracleInconclusive(f"oracle did not converge for {what}", result.value)
    return result.value


# --------------------------------------------------------------------------
# Unweighted and weighted sandwich enclosures
# --------------------------------------------------------------------------


def hermite_hadamard(f: FunctionSpec, interval: Interval) -> Enclosure:
    """Enclosure (f(midpoint), (f(a)+f(b))/2) for the integral mean of
    a convex f.

    Raises:
        ConvexityViolated: unless f'' >= -2⁻³⁶·max|f''| on the interval.
        ParameterOutOfRange: for degenerate intervals (the integral
            mean needs a < b).
    """
    if interval.is_degenerate():
        raise ParameterOutOfRange("integral mean needs a non-degenerate interval")
    require_convex(f, interval)
    lo = f(interval.midpoint)
    hi = 0.5 * (f(interval.a) + f(interval.b))
    return _enclosure(lo, hi, "integral mean", Rule.HERMITE_HADAMARD)


_EQUAL = NodeWeights(1.0, 1.0)


class _Sides(NamedTuple):
    lower: QuadResult  # ∫ of the supporting line at y against g
    upper: QuadResult  # ∫ of the chord of [a, b] against g
    y: float  # the barycentre of g, in floats


def _sides(
    f: FunctionSpec, g: FunctionSpec, interval: Interval, nodes: NodeWeights, window: Interval, tol: float
) -> _Sides:
    """The barycentric sandwich over a window W inside [a, b]: for convex
    f and nonnegative g, ∫fg over W lies between the integrals against g
    of two lines, the supporting line of f at y and the chord ℓ of f
    over [a, b].  A line with value v at c = (pa + qb)/(p + q) and slope
    s integrates to v·G + s·T, with G = ∫g and T = ∫(t - c)·g over W (a
    moment about c, not 0, so bG - ∫t·g cannot cancel far from 0), so
    the chord side is ℓ(x̄)·G at the barycentre x̄ = c + T/G with no
    division by G.  The supporting line lies below f at any y, so
    rounding in the float barycentre y cannot break the lower side.
    For g symmetric about c, T = 0 and the sides are f(c)·G and ℓ(c)·G.
    """
    a, b = interval.a, interval.b
    c = _barycentre(nodes, interval)
    rg = integrate(g, window, tol)
    rt = moment_about(g, window, c, 1, tol)
    G, T = rg.value, rt.value
    y = c + T / G if G > 0.0 else c
    y = c if math.isnan(y) else min(max(y, window.a), window.b)

    def line(value: float, slope: float) -> QuadResult:
        return QuadResult(
            value * G + slope * T,
            abs(value) * rg.error_estimate + abs(slope) * rt.error_estimate,
            rg.evaluations + rt.evaluations,
            rg.converged and rt.converged,
        )

    p, q = _scaled(nodes)
    fa, fb, fy, dfy = f(a), f(b), f(y), f.derivative(y)
    chord_slope = (fb - fa) / (b - a) if b > a else 0.0
    return _Sides(line(fy + dfy * (c - y), dfy), line((p * fa + q * fb) / (p + q), chord_slope), y)


def _sandwich(
    f: FunctionSpec, g: WeightLike, interval: Interval, nodes: NodeWeights,
    window: Interval, tol: float, rule: Rule,
) -> Enclosure:
    """The two sides of :func:`_sides` as an enclosure of ∫fg over the
    window, after checking the weight there and f on [a, b]."""
    ws = _as_weight(g, window)
    require_convex(f, interval)
    lower, upper, _ = _sides(f, ws.function, interval, nodes, window, tol)
    lo, hi = _oracle(lower, "weight moments"), _oracle(upper, "weight moments")
    return _enclosure(lo, hi, "weighted integral", rule)


def fejer(
    f: FunctionSpec, g: WeightLike, interval: Interval, tol: float = 1e-10
) -> Enclosure:
    """Weighted sandwich: f(x̄) ∫g  <=  ∫fg  <=  ℓ(x̄) ∫g  for convex f
    and a nonnegative weight with barycentre x̄, ℓ being the chord of f
    over the interval (see :func:`_sides`).  For g symmetric about the
    midpoint this is f(mid) ∫g <= ∫fg <= (f(a)+f(b))/2 ∫g.

    This is the equal-node case p = q of :func:`vasic_lackovic`, with
    the window the whole interval.  With g ≡ 1 it reduces to
    :func:`hermite_hadamard` scaled by the interval width.
    """
    if interval.is_degenerate():
        raise ParameterOutOfRange("weighted sandwich needs a non-degenerate interval")
    return _sandwich(f, g, interval, _EQUAL, interval, tol, Rule.FEJER)


# --------------------------------------------------------------------------
# Curvature-band gap enclosures (closed form)
# --------------------------------------------------------------------------


class _Gap(NamedTuple):
    label: str  # the operation name in falsification reports
    description: str
    scale: Callable[[float, float | None], float]  # s from (w², λ)
    alpha: float  # the coefficient of the integral mean
    nodes: Callable[[float | None], tuple[tuple[float, float, float], ...]]  # (β, u, v) from λ
    divisor: float = 1.0
    lam: bool = False


# The six unweighted gaps, in registry order; each band is (m·s/d, M·s/d), see _band.
_GAPS: dict[Rule, _Gap] = {
    Rule.MIDPOINT_GAP: _Gap(
        "hh_midpoint_gap_bounds", "midpoint gap", lambda w2, lam: w2 / 24.0,
        1.0, lambda lam: ((-1.0, 0.5, 0.5),)),
    Rule.TRAPEZOID_GAP: _Gap(
        "hh_trapezoid_gap_bounds", "trapezoid gap", lambda w2, lam: w2 / 12.0,
        -1.0, lambda lam: ((0.5, 1.0, 0.0), (0.5, 0.0, 1.0))),
    Rule.CHORD_GAP: _Gap(
        "chord_gap_bounds", "chord gap", lambda w2, lam: lam * (1.0 - lam) * w2 / 2.0,
        0.0, lambda lam: ((lam, 1.0, 0.0), (1.0 - lam, 0.0, 1.0), (-1.0, lam, 1.0 - lam)), lam=True),
    Rule.SYMMETRIC_PAIR_GAP: _Gap(
        "symmetric_pair_gap_bounds", "symmetric pair gap", lambda w2, lam: (1.0 - 2.0 * lam) ** 2 * w2 / 8.0,
        0.0, lambda lam: ((0.5, lam, 1.0 - lam), (0.5, 1.0 - lam, lam), (-1.0, 0.5, 0.5)), lam=True),
    Rule.BISECTION_MEAN: _Gap(
        "bisection_bounds_mean", "trapezoid-vs-mean bisection gap", lambda w2, lam: w2,
        -1.0, lambda lam: ((0.25, 1.0, 0.0), (0.25, 0.0, 1.0), (0.5, 0.5, 0.5)), 48.0),
    Rule.BISECTION_QUARTER: _Gap(
        "bisection_bounds_quarter", "mean-vs-quarter-points bisection gap", lambda w2, lam: w2,
        1.0, lambda lam: ((-0.5, 0.75, 0.25), (-0.5, 0.25, 0.75)), 96.0),
}


def _gap_value(rule: Rule, f, a: float, x: float, lam: Lambda | None, mean: Callable[[], QuadResult]) -> QuadResult:
    """The value of an unweighted gap on [a, x]: its row's terms
    β·f(u·a + v·x) summed left to right, then α·mean(f), with ``mean()``
    the integral mean on [a, x] and |α| times its error; without a mean,
    no error and one evaluation a node."""
    gap = _GAPS[rule]
    if gap.lam and lam is None:
        raise ParameterOutOfRange(f"{gap.description} needs lambda")
    if gap.alpha:
        r = mean()
    terms = [beta * f(u * a + v * x) for beta, u, v in gap.nodes(None if lam is None else lam.value)]
    val = reduce(add, terms)
    if not gap.alpha:
        return QuadResult(val, 0.0, len(terms), True)
    return QuadResult(val + gap.alpha * r.value, abs(gap.alpha) * r.error_estimate, r.evaluations, r.converged)


def _oracle_mean(rule: Rule, f, interval: Interval, x: float, tol: float) -> QuadResult:
    """∫ₐˣ f/(x - a), read from the run over [a, b] (see :func:`_integral_to`)."""
    if x == interval.a:
        raise ParameterOutOfRange(f"{rule.value} needs a non-degenerate interval")
    (r,), w = _integral_to(f, interval, [x], tol), x - interval.a
    return QuadResult(r.value / w, r.error_estimate / w, r.evaluations, r.converged)


def _width_power(w: float, k: int, what: str) -> float:
    """``w**k`` for the width w of an interval.  ``**`` raises
    OverflowError beyond the float range; that raises ParameterOutOfRange
    naming ``what`` and the width instead."""
    try:
        return w**k
    except OverflowError:
        raise ParameterOutOfRange(f"{what}: the width {w} is too large, w**{k} overflows") from None


def gap_bounds(
    rule: Rule, c: CurvatureBounds, interval: Interval, lam: Lambda | None = None
) -> Enclosure:
    """Enclosure of an unweighted gap: the band (m, M) times its scale.

    For an interval [a, b] of width ``w``, with mean(f) the integral
    mean and x_λ, x_λ' the reflected pair λa+(1-λ)b and (1-λ)a+λb::

        midpoint gap        mean(f) - f((a+b)/2)                 (m, M) · w²/24
        trapezoid gap       (f(a)+f(b))/2 - mean(f)              (m, M) · w²/12
        chord gap           λf(a)+(1-λ)f(b) - f(λa+(1-λ)b)       (m, M) · λ(1-λ)w²/2
        symmetric pair      (f(x_λ)+f(x_λ'))/2 - f((a+b)/2)      (m, M) · (1-2λ)²w²/8
        bisection mean      ((f(a)+f(b))/2 + f((a+b)/2))/2
                              - mean(f)                          (m, M) · w²/48
        bisection quarter   mean(f) - (f((3a+b)/4)
                              + f((a+3b)/4))/2                   (m, M) · w²/96

    The bisection bands are the trapezoid and midpoint bands applied on
    each half of [a, b] and summed; both ends use the matching curvature
    constant (an upper bound from m is already violated by f = exp on
    [0, 1]).  On a degenerate interval every band collapses to (0, 0).

    Raises:
        ParameterOutOfRange: for a rule outside the six, for the chord
            and symmetric-pair gaps without ``lam``, or when w² overflows.
    """
    gap = _GAPS.get(rule)
    if gap is None:
        raise ParameterOutOfRange(f"{rule.value} is not an unweighted gap rule")
    if gap.lam and lam is None:
        raise ParameterOutOfRange(f"{rule.value} needs lambda")
    w2 = _width_power(interval.width, 2, rule.value)
    return _band(c, gap.scale(w2, lam.value if gap.lam else None), gap.description, rule, gap.divisor)


def fejer_trapezoid_gap_bounds(
    f: FunctionSpec,
    g: WeightLike,
    c: CurvatureBounds,
    interval: Interval,
    tol: float = 1e-10,
) -> Enclosure:
    """Enclosure (m/2, M/2) · ∫(t-a)(b-t)g  for the weighted trapezoid
    gap ℓ(x̄) ∫g - ∫fg, ℓ being the chord of f and x̄ the barycentre of
    g.  The moment is an oracle value; it is clamped at zero (it is
    nonnegative for a nonnegative weight)."""
    ws = _as_weight(g, interval)
    mab = max(_oracle(moment_ab(ws.function, interval, tol), "endpoint moment"), 0.0)
    return _band(c, 0.5 * mab, "weighted trapezoid gap", Rule.WEIGHTED_TRAPEZOID_GAP)


def fejer_midpoint_gap_bounds(
    f: FunctionSpec,
    g: WeightLike,
    c: CurvatureBounds,
    interval: Interval,
    tol: float = 1e-10,
) -> Enclosure:
    """Enclosure (m/2, M/2) · ∫(t-y)²g  for the weighted midpoint gap
    ∫fg - G·f(y) - f'(y)·(T - yG), y being the barycentre of g in floats
    (see :func:`_sides`); the gap is ∫fg - f(x̄) ∫g up to rounding.  The
    moment about y is its own oracle integral, not S - 2yT + y²G, which
    cancels."""
    ws = _as_weight(g, interval)
    y = _sides(f, ws.function, interval, _EQUAL, interval, tol).y
    my = max(_oracle(moment_about(ws.function, interval, y, 2, tol), "moment about the barycentre"), 0.0)
    return _band(c, 0.5 * my, "weighted midpoint gap", Rule.WEIGHTED_MIDPOINT_GAP)


# --------------------------------------------------------------------------
# Monotone endpoint functionals
# --------------------------------------------------------------------------


def _check_x(interval: Interval, x: float) -> None:
    if not (interval.a <= x <= interval.b):
        raise ParameterOutOfRange(
            f"x = {x} outside working interval [{interval.a}, {interval.b}]"
        )


def _monotone_weight(name: str, g: WeightLike, interval: Interval) -> FunctionSpec:
    """g, once checked to be nonincreasing for h1, nondecreasing for h2 (or flat)."""
    ws = _as_weight(g, interval)
    rises, falls = monotone_profile(ws.function, interval)
    if name == "h1" and rises:
        raise MonotonicityViolated(f"h1 needs a nonincreasing weight; {ws.function.text!r} rises")
    if name == "h2" and falls:
        raise MonotonicityViolated(f"h2 needs a nondecreasing weight; {ws.function.text!r} falls")
    return ws.function


def _functional(name: str, f, g, interval: Interval, xs: Sequence[float], tol: float) -> list[QuadResult]:
    """h1 or h2 at each x of ``xs``, ∫ₐˣ read from the runs over [a, b]."""
    a, values = interval.a, []
    for x, rg, rfg in zip(xs, _integral_to(g, interval, xs, tol), _integral_to(f, interval, xs, tol, g)):
        k = 0.5 * (f(a) + f(x)) if name == "h1" else f(_midpoint(a, x))
        val = k * rg.value - rfg.value if name == "h1" else rfg.value - k * rg.value
        err = abs(k) * rg.error_estimate + rfg.error_estimate
        values.append(QuadResult(val, err, rg.evaluations + rfg.evaluations, rg.converged and rfg.converged))
    return values


def _endpoint_functional(name: str, f, g: WeightLike, interval: Interval, x: float, tol: float) -> float:
    """h1 or h2 on [a, x], after checking x, the weight's direction and convexity."""
    _check_x(interval, x)
    gfn = _monotone_weight(name, g, interval)
    require_convex(f, interval)
    if x == interval.a:
        return 0.0
    return _oracle(_functional(name, f, gfn, interval, [x], tol)[0], name)


def h1_functional(
    f: FunctionSpec, g: WeightLike, interval: Interval, x: float, tol: float = 1e-10
) -> float:
    """h1(x) = (f(a)+f(x))/2 · ∫ₐˣ g  -  ∫ₐˣ f g, for convex f and
    nonincreasing (or flat) g; h1(a) = 0, and for g symmetric about the
    middle of [a, x] it is the weighted trapezoid gap there.  A step
    h1(x₂) - h1(x₁) is at least the lower end f'(a)·Δμ₁ + m·ΔQ >= 0 of
    :func:`functional_increments` when f is also nondecreasing (f = -x, g =
    1 - x on [0, 1] give h1 = -x³/12).  ∫ₐˣ is read from the run over [a, b].
    """
    return _endpoint_functional("h1", f, g, interval, x, tol)


def h2_functional(
    f: FunctionSpec, g: WeightLike, interval: Interval, x: float, tol: float = 1e-10
) -> float:
    """h2(x) = ∫ₐˣ f g  -  f((a+x)/2) · ∫ₐˣ g, the midpoint-form slack on
    [a, x], for convex f and nondecreasing (or flat) g; otherwise as
    :func:`h1_functional`, with f = -x and g = x as the counterexample.
    """
    return _endpoint_functional("h2", f, g, interval, x, tol)


def functional_increments(
    name: str, f: FunctionSpec, g: WeightLike, c: CurvatureBounds, interval: Interval,
    xs: Sequence[float], tol: float = 1e-10,
) -> list[_Pair]:
    """The steps h(x₂) - h(x₁) of h1 or h2 (``name``, as :func:`h1_functional`
    computes it) over a < x₁ < … < xₙ <= b, as enclosures with their targets.

    h(x) = ∫f dν_x, with ν_x = (G/2)(δ_a + δ_x) - g·1_[a,x] for h1 and
    g·1_[a,x] - G·δ_(a+x)/2 for h2, G = ∫ₐˣ g; by Taylor's formula at a,
    h(x) = f'(a)·μ₁ + ∫K_x f'' with μ₁ = ∫(t - a) dν_x, K_x(s) = ∫(t - s)₊ dν_x.
    For g monotone in the functional's direction K_x₂ - K_x₁ >= 0 (T. Rajba,
    Math. Inequal. Appl. 17, 2014), so for *any* f with m <= f'' <= M a step
    is in f'(a)·Δμ₁ + [m, M]·ΔQ, Q = ½∫(t - a)² dν_x, and Δμ₁ >= 0: the lower
    end is >= 0 when f'(a) >= 0 and m >= 0 (the paper's monotonicity).  The
    moments ∫ₐˣ(t - a)ᵏg are read from runs over [a, b], the grid in one pass.
    """
    a = interval.a
    if name not in ("h1", "h2") or not all(u < v <= interval.b for u, v in zip([a, *xs], xs)):
        raise ParameterOutOfRange(f"{name!r} increments need h1 or h2 and a < x₁ < … <= b, got {list(xs)}")
    g = _monotone_weight(name, g, interval)
    # the factors (t - a)^k, kept in f's memo so that the weights of one f share them
    d = Binary("sub", Var(), Const(a))
    powers = [_remember(f, ("power", a, k), lambda k=k: FunctionSpec(Binary("pow", d, Const(k)))) for k in (1.0, 2.0)]
    G, M1, M2 = (_integral_to(g, interval, xs, tol, p) for p in (None, *powers))
    slope, rule = f.derivative(a), Rule.WEIGHTED_TRAPEZOID_GAP if name == "h1" else Rule.WEIGHTED_MIDPOINT_GAP
    pairs = [(_enclosure(0.0, 0.0, "", rule), QuadResult(0.0, 0.0, 0, True))]  # h(a) = 0
    for x, *ms, h in zip(xs, G, M1, M2, _functional(name, f, g, interval, xs, tol)):
        w, (g0, g1, g2) = x - a, (_oracle(r, f"{name} weight moments") for r in ms)
        if name == "h1":
            mu, q = w * g0 / 2.0 - g1, w * w * g0 / 4.0 - g2 / 2.0
        else:
            mu, q = g1 - w * g0 / 2.0, g2 / 2.0 - w * w * g0 / 8.0
        pairs.append((_enclosure(slope * mu + c.m * q, slope * mu + c.M * q, "", rule), h))
    return [_difference(v, u, 1.0, 1.0, f"{name} increment") for u, v in zip(pairs, pairs[1:])]


# --------------------------------------------------------------------------
# Gap differences: the paper's chains as enclosures
# --------------------------------------------------------------------------


_Pair = tuple[Enclosure, QuadResult]  # an enclosure and its oracle target


def _difference(first: _Pair, second: _Pair, k1: float, k2: float, description: str) -> _Pair:
    """k₁·L₁ - k₂·L₂ for two gaps with bands (v + m·s, v + M·s) of one
    (m, M), v being 0 or a term in f'(a) as for h1 and h2.  Where the
    combination's Peano kernel is >= 0, which the caller vouches for, it
    lies in k₁·v₁ - k₂·v₂ + [m, M]·(k₁·s₁ - k₂·s₂), the two bands combined
    end by end.  The target is k₁·t₁ - k₂·t₂, each error scaled by its |k|."""
    (e1, t1), (e2, t2) = first, second
    target = QuadResult(
        k1 * t1.value - k2 * t2.value,
        abs(k1) * t1.error_estimate + abs(k2) * t2.error_estimate,
        t1.evaluations + t2.evaluations,
        t1.converged and t2.converged,
    )
    lower, upper = k1 * e1.lower - k2 * e2.lower, k1 * e1.upper - k2 * e2.upper
    return _enclosure(lower, upper, description, e1.source_rule), target


def subinterval_gap(
    rule: Rule, f: FunctionSpec, c: CurvatureBounds, interval: Interval, x: float, tol: float = 1e-10
) -> _Pair:
    """An unweighted gap on [a, x] inside [a, b]: the band of
    :func:`gap_bounds` on [a, x], and the oracle value with ∫ₐˣ f read
    from the run over [a, b].  At x = a both are 0."""
    _check_x(interval, x)
    enc = gap_bounds(rule, c, Interval(interval.a, x))
    if x == interval.a:
        return enc, QuadResult(0.0, 0.0, 0, True)
    return enc, _gap_value(rule, f, interval.a, x, None, lambda: _oracle_mean(rule, f, interval, x, tol))


_DIFFERENCES = {Rule.TRAPEZOID_GAP: "trapezoid gap difference", Rule.MIDPOINT_GAP: "midpoint gap difference"}


def subinterval_gap_difference(
    rule: Rule, f: FunctionSpec, c: CurvatureBounds, interval: Interval, x: float, tol: float = 1e-10
) -> _Pair:
    """The paper's subinterval monotonicity L_ab >= ρ·L_ax >= 0, with
    ρ = (x-a)/(b-a), for the trapezoid gap T and the midpoint gap G: the
    kernel of L_ab - ρ·L_ax is >= 0, so for w = b - a::

        T_ab - ρ·T_ax   in  (m, M) · w²(1 - ρ³)/12
        G_ab - ρ·G_ax   in  (m, M) · w²(1 - ρ³)/24

    The lower end is the paper's curvature-refined chain, and ρ·L_ax >= 0
    is the lower end of :func:`subinterval_gap`.
    """
    what = _DIFFERENCES.get(rule)
    if what is None:
        raise ParameterOutOfRange(f"{rule.value} has no subinterval difference")
    if interval.is_degenerate():
        raise ParameterOutOfRange("a subinterval difference needs a non-degenerate interval")
    rho = (x - interval.a) / interval.width
    part = subinterval_gap(rule, f, c, interval, x, tol)  # x is checked before [a, b] runs
    return _difference(subinterval_gap(rule, f, c, interval, interval.b, tol), part, 1.0, rho, what)


def complement_weight_gap(
    f: FunctionSpec, g: WeightLike, c: CurvatureBounds, interval: Interval, tol: float = 1e-10
) -> _Pair:
    """w·T_ab - W_g = ∫(ℓ - f)(1 - g) for g in [0, 1], the weighted
    trapezoid gap of the complement weight, with w = b - a, T_ab the
    trapezoid gap, W_g the weighted trapezoid gap of g and ℓ the chord of
    f.  Its kernel is >= 0 as 1 - g >= 0, so with P = ∫(t-a)(b-t)g::

        w·T_ab - W_g   in  (m, M) · (w³/12 - P/2)

    Its two ends are the paper's precision chains, whose ">= 0" halves
    are the band of W_g.  With g ≡ 1 the gap and its band are 0.
    """
    ws = _as_weight(g, interval)
    if not ws.range01:
        raise RangeViolated(f"the complement weight needs g in [0, 1]; {ws.function.text!r} is not")
    w = interval.width
    _width_power(w, 3, "complement weight gap")  # the band's scale holds w³/12
    p = Problem(f, interval, tol, c, ws)
    rules = Rule.TRAPEZOID_GAP, Rule.WEIGHTED_TRAPEZOID_GAP
    trapezoid, weighted = ((RULES[rule].enclose(p), RULES[rule].target(p)) for rule in rules)
    return _difference(trapezoid, weighted, w, 1.0, "complement weight gap")


# --------------------------------------------------------------------------
# Weighted two-node sandwich (off-centre window)
# --------------------------------------------------------------------------


def vasic_lackovic(
    f: FunctionSpec,
    g: WeightLike,
    weights: NodeWeights,
    interval: Interval,
    y: float,
    tol: float = 1e-10,
) -> Enclosure:
    """Two-node sandwich on the window [A - y, A + y] around
    A = (pa + qb)/(p + q)::

        f(x̄) ∫ g  <=  ∫ f g  <=  ℓ(x̄) ∫ g

    with all integrals over the window, for convex f and a nonnegative
    g with barycentre x̄ there, ℓ being the chord of f over [a, b] (see
    :func:`_sides`).  For g symmetric about A, ℓ(x̄) = (p f(a) + q f(b))/(p + q).
    p and q only place the window.  Admissibility — checked before
    anything is evaluated — requires y <= (b - a) · min(p, q)/(p + q),
    which is exactly the condition keeping the window inside [a, b].
    """
    p, q = weights.p, weights.q
    if not y > 0.0:
        raise ParameterOutOfRange(f"window half-width must be > 0, got {y}")
    ps, qs = _scaled(weights)
    radius = interval.width * min(ps, qs) / (ps + qs)
    if y > radius:
        raise AdmissibilityViolated(
            f"half-width {y} exceeds admissible radius {radius} for (p, q) = ({p}, {q})"
        )
    return _sandwich(f, g, interval, weights, _window(weights, interval, y), tol, Rule.VASIC_LACKOVIC)


# --------------------------------------------------------------------------
# Oracle targets
# --------------------------------------------------------------------------


def target_integral_mean(f, interval: Interval, tol: float = 1e-10) -> QuadResult:
    """Oracle for the integral mean of f (the Hermite–Hadamard target)."""
    if interval.is_degenerate():
        raise ParameterOutOfRange("integral mean needs a non-degenerate interval")
    r = integrate(f, interval, tol)
    return QuadResult(r.value / interval.width, r.error_estimate / interval.width, r.evaluations, r.converged)


def target_fejer(f, g: WeightLike, interval: Interval, tol: float = 1e-10) -> QuadResult:
    """Oracle for ∫ f g over the interval."""
    return integrate(f, interval, tol, _weight_function(g))


def target_gap(
    rule: Rule,
    f,
    interval: Interval,
    lam: Lambda | None = None,
    g: WeightLike | None = None,
    tol: float = 1e-10,
) -> QuadResult:
    """Oracle value of the gap quantity named by one of the six
    ``*_GAP`` rules or the two bisection rules.

    Evaluation-only targets (chord, symmetric pair) come back with a
    zero error estimate; integral-backed targets carry the quadrature
    convergence flag, and each integral's error estimate scaled by the
    coefficient that integral carries in the gap.  The two weighted gaps
    are those of :func:`_sides`; they read f' at the weight's barycentre.
    """
    a, b = interval
    if rule in _GAPS:
        return _gap_value(rule, f, a, b, lam, lambda: _oracle_mean(rule, f, interval, b, tol))
    if rule not in (Rule.WEIGHTED_TRAPEZOID_GAP, Rule.WEIGHTED_MIDPOINT_GAP):
        raise ParameterOutOfRange(f"{rule.value} is not a gap rule")
    if g is None:
        raise ParameterOutOfRange(f"{rule.value} needs a weight")
    gfn = _weight_function(g)
    sides = _sides(f, gfn, interval, _EQUAL, interval, tol)
    fg = integrate(f, interval, tol, gfn)
    u, v = (sides.upper, fg) if rule is Rule.WEIGHTED_TRAPEZOID_GAP else (fg, sides.lower)
    err = u.error_estimate + v.error_estimate
    return QuadResult(u.value - v.value, err, u.evaluations + v.evaluations, u.converged and v.converged)


def target_vasic_lackovic(
    f, g: WeightLike, weights: NodeWeights, interval: Interval, y: float, tol: float = 1e-10
) -> QuadResult:
    """Oracle for ∫ f g over the admissible window around the barycentre."""
    return target_fejer(f, g, _window(weights, interval, y), tol)


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------


class Problem(NamedTuple):
    """Everything a rule in :data:`RULES` may read: f on an interval,
    the oracle tolerance, and whichever of curvature band, weight, λ,
    node weights and window half-width ``y`` the rule needs (the rest
    may stay ``None``).  Rules that read the same integral, such as the
    bisection pair, compute it once: ``f`` remembers it."""

    f: FunctionSpec
    interval: Interval
    tol: float = 1e-10
    band: CurvatureBounds | None = None
    weight: WeightLike | None = None
    lam: Lambda | None = None
    nodes: NodeWeights | None = None
    y: float | None = None


class RuleSpec(NamedTuple):
    """One inequality: the :class:`Problem` fields it needs, its
    enclosure and its oracle target.

    ``label`` is the operation name in falsification reports.  A
    ``window`` rule reads ``weight`` (over its window), ``nodes`` and
    ``y``; a ``weight`` rule reads ``weight`` over the whole interval.
    """

    label: str
    enclose: Callable[[Problem], Enclosure]
    target: Callable[[Problem], QuadResult]
    band: bool = False
    weight: bool = False
    lam: bool = False
    window: bool = False


# Every rule except the Young pair (which live in :mod:`convexcert.means`),
# in the order ``convexcert bounds --rule all`` prints them.
RULES: dict[Rule, RuleSpec] = {
    Rule.HERMITE_HADAMARD: RuleSpec(
        "hermite_hadamard",
        lambda p: hermite_hadamard(p.f, p.interval),
        lambda p: target_integral_mean(p.f, p.interval, p.tol),
    ),
    Rule.FEJER: RuleSpec(
        "fejer",
        lambda p: fejer(p.f, p.weight, p.interval, p.tol),
        lambda p: target_fejer(p.f, p.weight, p.interval, p.tol),
        weight=True,
    ),
    Rule.WEIGHTED_TRAPEZOID_GAP: RuleSpec(
        "fejer_trapezoid_gap_bounds",
        lambda p: fejer_trapezoid_gap_bounds(p.f, p.weight, p.band, p.interval, p.tol),
        lambda p: target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, p.f, p.interval, g=p.weight, tol=p.tol),
        band=True,
        weight=True,
    ),
    Rule.WEIGHTED_MIDPOINT_GAP: RuleSpec(
        "fejer_midpoint_gap_bounds",
        lambda p: fejer_midpoint_gap_bounds(p.f, p.weight, p.band, p.interval, p.tol),
        lambda p: target_gap(Rule.WEIGHTED_MIDPOINT_GAP, p.f, p.interval, g=p.weight, tol=p.tol),
        band=True,
        weight=True,
    ),
    **{
        rule: RuleSpec(
            gap.label,
            lambda p, rule=rule: gap_bounds(rule, p.band, p.interval, p.lam),
            lambda p, rule=rule: target_gap(rule, p.f, p.interval, lam=p.lam, tol=p.tol),
            band=True,
            lam=gap.lam,
        )
        for rule, gap in _GAPS.items()
    },
    Rule.VASIC_LACKOVIC: RuleSpec(
        "vasic_lackovic",
        lambda p: vasic_lackovic(p.f, p.weight, p.nodes, p.interval, p.y, p.tol),
        lambda p: target_vasic_lackovic(p.f, p.weight, p.nodes, p.interval, p.y, p.tol),
        window=True,
    ),
}
