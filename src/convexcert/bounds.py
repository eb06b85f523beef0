"""Certified enclosures for convexity gaps of integrals and means.

Every operation here returns (or supports) a two-sided bound on a
named *gap*: the amount by which a convex function's integral mean,
endpoint average, chord value, or weighted analogue exceeds its
Jensen-side counterpart.  Bounds are closed-form in the curvature band
``m <= f'' <= M`` and, for weighted rules, in oracle values of the two
weight moments.  The oracle targets the bounds are meant to bracket
are provided alongside as ``target_*`` evaluators so callers (CLI,
falsification harness, tests) can verify containment independently.

The six unweighted gaps are curvature bands times one scale factor each,
tabulated on :func:`gap_bounds`.  The two weighted gaps, for an
interval [a, b] and a weight g, scale the band by an oracle moment:

* weighted trapezoid  (f(a)+f(b))/2 ∫g - ∫fg            in ∫(t-a)(b-t)g/2 · [m, M]
* weighted midpoint   ∫fg - f((a+b)/2) ∫g               in ∫(2t-a-b)²g/8 · [m, M]

:data:`RULES` pairs each rule with the inputs it needs, its enclosure
and its oracle target, all read from one :class:`Problem`; the CLI and
the falsification harness both iterate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

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
    SymmetryViolated,
    WeightSpec,
)
from .expr import FunctionSpec, require_convex
from .quadrature import (
    classify_weight,
    integrate,
    moment_ab,
    moment_center,
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
    "complement_weight_chains",
    "h1_functional",
    "h2_functional",
    "hh_gap_monotone",
    "refined_gap_chains",
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


def _symmetric_weight(g: WeightLike, interval: Interval) -> WeightSpec:
    ws = _as_weight(g, interval)
    if not ws.symmetric:
        raise SymmetryViolated(
            f"weight {ws.function.text!r} is not symmetric about {ws.center}"
        )
    return ws


def _barycentre(nodes: NodeWeights, interval: Interval) -> float:
    """A = (pa + qb)/(p + q); the midpoint when p = q."""
    return (nodes.p * interval.a + nodes.q * interval.b) / (nodes.p + nodes.q)


def _window(nodes: NodeWeights, interval: Interval, y: float) -> Interval:
    """The window [A - y, A + y] around the barycentre A."""
    center = _barycentre(nodes, interval)
    return Interval(center - y, center + y)


def _oracle(result: QuadResult, what: str) -> float:
    if not result.converged:
        raise OracleInconclusive(f"oracle did not converge for {what}", result.value)
    return result.value


def _integral(f, interval: Interval, tol: float, what: str) -> float:
    return _oracle(integrate(f, interval, tol), what)


# --------------------------------------------------------------------------
# Unweighted and weighted sandwich enclosures
# --------------------------------------------------------------------------


def hermite_hadamard(f: FunctionSpec, interval: Interval) -> Enclosure:
    """Enclosure (f(midpoint), (f(a)+f(b))/2) for the integral mean of
    a convex f.

    Raises:
        ConvexityViolated: unless f'' >= -1e-9 on the interval.
        ParameterOutOfRange: for degenerate intervals (the integral
            mean needs a < b).
    """
    if interval.is_degenerate():
        raise ParameterOutOfRange("integral mean needs a non-degenerate interval")
    require_convex(f, interval)
    lo = f(interval.midpoint)
    hi = 0.5 * (f(interval.a) + f(interval.b))
    return _enclosure(
        lo, hi, f"integral mean of {f.text} over [{interval.a}, {interval.b}]", Rule.HERMITE_HADAMARD
    )


def _sandwich(
    f: FunctionSpec, ws: WeightSpec, interval: Interval, nodes: NodeWeights,
    window: Interval, tol: float, rule: Rule,
) -> Enclosure:
    """The two-node sandwich, after the caller's guards::

        f(A) ∫g  <=  ∫fg  <=  (p f(a) + q f(b))/(p + q) ∫g

    with A = (pa + qb)/(p + q) and both integrals over the window, a
    subinterval of [a, b] centred at A.
    """
    p, q = nodes.p, nodes.q
    G = max(_integral(ws.function, window, tol, "integral of the weight"), 0.0)
    lo = f(_barycentre(nodes, interval)) * G
    hi = (p * f(interval.a) + q * f(interval.b)) / (p + q) * G
    what = f"integral of {f.text} * {ws.function.text} over [{window.a}, {window.b}]"
    return _enclosure(lo, hi, what, rule)


def fejer(
    f: FunctionSpec, g: WeightLike, interval: Interval, tol: float = 1e-10
) -> Enclosure:
    """Weighted sandwich: f(mid) ∫g  <=  ∫fg  <=  (f(a)+f(b))/2 ∫g
    for convex f and a nonnegative weight symmetric about the midpoint.

    This is the equal-node case p = q of :func:`vasic_lackovic`, with
    the window the whole interval.  With g ≡ 1 it reduces to
    :func:`hermite_hadamard` scaled by the interval width (same
    arithmetic shape, oracle-exact ∫g).
    """
    if interval.is_degenerate():
        raise ParameterOutOfRange("weighted sandwich needs a non-degenerate interval")
    ws = _symmetric_weight(g, interval)
    require_convex(f, interval)
    return _sandwich(f, ws, interval, NodeWeights(1.0, 1.0), interval, tol, Rule.FEJER)


# --------------------------------------------------------------------------
# Curvature-band gap enclosures (closed form)
# --------------------------------------------------------------------------


class _Gap(NamedTuple):
    label: str  # the operation name in falsification reports
    description: str
    scale: Callable[[float, float | None], float]  # s(w, λ)
    divisor: float = 1.0
    lam: bool = False


# The six unweighted gaps, in registry order; each band is (m·s/d, M·s/d), see _band.
_GAPS: dict[Rule, _Gap] = {
    Rule.MIDPOINT_GAP: _Gap("hh_midpoint_gap_bounds", "midpoint gap", lambda w, lam: w**2 / 24.0),
    Rule.TRAPEZOID_GAP: _Gap("hh_trapezoid_gap_bounds", "trapezoid gap", lambda w, lam: w**2 / 12.0),
    Rule.CHORD_GAP: _Gap(
        "chord_gap_bounds", "chord gap", lambda w, lam: lam * (1.0 - lam) * w**2 / 2.0, lam=True
    ),
    Rule.SYMMETRIC_PAIR_GAP: _Gap(
        "symmetric_pair_gap_bounds",
        "symmetric pair gap",
        lambda w, lam: (1.0 - 2.0 * lam) ** 2 * w**2 / 8.0,
        lam=True,
    ),
    Rule.BISECTION_MEAN: _Gap(
        "bisection_bounds_mean", "trapezoid-vs-mean bisection gap", lambda w, lam: w**2, 48.0
    ),
    Rule.BISECTION_QUARTER: _Gap(
        "bisection_bounds_quarter", "mean-vs-quarter-points bisection gap", lambda w, lam: w**2, 96.0
    ),
}


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
        ParameterOutOfRange: for a rule outside the six, or for the
            chord and symmetric-pair gaps without ``lam``.
    """
    gap = _GAPS.get(rule)
    if gap is None:
        raise ParameterOutOfRange(f"{rule.value} is not an unweighted gap rule")
    if gap.lam and lam is None:
        raise ParameterOutOfRange(f"{rule.value} needs lambda")
    lv = lam.value if gap.lam else None
    at = "" if lv is None else f" at lambda={lv}"
    what = f"{gap.description}{at} on [{interval.a}, {interval.b}]"
    return _band(c, gap.scale(interval.width, lv), what, rule, gap.divisor)


def fejer_trapezoid_gap_bounds(
    f: FunctionSpec,
    g: WeightLike,
    c: CurvatureBounds,
    interval: Interval,
    tol: float = 1e-10,
) -> Enclosure:
    """Enclosure (m/2, M/2) · ∫(t-a)(b-t)g  for the weighted trapezoid
    gap (f(a)+f(b))/2 ∫g - ∫fg.  The moment is an oracle value; it is
    clamped at zero (it is nonnegative for a nonnegative weight)."""
    ws = _symmetric_weight(g, interval)
    mab = max(_oracle(moment_ab(ws.function, interval, tol), "endpoint moment"), 0.0)
    return _band(
        c,
        0.5 * mab,
        f"weighted trapezoid gap of {f.text} with weight {ws.function.text}",
        Rule.WEIGHTED_TRAPEZOID_GAP,
    )


def fejer_midpoint_gap_bounds(
    f: FunctionSpec,
    g: WeightLike,
    c: CurvatureBounds,
    interval: Interval,
    tol: float = 1e-10,
) -> Enclosure:
    """Enclosure (m/8, M/8) · ∫(2t-a-b)²g  for the weighted midpoint
    gap ∫fg - f((a+b)/2) ∫g."""
    ws = _symmetric_weight(g, interval)
    mc = max(_oracle(moment_center(ws.function, interval, tol), "central moment"), 0.0)
    return _band(
        c,
        mc,
        f"weighted midpoint gap of {f.text} with weight {ws.function.text}",
        Rule.WEIGHTED_MIDPOINT_GAP,
        8.0,
    )


# --------------------------------------------------------------------------
# Complement-weight precision chains
# --------------------------------------------------------------------------


def complement_weight_chains(
    f: FunctionSpec,
    g: WeightLike,
    c: CurvatureBounds,
    interval: Interval,
    tol: float = 1e-10,
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Three-term precision chains obtained by applying the weighted
    gap bounds to the complement weight 1 - g (legal when g maps into
    [0, 1] and is symmetric).

    Writing w = b - a, T = trapezoid gap of f, G = ∫g, FG = ∫fg and
    P = ∫(t-a)(b-t)g, the two chains are::

        w·(T - m w²/12)  >=  (f(a)+f(b))/2·G - FG - (m/2)·P  >=  0
        w·(M w²/12 - T)  >=  (M/2)·P - (f(a)+f(b))/2·G + FG  >=  0

    Each is returned as (left, middle, 0.0); left and middle are built
    from oracle integrals, so orderings should be asserted with slack.
    Note the middle terms are the slack of the weighted gap bounds for
    g itself — with g ≡ 1 they *equal* the left terms.
    """
    ws = _symmetric_weight(g, interval)
    if not ws.range01:
        raise RangeViolated(
            f"complement chains need a weight in [0, 1]; {ws.function.text!r} is not"
        )
    a, b = interval.a, interval.b
    w = interval.width
    avg = 0.5 * (f(a) + f(b))
    F = _integral(f, interval, tol, "integral of f")
    G = _integral(ws.function, interval, tol, "integral of the weight")
    FG = _oracle(integrate(f, interval, tol, ws.function), "integral of f*g")
    P = max(_oracle(moment_ab(ws.function, interval, tol), "endpoint moment"), 0.0)
    left1 = w * avg - F - c.m * w**3 / 12.0
    mid1 = avg * G - FG - 0.5 * c.m * P
    left2 = c.M * w**3 / 12.0 - w * avg + F
    mid2 = 0.5 * c.M * P - avg * G + FG
    return (left1, mid1, 0.0), (left2, mid2, 0.0)


# --------------------------------------------------------------------------
# Monotone endpoint functionals
# --------------------------------------------------------------------------


def _check_x(interval: Interval, x: float) -> None:
    if not (interval.a <= x <= interval.b):
        raise ParameterOutOfRange(
            f"x = {x} outside working interval [{interval.a}, {interval.b}]"
        )


def _endpoint_functional(
    name: str, f: FunctionSpec, g: WeightLike, interval: Interval, x: float, tol: float
) -> float:
    """h1 or h2: the weighted trapezoid or midpoint gap on [a, x], after
    checking x, the weight's direction and convexity."""
    _check_x(interval, x)
    ws = _as_weight(g, interval)
    rises, falls = monotone_profile(ws.function, interval)
    if name == "h1" and rises:
        raise MonotonicityViolated(
            f"h1 needs a nonincreasing weight; {ws.function.text!r} rises"
        )
    if name == "h2" and falls:
        raise MonotonicityViolated(
            f"h2 needs a nondecreasing weight; {ws.function.text!r} falls"
        )
    require_convex(f, interval)
    if x == interval.a:
        return 0.0
    rule = Rule.WEIGHTED_TRAPEZOID_GAP if name == "h1" else Rule.WEIGHTED_MIDPOINT_GAP
    return _oracle(target_gap(rule, f, Interval(interval.a, x), g=ws, tol=tol), name)


def h1_functional(
    f: FunctionSpec, g: WeightLike, interval: Interval, x: float, tol: float = 1e-10
) -> float:
    """h1(x) = (f(a)+f(x))/2 · ∫ₐˣ g  -  ∫ₐˣ f g.

    For convex *nondecreasing* f and nonincreasing g this is
    nondecreasing in x with h1(a) = 0 (the slack of the weighted
    trapezoid bound, restricted to [a, x] and growing with x).
    Convexity alone is not enough: f(x) = -x with g(x) = 1 - x on
    [0, 1] gives h1(x) = -x³/12, strictly decreasing.  The value is
    computed for any convex f; the monotonicity guarantee is the
    caller's to invoke only on the valid domain.  Flat weights are
    accepted (weakly monotone).
    """
    return _endpoint_functional("h1", f, g, interval, x, tol)


def h2_functional(
    f: FunctionSpec, g: WeightLike, interval: Interval, x: float, tol: float = 1e-10
) -> float:
    """h2(x) = ∫ₐˣ f g  -  f((a+x)/2) · ∫ₐˣ g.

    For convex *nondecreasing* f and nondecreasing g this is
    nondecreasing in x with h2(a) = 0 (the midpoint-side slack on
    [a, x]).  As with :func:`h1_functional`, convexity alone does not
    suffice (f(x) = -x with g(x) = x mirrors the counterexample), so
    the monotonicity guarantee applies only to nondecreasing f; the
    value itself is computed for any convex f.
    """
    return _endpoint_functional("h2", f, g, interval, x, tol)


# --------------------------------------------------------------------------
# Subinterval monotonicity and refined chains
# --------------------------------------------------------------------------


def _subinterval_rho(f: FunctionSpec, interval: Interval, x: float, degenerate: str) -> float:
    """Check x, a non-degenerate interval (else raise ``degenerate``) and
    convexity; return ρ = (x-a)/(b-a)."""
    _check_x(interval, x)
    if interval.is_degenerate():
        raise ParameterOutOfRange(degenerate)
    require_convex(f, interval)
    return (x - interval.a) / interval.width


def _gaps(
    f: FunctionSpec, interval: Interval, tol: float, trapezoid: bool = True
) -> tuple[float | None, float]:
    """(trapezoid gap, midpoint gap) of f on the interval from one ∫f.

    With ``trapezoid=False`` the first entry is None and f is not
    evaluated at the endpoints.
    """
    mean = _integral(f, interval, tol, "integral of f") / interval.width
    trap = 0.5 * (f(interval.a) + f(interval.b)) - mean if trapezoid else None
    return trap, mean - f(interval.midpoint)


def hh_gap_monotone(
    f: FunctionSpec, interval: Interval, x: float, tol: float = 1e-10
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Subinterval monotonicity of the two gaps, as ordered pairs.

    Returns ((T_ab, ρ·T_ax), (M_ab, ρ·M_ax)) with ρ = (x-a)/(b-a),
    where T and M are the trapezoid and midpoint gaps on the full
    interval and on [a, x].  For convex f each pair satisfies
    first >= second >= 0.
    """
    rho = _subinterval_rho(f, interval, x, "gap monotonicity needs a non-degenerate interval")
    sub_trap, sub_mid = (0.0, 0.0) if x == interval.a else _gaps(f, Interval(interval.a, x), tol)
    trap, mid = _gaps(f, interval, tol)
    return (trap, rho * sub_trap), (mid, rho * sub_mid)


def refined_gap_chains(
    f: FunctionSpec,
    c: CurvatureBounds,
    interval: Interval,
    x: float,
    tol: float = 1e-10,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Curvature-sharpened subinterval chains for the midpoint gap.

    With G_I the midpoint gap on I, w = b - a, w_x = x - a and
    ρ = w_x / w, returns::

        pair A: ( G_ab - m w²/24,        ρ · (G_ax - m w_x²/24) )
        pair B: ( M w²/8 - G_ab,         ρ · (M w_x²/8 - G_ax) )

    using the *global* curvature band on [a, b] in both components —
    the chains arise from applying subinterval monotonicity to the
    shifted convex functions f - m x²/2 and (for B, with the M w²/8
    padding) M x²/2 - f, so the constants stay those of the full
    interval.  For convex f: first >= second >= 0 in each pair.
    """
    rho = _subinterval_rho(f, interval, x, "refined chains need a non-degenerate interval")
    w = interval.width
    wx = x - interval.a
    g_ab = _gaps(f, interval, tol, trapezoid=False)[1]
    if x == interval.a:
        second_a = second_b = 0.0
    else:
        g_ax = _gaps(f, Interval(interval.a, x), tol, trapezoid=False)[1]
        second_a = rho * (g_ax - c.m * wx**2 / 24.0)
        second_b = rho * (c.M * wx**2 / 8.0 - g_ax)
    pair_a = (g_ab - c.m * w**2 / 24.0, second_a)
    pair_b = (c.M * w**2 / 8.0 - g_ab, second_b)
    return pair_a, pair_b


# --------------------------------------------------------------------------
# Weighted two-node sandwich (asymmetric barycentre)
# --------------------------------------------------------------------------


def vasic_lackovic(
    f: FunctionSpec,
    g: WeightLike,
    weights: NodeWeights,
    interval: Interval,
    y: float,
    tol: float = 1e-10,
) -> Enclosure:
    """Two-node sandwich around the barycentre A = (pa + qb)/(p + q)::

        f(A) ∫ g  <=  ∫ f g  <=  (p f(a) + q f(b))/(p + q) ∫ g

    with all integrals over the window [A - y, A + y], for convex f and
    a nonnegative g symmetric about A.  Admissibility — checked before
    anything is evaluated — requires y <= (b - a) · min(p, q)/(p + q),
    which is exactly the condition keeping the window inside [a, b].
    """
    p, q = weights.p, weights.q
    if y <= 0.0:
        raise ParameterOutOfRange(f"window half-width must be > 0, got {y}")
    radius = interval.width * min(p, q) / (p + q)
    if y > radius:
        raise AdmissibilityViolated(
            f"half-width {y} exceeds admissible radius {radius} for (p, q) = ({p}, {q})"
        )
    window = _window(weights, interval, y)
    require_convex(f, interval)
    ws = _symmetric_weight(g, window)
    return _sandwich(f, ws, interval, weights, window, tol, Rule.VASIC_LACKOVIC)


# --------------------------------------------------------------------------
# Oracle targets
# --------------------------------------------------------------------------


def _integral_mean(f, interval: Interval, tol: float, what: str) -> QuadResult:
    if interval.is_degenerate():
        raise ParameterOutOfRange(f"{what} needs a non-degenerate interval")
    r = integrate(f, interval, tol)
    return QuadResult(r.value / interval.width, r.error_estimate / interval.width, r.evaluations, r.converged)


def target_integral_mean(f, interval: Interval, tol: float = 1e-10) -> QuadResult:
    """Oracle for the integral mean of f (the Hermite–Hadamard target)."""
    return _integral_mean(f, interval, tol, "integral mean")


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
    coefficient that integral carries in the gap.
    """
    a, b = interval.a, interval.b
    if rule is Rule.CHORD_GAP:
        if lam is None:
            raise ParameterOutOfRange("chord gap needs lambda")
        lv = lam.value
        val = lv * f(a) + (1.0 - lv) * f(b) - f(lv * a + (1.0 - lv) * b)
        return QuadResult(val, 0.0, 3, True)
    if rule is Rule.SYMMETRIC_PAIR_GAP:
        if lam is None:
            raise ParameterOutOfRange("symmetric pair gap needs lambda")
        lv = lam.value
        u = lv * a + (1.0 - lv) * b
        v = (1.0 - lv) * a + lv * b
        val = 0.5 * (f(u) + f(v)) - f(0.5 * (a + b))
        return QuadResult(val, 0.0, 3, True)
    if rule in _GAPS:  # the other four compare values of f with its integral mean
        r = _integral_mean(f, interval, tol, rule.value)
        if rule is Rule.MIDPOINT_GAP:
            val = r.value - f(interval.midpoint)
        elif rule is Rule.TRAPEZOID_GAP:
            val = 0.5 * (f(a) + f(b)) - r.value
        elif rule is Rule.BISECTION_MEAN:
            val = 0.5 * (0.5 * (f(a) + f(b)) + f(interval.midpoint)) - r.value
        else:
            val = r.value - 0.5 * (f(0.25 * (3.0 * a + b)) + f(0.25 * (a + 3.0 * b)))
        return QuadResult(val, r.error_estimate, r.evaluations, r.converged)
    if rule not in (Rule.WEIGHTED_TRAPEZOID_GAP, Rule.WEIGHTED_MIDPOINT_GAP):
        raise ParameterOutOfRange(f"{rule.value} is not a gap rule")
    if g is None:
        raise ParameterOutOfRange(f"{rule.value} needs a weight")
    gfn = _weight_function(g)
    rg = integrate(gfn, interval, tol)
    rfg = integrate(f, interval, tol, gfn)
    if rule is Rule.WEIGHTED_TRAPEZOID_GAP:
        coef = 0.5 * (f(a) + f(b))
        val = coef * rg.value - rfg.value
    else:
        coef = f(interval.midpoint)
        val = rfg.value - coef * rg.value
    err = abs(coef) * rg.error_estimate + rfg.error_estimate
    return QuadResult(val, err, rg.evaluations + rfg.evaluations, rg.converged and rfg.converged)


def target_vasic_lackovic(
    f, g: WeightLike, weights: NodeWeights, interval: Interval, y: float, tol: float = 1e-10
) -> QuadResult:
    """Oracle for ∫ f g over the admissible window around the barycentre."""
    return target_fejer(f, g, _window(weights, interval, y), tol)


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
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


@dataclass(frozen=True)
class RuleSpec:
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
