"""Numerical oracle (adaptive Gauss–Kronrod quadrature) and sampled weight checks.

The integrator is the package's only source of "true" integral values.
It is the 7-point Gauss / 15-point Kronrod pair of QUADPACK's ``qk15``
(Piessens et al., *QUADPACK*, Springer 1983), applied adaptively from
an explicit stack.  It starts from 8 equal panels, so a narrow feature
cannot hide inside one coarse panel.  On each panel the K15 sum is the
value and ``|K15 - G7|`` the error estimate, reported as is (without
QUADPACK's rescaling, which can shrink it below the real gap).  A panel
is accepted when its error is at most the tolerance *pro-rated by panel
width*, so the accepted errors sum to at most the requested absolute
tolerance, or when it is at most ``50·ε·∫|f|`` over the panel, the
rounding floor below which no further split can resolve it; ``∫|f|``
is computed only for a panel that misses the tolerance test.  Any
other panel is halved.  The result's error estimate is the sum of the
panel errors.  Hitting the depth cap never raises — the panel is
accepted and the result carries ``converged=False``, and callers
decide (the falsification harness, for instance, records such checks
as inconclusive rather than failed).  A panel whose value is not
finite (an integrand that overflows or returns NaN) is accepted
unconverged at once, since no split can resolve it.  The 8 starting
panels of an interval and their Kronrod nodes are built once and
shared by every integrand there.  A
:class:`~convexcert.expr.FunctionSpec` is evaluated in batches, and
the node values of its 8 starting panels on an interval are kept in
its memo, shared by every integral and moment there.  So are the
accepted panels of each run: an integral over [a, x] inside an
interval [a, b] is read from them as a prefix sum, plus one adaptive
part-panel where x falls inside a panel, and remembered too.

Every weight check — sign, ``[0, 1]`` range and monotonicity — is
sampled, not certified: it reads g at a, at the 120 Kronrod nodes of
the 8 starting panels in order, and at b, with a slack of 1e-9, and
steps within 1e-12 count as ties in the monotonicity scan.  The nodes
are read through the weight's memo of that floor, so the first integral
or moment against g on the interval evaluates nothing new.  No rule
needs a symmetric weight, so symmetry is not checked.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache, partial
from operator import itemgetter, mul

from .core import (
    DomainError,
    Interval,
    Monotonicity,
    NegativeWeight,
    QuadResult,
    WeightSpec,
    _midpoint,
    check_tolerance,
)
from .expr import FunctionSpec, _remember

__all__ = [
    "integrate",
    "moment_ab",
    "moment_about",
    "monotone_profile",
    "classify_weight",
    "MAX_DEPTH",
]

# halvings at which a panel is accepted unconverged, and the halvings
# of the starting grid (2**3 = 8 equal panels); both are read at call time
MAX_DEPTH = 50
_MIN_DEPTH = 3

# qk15 on [-1, 1]: the 15 Kronrod nodes in increasing order, with the
# 7 Gauss nodes at the odd positions, and the weights of both rules
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_NODES = tuple(-x for x in _XK) + (0.0,) + _XK[::-1]
_K15 = _WK + (0.209482141084727828012999174891714,) + _WK[::-1]
_G7 = _WG + (0.417959183673469387755102040816327,) + _WG[::-1]

# qk15's rounding floor: a panel error at most this times ∫|f| over the
# panel is below what any further split can resolve
_ROUNDOFF = 50.0 * sys.float_info.epsilon

# slack of every sampled weight check
_SLACK = 1e-9

# tolerance for "equal" consecutive samples in the monotonicity scan
_TIE_TOL = 1e-12


def integrate(
    f: Callable[[float], float],
    interval: Interval,
    tol: float = 1e-10,
    g: Callable[[float], float] | None = None,
) -> QuadResult:
    """Integrate ``f``, or ``f·g`` when a weight ``g`` is given, over the
    interval with adaptive Gauss–Kronrod (G7/K15).

    The interval starts as 8 equal panels, so an accidental agreement of
    the first coarse rules cannot accept a panel before the integrand has
    been meaningfully sampled.  A panel of width ``w`` is accepted once
    ``|K15 - G7| <= tol * w / width`` (``tol`` is absolute for the whole
    interval) or once ``|K15 - G7|`` is at most ``50·ε`` times the K15
    integral of ``|f|`` over the panel, the rounding floor that lets
    large-magnitude integrands converge; that integral is computed only
    for a panel that misses the first test.  Otherwise it is halved; a panel
    at :data:`MAX_DEPTH` halvings, or with a non-finite value, is accepted
    unconverged.

    When ``f`` is a :class:`FunctionSpec` (and ``g``, if given, is one
    too), the run's accepted panels and its result are remembered in
    ``f``'s memo under (g, interval, tol), so integrating the same pair
    again returns the identical result, evaluation count included,
    without evaluating anything, and an integral over [a, x] inside the
    interval is read from the panels as a prefix sum (see
    :func:`_integral_to`).  An integral over [a, x] asked of this
    function is its own run: it never reads another interval's panels.
    The starting panels and their 120 nodes are built once per interval
    and shared by every integrand.  A spec is evaluated in batches, and
    its 120 node values on an interval are remembered too, so ``∫f``,
    ``∫g`` and ``∫f·g`` on one interval evaluate each of f and g there
    once.
    Plain callables are integrated afresh, point by point, on every call.

    Returns:
        QuadResult with the sum of the accepted panels' K15 values, the
        sum of their ``|K15 - G7|``, the number of function evaluations
        (15 per panel, split or accepted, whether its node values were
        computed or shared), and a convergence flag which is False iff
        some panel hit the depth cap or was not finite, or the sum left
        the float range (the value is then ``inf``).
    """
    return _table(f, g, interval.a, interval.b, tol)[1]


# An accepted panel: (right edge, K15 value, |K15 - G7|, converged, halvings of [a, b])
_Panel = tuple[float, float, float, bool, int]


def _table(
    f: Callable[[float], float], g: Callable[[float], float] | None, a: float, b: float, tol: float
) -> tuple[tuple[_Panel, ...], QuadResult]:
    """The accepted panels of the run over [a, b], in order, and their
    sum; remembered in ``f``'s memo like :func:`integrate`."""
    check_tolerance(tol)
    owner = f if g is None or isinstance(g, FunctionSpec) else None
    return _remember(owner, ("panels", g, a, b, tol), lambda: _adaptive(_integrand(f, g), a, b, tol))


def _integral_to(
    f: Callable[[float], float],
    interval: Interval,
    xs: Sequence[float],
    tol: float,
    g: Callable[[float], float] | None = None,
) -> list[QuadResult]:
    """∫ f (or f·g) over [a, x] for each x of ``xs`` in [a, b], read from
    the panels of the run over [a, b] as prefix sums, in one call.

    At x = b this is :func:`integrate` itself, at x = a zero.  Otherwise
    the panels whose right edge is at most x are summed, and the one
    panel that x cuts is replaced by an adaptive run over [edge, x],
    started at that panel's depth, so :data:`MAX_DEPTH` still counts
    halvings of [a, b], and accepted at the tolerance pro-rated over
    [a, x].  Every panel read was accepted with an error at most
    ``tol * w / (b - a) <= tol * w / (x - a)``, so ``tol`` holds
    absolutely on [a, x].  The evaluation count is that of the [a, b]
    run plus the part-panel's.  Each result is remembered in ``f``'s memo
    like the run itself, so a second read of [a, x] runs no part-panel.
    """
    a, b = interval.a, interval.b
    owner = f if g is None or isinstance(g, FunctionSpec) else None
    panels, whole = _table(f, g, a, b, tol)

    def prefix(x: float) -> QuadResult:
        if x in (a, b):
            return whole if x == b else QuadResult(0.0, 0.0, 0, True)
        k = bisect_right(panels, x, key=itemgetter(0))
        edge = panels[k - 1][0] if k else a
        read, evals = list(panels[:k]), whole.evaluations
        if edge < x:
            part, part_evals = _refine(_integrand(f, g), [(edge, x, panels[k][4], None)], tol, x - a)
            read += part
            evals += part_evals
        return _sum(read, evals)

    return [_remember(owner, ("prefix", g, a, b, x, tol), partial(prefix, x)) for x in xs]


# An integrand in batch form: (nodes, floor) -> its values at the nodes,
# the 15 Kronrod nodes of each panel in turn, where floor is the interval
# (a, b) when the panels are the 8 starting panels of [a, b], and None for
# a split panel.
_Sampler = Callable[[Sequence[float], tuple[float, float] | None], list[float]]


def _nodes(panels: Iterable[tuple[float, float]]) -> list[float]:
    """The 15 Kronrod nodes of each panel, panel after panel."""
    halves = ((_midpoint(lo, hi), 0.5 * (hi - lo)) for lo, hi in panels)
    return [center + half * x for center, half in halves for x in _NODES]


@lru_cache(maxsize=8, typed=True)
def _floor(a: float, b: float, count: int) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """The ``count`` equal starting panels of [a, b] and their Kronrod
    nodes, shared by every integrand on the interval.  Numbers only, so
    no spec outlives its memo here; typed, so an int end, whose
    subtraction is exact, never shares a float's entry.  An end at -0.0 shares the
    entry of 0.0: the edges then differ at most in the sign of a zero,
    which no arithmetic of the loop can tell, and the nodes are the same,
    as the ("floor", a, b) memo key assumes."""
    step = (b - a) / count
    edges = [a + k * step for k in range(count)] + [b]
    starting = tuple(zip(edges, edges[1:]))
    return starting, tuple(_nodes(starting))


def _at(f: Callable[[float], float], xs: Sequence[float]) -> list[float]:
    """f at each of ``xs``: one batch for a spec, point by point for any other callable."""
    return f._values(xs) if isinstance(f, FunctionSpec) else [f(x) for x in xs]


def _sample(
    f: Callable[[float], float], xs: Sequence[float], floor: tuple[float, float] | None
) -> list[float]:
    """f at the nodes ``xs``; a spec remembers a floor, never a split
    panel, so its memo stays bounded."""
    if floor is None:
        return _at(f, xs)
    return _remember(f, ("floor", *floor), lambda: _at(f, xs))


def _integrand(f: Callable[[float], float], g: Callable[[float], float] | None) -> _Sampler:
    if g is None:
        return partial(_sample, f)
    if not (isinstance(f, FunctionSpec) and isinstance(g, FunctionSpec)):
        return lambda xs, floor: [f(t) * g(t) for t in xs]

    def product(xs: Sequence[float], floor: tuple[float, float] | None) -> list[float]:
        try:
            return list(map(mul, _sample(f, xs, floor), _sample(g, xs, floor)))
        except DomainError:  # point by point, so the factor that fails at the first node raises
            return [f(t) * g(t) for t in xs]

    return product


def _adaptive(sample: _Sampler, a: float, b: float, tol: float) -> tuple[tuple[_Panel, ...], QuadResult]:
    """The adaptive G7/K15 run behind :func:`integrate`: its accepted
    panels, in order, and their sum."""
    if a == b:
        return (), QuadResult(0.0, 0.0, 0, True)

    starting, xs = _floor(a, b, 1 << _MIN_DEPTH)
    n = len(_NODES)
    try:
        floor = sample(xs, (a, b))
    except DomainError:  # evaluate panel by panel instead, so the first failure in panel order raises
        floor = None
    stack = [
        (lo, hi, _MIN_DEPTH, None if floor is None else floor[k * n : (k + 1) * n])
        for k, (lo, hi) in enumerate(starting)
    ][::-1]
    panels, evals = _refine(sample, stack, tol, b - a)
    return tuple(panels), _sum(panels, evals)


def _refine(
    sample: _Sampler, stack: list[tuple[float, float, int, list[float] | None]], tol: float, width: float
) -> tuple[list[_Panel], int]:
    """Accept or halve the panels of ``stack`` (lo, hi, depth, node values
    or None while not yet evaluated), last first, against ``tol`` pro-rated
    over ``width``; returns the accepted panels in order and the evaluations."""
    n = len(_NODES)
    panels: list[_Panel] = []
    evals = 0
    while stack:
        lo, hi, depth, fx = stack.pop()
        if fx is None:
            fx = sample(_nodes([(lo, hi)]), None)
        value, err = _kronrod(fx, lo, hi)
        evals += n
        converged = math.isfinite(value)
        if converged and not (err <= tol * (hi - lo) / width or err <= _ROUNDOFF * _mass(fx, lo, hi)):
            if depth < MAX_DEPTH:
                mid = _midpoint(lo, hi)
                stack.append((mid, hi, depth + 1, None))
                stack.append((lo, mid, depth + 1, None))
                continue
            converged = False
        panels.append((hi, value, err, converged, depth))
    return panels, evals


def _sum(panels: Sequence[_Panel], evals: int) -> QuadResult:
    """The QuadResult of accepted panels: sums of their values and errors."""
    values = [p[1] for p in panels]
    errors = [p[2] for p in panels]
    converged = all(p[3] for p in panels)
    try:
        return QuadResult(math.fsum(values), math.fsum(errors), evals, converged)
    except (OverflowError, ValueError):  # a sum beyond the float range, or inf + (-inf)
        return QuadResult(sum(values), sum(errors), evals, False)


def _kronrod(fx: list[float], lo: float, hi: float) -> tuple[float, float]:
    """(K15 value, |K15 - G7|) of one panel from its 15 node values."""
    half = 0.5 * (hi - lo)
    k15 = sum(map(mul, _K15, fx))
    g7 = sum(map(mul, _G7, fx[1::2]))
    return half * k15, abs(half * (k15 - g7))


def _mass(fx: list[float], lo: float, hi: float) -> float:
    """The K15 value of |f| over one panel, read only when the panel
    misses the tolerance test."""
    return 0.5 * (hi - lo) * sum(map(mul, _K15, map(abs, fx)))


def _moment(
    g: Callable[[float], float], interval: Interval, tol: float, factor: Callable[[float, float], float]
) -> QuadResult:
    """∫ factor(t, g(t)) dt over the interval; g's floor is shared with its other integrals."""
    check_tolerance(tol)

    def sample(xs: Sequence[float], floor: tuple[float, float] | None) -> list[float]:
        return list(map(factor, xs, _sample(g, xs, floor)))

    return _adaptive(sample, interval.a, interval.b, tol)[1]


def moment_ab(
    g: Callable[[float], float], interval: Interval, tol: float = 1e-10
) -> QuadResult:
    """Oracle value of the endpoint moment  ∫ (t - a)(b - t) g(t) dt,
    remembered in ``g``'s memo like :func:`integrate`.

    Nonnegative for any nonnegative weight (the integrand is a product
    of nonnegative factors on the interval).
    """
    a, b = interval.a, interval.b
    return _remember(
        g, ("moment_ab", a, b, tol), lambda: _moment(g, interval, tol, lambda t, gt: (t - a) * (b - t) * gt)
    )


def moment_about(
    g: Callable[[float], float], interval: Interval, y: float, k: int, tol: float = 1e-10
) -> QuadResult:
    """Oracle value of the moment  ∫ (t - y)^k g(t) dt  about the point y,
    remembered in ``g``'s memo like :func:`integrate`.  The weighted
    rules take k = 1 about the centre of their interval, and k = 2
    about the weight's barycentre."""
    a, b = interval.a, interval.b
    return _remember(
        g, ("moment_about", a, b, y, k, tol), lambda: _moment(g, interval, tol, lambda t, gt: (t - y) ** k * gt)
    )


def _weight_sample(g: Callable[[float], float], interval: Interval) -> list[float]:
    """g at a, at the Kronrod nodes of the starting panels in order, and
    at b; the nodes are read through g's floor memo, which the oracle's
    runs against g on the interval share.  A degenerate interval reads
    its one point."""
    a, b = interval.a, interval.b
    if a == b:
        return [g(a)]
    nodes = _floor(a, b, 1 << _MIN_DEPTH)[1]
    return [g(a), *_sample(g, nodes, (a, b)), g(b)]


def _steps(values: list[float]) -> tuple[bool, bool]:
    rises = falls = False
    for prev, cur in zip(values, values[1:]):
        d = cur - prev
        if d > _TIE_TOL:
            rises = True
        elif d < -_TIE_TOL:
            falls = True
    return rises, falls


def _monotonicity(rises: bool, falls: bool) -> Monotonicity:
    if rises and falls:
        return Monotonicity.NEITHER
    if rises:
        return Monotonicity.INCREASING
    return Monotonicity.DECREASING


def monotone_profile(g: Callable[[float], float], interval: Interval) -> tuple[bool, bool]:
    """(any rise, any fall) of g between consecutive sample points,
    remembered in ``g``'s memo like :func:`integrate`."""
    key = ("monotone_profile", interval.a, interval.b)
    return _remember(g, key, lambda: _steps(_weight_sample(g, interval)))


def classify_weight(g: FunctionSpec, interval: Interval) -> WeightSpec:
    """Sample a weight once and record its flags, remembered
    in ``g``'s memo like :func:`integrate`.

    A weight that is flat everywhere is weakly monotone in both
    directions; it classifies as DECREASING, and the operations that
    require one direction accept flat weights either way.

    Raises:
        NegativeWeight: if any sample is below ``-1e-9``.
    """
    # keyed on the signs of the ends too, as g may tell -0.0 from 0.0; the
    # memo keeps the flags, not the spec, which holds g: a cycle through
    # g's memo would keep g alive until the cyclic collector runs
    a, b = interval.a, interval.b
    key = ("classify_weight", a, math.copysign(1.0, a), b, math.copysign(1.0, b))
    monotone, range01 = _remember(g, key, lambda: _weight_flags(g, interval))
    return WeightSpec(g, monotone, range01)


def _weight_flags(g: FunctionSpec, interval: Interval) -> tuple[Monotonicity, bool]:
    """The flags from one sample, whose steps also answer
    :func:`monotone_profile` on the interval afterwards."""
    values = _weight_sample(g, interval)
    lo, hi = min(values), max(values)
    if lo < -_SLACK:
        raise NegativeWeight(f"weight {g.text!r} reaches {lo} on the interval")
    steps = _remember(g, ("monotone_profile", interval.a, interval.b), lambda: _steps(values))
    return _monotonicity(*steps), hi <= 1.0 + _SLACK
