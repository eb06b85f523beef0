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
rounding floor below which no further split can resolve it.  Any
other panel is halved.  The result's error estimate is the sum of the
panel errors.  Hitting the depth cap never raises — the panel is
accepted and the result carries ``converged=False``, and callers
decide (the falsification harness, for instance, records such checks
as inconclusive rather than failed).  A panel whose value is not
finite (an integrand that overflows or returns NaN) is accepted
unconverged at once, since no split can resolve it.  A
:class:`~convexcert.expr.FunctionSpec` is evaluated in batches, and
the node values of its 8 starting panels on an interval are kept in
its memo, shared by every integral and moment there.

Every weight check — sign, ``[0, 1]`` range, symmetry and
monotonicity — is sampled, not certified: it reads one grid of 101
uniform points with a slack of 1e-9, and steps within 1e-12 count as
ties in the monotonicity scan.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from contextlib import suppress
from functools import partial
from operator import mul

from .core import (
    DomainError,
    Interval,
    Monotonicity,
    NegativeWeight,
    QuadResult,
    WeightSpec,
    check_tolerance,
)
from .expr import FunctionSpec, _remember

__all__ = [
    "integrate",
    "moment_ab",
    "moment_center",
    "check_symmetry",
    "check_monotone",
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

# grid size and slack of every sampled weight check
_SAMPLES = 101
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
    large-magnitude integrands converge.  Otherwise it is halved; a panel
    at :data:`MAX_DEPTH` halvings, or with a non-finite value, is accepted
    unconverged.

    When ``f`` is a :class:`FunctionSpec` (and ``g``, if given, is one
    too), the result is remembered in ``f``'s memo under (g, interval,
    tol), so integrating the same pair again returns the identical
    result, evaluation count included, without evaluating anything.
    A spec is evaluated in batches, and the 120 node values of its 8
    starting panels on an interval are remembered too, so ``∫f``, ``∫g``
    and ``∫f·g`` on one interval evaluate each of f and g there once.
    Plain callables are integrated afresh, point by point, on every call.

    Returns:
        QuadResult with the sum of the accepted panels' K15 values, the
        sum of their ``|K15 - G7|``, the number of function evaluations
        (15 per panel, split or accepted, whether its node values were
        computed or shared), and a convergence flag which is False iff
        some panel hit the depth cap or was not finite, or the sum left
        the float range (the value is then ``inf``).
    """
    check_tolerance(tol)
    a, b = interval.a, interval.b
    owner = f if g is None or isinstance(g, FunctionSpec) else None
    return _remember(owner, ("integrate", g, a, b, tol), lambda: _adaptive(_integrand(f, g), a, b, tol))


# An integrand in batch form: (panels, floor) -> its values at the 15
# Kronrod nodes of each panel, where floor is the interval (a, b) when the
# panels are the 8 starting panels of [a, b], and None for a split panel.
_Panels = list[tuple[float, float]]
_Sampler = Callable[[_Panels, tuple[float, float] | None], list[float]]


def _nodes(panels: _Panels) -> list[float]:
    """The 15 Kronrod nodes of each panel, panel after panel."""
    halves = ((0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in panels)
    return [center + half * x for center, half in halves for x in _NODES]


def _at(f: Callable[[float], float], xs: list[float]) -> list[float]:
    """f at each of ``xs``: one batch for a spec, point by point for any other callable."""
    return f._values(xs) if isinstance(f, FunctionSpec) else [f(x) for x in xs]


def _sample(f: Callable[[float], float], panels: _Panels, floor: tuple[float, float] | None) -> list[float]:
    """f at the nodes of the panels; a spec remembers a floor, never a
    split panel, so its memo stays bounded."""
    if floor is None:
        return _at(f, _nodes(panels))
    return _remember(f, ("floor", *floor), lambda: _at(f, _nodes(panels)))


def _integrand(f: Callable[[float], float], g: Callable[[float], float] | None) -> _Sampler:
    if g is None:
        return partial(_sample, f)
    if not (isinstance(f, FunctionSpec) and isinstance(g, FunctionSpec)):
        return lambda panels, floor: [f(t) * g(t) for t in _nodes(panels)]

    def product(panels: _Panels, floor: tuple[float, float] | None) -> list[float]:
        try:
            return list(map(mul, _sample(f, panels, floor), _sample(g, panels, floor)))
        except DomainError:  # point by point, so the factor that fails at the first node raises
            return [f(t) * g(t) for t in _nodes(panels)]

    return product


def _adaptive(sample: _Sampler, a: float, b: float, tol: float) -> QuadResult:
    """The adaptive G7/K15 run behind :func:`integrate`."""
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)

    width = b - a
    count = 1 << _MIN_DEPTH
    step = width / count
    edges = [a + k * step for k in range(count)] + [b]
    starting = list(zip(edges, edges[1:]))
    n = len(_NODES)
    try:
        floor = sample(starting, (a, b))
    except DomainError:  # evaluate panel by panel instead, so the first failure in panel order raises
        floor = None
    # (lo, hi, depth, node values, or None while not yet evaluated)
    stack = [
        (lo, hi, _MIN_DEPTH, None if floor is None else floor[k * n : (k + 1) * n])
        for k, (lo, hi) in enumerate(starting)
    ][::-1]
    values: list[float] = []
    errors: list[float] = []
    converged = True
    evals = 0
    while stack:
        lo, hi, depth, fx = stack.pop()
        if fx is None:
            fx = sample([(lo, hi)], None)
        value, err, mass = _kronrod(fx, lo, hi)
        evals += n
        if not math.isfinite(value):
            converged = False
        elif not (err <= tol * (hi - lo) / width or err <= _ROUNDOFF * mass):
            if depth < MAX_DEPTH:
                mid = 0.5 * (lo + hi)
                stack.append((mid, hi, depth + 1, None))
                stack.append((lo, mid, depth + 1, None))
                continue
            converged = False
        values.append(value)
        errors.append(err)
    try:
        return QuadResult(math.fsum(values), math.fsum(errors), evals, converged)
    except (OverflowError, ValueError):  # a sum beyond the float range, or inf + (-inf)
        return QuadResult(sum(values), sum(errors), evals, False)


def _kronrod(fx: list[float], lo: float, hi: float) -> tuple[float, float, float]:
    """(K15 value, |K15 - G7|, K15 value of |f|) of one panel from its 15 node values."""
    half = 0.5 * (hi - lo)
    k15 = sum(map(mul, _K15, fx))
    g7 = sum(map(mul, _G7, fx[1::2]))
    mass = sum(map(mul, _K15, map(abs, fx)))
    return half * k15, abs(half * (k15 - g7)), half * mass


def _moment(
    g: Callable[[float], float], interval: Interval, tol: float, factor: Callable[[float, float], float]
) -> QuadResult:
    """∫ factor(t, g(t)) dt over the interval; g's floor is shared with its other integrals."""
    check_tolerance(tol)

    def sample(panels: _Panels, floor: tuple[float, float] | None) -> list[float]:
        return list(map(factor, _nodes(panels), _sample(g, panels, floor)))

    return _adaptive(sample, interval.a, interval.b, tol)


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


def moment_center(
    g: Callable[[float], float], interval: Interval, tol: float = 1e-10
) -> QuadResult:
    """Oracle value of the central moment  ∫ (2t - a - b)² g(t) dt,
    remembered in ``g``'s memo like :func:`integrate`."""
    a, b = interval.a, interval.b
    return _remember(
        g, ("moment_center", a, b, tol), lambda: _moment(g, interval, tol, lambda t, gt: (2.0 * t - a - b) ** 2 * gt)
    )


def _grid(interval: Interval) -> list[float]:
    a, b = interval.a, interval.b
    step = (b - a) / (_SAMPLES - 1)
    return [a + k * step for k in range(_SAMPLES)]


def _mirrors_match(g, interval: Interval, values: Iterable[float]) -> bool:
    """Whether g(a + b - x) matches each grid value g(x), up to the first miss.

    A spec's mirrored values come in one batch; if that batch fails, they
    are taken point by point, so a miss before the failing point still
    answers False, as it does for any other callable.
    """
    a, b = interval.a, interval.b
    mirrors = [a + b - x for x in _grid(interval)]
    mirrored: Iterable[float] = map(g, mirrors)
    if isinstance(g, FunctionSpec):
        with suppress(DomainError):
            mirrored = g._values(mirrors)
    for gx, gm in zip(values, mirrored):
        if abs(gx - gm) > _SLACK * (1.0 + abs(gx)):
            return False
    return True


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


def check_symmetry(g: Callable[[float], float], interval: Interval) -> bool:
    """Sampled check that g is symmetric about the interval midpoint:
    ``|g(x) - g(a + b - x)| <= 1e-9 * (1 + |g(x)|)`` on the grid."""
    return _mirrors_match(g, interval, map(g, _grid(interval)))


def monotone_profile(g: Callable[[float], float], interval: Interval) -> tuple[bool, bool]:
    """(any rise, any fall) of g between consecutive grid points,
    remembered in ``g``'s memo like :func:`integrate`."""
    key = ("monotone_profile", interval.a, interval.b)
    return _remember(g, key, lambda: _steps(_at(g, _grid(interval))))


def check_monotone(g: Callable[[float], float], interval: Interval) -> Monotonicity:
    """Classify sampled monotonicity with a 1e-12 tie tolerance.

    A weight that is flat everywhere is weakly monotone in both
    directions; it classifies as DECREASING here, and the operations
    that require one direction accept flat weights either way.
    """
    return _monotonicity(*monotone_profile(g, interval))


def classify_weight(g: FunctionSpec, interval: Interval) -> WeightSpec:
    """Sample a weight once on the grid (and at the mirrored points) and
    record its flags, remembered in ``g``'s memo like :func:`integrate`.

    Raises:
        NegativeWeight: if any sample is below ``-1e-9``.
    """
    # keyed on the reprs, as g may tell -0.0 from 0.0; the memo keeps the
    # flags, not the spec, which holds g: a cycle through g's memo would
    # keep g alive until the cyclic collector runs
    key = ("classify_weight", repr(interval.a), repr(interval.b))
    symmetric, monotone, range01 = _remember(g, key, lambda: _weight_flags(g, interval))
    return WeightSpec(g, interval.midpoint, symmetric, monotone, range01)


def _weight_flags(g: FunctionSpec, interval: Interval) -> tuple[bool, Monotonicity, bool]:
    values = _at(g, _grid(interval))
    lo, hi = min(values), max(values)
    if lo < -_SLACK:
        raise NegativeWeight(f"weight {g.text!r} reaches {lo} on the interval")
    return _mirrors_match(g, interval, values), _monotonicity(*_steps(values)), hi <= 1.0 + _SLACK
