"""Numerical oracle (adaptive Simpson quadrature) and sampled hypothesis checks.

The integrator is the package's only source of "true" integral values.
It subdivides until the Richardson error estimate on each subinterval
is below the tolerance *pro-rated by subinterval width*, so the local
errors sum to at most the requested absolute tolerance for the whole
interval.  Hitting the depth cap never raises — it returns the best
estimate with ``converged=False`` and lets callers decide (the
falsification harness, for instance, records such checks as
inconclusive rather than failed).

Every hypothesis check — f'' >= 0, and a weight's sign, ``[0, 1]``
range, symmetry and monotonicity — is sampled, not certified: it reads
one grid of 101 uniform points with a slack of 1e-9, and steps within
1e-12 count as ties in the monotonicity scan.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .core import (
    ConvexityViolated,
    Interval,
    Monotonicity,
    NegativeWeight,
    NonSmoothExpression,
    ParameterOutOfRange,
    QuadResult,
    WeightSpec,
)
from .expr import FunctionSpec

__all__ = [
    "integrate",
    "moment_ab",
    "moment_center",
    "check_symmetry",
    "check_monotone",
    "monotone_profile",
    "classify_weight",
    "require_convex",
    "MAX_DEPTH",
]

MAX_DEPTH = 50

# grid size and slack of every sampled check
_SAMPLES = 101
_SLACK = 1e-9

# tolerance for "equal" consecutive samples in the monotonicity scan
_TIE_TOL = 1e-12


def integrate(
    f: Callable[[float], float],
    interval: Interval,
    tol: float = 1e-10,
    max_depth: int = MAX_DEPTH,
    min_depth: int = 3,
) -> QuadResult:
    """Integrate ``f`` over the interval with adaptive Simpson.

    Each subinterval is accepted once ``|S(left) + S(right) - S(whole)| / 15``
    drops below ``tol * (subwidth / width)``; the returned value uses the
    Richardson-extrapolated sum.  ``tol`` is absolute.  Acceptance is
    deferred until ``min_depth`` (default 3, i.e. at least 8 panels) so
    an accidental agreement of the first coarse rules cannot terminate
    the recursion before the integrand has been meaningfully sampled.

    Returns:
        QuadResult with the estimate, a summed error estimate, the
        number of function evaluations, and a convergence flag which is
        False iff some subinterval hit the depth cap.
    """
    if not tol > 0.0:
        raise ParameterOutOfRange(f"tolerance must be > 0, got {tol}")
    if not 0 <= min_depth <= max_depth:
        raise ParameterOutOfRange(
            f"need 0 <= min_depth <= max_depth, got {min_depth}, {max_depth}"
        )
    a, b = interval.a, interval.b
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)

    evals = 0

    def call(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    width = b - a
    converged = True
    total_err = 0.0

    def simpson(lo: float, flo: float, fmid: float, hi: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(
        lo: float,
        flo: float,
        mid: float,
        fmid: float,
        hi: float,
        fhi: float,
        whole: float,
        depth: int,
    ) -> float:
        nonlocal converged, total_err
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = call(lm), call(rm)
        left = simpson(lo, flo, flm, mid, fmid)
        right = simpson(mid, fmid, frm, hi, fhi)
        err = (left + right - whole) / 15.0
        accepted = depth >= min_depth and abs(err) <= tol * (hi - lo) / width
        if accepted or depth >= max_depth:
            if not accepted:
                converged = False
            total_err += abs(err)
            return left + right + err
        return recurse(lo, flo, lm, flm, mid, fmid, left, depth + 1) + recurse(
            mid, fmid, rm, frm, hi, fhi, right, depth + 1
        )

    fa, fb = call(a), call(b)
    mid = 0.5 * (a + b)
    fmid = call(mid)
    whole = simpson(a, fa, fmid, b, fb)
    value = recurse(a, fa, mid, fmid, b, fb, whole, 0)
    return QuadResult(value, total_err, evals, converged)


def moment_ab(
    g: Callable[[float], float], interval: Interval, tol: float = 1e-10
) -> QuadResult:
    """Oracle value of the endpoint moment  ∫ (t - a)(b - t) g(t) dt.

    Nonnegative for any nonnegative weight (the integrand is a product
    of nonnegative factors on the interval).
    """
    a, b = interval.a, interval.b
    return integrate(lambda t: (t - a) * (b - t) * g(t), interval, tol)


def moment_center(
    g: Callable[[float], float], interval: Interval, tol: float = 1e-10
) -> QuadResult:
    """Oracle value of the central moment  ∫ (2t - a - b)² g(t) dt."""
    a, b = interval.a, interval.b
    return integrate(lambda t: (2.0 * t - a - b) ** 2 * g(t), interval, tol)


def _grid(interval: Interval) -> list[float]:
    a, b = interval.a, interval.b
    step = (b - a) / (_SAMPLES - 1)
    return [a + k * step for k in range(_SAMPLES)]


def _mirrors_match(g, interval: Interval, values: Iterable[float]) -> bool:
    """Whether g(a + b - x) matches each grid value g(x), up to the first miss."""
    a, b = interval.a, interval.b
    for x, gx in zip(_grid(interval), values):
        if abs(gx - g(a + b - x)) > _SLACK * (1.0 + abs(gx)):
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
    """(any rise, any fall) of g between consecutive grid points."""
    return _steps([g(x) for x in _grid(interval)])


def check_monotone(g: Callable[[float], float], interval: Interval) -> Monotonicity:
    """Classify sampled monotonicity with a 1e-12 tie tolerance.

    A weight that is flat everywhere is weakly monotone in both
    directions; it classifies as DECREASING here, and the operations
    that require one direction accept flat weights either way.
    """
    return _monotonicity(*monotone_profile(g, interval))


def classify_weight(g: FunctionSpec, interval: Interval) -> WeightSpec:
    """Sample a weight once on the grid (and at the mirrored points) and record its flags.

    Raises:
        NegativeWeight: if any sample is below ``-1e-9``.
    """
    values = [g(x) for x in _grid(interval)]
    lo, hi = min(values), max(values)
    if lo < -_SLACK:
        raise NegativeWeight(f"weight {g.text!r} reaches {lo} on the interval")
    return WeightSpec(
        function=g,
        center=interval.midpoint,
        symmetric=_mirrors_match(g, interval, values),
        monotone=_monotonicity(*_steps(values)),
        range01=(hi <= 1.0 + _SLACK),
    )


def require_convex(f: FunctionSpec, interval: Interval) -> None:
    """Sampled convexity guard: f'' >= -1e-9 on the grid, else ``ConvexityViolated``."""
    if f.d2 is None:
        raise NonSmoothExpression(f"convexity check needs a second derivative for {f.text!r}")
    if interval.is_degenerate():
        if f.second_derivative(interval.a) < -_SLACK:
            raise ConvexityViolated(f"f'' < 0 at {interval.a} for f = {f.text}")
        return
    for x in _grid(interval):
        v = f.second_derivative(x)
        if v < -_SLACK:
            raise ConvexityViolated(f"f'' = {v} at x = {x} for f = {f.text}")
