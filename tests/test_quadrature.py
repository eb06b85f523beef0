"""Tests for adaptive quadrature, moment oracles and weight checks."""

import gc
import math
import re
import weakref

import pytest

from convexcert import expr, quadrature, verify
from convexcert.core import (
    DomainError,
    Interval,
    Monotonicity,
    NegativeWeight,
    ParameterOutOfRange,
    QuadResult,
)
from convexcert.expr import curvature_range, evaluation_spec, function_spec, require_convex
from convexcert.quadrature import (
    MAX_DEPTH,
    check_monotone,
    check_symmetry,
    classify_weight,
    integrate,
    moment_ab,
    moment_center,
    monotone_profile,
)

UNIT = Interval(0.0, 1.0)


class TestIntegrate:
    def test_monomial(self):
        r = integrate(lambda t: t * t, UNIT)
        assert r.converged
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_exponential(self):
        r = integrate(math.exp, UNIT)
        assert r.converged
        assert abs(r.value - (math.e - 1.0)) <= 1e-11
        assert r.error_estimate >= 0.0

    def test_cubic_is_exact_up_to_roundoff(self):
        r = integrate(lambda t: 4.0 * t**3 - 2.0 * t, UNIT)
        assert abs(r.value - 0.0) <= 1e-13
        r2 = integrate(lambda t: t**3, Interval(0.0, 2.0))
        assert abs(r2.value - 4.0) <= 1e-12

    def test_minimum_panel_count(self):
        # Acceptance is deferred to depth 3, i.e. 8 panels of 15 Kronrod
        # nodes each; K15 is exact on t*t, so none of them splits.
        r = integrate(lambda t: t * t, UNIT)
        assert r.evaluations == 8 * 15

    def test_evaluations_count_every_call(self):
        # the kink splits panels, whose evaluations count as well
        calls = []
        f = lambda t: calls.append(t) or abs(t - 0.0018)  # noqa: E731
        r = integrate(f, UNIT)
        assert r.evaluations == len(calls) > 8 * 15
        # a plain callable may not be pure, so it is never memoized
        assert integrate(f, UNIT) == r
        assert len(calls) == 2 * r.evaluations

    def test_linearity(self):
        f = math.exp
        g = lambda t: t * t  # noqa: E731
        combined = integrate(lambda t: 2.0 * f(t) + 3.0 * g(t), UNIT).value
        separate = 2.0 * integrate(f, UNIT).value + 3.0 * integrate(g, UNIT).value
        assert combined == pytest.approx(separate, abs=1e-9)

    def test_degenerate_interval(self):
        r = integrate(math.exp, Interval(1.0, 1.0))
        assert r == QuadResult(0.0, 0.0, 0, True)

    def test_depth_cap_reports_not_converged(self, monkeypatch):
        # the sqrt singularity at 0 needs far more than 3 halvings
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        r = integrate(math.sqrt, UNIT)
        assert not r.converged
        assert r.value == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_overflowing_integrand_is_unconverged(self):
        # exp(1000 t) overflows to inf beyond t ~ 0.71; no split can
        # resolve an infinite panel, so it must not be split to the cap
        r = integrate(function_spec("exp(1000*x)"), UNIT)
        assert not r.converged
        assert r.value == math.inf

    def test_sum_beyond_the_float_range_is_unconverged(self):
        # each of the 8 panels is 1e308, their sum is not a float
        r = integrate(lambda t: 5e307, Interval(0.0, 16.0))
        assert not r.converged
        assert r.value == math.inf

    def test_nan_integrand_is_accepted_at_once(self):
        r = integrate(lambda t: math.nan, UNIT)
        assert not r.converged
        assert math.isnan(r.value)
        assert r.evaluations == 8 * 15

    def test_step_function_never_converges(self):
        c = 1.0 / math.sqrt(2.0)
        r = integrate(lambda t: 0.0 if t < c else 1.0, UNIT)
        assert not r.converged
        # the value is still a usable estimate of 1 - c
        assert r.value == pytest.approx(1.0 - c, abs=1e-6)

    def test_narrow_kink_is_still_resolved(self):
        # A kink close to an endpoint: the error estimate of the first
        # few coarse rules happily agrees before sampling it, which is
        # exactly what the deferred-acceptance floor is for.
        kink = 0.0018
        r = integrate(lambda t: abs(t - kink), UNIT, tol=1e-10)
        exact = (kink**2 + (1.0 - kink) ** 2) / 2.0
        assert abs(r.value - exact) <= 1e-9

    def test_large_magnitude_integrand_converges(self):
        # |K15 - G7| cannot drop below the rounding of values near 1e13,
        # far above the 1e-10 absolute tolerance: the rounding floor accepts
        r = integrate(lambda t: math.exp(30.0 * t), UNIT)
        assert r.converged
        exact = math.expm1(30.0) / 30.0
        assert abs(r.value - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ParameterOutOfRange):
            integrate(math.exp, UNIT, tol=tol)

    def test_default_depth_cap_is_generous(self):
        assert MAX_DEPTH == 50


# integrand, its mpmath form, the interval with the points where the
# mpmath reference splits it, and whether the oracle converges (the
# error per unit width of log near 0 never shrinks, so it hits the cap)
MPMATH_CASES = {
    "kink": ("abs(x - 0.0018)", lambda mp, t: abs(t - 0.0018), (0.0, 0.0018, 1.0), True),
    "sqrt": ("x^0.5", lambda mp, t: mp.sqrt(t), (0.0, 1.0), True),
    "log": ("log(x)", lambda mp, t: mp.log(t), (0.0, 1.0), False),
    "reciprocal": ("1/x", lambda mp, t: 1 / t, (1e-3, 1.0), True),
    "softplus": ("log(1 + exp(200*x))", lambda mp, t: mp.log(1 + mp.exp(200 * t)),
                 (-1.0, 0.0, 1.37), True),
}


@pytest.mark.parametrize("case", MPMATH_CASES)
def test_agrees_with_mpmath(case):
    mpmath = pytest.importorskip("mpmath")
    text, reference, points, converged = MPMATH_CASES[case]
    r = integrate(evaluation_spec(text), Interval(points[0], points[-1]))
    with mpmath.workdps(30):
        exact = float(mpmath.quad(lambda t: reference(mpmath, t), points))
    assert r.converged is converged
    assert abs(r.value - exact) <= 1e-10 * max(1.0, abs(exact))


def _count(monkeypatch, name):
    """Count the calls of the quadrature module's private ``name``."""
    calls = []
    original = getattr(quadrature, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadrature, name, counted)
    return calls


class TestMemo:
    def test_one_trial_runs_24_integrations(self, monkeypatch):
        # 38 integrate calls per trial, 14 of them repeats of an
        # integrand, interval and tolerance the trial already integrated
        runs = _count(monkeypatch, "_adaptive")
        verify.falsify(1, 42)
        assert len(runs) == 24

    def test_second_integral_of_a_spec_evaluates_nothing(self, monkeypatch):
        f, g = function_spec("exp(x)"), evaluation_spec("x*(1 - x)")
        first = integrate(f, UNIT, 1e-10, g)
        panels = _count(monkeypatch, "_kronrod")
        assert integrate(f, UNIT, 1e-10, g) == first
        assert panels == []
        # another tolerance, interval or weight computes anew
        integrate(f, UNIT, 1e-9, g)
        integrate(f, Interval(0.0, 0.5), 1e-10, g)
        integrate(f, UNIT, 1e-10)
        integrate(f, UNIT, 1e-10, evaluation_spec("x"))
        assert len(panels) == 4 * 8

    def test_memo_dies_with_its_spec(self):
        f, g = function_spec("exp(x)"), evaluation_spec("x*(1 - x)")
        integrate(f, UNIT, 1e-10, g)
        moment_ab(g, UNIT)
        moment_center(g, UNIT)
        monotone_profile(g, UNIT)
        curvature_range(f, UNIT)
        require_convex(f, UNIT)
        refs = weakref.ref(f), weakref.ref(g)
        del f, g
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


def _count_points(monkeypatch) -> list[int]:
    """Points evaluated by every form compiled from now on, one entry per call."""
    points: list[int] = []
    original = expr._compile

    def compile_counting(node):
        fn = original(node)

        def counted(xs):
            points.append(len(xs) if isinstance(xs, (list, tuple)) else 1)
            return fn(xs)

        return counted

    monkeypatch.setattr(expr, "_compile", compile_counting)
    return points


class TestSharedNodeValues:
    def test_product_after_both_factors_evaluates_nothing(self, monkeypatch):
        points = _count_points(monkeypatch)
        f, g = function_spec("exp(x)"), evaluation_spec("1 + x*(1 - x)")
        integrate(f, UNIT)
        integrate(g, UNIT)
        evaluated = sum(points)
        r = integrate(f, UNIT, 1e-10, g)
        assert sum(points) == evaluated
        assert r.evaluations == 120

    def test_moments_share_the_weight_floor(self, monkeypatch):
        points = _count_points(monkeypatch)
        g = evaluation_spec("1 + x*(1 - x)")
        integrate(g, UNIT)
        evaluated = sum(points)
        moment_ab(g, UNIT)
        moment_center(g, UNIT)
        assert sum(points) == evaluated

    def test_memo_keeps_floors_only(self):
        f = function_spec("exp(30*x)")
        r = integrate(f, UNIT)
        assert r.evaluations > 120  # some panels were split
        kept = {k: v for k, v in f._memo.items() if k[0] != "integrate"}
        assert list(kept) == [("floor", 0.0, 1.0)]
        assert all(len(v) <= 120 for v in kept.values())

    def test_product_raises_the_factor_that_fails_at_the_first_node(self):
        f, g = function_spec("(0.33 - x)^0.5"), evaluation_spec("(0.3 - x)^0.5")
        # f's values alone fail too, at a later node than g's
        with pytest.raises(DomainError, match=re.escape(f.text + " undefined at x=0.34")):
            f._values([0.31, 0.34])
        with pytest.raises(DomainError, match=re.escape(g.text + " undefined")):
            integrate(f, UNIT, 1e-10, g)

    def test_failure_in_a_split_panel_raises_before_a_later_floor_panel(self):
        # log(0.3749 - x) is defined on the starting nodes of [0.25, 0.375]; that
        # panel splits, and a node of a split panel fails before any node of
        # [0.375, 0.5] is reached
        with pytest.raises(DomainError, match=r"undefined at x=0\.3749"):
            integrate(function_spec("log(0.3749 - x)"), UNIT)

    def test_weight_failing_at_a_mirror_after_the_first_miss_classifies(self):
        # the mirror 1 - x of the grid point x = 0.7000000000000001 is the
        # pole, but the first grid point already misses its mirror
        g = evaluation_spec("1/(x - 0.29999999999999993)^2")
        assert not classify_weight(g, UNIT).symmetric
        assert not check_symmetry(g, UNIT)


class TestMoments:
    def test_endpoint_moment_of_unit_weight(self):
        r = moment_ab(lambda t: 1.0, UNIT)
        assert r.value == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_central_moment_of_unit_weight(self):
        r = moment_center(lambda t: 1.0, UNIT)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_moments_scale_with_interval(self):
        iv = Interval(1.0, 3.0)
        # ∫ (t-1)(3-t) dt = w^3/6 with w = 2; ∫ (2t-4)^2 dt = w^3/3
        assert moment_ab(lambda t: 1.0, iv).value == pytest.approx(8.0 / 6.0, abs=1e-12)
        assert moment_center(lambda t: 1.0, iv).value == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_endpoint_moment_nonnegative_for_nonnegative_weight(self):
        r = moment_ab(lambda t: abs(math.sin(20.0 * t)), UNIT)
        assert r.value >= 0.0


class TestChecks:
    def test_symmetry_accepts_parabola(self):
        assert check_symmetry(lambda t: t * (1.0 - t), UNIT)

    def test_symmetry_accepts_tent(self):
        assert check_symmetry(lambda t: 1.0 - abs(2.0 * t - 1.0), UNIT)

    def test_symmetry_rejects_identity(self):
        assert not check_symmetry(lambda t: t, UNIT)

    def test_symmetry_on_shifted_interval(self):
        iv = Interval(2.0, 6.0)
        assert check_symmetry(lambda t: (t - 2.0) * (6.0 - t), iv)
        assert not check_symmetry(lambda t: t - 2.0, iv)

    def test_monotone_classification(self):
        assert check_monotone(lambda t: t, UNIT) is Monotonicity.INCREASING
        assert check_monotone(lambda t: 1.0 - t, UNIT) is Monotonicity.DECREASING
        assert check_monotone(lambda t: t * (1.0 - t), UNIT) is Monotonicity.NEITHER

    def test_flat_weight_counts_as_weakly_monotone(self):
        # documented policy: a constant weight classifies as DECREASING
        # (it is weakly monotone both ways, and every direction-gated
        # operation accepts it)
        assert check_monotone(lambda t: 0.7, UNIT) is Monotonicity.DECREASING


class TestClassifyWeight:
    def test_symmetric_parabola(self):
        ws = classify_weight(evaluation_spec("x*(1 - x)"), UNIT)
        assert ws.symmetric
        assert ws.range01
        assert ws.monotone is Monotonicity.NEITHER
        assert ws.center == 0.5

    def test_rising_ramp(self):
        ws = classify_weight(evaluation_spec("2*x"), UNIT)
        assert not ws.symmetric
        assert not ws.range01
        assert ws.monotone is Monotonicity.INCREASING

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            classify_weight(evaluation_spec("x - 0.5"), UNIT)

    def test_tiny_negative_noise_tolerated(self):
        ws = classify_weight(evaluation_spec("0 - 1e-12"), UNIT)
        assert ws.range01

    def test_weight_is_sampled_once_plus_mirrors(self):
        # 101 grid values, then the mirrored points until the first
        # mismatch: all 101 for a symmetric weight, one for 2*x
        for text, calls in (("x*(1 - x)", 202), ("2*x", 102)):
            g = Counted(text)
            classify_weight(g, UNIT)
            assert g.calls == calls, text

    def test_remembered_per_interval(self, monkeypatch):
        g = evaluation_spec("1 + x^2")
        ws = classify_weight(g, UNIT)
        other = classify_weight(g, Interval(-1.0, 1.0))
        assert (ws.center, ws.symmetric, other.center, other.symmetric) == (0.5, False, 0.0, True)
        monkeypatch.setattr(quadrature, "_at", None)  # a memo hit samples nothing
        assert classify_weight(g, UNIT) == ws
        # the memo holds no spec, so g dies without the cycle collector
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g, ws, other
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "text", ["0.7", "x", "1 - x", "1 - abs(2*x - 1)", "x*(1 - x)*(1 + x)", "2*x"]
    )
    def test_flags_match_the_standalone_checks(self, text):
        g = evaluation_spec(text)
        ws = classify_weight(g, UNIT)
        assert ws.symmetric == check_symmetry(g, UNIT)
        assert ws.monotone is check_monotone(g, UNIT)


class Counted:
    """A weight that counts its evaluations."""

    def __init__(self, text):
        self.spec = evaluation_spec(text)
        self.text = text
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.spec(x)
