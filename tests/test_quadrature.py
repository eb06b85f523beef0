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
    _integral_to,
    classify_weight,
    integrate,
    moment_ab,
    moment_about,
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

    def test_panel_centres_of_an_overflowing_sum_stay_finite(self):
        # 1e308 + 1.7e308 overflows: each centre is halved before the sum
        r = integrate(function_spec("x^-1"), Interval(1e308, 1.7e308))
        assert r.converged
        assert r.value == pytest.approx(math.log(1.7), rel=1e-12)

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


# (value.hex(), error_estimate.hex(), evaluations, converged) of each case,
# so that a change to the oracle shows which bits it moves, if any
PINNED = {
    "floor": ("exp(x)", UNIT, 1e-10, 50, ("0x1.b7e151628aed3p+0", "0x1.0000000000000p-52", 120, True)),
    "split": ("exp(30*x)", UNIT, 1e-10, 50, ("0x1.4bc07831e0764p+38", "0x1.25a5106000000p-25", 330, True)),
    "rounding-floor": ("5e307 + x^2", Interval(0.0, 16.0), 1e-10, 50,
                       ("inf", "0x1.0000000000000p+974", 120, False)),
    "depth-cap": ("log(x)", UNIT, 1e-12, 50, ("-0x1.fffffffffffffp-1", "0x1.6d37bec56f700p-52", 2940, False)),
    "not-finite": ("exp(1000*x)", UNIT, 1e-10, 50, ("inf", "nan", 9540, False)),
    "overflowing-sum": ("x^2", Interval(0.0, 1e200), 1e-10, 50, ("inf", "nan", 120, False)),
    "plain-callable": (lambda t: abs(math.sin(20.0 * t)), UNIT, 1e-10, 50,
                       ("0x1.425a64b5d7bcbp-1", "0x1.9bd81fcb49324p-48", 4590, True)),
    "max-depth-5": ("log(x)", UNIT, 1e-12, 5, ("-0x1.fff9111a86659p-1", "0x1.398996e8fd960p-12", 240, False)),
}


@pytest.mark.parametrize("case", PINNED)
def test_results_are_pinned_to_the_bit(monkeypatch, case):
    f, interval, tol, depth, expected = PINNED[case]
    monkeypatch.setattr(quadrature, "MAX_DEPTH", depth)
    r = integrate(function_spec(f) if isinstance(f, str) else f, interval, tol)
    assert (r.value.hex(), r.error_estimate.hex(), r.evaluations, r.converged) == expected


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
    def test_one_trial_runs_17_integrations(self, monkeypatch):
        # 38 integrate calls per trial, 14 of them repeats of an
        # integrand, interval and tolerance the trial already integrated;
        # the h1/h2 points and the midpoint of the subinterval checks are
        # edges of the [a, b] panels, so their [a, x] integrals run nothing;
        # the weighted rules add the first moment of their weight on [a, b]
        # and on the window, and h1/h2 the moments ∫(t - a)^k g, k = 1, 2,
        # of their weights on [a, b]
        runs = _count(monkeypatch, "_adaptive")
        refinements = _count(monkeypatch, "_refine")
        verify.falsify(1, 42)
        assert len(runs) == 17
        assert len(refinements) == 17  # no part-panel run

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
        moment_about(g, UNIT, 0.5, 2)
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
        moment_about(g, UNIT, 0.5, 1)
        moment_about(g, UNIT, 0.6, 2)
        assert sum(points) == evaluated

    def test_memo_keeps_floors_and_panel_tables(self):
        f = function_spec("exp(30*x)")
        r = integrate(f, UNIT)
        assert r.evaluations > 120  # some panels were split
        assert list(f._memo) == [("floor", 0.0, 1.0), ("panels", None, 0.0, 1.0, 1e-10)]
        assert len(f._memo["floor", 0.0, 1.0]) == 120
        panels, result = f._memo["panels", None, 0.0, 1.0, 1e-10]
        assert result is r
        # each split turns one panel into two: 8 starting panels, and one
        # entry per accepted panel, in order, ending at b
        computed = r.evaluations // 15
        assert len(panels) == (computed + 8) // 2
        edges = [p[0] for p in panels]
        assert edges == sorted(edges) and edges[-1] == 1.0
        assert math.fsum(p[1] for p in panels) == r.value

    def test_floor_nodes_are_built_once_per_interval(self, monkeypatch):
        quadrature._floor.cache_clear()
        builds = _count(monkeypatch, "_nodes")
        integrate(function_spec("exp(x)"), UNIT)
        integrate(evaluation_spec("1 + x^2"), UNIT)
        moment_ab(evaluation_spec("x"), UNIT)
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "text, interval, computed", [("exp(x)", UNIT, False), ("5e307 + x^2", Interval(0.0, 16.0), True)]
    )
    def test_mass_only_for_panels_that_miss_the_tolerance(self, monkeypatch, text, interval, computed):
        masses = _count(monkeypatch, "_mass")
        integrate(function_spec(text), interval)
        assert bool(masses) is computed

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
        # the mirror 1 - x of x = 0.7000000000000001 is the pole;
        # classifying reads its own sample alone, never a mirror
        g = evaluation_spec("1/(x - 0.29999999999999993)^2")
        with pytest.raises(DomainError):
            g(1.0 - 0.7000000000000001)
        assert classify_weight(g, UNIT).monotone is Monotonicity.NEITHER


# x where the [0, 1] run of each integrand has an edge (0.25), misses one
# (0.6), or misses the edge at 0.5 by an ulp, and the two ends
PREFIX_POINTS = [0.0, 0.25, 0.6, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0]


class TestPrefixRead:
    @pytest.mark.parametrize("x", PREFIX_POINTS)
    def test_agrees_with_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        f, g = evaluation_spec("x^0.5"), evaluation_spec("exp(x)")
        with mpmath.workdps(30):
            for r, reference in (
                (_integral_to(f, UNIT, [x], 1e-10)[0], mpmath.sqrt),
                (_integral_to(f, UNIT, [x], 1e-10, g)[0], lambda t: mpmath.sqrt(t) * mpmath.exp(t)),
            ):
                exact = float(mpmath.quad(reference, [0, x])) if x else 0.0
                assert r.converged
                assert abs(r.value - exact) <= 1e-10

    def test_ends_are_zero_and_the_whole_run(self):
        f = evaluation_spec("x^0.5")
        assert _integral_to(f, UNIT, [0.0], 1e-10)[0] == QuadResult(0.0, 0.0, 0, True)
        assert _integral_to(f, UNIT, [1.0], 1e-10)[0] is integrate(f, UNIT, 1e-10)

    def test_reads_panels_up_to_an_edge_without_running(self, monkeypatch):
        f = evaluation_spec("x^0.5")
        panels, whole = quadrature._table(f, None, 0.0, 1.0, 1e-10)
        runs = []
        refine = quadrature._refine

        def recorded(sample, stack, tol, width):
            runs.append((list(stack), tol, width))
            return refine(sample, stack, tol, width)

        monkeypatch.setattr(quadrature, "_refine", recorded)
        r = _integral_to(f, UNIT, [0.5], 1e-10)[0]
        assert runs == []
        read = [p for p in panels if p[0] <= 0.5]
        assert r == QuadResult(
            math.fsum(p[1] for p in read), math.fsum(p[2] for p in read), whole.evaluations, True
        )
        # off an edge, one part-panel starts at the depth of the panel it
        # cuts, with the tolerance pro-rated over [a, x]
        r = _integral_to(f, UNIT, [0.6], 1e-10)[0]
        assert runs == [([(0.5, 0.6, 3, None)], 1e-10, 0.6)]
        assert [p[0] for p in panels if 0.5 < p[0] <= 0.625] == [0.625]
        assert r.evaluations == whole.evaluations + 15
        # near 0 the cut panel was split: the part-panel starts at its depth
        runs.clear()
        k = next(i for i, p in enumerate(panels) if p[0] > 0.01)
        _integral_to(f, UNIT, [0.01], 1e-10)
        assert panels[k][4] > 3
        assert runs == [([(panels[k - 1][0], 0.01, panels[k][4], None)], 1e-10, 0.01)]

    def test_depth_capped_panel_read_is_unconverged(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        r = _integral_to(evaluation_spec("x^0.5"), UNIT, [0.5], 1e-10)[0]
        assert not r.converged

    def test_domain_error_keeps_the_first_failing_node(self):
        # as for the whole run: a node of a split panel fails before any
        # node of a later starting panel
        with pytest.raises(DomainError, match=r"undefined at x=0\.3749"):
            _integral_to(function_spec("log(0.3749 - x)"), UNIT, [0.25], 1e-10)
        f, g = function_spec("(0.33 - x)^0.5"), evaluation_spec("(0.3 - x)^0.5")
        with pytest.raises(DomainError, match=re.escape(g.text + " undefined")):
            _integral_to(f, UNIT, [0.25], 1e-10, g)


class TestMoments:
    def test_endpoint_moment_of_unit_weight(self):
        r = moment_ab(lambda t: 1.0, UNIT)
        assert r.value == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_central_moment_of_unit_weight(self):
        r = moment_about(lambda t: 1.0, UNIT, 0.5, 2)
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-13)
        assert moment_about(lambda t: 1.0, UNIT, 0.5, 1).value == pytest.approx(0.0, abs=1e-16)

    def test_moments_scale_with_interval(self):
        iv = Interval(1.0, 3.0)
        # ∫ (t-1)(3-t) dt = w^3/6 with w = 2; ∫ (t-2)^2 dt = w^3/12;
        # ∫ (t-1) dt = w^2/2
        assert moment_ab(lambda t: 1.0, iv).value == pytest.approx(8.0 / 6.0, abs=1e-12)
        assert moment_about(lambda t: 1.0, iv, 2.0, 2).value == pytest.approx(8.0 / 12.0, abs=1e-12)
        assert moment_about(lambda t: 1.0, iv, 1.0, 1).value == pytest.approx(2.0, abs=1e-12)

    def test_moment_about_is_remembered_per_point(self):
        g = evaluation_spec("x^3")
        first = moment_about(g, UNIT, 0.25, 2)
        assert moment_about(g, UNIT, 0.25, 2) is first
        assert moment_about(g, UNIT, 0.75, 2) != first

    def test_endpoint_moment_nonnegative_for_nonnegative_weight(self):
        r = moment_ab(lambda t: abs(math.sin(20.0 * t)), UNIT)
        assert r.value >= 0.0


class TestChecks:
    def test_monotone_classification(self):
        def monotone(text):
            return classify_weight(evaluation_spec(text), UNIT).monotone

        assert monotone("x") is Monotonicity.INCREASING
        assert monotone("1 - x") is Monotonicity.DECREASING
        assert monotone("x*(1 - x)") is Monotonicity.NEITHER

    def test_flat_weight_counts_as_weakly_monotone(self):
        # documented policy: a constant weight classifies as DECREASING
        # (it is weakly monotone both ways, and every direction-gated
        # operation accepts it)
        assert classify_weight(evaluation_spec("0.7"), UNIT).monotone is Monotonicity.DECREASING


class TestClassifyWeight:
    def test_symmetric_parabola(self):
        ws = classify_weight(evaluation_spec("x*(1 - x)"), UNIT)
        assert ws.range01
        assert ws.monotone is Monotonicity.NEITHER

    def test_rising_ramp(self):
        ws = classify_weight(evaluation_spec("2*x"), UNIT)
        assert not ws.range01
        assert ws.monotone is Monotonicity.INCREASING

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            classify_weight(evaluation_spec("x - 0.5"), UNIT)

    def test_tiny_negative_noise_tolerated(self):
        ws = classify_weight(evaluation_spec("0 - 1e-12"), UNIT)
        assert ws.range01

    def test_weight_is_sampled_once(self):
        # both ends and the 120 nodes of the 8 starting panels, and no
        # mirrored points; a degenerate interval reads its one point
        for text in ("x*(1 - x)", "2*x"):
            g = Counted(text)
            classify_weight(g, UNIT)
            assert g.calls == 122, text
            g = Counted(text)
            classify_weight(g, Interval(0.5, 0.5))
            assert g.calls == 1, text

    def test_first_integral_after_classification_samples_nothing(self, monkeypatch):
        # the sample reads g's memo of the starting nodes, as the oracle does
        g = evaluation_spec("1 + x^2")
        classify_weight(g, UNIT)
        monkeypatch.setattr(quadrature, "_at", None)
        assert integrate(g, UNIT).value == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert moment_ab(g, UNIT).value == pytest.approx(13.0 / 60.0, rel=1e-15)

    def test_signed_zero_ends_keep_their_own_entries(self):
        # no expression tells -0.0 from 0.0 without a DomainError, so the
        # flags agree; the keys still keep the two ends apart
        g = evaluation_spec("1 + x")
        for a in (-0.0, 0.0):
            assert classify_weight(g, Interval(a, 1.0)).monotone is Monotonicity.INCREASING
        assert sum(key[0] == "classify_weight" for key in g._memo) == 2

    def test_remembered_per_interval(self, monkeypatch):
        g = evaluation_spec("1 + x^2")
        ws = classify_weight(g, UNIT)
        other = classify_weight(g, Interval(-1.0, 1.0))
        assert (ws.monotone, other.monotone) == (Monotonicity.INCREASING, Monotonicity.NEITHER)
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

    def test_profile_after_classification_samples_nothing(self, monkeypatch):
        g = evaluation_spec("1 + x^2")
        classify_weight(g, UNIT)
        monkeypatch.setattr(quadrature, "_at", None)
        assert monotone_profile(g, UNIT) == (True, False)

    @pytest.mark.parametrize(
        "text", ["0.7", "x", "1 - x", "1 - abs(2*x - 1)", "x*(1 - x)*(1 + x)", "2*x"]
    )
    def test_flags_match_the_standalone_checks(self, text):
        # a fresh spec, so the profile is sampled on its own
        profile = monotone_profile(evaluation_spec(text), UNIT)
        assert classify_weight(evaluation_spec(text), UNIT).monotone is quadrature._monotonicity(*profile)


class Counted:
    """A weight that counts its evaluations."""

    def __init__(self, text):
        self.spec = evaluation_spec(text)
        self.text = text
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.spec(x)
