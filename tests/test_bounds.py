"""Tests for the enclosure operations.

Expected values are frozen from closed forms computed independently of
the library (exact antiderivatives of polynomials and exponentials),
so the oracle integrals are being checked, not trusted.
"""

import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert import bounds, quadrature
from convexcert.bounds import (
    complement_weight_gap,
    fejer,
    fejer_midpoint_gap_bounds,
    fejer_trapezoid_gap_bounds,
    functional_increments,
    gap_bounds,
    h1_functional,
    h2_functional,
    hermite_hadamard,
    subinterval_gap,
    subinterval_gap_difference,
    target_fejer,
    target_gap,
    target_integral_mean,
    target_vasic_lackovic,
    vasic_lackovic,
)
from convexcert.core import (
    AdmissibilityViolated,
    ConvexityViolated,
    CurvatureBounds,
    Interval,
    Lambda,
    MonotonicityViolated,
    NegativeWeight,
    NodeWeights,
    ParameterOutOfRange,
    RangeViolated,
    Rule,
    enclosure_contains,
)
from convexcert.expr import curvature_range, evaluation_spec, function_spec
from convexcert.quadrature import _integral_to, classify_weight, integrate
from convexcert.verify import _mix, random_convex_instance, random_monotone_weight

E = math.e
UNIT = Interval(0.0, 1.0)
SQ = function_spec("x^2")
EXP = function_spec("exp(x)")
SQ_BAND = CurvatureBounds(2.0, 2.0)
EXP_BAND = CurvatureBounds(1.0, E)
BISECTION = (Rule.BISECTION_MEAN, Rule.BISECTION_QUARTER)
PARABOLA_W = "x*(1 - x)"  # symmetric, in [0, 1/4]

# closed forms for f = exp, g = t(1-t) on [0, 1]
G_PAR = 1.0 / 6.0
FG_PAR = 3.0 - E  # ∫ e^t t(1-t) dt
AVG_EXP = 0.5 * (1.0 + E)
TRAP_GAP_EXP = AVG_EXP - (E - 1.0)  # 0.14085908577047745
MID_GAP_EXP = (E - 1.0) - math.sqrt(E)  # 0.069560557758916897


class TestHermiteHadamard:
    def test_square(self):
        enc = hermite_hadamard(SQ, UNIT)
        assert enc.lower == pytest.approx(0.25, abs=1e-15)
        assert enc.upper == pytest.approx(0.5, abs=1e-15)
        assert enc.source_rule is Rule.HERMITE_HADAMARD
        assert enclosure_contains(enc, target_integral_mean(SQ, UNIT).value, tol=1e-12)

    def test_exp(self):
        enc = hermite_hadamard(EXP, UNIT)
        assert enc.lower == pytest.approx(math.sqrt(E), rel=1e-15)
        assert enc.upper == pytest.approx(AVG_EXP, rel=1e-15)
        assert enclosure_contains(enc, E - 1.0)

    def test_affine_collapses(self):
        enc = hermite_hadamard(function_spec("3*x + 1"), UNIT)
        assert enc.width == pytest.approx(0.0, abs=1e-15)

    # the quartic's f'' = 12(x - 0.005)^2 - 1e-4 is negative only on
    # (0.0021, 0.0079), between the points of a 0.01 grid
    @pytest.mark.parametrize(
        "source", ["0 - x^2", "(x - 0.005)^4 - 0.00005*x^2"], ids=["parabola", "quartic-dip"]
    )
    def test_concave_rejected(self, source):
        with pytest.raises(ConvexityViolated):
            hermite_hadamard(function_spec(source), UNIT)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            hermite_hadamard(SQ, Interval(1.0, 1.0))

    def test_ends_whose_sum_overflows(self):
        # the midpoint is halved before the sum, so it is not inf
        enc = hermite_hadamard(function_spec("1e-300*x"), Interval(1e308, 1.5e308))
        assert (enc.lower, enc.upper) == (1.25e8, 1.25e8)


class TestFejer:
    def test_square_with_parabola_weight(self):
        enc = fejer(SQ, evaluation_spec(PARABOLA_W), UNIT)
        assert enc.lower == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert enc.upper == pytest.approx(1.0 / 12.0, abs=1e-12)
        # ∫ t² t(1-t) dt = 1/20
        assert enclosure_contains(enc, 0.05, tol=1e-12)

    def test_unit_weight_reduces_to_plain_sandwich(self):
        iv = Interval(0.0, 2.0)
        weighted = fejer(EXP, evaluation_spec("1"), iv)
        plain = hermite_hadamard(EXP, iv)
        assert weighted.lower == pytest.approx(plain.lower * iv.width, abs=1e-13)
        assert weighted.upper == pytest.approx(plain.upper * iv.width, abs=1e-13)

    def test_target_contained(self):
        g = evaluation_spec(PARABOLA_W)
        enc = fejer(EXP, g, UNIT)
        r = target_fejer(EXP, g, UNIT)
        assert r.converged
        assert r.value == pytest.approx(FG_PAR, abs=1e-11)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_asymmetric_weight_sits_at_its_barycentre(self):
        # g = t on [0, 1]: G = 1/2 and x̄ = 2/3, so f(x̄)·G = 2/9 and the
        # chord of t² at x̄ gives 1/3, around ∫ t³ dt = 1/4
        enc = fejer(SQ, evaluation_spec("x"), UNIT)
        assert enc.lower == pytest.approx(2.0 / 9.0, rel=1e-14)
        assert enc.upper == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert enclosure_contains(enc, 0.25)

    def test_weight_spec_is_recentred_for_new_interval(self):
        ws = classify_weight(evaluation_spec("1"), UNIT)
        iv = Interval(1.0, 3.0)
        enc = fejer(SQ, ws, iv)  # center mismatch forces re-classification
        assert enc.lower == pytest.approx(8.0, abs=1e-12)
        assert enc.upper == pytest.approx(10.0, abs=1e-12)
        assert enclosure_contains(enc, 26.0 / 3.0, tol=1e-10)

    def test_weight_spec_from_another_interval_is_checked_again(self):
        # 1 - 4(x-1)² is nonnegative on [0.5, 1.5], the
        # interval it was classified on, but reaches -3 on [0, 2]
        ws = classify_weight(evaluation_spec("1 - 4*(x - 1)^2"), Interval(0.5, 1.5))
        iv = Interval(0.0, 2.0)
        for call in (
            lambda: fejer(SQ, ws, iv),
            lambda: fejer_trapezoid_gap_bounds(SQ, ws, SQ_BAND, iv),
            lambda: complement_weight_gap(SQ, ws, SQ_BAND, iv),
        ):
            with pytest.raises(NegativeWeight, match="reaches -3.0"):
                call()

    def test_is_the_equal_node_vasic_lackovic(self):
        g = evaluation_spec(PARABOLA_W)
        enc = fejer(EXP, g, UNIT)
        two_node = vasic_lackovic(EXP, g, NodeWeights(1.0, 1.0), UNIT, 0.5)
        assert (enc.lower, enc.upper) == (two_node.lower, two_node.upper)


class TestGapEnclosures:
    def test_midpoint_gap_exp(self):
        enc = gap_bounds(Rule.MIDPOINT_GAP, EXP_BAND, UNIT)
        assert enc.lower == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert enc.upper == pytest.approx(E / 24.0, abs=1e-15)
        r = target_gap(Rule.MIDPOINT_GAP, EXP, UNIT)
        assert r.value == pytest.approx(MID_GAP_EXP, abs=1e-11)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_trapezoid_gap_exp(self):
        enc = gap_bounds(Rule.TRAPEZOID_GAP, EXP_BAND, UNIT)
        assert enc.lower == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert enc.upper == pytest.approx(E / 12.0, abs=1e-15)
        r = target_gap(Rule.TRAPEZOID_GAP, EXP, UNIT)
        assert r.value == pytest.approx(TRAP_GAP_EXP, abs=1e-11)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_chord_gap_midpoint_lambda(self):
        enc = gap_bounds(Rule.CHORD_GAP, EXP_BAND, UNIT, Lambda(0.5))
        assert enc.lower == pytest.approx(0.125, abs=1e-15)
        assert enc.upper == pytest.approx(E / 8.0, abs=1e-15)
        r = target_gap(Rule.CHORD_GAP, EXP, UNIT, lam=Lambda(0.5))
        assert r.value == pytest.approx(AVG_EXP - math.sqrt(E), rel=1e-14)
        assert (r.error_estimate, r.evaluations, r.converged) == (0.0, 3, True)
        assert enclosure_contains(enc, r.value)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_chord_gap_degenerate_lambda(self, lam):
        enc = gap_bounds(Rule.CHORD_GAP, EXP_BAND, UNIT, Lambda(lam))
        assert (enc.lower, enc.upper) == (0.0, 0.0)
        assert target_gap(Rule.CHORD_GAP, EXP, UNIT, lam=Lambda(lam)).value == pytest.approx(
            0.0, abs=1e-15
        )

    def test_symmetric_pair_gap_endpoints(self):
        enc = gap_bounds(Rule.SYMMETRIC_PAIR_GAP, EXP_BAND, UNIT, Lambda(0.0))
        assert enc.lower == pytest.approx(0.125, abs=1e-15)
        assert enc.upper == pytest.approx(E / 8.0, abs=1e-15)
        r = target_gap(Rule.SYMMETRIC_PAIR_GAP, EXP, UNIT, lam=Lambda(0.0))
        assert r.value == pytest.approx(AVG_EXP - math.sqrt(E), rel=1e-14)
        assert enclosure_contains(enc, r.value)

    def test_symmetric_pair_gap_collapses_at_center(self):
        enc = gap_bounds(Rule.SYMMETRIC_PAIR_GAP, EXP_BAND, UNIT, Lambda(0.5))
        assert (enc.lower, enc.upper) == (0.0, 0.0)

    def test_chord_needs_lambda(self):
        with pytest.raises(ParameterOutOfRange):
            target_gap(Rule.CHORD_GAP, EXP, UNIT)

    def test_weighted_kind_needs_weight(self):
        with pytest.raises(ParameterOutOfRange):
            target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, EXP, UNIT)


def _closed_form_gap(rule, c, iv, lam):
    """The six unweighted bands as separate closed forms, each with the
    float operations of its own band function before the table."""
    w = iv.width
    if rule is Rule.MIDPOINT_GAP:
        s = w**2 / 24.0
    elif rule is Rule.TRAPEZOID_GAP:
        s = w**2 / 12.0
    elif rule is Rule.CHORD_GAP:
        s = lam * (1.0 - lam) * w**2 / 2.0
    elif rule is Rule.SYMMETRIC_PAIR_GAP:
        s = (1.0 - 2.0 * lam) ** 2 * w**2 / 8.0
    elif rule is Rule.BISECTION_MEAN:
        return c.m * w**2 / 48.0, c.M * w**2 / 48.0
    else:
        return c.m * w**2 / 96.0, c.M * w**2 / 96.0
    return c.m * s, c.M * s


class TestGapTable:
    @given(
        rule=st.sampled_from([Rule.MIDPOINT_GAP, Rule.TRAPEZOID_GAP, Rule.CHORD_GAP,
                              Rule.SYMMETRIC_PAIR_GAP, *BISECTION]),
        m=st.floats(-1e6, 1e6),
        spread=st.floats(0.0, 1e6),
        a=st.floats(-1e3, 1e3),
        width=st.floats(0.0, 1e3),
        lam=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_closed_forms(self, rule, m, spread, a, width, lam):
        c, iv = CurvatureBounds(m, m + spread), Interval(a, a + width)
        enc = gap_bounds(rule, c, iv, Lambda(lam))
        assert (enc.lower, enc.upper) == _closed_form_gap(rule, c, iv, lam)
        assert enc.source_rule is rule

    @pytest.mark.parametrize("rule", list(bounds._GAPS))
    def test_functional_matches_the_scale_exactly(self, rule):
        # L[f] = α·mean(f) + Σ β·f(u·0 + v·1) on [0, 1], in exact arithmetic;
        # at w² = 96 every closed-form scale is exact in floats
        gap = bounds._GAPS[rule]
        for lam in [k / 16 for k in range(17)] if gap.lam else [None]:
            alpha = Fraction(gap.alpha)
            nodes = [tuple(map(Fraction, node)) for node in gap.nodes(lam)]

            def functional(mean, f):
                return alpha * mean + sum(beta * f(v) for beta, _, v in nodes)

            assert all(u + v == 1 for _, u, v in nodes)
            assert functional(1, lambda t: 1) == 0
            assert functional(Fraction(1, 2), lambda t: t) == 0
            half_square = functional(Fraction(1, 6), lambda t: t * t / 2)
            assert Fraction(gap.scale(96.0, lam)) / Fraction(gap.divisor) == 96 * half_square
            # the Peano kernel K(s) = L[(t - s)₊] is nonnegative
            for s in {Fraction(j, 64) for j in range(65)} | {v for _, _, v in nodes}:
                assert functional((1 - s) ** 2 / 2, lambda t: max(t - s, 0)) >= 0, (lam, s)

    @pytest.mark.parametrize("rule", [Rule.HERMITE_HADAMARD, Rule.WEIGHTED_MIDPOINT_GAP])
    def test_rejects_a_rule_outside_the_table(self, rule):
        with pytest.raises(ParameterOutOfRange, match="not an unweighted gap rule"):
            gap_bounds(rule, EXP_BAND, UNIT, Lambda(0.5))

    @pytest.mark.parametrize("rule", [Rule.CHORD_GAP, Rule.SYMMETRIC_PAIR_GAP])
    def test_lambda_rule_needs_lambda(self, rule):
        with pytest.raises(ParameterOutOfRange, match="needs lambda"):
            gap_bounds(rule, EXP_BAND, UNIT)

    @pytest.mark.parametrize("rule", [Rule.MIDPOINT_GAP, Rule.CHORD_GAP, *BISECTION])
    def test_width_whose_square_overflows_is_out_of_range(self, rule):
        message = rf"{rule.value}: the width 1e\+200 .* w\*\*2 overflows"
        with pytest.raises(ParameterOutOfRange, match=message):
            gap_bounds(rule, EXP_BAND, Interval(0.0, 1e200), Lambda(0.5))

    @pytest.mark.parametrize("rule", [Rule.MIDPOINT_GAP, *BISECTION])
    def test_collapses_on_a_degenerate_interval(self, rule):
        enc = gap_bounds(rule, EXP_BAND, Interval(1.0, 1.0))
        assert (enc.lower, enc.upper) == (0.0, 0.0)


class TestWeightedGaps:
    def test_weighted_trapezoid_exp_parabola(self):
        g = evaluation_spec(PARABOLA_W)
        enc = fejer_trapezoid_gap_bounds(EXP, g, EXP_BAND, UNIT)
        # ∫ (t-a)(b-t) g = ∫ t²(1-t)² = 1/30
        assert enc.lower == pytest.approx(1.0 / 60.0, abs=1e-12)
        assert enc.upper == pytest.approx(E / 60.0, abs=1e-12)
        r = target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, EXP, UNIT, g=g)
        assert r.value == pytest.approx(AVG_EXP * G_PAR - FG_PAR, abs=1e-11)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_weighted_midpoint_exp_parabola(self):
        g = evaluation_spec(PARABOLA_W)
        enc = fejer_midpoint_gap_bounds(EXP, g, EXP_BAND, UNIT)
        # ∫ (2t-1)² t(1-t) dt = 1/30
        assert enc.lower == pytest.approx(1.0 / 240.0, abs=1e-12)
        assert enc.upper == pytest.approx(E / 240.0, abs=1e-12)
        r = target_gap(Rule.WEIGHTED_MIDPOINT_GAP, EXP, UNIT, g=g)
        assert r.value == pytest.approx(FG_PAR - math.sqrt(E) * G_PAR, abs=1e-11)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_unit_weight_matches_unweighted_scaled(self):
        one = evaluation_spec("1")
        trap = fejer_trapezoid_gap_bounds(EXP, one, EXP_BAND, UNIT)
        plain = gap_bounds(Rule.TRAPEZOID_GAP, EXP_BAND, UNIT)
        # moment of the unit weight is w³/6, so the weighted band is
        # w·(band of the unweighted gap)
        assert trap.lower == pytest.approx(plain.lower, abs=1e-12)
        assert trap.upper == pytest.approx(plain.upper, abs=1e-12)


class TestComplementChains:
    # w·T_ab - W_g, the weighted trapezoid gap of 1 - g; its band's ends
    # are the paper's two precision chains

    def test_exp_parabola_frozen_values(self):
        enc, r = complement_weight_gap(EXP, evaluation_spec(PARABOLA_W), EXP_BAND, UNIT)
        # P = ∫ t²(1-t)² dt = 1/30, so the band is (m, M)·(1/12 - 1/60)
        assert enc.lower == pytest.approx(1.0 / 15.0, abs=1e-12)
        assert enc.upper == pytest.approx(E / 15.0, abs=1e-12)
        assert r.value == pytest.approx(TRAP_GAP_EXP - (AVG_EXP * G_PAR - FG_PAR), abs=1e-11)
        # each chain's left minus middle term: the distance to a band end
        assert r.value - enc.lower == pytest.approx(0.057525752437144126 - 0.011471980830632163, abs=1e-10)
        assert enc.upper - r.value == pytest.approx(0.08566439993444297 - 0.017166049643685233, abs=1e-10)
        assert enc.source_rule is Rule.TRAPEZOID_GAP

    def test_unit_weight_middle_equals_left(self):
        # with g ≡ 1 the complement weight vanishes: each chain's middle
        # term equals its left term, so the gap and its band are 0
        enc, r = complement_weight_gap(EXP, evaluation_spec("1"), EXP_BAND, UNIT)
        assert r.value == pytest.approx(0.0, abs=1e-11)
        assert (enc.lower, enc.upper) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_weight_above_one_rejected(self):
        with pytest.raises(RangeViolated):
            complement_weight_gap(EXP, evaluation_spec("5*x*(1 - x)"), EXP_BAND, UNIT)

    def test_asymmetric_weight_in_range_is_accepted(self):
        # g = t: W_g = ℓ(x̄)·G - FG with ℓ(x̄)·G = (1 + 2e)/6 and
        # FG = ∫ t e^t dt = 1, and P = ∫ t²(1 - t) dt = 1/12
        enc, r = complement_weight_gap(EXP, evaluation_spec("x"), EXP_BAND, UNIT)
        chord = (1.0 + 2.0 * E) / 6.0
        assert r.value == pytest.approx(TRAP_GAP_EXP - (chord - 1.0), abs=1e-12)
        assert (enc.lower, enc.upper) == pytest.approx((1.0 / 24.0, E / 24.0), rel=1e-14)
        assert enc.lower <= r.value <= enc.upper

    def test_width_whose_cube_overflows_is_out_of_range(self):
        # w³ overflows on [0, 1e103], but the endpoint moment w³/12 does not
        flat, iv = CurvatureBounds(0.0, 0.0), Interval(0.0, 1e103)
        with pytest.raises(ParameterOutOfRange, match=r"complement weight gap: .* w\*\*3 overflows"):
            complement_weight_gap(function_spec("1"), evaluation_spec("0.5"), flat, iv)


class TestBisection:
    def test_exp_frozen_targets(self):
        e1, e2 = (gap_bounds(r, EXP_BAND, UNIT) for r in BISECTION)
        assert e1.lower == pytest.approx(1.0 / 48.0, abs=1e-15)
        assert e1.upper == pytest.approx(E / 48.0, abs=1e-15)
        assert e2.lower == pytest.approx(1.0 / 96.0, abs=1e-15)
        assert e2.upper == pytest.approx(E / 96.0, abs=1e-15)
        t1, t2 = (target_gap(r, EXP, UNIT) for r in BISECTION)
        assert t1.value == pytest.approx(0.035649264005780168, abs=1e-11)
        assert t2.value == pytest.approx(0.017769111808837001, abs=1e-11)
        assert enclosure_contains(e1, t1.value, tol=1e-10)
        assert enclosure_contains(e2, t2.value, tol=1e-10)

    def test_quarter_point_band_must_use_upper_curvature(self):
        # exp on [0, 1]: the true gap exceeds m w²/96, so an upper bound
        # built from the lower curvature constant would be violated
        _, t2 = (target_gap(r, EXP, UNIT) for r in BISECTION)
        assert t2.value > EXP_BAND.m / 96.0 + 1e-3

    def test_square_is_tight(self):
        e1, e2 = (gap_bounds(r, SQ_BAND, UNIT) for r in BISECTION)
        t1, t2 = (target_gap(r, SQ, UNIT) for r in BISECTION)
        assert t1.value == pytest.approx(e1.lower, abs=1e-13)
        assert t2.value == pytest.approx(e2.lower, abs=1e-13)
        assert e1.width == pytest.approx(0.0, abs=1e-15)

    def test_rules_tagged(self):
        e1, e2 = (gap_bounds(r, SQ_BAND, UNIT) for r in BISECTION)
        assert e1.source_rule is Rule.BISECTION_MEAN
        assert e2.source_rule is Rule.BISECTION_QUARTER


class TestEndpointFunctionals:
    def test_h1_square_frozen(self):
        g = evaluation_spec("1 - x")
        assert h1_functional(SQ, g, UNIT, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-11)
        assert h1_functional(SQ, g, UNIT, 0.5) == pytest.approx(1.0 / 48.0, abs=1e-11)
        assert h1_functional(SQ, g, UNIT, 0.0) == 0.0

    def test_h2_square_frozen(self):
        g = evaluation_spec("x")
        assert h2_functional(SQ, g, UNIT, 1.0) == pytest.approx(0.125, abs=1e-11)
        assert h2_functional(SQ, g, UNIT, 0.5) == pytest.approx(1.0 / 128.0, abs=1e-11)
        assert h2_functional(SQ, g, UNIT, 0.0) == 0.0

    def test_centre_of_an_overflowing_sum_stays_finite(self):
        # on [1e308, 1.7e308] a + b overflows; the values are from mpmath
        f, g, iv = function_spec("x^-1"), evaluation_spec("1"), Interval(1e308, 1.7e308)
        assert h1_functional(f, g, iv, iv.b) == pytest.approx(0.0252541018790061, rel=1e-12)
        assert h2_functional(f, g, iv, iv.b) == pytest.approx(0.0121097325436519, rel=1e-12)

    def test_h1_nondecreasing_for_nondecreasing_convex_f(self):
        g = evaluation_spec("1 - x")
        values = [h1_functional(EXP, g, UNIT, x) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-11 for a, b in zip(values, values[1:]))

    def test_h2_nondecreasing_for_nondecreasing_convex_f(self):
        g = evaluation_spec("x")
        values = [h2_functional(EXP, g, UNIT, x) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-11 for a, b in zip(values, values[1:]))

    def test_flat_weight_accepted_by_both(self):
        one = evaluation_spec("1")
        assert h1_functional(SQ, one, UNIT, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-11)
        assert h2_functional(SQ, one, UNIT, 1.0) == pytest.approx(1.0 / 12.0, abs=1e-11)

    def test_h1_rejects_rising_weight(self):
        with pytest.raises(MonotonicityViolated):
            h1_functional(SQ, evaluation_spec("x"), UNIT, 0.5)

    def test_h2_rejects_falling_weight(self):
        with pytest.raises(MonotonicityViolated):
            h2_functional(SQ, evaluation_spec("1 - x"), UNIT, 0.5)

    def test_x_outside_interval_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            h1_functional(SQ, evaluation_spec("1"), UNIT, 1.5)

    @pytest.mark.parametrize(
        "functional,rule,weight",
        [(h1_functional, Rule.WEIGHTED_TRAPEZOID_GAP, "1 - x"),
         (h2_functional, Rule.WEIGHTED_MIDPOINT_GAP, "x")],
        ids=["h1", "h2"],
    )
    def test_is_the_weighted_gap_on_a_x(self, functional, rule, weight):
        # h1 and h2 keep the paper's midpoint forms on [a, x]: (f(a)+f(x))/2
        # and f((a+x)/2) against ∫ₐˣ g, for monotone g that is not symmetric
        g = evaluation_spec(weight)
        for x in (0.25, 0.6, 1.0):
            value = functional(EXP, g, UNIT, x)
            # ∫ₐˣ is read from the [a, b] run, so only the last bits may move
            part = Interval(0.0, x)
            rg, rfg = integrate(g, part).value, integrate(EXP, part, 1e-10, g).value
            if rule is Rule.WEIGHTED_TRAPEZOID_GAP:
                expected = 0.5 * (EXP(0.0) + EXP(x)) * rg - rfg
            else:
                expected = rfg - EXP(0.5 * x) * rg
            assert abs(value - expected) <= 1e-14 * max(1.0, abs(value))
            rg = _integral_to(g, UNIT, [x], 1e-10)[0]
            rfg = _integral_to(EXP, UNIT, [x], 1e-10, g)[0]
            if rule is Rule.WEIGHTED_TRAPEZOID_GAP:
                assert value == 0.5 * (EXP(0.0) + EXP(x)) * rg.value - rfg.value
            else:
                assert value == rfg.value - EXP(0.5 * (0.0 + x)) * rg.value

    def test_convexity_alone_does_not_give_monotonicity(self):
        # the documented boundary of the guarantee: f = -x is convex but
        # decreasing, and h1 = -x³/12 strictly decreases
        f = function_spec("0 - x")
        g = evaluation_spec("1 - x")
        at_half = h1_functional(f, g, UNIT, 0.5)
        at_one = h1_functional(f, g, UNIT, 1.0)
        assert at_one == pytest.approx(-1.0 / 12.0, abs=1e-11)
        assert at_half == pytest.approx(-(0.5**3) / 12.0, abs=1e-11)
        assert at_one < at_half < 0.0


# monotone polynomial weights c₀ + c₁t + c₂t² on [0, 1] in each
# functional's direction: nonincreasing for h1, nondecreasing for h2
H_WEIGHTS = {"h1": [(1,), (1, -1), (1, -2, 1), (2, -1)], "h2": [(1,), (0, 1), (0, 0, 1), (1, 1)]}


def _moment(coeffs, k, lo, hi):
    """∫ t^k·g(t) over [lo, hi] for the polynomial g, in Fractions."""
    return sum(Fraction(c) * (hi ** (i + k + 1) - lo ** (i + k + 1)) / (i + k + 1) for i, c in enumerate(coeffs))


# f for the mpmath check, beyond convex nondecreasing f: (text, mpmath form)
INCREMENT_FUNCTIONS = {
    "3*x - x^2": lambda t, mp: 3 * t - t**2,
    "exp(2*x) - 5*x": lambda t, mp: mp.exp(2 * t) - 5 * t,
    "x^4 - 3*x": lambda t, mp: t**4 - 3 * t,
    "0 - log(x)": lambda t, mp: -mp.log(t),
}


class TestFunctionalIncrements:
    QUARTERS = [0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("name", ["h1", "h2"])
    def test_increment_kernel_is_nonnegative(self, name):
        # ν_x is (G/2)(δ₀ + δ_x) - g·1_[0,x] for h1 and g·1_[0,x] - G·δ_(x/2)
        # for h2; on the quarter grid of [0, 1], in exact arithmetic, the
        # step K_x₂ - K_x₁ of the kernel K_x(s) = ∫(t - s)₊ dν_x is >= 0 at
        # s = j/256, and so is the step of μ₁(x) = ∫t dν_x
        grid = [Fraction(j, 256) for j in range(257)]
        for g in H_WEIGHTS[name]:
            m0, m1 = ([_moment(g, k, 0, s) for s in grid] for k in (0, 1))

            def kernel(i, j):  # K_x(s) at x = grid[i], s = grid[j]
                x, s = grid[i], grid[j]
                inner = m1[i] - m1[j] - s * (m0[i] - m0[j]) if j < i else 0
                return m0[i] / 2 * max(x - s, 0) - inner if name == "h1" else inner - m0[i] * max(x / 2 - s, 0)

            def mu1(i):
                spread = grid[i] * m0[i] / 2 - m1[i]
                return spread if name == "h1" else -spread

            for i1, i2 in zip(range(0, 256, 64), range(64, 257, 64)):
                assert mu1(i2) - mu1(i1) >= 0, (g, i2)
                for j in range(257):
                    assert kernel(i2, j) - kernel(i1, j) >= 0, (g, i2, j)

    @pytest.mark.parametrize("name, functional, weight", [("h1", h1_functional, "1 - x"), ("h2", h2_functional, "x")])
    def test_targets_are_the_functionals_steps(self, name, functional, weight):
        g = evaluation_spec(weight)
        steps = functional_increments(name, EXP, g, EXP_BAND, UNIT, self.QUARTERS)
        values = [functional(EXP, g, UNIT, x) for x in [0.0] + self.QUARTERS]
        assert [r.value for _, r in steps] == [v - u for u, v in zip(values, values[1:])]
        for enc, r in steps:
            assert r.converged and enclosure_contains(enc, r.value, tol=1e-12)
            assert enc.lower > 0.0 and enc.target_description == f"{name} increment"

    def test_square_with_flat_weight_is_tight(self):
        # h1 = x³/6 and h2 = x³/12 for f = x², g = 1 on [0, 1]: μ₁ = 0
        for name, cube in (("h1", 6.0), ("h2", 12.0)):
            grid = [0.0] + self.QUARTERS
            steps = functional_increments(name, SQ, evaluation_spec("1"), SQ_BAND, UNIT, self.QUARTERS)
            for (enc, r), x1, x2 in zip(steps, grid, grid[1:]):
                exact = (x2**3 - x1**3) / cube
                assert enc.lower == pytest.approx(exact, abs=1e-15)
                assert enc.width == pytest.approx(0.0, abs=1e-15)
                assert r.value == pytest.approx(exact, abs=1e-13)

    def test_decreasing_nonconvex_f_is_enclosed(self):
        # f = -x has h1 = -x³/12 with g = 1 - x: no ordering holds, but each
        # step is f'(a)·Δμ₁ with a point band (0, 0)
        steps = functional_increments("h1", function_spec("0 - x"), evaluation_spec("1 - x"),
                                      CurvatureBounds(0.0, 0.0), UNIT, [0.5, 1.0])
        for (enc, r), exact in zip(steps, [-(0.5**3) / 12.0, -(1.0 - 0.5**3) / 12.0]):
            assert enc.lower == pytest.approx(exact, abs=1e-15)
            assert r.value == pytest.approx(exact, abs=1e-13)

    def test_guards(self):
        with pytest.raises(MonotonicityViolated):
            functional_increments("h1", SQ, evaluation_spec("x"), SQ_BAND, UNIT, self.QUARTERS)
        with pytest.raises(MonotonicityViolated):
            functional_increments("h2", SQ, evaluation_spec("1 - x"), SQ_BAND, UNIT, self.QUARTERS)
        for grid in ([0.0, 1.0], [0.5, 0.5], [0.75, 0.5], [0.5, 1.5]):
            with pytest.raises(ParameterOutOfRange):
                functional_increments("h1", SQ, evaluation_spec("1"), SQ_BAND, UNIT, grid)
        with pytest.raises(ParameterOutOfRange, match="h1 or h2"):
            functional_increments("h3", SQ, evaluation_spec("1"), SQ_BAND, UNIT, self.QUARTERS)

    def test_memo_closes_no_cycle(self):
        # the factors (t - a)^k are kept in f's memo, and g's memo keeps
        # its integrals against them; neither memo refers to the other
        # spec, so both die without the cyclic collector
        f, g = function_spec("exp(x)"), evaluation_spec("1 - x")
        functional_increments("h1", f, g, EXP_BAND, UNIT, self.QUARTERS)
        refs = weakref.ref(f), weakref.ref(g)
        gc.disable()
        try:
            del f, g
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    @given(
        name=st.sampled_from(["h1", "h2"]),
        shape=st.sampled_from(["quadratic", *INCREMENT_FUNCTIONS]),
        c1=st.floats(-2.0, 2.0),
        c5=st.floats(-3.0, 3.0),
        a=st.floats(0.1, 2.0),
        width=st.floats(0.1, 3.0),
        e=st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=50, deadline=None)
    def test_agree_with_mpmath_for_any_curvature_band(self, name, shape, c1, c5, a, width, e):
        # f'(a) < 0 and f'' < 0 included: c₁x² + c₅x with c₁ in [-2, 2], or a
        # fixed f with a decreasing start, against g = e₀ + e₁τ + e₂τ², τ the
        # coordinate in [0, 1] that makes g fall (h1) or rise (h2)
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(a, a + width)
        if shape == "quadratic":
            f = function_spec(f"{c1!r}*x^2 + {c5!r}*x")
            mp_f = lambda t: c1 * t**2 + c5 * t  # noqa: E731
        else:
            f = function_spec(shape)
            mp_f = lambda t: INCREMENT_FUNCTIONS[shape](t, mpmath)  # noqa: E731
        tau = f"(({iv.b!r} - x)/{width!r})" if name == "h1" else f"((x - {a!r})/{width!r})"
        g = evaluation_spec(f"{e[0]!r} + {e[1]!r}*{tau} + {e[2]!r}*{tau}^2")
        c = curvature_range(f, iv)
        grid = [a + k * width / 4.0 for k in range(1, 4)] + [iv.b]
        steps = functional_increments(name, f, g, c, iv, grid)
        with mpmath.workdps(20):
            points, G, FG = [mpmath.mpf(a)] + grid, [0], [0]

            def mp_g(t):
                s = (iv.b - t if name == "h1" else t - a) / width
                return e[0] + e[1] * s + e[2] * s * s

            for u, v in zip(points, points[1:]):  # ∫ₐˣ g and ∫ₐˣ fg, segment by segment
                G.append(G[-1] + mpmath.quad(mp_g, [u, v], method="gauss-legendre"))
                FG.append(FG[-1] + mpmath.quad(lambda t: mp_f(t) * mp_g(t), [u, v], method="gauss-legendre"))
            if name == "h1":
                values = [(mp_f(points[0]) + mp_f(x)) / 2 * Gx - FGx for x, Gx, FGx in zip(points, G, FG)]
            else:
                values = [FGx - mp_f((points[0] + x) / 2) * Gx for x, Gx, FGx in zip(points, G, FG)]
        # the rounding of f'(a)·μ₁, the band's terms and the f values
        size = max(abs(f.derivative(a)) * width, abs(c.m) * width**2, abs(c.M) * width**2, abs(f(a)), abs(f(iv.b)), 1.0)
        slack = 1e-14 * size * float(G[-1])
        for (enc, r), u, v in zip(steps, values, values[1:]):
            exact = float(v - u)
            assert enc.lower - slack <= exact <= enc.upper + slack, (enc, exact)
            assert r.converged and abs(r.value - exact) <= slack

    def test_lower_end_is_the_papers_monotonicity(self):
        # on the harness's instances and weights (seed 42, the first 250
        # trials): where f'(a) >= 0 and m >= 0, every step's lower end is >= 0
        steps = 0
        for i in range(250):
            inst = random_convex_instance(_mix(42, i, 0))
            f, iv, c = inst.function, inst.interval, inst.curvature
            if f.derivative(iv.a) < 0.0 or c.m < 0.0:
                continue
            grid = [iv.a + k * (iv.b - iv.a) / 4.0 for k in range(1, 4)] + [iv.b]
            for name, branch in (("h1", 2), ("h2", 3)):
                g = random_monotone_weight(_mix(42, i, branch), iv, decreasing=name == "h1")
                for enc, _ in functional_increments(name, f, g, c, iv, grid, 1e-12):
                    assert enc.lower >= 0.0, (inst.recipe, name)
                    steps += 1
        assert steps == 816


SUBINTERVAL = (Rule.TRAPEZOID_GAP, Rule.MIDPOINT_GAP)


def _integer(q: Fraction) -> int:
    assert q.denominator == 1, q
    return q.numerator


class TestSubintervalMonotonicity:
    IV2 = Interval(0.0, 2.0)
    BAND2 = CurvatureBounds(1.0, E * E)  # exp on [0, 2]

    def differences(self, f, x):
        return [subinterval_gap_difference(rule, f, self.BAND2, self.IV2, x) for rule in SUBINTERVAL]

    def test_exp_frozen_pairs(self):
        # L_ab and ρ·L_ax at x = 1, ρ = 1/2
        frozen = {Rule.TRAPEZOID_GAP: (1.0, 0.07042954288523873),
                  Rule.MIDPOINT_GAP: (0.47624622100627967, 0.03478027887945845)}
        for rule, (whole, part) in frozen.items():
            _, ab = subinterval_gap(rule, EXP, self.BAND2, self.IV2, 2.0)
            _, ax = subinterval_gap(rule, EXP, self.BAND2, self.IV2, 1.0)
            enc, diff = subinterval_gap_difference(rule, EXP, self.BAND2, self.IV2, 1.0)
            assert ab.value == pytest.approx(whole, abs=1e-10)
            assert 0.5 * ax.value == pytest.approx(part, abs=1e-10)
            assert diff.value == ab.value - 0.5 * ax.value
            assert enc.lower <= diff.value <= enc.upper
            assert enc.source_rule is rule

    def test_x_at_left_endpoint(self):
        for rule in SUBINTERVAL:
            part_enc, part = subinterval_gap(rule, EXP, self.BAND2, self.IV2, 0.0)
            assert (part_enc.lower, part_enc.upper, part.value) == (0.0, 0.0, 0.0)
            whole_enc, whole = subinterval_gap(rule, EXP, self.BAND2, self.IV2, 2.0)
            enc, diff = subinterval_gap_difference(rule, EXP, self.BAND2, self.IV2, 0.0)
            assert (enc.lower, enc.upper, diff.value) == (whole_enc.lower, whole_enc.upper, whole.value)
            assert diff.value > 0.0

    def test_x_at_right_endpoint_closes_the_pair(self):
        for enc, diff in self.differences(EXP, 2.0):
            assert (enc.lower, enc.upper, diff.value) == (0.0, 0.0, 0.0)

    def test_refuses_other_rows_and_a_degenerate_interval(self):
        with pytest.raises(ParameterOutOfRange, match="bisection-mean has no subinterval difference"):
            subinterval_gap_difference(Rule.BISECTION_MEAN, EXP, self.BAND2, self.IV2, 1.0)
        with pytest.raises(ParameterOutOfRange, match="non-degenerate"):
            subinterval_gap_difference(Rule.MIDPOINT_GAP, EXP, self.BAND2, Interval(1.0, 1.0), 1.0)
        with pytest.raises(ParameterOutOfRange, match="outside working interval"):
            subinterval_gap_difference(Rule.MIDPOINT_GAP, EXP, self.BAND2, self.IV2, 2.5)

    def test_one_integral_per_interval(self, monkeypatch):
        runs, refinements = [], []
        adaptive, refine = quadrature._adaptive, quadrature._refine

        def counted_run(sample, a, b, tol):
            runs.append((a, b))
            return adaptive(sample, a, b, tol)

        def counted_refinement(sample, stack, tol, width):
            refinements.append(len(stack))
            return refine(sample, stack, tol, width)

        monkeypatch.setattr(quadrature, "_adaptive", counted_run)
        monkeypatch.setattr(quadrature, "_refine", counted_refinement)
        # x = 1 is an edge of the [0, 2] panels: [0, x] runs nothing
        self.differences(function_spec("exp(x)"), 1.0)
        assert (runs, refinements) == ([(0.0, 2.0)], [8])
        # off an edge, [0, x] runs one part-panel
        runs.clear()
        refinements.clear()
        self.differences(function_spec("exp(x)"), 0.7)
        assert (runs, refinements) == ([(0.0, 2.0)], [8, 1])

    def test_chains_share_the_part_panel(self, monkeypatch):
        refinements = []
        refine = quadrature._refine

        def counted_refinement(sample, stack, tol, width):
            refinements.append(len(stack))
            return refine(sample, stack, tol, width)

        monkeypatch.setattr(quadrature, "_refine", counted_refinement)
        # the [0, 0.7] part-panel of the differences is remembered for the gaps on [0, 0.7]
        f = function_spec("exp(x)")
        self.differences(f, 0.7)
        for rule in SUBINTERVAL:
            subinterval_gap(rule, f, self.BAND2, self.IV2, 0.7)
        assert refinements == [8, 1]

    def test_refined_chains_exp_frozen(self):
        # the lower end is the paper's refined chain
        # G_ab - m w²/24 >= ρ·(G_ax - m w_x²/24), frozen at x = 1
        enc, diff = subinterval_gap_difference(Rule.MIDPOINT_GAP, EXP, self.BAND2, self.IV2, 1.0)
        assert diff.value - enc.lower == pytest.approx(0.30957955433961304 - 0.013946945546125116, abs=1e-10)
        # at x = 0.7 the upper end is M·w²(1 - ρ³)/24, a third of the
        # M·w²(1 - ρ³)/8 that padding M x²/2 - f by M w²/8 gave
        enc, diff = subinterval_gap_difference(Rule.MIDPOINT_GAP, EXP, self.BAND2, self.IV2, 0.7)
        g_ab = (E * E - 1.0) / 2.0 - E
        g_ax = (math.exp(0.7) - 1.0) / 0.7 - math.exp(0.35)
        assert diff.value == pytest.approx(g_ab - 0.35 * g_ax, abs=1e-10)  # 0.46604
        assert enc.lower == pytest.approx(4.0 * (1.0 - 0.35**3) / 24.0, rel=1e-14)  # 0.15952
        assert enc.upper == pytest.approx(E * E * 4.0 * (1.0 - 0.35**3) / 24.0, rel=1e-14)  # 1.17871
        assert 3.0 * enc.upper == pytest.approx(3.5361, abs=1e-4)

    def test_refined_chains_width_whose_square_overflows(self):
        flat, iv = CurvatureBounds(0.0, 0.0), Interval(0.0, 1e200)
        with pytest.raises(ParameterOutOfRange, match=r"midpoint-gap: the width 5e\+199 .* w\*\*2"):
            subinterval_gap_difference(Rule.MIDPOINT_GAP, function_spec("1"), flat, iv, 5e199)

    def test_refined_chains_tight_for_quadratic(self):
        for rule in SUBINTERVAL:
            enc, diff = subinterval_gap_difference(rule, SQ, SQ_BAND, Interval(1.0, 3.0), 2.0)
            assert enc.width == pytest.approx(0.0, abs=1e-15)
            assert diff.value == pytest.approx(enc.lower, abs=1e-11)

    @pytest.mark.parametrize("rule", SUBINTERVAL)
    def test_difference_kernel_is_nonnegative(self, rule):
        # D = L_ab - ρ·L_ax on [0, 1], L_ax being the row on [0, ρ], in
        # exact arithmetic at ρ = r/64
        gap = bounds._GAPS[rule]
        alpha = Fraction(gap.alpha)
        nodes = [(Fraction(beta), Fraction(v)) for beta, _, v in gap.nodes(None)]
        for r in range(1, 65):
            rho = Fraction(r, 64)

            def difference(mean_ab, mean_ax, f):
                ab = alpha * mean_ab + sum(beta * f(v) for beta, v in nodes)
                return ab - rho * (alpha * mean_ax + sum(beta * f(v * rho) for beta, v in nodes))

            mass = difference(Fraction(1, 6), rho * rho / 6, lambda t: t * t / 2)
            assert mass == Fraction(gap.scale(96.0, None)) / Fraction(gap.divisor) / 96 * (1 - rho**3)
            # the Peano kernel K(s) = D[(t - s)₊] at s = j/256, times 2·256²
            # to stay in integers; every node v and v·ρ is such an s
            n, k = 256, 4 * r  # ρ = k/n
            terms = [(_integer(2 * n * beta), _integer(n * v), _integer(2 * k * beta), _integer(k * v))
                     for beta, v in nodes]
            for j in range(n + 1):
                kernel = _integer(alpha) * ((n - j) ** 2 - max(k - j, 0) ** 2) + sum(
                    c * max(p - j, 0) - d * max(q - j, 0) for c, p, d, q in terms
                )
                assert kernel >= 0, (r, j)


class TestVasicLackovic:
    def test_symmetric_nodes_golden(self):
        enc = vasic_lackovic(SQ, evaluation_spec("1"), NodeWeights(1.0, 1.0), UNIT, 0.25)
        assert enc.lower == pytest.approx(0.125, abs=1e-12)
        assert enc.upper == pytest.approx(0.25, abs=1e-12)
        r = target_vasic_lackovic(SQ, evaluation_spec("1"), NodeWeights(1.0, 1.0), UNIT, 0.25)
        assert r.value == pytest.approx(13.0 / 96.0, abs=1e-12)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_asymmetric_nodes_golden(self):
        nw = NodeWeights(2.0, 1.0)
        y = 1.0 / 3.0  # exactly the admissible radius
        enc = vasic_lackovic(SQ, evaluation_spec("1"), nw, UNIT, y)
        assert enc.lower == pytest.approx(2.0 / 27.0, abs=1e-12)
        assert enc.upper == pytest.approx(2.0 / 9.0, abs=1e-12)
        r = target_vasic_lackovic(SQ, evaluation_spec("1"), nw, UNIT, y)
        assert r.value == pytest.approx(8.0 / 81.0, abs=1e-12)
        assert enclosure_contains(enc, r.value, tol=1e-10)

    def test_inadmissible_window_rejected_before_evaluation(self):
        # f is undefined everywhere on the interval: reaching evaluation
        # would raise DomainError, so seeing AdmissibilityViolated proves
        # the admissibility gate fires first
        f = function_spec("log(x - 10)")
        with pytest.raises(AdmissibilityViolated):
            vasic_lackovic(f, evaluation_spec("1"), NodeWeights(2.0, 1.0), UNIT, 0.5)

    def test_node_weights_at_the_ends_of_the_float_range(self):
        # p + q overflows, or a product with p underflows, unless p and q
        # are scaled by a power of two first; the ratio decides alone
        iv = Interval(0.3, 0.7)
        f, g = function_spec("exp(x)"), evaluation_spec("1")
        equal = vasic_lackovic(f, g, NodeWeights(1.0, 1.0), iv, 0.1)
        for p in (1e308, 5e-324):
            assert vasic_lackovic(f, g, NodeWeights(p, p), iv, 0.1) == equal
        tiny = vasic_lackovic(f, g, NodeWeights(1e-320, 3e-320), iv, 0.05)
        plain = vasic_lackovic(f, g, NodeWeights(1.0, 3.0), iv, 0.05)
        assert tiny.lower == pytest.approx(plain.lower, rel=1e-15)
        assert tiny.upper == pytest.approx(plain.upper, rel=1e-15)
        assert bounds._barycentre(NodeWeights(1e-320, 3e-320), iv) == pytest.approx(0.6, rel=1e-15)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            vasic_lackovic(SQ, evaluation_spec("1"), NodeWeights(1.0, 1.0), UNIT, 0.0)

    def test_nan_half_width_rejected_by_name(self):
        with pytest.raises(ParameterOutOfRange, match="window half-width must be > 0, got nan"):
            vasic_lackovic(SQ, evaluation_spec("1"), NodeWeights(1.0, 1.0), UNIT, math.nan)

    def test_weight_symmetry_is_about_window_center(self):
        # x(1-x) is symmetric about 0.5 = the window centre here, so the
        # sides are f(0.5)·G and ℓ(0.5)·G with G = ∫ over [0.25, 0.75] = 11/96
        enc = vasic_lackovic(SQ, evaluation_spec(PARABOLA_W), NodeWeights(1.0, 1.0), UNIT, 0.25)
        assert enc.source_rule is Rule.VASIC_LACKOVIC
        assert enc.lower == pytest.approx(0.25 * 11.0 / 96.0, rel=1e-14)
        assert enc.upper == pytest.approx(0.5 * 11.0 / 96.0, rel=1e-14)

    def test_weight_need_not_be_symmetric_about_the_window_centre(self):
        # g = t on the window [1/3, 1] of (p, q) = (1, 2): G = 4/9 and
        # x̄ = 13/18; the chord of t² over [0, 1] is t
        enc = vasic_lackovic(SQ, evaluation_spec("x"), NodeWeights(1.0, 2.0), UNIT, 1.0 / 3.0)
        assert enc.source_rule is Rule.VASIC_LACKOVIC
        assert enc.lower == pytest.approx(4.0 / 9.0 * (13.0 / 18.0) ** 2, rel=1e-14)
        assert enc.upper == pytest.approx(4.0 / 9.0 * 13.0 / 18.0, rel=1e-14)
        assert enclosure_contains(enc, (1.0 - 1.0 / 81.0) / 4.0)  # ∫ t³ over the window


class TestTargets:
    def test_integral_mean(self):
        r = target_integral_mean(SQ, Interval(0.0, 2.0))
        assert r.value == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert r.converged

    def test_error_estimates_carry_the_integral_coefficients(self):
        # each gap scales ∫f by 1/width, or ∫g by a value of f, and
        # scales that integral's error estimate the same way
        iv = Interval(0.0, 4.0)
        err_f = integrate(EXP, iv).error_estimate
        assert err_f > 0.0
        assert target_gap(Rule.MIDPOINT_GAP, EXP, iv).error_estimate == err_f / 4.0
        assert target_gap(Rule.TRAPEZOID_GAP, EXP, iv).error_estimate == err_f / 4.0
        assert [target_gap(r, EXP, iv).error_estimate for r in BISECTION] == [err_f / 4.0] * 2
        # the weighted gaps carry ∫g and T = ∫(t - 2)g, the first moment
        # about the midpoint: the chord side ℓ(2)·∫g + s·T, s the chord's
        # slope, and the tangent side at the barycentre y = 2 + T/∫g
        g = evaluation_spec("exp(0 - (x - 2)^2)")
        err_g = integrate(g, iv).error_estimate
        err_t = quadrature.moment_about(g, iv, 2.0, 1).error_estimate
        err_fg = integrate(lambda t: EXP(t) * g(t), iv).error_estimate
        assert err_g > 0.0 and err_t > 0.0
        trap = target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, EXP, iv, g=g)
        mid = target_gap(Rule.WEIGHTED_MIDPOINT_GAP, EXP, iv, g=g)
        slope = (math.exp(4.0) - 1.0) / 4.0
        assert trap.error_estimate == pytest.approx(
            0.5 * (1.0 + math.exp(4.0)) * err_g + slope * err_t + err_fg, rel=1e-12
        )
        # y is 2 up to rounding, where f = f' = e²
        assert mid.error_estimate == pytest.approx(
            math.exp(2.0) * (err_g + err_t) + err_fg, rel=1e-12
        )

    def test_width_dividing_targets_reject_a_degenerate_interval(self):
        point = Interval(1.0, 1.0)
        for target in (
            lambda: target_integral_mean(SQ, point),
            lambda: target_gap(Rule.MIDPOINT_GAP, SQ, point),
            lambda: target_gap(Rule.TRAPEZOID_GAP, SQ, point),
            lambda: target_gap(Rule.BISECTION_MEAN, SQ, point),
            lambda: target_gap(Rule.BISECTION_QUARTER, SQ, point),
        ):
            with pytest.raises(ParameterOutOfRange, match="needs a non-degenerate interval"):
                target()

    def test_gap_target_rejects_non_gap_rule(self):
        with pytest.raises(ParameterOutOfRange):
            target_gap(Rule.HERMITE_HADAMARD, EXP, UNIT)

    def test_weight_spec_and_function_spec_agree(self):
        g_fn = evaluation_spec(PARABOLA_W)
        g_ws = classify_weight(g_fn, UNIT)
        a = target_fejer(EXP, g_fn, UNIT)
        b = target_fejer(EXP, g_ws, UNIT)
        assert a.value == b.value


# weights that are not symmetric about any centre: (text, mpmath form)
ASYMMETRIC_WEIGHTS = {
    "cubic": ("0.1 + 0.9*x^3", lambda t: 0.1 + 0.9 * t**3),
    "falling": ("1 - 0.9*x + 0.2*x^2", lambda t: 1 - 0.9 * t + 0.2 * t**2),
}


@pytest.mark.parametrize("name", ASYMMETRIC_WEIGHTS)
def test_asymmetric_weights_agree_with_mpmath(name):
    """Every weighted rule against mpmath for f = exp on [0, 1] with a
    weight in [0, 1] that no reflection maps to itself."""
    mpmath = pytest.importorskip("mpmath")
    text, mp_g = ASYMMETRIC_WEIGHTS[name]
    g = evaluation_spec(text)

    def quad(fn, a=0.0, b=1.0):
        return float(mpmath.quad(fn, [a, b]))

    G, T = quad(mp_g), quad(lambda t: t * mp_g(t))
    FG = quad(lambda t: mpmath.exp(t) * mp_g(t))
    xbar = T / G
    chord = (1.0 - xbar + E * xbar) * G  # ∫ ℓ g with ℓ(t) = 1 + (e - 1)t
    P = quad(lambda t: t * (1 - t) * mp_g(t))
    S = quad(lambda t: (t - xbar) ** 2 * mp_g(t))

    def close(enc, lower, upper, target):
        assert enc.lower == pytest.approx(lower, rel=1e-12, abs=1e-14)
        assert enc.upper == pytest.approx(upper, rel=1e-12, abs=1e-14)
        assert enclosure_contains(enc, target, tol=1e-12)

    close(fejer(EXP, g, UNIT), math.exp(xbar) * G, chord, FG)
    trap, mid = chord - FG, FG - math.exp(xbar) * G
    assert target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, EXP, UNIT, g=g).value == pytest.approx(trap, abs=1e-13)
    assert target_gap(Rule.WEIGHTED_MIDPOINT_GAP, EXP, UNIT, g=g).value == pytest.approx(mid, abs=1e-13)
    close(fejer_trapezoid_gap_bounds(EXP, g, EXP_BAND, UNIT), 0.5 * P, 0.5 * E * P, trap)
    close(fejer_midpoint_gap_bounds(EXP, g, EXP_BAND, UNIT), 0.5 * S, 0.5 * E * S, mid)

    # the window [0.1, 0.5] of (p, q) = (7, 3), still with the chord of [0, 1]
    wG, wT = quad(mp_g, 0.1, 0.5), quad(lambda t: t * mp_g(t), 0.1, 0.5)
    wFG = quad(lambda t: mpmath.exp(t) * mp_g(t), 0.1, 0.5)
    window = vasic_lackovic(EXP, g, NodeWeights(7.0, 3.0), UNIT, 0.2)
    close(window, math.exp(wT / wG) * wG, (1.0 - wT / wG + E * wT / wG) * wG, wFG)

    enc, r = complement_weight_gap(EXP, g, EXP_BAND, UNIT)
    assert r.value == pytest.approx(TRAP_GAP_EXP - trap, abs=1e-12)
    close(enc, 1.0 / 12.0 - 0.5 * P, E * (1.0 / 12.0 - 0.5 * P), r.value)
