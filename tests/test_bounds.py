"""Tests for the enclosure operations.

Expected values are frozen from closed forms computed independently of
the library (exact antiderivatives of polynomials and exponentials),
so the oracle integrals are being checked, not trusted.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcert import bounds
from convexcert.bounds import (
    complement_weight_chains,
    fejer,
    fejer_midpoint_gap_bounds,
    fejer_trapezoid_gap_bounds,
    gap_bounds,
    h1_functional,
    h2_functional,
    hermite_hadamard,
    hh_gap_monotone,
    refined_gap_chains,
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
    SymmetryViolated,
    enclosure_contains,
)
from convexcert.expr import evaluation_spec, function_spec
from convexcert.quadrature import classify_weight, integrate

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

    def test_asymmetric_weight_rejected(self):
        with pytest.raises(SymmetryViolated):
            fejer(SQ, evaluation_spec("x"), UNIT)

    def test_weight_spec_is_recentred_for_new_interval(self):
        ws = classify_weight(evaluation_spec("1"), UNIT)
        iv = Interval(1.0, 3.0)
        enc = fejer(SQ, ws, iv)  # center mismatch forces re-classification
        assert enc.lower == pytest.approx(8.0, abs=1e-12)
        assert enc.upper == pytest.approx(10.0, abs=1e-12)
        assert enclosure_contains(enc, 26.0 / 3.0, tol=1e-10)

    def test_weight_spec_from_another_interval_is_checked_again(self):
        # 1 - 4(x-1)² is nonnegative and symmetric on [0.5, 1.5], the
        # interval it was classified on, but reaches -3 on [0, 2]
        ws = classify_weight(evaluation_spec("1 - 4*(x - 1)^2"), Interval(0.5, 1.5))
        assert ws.symmetric
        iv = Interval(0.0, 2.0)
        for call in (
            lambda: fejer(SQ, ws, iv),
            lambda: fejer_trapezoid_gap_bounds(SQ, ws, SQ_BAND, iv),
            lambda: complement_weight_chains(SQ, ws, SQ_BAND, iv),
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

    @pytest.mark.parametrize("rule", [Rule.HERMITE_HADAMARD, Rule.WEIGHTED_MIDPOINT_GAP])
    def test_rejects_a_rule_outside_the_table(self, rule):
        with pytest.raises(ParameterOutOfRange, match="not an unweighted gap rule"):
            gap_bounds(rule, EXP_BAND, UNIT, Lambda(0.5))

    @pytest.mark.parametrize("rule", [Rule.CHORD_GAP, Rule.SYMMETRIC_PAIR_GAP])
    def test_lambda_rule_needs_lambda(self, rule):
        with pytest.raises(ParameterOutOfRange, match="needs lambda"):
            gap_bounds(rule, EXP_BAND, UNIT)

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
    def test_exp_parabola_frozen_values(self):
        chain1, chain2 = complement_weight_chains(
            EXP, evaluation_spec(PARABOLA_W), EXP_BAND, UNIT
        )
        assert chain1[0] == pytest.approx(0.057525752437144126, abs=1e-10)
        assert chain1[1] == pytest.approx(0.011471980830632163, abs=1e-10)
        assert chain2[0] == pytest.approx(0.08566439993444297, abs=1e-10)
        assert chain2[1] == pytest.approx(0.017166049643685233, abs=1e-10)
        for left, middle, zero in (chain1, chain2):
            assert left >= middle - 1e-9
            assert middle >= -1e-9
            assert zero == 0.0

    def test_unit_weight_middle_equals_left(self):
        # with g ≡ 1 the complement weight vanishes, so the middle terms
        # coincide with the left terms exactly (up to oracle error)
        chain1, chain2 = complement_weight_chains(EXP, evaluation_spec("1"), EXP_BAND, UNIT)
        assert chain1[1] == pytest.approx(chain1[0], abs=1e-11)
        assert chain2[1] == pytest.approx(chain2[0], abs=1e-11)

    def test_weight_above_one_rejected(self):
        with pytest.raises(RangeViolated):
            complement_weight_chains(EXP, evaluation_spec("5*x*(1 - x)"), EXP_BAND, UNIT)

    def test_asymmetric_weight_rejected(self):
        with pytest.raises(SymmetryViolated):
            complement_weight_chains(EXP, evaluation_spec("x"), EXP_BAND, UNIT)


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
        g = evaluation_spec(weight)
        for x in (0.25, 0.6, 1.0):
            expected = target_gap(rule, EXP, Interval(0.0, x), g=g).value
            assert functional(EXP, g, UNIT, x) == expected

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


class TestSubintervalMonotonicity:
    IV2 = Interval(0.0, 2.0)

    def test_exp_frozen_pairs(self):
        (t_ab, t_ax), (m_ab, m_ax) = hh_gap_monotone(EXP, self.IV2, 1.0)
        assert t_ab == pytest.approx(1.0, abs=1e-10)
        assert t_ax == pytest.approx(0.07042954288523873, abs=1e-10)
        assert m_ab == pytest.approx(0.47624622100627967, abs=1e-10)
        assert m_ax == pytest.approx(0.03478027887945845, abs=1e-10)
        assert t_ab >= t_ax >= 0.0
        assert m_ab >= m_ax >= 0.0

    def test_x_at_left_endpoint(self):
        (t_ab, t_ax), (m_ab, m_ax) = hh_gap_monotone(EXP, self.IV2, 0.0)
        assert (t_ax, m_ax) == (0.0, 0.0)
        assert t_ab > 0.0 and m_ab > 0.0

    def test_x_at_right_endpoint_closes_the_pair(self):
        (t_ab, t_ax), (m_ab, m_ax) = hh_gap_monotone(EXP, self.IV2, 2.0)
        assert t_ax == pytest.approx(t_ab, abs=1e-10)
        assert m_ax == pytest.approx(m_ab, abs=1e-10)

    def test_one_integral_per_interval(self, monkeypatch):
        calls = []

        def counting(f, interval, tol=1e-10):
            calls.append(interval)
            return integrate(f, interval, tol)

        monkeypatch.setattr(bounds, "integrate", counting)
        hh_gap_monotone(EXP, self.IV2, 1.0)
        assert calls == [Interval(0.0, 1.0), self.IV2]

    def test_refined_chains_exp_frozen(self):
        band = CurvatureBounds(1.0, E * E)
        pair_a, pair_b = refined_gap_chains(EXP, band, self.IV2, 1.0)
        assert pair_a[0] == pytest.approx(0.30957955433961304, abs=1e-10)
        assert pair_a[1] == pytest.approx(0.013946945546125116, abs=1e-10)
        assert pair_b[0] == pytest.approx(3.2182818284590451, abs=1e-10)
        assert pair_b[1] == pytest.approx(0.42703572730370715, abs=1e-10)
        assert pair_a[0] >= pair_a[1] >= 0.0
        assert pair_b[0] >= pair_b[1] >= 0.0

    def test_refined_chains_tight_for_quadratic(self):
        pair_a, _ = refined_gap_chains(SQ, SQ_BAND, Interval(1.0, 3.0), 2.0)
        assert pair_a[0] == pytest.approx(0.0, abs=1e-11)
        assert pair_a[1] == pytest.approx(0.0, abs=1e-11)


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

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            vasic_lackovic(SQ, evaluation_spec("1"), NodeWeights(1.0, 1.0), UNIT, 0.0)

    def test_weight_symmetry_is_about_window_center(self):
        # x(1-x) is symmetric about 0.5 = the window centre here
        enc = vasic_lackovic(SQ, evaluation_spec(PARABOLA_W), NodeWeights(1.0, 1.0), UNIT, 0.25)
        assert enc.source_rule is Rule.VASIC_LACKOVIC
        with pytest.raises(SymmetryViolated):
            vasic_lackovic(SQ, evaluation_spec("x"), NodeWeights(1.0, 1.0), UNIT, 0.25)


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
        g = evaluation_spec("exp(0 - (x - 2)^2)")
        err_g = integrate(g, iv).error_estimate
        err_fg = integrate(lambda t: EXP(t) * g(t), iv).error_estimate
        assert err_g > 0.0
        trap = target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, EXP, iv, g=g)
        mid = target_gap(Rule.WEIGHTED_MIDPOINT_GAP, EXP, iv, g=g)
        assert trap.error_estimate == pytest.approx(
            0.5 * (1.0 + math.exp(4.0)) * err_g + err_fg, rel=1e-12
        )
        assert mid.error_estimate == pytest.approx(math.exp(2.0) * err_g + err_fg, rel=1e-12)

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
