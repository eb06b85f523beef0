"""Tests for the special means, their subinterval gap checks and the
Young refinements."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcert.core import (
    Enclosure,
    NonpositiveInput,
    ParameterOutOfRange,
    Rule,
    enclosure_contains,
)
from convexcert.means import (
    MeanKind,
    al_gap_check,
    arithmetic_mean,
    geometric_mean,
    harmonic_log_gap_check,
    harmonic_mean,
    identric_mean,
    identric_ratio_check,
    integral_power_mean,
    logarithmic_mean,
    mean,
    power_mean,
    young_difference_bounds,
    young_difference_target,
    young_ratio_bounds,
    young_ratio_target,
)

E = math.e

positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


class TestClassicalValues:
    def test_pythagorean_triples(self):
        assert arithmetic_mean(1.0, 3.0) == 2.0
        assert geometric_mean(1.0, 4.0) == 2.0
        assert harmonic_mean(2.0, 6.0) == 3.0

    def test_logarithmic(self):
        assert logarithmic_mean(1.0, E) == pytest.approx(E - 1.0, rel=1e-14)
        assert logarithmic_mean(3.0, 3.0) == 3.0

    def test_identric(self):
        assert identric_mean(1.0, E) == pytest.approx(math.exp(1.0 / (E - 1.0)), rel=1e-14)
        assert identric_mean(2.0, 2.0) == 2.0

    def test_all_means_collapse_on_equal_args(self):
        for fn in (arithmetic_mean, geometric_mean, harmonic_mean, logarithmic_mean, identric_mean):
            assert fn(5.0, 5.0) == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(NonpositiveInput):
            arithmetic_mean(bad, 1.0)
        with pytest.raises(NonpositiveInput):
            geometric_mean(1.0, bad)


class TestPowerMeans:
    def test_quadratic_power_mean(self):
        assert power_mean(2.0, 1.0, 7.0) == pytest.approx(5.0, rel=1e-15)

    def test_special_exponents(self):
        a, b = 2.0, 5.0
        assert power_mean(1.0, a, b) == pytest.approx(arithmetic_mean(a, b), rel=1e-14)
        assert power_mean(-1.0, a, b) == pytest.approx(harmonic_mean(a, b), rel=1e-14)
        assert power_mean(0.0, a, b) == geometric_mean(a, b)

    def test_integral_special_exponents(self):
        a, b = 2.0, 5.0
        assert integral_power_mean(1.0, a, b) == pytest.approx(arithmetic_mean(a, b), rel=1e-14)
        assert integral_power_mean(-1.0, a, b) == logarithmic_mean(a, b)
        assert integral_power_mean(0.0, a, b) == identric_mean(a, b)
        assert integral_power_mean(-2.0, a, b) == pytest.approx(geometric_mean(a, b), rel=1e-14)

    def test_limits_are_continuous(self):
        a, b = 1.5, 6.0
        assert power_mean(1e-6, a, b) == pytest.approx(geometric_mean(a, b), rel=1e-5)
        assert integral_power_mean(1e-6, a, b) == pytest.approx(identric_mean(a, b), rel=1e-5)
        assert integral_power_mean(-1.0 + 1e-7, a, b) == pytest.approx(
            logarithmic_mean(a, b), rel=1e-5
        )

    def test_nonfinite_exponent_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            power_mean(math.inf, 1.0, 2.0)

    def test_dispatch(self):
        mv = mean(MeanKind.POWER, 1.0, 7.0, p=2.0)
        assert (mv.kind, mv.p) == (MeanKind.POWER, 2.0)
        assert mv.value == pytest.approx(5.0, rel=1e-15)
        assert mean(MeanKind.IDENTRIC, 1.0, E).value == pytest.approx(
            identric_mean(1.0, E), rel=1e-15
        )

    def test_dispatch_exponent_rules(self):
        with pytest.raises(ParameterOutOfRange):
            mean(MeanKind.POWER, 1.0, 2.0)
        with pytest.raises(ParameterOutOfRange):
            mean(MeanKind.ARITHMETIC, 1.0, 2.0, p=2.0)


class TestOrdering:
    @given(a=positive, b=positive)
    @settings(max_examples=300, deadline=None)
    def test_classical_chain(self, a, b):
        h = harmonic_mean(a, b)
        g = geometric_mean(a, b)
        l = logarithmic_mean(a, b)
        i = identric_mean(a, b)
        m = arithmetic_mean(a, b)
        slack = 1e-12 * m
        assert h <= g + slack
        assert g <= l + slack
        assert l <= i + slack
        assert i <= m + slack

    @given(a=positive, b=positive, p=st.floats(min_value=-3.0, max_value=3.0))
    @example(a=0.010000000000000002, b=0.01, p=1.0)  # a^2 - b^2 keeps no digit
    @example(a=1.0, b=1.0000000000000002, p=-0.5)  # b^0.5 - a^0.5 rounds to 0
    @example(a=1e-100, b=1e100, p=3.0)  # b^4 overflows
    @settings(max_examples=200, deadline=None)
    def test_integral_power_mean_between_operands(self, a, b, p):
        lo, hi = min(a, b), max(a, b)
        v = integral_power_mean(p, a, b)
        assert lo - 1e-12 * hi <= v <= hi + 1e-12 * hi

    @given(
        a=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        b=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        p=st.floats(-8.0, -0.05) | st.floats(0.05, 8.0),
    )
    @example(a=1e-200, b=1e-200, p=2.0)  # a^2 underflows to 0
    @example(a=1e200, b=3e200, p=2.0)  # a^2 overflows
    @example(a=1e-300, b=1e300, p=-3.0)  # a^-3 overflows
    @settings(max_examples=300, deadline=None)
    def test_power_mean_between_operands(self, a, b, p):
        lo, hi = min(a, b), max(a, b)
        v = power_mean(p, a, b)
        assert lo * (1.0 - 1e-12) <= v <= hi * (1.0 + 1e-12)

    # operands at least 310 decades apart and |p + 1| >= 1, so that
    # (p+1)·log(hi/lo) >= 700 and the powers themselves may overflow
    @given(
        lo=st.floats(-300.0, -155.0).map(lambda e: 10.0**e),
        hi=st.floats(155.0, 300.0).map(lambda e: 10.0**e),
        p=st.floats(-5.0, -2.0) | st.floats(0.05, 5.0),
        swap=st.booleans(),
    )
    @example(lo=1e-100, hi=1e100, p=3.0, swap=False)
    @settings(max_examples=200, deadline=None)
    def test_integral_power_mean_of_far_operands_matches_mpmath(self, lo, hi, p, swap):
        mpmath = pytest.importorskip("mpmath")
        a, b = (hi, lo) if swap else (lo, hi)
        with mpmath.workdps(60):
            mlo, mhi, q = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(p) + 1
            exact = ((mhi**q - mlo**q) / (q * (mhi - mlo))) ** (1 / mpmath.mpf(p))
            assert abs(integral_power_mean(p, a, b) - exact) <= 1e-12 * exact


# operand pairs that left the float range inside the classical means:
# (b - a)/a overflowing or rounding to -1, a + b or 2ab overflowing, and
# 2ab underflowing to zero or to a subnormal
_FLOAT_RANGE_ENDS = [
    (1e-300, 1e300),
    (1e300, 1e-300),
    (1e20, 1.0),
    (1e308, 1.7e308),
    (1e-200, 1e-200),
    (1e-160, 1e-160),
]


class TestFloatRangeEnds:
    @given(
        a=st.floats(-307.0, 308.0).map(lambda e: 10.0**e),
        b=st.floats(-307.0, 308.0).map(lambda e: 10.0**e),
    )
    @example(a=1e-300, b=1e300)
    @example(a=1e308, b=1.7e308)
    @example(a=1e-200, b=1e-200)
    @example(a=1e-160, b=1e-160)
    @example(a=1e15, b=1.0)  # descending: (b - a)/a nears -1 unless ordered
    @example(a=1e10, b=1.0)
    @settings(max_examples=300, deadline=None)
    def test_classical_means_match_mpmath(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            if a == b:
                exact = dict.fromkeys(("h", "g", "l", "i", "m"), ma)
            else:
                exact = {
                    "h": 2 * ma * mb / (ma + mb),
                    "g": mpmath.sqrt(ma * mb),
                    "l": (mb - ma) / (mpmath.log(mb) - mpmath.log(ma)),
                    "i": mpmath.exp((mb * mpmath.log(mb) - ma * mpmath.log(ma)) / (mb - ma) - 1),
                    "m": (ma + mb) / 2,
                }
            got = {
                "h": harmonic_mean(a, b),
                "g": geometric_mean(a, b),
                "l": logarithmic_mean(a, b),
                "i": identric_mean(a, b),
                "m": arithmetic_mean(a, b),
            }
            for name, value in got.items():
                assert abs(value - exact[name]) <= 1e-13 * exact[name], name

    @pytest.mark.parametrize("a, b", _FLOAT_RANGE_ENDS)
    def test_means_stay_between_the_operands(self, a, b):
        lo, hi = min(a, b), max(a, b)
        chain = [harmonic_mean(a, b), geometric_mean(a, b), logarithmic_mean(a, b),
                 identric_mean(a, b), arithmetic_mean(a, b)]
        assert all(lo * (1.0 - 1e-13) <= v <= hi * (1.0 + 1e-13) for v in chain)
        assert chain == sorted(chain)

class TestSubintervalGapChecks:
    """Each check returns (enclosure, value) for the width-scaled gap
    difference (b - a)·L_ab - (x - a)·L_ax."""

    def test_al_golden_case(self):
        # t² has f'' = 2, so the band is the point 2·(1³ - 0.5³)/12 = 7/48
        enc, value = al_gap_check(2.0, 1.0, 2.0, 1.5)
        assert enc.lower == enc.upper == pytest.approx(7.0 / 48.0, abs=1e-15)
        assert value.value == pytest.approx(1.0 / 6.0 - 1.0 / 48.0, abs=1e-14)
        assert value.converged and enc.source_rule is Rule.TRAPEZOID_GAP

    def test_al_window_edges(self):
        enc, value = al_gap_check(2.0, 1.0, 2.0, 1.0)
        assert enc.lower == enc.upper == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert value.value == pytest.approx(1.0 / 6.0, abs=1e-14)
        enc2, value2 = al_gap_check(2.0, 1.0, 2.0, 2.0)
        assert (enc2.lower, enc2.upper, value2.value) == (0.0, 0.0, 0.0)

    def test_al_affine_exponent_is_tight(self):
        enc, value = al_gap_check(1.0, 1.0, 2.0, 1.5)
        assert (enc.lower, enc.upper) == (0.0, 0.0)
        assert value.value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.999])
    def test_al_invalid_exponents(self, p):
        with pytest.raises(ParameterOutOfRange):
            al_gap_check(p, 1.0, 2.0, 1.5)

    @pytest.mark.parametrize("a,b,x", [(1.0, 2.0, 0.5), (1.0, 2.0, 2.5), (2.0, 2.0, 2.0)])
    def test_al_invalid_windows(self, a, b, x):
        with pytest.raises(ParameterOutOfRange):
            al_gap_check(2.0, a, b, x)

    @pytest.mark.parametrize(
        "check,args",
        [
            (al_gap_check, (4.0, 1.0, 1e80, 2.0)),
            (al_gap_check, (-3.0, 1e-120, 1.0, 0.5)),
            (al_gap_check, (2.0, 1e200, 2e200, 1.5e200)),
            (identric_ratio_check, (1.0, 1e300, 2.0)),
            (harmonic_log_gap_check, (1e-320, 1.0, 0.5)),
        ],
    )
    def test_overflow_is_refused(self, check, args):
        # a power, a band or w² beyond the float range
        with pytest.raises(ParameterOutOfRange):
            check(*args)

    @given(
        p=st.sampled_from([-3.0, -0.5, -0.05, 1.0, 1.5, 2.0, 4.0]),
        a=positive,
        width=st.floats(min_value=0.01, max_value=10.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_al_chain_property(self, p, a, width, frac):
        b = a + width
        x = a + frac * width
        enc, value = al_gap_check(p, a, b, x)
        # documented conditioning: the value carries absolute error of
        # order eps * b^(p+1) from the cancelling mean difference
        scale = max(1.0, abs(value.value), b ** (p + 1.0))
        assert enc.lower >= 0.0
        assert enclosure_contains(enc, value.value, tol=1e-12 * scale)

    def test_harmonic_log_golden(self):
        left = 0.75 - math.log(2.0)
        right = 0.5 * (5.0 / 6.0 - 2.0 * math.log(1.5))
        enc, value = harmonic_log_gap_check(1.0, 2.0, 1.5)
        assert value.value == pytest.approx(left - right, rel=1e-13)
        assert enclosure_contains(enc, value.value)
        assert (enc, value) == al_gap_check(-1.0, 1.0, 2.0, 1.5)

    @given(a=positive, width=st.floats(min_value=0.01, max_value=10.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_harmonic_log_chain_property(self, a, width, frac):
        b = a + width
        x = a + frac * width
        enc, value = harmonic_log_gap_check(a, b, x)
        assert (enc, value) == al_gap_check(-1.0, a, b, x)
        assert enclosure_contains(enc, value.value, tol=1e-11 * max(1.0, abs(value.value)))

    def test_identric_ratio_endpoints(self):
        # log(A/I) on [1, e] is log((1 + e)/2) - 1/(e - 1)
        enc, value = identric_ratio_check(1.0, E, 1.0)
        assert value.value == pytest.approx((E - 1.0) * (math.log((1.0 + E) / 2.0) - 1.0 / (E - 1.0)), rel=1e-13)
        assert enclosure_contains(enc, value.value)
        enc2, value2 = identric_ratio_check(1.0, E, E)
        assert (enc2.lower, enc2.upper, value2.value) == (0.0, 0.0, 0.0)

    @given(a=positive, width=st.floats(min_value=0.01, max_value=5.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_identric_ratio_chain_property(self, a, width, frac):
        b = a + width
        enc, value = identric_ratio_check(a, b, a + frac * width)
        assert enc.lower >= 0.0
        assert enclosure_contains(enc, value.value, tol=1e-11 * max(1.0, abs(value.value)))


class TestYoung:
    def test_ratio_golden(self):
        enc = young_ratio_bounds(1.0, 4.0, 0.5)
        assert enc.lower == pytest.approx(math.exp(9.0 / 128.0), rel=1e-14)
        assert enc.upper == pytest.approx(math.exp(1.125), rel=1e-14)
        assert young_ratio_target(1.0, 4.0, 0.5) == pytest.approx(1.25, rel=1e-15)
        assert enclosure_contains(enc, 1.25)
        assert enc.source_rule is Rule.YOUNG_RATIO

    def test_difference_golden(self):
        enc = young_difference_bounds(1.0, 4.0, 0.5)
        log2sq = math.log(4.0) ** 2
        assert enc.lower == pytest.approx(0.125 * log2sq, rel=1e-14)
        assert enc.upper == pytest.approx(0.5 * log2sq, rel=1e-14)
        assert young_difference_target(1.0, 4.0, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert enclosure_contains(enc, 0.5)
        assert enc.source_rule is Rule.YOUNG_DIFFERENCE

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_corner_lambdas_are_exact(self, lam):
        assert young_ratio_target(2.0, 7.0, lam) == 1.0
        assert young_difference_target(2.0, 7.0, lam) == 0.0
        enc = young_ratio_bounds(2.0, 7.0, lam)
        assert (enc.lower, enc.upper) == (1.0, 1.0)
        diff = young_difference_bounds(2.0, 7.0, lam)
        assert (diff.lower, diff.upper) == (0.0, 0.0)

    def test_equal_operands_are_exact(self):
        assert young_ratio_target(3.0, 3.0, 0.3) == 1.0
        assert young_difference_target(3.0, 3.0, 0.3) == 0.0
        enc = young_ratio_bounds(3.0, 3.0, 0.3)
        assert (enc.lower, enc.upper) == (1.0, 1.0)

    def test_difference_is_the_chord_gap_of_exp_bit_for_bit(self):
        # the chord gap of exp on [log α, log β], whose band is (α, β),
        # rounds exactly as the closed form λ(1-λ)/2·log²(α/β)·(α, β)
        rng = random.Random(20005)
        cases = [(math.exp(rng.uniform(-5.0, 5.0)), math.exp(rng.uniform(-5.0, 5.0)), rng.random())
                 for _ in range(2000)]
        cases += [(2.0, 2.0, 0.3), (1.0, 3.0, 0.0), (1.0, 3.0, 1.0)]
        cases += [(5e-324, 1e308, 0.25), (1e308, 5e-324, 0.75)]
        for a, b, lam in cases:
            alpha, beta, w = (a, b, lam) if a <= b else (b, a, 1.0 - lam)
            s = w * (1.0 - w) * 0.5 * (math.log(alpha) - math.log(beta)) ** 2
            enc = young_difference_bounds(a, b, lam)
            assert (enc.lower, enc.upper) == (s * alpha, s * beta), (a, b, lam)
            assert enc.source_rule is Rule.YOUNG_DIFFERENCE

    def test_operand_order_does_not_matter(self):
        # swapping operands replaces lam by 1 - lam, which is exact only
        # up to one ulp, so compare at that level rather than bitwise
        fwd = young_ratio_bounds(2.0, 9.0, 0.3)
        rev = young_ratio_bounds(9.0, 2.0, 0.7)
        assert fwd.lower == pytest.approx(rev.lower, rel=1e-12)
        assert fwd.upper == pytest.approx(rev.upper, rel=1e-12)
        assert young_ratio_target(2.0, 9.0, 0.3) == pytest.approx(
            young_ratio_target(9.0, 2.0, 0.7), rel=1e-14
        )

    def test_subnormal_operands_are_contained(self):
        # the ratio is scaled out of the subnormal range before it rounds
        assert young_ratio_target(5e-324, 1e-323, 0.5) == pytest.approx(1.5 / math.sqrt(2.0), rel=1e-15)
        rng = random.Random(1074)
        for _ in range(2000):
            a, b = 2.0 ** rng.uniform(-1074.0, -1000.0), 2.0 ** rng.uniform(-1074.0, -1000.0)
            lam = rng.random()
            assert enclosure_contains(young_ratio_bounds(a, b, lam), young_ratio_target(a, b, lam)), (a, b, lam)

    def test_extreme_ratio_overflows_to_valid_bound(self):
        enc = young_ratio_bounds(1e-300, 1e300, 0.5)
        assert enc.upper == math.inf
        assert math.isfinite(enc.lower)
        assert isinstance(enc, Enclosure)
        assert enclosure_contains(enc, young_ratio_target(1e-300, 1e300, 0.5))

    @given(a=positive, b=positive, lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_containment_property(self, a, b, lam):
        ratio = young_ratio_target(a, b, lam)
        diff = young_difference_target(a, b, lam)
        assert enclosure_contains(young_ratio_bounds(a, b, lam), ratio, tol=1e-9 * max(1.0, ratio))
        assert enclosure_contains(
            young_difference_bounds(a, b, lam), diff, tol=1e-9 * max(1.0, abs(diff))
        )

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            young_ratio_bounds(1.0, 2.0, 1.2)
        with pytest.raises(ParameterOutOfRange):
            young_difference_target(1.0, 2.0, -0.1)

    def test_nonpositive_operands_rejected(self):
        with pytest.raises(NonpositiveInput):
            young_ratio_bounds(0.0, 1.0, 0.5)
