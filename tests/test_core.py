"""Tests for the shared vocabulary types."""

import math

import pytest

from convexcert.core import (
    CurvatureBounds,
    Enclosure,
    Interval,
    InvalidInterval,
    Lambda,
    NodeWeights,
    ParameterOutOfRange,
    Provenance,
    Rule,
    enclosure_contains,
    make_interval,
)


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.midpoint == 2.0
        assert not iv.is_degenerate()

    def test_degenerate_is_legal(self):
        iv = Interval(2.5, 2.5)
        assert iv.width == 0.0
        assert iv.is_degenerate()

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(InvalidInterval):
            Interval(1.0, 0.0)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_nonfinite(self, a, b):
        with pytest.raises(InvalidInterval):
            Interval(a, b)

    def test_rejects_an_overflowing_width(self):
        with pytest.raises(InvalidInterval, match="width overflows"):
            Interval(-1e308, 1e308)
        assert Interval(-8e307, 8e307).width == 1.6e308

    def test_frozen(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.a = 5.0  # type: ignore[misc]


class TestMakeInterval:
    def test_ordered_input_not_swapped(self):
        iv, swapped = make_interval(0.0, 1.0)
        assert (iv.a, iv.b, swapped) == (0.0, 1.0, False)

    def test_reversed_input_swapped(self):
        iv, swapped = make_interval(1.0, 0.0)
        assert (iv.a, iv.b, swapped) == (0.0, 1.0, True)

    def test_idempotent(self):
        iv, _ = make_interval(7.0, -2.0)
        again, swapped = make_interval(iv.a, iv.b)
        assert again == iv
        assert not swapped

    def test_equal_endpoints_not_swapped(self):
        iv, swapped = make_interval(4.0, 4.0)
        assert iv.is_degenerate()
        assert not swapped

    def test_rejects_nan(self):
        with pytest.raises(InvalidInterval):
            make_interval(math.nan, 0.0)


class TestLambda:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, v):
        assert Lambda(v).value == v

    @pytest.mark.parametrize("v", [-0.001, 1.001, math.nan])
    def test_rejects_outside(self, v):
        with pytest.raises(ParameterOutOfRange):
            Lambda(v)


class TestNodeWeights:
    def test_accepts_positive(self):
        nw = NodeWeights(2.0, 1.0)
        assert (nw.p, nw.q) == (2.0, 1.0)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, -1.0), (math.inf, 1.0)])
    def test_rejects_nonpositive_or_nonfinite(self, p, q):
        with pytest.raises(ParameterOutOfRange):
            NodeWeights(p, q)


class TestCurvatureBounds:
    def test_ordered_band(self):
        c = CurvatureBounds(1.0, math.e)
        assert c.provenance is Provenance.USER_SUPPLIED

    def test_equal_band_allowed(self):
        CurvatureBounds(2.0, 2.0, Provenance.EXACT)

    def test_rejects_inverted(self):
        with pytest.raises(ParameterOutOfRange):
            CurvatureBounds(3.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterOutOfRange):
            CurvatureBounds(0.0, math.inf)


class TestEnclosure:
    def _enc(self, lo, hi):
        return Enclosure(lo, hi, "t", Rule.HERMITE_HADAMARD)

    def test_width(self):
        assert self._enc(1.0, 3.0).width == 2.0

    def test_rejects_inverted(self):
        with pytest.raises(ParameterOutOfRange):
            self._enc(1.0, 0.0)

    def test_infinite_upper_is_a_bound(self):
        enc = self._enc(1.0, math.inf)
        assert enclosure_contains(enc, 1e300)

    def test_rejects_nan(self):
        with pytest.raises(ParameterOutOfRange):
            self._enc(math.nan, 1.0)

    def test_contains_with_tolerance(self):
        enc = self._enc(0.0, 1.0)
        assert enclosure_contains(enc, 0.5)
        assert enclosure_contains(enc, 1.0)
        assert not enclosure_contains(enc, 1.0 + 1e-9)
        assert enclosure_contains(enc, 1.0 + 1e-9, tol=1e-8)
        assert enclosure_contains(enc, -1e-9, tol=1e-8)

    def test_contains_rejects_negative_tol(self):
        with pytest.raises(ParameterOutOfRange):
            enclosure_contains(self._enc(0.0, 1.0), 0.5, tol=-1.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_contains_rejects_non_finite_tol(self, tol):
        # an infinite slack contains everything, a NaN slack nothing
        with pytest.raises(ParameterOutOfRange):
            enclosure_contains(self._enc(0.0, 1.0), 0.5, tol=tol)


def test_rule_values_are_kebab_case():
    for rule in Rule:
        assert rule.value == rule.value.lower()
        assert " " not in rule.value
