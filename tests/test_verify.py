"""Tests for the randomized falsification harness: instance generation,
determinism, accounting and coverage."""

import json
import math

import pytest

from convexcert import bounds
from convexcert.core import (
    Enclosure,
    Interval,
    Monotonicity,
    MonotonicityViolated,
    OracleInconclusive,
    ParameterOutOfRange,
    Provenance,
    QuadResult,
    Rule,
)
from convexcert.expr import evaluation_spec
from convexcert.quadrature import classify_weight
from convexcert.verify import (
    CHECKS_PER_TRIAL,
    ConvexInstance,
    FailureRecord,
    TrialReport,
    _Battery,
    falsify,
    random_convex_instance,
    random_monotone_weight,
    random_symmetric_weight,
)

# the 24 operation labels the battery must exercise every trial
EXPECTED_OPS = {
    "hermite_hadamard",
    "fejer",
    "hh_midpoint_gap_bounds",
    "hh_trapezoid_gap_bounds",
    "chord_gap_bounds",
    "symmetric_pair_gap_bounds",
    "fejer_trapezoid_gap_bounds",
    "fejer_midpoint_gap_bounds",
    "complement_weight_gap",
    "bisection_bounds_mean",
    "bisection_bounds_quarter",
    "h1_functional",
    "h2_functional",
    "subinterval_gap_difference_trapezoid",
    "subinterval_gap_difference_midpoint",
    "subinterval_gap_trapezoid",
    "subinterval_gap_midpoint",
    "vasic_lackovic",
    "mean_ordering",
    "al_gap_check",
    "harmonic_log_gap_check",
    "identric_ratio_check",
    "young_ratio_bounds",
    "young_difference_bounds",
}


class TestInstanceGeneration:
    def test_deterministic(self):
        a = random_convex_instance(12345)
        b = random_convex_instance(12345)
        assert a.recipe == b.recipe
        assert a.function.text == b.function.text
        assert (a.curvature.m, a.curvature.M) == (b.curvature.m, b.curvature.M)

    def test_different_seeds_differ(self):
        recipes = {random_convex_instance(s).recipe for s in range(20)}
        assert len(recipes) == 20

    @pytest.mark.parametrize("seed", range(0, 60, 2))
    def test_curvature_certificate_is_valid(self, seed):
        inst = random_convex_instance(seed)
        assert isinstance(inst, ConvexInstance)
        assert inst.curvature.provenance is Provenance.EXACT
        assert inst.curvature.m >= 0.0  # generated instances are convex
        a, b = inst.interval.a, inst.interval.b
        assert 0.1 <= inst.interval.width <= 5.0
        scale = max(1.0, abs(inst.curvature.m), abs(inst.curvature.M))
        for k in range(11):
            x = a + (b - a) * k / 10.0
            d2 = inst.function.second_derivative(x)
            assert inst.curvature.m - 1e-12 * scale <= d2 <= inst.curvature.M + 1e-12 * scale

    def test_recipe_text_is_pinned(self):
        # the recipe is formatted from the instance on demand, to the same text
        inst = random_convex_instance(3)
        assert (inst.seed, inst.family) == (3, "log")
        assert inst.recipe == (
            "seed=3 family=log interval=[0.26537535177571137, 1.5314020245259792] "
            "f=2.747834435192943*x^2.0 + -(1.8956786843901152*log(x + 1.5978522485022757))"
            " + -0.10378585381149374*x + 0.32340833740022346"
        )

    def test_recipe_names_a_known_family(self):
        families = set()
        for seed in range(40):
            recipe = random_convex_instance(seed).recipe
            family = recipe.split("family=")[1].split()[0]
            families.add(family)
            assert family in {"quadratic", "exp", "log", "mixed"}
        assert len(families) == 4  # all families appear in 40 draws


class TestWeightGeneration:
    IV = Interval(-1.5, 2.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetric_weight(self, seed):
        ws = random_symmetric_weight(seed, self.IV)
        assert ws.range01
        a, b = self.IV.a, self.IV.b
        for k in range(51):
            x = a + k * self.IV.width / 50.0
            assert ws.function(x) == pytest.approx(ws.function(a + b - x), rel=1e-12)
        values = [ws.function(self.IV.a + k * self.IV.width / 50.0) for k in range(51)]
        assert min(values) >= 0.0
        assert max(values) <= 1.0 + 1e-9

    def test_symmetric_weight_deterministic(self):
        a = random_symmetric_weight(7, self.IV)
        b = random_symmetric_weight(7, self.IV)
        assert a.function.text == b.function.text

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_weights(self, seed):
        dec = random_monotone_weight(seed, self.IV, decreasing=True)
        inc = random_monotone_weight(seed, self.IV, decreasing=False)
        assert dec.monotone is Monotonicity.DECREASING
        assert inc.monotone is Monotonicity.INCREASING
        assert classify_weight(evaluation_spec(dec.function.ast), self.IV).monotone is Monotonicity.DECREASING
        assert classify_weight(evaluation_spec(inc.function.ast), self.IV).monotone is Monotonicity.INCREASING


class TestFalsify:
    def test_deterministic_report(self):
        r1 = falsify(5, 7)
        r2 = falsify(5, 7)
        assert r1 == r2
        assert r1.to_json() == r2.to_json()

    def test_accounting(self):
        r = falsify(3, 123)
        assert r.passed + r.failed + r.inconclusive == 3 * CHECKS_PER_TRIAL
        assert r.trials == 3
        assert r.seed == 123

    def test_every_operation_covered_each_trial(self):
        r = falsify(3, 11)
        assert set(r.op_counts) == EXPECTED_OPS
        for op, count in r.op_counts.items():
            if op in ("chord_gap_bounds", "symmetric_pair_gap_bounds"):
                expected = 33
            else:
                expected = 12 if op in ("h1_functional", "h2_functional") else 3
            assert count == expected, op

    def test_quadratic_family_is_machine_tight(self):
        # trial 0 of seed 2 draws a quadratic instance: every bound the
        # battery checks is then exact up to roundoff
        from convexcert.verify import _mix

        assert "family=quadratic" in random_convex_instance(_mix(2, 0, 0)).recipe
        r = falsify(1, 2)
        assert r.failed == 0
        assert r.worst_violation <= 1e-12

    def test_json_shape(self):
        r = falsify(2, 5)
        payload = json.loads(r.to_json())
        assert list(payload) == [
            "seed",
            "trials",
            "passed",
            "failed",
            "inconclusive",
            "worst_violation",
            "failures",
        ]
        assert payload["failures"] == []
        assert math.isfinite(payload["worst_violation"])

    def test_fifty_trials_are_pinned(self):
        # any change to node positions or float order in the oracle, the
        # bands or the harness moves these figures
        payload = json.loads(falsify(50, 42, 1e-10).to_json())
        assert (payload["passed"], payload["failed"], payload["inconclusive"]) == (2500, 0, 0)
        assert repr(payload["worst_violation"]) == "3.552713678800501e-14"
        assert payload["failures"] == []

    def test_json_lists_failures_in_field_order(self):
        failure = FailureRecord(3, "fejer", "seed=1 family=exp", "target 1.0 outside (0.0, 0.5)")
        report = TrialReport(7, 4, 170, 1, 9, 0.5, (failure,), {"fejer": 4})
        assert report.to_json() == json.dumps(
            {
                "seed": 7,
                "trials": 4,
                "passed": 170,
                "failed": 1,
                "inconclusive": 9,
                "worst_violation": 0.5,
                "failures": [
                    {
                        "trial": 3,
                        "operation": "fejer",
                        "recipe": "seed=1 family=exp",
                        "details": "target 1.0 outside (0.0, 0.5)",
                    }
                ],
            },
            indent=2,
        )

    def test_one_trial_calls_each_difference_once(self, monkeypatch):
        # a check computes its enclosure and target in one call
        calls = []
        for name in ("subinterval_gap_difference", "complement_weight_gap"):
            original = getattr(bounds, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(bounds, name, counting)
        report = falsify(1, 3)
        assert sorted(calls) == ["complement_weight_gap"] + 2 * ["subinterval_gap_difference"]
        assert report.op_counts["subinterval_gap_difference_trapezoid"] == 1
        assert report.op_counts["subinterval_gap_difference_midpoint"] == 1
        assert report.op_counts["complement_weight_gap"] == 1

    @pytest.mark.parametrize(
        "error, status",
        [(OracleInconclusive("oracle did not converge", 0.0), "inconclusive"),
         (MonotonicityViolated("wrong direction"), "failed")],
        ids=["inconclusive", "refused"],
    )
    def test_a_raising_functional_counts_each_step(self, monkeypatch, error, status):
        # the 4 steps of h1 and of h2 share one call; when it raises, each
        # step is still one outcome, so a trial keeps CHECKS_PER_TRIAL
        def raising(*args):
            raise error

        monkeypatch.setattr(bounds, "functional_increments", raising)
        report = falsify(1, 42)
        assert report.passed + report.failed + report.inconclusive == CHECKS_PER_TRIAL
        assert report.op_counts["h1_functional"] == report.op_counts["h2_functional"] == 4
        assert getattr(report, status) == 8

    def test_zero_trials_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            falsify(0, 1)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            falsify(1, 1, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ParameterOutOfRange):
            falsify(1, 1, tol=tol)


class TestBattery:
    def test_a_passing_battery_formats_no_expression_text(self, monkeypatch):
        from convexcert import expr

        def refuse(node):
            raise AssertionError("a passing check formatted expression text")

        monkeypatch.setattr(expr, "to_text", refuse)
        r = falsify(2, 42)
        assert (r.passed, r.failed, r.inconclusive) == (2 * CHECKS_PER_TRIAL, 0, 0)

    def test_a_failure_carries_the_trial_recipe(self):
        # no slack passes a check, so every check of the trial fails
        from convexcert.verify import _mix, _run_trial

        battery = _Battery(slack=-math.inf)
        _run_trial(battery, 42, 1, 1e-10)
        recipe = random_convex_instance(_mix(42, 1, 0)).recipe
        assert battery.failed == CHECKS_PER_TRIAL
        assert {(record.trial, record.recipe) for record in battery.failures} == {(1, recipe)}

    def test_no_trial_started_leaves_the_recipe_empty(self):
        battery = _Battery(slack=0.0)
        battery.ordering("x", lambda: [0.0, 1.0])
        assert battery.failures[0].recipe == ""

    def test_one_check_per_chain(self):
        battery = _Battery(slack=0.0)
        battery.ordering("chain_lower", lambda: [2.0, 1.0, 0.0])
        battery.ordering("chain_upper", lambda: [1.0, 2.0])
        assert (battery.passed, battery.failed) == (1, 1)
        assert battery.op_counts == {"chain_lower": 1, "chain_upper": 1}
        assert battery.failures[0].operation == "chain_upper"
        assert battery.failures[0].details == "chain not ordered: [1.0, 2.0]"

    def test_an_error_counts_for_every_chain(self):
        battery = _Battery(slack=0.0)

        def unconverged():
            raise OracleInconclusive("oracle did not converge", 0.0)

        def refused():
            raise ParameterOutOfRange("refused")

        battery.ordering("chain", unconverged)
        battery.containment("enclosure", unconverged)
        battery.containment("refused", refused)
        assert (battery.passed, battery.failed, battery.inconclusive) == (0, 1, 2)
        assert battery.op_counts == {"chain": 1, "enclosure": 1, "refused": 1}
        assert battery.failures[0].details == "unexpected error: ParameterOutOfRange('refused')"

    def test_nan_inside_a_chain_fails(self):
        battery = _Battery(slack=0.0)
        battery.ordering("x", lambda: [2.0, 1.0, math.nan, 0.0])
        assert (battery.passed, battery.failed) == (0, 1)

    def test_nan_violation_reaches_the_worst(self):
        # max() would drop a NaN that follows a number
        battery = _Battery(slack=0.0)
        battery.containment("x", lambda: (Enclosure(0.0, 1.0, "", Rule.FEJER), math.nan))
        assert battery.failed == 1
        assert math.isnan(battery.worst)
        battery.containment("y", lambda: (Enclosure(0.0, 1.0, "", Rule.FEJER), 2.0))
        assert math.isnan(battery.worst)

    def test_containment_reads_one_pair(self):
        battery = _Battery(slack=0.0)
        enc = Enclosure(0.0, 1.0, "unit", Rule.FEJER)
        battery.containment("inside", lambda: (enc, QuadResult(0.5, 0.0, 1, True)))
        battery.containment("outside", lambda: (enc, 2.0))
        battery.containment("unconverged", lambda: (enc, QuadResult(5.0, 0.0, 1, False)))
        assert (battery.passed, battery.failed, battery.inconclusive) == (1, 1, 1)
        assert battery.failures[0].details == "target 2.0 outside (0.0, 1.0)"
        assert battery.worst == 1.0
