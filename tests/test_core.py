"""Tests for the shared vocabulary types."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

import convexcert
from convexcert.bounds import RULES, Problem
from convexcert.cli import Certificate
from convexcert.core import (
    CurvatureBounds,
    Enclosure,
    Interval,
    InvalidInterval,
    Lambda,
    NodeWeights,
    ParameterOutOfRange,
    Provenance,
    QuadResult,
    Rule,
    WeightSpec,
    enclosure_contains,
    make_interval,
)
from convexcert.expr import Binary, Const, FunctionSpec, Unary, Var, evaluation_spec, function_spec
from convexcert.means import MeanKind, mean
from convexcert.verify import FailureRecord, TrialReport, random_convex_instance


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

    def test_midpoint_of_ends_whose_sum_overflows(self):
        assert Interval(1e308, 1.5e308).midpoint == 1.25e308
        assert Interval(-1.5e308, -1e308).midpoint == -1.25e308
        assert Interval(0.1, 0.7).midpoint == 0.5 * (0.1 + 0.7)

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


class TestValueTypes:
    @pytest.mark.parametrize(
        "valid,field,bad,error,message",
        [
            (Interval(0.0, 1.0), "b", -1.0, InvalidInterval, "endpoints out of order: [0.0, -1.0]"),
            (Lambda(0.5), "value", 1.5, ParameterOutOfRange, "lambda must lie in [0, 1], got 1.5"),
            (NodeWeights(1.0, 2.0), "q", 0.0, ParameterOutOfRange,
             "node weights must be finite and > 0, got (1.0, 0.0)"),
            (CurvatureBounds(1.0, 2.0), "m", 3.0, ParameterOutOfRange,
             "curvature bounds out of order: m=3.0 > M=2.0"),
            (Enclosure(0.0, 1.0, "t", Rule.FEJER), "lower", math.nan, ParameterOutOfRange,
             "enclosure endpoints must not be NaN"),
        ],
        ids=["Interval", "Lambda", "NodeWeights", "CurvatureBounds", "Enclosure"],
    )
    def test_every_construction_path_checks_the_fields(self, valid, field, bad, error, message):
        kind = type(valid)
        fields = {**valid._asdict(), field: bad}
        for build in (
            lambda: kind(**fields),
            lambda: kind._make(fields.values()),
            lambda: valid._replace(**{field: bad}),
        ):
            with pytest.raises(error) as caught:
                build()
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Interval(0.0, 1.0),
            lambda: Lambda(0.5),
            lambda: NodeWeights(1.0, 2.0),
            lambda: CurvatureBounds(1.0, 2.0),
            lambda: Enclosure(0.0, 1.0, "t", Rule.FEJER),
            lambda: WeightSpec(evaluation_spec("1")),
            lambda: QuadResult(1.0, 0.0, 3, True),
            lambda: Const(2.0),
            lambda: Unary("exp", Var()),
            lambda: Binary("add", Var(), Const(1.0)),
            lambda: function_spec("exp(x)"),
            lambda: Problem(function_spec("exp(x)"), Interval(0.0, 1.0)),
            lambda: RULES[Rule.FEJER],
            lambda: mean(MeanKind.ARITHMETIC, 1.0, 3.0),
            lambda: random_convex_instance(1),
            lambda: FailureRecord(1, "fejer", "recipe", "details"),
            lambda: TrialReport(1, 1, 45, 0, 0, 0.0, (), {}),
            lambda: Certificate("fejer", Interval(0.0, 1.0), {}, Enclosure(0.0, 1.0, "t", Rule.FEJER),
                                0.5, True, True, "not-used"),
        ],
        ids=["Interval", "Lambda", "NodeWeights", "CurvatureBounds", "Enclosure", "WeightSpec", "QuadResult",
             "Const", "Unary", "Binary", "FunctionSpec", "Problem", "RuleSpec", "MeanValue", "ConvexInstance",
             "FailureRecord", "TrialReport", "Certificate"],
    )
    def test_fields_cannot_be_assigned(self, make):
        value = make()
        name = "ast" if isinstance(value, FunctionSpec) else value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))

    def test_repr_names_every_field(self):
        # the form README's library example shows
        assert repr(Interval(0.0, 1.0)) == "Interval(a=0.0, b=1.0)"
        assert repr(Enclosure(1.5, 2.0, "mean", Rule.HERMITE_HADAMARD)) == (
            "Enclosure(lower=1.5, upper=2.0, target_description='mean', "
            "source_rule=<Rule.HERMITE_HADAMARD: 'hermite-hadamard'>)"
        )
        assert repr(CurvatureBounds(1.0, math.e, Provenance.EXACT)) == (
            "CurvatureBounds(m=1.0, M=2.718281828459045, provenance=<Provenance.EXACT: 'exact'>)"
        )

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # a CLI call imports the package in a fresh interpreter, and the
        # first two modules would cost it more than the package itself;
        # json is loaded only where JSON is written
        src = str(Path(convexcert.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from convexcert import cli, verify; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
        )
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"
