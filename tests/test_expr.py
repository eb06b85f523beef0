"""Tests for the expression language: parse, print, evaluate,
differentiate, simplify and curvature estimation."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcert import expr
from convexcert.core import (
    ConvexityViolated,
    DomainError,
    Interval,
    NonConstantExponent,
    NonSmoothExpression,
    ParameterOutOfRange,
    ParseError,
    Provenance,
)
from convexcert.expr import (
    Binary,
    Const,
    FunctionSpec,
    Unary,
    Var,
    curvature_range,
    differentiate,
    evaluate,
    evaluation_spec,
    function_spec,
    parse,
    require_convex,
    simplify,
    to_text,
)

from _generators import random_ast, random_smooth_source


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


class TestParse:
    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("x^2 - 3*x + 1", 2.0, -1.0),
            ("exp(log(x))", 5.0, 5.0),
            ("-x^2", 2.0, -4.0),  # unary minus binds looser than pow
            ("(-x)^2", 2.0, 4.0),
            ("x^2^3", 2.0, 256.0),  # pow is right-associative: x^(2^3)
            ("(x^2)^3", 2.0, 64.0),
            ("2*x/4", 6.0, 3.0),  # mul/div left-associative
            ("1 - x - 1", 3.0, -3.0),
            ("abs(1 - x)", 3.0, 2.0),
            ("2e-3 * x", 1000.0, 2.0),
            ("--x", 2.5, 2.5),
        ],
    )
    def test_parse_and_evaluate(self, text, x, expected):
        assert evaluate(parse(text), x) == pytest.approx(expected, abs=1e-12)

    def test_negated_literal_folds_to_signed_constant(self):
        assert parse("-2.5") == Const(-2.5)
        assert parse("3 * -2") == Binary("mul", Const(3.0), Const(-2.0))

    def test_negation_of_nonliteral_stays_unary(self):
        assert parse("-x") == Unary("neg", Var())

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("x +", 3),
            ("(x", 2),
            ("x + * 2", 4),
            ("sin(x)", 0),
            ("x $ 2", 2),
        ],
    )
    def test_error_positions(self, text, pos):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert exc_info.value.position == pos

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("x 2")


# --------------------------------------------------------------------------
# Printing / round trip
# --------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "x^2 - 3*x + 1",
            "-x^2",
            "(-x)^2",
            "x - (x - 1)",
            "x/(x + 1)",
            "exp(-x^2/2.0)",
            "abs(x - 0.5)",
            "x^-2.0",
        ],
    )
    def test_text_round_trip(self, text):
        ast = parse(text)
        assert parse(to_text(ast)) == ast

    def test_seeded_ast_round_trip(self):
        rng = random.Random(20240915)
        for _ in range(300):
            ast = random_ast(rng)
            assert parse(to_text(ast)) == ast

    def test_minimal_parenthesisation(self):
        assert to_text(parse("(x + 1) + 2")) == "x + 1.0 + 2.0"
        assert to_text(parse("x - (x - 1)")) == "x - (x - 1.0)"
        assert to_text(parse("-x^2")) == "-x^2.0"
        assert to_text(parse("(-x)^2")) == "(-x)^2.0"


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


class TestEvaluate:
    def test_log_nonpositive_raises(self):
        with pytest.raises(DomainError):
            evaluate(parse("log(x)"), -1.0)
        with pytest.raises(DomainError):
            evaluate(parse("log(x)"), 0.0)

    def test_division_by_zero_raises(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/(x - 1)"), 1.0)

    def test_negative_base_fractional_power_raises(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), -2.0)

    def test_exp_overflow_saturates(self):
        assert evaluate(parse("exp(x)"), 1e6) == math.inf

    def test_pow_overflow_saturates_with_the_sign_of_the_power(self):
        assert evaluate(parse("x^3"), -1e200) == -math.inf
        assert evaluate(parse("x^2"), -1e200) == math.inf

    def test_domain_error_carries_the_offending_node(self):
        with pytest.raises(DomainError) as info:
            evaluate(parse("1 + log(x - 2)"), 1.0)
        assert info.value.node == parse("log(x - 2)")

    def test_overflow_absorbed_by_a_later_node(self):
        # the compiled form overflows in exp(800); only that node saturates
        assert evaluation_spec("1/exp(800*x)")(1.0) == 0.0
        assert evaluation_spec("-exp(1000*x)")(1.0) == -math.inf
        assert function_spec("-exp(1000*x)").second_derivative(1.0) == -math.inf

    def test_compiled_matches_interpreter(self):
        rng = random.Random(7)
        for _ in range(100):
            src = random_smooth_source(rng)
            ast = parse(src)
            f = evaluation_spec(ast)
            for x in (0.6, 0.93, 1.17, 1.4):
                assert f(x) == pytest.approx(evaluate(simplify(ast), x), rel=1e-12, abs=1e-12)

    def test_constant_folded_past_the_float_range_compiles(self):
        assert evaluation_spec("1e400*x")(1.0) == math.inf

    def test_spec_call_maps_math_errors(self):
        f = evaluation_spec("log(x - 2)")
        with pytest.raises(DomainError):
            f(1.0)


# --------------------------------------------------------------------------
# Simplify
# --------------------------------------------------------------------------


class TestSimplify:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("x*1", "x"),
            ("0 + x", "x"),
            ("x - 0", "x"),
            ("x^1", "x"),
            ("x^0", "1.0"),
            ("x/1", "x"),
            ("0*log(x)", "0.0"),
            ("2*3", "6.0"),
            ("exp(0)", "1.0"),
            ("0 - x", "-x"),
            ("x*2", "2.0*x"),  # constant factor moves left
        ],
    )
    def test_identities(self, before, after):
        assert to_text(simplify(parse(before))) == after

    def test_double_negation_cancels(self):
        assert simplify(Unary("neg", Unary("neg", Var()))) == Var()

    def test_log_of_nonpositive_constant_not_folded(self):
        node = parse("log(0 - 1)")
        assert isinstance(simplify(node), Unary)


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------


def _central_d(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


class TestDifferentiate:
    @pytest.mark.parametrize(
        "src,x,d1",
        [
            ("x^2", 3.0, 6.0),
            ("exp(2*x)", 0.0, 2.0),
            ("log(x)", 2.0, 0.5),
            ("x*exp(x)", 1.0, 2.0 * math.e),
            ("1/x", 2.0, -0.25),
        ],
    )
    def test_known_derivatives(self, src, x, d1):
        f = function_spec(src)
        assert f.derivative(x) == pytest.approx(d1, rel=1e-12)

    def test_abs_rejected(self):
        with pytest.raises(NonSmoothExpression):
            differentiate(parse("abs(x)"))
        with pytest.raises(NonSmoothExpression):
            function_spec("abs(x) + x^2")

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(NonConstantExponent):
            differentiate(parse("x^x"))
        with pytest.raises(NonConstantExponent):
            function_spec("2^(x + 1)")

    def test_evaluation_spec_has_no_derivatives(self):
        g = evaluation_spec("abs(x)")
        with pytest.raises(NonSmoothExpression):
            g.derivative(1.0)
        with pytest.raises(NonSmoothExpression):
            g.second_derivative(1.0)

    def test_derivatives_match_finite_differences(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(60):
            f = function_spec(random_smooth_source(rng))
            for k in range(1, 11):
                x = 0.6 + 0.8 * k / 11.0
                h = 1e-6 * max(1.0, abs(x))
                d1, d2 = f.derivative(x), f.second_derivative(x)
                fd1 = _central_d(f, x, h)
                fd2 = _central_d(f.derivative, x, h)
                assert abs(d1 - fd1) <= 1e-5 * max(1.0, abs(d1))
                assert abs(d2 - fd2) <= 1e-5 * max(1.0, abs(d2))
                checked += 1
        assert checked == 600


# --------------------------------------------------------------------------
# Curvature range
# --------------------------------------------------------------------------


class TestCurvatureRange:
    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_signed_zero_ends_keep_their_own_band(self, first):
        # f'' = x returns the end itself, so -0.0 and 0.0 give bands whose
        # m differs in sign, and the memo must not hand one out for the other
        f = function_spec("x^3/6")
        for a in (first, -first):
            m = curvature_range(f, Interval(a, 1.0)).m
            assert m == 0.0 and math.copysign(1.0, m) == math.copysign(1.0, a)

    def test_chebyshev_grid_of_an_overflowing_sum_is_finite(self):
        # 1e308 + 1.7e308 overflows; the centre is halved before the sum
        grid = expr._chebyshev_grid(Interval(1e308, 1.7e308), 5)
        assert all(1e308 <= x <= 1.7e308 for x in grid)
        assert grid[3] == 1.35e308

    def test_quadratic_is_exact(self):
        c = curvature_range(function_spec("x^2"), Interval(0.0, 1.0))
        assert c.provenance is Provenance.EXACT
        assert (c.m, c.M) == (2.0, 2.0)

    def test_exp_is_exact(self):
        c = curvature_range(function_spec("exp(x)"), Interval(0.0, 1.0))
        assert c.provenance is Provenance.EXACT
        assert c.m == pytest.approx(1.0, rel=1e-15)
        assert c.M == pytest.approx(math.e, rel=1e-15)

    def test_negative_log_is_exact(self):
        # f = -log(x), f'' = 1/x^2, decreasing on [1, 2]
        c = curvature_range(function_spec("0 - log(x)"), Interval(1.0, 2.0))
        assert c.provenance is Provenance.EXACT
        assert c.m == pytest.approx(0.25, rel=1e-15)
        assert c.M == pytest.approx(1.0, rel=1e-15)

    def test_mixed_function_is_sampled_and_widened(self):
        # f'' = exp(x) + 1/x^2 - monotone on [1, 2], but the sum of two
        # non-constant pieces is outside the structural whitelist, so
        # the heuristic path must engage; its widened band must still
        # contain the true range [e + 1, e^2 + 1/4].
        f = function_spec("exp(x) - log(x)")
        c = curvature_range(f, Interval(1.0, 2.0))
        assert c.provenance is Provenance.SAMPLED_HEURISTIC
        assert c.m <= math.e + 1.0 <= c.M
        assert c.M >= math.e**2 + 0.25
        assert c.m >= math.e + 1.0 - 1e-6  # widening is tiny, not sloppy

    def test_interior_extremum_band_contains_range(self):
        # f = x^4, f'' = 12 x^2 has an interior minimum on [-1, 1]; x
        # occurs once in f'', so the interval band is the exact range
        c = curvature_range(function_spec("x^4"), Interval(-1.0, 1.0))
        assert c.m <= 0.0 and c.M >= 12.0
        assert c.provenance is Provenance.EXACT

    def test_quartic_interior_minimum_is_exact(self):
        # the sampled band used to report m = 0.0397 although f''(0) = 0
        c = curvature_range(function_spec("x^4"), Interval(-1.0, 2.0))
        assert (c.m, c.M, c.provenance) == (0.0, 48.0, Provenance.EXACT)

    def test_co_monotone_sum_is_exact(self):
        # f'' = 2 + exp(-x) + 1/(x + 1)^2: x occurs twice, but both
        # summands decrease, so the interval band ends at f''(b) and f''(a)
        f = function_spec("x^2 + exp(-x) - log(x + 1)")
        c = curvature_range(f, Interval(0.0, 1.0))
        assert c.provenance is Provenance.EXACT
        assert (c.m, c.M) == (f.second_derivative(1.0), f.second_derivative(0.0))

    def test_pole_inside_the_interval_is_not_exact(self):
        # f'' = 6/(x - 0.3)^4 has a pole the grid does not hit
        c = curvature_range(function_spec("1/(x - 0.3)^2"), Interval(0.0, 1.0))
        assert c.provenance is Provenance.SAMPLED_HEURISTIC

    def test_mirror_band_equals_the_original(self):
        # f'' is inf/inf = NaN where exp(±800 x) overflows; for the mirror
        # that includes its first sample, a = -1
        band = curvature_range(function_spec("1/exp(800*x) + x^2"), Interval(0.0, 1.0))
        assert curvature_range(function_spec("1/exp(-800*x) + x^2"), Interval(-1.0, 0.0)) == band

    def test_overflowing_band_is_refused(self):
        # the interval band is not finite, and neither is the sampled one
        with pytest.raises(ParameterOutOfRange):
            curvature_range(function_spec("exp(1000*x)"), Interval(0.0, 1.0))

    def test_weight_spec_rejected(self):
        with pytest.raises(NonSmoothExpression):
            curvature_range(evaluation_spec("x"), Interval(0.0, 1.0))

    # (lo, hi) of f'': the guard's slack is 2^-36 of max(|lo|, |hi|), and
    # an upper end that is not finite gives none
    @pytest.mark.parametrize(
        "lo, hi, refused",
        [
            (-1e-13, 1.0, False),
            (-1e-10, 1.0, True),
            (-8e-10, -8e-10, True),
            (-math.inf, 1.0, True),
            (math.nan, 1.0, True),
            (0.0, math.inf, False),
            (-1e-300, math.inf, True),
            (-1e-300, math.nan, True),
        ],
    )
    def test_convexity_guard_is_relative(self, monkeypatch, lo, hi, refused):
        monkeypatch.setattr(expr, "_f2_range", lambda f, interval, what: (lo, hi, Provenance.EXACT))
        if refused:
            with pytest.raises(ConvexityViolated, match="f'' reaches"):
                require_convex(function_spec("x^2"), Interval(0.0, 1.0))
        else:
            require_convex(function_spec("x^2"), Interval(0.0, 1.0))


# ASTs of the differentiable grammar (no abs), with constant exponents
_leaves = st.one_of(st.just(Var()), st.floats(-4.0, 4.0).map(Const))
_exponents = st.sampled_from((-2.0, -1.0, 0.5, 1.5, 2.0, 3.0, 4.0)).map(Const)
_smooth_asts = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(("neg", "exp", "log")), sub),
        st.builds(Binary, st.sampled_from(("add", "sub", "mul", "div")), sub, sub),
        st.builds(Binary, st.just("pow"), sub, _exponents),
    ),
    max_leaves=8,
)


@given(
    ast=_smooth_asts,
    a=st.floats(-3.0, 3.0),
    width=st.floats(1e-3, 4.0),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@settings(max_examples=400, deadline=None)
def test_exact_band_contains_f2_everywhere(ast, a, width, ts):
    interval = Interval(a, a + width)
    f = function_spec(ast)
    try:
        band = curvature_range(f, interval)
    except (DomainError, ParameterOutOfRange):  # the sampled fallback left f's domain or overflowed
        return
    if band.provenance is not Provenance.EXACT:
        return
    slack = 1e-12 * (1.0 + abs(band.m) + abs(band.M))
    for t in [0.0, 1.0, *ts]:
        v = f.second_derivative(min(a + t * width, interval.b))
        assert band.m - slack <= v <= band.M + slack


def _outcome(call, x):
    """repr of call(x), or the text of its DomainError."""
    try:
        return repr(call(x))
    except DomainError as exc:
        return f"DomainError: {exc}"


_point_lists = st.lists(st.floats(-3.0, 3.0) | st.sampled_from((0.0, 1.0, -1.0, 800.0)), min_size=1, max_size=6)


@given(ast=_smooth_asts, xs=_point_lists)
@example(ast=parse("1/exp(800*x)"), xs=[1.0])  # exp overflows; only that node saturates
@example(ast=parse("-exp(1000*x)"), xs=[0.5, 1.0])
@example(ast=parse("log(x)"), xs=[2.0, -1.0, 0.0, 3.0])  # undefined in the middle
@settings(max_examples=300, deadline=None)
def test_batch_matches_point_by_point(ast, xs):
    f = function_spec(ast)
    for batch, point in ((f._values, f), (f._second_derivatives, f.second_derivative)):
        expected = [_outcome(point, x) for x in xs]
        failures = [o for o in expected if o.startswith("DomainError")]
        if failures:  # the batch raises the first point's error
            with pytest.raises(DomainError) as info:
                batch(xs)
            assert f"DomainError: {info.value}" == failures[0]
        else:  # bit for bit, NaN as NaN and -0.0 as -0.0
            assert [repr(v) for v in batch(xs)] == expected


def test_a_spec_compiles_one_form_on_first_use(monkeypatch):
    from convexcert.quadrature import integrate

    compiled = []
    original = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda node: compiled.append(node) or original(node))
    f = function_spec("exp(x)")
    assert compiled == []
    integrate(f, Interval(0.0, 1.0))
    f(0.5)
    assert compiled == [f.ast]


# --------------------------------------------------------------------------
# One compiled shape per process, the constants bound per spec
# --------------------------------------------------------------------------


def _same_shape_outcomes(f: FunctionSpec, xs) -> None:
    """f at each of xs, one call and one batch, is the walker's value by repr
    (NaN as NaN, -0.0 as -0.0), or a DomainError where the walker raises one."""

    def kind(outcome: str) -> str:
        return "DomainError" if outcome.startswith("DomainError") else outcome

    expected = [_outcome(lambda x: evaluate(f.ast, x), x) for x in xs]
    assert [kind(_outcome(f, x)) for x in xs] == [kind(o) for o in expected]
    if "DomainError" not in map(kind, expected):
        assert [repr(v) for v in f._values(xs)] == expected


@pytest.mark.parametrize(
    "k, other",
    [
        ((0.0, 1.5), (-0.0, 1.5)),  # signed zeros, which compare equal
        ((1e400, 1.5), (2.0, 1.5)),  # a constant folded past the float range
        ((math.nan, 1.5), (2.0, 1.5)),
        ((2.0, 1.5), (-2.0, -1.5)),  # sign flips
    ],
    ids=["signed-zero", "inf", "nan", "sign-flips"],
)
def test_specs_of_one_shape_share_code_and_keep_their_constants(k, other):
    def spec(k0, k1):  # k0*x*(x - k1), built directly so that nothing folds
        return FunctionSpec(Binary("mul", Binary("mul", Const(k0), Var()), Binary("sub", Var(), Const(k1))))

    f, g = spec(*k), spec(*other)
    assert f._fn.__code__ is g._fn.__code__
    xs = [-2.0, -1.0, 0.0, 1.0, 1.5, 2.0, 3.25]
    for h in (f, g):
        _same_shape_outcomes(h, xs)
    assert [repr(f(x)) for x in xs] != [repr(g(x)) for x in xs]


def test_a_warm_shape_compiles_nothing():
    warm = function_spec("2.0*exp(3.0*x) + 0.5*x^3")
    warm(0.5), warm.derivative(0.5), warm.second_derivative(0.5)
    misses = expr._shape.cache_info().misses
    f = function_spec("-7.5*exp(0.25*x) + 4.0*x^3")
    assert [f(0.5), f.derivative(0.5), f.second_derivative(0.5)] == [
        evaluate(node, 0.5) for node in (f.ast, f.d1, f.d2)
    ]
    assert expr._shape.cache_info().misses == misses
    assert f._fn.__code__ is warm._fn.__code__


def _perturbed(node: expr.Node, rng: random.Random) -> expr.Node:
    """The same tree with each constant moved or its sign flipped."""
    if isinstance(node, Const):
        return Const(-node.value if rng.random() < 0.3 else node.value + rng.uniform(-1.0, 1.0))
    if isinstance(node, Unary):
        return Unary(node.op, _perturbed(node.arg, rng))
    if isinstance(node, Binary):
        return Binary(node.op, _perturbed(node.left, rng), _perturbed(node.right, rng))
    return node


@given(seed=st.integers(0, 2**32 - 1), xs=st.lists(st.floats(0.6, 1.4), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_specs_of_one_shape_never_return_each_others_values(seed, xs):
    rng = random.Random(seed)
    ast = parse(random_smooth_source(rng))
    f, g = FunctionSpec(ast), FunctionSpec(_perturbed(ast, rng))
    assert g._fn.__code__ is f._fn.__code__  # the second compiled first
    _same_shape_outcomes(f, xs)
    _same_shape_outcomes(g, xs)
