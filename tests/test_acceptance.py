"""Acceptance suite: one test per headline guarantee of the library.

Every golden value below is frozen from a closed-form computation done
independently of the library (exact antiderivatives and elementary
algebra).  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per guarantee; each test also prints a one-line summary
that pytest shows with ``-s`` or on failure.
"""

import json
import math
import random
import time

import pytest

from convexcert.bounds import (
    fejer_midpoint_gap_bounds,
    fejer_trapezoid_gap_bounds,
    gap_bounds,
    h1_functional,
    h2_functional,
    hh_gap_monotone,
    target_gap,
    target_vasic_lackovic,
    vasic_lackovic,
)
from convexcert.cli import main
from convexcert.core import (
    AdmissibilityViolated,
    CurvatureBounds,
    Interval,
    Lambda,
    NodeWeights,
    Rule,
    enclosure_contains,
)
from convexcert.expr import evaluation_spec, function_spec, parse, to_text
from convexcert.means import (
    al_gap_check,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    identric_mean,
    logarithmic_mean,
    power_mean,
    young_difference_bounds,
    young_difference_target,
    young_ratio_bounds,
    young_ratio_target,
)
from convexcert.verify import (
    random_convex_instance,
    random_monotone_weight,
    slope_normalized,
)

from _generators import random_ast, random_smooth_source
from _readme import readme_output

E = math.e
UNIT = Interval(0.0, 1.0)
SQ = function_spec("x^2")
EXP = function_spec("exp(x)")
SQ_BAND = CurvatureBounds(2.0, 2.0)
EXP_BAND = CurvatureBounds(1.0, E)
BISECTION = (Rule.BISECTION_MEAN, Rule.BISECTION_QUARTER)
ONE = evaluation_spec("1")


def test_quadratic_gaps_are_tight():
    """For f = x² on [0,1] every curvature-band enclosure collapses to a
    point that the target hits exactly (within 1e-12); runtime < 1 s."""
    start = time.perf_counter()
    cases = [
        ("midpoint", gap_bounds(Rule.MIDPOINT_GAP, SQ_BAND, UNIT),
         target_gap(Rule.MIDPOINT_GAP, SQ, UNIT).value, 1.0 / 12.0),
        ("trapezoid", gap_bounds(Rule.TRAPEZOID_GAP, SQ_BAND, UNIT),
         target_gap(Rule.TRAPEZOID_GAP, SQ, UNIT).value, 1.0 / 6.0),
        ("chord@1/2", gap_bounds(Rule.CHORD_GAP, SQ_BAND, UNIT, Lambda(0.5)),
         target_gap(Rule.CHORD_GAP, SQ, UNIT, lam=Lambda(0.5)).value, 0.25),
        ("pair@0", gap_bounds(Rule.SYMMETRIC_PAIR_GAP, SQ_BAND, UNIT, Lambda(0.0)),
         target_gap(Rule.SYMMETRIC_PAIR_GAP, SQ, UNIT, lam=Lambda(0.0)).value, 0.25),
        ("weighted-trapezoid", fejer_trapezoid_gap_bounds(SQ, ONE, SQ_BAND, UNIT),
         target_gap(Rule.WEIGHTED_TRAPEZOID_GAP, SQ, UNIT, g=ONE).value, 1.0 / 6.0),
        ("weighted-midpoint", fejer_midpoint_gap_bounds(SQ, ONE, SQ_BAND, UNIT),
         target_gap(Rule.WEIGHTED_MIDPOINT_GAP, SQ, UNIT, g=ONE).value, 1.0 / 12.0),
    ]
    e1, e2 = (gap_bounds(r, SQ_BAND, UNIT) for r in BISECTION)
    t1, t2 = (target_gap(r, SQ, UNIT) for r in BISECTION)
    cases.append(("bisection-mean", e1, t1.value, 1.0 / 24.0))
    cases.append(("bisection-quarter", e2, t2.value, 1.0 / 48.0))

    for name, enc, target, expected in cases:
        assert target == pytest.approx(expected, abs=1e-12), name
        assert enc.lower == pytest.approx(expected, abs=1e-12), name
        assert enc.upper == pytest.approx(expected, abs=1e-12), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[ok] quadratic tightness: 8 rules exact to 1e-12 in {elapsed:.3f}s")


def test_exponential_golden_values():
    """For f = exp on [0,1] with band (1, e), frozen gap values land in
    the predicted enclosures (oracle tol 1e-10, slack 1e-9); < 1 s."""
    start = time.perf_counter()
    mid_gap = (E - 1.0) - math.sqrt(E)          # 0.069560557758916897
    trap_gap = 0.5 * (1.0 + E) - (E - 1.0)      # 0.14085908577047745
    chord_gap = 0.5 * (1.0 + E) - math.sqrt(E)  # 0.21041964352939435

    cases = [
        (gap_bounds(Rule.MIDPOINT_GAP, EXP_BAND, UNIT),
         target_gap(Rule.MIDPOINT_GAP, EXP, UNIT, tol=1e-10),
         mid_gap, (1.0 / 24.0, E / 24.0)),
        (gap_bounds(Rule.TRAPEZOID_GAP, EXP_BAND, UNIT),
         target_gap(Rule.TRAPEZOID_GAP, EXP, UNIT, tol=1e-10),
         trap_gap, (1.0 / 12.0, E / 12.0)),
        (gap_bounds(Rule.CHORD_GAP, EXP_BAND, UNIT, Lambda(0.5)),
         target_gap(Rule.CHORD_GAP, EXP, UNIT, lam=Lambda(0.5), tol=1e-10),
         chord_gap, (0.125, E / 8.0)),
    ]
    for enc, result, golden, (lo, hi) in cases:
        assert result.converged
        assert result.value == pytest.approx(golden, abs=1e-9)
        assert enc.lower == pytest.approx(lo, rel=1e-14)
        assert enc.upper == pytest.approx(hi, rel=1e-14)
        assert enclosure_contains(enc, result.value, 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[ok] exponential goldens: 3 containments verified in {elapsed:.3f}s")


def test_lambda_average_recovers_interval_gaps():
    """Averaging the pointwise chord enclosure over a 10^4-point λ-grid
    reproduces the trapezoid enclosure (∫λ(1-λ)dλ = 1/6), and averaging
    the symmetric-pair enclosure reproduces the midpoint one
    (∫(1-2λ)²dλ = 1/3), within 1e-6 relative, on 20 random instances."""
    n = 10_000
    grid = [Lambda((i + 0.5) / n) for i in range(n)]
    for k in range(20):
        inst = random_convex_instance(1000 + k)
        c, iv = inst.curvature, inst.interval

        lo = sum(gap_bounds(Rule.CHORD_GAP, c, iv, lam).lower for lam in grid) / n
        hi = sum(gap_bounds(Rule.CHORD_GAP, c, iv, lam).upper for lam in grid) / n
        trap = gap_bounds(Rule.TRAPEZOID_GAP, c, iv)
        assert lo == pytest.approx(trap.lower, rel=1e-6, abs=1e-15), inst.recipe
        assert hi == pytest.approx(trap.upper, rel=1e-6, abs=1e-15), inst.recipe

        lo = sum(gap_bounds(Rule.SYMMETRIC_PAIR_GAP, c, iv, lam).lower for lam in grid) / n
        hi = sum(gap_bounds(Rule.SYMMETRIC_PAIR_GAP, c, iv, lam).upper for lam in grid) / n
        mid = gap_bounds(Rule.MIDPOINT_GAP, c, iv)
        assert lo == pytest.approx(mid.lower, rel=1e-6, abs=1e-15), inst.recipe
        assert hi == pytest.approx(mid.upper, rel=1e-6, abs=1e-15), inst.recipe
    print("[ok] lambda-grid averages match interval rules on 20 instances")


def test_growth_functionals_are_monotone():
    """h1 with a nonincreasing weight and h2 with a nondecreasing weight
    are nondecreasing in x (11-point grid, slack 1e-9) and vanish at the
    left endpoint, for 20 random convex instances normalized to
    nondecreasing slope."""
    for k in range(20):
        inst = random_convex_instance(2000 + k)
        iv = inst.interval
        f = slope_normalized(inst.function, iv)
        g_dec = random_monotone_weight(3000 + k, iv, decreasing=True)
        g_inc = random_monotone_weight(4000 + k, iv, decreasing=False)
        # last point pinned to b: a + 10*(width/10) can overshoot by one ulp
        grid = [iv.a + j * iv.width / 10.0 for j in range(10)] + [iv.b]

        for h, g in ((h1_functional, g_dec), (h2_functional, g_inc)):
            values = [h(f, g, iv, x) for x in grid]
            assert values[0] == pytest.approx(0.0, abs=1e-12), inst.recipe
            for prev, curr in zip(values, values[1:]):
                assert curr >= prev - 1e-9, (inst.recipe, h.__name__)
    print("[ok] h1/h2 nondecreasing on 20 instances, h(a) = 0")


def test_subinterval_gap_pairs_shrink():
    """For exp on [0,2] at x = 1 the scaled subinterval gaps sit below
    the full-interval gaps: (1.000000, 0.070430) and
    (0.476246, 0.034780), each within 1e-6, with first >= second >= 0."""
    (t_ab, t_ax), (m_ab, m_ax) = hh_gap_monotone(EXP, Interval(0.0, 2.0), 1.0)
    assert t_ab == pytest.approx(1.0, abs=1e-6)
    assert t_ax == pytest.approx(0.07042954288523873, abs=1e-6)
    assert m_ab == pytest.approx(0.47624622100627967, abs=1e-6)
    assert m_ax == pytest.approx(0.03478027887945845, abs=1e-6)
    assert t_ab >= t_ax >= 0.0
    assert m_ab >= m_ax >= 0.0
    print("[ok] subinterval gap pairs: (1.000000, 0.070430), (0.476246, 0.034780)")


def test_asymmetric_window_sandwich():
    """Asymmetric-node window enclosures hit their goldens for f = x² on
    [0,1] — (p,q,y) = (1,1,1/4): (1/8, 1/4) ∋ 13/96; (2,1,1/3):
    (2/27, 2/9) ∋ 8/81 — at 1e-9, and an inadmissible window is rejected
    before the integrand is ever evaluated."""
    enc = vasic_lackovic(SQ, ONE, NodeWeights(1.0, 1.0), UNIT, 0.25)
    assert enc.lower == pytest.approx(0.125, abs=1e-9)
    assert enc.upper == pytest.approx(0.25, abs=1e-9)
    r = target_vasic_lackovic(SQ, ONE, NodeWeights(1.0, 1.0), UNIT, 0.25)
    assert r.value == pytest.approx(13.0 / 96.0, abs=1e-9)
    assert enclosure_contains(enc, r.value, 1e-9)

    nw = NodeWeights(2.0, 1.0)
    enc = vasic_lackovic(SQ, ONE, nw, UNIT, 1.0 / 3.0)
    assert enc.lower == pytest.approx(2.0 / 27.0, abs=1e-9)
    assert enc.upper == pytest.approx(2.0 / 9.0, abs=1e-9)
    r = target_vasic_lackovic(SQ, ONE, nw, UNIT, 1.0 / 3.0)
    assert r.value == pytest.approx(8.0 / 81.0, abs=1e-9)
    assert enclosure_contains(enc, r.value, 1e-9)

    # evaluating this function anywhere on [0,1] would raise DomainError,
    # so the admissibility check must fire first
    poison = evaluation_spec("log(x - 10)")
    with pytest.raises(AdmissibilityViolated):
        vasic_lackovic(poison, ONE, nw, UNIT, 0.5)
    print("[ok] window sandwich goldens 13/96 and 8/81; inadmissible y rejected early")


def test_weighted_am_gm_enclosures():
    """Ratio and difference enclosures for the weighted AM-GM gap hit
    their closed forms at (1, 4, 1/2) within 1e-6 and contain the target
    on a 50x50 log-spaced operand grid times 11 λ values with zero
    violations; the ratio lower bound never drops below 1.  < 10 s."""
    start = time.perf_counter()
    enc = young_ratio_bounds(1.0, 4.0, 0.5)
    assert enc.lower == pytest.approx(math.exp(9.0 / 128.0), abs=1e-6)   # 1.0728434
    assert enc.upper == pytest.approx(math.exp(1.125), abs=1e-6)         # 3.0802168
    assert young_ratio_target(1.0, 4.0, 0.5) == pytest.approx(1.25, abs=1e-6)
    assert enclosure_contains(enc, 1.25, 1e-9)

    diff = young_difference_bounds(1.0, 4.0, 0.5)
    ln2sq = math.log(4.0) ** 2
    assert diff.lower == pytest.approx(0.125 * ln2sq, abs=1e-6)          # 0.2402265
    assert diff.upper == pytest.approx(0.5 * ln2sq, abs=1e-6)            # 0.9609060
    assert young_difference_target(1.0, 4.0, 0.5) == pytest.approx(0.5, abs=1e-6)
    assert enclosure_contains(diff, 0.5, 1e-9)

    operands = [10.0 ** (-1.0 + 2.0 * i / 49.0) for i in range(50)]
    lams = [i / 10.0 for i in range(11)]
    violations = 0
    for a in operands:
        for b in operands:
            for lam in lams:
                rt = young_ratio_target(a, b, lam)
                re_ = young_ratio_bounds(a, b, lam)
                if re_.lower < 1.0:
                    violations += 1
                if not enclosure_contains(re_, rt, 1e-9 * max(1.0, abs(rt))):
                    violations += 1
                dt = young_difference_target(a, b, lam)
                de = young_difference_bounds(a, b, lam)
                if not enclosure_contains(de, dt, 1e-9 * max(1.0, abs(dt))):
                    violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[ok] AM-GM enclosures: goldens + 27500-point grid, 0 violations, {elapsed:.2f}s")


def test_special_means_suite():
    """Classical means: quadratic power mean of (1,7) is exactly 5;
    L(1,e) = e-1 and I(1,e) = e^(1/(e-1)) to 1e-12; the chain
    H <= G <= L <= I <= A holds on 10^4 random pairs; the p-logarithmic
    window check at (p,a,b,x) = (2,1,2,3/2) returns (1/6, 1/48) to 1e-9."""
    assert power_mean(2.0, 1.0, 7.0) == 5.0
    assert logarithmic_mean(1.0, E) == pytest.approx(E - 1.0, abs=1e-12)
    assert identric_mean(1.0, E) == pytest.approx(math.exp(1.0 / (E - 1.0)), abs=1e-12)

    rng = random.Random(987654321)
    for _ in range(10_000):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        h = harmonic_mean(a, b)
        g = geometric_mean(a, b)
        l = logarithmic_mean(a, b)
        i = identric_mean(a, b)
        m = arithmetic_mean(a, b)
        slack = 1e-12 * m
        assert h <= g + slack <= l + 2 * slack <= i + 3 * slack <= m + 4 * slack, (a, b)

    left, right = al_gap_check(2.0, 1.0, 2.0, 1.5)
    assert left == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert right == pytest.approx(1.0 / 48.0, abs=1e-9)   # 0.0208333...
    print("[ok] means: A_2(1,7)=5, L/I goldens, 10^4 ordering pairs, window check (1/6, 1/48)")


def test_falsification_battery():
    """`verify --trials 1000 --seed 42 --tol 1e-10` finishes under 60 s
    with zero failures and at most 1% inconclusive checks, a rerun
    produces byte-identical output, and README prints that output."""
    argv = ["verify", "--trials", "1000", "--seed", "42", "--tol", "1e-10"]
    import io
    from contextlib import redirect_stdout

    buf1 = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf1):
        code1 = main(list(argv))
    elapsed = time.perf_counter() - start

    buf2 = io.StringIO()
    with redirect_stdout(buf2):
        code2 = main(list(argv))

    assert code1 == 0 and code2 == 0
    assert elapsed < 60.0
    out1, out2 = buf1.getvalue(), buf2.getvalue()
    assert out1 == out2
    assert out1 == readme_output(*argv)
    report = json.loads(out1)
    total = report["passed"] + report["failed"] + report["inconclusive"]
    assert report["failed"] == 0
    assert report["inconclusive"] <= 0.01 * total
    print(
        f"[ok] battery: {report['passed']}/{total} checks passed, "
        f"0 failed, {report['inconclusive']} inconclusive, {elapsed:.1f}s, rerun identical"
    )


def test_expression_roundtrip_and_derivatives():
    """200 random expression trees survive print -> parse unchanged, and
    symbolic first/second derivatives of random smooth expressions match
    central finite differences at 100 interior points each."""
    rng = random.Random(424242)
    for _ in range(200):
        tree = random_ast(rng)
        assert parse(to_text(tree)) == tree

    for _ in range(20):
        src = random_smooth_source(rng)
        f = function_spec(src)
        for j in range(100):
            x = 0.6 + 0.8 * (j + 0.5) / 100.0
            h = 1e-6 * max(1.0, abs(x))
            d1, d2 = f.derivative(x), f.second_derivative(x)
            fd1 = (f(x + h) - f(x - h)) / (2.0 * h)
            fd2 = (f.derivative(x + h) - f.derivative(x - h)) / (2.0 * h)
            assert abs(d1 - fd1) <= 1e-5 * max(1.0, abs(d1)), src
            assert abs(d2 - fd2) <= 1e-5 * max(1.0, abs(d2)), src
    print("[ok] 200 round-trips, 2000 x 2 derivative checks against finite differences")
