"""Seeded falsification harness for the certified bounds.

Each trial draws one random convex instance (function, interval, exact
curvature band) plus random weights and parameters, runs every bounds
and means operation against the quadrature oracle, and records
violations: of containment for every enclosure, the paper's subinterval
and complement-weight chains and the means window checks included as
enclosures of gap differences, and the steps of the h1/h2 functionals as
enclosures of their increments; and of ordering for the classical means.
Library bugs surface as failures; oracle non-convergence is recorded as
*inconclusive*, never as a failure.  Everything is deterministic:
per-trial sub-seeds derive from the master seed by counter mixing, so
the aggregate report (including its JSON serialisation) is
byte-identical across reruns.
"""

from __future__ import annotations

import math
import random
from functools import cache, partial
from typing import Callable, NamedTuple

from . import bounds as bd
from . import means as mn
from .core import (
    CertError,
    CurvatureBounds,
    Enclosure,
    Interval,
    Lambda,
    NodeWeights,
    OracleInconclusive,
    ParameterOutOfRange,
    QuadResult,
    Rule,
    WeightSpec,
    check_tolerance,
)
from .expr import Binary, Const, FunctionSpec, Node, Unary, Var, curvature_range, evaluation_spec, function_spec
from .quadrature import classify_weight

__all__ = [
    "ConvexInstance",
    "TrialReport",
    "FailureRecord",
    "random_convex_instance",
    "random_symmetric_weight",
    "random_monotone_weight",
    "falsify",
    "CHECKS_PER_TRIAL",
]

_MASK = (1 << 63) - 1


def _mix(seed: int, *branches: int) -> int:
    """Counter-based sub-seed derivation (LCG-style mixing)."""
    x = seed & _MASK
    for b in branches:
        x = (x * 6364136223846793005 + b * 1442695040888963407 + 1442695040888963407) & _MASK
    return x


# --------------------------------------------------------------------------
# Instance generation
# --------------------------------------------------------------------------


class ConvexInstance(NamedTuple):
    """One generated test case with an exact curvature certificate."""

    function: FunctionSpec
    interval: Interval
    curvature: CurvatureBounds
    seed: int
    family: str

    @property
    def recipe(self) -> str:
        """The text that rebuilds the case, formatted on demand."""
        a, b = self.interval
        return f"seed={self.seed} family={self.family} interval=[{a!r}, {b!r}] f={self.function.text}"


_FAMILIES = ("quadratic", "exp", "log", "mixed")


def random_convex_instance(seed: int) -> ConvexInstance:
    """Draw a convex function from the closed-form basis

        f(x) = c1 x² + c2 exp(c3 x) - c4 log(x + s) + c5 x + c6

    with c1, c2, c4 >= 0, on an interval of width in [0.1, 5].  Every
    summand of f'' = 2c1 + c2 c3² e^(c3 x) + c4/(x+s)² is kept monotone
    in a common direction (mixed instances force c3 <= 0), so the band
    from :func:`curvature_range`, the one users get, is ``EXACT``.  |c3·x| is capped so
    integrands stay well-conditioned for the absolute-tolerance oracle.
    """
    rng = random.Random(seed)
    width = rng.uniform(0.1, 5.0)
    a = rng.uniform(-3.0, 3.0)
    b = a + width
    interval = Interval(a, b)
    family = _FAMILIES[rng.randrange(len(_FAMILIES))]

    c1 = rng.uniform(0.0, 3.0)
    c5 = rng.uniform(-2.0, 2.0)
    c6 = rng.uniform(-2.0, 2.0)
    c2 = c3 = c4 = 0.0
    s = 0.0
    if family in ("exp", "mixed"):
        c2 = rng.uniform(0.2, 3.0)
        c3_cap = min(2.0, 4.0 / max(abs(a), abs(b), 1.0))
        c3 = rng.uniform(-c3_cap, c3_cap)
        if family == "mixed":
            c3 = -abs(c3)  # keep f'' summands co-monotone
    if family in ("log", "mixed"):
        c4 = rng.uniform(0.2, 3.0)
        s = rng.uniform(0.5, 2.0) - a  # log argument in [margin, margin + width]

    terms: list[Node] = []
    if c1 > 0.0:
        terms.append(Binary("mul", Const(c1), Binary("pow", Var(), Const(2.0))))
    if c2 > 0.0:
        terms.append(Binary("mul", Const(c2), Unary("exp", Binary("mul", Const(c3), Var()))))
    if c4 > 0.0:
        log_term = Unary("log", Binary("add", Var(), Const(s)))
        terms.append(Unary("neg", Binary("mul", Const(c4), log_term)))
    terms.append(Binary("mul", Const(c5), Var()))
    terms.append(Const(c6))
    ast: Node = terms[0]
    for t in terms[1:]:
        ast = Binary("add", ast, t)
    f = function_spec(ast)
    return ConvexInstance(f, interval, curvature_range(f, interval), seed, family)


def _poly_node(coeffs: list[float], u: Node) -> Node:
    """Horner-form polynomial AST in the argument node ``u``."""
    node: Node = Const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        node = Binary("add", Binary("mul", node, u), Const(c))
    return node


def random_symmetric_weight(seed: int, interval: Interval) -> WeightSpec:
    """Symmetrised positive cubic in the normalised coordinate.

    The base is p(τ) = q0 + q1 τ + q2 τ² + q3 τ³ with coefficients in
    [0, 1] (q0 >= 0.1), evaluated at τ = (x-a)/(b-a), so p > 0 on the
    interval and the |·| nonnegativity guard in the emitted expression
    never actually bites; the returned weight is the symmetrisation
    (p(τ) + p(1-τ)) / 2, kept smooth on purpose — an interior kink of
    |p| would make the quadrature oracle's thin-feature behaviour part
    of every trial, which this harness deliberately avoids.  With q
    nonnegative p is convex and nondecreasing on [0, 1], so the
    symmetrised sum peaks at the endpoints and the exact maximum
    p(0) + p(1) scales the weight into [0, 1].
    """
    rng = random.Random(seed)
    q = [rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
    a, b = interval.a, interval.b
    w = b - a
    tau = Binary("div", Binary("sub", Var(), Const(a)), Const(w))
    tau_mirror = Binary("div", Binary("sub", Const(b), Var()), Const(w))
    direct = Unary("abs", _poly_node(q, tau))
    mirrored = Unary("abs", _poly_node(q, tau_mirror))
    peak = 2.0 * q[0] + q[1] + q[2] + q[3]  # p(0) + p(1)
    scale = 1.0 / (peak * (1.0 + 1e-12))
    ast = Binary("mul", Const(scale), Binary("add", direct, mirrored))
    return classify_weight(evaluation_spec(ast), interval)


def random_monotone_weight(seed: int, interval: Interval, decreasing: bool) -> WeightSpec:
    """A nonnegative quadratic-in-τ weight, τ being the normalised
    (and possibly reversed) coordinate, so it is monotone by
    construction."""
    rng = random.Random(seed)
    e0, e1, e2 = rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    a, b = interval.a, interval.b
    if decreasing:
        tau: Node = Binary("div", Binary("sub", Const(b), Var()), Const(b - a))
    else:
        tau = Binary("div", Binary("sub", Var(), Const(a)), Const(b - a))
    ast = Binary(
        "add",
        Binary("add", Const(e0), Binary("mul", Const(e1), tau)),
        Binary("mul", Const(e2), Binary("pow", tau, Const(2.0))),
    )
    return classify_weight(evaluation_spec(ast), interval)


# --------------------------------------------------------------------------
# Trial report
# --------------------------------------------------------------------------


class FailureRecord(NamedTuple):
    trial: int
    operation: str
    recipe: str
    details: str


class TrialReport(NamedTuple):
    seed: int
    trials: int
    passed: int
    failed: int
    inconclusive: int
    worst_violation: float
    failures: tuple[FailureRecord, ...]
    op_counts: dict[str, int]

    def to_json(self) -> str:
        payload = self._asdict()
        del payload["op_counts"]
        payload["failures"] = [record._asdict() for record in self.failures]
        import json  # only here and in the CLI's JSON printers, so a plain import skips it

        return json.dumps(payload, indent=2)


# --------------------------------------------------------------------------
# The per-trial check battery
# --------------------------------------------------------------------------

_PASS, _FAIL, _INCONCLUSIVE = "pass", "fail", "inconclusive"

_LAMBDA_GRID = [k / 10.0 for k in range(11)]
_H_GRID_STEPS = 4

# 4 sandwich/gap checks + 22 lambda-grid checks + 2 weighted gaps
# + 2 bisection + 1 two-node window + 1 complement-weight gap
# + 2 × 4 functional steps + 2 subinterval differences + 2 gaps on [a, x]
# + 6 means checks
CHECKS_PER_TRIAL = 50


def _containment(enc: Enclosure, value: float) -> float:
    return max(enc.lower - value, value - enc.upper)


def _chain_violation(values: list[float]) -> float:
    """Largest violation of values[0] >= values[1] >= ... >= last; NaN,
    which no slack passes, when any step is NaN (``max`` alone drops a
    NaN that follows a number)."""
    steps = [nxt - prev for prev, nxt in zip(values, values[1:])]
    return math.nan if any(map(math.isnan, steps)) else max(steps)


class _Battery:
    """Collects check outcomes for one falsification run."""

    def __init__(self, slack: float) -> None:
        self.slack = slack
        self.passed = 0
        self.failed = 0
        self.inconclusive = 0
        self.worst = -math.inf
        self.failures: list[FailureRecord] = []
        self.op_counts: dict[str, int] = {}
        self._trial = 0
        self._instance: ConvexInstance | None = None

    def start_trial(self, index: int, instance: ConvexInstance) -> None:
        self._trial = index
        self._instance = instance

    def _record(self, operation: str, status: str, violation: float, details: str) -> None:
        self.op_counts[operation] = self.op_counts.get(operation, 0) + 1
        if status == _INCONCLUSIVE:
            self.inconclusive += 1
            return
        if violation > self.worst or math.isnan(violation):  # max() drops a NaN after a number
            self.worst = violation
        if status == _PASS:
            self.passed += 1
        else:
            self.failed += 1
            recipe = "" if self._instance is None else self._instance.recipe
            self.failures.append(FailureRecord(self._trial, operation, recipe, details))

    def _attempt(self, operation: str, make):
        """``make()``, or None once an oracle that did not converge or an
        unexpected error is recorded for ``operation``."""
        try:
            return make()
        except OracleInconclusive:
            self._record(operation, _INCONCLUSIVE, 0.0, "")
        except CertError as exc:
            self._record(operation, _FAIL, math.inf, f"unexpected error: {exc!r}")
        return None

    def _judge(self, operation: str, violation: float, describe: Callable[[], str]) -> None:
        """Record ``violation`` against the slack; ``describe()`` is the
        failure text, built only for a failing check."""
        if violation <= self.slack:
            self._record(operation, _PASS, violation, "")
        else:
            self._record(operation, _FAIL, violation, describe())

    def containment(self, operation: str, make) -> None:
        """Check the enclosure of ``make()``, a pair (enclosure, target),
        against the oracle target with slack."""
        made = self._attempt(operation, make)
        if made is None:
            return
        enc, target = made
        if isinstance(target, QuadResult):
            if not target.converged:
                self._record(operation, _INCONCLUSIVE, 0.0, "")
                return
            target = target.value
        self._judge(
            operation,
            _containment(enc, target),
            lambda: f"target {target!r} outside ({enc.lower!r}, {enc.upper!r})",
        )

    def ordering(self, operation: str, make_values) -> None:
        """Check a nonincreasing chain of oracle-built values."""
        values = self._attempt(operation, make_values)
        if values is not None:
            self._judge(operation, _chain_violation(values), lambda: f"chain not ordered: {values!r}")


def _run_trial(battery: _Battery, master_seed: int, index: int, check_tol: float) -> None:
    inst = random_convex_instance(_mix(master_seed, index, 0))
    battery.start_trial(index, inst)
    f, interval, c = inst.function, inst.interval, inst.curvature
    # The oracle adjudicates containment at slack 10·check_tol, so its
    # own integrals run two orders tighter: quadrature noise (e.g. near
    # the kinks of |cubic| weights) must never masquerade as violations.
    tol = 0.01 * check_tol
    g_sym = random_symmetric_weight(_mix(master_seed, index, 1), interval)
    g_dec = random_monotone_weight(_mix(master_seed, index, 2), interval, decreasing=True)
    g_inc = random_monotone_weight(_mix(master_seed, index, 3), interval, decreasing=False)
    rng = random.Random(_mix(master_seed, index, 4))

    a, b = interval.a, interval.b
    p, q = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    radius = (b - a) * min(p, q) / (p + q)
    y = radius * rng.uniform(0.1, 1.0)
    center = (p * a + q * b) / (p + q)
    g_win = random_symmetric_weight(_mix(master_seed, index, 5), Interval(center - y, center + y))

    # every registry rule; λ rules over the grid, the window rule with
    # its own weight drawn on the window
    problem = bd.Problem(f, interval, tol, c, g_sym, None, NodeWeights(p, q), y)
    lam_variants = [problem._replace(lam=Lambda(v)) for v in _LAMBDA_GRID]
    for spec in bd.RULES.values():
        if spec.lam:
            variants = lam_variants
        elif spec.window:
            variants = [problem._replace(weight=g_win)]
        else:
            variants = [problem]
        for variant in variants:
            battery.containment(spec.label, lambda: (spec.enclose(variant), spec.target(variant)))
    battery.containment("complement_weight_gap", lambda: bd.complement_weight_gap(f, g_sym, c, interval, tol))

    # last point pinned to b: a + n*((b-a)/n) can overshoot b by one ulp
    x_grid = [a + k * (b - a) / _H_GRID_STEPS for k in range(1, _H_GRID_STEPS)] + [b]
    for name, g in (("h1", g_dec), ("h2", g_inc)):
        # the steps are computed once; a call that raises raises again for each step
        steps = cache(partial(bd.functional_increments, name, f, g, c, interval, x_grid, tol))
        for k in range(_H_GRID_STEPS):
            battery.containment(f"{name}_functional", lambda: steps()[k])

    x_mid = interval.midpoint
    for rule, name in ((Rule.TRAPEZOID_GAP, "trapezoid"), (Rule.MIDPOINT_GAP, "midpoint")):
        battery.containment(
            f"subinterval_gap_difference_{name}",
            lambda: bd.subinterval_gap_difference(rule, f, c, interval, x_mid, tol),
        )
        battery.containment(
            f"subinterval_gap_{name}", lambda: bd.subinterval_gap(rule, f, c, interval, x_mid, tol)
        )

    # means: random positive pair, log-uniform in [0.1, 10]
    ma = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    mb = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    lo, hi = min(ma, mb), max(ma, mb)
    battery.ordering(
        "mean_ordering",
        lambda: [
            mn.arithmetic_mean(lo, hi),
            mn.identric_mean(lo, hi),
            mn.logarithmic_mean(lo, hi),
            mn.geometric_mean(lo, hi),
            mn.harmonic_mean(lo, hi),
        ],
    )

    branch = rng.random()
    if branch < 0.4:
        p_al = rng.uniform(1.0, 4.0)
    elif branch < 0.7:
        p_al = rng.uniform(-3.0, -1.2)
    else:
        p_al = rng.uniform(-0.8, -0.05)
    x_in = rng.uniform(lo, hi)
    for label, check in (
        ("al_gap_check", lambda: mn.al_gap_check(p_al, lo, hi, x_in)),
        ("harmonic_log_gap_check", lambda: mn.harmonic_log_gap_check(lo, hi, x_in)),
        ("identric_ratio_check", lambda: mn.identric_ratio_check(lo, hi, x_in)),
    ):
        battery.containment(label, check)
    lam_y = rng.random()
    for label, enclose, target in (
        ("young_ratio_bounds", mn.young_ratio_bounds, mn.young_ratio_target),
        ("young_difference_bounds", mn.young_difference_bounds, mn.young_difference_target),
    ):
        battery.containment(label, lambda: (enclose(ma, mb, lam_y), target(ma, mb, lam_y)))


def falsify(trials: int, seed: int, tol: float = 1e-10) -> TrialReport:
    """Run the randomized check battery for the given number of trials.

    Every check compares a certified bound (or ordering chain) against
    the quadrature oracle with slack ``10 * tol``.  Checks whose oracle
    fails to converge count as inconclusive.  The report is a pure
    function of (trials, seed, tol).
    """
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    check_tolerance(tol)
    battery = _Battery(slack=10.0 * tol)
    for index in range(trials):
        _run_trial(battery, seed, index, tol)
    return TrialReport(
        seed=seed,
        trials=trials,
        passed=battery.passed,
        failed=battery.failed,
        inconclusive=battery.inconclusive,
        worst_violation=battery.worst,
        failures=tuple(battery.failures),
        op_counts=dict(sorted(battery.op_counts.items())),
    )
