"""Command-line front end.

``bounds`` runs the rules of :data:`convexcert.bounds.RULES` (one named
rule, or every rule whose inputs were given) on one problem and prints
one certificate per rule.  One ``--g`` weight serves every weighted
rule, the window rule included: none of them needs it symmetric.

Subcommands::

    convexcert bounds --f "exp(x)" --a 0 --b 1 --rule midpoint-gap
    convexcert young  --a 1 --b 4 --lambda 0.5
    convexcert means  --a 1 --b 7 --p 2
    convexcert verify --trials 1000 --seed 42

Exit codes: 0 when every certificate contains its oracle value (and
every falsification trial passes), 1 on usage or input errors, 2 when
a violation is detected.  JSON output has a fixed key order, so reruns
with identical arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

from . import bounds as bd
from . import means as mn
from .core import (
    CertError,
    CurvatureBounds,
    Enclosure,
    Interval,
    Lambda,
    NodeWeights,
    ParameterOutOfRange,
    Provenance,
    QuadResult,
    Rule,
    check_tolerance,
    enclosure_contains,
    make_interval,
)
from .expr import curvature_range, evaluation_spec, function_spec
from .verify import falsify

__all__ = ["Certificate", "main"]

_FMT = "{:.12g}"

_RULE_ALIASES = {"hh": Rule.HERMITE_HADAMARD}
_BOUNDS_RULES = {r.value: r for r in bd.RULES}


class Certificate(NamedTuple):
    """One checked claim: rule, inputs, enclosure and its oracle value."""

    rule: str
    interval: Interval
    inputs: dict[str, str]
    enclosure: Enclosure
    oracle_value: float
    oracle_converged: bool
    contained: bool
    curvature_provenance: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "interval": {"a": self.interval.a, "b": self.interval.b},
            "inputs": self.inputs,
            "enclosure": {"lower": self.enclosure.lower, "upper": self.enclosure.upper},
            "oracle_value": self.oracle_value,
            "oracle_converged": self.oracle_converged,
            "contained": self.contained,
            "curvature_provenance": self.curvature_provenance,
        }

    def human_line(self) -> str:
        lo = _FMT.format(self.enclosure.lower)
        hi = _FMT.format(self.enclosure.upper)
        val = _FMT.format(self.oracle_value)
        flag = "contained" if self.contained else "VIOLATION"
        conv = "" if self.oracle_converged else " (oracle unconverged)"
        return f"{self.rule}: enclosure=({lo}, {hi}) oracle={val}{conv} -> {flag}"


def _make_certificate(
    rule: Rule,
    interval: Interval,
    inputs: dict[str, str],
    enclosure: Enclosure,
    oracle: QuadResult | float,
    tol: float,
    provenance: str = "not-used",
) -> Certificate:
    if isinstance(oracle, QuadResult):
        value, converged = oracle.value, oracle.converged
    else:
        value, converged = oracle, True
    return Certificate(
        rule=rule.value,
        interval=interval,
        inputs=inputs,
        enclosure=enclosure,
        oracle_value=value,
        oracle_converged=converged,
        contained=enclosure_contains(enclosure, value, 10.0 * tol),
        curvature_provenance=provenance,
    )


def _json(payload: object) -> str:
    import json  # only for JSON output, so a plain import skips it

    return json.dumps(payload, indent=2)


def _emit_certificates(certs: list[Certificate], as_json: bool, notes: list[str]) -> int:
    if as_json:
        print(_json([c.to_dict() for c in certs]))
    else:
        for note in notes:
            print(f"note: {note}")
        for cert in certs:
            print(cert.human_line())
    return 0 if all(c.contained for c in certs) else 2


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------


def _resolve_rules(name: str, have_weight: bool, have_window: bool) -> list[Rule]:
    """One named rule, or for ``all`` every registry rule whose weight
    and window inputs were given."""
    if name == "all":
        return [
            rule
            for rule, spec in bd.RULES.items()
            if (have_weight or not spec.weight) and (have_window or not spec.window)
        ]
    rule = _RULE_ALIASES.get(name) or _BOUNDS_RULES.get(name)
    if rule is None:
        known = ", ".join(["hh", "all"] + sorted(_BOUNDS_RULES))
        raise ParameterOutOfRange(f"unknown rule {name!r}; known rules: {known}")
    if bd.RULES[rule].window and not have_window:
        raise ParameterOutOfRange(f"rule {rule.value} needs --p, --q and --y")
    return [rule]


def cmd_bounds(args: argparse.Namespace) -> int:
    f = function_spec(args.f)
    interval, swapped = make_interval(args.a, args.b)
    notes: list[str] = []
    inputs: dict[str, str] = {"f": f.text, "a": repr(args.a), "b": repr(args.b)}
    if swapped:
        note = f"endpoints swapped; working on [{interval.a}, {interval.b}]"
        notes.append(note)
        inputs["note"] = note
    tol = args.tol
    inputs["tol"] = repr(tol)

    have_window = args.p is not None or args.q is not None or args.y is not None
    if have_window and (args.p is None or args.q is None or args.y is None):
        raise ParameterOutOfRange("--p, --q and --y must be given together")
    rules = _resolve_rules(args.rule, args.g is not None, have_window)
    specs = [bd.RULES[rule] for rule in rules]

    weight = None
    if args.g is not None:
        weight = evaluation_spec(args.g)
        inputs["g"] = weight.text

    band: CurvatureBounds | None = None
    if (args.m is None) != (args.curvature_max is None):
        raise ParameterOutOfRange("--m and --M must be given together")
    if any(spec.band for spec in specs):
        if args.m is not None:
            band = CurvatureBounds(args.m, args.curvature_max, Provenance.USER_SUPPLIED)
        else:
            band = curvature_range(f, interval)
        inputs["m"] = repr(band.m)
        inputs["M"] = repr(band.M)
        if args.require_exact and band.provenance is Provenance.SAMPLED_HEURISTIC:
            raise ParameterOutOfRange(
                "curvature band is sampled-heuristic; supply --m/--M or drop --require-exact"
            )

    lam = Lambda(args.lam if args.lam is not None else 0.5)
    if weight is None and any(spec.weight or spec.window for spec in specs):
        weight = evaluation_spec("1")
    problem = bd.Problem(f, interval, tol, band, weight, lam, y=args.y)
    certs: list[Certificate] = []
    for rule, spec in zip(rules, specs):
        rule_inputs = dict(inputs)
        if spec.lam:
            rule_inputs["lambda"] = repr(lam.value)
        if spec.weight or spec.window:
            rule_inputs.setdefault("g", weight.text)
        if spec.window:
            rule_inputs.update({"p": repr(args.p), "q": repr(args.q), "y": repr(args.y)})
            # node weights are validated only once a window rule runs
            problem = problem._replace(nodes=NodeWeights(args.p, args.q))
        prov = band.provenance.value if spec.band else "not-used"
        enc = spec.enclose(problem)
        target = spec.target(problem)
        certs.append(_make_certificate(rule, interval, rule_inputs, enc, target, tol, prov))
    return _emit_certificates(certs, args.json, notes)


# --------------------------------------------------------------------------
# young
# --------------------------------------------------------------------------


def cmd_young(args: argparse.Namespace) -> int:
    a, b, lam = args.a, args.b, args.lam
    interval, _ = make_interval(a, b)
    inputs = {"a": repr(a), "b": repr(b), "lambda": repr(lam)}
    forms = [
        ("ratio", Rule.YOUNG_RATIO, mn.young_ratio_bounds, mn.young_ratio_target),
        ("difference", Rule.YOUNG_DIFFERENCE, mn.young_difference_bounds, mn.young_difference_target),
    ]
    certs = [
        _make_certificate(rule, interval, inputs, enclose(a, b, lam), target(a, b, lam), args.tol)
        for form, rule, enclose, target in forms
        if args.form in (form, "both")
    ]
    return _emit_certificates(certs, args.json, [])


# --------------------------------------------------------------------------
# means
# --------------------------------------------------------------------------


# the classical means in increasing order, as the ordering chain checks them
_MEAN_ORDER = ("harmonic", "geometric", "logarithmic", "identric", "arithmetic")
_PARAMETRIC = (mn.MeanKind.POWER, mn.MeanKind.INTEGRAL_POWER)


def cmd_means(args: argparse.Namespace) -> int:
    a, b = args.a, args.b
    means = {}
    for kind in mn.MeanKind:  # the classical means, then the parametric ones
        if kind not in _PARAMETRIC:
            means[kind.value] = mn.mean(kind, a, b).value
        elif args.p is not None:
            means[f"{kind.value}(p={_FMT.format(args.p)})"] = mn.mean(kind, a, b, args.p).value
    ordering = [means[name] for name in _MEAN_ORDER]
    # a mean that is not finite fails the ordering, and sets no slack
    slack = 1e-12 * max([1.0, *filter(math.isfinite, ordering)])
    ordering_ok = all(map(math.isfinite, ordering)) and all(
        u <= v + slack for u, v in zip(ordering, ordering[1:])
    )
    if args.json:
        payload = {"a": a, "b": b, "p": args.p, "means": means, "ordering_ok": ordering_ok}
        print(_json(payload))
    else:
        width = max(map(len, means))
        for name, value in means.items():
            print(f"{name.ljust(width)}  {_FMT.format(value)}")
        print(f"ordering {' <= '.join(_MEAN_ORDER)}: {'ok' if ordering_ok else 'VIOLATED'}")
    return 0 if ordering_ok else 2


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    report = falsify(args.trials, args.seed, args.tol)
    print(report.to_json())
    return 0 if report.failed == 0 else 2


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexcert",
        description="Certified two-sided enclosures for convex-function integrals, "
        "convexity gaps, special means and Young-type bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="enclosures for integral means and convexity gaps")
    p_bounds.add_argument("--f", required=True, help="convex function of x, e.g. 'exp(x)'")
    p_bounds.add_argument("--a", type=float, required=True, help="interval endpoint")
    p_bounds.add_argument("--b", type=float, required=True, help="interval endpoint")
    p_bounds.add_argument("--g", help="weight function of x (defaults to 1 where needed)")
    p_bounds.add_argument("--lambda", dest="lam", type=float,
                          help="chord / symmetric-pair parameter in [0, 1] (default 0.5)")
    p_bounds.add_argument("--m", type=float, help="lower bound for f'' (with --M)")
    p_bounds.add_argument("--M", dest="curvature_max", type=float,
                          help="upper bound for f'' (with --m)")
    p_bounds.add_argument("--p", type=float, help="left node weight (two-node window rule)")
    p_bounds.add_argument("--q", type=float, help="right node weight (two-node window rule)")
    p_bounds.add_argument("--y", type=float, help="window half-width (two-node window rule)")
    p_bounds.add_argument("--rule", default="all",
                          help="rule name or 'all' (default); 'hh' is the plain sandwich")
    p_bounds.add_argument("--tol", type=float, default=1e-10, help="oracle tolerance")
    p_bounds.add_argument("--json", action="store_true", help="emit JSON certificates")
    p_bounds.add_argument("--require-exact", action="store_true",
                          help="refuse sampled-heuristic curvature bands")
    p_bounds.set_defaults(func=cmd_bounds)

    p_young = sub.add_parser("young", help="two-sided bounds for weighted AM/GM comparisons")
    p_young.add_argument("--a", type=float, required=True)
    p_young.add_argument("--b", type=float, required=True)
    p_young.add_argument("--lambda", dest="lam", type=float, required=True)
    p_young.add_argument("--form", choices=("ratio", "difference", "both"), default="both")
    p_young.add_argument("--tol", type=float, default=1e-10)
    p_young.add_argument("--json", action="store_true")
    p_young.set_defaults(func=cmd_young)

    p_means = sub.add_parser("means", help="classical and parametric means of two numbers")
    p_means.add_argument("--a", type=float, required=True)
    p_means.add_argument("--b", type=float, required=True)
    p_means.add_argument("--p", type=float, help="parameter for the power-type means")
    p_means.add_argument("--json", action="store_true")
    p_means.set_defaults(func=cmd_means)

    p_verify = sub.add_parser("verify", help="randomized falsification run")
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in vars(args):
            check_tolerance(args.tol)
        return args.func(args)
    except CertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
