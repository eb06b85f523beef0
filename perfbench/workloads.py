"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the workload seed: it yields an
endless stream of *blocks*, and each block is a list of operations.  A
block is the unit of stratification (one request per family and request
kind, or one request per magnitude stratum), and timed runs stop only at
block boundaries, so the mix of a run does not depend on where the clock
ran out.  Nothing here imports the program: requests are argument lists
and trial seeds, i.e. exactly what the program receives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

VERIFY_BLOCK = 10

# certificate names printed by ``convexcert bounds --rule all``
ALL_RULES = (
    "hermite-hadamard",
    "midpoint-gap",
    "trapezoid-gap",
    "chord-gap",
    "symmetric-pair-gap",
    "bisection-mean",
    "bisection-quarter",
)
WEIGHT_RULES = ("fejer", "weighted-trapezoid-gap", "weighted-midpoint-gap")
WINDOW_RULE = "vasic-lackovic"
CERT_NAMES = ALL_RULES + WEIGHT_RULES + (WINDOW_RULE,)
STEEP_RULES = ("hh", "midpoint-gap", "trapezoid-gap", "fejer")

CLI_KINDS = ("all", "all-g", "all-window", "chord", "sym")
# f'' of the last five is outside the structural whitelist of
# ``curvature_range``, so their band comes from the sampled heuristic
CLI_FAMILIES = ("exp", "power", "xlogx", "inverse", "quartic", "cosh", "softplus")

# bounds-steep: integer exponents c3 on [0, 1] where the absolute
# tolerance Simpson oracle hits its depth cap but still terminates.
# With arbitrary real c3 and max|f| beyond ~5e6 it does not terminate
# at all (over 10^6 evaluations and climbing), which no timed run can
# include; see README.md.
CAPPED_EXPONENTS = tuple(range(16, 25))
# deep-but-converging stratum: max |c3 x| drawn in [9, 12.5]
DEEP_STRATA = 6
DEEP_RANGE = (9.0, 12.5)


@dataclass(frozen=True)
class Request:
    """One ``convexcert bounds`` call plus what the reference check needs."""

    argv: tuple[str, ...]
    family: str
    f: str  # expression text in the program's syntax
    a: float
    b: float
    rules: tuple[str, ...]  # expected certificate names, as printed
    points: tuple[float, ...] = ()  # breakpoints for the reference quadrature
    g: str | None = None
    lam: float | None = None
    window: tuple[float, float, float] | None = None  # p, q, y


def _num(v: float) -> str:
    return repr(float(v))


def _plus(v: float) -> str:
    """`` + v`` or `` - |v|``, so no expression contains ``+ -``."""
    return f" + {_num(v)}" if v >= 0.0 else f" - {_num(-v)}"


def _shifted(s: float) -> str:
    """``(x - s)`` written without a double sign."""
    return f"(x{_plus(-s)})"


# --------------------------------------------------------------------------
# verify-battery
# --------------------------------------------------------------------------


def verify_blocks(seed: int) -> Iterator[list[int]]:
    """Trial seeds for ``verify.falsify(1, trial_seed)``, ten per block."""
    rng = random.Random(f"verify-battery:{seed}")
    while True:
        yield [rng.getrandbits(63) for _ in range(VERIFY_BLOCK)]


# --------------------------------------------------------------------------
# bounds-cli
# --------------------------------------------------------------------------


def _family(name: str, rng: random.Random) -> tuple[str, float, float, tuple[float, ...]]:
    """Draw (f, a, b, breakpoints) for one convex family."""
    if name == "exp":
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.3, 3.0)
        k = rng.uniform(0.3, min(2.5, 6.0 / max(abs(a), abs(b))))
        k *= rng.choice((-1.0, 1.0))
        f = f"{_num(rng.uniform(0.2, 3.0))}*exp({_num(k)}*x){_plus(rng.uniform(-2.0, 2.0))}*x"
        return f, a, b, ()
    if name == "power":
        a = rng.uniform(0.3, 2.0)
        b = a + rng.uniform(0.3, 3.0)
        p = rng.uniform(1.5, 4.0) if rng.random() < 0.6 else rng.uniform(-2.5, -0.5)
        return f"{_num(rng.uniform(0.2, 3.0))}*x^{_num(p)}", a, b, ()
    if name == "xlogx":
        a = rng.uniform(0.2, 2.0)
        return f"{_num(rng.uniform(0.2, 3.0))}*x*log(x)", a, a + rng.uniform(0.3, 3.0), ()
    if name == "inverse":
        a = rng.uniform(0.2, 2.0)
        return f"{_num(rng.uniform(0.2, 3.0))}/x", a, a + rng.uniform(0.3, 3.0), ()
    if name == "quartic":
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.5, 3.0)
        s = a + (b - a) * rng.uniform(0.2, 0.8)
        c, d = rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0)
        return f"{_num(c)}*{_shifted(s)}^4{_plus(d)}*x", a, b, ()
    if name == "cosh":
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.5, 3.0)
        s = a + (b - a) * rng.uniform(0.2, 0.8)
        k = rng.uniform(0.5, min(2.5, 6.0 / (b - a)))
        xs = _shifted(s)
        f = f"{_num(rng.uniform(0.2, 3.0))}*(exp({_num(k)}*{xs}) + exp({_num(-k)}*{xs}))"
        return f, a, b, ()
    if name == "softplus":
        slope = rng.uniform(20.0, 200.0)
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(1.0, min(2.5, 280.0 / slope))
        x0 = a + (b - a) * rng.uniform(0.2, 0.8)
        return f"log(1 + exp({_num(slope)}*{_shifted(x0)}))", a, b, (x0,)
    raise ValueError(f"unknown family {name!r}")


def _symmetric_weight(rng: random.Random, a: float, b: float) -> str:
    """A positive weight symmetric about the midpoint of [a, b]."""
    xm = _shifted(0.5 * (a + b))
    if rng.random() < 0.5:
        return f"{_num(rng.uniform(0.2, 1.0))} + {_num(rng.uniform(0.0, 1.0))}*{xm}^2"
    return f"exp({_num(-rng.uniform(0.2, 2.0))}*{xm}^2)"


def _cli_request(family: str, kind: str, rng: random.Random) -> Request:
    f, a, b, points = _family(family, rng)
    argv = ["bounds", f"--f={f}", f"--a={_num(a)}", f"--b={_num(b)}", "--json"]
    g = lam = window = None
    rules = ALL_RULES
    if kind in ("chord", "sym") or rng.random() < 0.5:
        lam = rng.uniform(0.0, 1.0)
        argv.append(f"--lambda={_num(lam)}")
    if kind == "chord":
        argv.append("--rule=chord-gap")
        rules = ("chord-gap",)
    elif kind == "sym":
        argv.append("--rule=symmetric-pair-gap")
        rules = ("symmetric-pair-gap",)
    elif kind == "all-g":
        g = _symmetric_weight(rng, a, b)
        argv.append(f"--g={g}")
        rules = ALL_RULES + WEIGHT_RULES
    elif kind == "all-window":
        p, q = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        y = (b - a) * min(p, q) / (p + q) * rng.uniform(0.2, 0.95)
        window = (p, q, y)
        argv += [f"--p={_num(p)}", f"--q={_num(q)}", f"--y={_num(y)}"]
        rules = ALL_RULES + (WINDOW_RULE,)
    return Request(tuple(argv), family, f, a, b, rules, points, g, lam, window)


def cli_blocks(seed: int) -> Iterator[list[Request]]:
    """One request per (family, kind) pair per block, in seeded order."""
    rng = random.Random(f"bounds-cli:{seed}")
    while True:
        block = [_cli_request(fam, kind, rng) for fam in CLI_FAMILIES for kind in CLI_KINDS]
        rng.shuffle(block)
        yield block


# --------------------------------------------------------------------------
# bounds-steep
# --------------------------------------------------------------------------


def _steep_request(rule: str, f: str, a: float, b: float, family: str) -> Request:
    argv = ("bounds", f"--f={f}", f"--a={_num(a)}", f"--b={_num(b)}", f"--rule={rule}", "--json")
    printed = "hermite-hadamard" if rule == "hh" else rule
    return Request(argv, family, f, a, b, (printed,))


def steep_blocks(seed: int) -> Iterator[list[Request]]:
    """Single-rule integral-backed requests on c2*exp(c3*x).

    Each block holds one request per capped exponent (c3 = 16..24 on
    [0, 1], where the oracle stops at its depth cap, each with c2 from
    its own stratum) and one per stratum
    of the deep-but-converging range (max |c3 x| in [9, 12.5] on a drawn
    interval), with the four rules dealt round-robin.  No integral is
    repeated within a request, so an integral cache has nothing to hit.
    """
    rng = random.Random(f"bounds-steep:{seed}")
    for index in count():
        block = []
        strata = len(CAPPED_EXPONENTS)
        for j, c3 in enumerate(CAPPED_EXPONENTS):
            # cost grows with c3 + log(c2): c2 takes its own log-uniform
            # stratum in [0.5, 3], paired with c3 the same way in every
            # block, so each block has the same spread of magnitudes
            stratum = (4 * j) % strata
            c2 = 0.5 * 6.0 ** ((stratum + rng.random()) / strata)
            f = f"{_num(c2)}*exp({_num(c3)}*x)"
            rule = STEEP_RULES[(j + index) % len(STEEP_RULES)]
            block.append(_steep_request(rule, f, 0.0, 1.0, "capped"))
        lo, hi = DEEP_RANGE
        for j in range(DEEP_STRATA):
            t = lo + (hi - lo) * (j + rng.random()) / DEEP_STRATA
            a = rng.uniform(-0.5, 0.5)
            b = a + rng.uniform(0.5, 2.0)
            c3 = t / max(abs(a), abs(b))
            if rng.random() < 0.5:  # mirror: growth towards the left end
                a, b, c3 = -b, -a, -c3
            f = f"{_num(rng.uniform(0.5, 3.0))}*exp({_num(c3)}*x)"
            rule = STEEP_RULES[(j + index) % len(STEEP_RULES)]
            block.append(_steep_request(rule, f, a, b, "deep"))
        rng.shuffle(block)
        yield block


BLOCKS = {
    "verify-battery": verify_blocks,
    "bounds-cli": cli_blocks,
    "bounds-steep": steep_blocks,
}
