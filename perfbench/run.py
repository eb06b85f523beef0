"""Layered benchmark for convexcert.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bounds-cli --seed 1 --seconds 20 --trace 0

One single-threaded process runs one workload as a closed loop with one
client: the next operation starts when the previous one returns.  The
program is imported from ``src/`` of the checkout the script lives in.
With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds of work (whole blocks, at least MIN_OPS
operations), with every time scaled to a reference machine pace (see
PACE_REFERENCE);
with ``--trace 1`` it runs a fixed number of blocks once untraced and
once traced and reports per-layer metrics.  Either way every output is
checked after the timed region, and the last line of standard output is
the JSON result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_OPS = 100
# a run measures --seconds of work at the reference pace, so a slow spell
# stretches it rather than thinning its sample, up to this factor
MAX_STRETCH = 1.5
SETUP_RUNS = (3, 4)  # fresh interpreters before and after the timed loop
# Other tenants of a shared machine slow it down by up to 2x, in spells
# of seconds to minutes, often longer than a run.  So a fixed loop of
# CALIBRATION_LOOP multiply-adds is timed before and after every
# operation and every set-up, and each time is reported as it would read
# at the reference pace: measured time * PACE_REFERENCE / mean of the two
# loop times.  PACE_REFERENCE is the loop's time on an idle core of the
# 2-vCPU Xeon machine the benchmark was tuned on (Python 3.11); it only
# fixes the scale.  The unscaled figures are printed in the info line.
CALIBRATION_LOOP = 3000
PACE_REFERENCE = 180e-6
TOL = 1e-10  # the CLI's and the harness's default oracle tolerance
TRACED_BLOCKS = {"verify-battery": 10, "bounds-cli": 12, "bounds-steep": 3}

# one fixed operation per workload, run in every fresh interpreter that
# measures set-up and once before timing starts
WARM_UP = {
    "verify-battery": "verify.falsify(1, 0, 1e-10)",
    "bounds-cli": "cli.main(['bounds', '--f=exp(x)', '--a=0', '--b=1', '--g=1 + x*(1 - x)', '--json'])",
    "bounds-steep": "cli.main(['bounds', '--f=2*exp(12*x)', '--a=0', '--b=1', '--rule=hh', '--json'])",
}

_SETUP_CHILD = """
import contextlib, io, sys, time
def calibrate():
    t0 = time.perf_counter(); s = 0
    for i in range(int(sys.argv[3])):
        s += i * i
    return time.perf_counter() - t0
before = calibrate()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from convexcert import cli, verify
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[2])
setup = time.perf_counter() - t0
print(setup, before, calibrate())
"""


def calibrate() -> float:
    """Seconds for CALIBRATION_LOOP multiply-adds: the machine's current pace."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# operations and their outcomes
# --------------------------------------------------------------------------


class Checks:
    """Check outcomes and operation failures of one pass."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed_ops = 0
        self.checks = 0
        self.failed = 0
        self.inconclusive = 0
        self.errors: list[str] = []
        # converged bounds certificates awaiting the reference check
        self.pending_op = array("I")
        self.pending_rule = bytearray()
        self.pending_value = array("d")

    def op_failed(self, message: str) -> None:
        self.failed_ops += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class VerifyRunner:
    """``verify.falsify`` one trial at a time."""

    root = "verify"

    def __init__(self) -> None:
        from convexcert import verify

        self.entry = verify.falsify
        self.checks_per_trial = verify.CHECKS_PER_TRIAL

    def execute(self, fn, trial_seed: int):
        try:
            return fn(1, trial_seed, TOL)
        except Exception as exc:  # a program fault: recorded, the run goes on
            return exc

    def record(self, checks: Checks, index: int, trial_seed: int, report) -> None:
        checks.ops += 1
        checks.checks += self.checks_per_trial
        if isinstance(report, Exception):
            checks.failed += self.checks_per_trial
            checks.op_failed(f"trial seed {trial_seed}: {report!r}")
            return
        total = report.passed + report.failed + report.inconclusive
        checks.failed += report.failed + max(0, self.checks_per_trial - total)
        checks.inconclusive += report.inconclusive
        if total != self.checks_per_trial:
            checks.op_failed(f"trial seed {trial_seed}: {total} checks, expected {self.checks_per_trial}")
        elif report.failed:
            checks.op_failed(f"trial seed {trial_seed}: {report.failed} battery checks failed")

    def verify_references(self, checks: Checks, seed: int, name: str) -> None:
        """The battery is its own reference; nothing is pending."""


class BoundsRunner:
    """``cli.main(["bounds", ..., "--json"])`` in process, once per request."""

    root = "cli"

    def __init__(self) -> None:
        from convexcert import cli

        self.entry = cli.main

    def execute(self, fn, req: workloads.Request):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = fn(list(req.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception as exc:  # a program fault: recorded, the run goes on
                return None, repr(exc)
        return rc, buf.getvalue()

    def record(self, checks: Checks, index: int, req: workloads.Request, raw) -> None:
        rc, out = raw
        checks.ops += 1
        try:
            certs = json.loads(out)
        except json.JSONDecodeError:
            certs = None
        if rc not in (0, 2) or not isinstance(certs, list):
            checks.checks += len(req.rules)
            checks.failed += len(req.rules)
            checks.op_failed(f"exit {rc} for {' '.join(req.argv)}: {out[:200]}")
            return
        if sorted(c["rule"] for c in certs) != sorted(req.rules):
            checks.op_failed(f"unexpected certificates {[c['rule'] for c in certs]} for {' '.join(req.argv)}")
        if rc != (0 if all(c["contained"] for c in certs) else 2):
            checks.op_failed(f"exit {rc} disagrees with the certificates for {' '.join(req.argv)}")
        for c in certs:
            checks.checks += 1
            if not c["oracle_converged"]:
                checks.inconclusive += 1
                continue
            if not c["contained"]:
                checks.failed += 1
                if c["curvature_provenance"] in ("exact", "not-used"):
                    checks.op_failed(f"{c['rule']} violated with a {c['curvature_provenance']} band: {req.f}")
                continue
            checks.pending_op.append(index)
            checks.pending_rule.append(workloads.CERT_NAMES.index(c["rule"]))
            checks.pending_value.append(c["oracle_value"])

    def verify_references(self, checks: Checks, seed: int, name: str) -> None:
        """Compare each contained, converged oracle value with mpmath."""
        import reference

        stream = (req for block in workloads.BLOCKS[name](seed) for req in block)
        k, n = 0, len(checks.pending_op)
        for index, req in enumerate(stream):
            if k >= n:
                break
            if checks.pending_op[k] != index:
                continue
            ref = reference.RequestReference(req)
            while k < n and checks.pending_op[k] == index:
                rule = workloads.CERT_NAMES[checks.pending_rule[k]]
                value = checks.pending_value[k]
                expected, scale = ref.target(rule)
                verdict = reference.compare(value, expected, scale, TOL)
                if verdict != "agree":
                    checks.failed += 1
                if verdict == "wrong":
                    checks.op_failed(f"{rule}: oracle {value!r}, reference {expected!r} for {req.f}")
                k += 1


RUNNERS = {"verify-battery": VerifyRunner, "bounds-cli": BoundsRunner, "bounds-steep": BoundsRunner}


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


def at_reference_pace(seconds: float, before: float, after: float) -> float:
    """A measured time as it would read at PACE_REFERENCE."""
    return seconds * PACE_REFERENCE / (0.5 * (before + after))


class Timing:
    """Per-operation latencies with the calibration loops around them."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.calibration = array("d")  # one before each operation, one after the last

    def paced(self) -> list[float]:
        cal = self.calibration
        return [at_reference_pace(t, cal[i], cal[i + 1]) for i, t in enumerate(self.latencies)]

    def unscaled(self) -> dict:
        """The raw figures, and the run's median loop time, for the info line."""
        lat = self.latencies
        return {
            "unscaled_throughput_ops_per_s": len(lat) / sum(lat),
            "unscaled_latency_p50_ms": 1e3 * quantile(lat, 0.5),
            "unscaled_latency_p90_ms": 1e3 * quantile(lat, 0.9),
            "pace_median_us": 1e6 * statistics.median(self.calibration),
        }


def timed_pass(runner, fn, blocks, seconds: float) -> tuple[Timing, Checks]:
    """Run whole blocks until ``seconds`` of work at the reference pace
    (or MAX_STRETCH times ``seconds`` of wall time) and MIN_OPS operations."""
    timing, checks = Timing(), Checks()
    lat, cal = timing.latencies, timing.calibration
    clock = time.perf_counter
    busy = paced = 0.0
    index = 0
    cal.append(calibrate())
    for block in blocks:
        for op in block:
            t0 = clock()
            raw = runner.execute(fn, op)
            dt = clock() - t0
            cal.append(calibrate())
            lat.append(dt)
            busy += dt
            paced += at_reference_pace(dt, cal[-2], cal[-1])
            runner.record(checks, index, op, raw)
            index += 1
        if (paced >= seconds or busy >= MAX_STRETCH * seconds) and index >= MIN_OPS:
            break
    return timing, checks


def _block(runner, fn, block, checks: Checks, first: int, tracer=None) -> float:
    """Wall time of one block, outcomes recorded into ``checks``."""
    t0 = time.perf_counter()
    for index, op in enumerate(block, first):
        if tracer is not None:
            tracer.begin_op(index)
        runner.record(checks, index, op, runner.execute(fn, op))
    return time.perf_counter() - t0


def measure_setup(name: str, runs: int) -> list[float]:
    """Set-up seconds, at the reference pace, of fresh interpreters
    importing convexcert and running one warm-up operation."""
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), WARM_UP[name], str(CALIBRATION_LOOP)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        samples.append(at_reference_pace(*map(float, done.stdout.split())))
    return samples


def warm_up(name: str) -> None:
    from convexcert import cli, verify  # noqa: F401  (names used by the statement)

    with contextlib.redirect_stdout(io.StringIO()):
        exec(WARM_UP[name])


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def machine_info(name: str, seed: int, seconds: int, trace: int) -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "convexcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, name: str, seed: int, seconds: int) -> tuple[dict, Checks, dict]:
    setups = measure_setup(name, SETUP_RUNS[0])
    warm_up(name)
    timing, checks = timed_pass(runner, runner.entry, workloads.BLOCKS[name](seed), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += measure_setup(name, SETUP_RUNS[1])
    runner.verify_references(checks, seed, name)
    latencies = timing.paced()
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "throughput_ops_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(1e3 * quantile(latencies, 0.5), "ms"),
        "latency_p90_ms": _metric(1e3 * quantile(latencies, 0.9), "ms"),
        "held_share": _metric(1.0 - checks.failed / checks.checks, "share"),
        "conclusive_share": _metric(1.0 - checks.inconclusive / checks.checks, "share"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return metrics, checks, timing.unscaled()


def per_layer(runner, name: str, seed: int) -> tuple[dict, Checks, "spans.Tracer"]:
    """Run TRACED_BLOCKS blocks once untraced and once traced.  The two
    runs alternate block by block, so a slow spell of the machine falls
    on both and their difference is the tracing overhead."""
    import spans

    warm_up(name)
    blocks = list(islice(workloads.BLOCKS[name](seed), TRACED_BLOCKS[name]))
    tracer = spans.Tracer()
    checks, discard = Checks(), Checks()
    plain_wall = traced_wall = 0.0
    first = 0
    for number, block in enumerate(blocks):
        for traced in ((False, True) if number % 2 == 0 else (True, False)):
            if not traced:
                plain_wall += _block(runner, runner.entry, block, discard, first)
                continue
            root_fn, restore = tracer.install(runner.root)
            try:
                traced_wall += _block(runner, root_fn, block, checks, first, tracer)
            finally:
                restore()
        first += len(block)
    runner.verify_references(checks, seed, name)

    layers = tracer.layer_times()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    integrate = layers.get("quadrature.integrate", empty)
    curvature = layers.get("expr.curvature_range", empty)
    counts = tracer.counts
    m: dict[str, dict] = {}
    m["quadrature.integrate.calls"] = _metric(integrate["calls"], "count")
    m["quadrature.integrate.busy_s"] = _metric(integrate["busy_s"], "s")
    m["quadrature.integrate.busy_share"] = _metric(integrate["busy_s"] / traced_wall, "share")
    m["quadrature.integrate.evals"] = _metric(counts["evals"], "count")
    m["quadrature.integrate.unconverged"] = _metric(counts["unconverged"], "count")
    m["quadrature.integrate.repeat_calls"] = _metric(counts["repeat_calls"], "count")
    m["quadrature.integrate.repeat_share"] = _metric(
        counts["repeat_calls"] / integrate["calls"] if integrate["calls"] else 0.0, "share"
    )
    for layer in spans.BUSY_LAYERS:
        if layer == "quadrature.integrate":
            continue
        row = layers.get(layer, empty)
        m[f"{layer}.calls"] = _metric(row["calls"], "count")
        m[f"{layer}.busy_s"] = _metric(row["busy_s"], "s")
    m["expr.curvature_range.heuristic_share"] = _metric(
        counts["heuristic_bands"] / curvature["calls"] if curvature["calls"] else 0.0, "share"
    )
    m["expr.spec_call_ns"] = _metric(tracer.spec_call_ns(), "ns")
    for layer in spans.SELF_LAYERS:
        row = layers.get(layer, empty)
        if layer.startswith("bounds."):
            m[f"{layer}.calls"] = _metric(row["calls"], "count")
        m[f"{layer}.self_s"] = _metric(row["self_s"], "s")
    m["checks.failed_share"] = _metric(checks.failed / checks.checks, "share")
    m["checks.inconclusive_share"] = _metric(checks.inconclusive / checks.checks, "share")
    m["trace.wall_s"] = _metric(traced_wall, "s")
    m["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    return m, checks, tracer


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "convexcert" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'convexcert'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    info = machine_info(args.workload, args.seed, args.seconds, args.trace)
    runner = RUNNERS[args.workload]()
    tracer = None
    if args.trace:
        metrics, checks, tracer = per_layer(runner, args.workload, args.seed)
        extra = {"spans": len(tracer.start)}
    else:
        metrics, checks, extra = end_to_end(runner, args.workload, args.seed, args.seconds)
    for message in checks.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    info.update(extra, operations=checks.ops, checks=checks.checks, failed_checks=checks.failed,
                inconclusive_checks=checks.inconclusive)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", info)
    print(json.dumps({"info": info}))
    result = {
        "correct": checks.failed_ops == 0,
        "attempted": checks.ops,
        "failed": checks.failed_ops,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
