"""In-memory spans around the program's layer boundaries.

The tracer wraps public functions of the package from outside: for
every wrapped function it replaces each module-level name bound to that
function object (``bounds.integrate``, ``quadrature.integrate``,
``cli.function_spec``, ...), so calls made through any module's
namespace are seen, and nothing under ``src/`` changes.  Spans hold
name, start, end, parent and operation; per-layer self and busy times
and counts are derived from them after the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, function names); bounds, means and verify
# groups are filled from the module's __all__ by `_groups`
_FIXED_GROUPS = (
    ("quadrature.integrate", "convexcert.quadrature", ("integrate",)),
    ("quadrature.classify_weight", "convexcert.quadrature", ("classify_weight",)),
    ("expr.parse", "convexcert.expr", ("parse",)),
    ("expr.function_spec", "convexcert.expr", ("function_spec",)),
    ("expr.evaluation_spec", "convexcert.expr", ("evaluation_spec",)),
    ("expr.curvature_range", "convexcert.expr", ("curvature_range",)),
    (
        "verify.instance",
        "convexcert.verify",
        ("random_convex_instance", "random_symmetric_weight", "random_monotone_weight", "slope_normalized"),
    ),
)

# layers whose busy time (outermost spans) is reported
BUSY_LAYERS = (
    "quadrature.integrate",
    "quadrature.classify_weight",
    "expr.parse",
    "expr.function_spec",
    "expr.evaluation_spec",
    "expr.curvature_range",
    "means",
    "verify.instance",
)
# layers whose self time (span minus its child spans) is reported
SELF_LAYERS = ("bounds.enclose", "bounds.target", "verify", "cli")
ROOTS = {"cli": ("convexcert.cli", "main"), "verify": ("convexcert.verify", "falsify")}

SPEC_SAMPLES = 64  # functions kept for the ns-per-call measurement
SPEC_POINTS = 200


def _public_functions(module) -> list[str]:
    return [n for n in getattr(module, "__all__", ()) if inspect.isfunction(getattr(module, n, None))]


def _groups() -> list[tuple[str, str, tuple[str, ...]]]:
    bounds = sys.modules["convexcert.bounds"]
    means = sys.modules["convexcert.means"]
    names = _public_functions(bounds)
    return [
        *_FIXED_GROUPS,
        ("bounds.enclose", "convexcert.bounds", tuple(n for n in names if not n.startswith("target_"))),
        ("bounds.target", "convexcert.bounds", tuple(n for n in names if n.startswith("target_"))),
        ("means", "convexcert.means", tuple(_public_functions(means))),
    ]


class Tracer:
    """Collects spans for one traced pass; `install` patches, the
    returned callable restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._seen: set[tuple] = set()
        self._sampled_op = -1
        self.counts = {"evals": 0, "unconverged": 0, "repeat_calls": 0, "heuristic_bands": 0}
        self.samples: list[tuple[object, object]] = []

    # ---- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        span_name = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(span_name)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, index: int) -> None:
        self._op = index
        self._seen.clear()

    def _on_integrate(self, args, kwargs, result) -> None:
        f = args[0] if args else kwargs["f"]
        interval = args[1] if len(args) > 1 else kwargs["interval"]
        tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-10)
        self.counts["evals"] += result.evaluations
        self.counts["unconverged"] += not result.converged
        key = (interval.a, interval.b, tol, result.value, result.evaluations)
        if key in self._seen:
            self.counts["repeat_calls"] += 1
        self._seen.add(key)
        spec_type = sys.modules["convexcert.expr"].FunctionSpec
        if self._sampled_op != self._op and len(self.samples) < SPEC_SAMPLES and isinstance(f, spec_type):
            self._sampled_op = self._op
            self.samples.append((f, interval))

    def _on_curvature(self, args, kwargs, result) -> None:
        self.counts["heuristic_bands"] += result.provenance.value == "sampled-heuristic"

    # ---- patching --------------------------------------------------------

    def install(self, root: str):
        """Wrap every layer function plus the operation root ``root``
        (``"cli"`` or ``"verify"``); returns (root callable, restore)."""
        modules = [m for n, m in list(sys.modules.items()) if n == "convexcert" or n.startswith("convexcert.")]
        hooks = {"quadrature.integrate": self._on_integrate, "expr.curvature_range": self._on_curvature}
        replaced: list[tuple[object, str, object]] = []
        for group, module_name, names in _groups():
            module = sys.modules[module_name]
            for fname in names:
                original = getattr(module, fname, None)
                if not inspect.isfunction(original):
                    continue
                wrapper = self.wrap(group, original, hooks.get(group))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            replaced.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        module_name, fname = ROOTS[root]
        root_fn = self.wrap(root, getattr(sys.modules[module_name], fname))

        def restore() -> None:
            for mod, attr, value in reversed(replaced):
                setattr(mod, attr, value)

        return root_fn, restore

    # ---- derived metrics -------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans of that name)
        and self_s (spans minus the time their child spans cover)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = self.parent[i]
            if p < 0 or self.name[p] != self.name[i]:
                row["busy_s"] += dur
        return out

    def spec_call_ns(self) -> float:
        """Mean ns per FunctionSpec call over the sampled workload
        functions, best of three passes over a uniform grid each."""
        per_call = []
        for spec, interval in self.samples:
            a, b = interval.a, interval.b
            xs = [a + (b - a) * k / (SPEC_POINTS - 1) for k in range(SPEC_POINTS)]
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for x in xs:
                    spec(x)
                best = min(best, time.perf_counter() - t0)
            per_call.append(best / SPEC_POINTS * 1e9)
        return sum(per_call) / len(per_call) if per_call else 0.0

    def dump(self, path: Path, meta: dict) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [
            [self.name[i], self.parent[i], self.op[i], self.start[i] - t0, self.end[i] - t0]
            for i in range(len(self.start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "names": self.names, "columns": ["name", "parent", "op", "start_s", "end_s"], "spans": spans}
        path.write_text(json.dumps(payload, separators=(",", ":")))
