"""Independent mpmath references for ``convexcert bounds`` certificates.

Used only by the benchmark, outside the timed region.  Each certificate
names an oracle target (an integral mean, a gap, a weighted integral);
this module recomputes that target in 20-digit arithmetic with
``mpmath.quad`` and says whether the program's converged value agrees
within the certificate's own tolerance.
"""

from __future__ import annotations

import math

from mpmath import mp

from workloads import Request

DPS = 18

# The CLI judges containment with slack 10 * tol; a converged oracle
# value must be that close to the truth for the certificate to mean
# anything.  On top of it we allow the rounding of a double-precision
# sum of terms of magnitude `scale` (2**-40 relative), which no double
# oracle can beat.
CERT_SLACK = 10.0
ROUNDING = 2.0**-40
# beyond this relative error a converged value is simply wrong: the run
# is marked incorrect rather than merely counting a failed check
GROSS = 1e-6

_NAMESPACE = {"exp": mp.exp, "log": mp.log, "__builtins__": {}}


def mp_function(text: str):
    """mpmath callable for an expression in the program's syntax."""
    return eval("lambda x: " + text.replace("^", "**"), dict(_NAMESPACE))  # noqa: S307


class RequestReference:
    """Lazily computed reference integrals for one request."""

    def __init__(self, req: Request) -> None:
        self.req = req
        self.f = mp_function(req.f)
        self.g = mp_function(req.g) if req.g is not None else (lambda x: mp.mpf(1))
        self._cache: dict[str, tuple[object, float]] = {}

    def _quad(self, key: str, fn, a: float, b: float) -> tuple[object, float]:
        """(integral, rounding scale) over [a, b], split at breakpoints."""
        if key not in self._cache:
            pts = [a, *(p for p in self.req.points if a < p < b), b]
            # tanh-sinh copes with the softplus kink; Gauss-Legendre is
            # cheaper on everything analytic
            method = "tanh-sinh" if len(pts) > 2 else "gauss-legendre"
            value, err = mp.quad(fn, pts, method=method, error=True)
            if err > 1e-15 * max(1.0, abs(value)):
                value, err = mp.quad(fn, pts, method="tanh-sinh", maxdegree=10, error=True)
            if err > 1e-15 * max(1.0, abs(value)):
                raise ArithmeticError(f"reference quadrature did not settle for {key} of {self.req.f}")
            # rounding scale: width times the largest sampled |integrand|
            xs = [a + (b - a) * k / 8 for k in range(9)] + pts
            magnitude = (b - a) * max(abs(float(fn(mp.mpf(x)))) for x in xs)
            self._cache[key] = (value, magnitude)
        return self._cache[key]

    def target(self, rule: str) -> tuple[float, float]:
        """(reference value, scale) of the oracle target named by ``rule``;
        scale is the sum of magnitudes of the terms the target combines."""
        with mp.workdps(DPS):
            return self._target(rule)

    def _target(self, rule: str) -> tuple[float, float]:
        req, f = self.req, self.f
        a, b = req.a, req.b
        w = b - a
        mid = 0.5 * (a + b)

        def fx(x: float):
            return f(mp.mpf(x))

        if rule in ("chord-gap", "symmetric-pair-gap"):
            lam = 0.5 if req.lam is None else req.lam
            if rule == "chord-gap":
                terms = [lam * fx(a), (1.0 - lam) * fx(b), -fx(lam * a + (1.0 - lam) * b)]
            else:
                u, v = lam * a + (1.0 - lam) * b, (1.0 - lam) * a + lam * b
                terms = [0.5 * fx(u), 0.5 * fx(v), -fx(mid)]
            return _combine(terms, 0.0)
        if rule == "vasic-lackovic":
            p, q, y = req.window
            c = (p * a + q * b) / (p + q)
            value, mag = self._quad("fg-window", lambda t: f(t) * self.g(t), c - y, c + y)
            return float(value), mag
        if rule in ("fejer", "weighted-trapezoid-gap", "weighted-midpoint-gap"):
            fg, fg_mag = self._quad("fg", lambda t: f(t) * self.g(t), a, b)
            if rule == "fejer":
                return float(fg), fg_mag
            g_int, g_mag = self._quad("g", self.g, a, b)
            if rule == "weighted-trapezoid-gap":
                endpoint = 0.5 * (fx(a) + fx(b))
                return _combine([endpoint * g_int, -fg], fg_mag + abs(float(endpoint)) * g_mag)
            return _combine([fg, -fx(mid) * g_int], fg_mag + abs(float(fx(mid))) * g_mag)
        integral, f_mag = self._quad("f", f, a, b)
        mean, mean_mag = integral / w, f_mag / w
        if rule == "hermite-hadamard":
            return float(mean), mean_mag
        if rule == "midpoint-gap":
            return _combine([mean, -fx(mid)], mean_mag)
        if rule == "trapezoid-gap":
            return _combine([0.5 * fx(a), 0.5 * fx(b), -mean], mean_mag)
        if rule == "bisection-mean":
            return _combine([0.25 * fx(a), 0.25 * fx(b), 0.5 * fx(mid), -mean], mean_mag)
        if rule == "bisection-quarter":
            q1, q3 = 0.25 * (3.0 * a + b), 0.25 * (a + 3.0 * b)
            return _combine([mean, -0.5 * fx(q1), -0.5 * fx(q3)], mean_mag)
        raise ValueError(f"no reference for rule {rule!r}")


def _combine(terms: list, extra_scale: float) -> tuple[float, float]:
    return float(mp.fsum(terms)), extra_scale + sum(abs(float(t)) for t in terms)


def compare(value: float, reference: float, scale: float, tol: float) -> str:
    """``"agree"``, ``"disagree"`` (beyond the certificate tolerance) or
    ``"wrong"`` (beyond any rounding explanation)."""
    diff = abs(value - reference)
    if not math.isfinite(value):
        return "wrong"
    if diff <= CERT_SLACK * tol + ROUNDING * scale:
        return "agree"
    if diff <= GROSS * max(1.0, scale):
        return "disagree"
    return "wrong"
