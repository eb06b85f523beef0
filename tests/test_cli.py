"""End-to-end tests for the command-line interface (in-process, plus
one subprocess smoke test of the module entry point)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convexcert.cli import main

E = math.e
# `bounds --json` outputs frozen before the rule registry replaced the
# per-rule wiring of the CLI
GOLDEN = json.loads((Path(__file__).parent / "golden_bounds.json").read_text())
GOLDEN_IDS = ["all-weight-window-swapped", "all-user-band", "all-heuristic-band",
              "fejer-default-weight", "chord-lambda"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_plain_sandwich_json(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--f", "x^2", "--a", "0", "--b", "1", "--rule", "hh", "--json"
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert len(payload) == 1
        cert = payload[0]
        assert cert["rule"] == "hermite-hadamard"
        assert cert["interval"] == {"a": 0.0, "b": 1.0}
        assert cert["enclosure"]["lower"] == pytest.approx(0.25, abs=1e-15)
        assert cert["enclosure"]["upper"] == pytest.approx(0.5, abs=1e-15)
        assert cert["oracle_value"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert cert["oracle_converged"] is True
        assert cert["contained"] is True
        assert cert["curvature_provenance"] == "not-used"

    def test_midpoint_gap_uses_exact_curvature(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--f", "exp(x)", "--a", "0", "--b", "1",
            "--rule", "midpoint-gap", "--json",
        )
        assert code == 0
        cert = json.loads(out)[0]
        assert cert["curvature_provenance"] == "exact"
        assert float(cert["inputs"]["m"]) == pytest.approx(1.0, rel=1e-14)
        assert float(cert["inputs"]["M"]) == pytest.approx(E, rel=1e-14)
        assert cert["enclosure"]["lower"] == pytest.approx(1.0 / 24.0, rel=1e-14)
        assert cert["contained"] is True

    def test_human_output_line_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--f", "exp(x)", "--a", "0", "--b", "1", "--rule", "hh"
        )
        assert code == 0
        assert out.startswith("hermite-hadamard: enclosure=(")
        assert "-> contained" in out

    def test_swapped_endpoints_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--f", "x^2", "--a", "1", "--b", "0", "--rule", "hh"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("note: endpoints swapped")

    def test_rule_all_without_weight(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--f", "x^2", "--a", "0", "--b", "2", "--json"
        )
        assert code == 0
        rules = [c["rule"] for c in json.loads(out)]
        assert rules == [
            "hermite-hadamard",
            "midpoint-gap",
            "trapezoid-gap",
            "chord-gap",
            "symmetric-pair-gap",
            "bisection-mean",
            "bisection-quarter",
        ]

    def test_rule_all_with_weight_and_window(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--f", "exp(x)", "--a", "0", "--b", "1",
            "--g", "x*(1 - x)", "--p", "1", "--q", "1", "--y", "0.25", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        rules = [c["rule"] for c in payload]
        assert rules == [
            "hermite-hadamard",
            "fejer",
            "weighted-trapezoid-gap",
            "weighted-midpoint-gap",
            "midpoint-gap",
            "trapezoid-gap",
            "chord-gap",
            "symmetric-pair-gap",
            "bisection-mean",
            "bisection-quarter",
            "vasic-lackovic",
        ]
        assert all(c["contained"] for c in payload)

    OFF_CENTRE = ("bounds", "--f", "exp(x)", "--a", "0", "--b", "1", "--p", "2", "--q", "1",
                  "--y", "0.3")

    def test_off_centre_window_weight_drops_only_the_window_rule(self, capsys):
        # x(1 - x) is symmetric about 1/2, not about the barycentre 1/3
        code, out, err = run_cli(capsys, *self.OFF_CENTRE, "--g", "x*(1 - x)")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == ("note: vasic-lackovic skipped: weight 'x*(1.0 - x)' "
                            "is not symmetric about 0.3333333333333333")
        assert [line.split(":")[0] for line in lines[1:]] == [
            "hermite-hadamard", "fejer", "weighted-trapezoid-gap", "weighted-midpoint-gap",
            "midpoint-gap", "trapezoid-gap", "chord-gap", "symmetric-pair-gap",
            "bisection-mean", "bisection-quarter",
        ]

    def test_off_centre_window_weight_fails_the_window_rule_alone(self, capsys):
        code, out, err = run_cli(capsys, *self.OFF_CENTRE, "--g", "x*(1 - x)",
                                 "--rule", "vasic-lackovic")
        assert code == 1
        assert out == ""
        assert err.startswith("error: weight 'x*(1.0 - x)' is not symmetric about 0.333")

    def test_weight_symmetric_about_both_centres_keeps_every_rule(self, capsys):
        code, out, _ = run_cli(capsys, *self.OFF_CENTRE, "--g", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 11
        assert payload[-1]["rule"] == "vasic-lackovic"

    def test_explicit_lambda_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--f", "x^2", "--a", "0", "--b", "1",
            "--rule", "chord-gap", "--lambda", "0.25", "--json",
        )
        assert code == 0
        cert = json.loads(out)[0]
        assert cert["inputs"]["lambda"] == "0.25"
        # scale 0.25*0.75/2 = 3/32, curvature exactly 2
        assert cert["enclosure"]["lower"] == pytest.approx(3.0 / 16.0, rel=1e-14)

    def test_wrong_user_band_is_a_violation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--f", "exp(x)", "--a", "0", "--b", "1",
            "--rule", "midpoint-gap", "--m", "0", "--M", "0.001",
        )
        assert code == 2
        assert "VIOLATION" in out

    def test_user_band_provenance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--f", "exp(x)", "--a", "0", "--b", "1",
            "--rule", "midpoint-gap", "--m", "1", "--M", "2.7182818284590455", "--json",
        )
        assert code == 0
        assert json.loads(out)[0]["curvature_provenance"] == "user-supplied"

    @pytest.mark.parametrize(
        "rule", ["midpoint-gap", "trapezoid-gap", "bisection-mean", "bisection-quarter"]
    )
    def test_degenerate_interval_gap_exits_1(self, capsys, rule):
        code, out, err = run_cli(
            capsys, "bounds", "--f", "x^2", "--a", "1", "--b", "1", "--rule", rule
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {rule} needs a non-degenerate interval\n"

    @pytest.mark.parametrize("rule", ["chord-gap", "midpoint-gap"])
    def test_overflowing_width_exits_1(self, capsys, rule):
        code, out, err = run_cli(
            capsys, "bounds", "--f", "x^2", "--a=-1e308", "--b=1e308", "--rule", rule
        )
        assert code == 1
        assert out == ""
        assert err == "error: width overflows: [-1e+308, 1e+308]\n"

    def test_require_exact_refuses_heuristic_band(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bounds", "--f", "exp(x) - log(x)", "--a", "1", "--b", "2",
            "--rule", "midpoint-gap", "--require-exact",
        )
        assert code == 1
        assert err.startswith("error:")
        assert "sampled-heuristic" in err

    def test_m_without_big_m_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--f", "x^2", "--a", "0", "--b", "1", "--m", "2"
        )
        assert code == 1
        assert "--m and --M" in err

    def test_unknown_rule_lists_known_ones(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--f", "x^2", "--a", "0", "--b", "1", "--rule", "nope"
        )
        assert code == 1
        assert "unknown rule" in err
        assert "hermite-hadamard" in err

    def test_window_rule_needs_all_three_flags(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bounds", "--f", "x^2", "--a", "0", "--b", "1", "--rule", "vasic-lackovic",
        )
        assert code == 1
        assert "--p" in err

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--f", "x^", "--a", "0", "--b", "1")
        assert code == 1
        assert err.startswith("error:")

    # the f'' of -1/exp(800 x) is inf/inf = NaN at every point of [0.9, 1]
    @pytest.mark.parametrize(
        "f, a", [("0 - x^2", "0"), ("-1/exp(800*x)", "0.9")], ids=["parabola", "nan-curvature"]
    )
    def test_concave_function_exits_1(self, capsys, f, a):
        code, _, err = run_cli(
            capsys, "bounds", f"--f={f}", "--a", a, "--b", "1", "--rule", "hh"
        )
        assert code == 1
        assert "error:" in err

    def test_json_is_deterministic(self, capsys):
        args = ("bounds", "--f", "exp(x)", "--a", "0", "--b", "1", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def assert_matches_golden(actual, expected, path="$"):
    """Same structure and key order; floats to 1e-12 relative, the rest exact."""
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            assert_matches_golden(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (got, value) in enumerate(zip(actual, expected)):
            assert_matches_golden(got, value, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        assert math.isclose(actual, expected, rel_tol=1e-12), path
    else:
        assert actual == expected, path


@pytest.mark.parametrize("case", GOLDEN, ids=GOLDEN_IDS)
def test_bounds_json_golden(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert_matches_golden(json.loads(out), case["certificates"])


class TestYoung:
    def test_both_forms_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "young", "--a", "1", "--b", "4", "--lambda", "0.5", "--json"
        )
        assert code == 0
        ratio, diff = json.loads(out)
        assert ratio["rule"] == "young-ratio"
        assert ratio["enclosure"]["lower"] == pytest.approx(math.exp(9.0 / 128.0), rel=1e-14)
        assert ratio["enclosure"]["upper"] == pytest.approx(math.exp(1.125), rel=1e-14)
        assert ratio["oracle_value"] == pytest.approx(1.25, rel=1e-15)
        assert diff["rule"] == "young-difference"
        assert diff["oracle_value"] == pytest.approx(0.5, rel=1e-15)
        assert ratio["contained"] and diff["contained"]

    def test_single_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "young", "--a", "1", "--b", "4", "--lambda", "0.5", "--form", "ratio"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("young-ratio:")

    def test_corner_lambda_collapses(self, capsys):
        code, out, _ = run_cli(
            capsys, "young", "--a", "2", "--b", "7", "--lambda", "0", "--json"
        )
        assert code == 0
        ratio, diff = json.loads(out)
        assert ratio["enclosure"] == {"lower": 1.0, "upper": 1.0}
        assert ratio["oracle_value"] == 1.0
        assert diff["enclosure"] == {"lower": 0.0, "upper": 0.0}

    def test_equal_operands(self, capsys):
        code, out, _ = run_cli(
            capsys, "young", "--a", "3", "--b", "3", "--lambda", "0.3", "--json"
        )
        assert code == 0
        assert all(c["contained"] for c in json.loads(out))

    def test_invalid_lambda_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "young", "--a", "1", "--b", "4", "--lambda", "1.5")
        assert code == 1
        assert "error:" in err


class TestMeans:
    def test_table_with_power_means(self, capsys):
        code, out, _ = run_cli(capsys, "means", "--a", "1", "--b", "7", "--p", "2")
        assert code == 0
        assert "power(p=2)" in out
        assert " 5" in out  # quadratic power mean of (1, 7) is exactly 5
        assert out.rstrip().endswith("ok")

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "means", "--a", "1", "--b", "7", "--p", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ordering_ok"] is True
        assert payload["means"]["power(p=2)"] == pytest.approx(5.0, rel=1e-14)
        assert payload["means"]["arithmetic"] == 4.0
        assert set(payload) == {"a", "b", "p", "means", "ordering_ok"}

    def test_equal_operands(self, capsys):
        code, out, _ = run_cli(capsys, "means", "--a", "3", "--b", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(v == pytest.approx(3.0, rel=1e-14) for v in payload["means"].values())

    @pytest.mark.parametrize(
        "a, b, p, line",
        [
            ("1", "1.0000000000000002", "-0.5", "integral-power(p=-0.5)  1"),  # b^0.5 - a^0.5 rounds to 0
            ("1e6", "1000000.0000000009", "1", "integral-power(p=1)  1000000"),  # b^2 - a^2 keeps no digit
        ],
        ids=["negative-exponent", "large-operands"],
    )
    def test_close_operands_integral_power_mean(self, capsys, a, b, p, line):
        code, out, _ = run_cli(capsys, "means", "--a", a, "--b", b, "--p", p)
        assert code == 0
        assert line + "\n" in out

    def test_far_operands_integral_power_mean(self, capsys):
        # b^(p+1) = 1e400 overflows; the mean itself is finite
        code, out, err = run_cli(capsys, "means", "--a", "1e-100", "--b", "1e100", "--p", "3")
        assert code == 0
        assert err == ""
        assert "integral-power(p=3)  6.29960524947e+99\n" in out

    @pytest.mark.parametrize(
        "a, b, p",
        [("1e-200", "1e-200", "2"), ("1e200", "3e200", "2"), ("1e-300", "1e300", "-3")],
        ids=["powers-underflow", "powers-overflow", "negative-power-overflows"],
    )
    def test_power_mean_of_extreme_operands(self, capsys, a, b, p):
        code, out, err = run_cli(capsys, "means", "--a", a, "--b", b, "--p", p, "--json")
        assert code == 0
        assert err == ""
        value = json.loads(out)["means"][f"power(p={p})"]
        assert min(float(a), float(b)) <= value <= max(float(a), float(b))

    def test_operands_at_the_ends_of_the_float_range(self, capsys):
        # (b - a)/a overflows; the logarithmic and identric means used to read 0.0 and inf
        code, out, err = run_cli(capsys, "means", "--a", "1e-300", "--b", "1e300", "--p", "-3", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["ordering_ok"] is True
        assert all(1e-300 <= v <= 1e300 for v in payload["means"].values())

    @pytest.mark.parametrize("bad", ["harmonic", "identric", "arithmetic"])
    def test_a_mean_that_is_not_finite_fails_the_ordering(self, capsys, monkeypatch, bad):
        from convexcert import means as mn

        original = mn.mean

        def infinite(kind, a, b, p=None):
            value = original(kind, a, b, p)
            return mn.MeanValue(kind, math.inf, p) if kind.value == bad else value

        monkeypatch.setattr(mn, "mean", infinite)
        code, out, _ = run_cli(capsys, "means", "--a", "1", "--b", "7", "--json")
        assert code == 2
        assert json.loads(out)["ordering_ok"] is False

    def test_nonpositive_operand_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "means", "--a", "0", "--b", "1")
        assert code == 1
        assert "error:" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 2
        assert payload["failed"] == 0
        assert payload["passed"] + payload["inconclusive"] == 90

    def test_zero_trials_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0", "--seed", "1")
        assert code == 1
        assert "trials must be >= 1" in err


def run_module(*argv, module="convexcert.cli"):
    """Run ``python -m <module>`` on this checkout's ``src``,
    whether or not the package is installed."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--f", "x^2", "--a", "0", "--b", "1", "--rule", "hh", "--tol", "nan"],
        ["verify", "--trials", "1", "--seed", "1", "--tol", "nan"],
        ["bounds", "--f", "x^2", "--a", "0", "--b", "1", "--rule", "chord-gap",
         "--lambda", "0.5", "--tol", "nan"],
        ["young", "--a", "1", "--b", "4", "--lambda", "0.3", "--tol", "nan"],
    ],
    ids=["bounds", "verify", "bounds-no-oracle", "young"],
)
def test_nan_tolerance_exits_1(argv):
    # a NaN tolerance must be refused up front: every acceptance test
    # against it is false, so the oracle would split to the depth cap,
    # and every containment test is false, so values inside read as VIOLATIONs
    proc = run_module(*argv)
    assert proc.returncode == 1
    assert proc.stderr == "error: tolerance must be > 0, got nan\n"


def test_infinite_tolerance_exits_1():
    # an infinite slack would call any enclosure "contained"
    proc = run_module("bounds", "--f", "x^2", "--a", "0", "--b", "1", "--m", "100",
                      "--M", "200", "--rule", "midpoint-gap", "--tol", "inf")
    assert proc.returncode == 1
    assert proc.stderr == "error: tolerance must be finite, got inf\n"


def test_steep_exponential_converges():
    # max|f| * width ~ 7e6: no panel reaches the absolute tolerance, the
    # rounding floor of the oracle has to accept them
    proc = run_module("bounds", "--f", "1.7*exp(12.3*x)", "--a=-0.3", "--b=1.3",
                      "--rule", "hh", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["oracle_converged"] is True


def test_overflowing_integrand_returns():
    # exp(1000 x) overflows to inf on part of [0, 1]; the oracle used to
    # split those panels to the depth cap and never return
    proc = run_module("bounds", "--f", "exp(1000*x)", "--a", "0", "--b", "1",
                      "--rule", "hh", "--json")
    assert proc.returncode in (0, 2)
    cert = json.loads(proc.stdout)[0]
    assert cert["oracle_converged"] is False


# the mirror's f'' is NaN at its first grid point, a, where the original's is finite
@pytest.mark.parametrize(
    "f, a, b",
    [("1/exp(800*x) + x^2", "0", "1"), ("1/exp(-800*x) + x^2", "-1", "0")],
    ids=["original", "mirror"],
)
def test_overflow_absorbed_by_a_later_node(f, a, b):
    # exp(800) overflows, but 1/exp(800*x) is 0 there, not inf
    proc = run_module("bounds", "--f", f, f"--a={a}", "--b", b, "--rule", "hh")
    assert proc.returncode == 0
    assert proc.stdout == "hermite-hadamard: enclosure=(0.25, 1) oracle=0.334583333333 -> contained\n"


def test_integral_beyond_the_float_range_has_no_traceback():
    # every panel of 5e307 + x^2 on [0, 16] is finite, their sum is not
    proc = run_module("bounds", "--f", "5e307 + x^2", "--a", "0", "--b", "16", "--rule", "hh")
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    assert "oracle=inf (oracle unconverged)" in proc.stdout


@pytest.mark.parametrize("module", ["convexcert", "convexcert.cli"])
def test_module_entry_point_smoke(module):
    proc = run_module("bounds", "--f", "x^2", "--a", "0", "--b", "1", "--rule", "hh", "--json", module=module)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["contained"] is True
