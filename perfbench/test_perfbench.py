"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

mpmath = pytest.importorskip("mpmath")
from reference import mp_function  # noqa: E402


def _first(name: str, seed: int, blocks: int) -> list:
    return list(islice(workloads.BLOCKS[name](seed), blocks))


def _bounds_requests() -> list[workloads.Request]:
    cli = [req for block in _first("bounds-cli", 5, 4) for req in block]
    steep = [req for block in _first("bounds-steep", 5, 2) for req in block]
    return cli + steep


@pytest.mark.parametrize("name", sorted(workloads.BLOCKS))
def test_generators_are_deterministic_per_seed(name):
    assert _first(name, 7, 3) == _first(name, 7, 3)
    assert _first(name, 7, 3) != _first(name, 8, 3)


def test_cli_blocks_cover_every_family_and_kind():
    for block in _first("bounds-cli", 3, 2):
        assert len(block) == len(workloads.CLI_FAMILIES) * len(workloads.CLI_KINDS)
        assert {req.family for req in block} == set(workloads.CLI_FAMILIES)


def test_windows_are_admissible():
    windows = [req for req in _bounds_requests() if req.window is not None]
    assert windows
    for req in windows:
        p, q, y = req.window
        assert 0.0 < y <= (req.b - req.a) * min(p, q) / (p + q)


def test_functions_are_convex_and_weights_symmetric():
    with mpmath.mp.workdps(30):
        for req in _bounds_requests():
            f = mp_function(req.f)
            for k in range(21):
                x = mpmath.mpf(req.a) + (req.b - req.a) * mpmath.mpf(k) / 20
                # numerical second differences of a flat tail carry noise
                assert mpmath.diff(f, x, 2) >= -1e-20 * (1 + abs(f(x))), (req.f, x)
            if req.g is not None:
                g = mp_function(req.g)
                for k in range(11):
                    x = mpmath.mpf(req.a) + (req.b - req.a) * mpmath.mpf(k) / 10
                    gx = g(x)
                    assert gx > 0
                    assert abs(gx - g(req.a + req.b - x)) <= 1e-12 * gx


@pytest.mark.parametrize("name", sorted(workloads.BLOCKS))
def test_layer_counts_repeat_exactly(name, monkeypatch):
    monkeypatch.setitem(run.TRACED_BLOCKS, name, 1)
    runs = [run.per_layer(run.RUNNERS[name](), name, 11)[0] for _ in range(2)]
    counted = [k for k, v in runs[0].items() if v["unit"] in ("count", "share") and k != "quadrature.integrate.busy_share"]
    assert counted
    assert {k: runs[0][k] for k in counted} == {k: runs[1][k] for k in counted}


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bounds-cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
