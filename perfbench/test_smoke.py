"""Smoke test of the benchmark itself, on tiny inputs (seconds, not minutes).

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from fisheyestereo import camera, solver, synth  # noqa: E402

SPEC = run.load_spec()
# Metrics the report prints besides the end_to_end list of BENCHMARK.json.
# They are not defined on every workload, or are 0 on a passing run.
REPORT_ONLY = {"fail_frac": "fraction", "op_s_tail": "s", "tau1_pct": "%", "tau3_pct": "%"}


def tiny_rig(size: int) -> camera.StereoRig:
    rig = synth.default_rig()
    return camera.StereoRig(rig.cam0.scaled_to((size, size)),
                            rig.cam1.scaled_to((size, size)), rig.pose)


def tiny_solve() -> workloads.SolveWorkload:
    return workloads.SolveWorkload(
        "tiny-solve", tiny_rig(40),
        solver.SolverParams(warp_iters=2, pd_iters=2, pyramid_levels=2, min_width=10),
        100.0)


def tiny_render() -> workloads.RenderWorkload:
    rig = tiny_rig(24)
    covisible = int(synth.make_ground_truth(synth.default_scene(), rig).covisibility.sum())
    return workloads.RenderWorkload("tiny-render", rig, covisible)


def run_tiny(workload, trace: bool, out_dir: Path, seconds: float = 0.0) -> dict:
    return run.run_workload(workload, seed=1, seconds=seconds, trace=trace,
                            out_dir=out_dir, t0=time.perf_counter(), env={}, spec=SPEC)


def printed_units(report: str) -> dict[str, str]:
    """Metric name -> unit from report lines of the form 'name value unit ...'."""
    units = {}
    for line in report.splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        try:
            float(parts[1])
        except ValueError:
            continue
        units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("make", [tiny_solve, tiny_render])
def test_every_metric_printed_with_unit(make, trace, tmp_path, capsys):
    solve = make is tiny_solve
    # A second of tiny solves holds the 20 ops that op_s_tail needs.
    result = run_tiny(make(), trace, tmp_path, seconds=1.0 if solve else 0.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        s["name"]: {"value": result["metrics"][s["name"]]["value"], "unit": s["unit"]}
        for s in specs}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())

    expected = {s["name"]: s["unit"] for s in SPEC["end_to_end"]}
    expected["fail_frac"] = REPORT_ONLY["fail_frac"]
    if trace:
        expected.update({s["name"]: s["unit"] for s in SPEC["per_layer"]})
    elif solve:
        expected.update(REPORT_ONLY)
    units = printed_units(capsys.readouterr().out)
    assert {k: units.get(k) for k in expected} == expected


@pytest.mark.parametrize("fault", ["nan", "raise"])
def test_broken_output_counts_as_failure(fault, tmp_path, capsys):
    workload = tiny_solve()
    op = workload.op

    def broken():
        if fault == "raise":
            raise FloatingPointError("injected")
        out = op()
        out[0].u[out[0].mask] = np.nan
        return out

    workload.op = broken
    result = run_tiny(workload, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED op" in capsys.readouterr().out


def test_layer_map_covers_every_layer_metric():
    layers = json.loads((HERE / "layer_map.json").read_text())["layers"]
    names = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["per_layer"]:
        assert any(fnmatch.fnmatchcase(spec["name"], glob)
                   for layer in layers for glob in layer["metrics"]), spec["name"]
    for layer in layers:
        assert set(layer["on"]) | set(layer["unchanged_on"]) <= names
        assert set(layer["moves"]) <= e2e
    for name in names:
        workloads.make(name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-400", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
