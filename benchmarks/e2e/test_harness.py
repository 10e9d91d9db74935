"""Tests of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SIX = ["op_norm_ms", "cpu_norm_ms", "setup_s", "peak_rss_mb", "vm_rmse_pu",
       "va_rmse_rad"]


def smoke(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT,
          script: Path = HERE / "run.py"):
    # the harness finds ``src`` itself; an inherited PYTHONPATH must not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


# -- yardstick ---------------------------------------------------------
def test_yardstick_checksum_is_constant():
    yard = yardstick.Yardstick()
    assert round(yard(), 6) == yardstick.Y_CHECKSUM
    assert yard() == yardstick.Yardstick()()


def test_yardstick_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "yardstick.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert {m.split(".")[0] for m in modules} <= {
        "__future__", "gc", "statistics", "time", "numpy", "scipy"}


def _synthetic_loop(n=201, seed=0):
    rng = np.random.default_rng(seed)
    ops = 0.130 * (1 + 0.05 * rng.standard_normal(n))
    yards = 0.025 * (1 + 0.05 * rng.standard_normal(n + 1))
    return ops, yards


def test_paired_ratio_cancels_a_drift_that_hits_both():
    ops, yards = _synthetic_loop()
    base = yardstick.normalised_ms(ops, yards)
    # host speed ramps 1.0 -> 1.35 across the run; yardstick i runs at
    # time i, op i between yardsticks i and i+1
    t_yard = np.arange(len(yards))
    slow_yard = 1.0 + 0.35 * t_yard / t_yard[-1]
    slow_op = 0.5 * (slow_yard[:-1] + slow_yard[1:])
    drifted = yardstick.normalised_ms(ops * slow_op, yards * slow_yard)
    # exact for a constant factor; a 35 % ramp leaks less than 0.01 %
    assert yardstick.normalised_ms(ops * 1.35, yards * 1.35) == pytest.approx(base)
    assert drifted == pytest.approx(base, rel=1e-4)
    # the raw median does move
    assert np.median(ops * slow_op) > 1.1 * np.median(ops)


def test_paired_ratio_moves_when_only_the_op_slows():
    ops, yards = _synthetic_loop()
    base = yardstick.normalised_ms(ops, yards)
    assert yardstick.normalised_ms(ops * 1.2, yards) == pytest.approx(1.2 * base)


def test_paired_ratio_needs_a_yardstick_on_both_sides():
    with pytest.raises(ValueError):
        yardstick.paired_ratios([1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("n, expected_p", [
    (1000, 99.0),    # capped
    (200, 95.0),     # ten samples beyond p95
    (30, 66.0),
    (20, 50.0),
    (12, 100.0),     # too few for any percentile: the maximum
    (5, 100.0),
])
def test_tail_percentile_rule(n, expected_p):
    xs = list(range(1, n + 1))
    p, value = yardstick.tail_percentile(xs)
    assert p == expected_p
    if p < 100:
        assert sum(x > value for x in xs) >= 10
    else:
        assert value == n


# -- BENCHMARK.json ------------------------------------------------------
def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_limits():
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for k in ("end_to_end", "per_layer")
               for m in SPEC[k])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert [m["name"] for m in SPEC["end_to_end"]] == SIX
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == layers.PER_LAYER
    assert set(layers.STAGERS) == set(workloads.WORKLOADS)


# -- real runs -----------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_results():
    out = {}
    for name in workloads.WORKLOADS:
        proc = smoke(name, seed=1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_every_workload_reports_all_six_metrics(smoke_results):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, res in smoke_results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0
        assert res["attempted"] >= 1
        assert list(res["metrics"]) == SIX, name
        for metric, rec in res["metrics"].items():
            assert rec["unit"] == units[metric]
            assert rec["value"] > 0 and np.isfinite(rec["value"])


def test_another_seed_changes_inputs_but_not_validity(smoke_results):
    proc = smoke("ieee118_session", seed=2)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    other = json.loads(proc.stdout.strip().splitlines()[-1])
    assert other["correct"] is True and other["failed"] == 0
    first = smoke_results["ieee118_session"]["metrics"]
    assert other["metrics"]["vm_rmse_pu"]["value"] != first["vm_rmse_pu"]["value"]


def test_same_seed_gives_the_same_inputs():
    a = workloads.WORKLOADS["ieee118_live_tcp"](7)
    b = workloads.WORKLOADS["ieee118_live_tcp"](7)
    c = workloads.WORKLOADS["ieee118_live_tcp"](8)
    draws = [w.rng.standard_normal(4) for w in (a, b, c)]
    assert np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[0], draws[2])


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    proc = smoke("ieee118_session", seed=1, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res["metrics"]) == set(layers.PER_LAYER)
    assert res["metrics"]["bench.trace_coverage"]["value"] >= 0.90
    # a layer this workload bypasses reads 0; one it loads does not
    assert res["metrics"]["middleware.fabric_rtt_us"]["value"] == 0
    assert res["metrics"]["dse.construct_ms"]["value"] > 0
    spans = [json.loads(ln) for ln in
             (HERE / "out" / "trace_ieee118_session.jsonl").read_text().splitlines()]
    assert "header" in spans[0]
    assert {"name", "start", "end", "parent", "op"} <= set(spans[1])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke("ieee118_session", seed=1, cwd=tmp_path,
                 script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
