"""Smoke test of the benchmark at tiny size, so the script cannot rot.

    python3 -m pytest perfbench/test_smoke.py

Checks that BENCHMARK.json matches what run.py reports, that every workload's
last stdout line is a result object with every named metric and its unit,
and that the benchmark refuses to run without the program's source.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def check_result(line, units):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])


def test_benchmark_json_matches_run_py():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert 1 <= bench["run_seconds"] <= 60
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in bench["end_to_end"]) == setup[0]["bound"]
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_result(workload):
    out = invoke("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", "0", "--tiny")
    assert out.returncode == 0, out.stderr
    check_result(out.stdout.strip().splitlines()[-1], run.END_TO_END_UNITS)


def test_traced_results_for_all_workloads():
    out = invoke("--workload", "all", "--seed", "3", "--seconds", "0.2",
                 "--trace", "1", "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    combined = json.loads(lines[-1])
    assert combined["correct"] is True and combined["failed"] == 0
    results = [line for line in lines[:-1] if line.startswith('{"correct"')]
    assert len(results) == len(run.WORKLOADS)
    for line in results:
        check_result(line, run.PER_LAYER_UNITS)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = invoke("--workload", "verify", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
