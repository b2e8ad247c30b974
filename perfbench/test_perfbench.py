"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

A short-window smoke run of every workload, untraced and traced, must
print exactly the metric names and units ``BENCHMARK.json`` declares;
a repeated seed must reproduce ``sim.cycles``, ``lower.kernel_passes``
and every golden digest exactly (every reply is checked against those
digests, so the replies repeat too); and a directory holding only the
benchmark must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

_runs = {}


def run_bench(workload, seed, trace, cwd=ROOT, seconds=1.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def parsed(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_record"], json.loads(lines[-1])


def cached(workload, trace):
    key = (workload, trace)
    if key not in _runs:
        _runs[key] = parsed(run_bench(workload, SEED, trace))
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "trace,section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_smoke_run_emits_declared_metrics(workload, trace, section):
    record, result = cached(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    assert record["seed"] == SEED
    assert record["requests"]["wrong_digest"] == 0
    assert record["leftover_processes"] == 0


@pytest.mark.parametrize("workload", ["iterate_chain", "cold_validated"])
def test_same_seed_repeats_counts_and_digests(workload):
    first_record, first = cached(workload, 1)
    again_record, again = parsed(run_bench(workload, SEED, 1))
    for name in ("sim.cycles", "lower.kernel_passes"):
        assert first["metrics"][name]["value"] == \
            again["metrics"][name]["value"], name
    assert first_record["golden"] == {
        **again_record["golden"],
        "seconds": first_record["golden"]["seconds"],
    }


def test_golden_tables_follow_the_seed():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads as wl

        for name, defn in wl.DEFINITIONS.items():
            digest = wl.plan_run(defn, 1, 1.0).table.digest()
            assert digest == wl.plan_run(defn, 1, 1.0).table.digest(), name
            assert digest != wl.plan_run(defn, 2, 1.0).table.digest(), name
    finally:
        del sys.path[:2]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench("warm_single", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(
        line.lstrip().startswith("{") for line in proc.stdout.splitlines()
    )
