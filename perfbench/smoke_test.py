"""Smoke test for the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Runs every workload untraced and traced with --tiny, and checks that the last
stdout line holds exactly the four result keys, that the run is correct, and
that every metric BENCHMARK.json names for that mode is emitted with its
unit. Also checks that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in declared}, \
        set(emitted) ^ {m["name"] for m in declared}
    for m in declared:
        value = emitted[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], (int, float)), (m["name"], value)
        if not trace:
            assert value["value"] > 0, (m["name"], value)


def test_every_workload_emits_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)


def test_refuses_without_program():
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_refuses_without_program()
    test_every_workload_emits_every_metric()
    print("smoke test passed")
    sys.exit(0)
