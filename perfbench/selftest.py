#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload at its smoke size, untraced and traced, through
perfbench/run.py with every output check on, and asserts that each run
exits 0 with a well-formed result: correct, no failed operation, and
exactly the metric names BENCHMARK.json lists for that mode.  Then checks
that the benchmark refuses to run, with a non-zero exit and no result
line, from a directory holding only BENCHMARK.json and perfbench/.
Takes about a minute after the first build.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = {"cpu_model", "logical_cpus", "affinity_cpus", "pool_threads",
             "compiler", "simd_compiled", "simd_supported", "simd_active",
             "build_type", "commit"}


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, f"{where}: expected a record and a result line"
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed], where
    for m in listed:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, where
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
    assert set(record["host"]) == HOST_KEYS, where
    assert record["failed_ops_frac"] == 0, where
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans",
                             f"{workload}-smoke-seed11.jsonl")
        with open(spans) as fh:
            names = {json.loads(line)["name"] for line in fh}
        assert any(n.startswith("core.") for n in names), f"{where}: spans"
    else:
        for m in listed:
            if m["unit"] in ("s", "ms"):
                assert result["metrics"][m["name"]]["value"] > 0, \
                    f"{where}: {m['name']} is not positive"
    print(f"ok   {where}: {result['attempted']} operations checked")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "solve-paper", 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the agtram sources"
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert '"correct"' not in last[0], "printed a result without sources"
    print("ok   refuses to run from BENCHMARK.json and perfbench/ alone")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
