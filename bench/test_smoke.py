"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced. Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

import gzip
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_unit_and_count(workload):
    lines, result = result_of(bench(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for name, unit in [*want.items(), ("failed_share", "ratio")]:
        printed = [line for line in lines if line.split()[:1] == [name]]
        assert len(printed) == 1, name
        # name, value, unit, then how many samples it rests on
        assert re.match(rf"\s+{name}\s+[-\d.e+]+\s+{re.escape(unit)}\s.*\bn=\d+", printed[0])
    share = next(line for line in lines if line.split()[:1] == ["failed_share"])
    assert f"{result['failed']} of n={result['attempted']} items" in share


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_counts(workload):
    runs = [result_of(bench(workload, 1))[1]["metrics"] for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in runs[0].items()} == want
    for name, unit in want.items():
        if unit == "count":
            assert runs[0][name]["value"] == runs[1][name]["value"], name
    with gzip.open(ROOT / "bench" / "out" / f"spans-{workload}.jsonl.gz", "rt") as fh:
        span = json.loads(fh.readline())
    assert set(span) == {"id", "parent", "name", "start", "end", "item"}


def test_refuses_to_run_without_the_package():
    """In a directory holding only BENCHMARK.json and the benchmark."""
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
