"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no command fails, that the computed counts repeat at a fixed seed, that
a corrupted output row is counted as a failure, and that the benchmark refuses
to run without the package's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes", "count/item")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_printed_and_nothing_fails(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0", "--tiny")
    result = result_line(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = proc.stdout.splitlines()
    assert any(line.split()[:3] == ["failed_frac", "0", "frac"] for line in table)
    assert any(line.split()[0] == "items_per_s" for line in table if line.strip())


def test_traced_run_reports_every_layer_and_its_counts_repeat():
    runs = [
        result_line(bench("--workload", "strata-scan", "--seed", "5", "--seconds", "1",
                          "--trace", "1", "--tiny"))
        for _ in range(2)
    ]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
        for r in runs
    ]
    assert counts[0] == counts[1]
    record = json.loads((ROOT / ".bench_work" / "BENCH_strata-scan_seed5_trace1.json").read_text())
    for summary in record["children"].values():
        assert summary["count_notes"] == []  # every call count is the expected one
    assert counts[0]["strata-scan.states.eigensolves_per_item"] == 1
    assert counts[0]["direction-scan.states.eigensolves_per_item"] == 2
    assert counts[0]["bloch-convert.states.eigensolves_per_item"] == 0


def corrupt(workload: str, text: str) -> str:
    """The first command's output with one data row made wrong."""
    if workload == "strata-scan":
        return text.replace(",true\n", ",false\n", 1)  # satisfied=false
    if workload == "direction-scan":
        return text.replace(",-", ",", 1)  # mu_min positive
    payload = json.loads(text)
    payload["coords"][0] += 0.5  # breaks |V|^2 = Tr(rho^2) - 1/N
    return json.dumps(payload)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_corrupted_row_counts_as_a_failure(workload, tmp_path, monkeypatch):
    from blochstrata import cli

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(tmp_path)
    w = WORKLOADS[workload](tiny=True)
    ops = w.round_ops(7, 1)
    tally = child.Tally()
    child.run_round(cli, ops, tally, w.reference)
    assert tally.failed == 0 and tally.attempted == len(ops)

    text = Path(ops[0].out).read_text()
    bad = corrupt(workload, text)
    assert bad != text
    tally.record(ops[0], 0, bad)
    assert tally.failed_frac > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "strata-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert not (tmp_path / ".bench_work").exists() or not os.listdir(tmp_path / ".bench_work")
