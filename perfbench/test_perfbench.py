"""Reduced-scale self-test of the benchmark.

    python3 -m pytest perfbench -q

Runs every workload tiny (``--smoke``), traced and untraced, and checks
that each run passes its checks and reports every metric that
``BENCHMARK.json`` declares, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_tables_match_the_runner():
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER
    from run import END_TO_END, WORKLOADS

    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_runs_checks_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    table = DECLARED["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in table}
    record = json.loads(lines[-2].removeprefix("RECORD "))
    assert set(record["host"]) == {"cpus", "python", "numpy", "platform"}
    assert record["seed"] == 3 and record["engine"].startswith("fleet:")
    assert set(record["samples"]) == set(result["metrics"])
    if trace and workload == "auth-open":
        # The named layers account for the median authentication.
        median = record["details"]["median_request"]
        assert median["self_ms"].get("unattributed", 0.0) <= (
            0.1 * median["request_ms"]
        )


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
