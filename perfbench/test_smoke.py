"""Smoke test of the benchmark: each workload once at its smallest size, with
tracing off and on, must pass its golden checks and emit every metric that
BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
