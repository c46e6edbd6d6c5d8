"""Smoke test: every workload at minimal length, both trace modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import traffic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the command accepts, including any BENCHMARK.json omits.
WORKLOADS = sorted(run.WORKLOADS)


def _run(workload: str, trace: int, seconds: float = 1.5) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    assert any(line.startswith("check: ok") for line in lines), completed.stdout
    assert any("stream digest" in line for line in lines)
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_present_and_finite(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] >= 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_digest_is_a_function_of_the_seed(workload: str) -> None:
    def digest(seed: int) -> str:
        load = run.WORKLOADS[workload](seed, 1.0)
        return traffic.stream_digest(workload, seed, load.requests)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
