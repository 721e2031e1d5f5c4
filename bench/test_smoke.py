"""Fast smoke check of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_smoke.py -q

It is outside the repository's pytest testpaths, so the tier-1 suite does
not run it.  Each workload runs once untraced and once traced; the result
line must name every metric of BENCHMARK.json with its unit, and every
output check must have run without a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHECKS = {"evaluate", "paradox", "simulate", "lottery_closed_form", "reduce_compound", "repeat_identical"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload: str, trace: str) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
               "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[len("checks "):])
    required = CHECKS | ({"list", "lottery"} if workload == "catalog_cli" and trace == "0" else set())
    assert required <= {kind for kind, n in checks.items() if n > 0}
    assert any(line.startswith("error_rate") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
