"""Smoke test: the smallest rung of every workload runs in seconds, emits
every metric BENCHMARK.json names, and gives the known wrong verdicts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the CLI's find-shelling accepts the non-pure triangle-plus-edge complex
# (exit 0 where 2 is right); the benchmark keeps that item and counts it
KNOWN_WRONG = {"search": 0, "proof": 0, "cli": 1, "lattice": 0}


def smallest_rung(workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def shown(stdout: str, name: str) -> float:
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == name:
            return float(parts[1])
    raise AssertionError(f"{name} not printed")


@pytest.mark.parametrize(
    "workload,trace", [(w, 0) for w in KNOWN_WRONG] + [("search", 1)]
)
def test_smallest_rung_emits_every_metric(workload, trace):
    proc = smallest_rung(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert shown(proc.stdout, "wrong_verdicts") == KNOWN_WRONG[workload]
    assert shown(proc.stdout, "fail_ratio") == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__")
    )
    proc = smallest_rung("search", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
