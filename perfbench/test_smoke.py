"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
Each workload runs untraced and traced for two seconds; the test checks that
every metric ``BENCHMARK.json`` names is emitted, that nothing failed, that
the compare command reads the result files, and that a checkout without the
program's sources makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory: pytest.TempPathFactory) -> Path:
    out = tmp_path_factory.mktemp("results")
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload["name"], trace, out)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] >= 1
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            for metric in wanted:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            if trace:
                assert "bypass check FAIL" not in proc.stdout
            else:
                assert "failed_share=0.000000" in proc.stdout
    return out


def test_every_metric_emitted_without_failures(results: Path) -> None:
    files = list(results.glob("*.json"))
    assert len(files) == 2 * len(SPEC["workloads"])
    for path in files:
        record = json.loads(path.read_text())
        assert record["failed_share"] == 0
        for key in ("seed", "nproc", "python", "numpy", "git_commit", "traced"):
            assert key in record["provenance"]


def test_compare_reads_result_sets(results: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"), str(results), str(results)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in SPEC["workloads"]:
        assert workload["name"] in proc.stdout
    assert "worse" not in proc.stdout


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "warm-named", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
