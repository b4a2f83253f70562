"""Smoke tests for the example scripts.

Each example is executed in-process (import + ``main``) with small arguments
so the documented entry points cannot rot.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, script: str, argv):
    """Execute an example script as ``__main__`` with the given argv."""
    monkeypatch.setattr(sys, "argv", [script] + [str(a) for a in argv])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    assert excinfo.value.code in (0, None)
    return capsys.readouterr().out


def test_examples_directory_contents():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert "quickstart.py" in scripts
    assert len(scripts) >= 3


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart.py", [14, 64])
    assert "verified against a full sort" in out
    assert "workload" in out


def test_knn_search(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "knn_search.py", [3000, 10])
    assert "nearest neighbours" in out
    assert "verified" in out


def test_degree_centrality(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "degree_centrality.py", [2000, 5])
    assert "top 5 pages by degree" in out


def test_tweet_ranking(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "tweet_ranking.py", [50_000, 10])
    assert "least fearful" in out


def test_multi_gpu_scaling(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "multi_gpu_scaling.py", [15, 32])
    assert "measured runs on real data" in out
    assert "analytic model at the paper's scales" in out


def test_bmw_document_retrieval(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "bmw_document_retrieval.py", [3000, 5])
    assert "top 5 documents" in out
    assert "ratio" in out


def test_batch_service(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "batch_service.py", [15, 8])
    assert "constructions              : 1 (loop pays 8)" in out
    assert "traffic saved" in out
    assert "matches the one-shot answer" in out
