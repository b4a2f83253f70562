"""Shared machinery for the benchmark suite.

Every benchmark regenerates one figure or table of the paper (through the
runners in :mod:`repro.harness.experiments`), records the produced rows under
``benchmarks/results/`` so the series can be inspected next to the paper, and
reports the runner's execution time through pytest-benchmark.  Columns a
runner marks as measured host time (``measured_columns``) are left out of the
recorded files, so re-running the suite leaves them byte-identical.

The default sizes are laptop-friendly (|V| = 2^18 - 2^20).  Set the
``REPRO_BENCH_SCALE`` environment variable to a power-of-two multiplier to run
closer to the paper's scales, e.g. ``REPRO_BENCH_SCALE=16`` multiplies every
measured input size by 16.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.harness.reporting import format_table, rows_to_csv

RESULTS_DIR = Path(__file__).parent / "results"

#: Global input-size multiplier (power of two recommended).
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(n: int) -> int:
    """Apply the global size multiplier to a default input size."""
    return int(n) * SCALE


@pytest.fixture
def record_rows() -> Callable[..., List[Dict]]:
    """Run an experiment under pytest-benchmark and persist its rows.

    Usage inside a benchmark test::

        rows = record_rows(benchmark, "fig18", experiments.fig18_speedup_synthetic,
                           n=scaled(1 << 18))
    """

    def _run(
        benchmark,
        name: str,
        fn: Callable[..., List[Dict]],
        columns: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> List[Dict]:
        rows = benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)
        # Measured host-time columns change on every run; the tracked files
        # keep only the reproducible ones (the test still sees full rows).
        measured = set(getattr(fn, "measured_columns", ()))
        if rows and measured:
            columns = [c for c in (columns or rows[0]) if c not in measured]
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        table = format_table(rows, columns=columns, title=name)
        (RESULTS_DIR / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
        (RESULTS_DIR / f"{name}.csv").write_text(rows_to_csv(rows, columns), encoding="utf-8")
        return rows

    return _run
