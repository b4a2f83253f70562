"""Compare two sets of benchmark result files, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` result files ``run.py`` writes (untraced
runs are compared; traced ones are skipped).  For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles over its runs and a verdict:

* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the metric's bound, unless every new run beats every base run;
* ``worse`` / ``better`` -- the new median moved by more than the bound;
* ``within`` -- the medians differ by at most the bound.

Exits 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values`` over the untraced result files."""
    out: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record["provenance"]["traced"]:
            continue
        for name, value in record["end_to_end"].items():
            out[record["provenance"]["workload"]][name].append(float(value))
    return out


def summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and first/third quartiles, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base: List[float], new: List[float], bound: float, lower_is_better: bool) -> str:
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    sign = 1.0 if lower_is_better else -1.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (n_q3 - n_q1) / n_med if n_med else 0.0)
    if spread > bound:
        return "better" if all_better else "unresolved"
    change = sign * (n_med - b_med) / b_med if b_med else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of perfbench results.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    print(f"{'workload':<12} {'metric':<22} {'base median [q1, q3] (n)':>36} "
          f"{'new median [q1, q3] (n)':>36} {'change':>8} {'bound':>6}  verdict")
    worse = False
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload][name], new[workload][name]
            if not b or not n:
                print(f"{workload:<12} {name:<22} missing on one side")
                continue
            lower = metric["better"] == "lower"
            result = verdict(b, n, metric["bound"], lower)
            worse = worse or result == "worse"
            cells = []
            for values in (b, n):
                med, q1, q3 = summary(values)
                cells.append(f"{med:.4f} [{q1:.4f}, {q3:.4f}] ({len(values)})")
            b_med, n_med = summary(b)[0], summary(n)[0]
            change = (n_med - b_med) / b_med if b_med else 0.0
            print(f"{workload:<12} {name:<22} {cells[0]:>36} {cells[1]:>36} "
                  f"{change:>+8.2%} {metric['bound']:>6.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
