"""Command line / programmatic entry point for the experiment harness.

Usage::

    python -m repro.harness.runner fig18
    python -m repro.harness.runner table2 --csv out.csv

or programmatically::

    from repro.harness import run_experiment
    rows = run_experiment("fig20")
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.harness import experiments
from repro.harness.reporting import format_table, rows_to_csv

__all__ = ["available_experiments", "run_experiment", "main"]

_EXPERIMENTS: Dict[str, Tuple[Callable[..., List[dict]], str]] = {
    "fig04": (experiments.fig04_baseline_instability, "baseline instability across UD/ND/CD"),
    "fig06": (experiments.fig06_max_delegate_breakdown, "max-delegate breakdown vs k"),
    "fig07": (experiments.fig07_filtering_breakdown, "filtering breakdown vs k"),
    "fig09": (experiments.fig09_beta_sweep, "beta sweep"),
    "fig10": (experiments.fig10_beta_breakdown, "beta-delegate breakdown vs k"),
    "fig12": (experiments.fig12_inplace_radix_speedup, "flag vs GGKS in-place radix"),
    "fig13": (experiments.fig13_alpha_convexity, "runtime vs alpha (convexity)"),
    "fig14": (experiments.fig14_alpha_autotune, "oracle vs auto-tuned alpha"),
    "fig15": (experiments.fig15_construction_optimized_breakdown, "optimised construction breakdown"),
    "fig17": (experiments.fig17_time_vs_input_size, "time vs |V|"),
    "fig18": (experiments.fig18_speedup_synthetic, "speedup on synthetic datasets"),
    "fig19": (experiments.fig19_speedup_realworld, "speedup on real-world surrogates"),
    "fig20": (experiments.fig20_workload_vs_size, "workload vs |V|"),
    "fig21": (experiments.fig21_workload_vs_k, "workload vs k"),
    "fig22": (experiments.fig22_filter_vs_beta, "filtering vs beta ablation"),
    "fig23": (experiments.fig23_device_comparison, "V100S vs Titan Xp"),
    "fig24": (experiments.fig24_bmw_ratio, "BMW vs Dr. Top-k workload ratio"),
    "table2": (experiments.table2_multigpu_scalability, "multi-GPU scalability"),
    "table3": (experiments.table3_memory_transactions, "global memory transactions"),
    "service": (experiments.service_throughput, "batched vs naive serving traffic"),
    "async": (experiments.async_service, "sequential vs overlapped dispatch wall-clock"),
    "hotpath": (experiments.hotpath_reuse, "cold vs plan-bank-warm serving cost per route"),
    "multivector": (
        experiments.multivector_serving,
        "named-vector admit/query/evict lifecycle over a working set",
    ),
    "hotfuse": (
        experiments.hotfuse,
        "fused vs per-query group selection, cold and warm",
    ),
    "spillwarm": (
        experiments.spillwarm,
        "out-of-core serving over the spill tier and zero-rescan warm restart",
    ),
    "tenantfair": (
        experiments.tenantfair,
        "multi-tenant quota enforcement and noisy-neighbour isolation",
    ),
}


def available_experiments() -> Dict[str, str]:
    """Mapping of experiment id -> one-line description."""
    return {name: desc for name, (_, desc) in sorted(_EXPERIMENTS.items())}


def run_experiment(name: str, **kwargs) -> List[dict]:
    """Run one experiment by id and return its rows."""
    try:
        fn, _ = _EXPERIMENTS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(_EXPERIMENTS))}"
        ) from None
    return fn(**kwargs)


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Dr. Top-k reproduction experiments")
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (fig04..fig24, table2, table3); omit to list all",
    )
    parser.add_argument("--csv", help="write the rows to this CSV file", default=None)
    args = parser.parse_args(argv)

    if not args.experiment:
        for name, desc in available_experiments().items():
            print(f"{name:8s} {desc}")
        return 0

    rows = run_experiment(args.experiment)
    print(format_table(rows, title=args.experiment))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
