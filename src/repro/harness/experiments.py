"""Experiment runners — one per figure/table of the paper's evaluation.

Every runner returns a list of dictionaries (rows) whose columns mirror the
quantities the paper plots or tabulates.  The defaults use laptop-scale inputs
(|V| around 2^18 - 2^20) for everything that executes real data, and the
paper's own scales (2^30 and up) wherever only the analytic cost model is
evaluated; callers (the benchmark suite, EXPERIMENTS.md generation) can pass
larger sizes explicitly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms.base import ExecutionTrace
from repro.analysis.alpha_tuning import optimal_alpha, oracle_alpha
from repro.analysis.speedup import estimated_time_ms, speedup_series
from repro.bmw.bmw import bmw_vector_workload
from repro.core.config import ConstructionStrategy, DrTopKConfig
from repro.core.drtopk import DrTopK
from repro.core.workload import expected_workload
from repro.datasets.registry import get_dataset
from repro.distributed.multigpu import MultiGpuDrTopK, estimate_scalability_row
from repro.errors import ConfigurationError
from repro.gpusim.device import DeviceSpec, V100S, get_device

__all__ = [
    "fig04_baseline_instability",
    "fig06_max_delegate_breakdown",
    "fig07_filtering_breakdown",
    "fig09_beta_sweep",
    "fig10_beta_breakdown",
    "fig12_inplace_radix_speedup",
    "fig13_alpha_convexity",
    "fig14_alpha_autotune",
    "fig15_construction_optimized_breakdown",
    "fig17_time_vs_input_size",
    "fig18_speedup_synthetic",
    "fig19_speedup_realworld",
    "fig20_workload_vs_size",
    "fig21_workload_vs_k",
    "fig22_filter_vs_beta",
    "fig23_device_comparison",
    "fig24_bmw_ratio",
    "table2_multigpu_scalability",
    "table3_memory_transactions",
    "service_throughput",
    "async_service",
    "hotpath_reuse",
    "multivector_serving",
    "hotfuse",
    "spillwarm",
]

#: Default measured input size (kept modest so the full harness runs quickly).
DEFAULT_N = 1 << 18
#: Default seed for every experiment (the paper averages five runs; we fix one).
DEFAULT_SEED = 2021

#: The paper's stand-alone comparators are the GGKS implementations, whose
#: radix variant re-scans and rewrites the full vector every pass; inside
#: Dr. Top-k the radix passes use the flag-optimised in-place variant
#: (Section 5.1).  These maps translate the paper's algorithm family names to
#: the concrete implementations used on each side of a comparison.
BASELINE_IMPL = {
    "radix": "radix_inplace",
    "bucket": "bucket",
    "bitonic": "bitonic",
    "sortchoose": "sortchoose",
}
ASSISTED_IMPL = {
    "radix": "radix_flag",
    "bucket": "bucket",
    "bitonic": "bitonic",
    "sortchoose": "sortchoose",
}

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_Experiment = TypeVar("_Experiment", bound=Callable[..., List[Dict]])


def measured(*columns: str) -> Callable[[_Experiment], _Experiment]:
    """Name an experiment's measured host-time columns.

    Wall-clocks differ on every run; the rest of a row (modelled bytes and
    milliseconds, counters) is deterministic.  The names land on the runner as ``measured_columns``
    so a recorder can persist only the reproducible columns.
    """

    def mark(fn: _Experiment) -> _Experiment:
        fn.measured_columns = columns  # type: ignore[attr-defined]
        return fn

    return mark


def _dataset_vector(name: str, n: int, seed: int) -> np.ndarray:
    return get_dataset(name).generate(n, seed=seed)


def _drtopk_config(**overrides) -> DrTopKConfig:
    return DrTopKConfig().replace(**overrides) if overrides else DrTopKConfig()


def _breakdown_rows(
    v: np.ndarray, ks: Sequence[int], config: DrTopKConfig, label: str
) -> List[Dict]:
    """Per-k step-time breakdown rows shared by Figures 6, 7, 10 and 15."""
    rows: List[Dict] = []
    for k in ks:
        engine = DrTopK(config)
        result = engine.topk(v, int(k))
        stats = result.stats
        assert stats is not None
        row: Dict = {
            "variant": label,
            "k": int(k),
            "alpha": stats.alpha,
            "delegate_ms": stats.step_times_ms.get("delegate_construction", 0.0),
            "first_topk_ms": stats.step_times_ms.get("first_topk", 0.0),
            "concat_ms": stats.step_times_ms.get("concatenation", 0.0),
            "second_topk_ms": stats.step_times_ms.get("second_topk", 0.0),
            "total_ms": stats.total_time_ms,
            "workload_fraction": stats.workload_fraction,
        }
        rows.append(row)
    return rows


def _default_ks(n: int, count: int = 6) -> List[int]:
    """Geometrically spaced k values up to n / 16."""
    hi = max(int(np.log2(max(n // 16, 2))), 1)
    exps = np.unique(np.linspace(0, hi, count).round().astype(int))
    return [1 << int(e) for e in exps]


# ---------------------------------------------------------------------------
# Figure 4 — performance (in)stability of the baselines across distributions
# ---------------------------------------------------------------------------


def fig04_baseline_instability(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    datasets: Sequence[str] = ("UD", "ND", "CD"),
    algorithms: Sequence[str] = ("radix", "bucket", "bitonic"),
    device: DeviceSpec = V100S,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Estimated time of each baseline on each distribution, for a k sweep."""
    ks = list(ks) if ks is not None else _default_ks(n)
    rows: List[Dict] = []
    for name in datasets:
        v = _dataset_vector(name, n, seed)
        for algo in algorithms:
            impl = BASELINE_IMPL.get(algo, algo)
            for k in ks:
                ms = estimated_time_ms(v, int(k), impl, device=device)
                rows.append(
                    {"dataset": name, "algorithm": algo, "k": int(k), "time_ms": ms}
                )
    return rows


# ---------------------------------------------------------------------------
# Figures 6, 7, 10, 15 — Dr. Top-k time breakdown as the design is refined
# ---------------------------------------------------------------------------


def fig06_max_delegate_breakdown(
    n: int = DEFAULT_N, ks: Optional[Sequence[int]] = None, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """Maximum delegate only (Rule 1), no filtering, warp-centric construction."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    cfg = _drtopk_config(
        beta=1, use_filtering=False, construction=ConstructionStrategy.WARP_CENTRIC
    )
    return _breakdown_rows(v, ks, cfg, label="max_delegate")


def fig07_filtering_breakdown(
    n: int = DEFAULT_N, ks: Optional[Sequence[int]] = None, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """Maximum delegate plus delegate-top-k-enabled filtering (Rule 2)."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    cfg = _drtopk_config(
        beta=1, use_filtering=True, construction=ConstructionStrategy.WARP_CENTRIC
    )
    return _breakdown_rows(v, ks, cfg, label="filtering")


def fig10_beta_breakdown(
    n: int = DEFAULT_N, ks: Optional[Sequence[int]] = None, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """β delegate + filtering, before the construction optimisation (Section 5.3)."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    cfg = _drtopk_config(
        beta=2, use_filtering=True, construction=ConstructionStrategy.WARP_CENTRIC
    )
    return _breakdown_rows(v, ks, cfg, label="beta_warp_centric")


def fig15_construction_optimized_breakdown(
    n: int = DEFAULT_N, ks: Optional[Sequence[int]] = None, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """The final design: β delegate + filtering + coalesced/strided construction."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    cfg = _drtopk_config(
        beta=2, use_filtering=True, construction=ConstructionStrategy.AUTO
    )
    return _breakdown_rows(v, ks, cfg, label="beta_optimized")


# ---------------------------------------------------------------------------
# Figure 9 — β sweep
# ---------------------------------------------------------------------------


def fig09_beta_sweep(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    betas: Sequence[int] = (1, 2, 3, 4),
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Performance of each β normalised to β = 1 (larger is better)."""
    ks = list(ks) if ks is not None else _default_ks(n, count=4)
    v = _dataset_vector("UD", n, seed)
    rows: List[Dict] = []
    for k in ks:
        baseline_ms = None
        for beta in betas:
            cfg = _drtopk_config(beta=int(beta))
            result = DrTopK(cfg).topk(v, int(k))
            assert result.stats is not None
            total = result.stats.total_time_ms
            if beta == betas[0]:
                baseline_ms = total
            rows.append(
                {
                    "k": int(k),
                    "beta": int(beta),
                    "total_ms": total,
                    "normalised_to_beta1": (baseline_ms / total) if total > 0 else float("inf"),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — flag-optimised in-place radix vs GGKS in-place radix
# ---------------------------------------------------------------------------


def fig12_inplace_radix_speedup(
    n: int = 1 << 18,
    ks: Optional[Sequence[int]] = None,
    device: DeviceSpec = V100S,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Estimated-time speedup of the flag-based in-place radix over GGKS in-place."""
    ks = list(ks) if ks is not None else _default_ks(n, count=8)
    v = _dataset_vector("UD", n, seed)
    rows: List[Dict] = []
    for k in ks:
        ggks_ms = estimated_time_ms(v, int(k), "radix_inplace", device=device)
        flag_ms = estimated_time_ms(v, int(k), "radix_flag", device=device)
        rows.append(
            {
                "k": int(k),
                "ggks_inplace_ms": ggks_ms,
                "flag_inplace_ms": flag_ms,
                "speedup": ggks_ms / flag_ms if flag_ms > 0 else float("inf"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 13 & 14 — α tuning
# ---------------------------------------------------------------------------


def fig13_alpha_convexity(
    n: int = DEFAULT_N,
    k: int = 1 << 10,
    alphas: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Measured step breakdown for every α (the measured analogue of Figure 13)."""
    v = _dataset_vector("UD", n, seed)
    if alphas is None:
        # Stay inside the non-degenerate regime: the delegate vector (beta=2
        # delegates per subrange) must remain larger than k for the delegate
        # machinery to be meaningful, i.e. 2 * n / 2^alpha > k.
        hi = max(int(np.log2(n)) - int(np.log2(max(k, 1))) + 1, 3)
        alphas = list(range(1, min(hi, int(np.log2(n)) - 1)))
    rows: List[Dict] = []
    for a in alphas:
        # Figure 13 predates the Section 5.3 construction optimisation, so the
        # sweep uses the warp-centric kernel throughout; the AUTO strategy
        # would otherwise switch kernels mid-sweep and mask the convex shape.
        cfg = _drtopk_config(alpha=int(a), construction=ConstructionStrategy.WARP_CENTRIC)
        result = DrTopK(cfg).topk(v, int(k))
        stats = result.stats
        assert stats is not None
        rows.append(
            {
                "alpha": int(a),
                "delegate_ms": stats.step_times_ms.get("delegate_construction", 0.0),
                "first_topk_ms": stats.step_times_ms.get("first_topk", 0.0),
                "concat_ms": stats.step_times_ms.get("concatenation", 0.0),
                "second_topk_ms": stats.step_times_ms.get("second_topk", 0.0),
                "total_ms": stats.total_time_ms,
            }
        )
    return rows


def fig14_alpha_autotune(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Auto-tuned (Rule 4) α versus the oracle α found by exhaustive search."""
    v = _dataset_vector("UD", n, seed)
    ks = list(ks) if ks is not None else _default_ks(n)
    rows: List[Dict] = []
    hi = int(np.log2(n))
    for k in ks:
        def measure(alpha: int) -> float:
            result = DrTopK(_drtopk_config(alpha=int(alpha))).topk(v, int(k))
            assert result.stats is not None
            return result.stats.total_time_ms

        tuned = optimal_alpha(n, int(k))
        tuned = int(np.clip(tuned, 1, hi - 1))
        # Keep the oracle search inside the non-degenerate regime (the
        # delegate vector must stay larger than k), as the paper's sweep does.
        max_alpha = int(np.log2(max(n * 2 // max(int(k), 1), 4))) - 1
        candidate_alphas = range(
            max(tuned - 3, 1), max(min(tuned + 4, hi - 1, max_alpha), max(tuned - 3, 1) + 1)
        )
        oracle = oracle_alpha(n, int(k), evaluate=measure, alphas=candidate_alphas)
        rows.append(
            {
                "k": int(k),
                "auto_alpha": tuned,
                "oracle_alpha": int(oracle),
                "auto_ms": measure(tuned),
                "oracle_ms": measure(int(oracle)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 17 — time versus input size, k = 1024
# ---------------------------------------------------------------------------


def fig17_time_vs_input_size(
    sizes: Optional[Sequence[int]] = None,
    k: int = 1024,
    device: DeviceSpec = V100S,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Baselines vs Dr. Top-k-assisted variants as |V| grows."""
    sizes = list(sizes) if sizes is not None else [1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20]
    rows: List[Dict] = []
    baselines = ("radix", "bucket", "bitonic", "sortchoose")
    for n in sizes:
        v = _dataset_vector("UD", int(n), seed)
        for algo in baselines:
            rows.append(
                {
                    "n": int(n),
                    "system": algo,
                    "time_ms": estimated_time_ms(
                        v, k, BASELINE_IMPL.get(algo, algo), device=device
                    ),
                }
            )
        for algo in ("radix", "bucket", "bitonic"):
            impl = ASSISTED_IMPL[algo]
            cfg = _drtopk_config(first_algorithm=impl, second_algorithm=impl)
            result = DrTopK(cfg).topk(v, k)
            assert result.stats is not None
            rows.append(
                {
                    "n": int(n),
                    "system": f"drtopk+{algo}",
                    "time_ms": result.stats.total_time_ms,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 18 & 19 — speedup over the state of the art
# ---------------------------------------------------------------------------


def fig18_speedup_synthetic(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    datasets: Sequence[str] = ("UD", "ND", "CD"),
    algorithms: Sequence[str] = ("radix", "bucket", "bitonic"),
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Speedup of Dr. Top-k-assisted algorithms over the stand-alone algorithms."""
    ks = list(ks) if ks is not None else _default_ks(n)
    rows: List[Dict] = []
    for name in datasets:
        v = _dataset_vector(name, n, seed)
        for algo in algorithms:
            points = speedup_series(
                v,
                ks,
                BASELINE_IMPL.get(algo, algo),
                assisted_algorithm=ASSISTED_IMPL.get(algo, algo),
            )
            for point in points:
                rows.append(
                    {
                        "dataset": name,
                        "algorithm": algo,
                        "k": point.k,
                        "baseline_ms": point.baseline_ms,
                        "drtopk_ms": point.drtopk_ms,
                        "speedup": point.speedup,
                    }
                )
    return rows


def fig19_speedup_realworld(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    datasets: Sequence[str] = ("AN", "CW", "TR"),
    algorithms: Sequence[str] = ("radix", "bucket", "bitonic"),
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Same as Figure 18 but on the real-world workload surrogates."""
    ks = list(ks) if ks is not None else _default_ks(n, count=4)
    rows: List[Dict] = []
    for name in datasets:
        spec = get_dataset(name)
        v = spec.generate(n, seed=seed)
        for algo in algorithms:
            points = speedup_series(
                v,
                ks,
                BASELINE_IMPL.get(algo, algo),
                assisted_algorithm=ASSISTED_IMPL.get(algo, algo),
            )
            for point in points:
                rows.append(
                    {
                        "dataset": name,
                        "algorithm": algo,
                        "k": point.k,
                        "speedup": point.speedup,
                        "largest": spec.largest,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figures 20 & 21 — workload statistics
# ---------------------------------------------------------------------------


def fig20_workload_vs_size(
    sizes: Optional[Sequence[int]] = None,
    k: int = 1 << 12,
    include_paper_scale: bool = True,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """First/second top-k workload (fraction of |V|) as |V| grows, fixed k."""
    sizes = list(sizes) if sizes is not None else [1 << e for e in range(16, 21)]
    rows: List[Dict] = []
    for n in sizes:
        v = _dataset_vector("UD", int(n), seed)
        result = DrTopK(_drtopk_config()).topk(v, min(k, int(n) // 4))
        stats = result.stats
        assert stats is not None
        rows.append(
            {
                "n": int(n),
                "mode": "measured",
                "first_fraction": stats.first_topk_workload / n,
                "second_fraction": stats.second_topk_workload / n,
                "total_fraction": stats.workload_fraction,
            }
        )
    if include_paper_scale:
        for exp in (22, 24, 26, 28, 30):
            n = 1 << exp
            est = expected_workload(n, k)
            rows.append(
                {
                    "n": n,
                    "mode": "model",
                    "first_fraction": est.first_topk_workload / n,
                    "second_fraction": est.second_topk_workload / n,
                    "total_fraction": est.workload_fraction,
                }
            )
    return rows


def fig21_workload_vs_k(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    include_paper_scale: bool = True,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """First/second top-k workload as k grows, fixed |V|."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    rows: List[Dict] = []
    for k in ks:
        result = DrTopK(_drtopk_config()).topk(v, int(k))
        stats = result.stats
        assert stats is not None
        rows.append(
            {
                "k": int(k),
                "mode": "measured",
                "first_fraction": stats.first_topk_workload / n,
                "second_fraction": stats.second_topk_workload / n,
                "total_fraction": stats.workload_fraction,
            }
        )
    if include_paper_scale:
        paper_n = 1 << 30
        for exp in (0, 4, 8, 12, 16, 20, 24):
            k = 1 << exp
            est = expected_workload(paper_n, k)
            rows.append(
                {
                    "k": k,
                    "mode": "model(|V|=2^30)",
                    "first_fraction": est.first_topk_workload / paper_n,
                    "second_fraction": est.second_topk_workload / paper_n,
                    "total_fraction": est.workload_fraction,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 22 — filtering vs β delegate vs both
# ---------------------------------------------------------------------------


def fig22_filter_vs_beta(
    n: int = DEFAULT_N, ks: Optional[Sequence[int]] = None, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """Ablation of the two workload-reduction mechanisms (Section 4.2 vs 4.3)."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    variants = {
        "filtering_only": _drtopk_config(beta=2, use_filtering=True, use_beta_rule=False),
        "beta_only": _drtopk_config(beta=2, use_filtering=False, use_beta_rule=True),
        "combined": _drtopk_config(beta=2, use_filtering=True, use_beta_rule=True),
    }
    rows: List[Dict] = []
    for k in ks:
        for label, cfg in variants.items():
            result = DrTopK(cfg).topk(v, int(k))
            assert result.stats is not None
            rows.append(
                {
                    "k": int(k),
                    "variant": label,
                    "total_ms": result.stats.total_time_ms,
                    "concatenated": result.stats.concatenated_size,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 23 — device comparison
# ---------------------------------------------------------------------------


def fig23_device_comparison(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    devices: Sequence[str] = ("V100S", "TitanXp"),
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Estimated Dr. Top-k time on different simulated GPUs."""
    ks = list(ks) if ks is not None else _default_ks(n)
    v = _dataset_vector("UD", n, seed)
    rows: List[Dict] = []
    for k in ks:
        per_device = {}
        for dev_name in devices:
            device = get_device(dev_name)
            cfg = _drtopk_config(device=device)
            result = DrTopK(cfg).topk(v, int(k))
            assert result.stats is not None
            per_device[dev_name] = result.stats.total_time_ms
            rows.append({"k": int(k), "device": dev_name, "total_ms": per_device[dev_name]})
        first, second = devices[0], devices[1]
        rows.append(
            {
                "k": int(k),
                "device": f"{second}/{first} ratio",
                "total_ms": per_device[second] / per_device[first]
                if per_device[first] > 0
                else float("inf"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 24 — BMW vs Dr. Top-k workload ratio
# ---------------------------------------------------------------------------


def fig24_bmw_ratio(
    n: int = DEFAULT_N,
    ks: Optional[Sequence[int]] = None,
    datasets: Sequence[str] = ("ND", "UD"),
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Ratio of BMW's fully-evaluated workload to Dr. Top-k's total workload."""
    ks = list(ks) if ks is not None else _default_ks(n, count=5)
    rows: List[Dict] = []
    for name in datasets:
        v = _dataset_vector(name, n, seed)
        for k in ks:
            engine = DrTopK(_drtopk_config())
            result = engine.topk(v, int(k))
            stats = result.stats
            assert stats is not None
            dr_workload = max(stats.total_workload, 1)
            block_size = stats.subrange_size if stats.subrange_size > 0 else 1 << optimal_alpha(n, int(k))
            bmw = bmw_vector_workload(v, int(k), block_size=block_size)
            rows.append(
                {
                    "dataset": name,
                    "k": int(k),
                    "bmw_workload": bmw.fully_evaluated,
                    "drtopk_workload": dr_workload,
                    "ratio": bmw.fully_evaluated / dr_workload,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — multi-GPU scalability
# ---------------------------------------------------------------------------


def table2_multigpu_scalability(
    size_exponents: Sequence[int] = (30, 31, 32, 33),
    k: int = 128,
    gpu_counts: Sequence[int] = (1, 2, 4, 8, 16),
    measured_n: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """The Table 2 grid (analytic at paper scale, optionally measured at small scale).

    When ``measured_n`` is given, an additional set of rows runs the real
    distributed workflow on a vector of that size with a proportionally scaled
    per-GPU capacity, exercising the same reload/communication code paths.
    """
    rows: List[Dict] = []
    for exp in size_exponents:
        n = 1 << int(exp)
        baseline = None
        for g in gpu_counts:
            report = estimate_scalability_row(n, k, int(g))
            if baseline is None:
                baseline = report
            rows.append(
                {
                    "mode": "model",
                    "|V|": f"2^{exp}",
                    "gpus": int(g),
                    "communication_ms": report.communication_ms,
                    "reload_ms": report.reload_ms,
                    "total_ms": report.total_ms,
                    "speedup": report.speedup_over(baseline),
                }
            )
    if measured_n:
        v = get_dataset("UD").generate(int(measured_n), seed=seed)
        capacity = max(int(measured_n) // 4, k)
        baseline = None
        for g in gpu_counts:
            runner = MultiGpuDrTopK(num_gpus=int(g), capacity_elements=capacity)
            runner.topk(v, k)
            report = runner.last_report
            assert report is not None
            if baseline is None:
                baseline = report
            rows.append(
                {
                    "mode": "measured",
                    "|V|": int(measured_n),
                    "gpus": int(g),
                    "communication_ms": report.communication_ms,
                    "reload_ms": report.reload_ms,
                    "total_ms": report.total_ms,
                    "speedup": report.speedup_over(baseline),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — global memory transactions
# ---------------------------------------------------------------------------


def table3_memory_transactions(
    n: int = DEFAULT_N, k: int = 1 << 7, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """Global load/store transactions of stand-alone vs Dr. Top-k-assisted algorithms."""
    v = _dataset_vector("UD", n, seed)
    rows: List[Dict] = []
    for algo in ("radix", "bucket", "bitonic"):
        trace = ExecutionTrace(itemsize=v.dtype.itemsize)
        get_algorithm(BASELINE_IMPL[algo]).topk(v, k, trace=trace)
        counters = trace.total_counters()
        rows.append(
            {
                "system": algo,
                "load_transactions": counters.load_transactions,
                "store_transactions": counters.store_transactions,
            }
        )
        impl = ASSISTED_IMPL[algo]
        cfg = _drtopk_config(first_algorithm=impl, second_algorithm=impl)
        engine = DrTopK(cfg)
        engine.topk(v, k)
        dr_counters = engine.last_trace.total_counters()
        rows.append(
            {
                "system": f"drtopk+{algo}",
                "load_transactions": dr_counters.load_transactions,
                "store_transactions": dr_counters.store_transactions,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Service layer — batched serving traffic vs a naive per-query loop
# ---------------------------------------------------------------------------


def service_throughput(
    n: int = DEFAULT_N,
    batch: int = 16,
    k: int = 1 << 10,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Simulated bytes moved per query: naive per-query loop vs one batch.

    Both modes answer the same ``batch`` identical ``(k, largest)`` queries
    over one shared vector.  The naive loop re-runs the full pipeline per
    query (including delegate construction); the batched mode builds the
    shared plan once.  The ``identical`` column records whether the batched
    results matched the loop element-wise (values *and* indices).
    """
    from repro.service.batch import BatchTopK  # local import to avoid a cycle

    v = _dataset_vector(dataset, n, seed)
    queries = [(int(k), True)] * int(batch)

    # Naive loop: one full pipeline run per query.
    engine = DrTopK()
    loop_results = []
    loop_bytes = 0.0
    loop_construction_bytes = 0.0
    loop_ms = 0.0
    for kk, largest in queries:
        result = engine.topk(v, kk, largest=largest)
        loop_results.append(result)
        assert result.stats is not None
        loop_ms += result.stats.total_time_ms
        counters = engine.last_trace.total_counters()
        loop_bytes += counters.global_bytes
        loop_construction_bytes += sum(
            step.counters.global_bytes
            for step in engine.last_trace.steps
            if step.name == "delegate_construction"
        )

    # Batched: the shared plan is constructed once for the whole batch.
    service = BatchTopK()
    batch_results = service.run(v, queries)
    report = service.last_report
    assert report is not None
    identical = all(
        np.array_equal(a.values, b.values) and np.array_equal(a.indices, b.indices)
        for a, b in zip(loop_results, batch_results)
    )

    return [
        {
            "mode": "naive_loop",
            "queries": len(queries),
            "constructions": len(queries),
            "construction_bytes": loop_construction_bytes,
            "total_bytes": loop_bytes,
            "bytes_per_query": loop_bytes / len(queries),
            "est_ms": loop_ms,
            "identical": True,
        },
        {
            "mode": "batched",
            "queries": len(queries),
            "constructions": report.constructions,
            "construction_bytes": report.construction_bytes,
            "total_bytes": report.total_bytes,
            "bytes_per_query": report.bytes_per_query,
            "est_ms": report.total_ms,
            "identical": identical,
        },
    ]


# ---------------------------------------------------------------------------
# Service layer — sequential vs overlapped dispatch through the executor
# ---------------------------------------------------------------------------


@measured("wall_ms", "unit_wall_ms_sum")
def async_service(
    n: int = DEFAULT_N,
    batch: int = 16,
    k: int = 1 << 10,
    num_workers: int = 4,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Measured wall-clock of sequential vs overlapped dispatch, same batch.

    The batch mixes ``(k, largest)`` shapes so the router places several
    plan-sharing groups on different workers; the same queries then dispatch
    twice — once with the executor in ``sequential`` mode (the baseline: one
    work unit after another on the calling thread) and once in ``threads``
    mode (units overlap on the pool; NumPy releases the GIL).  Each row
    reports the *measured* wall-clock next to the modelled ``compute_ms``:

    * ``unit_wall_ms_sum`` — per-unit wall times summed, i.e. zero-overlap
      cost.  The sequential row's value is the "sum of per-worker sequential
      times" that overlapped dispatch must beat on multi-core hosts.
    * ``wall_ms`` — what the dispatch actually took end to end.
    * ``identical`` — whether the mode's results matched the sequential
      baseline element-wise (values *and* indices); overlap must never
      change answers.
    """
    from repro.service.dispatcher import ServiceDispatcher  # local import to avoid a cycle

    v = _dataset_vector(dataset, n, seed)
    # Four (k, largest) shapes with widely spaced k, so the Rule-4 alphas
    # differ and the router spreads four plan groups over the workers.
    k = max(int(k), 4)
    queries = [(k if i % 2 == 0 else max(k >> 6, 1), i % 4 < 2) for i in range(int(batch))]

    rows: List[Dict] = []
    baseline = None
    for mode in ("sequential", "threads"):
        dispatcher = ServiceDispatcher(
            num_workers=num_workers, execution=mode, result_cache_capacity=0
        )
        results = dispatcher.dispatch(v, queries)
        report = dispatcher.last_report
        assert report is not None
        if baseline is None:
            baseline = results
        identical = all(
            np.array_equal(a.values, b.values) and np.array_equal(a.indices, b.indices)
            for a, b in zip(baseline, results)
        )
        rows.append(
            {
                "mode": mode,
                "queries": len(queries),
                "workers_used": sum(1 for w in report.workers if w.queries),
                "wall_ms": report.wall_ms,
                "unit_wall_ms_sum": report.unit_wall_ms_sum,
                "modelled_compute_ms": report.compute_ms,
                "communication_ms": report.communication_ms,
                "constructions": report.constructions,
                "identical": identical,
            }
        )
        dispatcher.shutdown()
    return rows


# ---------------------------------------------------------------------------
# Service layer — zero-rescan steady state: plan bank and chunk memo
# ---------------------------------------------------------------------------


def _same_alpha_variant(engine, n: int, k: int) -> int:
    """A ``k' != k`` whose Rule-4 ``alpha`` over ``n`` matches ``k``'s.

    The warm replay must present genuinely *changed* queries that still key
    the same banked plan; searching outward from ``k`` keeps the variant as
    close as the alpha landscape allows.
    """
    alpha = engine._resolve_alpha(n, k)
    for delta in range(1, n):
        for candidate in (k + delta, k - delta):
            if 1 <= candidate <= n and candidate != k:
                if engine._resolve_alpha(n, candidate) == alpha:
                    return candidate
    raise ConfigurationError(f"no same-alpha variant of k={k} exists for n={n}")


@measured("wall_ms")
def hotpath_reuse(
    n: int = DEFAULT_N,
    batch: int = 16,
    num_workers: int = 4,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
    warm_rounds: int = 3,
) -> List[Dict]:
    """Cold-vs-warm serving cost on all three routes, same vector each time.

    The *cold* dispatch is the first ever over the vector: every plan-sharing
    group pays ``to_keys`` plus the delegate-construction scan.  The *warm*
    dispatch replays a **changed** 16-query mix — every ``k`` is replaced by
    a different ``k`` that resolves the same Rule-4 ``alpha`` — so the result
    cache cannot serve it (and is disabled anyway, to isolate the bank); only
    the :class:`~repro.service.planbank.PlanBank` (batched/sharded) or the
    :class:`~repro.service.planbank.ChunkMemo` (streaming, an exact chunk
    replay) can remove work.  A warm row records the **minimum** wall-clock
    over ``warm_rounds`` replays (noise can only slow a replay down), and
    ``identical`` certifies the warm answers element-wise against a fresh,
    bank-less dispatcher given the same queries.

    The small ``k`` mix (2 … 16 at the default size) keeps the per-query
    passes sublinear next to the O(n) construction — the regime the paper's
    Section 5.3 optimisation targets — so the bytes the warm path avoids are
    dominated by exactly the construction scan the plan bank eliminates.
    """
    import time

    from repro.service.dispatcher import ServiceDispatcher

    v = _dataset_vector(dataset, n, seed)
    base_ks = [2, 4, 8, 16]
    cold_queries = [(base_ks[i % len(base_ks)], True) for i in range(int(batch))]

    rows: List[Dict] = []

    def run_route(route: str, make_dispatcher, payload, warm_payload, reference):
        dispatcher = make_dispatcher()
        start = time.perf_counter()
        dispatcher.dispatch(payload, cold_queries)
        cold_wall = (time.perf_counter() - start) * 1e3
        cold = dispatcher.last_report
        assert cold is not None and cold.route == route

        warm_wall = float("inf")
        warm = None
        warm_results = None
        for _ in range(int(warm_rounds)):
            start = time.perf_counter()
            warm_results = dispatcher.dispatch(warm_payload[0], warm_payload[1])
            warm_wall = min(warm_wall, (time.perf_counter() - start) * 1e3)
            warm = dispatcher.last_report
        assert warm is not None and warm_results is not None
        identical = all(
            np.array_equal(a.values, b.values) and np.array_equal(a.indices, b.indices)
            for a, b in zip(reference, warm_results)
        )
        dispatcher.shutdown()
        for mode, report, wall in (("cold", cold, cold_wall), ("warm", warm, warm_wall)):
            rows.append(
                {
                    "route": route,
                    "mode": mode,
                    "queries": report.num_queries,
                    "wall_ms": wall,
                    "bytes_moved": report.bytes_moved,
                    "constructions": report.constructions,
                    "construction_bytes": report.construction_bytes,
                    "plan_bank_hits": report.plan_bank_hits,
                    "chunk_memo_hits": report.chunk_memo_hits,
                    "identical": mode == "cold" or identical,
                }
            )

    # The result cache is disabled throughout: warm queries differ anyway on
    # the batched/sharded routes, and the streaming route bypasses it — the
    # rows isolate what the plan bank / chunk memo alone remove.
    def reference_results(payload, queries, **kwargs):
        with ServiceDispatcher(
            num_workers=num_workers, result_cache_capacity=0, **kwargs
        ) as fresh:
            return fresh.dispatch(payload, queries)

    engine = DrTopK()
    warm_queries = [
        (_same_alpha_variant(engine, n, k), largest) for k, largest in cold_queries
    ]
    batched_reference = reference_results(v, warm_queries, plan_bank_bytes=0)
    run_route(
        "batched",
        lambda: ServiceDispatcher(num_workers=num_workers, result_cache_capacity=0),
        v,
        (v, warm_queries),
        batched_reference,
    )

    # Sharded: shrink the per-device capacity so the same vector exceeds it.
    capacity = max(n // num_workers, max(k for k, _ in cold_queries))
    shard_engine = DrTopK()
    shard_warm = [
        (_same_alpha_variant(shard_engine, capacity, k), largest)
        for k, largest in cold_queries
    ]
    sharded_reference = reference_results(
        v, shard_warm, capacity_elements=capacity, plan_bank_bytes=0
    )
    run_route(
        "sharded",
        lambda: ServiceDispatcher(
            num_workers=num_workers,
            capacity_elements=capacity,
            result_cache_capacity=0,
        ),
        v,
        (v, shard_warm),
        sharded_reference,
    )

    # Streaming: an exact replay of the same chunked input; the chunk memo
    # serves every chunk's candidates with zero pipeline work.
    chunk = max(n // (2 * num_workers), 1)
    chunks = [v[i : i + chunk] for i in range(0, n, chunk)]
    streaming_reference = reference_results(
        list(chunks), cold_queries, chunk_memo_bytes=0
    )
    run_route(
        "streaming",
        lambda: ServiceDispatcher(num_workers=num_workers, result_cache_capacity=0),
        list(chunks),
        (list(chunks), cold_queries),
        streaming_reference,
    )
    return rows


# ---------------------------------------------------------------------------
# Service layer — named multi-vector serving: admit / query / evict lifecycle
# ---------------------------------------------------------------------------


def multivector_serving(
    n: int = 1 << 16,
    names: int = 4,
    num_workers: int = 4,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """The named-vector serving lifecycle over a working set of vectors.

    ``names`` distinct vectors are admitted under names (fingerprinted once,
    plans pre-warmed for a small ``k`` mix), then each name serves a *warm*
    round of **changed** queries — every ``k`` replaced by a same-``alpha``
    variant, so only the plan bank (keyed by the admission-pinned
    fingerprint) can remove work — and finally one name is evicted.  Three
    phases, one row each per name:

    * ``admit`` — fingerprint calls spent at admission (one per vector on
      the batched route) and the warm-up's construction traffic: the only
      O(n) work in the lifecycle.
    * ``warm_query`` — the steady state: ``constructions``,
      ``construction_bytes`` and ``fingerprint_calls`` must all be zero,
      every plan group a bank hit, and ``identical`` certifies the answers
      element-wise against a fresh bank-less dispatcher.
    * ``evict`` — ``released_bytes`` is the banked plan bytes the eviction
      cascade freed (observable as the drop in the bank's ``CacheInfo``).

    The result cache is disabled throughout to isolate the plan path (warm
    queries are changed, so it could not serve them anyway).
    """
    from repro.service.cache import fingerprint_call_count
    from repro.service.dispatcher import ServiceDispatcher

    if names < 1:
        raise ConfigurationError("names must be >= 1")
    engine = DrTopK()
    base_ks = [4, 16, 64, 256]
    warm_queries = [(int(k), True) for k in base_ks if k <= n]
    changed = [
        (_same_alpha_variant(engine, n, k), largest) for k, largest in warm_queries
    ]
    vectors = {
        f"vec{i}": _dataset_vector(dataset, n, seed + i) for i in range(int(names))
    }

    rows: List[Dict] = []

    def row(name: str, phase: str, **extra) -> None:
        base = {
            "name": name,
            "phase": phase,
            "queries": 0,
            "constructions": 0,
            "construction_bytes": 0.0,
            "plan_bank_hits": 0,
            "fingerprint_calls": 0,
            "plan_bank_bytes": 0,
            "released_bytes": 0,
            "identical": True,
        }
        base.update(extra)
        rows.append(base)

    # Bank-less reference answers for the warm round (content is identical,
    # so one fresh dispatcher per name keeps the comparison honest).
    references = {}
    for name, v in vectors.items():
        with ServiceDispatcher(
            num_workers=num_workers, result_cache_capacity=0, plan_bank_bytes=0
        ) as fresh:
            references[name] = fresh.dispatch(v.copy(), changed)

    with ServiceDispatcher(num_workers=num_workers, result_cache_capacity=0) as d:
        for name, v in vectors.items():
            before = fingerprint_call_count()
            d.admit(name, v, warm=warm_queries)
            warmup = d.last_report
            assert warmup is not None
            row(
                name,
                "admit",
                queries=len(warm_queries),
                constructions=warmup.constructions,
                construction_bytes=warmup.construction_bytes,
                fingerprint_calls=fingerprint_call_count() - before,
                plan_bank_bytes=warmup.plan_bank.bytes if warmup.plan_bank else 0,
            )

        for name in vectors:
            before = fingerprint_call_count()
            results = d.query(name, changed)
            report = d.last_report
            assert report is not None
            identical = all(
                np.array_equal(a.values, b.values)
                and np.array_equal(a.indices, b.indices)
                for a, b in zip(references[name], results)
            )
            row(
                name,
                "warm_query",
                queries=len(changed),
                constructions=report.constructions,
                construction_bytes=report.construction_bytes,
                plan_bank_hits=report.plan_bank_hits,
                fingerprint_calls=fingerprint_call_count() - before,
                plan_bank_bytes=report.plan_bank.bytes if report.plan_bank else 0,
                identical=identical,
            )

        victim = next(iter(vectors))
        assert d.plan_bank is not None
        bank_before = d.plan_bank.info().bytes
        d.evict(victim)
        bank_after = d.plan_bank.info().bytes
        row(
            victim,
            "evict",
            plan_bank_bytes=bank_after,
            released_bytes=bank_before - bank_after,
        )
    return rows


# ---------------------------------------------------------------------------
# Service layer — fused group execution: one selection pass per plan group
# ---------------------------------------------------------------------------


@measured(
    "wall_ms",
    "stage_first_ms",
    "stage_gather_ms",
    "stage_refine_ms",
    "stage_second_ms",
    "stage_fallback_ms",
)
def hotfuse(
    n: int = 1 << 16,
    batch: int = 16,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
    warm_rounds: int = 3,
) -> List[Dict]:
    """Fused vs per-query selection on one plan-sharing group, cold and warm.

    One batch of ``batch`` queries whose ``k``\\ s all resolve the same
    Rule-4 ``alpha`` — a single ``(alpha, largest)`` group — dispatches
    through two single-worker dispatchers: ``unfused`` runs the pre-fusion
    per-query pipeline (one gather/filter/selection per query) and ``fused``
    routes the group through :func:`~repro.service.fusion.fused_group_topk`
    (one shared pass at ``max(k)``, per-query answers sliced and refined
    from the shared candidate set).  The result cache is disabled so the
    *warm* replay (the same queries, banked plan, minimum wall over
    ``warm_rounds``) actually dispatches instead of being served verbatim.

    The rows carry the fused hot path's own accounting: ``selection_calls``
    (the gate — one per group fused, one per query unfused),
    ``arena_hits``/``arena_misses`` (the scratch-buffer arena's per-dispatch
    deltas; warm fused dispatches must *hit*), the per-stage wall-clocks the
    fusion path measures (``stage_*_ms``, the lightweight profile hook), and
    ``identical`` — every row's answers certified element-wise (values
    *and* indices) against the stand-alone engine.  No wall-clock column is
    gated — walls are host-dependent; the counter columns are deterministic.
    """
    import time

    from repro.service.dispatcher import ServiceDispatcher
    from repro.service.fusion import reset_arenas

    if batch < 2:
        raise ConfigurationError("batch must be >= 2 (a 1-query group cannot fuse)")

    v = _dataset_vector(dataset, n, seed)
    queries = [(100 + i, True) for i in range(int(batch))]
    engine = DrTopK()
    reference = [engine.topk(v, k, largest=largest) for k, largest in queries]

    def certify(results) -> bool:
        return all(
            np.array_equal(a.values, b.values) and np.array_equal(a.indices, b.indices)
            for a, b in zip(reference, results)
        )

    stage_names = ("first_ms", "gather_ms", "refine_ms", "second_ms", "fallback_ms")
    rows: List[Dict] = []

    def row(mode: str, phase: str, report, wall_ms: float, identical: bool, **extra):
        base = {
            "mode": mode,
            "phase": phase,
            "route": report.route,
            "queries": report.num_queries,
            "selection_calls": report.selection_calls,
            "fused_groups": report.fused_groups,
            "fused_queries": report.fused_queries,
            "constructions": report.constructions,
            "construction_bytes": report.construction_bytes,
            "plan_bank_hits": report.plan_bank_hits,
            "arena_hits": report.arena_hits,
            "arena_misses": report.arena_misses,
            "wall_ms": wall_ms,
            "identical": identical,
        }
        for name in stage_names:
            base[f"stage_{name}"] = report.fusion_stage_ms.get(name, 0.0)
        base.update(extra)
        rows.append(base)

    for mode, fused in (("unfused", False), ("fused", True)):
        reset_arenas()
        with ServiceDispatcher(
            num_workers=1, result_cache_capacity=0, fused=fused
        ) as d:
            start = time.perf_counter()
            cold_results = d.dispatch(v, queries)
            cold_wall = (time.perf_counter() - start) * 1e3
            cold = d.last_report
            assert cold is not None and cold.route == "batched"
            row(mode, "cold", cold, cold_wall, certify(cold_results))

            warm_wall = float("inf")
            warm = None
            warm_results = None
            for _ in range(int(warm_rounds)):
                start = time.perf_counter()
                warm_results = d.dispatch(v, queries)
                warm_wall = min(warm_wall, (time.perf_counter() - start) * 1e3)
                warm = d.last_report
            assert warm is not None and warm_results is not None
            row(mode, "warm", warm, warm_wall, certify(warm_results))

    return rows


def spillwarm(
    n: int = 1 << 14,
    names: int = 8,
    num_workers: int = 2,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
    spill_dir: Optional[str] = None,
) -> List[Dict]:
    """Out-of-core serving and warm restart through the durable spill tier.

    A working set of ``names`` vectors — **4x** the store's RAM byte budget —
    is admitted into a spill-backed dispatcher (plans pre-warmed with
    ``warm_mode="prepare"``, one fingerprint call per vector and none after),
    then five phases, one row each per name or per step:

    * ``admit`` — admission cost: ``fingerprint_calls`` must be exactly 1
      per vector; eviction pressure spills cold-and-large victims to disk
      instead of dropping them.
    * ``serve`` — every name answers the full ``k`` mix while only a quarter
      of the set fits in RAM.  ``identical`` certifies values *and* indices
      element-wise against an all-resident reference dispatcher;
      ``within_budget`` certifies the resident bytes never exceeded the
      budget; ``spill_serves`` counts answers served straight off read-only
      mmap views.
    * ``save`` — :meth:`ServiceDispatcher.save_state` persists the resident
      remainder and the plan bank's geometry into the manifest.
    * ``restart`` — a **new** dispatcher over the same directory:
      ``load_state`` re-attaches the manifest and rebuilds plans over the
      spill files' mmaps with **zero** ``fingerprint_array`` calls, then
      every name's first query must show zero constructions and zero
      construction bytes (``plan_bank_hits`` > 0) with identical answers.
    * ``readmit`` — ``admit(name)`` with no vector re-warms one spilled
      name from the manifest alone: zero fingerprint calls, zero
      constructions, identical answers.

    ``spill_dir=None`` uses a fresh temporary directory (removed at exit);
    the result cache is disabled throughout so only the spill tier and the
    plan bank can remove work.
    """
    import tempfile

    from repro.service.cache import fingerprint_call_count
    from repro.service.dispatcher import ServiceDispatcher

    if names < 4:
        raise ConfigurationError("names must be >= 4 (the budget is names/4)")
    ks = [8, 32, 128]
    queries = [(int(k), True) for k in ks if k <= n]
    vectors = {
        f"vec{i}": _dataset_vector(dataset, n, seed + i) for i in range(int(names))
    }
    one = next(iter(vectors.values())).nbytes
    # RAM budget: a quarter of the working set, so serving the full set is
    # necessarily out-of-core.
    budget = one * (int(names) // 4)

    rows: List[Dict] = []

    def row(name: str, phase: str, **extra) -> None:
        base = {
            "name": name,
            "phase": phase,
            "queries": 0,
            "constructions": 0,
            "construction_bytes": 0.0,
            "plan_bank_hits": 0,
            "fingerprint_calls": 0,
            "spill_serves": 0,
            "resident_bytes": 0,
            "spilled_bytes": 0,
            "budget_bytes": budget,
            "working_set_bytes": one * int(names),
            "within_budget": True,
            "identical": True,
        }
        base.update(extra)
        rows.append(base)

    # All-resident reference answers (budget covers the full set, no spill).
    references = {}
    with ServiceDispatcher(
        num_workers=num_workers,
        result_cache_capacity=0,
        store_bytes=one * int(names),
    ) as fresh:
        for name, v in vectors.items():
            fresh.admit(name, v.copy())
            references[name] = fresh.query(name, queries)

    with tempfile.TemporaryDirectory() as tmp:
        path = spill_dir or tmp
        with ServiceDispatcher(
            num_workers=num_workers,
            result_cache_capacity=0,
            store_bytes=budget,
            spill_dir=path,
        ) as d:
            for name, v in vectors.items():
                before = fingerprint_call_count()
                d.admit(name, v, warm=queries, warm_mode="prepare")
                warmup = d.last_report
                assert warmup is not None
                row(
                    name,
                    "admit",
                    queries=len(queries),
                    constructions=warmup.constructions,
                    construction_bytes=warmup.construction_bytes,
                    fingerprint_calls=fingerprint_call_count() - before,
                )

            assert d.store is not None
            for name in vectors:
                before = fingerprint_call_count()
                results = d.query(name, queries)
                report = d.last_report
                assert report is not None
                store_info = report.store
                assert store_info is not None
                row(
                    name,
                    "serve",
                    queries=len(results),
                    constructions=report.constructions,
                    construction_bytes=report.construction_bytes,
                    plan_bank_hits=report.plan_bank_hits,
                    fingerprint_calls=fingerprint_call_count() - before,
                    spill_serves=report.spill_serves,
                    resident_bytes=store_info.bytes,
                    spilled_bytes=store_info.spilled_bytes,
                    within_budget=store_info.bytes <= budget,
                    identical=all(
                        np.array_equal(a.values, b.values)
                        and np.array_equal(a.indices, b.indices)
                        for a, b in zip(references[name], results)
                    ),
                )

            save = d.save_state()
            row(
                "*",
                "save",
                queries=save.names_saved,
                plan_bank_hits=save.plan_rows,
                spilled_bytes=save.spilled_bytes,
            )

        # A brand-new process's dispatcher over the same directory: the warm
        # restart must re-hash and re-scan nothing.
        with ServiceDispatcher(
            num_workers=num_workers,
            result_cache_capacity=0,
            store_bytes=budget,
            spill_dir=path,
        ) as d2:
            before = fingerprint_call_count()
            restore = d2.load_state()
            row(
                "*",
                "load",
                queries=restore.names,
                plan_bank_hits=restore.plans_warmed,
                fingerprint_calls=fingerprint_call_count() - before,
                spilled_bytes=restore.spilled_bytes,
            )
            for name in vectors:
                before = fingerprint_call_count()
                results = d2.query(name, queries)
                report = d2.last_report
                assert report is not None
                row(
                    name,
                    "restart",
                    queries=len(results),
                    constructions=report.constructions,
                    construction_bytes=report.construction_bytes,
                    plan_bank_hits=report.plan_bank_hits,
                    fingerprint_calls=fingerprint_call_count() - before,
                    spill_serves=report.spill_serves,
                    identical=all(
                        np.array_equal(a.values, b.values)
                        and np.array_equal(a.indices, b.indices)
                        for a, b in zip(references[name], results)
                    ),
                )

            assert d2.store is not None
            target = next(
                name for name in vectors if name not in d2.store.names()
            )
            before = fingerprint_call_count()
            d2.admit(target)
            results = d2.query(target, queries)
            report = d2.last_report
            assert report is not None
            row(
                target,
                "readmit",
                queries=len(results),
                constructions=report.constructions,
                construction_bytes=report.construction_bytes,
                plan_bank_hits=report.plan_bank_hits,
                fingerprint_calls=fingerprint_call_count() - before,
                identical=all(
                    np.array_equal(a.values, b.values)
                    and np.array_equal(a.indices, b.indices)
                    for a, b in zip(references[target], results)
                ),
            )
    return rows


# ---------------------------------------------------------------------------
# Service layer — multi-tenant serving: isolation, quotas and the default tenant
# ---------------------------------------------------------------------------


def tenantfair(
    n: int = 1 << 13,
    num_workers: int = 2,
    dataset: str = "UD",
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Noisy-neighbour isolation and quota enforcement for two tenants.

    Two tenants share one dispatcher: ``hot`` (its own byte budget) and
    ``quiet`` (its own byte budget, one **pinned** vector).  Three invariant
    probes, one row per (probe, tenant):

    * ``pressure`` — a burst of hot admissions overflows hot's byte
      budget.  Gated: every eviction victim is hot's own
      (``cross_tenant_evictions == 0``) and quiet's pinned vector is still
      resident.
    * ``quota`` — a separate registry with an injected fake clock proves
      the QPS token bucket deterministically: burst-deep queries pass,
      the next is rejected with zero half-admitted state, and advancing
      the fake clock refills exactly ``rate x elapsed`` tokens.
    * ``differential`` — a single-tenant replay (cold + warm, batched and
      streaming routes) against an unconfigured dispatcher must be
      element-wise ``identical`` (values *and* indices): the default
      tenant pays zero behaviour change for the tenancy machinery.

    Every column is a count or a flag, deterministic per seed.
    """
    from repro.errors import TenantQuotaError
    from repro.service.dispatcher import ServiceDispatcher
    from repro.service.tenancy import TenantPolicy, TenantRegistry

    quiet_vec = _dataset_vector(dataset, n, seed + 99)
    one = quiet_vec.nbytes
    registry = TenantRegistry(
        policies=[
            TenantPolicy(tenant="hot", byte_budget=3 * one),
            TenantPolicy(tenant="quiet", byte_budget=2 * one, max_pins=1),
        ]
    )
    rows: List[Dict] = []

    def row(phase: str, tenant: str, **extra) -> None:
        base = {
            "phase": phase,
            "tenant": tenant,
            "requests": 0,
            "ok": 0,
            "quota": 0,
            "bytes_held": 0,
            "cross_tenant_evictions": 0,
            "pinned_resident": True,
            "identical": True,
        }
        base.update(extra)
        rows.append(base)

    with ServiceDispatcher(
        num_workers=num_workers,
        capacity_elements=n,
        result_cache_capacity=0,
        store_bytes=8 * one,
        tenants=registry,
    ) as d:
        assert d.store is not None
        d.admit("quiet-pin", quiet_vec, tenant="quiet", pin=True)
        # pressure: eight hot admissions overflow hot's three-vector budget;
        # every victim must be hot's own and the quiet pin must survive.
        for i in range(8):
            d.admit(f"hot-{i}", _dataset_vector(dataset, n, seed + i), tenant="hot")
        ledger = d.store.tenant_bytes()
        for tenant in ("hot", "quiet"):
            row(
                "pressure",
                tenant,
                bytes_held=ledger.get(tenant, 0),
                cross_tenant_evictions=d.store.cross_tenant_evictions(),
                pinned_resident="quiet-pin" in d.store.names(),
            )

    # quota: deterministic token-bucket proof on an injected fake clock.
    clock_now = [0.0]
    quota_registry = TenantRegistry(
        policies=[TenantPolicy(tenant="hot", qps=2.0, burst=2)],
        clock=lambda: clock_now[0],
    )
    with ServiceDispatcher(
        num_workers=1,
        capacity_elements=n,
        result_cache_capacity=0,
        store_bytes=4 * one,
        tenants=quota_registry,
    ) as q:
        q.admit("hq", quiet_vec.copy(), tenant="hot")
        outcomes = []
        for _ in range(4):  # burst of 2 passes, the next two reject
            try:
                q.query("hq", [8], tenant="hot")
                outcomes.append("ok")
            except TenantQuotaError:
                outcomes.append("quota")
        clock_now[0] = 1.0  # refill rate x 1s = 2 tokens
        refilled = 0
        for _ in range(2):
            try:
                q.query("hq", [8], tenant="hot")
                refilled += 1
            except TenantQuotaError:
                pass
        row(
            "quota",
            "hot",
            requests=len(outcomes) + 2,
            ok=outcomes.count("ok") + refilled,
            quota=outcomes.count("quota"),
            identical=(outcomes == ["ok", "ok", "quota", "quota"] and refilled == 2),
        )

    # differential: the default tenant must be bit-for-bit the pre-tenancy
    # dispatcher — values AND indices, cold and warm, batched and streaming.
    v = _dataset_vector(dataset, n, seed + 7)
    chunks = [v[i::4].copy() for i in range(4)]
    queries = [(8, True), (32, False)]
    identical = True
    with ServiceDispatcher(
        num_workers=num_workers, capacity_elements=n, store_bytes=4 * one
    ) as plain, ServiceDispatcher(
        num_workers=num_workers,
        capacity_elements=n,
        store_bytes=4 * one,
        tenants=TenantRegistry(),
    ) as tenanted:
        plain.admit("dv", v)
        tenanted.admit("dv", v)
        for _ in range(2):  # cold, then warm replay
            a = plain.query("dv", queries)
            b = tenanted.query("dv", queries)
            sa = plain.dispatch(list(chunks), queries)
            sb = tenanted.dispatch(list(chunks), queries)
            for x, y in list(zip(a, b)) + list(zip(sa, sb)):
                identical = (
                    identical
                    and bool(np.array_equal(x.values, y.values))
                    and bool(np.array_equal(x.indices, y.indices))
                )
    row("differential", "default", requests=len(queries) * 4, identical=identical)
    return rows
