"""The Dr. Top-k pipeline (Figure 3b).

:class:`DrTopK` glues the four stages together:

1. **Delegate-vector construction** — :mod:`repro.core.delegate`.
2. **First top-k** on the delegate vector, using any registered algorithm.
   The delegate vector is a (key, subrange-id) pair vector and the pass must
   produce the full top-k (not just the k-th value) because every qualified
   subrange is needed for concatenation (Section 5.1).
3. **Concatenation** of qualified subranges with Rule-2 filtering and the
   Rule-3 β-delegate pruning — :mod:`repro.core.concatenate`.
4. **Second top-k** on the concatenated vector.

The class records per-step simulated-GPU traffic (priced on the configured
device) and the workload statistics reported in the paper's Section 6.2.

Step 1 is the only stage that touches the full input vector, and it depends
solely on the vector, the key order and the subrange geometry — not on ``k``
once ``alpha`` is fixed.  :meth:`DrTopK.prepare` therefore factors it into a
reusable :class:`~repro.core.plan.QueryPlan` that
:meth:`DrTopK.topk_prepared` can answer many queries from, paying for
construction once; :meth:`DrTopK.topk` simply chains the two for the one-shot
case.  The batched/streaming service layer (:mod:`repro.service`) builds on
this split.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms.base import ExecutionTrace
from repro.algorithms.keys import to_keys
from repro.analysis.alpha_tuning import optimal_alpha
from repro.core.concatenate import concatenate_subranges
from repro.core.config import DrTopKConfig
from repro.core.delegate import build_delegate_vector
from repro.core.filtering import qualification_threshold, qualify_subranges
from repro.core.plan import PlanViews, QueryPlan
from repro.core.subrange import SubrangePartition
from repro.errors import ConfigurationError
from repro.gpusim.kernel import KernelStep
from repro.gpusim.memory import MemoryCounters
from repro.types import TopKResult, WorkloadStats
from repro.utils import check_k, ensure_1d

__all__ = ["DrTopK", "drtopk"]


class DrTopK:
    """Delegate-centric top-k engine.

    Parameters
    ----------
    config:
        Pipeline configuration; defaults to the paper's final design
        (``beta=2``, filtering on, Rule 3 on, flag-optimised in-place radix
        for both top-k passes, automatic construction strategy and automatic
        Rule-4 α).
    """

    def __init__(self, config: Optional[DrTopKConfig] = None):
        self.config = config or DrTopKConfig()
        # Fail fast on unknown algorithm names.
        get_algorithm(self.config.first_algorithm)
        get_algorithm(self.config.second_algorithm)

    # -- public API -----------------------------------------------------------
    def topk(self, v: np.ndarray, k: int, largest: bool = True) -> TopKResult:
        """Compute the top-``k`` of ``v`` with the delegate-centric pipeline."""
        v = ensure_1d(v)
        k = check_k(k, v.shape[0])
        plan = self.prepare(v, k, largest=largest)
        return self.topk_prepared(plan, k)

    def kth_value(self, v: np.ndarray, k: int, largest: bool = True):
        """k-selection: return only the k-th element."""
        return self.topk(v, k, largest=largest).kth_value

    def prepare(self, v: np.ndarray, k: int, largest: bool = True) -> QueryPlan:
        """Build a reusable :class:`QueryPlan` for queries over ``v``.

        ``k`` is used to resolve the Rule-4 ``alpha`` (and to skip
        construction entirely in the degenerate regime where the delegate
        vector could not beat a plain top-k); the returned plan then serves
        any ``k`` whose resolved ``alpha`` matches.
        """
        v = ensure_1d(v)
        k = check_k(k, v.shape[0])
        alpha = self._resolve_alpha(v.shape[0], k)
        return self.prepare_with_alpha(v, alpha, largest=largest, k=k)

    def prepare_with_alpha(
        self,
        v: np.ndarray,
        alpha: int,
        largest: bool = True,
        k: Optional[int] = None,
        offset: int = 0,
    ) -> QueryPlan:
        """Build a :class:`QueryPlan` for an explicitly chosen ``alpha``.

        When ``k`` is given and the partition's delegate vector could not be
        smaller than ``k`` (the degenerate regime), construction is skipped
        and the plan answers through the plain-top-k fallback.  ``offset``
        records ``v``'s position inside a larger sharded vector so plan
        consumers can map local result indices back to global ones.
        """
        v = ensure_1d(v)
        cfg = self.config
        keys = to_keys(v, largest=largest)
        partition = SubrangePartition(n=keys.shape[0], alpha=alpha)
        # Tiny inputs can leave subranges narrower than the configured beta;
        # extracting every element of such a subrange is the correct limit.
        beta = min(cfg.beta, partition.subrange_size)

        if k is not None and partition.num_subranges * beta <= k:
            return QueryPlan(
                v=v, keys=keys, largest=largest, partition=partition, beta=beta, offset=offset
            )

        trace = ExecutionTrace(itemsize=v.dtype.itemsize) if cfg.collect_trace else None
        # The padded 2-D view is needed by construction now and by every
        # query's concatenation later; materialise it once and keep it on the
        # plan so the steady-state query path never re-pads the O(n) vector.
        views = PlanViews(
            padded=partition.reshape_padded(keys, pad_value=keys.dtype.type(0))
        )
        delegates = build_delegate_vector(
            keys,
            partition,
            beta=beta,
            strategy=cfg.construction,
            trace=trace,
            padded_view=views.padded,
        )
        return QueryPlan(
            v=v,
            keys=keys,
            largest=largest,
            partition=partition,
            beta=beta,
            delegates=delegates,
            construction_steps=list(trace.steps) if trace is not None else [],
            offset=offset,
            views=views,
        )

    def topk_prepared(
        self, plan: QueryPlan, k: int, charge_construction: bool = True
    ) -> TopKResult:
        """Answer one query from a prebuilt :class:`QueryPlan`.

        Parameters
        ----------
        plan:
            Plan previously built over the query's input vector.
        k:
            Number of elements to select.
        charge_construction:
            When ``True`` (the one-shot default) the plan's construction
            traffic is included in this query's trace and step times.  Batch
            callers that amortise one construction across many queries pass
            ``False`` and account for the construction once at the batch
            level instead.
        """
        v = plan.v
        k = check_k(k, plan.n)
        cfg = self.config
        partition = plan.partition
        beta = plan.beta
        stats = WorkloadStats(
            input_size=plan.n,
            subrange_size=partition.subrange_size,
            alpha=partition.alpha,
            beta=beta,
            num_subranges=partition.num_subranges,
        )

        # Degenerate regime: the delegate vector would not be smaller than k,
        # so the delegate machinery cannot prune anything.  Fall back to the
        # second-top-k algorithm on the raw input (still a valid answer).  A
        # plan may carry a constructed delegate vector this query cannot use
        # (valid delegates <= k under padding); that construction work still
        # happened, so charge it to whoever owns it.
        if not plan.answers(k):
            prior = plan.construction_steps if charge_construction else None
            return self._degenerate(v, plan.keys, k, plan.largest, stats, prior_steps=prior)

        delegates = plan.delegates
        assert delegates is not None
        trace = ExecutionTrace(itemsize=v.dtype.itemsize) if cfg.collect_trace else None
        if trace is not None and charge_construction:
            trace.extend(list(plan.construction_steps))
        stats.delegate_vector_size = delegates.size

        # 2. First top-k on the delegate vector (keys are already unsigned).
        first_algo = get_algorithm(cfg.first_algorithm)
        first_trace = ExecutionTrace(itemsize=v.dtype.itemsize) if cfg.collect_trace else None
        flat_keys = delegates.flat_keys()
        first = first_algo.topk(flat_keys, k, largest=True, trace=first_trace)
        if trace is not None and first_trace is not None:
            trace.extend([_collapse_steps("first_topk", first_trace)])
        threshold = qualification_threshold(first)

        # 3. Qualification and concatenation.
        qualified, scan = qualify_subranges(
            delegates.maxima(),
            delegates.beta_th(),
            threshold,
            use_beta_rule=cfg.use_beta_rule and beta > 1,
        )
        stats.qualified_subranges = int(np.count_nonzero(qualified))
        stats.fully_qualified_subranges = int(np.count_nonzero(scan))

        flat_sub_ids = delegates.flat_subrange_ids()
        delegate_above = flat_keys >= flat_keys.dtype.type(threshold)
        extra_mask = delegate_above & ~scan[flat_sub_ids]

        if (
            cfg.skip_second_when_possible
            and not np.any(scan)
            and first.values.shape[0] == k
        ):
            # Figure 8(b): no subrange is fully taken, so the first top-k is
            # already the answer; map its indices back to the input vector.
            original_idx = delegates.flat_indices()[first.indices]
            stats.second_topk_skipped = True
            stats.concatenated_size = 0
            self._finalise_stats(stats, trace)
            result = TopKResult(
                values=v[original_idx],
                indices=original_idx,
                k=k,
                largest=plan.largest,
                stats=stats,
            )
            self.last_stats = stats
            return result

        concat = concatenate_subranges(
            plan.keys,
            delegates,
            scan_mask=scan,
            threshold=threshold if cfg.use_filtering else None,
            extra_candidate_mask=extra_mask,
            trace=trace,
            padded_view=plan.padded_view(),
        )
        stats.concatenated_size = concat.size
        stats.filtered_out = concat.filtered_out

        # 4. Second top-k on the concatenated vector.
        if concat.size < k:
            raise ConfigurationError(
                "internal error: concatenated vector smaller than k "
                f"({concat.size} < {k})"
            )
        second_algo = get_algorithm(cfg.second_algorithm)
        second_trace = ExecutionTrace(itemsize=v.dtype.itemsize) if cfg.collect_trace else None
        second = second_algo.topk(concat.keys, k, largest=True, trace=second_trace)
        if trace is not None and second_trace is not None:
            trace.extend([_collapse_steps("second_topk", second_trace)])

        original_idx = concat.indices[second.indices]
        self._finalise_stats(stats, trace)
        result = TopKResult(
            values=v[original_idx],
            indices=original_idx,
            k=k,
            largest=plan.largest,
            stats=stats,
        )
        self.last_stats = stats
        return result

    # -- internals --------------------------------------------------------------
    def _resolve_alpha(self, n: int, k: int) -> int:
        cfg = self.config
        if cfg.alpha is not None:
            alpha = int(cfg.alpha)
        else:
            alpha = optimal_alpha(n, k, const=cfg.rule4_const)
        # A subrange can never exceed the vector itself, and must hold >= beta
        # elements so that beta delegates exist.
        max_alpha = max(int(n).bit_length() - 1, 0)  # floor(log2(n))
        min_alpha = (int(max(cfg.beta, 1)) - 1).bit_length()  # ceil(log2(beta))
        return min(max(alpha, min_alpha), max_alpha)

    def _degenerate(
        self,
        v: np.ndarray,
        keys: np.ndarray,
        k: int,
        largest: bool,
        stats: WorkloadStats,
        prior_steps: Optional[list] = None,
    ) -> TopKResult:
        """Fallback when the delegate vector could not be smaller than k."""
        cfg = self.config
        trace = ExecutionTrace(itemsize=v.dtype.itemsize) if cfg.collect_trace else None
        if trace is not None and prior_steps:
            trace.extend(list(prior_steps))
        algo = get_algorithm(cfg.second_algorithm)
        base = algo.topk(keys, k, largest=True, trace=trace)
        stats.delegate_vector_size = 0
        stats.concatenated_size = stats.input_size
        self._finalise_stats(stats, trace)
        result = TopKResult(
            values=v[base.indices], indices=base.indices, k=k, largest=largest, stats=stats
        )
        self.last_stats = stats
        return result

    def _finalise_stats(self, stats: WorkloadStats, trace: Optional[ExecutionTrace]) -> None:
        if trace is None:
            return
        stats.step_times_ms = trace.step_times_ms(self.config.device)
        self.last_trace = trace


def _collapse_steps(name: str, trace: ExecutionTrace) -> KernelStep:
    """Collapse an algorithm's internal steps into a single named pipeline step."""
    counters = trace.total_counters()
    kernels = sum(step.kernels for step in trace.steps) or 1
    if not trace.steps:
        counters = MemoryCounters(itemsize=trace.itemsize)
    return KernelStep(name=name, counters=counters, kernels=kernels)


def drtopk(
    v: np.ndarray,
    k: int,
    largest: bool = True,
    config: Optional[DrTopKConfig] = None,
    **config_overrides,
) -> TopKResult:
    """Convenience wrapper: run Dr. Top-k with an optional configuration.

    Keyword overrides are applied on top of ``config`` (or the default
    configuration), e.g. ``drtopk(v, 100, beta=1, use_filtering=False)``.
    """
    cfg = config or DrTopKConfig()
    if config_overrides:
        cfg = cfg.replace(**config_overrides)
    return DrTopK(cfg).topk(v, k, largest=largest)
