"""Multi-GPU Dr. Top-k workflow (Figure 16) and the Table 2 scalability model.

Two entry points:

* :class:`MultiGpuDrTopK` — runs the full distributed workflow on real data
  with simulated GPUs: partition, per-GPU Dr. Top-k over its sub-vectors
  (with host-reload accounting for sub-vectors beyond the first), an
  asynchronous gather of the local top-k results to the primary GPU, and the
  final top-k on the primary.  Produces a correct :class:`TopKResult` plus a
  :class:`MultiGpuReport` with the same columns as Table 2.
* :func:`estimate_scalability_row` — the analytic version of one Table 2 cell
  at the paper's |V| = 2^30 … 2^33 scales, where materialising the data is
  impossible; it uses the Section 5.2 cost structure for per-GPU compute, the
  PCIe bandwidth for reload overhead and the communicator's cost model for
  the gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.config import DrTopKConfig
from repro.core.drtopk import DrTopK
from repro.core.workload import expected_workload
from repro.distributed.comm import CommCost, SimulatedComm
from repro.distributed.partition import MAX_SUBVECTOR_ELEMENTS, PartitionPlan, plan_partition
from repro.errors import ConfigurationError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec, V100S
from repro.types import TopKResult
from repro.utils import check_k, ensure_1d

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a service import cycle
    from repro.service.cache import PartitionCache
    from repro.service.executor import ServiceExecutor
    from repro.service.planbank import PlanBank

__all__ = [
    "MultiGpuDrTopK",
    "MultiGpuReport",
    "MultiGpuBatchReport",
    "ShardBatchOutcome",
    "estimate_scalability_row",
]


@dataclass
class MultiGpuReport:
    """Timing breakdown of one distributed run (Table 2 columns)."""

    num_gpus: int
    total_elements: int
    k: int
    communication_ms: float
    reload_ms: float
    compute_ms: float
    final_topk_ms: float

    @property
    def total_ms(self) -> float:
        """End-to-end estimated time."""
        return self.compute_ms + self.reload_ms + self.communication_ms + self.final_topk_ms

    def speedup_over(self, single_gpu: "MultiGpuReport") -> float:
        """Speedup relative to a single-GPU report (Table 2's parenthesised column)."""
        if self.total_ms <= 0:
            return float("inf")
        return single_gpu.total_ms / self.total_ms


@dataclass
class ShardBatchOutcome:
    """One GPU's share of a sharded batch: candidates plus accounting.

    ``values``/``indices`` are aligned with the batch's queries — entry ``i``
    holds this GPU's local candidates for query ``i``, concatenated across
    the GPU's assigned sub-vectors, with indices already global.
    """

    gpu: int
    values: List[np.ndarray] = field(default_factory=list)
    indices: List[np.ndarray] = field(default_factory=list)
    compute_ms: float = 0.0
    reload_ms: float = 0.0
    groups: int = 0
    constructions: int = 0
    construction_bytes: float = 0.0
    query_bytes: float = 0.0
    plan_bank_hits: int = 0
    wall_ms: float = 0.0
    #: Full selection passes this GPU executed (one per group when fused).
    selection_calls: int = 0
    #: Per-shard groups answered through the fused selection path.
    fused_groups: int = 0
    #: Queries this GPU served through the fused path (across its groups).
    fused_queries: int = 0


@dataclass
class MultiGpuBatchReport:
    """Fleet-level accounting of one :meth:`MultiGpuDrTopK.topk_batch` call.

    The Table 2 timing columns plus the amortisation quantities the service
    layer reports: per-shard delegate construction happens once per
    ``(alpha, largest)`` group of the batch (``constructions``), and the
    result gather moves ``gather_bytes`` of candidates to the primary.
    """

    num_gpus: int
    total_elements: int
    num_queries: int
    communication_ms: float = 0.0
    reload_ms: float = 0.0
    compute_ms: float = 0.0
    final_topk_ms: float = 0.0
    constructions: int = 0
    construction_bytes: float = 0.0
    query_bytes: float = 0.0
    gather_bytes: float = 0.0
    plan_bank_hits: int = 0
    #: Full selection passes summed over the fleet (fused groups count once).
    selection_calls: int = 0
    #: Per-shard groups served by the fused selection path, fleet-wide.
    fused_groups: int = 0
    #: Query-shard fused servings summed over the fleet (a query served
    #: fused on every one of ``G`` GPUs counts ``G`` times).
    fused_queries: int = 0
    per_gpu: List[ShardBatchOutcome] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        """End-to-end estimated time of the whole batch."""
        return self.compute_ms + self.reload_ms + self.communication_ms + self.final_topk_ms


@dataclass
class MultiGpuDrTopK:
    """Distributed Dr. Top-k over a simulated GPU fleet.

    Parameters
    ----------
    num_gpus:
        Fleet size.
    config:
        Per-GPU pipeline configuration (defaults to the paper's final design).
    capacity_elements:
        Per-sub-vector cap; lower it in tests to exercise the reload path on
        small data.
    gpus_per_node:
        GPUs per compute node (4 on the paper's platform), which decides
        whether gather transfers are intra- or inter-node.
    comm_cost:
        Interconnect cost model.
    fused:
        Serve each per-shard ``(alpha, largest)`` group through
        :func:`~repro.service.fusion.fused_group_topk` (one shared selection
        at the group's ``max(k)``) instead of one ``topk_prepared`` call per
        query; per-query identical results either way.
    """

    num_gpus: int
    config: Optional[DrTopKConfig] = None
    capacity_elements: int = MAX_SUBVECTOR_ELEMENTS
    gpus_per_node: int = 4
    comm_cost: CommCost = field(default_factory=CommCost)
    use_hierarchical_reduction: bool = False
    fused: bool = True

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError("num_gpus must be positive")
        self.config = self.config or DrTopKConfig()
        self.last_report: Optional[MultiGpuReport] = None
        self.last_batch_report: Optional[MultiGpuBatchReport] = None
        self.last_plan: Optional[PartitionPlan] = None

    # -- execution ------------------------------------------------------------------
    def topk(self, v: np.ndarray, k: int, largest: bool = True) -> TopKResult:
        """Run the Figure 16 workflow on ``v`` and return the global top-k."""
        v = ensure_1d(v)
        k = check_k(k, v.shape[0])
        plan = plan_partition(v.shape[0], self.num_gpus, self.capacity_elements)
        self.last_plan = plan
        device = self.config.device
        model = CostModel(device)
        comm = SimulatedComm(
            num_ranks=self.num_gpus, gpus_per_node=self.gpus_per_node, cost=self.comm_cost
        )

        per_gpu_compute: List[float] = []
        per_gpu_reload: List[float] = []
        local_values: List[np.ndarray] = []
        local_indices: List[np.ndarray] = []

        for gpu, sub_ids in enumerate(plan.assignments):
            compute_ms = 0.0
            reload_ms = 0.0
            gpu_vals: List[np.ndarray] = []
            gpu_idx: List[np.ndarray] = []
            for order, sub in enumerate(sub_ids):
                start, stop = plan.subvector_bounds[sub]
                sub_v = v[start:stop]
                if stop - start < k:
                    # A sub-vector smaller than k cannot answer a local top-k
                    # on its own; contribute every element instead.
                    gpu_vals.append(sub_v)
                    gpu_idx.append(np.arange(start, stop, dtype=np.int64))
                    continue
                engine = DrTopK(self.config)
                local = engine.topk(sub_v, k, largest=largest)
                assert local.stats is not None
                compute_ms += local.stats.total_time_ms
                if order > 0:
                    reload_ms += model.host_transfer_ms(stop - start, v.dtype.itemsize)
                gpu_vals.append(local.values)
                gpu_idx.append(local.indices + start)
            if gpu_vals:
                local_values.append(np.concatenate(gpu_vals))
                local_indices.append(np.concatenate(gpu_idx))
            else:
                local_values.append(np.empty(0, dtype=v.dtype))
                local_indices.append(np.empty(0, dtype=np.int64))
            per_gpu_compute.append(compute_ms)
            per_gpu_reload.append(reload_ms)

        # Gather the local top-k's (values and positions) on the primary GPU.
        # With hierarchical reduction (Section 5.4's multi-node variant) the
        # gather happens in two stages: GPUs of each node combine onto their
        # node leader over NVLink, then only the leaders talk to the primary.
        if self.use_hierarchical_reduction and self.num_gpus > self.gpus_per_node:
            all_values, all_indices = self._hierarchical_gather(
                comm, local_values, local_indices
            )
        else:
            gathered_values = comm.gather(local_values, root=0, asynchronous=True)
            gathered_indices = comm.gather(local_indices, root=0, asynchronous=True)
            all_values = np.concatenate(gathered_values)
            all_indices = np.concatenate(gathered_indices)

        # Final top-k on the primary GPU.
        final_engine = DrTopK(self.config)
        final = final_engine.topk(all_values, k, largest=largest)
        assert final.stats is not None
        final_ms = final.stats.total_time_ms
        global_indices = all_indices[final.indices]

        report = MultiGpuReport(
            num_gpus=self.num_gpus,
            total_elements=v.shape[0],
            k=k,
            communication_ms=comm.total_comm_ms,
            reload_ms=float(max(per_gpu_reload) if per_gpu_reload else 0.0),
            compute_ms=float(max(per_gpu_compute) if per_gpu_compute else 0.0),
            final_topk_ms=final_ms,
        )
        self.last_report = report
        return TopKResult(
            values=v[global_indices],
            indices=global_indices,
            k=k,
            largest=largest,
            stats=final.stats,
        )

    def _hierarchical_gather(self, comm, local_values, local_indices):
        """Two-stage (node-leader) gather of the per-GPU top-k candidates.

        Each node's GPUs first combine onto the node's first rank over the
        fast intra-node links; only the node leaders then send to the primary
        GPU, so the number of cross-node messages drops from ``num_gpus - 1``
        to ``num_nodes - 1``.
        """
        num_nodes = -(-self.num_gpus // self.gpus_per_node)
        leader_values = []
        leader_indices = []
        for node in range(num_nodes):
            ranks = range(
                node * self.gpus_per_node,
                min((node + 1) * self.gpus_per_node, self.num_gpus),
            )
            vals = [local_values[r] for r in ranks]
            idxs = [local_indices[r] for r in ranks]
            # Intra-node stage: every member sends to the node leader.
            for member, (rank, v_arr) in enumerate(zip(ranks, vals)):
                if member:
                    comm.send(v_arr, src=rank, dst=ranks[0])
                    comm.send(idxs[member], src=rank, dst=ranks[0])
            # Defensive guard only (every node has >= 1 rank, so vals is
            # never empty today): preserve the input dtype like the
            # flat-gather path — a bare np.empty(0) is float64 and would
            # silently upcast the whole gather.
            leader_values.append(
                np.concatenate(vals) if vals else np.empty(0, dtype=local_values[0].dtype)  # reprolint: waive[HOT001] leader buffers escape through comm.send; the service arena is not available in the distributed layer
            )
            leader_indices.append(
                np.concatenate(idxs) if idxs else np.empty(0, dtype=np.int64)  # reprolint: waive[HOT001] leader buffers escape through comm.send; the service arena is not available in the distributed layer
            )
        # Inter-node stage: node leaders send their combined candidates to rank 0.
        for node in range(1, num_nodes):
            comm.send(leader_values[node], src=node * self.gpus_per_node, dst=0)
            comm.send(leader_indices[node], src=node * self.gpus_per_node, dst=0)
        return np.concatenate(leader_values), np.concatenate(leader_indices)  # reprolint: waive[HOT001] gathered result is returned to the caller, not a scoped temporary

    # -- batched execution (cross-query plan reuse) ----------------------------------
    def topk_batch(
        self,
        v: np.ndarray,
        queries: Sequence,
        cache: Optional["PartitionCache"] = None,
        executor: Optional["ServiceExecutor"] = None,
        plan_bank: Optional["PlanBank"] = None,
        shard_fingerprints: Optional[dict] = None,
    ):
        """Answer a batch of queries over one sharded vector with plan reuse.

        The single-query :meth:`topk` rebuilds every shard's delegate vector
        for every query; this batch entry point mirrors
        :meth:`~repro.service.batch.BatchTopK.run` instead: on each shard the
        queries are grouped by ``(alpha, largest)`` and one
        :class:`~repro.core.plan.QueryPlan` serves the whole group, so a
        homogeneous batch pays one construction scan *per shard* rather than
        one per shard per query.  Host reloads are likewise charged once per
        extra shard for the batch.

        Parameters
        ----------
        v:
            The full (oversized) input vector.
        queries:
            Any :class:`~repro.service.batch.TopKQuery`-coercible sequence.
        cache:
            Optional shared :class:`~repro.service.cache.PartitionCache`
            memoising the per-shard ``(n, k) → alpha`` resolution.
        executor:
            Optional :class:`~repro.service.executor.ServiceExecutor`; when
            given, each GPU's shard work runs as one work unit on its pool.
            ``None`` runs GPUs sequentially in-process.
        plan_bank:
            Optional :class:`~repro.service.planbank.PlanBank` keyed by
            *per-shard* fingerprints: a later batch over the same vector
            (or any vector sharing shard content) skips those shards'
            ``to_keys`` + construction entirely and charges zero
            construction traffic for them.
        shard_fingerprints:
            Optional ``(start, stop) → fingerprint`` map precomputed at
            admission by the named-vector store; shards found in it skip
            the per-dispatch :func:`~repro.service.cache.fingerprint_array`
            call (named warm queries must do zero fingerprint work).

        Returns
        -------
        (results, report):
            Results aligned with ``queries`` and a
            :class:`MultiGpuBatchReport` (also stored on
            ``self.last_batch_report``).
        """
        from repro.service.batch import TopKQuery  # runtime import: service builds on this module

        v = ensure_1d(v)
        parsed = [TopKQuery.of(q) for q in queries]
        report = MultiGpuBatchReport(
            num_gpus=self.num_gpus, total_elements=v.shape[0], num_queries=len(parsed)
        )
        if not parsed:
            self.last_batch_report = report
            return [], report
        for q in parsed:
            check_k(q.k, v.shape[0])
        plan = plan_partition(v.shape[0], self.num_gpus, self.capacity_elements)
        self.last_plan = plan

        def shard_fn(gpu: int):
            return lambda: _shard_batch_worker(
                self.config, v, parsed, plan, gpu, cache, plan_bank, shard_fingerprints, self.fused
            )

        if executor is not None:
            from repro.service.executor import WorkUnit  # runtime import, see above

            units = [
                WorkUnit(fn=shard_fn(gpu), worker=gpu, route="sharded")
                for gpu in range(self.num_gpus)
            ]
            outcomes = []
            for res in executor.run(units):
                res.value.wall_ms = res.wall_ms
                outcomes.append(res.value)
        else:
            outcomes = [shard_fn(gpu)() for gpu in range(self.num_gpus)]

        results = self._merge_batch(v, parsed, outcomes, report)
        self.last_batch_report = report
        return results, report

    def _merge_batch(
        self,
        v: np.ndarray,
        parsed: List,
        outcomes: List[ShardBatchOutcome],
        report: MultiGpuBatchReport,
    ) -> List[TopKResult]:
        """Primary-GPU side: gather candidates, final top-k per query."""
        config = self.config
        comm = SimulatedComm(
            num_ranks=self.num_gpus, gpus_per_node=self.gpus_per_node, cost=self.comm_cost
        )
        # Each GPU sends every query's candidates in one concatenated message
        # (the Figure 16 asynchronous result collection, batched).
        blob_values = [np.concatenate(o.values) for o in outcomes]
        blob_indices = [np.concatenate(o.indices) for o in outcomes]
        if self.use_hierarchical_reduction and self.num_gpus > self.gpus_per_node:
            self._hierarchical_gather(comm, blob_values, blob_indices)
        else:
            comm.gather(blob_values, root=0, asynchronous=True)
            comm.gather(blob_indices, root=0, asynchronous=True)
        report.gather_bytes = float(
            sum(
                blob_values[rank].nbytes + blob_indices[rank].nbytes
                for rank in range(1, self.num_gpus)
            )
        )

        final_engine = DrTopK(config)
        results: List[TopKResult] = []
        for pos, q in enumerate(parsed):
            all_values = np.concatenate([o.values[pos] for o in outcomes])
            all_indices = np.concatenate([o.indices[pos] for o in outcomes])
            final = final_engine.topk(all_values, q.k, largest=q.largest)
            assert final.stats is not None
            report.final_topk_ms += final.stats.total_time_ms
            global_indices = all_indices[final.indices]
            results.append(
                TopKResult(
                    values=v[global_indices],
                    indices=global_indices,
                    k=q.k,
                    largest=q.largest,
                    stats=final.stats,
                )
            )

        report.communication_ms = comm.total_comm_ms
        report.reload_ms = float(max((o.reload_ms for o in outcomes), default=0.0))
        report.compute_ms = float(max((o.compute_ms for o in outcomes), default=0.0))
        report.constructions = sum(o.constructions for o in outcomes)
        report.construction_bytes = float(sum(o.construction_bytes for o in outcomes))
        report.query_bytes = float(sum(o.query_bytes for o in outcomes))
        report.plan_bank_hits = sum(o.plan_bank_hits for o in outcomes)
        report.selection_calls = sum(o.selection_calls for o in outcomes)
        report.fused_groups = sum(o.fused_groups for o in outcomes)
        report.fused_queries = sum(o.fused_queries for o in outcomes)
        report.per_gpu = list(outcomes)
        return results


# -- shard worker -------------------------------------------------------------------


def _shard_batch_worker(
    config: DrTopKConfig,
    v: np.ndarray,
    parsed: List,
    plan: PartitionPlan,
    gpu: int,
    cache: Optional["PartitionCache"],
    plan_bank: Optional["PlanBank"],
    shard_fingerprints: Optional[dict],
    fused: bool,
) -> ShardBatchOutcome:
    """One GPU's work unit: grouped local top-k over its assigned shards."""
    from repro.service.batch import group_queries_by_plan  # runtime import: service builds on this module
    from repro.service.cache import fingerprint_array  # runtime import, see above
    from repro.service.fusion import fused_group_topk  # runtime import, see above

    model = CostModel(config.device)
    engine = DrTopK(config)
    out = ShardBatchOutcome(gpu=gpu)
    vals: List[List[np.ndarray]] = [[] for _ in parsed]
    idxs: List[List[np.ndarray]] = [[] for _ in parsed]

    for order, sub in enumerate(plan.assignments[gpu]):
        start, stop = plan.subvector_bounds[sub]
        sub_v = v[start:stop]
        sub_n = stop - start
        if order > 0:
            # The shard is reloaded from the host once for the whole
            # batch, not once per query — reuse starts at the transfer.
            out.reload_ms += model.host_transfer_ms(sub_n, v.dtype.itemsize)

        # A sub-vector smaller than k cannot answer a local top-k on its
        # own; such queries take every element of the shard.
        whole = [pos for pos, q in enumerate(parsed) if sub_n < q.k]
        for pos in whole:
            vals[pos].append(sub_v)
            idxs[pos].append(np.arange(start, stop, dtype=np.int64))
        served = [pos for pos, q in enumerate(parsed) if sub_n >= q.k]
        if not served:
            continue

        shard_fp = None
        if plan_bank is not None:
            # Admission-time fingerprints (named vectors) win; anonymous
            # dispatches still hash each shard once per batch.
            shard_fp = (shard_fingerprints or {}).get((start, stop))
            if shard_fp is None:
                shard_fp = fingerprint_array(sub_v)
        # Bank-aware snapping keyed by the *shard's* fingerprint: a served
        # shard regroups near-miss exponents onto its banked plans too.
        groups = group_queries_by_plan(
            [parsed[p] for p in served],
            sub_n,
            cache,
            engine,
            plan_bank=plan_bank,
            fingerprint=shard_fp,
        )
        for (alpha, largest), members in groups.items():
            positions = [served[m] for m in members]
            min_k = min(parsed[p].k for p in positions)
            qplan = None
            bank_hit = False
            if shard_fp is not None:
                banked = plan_bank.get(shard_fp, alpha, largest, beta=config.beta)
                if banked is not None:
                    if banked.offset != start:
                        # Same shard content at a different position
                        # (identical-content shards, or a re-partitioned
                        # vector): reuse all arrays, re-anchor the offset.
                        banked = replace(banked, offset=start)
                    qplan = banked
                    bank_hit = True
                    out.plan_bank_hits += 1
            if qplan is None:
                qplan = engine.prepare_with_alpha(
                    sub_v, alpha, largest=largest, k=min_k, offset=start
                )
                if shard_fp is not None:
                    plan_bank.put(shard_fp, qplan)
            out.groups += 1
            if not qplan.is_degenerate and not bank_hit:
                out.constructions += 1
                out.construction_bytes += qplan.construction_bytes
                out.compute_ms += qplan.construction_ms(config.device)
            if fused:
                fused_out = fused_group_topk(
                    engine, qplan, [parsed[p].k for p in positions]
                )
                out.selection_calls += fused_out.selection_calls
                if fused_out.fused_queries:
                    out.fused_groups += 1
                out.fused_queries += fused_out.fused_queries
                out.compute_ms += fused_out.shared_ms
                if config.collect_trace:
                    out.query_bytes += fused_out.shared_bytes + sum(fused_out.query_bytes)
                for pos, local in zip(positions, fused_out.results):
                    assert local.stats is not None
                    out.compute_ms += local.stats.total_time_ms
                    vals[pos].append(local.values)
                    idxs[pos].append(qplan.global_indices(local.indices))
            else:
                for pos in positions:
                    q = parsed[pos]
                    local = engine.topk_prepared(qplan, q.k, charge_construction=False)
                    out.selection_calls += 1
                    assert local.stats is not None
                    out.compute_ms += local.stats.total_time_ms
                    if config.collect_trace:
                        out.query_bytes += engine.last_trace.total_counters().global_bytes
                    vals[pos].append(local.values)
                    idxs[pos].append(qplan.global_indices(local.indices))

    for pos in range(len(parsed)):
        if vals[pos]:
            # np.concatenate always copies, so the outcome never aliases a
            # shard view of ``v``.
            out.values.append(np.concatenate(vals[pos]))
            out.indices.append(np.concatenate(idxs[pos]))
        else:
            out.values.append(np.empty(0, dtype=v.dtype))
            out.indices.append(np.empty(0, dtype=np.int64))
    return out


# -- analytic Table 2 model -------------------------------------------------------


def _single_gpu_pipeline_ms(
    n: int, k: int, device: DeviceSpec, beta: int = 2, const: float = 3.0
) -> float:
    """Estimated Dr. Top-k time on one GPU for an ``n``-element sub-vector.

    Uses the expected workload model for the delegate / concatenated vector
    sizes and the device cost model for the traffic of the four stages
    (the same accounting the real pipeline records, evaluated analytically).
    """
    stats = expected_workload(n, k, beta=beta, const=const)
    model = CostModel(device)
    m = stats.delegate_vector_size
    if m == 0:
        return model.streaming_scan_ms(n) * 5.0  # degenerate fallback: plain radix top-k
    scanned = stats.fully_qualified_subranges * stats.subrange_size
    construction = model.streaming_scan_ms(n) + model.streaming_scan_ms(2 * m)
    first = model.streaming_scan_ms(5 * m + 2 * k)
    concat = model.streaming_scan_ms(k + scanned + 2 * stats.concatenated_size)
    second = model.streaming_scan_ms(5 * stats.concatenated_size + k)
    launch = 4 * model.launch_overhead_ms
    return construction + first + concat + second + launch


def estimate_scalability_row(
    total_elements: int,
    k: int,
    num_gpus: int,
    device: DeviceSpec = V100S,
    capacity_elements: int = MAX_SUBVECTOR_ELEMENTS,
    gpus_per_node: int = 4,
    comm_cost: Optional[CommCost] = None,
    beta: int = 2,
) -> MultiGpuReport:
    """One cell of Table 2, evaluated analytically at paper scale."""
    if total_elements < 1 or num_gpus < 1:
        raise ConfigurationError("total_elements and num_gpus must be positive")
    plan = plan_partition(total_elements, num_gpus, capacity_elements)
    model = CostModel(device)
    comm_cost = comm_cost or CommCost()

    per_gpu_compute = []
    per_gpu_reload = []
    for sub_ids in plan.assignments:
        compute = 0.0
        reload = 0.0
        for order, sub in enumerate(sub_ids):
            start, stop = plan.subvector_bounds[sub]
            size = stop - start
            compute += _single_gpu_pipeline_ms(size, min(k, size), device, beta=beta)
            if order > 0:
                reload += model.host_transfer_ms(size)
        per_gpu_compute.append(compute)
        per_gpu_reload.append(reload)

    # Asynchronous gather of k (key, index) pairs from every secondary GPU.
    message_bytes = float(k) * 8.0
    transfers = []
    for rank in range(1, num_gpus):
        inter = (rank // gpus_per_node) != 0
        transfers.append(comm_cost.transfer_ms(message_bytes, inter_node=inter))
    communication = (
        max(transfers) + comm_cost.latency_ms * (len(transfers) - 1) if transfers else 0.0
    )
    final_ms = model.streaming_scan_ms(5 * num_gpus * k) + model.launch_overhead_ms

    return MultiGpuReport(
        num_gpus=num_gpus,
        total_elements=total_elements,
        k=k,
        communication_ms=communication,
        reload_ms=float(max(per_gpu_reload)),
        compute_ms=float(max(per_gpu_compute)),
        final_topk_ms=final_ms,
    )
