"""Query-serving layer: one async execution core under three routes.

The core engine answers one ``topk(v, k)`` call at a time; this package turns
it into a serving substrate for heavy query traffic.  Every request runs
through the same pipeline —

``Router`` (classify + emit per-worker ``WorkUnit``\\ s) →
``ServiceExecutor`` (bounded-queue thread pool with backpressure) →
route-specific merge on the primary —

so batched, sharded and streaming serving share scheduling, plan reuse and
caching instead of owning private loops:

* :class:`~repro.service.batch.BatchTopK` — a batch of ``(k, largest)``
  queries over one shared vector, building the delegate vector and subrange
  partition once per ``(alpha, largest)`` group (amortised construction).
* :class:`~repro.service.streaming.StreamingTopK` — chunked / out-of-core
  top-k on a single engine; the dispatcher's streaming route runs the same
  candidate-pool algorithm with one worker per chunk.
* :class:`~repro.service.dispatcher.ServiceDispatcher` — the serving front
  end over the simulated multi-GPU fleet of :mod:`repro.distributed`, with a
  shared LRU ``(n, k) → alpha`` :class:`~repro.service.cache.PartitionCache`,
  an LRU ``(vector fingerprint, k, largest)``
  :class:`~repro.service.cache.ResultCache` that lets repeated identical
  queries skip the pipeline entirely, a byte-budgeted
  :class:`~repro.service.planbank.PlanBank` that persists query plans across
  dispatches (a *changed* ``k`` over an *unchanged* vector skips delegate
  construction on every route), and a
  :class:`~repro.service.planbank.ChunkMemo` that memoises streaming chunk
  candidates by content fingerprint.
* :class:`~repro.service.store.VectorStore` — the named-vector working set
  behind ``dispatcher.admit(name, v)`` / ``dispatcher.query(name, k)``: each
  vector is fingerprinted once at admission (whole vector and, above the
  device capacity, per shard), made read-only, and served with zero
  re-fingerprinting; a byte-budgeted LRU with pin/unpin whose evictions
  cascade into the plan bank and result cache.
* :class:`~repro.service.spill.SpillDirectory` — the durable second tier
  behind ``ServiceDispatcher(spill_dir=...)``: store eviction *spills*
  vectors to content-addressed mmap-backed files (victims chosen
  cold-and-large first from query history × resident bytes) instead of
  dropping them, spilled names keep serving over read-only mmap views
  (promoted back to RAM on hotness), and an atomic, lock-guarded JSON
  manifest persists fingerprints, query history and banked plan geometry —
  so ``save_state()`` / ``load_state()`` give a warm restart whose first
  dispatch re-hashes and re-scans nothing.
* :class:`~repro.service.executor.ServiceExecutor` /
  :class:`~repro.service.router.Router` — the execution core itself, usable
  directly by new routes.  The router places each plan-sharing group whole
  on one worker, so the group's plan is fetched or built once and its
  queries share one fused selection.
* :mod:`~repro.service.fusion` — fused group execution: all queries of one
  plan-sharing group are served by **one** shared first top-k at the
  group's ``max(k)`` plus one shared gather/filter, with per-query answers
  derived exactly (values *and* indices identical to the per-query path);
  its thread-local :class:`~repro.service.fusion.ScratchArena` pools the
  hot path's gather/filter temporaries across dispatches.
* :class:`~repro.service.loadgen.LoadHarness` — production-shaped traffic
  against the dispatcher: seeded open-loop arrival processes
  (:class:`~repro.service.loadgen.PoissonArrivals` /
  :class:`~repro.service.loadgen.BurstyArrivals` /
  :class:`~repro.service.loadgen.DiurnalArrivals`) and closed-loop users,
  Zipfian popularity over admitted names, per-request latency and
  queue-wait percentiles with SLO attainment in a
  :class:`~repro.service.loadgen.LoadReport`, and shed/degrade admission
  control that keeps the arrival loop non-blocking at saturation.
* :mod:`~repro.service.tenancy` — multi-tenant serving:
  :class:`~repro.service.tenancy.TenantRegistry` holds per-tenant
  :class:`~repro.service.tenancy.TenantPolicy` rows (byte budget, QPS
  quota via a seeded :class:`~repro.service.tenancy.TokenBucket`,
  scheduling weight, pin allowance) and threads through the whole core:
  the store partitions its byte budget into per-tenant ledgers (eviction
  victims come only from the requesting tenant's slice), the executor
  schedules units by weighted deficit-round-robin
  (:class:`~repro.service.tenancy.WeightedFairQueue`), and the dispatcher
  charges QPS and enforces ownership.  An unconfigured dispatcher keeps
  the single-tenant behaviour bit-for-bit.
* :class:`~repro.service.scrubber.SpillScrubber` — continuous bit-rot
  detection for the spill tier: re-hashes every unique data file against
  its admission fingerprint (the ``inspect_spill --verify`` check, as a
  daemon), quarantines corrupt files aside and removes their names so
  loads degrade to clean cold misses instead of wrong answers.
"""

from repro.service.batch import (
    BatchReport,
    BatchTopK,
    TopKQuery,
    batch_topk,
    group_queries_by_plan,
)
from repro.service.cache import (
    CacheInfo,
    PartitionCache,
    ResultCache,
    fingerprint_array,
    fingerprint_call_count,
)
from repro.service.executor import (
    ExecutorReport,
    ServiceExecutor,
    UnitResult,
    WorkUnit,
)
from repro.service.fusion import (
    ArenaInfo,
    FusedGroupOutcome,
    ScratchArena,
    arena_info,
    fused_group_topk,
    reset_arenas,
    thread_arena,
)
from repro.service.loadgen import (
    BurstyArrivals,
    DiurnalArrivals,
    LoadHarness,
    LoadReport,
    LoadSample,
    PoissonArrivals,
    RequestProfile,
    RouteStats,
    TenantStats,
    ZipfPopularity,
)
from repro.service.planbank import ChunkMemo, PlanBank
from repro.service.scrubber import ScrubReport, SpillScrubber
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantPolicy,
    TenantRegistry,
    TokenBucket,
    WeightedFairQueue,
)
from repro.service.router import BatchedPlan, Router
from repro.service.spill import SpillDirectory, SpillEntry, SpillInfo
from repro.service.store import StoredVector, VectorStore
from repro.service.dispatcher import (
    DispatchReport,
    RestoreReport,
    SaveReport,
    ServiceDispatcher,
    WorkerReport,
    dispatch_topk,
)
from repro.service.streaming import (
    StreamingTopK,
    StreamReport,
    merge_candidate_pool,
    order_candidate_pool,
    streaming_topk,
)

__all__ = [
    "TopKQuery",
    "BatchTopK",
    "BatchReport",
    "batch_topk",
    "group_queries_by_plan",
    "StreamingTopK",
    "StreamReport",
    "streaming_topk",
    "merge_candidate_pool",
    "order_candidate_pool",
    "ServiceDispatcher",
    "DispatchReport",
    "WorkerReport",
    "SaveReport",
    "RestoreReport",
    "dispatch_topk",
    "SpillDirectory",
    "SpillEntry",
    "SpillInfo",
    "PartitionCache",
    "ResultCache",
    "PlanBank",
    "ChunkMemo",
    "CacheInfo",
    "VectorStore",
    "StoredVector",
    "fingerprint_array",
    "fingerprint_call_count",
    "ServiceExecutor",
    "ExecutorReport",
    "WorkUnit",
    "UnitResult",
    "Router",
    "BatchedPlan",
    "fused_group_topk",
    "FusedGroupOutcome",
    "ScratchArena",
    "ArenaInfo",
    "thread_arena",
    "arena_info",
    "reset_arenas",
    "LoadHarness",
    "LoadReport",
    "LoadSample",
    "RouteStats",
    "TenantStats",
    "RequestProfile",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ZipfPopularity",
    "DEFAULT_TENANT",
    "TenantPolicy",
    "TenantRegistry",
    "TokenBucket",
    "WeightedFairQueue",
    "SpillScrubber",
    "ScrubReport",
]
