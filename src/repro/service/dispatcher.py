"""Dispatching query batches across the simulated multi-GPU fleet.

:class:`ServiceDispatcher` is the serving front end.  Since the unified
execution core landed it is a thin submit/collect wrapper: the
:class:`~repro.service.router.Router` classifies each request and emits
per-worker :class:`~repro.service.executor.WorkUnit`\\ s, the shared
:class:`~repro.service.executor.ServiceExecutor` runs them concurrently on a
bounded-queue thread pool (measured wall-clock next to the modelled
``compute_ms``), and the dispatcher merges the outcomes into results
and a :class:`DispatchReport`.

Three routes run through the core:

* **Batched** — the shared vector fits one device's sub-vector capacity.
  Queries are grouped exactly like :class:`~repro.service.batch.BatchTopK`
  (shared ``(alpha, largest)`` plans) and groups are placed on workers with
  a greedy least-loaded assignment.  A group always stays whole on one
  worker, so its plan is fetched or built once and its queries share one
  fused selection pass.  Per-worker results are gathered to the primary
  through the :class:`~repro.distributed.comm.SimulatedComm` cost model.
* **Sharded** — the vector exceeds the capacity.  The batch runs the Figure
  16 workflow via :meth:`~repro.distributed.multigpu.MultiGpuDrTopK.topk_batch`
  with one work unit per GPU: per-shard delegate vectors are built once per
  ``(alpha, largest)`` group of the batch, and the report carries the real
  gather traffic and construction counts.
* **Streaming** — the input is an iterable of chunks rather than a vector.
  Each chunk becomes one work unit on the next worker round-robin; chunk
  candidates merge into per-query pools on the primary and a final pass
  orders each answer — the fleet-routed version of
  :class:`~repro.service.streaming.StreamingTopK`.

Four shared caches sit in front of the routes: the Rule-4
:class:`~repro.service.cache.PartitionCache` (``(n, k) → alpha``), the
:class:`~repro.service.cache.ResultCache`
(``(vector fingerprint, k, largest) → TopKResult``) so a repeated identical
query skips the pipeline entirely, the
:class:`~repro.service.planbank.PlanBank`
(``(vector fingerprint, alpha, largest) → QueryPlan``) so a *changed* query
(new ``k``) over an *unchanged* vector still skips key conversion and
delegate construction — on the batched route (whole-vector plans) and the
sharded route (per-shard fingerprints) alike — and the streaming route's
:class:`~repro.service.planbank.ChunkMemo`, which memoises each chunk's
candidate pool by content fingerprint so replayed streams run zero per-chunk
pipeline work.  Together they make the steady-state serving path zero-rescan:
only a genuinely new vector (or a new ``alpha``) pays an O(n) scan.

On top of the anonymous :meth:`ServiceDispatcher.dispatch` sits the **named
front end**: :meth:`~ServiceDispatcher.admit` places a vector into the
byte-budgeted :class:`~repro.service.store.VectorStore` working set —
fingerprinted once (whole vector, and per shard above the device capacity),
made read-only, plans optionally pre-warmed — and
:meth:`~ServiceDispatcher.query` serves it by name with the pinned
fingerprint, so warm named traffic does zero fingerprint work on top of its
zero-rescan plan reuse.  :meth:`~ServiceDispatcher.evict` (and byte-budget
eviction) cascades into the plan bank and result cache, releasing the
content's banked bytes unless another admitted name aliases it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DrTopKConfig
from repro.core.plan import QueryPlan
from repro.distributed.comm import CommCost, SimulatedComm
from repro.distributed.multigpu import MultiGpuDrTopK
from repro.distributed.partition import MAX_SUBVECTOR_ELEMENTS
from repro.errors import ConfigurationError, TenantQuotaError
from repro.service.batch import (
    DEFAULT_ALPHA_SNAP_TOLERANCE,
    BatchTopK,
    QueryLike,
    TopKQuery,
    group_queries_by_plan,
)
from repro.service.cache import CacheInfo, PartitionCache, ResultCache, fingerprint_array
from repro.service.executor import ServiceExecutor, UnitResult
from repro.service.fusion import ArenaInfo, arena_info
from repro.service.planbank import (
    DEFAULT_CHUNK_MEMO_BYTES,
    DEFAULT_PLAN_BANK_BYTES,
    ChunkMemo,
    PlanBank,
)
from repro.service.router import Router
from repro.service.spill import SpillDirectory
from repro.service.store import (
    DEFAULT_PROMOTE_AFTER,
    DEFAULT_STORE_BYTES,
    StoredVector,
    VectorStore,
)
from repro.service.streaming import (
    DEFAULT_CHUNK_ELEMENTS,
    merge_candidate_pool,
    order_candidate_pool,
)
from repro.service.tenancy import DEFAULT_TENANT, TenantRegistry
from repro.types import TopKResult
from repro.utils import check_k, ensure_1d

__all__ = [
    "ServiceDispatcher",
    "DispatchReport",
    "WorkerReport",
    "SaveReport",
    "RestoreReport",
    "dispatch_topk",
]


@dataclass
class WorkerReport:
    """One worker's share of a dispatched batch."""

    worker: int
    queries: int = 0
    groups: int = 0
    constructions: int = 0
    compute_ms: float = 0.0
    bytes_moved: float = 0.0
    wall_ms: float = 0.0


@dataclass
class DispatchReport:
    """Fleet-level accounting of one :meth:`ServiceDispatcher.dispatch` call.

    ``compute_ms`` is the *modelled* parallel compute time (workers overlap,
    so the maximum); ``wall_ms`` is the *measured* wall-clock of the unit
    execution and ``unit_wall_ms_sum`` the units' measured walls summed.
    """

    num_queries: int = 0
    num_workers: int = 0
    route: str = "batched"
    workers: List[WorkerReport] = field(default_factory=list)
    communication_ms: float = 0.0
    constructions: int = 0
    #: Simulated traffic of this dispatch's delegate constructions alone;
    #: zero when every group was served from the plan bank (or memo).
    construction_bytes: float = 0.0
    #: Simulated traffic with one definition on every route: the workers'
    #: pipeline bytes (construction + query passes; zero when tracing is
    #: off) plus the result-gather bytes moved to the primary.
    bytes_moved: float = 0.0
    cache: Optional[CacheInfo] = None
    result_cache: Optional[CacheInfo] = None
    result_cache_hits: int = 0
    #: Plan-bank statistics and this dispatch's bank-hit group count; a
    #: bank-hit group contributed zero construction traffic to bytes_moved.
    plan_bank: Optional[CacheInfo] = None
    plan_bank_hits: int = 0
    #: Streaming chunk-memo statistics and this dispatch's memoised-chunk
    #: serve count (per key order, per chunk).
    chunk_memo: Optional[CacheInfo] = None
    chunk_memo_hits: int = 0
    #: Named-vector working-set statistics (``None`` when the store is
    #: disabled); ``bytes`` is the resident vectors, not their cached plans.
    store: Optional[CacheInfo] = None
    executor_mode: str = ""
    #: Fused-selection accounting (see :mod:`repro.service.fusion`):
    #: ``selection_calls`` counts first/second top-k algorithm invocations
    #: the dispatch actually ran — a fused group pays one shared call plus
    #: one per exact-fallback query instead of one per query;
    #: ``fused_groups`` / ``fused_queries`` count groups and queries served
    #: through the shared pass, and ``fusion_stage_ms`` breaks the fused
    #: path's wall time into its pipeline stages.
    selection_calls: int = 0
    fused_groups: int = 0
    fused_queries: int = 0
    fusion_stage_ms: Dict[str, float] = field(default_factory=dict)
    #: Scratch-arena deltas of this dispatch (hits mean a gather/filter
    #: temporary was served from a pooled buffer instead of a fresh
    #: allocation) plus the cumulative cross-thread snapshot.
    arena_hits: int = 0
    arena_misses: int = 0
    arena_resizes: int = 0
    arena: Optional[ArenaInfo] = None
    wall_ms: float = 0.0
    unit_wall_ms_sum: float = 0.0
    #: Measured submit-to-start queue waits of this dispatch's work units —
    #: the sum over units and the single worst unit.  Non-zero waits mean the
    #: executor's bounded queue (or its pool) delayed work.
    unit_queue_ms_sum: float = 0.0
    max_unit_queue_ms: float = 0.0
    backpressure_waits: int = 0
    #: Queries this dispatch served over a spill-tier mmap view (the named
    #: vector was not resident in RAM; zero without a spill directory).
    spill_serves: int = 0
    #: Tenant identity the dispatch ran under; the default tenant for every
    #: anonymous or untenanted call, so single-tenant reports are unchanged.
    tenant: str = DEFAULT_TENANT

    @property
    def compute_ms(self) -> float:
        """Modelled compute time: workers run in parallel, so the maximum."""
        return max((w.compute_ms for w in self.workers), default=0.0)

    @property
    def total_ms(self) -> float:
        """End-to-end modelled time (parallel compute plus the gather)."""
        return self.compute_ms + self.communication_ms


@dataclass(frozen=True)
class SaveReport:
    """Outcome of one :meth:`ServiceDispatcher.save_state` call."""

    #: Resident vectors persisted to the spill directory this call.
    names_saved: int = 0
    #: Plan-geometry rows now recorded in the manifest (cumulative).
    plan_rows: int = 0
    #: Total bytes of vector data the spill directory references.
    spilled_bytes: int = 0


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of one :meth:`ServiceDispatcher.load_state` call.

    ``plans_warmed`` counts manifest geometry rows now live in the plan bank
    (rebuilt over the spill files' mmap views, or already banked); a warmed
    row means the *serving path* records zero constructions and zero
    construction bytes for that key.  The rebuild itself runs off the
    serving path, at load time, and never re-fingerprints anything.
    """

    #: Spilled names the manifest restored (all serveable immediately).
    names: int = 0
    #: Bytes of spilled vector data backing them.
    spilled_bytes: int = 0
    #: Plan-geometry rows now banked (warm for the first dispatch).
    plans_warmed: int = 0
    #: Manifest rows skipped (unknown fingerprint, stale geometry, or an
    #: unreadable spill file) — the restore degrades, never crashes.
    plans_skipped: int = 0
    #: Query-history counts replayed into the router.
    queries_restored: int = 0


class ServiceDispatcher:
    """Route top-k query batches over a simulated multi-GPU worker fleet.

    Parameters
    ----------
    num_workers:
        Fleet size (one :class:`BatchTopK` engine per worker, one thread per
        worker in the executor pool).
    config:
        Pipeline configuration shared by the fleet.
    capacity_elements:
        Per-device sub-vector capacity; inputs above it take the sharded
        multi-GPU route (defaults to the paper's 2^30 cap — lower it in
        tests to exercise sharding on small data).
    cache_capacity:
        Entries of the shared LRU ``(n, k) → alpha`` partition cache.
    result_cache_capacity:
        Entries of the LRU result cache; ``0`` disables result caching.
    plan_bank_bytes:
        Byte budget of the cross-dispatch :class:`PlanBank`; ``0`` disables
        plan banking (every dispatch reconstructs).
    chunk_memo_bytes:
        Byte budget of the streaming :class:`ChunkMemo`; ``0`` disables
        chunk memoisation.
    store_bytes:
        Byte budget of the named-vector :class:`VectorStore` behind
        :meth:`admit` / :meth:`query`; ``0`` disables the named front end
        (anonymous :meth:`dispatch` is unaffected).
    gpus_per_node / comm_cost:
        Interconnect topology and cost model for the result gather.
    execution:
        ``"threads"`` (default) runs work units on the executor's pool,
        where they overlap only inside NumPy's GIL-free kernels and
        otherwise time-slice on the GIL; ``"sequential"`` runs them inline —
        the measured baseline.
    queue_capacity:
        Bound on in-flight work units (backpressure); defaults to
        ``2 * num_workers``.
    chunk_elements:
        Slice size for the streaming route when the input arrives as chunks.
    fused:
        Serve each plan-sharing group through the fused group selection of
        :mod:`repro.service.fusion` (one shared first top-k at the group's
        ``max(k)`` instead of one per query) on every route.  ``False``
        restores the per-query path — the differential baseline the fused
        path is certified against.
    spill_dir:
        Optional path of a durable :class:`~repro.service.spill.SpillDirectory`.
        With one attached, store eviction *spills* instead of drops (victims
        chosen cold-and-large first), queries over spilled names serve
        directly from read-only mmap views, and
        :meth:`save_state` / :meth:`load_state` persist and re-warm the whole
        working set (vectors, fingerprints, query history and banked plan
        geometry) across restarts.  Requires the named store
        (``store_bytes > 0``).
    promote_after:
        Spill hits after which a spilled name is promoted back into RAM
        (``0`` keeps serving over the mmap view forever).
    snap_tolerance:
        Modelled-cost headroom for bank-aware alpha snapping (see
        :func:`~repro.service.batch.group_queries_by_plan`); ``None``/``0``
        disables snapping.
    tenants:
        Optional :class:`~repro.service.tenancy.TenantRegistry` turning the
        serving core multi-tenant: the store partitions its working set into
        per-tenant byte ledgers (eviction victims only from the requesting
        tenant's slice), the executor counts units per tenant,
        :meth:`query` charges each tenant's QPS token bucket, and
        :meth:`evict`/:meth:`pin`/:meth:`unpin` enforce ownership for
        non-default tenants.  ``None`` (default) keeps the
        single-tenant behaviour bit-for-bit.
    """

    def __init__(
        self,
        num_workers: int = 4,
        config: Optional[DrTopKConfig] = None,
        capacity_elements: int = MAX_SUBVECTOR_ELEMENTS,
        cache_capacity: int = 128,
        result_cache_capacity: int = 256,
        plan_bank_bytes: int = DEFAULT_PLAN_BANK_BYTES,
        chunk_memo_bytes: int = DEFAULT_CHUNK_MEMO_BYTES,
        store_bytes: int = DEFAULT_STORE_BYTES,
        gpus_per_node: int = 4,
        comm_cost: Optional[CommCost] = None,
        execution: str = "threads",
        queue_capacity: Optional[int] = None,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        fused: bool = True,
        spill_dir: Optional[str] = None,
        promote_after: int = DEFAULT_PROMOTE_AFTER,
        snap_tolerance: Optional[float] = DEFAULT_ALPHA_SNAP_TOLERANCE,
        tenants: Optional[TenantRegistry] = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("num_workers must be positive")
        if capacity_elements < 1:
            raise ConfigurationError("capacity_elements must be positive")
        if result_cache_capacity < 0:
            raise ConfigurationError("result_cache_capacity must be >= 0")
        if plan_bank_bytes < 0:
            raise ConfigurationError("plan_bank_bytes must be >= 0")
        if chunk_memo_bytes < 0:
            raise ConfigurationError("chunk_memo_bytes must be >= 0")
        if store_bytes < 0:
            raise ConfigurationError("store_bytes must be >= 0")
        if chunk_elements < 1:
            raise ConfigurationError("chunk_elements must be >= 1")
        self.num_workers = int(num_workers)
        self.config = config or DrTopKConfig()
        self.capacity_elements = int(capacity_elements)
        self.gpus_per_node = int(gpus_per_node)
        self.comm_cost = comm_cost or CommCost()
        self.chunk_elements = int(chunk_elements)
        self.cache = PartitionCache(cache_capacity)
        self.results_cache: Optional[ResultCache] = (
            ResultCache(result_cache_capacity) if result_cache_capacity else None
        )
        self.plan_bank: Optional[PlanBank] = (
            PlanBank(plan_bank_bytes) if plan_bank_bytes else None
        )
        self.chunk_memo: Optional[ChunkMemo] = (
            ChunkMemo(chunk_memo_bytes) if chunk_memo_bytes else None
        )
        if spill_dir is not None and not store_bytes:
            raise ConfigurationError(
                "spill_dir requires the named-vector store (store_bytes > 0)"
            )
        self._spill: Optional[SpillDirectory] = (
            SpillDirectory(spill_dir) if spill_dir is not None else None
        )
        self._snap_tolerance = snap_tolerance
        self.tenants = tenants
        self.store: Optional[VectorStore] = (
            VectorStore(
                store_bytes,
                on_evict=self._release_vector,
                spill=self._spill,
                promote_after=promote_after,
                # Bound late: the router is created a few lines below, and
                # the hook only runs at eviction time.
                query_history=lambda fp: self.router.query_history(fp),
                tenants=tenants,
            )
            if store_bytes
            else None
        )
        self.fused = bool(fused)
        self.workers = [
            BatchTopK(
                self.config,
                cache=self.cache,
                plan_bank=self.plan_bank,
                fused=self.fused,
                snap_tolerance=snap_tolerance,
            )
            for _ in range(self.num_workers)
        ]
        self.executor = ServiceExecutor(
            max_workers=self.num_workers,
            queue_capacity=queue_capacity,
            mode=execution,
        )
        self.router = Router(
            num_workers=self.num_workers,
            capacity_elements=self.capacity_elements,
            cache=self.cache,
            plan_bank=self.plan_bank,
            snap_tolerance=snap_tolerance,
        )
        self.last_report: Optional[DispatchReport] = None

    # -- public API -----------------------------------------------------------
    def dispatch(
        self,
        v: np.ndarray,
        queries: Sequence[QueryLike],
        fingerprint: Optional[str] = None,
        shard_fingerprints: Optional[Dict[Tuple[int, int], str]] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> List[TopKResult]:
        """Answer every query against ``v``; results align with ``queries``.

        ``v`` is either a 1-D vector (batched or sharded route, by size) or
        any iterable of 1-D chunk arrays (streaming route).  ``fingerprint``
        and ``shard_fingerprints`` (when the caller already fingerprinted
        ``v`` — the named-vector :meth:`query` path) are trusted as-is and
        suppress the per-dispatch hashing; pass them only for content they
        actually describe.  ``tenant`` labels the report and attributes the
        dispatch's work units to that tenant; no quota is charged here
        (:meth:`query` charges QPS before dispatching).
        """
        parsed = [TopKQuery.of(q) for q in queries]
        report = DispatchReport(
            num_queries=len(parsed),
            num_workers=self.num_workers,
            executor_mode=self.executor.mode,
            tenant=tenant,
        )
        arena_before = arena_info()
        if not parsed:
            self._finish(report, ran_units=False, arena_before=arena_before)
            return []

        # Plain Python sequences of numbers are a vector spelled as a list
        # (ensure_1d has always coerced them); sequences of *arrays* — of
        # any, possibly ragged, lengths — mean a chunk stream.  Generators
        # and other lazy iterables are never materialised here and always
        # stream.
        if isinstance(v, (list, tuple)) and not any(isinstance(c, np.ndarray) for c in v):
            try:
                coerced = np.asarray(v)
            except ValueError:  # ragged nested sequence
                coerced = None
            if coerced is not None and coerced.ndim == 1 and coerced.dtype != object:
                v = coerced

        route = self.router.classify(v)
        if route == "streaming":
            # tenant_context (not a tenant= plumb-through): route internals
            # hand units to the executor via code that predates tenancy
            # (e.g. the fleet's topk_batch), so identity rides a thread-local.
            with self.executor.tenant_context(tenant):
                results = self._dispatch_streaming(v, parsed, report)
            self._finish(report, ran_units=True, arena_before=arena_before)
            return results

        v = ensure_1d(v)
        n = v.shape[0]
        for q in parsed:
            check_k(q.k, n)

        # One fingerprint serves both whole-result reuse and plan banking; a
        # caller-pinned fingerprint (named vectors) skips the hash entirely.
        results: List[Optional[TopKResult]] = [None] * len(parsed)
        if fingerprint is None and (
            self.results_cache is not None or self.plan_bank is not None
        ):
            fingerprint = fingerprint_array(v)
        pending = list(range(len(parsed)))
        if self.results_cache is not None and fingerprint is not None:
            pending = []
            for pos, q in enumerate(parsed):
                hit = self.results_cache.get(fingerprint, q.k, q.largest)
                if hit is not None:
                    results[pos] = hit
                    report.result_cache_hits += 1
                else:
                    pending.append(pos)

        if pending:
            sub_parsed = [parsed[p] for p in pending]
            with self.executor.tenant_context(tenant):
                if route == "sharded":
                    sub_results = self._dispatch_sharded(v, sub_parsed, report, shard_fingerprints)
                else:
                    sub_results = self._dispatch_batched(
                        v, sub_parsed, report, fingerprint
                    )
            for pos, res in zip(pending, sub_results):
                results[pos] = res
                if self.results_cache is not None and fingerprint is not None:
                    self.results_cache.put(fingerprint, parsed[pos].k, parsed[pos].largest, res)
        else:
            report.route = "cached"

        self._finish(report, ran_units=bool(pending), arena_before=arena_before)
        final = [r for r in results if r is not None]
        if len(final) != len(parsed):
            raise ConfigurationError("internal error: dispatcher lost queries")
        return final

    # -- named-vector front end ------------------------------------------------
    def admit(
        self,
        name: str,
        vector: Optional[np.ndarray] = None,
        pin: bool = False,
        warm: Optional[Sequence[QueryLike]] = None,
        warm_mode: str = "dispatch",
        tenant: str = DEFAULT_TENANT,
    ) -> StoredVector:
        """Admit one named vector into the serving working set.

        The vector is made read-only (the fingerprint's immutability caveat,
        enforced) and fingerprinted **once** — the whole vector, plus one
        fingerprint per shard when it exceeds the device capacity — so no
        later :meth:`query` ever re-hashes it.  ``warm`` (optional) names
        queries to serve immediately at admission: their plans land in the
        :class:`PlanBank`, so even the *first* external query with any
        same-``alpha`` ``k`` is zero-rescan.  Warm queries are an internal
        admission cost, so they never charge the tenant's QPS bucket.
        ``tenant`` records ownership in the store's per-tenant byte ledger;
        re-admitting a spilled name with the default tenant inherits the
        tenant recorded in the spill manifest.  ``warm_mode`` picks how:
        ``"dispatch"`` (default) serves the warm queries end to end,
        ``"prepare"`` only *constructs and banks* their plans — per shard on
        the sharded route — without routing, executing, or producing results
        (cheaper, and available before the executor has ever spun up).
        Re-admitting a name with changed content replaces the entry and
        releases the old content's cached plans/results.

        With a spill directory attached, ``vector=None`` re-admits a
        previously spilled ``name`` from disk: content, fingerprints, and
        query history come from the manifest, and any plan geometry recorded
        for the content is rebuilt — zero ``fingerprint_array`` calls.
        """
        if self.store is None:
            raise ConfigurationError(
                "the named-vector store is disabled (store_bytes=0)"
            )
        if warm_mode not in ("dispatch", "prepare"):
            raise ConfigurationError(
                f"warm_mode must be 'dispatch' or 'prepare', got {warm_mode!r}"
            )
        if vector is None:
            entry = self.store.admit(name, pin=pin, tenant=tenant)
            self._rewarm_plans(entry)
        else:
            vector = ensure_1d(vector)
            shard_fps: Optional[Dict[Tuple[int, int], str]] = None
            if vector.shape[0] > self.capacity_elements:
                # The sharded route banks plans per shard, keyed by the
                # shard's own fingerprint — precompute them against the exact
                # partition topk_batch will use, so warm sharded queries hash
                # nothing.
                from repro.distributed.partition import plan_partition

                plan = plan_partition(
                    vector.shape[0], self.num_workers, self.capacity_elements
                )
                shard_fps = {
                    (start, stop): fingerprint_array(vector[start:stop])
                    for start, stop in plan.subvector_bounds
                }
            entry = self.store.admit(
                name, vector, shard_fingerprints=shard_fps, pin=pin, tenant=tenant
            )
        if warm:
            if warm_mode == "prepare":
                self._warm_prepare(entry, [TopKQuery.of(q) for q in warm])
            else:
                # Internal serve path: same accounting as query(), minus the
                # QPS charge — warming is an admission cost, not tenant load.
                self._serve_named(name, list(warm), tenant)
        return entry

    def query(
        self,
        name: str,
        queries: Sequence[QueryLike],
        tenant: str = DEFAULT_TENANT,
    ) -> List[TopKResult]:
        """Answer queries against an admitted vector, zero re-fingerprinting.

        ``queries`` is a sequence of :class:`~repro.service.batch.TopKQuery`
        coercibles, or a single one (a bare ``k``, a ``(k, largest)`` tuple,
        or a :class:`TopKQuery`) which is wrapped; the return value is always
        a list aligned with the (wrapped) queries.  The admitted entry's
        pinned fingerprint(s) route the dispatch, so a warm query does zero
        fingerprint work on top of its zero-rescan plan reuse; per-name hit
        history feeds the router's placement affinity.

        With a :class:`~repro.service.tenancy.TenantRegistry` configured,
        ``tenant`` is charged one QPS token per query *before* any dispatch
        work starts — a rejected burst raises
        :class:`~repro.errors.TenantQuotaError` with zero half-served state.
        A batch with more queries than the tenant's ``burst`` can never pass
        and raises :class:`~repro.errors.ConfigurationError` instead.
        """
        if isinstance(queries, (int, np.integer, tuple, TopKQuery)):
            queries = [queries]
        queries = list(queries)
        if self.tenants is not None:
            self.tenants.acquire(tenant, tokens=float(len(queries)))
        return self._serve_named(name, queries, tenant)

    def _serve_named(
        self, name: str, queries: List[QueryLike], tenant: str
    ) -> List[TopKResult]:
        """Serve an admitted name end to end — shared by query() and warming.

        Quota-free: the caller decides whether the QPS bucket is charged
        (:meth:`query` does, admission warming does not).  Everything else —
        store hit accounting, spill-serve surfacing, router affinity — is
        identical on both paths.
        """
        entry = self._stored(name)
        results = self.dispatch(
            entry.vector,
            queries,
            fingerprint=entry.fingerprint,
            shard_fingerprints=entry.shard_fingerprints,
            tenant=tenant,
        )
        assert self.store is not None
        if not entry.resident and self.last_report is not None:
            # Served straight off the read-only mmap view of the spill tier —
            # surfaced so callers can watch the out-of-core fraction.
            self.last_report.spill_serves = len(results)
        self.store.note_queries(name, len(results))
        self.router.note_queries(entry.fingerprint, len(results), tenant=tenant)
        return results

    def evict(
        self, name: str, spill: Optional[bool] = None, tenant: str = DEFAULT_TENANT
    ) -> bool:
        """Remove one named vector; its banked plans/results are released.

        Returns whether the name was known.  The release is observable: the
        :class:`PlanBank`'s ``CacheInfo.bytes`` drops by the invalidated
        plans' sizes (unless another admitted name shares the content).
        ``spill`` picks the tier semantics when a spill directory is
        attached: ``None`` (default) demotes to the spill tier, ``True``
        requires it, ``False`` hard-drops the name from RAM *and* disk.
        With a tenant registry, a non-default ``tenant`` may only evict its
        own names (the default tenant is the operator identity and may evict
        anything).
        """
        if self.store is None:
            raise ConfigurationError(
                "the named-vector store is disabled (store_bytes=0)"
            )
        self._assert_owner(name, tenant, "evict")
        return self.store.evict(name, spill=spill) is not None

    def pin(self, name: str, tenant: str = DEFAULT_TENANT) -> None:
        """Exempt a named vector from the store's byte-budget eviction.

        Deliberately not a :meth:`_stored` lookup: pinning is not a query,
        so it must neither promote the entry in the LRU nor count as a
        store hit (the store raises its own error for unknown names).
        A non-default ``tenant`` may only pin its own names, and only up to
        its policy's pin allowance.
        """
        if self.store is None:
            raise ConfigurationError(
                "the named-vector store is disabled (store_bytes=0)"
            )
        self._assert_owner(name, tenant, "pin")
        self.store.pin(name)

    def unpin(self, name: str, tenant: str = DEFAULT_TENANT) -> None:
        """Return a named vector to normal LRU eviction."""
        if self.store is None:
            raise ConfigurationError(
                "the named-vector store is disabled (store_bytes=0)"
            )
        self._assert_owner(name, tenant, "unpin")
        self.store.unpin(name)

    def _assert_owner(self, name: str, tenant: str, action: str) -> None:
        """Reject a non-default tenant acting on a name it does not own.

        Active only when a tenant registry is configured *and* the caller
        identified as a non-default tenant: the default tenant doubles as
        the operator identity (and is the identity of every pre-tenancy
        caller), so it retains full reach.  Unknown names fall through to
        the store's own, richer error.
        """
        if self.tenants is None or tenant == DEFAULT_TENANT:
            return
        assert self.store is not None
        owner = self.store.owner(name)
        if owner is not None and owner != tenant:
            self.tenants.note_rejection(tenant)
            raise TenantQuotaError(
                f"tenant {tenant!r} may not {action} {name!r}: "
                f"it is owned by tenant {owner!r}"
            )

    def _stored(self, name: str) -> StoredVector:
        """The admitted entry for ``name``, or a descriptive error."""
        if self.store is None:
            raise ConfigurationError(
                "the named-vector store is disabled (store_bytes=0)"
            )
        entry = self.store.get(name)
        if entry is None:
            raise ConfigurationError(
                f"no vector named {name!r} is admitted (admit() it first, "
                "or it was evicted)"
            )
        return entry

    def _release_vector(self, entry: StoredVector) -> None:
        """Store-eviction cascade: drop the content's cached serving state.

        Skips fingerprints still served by another resident name (aliased
        admissions of identical content keep their shared plans).  When the
        evicted content was just demoted to the spill tier, the plans'
        *geometry* (alpha/largest/beta) is recorded in the spill manifest
        first, so a later re-admission rebuilds them without re-tuning.
        """
        if self._spill is not None and self.plan_bank is not None:
            spilled = self._spill.get(entry.name)
            if spilled is not None and spilled.fingerprint == entry.fingerprint:
                rows = self.plan_bank.manifest_rows(entry.fingerprints())
                if rows:
                    self._spill.record_plans(rows)
        live = self.store.live_fingerprints() if self.store is not None else set()
        for fp in entry.fingerprints():
            if fp in live:
                continue
            if self.plan_bank is not None:
                self.plan_bank.invalidate(fp)
            if self.results_cache is not None:
                self.results_cache.invalidate(fp)
            self.router.forget(fp)

    # -- spill tier: admission warming and warm restart ------------------------
    def _warm_prepare(
        self, entry: StoredVector, parsed: List[TopKQuery]
    ) -> None:
        """Bank the warm queries' plans at admission without dispatching.

        The ``warm_mode="prepare"`` counterpart of a full warm dispatch:
        plans are constructed (or found banked) per plan-sharing group — per
        shard on the sharded route, keyed by the exact shard fingerprints a
        later dispatch will use — but nothing is routed, executed, or
        returned.  Accounting lands in ``last_report`` under the
        ``"admit-warm"`` route so the warm cost stays observable.
        """
        if self.plan_bank is None:
            raise ConfigurationError(
                "warm_mode='prepare' requires the plan bank "
                "(plan_bank_bytes > 0)"
            )
        report = DispatchReport(
            num_queries=len(parsed),
            num_workers=self.num_workers,
            route="admit-warm",
            executor_mode=self.executor.mode,
        )
        engine = self.workers[0].engine
        if entry.shard_fingerprints:
            shards = sorted(entry.shard_fingerprints.items())
        else:
            shards = [((0, int(entry.vector.shape[0])), entry.fingerprint)]
        for (start, stop), fp in shards:
            view = entry.vector[start:stop]
            groups = group_queries_by_plan(
                parsed,
                int(stop - start),
                self.cache,
                engine,
                plan_bank=self.plan_bank,
                fingerprint=fp,
                snap_tolerance=self._snap_tolerance,
            )
            offset = start if entry.shard_fingerprints else 0
            for (alpha, largest), positions in groups.items():
                min_k = min(parsed[p].k for p in positions)
                self._warm_one(fp, view, alpha, largest, min_k, offset, report)
        self._finish(report, ran_units=False)

    def _warm_one(
        self,
        fingerprint: str,
        view: np.ndarray,
        alpha: int,
        largest: bool,
        min_k: int,
        offset: int,
        report: DispatchReport,
    ) -> None:
        """Fetch-or-build one ``(fingerprint, alpha, largest)`` banked plan."""
        assert self.plan_bank is not None
        engine = self.workers[0].engine

        def build() -> QueryPlan:
            return engine.prepare_with_alpha(
                view, alpha, largest=largest, k=min_k, offset=offset
            )

        plan, constructed = self.plan_bank.shared(
            fingerprint, alpha, largest, engine.config.beta, build
        )
        if constructed and not plan.is_degenerate:
            report.constructions += 1
            report.construction_bytes += plan.construction_bytes
        elif not constructed:
            report.plan_bank_hits += 1

    def _rewarm_plans(self, entry: StoredVector) -> Tuple[int, int]:
        """Rebuild the manifest's plan geometry for one re-admitted entry.

        Returns ``(warmed, skipped)``.  Rebuilding goes through the same
        :meth:`PlanBank.shared` fetch-or-build primitive admission uses, with
        ``k=None`` (never degenerate), so the first query after re-admission
        is a plan-bank hit with zero construction bytes.
        """
        if self._spill is None or self.plan_bank is None:
            return (0, 0)
        rows = self._spill.plans_for(entry.fingerprints())
        if not rows:
            return (0, 0)
        sources: Dict[str, Tuple[np.ndarray, int]] = {
            entry.fingerprint: (entry.vector, 0)
        }
        if entry.shard_fingerprints:
            for (start, stop), fp in entry.shard_fingerprints.items():
                sources[fp] = (entry.vector[start:stop], int(start))
        return self._rebuild_plan_rows(rows, sources)

    def _rebuild_plan_rows(
        self,
        rows: List[dict],
        sources: Dict[str, Tuple[np.ndarray, int]],
    ) -> Tuple[int, int]:
        """Rebuild manifest plan rows over the given content views.

        A row is *skipped* (never fatal) when its fingerprint has no source
        view, its recorded geometry disagrees with the view (length, offset)
        or with the current configuration's ``beta``, or the rebuild itself
        refuses — manifest rows written by a different configuration must
        not poison the bank.
        """
        assert self.plan_bank is not None
        engine = self.workers[0].engine
        warmed = skipped = 0
        for row in rows:
            fp = str(row.get("fingerprint", ""))
            source = sources.get(fp)
            if source is None:
                skipped += 1
                continue
            view, view_offset = source
            try:
                alpha = int(row["alpha"])
                largest = bool(row["largest"])
                beta = int(row["beta"])
                n = int(row["n"])
                offset = int(row["offset"])
            except (KeyError, TypeError, ValueError):
                skipped += 1
                continue
            if (
                alpha < 0
                or n != int(view.shape[0])
                or offset != int(view_offset)
                or beta != min(int(engine.config.beta), 1 << alpha)
            ):
                skipped += 1
                continue

            def build(
                view: np.ndarray = view,
                alpha: int = alpha,
                largest: bool = largest,
                offset: int = offset,
            ) -> QueryPlan:
                return engine.prepare_with_alpha(
                    view, alpha, largest=largest, offset=offset
                )

            try:
                self.plan_bank.shared(
                    fp, alpha, largest, engine.config.beta, build
                )
            except (ConfigurationError, ValueError):
                skipped += 1
                continue
            warmed += 1
        return (warmed, skipped)

    def save_state(self) -> SaveReport:
        """Persist the resident working set into the spill directory.

        Every resident entry is written (content-addressed, so unchanged
        content already on disk is not rewritten) with its fingerprints and
        accumulated query history, and the plan bank's live geometry for the
        spilled content is recorded in the manifest.  After this call a new
        process pointed at the same ``spill_dir`` can :meth:`load_state` and
        serve its first dispatch with zero ``fingerprint_array`` calls and
        zero construction bytes.
        """
        if self.store is None or self._spill is None:
            raise ConfigurationError(
                "save_state() requires a spill directory (spill_dir=...)"
            )
        names = 0
        for entry in self.store.snapshot():
            self._spill.store(
                entry.name,
                np.asarray(entry.vector),
                entry.fingerprint,
                shard_fingerprints=entry.shard_fingerprints,
                queries=max(
                    int(entry.queries),
                    int(self.router.query_history(entry.fingerprint)),
                ),
                tenant=entry.tenant,
            )
            names += 1
        plan_rows = 0
        if self.plan_bank is not None:
            known: set = set()
            for se in self._spill.entries().values():
                known.update(se.fingerprints())
            plan_rows = self._spill.record_plans(
                self.plan_bank.manifest_rows(known)
            )
        info = self._spill.info()
        return SaveReport(
            names_saved=names,
            plan_rows=plan_rows,
            spilled_bytes=info.spilled_bytes,
        )

    def load_state(self, warm_plans: bool = True) -> RestoreReport:
        """Warm-restart from the spill directory — zero re-fingerprinting.

        Re-reads the manifest, restores each spilled name's query history
        into the router's placement affinity, and (``warm_plans``) rebuilds
        the recorded plan geometry over the spill files' read-only mmap
        views, hottest content first.  Nothing is copied into RAM and
        nothing is hashed: fingerprints come from the manifest, plans from
        :func:`~repro.core.drtopk.DrTopK.prepare_with_alpha` over the mmap.
        Spilled names are immediately queryable (served over mmap, promoted
        on hotness) or re-admittable via ``admit(name)``.
        """
        if self.store is None or self._spill is None:
            raise ConfigurationError(
                "load_state() requires a spill directory (spill_dir=...)"
            )
        self._spill.reload()
        entries = sorted(
            self._spill.entries().values(), key=lambda e: (-e.queries, e.name)
        )
        restored = 0
        for se in entries:
            if se.queries:
                self.router.note_queries(se.fingerprint, int(se.queries))
                restored += int(se.queries)
        warmed = skipped = 0
        if warm_plans and self.plan_bank is not None:
            for se in entries:
                rows = self._spill.plans_for(se.fingerprints())
                if not rows:
                    continue
                loaded = self._spill.load(se.name)
                if loaded is None:
                    skipped += len(rows)
                    continue
                se, view = loaded
                sources: Dict[str, Tuple[np.ndarray, int]] = {
                    se.fingerprint: (view, 0)
                }
                if se.shard_fingerprints:
                    for (start, stop), fp in se.shard_fingerprints.items():
                        sources[fp] = (view[start:stop], int(start))
                w, s = self._rebuild_plan_rows(rows, sources)
                warmed += w
                skipped += s
        info = self._spill.info()
        return RestoreReport(
            names=info.entries,
            spilled_bytes=info.spilled_bytes,
            plans_warmed=warmed,
            plans_skipped=skipped,
            queries_restored=restored,
        )

    @property
    def spill(self) -> Optional[SpillDirectory]:
        """The attached spill directory, or ``None``."""
        return self._spill

    def shutdown(self) -> None:
        """Stop the executor's worker threads.

        The dispatcher stays usable afterwards: the pool re-spawns on demand
        and admitted vectors keep serving.
        """
        self.executor.shutdown()

    def __enter__(self) -> "ServiceDispatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- shared bookkeeping ----------------------------------------------------
    def _finish(
        self,
        report: DispatchReport,
        ran_units: bool,
        arena_before: Optional[ArenaInfo] = None,
    ) -> None:
        """Attach cache and measured-executor statistics, publish the report."""
        exec_report = self.executor.last_report
        if exec_report is not None and ran_units:
            report.wall_ms = exec_report.wall_ms
            report.unit_wall_ms_sum = exec_report.unit_wall_ms_sum
            report.unit_queue_ms_sum = exec_report.unit_queue_ms_sum
            report.max_unit_queue_ms = exec_report.max_unit_queue_ms
            report.backpressure_waits = exec_report.backpressure_waits
        report.arena = arena_after = arena_info()
        if arena_before is not None:
            report.arena_hits = arena_after.hits - arena_before.hits
            report.arena_misses = arena_after.misses - arena_before.misses
            report.arena_resizes = arena_after.resizes - arena_before.resizes
        report.cache = self.cache.info()
        if self.results_cache is not None:
            report.result_cache = self.results_cache.info()
        if self.plan_bank is not None:
            report.plan_bank = self.plan_bank.info()
        if self.chunk_memo is not None:
            report.chunk_memo = self.chunk_memo.info()
        if self.store is not None:
            report.store = self.store.info()
        self.last_report = report

    # -- batched route ------------------------------------------------------------
    def _dispatch_batched(
        self,
        v: np.ndarray,
        parsed: List[TopKQuery],
        report: DispatchReport,
        fingerprint: Optional[str] = None,
    ) -> List[TopKResult]:
        report.route = "batched"
        units, bplan = self.router.batched_units(
            v, parsed, self.workers, fingerprint=fingerprint
        )
        outcomes = self.executor.run(units)

        results: List[Optional[TopKResult]] = [None] * len(parsed)
        by_worker: Dict[int, UnitResult] = {o.unit.worker: o for o in outcomes}
        worker_values: List[np.ndarray] = []
        worker_indices: List[np.ndarray] = []
        for w, positions in enumerate(bplan.placement):
            wreport = WorkerReport(worker=w, queries=len(positions))
            outcome = by_worker.get(w)
            if outcome is not None:
                positions, sub_results, batch_report = outcome.value
                for pos, res in zip(positions, sub_results):
                    results[pos] = res
                wreport.groups = batch_report.num_groups
                wreport.constructions += batch_report.constructions
                wreport.compute_ms += batch_report.total_ms
                wreport.bytes_moved += batch_report.total_bytes
                wreport.wall_ms = outcome.wall_ms
                report.plan_bank_hits += batch_report.plan_bank_hits
                report.construction_bytes += batch_report.construction_bytes
                report.selection_calls += batch_report.selection_calls
                report.fused_groups += batch_report.fused_groups
                report.fused_queries += batch_report.fused_queries
                for name, ms in batch_report.fusion_stage_ms.items():
                    report.fusion_stage_ms[name] = (
                        report.fusion_stage_ms.get(name, 0.0) + ms
                    )
                worker_values.append(np.concatenate([r.values for r in sub_results]))
                worker_indices.append(np.concatenate([r.indices for r in sub_results]))
            else:
                worker_values.append(np.empty(0, dtype=v.dtype))
                worker_indices.append(np.empty(0, dtype=np.int64))
            report.workers.append(wreport)
            report.constructions += wreport.constructions
            report.bytes_moved += wreport.bytes_moved

        # Gather every worker's answers on the primary (asynchronous, like
        # the Figure 16 result collection).
        comm = SimulatedComm(
            num_ranks=self.num_workers,
            gpus_per_node=self.gpus_per_node,
            cost=self.comm_cost,
        )
        comm.gather(worker_values, root=0, asynchronous=True)
        comm.gather(worker_indices, root=0, asynchronous=True)
        report.communication_ms = comm.total_comm_ms
        report.bytes_moved += float(
            sum(
                worker_values[w].nbytes + worker_indices[w].nbytes
                for w in range(1, self.num_workers)
            )
        )

        final = [r for r in results if r is not None]
        if len(final) != len(parsed):
            raise ConfigurationError("internal error: dispatcher lost queries")
        return final

    # -- sharded route ------------------------------------------------------------
    def _dispatch_sharded(
        self,
        v: np.ndarray,
        parsed: List[TopKQuery],
        report: DispatchReport,
        shard_fingerprints: Optional[Dict[Tuple[int, int], str]] = None,
    ) -> List[TopKResult]:
        report.route = "sharded"
        fleet = MultiGpuDrTopK(
            num_gpus=self.num_workers,
            config=self.config,
            capacity_elements=self.capacity_elements,
            gpus_per_node=self.gpus_per_node,
            comm_cost=self.comm_cost,
            fused=self.fused,
        )
        results, mreport = fleet.topk_batch(
            v,
            parsed,
            cache=self.cache,
            executor=self.executor,
            plan_bank=self.plan_bank,
            shard_fingerprints=shard_fingerprints,
        )
        report.communication_ms = mreport.communication_ms
        report.constructions = mreport.constructions
        report.construction_bytes = mreport.construction_bytes
        report.plan_bank_hits += mreport.plan_bank_hits
        report.selection_calls += mreport.selection_calls
        report.fused_groups += mreport.fused_groups
        report.fused_queries += mreport.fused_queries
        # A sharded dispatch moves real traffic: the per-shard pipeline bytes
        # (construction + query passes) plus the candidate gather.
        report.bytes_moved = (
            mreport.construction_bytes + mreport.query_bytes + mreport.gather_bytes
        )
        for outcome in mreport.per_gpu:
            wreport = WorkerReport(
                worker=outcome.gpu,
                queries=len(parsed),
                groups=outcome.groups,
                constructions=outcome.constructions,
                compute_ms=outcome.compute_ms + outcome.reload_ms,
                bytes_moved=outcome.construction_bytes + outcome.query_bytes,
                wall_ms=outcome.wall_ms,
            )
            if outcome.gpu == 0:
                # The primary also runs every query's final top-k.
                wreport.compute_ms += mreport.final_topk_ms
            report.workers.append(wreport)
        return results

    # -- streaming route ----------------------------------------------------------
    def _dispatch_streaming(
        self,
        chunks: Union[np.ndarray, Iterable[np.ndarray]],
        parsed: List[TopKQuery],
        report: DispatchReport,
    ) -> List[TopKResult]:
        report.route = "streaming"

        def make_engine() -> BatchTopK:
            # Units for one worker may overlap in the pool, so each unit gets
            # a fresh engine; the alpha cache is the shared state.
            return BatchTopK(self.config, cache=self.cache, fused=self.fused)

        units = self.router.streaming_units(
            chunks, parsed, self.chunk_elements, make_engine, chunk_memo=self.chunk_memo
        )
        outcomes = self.executor.run(units)

        worker_reports = [WorkerReport(worker=w) for w in range(self.num_workers)]
        comm = SimulatedComm(
            num_ranks=self.num_workers,
            gpus_per_node=self.gpus_per_node,
            cost=self.comm_cost,
        )
        pools: List[Tuple[Optional[np.ndarray], np.ndarray]] = [
            (None, np.empty(0, dtype=np.int64)) for _ in parsed
        ]
        total_elements = 0
        for outcome in outcomes:
            offset, length, by_largest, chunk_report, memo_hits = outcome.value
            total_elements += length
            w = outcome.unit.worker
            wrep = worker_reports[w]
            wrep.queries += 1  # one chunk unit
            wrep.wall_ms += outcome.wall_ms
            report.chunk_memo_hits += memo_hits
            # A fully memoised chunk ran no pipeline at all: no report, no
            # constructions, zero bytes — the streaming zero-rescan path.
            if chunk_report is not None:
                wrep.groups += chunk_report.num_groups
                wrep.constructions += chunk_report.constructions
                wrep.compute_ms += chunk_report.total_ms
                wrep.bytes_moved += chunk_report.total_bytes
                report.construction_bytes += chunk_report.construction_bytes
                report.selection_calls += chunk_report.selection_calls
                report.fused_groups += chunk_report.fused_groups
                report.fused_queries += chunk_report.fused_queries
                for name, ms in chunk_report.fusion_stage_ms.items():
                    report.fusion_stage_ms[name] = (
                        report.fusion_stage_ms.get(name, 0.0) + ms
                    )
            # The chunk's candidates travel from its worker to the primary.
            for local in by_largest.values():
                if w != 0:
                    comm.send(local.values, src=w, dst=0)
                    comm.send(local.indices, src=w, dst=0)
                    report.bytes_moved += float(local.values.nbytes + local.indices.nbytes)
            # Merge into each query's candidate pool on the primary.
            for pos, q in enumerate(parsed):
                local = by_largest[q.largest]
                pool_v, pool_i = pools[pos]
                pools[pos] = merge_candidate_pool(
                    pool_v, pool_i, local.values, local.indices + offset, q.k, q.largest
                )

        if total_elements == 0:
            raise ConfigurationError("streaming dispatch received no data")
        for q in parsed:
            if q.k > total_elements:
                raise ConfigurationError(
                    f"k={q.k} exceeds the {total_elements} elements streamed"
                )

        results: List[TopKResult] = []
        for pos, q in enumerate(parsed):
            pool_v, pool_i = pools[pos]
            assert pool_v is not None
            values, global_idx, finalize_bytes = order_candidate_pool(
                pool_v, pool_i, q.k, q.largest, self.config
            )
            report.bytes_moved += finalize_bytes
            results.append(
                TopKResult(values=values, indices=global_idx, k=q.k, largest=q.largest)
            )

        for wrep in worker_reports:
            report.workers.append(wrep)
            report.constructions += wrep.constructions
            report.bytes_moved += wrep.bytes_moved
        report.communication_ms = comm.total_comm_ms
        return results


def dispatch_topk(
    v: np.ndarray,
    queries: Sequence[QueryLike],
    num_workers: int = 4,
    config: Optional[DrTopKConfig] = None,
    **kwargs: Any,
) -> Tuple[List[TopKResult], DispatchReport]:
    """One-call convenience: dispatch a batch and return results + report."""
    dispatcher = ServiceDispatcher(num_workers=num_workers, config=config, **kwargs)
    results = dispatcher.dispatch(v, queries)
    assert dispatcher.last_report is not None
    return results, dispatcher.last_report
