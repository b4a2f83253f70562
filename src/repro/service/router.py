"""Request classification and per-worker work-unit emission.

The :class:`Router` is the decision layer of the unified execution core: it
looks at one request (a vector or a chunk stream, plus its queries) and
decides which route serves it —

* **batched** — the vector fits one device's sub-vector capacity; queries are
  grouped by the plan they can share (same resolved ``alpha`` and key order,
  the :func:`~repro.service.batch.group_queries_by_plan` definition) and
  groups are placed on workers with a greedy least-loaded assignment.
  Placement is **work-weighted**, not query-counted: a group's weight is its
  expected element workload from ``k``, ``alpha`` and the plan-bank hit state
  (a bank-hit group costs its queries only; a cold group additionally pays
  the O(n) construction scan), so one cold group no longer lands on the same
  worker as a pile of cheap bank-hit groups just because the query counts
  matched.  A group always stays whole on one worker, so it pays one plan
  fetch or construction and one fused selection pass (see
  :mod:`repro.service.fusion`); the paper's multi-GPU workflow splits the
  *vector*, which is the sharded route, never a query group;
* **sharded** — the vector exceeds the capacity; every worker becomes one GPU
  of the Figure 16 multi-GPU workflow and the batch runs with per-shard plan
  reuse through :meth:`~repro.distributed.multigpu.MultiGpuDrTopK.topk_batch`;
* **streaming** — the input is not an in-memory vector but an iterable of
  chunks; each chunk becomes one work unit on the next worker round-robin and
  the candidate pools merge on the primary.

The router only *describes* work (as :class:`~repro.service.executor.WorkUnit`
closures); the :class:`~repro.service.executor.ServiceExecutor` runs it and
:class:`~repro.service.dispatcher.ServiceDispatcher` merges the outcomes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.service.batch import (
    DEFAULT_ALPHA_SNAP_TOLERANCE,
    BatchTopK,
    TopKQuery,
    group_queries_by_plan,
)
from repro.service.cache import PartitionCache, fingerprint_array
from repro.service.executor import WorkUnit
from repro.service.planbank import ChunkMemo, PlanBank
from repro.service.tenancy import DEFAULT_TENANT
from repro.types import TopKResult
from repro.utils import ceil_div

__all__ = ["Router", "BatchedPlan"]

#: Route names emitted by :meth:`Router.classify`.
ROUTES = ("batched", "sharded", "streaming")

#: What one streaming work unit returns: ``(offset, length, {largest: result},
#: engine report or None, memo hits)``.
_ChunkOutcome = Tuple[int, int, Dict[bool, TopKResult], Any, int]

#: Load slack (as a fraction of the dispatch's total weight) within which
#: placement prefers a repeat vector's remembered worker over the strictly
#: least-loaded one.
AFFINITY_SLACK = 0.25

#: Upper bound on remembered per-fingerprint affinity entries (anonymous
#: dispatches record affinity too; without a cap a long-running service
#: would accrete one entry per distinct vector ever dispatched).
_AFFINITY_CAP = 4096


@dataclass
class BatchedPlan:
    """Placement plan of one batched dispatch (:meth:`Router.plan_batched`)."""

    #: Query positions per worker (the merge contract: every position
    #: appears exactly once, on exactly one worker).
    placement: List[List[int]]
    #: Modelled per-worker load the placement produced.
    loads: List[float]
    total_weight: float = 0.0


class Router:
    """Classify requests and emit per-worker :class:`WorkUnit`\\ s.

    Parameters
    ----------
    num_workers:
        Fleet size placements are computed for.
    capacity_elements:
        Per-device sub-vector capacity separating the batched and sharded
        routes.
    cache:
        Shared :class:`PartitionCache` used for the grouping's ``alpha``
        resolution (so routing warms the same cache the engines use).
    plan_bank:
        Optional shared :class:`PlanBank`; when given, placement peeks at
        each group's bank hit state (without perturbing the LRU) and weighs
        bank-hit groups without their construction scan.
    snap_tolerance:
        Modelled-cost headroom for bank-aware alpha snapping in the
        placement grouping (must match the workers' tolerance so placement
        and execution agree on the groups); ``None``/``0`` disables it.
    """

    def __init__(
        self,
        num_workers: int,
        capacity_elements: int,
        cache: PartitionCache,
        plan_bank: Optional[PlanBank] = None,
        snap_tolerance: Optional[float] = DEFAULT_ALPHA_SNAP_TOLERANCE,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("num_workers must be positive")
        if capacity_elements < 1:
            raise ConfigurationError("capacity_elements must be positive")
        self.num_workers = int(num_workers)
        self.capacity_elements = int(capacity_elements)
        self.cache = cache
        self.plan_bank = plan_bank
        self.snap_tolerance = snap_tolerance
        # Per-name (per-fingerprint) serving history: how many queries each
        # content has answered, and which worker its heaviest group last
        # landed on.  The named-vector front end feeds the history; placement
        # uses it to keep a repeat vector's groups on a stable worker.
        self._history_lock = threading.Lock()
        self._query_history: Dict[str, int] = {}
        self._affinity: Dict[str, int] = {}
        self._tenant_history: Dict[str, int] = {}

    # -- per-name serving history ----------------------------------------------
    def note_queries(
        self, fingerprint: str, count: int, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Record ``count`` served queries against one vector's fingerprint.

        ``tenant`` additionally accrues the count in a per-tenant total —
        an observability ledger (who drove the traffic), deliberately *not*
        dropped by :meth:`forget` when content leaves the working set.
        """
        with self._history_lock:
            self._query_history[fingerprint] = (
                self._query_history.get(fingerprint, 0) + int(count)
            )
            self._tenant_history[tenant] = (
                self._tenant_history.get(tenant, 0) + int(count)
            )

    def query_history(self, fingerprint: str) -> int:
        """Queries previously recorded against the fingerprint."""
        with self._history_lock:
            return self._query_history.get(fingerprint, 0)

    def tenant_history(self, tenant: str) -> int:
        """Queries previously recorded as driven by ``tenant``."""
        with self._history_lock:
            return self._tenant_history.get(tenant, 0)

    def forget(self, fingerprint: str) -> None:
        """Drop one fingerprint's history and affinity (store-eviction cascade)."""
        with self._history_lock:
            self._query_history.pop(fingerprint, None)
            self._affinity.pop(fingerprint, None)

    # -- classification --------------------------------------------------------
    def classify(self, v: np.ndarray) -> str:
        """Name the route serving ``v``: batched, sharded or streaming.

        In-memory 1-D vectors route by size against the device capacity;
        anything else iterable (a generator of chunks, a list of arrays) is a
        chunked input and takes the streaming route.
        """
        if isinstance(v, np.ndarray):
            if v.ndim != 1:
                raise ConfigurationError(
                    f"expected a 1-D vector or an iterable of chunks, got shape {v.shape}"
                )
            if v.shape[0] > self.capacity_elements:
                return "sharded"
            return "batched"
        if hasattr(v, "__iter__") or hasattr(v, "__next__"):
            return "streaming"
        raise ConfigurationError(
            f"cannot route input of type {type(v).__name__}; "
            "expected a numpy vector or an iterable of chunks"
        )

    # -- batched-route emission ------------------------------------------------
    def expected_query_work(self, n: int, k: int, alpha: int, beta: int) -> float:
        """Expected element workload of one query over a prepared plan.

        The per-query share of :meth:`expected_group_work`: the first top-k
        over the delegate vector plus a ``k``-proportional
        concatenation/second-pass term.
        """
        if n < 1:
            raise ConfigurationError("n must be positive")
        if k < 1:
            raise ConfigurationError(f"query work is undefined for k={k}; k must be >= 1")
        if alpha < 0:
            raise ConfigurationError("alpha must be >= 0")
        if beta < 1:
            raise ConfigurationError("beta must be >= 1")
        num_subranges = ceil_div(int(n), 1 << int(alpha))
        m = min(num_subranges * int(beta), int(n))  # delegate-vector size
        return float(m + 4 * int(k))

    def expected_group_work(
        self,
        n: int,
        ks: Sequence[int],
        alpha: int,
        beta: int,
        bank_hit: bool,
    ) -> float:
        """Expected element workload of one plan-sharing group.

        The dominant costs of the pipeline, in input elements: a cold group
        pays the one-time construction (a full scan of ``n`` plus the
        delegate stores), every query then pays the first top-k over the
        delegate vector plus a ``k``-proportional concatenation/second-pass
        term.  A bank-hit group skips the construction term entirely — the
        whole point of weighting placement by work instead of query count.

        The result is always non-negative and monotone in the query list:
        adding a query never lowers a group's weight.  An empty group weighs
        nothing (no queries means no construction is triggered either), and
        invalid geometry (``n < 1``, any ``k < 1``, ``alpha < 0``,
        ``beta < 1``) raises instead of silently producing negative or
        meaningless weights.
        """
        if n < 1:
            raise ConfigurationError("n must be positive")
        if alpha < 0:
            raise ConfigurationError("alpha must be >= 0")
        if beta < 1:
            raise ConfigurationError("beta must be >= 1")
        if not ks:
            return 0.0
        per_query = sum(self.expected_query_work(n, k, alpha, beta) for k in ks)
        num_subranges = ceil_div(int(n), 1 << int(alpha))
        m = min(num_subranges * int(beta), int(n))
        construction = 0.0 if bank_hit else float(n + 2 * m)
        return construction + per_query

    def plan_batched(
        self,
        v: np.ndarray,
        parsed: Sequence[TopKQuery],
        engine: BatchTopK,
        fingerprint: Optional[str] = None,
    ) -> BatchedPlan:
        """Work-weighted placement of whole plan-sharing groups.

        Groups are weighted by :meth:`expected_group_work` — expected
        workload from ``k``, ``alpha`` and the plan-bank hit state — and
        placed heaviest first onto the least-loaded worker.  A group always
        stays whole, so it pays one plan fetch or construction and one fused
        selection.  The greedy bound holds group-wise: no worker's load
        exceeds the even share plus one group's weight.

        A vector with recorded per-name hit history (see
        :meth:`note_queries`) additionally carries worker *affinity*: its
        groups return to the worker that served its heaviest group last
        whenever that worker's load is within :data:`AFFINITY_SLACK` of the
        least loaded.
        """
        n = int(v.shape[0])
        # Same grouping call (bank-aware snapping included) the workers make:
        # placement and execution must agree on the groups.
        groups = group_queries_by_plan(
            parsed,
            n,
            self.cache,
            engine,
            plan_bank=self.plan_bank,
            fingerprint=fingerprint,
            snap_tolerance=self.snap_tolerance,
        )
        beta = engine.config.beta
        items = []  # (group weight, positions)
        for (alpha, largest), positions in groups.items():
            bank_hit = (
                self.plan_bank is not None
                and fingerprint is not None
                and self.plan_bank.contains(fingerprint, alpha, largest)
            )
            ks = [parsed[p].k for p in positions]
            weight = self.expected_group_work(n, ks, alpha, beta, bank_hit)
            items.append((weight, positions))
        total_weight = sum(weight for weight, _ in items)

        preferred: Optional[int] = None
        if fingerprint is not None:
            with self._history_lock:
                if self._query_history.get(fingerprint, 0) > 0:
                    preferred = self._affinity.get(fingerprint)

        load = [0.0] * self.num_workers
        placement: List[List[int]] = [[] for _ in range(self.num_workers)]
        heaviest_target: Optional[int] = None
        # The stable descending sort keeps equal-weight groups in emission
        # order, so identical inputs place identically.
        for weight, positions in sorted(items, key=lambda item: item[0], reverse=True):
            target = min(range(self.num_workers), key=load.__getitem__)
            if (
                preferred is not None
                and 0 <= preferred < self.num_workers
                and load[preferred] <= load[target] + AFFINITY_SLACK * total_weight
            ):
                target = preferred
            if heaviest_target is None:
                heaviest_target = target  # sorted: the first group is heaviest
            placement[target].extend(positions)
            load[target] += weight
        if fingerprint is not None and heaviest_target is not None:
            # Remember where the heaviest group landed (not the most-loaded
            # worker, which a pile of light groups can out-weigh and flip
            # between dispatches) so repeats steer it back there.
            with self._history_lock:
                self._affinity.pop(fingerprint, None)  # re-insert most recent
                self._affinity[fingerprint] = heaviest_target
                while len(self._affinity) > _AFFINITY_CAP:
                    self._affinity.pop(next(iter(self._affinity)))
        return BatchedPlan(placement=placement, loads=load, total_weight=total_weight)

    def place_groups(
        self,
        v: np.ndarray,
        parsed: Sequence[TopKQuery],
        engine: BatchTopK,
        fingerprint: Optional[str] = None,
    ) -> List[List[int]]:
        """Query positions per worker (possibly empty) — see :meth:`plan_batched`."""
        return self.plan_batched(v, parsed, engine, fingerprint=fingerprint).placement

    def batched_units(
        self,
        v: np.ndarray,
        parsed: Sequence[TopKQuery],
        workers: Sequence[BatchTopK],
        fingerprint: Optional[str] = None,
    ) -> Tuple[List[WorkUnit], BatchedPlan]:
        """Emit one :class:`WorkUnit` per worker that received queries.

        Each unit runs its worker's :meth:`BatchTopK.run_with_report` over the
        worker's share and returns ``(positions, results, batch_report)`` for
        the dispatcher to merge.  ``fingerprint`` keys the workers' plan-bank
        lookups (and the placement's hit peek) without re-hashing ``v``.
        Also returns the :class:`BatchedPlan` the units were emitted from.
        """
        plan = self.plan_batched(v, parsed, workers[0].engine, fingerprint=fingerprint)

        def unit_fn(
            worker: BatchTopK, positions: List[int]
        ) -> Callable[[], Tuple[List[int], List[TopKResult], Any]]:
            sub_queries = [parsed[p] for p in positions]
            return lambda: (
                positions,
                *worker.run_with_report(v, sub_queries, fingerprint=fingerprint),
            )

        units = [
            WorkUnit(fn=unit_fn(workers[w], positions), worker=w, route="batched")
            for w, positions in enumerate(plan.placement)
            if positions
        ]
        return units, plan

    # -- streaming-route emission ----------------------------------------------
    def streaming_units(
        self,
        chunks: Union[np.ndarray, Iterable[np.ndarray]],
        parsed: Sequence[TopKQuery],
        chunk_elements: int,
        make_engine: Callable[[], BatchTopK],
        chunk_memo: Optional[ChunkMemo] = None,
    ) -> Iterator[WorkUnit]:
        """Lazily emit one :class:`WorkUnit` per stream chunk, round-robin.

        ``chunks`` may be a single array (sliced transparently) or any
        iterable of 1-D arrays; oversized arrays are split to
        ``chunk_elements``.  Each unit distils its chunk into at most
        ``max(k)`` candidates per key order present in the batch — one local
        pipeline run per key order, shared by every query — and returns
        ``(offset, length, {largest: TopKResult}, report, memo_hits)`` where
        ``report`` is ``None`` when every key order was served from the
        chunk memo (zero pipeline work).  Units are yielded lazily so the
        executor's bounded queue also bounds read-ahead.

        ``make_engine`` builds a fresh per-unit :class:`BatchTopK` (units for
        one worker may overlap in the pool, so they cannot share an engine).
        ``chunk_memo`` (when given) memoises each chunk's local candidates by
        content fingerprint, so a replayed stream — or a shared prefix at any
        offset — skips the per-chunk pipeline entirely.
        """
        kmax: dict = {}
        for q in parsed:
            kmax[q.largest] = max(kmax.get(q.largest, 0), q.k)

        if isinstance(chunks, np.ndarray):
            chunks = [chunks]

        def chunk_fn(piece: np.ndarray, offset: int) -> Callable[[], _ChunkOutcome]:
            local_queries = [
                (min(k, piece.shape[0]), largest) for largest, k in sorted(kmax.items())
            ]

            def run() -> _ChunkOutcome:
                by_largest = {}
                memo_hits = 0
                pending = list(local_queries)
                fp = fingerprint_array(piece) if chunk_memo is not None else None
                if fp is not None:
                    pending = []
                    for kk, largest in local_queries:
                        hit = chunk_memo.get(fp, kk, largest)
                        if hit is not None:
                            by_largest[largest] = hit
                            memo_hits += 1
                        else:
                            pending.append((kk, largest))
                report = None
                if pending:
                    engine = make_engine()
                    results = engine.run(piece, pending)
                    report = engine.last_report
                    for (kk, largest), result in zip(pending, results):
                        by_largest[largest] = result
                        if fp is not None:
                            chunk_memo.put(fp, kk, largest, result)
                return offset, piece.shape[0], by_largest, report, memo_hits

            return run

        def generate() -> Iterator[WorkUnit]:
            offset = 0
            index = 0
            for chunk in chunks:
                chunk = np.asarray(chunk)
                if chunk.ndim != 1:
                    raise ConfigurationError(
                        f"stream chunks must be one dimensional, got shape {chunk.shape}"
                    )
                for start in range(0, chunk.shape[0], chunk_elements):
                    piece = chunk[start : start + chunk_elements]
                    if not piece.shape[0]:
                        continue
                    yield WorkUnit(
                        fn=chunk_fn(piece, offset),
                        worker=index % self.num_workers,
                        route="streaming",
                    )
                    offset += piece.shape[0]
                    index += 1

        return generate()
