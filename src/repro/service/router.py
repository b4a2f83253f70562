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
  matched.  A group normally stays whole on one worker (splitting it naively
  would re-run its construction per worker) — but a **dominant** group, one
  whose weight exceeds :attr:`Router.split_threshold` of the dispatch's
  total, is *split*: its queries spread over several workers and the
  dispatcher broadcasts the group's single :class:`~repro.core.plan.QueryPlan`
  to every split (built or bank-fetched exactly once, handed out as a shared
  read-only handle), so the fleet no longer serializes behind one hot
  vector's one worker;
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.plan import QueryPlan
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

__all__ = ["Router", "GroupShare", "BatchedPlan", "tune_min_split_work"]

#: Route names emitted by :meth:`Router.classify`.
ROUTES = ("batched", "sharded", "streaming")

#: What one streaming work unit returns: ``(offset, length, {largest: result},
#: engine report or None, memo hits)``.
_ChunkOutcome = Tuple[int, int, Dict[bool, TopKResult], Any, int]

#: Default fraction of a dispatch's total modelled work above which one
#: plan-sharing group is split across workers (``None`` pins groups whole).
DEFAULT_SPLIT_THRESHOLD = 0.5

#: Default floor on the modelled per-split element workload below which a
#: dominant group is *not* split.  Splitting buys balance but costs a plan
#: broadcast and per-worker merge overhead; on tiny groups the overhead
#: dominates, so a group only splits when each resulting share still
#: carries at least this much modelled work (in input elements).  The
#: default is deliberately conservative — it only vetoes splits too small
#: to cover even one broadcast handle; derive a workload-fitted floor from
#: the ``splitgroup`` experiment's balance history with
#: :func:`tune_min_split_work`.
DEFAULT_MIN_SPLIT_WORK = 64.0

#: Load slack (as a fraction of the dispatch's total weight) within which
#: placement prefers a repeat vector's remembered worker over the strictly
#: least-loaded one.
AFFINITY_SLACK = 0.25

#: Upper bound on remembered per-fingerprint affinity entries (anonymous
#: dispatches record affinity too; without a cap a long-running service
#: would accrete one entry per distinct vector ever dispatched).
_AFFINITY_CAP = 4096


@dataclass(frozen=True)
class GroupShare:
    """One plan-sharing group's share of queries on one worker.

    The placement provenance of the batched route: an unsplit group is a
    single share (``split_total == 1``); a split group appears as one share
    per worker it landed on, all carrying the same ``group`` key, so the
    dispatcher (and anyone reading :attr:`WorkUnit.shares`) can identify the
    splits of one group and attribute the broadcast plan's single
    construction to all of them.
    """

    #: The plan-compatibility key, ``(alpha, largest)``.
    group: Tuple[int, bool]
    worker: int
    #: Query positions (into the dispatch's parsed queries) of this share.
    positions: Tuple[int, ...]
    #: 0-based index of this share among its group's shares (worker order).
    split_index: int = 0
    #: How many workers serve the group; > 1 means the group was split.
    split_total: int = 1
    #: Modelled element workload this share contributes to its worker.
    weight: float = 0.0


@dataclass
class BatchedPlan:
    """Placement plan of one batched dispatch, with split provenance.

    Produced by :meth:`Router.plan_batched` (placement and split decisions)
    and completed by :meth:`Router.batched_units` (the broadcast accounting
    fields, filled when shared plan handles are actually fetched or built).
    """

    #: Query positions per worker (the merge contract: every position
    #: appears exactly once, on exactly one worker).
    placement: List[List[int]]
    #: One record per (group, worker) pair that received queries.
    shares: List[GroupShare]
    #: Modelled per-worker load the placement produced.
    loads: List[float]
    total_weight: float = 0.0
    #: Split groups to broadcast — group key → the group-wide minimum ``k``
    #: the shared plan must be prepared with (only groups that actually
    #: landed on >= 2 workers; a split candidate that fit one worker is
    #: served through the normal per-worker path).
    split_min_k: Dict[Tuple[int, bool], int] = field(default_factory=dict)
    #: Shared read-only plan handles, one per split group (broadcast once).
    shared_plans: Dict[Tuple[int, bool], QueryPlan] = field(default_factory=dict)
    #: Shared-plan handles handed to units (one per split group share).
    plan_broadcasts: int = 0
    #: Constructions the broadcast ran (at most one per split group; zero on
    #: the warm path, where every broadcast is a bank hit).
    broadcast_constructions: int = 0
    broadcast_construction_bytes: float = 0.0
    broadcast_construction_ms: float = 0.0
    #: Broadcasts served from the plan bank without construction.
    broadcast_bank_hits: int = 0

    @property
    def groups_split(self) -> int:
        """Plan-sharing groups whose queries landed on >= 2 workers."""
        return len({s.group for s in self.shares if s.split_total > 1})


def tune_min_split_work(
    rows: Sequence[Dict], default: float = DEFAULT_MIN_SPLIT_WORK
) -> float:
    """Recommend a ``min_split_work`` floor from ``splitgroup`` history rows.

    ``rows`` are the ``splitgroup`` experiment's records: ``unsplit`` rows
    give each phase's baseline ``balance_ratio`` and ``split`` rows carry the
    modelled ``per_split_work`` the split actually produced.  The
    recommendation is the smallest per-split workload that *demonstrably*
    improved balance (split ``balance_ratio`` strictly below the same
    phase's unsplit baseline) — the measured point where splitting starts
    paying for itself.  With no improving observation the ``default`` floor
    stands: history that never shows a win is no licence to lower the gate.
    """
    baseline: Dict[Optional[str], float] = {}
    for row in rows:
        if row.get("mode") == "unsplit":
            baseline[row.get("phase")] = float(row["balance_ratio"])
    improved = [
        float(row["per_split_work"])
        for row in rows
        if row.get("mode") == "split"
        and float(row.get("per_split_work", 0.0)) > 0.0
        and row.get("groups_split")
        and row.get("phase") in baseline
        and float(row["balance_ratio"]) < baseline[row.get("phase")]
    ]
    if not improved:
        return float(default)
    return min(improved)


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
    split_threshold:
        Fraction of a dispatch's total modelled work above which one
        plan-sharing group (of >= 2 queries, on a fleet of >= 2 workers) is
        split across workers with a shared-plan broadcast.  ``None``
        disables splitting — every group pins whole to one worker, the
        pre-split behaviour and the differential baseline.
    min_split_work:
        Absolute floor on the modelled per-split workload (in input
        elements): a dominant group whose per-query work spread over the
        fleet would leave each split below this floor stays whole — tiny
        groups never split, however dominant they look relatively.  ``0``
        disables the floor (every relative-dominant group splits, the
        pre-floor behaviour).
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
        split_threshold: Optional[float] = DEFAULT_SPLIT_THRESHOLD,
        min_split_work: float = DEFAULT_MIN_SPLIT_WORK,
        snap_tolerance: Optional[float] = DEFAULT_ALPHA_SNAP_TOLERANCE,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("num_workers must be positive")
        if capacity_elements < 1:
            raise ConfigurationError("capacity_elements must be positive")
        if split_threshold is not None and not 0.0 < float(split_threshold) <= 1.0:
            raise ConfigurationError(
                "split_threshold must be in (0, 1], or None to disable splitting"
            )
        if min_split_work < 0:
            raise ConfigurationError("min_split_work must be >= 0")
        self.num_workers = int(num_workers)
        self.capacity_elements = int(capacity_elements)
        self.cache = cache
        self.plan_bank = plan_bank
        self.split_threshold = (
            float(split_threshold) if split_threshold is not None else None
        )
        self.min_split_work = float(min_split_work)
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
        concatenation/second-pass term.  Split placement weighs a dominant
        group's individual queries with this — their construction is paid
        once by the broadcast, not per worker.
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
        """Work-weighted placement with dominant-group splitting.

        Groups are weighted by :meth:`expected_group_work` — expected
        workload from ``k``, ``alpha`` and the plan-bank hit state — and
        placed heaviest first onto the least-loaded worker.  A group
        normally stays whole (splitting it naively would re-run its
        construction per worker); a **dominant** group — weight strictly
        above ``split_threshold`` of the dispatch's total, with >= 2 queries
        on a fleet of >= 2 workers — is instead placed query by query, each
        query weighted by :meth:`expected_query_work` (its construction is
        excluded: the dispatcher broadcasts the group's single plan).  The
        greedy bound therefore holds item-wise: no worker's load exceeds the
        even share plus one placed item's weight.

        A vector with recorded per-name hit history (see
        :meth:`note_queries`) additionally carries worker *affinity*: its
        heaviest **whole** group returns to the worker that served it last
        whenever that worker's load is within :data:`AFFINITY_SLACK` of the
        least loaded.  Split queries ignore affinity — pinning them back to
        one remembered worker would undo exactly the spreading the split is
        for.

        Returns the full :class:`BatchedPlan` (placement, per-share
        provenance, modelled loads and the split groups to broadcast).
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
        group_info = []  # (key, positions, group weight, per-query weights)
        for (alpha, largest), positions in groups.items():
            bank_hit = (
                self.plan_bank is not None
                and fingerprint is not None
                and self.plan_bank.contains(fingerprint, alpha, largest)
            )
            ks = [parsed[p].k for p in positions]
            weight = self.expected_group_work(n, ks, alpha, beta, bank_hit)
            per_query = [self.expected_query_work(n, k, alpha, beta) for k in ks]
            group_info.append(((alpha, largest), positions, weight, per_query))
        total_weight = sum(weight for _, _, weight, _ in group_info)

        split_keys = set()
        if self.split_threshold is not None and self.num_workers > 1:
            for key, positions, weight, per_query in group_info:
                if len(positions) < 2:
                    continue
                if weight <= self.split_threshold * total_weight:
                    continue
                # The absolute floor: splitting spreads only the per-query
                # work (the broadcast pays the construction once), so each
                # split's share must still be worth a broadcast handle and a
                # merge — tiny groups stay whole however dominant they look.
                splits = min(self.num_workers, len(positions))
                if sum(per_query) / splits < self.min_split_work:
                    continue
                split_keys.add(key)

        # Placement items: whole groups, or — for split groups — one item
        # per query.  The stable descending sort keeps equal-weight items in
        # group/query emission order, so identical inputs place identically.
        items = []  # (weight, key, positions tuple, splittable)
        for key, positions, weight, per_query in group_info:
            if key in split_keys:
                items.extend(
                    (w, key, (p,), True) for p, w in zip(positions, per_query)
                )
            else:
                items.append((weight, key, tuple(positions), False))

        preferred: Optional[int] = None
        if fingerprint is not None:
            with self._history_lock:
                if self._query_history.get(fingerprint, 0) > 0:
                    preferred = self._affinity.get(fingerprint)

        load = [0.0] * self.num_workers
        placement: List[List[int]] = [[] for _ in range(self.num_workers)]
        # (group key, worker) -> [positions, share weight]
        share_acc: Dict[Tuple[Tuple[int, bool], int], list] = {}
        heaviest_target: Optional[int] = None
        for weight, key, positions, is_piece in sorted(
            items, key=lambda item: item[0], reverse=True
        ):
            target = min(range(self.num_workers), key=load.__getitem__)
            if (
                not is_piece
                and preferred is not None
                and 0 <= preferred < self.num_workers
                and load[preferred] <= load[target] + AFFINITY_SLACK * total_weight
            ):
                target = preferred
            if heaviest_target is None:
                heaviest_target = target  # sorted: the first item is heaviest
            placement[target].extend(positions)
            acc = share_acc.setdefault((key, target), [[], 0.0])
            acc[0].extend(positions)
            acc[1] += weight
            load[target] += weight
        if fingerprint is not None and heaviest_target is not None:
            # Remember where the heaviest item landed (not the most-loaded
            # worker, which a pile of light groups can out-weigh and flip
            # between dispatches) so repeats steer it back there.
            with self._history_lock:
                self._affinity.pop(fingerprint, None)  # re-insert most recent
                self._affinity[fingerprint] = heaviest_target
                while len(self._affinity) > _AFFINITY_CAP:
                    self._affinity.pop(next(iter(self._affinity)))

        workers_of: Dict[Tuple[int, bool], List[int]] = {}
        for key, worker in share_acc:
            workers_of.setdefault(key, []).append(worker)
        shares: List[GroupShare] = []
        for key, positions, _, _ in group_info:
            group_workers = sorted(workers_of.get(key, []))
            for split_index, worker in enumerate(group_workers):
                acc = share_acc[(key, worker)]
                shares.append(
                    GroupShare(
                        group=key,
                        worker=worker,
                        positions=tuple(acc[0]),
                        split_index=split_index,
                        split_total=len(group_workers),
                        weight=acc[1],
                    )
                )
        split_min_k = {
            key: min(parsed[p].k for p in positions)
            for key, positions, _, _ in group_info
            if key in split_keys and len(workers_of.get(key, [])) > 1
        }
        return BatchedPlan(
            placement=placement,
            shares=shares,
            loads=load,
            total_weight=total_weight,
            split_min_k=split_min_k,
        )

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
        plan: Optional[BatchedPlan] = None,
    ) -> Tuple[List[WorkUnit], BatchedPlan]:
        """Emit one :class:`WorkUnit` per worker that received queries.

        Each unit runs its worker's :meth:`BatchTopK.run_with_report` over the
        worker's share and returns ``(positions, results, batch_report)`` for
        the dispatcher to merge.  ``fingerprint`` keys the workers' plan-bank
        lookups (and the placement's hit peek) without re-hashing ``v``.

        For every group the placement split, the group's :class:`QueryPlan`
        is **broadcast** here, before any unit runs: fetched from the plan
        bank or built exactly once (:meth:`PlanBank.shared`, which also
        serialises concurrent dispatches racing on one cold key), its views
        materialised so concurrent splits only ever read it, and handed to
        each unit as a shared read-only handle.  The splits charge zero
        construction; the broadcast's own accounting (one construction at
        most per split group, or a bank hit) is recorded on the returned
        :class:`BatchedPlan` for the dispatcher to merge.  Units of one
        split group stay independently submittable — they share the plan
        handle, never execution order.
        """
        engine = workers[0].engine
        if plan is None:
            plan = self.plan_batched(v, parsed, engine, fingerprint=fingerprint)

        for (alpha, largest), min_k in plan.split_min_k.items():

            def build(
                alpha: float = alpha, largest: bool = largest, min_k: int = min_k
            ) -> QueryPlan:
                return engine.prepare_with_alpha(v, alpha, largest=largest, k=min_k)

            if self.plan_bank is not None and fingerprint is not None:
                qplan, constructed = self.plan_bank.shared(
                    fingerprint, alpha, largest, engine.config.beta, build
                )
            else:
                qplan, constructed = build(), True
            if not qplan.is_degenerate:
                # Pre-materialise the lazy views: N splits then share the
                # handle strictly read-only (no first-touch races).
                qplan.materialise_views()
            plan.shared_plans[(alpha, largest)] = qplan
            if not constructed:
                plan.broadcast_bank_hits += 1
            elif not qplan.is_degenerate:
                plan.broadcast_constructions += 1
                plan.broadcast_construction_bytes += qplan.construction_bytes
                plan.broadcast_construction_ms += qplan.construction_ms(
                    engine.config.device
                )
        plan.plan_broadcasts = sum(
            1 for share in plan.shares if share.group in plan.shared_plans
        )

        shares_by_worker: Dict[int, List[GroupShare]] = {}
        for share in plan.shares:
            shares_by_worker.setdefault(share.worker, []).append(share)
        shared = plan.shared_plans or None

        def unit_fn(
            worker: BatchTopK, positions: List[int]
        ) -> Callable[[], Tuple[List[int], List[TopKResult], Any]]:
            sub_queries = [parsed[p] for p in positions]
            return lambda: (
                positions,
                *worker.run_with_report(
                    v, sub_queries, fingerprint=fingerprint, shared_plans=shared
                ),
            )

        units = []
        for w, positions in enumerate(plan.placement):
            if not positions:
                continue
            units.append(
                WorkUnit(
                    fn=unit_fn(workers[w], positions),
                    worker=w,
                    route="batched",
                    shares=tuple(shares_by_worker.get(w, ())),
                )
            )
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
