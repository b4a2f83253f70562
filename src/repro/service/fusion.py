"""Group-fused selection and the scratch-buffer arena (the hot-loop fast path).

The batched serving layer amortises *construction* across queries sharing a
:class:`~repro.core.plan.QueryPlan`, but until this module existed the
*selection* stages still ran once per query:
:meth:`~repro.service.batch.BatchTopK.run` looped
:meth:`~repro.core.drtopk.DrTopK.topk_prepared` over each ``(alpha, largest)``
group, re-running the first top-k over the delegate vector and re-gathering
qualified subranges ``N`` times.  :func:`fused_group_topk` replaces that loop
with **one** shared selection at ``max(k)`` plus a cheap per-query refinement,
while staying *exactly* per-query equivalent on values **and** indices:

1. **One shared first top-k** over the delegate vector at the group's largest
   servable ``k``.  Its descending value list yields every query's exact
   Rule-2 threshold (``t_k`` is the k-th largest delegate key — a *value*,
   unique regardless of tie choices), and, when the first algorithm is
   :attr:`~repro.algorithms.base.TopKAlgorithm.prefix_consistent`, its index
   prefix answers every skip-path query by slicing.
2. **One shared gather** of the subranges scanned at the *loosest* threshold
   (thresholds are non-increasing in ``k``, so every query's scan set nests
   inside it).  Each query's concatenated vector is rebuilt from the shared
   block by masking — in the same row-major order the per-query
   :func:`~repro.core.concatenate.concatenate_subranges` produces, with the
   Rule-3 extra delegates appended in the same flat order — so the per-query
   second top-k sees a byte-identical input and returns an identical answer.
3. Queries the plan cannot answer (``plan.answers(k)`` false) fall back to
   the raw-key pipeline; when the second algorithm is prefix consistent they
   too are served from one shared pass at their largest ``k``, otherwise the
   exact per-query calls are kept.

Scratch buffers for the shared gather, masks and sort temporaries come from a
thread-local :class:`ScratchArena` of dtype-bucketed pooled numpy arrays, so
steady-state dispatches stop paying allocation churn; hit/miss/resize
counters aggregate across threads into :func:`arena_info` and surface on
:class:`~repro.service.dispatcher.DispatchReport`.  Returned results never
alias arena memory — every output array is freshly materialised before the
arena scope closes.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms.base import ExecutionTrace
from repro.core.drtopk import DrTopK, _collapse_steps
from repro.core.plan import QueryPlan
from repro.core.config import DrTopKConfig
from repro.errors import ConfigurationError
from repro.types import TopKResult, WorkloadStats

__all__ = [
    "ScratchArena",
    "ArenaInfo",
    "FusedGroupOutcome",
    "fused_group_topk",
    "thread_arena",
    "arena_info",
    "reset_arenas",
    "DEFAULT_ARENA_LIMIT_BYTES",
]

#: Pooled bytes one thread's arena may retain between dispatches; buffers
#: beyond the limit are dropped largest-first when a scope closes.
DEFAULT_ARENA_LIMIT_BYTES = 256 << 20

#: Smallest pooled buffer (elements); tiny takes round up so the free lists
#: stay short.
_MIN_BUFFER_ELEMENTS = 64


@dataclass
class ArenaInfo:
    """Aggregated scratch-arena counters (one thread's arena, or all of them).

    ``hits`` count takes served from a pooled buffer, ``misses`` takes that
    allocated because the dtype bucket was empty, ``resizes`` takes that found
    only too-small pooled buffers and grew one.  ``held_bytes`` is what
    currently sits in free lists waiting for reuse.
    """

    hits: int = 0
    misses: int = 0
    resizes: int = 0
    held_bytes: int = 0
    arenas: int = 0

    @property
    def takes(self) -> int:
        """Total buffer requests observed."""
        return self.hits + self.misses + self.resizes

    @property
    def hit_rate(self) -> float:
        """Fraction of takes served from the pool."""
        if self.takes == 0:
            return 0.0
        return self.hits / self.takes


class ScratchArena:
    """A pool of dtype-bucketed scratch numpy buffers reused across dispatches.

    Buffers are borrowed with :meth:`take` inside a :meth:`scope` and all
    return to the free lists when the scope closes — callers never release
    individually, which makes leaks structurally impossible.  The arena is
    **not** thread-safe by design: use :func:`thread_arena` to get the calling
    thread's own instance (counters still aggregate globally via
    :func:`arena_info`).

    Parameters
    ----------
    limit_bytes:
        Pooled bytes retained between scopes; excess buffers are dropped
        largest-first so one huge dispatch cannot pin memory forever.
    """

    def __init__(self, limit_bytes: int = DEFAULT_ARENA_LIMIT_BYTES) -> None:
        self.limit_bytes = int(limit_bytes)
        self._free: Dict[str, List[np.ndarray]] = {}
        self._scopes: List[List[np.ndarray]] = []
        self.hits = 0
        self.misses = 0
        self.resizes = 0
        self.held_bytes = 0

    @contextmanager
    def scope(self) -> Iterator["ScratchArena"]:
        """Borrowing scope: every :meth:`take` inside returns to the pool on exit."""
        self._scopes.append([])
        try:
            yield self
        finally:
            borrowed = self._scopes.pop()
            for buf in borrowed:
                # Free lists stay sorted by size; equal sizes keep return order.
                bisect.insort(self._free.setdefault(buf.dtype.str, []), buf, key=len)
                self.held_bytes += buf.nbytes
            self._trim()

    def take(self, shape: Tuple[int, ...], dtype: "np.typing.DTypeLike") -> np.ndarray:
        """Borrow an uninitialised buffer of ``shape``/``dtype`` from the pool.

        Returns a view over a pooled 1-D backing buffer (contents arbitrary).
        Outside any :meth:`scope` the array is a plain allocation that is not
        pooled afterwards (counted as a miss) — convenient for one-off use.
        """
        dtype = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= int(dim)
        bucket = self._free.get(dtype.str)
        buf: Optional[np.ndarray] = None
        if bucket:
            for i, candidate in enumerate(bucket):
                if candidate.shape[0] >= count:
                    buf = bucket.pop(i)
                    self.held_bytes -= buf.nbytes
                    self.hits += 1
                    break
            if buf is None:
                # Everything pooled is too small: grow the largest in place of
                # allocating yet another size class.
                grown = bucket.pop()
                self.held_bytes -= grown.nbytes
                self.resizes += 1
                buf = np.empty(self._capacity(count), dtype=dtype)
        else:
            self.misses += 1
            buf = np.empty(self._capacity(count), dtype=dtype)
        if self._scopes:
            self._scopes[-1].append(buf)
        return buf[:count].reshape(shape)

    def info(self) -> ArenaInfo:
        """Snapshot of this arena's counters."""
        return ArenaInfo(
            hits=self.hits,
            misses=self.misses,
            resizes=self.resizes,
            held_bytes=self.held_bytes,
            arenas=1,
        )

    def clear(self) -> None:
        """Drop every pooled buffer and reset the counters."""
        self._free.clear()
        self.hits = self.misses = self.resizes = 0
        self.held_bytes = 0

    @staticmethod
    def _capacity(count: int) -> int:
        """Round a requested element count up to the pooled size class."""
        if count <= _MIN_BUFFER_ELEMENTS:
            return _MIN_BUFFER_ELEMENTS
        return 1 << int(count - 1).bit_length()

    def _trim(self) -> None:
        """Enforce ``limit_bytes`` by dropping the largest pooled buffers."""
        while self.held_bytes > self.limit_bytes:
            largest_key = None
            largest_size = -1
            for key, bucket in self._free.items():
                if bucket and bucket[-1].nbytes > largest_size:
                    largest_key, largest_size = key, bucket[-1].nbytes
            if largest_key is None:
                break
            dropped = self._free[largest_key].pop()
            self.held_bytes -= dropped.nbytes


_TLS = threading.local()
_LEDGER_LOCK = threading.Lock()
_ARENAS: List[ScratchArena] = []


def thread_arena() -> ScratchArena:
    """The calling thread's :class:`ScratchArena` (created on first use)."""
    arena = getattr(_TLS, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _TLS.arena = arena
        with _LEDGER_LOCK:
            _ARENAS.append(arena)
    return arena


def arena_info() -> ArenaInfo:
    """Aggregate counters over every thread's arena (the global ledger)."""
    with _LEDGER_LOCK:
        arenas = list(_ARENAS)
    total = ArenaInfo(arenas=len(arenas))
    for arena in arenas:
        total.hits += arena.hits
        total.misses += arena.misses
        total.resizes += arena.resizes
        total.held_bytes += arena.held_bytes
    return total


def reset_arenas() -> None:
    """Clear every registered arena's pool and counters (tests/benchmarks)."""
    with _LEDGER_LOCK:
        arenas = list(_ARENAS)
    for arena in arenas:
        arena.clear()


@dataclass
class FusedGroupOutcome:
    """What one :func:`fused_group_topk` call produced and what it cost.

    Byte and millisecond quantities are simulated-GPU accounting (all zero
    with ``collect_trace=False``); ``stage_ms`` is *measured* host wall-clock
    per fused stage.  ``selection_calls`` counts full selection passes
    actually executed — the fused equivalent of "how many times did we run
    ``topk_prepared``-grade work"; a fully fused group reports 1.
    """

    results: List[TopKResult] = field(default_factory=list)
    selection_calls: int = 0
    fused_queries: int = 0
    fallback_queries: int = 0
    shared_bytes: float = 0.0
    shared_ms: float = 0.0
    query_bytes: List[float] = field(default_factory=list)
    naive_bytes: List[float] = field(default_factory=list)
    stage_ms: Dict[str, float] = field(default_factory=dict)


def _base_stats(plan: QueryPlan) -> WorkloadStats:
    """Per-query stats skeleton matching ``topk_prepared``'s initialisation."""
    return WorkloadStats(
        input_size=plan.n,
        subrange_size=plan.partition.subrange_size,
        alpha=plan.partition.alpha,
        beta=plan.beta,
        num_subranges=plan.partition.num_subranges,
    )


def _stage(stage_ms: Dict[str, float], name: str, started: float) -> float:
    """Accumulate measured wall-clock for one fused stage; returns a new mark."""
    now = time.perf_counter()
    stage_ms[name] = stage_ms.get(name, 0.0) + (now - started) * 1e3
    return now


def fused_group_topk(
    engine: DrTopK,
    plan: QueryPlan,
    ks: Sequence[int],
    arena: Optional[ScratchArena] = None,
) -> FusedGroupOutcome:
    """Answer every ``k`` in ``ks`` from ``plan`` with one shared selection.

    Exactly equivalent — values *and* indices — to calling
    ``engine.topk_prepared(plan, k, charge_construction=False)`` once per
    ``k``: the shared pass derives each query's exact Rule-2 threshold, each
    query's concatenated vector is reconstructed byte-identically from one
    shared gather, and the per-query second top-k runs on it unchanged.
    Queries the plan cannot answer fall back to the raw-key pipeline (shared
    when the second algorithm is prefix consistent, per query otherwise).

    Results align with ``ks``.  Construction is never charged here — batch
    callers account for it once at the group level, exactly as before.
    """
    cfg = engine.config
    outcome = FusedGroupOutcome(
        results=[None] * len(ks),  # type: ignore[list-item]
        query_bytes=[0.0] * len(ks),
        naive_bytes=[0.0] * len(ks),
    )
    if not ks:
        return outcome
    arena = arena if arena is not None else thread_arena()
    collect = cfg.collect_trace

    servable = [i for i, k in enumerate(ks) if plan.answers(int(k))]
    fallback = [i for i in range(len(ks)) if i not in set(servable)]

    with arena.scope():
        if servable:
            _serve_fused(engine, plan, ks, servable, arena, outcome)
        if fallback:
            _serve_fallback(engine, plan, ks, fallback, outcome)

    if collect:
        # The per-query loop would have paid the shared work once per query;
        # the modelled naive traffic replicates it on top of each query's own
        # refinement bytes (construction re-charges stay with the batch
        # caller, which owns the plan accounting).
        per_query_shared = outcome.shared_bytes
        for i in servable:
            outcome.naive_bytes[i] = outcome.query_bytes[i] + per_query_shared
    return outcome


def _serve_fused(
    engine: DrTopK,
    plan: QueryPlan,
    ks: Sequence[int],
    servable: List[int],
    arena: ScratchArena,
    outcome: FusedGroupOutcome,
) -> None:
    """Serve every plan-answerable query from one shared selection pass."""
    cfg = engine.config
    v = plan.v
    collect = cfg.collect_trace
    itemsize = v.dtype.itemsize
    delegates = plan.delegates
    assert delegates is not None
    partition = plan.partition
    n = partition.n
    mark = time.perf_counter()

    kmax = max(int(ks[i]) for i in servable)
    flat_keys = delegates.flat_keys()
    key_dtype = flat_keys.dtype

    # -- shared first top-k at max(k): thresholds for every query ------------
    first_algo = get_algorithm(cfg.first_algorithm)
    shared_trace = ExecutionTrace(itemsize=itemsize) if collect else None
    first_trace = ExecutionTrace(itemsize=itemsize) if collect else None
    shared_first = first_algo.topk(flat_keys, kmax, largest=True, trace=first_trace)
    if shared_trace is not None and first_trace is not None:
        shared_trace.extend([_collapse_steps("fused_first_topk", first_trace)])
    # Descending shared values: the exact k-th largest delegate key for every
    # k <= kmax — the same *value* qualification_threshold() derives per query
    # regardless of the algorithm's tie choices.
    thresholds = {i: key_dtype.type(shared_first.values[int(ks[i]) - 1]) for i in servable}
    outcome.selection_calls += 1
    mark = _stage(outcome.stage_ms, "first_ms", mark)

    use_beta = cfg.use_beta_rule and plan.beta > 1
    maxima = delegates.maxima()
    crit = delegates.beta_th() if use_beta else maxima
    flat_sub_ids = delegates.flat_subrange_ids()
    flat_indices = delegates.flat_indices()
    m = flat_keys.shape[0]
    num_sub = partition.num_subranges

    # Pre-sorted copies answer the per-query qualification counts by binary
    # search instead of N full-vector comparisons.
    sorted_maxima = arena.take((num_sub,), maxima.dtype)
    np.copyto(sorted_maxima, maxima)
    sorted_maxima.sort()
    if crit is maxima:
        sorted_crit = sorted_maxima
    else:
        sorted_crit = arena.take((num_sub,), crit.dtype)
        np.copyto(sorted_crit, crit)
        sorted_crit.sort()

    # -- one shared gather at the loosest threshold --------------------------
    t_loosest = min(thresholds.values())
    scanned_ids = np.flatnonzero(crit >= t_loosest)
    s = int(scanned_ids.shape[0])
    sub_size = partition.subrange_size
    # Every query's candidates nest inside one pre-filtered union at
    # t_loosest: the scanned block's real elements that can qualify (row-major,
    # with their positions and row crit values) and the delegates >= t_loosest
    # (flat order, with their subranges' crit values).  Per-query masks then
    # touch only this union, never the whole block.
    real_per_row = crit_rows = row_mask = None
    u_keys = u_pos = u_crit = None
    if s:
        view = plan.padded_view()
        block = arena.take((s, sub_size), view.dtype)
        np.take(view, scanned_ids, axis=0, out=block)
        row_start = scanned_ids.astype(np.int64) << partition.alpha
        real_per_row = np.minimum(n - row_start, sub_size)
        crit_rows = crit[scanned_ids]
        row_mask = arena.take((s,), bool)
        keep = arena.take((s, sub_size), bool)
        if cfg.use_filtering:
            np.greater_equal(block, t_loosest, out=keep)
        else:
            keep.fill(True)
        # Only the final subrange can be padded, and ids are ascending.
        keep[-1, real_per_row[-1] :] = False
        flat = np.flatnonzero(keep)
        rows = flat >> partition.alpha
        u_keys = block.ravel()[flat]
        u_pos = row_start[rows] + (flat & (sub_size - 1))
        u_crit = crit_rows[rows]
        if shared_trace is not None:
            scanned_total = int(real_per_row.sum())
            shared_trace.add(
                "fused_gather",
                loads=float(s) + float(scanned_total),
                stores=float(scanned_total),
                kernels=1,
            )
    d_sel = arena.take((m,), bool)
    np.greater_equal(flat_keys, t_loosest, out=d_sel)
    d_keys = flat_keys[d_sel]
    d_idx = flat_indices[d_sel]
    d_crit = crit[flat_sub_ids[d_sel]]
    mark = _stage(outcome.stage_ms, "gather_ms", mark)

    u_take = arena.take((0 if u_keys is None else u_keys.shape[0],), bool)
    u_tmp = arena.take(u_take.shape, bool)
    d_take = arena.take(d_keys.shape, bool)
    d_tmp = arena.take(d_keys.shape, bool)

    for i in servable:
        k = int(ks[i])
        t = thresholds[i]
        stats = _base_stats(plan)
        stats.delegate_vector_size = delegates.size
        stats.qualified_subranges = num_sub - int(
            np.searchsorted(sorted_maxima, t, side="left")
        )
        stats.fully_qualified_subranges = num_sub - int(
            np.searchsorted(sorted_crit, t, side="left")
        )
        trace_q = ExecutionTrace(itemsize=itemsize) if collect else None

        any_scanned = False
        if s:
            np.greater_equal(crit_rows, t, out=row_mask)
            any_scanned = bool(row_mask.any())

        if cfg.skip_second_when_possible and not any_scanned:
            # Figure 8(b): no subrange is fully taken — the first top-k is the
            # answer.  A prefix-consistent first algorithm lets the shared
            # pass answer by slicing; otherwise the exact per-query first
            # top-k runs (still amortising thresholds and the gather).
            mark = time.perf_counter()
            if type(first_algo).prefix_consistent:
                idx_first = shared_first.indices[:k]
                if trace_q is not None:
                    trace_q.add(
                        "fused_refine", loads=float(k), stores=2.0 * k, kernels=1
                    )
            else:
                q_trace = ExecutionTrace(itemsize=itemsize) if collect else None
                first_q = first_algo.topk(flat_keys, k, largest=True, trace=q_trace)
                idx_first = first_q.indices
                if trace_q is not None and q_trace is not None:
                    trace_q.extend([_collapse_steps("first_topk", q_trace)])
                outcome.selection_calls += 1
            original_idx = flat_indices[idx_first]
            stats.second_topk_skipped = True
            stats.concatenated_size = 0
            _finish_query(outcome, i, v, original_idx, k, plan, stats, trace_q, cfg)
            mark = _stage(outcome.stage_ms, "refine_ms", mark)
            continue

        # -- per-query refinement of the pre-filtered union ------------------
        # Masking the union at t keeps exactly what masking the whole block
        # and delegate vector at t keeps, in the same order, so the
        # concatenation is byte-identical to the per-query pipeline's.
        mark = time.perf_counter()
        pieces_keys: List[np.ndarray] = []
        pieces_idx: List[np.ndarray] = []
        scanned_elements = 0
        copied_scanned = 0
        if any_scanned:
            assert real_per_row is not None and row_mask is not None
            assert u_keys is not None and u_pos is not None and u_crit is not None
            scanned_elements = int(real_per_row[row_mask].sum())
            np.greater_equal(u_crit, t, out=u_take)
            if cfg.use_filtering:
                np.greater_equal(u_keys, t, out=u_tmp)
                np.logical_and(u_take, u_tmp, out=u_take)
            pieces_keys.append(u_keys[u_take])
            pieces_idx.append(u_pos[u_take])
            copied_scanned = int(pieces_keys[0].shape[0])
        stats.filtered_out = scanned_elements - copied_scanned

        np.greater_equal(d_keys, t, out=d_take)
        np.less(d_crit, t, out=d_tmp)
        np.logical_and(d_take, d_tmp, out=d_take)
        if bool(d_take.any()):
            pieces_keys.append(d_keys[d_take])
            pieces_idx.append(d_idx[d_take])

        if pieces_keys:
            # Pure per-query temporaries (everything escaping below is a
            # fancy-index copy), so they borrow from the group's arena scope
            # instead of allocating per query.
            total = sum(int(p.shape[0]) for p in pieces_keys)
            concat_keys = arena.take((total,), key_dtype)
            concat_idx = arena.take((total,), np.int64)
            np.concatenate(pieces_keys, out=concat_keys)
            np.concatenate(pieces_idx, out=concat_idx)
        else:  # pragma: no cover - >= k candidates always exist above t
            concat_keys = np.empty(0, dtype=key_dtype)  # reprolint: waive[HOT001] zero-element defensive branch, nothing to pool
            concat_idx = np.empty(0, dtype=np.int64)  # reprolint: waive[HOT001] zero-element defensive branch, nothing to pool
        stats.concatenated_size = int(concat_keys.shape[0])
        if trace_q is not None:
            copied = float(concat_keys.shape[0])
            trace_q.add(
                "fused_refine",
                loads=float(int(row_mask.sum()) if s else 0)
                + float(scanned_elements)
                + float(m),
                stores=2.0 * copied,
                atomics=copied,
                kernels=1,
            )
        if concat_keys.shape[0] < k:
            raise ConfigurationError(
                "internal error: concatenated vector smaller than k "
                f"({concat_keys.shape[0]} < {k})"
            )
        mark = _stage(outcome.stage_ms, "refine_ms", mark)

        # -- per-query second top-k on the byte-identical concatenation ------
        second_algo = get_algorithm(cfg.second_algorithm)
        second_trace = ExecutionTrace(itemsize=itemsize) if collect else None
        second = second_algo.topk(concat_keys, k, largest=True, trace=second_trace)
        if trace_q is not None and second_trace is not None:
            trace_q.extend([_collapse_steps("second_topk", second_trace)])
        original_idx = concat_idx[second.indices]
        _finish_query(outcome, i, v, original_idx, k, plan, stats, trace_q, cfg)
        mark = _stage(outcome.stage_ms, "second_ms", mark)

    outcome.fused_queries += len(servable)
    if shared_trace is not None:
        outcome.shared_bytes += shared_trace.total_counters().global_bytes
        outcome.shared_ms += sum(shared_trace.step_times_ms(cfg.device).values())


def _serve_fallback(
    engine: DrTopK,
    plan: QueryPlan,
    ks: Sequence[int],
    fallback: List[int],
    outcome: FusedGroupOutcome,
) -> None:
    """Serve queries the plan cannot answer (the raw-key degenerate regime).

    With a prefix-consistent second algorithm one shared raw-key pass at the
    subgroup's largest ``k`` answers every query by slicing — the degenerate
    equivalent of the fused selection; otherwise the exact per-query
    ``topk_prepared`` calls run unchanged.
    """
    cfg = engine.config
    v = plan.v
    collect = cfg.collect_trace
    itemsize = v.dtype.itemsize
    second_algo = get_algorithm(cfg.second_algorithm)
    mark = time.perf_counter()

    if not type(second_algo).prefix_consistent:
        for i in fallback:
            result = engine.topk_prepared(plan, int(ks[i]), charge_construction=False)
            outcome.results[i] = result
            outcome.selection_calls += 1
            if collect:
                q_bytes = engine.last_trace.total_counters().global_bytes
                outcome.query_bytes[i] = q_bytes
                outcome.naive_bytes[i] = q_bytes
        outcome.fallback_queries += len(fallback)
        _stage(outcome.stage_ms, "fallback_ms", mark)
        return

    kmax = max(int(ks[i]) for i in fallback)
    shared_trace = ExecutionTrace(itemsize=itemsize) if collect else None
    base_trace = ExecutionTrace(itemsize=itemsize) if collect else None
    base = second_algo.topk(plan.keys, kmax, largest=True, trace=base_trace)
    if shared_trace is not None and base_trace is not None:
        shared_trace.extend([_collapse_steps("fused_degenerate_topk", base_trace)])
    outcome.selection_calls += 1
    shared_bytes = (
        shared_trace.total_counters().global_bytes if shared_trace is not None else 0.0
    )
    outcome.shared_bytes += shared_bytes
    if shared_trace is not None:
        outcome.shared_ms += sum(shared_trace.step_times_ms(cfg.device).values())

    for i in fallback:
        k = int(ks[i])
        stats = _base_stats(plan)
        stats.delegate_vector_size = 0
        stats.concatenated_size = stats.input_size
        trace_q = ExecutionTrace(itemsize=itemsize) if collect else None
        indices = base.indices[:k]
        if trace_q is not None:
            trace_q.add("fused_refine", loads=float(k), stores=2.0 * k, kernels=1)
        _finish_query(outcome, i, v, indices, k, plan, stats, trace_q, cfg)
        if collect:
            outcome.naive_bytes[i] = outcome.query_bytes[i] + shared_bytes
    outcome.fallback_queries += len(fallback)
    _stage(outcome.stage_ms, "fallback_ms", mark)


def _finish_query(
    outcome: FusedGroupOutcome,
    i: int,
    v: np.ndarray,
    original_idx: np.ndarray,
    k: int,
    plan: QueryPlan,
    stats: WorkloadStats,
    trace_q: Optional[ExecutionTrace],
    cfg: DrTopKConfig,
) -> None:
    """Materialise one query's result and record its per-query accounting."""
    if trace_q is not None:
        stats.step_times_ms = trace_q.step_times_ms(cfg.device)
        outcome.query_bytes[i] = trace_q.total_counters().global_bytes
    outcome.results[i] = TopKResult(
        values=v[original_idx],
        indices=np.asarray(original_idx, dtype=np.int64),
        k=k,
        largest=plan.largest,
        stats=stats,
    )
