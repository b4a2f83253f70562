"""Cross-dispatch plan persistence: the PlanBank and the streaming ChunkMemo.

The service layer already amortises delegate construction *within* one
dispatch (one construction per ``(alpha, largest)`` group).  Steady-state
serving traffic is different: the same vector is queried dispatch after
dispatch with *changing* ``k``, and before this module every dispatch still
re-ran ``to_keys`` plus the full construction scan because the
:class:`~repro.core.plan.QueryPlan`\\ s died with the dispatch.  Two
byte-budgeted LRU caches close that gap:

* :class:`PlanBank` — ``(vector fingerprint, alpha, largest) → QueryPlan``.
  A *changed* query (new ``k``) over an *unchanged* vector that resolves the
  same Rule-4 ``alpha`` reuses the banked plan and skips key conversion and
  delegate construction entirely — the zero-rescan hot path.  The batched
  route banks whole-vector plans, the sharded route banks one plan per shard
  (keyed by the *shard's* fingerprint), and both record bank hits with zero
  construction traffic.  A banked plan's memoised views also feed the fused
  group selection (:func:`~repro.service.fusion.fused_group_topk`): a warm
  replay of a plan-sharing group pays zero constructions *and* a single
  shared selection pass, however many queries the group holds.
* :class:`ChunkMemo` — ``(chunk fingerprint, k, largest) → TopKResult`` with
  *chunk-local* indices.  Streams cannot be fingerprinted without consuming
  them, so the streaming route memoises per chunk instead: a replayed stream
  (or a shared prefix) serves each chunk's candidate pool from the memo with
  zero pipeline work.  Indices are stored chunk-local and offset at merge
  time, so a hit is position-independent.

Both caches are thread-safe (executor units hit them concurrently) and
byte-budgeted rather than entry-counted: a plan's resident size is dominated
by its O(n) key vector, so counting entries would let a handful of huge plans
dwarf the budget.  Eviction is strict LRU; an entry larger than the whole
budget is not admitted.

Invalidation is by content: any mutation of a served vector changes its
fingerprint, so stale plans are never *hit* — they simply age out of the LRU.
The documented :func:`~repro.service.cache.fingerprint_array` caveat applies:
vectors above the full-hash threshold are fingerprinted by sampling, so
treat served vectors as immutable while they serve traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.plan import QueryPlan
from repro.errors import ConfigurationError
from repro.service.cache import CacheInfo
from repro.types import TopKResult

__all__ = ["PlanBank", "ChunkMemo", "DEFAULT_PLAN_BANK_BYTES", "DEFAULT_CHUNK_MEMO_BYTES"]

#: Default PlanBank budget — a few hundred laptop-scale (2^18-2^20) plans.
DEFAULT_PLAN_BANK_BYTES = 256 << 20
#: Upper bound on retained per-key build locks (see :meth:`PlanBank.shared`);
#: stale locks for keys no longer resident are pruned beyond it.
_BUILD_LOCK_CAP = 1024
#: Default ChunkMemo budget — chunk candidates are k-bounded, so far smaller.
DEFAULT_CHUNK_MEMO_BYTES = 64 << 20

#: PlanBank key: (vector fingerprint, resolved alpha, key order).
_PlanKey = Tuple[str, int, bool]
#: ChunkMemo key: (chunk fingerprint, local k, key order).
_ChunkKey = Tuple[str, int, bool]


class _ByteBudgetLru:
    """Thread-safe LRU evicting by total resident bytes, not entry count."""

    def __init__(self, capacity_bytes: int, size_of: Callable[[object], int]) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError("cache byte budget must be >= 1")
        self.capacity_bytes = int(capacity_bytes)
        self._size_of = size_of
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._sizes: dict = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _get(self, key: tuple):
        # Membership, not `.get(...) is not None`: a stored falsy value (or a
        # literal None) is a hit, only a genuinely absent key is a miss.
        with self._lock:
            if key not in self._entries:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return self._entries[key]

    def _contains(self, key: tuple) -> bool:
        # Deliberately no LRU promotion and no counter updates: the router
        # peeks at hit state to weight placement without perturbing the bank.
        with self._lock:
            return key in self._entries

    def _put(self, key: tuple, value: object) -> bool:
        size = int(self._size_of(value))
        with self._lock:
            # Replacement first, and under the lock: a re-put of an existing
            # key must drop the old entry (and its size accounting) even when
            # the new value turns out to be oversize — the old value is stale
            # either way, and leaving it resident would let _bytes drift from
            # the sum of the resident sizes.
            old = self._sizes.pop(key, None)
            if old is not None:
                self._bytes -= old
                del self._entries[key]
            if size > self.capacity_bytes:
                return False  # larger than the whole budget: never admitted
            self._entries[key] = value
            self._sizes[key] = size
            self._bytes += size
            while self._bytes > self.capacity_bytes:
                evicted_key, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(evicted_key)
                self._evictions += 1
            return True

    def _invalidate_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Drop every entry whose key matches; returns the bytes released.

        Used by the named-vector store's eviction cascade: releasing a vector
        must release the cache entries keyed by its fingerprint(s), so the
        byte budget is immediately available to other content.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            released = 0
            for key in doomed:
                del self._entries[key]
                released += self._sizes.pop(key)
            self._bytes -= released
            return released

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry keyed by ``fingerprint``; returns bytes released.

        Every cache in this module keys entries by a content fingerprint in
        the first key position, so one definition serves both subclasses.
        """
        return self._invalidate_where(lambda key: key[0] == fingerprint)

    def info(self) -> CacheInfo:
        """Current hit/miss/eviction and byte-occupancy statistics."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
            )

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PlanBank(_ByteBudgetLru):
    """Byte-budgeted LRU of :class:`QueryPlan`\\ s persisting across dispatches.

    Keyed by ``(vector fingerprint, alpha, largest)``: everything a plan's
    reusable state depends on.  ``k`` is deliberately *not* part of the key —
    that is the whole point: a new ``k`` resolving the same ``alpha`` over
    the same content is a hit and skips ``to_keys`` + construction.

    One bank must only be shared by engines with one pipeline configuration
    (the dispatcher's fleet shares one config); consumers verify the banked
    plan's ``beta`` before trusting a hit.

    Parameters
    ----------
    capacity_bytes:
        Total resident-byte budget across all banked plans (a plan charges
        its vector, keys, delegate arrays and memoised views, see
        :meth:`QueryPlan.nbytes`); least recently used plans are evicted
        beyond it.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_PLAN_BANK_BYTES) -> None:
        super().__init__(capacity_bytes, size_of=lambda plan: plan.nbytes())
        # Per-key build locks backing shared(): N concurrent callers racing
        # on one cold key serialise on the key's lock, so exactly one runs
        # the builder while the rest wait and then hit.
        self._build_locks: dict = {}

    def get(
        self,
        fingerprint: str,
        alpha: int,
        largest: bool,
        beta: Optional[int] = None,
    ) -> Optional[QueryPlan]:
        """Banked plan for the key, or ``None`` on a miss.

        ``beta`` (when given) is the consuming engine's configured delegate
        count; a banked plan whose effective beta differs was built under an
        incompatible configuration and is treated as a miss.  This is the
        single home of the compatibility rule — every consumer passes its
        ``config.beta`` here rather than re-checking.
        """
        key: _PlanKey = (fingerprint, int(alpha), bool(largest))
        with self._lock:
            plan = self._entries[key] if key in self._entries else None
            if (
                plan is not None
                and beta is not None
                and plan.beta != min(int(beta), plan.partition.subrange_size)
            ):
                plan = None  # banked under an incompatible configuration
            if plan is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        assert plan is None or isinstance(plan, QueryPlan)
        return plan

    def contains(self, fingerprint: str, alpha: int, largest: bool) -> bool:
        """Hit-state peek without LRU promotion or counter updates."""
        return self._contains((fingerprint, int(alpha), bool(largest)))

    def banked_plans(
        self, fingerprint: str, largest: Optional[bool] = None
    ) -> List[QueryPlan]:
        """Every banked plan for a fingerprint, without promotion or counters.

        The bank-aware alpha snap peeks here: a near-miss ``alpha`` may be
        snapped to one of these plans' exponents when the modelled cost gap
        is small, turning a rebuild into a warm hit.  ``largest`` narrows to
        one key order.
        """
        with self._lock:
            return [
                plan
                for (fp, _alpha, order), plan in self._entries.items()
                if fp == fingerprint and (largest is None or order == bool(largest))
            ]

    def manifest_rows(self, fingerprints: Optional[Iterable[str]] = None) -> List[dict]:
        """Geometry rows for persisting banked plans across restarts.

        Each row carries exactly what a restart needs to rebuild the plan
        from the (spilled) vector bytes without re-resolving anything:
        ``fingerprint, alpha, largest, beta, n, offset``.  ``fingerprints``
        narrows the walk to the given content; ``None`` exports the whole
        bank.  No promotion, no counters.
        """
        wanted = set(fingerprints) if fingerprints is not None else None
        with self._lock:
            rows: List[dict] = []
            for (fp, alpha, order), plan in self._entries.items():
                if wanted is not None and fp not in wanted:
                    continue
                rows.append(
                    {
                        "fingerprint": fp,
                        "alpha": int(alpha),
                        "largest": bool(order),
                        "beta": int(plan.beta),
                        "n": int(plan.n),
                        "offset": int(plan.offset),
                    }
                )
            return rows

    def _build_lock(self, key: _PlanKey) -> threading.Lock:
        with self._lock:
            lock = self._build_locks.get(key)
            if lock is None:
                if len(self._build_locks) >= _BUILD_LOCK_CAP:
                    # Prune locks whose key is no longer resident (evicted or
                    # invalidated content); a pruned key that comes back just
                    # gets a fresh lock.  A key being *built* is not resident
                    # yet either, so also keep any lock currently held — the
                    # prune must never orphan an in-progress build (a fresh
                    # lock would admit a second, concurrent builder).
                    for stale in [
                        k
                        for k, lk in self._build_locks.items()
                        if k not in self._entries and not lk.locked()
                    ]:
                        del self._build_locks[stale]
                lock = self._build_locks.setdefault(key, threading.Lock())
            return lock

    def shared(
        self,
        fingerprint: str,
        alpha: int,
        largest: bool,
        beta: Optional[int],
        builder: Callable[[], QueryPlan],
    ) -> Tuple[QueryPlan, bool]:
        """Shared-handle access: get the banked plan or build it exactly once.

        Returns ``(plan, constructed)``.  The dispatcher's plan pre-warming
        and re-warming go through it: under concurrency (two callers racing
        on the same cold key) the per-key build lock admits a single builder
        run while the losers wait and return the winner's plan with
        ``constructed=False``.

        The returned handle stays valid even if the entry is invalidated or
        evicted while holders still use it — they keep their reference;
        invalidation only stops *future* lookups from hitting.  A degenerate
        plan (construction skipped at preparation) is returned but never
        banked, matching :meth:`put`.
        """
        key: _PlanKey = (fingerprint, int(alpha), bool(largest))
        with self._build_lock(key):
            plan = self.get(fingerprint, alpha, largest, beta=beta)
            if plan is not None:
                return plan, False
            plan = builder()
            self.put(fingerprint, plan)
            return plan, True

    def put(self, fingerprint: str, plan: QueryPlan) -> bool:
        """Bank one plan under its own ``(alpha, largest)``; True if admitted.

        Degenerate plans (construction was skipped) are not banked: they
        carry no reusable work, and banking one would shadow a later, real
        construction for smaller ``k``.  Lazy views are materialised before
        sizing, so the byte budget charges the plan's full steady-state
        footprint rather than its pre-first-query size.
        """
        if plan.is_degenerate:
            return False
        plan.materialise_views()
        key: _PlanKey = (fingerprint, int(plan.alpha), bool(plan.largest))
        return self._put(key, plan)


class ChunkMemo(_ByteBudgetLru):
    """Byte-budgeted LRU of per-chunk streaming candidates.

    Values are :class:`TopKResult`\\ s with **chunk-local** indices; the
    streaming merge adds the chunk's stream offset, so one memoised chunk
    serves replays at any position.  Entries charge their candidate arrays
    (k-bounded, so a generous number of chunks fits a small budget).
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CHUNK_MEMO_BYTES) -> None:
        super().__init__(
            capacity_bytes,
            size_of=lambda r: int(r.values.nbytes) + int(r.indices.nbytes),
        )

    def get(self, fingerprint: str, k: int, largest: bool) -> Optional[TopKResult]:
        """Memoised chunk candidates for the key, or ``None`` on a miss."""
        key: _ChunkKey = (fingerprint, int(k), bool(largest))
        result = self._get(key)
        assert result is None or isinstance(result, TopKResult)
        return result

    def put(self, fingerprint: str, k: int, largest: bool, result: TopKResult) -> bool:
        """Memoise one chunk's local candidates; True if admitted."""
        key: _ChunkKey = (fingerprint, int(k), bool(largest))
        return self._put(key, result)
