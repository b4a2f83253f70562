"""Named-vector working set: the admission/eviction front end's storage.

Real top-k services (ANN candidate generation, tweet ranking — the paper's
own applications) do not receive one anonymous array per request: they hold a
*working set* of named vectors that serve query traffic for a while and are
then rotated out.  :class:`VectorStore` is that working set — a byte-budgeted
LRU of ``name → StoredVector`` entries where each entry carries everything
the serving path needs to stay zero-rescan:

* the vector itself, made **read-only at admission** (the fingerprint below
  is only trustworthy while the content cannot change under it — the
  documented :func:`~repro.service.cache.fingerprint_array` caveat, enforced
  here instead of merely documented);
* the content fingerprint, computed **once** at admission and pinned — a
  named query never re-hashes the vector; and
* for vectors above the device capacity, one fingerprint per shard (the
  sharded route banks plans per shard), precomputed so the sharded route
  never hashes either.

Eviction is LRU over resident bytes with pin/unpin: pinned entries are
skipped by budget eviction (an explicit :meth:`evict` still removes them —
an operator's explicit decision outranks the pin).  Every eviction fires the
``on_evict`` callback *outside* the store lock; the dispatcher uses it to
cascade invalidation into the :class:`~repro.service.planbank.PlanBank` and
:class:`~repro.service.cache.ResultCache`, so a vector leaving the working
set immediately releases its banked plan bytes.

With a :class:`~repro.service.spill.SpillDirectory` attached the store grows
a second tier and eviction stops being data loss:

* **Victims change.** Budget eviction scores unpinned residents by
  *cold-and-large* — resident bytes divided by ``1 + query history`` (the
  store's own counter, widened by the router's per-fingerprint history via
  ``query_history``) — and spills the highest scorer first, instead of pure
  LRU.  Without a spill directory the original LRU order is kept bit-for-bit.
* **Eviction spills.** A victim's bytes land in a content-addressed mmap
  file and its name, fingerprints and query stats land in the manifest;
  nothing is re-hashed.
* **Lookup falls through.** :meth:`get` of a non-resident name serves a
  read-only ``numpy.memmap`` view straight off the spill file — the vector
  never re-enters RAM and charges nothing against the budget — and promotes
  it back to a resident copy only after ``promote_after`` spill hits.
* **Re-admission is free.** :meth:`admit` with ``vector=None`` restores a
  spilled name entirely from the manifest: the fingerprint (and any shard
  fingerprints) recorded at original admission are trusted, so zero
  :func:`~repro.service.cache.fingerprint_array` calls happen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TenantQuotaError
from repro.service.cache import CacheInfo, fingerprint_array
from repro.service.spill import SpillDirectory
from repro.service.tenancy import DEFAULT_TENANT, TenantRegistry

__all__ = [
    "StoredVector",
    "VectorStore",
    "DEFAULT_STORE_BYTES",
    "DEFAULT_PROMOTE_AFTER",
]

#: Default working-set budget — a generous number of laptop-scale vectors.
DEFAULT_STORE_BYTES = 1 << 30
#: Spill hits after which a spilled entry is promoted back to a resident RAM
#: copy (0 disables promotion; serve over the mmap view forever).
DEFAULT_PROMOTE_AFTER = 4


@dataclass(eq=False)  # identity semantics: comparing numpy fields is ambiguous
class StoredVector:
    """One admitted vector and its pinned serving state.

    Attributes
    ----------
    name:
        The admission name; the query-time handle.
    vector:
        The admitted 1-D array, read-only (writes raise).
    fingerprint:
        Content fingerprint computed once at admission.
    shard_fingerprints:
        ``(start, stop) → fingerprint`` per shard for vectors that take the
        sharded route; ``None`` for vectors served whole.
    pinned:
        Pinned entries are never chosen by byte-budget eviction.
    queries:
        Queries served through this entry (the router's per-name history
        feeds off the same counter).
    resident:
        ``True`` for entries holding a RAM copy charged to the byte budget;
        ``False`` for spill-tier entries whose ``vector`` is a read-only
        ``numpy.memmap`` view over the spill file.
    spill_hits:
        Lookups served over the spill view since the entry left RAM; the
        promotion threshold compares against this counter.
    tenant:
        The identity that admitted the entry; its bytes are charged to this
        tenant's ledger and, with a registry configured, only this tenant's
        admissions may choose it as a budget-eviction victim.
    """

    name: str
    vector: np.ndarray
    fingerprint: str
    shard_fingerprints: Optional[Dict[Tuple[int, int], str]] = None
    pinned: bool = False
    queries: int = 0
    resident: bool = True
    spill_hits: int = 0
    tenant: str = DEFAULT_TENANT

    @property
    def nbytes(self) -> int:
        """Resident bytes the entry charges against the store budget."""
        return int(self.vector.nbytes)

    def fingerprints(self) -> List[str]:
        """Every fingerprint the entry pins (whole vector plus shards)."""
        out = [self.fingerprint]
        if self.shard_fingerprints:
            out.extend(self.shard_fingerprints.values())
        return out


class VectorStore:
    """Thread-safe byte-budgeted LRU of named vectors with pin/unpin.

    Parameters
    ----------
    capacity_bytes:
        Total resident-byte budget across admitted vectors; admitting beyond
        it evicts unpinned entries in LRU order.  A single vector larger than
        the whole budget is never admissible.
    on_evict:
        Called once per removed entry (budget eviction, explicit
        :meth:`evict`, and replacement by re-admission alike), outside the
        store lock.  The dispatcher cascades cache invalidation here.  When
        an eviction *spills*, the spill-tier manifest entry is written
        before the callback fires, so the callback can persist plan state
        for the spilled content.
    spill:
        Optional :class:`~repro.service.spill.SpillDirectory` second tier;
        without one the store behaves exactly as before (pure LRU, eviction
        drops).
    promote_after:
        Spill hits after which a spilled entry is copied back into RAM
        (``0`` disables promotion).
    query_history:
        Optional ``fingerprint → query count`` callable (the router's
        history) folded into the cold-and-large eviction score.
    tenants:
        Optional :class:`~repro.service.tenancy.TenantRegistry`.  When set,
        the working set is partitioned into per-tenant byte ledgers: an
        admission may only evict entries owned by the *requesting* tenant,
        a tenant's ``byte_budget`` caps its ledger, and its ``max_pins``
        caps simultaneous pins — violations raise
        :class:`~repro.errors.TenantQuotaError` before any mutation.
        Without a registry the store behaves exactly as before (one global
        budget, tenant labels are bookkeeping only).
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_STORE_BYTES,
        on_evict: Optional[Callable[[StoredVector], None]] = None,
        spill: Optional[SpillDirectory] = None,
        promote_after: int = DEFAULT_PROMOTE_AFTER,
        query_history: Optional[Callable[[str], int]] = None,
        tenants: Optional[TenantRegistry] = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError("store byte budget must be >= 1")
        if promote_after < 0:
            raise ConfigurationError("promote_after must be >= 0")
        self.capacity_bytes = int(capacity_bytes)
        self.on_evict = on_evict
        self.spill = spill
        self.promote_after = int(promote_after)
        self._query_history = query_history
        self.tenants = tenants
        self._entries: "OrderedDict[str, StoredVector]" = OrderedDict()
        self._spill_views: Dict[str, StoredVector] = {}
        self._bytes = 0
        self._tenant_bytes: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spills = 0
        self._spill_hits = 0
        self._promotions = 0
        self._cross_tenant_evictions = 0

    # -- admission -------------------------------------------------------------
    def admit(
        self,
        name: str,
        vector: Optional[np.ndarray] = None,
        shard_fingerprints: Optional[Dict[Tuple[int, int], str]] = None,
        pin: bool = False,
        fingerprint: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> StoredVector:
        """Admit (or replace) one named vector; returns its entry.

        The vector is made read-only in place — admission is the moment the
        immutability caveat becomes a contract — and fingerprinted once.
        Re-admitting an existing name replaces its entry (firing ``on_evict``
        for the old one when the content changed, so stale plans are
        released); an existing pin sticks across re-admission until
        :meth:`unpin`.  Admission evicts unpinned entries until the budget
        holds; it fails — leaving the store and the caller's array
        untouched — if the vector alone exceeds the budget or if every
        resident entry is pinned and the budget cannot be met.

        With a tenant registry configured, eviction victims are drawn only
        from ``tenant``'s own slice, the tenant's ``byte_budget`` and
        ``max_pins`` are checked, and any violation raises
        :class:`~repro.errors.TenantQuotaError` *before* the store mutates
        (the check-then-commit structure above doubles as admission
        rollback).

        With ``vector=None`` the name is restored from the spill tier: the
        bytes are copied out of the spill file and the fingerprint (and any
        shard fingerprints) recorded in the manifest are trusted, so the
        restore performs **zero** fingerprint computations.  A restore keeps
        the tenant recorded in the manifest unless the caller names a
        different one explicitly.
        """
        restored_queries: Optional[int] = None
        tenant = str(tenant)
        if vector is None:
            if self.spill is None:
                raise ConfigurationError(
                    f"cannot re-admit {name!r} without a vector: "
                    "no spill directory is configured"
                )
            loaded = self.spill.load(name)
            if loaded is None:
                raise ConfigurationError(
                    f"no spilled vector named {name!r} to restore "
                    f"(spill directory {self.spill.path!r})"
                )
            spilled, view = loaded
            # A private RAM copy; the manifest fingerprint is pinned as-is.
            vector = np.array(view)
            fingerprint = spilled.fingerprint
            shard_fingerprints = spilled.shard_fingerprints
            restored_queries = spilled.queries
            if tenant == DEFAULT_TENANT:
                tenant = spilled.tenant
        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise ConfigurationError(
                f"named vectors must be one dimensional, got shape {vector.shape}"
            )
        if vector.shape[0] == 0:
            raise ConfigurationError("cannot admit an empty vector")
        if int(vector.nbytes) > self.capacity_bytes:
            raise ConfigurationError(
                f"vector {name!r} ({vector.nbytes} B) exceeds the store budget "
                f"({self.capacity_bytes} B)"
            )
        if fingerprint is None:
            fingerprint = fingerprint_array(vector)
        entry = StoredVector(
            name=str(name),
            vector=vector,
            fingerprint=fingerprint,
            shard_fingerprints=shard_fingerprints,
            pinned=bool(pin),
            tenant=tenant,
        )
        removed: List[StoredVector] = []
        with self._lock:
            # Check, then commit: plan the evictions that would make room
            # and raise *before* mutating anything if the budget cannot be
            # met — a refused admission leaves the store (and the caller's
            # array) exactly as it found them, and every entry that does get
            # evicted always fires its cascade.  Tenant quota violations are
            # raised from the same pre-mutation window, so a rejected
            # admission never leaves half-admitted state.
            old = self._entries.get(entry.name)
            needed = self._bytes - (old.nbytes if old is not None else 0) + entry.nbytes
            tenant_budget = (
                self.tenants.byte_budget(tenant) if self.tenants is not None else None
            )
            tenant_needed = self._tenant_bytes.get(tenant, 0) + entry.nbytes
            if old is not None and old.tenant == tenant:
                tenant_needed -= old.nbytes
            self._check_pin_allowance(entry, old)
            blocked_by_others = False
            victims: List[str] = []
            for victim_name, resident in self._victim_order():
                if needed <= self.capacity_bytes and (
                    tenant_budget is None or tenant_needed <= tenant_budget
                ):
                    break
                if resident.pinned or victim_name == entry.name:
                    continue
                if self.tenants is not None and resident.tenant != tenant:
                    # Isolation: another tenant's residency is never this
                    # admission's problem to solve — skip, and remember the
                    # global budget was blocked by someone else's bytes.
                    blocked_by_others = True
                    continue
                victims.append(victim_name)
                needed -= resident.nbytes
                if resident.tenant == tenant:
                    tenant_needed -= resident.nbytes
            if tenant_budget is not None and tenant_needed > tenant_budget:
                self.tenants.note_rejection(tenant)
                raise TenantQuotaError(
                    f"cannot admit {name!r}: tenant {tenant!r} would hold "
                    f"{tenant_needed} B, over its {tenant_budget} B budget "
                    "even after evicting every unpinned vector it owns"
                )
            if needed > self.capacity_bytes:
                if self.tenants is not None and blocked_by_others:
                    self.tenants.note_rejection(tenant)
                    raise TenantQuotaError(
                        f"cannot admit {name!r} for tenant {tenant!r}: "
                        f"{needed} B needed but the remaining residency "
                        "belongs to other tenants "
                        f"(budget {self.capacity_bytes} B)"
                    )
                raise ConfigurationError(
                    f"cannot admit {name!r}: {needed} B needed even after "
                    "evicting every unpinned vector "
                    f"(budget {self.capacity_bytes} B)"
                )
            if old is not None:
                del self._entries[old.name]
                self._bytes -= old.nbytes
                self._ledger_add(old.tenant, -old.nbytes)
                # A pin names the *name*, not one content version: it sticks
                # across re-admission (refresh or replacement) until unpin().
                entry.pinned = entry.pinned or old.pinned
                if old.fingerprint != entry.fingerprint:
                    removed.append(old)
                else:
                    entry.queries = old.queries
            if restored_queries is not None and old is None:
                entry.queries = restored_queries
            for victim_name in victims:
                evicted = self._entries.pop(victim_name)
                self._bytes -= evicted.nbytes
                self._ledger_add(evicted.tenant, -evicted.nbytes)
                self._evictions += 1
                if evicted.tenant != entry.tenant:
                    # Unreachable with a registry (victims are filtered to
                    # the requesting tenant); counted so the isolation claim
                    # is checkable rather than asserted.
                    self._cross_tenant_evictions += 1
                if self.spill is not None:
                    self._spill_out(evicted)
                removed.append(evicted)
            self._entries[entry.name] = entry
            self._bytes += entry.nbytes
            self._ledger_add(entry.tenant, entry.nbytes)
            # The resident copy supersedes any open spill view of the name.
            self._spill_views.pop(entry.name, None)
        # Enforce the fingerprint's immutability caveat only once admission
        # has succeeded: the admitted array object rejects writes from here
        # on.  (A caller holding a separate writable view of the same buffer
        # can still defeat this — the enforcement is the strongest numpy
        # offers without copying.)
        vector.setflags(write=False)
        # Re-admission under a *new* content retires the name's stale spill
        # manifest entry; identical content keeps sharing the spill file.
        if self.spill is not None:
            stale = self.spill.get(entry.name)
            if stale is not None and stale.fingerprint != entry.fingerprint:
                self.spill.remove(entry.name)
        self._fire_evictions(removed)
        return entry

    def _ledger_add(self, tenant: str, delta: int) -> None:
        """Adjust one tenant's byte ledger; caller holds the store lock.

        Ledgers that reach zero are dropped so ``tenant_bytes()`` only ever
        lists tenants that actually hold bytes.
        """
        total = self._tenant_bytes.get(tenant, 0) + delta
        if total:
            self._tenant_bytes[tenant] = total
        else:
            self._tenant_bytes.pop(tenant, None)

    def _check_pin_allowance(
        self, entry: StoredVector, old: Optional[StoredVector]
    ) -> None:
        """Raise before mutation if admitting ``entry`` would exceed its pin cap.

        Caller holds the store lock.  Counts the tenant's currently pinned
        entries excluding the name being (re-)admitted — a sticking pin on a
        replaced name does not double-count.
        """
        if self.tenants is None:
            return
        will_pin = entry.pinned or (old is not None and old.pinned)
        if not will_pin:
            return
        allowance = self.tenants.max_pins(entry.tenant)
        if allowance is None:
            return
        held = sum(
            1
            for name, resident in self._entries.items()
            if resident.pinned and resident.tenant == entry.tenant and name != entry.name
        )
        if held + 1 > allowance:
            self.tenants.note_rejection(entry.tenant)
            raise TenantQuotaError(
                f"cannot pin {entry.name!r}: tenant {entry.tenant!r} already "
                f"holds {held} of its {allowance} allowed pins"
            )

    def _victim_order(self) -> List[Tuple[str, StoredVector]]:
        """Budget-eviction candidate order; caller holds the store lock.

        Pure LRU without a spill tier (bit-for-bit the original policy);
        with one, *cold-and-large* first — resident bytes over
        ``1 + query history`` — so a hot large vector outlives a cold one of
        the same size and spilling prefers the entries cheapest to lose.
        The sort is stable, so ties keep LRU order.
        """
        items = list(self._entries.items())
        if self.spill is None:
            return items
        return sorted(
            items,
            key=lambda kv: -(kv[1].nbytes / (1.0 + self._history(kv[1]))),
        )

    def _history(self, entry: StoredVector) -> int:
        """Widest known query count for an entry (store counter ∪ router)."""
        count = entry.queries
        if self._query_history is not None:
            try:
                # By design: the router's history probe only takes its own
                # short _history_lock and never calls back into the store, so
                # holding the store lock across it cannot deadlock — and
                # victim selection must see a consistent entry set.
                count = max(count, int(self._query_history(entry.fingerprint)))  # reprolint: waive[LOCK002] router history probe is lock-local and never re-enters the store
            except Exception:  # noqa: BLE001 — history is advisory, never fatal
                pass
        return count

    def _spill_out(self, entry: StoredVector) -> None:
        """Persist one eviction victim to the spill tier (lock held)."""
        self.spill.store(
            entry.name,
            entry.vector,
            entry.fingerprint,
            shard_fingerprints=entry.shard_fingerprints,
            queries=self._history(entry),
            tenant=entry.tenant,
        )
        entry.resident = False
        self._spills += 1
        # Any previously open view maps the same content (the fingerprint is
        # the file name); dropping it just forces a fresh mmap next get().
        self._spill_views.pop(entry.name, None)

    # -- lookup ----------------------------------------------------------------
    def get(self, name: str) -> Optional[StoredVector]:
        """The named entry (promoted to most recently used), or ``None``.

        A name absent from RAM falls through to the spill tier: the entry
        returned then wraps a read-only ``numpy.memmap`` view
        (``resident=False``) that charges nothing against the byte budget.
        After ``promote_after`` such serves the entry is promoted — copied
        back into RAM through the normal admission path (evicting others as
        needed); if the budget refuses, the mmap view keeps serving.
        """
        name = str(name)
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self._entries.move_to_end(name)
                self._hits += 1
                return entry
            view = self._spill_views.get(name)
            if view is not None:
                self._hits += 1
                self._spill_hits += 1
                view.spill_hits += 1
                if not self._should_promote(view):
                    return view
                entry = view
            elif self.spill is None:
                self._misses += 1
                return None
        if entry is None:
            loaded = self.spill.load(name)
            if loaded is None:
                with self._lock:
                    self._misses += 1
                return None
            spilled, mm = loaded
            fresh = StoredVector(
                name=name,
                vector=mm,
                fingerprint=spilled.fingerprint,
                shard_fingerprints=spilled.shard_fingerprints,
                queries=spilled.queries,
                resident=False,
                tenant=spilled.tenant,
            )
            with self._lock:
                resident = self._entries.get(name)
                if resident is not None:  # raced with a concurrent admit
                    self._entries.move_to_end(name)
                    self._hits += 1
                    return resident
                entry = self._spill_views.setdefault(name, fresh)
                self._hits += 1
                self._spill_hits += 1
                entry.spill_hits += 1
                if not self._should_promote(entry):
                    return entry
        # Promotion: re-admit through the normal restore path (outside the
        # lock — admission takes it).  A refused budget keeps the mmap view.
        try:
            promoted = self.admit(name)
        except ConfigurationError:
            return entry
        with self._lock:
            self._promotions += 1
        return promoted

    def _should_promote(self, view: StoredVector) -> bool:
        """Whether a spill view has accumulated enough hits to re-enter RAM."""
        return self.promote_after > 0 and view.spill_hits >= self.promote_after

    def names(self) -> List[str]:
        """Resident (RAM) names, least recently used first."""
        with self._lock:
            return list(self._entries)

    def spilled_names(self) -> List[str]:
        """Names currently held only by the spill tier (sorted)."""
        if self.spill is None:
            return []
        with self._lock:
            resident = set(self._entries)
        return sorted(n for n in self.spill.entries() if n not in resident)

    def snapshot(self) -> List[StoredVector]:
        """Resident entries, LRU first, without perturbing recency or counters.

        ``save_state`` walks this to persist the working set; a plain
        :meth:`get` loop would rotate the LRU order and inflate hit counts.
        """
        with self._lock:
            return list(self._entries.values())

    def live_fingerprints(self) -> set:
        """Every fingerprint still pinned by a resident entry.

        The eviction cascade asks "does any resident name still serve this
        content?" — the evicted entry is already gone when its callback
        fires, so aliased admissions of identical content keep their shared
        cache entries.
        """
        with self._lock:
            live: set = set()
            for entry in self._entries.values():
                live.update(entry.fingerprints())
            return live

    def owner(self, name: str) -> Optional[str]:
        """Owning tenant of a name on any tier, or ``None`` when unknown.

        A pure probe for ownership guards: unlike :meth:`get` it never
        promotes the entry in the LRU, counts a hit, or accumulates spill
        hits.  Checks RAM and live spill views under the lock, then falls
        through to the spill manifest (its own mutex) outside it.
        """
        name = str(name)
        with self._lock:
            entry = self._entries.get(name) or self._spill_views.get(name)
            if entry is not None:
                return entry.tenant
        if self.spill is not None:
            spilled = self.spill.entries().get(name)
            if spilled is not None:
                return spilled.tenant
        return None

    # -- pinning / eviction ------------------------------------------------------
    def pin(self, name: str) -> None:
        """Exempt the named entry from byte-budget eviction."""
        self._set_pin(name, True)

    def unpin(self, name: str) -> None:
        """Return the named entry to normal LRU eviction."""
        self._set_pin(name, False)

    def _set_pin(self, name: str, pinned: bool) -> None:
        with self._lock:
            entry = self._entries.get(str(name))
            if entry is None:
                raise ConfigurationError(f"no vector named {name!r} is admitted")
            if pinned and not entry.pinned and self.tenants is not None:
                allowance = self.tenants.max_pins(entry.tenant)
                if allowance is not None:
                    held = sum(
                        1
                        for resident in self._entries.values()
                        if resident.pinned and resident.tenant == entry.tenant
                    )
                    if held + 1 > allowance:
                        self.tenants.note_rejection(entry.tenant)
                        raise TenantQuotaError(
                            f"cannot pin {entry.name!r}: tenant "
                            f"{entry.tenant!r} already holds {held} of its "
                            f"{allowance} allowed pins"
                        )
            entry.pinned = pinned

    def evict(self, name: str, spill: Optional[bool] = None) -> Optional[StoredVector]:
        """Explicitly remove one named entry (pinned or not); returns it.

        Returns ``None`` when the name is in neither tier.  Fires
        ``on_evict`` so the removal cascades exactly like a budget eviction.
        ``spill`` controls the destination: ``None`` (default) demotes to
        the spill tier when one is configured and drops otherwise;
        ``False`` hard-drops from *both* tiers; ``True`` requires a spill
        directory.
        """
        name = str(name)
        if spill is None:
            to_spill = self.spill is not None
        elif spill:
            if self.spill is None:
                raise ConfigurationError(
                    f"cannot spill {name!r}: no spill directory is configured"
                )
            to_spill = True
        else:
            to_spill = False
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is not None:
                self._bytes -= entry.nbytes
                self._ledger_add(entry.tenant, -entry.nbytes)
                self._evictions += 1
                if to_spill:
                    self._spill_out(entry)
            else:
                entry = self._spill_views.pop(name, None)
        if entry is None and self.spill is not None and self.spill.contains(name):
            loaded = self.spill.load(name)
            if loaded is not None:
                spilled, mm = loaded
                entry = StoredVector(
                    name=name,
                    vector=mm,
                    fingerprint=spilled.fingerprint,
                    shard_fingerprints=spilled.shard_fingerprints,
                    queries=spilled.queries,
                    resident=False,
                    tenant=spilled.tenant,
                )
        if entry is None:
            return None
        if not to_spill and self.spill is not None:
            # Hard drop: the manifest entry (and any orphaned data file and
            # plan rows) goes too.
            self.spill.remove(name)
        if entry.resident or not to_spill:
            # Demoting an already-spilled name is a no-op that must not
            # cascade (its plans may keep serving over the spill view).
            self._fire_evictions([entry])
        return entry

    def clear(self) -> None:
        """Evict every entry (counters are kept; ``on_evict`` fires per entry)."""
        with self._lock:
            removed = list(self._entries.values())
            self._entries.clear()
            self._spill_views.clear()
            self._bytes = 0
            self._tenant_bytes.clear()
        self._fire_evictions(removed)

    def _fire_evictions(self, removed: List[StoredVector]) -> None:
        # Outside the lock: the callback re-enters the store (live-fingerprint
        # checks) and touches the plan bank's own lock.
        if self.on_evict is not None:
            for entry in removed:
                self.on_evict(entry)

    # -- bookkeeping -------------------------------------------------------------
    def note_queries(self, name: str, count: int) -> None:
        """Record ``count`` served queries against the named entry."""
        with self._lock:
            entry = self._entries.get(str(name)) or self._spill_views.get(str(name))
            if entry is not None:
                entry.queries += int(count)

    def tenant_bytes(self) -> Dict[str, int]:
        """Per-tenant resident-byte ledgers (tenants holding zero are absent).

        The ledgers partition ``bytes``: their sum always equals the global
        resident total, an invariant the tenancy stress suite hammers.
        """
        with self._lock:
            return dict(self._tenant_bytes)

    def cross_tenant_evictions(self) -> int:
        """Budget evictions whose victim belonged to a different tenant.

        Provably zero while a registry is configured (victim selection is
        filtered to the requesting tenant's slice); may be non-zero in
        untracked single-budget mode where tenant labels are bookkeeping.
        """
        with self._lock:
            return self._cross_tenant_evictions

    def info(self) -> CacheInfo:
        """Occupancy and hit/miss/eviction statistics.

        ``bytes`` counts resident RAM only; the ``spilled``/``spilled_bytes``
        pair reports the mmap tier (which charges nothing to the budget),
        and ``spill_hits``/``promotions`` its traffic.  With a tenant
        registry configured the per-tenant ledgers ride along in
        ``tenant_bytes``.
        """
        spilled = spilled_bytes = 0
        if self.spill is not None:
            sinfo = self.spill.info()
            spilled, spilled_bytes = sinfo.entries, sinfo.spilled_bytes
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
                spilled=spilled,
                spilled_bytes=spilled_bytes,
                spill_hits=self._spill_hits,
                promotions=self._promotions,
                cross_tenant_evictions=self._cross_tenant_evictions,
                tenant_bytes=(
                    dict(self._tenant_bytes) if self.tenants is not None else {}
                ),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if str(name) in self._entries:
                return True
        # The spill probe runs outside the store lock: SpillDirectory has its
        # own mutex and holding both here would widen the lock-order surface.
        return self.spill is not None and self.spill.contains(str(name))
