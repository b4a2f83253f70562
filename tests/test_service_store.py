"""VectorStore and the dispatcher's named-vector admit/query/evict front end.

The contracts that make named serving safe:

* admission fingerprints once and enforces immutability (writes raise);
* a warm named query does zero construction work and zero fingerprint work;
* evicting a name cascades into the plan bank / result cache (released bytes
  are observable) unless another name still serves identical content;
* the byte-budgeted LRU respects pins and never evicts the entry being
  admitted; and
* the whole front end survives concurrent admit/query/evict traffic.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.drtopk import DrTopK
from repro.errors import ConfigurationError
from repro.harness.experiments import _same_alpha_variant
from repro.service.cache import fingerprint_array, fingerprint_call_count
from repro.service.dispatcher import ServiceDispatcher
from repro.service.store import StoredVector, VectorStore
from tests.helpers import assert_topk_correct

N = 1 << 14


def _vec(rng, n=1 << 10):
    return rng.integers(0, 2**32, size=n, dtype=np.uint32)


class TestVectorStoreUnit:
    def test_admit_get_evict_roundtrip(self, rng):
        store = VectorStore(capacity_bytes=1 << 20)
        v = _vec(rng)
        entry = store.admit("a", v)
        assert entry.fingerprint == fingerprint_array(v)
        assert store.get("a") is entry
        assert "a" in store and len(store) == 1
        assert store.info().bytes == v.nbytes
        evicted = store.evict("a")
        assert evicted is entry
        assert store.get("a") is None
        assert store.info().bytes == 0
        assert store.evict("a") is None  # idempotent

    def test_admission_enforces_immutability(self, rng):
        store = VectorStore(capacity_bytes=1 << 20)
        v = _vec(rng)
        store.admit("a", v)
        with pytest.raises(ValueError):
            v[0] = 1

    def test_byte_budget_evicts_lru_not_pinned(self, rng):
        vectors = [_vec(rng) for _ in range(3)]
        budget = sum(v.nbytes for v in vectors[:2])
        removed = []
        store = VectorStore(capacity_bytes=budget, on_evict=removed.append)
        store.admit("a", vectors[0], pin=True)
        store.admit("b", vectors[1])
        # "b" is the LRU unpinned entry; admitting "c" must evict it, not
        # the pinned (and older) "a".
        store.admit("c", vectors[2])
        assert [e.name for e in removed] == ["b"]
        assert store.names() == ["a", "c"]
        assert store.info().bytes == budget
        assert store.info().evictions == 1

    def test_get_promotes_lru_order(self, rng):
        vectors = [_vec(rng) for _ in range(3)]
        store = VectorStore(capacity_bytes=sum(v.nbytes for v in vectors[:2]))
        store.admit("a", vectors[0])
        store.admit("b", vectors[1])
        store.get("a")  # promote: "b" becomes the eviction candidate
        store.admit("c", vectors[2])
        assert store.names() == ["a", "c"]

    def test_oversize_vector_never_admitted(self, rng):
        v = _vec(rng)
        store = VectorStore(capacity_bytes=v.nbytes - 1)
        with pytest.raises(ConfigurationError):
            store.admit("a", v)
        assert len(store) == 0 and store.info().bytes == 0

    def test_all_pinned_admission_rolls_back(self, rng):
        vectors = [_vec(rng) for _ in range(2)]
        store = VectorStore(capacity_bytes=vectors[0].nbytes)
        store.admit("a", vectors[0], pin=True)
        with pytest.raises(ConfigurationError):
            store.admit("b", vectors[1])
        # The failed admission left no trace: "a" resident, bytes exact,
        # and the refused vector was NOT made read-only.
        assert store.names() == ["a"]
        assert store.info().bytes == vectors[0].nbytes
        vectors[1][0] = 1  # still writable

    def test_refused_admission_evicts_nothing_and_fires_no_cascade(self, rng):
        """A refused admission must not half-evict the working set.

        Regression: the eviction loop used to evict unpinned victims one by
        one and, on discovering the budget still could not be met, roll back
        only the newly admitted entry — earlier victims stayed gone *and*
        their on_evict cascade was suppressed (leaked banked plans).
        """
        removed = []
        v = _vec(rng)  # all vectors equal-sized
        store = VectorStore(capacity_bytes=3 * v.nbytes, on_evict=removed.append)
        store.admit("p", _vec(rng), pin=True)
        store.admit("a", _vec(rng))
        store.admit("b", _vec(rng))
        # Re-admitting "b" at 2.5x the size needs 3.5x even after evicting
        # "a" — refused, and "a" must still be resident with no callback.
        big = rng.integers(0, 2**32, size=(1 << 10) * 5 // 2, dtype=np.uint32)
        with pytest.raises(ConfigurationError):
            store.admit("b", big)
        assert set(store.names()) == {"p", "a", "b"}
        assert removed == []
        assert store.info().bytes == 3 * v.nbytes
        assert store.info().evictions == 0
        big[0] = 1  # the refused vector stayed writable too

    def test_readmission_replaces_and_fires_on_changed_content(self, rng):
        removed = []
        store = VectorStore(capacity_bytes=1 << 20, on_evict=removed.append)
        v1, v2 = _vec(rng), _vec(rng)
        store.admit("a", v1)
        store.note_queries("a", 5)
        # Same content: a refresh, not an eviction; history survives.
        entry = store.admit("a", v1.copy())
        assert removed == [] and entry.queries == 5
        # Changed content: the old entry is released.
        store.admit("a", v2)
        assert [e.fingerprint for e in removed] == [fingerprint_array(v1)]
        assert store.info().bytes == v2.nbytes

    def test_pin_unpin_validation(self, rng):
        store = VectorStore(capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            store.pin("ghost")
        store.admit("a", _vec(rng))
        store.pin("a")
        assert store.get("a").pinned
        store.unpin("a")
        assert not store.get("a").pinned

    def test_pin_sticks_across_readmission(self, rng):
        """A pin names the name, not one content version."""
        store = VectorStore(capacity_bytes=1 << 20)
        v1, v2 = _vec(rng), _vec(rng)
        store.admit("a", v1, pin=True)
        store.admit("a", v1.copy())  # same-content refresh
        assert store.get("a").pinned
        store.admit("a", v2)  # changed content
        assert store.get("a").pinned
        store.unpin("a")
        store.admit("a", v2.copy())
        assert not store.get("a").pinned

    def test_entries_compare_by_identity(self, rng):
        # eq=False: numpy fields make generated equality raise, and entries
        # are handles, not values — identity is the right semantics.
        a = VectorStore(capacity_bytes=1 << 20).admit("a", _vec(rng))
        b = VectorStore(capacity_bytes=1 << 20).admit("a", _vec(rng))
        assert a != b and a == a
        assert a in [b, a]  # list membership must not raise

    def test_pin_is_not_a_query(self, rng):
        """Pinning must neither promote the LRU entry nor count as a hit."""
        vectors = [_vec(rng) for _ in range(3)]
        store = VectorStore(capacity_bytes=sum(v.nbytes for v in vectors[:2]))
        store.admit("a", vectors[0])
        store.admit("b", vectors[1])
        hits_before = store.info().hits
        store.pin("a")
        store.unpin("a")
        assert store.info().hits == hits_before
        # "a" was not promoted: it is still the LRU entry and gets evicted.
        store.admit("c", vectors[2])
        assert store.names() == ["b", "c"]

    def test_rejects_bad_shapes(self, rng):
        store = VectorStore(capacity_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            store.admit("m", rng.integers(0, 9, size=(4, 4)))
        with pytest.raises(ConfigurationError):
            store.admit("e", np.empty(0, dtype=np.uint32))

    def test_live_fingerprints_cover_shards(self, rng):
        store = VectorStore(capacity_bytes=1 << 20)
        v = _vec(rng)
        store.admit("a", v, shard_fingerprints={(0, 10): "shard-fp"})
        assert store.live_fingerprints() == {fingerprint_array(v), "shard-fp"}


class TestDispatcherNamedServing:
    """The acceptance path: admit / query / evict over a working set."""

    def _dispatcher(self, **kwargs):
        kwargs.setdefault("num_workers", 2)
        kwargs.setdefault("result_cache_capacity", 0)
        return ServiceDispatcher(**kwargs)

    def test_working_set_serves_warm_and_zero_hash(self, rng):
        ks = [8, 64]
        engine = DrTopK()
        changed = [(_same_alpha_variant(engine, N, k), True) for k in ks]
        vectors = {f"vec{i}": _vec(rng, N) for i in range(3)}
        with self._dispatcher() as d:
            for name, v in vectors.items():
                d.admit(name, v, warm=[(k, True) for k in ks])
            before = fingerprint_call_count()
            for name, v in vectors.items():
                results = d.query(name, changed)
                report = d.last_report
                assert report.constructions == 0
                assert report.construction_bytes == 0.0
                assert report.plan_bank_hits > 0
                for (k, _), result in zip(changed, results):
                    assert_topk_correct(result, v, k)
            # No per-query fingerprint recomputation across the whole round.
            assert fingerprint_call_count() == before
            assert report.store is not None and report.store.size == 3

    def test_evict_releases_banked_plan_bytes(self, rng):
        with self._dispatcher() as d:
            d.admit("a", _vec(rng, N), warm=[(16, True)])
            d.admit("b", _vec(rng, N), warm=[(16, True)])
            before = d.plan_bank.info().bytes
            assert d.evict("a")
            after = d.plan_bank.info().bytes
            assert 0 < after < before
            # The other name still serves warm.
            d.query("b", (16, True))
            assert d.last_report.constructions == 0
            with pytest.raises(ConfigurationError):
                d.query("a", 16)

    def test_evict_spares_aliased_content(self, rng):
        v = _vec(rng, N)
        with self._dispatcher() as d:
            d.admit("a", v, warm=[(16, True)])
            d.admit("alias", v.copy())  # identical content, second name
            before = d.plan_bank.info().bytes
            assert d.evict("a")
            # The alias still pins the fingerprint: nothing was invalidated.
            assert d.plan_bank.info().bytes == before
            d.query("alias", (16, True))
            assert d.last_report.constructions == 0

    def test_readmission_with_changed_content_invalidates(self, rng):
        v1, v2 = _vec(rng, N), _vec(rng, N)
        with self._dispatcher() as d:
            d.admit("a", v1, warm=[(16, True)])
            fp1 = d.store.get("a").fingerprint
            assert any(key[0] == fp1 for key in d.plan_bank._entries)
            d.admit("a", v2, warm=[(16, True)])
            # Every plan banked under the replaced content is gone.
            assert all(key[0] != fp1 for key in d.plan_bank._entries)
            results = d.query("a", (16, True))
            assert_topk_correct(results[0], v2, 16)
            assert d.last_report.constructions == 0  # v2's own warm plan

    def test_sharded_named_vector_precomputes_shard_fingerprints(self, rng):
        v = _vec(rng, N)
        with self._dispatcher(capacity_elements=N // 4) as d:
            entry = d.admit("big", v, warm=[(16, True)])
            assert entry.shard_fingerprints  # one per shard, at admission
            for (start, stop), fp in entry.shard_fingerprints.items():
                assert fp == fingerprint_array(v[start:stop])
            before = fingerprint_call_count()
            results = d.query("big", (16, True))
            assert d.last_report.route == "sharded"
            assert d.last_report.constructions == 0
            assert d.last_report.construction_bytes == 0.0
            assert fingerprint_call_count() == before
            assert_topk_correct(results[0], v, 16)
            bank_before = d.plan_bank.info().bytes
            assert d.evict("big")
            assert d.plan_bank.info().bytes < bank_before

    def test_query_accepts_scalar_and_sequence(self, rng):
        v = _vec(rng, N)
        with self._dispatcher() as d:
            d.admit("a", v)
            assert len(d.query("a", 8)) == 1
            assert len(d.query("a", (8, False))) == 1
            assert len(d.query("a", [8, (16, True)])) == 2

    def test_store_disabled(self, rng):
        with self._dispatcher(store_bytes=0) as d:
            for call in (
                lambda: d.admit("a", _vec(rng)),
                lambda: d.query("a", 8),
                lambda: d.evict("a"),
                lambda: d.pin("a"),
                lambda: d.unpin("a"),
            ):
                # Every entry point diagnoses the same misconfiguration the
                # same way (not "admit() it first", which cannot succeed).
                with pytest.raises(ConfigurationError, match="store is disabled"):
                    call()
            # Anonymous dispatch is unaffected.
            assert len(d.dispatch(_vec(rng, N), [8])) == 1

    def test_query_feeds_router_history_and_affinity(self, rng):
        v = _vec(rng, N)
        with self._dispatcher() as d:
            entry = d.admit("a", v)
            d.query("a", [(8, True), (64, True)])
            assert d.router.query_history(entry.fingerprint) == 2
            d.query("a", (8, True))
            assert d.router.query_history(entry.fingerprint) == 3
            assert d.evict("a")
            assert d.router.query_history(entry.fingerprint) == 0  # forgotten


class TestRouterAffinity:
    def test_history_pins_placement_to_remembered_worker(self, uniform_u32):
        from repro.service.batch import BatchTopK, TopKQuery
        from repro.service.cache import PartitionCache
        from repro.service.router import Router

        cache = PartitionCache()
        engine = BatchTopK(cache=cache).engine
        router = Router(num_workers=4, capacity_elements=1 << 30, cache=cache)
        parsed = [TopKQuery.of(16)]
        fp = fingerprint_array(uniform_u32)
        # Without history, a single group lands on the first (least-loaded).
        placement = router.place_groups(uniform_u32, parsed, engine, fingerprint=fp)
        assert placement[0] == [0]
        # With history and a remembered worker, placement follows it.
        router.note_queries(fp, 1)
        router._affinity[fp] = 2
        placement = router.place_groups(uniform_u32, parsed, engine, fingerprint=fp)
        assert placement[2] == [0]

    def test_affinity_records_heaviest_groups_worker(self, uniform_u32):
        """Affinity must track the heaviest group, not the most-loaded worker.

        With two workers and three plan groups, the two lighter groups stack
        on the second worker and out-weigh the heaviest; remembering the
        most-loaded worker would steer the heaviest group to a different
        worker on the next identical dispatch (oscillation).
        """
        from repro.service.batch import BatchTopK, TopKQuery
        from repro.service.cache import PartitionCache
        from repro.service.router import Router

        cache = PartitionCache()
        engine = BatchTopK(cache=cache).engine
        router = Router(num_workers=2, capacity_elements=1 << 30, cache=cache)
        # Three distinct Rule-4 alphas -> three cold groups of similar weight.
        parsed = [TopKQuery.of(k) for k in (2, 64, 2048)]
        fp = fingerprint_array(uniform_u32)
        placement = router.place_groups(uniform_u32, parsed, engine, fingerprint=fp)
        heaviest_worker = next(
            w for w, positions in enumerate(placement) if len(positions) == 1
        )
        assert router._affinity[fp] == heaviest_worker
        # A repeat dispatch keeps the heaviest group on that same worker.
        router.note_queries(fp, len(parsed))
        again = router.place_groups(uniform_u32, parsed, engine, fingerprint=fp)
        assert placement[heaviest_worker][0] in again[heaviest_worker]

    def test_forget_drops_history(self):
        from repro.service.cache import PartitionCache
        from repro.service.router import Router

        router = Router(num_workers=2, capacity_elements=1 << 30, cache=PartitionCache())
        router.note_queries("fp", 3)
        assert router.query_history("fp") == 3
        router.forget("fp")
        assert router.query_history("fp") == 0


class TestConcurrentHammer:
    """Concurrent admit/query/evict must neither crash nor corrupt answers.

    Sized for the 1-CPU CI box: four threads, small vectors, short loops —
    the point is interleaving under the GIL's preemption, not load.
    """

    def test_admit_query_evict_hammer(self, rng):
        n = 1 << 10
        rounds = 12
        vectors = [_vec(rng, n) for _ in range(4)]
        expected = [np.sort(v)[::-1][:16] for v in vectors]
        errors = []
        with ServiceDispatcher(
            num_workers=2, result_cache_capacity=0, store_bytes=3 * vectors[0].nbytes
        ) as d:

            def worker(idx: int) -> None:
                try:
                    name = f"vec{idx}"
                    for _ in range(rounds):
                        d.admit(name, vectors[idx].copy())
                        try:
                            (result,) = d.query(name, (16, True))
                        except ConfigurationError:
                            continue  # evicted between admit and query: legal
                        np.testing.assert_array_equal(result.values, expected[idx])
                        d.evict(name)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors
        # Accounting survived the interleaving: resident bytes match entries.
        info = d.store.info()
        assert info.bytes == sum(
            d.store.get(name).nbytes for name in d.store.names()
        )
        assert info.bytes >= 0

    def test_query_racing_evict_admit_keeps_plans_whole(self, rng):
        """Warm queries racing evict/re-admit cascades: answers stay exact.

        Queriers hammer single-group batches against a named vector while a
        churner evicts and re-admits it (same content) — every eviction
        cascades invalidation into the plan bank while in-flight queries may
        hold the banked plan.  No query may ever observe a
        half-invalidated plan: a query either fails with the documented
        "no vector named" error (evicted between admit cycles — legal) or
        returns element-wise exact answers.  After quiesce every cache's
        byte ledger must equal the sum of its resident entry sizes.
        """
        n = 1 << 10
        hot = _vec(rng, n)
        ks = (8, 32)
        expected = {k: np.sort(hot)[::-1][:k] for k in ks}
        errors = []
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.admit("hot", hot)

            def querier():
                try:
                    for i in range(15):
                        k = ks[i % len(ks)]
                        # 4 identical queries: one plan-sharing group.
                        try:
                            results = d.query("hot", [(k, True)] * 4)
                        except ConfigurationError:
                            continue  # evicted between admit cycles: legal
                        for res in results:
                            np.testing.assert_array_equal(
                                np.sort(res.values)[::-1], expected[k]
                            )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def churner():
                try:
                    for _ in range(15):
                        d.evict("hot")
                        d.admit("hot", hot)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=querier) for _ in range(2)]
            threads.append(threading.Thread(target=churner))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            # Byte ledgers balance for every cache after quiesce.
            assert d.store.info().bytes == sum(
                d.store.get(name).nbytes for name in d.store.names()
            )
            assert d.plan_bank is not None
            assert d.plan_bank.info().bytes == sum(d.plan_bank._sizes.values())
            assert len(d.plan_bank._entries) == len(d.plan_bank._sizes)


def test_stored_vector_fingerprints_listing(rng):
    v = _vec(rng)
    entry = StoredVector(
        name="a",
        vector=v,
        fingerprint="whole",
        shard_fingerprints={(0, 5): "s0", (5, 10): "s1"},
    )
    assert sorted(entry.fingerprints()) == ["s0", "s1", "whole"]
    assert entry.nbytes == v.nbytes
