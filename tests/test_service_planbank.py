"""PlanBank / ChunkMemo: cross-dispatch plan persistence correctness.

The properties that make the zero-rescan path safe to serve from:

* a *mutated* vector misses (no stale answers, ever),
* an equal-content but distinct array hits (content keying, not identity),
* the byte budget evicts strictly LRU plans,
* bank (and chunk-memo) hits return bit-identical results to cold runs on
  the batched, sharded and streaming routes, with zero construction traffic.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.drtopk import DrTopK
from repro.errors import ConfigurationError
from repro.harness.experiments import _same_alpha_variant as _variant
from repro.service.batch import BatchTopK, TopKQuery
from repro.service.cache import PartitionCache, fingerprint_array
from repro.service.dispatcher import ServiceDispatcher
from repro.service.planbank import ChunkMemo, PlanBank
from repro.service.router import Router
from repro.types import TopKResult
from tests.helpers import assert_topk_correct

N = 1 << 14


def _plan_for(v, k=64, largest=True):
    return DrTopK().prepare(v, k, largest=largest)


def _same_alpha_variant(n: int, k: int) -> int:
    """A changed k keying the same banked plan (the experiments helper)."""
    return _variant(DrTopK(), n, k)


class TestPlanBankUnit:
    def test_content_keyed_hit_and_mutation_miss(self, uniform_u32):
        bank = PlanBank()
        plan = _plan_for(uniform_u32)
        fp = fingerprint_array(uniform_u32)
        assert bank.put(fp, plan)
        # Equal content, distinct array: same fingerprint, same plan back.
        copy_fp = fingerprint_array(uniform_u32.copy())
        assert copy_fp == fp
        assert bank.get(copy_fp, plan.alpha, plan.largest) is plan
        # One mutated element: different fingerprint, guaranteed miss.
        mutated = uniform_u32.copy()
        mutated[123] ^= 1
        assert bank.get(fingerprint_array(mutated), plan.alpha, plan.largest) is None
        # alpha and largest are part of the key.
        assert bank.get(fp, plan.alpha + 1, plan.largest) is None
        assert bank.get(fp, plan.alpha, not plan.largest) is None

    def test_byte_budget_evicts_lru(self, rng):
        vectors = [
            rng.integers(0, 2**32, size=1 << 10, dtype=np.uint32) for _ in range(3)
        ]
        plans = [_plan_for(v, k=16) for v in vectors]
        fps = [fingerprint_array(v) for v in vectors]
        # A budget that holds exactly two of the (equally sized) plans, at
        # their full steady-state footprint (what put() charges).
        for plan in plans:
            plan.materialise_views()
        budget = plans[0].nbytes() + plans[1].nbytes()
        bank = PlanBank(capacity_bytes=budget)
        assert bank.put(fps[0], plans[0])
        assert bank.put(fps[1], plans[1])
        # Touch plan 0 so plan 1 becomes the LRU entry.
        assert bank.get(fps[0], plans[0].alpha, plans[0].largest) is plans[0]
        assert bank.put(fps[2], plans[2])
        info = bank.info()
        assert info.evictions == 1
        assert info.bytes <= budget
        assert bank.get(fps[1], plans[1].alpha, plans[1].largest) is None  # evicted LRU
        assert bank.get(fps[0], plans[0].alpha, plans[0].largest) is plans[0]
        assert bank.get(fps[2], plans[2].alpha, plans[2].largest) is plans[2]

    def test_oversized_plan_never_admitted(self, uniform_u32):
        plan = _plan_for(uniform_u32)
        bank = PlanBank(capacity_bytes=plan.nbytes() - 1)
        assert not bank.put(fingerprint_array(uniform_u32), plan)
        assert len(bank) == 0

    def test_degenerate_plan_not_banked(self, uniform_u32):
        small = uniform_u32[:64]
        plan = DrTopK().prepare(small, 60)  # delegate vector cannot beat k
        assert plan.is_degenerate
        bank = PlanBank()
        assert not bank.put(fingerprint_array(small), plan)

    def test_contains_does_not_perturb_stats_or_lru(self, uniform_u32):
        bank = PlanBank()
        plan = _plan_for(uniform_u32)
        fp = fingerprint_array(uniform_u32)
        bank.put(fp, plan)
        before = bank.info()
        assert bank.contains(fp, plan.alpha, plan.largest)
        assert not bank.contains(fp, plan.alpha + 1, plan.largest)
        after = bank.info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_beta_mismatch_is_a_miss(self, uniform_u32):
        bank = PlanBank()
        plan = _plan_for(uniform_u32)  # default config: beta=2
        fp = fingerprint_array(uniform_u32)
        bank.put(fp, plan)
        assert bank.get(fp, plan.alpha, plan.largest, beta=2) is plan
        assert bank.get(fp, plan.alpha, plan.largest, beta=1) is None
        assert bank.get(fp, plan.alpha, plan.largest) is plan  # unchecked get

    def test_put_sizes_the_steady_state_footprint(self, uniform_u32):
        """Admission charges the flat views, not the pre-first-query size."""
        bank = PlanBank()
        plan = _plan_for(uniform_u32)
        assert plan.delegates is not None
        before = plan.nbytes()
        bank.put(fingerprint_array(uniform_u32), plan)
        # put() materialised the lazy gathers, growing the charged size …
        assert plan.delegates._flat_keys is not None
        assert bank.info().bytes == plan.nbytes() > before
        # … and serving queries afterwards cannot grow the plan further.
        DrTopK().topk_prepared(plan, 64)
        assert bank.info().bytes == plan.nbytes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlanBank(capacity_bytes=0)


class TestByteBudgetLruInvariants:
    """Accounting invariants of the shared byte-budgeted LRU.

    Regression coverage for the oversize-re-put defect: a re-put of an
    existing key with a now-oversize value used to return early *before*
    taking the lock, leaving the stale entry resident and its size counted.
    The invariant under any put/evict/oversize-re-put sequence is
    ``info().bytes == sum of resident entry sizes`` (never negative).
    """

    @staticmethod
    def _lru(capacity):
        from repro.service.planbank import _ByteBudgetLru

        # Values are (payload, size) pairs so one run mixes arbitrary sizes.
        return _ByteBudgetLru(capacity, size_of=lambda v: v[1])

    def _check_accounting(self, lru):
        info = lru.info()
        assert info.bytes == sum(lru._sizes[k] for k in lru._entries)
        assert info.bytes >= 0
        assert set(lru._sizes) == set(lru._entries)

    def test_oversize_reput_drops_stale_entry(self):
        lru = self._lru(capacity=100)
        assert lru._put(("k",), ("small", 40))
        assert lru.info().bytes == 40
        # The re-put value exceeds the whole budget: not admitted — and the
        # stale previous value must not keep serving (or staying counted).
        assert not lru._put(("k",), ("huge", 101))
        assert lru._get(("k",)) is None
        self._check_accounting(lru)
        assert lru.info().bytes == 0

    def test_get_does_not_conflate_falsy_values_with_misses(self):
        lru = self._lru(capacity=100)
        # A falsy payload (None, 0, empty containers) is a legitimate value.
        assert lru._put(("k",), (None, 10))
        hit = lru._get(("k",))
        assert hit == (None, 10)
        info = lru.info()
        assert (info.hits, info.misses) == (1, 0)

    def test_random_put_evict_sequences_keep_bytes_exact(self, rng):
        lru = self._lru(capacity=512)
        keys = [(f"k{i}",) for i in range(8)]
        for step in range(400):
            key = keys[int(rng.integers(len(keys)))]
            action = rng.random()
            if action < 0.70:
                # Sizes straddle the budget so oversize puts (fresh and
                # re-puts alike) interleave with normal ones.
                size = int(rng.integers(1, 768))
                lru._put(key, (step, size))
            elif action < 0.85:
                lru._get(key)
            else:
                lru._invalidate_where(lambda k: k == key)
            self._check_accounting(lru)
        assert lru.info().bytes <= 512

    def test_invalidate_releases_bytes_by_fingerprint(self):
        lru = self._lru(capacity=1000)
        lru._put(("fp1", 1), ("a", 100))
        lru._put(("fp1", 2), ("b", 150))
        lru._put(("fp2", 1), ("c", 200))
        assert lru.invalidate("fp1") == 250
        assert lru.info().bytes == 200
        assert lru._get(("fp1", 1)) is None
        assert lru._get(("fp2", 1)) == ("c", 200)
        assert lru.invalidate("ghost") == 0


class TestChunkMemoUnit:
    def test_keyed_by_k_and_largest(self, uniform_u32):
        memo = ChunkMemo()
        fp = fingerprint_array(uniform_u32)
        result = TopKResult(
            values=uniform_u32[:8].copy(),
            indices=np.arange(8, dtype=np.int64),
            k=8,
        )
        assert memo.put(fp, 8, True, result)
        assert memo.get(fp, 8, True) is result
        assert memo.get(fp, 8, False) is None
        assert memo.get(fp, 4, True) is None

    def test_byte_budget_eviction(self):
        def result(k):
            return TopKResult(
                values=np.zeros(k, dtype=np.uint32),
                indices=np.arange(k, dtype=np.int64),
                k=k,
            )

        entry = result(16)
        entry_bytes = entry.values.nbytes + entry.indices.nbytes
        memo = ChunkMemo(capacity_bytes=2 * entry_bytes)
        memo.put("a", 16, True, result(16))
        memo.put("b", 16, True, result(16))
        memo.put("c", 16, True, result(16))
        assert memo.get("a", 16, True) is None  # LRU evicted
        assert memo.get("b", 16, True) is not None
        assert memo.get("c", 16, True) is not None


class TestBankedServingCorrectness:
    """Bank hits are bit-identical to cold runs, on every route."""

    def test_batched_route(self, uniform_u32):
        warm_k = _same_alpha_variant(N, 64)
        queries = [(64, True), (64, False)]
        warm_queries = [(warm_k, True), (warm_k, False)]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.dispatch(uniform_u32, queries)
            assert d.last_report.constructions > 0
            # Same content, *different* array object, different k: bank hits.
            warm = d.dispatch(uniform_u32.copy(), warm_queries)
            report = d.last_report
        assert report.plan_bank_hits == 2
        assert report.constructions == 0
        assert report.construction_bytes == 0.0
        assert report.bytes_moved > 0  # queries still move their own traffic
        with ServiceDispatcher(
            num_workers=2, result_cache_capacity=0, plan_bank_bytes=0
        ) as fresh:
            cold = fresh.dispatch(uniform_u32, warm_queries)
        for a, b in zip(warm, cold):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_batched_route_mutation_misses(self, uniform_u32):
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.dispatch(uniform_u32, [(64, True)])
            mutated = uniform_u32.copy()
            mutated[0] = mutated[0] ^ np.uint32(0xFFFFFFFF)
            results = d.dispatch(mutated, [(64, True)])
            report = d.last_report
        assert report.plan_bank_hits == 0
        assert report.constructions > 0  # no stale plan served
        assert_topk_correct(results[0], mutated, 64)

    def test_sharded_route(self, uniform_u32):
        capacity = N // 4
        warm_k = _same_alpha_variant(capacity, 64)
        with ServiceDispatcher(
            num_workers=4,
            capacity_elements=capacity,
            result_cache_capacity=0,
        ) as d:
            d.dispatch(uniform_u32, [(64, True)])
            assert d.last_report.route == "sharded"
            assert d.last_report.constructions > 0
            warm = d.dispatch(uniform_u32, [(warm_k, True)])
            report = d.last_report
        assert report.plan_bank_hits > 0
        assert report.constructions == 0
        assert report.construction_bytes == 0.0
        with ServiceDispatcher(
            num_workers=4,
            capacity_elements=capacity,
            result_cache_capacity=0,
            plan_bank_bytes=0,
        ) as fresh:
            cold = fresh.dispatch(uniform_u32, [(warm_k, True)])
        np.testing.assert_array_equal(warm[0].values, cold[0].values)
        np.testing.assert_array_equal(warm[0].indices, cold[0].indices)

    def test_streaming_route_replay(self, uniform_u32):
        chunks = [uniform_u32[: N // 2], uniform_u32[N // 2 :]]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            first = d.dispatch(list(chunks), [(32, True)])
            assert d.last_report.route == "streaming"
            assert d.last_report.chunk_memo_hits == 0
            replay = d.dispatch(list(chunks), [(32, True)])
            report = d.last_report
        assert report.chunk_memo_hits == 2  # both chunks served from the memo
        assert report.constructions == 0
        assert report.construction_bytes == 0.0
        np.testing.assert_array_equal(first[0].values, replay[0].values)
        np.testing.assert_array_equal(first[0].indices, replay[0].indices)
        with ServiceDispatcher(
            num_workers=2, result_cache_capacity=0, chunk_memo_bytes=0
        ) as fresh:
            cold = fresh.dispatch(list(chunks), [(32, True)])
        np.testing.assert_array_equal(replay[0].values, cold[0].values)
        np.testing.assert_array_equal(replay[0].indices, cold[0].indices)

    def test_streaming_chunk_position_independence(self, uniform_u32):
        """A memoised chunk serves at a *different* stream offset correctly."""
        a, b = uniform_u32[: N // 2], uniform_u32[N // 2 :]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.dispatch([a, b], [(32, True)])
            swapped = d.dispatch([b, a], [(32, True)])
            assert d.last_report.chunk_memo_hits == 2
        # Same value multiset; indices must point at the right elements of
        # the *swapped* stream (local indices + new offsets).
        stream = np.concatenate([b, a])
        assert_topk_correct(swapped[0], stream, 32)


class TestWorkWeightedRouting:
    def test_bank_hit_groups_weigh_less(self, uniform_u32):
        router = Router(
            num_workers=2,
            capacity_elements=1 << 20,
            cache=PartitionCache(),
            plan_bank=PlanBank(),
        )
        cold = router.expected_group_work(N, [64, 64], alpha=8, beta=2, bank_hit=False)
        warm = router.expected_group_work(N, [64, 64], alpha=8, beta=2, bank_hit=True)
        assert warm < cold
        assert cold - warm >= N  # the construction scan dominates the gap

    def test_cold_group_placed_alone(self, uniform_u32):
        """Two banked groups share a worker; the cold group gets its own."""
        bank = PlanBank()
        cache = PartitionCache()
        router = Router(
            num_workers=2, capacity_elements=1 << 20, cache=cache, plan_bank=bank
        )
        engine = BatchTopK(cache=cache, plan_bank=bank).engine
        k_small, k_large = 16, 1024
        assert engine._resolve_alpha(N, k_small) != engine._resolve_alpha(N, k_large)
        fp = fingerprint_array(uniform_u32)
        # Bank plans for (k_small, True) and (k_small, False); leave
        # (k_large, True) cold.
        for largest in (True, False):
            alpha = engine._resolve_alpha(N, k_small)
            bank.put(
                fp,
                engine.prepare_with_alpha(uniform_u32, alpha, largest=largest, k=k_small),
            )
        parsed = [
            TopKQuery.of((k_small, True)),
            TopKQuery.of((k_small, False)),
            TopKQuery.of((k_large, True)),
            TopKQuery.of((k_small, True)),
            TopKQuery.of((k_small, False)),
        ]
        placement = router.place_groups(uniform_u32, parsed, engine, fingerprint=fp)
        by_worker = [sorted(p) for p in placement]
        # The cold (k_large) group is position 2; it must sit alone while
        # both cheap bank-hit groups share the other worker.
        assert [2] in by_worker
        assert sorted([0, 1, 3, 4]) in by_worker

    def test_query_count_tie_still_spreads(self, uniform_u32):
        """Without a bank, equal groups still spread like the old heuristic."""
        router = Router(num_workers=2, capacity_elements=1 << 20, cache=PartitionCache())
        engine = BatchTopK(cache=router.cache).engine
        parsed = [TopKQuery.of((64, i % 2 == 0)) for i in range(10)]
        placement = router.place_groups(uniform_u32, parsed, engine)
        assert sorted(len(p) for p in placement) == [5, 5]


def _ledger_consistent(cache) -> bool:
    """A _ByteBudgetLru's byte ledger equals the sum of its resident sizes."""
    return (
        cache.info().bytes == sum(cache._sizes.values())
        and len(cache._entries) == len(cache._sizes)
    )


class TestSharedBroadcastConcurrency:
    """PlanBank.shared under threads: one construction, coherent handles.

    Sized for the 1-CPU CI box: these are determinism/invariant stress
    tests (no timing asserts) — the GIL's preemption and numpy's
    GIL-releasing kernels provide the interleaving.
    """

    def test_concurrent_shared_constructs_once(self, uniform_u32):
        bank = PlanBank()
        fp = fingerprint_array(uniform_u32)
        engine = DrTopK()
        k = 64
        alpha = engine._resolve_alpha(N, k)
        builds: list = []
        outcomes: list = []
        errors: list = []

        def builder():
            plan = engine.prepare_with_alpha(uniform_u32, alpha, largest=True, k=k)
            builds.append(plan)
            return plan

        def worker():
            try:
                outcomes.append(
                    bank.shared(fp, alpha, True, engine.config.beta, builder)
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # Exactly one builder ran; every caller got the same banked handle
        # and exactly one of them is credited with the construction.
        assert len(builds) == 1
        assert len(outcomes) == 8
        assert {id(plan) for plan, _ in outcomes} == {id(builds[0])}
        assert sum(1 for _, constructed in outcomes if constructed) == 1
        assert _ledger_consistent(bank)

    def test_shared_survives_racing_invalidation(self, uniform_u32):
        """evict-cascade vs in-flight holders: handles stay whole, ledger exact.

        Queriers fetch a shared handle and answer through it while another
        thread invalidates the fingerprint in a loop — the exact shape of a
        named-vector eviction racing a query that holds the plan.  No querier
        may ever observe a half-invalidated plan: every answer must be
        element-wise exact, and the byte ledger must balance after quiesce.
        """
        bank = PlanBank()
        fp = fingerprint_array(uniform_u32)
        reference = DrTopK()
        k = 64
        alpha = reference._resolve_alpha(N, k)
        expected = np.sort(reference.topk(uniform_u32, k).values)
        errors: list = []
        stop = threading.Event()

        def querier():
            try:
                own = DrTopK()  # engines are per-thread; the bank is shared
                for _ in range(15):
                    plan, _ = bank.shared(
                        fp,
                        alpha,
                        True,
                        own.config.beta,
                        lambda: own.prepare_with_alpha(
                            uniform_u32, alpha, largest=True, k=k
                        ),
                    )
                    result = own.topk_prepared(plan, k, charge_construction=False)
                    np.testing.assert_array_equal(np.sort(result.values), expected)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def invalidator():
            try:
                while not stop.is_set():
                    bank.invalidate(fp)
                    stop.wait(0.001)  # yield so queriers make progress
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        queriers = [threading.Thread(target=querier) for _ in range(3)]
        churn = threading.Thread(target=invalidator)
        churn.start()
        for t in queriers:
            t.start()
        for t in queriers:
            t.join()
        stop.set()
        churn.join()
        assert not errors, errors
        assert _ledger_consistent(bank)

    def test_build_lock_prune_spares_inflight_builds(self):
        # The lock-table prune must never orphan a held lock: a key being
        # built is not resident yet, and replacing its lock would admit a
        # second concurrent builder (double-charged construction).
        from repro.service.planbank import _BUILD_LOCK_CAP

        bank = PlanBank()
        key = ("fp-inflight", 8, True)
        lock = bank._build_lock(key)
        lock.acquire()  # simulate a builder mid-flight
        try:
            for i in range(_BUILD_LOCK_CAP + 5):  # force prune passes
                bank._build_lock((f"fp{i}", 0, True))
            assert bank._build_lock(key) is lock
        finally:
            lock.release()

    def test_concurrent_puts_and_invalidates_keep_ledger(self, rng):
        """Admission churn from threads: bytes == sum(sizes) after quiesce."""
        vectors = [
            rng.integers(0, 2**32, size=1 << 9, dtype=np.uint32) for _ in range(6)
        ]
        plans = [_plan_for(v, k=16) for v in vectors]
        fps = [fingerprint_array(v) for v in vectors]
        for plan in plans:
            plan.materialise_views()
        # A budget that holds only some of the plans, so puts also evict.
        bank = PlanBank(capacity_bytes=3 * plans[0].nbytes())
        errors: list = []

        def churner(idx: int):
            try:
                for _ in range(30):
                    bank.put(fps[idx], plans[idx])
                    bank.get(fps[idx], plans[idx].alpha, plans[idx].largest)
                    if idx % 2:
                        bank.invalidate(fps[idx])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churner, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert _ledger_consistent(bank)
        info = bank.info()
        assert 0 <= info.bytes <= bank.capacity_bytes


class TestBankAwareAlphaSnap:
    """Satellite: near-miss alpha resolutions snap onto banked neighbours."""

    # At n = 2^14 with the default beta, k=8 resolves to alpha=7 and k=32 to
    # alpha=6 — but serving k=32 through the banked alpha-7 plan is modelled
    # *cheaper* (256 + 4k vs 512 + 4k), so the snap must turn the second
    # dispatch into a pure bank hit.
    N_SNAP = 1 << 14

    def test_near_miss_k_becomes_bank_hit(self, rng):
        v = rng.integers(0, 2**32, size=self.N_SNAP, dtype=np.uint32)
        with ServiceDispatcher(num_workers=1, result_cache_capacity=0) as d:
            d.dispatch(v, [8])  # banks the alpha-7 plan
            report = d.last_report
            assert report is not None and report.constructions == 1
            results = d.dispatch(v, [32])  # resolves alpha 6: a near miss
            report = d.last_report
            assert report is not None
            assert report.constructions == 0, "near-miss k re-scanned the vector"
            assert report.construction_bytes == 0.0
            assert report.plan_bank_hits == 1
        assert_topk_correct(results[0], v, 32, largest=True)

    def test_snap_disabled_rebuilds(self, rng):
        v = rng.integers(0, 2**32, size=self.N_SNAP, dtype=np.uint32)
        with ServiceDispatcher(
            num_workers=1, result_cache_capacity=0, snap_tolerance=None
        ) as d:
            d.dispatch(v, [8])
            d.dispatch(v, [32])
            report = d.last_report
            assert report is not None
            assert report.constructions == 1, "snap ran while disabled"
            assert report.plan_bank_hits == 0

    def test_snapped_answers_are_identical_to_unsnapped(self, rng):
        v = rng.integers(0, 2**32, size=self.N_SNAP, dtype=np.uint32)
        ks = [8, 32, 32, 8]
        with ServiceDispatcher(
            num_workers=1, result_cache_capacity=0, snap_tolerance=None
        ) as ref:
            ref.dispatch(v.copy(), [8])
            want = ref.dispatch(v.copy(), ks)
        with ServiceDispatcher(num_workers=1, result_cache_capacity=0) as d:
            d.dispatch(v, [8])
            got = d.dispatch(v, ks)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_costlier_neighbour_does_not_snap(self, rng):
        # k=512 resolves to alpha=4 and banks a fine partition; k=8 then
        # resolves to alpha=7, and serving it through the banked alpha-4
        # plan would cost ~7x the modelled base, far past the tolerance —
        # the resolver must keep the Rule-4 exponent and rebuild.
        v = rng.integers(0, 2**32, size=self.N_SNAP, dtype=np.uint32)
        with ServiceDispatcher(num_workers=1, result_cache_capacity=0) as d:
            d.dispatch(v, [512])
            results = d.dispatch(v, [8])
            report = d.last_report
            assert report is not None
            assert report.constructions == 1
            assert report.plan_bank_hits == 0
        assert_topk_correct(results[0], v, 8, largest=True)

    def test_modelled_cost_matches_expected_work(self):
        from repro.service.batch import modelled_query_cost

        with ServiceDispatcher(num_workers=1) as d:
            engine = DrTopK()
            beta = engine.config.beta
            for k in (4, 64, 512):
                alpha = engine._resolve_alpha(self.N_SNAP, k)
                assert modelled_query_cost(
                    self.N_SNAP, k, alpha, beta
                ) == d.router.expected_query_work(self.N_SNAP, k, alpha, beta)
