"""Router: route classification and work-unit emission."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service.batch import BatchTopK, TopKQuery
from repro.service.cache import PartitionCache
from repro.service.router import Router


@pytest.fixture
def router():
    return Router(num_workers=3, capacity_elements=1 << 12, cache=PartitionCache())


def test_classify_by_size_and_shape(router, uniform_u32):
    assert router.classify(uniform_u32[: 1 << 10]) == "batched"
    assert router.classify(uniform_u32) == "sharded"  # 2^14 > 2^12 capacity
    assert router.classify(iter([uniform_u32])) == "streaming"
    assert router.classify([uniform_u32[:10], uniform_u32[10:]]) == "streaming"
    with pytest.raises(ConfigurationError):
        router.classify(uniform_u32.reshape(128, -1))
    with pytest.raises(ConfigurationError):
        router.classify(42)


def test_groups_are_never_split_across_workers(router, uniform_u32):
    v = uniform_u32[: 1 << 12]
    # Two plan groups: identical k, opposite key order.
    parsed = [TopKQuery.of((64, i % 2 == 0)) for i in range(10)]
    workers = [BatchTopK(cache=router.cache) for _ in range(3)]
    placement = router.place_groups(v, parsed, workers[0].engine)
    assert sum(len(p) for p in placement) == len(parsed)
    # Each group's positions all landed on one worker.
    even = {w for w, positions in enumerate(placement) for p in positions if p % 2 == 0}
    odd = {w for w, positions in enumerate(placement) for p in positions if p % 2 == 1}
    assert len(even) == 1 and len(odd) == 1
    assert even != odd  # least-loaded placement spreads the two groups


def test_batched_units_skip_idle_workers(router, uniform_u32):
    # A single group pins to one worker: one unit, idle workers emit nothing.
    v = uniform_u32[: 1 << 12]
    parsed = [TopKQuery.of(64)] * 4  # one group -> one worker
    workers = [BatchTopK(cache=router.cache) for _ in range(3)]
    units, plan = router.batched_units(v, parsed, workers)
    assert len(units) == 1
    assert units[0].route == "batched"
    positions, results, report = units[0].fn()
    assert positions == [0, 1, 2, 3]
    assert len(results) == 4
    assert report.constructions == 1


def test_streaming_units_round_robin_and_slicing(router, uniform_u32):
    parsed = [TopKQuery.of((50, True)), TopKQuery.of((20, False))]
    units = list(
        router.streaming_units(
            uniform_u32, parsed, chunk_elements=3000, make_engine=lambda: BatchTopK()
        )
    )
    assert len(units) == -(-uniform_u32.shape[0] // 3000)
    assert [u.worker for u in units[:4]] == [0, 1, 2, 0]
    offset, length, by_largest, _report, memo_hits = units[1].fn()
    assert offset == 3000 and length == 3000
    assert memo_hits == 0  # no chunk memo attached
    # One distilled candidate set per key order present in the batch.
    assert set(by_largest) == {True, False}
    assert by_largest[True].values.shape[0] == 50
    assert by_largest[False].values.shape[0] == 20


def test_streaming_units_reject_bad_chunks(router):
    parsed = [TopKQuery.of(5)]
    bad = [np.zeros((4, 4), dtype=np.uint32)]
    with pytest.raises(ConfigurationError):
        list(router.streaming_units(bad, parsed, 1000, make_engine=lambda: BatchTopK()))


def test_router_validation():
    with pytest.raises(ConfigurationError):
        Router(num_workers=0, capacity_elements=10, cache=PartitionCache())
    with pytest.raises(ConfigurationError):
        Router(num_workers=1, capacity_elements=0, cache=PartitionCache())


class TestPlacementProperties:
    """Property-based placement: randomized batches and fleets, seeded rng.

    The greedy invariants placement must never break, checked over
    randomized group weights (via random ``(k, largest)`` mixes, which the
    Rule-4 resolution turns into groups of very different modelled weights)
    and worker counts.
    """

    N = 1 << 12

    def _random_batch(self, rng):
        size = int(rng.integers(2, 25))
        ks = rng.integers(1, self.N + 1, size=size)
        flags = rng.integers(0, 2, size=size).astype(bool)
        return [TopKQuery.of((int(k), bool(f))) for k, f in zip(ks, flags)]

    def _groups(self, router, parsed, engine):
        """The plan-sharing groups plan_batched places (no bank: all cold)."""
        from repro.service.batch import group_queries_by_plan

        return group_queries_by_plan(parsed, self.N, router.cache, engine)

    def _item_weights(self, router, parsed, engine):
        """Mirror plan_batched's placement items: one weight per group."""
        beta = engine.config.beta
        items = [
            router.expected_group_work(
                self.N, [parsed[p].k for p in positions], alpha, beta, False
            )
            for (alpha, _), positions in self._groups(router, parsed, engine).items()
        ]
        return items, sum(items)

    def test_no_worker_exceeds_even_share_plus_one_item(self, rng, uniform_u32):
        v = uniform_u32[: self.N]
        for _ in range(15):
            workers = int(rng.integers(2, 7))
            router = Router(
                num_workers=workers, capacity_elements=1 << 20, cache=PartitionCache()
            )
            engine = BatchTopK(cache=router.cache).engine
            parsed = self._random_batch(rng)
            plan = router.plan_batched(v, parsed, engine)
            items, total = self._item_weights(router, parsed, engine)
            # Greedy least-loaded: whoever holds the most never exceeds the
            # perfectly even share by more than one placed group.
            placed_total = sum(items)
            bound = placed_total / workers + max(items)
            assert max(plan.loads) <= bound + 1e-6, (
                f"worst worker {max(plan.loads)} exceeds {bound} "
                f"({workers} workers, {len(parsed)} queries)"
            )
            # The loads are exactly the placed group weights, nothing lost,
            # and the plan's total is the full modelled work.
            assert sum(plan.loads) == pytest.approx(placed_total)
            assert plan.total_weight == pytest.approx(total)

    def test_every_position_placed_exactly_once(self, rng, uniform_u32):
        v = uniform_u32[: self.N]
        for _ in range(10):
            workers = int(rng.integers(1, 7))
            router = Router(
                num_workers=workers, capacity_elements=1 << 20, cache=PartitionCache()
            )
            engine = BatchTopK(cache=router.cache).engine
            parsed = self._random_batch(rng)
            plan = router.plan_batched(v, parsed, engine)
            placed = sorted(p for positions in plan.placement for p in positions)
            assert placed == list(range(len(parsed)))
            # Every plan-sharing group landed whole on one worker.
            worker_of = {
                p: w for w, positions in enumerate(plan.placement) for p in positions
            }
            for positions in self._groups(router, parsed, engine).values():
                assert len({worker_of[p] for p in positions}) == 1

    def test_placement_is_deterministic(self, rng, uniform_u32):
        v = uniform_u32[: self.N]
        for _ in range(8):
            workers = int(rng.integers(2, 7))
            parsed = self._random_batch(rng)

            def fresh_plan():
                router = Router(
                    num_workers=workers,
                    capacity_elements=1 << 20,
                    cache=PartitionCache(),
                )
                engine = BatchTopK(cache=router.cache).engine
                return router.plan_batched(v, parsed, engine)

            first, second = fresh_plan(), fresh_plan()
            assert first.placement == second.placement
            assert first.loads == second.loads


class TestExpectedWorkGuards:
    """expected_group_work edges it previously trusted callers on."""

    def _router(self, workers=2):
        return Router(
            num_workers=workers, capacity_elements=1 << 20, cache=PartitionCache()
        )

    def test_non_negative_over_random_inputs(self, rng):
        router = self._router()
        for _ in range(50):
            n = int(rng.integers(1, 1 << 20))
            ks = [int(k) for k in rng.integers(1, n + 1, size=int(rng.integers(0, 6)))]
            alpha = int(rng.integers(0, 22))
            beta = int(rng.integers(1, 5))
            bank_hit = bool(rng.integers(0, 2))
            assert router.expected_group_work(n, ks, alpha, beta, bank_hit) >= 0.0

    def test_monotone_in_query_count(self, rng):
        router = self._router()
        for _ in range(30):
            n = int(rng.integers(2, 1 << 18))
            alpha = int(rng.integers(0, 18))
            beta = int(rng.integers(1, 5))
            bank_hit = bool(rng.integers(0, 2))
            ks: list = []
            previous = router.expected_group_work(n, ks, alpha, beta, bank_hit)
            for _ in range(5):
                ks.append(int(rng.integers(1, n + 1)))
                current = router.expected_group_work(n, ks, alpha, beta, bank_hit)
                assert current >= previous
                previous = current

    def test_empty_group_weighs_nothing(self):
        # No queries trigger no construction either: an empty group must not
        # skew placement with a phantom construction scan.
        assert self._router().expected_group_work(1 << 12, [], 8, 2, False) == 0.0

    def test_invalid_edges_raise(self):
        router = self._router()
        with pytest.raises(ConfigurationError):
            router.expected_group_work(1 << 12, [0], 8, 2, False)
        with pytest.raises(ConfigurationError):
            router.expected_group_work(1 << 12, [16, -3], 8, 2, False)
        with pytest.raises(ConfigurationError):
            router.expected_group_work(0, [16], 8, 2, False)
        with pytest.raises(ConfigurationError):
            router.expected_group_work(1 << 12, [16], -1, 2, False)
        with pytest.raises(ConfigurationError):
            router.expected_group_work(1 << 12, [16], 8, 0, False)
        with pytest.raises(ConfigurationError):
            router.expected_query_work(1 << 12, 0, 8, 2)
