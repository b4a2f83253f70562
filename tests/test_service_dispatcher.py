"""ServiceDispatcher: routing batches over the simulated multi-GPU fleet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drtopk import DrTopK
from repro.errors import ConfigurationError
from repro.service.dispatcher import ServiceDispatcher, dispatch_topk

from tests.helpers import assert_topk_correct


def test_batched_route_matches_loop(uniform_u32):
    queries = [(64, True), (256, False), (64, True), (1024, True), (1, False)] * 2
    dispatcher = ServiceDispatcher(num_workers=3)
    results = dispatcher.dispatch(uniform_u32, queries)
    engine = DrTopK()
    for q, res in zip(queries, results):
        solo = engine.topk(uniform_u32, q[0], largest=q[1])
        np.testing.assert_array_equal(res.values, solo.values)
    report = dispatcher.last_report
    assert report.route == "batched"
    assert report.num_queries == len(queries)
    assert sum(w.queries for w in report.workers) == len(queries)
    assert report.communication_ms > 0  # results were gathered to the primary
    assert report.compute_ms == max(w.compute_ms for w in report.workers)


def test_one_plan_construction_no_matter_the_placement(rng):
    # One plan-sharing group runs whole on one worker: one plan fetch or
    # construction and one fused selection pass, cold and warm, however many
    # workers the fleet has.
    v = rng.integers(0, 2**32, size=1 << 16, dtype=np.uint32)
    dispatcher = ServiceDispatcher(num_workers=4, result_cache_capacity=0)
    for ks, constructions in ((range(300, 316), 1), (range(320, 336), 0)):
        queries = [(k, True) for k in ks]
        results = dispatcher.dispatch(v, queries)
        for (k, largest), res in zip(queries, results):
            assert_topk_correct(res, v, k, largest=largest)
        report = dispatcher.last_report
        assert sum(1 for w in report.workers if w.queries) == 1
        assert report.selection_calls == 1
        assert report.fused_groups == 1
        assert report.constructions == constructions
    dispatcher.shutdown()


def test_sharded_route_for_oversized_inputs(uniform_u32):
    dispatcher = ServiceDispatcher(num_workers=4, capacity_elements=1 << 12)
    queries = [(100, True), (10, False)]
    results = dispatcher.dispatch(uniform_u32, queries)
    for q, res in zip(queries, results):
        assert_topk_correct(res, uniform_u32, q[0], largest=q[1])
    report = dispatcher.last_report
    assert report.route == "sharded"
    assert report.communication_ms > 0


def test_empty_dispatch(uniform_u32):
    dispatcher = ServiceDispatcher(num_workers=2)
    assert dispatcher.dispatch(uniform_u32, []) == []
    assert dispatcher.last_report.num_queries == 0
    assert dispatcher.last_report.cache is not None


def test_alpha_cache_shared_across_dispatches(uniform_u32):
    # Result caching disabled so the second dispatch runs the pipeline again:
    # the (n, k) -> alpha resolution must then come from the shared cache.
    dispatcher = ServiceDispatcher(
        num_workers=2, cache_capacity=16, result_cache_capacity=0
    )
    dispatcher.dispatch(uniform_u32, [(64, True)] * 3)
    first = dispatcher.last_report.cache
    dispatcher.dispatch(uniform_u32, [(64, True)] * 3)
    second = dispatcher.last_report.cache
    assert second.misses == first.misses  # shape already resolved
    assert second.hits > first.hits


def test_result_cache_skips_pipeline_entirely(uniform_u32):
    dispatcher = ServiceDispatcher(num_workers=2)
    queries = [(64, True), (256, False), (64, True)]
    first = dispatcher.dispatch(uniform_u32, queries)
    assert dispatcher.last_report.result_cache_hits == 0
    second = dispatcher.dispatch(uniform_u32, queries)
    report = dispatcher.last_report
    # Every query was served from the result cache: zero pipeline work.
    assert report.route == "cached"
    assert report.result_cache_hits == len(queries)
    assert report.constructions == 0
    assert report.workers == []
    assert report.bytes_moved == 0
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.indices, b.indices)


def test_result_cache_distinguishes_vectors(uniform_u32, rng):
    other = rng.integers(0, 2**32, size=uniform_u32.shape[0], dtype=np.uint32)
    dispatcher = ServiceDispatcher(num_workers=2)
    dispatcher.dispatch(uniform_u32, [(32, True)])
    res = dispatcher.dispatch(other, [(32, True)])
    assert dispatcher.last_report.result_cache_hits == 0
    assert_topk_correct(res[0], other, 32)


def test_executor_matches_sequential_dispatch(uniform_u32):
    # 16-query mixed (k, largest) batch: overlapped execution must return
    # element-wise identical results to sequential dispatch.
    queries = [(1 << (2 + i % 4), i % 2 == 0) for i in range(16)]
    sequential = ServiceDispatcher(
        num_workers=4, execution="sequential", result_cache_capacity=0
    )
    threaded = ServiceDispatcher(
        num_workers=4, execution="threads", result_cache_capacity=0
    )
    base = sequential.dispatch(uniform_u32, queries)
    over = threaded.dispatch(uniform_u32, queries)
    assert threaded.last_report.executor_mode == "threads"
    assert threaded.last_report.wall_ms > 0
    assert threaded.last_report.unit_wall_ms_sum > 0
    for a, b in zip(base, over):
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.indices, b.indices)
    threaded.shutdown()


def test_sharded_route_accounting_nonzero(uniform_u32):
    # Sharded dispatches must report their real traffic: construction scans
    # and the candidate gather, plus per-shard construction counts.
    dispatcher = ServiceDispatcher(num_workers=4, capacity_elements=1 << 12)
    dispatcher.dispatch(uniform_u32, [(100, True), (10, False)])
    report = dispatcher.last_report
    assert report.route == "sharded"
    assert report.bytes_moved > 0
    assert report.constructions > 0
    assert any(w.constructions > 0 for w in report.workers)
    assert any(w.bytes_moved > 0 for w in report.workers)
    # The shared partition cache was consulted for the per-shard shapes.
    assert report.cache.misses > 0 or report.cache.hits > 0


def test_sharded_batch_constructs_once_per_group(uniform_u32):
    """Trace-level: a 16-query mixed batch builds per-shard delegates once
    per (alpha, largest) group, not once per query."""
    from repro.core.drtopk import DrTopK
    from repro.core.subrange import SubrangePartition
    from repro.distributed.partition import plan_partition

    queries = [(64, True), (64, False), (512, True), (512, False)] * 4
    num_workers = 4
    capacity = 1 << 12
    dispatcher = ServiceDispatcher(num_workers=num_workers, capacity_elements=capacity)
    dispatcher.dispatch(uniform_u32, queries)
    report = dispatcher.last_report
    assert report.route == "sharded"

    # Expected: one construction per non-degenerate (alpha, largest) group
    # per shard — derived with the engine's own resolution.
    engine = DrTopK()
    plan = plan_partition(uniform_u32.shape[0], num_workers, capacity)
    expected = 0
    for start, stop in plan.subvector_bounds:
        sub_n = stop - start
        groups = {}
        for k, largest in queries:
            if k > sub_n:
                continue
            groups.setdefault((engine._resolve_alpha(sub_n, k), largest), []).append(k)
        for (alpha, _), ks in groups.items():
            partition = SubrangePartition(n=sub_n, alpha=alpha)
            beta = min(engine.config.beta, partition.subrange_size)
            if partition.num_subranges * beta > min(ks):
                expected += 1
    assert expected > 0
    assert report.constructions == expected
    assert report.constructions < len(queries) * plan.num_subvectors


def test_streaming_route_for_chunked_input(uniform_u32):
    from repro.core.drtopk import DrTopK

    chunks = [uniform_u32[i : i + 1500] for i in range(0, uniform_u32.shape[0], 1500)]
    dispatcher = ServiceDispatcher(num_workers=3)
    results = dispatcher.dispatch(iter(chunks), [(200, True), (32, False)])
    report = dispatcher.last_report
    assert report.route == "streaming"
    assert sum(w.queries for w in report.workers) == len(chunks)  # one unit per chunk
    assert report.communication_ms > 0  # candidates travelled to the primary
    assert report.bytes_moved > 0
    engine = DrTopK()
    np.testing.assert_array_equal(results[0].values, engine.topk(uniform_u32, 200).values)
    np.testing.assert_array_equal(
        results[1].values, engine.topk(uniform_u32, 32, largest=False).values
    )
    assert_topk_correct(results[0], uniform_u32, 200)


def test_streaming_route_chunks_smaller_than_k(uniform_u32):
    # Every chunk is smaller than k: chunks contribute everything they have
    # and the pool only fills up across chunk boundaries.
    from repro.core.drtopk import DrTopK

    k = 3000
    dispatcher = ServiceDispatcher(num_workers=4, chunk_elements=1024)
    results = dispatcher.dispatch([uniform_u32], [(k, True)])
    assert dispatcher.last_report.route == "streaming"
    np.testing.assert_array_equal(results[0].values, DrTopK().topk(uniform_u32, k).values)
    assert_topk_correct(results[0], uniform_u32, k)


def test_plain_python_list_is_a_vector_not_a_stream():
    # A list of numbers is a vector spelled as a list (ensure_1d semantics);
    # only sequences of arrays mean a chunk stream.
    results, report = dispatch_topk([5.0, 3.0, 1.0, 9.0, 7.0], [(2, True)], num_workers=2)
    assert report.route == "batched"
    np.testing.assert_array_equal(np.sort(results[0].values), [7.0, 9.0])


def test_list_of_ragged_arrays_streams(uniform_u32):
    # Unequal-length chunk arrays (the common tail-chunk shape) must stream,
    # not crash in vector coercion.
    from repro.core.drtopk import DrTopK

    chunks = [uniform_u32[:5000], uniform_u32[5000:5800], uniform_u32[5800:]]
    results, report = dispatch_topk(chunks, [(64, True)], num_workers=2)
    assert report.route == "streaming"
    np.testing.assert_array_equal(results[0].values, DrTopK().topk(uniform_u32, 64).values)


def test_streaming_route_validation(uniform_u32):
    dispatcher = ServiceDispatcher(num_workers=2)
    with pytest.raises(ConfigurationError):
        dispatcher.dispatch(iter([]), [(5, True)])  # no data streamed
    with pytest.raises(ConfigurationError):
        dispatcher.dispatch([uniform_u32[:100]], [(200, True)])  # k > streamed


def test_lru_cache_evicts(uniform_u32):
    dispatcher = ServiceDispatcher(num_workers=1, cache_capacity=2)
    for k in (8, 16, 32, 64):
        dispatcher.dispatch(uniform_u32, [(k, True)])
    info = dispatcher.last_report.cache
    assert info.size == 2
    assert info.evictions == 2


def test_dispatch_topk_convenience(uniform_u32):
    results, report = dispatch_topk(uniform_u32, [(32, True)], num_workers=2)
    assert_topk_correct(results[0], uniform_u32, 32)
    assert report.num_workers == 2


def test_dispatcher_validation(uniform_u32):
    with pytest.raises(ConfigurationError):
        ServiceDispatcher(num_workers=0)
    with pytest.raises(ConfigurationError):
        ServiceDispatcher(capacity_elements=0)
    for mode in ("fibers", "process"):
        with pytest.raises(ConfigurationError):
            ServiceDispatcher(execution=mode)
    dispatcher = ServiceDispatcher(num_workers=2)
    with pytest.raises(ConfigurationError):
        dispatcher.dispatch(uniform_u32, [(uniform_u32.shape[0] + 1, True)])


def test_dispatch_report_carries_unit_queue_waits(uniform_u32):
    with ServiceDispatcher(num_workers=2) as dispatcher:
        dispatcher.dispatch(uniform_u32, [(16, True), (32, True), (8, False)])
        report = dispatcher.last_report
        assert report.unit_queue_ms_sum >= 0.0
        assert report.max_unit_queue_ms >= 0.0
        assert report.max_unit_queue_ms <= report.unit_queue_ms_sum or (
            report.unit_queue_ms_sum == 0.0
        )


class TestAdmissionPrepareWarming:
    """Satellite: ``admit(warm=..., warm_mode="prepare")`` banks without dispatching."""

    def test_prepare_warm_banks_plans_without_results(self, rng):
        from repro.service.cache import fingerprint_call_count

        v = rng.integers(0, 2**32, size=1 << 12, dtype=np.uint32)
        ks = [8, 64]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            before = fingerprint_call_count()
            d.admit("a", v, warm=ks, warm_mode="prepare")
            assert fingerprint_call_count() - before == 1
            warm = d.last_report
            assert warm is not None and warm.route == "admit-warm"
            assert warm.constructions >= 1  # plans were genuinely built...
            assert warm.workers == []  # ...but nothing was routed or executed
            assert warm.wall_ms == 0.0
            # The first real query is then pure bank hits: zero construction.
            d.query("a", ks)
            report = d.last_report
            assert report is not None
            assert report.constructions == 0
            assert report.construction_bytes == 0.0
            assert report.plan_bank_hits >= 1

    def test_prepare_warm_matches_dispatch_warm_answers(self, rng):
        v = rng.integers(0, 2**32, size=1 << 12, dtype=np.uint32)
        ks = [16, 128]
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as ref:
            ref.admit("a", v.copy(), warm=ks)  # default: dispatch warming
            want = ref.query("a", ks)
        with ServiceDispatcher(num_workers=2, result_cache_capacity=0) as d:
            d.admit("a", v, warm=ks, warm_mode="prepare")
            got = d.query("a", ks)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_prepare_warm_covers_shards(self, rng):
        n = 1 << 12
        v = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        with ServiceDispatcher(
            num_workers=2, capacity_elements=n // 2, result_cache_capacity=0
        ) as d:
            d.admit("a", v, warm=[32], warm_mode="prepare")
            warm = d.last_report
            assert warm is not None and warm.route == "admit-warm"
            d.query("a", [32])
            report = d.last_report
            assert report is not None and report.route == "sharded"
            assert report.constructions == 0, "sharded warm missed a shard plan"
            assert report.plan_bank_hits >= 2  # one banked plan per shard

    def test_prepare_warm_rejects_unknown_mode_and_no_bank(self, rng):
        v = rng.integers(0, 2**32, size=1 << 10, dtype=np.uint32)
        with ServiceDispatcher(num_workers=1) as d:
            with pytest.raises(ConfigurationError, match="warm_mode"):
                d.admit("a", v, warm=[8], warm_mode="eagerly")
        with ServiceDispatcher(num_workers=1, plan_bank_bytes=0) as d:
            with pytest.raises(ConfigurationError, match="plan bank"):
                d.admit("a", v, warm=[8], warm_mode="prepare")
