"""Tests for the simulated multi-GPU substrate: comm, partition plan, workflow."""

import numpy as np
import pytest

from repro.distributed import (
    CommCost,
    MultiGpuDrTopK,
    SimulatedComm,
    estimate_scalability_row,
    plan_partition,
)
from repro.distributed.partition import MAX_SUBVECTOR_ELEMENTS
from repro.errors import CommunicationError, ConfigurationError
from tests.helpers import assert_topk_correct


class TestCommCost:
    def test_latency_plus_bandwidth(self):
        cost = CommCost(latency_ms=0.01, bandwidth_gbps=10.0)
        one_gb_ms = cost.transfer_ms(1e9)
        assert one_gb_ms == pytest.approx(0.01 + 100.0)

    def test_inter_node_slower(self):
        cost = CommCost()
        assert cost.transfer_ms(1e6, inter_node=True) > cost.transfer_ms(1e6, inter_node=False)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CommCost().transfer_ms(-1)


class TestSimulatedComm:
    def test_send_copies_data_and_charges_cost(self):
        comm = SimulatedComm(num_ranks=4)
        data = np.arange(10)
        received = comm.send(data, src=1, dst=2)
        np.testing.assert_array_equal(received, data)
        assert received is not data
        assert comm.total_comm_ms > 0

    def test_self_send_is_free(self):
        comm = SimulatedComm(num_ranks=2)
        comm.send(np.arange(4), src=0, dst=0)
        assert comm.total_comm_ms == 0

    def test_gather_async_cheaper_than_sync(self):
        arrays = [np.arange(1 << 16) for _ in range(8)]
        async_comm = SimulatedComm(num_ranks=8)
        async_comm.gather(arrays, asynchronous=True)
        sync_comm = SimulatedComm(num_ranks=8)
        sync_comm.gather(arrays, asynchronous=False)
        assert async_comm.total_comm_ms < sync_comm.total_comm_ms

    def test_gather_requires_one_array_per_rank(self):
        comm = SimulatedComm(num_ranks=3)
        with pytest.raises(CommunicationError):
            comm.gather([np.arange(3)] * 2)

    def test_node_mapping(self):
        comm = SimulatedComm(num_ranks=8, gpus_per_node=4)
        assert comm.node_of(3) == 0 and comm.node_of(4) == 1

    def test_bcast_and_allreduce(self):
        comm = SimulatedComm(num_ranks=4)
        out = comm.bcast(np.arange(5), root=0)
        assert len(out) == 4
        assert comm.allreduce_max([1.0, 9.0, 3.0, 2.0]) == 9.0

    def test_invalid_rank(self):
        comm = SimulatedComm(num_ranks=2)
        with pytest.raises(CommunicationError):
            comm.send(np.arange(2), src=0, dst=5)


class TestPartitionPlan:
    def test_fits_on_fleet_one_subvector_per_gpu(self):
        plan = plan_partition(1000, num_gpus=4, capacity_elements=500)
        assert plan.num_subvectors == 4
        assert plan.reload_elements() == 0
        assert sum(plan.elements_per_gpu()) == 1000

    def test_does_not_fit_creates_reloads(self):
        plan = plan_partition(1000, num_gpus=2, capacity_elements=200)
        assert plan.num_subvectors == 5
        assert max(plan.reloads_per_gpu()) >= 1
        assert plan.reload_elements() > 0

    def test_paper_rule_capacity_default(self):
        plan = plan_partition(1 << 31, num_gpus=1)
        assert plan.num_subvectors == 2
        assert plan.subvector_bounds[0][1] - plan.subvector_bounds[0][0] <= MAX_SUBVECTOR_ELEMENTS

    def test_bounds_cover_input_exactly(self):
        plan = plan_partition(1003, num_gpus=3, capacity_elements=100)
        covered = sum(stop - start for start, stop in plan.subvector_bounds)
        assert covered == 1003
        assert plan.subvector_bounds[0][0] == 0
        assert plan.subvector_bounds[-1][1] == 1003

    def test_more_gpus_than_elements(self):
        plan = plan_partition(3, num_gpus=8)
        assert plan.num_subvectors == 3

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            plan_partition(0, 1)
        with pytest.raises(ConfigurationError):
            plan_partition(10, 0)


class TestMultiGpuWorkflow:
    @pytest.mark.parametrize("num_gpus", [1, 2, 4, 7])
    def test_correct_across_fleet_sizes(self, rng, num_gpus):
        v = rng.integers(0, 2**32, size=1 << 15, dtype=np.uint32)
        runner = MultiGpuDrTopK(num_gpus=num_gpus, capacity_elements=1 << 13)
        result = runner.topk(v, 100)
        assert_topk_correct(result, v, 100)

    def test_correct_with_reloads(self, rng):
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        runner = MultiGpuDrTopK(num_gpus=2, capacity_elements=1 << 11)
        result = runner.topk(v, 64)
        assert_topk_correct(result, v, 64)
        assert runner.last_report.reload_ms > 0

    def test_smallest_query(self, rng):
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        runner = MultiGpuDrTopK(num_gpus=3, capacity_elements=1 << 12)
        result = runner.topk(v, 50, largest=False)
        assert_topk_correct(result, v, 50, largest=False)

    def test_report_populated(self, rng):
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        runner = MultiGpuDrTopK(num_gpus=4, capacity_elements=1 << 12)
        runner.topk(v, 32)
        report = runner.last_report
        assert report.num_gpus == 4
        assert report.communication_ms > 0
        assert report.compute_ms > 0
        assert report.total_ms >= report.compute_ms

    def test_subvector_smaller_than_k_still_correct(self, rng):
        v = rng.integers(0, 2**32, size=300, dtype=np.uint32)
        runner = MultiGpuDrTopK(num_gpus=4, capacity_elements=64)
        result = runner.topk(v, 100)
        assert_topk_correct(result, v, 100)

    def test_invalid_fleet(self):
        with pytest.raises(ConfigurationError):
            MultiGpuDrTopK(num_gpus=0)

    def test_hierarchical_reduction_same_answer(self, rng):
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        flat = MultiGpuDrTopK(num_gpus=8, capacity_elements=1 << 11, gpus_per_node=4)
        tree = MultiGpuDrTopK(
            num_gpus=8,
            capacity_elements=1 << 11,
            gpus_per_node=4,
            use_hierarchical_reduction=True,
        )
        a = flat.topk(v, 77)
        b = tree.topk(v, 77)
        np.testing.assert_array_equal(np.sort(a.values), np.sort(b.values))
        assert_topk_correct(b, v, 77)

    def test_hierarchical_reduction_ignored_for_single_node(self, rng):
        v = rng.integers(0, 2**32, size=1 << 13, dtype=np.uint32)
        runner = MultiGpuDrTopK(
            num_gpus=2, capacity_elements=1 << 12, use_hierarchical_reduction=True
        )
        result = runner.topk(v, 20)
        assert_topk_correct(result, v, 20)

    @pytest.mark.parametrize("num_gpus", [5, 6, 8, 12])
    def test_hierarchical_vs_flat_gather_identical(self, rng, num_gpus):
        """Flat and node-leader gathers must return identical results on any
        fleet wider than one node, including ragged last nodes."""
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        flat = MultiGpuDrTopK(
            num_gpus=num_gpus, capacity_elements=1 << 11, gpus_per_node=4
        )
        tree = MultiGpuDrTopK(
            num_gpus=num_gpus,
            capacity_elements=1 << 11,
            gpus_per_node=4,
            use_hierarchical_reduction=True,
        )
        a = flat.topk(v, 123)
        b = tree.topk(v, 123)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert_topk_correct(b, v, 123)

    def test_hierarchical_gather_preserves_float32_dtype(self, rng):
        """Empty per-GPU contributions must not upcast a float32 gather: more
        GPUs than sub-vectors leaves idle ranks with empty candidate sets."""
        v = rng.standard_normal(1 << 12).astype(np.float32)
        runner = MultiGpuDrTopK(
            num_gpus=8,
            capacity_elements=1 << 9,
            gpus_per_node=4,
            use_hierarchical_reduction=True,
        )
        result = runner.topk(v, 40)
        assert result.values.dtype == np.float32
        assert_topk_correct(result, v, 40)


class TestMultiGpuBatch:
    def test_batch_matches_single_query_runs(self, rng):
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        fleet = MultiGpuDrTopK(num_gpus=3, capacity_elements=1 << 12)
        queries = [(100, True), (10, False), (100, True), (33, True)]
        results, report = fleet.topk_batch(v, queries)
        assert report.num_queries == len(queries)
        for (k, largest), res in zip(queries, results):
            solo = MultiGpuDrTopK(num_gpus=3, capacity_elements=1 << 12).topk(
                v, k, largest=largest
            )
            np.testing.assert_array_equal(np.sort(res.values), np.sort(solo.values))
            assert_topk_correct(res, v, k, largest=largest)

    def test_batch_amortises_constructions_and_reloads(self, rng):
        v = rng.integers(0, 2**32, size=1 << 14, dtype=np.uint32)
        fleet = MultiGpuDrTopK(num_gpus=2, capacity_elements=1 << 11)
        # 8 identical queries: one group per shard, one construction each.
        results, report = fleet.topk_batch(v, [(64, True)] * 8)
        assert len(results) == 8
        assert report.constructions == fleet.last_plan.num_subvectors
        assert report.construction_bytes > 0
        assert report.gather_bytes > 0
        assert report.reload_ms > 0  # shards beyond the first reload once
        # A second fleet answering the queries one by one reloads per query.
        solo = MultiGpuDrTopK(num_gpus=2, capacity_elements=1 << 11)
        solo.topk(v, 64)
        assert report.reload_ms <= solo.last_report.reload_ms * 8

    @pytest.mark.parametrize("mode", ["threads", "sequential"])
    def test_batch_on_executor_matches_inline(self, rng, mode):
        from repro.service.executor import ServiceExecutor

        v = rng.standard_normal(1 << 15).astype(np.float32)
        queries = [(64, True), (100, True), (32, False)]
        fleet = MultiGpuDrTopK(num_gpus=2, capacity_elements=1 << 14)
        base, _ = fleet.topk_batch(v, queries)
        with ServiceExecutor(max_workers=2, mode=mode) as ex:
            got, report = fleet.topk_batch(v, queries, executor=ex)
            assert ex.last_report is not None and ex.last_report.units == 2
        for a, b in zip(base, got):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.indices, b.indices)
        assert [o.gpu for o in report.per_gpu] == [0, 1]

    def test_batch_with_empty_queries(self, rng):
        v = rng.integers(0, 2**32, size=1 << 10, dtype=np.uint32)
        fleet = MultiGpuDrTopK(num_gpus=2, capacity_elements=1 << 8)
        results, report = fleet.topk_batch(v, [])
        assert results == [] and report.num_queries == 0

    def test_batch_hierarchical_gather(self, rng):
        v = rng.standard_normal(1 << 13).astype(np.float32)
        fleet = MultiGpuDrTopK(
            num_gpus=8,
            capacity_elements=1 << 10,
            gpus_per_node=4,
            use_hierarchical_reduction=True,
        )
        results, report = fleet.topk_batch(v, [(25, True), (50, False)])
        assert report.communication_ms > 0
        assert_topk_correct(results[0], v, 25)
        assert_topk_correct(results[1], v, 50, largest=False)
        assert results[0].values.dtype == np.float32


class TestScalabilityModel:
    def test_speedup_improves_with_gpus_when_data_fits(self):
        reports = [estimate_scalability_row(1 << 30, 128, g) for g in (1, 2, 4, 8, 16)]
        totals = [r.total_ms for r in reports]
        assert totals == sorted(totals, reverse=True)
        assert reports[0].reload_ms == 0

    def test_superlinear_speedup_when_reload_disappears(self):
        """Table 2: |V| = 2^31 on 1 GPU pays a reload; on 2 GPUs it does not."""
        one = estimate_scalability_row(1 << 31, 128, 1)
        two = estimate_scalability_row(1 << 31, 128, 2)
        assert one.reload_ms > 100
        assert two.reload_ms == 0
        assert two.speedup_over(one) > 10

    def test_reload_overhead_magnitude_matches_paper(self):
        """Paper: ~373 ms reload for one extra 2^30 sub-vector over PCIe."""
        one = estimate_scalability_row(1 << 31, 128, 1)
        assert 200 < one.reload_ms < 600

    def test_communication_stays_small(self):
        r = estimate_scalability_row(1 << 33, 128, 16)
        assert r.communication_ms < 5.0

    def test_single_gpu_total_magnitude(self):
        """Paper: ~6.1 ms for |V| = 2^30, k = 128 on one V100."""
        r = estimate_scalability_row(1 << 30, 128, 1)
        assert 2.0 < r.total_ms < 15.0
