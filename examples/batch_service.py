#!/usr/bin/env python3
"""Batch service: many top-k queries over one shared vector.

Demonstrates the serving layer built on the Dr. Top-k engine:

1. ``BatchTopK`` answers a batch of ``(k, largest)`` queries while building
   the delegate vector once per (alpha, key-order) group — the recorded
   simulated traffic shows the amortisation against a naive per-query loop.
2. ``ServiceDispatcher`` routes the same batch across a simulated multi-GPU
   worker fleet: the ``Router`` groups and places queries, the
   ``ServiceExecutor`` overlaps the per-worker work units on a bounded-queue
   thread pool (measured wall-clock next to the modelled time), and repeated
   identical queries are served from the ``ResultCache`` without touching
   the pipeline.
3. ``StreamingTopK`` answers one query over the same data consumed in
   chunks; the dispatcher then runs the same chunked input across the whole
   fleet, one worker per chunk.

Usage::

    python examples/batch_service.py [log2_size] [batch]
"""

import sys

import numpy as np

from repro import DrTopK
from repro.datasets import uniform_distribution
from repro.harness.reporting import dispatch_rows, format_table, workload_rows
from repro.service import BatchTopK, ServiceDispatcher, StreamingTopK


def main() -> int:
    log2_size = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    batch = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    n = 1 << log2_size

    print(f"generating a uniform vector with |V| = 2^{log2_size} = {n:,}")
    v = uniform_distribution(n, seed=7)
    queries = [(1 << 10, True)] * batch

    # --- batched serving: one construction for the whole batch --------------
    service = BatchTopK()
    results, report = service.run_with_report(v, queries)
    engine = DrTopK()
    loop_bytes = 0.0
    for k, largest in queries:
        solo = engine.topk(v, k, largest=largest)
        assert np.array_equal(solo.values, results[0].values)
        loop_bytes += engine.last_trace.total_counters().global_bytes

    print(f"\nbatch of {batch} identical top-{queries[0][0]} queries")
    print(f"  constructions              : {report.constructions} (loop pays {batch})")
    print(f"  simulated bytes, batched   : {report.total_bytes:,.0f}")
    print(f"  simulated bytes, naive loop: {loop_bytes:,.0f}")
    print(f"  traffic saved              : {1 - report.total_bytes / loop_bytes:.1%}")
    print(f"  bytes per query            : {report.bytes_per_query:,.0f}")

    # --- per-query workload rows render with the standard reporting --------
    mixed = [(64, True), (1 << 10, True), (1 << 14, False)]
    _, mixed_report = service.run_with_report(v, mixed)
    print()
    print(format_table(workload_rows(mixed_report.stats, labels=[str(q) for q in mixed]),
                       title="mixed batch workload"))

    # --- dispatching across the simulated fleet -----------------------------
    # The dispatcher is a thin wrapper over the unified execution core:
    # Router -> ServiceExecutor (bounded queue, backpressure) -> merge.
    dispatcher = ServiceDispatcher(num_workers=4, queue_capacity=8)
    dispatcher.dispatch(v, queries + mixed)
    dreport = dispatcher.last_report
    print(f"\ndispatched {dreport.num_queries} queries over {dreport.num_workers} workers")
    print(f"  route            : {dreport.route}")
    print(f"  constructions    : {dreport.constructions}")
    print(f"  compute (model)  : {dreport.compute_ms:.3f} ms")
    print(f"  wall (measured)  : {dreport.wall_ms:.3f} ms "
          f"(units sum {dreport.unit_wall_ms_sum:.3f} ms)")
    print(f"  gather           : {dreport.communication_ms:.3f} ms")
    print(f"  alpha cache      : {dreport.cache.hits} hits / {dreport.cache.misses} misses")
    print()
    print(format_table(dispatch_rows(dreport), title="per-worker dispatch accounting"))

    # Repeating the identical batch is served entirely from the result cache.
    dispatcher.dispatch(v, queries + mixed)
    rreport = dispatcher.last_report
    print(f"\nrepeat dispatch: route={rreport.route}, "
          f"{rreport.result_cache_hits} result-cache hits, "
          f"{rreport.constructions} constructions")

    # --- streaming: the same vector consumed in chunks ----------------------
    stream = StreamingTopK(1 << 10, chunk_elements=1 << 16)
    for start in range(0, n, 1 << 16):
        stream.push(v[start : start + (1 << 16)])
    streamed = stream.finalize()
    assert np.array_equal(streamed.values, engine.topk(v, 1 << 10).values)
    print(f"\nstreaming top-{1 << 10} over {stream.report.chunks} chunks "
          f"(pool peak {stream.report.pool_peak}) matches the one-shot answer")

    # The same chunked input routed across the fleet, one worker per chunk.
    chunks = (v[start : start + (1 << 16)] for start in range(0, n, 1 << 16))
    fleet_streamed = dispatcher.dispatch(chunks, [(1 << 10, True)])
    sreport = dispatcher.last_report
    assert np.array_equal(fleet_streamed[0].values, streamed.values)
    busy = sum(1 for w in sreport.workers if w.queries)
    print(f"fleet streaming: route={sreport.route}, {busy} workers shared the "
          f"chunks, gather {sreport.communication_ms:.3f} ms — same answer")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
