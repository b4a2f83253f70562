"""ServiceExecutor: bounded-queue execution, backpressure, determinism."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.service.executor import ServiceExecutor, WorkUnit
from repro.service.tenancy import DEFAULT_TENANT, TenantPolicy, TenantRegistry


def make_units(count, fn_for):
    return [WorkUnit(fn=fn_for(i), worker=i) for i in range(count)]


def test_results_align_with_submission_order():
    # Later units finish first (earlier units sleep longer); the result list
    # must still align with submission order.
    def fn_for(i):
        return lambda: (time.sleep(0.002 * (8 - i)), i)[1]

    executor = ServiceExecutor(max_workers=4)
    results = executor.run(make_units(8, fn_for))
    assert [r.value for r in results] == list(range(8))
    assert all(r.wall_ms > 0 for r in results)
    executor.shutdown()


def test_sequential_mode_runs_inline():
    seen_threads = set()

    def fn_for(i):
        def fn():
            seen_threads.add(threading.current_thread().name)
            return i

        return fn

    executor = ServiceExecutor(max_workers=4, mode="sequential")
    results = executor.run(make_units(5, fn_for))
    assert [r.value for r in results] == list(range(5))
    assert seen_threads == {threading.current_thread().name}
    report = executor.last_report
    assert report.mode == "sequential"
    assert report.units == 5
    assert report.max_in_flight == 1
    assert report.backpressure_waits == 0


def test_backpressure_bounds_in_flight_units():
    release = threading.Event()

    def fn_for(i):
        def fn():
            release.wait(timeout=5.0)
            return i

        return fn

    executor = ServiceExecutor(max_workers=2, queue_capacity=2)

    # Submission of the third unit must block until a slot frees; run the
    # submission loop on a helper thread and release the units once it is
    # visibly blocked.
    outcome = {}

    def submit():
        outcome["results"] = executor.run(make_units(6, fn_for))

    thread = threading.Thread(target=submit)
    thread.start()
    time.sleep(0.05)  # let submission hit the bounded queue
    release.set()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    results = outcome["results"]
    assert [r.value for r in results] == list(range(6))
    report = executor.last_report
    assert report.max_in_flight <= 2
    assert report.backpressure_waits > 0
    executor.shutdown()


def test_lazy_iterables_are_supported():
    def units():
        for i in range(4):
            yield WorkUnit(fn=(lambda j=i: j * j))

    executor = ServiceExecutor(max_workers=2)
    results = executor.run(units())
    assert [r.value for r in results] == [0, 1, 4, 9]
    executor.shutdown()


def test_unit_errors_propagate():
    def fn_for(i):
        if i == 2:
            def boom():
                raise ValueError("unit failed")

            return boom
        return lambda: i

    executor = ServiceExecutor(max_workers=2)
    with pytest.raises(ValueError, match="unit failed"):
        executor.run(make_units(4, fn_for))
    # The executor stays usable after a failed run.
    ok = executor.run(make_units(3, lambda i: (lambda: i)))
    assert [r.value for r in ok] == [0, 1, 2]
    executor.shutdown()


def test_overlap_report_quantities():
    executor = ServiceExecutor(max_workers=4)
    results = executor.run(make_units(4, lambda i: (lambda: time.sleep(0.01) or i)))
    report = executor.last_report
    assert report.units == 4
    assert report.wall_ms > 0
    assert report.unit_wall_ms_sum == pytest.approx(
        sum(r.wall_ms for r in results), rel=1e-6
    )
    executor.shutdown()


def test_context_manager_shuts_down():
    with ServiceExecutor(max_workers=2) as executor:
        executor.run(make_units(2, lambda i: (lambda: i)))
        assert executor._pool is not None
    assert executor._pool is None


def test_validation():
    with pytest.raises(ConfigurationError):
        ServiceExecutor(max_workers=0)
    with pytest.raises(ConfigurationError):
        ServiceExecutor(queue_capacity=0)
    with pytest.raises(ConfigurationError):
        ServiceExecutor(mode="fibers")
    with pytest.raises(ConfigurationError):
        ServiceExecutor(mode="process")


def test_unit_queue_wait_is_measured():
    # Saturate a 1-worker pool: later units provably wait for earlier ones,
    # so their measured submit-to-start queue time must be non-zero.
    executor = ServiceExecutor(max_workers=1, queue_capacity=4)
    results = executor.run(make_units(4, lambda i: (lambda: time.sleep(0.01) or i)))
    report = executor.last_report
    assert all(r.queue_ms >= 0.0 for r in results)
    assert max(r.queue_ms for r in results) > 1.0  # the last unit waited ~30ms
    assert report.unit_queue_ms_sum == pytest.approx(
        sum(r.queue_ms for r in results), rel=1e-6
    )
    assert report.max_unit_queue_ms == pytest.approx(
        max(r.queue_ms for r in results), rel=1e-6
    )
    executor.shutdown()


def test_sequential_mode_reports_zero_queue_wait():
    executor = ServiceExecutor(max_workers=2, mode="sequential")
    results = executor.run(make_units(3, lambda i: (lambda: i)))
    assert all(r.queue_ms == 0.0 for r in results)
    assert executor.last_report.unit_queue_ms_sum == 0.0
    assert executor.last_report.max_unit_queue_ms == 0.0
    executor.shutdown()


@pytest.mark.parametrize(
    "registry",
    [None, TenantRegistry([TenantPolicy("a"), TenantPolicy("b")])],
    ids=["none", "registry"],
)
def test_queue_capacity_bounds_concurrent_runs(registry):
    # Two threads share one executor; the capacity is executor-wide, so
    # neither run may ever see more than queue_capacity units in flight.
    # With a registry each run is attributed to its own tenant, as the
    # dispatcher does: the bound still holds across tenants.
    release = threading.Event()

    def fn_for(i):
        def fn():
            release.wait(timeout=5.0)
            return i

        return fn

    executor = ServiceExecutor(max_workers=1, queue_capacity=2)
    outcomes = {}

    def submit(name):
        if registry is None:
            results = executor.run(make_units(4, fn_for))
        else:
            with executor.tenant_context(name):
                results = executor.run(make_units(4, fn_for))
        outcomes[name] = ([r.value for r in results], executor.last_report.max_in_flight)

    threads = [threading.Thread(target=submit, args=(n,)) for n in ("a", "b")]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let both producers hit the bounded queue
    release.set()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert len(outcomes) == 2
    for values, max_in_flight in outcomes.values():
        assert values == list(range(4))
        assert max_in_flight <= 2
    if registry is not None:
        assert [executor.tenant_units(t) for t in registry.tenants()] == [4, 4]
    executor.shutdown()


def test_raising_units_generator_drains_and_releases_its_slots():
    # The iterable fails after two units were submitted: the error surfaces
    # once they drain, their slots come back, and the executor stays usable.
    def units():
        for i in range(2):
            yield WorkUnit(fn=(lambda j=i: time.sleep(0.01) or j))
        raise RuntimeError("producer failed")

    executor = ServiceExecutor(max_workers=1, queue_capacity=2)
    with pytest.raises(RuntimeError, match="producer failed"):
        executor.run(units())
    assert executor.in_flight_for(DEFAULT_TENANT) == 0
    outcome = {}

    def follow_up():
        outcome["results"] = executor.run(make_units(4, lambda i: (lambda: i)))

    thread = threading.Thread(target=follow_up)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "slots leaked: the next run hung"
    assert [r.value for r in outcome["results"]] == [0, 1, 2, 3]
    executor.shutdown()


def test_concurrent_tenant_runs_share_the_slots_exactly_once():
    # Two tenants x four producer threads x 25 units on one gated worker:
    # every unit runs once, each run keeps its own submission order, the
    # executor-wide capacity holds, and units are attributed per tenant.
    gate = threading.Event()
    lock = threading.Lock()
    ran = []
    executor = ServiceExecutor(max_workers=1, queue_capacity=2)
    outcomes = {}

    def produce(tenant, producer):
        def unit(i):
            def fn():
                with lock:
                    ran.append((tenant, producer, i))
                gate.wait(timeout=10.0)
                return (tenant, producer, i)

            return WorkUnit(fn=fn)

        with executor.tenant_context(tenant):
            results = executor.run(unit(i) for i in range(25))
            outcomes[(tenant, producer)] = (
                [r.value for r in results],
                executor.last_report.max_in_flight,
            )

    threads = [
        threading.Thread(target=produce, args=(tenant, p))
        for tenant in ("hot", "quiet")
        for p in range(4)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # every producer blocks on the gated worker
    gate.set()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    assert len(ran) == len(set(ran)) == 200
    assert len(outcomes) == 8
    for (tenant, producer), (values, max_in_flight) in outcomes.items():
        assert values == [(tenant, producer, i) for i in range(25)]
        assert max_in_flight <= 2
    assert executor.tenant_units("hot") == executor.tenant_units("quiet") == 100
    assert executor.in_flight_for("hot") == executor.in_flight_for("quiet") == 0
    executor.shutdown()
