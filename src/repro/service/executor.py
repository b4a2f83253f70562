"""Async execution core: a bounded thread-pool executor for service work units.

Before this module existed, every service route owned its own loop: the
dispatcher's batched route iterated workers in-process, the sharded route ran
the fleet GPU by GPU, and streaming consumed chunks one engine at a time —
"parallel workers" existed only in the cost model.  :class:`ServiceExecutor`
is the one place work actually runs now.  Routes describe their work as
:class:`WorkUnit`\\ s (a closure plus placement metadata) and submit the whole
set; the executor runs them on a ``concurrent.futures.ThreadPoolExecutor``
(NumPy releases the GIL inside its kernels, so units genuinely overlap on
multi-core hosts) behind a **bounded submission queue**: at most
``queue_capacity`` units are in flight across every concurrent run and
further submissions block, which is the backpressure that lets the service
layer absorb bursty traffic without unbounded memory growth.

Every run measures real wall-clock time per unit and end to end, so the
``async_service`` experiment can put *measured* time next to the modelled
``compute_ms`` the cost model has always reported.  ``mode="sequential"``
runs the same units in submission order on the calling thread — the baseline
threads mode is measured against, and a determinism escape hatch for tests.

Scheduling is **weighted deficit-round-robin** over per-tenant queues:
every concurrent :meth:`ServiceExecutor.run` pushes its units into one
shared fair queue, the bounded in-flight capacity is executor-wide, and each
freed slot goes to the DRR-next unit across *all* tenants — a producer may
submit another tenant's unit and wait for its own.  A
:class:`~repro.service.tenancy.TenantRegistry` only sets the weights; without
one every tenant weighs 1.0, and with a single tenant DRR pops in exact FIFO
order.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.service.tenancy import DEFAULT_TENANT, TenantRegistry, WeightedFairQueue

__all__ = [
    "WorkUnit",
    "UnitResult",
    "ExecutorReport",
    "ServiceExecutor",
]

#: Supported execution modes.
EXECUTION_MODES = ("threads", "sequential")


@dataclass
class WorkUnit:
    """One schedulable piece of a dispatched request.

    Attributes
    ----------
    fn:
        Zero-argument callable performing the work; its return value becomes
        :attr:`UnitResult.value`.
    worker:
        Index of the simulated fleet worker this unit is placed on (used for
        per-worker accounting, not thread affinity).
    route:
        The service route that emitted the unit (``batched`` / ``sharded`` /
        ``streaming``).
    """

    fn: Callable[[], Any]
    worker: int = 0
    route: str = ""


@dataclass
class _FairItem:
    """One queued unit inside the shared weighted-fair queue.

    ``ready`` is set by whichever producer submits the item (possibly a
    different tenant's ``run``); the owning producer waits on it before
    collecting ``future``.  ``pushed_at`` anchors queue-wait measurement to
    the moment the unit entered the fair queue, so DRR hold time is part of
    the measured wait.
    """

    unit: WorkUnit
    pushed_at: float
    ready: threading.Event = field(default_factory=threading.Event)
    future: Optional[Future] = None


@dataclass
class UnitResult:
    """Outcome of one executed :class:`WorkUnit`.

    ``queue_ms`` is the measured time the unit spent between submission and
    the start of its execution — the *queue wait* inside the executor's
    bounded submission queue (always ``0.0`` in sequential mode, where a unit
    starts the moment it is submitted).
    """

    unit: WorkUnit
    value: Any
    wall_ms: float
    queue_ms: float = 0.0


@dataclass
class ExecutorReport:
    """Measured (not modelled) execution statistics of one run.

    ``unit_wall_ms_sum`` is the units' measured walls summed; ``wall_ms`` is
    what the run actually took.  Under time slicing each unit's wall also
    counts the time it waited for a core, so the two are not an overlap
    measure: compare ``wall_ms`` against a ``mode="sequential"`` run of the
    same units instead.
    """

    mode: str = "threads"
    units: int = 0
    wall_ms: float = 0.0
    unit_wall_ms_sum: float = 0.0
    #: Measured submit-to-start waits summed over the units (and the single
    #: worst unit): how long work sat in the bounded queue before running.
    unit_queue_ms_sum: float = 0.0
    max_unit_queue_ms: float = 0.0
    max_in_flight: int = 0
    backpressure_waits: int = 0


class ServiceExecutor:
    """Run service :class:`WorkUnit`\\ s with bounded concurrency.

    Parameters
    ----------
    max_workers:
        Thread-pool size; typically the dispatcher's fleet size so one unit
        per simulated worker can run at once.
    queue_capacity:
        Maximum units in flight (submitted but not finished) across every
        concurrent :meth:`run` on this executor.  Submission of further
        units blocks — backpressure — until a slot frees.  Defaults to
        ``2 * max_workers`` so one wave can queue behind the running wave.
    mode:
        ``"threads"`` (the default) runs units on the pool; ``"sequential"``
        runs them inline in submission order, for baselines and determinism.
    tenants:
        Optional :class:`~repro.service.tenancy.TenantRegistry` supplying the
        per-tenant weights of the deficit-round-robin scheduler (see the
        module docstring); without one every tenant weighs 1.0.  Sequential
        mode keeps its submission-order semantics.
    """

    def __init__(
        self,
        max_workers: int = 4,
        queue_capacity: Optional[int] = None,
        mode: str = "threads",
        tenants: Optional[TenantRegistry] = None,
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
            )
        if max_workers < 1:
            raise ConfigurationError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self.queue_capacity = (
            int(queue_capacity) if queue_capacity is not None else 2 * self.max_workers
        )
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be positive")
        self.mode = mode
        self.tenants = tenants
        self.last_report: Optional[ExecutorReport] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._in_flight = 0
        self._tls = threading.local()
        # The shared DRR queue under its own scheduler lock (never nested
        # with self._lock), the executor-wide slot semaphore, and cumulative
        # per-tenant counters guarded by self._lock.
        self._sched_lock = threading.Lock()
        self._fair: WeightedFairQueue[_FairItem] = WeightedFairQueue(self._weight_of)
        self._slots = threading.Semaphore(self.queue_capacity)
        self._tenant_in_flight: Dict[str, int] = {}
        self._tenant_units: Dict[str, int] = {}

    def _weight_of(self, tenant: str) -> float:
        """Scheduling weight of one tenant (1.0 without a registry)."""
        return self.tenants.weight(tenant) if self.tenants is not None else 1.0

    # -- per-tenant probes -----------------------------------------------------
    def in_flight_for(self, tenant: str) -> int:
        """Units of one tenant currently submitted but not finished.

        Always 0 in sequential mode, which runs units inline.
        """
        with self._lock:
            return self._tenant_in_flight.get(tenant, 0)

    def tenant_units(self, tenant: str) -> int:
        """Cumulative units one tenant has completed on the thread pool."""
        with self._lock:
            return self._tenant_units.get(tenant, 0)

    @contextmanager
    def tenant_context(self, tenant: str) -> Iterator[None]:
        """Attribute every :meth:`run` on this thread to ``tenant``.

        The dispatcher wraps route execution in this so code that calls
        ``executor.run(units)`` (the multi-GPU fleet, the routes) schedules
        under the requesting tenant's identity.  Thread-local, re-entrant,
        restores the previous identity.
        """
        previous = getattr(self._tls, "tenant", None)
        self._tls.tenant = tenant
        try:
            yield
        finally:
            self._tls.tenant = previous

    # -- lifecycle -------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-service"
            )
        return self._pool

    def shutdown(self) -> None:
        """Stop the worker threads (the executor can be reused afterwards)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- execution -------------------------------------------------------------
    def run(self, units: Iterable[WorkUnit]) -> List[UnitResult]:
        """Execute every unit; results align with submission order.

        ``units`` may be a lazy iterable (the streaming route submits chunks
        as they arrive); the bounded queue then also bounds how far ahead of
        execution the producer can read.  A unit that raises propagates its
        exception after the in-flight units drain.  The run schedules under
        the tenant of the surrounding :meth:`tenant_context`, else the
        default tenant.
        """
        started = time.perf_counter()
        report = ExecutorReport(mode=self.mode)
        if self.mode == "sequential":
            results = self._run_sequential(units, report)
        else:
            context = getattr(self._tls, "tenant", None)
            tenant = context if context is not None else DEFAULT_TENANT
            results = self._run_threads(units, report, tenant)
        report.wall_ms = (time.perf_counter() - started) * 1e3
        report.units = len(results)
        self.last_report = report
        return results

    def _run_sequential(
        self, units: Iterable[WorkUnit], report: ExecutorReport
    ) -> List[UnitResult]:
        results: List[UnitResult] = []
        for unit in units:
            t0 = time.perf_counter()
            value = unit.fn()
            wall = (time.perf_counter() - t0) * 1e3
            results.append(UnitResult(unit=unit, value=value, wall_ms=wall))
            report.unit_wall_ms_sum += wall
            report.max_in_flight = 1
        return results

    def _run_threads(
        self, units: Iterable[WorkUnit], report: ExecutorReport, tenant: str
    ) -> List[UnitResult]:
        """Threads path under weighted deficit-round-robin.

        Every producer pushes its units into the shared fair queue, then for
        each pushed unit acquires one executor-wide slot and submits the
        DRR-next item across *all* tenants — possibly another producer's.
        Each producer pops exactly as many items as it pushed (and only
        after pushing), so globally pops never exceed pushes and a pop never
        finds the queue empty.  Results still align with this run's own
        submission order; queue wait is measured from the moment a unit
        entered the fair queue, so scheduler hold time is part of the wait.
        """
        pool = self._ensure_pool()

        def timed(unit: WorkUnit, pushed_at: float) -> Tuple[Any, float, float]:
            t0 = time.perf_counter()
            queued_ms = (t0 - pushed_at) * 1e3
            value = unit.fn()
            return value, (time.perf_counter() - t0) * 1e3, queued_ms

        def make_release(owner: str) -> Callable[[Future], None]:
            def release(_future: Future) -> None:
                with self._lock:
                    self._in_flight -= 1
                    self._tenant_in_flight[owner] = (
                        self._tenant_in_flight.get(owner, 1) - 1
                    )
                self._slots.release()

            return release

        def submit_next() -> None:
            """Pop the DRR-next item (never empty; see above) and submit it."""
            with self._sched_lock:
                popped = self._fair.pop()
            if popped is None:  # pragma: no cover - invariant documented above
                raise RuntimeError("fair queue empty with pops outstanding")
            owner, chosen = popped
            with self._lock:
                self._in_flight += 1
                report.max_in_flight = max(report.max_in_flight, self._in_flight)
                self._tenant_in_flight[owner] = (
                    self._tenant_in_flight.get(owner, 0) + 1
                )
            future = pool.submit(timed, chosen.unit, chosen.pushed_at)
            future.add_done_callback(make_release(owner))
            chosen.future = future
            chosen.ready.set()

        mine: List[_FairItem] = []
        unpopped = 0  # our pushes not yet matched by one of our pops
        try:
            for unit in units:
                item = _FairItem(unit=unit, pushed_at=time.perf_counter())
                with self._sched_lock:
                    self._fair.push(tenant, item)
                mine.append(item)
                unpopped += 1
                # The push precedes the slot wait on purpose: a blocked
                # producer's backlog must be visible to the DRR scheduler,
                # otherwise slots would drain in semaphore-FIFO order and
                # weights would never bite.
                if not self._slots.acquire(blocking=False):
                    report.backpressure_waits += 1
                    self._slots.acquire()
                submit_next()
                unpopped -= 1
        finally:
            # Exceptional exits (a raising units generator, an interrupt
            # between push and pop) may leave pushes unmatched; serve them
            # inline so no producer's wait below can deadlock on an item
            # nobody will ever pop.
            while unpopped > 0:
                with self._sched_lock:
                    popped = self._fair.pop()
                unpopped -= 1
                if popped is None:
                    break
                _owner, chosen = popped
                stub: Future = Future()
                try:
                    stub.set_result(timed(chosen.unit, chosen.pushed_at))
                except BaseException as exc:  # noqa: BLE001 - delivered via future
                    stub.set_exception(exc)
                chosen.future = stub
                chosen.ready.set()
            results: List[UnitResult] = []
            error: Optional[BaseException] = None
            for item in mine:
                item.ready.wait()
                future = item.future
                assert future is not None  # set before ready in every path
                try:
                    value, wall, queued = future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if error is None:
                        error = exc
                    continue
                results.append(
                    UnitResult(unit=item.unit, value=value, wall_ms=wall, queue_ms=queued)
                )
                report.unit_wall_ms_sum += wall
                report.unit_queue_ms_sum += queued
                report.max_unit_queue_ms = max(report.max_unit_queue_ms, queued)
                with self._lock:
                    self._tenant_units[tenant] = self._tenant_units.get(tenant, 0) + 1
            if error is not None:
                raise error
        return results
