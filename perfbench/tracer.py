"""Span recorder that times the serving layers from outside the program.

The traced run swaps public names of ``repro`` for timing wrappers at the
place their callers look them up (a module attribute or a class attribute),
records one span per call, and restores the originals afterwards.  Nothing in
``repro`` is edited and the untraced runs execute none of this code.

A span is ``(id, parent id, layer, name, start ns, end ns, thread id)``.
Spans nest through a thread-local stack; work units that the executor runs on
its pool threads get the executor's ``run`` span as their explicit parent, so
one request's spans form a single tree across threads.  Spans stay in memory
only until the request that produced them has been reduced to per-layer
totals by :func:`reduce_request`.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, str, int, int, int]

#: Executor routes and the layer whose code their work units run.
UNIT_LAYER = {"batched": "batch", "sharded": "multigpu", "streaming": "streaming"}


class Tracer:
    """Collects spans from timing wrappers while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``max_unit_queue_ms`` of every traced executor run.
        self.unit_queue_ms: List[float] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        #: ("put" | "hit", fingerprint) per plan-bank insert or hit.
        self.bank_events: List[Tuple[str, str]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._targets: List[Tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, layer: str, name: str, fn: Callable, args: tuple, kwargs: dict,
             parent: Optional[int] = None) -> Any:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, layer, name, t0, t1, threading.get_ident()))

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start fresh lists."""
        spans, self.spans = self.spans, []
        self.bank_events = []
        return spans

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        call = self.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(layer, name, fn, args, kwargs)

        return wrapper

    def _wrap_algorithm(self, fn: Callable) -> Callable:
        call = self.call

        def topk(algo: Any, *args: Any, **kwargs: Any) -> Any:
            name = f"algorithms.{algo.name}"
            return call("algorithms", name, fn, (algo,) + args, kwargs)

        return topk

    def _wrap_bank(self, kind: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(bank: Any, fingerprint: str, *args: Any, **kwargs: Any) -> Any:
            result = tracer.call("planbank", f"planbank.{kind}", fn,
                                 (bank, fingerprint) + args, kwargs)
            if kind == "put" or result is not None:
                tracer.bank_events.append((kind, fingerprint))
            return result

        return wrapper

    def _wrap_executor_run(self, fn: Callable) -> Callable:
        tracer = self

        def run(executor: Any, units: Any, *args: Any, **kwargs: Any) -> Any:
            def body() -> Any:
                parent = tracer._stack()[-1]
                outcomes = fn(executor, (tracer._wrap_unit(u, parent) for u in units),
                              *args, **kwargs)
                tracer.unit_queue_ms.append(executor.last_report.max_unit_queue_ms)
                return outcomes

            return tracer.call("executor", "executor.run", body, (), {})

        return run

    def _wrap_unit(self, unit: Any, parent: int) -> Any:
        layer = UNIT_LAYER.get(unit.route, "batch")
        inner = unit.fn
        call = self.call

        def fn() -> Any:
            return call(layer, f"unit.{layer}", inner, (), {}, parent=parent)

        return dataclasses.replace(unit, fn=fn)

    def add_target(self, owner: Any, attr: str, make: Callable[[Callable], Any]) -> None:
        """Register ``owner.attr`` to be replaced by ``make(original)``."""
        self._targets.append((owner, attr, make))

    def add_layer(self, layer: str, owner: Any, *attrs: str, name: str = "") -> None:
        """Time every named attribute of ``owner`` as a span of ``layer``."""
        for attr in attrs:
            label = name or f"{layer}.{attr}"
            self.add_target(owner, attr,
                            lambda fn, label=label: self._wrap(layer, label, fn))

    def install(self) -> None:
        for owner, attr, make in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement: Any = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_targets(tracer: Tracer) -> None:
    """Register the public names of every serving layer the benchmark times."""
    import repro.service.batch as batch
    import repro.service.cache as cache
    import repro.service.dispatcher as dispatcher
    import repro.service.fusion as fusion
    import repro.service.router as router
    import repro.service.store as store
    from repro.algorithms.base import ExecutionTrace, TopKAlgorithm
    from repro.core.drtopk import DrTopK
    from repro.core.plan import QueryPlan
    from repro.distributed.comm import SimulatedComm
    from repro.distributed.multigpu import MultiGpuDrTopK
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.memory import MemoryCounters
    from repro.service.cache import PartitionCache, ResultCache
    from repro.service.executor import ServiceExecutor
    from repro.service.planbank import ChunkMemo, PlanBank
    from repro.service.spill import SpillDirectory

    add = tracer.add_layer
    add("dispatcher", dispatcher.ServiceDispatcher, "query", "dispatch", "admit")
    add("router", router.Router, "classify", "plan_batched", "batched_units",
        "streaming_units")
    add("router", PartitionCache, "resolve")
    for module in (cache, dispatcher, router, batch, store):
        add("fingerprint", module, "fingerprint_array", name="fingerprint")
    add("resultcache", ResultCache, "get", "put")
    tracer.add_target(ServiceExecutor, "run", tracer._wrap_executor_run)
    tracer.add_target(PlanBank, "get", lambda fn: tracer._wrap_bank("hit", fn))
    tracer.add_target(PlanBank, "put", lambda fn: tracer._wrap_bank("put", fn))
    add("planbank", PlanBank, "shared", "contains", "banked_plans")
    add("planbank", ChunkMemo, "get", "put")
    add("core", DrTopK, "prepare_with_alpha", name="core.construct")
    add("core", DrTopK, "topk", "topk_prepared", name="core.pipeline")
    tracer.add_target(TopKAlgorithm, "topk", tracer._wrap_algorithm)
    for module in (batch, fusion):
        add("fusion", module, "fused_group_topk", name="fusion")
    add("gpusim", ExecutionTrace, "add", "extend", "total_counters", "step_times_ms",
        "total_time_ms")
    add("gpusim", CostModel, "estimate_ms", "host_transfer_ms")
    add("gpusim", MemoryCounters, "total")
    add("gpusim", QueryPlan, "construction_counters", "construction_ms")
    add("gpusim", SimulatedComm, "send", "gather")
    add("multigpu", MultiGpuDrTopK, "topk_batch")
    add("streaming", dispatcher, "merge_candidate_pool", "order_candidate_pool",
        name="streaming.merge")
    add("store", store.VectorStore, "admit", name="store.admit")
    add("store", store.VectorStore, "get", "evict", "note_queries", "live_fingerprints")
    add("spill", SpillDirectory, "store", "load", "remove", "get", "record_plans",
        "plans_for")


# -- reduction ---------------------------------------------------------------
def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by a set of intervals."""
    total = 0
    end: Optional[int] = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


@dataclasses.dataclass
class RequestTrace:
    """One request's spans reduced to per-layer and per-name totals (ms)."""

    wall_ms: float = 0.0
    #: Self time per layer, summed over every thread.
    self_ms: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Self time per layer with overlapping work units scaled down to the
    #: wall-clock they covered, so the values sum to ``wall_ms``.
    attributed_ms: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Self time per span name (algorithm names, unit spans, merge spans).
    name_self_ms: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Inclusive time of the outermost span per name (a span nested in one of
    #: the same name is not counted twice).
    name_incl_ms: Dict[str, float] = dataclasses.field(default_factory=dict)
    calls: Dict[str, int] = dataclasses.field(default_factory=dict)
    unit_ms: float = 0.0
    run_ms: float = 0.0


def reduce_request(spans: List[Span]) -> RequestTrace:
    """Reduce one request's span tree (root: the harness span, parent 0)."""
    out = RequestTrace()
    if not spans:
        return out
    by_id = {s[0]: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    roots = []
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)
        else:
            roots.append(s)
    self_ms: Dict[str, float] = defaultdict(float)
    attributed: Dict[str, float] = defaultdict(float)
    name_self: Dict[str, float] = defaultdict(float)
    name_incl: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)

    def visit(span: Span, weight: float, open_names: frozenset) -> None:
        sid, _, layer, name, t0, t1, thread = span
        kids = children.get(sid, [])
        covered = _union_ns([(max(k[4], t0), min(k[5], t1)) for k in kids]) if kids else 0
        own = (t1 - t0 - covered) / 1e6
        self_ms[layer] += own
        attributed[layer] += weight * own
        name_self[name] += own
        calls[name] += 1
        if name not in open_names:
            name_incl[name] += (t1 - t0) / 1e6
            open_names = open_names | {name}
        if name == "executor.run":
            out.run_ms += (t1 - t0) / 1e6
        if name.startswith("unit."):
            out.unit_ms += (t1 - t0) / 1e6
        # Work units on pool threads overlap each other; scale their time to
        # the wall-clock they covered so the attributed times sum to the wall.
        remote = [(k[4], k[5]) for k in kids if k[6] != thread]
        busy = sum(b - a for a, b in remote)
        scale = weight * _union_ns(remote) / busy if busy else weight
        for kid in kids:
            visit(kid, scale if kid[6] != thread else weight, open_names)

    for root in roots:
        out.wall_ms += (root[5] - root[4]) / 1e6
        visit(root, 1.0, frozenset())
    out.self_ms = dict(self_ms)
    out.attributed_ms = dict(attributed)
    out.name_self_ms = dict(name_self)
    out.name_incl_ms = dict(name_incl)
    out.calls = dict(calls)
    return out
