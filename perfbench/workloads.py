"""The three serving workloads: inputs, set-up and fixed limits.

Every input is derived from the workload seed; the dispatcher only ever sees
the generated vectors and queries.  Sizes shrink in smoke mode so the whole
suite runs in seconds, but the code paths are the same.

Fixed constants (latency limits, the open-loop rate) were calibrated once at
seed 1 on a 2-vCPU VM and are never recalibrated per run, so a later change
to the program moves the metrics instead of the yardstick.  Each latency
limit is 1.5 to 3 times the p99 of a typical run on that host (warm-named
40 ms over ~25 ms, cold-churn 80 ms over ~30 ms, fleet-open 150 ms over
~68 ms), so ``slo_attainment`` falls only when the tail grows well past its
usual size.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.registry import get_dataset
from repro.service import ServiceDispatcher

#: Executor threads; matches the 2 CPUs the limits were calibrated on.
NUM_WORKERS = 2


@dataclass
class Request:
    """One call into the dispatcher and what its answers are checked against."""

    kind: str  # "query", "dispatch", "stream" or "admit"
    call: Callable[[ServiceDispatcher], Any]
    #: Content the answers must come from (``None`` for admissions).
    vector: Optional[np.ndarray] = None
    #: Stream requests keep their chunks; the oracle concatenates them.
    chunks: Optional[List[np.ndarray]] = None
    ks: List[int] = field(default_factory=list)
    largest: bool = True
    #: Open loop: seconds after the start at which the request is due.
    due_s: float = 0.0


def _zipf_weights(count: int, exponent: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** exponent
    return weights / weights.sum()


def _generate(dataset: str, n: int, seed: Sequence[int]) -> np.ndarray:
    return get_dataset(dataset).generate(n, seed=np.random.default_rng(list(seed)))


class Workload:
    """Base: ``setup`` builds the serving state, ``requests`` yields the traffic."""

    name = ""
    open_loop = False
    #: Latency limit behind ``slo_attainment`` (and fleet-open goodput).
    slo_ms = 0.0

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self, repeat: int) -> ServiceDispatcher:
        raise NotImplementedError

    def teardown(self, dispatcher: ServiceDispatcher) -> None:
        dispatcher.shutdown()

    def requests(self, seconds: float, warmup: bool):
        """The request stream; warm-up traffic comes from a stream of its own."""
        raise NotImplementedError


class WarmNamed(Workload):
    """Closed loop over 8 admitted, plan-warmed names; one client."""

    name = "warm-named"
    slo_ms = 40.0
    DATASETS = ("UD", "UD", "ND", "ND", "CD", "CD", "TR", "TR")

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.n = 1 << (12 if smoke else 16)
        # 16 consecutive ks from a base in [lo, hi): all share the widest
        # alpha group there is at this n (k in 257..1023 at n = 2^16, 64..256
        # at the smoke size), so the 256-entry result cache, keyed by content
        # and k, rarely holds an answer a request asks for.
        self.k_lo, self.k_hi = (64, 241) if smoke else (257, 1008)
        self.names: List[Tuple[str, np.ndarray, bool]] = []
        for i, dataset in enumerate(self.DATASETS):
            v = _generate(dataset, self.n, (self.seed, 1, i))
            self.names.append((f"{dataset.lower()}{i}", v, get_dataset(dataset).largest))

    def setup(self, repeat: int) -> ServiceDispatcher:
        dispatcher = ServiceDispatcher(num_workers=NUM_WORKERS)
        # One k banks the plan of the whole alpha group.
        warm_k = (self.k_lo + self.k_hi) // 2
        for name, v, largest in self.names:
            dispatcher.admit(name, v.copy(), warm=[(warm_k, largest)])
        return dispatcher

    def requests(self, seconds: float, warmup: bool):
        rng = np.random.default_rng([self.seed, 2, int(warmup)])
        weights = _zipf_weights(len(self.names))
        while True:
            name, v, largest = self.names[rng.choice(len(self.names), p=weights)]
            base = int(rng.integers(self.k_lo, self.k_hi))
            ks = list(range(base, base + 16))
            queries = [(k, largest) for k in ks]
            yield Request(
                kind="query",
                call=lambda d, name=name, queries=queries: d.query(name, queries),
                vector=v,
                ks=ks,
                largest=largest,
            )


class ColdChurn(Workload):
    """Closed loop of anonymous dispatches over fresh vectors; one client."""

    name = "cold-churn"
    slo_ms = 80.0
    DATASETS = ("UD", "ND", "CD")

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.n = 1 << (12 if smoke else 18)
        # Spans alpha groups 8, 6 and 4 at n = 2^18.
        self.k_choices = (4, 16, 64, 256) if smoke else (16, 64, 256, 1024, 4096)

    def _fresh(self, index: int, stream: int) -> Tuple[np.ndarray, List[int]]:
        dataset = self.DATASETS[index % len(self.DATASETS)]
        v = _generate(dataset, self.n, (self.seed, stream, index))
        rng = np.random.default_rng([self.seed, stream + 1, index])
        # Every k of the set once plus three more in rotation, shuffled: each
        # request spans every alpha group, and any five consecutive requests
        # together carry the same ks, so the tail does not hang on how many
        # large-k requests a seed happens to draw.
        count = len(self.k_choices)
        ks = list(self.k_choices) + [self.k_choices[(3 * index + j) % count] for j in range(3)]
        return v, [int(k) for k in rng.permutation(ks)]

    def setup(self, repeat: int) -> ServiceDispatcher:
        dispatcher = ServiceDispatcher(num_workers=NUM_WORKERS)
        # Warm-up: spin the executor pool and the scratch arenas up on one
        # vector per distribution, so no timed request pays for them.
        for i in range(len(self.DATASETS)):
            v, ks = self._fresh(i, 10 + repeat)
            dispatcher.dispatch(v, ks)
        return dispatcher

    def requests(self, seconds: float, warmup: bool):
        index = 0
        while True:
            v, ks = self._fresh(index, 30 if warmup else 3)
            yield Request(
                kind="dispatch",
                call=lambda d, v=v, ks=ks: d.dispatch(v, ks),
                vector=v,
                ks=ks,
            )
            index += 1


class FleetOpen(Workload):
    """Open-loop mix at a fixed rate over a sharded, spilling working set."""

    name = "fleet-open"
    open_loop = True
    slo_ms = 150.0
    #: Requests per second: about 40% of this mix's closed-loop capacity
    #: (52 requests/s at seed 1 on a 2-vCPU VM).  At 30/s, near 60%, the
    #: queue amplifies the host's own noise: the p50 and p99 of five runs
    #: spread by 0.17, against 0.12-0.13 at this rate.
    RATE = 22.0
    SMOKE_RATE = 40.0
    DATASETS = ("UD", "ND", "CD", "UD", "ND", "CD")
    MIX = (("query", 0.7), ("stream", 0.2), ("admit", 0.1))

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.n = 1 << (14 if smoke else 20)
        self.capacity = self.n >> 2  # every vector shards 4 ways
        self.chunk = 1 << (10 if smoke else 16)
        self.rate = self.SMOKE_RATE if smoke else self.RATE
        self.query_ks = (16, 257) if not smoke else (4, 33)
        self.stream_ks = (16, 64, 256, 1024) if not smoke else (4, 16, 64, 128)
        # One representative k per alpha group at the shard size.
        self.warm_ks = (16, 100, 256) if not smoke else (4, 16, 32)
        self.base: Dict[str, np.ndarray] = {}
        for i, dataset in enumerate(self.DATASETS):
            self.base[f"{dataset.lower()}{i}"] = _generate(dataset, self.n, (self.seed, 4, i))
        pool_rng = np.random.default_rng([self.seed, 5])
        self.chunk_pool = [
            pool_rng.integers(0, 1 << 32, size=self.chunk, dtype=np.uint32) for _ in range(64)
        ]
        self.current: Dict[str, np.ndarray] = {}
        self.spill_dir: Optional[str] = None

    def setup(self, repeat: int) -> ServiceDispatcher:
        self.spill_dir = os.path.join(self.workdir, f"spill-{repeat}")
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        vector_bytes = next(iter(self.base.values())).nbytes
        dispatcher = ServiceDispatcher(
            num_workers=NUM_WORKERS,
            capacity_elements=self.capacity,
            # The working set holds twice the store budget.
            store_bytes=len(self.base) * vector_bytes // 2,
            spill_dir=self.spill_dir,
        )
        self.current = {}
        for name, v in self.base.items():
            dispatcher.admit(name, v.copy(), warm=list(self.warm_ks))
            self.current[name] = v
        return dispatcher

    def teardown(self, dispatcher: ServiceDispatcher) -> None:
        dispatcher.shutdown()
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def requests(self, seconds: float, warmup: bool):
        rng = np.random.default_rng([self.seed, 6, int(warmup)])
        names = list(self.base)
        weights = _zipf_weights(len(names))
        # Arrivals are evenly spaced.  Under Poisson arrivals the p99 of a
        # run hangs on which bursts the draw holds, and ten runs spread by a
        # third; a slow request still delays the ones due behind it.  Each
        # block of ten arrivals holds the exact mix in a seeded order.
        block = [kind for kind, share in self.MIX for _ in range(round(share * 10))]
        kinds: List[str] = []
        for index in range(int(seconds * self.rate)):
            if not kinds:
                kinds = list(rng.permutation(block))
            kind = kinds.pop()
            due = index / self.rate
            if kind == "query":
                name = names[rng.choice(len(names), p=weights)]
                ks = [int(k) for k in rng.integers(*self.query_ks, size=4)]
                yield Request(
                    kind="query",
                    call=lambda d, name=name, ks=ks: d.query(name, ks),
                    vector=self.current[name],
                    ks=ks,
                    due_s=due,
                )
            elif kind == "stream":
                chunks = [self.chunk_pool[j] for j in rng.integers(0, len(self.chunk_pool), 8)]
                ks = [int(k) for k in rng.choice(self.stream_ks, size=4)]
                yield Request(
                    kind="stream",
                    call=lambda d, chunks=chunks, ks=ks: d.dispatch(chunks, ks),
                    chunks=chunks,
                    ks=ks,
                    due_s=due,
                )
            else:
                name = names[rng.choice(len(names))]
                shift = int(rng.integers(1, self.n))
                # Fresh content for a working-set name: its base vector
                # rotated, which keeps the distribution and changes every
                # fingerprint.  The old content's plans and results retire.
                v = np.roll(self.base[name], shift)
                self.current[name] = v
                yield Request(
                    kind="admit",
                    call=lambda d, name=name, v=v: d.admit(name, v, warm=list(self.warm_ks)),
                    due_s=due,
                )


WORKLOADS = {cls.name: cls for cls in (WarmNamed, ColdChurn, FleetOpen)}
