"""Serving benchmark: one workload per run, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-named --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.  The
measured window follows a few seconds of untimed warm-up traffic and is cut
into equal time slices; ``latency_p50_ms``, ``latency_p99_ms`` and the
closed-loop ``queries_per_s`` are the median over slices of each slice's
figure (the whole-run percentiles and per-slice sample counts are printed).
``--trace 1`` alternates blocks of traced and untraced requests and reports
the per-layer metrics (see ``tracer.py``) plus the tracing overhead.  Every
answer is checked against a numpy oracle outside the timed region.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a result file with provenance is written under
``.perfbench_results/`` (``--out`` overrides).  ``--smoke`` shrinks every
size so a run takes a few seconds.

The program is imported from ``src/`` of the checkout this file sits in; a
checkout without it makes the benchmark exit with status 2 and no result.

Per-layer metrics are per request unless they are ratios.  ``<layer>.busy_ms``
and ``dispatcher.self_ms`` are self time: a span's duration minus the part its
child spans cover, summed over threads.  ``executor.handoff_ms`` is the self
time of ``ServiceExecutor.run`` (the run minus the union of its work units);
``executor.overlap`` is the units' summed time over the run time.  The
accounting table scales overlapping units down to the wall-clock they
covered, so its rows add up to the request's wall time; what no layer claims
is the harness residual.  ``gpusim.*`` counts modelled GPU traffic.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from tracer import Tracer, install_targets, reduce_request

ROOT = Path(__file__).resolve().parent.parent

#: Requests per traced or untraced block in a ``--trace 1`` run.
TRACE_BLOCK = 20
#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Equal time slices of a run.  The latency percentiles and the closed-loop
#: rate are taken per slice and reported as the median over slices, so a
#: host stall that covers less than half of a run does not move them.
SLICES = 5
#: Seconds of untimed warm-up traffic before the measured window.
WARMUP_S = 3.0

#: Metric names and units, in the order they are reported.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

ALGORITHMS = ("bitonic", "bucket", "heap", "radix", "radix_flag", "radix_inplace", "sortchoose")
FUSION_STAGES = ("first", "gather", "refine", "second", "fallback")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- oracle --------------------------------------------------------------------
def check_answers(req: Any, results: Any) -> Tuple[bool, Optional[float], str]:
    """Compare a request's answers to a numpy oracle.

    Returns ``(ok, roofline_ms, reason)``.  The roofline is the time of the
    oracle's own selection: one ``np.argpartition`` at ``max(k)`` plus a sort
    of the selected elements, which answers every ``k`` of the request.
    """
    if req.kind == "admit":
        return True, None, ""
    v = np.concatenate(req.chunks) if req.chunks is not None else req.vector
    n = v.shape[0]
    kmax = max(req.ks)
    t0 = time.perf_counter()
    if req.largest:
        part = np.argpartition(v, n - kmax)[n - kmax:]
        top = v[part[np.argsort(v[part])[::-1]]]
    else:
        part = np.argpartition(v, kmax - 1)[:kmax]
        top = v[part[np.argsort(v[part])]]
    roofline_ms = (time.perf_counter() - t0) * 1e3
    if len(results) != len(req.ks):
        return False, roofline_ms, f"{len(results)} answers for {len(req.ks)} queries"
    for k, res in zip(req.ks, results):
        idx = np.asarray(res.indices)
        values = np.asarray(res.values)
        if idx.shape != (k,) or values.shape != (k,):
            return False, roofline_ms, f"k={k}: shape {idx.shape}/{values.shape}"
        if idx.min() < 0 or idx.max() >= n or np.unique(idx).shape[0] != k:
            return False, roofline_ms, f"k={k}: indices out of range or repeated"
        if not np.array_equal(v[idx], values):
            return False, roofline_ms, f"k={k}: v[indices] != values"
        if not np.array_equal(np.sort(values), np.sort(top[:k])):
            return False, roofline_ms, f"k={k}: values differ from the oracle"
    return True, roofline_ms, ""


# -- provenance ----------------------------------------------------------------
def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": bool(args.smoke),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "host": platform.machine(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- the measurement loop ------------------------------------------------------
class Run:
    """Drives one workload and accumulates samples, checks and layer totals."""

    def __init__(self, workload: Any, dispatcher: Any, tracer: Tracer) -> None:
        self.workload = workload
        self.dispatcher = dispatcher
        self.tracer = tracer
        self.latency_ms: List[float] = []
        self.latency_traced_ms: List[float] = []
        self.kind_latency_ms: Dict[str, List[float]] = defaultdict(list)
        self.lag_ms: List[float] = []
        self.roofline_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.good = 0  # correct and within the latency limit
        self.good_queries = 0
        self.correct_queries = 0
        self.request_s = 0.0
        # Untraced latencies, request time and correct queries per time slice.
        self.slice_latency_ms: List[List[float]] = [[] for _ in range(SLICES)]
        self.slice_request_s = [0.0] * SLICES
        self.slice_queries = [0] * SLICES
        self.failures: List[str] = []
        self.pending: deque = deque()
        self.check_cost_s = 0.002
        # Per-layer accumulators (traced requests only).
        self.traced = 0
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.layer_attr: Dict[str, float] = defaultdict(float)
        self.name_self: Dict[str, float] = defaultdict(float)
        self.name_incl: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.wall_ms = 0.0
        self.unit_ms = 0.0
        self.run_ms = 0.0

    # checks --------------------------------------------------------------
    def _check(self, req: Any, results: Any, latency_ms: float, error: str,
               slot: int) -> None:
        ok = not error
        roof = None
        if ok:
            ok, roof, error = check_answers(req, results)
        if roof is not None:
            self.roofline_ms.append(roof)
        queries = 0 if req.kind == "admit" else len(req.ks)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{req.kind}: {error}")
            return
        self.correct_queries += queries
        self.slice_queries[slot] += queries
        if latency_ms <= self.workload.slo_ms:
            self.good += 1
            self.good_queries += queries

    def _drain(self, until: Optional[float]) -> None:
        """Run deferred checks; with ``until``, only while they fit before it."""
        while self.pending:
            if until is not None and time.perf_counter() + self.check_cost_s >= until:
                return
            t0 = time.perf_counter()
            self._check(*self.pending.popleft())
            cost = time.perf_counter() - t0
            self.check_cost_s = 0.8 * self.check_cost_s + 0.2 * cost

    # tracing ---------------------------------------------------------------
    def _snapshot(self) -> Dict[str, float]:
        d = self.dispatcher
        snap: Dict[str, float] = {}
        if d.results_cache is not None:
            info = d.results_cache.info()
            snap["rc_hits"], snap["rc_misses"] = info.hits, info.misses
        if d.chunk_memo is not None:
            info = d.chunk_memo.info()
            snap["cm_hits"], snap["cm_misses"] = info.hits, info.misses
        if d.store is not None:
            info = d.store.info()
            snap["st_evictions"], snap["st_promotions"] = info.evictions, info.promotions
        return snap

    def _note_trace(self, req: Any, results: Any, before: Dict[str, float],
                    latency_ms: float) -> None:
        events = self.tracer.bank_events
        trace = reduce_request(self.tracer.take())
        built = {fp for kind, fp in events if kind == "put"}
        self.counts["cross_request_hits"] += sum(
            1 for kind, fp in events if kind == "hit" and fp not in built
        )
        self.traced += 1
        self.latency_traced_ms.append(latency_ms)
        self.wall_ms += trace.wall_ms
        self.unit_ms += trace.unit_ms
        self.run_ms += trace.run_ms
        for target, source in ((self.layer_self, trace.self_ms),
                               (self.layer_attr, trace.attributed_ms),
                               (self.name_self, trace.name_self_ms),
                               (self.name_incl, trace.name_incl_ms),
                               (self.calls, trace.calls)):
            for key, value in source.items():
                target[key] += value
        after = self._snapshot()
        for key, value in after.items():
            self.counts[key] += value - before.get(key, 0)
        if req.kind == "admit" or results is None:
            return
        queries = len(req.ks)
        report = self.dispatcher.last_report
        c = self.counts
        c["queries"] += queries
        c["plan_hits"] += report.plan_bank_hits
        c["constructions"] += report.constructions
        c["selection_calls"] += report.selection_calls
        c["arena_hits"] += report.arena_hits
        c["arena_takes"] += report.arena_hits + report.arena_misses + report.arena_resizes
        c["modelled_bytes"] += report.bytes_moved
        c["spill_serves"] += report.spill_serves
        c["named_queries"] += queries if req.kind == "query" else 0
        for stage, ms in report.fusion_stage_ms.items():
            c["stage." + stage.replace("_ms", "")] += ms
        n = (req.vector.shape[0] if req.vector is not None
             else sum(ch.shape[0] for ch in req.chunks))
        for res in results:
            stats = res.stats
            if stats is not None and stats.input_size == n:
                c["concat_elements"] += stats.concatenated_size
                c["input_elements"] += stats.input_size

    # the loop ----------------------------------------------------------------
    def execute(self, seconds: float, trace: bool, warmup: bool = False) -> float:
        """Serve the workload for ``seconds``; returns the measured window."""
        open_loop = self.workload.open_loop
        requests = self.workload.requests(seconds, warmup)
        start = time.perf_counter()
        deadline = start + seconds
        slice_s = seconds / SLICES
        installed = False
        index = 0
        last_done = start
        try:
            for req in requests:
                traced = trace and (index // TRACE_BLOCK) % 2 == 0
                if traced != installed:
                    if traced:
                        self.tracer.install()
                    else:
                        self.tracer.uninstall()
                    installed = traced
                if open_loop:
                    due = start + req.due_s
                    self._drain(until=due)
                    while True:
                        wait = due - time.perf_counter()
                        if wait <= 0:
                            break
                        time.sleep(min(wait, 0.0005))
                elif time.perf_counter() >= deadline:
                    break
                before = self._snapshot() if traced else {}
                results = None
                error = ""
                sent = time.perf_counter()
                try:
                    if traced:
                        self.tracer.take()
                        results = self.tracer.call("harness", "request", req.call,
                                                   (self.dispatcher,), {})
                    else:
                        results = req.call(self.dispatcher)
                except Exception as exc:  # counted as failed, reported below
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                last_done = done
                origin = start + req.due_s if open_loop else sent
                latency_ms = (done - origin) * 1e3
                slot = min(int((origin - start) / slice_s), SLICES - 1)
                self.attempted += 1
                if open_loop:
                    self.lag_ms.append(max(sent - origin, 0.0) * 1e3)
                else:
                    self.request_s += done - sent
                    self.slice_request_s[slot] += done - sent
                if traced:
                    self._note_trace(req, results if not error else None, before, latency_ms)
                else:
                    self.latency_ms.append(latency_ms)
                    self.slice_latency_ms[slot].append(latency_ms)
                    self.kind_latency_ms[req.kind].append(latency_ms)
                if open_loop:
                    self.pending.append((req, results, latency_ms, error, slot))
                else:
                    self._check(req, results, latency_ms, error, slot)
                index += 1
        finally:
            if installed:
                self.tracer.uninstall()
        # Open loop: from the first due time to the last answer.
        window = last_done - start if open_loop else self.request_s
        self._drain(until=None)
        return window


# -- metrics -------------------------------------------------------------------
def slice_median(run: Run, q: float) -> float:
    """Median over the run's time slices of each slice's latency percentile."""
    return statistics.median(
        [percentile(s, q) for s in run.slice_latency_ms if s] or [0.0])


def end_to_end(run: Run, window_s: float, setup_s: List[float]) -> Dict[str, float]:
    p50 = slice_median(run, 50)
    if run.workload.open_loop:
        qps = ratio(run.good_queries, window_s)
    else:
        qps = statistics.median([ratio(q, t) for q, t in
                                 zip(run.slice_queries, run.slice_request_s) if t] or [0.0])
    values = {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": p50,
        "latency_p99_ms": slice_median(run, 99),
        "queries_per_s": qps,
        "slo_attainment": ratio(run.good, run.attempted),
        "overhead_vs_roofline": ratio(p50, percentile(run.roofline_ms, 50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: values[name] for name in E2E}


def per_layer(run: Run) -> Dict[str, float]:
    r = max(run.traced, 1)
    c = run.counts
    s, names = run.layer_self, run.name_self
    out: Dict[str, float] = {
        "dispatcher.self_ms": s["dispatcher"] / r,
        "router.busy_ms": s["router"] / r,
        "fingerprint.calls": run.calls["fingerprint"] / r,
        "fingerprint.busy_ms": s["fingerprint"] / r,
        "resultcache.hit_ratio": ratio(c["rc_hits"], c["rc_hits"] + c["rc_misses"]),
        "executor.units": sum(v for k, v in run.calls.items() if k.startswith("unit.")) / r,
        "executor.handoff_ms": names["executor.run"] / r,
        "executor.queue_ms_p99": percentile(run.tracer.unit_queue_ms, 99),
        "executor.overlap": ratio(run.unit_ms, run.run_ms),
        "planbank.hit_ratio": ratio(c["plan_hits"], c["plan_hits"] + c["constructions"]),
        "planbank.constructions": c["constructions"] / r,
        "core.construct_ms": run.name_incl["core.construct"] / r,
        "core.construct_calls": run.calls["core.construct"] / r,
        "core.pipeline_ms": run.name_incl["core.pipeline"] / r,
        "core.workload_fraction": ratio(c["concat_elements"], c["input_elements"]),
    }
    for a in ALGORITHMS:
        out[f"algorithms.{a}.calls"] = run.calls[f"algorithms.{a}"] / r
        out[f"algorithms.{a}.busy_ms"] = names[f"algorithms.{a}"] / r
    out.update({
        "batch.busy_ms": s["batch"] / r,
        "fusion.busy_ms": s["fusion"] / r,
        **{f"fusion.stage_ms.{st}": c["stage." + st] / r for st in FUSION_STAGES},
        "fusion.selection_calls_per_query": ratio(c["selection_calls"], c["queries"]),
        "arena.hit_ratio": ratio(c["arena_hits"], c["arena_takes"]),
        "gpusim.busy_ms": s["gpusim"] / r,
        "gpusim.modelled_bytes_per_query": ratio(c["modelled_bytes"], c["queries"]),
        "multigpu.busy_ms": s["multigpu"] / r,
        "multigpu.shard_units": run.calls["unit.multigpu"] / r,
        "streaming.busy_ms": s["streaming"] / r,
        "streaming.merge_ms": run.name_incl["streaming.merge"] / r,
        "chunkmemo.hit_ratio": ratio(c["cm_hits"], c["cm_hits"] + c["cm_misses"]),
        "store.admit_ms": run.name_incl["store.admit"] / r,
        "store.spill_serve_share": ratio(c["spill_serves"], c["named_queries"]),
        "store.promotions": c["st_promotions"] / r,
        "store.evictions": c["st_evictions"] / r,
        "spill.busy_ms": s["spill"] / r,
        "harness.dispatch_wall_ms": run.wall_ms / r,
        "harness.residual_ms": s["harness"] / r,
        "harness.lag_p99_ms": percentile(run.lag_ms, 99),
        "harness.tracing_overhead": ratio(percentile(run.latency_traced_ms, 50),
                                          percentile(run.latency_ms, 50)),
        "roofline.p50_ms": percentile(run.roofline_ms, 50),
    })
    return {name: out[name] for name in PER_LAYER}


def bypass_checks(workload: str, run: Run, layers: Dict[str, float]) -> List[Tuple[str, bool]]:
    """Whether each workload exercises, or bypasses, the layers it claims to."""
    spans = run.layer_self
    if workload == "warm-named":
        return [
            ("fingerprint.calls == 0", run.calls["fingerprint"] == 0),
            ("planbank.hit_ratio == 1.0", layers["planbank.hit_ratio"] == 1.0),
            ("no core.construct calls", run.calls["core.construct"] == 0),
        ]
    if workload == "cold-churn":
        # A worker can snap its alpha onto a plan its sibling worker banked a
        # moment earlier in the same dispatch, so planbank.hit_ratio itself
        # may sit just above 0; hits on plans from earlier requests must not.
        return [
            ("planbank.hit_ratio == 0 across requests "
             f"(within a dispatch: {layers['planbank.hit_ratio']:.4f})",
             run.counts["cross_request_hits"] == 0),
            ("one fingerprint call per request", run.calls["fingerprint"] == run.traced),
        ]
    return [
        ("multigpu spans > 0", spans["multigpu"] > 0),
        ("streaming spans > 0", spans["streaming"] > 0),
        ("store spans > 0", spans["store"] > 0),
    ]


def layer_table(run: Run) -> List[str]:
    """Where the traced requests' wall-clock went, layer by layer."""
    r = max(run.traced, 1)
    wall = run.wall_ms / r
    lines = [f"  {'layer':<12} {'attributed ms':>14} {'share':>7} {'busy ms':>9}"]
    for layer, ms in sorted(run.layer_attr.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {ms / r:>14.4f} {ratio(ms / r, wall):>7.1%} "
                     f"{run.layer_self[layer] / r:>9.4f}")
    named = sum(ms for layer, ms in run.layer_attr.items() if layer != "harness") / r
    lines.append(f"  layers account for {named:.4f} of {wall:.4f} ms per request; "
                 f"residual (harness) {wall - named:.4f} ms")
    return lines


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Run every workload, each in its own process, and tabulate the metrics."""
    status = 0
    rows = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            for metric, cell in json.loads(lines[-1])["metrics"].items():
                rows.append((name, metric, cell["value"], cell["unit"]))
    print("# all workloads")
    for name, metric, value, unit in rows:
        print(f"{name:<12} {metric:<36} {value:>16.6f} {unit}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="warm-named, cold-churn, fleet-open, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", default=str(ROOT / ".perfbench_results"),
                        help="directory for the result file")
    args = parser.parse_args(argv)
    # A terminated run still tears the dispatcher down and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    dispatcher = None
    workload = WORKLOADS[args.workload](args.seed, args.smoke, str(workdir))
    try:
        setup_s: List[float] = []
        for repeat in range(SETUP_REPEATS):
            if dispatcher is not None:
                workload.teardown(dispatcher)
                dispatcher = None
            gc.collect()
            t0 = time.perf_counter()
            dispatcher = workload.setup(repeat)
            setup_s.append(time.perf_counter() - t0)
        tracer = Tracer()
        install_targets(tracer)
        # Warm-up traffic from its own request stream, checked but not timed:
        # promotions out of spill, arena growth and first-touch page faults
        # settle before the measured window opens.
        warm = Run(workload, dispatcher, tracer)
        warm.execute(min(WARMUP_S, args.seconds / 4), trace=False, warmup=True)
        run = Run(workload, dispatcher, tracer)
        gc.collect()
        # The serving state lives for the whole run; keep the collector from
        # rescanning it in the timed window.
        gc.freeze()
        window = run.execute(args.seconds, trace=bool(args.trace))
    finally:
        if dispatcher is not None:
            workload.teardown(dispatcher)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    e2e = end_to_end(run, window, setup_s)
    layers = per_layer(run) if args.trace else {}
    checks = bypass_checks(args.workload, run, layers) if args.trace else []
    prov = provenance(args)
    attempted = warm.attempted + run.attempted
    failed = warm.failed + run.failed
    correct = failed == 0
    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else E2E

    print(f"# perfbench {args.workload}  seed={args.seed}  traced={bool(args.trace)}  "
          f"nproc={prov['nproc']}  python={prov['python']}  numpy={prov['numpy']}  "
          f"commit={prov['git_commit'][:12]}")
    print(f"# requests attempted={attempted} (warm-up {warm.attempted}) failed={failed} "
          f"failed_share={ratio(failed, attempted):.6f} "
          f"latency samples={len(run.latency_ms)} traced={run.traced} "
          f"slo_ms={workload.slo_ms}")
    print(f"# whole run: p50={percentile(run.latency_ms, 50):.3f} ms "
          f"p99={percentile(run.latency_ms, 99):.3f} ms; per slice (median reported): "
          + ", ".join(f"n={len(s)} p50={percentile(s, 50):.3f} p99={percentile(s, 99):.3f}"
                      for s in run.slice_latency_ms))
    for kind, values in sorted(run.kind_latency_ms.items()):
        print(f"# {kind:<8} n={len(values):<6} p50={percentile(values, 50):.3f} ms "
              f"p90={percentile(values, 90):.3f} ms p99={percentile(values, 99):.3f} ms")
    if run.lag_ms:
        print(f"# sender lag p50={percentile(run.lag_ms, 50):.3f} ms "
              f"p99={percentile(run.lag_ms, 99):.3f} ms")
    for failure in warm.failures + run.failures:
        print(f"# FAILED {failure}")
    for name, value in e2e.items():
        print(f"{name:<36} {value:>16.6f} {E2E[name]}")
    if args.trace:
        print("# per-layer (traced requests; gpusim numbers are modelled, not measured)")
        for name, value in layers.items():
            print(f"{name:<36} {value:>16.6f} {PER_LAYER[name]}")
        print("# wall-clock accounting of a traced request")
        for line in layer_table(run):
            print(line)
        for label, ok in checks:
            print(f"# bypass check {'PASS' if ok else 'FAIL'}: {label}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {
        "provenance": prov,
        "slo_ms": workload.slo_ms,
        "attempted": attempted,
        "failed": failed,
        "failed_share": ratio(failed, attempted),
        "warmup_requests": warm.attempted,
        "latency_samples": len(run.latency_ms),
        "end_to_end": e2e,
        "per_layer": layers,
        "bypass_checks": {label: ok for label, ok in checks},
        "notes": "gpusim.* values are modelled simulated-GPU accounting, not measured time",
    }
    path = out_dir / (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
                      f"{stamp}_{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    if not correct:
        return 1
    if not all(ok for _, ok in checks):
        print("error: a bypass check failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
