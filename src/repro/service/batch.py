"""Batched top-k: many queries over one shared vector, one construction.

A naive serving loop runs the full Dr. Top-k pipeline per query, re-scanning
the input vector to rebuild the delegate vector every time even though the
vector has not changed.  :class:`BatchTopK` answers a batch of ``(k, largest)``
queries by grouping them by resolved subrange geometry — queries share a
:class:`~repro.core.plan.QueryPlan` whenever their Rule-4 ``alpha`` and key
order agree — and building the delegate vector **once per group**.  For the
common case of a homogeneous batch this turns ``B`` full-vector construction
scans into one, which is the dominant per-query traffic at serving time (the
delegate and concatenated vectors are orders of magnitude smaller than the
input, Section 6.2).

Selection is amortised across a group too, not just construction: by default
(``fused=True``) each group's queries run through
:func:`repro.service.fusion.fused_group_topk` — **one** shared first top-k
over the delegate vector at the group's ``max(k)`` plus one shared
gather/filter, with every query's answer derived from the shared candidate
set (``BatchReport.selection_calls`` counts the win: one call per group
instead of one per query).

Results are element-wise identical to looping
:meth:`repro.core.drtopk.DrTopK.topk`, fused or not: the grouped plan
resolves exactly the same ``alpha`` per query (through the shared
:class:`~repro.service.cache.PartitionCache`) and the fused path derives
each query's exact threshold (the ``k``-th shared delegate key) and exact
concatenation, so values *and* indices match the per-query pipeline — only
the construction and selection accounting moves from per-query to
per-batch.

With a :class:`~repro.service.planbank.PlanBank` attached, amortisation also
crosses dispatches: a group whose ``(vector fingerprint, alpha, largest)``
key is banked skips ``to_keys`` and construction entirely and records zero
construction traffic for the batch — the steady-state zero-rescan path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DrTopKConfig
from repro.core.drtopk import DrTopK
from repro.errors import ConfigurationError
from repro.core.plan import QueryPlan
from repro.harness.reporting import summarize_workloads
from repro.service.cache import PartitionCache, fingerprint_array
from repro.service.fusion import fused_group_topk
from repro.service.planbank import PlanBank
from repro.types import TopKResult, WorkloadStats
from repro.utils import check_k, ensure_1d

__all__ = [
    "TopKQuery",
    "BatchReport",
    "BatchTopK",
    "batch_topk",
    "group_queries_by_plan",
    "modelled_query_cost",
    "DEFAULT_ALPHA_SNAP_TOLERANCE",
]

#: Accepted query spellings: ``k``, ``(k,)``, ``(k, largest)`` or TopKQuery.
QueryLike = Union[int, Tuple, "TopKQuery"]

#: Bank-aware alpha snapping: a query whose resolved Rule-4 ``alpha`` is a
#: bank miss may be regrouped under a *banked* neighbouring exponent when the
#: modelled per-query cost grows by at most this fraction.  ``alpha`` only
#: tunes performance — any valid exponent returns exact answers — so a snap
#: trades a bounded amount of modelled work for skipping an O(n) rebuild.
DEFAULT_ALPHA_SNAP_TOLERANCE = 0.25


@dataclass(frozen=True)
class TopKQuery:
    """One top-k request against the batch's shared vector."""

    k: int
    largest: bool = True

    @classmethod
    def of(cls, query: QueryLike) -> "TopKQuery":
        """Coerce ``k`` / ``(k, largest)`` / :class:`TopKQuery` to a query."""
        if isinstance(query, TopKQuery):
            return query
        if isinstance(query, (int, np.integer)):
            return cls(k=int(query))
        if isinstance(query, tuple) and 1 <= len(query) <= 2:
            k = query[0]
            largest = bool(query[1]) if len(query) == 2 else True
            if isinstance(k, (int, np.integer)):
                return cls(k=int(k), largest=largest)
        raise ConfigurationError(
            f"cannot interpret {query!r} as a top-k query; "
            "expected k, (k, largest) or TopKQuery"
        )


def modelled_query_cost(n: int, k: int, alpha: int, beta: int) -> float:
    """Modelled per-query serving cost at a given subrange exponent.

    The concatenated second-pass vector holds ``min(num_subranges * beta, n)``
    elements and selection work scales with ``k`` — the same first-order
    model Rule 4 optimises and the router's placement weights use.  Only
    *relative* costs matter (the alpha snap compares two exponents).
    """
    subrange = 1 << int(alpha)
    num_subranges = -(-int(n) // subrange)
    m = min(num_subranges * min(int(beta), subrange), int(n))
    return float(m + 4 * int(k))


def _snap_alpha(
    n: int,
    k: int,
    alpha: int,
    beta: int,
    candidates: Sequence[QueryPlan],
    tolerance: float,
) -> int:
    """Resolved exponent, possibly snapped to a banked neighbour.

    Keeps ``alpha`` when it is already banked, when no compatible candidate
    answers ``k`` exactly, or when every candidate's modelled cost exceeds
    ``(1 + tolerance)`` times the resolved exponent's.  Deterministic:
    ties prefer the cheapest candidate, then the nearest exponent.
    """
    if not candidates:
        return alpha
    for plan in candidates:
        if int(plan.alpha) == alpha:
            return alpha  # exact bank hit; nothing to snap
    budget = (1.0 + tolerance) * modelled_query_cost(n, k, alpha, beta)
    best: Optional[Tuple[Tuple[float, int, int], int]] = None
    for plan in candidates:
        if int(plan.n) != int(n):
            continue
        if plan.beta != min(int(beta), plan.partition.subrange_size):
            continue  # banked under an incompatible configuration
        if not plan.answers(k):
            continue  # would force the exact-fallback path: not a warm hit
        cand = int(plan.alpha)
        cost = modelled_query_cost(n, k, cand, beta)
        if cost > budget:
            continue
        rank = (cost, abs(cand - alpha), cand)
        if best is None or rank < best[0]:
            best = (rank, cand)
    return alpha if best is None else best[1]


def group_queries_by_plan(
    parsed: Sequence["TopKQuery"],
    n: int,
    cache: Optional[PartitionCache],
    engine: DrTopK,
    plan_bank: Optional[PlanBank] = None,
    fingerprint: Optional[str] = None,
    snap_tolerance: Optional[float] = DEFAULT_ALPHA_SNAP_TOLERANCE,
) -> Dict[Tuple[int, bool], List[int]]:
    """Group query positions by the plan they can share.

    Two queries share a :class:`~repro.core.plan.QueryPlan` exactly when their
    resolved Rule-4 ``alpha`` and key order agree, so the group key is
    ``(alpha, largest)``.  This single definition of plan compatibility is
    used by :class:`BatchTopK`, the router's worker placement and the sharded
    multi-GPU batch — keeping "what can be amortised" identical across every
    route.  ``cache`` (when given) memoises the ``(n, k) → alpha`` resolution.

    With ``plan_bank`` and ``fingerprint`` both given, bank-aware snapping
    applies on top: a query whose resolved exponent is *not* banked regroups
    under a banked neighbouring exponent whenever the modelled cost gap stays
    within ``snap_tolerance`` (and the banked plan answers the query's ``k``
    exactly) — a near-miss becomes a warm hit instead of an O(n) rebuild.
    Snapping never changes answers, only which exact plan serves them.
    """
    groups: Dict[Tuple[int, bool], List[int]] = {}
    snapping = (
        plan_bank is not None
        and fingerprint is not None
        and snap_tolerance is not None
        and snap_tolerance > 0
    )
    banked: Optional[Dict[bool, List[QueryPlan]]] = None
    beta = engine.config.beta
    for pos, q in enumerate(parsed):
        if cache is not None:
            alpha = cache.resolve(n, q.k, engine)
        else:
            alpha = engine._resolve_alpha(int(n), q.k)
        if snapping:
            if banked is None:  # one bank walk per call, not per query
                banked = {}
                for plan in plan_bank.banked_plans(fingerprint):
                    banked.setdefault(bool(plan.largest), []).append(plan)
            alpha = _snap_alpha(
                n, q.k, alpha, beta, banked.get(q.largest, ()), snap_tolerance
            )
        groups.setdefault((alpha, q.largest), []).append(pos)
    return groups


@dataclass
class BatchReport:
    """Amortisation accounting of one :meth:`BatchTopK.run` call.

    All byte quantities are simulated global-memory traffic (zero when the
    engine runs with ``collect_trace=False``).  ``naive_bytes`` is what the
    same queries would have moved through a per-query loop: every query that
    went through the delegate pipeline re-charges its group's construction.
    """

    num_queries: int = 0
    num_groups: int = 0
    constructions: int = 0
    construction_bytes: float = 0.0
    query_bytes: float = 0.0
    naive_bytes: float = 0.0
    construction_ms: float = 0.0
    query_ms: float = 0.0
    #: Groups served from the cross-dispatch plan bank (zero construction
    #: traffic charged this batch).
    plan_bank_hits: int = 0
    #: Full selection passes executed: one per query on the per-query loop,
    #: one per group (plus exact fallbacks) on the fused path.
    selection_calls: int = 0
    #: Groups answered through :func:`~repro.service.fusion.fused_group_topk`.
    fused_groups: int = 0
    #: Queries served by a shared fused selection (fallbacks excluded).
    fused_queries: int = 0
    #: Measured wall-clock per fused stage, summed over the batch's groups.
    fusion_stage_ms: Dict[str, float] = field(default_factory=dict)
    stats: List[WorkloadStats] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        """Simulated bytes the batch actually moved."""
        return self.construction_bytes + self.query_bytes

    @property
    def bytes_per_query(self) -> float:
        """Amortised traffic per query."""
        if self.num_queries == 0:
            return 0.0
        return self.total_bytes / self.num_queries

    @property
    def naive_bytes_per_query(self) -> float:
        """Traffic per query of the equivalent per-query loop."""
        if self.num_queries == 0:
            return 0.0
        return self.naive_bytes / self.num_queries

    @property
    def traffic_saved_fraction(self) -> float:
        """Fraction of the naive loop's traffic the batch avoided."""
        if self.naive_bytes <= 0:
            return 0.0
        return 1.0 - self.total_bytes / self.naive_bytes

    @property
    def total_ms(self) -> float:
        """Estimated batch time (one construction per group plus queries)."""
        return self.construction_ms + self.query_ms

    def summary(self) -> Dict:
        """Aggregate row combining workload and amortisation quantities."""
        row = summarize_workloads(self.stats)
        row.update(
            {
                "num_groups": self.num_groups,
                "constructions": self.constructions,
                "plan_bank_hits": self.plan_bank_hits,
                "selection_calls": self.selection_calls,
                "fused_groups": self.fused_groups,
                "fused_queries": self.fused_queries,
                "construction_bytes": self.construction_bytes,
                "query_bytes": self.query_bytes,
                "total_bytes": self.total_bytes,
                "naive_bytes": self.naive_bytes,
                "bytes_per_query": self.bytes_per_query,
                "traffic_saved_fraction": self.traffic_saved_fraction,
                "total_ms": self.total_ms,
            }
        )
        return row


class BatchTopK:
    """Answer batches of top-k queries with amortised delegate construction.

    Parameters
    ----------
    config:
        Pipeline configuration shared by every query (defaults to the
        paper's final design).
    cache:
        Optional shared :class:`PartitionCache`; the dispatcher passes one
        cache to all of its workers.
    plan_bank:
        Optional shared :class:`~repro.service.planbank.PlanBank` persisting
        query plans across dispatches.  A bank must only be shared among
        engines with one pipeline configuration.
    fused:
        When ``True`` (the default) each group's queries are answered through
        :func:`~repro.service.fusion.fused_group_topk` — one shared selection
        at the group's ``max(k)`` instead of one ``topk_prepared`` call per
        query, with per-query-identical results.  ``False`` keeps the
        per-query loop (the differential baseline).
    snap_tolerance:
        Modelled-cost headroom for bank-aware alpha snapping (see
        :func:`group_queries_by_plan`); ``None`` or ``0`` disables snapping.
    """

    def __init__(
        self,
        config: Optional[DrTopKConfig] = None,
        cache: Optional[PartitionCache] = None,
        plan_bank: Optional[PlanBank] = None,
        fused: bool = True,
        snap_tolerance: Optional[float] = DEFAULT_ALPHA_SNAP_TOLERANCE,
    ) -> None:
        self.engine = DrTopK(config)
        # Not `cache or ...`: an empty cache is falsy (it has __len__ == 0)
        # but must still be shared.
        self.cache = cache if cache is not None else PartitionCache()
        self.plan_bank = plan_bank
        self.fused = bool(fused)
        self.snap_tolerance = snap_tolerance
        self.last_report: Optional[BatchReport] = None

    @property
    def config(self) -> DrTopKConfig:
        """The engine's pipeline configuration (shared, read it, don't mutate)."""
        return self.engine.config

    def _banked_plan(
        self, fingerprint: Optional[str], alpha: int, largest: bool
    ) -> Optional[QueryPlan]:
        """Usable banked plan for the group key, or ``None``.

        The bank itself enforces ``beta`` compatibility (a bank shared
        across configurations must never serve foreign plans).
        """
        if self.plan_bank is None or fingerprint is None:
            return None
        return self.plan_bank.get(fingerprint, alpha, largest, beta=self.config.beta)

    def run(
        self,
        v: np.ndarray,
        queries: Sequence[QueryLike],
        fingerprint: Optional[str] = None,
    ) -> List[TopKResult]:
        """Answer every query against ``v``; results align with ``queries``.

        The shared vector is scanned for delegate construction once per
        ``(alpha, largest)`` group rather than once per query; everything
        else matches a loop of :meth:`DrTopK.topk` exactly.  With a plan
        bank attached, groups whose plan is already banked skip construction
        entirely; ``fingerprint`` (when the caller — typically the
        dispatcher — has already fingerprinted ``v``) avoids hashing twice.
        """
        parsed = [TopKQuery.of(q) for q in queries]
        report = BatchReport(num_queries=len(parsed))
        if not parsed:
            self.last_report = report
            return []

        v = ensure_1d(v)
        n = v.shape[0]
        for q in parsed:
            check_k(q.k, n)

        # Resolve the fingerprint *before* grouping: bank-aware alpha
        # snapping needs to see the banked exponents for this content.
        if self.plan_bank is not None and fingerprint is None:
            fingerprint = fingerprint_array(v)

        # Group queries sharing a plan: same resolved alpha, same key order
        # — with near-miss exponents snapped onto banked neighbours.
        groups = group_queries_by_plan(
            parsed,
            n,
            self.cache,
            self.engine,
            plan_bank=self.plan_bank,
            fingerprint=fingerprint,
            snap_tolerance=self.snap_tolerance,
        )

        results: List[Optional[TopKResult]] = [None] * len(parsed)
        report.num_groups = len(groups)
        collect = self.config.collect_trace

        for (alpha, largest), positions in groups.items():
            # The construction *gate* stays at min(k): the plan is built
            # whenever at least one query in the group clears the degenerate
            # regime (num_subranges * beta > k holds for the smallest k iff it
            # holds for any).  The fused *selection* below then runs once at
            # the group's max(k) and serves every smaller k from it.
            min_k = min(parsed[p].k for p in positions)
            plan = self._banked_plan(fingerprint, alpha, largest)
            bank_hit = plan is not None
            if plan is None:
                plan = self.engine.prepare_with_alpha(v, alpha, largest=largest, k=min_k)
                if self.plan_bank is not None and fingerprint is not None:
                    self.plan_bank.put(fingerprint, plan)
            if bank_hit:
                # The banked construction happened in an earlier dispatch;
                # this batch moves no construction traffic for the group.
                report.plan_bank_hits += 1
            elif not plan.is_degenerate:
                report.constructions += 1
                report.construction_bytes += plan.construction_bytes
                report.construction_ms += plan.construction_ms(self.config.device)
            if self.fused:
                outcome = fused_group_topk(
                    self.engine, plan, [parsed[p].k for p in positions]
                )
                report.selection_calls += outcome.selection_calls
                if outcome.fused_queries:
                    report.fused_groups += 1
                report.fused_queries += outcome.fused_queries
                report.query_ms += outcome.shared_ms
                for name, ms in outcome.stage_ms.items():
                    report.fusion_stage_ms[name] = (
                        report.fusion_stage_ms.get(name, 0.0) + ms
                    )
                for pos, result in zip(positions, outcome.results):
                    results[pos] = result
                    assert result.stats is not None
                    report.query_ms += result.stats.total_time_ms
                if collect:
                    report.query_bytes += outcome.shared_bytes + sum(outcome.query_bytes)
                    report.naive_bytes += sum(outcome.naive_bytes)
            else:
                for pos in positions:
                    q = parsed[pos]
                    result = self.engine.topk_prepared(plan, q.k, charge_construction=False)
                    results[pos] = result
                    report.selection_calls += 1
                    assert result.stats is not None
                    report.query_ms += result.stats.total_time_ms
                    if collect:
                        q_bytes = self.engine.last_trace.total_counters().global_bytes
                        report.query_bytes += q_bytes
                        report.naive_bytes += q_bytes
            if collect:
                # Either path: a per-query loop would have re-charged the
                # group's construction for every query whose one-shot
                # pre-construction check (num_subranges * beta > k) would
                # have built delegates — including gap-regime queries that
                # then fall back.
                for pos in positions:
                    q = parsed[pos]
                    if (
                        not plan.is_degenerate
                        and plan.partition.num_subranges * plan.beta > q.k
                    ):
                        report.naive_bytes += plan.construction_bytes

        # Align the collected stats with the input query order.
        report.stats = [r.stats for r in results if r is not None and r.stats is not None]
        self.last_report = report
        return [r for r in results if r is not None]

    def run_with_report(
        self,
        v: np.ndarray,
        queries: Sequence[QueryLike],
        fingerprint: Optional[str] = None,
    ) -> Tuple[List[TopKResult], BatchReport]:
        """Like :meth:`run`, also returning the batch's :class:`BatchReport`."""
        results = self.run(v, queries, fingerprint=fingerprint)
        assert self.last_report is not None
        return results, self.last_report


def batch_topk(
    v: np.ndarray,
    queries: Sequence[QueryLike],
    config: Optional[DrTopKConfig] = None,
) -> List[TopKResult]:
    """One-call convenience wrapper around :class:`BatchTopK`."""
    return BatchTopK(config).run(v, queries)
