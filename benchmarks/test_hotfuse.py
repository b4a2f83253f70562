"""Service layer — fused group execution holds its amortisation gates.

Not a paper figure: this benchmark holds the line on the fused hot path.
A 16-query batch whose ``k``\\ s all resolve one Rule-4 ``alpha`` — a single
plan-sharing group — dispatches cold and warm through a fused and an
unfused single-worker dispatcher (result cache disabled, so the warm replay
really dispatches).  The gates are the fused path's reason to exist:

* the **warm fused** dispatch performs exactly **one** selection pass for
  the whole group (the unfused dispatcher performs one per query — 16),
  with **zero** construction traffic (the plan bank serves the group) and a
  scratch-arena **hit** (the gather/filter temporaries are pooled reuses,
  not fresh allocations);
* every row answers element-wise **identically** (values *and* indices) to
  the stand-alone engine.

Wall-clock is recorded but not gated — the counter columns are
deterministic; milliseconds are host-dependent.
"""

from benchmarks.conftest import scaled
from repro.harness import experiments

BATCH = 16
#: Acceptance floor: warm fused performs at least this many times fewer
#: selection passes than warm unfused (the ISSUE gate is >= 2x; the
#: single-group scenario actually yields ``BATCH``x).
MIN_SELECTION_RATIO = 2


def test_hotfuse(benchmark, record_rows):
    rows = record_rows(
        benchmark,
        "hotfuse",
        experiments.hotfuse,
        n=scaled(1 << 16),
        batch=BATCH,
    )
    by = {(r["mode"], r["phase"]): r for r in rows}

    # Every row — both modes, both phases — certified element-wise against
    # the stand-alone engine.
    for key, r in by.items():
        assert r["identical"], f"{key}: results diverged from the engine reference"

    fused_warm = by[("fused", "warm")]
    unfused_warm = by[("unfused", "warm")]

    # The headline gate: one fused selection for the whole 16-query group.
    assert fused_warm["selection_calls"] == 1, (
        f"warm fused dispatch ran {fused_warm['selection_calls']} selection "
        "passes for a single plan-sharing group (expected 1)"
    )
    assert unfused_warm["selection_calls"] == BATCH
    assert (
        fused_warm["selection_calls"] * MIN_SELECTION_RATIO
        <= unfused_warm["selection_calls"]
    )
    assert fused_warm["fused_groups"] == 1
    assert fused_warm["fused_queries"] == BATCH

    # Zero construction traffic on the warm replay: the banked plan serves
    # the fused pass outright.
    assert fused_warm["constructions"] == 0
    assert fused_warm["construction_bytes"] == 0.0
    assert fused_warm["plan_bank_hits"] > 0

    # The scratch arena pooled the cold dispatch's temporaries and reused
    # them warm: misses cold, hits warm.
    assert by[("fused", "cold")]["arena_misses"] > 0
    assert fused_warm["arena_hits"] > 0

    # The per-stage profile hook recorded where the fused time went.
    assert fused_warm["stage_first_ms"] >= 0.0
    assert (
        fused_warm["stage_first_ms"]
        + fused_warm["stage_gather_ms"]
        + fused_warm["stage_refine_ms"]
        + fused_warm["stage_second_ms"]
        + fused_warm["stage_fallback_ms"]
        > 0.0
    ), "fused dispatch recorded no per-stage wall-clock"
