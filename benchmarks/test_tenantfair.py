"""Service layer — multi-tenant isolation and quota acceptance.

Not a paper figure: this benchmark holds the line on the tenancy contract.
The ``tenantfair`` experiment runs a hot tenant (its own byte budget)
against a quiet tenant (its own byte budget, one pinned vector) through
three invariant probes.  The acceptance criteria:

* **isolation** (in every row, including after fresh hot admissions
  overflow hot's byte budget): zero cross-tenant evictions and the quiet
  tenant's pinned vector stays resident;
* **quota**: under an injected fake clock the token bucket admits exactly
  ``burst`` queries, rejects the rest, and refills exactly ``rate x
  elapsed`` on clock advance;
* **differential**: a single-tenant replay against an unconfigured
  dispatcher is element-wise identical (values *and* indices, cold and
  warm, batched and streaming) — the default tenant pays zero behaviour
  change for the tenancy machinery.

Every recorded column is a count or a flag, deterministic per seed.
"""

from benchmarks.conftest import scaled
from repro.harness import experiments


def test_tenantfair_shares_quota_and_isolation(benchmark, record_rows):
    rows = record_rows(
        benchmark,
        "tenantfair",
        experiments.tenantfair,
        n=scaled(1 << 13),
    )
    by_phase = {}
    for row in rows:
        by_phase.setdefault(row["phase"], {})[row["tenant"]] = row
    assert set(by_phase) == {"pressure", "quota", "differential"}

    # Isolation invariants hold in every row, every phase: no tenant ever
    # evicted another's vector, and the quiet pin never left residency.
    for row in rows:
        assert row["cross_tenant_evictions"] == 0, f"{row['phase']}: cross-tenant eviction"
        assert row["pinned_resident"], f"{row['phase']}: quiet pinned vector evicted"

    # Pressure: hot overflowed its own budget; the ledgers stayed split.
    assert by_phase["pressure"]["hot"]["bytes_held"] > 0
    assert by_phase["pressure"]["quiet"]["bytes_held"] > 0

    # Quota: deterministic token bucket — burst passes, the rest reject,
    # the fake-clock refill re-admits; `identical` encodes the exact
    # ok/quota sequence.
    quota = by_phase["quota"]["hot"]
    assert quota["quota"] == 2
    assert quota["ok"] == 4
    assert quota["identical"], "token-bucket admit/reject/refill sequence drifted"

    # Differential: default tenant is bit-for-bit the pre-tenancy path.
    assert by_phase["differential"]["default"]["identical"], (
        "tenancy changed single-tenant answers"
    )
