"""Multi-tenant serving: quotas and isolation — the proof suite.

The tenancy machinery claims properties, not tendencies, and everything
here is deterministic so they can be *proved* per seed:

* the token bucket's refill is monotone in an injected clock, a rejected
  burst leaves no half-admitted state, and a batch larger than the burst
  is a configuration error rather than a retryable quota rejection;
* the store's per-tenant byte ledgers always sum to the resident total —
  including under a four-thread admission hammer — and eviction victims
  only ever come from the requesting tenant's slice;
* a noisy neighbour flooding its own budget can never evict a quiet
  tenant's pinned vector nor trip ``cross_tenant_evictions``;
* a torn ``tenant`` column (or a v1 manifest) degrades to a clean cold
  start instead of mis-attributed bytes;
* and with no registry — or an *empty* one — the single-tenant path is
  element-wise identical (values and indices, cold and warm, on all three
  routes) to a dispatcher that has never heard of tenants.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, TenantQuotaError
from repro.service import ServiceDispatcher
from repro.service.spill import MANIFEST_NAME, SpillDirectory
from repro.service.store import VectorStore
from repro.service.cache import fingerprint_array
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantPolicy,
    TenantRegistry,
    TokenBucket,
)

N = 1 << 12


def vec(seed, n=N):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# TenantPolicy / TokenBucket
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tenant": ""},
        {"tenant": "t", "byte_budget": 0},
        {"tenant": "t", "qps": 0.0},
        {"tenant": "t", "qps": -1.0},
        {"tenant": "t", "burst": 0},
        {"tenant": "t", "byte_budget": -1},
        {"tenant": "t", "burst": -1},
        {"tenant": "t", "max_pins": -1},
    ],
)
def test_policy_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TenantPolicy(**kwargs)


def test_token_bucket_starts_full_and_rejects_past_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.try_acquire() for _ in range(5)] == [True, True, True, False, False]


def test_token_bucket_refill_is_monotone_and_capped():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4, clock=clock)
    for _ in range(4):
        assert bucket.try_acquire()
    # A non-advancing clock never refills.
    assert bucket.available() == pytest.approx(0.0)
    assert not bucket.try_acquire()
    # Refill is exactly rate x elapsed, monotone in the clock...
    previous = 0.0
    for step in (0.25, 0.5, 1.0, 1.5):
        clock.now = step
        available = bucket.available()
        assert available >= previous
        assert available == pytest.approx(min(4.0, 2.0 * step))
        previous = available
    # ...and capped at burst no matter how far the clock jumps.
    clock.now = 1e6
    assert bucket.available() == pytest.approx(4.0)
    # A clock that moves *backwards* (paused fake, clock skew) never drains.
    clock.now = 1.0
    assert bucket.available() == pytest.approx(4.0)


def test_token_bucket_fractional_refill_readmits_exactly():
    clock = FakeClock()
    bucket = TokenBucket(rate=4.0, burst=2, clock=clock)
    assert bucket.try_acquire() and bucket.try_acquire()
    clock.now = 0.5  # 4/s x 0.5s = exactly 2 tokens
    assert bucket.try_acquire() and bucket.try_acquire()
    assert not bucket.try_acquire()


def test_registry_quota_counts_rejections_per_tenant():
    clock = FakeClock()
    registry = TenantRegistry(
        policies=[TenantPolicy(tenant="hot", qps=1.0, burst=2)], clock=clock
    )
    registry.acquire("hot")
    registry.acquire("hot")
    for _ in range(3):
        with pytest.raises(TenantQuotaError):
            registry.acquire("hot")
    # Unregistered tenants are never charged.
    for _ in range(10):
        registry.acquire("unmetered")
    assert registry.rejections("hot") == 3
    assert registry.rejections("unmetered") == 0
    assert registry.rejections() == 3
    assert registry.rejections_by_tenant() == {"hot": 3}
    clock.now = 2.0  # refill re-admits
    registry.acquire("hot")
    assert registry.rejections("hot") == 3


# ---------------------------------------------------------------------------
# VectorStore — ledgers, isolation, atomic rejection
# ---------------------------------------------------------------------------


def registry_two(hot_budget, quiet_budget, quiet_pins=None):
    return TenantRegistry(
        policies=[
            TenantPolicy(tenant="hot", byte_budget=hot_budget),
            TenantPolicy(
                tenant="quiet", byte_budget=quiet_budget, max_pins=quiet_pins
            ),
        ]
    )


def test_store_ledgers_sum_to_resident_bytes():
    one = vec(0).nbytes
    store = VectorStore(capacity_bytes=10 * one, tenants=registry_two(4 * one, 4 * one))
    for i in range(3):
        store.admit(f"h{i}", vec(i), tenant="hot")
    for i in range(2):
        store.admit(f"q{i}", vec(10 + i), tenant="quiet")
    ledgers = store.tenant_bytes()
    assert ledgers == {"hot": 3 * one, "quiet": 2 * one}
    assert sum(ledgers.values()) == sum(e.nbytes for e in store.snapshot())
    store.evict("h0")
    assert store.tenant_bytes() == {"hot": 2 * one, "quiet": 2 * one}


def test_store_victims_come_only_from_own_tenant():
    one = vec(0).nbytes
    store = VectorStore(capacity_bytes=4 * one, tenants=registry_two(3 * one, 2 * one))
    for i in range(3):
        store.admit(f"h{i}", vec(i), tenant="hot")
    store.admit("q0", vec(10), tenant="quiet")
    # Hot is at its own budget: the next hot admission evicts hot's LRU,
    # never the quiet vector, even though the global budget is also full.
    store.admit("h3", vec(3), tenant="hot")
    assert "q0" in store.names()
    assert "h0" not in store.names()
    assert store.cross_tenant_evictions() == 0


def test_store_admission_blocked_by_other_tenants_is_quota_not_config():
    one = vec(0).nbytes
    registry = registry_two(hot_budget=4 * one, quiet_budget=2 * one)
    store = VectorStore(capacity_bytes=3 * one, tenants=registry)
    for i in range(3):
        store.admit(f"h{i}", vec(i), tenant="hot")
    # The global budget is exhausted by *hot's* residency: quiet's admission
    # must not steal it, and the refusal is tenant-attributed.
    with pytest.raises(TenantQuotaError, match="belongs to other tenants"):
        store.admit("q0", vec(10), tenant="quiet")
    assert registry.rejections("quiet") == 1
    assert sorted(store.names()) == ["h0", "h1", "h2"]


def test_store_quota_rejection_leaves_no_half_admitted_state():
    one = vec(0).nbytes
    store = VectorStore(capacity_bytes=10 * one, tenants=registry_two(2 * one, 2 * one))
    store.admit("h0", vec(0), tenant="hot")
    store.admit("h1", vec(1), pin=True, tenant="hot")
    store.admit("h2", vec(2), pin=True, tenant="hot")  # budget full, all pinned bar h0
    before = (store.names(), store.tenant_bytes(), store.info().bytes)
    rejected = vec(99)
    with pytest.raises(TenantQuotaError, match="over its"):
        store.admit("h3", rejected, tenant="hot")
    assert (store.names(), store.tenant_bytes(), store.info().bytes) == before
    # The caller's array was not touched: admission freezes only on success.
    assert rejected.flags.writeable


def test_store_pin_allowance():
    one = vec(0).nbytes
    store = VectorStore(
        capacity_bytes=10 * one, tenants=registry_two(8 * one, 8 * one, quiet_pins=1)
    )
    store.admit("q0", vec(0), pin=True, tenant="quiet")
    with pytest.raises(TenantQuotaError, match="pin"):
        store.admit("q1", vec(1), pin=True, tenant="quiet")
    assert "q1" not in store.names()
    store.admit("q1", vec(1), tenant="quiet")
    with pytest.raises(TenantQuotaError, match="pin"):
        store.pin("q1")
    store.unpin("q0")
    store.pin("q1")  # the allowance freed by unpinning is reusable


def test_store_ledger_invariant_under_concurrent_admissions():
    one = vec(0).nbytes
    registry = registry_two(hot_budget=6 * one, quiet_budget=6 * one)
    store = VectorStore(capacity_bytes=12 * one, tenants=registry)
    errors = []

    def hammer(tenant, base):
        rng = np.random.default_rng(base)
        try:
            for i in range(40):
                name = f"{tenant}-{int(rng.integers(0, 8))}"
                store.admit(name, vec(base * 100 + i), tenant=tenant)
                if rng.integers(0, 4) == 0 and store.names():
                    store.evict(name)
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(tenant, base))
        for base, tenant in enumerate(["hot", "hot", "quiet", "quiet"])
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # After quiesce the ledgers are exactly the per-tenant residency sums.
    by_tenant = {}
    for entry in store.snapshot():
        by_tenant[entry.tenant] = by_tenant.get(entry.tenant, 0) + entry.nbytes
    assert store.tenant_bytes() == by_tenant
    assert sum(by_tenant.values()) == store.info().bytes
    assert store.cross_tenant_evictions() == 0


# ---------------------------------------------------------------------------
# Dispatcher — ownership, QPS, the noisy neighbour
# ---------------------------------------------------------------------------


def test_dispatcher_ownership_guard():
    registry = registry_two(None, None)
    with ServiceDispatcher(num_workers=2, capacity_elements=N, tenants=registry) as d:
        d.admit("hv", vec(0), tenant="hot")
        d.admit("qv", vec(1), tenant="quiet")
        with pytest.raises(TenantQuotaError, match="owned by tenant 'quiet'"):
            d.evict("qv", tenant="hot")
        with pytest.raises(TenantQuotaError, match="may not pin"):
            d.pin("qv", tenant="hot")
        d.pin("qv", tenant="quiet")
        d.unpin("qv", tenant="quiet")
        assert d.evict("hv", tenant="hot")
        assert registry.rejections("hot") == 2
        # The default tenant is the operator: no ownership guard applies.
        assert d.evict("qv")


def test_dispatcher_qps_quota_is_deterministic_and_atomic():
    clock = FakeClock()
    registry = TenantRegistry(
        policies=[TenantPolicy(tenant="hot", qps=2.0, burst=2)], clock=clock
    )
    with ServiceDispatcher(num_workers=1, capacity_elements=N, tenants=registry) as d:
        d.admit("hv", vec(0), tenant="hot")
        outcomes = []
        for _ in range(4):
            try:
                d.query("hv", [8], tenant="hot")
                outcomes.append("ok")
            except TenantQuotaError:
                outcomes.append("quota")
        assert outcomes == ["ok", "ok", "quota", "quota"]
        assert registry.rejections("hot") == 2
        # A rejected query did no work and left no half-admitted state.
        assert d.last_report is None or d.last_report.tenant == "hot"
        clock.now = 1.0  # 2/s x 1s: exactly two more queries pass
        d.query("hv", [8], tenant="hot")
        d.query("hv", [8], tenant="hot")
        with pytest.raises(TenantQuotaError):
            d.query("hv", [8], tenant="hot")
        # A multi-query batch charges len(queries): reject it atomically.
        clock.now = 2.0
        d.query("hv", [8], tenant="hot")  # takes one of the two refilled tokens
        with pytest.raises(TenantQuotaError):
            d.query("hv", [(8, True), (16, True)], tenant="hot")
        clock.now = 2.5  # the rejected batch took nothing: 1 + 1 tokens
        assert d.query("hv", [(8, True), (16, True)], tenant="hot")


def test_batch_larger_than_burst_is_a_configuration_error():
    # The bucket never holds more than `burst` tokens, so a bigger batch
    # could never pass: reject it up front, uncharged and uncounted.
    clock = FakeClock()
    registry = TenantRegistry(
        policies=[TenantPolicy(tenant="x", qps=1.0, burst=2)], clock=clock
    )
    with ServiceDispatcher(num_workers=1, capacity_elements=N, tenants=registry) as d:
        d.admit("a", vec(0), tenant="x")
        for advance in (0.0, 100.0):
            clock.now += advance
            with pytest.raises(ConfigurationError, match="batch of 3 .*burst of 2"):
                d.query("a", [1, 2, 3], tenant="x")
        assert len(d.query("a", [1, 2], tenant="x")) == 2
    assert registry.rejections("x") == 0


def test_noisy_neighbour_never_touches_quiet_tenant():
    one = vec(0).nbytes
    registry = registry_two(hot_budget=3 * one, quiet_budget=2 * one, quiet_pins=1)
    with ServiceDispatcher(
        num_workers=4,
        capacity_elements=N,
        store_bytes=8 * one,
        result_cache_capacity=0,
        tenants=registry,
    ) as d:
        quiet_v = vec(999)
        d.admit("quiet-pin", quiet_v, tenant="quiet", pin=True)
        want = d.query("quiet-pin", [(8, True)], tenant="quiet")[0]
        errors = []

        def hammer(worker):
            rng = np.random.default_rng(worker)
            try:
                for i in range(30):
                    # Zipf-ish skew: low indices dominate, forcing constant
                    # churn through hot's 3-vector budget over 6 names.
                    idx = min(int(rng.zipf(1.3)) - 1, 5)
                    name = f"hot-{idx}"
                    try:
                        d.admit(name, vec(idx), tenant="hot")
                        d.query(name, [(8, True)], tenant="hot")
                    except (TenantQuotaError, ConfigurationError):
                        pass  # evicted-under-us / budget races are expected
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert d.store is not None
        # The quiet tenant is untouched: pinned vector resident, answers
        # identical, ledger exact, zero cross-tenant evictions.
        assert "quiet-pin" in d.store.names()
        got = d.query("quiet-pin", [(8, True)], tenant="quiet")[0]
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(
            np.asarray(got.indices), np.asarray(want.indices)
        )
        assert d.store.cross_tenant_evictions() == 0
        by_tenant = {}
        for entry in d.store.snapshot():
            by_tenant[entry.tenant] = by_tenant.get(entry.tenant, 0) + entry.nbytes
        assert d.store.tenant_bytes() == by_tenant
        assert by_tenant["quiet"] == one
        assert by_tenant["hot"] <= 3 * one
        # The executor's fair path attributed work to both tenants.
        assert d.executor.tenant_units("quiet") > 0
        assert d.executor.tenant_units("hot") > 0
        assert d.executor.in_flight_for("hot") == 0


# ---------------------------------------------------------------------------
# Spill manifest v2 — tenant round-trip and torn-column degradation
# ---------------------------------------------------------------------------


def test_spill_tenant_round_trip(tmp_path):
    spill = SpillDirectory(str(tmp_path))
    v = vec(0)
    spill.store("hv", v, fingerprint_array(v), tenant="hot")
    reopened = SpillDirectory(str(tmp_path))
    assert reopened.entries()["hv"].tenant == "hot"
    assert not reopened.info().recovered


def test_spill_torn_tenant_column_degrades_to_cold_start(tmp_path):
    spill = SpillDirectory(str(tmp_path))
    a, b = vec(0), vec(1)
    spill.store("torn", a, fingerprint_array(a), tenant="hot")
    spill.store("fine", b, fingerprint_array(b), tenant="quiet")
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    with open(manifest_path) as fh:
        raw = json.load(fh)
    raw["vectors"]["torn"]["tenant"] = 0  # torn column: wrong type
    with open(manifest_path, "w") as fh:
        json.dump(raw, fh)
    reopened = SpillDirectory(str(tmp_path))
    # The torn entry is dropped (a clean cold miss), the rest survive, and
    # the recovery is reported rather than silent.
    assert "torn" not in reopened.entries()
    assert reopened.entries()["fine"].tenant == "quiet"
    assert reopened.info().recovered
    assert reopened.load("torn") is None


def test_spill_v1_manifest_cold_starts_clean(tmp_path):
    spill = SpillDirectory(str(tmp_path))
    v = vec(0)
    spill.store("old", v, fingerprint_array(v), tenant="hot")
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    with open(manifest_path) as fh:
        raw = json.load(fh)
    raw["version"] = 1
    with open(manifest_path, "w") as fh:
        json.dump(raw, fh)
    reopened = SpillDirectory(str(tmp_path))
    assert reopened.entries() == {}
    assert reopened.info().recovered


def test_spill_restore_inherits_manifest_tenant(tmp_path):
    one = vec(0).nbytes
    registry = registry_two(4 * one, 4 * one)
    with ServiceDispatcher(
        num_workers=2,
        capacity_elements=N,
        spill_dir=str(tmp_path),
        tenants=registry,
    ) as d:
        d.admit("hv", vec(0), tenant="hot")
        d.save_state()
    with ServiceDispatcher(
        num_workers=2,
        capacity_elements=N,
        spill_dir=str(tmp_path),
        tenants=registry_two(4 * one, 4 * one),
    ) as d2:
        d2.load_state()
        assert d2.store is not None
        # Re-admission under the default tenant inherits the spilled owner.
        d2.admit("hv")
        assert d2.store.owner("hv") == "hot"
        assert d2.store.tenant_bytes() == {"hot": one}


# ---------------------------------------------------------------------------
# Differential: single tenant ≡ the pre-tenancy dispatcher
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("registry", [None, "empty"])
def test_single_tenant_differential_all_routes(registry):
    tenants = TenantRegistry() if registry == "empty" else None
    big = 4 * N  # four shards through capacity_elements=N: the sharded route
    v_small, v_big = vec(0), vec(1, n=big)
    chunks = [v_big[i::4].copy() for i in range(4)]
    queries = [(8, True), (16, False), (8, True)]

    def run(d):
        d.admit("small", v_small.copy())
        d.admit("big", v_big.copy())
        out = []
        for _ in range(2):  # cold, then warm replay
            out.append(d.query("small", queries))  # batched
            out.append(d.query("big", queries))  # sharded
            out.append(d.dispatch(list(chunks), queries))  # streaming
        return out

    kwargs = dict(num_workers=2, capacity_elements=N, result_cache_capacity=0)
    with ServiceDispatcher(**kwargs) as baseline:
        want = run(baseline)
    with ServiceDispatcher(**kwargs, tenants=tenants) as tenanted:
        got = run(tenanted)
    for want_batch, got_batch in zip(want, got):
        for a, b in zip(want_batch, got_batch):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(np.asarray(a.indices), np.asarray(b.indices))


def test_default_tenant_report_and_ledger_behaviour():
    with ServiceDispatcher(num_workers=2, capacity_elements=N) as d:
        d.admit("v", vec(0))
        d.query("v", [8])
        assert d.last_report.tenant == DEFAULT_TENANT
        assert d.store is not None
        # Without a registry the per-tenant ledger map stays empty in info().
        assert d.store.info().tenant_bytes == {}
        assert d.store.info().cross_tenant_evictions == 0
