"""Multi-tenant serving policies: byte budgets, token buckets and pin caps.

The serving core (store, executor, dispatcher) is tenant-aware but
tenant-agnostic by default: every entry point accepts a ``tenant=``
identity that defaults to :data:`DEFAULT_TENANT`, and with no
:class:`TenantRegistry` configured the single-tenant path is bit-for-bit the
pre-tenancy behaviour.  When a registry *is* configured, three per-tenant
policy knobs take effect:

- ``byte_budget`` — a cap on resident bytes in :class:`~repro.service.store.
  VectorStore`; eviction victims are then only ever chosen from the
  requesting tenant's own slice.
- ``qps`` / ``burst`` — a token bucket charged per query; exhaustion raises
  :class:`~repro.errors.TenantQuotaError` before any work is dispatched.
- ``max_pins`` — a cap on simultaneously pinned vectors.

There is no scheduling weight: the executor hands out slots without regard
to tenant (see :mod:`repro.service.executor` for the measurement behind
that).  Everything here is deterministic under injected clocks so the quota
properties can be proven by the test suite rather than observed
statistically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import ConfigurationError, TenantQuotaError

__all__ = [
    "DEFAULT_TENANT",
    "TenantPolicy",
    "TokenBucket",
    "TenantRegistry",
]

#: Identity used when a caller does not name a tenant.  The default tenant
#: has no registered policy unless one is explicitly added, so the
#: single-tenant path behaves exactly as it did before tenancy existed.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's resource policy.

    Every limit is optional: ``None`` means unlimited, which is also what an
    unregistered tenant gets.
    """

    tenant: str
    byte_budget: Optional[int] = None
    qps: Optional[float] = None
    burst: int = 8
    max_pins: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate the policy knobs at construction time."""
        if not self.tenant:
            raise ConfigurationError("tenant name must be non-empty")
        if self.byte_budget is not None and self.byte_budget < 1:
            raise ConfigurationError("byte_budget must be >= 1, or None")
        if self.qps is not None and self.qps <= 0:
            raise ConfigurationError("qps must be > 0, or None")
        if self.burst < 1:
            raise ConfigurationError("burst must be >= 1")
        if self.max_pins is not None and self.max_pins < 0:
            raise ConfigurationError("max_pins must be >= 0, or None")


class TokenBucket:
    """A deterministic token bucket: ``rate`` tokens/second, ``burst`` deep.

    The clock is injected so tests drive refill with a fake monotonic
    counter; with the default ``time.monotonic`` the bucket is a standard
    leaky-bucket rate limiter.  Refill is monotone in the clock: a later
    ``now`` never yields fewer available tokens than an earlier one (capped
    at ``burst``), and a non-advancing clock never refills.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Create a bucket that starts full at ``burst`` tokens."""
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be > 0")
        if burst < 1:
            raise ConfigurationError("token bucket burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._last = float(clock())

    def _refill(self, now: float) -> None:
        """Advance ``_tokens`` to clock reading ``now``; caller holds ``_lock``.

        The clock is sampled by the caller *outside* the lock — an injected
        clock is user code and must never run under bucket state.
        """
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; return whether the take succeeded."""
        now = float(self._clock())
        with self._lock:
            self._refill(now)
            if self._tokens + 1e-9 >= tokens:
                self._tokens -= tokens
                return True
            return False

    def available(self) -> float:
        """Tokens currently available (after refilling to the clock)."""
        now = float(self._clock())
        with self._lock:
            self._refill(now)
            return self._tokens


class TenantRegistry:
    """Thread-safe lookup of per-tenant policies plus quota accounting.

    The registry owns one :class:`TokenBucket` per rate-limited tenant and
    counts quota rejections per tenant so reports can surface them.
    Unregistered tenants resolve to an unlimited default policy —
    configuring a registry therefore never restricts tenants you did not
    name.
    """

    def __init__(
        self,
        policies: Iterable[TenantPolicy] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Build a registry over ``policies`` with an injectable clock."""
        self._clock = clock
        self._lock = threading.Lock()
        self._policies: Dict[str, TenantPolicy] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._rejections: Dict[str, int] = {}
        for policy in policies:
            self.register(policy)

    def register(self, policy: TenantPolicy) -> None:
        """Add or replace one tenant's policy (rebuilding its token bucket)."""
        bucket = (
            TokenBucket(policy.qps, policy.burst, self._clock)
            if policy.qps is not None
            else None
        )
        with self._lock:
            self._policies[policy.tenant] = policy
            if bucket is not None:
                self._buckets[policy.tenant] = bucket
            else:
                self._buckets.pop(policy.tenant, None)

    def policy(self, tenant: str) -> TenantPolicy:
        """The registered policy, or an unlimited default for unknown tenants."""
        with self._lock:
            known = self._policies.get(tenant)
        return known if known is not None else TenantPolicy(tenant=tenant)

    def tenants(self) -> List[str]:
        """Sorted names of every registered tenant."""
        with self._lock:
            return sorted(self._policies)

    def byte_budget(self, tenant: str) -> Optional[int]:
        """The tenant's resident-byte cap, or ``None`` for unlimited."""
        return self.policy(tenant).byte_budget

    def max_pins(self, tenant: str) -> Optional[int]:
        """The tenant's pin allowance, or ``None`` for unlimited."""
        return self.policy(tenant).max_pins

    def acquire(self, tenant: str, tokens: float = 1.0) -> None:
        """Charge ``tokens`` against the tenant's QPS bucket.

        Raises :class:`TenantQuotaError` (and counts the rejection) when the
        bucket cannot cover the charge; tenants with no ``qps`` policy are
        never charged.  A charge larger than the bucket's ``burst`` could
        never pass, however long the caller waits, so it raises
        :class:`ConfigurationError` up front without charging the bucket or
        counting a rejection.
        """
        with self._lock:
            bucket = self._buckets.get(tenant)
        if bucket is None:
            return
        if tokens > bucket.burst:
            raise ConfigurationError(
                f"a batch of {tokens:g} queries exceeds tenant {tenant!r}'s "
                f"burst of {bucket.burst:g}; it can never pass the QPS quota"
            )
        if bucket.try_acquire(tokens):
            return
        self.note_rejection(tenant)
        raise TenantQuotaError(
            f"tenant {tenant!r} exceeded its QPS quota "
            f"({self.policy(tenant).qps}/s, burst {self.policy(tenant).burst})"
        )

    def note_rejection(self, tenant: str) -> None:
        """Count one quota rejection against ``tenant``."""
        with self._lock:
            self._rejections[tenant] = self._rejections.get(tenant, 0) + 1

    def rejections(self, tenant: Optional[str] = None) -> int:
        """Quota rejections for one tenant, or the total across all tenants."""
        with self._lock:
            if tenant is not None:
                return self._rejections.get(tenant, 0)
            return sum(self._rejections.values())

    def rejections_by_tenant(self) -> Dict[str, int]:
        """A snapshot of per-tenant quota-rejection counts."""
        with self._lock:
            return dict(self._rejections)
