"""Exception hierarchy for the Dr. Top-k reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch every library failure with a single ``except`` clause while still being
able to distinguish configuration mistakes from runtime capacity problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied.

    Raised for example when ``k`` exceeds the input length, ``beta < 1``,
    a subrange size is not a power of two, or an unknown algorithm /
    dataset / device name is requested.
    """


class CapacityError(ReproError, RuntimeError):
    """A simulated resource (GPU memory, shared memory) was exceeded.

    The GPU simulator raises this instead of silently producing results a
    real device could not have produced (e.g. bitonic top-k with a ``k`` that
    would overflow shared memory, or placing a sub-vector larger than the
    simulated device memory).
    """


class CommunicationError(ReproError, RuntimeError):
    """A simulated inter-GPU communication primitive was misused."""


class TenantQuotaError(ReproError, RuntimeError):
    """A tenant exceeded one of its registered policy limits.

    Raised by the serving core when a :class:`~repro.service.tenancy.
    TenantRegistry` is configured and a request would breach the calling
    tenant's byte budget, QPS token bucket, or pin allowance — or would
    touch another tenant's slice (evicting or unpinning a vector the caller
    does not own).  Always raised *before* any store mutation, so a rejected
    admission leaves no half-admitted state; the registry counts these per
    tenant (:meth:`~repro.service.tenancy.TenantRegistry.rejections`).
    """
