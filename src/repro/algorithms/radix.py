"""Radix top-k: out-of-place, naive in-place (GGKS) and flag-optimised in-place.

Radix top-k walks the key's digits from the Most Significant Digit to the
Least Significant Digit, ``bits_per_pass`` (default 8) bits at a time
(Section 2.2).  At every pass it histograms the current candidates by digit,
accepts every element whose digit is larger than the digit of the k-th
element, and recurses into the digit bucket containing the k-th element.

Three variants are implemented because the paper distinguishes them:

``RadixTopK`` (out-of-place)
    Candidates for the next pass are compacted into a new, smaller array.
    Fast when the digit distribution spreads values out, but each pass pays a
    store of the surviving candidates.

``InPlaceRadixTopK`` (GGKS in-place)
    Never compacts.  Every pass re-scans the whole input and *overwrites*
    ineligible elements with a value outside the range of interest (zero).
    The scattered writes are the "excessive random memory accesses" the paper
    criticises; they are modelled as low-utilisation store traffic.

``FlagRadixTopK`` (Dr. Top-k's optimised in-place, Section 5.1)
    Keeps a single ``(flag, mask)`` pair describing the digits selected so
    far; each pass filters elements with ``(key & mask) == flag`` on the fly
    and never writes to the input.  Figure 12 reports this variant to be on
    average 10.7x faster than the GGKS in-place design.  The host kernel is
    one partition plus an exact pass count: the k-th key and the largest key
    left out determine how many digit passes the GPU kernel runs, and the
    modelled scan/extract traffic is charged for exactly those passes.

The out-of-place and GGKS variants share the digit-selection logic in
:class:`_RadixBase`; all three return identical value sets and differ only in
their memory-traffic behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import ExecutionTrace, TopKAlgorithm
from repro.errors import ConfigurationError

__all__ = ["RadixTopK", "InPlaceRadixTopK", "FlagRadixTopK"]


class _RadixBase(TopKAlgorithm):
    """Shared machinery for the radix top-k variants."""

    def __init__(self, bits_per_pass: int = 8):
        if bits_per_pass < 1 or bits_per_pass > 16:
            raise ConfigurationError("bits_per_pass must be in [1, 16]")
        self.bits_per_pass = int(bits_per_pass)

    # -- helpers ----------------------------------------------------------------
    def _shifts(self, keys: np.ndarray) -> List[int]:
        """MSD-to-LSD bit shifts for the key dtype."""
        total_bits = keys.dtype.itemsize * 8
        shifts = list(range(total_bits - self.bits_per_pass, -1, -self.bits_per_pass))
        if shifts and shifts[-1] != 0:
            shifts.append(0)
        return shifts

    def _digit_of_interest(
        self, digits: np.ndarray, need: int
    ) -> Tuple[int, int]:
        """Return ``(digit, count_above)`` for the digit holding the k-th element."""
        radix = 1 << self.bits_per_pass
        counts = np.bincount(digits, minlength=radix)
        from_top = np.cumsum(counts[::-1])[::-1]
        digit = int(np.max(np.nonzero(from_top >= need)[0]))
        count_above = int(from_top[digit + 1]) if digit + 1 < radix else 0
        return digit, count_above


class RadixTopK(_RadixBase):
    """Out-of-place MSD radix top-k (candidates compacted every pass)."""

    name = "radix"
    distribution_stable = False

    def _select(
        self, keys: np.ndarray, k: int, trace: Optional[ExecutionTrace]
    ) -> np.ndarray:
        candidates = np.arange(keys.shape[0], dtype=np.int64)
        accepted: List[np.ndarray] = []
        need = k
        self.last_iterations = 0
        mask_digit = (1 << self.bits_per_pass) - 1

        for shift in self._shifts(keys):
            m = candidates.shape[0]
            if m <= need:
                break
            self.last_iterations += 1
            digits = ((keys[candidates] >> shift) & mask_digit).astype(np.int64)
            digit, count_above = self._digit_of_interest(digits, need)
            above = candidates[digits > digit]
            nxt = candidates[digits == digit]
            if trace is not None:
                trace.add(
                    "radix_topk",
                    loads=float(m),
                    stores=float(above.shape[0] + nxt.shape[0]),
                    kernels=2,
                )
            if above.shape[0]:
                accepted.append(above)
                need -= above.shape[0]
            candidates = nxt
            if need == 0 or candidates.shape[0] == need:
                break

        if need > 0:
            accepted.append(candidates[:need])
        return np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)


class InPlaceRadixTopK(_RadixBase):
    """GGKS-style in-place radix top-k (re-scans and overwrites ineligible data).

    The user's input is never actually modified (a working copy of the key
    array is used), but the traffic of zeroing out ineligible elements is
    charged exactly as the original kernel would incur it: one scattered store
    per newly-ineligible element at poor memory utilisation.
    """

    name = "radix_inplace"
    distribution_stable = False
    #: Effective bandwidth fraction for scattered single-element writes: a
    #: 4-byte random write moves a full 32-byte sector and, with ECC, becomes
    #: a read-modify-write, so the achieved bandwidth is a small fraction of
    #: the streaming rate (this is the "excessive random memory accesses"
    #: penalty behind Figure 12).
    scatter_utilization = 0.0625

    def _select(
        self, keys: np.ndarray, k: int, trace: Optional[ExecutionTrace]
    ) -> np.ndarray:
        n = keys.shape[0]
        work = keys.copy()
        indices = np.arange(n, dtype=np.int64)
        live = np.ones(n, dtype=bool)  # not yet zeroed out
        accepted: List[np.ndarray] = []
        need = k
        self.last_iterations = 0
        mask_digit = (1 << self.bits_per_pass) - 1

        for shift in self._shifts(keys):
            live_idx = indices[live]
            m = live_idx.shape[0]
            if m <= need:
                break
            self.last_iterations += 1
            digits = ((work[live_idx] >> shift) & mask_digit).astype(np.int64)
            digit, _ = self._digit_of_interest(digits, need)
            above_idx = live_idx[digits > digit]
            keep_idx = live_idx[digits == digit]
            drop_idx = live_idx[digits < digit]
            if above_idx.shape[0]:
                accepted.append(above_idx)
                need -= above_idx.shape[0]
            # "Modify the ineligible element ... into a value that is assured
            # to fall out of the value range of interest (e.g., zero)".
            work[drop_idx] = 0
            work[above_idx] = 0  # accepted elements also leave the range of interest
            live[drop_idx] = False
            live[above_idx] = False
            if trace is not None:
                # The kernel always streams the full input vector ...
                trace.add("radix_inplace_scan", loads=float(n), kernels=1)
                # ... and scatters zeros over the newly ineligible elements
                # (read-modify-write of the touched sectors).
                zeroed = float(drop_idx.shape[0] + above_idx.shape[0])
                trace.add(
                    "radix_inplace_zero",
                    loads=zeroed,
                    stores=zeroed,
                    utilization=self.scatter_utilization,
                    kernels=1,
                )
            if need == 0 or keep_idx.shape[0] == need:
                if keep_idx.shape[0] == need and need > 0:
                    accepted.append(keep_idx)
                    need = 0
                break

        if need > 0:
            remaining = indices[live][: need]
            accepted.append(remaining)
        return np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)


class FlagRadixTopK(_RadixBase):
    """Dr. Top-k's flag-based in-place radix top-k (Section 5.1).

    On the GPU a single ``(flag, mask)`` pair tracks the radix prefix of
    interest: every pass streams the input once, keeps the elements with
    ``(key & mask) == flag`` as candidates and extends the prefix by the digit
    holding the k-th key — no stores, no scattered writes — and a final pass
    extracts the top-k.

    The host kernel skips the digit walk.  One ``np.partition`` yields the
    k-th key ``kth`` and ``below``, the largest key left outside the top-k.
    The prefix holds more candidates than slots left to fill exactly while
    ``below`` shares ``kth``'s prefix, so pass ``p`` runs while ``below``
    matches ``kth`` on the digits fixed before it; the first pass that fails
    still records its scan.  The selection is every key above ``kth`` plus
    the highest-position ties at ``kth`` — the digit walk's set and tie rule —
    and the modelled ``radix_flag_scan``/``radix_flag_extract`` traffic is
    that of the digit-pass kernel.
    """

    name = "radix_flag"
    distribution_stable = False
    # Keys above the k-th key are emitted in position order and ties at it
    # fill from the highest position down, so selections at larger k extend
    # smaller-k selections exactly.
    prefix_consistent = True

    def _select(
        self, keys: np.ndarray, k: int, trace: Optional[ExecutionTrace]
    ) -> np.ndarray:
        n = keys.shape[0]
        part = np.partition(keys, n - k)
        kth = part[n - k]
        # The largest key outside the top-k (none when k == n).
        below = int(part[: n - k].max()) if k < n else None

        self.last_iterations = 0
        # Lower bound of the prefix fixed so far (empty before the first pass).
        prefix_floor = 0
        for shift in self._shifts(keys):
            if trace is not None:
                trace.add("radix_flag_scan", loads=float(n), kernels=1)
            # The prefix holds more candidates than the slots left to fill
            # exactly while a key outside the top-k still matches it.
            if below is None or below < prefix_floor:
                break
            self.last_iterations += 1
            prefix_floor = (int(kth) >> shift) << shift

        # Every key >= kth, in position order; surplus ties at kth give way
        # from the lowest position up.
        selected = np.flatnonzero(keys >= kth)
        surplus = selected.shape[0] - k
        if surplus:
            ties = np.flatnonzero(keys[selected] == kth)
            selected = np.delete(selected, ties[:surplus])
        if trace is not None:
            trace.add("radix_flag_extract", loads=float(n), stores=float(k), kernels=1)
        return selected
