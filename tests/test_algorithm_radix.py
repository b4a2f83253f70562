"""Behavioural tests specific to the radix top-k variants."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms.base import ExecutionTrace
from repro.algorithms.radix import FlagRadixTopK, InPlaceRadixTopK, RadixTopK, _RadixBase
from repro.errors import ConfigurationError
from tests.helpers import assert_topk_correct


class TestConstruction:
    def test_bad_bits_per_pass(self):
        with pytest.raises(ConfigurationError):
            RadixTopK(bits_per_pass=0)
        with pytest.raises(ConfigurationError):
            RadixTopK(bits_per_pass=20)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 11, 16])
    def test_any_bits_per_pass_is_correct(self, bits, rng):
        v = rng.integers(0, 2**32, size=4096, dtype=np.uint32)
        result = RadixTopK(bits_per_pass=bits).topk(v, 77)
        assert_topk_correct(result, v, 77)


class TestVariantEquivalence:
    @pytest.mark.parametrize("k", [1, 32, 500])
    def test_all_variants_agree_on_values(self, rng, k):
        v = rng.integers(0, 2**20, size=8192, dtype=np.uint32)  # narrow range -> ties
        results = [
            np.sort(cls().topk(v, k).values)
            for cls in (RadixTopK, InPlaceRadixTopK, FlagRadixTopK)
        ]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_flag_variant_handles_single_pass_exit(self, rng):
        # All elements equal: the prefix never narrows and the extraction path
        # must still return exactly k elements.
        v = np.full(2048, 123456, dtype=np.uint32)
        result = FlagRadixTopK().topk(v, 10)
        assert_topk_correct(result, v, 10)


class TestTrafficModel:
    def test_flag_scans_do_not_store(self, uniform_u32):
        trace = ExecutionTrace()
        FlagRadixTopK().topk(uniform_u32, 128, trace=trace)
        scan_steps = [s for s in trace.steps if s.name == "radix_flag_scan"]
        assert scan_steps, "flag radix must record scan steps"
        assert all(s.counters.global_stores == 0 for s in scan_steps)

    def test_inplace_charges_scattered_stores(self, uniform_u32):
        trace = ExecutionTrace()
        InPlaceRadixTopK().topk(uniform_u32, 128, trace=trace)
        zero_steps = [s for s in trace.steps if s.name == "radix_inplace_zero"]
        assert zero_steps
        assert all(s.counters.utilization < 1.0 for s in zero_steps)
        total_zeroed = sum(s.counters.global_stores for s in zero_steps)
        # Nearly the whole vector is eventually zeroed out.
        assert total_zeroed > uniform_u32.shape[0] * 0.5

    def test_flag_is_faster_than_inplace_in_simulated_time(self, rng):
        """The Figure 12 effect: the flag optimisation wins by a clear margin.

        The advantage comes from removing the scattered zeroing stores, so it
        shows once the input is large enough for traffic (rather than kernel
        launch overhead) to dominate — the paper uses |V| = 2^21.
        """
        v = rng.integers(0, 2**32, size=1 << 19, dtype=np.uint32)
        t_flag = ExecutionTrace()
        FlagRadixTopK().topk(v, 256, trace=t_flag)
        t_inplace = ExecutionTrace()
        InPlaceRadixTopK().topk(v, 256, trace=t_inplace)
        assert t_inplace.total_time_ms() > 2.0 * t_flag.total_time_ms()

    def test_outofplace_loads_shrink_across_passes(self, uniform_u32):
        trace = ExecutionTrace()
        RadixTopK().topk(uniform_u32, 64, trace=trace)
        loads = [s.counters.global_loads for s in trace.steps if s.name == "radix_topk"]
        assert loads == sorted(loads, reverse=True)

    def test_iteration_counter_exposed(self, uniform_u32):
        algo = RadixTopK()
        algo.topk(uniform_u32, 64)
        assert 1 <= algo.last_iterations <= 4


class DigitPassFlagRadix(_RadixBase):
    """Reference oracle: the flag radix kernel as an explicit digit-pass loop.

    Every pass masks the candidates matching the ``(flag, mask)`` prefix,
    histograms their next digit and extends the prefix by the digit holding
    the k-th key; a final pass extracts the keys above the prefix plus the
    highest ``need`` keys inside it, falling back to a full stable sort when
    that extraction comes up short.  :class:`FlagRadixTopK` must match it on
    indices, pass count and every modelled trace step.
    """

    name = "radix_flag_reference"

    def _select(
        self, keys: np.ndarray, k: int, trace: Optional[ExecutionTrace]
    ) -> np.ndarray:
        n = keys.shape[0]
        need_type = np.uint64  # wide enough for any supported key dtype
        flag = need_type(0)
        mask = need_type(0)
        self.last_iterations = 0
        mask_digit = (1 << self.bits_per_pass) - 1
        keys64 = keys.astype(need_type, copy=False)

        # The number of elements still needed from inside the current prefix.
        need = k
        for shift in self._shifts(keys):
            candidate_mask = (keys64 & mask) == flag
            cand = keys64[candidate_mask]
            m = cand.shape[0]
            if trace is not None:
                trace.add("radix_flag_scan", loads=float(n), kernels=1)
            if m <= need:
                break
            self.last_iterations += 1
            digits = ((cand >> need_type(shift)) & need_type(mask_digit)).astype(np.int64)
            digit, count_above = self._digit_of_interest(digits, need)
            need -= count_above
            # Extend the prefix of interest by this pass's digit.
            mask = mask | (need_type(mask_digit) << need_type(shift))
            flag = flag | (need_type(digit) << need_type(shift))
            if need == 0:
                break

        # Final extraction pass: elements above the prefix's upper bound were
        # accepted "by value" during the digit passes; elements matching the
        # prefix fill the remaining `need` slots.
        threshold_mask = (keys64 & mask) == flag
        prefix_candidates = np.nonzero(threshold_mask)[0]
        if need > 0:
            order = np.argsort(keys64[prefix_candidates], kind="stable")
            inside = prefix_candidates[order[-need:]]
        else:
            inside = np.empty(0, dtype=np.int64)
        if int(mask):
            above_prefix = np.nonzero(keys64 > _prefix_upper_bound(flag, mask))[0]
        else:
            above_prefix = np.empty(0, dtype=np.int64)
        if trace is not None:
            trace.add("radix_flag_extract", loads=float(n), stores=float(k), kernels=1)
        result = np.concatenate([above_prefix, inside])
        if result.shape[0] != k:
            # Defensive fallback; should not happen but guarantees correctness.
            order_all = np.argsort(keys64, kind="stable")
            result = order_all[-k:]
        return result.astype(np.int64)


def _prefix_upper_bound(flag: np.uint64, mask: np.uint64) -> np.uint64:
    """Largest key value inside the prefix ``(flag, mask)``.

    Keys strictly greater than this bound were accepted "by value" in earlier
    passes (their digit exceeded the digit of interest).
    """
    full = np.uint64(np.iinfo(np.uint64).max)
    return np.uint64(flag | (~mask & full))


DIFF_DTYPES = [
    np.uint8, np.uint16, np.uint32, np.uint64, np.int16, np.int64, np.float32, np.float64
]
DIFF_BITS = [1, 3, 5, 8, 11, 16]


def _assert_matches_reference(v: np.ndarray, k: int, bits: int, largest: bool) -> None:
    kernel = FlagRadixTopK(bits_per_pass=bits)
    reference = DigitPassFlagRadix(bits_per_pass=bits)
    got_trace, want_trace = ExecutionTrace(), ExecutionTrace()
    got = kernel.topk(v, k, largest=largest, trace=got_trace)
    want = reference.topk(v, k, largest=largest, trace=want_trace)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.values, want.values)
    assert kernel.last_iterations == reference.last_iterations
    assert [(s.name, s.counters, s.kernels) for s in got_trace.steps] == [
        (s.name, s.counters, s.kernels) for s in want_trace.steps
    ]


@st.composite
def _radix_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(DIFF_DTYPES)))
    n = draw(st.integers(min_value=1, max_value=300))
    elements = hnp.from_dtype(dtype, allow_nan=False)
    if draw(st.booleans()):
        # Tie-heavy: every element comes from a pool of at most four values.
        pool = draw(hnp.arrays(dtype, st.integers(1, 4), elements=elements))
        picks = draw(hnp.arrays(np.int64, n, elements=st.integers(0, pool.shape[0] - 1)))
        v = pool[picks]
    else:
        v = draw(hnp.arrays(dtype, n, elements=elements))
    k = draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)))
    return v, k, draw(st.sampled_from(DIFF_BITS)), draw(st.booleans())


class TestFlagKernelMatchesDigitPassLoop:
    """The partition kernel is the digit-pass loop's answer and traffic, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(case=_radix_cases())
    def test_random_cases(self, case):
        _assert_matches_reference(*case)

    @pytest.mark.parametrize("dtype", DIFF_DTYPES)
    @pytest.mark.parametrize("bits", DIFF_BITS)
    def test_shared_prefixes(self, dtype, bits):
        # A narrow value range shares long radix prefixes, so several digit
        # passes run before the prefix isolates the k-th key.
        rng = np.random.default_rng(bits)
        v = rng.integers(0, 100, size=3000).astype(dtype)
        v[::7] = v[::7] * 3 + 1
        for k in (1, 17, 500, 2999, 3000):
            for largest in (True, False):
                _assert_matches_reference(v, k, bits, largest)
