"""Property suite for the vectorized draw primitives (repro.columnar.draws).

The columnar engine rests on one numpy fact: a single vectorized
``Generator`` call with constant parameters consumes the underlying bit
stream exactly like the same number of scalar calls and yields the
identical float sequence.  These tests prove that fact property-based for
each wrapped distribution, then prove the block wrappers preserve it —
across batch boundaries (partial tails, ``k`` beyond ``BLOCK``), under
interleaved scalar-shim fallbacks, and with loud rejection of mismatched
shim parameters (a silent parameter drift would desynchronize the scalar
and columnar paths).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BLOCK, ExponentialBlock, LognormalBlock, UniformBlock
from repro.columnar.draws import FIRST_BLOCK
from repro.exceptions import ConfigurationError

seeds = st.integers(min_value=0, max_value=2**63 - 1)
# Around one block, around two blocks, and small tails.
counts = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=BLOCK - 3, max_value=BLOCK + 3),
    st.integers(min_value=2 * BLOCK - 2, max_value=2 * BLOCK + 2),
)
means = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
sigmas = st.floats(min_value=0.01, max_value=1.5, allow_nan=False)
scales = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)


def _gen(seed):
    return np.random.default_rng(seed)


# ------------------------------------------- the underlying numpy property


class TestVectorizedEqualsScalarDraws:
    @given(seed=seeds, k=counts)
    @settings(deadline=None)
    def test_uniform(self, seed, k):
        batched = _gen(seed).random(k).tolist()
        scalar_rng = _gen(seed)
        assert batched == [scalar_rng.random() for _ in range(k)]

    @given(seed=seeds, k=counts, mean=means, sigma=sigmas)
    @settings(deadline=None)
    def test_lognormal(self, seed, k, mean, sigma):
        batched = _gen(seed).lognormal(mean, sigma, k).tolist()
        scalar_rng = _gen(seed)
        assert batched == [scalar_rng.lognormal(mean, sigma) for _ in range(k)]

    @given(seed=seeds, k=counts, scale=scales)
    @settings(deadline=None)
    def test_exponential(self, seed, k, scale):
        batched = _gen(seed).exponential(scale, k).tolist()
        scalar_rng = _gen(seed)
        assert batched == [scalar_rng.exponential(scale) for _ in range(k)]


# ------------------------------------------------------- block == scalar


class TestBlocksMatchScalarStreams:
    @given(seed=seeds, k=counts)
    @settings(deadline=None)
    def test_uniform_block(self, seed, k):
        block = UniformBlock(_gen(seed))
        scalar_rng = _gen(seed)
        for i in range(k):
            assert block.take() == scalar_rng.random(), f"index {i}"

    @given(seed=seeds, k=counts, mean=means, sigma=sigmas)
    @settings(deadline=None)
    def test_lognormal_block(self, seed, k, mean, sigma):
        block = LognormalBlock(_gen(seed), mean, sigma)
        scalar_rng = _gen(seed)
        for i in range(k):
            assert block.take() == scalar_rng.lognormal(mean, sigma), f"index {i}"

    @given(seed=seeds, k=counts, scale=scales)
    @settings(deadline=None)
    def test_exponential_block(self, seed, k, scale):
        block = ExponentialBlock(_gen(seed), scale)
        scalar_rng = _gen(seed)
        for i in range(k):
            assert block.take() == scalar_rng.exponential(scale), f"index {i}"

    def test_partial_batch_tail_positions(self):
        """Refills draw 16, 32, 64, 128, then BLOCK values at a time.

        After k takes the buffer holds the batch containing take k, the
        cursor sits just past it, and the wrapped generator sits exactly at
        the end of every batch drawn so far.
        """
        assert (FIRST_BLOCK, BLOCK) == (16, 256)
        sizes = [16, 32, 64, 128, 256, 256, 256]
        ends = list(itertools.accumulate(sizes))
        assert ends == [16, 48, 112, 240, 496, 752, 1008]
        reference = _gen(99).random(ends[-1] + 1).tolist()
        for k in (1, 15, 16, 17, 48, 49, 112, 113, 240, 241, 496, 497, 752, 753):
            block = UniformBlock(_gen(99))
            for _ in range(k):
                block.take()
            batch = next(j for j, end in enumerate(ends) if k <= end)
            assert len(block._values) == sizes[batch], f"k={k}"
            assert block._i == k - (ends[batch] - sizes[batch]), f"k={k}"
            assert block._rng.random() == reference[ends[batch]], f"k={k}"


# -------------------------------------------- interleaved scalar fallbacks


class TestInterleavedShims:
    """Scalar code paths hit the shim methods mid-replay (controlled
    overload/fault loops, direct invokes); interleaving them with ``take``
    must keep the one consumed stream in scalar order."""

    @given(seed=seeds, pattern=st.lists(st.booleans(), min_size=1, max_size=3 * BLOCK))
    @settings(deadline=None, max_examples=30)
    def test_uniform_interleaving(self, seed, pattern):
        block = UniformBlock(_gen(seed))
        scalar_rng = _gen(seed)
        for via_shim in pattern:
            value = block.random() if via_shim else block.take()
            assert value == scalar_rng.random()

    @given(seed=seeds, pattern=st.lists(st.booleans(), min_size=1, max_size=3 * BLOCK))
    @settings(deadline=None, max_examples=30)
    def test_exponential_interleaving(self, seed, pattern):
        block = ExponentialBlock(_gen(seed), 0.004)
        scalar_rng = _gen(seed)
        for via_shim in pattern:
            value = block.exponential(0.004) if via_shim else block.take()
            assert value == scalar_rng.exponential(0.004)


# ------------------------------------------------------- parameter guards


class TestShimParameterGuards:
    def test_exponential_rejects_mismatched_scale(self):
        block = ExponentialBlock(_gen(1), 0.004)
        with pytest.raises(ConfigurationError):
            block.exponential(0.005)
        scalar_rng = _gen(1)
        assert block.take() == scalar_rng.exponential(0.004)
