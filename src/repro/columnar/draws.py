"""Pre-drawn random blocks for the columnar replay hot path.

The scalar simulator draws from its per-function named streams one value at
a time (``Generator.random()``, ``.lognormal()``, ``.exponential()``).  For
four of the five streams — *gateway*, *network*, *reliability* and
*spurious* — every draw comes from a **single distribution with constant
parameters**, so the whole stream can be pre-drawn in vectorized blocks:
one ``Generator.random(n)`` call consumes the underlying bit stream exactly
like ``n`` scalar ``random()`` calls and yields the identical float
sequence (the same property :class:`repro.stats.streaming.MergeableReservoir`
already exploits for its tag blocks, and which
``tests/test_columnar_draws.py`` proves property-based).

The fifth stream — *compute* — interleaves lognormal, uniform, exponential
and normal draws data-dependently (jitter, storage contention, cold-start
erratic delays, memory noise), so batching it would permute bit-stream
consumption.  It stays scalar; the columnar engine merely inlines the
arithmetic around it.

Each block object *wraps* the live generator of a function's runtime state
and replaces it in place (``state.gateway_stream``, ``state.network._rng``,
…).  Scalar code paths that still draw from the stream (the controlled
overload/fault replay loop, direct ``platform.invoke`` calls) hit the
shim methods (`random`, and the parameter-checked `exponential`) and
receive exactly the values the raw generator would have produced — which is
how the blocks compose with the overload/fault/resilience stack without a
second code path.

Batch-boundary rule: a block pre-draws values in batches, so after a
replay the *underlying* generator sits at the next batch boundary rather
than at the last consumed value.  Consumers never observe this (they only
ever see the block), but it is why blocks are installed once per runtime
state and kept for the platform's lifetime: discarding a partially consumed
block would lose draws.  By the same rule the batch size is free: ``n``
scalar draws equal one vectorized draw of ``n`` values, so a block refills
``FIRST_BLOCK`` values first and doubles up to ``BLOCK`` — a function with a
dozen invocations no longer pre-draws 256 values per stream.

A block may wrap a :class:`~repro.utils.rng.LazyStream` instead of a live
generator; it resolves the handle on its first refill, so a stream that is
never drawn from is never derived.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import LazyStream

#: Values drawn by a block's first refill; each later refill doubles it.
FIRST_BLOCK = 16

#: Largest refill.  Large enough to amortize numpy call overhead across the
#: hot loop, small enough that the buffered tail after a replay stays
#: negligible.
BLOCK = 256


class _Block:
    """Shared buffer, cursor and doubling refill of the pre-drawn blocks."""

    __slots__ = ("_rng", "_values", "_i", "_size")

    def __init__(self, rng):
        self._rng = rng
        self._values: list[float] = []
        self._i = 0
        self._size = FIRST_BLOCK

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def refill(self) -> list[float]:
        """Draw the next batch (16, 32, 64, 128, then 256 values) and rewind.

        The columnar loop inlines ``take`` and calls this only when its
        cursor reaches the end of the batch.
        """
        rng = self._rng
        if type(rng) is LazyStream:
            rng = self._rng = rng.resolve()
        size = self._size
        if size < BLOCK:
            self._size = size * 2
        values = self._values = self._draw(rng, size).tolist()
        self._i = 0
        return values

    def take(self) -> float:
        """Next value; refills the block from the wrapped generator."""
        i = self._i
        values = self._values
        if i == len(values):
            values = self.refill()
            i = 0
        self._i = i + 1
        return values[i]


class UniformBlock(_Block):
    """Pre-drawn ``Generator.random()`` stream (reliability / spurious)."""

    __slots__ = ()

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def random(self) -> float:
        """Scalar-compatible shim for code that still calls ``.random()``."""
        return self.take()


class LognormalBlock(_Block):
    """Pre-drawn ``Generator.lognormal(mean, sigma)`` stream (gateway).

    The gateway stream only ever draws with the platform's warm-jitter
    parameters, so they are fixed at construction; every reader consumes
    it through :meth:`take`.
    """

    __slots__ = ("_mean", "_sigma")

    def __init__(self, rng, mean: float, sigma: float):
        super().__init__(rng)
        self._mean = mean
        self._sigma = sigma

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self._mean, self._sigma, size)


class ExponentialBlock(_Block):
    """Pre-drawn ``Generator.exponential(scale)`` stream (network jitter).

    One block serves both the request and the response delay of every
    invocation — the scalar path draws them alternately from the same
    generator, and a single buffer preserves that interleaving exactly.
    """

    __slots__ = ("_scale",)

    def __init__(self, rng, scale: float):
        super().__init__(rng)
        self._scale = scale

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self._scale, size)

    def exponential(self, scale: float) -> float:
        """Scalar-compatible shim; the scale must match the block's."""
        if scale != self._scale:
            raise ConfigurationError(
                f"columnar exponential block drawn with scale {scale} != pinned {self._scale}"
            )
        return self.take()


def install_draw_blocks(state, platform) -> None:
    """Replace a runtime state's blockable streams with pre-drawn blocks.

    Called once from ``_new_runtime_state`` for every runtime state, so
    the columnar loop, the generator loop and direct invokes all read the
    same buffered sequence.  Wraps exactly the streams whose draw pattern
    is a single constant-parameter distribution:

    * ``gateway_stream`` — one warm-jitter lognormal per executed invocation;
    * ``network._rng`` — two exponentials (request, response) per invocation;
    * ``reliability._rng`` — conditional uniforms (sporadic OOM, availability);
    * ``spurious_stream`` — one uniform per admission (GCP only; streams
      with zero spurious probability never draw, are left untouched and
      so are never derived).

    The compute stream is deliberately *not* wrapped (see module docstring).
    """
    sigma = float(platform.performance.invocation.warm_jitter_cv)
    state.gateway_stream = LognormalBlock(state.gateway_stream, -(sigma**2) / 2.0, sigma)
    jitter_scale = state.network.profile.jitter_scale_s
    if jitter_scale > 0:
        state.network._rng = ExponentialBlock(state.network._rng, jitter_scale)
    if platform.simulation.enable_failures:
        state.reliability._rng = UniformBlock(state.reliability._rng)
    if platform._spurious_probability > 0.0:
        state.spurious_stream = UniformBlock(state.spurious_stream)
