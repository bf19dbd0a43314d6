"""Constant-memory streaming statistics for million-invocation replays.

The workload engine's streaming-aggregation mode cannot afford to keep every
sample (a million-invocation trace would otherwise materialise a million
latency floats per function just to report a median).  This module provides
the O(1)-per-sample building blocks:

* :class:`StreamingMoments` — Welford's online algorithm for count, mean,
  variance, min and max (numerically stable single pass);
* :class:`MergeableReservoir` — a *bottom-k tagged* uniform sample: every
  observation receives a deterministic pseudo-random priority tag and the
  reservoir keeps the ``k`` smallest tags, so the union of two reservoirs
  is itself the reservoir of the concatenated streams — merge is exact,
  associative, commutative and independent of merge order;
* :class:`StreamingSummary` — the bundle the engine uses: moments plus a
  mergeable reservoir answering percentile queries, convertible to the same
  :class:`~repro.stats.summary.DistributionSummary` shape the exact path
  produces (confidence intervals are omitted — they require the full
  sample).

Everything except the reservoirs is closed-form deterministic; the
reservoirs use their own seeded generators so they never perturb the
simulation's random streams.

**Mergeability** (sharded parallel replay, :mod:`repro.parallel`): moments
merge with the Chan et al. parallel-variance update — ``count`` / ``min`` /
``max`` combine exactly and associatively, ``mean`` / ``variance`` up to
float associativity.  :class:`StreamingSummary` answers percentiles from a
:class:`MergeableReservoir`: reservoir union is exact, associative and
commutative, so merged summaries are deterministic under any merge order.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import derive_generator
from .summary import DEFAULT_PERCENTILES, DistributionSummary

#: Samples kept by the mergeable reservoir a StreamingSummary feeds; merged
#: percentile estimates are exact below this count, sampled above it.
DEFAULT_RESERVOIR_CAPACITY = 1024


class StreamingMoments:
    """Welford single-pass count / mean / variance / min / max."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def add_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations, bit-identical to ``add`` per element.

        This is *not* a two-pass vectorized moment update: the columnar
        replay path requires byte-identical state against the scalar path,
        so the Welford recurrence is applied element by element in stream
        order — only the attribute traffic is hoisted out of the loop.
        """
        count = self.count
        mean = self.mean
        m2 = self._m2
        minimum = self.minimum
        maximum = self.maximum
        for x in values:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if x < minimum:
                minimum = x
            if x > maximum:
                maximum = x
        self.count = count
        self.mean = mean
        self._m2 = m2
        self.minimum = minimum
        self.maximum = maximum

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def merge(self, other: "StreamingMoments") -> None:
        """Fold ``other`` into this accumulator (Chan et al. parallel update).

        ``count``, ``minimum`` and ``maximum`` combine exactly (integer sum,
        float min/max — associative and commutative); ``mean`` and the second
        moment combine up to float associativity, the same rounding class as
        summing the stream in a different order.  An empty side is a strict
        no-op on the other, so ``merge`` has an identity element.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * (other.count / total)
        self._m2 += other._m2 + delta * delta * (self.count * other.count / total)
        self.count = total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum


class MergeableReservoir:
    """A fixed-size uniform sample whose union is exact (bottom-k tagging).

    Every observation is assigned a pseudo-random *priority tag* drawn from
    a generator seeded by ``(seed, key)``; the reservoir keeps the ``k``
    observations with the smallest tags.  Because membership depends only on
    an observation's own tag — never on arrival order or on which reservoir
    ingested it — the union of any number of reservoirs over disjoint
    streams is *identical* to the reservoir of the concatenated stream:

    * ``merge`` is associative and commutative (bit-identical results for
      any merge tree over the same shards — "permutation-stable");
    * each reservoir stays a uniform sample of everything it has seen
      (iid tags ⇒ the bottom-k is a uniform k-subset).

    Ties between tags are broken by ``(key, ingestion index)``, so the
    result is total-ordered and deterministic even in the astronomically
    unlikely event of equal float tags across shards.  ``key`` should be
    unique per ingesting stream (e.g. the function name) — two reservoirs
    sharing a key draw identical tag sequences, which would bias a merge.

    **Deferred tags.**  While ``seen <= capacity`` every observation is
    kept whatever its tag, so the reservoir holds plain values in ingestion
    order and derives no generator at all.  Tags are drawn only when they
    first matter — the reservoir overflows, takes part in a merge (either
    side) or is asked for :meth:`entries` — and then the pending values are
    tagged in ingestion order through the ordinary ingest path.  The heap,
    the ingestion indices, the tag block and the generator position
    therefore end up exactly as if every value had been tagged on arrival.
    Percentiles read the pending values directly: ``np.percentile`` does not
    depend on input order.
    """

    __slots__ = (
        "capacity", "key", "seed", "seen", "_pending", "_heap", "_rng", "_index", "_tags", "_tag_i",
    )

    #: Tags are drawn from the generator in blocks of this size: one
    #: vectorized ``Generator.random(n)`` call yields the *identical*
    #: float sequence as ``n`` scalar ``random()`` calls, so pre-drawing
    #: changes nothing observable — it only amortizes the per-draw cost
    #: on hot ingest paths (the attached-observer budget of
    #: ``benchmarks/bench_observability.py``).
    _TAG_BLOCK = 64

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, key: str = "", seed: int = 0):
        if capacity <= 0:
            raise ConfigurationError("reservoir capacity must be positive")
        self.capacity = capacity
        self.key = key
        self.seed = int(seed)
        self.seen = 0
        #: Untagged values in ingestion order; ``None`` once tagged.
        self._pending: list[float] | None = []
        #: Max-heap of (-tag, key, index, value): the root is the *largest*
        #: kept tag, evicted first when a smaller tag arrives.
        self._heap: list[tuple[float, str, int, float]] = []
        #: Tag generator, derived on the first tag draw.
        self._rng = None
        self._index = 0
        self._tags = None
        self._tag_i = 0

    def _draw_tags(self) -> list[float]:
        """The next block of tags (derives the generator on first use)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = derive_generator(self.seed, "mergeable-reservoir", self.key)
        self._tags = rng.random(self._TAG_BLOCK).tolist()
        return self._tags

    def _tag_pending(self) -> None:
        """Leave the untagged state: tag the pending values as ingest would have."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        self.seen -= len(pending)
        self._ingest(pending)

    def add(self, x: float) -> None:
        pending = self._pending
        if pending is not None:
            if len(pending) < self.capacity:
                pending.append(float(x))
                self.seen += 1
                return
            self._tag_pending()
        i = self._tag_i
        tags = self._tags
        if tags is None or i == len(tags):
            tags = self._draw_tags()
            i = 0
        tag = tags[i]
        self._tag_i = i + 1
        index = self._index
        self._index += 1
        self.seen += 1
        heap = self._heap
        if len(heap) >= self.capacity:
            root = heap[0]
            neg = -tag
            if neg < root[0]:
                # Larger tag than the largest kept one: rejected without
                # even building the entry tuple — after ``capacity``
                # ingests this is the overwhelmingly common case.
                return
            entry = (neg, self.key, index, float(x))
            if entry > root:
                # Smaller tag than the largest kept one (heap stores -tag,
                # so "greater entry" means "smaller tag" with deterministic
                # (key, index) tie-break).
                heapq.heapreplace(heap, entry)
            return
        heapq.heappush(heap, (-tag, self.key, index, float(x)))

    def add_many(self, values: Sequence[float]) -> None:
        """Ingest a batch, byte-identical to calling ``add`` per element."""
        pending = self._pending
        if pending is not None:
            if len(pending) + len(values) <= self.capacity:
                pending.extend([float(x) for x in values])
                self.seen += len(values)
                return
            self._tag_pending()
        self._ingest(values)

    def _ingest(self, values: Sequence[float]) -> None:
        """Tagged batch ingest.

        The tag-block refill, heap admission test and tie-break tuples are
        replicated op-for-op from ``add``; only per-element attribute
        loads/stores are hoisted, so the reservoir state (heap contents,
        generator position, block cursor) matches the scalar ingest exactly.
        """
        i = self._tag_i
        tags = self._tags
        index = self._index
        key = self.key
        capacity = self.capacity
        heap = self._heap
        heapreplace = heapq.heapreplace
        heappush = heapq.heappush
        for x in values:
            if tags is None or i == len(tags):
                tags = self._draw_tags()
                i = 0
            tag = tags[i]
            i += 1
            this_index = index
            index += 1
            if len(heap) >= capacity:
                root = heap[0]
                neg = -tag
                if neg < root[0]:
                    continue
                entry = (neg, key, this_index, float(x))
                if entry > root:
                    heapreplace(heap, entry)
                continue
            heappush(heap, (-tag, key, this_index, float(x)))
        self._tag_i = i
        self._index = index
        self.seen += len(values)

    def merge(self, other: "MergeableReservoir") -> None:
        """Union with ``other``: keep the ``capacity`` smallest tags overall."""
        if other is self:
            raise ConfigurationError("cannot merge a reservoir with itself")
        if not other.seen:
            return
        self._tag_pending()
        other._tag_pending()
        self.seen += other.seen
        capacity = self.capacity
        for entry in other._heap:
            if len(self._heap) < capacity:
                heapq.heappush(self._heap, entry)
            elif entry > self._heap[0]:
                heapq.heapreplace(self._heap, entry)

    def entries(self) -> list[tuple[float, str, int, float]]:
        """Kept (tag, key, index, value) tuples in canonical (tag-sorted) order."""
        self._tag_pending()
        return sorted((-neg_tag, key, index, value) for neg_tag, key, index, value in self._heap)

    def values(self) -> list[float]:
        """Kept sample values, in canonical tag order."""
        return [value for _, _, _, value in self.entries()]

    def kept(self) -> int:
        """Number of values currently kept (``min(seen, capacity)``)."""
        pending = self._pending
        return len(pending) if pending is not None else len(self._heap)

    def _sample(self) -> list[float]:
        """Kept values in no particular order (percentiles are order-free)."""
        pending = self._pending
        if pending is not None:
            return pending
        return [entry[3] for entry in self._heap]

    def percentile(self, which: float) -> float:
        """Percentile estimate from the kept sample (exact while seen <= capacity)."""
        if not self.kept():
            raise ConfigurationError("no samples to estimate a percentile from")
        return float(np.percentile(self._sample(), which))

    def percentiles(self, which: Sequence[float]) -> list[float]:
        """Batched :meth:`percentile`: one vectorized query for all of ``which``.

        ``np.percentile`` with a vector of percentiles selects and
        interpolates element-wise exactly as the scalar calls would, so each
        returned value is bit-identical to ``self.percentile(q)`` — at one
        numpy dispatch instead of ``len(which)``.
        """
        if not self.kept():
            raise ConfigurationError("no samples to estimate a percentile from")
        return [float(v) for v in np.percentile(self._sample(), list(which))]


class StreamingSummary:
    """Single-pass replacement for :func:`repro.stats.summary.summarize`.

    Tracks Welford moments plus a :class:`MergeableReservoir` that answers
    percentile queries; :meth:`to_summary` emits a
    :class:`~repro.stats.summary.DistributionSummary` with the same shape as
    the exact path (minus confidence intervals, which need the full sample).

    Percentiles are **exact** while the stream fits the reservoir
    (``reservoir_capacity`` samples) and uniform-subsample estimates above
    that — rank error ~``sqrt(p(1-p)/capacity)``, under 1% at the default
    capacity.  Unlike marker-based estimators (P², whose five markers
    initialise from the first five observations and recover slowly when
    those are tail outliers — exactly what a trace replay's leading
    cold-start burst produces), the reservoir has no warm-up pathology, and
    it makes the summary *mergeable*: see :meth:`merge`.

    ``key`` names the stream this summary ingests (e.g. the function name).
    It seeds the reservoir's tag generator, so summaries of *different*
    streams merge without tag-stream collisions.  Two summaries ingesting
    parts of the *same* stream must use distinct keys (``fname@shard3``).
    """

    __slots__ = ("moments", "_percentiles", "_reservoir")

    def __init__(
        self,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
        key: str = "",
        seed: int = 0,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    ):
        self.moments = StreamingMoments()
        self._percentiles = _tracked(percentiles)
        self._reservoir = MergeableReservoir(reservoir_capacity, key=key, seed=seed)

    @property
    def count(self) -> int:
        return self.moments.count

    def add(self, x: float) -> None:
        self.moments.add(x)
        self._reservoir.add(x)

    def add_many(self, values: Sequence[float]) -> None:
        """Batch ingest, byte-identical to ``add`` per element.

        Moments and reservoir share no state, so folding the whole batch
        into each component in turn produces exactly the state of
        interleaved scalar ``add`` calls.
        """
        self.moments.add_many(values)
        self._reservoir.add_many(values)

    def percentile(self, which: float) -> float:
        return self._reservoir.percentile(float(which))

    def merge(self, other: "StreamingSummary") -> None:
        """Fold ``other`` into this summary.

        Counts, min and max merge exactly; mean/variance up to float
        associativity; percentiles via the reservoir union, which is
        *permutation-stable* — any merge order over the same shards yields
        bit-identical state.  Merging summaries over disjoint shards of a
        stream is equivalent to having ingested the concatenated stream
        (exactly, for the reservoir; up to float associativity, for the
        moments).
        """
        if other is self:
            raise ConfigurationError("cannot merge a summary with itself")
        self.moments.merge(other.moments)
        self._reservoir.merge(other._reservoir)
        merged = dict.fromkeys(self._percentiles)
        merged.update(dict.fromkeys(other._percentiles))
        self._percentiles = tuple(merged)

    def to_summary(self) -> DistributionSummary:
        if self.moments.count == 0:
            raise ConfigurationError("cannot summarize an empty sample set")
        # One batched reservoir query covers the median too: __init__ and
        # merge() both guarantee 50.0 is among the tracked percentiles.
        wanted = self._percentiles
        return _distribution(self.moments, dict(zip(wanted, self._reservoir.percentiles(wanted))))


def _tracked(percentiles: Sequence[float]) -> tuple[float, ...]:
    """The percentiles a summary reports: ``percentiles`` plus the median."""
    wanted = dict.fromkeys(float(p) for p in percentiles)
    wanted.setdefault(50.0)  # the median is always reported
    return tuple(wanted)


#: What a default :class:`StreamingSummary` reports.
_DEFAULT_TRACKED = _tracked(DEFAULT_PERCENTILES)


def _distribution(moments: StreamingMoments, estimates: dict[float, float]) -> DistributionSummary:
    return DistributionSummary(
        count=moments.count,
        mean=moments.mean,
        std=moments.std,
        minimum=moments.minimum,
        maximum=moments.maximum,
        median=estimates[50.0],
        percentiles=estimates,
        confidence_intervals={},
    )


#: Values (rows x kept samples) per batched percentile call of
#: :func:`summarize_many`: bounds the matrix it builds, however many
#: summaries are asked for at once.
_BATCH_CELLS = 1 << 16


def summarize_many(
    summaries: Sequence[StreamingSummary | list[float]],
) -> list[DistributionSummary]:
    """:meth:`StreamingSummary.to_summary` of many summaries, bit-identical.

    A plain list of values stands for a default ``StreamingSummary`` that
    ingested exactly those values in list order and has not overflowed its
    reservoir (the row form of the replay accumulator): its moments come
    from :meth:`StreamingMoments.add_many` over the list — the recurrence
    ``add`` would have run, in the same order — and its percentiles from
    the list itself, which is what the untagged reservoir would hold.

    Summaries are grouped by (kept sample count, tracked percentiles) and
    each group is answered by one ``np.percentile(matrix, q, axis=1)``
    call: every row is selected and interpolated exactly as the 1-D call
    on that row would be, at a fraction of a microsecond per row instead of
    one numpy dispatch per summary.  A group is cut into chunks of at most
    ``_BATCH_CELLS`` values, so the matrices stay small on
    million-function merges.
    """
    moments: list[StreamingMoments] = []
    samples: list[list[float]] = []
    groups: dict[tuple[int, tuple[float, ...]], list[int]] = {}
    for position, summary in enumerate(summaries):
        if type(summary) is list:
            row = StreamingMoments()
            row.add_many(summary)
            sample = summary
            wanted = _DEFAULT_TRACKED
        else:
            row = summary.moments
            sample = summary._reservoir._sample()
            wanted = summary._percentiles
        if row.count == 0:
            raise ConfigurationError("cannot summarize an empty sample set")
        moments.append(row)
        samples.append(sample)
        groups.setdefault((len(sample), wanted), []).append(position)
    estimates: list[dict[float, float] | None] = [None] * len(samples)
    for (size, wanted), positions in groups.items():
        which = list(wanted)
        rows = max(1, _BATCH_CELLS // size)
        for start in range(0, len(positions), rows):
            chunk = positions[start : start + rows]
            matrix = np.array([samples[p] for p in chunk], dtype=float)
            table = np.percentile(matrix, which, axis=1).T.tolist()
            for position, row in zip(chunk, table):
                estimates[position] = dict(zip(wanted, row))
    return [_distribution(row, estimate) for row, estimate in zip(moments, estimates)]
