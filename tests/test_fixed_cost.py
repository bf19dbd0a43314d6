"""Per-function fixed-cost internals, each pinned against an eager reference.

Population replay pays a fixed cost per function; three internals cut it
without moving a single output bit, and each is checked here against the
eager behaviour it replaces (the references live in this file):

* **deferred reservoir tags** — a :class:`MergeableReservoir` holds plain
  values until its tags first matter; heap, indices, tag block, generator
  position and percentiles must match a reservoir that tags on arrival;
* **batched percentile summaries** — :func:`summarize_many` must equal one
  1-D ``np.percentile`` call per summary, in ``float.hex``;
* **lazy streams** — a population-shaped AWS replay derives no
  ``reliability``, ``spurious`` or ``mergeable-reservoir`` generator, and
  its result equals a replay that derives every stream at deployment.
"""

from __future__ import annotations

import heapq
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Provider, SimulationConfig
from repro.exceptions import ConfigurationError
from repro.population import PopulationSpec, replay_population
from repro.simulator.providers import create_platform
from repro.stats import streaming
from repro.stats.streaming import MergeableReservoir, StreamingSummary, summarize_many
from repro.utils.rng import RandomStreams, derive_generator


class _EagerReservoir:
    """Bottom-k reservoir that tags every value on arrival (the reference)."""

    def __init__(self, capacity: int, key: str, seed: int):
        self.capacity = capacity
        self.key = key
        self.seen = 0
        self.heap: list = []
        self.rng = derive_generator(seed, "mergeable-reservoir", key)
        self.index = 0
        self.tags = None
        self.tag_i = 0

    def add(self, x: float) -> None:
        if self.tags is None or self.tag_i == len(self.tags):
            self.tags = self.rng.random(MergeableReservoir._TAG_BLOCK).tolist()
            self.tag_i = 0
        tag = self.tags[self.tag_i]
        self.tag_i += 1
        entry = (-tag, self.key, self.index, float(x))
        self.index += 1
        self.seen += 1
        if len(self.heap) < self.capacity:
            heapq.heappush(self.heap, entry)
        elif entry > self.heap[0]:
            heapq.heapreplace(self.heap, entry)

    def merge(self, other: "_EagerReservoir") -> None:
        self.seen += other.seen
        for entry in other.heap:
            if len(self.heap) < self.capacity:
                heapq.heappush(self.heap, entry)
            elif entry > self.heap[0]:
                heapq.heapreplace(self.heap, entry)

    def entries(self) -> list:
        return sorted((-neg, key, index, value) for neg, key, index, value in self.heap)

    def percentiles(self, which) -> list[float]:
        return [float(v) for v in np.percentile([e[3] for e in self.heap], list(which))]


def _generator_state(reservoir: MergeableReservoir) -> dict:
    """Bit-generator state, deriving the (not yet drawn) generator if needed."""
    rng = reservoir._rng
    if rng is None:
        rng = derive_generator(reservoir.seed, "mergeable-reservoir", reservoir.key)
    return rng.bit_generator.state


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


# Values are non-negative so -0.0 never meets 0.0: which of the two a
# percentile returns depends on input order in numpy, deferred or not.
values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(lambda x: x + 0.0)
batches = st.lists(values, max_size=40)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), values),
        st.tuples(st.just("add_many"), batches),
        st.tuples(st.just("merge_in"), batches),
        st.tuples(st.just("merged_into"), batches),
        st.tuples(st.just("pickle"), st.none()),
    ),
    max_size=25,
)


class TestDeferredTags:
    @given(capacity=st.integers(min_value=1, max_value=64), ops=operations, tail=batches)
    @settings(max_examples=150, deadline=None)
    def test_matches_eager_tagging(self, capacity, ops, tail):
        deferred = MergeableReservoir(capacity, key="subject", seed=5)
        eager = _EagerReservoir(capacity, "subject", 5)
        for step, (op, arg) in enumerate(ops):
            if op == "add":
                deferred.add(arg)
                eager.add(arg)
            elif op == "add_many":
                deferred.add_many(arg)
                for x in arg:
                    eager.add(x)
            elif op in ("merge_in", "merged_into"):
                other = MergeableReservoir(capacity, key=f"other-{step}", seed=5)
                other_eager = _EagerReservoir(capacity, f"other-{step}", 5)
                other.add_many(arg)
                for x in arg:
                    other_eager.add(x)
                if op == "merge_in":
                    deferred.merge(other)
                    eager.merge(other_eager)
                else:
                    other.merge(deferred)
                    other_eager.merge(eager)
                    assert other.seen == other_eager.seen
                    assert other.entries() == other_eager.entries()
            else:
                deferred = pickle.loads(pickle.dumps(deferred))
            assert deferred.seen == eager.seen
            assert deferred.kept() == len(eager.heap)
            if deferred.seen:
                which = (50.0, 90.0, 99.0)
                assert _hex(deferred.percentiles(which)) == _hex(eager.percentiles(which))
        # Entries force the tags; afterwards every tagged field and the
        # generator position equal the eager reservoir's.
        assert deferred.entries() == eager.entries()
        assert sorted(deferred._heap) == sorted(eager.heap)
        assert deferred._index == eager.index
        assert deferred._tag_i == eager.tag_i
        assert deferred._tags == eager.tags
        assert _generator_state(deferred) == eager.rng.bit_generator.state
        # Later tag draws continue the same sequence.
        deferred.add_many(tail)
        for x in tail:
            eager.add(x)
        assert deferred.entries() == eager.entries()
        assert _generator_state(deferred) == eager.rng.bit_generator.state

    def test_small_reservoir_derives_no_generator(self):
        reservoir = MergeableReservoir(8, key="small", seed=1)
        reservoir.add_many([3.0, 1.0, 2.0])
        reservoir.add(4.0)
        assert reservoir.percentiles([50.0]) == [2.5]
        assert reservoir._rng is None
        restored = pickle.loads(pickle.dumps(reservoir))
        assert restored._rng is None and restored._pending == [3.0, 1.0, 2.0, 4.0]

    def test_overflow_and_entries_derive_tags(self):
        overflowing = MergeableReservoir(2, key="k", seed=1)
        overflowing.add_many([1.0, 2.0])
        assert overflowing._rng is None
        overflowing.add(3.0)
        assert overflowing._pending is None and overflowing._rng is not None
        queried = MergeableReservoir(4, key="k", seed=1)
        queried.add(1.0)
        queried.entries()
        assert queried._pending is None


# ------------------------------------------------ batched percentile summaries


def _single(summary: StreamingSummary) -> dict[float, str]:
    """Reference: one 1-D ``np.percentile`` call on the summary's own sample."""
    reservoir = summary._reservoir
    if reservoir._pending is not None:
        kept = list(reservoir._pending)
    else:
        kept = [entry[3] for entry in reservoir._heap]
    wanted = summary._percentiles
    return dict(zip(wanted, _hex(np.percentile(kept, list(wanted)))))


def _summary(key: str, xs, percentiles=(50.0, 95.0, 99.0), capacity=16) -> StreamingSummary:
    summary = StreamingSummary(percentiles, key=key, seed=3, reservoir_capacity=capacity)
    summary.add_many(xs)
    return summary


class TestBatchedSummaries:
    def test_batched_matches_single_calls(self, monkeypatch):
        rng = np.random.default_rng(11)
        summaries = []
        for index, size in enumerate([1, 1, 2, 5, 5, 5, 15, 16, 16, 40, 3, 7]):
            xs = rng.lognormal(0.0, 1.0, size).tolist()
            if index in (4, 8):
                xs[size // 2] = float("nan")
            percentiles = (50.0, 90.0) if index % 3 == 0 else (50.0, 95.0, 99.0)
            summaries.append(_summary(f"f{index}", xs, percentiles))
        # Tagged (overflowed) reservoirs sit in the same groups as untagged ones.
        assert summaries[9]._reservoir._pending is None
        assert summaries[7]._reservoir._pending is not None
        # Tiny chunks: every group is answered in several numpy calls.
        monkeypatch.setattr(streaming, "_BATCH_CELLS", 20)
        batched = summarize_many(summaries)
        for summary, result in zip(summaries, batched):
            reference = _single(summary)
            assert {q: float(v).hex() for q, v in result.percentiles.items()} == reference
            assert float(result.median).hex() == reference[50.0]
            assert result.count == summary.count
            assert repr(result) == repr(summary.to_summary())

    def test_empty_summary_is_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            summarize_many([_summary("a", [1.0]), StreamingSummary(key="b")])


# ------------------------------------------------------------- lazy streams

POPULATION = PopulationSpec(
    n_functions=150, duration_s=120.0, aggregate_rate_per_s=15.0, name="lazy-pop"
)


def _replay(monkeypatch, eager: bool):
    """Sharded sequential AWS population replay; collects every RandomStreams."""
    created: list[RandomStreams] = []
    original_init = RandomStreams.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(RandomStreams, "__init__", recording_init)
    if eager:
        # The reference: every per-function stream derived at deployment.
        monkeypatch.setattr(RandomStreams, "lazy", lambda self, *names: self.stream(*names))
    reservoir_keys: list[str] = []
    original_derive = streaming.derive_generator

    def recording_derive(seed, *names):
        reservoir_keys.append(names[-1])
        return original_derive(seed, *names)

    monkeypatch.setattr(streaming, "derive_generator", recording_derive)
    platform = create_platform(Provider.AWS, SimulationConfig(seed=4, log_retention=8))
    result = replay_population(
        platform, POPULATION, seed=4, workers=2, backend="sequential"
    ).result
    monkeypatch.undo()
    names = [name for streams in created for name in streams._streams]
    return result, names, reservoir_keys


def test_population_replay_derives_only_the_streams_it_draws(monkeypatch):
    result, names, reservoir_keys = _replay(monkeypatch, eager=False)
    assert result.invocations > 0
    assert any(name.startswith("compute/") for name in names)
    assert not [n for n in names if n.startswith(("reliability/", "spurious/"))]
    assert reservoir_keys == []
    reference, eager_names, _ = _replay(monkeypatch, eager=True)
    assert any(name.startswith("reliability/") for name in eager_names)
    assert repr(result.per_function()) == repr(reference.per_function())
    assert result.total_cost_usd.hex() == reference.total_cost_usd.hex()
    assert result.cold_start_count == reference.cold_start_count
