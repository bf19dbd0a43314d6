"""Per-member replay internals, each pinned against a reference kept here.

A population replay pays for every member it touches; three internals cut
that cost without moving an output bit:

* **compiled classes** — the models compile a function's constants once
  per *class* (benchmark, input size, language, memory, package size,
  timeout, storage and network profiles); the platform caches the
  :class:`~repro.simulator.platform_sim.FunctionClass` and the columnar
  loop copies it into each lane.  A lane built from a shared class must
  equal one built from a freshly compiled class slot by slot, and the
  compiled constants must equal an independent per-function derivation
  (``_reference_constants``);
* **storage bursts** — one ``size=k`` lognormal draw serves all ``k``
  transfers of an invocation; the sum must equal ``k`` scalar
  :meth:`~repro.storage.latency.StorageLatencyModel.transfer_time` calls
  in ``float.hex``;
* **row-form accumulators** — :class:`_ReplayAccumulator` keeps one row per
  function in columns; summaries and totals must equal the per-function
  object accumulator it replaced (``_FunctionAccumulator`` /
  ``_ObjectAccumulator``) through ``repr``, across adds, batch folds,
  merges of disjoint and overlapping shards, pickle round trips and
  promotion at exactly the reservoir capacity and one past it.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import InputSize
from repro.columnar.engine import _CLASS_SLOTS, _build_lane, _Lane
from repro.config import DYNAMIC_MEMORY, InvocationOutcome, Provider, SimulationConfig, StartType
from repro.experiments.base import deploy_benchmark
from repro.simulator.compute import ComputeModel, storage_burst_time
from repro.simulator.iaas import IaaSPlatform
from repro.simulator.platform_sim import _EMPTY_PAYLOAD_BYTES
from repro.simulator.providers import create_platform
from repro.stats.streaming import DEFAULT_RESERVOIR_CAPACITY, StreamingSummary
from repro.storage.latency import StorageLatencyModel, StorageProfile
from repro.workload import PoissonArrivals, WorkloadTrace
from repro.workload import engine as engine_module
from repro.workload.engine import FunctionWorkloadSummary, _ReplayAccumulator

from generator_loop import generator_run

CAPACITY = DEFAULT_RESERVOIR_CAPACITY


# ---------------------------------------------------------- compiled classes
def _reference_constants(platform, fname: str) -> dict:
    """A lane's class constants derived per function, without ``compile()``."""
    function = platform.get_function(fname)
    state = platform._runtime_state(fname)
    profile = platform.registry.get(function.benchmark).profile(
        size=state.input_size, language=state.language
    )
    memory_mb = function.config.memory_mb
    performance = platform.performance
    compute = state.compute
    c = {
        "memory_mb": memory_mb,
        "profile": profile,
        "package_mb": function.package.size_mb,
        "timeout_s": function.config.timeout_s,
        "peak_memory_mb": profile.peak_memory_mb,
    }
    share = compute.cpu_share(memory_mb)
    c["compute_base"] = profile.warm_compute_s * performance.compute_speed_factor / share

    def jitter(cv):
        if cv <= 0:
            return None
        sigma = float(np.sqrt(np.log(1.0 + cv**2)))
        return (-(sigma**2) / 2.0, sigma)

    c["jit_solo"] = jitter(performance.compute_jitter_cv)
    c["jit_conc"] = jitter(performance.compute_jitter_cv * performance.concurrency_jitter_factor)
    storage = compute.storage_model.profile
    bandwidth = compute.storage_model.bandwidth_mbps(compute.effective_memory(memory_mb)) * 1024 * 1024
    c["contention_p"] = storage.contention_tail_probability
    c["contention_slowdown"] = storage.contention_slowdown
    bases = ()
    if profile.storage_read_bytes > 0 or profile.storage_read_requests > 0:
        requests = max(1, profile.storage_read_requests)
        base = storage.base_latency_s + (profile.storage_read_bytes // requests) / bandwidth
        bases += (base,) * requests
    if profile.storage_write_bytes > 0 or profile.storage_write_requests > 0:
        requests = max(1, profile.storage_write_requests)
        base = storage.base_latency_s + (profile.storage_write_bytes // requests) / bandwidth
        bases += (base,) * requests
    c["storage_bases"] = bases
    c["storage_jitter"] = jitter(storage.jitter_cv)
    # Reliability (Section 6.2 Q3): GCP kills above the allocation and
    # sporadically within 10% of the peak; AWS/Azure only above 1.5x; GCP and
    # Azure fail bursts of >= 10 (GCP high-memory bursts of >= 50: 60%).
    provider = platform.provider
    c["oom_limit_mb"], c["sporadic_oom_p"], c["burst_p"] = math.inf, 0.0, None
    if platform.simulation.enable_failures:
        if memory_mb == DYNAMIC_MEMORY:
            pass
        elif provider is Provider.GCP:
            c["oom_limit_mb"] = float(memory_mb)
            c["sporadic_oom_p"] = 0.05 if memory_mb < profile.peak_memory_mb * 1.10 else 0.0
        else:
            c["oom_limit_mb"] = memory_mb * 1.5
        if provider is Provider.GCP:
            c["burst_p"] = (0.01, 0.6 if memory_mb >= 4096 else 0.01)
        elif provider is Provider.AZURE:
            c["burst_p"] = (0.02, 0.02)
    invocation = platform.performance.invocation
    c["http_base"] = invocation.http_gateway_s
    c["sdk_base"] = invocation.sdk_overhead_s
    c["payload_denom"] = invocation.payload_bandwidth_mbps * 1024 * 1024
    c["empty_upload"] = _EMPTY_PAYLOAD_BYTES / c["payload_denom"]
    c["response_denom"] = invocation.response_bandwidth_mbps * 1024 * 1024
    c["response_download_s"] = profile.output_bytes / c["response_denom"]
    c["req_base"] = state.network._request_base
    c["resp_base"] = state.network._response_base
    c["sp_p"] = platform._spurious_probability
    billing = platform.billing
    c["is_vm"] = billing.vm_hourly_price > 0
    c["vm_price"] = billing.vm_hourly_price
    c["min_billed"] = billing.minimum_billed_duration_s
    c["granularity"] = billing.duration_granularity_s
    c["gb_price"] = billing.gb_second_price
    c["bills_avg"] = billing.bills_average_memory or memory_mb == DYNAMIC_MEMORY
    c["mem_gb_const"] = float(memory_mb) / 1024.0
    c["mem_gran"] = float(billing.memory_granularity_mb)
    c["mem_overhead"] = billing.billed_memory_overhead_mb
    requests = profile.storage_read_requests + profile.storage_write_requests
    c["statics"] = {
        (via_http, success): (
            (0.0, 0.0, 0.0)
            if c["is_vm"]
            else billing._static_cost_components(
                profile.output_bytes if success else 0, requests, via_http
            )
        )
        for via_http in (False, True)
        for success in (False, True)
    }
    return c


#: (function name, memory MB, input size): a, b and c share one class;
#: d differs in memory, e in input size.
_MEMBERS = (
    ("a", 512, InputSize.SMALL),
    ("b", 512, InputSize.SMALL),
    ("c", 512, InputSize.SMALL),
    ("d", 1024, InputSize.SMALL),
    ("e", 512, InputSize.LARGE),
)

#: Lane slots the function's class fixes: the compiled parts, and the
#: class fields and platform constants ``_build_lane`` sets besides.
_CLASS_LANE_SLOTS = set(_CLASS_SLOTS) | {
    "memory_mb", "profile", "package_mb", "timeout_s", "peak_memory_mb", "sp_p",
}


def _members_platform(provider: Provider, use_cloud_storage: bool = False):
    if provider is Provider.IAAS:
        platform = IaaSPlatform(SimulationConfig(seed=11), use_cloud_storage=use_cloud_storage)
    else:
        platform = create_platform(provider, SimulationConfig(seed=11))
    for name, memory, size in _MEMBERS:
        if provider is Provider.AZURE:
            memory = DYNAMIC_MEMORY  # Azure allocates memory dynamically
        elif provider is Provider.IAAS:
            memory = 1024  # the VM has exactly 1 GB
        deploy_benchmark(platform, "compression", memory, input_size=size, function_name=name)
    return platform


def _slot_values(lane: _Lane) -> dict:
    return {name: getattr(lane, name) for name in _Lane.__slots__}


def _compiled_constants(klass) -> dict:
    """The fields of a compiled class, flattened like a lane's slots."""
    c = {
        name: value
        for part in (klass.compute, klass.reliability, klass.billing, klass.overhead)
        for name, value in zip(part._fields, part)
    }
    c.update(memory_mb=klass.memory_mb, profile=klass.profile, package_mb=klass.package_mb)
    c.update(timeout_s=klass.timeout_s, peak_memory_mb=klass.profile.peak_memory_mb)
    return c


class TestLaneTemplates:
    def test_one_class_shares_one_template(self):
        platform = _members_platform(Provider.AWS)
        lanes = {name: _build_lane(platform, name) for name, _, _ in _MEMBERS}
        # a/b/c share one compiled class; d (memory) and e (input size) get their own.
        assert len(platform._classes) == 3
        klass = {name: platform._state[name].klass for name, _, _ in _MEMBERS}
        assert klass["b"] is klass["a"] and klass["c"] is klass["a"]
        assert klass["d"] is not klass["a"] and klass["e"] is not klass["a"]
        for slot in ("profile", "statics", "storage_bases"):
            assert getattr(lanes["b"], slot) is getattr(lanes["a"], slot)
            assert getattr(lanes["c"], slot) is getattr(lanes["a"], slot)
            assert getattr(lanes["d"], slot) is not getattr(lanes["a"], slot)
        assert lanes["d"].memory_mb != lanes["a"].memory_mb
        assert lanes["e"].storage_bases != lanes["a"].storage_bases
        # Per-function parts stay per function.
        assert lanes["b"].pool is not lanes["a"].pool
        assert lanes["b"].gw_block is not lanes["a"].gw_block

    @pytest.mark.parametrize(
        "provider, use_cloud_storage",
        (
            pytest.param(Provider.AWS, False, id="aws"),
            pytest.param(Provider.GCP, False, id="gcp"),
            pytest.param(Provider.AZURE, False, id="azure"),
            pytest.param(Provider.IAAS, False, id="iaas-local"),
            pytest.param(Provider.IAAS, True, id="iaas-s3"),
        ),
    )
    def test_template_lane_equals_fresh_lane_and_reference(self, provider, use_cloud_storage):
        platform = _members_platform(provider, use_cloud_storage)
        shared = {name: _build_lane(platform, name) for name, _, _ in _MEMBERS}
        for name, _, _ in _MEMBERS:
            # Recompile the class from scratch: same constants, slot by slot.
            platform._classes.clear()
            platform._state[name].klass = None
            fresh = _build_lane(platform, name)
            assert _slot_values(shared[name]) == _slot_values(fresh)
            reference = _reference_constants(platform, name)
            assert set(reference) == _CLASS_LANE_SLOTS
            assert {slot: getattr(fresh, slot) for slot in reference} == reference
            compiled = _compiled_constants(platform._state[name].klass)
            assert compiled == {k: v for k, v in reference.items() if k != "sp_p"}
        storage = platform._state["a"].compute.storage_model
        assert (storage.profile is platform.performance.storage) is not use_cloud_storage


_CLASS_CHANGES = (
    pytest.param(Provider.AWS, 512, {"memory_mb": 1024}, id="aws"),
    pytest.param(Provider.GCP, 512, {"memory_mb": 1024}, id="gcp"),
    # Azure allocates memory dynamically and the VM has exactly 1 GB: their
    # configuration change is a new timeout.
    pytest.param(Provider.AZURE, DYNAMIC_MEMORY, {"timeout_s": 0.05}, id="azure"),
    pytest.param(Provider.IAAS, 1024, {"timeout_s": 0.05}, id="iaas-s3"),
)


@pytest.mark.parametrize("provider, memory, change", _CLASS_CHANGES)
def test_class_change_between_replays_is_never_stale(provider, memory, change):
    """Replay, change f's configuration, replay, change its input size,
    replay: the generator loop and the columnar loop agree bit for bit each
    time, and each replay runs f's current class while g keeps its own."""
    trace = WorkloadTrace.merge(
        *(
            WorkloadTrace.synthesize(name, PoissonArrivals(2.0), duration_s=30.0, rng=seed)
            for seed, name in enumerate(("f", "g"))
        )
    )
    replays = {}
    for loop in ("generator", "columnar"):
        if provider is Provider.IAAS:
            platform = IaaSPlatform(SimulationConfig(seed=7), use_cloud_storage=True)
        else:
            platform = create_platform(provider, SimulationConfig(seed=7))
        for name in ("f", "g"):
            deploy_benchmark(platform, "thumbnailer", memory, function_name=name)

        def replay():
            if loop == "generator":
                return generator_run(platform, trace).records
            return platform.run_workload(trace).records

        outputs = [replay()]
        config = dataclasses.replace(platform.get_function("f").config, **change)
        platform.update_function("f", config=config)
        outputs.append(replay())
        platform.set_input_size("f", InputSize.LARGE)
        outputs.append(replay())
        replays[loop] = (outputs, platform)

    assert replays["generator"][0] == replays["columnar"][0]
    for each in (replays["generator"][1], replays["columnar"][1]):
        for name, size in (("f", InputSize.LARGE), ("g", InputSize.SMALL)):
            state = each._state[name]
            profile = each.registry.get("thumbnailer").profile(size=size, language=state.language)
            assert state.klass == each._compile_class(profile, each.get_function(name), state)
    original, updated, large = (
        [r for r in records if r.function_name == "f"] for records in replays["columnar"][0]
    )
    for records in (updated, large):
        assert {r.memory_declared_mb for r in records} == {config.memory_mb}
        assert max(r.provider_time_s for r in records) <= config.timeout_s
    mean = lambda records: sum(r.benchmark_time_s for r in records) / len(records)  # noqa: E731
    assert mean(large) > mean(updated)


# ------------------------------------------------------------ storage bursts
@settings(max_examples=80, deadline=None)
@given(
    reads=st.integers(0, 40),
    writes=st.integers(0, 40),
    read_bytes=st.sampled_from([0, 1, 4096, 3_000_000]),
    write_bytes=st.sampled_from([0, 777, 2_000_000]),
    jitter_cv=st.sampled_from([0.0, 0.15, 0.8]),
    contention=st.booleans(),
    memory=st.sampled_from([128, 1024, 3008]),
    seed=st.integers(0, 2**32 - 1),
)
def test_storage_burst_matches_scalar_storage_time(
    reads, writes, read_bytes, write_bytes, jitter_cv, contention, memory, seed
):
    read_on = read_bytes > 0 or reads > 0
    write_on = write_bytes > 0 or writes > 0
    transfers = read_on * max(1, reads) + write_on * max(1, writes)
    assume(1 <= transfers <= 64)
    # A contention probability of 0 never fires; one just below 1 always does.
    probability = 1.0 - 1e-12 if contention else 0.0
    platform = create_platform(Provider.AWS, SimulationConfig(seed=3))
    platform.performance = dataclasses.replace(
        platform.performance,
        storage=StorageProfile(jitter_cv=jitter_cv, contention_tail_probability=probability),
    )
    deploy_benchmark(platform, "compression", memory, function_name="f")
    function = platform.get_function("f")
    state = platform._runtime_state("f")
    profile = dataclasses.replace(
        platform._class_of(function, state).profile,
        storage_read_bytes=read_bytes,
        storage_read_requests=reads,
        storage_write_bytes=write_bytes,
        storage_write_requests=writes,
    )
    state.klass = platform._compile_class(profile, function, state)
    lane = _build_lane(platform, "f")
    assert len(lane.storage_bases) == transfers

    rng = np.random.default_rng(seed)
    drawn = rng.random() < lane.contention_p
    assert drawn is contention
    batched = storage_burst_time(lane, rng.lognormal, drawn)

    # The reference: one scalar transfer_time call per transfer.
    scalar_model = StorageLatencyModel(platform.performance.storage, np.random.default_rng(seed))
    assert scalar_model.draw_contention() is contention
    scalar = 0.0
    for size, requests in ((read_bytes, reads), (write_bytes, writes)):
        if size > 0 or requests > 0:
            requests = max(1, requests)
            for _ in range(requests):
                scalar += scalar_model.transfer_time(size // requests, memory, contention=contention)
    assert batched.hex() == scalar.hex()
    # Both consumed the same draws.
    assert rng.random() == scalar_model._rng.random()
    # ComputeModel.storage_time reads the same compiled constants.
    compute_model = ComputeModel(platform.performance, platform.limits, np.random.default_rng(seed))
    assert compute_model.storage_time(profile, memory).hex() == scalar.hex()


# ------------------------------------------------------- row-form accumulators
class _FunctionAccumulator:
    """The per-function object accumulator row-form accumulators replaced."""

    __slots__ = (
        "function_name", "invocations", "cold_starts", "failures", "total_cost_usd",
        "client_time", "executed", "throttled", "dropped", "throttle_events",
        "retries", "queued", "queue_delay_s", "faulted", "short_circuited", "hedges",
    )

    def __init__(self, function_name: str):
        self.function_name = function_name
        self.invocations = 0
        self.cold_starts = 0
        self.failures = 0
        self.total_cost_usd = 0.0
        self.client_time = StreamingSummary(key=function_name)
        self.executed = 0
        self.throttled = 0
        self.dropped = 0
        self.throttle_events = 0
        self.retries = 0
        self.queued = 0
        self.queue_delay_s = 0.0
        self.faulted = 0
        self.short_circuited = 0
        self.hedges = 0

    def add(self, record) -> None:
        self.invocations += 1
        outcome = record.outcome
        if not record.executed:
            self.total_cost_usd += record.cost.total
            self.hedges += record.hedges
        if outcome is InvocationOutcome.THROTTLED:
            self.throttled += 1
            self.throttle_events += record.attempts
            self.retries += record.attempts - 1
            return
        if outcome is InvocationOutcome.DROPPED:
            self.dropped += 1
            return
        if outcome is InvocationOutcome.FAULTED:
            self.faulted += 1
            self.retries += record.attempts - 1
            return
        if outcome is InvocationOutcome.SHORT_CIRCUITED:
            self.short_circuited += 1
            self.retries += record.attempts - 1
            return
        self.executed += 1
        self.hedges += record.hedges
        if record.attempts > 1:
            self.throttle_events += record.attempts - 1
            self.retries += record.attempts - 1
        elif record.admission_delay_s > 0.0:
            self.queued += 1
            self.queue_delay_s += record.admission_delay_s
        if record.start_type is StartType.COLD:
            self.cold_starts += 1
        if not record.success:
            self.failures += 1
        self.total_cost_usd += record.cost.total
        self.client_time.add(record.client_time_s)

    def fold(self, cold_starts, failures, costs, client_times) -> None:
        """The columnar loop's flush of one lane's buffers."""
        self.invocations += len(costs)
        self.executed += len(costs)
        self.cold_starts += cold_starts
        self.failures += failures
        total = self.total_cost_usd
        for value in costs:
            total += value
        self.total_cost_usd = total
        self.client_time.add_many(client_times)

    def merge(self, other: "_FunctionAccumulator") -> None:
        self.invocations += other.invocations
        self.cold_starts += other.cold_starts
        self.failures += other.failures
        self.total_cost_usd += other.total_cost_usd
        self.client_time.merge(other.client_time)
        self.executed += other.executed
        self.throttled += other.throttled
        self.dropped += other.dropped
        self.throttle_events += other.throttle_events
        self.retries += other.retries
        self.queued += other.queued
        self.queue_delay_s += other.queue_delay_s
        self.faulted += other.faulted
        self.short_circuited += other.short_circuited
        self.hedges += other.hedges

    def summary(self) -> FunctionWorkloadSummary:
        return FunctionWorkloadSummary(
            function_name=self.function_name,
            invocations=self.invocations,
            cold_starts=self.cold_starts,
            failures=self.failures,
            total_cost_usd=self.total_cost_usd,
            client_time=self.client_time.to_summary() if self.executed else None,
            throttled=self.throttled,
            dropped=self.dropped,
            throttle_events=self.throttle_events,
            retries=self.retries,
            queued=self.queued,
            queue_delay_s=self.queue_delay_s,
            faulted=self.faulted,
            short_circuited=self.short_circuited,
            hedges=self.hedges,
        )


_COUNTERS = (
    "invocations", "cold_starts", "failures", "executed", "throttled", "dropped",
    "throttle_events", "retries", "queued", "faulted", "short_circuited", "hedges",
)


class _ObjectAccumulator:
    """Whole-replay reference: one :class:`_FunctionAccumulator` per function."""

    def __init__(self) -> None:
        self.first_submitted = None
        self.last_finished = None
        self.per_function: dict[str, _FunctionAccumulator] = {}

    def _row(self, fname: str) -> _FunctionAccumulator:
        accumulator = self.per_function.get(fname)
        if accumulator is None:
            accumulator = self.per_function[fname] = _FunctionAccumulator(fname)
        return accumulator

    def add(self, record) -> None:
        if self.first_submitted is None or record.submitted_at < self.first_submitted:
            self.first_submitted = record.submitted_at
        if self.last_finished is None or record.finished_at > self.last_finished:
            self.last_finished = record.finished_at
        self._row(record.function_name).add(record)

    def merge(self, other: "_ObjectAccumulator") -> None:
        if other.first_submitted is not None and (
            self.first_submitted is None or other.first_submitted < self.first_submitted
        ):
            self.first_submitted = other.first_submitted
        if other.last_finished is not None and (
            self.last_finished is None or other.last_finished > self.last_finished
        ):
            self.last_finished = other.last_finished
        for fname, accumulator in other.per_function.items():
            mine = self.per_function.get(fname)
            if mine is None:
                self.per_function[fname] = accumulator
            else:
                mine.merge(accumulator)

    def totals(self) -> dict:
        ordered = [self.per_function[fname] for fname in sorted(self.per_function)]
        totals = {
            name: sum(getattr(acc, name) for acc in self.per_function.values())
            for name in _COUNTERS
        }
        totals["total_cost_usd"] = repr(sum(acc.total_cost_usd for acc in ordered))
        totals["queue_delay_s"] = repr(sum(acc.queue_delay_s for acc in ordered))
        return totals

    def summaries(self) -> dict:
        return {fname: self.per_function[fname].summary() for fname in sorted(self.per_function)}


@dataclass
class _Record:
    """The fields an accumulator reads off an :class:`InvocationRecord`."""

    function_name: str
    outcome: InvocationOutcome
    attempts: int
    hedges: int
    admission_delay_s: float
    start_type: StartType
    success: bool
    cost_total: float
    client_time_s: float
    submitted_at: float
    finished_at: float

    @property
    def executed(self) -> bool:
        return self.outcome in (InvocationOutcome.COMPLETED, InvocationOutcome.FAILED)

    @property
    def cost(self):
        return SimpleNamespace(total=self.cost_total)


def _totals(accumulator: _ReplayAccumulator) -> dict:
    totals = {name: getattr(accumulator, name) for name in _COUNTERS}
    totals["total_cost_usd"] = repr(accumulator.total_cost_usd)
    totals["queue_delay_s"] = repr(accumulator.queue_delay_s)
    return totals


def _assert_same(rows: _ReplayAccumulator, objects: _ObjectAccumulator) -> None:
    assert repr(rows.summaries()) == repr(objects.summaries())
    assert _totals(rows) == objects.totals()
    assert (rows.first_submitted, rows.last_finished) == (
        objects.first_submitted,
        objects.last_finished,
    )


_floats = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
_add = st.tuples(
    st.just("add"),
    st.integers(0, 2),
    st.sampled_from(list(InvocationOutcome)),
    st.integers(1, 3),
    st.integers(0, 1),
    st.sampled_from([0.0, 0.25, 1.5]),
    st.booleans(),
    st.booleans(),
    _floats,
    _floats,
    _floats,
)
#: Batch sizes around the reservoir capacity, so rows reach it exactly,
#: cross it by one, or overflow in one batch.
_many = st.tuples(
    st.just("many"),
    st.integers(0, 2),
    st.sampled_from([1, 2, 7, CAPACITY - 1, CAPACITY, CAPACITY + 1]),
    st.integers(0, 2**31),
)


def _apply(rows: _ReplayAccumulator, objects: _ObjectAccumulator, op, prefix: str) -> None:
    if op[0] == "add":
        _, fn, outcome, attempts, hedges, delay, cold, success, cost, client, submitted = op
        record = _Record(
            function_name=f"{prefix}f{fn}",
            outcome=outcome,
            attempts=attempts,
            hedges=hedges,
            admission_delay_s=delay,
            start_type=StartType.COLD if cold else StartType.WARM,
            success=success,
            cost_total=cost,
            client_time_s=client,
            submitted_at=submitted,
            finished_at=submitted + client,
        )
        rows.add_record(record)
        objects.add(record)
        return
    _, fn, size, seed = op
    fname = f"{prefix}f{fn}"
    rng = np.random.default_rng(seed)
    costs = rng.random(size).tolist()
    client_times = rng.lognormal(0.0, 1.0, size).tolist()
    cold, failed = int(rng.integers(0, size + 1)), int(rng.integers(0, size + 1))
    rows.add_many(rows.slot(fname), cold, failed, list(costs), list(client_times))
    objects._row(fname).fold(cold, failed, costs, client_times)


@settings(max_examples=60, deadline=None)
@given(
    shards=st.lists(st.lists(st.one_of(_add, _many), max_size=8), min_size=1, max_size=3),
    overlapping=st.booleans(),
    roundtrip=st.booleans(),
)
def test_row_form_matches_object_accumulators(shards, overlapping, roundtrip):
    shard_rows, shard_objects = [], []
    for index, ops in enumerate(shards):
        rows, objects = _ReplayAccumulator(), _ObjectAccumulator()
        prefix = "" if overlapping else f"s{index}-"
        for op in ops:
            _apply(rows, objects, op, prefix)
        if roundtrip:
            rows = pickle.loads(pickle.dumps(rows))
            objects = pickle.loads(pickle.dumps(objects))
        _assert_same(rows, objects)
        shard_rows.append(rows)
        shard_objects.append(objects)
    merged_rows, merged_objects = _ReplayAccumulator(), _ObjectAccumulator()
    for rows, objects in zip(shard_rows, shard_objects):
        merged_rows.merge(rows)
        merged_objects.merge(objects)
    _assert_same(merged_rows, merged_objects)
    merged_rows = pickle.loads(pickle.dumps(merged_rows))
    _assert_same(merged_rows, merged_objects)


class TestPromotion:
    def _pair(self, values_in_batch: int, single_adds: int):
        rows, objects = _ReplayAccumulator(), _ObjectAccumulator()
        values = np.random.default_rng(5).lognormal(0.0, 1.0, values_in_batch).tolist()
        rows.add_many(rows.slot("f0"), 0, 0, [0.5] * values_in_batch, list(values))
        objects._row("f0").fold(0, 0, [0.5] * values_in_batch, values)
        for i in range(single_adds):
            op = ("add", 0, InvocationOutcome.COMPLETED, 1, 0, 0.0, False, True, 0.1, 2.0 + i, 1.0)
            _apply(rows, objects, op, "")
        return rows, objects

    def test_exactly_capacity_stays_a_list(self):
        rows, objects = self._pair(CAPACITY, 0)
        assert type(rows.samples[0]) is list and len(rows.samples[0]) == CAPACITY
        _assert_same(rows, objects)
        _assert_same(pickle.loads(pickle.dumps(rows)), objects)

    @pytest.mark.parametrize("batch, adds", [(CAPACITY + 1, 0), (CAPACITY, 1), (CAPACITY - 1, 2)])
    def test_one_past_capacity_promotes(self, batch, adds):
        rows, objects = self._pair(batch, adds)
        assert isinstance(rows.samples[0], StreamingSummary)
        assert rows.samples[0].count == CAPACITY + 1
        _assert_same(rows, objects)
        _assert_same(pickle.loads(pickle.dumps(rows)), objects)

    def test_batched_fold_of_promoted_rows_matches_per_value_fold(self, monkeypatch):
        """:meth:`_ReplayAccumulator.add` buffers a promoted row's client
        times; the folded state, the pickle and the summaries equal a fold
        of every value on arrival, read between batches or at their edges."""
        batch = 64
        values = np.random.default_rng(11).lognormal(0.0, 1.0, CAPACITY + 5 * batch + 3)

        def fold(fold_batch: int) -> list:
            monkeypatch.setattr(engine_module, "_FOLD_BATCH", fold_batch)
            rows, states = _ReplayAccumulator(), []
            for index, value in enumerate(values.tolist()):
                for fname in ("f0", "f1"):
                    rows.add(
                        fname, InvocationOutcome.COMPLETED, True, StartType.WARM,
                        float(index), index + value, value, 0.25, 1, 0.0, 0,
                    )
                if index in (CAPACITY + 1, CAPACITY + batch, CAPACITY + 3 * batch + 7):
                    states.append(pickle.dumps(rows))
            merged = _ReplayAccumulator()
            merged.merge(rows)
            states.append(pickle.dumps(merged))
            states.append(repr(rows.summaries()))
            states.append([pickle.dumps(sample) for sample in rows.samples])
            return states

        per_value = fold(1)
        assert fold(batch) == per_value
        assert isinstance(pickle.loads(per_value[0]).samples[0], StreamingSummary)

    def test_disjoint_merge_promotes_nothing(self):
        left, right = _ReplayAccumulator(), _ReplayAccumulator()
        left.add_many(left.slot("a"), 1, 0, [1.0, 2.0], [0.1, 0.2])
        right.add_many(right.slot("b"), 0, 1, [3.0], [0.3])
        left.merge(pickle.loads(pickle.dumps(right)))
        assert left.names == ["a", "b"]
        assert left.samples == [[0.1, 0.2], [0.3]]
