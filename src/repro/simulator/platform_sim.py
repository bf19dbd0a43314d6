"""The simulated FaaS platform shared by the AWS / Azure / GCP back-ends.

``SimulatedPlatform`` implements the abstract SeBS platform interface
(:class:`repro.faas.platform.FaaSPlatform`) over a virtual clock.  It manages
deployed functions, their sandbox pools and eviction, executes invocations
through the compute model, bills them, injects reliability failures, and
keeps a provider-side log that ``query_logs`` exposes — everything an
experiment needs to treat it exactly like a real provider.

Invocations can optionally execute the *real* benchmark kernel against the
platform's object store (``execute_kernels=True``); by default only the
calibrated work profile is used, which keeps large experiments (hundreds of
thousands of invocations) fast while preserving the statistical behaviour.

The invocation path is built for trace replay at scale: sandbox acquisition
is an indexed MRU pick plus an O(1) eviction-deadline peek (no pool scans),
sandbox occupancy is a multiset maintained through
:meth:`~repro.simulator.containers.ContainerPool.reserve` /
:meth:`~repro.simulator.containers.ContainerPool.release`, and the constants
an invocation shares with its function *class* (the work profile and what
the compute, reliability and billing models compile from it) are compiled
once per class, cached on the platform and read by both replay loops (see
:class:`FunctionClass`).  See ``docs/architecture.md`` ("Performance
internals").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

import json

from ..benchmarks.base import Benchmark, BenchmarkContext, InputSize, WorkProfile
from ..benchmarks.registry import BenchmarkRegistry, default_registry
from ..concurrency import build_function_throttle, create_retry_policy
from ..config import (
    FunctionConfig,
    InvocationOutcome,
    Language,
    Provider,
    SimulationConfig,
    StartType,
    TriggerType,
)
from ..exceptions import (
    ConfigurationError,
    FunctionAlreadyExistsError,
    PlatformError,
)
from ..faas.billing import BillingModel, CompiledBilling, CostBreakdown, billing_model_for
from ..faas.function import CodePackage, DeployedFunction
from ..columnar.draws import install_draw_blocks
from ..faults.plane import build_fault_state
from ..resilience.breaker import CircuitBreaker
from ..faas.invocation import InvocationRecord, InvocationRequest
from ..faas.platform import FaaSPlatform, LogQueryType
from ..workload.engine import WorkloadEngine, WorkloadResult
from ..workload.trace import WorkloadTrace
from ..network.latency import NetworkLink
from ..observe.profile import ProfileBuilder
from ..utils.clock import VirtualClock
from ..utils.rng import RandomStreams
from .compute import CompiledCompute, ComputeModel
from .containers import Container, ContainerPool
from .eviction import EvictionPolicy
from .profiles import ProviderPerformanceProfile, profile_for
from .reliability import CompiledReliability, ReliabilityModel
from .step import invocation_record, invoke_step, upload_time

#: Size of the UTF-8 encoding of an empty JSON payload (``b"{}"``) — the
#: overwhelmingly common case on trace replays, special-cased to avoid a
#: json.dumps round trip per request.
_EMPTY_PAYLOAD_BYTES = len(json.dumps({}).encode("utf-8"))


class CompiledOverhead(NamedTuple):
    """Per-class gateway, payload, response and network constants."""

    http_base: float
    sdk_base: float
    #: Payload upload bandwidth in bytes per second.
    payload_denom: float
    #: Upload time of an empty payload.
    empty_upload: float
    #: Response download bandwidth in bytes per second.
    response_denom: float
    #: Download time of the class's output.
    response_download_s: float
    #: Network delay floors of the request and the response direction.
    req_base: float
    resp_base: float


class FunctionClass(NamedTuple):
    """The compiled invocation constants of one function *class*.

    A class is what fixes every constant an invocation shares with its
    function: benchmark, input size, language, memory, package size,
    timeout and the storage and network profiles.  Each model compiles its
    part (:meth:`ComputeModel.compile`, :meth:`ReliabilityModel.compile`,
    :meth:`BillingModel.compile`); both replay loops copy their fields into
    per-function lanes (:func:`repro.columnar.engine._build_lane`), which
    :func:`repro.simulator.step.invoke_step` reads per invocation.
    """

    profile: WorkProfile
    memory_mb: int
    package_mb: float
    timeout_s: float
    compute: CompiledCompute
    reliability: CompiledReliability
    billing: CompiledBilling
    overhead: CompiledOverhead


@dataclass
class _LogEntry:
    """Provider-side record of one invocation (what query_logs exposes)."""

    function_name: str
    provider_time_s: float
    memory_used_mb: float
    cost_usd: float
    start_type: StartType
    success: bool
    timestamp: float = 0.0


@dataclass
class _FunctionRuntimeState:
    """Per-function simulator state.

    ``history`` is a deque so that :attr:`SimulationConfig.log_retention`
    can bound it; ``klass`` caches the function's :class:`FunctionClass`
    until :meth:`SimulatedPlatform.update_function` or
    :meth:`SimulatedPlatform.set_input_size` changes the class.

    The stochastic models (``compute``, ``reliability``, ``network`` and
    the spurious/gateway streams) are *per function*, each drawing from a
    stream derived from the platform seed and the function name
    (:func:`repro.utils.rng.derive_seed`).  A function's simulated numbers
    are therefore a pure function of its own request history: co-deployed
    functions never perturb each other's draws, which is what lets sharded
    parallel replay (:mod:`repro.parallel`) reproduce serial replay
    bit-for-bit, one function shard at a time.  Streams a provider may
    never draw from (reliability, spurious, and the retry / fault /
    client-retry streams of controlled replays) are
    :class:`~repro.utils.rng.LazyStream` handles, derived on first draw.
    """

    pool: ContainerPool
    compute: ComputeModel
    reliability: ReliabilityModel
    network: NetworkLink
    spurious_stream: Any
    gateway_stream: Any
    language: Language = Language.PYTHON
    input_size: InputSize = InputSize.SMALL
    history: deque[_LogEntry] = field(default_factory=deque)
    klass: FunctionClass | None = None
    #: The generator loop's lane of this function (see
    #: :func:`repro.columnar.engine._build_lane`); reset with ``klass``.
    lane: Any = None
    #: Admission gate (:class:`repro.concurrency.FunctionThrottle`); ``None``
    #: when the overload model is disabled — the engine then admits
    #: unconditionally.
    throttle: Any = None
    #: Per-function retry-jitter stream (``(seed, "retry", fname)``).
    retry_stream: Any = None
    #: This function's materialised fault schedule
    #: (:class:`repro.faults.FunctionFaultState`); ``None`` when the fault
    #: plane is disabled or no scheduled event applies to the function.
    fault_state: Any = None
    #: Client circuit breaker (:class:`repro.resilience.CircuitBreaker`);
    #: ``None`` when resilience is disabled or no breaker is configured.
    breaker: Any = None
    #: Jitter stream of the client's fault-retry policy
    #: (``(seed, "client-retry", fname)``) — separate from the 429 retry
    #: stream so enabling one layer never shifts the other's draws.
    client_retry_stream: Any = None


class SimulatedPlatform(FaaSPlatform):
    """Base class of the simulated commercial providers."""

    provider: Provider = Provider.AWS

    #: Concurrent executions one sandbox can absorb before the scheduler
    #: stops offering it for reuse.  1 for per-invocation containers
    #: (AWS/GCP); Azure's shared function-app instances raise it.
    sandbox_concurrency: int = 1

    def __init__(
        self,
        simulation: SimulationConfig | None = None,
        clock: VirtualClock | None = None,
        registry: BenchmarkRegistry | None = None,
        execute_kernels: bool = False,
    ):
        super().__init__()
        self.simulation = simulation or SimulationConfig()
        self.clock = clock or VirtualClock()
        self.registry = registry or default_registry()
        self.execute_kernels = execute_kernels

        self._streams = RandomStreams(self.simulation.seed).fork(self.provider.value)
        self.performance: ProviderPerformanceProfile = profile_for(self.provider)
        self.billing: BillingModel = billing_model_for(self.provider)
        # The stochastic invocation models (compute, reliability, network
        # jitter) live on the per-function runtime state — see
        # _new_runtime_state.  The platform keeps only this one link, whose
        # clock offset (drawn once per deployment) the per-function links
        # share.
        self.network = NetworkLink(
            self.performance.network,
            self._streams.stream("network"),
            clock_offset_s=float(self._streams.stream("clock-offset").uniform(-2.0, 2.0)),
        )
        self.eviction_policy: EvictionPolicy = self._build_eviction_policy()

        # Hot-path scalars of the profile; per-class constants live on the
        # compiled function classes (see _class_of).
        self._spurious_probability = self.performance.spurious_cold_start_probability
        self._runtime_overhead_s = self.performance.runtime_overhead_s

        # Overload model (None = admit everything, the pre-overload paths
        # stay byte-identical).  The retry policy object is stateless and
        # shared; jitter draws come from per-function streams.
        self._overload = self.simulation.overload
        self._retry_policy = None
        if self._overload is not None:
            self._retry_policy = create_retry_policy(
                self._overload.retry_policy,
                max_retries=self._overload.max_retries,
                base_delay_s=self._overload.retry_base_delay_s,
                max_delay_s=self._overload.retry_max_delay_s,
            )

        # Fault plane and client resilience layer (both None = the
        # pre-fault paths stay byte-identical).
        self._faults = self.simulation.faults
        self._resilience = self.simulation.resilience
        self._hedge = None
        self._stale_after_s = None
        self._client_retry_policy = None
        if self._resilience is not None:
            self._hedge = self._resilience.hedge
            self._stale_after_s = self._resilience.stale_after_s
            if self._resilience.retry_policy != "none":
                self._client_retry_policy = create_retry_policy(
                    self._resilience.retry_policy,
                    max_retries=self._resilience.max_retries,
                    base_delay_s=self._resilience.retry_base_delay_s,
                    max_delay_s=self._resilience.retry_max_delay_s,
                )
        #: Whether batch replay must take the generator loop
        #: (``WorkloadEngine.stream``) instead of the columnar one: overload
        #: admission, fault injection or client resilience is active.
        self._controlled_replay = (
            self._overload is not None
            or self._faults is not None
            or self._resilience is not None
        )
        from ..storage.object_store import ObjectStore

        #: Persistent storage attached to this deployment (S3 / Blob / GCS).
        self.object_store = ObjectStore(name=f"{self.provider.value}-storage")
        self._state: dict[str, _FunctionRuntimeState] = {}
        #: Compiled constants per function class (see :meth:`_class_of`).
        self._classes: dict[tuple, FunctionClass] = {}
        #: Optional :class:`repro.observe.events.ReplayObserver`: the one
        #: attachment point, set by the engines for the duration of a replay
        #: and read by both replay loops (container lifecycle, crash and
        #: breaker hooks).  Every hook site is ``None``-guarded and fires
        #: post-decision with already-computed values, so a detached replay
        #: is untouched and an attached one is bit-identical.
        self._observer = None

    # -------------------------------------------------------------- plumbing
    def _build_eviction_policy(self) -> EvictionPolicy:
        raise NotImplementedError

    def _snapshot_init_kwargs(self) -> dict:
        """Extra constructor kwargs a faithful rebuild of this platform needs.

        Subclasses with behaviour-changing constructor parameters beyond
        ``simulation``/``clock`` (e.g. the IaaS storage configuration) must
        report them here, or sharded replay would silently rebuild workers
        with defaults (see :class:`repro.parallel.snapshot.PlatformSnapshot`).
        """
        return {}

    def _build_compute_model(self, fname: str) -> ComputeModel:
        """The per-function compute model (providers may customise storage)."""
        return ComputeModel(self.performance, self.limits, self._streams.stream("compute", fname))

    def _new_runtime_state(self, fname: str, language: Language) -> _FunctionRuntimeState:
        retention = self.simulation.log_retention
        streams = self._streams
        throttle = None
        retry_stream = None
        if self._overload is not None:
            throttle = build_function_throttle(
                fname,
                self._overload,
                self.limits,
                self.provider,
                slot_capacity=self.sandbox_concurrency,
            )
            retry_stream = streams.lazy("retry", fname)
        fault_state = None
        if self._faults is not None:
            fault_state = build_fault_state(fname, self._faults, streams.lazy("fault", fname))
        breaker = None
        client_retry_stream = None
        if self._resilience is not None:
            if self._resilience.breaker is not None:
                breaker = CircuitBreaker(self._resilience.breaker)
            if self._client_retry_policy is not None:
                client_retry_stream = streams.lazy("client-retry", fname)
        state = _FunctionRuntimeState(
            throttle=throttle,
            retry_stream=retry_stream,
            fault_state=fault_state,
            breaker=breaker,
            client_retry_stream=client_retry_stream,
            pool=ContainerPool(fname, slot_capacity=self.sandbox_concurrency),
            compute=self._build_compute_model(fname),
            reliability=ReliabilityModel(
                self.provider,
                streams.lazy("reliability", fname),
                enabled=self.simulation.enable_failures,
            ),
            # Per-function jitter stream, but the same constant clock offset:
            # all functions of a deployment live behind one region endpoint.
            network=NetworkLink(
                self.performance.network,
                streams.stream("network", fname),
                clock_offset_s=self.network.clock_offset_s,
            ),
            spurious_stream=streams.lazy("spurious", fname),
            gateway_stream=streams.stream("gateway", fname),
            language=language,
            history=deque(maxlen=retention),
        )
        # Wrap the single-distribution streams in pre-drawn blocks once, for
        # the state's lifetime: every consumer (columnar loop, generator
        # loop, direct invoke) then reads the same buffered sequence, and no
        # draw is ever lost at a replay boundary.
        install_draw_blocks(state, self)
        return state

    def _runtime_state(self, fname: str) -> _FunctionRuntimeState:
        function = self.get_function(fname)
        if fname not in self._state:
            self._state[fname] = self._new_runtime_state(fname, function.package.language)
        return self._state[fname]

    def _benchmark_for(self, function: DeployedFunction) -> Benchmark:
        return self.registry.get(function.benchmark)

    def _class_of(self, function: DeployedFunction, state: _FunctionRuntimeState) -> FunctionClass:
        """The compiled constants of ``function``'s class.

        Cached on the runtime state, and shared on the platform by every
        function of the class, so each class compiles once.
        """
        klass = state.klass
        if klass is None:
            config = function.config
            key = (
                function.benchmark, state.input_size, state.language, config.memory_mb,
                function.package.size_mb, config.timeout_s,
                id(state.compute.storage_model.profile), id(state.network.profile),
            )
            klass = self._classes.get(key)
            if klass is None:
                profile = self._benchmark_for(function).profile(
                    size=state.input_size, language=state.language
                )
                klass = self._classes[key] = self._compile_class(profile, function, state)
            state.klass = klass
        return klass

    def _compile_class(
        self, profile: WorkProfile, function: DeployedFunction, state: _FunctionRuntimeState
    ) -> FunctionClass:
        """Compile the constants of ``function``'s class running ``profile``."""
        memory_mb = function.config.memory_mb
        invocation = self.performance.invocation
        payload_denom = invocation.payload_bandwidth_mbps * 1024 * 1024
        response_denom = invocation.response_bandwidth_mbps * 1024 * 1024
        return FunctionClass(
            profile=profile,
            memory_mb=memory_mb,
            package_mb=function.package.size_mb,
            timeout_s=function.config.timeout_s,
            compute=state.compute.compile(profile, memory_mb),
            reliability=state.reliability.compile(profile, memory_mb),
            billing=self.billing.compile(
                memory_mb,
                profile.output_bytes,
                profile.storage_read_requests + profile.storage_write_requests,
            ),
            overhead=CompiledOverhead(
                http_base=invocation.http_gateway_s,
                sdk_base=invocation.sdk_overhead_s,
                payload_denom=payload_denom,
                empty_upload=_EMPTY_PAYLOAD_BYTES / payload_denom,
                response_denom=response_denom,
                response_download_s=profile.output_bytes / response_denom,
                req_base=state.network._request_base,
                resp_base=state.network._response_base,
            ),
        )

    # --------------------------------------------------------- FaaS interface
    def package_code(self, benchmark_name: str, language: Language) -> CodePackage:
        benchmark = self.registry.get(benchmark_name)
        if language not in benchmark.languages:
            raise PlatformError(
                f"benchmark {benchmark_name!r} has no {language.display_name} implementation"
            )
        profile = benchmark.profile(language=language)
        # Providers with small deployment limits (GCP's 100 MB zip) require the
        # cloud-side build system, which strips the package further; clamp the
        # built size to the provider limit as the original toolkit's
        # provider-specific build steps do.
        size_mb = min(profile.code_package_mb, self.limits.deployment_limit_mb)
        package = CodePackage(
            benchmark=benchmark_name,
            language=language,
            size_mb=size_mb,
            dependencies=benchmark.dependencies,
            docker_image=f"sebs.build.{self.provider.value}.{language.value}",
        )
        self.limits.validate_package(package.size_mb)
        return package

    def create_function(self, fname: str, code: CodePackage, config: FunctionConfig) -> DeployedFunction:
        if fname in self._functions:
            raise FunctionAlreadyExistsError(fname)
        self.limits.validate_memory(config.memory_mb)
        self.limits.validate_package(code.size_mb)
        if config.timeout_s > self.limits.time_limit_s:
            raise PlatformError(
                f"timeout of {config.timeout_s:.0f}s exceeds the platform limit of {self.limits.time_limit_s:.0f}s"
            )
        function = DeployedFunction(
            name=fname,
            benchmark=code.benchmark,
            package=code,
            config=config,
            platform=self.provider.value,
            created_at=self.clock.now(),
            updated_at=self.clock.now(),
        )
        self._functions[fname] = function
        self._state[fname] = self._new_runtime_state(fname, code.language)
        return function

    def update_function(
        self,
        fname: str,
        code: CodePackage | None = None,
        config: FunctionConfig | None = None,
    ) -> DeployedFunction:
        function = self.get_function(fname)
        if code is not None:
            self.limits.validate_package(code.size_mb)
            function.package = code
        if config is not None:
            self.limits.validate_memory(config.memory_mb)
            function.config = config
        function.bump_version(self.clock.now())
        # Publishing a new version / updating the configuration invalidates
        # all warm sandboxes (this is how SeBS enforces cold starts).
        state = self._runtime_state(fname)
        state.pool.evict_all()
        state.klass = state.lane = None
        return function

    def query_logs(self, fname: str, query: LogQueryType) -> list[float]:
        state = self._runtime_state(fname)
        if query is LogQueryType.TIME:
            return [entry.provider_time_s for entry in state.history]
        if query is LogQueryType.MEMORY:
            return [entry.memory_used_mb for entry in state.history]
        if query is LogQueryType.COST:
            return [entry.cost_usd for entry in state.history]
        raise PlatformError(f"unsupported log query {query!r}")

    # ------------------------------------------------------------ invocation
    def set_input_size(self, fname: str, size: InputSize) -> None:
        """Select the input-size preset the simulator assumes for ``fname``."""
        state = self._runtime_state(fname)
        state.input_size = size
        state.klass = state.lane = None

    def warm_container_count(self, fname: str) -> int:
        """Number of currently warm sandboxes (after applying eviction)."""
        state = self._runtime_state(fname)
        self.eviction_policy.apply(state.pool, self.clock.now())
        function = self.get_function(fname)
        return state.pool.warm_count(version=function.version)

    def invoke(
        self,
        fname: str,
        payload: Mapping[str, Any],
        trigger: TriggerType = TriggerType.HTTP,
        payload_bytes: int | None = None,
    ) -> InvocationRecord:
        """Sequential invocation: the virtual clock advances by the client time."""
        record = self._simulate_invocation(
            fname, payload, trigger, payload_bytes, concurrency=1, start_at=self.clock.now()
        )
        # A sequential caller waits for the response, so the sandbox is free
        # again by the time anything else happens.
        self._state[fname].pool.release(record.container_id)
        self.clock.advance(record.client_time_s)
        return record

    def invoke_batch(
        self,
        fname: str,
        count: int,
        payload: Mapping[str, Any] | None = None,
        trigger: TriggerType = TriggerType.HTTP,
        payload_bytes: int | None = None,
    ) -> list[InvocationRecord]:
        """Concurrent burst of ``count`` invocations starting at the same time.

        All invocations share a single submission instant (the current
        virtual time); afterwards the clock advances by the *longest* client
        time in the batch, mirroring a driver that waits for the whole burst.

        **Sandbox reservation rule.**  Because the burst is concurrent, each
        invocation occupies its sandbox for the entire batch: the burst is
        simulated in submission order and every invocation holds a
        reservation (one slot of the pool's occupancy multiset) that
        :meth:`_acquire_container` excludes from warm reuse.  A burst of
        ``count`` requests against ``w`` warm sandboxes therefore produces
        exactly ``max(0, count - w)`` cold starts on AWS and GCP — the
        mechanism behind the paper's eviction experiment (Section 6.5),
        which uses bursts to materialise ``D_init`` distinct containers.

        **Azure exception.**  Azure Functions hosts executions in *function
        apps*: one app instance serves several concurrent executions on
        worker processes/threads, so
        :class:`~repro.simulator.providers.AzureFunctionsSimulator` raises
        ``sandbox_concurrency`` — a sandbox only becomes unavailable once it
        already hosts that many members of the burst (Section 3.3 of the
        paper; see ``docs/architecture.md`` for the full scheduling
        semantics).

        For arrivals spread over time (rather than one instant) use
        :meth:`run_workload` / :meth:`invoke_stream`, where occupancy is
        tracked per-invocation on the event queue instead of per-batch.

        Raises :class:`~repro.exceptions.FunctionNotFoundError` if ``fname``
        is not deployed, and :class:`~repro.exceptions.PlatformError` for a
        non-positive ``count``.
        """
        self.get_function(fname)  # unknown functions fail before batch validation
        if count <= 0:
            raise PlatformError("batch size must be positive")
        start_at = self.clock.now()
        records: list[InvocationRecord] = []
        pool = self._runtime_state(fname).pool
        try:
            for _ in range(count):
                # Each invocation's reservation (taken inside
                # _simulate_invocation) stays held until the whole batch is
                # done, so later members of the burst cannot reuse the
                # sandbox.
                records.append(
                    self._simulate_invocation(
                        fname,
                        payload or {},
                        trigger,
                        payload_bytes,
                        concurrency=count,
                        start_at=start_at,
                    )
                )
        finally:
            for record in records:
                pool.release(record.container_id)
        self.clock.advance(max(record.client_time_s for record in records))
        return records

    # ------------------------------------------------------ workload replay
    def invoke_stream(self, requests: Iterable[InvocationRequest]) -> Iterator[InvocationRecord]:
        """Replay a time-sorted request stream through the event-queue engine.

        Yields one :class:`~repro.faas.invocation.InvocationRecord` per
        request, in arrival order.  Unlike :meth:`invoke_batch`, sandboxes
        are occupied only between their invocation's start and finish times,
        so warm reuse and concurrency emerge from the overlap of requests.
        See :class:`~repro.workload.engine.WorkloadEngine`.
        """
        return WorkloadEngine(self).stream(requests)

    def run_workload(
        self,
        trace: WorkloadTrace | Iterable[InvocationRequest],
        keep_records: bool = True,
        workers: int | None = None,
        backend: str | None = None,
        trace_seed: int | None = None,
        supervision=None,
        checkpoint_dir=None,
        resume: bool = False,
        observer=None,
        timeseries=None,
        profile: bool = False,
    ) -> WorkloadResult:
        """Replay a :class:`~repro.workload.trace.WorkloadTrace` and aggregate.

        Returns a :class:`~repro.workload.engine.WorkloadResult` with the
        per-invocation records, per-function latency/cold-start/cost
        summaries and simulator-throughput measurements.  Deterministic:
        the same platform seed and trace produce identical results.

        With ``keep_records=False`` the replay runs in streaming-aggregation
        mode: individual records are folded into per-function accumulators
        (counts, costs, reservoir-sampled latency quantiles) as they are produced, so
        memory stays O(functions) instead of O(invocations) — the mode for
        million-invocation traces.  ``trace`` may then also be a lazy
        iterable of requests rather than a materialised trace.

        ``workers`` switches to **sharded replay** (:mod:`repro.parallel`):
        the trace is partitioned into per-function shards, each shard
        replays on its own rebuilt copy of this (freshly deployed) platform,
        and the shard results are merged deterministically — bit-identical
        records (and exactly equal counts/costs/min/max) to the serial
        replay, by the per-function isolation the simulator maintains.
        ``workers=1`` (or ``backend="sequential"``) runs the shards
        in-process — the reference backend; ``workers>1`` uses
        ``multiprocessing``.  Unlike a serial replay, the sharded path does
        not mutate this platform instance.  Sharding a trace (or lazy
        iterable) materialises every request in the parent to partition it;
        for million-invocation sharded replays pass a
        :class:`~repro.workload.scenario.Scenario` instead (streaming mode
        only), in which case each worker synthesizes its own shard's
        arrivals and parent memory stays O(functions).

        ``supervision`` (a :class:`~repro.parallel.SupervisorConfig`) adds
        the shard recovery ladder — heartbeat timeouts, bounded retries,
        pool rebuild, quarantine — and ``checkpoint_dir``/``resume``
        persist completed shard outcomes so an interrupted replay re-runs
        only the missing shards; both preserve bit-identical results.
        They require ``workers``.

        **Observability** (all pure observers — attached or not, the
        replay's records and summaries are bit-identical):

        * ``observer`` — a :class:`repro.observe.events.ReplayObserver`
          receiving the lifecycle event stream (serial replay only);
        * ``timeseries`` — a :class:`repro.observe.timeseries.TimeSeriesSpec`
          (or a plain window width in seconds) building windowed
          simulated-time metrics, landing on ``result.timeseries``; works
          serial *and* sharded (per-shard builders merge exactly);
        * ``profile=True`` — host wall-clock phase profiling on
          ``result.profile``.

        Parameters
        ----------
        trace:
            A :class:`~repro.workload.trace.WorkloadTrace`, a lazy iterable
            of :class:`~repro.workload.trace.InvocationRequest` (streaming
            mode only), or — sharded streaming mode only — a
            :class:`~repro.workload.scenario.Scenario` /
            population-recipe scenario whose shards synthesize their own
            arrivals.
        keep_records:
            ``True`` (default) keeps every invocation record;
            ``False`` streams into O(functions)-memory accumulators.
        workers:
            ``None`` (default) replays serially in-process; ``N >= 1``
            shards the replay across ``N`` processes (``1`` = sequential
            reference backend).
        backend:
            Shard-execution backend override: ``"sequential"`` or
            ``"process"`` (default ``None`` picks by ``workers``).
        trace_seed:
            Seed for shard-local arrival synthesis when ``trace`` is a
            scenario (default ``None`` uses the platform seed).
        supervision:
            :class:`~repro.parallel.SupervisorConfig` enabling the shard
            recovery ladder (default ``None``: a shard failure aborts).
        checkpoint_dir:
            Directory persisting completed shard outcomes for
            ``resume=True`` (default ``None``: no checkpointing).
        resume:
            Resume from ``checkpoint_dir``, re-running only missing
            shards (default ``False``).
        observer:
            :class:`~repro.observe.events.ReplayObserver` receiving
            lifecycle events; serial replay only (default ``None``).
        timeseries:
            :class:`~repro.observe.timeseries.TimeSeriesSpec` or a window
            width in seconds of simulated time (default ``None``).
        profile:
            Collect host wall-clock phase timings (default ``False``).
        """

        def sharded(**knobs):
            from ..parallel import run_workload_sharded

            return run_workload_sharded(
                self,
                trace,
                keep_records=keep_records,
                workers=workers,
                backend=backend,
                trace_seed=trace_seed,
                **knobs,
            )

        return self._dispatch_replay(
            sharded,
            lambda attach: WorkloadEngine(self).run(trace, keep_records, observer=attach),
            trace,
            workers=workers,
            supervision=supervision,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            observer=observer,
            timeseries=timeseries,
            profile=profile,
        )

    def _dispatch_replay(
        self,
        sharded,
        serial,
        trace,
        *,
        workers,
        supervision,
        checkpoint_dir,
        resume,
        observer,
        timeseries,
        profile,
    ):
        """The serial/sharded dispatch rules of the replay entry points.

        With ``workers`` set, returns ``sharded(**knobs)`` with the
        supervision, checkpoint and observability knobs; event observers
        are refused there.  Otherwise the sharded-only knobs are refused and
        ``serial(attach)`` runs with ``attach`` the composite of the
        caller's observer and the requested time-series builder (or
        ``None``); the builder and, with ``profile``, a single ``replay``
        phase land on the result.
        """
        if workers is not None:
            if observer is not None:
                raise ConfigurationError(
                    "event observers attach to serial replay only; sharded "
                    "replay supports timeseries= (exact merge) and profile="
                )
            return sharded(
                supervision=supervision,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                timeseries=timeseries,
                profile=profile,
            )
        if supervision is not None or checkpoint_dir is not None or resume:
            raise ConfigurationError(
                "supervision/checkpoint_dir/resume apply to sharded replay only: "
                "pass workers= as well"
            )
        builder = None
        attach = observer
        if timeseries is not None:
            from ..observe.timeseries import TimeSeriesSpec

            builder = TimeSeriesSpec.of(timeseries).build()
            if attach is None:
                attach = builder
            else:
                from ..observe.events import CompositeObserver

                attach = CompositeObserver([attach, builder])
        if attach is not None:
            self._announce_fault_windows(attach, trace)
        profiler = ProfileBuilder()
        with profiler.phase("replay"):
            result = serial(attach)
        result.timeseries = builder
        if profile:
            result.profile = profiler.build()
        return result

    def _announce_fault_windows(self, observer, trace) -> None:
        """Emit every scheduled fault window once, at replay start.

        Reads the functions' already-materialised schedules — no stream is
        touched, and runtime states are created exactly as a first dispatch
        would create them (each function's streams derive from its own
        name, so early creation shifts nothing).
        """
        if self._faults is None:
            return
        functions = None
        if hasattr(trace, "functions"):
            try:
                functions = sorted(trace.functions())
            except TypeError:
                functions = None
        if functions is None:
            functions = sorted(self._state)
        for fname in functions:
            fault_state = self._runtime_state(fname).fault_state
            if fault_state is None:
                continue
            for kind, start_s, end_s, detail in fault_state.windows():
                observer.on_fault_window(fname, kind, start_s, end_s, detail)

    def run_workflows(
        self,
        arrivals,
        keep_records: bool = True,
        record_sink=None,
        workers: int | None = None,
        backend: str | None = None,
        supervision=None,
        checkpoint_dir=None,
        resume: bool = False,
        observer=None,
        timeseries=None,
        profile: bool = False,
    ):
        """Replay a time-sorted stream of workflow arrivals and aggregate.

        Each :class:`~repro.workflows.spec.WorkflowArrival` starts one
        end-to-end execution of its DAG: stage tasks become event-queue
        entries, downstream stages are scheduled at their upstream's
        completion time plus the trigger-edge propagation delay, and every
        execution yields a :class:`~repro.workflows.engine.WorkflowResult`
        with end-to-end latency, critical-path decomposition and aggregated
        billing.  ``keep_records=False`` streams executions into
        per-workflow accumulators (O(workflows + in-flight) memory);
        ``record_sink`` optionally observes every constituent invocation
        record.  See :class:`~repro.workflows.engine.WorkflowEngine`.

        ``workers`` switches to sharded replay: arrivals are grouped into
        function-disjoint components (workflow specs sharing a deployed
        function always land in the same shard) and replayed on rebuilt
        platform copies, preserving each execution's global index so the
        hash-seeded trigger-edge delays are identical to serial replay.
        ``record_sink`` is unsupported in that mode.
        ``supervision``/``checkpoint_dir``/``resume`` behave exactly as in
        :meth:`run_workload` (sharded replay only), and so do the
        observability kwargs ``observer``/``timeseries``/``profile``
        (workflow stage spans carry their execution's causal index).

        Parameters
        ----------
        arrivals:
            Time-sorted :class:`~repro.workflows.spec.WorkflowArrival`
            stream, e.g. from :meth:`Scenario.build_workflow_arrivals`.
        keep_records:
            ``True`` (default) keeps every execution's record;
            ``False`` streams into O(workflows + in-flight) accumulators.
        record_sink:
            Callable observing every constituent invocation record
            (default ``None``; serial replay only).
        workers, backend, supervision, checkpoint_dir, resume:
            Sharded-replay knobs, identical to :meth:`run_workload`
            (defaults: serial, unsupervised, no checkpointing).
        observer, timeseries, profile:
            Observability knobs, identical to :meth:`run_workload`
            (defaults: all off).
        """
        from ..workflows.engine import WorkflowEngine

        if workers is not None and record_sink is not None:
            raise PlatformError("record_sink is not supported with sharded replay")

        def sharded(**knobs):
            from ..parallel import run_workflows_sharded

            return run_workflows_sharded(
                self, arrivals, keep_records=keep_records, workers=workers, backend=backend, **knobs
            )

        return self._dispatch_replay(
            sharded,
            lambda attach: WorkflowEngine(self).run(
                arrivals, keep_records=keep_records, record_sink=record_sink, observer=attach
            ),
            None,
            workers=workers,
            supervision=supervision,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            observer=observer,
            timeseries=timeseries,
            profile=profile,
        )

    # ------------------------------------------------------------- internals
    def _release_container(self, fname: str, container_id: str) -> None:
        """Return one occupancy slot of ``container_id`` (stream completions)."""
        state = self._state.get(fname)
        if state is not None:
            state.pool.release(container_id)

    def _acquire_container(
        self, function: DeployedFunction, state: _FunctionRuntimeState, start_at: float
    ) -> tuple[Container, StartType]:
        evicted = self.eviction_policy.apply(state.pool, start_at)
        if evicted and self._observer is not None:
            self._observer.on_container_evict(function.name, evicted, start_at, "policy")
        spurious = (
            self._spurious_probability > 0
            and state.spurious_stream.take() < self._spurious_probability
        )
        if not spurious:
            # Reuse the most recently used warm sandbox with a free slot
            # (mirrors providers preferring "hot" instances).  O(log n)
            # indexed pick instead of a pool scan.
            container = state.pool.pick_mru(function.version)
            if container is not None:
                return container, StartType.WARM
        container = Container(
            function_name=function.name,
            function_version=function.version,
            memory_mb=function.config.memory_mb,
            created_at=start_at,
            container_id=state.pool.next_container_id(),
        )
        state.pool.add(container)
        if self._observer is not None:
            self._observer.on_container_create(function.name, container.container_id, start_at)
        return container, StartType.COLD

    # ------------------------------------------------- overload / admission
    def _throttle_response_s(self, trigger: TriggerType) -> float:
        """Latency of a 429 response: the gateway turns it around without a
        sandbox, so only the constant gateway overhead applies.

        Deliberately draw-free: throttle traffic must not shift the
        per-function jitter streams, so an admitted execution's numbers are
        identical whether or not earlier requests got throttled.
        """
        profile = self.performance.invocation
        return profile.http_gateway_s if trigger is TriggerType.HTTP else profile.sdk_overhead_s

    def _overload_record(
        self,
        fname: str,
        *,
        outcome: InvocationOutcome,
        submitted_at: float,
        finished_at: float,
        attempts: int,
        admission_delay_s: float,
        request_index: int,
        error: str,
    ) -> InvocationRecord:
        """Record of a request that never executed.

        Shared by every rejected-request path — admission throttles/drops,
        fault-plane outage responses (``FAULTED``) and client breaker
        rejections (``SHORT_CIRCUITED``).  No sandbox, no billing:
        providers do not charge requests that never reached a sandbox, and
        a breaker rejection never even left the client.
        """
        function = self.get_function(fname)
        client_time_s = finished_at - submitted_at
        return InvocationRecord(
            function_name=fname,
            benchmark=function.benchmark,
            provider=self.provider,
            start_type=StartType.NONE,
            success=False,
            benchmark_time_s=0.0,
            provider_time_s=0.0,
            client_time_s=client_time_s,
            invocation_overhead_s=client_time_s,
            cold_init_s=0.0,
            memory_declared_mb=function.config.memory_mb,
            memory_used_mb=0.0,
            billed_duration_s=0.0,
            cost=CostBreakdown(request_cost=0.0, compute_cost=0.0),
            output_bytes=0,
            container_id="",
            submitted_at=submitted_at,
            started_at=finished_at,
            finished_at=finished_at,
            error=error,
            outcome=outcome,
            attempts=attempts,
            admitted_at=finished_at,
            admission_delay_s=admission_delay_s,
            request_index=request_index,
        )

    def _execute_kernel(self, function: DeployedFunction, payload: Mapping[str, Any]) -> tuple[dict, int]:
        """Optionally run the real kernel; returns (output, output_bytes)."""
        benchmark = self._benchmark_for(function)
        context = BenchmarkContext(storage=self.object_store, rng=self._streams.stream("kernel"))
        result = benchmark.run(payload, context)
        encoded = json.dumps(result, default=str).encode("utf-8")
        return result, len(encoded)

    def _simulate_invocation(
        self,
        fname: str,
        payload: Mapping[str, Any],
        trigger: TriggerType,
        payload_bytes: int | None,
        concurrency: int,
        start_at: float,
        request_index: int = -1,
        fault_scale: tuple[float, float] | None = None,
    ) -> InvocationRecord:
        """Simulate one invocation; leaves the sandbox *reserved*.

        Acquires the sandbox, hands the invocation to
        :func:`~repro.simulator.step.invoke_step` on the function's lane (in
        kernel mode with the real kernel as its ``kernel`` hook) and builds
        the record and the provider-log entry.  The caller owns the
        reservation and must release it once the invocation no longer
        occupies its sandbox (immediately for sequential calls, at the end
        of the burst for batches, at the completion event for stream
        replay).

        ``fault_scale`` is the active latency-storm multiplier pair
        ``(compute, network)`` from the fault plane (:mod:`repro.faults`),
        applied to the sampled durations *after* all draws — ``None`` (no
        storm) leaves every number byte-identical to a storm-free replay.
        """
        function = self.get_function(fname)
        state = self._state.get(fname)
        if state is None:
            state = self._runtime_state(fname)
        lane = state.lane
        if lane is None:
            from ..columnar.engine import _build_lane

            lane = state.lane = _build_lane(self, fname)
        payload_upload_s = upload_time(lane, payload, payload_bytes)

        container, start_type = self._acquire_container(function, state, start_at)
        container_id = container.container_id
        state.pool.reserve(container_id)

        kernel = None
        ran: list = []
        if self.execute_kernels and payload:

            def kernel() -> tuple[float, dict]:
                try:
                    output, output_bytes = self._execute_kernel(function, payload)
                except BaseException:
                    # The caller never sees a record to release; release()
                    # re-indexes a warm sandbox whose MRU entry the pick
                    # already consumed.
                    state.pool.release(container_id)
                    raise
                ran.append((output, output_bytes))
                # The real output replaces the profile's output size.
                profile = lane.profile
                requests = profile.storage_read_requests + profile.storage_write_requests
                statics = self.billing.compile(lane.memory_mb, output_bytes, requests).statics
                return output_bytes / lane.response_denom, statics

        values = invoke_step(
            lane, start_type is StartType.COLD, concurrency, trigger is TriggerType.HTTP,
            payload_upload_s, fault_scale, kernel,
        )
        output, output_bytes = ran[0] if ran else ({}, lane.meta.output_bytes)
        record = invocation_record(
            lane.meta, start_type, values, container_id, start_at, request_index, output, output_bytes
        )
        container.serve(record.finished_at)
        state.pool.touch(container)
        state.history.append(
            _LogEntry(
                fname, record.provider_time_s, record.memory_used_mb, record.cost.total,
                start_type, record.success, record.finished_at,
            )
        )
        return record
