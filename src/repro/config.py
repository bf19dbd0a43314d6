"""Configuration objects shared across the SeBS reproduction.

The configuration layer mirrors what the original SeBS toolkit reads from its
JSON configuration files: which cloud provider to target, which region,
language runtime, memory size, and experiment-level knobs (number of samples,
concurrency, random seed).  Everything is expressed as frozen dataclasses so
configurations can be hashed, compared and used as cache keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from .exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .concurrency.config import OverloadConfig
    from .faults.config import FaultPlaneConfig
    from .resilience.config import ResilienceConfig


class Provider(str, enum.Enum):
    """Cloud providers modelled by the simulator.

    ``AWS``, ``AZURE`` and ``GCP`` follow the commercial platforms evaluated
    in the paper; ``IAAS`` is the persistent virtual-machine baseline used by
    the FaaS-vs-IaaS comparison (Table 5 / Table 6); ``LOCAL`` is the local
    Docker-style execution used for benchmark characterization (Table 4).
    """

    AWS = "aws"
    AZURE = "azure"
    GCP = "gcp"
    IAAS = "iaas"
    LOCAL = "local"

    @property
    def display_name(self) -> str:
        """Human-readable platform name used in tables and reports."""
        return {
            Provider.AWS: "AWS Lambda",
            Provider.AZURE: "Azure Functions",
            Provider.GCP: "Google Cloud Functions",
            Provider.IAAS: "IaaS (VM)",
            Provider.LOCAL: "Local",
        }[self]


class Language(str, enum.Enum):
    """Benchmark implementation languages supported by SeBS."""

    PYTHON = "python"
    NODEJS = "nodejs"

    @property
    def display_name(self) -> str:
        """Human-readable language name used in tables and reports."""
        return {Language.PYTHON: "Python", Language.NODEJS: "Node.js"}[self]


class TriggerType(str, enum.Enum):
    """Function trigger mechanisms (Section 2, label 1)."""

    HTTP = "http"
    SDK = "sdk"
    TIMER = "timer"
    STORAGE = "storage"
    QUEUE = "queue"


class StartType(str, enum.Enum):
    """Whether an invocation hit a cold or a warm sandbox.

    ``NONE`` marks requests that never reached a sandbox at all — throttled
    or dropped by the admission layer (:mod:`repro.concurrency`).
    """

    COLD = "cold"
    WARM = "warm"
    BURST = "burst"
    NONE = "none"


class InvocationOutcome(str, enum.Enum):
    """Terminal outcome of one invocation request.

    ``COMPLETED`` and ``FAILED`` describe requests that actually executed
    (the function ran; ``FAILED`` covers runtime errors, OOM and timeouts).
    ``THROTTLED`` marks synchronous requests rejected by the concurrency
    limiter after exhausting their retry budget — they never occupied a
    sandbox and are not billed.  ``DROPPED`` marks asynchronous requests
    that spilled into the admission queue and were discarded (queue full,
    or aged out before capacity freed up).  ``FAULTED`` marks requests
    whose every attempt fell inside a fault-plane outage window
    (:mod:`repro.faults`) — the platform answered with errors, no sandbox
    was occupied, nothing was billed.  ``SHORT_CIRCUITED`` marks requests
    an open client circuit breaker (:mod:`repro.resilience`) rejected
    without contacting the platform at all.
    """

    COMPLETED = "completed"
    FAILED = "failed"
    THROTTLED = "throttled"
    DROPPED = "dropped"
    FAULTED = "faulted"
    SHORT_CIRCUITED = "short-circuited"


#: Default regions used by the paper's evaluation (Section 6, Configuration).
DEFAULT_REGIONS: Mapping[Provider, str] = {
    Provider.AWS: "us-east-1",
    Provider.AZURE: "WestEurope",
    Provider.GCP: "europe-west1",
    Provider.IAAS: "us-east-1",
    Provider.LOCAL: "local",
}

#: Memory sizes (MB) swept by the Perf-Cost experiment, per provider
#: (Figure 3).  Azure allocates memory dynamically, so it has a single
#: "dynamic" configuration represented by 0.
PERF_COST_MEMORY_SIZES: Mapping[Provider, tuple[int, ...]] = {
    Provider.AWS: (128, 256, 512, 1024, 1536, 2048, 3008),
    Provider.GCP: (128, 256, 512, 1024, 2048),
    Provider.AZURE: (0,),
    Provider.IAAS: (1024,),
    Provider.LOCAL: (1024,),
}

#: Sentinel memory value meaning "dynamically allocated" (Azure).
DYNAMIC_MEMORY = 0


@dataclass(frozen=True)
class FunctionConfig:
    """Deployment-time configuration for a single serverless function.

    Attributes
    ----------
    memory_mb:
        Sandbox memory allocation in megabytes (default ``256``).  ``0``
        (:data:`DYNAMIC_MEMORY`) means dynamically allocated, as on
        Azure's consumption plan.  Billing and warm performance scale
        with this value (Figure 3).
    timeout_s:
        Execution deadline in seconds (default ``300.0``, the common
        provider default).  Invocations exceeding it terminate as
        ``FAILED`` and are billed for the full timeout.
    language:
        Implementation language of the deployed benchmark (default
        :attr:`Language.PYTHON`).
    region:
        Deployment region identifier (default ``"us-east-1"``); selects
        the provider's region-specific network round-trip model.
    environment:
        Extra environment variables baked into the deployment (default
        empty).  Part of the hash/equality key like every other field.
    """

    memory_mb: int = 256
    timeout_s: float = 300.0
    language: Language = Language.PYTHON
    region: str = "us-east-1"
    environment: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.memory_mb < 0:
            raise ConfigurationError("memory_mb must be non-negative")
        if self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")

    def with_memory(self, memory_mb: int) -> "FunctionConfig":
        """Return a copy of this configuration with a different memory size."""
        return replace(self, memory_mb=memory_mb)

    @property
    def is_dynamic_memory(self) -> bool:
        """``True`` when memory is dynamically allocated (``memory_mb == 0``)."""
        return self.memory_mb == DYNAMIC_MEMORY


@dataclass(frozen=True)
class SimulationConfig:
    """Global knobs for the simulated cloud substrate.

    Attributes
    ----------
    seed:
        Master seed for every random stream in the simulation (default
        ``42``, non-negative).  Every substream derives from it by name
        (see ``docs/determinism.md``); two runs with the same seed and the
        same workload produce identical results.
    time_of_day_factor:
        Dimensionless multiplier (default ``1.0``, must be positive)
        applied to latency jitter to model localized spikes of cloud
        activity (Section 4.1 discusses running experiments at fixed
        times of day to minimize this effect).
    enable_failures:
        Whether to inject provider reliability issues (default ``True``;
        GCP out-of-memory and availability failures observed in
        Section 6.2 Q3).
    network_rtt_ms:
        Baseline client-to-region round-trip latencies in milliseconds,
        used when a region does not override them.  Defaults follow the
        paper's reported pings: 109 ms to AWS, 20 ms to Azure, 33 ms to
        GCP (0.1 ms for local execution).
    log_retention:
        Maximum number of provider-side log entries kept per function
        (what ``query_logs`` reads).  ``None`` (the default) keeps every
        entry; long trace replays should set a bound so the provider log
        does not grow O(invocations).
    overload:
        Concurrency-limit and throttling model
        (:class:`repro.concurrency.OverloadConfig`).  ``None`` (the
        default) admits every request unconditionally — the pre-overload
        behaviour, bit-identical to earlier releases.
    faults:
        Fault-injection plane (:class:`repro.faults.FaultPlaneConfig`):
        deterministic outage windows, correlated container crashes and
        latency storms injected into trace replay.  ``None`` (the default)
        injects nothing.
    resilience:
        Client-side resilience layer
        (:class:`repro.resilience.ResilienceConfig`): circuit breakers,
        hedged requests, fault retries and staleness deadlines for
        synchronous invocations.  ``None`` (the default) models a plain
        client.
    """

    seed: int = 42
    time_of_day_factor: float = 1.0
    enable_failures: bool = True
    log_retention: int | None = None
    overload: "OverloadConfig | None" = None
    faults: "FaultPlaneConfig | None" = None
    resilience: "ResilienceConfig | None" = None
    network_rtt_ms: Mapping[Provider, float] = field(
        default_factory=lambda: {
            Provider.AWS: 109.0,
            Provider.AZURE: 20.0,
            Provider.GCP: 33.0,
            Provider.IAAS: 109.0,
            Provider.LOCAL: 0.1,
        }
    )

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.time_of_day_factor <= 0:
            raise ConfigurationError("time_of_day_factor must be positive")
        if self.log_retention is not None and self.log_retention <= 0:
            raise ConfigurationError("log_retention must be positive (or None for unlimited)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by SeBS experiments (Section 5.2, 6).

    Attributes
    ----------
    samples:
        Number of measurements per configuration.  The paper selects N = 200
        so that non-parametric confidence intervals of the client time stay
        within 5% of the median.
    batch_size:
        Invocations issued per concurrent batch (the paper uses 50 to cover
        multiple sandboxes).
    confidence_levels:
        Confidence levels for the non-parametric intervals.
    target_ci_width:
        Target half-width of the confidence interval relative to the median
        (0.05 = within 5% of the median).
    """

    samples: int = 200
    batch_size: int = 50
    confidence_levels: tuple[float, ...] = (0.95, 0.99)
    target_ci_width: float = 0.05
    seed: int = 42

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ConfigurationError("samples must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        for level in self.confidence_levels:
            if not 0.0 < level < 1.0:
                raise ConfigurationError("confidence levels must lie in (0, 1)")
        if not 0.0 < self.target_ci_width < 1.0:
            raise ConfigurationError("target_ci_width must lie in (0, 1)")

    def scaled(self, factor: float) -> "ExperimentConfig":
        """Return a copy with the sample count scaled (used by quick runs)."""
        return replace(self, samples=max(1, int(self.samples * factor)))


def resolve_memory_sizes(provider: Provider, requested: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Return the memory sweep for ``provider``.

    If ``requested`` is given it is validated against the provider's allowed
    settings; otherwise the default sweep from the paper (Figure 3) is used.
    """
    defaults = PERF_COST_MEMORY_SIZES[provider]
    if requested is None:
        return defaults
    if provider is Provider.AZURE:
        # Azure only supports dynamic allocation in the consumption plan.
        return (DYNAMIC_MEMORY,)
    invalid = [size for size in requested if size <= 0]
    if invalid:
        raise ConfigurationError(f"invalid memory sizes for {provider.value}: {invalid}")
    return tuple(requested)


def config_to_dict(config: Any) -> dict[str, Any]:
    """Serialise a (possibly nested) dataclass configuration to plain dicts."""
    if hasattr(config, "__dataclass_fields__"):
        result = {}
        for name in config.__dataclass_fields__:
            result[name] = config_to_dict(getattr(config, name))
        return result
    if isinstance(config, enum.Enum):
        return config.value
    if isinstance(config, Mapping):
        return {str(key.value if isinstance(key, enum.Enum) else key): config_to_dict(value) for key, value in config.items()}
    if isinstance(config, (list, tuple)):
        return [config_to_dict(item) for item in config]
    return config
