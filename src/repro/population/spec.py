"""Synthetic multi-tenant populations as lazy, picklable scenario recipes.

A :class:`PopulationSpec` is a pure parameter set — no arrays, no request
objects — describing a population of ``n_functions`` serverless functions
owned by ``n_tenants`` tenants:

* **popularity** is Zipf-distributed: function ``i`` carries mean rate
  ``aggregate_rate_per_s * (i+1)^-zipf_alpha / H`` (``H`` normalises the
  weights), so a handful of functions dominate traffic and a long tail is
  nearly idle — the shape production FaaS schedulers see;
* **diurnal shape**: every tenant has a phase offset into a shared
  sinusoidal day/night cycle, so tenants peak at different times;
* **correlated bursts**: the population shares ``burst_epochs`` burst
  windows; each tenant participates in each epoch with probability
  ``burst_participation``, and a participating tenant's functions run at
  ``burst_multiplier``× their instantaneous rate inside the window — many
  tenants spiking *together*, the correlated-overload case;
* **app profiles**: each function is assigned an
  :class:`~repro.population.profiles.AppProfile` from the catalog
  (benchmark kernel, memory envelope, payload envelope, trigger).

Everything derived is a pure function of ``(spec, seed)``: the structural
assignment (tenants, profiles, memory, payload sizes, phases, burst
membership) is computed vectorized from named ``(seed, "pop-structure", …)``
streams, and function ``i``'s arrival offsets come from its own
``derive_generator(seed, "pop", fname)`` stream — never from how many other
functions exist or which shard synthesizes them.  That is the same
derivation contract the simulator's per-function streams follow
(:mod:`repro.utils.rng`), and it is what makes sharded population replay
bit-identical to serial replay while the parent process never materialises
a single request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..config import TriggerType
from ..exceptions import ConfigurationError
from ..utils.rng import derive_generator
from ..workload.arrivals import ArrivalProcess
from ..workload.scenario import FunctionTraffic, Scenario
from .profiles import SEBS_PROFILES, AppProfile


@dataclass(frozen=True)
class FunctionRecipe:
    """Everything needed to deploy and drive one population member.

    Attributes
    ----------
    function_name:
        Deployed function name (also the arrival-stream derivation key).
    tenant:
        Name of the owning tenant.
    profile:
        The member's :class:`~repro.population.profiles.AppProfile`.
    memory_mb:
        Concrete memory size (MB) drawn from the profile's envelope.
    payload_bytes:
        Concrete request payload size (bytes) drawn from the profile's
        envelope.
    payload:
        Constant request payload mapping (shared across invocations).
    trigger:
        Request trigger type.
    """

    function_name: str
    tenant: str
    profile: AppProfile
    memory_mb: int
    payload_bytes: int
    payload: Mapping[str, Any]
    trigger: TriggerType


class _Structure:
    """Vectorized per-function structural assignment of one ``(spec, seed)``.

    Holds plain numpy arrays indexed by function: Zipf ``rates``,
    ``tenant`` ids, ``profile`` indices, ``memory_mb``, ``payload_bytes``;
    per-tenant ``phases``; and the shared burst schedule (``burst_starts``
    plus the per-tenant × per-epoch ``participation`` matrix).  Never
    pickled — workers recompute it (cheap, vectorized) from the spec.
    """

    __slots__ = (
        "rates", "tenant", "profile", "memory_mb", "payload_bytes",
        "phases", "burst_starts", "participation",
    )

    def __init__(self, spec: "PopulationSpec", seed: int) -> None:
        n = spec.n_functions
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** -spec.zipf_alpha
        self.rates = spec.aggregate_rate_per_s * weights / weights.sum()
        self.tenant = derive_generator(seed, "pop-structure", "tenant").integers(
            0, spec.tenants, size=n
        )
        mix = np.array([profile.mix_weight for profile in spec.profiles], dtype=float)
        boundaries = np.cumsum(mix / mix.sum())[:-1]
        self.profile = np.searchsorted(
            boundaries, derive_generator(seed, "pop-structure", "profile").random(n)
        )
        memory_draw = derive_generator(seed, "pop-structure", "memory").random(n)
        self.memory_mb = np.zeros(n, dtype=np.int64)
        for index, profile in enumerate(spec.profiles):
            mask = self.profile == index
            choices = np.asarray(profile.memory_mb_choices, dtype=np.int64)
            self.memory_mb[mask] = choices[
                np.minimum((memory_draw[mask] * len(choices)).astype(np.int64), len(choices) - 1)
            ]
        payload_draw = derive_generator(seed, "pop-structure", "payload").random(n)
        low = np.array([p.payload_bytes_range[0] for p in spec.profiles], dtype=float)
        high = np.array([p.payload_bytes_range[1] for p in spec.profiles], dtype=float)
        span = high[self.profile] - low[self.profile] + 1.0
        self.payload_bytes = (low[self.profile] + np.floor(payload_draw * span)).astype(np.int64)
        self.phases = (
            derive_generator(seed, "pop-structure", "phase").random(spec.tenants)
            * spec.period_s
        )
        epoch_rng = derive_generator(seed, "pop-structure", "burst-epochs")
        self.burst_starts = np.sort(
            epoch_rng.random(spec.burst_epochs)
            * max(0.0, spec.duration_s - spec.burst_window_resolved_s)
        )
        self.participation = (
            derive_generator(seed, "pop-structure", "burst-participation").random(
                (spec.tenants, spec.burst_epochs)
            )
            < spec.burst_participation
        )


@functools.lru_cache(maxsize=4)
def _structure(spec: "PopulationSpec", seed: int) -> _Structure:
    return _Structure(spec, seed)


@dataclass(frozen=True)
class PopulationSpec:
    """Parameter set of a synthetic multi-tenant population (picklable).

    Attributes
    ----------
    n_functions:
        Number of functions in the population.
    duration_s:
        Replay horizon in seconds; arrivals land in ``[0, duration_s)``.
    aggregate_rate_per_s:
        Expected population-wide arrival rate (invocations per second),
        split across functions by the Zipf weights.
    n_tenants:
        Number of tenants; ``None`` (default) derives
        ``max(1, n_functions // 8)``.
    zipf_alpha:
        Zipf popularity exponent (default 1.1); larger values concentrate
        more traffic on fewer functions.
    diurnal_amplitude:
        Day/night swing of the sinusoidal rate in ``[0, 1]`` (default 0.6);
        0 disables the diurnal shape.
    diurnal_period_s:
        Length of one diurnal cycle in seconds; ``None`` (default)
        compresses one full cycle into ``duration_s``.
    burst_epochs:
        Number of shared burst windows in the horizon (default 4; 0
        disables bursts).
    burst_window_s:
        Width of each burst window in seconds; ``None`` (default) derives
        ``duration_s / 50``.
    burst_multiplier:
        Rate multiplier a participating tenant's functions see inside a
        burst window (default 8.0).
    burst_participation:
        Probability, per tenant per epoch, of joining the burst
        (default 0.05).
    profiles:
        App-profile catalog functions are assigned from (default
        :data:`~repro.population.profiles.SEBS_PROFILES`).
    name:
        Population label, used in function names and the scenario bridge
        (default ``"population"``).
    """

    n_functions: int
    duration_s: float
    aggregate_rate_per_s: float
    n_tenants: int | None = None
    zipf_alpha: float = 1.1
    diurnal_amplitude: float = 0.6
    diurnal_period_s: float | None = None
    burst_epochs: int = 4
    burst_window_s: float | None = None
    burst_multiplier: float = 8.0
    burst_participation: float = 0.05
    profiles: tuple[AppProfile, ...] = SEBS_PROFILES
    name: str = "population"

    def __post_init__(self) -> None:
        """Validate all envelopes and derive-able defaults."""
        # Negated comparisons, so NaN fails every check; infinities are
        # rejected explicitly (they would only fail later, inside numpy).
        if self.n_functions < 1:
            raise ConfigurationError("a population needs at least one function")
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise ConfigurationError("population duration must be positive and finite")
        if not (self.aggregate_rate_per_s > 0 and math.isfinite(self.aggregate_rate_per_s)):
            raise ConfigurationError("aggregate arrival rate must be positive and finite")
        if self.n_tenants is not None and self.n_tenants < 1:
            raise ConfigurationError("a population needs at least one tenant")
        if not (self.zipf_alpha >= 0 and math.isfinite(self.zipf_alpha)):
            raise ConfigurationError("zipf_alpha must be non-negative and finite")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ConfigurationError("diurnal amplitude must lie in [0, 1]")
        if self.diurnal_period_s is not None and not (
            self.diurnal_period_s > 0 and math.isfinite(self.diurnal_period_s)
        ):
            raise ConfigurationError("diurnal period must be positive and finite")
        if self.burst_epochs < 0:
            raise ConfigurationError("burst_epochs must be non-negative")
        if self.burst_window_s is not None and not (
            self.burst_window_s > 0 and math.isfinite(self.burst_window_s)
        ):
            raise ConfigurationError("burst window must be positive and finite")
        if not (self.burst_multiplier >= 1.0 and math.isfinite(self.burst_multiplier)):
            raise ConfigurationError("burst multiplier must be at least 1 and finite")
        if not 0.0 <= self.burst_participation <= 1.0:
            raise ConfigurationError("burst participation must lie in [0, 1]")
        if not self.profiles:
            raise ConfigurationError("a population needs at least one app profile")

    # ------------------------------------------------------------ derived
    @property
    def tenants(self) -> int:
        """Resolved tenant count (defaults to one tenant per 8 functions)."""
        return self.n_tenants if self.n_tenants is not None else max(1, self.n_functions // 8)

    @property
    def period_s(self) -> float:
        """Resolved diurnal period (defaults to one cycle per horizon)."""
        return self.diurnal_period_s if self.diurnal_period_s is not None else self.duration_s

    @property
    def burst_window_resolved_s(self) -> float:
        """Resolved burst window width (defaults to ``duration_s / 50``)."""
        return self.burst_window_s if self.burst_window_s is not None else self.duration_s / 50.0

    def function_name(self, index: int) -> str:
        """Deployed name of member ``index`` (the stream derivation key)."""
        return f"{self.name}-{index:07d}"

    def tenant_name(self, tenant_index: int) -> str:
        """Display name of tenant ``tenant_index``."""
        return f"tenant-{tenant_index:06d}"

    def expected_counts(self) -> np.ndarray:
        """Per-function expected invocation counts (shard-planner weights).

        The Zipf mean rates times the horizon; burst uplift is ignored (it
        shifts balance, never correctness, exactly like the estimates of
        :meth:`repro.workload.arrivals.ArrivalProcess.expected_invocations`).
        """
        ranks = np.arange(1, self.n_functions + 1, dtype=float)
        weights = ranks ** -self.zipf_alpha
        return self.aggregate_rate_per_s * self.duration_s * weights / weights.sum()

    def tenant_of(self, seed: int) -> np.ndarray:
        """Per-function tenant indices under ``seed`` (vectorized)."""
        return _structure(self, seed).tenant

    # ------------------------------------------------------------- recipes
    def recipe(self, index: int, seed: int) -> FunctionRecipe:
        """The deployment + traffic recipe of member ``index``."""
        structure = _structure(self, seed)
        profile = self.profiles[int(structure.profile[index])]
        return FunctionRecipe(
            function_name=self.function_name(index),
            tenant=self.tenant_name(int(structure.tenant[index])),
            profile=profile,
            memory_mb=int(structure.memory_mb[index]),
            payload_bytes=int(structure.payload_bytes[index]),
            payload=profile.payload,
            trigger=profile.trigger,
        )

    def arrivals(self, index: int, seed: int) -> np.ndarray:
        """Sorted arrival offsets of member ``index`` in ``[0, duration_s)``.

        A non-homogeneous Poisson process sampled by vectorized thinning
        from ``derive_generator(seed, "pop", fname)``.  The draw sequence
        is fixed — one Poisson count, one uniform block for candidate
        times, one uniform block for acceptance — so the offsets depend
        only on ``(spec, seed, index)``, never on sharding or synthesis
        order.
        """
        structure = _structure(self, seed)
        rng = derive_generator(seed, "pop", self.function_name(index))
        rate = float(structure.rates[index])
        tenant = int(structure.tenant[index])
        participates = structure.participation[tenant]
        bursty = bool(participates.any())
        peak = rate * (1.0 + self.diurnal_amplitude)
        if bursty:
            peak *= self.burst_multiplier
        count = int(rng.poisson(peak * self.duration_s))
        if count == 0:
            return np.empty(0, dtype=float)
        times = np.sort(rng.random(count) * self.duration_s)
        accept = rng.random(count) * peak
        cycle = np.sin(
            2.0 * np.pi * (times + structure.phases[tenant]) / self.period_s
        )
        rate_t = rate * (1.0 + self.diurnal_amplitude * cycle)
        if bursty:
            in_burst = np.zeros(count, dtype=bool)
            window = self.burst_window_resolved_s
            for epoch, start in enumerate(structure.burst_starts):
                if participates[epoch]:
                    in_burst |= (times >= start) & (times < start + window)
            rate_t = np.where(in_burst, rate_t * self.burst_multiplier, rate_t)
        return times[accept <= rate_t]

    def traffic(self, index: int, seed: int) -> FunctionTraffic:
        """Member ``index`` as a scenario traffic source."""
        recipe = self.recipe(index, seed)
        return FunctionTraffic(
            function_name=recipe.function_name,
            process=PopulationArrivals(self, seed, index),
            payload=recipe.payload,
            payload_bytes=recipe.payload_bytes,
            trigger=recipe.trigger,
        )

    def scenario(self, seed: int, limit: int | None = None) -> Scenario:
        """Bridge the population into a :class:`~repro.workload.scenario.Scenario`.

        The returned scenario's per-source arrivals are **pinned** to the
        population streams (see :class:`PopulationArrivals`), so
        ``platform.run_workload(spec.scenario(seed), keep_records=False)``
        replays the exact invocations :func:`~repro.population.replay
        .replay_population` replays — the equivalence the test suite pins.
        ``limit`` truncates to the first ``limit`` members (the scenario
        path materialises per-source traces, so it suits small
        populations; the dedicated replay path scales to millions).
        """
        members = range(self.n_functions if limit is None else min(limit, self.n_functions))
        return Scenario(
            name=self.name,
            duration_s=self.duration_s,
            traffic=tuple(self.traffic(index, seed) for index in members),
        )


class PopulationArrivals(ArrivalProcess):
    """Arrival process of one population member, pinned to its derived stream.

    Unlike the classic processes in :mod:`repro.workload.arrivals`, this
    process **ignores the caller-supplied generator**: its offsets always
    come from the member's own ``(seed, "pop", fname)`` stream via
    :meth:`PopulationSpec.arrivals`.  That pinning is what lets the
    scenario bridge and the dedicated population replay produce identical
    traffic — whichever machinery asks for the arrivals, the same stream
    answers.
    """

    def __init__(self, population, seed: int, index: int):
        """Bind the process to ``population`` member ``index`` under ``seed``."""
        self.population = population
        self.seed = int(seed)
        self.index = int(index)

    @property
    def name(self) -> str:
        """Identifier naming the member this process drives."""
        return f"population[{self.population.function_name(self.index)}]"

    def expected_invocations(self, duration_s: float) -> float:
        """Planner weight: the member's expected count over the horizon."""
        self._check_duration(duration_s)
        return float(self.population.expected_counts()[self.index])

    def generate(self, duration_s: float, rng: np.random.Generator) -> np.ndarray:
        """Return the member's pinned arrival offsets (``rng`` is unused)."""
        self._check_duration(duration_s)
        return self.population.arrivals(self.index, self.seed)

    def _check_duration(self, duration_s: float) -> None:
        if float(duration_s) != float(self.population.duration_s):
            raise ConfigurationError(
                "population arrivals are pinned to the population horizon "
                f"({self.population.duration_s}s); cannot generate for {duration_s}s"
            )
