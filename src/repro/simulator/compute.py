"""Execution-duration model of a sandbox.

Given a benchmark's :class:`~repro.benchmarks.base.WorkProfile`, a memory
configuration and a provider performance profile, the compute model produces
the three durations SeBS measures for every invocation:

* **benchmark time** — CPU work scaled by the memory-proportional CPU share
  (plateauing at one vCPU, since the kernels are single-threaded) plus the
  time spent in persistent-storage transfers (whose bandwidth also scales
  with memory);
* **cold initialisation time** — runtime/dependency import and, on a cold
  start, downloading the code package, plus the provider's provisioning
  latency (with the GCP high-memory penalty and the erratic component of
  Azure/GCP);
* **memory consumption** — the kernel's peak memory with a small amount of
  per-invocation noise (which is what makes borderline allocations fail
  occasionally on GCP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..benchmarks.base import WorkProfile
from ..config import DYNAMIC_MEMORY
from ..faas.limits import PlatformLimits
from ..storage.latency import StorageLatencyModel
from ..utils.rng import lognormal_sigma
from .profiles import ProviderPerformanceProfile


@dataclass(frozen=True)
class ExecutionSample:
    """One simulated execution of a benchmark inside a sandbox."""

    benchmark_time_s: float
    compute_time_s: float
    storage_time_s: float
    cold_init_s: float
    memory_used_mb: float


class ComputeModel:
    """Derives execution durations from work profiles and configurations."""

    def __init__(
        self,
        performance: ProviderPerformanceProfile,
        limits: PlatformLimits,
        rng: np.random.Generator,
    ):
        self._performance = performance
        self._limits = limits
        self._rng = rng
        self._storage_model = StorageLatencyModel(performance.storage, rng)
        # Pure-function caches for the per-invocation hot path.  Every entry
        # stores the exact float the inline computation would produce, so
        # replays are bit-identical with or without a warm cache.
        self._share_cache: dict[int, float] = {}

    @property
    def storage_model(self) -> StorageLatencyModel:
        return self._storage_model

    def effective_memory(self, memory_mb: int) -> int:
        """Memory used for CPU/bandwidth scaling (resolves dynamic allocation)."""
        if memory_mb == DYNAMIC_MEMORY:
            return self._performance.dynamic_memory_effective_mb
        return memory_mb

    def cpu_share(self, memory_mb: int) -> float:
        """Usable CPU share: proportional to memory, capped at one full vCPU."""
        cached = self._share_cache.get(memory_mb)
        if cached is None:
            share = self._limits.cpu_share(self.effective_memory(memory_mb))
            cached = self._share_cache[memory_mb] = float(min(1.0, share))
        return cached

    def _jitter(self, cv: float) -> float:
        if cv <= 0:
            return 1.0
        sigma = lognormal_sigma(cv)
        return float(self._rng.lognormal(mean=-sigma**2 / 2.0, sigma=sigma))

    def compute_time(self, profile: WorkProfile, memory_mb: int, concurrent: bool = False) -> float:
        """CPU portion of the benchmark time under ``memory_mb``."""
        performance = self._performance
        share = self.cpu_share(memory_mb)
        base = profile.warm_compute_s * performance.compute_speed_factor / share
        cv = performance.compute_jitter_cv
        if concurrent:
            cv *= performance.concurrency_jitter_factor
        return base * self._jitter(cv)

    def storage_time(self, profile: WorkProfile, memory_mb: int) -> float:
        """Persistent-storage portion of the benchmark time.

        A contention event (a co-located function saturating the server NIC)
        is drawn once per invocation and applied to every transfer, which is
        what turns long, storage-heavy invocations into stragglers.
        """
        effective = self.effective_memory(memory_mb)
        contention = self._storage_model.draw_contention()
        total = 0.0
        if profile.storage_read_bytes > 0 or profile.storage_read_requests > 0:
            requests = max(1, profile.storage_read_requests)
            per_request = profile.storage_read_bytes // requests
            for _ in range(requests):
                total += self._storage_model.transfer_time(per_request, effective, contention=contention)
        if profile.storage_write_bytes > 0 or profile.storage_write_requests > 0:
            requests = max(1, profile.storage_write_requests)
            per_request = profile.storage_write_bytes // requests
            for _ in range(requests):
                total += self._storage_model.transfer_time(per_request, effective, contention=contention)
        return total

    def cold_init_time(self, profile: WorkProfile, memory_mb: int, code_package_mb: float) -> float:
        """Cold-start latency: provisioning + package fetch + runtime init."""
        performance = self._performance
        cold = performance.cold_start
        share = self.cpu_share(memory_mb)
        provisioning = cold.provisioning_s * self._jitter(cold.jitter_cv)
        package_fetch = code_package_mb / cold.package_bandwidth_mbps
        runtime_init = profile.cold_init_s * cold.init_multiplier / share
        penalty = cold.highmem_penalty_s_per_gb * (self.effective_memory(memory_mb) / 1024.0)
        erratic = 0.0
        if cold.erratic_probability > 0 and self._rng.random() < cold.erratic_probability:
            erratic = float(self._rng.exponential(cold.erratic_scale_s))
        return provisioning + package_fetch + runtime_init + penalty + erratic

    def memory_used(self, profile: WorkProfile) -> float:
        """Peak memory of one invocation with small measurement noise."""
        noise = self._rng.normal(loc=1.0, scale=0.03)
        return float(max(1.0, profile.peak_memory_mb * max(0.85, noise)))

    def execute(
        self,
        profile: WorkProfile,
        memory_mb: int,
        cold: bool,
        code_package_mb: float,
        concurrent: bool = False,
    ) -> ExecutionSample:
        """Produce all durations of one invocation."""
        compute = self.compute_time(profile, memory_mb, concurrent)
        storage = self.storage_time(profile, memory_mb)
        cold_init = self.cold_init_time(profile, memory_mb, code_package_mb) if cold else 0.0
        return ExecutionSample(
            benchmark_time_s=compute + storage,
            compute_time_s=compute,
            storage_time_s=storage,
            cold_init_s=cold_init,
            memory_used_mb=self.memory_used(profile),
        )
