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

from typing import NamedTuple

import numpy as np

from ..benchmarks.base import WorkProfile
from ..config import DYNAMIC_MEMORY
from ..faas.limits import PlatformLimits
from ..storage.latency import StorageLatencyModel
from ..utils.rng import lognormal_jitter
from .profiles import ProviderPerformanceProfile


class CompiledCompute(NamedTuple):
    """Per-class constants of :class:`ComputeModel` (see :meth:`ComputeModel.compile`)."""

    #: CPU time before jitter: the warm compute time over the CPU share.
    compute_base: float
    #: ``(mean, sigma)`` of the compute jitter of a solo and of a concurrent
    #: invocation; ``None``: no jitter, no draw.
    jit_solo: tuple[float, float] | None
    jit_conc: tuple[float, float] | None
    #: Duration of each storage transfer before jitter and contention, reads
    #: then writes (empty when the profile does no storage I/O).
    storage_bases: tuple[float, ...]
    storage_jitter: tuple[float, float] | None
    contention_p: float
    contention_slowdown: float


def storage_burst_time(constants, lognormal, contention: bool) -> float:
    """The storage part of one invocation: all its transfers, summed.

    ``constants`` carries ``storage_bases``, ``storage_jitter`` and
    ``contention_slowdown`` (a :class:`CompiledCompute` or a columnar lane);
    ``lognormal`` is the storage stream's ``Generator.lognormal``.  One
    ``size=k`` draw serves the jitters of all ``k`` transfers: it consumes
    the stream exactly like ``k`` scalar draws, and the durations add up in
    transfer order, so the sum equals ``k`` calls of
    :meth:`~repro.storage.latency.StorageLatencyModel.transfer_time` bit for
    bit.
    """
    bases = constants.storage_bases
    if not bases:
        return 0.0
    total = 0.0
    jitter = constants.storage_jitter
    if jitter is not None:
        jitters = lognormal(jitter[0], jitter[1], len(bases)).tolist()
        if contention:
            slowdown = constants.contention_slowdown
            for base, value in zip(bases, jitters):
                total += base * value * slowdown
        else:
            for base, value in zip(bases, jitters):
                total += base * value
    elif contention:
        slowdown = constants.contention_slowdown
        for base in bases:
            total += base * slowdown
    else:
        for base in bases:
            total += base
    return total


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
        return float(min(1.0, self._limits.cpu_share(self.effective_memory(memory_mb))))

    def compile(self, profile: WorkProfile, memory_mb: int) -> CompiledCompute:
        """The constants every invocation of ``profile`` under ``memory_mb`` shares.

        The storage constants come from this model's storage model, which a
        platform may replace (IaaS reads its data from S3).
        """
        performance = self._performance
        storage = self._storage_model
        effective = self.effective_memory(memory_mb)
        bases: list[float] = []
        for size, requests in (
            (profile.storage_read_bytes, profile.storage_read_requests),
            (profile.storage_write_bytes, profile.storage_write_requests),
        ):
            if size > 0 or requests > 0:
                requests = max(1, requests)
                bases += [storage.transfer_base(size // requests, effective)] * requests
        cv = performance.compute_jitter_cv
        return CompiledCompute(
            compute_base=profile.warm_compute_s * performance.compute_speed_factor / self.cpu_share(memory_mb),
            jit_solo=lognormal_jitter(cv),
            jit_conc=lognormal_jitter(cv * performance.concurrency_jitter_factor),
            storage_bases=tuple(bases),
            storage_jitter=lognormal_jitter(storage.profile.jitter_cv),
            contention_p=storage.profile.contention_tail_probability,
            contention_slowdown=storage.profile.contention_slowdown,
        )

    def _jitter(self, params: tuple[float, float] | None) -> float:
        if params is None:
            return 1.0
        return float(self._rng.lognormal(mean=params[0], sigma=params[1]))

    def _compute_time(self, compiled: CompiledCompute, concurrent: bool) -> float:
        return compiled.compute_base * self._jitter(compiled.jit_conc if concurrent else compiled.jit_solo)

    def _storage_time(self, compiled: CompiledCompute) -> float:
        # A contention event (a co-located function saturating the server
        # NIC) is drawn once per invocation and applied to every transfer,
        # which is what turns long, storage-heavy invocations into stragglers.
        storage = self._storage_model
        contention = storage.draw_contention()
        return storage_burst_time(compiled, storage._rng.lognormal, contention)

    def benchmark_time(self, compiled: CompiledCompute, concurrent: bool) -> float:
        """Compute plus storage time of one invocation of ``compiled``'s class.

        Draws the compute jitter, the contention event, then the transfer
        jitters, in the order the columnar loop replays them.
        """
        return self._compute_time(compiled, concurrent) + self._storage_time(compiled)

    def compute_time(self, profile: WorkProfile, memory_mb: int, concurrent: bool = False) -> float:
        """CPU portion of the benchmark time under ``memory_mb``."""
        return self._compute_time(self.compile(profile, memory_mb), concurrent)

    def storage_time(self, profile: WorkProfile, memory_mb: int) -> float:
        """Persistent-storage portion of the benchmark time."""
        return self._storage_time(self.compile(profile, memory_mb))

    def cold_init_time(self, profile: WorkProfile, memory_mb: int, code_package_mb: float) -> float:
        """Cold-start latency: provisioning + package fetch + runtime init."""
        performance = self._performance
        cold = performance.cold_start
        share = self.cpu_share(memory_mb)
        provisioning = cold.provisioning_s * self._jitter(lognormal_jitter(cold.jitter_cv))
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
