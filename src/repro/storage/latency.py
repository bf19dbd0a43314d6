"""Latency and throughput model of cloud storage access.

The paper shows (Section 6.2 Q1/Q3) that I/O-bound benchmarks such as
``uploader`` and ``compression`` have the widest latency distributions: I/O
bandwidth scales with the function's memory allocation, and co-located
invocations contend for the server's network bandwidth, producing long tails
and outliers.  This module turns a storage operation (bytes transferred,
direction, memory allocation) into a simulated duration with those
characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import lognormal_jitter


@dataclass(frozen=True)
class StorageProfile:
    """Throughput/latency parameters for one provider's persistent storage.

    Attributes
    ----------
    base_latency_s:
        Fixed per-request latency (connection setup + first byte).
    peak_bandwidth_mbps:
        Download/upload bandwidth (MB/s) available to a function at the
        reference memory size.
    reference_memory_mb:
        Memory size at which ``peak_bandwidth_mbps`` applies; bandwidth scales
        linearly below it (CPU and network share are proportional to memory)
        and saturates above it.
    jitter_cv:
        Coefficient of variation of the log-normal latency noise.
    contention_tail_probability:
        Probability that a request experiences a contention event (another
        co-located function saturating the NIC), multiplying its duration by
        ``contention_slowdown``.
    """

    base_latency_s: float = 0.02
    peak_bandwidth_mbps: float = 80.0
    reference_memory_mb: int = 1024
    jitter_cv: float = 0.15
    contention_tail_probability: float = 0.05
    contention_slowdown: float = 3.0

    def __post_init__(self) -> None:
        if self.base_latency_s < 0 or self.peak_bandwidth_mbps <= 0:
            raise ConfigurationError("storage profile latencies/bandwidths must be positive")
        if not 0 <= self.contention_tail_probability < 1:
            raise ConfigurationError("contention_tail_probability must lie in [0, 1)")


class StorageLatencyModel:
    """Computes simulated durations of storage transfers."""

    def __init__(self, profile: StorageProfile, rng: np.random.Generator):
        self._profile = profile
        self._rng = rng

    @property
    def profile(self) -> StorageProfile:
        return self._profile

    def bandwidth_mbps(self, memory_mb: int) -> float:
        """Effective bandwidth for a function with ``memory_mb`` of memory.

        Bandwidth grows linearly with the memory allocation up to the
        reference size and saturates afterwards, mirroring the
        CPU-proportional-to-memory allocation policy of AWS and GCP.
        """
        if memory_mb <= 0:
            # Dynamic allocation (Azure): behave like the reference size.
            return self._profile.peak_bandwidth_mbps
        share = min(1.0, memory_mb / self._profile.reference_memory_mb)
        # Even the smallest functions retain a fraction of the NIC.
        share = max(share, 0.1)
        return self._profile.peak_bandwidth_mbps * share

    def transfer_base(self, num_bytes: int, memory_mb: int) -> float:
        """Duration of one transfer before jitter and contention."""
        return self._profile.base_latency_s + num_bytes / (self.bandwidth_mbps(memory_mb) * 1024 * 1024)

    def transfer_time(self, num_bytes: int, memory_mb: int, contention: bool | None = None) -> float:
        """Simulated duration (seconds) of transferring ``num_bytes``.

        ``contention`` forces or suppresses a co-location contention event;
        when ``None`` (stand-alone use) the event is drawn per transfer.
        Invocation-level callers draw it once per invocation instead, because
        a co-located noisy neighbour slows down *all* transfers of that
        invocation, producing the stragglers observed for ``compression``.
        """
        if num_bytes < 0:
            raise ConfigurationError("cannot transfer a negative number of bytes")
        profile = self._profile
        duration = self.transfer_base(num_bytes, memory_mb)
        # Log-normal multiplicative jitter keeps durations positive and
        # produces the right-skewed distributions observed in the paper.
        jitter = lognormal_jitter(profile.jitter_cv)
        if jitter is not None:
            duration *= float(self._rng.lognormal(mean=jitter[0], sigma=jitter[1]))
        if contention is None:
            contention = self.draw_contention()
        if contention:
            duration *= profile.contention_slowdown
        return float(duration)

    def draw_contention(self) -> bool:
        """Draw whether an invocation experiences a co-location contention event."""
        return bool(self._rng.random() < self._profile.contention_tail_probability)

    def request_time(self, memory_mb: int) -> float:
        """Duration of a metadata-only request (list, delete, head)."""
        return self.transfer_time(0, memory_mb)
