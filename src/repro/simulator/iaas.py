"""IaaS (virtual machine) baseline platform.

Section 6.2 Q4 and 6.3 Q3 compare serverless functions against their natural
alternative: a rented VM (an AWS EC2 ``t2.micro`` with one vCPU and 1 GB of
memory, priced at $0.0116/hour) running the same benchmark in a local
Docker-based execution environment.  The VM is always on, so there are no
cold starts and no per-invocation request fees; the price is purely the
hourly rental, and throughput is limited by the single core.

Two storage configurations are evaluated (Table 5): the benchmark data on the
VM's local disk ("IaaS, Local") and on S3 ("IaaS, S3"), the latter being the
fairer comparison since functions must use cloud storage.
"""

from __future__ import annotations

from ..benchmarks.registry import BenchmarkRegistry
from ..config import Provider, SimulationConfig, StartType
from ..storage.latency import StorageLatencyModel
from ..utils.clock import VirtualClock
from .compute import ComputeModel
from .containers import Container, ContainerState
from .eviction import EvictionPolicy
from .platform_sim import SimulatedPlatform
from .profiles import IAAS_S3_STORAGE_PROFILE

_WARM = StartType.WARM


class _NeverEvict(EvictionPolicy):
    """The VM never evicts its worker process."""

    def apply(self, pool, now):  # type: ignore[override]
        return 0


class IaaSPlatform(SimulatedPlatform):
    """A persistent VM executing benchmarks without FaaS overheads."""

    provider = Provider.IAAS

    def __init__(
        self,
        simulation: SimulationConfig | None = None,
        clock: VirtualClock | None = None,
        registry: BenchmarkRegistry | None = None,
        execute_kernels: bool = False,
        use_cloud_storage: bool = False,
    ):
        super().__init__(simulation=simulation, clock=clock, registry=registry, execute_kernels=execute_kernels)
        self.use_cloud_storage = use_cloud_storage

    def _snapshot_init_kwargs(self) -> dict:
        # Workers must rebuild with the same storage configuration, or a
        # sharded replay would silently fall back to local-disk latency.
        return {"use_cloud_storage": self.use_cloud_storage}

    def _build_compute_model(self, fname: str) -> ComputeModel:
        compute = super()._build_compute_model(fname)
        if self.use_cloud_storage:
            # Replace the local-disk storage model with an S3-like one (per
            # function, like every other stochastic model).
            compute._storage_model = StorageLatencyModel(
                IAAS_S3_STORAGE_PROFILE, self._streams.stream("s3-storage", fname)
            )
        return compute

    def _build_eviction_policy(self) -> EvictionPolicy:
        return _NeverEvict()

    def _acquire_container(self, function, state, start_at):  # type: ignore[override]
        # The VM's worker process is always running: the first invocation
        # (and the first after an update, which evicts the old record)
        # creates the bookkeeping record, but every execution is "warm".
        # Taking the VM through pick_mru consumes the heap entry serve() and
        # release() push for it; the scan covers a VM that is busy.
        container = state.pool.pick_mru(function.version)
        if container is not None:
            return container, _WARM
        for container in state.pool.all_containers():
            if container.state is not ContainerState.EVICTED:
                return container, _WARM
        container = Container(
            function_name=function.name,
            function_version=function.version,
            memory_mb=function.config.memory_mb,
            created_at=start_at,
            container_id=state.pool.next_container_id(),
        )
        container.mark_warm(start_at)
        state.pool.add(container)
        return container, _WARM

    # ------------------------------------------------------------ utilities
    def hourly_cost(self) -> float:
        """Hourly rental price of the VM."""
        return self.billing.hourly_cost()

    def max_requests_per_hour(self, fname: str, samples: int = 50) -> float:
        """Throughput ceiling of the VM for ``fname`` at 100% utilisation.

        The VM serves requests back-to-back on its single core, so the
        sustainable request rate is ``3600 / median service time``.  Used by
        the break-even analysis (Table 6).
        """
        import numpy as np

        records = [self.invoke(fname, payload={}) for _ in range(samples)]
        median_time = float(np.median([record.provider_time_s for record in records]))
        if median_time <= 0:
            return float("inf")
        return 3600.0 / median_time
