"""Platform snapshots: rebuild an identical deployment inside a worker.

Sharded replay cannot ship a live :class:`~repro.simulator.platform_sim.SimulatedPlatform`
to a worker process — it holds generators and heaps mid-state.
What it *can* ship is the recipe: the platform class, the simulation
configuration, the clock position and the deployed functions' packages and
configurations.  Because every per-function random stream is derived from
``(seed, stream kind, function name)`` — never from creation order — a
platform rebuilt from the recipe with any *subset* of the functions draws
exactly the numbers the original full deployment would have drawn for those
functions.

Snapshots require a **freshly deployed** platform (no invocation has ever
run): once sandboxes exist and streams have advanced, that state cannot be
reproduced from a recipe, so :meth:`PlatformSnapshot.capture` refuses.
``execute_kernels`` deployments are refused too — kernels read and write
one shared object store, which sharding cannot partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..benchmarks.base import InputSize
from ..config import FunctionConfig, SimulationConfig
from ..exceptions import ConfigurationError
from ..faas.function import CodePackage
from ..utils.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator.platform_sim import SimulatedPlatform


@dataclass(frozen=True)
class FunctionSnapshot:
    """The deployment recipe of one function."""

    fname: str
    package: CodePackage
    config: FunctionConfig
    input_size: InputSize


@dataclass(frozen=True)
class PlatformSnapshot:
    """A picklable recipe that rebuilds an identical fresh deployment."""

    platform_class: type
    simulation: SimulationConfig
    clock_start: float
    functions: tuple[FunctionSnapshot, ...]
    #: Extra constructor kwargs the platform class needs to be rebuilt
    #: faithfully (e.g. IaaS ``use_cloud_storage``), as sorted pairs.
    init_kwargs: tuple[tuple[str, object], ...] = ()

    @classmethod
    def capture(cls, platform: "SimulatedPlatform") -> "PlatformSnapshot":
        if platform.execute_kernels:
            raise ConfigurationError(
                "sharded replay does not support execute_kernels=True: kernels "
                "share one object store, which cannot be partitioned per shard"
            )
        for state in platform._state.values():
            if state.pool.creation_log or state.history:
                raise ConfigurationError(
                    "sharded replay requires a freshly deployed platform "
                    f"(function {state.pool.function_name!r} has already served "
                    "invocations; its sandbox/stream state cannot be rebuilt in workers)"
                )
        functions = tuple(
            FunctionSnapshot(
                fname=fname,
                package=platform.get_function(fname).package,
                config=platform.get_function(fname).config,
                input_size=platform._runtime_state(fname).input_size,
            )
            for fname in platform.functions()
        )
        return cls(
            platform_class=type(platform),
            simulation=platform.simulation,
            clock_start=platform.clock.now(),
            functions=functions,
            init_kwargs=tuple(sorted(platform._snapshot_init_kwargs().items())),
        )

    def build(self, only_functions: tuple[str, ...] | None = None) -> "SimulatedPlatform":
        """Instantiate the platform and deploy (a subset of) its functions.

        Deploying only a shard's functions is safe *because* of the
        name-keyed stream derivation: the other functions' absence changes
        no draw the shard's functions make.  It also keeps worker start-up
        O(shard) instead of O(deployment).
        """
        platform = self.platform_class(
            simulation=self.simulation,
            clock=VirtualClock(self.clock_start),
            **dict(self.init_kwargs),
        )
        wanted = None if only_functions is None else set(only_functions)
        for snapshot in self.functions:
            if wanted is not None and snapshot.fname not in wanted:
                continue
            platform.create_function(snapshot.fname, snapshot.package, snapshot.config)
            platform.set_input_size(snapshot.fname, snapshot.input_size)
        return platform
