"""Production-trace ingestion: Azure Functions invocation-per-minute CSVs.

The Azure Functions 2019 trace (Shahrad et al., ATC'20 — the dataset the
serverless community characterises production load with) ships per-function
invocation counts as wide CSVs: one row per function with hashed owner /
app / function ids, a trigger column, and one column per minute of the day
("1" … "1440") holding that minute's invocation count.  :class:`TraceIngest`
parses that format — any number of minute columns, so trimmed fixtures work
too — into an :class:`IngestedPopulation` that satisfies the same lazy
recipe protocol as :class:`~repro.population.spec.PopulationSpec`:

* tenants are the ``HashApp`` ids (an app groups the functions deployed
  together, which is the Azure billing/ownership unit);
* each function's arrivals are reconstructed from its count row by placing
  ``count`` invocations uniformly inside each minute, drawn from the
  function's own ``(seed, "pop", fname)`` stream — shard-independent like
  every other stream in the simulator;
* app profiles from the catalog are assigned round-robin (the trace has no
  resource information), with deterministic memory / payload choices so
  ingest needs no extra randomness.

Because the adapter only keeps the count matrix (O(functions × minutes)),
replaying a trace slice never materialises requests in the parent process —
shards synthesize their own arrivals exactly as with synthetic populations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..config import TriggerType
from ..exceptions import ConfigurationError
from ..utils.rng import derive_generator
from ..workload.scenario import FunctionTraffic, Scenario
from .profiles import SEBS_PROFILES, AppProfile
from .spec import FunctionRecipe, PopulationArrivals

#: Azure trace ``Trigger`` column values mapped onto simulator trigger types.
#: Any other value, an empty cell included, is rejected at load; a file
#: without a ``Trigger`` column maps every function to HTTP.
TRIGGER_MAP: Mapping[str, TriggerType] = {
    "http": TriggerType.HTTP,
    "queue": TriggerType.QUEUE,
    "timer": TriggerType.TIMER,
    "storage": TriggerType.STORAGE,
    "blob": TriggerType.STORAGE,
    "event": TriggerType.QUEUE,
    "orchestration": TriggerType.QUEUE,
    "others": TriggerType.HTTP,
}


@dataclass(frozen=True, eq=False)
class IngestedPopulation:
    """A trace-derived population satisfying the lazy recipe protocol.

    Attributes
    ----------
    name:
        Population label (defaults to the source file stem).
    function_names:
        Deployed function name per member, in row order.
    tenant_index:
        Per-member tenant index into ``tenant_names``.
    tenant_names:
        Distinct tenant (``HashApp``) labels, first-seen order.
    triggers:
        Per-member trigger type mapped from the trace's ``Trigger`` column.
    counts:
        ``(n_functions, n_minutes)`` invocation-count matrix.
    profiles:
        Catalog the members' app profiles are assigned from (round-robin).
    """

    name: str
    function_names: tuple[str, ...]
    tenant_index: tuple[int, ...]
    tenant_names: tuple[str, ...]
    triggers: tuple[TriggerType, ...]
    counts: np.ndarray = field(repr=False)
    profiles: tuple[AppProfile, ...] = SEBS_PROFILES

    def __post_init__(self) -> None:
        """Validate row/column consistency of the ingested matrix."""
        if not self.function_names:
            raise ConfigurationError("ingested population has no functions")
        if self.counts.shape[0] != len(self.function_names):
            raise ConfigurationError("count matrix rows must match function count")
        if self.counts.shape[1] < 1:
            raise ConfigurationError("ingested trace needs at least one minute column")
        if len(self.tenant_index) != len(self.function_names):
            raise ConfigurationError("tenant assignment must match function count")
        if not self.profiles:
            raise ConfigurationError("ingested population needs at least one app profile")

    # -------------------------------------------------- protocol properties
    @property
    def n_functions(self) -> int:
        """Number of functions (trace rows)."""
        return len(self.function_names)

    @property
    def duration_s(self) -> float:
        """Replay horizon: 60 s per minute column."""
        return 60.0 * self.counts.shape[1]

    def function_name(self, index: int) -> str:
        """Deployed name of member ``index`` (the stream derivation key)."""
        return self.function_names[index]

    def tenant_name(self, tenant_index: int) -> str:
        """Display name of tenant ``tenant_index``."""
        return self.tenant_names[tenant_index]

    def expected_counts(self) -> np.ndarray:
        """Per-function total invocation counts (exact, from the trace)."""
        return self.counts.sum(axis=1).astype(float)

    def tenant_of(self, seed: int) -> np.ndarray:
        """Per-function tenant indices (trace-given; ``seed`` is unused)."""
        return np.asarray(self.tenant_index, dtype=np.int64)

    # -------------------------------------------------------------- recipes
    def recipe(self, index: int, seed: int) -> FunctionRecipe:
        """The deployment + traffic recipe of member ``index``.

        The trace carries no resource data, so the profile assignment is
        deterministic: catalog round-robin by row, first memory choice,
        payload-range midpoint.
        """
        profile = self.profiles[index % len(self.profiles)]
        low, high = profile.payload_bytes_range
        return FunctionRecipe(
            function_name=self.function_names[index],
            tenant=self.tenant_names[self.tenant_index[index]],
            profile=profile,
            memory_mb=profile.memory_mb_choices[0],
            payload_bytes=(low + high) // 2,
            payload=profile.payload,
            trigger=self.triggers[index],
        )

    def arrivals(self, index: int, seed: int) -> np.ndarray:
        """Sorted arrival offsets reconstructed from member ``index``'s row.

        Each minute's ``count`` invocations are placed uniformly inside that
        minute using the member's own ``(seed, "pop", fname)`` stream — one
        uniform block in row order, so the offsets depend only on
        ``(trace row, seed)``, never on sharding.
        """
        row = self.counts[index]
        total = int(row.sum())
        if total == 0:
            return np.empty(0, dtype=float)
        rng = derive_generator(seed, "pop", self.function_names[index])
        minute_of = np.repeat(np.arange(row.shape[0], dtype=float), row)
        return np.sort(60.0 * (minute_of + rng.random(total)))

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
        """Bridge the ingested trace into a scenario (see ``PopulationSpec``)."""
        members = range(self.n_functions if limit is None else min(limit, self.n_functions))
        return Scenario(
            name=self.name,
            duration_s=self.duration_s,
            traffic=tuple(self.traffic(index, seed) for index in members),
        )


class TraceIngest:
    """Parser for Azure Functions invocation-per-minute CSV traces."""

    #: Identity columns expected before the minute columns.
    ID_COLUMNS = ("HashOwner", "HashApp", "HashFunction")

    @staticmethod
    def load(
        path: str | Path,
        *,
        name: str | None = None,
        limit: int | None = None,
        profiles: tuple[AppProfile, ...] = SEBS_PROFILES,
    ) -> IngestedPopulation:
        """Parse ``path`` into an :class:`IngestedPopulation`.

        Parameters
        ----------
        path:
            CSV file in the Azure invocation-per-minute format (header with
            ``HashOwner, HashApp, HashFunction, Trigger`` followed by
            numeric minute columns; any number of minute columns works).
        name:
            Population label; defaults to the file stem.
        limit:
            Keep only the first ``limit`` rows (for slicing huge traces).
        profiles:
            App-profile catalog to assign round-robin.
        """
        path = Path(path)
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigurationError(f"trace file {path} is empty") from None
            columns = {column: i for i, column in enumerate(header)}
            for column in TraceIngest.ID_COLUMNS:
                if column not in columns:
                    raise ConfigurationError(
                        f"trace file {path} is missing column {column!r}; "
                        "expected the Azure invocation-per-minute format"
                    )
            trigger_col = columns.get("Trigger")
            minute_cols = [i for i, column in enumerate(header) if column.isdigit()]
            if not minute_cols:
                raise ConfigurationError(
                    f"trace file {path} has no numeric minute columns"
                )
            minute_cols.sort(key=lambda i: int(header[i]))

            function_names: list[str] = []
            tenant_index: list[int] = []
            tenant_names: list[str] = []
            tenant_of: dict[str, int] = {}
            triggers: list[TriggerType] = []
            rows: list[list[float]] = []
            #: File line of each kept row, by its (owner, app, function) identity.
            identities: dict[tuple[str, str, str], int] = {}
            for row_number, row in enumerate(reader):
                if limit is not None and len(rows) >= limit:
                    break
                if not row:
                    continue
                if len(row) < len(header):
                    raise ConfigurationError(
                        f"trace file {path} row {row_number + 2} has "
                        f"{len(row)} fields, expected {len(header)}"
                    )
                app = row[columns["HashApp"]]
                fn = row[columns["HashFunction"]]
                identity = (row[columns["HashOwner"]], app, fn)
                if identity in identities:
                    raise ConfigurationError(
                        f"trace file {path} row {row_number + 2} repeats the "
                        f"(HashOwner, HashApp, HashFunction) of row {identities[identity]}"
                    )
                identities[identity] = row_number + 2
                if app not in tenant_of:
                    tenant_of[app] = len(tenant_names)
                    tenant_names.append(f"app-{app[:12]}")
                tenant_index.append(tenant_of[app])
                function_names.append(f"az-{len(rows):05d}-{fn[:8]}")
                trigger = TriggerType.HTTP
                if trigger_col is not None:
                    trigger = TRIGGER_MAP.get(row[trigger_col].strip().lower())
                    if trigger is None:
                        raise ConfigurationError(
                            f"trace file {path} row {row_number + 2} has an unmapped "
                            f"Trigger label {row[trigger_col]!r}; expected one of "
                            f"{', '.join(TRIGGER_MAP)}"
                        )
                triggers.append(trigger)
                try:
                    rows.append([float(row[i]) for i in minute_cols])
                except ValueError as error:
                    raise ConfigurationError(
                        f"trace file {path} row {row_number + 2} has a "
                        f"non-numeric invocation count: {error}"
                    ) from None
        if not rows:
            raise ConfigurationError(f"trace file {path} has no data rows")
        counts = np.asarray(rows, dtype=np.float64)
        for kind, bad in (
            ("non-finite", ~np.isfinite(counts)),
            ("negative", counts < 0),
            ("non-integer", counts != np.floor(counts)),
            ("too large", counts > 2.0**62),
        ):
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise ConfigurationError(
                    f"trace file {path} row {list(identities.values())[r]} has a "
                    f"{kind} invocation count: {float(counts[r, c])}"
                )
        return IngestedPopulation(
            name=name or path.stem,
            function_names=tuple(function_names),
            tenant_index=tuple(tenant_index),
            tenant_names=tuple(tenant_names),
            triggers=tuple(triggers),
            counts=counts.astype(np.int64),
            profiles=profiles,
        )


def summarize_population(population: Any, seed: int) -> dict[str, Any]:
    """Small structural summary of a population (used by CLI and goldens)."""
    counts = population.expected_counts()
    tenants = population.tenant_of(seed)
    return {
        "name": population.name,
        "functions": int(population.n_functions),
        "tenants": int(len(np.unique(tenants))),
        "duration_s": float(population.duration_s),
        "expected_invocations": float(counts.sum()),
        "hottest_function": population.function_name(int(np.argmax(counts))),
        "hottest_share": float(counts.max() / counts.sum()) if counts.sum() else 0.0,
    }
