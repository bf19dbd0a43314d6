"""Windowed metrics over *simulated* time, with an exact sharded merge.

:class:`TimeSeriesBuilder` is a :class:`~repro.observe.events.ReplayObserver`
that folds the event stream into per-function, per-window counters:

* arrivals (by submission window) and completions / goodput (by finish
  window), plus throttle / drop / fault / short-circuit / failure and
  cold-start counts;
* in-flight concurrency and warm-pool occupancy as *delta* series (+1 on
  start / create, −1 on finish / evict) that are prefix-summed only at
  export, so building stays O(1) per event;
* per-window client-latency percentiles via the exact mergeable bottom-k
  reservoirs of :mod:`repro.stats.streaming`, keyed by
  ``"<function>/w<window>"`` — the reservoir's priority tags are a pure
  function of (seed, key, value, insertion index within the window's
  per-function substream), so the union of shard-local reservoirs equals
  the serial reservoir element-for-element.

Memory is O(active windows x functions + reservoir capacity): windows are
sparse dicts, untouched buckets cost nothing.  :meth:`TimeSeriesBuilder.merge`
combines shard-local builders with integer sums and reservoir unions —
commutative and exact — so a sharded replay produces the *identical*
series as a serial one (proved in :mod:`tests.test_observe`).

:class:`TimeSeriesSpec` is the picklable recipe shipped to shard workers;
each worker builds its own :class:`TimeSeriesBuilder` from it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from ..config import InvocationOutcome, StartType
from ..exceptions import ConfigurationError
from ..faas.invocation import InvocationRecord
from ..stats.streaming import MergeableReservoir
from .events import ReplayObserver

#: Enum singletons hoisted for identity checks on the per-record hot path
#: (the ``executed``/``is_cold`` record properties cost a call each).
_COMPLETED = InvocationOutcome.COMPLETED
_FAILED = InvocationOutcome.FAILED
_COLD = StartType.COLD

#: Default simulated-time bucket width (seconds).
DEFAULT_WINDOW_S = 5.0

#: Default per-window latency percentiles.
DEFAULT_WINDOW_PERCENTILES = (50.0, 95.0, 99.0)

#: Default per-window reservoir capacity.  Deliberately smaller than the
#: end-of-run reservoirs: there is one reservoir per active window.
DEFAULT_WINDOW_RESERVOIR = 128


@dataclass(frozen=True)
class TimeSeriesSpec:
    """Picklable recipe for building identical builders on every shard."""

    window_s: float = DEFAULT_WINDOW_S
    percentiles: tuple[float, ...] = DEFAULT_WINDOW_PERCENTILES
    reservoir_capacity: int = DEFAULT_WINDOW_RESERVOIR
    seed: int = 0

    def __post_init__(self):
        # Negated so a NaN width fails the check too.
        if not self.window_s > 0:
            raise ConfigurationError("time-series window_s must be positive")
        if self.reservoir_capacity < 1:
            raise ConfigurationError("time-series reservoir_capacity must be at least 1")

    @classmethod
    def of(cls, timeseries) -> "TimeSeriesSpec":
        """The spec a replay's ``timeseries=`` argument asks for: the spec
        itself, or the default spec with a window width in seconds."""
        if isinstance(timeseries, cls):
            return timeseries
        if isinstance(timeseries, bool) or not isinstance(timeseries, numbers.Real):
            raise ConfigurationError(
                "timeseries= takes a TimeSeriesSpec or a window width in seconds, "
                f"not {timeseries!r}"
            )
        return cls(window_s=float(timeseries))

    def build(self) -> "TimeSeriesBuilder":
        return TimeSeriesBuilder(self)


class _FunctionSeries:
    """All windowed state of one function (sparse over window indices)."""

    __slots__ = ("counters", "inflight_delta", "warm_delta", "latency")

    #: Integer counter names, in the column order of the exported rows.
    COUNTER_NAMES = (
        "arrivals",
        "completions",
        "successes",
        "failures",
        "throttled",
        "dropped",
        "faulted",
        "short_circuited",
        "cold_starts",
    )

    def __init__(self) -> None:
        #: window index -> [one int per COUNTER_NAMES entry]
        self.counters: dict[int, list[int]] = {}
        self.inflight_delta: dict[int, int] = {}
        self.warm_delta: dict[int, int] = {}
        #: window index -> reservoir of successful-completion client times
        self.latency: dict[int, MergeableReservoir] = {}

    def bump(self, window: int, name: str, by: int = 1) -> None:
        row = self.counters.get(window)
        if row is None:
            row = [0] * len(self.COUNTER_NAMES)
            self.counters[window] = row
        row[_COUNTER_INDEX[name]] += by

    def merge(self, other: "_FunctionSeries") -> None:
        for window, row in other.counters.items():
            mine = self.counters.get(window)
            if mine is None:
                self.counters[window] = list(row)
            else:
                for i, value in enumerate(row):
                    mine[i] += value
        for window, delta in other.inflight_delta.items():
            self.inflight_delta[window] = self.inflight_delta.get(window, 0) + delta
        for window, delta in other.warm_delta.items():
            self.warm_delta[window] = self.warm_delta.get(window, 0) + delta
        for window, reservoir in other.latency.items():
            mine = self.latency.get(window)
            if mine is None:
                self.latency[window] = reservoir
            else:
                mine.merge(reservoir)


#: Column index per counter name — the fold below runs once per invocation
#: on 100k+ traces, so it indexes rows by integer instead of name lookups.
_COUNTER_INDEX = {name: i for i, name in enumerate(_FunctionSeries.COUNTER_NAMES)}
_NCOUNTERS = len(_FunctionSeries.COUNTER_NAMES)
_ARRIVALS = _COUNTER_INDEX["arrivals"]
_COMPLETIONS = _COUNTER_INDEX["completions"]
_SUCCESSES = _COUNTER_INDEX["successes"]
_FAILURES = _COUNTER_INDEX["failures"]
_COLD_STARTS = _COUNTER_INDEX["cold_starts"]
#: Terminal-outcome value -> failure-class column (anything else counts as
#: a plain execution failure).
_OUTCOME_INDEX = {
    "throttled": _COUNTER_INDEX["throttled"],
    "dropped": _COUNTER_INDEX["dropped"],
    "faulted": _COUNTER_INDEX["faulted"],
    "short-circuited": _COUNTER_INDEX["short_circuited"],
}


class TimeSeriesBuilder(ReplayObserver):
    """Fold the replay's event stream into windowed, mergeable series."""

    def __init__(self, spec: TimeSeriesSpec | None = None):
        self.spec = spec if spec is not None else TimeSeriesSpec()
        self._window_s = self.spec.window_s
        self._functions: dict[str, _FunctionSeries] = {}

    # -------------------------------------------------------------- building
    def _window(self, at: float) -> int:
        return int(at // self.spec.window_s)

    def _series(self, function: str) -> _FunctionSeries:
        series = self._functions.get(function)
        if series is None:
            series = _FunctionSeries()
            self._functions[function] = series
        return series

    def observe_record(self, record: InvocationRecord) -> None:
        """Fold one terminal invocation record into the series.

        This is the per-invocation hot path of an attached replay (the
        ≤10% overhead budget of ``benchmarks/bench_observability.py``), so
        it indexes counter rows directly instead of going through
        :meth:`_FunctionSeries.bump`.
        """
        width = self._window_s
        name = record.function_name
        series = self._functions.get(name)
        if series is None:
            series = _FunctionSeries()
            self._functions[name] = series
        counters = series.counters
        arrive = int(record.submitted_at // width)
        finish = int(record.finished_at // width)
        arrive_row = counters.get(arrive)
        if arrive_row is None:
            arrive_row = [0] * _NCOUNTERS
            counters[arrive] = arrive_row
        arrive_row[_ARRIVALS] += 1
        if finish == arrive:
            finish_row = arrive_row
        else:
            finish_row = counters.get(finish)
            if finish_row is None:
                finish_row = [0] * _NCOUNTERS
                counters[finish] = finish_row
        finish_row[_COMPLETIONS] += 1
        outcome = record.outcome
        if record.success:
            finish_row[_SUCCESSES] += 1
            reservoir = series.latency.get(finish)
            if reservoir is None:
                reservoir = MergeableReservoir(
                    capacity=self.spec.reservoir_capacity,
                    key=f"{name}/w{finish}",
                    seed=self.spec.seed,
                )
                series.latency[finish] = reservoir
            reservoir.add(record.client_time_s)
        else:
            finish_row[_OUTCOME_INDEX.get(outcome.value, _FAILURES)] += 1
        if outcome is _COMPLETED or outcome is _FAILED:
            start = int(record.started_at // width)
            if record.start_type is _COLD:
                if start == finish:
                    finish_row[_COLD_STARTS] += 1
                elif start == arrive:
                    arrive_row[_COLD_STARTS] += 1
                else:
                    row = counters.get(start)
                    if row is None:
                        row = [0] * _NCOUNTERS
                        counters[start] = row
                    row[_COLD_STARTS] += 1
            inflight = series.inflight_delta
            inflight[start] = inflight.get(start, 0) + 1
            inflight[finish] = inflight.get(finish, 0) - 1

    # Observer protocol: records, container churn and workflow stages feed
    # the series; breaker transitions and fault windows are event-stream
    # concerns with no windowed aggregate here.  on_invocation aliases
    # observe_record directly — one call frame less per invocation.
    on_invocation = observe_record

    def on_workflow_stage(self, workflow, execution_index, stage, map_index, record):
        self.observe_record(record)

    def on_container_create(self, function, container_id, at):
        series = self._series(function)
        window = self._window(at)
        series.warm_delta[window] = series.warm_delta.get(window, 0) + 1

    def on_container_evict(self, function, count, at, reason):
        series = self._series(function)
        window = self._window(at)
        series.warm_delta[window] = series.warm_delta.get(window, 0) - count

    # --------------------------------------------------------------- merging
    def merge(self, other: "TimeSeriesBuilder") -> None:
        """Fold a shard-local builder in (exact: sums and reservoir unions)."""
        if other.spec != self.spec:
            raise ConfigurationError(
                "cannot merge time-series built from different specs: "
                f"{other.spec} != {self.spec}"
            )
        for function, series in other._functions.items():
            mine = self._functions.get(function)
            if mine is None:
                self._functions[function] = series
            else:
                mine.merge(series)

    # --------------------------------------------------------------- exports
    def functions(self) -> list[str]:
        return sorted(self._functions)

    def rows(self) -> list[dict]:
        """Flat per-(function, window) rows, windows dense per function.

        In-flight and warm-pool deltas are prefix-summed into levels
        sampled at each window's start boundary; every value is an exact
        integer or a reservoir percentile, so serial and merged builders
        export byte-identical rows.
        """
        out: list[dict] = []
        width = self.spec.window_s
        for function in self.functions():
            series = self._functions[function]
            windows = set(series.counters) | set(series.inflight_delta) | set(series.warm_delta)
            if not windows:
                continue
            first, last = min(windows), max(windows)
            inflight = 0
            warm = 0
            for window in range(first, last + 1):
                counters = series.counters.get(window)
                row: dict = {
                    "function": function,
                    "window": window,
                    "start_s": window * width,
                }
                for i, name in enumerate(_FunctionSeries.COUNTER_NAMES):
                    row[name] = counters[i] if counters is not None else 0
                row["goodput_per_s"] = row["successes"] / width
                row["in_flight"] = inflight
                row["warm_pool"] = warm
                inflight += series.inflight_delta.get(window, 0)
                warm += series.warm_delta.get(window, 0)
                reservoir = series.latency.get(window)
                for which in self.spec.percentiles:
                    label = f"p{which:g}_client_s"
                    row[label] = reservoir.percentile(which) if reservoir is not None else None
                out.append(row)
        return out

    def to_dict(self) -> dict:
        """Exact document form (golden fixtures, ``--output`` payloads)."""
        return {
            "window_s": self.spec.window_s,
            "percentiles": list(self.spec.percentiles),
            "rows": self.rows(),
        }
