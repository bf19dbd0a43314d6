"""The replay benchmark: end-to-end metrics, output checks, per-layer trace.

    python3 perfbench/run.py --workload trace-hot --seed 1 --seconds 36 --trace 0

Run from the repository root.  A run splits ``--seconds`` between a few
sample processes (``sample.py``), started one after another, each a fresh
interpreter that sets the workload up once and then replays it on fresh
platforms while its share of the time lasts:

* ``--trace 0`` — three untraced processes; prints the end-to-end metrics
  (``setup_s``, ``replay_inv_per_ref``, ``peak_rss_mb``, ``worker_peak_rss_mb``):
  set-up and memory as medians over the processes, throughput as the median
  of the fastest quarter of all replays, in requests per pass of the
  reference kernel timed around each replay (``reference.py``);
* ``--trace 1`` — an untraced and a traced process; prints the per-layer
  self times and counts, the ``sim.*`` counters, the ``trace.*`` coverage
  and overhead, and the raw ``host.*`` rates behind the normalised one.  On ``population-wide`` a third, worker-process
  replay joins the two in-process ones, so both backends' digests are
  compared.

Every replay's simulated outputs are checked (see ``checks.py``), and all
replays of one run must agree on the output digest.  A replay that raises or
fails a check counts as failed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
``--trace 1`` run also writes its trace to
``.perfbench_out/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers  # noqa: E402
import workloads  # noqa: E402

#: A sample process running longer than this past its budget is stopped, so
#: a hung replay fails the run well inside three minutes.
GRACE_S = 30.0

UNITS = {
    "setup_s": "s",
    "replay_inv_per_ref": "inv/ref",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "host.replay_inv_per_s": "inv/s",
    "host.reference_passes_per_s": "1/s",
}
SIM_COUNTERS = (
    "invocations", "executed", "throttled", "faulted", "short_circuited", "retries", "cold_starts",
)


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _fingerprint() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} machine={platform.machine()}"
    )


def _plan(workload: str, trace: bool) -> list[tuple[bool, bool]]:
    """The (in_process, traced) sample processes of one run, in order."""
    if not trace:
        return [(False, False)] * 3
    if workload == "population-wide":
        return [(True, False), (True, True), (False, False)]
    return [(False, False), (False, True)]


def _run_process(workload: str, seed: int, budget_s: float, in_process: bool, traced: bool) -> dict:
    command = [
        sys.executable, str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed),
        "--budget-s", repr(budget_s),
    ]
    if in_process:
        command.append("--in-process")
    if traced:
        command.append("--traced")
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=budget_s + GRACE_S
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as error:
        report = {"replays": [{"problems": [f"sample process failed: {error}"]}]}
    report.update(in_process=in_process, traced=traced)
    return report


def _median(values) -> float:
    return statistics.median(list(values))


def _fastest_quarter(rates) -> float:
    """Median of the fastest quarter of the replays.

    Neighbours on a shared host only ever slow a replay down, and they come
    and go within seconds; the fast end of the run's replays is the part
    that repeats from run to run.
    """
    ranked = sorted(rates, reverse=True)
    return _median(ranked[: max(1, len(ranked) // 4)])


def _host_rate(replays: list[dict]) -> float:
    """Requests per host second of the replay call."""
    return _fastest_quarter(r["requests"] / r["replay_s"] for r in replays)


def _reference_rate(replays: list[dict]) -> float:
    """Requests replayed per pass of the reference kernel (``reference.py``):
    the host rate with the host's drifting speed divided out."""
    return _fastest_quarter(r["requests"] / r["replay_s"] * r["reference_s"] for r in replays)


def _end_to_end(processes: list[dict], replays: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median(p["setup_s"] for p in processes),
        "replay_inv_per_ref": _reference_rate(replays),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in processes),
        "worker_peak_rss_mb": _median(p["worker_peak_rss_mb"] for p in processes),
    }


def _per_layer(
    setup: dict, replays: list[dict], untraced: list[dict], problems: list[str]
) -> dict[str, float]:
    """Layer metrics of the traced process: set-up plus one replay (median)."""
    values = {}
    for name in layers.layer_metrics():
        per_replay = [replay["layers"][name] for replay in replays]
        if name.endswith("_s"):
            values[name] = setup[name] + _median(per_replay)
        else:
            if len(set(per_replay)) > 1:
                problems.append(f"count {name} differs between replays: {sorted(set(per_replay))}")
            values[name] = setup[name] + per_replay[0]
    counters = replays[0]["counters"]
    for name in SIM_COUNTERS:
        values[f"sim.{name}"] = counters[name]
    values["sim.goodput_ratio"] = counters["executed"] / counters["invocations"]
    values["trace.accounted_share"] = _median(r["accounted_s"] / r["replay_s"] for r in replays)
    values["trace.unaccounted_s"] = _median(r["replay_s"] - r["accounted_s"] for r in replays)
    values["trace.overhead_ratio"] = _median(r["replay_s"] for r in replays) / _median(
        r["replay_s"] for r in untraced
    )
    values["host.replay_inv_per_s"] = _host_rate(untraced)
    values["host.reference_passes_per_s"] = _fastest_quarter(1 / r["reference_s"] for r in untraced)
    return values


def _report(workload: str, seed: int, processes: list[dict], metrics: dict, trace: bool) -> None:
    print(f"host: {_fingerprint()}")
    for index, process in enumerate(processes):
        kind = ("traced" if process["traced"] else "untraced") + (
            ", in-process" if process["in_process"] else ""
        )
        head = f"process {index} ({kind})"
        if "setup_s" in process:
            head += (
                f": setup {process['setup_s']:.3f}s, rss {process['peak_rss_mb']:.0f} MB, "
                f"worker rss {process['worker_peak_rss_mb']:.0f} MB"
            )
        print(head)
        for replay in process["replays"]:
            if replay["problems"]:
                print(f"  replay FAILED: {'; '.join(replay['problems'])}")
            else:
                print(
                    f"  replay {replay['replay_s']:.3f}s = "
                    f"{replay['requests'] / replay['replay_s']:,.0f} inv/s, reference pass "
                    f"{replay['reference_s'] * 1000:.1f} ms  digest {replay['digest'][:16]}"
                )
    good = [r for p in processes for r in p["replays"] if not r["problems"]]
    if good:
        print(
            f"workload: {workload} seed={seed} functions={processes[0].get('functions')} "
            f"requests={good[0]['requests']} digest={good[0]['digest']}"
        )
    attempted = sum(len(p["replays"]) for p in processes)
    failed = attempted - len(good)
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.3f}")
    if not trace or not metrics:
        return
    missing = {}
    for process in processes:
        missing.update(process.get("missing", {}))
    print(f"{'layer metric':34} {'value':>14}  should move (on)")
    for name in layers.layer_metrics():
        value = metrics[name]
        text = f"{value:14.4f}" if name.endswith("_s") else f"{value:14,d}"
        moves, on = layers.SHOULD_MOVE.get(name, ("none", "all"))
        note = f"  MISSING: {missing[name]}" if name in missing else ""
        print(f"{name:34} {text}  {moves} ({on}){note}")
    for name, value in metrics.items():
        if name.startswith(("sim.", "trace.", "host.")):
            text = f"{value:14.4f}" if isinstance(value, float) else f"{value:14,d}"
            print(f"{name:34} {text}  none")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    plan = _plan(args.workload, trace)
    processes = [
        _run_process(args.workload, args.seed, args.seconds / len(plan), in_process, traced)
        for in_process, traced in plan
    ]
    replays = [replay for process in processes for replay in process["replays"]]
    good = [replay for replay in replays if not replay["problems"]]
    problems = []
    digests = {replay["digest"] for replay in good}
    if len(digests) > 1:
        problems.append(f"replays disagree on the output digest: {sorted(digests)}")

    # Metrics come from the replays that passed; any failure makes the run incorrect.
    metrics: dict[str, float] = {}
    set_up = [process for process in processes if "setup_s" in process]
    if trace:
        traced = next((p for p in set_up if p["traced"]), None)
        if traced is not None:
            passed = [r for r in traced["replays"] if not r["problems"]]
            untraced = [
                replay
                for p in processes
                if not p["traced"] and p["in_process"] == traced["in_process"]
                for replay in p["replays"]
                if not replay["problems"]
            ]
            if passed and untraced:
                metrics = _per_layer(traced["setup_layers"], passed, untraced, problems)
    elif good:
        metrics = _end_to_end(set_up, good)

    _report(args.workload, args.seed, processes, metrics, trace)
    for problem in problems:
        print(f"FAILED: {problem}")
    if not metrics:
        print("no replay passed; no metrics", file=sys.stderr)
        return 1
    if trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"host": _fingerprint(), "metrics": metrics, "processes": processes}, indent=1)
        )
    print(
        json.dumps(
            {
                "correct": not problems and len(good) == len(replays),
                "attempted": len(replays),
                "failed": len(replays) - len(good),
                "metrics": {
                    name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
