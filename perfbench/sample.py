"""One isolated sample process: set a workload up, replay it, check the outputs.

``run.py`` starts this script several times per run, so every workload is
set up in fresh interpreters: no RSS high-water mark, import cache or GC
state leaks from one workload into the next.  Within its ``--budget-s`` the
process replays the same generated input repeatedly, each time on a fresh
empty platform, and prints one JSON object.

    python3 perfbench/sample.py --workload trace-hot --seed 1 --budget-s 12 \\
        --t0 <monotonic> [--in-process] [--traced]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, platform build,
deployment and input synthesis, up to the first replay call.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _recorded_digest(workload: str, seed: int) -> str | None:
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads((HERE / "digests.json").read_text()).get(workload)


def _delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def sample(args) -> dict:
    tracer = None
    if args.traced:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    prepared = workloads.WORKLOADS[args.workload](args.seed, args.in_process or args.traced)
    replay = prepared.fresh()
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "functions": prepared.functions, "replays": []}
    if tracer is not None:
        report["setup_layers"] = tracer.metrics()
        report["missing"] = tracer.missing
    expected = _recorded_digest(args.workload, args.seed)
    requests = None
    while True:
        iteration = time.monotonic()
        gc.collect()
        reference_s = reference.kernel_seconds()
        before = tracer.metrics() if tracer is not None else None
        start = time.perf_counter()
        try:
            result = replay()
        except Exception:  # a replay that raises is a failed replay, not a crash
            report["replays"].append({"problems": ["raised: " + traceback.format_exc()]})
            break
        replay_s = time.perf_counter() - start
        after = tracer.metrics() if tracer is not None else None
        # The host's speed over the replay: the mean of the passes around it.
        reference_s = (reference_s + reference.kernel_seconds()) / 2
        entry = {"replay_s": replay_s, "reference_s": reference_s}
        if tracer is not None:
            entry["layers"] = _delta(after, before)
            entry["accounted_s"] = sum(entry["layers"][name] for name in tracer.self_s)
        # Inputs are fixed for the process, so they are counted once.
        if requests is None:
            requests = prepared.count_requests()
        outputs = checks.facts(result)
        found = checks.problems(outputs, requests, expected)
        if not checks.tamper_is_rejected(outputs, requests):
            found.append("self-test: a tampered result passed the check")
        entry.update(
            requests=requests,
            counters=outputs["counters"],
            digest=checks.digest(outputs),
            problems=found,
        )
        report["replays"].append(entry)
        del result, outputs
        # Start another replay only if it should end inside the budget.
        now = time.monotonic()
        if now - args.t0 + (now - iteration) > args.budget_s:
            break
        replay = prepared.fresh()
    report["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    # Without worker processes this process is the largest (and only) replay worker.
    report["worker_peak_rss_mb"] = (
        _rss_mb(resource.RUSAGE_CHILDREN) if prepared.worker_processes else report["peak_rss_mb"]
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--budget-s", type=float, required=True)
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    try:
        report = sample(args)
    except Exception:  # a set-up that raises is a failed replay, not a crash
        report = {"replays": [{"problems": ["set-up raised: " + traceback.format_exc()]}]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
