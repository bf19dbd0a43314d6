"""Output check: a digest of the simulated outputs, and the rules it must meet.

The facts of a replay are its ``sim.*`` counters plus every per-function
streaming summary, read from the public result.  Floats are written with
``float.hex`` so the digest moves on any bit-level change, which is the
simulator's own bit-identity contract.
"""

from __future__ import annotations

import hashlib
import json

#: Result attributes read into the ``sim.*`` counters.
COUNTERS = {
    "invocations": "invocations",
    "executed": "executed_count",
    "throttled": "throttled_count",
    "dropped": "dropped_count",
    "faulted": "faulted_count",
    "short_circuited": "short_circuited_count",
    "retries": "retry_count",
    "cold_starts": "cold_start_count",
    "failures": "failure_count",
    "hedges": "hedge_count",
}

#: The summary fields of one function that enter the digest.
_SUMMARY_FIELDS = (
    "invocations", "cold_starts", "failures", "total_cost_usd", "throttled",
    "dropped", "throttle_events", "retries", "queued", "queue_delay_s",
    "faulted", "short_circuited", "hedges",
)
_DISTRIBUTION_FIELDS = ("count", "mean", "std", "minimum", "maximum", "median")


def _exact(value):
    return value.hex() if isinstance(value, float) else value


def _summary(summary) -> dict:
    row = {name: _exact(getattr(summary, name)) for name in _SUMMARY_FIELDS}
    client = summary.client_time
    if client is not None:
        row["client_time"] = {name: _exact(getattr(client, name)) for name in _DISTRIBUTION_FIELDS}
        row["client_time"]["percentiles"] = [
            [_exact(float(p)), _exact(float(v))] for p, v in sorted(client.percentiles.items())
        ]
    return row


def facts(result) -> dict:
    """The simulated outputs of a streaming replay result."""
    counters = {name: int(getattr(result, attr)) for name, attr in COUNTERS.items()}
    counters["cost_usd"] = _exact(float(result.total_cost_usd))
    per_function = result.per_function()
    return {
        "counters": counters,
        "functions": {name: _summary(per_function[name]) for name in sorted(per_function)},
    }


def digest(outputs: dict) -> str:
    """SHA-256 of the canonical JSON form of ``outputs``."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def problems(outputs: dict, requests: int, expected_digest: str | None) -> list[str]:
    """Every rule ``outputs`` breaks; empty when the replay is correct."""
    found = []
    c = outputs["counters"]
    resolved = c["executed"] + c["throttled"] + c["dropped"] + c["faulted"] + c["short_circuited"]
    if resolved != c["invocations"]:
        found.append(f"conservation: {resolved} resolved != {c['invocations']} invocations")
    if c["invocations"] != requests:
        found.append(f"input: {c['invocations']} invocations != {requests} generated requests")
    per_function = sum(row["invocations"] for row in outputs["functions"].values())
    if per_function != c["invocations"]:
        found.append(f"summaries: {per_function} per-function invocations != {c['invocations']}")
    if expected_digest is not None and digest(outputs) != expected_digest:
        found.append(f"digest: {digest(outputs)} != recorded {expected_digest}")
    return found


def tamper_is_rejected(outputs: dict, requests: int) -> bool:
    """Self-test: one extra executed request must fail the check."""
    counters = dict(outputs["counters"], executed=outputs["counters"]["executed"] + 1)
    tampered = dict(outputs, counters=counters)
    return bool(problems(tampered, requests, digest(outputs)))
