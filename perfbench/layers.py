"""Per-layer metrics and the self-time table, computed from recorded spans.

Layer names are the ``src/repro/`` module names.  Times are busy seconds
summed over every process that ran the layer (pool children and the worker
subprocess included), per timed iteration; ``run.py`` reports the median
over the traced iterations.

A span's self time is its duration minus the durations of its direct child
spans in the same process.  ``budget.residual_s`` is the calling process's
iteration wall time minus the self times of every span the calling process
recorded in that iteration: the time no traced layer accounts for.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("setup.import_s", "s"),
    ("setup.session_open_s", "s"),
    ("api.member_count", "count"),
    ("api.member_s", "s"),
    ("api.resume_s", "s"),
    ("engine.key_count", "count"),
    ("engine.key_s", "s"),
    ("engine.lookup_count", "count"),
    ("engine.lookup_s", "s"),
    ("engine.hit_ratio", "ratio"),
    ("engine.store_read_count", "count"),
    ("engine.store_read_s", "s"),
    ("engine.store_read_bytes", "bytes"),
    ("engine.commit_count", "count"),
    ("engine.commit_s", "s"),
    ("engine.store_write_bytes", "bytes"),
    ("engine.map_count", "count"),
    ("engine.dispatch_s", "s"),
    ("engine.dispatch_idle_s", "s"),
    ("pipelines.fit_count", "count"),
    ("pipelines.fit_s", "s"),
    ("pipelines.forward_s", "s"),
    ("pipelines.backward_s", "s"),
    ("pipelines.optimizer_s", "s"),
    ("pipelines.batched_fraction", "ratio"),
    ("hpo.trial_count", "count"),
    ("hpo.propose_s", "s"),
    ("data.split_count", "count"),
    ("data.split_s", "s"),
    ("data.dataset_s", "s"),
    ("sched.claim_count", "count"),
    ("sched.claim_s", "s"),
    ("sched.claim_success_ratio", "ratio"),
    ("sched.poll_idle_s", "s"),
    ("sched.queue_commit_s", "s"),
    ("sched.retry_count", "count"),
    ("sched.worker_start_s", "s"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.span_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("budget.residual_s", "s"),
    ("error_rate", "ratio"),
]


def load_spans(directory: str) -> List[Dict[str, Any]]:
    """Every span written under ``directory`` (one JSONL file per process)."""
    spans: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def annotate(spans: List[Dict[str, Any]]) -> None:
    """Add ``self`` (self time) and ``outer_fit`` to every span, in place."""
    by_key = {(span["pid"], span["id"]): span for span in spans}
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"]:
            child_time[(span["pid"], span["parent"])] += span["dur"]
    for span in spans:
        span["self"] = span["dur"] - child_time[(span["pid"], span["id"])]
        span["outer_fit"] = False
        if span["name"] == "pipelines.fit":
            parent = by_key.get((span["pid"], span["parent"]))
            while parent is not None and parent["name"] != "pipelines.fit":
                parent = by_key.get((parent["pid"], parent["parent"]))
            span["outer_fit"] = parent is None


def _within(spans: Iterable[Dict[str, Any]], start: float, end: float):
    return [span for span in spans if span["start"] >= start and span["end"] <= end]


def iteration_metrics(
    spans: List[Dict[str, Any]], iteration: Dict[str, Any], caller_pid: int
) -> Dict[str, float]:
    """Per-layer values of one traced iteration (spans already annotated)."""
    window = _within(spans, iteration["start"], iteration["end"])
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in window:
        by_name[span["name"]].append(span)

    def count(name: str) -> int:
        return len(by_name[name])

    def total(name: str, field: str = "dur") -> float:
        return float(sum(span[field] for span in by_name[name]))

    def info_sum(name: str) -> float:
        return float(sum(span["info"] or 0 for span in by_name[name]))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    fits = [span for span in by_name["pipelines.fit"] if span["outer_fit"]]
    fit_count = sum(span["info"] or 1 for span in fits)
    batched = sum(span["info"] for span in by_name["pipelines.stack"] if span["info"] > 1)
    idle = sum(span["info"] * span["dur"] for span in by_name["engine.map"])
    idle -= total("engine.item")

    execute: Dict[int, float] = defaultdict(float)
    for span in by_name["sched.execute"]:
        execute[span["pid"]] += span["dur"]
    loops = by_name["sched.coordinator"] + by_name["sched.worker"]
    poll_idle = sum(span["dur"] for span in loops) - sum(
        execute[span["pid"]] for span in loops
    )

    worker_start = 0.0
    worker_pids = {span["pid"] for span in by_name["sched.worker"]}
    claims = sorted(
        span["end"]
        for span in by_name["sched.claim"]
        if span["pid"] in worker_pids and span["info"]
    )
    if claims and iteration.get("worker_launch") is not None:
        worker_start = claims[0] - iteration["worker_launch"]

    caller_self = sum(span["self"] for span in window if span["pid"] == caller_pid)
    members = iteration["members"]
    return {
        "api.member_count": float(len(members)),
        "api.member_s": ratio(sum(members), len(members)),
        "api.resume_s": float(iteration["resume_s"]),
        "engine.key_count": float(count("engine.key")),
        "engine.key_s": total("engine.key"),
        "engine.lookup_count": float(count("engine.lookup")),
        "engine.lookup_s": total("engine.lookup"),
        "engine.hit_ratio": ratio(info_sum("engine.lookup"), count("engine.lookup")),
        "engine.store_read_count": float(count("engine.store_read")),
        "engine.store_read_s": total("engine.store_read"),
        "engine.store_read_bytes": info_sum("engine.store_read"),
        "engine.commit_count": float(count("engine.commit")),
        "engine.commit_s": total("engine.commit"),
        "engine.store_write_bytes": info_sum("engine.store_write"),
        "engine.map_count": float(count("engine.map")),
        "engine.dispatch_s": total("engine.map"),
        "engine.dispatch_idle_s": float(idle),
        "pipelines.fit_count": float(fit_count),
        "pipelines.fit_s": float(sum(span["dur"] for span in fits)),
        "pipelines.forward_s": total("pipelines.forward", "self"),
        "pipelines.backward_s": total("pipelines.backward", "self"),
        "pipelines.optimizer_s": total("pipelines.optimizer", "self"),
        "pipelines.batched_fraction": ratio(batched, fit_count),
        "hpo.trial_count": float(count("hpo.propose")),
        "hpo.propose_s": total("hpo.propose"),
        "data.split_count": float(count("data.split")),
        "data.split_s": total("data.split"),
        "data.dataset_s": total("data.dataset"),
        "sched.claim_count": float(count("sched.claim")),
        "sched.claim_s": total("sched.claim"),
        "sched.claim_success_ratio": ratio(info_sum("sched.claim"), count("sched.claim")),
        "sched.poll_idle_s": float(poll_idle),
        "sched.queue_commit_s": total("sched.commit"),
        "sched.retry_count": float(
            sum(1 for span in by_name["sched.fail"] if span["info"] == "retried")
        ),
        "sched.worker_start_s": float(worker_start),
        "telemetry.span_bytes": float(iteration["span_bytes"]),
        "budget.residual_s": float(iteration["wall"] - caller_self),
    }


def self_time_table(
    spans: List[Dict[str, Any]], iterations: List[Dict[str, Any]], caller_pid: int
) -> str:
    """Self time per span name and per layer over the traced iterations."""
    window: List[Dict[str, Any]] = []
    for iteration in iterations:
        window.extend(_within(spans, iteration["start"], iteration["end"]))
    rows: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for span in window:
        row = rows[span["name"]]
        row[0] += 1
        row[1] += span["dur"]
        row[2] += span["self"]
        if span["pid"] == caller_pid:
            row[3] += span["self"]
    wall = sum(iteration["wall"] for iteration in iterations)
    caller = sum(row[3] for row in rows.values())
    lines = [
        f"self time over {len(iterations)} traced iteration(s), "
        f"{wall:.3f} s calling-process wall time",
        f"{'span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'caller_self_s':>14s}",
    ]
    for name in sorted(rows):
        calls, dur, own, mine = rows[name]
        lines.append(f"{name:28s} {calls:9d} {dur:10.3f} {own:10.3f} {mine:14.3f}")
    layers: Dict[str, float] = defaultdict(float)
    for name, row in rows.items():
        layers[name.split(".", 1)[0]] += row[2]
    for layer in sorted(layers):
        lines.append(f"{'layer ' + layer:28s} {'':9s} {'':10s} {layers[layer]:10.3f}")
    lines.append(f"{'budget.residual_s':28s} {'':9s} {'':10s} {'':10s} {wall - caller:14.3f}")
    return "\n".join(lines)
