"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see NOTES.md for why each exists):

* ``study-hpo-cold``: one Figure 1 ``variance`` study with HPO, cold cache,
  two process workers, batches of eight;
* ``suite-store-replay``: a five-member suite replayed from its on-disk
  store, then resumed from its completion records;
* ``suite-distributed``: a seven-member suite through the durable queue,
  with a participating coordinator and one ``repro worker`` subprocess.

``--seed`` generates the inputs (the same seed gives the same inputs).
Each run starts fresh interpreters: one prepares the output-check
reference, two more only measure set-up, and one runs timed iterations
for about ``--seconds`` seconds, checking every iteration's rows bitwise.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it splits ``--seconds`` over an untraced run, an
untraced run with ``REPRO_TELEMETRY=0`` and a traced run, and prints a
self-time table.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
non-zero when an output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import calibrated  # noqa: E402

#: The end-to-end metrics, with their units, as BENCHMARK.json lists them.
END_TO_END = [
    ("measurements_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Set-up samples per run: fresh interpreters that only time their set-up.
SETUP_SAMPLES = 3
#: Wall-clock budget for one run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0


class RunFailed(RuntimeError):
    """The program could not be run to completion."""


def source_fingerprint() -> str:
    """SHA-256 over every file under ``src/`` (the checkout may lack git)."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for root, dirs, files in os.walk(source):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, source).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


class Runner:
    """Launches the benchmark's child interpreters within one time budget."""

    def __init__(self, workload: str, inputs: Dict[str, Any], work_dir: str) -> None:
        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.setup_samples: List[float] = []
        self.import_samples: List[float] = []
        self.open_samples: List[float] = []
        self.numpy_version: Optional[str] = None
        self._count = 0

    def child(self, mode: str, env: Optional[Dict[str, str]] = None, **extra) -> Dict[str, Any]:
        """Run one fresh interpreter; returns the JSON it wrote."""
        self._count += 1
        tag = f"{self._count:02d}-{mode}"
        config_path = os.path.join(self.work_dir, f"{tag}.config.json")
        result_path = os.path.join(self.work_dir, f"{tag}.result.json")
        log_path = os.path.join(self.work_dir, f"{tag}.log")
        config = dict(
            extra,
            mode=mode,
            workload=self.workload,
            inputs=self.inputs,
            work_dir=self.work_dir,
            result=result_path,
            shim=os.path.join(HERE, "worker_shim.py"),
        )
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), HERE]
            + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
        )
        child_env.update(env or {})
        with open(log_path, "wb") as log:
            launched = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), config_path],
                cwd=ROOT,
                env=child_env,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
            try:
                ready = None
                for line in process.stdout:
                    if line.strip() == b"ready":
                        ready = time.monotonic()
                        break
                process.stdout.close()
                code = process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if process.poll() is None:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()
                _stop_group(process.pid)
        if code != 0 or ready is None:
            with open(log_path, "rb") as handle:
                tail = handle.read()[-4000:].decode("utf-8", "replace")
            reason = "timed out" if code is None else f"exited with code {code}"
            raise RunFailed(f"{mode} child {reason}\n{tail}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        if mode == "setup":
            self.setup_samples.append(ready - launched)
        self.import_samples.append(result["import_s"])
        self.open_samples.append(result["session_open_s"])
        self.numpy_version = result["numpy"]
        result["path"] = result_path
        return result


def _stop_group(group: int, grace: float = 10.0) -> None:
    """Wait for the rest of a child's process group to end; kill it after
    ``grace`` seconds.  A multiprocessing resource tracker, for one, exits
    on its own shortly after its parent and must be let finish."""
    deadline = time.monotonic() + grace
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            os.killpg(group, signal.SIGKILL)
            return
        time.sleep(0.05)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _iterations_summary(workload: str, measured: Dict[str, Any]) -> Dict[str, float]:
    """Medians over a measure child's iterations, calibrated and raw."""
    iterations = measured["iterations"]
    processes = workloads.PARALLELISM[workload]

    def median(values) -> float:
        return _median(list(values))

    def scaled(it: Dict[str, Any], key: str) -> float:
        return calibrated(it[key], it["calibration_s"], processes)

    return {
        "measurements_per_s": median(it["measurements"] / scaled(it, "wall") for it in iterations),
        "cpu_s": median(scaled(it, "cpu") for it in iterations),
        "wall_s": median(scaled(it, "wall") for it in iterations),
        "raw_measurements_per_s": median(it["measurements"] / it["wall"] for it in iterations),
        "raw_cpu_s": median(it["cpu"] for it in iterations),
    }


def _outcome(measured: List[Dict[str, Any]]) -> Dict[str, Any]:
    attempted = failed = 0
    problems: List[str] = []
    for run in measured:
        for iteration in run["iterations"]:
            attempted += iteration["operations"]
            failed += iteration["failed"]
            problems.extend(iteration["problems"])
        if run["error"]:
            problems.append(run["error"].strip().splitlines()[-1])
    attempted = max(attempted, 1)
    if problems:
        # A failed output check counts the whole run as failed.
        failed = attempted
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def run_untraced(runner: Runner, seconds: float, prepared: Dict[str, Any]) -> Dict[str, Any]:
    for _ in range(SETUP_SAMPLES):
        runner.child("setup")
    measured = runner.child("measure", seconds=seconds, reference=prepared["path"])
    outcome = _outcome([measured])
    summary = _iterations_summary(runner.workload, measured) if measured["iterations"] else {}
    peak_kb = max(measured["maxrss_self_kb"], measured["maxrss_children_kb"])
    metrics = {
        "measurements_per_s": summary.get("measurements_per_s", 0.0),
        "setup_s": _median(runner.setup_samples),
        "cpu_s": summary.get("cpu_s", 0.0),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    raw = {
        "measurements_per_s": summary.get("raw_measurements_per_s", 0.0),
        "setup_s": metrics["setup_s"],
        "cpu_s": summary.get("raw_cpu_s", 0.0),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "error_rate": outcome["failed"] / outcome["attempted"],
    }
    table = [
        f"{len(measured['iterations'])} timed iteration(s), "
        f"{len(runner.setup_samples)} set-up sample(s); medians; "
        f"measurements_per_s and cpu_s in calibrated seconds (raw: as read)",
        f"{'metric':22s} {'value':>14s} {'raw':>14s} unit",
    ]
    for name, unit in END_TO_END + [("error_rate", "ratio")]:
        value = metrics.get(name, raw[name])
        table.append(f"{name:22s} {value:14.6f} {raw[name]:14.6f} {unit}")
    return {
        "outcome": outcome,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "table": "\n".join(table),
        "samples": {
            "setup_s": runner.setup_samples,
            "iterations": [
                {key: it[key] for key in ("wall", "cpu", "measurements", "calibration_s")}
                for it in measured["iterations"]
            ],
        },
    }


def run_traced(runner: Runner, seconds: float, prepared: Dict[str, Any]) -> Dict[str, Any]:
    share = seconds / 3.0
    for _ in range(SETUP_SAMPLES):
        runner.child("setup")
    plain = runner.child("measure", seconds=share, reference=prepared["path"])
    quiet = runner.child(
        "measure",
        env={"REPRO_TELEMETRY": "0"},
        seconds=share,
        reference=prepared["path"],
    )
    trace_dir = os.path.join(runner.work_dir, "spans")
    os.makedirs(trace_dir)
    traced = runner.child(
        "measure", seconds=share, reference=prepared["path"], trace_dir=trace_dir
    )
    outcome = _outcome([plain, quiet, traced])
    spans = layers.load_spans(trace_dir)
    layers.annotate(spans)
    caller = traced["pid"]
    per_iteration = [
        layers.iteration_metrics(spans, iteration, caller)
        for iteration in traced["iterations"]
    ]
    values: Dict[str, float] = {}
    for name, _unit in layers.PER_LAYER:
        samples = [metrics[name] for metrics in per_iteration if name in metrics]
        values[name] = _median(samples)
    walls = [
        _iterations_summary(runner.workload, run)["wall_s"] if run["iterations"] else 0.0
        for run in (plain, quiet, traced)
    ]
    plain_wall, quiet_wall, traced_wall = walls
    values["setup.import_s"] = _median(runner.import_samples)
    values["setup.session_open_s"] = _median(runner.open_samples)
    values["telemetry.overhead_s"] = plain_wall - quiet_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
    values["error_rate"] = outcome["failed"] / outcome["attempted"]
    table = layers.self_time_table(spans, traced["iterations"], caller)
    kept = os.path.join(ROOT, ".perfbench", f"{runner.workload}.spans.jsonl")
    with open(kept, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    lines = [table, ""] + [
        f"{name:28s} {values[name]:16.6f} {unit}" for name, unit in layers.PER_LAYER
    ]
    return {
        "outcome": outcome,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER
        },
        "table": "\n".join(lines),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--scale",
        default="full",
        choices=sorted(workloads.SIZES),
        help="study sizes; 'tiny' exists for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro package beside perfbench/", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work_dir)
    runner = Runner(args.workload, inputs, work_dir)
    try:
        prepared = runner.child("prepare")
        run = (run_traced if args.trace else run_untraced)(runner, args.seconds, prepared)
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcome = run["outcome"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "telemetry": os.environ.get("REPRO_TELEMETRY", "on"),
        "commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": runner.numpy_version,
    }
    result = {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": run["metrics"],
    }
    with open(os.path.join(ROOT, ".perfbench", "results.jsonl"), "a", encoding="utf-8") as handle:
        record = dict(result, provenance=provenance, samples=run.get("samples"))
        handle.write(json.dumps(record) + "\n")
    for problem in outcome["problems"]:
        print(f"output check failed: {problem}", file=sys.stderr)
    print(run["table"])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
