"""The three workloads: inputs from a seed, preparation, one timed iteration.

Every workload is a closed loop with one caller: one client submits one
study or suite, waits for the result, checks it, and only then submits the
next.  Load stays within two cores.

``make_inputs`` is the only place the workload seed is read.  It turns the
seed into plain JSON (study and suite specs plus the session settings), and
the processes that run the program receive only that JSON.

The rest of this module runs inside the benchmark's child interpreters and
imports ``repro`` lazily, so the benchmark's parent never imports it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

WORKLOADS = ("study-hpo-cold", "suite-store-replay", "suite-distributed")

#: Study sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps the
#: benchmark's own tests fast and runs the same code paths.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "hpo": {
            "task_names": ["entailment", "sentiment"],
            "n_seeds": 4,
            "n_hpo_repetitions": 2,
            "hpo_budget": 5,
            "dataset_size": 300,
        },
        "variance": {
            "task_names": ["entailment", "sentiment"],
            "n_seeds": 20,
            "include_hpo": False,
            "dataset_size": 400,
        },
        "binomial": {
            "task_names": ["entailment", "sentiment"],
            "n_splits": 20,
            "dataset_size": 400,
        },
        "normality": {
            "task_names": ["entailment", "sentiment"],
            "n_seeds": 20,
            "dataset_size": 400,
        },
        "layer_ablation": {
            "task_names": ["entailment"],
            "n_seeds": 10,
            "dataset_size": 300,
        },
        "estimator": {
            "task_names": ["entailment"],
            "k_max": 6,
            "n_repetitions": 2,
            "hpo_budget": 6,
            "dataset_size": 300,
        },
        "detection": {"probabilities": [0.4, 0.6, 0.9], "k": 10, "n_simulations": 20},
        "sample_size": {"gammas": [0.7, 0.75, 0.9]},
    },
    "tiny": {
        "hpo": {
            "task_names": ["entailment"],
            "n_seeds": 3,
            "n_hpo_repetitions": 2,
            "hpo_budget": 2,
            "dataset_size": 120,
        },
        "variance": {
            "task_names": ["entailment"],
            "n_seeds": 3,
            "include_hpo": False,
            "dataset_size": 120,
        },
        "binomial": {"task_names": ["entailment"], "n_splits": 3, "dataset_size": 120},
        "normality": {"task_names": ["entailment"], "n_seeds": 3, "dataset_size": 120},
        "layer_ablation": {
            "task_names": ["entailment"],
            "combos": ["none", "all"],
            "n_seeds": 2,
            "dataset_size": 120,
        },
        "estimator": {
            "task_names": ["entailment"],
            "k_max": 3,
            "n_repetitions": 2,
            "hpo_budget": 2,
            "dataset_size": 120,
        },
        "detection": {"probabilities": [0.5, 0.9], "k": 5, "n_simulations": 4},
        "sample_size": {"gammas": [0.75]},
    },
}

#: Members of the replay suite: every registered study backed by fitted
#: measurements.  ``estimator`` stays in on purpose; see NOTES.md.
REPLAY_MEMBERS = ("variance", "binomial", "normality", "layer_ablation", "estimator")
#: The distributed suite adds two simulation-only members.
DISTRIBUTED_MEMBERS = REPLAY_MEMBERS + ("detection", "sample_size")

#: Session settings of the timed runs.
SESSIONS = {
    "study-hpo-cold": {"n_jobs": 2, "backend": "process", "batch_size": 8},
    "suite-store-replay": {"n_jobs": 1, "batch_size": 8},
    "suite-distributed": {"n_jobs": 1, "batch_size": 8},
}

#: Processes that run workload code at once: the pool's two workers, the
#: single calling process, the coordinator beside the worker subprocess.
#: The calibration loop runs in as many processes (see calibrate.py).
PARALLELISM = {"study-hpo-cold": 2, "suite-store-replay": 1, "suite-distributed": 2}

#: Faster settings for untimed preparation runs (results are bitwise
#: identical at any n_jobs and batch size).
PREPARE_SESSION = {"n_jobs": 2, "backend": "process", "batch_size": 8}


def make_inputs(workload: str, seed: int, scale: str = "full") -> Dict[str, Any]:
    """The workload's inputs, generated from ``seed`` (same seed, same inputs)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = SIZES[scale]
    random_state = random.Random(f"perfbench/{workload}/{seed}").randrange(2**31)

    def spec(study: str, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "study": study,
            "params": params,
            "n_jobs": None,
            "backend": None,
            "cache": True,
            "random_state": random_state,
        }

    inputs: Dict[str, Any] = {"session": SESSIONS[workload]}
    if workload == "study-hpo-cold":
        inputs["spec"] = spec("variance", sizes["hpo"])
        return inputs
    members = REPLAY_MEMBERS if workload == "suite-store-replay" else DISTRIBUTED_MEMBERS
    specs = [{"name": name, "spec": spec(name, sizes[name])} for name in members]
    for entry in specs:
        # The longest member starts first, and normality, which re-measures
        # the variance member's seeds, waits for them instead of racing to
        # fit them twice: a run's makespan then hardly depends on which
        # process claims what.
        if entry["name"] == "estimator":
            entry["priority"] = 1
        if entry["name"] == "normality":
            entry["depends_on"] = ["variance"]
    inputs["suite"] = {"name": "perfbench-" + workload.split("-", 1)[1], "specs": specs}
    return inputs


# ----------------------------------------------------------------------
# Everything below runs in a child interpreter (imports repro lazily).
# ----------------------------------------------------------------------


def study_rows(result) -> List[str]:
    """Canonical rows of a StudyResult; equal strings mean equal bits."""
    return [json.dumps(json.loads(result.to_json())["rows"], sort_keys=True)]


def suite_rows(result) -> List[str]:
    """Canonical per-member rows of a SuiteResult, in manifest order."""
    return [
        json.dumps([entry["name"], entry["rows"]], sort_keys=True)
        for entry in json.loads(result.to_json())["results"]
    ]


def open_session(workload: str, inputs: Dict[str, Any], cache_dir: Optional[str]):
    """The Session a timed run opens (``cache_dir`` for the suite workloads)."""
    from repro.api import Session

    if workload == "study-hpo-cold":
        return Session(**inputs["session"])
    return Session(cache_dir=cache_dir, **inputs["session"])


def _suite(inputs: Dict[str, Any]):
    from repro.api import SuiteSpec

    return SuiteSpec.from_dict(inputs["suite"])


def prepare(workload: str, inputs: Dict[str, Any], work_dir: str) -> Dict[str, Any]:
    """Untimed preparation; returns the reference the output checks use.

    * ``study-hpo-cold``: the serial, unbatched reference path
      (``n_jobs=1``, ``batch_size=1``) for the same spec;
    * ``suite-store-replay``: one cold run that fills the ``cache_dir``
      store the timed runs replay; its rows are the reference;
    * ``suite-distributed``: an in-process ``run_suite`` of the same suite.
    """
    from repro.api import Session, StudySpec

    if workload == "study-hpo-cold":
        with Session(n_jobs=1, batch_size=1) as session:
            result = session.run(StudySpec.from_dict(inputs["spec"]))
        return {"rows": study_rows(result)}
    suite = _suite(inputs)
    store = os.path.join(work_dir, "store" if workload == "suite-store-replay" else "reference")
    with Session(cache_dir=store, **PREPARE_SESSION) as session:
        result = session.run_suite(suite)
    reference = {"rows": suite_rows(result)}
    if workload == "suite-distributed":
        from repro.sched import Coordinator

        with Session(cache_dir=store, **PREPARE_SESSION) as session:
            coordinator = Coordinator(session, suite, shard_members=True)
            reference["tasks"] = len(coordinator.plan())
        shutil.rmtree(store)
    return reference


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _count_files(path: str) -> int:
    return sum(len(files) for _root, _dirs, files in os.walk(path))


class Iteration:
    """What one timed iteration delivered, and what its check found."""

    def __init__(self) -> None:
        self.start = 0.0
        self.wall_end = 0.0
        self.end = 0.0
        self.cpu = 0.0
        self.measurements = 0
        self.operations = 0
        self.failed = 0
        self.problems: List[str] = []
        self.members: List[float] = []
        self.resume_s = 0.0
        self.worker_launch: Optional[float] = None
        self.span_bytes = 0

    @property
    def wall(self) -> float:
        return self.wall_end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return dict(vars(self), wall=self.wall)


def _member_timer(iteration: Iteration) -> Callable:
    started: Dict[str, float] = {}

    def progress(event, name, index, total, result) -> None:
        now = time.monotonic()
        if event == "start":
            started[name] = now
        elif event == "done" and name in started:
            iteration.members.append(now - started.pop(name))

    return progress


def _cpu_seconds() -> float:
    """User plus system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_iteration(
    workload: str,
    inputs: Dict[str, Any],
    work_dir: str,
    reference: Dict[str, Any],
    index: int,
    worker_command: Optional[List[str]] = None,
) -> Iteration:
    """One timed iteration of ``workload``, checked against ``reference``."""
    runners = {
        "study-hpo-cold": _iterate_hpo,
        "suite-store-replay": _iterate_replay,
        "suite-distributed": _iterate_distributed,
    }
    iteration = Iteration()
    runners[workload](iteration, inputs, work_dir, reference, index, worker_command)
    if iteration.problems:
        # A failed output check fails the whole iteration.
        iteration.failed = iteration.operations
    return iteration


def _iterate_hpo(iteration, inputs, work_dir, reference, index, worker_command):
    from repro.api import StudySpec

    spec = StudySpec.from_dict(inputs["spec"])
    cpu = _cpu_seconds()
    iteration.start = time.monotonic()
    with open_session("study-hpo-cold", inputs, None) as session:
        result = session.run(spec)
    iteration.wall_end = iteration.end = time.monotonic()
    iteration.cpu = _cpu_seconds() - cpu
    iteration.members.append(iteration.wall)
    iteration.measurements = iteration.operations = len(session.cache)
    if study_rows(result) != reference["rows"]:
        iteration.problems.append("rows differ from the serial unbatched reference")


def _iterate_replay(iteration, inputs, work_dir, reference, index, worker_command):
    suite = _suite(inputs)
    store = os.path.join(work_dir, "store")
    shutil.rmtree(os.path.join(store, "suites"), ignore_errors=True)
    telemetry_before = _dir_bytes(os.path.join(store, "telemetry"))
    cpu = _cpu_seconds()
    iteration.start = time.monotonic()
    with open_session("suite-store-replay", inputs, store) as session:
        replayed = session.run_suite(suite, progress=_member_timer(iteration))
        misses = session.cache.stats()["misses"]
        measurements = len(session.cache)
        resume_start = time.monotonic()
        resumed = session.run_suite(suite, resume=True)
        iteration.resume_s = time.monotonic() - resume_start
    iteration.wall_end = iteration.end = time.monotonic()
    iteration.cpu = _cpu_seconds() - cpu
    iteration.measurements = iteration.operations = measurements
    iteration.span_bytes = _dir_bytes(os.path.join(store, "telemetry")) - telemetry_before
    if suite_rows(replayed) != reference["rows"]:
        iteration.problems.append("replayed rows differ from the cold run")
    if suite_rows(resumed) != reference["rows"]:
        iteration.problems.append("resumed rows differ from the cold run")
    if misses:
        iteration.problems.append(f"replay missed the store {misses} times")
    if sorted(resumed.replayed) != sorted(suite.names):
        iteration.problems.append("resume re-ran members instead of replaying them")


def _iterate_distributed(iteration, inputs, work_dir, reference, index, worker_command):
    suite = _suite(inputs)
    store = os.path.join(work_dir, f"distributed-{index}")
    os.makedirs(store)
    stats_path = os.path.join(work_dir, f"worker-{index}.json")
    log_path = os.path.join(work_dir, f"worker-{index}.log")
    command = list(worker_command) + [
        stats_path,
        "worker",
        store,
        "--exit-when-done",
        "--n-jobs",
        str(inputs["session"]["n_jobs"]),
        "--batch-size",
        str(inputs["session"]["batch_size"]),
        "--timeout",
        "120",
    ]
    cpu = _cpu_seconds()
    iteration.start = time.monotonic()
    with open(log_path, "wb") as log:
        iteration.worker_launch = time.monotonic()
        worker = subprocess.Popen(command, stdout=log, stderr=log)
        try:
            with open_session("suite-distributed", inputs, store) as session:
                result = session.run_suite(
                    suite,
                    distributed=True,
                    shard_members=True,
                    progress=_member_timer(iteration),
                )
            iteration.wall_end = time.monotonic()
            code = _stop_worker(worker)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    iteration.end = time.monotonic()
    iteration.cpu = _cpu_seconds() - cpu
    iteration.measurements = _count_files(os.path.join(store, "objects"))
    iteration.span_bytes = _dir_bytes(os.path.join(store, "telemetry"))
    from tracer import TRACER

    retried, failed = TRACER.retried, TRACER.failed
    try:
        with open(stats_path, encoding="utf-8") as handle:
            worker_stats = json.load(handle)
        retried += worker_stats["retried"]
        failed += worker_stats["failed"]
    except (OSError, ValueError, KeyError):
        iteration.problems.append("the worker left no statistics")
    TRACER.retried = TRACER.failed = 0
    iteration.operations = reference["tasks"] + retried
    iteration.failed = retried + failed
    if code != 0:
        iteration.problems.append(f"the worker exited with code {code}")
    if suite_rows(result) != reference["rows"]:
        iteration.problems.append("rows differ from the in-process run")
    failed_dir = os.path.join(store, "queue", suite.name, "failed")
    if os.path.isdir(failed_dir) and os.listdir(failed_dir):
        iteration.problems.append("tasks were left in failed/")
    shutil.rmtree(store)


def _stop_worker(worker: subprocess.Popen) -> Optional[int]:
    """Wait for the worker to leave after the suite finished.

    ``--exit-when-done`` exits at the next poll after the queue is gone, but
    a worker that never saw the queue (the coordinator finished everything
    before the worker's interpreter was up) keeps waiting for one; it is
    stopped with SIGTERM, which the shim turns into a clean exit.
    """
    try:
        return worker.wait(timeout=5)
    except subprocess.TimeoutExpired:
        worker.terminate()
    try:
        return worker.wait(timeout=10)
    except subprocess.TimeoutExpired:
        return None


def worker_command(shim: str, trace_dir: Optional[str]) -> List[str]:
    """The start of the ``repro worker`` command, through the benchmark's shim."""
    return [sys.executable, shim, trace_dir or "-"]
