"""One fresh interpreter of the benchmark.

Usage: ``python3 perfbench/child.py <config.json>``; ``run.py`` writes the
config.  Every child first does what ``setup_s`` measures: ``import repro``,
study registration and opening the workload's Session; it then prints one
``ready`` line, which is where the parent stops the set-up clock.  After
that the child does what its mode asks:

* ``setup``: nothing more;
* ``prepare``: compute the output-check reference (untimed);
* ``measure``: run timed iterations for about ``seconds`` (at least one),
  checking each one, optionally with the per-layer tracer installed.

The child writes its findings as JSON to ``config["result"]``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    import tracer
    import workloads

    workload, inputs, work_dir = config["workload"], config["inputs"], config["work_dir"]

    started = time.monotonic()
    import repro
    from repro.api import list_studies

    list_studies()
    imported = time.monotonic()
    scratch = os.path.join(work_dir, f"setup-{os.getpid()}")
    session = workloads.open_session(workload, inputs, scratch)
    opened = time.monotonic()
    print("ready", flush=True)
    session.close()
    shutil.rmtree(scratch, ignore_errors=True)

    import numpy

    result = {
        "import_s": imported - started,
        "session_open_s": opened - imported,
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "pid": os.getpid(),
    }
    mode = config["mode"]
    if mode == "prepare":
        result["reference"] = workloads.prepare(workload, inputs, work_dir)
    elif mode == "measure":
        result.update(measure(config, tracer, workloads))
    _write(config["result"], result)
    return 0


def measure(config, tracer, workloads) -> dict:
    """Timed iterations for about ``config["seconds"]`` (at least one)."""
    from calibrate import Calibrator

    workload, inputs, work_dir = config["workload"], config["inputs"], config["work_dir"]
    with open(config["reference"], encoding="utf-8") as handle:
        reference = json.load(handle)["reference"]
    tracer.install_fail_counter()
    trace_dir = config.get("trace_dir")
    if trace_dir:
        tracer.install(trace_dir)
    command = workloads.worker_command(config["shim"], trace_dir)
    iterations, error = [], None
    deadline = time.monotonic() + config["seconds"]
    with Calibrator(workloads.PARALLELISM[workload]) as calibrate:
        before = calibrate()
        # Start another iteration only while it is expected to end in time,
        # so a run measures about --seconds however long an iteration takes.
        while not iterations or time.monotonic() + _mean_wall(iterations) <= deadline:
            try:
                iteration = workloads.run_iteration(
                    workload, inputs, work_dir, reference, len(iterations), command
                )
            except Exception:  # recorded and reported as a failed run
                error = traceback.format_exc()
                break
            after = calibrate()
            iterations.append(
                dict(iteration.to_dict(), calibration_s=(before + after) / 2)
            )
            before = after
            if iteration.problems:
                break
    tracer.TRACER.flush()
    return {
        "iterations": iterations,
        "error": error,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _mean_wall(iterations) -> float:
    return sum(it["wall"] for it in iterations) / len(iterations)


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
