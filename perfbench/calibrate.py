"""Host-speed calibration for the benchmark's time metrics.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to a factor of two within a minute or two:
wall time and CPU time of the same fixed work both stretch when a
neighbour is busy.  A median over one run cannot remove a drift that lasts
the whole run, so every timed sample is paired with a calibration: a fixed
loop of the kinds of work the workloads do (pickling, JSON, hashing, small
matrix products, list building), timed right before and right after the
sample, in as many processes at once as the workload keeps busy.

A time ``t`` measured while the calibration took ``c`` seconds is reported
as ``t * NOMINAL_S[processes] / c``: seconds on a host that runs the
calibration in its nominal time.  The calibration code is the benchmark's
own, so a change to the program cannot move it; raw times stay in
``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
import time
from typing import Optional

import numpy as np

#: The calibration time, by process count, that defines one calibrated
#: second: about what the loop takes on a two-core host of the kind this
#: benchmark runs on (two copies at once contend for shared caches).
NOMINAL_S = {1: 0.05, 2: 0.08}

_ROUNDS = 1500
_MATRIX = np.random.default_rng(0).random((16, 16))
_RECORD = {
    "scores": np.random.default_rng(1).random(64),
    "meta": {"keys": list(range(20)), "name": "x" * 40},
    "value": 1.5,
}


def _loop(_index: int = 0) -> float:
    started = time.perf_counter()
    for round_ in range(_ROUNDS):
        pickle.loads(pickle.dumps(_RECORD, protocol=pickle.HIGHEST_PROTOCOL))
        payload = json.dumps({"round": round_, "pair": [1.5, 2.5]}, sort_keys=True)
        hashlib.sha256(payload.encode("utf-8")).hexdigest()
        float((_MATRIX @ _MATRIX).sum())
        [value * 2 for value in range(30)]
    return time.perf_counter() - started


class Calibrator:
    """Times the calibration loop in ``processes`` processes at once.

    With more than one process the loop runs in a forked pool, one copy per
    process, and the slowest copy counts, as the slowest worker sets a
    parallel workload's pace.  Use as a context manager; the pool's
    processes wait idle between calibrations.
    """

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self._pool: Optional[multiprocessing.pool.Pool] = None

    def __enter__(self) -> "Calibrator":
        if self.processes > 1:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.processes)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __call__(self) -> float:
        """Seconds the calibration takes right now."""
        if self._pool is None:
            return _loop()
        return max(self._pool.map(_loop, range(self.processes), chunksize=1))


def calibrated(seconds: float, calibration_s: float, processes: int) -> float:
    """``seconds`` measured while the calibration in ``processes`` processes
    took ``calibration_s``, in calibrated seconds."""
    return seconds * NOMINAL_S[processes] / calibration_s
