"""Parallel, cached measurement execution engine.

The paper's studies are embarrassingly parallel: thousands of independent
measurements of the same benchmark process under different seed subsets.
This package turns that workload into a first-class subsystem:

* :mod:`repro.engine.cache` — :class:`MeasurementCache`, content-addressed
  memoization of measurements with hit/miss statistics and optional
  on-disk persistence;
* :mod:`repro.engine.executor` — :class:`ParallelExecutor`, a
  deterministic-ordering fan-out over threads or processes with an
  ``n_jobs`` knob;
* :mod:`repro.engine.runner` — :class:`StudyRunner`, the facade the
  variance / estimator / experiment drivers submit :class:`WorkItem`
  batches through.

Every study pre-draws its seeds before submitting work, so for a fixed
``random_state`` the engine produces bitwise-identical results at any
``n_jobs`` and with or without the cache.
"""

from repro.engine.cache import FileStore, MeasurementCache, measurement_key
from repro.engine.executor import (
    CancellableExecutor,
    ParallelExecutor,
    StudyCancelled,
    ensure_executor,
    resolve_n_jobs,
)
from repro.engine.runner import StudyRunner, WorkItem

__all__ = [
    "FileStore",
    "MeasurementCache",
    "measurement_key",
    "CancellableExecutor",
    "ParallelExecutor",
    "StudyCancelled",
    "ensure_executor",
    "resolve_n_jobs",
    "StudyRunner",
    "WorkItem",
]
