"""Span recording from outside the program.

The benchmark never edits ``src/``: it wraps the functions at each layer's
boundary from here, in every process that runs workload code, and records
one span per call.  A span is ``(id, parent, name, start, end, info)``;
``start`` and ``end`` are ``time.monotonic()`` readings, which on Linux come
from one system-wide clock, so spans from pool children and the worker
subprocess line up with the calling process.  ``info`` carries the one
number a layer metric needs from the call (a hit flag, a byte count, a
batch size).

Spans stay in memory and are written as JSONL, one file per process, when
the process ends:

* the calling process flushes explicitly (:meth:`Tracer.flush`);
* forked pool workers leave through ``os._exit``, so ``atexit`` never runs
  there; an after-fork hook drops the spans copied from the parent and
  registers a :class:`multiprocessing.util.Finalize`, which the worker's
  bootstrap runs on the way out;
* the ``repro worker`` subprocess starts through ``worker_shim.py``, which
  installs the same wrappers and flushes at exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["TRACER", "Tracer", "install", "install_fail_counter"]

Span = Tuple[int, int, str, float, float, Any]


class Tracer:
    """In-memory span store of one process, plus its queue-failure counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.directory: Optional[str] = None
        self.retried = 0
        self.failed = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, directory: str) -> None:
        """Record spans from now on and write them under ``directory``."""
        self.directory = directory
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # A forked child inherits the parent's spans; they are the parent's
        # to write.  The child writes its own when it exits.
        self.spans.clear()
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Append this process's spans to ``spans-<pid>.jsonl``."""
        if self.directory is None or not self.spans:
            return
        spans = list(self.spans)
        self.spans.clear()
        pid = os.getpid()
        path = os.path.join(self.directory, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, info in spans:
                record = {
                    "pid": pid,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "info": info,
                }
                handle.write(json.dumps(record) + "\n")

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``info(result, args, kwargs)`` computes the span's ``info`` value.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            value = None if info is None else info(result, args, kwargs)
            spans.append((span_id, parent, name, start, end, value))
            return result

        return traced


#: The process-wide tracer (forked children inherit it with the module).
TRACER = Tracer()


class TimedItem:
    """Picklable wrapper around the function a pool maps over items.

    ``install`` wraps its ``__call__`` in an ``engine.item`` span: the busy
    time of one dispatched item in whichever process runs it.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __getstate__(self):
        return (self.fn,)

    def __setstate__(self, state) -> None:
        (self.fn,) = state

    def __call__(self, item):
        return self.fn(item)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _patch(cls: type, attr: str, name: str, info=None) -> None:
    setattr(cls, attr, TRACER.wrap(name, cls.__dict__[attr], info))


def _patch_own(classes: List[type], attr: str, name: str, info=None) -> None:
    """Wrap ``attr`` on every class that defines it itself."""
    for cls in classes:
        if attr in cls.__dict__:
            _patch(cls, attr, name, info)


def _not_none(result, args, kwargs) -> int:
    return int(result is not None)


def _read_bytes(result, args, kwargs) -> int:
    if result is None:
        return 0
    store, key = args[0], args[1]
    try:
        return os.path.getsize(store._path(key))
    except OSError:  # removed by a concurrent store GC since the read
        return 0


def _write_bytes(result, args, kwargs) -> int:
    return int(sum(result)) if isinstance(result, list) else int(result)


def _batch_size(result, args, kwargs) -> int:
    return len(result)


def _stack_size(result, args, kwargs) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs["networks"])


def _map_workers(result, args, kwargs) -> int:
    executor, items = args[0], args[2]
    if executor.effective_backend == "serial" or len(items) <= 1:
        return 1
    return min(executor.n_jobs, len(items))


def _disposition(result, args, kwargs) -> str:
    return str(result)


def _resume_flag(result, args, kwargs) -> int:
    return int(bool(kwargs.get("resume", False)))


def install_fail_counter() -> None:
    """Count queue task failures and retries, traced or not.

    ``TaskQueue.fail`` runs only when a task raised, so the happy path
    pays nothing for this counter.
    """
    from repro.sched.queue import TaskQueue

    original = TaskQueue.fail

    @functools.wraps(original)
    def fail(self, *args, **kwargs):
        disposition = original(self, *args, **kwargs)
        if disposition == "retried":
            TRACER.retried += 1
        elif disposition == "failed":
            TRACER.failed += 1
        return disposition

    TaskQueue.fail = fail


def install(directory: str) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Call once per process, after :func:`install_fail_counter`.
    """
    import repro.api.session as session_module
    import repro.engine.cache as cache_module
    import repro.experiments  # noqa: F401  (registers and imports every layer)
    from repro.data.resampling import BootstrapResampler
    from repro.data.tasks import CaseStudyTask
    from repro.engine.executor import ParallelExecutor
    from repro.hpo.base import HPOptimizer
    from repro.pipelines.base import Pipeline
    from repro.pipelines.nn.batched import BatchedNetwork
    from repro.pipelines.nn.network import MLPNetwork
    from repro.pipelines.nn.optimizers import Optimizer
    from repro.sched.coordinator import Coordinator
    from repro.sched.queue import TaskQueue
    from repro.sched.worker import Worker

    TRACER.start(directory)

    # api
    _patch(session_module.Session, "run", "api.run")
    _patch(session_module.Session, "run_suite", "api.run_suite", _resume_flag)

    # engine, read and write side; modules that imported measurement_key
    # by name get the wrapped function too.
    original_key = cache_module.measurement_key
    traced_key = TRACER.wrap("engine.key", original_key)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and module is not None:
            if getattr(module, "measurement_key", None) is original_key:
                module.measurement_key = traced_key
    _patch(cache_module.MeasurementCache, "get", "engine.lookup", _not_none)
    _patch(cache_module.MeasurementCache, "put", "engine.commit")
    _patch(cache_module.MeasurementCache, "put_many", "engine.commit")
    _patch(cache_module.FileStore, "read", "engine.store_read", _read_bytes)
    _patch(cache_module.FileStore, "write", "engine.store_write", _write_bytes)
    _patch(cache_module.FileStore, "write_many", "engine.store_write", _write_bytes)

    # engine, dispatch: the map span carries the number of workers it used;
    # every item runs inside an engine.item span wherever the pool puts it.
    traced_map = TRACER.wrap("engine.map", ParallelExecutor.map, _map_workers)

    @functools.wraps(ParallelExecutor.map)
    def map_items(self, fn, items, **kwargs):
        return traced_map(self, TimedItem(fn), list(items), **kwargs)

    ParallelExecutor.map = map_items
    _patch(TimedItem, "__call__", "engine.item")

    # pipelines
    pipelines = _subclasses(Pipeline)
    _patch_own(pipelines, "fit", "pipelines.fit")
    _patch_own(pipelines, "fit_many", "pipelines.fit", _batch_size)
    for network in (MLPNetwork, BatchedNetwork):
        _patch(network, "forward", "pipelines.forward")
        _patch(network, "loss_and_gradients", "pipelines.backward")
    _patch_own(_subclasses(Optimizer), "step", "pipelines.optimizer")
    _patch(BatchedNetwork, "__init__", "pipelines.stack", _stack_size)

    # hpo
    _patch_own(_subclasses(HPOptimizer), "propose", "hpo.propose")

    # data
    _patch(BootstrapResampler, "split", "data.split")
    _patch(CaseStudyTask, "make_dataset", "data.dataset")

    # sched
    _patch(TaskQueue, "claim", "sched.claim", _not_none)
    _patch(TaskQueue, "commit", "sched.commit")
    _patch(TaskQueue, "fail", "sched.fail", _disposition)
    _patch(Coordinator, "run", "sched.coordinator")
    _patch(Worker, "run", "sched.worker")
    _patch(Worker, "_execute", "sched.execute")
