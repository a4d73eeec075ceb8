"""Deterministic fan-out of independent work items.

:class:`ParallelExecutor` wraps :mod:`concurrent.futures` behind the
one-method interface the studies need: *map a pure function over a list
and return results in submission order*.  Three backends are supported:

``"serial"``
    Plain loop in the calling thread (also used whenever ``n_jobs == 1``),
    guaranteed identical to the historical inline loops.
``"thread"``
    :class:`~concurrent.futures.ThreadPoolExecutor`; zero pickling
    requirements, best when the work releases the GIL (NumPy-heavy fits).
``"process"``
    :class:`~concurrent.futures.ProcessPoolExecutor`; the function and
    items must be picklable, best for pure-Python training loops.

Because every study pre-draws its seeds *before* submitting work, results
are bitwise independent of the backend, the number of workers, and the
completion order.

Pool lifetime
-------------
Each executor owns at most one worker pool.  The first map that needs
workers starts it; every later map reuses it — a session's runs, a
study's batches and concurrent ``Session.submit`` shards all share the
same warm workers, so pool start is paid once per executor rather than
once per batch.  :meth:`ParallelExecutor.close` (called by
:meth:`repro.api.session.Session.close`, or on leaving a
``with ParallelExecutor(...)`` block) shuts the pool down and joins its
workers; the executor stays usable, and its next map starts a fresh pool.
An executor garbage-collected without ``close`` has its pool shut down
by a :func:`weakref.finalize` backstop.  A pool broken by a dead worker
(:class:`~concurrent.futures.process.BrokenProcessPool`) is discarded:
that map raises, and the next one starts a fresh pool.

Cancel slots
------------
A :class:`threading.Event` cannot cross into process workers, so a
process pool starts with a shared array of cancel slots that its
initializer installs in every worker.  Each cancellable map leases one
slot, stamps it with a fresh generation number and wraps its function in
a guard that checks the slot before every item; a relay thread clears the
slot once the caller's event is set.  In-flight items finish, the map's
queued items raise :class:`StudyCancelled`, and other maps sharing the
pool run on untouched.  Releasing a slot clears it too, so stale queued
items of a cancelled map never run, even after the slot is leased again.
Thread pools check the caller's event directly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TypeVar

from repro.telemetry.instruments import (
    EXECUTOR_DISPATCH_SECONDS,
    EXECUTOR_ITEMS,
    EXECUTOR_QUEUE_DEPTH,
)

__all__ = [
    "CancellableExecutor",
    "ParallelExecutor",
    "StudyCancelled",
    "ensure_executor",
    "resolve_n_jobs",
]


class StudyCancelled(RuntimeError):
    """Raised inside a work fan-out once its cancellation event is set."""


#: Cancel slots per process pool: the most cancellable maps that can be in
#: flight on one pool at once (further maps wait for a free slot).
_CANCEL_SLOTS = 64

#: The cancel-slot table of the pool this worker process belongs to
#: (installed by :func:`_install_cancel_slots`; never set in the parent).
_CANCEL_SLOT_TABLE = None


def _install_cancel_slots(table) -> None:
    """Process-pool initializer: remember the pool's shared slot table."""
    global _CANCEL_SLOT_TABLE
    _CANCEL_SLOT_TABLE = table


def _slot_checked(slot: int, generation: int, fn, item):
    """Per-item guard run inside process workers: an item runs only while
    its map's slot still holds the map's generation, so a cancelled map
    stops between items instead of draining to the batch boundary."""
    if _CANCEL_SLOT_TABLE[slot] != generation:
        raise StudyCancelled("batch cancelled mid-run")
    return fn(item)


def _event_checked(event: threading.Event, fn, item):
    """Per-item guard run in thread workers."""
    if event.is_set():
        raise StudyCancelled("batch cancelled mid-run")
    return fn(item)


T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("serial", "thread", "process")


def _drain(
    results: Iterable[R],
    tick: Optional[Callable[[], None]],
    weights: Optional[Sequence[int]] = None,
    item_done: Optional[Callable[[], None]] = None,
) -> List[R]:
    """Collect a lazy result stream, invoking ``tick`` as each item lands.

    Pool ``map`` iterators yield in submission order from the caller's
    process, so the tick always runs caller-side — no pickling concerns.
    Without ``weights`` the tick fires exactly once per completed item;
    with ``weights`` it fires ``weights[i]`` times for item ``i`` — one
    tick per *measurement* when a batched task carries B of them, keeping
    progress bars and stall-steal heartbeats measurement-granular.
    ``item_done`` (telemetry accounting) fires exactly once per item
    regardless of weights.
    """
    if tick is None and item_done is None:
        return list(results)
    collected: List[R] = []
    for index, result in enumerate(results):
        collected.append(result)
        if item_done is not None:
            item_done()
        if tick is not None:
            for _ in range(weights[index] if weights is not None else 1):
                tick()
    return collected


def resolve_n_jobs(n_jobs: int) -> int:
    """Translate an ``n_jobs`` knob into a concrete worker count.

    ``-1`` (or any negative value) means "all available cores"; values are
    clamped to at least 1.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, n_jobs)


class _Pool:
    """One live worker pool and, for processes, its cancel-slot table."""

    def __init__(self, backend: str, n_jobs: int, owner: "ParallelExecutor") -> None:
        if backend == "thread":
            self.slots = None
            self.workers = ThreadPoolExecutor(
                max_workers=n_jobs, thread_name_prefix="repro-pool"
            )
        else:
            self.slots = multiprocessing.get_context().Array(
                "q", _CANCEL_SLOTS, lock=False
            )
            self.workers = ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_install_cancel_slots,
                initargs=(self.slots,),
            )
        self._free = list(range(_CANCEL_SLOTS))
        self._slot_freed = threading.Condition()
        self._generations = itertools.count(1)
        # Backstop for an owner collected without close(): process workers
        # are joined (reaped); thread workers are not, since the collection
        # may run on one of them.
        self._finalizer = weakref.finalize(
            owner, self.workers.shutdown, wait=self.slots is not None
        )

    def shutdown(self) -> None:
        """Shut the pool down and join its workers (idempotent)."""
        self._finalizer.detach()
        self.workers.shutdown(wait=True)

    @contextlib.contextmanager
    def guarded(
        self, fn: Callable[[T], R], cancel: Optional[threading.Event]
    ) -> Iterator[Callable[[T], R]]:
        """``fn`` wrapped to stop between items once ``cancel`` is set."""
        if cancel is None:
            yield fn
            return
        if self.slots is None:
            yield functools.partial(_event_checked, cancel, fn)
            return
        with self._slot_freed:
            while not self._free:
                self._slot_freed.wait()
            slot = self._free.pop()
            generation = next(self._generations)
        slots = self.slots
        slots[slot] = generation
        released = threading.Event()

        def _relay() -> None:
            while not released.is_set():
                if cancel.wait(0.02):
                    slots[slot] = 0
                    return

        relay = threading.Thread(target=_relay, name="repro-cancel-relay", daemon=True)
        relay.start()
        try:
            yield functools.partial(_slot_checked, slot, generation, fn)
        finally:
            released.set()
            relay.join()
            slots[slot] = 0
            with self._slot_freed:
                self._free.append(slot)
                self._slot_freed.notify()


class ParallelExecutor:
    """Map a function over items with a fixed worker budget.

    The worker pool is started by the first map that needs one and reused
    until :meth:`close`; the executor is also a context manager that
    closes on exit.

    Parameters
    ----------
    n_jobs:
        Number of workers; ``1`` (default) runs serially in the caller,
        ``-1`` uses every available core.
    backend:
        ``"serial"``, ``"thread"`` (default for ``n_jobs > 1``) or
        ``"process"``.
    chunksize:
        Optional override of the per-task chunk size for the process
        backend (defaults to an even split across workers, which bounds
        how many times the function's bound state is pickled).
    batch_size:
        Measurement-batching hint carried on the executor so it reaches
        every :class:`~repro.engine.runner.StudyRunner` built on it without
        widening driver signatures: runners group compatible work items
        into tasks of up to this many measurements.  ``1`` (default)
        disables batching.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        *,
        backend: str = "thread",
        chunksize: int | None = None,
        batch_size: int = 1,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.backend = backend
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be a positive integer or None")
        self.chunksize = chunksize
        if int(batch_size) < 1:
            raise ValueError("batch_size must be a positive integer")
        self.batch_size = int(batch_size)
        self._pool: Optional[_Pool] = None
        self._pool_lock = threading.Lock()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and join its workers (idempotent).

        The executor stays usable: a later map starts a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    @property
    def effective_backend(self) -> str:
        """The backend actually used (serial whenever one worker suffices)."""
        if self.n_jobs <= 1:
            return "serial"
        return self.backend

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        *,
        cancel: Optional[threading.Event] = None,
        tick: Optional[Callable[[], None]] = None,
        weights: Optional[Sequence[int]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results keep the submission order.

        When ``cancel`` is given, the fan-out stops as soon as the event is
        observed set: always before the batch starts, and per item on
        every backend (process workers see it through a leased cancel
        slot, see the module docstring) — in-flight items finish, queued
        items of the same batch do not.  Cancellation raises
        :class:`StudyCancelled` rather than returning partial results, so
        a caller can never mistake a truncated batch for a complete one.

        ``tick`` is an optional zero-argument liveness callback invoked in
        the *calling* process once per completed item, on every backend —
        the progress signal distributed workers couple their lease
        heartbeats to.  It must be cheap and must not raise.

        ``weights`` optionally declares how many measurements each item
        carries (batched tasks); ``tick`` then fires that many times per
        completed item so liveness stays measurement-granular.
        """
        items = list(items)
        if cancel is not None and cancel.is_set():
            raise StudyCancelled("batch cancelled before it started")
        if not items:
            return []
        if weights is not None and len(weights) != len(items):
            raise ValueError("weights must align one-to-one with items")
        backend = self.effective_backend
        # Telemetry: queue depth rises by the whole submission and falls
        # per completed item; dispatch latency is the full map wall time.
        # Pure side channel — no effect on ordering, seeding or results.
        depth = EXECUTOR_QUEUE_DEPTH.labels(backend=backend)
        done_counter = EXECUTOR_ITEMS.labels(backend=backend)
        completed = 0

        def _item_done() -> None:
            nonlocal completed
            completed += 1
            done_counter.inc()
            depth.dec()

        depth.inc(len(items))
        started = time.perf_counter()
        try:
            return self._dispatch(
                fn, items, backend, cancel, tick, weights, _item_done
            )
        finally:
            depth.dec(len(items) - completed)
            EXECUTOR_DISPATCH_SECONDS.labels(backend=backend).observe(
                time.perf_counter() - started
            )

    def _live_pool(self, backend: str) -> _Pool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _Pool(backend, self.n_jobs, self)
            return self._pool

    def _discard(self, pool: _Pool) -> None:
        """Drop a broken pool so the next map starts a fresh one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown()

    def _dispatch(
        self,
        fn: Callable[[T], R],
        items: List[T],
        backend: str,
        cancel: Optional[threading.Event],
        tick: Optional[Callable[[], None]],
        weights: Optional[Sequence[int]],
        item_done: Callable[[], None],
    ) -> List[R]:
        if backend == "serial" or len(items) == 1:
            results = []
            for index, item in enumerate(items):
                if cancel is not None and cancel.is_set():
                    raise StudyCancelled("batch cancelled mid-run")
                results.append(fn(item))
                item_done()
                if tick is not None:
                    for _ in range(weights[index] if weights is not None else 1):
                        tick()
            return results
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, -(-len(items) // min(self.n_jobs, len(items))))
        pool = self._live_pool(backend)
        with pool.guarded(fn, cancel) as guarded:
            try:
                return _drain(
                    pool.workers.map(guarded, items, chunksize=chunksize),
                    tick,
                    weights,
                    item_done,
                )
            except BrokenExecutor:
                self._discard(pool)
                raise


@contextlib.contextmanager
def ensure_executor(
    executor: Optional[ParallelExecutor], n_jobs: int = 1, *, backend: str = "thread"
) -> Iterator[ParallelExecutor]:
    """Yield ``executor`` as is, or — when it is ``None`` — a fresh
    :class:`ParallelExecutor` that is closed on exit: the fallback a
    stand-alone driver call builds for itself leaves no worker behind."""
    if executor is not None:
        yield executor
        return
    with ParallelExecutor(n_jobs, backend=backend) as owned:
        yield owned


class CancellableExecutor:
    """Executor view binding a cancellation event to every ``map`` call.

    Wraps any :class:`ParallelExecutor` behind the same one-method
    interface, so studies (and the :class:`~repro.engine.runner.StudyRunner`
    batches they submit) become cancellable without threading an event
    through every driver signature:
    :meth:`repro.api.session.Session.submit` hands each study a wrapped
    view of the shared executor, and
    :meth:`~repro.api.session.StudyHandle.cancel` sets the event — the
    next batch (or, on serial/thread backends, the next item) raises
    :class:`StudyCancelled` instead of running on.

    ``tick`` optionally binds a per-item liveness callback the same way
    (see :meth:`ParallelExecutor.map`); either binding may be ``None``.
    """

    __slots__ = ("inner", "cancel_event", "tick")

    def __init__(
        self,
        inner: ParallelExecutor,
        cancel_event: Optional[threading.Event] = None,
        *,
        tick: Optional[Callable[[], None]] = None,
    ) -> None:
        self.inner = inner
        self.cancel_event = cancel_event
        self.tick = tick

    @property
    def n_jobs(self) -> int:
        return self.inner.n_jobs

    @property
    def backend(self) -> str:
        return self.inner.backend

    @property
    def effective_backend(self) -> str:
        return self.inner.effective_backend

    @property
    def batch_size(self) -> int:
        return getattr(self.inner, "batch_size", 1)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T] | Iterable[T],
        *,
        weights: Optional[Sequence[int]] = None,
    ) -> List[R]:
        return self.inner.map(
            fn, items, cancel=self.cancel_event, tick=self.tick, weights=weights
        )
