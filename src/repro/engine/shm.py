"""Shared-memory dataset arena for the process backend.

The process backend used to re-pickle the whole :class:`BenchmarkProcess`
— dataset arrays included — into every pool chunk.  For batched studies
the dataset is by far the largest part of that payload, and it never
changes between tasks.  This module publishes a dataset's arrays into
:mod:`multiprocessing.shared_memory` segments exactly once per parent
process and ships only a tiny picklable :class:`DatasetHandle` with each
task; pool workers attach to the segments on first unpickle (and cache the
attachment, for at most :data:`MAX_ATTACHED` datasets), so the dataset
bytes cross the process boundary zero times.

Lifecycle
---------
The arena owns the segments it created.  Each published dataset's
segments are released when the dataset object is garbage-collected
(``weakref.finalize``) and, as a crash/cancel backstop, when the
interpreter exits — ``weakref.finalize`` callbacks run at exit even if
:meth:`SharedDatasetArena.close` was never called.  Worker-side
attachments deliberately skip ``resource_tracker`` registration
(Python < 3.13 registers attachments just like creations, and pool
workers share the parent's tracker process), so a worker exiting — or
being SIGKILLed — neither unlinks the parent's segments nor corrupts the
tracker's create-side bookkeeping.  A worker keeps at most
:data:`MAX_ATTACHED` datasets attached; an evicted dataset's segments are
unmapped once no array of it is left.
"""

from __future__ import annotations

import contextlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["DatasetHandle", "SharedDatasetArena", "shared_arena"]


@contextlib.contextmanager
def _untracked_attach() -> Iterator[None]:
    """Attach to segments without registering them with the resource tracker.

    Before Python 3.13 (``track=False``), attaching registers the segment
    with the resource tracker just like creating does.  Pool workers share
    the parent's tracker process, so a worker that registered and then
    unregistered an attachment would erase the *parent's* registration —
    and the parent's eventual ``unlink`` would double-unregister, spewing
    ``KeyError`` tracebacks from the tracker.  Suppressing registration at
    attach time keeps tracker bookkeeping exactly create-side.
    """
    try:
        from multiprocessing import resource_tracker
    except Exception:  # pragma: no cover - platform without a tracker
        yield
        return
    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class DatasetHandle:
    """Picklable pointer to a dataset published in shared memory.

    Carries everything needed to rebuild the :class:`Dataset` zero-copy on
    the other side of a pool boundary, including the content-address token
    so attached datasets never re-hash their arrays for cache keys.
    """

    x_name: str
    y_name: str
    x_shape: Tuple[int, ...]
    y_shape: Tuple[int, ...]
    x_dtype: str
    y_dtype: str
    name: str
    task_type: str
    token: Optional[str] = None

    def materialize(self) -> Dataset:
        """Attach to the segments and rebuild the dataset (cached per process)."""
        return _attach(self)


#: Most datasets one process keeps attached.  Pool workers live as long as
#: their executor (a whole session), so without a bound a worker would keep
#: every dataset it ever attached mapped — unlinked segments included.
MAX_ATTACHED = 4

#: Per-process attachment cache, least recently used first: a worker
#: re-attaching the same segments for every task would pay a syscall per
#: task, so each (x, y) pair stays attached until evicted.
_ATTACHED: OrderedDict[Tuple[str, str], Dataset] = OrderedDict()


def _attach(handle: DatasetHandle) -> Dataset:
    key = (handle.x_name, handle.y_name)
    cached = _ATTACHED.get(key)
    if cached is not None:
        _ATTACHED.move_to_end(key)
        return cached
    with _untracked_attach():
        segment_x = shared_memory.SharedMemory(name=handle.x_name)
        segment_y = shared_memory.SharedMemory(name=handle.y_name)
    X = np.ndarray(handle.x_shape, dtype=np.dtype(handle.x_dtype), buffer=segment_x.buf)
    y = np.ndarray(handle.y_shape, dtype=np.dtype(handle.y_dtype), buffer=segment_y.buf)
    for array, segment in ((X, segment_x), (y, segment_y)):
        # SharedMemory.close() unmaps even while arrays still read the
        # buffer, so unmap only once the array is gone: every view of it
        # keeps it alive, so nothing can read the segment after that.
        weakref.finalize(array, segment.close).atexit = False
    dataset = Dataset(X, y, name=handle.name, task_type=handle.task_type)
    if handle.token is not None:
        # Pre-seed the content-address memo so measurement_key never
        # re-hashes the shared arrays.
        object.__setattr__(dataset, "_repro_content_token", handle.token)
    _ATTACHED[key] = dataset
    while len(_ATTACHED) > MAX_ATTACHED:
        _ATTACHED.popitem(last=False)
    return dataset


def _release_segments(names: Tuple[str, str]) -> None:
    """Close and unlink owned segments; idempotent and crash-tolerant."""
    for name in names:
        try:
            with _untracked_attach():
                segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - raced unlink
            pass


class SharedDatasetArena:
    """Publish datasets into shared memory, once per dataset per process."""

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[DatasetHandle, Tuple[shared_memory.SharedMemory, ...]]] = {}
        self._finalizers: Dict[int, weakref.finalize] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def publish(self, dataset: Dataset) -> DatasetHandle:
        """Return a handle for ``dataset``, copying it into shared memory once.

        The segments live until the dataset object is garbage-collected or
        the interpreter exits, whichever comes first.
        """
        key = id(dataset)
        entry = self._entries.get(key)
        if entry is not None:
            return entry[0]
        from repro.engine.cache import _dataset_token

        X = np.ascontiguousarray(dataset.X)
        y = np.ascontiguousarray(dataset.y)
        segment_x = shared_memory.SharedMemory(create=True, size=max(1, X.nbytes))
        segment_y = shared_memory.SharedMemory(create=True, size=max(1, y.nbytes))
        np.ndarray(X.shape, dtype=X.dtype, buffer=segment_x.buf)[...] = X
        np.ndarray(y.shape, dtype=y.dtype, buffer=segment_y.buf)[...] = y
        handle = DatasetHandle(
            x_name=segment_x.name,
            y_name=segment_y.name,
            x_shape=X.shape,
            y_shape=y.shape,
            x_dtype=X.dtype.str,
            y_dtype=y.dtype.str,
            name=dataset.name,
            task_type=dataset.task_type,
            token=_dataset_token(dataset),
        )
        self._entries[key] = (handle, (segment_x, segment_y))
        # Release when the dataset goes away; finalize also fires at
        # interpreter exit, covering crash/cancel paths that skip close().
        self._finalizers[key] = weakref.finalize(
            dataset, self._release, key, (segment_x.name, segment_y.name)
        )
        return handle

    def _release(self, key: int, names: Tuple[str, str]) -> None:
        entry = self._entries.pop(key, None)
        self._finalizers.pop(key, None)
        if entry is None:
            _release_segments(names)
            return
        for segment in entry[1]:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - raced unlink
                pass

    def close(self) -> None:
        """Release every published segment now (idempotent)."""
        for key in list(self._entries):
            handle, _ = self._entries[key]
            finalizer = self._finalizers.get(key)
            if finalizer is not None:
                finalizer.detach()
            self._release(key, (handle.x_name, handle.y_name))


#: Process-wide arena shared by every StudyRunner in this interpreter.
_ARENA = SharedDatasetArena()


def shared_arena() -> SharedDatasetArena:
    """The process-wide dataset arena."""
    return _ARENA
