"""The executor's long-lived worker pool and the single-dispatch HPO sweep.

Each :class:`ParallelExecutor` starts one pool on its first pooled map and
keeps it until ``close``; these tests pin the lifetime (same workers across
maps, nothing left behind after ``close``), recovery from a dead worker,
cancel slots shared by concurrent maps, the bounded shared-memory
attachments of long-lived workers, and the HPO sweep that carries its
algorithm on each work item.
"""

import json
import multiprocessing
import os
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import Session, StudySpec
from repro.core.benchmark import BenchmarkProcess
from repro.core.comparison import AverageComparison
from repro.core.variance import hpo_variance_study
from repro.data.dataset import Dataset
from repro.engine import (
    ParallelExecutor,
    StudyCancelled,
    StudyRunner,
    WorkItem,
    measurement_key,
)
from repro.engine import executor as executor_module
from repro.engine import shm
from repro.experiments.sample_size_study import run_sample_size_study
from repro.experiments.sota_study import run_sota_study
from repro.hpo.grid import NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.pipelines.mlp import MLPClassifierPipeline
from repro.simulation.detection import detection_rate
from repro.simulation.performance_model import DEFAULT_SIMULATED_TASKS
from repro.utils.rng import SeedBundle

pytestmark = pytest.mark.slow


def _pid(_item):
    return os.getpid()


def _square(x):
    return x * x


def _nap(x):
    time.sleep(0.02)
    return x * x


def _die(_item):
    os._exit(1)


def _mapped_segments():
    """Names of the shared-memory segments this process has mapped."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        return {
            line.split("/dev/shm/")[1].split()[0]
            for line in maps
            if "/dev/shm/psm_" in line
        }


def _attachments(_item):
    # Long enough that each of two items lands on its own idle worker.
    time.sleep(0.2)
    attached = {name for names in shm._ATTACHED for name in names}
    return os.getpid(), len(shm._ATTACHED), attached, _mapped_segments()


def _children():
    return {child.pid for child in multiprocessing.active_children()}


def _rows(result):
    return json.dumps(result.to_rows(), sort_keys=True, default=str)


class TestPoolLifetime:
    def test_maps_share_the_same_workers(self):
        before = _children()
        with ParallelExecutor(2, backend="process") as executor:
            first = set(executor.map(_pid, range(8)))
            workers = _children() - before
            second = set(executor.map(_pid, range(8)))
            assert len(workers) == 2
            assert first <= workers and second <= workers
            assert _children() - before == workers
        assert _children() - before == set()

    def test_thread_pool_is_reused_across_maps(self):
        executor = ParallelExecutor(2, backend="thread")
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        pool = executor._pool
        assert executor.map(_square, [4, 5]) == [16, 25]
        assert executor._pool is pool
        executor.close()
        assert executor._pool is None

    def test_closed_executor_starts_a_fresh_pool(self):
        before = _children()
        executor = ParallelExecutor(2, backend="process")
        first = set(executor.map(_pid, range(4)))
        executor.close()
        assert _children() - before == set()
        second = set(executor.map(_pid, range(4)))
        assert not first & second
        executor.close()
        assert _children() - before == set()

    def test_broken_pool_is_replaced_on_next_map(self):
        with ParallelExecutor(2, backend="process") as executor:
            with pytest.raises(BrokenExecutor):
                executor.map(_die, [1, 2])
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_sample_size_study(
                gammas=[0.75, 0.9], n_jobs=2, backend="process"
            ),
            lambda: run_sota_study(n_jobs=2, backend="process"),
            lambda: detection_rate(
                AverageComparison(),
                DEFAULT_SIMULATED_TASKS[0],
                0.75,
                k=5,
                n_simulations=4,
                random_state=0,
                n_jobs=2,
            ),
        ],
        ids=["sample_size", "sota", "detection_rate"],
    )
    def test_standalone_driver_closes_its_executor(self, call, monkeypatch):
        # Closed explicitly, not left to the garbage-collection backstop.
        closed = []
        close = ParallelExecutor.close

        def recording_close(executor):
            closed.append(executor)
            close(executor)

        monkeypatch.setattr(ParallelExecutor, "close", recording_close)
        before = _children()
        call()
        assert closed
        assert _children() - before == set()

    def test_default_runner_leaves_no_children(self, hard_process):
        before = _children()
        runner = StudyRunner(hard_process, n_jobs=2, backend="process")
        items = [WorkItem(seeds=SeedBundle(base_seed=seed)) for seed in range(3)]
        assert len(runner.run(items)) == 3
        assert _children() - before == set()
        assert runner.map(_square, [1, 2]) == [1, 4]
        assert _children() - before == set()

    def test_session_close_joins_workers_and_run_still_works(self):
        spec = StudySpec(
            study="binomial",
            params={"task_names": ["entailment"], "n_splits": 2, "dataset_size": 120},
            random_state=3,
        )
        before = _children()
        session = Session(n_jobs=2, backend="process")
        first = session.run(spec)
        assert _children() - before
        session.close()
        assert _children() - before == set()
        # Documented: blocking run() stays usable after close().
        again = session.run(spec.replace(cache=False))
        assert _rows(again) == _rows(first)
        session.close()
        assert _children() - before == set()


class TestCancelSlots:
    def test_concurrent_submits_share_the_pool_and_cancel_independently(self):
        slow = StudySpec(
            study="variance",
            params={
                "task_names": ["entailment", "sentiment"],
                "n_seeds": 6,
                "include_hpo": False,
                "dataset_size": 150,
            },
            random_state=1,
        )
        kept = StudySpec(
            study="binomial",
            params={
                "task_names": ["entailment", "sentiment"],
                "n_splits": 3,
                "dataset_size": 150,
            },
            random_state=2,
        )
        with Session(n_jobs=1) as reference_session:
            reference = reference_session.run(kept)
        slow_started = threading.Event()

        def progress(event, name, index, total, result):
            if event == "start":
                slow_started.set()

        before = _children()
        with Session(n_jobs=2, backend="process", max_concurrent_studies=4) as session:
            session._executor_for(2, "process").map(_pid, range(8))
            workers = _children() - before
            slow_handle = session.submit(slow, progress=progress)
            kept_handle = session.submit(kept)
            assert slow_started.wait(60)
            slow_handle.cancel()
            merged = kept_handle.result()
            for _partial in slow_handle.partial_results():
                pass
            # Both studies ran on the one warm pool, which outlived the
            # cancellation.
            assert len(session._executors) == 1
            assert _children() - before == workers
        assert _rows(merged) == _rows(reference)

    def test_cancelled_map_leaves_a_concurrent_map_complete(self):
        cancel = threading.Event()
        timer = threading.Timer(0.2, cancel.set)
        results = {}
        with ParallelExecutor(2, backend="process") as executor:

            def run_kept():
                results["kept"] = executor.map(_nap, list(range(30)))

            kept = threading.Thread(target=run_kept)
            kept.start()
            timer.start()
            with pytest.raises(StudyCancelled):
                executor.map(_nap, list(range(30)), cancel=cancel)
            kept.join(60)
            timer.join(60)
        assert not kept.is_alive()
        assert results["kept"] == [x * x for x in range(30)]

    def test_more_cancellable_maps_than_slots(self, monkeypatch):
        # Two slots, six concurrent cancellable maps on two workers: maps
        # wait for a free slot, and a re-leased slot never lets a cancelled
        # map's queued items run as if they belonged to the new lease.
        monkeypatch.setattr(executor_module, "_CANCEL_SLOTS", 2)
        outcomes = {}
        timers = []

        def run(index, executor):
            cancel = threading.Event()
            if index % 2:
                timers.append(threading.Timer(0.05, cancel.set))
                timers[-1].start()
            try:
                outcomes[index] = executor.map(_nap, list(range(12)), cancel=cancel)
            except StudyCancelled:
                outcomes[index] = "cancelled"

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ParallelExecutor(2, backend="process") as executor:
                threads = [
                    threading.Thread(target=run, args=(index, executor))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads + timers:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads + timers)
                assert executor._pool.slots[:] == [0, 0]
        finally:
            sys.setswitchinterval(switch_interval)
        for index in range(0, 6, 2):
            assert outcomes[index] == [x * x for x in range(12)]
        assert "cancelled" in [outcomes[index] for index in range(1, 6, 2)]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="reads the process memory map"
)
class TestSharedMemoryBound:
    def test_worker_attachments_stay_bounded(self):
        sizes = [100 + 10 * i for i in range(2 * shm.MAX_ATTACHED + 1)]
        with Session(n_jobs=2, backend="process") as session:
            executor = session._executor_for(2, "process")
            # Mappings a worker inherited at fork are not attachments.
            probes = executor.map(_attachments, range(2))
            inherited = {pid: mapped for pid, _count, _names, mapped in probes}
            for size in sizes:
                session.run(
                    StudySpec(
                        study="variance",
                        params={
                            "task_names": ["entailment"],
                            "n_seeds": 2,
                            "include_hpo": False,
                            "dataset_size": size,
                        },
                        random_state=0,
                    )
                )
            counts = executor.map(_attachments, range(2))
        assert {pid for pid, *_rest in counts} == set(inherited)
        assert len(inherited) == 2
        assert max(count for _pid, count, _names, _mapped in counts) == shm.MAX_ATTACHED
        # Evicted datasets are unmapped: a worker maps only what it attached
        # (and what it inherited at fork).
        for pid, _count, attached, mapped in counts:
            assert mapped <= attached | inherited[pid]

    def test_evicted_segment_stays_mapped_while_an_array_reads_it(self, monkeypatch):
        monkeypatch.setattr(shm, "_ATTACHED", OrderedDict())
        handles, segments = [], []
        for index in range(shm.MAX_ATTACHED + 1):
            arrays = (np.full((4, 2), float(index)), np.zeros(4, dtype=np.int64))
            for array in arrays:
                segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
                np.ndarray(array.shape, array.dtype, buffer=segment.buf)[...] = array
                segment.close()  # only attachments map it from here on
                segments.append(segment)
            handles.append(
                shm.DatasetHandle(
                    x_name=segments[-2].name,
                    y_name=segments[-1].name,
                    x_shape=arrays[0].shape,
                    y_shape=arrays[1].shape,
                    x_dtype=arrays[0].dtype.str,
                    y_dtype=arrays[1].dtype.str,
                    name=f"dataset-{index}",
                    task_type="classification",
                )
            )
        try:
            held = handles[0].materialize().X[1:]
            for handle in handles[1:]:
                handle.materialize()
            # The first dataset was evicted while ``held`` still reads its X.
            assert len(shm._ATTACHED) == shm.MAX_ATTACHED
            assert handles[0].x_name in _mapped_segments()
            assert handles[0].y_name not in _mapped_segments()
            assert held.sum() == 0.0
            del held
            assert handles[0].x_name not in _mapped_segments()
            assert handles[1].x_name in _mapped_segments()
        finally:
            shm._ATTACHED.clear()
            for segment in segments:
                segment.unlink()


class TestHpoSweepDispatch:
    @staticmethod
    def _pinned_process():
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        y = (np.arange(20) % 2).astype(np.int64)
        return BenchmarkProcess(
            Dataset(X, y, name="pinned"),
            MLPClassifierPipeline(hidden_sizes=(4,), n_epochs=2),
            hpo_budget=4,
        )

    def test_item_algorithm_key_equals_mutated_process_key(self):
        # Pinned to the key the mutate-the-process path produced, so
        # existing FileStores keep replaying with zero misses.
        process = self._pinned_process()
        seeds = SeedBundle(base_seed=7)
        carried = measurement_key(
            process, seeds, None, with_hpo=True, hpo_algorithm=NoisyGridSearch()
        )
        process.hpo_algorithm = NoisyGridSearch()
        mutated = measurement_key(process, seeds, None, with_hpo=True)
        assert carried == mutated
        assert carried == (
            "b590a2540af41bee94a80ad40ec988ec74471d75d955ae8f0759f48abc4e02f7"
        )

    def test_sweep_is_one_batch_and_leaves_the_process_alone(self, hard_process):
        calls = []

        class CountingRunner(StudyRunner):
            def run(self, items):
                calls.append(len(items))
                return super().run(items)

        original = hard_process.hpo_algorithm
        algorithms = {"random": RandomSearch(), "grid": NoisyGridSearch()}
        scores = hpo_variance_study(
            hard_process,
            algorithms,
            n_repetitions=2,
            random_state=4,
            runner=CountingRunner(hard_process),
        )
        assert calls == [4]
        assert hard_process.hpo_algorithm is original
        assert set(scores) == {"random", "grid"}
        assert all(len(values) == 2 for values in scores.values())

    def test_variance_with_hpo_bitwise_across_engine_settings(self):
        spec = StudySpec(
            study="variance",
            params={
                "task_names": ["entailment"],
                "n_seeds": 2,
                "n_hpo_repetitions": 2,
                "hpo_budget": 2,
                "dataset_size": 100,
            },
            random_state=8,
        )
        with Session(n_jobs=1, batch_size=1) as session:
            reference = _rows(session.run(spec))
        for n_jobs in (1, 2):
            for batch_size in (1, 8):
                for backend in ("thread", "process"):
                    with Session(
                        n_jobs=n_jobs, batch_size=batch_size, backend=backend
                    ) as session:
                        rows = _rows(session.run(spec))
                    assert rows == reference, (n_jobs, batch_size, backend)
