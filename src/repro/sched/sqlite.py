"""Transactional SQLite queue backend: claims are UPDATEs, not renames.

One WAL-mode database at ``<cache_dir>/queue.db`` carries every suite's
task state behind the :class:`~repro.sched.backend.QueueBackend`
protocol.  Where the filesystem backend's correctness leans on POSIX
rename atomicity and comparable clocks across hosts, this backend leans
on SQLite's transaction engine:

* **claim** — ``UPDATE tasks SET status='running', claim=? WHERE
  status='pending'``: of N racing workers exactly one sees
  ``rowcount == 1``, regardless of clock skew, NFS rename semantics, or
  how the database file is shared;
* **steal** — the same UPDATE gated on the *observed* claim token and an
  expired heartbeat, so a lease refreshed since the stealer's snapshot
  is never stolen by accident;
* **commit** — gated on the claim token and cleared atomically with the
  status flip, so a stale holder can never double-commit and there are
  no post-commit lease remnants to sweep;
* **retry** — the ``attempts`` counter is a column, incremented in the
  same transaction that re-enqueues or parks the task; the retry
  backoff gate is a ``not_before`` column checked inside the claim
  UPDATE itself, so no racer can claim a backing-off task early.

Claim *ordering* — priority, shard affinity (``prefer_member``), plan
position — stays in :meth:`~repro.sched.queue.TaskQueue.claimable`,
shared with the filesystem backend: this module only guarantees that of
the workers attempting a given task, exactly one wins.

WAL mode keeps readers (snapshot polls) unblocked by writers; a busy
timeout makes concurrent writers queue instead of failing.  Result
records and fidelity pickles live in the database too, so destroying a
suite's queue is one transaction and the database never leaks state
across runs.  Leases still expire against wall-clock heartbeat ages —
cross-host deployments should keep leases comfortably above worst-case
skew — but every *decision* (claim, steal, commit, fail) is serialized
by the database, which removes the race classes leases cannot.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence

from repro.sched.backend import (
    DEFAULT_LEASE_SECONDS,
    QueueBackend,
    QueueState,
    TaskClaim,
    retry_not_before,
)

__all__ = ["SqliteBackend"]

#: Default time (seconds) a writer waits on a locked database before
#: giving up — generous, because worker claim transactions are tiny and
#: a fleet's writes serialize through one WAL.
DEFAULT_BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS suites (
    suite      TEXT PRIMARY KEY,
    suite_json TEXT NOT NULL,
    plan       BLOB NOT NULL,
    revision   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    suite        TEXT NOT NULL,
    id           TEXT NOT NULL,
    status       TEXT NOT NULL
                 CHECK (status IN ('pending', 'running', 'done', 'failed')),
    claim        TEXT,
    worker       TEXT,
    attempts     INTEGER NOT NULL DEFAULT 0,
    heartbeat_at REAL,
    not_before   REAL,
    record       BLOB,
    raw          BLOB,
    error        TEXT,
    PRIMARY KEY (suite, id)
);
CREATE INDEX IF NOT EXISTS tasks_by_status ON tasks (suite, status);
"""


class SqliteBackend(QueueBackend):
    """One suite's task lifecycle inside a shared WAL-mode database.

    Parameters
    ----------
    db_path:
        The shared database file, normally ``<cache_dir>/queue.db`` —
        one database serves every suite under the cache dir.
    suite_name:
        The suite whose queue this backend instance addresses.
    lease_seconds:
        Heartbeat lease; a running task whose ``heartbeat_at`` is older
        than this may be stolen.
    busy_timeout:
        Seconds a write waits on a locked database before raising.
    """

    name = "sqlite"

    def __init__(
        self,
        db_path: str,
        suite_name: str,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
    ) -> None:
        super().__init__(suite_name, lease_seconds)
        self.db_path = str(db_path)
        self.busy_timeout = float(busy_timeout)
        # One connection per backend instance, shared across the owning
        # worker's threads (main loop + heartbeat) behind a lock; other
        # processes open their own connections and coordinate through
        # the WAL.
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            directory = os.path.dirname(self.db_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(
                self.db_path,
                timeout=self.busy_timeout,
                check_same_thread=False,
                isolation_level=None,  # autocommit; transactions explicit
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}"
            )
            conn.executescript(_SCHEMA)
            # Databases created before the retry-backoff column existed
            # migrate in place (CREATE TABLE IF NOT EXISTS never adds
            # columns); a concurrent opener racing the same ALTER loses
            # with "duplicate column name", which is success.
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(tasks)")
            }
            if "not_before" not in columns:
                try:
                    conn.execute(
                        "ALTER TABLE tasks ADD COLUMN not_before REAL"
                    )
                except sqlite3.OperationalError:
                    pass
            self._conn = conn
        return self._conn

    @classmethod
    def discover_suites(cls, db_path: str) -> List[str]:
        """Suite names with a durable plan in ``db_path`` (no database is
        created by asking)."""
        if not os.path.exists(db_path):
            return []
        try:
            conn = sqlite3.connect(db_path, timeout=1.0)
            try:
                rows = conn.execute(
                    "SELECT suite FROM suites ORDER BY suite"
                ).fetchall()
            finally:
                conn.close()
        except sqlite3.Error:
            return []
        return [row[0] for row in rows]

    def where(self) -> str:
        return f"{self.db_path}#{self.suite_name}"

    def errors_where(self) -> str:
        return (
            f"{self.db_path} (tasks.error; `python -m repro queue` shows "
            f"attempt counts)"
        )

    # ------------------------------------------------------------------
    # Enqueue lifecycle
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        if not os.path.exists(self.db_path):
            return False
        with self._lock:
            row = self._connect().execute(
                "SELECT 1 FROM suites WHERE suite = ?", (self.suite_name,)
            ).fetchone()
        return row is not None

    def read_plan(self) -> bytes:
        with self._lock:
            row = self._connect().execute(
                "SELECT plan FROM suites WHERE suite = ?", (self.suite_name,)
            ).fetchone()
        if row is None:
            raise FileNotFoundError(
                f"no plan for suite {self.suite_name!r} in {self.db_path}"
            )
        return bytes(row[0])

    def plan_stamp(self) -> Any:
        with self._lock:
            row = self._connect().execute(
                "SELECT revision FROM suites WHERE suite = ?",
                (self.suite_name,),
            ).fetchone()
        if row is None:
            raise FileNotFoundError(
                f"no plan for suite {self.suite_name!r} in {self.db_path}"
            )
        return row[0]

    def read_suite(self) -> str:
        with self._lock:
            row = self._connect().execute(
                "SELECT suite_json FROM suites WHERE suite = ?",
                (self.suite_name,),
            ).fetchone()
        if row is None:
            raise FileNotFoundError(
                f"no manifest for suite {self.suite_name!r} in {self.db_path}"
            )
        return row[0]

    def create_plan(
        self, suite_json: bytes, plan_payload: bytes, task_ids: Sequence[str]
    ) -> None:
        # One transaction: the suite row (the plan — the queue's
        # existence) and every pending task land together or not at all,
        # so a crash mid-enqueue can never leave a claimable half-queue.
        # The revision is a wall-clock stamp so a worker's cached plan
        # from a *previous* enqueue of this suite always reads as stale.
        with self._lock:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "DELETE FROM tasks WHERE suite = ?", (self.suite_name,)
                )
                conn.executemany(
                    "INSERT INTO tasks (suite, id, status) "
                    "VALUES (?, ?, 'pending')",
                    [(self.suite_name, task_id) for task_id in task_ids],
                )
                conn.execute(
                    "INSERT OR REPLACE INTO suites "
                    "(suite, suite_json, plan, revision) VALUES (?, ?, ?, ?)",
                    (
                        self.suite_name,
                        suite_json.decode("utf-8"),
                        plan_payload,
                        time.time_ns(),
                    ),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def reset(self) -> None:
        with self._lock:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                # The suite row goes in the same transaction as the task
                # state: the queue stops existing and loses its markers
                # atomically, so no worker can observe a plan without
                # state or state without a plan.
                conn.execute(
                    "DELETE FROM suites WHERE suite = ?", (self.suite_name,)
                )
                conn.execute(
                    "DELETE FROM tasks WHERE suite = ?", (self.suite_name,)
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def destroy(self) -> None:
        if not os.path.exists(self.db_path):
            return
        self.reset()

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def snapshot(self, *, detail: bool = False) -> QueueState:
        state = QueueState()
        now = time.time()
        with self._lock:
            rows = self._connect().execute(
                "SELECT id, status, claim, worker, attempts, heartbeat_at, "
                "not_before FROM tasks WHERE suite = ?",
                (self.suite_name,),
            ).fetchall()
        for (
            task_id,
            status,
            claim,
            worker,
            attempts,
            heartbeat_at,
            not_before,
        ) in rows:
            if status == "pending":
                state.pending.add(task_id)
                if detail and not_before is not None and not_before > now:
                    state.not_before[task_id] = float(not_before)
            elif status == "running":
                age = max(0.0, now - (heartbeat_at or 0.0))
                state.running[task_id] = (claim or "", age)
                if detail and worker:
                    state.workers[task_id] = worker
            elif status == "done":
                state.done.add(task_id)
            else:
                state.failed.add(task_id)
            if detail and attempts:
                state.attempts[task_id] = int(attempts)
        return state

    def claim(self, task_id: str, *, worker: str = "") -> Optional[TaskClaim]:
        token = uuid.uuid4().hex[:12]
        with self._lock:
            conn = self._connect()
            # The backoff gate lives inside the claim transaction: a
            # retried task simply isn't claimable until its not-before
            # passes, with no separate read for racers to interleave.
            now = time.time()
            cursor = conn.execute(
                "UPDATE tasks SET status = 'running', claim = ?, "
                "worker = ?, heartbeat_at = ?, not_before = NULL "
                "WHERE suite = ? AND id = ? AND status = 'pending' "
                "AND (not_before IS NULL OR not_before <= ?)",
                (token, worker, now, self.suite_name, task_id, now),
            )
            if cursor.rowcount != 1:
                return None
            row = conn.execute(
                "SELECT attempts FROM tasks WHERE suite = ? AND id = ?",
                (self.suite_name, task_id),
            ).fetchone()
        return TaskClaim(
            task_id=task_id,
            token=token,
            attempts=int(row[0]) if row else 0,
        )

    def steal_expired(
        self, task_id: str, lease_name: str, *, worker: str = ""
    ) -> Optional[TaskClaim]:
        token = uuid.uuid4().hex[:12]
        cutoff = time.time() - self.lease_seconds
        with self._lock:
            conn = self._connect()
            # Gated on the claim token observed in the stealer's snapshot
            # *and* a still-expired heartbeat, inside one UPDATE: a lease
            # refreshed since the snapshot, or already stolen by someone
            # else (different token), makes the WHERE miss — exactly one
            # stealer can ever win.
            cursor = conn.execute(
                "UPDATE tasks SET claim = ?, worker = ?, heartbeat_at = ? "
                "WHERE suite = ? AND id = ? AND status = 'running' "
                "AND claim = ? AND heartbeat_at <= ?",
                (
                    token,
                    worker,
                    time.time(),
                    self.suite_name,
                    task_id,
                    lease_name,
                    cutoff,
                ),
            )
            if cursor.rowcount != 1:
                return None
            row = conn.execute(
                "SELECT attempts FROM tasks WHERE suite = ? AND id = ?",
                (self.suite_name, task_id),
            ).fetchone()
        return TaskClaim(
            task_id=task_id,
            token=token,
            attempts=int(row[0]) if row else 0,
        )

    def heartbeat(self, claim: TaskClaim) -> bool:
        with self._lock:
            cursor = self._connect().execute(
                "UPDATE tasks SET heartbeat_at = ? "
                "WHERE suite = ? AND id = ? AND claim = ? "
                "AND status = 'running'",
                (time.time(), self.suite_name, claim.task_id, claim.token),
            )
        return cursor.rowcount == 1

    def commit(
        self, claim: TaskClaim, record: bytes, raw: Optional[bytes]
    ) -> bool:
        with self._lock:
            cursor = self._connect().execute(
                "UPDATE tasks SET status = 'done', record = ?, raw = ?, "
                "claim = NULL, heartbeat_at = NULL "
                "WHERE suite = ? AND id = ? AND claim = ? "
                "AND status = 'running'",
                (record, raw, self.suite_name, claim.task_id, claim.token),
            )
        # The status flip, the record, and the lease clear are one
        # atomic row update gated on the claim token: a stale holder
        # (stolen claim) misses the WHERE and commits nothing.
        return cursor.rowcount == 1

    def fail(
        self,
        claim: TaskClaim,
        message: str,
        *,
        transient: bool = False,
        max_attempts: int = 1,
        retry_base_seconds: float = 0.0,
        retry_cap_seconds: float = 60.0,
    ) -> str:
        with self._lock:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT attempts FROM tasks "
                    "WHERE suite = ? AND id = ? AND claim = ? "
                    "AND status = 'running'",
                    (self.suite_name, claim.task_id, claim.token),
                ).fetchone()
                if row is None:  # stolen: the thief owns the task's fate
                    conn.execute("ROLLBACK")
                    return ""
                attempts = int(row[0]) + 1
                if transient and attempts < max_attempts:
                    not_before = None
                    if retry_base_seconds > 0:
                        not_before = retry_not_before(
                            claim.task_id,
                            attempts,
                            base=retry_base_seconds,
                            cap=retry_cap_seconds,
                        )
                    conn.execute(
                        "UPDATE tasks SET status = 'pending', claim = NULL, "
                        "worker = NULL, heartbeat_at = NULL, attempts = ?, "
                        "not_before = ?, error = ? WHERE suite = ? AND id = ?",
                        (
                            attempts,
                            not_before,
                            message,
                            self.suite_name,
                            claim.task_id,
                        ),
                    )
                    conn.execute("COMMIT")
                    return "retried"
                conn.execute(
                    "UPDATE tasks SET status = 'failed', claim = NULL, "
                    "heartbeat_at = NULL, attempts = ?, error = ? "
                    "WHERE suite = ? AND id = ?",
                    (attempts, message, self.suite_name, claim.task_id),
                )
                conn.execute("COMMIT")
                return "failed"
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def release(self, claim: TaskClaim) -> bool:
        with self._lock:
            cursor = self._connect().execute(
                "UPDATE tasks SET status = 'pending', claim = NULL, "
                "worker = NULL, heartbeat_at = NULL "
                "WHERE suite = ? AND id = ? AND claim = ? "
                "AND status = 'running'",
                (self.suite_name, claim.task_id, claim.token),
            )
        return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _cell(self, column: str, task_id: str) -> Optional[Any]:
        with self._lock:
            row = self._connect().execute(
                f"SELECT {column} FROM tasks WHERE suite = ? AND id = ?",
                (self.suite_name, task_id),
            ).fetchone()
        return None if row is None else row[0]

    def load_record(self, task_id: str) -> Optional[bytes]:
        record = self._cell("record", task_id)
        return None if record is None else bytes(record)

    def load_raw(self, task_id: str) -> Optional[bytes]:
        raw = self._cell("raw", task_id)
        return None if raw is None else bytes(raw)

    def load_error(self, task_id: str) -> str:
        error = self._cell("error", task_id)
        return "" if error is None else str(error)
