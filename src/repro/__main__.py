"""Command-line front door: ``python -m repro``.

A thin shell over :class:`~repro.api.spec.StudySpec` /
:class:`~repro.api.spec.SuiteSpec` and
:class:`~repro.api.session.Session`, so any registered study — or a whole
figure suite — is launchable from a JSON manifest without writing Python::

    python -m repro list
    python -m repro run spec.json
    python -m repro run spec.json --n-jobs 4 --cache-dir .repro-cache
    echo '{"study": "sample_size", "params": {}}' | python -m repro run -

    python -m repro suite manifest.json --n-jobs 4
    python -m repro suite manifest.json --resume        # replay completions
    python -m repro gc .repro-cache --max-bytes 67108864

    # variance-provenance reports from cached completion records only
    python -m repro report .repro-cache --suite fig-suite

    # telemetry: span tree + per-phase timing from <cache_dir>/telemetry/
    python -m repro trace .repro-cache --suite fig-suite

    # distributed: one coordinator + any number of workers, same cache dir
    python -m repro suite manifest.json --distributed   # terminal 1
    python -m repro worker .repro-cache                 # terminals 2..N
    python -m repro queue .repro-cache                  # live queue status

    # transactional sqlite queue instead of rename-claim files
    python -m repro suite manifest.json --distributed --queue-backend sqlite

    # long-running HTTP/JSON study service with a live dashboard at /
    python -m repro serve .repro-cache --port 8321      # terminal 1
    python -m repro worker .repro-cache                 # terminals 2..N
    curl -d @manifest.json http://127.0.0.1:8321/v1/suites

``run`` prints :meth:`~repro.api.results.StudyResult.summary` (or, with
``--json``, the full rows/provenance payload of
:meth:`~repro.api.results.StudyResult.to_json`).  ``suite`` executes every
member of a :class:`~repro.api.spec.SuiteSpec` manifest through one shared
session/cache with per-member progress on stderr; ``--resume`` replays
members already completed against the same ``cache_dir`` (a changed spec
invalidates its record), and ``--distributed`` routes execution through
the durable work queue in the cache dir so ``worker`` processes — on this
host or any host sharing the directory — claim tasks under heartbeat
leases and the coordinator assembles the bitwise-identical result.
``--queue-backend`` picks where task state lives: ``fs`` (rename-claim
files under ``<cache_dir>/queue/<suite>/``, the default) or ``sqlite``
(transactional claims in ``<cache_dir>/queue.db``).  ``worker`` serves
every queue it finds — on either backend — under one cache dir until
stopped (or, with ``--exit-when-done``, until all queues complete);
``queue`` prints each queue's live pending/running/done/failed state,
lease ages and attempt counts.
``serve`` runs the long-lived study service (see ``src/repro/serve/``):
specs POSTed to ``/v1/studies`` run on the session's bounded in-process
pool, manifests POSTed to ``/v1/suites`` go through the same durable
queue that ``worker`` drains, per-member progress streams from
``/v1/jobs/<id>/events`` as server-sent events, and ``GET /`` serves a
zero-dependency status dashboard.
``report`` rebuilds variance-provenance artifacts (markdown + JSON
variance budgets, see ``src/repro/report/``) purely from the suite
completion records in a cache dir — no measurement re-executes — and
writes them under ``<cache_dir>/reports/<suite>/``.
``trace`` renders the telemetry span tree persisted under
``<cache_dir>/telemetry/`` (every process that ran against the cache
dir appends its spans there, stitched into one trace per suite) plus
per-phase timing aggregates; ``--json`` emits the raw spans.  ``run``,
``suite``, ``worker`` and ``serve`` accept ``--log-level`` (or the
``REPRO_LOG_LEVEL`` environment variable) to tune the levelled stderr
logging that replaces bare progress prints; ``REPRO_TELEMETRY=0``
disables metrics and tracing entirely (results are bitwise-identical
either way).
``gc`` prunes a per-key store back within byte / entry budgets,
LRU-by-last-use.  Because specs fully determine their results (seeds are
scope-derived, see EXPERIMENTS.md), re-running against the same
``--cache-dir`` replays measurements without refitting — including
measurements persisted by other workers sharing the directory.

Options are declared once each, in the table below, with their type,
default and range check; every subcommand picks the ones it takes:

* the **engine** group — ``--n-jobs``, ``--backend``, ``--batch-size`` —
  on ``run``, ``suite``, ``worker`` and ``serve``;
* the **queue** group — ``--queue-backend``, ``--lease-seconds``,
  ``--max-attempts``, ``--stall-seconds`` — on ``suite`` (only with
  ``--distributed``), ``worker`` and ``serve``; ``queue`` takes
  ``--queue-backend`` and ``--lease-seconds``;
* the positional ``cache_dir`` (which must exist) on ``worker``,
  ``queue``, ``gc``, ``serve``, ``trace`` and ``report``; ``--suite`` on
  ``worker``, ``queue``, ``trace`` and ``report``; ``--json`` on every
  subcommand except ``worker`` and ``serve``.

Durations (``--lease-seconds``, ``--stall-seconds``, ``--poll-seconds``,
``--timeout``) must be positive; counts (``--batch-size``,
``--max-attempts``, ``--max-tasks``, ``--max-bytes``, ``--max-entries``,
``--max-concurrent-studies``) at least 1; ``--n-jobs`` takes any integer.

Exit codes: 0 success, 2 for an unreadable or malformed spec/manifest or
an out-of-range option (the offending field or flag is named on stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.api import Session, StudySpec, SuiteSpec, get_study, iter_studies
from repro.api.spec import VALID_BACKENDS
from repro.engine.cache import FileStore
from repro.sched.backend import QUEUE_BACKENDS
from repro.sched.queue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.telemetry.log import get_logger, setup_logging


class CLIError(Exception):
    """A user-input problem (bad file, malformed manifest, out-of-range
    option): message, no traceback, exit code 2."""


# A range check: a predicate over a given (non-None) value and the error
# message when it fails.  main() applies each declared check once.
_Check = Tuple[Callable[[Any], bool], str]
_POSITIVE: _Check = (lambda value: value > 0, "{flag} must be positive")
_AT_LEAST_1: _Check = (lambda value: value >= 1, "{flag} must be at least 1")
_PORT_RANGE: _Check = (
    lambda value: 0 <= value <= 65535,
    "{flag} must be between 0 and 65535",
)
_EXISTING_DIR: _Check = (os.path.isdir, "no cache directory at {value!r}")


class _Option:
    """One CLI option, declared once: its flag (or positional name), its
    ``add_argument`` keywords and its optional range check."""

    def __init__(
        self, flag: str, check: Optional[_Check] = None, **kwargs: Any
    ) -> None:
        self.flag = flag
        self.dest = flag.lstrip("-").replace("-", "_")
        self.check = check
        self.kwargs = kwargs

    def but(self, **kwargs: Any) -> "_Option":
        """This option with a subcommand's own default or help text."""
        return _Option(self.flag, self.check, **{**self.kwargs, **kwargs})

    def problem(self, args: argparse.Namespace) -> Optional[str]:
        """The range-check message for this option's parsed value, if any."""
        value = getattr(args, self.dest)
        if self.check is None or value is None:
            return None
        accepts, message = self.check
        if accepts(value):
            return None
        return message.format(flag=self.flag, value=value)


_SPEC = _Option("spec", help="path to the spec JSON ('-' reads stdin)")
_MANIFEST = _Option(
    "manifest", help="path to the suite manifest JSON ('-' reads stdin)"
)
_STORE = _Option(
    "cache_dir",
    _EXISTING_DIR,
    help=(
        "the shared per-key store directory (measurements, suite records, "
        "work queues and telemetry all live under it)"
    ),
)
_CACHE_DIR = _Option(
    "--cache-dir",
    default=None,
    help=(
        "per-key measurement store shared by concurrent workers (overrides "
        "the manifest's); re-runs replay from it without refitting"
    ),
)

# Engine group: how fast results arrive, never what they are.
_N_JOBS = _Option(
    "--n-jobs",
    type=int,
    default=None,
    help="override the worker count (-1 = all cores)",
)
_BACKEND = _Option(
    "--backend",
    choices=VALID_BACKENDS,
    default=None,
    help="override the executor backend",
)
_BATCH_SIZE = _Option(
    "--batch-size",
    _AT_LEAST_1,
    type=int,
    default=None,
    help=(
        "group up to this many same-hyperparameter measurements into one "
        "vectorized multi-seed fit per dispatched task (results are "
        "bitwise-identical at any value; defaults the backend to 'process')"
    ),
)
_ENGINE = (_N_JOBS, _BACKEND, _BATCH_SIZE)

# Queue group: the durable work queue's knobs (suite: with --distributed).
_QUEUE_BACKEND = _Option(
    "--queue-backend",
    choices=QUEUE_BACKENDS,
    default=None,
    help=(
        "where durable task state lives: 'fs' (rename-claim files under "
        "<cache_dir>/queue/<suite>/) or 'sqlite' (transactional claims in "
        "<cache_dir>/queue.db; immune to clock skew and NFS rename races); "
        "suite and serve enqueue on fs by default, worker and queue serve "
        "and show both"
    ),
)
_LEASE_SECONDS = _Option(
    "--lease-seconds",
    _POSITIVE,
    type=float,
    default=DEFAULT_LEASE_SECONDS,
    help=(
        "heartbeat lease after which a claimed task is presumed crashed "
        f"and may be stolen (default {DEFAULT_LEASE_SECONDS:g}; use minutes "
        "across hosts with clock skew; queue flags leases older than this)"
    ),
)
_MAX_ATTEMPTS = _Option(
    "--max-attempts",
    _AT_LEAST_1,
    type=int,
    default=None,
    help=(
        "executions a task gets before a transient failure (OSError, "
        f"timeout) parks it as failed (default {DEFAULT_MAX_ATTEMPTS}; "
        "deterministic errors always park on the first)"
    ),
)
_STALL_SECONDS = _Option(
    "--stall-seconds",
    _POSITIVE,
    type=float,
    default=None,
    help=(
        "stop renewing a task's lease when its study makes no progress for "
        "this long, so a hung task is stolen by a healthy worker (default: "
        "renew unconditionally)"
    ),
)
_QUEUE = (_QUEUE_BACKEND, _LEASE_SECONDS, _MAX_ATTEMPTS, _STALL_SECONDS)

_SUITE = _Option(
    "--suite",
    default=None,
    help="only this suite (default: every suite under the cache dir)",
)
_JSON = _Option(
    "--json",
    action="store_true",
    help="print the machine-readable JSON payload instead of the summary",
)
_LOG_LEVEL = _Option(
    "--log-level",
    default=None,
    metavar="LEVEL",
    help=(
        "logging threshold for repro.* loggers (DEBUG, INFO, WARNING, "
        "ERROR, CRITICAL; default: $REPRO_LOG_LEVEL or INFO)"
    ),
)
_SHARD_MEMBERS = _Option(
    "--shard-members",
    action="store_true",
    help=(
        "pre-shard suite members by scope path (e.g. one task per "
        "task_names value) for finer-grained work stealing"
    ),
)
_RESUME = _Option(
    "--resume",
    action="store_true",
    help=(
        "replay members whose completion record (written under the "
        "cache_dir on every finished run) matches their current spec, "
        "re-running only the rest"
    ),
)
_DISTRIBUTED = _Option(
    "--distributed",
    action="store_true",
    help=(
        "execute through the durable work queue in the cache dir so "
        "`repro worker` processes sharing it claim tasks cooperatively; "
        "this coordinator participates too, so zero workers still complete "
        "(--shard-members and the queue options require it)"
    ),
)
_POLL_SECONDS = _Option(
    "--poll-seconds",
    _POSITIVE,
    type=float,
    default=0.5,
    help="idle sleep between queue scans (default 0.5)",
)
_MAX_TASKS = _Option(
    "--max-tasks",
    _AT_LEAST_1,
    type=int,
    default=None,
    help="exit after executing this many tasks",
)
_TIMEOUT = _Option(
    "--timeout",
    _POSITIVE,
    type=float,
    default=None,
    help="exit after this many seconds regardless of queue state",
)
_EXIT_WHEN_DONE = _Option(
    "--exit-when-done",
    action="store_true",
    help=(
        "exit once at least one queue exists and every queue served is "
        "complete (default: poll forever for new suites)"
    ),
)
_WORKER_ID = _Option(
    "--worker-id",
    default=None,
    help="identity stamped into lease files (default host:pid)",
)
_MAX_BYTES = _Option(
    "--max-bytes",
    _AT_LEAST_1,
    type=int,
    default=None,
    help="byte budget for the object tree",
)
_MAX_ENTRIES = _Option(
    "--max-entries",
    _AT_LEAST_1,
    type=int,
    default=None,
    help="entry-count budget for the object tree",
)
_HOST = _Option(
    "--host",
    default="127.0.0.1",
    help="interface to bind (default 127.0.0.1; 0.0.0.0 exposes the LAN)",
)
_PORT = _Option(
    "--port",
    _PORT_RANGE,
    type=int,
    default=8321,
    help="port to bind (default 8321; 0 picks a free port)",
)
_MAX_CONCURRENT_STUDIES = _Option(
    "--max-concurrent-studies",
    _AT_LEAST_1,
    type=int,
    default=None,
    help=(
        "bound on studies the in-process submit pool runs at once "
        "(suites are not affected: they go through the work queue)"
    ),
)
_NO_PARTICIPATE = _Option(
    "--no-participate",
    action="store_true",
    help=(
        "do not execute suite tasks in the service process; external "
        "`repro worker` processes must drain the queue"
    ),
)
_QUIET = _Option(
    "--quiet", action="store_true", help="suppress per-request access logging"
)


def _engine_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """The engine options set on the command line, by keyword (unset ones
    leave the spec's, manifest's or session's own configuration)."""
    return {
        option.dest: getattr(args, option.dest)
        for option in _ENGINE
        if getattr(args, option.dest) is not None
    }


def _queue_config(args: argparse.Namespace) -> Dict[str, Any]:
    """The queue options' parsed values, by keyword."""
    return {option.dest: getattr(args, option.dest) for option in _QUEUE}


def _read_payload(source: str, what: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise CLIError(f"cannot read {what} {source!r}: {error}") from error


def _read_spec(source: str) -> StudySpec:
    payload = _read_payload(source, "spec file")
    try:
        spec = StudySpec.from_json(payload)
        get_study(spec.study).validate_params(spec.params)
    except json.JSONDecodeError as error:
        raise CLIError(f"spec {source!r} is not valid JSON: {error}") from error
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        raise CLIError(f"malformed spec {source!r}: {message}") from error
    return spec


def _read_suite(source: str) -> SuiteSpec:
    payload = _read_payload(source, "suite manifest")
    try:
        suite = SuiteSpec.from_json(payload)
    except json.JSONDecodeError as error:
        raise CLIError(
            f"suite manifest {source!r} is not valid JSON: {error}"
        ) from error
    except (TypeError, ValueError) as error:
        raise CLIError(
            f"malformed suite manifest {source!r}: {error}"
        ) from error
    return suite


def _run(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec)
    overrides = _engine_overrides(args)
    batch_size = overrides.pop("batch_size", 1)
    if overrides:
        spec = spec.replace(**overrides)
    with Session(cache_dir=args.cache_dir, batch_size=batch_size) as session:
        result = session.run(spec)
        print(result.to_json(indent=2) if args.json else result.summary())
    return 0


def _suite(args: argparse.Namespace) -> int:
    suite = _read_suite(args.manifest)
    overrides = _engine_overrides(args)
    session_overrides = {}
    if "batch_size" in overrides:
        session_overrides["batch_size"] = overrides.pop("batch_size")
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    if overrides:
        suite = suite.replace(**overrides)
    if args.resume and suite.cache_dir is None:
        raise CLIError(
            "--resume requires a cache_dir (in the manifest or --cache-dir)"
        )
    try:
        suite.validate()
    except ValueError as error:
        raise CLIError(f"malformed suite manifest {args.manifest!r}: {error}") from error

    total = len(suite)
    logger = get_logger("suite")

    def progress(event, name, index, total=total, result=None):
        if event == "start":
            logger.info("[%d/%d] %s ...", index + 1, total, name)
            return
        tag = "replayed" if event == "replay" else "done"
        stats = result.cache_stats
        detail = ""
        if stats:
            detail = (
                f" (hits={stats.get('hits', 0)}, misses={stats.get('misses', 0)})"
            )
        logger.info(
            "[%d/%d] %s %s in %.2fs%s",
            index + 1, total, name, tag, result.elapsed_seconds, detail,
        )

    if args.distributed and suite.cache_dir is None:
        raise CLIError(
            "--distributed shares work through the per-key store and "
            "requires a cache_dir (in the manifest or --cache-dir)"
        )
    scheduler_config = {}
    if args.distributed:
        scheduler_config = {
            "distributed": True,
            "shard_members": args.shard_members,
            **_queue_config(args),
        }
    else:
        # Scheduler knobs silently doing nothing would mislead: fail fast.
        # (Zero values never get here: the range checks reject them.)
        for option in (_SHARD_MEMBERS, *_QUEUE):
            if getattr(args, option.dest) not in (None, False):
                raise CLIError(f"{option.flag} requires --distributed")
    with Session.for_suite(suite, **session_overrides) as session:
        result = session.run_suite(
            suite,
            resume=args.resume,
            progress=progress,
            **scheduler_config,
        )
        print(result.to_json(indent=2) if args.json else result.summary())
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.sched import Worker  # local: keep CLI start-up light

    logger = get_logger("worker")

    def log(event: str, task_id: str, detail: str) -> None:
        suffix = f" ({detail})" if detail else ""
        level = (
            logging.WARNING
            if event in ("retry", "failed", "lost", "error")
            else logging.INFO
        )
        logger.log(level, "%s %s%s", event, task_id, suffix)

    worker = Worker(
        args.cache_dir,
        suite=args.suite,
        worker_id=args.worker_id,
        poll_seconds=args.poll_seconds,
        log=log,
        **_queue_config(args),
        **_engine_overrides(args),
    )
    stats = worker.run(
        exit_when_done=args.exit_when_done,
        max_tasks=args.max_tasks,
        timeout=args.timeout,
    )
    served = ", ".join(stats.suites) if stats.suites else "none"
    logger.info(
        "worker %s: committed %d task(s) (%d stolen, %d lost, %d retried, "
        "%d failed) across suites: %s",
        worker.worker_id, stats.committed, stats.stolen, stats.lost,
        stats.retried, stats.failed, served,
    )
    return 0


def _queue_status(args: argparse.Namespace) -> int:
    from repro.sched import TaskQueue  # local: keep CLI start-up light

    queues = TaskQueue.discover(
        args.cache_dir,
        backend=args.queue_backend,
        lease_seconds=args.lease_seconds,
    )
    if args.suite is not None:
        queues = [queue for queue in queues if queue.suite_name == args.suite]
    reports = []
    for queue in queues:
        try:
            reports.append(queue.status())
        except FileNotFoundError:
            continue  # assembled and destroyed between discovery and read
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0
    if not reports:
        where = f" for suite {args.suite!r}" if args.suite else ""
        print(f"no queues{where} under {args.cache_dir}")
        return 0
    for report in reports:
        state = "complete" if report["complete"] else "in progress"
        print(f"{report['suite']} [{report['backend']}] — {state}")
        print(f"  at {report['location']}")
        blocked = (
            f", {report['blocked']} blocked" if report["blocked"] else ""
        )
        print(
            f"  {report['tasks']} tasks: {report['pending']} pending, "
            f"{report['running']} running, {report['done']} done, "
            f"{report['failed']} failed{blocked}"
        )
        for lease in report["leases"]:
            extras = " EXPIRED" if lease["expired"] else ""
            if lease["worker"]:
                extras += f" worker={lease['worker']}"
            if lease["attempts"]:
                extras += f" attempts={lease['attempts']}"
            print(
                f"  running {lease['task']}: lease age "
                f"{lease['age_seconds']:.1f}s/"
                f"{report['lease_seconds']:.0f}s{extras}"
            )
        for failure in report["failed_tasks"]:
            print(
                f"  failed {failure['task']} "
                f"(attempts={failure['attempts']}): {failure['error']}"
            )
    return 0


def _gc(args: argparse.Namespace) -> int:
    stats = FileStore(args.cache_dir).gc(
        max_bytes=args.max_bytes, max_entries=args.max_entries
    )
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(
            f"removed {stats['removed_entries']} entries "
            f"({stats['removed_bytes']} bytes) and {stats['removed_tmp']} "
            f"leftover tmp files; {stats['entries']} entries "
            f"({stats['bytes']} bytes) remain"
        )
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.serve import serve  # local: keep CLI start-up light

    session_config = _engine_overrides(args)
    if args.max_concurrent_studies is not None:
        session_config["max_concurrent_studies"] = args.max_concurrent_studies
    try:
        serve(
            args.cache_dir,
            host=args.host,
            port=args.port,
            session_config=session_config,
            verbose=not args.quiet,
            shard_members=args.shard_members,
            participate=not args.no_participate,
            **_queue_config(args),
        )
    except OSError as error:
        raise CLIError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from error
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.telemetry.tracing import (  # local: keep CLI start-up light
        TELEMETRY_DIR,
        filter_suite,
        load_spans,
        phase_aggregates,
        render_span_tree,
    )

    spans = load_spans(args.cache_dir)
    if args.suite is not None:
        spans = filter_suite(spans, args.suite)
    if args.json:
        print(
            json.dumps(
                {"spans": spans, "phases": phase_aggregates(spans)},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not spans:
        where = f" for suite {args.suite!r}" if args.suite else ""
        print(
            f"no spans{where} under "
            f"{os.path.join(args.cache_dir, TELEMETRY_DIR)} "
            f"(telemetry disabled, or nothing ran with a cache_dir yet)"
        )
        return 0
    print(render_span_tree(spans))
    print()
    print(
        f"{'phase':<12} {'count':>6} {'errors':>7} "
        f"{'mean':>10} {'max':>10} {'total':>10}"
    )
    for row in phase_aggregates(spans):
        print(
            f"{row['phase']:<12} {row['count']:>6} {row['errors']:>7} "
            f"{row['mean_seconds']:>9.3f}s {row['max_seconds']:>9.3f}s "
            f"{row['total_seconds']:>9.3f}s"
        )
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.report import ReportError, list_report_suites, write_suite_reports

    try:
        if args.suite is not None:
            suite_names = [args.suite]
        else:
            suite_names = list_report_suites(args.cache_dir)
            if not suite_names:
                raise ReportError(
                    f"no suite completion records under {args.cache_dir!r}; "
                    f"run a suite with this cache dir first"
                )
        payloads = []
        for suite_name in suite_names:
            payload, written = write_suite_reports(args.cache_dir, suite_name)
            payloads.append(payload)
            if not args.json:
                print(
                    f"suite {suite_name}: {len(payload['members'])} member "
                    f"report(s), {len(written)} file(s) under "
                    f"{os.path.join(args.cache_dir, 'reports', suite_name)}"
                )
    except ReportError as error:
        raise CLIError(str(error)) from error
    if args.json:
        rendered = payloads[0] if args.suite is not None else payloads
        print(json.dumps(rendered, indent=2, sort_keys=True))
    return 0


def _list(args: argparse.Namespace) -> int:
    if args.json:
        print(
            json.dumps(
                [info.to_dict() for info in iter_studies()],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for info in iter_studies():
        print(f"{info.name:16s} {info.artefact:24s} {info.description}")
    return 0


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    options: Tuple[_Option, ...]


_COMMANDS: Dict[str, _Command] = {
    "run": _Command(
        _run,
        "execute a StudySpec JSON file and print its result",
        (_SPEC, *_ENGINE, _CACHE_DIR, _JSON, _LOG_LEVEL),
    ),
    "suite": _Command(
        _suite,
        "execute every member of a SuiteSpec manifest through one shared "
        "session and cache",
        (
            _MANIFEST,
            *_ENGINE,
            _CACHE_DIR,
            _RESUME,
            _DISTRIBUTED,
            _SHARD_MEMBERS,
            _QUEUE_BACKEND,
            # No default lease: an explicit one without --distributed errors.
            _LEASE_SECONDS.but(default=None),
            _MAX_ATTEMPTS,
            _STALL_SECONDS,
            _JSON,
            _LOG_LEVEL,
        ),
    ),
    "worker": _Command(
        _worker,
        "serve the distributed work queues under a shared cache directory: "
        "claim tasks, execute them through the shared store, heartbeat "
        "leases, steal from crashed workers",
        (
            _STORE,
            _SUITE,
            *_QUEUE,
            _POLL_SECONDS,
            _MAX_TASKS,
            _TIMEOUT,
            _EXIT_WHEN_DONE,
            _WORKER_ID,
            *_ENGINE,
            _LOG_LEVEL,
        ),
    ),
    "queue": _Command(
        _queue_status,
        "show the live state of every distributed work queue under a cache "
        "directory: task counts, lease ages, attempt counts, worker ids",
        (_STORE, _SUITE, _QUEUE_BACKEND, _LEASE_SECONDS, _JSON),
    ),
    "gc": _Command(
        _gc,
        "prune a per-key cache directory back within byte/entry budgets "
        "(LRU-by-last-use) and sweep crash leftovers",
        (_STORE, _MAX_BYTES, _MAX_ENTRIES, _JSON),
    ),
    "serve": _Command(
        _serve,
        "run the HTTP/JSON study service: POST specs, stream progress over "
        "server-sent events, browse the dashboard at /",
        (
            _STORE,
            _HOST,
            _PORT,
            *_ENGINE,
            _MAX_CONCURRENT_STUDIES,
            *_QUEUE,
            _SHARD_MEMBERS,
            _NO_PARTICIPATE,
            _QUIET,
            _LOG_LEVEL,
        ),
    ),
    "trace": _Command(
        _trace,
        "render the telemetry span tree recorded under a cache directory "
        "(coordinator, workers and in-process runs all append to "
        "<cache_dir>/telemetry/)",
        (_STORE, _SUITE, _JSON),
    ),
    "report": _Command(
        _report,
        "emit markdown + JSON variance-budget reports from cached suite "
        "completion records (zero re-execution)",
        (_STORE, _SUITE, _JSON),
    ),
    "list": _Command(_list, "list registered studies", (_JSON,)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run registered studies from declarative JSON specs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = commands.add_parser(name, help=command.help)
        for option in command.options:
            subparser.add_argument(option.flag, **option.kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        try:
            setup_logging(getattr(args, "log_level", None))
        except ValueError as error:
            raise CLIError(str(error)) from error
        for option in command.options:
            problem = option.problem(args)
            if problem is not None:
                raise CLIError(problem)
        return command.handler(args)
    except CLIError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
