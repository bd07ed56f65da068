"""The persistent SQLite job/result store behind the verification server.

Three tables (plus a small ``leases`` table) back verification-as-a-service:

* ``jobs`` -- one row per submitted job: the canonical spec payload (system,
  property, options dicts as JSON text), lifecycle status (``queued`` ->
  ``running`` -> ``done`` | ``error`` | ``cancelled``), timestamps, cache
  provenance, TTL / deadline limits, the cooperative ``cancel_requested``
  flag, and worker-claim bookkeeping (``claimed_by`` + ``heartbeat_at``,
  kept fresh by workers so dead ones are detected and their jobs
  requeued).  A ``cancelled`` job may carry a *partial* result (``UNKNOWN`` with
  the statistics gathered before the stop) in ``partial_json`` -- partial
  results are deliberately **not** written to ``results``, so they can never
  be served as cache hits.
* ``results`` -- serialized :class:`~repro.core.verifier.VerificationResult`
  dicts keyed by job *content fingerprint* (see
  :mod:`repro.spec.fingerprint`), shared by every job with the same inputs.
* ``events`` -- the per-job progress-event log behind
  ``GET /v1/jobs/<id>/events``: monotonically increasing ``seq`` per job, so
  clients poll incrementally with a cursor.
* ``leases`` -- named, TTL'd advisory leases (:meth:`JobStore.acquire_lease`)
  used by servers sharing one store file to elect a single sweeper: only the
  lease holder runs TTL expiry and stale-claim rescue at any moment.

Concurrency model
=================

The store is safe to share between threads **and between processes** pointed
at the same file:

* every thread gets its **own** SQLite connection (lazily, from a per-store
  pool), so readers never queue behind a Python lock;
* file-backed stores run in **WAL** journal mode with a busy timeout --
  readers proceed concurrently with one writer, and a second writer waits on
  SQLite's own file lock instead of failing;
* every mutating method is one atomic ``BEGIN IMMEDIATE`` transaction, so a
  read-decide-write sequence (claim, release, cancel, ...) can never
  interleave with another process's transaction;
* every claim has an owner, and ownership is enforced *in SQL*:
  :meth:`~JobStore.claim_next` stamps ``claimed_by``, and
  :meth:`~JobStore.touch_claim`, :meth:`~JobStore.release` and the
  ``mark_*`` finalisers take the claiming ``worker_id`` and update only rows
  whose ``claimed_by = ?`` still matches, so a zombie worker whose job was
  rescued and re-claimed elsewhere can neither keep it alive, yank it back,
  nor overwrite its state;
* every job-state change goes through two transaction helpers:
  ``_finish_txn`` is the one terminal flip (``finished_at``, a dropped
  claim, the TTL stamp), and ``_interrupt_txn`` is the one rule for a
  ``running`` job that lost its worker (back to ``queued``, or
  ``cancelled`` when a cancel was already accepted).  Every job they move,
  and every job an event is appended to, is handed to
  :attr:`JobStore.on_job_update` after the transaction commits.

The store always lives in a file: an in-memory database is private to the
one connection that opened it, so per-thread connections could not share it.

Jobs submitted with ``ttl_seconds`` get an ``expires_at`` stamp when they
reach a terminal state; :meth:`JobStore.sweep_expired` (driven by the
server's sweeper thread) deletes expired jobs, their events, and any result
rows no remaining job references.

Older (PR 2) store files are migrated in place on open: the ``jobs`` table is
rebuilt with the extended schema and every existing row is preserved.

Both survive process restarts: a restarted server repairs interrupted
``running`` jobs (see :mod:`repro.server.recovery`) and serves previously
computed results straight from the ``results`` table without re-verifying.

A verdict is a deterministic function of its fingerprint, so a job whose
fingerprint has a row in ``results`` is never ``queued``:
:meth:`JobStore.submit` completes such a job inside its transaction, and
:meth:`JobStore.mark_done`, when it persists a result, completes the
fingerprint's ``queued`` twins in its own.  A job completed this way is
``done`` with ``cache_hit`` set, and its ``done`` event is appended in the
same transaction, so a poller that sees it terminal finds the event too.
A ``queued`` row an older store left behind with a stored result is simply
verified again (deterministically, to the same verdict).

Store files written before the server became one trust domain still open
as they are: their ``jobs.tenant_id`` and ``jobs.priority`` columns, their
``tenants`` and ``claim_shares`` tables and their ``jobs_by_tenant`` index
stay on disk unread, and new stores no longer create them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.service.jobs import VerificationJob

#: Lifecycle states of a stored job.
JOB_STATUSES = ("queued", "running", "done", "error", "cancelled")

#: States a job can never leave (sweeping and cancellation only apply here).
TERMINAL_STATUSES = ("done", "error", "cancelled")


_JOBS_DDL = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    fingerprint      TEXT NOT NULL,
    system_name      TEXT NOT NULL,
    property_name    TEXT NOT NULL,
    label            TEXT,
    status           TEXT NOT NULL
                     CHECK (status IN ('queued', 'running', 'done', 'error', 'cancelled')),
    error            TEXT,
    cache_hit        INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    claimed_by       TEXT,
    heartbeat_at     REAL,
    ttl_seconds      REAL,
    deadline_ms      INTEGER,
    expires_at       REAL,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    partial_json     TEXT,
    trace_id         TEXT,
    parent_span      TEXT,
    warnings_json    TEXT,
    system_json      TEXT NOT NULL,
    property_json    TEXT NOT NULL,
    options_json     TEXT NOT NULL
)
"""

_SCHEMA_STATEMENTS = (
    _JOBS_DDL,
    "CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status, submitted_at)",
    "CREATE INDEX IF NOT EXISTS jobs_by_fingerprint ON jobs (fingerprint)",
    "CREATE INDEX IF NOT EXISTS jobs_by_expiry ON jobs (expires_at)"
    " WHERE expires_at IS NOT NULL",
    """
    CREATE TABLE IF NOT EXISTS results (
        fingerprint TEXT PRIMARY KEY,
        result_json TEXT NOT NULL,
        created_at  REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS events (
        job_id     TEXT NOT NULL,
        seq        INTEGER NOT NULL,
        created_at REAL NOT NULL,
        kind       TEXT NOT NULL,
        payload    TEXT NOT NULL,
        PRIMARY KEY (job_id, seq)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS leases (
        name       TEXT PRIMARY KEY,
        owner      TEXT NOT NULL,
        expires_at REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS spans (
        trace_id   TEXT NOT NULL,
        span_id    TEXT NOT NULL,
        parent_id  TEXT,
        job_id     TEXT,
        name       TEXT NOT NULL,
        start_time REAL NOT NULL,
        duration   REAL NOT NULL,
        status     TEXT NOT NULL DEFAULT 'ok',
        attrs      TEXT NOT NULL DEFAULT '{}',
        PRIMARY KEY (trace_id, span_id)
    )
    """,
    "CREATE INDEX IF NOT EXISTS spans_by_job ON spans (job_id)"
    " WHERE job_id IS NOT NULL",
)

#: The one ownership predicate (parameters: job id, worker id): the job is
#: ``running`` and claimed by that worker.
_OWNED_BY = "id = ? AND status = 'running' AND claimed_by = ?"

#: Columns shared by the PR 2 ``jobs`` table and the current one, used to
#: carry rows across the in-place migration.
_V1_COLUMNS = (
    "id, fingerprint, system_name, property_name, label, status, error,"
    " cache_hit, submitted_at, started_at, finished_at,"
    " system_json, property_json, options_json"
)


@dataclass
class StoredJob:
    """One persisted verification job (a ``jobs`` table row)."""

    id: str
    fingerprint: str
    system_name: str
    property_name: str
    label: Optional[str]
    status: str
    error: Optional[str]
    cache_hit: bool
    cancel_requested: bool
    claimed_by: Optional[str]
    heartbeat_at: Optional[float]
    ttl_seconds: Optional[float]
    deadline_ms: Optional[int]
    expires_at: Optional[float]
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    partial_result: Optional[Dict[str, Any]]
    system_dict: Dict[str, Any]
    property_dict: Dict[str, Any]
    options_dict: Dict[str, Any]
    #: Distributed-trace correlation (see :mod:`repro.obs`): the trace this
    #: job belongs to and the submitting span it should parent under.
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None
    #: Warning-severity diagnostics from the submit-time static analysis
    #: pass (see :mod:`repro.analysis`); error-severity ones reject the
    #: whole submission with 422 before any row is written.
    warnings: Optional[List[Dict[str, Any]]] = None

    def to_job(self) -> VerificationJob:
        """The engine-level job this row was built from."""
        return VerificationJob(
            system_dict=self.system_dict,
            property_dict=self.property_dict,
            options_dict=self.options_dict,
            label=self.label,
        )

    def as_dict(self, result: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The JSON view served by ``GET /v1/jobs/<id>`` (payload omitted)."""
        data: Dict[str, Any] = {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "system": self.system_name,
            "property": self.property_name,
            "label": self.label,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "cancel_requested": self.cancel_requested,
            "claimed_by": self.claimed_by,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.ttl_seconds is not None:
            data["ttl_seconds"] = self.ttl_seconds
        if self.deadline_ms is not None:
            data["deadline_ms"] = self.deadline_ms
        if self.expires_at is not None:
            data["expires_at"] = self.expires_at
        if self.error is not None:
            data["error"] = self.error
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.warnings:
            data["warnings"] = self.warnings
        if result is not None:
            data["result"] = result
        elif self.partial_result is not None:
            # A cancelled job's UNKNOWN verdict with its partial statistics.
            data["result"] = self.partial_result
        return data

    @classmethod
    def _from_row(cls, row: sqlite3.Row) -> "StoredJob":
        return cls(
            id=row["id"],
            fingerprint=row["fingerprint"],
            system_name=row["system_name"],
            property_name=row["property_name"],
            label=row["label"],
            status=row["status"],
            error=row["error"],
            cache_hit=bool(row["cache_hit"]),
            cancel_requested=bool(row["cancel_requested"]),
            claimed_by=row["claimed_by"],
            heartbeat_at=row["heartbeat_at"],
            ttl_seconds=row["ttl_seconds"],
            deadline_ms=row["deadline_ms"],
            expires_at=row["expires_at"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            partial_result=(
                json.loads(row["partial_json"]) if row["partial_json"] else None
            ),
            system_dict=json.loads(row["system_json"]),
            property_dict=json.loads(row["property_json"]),
            options_dict=json.loads(row["options_json"]),
            trace_id=row["trace_id"],
            parent_span=row["parent_span"],
            warnings=(
                json.loads(row["warnings_json"]) if row["warnings_json"] else None
            ),
        )


class JobStore:
    """Persistent job queue + result store on one SQLite file.

    Safe to share between threads (per-thread connections) and between
    processes pointed at the same file (WAL + ``BEGIN IMMEDIATE``
    transactions with in-SQL ownership predicates) -- see the module
    docstring for the full concurrency model.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        busy_timeout_seconds: float = 30.0,
        heartbeat_busy_timeout_seconds: float = 5.0,
    ):
        self.path = os.fspath(path)
        if self.path in ("", ":memory:"):
            raise ValueError(
                "the job store needs a file: per-thread connections cannot "
                f"share an in-memory database (got {self.path!r})"
            )
        #: How long a writer waits on another process's transaction before
        #: surfacing ``sqlite3.OperationalError: database is locked``.
        self.busy_timeout_seconds = busy_timeout_seconds
        #: The (much shorter) wait for the heartbeat path: a heartbeat that
        #: blocks longer than the staleness threshold is worse than one that
        #: fails fast and retries next tick -- the default full timeout (30s)
        #: exceeds the default staleness window (15s), so a single heavily
        #: contended write could otherwise starve every local claim into a
        #: spurious peer rescue.
        self.heartbeat_busy_timeout_seconds = min(
            heartbeat_busy_timeout_seconds, busy_timeout_seconds
        )
        self._local = threading.local()
        #: Every live per-thread connection, paired with its owning thread
        #: so dead threads' connections can be pruned (see _connection).
        self._pool: List[Tuple[threading.Thread, sqlite3.Connection]] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        #: Post-commit hook called with a job id after any write that could
        #: make new data visible to an event poller of that job (an event
        #: append or a status flip).  The server wires this to its
        #: ``EventBroker.notify`` so long-poll waiters wake immediately
        #: instead of sleeping out their fallback interval.  Fired strictly
        #: *after* the transaction commits -- a woken waiter re-reads the
        #: store and must see the data -- and never from inside one, so the
        #: hook cannot extend the write lock.  Exceptions are swallowed:
        #: delivery is best-effort on top of the durable log.
        self.on_job_update: Optional[Callable[[str], None]] = None
        # Wall-clock anchor for the monotonic store clock (see _now): all
        # in-process time arithmetic (TTL sweeps, heartbeat staleness,
        # expires_at computation) is immune to wall-clock steps, while the
        # persisted timestamps stay in the wall epoch for display -- and
        # hence comparable between processes sharing one store file.
        self._wall_anchor = time.time()
        self._mono_anchor = time.monotonic()
        #: The journal mode actually in effect ("wal" on WAL-capable
        #: filesystems).
        self.journal_mode = self._connection().execute(
            "PRAGMA journal_mode"
        ).fetchone()[0]
        with self._write() as conn:
            self._migrate(conn)
            for statement in _SCHEMA_STATEMENTS:
                conn.execute(statement)

    def _now(self) -> float:
        """A monotonically advancing clock expressed in the wall epoch.

        ``time.time()`` is sampled once at open; afterwards the store clock
        advances with ``time.monotonic()``, so an NTP step (or a manual
        ``date`` change) can neither instantly expire every TTL'd job nor
        immortalise them, and heartbeat/deadline arithmetic never goes
        backwards.  Persisted values remain ordinary epoch seconds.
        """
        return self._wall_anchor + (time.monotonic() - self._mono_anchor)

    def _shared_now(self) -> float:
        """The clock for stamps compared against *other processes'* clocks
        (``heartbeat_at``, lease ``expires_at``): never behind the wall clock.

        The store clock is monotonic-anchored, and ``CLOCK_MONOTONIC`` does
        not advance through a host suspend / VM pause -- after resume, pure
        ``_now()`` stamps would lag real time by the pause forever: every
        job this server claims would look permanently stale to its peers,
        and its lease renewals would read as already expired (two elected
        sweepers).  Taking the later of the store clock and the wall clock
        cures that lag while staying monotonic per store (the store clock
        is the floor when the wall clock steps backwards).

        TTL arithmetic (``expires_at`` written by the ``mark_*`` finalisers
        and compared by :meth:`sweep_expired`) deliberately stays on the
        plain store clock: wall-step immunity for expiry is pinned
        behaviour (an NTP step must neither mass-expire nor immortalise
        jobs), at the accepted cost that a suspended host's TTL stamps
        drift by the pause -- expiry is garbage collection, not claim
        correctness.
        """
        return max(self._now(), time.time())

    # ------------------------------------------------------------- connections

    def _new_connection(self) -> sqlite3.Connection:
        # isolation_level=None puts the connection in autocommit mode so the
        # store controls transactions explicitly (BEGIN IMMEDIATE below);
        # check_same_thread=False only so close() can reach every pooled
        # connection -- each one is otherwise used by a single thread.
        connection = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout_seconds,
            isolation_level=None,
            check_same_thread=False,
        )
        connection.row_factory = sqlite3.Row
        # WAL lets readers proceed while one writer commits; NORMAL sync
        # is durable across application crashes (WAL is replayed) and
        # avoids an fsync per transaction.
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(
            f"PRAGMA busy_timeout={int(self.busy_timeout_seconds * 1000)}"
        )
        return connection

    def _connection(self) -> sqlite3.Connection:
        """This thread's connection.

        Creating a connection for a new thread also prunes (and closes) the
        connections of threads that have since died -- the HTTP server
        spawns one thread per connection, so without pruning a busy server
        would leak one file descriptor per connection ever accepted.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            if self._closed:
                raise sqlite3.ProgrammingError("cannot use a closed JobStore")
            connection = self._new_connection()
            with self._pool_lock:
                if self._closed:
                    # close() drained the pool between our check above and
                    # here: registering now would leak the connection and
                    # keep a "closed" store usable.
                    connection.close()
                    raise sqlite3.ProgrammingError("cannot use a closed JobStore")
                self._local.connection = connection
                dead = [c for t, c in self._pool if not t.is_alive()]
                self._pool = [
                    (t, c) for t, c in self._pool if t.is_alive()
                ]
                self._pool.append((threading.current_thread(), connection))
            for stale in dead:
                try:
                    stale.close()
                except sqlite3.Error:  # pragma: no cover - already broken
                    pass
        return connection

    @contextmanager
    def _read(self) -> Iterator[sqlite3.Connection]:
        """A connection for plain reads (no transaction, no Python lock).

        WAL readers see the last committed state without blocking writers.
        """
        yield self._connection()

    @contextmanager
    def _write(
        self, busy_timeout_seconds: Optional[float] = None
    ) -> Iterator[sqlite3.Connection]:
        """One atomic ``BEGIN IMMEDIATE`` transaction on this thread's connection.

        ``IMMEDIATE`` takes SQLite's write lock up front, so the whole
        read-decide-write body is atomic with respect to every other thread
        *and process* on the same file; a concurrent writer waits on the
        busy timeout instead of failing.  ``busy_timeout_seconds`` bounds
        that wait below the store default for callers (the heartbeat path)
        that would rather fail fast and retry than block.

        The job ids the body put on ``self._local.touched`` (the lifecycle
        helpers and event appends do) are handed to :attr:`on_job_update`
        once the transaction has committed; a rolled-back transaction
        notifies nobody.
        """
        touched: List[str] = []
        self._local.touched = touched
        connection = self._connection()
        if busy_timeout_seconds is not None:
            connection.execute(
                f"PRAGMA busy_timeout={int(busy_timeout_seconds * 1000)}"
            )
        try:
            connection.execute("BEGIN IMMEDIATE")
            try:
                yield connection
            except BaseException:
                connection.rollback()
                raise
            connection.commit()
        finally:
            if busy_timeout_seconds is not None:
                try:
                    connection.execute(
                        f"PRAGMA busy_timeout={int(self.busy_timeout_seconds * 1000)}"
                    )
                except sqlite3.ProgrammingError:  # pragma: no cover - closed under us
                    pass
        listener = self.on_job_update
        if listener is not None:
            for job_id in dict.fromkeys(touched):
                try:
                    listener(job_id)
                except Exception:
                    pass

    def _migrate(self, connection: sqlite3.Connection) -> None:
        """Rebuild a PR 2 ``jobs`` table in place (new columns, new CHECK).

        Runs inside the opening ``BEGIN IMMEDIATE`` transaction, so two
        processes opening one store concurrently serialize here and the
        whole rename/copy/drop sequence is atomic.  Every step is also
        idempotent and keyed off the on-disk state: a leftover
        ``jobs_migrating`` table (from a pre-WAL store that crashed
        mid-migration) is resumed -- rows are copied with ``INSERT OR
        IGNORE`` and the leftover dropped -- so no open can strand rows.
        """
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "jobs_migrating" not in tables:
            if "jobs" not in tables:
                return
            columns = {
                row[1] for row in connection.execute("PRAGMA table_info(jobs)")
            }
            if "cancel_requested" in columns:
                # A PR 3+ store only lacks columns added since (worker
                # claims in PR 5, trace correlation in PR 7, submit-time
                # warnings later),
                # which need no CHECK change: plain ALTERs suffice.
                for name, kind in (
                    ("claimed_by", "TEXT"),
                    ("heartbeat_at", "REAL"),
                    ("trace_id", "TEXT"),
                    ("parent_span", "TEXT"),
                    ("warnings_json", "TEXT"),
                ):
                    if name not in columns:
                        connection.execute(
                            f"ALTER TABLE jobs ADD COLUMN {name} {kind}"
                        )
                return
            # SQLite cannot alter a CHECK constraint: rename, then fall
            # through to the (resumable) recreate-copy-drop below.
            connection.execute("ALTER TABLE jobs RENAME TO jobs_migrating")
        connection.execute(_JOBS_DDL)
        connection.execute(
            f"INSERT OR IGNORE INTO jobs ({_V1_COLUMNS})"
            f" SELECT {_V1_COLUMNS} FROM jobs_migrating"
        )
        connection.execute("DROP TABLE jobs_migrating")

    def close(self) -> None:
        """Close every pooled connection; subsequent use raises
        ``sqlite3.ProgrammingError`` (the signal the server's shutdown paths
        already handle)."""
        with self._pool_lock:
            # Under the pool lock, so no racing thread can register a fresh
            # connection after the drain (see _connection's re-check).
            self._closed = True
            entries, self._pool = self._pool, []
        for _, connection in entries:
            try:
                connection.close()
            except sqlite3.ProgrammingError:  # pragma: no cover - owner racing us
                pass

    # ---------------------------------------------------------------- lifecycle

    def submit(
        self,
        job: VerificationJob,
        label: Optional[str] = None,
        ttl_seconds: Optional[float] = None,
        deadline_ms: Optional[int] = None,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        warnings: Optional[List[Dict[str, Any]]] = None,
    ) -> StoredJob:
        """Persist *job* and return its stored form (with id).

        The job is ``queued``, or ``done`` as a cache hit when its
        fingerprint has a stored verdict (``started_at = finished_at =
        submitted_at``; see the module docstring).  The row's
        ``system_json`` is :attr:`VerificationJob.system_json`, the canonical
        text the fingerprint hashes.  A queued job's stored form is built
        from the values just inserted, equal to what :meth:`get_job` reads
        back, so the submit path decodes no row.

        ``ttl_seconds`` schedules the job row (and, transitively, any result
        no other job references) for deletion that long after it reaches a
        terminal state; ``deadline_ms`` bounds the wall-clock time the search
        may run once claimed.  ``trace_id``/``parent_span`` attach the job to
        a distributed trace (see :mod:`repro.obs`): whichever server claims
        it -- this process or a peer sharing the store -- parents its worker
        spans there, so one coherent trace spans the deployment.

        Job ids are 12 random hex digits; on the (astronomically rare but
        not impossible) collision with an existing row, the INSERT is simply
        retried with a fresh id rather than surfacing an ``IntegrityError``
        to the submitter.
        """
        now = self._now()
        label = label if label is not None else job.label
        # The values the REAL column hands back.
        ttl_seconds = float(ttl_seconds) if ttl_seconds is not None else None
        for attempt in range(16):
            job_id = uuid.uuid4().hex[:12]
            try:
                with self._write() as conn:
                    cached = conn.execute(
                        "SELECT result_json FROM results WHERE fingerprint = ?",
                        (job.fingerprint,),
                    ).fetchone()
                    conn.execute(
                        "INSERT INTO jobs (id, fingerprint, system_name, property_name,"
                        " label, status, cache_hit, ttl_seconds, deadline_ms,"
                        " submitted_at, trace_id, parent_span,"
                        " warnings_json, system_json, property_json, options_json)"
                        " VALUES (?, ?, ?, ?, ?, 'queued', 0, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            job_id,
                            job.fingerprint,
                            job.system_name,
                            job.property_name,
                            label,
                            ttl_seconds,
                            deadline_ms,
                            now,
                            trace_id,
                            parent_span,
                            json.dumps(warnings) if warnings else None,
                            job.system_json,
                            json.dumps(job.property_dict),
                            json.dumps(job.options_dict),
                        ),
                    )
                    if cached is not None:
                        return self._complete_txn(
                            conn, [job_id], json.loads(cached["result_json"]), now
                        )[0]
            except sqlite3.IntegrityError:
                if attempt == 15:  # pragma: no cover - 16 collisions in a row
                    raise
                continue
            return StoredJob(
                id=job_id,
                fingerprint=job.fingerprint,
                system_name=job.system_name,
                property_name=job.property_name,
                label=label,
                status="queued",
                error=None,
                cache_hit=False,
                cancel_requested=False,
                claimed_by=None,
                heartbeat_at=None,
                ttl_seconds=ttl_seconds,
                deadline_ms=deadline_ms,
                expires_at=None,
                submitted_at=now,
                started_at=None,
                finished_at=None,
                partial_result=None,
                system_dict=job.system_dict,
                property_dict=job.property_dict,
                options_dict=job.options_dict,
                trace_id=trace_id,
                parent_span=parent_span,
                warnings=warnings or None,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def claim_next(self, worker_id: str) -> Optional[StoredJob]:
        """Atomically pop the oldest claimable ``queued`` job, marking it ``running``.

        One ``BEGIN IMMEDIATE`` transaction, so each queued job is handed to
        exactly one worker even when several server *processes* claim from
        the same store file concurrently.  Jobs are claimed first in, first
        out (``ORDER BY submitted_at, rowid``).

        A queued job whose fingerprint is already ``running`` on another
        worker is not claimable yet: claiming it would verify the same
        content twice concurrently.  It stays queued until the in-flight twin
        finishes: the twin's :meth:`mark_done` completes it as a cache hit,
        or, when the twin ends uncached -- cancelled, deadline-truncated,
        crashed -- it is claimed and verified in its own right.

        ``worker_id`` becomes the claim's owner (``claimed_by``) and the
        claim gets a first heartbeat; the worker keeps it fresh with
        :meth:`touch_claim`, so :meth:`requeue_stale` can tell a dead
        worker's claim by its stale heartbeat.
        """
        claimable = (
            "FROM jobs WHERE status = 'queued' AND fingerprint NOT IN"
            " (SELECT fingerprint FROM jobs WHERE status = 'running')"
        )
        # Cheap lock-free peek first: idle workers poll this at ~10 Hz per
        # slot across every server, and an empty queue must not cost the
        # fleet a continuous stream of cross-process write-lock
        # acquisitions.  The candidate is re-selected inside the write
        # transaction, so a racing claimer is still excluded.
        with self._read() as conn:
            if conn.execute(f"SELECT 1 {claimable} LIMIT 1").fetchone() is None:
                return None
        with self._write() as conn:
            row = conn.execute(
                f"SELECT id {claimable} ORDER BY submitted_at, rowid LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET status = 'running', started_at = ?,"
                " claimed_by = ?, heartbeat_at = ? WHERE id = ?",
                (self._now(), worker_id, self._shared_now(), row["id"]),
            )
            claimed = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (row["id"],)
            ).fetchone()
        return StoredJob._from_row(claimed)

    def touch_claim(self, job_id: str, worker_id: str) -> Tuple[bool, bool]:
        """Heartbeat + cancel-flag read in one transaction.

        Returns ``(still_owned, cancel_requested)``: the liveness stamp lands
        only while *worker_id* still owns the claim -- after
        :meth:`requeue_stale` hands the job to a new worker, the dead
        worker's heartbeats bounce instead of keeping it alive forever --
        and ``cancel_requested`` reports the persisted cooperative-cancel
        flag, which may have been set by *another server* sharing the store,
        so workers polling this see cross-server DELETEs.  ``(False,
        False)`` when the job no longer exists.

        Runs with the short heartbeat busy timeout: under pathological
        write contention it raises ``sqlite3.OperationalError`` quickly
        (callers skip the tick and retry) instead of blocking past the
        staleness window.
        """
        with self._write(
            busy_timeout_seconds=self.heartbeat_busy_timeout_seconds
        ) as conn:
            cursor = conn.execute(
                f"UPDATE jobs SET heartbeat_at = ? WHERE {_OWNED_BY}",
                (self._shared_now(), job_id, worker_id),
            )
            row = conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            return cursor.rowcount > 0, bool(row and row["cancel_requested"])

    def _finish_txn(
        self,
        conn: sqlite3.Connection,
        now: float,
        status: str,
        where: str,
        params: Sequence[Any],
        **columns: Any,
    ) -> List[str]:
        """The one terminal flip: land *status* on the jobs matching *where*.

        Stamps ``finished_at = now``, drops the claim (``claimed_by`` and
        ``heartbeat_at``) and starts the TTL clock: ``expires_at`` is ``now
        + ttl_seconds``, or ``NULL`` for a job without a TTL.  *columns* are
        the caller's extra assignments (``error``, ``partial_json``, ...).
        Returns the ids it moved; :meth:`_write` notifies them after commit.
        """
        assignments = "".join(f", {name} = ?" for name in columns)
        moved = [
            row[0]
            for row in conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ?,"
                " claimed_by = NULL, heartbeat_at = NULL,"
                " expires_at = CASE WHEN ttl_seconds IS NOT NULL"
                f"   THEN ? + ttl_seconds ELSE NULL END{assignments}"
                f" WHERE {where} RETURNING id",
                (status, now, now, *columns.values(), *params),
            )
        ]
        self._local.touched.extend(moved)
        return moved

    def _interrupt_txn(
        self,
        conn: sqlite3.Connection,
        now: float,
        scope_sql: str,
        params: Sequence[Any],
    ) -> Tuple[List[str], List[str]]:
        """The one rule for ``running`` jobs in *scope_sql* that lost their worker.

        A job whose cancellation was already accepted lands ``cancelled``
        (through :meth:`_finish_txn`): requeueing it would resurrect work
        that was explicitly stopped.  Every other one goes back to
        ``queued`` without a claim -- verification is deterministic and
        idempotent, so a re-run is always safe.  Returns the ids moved,
        ``(requeued, cancelled)``; :meth:`_write` notifies them after commit.
        """
        scope = f"status = 'running' AND ({scope_sql})"
        cancelled = self._finish_txn(
            conn, now, "cancelled", f"{scope} AND cancel_requested = 1", params
        )
        requeued = [
            row[0]
            for row in conn.execute(
                "UPDATE jobs SET status = 'queued', started_at = NULL,"
                " claimed_by = NULL, heartbeat_at = NULL"
                f" WHERE {scope} AND cancel_requested = 0 RETURNING id",
                params,
            )
        ]
        self._local.touched.extend(requeued)
        return requeued, cancelled

    def release(self, job_id: str, worker_id: str) -> Optional[str]:
        """Give back a ``running`` job whose worker died mid-run.

        Returns the status it set -- ``"queued"``, or ``"cancelled"`` when a
        cancel was already accepted (see :meth:`_interrupt_txn`) -- or
        ``None`` when it did not land: the job is not ``running`` **and**
        claimed by *worker_id*.  A crashed worker's cleanup can race the
        stale-heartbeat sweeper, and without the ownership predicate it
        would yank a job that was already rescued and re-claimed elsewhere,
        aborting a healthy run.
        """
        with self._write() as conn:
            requeued, cancelled = self._interrupt_txn(
                conn, self._now(), _OWNED_BY, (job_id, worker_id)
            )
        return "queued" if requeued else "cancelled" if cancelled else None

    def requeue_stale(self, max_age_seconds: float) -> Tuple[List[str], List[str]]:
        """Repair ``running`` jobs whose heartbeat went stale; returns the
        ids moved, ``(requeued, cancelled)``.

        Every claim has an owner that heartbeats, so a claim whose last
        heartbeat is older than *max_age_seconds* belongs to a dead worker
        or server; :meth:`_interrupt_txn` requeues it, or finalises it
        ``cancelled`` when a cancel is pending.  Both
        timestamps are read *inside* the transaction (a pre-lock cutoff
        could drift from the stamps under contention), each on the clock
        family its comparison needs: the staleness cutoff uses the *shared*
        clock -- the one heartbeat stamps are written with, so both sides of
        the comparison agree even after the sweeping host was suspended --
        while the ``finished_at`` / ``expires_at`` stamps stay on the plain
        store clock like every other TTL stamp (:meth:`sweep_expired`
        compares them against it).
        """
        with self._write() as conn:
            now = self._now()
            return self._interrupt_txn(
                conn,
                now,
                "heartbeat_at <= ?",
                (self._shared_now() - max_age_seconds,),
            )

    def recover_interrupted(
        self,
        owner_prefix: Optional[str] = None,
        heartbeat_grace_seconds: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Repair jobs a dead process left ``running``; returns the counts
        ``(requeued, cancelled)`` (see :meth:`_interrupt_txn`).

        ``owner_prefix`` scopes the repair for shared-store deployments: only
        jobs whose ``claimed_by`` starts with the prefix (this server's own
        workers from a previous incarnation) are repaired -- jobs running
        live on *other* servers are left alone.  ``None`` repairs every
        ``running`` job.  Rows with no claim at all, which older store files
        hold, are repaired under any prefix.

        ``heartbeat_grace_seconds`` additionally spares claims whose
        heartbeat is younger than the grace: during a rolling restart, the
        replacement server starts while the old same-id instance is still
        draining (and heartbeating) its last jobs -- without the grace,
        startup recovery would yank live, nearly-finished work.  Rows with
        no heartbeat are always eligible.
        """
        with self._write() as conn:
            now = self._now()
            cutoff = (
                None
                if heartbeat_grace_seconds is None
                else self._shared_now() - heartbeat_grace_seconds
            )
            requeued, cancelled = self._interrupt_txn(
                conn,
                now,
                "(? IS NULL OR claimed_by IS NULL OR substr(claimed_by, 1, ?) = ?)"
                " AND (? IS NULL OR heartbeat_at IS NULL OR heartbeat_at <= ?)",
                (owner_prefix, len(owner_prefix or ""), owner_prefix, cutoff, cutoff),
            )
        return len(requeued), len(cancelled)

    def mark_done(
        self,
        job_id: str,
        result: Dict[str, Any],
        worker_id: str,
        persist_result: bool = True,
    ) -> Tuple[bool, List[StoredJob]]:
        """Record a finished job and persist its result under the fingerprint.

        Returns ``(landed, twins)``: persisting a result completes the
        fingerprint's ``queued`` twins as cache hits (see the module
        docstring), and ``twins`` are those jobs in their new state.

        ``persist_result=False`` keeps the result on the job row only (like a
        cancelled job's partial result) and completes no twin -- used for
        verdicts truncated by job-level limits (``deadline_ms``) that are not
        part of the content fingerprint, so they can never be served as
        cache hits to jobs without that limit.

        The mark lands only while *worker_id* owns the running claim, so
        terminal states are never overwritten, and a zombie whose job was
        rescued, re-claimed and re-run elsewhere cannot overwrite the live
        claim's state even before it turns terminal.  ``landed`` is
        ``False`` for a mark that does not land.  The computed result itself
        is still persisted under the fingerprint when eligible, and still
        completes the twins -- verification is deterministic, so the verdict
        is valid regardless of which claim produced it.
        """
        twins: List[StoredJob] = []
        with self._write() as conn:
            row = conn.execute(
                "SELECT fingerprint FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"no stored job with id {job_id!r}")
            partial_json = None
            if persist_result:
                # A legacy queued row may be re-verifying a fingerprint whose
                # result is stored already (results are deterministic per
                # fingerprint): skip the redundant serialize-and-write.
                exists = conn.execute(
                    "SELECT 1 FROM results WHERE fingerprint = ?", (row["fingerprint"],)
                ).fetchone()
                if exists is None:
                    self._put_result_txn(conn, row["fingerprint"], result)
            else:
                partial_json = json.dumps(result)
            now = self._now()
            landed = bool(
                self._finish_txn(
                    conn, now, "done", _OWNED_BY, (job_id, worker_id),
                    cache_hit=0, partial_json=partial_json, error=None,
                )
            )
            if persist_result:
                queued = conn.execute(
                    "SELECT id FROM jobs WHERE fingerprint = ? AND status = 'queued'"
                    " ORDER BY submitted_at, rowid",
                    (row["fingerprint"],),
                ).fetchall()
                twins = self._complete_txn(conn, [r["id"] for r in queued], result, now)
        return landed, twins

    def _complete_txn(
        self,
        conn: sqlite3.Connection,
        job_ids: List[str],
        result: Dict[str, Any],
        now: float,
    ) -> List[StoredJob]:
        """Complete queued *job_ids* as cache hits of the stored *result*:
        append each one's ``done`` event, then flip it ``done``."""
        completed = []
        for job_id in job_ids:
            self._append_event_txn(
                conn,
                job_id,
                "done",
                {"data": {"outcome": result["outcome"], "cache_hit": True}},
            )
            self._finish_txn(
                conn, now, "done", "id = ?", (job_id,), cache_hit=1, started_at=now
            )
            row = conn.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
            completed.append(StoredJob._from_row(row))
        return completed

    def mark_error(self, job_id: str, message: str, worker_id: str) -> bool:
        """Land the ``error`` state; no-op (False) unless *worker_id* owns
        the running claim."""
        with self._write() as conn:
            return bool(
                self._finish_txn(
                    conn, self._now(), "error", _OWNED_BY, (job_id, worker_id),
                    error=message,
                )
            )

    def mark_cancelled(
        self,
        job_id: str,
        partial_result: Optional[Dict[str, Any]],
        worker_id: str,
    ) -> bool:
        """Land the terminal ``cancelled`` state, keeping any partial result.

        The partial result (an ``UNKNOWN`` verdict with the statistics
        gathered before the stop) lives on the job row only -- never in the
        ``results`` table, so it can never complete a cache hit.  No-op
        (False) unless *worker_id* owns the running claim.
        """
        partial_json = json.dumps(partial_result) if partial_result is not None else None
        with self._write() as conn:
            return bool(
                self._finish_txn(
                    conn, self._now(), "cancelled", _OWNED_BY, (job_id, worker_id),
                    partial_json=partial_json,
                )
            )

    def request_cancel(self, job_id: str) -> Optional[Tuple[str, bool]]:
        """Request cooperative cancellation of a job.

        Returns ``(disposition, fresh)`` -- or ``None`` when no such job
        exists.  The disposition is the job's *resulting* state:
        ``"cancelled"`` for a queued job (terminal immediately -- no worker
        ever sees it), ``"cancelling"`` for a running one (the
        ``cancel_requested`` flag is persisted; the owning worker's token is
        tripped by its server, and workers on *other* servers observe the
        flag through :meth:`touch_claim` / :meth:`is_cancel_requested`), or
        the unchanged terminal status.  ``fresh`` is True only when *this*
        call changed something, so repeated DELETEs don't inflate metrics or
        append duplicate events.

        The ``cancel`` event is appended in the same transaction, *before*
        the status flips terminal: a poller that observes ``terminal`` is
        guaranteed the event log is already complete.
        """
        with self._write() as conn:
            row = conn.execute(
                "SELECT status, cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            status = row["status"]
            if status == "queued":
                self._append_event_txn(
                    conn, job_id, "cancel", {"data": {"disposition": "cancelled"}}
                )
                self._finish_txn(
                    conn, self._now(), "cancelled", "id = ?", (job_id,),
                    cancel_requested=1,
                )
                return "cancelled", True
            if status != "running":
                return status, False
            if row["cancel_requested"]:
                return "cancelling", False
            self._append_event_txn(
                conn, job_id, "cancel", {"data": {"disposition": "cancelling"}}
            )
            conn.execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
            )
            return "cancelling", True

    def is_cancel_requested(self, job_id: str) -> bool:
        with self._read() as conn:
            row = conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return bool(row and row["cancel_requested"])

    # ------------------------------------------------------------------- leases

    def acquire_lease(self, name: str, owner: str, ttl_seconds: float) -> bool:
        """Take (or renew) the named advisory lease; returns whether it is held.

        A lease is free when absent or expired; the current holder renews
        unconditionally.  Servers sharing one store use this to elect a
        single sweeper: only the ``"sweeper"`` lease holder runs TTL expiry
        and stale-claim rescue, so N servers don't race each other over
        global repairs.  Expiry stamps use the shared clock
        (:meth:`_shared_now`) so they stay comparable between processes
        even after a host suspend.
        """
        with self._write() as conn:
            now = self._shared_now()
            row = conn.execute(
                "SELECT owner, expires_at FROM leases WHERE name = ?", (name,)
            ).fetchone()
            if row is not None and row["owner"] != owner and row["expires_at"] > now:
                return False
            conn.execute(
                "INSERT OR REPLACE INTO leases (name, owner, expires_at)"
                " VALUES (?, ?, ?)",
                (name, owner, now + ttl_seconds),
            )
            return True

    def release_lease(self, name: str, owner: str) -> bool:
        """Drop the named lease if *owner* holds it (e.g. on graceful stop)."""
        with self._write() as conn:
            cursor = conn.execute(
                "DELETE FROM leases WHERE name = ? AND owner = ?", (name, owner)
            )
            return cursor.rowcount > 0

    def lease_holder(self, name: str) -> Optional[str]:
        """The current (unexpired) holder of the named lease, or ``None``."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT owner, expires_at FROM leases WHERE name = ?", (name,)
            ).fetchone()
        if row is None or row["expires_at"] <= self._shared_now():
            return None
        return row["owner"]

    # ------------------------------------------------------------------ queries

    def get_job(self, job_id: str) -> Optional[StoredJob]:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return StoredJob._from_row(row) if row is not None else None

    def get_jobs(self, job_ids: Sequence[str]) -> List[StoredJob]:
        """The stored jobs among *job_ids*, in input order; unknown ids are
        simply absent (the caller decides whether that is an error).

        One ``IN (...)`` query per 500 ids -- the batch-status primitive
        behind ``GET /v1/jobs?id=a&id=b``, turning a client's per-job status
        polling into one round-trip per poll cycle.
        """
        ids = [str(job_id) for job_id in job_ids]
        by_id: Dict[str, StoredJob] = {}
        with self._read() as conn:
            for start in range(0, len(ids), 500):
                chunk = ids[start : start + 500]
                placeholders = ",".join("?" for _ in chunk)
                rows = conn.execute(
                    f"SELECT * FROM jobs WHERE id IN ({placeholders})", chunk
                ).fetchall()
                for row in rows:
                    by_id[row["id"]] = StoredJob._from_row(row)
        seen = set()
        ordered = []
        for job_id in ids:
            if job_id in by_id and job_id not in seen:
                seen.add(job_id)
                ordered.append(by_id[job_id])
        return ordered

    def job_status(self, job_id: str) -> Optional[str]:
        """The job's lifecycle status, or ``None`` for an unknown id: one
        column read, for callers that need nothing else of the row."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT status FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return row["status"] if row is not None else None

    def list_jobs(
        self, status: Optional[str] = None, limit: int = 100
    ) -> List[StoredJob]:
        """Most recently submitted jobs first, optionally filtered by status."""
        if status is not None and status not in JOB_STATUSES:
            raise ValueError(f"unknown job status {status!r}; expected one of {JOB_STATUSES}")
        query = "SELECT * FROM jobs"
        parameters: List[Any] = []
        if status is not None:
            query += " WHERE status = ?"
            parameters.append(status)
        query += " ORDER BY submitted_at DESC, rowid DESC LIMIT ?"
        parameters.append(max(0, limit))
        with self._read() as conn:
            rows = conn.execute(query, parameters).fetchall()
        return [StoredJob._from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per status (every status present, zero when empty)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in JOB_STATUSES}
        for row in rows:
            counts[row["status"]] = row["n"]
        return counts

    # ------------------------------------------------------------------ results

    def get_result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The persisted result dict for *fingerprint*."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT result_json FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return json.loads(row["result_json"]) if row is not None else None

    def put_result(self, fingerprint: str, result: Dict[str, Any]) -> None:
        """Seed the ``results`` table directly (no job row is touched)."""
        with self._write() as conn:
            self._put_result_txn(conn, fingerprint, result)

    def _put_result_txn(
        self, conn: sqlite3.Connection, fingerprint: str, result: Dict[str, Any]
    ) -> None:
        conn.execute(
            "INSERT OR REPLACE INTO results (fingerprint, result_json, created_at)"
            " VALUES (?, ?, ?)",
            (fingerprint, json.dumps(result), self._now()),
        )

    def result_count(self) -> int:
        with self._read() as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    # ------------------------------------------------------------------- events

    def append_event(
        self,
        job_id: str,
        kind: str,
        payload: Dict[str, Any],
        busy_timeout_seconds: Optional[float] = None,
    ) -> int:
        """Append one progress event to the job's log; returns its ``seq``.

        Sequence numbers are store-assigned (``MAX(seq) + 1`` inside the
        write transaction) so they stay strictly increasing across restarts,
        re-runs of the same job, and concurrent appenders in other server
        processes.  ``busy_timeout_seconds`` lets callers on a
        heartbeat-critical thread fail fast (and drop a lossy progress
        event) instead of blocking on a contended write lock.
        """
        with self._write(busy_timeout_seconds=busy_timeout_seconds) as conn:
            return self._append_event_txn(conn, job_id, kind, payload)

    def _append_event_txn(
        self, conn: sqlite3.Connection, job_id: str, kind: str, payload: Dict[str, Any]
    ) -> int:
        row = conn.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 FROM events WHERE job_id = ?",
            (job_id,),
        ).fetchone()
        seq = row[0]
        conn.execute(
            "INSERT INTO events (job_id, seq, created_at, kind, payload)"
            " VALUES (?, ?, ?, ?, ?)",
            (job_id, seq, self._now(), kind, json.dumps(payload)),
        )
        self._local.touched.append(job_id)
        return seq

    def events_after(
        self, job_id: str, cursor: int = 0, limit: int = 500
    ) -> List[Dict[str, Any]]:
        """Events with ``seq > cursor``, oldest first (the polling primitive)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT seq, created_at, kind, payload FROM events"
                " WHERE job_id = ? AND seq > ? ORDER BY seq LIMIT ?",
                (job_id, cursor, max(0, limit)),
            ).fetchall()
        return [
            {
                "seq": row["seq"],
                "created_at": row["created_at"],
                "kind": row["kind"],
                **json.loads(row["payload"]),
            }
            for row in rows
        ]

    def event_count(self, job_id: str) -> int:
        with self._read() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM events WHERE job_id = ?", (job_id,)
            ).fetchone()[0]

    # ------------------------------------------------------------------- spans

    def append_span(
        self,
        span: Dict[str, Any],
        busy_timeout_seconds: Optional[float] = None,
    ) -> None:
        """Persist one finished trace span (see :class:`repro.obs.Span`).

        ``INSERT OR REPLACE`` keyed on ``(trace_id, span_id)`` makes retries
        (a worker crash between export and ack, a drain-loop replay)
        idempotent.  ``busy_timeout_seconds`` lets heartbeat-adjacent
        callers fail fast; the caller decides whether a dropped span is
        acceptable.
        """
        with self._write(busy_timeout_seconds=busy_timeout_seconds) as conn:
            conn.execute(
                "INSERT OR REPLACE INTO spans"
                " (trace_id, span_id, parent_id, job_id, name,"
                "  start_time, duration, status, attrs)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    span["trace_id"],
                    span["span_id"],
                    span.get("parent_id"),
                    span.get("job_id"),
                    span.get("name", "?"),
                    span.get("start_time", 0.0),
                    span.get("duration", 0.0),
                    span.get("status", "ok"),
                    json.dumps(span.get("attrs", {})),
                ),
            )

    def spans_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """All spans of one trace, oldest first (the ``/trace`` view body)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM spans WHERE trace_id = ?"
                " ORDER BY start_time, span_id",
                (trace_id,),
            ).fetchall()
        return [
            {
                "trace_id": row["trace_id"],
                "span_id": row["span_id"],
                "parent_id": row["parent_id"],
                "job_id": row["job_id"],
                "name": row["name"],
                "start_time": row["start_time"],
                "duration": row["duration"],
                "status": row["status"],
                "attrs": json.loads(row["attrs"]),
            }
            for row in rows
        ]

    # --------------------------------------------------------------- readiness

    def ping(self, busy_timeout_seconds: float = 0.25) -> bool:
        """Fail-fast liveness probe for ``/readyz``: one trivial write
        transaction under a short busy timeout, so a wedged or contended
        store reads as *not ready* within the probe budget instead of
        hanging the health check behind the full store timeout."""
        try:
            with self._write(busy_timeout_seconds=busy_timeout_seconds) as conn:
                conn.execute("SELECT 1").fetchone()
            return True
        except sqlite3.Error:
            return False

    # ----------------------------------------------------------------- sweeping

    def sweep_expired(self, now: Optional[float] = None) -> Dict[str, int]:
        """Delete TTL-expired terminal jobs, their events, and orphaned results.

        A result row is deleted only when no remaining job references its
        fingerprint, so results shared with unexpired (or TTL-less) jobs
        survive.  Returns ``{"jobs": ..., "events": ..., "results": ...}``
        deletion counts.  The implicit *now* comes from the store's
        monotonic clock, so a wall-clock step can neither mass-expire nor
        immortalise jobs.
        """
        now = self._now() if now is None else now
        with self._write() as conn:
            expired = [
                row["id"]
                for row in conn.execute(
                    "SELECT id FROM jobs WHERE expires_at IS NOT NULL"
                    " AND expires_at <= ? AND status IN ('done', 'error', 'cancelled')",
                    (now,),
                )
            ]
            if not expired:
                return {"jobs": 0, "events": 0, "results": 0, "spans": 0}
            placeholders = ",".join("?" for _ in expired)
            events = conn.execute(
                f"DELETE FROM events WHERE job_id IN ({placeholders})", expired
            ).rowcount
            spans = conn.execute(
                f"DELETE FROM spans WHERE job_id IN ({placeholders})", expired
            ).rowcount
            conn.execute(
                f"DELETE FROM jobs WHERE id IN ({placeholders})", expired
            )
            # Job-less spans (the HTTP submit span is shared by every job of
            # its request) go once no live job references their trace.
            spans += conn.execute(
                "DELETE FROM spans WHERE job_id IS NULL AND trace_id NOT IN"
                " (SELECT trace_id FROM jobs WHERE trace_id IS NOT NULL)"
            ).rowcount
            results = conn.execute(
                "DELETE FROM results WHERE fingerprint NOT IN"
                " (SELECT fingerprint FROM jobs)"
            ).rowcount
            return {
                "jobs": len(expired),
                "events": events,
                "results": results,
                "spans": spans,
            }
