"""The verification server: HTTP API + a worker pool over a persistent store.

A :class:`VerificationServer` owns

* a :class:`~repro.server.store.JobStore` (SQLite) holding the durable job
  queue and every computed result,
* one :class:`~repro.server.workers.WorkerAgent` per worker slot: it claims
  queued jobs and runs each on the slot's runner -- a spawned child process
  (``worker_model="process"``: truly parallel CPU-bound searches) or a
  thread in this process (``"thread"``: GIL-shared, always available).
  Both models share the claim, cancel, heartbeat and crash-requeue rules,
  and keep a runner until it dies.  ``worker_model="process"`` degrades to
  threads automatically when the sandbox cannot spawn processes, mirroring
  :mod:`repro.service.engine`'s ``BrokenProcessPool`` fallback, and
* a :class:`~http.server.ThreadingHTTPServer` running
  :class:`~repro.server.handlers.ApiHandler`.

A submitted job whose fingerprint already has a stored verdict completes
inside the ``POST /v1/jobs`` transaction as a cache hit, after the token
and static-analysis gates: it never enters the queue and the verifier is
not invoked (``verifications_run`` stays flat).  On startup
the store is repaired with :func:`repro.server.recovery.recover`:
interrupted jobs re-queue and completed results survive.

Several server processes may share one ``--store`` file (the store runs in
WAL mode with per-thread connections and atomic claim transactions): give
each a unique ``server_id`` so worker claims are attributable, startup
recovery only requeues that server's own previous claims, a ``DELETE``
handled by one server cancels a search running on another (each agent reads
the persisted ``cancel_requested`` flag back with every heartbeat), and the
store's ``sweeper`` lease elects a single server to run TTL expiry and
dead-server rescue at a time.

::

    server = VerificationServer(store_path="jobs.db", port=0, workers=2)
    server.start()
    ...  # POST http://127.0.0.1:{server.port}/v1/jobs
    server.stop()
"""

from __future__ import annotations

import hmac
import os
import socket
import sqlite3
import threading
import time
import uuid
from http.server import ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.analysis import SpecRejectedError, analyze_property, sort_diagnostics
from repro.core.options import VerifierOptions
from repro.events import (
    CacheServed,
    CancelRequested,
    EventBroker,
    EventManager,
    JobCancelled,
    JobCompleted,
    JobSubmitted,
    LogSink,
    MetricsSink,
    SpanRecorded,
    StaleJobsRequeued,
    StoreSink,
    SweepCompleted,
    SweeperLeaseMiss,
    TraceSink,
)
from repro.obs import Span, Tracer, build_tree, new_trace_id
from repro.server.handlers import ApiHandler
from repro.server.metrics import ServerMetrics
from repro.server.recovery import RecoveryReport, recover
from repro.server.spec_memo import SpecMemo
from repro.server.store import JOB_STATUSES, TERMINAL_STATUSES, JobStore, StoredJob
from repro.server.workers import (
    WorkerAgent,
    children_alive,
    pool_snapshot,
    probe_process_support,
)
from repro.service.jobs import VerificationJob
from repro.spec.codec import SCHEMA_VERSION, dump_property, load_property
from repro.spec.errors import SpecError, SpecVersionError

#: The top-level keys of a ``POST /v1/jobs`` payload; any other is a 400.
#: ``generator`` is the stamp :meth:`~repro.spec.SpecBundle.to_dict` writes, so an
#: exported bundle posts as-is.
PAYLOAD_KEYS = frozenset({
    "schema_version", "generator", "system", "property", "properties",
    "options", "label", "ttl_seconds", "deadline_ms",
})

#: Cap on one long-poll wait: ``?wait_ms=`` is clamped to it.
LONG_POLL_MAX_MS = 30_000

#: Seconds a long-poll waiter sleeps between store re-reads when no
#: in-process wakeup arrives.  This bounds the delivery latency of events
#: written by *other* servers sharing the store file (their commits never
#: reach this process's broker): long-poll degrades to cursor polling at
#: this cadence.
PUSH_FALLBACK_INTERVAL = 0.5


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args: Any, **kwargs: Any):
        # Set before binding: a failed bind calls server_close.
        self._open_lock = threading.Lock()
        self._open: Set[socket.socket] = set()
        super().__init__(*args, **kwargs)

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end the open keep-alive connections: a handler
        waiting for its next request reads EOF and exits, one mid-request
        still writes its response first."""
        super().server_close()
        with self._open_lock:
            open_connections = list(self._open)
        for request in open_connections:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler


class VerificationServer:
    """Long-running verification-as-a-service process (HTTP + workers + store).

    ``store_path`` is the SQLite file of the job store, shared by every
    thread and by any peer server pointed at it; ``""`` and ``":memory:"``
    raise ``ValueError`` (see :class:`~repro.server.store.JobStore`).

    ``token`` guards a server bound beyond localhost: when set, every job
    route requires ``Authorization: Bearer <token>`` (see
    :meth:`authorized`).  Every client holding it is one trust domain.
    """

    def __init__(
        self,
        store_path: Union[str, "os.PathLike"],
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        default_options: Optional[VerifierOptions] = None,
        quiet: bool = True,
        sweep_interval: float = 2.0,
        progress_interval: int = 500,
        worker_model: str = "thread",
        heartbeat_interval: float = 1.0,
        stale_heartbeat_seconds: float = 15.0,
        server_id: Optional[str] = None,
        event_log_stream: Optional[Any] = None,
        trace_enabled: Optional[bool] = None,
        token: Optional[str] = None,
    ):
        if token is not None and not token:
            raise ValueError("the access token must not be empty")
        if worker_model not in ("thread", "process"):
            raise ValueError(
                f"worker_model must be 'thread' or 'process', got {worker_model!r}"
            )
        if server_id is not None and (
            not isinstance(server_id, str)
            or not server_id
            or server_id.split() != [server_id]
            or ":" in server_id
        ):
            # ':' is the reserved claim-prefix separator: allowing it would
            # let one server's recovery prefix ("10.0.0.2:") accidentally
            # match a peer's claims ("10.0.0.2:8081:proc-0") and requeue
            # jobs running live on that peer.
            raise ValueError(
                "server_id must be a non-empty string without whitespace or ':',"
                f" got {server_id!r}"
            )
        #: This server's identity in a shared-store deployment.  Worker ids
        #: are prefixed ``"<server_id>:"`` so claims are attributable, and
        #: startup recovery requeues only this server's own previous claims.
        #: ``None`` (the default) is single-server mode: recovery repairs the
        #: whole store, exactly as before.
        self.server_id = server_id
        #: Nonce distinguishing this process *incarnation* inside worker ids.
        #: Ownership predicates compare full worker ids, so without it a
        #: same-server-id rolling restart would collide with its
        #: predecessor's claims ("a:proc-0" == "a:proc-0") and the old
        #: incarnation could keep heartbeating / finalising jobs the new
        #: one re-claimed.
        self._incarnation = uuid.uuid4().hex[:6]
        #: Prefix baked into every worker id; starts with "<server_id>:" in
        #: shared-store mode so claims stay attributable to the server.
        self.worker_id_prefix = (
            f"{server_id}:{self._incarnation}:"
            if server_id
            else f"{self._incarnation}:"
        )
        #: Identity used for store leases (unique per process even when the
        #: operator forgot to set distinct server ids).
        self._lease_owner = (
            f"{server_id}:{uuid.uuid4().hex[:8]}"
            if server_id
            else f"srv:{uuid.uuid4().hex[:8]}"
        )
        self.host = host
        self.port = port
        self.quiet = quiet
        self.workers = max(0, workers)
        #: The worker model requested at construction ("thread" | "process").
        self.requested_worker_model = worker_model
        #: The model actually running (may degrade to "thread" at start()).
        self.worker_model = worker_model
        #: Why a requested process pool degraded to threads (None otherwise).
        self.worker_fallback_error: Optional[str] = None
        if stale_heartbeat_seconds <= 2.0 * heartbeat_interval:
            # Worker agents refresh their claims' heartbeats once per
            # heartbeat_interval from their drain loops: a staleness
            # threshold inside that cadence would make the sweeper
            # perpetually "rescue" live jobs -- cancel, requeue, re-claim,
            # forever.
            raise ValueError(
                f"stale_heartbeat_seconds ({stale_heartbeat_seconds}) must exceed"
                f" twice heartbeat_interval ({heartbeat_interval}): workers only"
                " refresh claims that often"
            )
        #: How often (seconds) worker agents refresh their jobs' store
        #: heartbeats and read back cross-server cancels.
        self.heartbeat_interval = heartbeat_interval
        #: Heartbeat age past which the sweeper requeues a running job whose
        #: owner is presumed dead.
        self.stale_heartbeat_seconds = stale_heartbeat_seconds
        #: How often (seconds) the sweeper thread expires TTL'd jobs/results.
        self.sweep_interval = sweep_interval
        #: Explored-state interval between persisted ``progress`` events.
        self.progress_interval = progress_interval
        self.store = JobStore(store_path)
        self.metrics = ServerMetrics(server_id=server_id)
        #: Submitted systems, parsed and linted once per distinct system
        #: (see :mod:`repro.server.spec_memo`).
        self.spec_memo = SpecMemo(self.metrics)
        #: The shared bearer token of the job routes (``None``: open).
        self._token = token.encode("utf-8") if token is not None else None
        #: The typed event bus: every job / worker / sweeper occurrence is
        #: fired here once, and the sinks fan it out to the durable per-job
        #: log, the /metrics counters, and (optionally) a log stream.
        self.events = EventManager()
        #: In-process wakeup hub for long-poll subscribers, fed by the
        #: store's post-commit update hook (so *any* committed write that an
        #: event poller could observe -- appends, terminal flips, cancels --
        #: wakes the waiters, whichever code path wrote it).
        self.broker = EventBroker()
        self.store.on_job_update = self.broker.notify
        self.events.add_sink(
            StoreSink(
                self.store,
                lossy_busy_timeout_seconds=self.store.heartbeat_busy_timeout_seconds,
            )
        )
        self.events.add_sink(MetricsSink(self.metrics))
        self.events.add_sink(TraceSink(self.store))
        if event_log_stream is not None:
            self.events.add_sink(LogSink(event_log_stream))
        if trace_enabled is None:
            trace_enabled = os.environ.get("REPRO_TRACE", "").strip().lower() not in (
                "", "0", "false", "no",
            )
        #: Whether this server records distributed-trace spans (see
        #: :mod:`repro.obs`).  Default comes from ``REPRO_TRACE``; when off,
        #: the tracer hands out a shared no-op span and the instrumented
        #: paths cost one attribute check each (perfbench's
        #: ``trace.overhead_share`` measures the traced cost).  Incoming
        #: ``traceparent`` headers still land on the job row either way, so a
        #: traced *client* can correlate ``/events`` entries even against an
        #: untraced server.
        self.trace_enabled = bool(trace_enabled)
        self.tracer = Tracer(enabled=self.trace_enabled, exporter=self._export_span)
        # In shared-store mode, startup recovery spares own-prefix claims
        # whose heartbeats are still fresh: a rolling restart overlaps with
        # the old same-id instance draining (and heartbeating) its last
        # jobs, and yanking those would discard nearly-finished work.
        self.recovery: RecoveryReport = recover(
            self.store,
            server_id=server_id,
            heartbeat_grace_seconds=(
                stale_heartbeat_seconds if server_id is not None else None
            ),
            events=self.events,
        )
        #: Options for a submitted job that names none.
        self.default_options = default_options or VerifierOptions()
        self._stop_event = threading.Event()
        # Serialises stop(): see its docstring.
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._wakeup = threading.Event()
        self._agents: List[WorkerAgent] = []
        self._httpd: Optional[_HttpServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._sweeper_thread: Optional[threading.Thread] = None
        # Cancel hooks of jobs currently running on this server's workers,
        # so `DELETE /v1/jobs/<id>` can trip a live search: the `set` of the
        # Event the job's runner polls.
        self._cancel_lock = threading.Lock()
        self._cancellers: Dict[str, Callable[[], None]] = {}
        #: Monotonic stamp of the sweeper loop's last completed pass (lease
        #: misses count: the loop is alive either way); ``/readyz`` flags a
        #: wedged sweeper through its age.
        self._last_sweep_tick: Optional[float] = None

    def _export_span(self, span: Span) -> None:
        """The tracer's exporter: finished spans ride the event bus to the
        :class:`~repro.events.TraceSink` (and the span counter)."""
        self.events.fire(
            SpanRecorded(job_id=span.job_id, data=span.as_dict(), trace_id=span.trace_id)
        )

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Bind the HTTP socket (resolving ``port=0``) and start the workers.

        A requested ``worker_model="process"`` is probed first (one trivial
        spawn-and-join); environments that cannot spawn processes degrade to
        thread workers, recorded in :attr:`worker_fallback_error` and under
        ``workers.fallback_error`` in ``/metrics``.
        """
        if self._httpd is not None:
            raise RuntimeError("server already started")
        if self.worker_model == "process" and self.workers > 0:
            error = probe_process_support()
            if error is not None:
                self.worker_model = "thread"
                self.worker_fallback_error = error
        self._httpd = _HttpServer((self.host, self.port), ApiHandler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http",
            daemon=True,
        )
        self._http_thread.start()
        for index in range(self.workers):
            agent = WorkerAgent(self, index)
            agent.start()
            self._agents.append(agent)
        self._sweeper_thread = threading.Thread(
            target=self._sweeper_loop, name="repro-sweeper", daemon=True
        )
        self._sweeper_thread.start()

    def stop(self) -> None:
        """Graceful shutdown: finish in-flight jobs, leave the queue persisted.

        Safe to call more than once and from several threads at a time
        (``serve_forever`` calls it on its way out while its caller may be
        stopping the server too): a later call waits for the first to finish
        and returns, so no thread closes the store's connections while
        another is still running a statement on one.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            self._shutdown()

    def _shutdown(self) -> None:
        self._stop_event.set()
        self._wakeup.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)
        if self._sweeper_thread is not None:
            self._sweeper_thread.join(timeout=5)
        # In-flight jobs finish first; their agents keep heartbeating from
        # their drain loops meanwhile, so no peer's stale sweep re-runs them.
        for agent in self._agents:
            agent.join(timeout=60)
        for agent in self._agents:
            if not agent.is_alive():
                agent.close()  # stop the (now idle) runner
        workers_done = all(not agent.is_alive() for agent in self._agents)
        try:
            # Hand the sweeper role to a peer immediately instead of making
            # it wait out the lease TTL.
            self.store.release_lease("sweeper", self._lease_owner)
        except Exception:  # pragma: no cover - store already unusable
            pass
        if workers_done:
            self.store.close()
        # else: a worker is still mid-verification past the join timeout;
        # leave the store open so its mark_done can land (daemon threads die
        # with the process anyway, and the job would simply re-run on the
        # next restart if it doesn't).

    def serve_forever(self) -> None:
        """Block until stopped or interrupted; starts the server if needed."""
        if self._httpd is None:
            self.start()
        try:
            while not self._stop_event.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            pass
        finally:
            self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ workers

    def _register_canceller(self, job_id: str, canceller: Callable[[], None]) -> None:
        """Register the hook `cancel_job` calls to trip *job_id*'s live search."""
        with self._cancel_lock:
            self._cancellers[job_id] = canceller

    def _unregister_canceller(self, job_id: str) -> None:
        with self._cancel_lock:
            self._cancellers.pop(job_id, None)

    def fire_cache_hit(self, stored: StoredJob) -> None:
        """Fire the events of a job the store completed from a stored verdict
        (at submit, or as the twin of a job that just finished)."""
        data = {"fingerprint": stored.fingerprint}
        self.events.fire(CacheServed(job_id=stored.id, data=data))
        data = {"seconds": 0.0, "cache_hit": True}
        self.events.fire(JobCompleted(job_id=stored.id, data=data))

    # ------------------------------------------------------------------ sweeper

    def _sweeper_loop(self) -> None:
        # The sweeper lease elects ONE sweeper among every server sharing
        # the store file: only the holder runs TTL expiry and stale-claim
        # rescue, so N servers never race each other over global repairs.
        # The TTL outlives a couple of missed beats; a crashed holder's
        # lease expires and a peer takes over.  (Should a slow sweep let
        # the lease lapse mid-pass, a concurrent peer sweep is safe -- the
        # repairs are atomic and idempotent; the lease is an optimisation.)
        lease_ttl = max(3.0 * self.sweep_interval, 1.0)
        while not self._stop_event.wait(timeout=self.sweep_interval):
            # Freshness stamp for /readyz: the loop is alive (lease misses
            # included -- a peer sweeping for us is a healthy state).
            self._last_sweep_tick = time.monotonic()
            try:
                if not self.store.acquire_lease(
                    "sweeper", self._lease_owner, lease_ttl
                ):
                    self.events.fire(SweeperLeaseMiss())
                    continue
                swept = self.store.sweep_expired()
                # Rescue jobs whose owner went dark (its heartbeats
                # stopped): a dead worker agent or a SIGKILL'd peer
                # server.  Every claim has an owner that heartbeats, so a
                # stale heartbeat is the one sign of a lost worker.
                # A stale job with a pending cancel is finalised instead.
                requeued, cancelled = self.store.requeue_stale(
                    self.stale_heartbeat_seconds
                )
                if requeued:
                    self.events.fire(StaleJobsRequeued(data={"count": len(requeued)}))
                    self._wakeup.set()
                for job_id in cancelled:
                    self.events.fire(JobCancelled(job_id=job_id))
            except sqlite3.ProgrammingError:  # store closed mid-shutdown
                return
            except Exception:
                # Transient store trouble (e.g. a busy timeout exhausted
                # under heavy multi-process write contention) must not kill
                # the sweeper: the next pass simply retries.
                continue
            if swept["jobs"]:
                self.events.fire(SweepCompleted(data=swept))

    # -------------------------------------------------------------------- views

    def authorized(self, authorization: Optional[str]) -> bool:
        """Whether an ``Authorization`` header opens the job routes.

        Always true without a token.  With one, the header must be
        ``Bearer <token>`` (the scheme in any case); the token is compared
        in constant time.  A refusal counts in ``auth_failures``.
        """
        if self._token is None:
            return True
        scheme, _, presented = (authorization or "").partition(" ")
        if scheme.lower() == "bearer" and hmac.compare_digest(
            presented.strip().encode("utf-8"), self._token
        ):
            return True
        self.metrics.increment("auth_failures")
        return False

    def submit_payload(
        self,
        payload: Any,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Validate a ``POST /v1/jobs`` payload and enqueue one job per property.

        The payload mirrors the spec-bundle document format (same
        ``schema_version`` rules): a ``system`` section plus either one
        ``property`` or a list of ``properties``, and optional ``options``,
        ``label``, ``ttl_seconds`` (expire the job record that long after it
        finishes) and ``deadline_ms`` (bound the search's wall-clock run
        time); any other top-level key is refused (see :data:`PAYLOAD_KEYS`).
        Inputs are canonicalised through the spec codecs, so fingerprints
        match jobs built anywhere else (CLI, Python API).
        The system-side parse, rendering and lint come from
        :attr:`spec_memo`, so a resubmitted system skips them; the
        property-side checks run on every POST.

        ``trace_id``/``parent_span`` put the accepted jobs into a
        distributed trace (the HTTP handler passes the ``http.submit``
        span's context; every property of one POST shares it).  With
        tracing on and no incoming context, a fresh root trace is minted so
        programmatic submissions trace too.
        """
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"job payload must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version", 1)
        if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
            raise SpecVersionError(version, SCHEMA_VERSION)
        # A misspelt key (`ttl_second`) would otherwise be dropped and the
        # job queued without the setting its submitter asked for.  Checked
        # after the version, so a newer document's new keys report the
        # version mismatch instead.
        unknown = sorted(set(payload) - PAYLOAD_KEYS)
        if unknown:
            raise SpecError(f"unknown job payload key(s): {', '.join(map(repr, unknown))}")
        system_data = payload.get("system")
        if system_data is None:
            raise SpecError("job payload has no 'system' section")
        checked = self.spec_memo.check(system_data)

        if "property" in payload and "properties" in payload:
            raise SpecError("job payload has both 'property' and 'properties'")
        if "property" in payload:
            property_list = [payload["property"]]
        else:
            property_list = payload.get("properties")
            if not isinstance(property_list, (list, tuple)) or not property_list:
                raise SpecError(
                    "job payload needs a 'property' object or a non-empty 'properties' list"
                )
        loaded_properties = [load_property(p) for p in property_list]

        # Static analysis gate (see repro.analysis): error-severity
        # diagnostics fast-fail the whole POST as 422 before any job row is
        # written -- a rejected spec never reaches the queue, so it can never
        # claim a worker.  Warning-severity diagnostics ride along on the
        # accepted job rows (system-wide ones on every job, property ones on
        # the job verifying that property) and surface in the job view.
        # The system-side diagnostics are memoised with the system; each
        # POST lints its own properties.
        property_diagnostics = [
            analyze_property(checked.system, p) for p in loaded_properties
        ]
        errors = [
            d
            for diagnostics in [checked.diagnostics] + property_diagnostics
            for d in diagnostics
            if d.is_error
        ]
        if errors:
            self.metrics.increment("specs_rejected")
            for code in sorted({d.code for d in errors}):
                self.metrics.increment(f"specs_rejected_{code.lower()}")
            raise SpecRejectedError(errors)
        system_warnings = [d for d in checked.diagnostics if not d.is_error]
        job_warnings = [
            [
                d.as_dict()
                for d in sort_diagnostics(
                    system_warnings + [d for d in diagnostics if not d.is_error]
                )
            ]
            for diagnostics in property_diagnostics
        ]

        options_data = payload.get("options")
        if options_data is None:
            options = self.default_options
        elif isinstance(options_data, Mapping):
            # Spec files tolerate unknown keys for forward compatibility; an
            # API submission with one is far more likely a typo (silently
            # dropping `timeout` for `timeout_seconds` would run unbounded),
            # and an ill-typed value would only fail later, in a worker.
            try:
                options = VerifierOptions.from_request(options_data)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        else:
            raise SpecError("'options' must be a JSON object")
        options_dict = options.as_dict()

        label = payload.get("label")
        if label is not None and not isinstance(label, str):
            raise SpecError("'label' must be a string")

        ttl_seconds = payload.get("ttl_seconds")
        if ttl_seconds is not None:
            if isinstance(ttl_seconds, bool) or not isinstance(ttl_seconds, (int, float)):
                raise SpecError("'ttl_seconds' must be a number")
            if ttl_seconds < 0:
                raise SpecError("'ttl_seconds' must be non-negative")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, int):
                raise SpecError("'deadline_ms' must be an integer")
            if deadline_ms <= 0:
                raise SpecError("'deadline_ms' must be positive")

        jobs = [
            VerificationJob(
                system_dict=checked.system_dict,
                property_dict=dump_property(loaded_property),
                options_dict=options_dict,
                label=label,
                _system_json=checked.system_json,
            )
            for loaded_property in loaded_properties
        ]
        if trace_id is None and self.tracer.enabled:
            trace_id = new_trace_id()
        accepted = []
        for job, warnings in zip(jobs, job_warnings):
            stored = self.store.submit(
                job,
                label=label,
                ttl_seconds=ttl_seconds,
                deadline_ms=deadline_ms,
                trace_id=trace_id,
                parent_span=parent_span,
                warnings=warnings or None,
            )
            self.events.fire(
                JobSubmitted(
                    job_id=stored.id,
                    data={"fingerprint": stored.fingerprint, "status": stored.status},
                    trace_id=trace_id,
                )
            )
            if stored.status == "done":
                self.fire_cache_hit(stored)
            entry = {
                "id": stored.id,
                "fingerprint": stored.fingerprint,
                "system": stored.system_name,
                "property": stored.property_name,
                "status": stored.status,
                "url": f"/v1/jobs/{stored.id}",
                "events_url": f"/v1/jobs/{stored.id}/events",
            }
            if trace_id is not None:
                entry["trace_id"] = trace_id
            if warnings:
                entry["warnings"] = warnings
            accepted.append(entry)
        if any(entry["status"] == "queued" for entry in accepted):
            self._wakeup.set()
        return {"jobs": accepted}

    def job_view(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>`` body: status, plus the result when done.

        Cancelled jobs surface their partial ``UNKNOWN`` result (stored on
        the job row) through the same ``result`` key.
        """
        stored = self.store.get_job(job_id)
        if stored is None:
            return None
        result = None
        if stored.status == "done":
            result = self.store.get_result(stored.fingerprint)
        return stored.as_dict(result=result)

    def cancel_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The ``DELETE /v1/jobs/<id>`` body: cooperative cancellation.

        Queued jobs become ``cancelled`` immediately; running jobs get their
        canceller tripped -- it sets the Event the runner's token polls, so
        the search unwinds at its next loop iteration, in a child process or
        a thread alike -- and land as ``cancelled``
        with partial statistics; already terminal jobs (and repeated
        DELETEs) are reported unchanged -- the store appends the ``cancel``
        event and bumps nothing twice.
        """
        outcome = self.store.request_cancel(job_id)
        if outcome is None:
            return None
        disposition, fresh = outcome
        if disposition == "cancelling":
            # Idempotent and racing-registration-safe: the agent re-checks
            # the persisted flag after registering its canceller.  The
            # canceller is invoked *under* the lock: it is the agent's
            # per-runner Event.set, and firing a
            # stale reference after the agent moved on to its next job
            # would cancel that innocent job (the agent unregisters, then
            # clears the event, then re-registers -- all serialised against
            # this lock via register/unregister).
            with self._cancel_lock:
                canceller = self._cancellers.get(job_id)
                if canceller is not None:
                    canceller()
        if fresh:
            self.events.fire(CancelRequested(job_id=job_id, data={"disposition": disposition}))
        return {
            "id": job_id,
            "status": disposition,
            "cancelled": fresh,
            "already_finished": not fresh and disposition in TERMINAL_STATUSES,
        }

    def events_view(
        self,
        job_id: str,
        cursor: int = 0,
        limit: int = 500,
        wait_ms: int = 0,
    ) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>/events`` body: the job's events after
        *cursor*, or ``None`` for an unknown job.

        Clients pass back the returned ``cursor`` to receive only newer
        events; ``terminal`` tells them when to stop.  The status is read
        before the events: a job's events commit no later than its terminal
        flip, so a terminal page misses none of them.

        With *wait_ms* (clamped to :data:`LONG_POLL_MAX_MS`) the call
        long-polls: an empty page of a live job waits until a store commit
        touches the job (an in-process broker wakeup), re-reading at least
        every :data:`PUSH_FALLBACK_INTERVAL` regardless, which is what bounds
        delivery of events written by *other* servers sharing the store.  A
        deadline hit returns the empty page.
        """
        wait_ms = max(0, min(int(wait_ms), LONG_POLL_MAX_MS))
        deadline = time.monotonic() + wait_ms / 1000.0
        # Subscribe BEFORE reading: a write landing between the read and the
        # wait bumps the subscription's generation, so the next wait()
        # returns at once instead of sleeping out the interval.
        with self.broker.subscription(job_id) as subscription:
            while True:
                status = self.store.job_status(job_id)
                if status is None:
                    return None
                events = self.store.events_after(job_id, cursor=cursor, limit=limit)
                terminal = status in TERMINAL_STATUSES
                remaining = deadline - time.monotonic()
                if events or terminal or remaining <= 0:
                    return {
                        "id": job_id,
                        "status": status,
                        "events": events,
                        "cursor": events[-1]["seq"] if events else cursor,
                        "terminal": terminal,
                    }
                subscription.wait(min(remaining, PUSH_FALLBACK_INTERVAL))

    def jobs_view(
        self,
        status: Optional[str] = None,
        limit: int = 100,
        ids: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """The ``GET /v1/jobs`` body.

        With ``ids`` (repeated ``?id=`` query params) this is the *batch
        status view*: one round-trip returns the listed jobs -- including
        each done job's result, so a waiting client needs no follow-up GET
        per job -- with unknown ids simply absent.  Without ``ids``
        it is the recency listing, as before.  An unknown ``status`` raises
        ``ValueError`` (-> 400) on *both* paths -- the batch path used to
        ignore it silently.
        """
        if status is not None and status not in JOB_STATUSES:
            raise ValueError(
                f"unknown job status {status!r}; expected one of {JOB_STATUSES}"
            )
        if ids is not None:
            views = []
            for stored in self.store.get_jobs(ids):
                if status is not None and stored.status != status:
                    continue
                result = None
                if stored.status == "done":
                    result = self.store.get_result(stored.fingerprint)
                views.append(stored.as_dict(result=result))
            return {"jobs": views}
        return {
            "jobs": [
                stored.as_dict()
                for stored in self.store.list_jobs(status, limit)
            ],
            "counts": self.store.counts(),
        }

    def metrics_view(self) -> Dict[str, Any]:
        """The ``GET /v1/metrics`` body.  ``cache.hits`` counts the jobs this
        server completed from a stored verdict, ``cache.misses`` the jobs it
        queued for a search (a twin counts in both).  ``spec_memo.hits``
        counts submissions whose system skipped the parse and lint,
        ``spec_memo.misses`` those that ran them."""
        hits = self.metrics.counter("cache_hits")
        misses = self.metrics.counter("cache_misses")
        counts = self.store.counts()
        return {
            **self.metrics.snapshot(),
            "queue": {
                "depth": counts["queued"],
                "running": counts["running"],
                "jobs": counts,
            },
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else None,
                "results": self.store.result_count(),
            },
            "spec_memo": {
                "hits": self.metrics.counter("spec_memo_hits"),
                "misses": self.metrics.counter("spec_memo_misses"),
                "entries": len(self.spec_memo),
            },
            "recovery": self.recovery.as_dict(),
            "workers": self.workers_view(),
            "store_path": self.store.path,
        }

    def trace_view(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>/trace`` body: the job's full span tree.

        The trace is keyed by the *trace id* on the job row, so it includes
        spans recorded by other parties -- the submitting server's
        ``http.submit``, a peer server's ``worker.execute`` in a
        shared-store deployment -- not just this process's.  An untraced
        job returns an empty span list (200, not 404: the job exists).
        """
        stored = self.store.get_job(job_id)
        if stored is None:
            return None
        self.metrics.increment("trace_requests")
        spans = (
            self.store.spans_for_trace(stored.trace_id)
            if stored.trace_id is not None
            else []
        )
        return {
            "id": job_id,
            "status": stored.status,
            "trace_id": stored.trace_id,
            "spans": spans,
            "tree": build_tree(spans),
        }

    def health_view(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body: pure liveness (we answered = alive)."""
        return {
            "status": "ok",
            "server_id": self.server_id,
            "uptime_seconds": self.metrics.uptime_seconds(),
        }

    def readiness_view(self) -> Tuple[bool, Dict[str, Any]]:
        """The ``GET /readyz`` decision: can this server do useful work *now*?

        Three checks, each reported individually so an operator sees what
        tripped: the store accepts a (fail-fast) write, at least one worker
        slot is alive (when any were configured), and the sweeper loop
        ticked recently (lease misses count as ticks -- a peer holding the
        lease is healthy).  Any failing check flips the endpoint to 503.

        A slot is alive when its agent thread runs and its runner is alive
        or not started yet: runners start lazily, on the first claimed job,
        so a fresh idle pool is ready (see ``pool_snapshot``).
        """
        store_ok = self.store.ping()
        checks: Dict[str, Any] = {
            "store": {"ok": store_ok, "path": self.store.path},
        }

        if self.workers <= 0:
            workers_alive, workers_total = 0, 0
            workers_ok = True  # an API-only server is ready without workers
        else:
            workers_alive, workers_total = pool_snapshot(self._agents)
            workers_ok = workers_alive > 0
        checks["workers"] = {
            "ok": workers_ok,
            "model": self.worker_model,
            "alive": workers_alive,
            "total": workers_total,
        }

        thread_alive = (
            self._sweeper_thread is not None and self._sweeper_thread.is_alive()
        )
        tick_age = (
            time.monotonic() - self._last_sweep_tick
            if self._last_sweep_tick is not None
            else None
        )
        # No tick yet is fine right after start (the first pass lands one
        # sweep_interval in); after that, a tick older than a few intervals
        # means the loop is wedged on a store write.
        sweeper_ok = thread_alive and (
            tick_age is None or tick_age < max(5.0 * self.sweep_interval, 5.0)
        )
        try:
            lease_holder = self.store.lease_holder("sweeper")
        except Exception:
            lease_holder = None
        checks["sweeper"] = {
            "ok": sweeper_ok,
            "thread_alive": thread_alive,
            "last_tick_age_seconds": tick_age,
            "lease_holder": lease_holder,
        }

        ready = store_ok and workers_ok and sweeper_ok
        return ready, {
            "status": "ready" if ready else "unready",
            "server_id": self.server_id,
            "checks": checks,
        }

    def workers_view(self) -> Dict[str, Any]:
        """The ``workers`` section of ``/metrics``: model + per-worker gauges."""
        # (server_id itself lives at the top level of /metrics, via
        # ServerMetrics.snapshot -- not duplicated here.)
        view: Dict[str, Any] = {
            "count": self.workers,
            "model": self.worker_model,
            "requested_model": self.requested_worker_model,
            "pool": self.metrics.worker_gauges.snapshot(),
        }
        if self.worker_model == "process":
            view["processes_alive"] = children_alive(self._agents)
            view["processes_total"] = len(self._agents)
        if self.worker_fallback_error is not None:
            view["fallback_error"] = self.worker_fallback_error
        return view
