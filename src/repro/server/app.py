"""The verification server: HTTP API + a worker pool over a persistent store.

A :class:`VerificationServer` owns

* a :class:`~repro.server.store.JobStore` (SQLite) holding the durable job
  queue and every computed result,
* a :class:`~repro.server.store.StoreBackedCache` (in-memory LRU read-through
  over the store) plugged into a
  :class:`~repro.service.engine.VerificationService`,
* a worker pool that claims queued jobs and verifies them -- either
  **thread** workers (in-process, GIL-shared; always available) or
  **process** workers (:mod:`repro.server.workers`: one long-lived OS
  process per slot, truly parallel CPU-bound searches, cross-process
  cancellation, crash requeue and recycling).  ``worker_model="process"``
  degrades to threads automatically when the sandbox cannot spawn
  processes, mirroring :mod:`repro.service.engine`'s ``BrokenProcessPool``
  fallback, and
* a :class:`~http.server.ThreadingHTTPServer` running
  :class:`~repro.server.handlers.ApiHandler`.

On startup the store is repaired with :func:`repro.server.recovery.recover`:
interrupted jobs re-queue, completed results survive, and re-submitted
payloads whose fingerprints are already stored complete as cache hits without
invoking the verifier (the ``verifications_run`` metric stays flat).

Several server processes may share one ``--store`` file (the store runs in
WAL mode with per-thread connections and atomic claim transactions): give
each a unique ``server_id`` so worker claims are attributable, startup
recovery only requeues that server's own previous claims, a ``DELETE``
handled by one server cancels a search running on another (workers poll the
persisted ``cancel_requested`` flag), and the store's ``sweeper`` lease
elects a single server to run TTL expiry and dead-server rescue at a time.

::

    server = VerificationServer(store_path="jobs.db", port=0, workers=2)
    server.start()
    ...  # POST http://127.0.0.1:{server.port}/v1/jobs
    server.stop()
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from http.server import ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis import (
    SpecRejectedError,
    analyze_property,
    analyze_system,
    sort_diagnostics,
)
from repro.core.control import (
    CancellationToken,
    PhaseTimer,
    RateLimitedPoll,
    SearchControl,
)
from repro.core.options import VerifierOptions
from repro.core.verifier import VerificationResult, Verifier
from repro.events import (
    CacheServed,
    CancelRequested,
    EventBroker,
    EventManager,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobSubmitted,
    LogSink,
    MetricsSink,
    QuotaExceeded,
    SpanRecorded,
    StaleJobsRequeued,
    StoreSink,
    SweepCompleted,
    SweeperLeaseMiss,
    TenantThrottled,
    TraceSink,
    VerificationStarted,
)
from repro.obs import (
    Span,
    TraceContext,
    TraceScope,
    Tracer,
    build_tree,
    new_trace_id,
)
from repro.server.handlers import ApiHandler
from repro.server.metrics import ServerMetrics
from repro.server.recovery import RecoveryReport, recover
from repro.server.store import (
    JOB_STATUSES,
    TERMINAL_STATUSES,
    JobStore,
    PendingQuotaExceeded,
    StoreBackedCache,
    StoredJob,
)
from repro.server.workers import (
    ProcessWorkerAgent,
    children_alive,
    deadline_ms_binding,
    pool_snapshot,
    probe_process_support,
)
from repro.service.cache import ResultCache
from repro.service.engine import VerificationService
from repro.service.jobs import VerificationJob
from repro.spec.codec import (
    SCHEMA_VERSION,
    dump_property,
    dump_system,
    load_property,
    load_system,
)
from repro.spec.errors import SpecError, SpecVersionError
from repro.tenancy import (
    DEFAULT_TEST_API_KEY,
    AuthFailure,
    Tenant,
    TenantRateLimiter,
    TenantRegistry,
    ThrottledError,
)


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class VerificationServer:
    """Long-running verification-as-a-service process (HTTP + workers + store)."""

    def __init__(
        self,
        store_path: Union[str, "os.PathLike"] = ":memory:",
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        default_options: Optional[VerifierOptions] = None,
        cache_entries: int = 10_000,
        quiet: bool = True,
        sweep_interval: float = 2.0,
        progress_interval: int = 500,
        worker_model: str = "thread",
        max_jobs_per_worker: int = 32,
        heartbeat_interval: float = 1.0,
        stale_heartbeat_seconds: float = 15.0,
        server_id: Optional[str] = None,
        cancel_poll_interval: float = 0.25,
        long_poll_max_ms: int = 30_000,
        push_fallback_interval: float = 0.5,
        event_log_stream: Optional[Any] = None,
        trace_enabled: Optional[bool] = None,
        auth_enabled: Optional[bool] = None,
        tenant_cache_seconds: float = 1.0,
    ):
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
        #: How often a *running* thread-model job's token re-polls the store's
        #: ``cancel_requested`` flag (cross-server DELETE latency bound).
        self.cancel_poll_interval = cancel_poll_interval
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
        #: Recycle a worker process after this many dispatched jobs.
        self.max_jobs_per_worker = max(1, max_jobs_per_worker)
        if stale_heartbeat_seconds <= 2.0 * heartbeat_interval:
            # Workers (process agents in their drain loops, thread claims
            # via the dedicated heartbeat thread) refresh heartbeats once
            # per heartbeat_interval: a staleness threshold inside that
            # cadence would make the sweeper perpetually "rescue" live jobs
            # -- cancel, requeue, re-claim, forever.
            raise ValueError(
                f"stale_heartbeat_seconds ({stale_heartbeat_seconds}) must exceed"
                f" twice heartbeat_interval ({heartbeat_interval}): workers only"
                " refresh claims that often"
            )
        #: How often (seconds) workers refresh their jobs' store heartbeats
        #: (process agents from their drain loops; thread claims from the
        #: dedicated heartbeat thread).
        self.heartbeat_interval = heartbeat_interval
        #: Heartbeat age past which the sweeper requeues a running job whose
        #: owner is presumed dead.
        self.stale_heartbeat_seconds = stale_heartbeat_seconds
        #: How often (seconds) the sweeper thread expires TTL'd jobs/results.
        self.sweep_interval = sweep_interval
        #: Explored-state interval between persisted ``progress`` events.
        self.progress_interval = progress_interval
        #: Cap on a single long-poll / SSE wait (``?wait_ms=`` is clamped to
        #: this); also the default SSE streaming budget per request.
        self.long_poll_max_ms = max(0, int(long_poll_max_ms))
        #: How long a long-poll/SSE waiter sleeps between store re-reads when
        #: no in-process wakeup arrives.  This bounds the delivery latency of
        #: events written by *other* servers sharing the store file (their
        #: commits never reach this process's broker): push degrades to
        #: cursor polling at this cadence, never below it.
        self.push_fallback_interval = max(0.05, push_fallback_interval)
        self.store = JobStore(store_path)
        self.metrics = ServerMetrics(server_id=server_id)
        if auth_enabled is None:
            auth_enabled = os.environ.get("REPRO_TEST_AUTH", "").strip() == "1"
        #: Whether the multi-tenant front door is on (see
        #: :mod:`repro.tenancy`).  Default comes from ``REPRO_TEST_AUTH``
        #: (a test hook, like ``REPRO_TRACE``); operators use ``serve
        #: --auth``.  Off -- the zero-config default -- every request is
        #: anonymous and behaviour is exactly the pre-tenancy API.
        self.auth_enabled = bool(auth_enabled)
        #: Tenant records + API-key resolution, persisted in this store.
        #: ``tenant_cache_seconds`` bounds cross-server revocation latency.
        self.tenants = TenantRegistry(
            self.store, cache_ttl_seconds=tenant_cache_seconds
        )
        #: Per-tenant submit token buckets (in-memory, per server).
        self.rate_limiter = TenantRateLimiter()
        if self.auth_enabled and os.environ.get("REPRO_TEST_AUTH", "").strip() == "1":
            # Test bootstrap: a deterministic tenant every server sharing
            # the store converges on, so REPRO_TEST_AUTH=1 re-runs of the
            # e2e suites need no out-of-band key exchange.  `ensure` is
            # race-safe across processes.
            self.tenants.ensure(
                "repro-test",
                api_key=os.environ.get("REPRO_TEST_API_KEY", DEFAULT_TEST_API_KEY),
                tenant_id="repro-test",
            )
        #: The typed event bus: every job / worker / sweeper occurrence is
        #: fired here once, and the sinks fan it out to the durable per-job
        #: log, the /metrics counters, and (optionally) a log stream.
        self.events = EventManager()
        #: In-process wakeup hub for long-poll/SSE subscribers, fed by the
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
        self.cache = StoreBackedCache(self.store, ResultCache(max_entries=cache_entries))
        self.service = VerificationService(
            cache=self.cache, default_options=default_options
        )
        self._stop_event = threading.Event()
        # Serialises stop(): see its docstring.
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._wakeup = threading.Event()
        self._worker_threads: List[threading.Thread] = []
        self._agents: List[ProcessWorkerAgent] = []
        self._httpd: Optional[_HttpServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._sweeper_thread: Optional[threading.Thread] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        # Cancel hooks of jobs currently running on this server's workers,
        # so `DELETE /v1/jobs/<id>` can trip a live search: a thread job
        # registers its CancellationToken.cancel, a process job the `set` of
        # the multiprocessing.Event its child polls.
        self._cancel_lock = threading.Lock()
        self._cancellers: Dict[str, Callable[[], None]] = {}
        # Thread-model jobs currently executing on this server (job id ->
        # worker id).  The dedicated heartbeat thread refreshes their store
        # heartbeats -- the worker thread itself is busy inside the search
        # -- so a peer server's stale sweep never mistakes a live thread
        # job for a dead one, while this process dying hard leaves the
        # heartbeat to go stale and the job to be rescued.  (Process-model
        # agents heartbeat from their own drain loops instead.)
        self._inflight: Dict[str, str] = {}
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
        if self.worker_model == "process":
            for index in range(self.workers):
                agent = ProcessWorkerAgent(self, index)
                agent.start()
                self._agents.append(agent)
        else:
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"repro-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._worker_threads.append(thread)
        self._sweeper_thread = threading.Thread(
            target=self._sweeper_loop, name="repro-sweeper", daemon=True
        )
        self._sweeper_thread.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

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
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5)
        # The heartbeat thread is gone, but in-flight thread jobs may run for a while
        # yet -- keep their heartbeats fresh while waiting, or a peer
        # server's stale sweep would "rescue" (re-run) jobs that are about
        # to finish right here.  (Process agents heartbeat from their own
        # drain loops until done.)
        deadline = time.monotonic() + 60
        for thread in self._worker_threads:
            while thread.is_alive() and time.monotonic() < deadline:
                thread.join(timeout=max(0.05, min(1.0, self.heartbeat_interval)))
                if thread.is_alive():
                    try:
                        self._sync_inflight()
                    except Exception:  # pragma: no cover - store unusable
                        break
        for agent in self._agents:
            agent.join(timeout=60)
        for agent in self._agents:
            if not agent.is_alive():
                agent.close()  # tear down the (now idle) child process
        workers_done = all(
            not thread.is_alive() for thread in self._worker_threads
        ) and all(not agent.is_alive() for agent in self._agents)
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

    def _worker_loop(self, index: int) -> None:
        worker_id = f"{self.worker_id_prefix}thread-{index}"
        while not self._stop_event.is_set():
            try:
                stored = self.store.claim_next(worker_id=worker_id)
            except sqlite3.ProgrammingError:
                return  # store closed mid-shutdown
            except Exception:
                # Transient (e.g. an exhausted busy timeout under heavy
                # multi-process contention): the claim loop must outlive it,
                # or worker capacity silently shrinks to zero.
                self._stop_event.wait(timeout=0.5)
                continue
            if stored is None:
                self._wakeup.wait(timeout=0.1)
                self._wakeup.clear()
                continue
            try:
                self._process(stored, worker_id)
            except sqlite3.ProgrammingError:
                return  # store closed mid-shutdown
            except Exception:
                # A finalisation write hit the same transient trouble the
                # claim above is hardened against; the job will be rescued
                # by the stale sweep, and this slot lives on.
                self._stop_event.wait(timeout=0.5)

    def _register_canceller(self, job_id: str, canceller: Callable[[], None]) -> None:
        """Register the hook `cancel_job` calls to trip *job_id*'s live search."""
        with self._cancel_lock:
            self._cancellers[job_id] = canceller

    def _unregister_canceller(self, job_id: str) -> None:
        with self._cancel_lock:
            self._cancellers.pop(job_id, None)

    def _finalize_result(
        self,
        stored: StoredJob,
        result: VerificationResult,
        cache_hit: bool,
        deadline_truncated: bool,
        started: float,
        owner: Optional[str] = None,
    ) -> None:
        """Land a finished job in the store (shared by both worker models).

        A cancelled run lands as terminal ``cancelled`` with its partial
        statistics (never cached); a ``deadline_ms``-truncated verdict stays
        on the job row only (``persist_result=False``), mirroring the
        decision to keep it out of the fingerprint-keyed cache.  ``owner``
        is the claiming worker id: the mark lands only while that worker
        still owns the claim, so a zombie whose job was rescued by a stale
        sweep (here or on a peer server) can never overwrite the live run's
        state.  A mark that does not land bumps no metrics.
        """
        if result.stats.cancelled:
            if self.store.mark_cancelled(stored.id, result.as_dict(), worker_id=owner):
                self.events.fire(
                    JobCancelled(job_id=stored.id, tenant_id=stored.tenant_id)
                )
            return
        if self.store.mark_done(
            stored.id,
            result.as_dict(),
            cache_hit=cache_hit,
            persist_result=not deadline_truncated,
            worker_id=owner,
        ):
            self.events.fire(
                JobCompleted(
                    job_id=stored.id,
                    data={
                        "seconds": time.monotonic() - started,
                        "cache_hit": cache_hit,
                    },
                    tenant_id=stored.tenant_id,
                )
            )

    def _start_job_spans(
        self, stored: StoredJob, worker_id: Optional[str]
    ) -> Optional[Span]:
        """Record the job's ``queue.wait`` span and open ``worker.execute``.

        Returns the open execute span (``None`` when tracing is off or the
        job carries no trace).  The queue wait happened before any traced
        code ran, so it is recorded retroactively from the store's
        ``submitted_at``/``started_at`` stamps.
        """
        if not self.tracer.enabled or stored.trace_id is None:
            return None
        claimed_at = stored.started_at if stored.started_at is not None else time.time()
        self.tracer.record_span(
            "queue.wait",
            trace_id=stored.trace_id,
            parent_id=stored.parent_span,
            start_time=stored.submitted_at,
            duration=claimed_at - stored.submitted_at,
            job_id=stored.id,
        )
        parent = (
            TraceContext(stored.trace_id, stored.parent_span)
            if stored.parent_span
            else None
        )
        return self.tracer.start_span(
            "worker.execute",
            parent=parent,
            trace_id=stored.trace_id,
            job_id=stored.id,
            worker_id=worker_id,
        )

    def _process(self, stored: StoredJob, worker_id: Optional[str] = None) -> None:
        started = time.monotonic()
        execute_span = self._start_job_spans(stored, worker_id)
        # The token's external backend re-polls the store's persisted
        # cancel_requested flag (rate-limited -- it is a SQL read), so a
        # DELETE accepted by *another server* sharing the store stops this
        # thread-model search within cancel_poll_interval.
        token = CancellationToken(
            external=RateLimitedPoll(
                lambda: self.store.is_cancel_requested(stored.id),
                interval=self.cancel_poll_interval,
            )
        )
        if stored.deadline_ms is not None:
            token.tighten_deadline(stored.deadline_ms / 1000.0)
        self._register_canceller(stored.id, token.cancel)
        if worker_id is not None:
            with self._cancel_lock:
                self._inflight[stored.id] = worker_id
        try:
            # A cancel accepted between the claim and the registration above
            # only reached the store; fold it into the live token now.
            if self.store.is_cancel_requested(stored.id):
                token.cancel()
            try:
                result, cache_hit, deadline_truncated = self._execute(
                    stored, token, deadline_ms_binding(stored), execute_span
                )
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                if execute_span is not None:
                    execute_span.set_error(message)
                if self.store.mark_error(stored.id, message, worker_id=worker_id):
                    self.events.fire(
                        JobFailed(
                            job_id=stored.id,
                            data={"error": message},
                            tenant_id=stored.tenant_id,
                        )
                    )
                return
            if execute_span is not None:
                execute_span.set_attr("cache_hit", cache_hit)
                if result.stats.cancelled:
                    execute_span.set_error("search cancelled", reason="cancelled")
            self._finalize_result(
                stored, result, cache_hit, deadline_truncated, started, owner=worker_id
            )
        finally:
            if execute_span is not None:
                self.tracer.finish(execute_span)
            self._unregister_canceller(stored.id)
            with self._cancel_lock:
                self._inflight.pop(stored.id, None)

    def _execute(
        self,
        stored: StoredJob,
        token: CancellationToken,
        deadline_binding: bool,
        execute_span: Optional[Span] = None,
    ) -> Tuple[VerificationResult, bool, bool]:
        """Run one claimed job: cache lookup, then a cancellable search.

        Returns ``(result, cache_hit, deadline_truncated)``; the last flag is
        the single source of truth for "this verdict was cut short by the
        job-level deadline_ms", used both here (skip the cache) and by
        ``_process`` (keep the result off the fingerprint-keyed table).

        Progress events stream into the store's per-job event log as the
        search runs, so ``GET /v1/jobs/<id>/events`` observes them live (the
        log is the only consumer, so no in-memory session buffer is kept).
        """
        job = stored.to_job()
        cached = self.cache.get(job.fingerprint)
        if cached is not None:
            self.events.fire(
                CacheServed(
                    job_id=stored.id,
                    data={"outcome": cached.outcome.value, "cache_hit": True},
                    tenant_id=stored.tenant_id,
                )
            )
            return cached, True, False
        self.events.fire(
            VerificationStarted(job_id=stored.id, tenant_id=stored.tenant_id)
        )
        traced: Dict[str, Any] = {}
        if execute_span is not None:
            # Per-phase hot-loop attribution plus nested verify.* spans,
            # parented under this worker's execute span.
            traced = {
                "phase_timer": PhaseTimer(),
                "trace": TraceScope(
                    self.tracer, parent=execute_span.context(), job_id=stored.id
                ),
            }
        control = SearchControl(
            token=token,
            event_sink=self.events.progress_sink(stored.id, trace_id=stored.trace_id),
            progress_interval=self.progress_interval,
            **traced,
        )
        result = Verifier(job.system(), job.options()).verify(job.ltl_property(), control)
        # Results truncated by job-level limits that are NOT part of the
        # content fingerprint (cancellation, a binding deadline_ms) must
        # never enter the fingerprint-keyed cache: a later job with the same
        # inputs but no such limit would be served the partial UNKNOWN
        # verdict forever.  Timeouts from the fingerprinted
        # options.timeout_seconds remain cacheable, as before.
        deadline_truncated = deadline_binding and result.stats.timed_out
        if not result.stats.cancelled and not deadline_truncated:
            self.cache.put(job.fingerprint, result)
        return result, False, deadline_truncated

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
                # stopped): a dead process-worker agent, a SIGKILL'd peer
                # server, a dead thread-model server.  Anonymous claims
                # carry no heartbeat and are never touched.
                stale = self.store.requeue_stale(self.stale_heartbeat_seconds)
                if stale:
                    self.events.fire(StaleJobsRequeued(data={"count": stale}))
                    self._wakeup.set()
            except sqlite3.ProgrammingError:  # store closed mid-shutdown
                return
            except Exception:
                # Transient store trouble (e.g. a busy timeout exhausted
                # under heavy multi-process write contention) must not kill
                # the sweeper: the next pass simply retries.
                continue
            if swept["jobs"]:
                self.events.fire(SweepCompleted(data=swept))

    def _heartbeat_loop(self) -> None:
        # A dedicated thread, deliberately NOT the sweeper: it is the only
        # heartbeat source for this server's thread-model claims, and a
        # long sweep (a contended write, a big expiry DELETE) must not
        # starve local heartbeats past the peers' staleness window.
        while not self._stop_event.wait(timeout=self.heartbeat_interval):
            try:
                self._sync_inflight()
            except sqlite3.ProgrammingError:  # store closed mid-shutdown
                return
            except Exception:  # transient: retry next tick
                continue

    def _sync_inflight(self) -> None:
        """Heartbeat this server's thread-model jobs and fold store-side
        cancels (e.g. a DELETE handled by a peer server) into their tokens."""
        with self._cancel_lock:
            inflight = dict(self._inflight)
        for job_id, worker_id in inflight.items():
            try:
                owned, cancel_requested = self.store.touch_claim(job_id, worker_id)
            except sqlite3.ProgrammingError:
                raise  # store closed: let the caller's shutdown path handle it
            except Exception:
                continue  # contended tick: this job's claim retries next pass
            if owned and not cancel_requested:
                continue
            # Cancelled through the store, or the claim was rescued from us:
            # either way the search should unwind now (its late mark would
            # bounce off the ownership predicate anyway).
            with self._cancel_lock:
                canceller = self._cancellers.get(job_id)
                if canceller is not None:
                    canceller()

    # -------------------------------------------------------------------- views

    def authenticate(self, authorization: Optional[str]) -> Optional[Tenant]:
        """Resolve an ``Authorization`` header to a tenant (the front door).

        With auth disabled this always returns ``None`` (anonymous) without
        looking at the header.  With auth enabled, a missing, non-Bearer,
        malformed or unknown key raises :class:`~repro.tenancy.AuthFailure`
        with status 401; a valid key of a revoked tenant raises it with 403.
        The handler maps the failure to the matching JSON error response.
        """
        if not self.auth_enabled:
            return None
        try:
            if not authorization:
                raise AuthFailure(
                    401, "missing Authorization header (expected 'Bearer <api-key>')"
                )
            scheme, _, key = authorization.partition(" ")
            key = key.strip()
            if scheme.lower() != "bearer" or not key:
                raise AuthFailure(
                    401, "malformed Authorization header (expected 'Bearer <api-key>')"
                )
            tenant = self.tenants.resolve(key)
            if tenant is None:
                raise AuthFailure(401, "unknown API key")
            if tenant.revoked:
                raise AuthFailure(403, "API key has been revoked")
        except AuthFailure:
            self.metrics.increment("auth_failures")
            raise
        return tenant

    def submit_payload(
        self,
        payload: Any,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        tenant: Optional[Tenant] = None,
    ) -> Dict[str, Any]:
        """Validate a ``POST /v1/jobs`` payload and enqueue one job per property.

        The payload mirrors the spec-bundle document format (same
        ``schema_version`` rules): a ``system`` section plus either one
        ``property`` or a list of ``properties``, and optional ``options``,
        ``label``, ``ttl_seconds`` (expire the job record that long after it
        finishes) and ``deadline_ms`` (bound the search's wall-clock run
        time).  Inputs are canonicalised through the spec codecs, so
        fingerprints match jobs built anywhere else (CLI, Python API).

        ``trace_id``/``parent_span`` put the accepted jobs into a
        distributed trace (the HTTP handler passes the ``http.submit``
        span's context; every property of one POST shares it).  With
        tracing on and no incoming context, a fresh root trace is minted so
        programmatic submissions trace too.

        ``tenant`` is the authenticated submitter (``None`` = anonymous):
        its jobs are tenant-stamped for fair-share claiming and scoped
        listing, and its rate limit / in-flight quota are enforced here
        (:class:`ThrottledError` -> 429).  An optional integer ``priority``
        field (-100..100, default 0) orders jobs *within* the submitter's
        backlog; cross-tenant ordering is weight-based, so priority is not
        a queue-jumping lever against other tenants.
        """
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"job payload must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version", 1)
        if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
            raise SpecVersionError(version, SCHEMA_VERSION)
        system_data = payload.get("system")
        if system_data is None:
            raise SpecError("job payload has no 'system' section")
        system = load_system(system_data)
        system_dict = dump_system(system)

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
        system_diagnostics, _ = analyze_system(system)
        property_diagnostics = [
            analyze_property(system, p) for p in loaded_properties
        ]
        errors = [
            d
            for diagnostics in [system_diagnostics] + property_diagnostics
            for d in diagnostics
            if d.is_error
        ]
        if errors:
            self.metrics.increment("specs_rejected")
            for code in sorted({d.code for d in errors}):
                self.metrics.increment(f"specs_rejected_{code.lower()}")
            raise SpecRejectedError(errors)
        system_warnings = [d for d in system_diagnostics if not d.is_error]
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
            options = self.service.default_options
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
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise SpecError("'priority' must be an integer")
        if not -100 <= priority <= 100:
            raise SpecError("'priority' must be between -100 and 100")

        jobs = [
            VerificationJob(
                system_dict=system_dict,
                property_dict=dump_property(loaded_property),
                options_dict=options_dict,
                label=label,
            )
            for loaded_property in loaded_properties
        ]
        if trace_id is None and self.tracer.enabled:
            trace_id = new_trace_id()
        tenant_id = tenant.id if tenant is not None else None
        if tenant is not None:
            # Tenant policy gates, before any job row is written.  The rate
            # limiter charges one token per job in the payload; the pending
            # quota is preflighted for the whole batch here (and enforced
            # atomically per job below, against racing submitters).
            retry_after = self.rate_limiter.check(tenant, tokens=float(len(jobs)))
            if retry_after > 0:
                self.events.fire(
                    TenantThrottled(
                        tenant_id=tenant_id,
                        data={"tenant": tenant_id, "retry_after": retry_after},
                    )
                )
                raise ThrottledError(
                    f"tenant {tenant.name!r} is over its submit rate limit"
                    f" ({tenant.rate_limit}/s); retry in {retry_after:.2f}s",
                    retry_after=retry_after,
                    reason="rate_limit",
                )
            if tenant.max_pending is not None:
                pending = self.store.pending_count(tenant_id)
                if pending + len(jobs) > tenant.max_pending:
                    self.events.fire(
                        QuotaExceeded(
                            tenant_id=tenant_id,
                            data={
                                "tenant": tenant_id,
                                "pending": pending,
                                "limit": tenant.max_pending,
                            },
                        )
                    )
                    raise ThrottledError(
                        f"tenant {tenant.name!r} has {pending} jobs in flight;"
                        f" accepting {len(jobs)} more would exceed its quota"
                        f" of {tenant.max_pending}",
                        retry_after=1.0,
                        reason="quota",
                    )
        accepted = []
        for job, warnings in zip(jobs, job_warnings):
            try:
                stored = self.store.submit(
                    job,
                    label=label,
                    ttl_seconds=ttl_seconds,
                    deadline_ms=deadline_ms,
                    trace_id=trace_id,
                    parent_span=parent_span,
                    tenant_id=tenant_id,
                    priority=priority,
                    pending_limit=(
                        tenant.max_pending if tenant is not None else None
                    ),
                    warnings=warnings or None,
                )
            except PendingQuotaExceeded as error:
                # A racing submitter consumed the preflighted headroom
                # mid-batch; earlier jobs of this POST stay accepted.
                self.events.fire(
                    QuotaExceeded(
                        tenant_id=tenant_id,
                        data={
                            "tenant": tenant_id,
                            "pending": error.pending,
                            "limit": error.limit,
                        },
                    )
                )
                if accepted:
                    self._wakeup.set()
                raise ThrottledError(
                    str(error),
                    retry_after=1.0,
                    reason="quota",
                    accepted=accepted,
                ) from error
            self.events.fire(
                JobSubmitted(
                    job_id=stored.id,
                    data={"fingerprint": stored.fingerprint},
                    trace_id=trace_id,
                    tenant_id=tenant_id,
                )
            )
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
        self._wakeup.set()
        return {"jobs": accepted}

    def _visible_job(
        self, job_id: str, tenant_id: Optional[str]
    ) -> Optional[StoredJob]:
        """The job, if *tenant_id* may see it.

        Tenant scoping deliberately conflates "no such job" with "someone
        else's job": both come back ``None`` (the handler's 404), so a
        tenant probing ids learns nothing about other tenants' workloads.
        ``tenant_id=None`` is the unscoped (anonymous / auth-off) view.
        """
        stored = self.store.get_job(job_id)
        if stored is None:
            return None
        if tenant_id is not None and stored.tenant_id != tenant_id:
            return None
        return stored

    def job_view(
        self, job_id: str, tenant_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>`` body: status, plus the result when done.

        Cancelled jobs surface their partial ``UNKNOWN`` result (stored on
        the job row) through the same ``result`` key.
        """
        stored = self._visible_job(job_id, tenant_id)
        if stored is None:
            return None
        result = None
        if stored.status == "done":
            # Status polling must not skew the cache-effectiveness counters.
            result = self.store.get_result(stored.fingerprint, count=False)
        return stored.as_dict(result=result)

    def cancel_job(
        self, job_id: str, tenant_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The ``DELETE /v1/jobs/<id>`` body: cooperative cancellation.

        Queued jobs become ``cancelled`` immediately; running jobs get their
        canceller tripped -- the thread model cancels the in-process token,
        the process model sets the ``multiprocessing.Event`` the child's
        token polls, so the search unwinds at its next loop iteration on
        either side of the process boundary -- and land as ``cancelled``
        with partial statistics; already terminal jobs (and repeated
        DELETEs) are reported unchanged -- the store appends the ``cancel``
        event and bumps nothing twice.
        """
        if tenant_id is not None and self._visible_job(job_id, tenant_id) is None:
            # Cross-tenant DELETE: indistinguishable from an unknown id.
            return None
        outcome = self.store.request_cancel(job_id)
        if outcome is None:
            return None
        disposition, fresh = outcome
        if disposition == "cancelling":
            # Idempotent and racing-registration-safe: both worker models
            # re-check the persisted flag after registering their canceller.
            # The canceller is invoked *under* the lock: a process worker's
            # canceller is its agent's per-child Event.set, and firing a
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
        tenant_id: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>/events`` body: incremental event polling.

        Clients pass back the returned ``cursor`` to receive only newer
        events; ``terminal`` tells them when to stop polling.
        """
        stored = self._visible_job(job_id, tenant_id)
        if stored is None:
            return None
        events = self.store.events_after(job_id, cursor=cursor, limit=limit)
        next_cursor = events[-1]["seq"] if events else cursor
        return {
            "id": job_id,
            "status": stored.status,
            "events": events,
            "cursor": next_cursor,
            "terminal": stored.status in TERMINAL_STATUSES,
        }

    def events_view_wait(
        self,
        job_id: str,
        cursor: int = 0,
        limit: int = 500,
        wait_ms: int = 0,
        tenant_id: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """:meth:`events_view`, but blocking up to *wait_ms* for news.

        Returns immediately when the page already has events, the job is
        terminal (nothing more will ever arrive), or the job is unknown.
        Otherwise the handler thread subscribes to the in-process broker and
        sleeps until a store commit touches the job -- re-reading the cursor
        at least every :attr:`push_fallback_interval` regardless, which is
        what bounds delivery of events written by *other* servers sharing
        the store.  A deadline hit returns the (empty) page: long-polling is
        plain polling with the dead time pushed server-side.
        """
        wait_ms = max(0, min(int(wait_ms), self.long_poll_max_ms))
        view = self.events_view(job_id, cursor=cursor, limit=limit, tenant_id=tenant_id)
        if view is None or view["events"] or view["terminal"] or wait_ms == 0:
            return view
        deadline = time.monotonic() + wait_ms / 1000.0
        # Subscribe BEFORE re-reading: a write landing between the read and
        # the wait bumps the subscription's generation, so the next wait()
        # returns at once instead of sleeping out the interval.
        with self.broker.subscription(job_id) as subscription:
            while True:
                view = self.events_view(
                    job_id, cursor=cursor, limit=limit, tenant_id=tenant_id
                )
                if view is None or view["events"] or view["terminal"]:
                    return view
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return view
                subscription.wait(min(remaining, self.push_fallback_interval))

    def jobs_view(
        self,
        status: Optional[str] = None,
        limit: int = 100,
        ids: Optional[List[str]] = None,
        tenant_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The ``GET /v1/jobs`` body.

        With ``ids`` (repeated ``?id=`` query params) this is the *batch
        status view*: one round-trip returns the listed jobs -- including
        each done job's result, so a waiting client needs no follow-up GET
        per job -- with unknown ids simply absent (and another tenant's ids
        deliberately indistinguishable from unknown ones).  Without ``ids``
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
                if tenant_id is not None and stored.tenant_id != tenant_id:
                    continue
                if status is not None and stored.status != status:
                    continue
                result = None
                if stored.status == "done":
                    result = self.store.get_result(stored.fingerprint, count=False)
                views.append(stored.as_dict(result=result))
            return {"jobs": views}
        return {
            "jobs": [
                stored.as_dict()
                for stored in self.store.list_jobs(status, limit, tenant_id=tenant_id)
            ],
            "counts": self.store.counts(tenant_id=tenant_id),
        }

    def metrics_view(self) -> Dict[str, Any]:
        cache = self.cache.statistics()
        lookups = cache["hits"] + cache["misses"]
        served_from_cache = cache["hits"] + cache["store_hits"]
        counts = self.store.counts()
        view = {
            **self.metrics.snapshot(),
            "queue": {
                "depth": counts["queued"],
                "running": counts["running"],
                "jobs": counts,
            },
            "cache": {
                **cache,
                "hit_rate": (served_from_cache / lookups) if lookups else None,
            },
            "recovery": self.recovery.as_dict(),
            "workers": self.workers_view(),
            "store_path": self.store.path,
        }
        tenants = self.tenants_metrics_view()
        if tenants:
            view["tenants"] = tenants
        if self.auth_enabled:
            view["auth_enabled"] = True
        return view

    def tenants_metrics_view(self) -> Dict[str, Any]:
        """The per-tenant section of ``/v1/metrics``.

        One entry per tenant that owns jobs (store-wide state) or tripped a
        counter on *this* server; anonymous traffic is excluded -- the
        global counters already describe it.  Empty (and the ``tenants``
        key absent) on an auth-off server with no tenant-stamped jobs, so
        pre-tenancy consumers see an unchanged document.
        """
        job_counts = self.store.tenant_job_counts()
        job_counts.pop("", None)  # anonymous: covered by the global view
        counters = self.metrics.tenant_counters()
        tenant_ids = set(job_counts) | set(counters)
        if not tenant_ids:
            return {}
        names = {tenant.id: tenant.name for tenant in self.tenants.list()}
        section: Dict[str, Any] = {}
        for tenant_id in sorted(tenant_ids):
            entry: Dict[str, Any] = {}
            if tenant_id in names:
                entry["name"] = names[tenant_id]
            if tenant_id in job_counts:
                entry["jobs"] = job_counts[tenant_id]
            if tenant_id in counters:
                entry["counters"] = counters[tenant_id]
            section[tenant_id] = entry
        return section

    def trace_view(
        self, job_id: str, tenant_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The ``GET /v1/jobs/<id>/trace`` body: the job's full span tree.

        The trace is keyed by the *trace id* on the job row, so it includes
        spans recorded by other parties -- the submitting server's
        ``http.submit``, a peer server's ``worker.execute`` in a
        shared-store deployment -- not just this process's.  An untraced
        job returns an empty span list (200, not 404: the job exists).
        """
        stored = self._visible_job(job_id, tenant_id)
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

        A thread slot is alive when its thread runs.  A process slot is
        alive when its agent thread runs and its child is alive or not
        spawned yet: a process pool spawns its children lazily, on the first
        claimed job, so a fresh idle pool is ready (see ``pool_snapshot``).
        """
        store_ok = self.store.ping()
        checks: Dict[str, Any] = {
            "store": {"ok": store_ok, "path": self.store.path},
        }

        if self.workers <= 0:
            workers_alive, workers_total = 0, 0
            workers_ok = True  # an API-only server is ready without workers
        elif self.worker_model == "process" and self._agents:
            workers_alive, workers_total = pool_snapshot(self._agents)
            workers_ok = workers_alive > 0
        else:
            workers_total = len(self._worker_threads)
            workers_alive = sum(
                1 for thread in self._worker_threads if thread.is_alive()
            )
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
