"""The verification server's worker pipeline: one agent per slot, two runners.

Each worker slot is a :class:`WorkerAgent`, a daemon thread in the server
process that runs the slot's claim loop:

* **claim** a job from the SQLite :class:`~repro.server.store.JobStore`
  (``claim_next(worker_id=...)`` stamps ``claimed_by`` and a first
  heartbeat);
* **dispatch** the job to the slot's *runner* over a duplex connection, as
  plain spec dicts (the same picklable shape
  :func:`repro.service.engine._verify_job_dicts` uses);
* **drain** the runner's messages -- progress events and finished trace
  spans go onto the event bus, so ``GET /v1/jobs/<id>/events`` observes the
  search live -- while *syncing* the claim with the store once per
  heartbeat interval (:meth:`~repro.server.store.JobStore.touch_claim`);
* **release** the job when the runner died mid-job, else **finalise** it
  (the persisted verdict completes the fingerprint's ``queued`` twins).

A fingerprint with a stored verdict never reaches an agent: its job
completes inside the ``POST /v1/jobs`` transaction.

The runner executes :func:`process_worker_main`: it rebuilds the model, runs
the cancellable search and sends the result back.  The two worker models
differ only in what runs that function (:meth:`WorkerAgent._start_runner`):

* ``process`` -- a spawned child process, over a ``multiprocessing`` pipe
  and Event.  Searches run truly in parallel (Spin's multi-core swarm
  shape).
* ``thread`` -- a daemon thread in the server process, over an in-process
  pipe and a ``threading.Event``.  Always available; searches share the GIL.

The claim sync refreshes the heartbeat only while the agent still owns the
claim, so :meth:`~repro.server.store.JobStore.requeue_stale` (run by
whichever server holds the sweeper lease) can rescue the jobs of a dead
agent, and a zombie agent whose job was already rescued cannot keep it
alive.  The sync also reads back the persisted ``cancel_requested`` flag,
so a ``DELETE`` accepted by **any server sharing the store** stops the
runner within one heartbeat interval.  A ``DELETE`` handled by this server
sets the runner's cancel event at once: the runner's
:class:`~repro.core.control.CancellationToken` polls it (the token's
*external* backend) once per search-loop iteration, and the partial
statistics travel back like any other result.

A runner lives until the server stops or it dies: none is recycled.  One
that dies mid-job (a child's segfault, OOM-kill or ``SIGKILL``) is detected
by the agent: its job is released back to the queue through the recovery
semantics of a server restart (requeue -- unless its cancellation was
already requested, then it is finalised ``cancelled``), and a fresh runner
starts for the next job.  Child processes use the ``spawn`` start method
everywhere: no fork-inherited locks.
"""

from __future__ import annotations

import multiprocessing
import sqlite3
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.control import CancellationToken, PhaseTimer, SearchControl
from repro.core.verifier import VerificationResult, Verifier
from repro.events import (
    JobCancelled,
    JobCompleted,
    JobFailed,
    SearchEvent,
    SpanRecorded,
    VerificationStarted,
    WorkerCrashed,
)
from repro.obs import Span, TraceContext, TraceScope, Tracer
from repro.service.jobs import VerificationJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports us)
    from repro.server.app import VerificationServer
    from repro.server.store import StoredJob

#: The multiprocessing start method.  ``spawn`` is the only start method that
#: is safe under threads on every platform (``fork`` duplicates a
#: mid-transaction SQLite lock or a held logging lock into the child).
START_METHOD = "spawn"

#: Worker-id stem per worker model (``"<prefix>proc-0"``, ``"<prefix>thread-0"``).
_WORKER_ID_STEMS = {"process": "proc", "thread": "thread"}


def deadline_ms_binding(stored: "StoredJob") -> bool:
    """Whether a timeout should be blamed on the job-level ``deadline_ms``.

    ``deadline_ms`` is a job-level limit *outside* the content fingerprint,
    so a verdict it truncates must never enter the fingerprint-keyed result
    cache; ``options.timeout_seconds`` is fingerprinted and hence safe to
    cache.  ``deadline_ms`` is the binding limit when it is the sooner of
    the two.
    """
    options_timeout = stored.options_dict.get("timeout_seconds")
    return stored.deadline_ms is not None and (
        options_timeout is None or stored.deadline_ms / 1000.0 <= options_timeout
    )


# -------------------------------------------------------------------- runner


def process_worker_main(conn, cancel_event) -> None:
    """Runner entry point: verify tasks from the connection until told to stop.

    Must stay a module-level function (picklable by reference under
    ``spawn``) and exchange only JSON-compatible payloads.  One message in
    (``None`` to exit, else a task dict), a stream of messages out::

        ("event", kind, data)     # progress events, relayed to the store
        ("span", span_dict)       # finished trace spans (traced tasks only)
        ("done", result_dict)     # the serialized VerificationResult
        ("error", message)        # the search raised

    ``cancel_event`` is the cancellation backend (a ``multiprocessing`` or
    ``threading`` Event): the token polls it cooperatively once per
    search-loop iteration, so a cancel set by the agent stops the search
    within one iteration.  The runner closes its end of ``conn`` on exit.
    """
    with conn:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):  # parent died or closed the pipe
                return
            if task is None:
                return
            try:
                conn.send(("done", _run_task(task, conn, cancel_event)))
            except Exception as error:  # noqa: BLE001 - report, don't die
                try:
                    conn.send(("error", f"{type(error).__name__}: {error}"))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    return


def _run_task(task: Dict[str, Any], conn, cancel_event) -> Dict[str, Any]:
    """Run one verification task dict; returns the serialized result."""
    job = VerificationJob(
        system_dict=task["system"],
        property_dict=task["property"],
        options_dict=task["options"],
    )
    token = CancellationToken(external=cancel_event.is_set)
    deadline_ms = task.get("deadline_ms")
    if deadline_ms is not None:
        token.tighten_deadline(deadline_ms / 1000.0)

    def relay(event) -> None:
        # SearchControl.emit swallows sink exceptions, so a dead pipe can
        # never kill the search; the agent notices the crash separately.
        conn.send(("event", event.kind, dict(event.data)))

    # Traced tasks carry their context to the runner in the task dict; the
    # runner keeps its own short-lived tracer whose exporter relays finished
    # spans over the connection (Tracer.finish swallows exporter errors, so
    # a dying pipe cannot kill the search either).
    traced: Dict[str, Any] = {}
    trace = task.get("trace")
    if trace:
        tracer = Tracer(
            enabled=True, exporter=lambda span: conn.send(("span", span.as_dict()))
        )
        parent = (
            TraceContext(trace["trace_id"], trace["parent_span"])
            if trace.get("parent_span")
            else None
        )
        traced = {
            "phase_timer": PhaseTimer(),
            "trace": TraceScope(tracer, parent=parent, job_id=trace.get("job_id")),
        }

    control = SearchControl(
        token=token,
        event_sink=relay,
        progress_interval=task.get("progress_interval", 500),
        **traced,
    )
    result = Verifier(job.system(), job.options()).verify(job.ltl_property(), control)
    return result.as_dict()


def probe_process_support() -> Optional[str]:
    """Spawn-and-join one trivial child; the error string if that fails.

    Mirrors :mod:`repro.service.engine`'s ``BrokenProcessPool`` degradation:
    sandboxes without a working ``spawn`` (no ``/dev/shm`` semaphores, no
    ``fork``/``exec``) make the server fall back to thread workers instead
    of failing to start.
    """
    try:
        context = multiprocessing.get_context(START_METHOD)
        probe = context.Process(target=_probe_main, daemon=True)
        probe.start()
        probe.join(timeout=60)
        if probe.exitcode != 0:
            if probe.is_alive():  # pragma: no cover - wedged spawn
                probe.terminate()
                probe.join(timeout=5)
            return f"probe child exited with {probe.exitcode}"
        return None
    except Exception as error:  # noqa: BLE001 - any failure means "no processes"
        return f"{type(error).__name__}: {error}"


def _probe_main() -> None:  # pragma: no cover - runs in a child process
    """A no-op child proving process creation works in this environment."""


class _ThreadRunner(threading.Thread):
    """A thread-model runner, with the part of the ``Process`` API the agent uses."""

    pid = None
    exitcode = None

    def terminate(self) -> None:
        """A thread cannot be killed; a stuck runner dies with the server."""


# --------------------------------------------------------------------- agent


class WorkerAgent(threading.Thread):
    """One worker slot: the claim loop, running each job on the slot's runner.

    The agent is the only user of its runner's connection, so no
    cross-thread pipe locking is needed.
    """

    def __init__(self, server: "VerificationServer", index: int):
        # The server-id prefix makes the claim attributable in shared-store
        # deployments: startup recovery requeues only own-prefix claims, and
        # operators can read `claimed_by` to see which server runs a job.
        stem = _WORKER_ID_STEMS[server.worker_model]
        self.worker_id = f"{server.worker_id_prefix}{stem}-{index}"
        super().__init__(name=f"repro-agent-{index}", daemon=True)
        self.server = server
        self.runner: Optional[Any] = None  # a Process or a _ThreadRunner
        self._conn = None  # the agent's end of the duplex pipe
        self._cancel_event = None
        self._start_failures = 0
        server.metrics.worker_gauges.update(
            self.worker_id, state="idle", model=server.worker_model
        )

    # ------------------------------------------------------------- lifecycle

    def _start_runner(self) -> None:
        """Start a fresh runner: the one place the two worker models differ."""
        if self.server.worker_model == "process":
            context = multiprocessing.get_context(START_METHOD)
            conn, runner_conn = context.Pipe(duplex=True)
            cancel_event = context.Event()
            runner = context.Process(
                target=process_worker_main,
                args=(runner_conn, cancel_event),
                name=f"repro-worker-{self.worker_id}",
                daemon=True,
            )
        else:
            conn, runner_conn = multiprocessing.Pipe(duplex=True)
            cancel_event = threading.Event()
            runner = _ThreadRunner(
                target=process_worker_main,
                args=(runner_conn, cancel_event),
                name=f"repro-worker-{self.worker_id}",
                daemon=True,
            )
        try:
            runner.start()
        except BaseException:
            # A failed start must not leak the fresh pipe fds: the agent's
            # claim loop retries indefinitely on EAGAIN-style failures.
            conn.close()
            runner_conn.close()
            raise
        if self.server.worker_model == "process":
            runner_conn.close()  # the child holds its own copy
        self.runner = runner
        self._conn = conn
        self._cancel_event = cancel_event
        self.server.metrics.worker_gauges.update(self.worker_id, pid=runner.pid)

    def _close_pipes(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass
        self._conn = None
        self.runner = None

    def _stop_runner(self) -> None:
        """Stop the current runner: sentinel first, terminate if it lingers."""
        if self.runner is None:
            return
        if self.runner.is_alive() and self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if self.runner.is_alive():
            self.runner.join(timeout=2)
        if self.runner.is_alive():
            self.runner.terminate()
            self.runner.join(timeout=5)
        self._close_pipes()

    def close(self) -> None:
        """Stop the runner (called by the server after the agent joined)."""
        self._stop_runner()
        self.server.metrics.worker_gauges.update(
            self.worker_id, state="stopped", pid=None, current_job=None
        )

    # ------------------------------------------------------------ claim loop

    def run(self) -> None:
        while not self.server._stop_event.is_set():
            try:
                stored = self.server.store.claim_next(worker_id=self.worker_id)
            except sqlite3.ProgrammingError:  # store closed mid-shutdown
                return
            except Exception:
                # Transient store trouble (e.g. busy timeout exhausted):
                # keep the slot alive, retry shortly.
                time.sleep(0.5)
                continue
            if stored is None:
                self.server._wakeup.wait(timeout=0.1)
                self.server._wakeup.clear()
                continue
            try:
                self._run_job(stored)
                self._start_failures = 0
            except Exception:  # noqa: BLE001 - agent must survive anything
                # Most likely a failed (re)start: hand the job back and back
                # off (monotonic sleep; wall-clock steps cannot starve us).
                self._start_failures += 1
                try:
                    self.server.store.release(stored.id, self.worker_id)
                except Exception:  # pragma: no cover - store closed
                    return
                time.sleep(min(5.0, 0.25 * (2 ** min(self._start_failures, 5))))

    # ------------------------------------------------------------- execution

    def _run_job(self, stored: "StoredJob") -> None:
        server = self.server
        started = time.monotonic()
        gauges = server.metrics.worker_gauges
        gauges.update(self.worker_id, state="busy", current_job=stored.id)
        # The agent owns the job's worker.execute span: a child process may
        # be SIGKILL'd mid-search, and a dead process cannot close its own
        # spans -- the agent closes this one with an error status instead.
        execute_span = self._start_job_spans(stored)
        try:
            if self.runner is None or not self.runner.is_alive():
                self._close_pipes()  # no runner yet, or it died
                self._start_runner()
            self._cancel_event.clear()  # a late cancel of the previous job
            server._register_canceller(stored.id, self._cancel_event.set)
            try:
                # A cancel accepted between the claim and the registration
                # above only reached the store; fold it into the event now.
                if server.store.is_cancel_requested(stored.id):
                    self._cancel_event.set()
                server.events.fire(VerificationStarted(job_id=stored.id))
                task = {
                    "system": stored.system_dict,
                    "property": stored.property_dict,
                    "options": stored.options_dict,
                    "deadline_ms": stored.deadline_ms,
                    "progress_interval": server.progress_interval,
                }
                if execute_span is not None:
                    # The runner's verify.* spans parent under this agent's
                    # execute span, crossing the pipe as plain dict context.
                    task["trace"] = {
                        "trace_id": execute_span.trace_id,
                        "parent_span": execute_span.span_id,
                        "job_id": stored.id,
                    }
                self._conn.send(task)
                outcome = self._drain(stored, started, execute_span)
            finally:
                server._unregister_canceller(stored.id)
            if outcome == "crashed":
                if execute_span is not None:
                    execute_span.set_error(
                        "worker process died mid-job", reason="worker-crashed"
                    )
                self._handle_crash(stored)
            elif outcome == "done":
                gauges.increment(self.worker_id, "jobs_completed")
        finally:
            if execute_span is not None:
                server.tracer.finish(execute_span)
            gauges.update(self.worker_id, state="idle", current_job=None)

    def _start_job_spans(self, stored: "StoredJob") -> Optional[Span]:
        """Record the job's ``queue.wait`` span and open ``worker.execute``.

        Returns the open execute span (``None`` when tracing is off or the
        job carries no trace).  The queue wait happened before any traced
        code ran, so it is recorded retroactively from the store's
        ``submitted_at``/``started_at`` stamps.
        """
        tracer = self.server.tracer
        if not tracer.enabled or stored.trace_id is None:
            return None
        claimed_at = stored.started_at if stored.started_at is not None else time.time()
        tracer.record_span(
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
        return tracer.start_span(
            "worker.execute",
            parent=parent,
            trace_id=stored.trace_id,
            job_id=stored.id,
            worker_id=self.worker_id,
        )

    def _drain(
        self, stored: "StoredJob", started: float, execute_span=None
    ) -> str:
        """Pump runner messages into the store until the job reaches an end.

        Returns ``"done"``, ``"error"`` or ``"crashed"``.  Once per
        ``heartbeat_interval`` the agent *syncs* the claim with the store
        (one transaction): the heartbeat is refreshed only while this worker
        still owns the claim, and the persisted ``cancel_requested`` flag is
        read back -- so a ``DELETE`` handled by **another server** sharing
        the store stops this runner within one heartbeat interval, and a
        claim rescued by a peer's stale sweeper makes this agent abandon the
        (now zombie) run instead of keeping it alive.
        """
        server = self.server
        last_sync = time.monotonic()
        while True:
            try:
                if self._conn.poll(timeout=0.1):
                    message = self._conn.recv()
                else:
                    message = None
            except (EOFError, OSError):
                return "crashed"
            if message is not None:
                kind = message[0]
                if kind == "event":
                    # Onto the bus as a lossy SearchEvent: the StoreSink
                    # appends it under the short fail-fast busy timeout and
                    # drops it on contention -- dropping a progress event
                    # beats blocking this thread past the staleness window
                    # (it also runs the job's heartbeats).
                    server.events.fire(
                        SearchEvent(
                            job_id=stored.id,
                            data=message[2],
                            kind=message[1],
                            trace_id=stored.trace_id,
                        )
                    )
                elif kind == "span":
                    # A finished span relayed by the runner's tracer: onto
                    # the bus, where the TraceSink persists it.
                    server.events.fire(
                        SpanRecorded(
                            job_id=stored.id,
                            data=message[1],
                            trace_id=message[1].get("trace_id"),
                        )
                    )
                elif kind == "done":
                    result = VerificationResult.from_dict(message[1])
                    truncated = deadline_ms_binding(stored) and result.stats.timed_out
                    if execute_span is not None and result.stats.cancelled:
                        execute_span.set_error("search cancelled", reason="cancelled")
                    self._finalize_result(stored, result, truncated, started)
                    return "done"
                elif kind == "error":
                    if execute_span is not None:
                        execute_span.set_error(message[1])
                    if server.store.mark_error(
                        stored.id, message[1], worker_id=self.worker_id
                    ):
                        server.events.fire(
                            JobFailed(job_id=stored.id, data={"error": message[1]})
                        )
                    return "error"
            elif not self.runner.is_alive():
                # One final poll: the runner may have flushed its terminal
                # message between our poll() and is_alive() checks.
                if self._conn.poll(timeout=0):
                    continue
                return "crashed"
            now = time.monotonic()
            if now - last_sync >= server.heartbeat_interval:
                try:
                    owned, cancel_requested = server.store.touch_claim(
                        stored.id, self.worker_id
                    )
                except sqlite3.OperationalError:
                    # Heavily contended write (the heartbeat path fails fast
                    # rather than blocking past the staleness window): skip
                    # this tick, the claim is retried on the next one.
                    owned, cancel_requested = True, False
                if (cancel_requested or not owned) and not self._cancel_event.is_set():
                    # Either a cancel arrived through the store (possibly
                    # from another server), or we lost the claim to a stale
                    # rescue -- in both cases the runner should stop: its
                    # verdict would bounce off the ownership predicate anyway.
                    self._cancel_event.set()
                last_sync = now

    def _finalize_result(
        self,
        stored: "StoredJob",
        result: VerificationResult,
        deadline_truncated: bool,
        started: float,
    ) -> None:
        """Land a finished job in the store.

        A cancelled run lands as terminal ``cancelled`` with its partial
        statistics (never cached); a ``deadline_ms``-truncated verdict stays
        on the job row only (``persist_result=False``): it must not enter
        the fingerprint-keyed result table, or a later job with the same
        inputs but no deadline would be served the partial verdict.  The
        mark lands only while this agent still owns the claim, so a zombie
        whose job was rescued by a stale sweep (here or on a peer server)
        can never overwrite the live run's state.  A mark that does not land
        bumps no metrics; the twins the verdict completed get the events of
        a cache hit.
        """
        server = self.server
        if result.stats.cancelled:
            if server.store.mark_cancelled(
                stored.id, result.as_dict(), worker_id=self.worker_id
            ):
                server.events.fire(JobCancelled(job_id=stored.id))
            return
        landed, twins = server.store.mark_done(
            stored.id,
            result.as_dict(),
            persist_result=not deadline_truncated,
            worker_id=self.worker_id,
        )
        if landed:
            server.events.fire(
                JobCompleted(
                    job_id=stored.id,
                    data={"seconds": time.monotonic() - started, "cache_hit": False},
                )
            )
        for twin in twins:
            server.fire_cache_hit(twin)

    def _handle_crash(self, stored: "StoredJob") -> None:
        """The runner died mid-job: requeue through the recovery semantics."""
        server = self.server
        exitcode = self.runner.exitcode if self.runner is not None else None
        self._close_pipes()
        server.metrics.worker_gauges.increment(self.worker_id, "crashes")
        # Same rule as restart recovery: an accepted cancel is honoured
        # (finalise `cancelled`), otherwise the job re-queues -- verification
        # is deterministic and idempotent, so a re-run is always safe.  The
        # ownership predicate makes this a no-op (None) if a peer server's
        # sweeper already rescued (and possibly re-claimed) the job.
        released = server.store.release(stored.id, self.worker_id)
        # WorkerCrashed is durable-when-job-scoped: the job id is attached
        # only when the release landed (the rescued job's event log belongs
        # to its new owner); the crash counter bumps either way.  The
        # disposition is what the release itself did, not a later re-read
        # that a DELETE landing in between would falsify.
        server.events.fire(
            WorkerCrashed(
                job_id=stored.id if released else None,
                data={
                    "worker": self.worker_id,
                    "exitcode": exitcode,
                    "disposition": "cancelled" if released == "cancelled" else "requeued",
                },
            )
        )
        server._wakeup.set()  # a requeued job is claimable again -- by anyone


# ----------------------------------------------------------------- observers


def pool_snapshot(agents) -> Tuple[int, int]:
    """(alive, total) worker slots of a pool.

    A slot is alive when its agent thread runs and its runner is alive or
    not started yet: runners start on the first claimed job (and restart on
    the next one after a crash), so an agent still waiting for work can
    serve it.
    """
    alive = sum(
        1
        for agent in agents
        if agent.is_alive() and (agent.runner is None or agent.runner.is_alive())
    )
    return alive, len(agents)


def children_alive(agents) -> int:
    """How many of the agents' runners are started and running."""
    return sum(
        1 for agent in agents if agent.runner is not None and agent.runner.is_alive()
    )
