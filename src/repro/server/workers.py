"""Multi-process verification workers for the HTTP server.

The thread-model workers in :mod:`repro.server.app` share one GIL, so
``--workers N`` buys concurrency only for I/O: the CPU-bound Karp–Miller
search still runs one state expansion at a time.  This module provides the
**process** worker model: long-lived OS processes, one per worker slot, that
run searches truly in parallel (Spin's multi-core swarm shape).

Architecture
============

Each worker slot is a :class:`ProcessWorkerAgent` -- a *parent-side* thread
owning one child process:

* the agent claims jobs from the SQLite :class:`~repro.server.store.JobStore`
  (``claim_next(worker_id=...)``, which stamps ``claimed_by`` and an initial
  heartbeat), checks the read-through result cache, and dispatches uncached
  jobs to its child over a duplex ``multiprocessing`` pipe as plain spec
  dicts (the same picklable shape :func:`repro.service.engine._verify_job_dicts`
  uses);
* the child (:func:`process_worker_main`) rebuilds the model, runs the
  cancellable search, and streams ``ProgressEvent`` tuples followed by one
  terminal ``("done", result_dict)`` / ``("error", message)`` message back
  up the pipe; the agent drains them into the store's events table, so
  ``GET /v1/jobs/<id>/events`` observes a process-worker search exactly as
  it would a thread-worker one;
* while draining, the agent *syncs* its claim with the store once per
  heartbeat interval (:meth:`~repro.server.store.JobStore.touch_claim`): the
  heartbeat is refreshed only while the agent still owns the claim -- so
  :meth:`~repro.server.store.JobStore.requeue_stale` (run by whichever
  server holds the sweeper lease) can rescue jobs whose *agent* died, and a
  zombie agent whose job was already rescued cannot keep it alive -- and the
  persisted ``cancel_requested`` flag is read back, so a ``DELETE`` accepted
  by **any server sharing the store** stops this child within one heartbeat
  interval.

Cancellation crosses the process boundary through a shared
``multiprocessing.Event``: the child's
:class:`~repro.core.control.CancellationToken` polls ``event.is_set`` (the
token's *external* backend) once per search-loop iteration, so
``DELETE /v1/jobs/<id>`` -- handled locally, or observed from the store's
``cancel_requested`` flag when a peer server accepted it -- stops a hot
search within its poll interval and the partial statistics travel back like
any other result.

Workers are spawn-safe (the ``spawn`` start method is used everywhere --- no
fork-inherited locks) and **recycled** after ``max_jobs_per_worker`` jobs,
bounding any leak a long worker life could accumulate.  A crashed child
(segfault, OOM-kill, ``SIGKILL``) is detected by the agent, its job is
released back to the queue through the same recovery semantics a server
restart uses (requeue -- unless the job's cancellation was already
requested, in which case it is finalised ``cancelled``), and a fresh child
is spawned in its place.
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
    CacheServed,
    JobFailed,
    SearchEvent,
    SpanRecorded,
    VerificationStarted,
    WorkerCrashed,
    WorkerRecycled,
)
from repro.obs import TraceContext, TraceScope, Tracer
from repro.service.jobs import VerificationJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports us)
    from repro.server.app import VerificationServer
    from repro.server.store import StoredJob

#: The multiprocessing start method.  ``spawn`` is the only start method that
#: is safe under threads on every platform (``fork`` duplicates a
#: mid-transaction SQLite lock or a held logging lock into the child).
START_METHOD = "spawn"


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


# --------------------------------------------------------------------- child


def process_worker_main(conn, cancel_event) -> None:
    """Child-process entry point: verify tasks from the pipe until told to stop.

    Must stay a module-level function (picklable by reference under
    ``spawn``) and exchange only JSON-compatible payloads.  One message in
    (``None`` to exit, else a task dict), a stream of messages out::

        ("event", kind, data)     # progress events, relayed to the store
        ("span", span_dict)       # finished trace spans (traced tasks only)
        ("done", result_dict)     # the serialized VerificationResult
        ("error", message)        # the search raised

    ``cancel_event`` is the cross-process cancellation backend: the token
    polls it cooperatively once per search-loop iteration, so a cancel set
    by the parent stops the search within one iteration.
    """
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
        # never kill the search; the parent notices the crash separately.
        conn.send(("event", event.kind, dict(event.data)))

    # Traced tasks carry their context across the process boundary in the
    # task dict; the child runs its own short-lived tracer whose exporter
    # relays finished spans up the pipe (Tracer.finish swallows exporter
    # errors, so a dying pipe cannot kill the search either).
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


# -------------------------------------------------------------------- parent


class ProcessWorkerAgent(threading.Thread):
    """Parent-side owner of one worker process (one worker slot).

    The agent is a daemon thread running the same claim loop as a thread
    worker, but executing each claimed job on its child process.  It is the
    only toucher of its child's pipe, so no cross-thread pipe locking is
    needed.
    """

    def __init__(self, server: "VerificationServer", index: int):
        # The server-id prefix makes the claim attributable in shared-store
        # deployments: startup recovery requeues only own-prefix claims, and
        # operators can read `claimed_by` to see which server runs a job.
        self.worker_id = f"{server.worker_id_prefix}proc-{index}"
        super().__init__(name=f"repro-agent-{index}", daemon=True)
        self.server = server
        self.context = multiprocessing.get_context(START_METHOD)
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self._conn = None  # parent end of the duplex pipe
        self._cancel_event = None
        self._jobs_on_child = 0  # jobs dispatched to the current child
        self._spawn_failures = 0
        server.metrics.worker_gauges.update(
            self.worker_id, state="idle", model="process"
        )

    # ------------------------------------------------------------- lifecycle

    def _ensure_child(self) -> None:
        """(Re)spawn the child if missing, dead, or due for recycling."""
        if self.process is not None and self.process.is_alive():
            if self._jobs_on_child < self.server.max_jobs_per_worker:
                return
            self._shutdown_child()  # recycle: bounded worker lifetime
            self.server.events.fire(WorkerRecycled(data={"worker": self.worker_id}))
            self.server.metrics.worker_gauges.increment(self.worker_id, "recycles")
        if self.process is not None and not self.process.is_alive():
            self._close_pipes()
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        cancel_event = self.context.Event()
        process = self.context.Process(
            target=process_worker_main,
            args=(child_conn, cancel_event),
            name=f"repro-worker-{self.worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            # A failed spawn must not leak the fresh pipe fds: the agent's
            # claim loop retries indefinitely on EAGAIN-style failures.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()  # the child holds its own copy
        self.process = process
        self._conn = parent_conn
        self._cancel_event = cancel_event
        self._jobs_on_child = 0
        self.server.metrics.worker_gauges.update(self.worker_id, pid=process.pid)

    def _close_pipes(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass
        self._conn = None
        self.process = None

    def _shutdown_child(self, graceful: bool = True) -> None:
        """Stop the current child: sentinel first, terminate if it lingers."""
        if self.process is None:
            return
        if graceful and self.process.is_alive() and self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if self.process.is_alive():
            self.process.join(timeout=2)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        self._close_pipes()

    def close(self) -> None:
        """Tear the child down (called by the server after the agent joined)."""
        self._shutdown_child()
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
                self._spawn_failures = 0
            except Exception:  # noqa: BLE001 - agent must survive anything
                # Most likely a failed (re)spawn: hand the job back and back
                # off (monotonic sleep; wall-clock steps cannot starve us).
                self._spawn_failures += 1
                try:
                    self.server.store.release(stored.id, self.worker_id)
                except Exception:  # pragma: no cover - store closed
                    return
                time.sleep(min(5.0, 0.25 * (2 ** min(self._spawn_failures, 5))))

    # ------------------------------------------------------------- execution

    def _run_job(self, stored: "StoredJob") -> None:
        server = self.server
        started = time.monotonic()
        gauges = server.metrics.worker_gauges
        gauges.update(self.worker_id, state="busy", current_job=stored.id)
        # The agent owns the job's worker.execute span: the child may be
        # SIGKILL'd mid-search, and a dead process cannot close its own
        # spans -- the agent closes this one with an error status instead.
        execute_span = server._start_job_spans(stored, self.worker_id)
        try:
            job = stored.to_job()
            cached = server.cache.get(job.fingerprint)
            if cached is not None:
                server.events.fire(
                    CacheServed(
                        stored.id,
                        {"outcome": cached.outcome.value, "cache_hit": True},
                    )
                )
                if execute_span is not None:
                    execute_span.set_attr("cache_hit", True)
                server._finalize_result(
                    stored, cached, True, False, started, owner=self.worker_id
                )
                gauges.increment(self.worker_id, "jobs_completed")
                return

            self._ensure_child()
            self._cancel_event.clear()  # a late cancel of the previous job
            server._register_canceller(stored.id, self._cancel_event.set)
            try:
                # A cancel accepted between the claim and the registration
                # above only reached the store; fold it into the event now.
                if server.store.is_cancel_requested(stored.id):
                    self._cancel_event.set()
                server.events.fire(VerificationStarted(job_id=stored.id))
                self._jobs_on_child += 1
                task = {
                    "system": job.system_dict,
                    "property": job.property_dict,
                    "options": job.options_dict,
                    "deadline_ms": stored.deadline_ms,
                    "progress_interval": server.progress_interval,
                }
                if execute_span is not None:
                    # The child's verify.* spans parent under this agent's
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

    def _drain(
        self, stored: "StoredJob", started: float, execute_span=None
    ) -> str:
        """Pump child messages into the store until the job reaches an end.

        Returns ``"done"``, ``"error"`` or ``"crashed"``.  Once per
        ``heartbeat_interval`` the agent *syncs* the claim with the store
        (one transaction): the heartbeat is refreshed only while this worker
        still owns the claim, and the persisted ``cancel_requested`` flag is
        read back -- so a ``DELETE`` handled by **another server** sharing
        the store stops this child within one heartbeat interval, and a
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
                    # A finished span relayed by the child's tracer: onto
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
                    if execute_span is not None:
                        execute_span.set_attr("cache_hit", False)
                        if result.stats.cancelled:
                            execute_span.set_error(
                                "search cancelled", reason="cancelled"
                            )
                    server._finalize_result(
                        stored, result, False, truncated, started,
                        owner=self.worker_id,
                    )
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
            elif not self.process.is_alive():
                # One final poll: the child may have flushed its terminal
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
                    # rescue -- in both cases the child should stop: its
                    # verdict would bounce off the ownership predicate anyway.
                    self._cancel_event.set()
                last_sync = now

    def _handle_crash(self, stored: "StoredJob") -> None:
        """The child died mid-job: requeue through the recovery semantics."""
        server = self.server
        exitcode = self.process.exitcode if self.process is not None else None
        self._close_pipes()
        server.metrics.worker_gauges.increment(self.worker_id, "crashes")
        # Same rule as restart recovery: an accepted cancel is honoured
        # (finalise `cancelled`), otherwise the job re-queues -- verification
        # is deterministic and idempotent, so a re-run is always safe.  The
        # ownership predicate makes this a no-op if a peer server's sweeper
        # already rescued (and possibly re-claimed) the job.
        released = server.store.release(stored.id, self.worker_id)
        # WorkerCrashed is durable-when-job-scoped: the job id is attached
        # only when the release landed (the rescued job's event log belongs
        # to its new owner); the crash counter bumps either way.
        server.events.fire(
            WorkerCrashed(
                job_id=stored.id if released else None,
                data={
                    "worker": self.worker_id,
                    "exitcode": exitcode,
                    "disposition": (
                        "cancelled"
                        if server.store.is_cancel_requested(stored.id)
                        else "requeued"
                    ),
                },
            )
        )
        server._wakeup.set()  # a requeued job is claimable again -- by anyone


# ----------------------------------------------------------------- observers


def pool_snapshot(agents) -> Tuple[int, int]:
    """(alive, total) worker slots of a process pool.

    A slot is alive when its agent thread runs and its child process is
    alive or not spawned yet: children spawn on the first claimed job (and
    respawn on the next one after a crash), so an agent still waiting for
    work can serve it.
    """
    alive = sum(
        1
        for agent in agents
        if agent.is_alive() and (agent.process is None or agent.process.is_alive())
    )
    return alive, len(agents)


def children_alive(agents) -> int:
    """How many of the agents' child processes are spawned and running."""
    return sum(
        1 for agent in agents if agent.process is not None and agent.process.is_alive()
    )
