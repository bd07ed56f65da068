"""Typed events of the :mod:`repro.events` bus.

Every observable occurrence in the verification service -- a search's
progress heartbeat, a job completing, a worker process crashing, a sweep
expiring TTL'd rows -- is one :class:`Event` subclass.  The class carries
the *static* facts (name, log level, whether the event belongs in the
durable per-job log, which ``/metrics`` counters it bumps); the instance
carries the *dynamic* ones (``job_id``, ``data``, ``timestamp``).  Sinks
(:mod:`repro.events.manager`) dispatch on those class attributes, so adding
a new event type never requires touching a sink.

The design follows dbt's typed event manager (``eventmgr.py``/``types.py``):
one stream of typed events, fan-out to pluggable sinks, with the event
types -- not the emit sites -- owning their routing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

#: Log levels, ordered for min-level filtering in sinks.
DEBUG = "debug"
INFO = "info"
WARNING = "warning"
ERROR = "error"

LEVEL_ORDER = {DEBUG: 0, INFO: 1, WARNING: 2, ERROR: 3}


@dataclass(frozen=True)
class Event:
    """Base typed event.

    Class attributes (overridden per subclass):

    * ``name`` -- the stable event name (also the default durable-log kind);
    * ``level`` -- default log level (see :meth:`log_level`);
    * ``durable`` -- whether a :class:`~repro.events.manager.StoreSink`
      appends the event to the store's per-job event log (requires a
      ``job_id``: durable events are always job-scoped);
    * ``lossy`` -- durable events that may be *dropped* rather than block on
      a contended store write lock (periodic progress heartbeats: losing one
      beats starving the thread that also runs claim heartbeats);
    * ``counter`` -- the ``/metrics`` counter a
      :class:`~repro.events.manager.MetricsSink` bumps once per event
      (``None``: no counter; override :meth:`metric_increments` for
      multi-counter or non-unit increments).
    """

    job_id: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)
    #: Distributed-trace correlation (see :mod:`repro.obs`): set when the
    #: emitting code ran on behalf of a traced job, and written into the
    #: durable log payload so ``/events`` entries can be joined with the
    #: ``/trace`` span tree.
    trace_id: Optional[str] = None

    name: ClassVar[str] = "event"
    level: ClassVar[str] = INFO
    durable: ClassVar[bool] = False
    lossy: ClassVar[bool] = False
    counter: ClassVar[Optional[str]] = None

    def log_kind(self) -> str:
        """The ``kind`` this event is appended to the durable log under."""
        return self.name

    def log_level(self) -> str:
        """The log level of this particular instance (class default)."""
        return type(self).level

    def metric_increments(self) -> List[Tuple[str, int]]:
        """``(counter, amount)`` pairs a metrics sink applies for this event."""
        if self.counter is None:
            return []
        return [(self.counter, 1)]


# ------------------------------------------------------------- search events


@dataclass(frozen=True)
class SearchEvent(Event):
    """One :class:`~repro.core.control.ProgressEvent` from a running search.

    ``kind`` is the progress-event kind (``phase`` / ``progress`` /
    ``stats`` / ``done``) and doubles as the durable-log kind, so the
    on-disk event log is byte-compatible with the pre-bus format.  Periodic
    ``progress`` heartbeats log at ``debug``; the structural events at
    ``info``.
    """

    kind: str = "progress"

    name: ClassVar[str] = "search"
    durable: ClassVar[bool] = True
    lossy: ClassVar[bool] = True

    def log_kind(self) -> str:
        return self.kind

    def log_level(self) -> str:
        return DEBUG if self.kind == "progress" else INFO


@dataclass(frozen=True)
class CacheServed(Event):
    """A job completed from a stored verdict (no search ran).

    Not durable: the store appends the job's ``done`` event in the same
    transaction that completes it (see :mod:`repro.server.store`), so a
    poller that sees the job terminal always finds that event.
    """

    name: ClassVar[str] = "cache-hit"
    counter: ClassVar[Optional[str]] = "cache_hits"


# ---------------------------------------------------------------- job events


@dataclass(frozen=True)
class JobSubmitted(Event):
    """A job was accepted; ``data["status"]`` is ``"queued"`` for a cache
    miss (a search will run) and ``"done"`` for a stored verdict."""

    name: ClassVar[str] = "job-submitted"
    level: ClassVar[str] = DEBUG
    counter: ClassVar[Optional[str]] = "jobs_submitted"

    def metric_increments(self) -> List[Tuple[str, int]]:
        increments = super().metric_increments()
        if self.data.get("status") == "queued":
            increments.append(("cache_misses", 1))
        return increments


@dataclass(frozen=True)
class VerificationStarted(Event):
    """A claimed job entered the verifier (cache miss: a real search runs)."""

    name: ClassVar[str] = "verification-started"
    level: ClassVar[str] = DEBUG
    counter: ClassVar[Optional[str]] = "verifications_run"


@dataclass(frozen=True)
class JobCompleted(Event):
    """A job landed ``done``; ``data["seconds"]`` feeds the latency tracker."""

    name: ClassVar[str] = "job-completed"
    counter: ClassVar[Optional[str]] = "jobs_completed"


@dataclass(frozen=True)
class JobFailed(Event):
    name: ClassVar[str] = "job-failed"
    level: ClassVar[str] = ERROR
    counter: ClassVar[Optional[str]] = "jobs_failed"


@dataclass(frozen=True)
class JobCancelled(Event):
    """A running job landed terminal ``cancelled``: its worker stopped the
    search (partial stats kept), or the sweeper finalised a stale claim
    whose cancel was pending."""

    name: ClassVar[str] = "job-cancelled"
    counter: ClassVar[Optional[str]] = "jobs_cancelled"


@dataclass(frozen=True)
class CancelRequested(Event):
    """A ``DELETE /v1/jobs/<id>`` was freshly accepted."""

    name: ClassVar[str] = "cancel-requested"
    counter: ClassVar[Optional[str]] = "cancel_requests"


# ------------------------------------------------------------- worker events


@dataclass(frozen=True)
class WorkerCrashed(Event):
    """A worker process died mid-job.

    Durable under the ``worker-crash`` kind *when job-scoped* -- the agent
    attaches the job id only when it still owned the claim (a rescued job's
    log belongs to the new owner); the crash counter bumps either way.
    """

    name: ClassVar[str] = "worker-crash"
    level: ClassVar[str] = WARNING
    durable: ClassVar[bool] = True
    counter: ClassVar[Optional[str]] = "worker_crashes"


# ------------------------------------------------- sweeper / recovery events


@dataclass(frozen=True)
class StaleJobsRequeued(Event):
    """The sweeper requeued ``data["count"]`` jobs from dead owners (one
    with a pending cancel is finalised instead and fires :class:`JobCancelled`)."""

    name: ClassVar[str] = "stale-jobs-requeued"
    level: ClassVar[str] = WARNING

    def metric_increments(self) -> List[Tuple[str, int]]:
        return [("stale_jobs_requeued", int(self.data.get("count", 1)))]


@dataclass(frozen=True)
class SweepCompleted(Event):
    """A TTL sweep deleted ``data["jobs"]`` jobs / ``data["results"]`` results."""

    name: ClassVar[str] = "sweep-completed"
    level: ClassVar[str] = DEBUG

    def metric_increments(self) -> List[Tuple[str, int]]:
        return [
            ("jobs_expired", int(self.data.get("jobs", 0))),
            ("results_expired", int(self.data.get("results", 0))),
        ]


@dataclass(frozen=True)
class SweeperLeaseMiss(Event):
    """A sweep round skipped because a peer server holds the sweeper lease."""

    name: ClassVar[str] = "sweeper-lease-miss"
    level: ClassVar[str] = DEBUG
    counter: ClassVar[Optional[str]] = "sweeper_lease_misses"


@dataclass(frozen=True)
class RecoveryCompleted(Event):
    """Startup recovery repaired the store (``data``: the recovery report)."""

    name: ClassVar[str] = "recovery-completed"


# -------------------------------------------------------------- trace events


@dataclass(frozen=True)
class SpanRecorded(Event):
    """A trace span finished (``data`` is its ``Span.as_dict()`` form).

    Not durable in the per-job *event* log -- spans have their own store
    table, written by :class:`~repro.events.manager.TraceSink`; the counter
    keeps ``/metrics`` aware of span volume.
    """

    name: ClassVar[str] = "span-recorded"
    level: ClassVar[str] = DEBUG
    counter: ClassVar[Optional[str]] = "spans_recorded"
