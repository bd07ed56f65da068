"""repro.events -- the typed event bus of the verification service.

One stream of typed :class:`~repro.events.types.Event` objects flows through
a process-wide :class:`~repro.events.manager.EventManager`; pluggable sinks
turn it into the durable per-job log, ``/metrics`` counters and log lines,
and an :class:`~repro.events.manager.EventBroker` converts store commits
into in-process wakeups for long-poll delivery.
"""

from repro.events.manager import (
    EventBroker,
    EventManager,
    LogSink,
    MetricsSink,
    StoreSink,
    TraceSink,
)
from repro.events.types import (
    DEBUG,
    ERROR,
    INFO,
    LEVEL_ORDER,
    WARNING,
    CacheServed,
    CancelRequested,
    Event,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobSubmitted,
    RecoveryCompleted,
    SearchEvent,
    SpanRecorded,
    StaleJobsRequeued,
    SweepCompleted,
    SweeperLeaseMiss,
    VerificationStarted,
    WorkerCrashed,
)

__all__ = [
    "DEBUG",
    "ERROR",
    "INFO",
    "LEVEL_ORDER",
    "WARNING",
    "CacheServed",
    "CancelRequested",
    "Event",
    "EventBroker",
    "EventManager",
    "JobCancelled",
    "JobCompleted",
    "JobFailed",
    "JobSubmitted",
    "LogSink",
    "MetricsSink",
    "RecoveryCompleted",
    "SearchEvent",
    "SpanRecorded",
    "StaleJobsRequeued",
    "StoreSink",
    "SweepCompleted",
    "SweeperLeaseMiss",
    "TraceSink",
    "VerificationStarted",
    "WorkerCrashed",
]
