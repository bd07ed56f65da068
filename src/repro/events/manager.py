"""The event bus: :class:`EventManager`, its sinks, and :class:`EventBroker`.

``EventManager.fire`` is the single path every event in the server takes.
Sinks subscribe to the whole stream and each pick out what they care about:

* :class:`StoreSink` appends ``durable`` job-scoped events to the store's
  per-job event log -- the source of truth that polling and long-poll
  both read from, and the only delivery channel that crosses servers;
* :class:`MetricsSink` turns events into ``/metrics`` counter increments;
* :class:`LogSink` renders events as log lines on a stream.

Sinks are independent: one sink raising never stops the others (mirroring
``SearchControl.emit``, which must never let an observer kill a search).

:class:`EventBroker` is the in-process push half of delivery.  Long-poll
handlers subscribe to a job id and block on
:meth:`_Subscription.wait`; the store's post-commit update hook calls
:meth:`EventBroker.notify`.  Wakeups carry no payload -- waiters re-read
the durable log -- so a missed or spurious wakeup can delay delivery by at
most one fallback interval, never lose an event.  Events written by *other*
servers sharing the store never reach this broker at all; the bounded wait
timeout doubles as the cross-server re-poll cadence.
"""

from __future__ import annotations

import datetime as _datetime
import json
import sqlite3
import sys
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, TextIO

from repro.events.types import (
    INFO,
    LEVEL_ORDER,
    Event,
    JobCompleted,
    SpanRecorded,
)

#: Anything callable with a single event, or an object with ``handle(event)``.
Sink = Any


class EventManager:
    """Process-wide fan-out of typed :class:`Event` objects to sinks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: List[Sink] = []

    def add_sink(self, sink: Sink) -> Sink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def fire(self, event: Event) -> None:
        """Deliver *event* to every sink; a failing sink never blocks the rest.

        Called from worker threads, agent drain threads, the sweeper and
        request handlers -- sinks must be thread-safe (the built-in ones
        delegate to the already thread-safe store / metrics objects).
        """
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            handle = getattr(sink, "handle", sink)
            try:
                handle(event)
            except Exception:
                pass


class StoreSink:
    """Appends durable job-scoped events to the store's per-job event log.

    ``lossy`` events (progress heartbeats) are written under the store's
    short fail-fast busy timeout and *dropped* on lock contention -- the
    emitting thread also services claim heartbeats and must not stall.
    Non-lossy durable events block on the default timeout.
    """

    def __init__(self, store: Any, lossy_busy_timeout_seconds: Optional[float] = None):
        self._store = store
        self._lossy_timeout = lossy_busy_timeout_seconds

    def handle(self, event: Event) -> None:
        if not event.durable or event.job_id is None:
            return
        payload: Dict[str, Any] = {"data": dict(event.data)}
        if event.trace_id is not None:
            payload["trace_id"] = event.trace_id
        try:
            self._store.append_event(
                event.job_id,
                event.log_kind(),
                payload,
                busy_timeout_seconds=self._lossy_timeout if event.lossy else None,
            )
        except sqlite3.OperationalError:
            if not event.lossy:
                raise


class TraceSink:
    """Persists finished trace spans into the store's ``spans`` table.

    Listens for :class:`SpanRecorded` events on the bus (everything else is
    ignored), so span persistence reuses the bus's fan-out, error isolation
    and metrics accounting instead of a private channel.  Spans are few per
    job (roughly one per hop and search phase) and ``INSERT OR REPLACE``
    makes replays idempotent, so the default (blocking) store timeout is
    fine here -- unlike the lossy progress-heartbeat path.
    """

    def __init__(self, store: Any):
        self._store = store

    def handle(self, event: Event) -> None:
        if not isinstance(event, SpanRecorded):
            return
        span = dict(event.data)
        if event.job_id is not None and span.get("job_id") is None:
            span["job_id"] = event.job_id
        self._store.append_span(span)


class MetricsSink:
    """Applies each event's counter increments to a ``ServerMetrics``."""

    def __init__(self, metrics: Any):
        self._metrics = metrics

    def handle(self, event: Event) -> None:
        self._metrics.increment("events_emitted")
        for counter, amount in event.metric_increments():
            if amount:
                self._metrics.increment(counter, amount)
        if isinstance(event, JobCompleted) and "seconds" in event.data:
            self._metrics.job_latency.observe(float(event.data["seconds"]))


class LogSink:
    """Renders events as single log lines on a text stream (stderr default)."""

    def __init__(self, stream: Optional[TextIO] = None, min_level: str = INFO):
        if min_level not in LEVEL_ORDER:
            raise ValueError(f"unknown log level {min_level!r}")
        self._stream = stream if stream is not None else sys.stderr
        self._threshold = LEVEL_ORDER[min_level]
        self._lock = threading.Lock()

    def handle(self, event: Event) -> None:
        level = event.log_level()
        if LEVEL_ORDER.get(level, 0) < self._threshold:
            return
        stamp = _datetime.datetime.fromtimestamp(
            event.timestamp, tz=_datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3]
        parts = [f"{stamp}Z", f"{level:<7}", event.name]
        if event.job_id is not None:
            parts.append(f"job={event.job_id}")
        if event.data:
            parts.append(json.dumps(event.data, sort_keys=True, default=str))
        line = " ".join(parts)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


class _BrokerEntry:
    """Per-job wakeup state; ``condition`` shares the broker's lock."""

    __slots__ = ("condition", "generation", "waiters")

    def __init__(self, condition: threading.Condition):
        self.condition = condition
        self.generation = 0
        self.waiters = 0


class _Subscription:
    """A handle for one waiter on one job id (see :meth:`EventBroker.subscription`)."""

    def __init__(self, lock: threading.Lock, entry: _BrokerEntry):
        self._lock = lock
        self._entry = entry
        self._seen = entry.generation

    def wait(self, timeout: float) -> bool:
        """Block until a notification newer than the last one seen, or *timeout*.

        Notifications that raced in *before* this call (but after the
        subscription -- or the previous ``wait`` -- was taken) are returned
        immediately: the generation counter makes the wakeup un-missable.
        Returns whether a new notification arrived.
        """
        with self._lock:
            if self._entry.generation == self._seen:
                self._entry.condition.wait(timeout)
            changed = self._entry.generation != self._seen
            self._seen = self._entry.generation
            return changed


class EventBroker:
    """In-process wakeup hub keyed by job id, for long-poll waiters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, _BrokerEntry] = {}

    def notify(self, job_id: str) -> None:
        """Wake every subscriber of *job_id* (no-op when nobody waits)."""
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is not None:
                entry.generation += 1
                entry.condition.notify_all()

    @contextmanager
    def subscription(self, job_id: str) -> Iterator[_Subscription]:
        """Subscribe to *job_id* for the duration of the ``with`` block.

        Subscribe *before* reading the event cursor: any write that lands
        after the read then either bumped the generation already (the next
        ``wait`` returns at once) or will notify the condition.
        """
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is None:
                entry = self._entries[job_id] = _BrokerEntry(
                    threading.Condition(self._lock)
                )
            entry.waiters += 1
            subscription = _Subscription(self._lock, entry)
        try:
            yield subscription
        finally:
            with self._lock:
                entry.waiters -= 1
                if entry.waiters == 0 and self._entries.get(job_id) is entry:
                    del self._entries[job_id]

    def waiter_count(self) -> int:
        """Total subscribers across all jobs (tests and diagnostics)."""
        with self._lock:
            return sum(entry.waiters for entry in self._entries.values())
