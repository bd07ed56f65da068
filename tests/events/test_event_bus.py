"""Unit tests for :mod:`repro.events`: typed events, the manager's sinks,
and the :class:`EventBroker` wakeup hub.

These run without a server: the bus is a plain library (dbt-style typed
event manager) and must stay usable from an embedding application, so
everything here exercises it directly against a bare :class:`JobStore` /
:class:`ServerMetrics`.
"""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro.events import (
    DEBUG,
    ERROR,
    WARNING,
    CacheServed,
    Event,
    EventBroker,
    EventManager,
    JobCompleted,
    JobFailed,
    JobSubmitted,
    LogSink,
    MetricsSink,
    SearchEvent,
    StaleJobsRequeued,
    StoreSink,
    SweepCompleted,
    WorkerCrashed,
)
from repro.server.metrics import ServerMetrics
from repro.server.store import JobStore
from repro.service import VerificationJob


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "jobs.db")
    yield store
    store.close()


def _stored_job(store, tiny_system):
    from repro.has.conditions import Const, Eq, Var
    from repro.ltl import LTLFOProperty, parse_ltl

    prop = LTLFOProperty(
        "Main", parse_ltl("F p"),
        {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked",
    )
    return store.submit(VerificationJob.from_objects(tiny_system, prop))


# ------------------------------------------------------------------ the types


class TestEventTypes:
    def test_base_event_defaults(self):
        event = Event()
        assert event.job_id is None and event.data == {}
        assert event.log_kind() == "event"
        assert event.log_level() == "info"
        assert event.metric_increments() == []
        assert event.timestamp <= time.time()

    def test_counter_events_map_to_one_increment(self):
        assert JobSubmitted().metric_increments() == [("jobs_submitted", 1)]
        assert JobCompleted().metric_increments() == [("jobs_completed", 1)]
        assert JobFailed().log_level() == ERROR
        assert WorkerCrashed().log_level() == WARNING

    def test_search_event_kind_is_durable_log_kind(self):
        assert SearchEvent(kind="phase").log_kind() == "phase"
        assert SearchEvent(kind="progress").log_level() == DEBUG
        assert SearchEvent(kind="done").log_level() == "info"
        assert SearchEvent.durable and SearchEvent.lossy

    def test_cache_hit_and_miss_counters(self):
        # The store appends a cache hit's "done" log entry in the transaction
        # that completes the job, so the bus event only counts.
        assert not CacheServed.durable
        assert CacheServed().metric_increments() == [("cache_hits", 1)]
        assert JobSubmitted(data={"status": "queued"}).metric_increments() == [
            ("jobs_submitted", 1),
            ("cache_misses", 1),
        ]
        assert JobSubmitted(data={"status": "done"}).metric_increments() == [
            ("jobs_submitted", 1)
        ]

    def test_sweep_events_carry_amounts(self):
        requeued = StaleJobsRequeued(data={"count": 3})
        assert requeued.metric_increments() == [("stale_jobs_requeued", 3)]
        swept = SweepCompleted(data={"jobs": 2, "events": 9, "results": 1})
        assert swept.metric_increments() == [
            ("jobs_expired", 2),
            ("results_expired", 1),
        ]


# ---------------------------------------------------------------- the manager


class TestEventManager:
    def test_fire_reaches_every_sink(self):
        seen_a, seen_b = [], []
        manager = EventManager()
        manager.add_sink(seen_a.append)
        manager.add_sink(seen_b.append)
        event = JobCompleted(job_id="j1")
        manager.fire(event)
        assert seen_a == [event] and seen_b == [event]

    def test_failing_sink_never_blocks_the_rest(self):
        seen = []
        manager = EventManager()

        def explode(event):
            raise RuntimeError("broken observer")

        manager.add_sink(explode)
        manager.add_sink(seen.append)
        manager.fire(JobCompleted())
        assert len(seen) == 1

    def test_remove_sink(self):
        seen = []
        manager = EventManager()
        sink = manager.add_sink(seen.append)
        manager.remove_sink(sink)
        manager.fire(JobCompleted())
        assert seen == []


class TestMetricsSink:
    def test_counters_and_events_emitted(self):
        metrics = ServerMetrics()
        sink = MetricsSink(metrics)
        sink.handle(JobSubmitted())
        sink.handle(JobCompleted(data={"seconds": 0.25}))
        sink.handle(StaleJobsRequeued(data={"count": 4}))
        sink.handle(SweepCompleted(data={"jobs": 2, "results": 1}))
        sink.handle(Event())  # no counter: only events_emitted moves
        assert metrics.counter("events_emitted") == 5
        assert metrics.counter("jobs_submitted") == 1
        assert metrics.counter("jobs_completed") == 1
        assert metrics.counter("stale_jobs_requeued") == 4
        assert metrics.counter("jobs_expired") == 2
        assert metrics.counter("results_expired") == 1

    def test_job_completed_feeds_latency_tracker(self):
        metrics = ServerMetrics()
        MetricsSink(metrics).handle(JobCompleted(data={"seconds": 0.5}))
        assert metrics.job_latency.snapshot()["count"] == 1


class TestStoreSink:
    def test_durable_events_land_in_the_job_log(self, store, tiny_system):
        stored = _stored_job(store, tiny_system)
        sink = StoreSink(store)
        sink.handle(SearchEvent(job_id=stored.id, data={"phase": "search"}, kind="phase"))
        sink.handle(SearchEvent(job_id=stored.id, data={"outcome": "satisfied"}, kind="done"))
        events = store.events_after(stored.id)
        assert [e["kind"] for e in events] == ["phase", "done"]
        assert events[0]["data"] == {"phase": "search"}
        assert [e["seq"] for e in events] == [1, 2]

    def test_non_durable_and_unscoped_events_are_skipped(self, store, tiny_system):
        stored = _stored_job(store, tiny_system)
        sink = StoreSink(store)
        sink.handle(JobCompleted(job_id=stored.id))  # metrics-only event
        sink.handle(SearchEvent(job_id=None, kind="phase"))  # no job: nowhere to log
        assert store.events_after(stored.id) == []


class TestLogSink:
    def test_renders_one_line_per_event(self):
        stream = io.StringIO()
        sink = LogSink(stream)
        sink.handle(WorkerCrashed(job_id="j9", data={"exitcode": -9}))
        line = stream.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1
        assert "warning" in line and "worker-crash" in line
        assert "job=j9" in line and '"exitcode": -9' in line

    def test_min_level_filters_debug_chatter(self):
        stream = io.StringIO()
        sink = LogSink(stream)  # default threshold: info
        sink.handle(SearchEvent(job_id="j1", kind="progress"))
        assert stream.getvalue() == ""
        sink.handle(SearchEvent(job_id="j1", kind="done"))
        assert "search job=j1" in stream.getvalue()

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            LogSink(io.StringIO(), min_level="loud")


# ----------------------------------------------------------------- the broker


class TestEventBroker:
    def test_notify_without_waiters_is_a_noop(self):
        broker = EventBroker()
        broker.notify("nobody-listens")
        assert broker.waiter_count() == 0

    def test_notification_racing_ahead_of_wait_is_not_missed(self):
        # The generation counter means: a notify that lands after subscribing
        # but before wait() makes the wait return immediately.
        broker = EventBroker()
        with broker.subscription("j1") as subscription:
            broker.notify("j1")
            started = time.monotonic()
            assert subscription.wait(timeout=5.0) is True
            assert time.monotonic() - started < 1.0

    def test_wait_times_out_quietly(self):
        broker = EventBroker()
        with broker.subscription("j1") as subscription:
            assert subscription.wait(timeout=0.05) is False

    def test_cross_thread_wakeup(self):
        broker = EventBroker()
        woke = threading.Event()

        def wait_for_news():
            with broker.subscription("j1") as subscription:
                if subscription.wait(timeout=5.0):
                    woke.set()

        thread = threading.Thread(target=wait_for_news)
        thread.start()
        deadline = time.monotonic() + 5.0
        while broker.waiter_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        broker.notify("j1")
        thread.join(timeout=5.0)
        assert woke.is_set()

    def test_entries_are_reclaimed_at_zero_waiters(self):
        broker = EventBroker()
        with broker.subscription("j1"):
            with broker.subscription("j1"):
                assert broker.waiter_count() == 2
        assert broker.waiter_count() == 0
        assert broker._entries == {}

    def test_notify_only_wakes_the_jobs_subscribers(self):
        broker = EventBroker()
        with broker.subscription("j1") as subscription:
            broker.notify("j2")
            assert subscription.wait(timeout=0.05) is False


# ---------------------------------------- the store's post-commit update hook


class TestStoreUpdateHook:
    def test_append_and_terminal_marks_fire_the_hook(self, store, tiny_system):
        stored = _stored_job(store, tiny_system)
        touched = []
        store.on_job_update = touched.append
        store.append_event(stored.id, "phase", {"data": {"phase": "search"}})
        claimed = store.claim_next("proc-0")
        assert claimed is not None and claimed.id == stored.id
        store.mark_done(stored.id, {"outcome": "satisfied"}, worker_id="proc-0")
        assert touched.count(stored.id) >= 2  # the append + the terminal mark

    def test_cancel_request_fires_the_hook_once(self, store, tiny_system):
        stored = _stored_job(store, tiny_system)
        touched = []
        store.on_job_update = touched.append
        store.request_cancel(stored.id)
        assert touched == [stored.id]
        touched.clear()
        store.request_cancel(stored.id)  # already terminal: no new commit
        assert touched == []

    def test_hook_exceptions_never_break_the_write(self, store, tiny_system):
        stored = _stored_job(store, tiny_system)

        def explode(job_id):
            raise RuntimeError("listener died")

        store.on_job_update = explode
        seq = store.append_event(stored.id, "phase", {"data": {}})
        assert seq == 1
        assert store.events_after(stored.id)[0]["kind"] == "phase"
