"""Long-poll delivery of progress events and the request-count bound.

Long-poll is the client's one way to follow a job; a plain ``events`` page
(no ``wait_ms``) is what a caller behind a proxy that cuts long requests
reads.  The headline guarantee: a job whose log holds N events is fully
observed over long-poll with at most ``ceil(N / limit) + 1`` HTTP requests
-- one per full page plus at most one closing probe.  The same bound must hold when the observing server
is NOT the one that wrote the events (two servers sharing one store file),
where delivery degrades to the store-cursor fallback instead of in-process
wakeups.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request

import pytest

from repro.client import ClientError, VerifasClient
from repro.has.conditions import Const, Eq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer, app as server_app
from repro.spec import dump_property, dump_system

OPTIONS = {"timeout_seconds": 60}


def _property(name="eventually-picked"):
    return LTLFOProperty(
        "Main", parse_ltl("F p"),
        {"p": Eq(Var("status"), Const("picked"))}, name=name,
    )


class CountingClient(VerifasClient):
    """A client that counts (and records the paths of) the HTTP requests it
    issues."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.request_count = 0
        self.paths = []

    def _request(self, method, path, payload=None, timeout=None, headers=None):
        self.request_count += 1
        self.paths.append(path)
        return super()._request(method, path, payload, timeout=timeout, headers=headers)


@pytest.fixture
def fast_fallback(monkeypatch):
    """Long-poll waiters re-read the store every 50 ms."""
    monkeypatch.setattr(server_app, "PUSH_FALLBACK_INTERVAL", 0.05)


@pytest.fixture
def idle_server(tmp_path, fast_fallback):
    """A worker-less server: jobs stay queued until the test drives them."""
    server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
    server.start()
    yield server
    server.stop()


def _submit_one(server, tiny_system, ttl_seconds=None, name="eventually-picked"):
    """Submit one job; the property *name* is part of its fingerprint, and a
    fingerprint with a stored verdict completes at submit."""
    with VerifasClient(server.url) as client:
        payload = {
            "system": dump_system(tiny_system),
            "properties": [dump_property(_property(name))],
            "options": OPTIONS,
        }
        if ttl_seconds is not None:
            payload["ttl_seconds"] = ttl_seconds
        return client.submit_payload(payload)[0]


def _finish(store, job_id, worker_id="test:proc-0"):
    """Land a `done` verdict on the queued job *job_id* the way a worker
    does: claim it under an owner, then mark it."""
    assert store.claim_next(worker_id).id == job_id
    store.mark_done(job_id, {"outcome": "satisfied"}, worker_id=worker_id)


def _append_events(store, job_id, count, start=0):
    for index in range(start, start + count):
        store.append_event(
            job_id, "progress", {"data": {"states_explored": (index + 1) * 25}}
        )


# ------------------------------------------------------- the acceptance bound


class TestRequestCountBound:
    @pytest.mark.parametrize("n_events,limit", [(100, 30), (100, 25), (7, 500)])
    def test_push_drain_within_page_bound(
        self, idle_server, tiny_system, n_events, limit
    ):
        """N logged events over long-poll: at most ceil(N/limit)+1 requests."""
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, n_events)
        _finish(idle_server.store, handle.id)

        with CountingClient(idle_server.url, push_events=True, wait_ms=2_000) as client:
            events = list(client.iter_events(handle.id, poll_limit=limit))
            assert len(events) == n_events
            assert [e["seq"] for e in events] == list(range(1, n_events + 1))
            assert client.request_count <= math.ceil(n_events / limit) + 1

    def test_default_client_long_polls_within_the_bound(self, idle_server, tiny_system):
        """A client built with the URL alone long-polls: every page request
        carries `wait_ms=`, and the drain meets the same request bound."""
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, 100)
        _finish(idle_server.store, handle.id)

        with CountingClient(idle_server.url) as client:
            assert len(list(client.iter_events(handle.id, poll_limit=30))) == 100
            assert client.request_count <= math.ceil(100 / 30) + 1
            assert client.paths and all("wait_ms=" in path for path in client.paths)
        assert idle_server.metrics.counter("long_poll_requests") == client.request_count

    def test_terminal_short_page_needs_no_closing_probe(
        self, idle_server, tiny_system
    ):
        """A terminal page shorter than the limit ends iteration on the spot:
        exactly ceil(N/limit) requests, no extra round-trip (satellite fix)."""
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, 10)
        _finish(idle_server.store, handle.id)

        with CountingClient(idle_server.url, push_events=True, wait_ms=2_000) as client:
            assert len(list(client.iter_events(handle.id, poll_limit=500))) == 10
            assert client.request_count == 1

    def test_limit_exactly_at_page_size(self, idle_server, tiny_system):
        """N == limit: the full page cannot prove completeness, so exactly
        one closing probe follows -- the "+1" in the bound, no worse."""
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, 20)
        _finish(idle_server.store, handle.id)

        with CountingClient(idle_server.url, push_events=True, wait_ms=2_000) as client:
            assert len(list(client.iter_events(handle.id, poll_limit=20))) == 20
            assert client.request_count == 2

    def test_long_poll_follows_a_slow_emitter(self, idle_server, tiny_system):
        """Live emission: long-poll parks on the server between events, so
        it sees every event with at most one wakeup per event plus the
        close, and never an empty page in between."""
        n_events = 8
        handle = _submit_one(idle_server, tiny_system, name="slow-emitter")

        def emit():
            for index in range(n_events):
                time.sleep(0.06)
                _append_events(idle_server.store, handle.id, 1, start=index)
            _finish(idle_server.store, handle.id)

        emitter = threading.Thread(target=emit)
        emitter.start()
        with CountingClient(idle_server.url, wait_ms=5_000) as client:
            events = list(client.iter_events(handle.id, deadline_seconds=30))
        emitter.join()
        assert len(events) == n_events
        assert client.request_count <= n_events + 1

    def test_idle_long_poll_parks_in_one_request(self, idle_server, tiny_system):
        """A long-poll on a quiet job is ONE held request, not a poll storm."""
        handle = _submit_one(idle_server, tiny_system)
        with CountingClient(idle_server.url) as client:
            started = time.monotonic()
            page = client.events(handle.id, wait_ms=300)
            elapsed = time.monotonic() - started
            assert client.request_count == 1
            assert page["events"] == [] and page["terminal"] is False
            assert 0.25 <= elapsed < 5.0

    def test_long_poll_wakes_promptly_on_append(self, idle_server, tiny_system):
        handle = _submit_one(idle_server, tiny_system)

        def append_soon():
            time.sleep(0.1)
            _append_events(idle_server.store, handle.id, 1)

        appender = threading.Thread(target=append_soon)
        appender.start()
        started = time.monotonic()
        with VerifasClient(idle_server.url) as waiter:
            page = waiter.events(handle.id, wait_ms=10_000)
        elapsed = time.monotonic() - started
        appender.join()
        assert len(page["events"]) == 1
        assert elapsed < 5.0  # woke on the append, not the 10s deadline


    def test_stale_rescue_wakes_a_long_poll(self, tmp_path, tiny_system, monkeypatch):
        """A stale claim with a pending cancel lands `cancelled` in the
        sweeper's rescue; its long-poll wakes on that flip, not on the
        fallback re-read (10 s here)."""
        monkeypatch.setattr(server_app, "PUSH_FALLBACK_INTERVAL", 10)
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        try:
            handle = _submit_one(server, tiny_system)
            assert server.store.claim_next("gone:proc-0").id == handle.id
            assert server.store.request_cancel(handle.id) == ("cancelling", True)
            views = []
            waiter = threading.Thread(
                target=lambda: views.append(
                    server.events_view(handle.id, cursor=1, wait_ms=5_000)
                )
            )
            waiter.start()
            time.sleep(0.2)  # let the waiter park on the broker
            server.store.requeue_stale(0.0)
            waiter.join(timeout=1.0)
            woke = not waiter.is_alive()
            waiter.join(timeout=10.0)  # the 5 s long-poll deadline, at worst
            assert woke, "the long-poll slept through the cancelled flip"
            assert views[0]["terminal"] is True and views[0]["events"] == []
        finally:
            server.stop()


class TestTwoServersSharedStore:
    def test_push_bound_holds_across_servers(self, tmp_path, tiny_system, fast_fallback):
        """Events written via server A are observed via server B under the
        same request bound: B's broker never hears about A's commits, so
        delivery rides the store-cursor fallback re-read."""
        store_path = tmp_path / "shared.db"
        a = VerificationServer(store_path=store_path, port=0, workers=0, server_id="a")
        a.start()
        b = VerificationServer(store_path=store_path, port=0, workers=0, server_id="b")
        b.start()
        try:
            handle = _submit_one(a, tiny_system)
            n_events, limit = 100, 30
            _append_events(a.store, handle.id, n_events)
            _finish(a.store, handle.id)

            with CountingClient(b.url, push_events=True, wait_ms=2_000) as client:
                events = list(client.iter_events(handle.id, poll_limit=limit))
                assert len(events) == n_events
                assert client.request_count <= math.ceil(n_events / limit) + 1
        finally:
            a.stop()
            b.stop()

    def test_cross_server_live_append_arrives_within_fallback(
        self, tmp_path, tiny_system, fast_fallback
    ):
        """A long-poll held by B sees an event A writes within (roughly) one
        fallback interval, without any cross-process signalling."""
        store_path = tmp_path / "shared.db"
        a = VerificationServer(store_path=store_path, port=0, workers=0, server_id="a")
        a.start()
        b = VerificationServer(store_path=store_path, port=0, workers=0, server_id="b")
        b.start()
        try:
            handle = _submit_one(a, tiny_system)

            def append_via_a():
                time.sleep(0.15)
                _append_events(a.store, handle.id, 1)

            appender = threading.Thread(target=append_via_a)
            appender.start()
            with VerifasClient(b.url) as waiter:
                page = waiter.events(handle.id, wait_ms=10_000)
            appender.join()
            assert len(page["events"]) == 1
        finally:
            a.stop()
            b.stop()


# ------------------------------------------------------------- edge cases


class TestEventCursorEdges:
    def test_cursor_beyond_last_seq_returns_fast_when_terminal(
        self, idle_server, tiny_system
    ):
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, 3)
        _finish(idle_server.store, handle.id)

        started = time.monotonic()
        with VerifasClient(idle_server.url) as waiter:
            page = waiter.events(handle.id, cursor=999, wait_ms=10_000)
        assert time.monotonic() - started < 5.0  # terminal: no parking
        assert page["events"] == [] and page["terminal"] is True
        assert page["cursor"] == 999  # the cursor never moves backwards

    @pytest.mark.parametrize("limit", [0, -5])
    @pytest.mark.parametrize("wait_ms", [None, 1_500])
    def test_limit_below_one_is_a_quick_400(self, idle_server, tiny_system, limit, wait_ms):
        """A page of at most zero events never advances the cursor: refused
        at once rather than parked for the whole wait."""
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, 1)
        with VerifasClient(idle_server.url) as client:
            started = time.monotonic()
            with pytest.raises(ClientError) as excinfo:
                client.events(handle.id, limit=limit, wait_ms=wait_ms)
            assert time.monotonic() - started < 1.0
            assert excinfo.value.status == 400
            assert "limit" in excinfo.value.body["error"]
            assert len(client.events(handle.id, limit=1, wait_ms=wait_ms)["events"]) == 1

    def test_event_stream_accept_gets_a_json_long_poll(self, idle_server, tiny_system):
        """`Accept: text/event-stream` selects nothing special: the answer
        is the JSON page, and `wait_ms` still parks the request."""
        handle = _submit_one(idle_server, tiny_system)
        request = urllib.request.Request(
            f"{idle_server.url}/v1/jobs/{handle.id}/events?wait_ms=300",
            headers={"Accept": "text/event-stream"},
        )
        started = time.monotonic()
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/json"
            page = json.load(response)
        assert time.monotonic() - started >= 0.25
        assert page["events"] == [] and page["terminal"] is False
        assert idle_server.metrics.counter("long_poll_requests") == 1

    def test_job_swept_mid_iteration_surfaces_as_404(self, idle_server, tiny_system):
        handle = _submit_one(idle_server, tiny_system, ttl_seconds=0.01)
        _append_events(idle_server.store, handle.id, 2)
        _finish(idle_server.store, handle.id)

        with VerifasClient(idle_server.url, push_events=True, wait_ms=1_000) as client:
            first_page = client.events(handle.id, cursor=0, limit=1)
            assert len(first_page["events"]) == 1

            time.sleep(0.05)
            swept = idle_server.store.sweep_expired()
            assert swept["jobs"] == 1

            with pytest.raises(ClientError) as excinfo:
                client.events(handle.id, cursor=first_page["cursor"], wait_ms=1_000)
            assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "hostile",
        ["../../../etc/passwd", "a b%00c", "<script>alert(1)</script>", "."],
    )
    def test_hostile_job_ids_get_quick_404s(self, idle_server, hostile):
        with VerifasClient(idle_server.url) as client:
            started = time.monotonic()
            with pytest.raises(ClientError) as excinfo:
                client.events(hostile, wait_ms=10_000)
            assert excinfo.value.status == 404
            assert time.monotonic() - started < 5.0  # unknown job: no parking


class TestEventsViewReadsTheStatusOnly:
    """An events page needs the job's status and its events, nothing else
    of the row: neither a view nor a long-poll wake decodes the job."""

    @pytest.fixture
    def no_row_decode(self, idle_server, monkeypatch):
        def get_job(job_id):
            raise AssertionError("the events view decoded the job row")

        monkeypatch.setattr(idle_server.store, "get_job", get_job)

    def test_view_and_long_poll_read_no_row(self, idle_server, tiny_system, no_row_decode):
        handle = _submit_one(idle_server, tiny_system)
        _append_events(idle_server.store, handle.id, 2)
        view = idle_server.events_view(handle.id)
        assert view["status"] == "queued" and len(view["events"]) == 2
        assert view["terminal"] is False
        waited = idle_server.events_view(handle.id, cursor=2, wait_ms=100)
        assert waited["events"] == [] and waited["cursor"] == 2
        _finish(idle_server.store, handle.id)
        view = idle_server.events_view(handle.id, cursor=2)
        assert view["status"] == "done" and view["terminal"] is True

    def test_the_status_is_read_before_the_events(self, idle_server, tiny_system, monkeypatch):
        handle = _submit_one(idle_server, tiny_system)
        store, reads = idle_server.store, []
        job_status, events_after = store.job_status, store.events_after

        def record_status(job_id):
            reads.append("status")
            return job_status(job_id)

        def record_events(job_id, **kwargs):
            reads.append("events")
            return events_after(job_id, **kwargs)

        monkeypatch.setattr(store, "job_status", record_status)
        monkeypatch.setattr(store, "events_after", record_events)
        idle_server.events_view(handle.id)
        assert reads == ["status", "events"]

    def test_unknown_job_reads_no_events(self, idle_server, monkeypatch):
        def events_after(job_id, **kwargs):
            raise AssertionError("events read for an unknown job")

        monkeypatch.setattr(idle_server.store, "events_after", events_after)
        assert idle_server.events_view("ffffffffffff") is None
        assert idle_server.events_view("ffffffffffff", wait_ms=10_000) is None
        with VerifasClient(idle_server.url) as client:
            with pytest.raises(ClientError) as excinfo:
                client.events("ffffffffffff")
        assert excinfo.value.status == 404


# ------------------------------------------------------- batch status view


class TestBatchStatusView:
    def test_batch_view_returns_listed_jobs_with_results(
        self, idle_server, tiny_system
    ):
        first = _submit_one(idle_server, tiny_system)
        # A second fingerprint: a twin of `first` would be completed by its
        # mark_done, and the view must still show a done + queued mix.
        second = _submit_one(idle_server, tiny_system, name="second")
        _finish(idle_server.store, first.id)

        with CountingClient(idle_server.url) as client:
            views = client.job_views([first.id, second.id, "no-such-job"])
            assert client.request_count == 1  # the whole batch is one round-trip
            assert set(views) == {first.id, second.id}
            assert views[first.id]["status"] == "done"
            assert views[first.id]["result"] == {"outcome": "satisfied"}
            assert views[second.id]["status"] == "queued"
            assert views[second.id].get("result") is None

    def test_wait_all_uses_one_request_per_round(self, idle_server, tiny_system):
        handles = [_submit_one(idle_server, tiny_system) for _ in range(3)]
        # One fingerprint: the first verdict completes the two twins.
        _finish(idle_server.store, handles[0].id)
        with CountingClient(idle_server.url) as client:
            views = client.wait_all([h.id for h in handles], deadline_seconds=10)
            assert len(views) == 3
            assert client.request_count == 1

    def test_wait_all_unknown_id_is_an_error(self, idle_server, tiny_system):
        handle = _submit_one(idle_server, tiny_system)
        _finish(idle_server.store, handle.id)
        with VerifasClient(idle_server.url) as client, pytest.raises(ClientError) as excinfo:
            client.wait_all([handle.id, "ghost"])
        assert excinfo.value.status == 404


# --------------------------------------------------- end-to-end with workers


class TestPushWithRealWorkers:
    def test_real_job_fully_observed_over_push(self, tmp_path, worker_model, tiny_system):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            progress_interval=25, worker_model=worker_model,
        )
        server.start()
        try:
            with CountingClient(server.url, push_events=True, wait_ms=5_000) as client:
                handle = client.submit(
                    dump_system(tiny_system), [dump_property(_property())], options=OPTIONS
                )[0]
                events = list(client.iter_events(handle.id, deadline_seconds=60))
                kinds = [event["kind"] for event in events]
                assert kinds[0] == "phase"
                assert kinds[-1] == "done"
                assert server.metrics.counter("long_poll_requests") >= 1
                assert server.metrics.counter("events_emitted") > 0
        finally:
            server.stop()
