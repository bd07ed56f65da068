"""Unit tests of repro.client plus the ``batch --remote`` CLI path.

The protocol tests need no server: the ``scripted`` fixture stubs
``VerifasClient._send`` with scripted ``(status, body)`` replies,
records every request it is handed and records ``time.sleep`` delays
instead of sleeping them.
"""

from __future__ import annotations

import itertools
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import pytest

from repro.cli import main
from repro.client import (
    ClientError,
    JobHandle,
    RemoteJobError,
    SpecRejectedError,
    VerifasClient,
)
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.spec import dump_property, dump_system, save_spec

HOSTILE = "a/b?c=1#frag x"
ESCAPED = "a%2Fb%3Fc%3D1%23frag%20x"


class Sent(NamedTuple):
    """One request as ``VerifasClient._send`` receives it."""

    method: str
    path: str
    body: object
    timeout: float
    headers: dict


@pytest.fixture
def scripted(monkeypatch):
    """``make(replies, **client_kwargs) -> (client, sent, sleeps)``.

    The client answers its n-th request with the n-th of *replies*, a
    ``(status, body)`` pair whose *body* is bytes or a value to
    JSON-encode; *sent* lists the requests and *sleeps* the delays the
    client would have slept.
    """
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)

    def make(replies, **kwargs):
        kwargs.setdefault("api_key", "s3cret-token")
        client = VerifasClient("http://example.invalid", **kwargs)
        replies = iter(replies)
        sent = []

        def send(*request):
            sent.append(Sent(*request))
            status, body = next(replies)
            return status, body if isinstance(body, bytes) else json.dumps(body).encode()

        monkeypatch.setattr(client, "_send", send)
        return client, sent, sleeps

    return make


def _ok(body):
    """An endless script answering every request with 200 and *body*."""
    return itertools.repeat((200, body))


class TestBackoff:
    def test_delays_grow_exponentially_and_cap(self):
        client = VerifasClient(
            "http://example.invalid", poll_initial=0.1, poll_max=0.5, poll_backoff=2.0
        )
        delays = list(itertools.islice(client._backoff(), 5))
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_wait_sleeps_on_the_capped_backoff_until_terminal(self, scripted):
        views = [{"status": "queued"}] * 3 + [{"status": "done", "id": "j"}]
        client, sent, sleeps = scripted(
            [(200, view) for view in views], poll_initial=0.1, poll_max=0.3, poll_backoff=2.0
        )
        assert client.wait("j", 60) == {"status": "done", "id": "j"}
        assert sleeps == [0.1, 0.2, 0.3] and len(sent) == 4


class TestJobHandle:
    def test_from_dict_defaults(self):
        handle = JobHandle.from_dict({"id": "abc", "fingerprint": "fp"})
        assert handle.id == "abc" and handle.url == "/v1/jobs/abc"
        assert handle.status == "queued"

    def test_from_full_dict(self):
        handle = JobHandle.from_dict({
            "id": "abc", "fingerprint": "fp", "system": "s", "property": "p",
            "status": "queued", "url": "/v1/jobs/abc",
        })
        assert handle.system == "s" and handle.property == "p"


class TestErrorMapping:
    def test_http_error_carries_status_and_body(self, tmp_path):
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        try:
            with VerifasClient(server.url) as client, pytest.raises(ClientError) as excinfo:
                client.submit_payload({"schema_version": 1})  # no system section
            assert excinfo.value.status == 400
            assert "system" in str(excinfo.value)
        finally:
            server.stop()

    def test_non_json_success_body_is_a_client_error(self, html_server):
        with pytest.raises(ClientError) as excinfo:
            VerifasClient(html_server).healthz()
        assert excinfo.value.status == 200 and "malformed JSON" in str(excinfo.value)

    def test_trailing_slash_base_url_is_normalised(self):
        assert VerifasClient("http://host:1/").base_url == "http://host:1"

    def test_success_body_is_decoded(self, scripted):
        client, _, _ = scripted([(200, b'{"ok": true}')])
        assert client.healthz() == {"ok": True}

    @pytest.mark.parametrize("data", [b"<html>oops</html>", b"", b"[1, 2]", b"\xff"])
    def test_success_body_that_is_not_a_json_object_is_a_client_error(self, scripted, data):
        client, _, _ = scripted([(200, data)])
        with pytest.raises(ClientError) as excinfo:
            client.jobs()
        assert excinfo.value.status == 200
        assert str(excinfo.value) == "malformed JSON body in HTTP 200 on GET /v1/jobs?limit=100"

    def test_text_is_returned_when_the_request_asked_for_it(self, scripted):
        client, sent, _ = scripted([(200, b"repro_up 1\n")])
        assert client.metrics_prometheus() == "repro_up 1\n"
        assert sent[0].headers["Accept"] == "text/plain"

    @pytest.mark.parametrize(
        "status, data, kind, message",
        [
            (400, b'{"error": "bad payload"}', ClientError, "bad payload"),
            (401, b'{"error": "missing key"}', ClientError, "missing key"),
            (404, b"not json", ClientError, "HTTP 404 on GET /v1/jobs?limit=100"),
            (422, b'{"error": "rejected", "diagnostics": [{"code": "VA101"}]}',
             SpecRejectedError, "rejected"),
            (429, b'{"error": "slow down", "retry_after": 0.5}', ClientError, "slow down"),
            (503, b'{"error": "server is shutting down"}', ClientError,
             "server is shutting down"),
        ],
    )
    def test_error_statuses_map_to_client_errors(self, scripted, status, data, kind, message):
        """Every error status is raised at once: none is slept out or sent
        again."""
        client, sent, sleeps = scripted([(status, data)])
        with pytest.raises(ClientError) as excinfo:
            client.jobs()
        assert type(excinfo.value) is kind
        assert excinfo.value.status == status and str(excinfo.value) == message
        assert len(sent) == 1 and sleeps == []
        if kind is SpecRejectedError:
            assert excinfo.value.diagnostics == [{"code": "VA101"}]

    def test_submit_reads_handles_from_a_202_only(self, scripted):
        client, _, _ = scripted([
            (202, {"jobs": [{"id": "j/1", "fingerprint": "fp"}]}),
            (200, {"jobs": []}),
        ])
        [handle] = client.submit_payload({})
        assert handle.url == "/v1/jobs/j%2F1"
        with pytest.raises(ClientError, match="unexpected status 200"):
            client.submit_payload({})


class TestUrlEscaping:
    """Satellite: job ids (or attacker-controlled id strings) containing
    `/`, `?`, `#` or spaces must neither break the request line nor resolve
    to a different route -- every path segment and query value is escaped."""

    def test_path_segments_are_percent_escaped(self, scripted):
        client, sent, _ = scripted(_ok({"events": [], "terminal": True}))
        client.job(HOSTILE)
        client.cancel(HOSTILE)
        client.trace(HOSTILE)
        client.events(HOSTILE, cursor=7, limit=9)
        assert [(request.method, request.path) for request in sent] == [
            ("GET", f"/v1/jobs/{ESCAPED}"),
            ("DELETE", f"/v1/jobs/{ESCAPED}"),
            ("GET", f"/v1/jobs/{ESCAPED}/trace"),
            ("GET", f"/v1/jobs/{ESCAPED}/events?cursor=7&limit=9"),
        ]

    def test_query_values_are_escaped(self, scripted):
        client, sent, _ = scripted(_ok({"jobs": []}))
        client.jobs(status="queued&limit=0", limit=5)
        client.job_views([HOSTILE])
        assert [request.path for request in sent] == [
            "/v1/jobs?limit=5&status=queued%26limit%3D0",
            f"/v1/jobs?id={ESCAPED.replace('%20', '+')}",
        ]

    def test_hostile_id_round_trips_to_a_clean_404(self, tmp_path):
        """Against a live server: the escaped id reaches the job route (not
        a surprise route or a broken request) and 404s with the id echoed."""
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        try:
            with VerifasClient(server.url) as client:
                for hostile in ("a/b", "a?x=1", "a#frag", "a b", "../../metrics"):
                    with pytest.raises(ClientError) as excinfo:
                        client.job(hostile)
                    assert excinfo.value.status == 404
                    assert "no job with id" in str(excinfo.value)
                    with pytest.raises(ClientError) as excinfo:
                        client.cancel(hostile)
                    assert excinfo.value.status == 404
                    assert "no job with id" in str(excinfo.value)
        finally:
            server.stop()


class TestRequests:
    def test_views_are_deduplicated_and_fetched_100_ids_at_a_time(self, scripted):
        client, sent, _ = scripted(_ok({"jobs": []}))
        assert client.job_views([f"j{i}" for i in range(250)] + ["j0", "j1"]) == {}
        sizes = [len(re.findall(r"(?:\?|&)id=", request.path)) for request in sent]
        assert sizes == [100, 100, 50]
        assert sent[0].path.startswith("/v1/jobs?id=j0&id=j1&")
        assert "id=j249" in sent[-1].path
        sent.clear()
        assert client.job_views([]) == {} and sent == []

    def test_views_of_every_chunk_are_merged(self, scripted):
        client, _, _ = scripted([
            (200, {"jobs": [{"id": f"j{i}", "status": "done"} for i in range(100)]}),
            (200, {"jobs": [{"id": "j100", "status": "queued"}]}),
        ])
        views = client.job_views([f"j{i}" for i in range(101)])
        assert len(views) == 101 and views["j100"]["status"] == "queued"

    def test_long_poll_widens_the_timeout(self, scripted):
        client, sent, _ = scripted(_ok({"events": []}))
        client.events("j", wait_ms=2500)
        client.events("j")
        assert sent[0].timeout == pytest.approx(32.5)
        assert "wait_ms=2500" in sent[0].path
        assert sent[1].timeout == 30.0  # the client's default

    def test_submit_mints_a_traceparent_unless_given_or_disabled(self, scripted):
        client, sent, _ = scripted(itertools.repeat((202, {"jobs": []})))
        client.submit_payload({"x": 1})
        assert re.fullmatch(r"00-[0-9a-f]{32}-[0-9a-f]{16}-01", sent[0].headers["traceparent"])
        client.submit_payload({}, traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01")
        assert sent[1].headers["traceparent"].startswith("00-111")
        client.trace_submissions = False
        client.submit_payload({})
        assert "traceparent" not in sent[2].headers

    def test_request_carries_auth_json_and_the_default_timeout(self, scripted):
        client, sent, _ = scripted([(202, {"jobs": []})])
        assert client.submit_payload({"a": 1}) == []
        request = sent[0]
        assert (request.method, request.path) == ("POST", "/v1/jobs")
        assert request.body == b'{"a": 1}' and request.timeout == 30.0
        assert request.headers["Authorization"] == "Bearer s3cret-token"
        assert request.headers["Content-Type"] == "application/json"
        assert request.headers["Accept"] == "application/json"

    @pytest.mark.parametrize("environment", [None, ""])
    def test_anonymous_client_sends_no_authorization(self, scripted, monkeypatch, environment):
        if environment is None:
            monkeypatch.delenv("REPRO_API_KEY", raising=False)
        else:
            monkeypatch.setenv("REPRO_API_KEY", environment)
        client, sent, _ = scripted(_ok({}), api_key=None)
        client.healthz()
        assert client.api_key is None
        assert "Authorization" not in sent[0].headers and sent[0].body is None

    def test_token_defaults_from_the_environment(self, scripted, monkeypatch):
        monkeypatch.setenv("REPRO_API_KEY", "from-env")
        client, sent, _ = scripted(_ok({}), api_key=None)
        client.job("j")
        assert sent[0].headers["Authorization"] == "Bearer from-env"

    def test_explicit_token_wins_over_the_environment(self, scripted, monkeypatch):
        monkeypatch.setenv("REPRO_API_KEY", "from-env")
        client, sent, _ = scripted(_ok({}), api_key="explicit")
        client.cancel("j")
        assert sent[0].headers["Authorization"] == "Bearer explicit"

    @pytest.mark.parametrize(
        "call, status, body, method, path",
        [
            (lambda c: c.healthz(), 200, {}, "GET", "/v1/healthz"),
            (lambda c: c.readyz(), 200, {}, "GET", "/v1/readyz"),
            (lambda c: c.metrics(), 200, {}, "GET", "/v1/metrics"),
            (lambda c: c.metrics_prometheus(), 200, b"", "GET", "/v1/metrics?format=prometheus"),
            (lambda c: c.submit_payload({}), 202, {"jobs": []}, "POST", "/v1/jobs"),
            (lambda c: c.job("j"), 200, {}, "GET", "/v1/jobs/j"),
            (lambda c: c.jobs(), 200, {}, "GET", "/v1/jobs?limit=100"),
            (lambda c: c.jobs("done", 5), 200, {}, "GET", "/v1/jobs?limit=5&status=done"),
            (lambda c: c.job_views(["a", "b", "a"]), 200, {"jobs": []}, "GET",
             "/v1/jobs?id=a&id=b"),
            (lambda c: c.events("j", 3), 200, {}, "GET", "/v1/jobs/j/events?cursor=3&limit=500"),
            (lambda c: c.trace("j"), 200, {}, "GET", "/v1/jobs/j/trace"),
            (lambda c: c.cancel("j"), 200, {}, "DELETE", "/v1/jobs/j"),
        ],
        ids=[
            "healthz", "readyz", "metrics", "metrics_prometheus", "submit_payload", "job",
            "jobs", "jobs_filtered", "job_views", "events", "trace", "cancel",
        ],
    )
    def test_each_api_call_is_one_request_to_its_route(
        self, scripted, monkeypatch, call, status, body, method, path
    ):
        """``_request`` runs once per API call (request counters that
        override it rely on this) and sends exactly one request."""
        client, sent, _ = scripted([(status, body)])
        calls = []
        request = client._request

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return request(*args, **kwargs)

        monkeypatch.setattr(client, "_request", counting)
        call(client)
        assert calls == [(method, path)]
        assert [(r.method, r.path) for r in sent] == [(method, path)]


def _page(first, count, terminal):
    return 200, {"events": [{"seq": seq} for seq in range(first, first + count)],
                 "terminal": terminal}


class TestEventsTerminalPage:
    def test_short_terminal_page_ends_with_no_extra_request(self, scripted):
        client, sent, _ = scripted([_page(1, 3, True)])
        events = list(client.iter_events("j", 60, poll_limit=3 + 1))
        assert [event["seq"] for event in events] == [1, 2, 3] and len(sent) == 1

    def test_full_terminal_page_fetches_again_from_the_cursor(self, scripted):
        client, sent, _ = scripted([_page(1, 2, True), _page(3, 0, True)])
        events = list(client.iter_events("j", 60, poll_limit=2))
        assert [event["seq"] for event in events] == [1, 2] and len(sent) == 2
        assert "cursor=2&limit=2&wait_ms=" in sent[1].path

    def test_a_plain_page_sends_no_wait_and_never_sleeps(self, scripted):
        """``events`` without *wait_ms* is one page read at once: the path a
        caller behind a proxy that cuts long requests pages with."""
        client, sent, sleeps = scripted([_page(3, 2, False)])
        page = client.events("j", 2, 10)
        assert [event["seq"] for event in page["events"]] == [3, 4]
        assert [request.path for request in sent] == ["/v1/jobs/j/events?cursor=2&limit=10"]
        assert sleeps == []

    @pytest.mark.parametrize("push_events", [None, True, False], ids=["default", "on", "off"])
    def test_iter_events_never_sleeps_on_an_empty_page(self, scripted, push_events):
        """Every client long-polls; ``push_events`` is accepted and has no
        effect."""
        kwargs = {} if push_events is None else {"push_events": push_events}
        client, sent, sleeps = scripted([_page(1, 0, False), _page(1, 0, False),
                                         _page(1, 1, True)], **kwargs)
        assert len(list(client.iter_events("j", 60, poll_limit=10))) == 1
        assert sleeps == [] and all("wait_ms=" in request.path for request in sent)

    def test_a_spent_deadline_raises_timeout(self, scripted):
        """The deadline is checked before each long-poll, so a spent one
        sends nothing."""
        client, sent, sleeps = scripted(_ok({"events": [], "terminal": False}))
        with pytest.raises(TimeoutError, match="still emitting"):
            list(client.iter_events("j", 0))
        assert len(sent) == 0 and sleeps == []


class TestBatchWait:
    def test_missing_id_is_a_404_client_error(self, scripted):
        client, _, _ = scripted(_ok({"jobs": [{"id": "known", "status": "queued"}]}))
        with pytest.raises(ClientError) as excinfo:
            client.wait_all(["known", "ghost"], 60)
        assert excinfo.value.status == 404 and "ghost" in str(excinfo.value)

    def test_returns_in_completion_order_and_resets_backoff_on_progress(self, scripted):
        rounds = [
            {"a": "queued", "b": "running"},
            {"a": "queued", "b": "running"},
            {"a": "queued", "b": "done"},
            {"a": "error"},
        ]
        client, sent, sleeps = scripted(
            [(200, {"jobs": [{"id": i, "status": s} for i, s in statuses.items()]})
             for statuses in rounds],
            poll_initial=0.1, poll_max=1.0, poll_backoff=2.0,
        )
        views = client.wait_all(["a", "b", "a"], 60)
        assert list(views) == ["b", "a"] and views["a"]["status"] == "error"
        assert sleeps == [0.1, 0.2, 0.1]
        assert "id=b" not in sent[-1].path

    def test_no_ids_means_no_requests(self, scripted):
        client, sent, sleeps = scripted([])
        assert client.wait_all([], 60) == {} and sent == [] and sleeps == []


class _DroppingHandler(BaseHTTPRequestHandler):
    """Keep-alive HTTP/1.1 handler that records every request it reads and
    closes the connection without an answer on the ones listed in
    ``server.drop`` (by arrival index)."""

    protocol_version = "HTTP/1.1"

    def _serve(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.seen.append(self.command)
        if len(self.server.seen) - 1 in self.server.drop:
            self.close_connection = True
            return
        body = b'{"status": "ok"}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = do_DELETE = _serve

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


class TestConnectionReuse:
    """The sync client keeps one HTTP/1.1 connection per calling thread."""

    @pytest.fixture
    def server(self, tmp_path):
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        yield server
        server.stop()

    @pytest.fixture
    def dropping_server(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _DroppingHandler)
        server.daemon_threads = True
        server.seen, server.drop = [], set()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_threads_sharing_a_client_get_their_own_connections(self, server, tiny_system):
        client = VerifasClient(server.url)
        payload = {
            "schema_version": 1,
            "system": dump_system(tiny_system),
            "properties": [dump_property(p) for p in _properties()],
        }
        # No workers: the four jobs (two per submit) stay queued.
        job_ids = [handle.id for _ in range(2) for handle in client.submit_payload(payload)]
        before = server.metrics.counter("connections")
        mismatches, errors = [], []

        def poll(job_id):
            try:
                for _ in range(50):
                    view = client.job(job_id)
                    if view["id"] != job_id:
                        mismatches.append((job_id, view["id"]))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=poll, args=(job_id,)) for job_id in job_ids]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches
        assert server.metrics.counter("connections") - before == len(job_ids) == 4

    def test_get_reconnects_to_a_restarted_server(self, tmp_path):
        store = tmp_path / "jobs.db"
        server = VerificationServer(store_path=store, port=0, workers=0)
        server.start()
        client = VerifasClient(server.url)
        try:
            client.healthz()
            server.stop()
            server = VerificationServer(store_path=store, port=server.port, workers=0)
            server.start()
            assert client.healthz()["status"] == "ok"
            assert server.metrics.counter("connections") == 1
        finally:
            client.close()
            server.stop()

    def test_get_is_sent_again_on_a_fresh_connection(self, dropping_server):
        dropping_server.drop = {1}
        with VerifasClient(f"http://127.0.0.1:{dropping_server.server_port}") as client:
            client.healthz()
            assert client.healthz() == {"status": "ok"}
        assert dropping_server.seen == ["GET", "GET", "GET"]

    def test_post_is_never_sent_twice(self, dropping_server):
        dropping_server.drop = {1}
        with VerifasClient(f"http://127.0.0.1:{dropping_server.server_port}") as client:
            client.healthz()
            with pytest.raises(ClientError, match="no response from"):
                client.submit_payload({"schema_version": 1})
        assert dropping_server.seen == ["GET", "POST"]

    def test_refused_connection_is_a_client_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = VerifasClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(ClientError, match=f"cannot reach http://127.0.0.1:{port}"):
            client.healthz()

    def test_close_closes_every_connection_the_client_opened(self, server):
        def sockets(client):
            return [connection.sock for _, connection in client._connections._opened]

        with VerifasClient(server.url) as client:
            client.healthz()
            thread = threading.Thread(target=client.healthz)
            thread.start()
            thread.join(timeout=10)
            opened = sockets(client)
            assert len(opened) == 2 and all(sock.fileno() >= 0 for sock in opened)
        assert all(sock.fileno() == -1 for sock in opened)
        assert sockets(client) == [None, None]
        # A closed client stays usable: its next call opens a fresh connection.
        before = server.metrics.counter("connections")
        client.healthz()
        client.close()
        assert server.metrics.counter("connections") - before == 1


def _properties():
    return [
        LTLFOProperty("Main", parse_ltl("G ns"),
                      {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
        LTLFOProperty("Main", parse_ltl("F p"),
                      {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked"),
    ]


class TestLiveJobs:
    """The waiting and event-stream calls against a live server."""

    @pytest.fixture
    def server(self, tmp_path, worker_model):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=2,
            progress_interval=25, worker_model=worker_model,
        )
        server.start()
        yield server
        server.stop()

    @pytest.fixture
    def idle_server(self, tmp_path):
        """No workers: jobs stay queued until the test moves them on."""
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        yield server
        server.stop()

    @staticmethod
    def _submit(client, system, properties):
        return client.submit(
            dump_system(system), [dump_property(p) for p in properties],
            options={"timeout_seconds": 60},
        )

    def test_iter_events_ends_with_done(self, server, tiny_system):
        with VerifasClient(server.url, wait_ms=5_000) as client:
            [handle] = self._submit(client, tiny_system, _properties()[1:])
            events = list(client.iter_events(handle.id, deadline_seconds=60))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "phase" and kinds[-1] == "done"
        assert [event["seq"] for event in events] == list(range(1, len(events) + 1))

    def test_job_views_skip_unknown_ids(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url) as client:
            handles = self._submit(client, tiny_system, _properties())
            views = client.job_views([h.id for h in handles] + ["ghost"])
        assert set(views) == {h.id for h in handles}
        assert all(view["status"] == "queued" for view in views.values())

    def test_wait_all_times_out_on_a_stuck_job(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02, poll_max=0.1) as client:
            [handle] = self._submit(client, tiny_system, _properties()[:1])
            started = time.monotonic()
            with pytest.raises(TimeoutError, match="1 job"):
                client.wait_all([handle.id], deadline_seconds=0.5)
        assert time.monotonic() - started < 5.0

    def test_wait_returns_the_error_view_when_told_not_to_raise(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            [handle] = self._submit(client, tiny_system, _properties()[:1])
            idle_server.store.claim_next("test:proc-0")
            idle_server.store.mark_error(handle.id, "synthetic failure", worker_id="test:proc-0")
            with pytest.raises(RemoteJobError, match="synthetic failure"):
                client.wait(handle.id, deadline_seconds=10)
            view = client.wait(handle.id, deadline_seconds=10, raise_on_error=False)
        assert view["status"] == "error" and "synthetic failure" in view["error"]

    def test_wait_all_returns_error_jobs_without_raising(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            failed, queued = self._submit(client, tiny_system, _properties())
            assert idle_server.store.claim_next("test:proc-0").id == failed.id
            idle_server.store.mark_error(failed.id, "synthetic failure", worker_id="test:proc-0")
            client.cancel(queued.id)
            views = client.wait_all([failed.id, queued.id], deadline_seconds=10)
        assert views[failed.id]["status"] == "error"
        assert views[queued.id]["status"] == "cancelled"


class TestRemoteBatch:
    @pytest.fixture
    def spec_path(self, tiny_system, tmp_path):
        path = tmp_path / "tiny.spec.json"
        save_spec(tiny_system, path, properties=_properties())
        return path

    @pytest.fixture
    def server(self, tmp_path):
        server = VerificationServer(
            store_path=tmp_path / "remote-jobs.db", port=0, workers=2
        )
        server.start()
        yield server
        server.stop()

    def test_batch_remote_round_trips_through_the_server(self, spec_path, server, capsys):
        exit_code = main([
            "batch", str(spec_path), "--remote", server.url, "--json",
            "--timeout", "60", "--ttl", "3600",
        ])
        data = json.loads(capsys.readouterr().out)
        assert exit_code == 1  # never-shipped is violated
        assert data["total"] == 2
        outcomes = {r["property"]: r["outcome"] for r in data["results"]}
        assert outcomes == {"never-shipped": "violated", "eventually-picked": "satisfied"}
        # The jobs really ran on the server, not locally.
        assert server.metrics.counter("jobs_completed") == 2

    def test_batch_remote_unreachable_server_exits_2(self, spec_path, capsys):
        exit_code = main([
            "batch", str(spec_path), "--remote", "http://127.0.0.1:9", "--timeout", "5",
        ])
        assert exit_code == 2
        assert "cannot reach" in capsys.readouterr().err
