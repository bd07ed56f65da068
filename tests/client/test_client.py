"""Unit tests of repro.client plus the ``batch --remote`` CLI path."""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.client import ClientError, JobHandle, VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.spec import dump_property, dump_system, save_spec


class TestBackoff:
    def test_delays_grow_exponentially_and_cap(self):
        client = VerifasClient(
            "http://example.invalid", poll_initial=0.1, poll_max=0.5, poll_backoff=2.0
        )
        delays = list(itertools.islice(client._backoff(), 5))
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


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


class TestUrlEscaping:
    """Satellite: job ids (or attacker-controlled id strings) containing
    `/`, `?`, `#` or spaces must neither break the request line nor resolve
    to a different route -- every path segment and query value is escaped."""

    @pytest.fixture
    def requests(self, monkeypatch):
        """Capture (method, path) of every request the client would send."""
        client = VerifasClient("http://example.invalid")
        captured = []

        def fake_send(wire):
            captured.append((wire.method, wire.path))
            return 200, {}, b'{"events": [], "terminal": true}'

        monkeypatch.setattr(client, "_send", fake_send)
        return client, captured

    def test_path_segments_are_percent_escaped(self, requests):
        client, captured = requests
        hostile = "a/b?c=1#frag x"
        client.job(hostile)
        client.cancel(hostile)
        client.events(hostile, cursor=7, limit=9)
        escaped = "a%2Fb%3Fc%3D1%23frag%20x"
        assert captured == [
            ("GET", f"/v1/jobs/{escaped}"),
            ("DELETE", f"/v1/jobs/{escaped}"),
            ("GET", f"/v1/jobs/{escaped}/events?cursor=7&limit=9"),
        ]

    def test_query_values_are_escaped(self, requests):
        client, captured = requests
        client.jobs(status="queued&limit=0", limit=5)
        assert captured == [("GET", "/v1/jobs?limit=5&status=queued%26limit%3D0")]

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
