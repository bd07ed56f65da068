"""Unit tests of repro.client plus the ``batch --remote`` CLI path."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.cli import main
from repro.client import ClientError, JobHandle, VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.spec import save_spec


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
            client = VerifasClient(server.url)
            with pytest.raises(ClientError) as excinfo:
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
            client = VerifasClient(server.url)
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


class TestRemoteBatch:
    @pytest.fixture
    def spec_path(self, tiny_system, tmp_path):
        properties = [
            LTLFOProperty("Main", parse_ltl("G ns"),
                          {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
            LTLFOProperty("Main", parse_ltl("F p"),
                          {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked"),
        ]
        path = tmp_path / "tiny.spec.json"
        save_spec(tiny_system, path, properties=properties)
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
