"""End-to-end tests of the operability surface: /healthz, /readyz, and the
Prometheus text exposition of /metrics (content negotiation included)."""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.client import VerifasClient
from repro.has.conditions import Const, Eq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.server.workers import children_alive
from repro.spec import dump_property, dump_system

OPTIONS = {"timeout_seconds": 60}


def _property():
    return LTLFOProperty(
        "Main", parse_ltl("F p"),
        {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked",
    )


@pytest.fixture
def server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=1,
        sweep_interval=0.1, worker_model=worker_model,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    with VerifasClient(server.url, poll_initial=0.02, poll_max=0.2) as client:
        yield client


def _raw_get(url: str, headers=None):
    """(status, content_type, body-text) without the client's JSON parsing."""
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, response.headers.get("Content-Type", ""),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return (error.code, error.headers.get("Content-Type", ""),
                error.read().decode("utf-8"))


class TestLivenessAndReadiness:
    def test_healthz_is_a_cheap_liveness_probe(self, client):
        view = client.healthz()
        assert view["status"] == "ok"
        assert view["uptime_seconds"] >= 0

    def test_readyz_on_a_healthy_server(self, server, client):
        ready, view = client.readyz()
        assert ready is True
        assert view["status"] == "ready"
        checks = view["checks"]
        assert checks["store"]["ok"] is True
        assert checks["workers"]["ok"] is True
        assert checks["workers"]["alive"] >= 1
        assert checks["workers"]["model"] == server.worker_model
        assert checks["sweeper"]["ok"] is True
        assert checks["sweeper"]["thread_alive"] is True

    def test_readyz_http_status_flips_to_503_when_store_fails(self, server):
        server.store.ping = lambda *a, **kw: False  # simulate a wedged store
        status, _ctype, body = _raw_get(f"{server.url}/v1/readyz")
        assert status == 503
        assert '"unready"' in body and '"store"' in body

    def test_client_reports_unready_as_a_verdict_not_an_error(self, server):
        server.store.ping = lambda *a, **kw: False
        with VerifasClient(server.url) as probe:
            ready, view = probe.readyz()
        assert ready is False
        assert view["status"] == "unready"
        assert view["checks"]["store"]["ok"] is False
        # The healthy checks are still reported for the operator.
        assert view["checks"]["sweeper"]["ok"] is True

    def test_api_only_server_is_ready_without_workers(self, tmp_path):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=0,
            sweep_interval=0.1,
        )
        server.start()
        try:
            with VerifasClient(server.url) as probe:
                ready, view = probe.readyz()
            assert ready is True
            assert view["checks"]["workers"]["total"] == 0
        finally:
            server.stop()


class TestWorkerPool:
    def test_one_runner_serves_every_job(self, tmp_path, worker_model, tiny_system):
        """A slot's runner lives until the server stops or the runner dies:
        40 real runs (distinct fingerprints) on one slot share one runner --
        one child pid on the process model, one thread on the thread model."""
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            sweep_interval=0.1, worker_model=worker_model,
        )
        server.start()
        try:
            [agent] = server._agents
            runners, pids = [], set()
            with VerifasClient(server.url, poll_initial=0.02, poll_max=0.2) as client:
                for timeout in range(60, 100):
                    handle = client.submit(
                        dump_system(tiny_system), [dump_property(_property())],
                        options={"timeout_seconds": timeout},
                    )[0]
                    assert client.wait(handle.id, deadline_seconds=60)["status"] == "done"
                    runners.append(agent.runner)
                    pids.add(server.metrics_view()["workers"]["pool"][0]["pid"])
                    assert children_alive(server._agents) == 1
            [gauge] = server.metrics_view()["workers"]["pool"]
            assert gauge["model"] == server.worker_model
            assert gauge["jobs_completed"] == 40 and gauge["crashes"] == 0
            assert all(runner is runners[0] for runner in runners)
            assert len(pids) == 1
            assert server.metrics.counter("verifications_run") == 40
        finally:
            server.stop()


class TestPrometheusExposition:
    def test_query_param_selects_the_text_format(self, server, client, tiny_system):
        # Run one job first so the latency summary has mass.
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_property())], options=OPTIONS
        )[0]
        client.wait(handle.id, deadline_seconds=60)

        text = client.metrics_prometheus()
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_jobs_submitted_total 1" in text
        assert "# TYPE repro_uptime_seconds gauge" in text
        assert "repro_up 1" in text
        assert text.endswith("\n")

        # The latency summary exposes quantiles, sum and count.
        assert '# TYPE repro_job_latency_seconds summary' in text
        assert 'repro_job_latency_seconds{quantile="0.5"}' in text
        assert "repro_job_latency_seconds_count 1" in text

        # Every worker slot registers in the pool on either worker model
        # (render_prometheus label formatting is unit-tested in
        # test_metrics.py).
        assert 'repro_worker_busy{worker_id="' in text

    def test_accept_header_negotiates_text(self, server):
        status, ctype, body = _raw_get(
            f"{server.url}/v1/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "repro_up 1" in body

    def test_json_stays_the_default(self, server):
        status, ctype, body = _raw_get(f"{server.url}/v1/metrics")
        assert status == 200
        assert ctype.startswith("application/json")
        assert body.lstrip().startswith("{")

    def test_format_json_overrides_a_text_accept_header(self, server):
        status, ctype, _body = _raw_get(
            f"{server.url}/v1/metrics?format=json",
            headers={"Accept": "text/plain"},
        )
        assert status == 200
        assert ctype.startswith("application/json")

    def test_server_id_label_is_escaped_and_reported(self, tmp_path):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=0,
            server_id="scrape-me",
        )
        server.start()
        try:
            with VerifasClient(server.url) as scraper:
                text = scraper.metrics_prometheus()
            assert 'repro_server_info{server_id="scrape-me"} 1' in text
        finally:
            server.stop()
