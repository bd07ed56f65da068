"""End-to-end tests of distributed tracing across the server stack.

The acceptance path: a client submit carries a ``traceparent``, the HTTP
handler opens a server span, the trace context rides the job row through
the queue (and the worker pipe in the process model), the search emits
per-phase spans, and ``GET /v1/jobs/<id>/trace`` returns one coherent tree
renderable by ``python -m repro trace``.  Edge cases: malformed headers
start a fresh root (never a 500), cancelled and SIGKILL'd jobs close their
execution span with an error status, and a shared-store deployment stitches
spans from two servers into a single trace.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.client import VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.obs import format_traceparent, new_span_id, new_trace_id, render_trace
from repro.server import VerificationServer
from repro.spec import dump_property, dump_system

OPTIONS = {"timeout_seconds": 60}


def _property():
    return LTLFOProperty(
        "Main", parse_ltl("F p"),
        {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked",
    )


def _exploding_property(index: int = 0):
    return LTLFOProperty(
        "Main",
        parse_ltl("G !(p & q)"),
        {"p": Eq(Var("v0"), Const("c0")), "q": Eq(Var("v0"), Const("c1"))},
        name=f"consistent-{index}",
    )


def _wait_until(predicate, deadline_seconds: float = 30.0, message: str = "condition"):
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _wait_for_progress(client: VerifasClient, job_id: str) -> None:
    _wait_until(lambda: client.job(job_id)["status"] == "running",
                message="job to start running")
    _wait_until(
        lambda: any(e["kind"] == "progress" for e in client.events(job_id)["events"]),
        message="search progress",
    )


def _span_names(view) -> list:
    return [s["name"] for s in view["spans"]]


@pytest.fixture
def traced_server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=1,
        sweep_interval=0.1, progress_interval=25, worker_model=worker_model,
        trace_enabled=True,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def client(traced_server):
    with VerifasClient(traced_server.url, poll_initial=0.02, poll_max=0.2) as client:
        yield client


class TestTracedJobLifecycle:
    def test_one_trace_from_client_submit_to_search_phases(
        self, client, tiny_system
    ):
        """The headline acceptance criterion: a single trace covering the
        client submit, HTTP handling, queue wait, worker execution and at
        least three distinct core search phases."""
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_property())], options=OPTIONS
        )[0]
        assert handle.trace_id is not None  # surfaced at accept time
        client.wait(handle.id, deadline_seconds=60)

        view = client.trace(handle.id)
        assert view["trace_id"] == handle.trace_id
        names = _span_names(view)
        assert "http.submit" in names
        assert "queue.wait" in names
        assert "worker.execute" in names
        search_phases = {"verify.setup", "verify.search", "verify.verdict"}
        assert search_phases <= set(names)
        # One trace: every span carries the job's trace id.
        assert {s["trace_id"] for s in view["spans"]} == {handle.trace_id}

        # The tree is rooted at the client's (unrecorded) span and nests
        # execution under the submit span.
        assert len(view["tree"]) == 1
        root = view["tree"][0]
        assert root["span"]["name"] == "client (remote)"
        submit_node = root["children"][0]
        assert submit_node["span"]["name"] == "http.submit"
        child_names = {c["span"]["name"] for c in submit_node["children"]}
        assert {"queue.wait", "worker.execute"} <= child_names

        # The search span carries the hot-loop phase aggregates.
        search = next(s for s in view["spans"] if s["name"] == "verify.search")
        assert "successor-generation" in search["attrs"]["phases"]

        # And the whole thing renders as a waterfall.
        text = render_trace(view)
        assert "worker.execute" in text and "· successor-generation" in text

    def test_queue_wait_span_spans_submit_to_claim(self, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_property())], options=OPTIONS
        )[0]
        client.wait(handle.id, deadline_seconds=60)
        view = client.trace(handle.id)
        wait = next(s for s in view["spans"] if s["name"] == "queue.wait")
        execute = next(s for s in view["spans"] if s["name"] == "worker.execute")
        assert wait["duration"] >= 0.0
        assert execute["start_time"] >= wait["start_time"]
        # Both hang off the handler's submit span.
        submit = next(s for s in view["spans"] if s["name"] == "http.submit")
        assert wait["parent_id"] == submit["span_id"]
        assert execute["parent_id"] == submit["span_id"]

    def test_job_view_carries_the_trace_id(self, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_property())], options=OPTIONS
        )[0]
        assert client.job(handle.id)["trace_id"] == handle.trace_id

    def test_trace_of_unknown_job_is_404(self, client):
        from repro.client import ClientError
        with pytest.raises(ClientError) as excinfo:
            client.trace("no-such-job")
        assert excinfo.value.status == 404


class TestTraceparentEdgeCases:
    def _raw_submit(self, server, tiny_system, traceparent=None):
        payload = {
            "system": dump_system(tiny_system),
            "properties": [dump_property(_property())],
            "options": OPTIONS,
        }
        headers = {"Content-Type": "application/json"}
        if traceparent is not None:
            headers["traceparent"] = traceparent
        request = urllib.request.Request(
            f"{server.url}/v1/jobs", data=json.dumps(payload).encode("utf-8"),
            method="POST", headers=headers,
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)

    def test_missing_traceparent_starts_a_fresh_root(
        self, traced_server, tiny_system
    ):
        status, body = self._raw_submit(traced_server, tiny_system)
        assert status == 202
        job = body["jobs"][0]
        assert job["trace_id"]  # server minted one
        with VerifasClient(traced_server.url, poll_initial=0.02) as client:
            client.wait(job["id"], deadline_seconds=60)
            view = client.trace(job["id"])
            assert "worker.execute" in _span_names(view)
            # With no client context the handler's span IS the root.
            submit = next(s for s in view["spans"] if s["name"] == "http.submit")
            assert submit["parent_id"] is None

    @pytest.mark.parametrize("header", [
        "not-a-traceparent",
        "00-zzzz-yyyy-01",
        "00-" + "0" * 32 + "-" + "0" * 16 + "-01",  # all-zero: invalid per spec
    ])
    def test_malformed_traceparent_is_accepted_never_500(
        self, traced_server, tiny_system, header
    ):
        status, body = self._raw_submit(traced_server, tiny_system, traceparent=header)
        assert status == 202
        trace_id = body["jobs"][0]["trace_id"]
        assert trace_id is not None
        assert trace_id != "0" * 32  # a fresh root, not the invalid input

    def test_wellformed_traceparent_joins_the_client_trace(
        self, traced_server, tiny_system
    ):
        trace_id, span_id = new_trace_id(), new_span_id()
        status, body = self._raw_submit(
            traced_server, tiny_system,
            traceparent=format_traceparent(trace_id, span_id),
        )
        assert status == 202
        assert body["jobs"][0]["trace_id"] == trace_id

    def test_untraced_server_still_correlates_but_records_no_spans(
        self, tmp_path, worker_model, tiny_system
    ):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            worker_model=worker_model, trace_enabled=False,
        )
        server.start()
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(tiny_system), [dump_property(_property())],
                    options=OPTIONS,
                )[0]
                # The client's trace id is stamped for log correlation...
                assert handle.trace_id is not None
                client.wait(handle.id, deadline_seconds=60)
                # ...but no spans are recorded, and /trace still answers 200.
                view = client.trace(handle.id)
                assert view["spans"] == [] and view["tree"] == []
        finally:
            server.stop()

    def test_client_can_opt_out_of_trace_propagation(
        self, traced_server, tiny_system
    ):
        with VerifasClient(
            traced_server.url, poll_initial=0.02, trace_submissions=False
        ) as client:
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_property())], options=OPTIONS
            )[0]
            # The traced server still mints a server-side root trace.
            assert handle.trace_id is not None
            client.wait(handle.id, deadline_seconds=60)
            assert "worker.execute" in _span_names(client.trace(handle.id))


class TestFailureSpans:
    def test_cancelled_job_closes_its_execution_span_with_error(
        self, tmp_path, worker_model, exploding_system
    ):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            sweep_interval=0.1, progress_interval=25, worker_model=worker_model,
            trace_enabled=True,
        )
        server.start()
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_for_progress(client, handle.id)
                client.cancel(handle.id)
                view = client.wait(handle.id, deadline_seconds=30)
                assert view["status"] == "cancelled"

                trace = client.trace(handle.id)
                execute = next(
                    s for s in trace["spans"] if s["name"] == "worker.execute"
                )
                assert execute["status"] == "error"
                assert execute["attrs"]["reason"] == "cancelled"
                assert execute["duration"] > 0.0  # closed, not dangling
        finally:
            server.stop()

    @pytest.mark.skipif(
        os.environ.get("REPRO_TEST_WORKER_MODEL") == "thread",
        reason="process worker model explicitly disabled for this run",
    )
    def test_sigkilled_worker_closes_the_span_as_worker_crashed(
        self, tmp_path, exploding_system
    ):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            sweep_interval=0.1, progress_interval=25, worker_model="process",
            trace_enabled=True,
        )
        server.start()
        if server.worker_model != "process":  # pragma: no cover - sandbox guard
            server.stop()
            pytest.skip(f"no process support here: {server.worker_fallback_error}")
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000, "timeout_seconds": 3},
                )[0]
                _wait_for_progress(client, handle.id)
                victim_pid = server.metrics_view()["workers"]["pool"][0]["pid"]
                os.kill(victim_pid, signal.SIGKILL)

                # The job re-runs on a respawned child and completes; the
                # *first* execution's span was closed by the agent with the
                # crash disposition (the child could not have done it).
                client.wait(handle.id, deadline_seconds=60)
                trace = client.trace(handle.id)
                executions = [
                    s for s in trace["spans"] if s["name"] == "worker.execute"
                ]
                assert len(executions) == 2  # crashed attempt + successful re-run
                crashed = [s for s in executions if s["status"] == "error"]
                assert len(crashed) == 1
                assert crashed[0]["attrs"]["reason"] == "worker-crashed"
        finally:
            server.stop()


class TestCrossServerTrace:
    def test_shared_store_spans_stitch_into_one_trace(
        self, tmp_path, worker_model, tiny_system
    ):
        """Submit on an API-only server, execute on a peer with workers: the
        /trace view on *either* server shows the whole story, because spans
        key on the trace id persisted with the job row."""
        store_path = tmp_path / "shared.db"
        frontend = VerificationServer(
            store_path=store_path, port=0, workers=0, server_id="front",
            sweep_interval=0.1, trace_enabled=True,
        )
        frontend.start()
        backend = VerificationServer(
            store_path=store_path, port=0, workers=1, server_id="back",
            sweep_interval=0.1, progress_interval=25, worker_model=worker_model,
            trace_enabled=True,
        )
        backend.start()
        try:
            with VerifasClient(frontend.url, poll_initial=0.02) as submit_client:
                handle = submit_client.submit(
                    dump_system(tiny_system), [dump_property(_property())],
                    options=OPTIONS,
                )[0]
                submit_client.wait(handle.id, deadline_seconds=60)

                for url in (frontend.url, backend.url):
                    with VerifasClient(url) as reader:
                        view = reader.trace(handle.id)
                    names = _span_names(view)
                    assert "http.submit" in names       # recorded by the frontend
                    assert "worker.execute" in names    # recorded by the backend
                    assert "verify.search" in names
                    assert {s["trace_id"] for s in view["spans"]} == {handle.trace_id}
                    execute = next(
                        s for s in view["spans"] if s["name"] == "worker.execute"
                    )
                    assert execute["attrs"]["worker_id"].startswith("back:")
        finally:
            backend.stop()
            frontend.stop()
