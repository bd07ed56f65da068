"""End-to-end tests of the HTTP verification server (repro.server).

Covers the subsystem acceptance criteria: jobs submitted over HTTP from
concurrent client threads, a server killed mid-queue, and a restart on the
same SQLite store that serves completed results without re-invoking the
verifier while resuming and finishing the queued jobs.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import VerifasClient
from repro.core.options import VerifierOptions
from repro.core.stats import SearchStatistics
from repro.has.conditions import Const, Eq, Neq, NULL, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.ltl.parser import MAX_FORMULA_DEPTH
from repro.server import VerificationServer
from repro.server.handlers import ApiHandler
from repro.spec import SpecBundle, dump_property, dump_system

OPTIONS = {"timeout_seconds": 30}


# ---------------------------------------------------------------------- client


def _request(url: str, method: str = "GET", payload=None):
    """(status, parsed JSON body) for one API call; errors don't raise."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _submit(url: str, payload) -> list:
    status, body = _request(f"{url}/v1/jobs", "POST", payload)
    assert status == 202, body
    return body["jobs"]


def _wait_for(url: str, job_ids, deadline_seconds: float = 60.0) -> dict:
    """Poll until every job id is done/error; returns {id: job view}."""
    deadline = time.monotonic() + deadline_seconds
    views = {}
    while time.monotonic() < deadline:
        views = {}
        for job_id in job_ids:
            status, body = _request(f"{url}/v1/jobs/{job_id}")
            assert status == 200, body
            views[job_id] = body
        if all(v["status"] in ("done", "error") for v in views.values()):
            return views
        time.sleep(0.05)
    raise AssertionError(f"jobs did not finish in time: {views}")


def _payload(system, properties, label=None):
    data = {
        "schema_version": 1,
        "system": dump_system(system),
        "properties": [dump_property(p) for p in properties],
        "options": OPTIONS,
    }
    if label is not None:
        data["label"] = label
    return data


def _properties(task="Main"):
    picked = Eq(Var("status"), Const("picked"))
    shipped = Eq(Var("status"), Const("shipped"))
    return [
        LTLFOProperty(task, parse_ltl("G ns"), {"ns": Neq(Var("status"), Const("shipped"))},
                      name="never-shipped"),
        LTLFOProperty(task, parse_ltl("G (p -> F s)"), {"p": picked, "s": shipped},
                      name="picked-then-shipped"),
        LTLFOProperty(task, parse_ltl("F p"), {"p": picked}, name="eventually-picked"),
        LTLFOProperty(task, parse_ltl("G (s -> X n)"), {"s": shipped, "n": Eq(Var("status"), NULL)},
                      name="reset-after-ship"),
    ]


@pytest.fixture
def server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=2, worker_model=worker_model
    )
    server.start()
    yield server
    server.stop()


# -------------------------------------------------------------------- protocol


class TestApi:
    def test_healthz(self, server):
        code, body = _request(f"{server.url}/v1/healthz")
        assert code == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_submit_poll_and_fetch_result_with_counterexample(self, server, tiny_system):
        jobs = _submit(server.url, _payload(tiny_system, _properties()[:1], label="smoke"))
        assert len(jobs) == 1 and jobs[0]["status"] == "queued"
        assert jobs[0]["property"] == "never-shipped"
        view = _wait_for(server.url, [jobs[0]["id"]])[jobs[0]["id"]]
        assert view["status"] == "done" and view["label"] == "smoke"
        result = view["result"]
        assert result["outcome"] == "violated"
        # The persisted counterexample travels through HTTP intact.
        services = [step["service"] for step in result["counterexample"]["steps"]]
        assert "ship" in services

    def test_one_job_per_property(self, server, tiny_system):
        jobs = _submit(server.url, _payload(tiny_system, _properties()))
        assert [j["property"] for j in jobs] == [p.name for p in _properties()]
        assert len({j["fingerprint"] for j in jobs}) == 4

    def test_single_property_payload(self, server, tiny_system):
        payload = {
            "system": dump_system(tiny_system),
            "property": dump_property(_properties()[2]),
            "options": OPTIONS,
        }
        jobs = _submit(server.url, payload)
        views = _wait_for(server.url, [jobs[0]["id"]])
        assert views[jobs[0]["id"]]["result"]["outcome"] == "satisfied"

    def test_duplicate_submission_is_a_cache_hit(self, server, tiny_system):
        payload = _payload(tiny_system, _properties()[:1])
        first = _submit(server.url, payload)[0]
        _wait_for(server.url, [first["id"]])
        runs_before = _request(f"{server.url}/v1/metrics")[1]["counters"]["verifications_run"]
        second = _submit(server.url, payload)[0]
        assert second["id"] != first["id"]
        assert second["fingerprint"] == first["fingerprint"]
        view = _wait_for(server.url, [second["id"]])[second["id"]]
        assert view["cache_hit"] is True
        assert view["result"]["outcome"] == "violated"
        runs_after = _request(f"{server.url}/v1/metrics")[1]["counters"]["verifications_run"]
        assert runs_after == runs_before  # verifier not re-invoked

    def test_concurrent_duplicate_submissions_verify_once(self, server, tiny_system):
        """Two in-flight jobs with one fingerprint must not both hit the verifier."""
        payload = _payload(tiny_system, _properties()[:1])
        jobs, errors = [], []
        lock = threading.Lock()

        def client():
            try:
                submitted = _submit(server.url, payload)
                with lock:
                    jobs.extend(submitted)
            except Exception as error:  # pragma: no cover - surfaced by assert
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors and len(jobs) == 4
        views = _wait_for(server.url, [j["id"] for j in jobs])
        assert all(v["status"] == "done" for v in views.values())
        assert sorted(v["cache_hit"] for v in views.values()) == [False, True, True, True]
        _, metrics = _request(f"{server.url}/v1/metrics")
        assert metrics["counters"]["verifications_run"] == 1

    def test_keep_alive_connection_survives_an_unread_post_body(self, server, tiny_system):
        """Error paths that skip the body must not corrupt a reused connection."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            body = json.dumps(_payload(tiny_system, _properties()[:1]))
            connection.request("POST", "/nope", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
            # The server closed the connection rather than leave the unread
            # body to be misparsed as the next request line; http.client
            # transparently reconnects for the follow-up request.
            connection.request("GET", "/v1/healthz")
            follow_up = connection.getresponse()
            assert follow_up.status == 200
            follow_up.read()
        finally:
            connection.close()

    def test_reused_keep_alive_connection_answers_promptly(self, server):
        """Headers and body go out in two sends: with Nagle's algorithm on,
        each request on a reused connection waited out a delayed ACK."""
        import http.client
        import statistics

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            seconds = []
            for _ in range(10):
                started = time.perf_counter()
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                seconds.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020, seconds

    def test_one_client_thread_holds_one_connection_for_a_whole_job(
        self, server, tiny_system
    ):
        """Submit, long-poll the events to the terminal one and read the
        view: the sync client sends all of it over one connection, so the
        server starts one handler thread (with one SQLite connection)."""
        before = server.metrics.counter("connections")
        with VerifasClient(server.url, push_events=True) as client:
            (handle,) = client.submit_payload(_payload(tiny_system, _properties()[:1]))
            kinds = [event["kind"] for event in client.iter_events(handle.id)]
            view = client.job(handle.id)
        assert kinds[-1] == "done" and view["status"] == "done"
        assert server.metrics.counter("connections") - before == 1
        # Shown beside `requests` in both renderings of /v1/metrics.
        _, metrics = _request(f"{server.url}/v1/metrics")
        assert metrics["counters"]["connections"] == before + 2  # ours and this GET's
        with VerifasClient(server.url) as client:
            assert "repro_connections_total" in client.metrics_prometheus()

    def test_idle_keep_alive_connections_are_closed(self, server, tiny_system, monkeypatch):
        """An idle connection releases its handler thread after
        ``ApiHandler.timeout``; the client notices the close and sends its
        next GET and POST on fresh connections, the POST exactly once."""
        monkeypatch.setattr(ApiHandler, "timeout", 0.2)
        with VerifasClient(server.url) as client:
            before = server.metrics.counter("connections")
            client.healthz()
            time.sleep(0.6)
            assert client.healthz()["status"] == "ok"
            # The closed socket is noticed before the POST, not by a failed send.
            connection = client._connections.mine()
            stale = connection.sock
            sent_on = []
            send = connection.send
            monkeypatch.setattr(
                connection, "send", lambda data: (sent_on.append(connection.sock), send(data))
            )
            time.sleep(0.6)
            client.submit_payload(_payload(tiny_system, _properties()[:1]))
        assert sent_on and stale not in sent_on
        assert server.metrics.counter("connections") - before == 3
        assert sum(server.store.counts().values()) == 1

    def test_cache_metrics_count_fresh_and_repeat_jobs(self, server, tiny_system):
        """cache.hits counts jobs completed from a stored verdict, cache.misses
        jobs queued for a search."""
        fresh = _submit(server.url, _payload(tiny_system, _properties()[:2]))
        _wait_for(server.url, [j["id"] for j in fresh])
        repeats = []
        for index in range(3):
            repeats += _submit(server.url, _payload(tiny_system, [_properties()[index % 2]]))
        assert [j["status"] for j in repeats] == ["done"] * 3
        _, metrics = _request(f"{server.url}/v1/metrics")
        assert metrics["cache"] == {"hits": 3, "misses": 2, "hit_rate": 0.6, "results": 2}
        assert metrics["counters"]["cache_hits"] == 3
        assert metrics["counters"]["cache_misses"] == 2
        assert metrics["counters"]["verifications_run"] == 2
        assert metrics["counters"]["jobs_completed"] == 5

    def test_list_jobs_with_status_filter(self, server, tiny_system):
        jobs = _submit(server.url, _payload(tiny_system, _properties()[:2]))
        _wait_for(server.url, [j["id"] for j in jobs])
        status, body = _request(f"{server.url}/v1/jobs?status=done&limit=10")
        assert status == 200
        assert {j["id"] for j in body["jobs"]} >= {j["id"] for j in jobs}
        assert body["counts"]["done"] >= 2

    def test_metrics_shape(self, server, tiny_system):
        jobs = _submit(server.url, _payload(tiny_system, _properties()[:1]))
        _wait_for(server.url, [j["id"] for j in jobs])
        status, metrics = _request(f"{server.url}/v1/metrics")
        assert status == 200
        assert metrics["counters"]["jobs_submitted"] >= 1
        assert metrics["counters"]["jobs_completed"] >= 1
        assert metrics["queue"]["depth"] == 0
        assert metrics["job_latency"]["count"] >= 1
        assert metrics["job_latency"]["p50_seconds"] is not None
        assert metrics["job_latency"]["p99_seconds"] >= metrics["job_latency"]["p50_seconds"]
        assert 0.0 <= metrics["cache"]["hit_rate"] <= 1.0 or metrics["cache"]["hit_rate"] is None
        assert metrics["recovery"] == {
            "requeued": 0, "queued": 0, "completed": 0, "errored": 0,
            "cancelled": 0, "cancelled_interrupted": 0, "results_retained": 0,
        }


class TestApiErrors:
    def test_malformed_json_body(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/jobs", data=b"{not json", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_missing_system_section(self, server):
        status, body = _request(f"{server.url}/v1/jobs", "POST", {"properties": []})
        assert status == 400 and "system" in body["error"]

    def test_newer_schema_version_rejected(self, server, tiny_system):
        payload = _payload(tiny_system, _properties()[:1])
        payload["schema_version"] = 999
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400

    def test_empty_properties_rejected(self, server, tiny_system):
        status, body = _request(
            f"{server.url}/v1/jobs", "POST",
            {"system": dump_system(tiny_system), "properties": []},
        )
        assert status == 400 and "properties" in body["error"]

    def test_both_property_and_properties_rejected(self, server, tiny_system):
        prop = dump_property(_properties()[0])
        status, body = _request(
            f"{server.url}/v1/jobs", "POST",
            {"system": dump_system(tiny_system), "property": prop, "properties": [prop]},
        )
        assert status == 400

    def test_invalid_system_is_rejected_with_400(self, server, tiny_system):
        payload = _payload(tiny_system, _properties()[:1])
        payload["system"]["hierarchy"]["Main"] = "Main"  # self-parent: invalid
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400 and "error" in body

    def test_formula_at_the_depth_limit_reaches_a_verdict(self, server, tiny_system):
        payload = _payload(tiny_system, [])
        payload["properties"] = [{
            "name": "deep", "task": "Main", "conditions": {},
            "formula": "X " * MAX_FORMULA_DEPTH + "pick",
        }]
        job = _submit(server.url, payload)[0]
        view = _wait_for(server.url, [job["id"]])[job["id"]]
        assert view["status"] == "done"
        assert view["result"]["outcome"] in ("satisfied", "violated")

    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH + 1, 2000])
    def test_formula_deeper_than_the_limit_is_400(self, server, tiny_system, depth):
        payload = _payload(tiny_system, [])
        payload["properties"] = [{
            "name": "deep", "task": "Main", "conditions": {},
            "formula": "X " * depth + "pick",
        }]
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400
        assert f"nested deeper than {MAX_FORMULA_DEPTH} operators" in body["error"]
        assert len(body["error"]) < 300  # quotes the formula's head, not all of it

    def test_unknown_option_keys_are_rejected(self, server, tiny_system):
        payload = _payload(tiny_system, _properties()[:1])
        payload["options"] = {"timeout": 30}  # typo for timeout_seconds
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400 and "unknown verifier option" in body["error"]
        assert "timeout" in body["error"]

    def test_unknown_top_level_keys_are_rejected(self, server, tiny_system):
        """A misspelt key is refused by name, not dropped: `ttl_second`
        would otherwise queue a job without its TTL."""
        payload = _payload(tiny_system, _properties()[:1])
        payload["ttl_second"] = 5
        payload["priority"] = 7
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400
        assert "'priority'" in body["error"] and "'ttl_second'" in body["error"]
        assert _request(f"{server.url}/v1/jobs")[1]["jobs"] == []

    def test_a_newer_schema_reports_its_version_before_its_keys(self, server, tiny_system):
        """A key added by a later schema version is not the problem to name:
        the version is."""
        payload = _payload(tiny_system, _properties()[:1])
        payload["schema_version"] = 2
        payload["added_in_v2"] = True
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400
        assert "schema_version=2" in body["error"] and "added_in_v2" not in body["error"]
        assert _request(f"{server.url}/v1/jobs")[1]["jobs"] == []

    def test_an_exported_bundle_posts_as_is(self, server, tiny_system):
        """`SpecBundle.to_dict()` stamps a `generator` key; the payload
        gate lets it through."""
        bundle = SpecBundle(system=tiny_system, properties=_properties()[:1]).to_dict()
        assert "generator" in bundle
        assert len(_submit(server.url, bundle)) == 1

    def test_ill_typed_option_values_are_rejected(self, server, tiny_system):
        """Values are checked at submit time, not left to fail in a worker
        (a string budget) or to be read as truthy (a string boolean)."""
        for options in (
            {"max_states": "abc"},
            {"max_states": True},
            {"max_states": 0},
            {"max_repeated_states": 2.5},
            {"timeout_seconds": 0},
            {"timeout_seconds": "30"},
            {"timeout_seconds": False},
        ):
            payload = _payload(tiny_system, _properties()[:1])
            payload["options"] = options
            status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
            assert status == 400, options
            (key,) = options
            assert key in body["error"], body

    def test_well_typed_option_values_are_accepted(self, server, tiny_system):
        payload = _payload(tiny_system, _properties()[:1])
        payload["options"] = {
            "timeout_seconds": None,
            "max_states": 5_000,
            "max_repeated_states": 5_000,
        }
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 202, body
        payload["options"] = {"timeout_seconds": 12.5}
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 202, body

    def test_former_switch_keys_are_rejected(self, server, tiny_system):
        """The API takes the three budgets only: an ablation switch (or a
        deleted one) is an unknown key, whatever its value -- including
        check_repeated_reachability=false, which answered G F p wrongly."""
        for key in (
            "state_pruning",
            "data_structure_support",
            "static_analysis",
            "monotone_pruning",
            "check_repeated_reachability",
            "use_artifact_relations",
            "repeated_violation_fast_path",
        ):
            for value in (False, True):
                payload = _payload(tiny_system, _properties()[:1])
                payload["options"] = {key: value}
                status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
                assert status == 400, (key, value)
                assert "unknown verifier option" in body["error"], body
                assert key in body["error"], body

    def test_unknown_job_is_404(self, server):
        status, body = _request(f"{server.url}/v1/jobs/ffffffffffff")
        assert status == 404 and "error" in body

    def test_unknown_path_is_404(self, server):
        assert _request(f"{server.url}/nope")[0] == 404
        assert _request(f"{server.url}/nope", "POST", {})[0] == 404

    def test_bad_query_parameters_are_400(self, server):
        assert _request(f"{server.url}/v1/jobs?limit=many")[0] == 400
        assert _request(f"{server.url}/v1/jobs?status=finished")[0] == 400


class TestOptionsWireFormat:
    """The canonical options dict feeds every result fingerprint, so the
    default must serialize with exactly the v1 keys; retired keys are
    unknown to the API but ignored when read back from files and rows."""

    V1_KEYS = {
        "state_pruning",
        "data_structure_support",
        "static_analysis",
        "monotone_pruning",
        "check_repeated_reachability",
        "use_artifact_relations",
        "max_states",
        "timeout_seconds",
        "max_repeated_states",
    }

    def test_default_options_serialize_with_exactly_the_v1_keys(self):
        assert set(VerifierOptions().as_dict()) == self.V1_KEYS

    def test_retired_pruning_key_is_rejected_on_submit(self, server, tiny_system):
        payload = _payload(tiny_system, _properties()[:1])
        payload["options"] = {"static_pruning": False}
        status, body = _request(f"{server.url}/v1/jobs", "POST", payload)
        assert status == 400 and "static_pruning" in body["error"]

    def test_retired_pruning_keys_are_ignored_when_loading(self):
        data = dict(
            VerifierOptions().as_dict(),
            static_pruning=False,
            dataflow_pruning=False,
            state_pruning=False,
            check_repeated_reachability=False,
            use_artifact_relations=False,
            repeated_violation_fast_path=False,
        )
        assert VerifierOptions.from_dict(data) == VerifierOptions()

    def test_retired_dataflow_counter_is_ignored_when_loading(self):
        data = dict(SearchStatistics(states_explored=7).as_dict(), dataflow_services_skipped=3)
        assert SearchStatistics.from_dict(data) == SearchStatistics(states_explored=7)


# ----------------------------------------------------------------- end-to-end


class TestRestartRecovery:
    """Acceptance: concurrent submits, kill mid-queue, restart on the store."""

    def test_kill_mid_queue_then_restart_resumes_without_reverifying(
        self, tmp_path, tiny_system, relation_system
    ):
        store_path = tmp_path / "jobs.db"
        properties = _properties()

        # Phase 1: four concurrent client threads each submit one payload.
        server_a = VerificationServer(store_path=store_path, port=0, workers=2)
        server_a.start()
        submitted, errors = [], []
        lock = threading.Lock()

        def client(system, props):
            try:
                jobs = _submit(server_a.url, _payload(system, props))
                with lock:
                    submitted.extend(jobs)
            except Exception as error:  # pragma: no cover - surfaced by assert
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=client, args=(tiny_system, properties[:2])),
            threading.Thread(target=client, args=(tiny_system, properties[2:])),
            threading.Thread(target=client, args=(relation_system, properties[:1])),
            threading.Thread(target=client, args=(relation_system, properties[1:2])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors and len(submitted) == 6
        phase1_ids = [j["id"] for j in submitted]
        phase1_views = _wait_for(server_a.url, phase1_ids)
        assert all(v["status"] == "done" for v in phase1_views.values())
        server_a.stop()

        # Phase 2: a worker-less server accepts more jobs over HTTP, then is
        # killed with its whole queue pending (one job artificially left
        # `running`, as if a worker died mid-verification).  Two of the four
        # new jobs duplicate phase-1 fingerprints: they complete inside their
        # POST, from the stored verdicts, although no worker exists.
        server_b = VerificationServer(store_path=store_path, port=0, workers=0)
        server_b.start()
        queued = _submit(server_b.url, _payload(tiny_system, properties[:2]))       # duplicates
        queued += _submit(server_b.url, _payload(relation_system, properties[2:]))  # fresh work
        assert len(queued) == 4
        assert [j["status"] for j in queued] == ["done", "done", "queued", "queued"]
        _, metrics_b = _request(f"{server_b.url}/v1/metrics")
        assert metrics_b["counters"]["verifications_run"] == 0
        assert metrics_b["cache"]["hits"] == 2 and metrics_b["cache"]["misses"] == 2
        assert metrics_b["queue"]["depth"] == 2
        interrupted = server_b.store.claim_next("b:proc-0")  # simulate dying mid-job
        assert interrupted is not None and interrupted.id == queued[2]["id"]
        server_b.stop()

        # Phase 3: restart on the same store.
        server_c = VerificationServer(store_path=store_path, port=0, workers=2)
        server_c.start()
        assert server_c.recovery.requeued == 1
        assert server_c.recovery.queued == 2
        assert server_c.recovery.completed == 8
        assert server_c.recovery.results_retained == 6

        views = _wait_for(server_c.url, [j["id"] for j in queued])
        assert all(v["status"] == "done" for v in views.values())

        # The two duplicated jobs were served from the persistent store --
        # no verifier invocation, counted as cache hits.
        duplicate_ids = [j["id"] for j in queued[:2]]
        fresh_ids = [j["id"] for j in queued[2:]]
        assert all(views[job_id]["cache_hit"] for job_id in duplicate_ids)
        assert all(not views[job_id]["cache_hit"] for job_id in fresh_ids)
        _, metrics = _request(f"{server_c.url}/v1/metrics")
        assert metrics["counters"]["verifications_run"] == 2  # only the fresh jobs
        assert metrics["queue"]["depth"] == 0

        # Completed results agree with what phase 1 computed.
        for job in queued[:2]:
            match = next(
                v for v in phase1_views.values() if v["fingerprint"] == job["fingerprint"]
            )
            assert views[job["id"]]["result"]["outcome"] == match["result"]["outcome"]
        server_c.stop()

    def test_serve_forever_blocks_until_stopped(self, tmp_path):
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=1)
        server.start()
        blocked = threading.Thread(target=server.serve_forever, daemon=True)
        blocked.start()
        assert _request(f"{server.url}/v1/healthz")[0] == 200
        server.stop()
        blocked.join(timeout=10)
        assert not blocked.is_alive()

    def test_concurrent_stops_run_one_shutdown(self, tmp_path):
        # serve_forever stops the server on its way out while its caller may
        # be stopping it too.  Overlapping shutdowns let one thread close the
        # store's connections under another's statement (a crash in sqlite).
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=1)
        server.start()
        lock = threading.Lock()
        in_store, peak, closes = [0], [0], []
        release_lease, close = server.store.release_lease, server.store.close

        def slow_release(*args, **kwargs):
            with lock:
                in_store[0] += 1
                peak[0] = max(peak[0], in_store[0])
            time.sleep(0.2)
            try:
                return release_lease(*args, **kwargs)
            finally:
                with lock:
                    in_store[0] -= 1

        def counted_close():
            closes.append(threading.current_thread().name)
            close()

        server.store.release_lease = slow_release
        server.store.close = counted_close
        stoppers = [threading.Thread(target=server.stop) for _ in range(2)]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join(timeout=30)
        assert not any(stopper.is_alive() for stopper in stoppers)
        assert peak[0] == 1
        assert len(closes) == 1

    def test_restart_with_no_pending_work_is_clean(self, tmp_path):
        server_a = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=1)
        server_a.start()
        server_a.stop()
        server_b = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=1)
        assert server_b.recovery.requeued == 0
        server_b.start()
        assert _request(f"{server_b.url}/v1/healthz")[0] == 200
        server_b.stop()
