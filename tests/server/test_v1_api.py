"""End-to-end tests of the versioned ``/v1`` HTTP API and repro.client.

Covers the PR acceptance criteria: the client round-trips
submit → iter_events → cancel against a live server; ``DELETE /v1/jobs/<id>``
on a *running* job stops the underlying search promptly and persists a
``cancelled`` terminal state that survives a server restart; the retired
unversioned routes answer 404; TTL'd jobs are swept; ``deadline_ms`` bounds
a runaway search.
"""

from __future__ import annotations

import json
import sqlite3
import time
import urllib.error
import urllib.request

import pytest

from repro.client import ClientError, RemoteJobError, VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import JobStore, VerificationServer
from repro.spec import dump_property, dump_system

OPTIONS = {"timeout_seconds": 60}


def _properties():
    return [
        LTLFOProperty("Main", parse_ltl("G ns"),
                      {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
        LTLFOProperty("Main", parse_ltl("F p"),
                      {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked"),
    ]


def _exploding_property():
    """Satisfied on the exploding system: the search must exhaust the space."""
    return LTLFOProperty(
        "Main",
        parse_ltl("G !(p & q)"),
        {"p": Eq(Var("v0"), Const("c0")), "q": Eq(Var("v0"), Const("c1"))},
        name="consistent",
    )


def _raw(url: str, method: str = "GET", payload=None):
    """(status, headers, parsed body) bypassing the client, for header checks."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), json.load(response)


@pytest.fixture
def server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=2,
        sweep_interval=0.1, progress_interval=25, worker_model=worker_model,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def idle_server(tmp_path):
    """A worker-less server: jobs stay queued until cancelled or claimed."""
    server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
    server.start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    with VerifasClient(server.url, poll_initial=0.02, poll_max=0.2) as client:
        yield client


# ----------------------------------------------------------------- happy path


class TestV1Protocol:
    def test_healthz_and_metrics(self, client):
        health = client.healthz()
        assert health["status"] == "ok" and health["uptime_seconds"] >= 0
        metrics = client.metrics()
        assert "counters" in metrics and "queue" in metrics

    def test_submit_wait_result_round_trip(self, client, tiny_system):
        handles = client.submit(
            dump_system(tiny_system),
            [dump_property(p) for p in _properties()],
            options=OPTIONS,
            label="v1-smoke",
        )
        assert [h.property for h in handles] == ["never-shipped", "eventually-picked"]
        assert all(h.url.startswith("/v1/jobs/") for h in handles)
        views = client.wait_all([h.id for h in handles], deadline_seconds=60)
        assert views[handles[0].id]["result"]["outcome"] == "violated"
        assert views[handles[1].id]["result"]["outcome"] == "satisfied"
        assert views[handles[0].id]["label"] == "v1-smoke"

    def test_iter_events_streams_phase_progress_done(self, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
        )[0]
        events = list(client.iter_events(handle.id, deadline_seconds=60))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "phase"
        assert kinds[-1] == "done"
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_events_cursor_is_incremental(self, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_properties()[1])], options=OPTIONS
        )[0]
        client.wait(handle.id, deadline_seconds=60)
        page = client.events(handle.id)
        assert page["terminal"] is True and page["events"]
        follow_up = client.events(handle.id, cursor=page["cursor"])
        assert follow_up["events"] == []
        assert follow_up["cursor"] == page["cursor"]

    def test_unknown_job_is_a_client_error(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.job("ffffffffffff")
        assert excinfo.value.status == 404

    def test_remote_error_surfaces_as_remote_job_error(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
            )[0]
            idle_server.store.claim_next("test:proc-0")
            idle_server.store.mark_error(handle.id, "RuntimeError: boom", worker_id="test:proc-0")
            with pytest.raises(RemoteJobError, match="boom"):
                client.wait(handle.id, deadline_seconds=10)

    def test_wait_times_out_on_a_stuck_queue(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
            )[0]
            with pytest.raises(TimeoutError):
                client.wait(handle.id, deadline_seconds=0.3)

    def test_unreachable_server_is_a_client_error(self):
        with VerifasClient("http://127.0.0.1:9", timeout=0.5) as client:
            with pytest.raises(ClientError, match="cannot reach"):
                client.healthz()


class TestJobsListValidation:
    """``GET /v1/jobs`` query validation: unknown ``status`` is always a
    400 (even alongside ``?id=``), ``limit`` is validated and capped."""

    def test_unknown_status_is_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.jobs(status="finished")
        assert excinfo.value.status == 400
        assert "unknown job status" in str(excinfo.value)

    def test_unknown_status_with_ids_is_400_not_ignored(self, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
        )[0]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw(f"{client.base_url}/v1/jobs?status=bogus&id={handle.id}")
        assert excinfo.value.code == 400

    def test_known_status_filters_the_ids_view(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
            )[0]
            status, _, body = _raw(
                f"{idle_server.url}/v1/jobs?status=queued&id={handle.id}"
            )
            assert status == 200 and [j["id"] for j in body["jobs"]] == [handle.id]
            status, _, body = _raw(
                f"{idle_server.url}/v1/jobs?status=done&id={handle.id}"
            )
            assert status == 200 and body["jobs"] == []

    def test_negative_limit_is_400(self, client):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw(f"{client.base_url}/v1/jobs?limit=-1")
        assert excinfo.value.code == 400

    def test_oversized_limit_is_clamped_not_an_error(self, client, tiny_system):
        client.submit(
            dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
        )
        status, _, body = _raw(f"{client.base_url}/v1/jobs?limit=10000000")
        assert status == 200 and len(body["jobs"]) >= 1


# --------------------------------------------------------------- cancellation


class TestCancellation:
    def test_cancel_queued_job_is_terminal_immediately(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
            )[0]
            ack = client.cancel(handle.id)
            assert ack["status"] == "cancelled" and ack["cancelled"] is True
            view = client.job(handle.id)
            assert view["status"] == "cancelled"
            assert idle_server.metrics.counter("verifications_run") == 0
            # The cancel event lands atomically with the terminal flip, so a
            # poller observing `terminal` is guaranteed the complete event log.
            page = client.events(handle.id)
            assert page["terminal"] is True
            assert [e["kind"] for e in page["events"]] == ["cancel"]

    def test_repeated_delete_is_idempotent(self, idle_server, tiny_system):
        with VerifasClient(idle_server.url, poll_initial=0.02) as client:
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
            )[0]
            first = client.cancel(handle.id)
            assert first == {
                "id": handle.id, "status": "cancelled",
                "cancelled": True, "already_finished": False,
            }
            second = client.cancel(handle.id)
            assert second == {
                "id": handle.id, "status": "cancelled",
                "cancelled": False, "already_finished": True,
            }
            # No duplicate event, no double-counted metric.
            kinds = [e["kind"] for e in client.events(handle.id)["events"]]
            assert kinds.count("cancel") == 1
            assert idle_server.metrics.counter("cancel_requests") == 1

    def test_cancel_running_job_stops_search_and_persists(
        self, server, client, exploding_system, tmp_path
    ):
        """Acceptance: DELETE on a *running* job stops the search promptly and
        the `cancelled` state (with partial stats) survives a restart."""
        handle = client.submit(
            dump_system(exploding_system),
            [dump_property(_exploding_property())],
            options={"max_states": 500_000},
        )[0]
        deadline = time.monotonic() + 30
        while client.job(handle.id)["status"] != "running":
            assert time.monotonic() < deadline, "job never started running"
            time.sleep(0.02)
        # Let the search actually explore before cancelling.
        while not any(
            e["kind"] == "progress"
            for e in client.events(handle.id)["events"]
        ):
            assert time.monotonic() < deadline, "search never reported progress"
            time.sleep(0.02)

        cancelled_at = time.monotonic()
        ack = client.cancel(handle.id)
        assert ack["status"] == "cancelling" and ack["cancelled"] is True
        view = client.wait(handle.id, deadline_seconds=10)
        stopped_after = time.monotonic() - cancelled_at
        assert view["status"] == "cancelled"
        assert stopped_after < 5.0  # well within one event-poll interval

        # Partial result: UNKNOWN with the statistics gathered so far.
        result = view["result"]
        assert result["outcome"] == "unknown"
        assert result["stats"]["cancelled"] is True
        assert result["stats"]["states_explored"] > 0
        # The partial verdict must never enter the fingerprint-keyed cache.
        assert server.store.get_result(handle.fingerprint) is None
        assert server.metrics.counter("jobs_cancelled") == 1

        # The cancel itself is in the event log.
        kinds = [e["kind"] for e in client.events(handle.id)["events"]]
        assert "cancel" in kinds

        # Restart on the same store: cancelled stays terminal, nothing requeues.
        server.stop()
        restarted = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=2
        )
        restarted.start()
        try:
            assert restarted.recovery.requeued == 0
            assert restarted.recovery.cancelled == 1
            with VerifasClient(restarted.url) as restarted_client:
                view = restarted_client.job(handle.id)
                assert view["status"] == "cancelled"
                assert view["result"]["stats"]["cancelled"] is True
        finally:
            restarted.stop()

    def test_cancel_reaches_the_automaton_construction(self, server, client, tiny_system):
        """A DELETE stops a job still building its Büchi automaton: the
        negated ``p0 U p1 U … U p9`` takes seconds to translate."""
        links = 10
        chained = LTLFOProperty(
            "Main", parse_ltl(" U ".join(f"p{i}" for i in range(links))),
            {f"p{i}": Eq(Var("status"), Const(f"c{i}")) for i in range(links)},
            name="chained-until",
        )
        handle = client.submit(
            dump_system(tiny_system), [dump_property(chained)],
            options={"timeout_seconds": 600},
        )[0]
        deadline = time.monotonic() + 30
        while client.job(handle.id)["status"] != "running":
            assert time.monotonic() < deadline, "job never started running"
            time.sleep(0.02)
        time.sleep(0.5)  # well into the construction

        cancelled_at = time.monotonic()
        assert client.cancel(handle.id)["status"] == "cancelling"
        view = client.wait(handle.id, deadline_seconds=30)
        assert view["status"] == "cancelled"
        assert time.monotonic() - cancelled_at < 5.0
        result = view["result"]
        assert result["outcome"] == "unknown"
        assert result["stats"]["cancelled"] is True

    def test_cancel_requested_before_crash_is_not_requeued(self, tmp_path, exploding_system):
        """Satellite: a job whose cancel was accepted pre-crash must not rise
        from the dead as `queued` on restart."""
        store_path = tmp_path / "jobs.db"
        server_a = VerificationServer(store_path=store_path, port=0, workers=0)
        server_a.start()
        with VerifasClient(server_a.url, poll_initial=0.02) as client:
            handle = client.submit(
                dump_system(exploding_system),
                [dump_property(_exploding_property())],
                options={"max_states": 500_000},
            )[0]
            # Simulate a worker claiming the job, a cancel arriving, then a crash
            # before the worker can finalise it.
            assert server_a.store.claim_next("a:proc-0") is not None
            ack = client.cancel(handle.id)
            assert ack["status"] == "cancelling"
            server_a.stop()

            server_b = VerificationServer(store_path=store_path, port=0, workers=1)
            server_b.start()
            try:
                assert server_b.recovery.cancelled_interrupted == 1
                assert server_b.recovery.requeued == 0
                assert server_b.recovery.queued == 0
                with VerifasClient(server_b.url) as reader:
                    view = reader.job(handle.id)
                assert view["status"] == "cancelled"
            finally:
                server_b.stop()

    def test_cancel_finished_job_is_a_no_op(self, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_properties()[0])], options=OPTIONS
        )[0]
        client.wait(handle.id, deadline_seconds=60)
        ack = client.cancel(handle.id)
        assert ack["status"] == "done"
        assert ack["cancelled"] is False and ack["already_finished"] is True

    def test_cancel_unknown_job_is_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.cancel("ffffffffffff")
        assert excinfo.value.status == 404


# ------------------------------------------------------------ deadlines / TTL


class TestDeadlines:
    def test_deadline_ms_bounds_a_runaway_search(self, server, client, exploding_system):
        """Satellite: deadline semantics under HTTP execution."""
        handle = client.submit(
            dump_system(exploding_system),
            [dump_property(_exploding_property())],
            options={"max_states": 500_000},
            deadline_ms=300,
        )[0]
        view = client.wait(handle.id, deadline_seconds=30)
        assert view["status"] == "done"
        assert view["deadline_ms"] == 300
        result = view["result"]
        assert result["outcome"] == "unknown"
        assert result["stats"]["timed_out"] is True
        assert result["stats"]["cancelled"] is False
        # deadline_ms is not part of the content fingerprint, so the
        # truncated UNKNOWN verdict must not poison the result cache for a
        # later deadline-less submission of the same inputs.
        assert server.store.get_result(handle.fingerprint) is None

    def test_fingerprinted_options_timeout_stays_cacheable(
        self, server, client, exploding_system
    ):
        """A timeout from options.timeout_seconds (part of the fingerprint)
        keeps its pre-existing cacheability even when a generous deadline_ms
        is also set."""
        handle = client.submit(
            dump_system(exploding_system),
            [dump_property(_exploding_property())],
            options={"max_states": 500_000, "timeout_seconds": 0.3},
            deadline_ms=3_600_000,
        )[0]
        view = client.wait(handle.id, deadline_seconds=30)
        assert view["result"]["outcome"] == "unknown"
        assert view["result"]["stats"]["timed_out"] is True
        # Deterministic per fingerprint (the timeout is in the options), so
        # it is cached as it always was.
        assert server.store.get_result(handle.fingerprint) is not None


class TestTtlSweeper:
    def test_expired_jobs_events_and_results_are_swept(self, server, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_properties()[0])],
            options=OPTIONS, ttl_seconds=0.3,
        )[0]
        view = client.wait(handle.id, deadline_seconds=60)
        assert view["ttl_seconds"] == 0.3 and view["expires_at"] > view["finished_at"]
        deadline = time.monotonic() + 15
        while True:
            try:
                client.job(handle.id)
            except ClientError as error:
                assert error.status == 404
                break
            assert time.monotonic() < deadline, "job was never swept"
            time.sleep(0.05)
        assert server.store.event_count(handle.id) == 0
        assert server.store.get_result(handle.fingerprint) is None
        assert server.metrics.counter("jobs_expired") >= 1

    def test_ttl_less_jobs_are_never_swept(self, server, client, tiny_system):
        handle = client.submit(
            dump_system(tiny_system), [dump_property(_properties()[1])], options=OPTIONS
        )[0]
        client.wait(handle.id, deadline_seconds=60)
        time.sleep(0.3)  # several sweep intervals
        assert client.job(handle.id)["status"] == "done"
        assert server.store.get_result(handle.fingerprint) is not None

    def test_shared_result_survives_while_a_job_references_it(
        self, server, client, tiny_system
    ):
        payload_props = [dump_property(_properties()[0])]
        keeper = client.submit(
            dump_system(tiny_system), payload_props, options=OPTIONS
        )[0]
        expiring = client.submit(
            dump_system(tiny_system), payload_props, options=OPTIONS, ttl_seconds=0.2
        )[0]
        assert keeper.fingerprint == expiring.fingerprint
        client.wait_all([keeper.id, expiring.id], deadline_seconds=60)
        deadline = time.monotonic() + 15
        while True:
            try:
                client.job(expiring.id)
            except ClientError:
                break
            assert time.monotonic() < deadline, "expiring job was never swept"
            time.sleep(0.05)
        # The TTL-less twin still references the fingerprint: result retained.
        assert client.job(keeper.id)["status"] == "done"
        assert server.store.get_result(keeper.fingerprint) is not None


# ------------------------------------------------------ unversioned routes


class TestUnversionedRoutes:
    def test_unversioned_routes_answer_404_without_deprecation(self, server):
        for path in ("/jobs", "/healthz"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _raw(f"{server.url}{path}")
            assert excinfo.value.code == 404
            assert "Deprecation" not in excinfo.value.headers


# --------------------------------------------------------------- migration


class TestStoreMigration:
    _PR2_SCHEMA = """
    CREATE TABLE jobs (
        id            TEXT PRIMARY KEY,
        fingerprint   TEXT NOT NULL,
        system_name   TEXT NOT NULL,
        property_name TEXT NOT NULL,
        label         TEXT,
        status        TEXT NOT NULL CHECK (status IN ('queued', 'running', 'done', 'error')),
        error         TEXT,
        cache_hit     INTEGER NOT NULL DEFAULT 0,
        submitted_at  REAL NOT NULL,
        started_at    REAL,
        finished_at   REAL,
        system_json   TEXT NOT NULL,
        property_json TEXT NOT NULL,
        options_json  TEXT NOT NULL
    );
    CREATE INDEX jobs_by_status ON jobs (status, submitted_at);
    CREATE INDEX jobs_by_fingerprint ON jobs (fingerprint);
    CREATE TABLE results (
        fingerprint TEXT PRIMARY KEY,
        result_json TEXT NOT NULL,
        created_at  REAL NOT NULL
    );
    """

    def test_interrupted_migration_is_resumed_without_stranding_rows(self, tmp_path):
        """A crash between the rename and the copy must not lose jobs: the
        next open finds the leftover ``jobs_migrating`` table and resumes."""
        path = tmp_path / "crashed.db"
        connection = sqlite3.connect(path)
        with connection:
            # Simulate dying right after `ALTER TABLE jobs RENAME TO
            # jobs_migrating`: only the renamed PR 2 table exists.
            connection.executescript(
                self._PR2_SCHEMA.replace("TABLE jobs", "TABLE jobs_migrating", 1)
                .replace("INDEX jobs_by_status ON jobs ", "INDEX jobs_by_status ON jobs_migrating ")
                .replace("INDEX jobs_by_fingerprint ON jobs ", "INDEX jobs_by_fingerprint ON jobs_migrating ")
            )
            connection.execute(
                "INSERT INTO jobs_migrating (id, fingerprint, system_name,"
                " property_name, status, submitted_at, system_json, property_json,"
                " options_json)"
                " VALUES ('stranded', 'fp1', 'tiny', 'p', 'queued', 1.0, '{}', '{}', '{}')"
            )
        connection.close()

        store = JobStore(path)
        try:
            rescued = store.get_job("stranded")
            assert rescued is not None and rescued.status == "queued"
            with store._read() as connection:
                leftover = connection.execute(
                    "SELECT 1 FROM sqlite_master WHERE name = 'jobs_migrating'"
                ).fetchone()
            assert leftover is None
        finally:
            store.close()

    def test_pr2_store_is_migrated_in_place(self, tmp_path):
        path = tmp_path / "old.db"
        connection = sqlite3.connect(path)
        with connection:
            connection.executescript(self._PR2_SCHEMA)
            connection.execute(
                "INSERT INTO jobs (id, fingerprint, system_name, property_name,"
                " status, submitted_at, system_json, property_json, options_json)"
                " VALUES ('oldjob', 'fp1', 'tiny', 'p', 'queued', 1.0, '{}', '{}', '{}')"
            )
            connection.execute(
                "INSERT INTO results (fingerprint, result_json, created_at)"
                " VALUES ('fp2', '{}', 1.0)"
            )
        connection.close()

        store = JobStore(path)
        try:
            migrated = store.get_job("oldjob")
            assert migrated is not None and migrated.status == "queued"
            assert migrated.cancel_requested is False
            assert migrated.ttl_seconds is None and migrated.expires_at is None
            assert store.result_count() == 1
            # The rebuilt table accepts the new lifecycle state.
            assert store.request_cancel("oldjob") == ("cancelled", True)
            assert store.get_job("oldjob").status == "cancelled"
            assert store.counts()["cancelled"] == 1
        finally:
            store.close()
