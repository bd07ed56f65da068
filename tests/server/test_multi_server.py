"""End-to-end tests of multi-server deployments sharing one store file.

Two layers:

* ``TestSharedStoreInProcess`` -- two :class:`VerificationServer` instances
  (two connection pools, as two processes would hold) on one WAL store:
  cross-server claim and event visibility, a ``DELETE`` handled by one
  server cancelling a search running on the other (both worker models, via
  the ``worker_model`` fixture), scoped startup recovery, and single-sweeper
  lease election.

* ``TestTwoServeProcesses`` -- the acceptance scenario proper: two real
  ``python -m repro serve`` OS processes joined on one ``--store`` file with
  distinct ``--server-id``\\ s.  Submits through one server and observes the
  claim, the event stream, a cross-server DELETE-cancel, and a SIGKILL'd
  server's job being rescued and completed by the survivor.  The number of
  joined servers comes from ``REPRO_TEST_SERVERS`` (default 2; CI runs a
  dedicated job with it set; ``0`` skips the subprocess layer, keeping
  budget-bound runs fast).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.client import VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.spec import dump_property, dump_system

#: How many `serve` processes the subprocess layer joins on one store.
SERVER_COUNT = int(os.environ.get("REPRO_TEST_SERVERS", "2"))

#: The source tree, for the subprocesses' PYTHONPATH.
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _tiny_property():
    return LTLFOProperty(
        "Main",
        parse_ltl("F p"),
        {"p": Eq(Var("status"), Const("picked"))},
        name="eventually-picked",
    )


def _exploding_property(index: int = 0):
    """Satisfied on the exploding system: the search must exhaust the space."""
    return LTLFOProperty(
        "Main",
        parse_ltl("G !(p & q)"),
        {"p": Eq(Var("v0"), Const("c0")), "q": Eq(Var("v0"), Const("c1"))},
        name=f"consistent-{index}",
    )


def _wait_until(predicate, deadline_seconds: float = 30.0, message: str = "condition"):
    deadline = time.monotonic() + deadline_seconds
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.02)


# --------------------------------------------------- in-process server pairs


class TestSharedStoreInProcess:
    def _pair(self, tmp_path, worker_model, stale_after: float = 15.0, **b_kwargs):
        """Server a (no workers, the 'front') + server b (the 'backend')."""
        store_path = tmp_path / "shared.db"
        a = VerificationServer(
            store_path=store_path, port=0, workers=0, server_id="a",
            sweep_interval=0.1, heartbeat_interval=0.1,
            stale_heartbeat_seconds=stale_after,
        )
        a.start()
        b_kwargs.setdefault("workers", 1)
        b = VerificationServer(
            store_path=store_path, port=0, server_id="b",
            sweep_interval=0.1, progress_interval=25,
            heartbeat_interval=0.1,
            stale_heartbeat_seconds=stale_after,
            worker_model=worker_model, **b_kwargs,
        )
        b.start()
        if worker_model == "process" and b.worker_model != "process":
            a.stop()
            b.stop()  # pragma: no cover - sandbox guard
            pytest.skip(f"no process support here: {b.worker_fallback_error}")
        return a, b

    def test_submit_on_one_server_runs_and_reads_on_the_other(
        self, tmp_path, tiny_system, worker_model
    ):
        a, b = self._pair(tmp_path, worker_model)
        try:
            with VerifasClient(a.url, poll_initial=0.02) as front:
                handle = front.submit(
                    dump_system(tiny_system), [dump_property(_tiny_property())],
                    options={"timeout_seconds": 60},
                )[0]
                # Server a has no workers: only b can have claimed and run it.
                view = front.wait(handle.id, deadline_seconds=60)
                assert view["status"] == "done"
                assert view["result"]["outcome"] == "satisfied"
                assert b.metrics.counter("jobs_completed") == 1
                assert a.metrics.counter("jobs_completed") == 0
                # The whole event stream (claimed on b) is visible through a.
                kinds = [e["kind"] for e in front.events(handle.id)["events"]]
                assert kinds and kinds[-1] == "done"
                # While running, the claim was attributed to b's workers; the
                # stored claim prefix proves which server owned it.
                assert view["claimed_by"] is None  # cleared once terminal
        finally:
            b.stop()
            a.stop()

    def test_delete_on_one_server_stops_a_search_on_the_other(
        self, tmp_path, exploding_system, worker_model
    ):
        """Acceptance: DELETE handled by server a cancels a hot search that
        server b's worker is running, via the store's cancel_requested flag
        (a holds no canceller for the job)."""
        a, b = self._pair(tmp_path, worker_model)
        try:
            with VerifasClient(a.url, poll_initial=0.02) as front:
                handle = front.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_until(
                    lambda: any(
                        e["kind"] == "progress"
                        for e in front.events(handle.id)["events"]
                    ),
                    message="search progress on server b",
                )
                claimed_by = front.job(handle.id)["claimed_by"]
                assert claimed_by is not None and claimed_by.startswith("b:")

                ack = front.cancel(handle.id)
                assert ack["status"] == "cancelling" and ack["cancelled"] is True
                view = front.wait(handle.id, deadline_seconds=15)
                assert view["status"] == "cancelled"
                result = view["result"]
                assert result["outcome"] == "unknown"
                assert result["stats"]["cancelled"] is True
                assert result["stats"]["states_explored"] > 0
                # The partial verdict never enters the shared results table.
                assert a.store.get_result(handle.fingerprint) is None
                assert b.metrics.counter("jobs_cancelled") == 1
        finally:
            b.stop()
            a.stop()

    def test_startup_recovery_leaves_peer_jobs_alone(
        self, tmp_path, exploding_system, worker_model
    ):
        """A server joining (or restarting) while a peer has a live running
        job must not requeue it: recovery is scoped to its own claims."""
        a, b = self._pair(tmp_path, worker_model)
        c = None
        try:
            with VerifasClient(a.url, poll_initial=0.02) as front:
                handle = front.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_until(
                    lambda: front.job(handle.id)["status"] == "running",
                    message="job to start on server b",
                )
                c = VerificationServer(
                    store_path=tmp_path / "shared.db", port=0, workers=0, server_id="c",
                )
                assert c.recovery.requeued == 0
                assert front.job(handle.id)["status"] == "running"
                front.cancel(handle.id)
                front.wait(handle.id, deadline_seconds=15)
        finally:
            if c is not None:
                c.store.close()
            b.stop()
            a.stop()

    def test_live_jobs_survive_an_aggressive_peer_stale_sweep(
        self, tmp_path, exploding_system, worker_model
    ):
        """Workers keep their claims' heartbeats fresh, so even a tight
        staleness threshold on the sweeping peer never 'rescues' (i.e.
        disrupts) a job that is actually running."""
        a, b = self._pair(tmp_path, worker_model, stale_after=2.0)
        try:
            with VerifasClient(a.url, poll_initial=0.02) as front:
                handle = front.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_until(
                    lambda: front.job(handle.id)["status"] == "running",
                    message="job to start on server b",
                )
                first_beat = a.store.get_job(handle.id).heartbeat_at
                assert first_beat is not None
                time.sleep(3.0)  # longer than the 2s staleness threshold
                job = a.store.get_job(handle.id)
                assert job.status == "running"
                assert job.heartbeat_at > first_beat  # liveness kept fresh
                assert a.metrics.counter("stale_jobs_requeued") == 0
                assert b.metrics.counter("stale_jobs_requeued") == 0
                front.cancel(handle.id)
                front.wait(handle.id, deadline_seconds=15)
        finally:
            b.stop()
            a.stop()

    def test_only_one_server_holds_the_sweeper_lease(
        self, tmp_path, worker_model
    ):
        a, b = self._pair(tmp_path, worker_model)
        try:
            _wait_until(
                lambda: a.store.lease_holder("sweeper") is not None,
                message="a sweeper to be elected",
            )
            holder = a.store.lease_holder("sweeper")
            assert holder in (a._lease_owner, b._lease_owner)
            # The election is stable: the loser keeps missing the lease.
            loser = b if holder == a._lease_owner else a
            _wait_until(
                lambda: loser.metrics.counter("sweeper_lease_misses") > 0,
                message="the other server to defer to the lease holder",
            )
            assert a.store.lease_holder("sweeper") == holder
        finally:
            b.stop()
            a.stop()


class TestServerIdentity:
    def test_server_id_with_colon_is_rejected(self, tmp_path):
        """':' is the claim-prefix separator: '10.0.0.2:' would substr-match
        a peer's '10.0.0.2:8081:proc-0' claims and requeue its live jobs."""
        for bad in ("a:b", "", "a b", " a"):
            with pytest.raises(ValueError, match="server_id"):
                VerificationServer(store_path=tmp_path / "jobs.db", server_id=bad)

    def test_plain_server_ids_are_accepted(self, tmp_path):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=0, server_id="blue-1",
        )
        # The prefix carries the server id AND a per-incarnation nonce, so a
        # rolling restart with the same id never collides with its
        # predecessor's worker ids in ownership predicates.
        assert server.worker_id_prefix.startswith("blue-1:")
        assert server.worker_id_prefix != "blue-1:"
        other = VerificationServer(
            store_path=tmp_path / "jobs2.db", port=0, workers=0, server_id="blue-1",
        )
        assert other.worker_id_prefix != server.worker_id_prefix
        server.store.close()
        other.store.close()

    def test_staleness_inside_the_heartbeat_cadence_is_rejected(self, tmp_path):
        """stale-after within the heartbeat cadence would make the sweeper
        perpetually 'rescue' live jobs -- refuse the configuration."""
        with pytest.raises(ValueError, match="stale_heartbeat_seconds"):
            VerificationServer(
                store_path=tmp_path / "jobs.db",
                heartbeat_interval=1.0, stale_heartbeat_seconds=1.5,
            )


class TestSweeperRobustness:
    def test_sweeper_survives_transient_store_errors(
        self, tmp_path, tiny_system, monkeypatch
    ):
        """A transient OperationalError (e.g. an exhausted busy timeout
        under multi-process write contention) must not kill the sweeper
        thread: it is the only thread that expires TTL'd jobs and rescues
        stale claims, and it still has to sweep once the store recovers."""
        import sqlite3

        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            sweep_interval=0.05, server_id="a",
        )
        real_sweep = server.store.sweep_expired
        failures = {"left": 3}

        def flaky(*args, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(server.store, "sweep_expired", flaky)
        server.start()
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(tiny_system), [dump_property(_tiny_property())],
                    options={"timeout_seconds": 60}, ttl_seconds=0.0,
                )[0]
                client.wait(handle.id, deadline_seconds=60)
                _wait_until(lambda: failures["left"] == 0, message="injected failures")

                def swept():
                    try:
                        client.job(handle.id)
                        return False
                    except Exception as error:
                        return getattr(error, "status", None) == 404

                # The sweeper absorbed the failures and still expires the job.
                _wait_until(swept, message="the expired job to be swept")
        finally:
            server.stop()

    def test_stale_rescue_cancellations_are_counted(self, tmp_path, tiny_system):
        """A stale claim with a pending cancel is finalised `cancelled` by
        the sweeper's rescue, and `/v1/metrics` counts it in
        `jobs_cancelled` (not in `stale_jobs_requeued`)."""
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=0,
            sweep_interval=0.05,
        )
        server.start()
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(tiny_system), [dump_property(_tiny_property())],
                    options={"timeout_seconds": 60},
                )[0]
                # A worker that claimed the job, accepted a cancel and died:
                # its last heartbeat is an hour old.
                assert server.store.claim_next("gone:proc-0").id == handle.id
                assert server.store.request_cancel(handle.id) == ("cancelling", True)
                with server.store._write() as conn:
                    conn.execute(
                        "UPDATE jobs SET heartbeat_at = heartbeat_at - 3600 WHERE id = ?",
                        (handle.id,),
                    )

                def counters():
                    return client.metrics()["counters"]

                _wait_until(
                    lambda: counters().get("jobs_cancelled") == 1,
                    deadline_seconds=10.0,
                    message="the rescued cancellation to be counted",
                )
                assert client.job(handle.id)["status"] == "cancelled"
                assert counters().get("stale_jobs_requeued", 0) == 0
        finally:
            server.stop()


# ------------------------------------------------ real `serve` subprocesses


@pytest.mark.skipif(
    SERVER_COUNT < 2,
    reason="multi-process server e2e disabled (REPRO_TEST_SERVERS < 2)",
)
class TestTwoServeProcesses:
    """Two (or REPRO_TEST_SERVERS) joined `python -m repro serve` processes."""

    @staticmethod
    def _start_serve(store_path, server_id: str):
        """Launch one `serve` process; returns (process, url, lines, pump),
        where *pump* is the thread that reads its output into *lines*."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(store_path),
                "--server-id", server_id,
                "--workers", "1", "--worker-model", "thread",
                "--sweep-interval", "0.1",
                "--heartbeat-interval", "0.1",
                "--stale-after", "1.5",
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        lines = []

        def pump():
            for line in process.stdout:
                lines.append(line.rstrip("\n"))

        pump_thread = threading.Thread(target=pump, daemon=True)
        pump_thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            listening = [line for line in lines if "listening on " in line]
            if listening:
                url = listening[0].split("listening on ", 1)[1].split()[0]
                return process, url, lines, pump_thread
            if process.poll() is not None:
                break
            time.sleep(0.05)
        process.kill()
        raise AssertionError(
            f"serve process {server_id!r} never came up; output: {lines}"
        )

    @pytest.fixture
    def cluster(self, tmp_path):
        """REPRO_TEST_SERVERS `serve` processes joined on one store file."""
        store_path = tmp_path / "cluster.db"
        servers = []
        try:
            for index in range(SERVER_COUNT):
                process, url, lines, pump = self._start_serve(store_path, f"s{index}")
                servers.append({
                    "id": f"s{index}", "process": process, "url": url,
                    "lines": lines, "pump": pump,
                })
            yield servers
        finally:
            for server in servers:
                if server["process"].poll() is None:
                    server["process"].terminate()
            for server in servers:
                try:
                    server["process"].wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    server["process"].kill()
                    server["process"].wait(timeout=10)
                # The pump reads to EOF once the process is gone; close the
                # pipe after it, not under it.
                server["pump"].join(timeout=10)
                server["process"].stdout.close()

    @pytest.fixture
    def cluster_clients(self, cluster):
        """One client per cluster server, by server id, closed afterwards."""
        clients = {
            server["id"]: VerifasClient(server["url"], poll_initial=0.02)
            for server in cluster
        }
        yield clients
        for client in clients.values():
            client.close()

    def test_cross_server_claim_events_and_cancel(
        self, cluster, cluster_clients, tiny_system, exploding_system
    ):
        """Acceptance: submit through one server, observe the claim and the
        event stream through another, and DELETE-cancel a job running on
        whichever server claimed it -- through a server that did NOT."""
        clients = list(cluster_clients.values())
        # Visibility: a tiny job submitted on server 0 completes somewhere
        # in the cluster and reads identically from every server.
        handle = clients[0].submit(
            dump_system(tiny_system), [dump_property(_tiny_property())],
            options={"timeout_seconds": 60},
        )[0]
        view = clients[-1].wait(handle.id, deadline_seconds=60)
        assert view["status"] == "done"
        assert view["result"]["outcome"] == "satisfied"
        for client in clients:
            page = client.events(handle.id)
            assert page["terminal"] is True
            assert [e["kind"] for e in page["events"]][-1] == "done"

        # Cancellation: a long search claimed by SOME server is cancelled
        # through a server that does not own it.
        handle = clients[0].submit(
            dump_system(exploding_system),
            [dump_property(_exploding_property())],
            options={"max_states": 500_000},
        )[0]
        _wait_until(
            lambda: clients[0].job(handle.id)["claimed_by"] is not None,
            message="the long job to be claimed",
        )
        owner_id = clients[0].job(handle.id)["claimed_by"].split(":", 1)[0]
        assert owner_id in [server["id"] for server in cluster]
        non_owner = next(
            client
            for server, client in zip(cluster, clients)
            if server["id"] != owner_id
        )
        ack = non_owner.cancel(handle.id)
        assert ack["status"] in ("cancelling", "cancelled")
        view = non_owner.wait(handle.id, deadline_seconds=15)
        assert view["status"] == "cancelled"
        assert view["result"]["stats"]["cancelled"] is True

    def test_sigkilled_server_job_is_rescued_by_the_survivor(
        self, cluster, cluster_clients, exploding_system
    ):
        """Acceptance: SIGKILL the server that claimed a job mid-search; a
        surviving server's lease-guarded stale sweep requeues it and the
        job completes on the survivor."""
        clients = cluster_clients
        probe = next(iter(clients.values()))
        # timeout_seconds bounds the re-run after the rescue, so the test
        # terminates quickly; it is fingerprinted, hence cacheable.
        handle = probe.submit(
            dump_system(exploding_system),
            [dump_property(_exploding_property(1))],
            options={"max_states": 500_000, "timeout_seconds": 2},
        )[0]
        _wait_until(
            lambda: probe.job(handle.id)["claimed_by"] is not None,
            message="the job to be claimed",
        )
        owner_id = probe.job(handle.id)["claimed_by"].split(":", 1)[0]
        victim = next(s for s in cluster if s["id"] == owner_id)
        survivors = {
            server["id"]: clients[server["id"]]
            for server in cluster
            if server["id"] != owner_id
        }
        assert survivors, "need at least one surviving server"
        os.kill(victim["process"].pid, signal.SIGKILL)
        victim["process"].wait(timeout=10)

        # A survivor takes the sweeper lease (the victim's expires), sees
        # the heartbeat go stale, requeues the job, re-claims and runs it.
        survivor = next(iter(survivors.values()))
        view = survivor.wait(handle.id, deadline_seconds=60)
        assert view["status"] == "done"
        # The re-run happened on a survivor: its verifications counter moved.
        ran = [
            sid
            for sid, client in survivors.items()
            if client.metrics()["counters"]["verifications_run"] > 0
        ]
        assert ran, "no surviving server re-ran the rescued job"
