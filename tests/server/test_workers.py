"""End-to-end tests of the multi-process worker pool (repro.server.workers).

Covers the PR acceptance criteria: jobs verify on real OS processes
(per-worker gauges expose the child pids), ``DELETE /v1/jobs/<id>``
terminates a hot process-worker search within its poll interval with
partial statistics, a SIGKILL'd worker's job is requeued through the
recovery path and completes on a respawned child (extending the PR 2
kill/restart suite), one child serves every job of its slot (there is no
recycling), a queued fingerprint-twin of a crashed job is re-claimed
instead of wedging, sandboxes without spawn degrade to thread workers, and -- behind
the ``slow`` marker -- a CPU-heavy batch speeds up >1.5x over threads on a
multi-core machine.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.client import VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.server.workers import children_alive, pool_snapshot
from repro.service import VerificationJob
from repro.spec import dump_property, dump_system

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_TEST_WORKER_MODEL") == "thread",
    reason="process worker model explicitly disabled for this run",
)


def _properties():
    return [
        LTLFOProperty("Main", parse_ltl("G ns"),
                      {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
        LTLFOProperty("Main", parse_ltl("F p"),
                      {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked"),
    ]


def _exploding_property(index: int = 0):
    """Satisfied on the exploding system: the search must exhaust the space.

    Distinct *index* values give distinct fingerprints (no dedup between
    batch entries)."""
    return LTLFOProperty(
        "Main",
        parse_ltl("G !(p & q)"),
        {"p": Eq(Var("v0"), Const("c0")), "q": Eq(Var("v0"), Const("c1"))},
        name=f"consistent-{index}",
    )


def _make_server(tmp_path, **kwargs) -> VerificationServer:
    kwargs.setdefault("store_path", tmp_path / "jobs.db")
    kwargs.setdefault("port", 0)
    kwargs.setdefault("worker_model", "process")
    kwargs.setdefault("sweep_interval", 0.1)
    kwargs.setdefault("progress_interval", 25)
    server = VerificationServer(**kwargs)
    server.start()
    if server.worker_model != "process":  # pragma: no cover - sandbox guard
        server.stop()
        pytest.skip(f"no process support here: {server.worker_fallback_error}")
    return server


def _wait_until(predicate, deadline_seconds: float = 30.0, message: str = "condition"):
    deadline = time.monotonic() + deadline_seconds
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.02)


def _wait_for_progress(client: VerifasClient, job_id: str) -> None:
    """Block until the job is mid-search (running + at least one heartbeat)."""
    _wait_until(
        lambda: client.job(job_id)["status"] == "running",
        message="job to start running",
    )
    _wait_until(
        lambda: any(
            e["kind"] == "progress" for e in client.events(job_id)["events"]
        ),
        message="search progress",
    )


def _crash_dispositions(client: VerifasClient, job_id: str):
    """The dispositions of the job's worker-crash events, once one is logged
    (the event is appended just after the release's own commit)."""
    def crashes():
        return [
            e["data"]["disposition"]
            for e in client.events(job_id)["events"]
            if e["kind"] == "worker-crash"
        ]

    _wait_until(crashes, message="the worker-crash event")
    return crashes()


class _Stub:
    def __init__(self, alive):
        self._alive = alive

    def is_alive(self):
        return self._alive


class _StubAgent(_Stub):
    def __init__(self, thread_alive, child_alive):
        super().__init__(thread_alive)
        self.runner = None if child_alive is None else _Stub(child_alive)


class TestPoolSnapshot:
    """Readiness counts a live agent whose child is alive or not spawned yet
    (children spawn lazily on the first job); ``processes_alive`` counts
    spawned, running children only."""

    @pytest.mark.parametrize("thread_alive,child_alive,ready,running", [
        (True, None, 1, 0),    # fresh pool: no child yet, the agent waits for work
        (True, True, 1, 1),
        (True, False, 0, 0),   # the child died and has not been respawned
        (False, None, 0, 0),   # the agent thread itself is gone
        (False, True, 0, 1),
    ])
    def test_one_agent(self, thread_alive, child_alive, ready, running):
        agents = [_StubAgent(thread_alive, child_alive)]
        assert pool_snapshot(agents) == (ready, 1)
        assert children_alive(agents) == running

    def test_mixed_pool(self):
        agents = [_StubAgent(True, None), _StubAgent(True, False), _StubAgent(True, True)]
        assert pool_snapshot(agents) == (2, 3)
        assert children_alive(agents) == 1


class TestProcessPoolHappyPath:
    def test_jobs_verify_on_child_processes(self, tmp_path, tiny_system):
        server = _make_server(tmp_path, workers=2)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handles = client.submit(
                    dump_system(tiny_system),
                    [dump_property(p) for p in _properties()],
                    options={"timeout_seconds": 60},
                )
                views = client.wait_all([h.id for h in handles], deadline_seconds=60)
                assert views[handles[0].id]["result"]["outcome"] == "violated"
                assert views[handles[1].id]["result"]["outcome"] == "satisfied"

                workers = server.metrics_view()["workers"]
                assert workers["model"] == "process"
                assert workers["processes_alive"] == 2
                pids = {gauge["pid"] for gauge in workers["pool"]}
                assert len(pids) == 2 and os.getpid() not in pids
                assert sum(g["jobs_completed"] for g in workers["pool"]) == 2

                # The event log is fed through the pipe, indistinguishable from
                # a thread-worker run: phase events first, a terminal done.
                kinds = [e["kind"] for e in client.events(handles[0].id)["events"]]
                assert kinds[0] == "phase" and kinds[-1] == "done"
        finally:
            server.stop()

    def test_duplicate_submission_is_a_cache_hit_across_processes(
        self, tmp_path, tiny_system
    ):
        server = _make_server(tmp_path, workers=1)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                payload = [dump_property(_properties()[0])]
                first = client.submit(
                    dump_system(tiny_system), payload, options={"timeout_seconds": 60}
                )[0]
                client.wait(first.id, deadline_seconds=60)
                second = client.submit(
                    dump_system(tiny_system), payload, options={"timeout_seconds": 60}
                )[0]
                view = client.wait(second.id, deadline_seconds=60)
                assert view["cache_hit"] is True
                assert server.metrics.counter("verifications_run") == 1
        finally:
            server.stop()


class TestCrossProcessCancellation:
    def test_delete_stops_a_hot_process_search_with_partial_stats(
        self, tmp_path, exploding_system
    ):
        """Acceptance: DELETE on a running process-worker job terminates the
        search within its poll interval and returns `cancelled` with the
        partial statistics gathered so far."""
        server = _make_server(tmp_path, workers=1)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_for_progress(client, handle.id)

                cancelled_at = time.monotonic()
                ack = client.cancel(handle.id)
                assert ack["status"] == "cancelling" and ack["cancelled"] is True
                view = client.wait(handle.id, deadline_seconds=10)
                stopped_after = time.monotonic() - cancelled_at

                assert view["status"] == "cancelled"
                assert stopped_after < 5.0  # well within one event-poll interval
                result = view["result"]
                assert result["outcome"] == "unknown"
                assert result["stats"]["cancelled"] is True
                assert result["stats"]["states_explored"] > 0
                # The partial verdict never enters the fingerprint-keyed cache.
                assert server.store.get_result(handle.fingerprint) is None
                assert server.metrics.counter("jobs_cancelled") == 1
                # The worker process survives its cancelled job and stays idle.
                workers = server.metrics_view()["workers"]
                assert workers["processes_alive"] == 1
                assert workers["pool"][0]["crashes"] == 0
        finally:
            server.stop()


class TestKillAWorker:
    def test_sigkilled_worker_job_requeues_and_completes_on_a_respawn(
        self, tmp_path, exploding_system, tiny_system
    ):
        """Extends the PR 2 kill/restart suite down to worker granularity:
        SIGKILL the child mid-search; the agent detects the crash, releases
        the job through the recovery semantics, respawns a fresh child, and
        the job (plus its queued fingerprint-twin) still completes."""
        server = _make_server(tmp_path, workers=1)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
            # timeout_seconds bounds the *re-run* after the crash, so the
            # test terminates quickly; it is fingerprinted, hence cacheable.
                options = {"max_states": 500_000, "timeout_seconds": 3}
                payload = [dump_property(_exploding_property())]
                handle = client.submit(
                    dump_system(exploding_system), payload, options=options
                )[0]
                twin = client.submit(
                    dump_system(exploding_system), payload, options=options
                )[0]
                assert twin.fingerprint == handle.fingerprint
                _wait_for_progress(client, handle.id)

                victim_pid = server.metrics_view()["workers"]["pool"][0]["pid"]
                assert victim_pid is not None
                os.kill(victim_pid, signal.SIGKILL)

                # Both the crashed job and its deferred twin complete: the job
                # re-runs on a respawned child, the twin lands as a cache hit.
                views = client.wait_all([handle.id, twin.id], deadline_seconds=60)
                assert views[handle.id]["status"] == "done"
                assert views[twin.id]["status"] == "done"
                assert views[twin.id]["cache_hit"] is True

                assert server.metrics.counter("worker_crashes") == 1
                workers = server.metrics_view()["workers"]
                assert workers["pool"][0]["crashes"] == 1
                respawned = workers["pool"][0]["pid"]
                assert respawned is not None and respawned != victim_pid
                assert workers["processes_alive"] == 1

                # The crash is visible in the job's event log, with the
                # recovery disposition.
                events = client.events(handle.id)["events"]
                crash_events = [e for e in events if e["kind"] == "worker-crash"]
                assert len(crash_events) == 1
                assert crash_events[0]["data"]["disposition"] == "requeued"
                assert server.metrics.counter("verifications_run") == 2  # run + re-run

                # The respawned child is the slot's runner from now on: the
                # next two jobs run on it too.
                for prop in _properties():
                    after = client.submit(
                        dump_system(tiny_system), [dump_property(prop)],
                        options={"timeout_seconds": 60},
                    )[0]
                    assert client.wait(after.id, deadline_seconds=60)["status"] == "done"
                    assert server.metrics_view()["workers"]["pool"][0]["pid"] == respawned
                assert server.metrics.counter("verifications_run") == 4
        finally:
            server.stop()

    def test_cancel_requested_then_crash_finalises_cancelled(
        self, tmp_path, exploding_system
    ):
        """A cancel accepted before the worker died must be honoured: the
        job lands `cancelled`, never rising from the dead as `queued`."""
        server = _make_server(tmp_path, workers=1)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_for_progress(client, handle.id)
                victim_pid = server.metrics_view()["workers"]["pool"][0]["pid"]

                # Freeze the child so it cannot unwind cooperatively, accept the
                # cancel, then kill it -- the crash path must finalise the job.
                os.kill(victim_pid, signal.SIGSTOP)
                ack = client.cancel(handle.id)
                assert ack["status"] == "cancelling"
                os.kill(victim_pid, signal.SIGKILL)

                view = client.wait(handle.id, deadline_seconds=30)
                assert view["status"] == "cancelled"
                assert server.store.get_job(handle.id).status == "cancelled"
                assert _crash_dispositions(client, handle.id) == ["cancelled"]
        finally:
            server.stop()

    def test_crash_disposition_is_what_the_release_did(
        self, tmp_path, exploding_system, monkeypatch
    ):
        """A DELETE landing right after the crashed job's release cancels
        the requeued job, but the crash event still reports what the
        release did: `requeued`, not the status a later re-read finds."""
        server = _make_server(tmp_path, workers=1)
        release = server.store.release

        def release_then_delete(job_id, worker_id):
            status = release(job_id, worker_id)
            server.store.request_cancel(job_id)
            return status

        monkeypatch.setattr(server.store, "release", release_then_delete)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(exploding_system),
                    [dump_property(_exploding_property())],
                    options={"max_states": 500_000},
                )[0]
                _wait_for_progress(client, handle.id)
                os.kill(server.metrics_view()["workers"]["pool"][0]["pid"], signal.SIGKILL)

                view = client.wait(handle.id, deadline_seconds=30)
                assert view["status"] == "cancelled"
                assert _crash_dispositions(client, handle.id) == ["requeued"]
        finally:
            server.stop()


class TestRunnerLifetime:
    def test_one_child_process_serves_every_job(self, tmp_path, tiny_system):
        """No recycling: 40 real runs (distinct fingerprints) on one slot all
        run on the slot's first child process."""
        server = _make_server(tmp_path, workers=1)
        try:
            pids = set()
            with VerifasClient(server.url, poll_initial=0.02) as client:
                for timeout in range(60, 100):
                    handle = client.submit(
                        dump_system(tiny_system), [dump_property(_properties()[0])],
                        options={"timeout_seconds": timeout},
                    )[0]
                    view = client.wait(handle.id, deadline_seconds=60)
                    assert view["result"]["outcome"] == "violated"
                    workers = server.metrics_view()["workers"]
                    pids.add(workers["pool"][0]["pid"])
                    assert workers["processes_alive"] == 1
            [gauge] = server.metrics_view()["workers"]["pool"]
            assert gauge["jobs_completed"] == 40
            assert len(pids) == 1 and None not in pids
        finally:
            server.stop()


class TestRunnerErrors:
    def test_a_job_failing_in_the_runner_lands_error_and_is_counted(
        self, tmp_path, tiny_system
    ):
        """A formula that only fails to parse in the runner: the agent marks
        the job ``error`` with the runner's message and fires its
        verification-started and job-failed events."""
        server = _make_server(tmp_path, workers=1)
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(tiny_system), [dump_property(_properties()[0])],
                    options={"timeout_seconds": 60},
                )[0]
                assert client.wait(handle.id, deadline_seconds=60)["status"] == "done"
                # Stored directly, past the submit-time spec gate.
                failing = server.store.submit(
                    VerificationJob(
                        system_dict=dump_system(tiny_system),
                        property_dict={**dump_property(_properties()[1]), "formula": "G ("},
                        options_dict={"timeout_seconds": 60},
                    )
                )
                server._wakeup.set()
                view = client.wait(failing.id, deadline_seconds=60, raise_on_error=False)
                assert view["status"] == "error" and view["error"]
                assert view["claimed_by"] is None and view["finished_at"] is not None
                counters = server.metrics_view()["counters"]
                assert counters["verifications_run"] == 2
                assert counters["jobs_completed"] == 1
                assert counters["jobs_failed"] == 1
        finally:
            server.stop()


class TestThreadFallback:
    def test_unspawnable_environment_degrades_to_threads(
        self, tmp_path, tiny_system, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.server.app.probe_process_support",
            lambda: "RuntimeError: no spawn here",
        )
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            worker_model="process",
        )
        server.start()
        try:
            assert server.worker_model == "thread"
            assert server.requested_worker_model == "process"
            assert "no spawn here" in server.worker_fallback_error
            workers = server.metrics_view()["workers"]
            assert workers["model"] == "thread"
            assert workers["fallback_error"] == "RuntimeError: no spawn here"
            # ... and the degraded server still verifies.
            with VerifasClient(server.url, poll_initial=0.02) as client:
                handle = client.submit(
                    dump_system(tiny_system), [dump_property(_properties()[1])],
                    options={"timeout_seconds": 60},
                )[0]
                view = client.wait(handle.id, deadline_seconds=60)
                assert view["result"]["outcome"] == "satisfied"
        finally:
            server.stop()

    def test_unknown_worker_model_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="worker_model"):
            VerificationServer(store_path=tmp_path / "jobs.db", worker_model="fibers")


@pytest.mark.slow
class TestProcessSpeedup:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4, reason="speedup needs >= 4 cores"
    )
    def test_cpu_heavy_batch_is_faster_on_processes(
        self, tmp_path, small_exploding_system
    ):
        """Acceptance: 4 CPU-heavy jobs on 4 process workers beat the thread
        model by >1.5x wall time (the thread model serialises the CPU-bound
        Karp-Miller search on the GIL)."""
        system_dict = dump_system(small_exploding_system)
        # Four distinct fingerprints (no dedup), each several seconds of
        # pure state expansion (the search exhausts the space well under
        # max_states, so every run does identical, deterministic work).
        payloads = [[dump_property(_exploding_property(index))] for index in range(4)]
        options = {"max_states": 100_000}

        def run(worker_model: str) -> float:
            server = VerificationServer(
                store_path=tmp_path / f"{worker_model}.db", port=0, workers=4,
                worker_model=worker_model,
            )
            server.start()
            try:
                with VerifasClient(server.url, poll_initial=0.02) as client:
                    handles = [
                        client.submit(system_dict, payload, options=options)[0]
                        for payload in payloads
                    ]
                    started = time.monotonic()
                    client.wait_all([h.id for h in handles], deadline_seconds=600)
                    return time.monotonic() - started
            finally:
                server.stop()

        process_seconds = run("process")
        thread_seconds = run("thread")
        assert thread_seconds / process_seconds > 1.5, (
            f"expected >1.5x speedup, got {thread_seconds:.2f}s (thread) vs "
            f"{process_seconds:.2f}s (process)"
        )
