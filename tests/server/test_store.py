"""Tests of the persistent SQLite job/result store (repro.server.store)."""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.cli import main
from repro.client import VerifasClient
from repro.core.stats import SearchStatistics
from repro.core.verifier import VerificationOutcome, VerificationResult
from repro.server import JobStore, StoredJob, VerificationServer, recover
from repro.service import VerificationJob
from repro.spec import dump_property, dump_system


def _job(system, ltl_property, **options):
    from repro.core.options import VerifierOptions

    return VerificationJob(
        system_dict=dump_system(system),
        property_dict=dump_property(ltl_property),
        options_dict=VerifierOptions(**options).as_dict(),
    )


def _distinct_jobs(system, count):
    """*count* jobs with distinct fingerprints (distinct state budgets)."""
    from repro.has.conditions import Const, Eq, Var
    from repro.ltl import LTLFOProperty, parse_ltl

    prop = LTLFOProperty("Main", parse_ltl("F p"),
                         {"p": Eq(Var("status"), Const("picked"))}, name="f-picked")
    return [_job(system, prop, max_states=1000 + index) for index in range(count)]


def _result(name="p") -> VerificationResult:
    return VerificationResult(
        outcome=VerificationOutcome.SATISFIED,
        property_name=name,
        task="Main",
        stats=SearchStatistics(states_explored=3),
    )


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "jobs.db")
    yield store
    store.close()


@pytest.fixture
def sample_jobs(tiny_system):
    from repro.has.conditions import Const, Eq, Neq, Var
    from repro.ltl import LTLFOProperty, parse_ltl

    props = [
        LTLFOProperty("Main", parse_ltl("G ns"),
                      {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
        LTLFOProperty("Main", parse_ltl("F p"),
                      {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked"),
    ]
    return [_job(tiny_system, p, timeout_seconds=30) for p in props]


class TestJobLifecycle:
    def test_submit_persists_queued_job(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0], label="smoke")
        assert stored.status == "queued" and stored.label == "smoke"
        assert stored.fingerprint == sample_jobs[0].fingerprint
        fetched = store.get_job(stored.id)
        assert fetched is not None and fetched.submitted_at > 0
        # The payload round-trips into an equivalent engine-level job.
        assert fetched.to_job().fingerprint == sample_jobs[0].fingerprint

    def test_claim_next_is_fifo_and_marks_running(self, store, sample_jobs):
        first = store.submit(sample_jobs[0])
        second = store.submit(sample_jobs[1])
        claimed = store.claim_next("proc-0")
        assert claimed.id == first.id and claimed.status == "running"
        assert claimed.started_at is not None
        assert store.claim_next("proc-0").id == second.id
        assert store.claim_next("proc-0") is None

    def test_mark_done_persists_result_under_fingerprint(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next("proc-0")
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        finished = store.get_job(stored.id)
        assert finished.status == "done" and finished.finished_at is not None
        assert store.get_result(stored.fingerprint)["outcome"] == "satisfied"

    def test_mark_done_keeps_an_already_persisted_result(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next("proc-0")
        store.put_result(stored.fingerprint, _result("from-cache").as_dict())
        # mark_done skips the redundant write; the persisted result stands.
        store.mark_done(stored.id, _result("from-worker").as_dict(), worker_id="proc-0")
        assert store.get_job(stored.id).status == "done"
        assert store.get_result(stored.fingerprint)["property_name"] == "from-cache"

    def test_mark_done_unknown_id_raises(self, store):
        with pytest.raises(KeyError):
            store.mark_done("nope", _result().as_dict(), worker_id="proc-0")

    def test_mark_error(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next("proc-0")
        store.mark_error(stored.id, "ValueError: boom", worker_id="proc-0")
        failed = store.get_job(stored.id)
        assert failed.status == "error" and failed.error == "ValueError: boom"
        assert store.counts()["error"] == 1

    def test_recover_interrupted_requeues_running_jobs(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next("proc-0")
        assert store.recover_interrupted() == (1, 0)
        requeued = store.get_job(stored.id)
        assert requeued.status == "queued" and requeued.started_at is None
        assert store.recover_interrupted() == (0, 0)

    def test_duplicate_fingerprint_is_not_claimed_while_twin_runs(self, store, sample_jobs):
        first = store.submit(sample_jobs[0])
        duplicate = store.submit(sample_jobs[0])   # same fingerprint
        other = store.submit(sample_jobs[1])
        assert store.claim_next("proc-0").id == first.id
        # The duplicate is skipped while its twin is in flight; the next
        # distinct job is handed out instead.
        assert store.claim_next("proc-1").id == other.id
        assert store.claim_next("proc-2") is None
        # The twin's verdict completes the duplicate: nothing is left to claim.
        store.mark_done(first.id, _result().as_dict(), worker_id="proc-0")
        assert store.get_job(duplicate.id).status == "done"
        assert store.claim_next("proc-0") is None

    def test_each_job_is_claimed_exactly_once_across_threads(self, store, tiny_system):
        from repro.has.conditions import Const, Eq, Var
        from repro.ltl import LTLFOProperty, parse_ltl

        prop = LTLFOProperty("Main", parse_ltl("F p"),
                             {"p": Eq(Var("status"), Const("picked"))}, name="f-picked")
        # Distinct options -> 8 distinct fingerprints (claim-dedup stays out).
        jobs = [_job(tiny_system, prop, max_states=100 + index) for index in range(8)]
        ids = [store.submit(job).id for job in jobs]
        claimed, lock = [], threading.Lock()

        def worker():
            while True:
                stored = store.claim_next(threading.current_thread().name)
                if stored is None:
                    return
                with lock:
                    claimed.append(stored.id)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == sorted(ids)


class TestJobIdCollisions:
    def test_id_collision_retries_with_a_fresh_id(self, store, sample_jobs, monkeypatch):
        """A colliding 12-hex id must be retried, not surface as an
        IntegrityError (an HTTP 500 to the submitter)."""
        import uuid as uuid_module

        first = store.submit(sample_jobs[0])

        class _Fake:
            def __init__(self, hex_value):
                self.hex = hex_value

        # First attempt collides with the existing job, second is fresh.
        attempts = iter([_Fake(first.id + "f" * 20), _Fake("b" * 32)])
        monkeypatch.setattr(
            "repro.server.store.uuid.uuid4", lambda: next(attempts)
        )
        second = store.submit(sample_jobs[1])
        assert second.id == "b" * 12 and second.id != first.id
        assert store.counts()["queued"] == 2


class TestWorkerClaims:
    def test_claim_records_worker_and_heartbeat(self, store, sample_jobs):
        store.submit(sample_jobs[0])
        claimed = store.claim_next(worker_id="proc-0")
        assert claimed.claimed_by == "proc-0"
        assert claimed.heartbeat_at is not None

    def test_touch_claim_refreshes_the_stamp(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        before = store.get_job(stored.id).heartbeat_at
        assert store.touch_claim(stored.id, "proc-0") == (True, False)
        assert store.get_job(stored.id).heartbeat_at >= before

    def test_touch_claim_requires_ownership(self, store, sample_jobs):
        """Satellite: after requeue_stale hands the job to a new worker, the
        dead worker's agent must not be able to keep it alive forever."""
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.requeue_stale(0.0) == ([stored.id], [])  # rescued
        reclaimed = store.claim_next(worker_id="proc-1")
        assert reclaimed.id == stored.id
        stamp = store.get_job(stored.id).heartbeat_at
        # The zombie's heartbeat bounces and leaves the stamp untouched...
        assert store.touch_claim(stored.id, "proc-0") == (False, False)
        assert store.get_job(stored.id).heartbeat_at == stamp
        # ... while the live owner's lands.
        assert store.touch_claim(stored.id, "proc-1") == (True, False)

    def test_touch_claim_reports_ownership_and_cancel(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.touch_claim(stored.id, "proc-0") == (True, False)
        # A cancel persisted by any server (here: directly) becomes visible.
        store.request_cancel(stored.id)
        assert store.touch_claim(stored.id, "proc-0") == (True, True)
        # A non-owner refreshes nothing but still sees the flag.
        assert store.touch_claim(stored.id, "proc-9") == (False, True)
        assert store.touch_claim("missing", "proc-0") == (False, False)

    def test_requeue_stale_rescues_dead_worker_jobs(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.requeue_stale(3600.0) == ([], [])  # heartbeat still fresh
        assert store.requeue_stale(0.0) == ([stored.id], [])  # anything counts as stale
        requeued = store.get_job(stored.id)
        assert requeued.status == "queued"
        assert requeued.claimed_by is None and requeued.heartbeat_at is None

    def test_requeue_stale_finalises_cancel_requested_jobs(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.request_cancel(stored.id) == ("cancelling", True)
        assert store.requeue_stale(0.0) == ([], [stored.id])  # cancelled, not requeued
        assert store.get_job(stored.id).status == "cancelled"

    def test_release_requeues_a_running_job(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.release(stored.id, "proc-0") == "queued"
        released = store.get_job(stored.id)
        assert released.status == "queued" and released.started_at is None
        assert released.claimed_by is None

    def test_release_honours_a_pending_cancel(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        store.request_cancel(stored.id)
        assert store.release(stored.id, "proc-0") == "cancelled"
        assert store.get_job(stored.id).status == "cancelled"

    def test_release_is_a_no_op_off_running(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        assert store.release(stored.id, "proc-0") is None   # still queued
        assert store.release("missing", "proc-0") is None
        store.claim_next("proc-0")
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        assert store.release(stored.id, "proc-0") is None   # terminal
        assert store.get_job(stored.id).status == "done"

    def test_zombie_release_cannot_yank_a_rescued_job(self, store, sample_jobs):
        """Satellite: a crashed worker's cleanup must not requeue (or
        cancel-finalise) a job that was already rescued and re-claimed by a
        healthy worker elsewhere."""
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.requeue_stale(0.0) == ([stored.id], [])  # sweeper rescue
        reclaimed = store.claim_next(worker_id="other:proc-3")
        assert reclaimed.id == stored.id
        # The dead worker's cleanup fires late: ownership predicate rejects it.
        assert store.release(stored.id, "proc-0") is None
        healthy = store.get_job(stored.id)
        assert healthy.status == "running" and healthy.claimed_by == "other:proc-3"
        # Same with a pending cancel: the zombie cannot finalise either.
        store.request_cancel(stored.id)
        assert store.release(stored.id, "proc-0") is None
        assert store.get_job(stored.id).status == "running"
        # The rightful owner still can.
        assert store.release(stored.id, "other:proc-3") == "cancelled"
        assert store.get_job(stored.id).status == "cancelled"

    def test_zombie_finalizer_cannot_overwrite_a_terminal_state(
        self, store, sample_jobs
    ):
        """A worker whose job was rescued by the stale-heartbeat sweeper may
        finish late; its mark must not overwrite the rescued copy's terminal
        state (e.g. flip `cancelled` back to `done`)."""
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.requeue_stale(0.0) == ([stored.id], [])  # sweeper rescues the job
        store.request_cancel(stored.id)               # user cancels the rescued copy
        assert store.get_job(stored.id).status == "cancelled"
        # The zombie worker's verdict arrives afterwards: rejected.
        assert store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0") == (False, [])
        assert store.mark_error(stored.id, "late failure", worker_id="proc-0") is False
        assert store.mark_cancelled(stored.id, None, worker_id="proc-0") is False
        assert store.get_job(stored.id).status == "cancelled"
        # A live mark on a running job still returns True.
        other = store.submit(sample_jobs[1])
        store.claim_next("proc-1")
        assert store.mark_done(other.id, _result().as_dict(), worker_id="proc-1") == (True, [])

    def test_zombie_mark_cannot_land_on_a_reclaimed_running_job(
        self, store, sample_jobs
    ):
        """Ownership predicate on mark_*: even while the rescued copy is
        still `running` (not yet terminal), a zombie's verdict with the old
        worker id must bounce -- only the live claim may finalise."""
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.requeue_stale(0.0) == ([stored.id], [])
        assert store.claim_next(worker_id="proc-1").id == stored.id
        assert store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0") == (
            False,
            [],
        )
        assert store.mark_error(stored.id, "late", worker_id="proc-0") is False
        assert store.mark_cancelled(stored.id, None, worker_id="proc-0") is False
        assert store.get_job(stored.id).status == "running"
        assert store.mark_done(stored.id, _result().as_dict(), worker_id="proc-1") == (
            True,
            [],
        )

    def test_terminal_transitions_clear_the_claim(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        finished = store.get_job(stored.id)
        assert finished.claimed_by is None and finished.heartbeat_at is None

    def test_requeue_stale_timestamps_come_from_one_clock_read(
        self, store, sample_jobs, monkeypatch
    ):
        """Satellite: the staleness cutoff and the expires_at base must both
        be computed inside the transaction -- under lock contention a
        pre-transaction cutoff drifts from the `now` used for the stamps.
        The stamps come from the first in-transaction `_now()` read; the
        cutoff from the shared (wall-floored) clock heartbeats use."""
        stored = store.submit(sample_jobs[0], ttl_seconds=10.0)
        store.claim_next(worker_id="proc-0")
        store.request_cancel(stored.id)
        # The old pre-lock implementation read its cutoff before the
        # transaction; with the iterator below its stamps would observe the
        # bogus follow-up value (-1.0) instead of the first read.
        clock = iter([1e12, -1.0, -1.0, -1.0])
        monkeypatch.setattr(store, "_now", lambda: next(clock))
        assert store.requeue_stale(0.0) == ([], [stored.id])  # cancel-requested: finalised
        finalised = store.get_job(stored.id)
        assert finalised.status == "cancelled"
        assert finalised.finished_at == 1e12
        assert finalised.expires_at == 1e12 + 10.0


def _claimed(store, job, ttl):
    stored = store.submit(job, ttl_seconds=ttl)
    assert store.claim_next("proc-0").id == stored.id
    return stored.id


def _cancel_pending(store, job, ttl):
    job_id = _claimed(store, job, ttl)
    assert store.request_cancel(job_id) == ("cancelling", True)
    return job_id


def _land_done(store, job, ttl):
    job_id = _claimed(store, job, ttl)
    store.mark_done(job_id, _result().as_dict(), worker_id="proc-0")
    return job_id


def _land_error(store, job, ttl):
    job_id = _claimed(store, job, ttl)
    store.mark_error(job_id, "ValueError: boom", worker_id="proc-0")
    return job_id


def _land_cancelled(store, job, ttl):
    job_id = _claimed(store, job, ttl)
    store.mark_cancelled(job_id, None, worker_id="proc-0")
    return job_id


def _cancel_queued(store, job, ttl):
    job_id = store.submit(job, ttl_seconds=ttl).id
    store.request_cancel(job_id)
    return job_id


def _release_cancel_pending(store, job, ttl):
    job_id = _cancel_pending(store, job, ttl)
    assert store.release(job_id, "proc-0") == "cancelled"
    return job_id


def _stale_cancel_pending(store, job, ttl):
    job_id = _cancel_pending(store, job, ttl)
    store.requeue_stale(0.0)
    return job_id


def _recover_cancel_pending(store, job, ttl):
    job_id = _cancel_pending(store, job, ttl)
    assert recover(store).cancelled_interrupted == 1
    return job_id


def _cache_hit_at_submit(store, job, ttl):
    store.put_result(job.fingerprint, _result().as_dict())
    return store.submit(job, ttl_seconds=ttl).id


def _cache_hit_twin(store, job, ttl):
    running = _claimed(store, job, ttl)
    twin = store.submit(job, ttl_seconds=ttl).id
    _, twins = store.mark_done(running, _result().as_dict(), worker_id="proc-0")
    assert [t.id for t in twins] == [twin]
    return twin


class TestTerminalStateContract:
    """Every path that lands a terminal state stamps the same columns: the
    finish time, no claim left behind, and the TTL clock started."""

    @pytest.mark.parametrize("ttl", [None, 60.0])
    @pytest.mark.parametrize(
        "land,status",
        [
            (_land_done, "done"),
            (_land_error, "error"),
            (_land_cancelled, "cancelled"),
            (_cancel_queued, "cancelled"),
            (_release_cancel_pending, "cancelled"),
            (_stale_cancel_pending, "cancelled"),
            (_recover_cancel_pending, "cancelled"),
            (_cache_hit_at_submit, "done"),
            (_cache_hit_twin, "done"),
        ],
    )
    def test_terminal_columns(self, store, sample_jobs, land, status, ttl):
        job = store.get_job(land(store, sample_jobs[0], ttl))
        assert job.status == status
        assert job.finished_at is not None
        assert job.claimed_by is None and job.heartbeat_at is None
        if ttl is None:
            assert job.expires_at is None
        else:
            assert job.expires_at == job.finished_at + ttl


class TestLeases:
    def test_acquire_renew_and_contend(self, store):
        assert store.acquire_lease("sweeper", "server-a", 60.0) is True
        assert store.lease_holder("sweeper") == "server-a"
        # The holder renews; a contender is refused while the lease is live.
        assert store.acquire_lease("sweeper", "server-a", 60.0) is True
        assert store.acquire_lease("sweeper", "server-b", 60.0) is False
        assert store.lease_holder("sweeper") == "server-a"

    def test_expired_lease_is_taken_over(self, store):
        assert store.acquire_lease("sweeper", "server-a", 0.0) is True
        assert store.lease_holder("sweeper") is None  # already expired
        assert store.acquire_lease("sweeper", "server-b", 60.0) is True
        assert store.lease_holder("sweeper") == "server-b"

    def test_release_lease_requires_ownership(self, store):
        store.acquire_lease("sweeper", "server-a", 60.0)
        assert store.release_lease("sweeper", "server-b") is False
        assert store.lease_holder("sweeper") == "server-a"
        assert store.release_lease("sweeper", "server-a") is True
        assert store.lease_holder("sweeper") is None
        assert store.acquire_lease("sweeper", "server-b", 60.0) is True

    def test_independent_lease_names(self, store):
        assert store.acquire_lease("sweeper", "server-a", 60.0) is True
        assert store.acquire_lease("recovery", "server-b", 60.0) is True


def _legacy_running_row(store, job_id):
    """Claim *job_id*, then strip the claim's owner and heartbeat: the
    ``running`` row without a claim that an older store file can hold."""
    assert store.claim_next("legacy").id == job_id
    with store._write() as conn:
        conn.execute(
            "UPDATE jobs SET claimed_by = NULL, heartbeat_at = NULL WHERE id = ?",
            (job_id,),
        )


class TestScopedRecovery:
    """recover_interrupted scoped to one server's claims: a restarting
    server must not requeue jobs running live on its peers."""

    def test_recovery_scoped_to_owner_prefix(self, store, tiny_system):
        jobs = _distinct_jobs(tiny_system, 3)
        mine = store.submit(jobs[0])
        theirs = store.submit(jobs[1])
        unclaimed = store.submit(jobs[2])
        assert store.claim_next(worker_id="a:proc-0").id == mine.id
        assert store.claim_next(worker_id="b:proc-0").id == theirs.id
        _legacy_running_row(store, unclaimed.id)
        # Server a restarts: its own claim and the unattributable one
        # requeue; server b's live job is left running.
        assert store.recover_interrupted(owner_prefix="a:") == (2, 0)
        assert store.get_job(mine.id).status == "queued"
        assert store.get_job(unclaimed.id).status == "queued"
        assert store.get_job(theirs.id).status == "running"
        # The unscoped call repairs everything.
        assert store.recover_interrupted() == (1, 0)
        assert store.get_job(theirs.id).status == "queued"

    def test_recovery_grace_spares_freshly_heartbeating_claims(
        self, store, tiny_system
    ):
        """Rolling restart: the replacement server's startup recovery must
        not yank jobs the old same-id instance is still draining (their
        heartbeats are fresh); heartbeat-less rows are always repaired."""
        jobs = _distinct_jobs(tiny_system, 2)
        draining = store.submit(jobs[0])
        unclaimed = store.submit(jobs[1])
        assert store.claim_next(worker_id="a:proc-0").id == draining.id
        _legacy_running_row(store, unclaimed.id)
        assert store.recover_interrupted(
            owner_prefix="a:", heartbeat_grace_seconds=60.0
        ) == (1, 0)
        assert store.get_job(draining.id).status == "running"   # spared
        assert store.get_job(unclaimed.id).status == "queued"   # repaired
        # Once the heartbeat has aged past the grace, the claim is repaired.
        assert store.recover_interrupted(
            owner_prefix="a:", heartbeat_grace_seconds=0.0
        ) == (1, 0)
        assert store.get_job(draining.id).status == "queued"

    def test_recovery_cancels_own_jobs_with_a_pending_cancel(self, store, tiny_system):
        jobs = _distinct_jobs(tiny_system, 2)
        mine = store.submit(jobs[0])
        theirs = store.submit(jobs[1])
        store.claim_next(worker_id="a:proc-0")
        store.claim_next(worker_id="b:proc-0")
        store.request_cancel(mine.id)
        store.request_cancel(theirs.id)
        assert store.recover_interrupted(owner_prefix="a:") == (0, 1)
        assert store.get_job(mine.id).status == "cancelled"
        # Server b's job keeps running; its own worker honours the cancel.
        assert store.get_job(theirs.id).status == "running"


class TestConcurrencyLayer:
    """The WAL / per-thread-connection layer of the shared-store design."""

    def test_file_stores_run_in_wal_mode(self, store):
        assert store.journal_mode == "wal"

    def test_in_memory_paths_are_rejected(self, capsys):
        """Per-thread connections cannot share an in-memory database, so
        the store refuses one instead of keeping a second connection model."""
        for path in ("", ":memory:"):
            with pytest.raises(ValueError, match="needs a file"):
                JobStore(path)
        with pytest.raises(ValueError, match="needs a file"):
            VerificationServer(store_path=":memory:")
        assert main(["serve", "--store", ":memory:", "--port", "0"]) == 2
        assert "needs a file" in capsys.readouterr().err

    def test_dead_threads_connections_are_pruned(self, store):
        """One connection per handler thread must not leak: the HTTP server
        spawns a thread per connection, and each dead thread's connection is
        closed when a later thread connects."""
        def touch():
            store.counts()

        for _ in range(8):
            thread = threading.Thread(target=touch)
            thread.start()
            thread.join()
        # The pool holds at most the opener's connection plus the most
        # recently dead thread's (pruned on the next thread's connect).
        with store._pool_lock:
            assert len(store._pool) <= 2

    def test_threads_get_their_own_connections(self, store):
        connections = {}

        def grab(name):
            connections[name] = store._connection()

        threads = [
            threading.Thread(target=grab, args=(index,)) for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        connections["main"] = store._connection()
        assert len(set(map(id, connections.values()))) == 4

    def test_two_store_handles_on_one_file_see_each_other(self, tmp_path, sample_jobs):
        """Two JobStore instances (two connection pools, as two server
        processes would hold) interleave claims and marks coherently."""
        path = tmp_path / "shared.db"
        a, b = JobStore(path), JobStore(path)
        try:
            stored = a.submit(sample_jobs[0])
            assert b.get_job(stored.id).status == "queued"
            claimed = b.claim_next(worker_id="b:proc-0")
            assert claimed.id == stored.id
            assert a.get_job(stored.id).claimed_by == "b:proc-0"
            assert a.claim_next(worker_id="a:proc-0") is None  # no double claim
            assert b.mark_done(stored.id, _result().as_dict(), worker_id="b:proc-0") == (
                True,
                [],
            )
            assert a.get_job(stored.id).status == "done"
            assert a.get_result(stored.fingerprint) is not None
        finally:
            a.close()
            b.close()

    def test_use_after_close_raises_programming_error(self, tmp_path, sample_jobs):
        import sqlite3

        store = JobStore(tmp_path / "jobs.db")
        store.submit(sample_jobs[0])
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            store.counts()


class TestMonotonicClock:
    """TTL / staleness arithmetic must survive wall-clock steps: the store
    clock is anchored once and advances with time.monotonic()."""

    def test_backward_wall_clock_step_cannot_immortalise_jobs(
        self, store, sample_jobs, monkeypatch
    ):
        import time as time_module

        stored = store.submit(sample_jobs[0], ttl_seconds=0.0)
        store.claim_next("proc-0")
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        # An NTP step pulls wall time a day into the past *after* the job
        # finished; the expiry comparison must not be pushed a day out.
        real_time = time_module.time
        monkeypatch.setattr(time_module, "time", lambda: real_time() - 86_400)
        assert store.sweep_expired()["jobs"] == 1

    def test_forward_wall_clock_step_cannot_mass_expire_jobs(
        self, store, sample_jobs, monkeypatch
    ):
        import time as time_module

        stored = store.submit(sample_jobs[0], ttl_seconds=3600.0)
        store.claim_next("proc-0")
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        real_time = time_module.time
        monkeypatch.setattr(time_module, "time", lambda: real_time() + 86_400)
        assert store.sweep_expired()["jobs"] == 0
        assert store.get_job(stored.id).status == "done"

    def test_store_clock_tracks_the_wall_epoch(self, store):
        import time as time_module

        assert abs(store._now() - time_module.time()) < 5.0

    def test_heartbeats_never_lag_the_wall_clock_after_a_suspend(
        self, store, sample_jobs
    ):
        """CLOCK_MONOTONIC does not advance through a host suspend / VM
        pause; after resume the store clock lags the wall clock.  Heartbeat
        stamps are compared against *peer processes'* clocks, so they take
        the later of the two -- or every job this server claims would look
        permanently stale to the sweeper-lease holder."""
        import time as time_module

        stored = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        # Simulate a 100s suspend: the monotonic-anchored clock now lags.
        store._wall_anchor -= 100.0
        assert store._now() < time_module.time() - 50.0
        assert store.touch_claim(stored.id, "proc-0") == (True, False)
        assert store.get_job(stored.id).heartbeat_at >= time_module.time() - 5.0
        # A peer store handle with an accurate clock sees the claim as live.
        peer = JobStore(store.path)
        try:
            assert peer.requeue_stale(50.0) == ([], [])
            assert peer.get_job(stored.id).status == "running"
        finally:
            peer.close()


class TestFingerprintDedupCorners:
    """A queued twin of a running job is deferred, but must be re-claimed
    and verified in its own right when the twin ends uncached (cancelled,
    deadline-partial, or its worker died)."""

    def test_queued_twin_is_claimable_after_twin_is_cancelled(self, store, sample_jobs):
        running = store.submit(sample_jobs[0])
        twin = store.submit(sample_jobs[0])
        assert store.claim_next(worker_id="proc-0").id == running.id
        assert store.claim_next(worker_id="proc-1") is None  # deferred
        store.request_cancel(running.id)
        store.mark_cancelled(running.id, None, worker_id="proc-0")
        assert store.get_job(twin.id).status == "queued"
        # The cancelled twin produced no cached result: the queued twin must
        # not wedge -- it is claimed and verified like any other job.
        reclaimed = store.claim_next(worker_id="proc-1")
        assert reclaimed is not None and reclaimed.id == twin.id

    def test_queued_twin_is_claimable_after_deadline_partial_twin(
        self, store, sample_jobs
    ):
        running = store.submit(sample_jobs[0], deadline_ms=1)
        twin = store.submit(sample_jobs[0])
        assert store.claim_next("proc-0").id == running.id
        # Deadline-truncated verdicts stay off the results table and complete
        # no twin.
        assert store.mark_done(
            running.id, _result().as_dict(), worker_id="proc-0", persist_result=False
        ) == (True, [])
        assert store.get_result(running.fingerprint) is None
        assert store.get_job(twin.id).status == "queued"
        reclaimed = store.claim_next("proc-1")
        assert reclaimed is not None and reclaimed.id == twin.id

    def test_queued_twin_is_claimable_after_worker_death(self, store, sample_jobs):
        crashed = store.submit(sample_jobs[0])
        twin = store.submit(sample_jobs[0])
        assert store.claim_next(worker_id="proc-0").id == crashed.id
        store.release(crashed.id, "proc-0")  # the worker died; recovery path
        # FIFO: the released original comes back first, the twin after it.
        assert store.claim_next(worker_id="proc-1").id == crashed.id
        assert store.claim_next(worker_id="proc-2") is None
        store.mark_cancelled(crashed.id, None, worker_id="proc-1")
        assert store.claim_next(worker_id="proc-2").id == twin.id


class TestKnownVerdictsNeverQueue:
    """A job whose fingerprint has a stored verdict is never ``queued``:
    ``submit`` completes it at once, and ``mark_done`` completes the
    queued twins of the fingerprint it persists."""

    @staticmethod
    def _assert_cache_hit(store, job_id):
        job = store.get_job(job_id)
        assert job.status == "done" and job.cache_hit
        assert job.claimed_by is None
        events = store.events_after(job_id)
        assert [(e["kind"], e["data"]) for e in events] == [
            ("done", {"outcome": "satisfied", "cache_hit": True})
        ]
        return job

    def test_submit_of_a_stored_fingerprint_is_done_at_once(self, store, sample_jobs):
        store.put_result(sample_jobs[0].fingerprint, _result().as_dict())
        stored = store.submit(sample_jobs[0], ttl_seconds=60.0)
        assert stored.status == "done" and stored.cache_hit
        assert stored.started_at == stored.finished_at == stored.submitted_at
        assert stored.expires_at == pytest.approx(stored.submitted_at + 60.0)
        self._assert_cache_hit(store, stored.id)
        assert store.claim_next("proc-0") is None
        other = store.submit(sample_jobs[1], ttl_seconds=60.0)  # nothing stored
        assert other.status == "queued" and other.expires_at is None
        assert store.events_after(other.id) == []

    def test_queued_twin_is_done_after_the_running_job_persists(
        self, store, sample_jobs
    ):
        running = store.submit(sample_jobs[0])
        twin = store.submit(sample_jobs[0])
        assert store.claim_next(worker_id="proc-0").id == running.id
        landed, twins = store.mark_done(
            running.id, _result().as_dict(), worker_id="proc-0"
        )
        assert landed and [t.id for t in twins] == [twin.id]
        assert twins[0].status == "done" and twins[0].cache_hit
        job = self._assert_cache_hit(store, twin.id)
        assert job.started_at == job.finished_at
        assert not store.get_job(running.id).cache_hit
        assert store.claim_next(worker_id="proc-1") is None

    def test_twin_completion_across_two_store_handles(self, tmp_path, sample_jobs):
        path = tmp_path / "shared.db"
        a, b = JobStore(path), JobStore(path)
        try:
            running = a.submit(sample_jobs[0])
            assert b.claim_next(worker_id="b:proc-0").id == running.id
            twin = a.submit(sample_jobs[0])  # queued: nothing stored yet
            assert twin.status == "queued"
            _, twins = b.mark_done(running.id, _result().as_dict(), worker_id="b:proc-0")
            assert [t.id for t in twins] == [twin.id]
            self._assert_cache_hit(a, twin.id)
            assert a.claim_next(worker_id="a:proc-0") is None
        finally:
            a.close()
            b.close()

    def test_a_zombie_verdict_still_completes_the_twins(self, store, sample_jobs):
        running = store.submit(sample_jobs[0])
        twin = store.submit(sample_jobs[0])
        store.claim_next(worker_id="proc-0")
        assert store.requeue_stale(0.0) == ([running.id], [])  # the rescue requeues the job
        landed, twins = store.mark_done(
            running.id, _result().as_dict(), worker_id="proc-0"
        )
        # The zombie's own mark bounces, but its verdict is persisted and
        # completes every queued row of the fingerprint -- the rescued job
        # itself included.
        assert not landed
        assert sorted(t.id for t in twins) == sorted([running.id, twin.id])
        assert store.claim_next("proc-0") is None


class TestResubmissionThroughTheServer:
    """The invariant end to end: a resubmitted fingerprint is answered inside
    its POST, so no queue wait or worker execution is traced for it and the
    verifier is not invoked again."""

    def test_resubmission_skips_queue_and_worker(self, tmp_path, worker_model, sample_jobs):
        import time

        from repro.client import VerifasClient

        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            worker_model=worker_model, trace_enabled=True,
        )
        server.start()
        try:
            with VerifasClient(server.url) as client:
                job = sample_jobs[0]
                payload = {
                    "system": job.system_dict,
                    "property": job.property_dict,
                    "options": {"timeout_seconds": 30},
                }
                first = client.submit_payload(payload)[0]
                assert first.status == "queued"
                client.wait(first.id, deadline_seconds=60)
                runs = client.metrics()["counters"]["verifications_run"]
                assert runs == 1

                second = client.submit_payload(payload)[0]
                assert second.status == "done" and second.fingerprint == first.fingerprint
                view = client.job(second.id)
                assert view["cache_hit"] is True
                assert view["result"] == client.job(first.id)["result"]
                assert [e["kind"] for e in client.events(second.id)["events"]] == ["done"]
                # The http.submit span is finished after the response is sent.
                deadline = time.monotonic() + 10.0
                names = set()
                while "http.submit" not in names and time.monotonic() < deadline:
                    names = {span["name"] for span in client.trace(second.id)["spans"]}
                    time.sleep(0.02)
                assert names == {"http.submit"}
                first_names = {span["name"] for span in client.trace(first.id)["spans"]}
                assert {"queue.wait", "worker.execute"} <= first_names
                assert client.metrics()["counters"]["verifications_run"] == runs
        finally:
            server.stop()


class TestQueries:
    def test_list_jobs_filters_and_limits(self, store, sample_jobs):
        for _ in range(3):
            store.submit(sample_jobs[0])
        store.claim_next("proc-0")  # claims the oldest; listing is newest-first
        assert [j.status for j in store.list_jobs()] == ["queued", "queued", "running"]
        assert len(store.list_jobs(status="queued")) == 2
        assert len(store.list_jobs(status="running")) == 1
        assert len(store.list_jobs(limit=1)) == 1

    def test_list_jobs_rejects_unknown_status(self, store):
        with pytest.raises(ValueError, match="unknown job status"):
            store.list_jobs(status="finished")

    def test_counts_cover_every_status(self, store, sample_jobs):
        assert store.counts() == {
            "queued": 0, "running": 0, "done": 0, "error": 0, "cancelled": 0,
        }
        store.submit(sample_jobs[0])
        store.submit(sample_jobs[1])
        store.claim_next("proc-0")
        assert store.counts() == {
            "queued": 1, "running": 1, "done": 0, "error": 0, "cancelled": 0,
        }

    def test_get_result_reads_the_persisted_verdict(self, store):
        store.put_result("fp", _result().as_dict())
        assert store.get_result("fp")["outcome"] == "satisfied"
        assert store.get_result("missing") is None


class TestPersistence:
    def test_jobs_and_results_survive_reopen(self, tmp_path, sample_jobs):
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        stored = store.submit(sample_jobs[0])
        store.claim_next("proc-0")
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        queued = store.submit(sample_jobs[1])
        store.close()

        reopened = JobStore(path)
        assert reopened.get_job(stored.id).status == "done"
        assert reopened.get_job(queued.id).status == "queued"
        assert reopened.get_result(stored.fingerprint) is not None
        reopened.close()

    def test_recover_requeues_interrupted_jobs(self, tmp_path, sample_jobs):
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        done = store.submit(sample_jobs[0])
        store.claim_next("proc-0")
        store.mark_done(done.id, _result().as_dict(), worker_id="proc-0")
        interrupted = store.submit(sample_jobs[1])
        store.claim_next("proc-0")  # now `running`; simulate the process dying here
        store.close()

        reopened = JobStore(path)
        report = recover(reopened)
        assert report.requeued == 1 and report.queued == 1
        assert report.completed == 1 and report.results_retained == 1
        assert reopened.get_job(interrupted.id).status == "queued"
        assert "re-queued" in report.summary()
        reopened.close()


class TestSubmitReturnsTheStoredRow:
    """``submit`` builds its return value from the values it inserted: it
    equals what ``get_job`` reads back, field for field and in the JSON
    view, without decoding the row it just wrote."""

    WARNINGS = [
        {"code": "VA501", "name": "unused-variable", "severity": "warning",
         "message": "variable 'x' is never read", "where": "task 'Main'"},
    ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"label": "smoke"},
            {"ttl_seconds": 3600},
            {"ttl_seconds": 1.5, "deadline_ms": 5000},
            {"trace_id": "ab" * 16, "parent_span": "cd" * 8},
            {"warnings": WARNINGS},
            {"warnings": []},
            {"label": "all", "ttl_seconds": 60, "deadline_ms": 1, "trace_id": "ef" * 16,
             "parent_span": "01" * 8, "warnings": WARNINGS},
        ],
        ids=["bare", "label", "int-ttl", "float-ttl-deadline", "trace", "warnings",
             "no-warnings", "everything"],
    )
    def test_submitted_job_equals_the_row_read_back(self, store, sample_jobs, kwargs):
        submitted = store.submit(sample_jobs[0], **kwargs)
        fetched = store.get_job(submitted.id)
        assert submitted == fetched
        assert submitted.system_dict == fetched.system_dict
        assert submitted.warnings == fetched.warnings
        assert json.dumps(submitted.as_dict()) == json.dumps(fetched.as_dict())

    def test_label_defaults_to_the_jobs_own(self, store, sample_jobs):
        job = VerificationJob(
            system_dict=sample_jobs[0].system_dict,
            property_dict=sample_jobs[0].property_dict,
            options_dict=sample_jobs[0].options_dict,
            label="from-the-job",
        )
        submitted = store.submit(job)
        assert submitted.label == "from-the-job" == store.get_job(submitted.id).label

    def test_a_queued_submit_decodes_no_row(self, store, sample_jobs, monkeypatch):
        def decode(row):
            raise AssertionError("submit decoded a row")

        monkeypatch.setattr(StoredJob, "_from_row", staticmethod(decode))
        submitted = store.submit(sample_jobs[0], label="x")
        assert submitted.status == "queued"

    def test_a_cache_hit_submit_equals_the_row_read_back(self, store, sample_jobs):
        store.put_result(sample_jobs[0].fingerprint, _result().as_dict())
        submitted = store.submit(sample_jobs[0], ttl_seconds=10, warnings=self.WARNINGS)
        assert submitted.status == "done" and submitted.cache_hit
        assert submitted == store.get_job(submitted.id)


class TestJobStatus:
    def test_status_follows_the_lifecycle(self, store, sample_jobs):
        stored = store.submit(sample_jobs[0])
        assert store.job_status(stored.id) == "queued"
        store.claim_next("proc-0")
        assert store.job_status(stored.id) == "running"
        store.mark_done(stored.id, _result().as_dict(), worker_id="proc-0")
        assert store.job_status(stored.id) == "done"

    def test_unknown_id_has_no_status(self, store):
        assert store.job_status("ffffffffffff") is None


#: The store schema before the server became one trust domain, as an older
#: server wrote it: tenant columns on ``jobs``, the ``tenants`` and
#: ``claim_shares`` tables and the ``jobs_by_tenant`` index.
_PARENT_SCHEMA = """
CREATE TABLE jobs (
    id               TEXT PRIMARY KEY,
    fingerprint      TEXT NOT NULL,
    system_name      TEXT NOT NULL,
    property_name    TEXT NOT NULL,
    label            TEXT,
    status           TEXT NOT NULL
                     CHECK (status IN ('queued', 'running', 'done', 'error', 'cancelled')),
    error            TEXT,
    cache_hit        INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    claimed_by       TEXT,
    heartbeat_at     REAL,
    ttl_seconds      REAL,
    deadline_ms      INTEGER,
    expires_at       REAL,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    partial_json     TEXT,
    trace_id         TEXT,
    parent_span      TEXT,
    tenant_id        TEXT,
    priority         INTEGER NOT NULL DEFAULT 0,
    warnings_json    TEXT,
    system_json      TEXT NOT NULL,
    property_json    TEXT NOT NULL,
    options_json     TEXT NOT NULL
);
CREATE INDEX jobs_by_status ON jobs (status, submitted_at);
CREATE INDEX jobs_by_fingerprint ON jobs (fingerprint);
CREATE INDEX jobs_by_expiry ON jobs (expires_at) WHERE expires_at IS NOT NULL;
CREATE TABLE results (
    fingerprint TEXT PRIMARY KEY,
    result_json TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE events (
    job_id     TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL,
    kind       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
CREATE TABLE leases (
    name       TEXT PRIMARY KEY,
    owner      TEXT NOT NULL,
    expires_at REAL NOT NULL
);
CREATE TABLE spans (
    trace_id   TEXT NOT NULL,
    span_id    TEXT NOT NULL,
    parent_id  TEXT,
    job_id     TEXT,
    name       TEXT NOT NULL,
    start_time REAL NOT NULL,
    duration   REAL NOT NULL,
    status     TEXT NOT NULL DEFAULT 'ok',
    attrs      TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (trace_id, span_id)
);
CREATE INDEX spans_by_job ON spans (job_id) WHERE job_id IS NOT NULL;
CREATE INDEX jobs_by_tenant ON jobs (tenant_id, status);
CREATE TABLE tenants (
    id          TEXT PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    key_id      TEXT NOT NULL UNIQUE,
    key_hash    TEXT NOT NULL,
    key_salt    TEXT NOT NULL,
    weight      REAL NOT NULL DEFAULT 1.0,
    rate_limit  REAL,
    burst       REAL,
    max_pending INTEGER,
    revoked     INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL
);
CREATE TABLE claim_shares (
    tenant_key TEXT PRIMARY KEY,
    vtime      REAL NOT NULL DEFAULT 0
);
"""

#: Queued jobs of the older store, oldest first: (id, tenant, priority,
#: submitted_at).  Weighted fair share served the tenant with the smaller
#: vtime first, and a tenant's higher priority first; FIFO ignores both.
_PARENT_JOBS = [
    ("anon-oldest", None, 0, 50.0),
    ("acme-middle", "acme", 0, 75.0),
    ("acme-newest", "acme", 5, 100.0),
]


def _parent_store(path, jobs):
    """A store file written with the older schema, holding *jobs* (one per
    entry of :data:`_PARENT_JOBS`) queued under a registered tenant."""
    connection = sqlite3.connect(path)
    with connection:
        connection.executescript(_PARENT_SCHEMA)
        connection.execute(
            "INSERT INTO tenants (id, name, key_id, key_hash, key_salt, weight,"
            " created_at) VALUES ('acme', 'acme', 'k1', 'h', 's', 4.0, 1.0)"
        )
        connection.executemany(
            "INSERT INTO claim_shares (tenant_key, vtime) VALUES (?, ?)",
            [("", 10.0), ("acme", 0.0)],
        )
        for job, (job_id, tenant, priority, submitted_at) in zip(jobs, _PARENT_JOBS):
            connection.execute(
                "INSERT INTO jobs (id, fingerprint, system_name, property_name, label,"
                " status, submitted_at, tenant_id, priority, system_json,"
                " property_json, options_json)"
                " VALUES (?, ?, ?, ?, NULL, 'queued', ?, ?, ?, ?, ?, ?)",
                (
                    job_id, job.fingerprint, job.system_name, job.property_name,
                    submitted_at, tenant, priority, job.system_json,
                    json.dumps(job.property_dict), json.dumps(job.options_dict),
                ),
            )
    connection.close()


def _schema_names(path):
    connection = sqlite3.connect(path)
    try:
        names = {row[0] for row in connection.execute("SELECT name FROM sqlite_master")}
        columns = {row[1] for row in connection.execute("PRAGMA table_info(jobs)")}
    finally:
        connection.close()
    return names, columns


class TestParentSchemaStore:
    """A store file written before the tenancy layer was retired opens as it
    is: its tenant columns and tables stay unread, and its jobs are claimed
    first in, first out."""

    @pytest.fixture
    def parent_path(self, tmp_path, tiny_system):
        path = tmp_path / "parent.db"
        _parent_store(path, _distinct_jobs(tiny_system, len(_PARENT_JOBS)))
        return path

    def test_jobs_are_claimed_in_fifo_order(self, parent_path):
        store = JobStore(parent_path)
        try:
            claimed = [store.claim_next("proc-0").id for _ in _PARENT_JOBS]
            assert claimed == [job_id for job_id, *_ in _PARENT_JOBS]
            assert store.claim_next("proc-0") is None
        finally:
            store.close()

    def test_a_job_is_viewed_and_completed(self, parent_path):
        server = VerificationServer(store_path=parent_path, port=0, workers=0)
        try:
            view = server.job_view("acme-newest")
            assert view["status"] == "queued"
            assert "tenant_id" not in view and "priority" not in view
            for _ in _PARENT_JOBS:
                claimed = server.store.claim_next("proc-0")
            assert claimed.id == "acme-newest"
            landed, _ = server.store.mark_done(
                claimed.id, _result().as_dict(), worker_id="proc-0"
            )
            assert landed
            view = server.job_view("acme-newest")
            assert view["status"] == "done" and view["result"]["outcome"] == "satisfied"
            assert server.events_view("acme-newest")["terminal"] is True
        finally:
            server.stop()

    def test_new_submissions_queue_behind_the_old_jobs(self, parent_path, tiny_system):
        store = JobStore(parent_path)
        try:
            [fresh] = [
                store.submit(job) for job in _distinct_jobs(tiny_system, 4)[3:]
            ]
            assert fresh == store.get_job(fresh.id)
            claimed = [store.claim_next("proc-0").id for _ in range(4)]
            assert claimed == [job_id for job_id, *_ in _PARENT_JOBS] + [fresh.id]
            assert store.counts()["running"] == 4
            assert [job.id for job in store.list_jobs(status="running", limit=1)] == [fresh.id]
        finally:
            store.close()

    def test_the_legacy_tables_stay_on_disk_untouched(self, parent_path):
        JobStore(parent_path).close()
        names, columns = _schema_names(parent_path)
        assert {"tenants", "claim_shares", "jobs_by_tenant"} <= names
        assert {"tenant_id", "priority"} <= columns
        connection = sqlite3.connect(parent_path)
        try:
            assert connection.execute("SELECT COUNT(*) FROM tenants").fetchone()[0] == 1
            assert connection.execute(
                "SELECT tenant_key, vtime FROM claim_shares ORDER BY tenant_key"
            ).fetchall() == [("", 10.0), ("acme", 0.0)]
        finally:
            connection.close()

    def test_a_new_store_has_no_tenant_schema(self, tmp_path):
        path = tmp_path / "new.db"
        JobStore(path).close()
        names, columns = _schema_names(path)
        assert not {"tenants", "claim_shares", "jobs_by_tenant"} & names
        assert not {"tenant_id", "priority"} & columns

    def test_a_server_verifies_the_old_jobs(self, parent_path, worker_model):
        server = VerificationServer(
            store_path=parent_path, port=0, workers=1, worker_model=worker_model,
        )
        server.start()
        try:
            with VerifasClient(server.url, poll_initial=0.02) as client:
                views = client.wait_all([job_id for job_id, *_ in _PARENT_JOBS], 120)
            assert {view["status"] for view in views.values()} == {"done"}
            started = sorted(views.values(), key=lambda view: view["started_at"])
            assert [view["id"] for view in started] == [job_id for job_id, *_ in _PARENT_JOBS]
        finally:
            server.stop()
