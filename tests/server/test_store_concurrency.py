"""Multi-process claim-storm stress test of the shared WAL store.

Acceptance for the shared-store rework: N *processes* hammering
``claim_next`` / ``heartbeat`` / ``mark_done`` on one WAL store file must
never double-claim a job, never lose one, and never deadlock on
``SQLITE_BUSY`` -- each worker process opens its own :class:`JobStore`
(its own connection pool), exactly as separate ``python -m repro serve``
processes would.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.server import JobStore
from repro.server.workers import START_METHOD, probe_process_support
from repro.service import VerificationJob

#: Storm shape: enough jobs and processes for real interleaving, small
#: enough for tier-1 (the whole storm is sub-second once spawned).
JOBS = 36
WORKERS = 4


def _seed_jobs(path, count: int):
    """Submit *count* queued jobs with distinct fingerprints; returns ids."""
    store = JobStore(path)
    try:
        return [
            store.submit(
                VerificationJob(
                    system_dict={"name": "storm"},
                    property_dict={"name": f"p{index}"},
                    options_dict={"max_states": 1000 + index},
                )
            ).id
            for index in range(count)
        ]
    finally:
        store.close()


def _storm_worker(path: str, worker_id: str, results) -> None:
    """Child-process entry point: claim-heartbeat-finish until the queue drains.

    Module-level so it is picklable by reference under ``spawn``.  Any
    assertion failure surfaces as a nonzero child exit code.
    """
    store = JobStore(path)
    claimed = []
    try:
        while True:
            stored = store.claim_next(worker_id=worker_id)
            if stored is None:
                counts = store.counts()
                if counts["queued"] == 0 and counts["running"] == 0:
                    break
                time.sleep(0.002)  # another process is mid-job; re-check
                continue
            assert stored.claimed_by == worker_id
            # The owner's heartbeat must land while the claim is live...
            assert store.touch_claim(stored.id, worker_id) == (True, False)
            # ... and exactly one finisher lands the terminal mark.
            assert store.mark_done(
                stored.id,
                {"outcome": "satisfied", "worker": worker_id},
                worker_id=worker_id,
            ) == (True, [])
            claimed.append(stored.id)
    finally:
        store.close()
    results.put((worker_id, claimed))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestMultiProcessClaimStorm:
    def test_no_double_claims_no_lost_jobs_no_deadlock(self, tmp_path):
        error = probe_process_support()
        if error is not None:  # pragma: no cover - sandbox guard
            pytest.skip(f"cannot spawn processes here: {error}")

        path = str(tmp_path / "storm.db")
        job_ids = _seed_jobs(path, JOBS)

        context = multiprocessing.get_context(START_METHOD)
        results = context.Queue()
        workers = [
            context.Process(
                target=_storm_worker,
                args=(path, f"storm-{index}:proc-0", results),
                daemon=True,
            )
            for index in range(WORKERS)
        ]
        for worker in workers:
            worker.start()

        # Drain the queue BEFORE joining: a child blocks flushing its result
        # if the queue pipe fills, so join-first can deadlock spuriously.
        per_worker = {}
        deadline = time.monotonic() + 120.0
        while len(per_worker) < WORKERS:
            remaining = deadline - time.monotonic()
            assert remaining > 0, (
                f"claim storm wedged: {len(per_worker)}/{WORKERS} workers reported"
            )
            try:
                worker_id, claimed = results.get(timeout=remaining)
            except Exception:  # pragma: no cover - queue.Empty on timeout
                continue
            per_worker[worker_id] = claimed
        for worker in workers:
            worker.join(timeout=30)
            assert worker.exitcode == 0, f"storm worker died with {worker.exitcode}"

        all_claims = [job_id for claims in per_worker.values() for job_id in claims]
        # Every job claimed exactly once across all processes: no double
        # claims (no duplicates) and no lost jobs (nothing missing).
        assert sorted(all_claims) == sorted(job_ids)

        # And the store agrees: everything finished exactly once.
        store = JobStore(path)
        try:
            counts = store.counts()
            assert counts["done"] == JOBS
            assert counts["queued"] == counts["running"] == 0
        finally:
            store.close()
