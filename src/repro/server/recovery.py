"""Restart recovery for the verification server.

A server process can die with jobs in every lifecycle state.  On startup the
server runs :func:`recover` against its :class:`~repro.server.store.JobStore`,
which makes one store call,
:meth:`~repro.server.store.JobStore.recover_interrupted`:

* jobs stuck ``running`` lost their worker, and the store's one rule for
  interrupted jobs applies: a job whose cancellation was already accepted
  before the crash is finalised ``cancelled`` (requeueing it would resurrect
  work that was explicitly stopped), every other one goes back to
  ``queued`` and is re-verified -- verification is deterministic and
  idempotent, so re-running an interrupted job is always safe;
* ``queued`` jobs simply wait for the restarted workers (one whose
  fingerprint already has a stored result, left by an older store, is
  verified again -- deterministically, to the same verdict);
* ``done`` jobs keep their persisted results: a resubmitted fingerprint
  completes from them at submit, without invoking the verifier again;
* ``cancelled`` jobs are terminal and stay untouched.

Shared-store deployments
========================

When several servers share one store file, a restarting server must not
"recover" jobs that are running live on its peers.  Passing ``server_id``
scopes the repair: only claims made by this server's own workers (their
``claimed_by`` starts with ``"<server_id>:"``) are touched, plus ``running``
rows without any claim, which only older store files hold.  Scopes of
distinct server ids are disjoint, so concurrent startups cannot requeue
each other's work -- no lock needed; repair of *peers that crash later* is
handled at runtime by the sweeper-lease holder's stale-heartbeat rescue
(see :meth:`~repro.server.store.JobStore.requeue_stale` and the server's
sweeper loop).  ``server_id=None`` repairs the whole store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.events import EventManager, RecoveryCompleted
from repro.server.store import JobStore


@dataclass(frozen=True)
class RecoveryReport:
    """What a restarted server found in (and did to) its store."""

    requeued: int          # interrupted `running` jobs returned to the queue
    queued: int            # jobs awaiting a worker after recovery
    completed: int         # jobs whose results survived the restart
    errored: int           # jobs that had failed before the restart
    cancelled: int         # terminal cancelled jobs (incl. those finalised now)
    cancelled_interrupted: int  # running jobs finalised as cancelled (not requeued)
    results_retained: int  # persisted result rows resubmissions complete from

    def as_dict(self) -> Dict[str, int]:
        return {
            "requeued": self.requeued,
            "queued": self.queued,
            "completed": self.completed,
            "errored": self.errored,
            "cancelled": self.cancelled,
            "cancelled_interrupted": self.cancelled_interrupted,
            "results_retained": self.results_retained,
        }

    def summary(self) -> str:
        return (
            f"recovered store: {self.requeued} interrupted job(s) re-queued, "
            f"{self.cancelled_interrupted} finalised as cancelled, "
            f"{self.queued} queued, {self.completed} completed, "
            f"{self.errored} errored, {self.cancelled} cancelled, "
            f"{self.results_retained} result(s) retained"
        )


def recover(
    store: JobStore,
    server_id: Optional[str] = None,
    heartbeat_grace_seconds: Optional[float] = None,
    events: Optional[EventManager] = None,
) -> RecoveryReport:
    """Repair *store* after an unclean shutdown and report what was found.

    With ``server_id``, the repair is scoped to this server's own previous
    claims (plus claim-less rows of older stores) -- see the module
    docstring; jobs running live on peer servers sharing the store are left
    alone.

    ``heartbeat_grace_seconds`` (the server passes its staleness threshold)
    spares claims whose heartbeat is still fresh: during a rolling restart
    the old same-id instance may still be draining -- and heartbeating --
    its last jobs, and yanking them would discard nearly-finished work.
    Such claims are picked up by the sweeper's stale rescue if their owner
    really is gone.  Rows without heartbeats are always repaired.
    """
    requeued, cancelled_interrupted = store.recover_interrupted(
        owner_prefix=None if server_id is None else f"{server_id}:",
        heartbeat_grace_seconds=heartbeat_grace_seconds,
    )
    counts = store.counts()
    report = RecoveryReport(
        requeued=requeued,
        queued=counts["queued"],
        completed=counts["done"],
        errored=counts["error"],
        cancelled=counts["cancelled"],
        cancelled_interrupted=cancelled_interrupted,
        results_retained=store.result_count(),
    )
    if events is not None:
        # Onto the bus (a log line when a LogSink listens, an
        # events_emitted tick): recovery is an event like any other.
        events.fire(RecoveryCompleted(data=report.as_dict()))
    return report
