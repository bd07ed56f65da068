"""Verification-as-a-service: a persistent job store behind an HTTP JSON API.

The server turns the batch :mod:`repro.service` engine into a long-running
process with durable state (pure stdlib: ``http.server`` + ``sqlite3``):

::

    python -m repro serve --port 8080 --workers 4 --store jobs.db

Submitted jobs, their lifecycle (``queued -> running -> done | error |
cancelled``), every computed result and the per-job progress-event log
persist in the SQLite store, keyed by content fingerprint.  A restarted
server re-queues interrupted jobs (finalising those whose cancellation was
already accepted) and serves previously computed results without
re-verifying (see :mod:`repro.server.recovery`): a job whose fingerprint
has a stored verdict completes inside its ``POST /v1/jobs`` transaction
and never enters the queue (see :mod:`repro.server.store`); a sweeper
thread expires TTL'd jobs and their now-unreferenced results.

The HTTP surface is versioned under ``/v1`` (``POST /v1/jobs``,
``GET /v1/jobs``, ``GET /v1/jobs/<id>``, ``DELETE /v1/jobs/<id>``,
``GET /v1/jobs/<id>/events``, ``GET /v1/metrics``, ``GET /v1/healthz``);
paths outside ``/v1`` answer 404 -- documented in ``README.md`` and
:mod:`repro.server.handlers`.
:mod:`repro.client` is the matching Python client library.
"""

from repro.server.app import VerificationServer
from repro.server.metrics import LatencyTracker, ServerMetrics, WorkerGauges
from repro.server.recovery import RecoveryReport, recover
from repro.server.store import JOB_STATUSES, TERMINAL_STATUSES, JobStore, StoredJob
from repro.server.workers import WorkerAgent, probe_process_support

__all__ = [
    "JOB_STATUSES",
    "JobStore",
    "LatencyTracker",
    "RecoveryReport",
    "ServerMetrics",
    "StoredJob",
    "TERMINAL_STATUSES",
    "VerificationServer",
    "WorkerAgent",
    "WorkerGauges",
    "probe_process_support",
    "recover",
]
