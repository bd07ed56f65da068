"""Server metrics: counters and latency percentiles for ``GET /v1/metrics``.

Latencies are kept in a bounded reservoir (the most recent ``window``
observations), which is enough for interactive p50/p90/p99 readouts without
unbounded memory growth on a long-running server.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional


class LatencyTracker:
    """Sliding-window latency observations with percentile readouts."""

    def __init__(self, window: int = 1024):
        if window < 1:
            raise ValueError("window must be positive")
        self._samples: Deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()
        self.count = 0
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total_seconds += seconds

    @staticmethod
    def _rank(ordered, fraction: float) -> Optional[float]:
        # Nearest-rank quantile: the smallest sample with at least a
        # `fraction` share of the observations at or below it, i.e. index
        # ceil(f * n) - 1.  (`int(f * n)` is off by one: p50 of [1, 2]
        # would read 2, biasing every small-sample percentile upward.)
        if not ordered:
            return None
        return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]

    def percentile(self, fraction: float) -> Optional[float]:
        """The *fraction*-quantile (nearest-rank) of the window, or ``None``."""
        with self._lock:
            return self._rank(sorted(self._samples), fraction)

    def snapshot(self) -> Dict[str, Optional[float]]:
        # One lock acquisition and one sort: the counters and all three
        # percentiles describe the same sample set.
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self.count, self.total_seconds
        return {
            "count": count,
            "mean_seconds": (total / count) if count else None,
            "p50_seconds": self._rank(ordered, 0.50),
            "p90_seconds": self._rank(ordered, 0.90),
            "p99_seconds": self._rank(ordered, 0.99),
        }


class WorkerGauges:
    """Per-worker gauges: one row per worker slot, updated by its owner.

    Each slot reports its busy/idle state, the job currently on the wire,
    and cumulative jobs / crashes; a process-model slot also reports its
    child pid.  Snapshotted into ``/metrics`` under ``workers.pool``.
    """

    _DEFAULTS = {
        "state": "idle",
        "pid": None,
        "current_job": None,
        "jobs_completed": 0,
        "crashes": 0,
    }

    def __init__(self):
        self._lock = threading.Lock()
        self._workers: Dict[str, Dict[str, Any]] = {}

    def update(self, worker_id: str, **fields: Any) -> None:
        with self._lock:
            gauge = self._workers.setdefault(
                worker_id, {"worker_id": worker_id, **self._DEFAULTS}
            )
            gauge.update(fields)

    def increment(self, worker_id: str, name: str, amount: int = 1) -> None:
        with self._lock:
            gauge = self._workers.setdefault(
                worker_id, {"worker_id": worker_id, **self._DEFAULTS}
            )
            gauge[name] = gauge.get(name, 0) + amount

    def get(self, worker_id: str) -> Dict[str, Any]:
        with self._lock:
            return dict(self._workers.get(worker_id, {}))

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(self._workers[key]) for key in sorted(self._workers)]


class ServerMetrics:
    """Counters + latency tracker, snapshotted by the ``/metrics`` endpoint.

    ``server_id`` tags the snapshot in shared-store deployments, so an
    operator scraping several servers' ``/metrics`` can attribute each
    counter set (all counters are per-server: each server counts only the
    jobs *its* workers ran, the cancels *it* accepted, the sweeps *it* won).
    """

    def __init__(self, server_id: Optional[str] = None):
        self.server_id = server_id
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "jobs_expired": 0,
            "results_expired": 0,
            "cancel_requests": 0,
            "verifications_run": 0,
            # Jobs completed from a stored verdict (at submit, or as the
            # twin of a job that just finished) and jobs queued for a search.
            "cache_hits": 0,
            "cache_misses": 0,
            "worker_crashes": 0,
            # Shared-store citizenship: jobs this server's sweeper rescued
            # from dead owners, and sweep rounds skipped because a peer
            # server currently holds the sweeper lease.
            "stale_jobs_requeued": 0,
            "sweeper_lease_misses": 0,
            # HTTP requests, and the connections (one handler thread each)
            # that carried them.
            "requests": 0,
            "connections": 0,
            # Event-bus delivery: every typed event fired through the
            # EventManager, and how many /v1/jobs/<id>/events requests
            # long-polled (?wait_ms=).
            "events_emitted": 0,
            "long_poll_requests": 0,
            # Observability: spans the TraceSink persisted, /trace reads.
            "spans_recorded": 0,
            "trace_requests": 0,
            # Job-route requests refused for a missing or wrong access token.
            "auth_failures": 0,
            # Submissions rejected by the static analysis gate (HTTP 422);
            # per-code shadows appear as specs_rejected_va1xx on first use.
            "specs_rejected": 0,
            # Submissions whose system came from the checked-system memo
            # (parse and lint skipped) and those that ran them.
            "spec_memo_hits": 0,
            "spec_memo_misses": 0,
        }
        self.job_latency = LatencyTracker()
        self.worker_gauges = WorkerGauges()
        #: Wall-clock start stamp, for display only.  Uptime arithmetic uses
        #: the monotonic anchor below: ``time.time() - started_at`` goes
        #: negative (or jumps) when NTP steps the wall clock, the same
        #: failure mode the store clock guards against (see
        #: ``JobStore._now``).
        self.started_at = time.time()
        self._mono_started = time.monotonic()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def uptime_seconds(self) -> float:
        """Seconds since construction, immune to wall-clock steps."""
        return time.monotonic() - self._mono_started

    def snapshot(self) -> Dict[str, object]:
        return {
            "server_id": self.server_id,
            "uptime_seconds": self.uptime_seconds(),
            "counters": self.counters(),
            "job_latency": self.job_latency.snapshot(),
        }


# ---------------------------------------------------------------- prometheus

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _number(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(view: Mapping[str, Any]) -> str:
    """Render a ``metrics_view()`` dict in Prometheus text exposition 0.0.4.

    Served when ``GET /v1/metrics`` negotiates ``text/plain`` (or is asked
    via ``?format=prometheus``); the JSON view stays the default.  Counters
    become ``repro_<name>_total``, the latency snapshot a summary with
    nearest-rank quantiles, per-worker gauges get a ``worker_id`` label.
    All metrics are per-server (scrape every server of a shared-store
    deployment; ``repro_server_info``'s ``server_id`` label attributes
    them).
    """
    lines: List[str] = []

    def emit(name: str, value: Any, help_text: str, kind: str, labels: str = "") -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {_number(value)}")

    server_id = view.get("server_id")
    lines.append("# HELP repro_server_info Static server identity (value is always 1).")
    lines.append("# TYPE repro_server_info gauge")
    lines.append(
        f'repro_server_info{{server_id="{_escape_label(server_id or "")}"}} 1'
    )
    emit(
        "repro_uptime_seconds",
        view.get("uptime_seconds", 0.0),
        "Seconds since server start (monotonic).",
        "gauge",
    )

    for name, value in sorted((view.get("counters") or {}).items()):
        metric = f"repro_{name}_total"
        emit(metric, value, f"Total {name.replace('_', ' ')}.", "counter")

    latency = view.get("job_latency") or {}
    count = latency.get("count") or 0
    mean = latency.get("mean_seconds") or 0.0
    lines.append(
        "# HELP repro_job_latency_seconds Job completion latency"
        " (sliding-window summary)."
    )
    lines.append("# TYPE repro_job_latency_seconds summary")
    for quantile, key in (("0.5", "p50_seconds"), ("0.9", "p90_seconds"), ("0.99", "p99_seconds")):
        lines.append(
            f'repro_job_latency_seconds{{quantile="{quantile}"}}'
            f" {_number(latency.get(key))}"
        )
    lines.append(f"repro_job_latency_seconds_sum {_number(mean * count)}")
    lines.append(f"repro_job_latency_seconds_count {count}")

    queue = view.get("queue") or {}
    emit("repro_queue_depth", queue.get("depth", 0), "Queued jobs awaiting a worker.", "gauge")
    emit("repro_jobs_running", queue.get("running", 0), "Jobs currently executing.", "gauge")
    for status, value in sorted((queue.get("jobs") or {}).items()):
        lines.append(f'repro_jobs{{status="{_escape_label(status)}"}} {_number(value)}')

    cache = view.get("cache") or {}
    emit(
        "repro_cache_hit_rate",
        cache.get("hit_rate"),
        "Fraction of jobs completed from a stored verdict.",
        "gauge",
    )

    workers = view.get("workers") or {}
    emit("repro_workers", workers.get("count", 0), "Configured worker slots.", "gauge")
    pool = workers.get("pool") or []
    if pool:
        lines.append("# HELP repro_worker_busy Whether the worker slot is running a job.")
        lines.append("# TYPE repro_worker_busy gauge")
        for gauge in pool:
            label = f'{{worker_id="{_escape_label(gauge.get("worker_id"))}"}}'
            lines.append(
                f"repro_worker_busy{label}"
                f" {1 if gauge.get('state') == 'busy' else 0}"
            )
        for field_name, help_text in (
            ("jobs_completed", "Jobs completed by the worker slot."),
            ("crashes", "Worker process crashes observed on the slot."),
        ):
            metric = f"repro_worker_{field_name}_total"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            for gauge in pool:
                label = f'{{worker_id="{_escape_label(gauge.get("worker_id"))}"}}'
                lines.append(f"{metric}{label} {_number(gauge.get(field_name, 0))}")

    lines.append("# HELP repro_up Scrape success indicator.")
    lines.append("# TYPE repro_up gauge")
    lines.append("repro_up 1")
    return "\n".join(lines) + "\n"
