"""Tests of server metrics: nearest-rank percentiles, per-worker gauges,
monotonic uptime, and the Prometheus text rendering."""

from __future__ import annotations

import time

from repro.server import LatencyTracker, ServerMetrics, WorkerGauges
from repro.server.metrics import render_prometheus


class TestLatencyPercentiles:
    """Exact nearest-rank values (the smallest sample with >= f*n mass at
    or below it, i.e. ordered[ceil(f*n) - 1]), pinning the off-by-one that
    `int(f * n)` used to introduce."""

    def _filled(self, values):
        tracker = LatencyTracker()
        for value in values:
            tracker.observe(value)
        return tracker

    def test_p50_of_two_samples_is_the_lower_one(self):
        # The old `int(0.5 * 2) == 1` picked index 1 -> 2 (biased upward).
        assert self._filled([1.0, 2.0]).percentile(0.50) == 1.0

    def test_p50_of_an_even_window_is_the_lower_median(self):
        assert self._filled([1.0, 2.0, 3.0, 4.0]).percentile(0.50) == 2.0

    def test_p50_of_an_odd_window_is_the_median(self):
        assert self._filled([3.0, 1.0, 2.0]).percentile(0.50) == 2.0

    def test_single_sample_is_every_percentile(self):
        tracker = self._filled([5.0])
        assert tracker.percentile(0.50) == 5.0
        assert tracker.percentile(0.90) == 5.0
        assert tracker.percentile(0.99) == 5.0

    def test_p90_and_p99_of_ten_samples(self):
        # ordered = [1..10]: p90 -> ceil(9)-1 = index 8 -> 9; p99 -> index 9 -> 10.
        tracker = self._filled([float(n) for n in range(10, 0, -1)])
        assert tracker.percentile(0.90) == 9.0
        assert tracker.percentile(0.99) == 10.0

    def test_p100_is_the_maximum(self):
        assert self._filled([1.0, 2.0, 3.0]).percentile(1.0) == 3.0

    def test_p0_is_the_minimum(self):
        assert self._filled([1.0, 2.0, 3.0]).percentile(0.0) == 1.0

    def test_empty_window_has_no_percentiles(self):
        tracker = LatencyTracker()
        assert tracker.percentile(0.5) is None
        snapshot = tracker.snapshot()
        assert snapshot["count"] == 0 and snapshot["p50_seconds"] is None

    def test_snapshot_matches_percentile_readouts(self):
        tracker = self._filled([4.0, 1.0, 3.0, 2.0])
        snapshot = tracker.snapshot()
        assert snapshot["p50_seconds"] == tracker.percentile(0.50) == 2.0
        assert snapshot["p90_seconds"] == tracker.percentile(0.90) == 4.0
        assert snapshot["mean_seconds"] == 2.5

    def test_window_bounds_the_sample_count(self):
        tracker = LatencyTracker(window=4)
        for value in range(100):
            tracker.observe(float(value))
        # Only the last 4 observations (96..99) remain in the reservoir.
        assert tracker.percentile(0.0) == 96.0
        assert tracker.count == 100  # lifetime counter keeps the full tally


class TestWorkerGauges:
    def test_update_and_increment_round_trip(self):
        gauges = WorkerGauges()
        gauges.update("proc-0", state="busy", pid=123, current_job="abc")
        gauges.increment("proc-0", "jobs_completed")
        gauges.increment("proc-0", "jobs_completed")
        gauge = gauges.get("proc-0")
        assert gauge["state"] == "busy" and gauge["pid"] == 123
        assert gauge["jobs_completed"] == 2 and gauge["crashes"] == 0

    def test_snapshot_is_sorted_and_detached(self):
        gauges = WorkerGauges()
        gauges.update("proc-1", state="idle")
        gauges.update("proc-0", state="busy")
        snapshot = gauges.snapshot()
        assert [g["worker_id"] for g in snapshot] == ["proc-0", "proc-1"]
        snapshot[0]["state"] = "mutated"
        assert gauges.get("proc-0")["state"] == "busy"

    def test_server_metrics_carries_worker_gauges(self):
        metrics = ServerMetrics()
        metrics.worker_gauges.update("proc-0", state="idle")
        assert metrics.worker_gauges.snapshot()[0]["worker_id"] == "proc-0"
        assert metrics.counter("worker_crashes") == 0


class TestUptimeIsMonotonic:
    """Regression: uptime used to be ``time.time() - started_at``, which went
    negative (or jumped) whenever NTP stepped the wall clock."""

    def test_uptime_survives_a_backwards_wall_clock_step(self, monkeypatch):
        metrics = ServerMetrics()
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        assert metrics.uptime_seconds() >= 0.0
        assert metrics.snapshot()["uptime_seconds"] >= 0.0

    def test_uptime_ignores_a_forwards_wall_clock_step(self, monkeypatch):
        metrics = ServerMetrics()
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 3600.0)
        # A step forward must not inflate uptime past real elapsed time.
        assert metrics.uptime_seconds() < 60.0

    def test_uptime_grows_with_the_monotonic_clock(self, monkeypatch):
        metrics = ServerMetrics()
        anchor = metrics._mono_started
        monkeypatch.setattr(time, "monotonic", lambda: anchor + 12.5)
        assert metrics.uptime_seconds() == 12.5

    def test_started_at_stays_a_wall_clock_stamp_for_display(self):
        metrics = ServerMetrics()
        assert abs(metrics.started_at - time.time()) < 60.0


class TestPrometheusRendering:
    def _view(self, **overrides):
        view = {
            "server_id": "s1",
            "uptime_seconds": 42.5,
            "counters": {"jobs_submitted": 3, "worker_crashes": 0},
            "job_latency": {
                "count": 4, "mean_seconds": 2.0,
                "p50_seconds": 1.5, "p90_seconds": 3.5, "p99_seconds": 4.0,
            },
            "queue": {"depth": 2, "running": 1,
                      "jobs": {"queued": 2, "running": 1, "done": 5}},
            "cache": {"hits": 1, "misses": 3, "hit_rate": 0.25, "results": 3},
            "workers": {"count": 2, "pool": [
                {"worker_id": "a:proc-0", "state": "busy",
                 "jobs_completed": 9, "crashes": 1},
                {"worker_id": "a:proc-1", "state": "idle",
                 "jobs_completed": 2, "crashes": 0},
            ]},
        }
        view.update(overrides)
        return view

    def test_counters_become_suffixed_totals_with_help_and_type(self):
        text = render_prometheus(self._view())
        assert "# HELP repro_jobs_submitted_total Total jobs submitted." in text
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_jobs_submitted_total 3" in text
        assert text.endswith("repro_up 1\n")

    def test_latency_summary_has_quantiles_sum_and_count(self):
        text = render_prometheus(self._view())
        assert 'repro_job_latency_seconds{quantile="0.5"} 1.5' in text
        assert 'repro_job_latency_seconds{quantile="0.99"} 4.0' in text
        assert "repro_job_latency_seconds_sum 8.0" in text  # mean * count
        assert "repro_job_latency_seconds_count 4" in text

    def test_empty_latency_window_renders_nan_quantiles(self):
        text = render_prometheus(self._view(job_latency={
            "count": 0, "mean_seconds": None,
            "p50_seconds": None, "p90_seconds": None, "p99_seconds": None,
        }))
        assert 'repro_job_latency_seconds{quantile="0.5"} NaN' in text
        assert "repro_job_latency_seconds_count 0" in text

    def test_per_worker_gauges_are_labelled(self):
        text = render_prometheus(self._view())
        assert 'repro_worker_busy{worker_id="a:proc-0"} 1' in text
        assert 'repro_worker_busy{worker_id="a:proc-1"} 0' in text
        assert 'repro_worker_jobs_completed_total{worker_id="a:proc-0"} 9' in text
        assert 'repro_worker_crashes_total{worker_id="a:proc-0"} 1' in text
        assert "recycles" not in text

    def test_cache_hit_rate_is_the_only_cache_gauge(self):
        text = render_prometheus(self._view())
        assert "repro_cache_hit_rate 0.25" in text
        assert "repro_cache_entries" not in text

    def test_job_status_series_and_queue_gauges(self):
        text = render_prometheus(self._view())
        assert "repro_queue_depth 2" in text
        assert "repro_jobs_running 1" in text
        assert 'repro_jobs{status="done"} 5' in text

    def test_label_values_are_escaped(self):
        text = render_prometheus(self._view(server_id='we"ird\\id'))
        assert 'repro_server_info{server_id="we\\"ird\\\\id"} 1' in text

    def test_missing_sections_render_defaults_not_errors(self):
        text = render_prometheus({"counters": {}})
        assert 'repro_server_info{server_id=""} 1' in text
        assert "repro_workers 0" in text
        assert "repro_cache_hit_rate NaN" in text
        assert text.endswith("repro_up 1\n")
