"""Unit tests of the cooperative-control primitives (repro.core.control)."""

from __future__ import annotations

import threading
import time

from repro.core.control import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    CancellationToken,
    ProgressEvent,
    SearchControl,
)


class TestCancellationToken:
    def test_fresh_token_never_stops(self):
        token = CancellationToken()
        assert token.stop_reason() is None
        assert not token.should_stop()
        assert not token.cancelled

    def test_cancel_is_idempotent_and_thread_safe(self):
        token = CancellationToken()
        threads = [threading.Thread(target=token.cancel) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert token.cancelled
        assert token.stop_reason() == STOP_CANCELLED

    def test_deadline_expiry(self):
        token = CancellationToken(deadline=time.monotonic() + 0.01)
        time.sleep(0.03)
        assert token.expired()
        assert token.stop_reason() == STOP_DEADLINE
        assert not token.cancelled  # deadline expiry is not a cancel

    def test_explicit_cancel_wins_over_expired_deadline(self):
        token = CancellationToken(deadline=time.monotonic())
        time.sleep(0.01)
        token.cancel()
        assert token.stop_reason() == STOP_CANCELLED

    def test_tighten_deadline_only_lowers(self):
        token = CancellationToken(deadline=time.monotonic() + 0.01)
        token.tighten_deadline(500.0)          # later: ignored
        time.sleep(0.03)
        assert token.stop_reason() == STOP_DEADLINE
        token = CancellationToken(deadline=time.monotonic() + 100.0)
        token.tighten_deadline(None)           # no-op
        assert not token.expired()
        token.tighten_deadline(0.001)          # sooner: applied
        time.sleep(0.01)
        assert token.stop_reason() == STOP_DEADLINE

    def test_tightening_a_token_without_deadline_sets_one(self):
        token = CancellationToken()
        token.tighten_deadline(0.001)
        time.sleep(0.01)
        assert token.expired()


class TestSearchControl:
    def test_default_control_is_inert(self):
        control = SearchControl()
        assert not control.should_stop()
        control.emit("progress", states_explored=1)  # no sink: dropped

    def test_events_are_sequenced_and_timestamped(self):
        received = []
        control = SearchControl(event_sink=received.append)
        control.emit_phase("search", property="p")
        control.emit_progress(10, 5, 3)
        control.emit("done", outcome="satisfied")
        assert [event.kind for event in received] == ["phase", "progress", "done"]
        assert [event.seq for event in received] == [1, 2, 3]
        assert received[0].data["phase"] == "search"
        assert received[1].data == {"states_explored": 10, "frontier": 5, "active": 3}
        assert all(event.timestamp > 0 for event in received)

    def test_progress_interval_gates_heartbeats(self):
        received = []
        control = SearchControl(event_sink=received.append, progress_interval=10)
        for count in range(1, 35):
            control.maybe_emit_progress(count, 0, 0)
        assert [event.data["states_explored"] for event in received] == [10, 20, 30]

    def test_broken_sink_never_raises(self):
        def sink(_event):
            raise RuntimeError("observer bug")

        control = SearchControl(event_sink=sink)
        control.emit("progress")  # must not propagate

    def test_scoped_adds_a_private_deadline(self):
        parent = SearchControl()
        child = parent.scoped(0.01)
        assert child is not parent
        time.sleep(0.03)
        assert child.stop_reason() == STOP_DEADLINE
        # The parent's token is untouched: it can be reused with a fresh scope.
        assert parent.stop_reason() is None

    def test_scoped_inherits_parent_cancellation_and_deadline(self):
        parent = SearchControl(token=CancellationToken(deadline=time.monotonic() + 0.01))
        child = parent.scoped(100.0)
        time.sleep(0.03)
        assert child.stop_reason() == STOP_DEADLINE  # parent deadline binds
        parent.token.cancel()
        assert child.stop_reason() == STOP_CANCELLED

    def test_scoped_without_timeout_returns_self(self):
        control = SearchControl()
        assert control.scoped(None) is control


class TestProgressEvent:
    def test_as_dict(self):
        event = ProgressEvent(
            kind="progress", data={"states_explored": 7}, seq=3, timestamp=12.5
        )
        assert event.as_dict() == {
            "kind": "progress", "seq": 3, "timestamp": 12.5, "data": {"states_explored": 7},
        }
