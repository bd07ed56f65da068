"""Tests of ``Verifier.verify`` driven by a caller-owned ``SearchControl``:
the progress-event stream it feeds, and how a cancel, an external cancel
backend, a token deadline and ``options.timeout_seconds`` stop a search."""

from __future__ import annotations

import threading
import time

import pytest

from repro import Verifier, VerifierOptions
from repro.core.control import CancellationToken, SearchControl
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl


def _safety_property(name="never-shipped"):
    """Violated on the tiny system."""
    return LTLFOProperty(
        "Main", parse_ltl("G ns"), {"ns": Neq(Var("status"), Const("shipped"))}, name=name
    )


def _liveness_property():
    """Satisfied on the tiny system."""
    return LTLFOProperty(
        "Main", parse_ltl("F p"), {"p": Eq(Var("status"), Const("picked"))},
        name="eventually-picked",
    )


def _exploding_property():
    """Satisfied on the exploding system, so the search must exhaust it."""
    return LTLFOProperty(
        "Main",
        parse_ltl("G !(p & q)"),
        {"p": Eq(Var("v0"), Const("c0")), "q": Eq(Var("v0"), Const("c1"))},
        name="consistent",
    )


def _recording_control(**kwargs):
    events = []
    kwargs.setdefault("progress_interval", 1)
    return SearchControl(event_sink=events.append, **kwargs), events


class _Background:
    """``verify`` on a thread, so the test can act while the search runs."""

    def __init__(self, verifier, ltl_property, control):
        self.result = None
        self._thread = threading.Thread(
            target=self._run, args=(verifier, ltl_property, control), daemon=True
        )
        self._thread.start()

    def _run(self, verifier, ltl_property, control):
        self.result = verifier.verify(ltl_property, control)

    def join(self, timeout=30.0):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "verify did not stop"
        return self.result


def _wait_for_progress(events, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not any(event.kind == "progress" for event in list(events)):
        assert time.monotonic() < deadline, "search never reported progress"
        time.sleep(0.01)


class TestEventStream:
    def test_verify_emits_phase_progress_stats_and_done(self, tiny_system):
        control, events = _recording_control()
        result = Verifier(tiny_system, VerifierOptions(timeout_seconds=30)).verify(
            _safety_property(), control
        )
        assert result.violated
        kinds = [event.kind for event in events]
        assert kinds[0] == "phase"
        assert "progress" in kinds
        assert kinds[-2:] == ["stats", "done"]
        assert events[-1].data["outcome"] == "violated"

    def test_done_event_carries_the_satisfied_outcome(self, tiny_system):
        control, events = _recording_control()
        result = Verifier(tiny_system, VerifierOptions(timeout_seconds=30)).verify(
            _liveness_property(), control
        )
        assert result.satisfied
        assert events[-1].kind == "done" and events[-1].data["outcome"] == "satisfied"

    def test_event_seqs_count_up_from_one(self, tiny_system):
        control, events = _recording_control()
        Verifier(tiny_system).verify(_safety_property(), control)
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        stamps = [event.timestamp for event in events]
        assert stamps == sorted(stamps) and stamps[0] > 0

    def test_a_reused_control_keeps_one_sequence_across_verify_calls(self, tiny_system):
        control, events = _recording_control()
        verifier = Verifier(tiny_system, VerifierOptions(timeout_seconds=30))
        verifier.verify(_safety_property(), control)
        first_run = len(events)
        verifier.verify(_liveness_property(), control)
        assert len(events) > first_run
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        assert [event.data.get("outcome") for event in events if event.kind == "done"] == [
            "violated", "satisfied",
        ]

    def test_progress_heartbeats_follow_the_interval(self, exploding_system):
        control, events = _recording_control(
            progress_interval=7, token=CancellationToken(deadline=time.monotonic() + 0.5)
        )
        Verifier(exploding_system, VerifierOptions(max_states=500_000)).verify(
            _exploding_property(), control
        )
        explored = [event.data["states_explored"] for event in events if event.kind == "progress"]
        assert explored, "no progress event in half a second of search"
        assert all(count % 7 == 0 for count in explored)
        assert explored == sorted(explored)

    def test_a_broken_sink_does_not_change_the_verdict(self, tiny_system):
        def broken(event):
            raise RuntimeError("observer bug")

        verifier = Verifier(tiny_system, VerifierOptions(timeout_seconds=30))
        control = SearchControl(event_sink=broken, progress_interval=1)
        assert verifier.verify(_safety_property(), control).violated
        assert verifier.verify(_liveness_property(), control).satisfied

    def test_unknown_task_raises_before_any_event(self, tiny_system):
        bad = LTLFOProperty(
            "NoSuchTask", parse_ltl("G p"), {"p": Eq(Var("status"), Const("x"))}, name="bad"
        )
        control, events = _recording_control()
        with pytest.raises(ValueError, match="unknown task"):
            Verifier(tiny_system).verify(bad, control)
        assert events == []


class TestCancellation:
    def test_cancel_mid_search_returns_unknown_with_partial_stats(self, exploding_system):
        control, events = _recording_control(progress_interval=20)
        run = _Background(
            Verifier(exploding_system, VerifierOptions(max_states=500_000)),
            _exploding_property(), control,
        )
        _wait_for_progress(events)
        control.token.cancel()
        result = run.join()
        assert result.unknown
        assert result.stats.cancelled and not result.stats.timed_out
        assert result.stats.states_explored >= 20  # partial statistics survive
        assert events[-1].kind == "done" and events[-1].data["outcome"] == "unknown"

    def test_external_backend_stops_the_search_and_latches(self, exploding_system):
        """A pollable backend (``multiprocessing.Event``-shaped) cancels the
        search with no reference to the token, and the token remembers it."""
        fired = threading.Event()
        control, events = _recording_control(
            progress_interval=20, token=CancellationToken(external=fired.is_set)
        )
        run = _Background(
            Verifier(exploding_system, VerifierOptions(max_states=500_000)),
            _exploding_property(), control,
        )
        _wait_for_progress(events)
        fired.set()
        result = run.join()
        assert result.unknown and result.stats.cancelled
        fired.clear()  # the backend may be torn down while the search unwinds
        assert control.token.cancelled

    def test_cancel_before_start_stops_immediately(self, exploding_system):
        token = CancellationToken()
        token.cancel()
        result = Verifier(exploding_system, VerifierOptions(max_states=500_000)).verify(
            _exploding_property(), SearchControl(token=token)
        )
        assert result.unknown and result.stats.cancelled
        # Only the initial states were materialised before the first check.
        assert result.stats.states_explored <= 5

    def test_token_deadline_returns_unknown_timed_out(self, exploding_system):
        token = CancellationToken(deadline=time.monotonic() + 0.3)
        started = time.monotonic()
        result = Verifier(exploding_system, VerifierOptions(max_states=500_000)).verify(
            _exploding_property(), SearchControl(token=token)
        )
        assert time.monotonic() - started < 5.0
        assert result.unknown
        assert result.stats.timed_out and not result.stats.cancelled

    def test_options_timeout_still_applies(self, exploding_system):
        """``options.timeout_seconds`` folds into the control's deadline."""
        result = Verifier(
            exploding_system, VerifierOptions(max_states=500_000, timeout_seconds=0.3)
        ).verify(_exploding_property(), SearchControl())
        assert result.unknown and result.stats.timed_out

    def test_options_timeout_is_scoped_per_verify(self, exploding_system):
        """A reusable caller control must not inherit an earlier verify's
        timeout: each call gets the full budget."""
        control = SearchControl()
        verifier = Verifier(
            exploding_system, VerifierOptions(max_states=500_000, timeout_seconds=0.3)
        )
        first = verifier.verify(_exploding_property(), control)
        assert first.unknown and first.stats.timed_out
        # The shared token was not tightened by the run.
        assert control.stop_reason() is None and not control.token.expired()
        second = verifier.verify(_exploding_property(), control)
        assert second.unknown and second.stats.timed_out
        assert second.stats.states_explored > 5  # a full budget, not a stale deadline

    def test_a_cancel_wins_over_the_options_timeout(self, exploding_system):
        token = CancellationToken()
        token.cancel()
        result = Verifier(
            exploding_system, VerifierOptions(max_states=500_000, timeout_seconds=0.001)
        ).verify(_exploding_property(), SearchControl(token=token))
        assert result.stats.cancelled and not result.stats.timed_out
