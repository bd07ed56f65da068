"""Cooperative search control: cancellation tokens and progress events.

Long-running searches (the Karp–Miller main phase, the repeated-reachability
re-search) accept a :class:`SearchControl` that bundles

* a :class:`CancellationToken` — a thread-safe flag plus an optional
  monotonic deadline, checked cooperatively inside the search loops (this
  replaces the ad-hoc ``timeout_seconds`` checks that each phase used to
  re-implement), and
* an event sink — any callable taking a :class:`ProgressEvent` — fed typed
  progress events (phase transitions, states explored, frontier size,
  partial statistics) while the search runs.

The primitives live in :mod:`repro.core` because the search loops consume
them; the user-facing session API that builds on them is :mod:`repro.api`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Stop reasons reported by :meth:`CancellationToken.stop_reason`.
STOP_CANCELLED = "cancelled"
STOP_DEADLINE = "deadline"


class CancellationToken:
    """A thread-safe cooperative cancellation flag with an optional deadline.

    The token never interrupts anything by itself: search loops poll
    :meth:`stop_reason` (or :meth:`should_stop`) at safe points and unwind
    with partial statistics when it fires.  ``cancel()`` may be called from
    any thread, any number of times.

    A token may be *scoped* under a parent (see :meth:`SearchControl.scoped`):
    it then also stops when the parent is cancelled or past its deadline,
    while its own deadline stays private -- this is how a per-``verify``
    ``timeout_seconds`` coexists with a long-lived session token without
    permanently tightening it.

    A token may also carry an *external* pollable backend: any zero-argument
    callable returning truthy once cancellation is requested (for example a
    ``multiprocessing.Event().is_set``, or a closure polling a persistent
    store's ``cancel_requested`` flag).  The backend is consulted on every
    :attr:`cancelled` check, which the search loops already perform once per
    iteration -- this is how a cancel crosses a process boundary without the
    requester holding a reference to the in-process token.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        parent: Optional["CancellationToken"] = None,
        external: Optional[Callable[[], bool]] = None,
    ):
        #: Absolute ``time.monotonic()`` deadline, or ``None`` for no deadline.
        self._deadline = deadline
        self._parent = parent
        self._external = external
        self._cancelled = threading.Event()

    @classmethod
    def with_timeout(cls, seconds: Optional[float]) -> "CancellationToken":
        """A token whose deadline is *seconds* from now (``None``: no deadline)."""
        return cls(deadline=None if seconds is None else time.monotonic() + seconds)

    # ------------------------------------------------------------------ state

    def cancel(self) -> None:
        """Request cancellation; idempotent and safe from any thread."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called here or on an ancestor, or the
        external pollable backend fired (deadline expiry not included)."""
        if self._cancelled.is_set():
            return True
        if self._external is not None and self._external():
            # Latch it: external backends may be expensive to poll (a store
            # query) or may be torn down while the search unwinds.
            self._cancelled.set()
            return True
        return self._parent is not None and self._parent.cancelled

    @property
    def deadline(self) -> Optional[float]:
        return self._deadline

    def tighten_deadline(self, seconds: Optional[float]) -> None:
        """Lower the deadline to *seconds* from now if that is sooner."""
        if seconds is None:
            return
        candidate = time.monotonic() + seconds
        if self._deadline is None or candidate < self._deadline:
            self._deadline = candidate

    def remaining(self) -> Optional[float]:
        """Seconds until the nearest deadline (own or inherited), or ``None``."""
        own = None if self._deadline is None else self._deadline - time.monotonic()
        inherited = self._parent.remaining() if self._parent is not None else None
        if own is None:
            return inherited
        if inherited is None:
            return own
        return min(own, inherited)

    def expired(self) -> bool:
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        return self._parent is not None and self._parent.expired()

    def stop_reason(self) -> Optional[str]:
        """``"cancelled"``, ``"deadline"`` or ``None`` (keep going).

        An explicit ``cancel()`` wins over a simultaneously expired deadline,
        so a user-initiated stop is never misreported as a timeout.
        """
        if self.cancelled:
            return STOP_CANCELLED
        if self.expired():
            return STOP_DEADLINE
        return None

    def should_stop(self) -> bool:
        return self.stop_reason() is not None


class RateLimitedPoll:
    """An *external* token backend over an expensive pollable.

    Wraps a zero-argument callable (typically a persistent-store query such
    as ``lambda: store.is_cancel_requested(job_id)``) for use as
    ``CancellationToken(external=...)``.  Search loops consult the external
    backend once per iteration -- far too often for a SQL round trip -- so
    this adapter consults the underlying pollable at most once per
    ``interval`` seconds and answers from the cached value in between.

    Once the pollable returns truthy the result latches True forever (the
    store row may be swept while the search unwinds).  Exceptions from the
    pollable are swallowed and read as "not cancelled": a flaky or
    shutting-down store must never kill a verification run.
    """

    def __init__(self, poll: Callable[[], bool], interval: float = 0.25):
        self._poll = poll
        self._interval = interval
        self._lock = threading.Lock()
        self._next_poll = 0.0  # monotonic stamp of the next allowed poll
        self._value = False

    def __call__(self) -> bool:
        if self._value:
            return True
        with self._lock:
            if self._value:
                return True
            now = time.monotonic()
            if now < self._next_poll:
                return False
            self._next_poll = now + self._interval
        try:
            value = bool(self._poll())
        except Exception:  # noqa: BLE001 - a dead store reads as "keep going"
            return False
        if value:
            self._value = True
        return value


class _NullPhase:
    """Shared no-op context manager: the disabled path of the phase hooks.

    Doubles as the no-op *span* yielded by an untraced ``control.span(...)``,
    so instrumented code can call ``set_attr``/``set_error`` unconditionally.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_error(self, message: str, reason: Optional[str] = None) -> None:
        pass


_NULL_PHASE = _NullPhase()


class _DisabledPhaseTimer:
    """The default phase timer: records nothing, allocates nothing.

    ``phase()`` returns a shared no-op context manager, so instrumented hot
    loops pay one method call per hook when profiling is off (perfbench's
    ``trace.overhead_share`` measures traced against untraced verify time).
    """

    __slots__ = ()
    enabled = False

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {}


_NULL_TIMER = _DisabledPhaseTimer()


class _PhaseSlot:
    """Accumulated wall time and entry count for one named phase."""

    __slots__ = ("seconds", "count", "_t0")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseSlot":
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.seconds += time.monotonic() - self._t0
        self.count += 1
        return False


class PhaseTimer:
    """Cheap per-phase wall-time accumulator for the search hot loops.

    ``with timer.phase("successors"): ...`` adds the elapsed monotonic time
    to the named bucket.  One slot object is reused per phase name, so the
    steady-state cost per hook is a dict lookup plus two ``monotonic()``
    calls -- cheap enough for per-node (not per-instruction) placement in
    the Karp-Miller loop.  Not thread-safe by design: one search runs on
    one thread, and each traced run gets its own timer.

    The aggregate lands in ``SearchStatistics.phase_seconds`` (the verifier
    snapshots it at the end of a run) and, when the run is traced, in the
    search span's ``phases`` attribute for the waterfall view.
    """

    __slots__ = ("_slots",)
    enabled = True

    def __init__(self) -> None:
        self._slots: Dict[str, _PhaseSlot] = {}

    def phase(self, name: str) -> _PhaseSlot:
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = _PhaseSlot()
        return slot

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"seconds": slot.seconds, "count": slot.count}
            for name, slot in self._slots.items()
            if slot.count
        }


class _NullTrace:
    """The default ``trace`` collaborator: every span is the shared no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullPhase:
        return _NULL_PHASE


_NULL_TRACE = _NullTrace()


@dataclass(frozen=True)
class ProgressEvent:
    """One typed progress event emitted by a search.

    ``kind`` is one of

    * ``"phase"``    -- a phase transition; ``data["phase"]`` names the phase
      entered (``"search"``, ``"repeated"``, ``"verdict"``, ...);
    * ``"progress"`` -- a periodic heartbeat from inside a search loop with
      ``states_explored``, ``frontier`` (worklist size) and ``active``
      (current active-set size);
    * ``"stats"``    -- a partial :class:`~repro.core.stats.SearchStatistics`
      snapshot (``data`` is its ``as_dict()`` form);
    * ``"done"``     -- the run finished; ``data`` carries ``outcome``.

    ``seq`` is a monotonically increasing per-control sequence number, so
    sinks that transport events elsewhere (the HTTP event log) can expose a
    stable cursor.
    """

    kind: str
    data: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    timestamp: float = 0.0

    @property
    def level(self) -> str:
        """Log level when the event reaches a log sink: the periodic
        ``progress`` heartbeats are ``debug`` chatter, everything else
        (phase transitions, stats snapshots, the verdict) is ``info``.
        :class:`repro.events.SearchEvent` mirrors this classification."""
        return "debug" if self.kind == "progress" else "info"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "seq": self.seq,
            "timestamp": self.timestamp,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProgressEvent":
        return cls(
            kind=payload.get("kind", "progress"),
            data=dict(payload.get("data", {})),
            seq=int(payload.get("seq", 0)),
            timestamp=float(payload.get("timestamp", 0.0)),
        )


#: Anything accepting a :class:`ProgressEvent`; exceptions it raises are
#: swallowed so a broken observer can never kill a verification run.
EventSink = Callable[[ProgressEvent], None]


class SearchControl:
    """The (token, event sink) pair threaded through the search phases.

    A default-constructed control never stops anything and drops all events,
    so the core search code can use it unconditionally::

        control = control or SearchControl()
    """

    def __init__(
        self,
        token: Optional[CancellationToken] = None,
        event_sink: Optional[EventSink] = None,
        progress_interval: int = 1000,
        phase_timer: Optional[PhaseTimer] = None,
        trace: Optional[Any] = None,
    ):
        self.token = token if token is not None else CancellationToken()
        self.event_sink = event_sink
        #: Emit a ``progress`` event every this many explored states.
        self.progress_interval = max(1, progress_interval)
        #: Hot-loop profiling hooks; the defaults are shared no-op objects,
        #: so an untraced control stays allocation-free per hook.  ``trace``
        #: is duck-typed: anything with ``span(name, **attrs)`` returning a
        #: context manager (``repro.obs.TraceScope`` in the traced server).
        self.phase_timer = phase_timer if phase_timer is not None else _NULL_TIMER
        self.trace = trace if trace is not None else _NULL_TRACE
        self._seq = itertools.count(1)

    def scoped(self, timeout_seconds: Optional[float]) -> "SearchControl":
        """A control sharing this one's token, sink and event sequence, with
        an additional *private* deadline *timeout_seconds* from now.

        Used to apply a per-run ``options.timeout_seconds`` without
        permanently tightening a caller-owned token (a session token reused
        across several ``verify`` calls keeps its own deadline intact).
        """
        if timeout_seconds is None:
            return self
        child = SearchControl(
            token=CancellationToken(
                deadline=time.monotonic() + timeout_seconds, parent=self.token
            ),
            event_sink=self.event_sink,
            progress_interval=self.progress_interval,
            phase_timer=self.phase_timer,
            trace=self.trace,
        )
        child._seq = self._seq  # keep event seq monotonic across the pair
        return child

    # --------------------------------------------------------------- profiling

    def phase(self, name: str) -> Any:
        """Context manager accumulating wall time into the named phase bucket.

        Safe (and free) on an untraced control: the default timer returns a
        shared no-op.  Meant for hot-loop placement; for spans with their
        own start/end in the trace waterfall use :meth:`span`.
        """
        return self.phase_timer.phase(name)

    def span(self, name: str, **attrs: Any) -> Any:
        """Context manager opening a trace span nested under the current one.

        No-op (shared singleton, no allocation) unless a traced server
        attached a ``repro.obs.TraceScope``.
        """
        return self.trace.span(name, **attrs)

    # ---------------------------------------------------------------- stopping

    def stop_reason(self) -> Optional[str]:
        return self.token.stop_reason()

    def should_stop(self) -> bool:
        return self.token.should_stop()

    def cancel(self) -> None:
        self.token.cancel()

    # ------------------------------------------------------------------ events

    def emit(self, kind: str, **data: Any) -> None:
        if self.event_sink is None:
            return
        event = ProgressEvent(
            kind=kind, data=data, seq=next(self._seq), timestamp=time.time()
        )
        try:
            self.event_sink(event)
        except Exception:  # noqa: BLE001 - observers must never kill the search
            pass

    def emit_phase(self, phase: str, **data: Any) -> None:
        self.emit("phase", phase=phase, **data)

    def emit_progress(self, states_explored: int, frontier: int, active: int) -> None:
        self.emit(
            "progress",
            states_explored=states_explored,
            frontier=frontier,
            active=active,
        )

    def maybe_emit_progress(self, states_explored: int, frontier: int, active: int) -> None:
        """Emit a heartbeat every ``progress_interval`` explored states."""
        if self.event_sink is not None and states_explored % self.progress_interval == 0:
            self.emit_progress(states_explored, frontier, active)
