"""Stdlib-only tracing primitives: spans, a process-wide tracer, W3C context.

The observability layer is deliberately dependency-free and decoupled from
the rest of the stack: a :class:`Span` is plain data, a :class:`Tracer`
hands finished spans to an *exporter* callable, and context propagates as a
W3C ``traceparent`` header (``00-<trace_id>-<span_id>-<flags>``).  The
server wires the exporter to its event bus (see
:class:`repro.events.TraceSink`); worker children wire it to the parent
pipe; tests wire it to a list.

Durations are measured on ``time.monotonic()`` so wall-clock steps cannot
produce negative spans; ``start_time`` is a wall-clock epoch stamp used
only for display and cross-process ordering.

When tracing is disabled the tracer returns a single shared no-op span, so
instrumented code pays one attribute check and no allocation per span
(perfbench's ``trace.overhead_share`` measures traced against untraced
verify time).
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "TraceScope",
    "Tracer",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
]

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-digit span id."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The propagated part of a trace: which trace, and the current parent."""

    trace_id: str
    span_id: str

    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.span_id)


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C ``traceparent`` header value (always sampled)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` for missing or malformed.

    Malformed input must never raise: an unparseable header simply starts a
    new root trace at the receiver (the W3C-recommended behaviour).
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    trace_id = match.group("trace_id")
    span_id = match.group("span_id")
    # All-zero ids are explicitly invalid per the spec.
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """One timed operation in a trace.

    ``start_time`` is a wall-clock epoch stamp; ``duration`` is measured on
    the monotonic clock between :meth:`start` and :meth:`end`, so a
    wall-clock step mid-span cannot corrupt it.  ``duration`` is ``None``
    while the span is open.
    """

    trace_id: str
    span_id: str
    name: str
    parent_id: Optional[str] = None
    job_id: Optional[str] = None
    start_time: float = 0.0
    duration: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)
    _t0: Optional[float] = field(default=None, repr=False, compare=False)

    def start(self) -> "Span":
        self.start_time = time.time()
        self._t0 = time.monotonic()
        return self

    def end(self) -> "Span":
        if self.duration is None:
            self.duration = (
                time.monotonic() - self._t0 if self._t0 is not None else 0.0
            )
        return self

    def set_error(self, message: str, reason: Optional[str] = None) -> None:
        self.status = "error"
        self.attrs["error"] = message
        if reason is not None:
            self.attrs["reason"] = reason

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.span_id)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "job_id": self.job_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration": self.duration if self.duration is not None else 0.0,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    status = "ok"
    attrs: Dict[str, Any] = {}

    def start(self) -> "_NoopSpan":
        return self

    def end(self) -> "_NoopSpan":
        return self

    def set_error(self, message: str, reason: Optional[str] = None) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def context(self) -> None:
        return None

    def __setitem__(self, key: str, value: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-wide span factory.

    ``exporter`` is called with each finished :class:`Span`; exceptions it
    raises are swallowed (tracing must never take the traced code down).
    A disabled tracer creates no spans and allocates nothing.
    """

    def __init__(
        self,
        enabled: bool = False,
        exporter: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self.enabled = bool(enabled)
        self._exporters: List[Callable[[Span], None]] = []
        if exporter is not None:
            self._exporters.append(exporter)
        self._lock = threading.Lock()

    def add_exporter(self, exporter: Callable[[Span], None]) -> None:
        with self._lock:
            self._exporters.append(exporter)

    def start_span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        trace_id: Optional[str] = None,
        job_id: Optional[str] = None,
        **attrs: Any,
    ) -> Any:
        """Create and start a span (or the shared no-op when disabled).

        The parent is taken from ``parent`` when given; ``trace_id`` forces
        membership in an existing trace with no recorded parent (used for
        root server spans continuing a client-initiated trace).
        """
        if not self.enabled:
            return _NOOP_SPAN
        if parent is not None:
            tid = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            tid = trace_id or new_trace_id()
            parent_id = None
        span = Span(
            trace_id=tid,
            span_id=new_span_id(),
            name=name,
            parent_id=parent_id,
            job_id=job_id,
            attrs=dict(attrs),
        )
        return span.start()

    def finish(self, span: Any) -> None:
        """End *span* and hand it to the exporters (no-op spans excluded)."""
        if span is _NOOP_SPAN or not isinstance(span, Span):
            return
        span.end()
        with self._lock:
            exporters = list(self._exporters)
        for exporter in exporters:
            try:
                exporter(span)
            except Exception:  # noqa: BLE001 - tracing never propagates
                pass

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        trace_id: Optional[str] = None,
        job_id: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Any]:
        span = self.start_span(
            name, parent=parent, trace_id=trace_id, job_id=job_id, **attrs
        )
        try:
            yield span
        except BaseException as exc:
            span.set_error(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.finish(span)

    def record_span(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        start_time: float,
        duration: float,
        job_id: Optional[str] = None,
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        """Record an already-elapsed span retroactively (e.g. queue wait)."""
        if not self.enabled:
            return
        span = Span(
            trace_id=trace_id,
            span_id=new_span_id(),
            name=name,
            parent_id=parent_id,
            job_id=job_id,
            start_time=start_time,
            duration=max(0.0, duration),
            status=status,
            attrs=dict(attrs),
        )
        self.finish(span)


class TraceScope:
    """Nested-span helper satisfying ``SearchControl``'s ``trace`` duck type.

    Maintains the current parent as spans open and close, so single-threaded
    instrumented code (one search runs on one thread) gets a correctly
    nested tree without threading context through every call.
    """

    def __init__(
        self,
        tracer: Tracer,
        parent: Optional[TraceContext] = None,
        job_id: Optional[str] = None,
    ) -> None:
        self._tracer = tracer
        self._parents: List[Optional[TraceContext]] = [parent]
        self._job_id = job_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        span = self._tracer.start_span(
            name, parent=self._parents[-1], job_id=self._job_id, **attrs
        )
        context = span.context()
        self._parents.append(context if context is not None else self._parents[-1])
        try:
            yield span
        except BaseException as exc:
            span.set_error(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self._parents.pop()
            self._tracer.finish(span)
