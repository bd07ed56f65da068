"""HTTP request handlers of the verification server (stdlib ``http.server``).

The API is JSON in, JSON out, versioned under ``/v1``:

================================  =============================================
``POST /v1/jobs``                 submit a spec payload (optionally with
                                  ``ttl_seconds`` / ``deadline_ms``); enqueues
                                  one job per property
``GET /v1/jobs``                  list jobs (``?status=queued|running|done|``
                                  ``error|cancelled``, ``?limit=N``), or batch
                                  status for specific jobs (repeated ``?id=``)
``GET /v1/jobs/<id>``             one job's status; includes the result (with
                                  any counterexample) once ``done``, or the
                                  partial result once ``cancelled``
``GET /v1/jobs/<id>/events``      incremental progress events
                                  (``?cursor=N&limit=M``, ``M >= 1``); with
                                  ``?wait_ms=`` the request *long-polls* --
                                  it blocks until new events arrive, the job
                                  turns terminal, or the wait expires
``GET /v1/jobs/<id>/trace``       the job's distributed-trace span tree
                                  (client submit -> HTTP handler -> queue wait
                                  -> worker -> search phases)
``DELETE /v1/jobs/<id>``          cooperative cancellation of a queued or
                                  running job
``GET /v1/metrics``               cache hit rates, queue depth, latency
                                  percentiles; with ``Accept: text/plain``
                                  (or ``?format=prometheus``) the same data
                                  in Prometheus text exposition 0.0.4
``GET /v1/healthz``               liveness probe (always 200 while serving)
``GET /v1/readyz``                readiness probe: 200 when the store accepts
                                  writes, workers are alive and the sweeper
                                  ticks; 503 otherwise
================================  =============================================

``POST /v1/jobs`` honours an incoming W3C ``traceparent`` header: the
accepted jobs join the caller's distributed trace (malformed headers start a
fresh trace, per spec -- never an error).

When the server holds an access token (``serve --token-file``), every job
route requires ``Authorization: Bearer <token>``: a missing, malformed or
wrong one answers 401 with ``WWW-Authenticate: Bearer``.  ``/v1/healthz``,
``/v1/readyz`` and ``/v1/metrics`` stay open for probes and scrapers.

Paths outside ``/v1`` (including the retired unversioned ``/jobs``,
``/metrics``, ``/healthz``, ...) answer 404.

Handlers are deliberately thin: they parse the request, call the matching
view on the owning :class:`~repro.server.app.VerificationServer`, and encode
the response.  Malformed payloads map to 400, unknown resources to 404,
anything unexpected to 500 -- always as ``{"error": ...}`` JSON bodies.
Well-formed payloads whose *spec* fails static analysis (see
:mod:`repro.analysis`) map to 422 with the error diagnostics in the body;
no job row is written, so a rejected spec never claims a worker.
"""

from __future__ import annotations

import json
import re
import sqlite3
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, unquote

from repro.analysis import SpecRejectedError
from repro.has.artifact_system import SpecificationError
from repro.obs import parse_traceparent
from repro.server.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.spec.errors import SpecError

#: The current (only) API version prefix.
API_PREFIX = "/v1"

_JOB_PATH = re.compile(r"^/jobs/([^/]+)$")
_EVENTS_PATH = re.compile(r"^/jobs/([^/]+)/events$")
_TRACE_PATH = re.compile(r"^/jobs/([^/]+)/trace$")

#: Largest accepted request body (spec payloads are text; 16 MiB is generous).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Cap on ``GET /v1/jobs?limit=``: larger asks are clamped here, negative
#: ones are a 400.  Paginate by status/ids instead of raising the cap.
MAX_LIST_LIMIT = 1000


class ApiHandler(BaseHTTPRequestHandler):
    """Routes API requests to the owning :class:`VerificationServer`."""

    server_version = "repro-verifas"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends: with Nagle's algorithm on, a
    # client reusing its keep-alive connection waits out the delayed ACK
    # (about 40 ms) on every request.
    disable_nagle_algorithm = True
    # Seconds a keep-alive connection may sit idle (or a read or write
    # stall) before the handler closes it, releasing its thread and that
    # thread's SQLite connection.
    timeout = 60

    @property
    def app(self):
        return self.server.app  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        # One handler (thread) per connection, so requests / connections is
        # the mean number of requests a connection carried.
        self.app.metrics.increment("connections")

    # ------------------------------------------------------------------ routing

    @staticmethod
    def _route(path: str) -> str:
        """The route under the version prefix; outside ``/v1`` the empty
        string, which matches no route (so the request answers 404)."""
        if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
            return path[len(API_PREFIX):] or "/"
        return ""

    def do_GET(self) -> None:  # noqa: N802 (http.server naming convention)
        self.app.metrics.increment("requests")
        path, _, query = self.path.partition("?")
        route = self._route(path)
        try:
            # Probes and metrics stay open even with a token: orchestrators
            # and scrapers hold none, and the views expose operational
            # aggregates, not job contents.
            if route == "/healthz":
                return self._send(200, self.app.health_view())
            if route == "/readyz":
                ready, view = self.app.readiness_view()
                return self._send(200 if ready else 503, view)
            if route == "/metrics":
                return self._metrics(parse_qs(query))
            if not self._authorized():
                return
            if route == "/jobs":
                return self._list_jobs(parse_qs(query))
            match = _EVENTS_PATH.match(route)
            if match:
                # Clients percent-escape ids as single path segments; undo it
                # so an escaped id resolves to the job it names.
                return self._job_events(unquote(match.group(1)), parse_qs(query))
            match = _TRACE_PATH.match(route)
            if match:
                job_id = unquote(match.group(1))
                view = self.app.trace_view(job_id)
                if view is None:
                    return self._send(404, {"error": f"no job with id {job_id!r}"})
                return self._send(200, view)
            match = _JOB_PATH.match(route)
            if match:
                job_id = unquote(match.group(1))
                view = self.app.job_view(job_id)
                if view is None:
                    return self._send(404, {"error": f"no job with id {job_id!r}"})
                return self._send(200, view)
            self._send(404, {"error": f"unknown path {path!r}"})
        except sqlite3.ProgrammingError:  # pragma: no cover - shutdown race
            # The store was closed under us: a request in flight while the
            # server stops. A clear 503 beats a spurious 500.
            self._send(503, {"error": "server is shutting down"})
        except Exception as error:  # pragma: no cover - defensive catch-all
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    def do_POST(self) -> None:  # noqa: N802
        self.app.metrics.increment("requests")
        path, _, _ = self.path.partition("?")
        route = self._route(path)
        if route != "/jobs":
            # The body was never read; a reused keep-alive connection would
            # misparse it as the next request line.
            self.close_connection = True
            return self._send(404, {"error": f"unknown path {path!r}"})
        if not self._authorized(body_unread=True):
            return
        # A missing or malformed traceparent header is never an error: it
        # simply starts a fresh trace at this server (the W3C behaviour).
        incoming = parse_traceparent(self.headers.get("traceparent"))
        tracer = self.app.tracer
        span = tracer.start_span("http.submit", parent=incoming, route=f"{API_PREFIX}/jobs")
        context = span.context()
        if context is not None:
            # Tracing on: jobs parent under this handler's span.
            trace_id, parent_span = context.trace_id, context.span_id
        elif incoming is not None:
            # Tracing off but the caller sent context: record it on the job
            # rows anyway, so the client's trace can correlate /events.
            trace_id, parent_span = incoming.trace_id, incoming.span_id
        else:
            trace_id = parent_span = None
        try:
            try:
                payload = self._read_json_body()
                response = self.app.submit_payload(
                    payload, trace_id=trace_id, parent_span=parent_span
                )
            except _BadRequest as error:
                span.set_error(str(error))
                return self._send(400, {"error": str(error)})
            except SpecRejectedError as error:
                # Must precede the generic ladder below: SpecRejectedError
                # subclasses ValueError.  422 (not 400): the payload is
                # well-formed, the *spec it describes* is statically broken.
                span.set_error(f"spec rejected: {error}")
                return self._send(
                    422,
                    {
                        "error": str(error),
                        "diagnostics": [d.as_dict() for d in error.diagnostics],
                    },
                )
            except (
                SpecError, SpecificationError, ValueError, TypeError, KeyError
            ) as error:
                span.set_error(f"invalid job payload: {error}")
                return self._send(400, {"error": f"invalid job payload: {error}"})
            except sqlite3.ProgrammingError:  # pragma: no cover - shutdown race
                return self._send(503, {"error": "server is shutting down"})
            except Exception as error:  # pragma: no cover - defensive catch-all
                span.set_error(f"{type(error).__name__}: {error}")
                return self._send(500, {"error": f"{type(error).__name__}: {error}"})
            span.set_attr("jobs", len(response["jobs"]))
            self._send(202, response)
        finally:
            tracer.finish(span)

    def do_DELETE(self) -> None:  # noqa: N802
        self.app.metrics.increment("requests")
        try:
            if int(self.headers.get("Content-Length", 0) or 0) > 0:
                # DELETE takes no body; an unread one would be misparsed as
                # the next request line on a reused keep-alive connection.
                self.close_connection = True
        except (TypeError, ValueError):
            self.close_connection = True
        path, _, _ = self.path.partition("?")
        route = self._route(path)
        match = _JOB_PATH.match(route)
        if not match:
            return self._send(404, {"error": f"unknown path {path!r}"})
        if not self._authorized():
            return
        job_id = unquote(match.group(1))
        try:
            view = self.app.cancel_job(job_id)
            if view is None:
                return self._send(404, {"error": f"no job with id {job_id!r}"})
            self._send(202, view)
        except sqlite3.ProgrammingError:  # pragma: no cover - shutdown race
            self._send(503, {"error": "server is shutting down"})
        except Exception as error:  # pragma: no cover - defensive catch-all
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    # ----------------------------------------------------------------- helpers

    def _authorized(self, body_unread: bool = False) -> bool:
        """Whether the request may reach a job route (see
        :meth:`VerificationServer.authorized`).

        On a refusal the 401 is sent here and callers must bail out.
        *body_unread* marks requests whose body has not been consumed yet
        (POST): their connection must close, or keep-alive would misparse
        the body.
        """
        if self.app.authorized(self.headers.get("Authorization")):
            return True
        if body_unread:
            self.close_connection = True
        self._send(
            401,
            {"error": "missing or wrong access token (expected 'Bearer <token>')"},
            extra_headers={"WWW-Authenticate": "Bearer"},
        )
        return False

    def _metrics(self, params: Dict[str, list]) -> None:
        """``GET /metrics`` with content negotiation.

        JSON stays the default (existing dashboards and tests parse it);
        Prometheus text exposition is served when the scraper asks for it --
        by ``Accept`` (prometheus sends ``text/plain; version=0.0.4``) or
        explicitly via ``?format=prometheus`` (handy with curl).
        ``?format=json`` forces JSON even under a text/plain Accept.
        """
        requested = params.get("format", [""])[0]
        accept = self.headers.get("Accept", "") or ""
        view = self.app.metrics_view()
        if requested == "prometheus" or (
            requested != "json" and "text/plain" in accept
        ):
            return self._send_text(200, render_prometheus(view), PROMETHEUS_CONTENT_TYPE)
        self._send(200, view)

    def _list_jobs(self, params: Dict[str, list]) -> None:
        status = params.get("status", [None])[0]
        limit = self._int_param(params, "limit", 100)
        if limit is None:
            return
        if limit < 0:
            return self._send(400, {"error": "limit must be non-negative"})
        limit = min(limit, MAX_LIST_LIMIT)
        ids = params.get("id")  # repeated ?id=... -> batch status view
        try:
            self._send(
                200,
                self.app.jobs_view(status=status, limit=limit, ids=ids),
            )
        except ValueError as error:
            self._send(400, {"error": str(error)})

    def _job_events(self, job_id: str, params: Dict[str, list]) -> None:
        cursor = self._int_param(params, "cursor", 0)
        if cursor is None:
            return
        limit = self._int_param(params, "limit", 500)
        if limit is None:
            return
        wait_ms = self._int_param(params, "wait_ms", 0)
        if wait_ms is None:
            return
        if limit < 1:
            # An empty page can never advance the cursor: a long-poll would
            # park for nothing and a poller would never make progress.
            return self._send(400, {"error": "limit must be positive"})
        if wait_ms > 0:
            self.app.metrics.increment("long_poll_requests")
        view = self.app.events_view(job_id, cursor=cursor, limit=limit, wait_ms=wait_ms)
        if view is None:
            return self._send(404, {"error": f"no job with id {job_id!r}"})
        self._send(200, view)

    def _int_param(self, params: Dict[str, list], name: str, default: int) -> Optional[int]:
        """Parse an integer query parameter, sending a 400 on failure."""
        try:
            return int(params.get(name, [str(default)])[0])
        except ValueError:
            self._send(400, {"error": f"{name} must be an integer"})
            return None

    def _read_json_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self.close_connection = True  # body length unknown: cannot drain it
            raise _BadRequest("missing or malformed Content-Length header") from None
        if length <= 0:
            # A chunked body would report no Content-Length; either way we
            # are not draining whatever follows.
            self.close_connection = True
            raise _BadRequest("request body is empty")
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # refuse to drain an oversized body
            raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"malformed JSON body: {error}") from None

    def _send(
        self,
        code: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_bytes(
            code,
            json.dumps(payload, indent=2).encode("utf-8") + b"\n",
            "application/json",
            extra_headers=extra_headers,
        )

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send_bytes(code, text.encode("utf-8"), content_type)

    def _send_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # Set by error paths that leave the request body unread; tell the
            # client explicitly instead of silently dropping the keep-alive.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.app, "quiet", True):  # pragma: no cover - log formatting
            super().log_message(format, *args)


class _BadRequest(Exception):
    """Internal marker for request-level (not payload-level) 400s."""
