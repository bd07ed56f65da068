"""The sans-IO core of the ``/v1`` client protocol.

Everything the two clients share is written once here, and none of it does
I/O or sleeps: the error types, the headers, one request builder per
endpoint, the response reader, the 429 retry budget, the backoff and the
polling algorithms.  A transport -- :mod:`repro.client.http` over
``http.client``, :mod:`repro.client.aio` over raw asyncio streams -- adds
only a way to send a request and a way to sleep.

The algorithms are *machines*: generators that yield steps and are resumed
with each step's answer:

* a :class:`Request` is performed by the transport.  The exchange machine
  yields wire requests, answered with the raw ``(status, headers, data)``;
  the polling machines yield endpoint requests, answered with the decoded
  body (a *list* of requests with the list of bodies, which a transport may
  fetch concurrently);
* a :class:`Sleep` is slept by the transport and answered with ``None``;
* an :class:`Emit` hands a value to the caller and is answered with ``None``.

A machine ends by returning; what it raises propagates to the caller.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Mapping, NamedTuple, Optional
from typing import Sequence, Tuple
from urllib.parse import quote, urlencode

from repro.obs import format_traceparent, new_span_id, new_trace_id
from repro.tenancy import DEFAULT_TEST_API_KEY

#: Lifecycle states after which a job can never change again.
TERMINAL_STATES = ("done", "error", "cancelled")

#: Ids per batch-status request (bounds the query string).
VIEW_BATCH = 100


def default_api_key() -> Optional[str]:
    """The API key a default-constructed client should send, if any.

    ``REPRO_API_KEY`` wins; under the test hook ``REPRO_TEST_AUTH=1`` the
    bootstrap test tenant's key (``REPRO_TEST_API_KEY`` override or the
    well-known default) is used, so the existing suites run unchanged
    against an auth-enabled server.  ``None`` means anonymous.
    """
    key = os.environ.get("REPRO_API_KEY")
    if key:
        return key
    if os.environ.get("REPRO_TEST_AUTH", "") == "1":
        return os.environ.get("REPRO_TEST_API_KEY", DEFAULT_TEST_API_KEY)
    return None


def _bearer(api_key: Optional[str]) -> Dict[str, str]:
    return {"Authorization": f"Bearer {api_key}"} if api_key else {}


def auth_headers() -> Dict[str, str]:
    """``{"Authorization": ...}`` for callers sending raw HTTP (tests, curl
    helpers); empty when no default key applies."""
    return _bearer(default_api_key())


class ClientError(Exception):
    """Transport-level or HTTP-level failure of one API call.

    ``retry_after`` is set (seconds) on 429 responses that advertised one,
    after the client's own throttle-retry budget was exhausted.
    """

    def __init__(self, message: str, status: Optional[int] = None,
                 body: Optional[Dict[str, Any]] = None,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.body = body or {}
        self.retry_after = retry_after


class RemoteJobError(ClientError):
    """A waited-on job finished in the ``error`` lifecycle state."""


class SpecRejectedError(ClientError):
    """The server's static analysis rejected the submitted spec (HTTP 422).

    ``diagnostics`` carries the error-severity records from the response
    body: a list of dicts with stable ``code`` (``VAxxx``), ``severity``,
    ``message`` and ``where`` keys -- the same shape ``python -m repro lint
    --json`` emits, so one remediation path serves both.
    """

    @property
    def diagnostics(self) -> List[Dict[str, Any]]:
        diagnostics = self.body.get("diagnostics")
        return list(diagnostics) if isinstance(diagnostics, list) else []


def _job_path(job_id: str) -> str:
    # Percent-escape the id as a single path segment: an id containing
    # `/`, `?`, `#` or spaces (e.g. attacker-controlled) must neither
    # break the request line nor resolve to a different route.
    return f"/v1/jobs/{quote(str(job_id), safe='')}"


@dataclass(frozen=True)
class JobHandle:
    """One accepted job, as returned by ``POST /v1/jobs``."""

    id: str
    fingerprint: str
    system: str
    property: str
    status: str
    url: str
    #: The distributed trace the job joined (present when the submit carried
    #: a ``traceparent`` or the server runs with tracing on).
    trace_id: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobHandle":
        return cls(
            id=data["id"],
            fingerprint=data["fingerprint"],
            system=data.get("system", ""),
            property=data.get("property", ""),
            status=data.get("status", "queued"),
            url=data.get("url", _job_path(data["id"])),
            trace_id=data.get("trace_id"),
        )


def build_submit_payload(
    system: Dict[str, Any],
    properties: Sequence[Dict[str, Any]],
    options: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
    ttl_seconds: Optional[float] = None,
    deadline_ms: Optional[int] = None,
    schema_version: int = 1,
) -> Dict[str, Any]:
    """The ``POST /v1/jobs`` payload for these inputs (shared by both clients)."""
    payload: Dict[str, Any] = {
        "schema_version": schema_version,
        "system": system,
        "properties": list(properties),
    }
    if options is not None:
        payload["options"] = options
    if label is not None:
        payload["label"] = label
    if ttl_seconds is not None:
        payload["ttl_seconds"] = ttl_seconds
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return payload


class Request(NamedTuple):
    """One HTTP request, fields in the order of the clients' ``_request``.
    An endpoint request's *body* is the JSON payload, its *headers* only its
    own extras and a ``None`` *timeout* the client's; a wire request has the
    encoded body, every header and its timeout."""

    method: str
    path: str
    body: Any = None
    timeout: Optional[float] = None
    headers: Optional[Dict[str, str]] = None


class Sleep(NamedTuple):
    """Machine step: sleep this many seconds."""

    seconds: float


class Emit(NamedTuple):
    """Machine step: hand *value* to the caller."""

    value: Any


#: A protocol machine (see the module docstring).
Machine = Generator[Any, Any, None]


def _retry_after(headers: Mapping[str, str], body: Dict[str, Any]) -> Optional[float]:
    """The server's retry hint, if any: the JSON body's float is preferred
    over the ``Retry-After`` header (which HTTP rounds up to whole seconds)."""
    value = body.get("retry_after")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return max(0.0, float(value))
    for name, header in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(0.0, float(header))
            except ValueError:
                return None
    return None


def read_response(
    request: Request, status: int, headers: Mapping[str, str], data: bytes
) -> Tuple[int, Any]:
    """``(status, body)`` of one response to the wire *request*.

    A success body is a JSON object (text when the request asked for
    ``text/plain``); anything else raises :class:`ClientError`.  Status 422
    raises :class:`SpecRejectedError`, any other status >= 400
    :class:`ClientError`; both carry the status, the decoded error body and
    the server's retry hint.
    """
    where = f"{request.method} {request.path}"
    if status < 400 and (request.headers or {}).get("Accept", "").startswith("text/"):
        return status, data.decode("utf-8", errors="replace")
    try:
        body = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        body = None
    if status < 400:
        if not isinstance(body, dict):
            raise ClientError(f"malformed JSON body in HTTP {status} on {where}", status=status)
        return status, body
    body = body if isinstance(body, dict) else {}
    kind = SpecRejectedError if status == 422 else ClientError
    raise kind(
        body.get("error", f"HTTP {status} on {where}"),
        status=status,
        body=body,
        retry_after=_retry_after(headers, body),
    )


def merge_views(bodies: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """``{id: view}`` from the bodies of :meth:`ClientProtocol.view_requests`."""
    return {view["id"]: view for body in bodies for view in body.get("jobs", [])}


def read_submit(status: int, body: Dict[str, Any]) -> List[JobHandle]:
    """The handles of one ``POST /v1/jobs`` response."""
    if status != 202:
        raise ClientError(f"unexpected status {status} submitting jobs", status, body)
    return [JobHandle.from_dict(job) for job in body.get("jobs", [])]


class ClientProtocol:
    """Settings, request builders and machines shared by both clients."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        poll_initial: float = 0.05,
        poll_max: float = 2.0,
        poll_backoff: float = 1.6,
        push_events: Optional[bool] = None,
        wait_ms: int = 10_000,
        trace_submissions: bool = True,
        api_key: Optional[str] = None,
        retry_throttled: bool = True,
        throttle_max_wait: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: API key sent as ``Authorization: Bearer`` on every request.
        #: Defaults from the environment (see :func:`default_api_key`);
        #: ``None`` means anonymous.
        self.api_key = api_key if api_key is not None else default_api_key()
        #: Whether 429 responses are retried after their ``Retry-After``.
        self.retry_throttled = retry_throttled
        #: Total seconds one call may spend sleeping on 429s before the
        #: :class:`ClientError` (with ``retry_after`` set) surfaces.
        self.throttle_max_wait = throttle_max_wait
        #: Whether submissions inject a W3C ``traceparent`` header (a fresh
        #: trace per submission).  Costs two uuid4s and one header; against
        #: an untraced server it still stamps the job rows for /events
        #: correlation, so it defaults on.
        self.trace_submissions = trace_submissions
        #: Exponential-backoff polling parameters (first wait, cap, factor).
        self.poll_initial = poll_initial
        self.poll_max = poll_max
        self.poll_backoff = poll_backoff
        if push_events is None:
            # The documented test/ops hook: flips every default-constructed
            # client (test suites, the CLI) to long-poll delivery so the
            # same e2e suites exercise the push path end to end.
            push_events = os.environ.get("REPRO_TEST_PUSH_EVENTS", "") == "1"
        #: Whether ``iter_events`` long-polls by default.
        self.push_events = push_events
        #: Long-poll window per request (the server clamps to its own cap).
        self.wait_ms = max(1, int(wait_ms))

    # ---------------------------------------------------------- request builders

    def healthz_request(self) -> Request:
        return Request("GET", "/v1/healthz")

    def readyz_request(self) -> Request:
        return Request("GET", "/v1/readyz")

    def metrics_request(self) -> Request:
        return Request("GET", "/v1/metrics")

    def metrics_prometheus_request(self) -> Request:
        return Request("GET", "/v1/metrics?format=prometheus", headers={"Accept": "text/plain"})

    def submit_request(
        self, payload: Dict[str, Any], traceparent: Optional[str] = None
    ) -> Request:
        """``POST /v1/jobs``.

        With :attr:`trace_submissions` on (the default) and no explicit
        *traceparent*, a fresh trace context is minted and sent as the W3C
        ``traceparent`` header: the server's spans -- and, with tracing
        enabled there, the whole queue-wait/worker/search span tree --
        parent under this submission.
        """
        headers: Dict[str, str] = {}
        if traceparent is None and self.trace_submissions:
            traceparent = format_traceparent(new_trace_id(), new_span_id())
        if traceparent is not None:
            headers["traceparent"] = traceparent
        return Request("POST", "/v1/jobs", payload, headers=headers)

    def job_request(self, job_id: str) -> Request:
        return Request("GET", _job_path(job_id))

    def jobs_request(self, status: Optional[str] = None, limit: int = 100) -> Request:
        params: Dict[str, Any] = {"limit": limit}
        if status:
            params["status"] = status
        return Request("GET", f"/v1/jobs?{urlencode(params)}")

    def view_requests(self, job_ids: Sequence[str]) -> List[Request]:
        """Batch status ``GET /v1/jobs?id=a&id=b``: one request per
        :data:`VIEW_BATCH` distinct ids."""
        ids = list(dict.fromkeys(str(job_id) for job_id in job_ids))
        chunks = [ids[start:start + VIEW_BATCH] for start in range(0, len(ids), VIEW_BATCH)]
        return [
            Request("GET", f"/v1/jobs?{urlencode([('id', job_id) for job_id in chunk])}")
            for chunk in chunks
        ]

    def events_request(
        self, job_id: str, cursor: int = 0, limit: int = 500, wait_ms: Optional[int] = None
    ) -> Request:
        """One events page after *cursor*; with *wait_ms* it long-polls and
        the timeout is widened to cover the window."""
        params: Dict[str, Any] = {"cursor": cursor, "limit": limit}
        timeout = None
        if wait_ms is not None:
            params["wait_ms"] = max(1, int(wait_ms))
            timeout = self.timeout + params["wait_ms"] / 1000.0
        return Request("GET", f"{_job_path(job_id)}/events?{urlencode(params)}", timeout=timeout)

    def trace_request(self, job_id: str) -> Request:
        return Request("GET", f"{_job_path(job_id)}/trace")

    def cancel_request(self, job_id: str) -> Request:
        return Request("DELETE", _job_path(job_id))

    # ------------------------------------------------------------------ machines

    def _backoff(self) -> Iterator[float]:
        delay = self.poll_initial
        while True:
            yield delay
            delay = min(self.poll_max, delay * self.poll_backoff)

    def exchange_machine(self, request: Request) -> Machine:
        """One API call: yields the wire request until a response reads
        cleanly, honouring 429s whose ``Retry-After`` fits the remaining
        throttle budget; emits ``(status, body)``."""
        headers = {"Content-Type": "application/json", "Accept": "application/json"}
        headers.update(_bearer(self.api_key))
        headers.update(request.headers or {})
        wire = Request(
            request.method,
            request.path,
            None if request.body is None else json.dumps(request.body).encode("utf-8"),
            self.timeout if request.timeout is None else request.timeout,
            headers,
        )
        budget = self.throttle_max_wait if self.retry_throttled else 0.0
        while True:
            status, response_headers, data = yield wire
            try:
                result = read_response(wire, status, response_headers, data)
            except ClientError as error:
                delay = error.retry_after
                if error.status != 429 or delay is None or delay > budget:
                    raise
                # The server said how long until the call can succeed;
                # honour it rather than surfacing the 429.
                budget -= delay
                yield Sleep(delay)
                continue
            yield Emit(result)
            return

    def wait_machine(
        self, job_id: str, deadline_seconds: float, raise_on_error: bool
    ) -> Machine:
        """Poll one job on the backoff until it is terminal; emits its view.

        Raises :class:`RemoteJobError` for an ``error`` job when
        *raise_on_error*, :class:`TimeoutError` at the deadline.
        """
        deadline = time.monotonic() + deadline_seconds
        for delay in self._backoff():
            view = yield self.job_request(job_id)
            if view.get("status") in TERMINAL_STATES:
                if raise_on_error and view.get("status") == "error":
                    raise RemoteJobError(view.get("error", f"job {job_id} failed"), body=view)
                yield Emit(view)
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {view.get('status')!r} after {deadline_seconds}s"
                )
            # Never sleep past the deadline: the loop always gets one final
            # poll at (roughly) the deadline before giving up.
            yield Sleep(min(delay, remaining))

    def batch_wait_machine(self, job_ids: Sequence[str], deadline_seconds: float) -> Machine:
        """Poll the batch status view until every job is terminal; emits
        ``(job_id, view)`` as each one finishes.

        One round covers every pending job; the backoff restarts whenever
        a job finishes.  Raises a 404 :class:`ClientError` for an unknown
        id and :class:`TimeoutError` at the deadline.
        """
        deadline = time.monotonic() + deadline_seconds
        pending = list(dict.fromkeys(str(job_id) for job_id in job_ids))
        backoff = self._backoff()
        while pending:
            batch = merge_views((yield self.view_requests(pending)))
            missing = [job_id for job_id in pending if job_id not in batch]
            if missing:
                raise ClientError(f"no job with id {missing[0]!r}", status=404, body={})
            finished = [j for j in pending if batch[j].get("status") in TERMINAL_STATES]
            pending = [j for j in pending if batch[j].get("status") not in TERMINAL_STATES]
            for job_id in finished:
                yield Emit((job_id, batch[job_id]))
            if not pending:
                return
            if finished:
                backoff = self._backoff()  # progress: restart the backoff
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{len(pending)} job(s) still unfinished after {deadline_seconds}s"
                )
            yield Sleep(min(next(backoff), remaining))

    def events_machine(
        self, job_id: str, deadline_seconds: float, poll_limit: int, push: Optional[bool]
    ) -> Machine:
        """Emit the job's progress events (oldest first) until it is terminal.

        In push mode (*push*, default :attr:`push_events`) each page request
        long-polls, so no step sleeps and a job emitting N events costs
        about ``ceil(N / poll_limit) + 1`` requests.  In poll mode pages are
        fetched on the backoff, restarted whenever new events arrive.

        Either way the stream ends as soon as a ``terminal`` page shorter
        than *poll_limit* is drained: it cannot have truncated the log, so
        no extra round-trip confirms it.  A full terminal page fetches
        again for the rest.
        """
        push = self.push_events if push is None else push
        deadline = time.monotonic() + deadline_seconds
        cursor = 0
        backoff = self._backoff()
        while True:
            wait_ms: Optional[int] = None
            if push:
                remaining_ms = int((deadline - time.monotonic()) * 1000)
                if remaining_ms <= 0:
                    raise TimeoutError(f"job {job_id} still emitting after {deadline_seconds}s")
                wait_ms = min(self.wait_ms, max(1, remaining_ms))
            page = yield self.events_request(job_id, cursor, poll_limit, wait_ms)
            events = page.get("events", [])
            for event in events:
                cursor = max(cursor, int(event.get("seq", cursor)))
                yield Emit(event)
            if page.get("terminal") and len(events) < poll_limit:
                return
            if events:
                backoff = self._backoff()
                continue
            if push:
                continue  # the server already blocked for wait_ms
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job_id} still emitting after {deadline_seconds}s")
            yield Sleep(min(next(backoff), remaining))
