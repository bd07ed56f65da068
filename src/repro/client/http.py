"""``VerifasClient``: the synchronous client for the ``/v1`` API.

One transport and one protocol path: the client builds each request, reads
its response and runs the polling algorithms itself, over
:mod:`http.client` and :func:`time.sleep`.
``iter_events`` long-polls; ``events`` without ``wait_ms`` reads one page at
once, for a caller that cannot hold a request open.

Each calling thread keeps one persistent HTTP/1.1 connection, so a job's
submit, its event long-polls and its views reach one server handler thread
(and its SQLite connection), and a client shared by threads never
interleaves two responses on one socket.  A connection is reopened when
the server answered ``Connection: close`` or closed it while it sat idle;
a ``GET`` or ``DELETE`` that fails on a reused connection is sent once more
on a fresh one, a ``POST`` whose bytes went out never is (the server may
have accepted it).  :meth:`VerifasClient.close`, or leaving a ``with``
block, closes every connection the client opened.  Proxy settings in the
environment (``http_proxy``) are not used.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote, urlencode, urlsplit

from repro.obs import format_traceparent, new_span_id, new_trace_id

#: Lifecycle states after which a job can never change again.
TERMINAL_STATES = ("done", "error", "cancelled")

#: Ids per batch-status request (bounds the query string).
VIEW_BATCH = 100

#: Methods sent again on a fresh connection when a reused one fails.
IDEMPOTENT_METHODS = ("GET", "DELETE")


class ClientError(Exception):
    """Transport-level or HTTP-level failure of one API call."""

    def __init__(self, message: str, status: Optional[int] = None,
                 body: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.status = status
        self.body = body or {}


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
    """The ``POST /v1/jobs`` payload for these inputs."""
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


def _read_response(where: str, text: bool, status: int, data: bytes) -> Tuple[int, Any]:
    """``(status, body)`` of one response to the request *where*.

    A success body is a JSON object (text when the request asked for it);
    anything else raises :class:`ClientError`.  Status 422 raises
    :class:`SpecRejectedError`, any other status >= 400 :class:`ClientError`;
    both carry the status and the decoded error body.
    """
    if status < 400 and text:
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
    raise kind(body.get("error", f"HTTP {status} on {where}"), status=status, body=body)


def _closed_by_peer(sock: socket.socket) -> bool:
    """Whether an idle keep-alive socket is unusable: no request is out, so
    a socket that polls readable holds an EOF, a reset or stray bytes."""
    with selectors.DefaultSelector() as selector:  # no FD_SETSIZE cap, unlike select()
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


class _Connections:
    """One keep-alive connection per calling thread, to one server.

    Every connection opened is also listed, so :meth:`close` reaches the
    other threads' too; a new thread's first call closes and drops those of
    threads that have since died.
    """

    def __init__(self, base_url: str):
        split = urlsplit(base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ClientError(f"cannot reach {base_url}: not an http(s) URL")
        self._factory = HTTPSConnection if split.scheme == "https" else HTTPConnection
        self._host = split.hostname
        self._port = split.port
        #: The base URL's path, put before every request path.
        self.prefix = split.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: List[Tuple[threading.Thread, HTTPConnection]] = []

    def mine(self) -> HTTPConnection:
        """The calling thread's connection (its socket opens on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._factory(self._host, self._port)
            self._local.connection = connection
            with self._lock:
                dead = [c for thread, c in self._opened if not thread.is_alive()]
                self._opened = [(t, c) for t, c in self._opened if t.is_alive()]
                self._opened.append((threading.current_thread(), connection))
            for stale in dead:
                stale.close()
        return connection

    def close(self) -> None:
        with self._lock:
            opened = [connection for _, connection in self._opened]
        for connection in opened:
            connection.close()


class VerifasClient:
    """The client for one verification server's ``/v1`` API."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        poll_initial: float = 0.05,
        poll_max: float = 2.0,
        poll_backoff: float = 1.6,
        push_events: bool = True,
        wait_ms: int = 10_000,
        trace_submissions: bool = True,
        api_key: Optional[str] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: The server's access token, sent as ``Authorization: Bearer`` on
        #: every request; defaults to ``REPRO_API_KEY``, and ``None`` sends
        #: no header.
        if api_key is None:
            api_key = os.environ.get("REPRO_API_KEY") or None
        self.api_key = api_key
        #: Whether submissions inject a W3C ``traceparent`` header (a fresh
        #: trace per submission).  Costs two uuid4s and one header; against
        #: an untraced server it still stamps the job rows for /events
        #: correlation, so it defaults on.
        self.trace_submissions = trace_submissions
        #: Exponential-backoff polling parameters (first wait, cap, factor).
        self.poll_initial = poll_initial
        self.poll_max = poll_max
        self.poll_backoff = poll_backoff
        # ``push_events`` is accepted and has no effect: ``iter_events``
        # always long-polls.
        #: Long-poll window per request (the server clamps to its own cap).
        self.wait_ms = max(1, int(wait_ms))
        self._connections = _Connections(self.base_url)

    # ------------------------------------------------------------------ plumbing

    def close(self) -> None:
        """Close every connection this client opened, on any thread; a later
        call opens a fresh one."""
        self._connections.close()

    def __enter__(self) -> "VerifasClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout: float,
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        """One HTTP exchange on the calling thread's connection:
        ``(status, data)``."""
        connections = self._connections
        connection = connections.mine()
        while True:
            reused = connection.sock is not None
            if reused and _closed_by_peer(connection.sock):
                connection.close()  # the server ended the idle connection
                reused = False
            connection.timeout = timeout  # for a socket opened below
            if reused:
                connection.sock.settimeout(timeout)
            sent = False
            try:
                connection.request(method, connections.prefix + path, body, headers)
                sent = True
                response = connection.getresponse()
                # On `Connection: close` http.client has already dropped the
                # socket; the next request opens a fresh one.
                return response.status, response.read()
            except (OSError, HTTPException) as error:
                connection.close()
                # A slow server is not a dropped connection: a timeout is
                # never sent again.
                dropped = reused and not isinstance(error, socket.timeout)
                if dropped and (not sent or method in IDEMPOTENT_METHODS):
                    continue  # at most once: the next connection is a fresh one
                if sent:
                    raise ClientError(
                        f"no response from {self.base_url} to {method} {path}: {error}"
                    ) from None
                raise ClientError(f"cannot reach {self.base_url}: {error}") from None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Any] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """One API call: ``(status, body)``."""
        wire_headers = {"Content-Type": "application/json", "Accept": "application/json"}
        if self.api_key:
            wire_headers["Authorization"] = f"Bearer {self.api_key}"
        wire_headers.update(headers or {})
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        timeout = self.timeout if timeout is None else timeout
        text = wire_headers["Accept"].startswith("text/")
        status, data = self._send(method, path, body, timeout, wire_headers)
        return _read_response(f"{method} {path}", text, status, data)

    def _get(self, path: str, timeout: Optional[float] = None) -> Any:
        return self._request("GET", path, timeout=timeout)[1]

    def _backoff(self) -> Iterator[float]:
        delay = self.poll_initial
        while True:
            yield delay
            delay = min(self.poll_max, delay * self.poll_backoff)

    # ------------------------------------------------------------------- basics

    def healthz(self) -> Dict[str, Any]:
        return self._get("/v1/healthz")

    def readyz(self) -> Tuple[bool, Dict[str, Any]]:
        """``GET /v1/readyz``: ``(ready, body)`` -- a 503 is a verdict, not
        an error, so it is returned rather than raised."""
        try:
            status, body = self._request("GET", "/v1/readyz")
        except ClientError as error:
            if error.status == 503 and "checks" in error.body:
                return False, error.body
            raise
        return status == 200, body

    def metrics(self) -> Dict[str, Any]:
        return self._get("/v1/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of ``GET /v1/metrics``."""
        return self._request(
            "GET", "/v1/metrics?format=prometheus", headers={"Accept": "text/plain"}
        )[1]

    # ------------------------------------------------------------------- submit

    def submit(
        self,
        system: Dict[str, Any],
        properties: Sequence[Dict[str, Any]],
        options: Optional[Dict[str, Any]] = None,
        label: Optional[str] = None,
        ttl_seconds: Optional[float] = None,
        deadline_ms: Optional[int] = None,
        schema_version: int = 1,
    ) -> List[JobHandle]:
        """Submit one payload (canonical spec dicts); one handle per property."""
        return self.submit_payload(build_submit_payload(
            system, properties, options, label, ttl_seconds, deadline_ms, schema_version
        ))

    def submit_payload(
        self, payload: Dict[str, Any], traceparent: Optional[str] = None
    ) -> List[JobHandle]:
        """Submit an already-built ``POST /v1/jobs`` payload.

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
        status, body = self._request("POST", "/v1/jobs", payload, headers=headers)
        if status != 202:
            raise ClientError(f"unexpected status {status} submitting jobs", status, body)
        return [JobHandle.from_dict(job) for job in body.get("jobs", [])]

    # -------------------------------------------------------------------- query

    def job(self, job_id: str) -> Dict[str, Any]:
        """The current ``GET /v1/jobs/<id>`` view."""
        return self._get(_job_path(job_id))

    def jobs(self, status: Optional[str] = None, limit: int = 100) -> Dict[str, Any]:
        params: Dict[str, Any] = {"limit": limit}
        if status:
            params["status"] = status
        return self._get(f"/v1/jobs?{urlencode(params)}")

    def job_views(self, job_ids: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Batch status ``{id: view}`` via ``GET /v1/jobs?id=a&id=b``, one
        request per :data:`VIEW_BATCH` distinct ids, done jobs' results
        included; unknown ids are absent."""
        ids = list(dict.fromkeys(str(job_id) for job_id in job_ids))
        views: Dict[str, Dict[str, Any]] = {}
        for start in range(0, len(ids), VIEW_BATCH):
            query = urlencode([("id", job_id) for job_id in ids[start:start + VIEW_BATCH]])
            for view in self._get(f"/v1/jobs?{query}").get("jobs", []):
                views[view["id"]] = view
        return views

    def events(
        self,
        job_id: str,
        cursor: int = 0,
        limit: int = 500,
        wait_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One ``GET /v1/jobs/<id>/events`` page after *cursor*; with
        *wait_ms* the server holds the request open that long for news, and
        the timeout is widened to cover the window."""
        params: Dict[str, Any] = {"cursor": cursor, "limit": limit}
        timeout = None
        if wait_ms is not None:
            params["wait_ms"] = max(1, int(wait_ms))
            timeout = self.timeout + params["wait_ms"] / 1000.0
        return self._get(f"{_job_path(job_id)}/events?{urlencode(params)}", timeout)

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's span tree: ``GET /v1/jobs/<id>/trace``."""
        return self._get(f"{_job_path(job_id)}/trace")

    # ------------------------------------------------------------------- cancel

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /v1/jobs/<id>``: cooperative cancellation."""
        return self._request("DELETE", _job_path(job_id))[1]

    # ------------------------------------------------------------------ waiting

    def wait(
        self,
        job_id: str,
        deadline_seconds: float = 300.0,
        raise_on_error: bool = True,
    ) -> Dict[str, Any]:
        """Poll one job on the backoff until it is terminal; returns its view.

        Raises :class:`RemoteJobError` for an ``error`` job when
        *raise_on_error*, :class:`TimeoutError` at the deadline.
        """
        deadline = time.monotonic() + deadline_seconds
        backoff = self._backoff()
        while True:
            view = self.job(job_id)
            if view.get("status") in TERMINAL_STATES:
                if raise_on_error and view.get("status") == "error":
                    raise RemoteJobError(view.get("error", f"job {job_id} failed"), body=view)
                return view
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {view.get('status')!r} after {deadline_seconds}s"
                )
            # Never sleep past the deadline: the loop always gets one final
            # poll at (roughly) the deadline before giving up.
            time.sleep(min(next(backoff), remaining))

    def wait_all(
        self, job_ids: Sequence[str], deadline_seconds: float = 300.0
    ) -> Dict[str, Dict[str, Any]]:
        """Wait for every job id; returns ``{id: terminal view}`` in
        completion order, ``error`` jobs included.

        One round of :meth:`job_views` covers every pending job; the backoff
        restarts whenever a job finishes.  Raises a 404 :class:`ClientError`
        for an unknown id and :class:`TimeoutError` at the deadline.
        """
        deadline = time.monotonic() + deadline_seconds
        pending = list(dict.fromkeys(str(job_id) for job_id in job_ids))
        finished: Dict[str, Dict[str, Any]] = {}
        backoff = self._backoff()
        while pending:
            batch = self.job_views(pending)
            missing = [job_id for job_id in pending if job_id not in batch]
            if missing:
                raise ClientError(f"no job with id {missing[0]!r}", status=404, body={})
            done = [j for j in pending if batch[j].get("status") in TERMINAL_STATES]
            pending = [j for j in pending if batch[j].get("status") not in TERMINAL_STATES]
            finished.update((job_id, batch[job_id]) for job_id in done)
            if not pending:
                break
            if done:
                backoff = self._backoff()  # progress: restart the backoff
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{len(pending)} job(s) still unfinished after {deadline_seconds}s"
                )
            time.sleep(min(next(backoff), remaining))
        return finished

    def iter_events(
        self,
        job_id: str,
        deadline_seconds: float = 300.0,
        poll_limit: int = 500,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's progress events (oldest first) until it is terminal.

        Each page request long-polls, so nothing sleeps and a job emitting
        N events costs about ``ceil(N / poll_limit) + 1`` requests.  The
        stream ends as soon as a ``terminal`` page shorter than
        *poll_limit* is drained: it cannot have truncated the log, so no
        extra round-trip confirms it.  A full terminal page fetches again
        for the rest.
        """
        deadline = time.monotonic() + deadline_seconds
        cursor = 0
        while True:
            remaining_ms = int((deadline - time.monotonic()) * 1000)
            if remaining_ms <= 0:
                raise TimeoutError(f"job {job_id} still emitting after {deadline_seconds}s")
            page = self.events(job_id, cursor, poll_limit, min(self.wait_ms, remaining_ms))
            events = page.get("events", [])
            for event in events:
                cursor = max(cursor, int(event.get("seq", cursor)))
                yield event
            if page.get("terminal") and len(events) < poll_limit:
                return
