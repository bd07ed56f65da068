"""``VerifasClient``: the synchronous ``http.client`` transport for the ``/v1`` API.

The protocol -- requests, response mapping, throttle retries and the
polling algorithms -- lives in the sans-IO :mod:`repro.client.core`; this
module only sends requests with :mod:`http.client` and sleeps with
:func:`time.sleep`.  ``iter_events`` long-polls when ``push_events`` is on
(``REPRO_TEST_PUSH_EVENTS=1`` flips the default: the CI hook that re-runs
the e2e suites over long-poll delivery) and otherwise polls on the backoff,
the fallback that works against any server.

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

import selectors
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.client.core import (
    ClientError,
    ClientProtocol,
    Emit,
    JobHandle,
    Machine,
    Request,
    Sleep,
    build_submit_payload,
    merge_views,
    read_submit,
)

#: Methods sent again on a fresh connection when a reused one fails.
IDEMPOTENT_METHODS = ("GET", "DELETE")


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


class VerifasClient(ClientProtocol):
    """Synchronous client for one verification server's ``/v1`` API (the
    constructor is :class:`~repro.client.core.ClientProtocol`'s)."""

    # ------------------------------------------------------------------ plumbing

    @property
    def _connections(self) -> _Connections:
        # Built on the first call, not in the shared ClientProtocol
        # constructor; setdefault keeps a single one when several threads
        # make their first call at once.
        connections = self.__dict__.get("_connection_pool")
        if connections is None:
            connections = self.__dict__.setdefault(
                "_connection_pool", _Connections(self.base_url)
            )
        return connections

    def close(self) -> None:
        """Close every connection this client opened, on any thread; a later
        call opens a fresh one."""
        connections = self.__dict__.get("_connection_pool")
        if connections is not None:
            connections.close()

    def __enter__(self) -> "VerifasClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send(self, wire: Request) -> Tuple[int, Any, bytes]:
        connections = self._connections
        connection = connections.mine()
        while True:
            reused = connection.sock is not None
            if reused and _closed_by_peer(connection.sock):
                connection.close()  # the server ended the idle connection
                reused = False
            connection.timeout = wire.timeout  # for a socket opened below
            if reused:
                connection.sock.settimeout(wire.timeout)
            sent = False
            try:
                connection.request(
                    wire.method, connections.prefix + wire.path, wire.body, wire.headers or {}
                )
                sent = True
                response = connection.getresponse()
                # On `Connection: close` http.client has already dropped the
                # socket; the next request opens a fresh one.
                return response.status, response.headers, response.read()
            except (OSError, HTTPException) as error:
                connection.close()
                # A slow server is not a dropped connection: a timeout is
                # never sent again.
                dropped = reused and not isinstance(error, socket.timeout)
                if dropped and (not sent or wire.method in IDEMPOTENT_METHODS):
                    continue  # at most once: the next connection is a fresh one
                if sent:
                    raise ClientError(
                        f"no response from {self.base_url} to {wire.method} {wire.path}: {error}"
                    ) from None
                raise ClientError(f"cannot reach {self.base_url}: {error}") from None

    def _drive(self, machine: Machine, send: Callable[[Any], Any]) -> Iterator[Any]:
        """Run a core machine: *send* its requests, sleep its sleeps and
        yield what it emits."""
        reply = None
        while True:
            try:
                step = machine.send(reply)
            except StopIteration:
                return
            reply = None
            if isinstance(step, Sleep):
                time.sleep(step.seconds)
            elif isinstance(step, Emit):
                yield step.value
            else:
                reply = send(step)

    def _call(self, step: Any) -> Any:
        """The body of an endpoint request (a list of bodies for a list)."""
        if isinstance(step, list):
            return [self._request(*request)[1] for request in step]
        return self._request(*step)[1]

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Any] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """One API call, throttle retries included: ``(status, body)``."""
        machine = self.exchange_machine(Request(method, path, payload, timeout, headers))
        (result,) = self._drive(machine, self._send)
        return result

    # ------------------------------------------------------------------- basics

    def healthz(self) -> Dict[str, Any]:
        return self._call(self.healthz_request())

    def readyz(self) -> Tuple[bool, Dict[str, Any]]:
        """``GET /v1/readyz``: ``(ready, body)`` -- a 503 is a verdict, not
        an error, so it is returned rather than raised."""
        try:
            status, body = self._request(*self.readyz_request())
        except ClientError as error:
            if error.status == 503 and "checks" in error.body:
                return False, error.body
            raise
        return status == 200, body

    def metrics(self) -> Dict[str, Any]:
        return self._call(self.metrics_request())

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of ``GET /v1/metrics``."""
        return self._call(self.metrics_prometheus_request())

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
        """Submit an already-built ``POST /v1/jobs`` payload, joined to a
        distributed trace (see :meth:`ClientProtocol.submit_request`)."""
        return read_submit(*self._request(*self.submit_request(payload, traceparent)))

    # -------------------------------------------------------------------- query

    def job(self, job_id: str) -> Dict[str, Any]:
        """The current ``GET /v1/jobs/<id>`` view."""
        return self._call(self.job_request(job_id))

    def jobs(self, status: Optional[str] = None, limit: int = 100) -> Dict[str, Any]:
        return self._call(self.jobs_request(status, limit))

    def job_views(self, job_ids: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Batch status ``{id: view}`` via ``GET /v1/jobs?id=a&id=b``, done
        jobs' results included; unknown ids are absent."""
        return merge_views(self._call(self.view_requests(job_ids)))

    def events(
        self,
        job_id: str,
        cursor: int = 0,
        limit: int = 500,
        wait_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One ``GET /v1/jobs/<id>/events`` page after *cursor*; with
        *wait_ms* the server holds the request open that long for news."""
        return self._call(self.events_request(job_id, cursor, limit, wait_ms))

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's span tree: ``GET /v1/jobs/<id>/trace``."""
        return self._call(self.trace_request(job_id))

    # ------------------------------------------------------------------- cancel

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /v1/jobs/<id>``: cooperative cancellation."""
        return self._call(self.cancel_request(job_id))

    # ------------------------------------------------------------------ waiting

    def wait(
        self,
        job_id: str,
        deadline_seconds: float = 300.0,
        raise_on_error: bool = True,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its view (see
        :meth:`~repro.client.core.ClientProtocol.wait_machine`)."""
        machine = self.wait_machine(job_id, deadline_seconds, raise_on_error)
        (view,) = self._drive(machine, self._call)
        return view

    def wait_all(
        self, job_ids: Sequence[str], deadline_seconds: float = 300.0
    ) -> Dict[str, Dict[str, Any]]:
        """Wait for every job id; returns ``{id: terminal view}``, ``error``
        jobs included (see
        :meth:`~repro.client.core.ClientProtocol.batch_wait_machine`)."""
        return dict(self._drive(self.batch_wait_machine(job_ids, deadline_seconds), self._call))

    def iter_events(
        self,
        job_id: str,
        deadline_seconds: float = 300.0,
        poll_limit: int = 500,
        push: Optional[bool] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's progress events (oldest first) until it is terminal
        (see :meth:`~repro.client.core.ClientProtocol.events_machine`)."""
        machine = self.events_machine(job_id, deadline_seconds, poll_limit, push)
        return self._drive(machine, self._call)
