"""``AsyncVerifasClient``: the asyncio transport for the ``/v1`` API.

The protocol lives in the sans-IO :mod:`repro.client.core`, shared with the
synchronous client; this module adds raw HTTP/1.1 over
``asyncio.open_connection`` (one short-lived ``Connection: close`` exchange
per request, although the server runs one handler thread per *connection*
and a reused one would save that thread's start and its SQLite connection;
unlike the sync client, this one does not keep connections alive yet) and
:func:`asyncio.sleep`.  What asyncio adds is
*concurrency shape*:

* every exchange passes through one bounded :class:`asyncio.Semaphore`, so
  a thousand-job :meth:`submit_many` or :meth:`as_completed` sweep holds at
  most ``concurrency`` sockets to the server at once (a throttled request
  sleeps out its ``Retry-After`` without holding a slot);
* :meth:`as_completed` yields ``(job_id, view)`` pairs the moment each job
  turns terminal (batch status polling under the hood), instead of blocking
  on the slowest;
* :meth:`iter_events` is an async generator long-polling the event log --
  awaiting it costs no thread while the server holds the request open.

::

    client = AsyncVerifasClient(server.url)
    handles = await client.submit_many(payloads)
    async for job_id, view in client.as_completed([h.id for h in handles]):
        print(job_id, view["status"])

Python 3.9 compatible (no ``asyncio.timeout``; ``asyncio.wait_for`` bounds
each exchange).
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple
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


class AsyncVerifasClient(ClientProtocol):
    """Asyncio client for one verification server's ``/v1`` API."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        concurrency: int = 8,
        poll_initial: float = 0.05,
        poll_max: float = 2.0,
        poll_backoff: float = 1.6,
        push_events: bool = True,
        wait_ms: int = 10_000,
        trace_submissions: bool = True,
        api_key: Optional[str] = None,
        retry_throttled: bool = True,
        throttle_max_wait: float = 60.0,
    ):
        # Long-poll by default: the async client exists for event-driven
        # consumption, and the server side has always supported it.
        super().__init__(
            base_url, timeout, poll_initial, poll_max, poll_backoff, push_events,
            wait_ms, trace_submissions, api_key, retry_throttled, throttle_max_wait,
        )
        split = urlsplit(
            self.base_url if "//" in self.base_url else f"http://{self.base_url}"
        )
        if split.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {split.scheme!r}")
        if split.hostname is None:
            raise ValueError(f"no host in base URL {base_url!r}")
        self._host = split.hostname
        self._ssl = split.scheme == "https"
        self._port = split.port if split.port is not None else (443 if self._ssl else 80)
        self._prefix = split.path.rstrip("/")
        self.concurrency = max(1, int(concurrency))
        # Created lazily inside a running loop: instantiating the client at
        # module import time (no loop yet) must work on Python 3.9, where a
        # Semaphore binds the loop that exists at construction.  Re-created
        # whenever the running loop changes, so one client object survives
        # several ``asyncio.run`` calls.
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._semaphore_loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ plumbing

    def _gate(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._semaphore_loop is not loop:
            self._semaphore = asyncio.Semaphore(self.concurrency)
            self._semaphore_loop = loop
        return self._semaphore

    async def _send(self, wire: Request) -> Tuple[int, Dict[str, str], bytes]:
        body = wire.body or b""
        head = (
            f"{wire.method} {self._prefix}{wire.path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in (wire.headers or {}).items())
            + f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        async with self._gate():
            try:
                return await asyncio.wait_for(
                    self._exchange(head + body, wire.method, wire.path), timeout=wire.timeout
                )
            except asyncio.TimeoutError:
                raise ClientError(
                    f"timed out after {wire.timeout}s on {wire.method} {wire.path}"
                ) from None
            except OSError as error:
                raise ClientError(f"cannot reach {self.base_url}: {error}") from None

    async def _exchange(
        self, raw: bytes, method: str, path: str
    ) -> Tuple[int, Dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(
            self._host, self._port, ssl=True if self._ssl else None
        )
        try:
            writer.write(raw)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(" ", 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ClientError(
                    f"malformed status line {status_line!r} from {method} {path}"
                )
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = headers.get("content-length")
            if length is not None:
                data = await reader.readexactly(int(length))
            else:
                data = await reader.read()  # EOF-delimited (Connection: close)
            return int(parts[1]), headers, data
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - peer reset during close
                pass

    async def _drive(
        self, machine: Machine, send: Callable[[Any], Awaitable[Any]]
    ) -> AsyncIterator[Any]:
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
                await asyncio.sleep(step.seconds)
            elif isinstance(step, Emit):
                yield step.value
            else:
                reply = await send(step)

    async def _result(self, machine: Machine, send: Callable[[Any], Awaitable[Any]]) -> Any:
        """The one value *machine* emits."""
        (result,) = [value async for value in self._drive(machine, send)]
        return result

    async def _call(self, step: Any) -> Any:
        """The body of an endpoint request (a list of bodies, fetched
        concurrently, for a list)."""
        if isinstance(step, list):
            results = await asyncio.gather(*(self._request(*request) for request in step))
            return [body for _, body in results]
        return (await self._request(*step))[1]

    async def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Any] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """One API call, throttle retries included: ``(status, body)``."""
        machine = self.exchange_machine(Request(method, path, payload, timeout, headers))
        return await self._result(machine, self._send)

    # ------------------------------------------------------------------- basics

    async def healthz(self) -> Dict[str, Any]:
        return await self._call(self.healthz_request())

    async def metrics(self) -> Dict[str, Any]:
        return await self._call(self.metrics_request())

    # ------------------------------------------------------------------- submit

    async def submit(
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
        return await self.submit_payload(build_submit_payload(
            system, properties, options, label, ttl_seconds, deadline_ms, schema_version
        ))

    async def submit_payload(
        self, payload: Dict[str, Any], traceparent: Optional[str] = None
    ) -> List[JobHandle]:
        """Submit an already-built ``POST /v1/jobs`` payload, joined to a
        distributed trace (see :meth:`ClientProtocol.submit_request`)."""
        return read_submit(*await self._request(*self.submit_request(payload, traceparent)))

    async def submit_many(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[JobHandle]:
        """Submit every payload concurrently (bounded by the semaphore);
        returns the accepted handles flattened, in payload order."""
        results = await asyncio.gather(
            *(self.submit_payload(payload) for payload in payloads)
        )
        return [handle for handles in results for handle in handles]

    # -------------------------------------------------------------------- query

    async def job(self, job_id: str) -> Dict[str, Any]:
        """The current ``GET /v1/jobs/<id>`` view."""
        return await self._call(self.job_request(job_id))

    async def jobs(
        self, status: Optional[str] = None, limit: int = 100
    ) -> Dict[str, Any]:
        return await self._call(self.jobs_request(status, limit))

    async def job_views(self, job_ids: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Batch status ``{id: view}`` via ``GET /v1/jobs?id=a&id=b``
        (chunks of 100 ids per request; unknown ids absent)."""
        return merge_views(await self._call(self.view_requests(job_ids)))

    async def events(
        self,
        job_id: str,
        cursor: int = 0,
        limit: int = 500,
        wait_ms: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One events page; with *wait_ms* the request long-polls."""
        return await self._call(self.events_request(job_id, cursor, limit, wait_ms))

    async def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's span tree: ``GET /v1/jobs/<id>/trace``."""
        return await self._call(self.trace_request(job_id))

    async def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /v1/jobs/<id>``: cooperative cancellation."""
        return await self._call(self.cancel_request(job_id))

    # ------------------------------------------------------------------ waiting

    async def wait(
        self,
        job_id: str,
        deadline_seconds: float = 300.0,
        raise_on_error: bool = True,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its view."""
        machine = self.wait_machine(job_id, deadline_seconds, raise_on_error)
        return await self._result(machine, self._call)

    def as_completed(
        self, job_ids: Sequence[str], deadline_seconds: float = 300.0
    ) -> AsyncIterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(job_id, view)`` as each job turns terminal, in completion
        order (see :meth:`~repro.client.core.ClientProtocol.batch_wait_machine`)."""
        return self._drive(self.batch_wait_machine(job_ids, deadline_seconds), self._call)

    async def wait_all(
        self, job_ids: Sequence[str], deadline_seconds: float = 300.0
    ) -> Dict[str, Dict[str, Any]]:
        """Wait for every job id; returns ``{id: terminal view}``."""
        return dict([item async for item in self.as_completed(job_ids, deadline_seconds)])

    def iter_events(
        self,
        job_id: str,
        deadline_seconds: float = 300.0,
        poll_limit: int = 500,
        push: Optional[bool] = None,
    ) -> AsyncIterator[Dict[str, Any]]:
        """Yield the job's progress events (oldest first) until it is terminal
        (see :meth:`~repro.client.core.ClientProtocol.events_machine`)."""
        machine = self.events_machine(job_id, deadline_seconds, poll_limit, push)
        return self._drive(machine, self._call)
