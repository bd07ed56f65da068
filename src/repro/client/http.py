"""``VerifasClient``: the synchronous ``urllib`` transport for the ``/v1`` API.

The protocol -- requests, response mapping, throttle retries and the
polling algorithms -- lives in the sans-IO :mod:`repro.client.core`; this
module only sends requests with ``urllib`` and sleeps with
:func:`time.sleep`.  ``iter_events`` long-polls when ``push_events`` is on
(``REPRO_TEST_PUSH_EVENTS=1`` flips the default: the CI hook that re-runs
the e2e suites over long-poll delivery) and otherwise polls on the backoff,
the fallback that works against any server.
"""

from __future__ import annotations

import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


class VerifasClient(ClientProtocol):
    """Synchronous client for one verification server's ``/v1`` API (the
    constructor is :class:`~repro.client.core.ClientProtocol`'s)."""

    # ------------------------------------------------------------------ plumbing

    def _send(self, wire: Request) -> Tuple[int, Any, bytes]:
        request = urllib.request.Request(
            f"{self.base_url}{wire.path}",
            data=wire.body,
            method=wire.method,
            headers=wire.headers or {},
        )
        try:
            with urllib.request.urlopen(request, timeout=wire.timeout) as response:
                return response.status, response.headers, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.headers or {}, error.read()
        except (urllib.error.URLError, OSError) as error:
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
