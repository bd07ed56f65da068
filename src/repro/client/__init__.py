"""The Python client library for the ``/v1`` verification API.

Pure stdlib: submit jobs, stream progress events (long-poll push by default
in the async client, opt-in in the sync one), poll with exponential backoff
as the fallback, cancel.  Used by ``python -m repro batch --remote`` and the
test suite, so neither has to hand-roll HTTP calls.

One protocol, two transports: the sans-IO :mod:`repro.client.core` holds
all of the protocol, and :mod:`repro.client.http` (``http.client``, one
keep-alive connection per calling thread) and :mod:`repro.client.aio`
(asyncio streams) only send requests and sleep.

Synchronous (``http.client``)::

    from repro.client import VerifasClient

    with VerifasClient("http://127.0.0.1:8080") as client:
        jobs = client.submit(system_dict, properties=[prop_dict],
                             options={"timeout_seconds": 30}, deadline_ms=60_000)
        for event in client.iter_events(jobs[0].id):
            print(event["kind"], event.get("data"))
        view = client.wait(jobs[0].id)
        client.cancel(jobs[0].id)

Asyncio (bounded-concurrency fan-out, completion-order consumption)::

    from repro.client import AsyncVerifasClient

    client = AsyncVerifasClient("http://127.0.0.1:8080", concurrency=8)
    handles = await client.submit_many(payloads)
    async for job_id, view in client.as_completed([h.id for h in handles]):
        print(job_id, view["status"])
"""

from repro.client.aio import AsyncVerifasClient
from repro.client.core import (
    ClientError,
    JobHandle,
    RemoteJobError,
    SpecRejectedError,
    auth_headers,
    build_submit_payload,
    default_api_key,
)
from repro.client.http import VerifasClient

__all__ = [
    "AsyncVerifasClient",
    "ClientError",
    "JobHandle",
    "RemoteJobError",
    "SpecRejectedError",
    "VerifasClient",
    "auth_headers",
    "build_submit_payload",
    "default_api_key",
]
