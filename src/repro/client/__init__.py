"""The Python client library for the ``/v1`` verification API.

Pure stdlib: submit jobs, follow progress events (``iter_events``
long-polls; ``events`` reads one page at once, for callers behind a proxy
that cuts long requests), cancel.  Used by ``python -m repro batch
--remote`` and the test suite, so neither has to hand-roll HTTP calls.
:mod:`repro.client.http` holds the whole client: one ``http.client``
transport with one keep-alive connection per calling thread.

::

    from repro.client import VerifasClient

    with VerifasClient("http://127.0.0.1:8080") as client:
        jobs = client.submit(system_dict, properties=[prop_dict],
                             options={"timeout_seconds": 30}, deadline_ms=60_000)
        for event in client.iter_events(jobs[0].id):
            print(event["kind"], event.get("data"))
        view = client.wait(jobs[0].id)
        client.cancel(jobs[0].id)
"""

from repro.client.http import (
    ClientError,
    JobHandle,
    RemoteJobError,
    SpecRejectedError,
    VerifasClient,
    build_submit_payload,
)

__all__ = [
    "ClientError",
    "JobHandle",
    "RemoteJobError",
    "SpecRejectedError",
    "VerifasClient",
    "build_submit_payload",
]
