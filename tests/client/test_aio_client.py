"""Tests for :class:`repro.client.aio.AsyncVerifasClient`.

Runs the asyncio client against a live :class:`VerificationServer` (its own
raw-socket HTTP/1.1 exchange, not urllib), covering concurrent fan-out
(``submit_many``), completion-order consumption (``as_completed``), the
long-poll event stream, the bounded-concurrency semaphore, and error
mapping.  ``asyncio.run`` keeps each test on a fresh event loop, which is
also what proves the lazily-created semaphore never binds a stale loop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.client import AsyncVerifasClient, ClientError, RemoteJobError, VerifasClient
from repro.client.http import build_submit_payload
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.spec import dump_property, dump_system

OPTIONS = {"timeout_seconds": 60}


def _properties():
    return [
        LTLFOProperty("Main", parse_ltl("G ns"),
                      {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped"),
        LTLFOProperty("Main", parse_ltl("F p"),
                      {"p": Eq(Var("status"), Const("picked"))}, name="eventually-picked"),
    ]


@pytest.fixture
def server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=2,
        sweep_interval=0.2, progress_interval=25, worker_model=worker_model,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def idle_server(tmp_path):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=0,
        push_fallback_interval=0.05,
    )
    server.start()
    yield server
    server.stop()


def _payload(system, prop, label=None):
    return build_submit_payload(
        dump_system(system), [dump_property(prop)], options=OPTIONS, label=label
    )


class TestAsyncBasics:
    def test_healthz_and_metrics(self, server):
        async def scenario():
            client = AsyncVerifasClient(server.url)
            health = await client.healthz()
            metrics = await client.metrics()
            return health, metrics

        health, metrics = asyncio.run(scenario())
        assert health["status"] == "ok"
        assert "counters" in metrics

    def test_submit_wait_round_trip(self, server, tiny_system):
        async def scenario():
            client = AsyncVerifasClient(server.url, poll_initial=0.02, poll_max=0.2)
            handles = await client.submit(
                dump_system(tiny_system),
                [dump_property(p) for p in _properties()],
                options=OPTIONS,
                label="aio-smoke",
            )
            views = await client.wait_all([h.id for h in handles], deadline_seconds=60)
            return handles, views

        handles, views = asyncio.run(scenario())
        assert [h.property for h in handles] == ["never-shipped", "eventually-picked"]
        assert views[handles[0].id]["result"]["outcome"] == "violated"
        assert views[handles[1].id]["result"]["outcome"] == "satisfied"

    def test_error_mapping(self, server):
        async def scenario():
            client = AsyncVerifasClient(server.url)
            with pytest.raises(ClientError) as excinfo:
                await client.submit_payload({"nonsense": True})
            assert excinfo.value.status == 400
            with pytest.raises(ClientError) as not_found:
                await client.job("no-such-job")
            assert not_found.value.status == 404

        asyncio.run(scenario())

    def test_unreachable_server(self):
        async def scenario():
            client = AsyncVerifasClient("http://127.0.0.1:9", timeout=2.0)
            with pytest.raises(ClientError):
                await client.healthz()

        asyncio.run(scenario())

    def test_rejects_bad_urls(self):
        with pytest.raises(ValueError):
            AsyncVerifasClient("ftp://example.com")

    def test_non_json_success_body_is_a_client_error(self, html_server):
        with pytest.raises(ClientError) as excinfo:
            asyncio.run(AsyncVerifasClient(html_server).healthz())
        assert excinfo.value.status == 200 and "malformed JSON" in str(excinfo.value)


class TestSubmitManyAsCompleted:
    def test_fan_out_and_completion_order_consumption(self, server, tiny_system):
        async def scenario():
            client = AsyncVerifasClient(server.url, poll_initial=0.02, poll_max=0.2)
            payloads = [
                _payload(tiny_system, prop, label=f"batch-{index}")
                for index, prop in enumerate(_properties())
            ]
            handles = await client.submit_many(payloads)
            seen = {}
            async for job_id, view in client.as_completed(
                [h.id for h in handles], deadline_seconds=60
            ):
                seen[job_id] = view
            return handles, seen

        handles, seen = asyncio.run(scenario())
        assert len(handles) == 2
        assert set(seen) == {h.id for h in handles}
        assert all(view["status"] == "done" for view in seen.values())

    def test_as_completed_unknown_id(self, server):
        async def scenario():
            client = AsyncVerifasClient(server.url)
            with pytest.raises(ClientError) as excinfo:
                async for _ in client.as_completed(["ghost"], deadline_seconds=5):
                    pass
            assert excinfo.value.status == 404

        asyncio.run(scenario())

    def test_wait_all_times_out_on_a_stuck_job(self, idle_server, tiny_system):
        async def scenario():
            with VerifasClient(idle_server.url) as sync:
                handle = sync.submit(
                    dump_system(tiny_system), [dump_property(_properties()[0])],
                    options=OPTIONS,
                )[0]
            client = AsyncVerifasClient(
                idle_server.url, poll_initial=0.02, poll_max=0.1
            )
            with pytest.raises(TimeoutError):
                await client.wait_all([handle.id], deadline_seconds=0.5)

        asyncio.run(scenario())

    def test_wait_raises_remote_error(self, idle_server, tiny_system):
        async def scenario():
            with VerifasClient(idle_server.url) as sync:
                handle = sync.submit(
                    dump_system(tiny_system), [dump_property(_properties()[0])],
                    options=OPTIONS,
                )[0]
            idle_server.store.claim_next()
            idle_server.store.mark_error(handle.id, "synthetic failure")
            client = AsyncVerifasClient(idle_server.url)
            with pytest.raises(RemoteJobError):
                await client.wait(handle.id, deadline_seconds=10)
            view = await client.wait(handle.id, deadline_seconds=10, raise_on_error=False)
            return view

        view = asyncio.run(scenario())
        assert view["status"] == "error"


class TestAsyncIterEvents:
    def test_long_poll_stream_ends_with_done(self, server, tiny_system):
        async def scenario():
            client = AsyncVerifasClient(server.url, wait_ms=5_000)
            handles = await client.submit(
                dump_system(tiny_system), [dump_property(_properties()[1])],
                options=OPTIONS,
            )
            kinds = []
            async for event in client.iter_events(handles[0].id, deadline_seconds=60):
                kinds.append(event["kind"])
            return kinds

        kinds = asyncio.run(scenario())
        assert kinds[0] == "phase"
        assert kinds[-1] == "done"

    def test_poll_fallback_mode(self, server, tiny_system):
        async def scenario():
            client = AsyncVerifasClient(
                server.url, push_events=False, poll_initial=0.02, poll_max=0.2
            )
            handles = await client.submit(
                dump_system(tiny_system), [dump_property(_properties()[1])],
                options=OPTIONS,
            )
            return [
                event["kind"]
                async for event in client.iter_events(handles[0].id, deadline_seconds=60)
            ]

        kinds = asyncio.run(scenario())
        assert kinds[-1] == "done"


class TestBoundedConcurrency:
    def test_semaphore_caps_in_flight_requests(self, server, tiny_system):
        async def scenario():
            client = AsyncVerifasClient(server.url, concurrency=2)
            in_flight = 0
            peak = 0
            inner = client._exchange

            async def instrumented(raw, method, path):
                nonlocal in_flight, peak
                in_flight += 1
                peak = max(peak, in_flight)
                try:
                    await asyncio.sleep(0.02)  # hold the slot long enough to overlap
                    return await inner(raw, method, path)
                finally:
                    in_flight -= 1

            client._exchange = instrumented
            await asyncio.gather(*(client.healthz() for _ in range(10)))
            return peak

        peak = asyncio.run(scenario())
        assert peak == 2

    def test_throttled_request_sleeps_without_holding_its_slot(self):
        """A 429 retried after ``Retry-After`` frees the only slot while it
        sleeps: a concurrent healthz finishes before the retry is sent."""
        async def scenario():
            client = AsyncVerifasClient("http://example.invalid", concurrency=1)
            log = []

            async def fake_exchange(raw, method, path):
                if path == "/v1/jobs":
                    log.append("submit")
                    if log.count("submit") == 1:
                        return 429, {"retry-after": "1"}, b'{"retry_after": 0.3}'
                    return 202, {}, b'{"jobs": [{"id": "j", "fingerprint": "f"}]}'
                log.append("healthz")
                return 200, {}, b'{"status": "ok"}'

            client._exchange = fake_exchange
            submit = asyncio.ensure_future(client.submit_payload({}))
            await asyncio.sleep(0.05)  # the submit got its 429 and sleeps
            assert (await asyncio.wait_for(client.healthz(), 0.2))["status"] == "ok"
            log.append("healthz done")
            handles = await submit
            return log, handles

        log, handles = asyncio.run(scenario())
        assert log == ["submit", "healthz", "healthz done", "submit"]
        assert [h.id for h in handles] == ["j"]

    def test_fresh_loop_per_run(self, server):
        # The semaphore is created lazily inside the running loop and
        # re-created when the loop changes, so the same client object works
        # across two separate asyncio.run calls (each runs a fresh loop).
        client = AsyncVerifasClient(server.url)
        assert asyncio.run(client.healthz())["status"] == "ok"
        assert asyncio.run(client.healthz())["status"] == "ok"


class TestAsyncBatchViews:
    def test_job_views_batches_and_skips_unknown(self, idle_server, tiny_system):
        async def scenario():
            client = AsyncVerifasClient(idle_server.url)
            handles = await client.submit(
                dump_system(tiny_system),
                [dump_property(p) for p in _properties()],
                options=OPTIONS,
            )
            views = await client.job_views([h.id for h in handles] + ["ghost"])
            return handles, views

        handles, views = asyncio.run(scenario())
        assert set(views) == {h.id for h in handles}
        assert all(view["status"] == "queued" for view in views.values())
