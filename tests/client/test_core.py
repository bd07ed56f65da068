"""Unit tests of :mod:`repro.client.core`, the sans-IO client protocol.

No server and no sockets: the request builders are inspected directly and
the machines are driven by :func:`drive`, which answers each request from a
script and records every step.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.client.core import (
    ClientError,
    ClientProtocol,
    Emit,
    Request,
    Sleep,
    SpecRejectedError,
    read_response,
    read_submit,
)

HOSTILE = "a/b?c=1#frag x"
ESCAPED = "a%2Fb%3Fc%3D1%23frag%20x"


def drive(machine, answer):
    """Run *machine*, answering each request with ``answer(request)``;
    returns ``(steps, emitted values)``."""
    steps, emitted = [], []
    reply = None
    while True:
        try:
            step = machine.send(reply)
        except StopIteration:
            return steps, emitted
        steps.append(step)
        reply = None
        if isinstance(step, Emit):
            emitted.append(step.value)
        elif not isinstance(step, Sleep):
            reply = answer(step)


def requests_of(steps):
    return [step for step in steps if not isinstance(step, (Sleep, Emit))]


@pytest.fixture
def protocol():
    return ClientProtocol("http://example.invalid/", api_key="vk_test.secret")


class TestRequestBuilders:
    def test_hostile_ids_are_one_escaped_path_segment(self, protocol):
        assert protocol.job_request(HOSTILE).path == f"/v1/jobs/{ESCAPED}"
        assert protocol.cancel_request(HOSTILE) == Request("DELETE", f"/v1/jobs/{ESCAPED}")
        assert protocol.trace_request(HOSTILE).path == f"/v1/jobs/{ESCAPED}/trace"
        assert protocol.events_request(HOSTILE, cursor=7, limit=9).path == (
            f"/v1/jobs/{ESCAPED}/events?cursor=7&limit=9"
        )

    def test_query_values_are_escaped(self, protocol):
        assert protocol.jobs_request("queued&limit=0", 5).path == (
            "/v1/jobs?limit=5&status=queued%26limit%3D0"
        )
        [batch] = protocol.view_requests([HOSTILE])
        assert batch.path == f"/v1/jobs?id={ESCAPED.replace('%20', '+')}"

    def test_view_requests_dedupe_and_chunk_by_100(self, protocol):
        ids = [f"j{i}" for i in range(250)] + ["j0", "j1"]
        chunks = protocol.view_requests(ids)
        sizes = [len(re.findall(r"(?:\?|&)id=", r.path)) for r in chunks]
        assert sizes == [100, 100, 50]
        assert chunks[0].path.startswith("/v1/jobs?id=j0&id=j1&")
        assert "id=j249" in chunks[-1].path and protocol.view_requests([]) == []

    def test_long_poll_widens_the_timeout(self, protocol):
        assert protocol.events_request("j", wait_ms=2500).timeout == pytest.approx(32.5)
        assert protocol.events_request("j").timeout is None  # the client's default

    def test_submit_mints_a_traceparent_unless_given_or_disabled(self, protocol):
        minted = protocol.submit_request({"x": 1}).headers["traceparent"]
        assert re.fullmatch(r"00-[0-9a-f]{32}-[0-9a-f]{16}-01", minted)
        given = protocol.submit_request({}, traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01")
        assert given.headers["traceparent"].startswith("00-111")
        protocol.trace_submissions = False
        assert protocol.submit_request({}).headers == {}

    def test_wire_request_carries_auth_json_and_default_timeout(self, protocol):
        steps, _ = drive(
            protocol.exchange_machine(Request("POST", "/v1/jobs", {"a": 1})),
            lambda wire: (202, {}, b'{"jobs": []}'),
        )
        wire = steps[0]
        assert wire.body == b'{"a": 1}' and wire.timeout == 30.0
        assert wire.headers["Authorization"] == "Bearer vk_test.secret"
        assert wire.headers["Content-Type"] == "application/json"
        assert steps[1] == Emit((202, {"jobs": []}))

    def test_anonymous_client_sends_no_authorization(self, monkeypatch):
        monkeypatch.delenv("REPRO_API_KEY", raising=False)
        monkeypatch.delenv("REPRO_TEST_AUTH", raising=False)
        steps, _ = drive(
            ClientProtocol("http://x").exchange_machine(Request("GET", "/v1/healthz")),
            lambda wire: (200, {}, b"{}"),
        )
        assert "Authorization" not in steps[0].headers


GET = Request("GET", "/v1/jobs", None, 30.0, {"Accept": "application/json"})


class TestReadResponse:
    def test_success_body_is_decoded(self):
        assert read_response(GET, 200, {}, b'{"ok": true}') == (200, {"ok": True})

    @pytest.mark.parametrize("data", [b"<html>oops</html>", b"", b"[1, 2]", b"\xff"])
    def test_success_body_that_is_not_a_json_object_is_a_client_error(self, data):
        with pytest.raises(ClientError) as excinfo:
            read_response(GET, 200, {}, data)
        assert excinfo.value.status == 200 and "malformed JSON" in str(excinfo.value)

    def test_text_is_returned_when_the_request_asked_for_it(self):
        wire = GET._replace(headers={"Accept": "text/plain"})
        assert read_response(wire, 200, {}, b"repro_up 1\n") == (200, "repro_up 1\n")

    @pytest.mark.parametrize(
        "status, data, kind, message",
        [
            (400, b'{"error": "bad payload"}', ClientError, "bad payload"),
            (401, b'{"error": "missing key"}', ClientError, "missing key"),
            (404, b"not json", ClientError, "HTTP 404 on GET /v1/jobs"),
            (422, b'{"error": "rejected", "diagnostics": [{"code": "VA101"}]}',
             SpecRejectedError, "rejected"),
        ],
    )
    def test_error_statuses_map_to_client_errors(self, status, data, kind, message):
        with pytest.raises(ClientError) as excinfo:
            read_response(GET, status, {}, data)
        assert type(excinfo.value) is kind
        assert excinfo.value.status == status and str(excinfo.value) == message
        assert excinfo.value.retry_after is None
        if kind is SpecRejectedError:
            assert excinfo.value.diagnostics == [{"code": "VA101"}]

    @pytest.mark.parametrize(
        "headers, body, expected",
        [
            ({"Retry-After": "2"}, {"retry_after": 0.25}, 0.25),  # body float wins
            ({"retry-after": "3"}, {}, 3.0),  # header only, any case
            ({}, {}, None),  # neither
            ({"Retry-After": "soon"}, {"retry_after": True}, None),  # junk
        ],
    )
    def test_retry_after_on_429(self, headers, body, expected):
        with pytest.raises(ClientError) as excinfo:
            read_response(GET, 429, headers, json.dumps(body).encode())
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == expected

    def test_read_submit(self):
        [handle] = read_submit(202, {"jobs": [{"id": "j/1", "fingerprint": "fp"}]})
        assert handle.url == "/v1/jobs/j%2F1"
        with pytest.raises(ClientError):
            read_submit(200, {"jobs": []})


def _throttled(retry_after):
    return 429, {}, json.dumps({"error": "slow down", "retry_after": retry_after}).encode()


class TestThrottleBudget:
    def test_429s_are_slept_out_within_the_budget(self, protocol):
        replies = iter([_throttled(0.5), _throttled(0.25), (200, {}, b"{}")])
        steps, emitted = drive(
            protocol.exchange_machine(Request("GET", "/v1/healthz")), lambda wire: next(replies)
        )
        assert [s for s in steps if isinstance(s, Sleep)] == [Sleep(0.5), Sleep(0.25)]
        assert len(requests_of(steps)) == 3 and emitted == [(200, {})]

    def test_budget_exhaustion_surfaces_the_429_with_retry_after(self, protocol):
        protocol.throttle_max_wait = 1.0
        replies = iter([_throttled(0.75), _throttled(0.5)])
        with pytest.raises(ClientError) as excinfo:
            drive(protocol.exchange_machine(Request("GET", "/v1/healthz")),
                  lambda wire: next(replies))
        assert excinfo.value.status == 429 and excinfo.value.retry_after == 0.5

    def test_retry_throttled_off_never_sleeps(self, protocol):
        protocol.retry_throttled = False
        with pytest.raises(ClientError) as excinfo:
            drive(protocol.exchange_machine(Request("GET", "/v1/healthz")),
                  lambda wire: _throttled(0.01))
        assert excinfo.value.retry_after == 0.01

    def test_429_without_a_hint_is_not_retried(self, protocol):
        with pytest.raises(ClientError):
            drive(protocol.exchange_machine(Request("GET", "/v1/healthz")),
                  lambda wire: (429, {}, b"{}"))


class TestBackoff:
    def test_wait_sleeps_on_the_capped_backoff_until_terminal(self):
        protocol = ClientProtocol("http://x", poll_initial=0.1, poll_max=0.3, poll_backoff=2.0)
        views = iter([{"status": "queued"}] * 3 + [{"status": "done", "id": "j"}])
        steps, emitted = drive(protocol.wait_machine("j", 60, True), lambda r: next(views))
        assert [s for s in steps if isinstance(s, Sleep)] == [Sleep(0.1), Sleep(0.2), Sleep(0.3)]
        assert emitted == [{"status": "done", "id": "j"}]


def _page(first, count, terminal):
    return {"events": [{"seq": seq} for seq in range(first, first + count)],
            "terminal": terminal}


class TestEventsTerminalPage:
    def test_short_terminal_page_ends_with_no_extra_request(self, protocol):
        pages = iter([_page(1, 3, True)])
        steps, emitted = drive(protocol.events_machine("j", 60, 3 + 1, True),
                               lambda r: next(pages))
        assert len(requests_of(steps)) == 1
        assert [e["seq"] for e in emitted] == [1, 2, 3]

    def test_full_terminal_page_fetches_again_from_the_cursor(self, protocol):
        pages = iter([_page(1, 2, True), _page(3, 0, True)])
        steps, emitted = drive(protocol.events_machine("j", 60, 2, True), lambda r: next(pages))
        requests = requests_of(steps)
        assert len(requests) == 2
        assert "cursor=2&limit=2&wait_ms=" in requests[1].path
        assert [e["seq"] for e in emitted] == [1, 2]

    def test_poll_mode_backs_off_on_empty_pages_and_resets_on_progress(self):
        protocol = ClientProtocol("http://x", poll_initial=0.1, poll_max=1.0, poll_backoff=2.0)
        pages = iter([_page(1, 0, False), _page(1, 0, False), _page(1, 1, False),
                      _page(2, 0, False), _page(2, 0, True)])
        steps, _ = drive(protocol.events_machine("j", 60, 10, False), lambda r: next(pages))
        assert [s for s in steps if isinstance(s, Sleep)] == [Sleep(0.1), Sleep(0.2), Sleep(0.1)]
        assert all("wait_ms" not in r.path for r in requests_of(steps))


class TestBatchWait:
    def test_missing_id_is_a_404_client_error(self, protocol):
        with pytest.raises(ClientError) as excinfo:
            drive(protocol.batch_wait_machine(["known", "ghost"], 60),
                  lambda chunks: [{"jobs": [{"id": "known", "status": "queued"}]}])
        assert excinfo.value.status == 404 and "ghost" in str(excinfo.value)

    def test_emits_in_completion_order_and_resets_backoff_on_progress(self):
        protocol = ClientProtocol("http://x", poll_initial=0.1, poll_max=1.0, poll_backoff=2.0)
        rounds = iter([
            {"a": "queued", "b": "running"},
            {"a": "queued", "b": "running"},
            {"a": "queued", "b": "done"},
            {"a": "error"},
        ])

        def answer(chunks):
            statuses = next(rounds)
            return [{"jobs": [{"id": i, "status": s} for i, s in statuses.items()]}]

        steps, emitted = drive(protocol.batch_wait_machine(["a", "b", "a"], 60), answer)
        assert [job_id for job_id, _ in emitted] == ["b", "a"]
        assert [s for s in steps if isinstance(s, Sleep)] == [Sleep(0.1), Sleep(0.2), Sleep(0.1)]
        assert "id=b" not in requests_of(steps)[-1][0].path

    def test_no_ids_means_no_requests(self, protocol):
        assert drive(protocol.batch_wait_machine([], 60), lambda r: None) == ([], [])
