"""The shared access token of the job routes (``serve --token-file``).

With a token, every job route answers 401 with ``WWW-Authenticate: Bearer``
to a missing, malformed or wrong ``Authorization`` header and serves the
right ``Bearer <token>``; the probes and ``/v1/metrics`` stay open.  Without
one, requests are anonymous and any ``Authorization`` header is ignored.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import build_parser, main
from repro.client import ClientError, VerifasClient
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import NULL, Const, Eq, Var
from repro.has.schema import DatabaseSchema
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.spec import dump_property, dump_system

TOKEN = "s3cret-token"


def _payload():
    """One job of a single-task system: ``pick`` sets ``status``."""
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None, "category": None}})
    builder = ArtifactSystemBuilder("tiny", schema)
    task = builder.task("Main")
    task.id_variable("item", "ITEMS")
    task.variable("status")
    task.internal_service(
        "pick", pre=Eq(Var("status"), NULL), post=Eq(Var("status"), Const("picked"))
    )
    prop = LTLFOProperty(
        "Main", parse_ltl("F p"), {"p": Eq(Var("status"), Const("picked"))}, name="picked"
    )
    return {
        "system": dump_system(builder.build()),
        "properties": [dump_property(prop)],
        "options": {"timeout_seconds": 60},
    }


def _call(url, method="GET", authorization=None, payload=None, accept=None):
    """``(status, headers, body)`` of one raw request."""
    headers = {"Content-Type": "application/json"}
    if authorization is not None:
        headers["Authorization"] = authorization
    if accept is not None:
        headers["Accept"] = accept
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.headers, error.read()


def _started(directory, token):
    """A worker-less server holding *token*, with one queued job (its id is
    ``server.job_id``)."""
    server = VerificationServer(
        store_path=directory / "jobs.db", port=0, workers=0, token=token
    )
    server.start()
    with VerifasClient(server.url, api_key=token or "") as client:
        [handle] = client.submit_payload(_payload())
    server.job_id = handle.id
    return server


@pytest.fixture(scope="module")
def guarded(tmp_path_factory):
    server = _started(tmp_path_factory.mktemp("guarded"), TOKEN)
    yield server
    server.stop()


#: (name, method, path template, success status) of every job route.
JOB_ROUTES = [
    ("list", "GET", "/v1/jobs", 200),
    ("batch-view", "GET", "/v1/jobs?id={id}", 200),
    ("view", "GET", "/v1/jobs/{id}", 200),
    ("events", "GET", "/v1/jobs/{id}/events", 200),
    ("trace", "GET", "/v1/jobs/{id}/trace", 200),
    ("submit", "POST", "/v1/jobs", 202),
    ("cancel", "DELETE", "/v1/jobs/{id}", 202),
]

#: Authorization headers that must not open a job route.
REFUSED = [
    ("missing", None),
    ("no-scheme", TOKEN),
    ("basic-scheme", f"Basic {TOKEN}"),
    ("empty-bearer", "Bearer"),
    ("wrong-token", "Bearer wrong-token"),
    ("longer-token", f"Bearer {TOKEN}x"),
    ("other-case", f"Bearer {TOKEN.upper()}"),
]

OPEN_ROUTES = [
    ("healthz", "/v1/healthz", None),
    ("readyz", "/v1/readyz", None),
    ("metrics", "/v1/metrics", None),
    ("prometheus", "/v1/metrics?format=prometheus", "text/plain"),
]


def _route_call(server, route, authorization):
    _, method, template, _ = route
    url = server.url + template.format(id=server.job_id)
    payload = _payload() if method == "POST" else None
    return _call(url, method, authorization=authorization, payload=payload)


class TestGuardedJobRoutes:
    @pytest.mark.parametrize("route", JOB_ROUTES, ids=[r[0] for r in JOB_ROUTES])
    @pytest.mark.parametrize("authorization", [a for _, a in REFUSED],
                             ids=[name for name, _ in REFUSED])
    def test_a_refused_header_gets_401(self, guarded, route, authorization):
        status, headers, body = _route_call(guarded, route, authorization)
        assert status == 401
        assert headers["WWW-Authenticate"] == "Bearer"
        assert "access token" in json.loads(body)["error"]

    @pytest.mark.parametrize("route", JOB_ROUTES, ids=[r[0] for r in JOB_ROUTES])
    @pytest.mark.parametrize("scheme", ["Bearer", "bearer"])
    def test_the_right_token_is_served(self, guarded, route, scheme):
        status, _, _ = _route_call(guarded, route, f"{scheme} {TOKEN}")
        assert status == route[3]

    @pytest.mark.parametrize("route", OPEN_ROUTES, ids=[r[0] for r in OPEN_ROUTES])
    @pytest.mark.parametrize("authorization", [None, "Bearer wrong-token"])
    def test_probes_and_metrics_stay_open(self, guarded, route, authorization):
        _, path, accept = route
        status, _, _ = _call(guarded.url + path, authorization=authorization, accept=accept)
        assert status == 200

    def test_refusals_are_counted(self, guarded):
        before = guarded.metrics.counter("auth_failures")
        _call(f"{guarded.url}/v1/jobs")
        _call(f"{guarded.url}/v1/jobs", authorization=f"Bearer {TOKEN}")
        assert guarded.metrics.counter("auth_failures") == before + 1

    def test_a_refused_post_closes_its_connection(self, guarded):
        """The unread body must not be parsed as the next request."""
        status, headers, _ = _call(
            f"{guarded.url}/v1/jobs", "POST", payload={"system": {}}
        )
        assert status == 401 and headers["Connection"] == "close"


class TestClientAgainstAGuardedServer:
    def test_the_client_sends_its_token(self, guarded):
        with VerifasClient(guarded.url, api_key=TOKEN) as client:
            assert client.job(guarded.job_id)["id"] == guarded.job_id

    def test_the_token_comes_from_the_environment(self, guarded, monkeypatch):
        monkeypatch.setenv("REPRO_API_KEY", TOKEN)
        with VerifasClient(guarded.url) as client:
            assert client.jobs()["counts"]["queued"] >= 1

    def test_a_client_without_the_token_gets_401(self, guarded, monkeypatch):
        monkeypatch.delenv("REPRO_API_KEY", raising=False)
        with VerifasClient(guarded.url) as client:
            with pytest.raises(ClientError) as excinfo:
                client.job(guarded.job_id)
            assert excinfo.value.status == 401
            assert client.healthz()["status"] == "ok"


class TestNoToken:
    @pytest.fixture(scope="class")
    def open_server(self, tmp_path_factory):
        server = _started(tmp_path_factory.mktemp("open"), None)
        yield server
        server.stop()

    @pytest.mark.parametrize("route", JOB_ROUTES, ids=[r[0] for r in JOB_ROUTES])
    @pytest.mark.parametrize("authorization", [None, "Bearer anything"])
    def test_requests_are_anonymous(self, open_server, route, authorization):
        status, _, _ = _route_call(open_server, route, authorization)
        assert status == route[3]

    def test_no_refusal_is_counted(self, open_server):
        _call(f"{open_server.url}/v1/jobs", authorization="Bearer anything")
        assert open_server.metrics.counter("auth_failures") == 0

    def test_an_anonymous_job_view_keeps_its_shape(self, open_server):
        """The body of ``GET /v1/jobs/<id>`` for an anonymous queued job: the
        same keys in the same order, indented JSON and one newline."""
        with VerifasClient(open_server.url, api_key="") as client:
            [handle] = client.submit_payload(_payload())
        status, _, body = _call(f"{open_server.url}/v1/jobs/{handle.id}")
        assert status == 200
        view = json.loads(body)
        assert list(view) == [
            "id", "fingerprint", "system", "property", "label", "status",
            "cache_hit", "cancel_requested", "claimed_by", "submitted_at",
            "started_at", "finished_at", "trace_id", "warnings",
        ]
        assert body == json.dumps(view, indent=2).encode("utf-8") + b"\n"
        assert view == open_server.job_view(handle.id)


class TestTokenConfiguration:
    def test_an_empty_token_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="must not be empty"):
            VerificationServer(store_path=tmp_path / "jobs.db", port=0, token="")

    def test_serve_parses_the_token_file_flag(self):
        assert build_parser().parse_args(["serve"]).token_file is None
        args = build_parser().parse_args(["serve", "--token-file", "/run/token"])
        assert args.token_file == "/run/token"

    def test_serve_reads_and_strips_the_token_file(self, tmp_path, monkeypatch):
        seen = {}

        class Recorder:
            def __init__(self, **kwargs):
                seen.update(kwargs)
                raise ValueError("recorded")

        monkeypatch.setattr("repro.server.VerificationServer", Recorder)
        token_file = tmp_path / "token"
        token_file.write_text(f"  {TOKEN}\n", encoding="utf-8")
        assert main(["serve", "--token-file", str(token_file), "--port", "0"]) == 2
        assert seen["token"] == TOKEN

    def test_serve_without_a_token_file_passes_no_token(self, monkeypatch):
        seen = {}

        class Recorder:
            def __init__(self, **kwargs):
                seen.update(kwargs)
                raise ValueError("recorded")

        monkeypatch.setattr("repro.server.VerificationServer", Recorder)
        assert main(["serve", "--port", "0"]) == 2
        assert seen["token"] is None

    def test_an_empty_token_file_exits_2(self, tmp_path, capsys):
        token_file = tmp_path / "token"
        token_file.write_text("\n", encoding="utf-8")
        assert main(["serve", "--token-file", str(token_file),
                     "--store", str(tmp_path / "jobs.db"), "--port", "0"]) == 2
        assert "must not be empty" in capsys.readouterr().err

    def test_a_missing_token_file_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--token-file", str(tmp_path / "absent"),
                     "--store", str(tmp_path / "jobs.db"), "--port", "0"]) == 2
        assert "cannot read token file" in capsys.readouterr().err
