"""E2e tests of the multi-tenant front door (``serve --auth``).

Covers the acceptance criteria: 401 for unauthenticated requests, tenant
isolation (A cannot list/inspect/cancel B's jobs -- including across two
servers sharing one store), 429 + ``Retry-After`` past the rate limit and
the in-flight quota, per-tenant metrics, the ``REPRO_TEST_AUTH=1``
bootstrap, and that an auth-less server keeps behaving exactly as before.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.client import ClientError, VerifasClient
from repro.has.conditions import Const, Eq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.service import VerificationJob
from repro.spec import dump_property, dump_system
from repro.tenancy import DEFAULT_TEST_API_KEY


def _payload(system, index=0):
    prop = LTLFOProperty("Main", parse_ltl("F p"),
                         {"p": Eq(Var("status"), Const("picked"))}, name="f-picked")
    return {
        "schema_version": 1,
        "system": dump_system(system),
        "properties": [dump_property(prop)],
        "options": {"max_states": 2000 + index},
    }


def _raw(url: str, method: str = "GET", payload=None, api_key=None):
    """(status, headers, parsed body); HTTP errors return, not raise."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        try:
            body = json.loads(error.read().decode("utf-8"))
        except ValueError:
            body = {}
        return error.code, dict(error.headers), body


@pytest.fixture
def auth_server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=1,
        sweep_interval=0.2, worker_model=worker_model, auth_enabled=True,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def tenants(auth_server):
    """Two plain tenants; returns ``{name: api_key}``."""
    keys = {}
    for name in ("alice", "bob"):
        _, keys[name] = auth_server.tenants.create(name, tenant_id=name)
    return keys


class TestAuthentication:
    def test_job_routes_401_without_key(self, auth_server):
        base = auth_server.url
        for method, path in [
            ("GET", "/v1/jobs"),
            ("GET", "/v1/jobs/x"),
            ("GET", "/v1/jobs/x/events"),
            ("GET", "/v1/jobs/x/trace"),
            ("DELETE", "/v1/jobs/x"),
            ("POST", "/v1/jobs"),
        ]:
            payload = {"schema_version": 1} if method == "POST" else None
            status, headers, body = _raw(base + path, method, payload)
            assert status == 401, f"{method} {path} answered {status}"
            assert headers.get("WWW-Authenticate") == "Bearer"
            assert "error" in body

    @pytest.mark.parametrize(
        "bad_key", ["vk_ffffffff.not-a-secret", "garbage", "vk_nodot"]
    )
    def test_unknown_or_malformed_keys_401(self, auth_server, bad_key):
        status, _, _ = _raw(auth_server.url + "/v1/jobs", api_key=bad_key)
        assert status == 401

    def test_wrong_secret_with_known_key_id_401(self, auth_server, tenants):
        key_id = auth_server.tenants.get("alice").key_id
        status, _, _ = _raw(
            auth_server.url + "/v1/jobs", api_key=f"vk_{key_id}.wrong"
        )
        assert status == 401

    def test_revoked_key_403(self, auth_server, tenants):
        auth_server.tenants.revoke("bob")
        status, headers, _ = _raw(
            auth_server.url + "/v1/jobs", api_key=tenants["bob"]
        )
        assert status == 403
        assert "WWW-Authenticate" not in headers  # the key IS known

    def test_probes_and_metrics_stay_open(self, auth_server):
        for path in ("/v1/healthz", "/v1/readyz", "/v1/metrics"):
            status, _, _ = _raw(auth_server.url + path)
            assert status in (200, 503), f"{path} answered {status}"

    def test_auth_failures_are_counted(self, auth_server):
        before = auth_server.metrics.counters()["auth_failures"]
        _raw(auth_server.url + "/v1/jobs")
        _raw(auth_server.url + "/v1/jobs", api_key="vk_ffffffff.x")
        after = auth_server.metrics.counters()["auth_failures"]
        assert after == before + 2

    def test_client_with_an_unknown_key_gets_401(self, auth_server):
        with VerifasClient(auth_server.url, api_key="vk_ffffffff.x") as bad:
            with pytest.raises(ClientError) as excinfo:
                bad.jobs()
        assert excinfo.value.status == 401


class TestTenantIsolation:
    def test_cross_tenant_access_is_404(self, auth_server, tenants, tiny_system):
        with VerifasClient(auth_server.url, api_key=tenants["alice"],
                           poll_initial=0.02, poll_max=0.2) as alice:
            job_id = alice.submit_payload(_payload(tiny_system))[0].id
            base = auth_server.url
            for method, path in [
                ("GET", f"/v1/jobs/{job_id}"),
                ("GET", f"/v1/jobs/{job_id}/events"),
                ("GET", f"/v1/jobs/{job_id}/trace"),
                ("DELETE", f"/v1/jobs/{job_id}"),
            ]:
                status, _, _ = _raw(base + path, method, api_key=tenants["bob"])
                assert status == 404, f"bob's {method} {path} answered {status}"
            # The owner still sees everything.
            assert alice.job(job_id)["id"] == job_id
            assert alice.wait(job_id, deadline_seconds=60)["status"] == "done"

    def test_listing_is_scoped_to_the_caller(self, auth_server, tenants, tiny_system):
        with VerifasClient(auth_server.url, api_key=tenants["alice"],
                           poll_initial=0.02, poll_max=0.2) as alice:
            with VerifasClient(auth_server.url, api_key=tenants["bob"],
                               poll_initial=0.02, poll_max=0.2) as bob:
                alice_id = alice.submit_payload(_payload(tiny_system, 1))[0].id
                bob_id = bob.submit_payload(_payload(tiny_system, 2))[0].id
                alice_view = alice.jobs()
                assert [j["id"] for j in alice_view["jobs"]] == [alice_id]
                assert sum(alice_view["counts"].values()) == 1
                # Batch-status ids filter: bob's ids silently drop out for alice.
                views = alice.job_views([alice_id, bob_id])
                assert set(views) == {alice_id}

    def test_isolation_holds_across_two_servers_sharing_a_store(
        self, tmp_path, tenants, auth_server, tiny_system
    ):
        """A second server on the same store enforces the same tenancy:
        keys minted on server one authenticate on server two, and scoping
        still holds there."""
        second = VerificationServer(
            store_path=auth_server.store.path, port=0, workers=0,
            server_id="second", auth_enabled=True, tenant_cache_seconds=0.05,
        )
        second.start()
        try:
            with VerifasClient(auth_server.url, api_key=tenants["alice"],
                               poll_initial=0.02, poll_max=0.2) as alice_one:
                job_id = alice_one.submit_payload(_payload(tiny_system, 3))[0].id
                # Same key, other server: authenticated and scoped.
                status, _, body = _raw(second.url + "/v1/jobs",
                                       api_key=tenants["alice"])
                assert status == 200
                assert job_id in [j["id"] for j in body["jobs"]]
                status, _, _ = _raw(second.url + f"/v1/jobs/{job_id}",
                                    api_key=tenants["bob"])
                assert status == 404
                status, _, _ = _raw(second.url + f"/v1/jobs/{job_id}",
                                    api_key=tenants["alice"])
                assert status == 200
                # Revocation on server one reaches server two after its TTL.
                auth_server.tenants.revoke("alice")
                time.sleep(0.1)
                status, _, _ = _raw(second.url + "/v1/jobs",
                                    api_key=tenants["alice"])
                assert status == 403
        finally:
            second.stop()


class TestRateLimitAndQuota:
    def test_over_rate_limit_is_429_with_retry_after(self, auth_server, tiny_system):
        _, key = auth_server.tenants.create("limited", rate_limit=1.0, burst=2.0)
        base = auth_server.url
        for index in range(2):  # the burst
            status, _, _ = _raw(base + "/v1/jobs", "POST",
                                _payload(tiny_system, 10 + index), api_key=key)
            assert status == 202
        status, headers, body = _raw(base + "/v1/jobs", "POST",
                                     _payload(tiny_system, 12), api_key=key)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert body["reason"] == "rate_limit"
        assert 0 < body["retry_after"] <= 2.0
        view = auth_server.metrics_view()
        assert view["counters"]["tenant_throttled"] >= 1

    def test_batch_bigger_than_pending_quota_is_429(self, tmp_path):
        server = VerificationServer(
            store_path=tmp_path / "q.db", port=0, workers=0, auth_enabled=True,
        )
        server.start()
        try:
            _, key = server.tenants.create("small", max_pending=2)
            from repro.has.builder import ArtifactSystemBuilder
            from repro.has.conditions import And, NULL, Neq
            from repro.has.schema import DatabaseSchema

            schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
            builder = ArtifactSystemBuilder("tiny", schema)
            task = builder.task("Main")
            task.id_variable("item", "ITEMS")
            task.variable("status")
            task.internal_service(
                "pick", pre=Eq(Var("status"), NULL),
                post=And(Neq(Var("item"), NULL), Eq(Var("status"), Const("picked"))),
            )
            system = builder.build()
            base = server.url
            status, _, _ = _raw(base + "/v1/jobs", "POST",
                                _payload(system, 20), api_key=key)
            assert status == 202
            status, _, _ = _raw(base + "/v1/jobs", "POST",
                                _payload(system, 21), api_key=key)
            assert status == 202
            # Workers are off: both jobs sit queued, the quota is full.
            status, headers, body = _raw(base + "/v1/jobs", "POST",
                                         _payload(system, 22), api_key=key)
            assert status == 429
            assert body["reason"] == "quota"
            assert "Retry-After" in headers
            assert server.metrics_view()["counters"]["quota_exceeded"] >= 1
        finally:
            server.stop()

    def test_sync_client_honours_retry_after(self, auth_server, tiny_system):
        _, key = auth_server.tenants.create("patient", rate_limit=5.0, burst=1.0)
        with VerifasClient(auth_server.url, api_key=key,
                           poll_initial=0.02, poll_max=0.2) as client:
            started = time.monotonic()
            ids = [client.submit_payload(_payload(tiny_system, 30 + i))[0].id
                   for i in range(3)]
            elapsed = time.monotonic() - started
            assert len(ids) == 3
            assert elapsed >= 0.3  # two 429 retries at 5/s were actually waited out
            views = client.wait_all(ids, deadline_seconds=60)
            assert all(v["status"] == "done" for v in views.values())

    def test_sync_client_surfaces_429_when_not_retrying(self, auth_server, tiny_system):
        _, key = auth_server.tenants.create("impatient", rate_limit=0.5, burst=1.0)
        with VerifasClient(auth_server.url, api_key=key, retry_throttled=False) as client:
            client.submit_payload(_payload(tiny_system, 40))
            with pytest.raises(ClientError) as excinfo:
                client.submit_payload(_payload(tiny_system, 41))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after and excinfo.value.retry_after > 0
            assert excinfo.value.body["reason"] == "rate_limit"


class TestPerTenantMetrics:
    def test_metrics_view_has_tenant_section(self, auth_server, tenants, tiny_system):
        with VerifasClient(auth_server.url, api_key=tenants["alice"],
                           poll_initial=0.02, poll_max=0.2) as alice:
            job_id = alice.submit_payload(_payload(tiny_system, 60))[0].id
            alice.wait(job_id, deadline_seconds=60)
            view = auth_server.metrics_view()
            assert view["auth_enabled"] is True
            tenant_view = view["tenants"]["alice"]
            assert tenant_view["name"] == "alice"
            assert tenant_view["jobs"]["done"] >= 1
            status, _, body = _raw(auth_server.url + "/v1/metrics")
            assert status == 200 and "alice" in body.get("tenants", {})

    def test_worker_events_count_toward_the_job_tenant(
        self, auth_server, tenants, tiny_system
    ):
        """Verification starts and failures land in the tenant's counters."""
        with VerifasClient(auth_server.url, api_key=tenants["alice"],
                           poll_initial=0.02, poll_max=0.2) as alice:
            job_id = alice.submit_payload(_payload(tiny_system, 70))[0].id
            assert alice.wait(job_id, deadline_seconds=60)["status"] == "done"
            # A formula that only fails to parse in the runner: stored directly,
            # past the submit-time spec gate.
            payload = _payload(tiny_system, 71)
            failing = auth_server.store.submit(
                VerificationJob(
                    system_dict=payload["system"],
                    property_dict={**payload["properties"][0], "formula": "G ("},
                    options_dict=payload["options"],
                ),
                tenant_id="alice",
            )
            auth_server._wakeup.set()
            view = alice.wait(failing.id, deadline_seconds=60, raise_on_error=False)
            assert view["status"] == "error"
            counters = auth_server.metrics_view()["tenants"]["alice"]["counters"]
            assert counters["verifications_run"] == 2
            assert counters["jobs_completed"] == 1
            assert counters["jobs_failed"] == 1


class TestTestAuthBootstrap:
    def test_repro_test_auth_provisions_the_test_tenant(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_AUTH", "1")
        server = VerificationServer(store_path=tmp_path / "t.db", port=0, workers=0)
        server.start()
        try:
            assert server.auth_enabled
            status, _, _ = _raw(server.url + "/v1/jobs")
            assert status == 401
            status, _, _ = _raw(server.url + "/v1/jobs",
                                api_key=DEFAULT_TEST_API_KEY)
            assert status == 200
            # The default-constructed client picks the key up from the env.
            with VerifasClient(server.url) as client:
                assert client.api_key == DEFAULT_TEST_API_KEY
                assert "counts" in client.jobs()
        finally:
            server.stop()


class TestAuthDisabled:
    def test_anonymous_server_ignores_authorization_headers(
        self, tmp_path, tiny_system, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TEST_AUTH", raising=False)
        server = VerificationServer(store_path=tmp_path / "a.db", port=0, workers=0)
        server.start()
        try:
            assert not server.auth_enabled
            status, _, _ = _raw(server.url + "/v1/jobs")
            assert status == 200
            # A stray key is harmless, not a 401.
            status, _, _ = _raw(server.url + "/v1/jobs", api_key="vk_any.thing")
            assert status == 200
            status, _, body = _raw(server.url + "/v1/jobs", "POST",
                                   _payload(tiny_system, 70))
            assert status == 202
            assert "tenant_id" not in body["jobs"][0]
            view = server.metrics_view()
            assert "auth_enabled" not in view and "tenants" not in view
        finally:
            server.stop()
