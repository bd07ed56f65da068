"""Weighted fair-share claiming (stride scheduling over ``claim_shares``).

Store-level tests pin the exact deterministic claim order; the e2e class
runs a claim storm through a live single-worker server (on the session's
worker model) and asserts the 1/2/4-weighted backlogs interleave
proportionally instead of draining FIFO.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import pytest

from repro.client import VerifasClient
from repro.core.options import VerifierOptions
from repro.core.stats import SearchStatistics
from repro.core.verifier import VerificationOutcome, VerificationResult
from repro.server import JobStore, PendingQuotaExceeded, VerificationServer
from repro.service import VerificationJob
from repro.spec import dump_property, dump_system
from repro.tenancy import TenantRegistry


def _distinct_jobs(system, count, start=0):
    """*count* jobs with globally distinct fingerprints (state budgets)."""
    from repro.has.conditions import Const, Eq, Var
    from repro.ltl import LTLFOProperty, parse_ltl

    prop = LTLFOProperty("Main", parse_ltl("F p"),
                         {"p": Eq(Var("status"), Const("picked"))}, name="f-picked")
    return [
        VerificationJob(
            system_dict=dump_system(system),
            property_dict=dump_property(prop),
            options_dict=VerifierOptions(max_states=1000 + start + i).as_dict(),
        )
        for i in range(count)
    ]


def _done(name="f-picked"):
    return VerificationResult(
        outcome=VerificationOutcome.SATISFIED, property_name=name, task="Main",
        stats=SearchStatistics(states_explored=1),
    ).as_dict()


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "jobs.db")
    yield store
    store.close()


@pytest.fixture
def registry(store):
    return TenantRegistry(store)


def _claim_order(store):
    """Tenant ids in the order claim_next hands out the whole backlog."""
    order = []
    while True:
        claimed = store.claim_next()
        if claimed is None:
            return order
        order.append(claimed.tenant_id)


class TestStrideClaiming:
    def test_weighted_shares_in_exact_stride_windows(self, store, registry, tiny_system):
        """Weights 1/2/4 with equal backlogs: every claim window matches the
        deterministic stride schedule, not submission (FIFO) order."""
        weights = {"a": 1.0, "b": 2.0, "c": 4.0}
        for name, weight in weights.items():
            registry.create(name, weight=weight, tenant_id=name)
        start = 0
        for name in ("a", "b", "c"):
            for job in _distinct_jobs(tiny_system, 28, start=start):
                store.submit(job, tenant_id=name)
                start += 1
        order = _claim_order(store)
        assert len(order) == 84
        first = order[:14]
        assert {t: first.count(t) for t in weights} == {"a": 2, "b": 4, "c": 8}
        # Once c's 28 jobs run dry (around claim 49) a and b keep splitting
        # 1:2 -- by claim 70, b is also done and only a remains.
        head = order[:70]
        assert {t: head.count(t) for t in weights} == {"a": 14, "b": 28, "c": 28}
        assert set(order[70:]) == {"a"}

    def test_low_weight_tenant_is_not_starved(self, store, registry, tiny_system):
        """A 100x weight gap slows the light tenant down; it never silences it."""
        registry.create("heavy", weight=100.0, tenant_id="heavy")
        registry.create("light", weight=1.0, tenant_id="light")
        for job in _distinct_jobs(tiny_system, 10):
            store.submit(job, tenant_id="heavy")
        for job in _distinct_jobs(tiny_system, 10, start=10):
            store.submit(job, tenant_id="light")
        order = _claim_order(store)
        assert "light" in order[:3]  # first light claim lands almost immediately
        assert order.count("light") == 10 and order.count("heavy") == 10

    def test_priority_orders_within_a_tenant(self, store, registry, tiny_system):
        registry.create("a", tenant_id="a")
        jobs = _distinct_jobs(tiny_system, 3)
        low = store.submit(jobs[0], tenant_id="a", priority=-1)
        base = store.submit(jobs[1], tenant_id="a")
        high = store.submit(jobs[2], tenant_id="a", priority=5)
        claimed = [store.claim_next().id for _ in range(3)]
        assert claimed == [high.id, base.id, low.id]

    def test_idle_rejoin_lift_prevents_monopoly(self, store, registry, tiny_system):
        """A tenant that sat idle while others burned vtime re-enters at the
        backlog's floor: it does not get its whole backlog claimed first."""
        registry.create("busy", tenant_id="busy")
        registry.create("idler", tenant_id="idler")
        for job in _distinct_jobs(tiny_system, 10):
            store.submit(job, tenant_id="busy")
        for _ in range(5):  # busy's vtime climbs to 5.0
            assert store.claim_next().tenant_id == "busy"
        for job in _distinct_jobs(tiny_system, 3, start=10):
            store.submit(job, tenant_id="idler")
        # Equal weights from a level start: strict alternation, not a run of
        # three idler claims (which vtime 0 would have produced).
        order = [store.claim_next().tenant_id for _ in range(6)]
        assert order == ["busy", "idler", "busy", "idler", "busy", "idler"]

    def test_anonymous_jobs_share_one_lane(self, store, registry, tiny_system):
        """Anonymous (tenant-less) submissions compete as one weight-1 tenant."""
        registry.create("t", weight=1.0, tenant_id="t")
        for job in _distinct_jobs(tiny_system, 4):
            store.submit(job)  # no tenant_id
        for job in _distinct_jobs(tiny_system, 4, start=4):
            store.submit(job, tenant_id="t")
        order = _claim_order(store)
        assert {order.count(None), order.count("t")} == {4}
        # Equal weights => alternation after the first two tie-broken claims.
        assert order[:4] == [None, "t", None, "t"]


class TestPendingQuota:
    def test_quota_is_enforced_in_the_submit_transaction(self, store, tiny_system):
        jobs = _distinct_jobs(tiny_system, 4)
        store.submit(jobs[0], tenant_id="t", pending_limit=2)
        store.submit(jobs[1], tenant_id="t", pending_limit=2)
        with pytest.raises(PendingQuotaExceeded) as excinfo:
            store.submit(jobs[2], tenant_id="t", pending_limit=2)
        assert excinfo.value.pending == 2 and excinfo.value.limit == 2
        # running jobs still count against the quota ...
        assert store.claim_next() is not None
        with pytest.raises(PendingQuotaExceeded):
            store.submit(jobs[2], tenant_id="t", pending_limit=2)
        # ... finished ones do not.
        running = store.list_jobs(status="running", tenant_id="t")[0]
        store.mark_done(running.id, _done())
        store.submit(jobs[2], tenant_id="t", pending_limit=2)
        assert store.pending_count("t") == 2

    def test_quota_is_per_tenant(self, store, tiny_system):
        jobs = _distinct_jobs(tiny_system, 3)
        store.submit(jobs[0], tenant_id="a", pending_limit=1)
        with pytest.raises(PendingQuotaExceeded):
            store.submit(jobs[1], tenant_id="a", pending_limit=1)
        store.submit(jobs[2], tenant_id="b", pending_limit=1)  # b unaffected


class TestTenantScopedReads:
    def test_list_counts_and_tenant_job_counts(self, store, tiny_system):
        jobs = _distinct_jobs(tiny_system, 5)
        for job in jobs[:2]:
            store.submit(job, tenant_id="a")
        for job in jobs[2:4]:
            store.submit(job, tenant_id="b")
        store.submit(jobs[4])  # anonymous
        assert {j.tenant_id for j in store.list_jobs()} == {"a", "b", None}
        assert [j.tenant_id for j in store.list_jobs(tenant_id="a")] == ["a", "a"]
        assert store.counts(tenant_id="a")["queued"] == 2
        assert store.counts()["queued"] == 5
        per_tenant = store.tenant_job_counts()
        assert per_tenant["a"]["queued"] == 2
        assert per_tenant[""]["queued"] == 1  # '' = anonymous


# --------------------------------------------------------------------- e2e


class TestFairShareE2E:
    """A claim storm through a live server: one worker, three tenants."""

    @pytest.fixture
    def server(self, tmp_path, worker_model):
        server = VerificationServer(
            store_path=tmp_path / "jobs.db", port=0, workers=1,
            sweep_interval=0.2, worker_model=worker_model, auth_enabled=True,
        )
        server.start()
        yield server
        server.stop()

    def test_claim_storm_interleaves_by_weight(
        self, server, tiny_system, exploding_system
    ):
        keys = {}
        for name, weight in (("a", 1.0), ("b", 2.0), ("c", 4.0)):
            _, keys[name] = server.tenants.create(name, weight=weight, tenant_id=name)
        _, blocker_key = server.tenants.create("blocker", tenant_id="blocker")

        from repro.has.conditions import Const, Eq, Var
        from repro.ltl import LTLFOProperty, parse_ltl

        blocking = VerifasClient(server.url, api_key=blocker_key,
                                 poll_initial=0.02, poll_max=0.2)
        prop = LTLFOProperty(
            "Main", parse_ltl("G p"),
            {"p": Eq(Var("v0"), Const("c0"))}, name="blocker",
        )
        # Occupy the single worker so the whole backlog queues up before any
        # fair-share claim happens -- the claim order is then deterministic.
        blocker = blocking.submit(
            dump_system(exploding_system), [dump_property(prop)],
            options={"timeout_seconds": 120},
        )[0]
        deadline = time.monotonic() + 30
        while blocking.job(blocker.id)["status"] != "running":
            assert time.monotonic() < deadline, "blocker never started"
            time.sleep(0.05)

        submitted = {}
        start = 0
        for name in ("a", "b", "c"):
            client = VerifasClient(server.url, api_key=keys[name],
                                   poll_initial=0.02, poll_max=0.2)
            handles = []
            for job in _distinct_jobs(tiny_system, 7, start=start):
                handles.extend(client.submit_payload({
                    "schema_version": 1,
                    "system": job.system_dict,
                    "properties": [job.property_dict],
                    "options": asdict(job.options()),
                }))
                start += 1
            submitted[name] = [h.id for h in handles]
        blocking.cancel(blocker.id)

        all_ids = [job_id for ids in submitted.values() for job_id in ids]
        views = {}
        for name in ("a", "b", "c"):
            client = VerifasClient(server.url, api_key=keys[name],
                                   poll_initial=0.02, poll_max=0.2)
            views.update(client.wait_all(submitted[name], deadline_seconds=120))
        assert len(views) == len(all_ids) == 21
        assert all(v["status"] == "done" for v in views.values())

        # Reconstruct the claim order from the store's started_at stamps:
        # one worker claims strictly sequentially.
        jobs = server.store.get_jobs(all_ids)
        order = [
            j.tenant_id for j in sorted(jobs, key=lambda j: j.started_at)
        ]
        first = order[:7]
        counts = {t: first.count(t) for t in ("a", "b", "c")}
        # The exact stride window: weights 1/2/4 over the first 7 claims.
        assert counts == {"a": 1, "b": 2, "c": 4}
        # Starvation regression: the weight-1 tenant is served in-window.
        assert "a" in first

    def test_fifo_regression_anonymous_single_tenant(
        self, tmp_path, worker_model, tiny_system
    ):
        """With no tenants in play, claims still drain in submit order."""
        server = VerificationServer(
            store_path=tmp_path / "anon.db", port=0, workers=0,
            worker_model=worker_model,
        )
        server.start()
        try:
            client = VerifasClient(server.url, poll_initial=0.02, poll_max=0.2)
            ids = []
            for job in _distinct_jobs(tiny_system, 3):
                handle = client.submit_payload({
                    "schema_version": 1,
                    "system": job.system_dict,
                    "properties": [job.property_dict],
                    "options": asdict(job.options()),
                })[0]
                ids.append(handle.id)
            claimed = [server.store.claim_next().id for _ in range(3)]
            assert claimed == ids
        finally:
            server.stop()
