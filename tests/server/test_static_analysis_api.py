"""End-to-end tests of the submit-path static analysis gate.

A spec with error-severity diagnostics must be rejected with HTTP 422 and a
machine-readable diagnostics body *before* any job row is written or worker
claimed; warning-severity diagnostics must ride along on the 202 response,
the persisted job row, and the job view.  The ``specs_rejected`` counters
(total and per-code) account for every rejection.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.client import SpecRejectedError, VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.spec import dump_property, dump_system

pytest.importorskip("repro.server")
from repro.server import VerificationServer  # noqa: E402

OPTIONS = {"timeout_seconds": 60}


@pytest.fixture
def server(tmp_path, worker_model):
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=2,
        sweep_interval=0.1, worker_model=worker_model,
    )
    server.start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    with VerifasClient(server.url, poll_initial=0.02, poll_max=0.2) as client:
        yield client


def _good_property():
    return LTLFOProperty(
        "Main", parse_ltl("G ns"),
        {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped",
    )


def _bad_properties():
    """One unknown-task property (VA102), one unknown-relation (VA103)."""
    from repro.has.conditions import RelationAtom

    return [
        LTLFOProperty("Nope", parse_ltl("G p"), {"p": Eq(Var("x"), Const("a"))},
                      name="lost"),
        LTLFOProperty("Main", parse_ltl("G p"),
                      {"p": RelationAtom("GHOSTS", (Var("status"),))},
                      name="haunted"),
    ]


def _trivial_property():
    return LTLFOProperty("Main", parse_ltl("true"), {}, name="trivial")


class TestSubmitRejection:
    def test_422_with_diagnostics_and_no_job_rows(self, server, client, tiny_system):
        with pytest.raises(SpecRejectedError) as excinfo:
            client.submit(
                dump_system(tiny_system),
                [dump_property(p) for p in _bad_properties()],
                options=OPTIONS,
            )
        error = excinfo.value
        assert error.status == 422
        codes = sorted(d["code"] for d in error.diagnostics)
        assert codes == ["VA102", "VA103"]
        assert all(d["severity"] == "error" for d in error.diagnostics)
        assert "static analysis" in str(error)

        # Nothing was persisted and no worker ever claimed anything.
        with sqlite3.connect(server.store.path) as connection:
            count = connection.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
        assert count == 0

    def test_rejection_counters(self, server, client, tiny_system):
        before = client.metrics()["counters"]
        assert before.get("specs_rejected") == 0
        with pytest.raises(SpecRejectedError):
            client.submit(
                dump_system(tiny_system),
                [dump_property(p) for p in _bad_properties()],
                options=OPTIONS,
            )
        counters = client.metrics()["counters"]
        assert counters["specs_rejected"] == 1
        assert counters["specs_rejected_va102"] == 1
        assert counters["specs_rejected_va103"] == 1

    def test_mixed_batch_rejected_atomically(self, server, client, tiny_system):
        """One bad property poisons the whole submit: no partial batches."""
        with pytest.raises(SpecRejectedError):
            client.submit(
                dump_system(tiny_system),
                [dump_property(_good_property())] + [dump_property(p) for p in _bad_properties()],
                options=OPTIONS,
            )
        with sqlite3.connect(server.store.path) as connection:
            count = connection.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
        assert count == 0


class TestWarningsPersistence:
    def test_warnings_ride_the_202_and_the_job_view(self, client, tiny_system):
        handles = client.submit(
            dump_system(tiny_system),
            [dump_property(_trivial_property()), dump_property(_good_property())],
            options=OPTIONS,
        )
        views = client.wait_all([h.id for h in handles], deadline_seconds=60)

        trivial_view = views[handles[0].id]
        warning_codes = [d["code"] for d in trivial_view.get("warnings", [])]
        assert "VA402" in warning_codes
        for diagnostic in trivial_view["warnings"]:
            assert diagnostic["severity"] == "warning"

        # The clean property carries no trivial-property warning of its own.
        good_view = views[handles[1].id]
        assert "VA402" not in [d["code"] for d in good_view.get("warnings", [])]

        # Warnings never block: both jobs verified to completion.
        assert trivial_view["result"]["outcome"] == "satisfied"
        assert good_view["result"]["outcome"] == "violated"

    def test_clean_spec_has_no_warnings_key(self, client):
        from repro.has.builder import ArtifactSystemBuilder
        from repro.has.conditions import NULL
        from repro.has.schema import DatabaseSchema

        schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
        builder = ArtifactSystemBuilder("clean", schema)
        task = builder.task("Main")
        task.id_variable("item", "ITEMS")
        task.variable("status")
        task.variable("other")
        task.internal_service(
            "copy", pre=Eq(Var("status"), NULL),
            post=Eq(Var("status"), Var("other")),
        )
        system = builder.build()
        ltl_property = LTLFOProperty(
            "Main", parse_ltl("G p"),
            {"p": Neq(Var("status"), Const("zzz"))}, name="clean",
        )
        [handle] = client.submit(
            dump_system(system), [dump_property(ltl_property)], options=OPTIONS
        )
        view = client.wait(handle.id, deadline_seconds=60)
        assert "warnings" not in view
