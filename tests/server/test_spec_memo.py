"""The checked-system memo of ``POST /v1/jobs`` (repro.server.spec_memo).

A resubmitted system -- the same content, whatever its key order -- skips
the parse, rendering and lint; everything that depends on the POST itself
(its properties, their diagnostics, the 422 rejection and its counters)
still runs every time.  A system that cannot be rendered as canonical JSON
fails exactly as it would without the memo, the memo stays within
:data:`SPEC_MEMO_SIZE`, and concurrent submitters get correct job rows.
"""

from __future__ import annotations

import copy
import json
import sqlite3
import sys
import threading

import pytest

from repro.analysis import SpecRejectedError
from repro.client import ClientError, VerifasClient
from repro.has.conditions import Const, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.server.spec_memo import SPEC_MEMO_SIZE
from repro.service.jobs import VerificationJob
from repro.spec import canonical_json, dump_property, dump_system, load_system
from repro.spec.errors import SpecError

OPTIONS = {"timeout_seconds": 30}


@pytest.fixture
def server(tmp_path):
    """An API-only server: submit_payload writes rows nobody claims."""
    server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
    yield server
    server.store.close()


def _property(name="never-shipped", task="Main"):
    return dump_property(
        LTLFOProperty(
            task, parse_ltl("G ns"), {"ns": Neq(Var("status"), Const("shipped"))},
            name=name,
        )
    )


def _trivial(name):
    """A property whose constant formula draws warning VA402."""
    return dump_property(LTLFOProperty("Main", parse_ltl("true"), {}, name=name))


def _submit(server, system, prop, **extra):
    payload = {"system": system, "property": prop, "options": OPTIONS, **extra}
    return server.submit_payload(payload)["jobs"]


def _memo_counts(server):
    counters = server.metrics.counters()
    return counters["spec_memo_hits"], counters["spec_memo_misses"]


def _reversed_keys(data):
    """*data* with every mapping's keys in reverse order."""
    if isinstance(data, dict):
        return {key: _reversed_keys(data[key]) for key in reversed(list(data))}
    if isinstance(data, list):
        return [_reversed_keys(item) for item in data]
    return data


def _renamed(system_dict, name):
    renamed = copy.deepcopy(system_dict)
    renamed["name"] = name
    return renamed


class TestHits:
    def test_same_system_in_another_key_order_is_a_hit(self, server, tiny_system):
        system = dump_system(tiny_system)
        reordered = _reversed_keys(system)
        assert json.dumps(reordered) != json.dumps(system)

        [first] = _submit(server, system, _property("a"))
        [second] = _submit(server, reordered, _property("b"))
        assert _memo_counts(server) == (1, 1)
        assert len(server.spec_memo) == 1
        rows = [server.store.get_job(job["id"]) for job in (first, second)]
        assert rows[0].system_dict == rows[1].system_dict == system

    def test_job_row_stores_the_canonical_text(self, server, tiny_system):
        [job] = _submit(server, dump_system(tiny_system), _property())
        with sqlite3.connect(server.store.path) as conn:
            text = conn.execute(
                "SELECT system_json FROM jobs WHERE id = ?", (job["id"],)
            ).fetchone()[0]
        assert text == canonical_json(dump_system(tiny_system))

    def test_fingerprint_matches_a_job_built_from_objects(self, server, tiny_system):
        prop = LTLFOProperty(
            "Main", parse_ltl("G ns"), {"ns": Neq(Var("status"), Const("shipped"))},
            name="never-shipped",
        )
        from repro.core.options import VerifierOptions

        expected = VerificationJob.from_objects(
            tiny_system, prop, VerifierOptions.from_request(OPTIONS)
        ).fingerprint
        for _ in range(2):  # a miss, then a hit
            [job] = _submit(server, dump_system(tiny_system), dump_property(prop))
            assert job["fingerprint"] == expected
        assert _memo_counts(server) == (1, 1)


class TestPerPostChecks:
    def test_lint_errors_reject_every_post(self, server, tiny_system):
        system = dump_system(tiny_system)
        lost = _property("lost", task="Nope")  # VA102: unknown task
        for attempt in range(3):
            with pytest.raises(SpecRejectedError) as excinfo:
                _submit(server, system, lost)
            assert [d.code for d in excinfo.value.diagnostics] == ["VA102"]
        counters = server.metrics.counters()
        assert counters["specs_rejected"] == 3
        assert counters["specs_rejected_va102"] == 3
        assert _memo_counts(server) == (2, 1)
        assert server.store.counts()["queued"] == 0

        # The memoised system still accepts a good property afterwards.
        [job] = _submit(server, system, _property())
        assert job["status"] == "queued"

    def test_property_warnings_name_each_posts_own_property(self, server, tiny_system):
        system = dump_system(tiny_system)
        for name in ("trivial-a", "trivial-b"):
            [job] = _submit(server, system, _trivial(name))
            va402 = [w for w in job["warnings"] if w["code"] == "VA402"]
            assert [w["where"] for w in va402] == [f"property {name!r}"]
            stored = server.store.get_job(job["id"])
            assert stored.warnings == job["warnings"]
        assert _memo_counts(server) == (1, 1)

    def test_system_warnings_ride_along_on_hits(self, server, tiny_system):
        system = dump_system(tiny_system)
        system["tasks"][0]["variables"].append({"name": "spare", "type": "value"})
        warnings = [
            [w["code"] for w in _submit(server, system, _property(name))[0]["warnings"]]
            for name in ("a", "b")
        ]
        assert "VA501" in warnings[0]  # the unused variable
        assert warnings[0] == warnings[1]
        assert _memo_counts(server) == (1, 1)

    def test_parse_errors_are_never_memoised(self, server, tiny_system):
        broken = dump_system(tiny_system)
        del broken["schema"]
        for _ in range(2):
            with pytest.raises(SpecError):
                _submit(server, broken, _property())
        assert _memo_counts(server) == (0, 2)
        assert len(server.spec_memo) == 0

    def test_options_are_checked_on_hits(self, server, tiny_system):
        system = dump_system(tiny_system)
        _submit(server, system, _property())
        with pytest.raises(SpecError, match="timeout"):
            server.submit_payload(
                {"system": system, "property": _property(), "options": {"timeout": 1}}
            )
        assert _memo_counts(server) == (1, 1)


class TestIsolation:
    def test_mutating_a_payload_after_a_post_changes_nothing(self, server, tiny_system):
        original = dump_system(tiny_system)
        payload_system = copy.deepcopy(original)
        _submit(server, payload_system, _property("first"))

        # Deep in-place edits of the caller's dict after its POST ...
        payload_system["tasks"][0]["variables"].append({"name": "late", "type": "value"})
        payload_system["global_precondition"] = {"op": "false"}
        payload_system["hierarchy"]["Main"] = "Ghost"

        # ... neither reach a resubmit of the original content (a hit) ...
        [job] = _submit(server, copy.deepcopy(original), _property("second"))
        assert _memo_counts(server) == (1, 1)
        assert server.store.get_job(job["id"]).system_dict == original

        # ... nor hide the edits from a POST of the edited dict (a miss).
        payload_system["hierarchy"]["Main"] = None
        [edited] = _submit(server, payload_system, _property("third"))
        assert _memo_counts(server) == (1, 2)
        assert server.store.get_job(edited["id"]).system_dict == dump_system(
            load_system(payload_system)
        )
        assert server.store.get_job(edited["id"]).system_dict != original

    def test_unrenderable_system_fails_as_without_the_memo(self, tmp_path, tiny_system):
        """A NaN makes the system text non-canonical: the check runs
        unmemoised and the POST gets the 400 the fingerprint raises."""
        system = dump_system(tiny_system)
        system["global_precondition"] = {
            "op": "neq", "left": {"const": float("nan")}, "right": {"const": 1},
        }
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        try:
            with VerifasClient(server.url) as client:
                for _ in range(2):
                    with pytest.raises(ClientError) as excinfo:
                        client.submit(system, [_property()], options=OPTIONS)
                    assert excinfo.value.status == 400
                    assert excinfo.value.body == {
                        "error": "invalid job payload: "
                        "Out of range float values are not JSON compliant"
                    }
                memo = client.metrics()["spec_memo"]
        finally:
            server.stop()
        assert (memo["hits"], memo["misses"], memo["entries"]) == (0, 2, 0)

    def test_unrenderable_ignored_key_is_checked_unmemoised(self, server, tiny_system):
        system = dump_system(tiny_system)
        system["comment"] = float("nan")  # not part of the canonical system
        for name in ("a", "b"):
            [job] = _submit(server, system, _property(name))
            assert job["status"] == "queued"
        assert _memo_counts(server) == (0, 2)
        assert len(server.spec_memo) == 0


class TestBound:
    def test_memo_never_grows_past_its_bound(self, server, tiny_system):
        system = dump_system(tiny_system)
        for index in range(SPEC_MEMO_SIZE + 5):
            _submit(server, _renamed(system, f"tiny-{index}"), _property())
            assert len(server.spec_memo) == min(index + 1, SPEC_MEMO_SIZE)
        assert _memo_counts(server) == (0, SPEC_MEMO_SIZE + 5)

        # Least recently used goes first: a hit on the oldest entry keeps
        # it, and the next miss evicts the one after it instead.
        oldest, next_oldest = (_renamed(system, f"tiny-{i}") for i in (5, 6))
        _submit(server, oldest, _property())
        _submit(server, _renamed(system, "tiny-new"), _property())
        _submit(server, oldest, _property())
        _submit(server, next_oldest, _property())
        assert _memo_counts(server) == (2, SPEC_MEMO_SIZE + 7)
        assert len(server.spec_memo) == SPEC_MEMO_SIZE


class TestConcurrency:
    def test_eight_threads_get_correct_job_rows(self, server, tiny_system):
        systems = [_renamed(dump_system(tiny_system), f"tiny-{i}") for i in range(3)]
        submitted, errors = [], []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def submitter(thread_no):
            try:
                barrier.wait()
                for round_no in range(6):
                    system = systems[(thread_no + round_no) % len(systems)]
                    name = f"p-{thread_no}-{round_no}"
                    [job] = _submit(server, copy.deepcopy(system), _property(name))
                    with lock:
                        submitted.append((job, system, name))
            except Exception as error:  # pragma: no cover - surfaced below
                with lock:
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert errors == []
        assert len(submitted) == 48
        for job, system, name in submitted:
            row = server.store.get_job(job["id"])
            expected = VerificationJob(system, _property(name), row.options_dict)
            assert row.system_dict == system
            assert row.system_name == system["name"]
            assert row.property_name == name
            assert row.fingerprint == job["fingerprint"] == expected.fingerprint
        hits, misses = _memo_counts(server)
        assert hits + misses == 48
        assert len(server.spec_memo) == 3


class TestMetrics:
    def test_hits_and_misses_in_json_and_prometheus(self, tmp_path, tiny_system):
        server = VerificationServer(store_path=tmp_path / "jobs.db", port=0, workers=0)
        server.start()
        try:
            with VerifasClient(server.url) as client:
                for name in ("a", "b", "c"):
                    client.submit(dump_system(tiny_system), [_property(name)],
                                  options=OPTIONS)
                view = client.metrics()
                text = client.metrics_prometheus()
        finally:
            server.stop()
        assert view["spec_memo"] == {"hits": 2, "misses": 1, "entries": 1}
        assert "repro_spec_memo_hits_total 2" in text.splitlines()
        assert "repro_spec_memo_misses_total 1" in text.splitlines()
