"""Tests of the batch verification service (repro.service).

Covers the acceptance criteria of the subsystem: a batch of >= 8
(system × property) jobs on a 4-worker pool returns the same verdicts as
sequential ``Verifier.verify``, with cache hits reported for duplicate jobs.
"""

from __future__ import annotations

import pytest

from repro import Verifier, VerifierOptions
from repro.core.verifier import VerificationOutcome, VerificationResult
from repro.has.conditions import Const, Eq, Neq, NULL, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.service import (
    BatchReport,
    JobCallbacks,
    JobResult,
    ResultCache,
    VerificationJob,
    VerificationService,
    jobs_from_bundle,
)
from repro.spec import SpecBundle


OPTIONS = VerifierOptions(timeout_seconds=30)


def _properties(task: str):
    """Four quick properties over the pick/ship/reset loop of *task*."""
    picked = Eq(Var("status"), Const("picked"))
    shipped = Eq(Var("status"), Const("shipped"))
    return [
        LTLFOProperty(task, parse_ltl("G ns"), {"ns": Neq(Var("status"), Const("shipped"))},
                      name="never-shipped"),
        LTLFOProperty(task, parse_ltl("G (p -> F s)"), {"p": picked, "s": shipped},
                      name="picked-then-shipped"),
        LTLFOProperty(task, parse_ltl("F p"), {"p": picked}, name="eventually-picked"),
        LTLFOProperty(task, parse_ltl("G (s -> X n)"), {"s": shipped, "n": Eq(Var("status"), NULL)},
                      name="reset-after-ship"),
    ]


class TestJobs:
    def test_fingerprint_is_content_addressed(self, tiny_system):
        prop = _properties("Main")[0]
        job_a = VerificationJob.from_objects(tiny_system, prop, OPTIONS)
        job_b = VerificationJob.from_objects(tiny_system, prop, OPTIONS)
        assert job_a.fingerprint == job_b.fingerprint

    def test_fingerprint_differs_per_property_and_options(self, tiny_system):
        props = _properties("Main")
        job_a = VerificationJob.from_objects(tiny_system, props[0], OPTIONS)
        job_b = VerificationJob.from_objects(tiny_system, props[1], OPTIONS)
        job_c = VerificationJob.from_objects(
            tiny_system, props[0], OPTIONS.with_(max_states=99)
        )
        assert len({job_a.fingerprint, job_b.fingerprint, job_c.fingerprint}) == 3

    def test_jobs_from_bundle(self, tiny_system):
        bundle = SpecBundle(tiny_system, _properties("Main"))
        jobs = jobs_from_bundle(bundle, options=OPTIONS)
        assert len(jobs) == 4
        selected = jobs_from_bundle(bundle, OPTIONS, property_names=["never-shipped"])
        assert [j.property_name for j in selected] == ["never-shipped"]

    def test_default_job_fingerprint_is_pinned(self, tiny_system):
        """Stored results are keyed by this fingerprint: the canonical
        system, property and options dicts of a default job must hash
        exactly as they did before the options became budgets only."""
        prop = LTLFOProperty(
            "Main", parse_ltl("G F p"), {"p": Eq(Var("status"), Const("shipped"))},
            name="always-eventually-shipped",
        )
        job = VerificationJob.from_objects(tiny_system, prop, VerifierOptions())
        assert job.fingerprint == (
            "4531971063f07c553262f9f4feac26ecb388706ca0a2a37ff6132561a1aa9e2e"
        )

    def test_job_materialisation(self, tiny_system):
        prop = _properties("Main")[0]
        job = VerificationJob.from_objects(tiny_system, prop, OPTIONS)
        assert job.system() == tiny_system
        assert job.ltl_property() == prop
        assert job.options() == OPTIONS


class TestResultCache:
    def _result(self, name="p") -> VerificationResult:
        from repro.core.stats import SearchStatistics

        return VerificationResult(
            outcome=VerificationOutcome.SATISFIED,
            property_name=name,
            task="Main",
            stats=SearchStatistics(states_explored=7),
        )

    def test_hit_and_miss_counters(self):
        cache = ResultCache()
        assert cache.get("k1") is None
        cache.put("k1", self._result())
        cached = cache.get("k1")
        assert cached is not None and cached.property_name == "p"
        assert cache.statistics() == {"entries": 1, "hits": 1, "misses": 1}

    def test_get_returns_fresh_copies(self):
        cache = ResultCache()
        cache.put("k", self._result())
        first, second = cache.get("k"), cache.get("k")
        assert first is not second
        first.stats.states_explored = -1
        assert cache.get("k").stats.states_explored == 7

    def test_lru_eviction_order_without_gets_is_insertion_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        cache.put("c", self._result("c"))
        assert len(cache) == 2
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        assert cache.get("a") is not None  # "a" becomes most recent
        cache.put("c", self._result("c"))  # evicts "b", the LRU entry
        assert "a" in cache and "b" not in cache and "c" in cache

    def test_put_of_existing_key_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        cache.put("a", self._result("a2"))  # re-put refreshes "a"
        cache.put("c", self._result("c"))
        assert "a" in cache and "b" not in cache and "c" in cache
        assert cache.get("a").property_name == "a2"

    def test_peek_does_not_refresh_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        assert cache.peek("a")
        cache.put("c", self._result("c"))  # "a" is still the LRU entry
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_eviction_pressure_keeps_most_recently_used(self):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, self._result(key))
        cache.get("a")
        cache.get("c")
        cache.put("d", self._result("d"))  # evicts "b"
        cache.put("e", self._result("e"))  # evicts "a"
        assert sorted(k for k in ("a", "b", "c", "d", "e") if k in cache) == ["c", "d", "e"]

    def test_peek_and_clear(self):
        cache = ResultCache()
        cache.put("k", self._result())
        assert cache.peek("k") and not cache.peek("other")
        cache.clear()
        assert len(cache) == 0 and cache.statistics()["hits"] == 0


class TestVerificationService:
    def test_single_verify_goes_through_cache(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        prop = _properties("Main")[0]
        first = service.verify(tiny_system, prop)
        second = service.verify(tiny_system, prop)
        assert first.outcome == second.outcome == VerificationOutcome.VIOLATED
        assert service.cache.statistics()["hits"] == 1

    def test_submit_and_run_pending(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        for prop in _properties("Main")[:2]:
            service.submit(tiny_system, prop)
        assert len(service.pending) == 2
        results = service.run_pending()
        assert len(results) == 2 and not service.pending

    def test_duplicate_jobs_in_one_batch_hit_the_cache(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        prop = _properties("Main")[0]
        jobs = [VerificationJob.from_objects(tiny_system, prop, OPTIONS) for _ in range(3)]
        results = service.run_batch(jobs)
        assert [r.cache_hit for r in results] == [False, True, True]
        assert service.cache.statistics()["entries"] == 1

    def test_batch_parallel_matches_sequential_with_cache_hits(
        self, tiny_system, relation_system
    ):
        """Acceptance: >= 8 jobs, workers=4, verdicts match Verifier.verify,
        duplicates reported as cache hits."""
        pairs = [
            (system, prop)
            for system in (tiny_system, relation_system)
            for prop in _properties("Main")
        ]
        jobs = [VerificationJob.from_objects(s, p, OPTIONS) for s, p in pairs]
        # Duplicate two jobs to exercise in-batch cache hits.
        batch = jobs + [jobs[0], jobs[5]]
        assert len(batch) >= 8

        service = VerificationService()
        job_results = service.run_batch(batch, workers=4)

        sequential = [Verifier(s, OPTIONS).verify(p).outcome for s, p in pairs]
        assert [r.result.outcome for r in job_results[: len(pairs)]] == sequential
        assert [r.cache_hit for r in job_results[: len(pairs)]] == [False] * len(pairs)
        assert [r.cache_hit for r in job_results[len(pairs):]] == [True, True]
        assert job_results[len(pairs)].result.outcome == sequential[0]
        assert job_results[len(pairs) + 1].result.outcome == sequential[5]

    def test_second_batch_is_served_entirely_from_cache(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        jobs = [
            VerificationJob.from_objects(tiny_system, prop, OPTIONS)
            for prop in _properties("Main")
        ]
        first = service.run_batch(jobs)
        second = service.run_batch(jobs)
        assert all(not r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        assert [r.result.outcome for r in first] == [r.result.outcome for r in second]

    def test_batch_report_aggregation(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        prop = _properties("Main")[0]
        jobs = [VerificationJob.from_objects(tiny_system, prop, OPTIONS)] * 2
        report = BatchReport(service.run_batch(jobs))
        assert report.total == 2 and report.cache_hits == 1
        assert report.outcomes == {"violated": 2}
        data = report.as_dict()
        assert data["total"] == 2 and len(data["results"]) == 2


class TestJobCallbacks:
    def test_callbacks_fire_per_job_with_cache_provenance(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        props = _properties("Main")[:2]
        jobs = [VerificationJob.from_objects(tiny_system, p, OPTIONS) for p in props]
        events = []
        callbacks = JobCallbacks(
            on_started=lambda job: events.append(("started", job.property_name)),
            on_finished=lambda job, result, hit: events.append(
                ("finished", job.property_name, result.outcome.value, hit)
            ),
        )
        service.run_batch(jobs + [jobs[0]], callbacks=callbacks)
        assert events == [
            ("started", "never-shipped"),
            ("finished", "never-shipped", "violated", False),
            ("started", "picked-then-shipped"),
            ("finished", "picked-then-shipped", "satisfied", False),
            ("finished", "never-shipped", "violated", True),  # in-batch duplicate
        ]

    def test_cache_hits_skip_on_started(self, tiny_system):
        service = VerificationService(default_options=OPTIONS)
        job = VerificationJob.from_objects(tiny_system, _properties("Main")[0], OPTIONS)
        service.run_batch([job])
        started, finished = [], []
        callbacks = JobCallbacks(
            on_started=lambda j: started.append(j.fingerprint),
            on_finished=lambda j, r, hit: finished.append(hit),
        )
        service.run_batch([job], callbacks=callbacks)
        assert started == [] and finished == [True]


class TestSerializableResults:
    def test_result_dict_roundtrip(self, tiny_system):
        prop = _properties("Main")[0]
        result = Verifier(tiny_system, OPTIONS).verify(prop)
        assert result.counterexample is not None
        rebuilt = VerificationResult.from_dict(result.as_dict())
        assert rebuilt.outcome == result.outcome
        assert rebuilt.stats.as_dict() == result.stats.as_dict()
        assert rebuilt.counterexample.services() == result.counterexample.services()

    def test_result_is_picklable(self, tiny_system):
        import pickle

        prop = _properties("Main")[0]
        result = Verifier(tiny_system, OPTIONS).verify(prop)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.outcome == result.outcome

    def test_options_dict_roundtrip(self):
        options = VerifierOptions(max_repeated_states=7, timeout_seconds=1.5)
        rebuilt = VerifierOptions.from_dict(options.as_dict())
        assert rebuilt == options
        assert VerifierOptions.from_dict({"unknown": 1}) == VerifierOptions()
