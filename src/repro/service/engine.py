"""The batch verification engine: fan (system × property) jobs across cores.

The engine deduplicates a batch by content fingerprint, serves duplicates and
previously verified jobs from the :class:`~repro.service.cache.ResultCache`,
and fans the remaining unique jobs out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Work crosses process
boundaries purely as canonical spec dicts (see
:class:`~repro.service.jobs.VerificationJob`), so workers rebuild the model
with :func:`repro.spec.codec.load_system` and return serialized results.

Environments without working process pools (restricted sandboxes, platforms
without ``fork``/``spawn``) degrade gracefully to in-process execution.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.options import VerifierOptions
from repro.core.verifier import VerificationResult, Verifier
from repro.has.artifact_system import ArtifactSystem
from repro.ltl.ltlfo import LTLFOProperty
from repro.service.cache import ResultCache
from repro.service.jobs import JobResult, VerificationJob


def _verify_job_dicts(
    system_dict: Dict[str, Any],
    property_dict: Dict[str, Any],
    options_dict: Dict[str, Any],
) -> Dict[str, Any]:
    """Worker entry point: rebuild the model from spec dicts, verify, serialize.

    Runs in worker processes, so it must stay a module-level function (picklable
    by reference) and must exchange only JSON-compatible dicts.
    """
    job = VerificationJob(system_dict, property_dict, options_dict)
    result = Verifier(job.system(), job.options()).verify(job.ltl_property())
    return result.as_dict()


@dataclass
class JobCallbacks:
    """Incremental job-status hooks fired while a batch runs.

    ``on_started`` fires only for jobs that actually enter the verifier (cache
    hits and in-batch duplicates skip it, and it may repeat if a process pool
    dies and the batch restarts in-process); ``on_finished`` fires exactly
    once per job, with its result and cache provenance.  Long-running callers
    (the HTTP server, progress bars) use these to surface per-job state
    without waiting for the whole batch.
    """

    on_started: Optional[Callable[["VerificationJob"], None]] = None
    on_finished: Optional[Callable[["VerificationJob", VerificationResult, bool], None]] = None

    def started(self, job: "VerificationJob") -> None:
        if self.on_started is not None:
            self.on_started(job)

    def finished(self, job: "VerificationJob", result: VerificationResult, cache_hit: bool) -> None:
        if self.on_finished is not None:
            self.on_finished(job, result, cache_hit)


class VerificationService:
    """Verifies batches of (system × property) jobs with caching and a worker pool.

    ::

        service = VerificationService()
        jobs = [VerificationJob.from_objects(system, p) for p in properties]
        for job_result in service.run_batch(jobs, workers=4):
            print(job_result.summary())
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        default_options: Optional[VerifierOptions] = None,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.default_options = default_options or VerifierOptions()

    # ------------------------------------------------------------------ one-shot

    def verify(
        self,
        system: ArtifactSystem,
        ltl_property: LTLFOProperty,
        options: Optional[VerifierOptions] = None,
    ) -> VerificationResult:
        """Verify one property through the cache (sequential, in-process)."""
        job = VerificationJob.from_objects(
            system, ltl_property, options or self.default_options
        )
        return self.run_batch([job])[0].result

    # ------------------------------------------------------------------ batches

    def run_batch(
        self,
        jobs: Sequence[VerificationJob],
        workers: int = 1,
        callbacks: Optional[JobCallbacks] = None,
    ) -> List[JobResult]:
        """Run a batch of jobs, returning one :class:`JobResult` per job, in order.

        Jobs whose fingerprint is already cached -- from an earlier batch or
        from an earlier occurrence *within this batch* -- are reported as
        cache hits and skip the Karp–Miller search entirely.  The remaining
        unique jobs run on ``workers`` processes (in-process when
        ``workers <= 1`` or when no process pool can be created).

        ``callbacks`` (see :class:`JobCallbacks`) receives incremental
        per-job status while the batch runs; in-batch duplicates report last.
        """
        callbacks = callbacks or JobCallbacks()
        jobs = list(jobs)
        results: Dict[int, JobResult] = {}

        # Partition: cached jobs, first occurrences to run, duplicate occurrences.
        to_run: List[VerificationJob] = []
        first_occurrence: Dict[str, int] = {}
        duplicates: List[int] = []
        for index, job in enumerate(jobs):
            fingerprint = job.fingerprint
            if fingerprint in first_occurrence:
                duplicates.append(index)
                continue
            cached = self.cache.get(fingerprint)
            if cached is not None:
                results[index] = JobResult(job, cached, cache_hit=True)
                callbacks.finished(job, cached, True)
                continue
            first_occurrence[fingerprint] = index
            to_run.append(job)

        # Verify the unique, uncached jobs.
        for job, result in zip(to_run, self._execute(to_run, workers, callbacks)):
            self.cache.put(job.fingerprint, result)
            results[first_occurrence[job.fingerprint]] = JobResult(
                job, result, cache_hit=False
            )
            callbacks.finished(job, result, False)

        # Duplicates within the batch resolve against the first occurrence's
        # result (not the cache, whose entry may already have been evicted).
        for index in duplicates:
            job = jobs[index]
            first = results[first_occurrence[job.fingerprint]]
            results[index] = JobResult(job, first.result, cache_hit=True)
            callbacks.finished(job, first.result, True)

        return [results[index] for index in range(len(jobs))]

    # ------------------------------------------------------------------ execution

    def _execute(
        self,
        jobs: Sequence[VerificationJob],
        workers: int,
        callbacks: Optional[JobCallbacks] = None,
    ) -> Iterable[VerificationResult]:
        callbacks = callbacks or JobCallbacks()
        if not jobs:
            return []
        if workers > 1 and len(jobs) > 1:
            try:
                return self._execute_pool(jobs, workers, callbacks)
            except (OSError, ImportError, BrokenProcessPool):
                # No usable process pool in this environment (or the pool died
                # mid-run); fall through and run the whole batch in-process.
                pass
        # A generator, so the caller observes (and reports) each in-process
        # result as it lands rather than after the whole batch.
        return self._execute_inprocess(jobs, callbacks)

    def _execute_inprocess(
        self, jobs: Sequence[VerificationJob], callbacks: JobCallbacks
    ) -> Iterator[VerificationResult]:
        for job in jobs:
            callbacks.started(job)
            yield self._execute_one(job)

    @staticmethod
    def _execute_one(job: VerificationJob) -> VerificationResult:
        return VerificationResult.from_dict(
            _verify_job_dicts(job.system_dict, job.property_dict, job.options_dict)
        )

    @staticmethod
    def _execute_pool(
        jobs: Sequence[VerificationJob], workers: int, callbacks: JobCallbacks
    ) -> List[VerificationResult]:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = []
            for job in jobs:
                callbacks.started(job)
                futures.append(
                    pool.submit(
                        _verify_job_dicts, job.system_dict, job.property_dict, job.options_dict
                    )
                )
            return [VerificationResult.from_dict(future.result()) for future in futures]


@dataclass
class BatchReport:
    """Aggregate view of one batch run (rendered by the CLI)."""

    job_results: List[JobResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.job_results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.job_results if r.cache_hit)

    @property
    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job_result in self.job_results:
            key = job_result.result.outcome.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "cache_hits": self.cache_hits,
            "outcomes": self.outcomes,
            "results": [
                {
                    "system": r.job.system_name,
                    "property": r.job.property_name,
                    "fingerprint": r.job.fingerprint,
                    "cache_hit": r.cache_hit,
                    **r.result.as_dict(),
                }
                for r in self.job_results
            ],
        }
