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
from typing import Any, Dict, List, Optional, Sequence

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


class VerificationService:
    """Verifies batches of (system × property) jobs with caching and a worker pool.

    The engine behind ``repro verify`` and ``repro batch``; the server runs
    its own worker agents (:mod:`repro.server.workers`) instead.

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
    ) -> List[JobResult]:
        """Run a batch of jobs, returning one :class:`JobResult` per job, in order.

        Jobs whose fingerprint is already cached -- from an earlier batch or
        from an earlier occurrence *within this batch* -- are reported as
        cache hits and skip the Karp–Miller search entirely.  The remaining
        unique jobs run on ``workers`` processes (in-process when
        ``workers <= 1`` or when no process pool can be created).
        """
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
                continue
            first_occurrence[fingerprint] = index
            to_run.append(job)

        # Verify the unique, uncached jobs.
        for job, result in zip(to_run, self._execute(to_run, workers)):
            self.cache.put(job.fingerprint, result)
            results[first_occurrence[job.fingerprint]] = JobResult(
                job, result, cache_hit=False
            )

        # Duplicates within the batch resolve against the first occurrence's
        # result (not the cache, whose entry may already have been evicted).
        for index in duplicates:
            job = jobs[index]
            first = results[first_occurrence[job.fingerprint]]
            results[index] = JobResult(job, first.result, cache_hit=True)

        return [results[index] for index in range(len(jobs))]

    # ------------------------------------------------------------------ execution

    def _execute(
        self, jobs: Sequence[VerificationJob], workers: int
    ) -> List[VerificationResult]:
        if workers > 1 and len(jobs) > 1:
            try:
                return self._execute_pool(jobs, workers)
            except (OSError, ImportError, BrokenProcessPool):
                # No usable process pool in this environment (or the pool died
                # mid-run); fall through and run the whole batch in-process.
                pass
        return [self._execute_one(job) for job in jobs]

    @staticmethod
    def _execute_one(job: VerificationJob) -> VerificationResult:
        return VerificationResult.from_dict(
            _verify_job_dicts(job.system_dict, job.property_dict, job.options_dict)
        )

    @staticmethod
    def _execute_pool(
        jobs: Sequence[VerificationJob], workers: int
    ) -> List[VerificationResult]:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = [
                pool.submit(
                    _verify_job_dicts, job.system_dict, job.property_dict, job.options_dict
                )
                for job in jobs
            ]
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
