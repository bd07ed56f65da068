"""Batch verification service: job queue, worker pool, content-addressed cache.

Built on :mod:`repro.spec`: jobs carry canonical spec dicts, so they pickle
cheaply across process boundaries and cache under a content fingerprint.

::

    from repro.service import VerificationService, VerificationJob

    service = VerificationService()
    jobs = [VerificationJob.from_objects(system, p) for p in properties]
    for job_result in service.run_batch(jobs, workers=4):
        print(job_result.summary())
"""

from repro.service.cache import ResultCache
from repro.service.engine import BatchReport, VerificationService
from repro.service.jobs import JobResult, VerificationJob, jobs_from_bundle

__all__ = [
    "BatchReport",
    "JobResult",
    "ResultCache",
    "VerificationJob",
    "VerificationService",
    "jobs_from_bundle",
]
