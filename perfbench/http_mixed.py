"""The ``http-mixed`` workload: ``POST /v1/jobs`` -> verdict over HTTP.

A ``python -m repro serve`` subprocess (default process worker model, one
worker, fresh store) is driven in a closed loop by two client threads using
``VerifasClient(push_events=True)``: each submits a job, follows its event
log by long-poll until the terminal event, then submits the next.  About
half the jobs resubmit a fingerprint already verified in the run (the
result-cache read path); the rest rename a corpus property, so a worker
verifies it, the store is written and events are emitted.

The jobs use the two cheapest Table 4 templates, ``eventually`` and
``until``: their searches take 10-20 ms under the budget, so the server
layers dominate, and most of them finish, so the share that finishes rests
on many searches.  (Over all twelve templates, under a budget small enough
for short searches, about one search in five finished, and that share moved
by a fifth between seeds.)

Times are wall-clock, normalised to nominal machine speed: every fourth job
of a client thread is followed by a reference slice (:mod:`perfbench.speed`)
on that thread, and each job's times are divided by the slowdown of the
slices around its end.
"""

from __future__ import annotations

import bisect
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import speed
from perfbench.stats import child_pids, peak_rss_mb, percentile

CLIENTS = 2
MAX_STATES = 40
TEMPLATES = ("eventually", "until")
#: Property draws in the pool, each over every workflow and template: more
#: than a run's fresh jobs get through, so a run does not wrap around.
DRAWS = 24
OPTIONS = {"max_states": MAX_STATES, "max_repeated_states": MAX_STATES, "timeout_seconds": 30.0}
JOB_DEADLINE_SECONDS = 60.0
#: A client thread runs a reference slice after every this many jobs.
SLICE_EVERY = 4
START_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 15.0


@dataclass
class Job:
    """One submitted job, as the client saw it."""

    kind: str  # "fresh" or "repeat"
    pool_index: int
    job_id: Optional[str] = None
    submit_seconds: float = 0.0
    verdict_seconds: float = 0.0
    seen_wall: float = 0.0
    seen_clock: float = 0.0
    outcome: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    cache_hit: bool = False
    error: Optional[str] = None
    mismatch: bool = False
    state_drift: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch


@dataclass
class Phase:
    jobs: List[Job]
    elapsed: float
    requests: int
    cache_before: Dict[str, Any] = field(default_factory=dict)
    cache_after: Dict[str, Any] = field(default_factory=dict)
    #: (perf_counter at its end, CPU seconds) of each reference slice.
    slices: List[Tuple[float, float]] = field(default_factory=list)
    slowdown: float = 1.0


def job_pool(seed: int) -> List[Dict[str, Any]]:
    """Seeded property draws over the 13 real workflows x :data:`TEMPLATES`,
    as the canonical dicts a job payload carries.

    Fresh jobs walk the pool in order, and each draw is one block of the
    pool in a seeded order, so every 26 fresh jobs cover every (workflow,
    template) pair once whatever the seed."""
    from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
    from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
    from repro.spec.codec import dump_property, dump_system

    templates = [t for t in LTL_TEMPLATES if t.name in TEMPLATES]
    systems = [factory() for _, factory in sorted(REAL_WORKFLOW_FACTORIES.items())]
    dumped = [dump_system(system) for system in systems]
    pool = []
    for draw in range(seed * DRAWS, (seed + 1) * DRAWS):
        block = [
            {"system": system_dict, "property": dump_property(ltl_property)}
            for system, system_dict in zip(systems, dumped)
            for ltl_property in generate_properties(system, seed=draw, templates=templates)
        ]
        random.Random(draw).shuffle(block)
        pool.extend(block)
    return pool


class ServerProcess:
    """One ``repro serve`` subprocess on a fresh store under *workdir*."""

    def __init__(self, root: Path, workdir: Path, trace: bool):
        self.root = root
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self) -> str:
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
            "--store", str(self.workdir / "jobs.db"), "--quiet",
        ]
        if self.trace:
            command.append("--trace")
        log = self.workdir / "serve.log"
        with open(log, "w", encoding="utf-8") as handle:
            self.proc = subprocess.Popen(
                command, cwd=self.root, stdout=handle, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=dict(os.environ, TMPDIR=str(self.workdir)),
            )
        deadline = time.monotonic() + START_TIMEOUT_SECONDS
        while self.url is None:
            match = re.search(r"listening on (\S+)", log.read_text(encoding="utf-8"))
            if match:
                self.url = match.group(1)
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {log.read_text(encoding='utf-8')}")
            else:
                time.sleep(0.005)
        return self.url

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker children."""
        pid = self.proc.pid
        return peak_rss_mb(pid) + sum(peak_rss_mb(child) for child in child_pids(pid))

    def stop(self) -> None:
        if self.proc is None:
            return
        children = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # graceful: stops the worker pool
            try:
                self.proc.wait(STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
        for child in children:
            while _alive(child):
                if time.monotonic() > deadline:
                    os.kill(child, signal.SIGKILL)
                    deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
                time.sleep(0.01)
        self.proc = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def make_client(url: str):
    """A long-polling ``VerifasClient`` that counts its HTTP requests."""
    from repro.client import VerifasClient

    class CountingClient(VerifasClient):
        requests = 0

        def _request(self, *args: Any, **kwargs: Any):
            self.requests += 1
            return super()._request(*args, **kwargs)

    return CountingClient(url, push_events=True)


def payload_for(entry: Dict[str, Any], name: Optional[str] = None) -> Dict[str, Any]:
    from repro.client import build_submit_payload

    prop = dict(entry["property"])
    if name is not None:
        prop["name"] = name
    return build_submit_payload(entry["system"], [prop], options=dict(OPTIONS))


def run_job(client: Any, job: Job, payload: Dict[str, Any]) -> Job:
    """Submit one job and follow its events to the terminal one."""
    start = perf_counter()
    try:
        handle = client.submit_payload(payload)[0]
        job.job_id = handle.id
        job.submit_seconds = perf_counter() - start
        last_kind = None
        for event in client.iter_events(handle.id, deadline_seconds=JOB_DEADLINE_SECONDS):
            last_kind = event.get("kind")
            data = event.get("data") or {}
            if last_kind == "stats":
                job.stats = data
            elif last_kind == "done":
                job.outcome = data.get("outcome")
                job.cache_hit = bool(data.get("cache_hit"))
        if job.outcome is None:
            job.error = f"terminal:{last_kind}"
    except Exception as error:  # recorded with its type; the run goes on
        job.error = type(error).__name__
    job.seen_clock = perf_counter()
    job.verdict_seconds = job.seen_clock - start
    job.seen_wall = time.time()
    return job


def warm_up(url: str, pool: Sequence[Dict[str, Any]]) -> Job:
    """Gate on ``/healthz`` and one verified job: a fresh process-model
    server reports ``/readyz`` 503 until its first job spawns the worker."""
    client = make_client(url)
    deadline = time.monotonic() + START_TIMEOUT_SECONDS
    while True:
        try:
            client.healthz()
            break
        except Exception:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
    job = run_job(client, Job("warm-up", 0), payload_for(pool[0], name="warm-up"))
    if job.error is not None:
        raise RuntimeError(f"warm-up job failed: {job.error}")
    return job


def run_phase(url: str, seed: int, seconds: float, pool: Sequence[Dict[str, Any]]) -> Phase:
    """Two closed-loop client threads for *seconds*.

    Each thread alternates a fresh job and a repeat.  Fresh jobs walk the
    pool in order from a shared cursor, so a run covers most of the corpus
    whatever the seed; a repeat resubmits a payload chosen (seeded) among
    those already verified."""
    lock = threading.Lock()
    verified: List[Tuple[int, Dict[str, Any]]] = []
    jobs: List[Job] = []
    slices: List[Tuple[float, float]] = []
    cursor = [0]
    clients = [make_client(url) for _ in range(CLIENTS)]
    observer = make_client(url)
    cache_before = observer.metrics().get("cache", {})
    start = perf_counter()
    deadline = start + seconds

    def loop(thread_no: int) -> None:
        client = clients[thread_no]
        rng = random.Random(seed * 1009 + thread_no)
        submitted = 0
        while perf_counter() < deadline:
            with lock:
                repeat = rng.choice(verified) if verified and submitted % 2 else None
                if repeat is None:
                    number = cursor[0]
                    cursor[0] += 1
            if repeat is not None:
                index, payload = repeat
                job = Job("repeat", index)
            else:
                index = number % len(pool)
                name = f"{pool[index]['property']['name']}#{number}"
                payload = payload_for(pool[index], name)
                job = Job("fresh", index)
            submitted += 1
            run_job(client, job, payload)
            with lock:
                jobs.append(job)
                if job.kind == "fresh" and job.error is None:
                    verified.append((index, payload))
            if submitted % SLICE_EVERY == 0:
                seconds = speed.slice_seconds()
                with lock:
                    slices.append((perf_counter(), seconds))

    threads = [threading.Thread(target=loop, args=(n,), daemon=True) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    cache_after = observer.metrics().get("cache", {})
    phase = Phase(
        jobs, elapsed, sum(c.requests for c in clients), cache_before, cache_after, slices
    )
    normalise(phase)
    return phase


def normalise(phase: Phase) -> None:
    """Divide each job's times, in place, by the slowdown the reference
    slices run around its end measured, and record the phase's slowdown
    (see :mod:`perfbench.speed`)."""
    if not phase.slices:
        return
    phase.slices.sort()
    ends = [end for end, _ in phase.slices]
    seconds = [value for _, value in phase.slices]
    factors = speed.slowdowns(seconds)
    phase.slowdown = speed.slowdown(seconds)
    for job in phase.jobs:
        factor = factors[min(bisect.bisect(ends, job.seen_clock), len(factors) - 1)]
        job.verdict_seconds /= factor
        job.submit_seconds /= factor


def check_against_inprocess(
    jobs: Sequence[Job], pool: Sequence[Dict[str, Any]], exact_states: bool
) -> None:
    """Mark jobs whose verdict differs from an in-process verify of the same
    spec, property and options.

    A differing state count on a fresh job is flagged as drift.  It is a
    failure when *exact_states* holds, that is when address-space
    randomisation is off: otherwise, before Python 3.12, ``hash(None)``
    follows the address of ``None``, which randomisation moves, so the
    search order -- and the number of states it explores before the budget
    -- can differ between processes even under one hash seed."""
    from repro import Verifier, VerifierOptions
    from repro.spec.codec import load_property, load_system

    reference: Dict[int, Tuple[str, int]] = {}
    for index in sorted({job.pool_index for job in jobs}):
        entry = pool[index]
        result = Verifier(
            load_system(entry["system"]), VerifierOptions.from_dict(OPTIONS)
        ).verify(load_property(entry["property"]))
        reference[index] = (result.outcome.value, result.stats.states_explored)
    for job in jobs:
        if job.error is not None:
            continue
        outcome, states = reference[job.pool_index]
        if job.stats is not None:
            job.state_drift = job.stats.get("states_explored") != states
        job.mismatch = job.outcome != outcome or (exact_states and job.state_drift)


def completed_search(job: Job) -> bool:
    stats = job.stats or {}
    stopped = any(stats.get(key) for key in ("state_limit_reached", "timed_out", "cancelled"))
    return job.error is None and job.outcome != "unknown" and job.stats is not None and not stopped


def rate(phase: Phase) -> float:
    """Jobs per second of the phase, at nominal machine speed."""
    return len(phase.jobs) / phase.elapsed * phase.slowdown


def end_to_end(phase: Phase) -> Dict[str, float]:
    jobs = phase.jobs
    times = [job.verdict_seconds for job in jobs]
    repeats = [job.verdict_seconds for job in jobs if job.kind == "repeat"] or times
    fresh = [job for job in jobs if job.kind == "fresh"]
    return {
        "verdicts_per_s": rate(phase),
        "verdict_p50_ms": 1000.0 * percentile(times, 50),
        "verdict_p90_ms": 1000.0 * percentile(times, 90),
        "repeat_verdict_p50_ms": 1000.0 * percentile(repeats, 50),
        "submit_p50_ms": 1000.0 * percentile([job.submit_seconds for job in jobs], 50),
        # Only fresh jobs run a search; repeats are served from the cache.
        "complete_share": sum(completed_search(job) for job in fresh) / max(1, len(fresh)),
        "ok_share": 1.0 - sum(job.failed for job in jobs) / len(jobs),
    }


def cache_hit_share(before: Dict[str, Any], after: Dict[str, Any]) -> float:
    """Share of result lookups served from the memory or store cache during
    the phase (the ``hit_rate`` of ``/v1/metrics``, over the phase only)."""

    def delta(key: str) -> int:
        return int(after.get(key, 0)) - int(before.get(key, 0))

    lookups = delta("hits") + delta("misses")
    return (delta("hits") + delta("store_hits")) / lookups if lookups else 0.0


def layer_metrics(url: str, phase: Phase) -> Dict[str, float]:
    """Per-layer numbers from the server's spans and the jobs' results."""
    client = make_client(url)
    submit, queue, dispatch, verify, wakeup, busy = [], [], [], [], [], 0.0
    setup = facts = repeated = 0.0
    fresh = [job for job in phase.jobs if job.job_id and job.kind == "fresh"]
    for job in phase.jobs:
        if not job.job_id:
            continue
        spans = client.trace(job.job_id).get("spans", [])
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        for span in by_name.get("http.submit", []):
            submit.append(span["duration"])
        for span in by_name.get("queue.wait", []):
            queue.append(span["duration"])
        for execute in by_name.get("worker.execute", []):
            children = [
                s for s in spans
                if s["parent_id"] == execute["span_id"] and s["name"].startswith("verify.")
            ]
            busy += execute["duration"]
            wakeup.append(job.seen_wall - (execute["start_time"] + execute["duration"]))
            if children:  # cache hits run no verify: dispatch is measured on verifies
                verify_seconds = sum(s["duration"] for s in children)
                dispatch.append(execute["duration"] - verify_seconds)
                verify.append(verify_seconds)

        def total(name: str) -> float:
            return sum(s["duration"] for s in by_name.get(name, []))

        if job.kind == "fresh":
            facts += total("verify.dataflow")
            repeated += total("verify.repeated")
            setup += (total("verify.dataflow") + total("verify.setup")
                      + total("verify.verdict") - total("verify.repeated"))

    views = client.job_views([job.job_id for job in fresh])
    results = [views[job.job_id].get("result") or {} for job in fresh if job.job_id in views]
    per = 1.0 / max(1, len(results))

    def stat(key: str) -> float:
        return sum((r.get("stats") or {}).get(key, 0) for r in results) * per

    def witness(kind: str) -> float:
        return sum((r.get("counterexample") or {}).get("witness") == kind for r in results) * per

    ms = lambda seconds: 1000.0 * seconds  # noqa: E731
    return {
        "verifier.setup_ms": ms(setup) * per,
        "verifier.budget_hits": sum(
            r.get("outcome") == "unknown" or (r.get("stats") or {}).get("state_limit_reached", False)
            for r in results
        ) * per,
        "analysis.facts_ms": ms(facts) * per,
        "core.karp_miller.states_explored": stat("states_explored"),
        "core.karp_miller.states_pruned": stat("states_pruned"),
        "core.karp_miller.states_deactivated": stat("states_deactivated"),
        "core.karp_miller.accelerations": stat("accelerations"),
        "core.repeated.ms": ms(repeated) * per,
        "core.repeated.states": stat("repeated_phase_states"),
        "core.repeated.witness.omega": witness("omega"),
        "core.repeated.witness.cycle": witness("cycle"),
        "core.repeated.witness.terminated": witness("terminated"),
        "server.http_submit_ms": ms(percentile(submit, 50)),
        "server.queue_wait_ms": ms(percentile(queue, 50)),
        "server.dispatch_ms": ms(percentile(dispatch, 50)),
        "server.verify_ms": ms(percentile(verify, 50)),
        "server.worker_busy_share": busy / phase.elapsed,
        "events.wakeup_ms": ms(percentile(wakeup, 50)),
        "service.cache_hit_share": cache_hit_share(phase.cache_before, phase.cache_after),
        "client.requests_per_job": phase.requests / max(1, len(phase.jobs)),
    }


def summary(phase: Phase) -> Dict[str, Any]:
    kinds: Dict[str, int] = {}
    outcomes: Dict[str, int] = {}
    for job in phase.jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
        key = job.outcome or f"error:{job.error}"
        outcomes[key] = outcomes.get(key, 0) + 1
    return {
        "jobs": len(phase.jobs),
        "wall_jobs_per_s": len(phase.jobs) / phase.elapsed,
        "slices": len(phase.slices),
        "slowdown": phase.slowdown,
        "kinds": kinds,
        "verdict_mix": outcomes,
        "repeat_cache_hits": sum(job.cache_hit for job in phase.jobs if job.kind == "repeat"),
        "errors": sorted({job.error for job in phase.jobs if job.error}),
    }
