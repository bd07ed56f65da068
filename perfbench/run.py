"""Time-to-verdict benchmark of the VERIFAS reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads: ``corpus`` and ``synthetic`` (in-process ``Verifier.verify``) and
``http-mixed`` (``POST /v1/jobs`` -> verdict against a ``repro serve``
subprocess).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics and the tracing overhead instead.  The last
line of standard output is one JSON object; the lines before it (prefixed
``#``) carry the environment header, the correctness checks, the verdict
mix and the paper's table shapes.

The program is run from ``src/`` of the same checkout under a
``PYTHONHASHSEED`` derived from ``--seed`` and, where the kernel allows it,
with address-space randomisation off (both inherited by the server and its
workers), so two runs with one seed search exactly the same states.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "synthetic", "http-mixed")
#: Set-ups measured per run, in-process and over HTTP (where one takes
#: seconds); ``setup_s`` is their median.
SETUP_REPEATS = 5
HTTP_SETUP_REPEATS = 3
#: Reference slices run right after each set-up to normalise it.
SETUP_SLICES = 9
#: ``personality(2)`` flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000
#: The traced ``http-mixed`` run spends this share of ``--seconds``
#: untraced, for the overhead comparison, and the rest traced.
UNTRACED_SHARE = 1 / 3

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "complete_share": "share",
    "ok_share": "share",
    "peak_rss_mb": "MiB",
    "submit_p50_ms": "ms",
    "repeat_verdict_p50_ms": "ms",
}
PER_LAYER = {
    "verifier.setup_ms": "ms/verdict",
    "verifier.budget_hits": "count/verdict",
    "analysis.facts_ms": "ms/verdict",
    "ltl.buchi_ms": "ms/verdict",
    "ltl.buchi_states": "count/verdict",
    "core.transitions.successors_calls": "count/verdict",
    "core.transitions.successors_ms": "ms/verdict",
    "core.transitions.distinct_psi_share": "share",
    "core.product.sync_ms": "ms/verdict",
    "core.indexes.query_ms": "ms/verdict",
    "core.indexes.candidates_per_query": "count/query",
    "core.indexes.candidate_hit_share": "share",
    "core.coverage.checks": "count/verdict",
    "core.coverage.ms": "ms/verdict",
    "core.karp_miller.search_self_ms": "ms/verdict",
    "core.karp_miller.states_explored": "count/verdict",
    "core.karp_miller.states_pruned": "count/verdict",
    "core.karp_miller.states_deactivated": "count/verdict",
    "core.karp_miller.accelerate_ms": "ms/verdict",
    "core.karp_miller.accelerations": "count/verdict",
    "core.repeated.ms": "ms/verdict",
    "core.repeated.states": "count/verdict",
    "core.repeated.classic_searches": "count/verdict",
    "core.repeated.witness.omega": "count/verdict",
    "core.repeated.witness.cycle": "count/verdict",
    "core.repeated.witness.terminated": "count/verdict",
    "server.http_submit_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.dispatch_ms": "ms",
    "server.verify_ms": "ms",
    "server.worker_busy_share": "share",
    "events.wakeup_ms": "ms",
    "service.cache_hit_share": "share",
    "client.requests_per_job": "count/job",
    "trace.untraced_verdicts_per_s": "1/s",
    "trace.traced_verdicts_per_s": "1/s",
    "trace.overhead_share": "share",
}


def hash_seed_for(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every process of a run uses."""
    return str((seed * 1_000_003 + 17) % 4_294_967_296)


def disable_aslr() -> None:
    """Turn address-space randomisation off for this process's future
    ``exec`` images, where the kernel lets us (best effort)."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def aslr_enabled() -> bool:
    try:
        with open("/proc/self/personality", encoding="ascii") as handle:
            return not int(handle.read(), 16) & ADDR_NO_RANDOMIZE
    except (OSError, ValueError):
        return True


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def note(label: str, data: Any) -> None:
    print(f"# {label} {json.dumps(data, sort_keys=True)}", flush=True)


# ---------------------------------------------------------------- in-process


def timed_setup(workload: str, seed: int):
    """Imports plus input generation, timed (the first ``repro`` import of
    the process happens in here) and normalised to nominal machine speed
    by the reference slices run right after it."""
    from perfbench import speed
    from perfbench.inprocess import PAIR_BUILDERS, clock

    start = clock()
    pairs = PAIR_BUILDERS[workload](seed)
    seconds = clock() - start
    slices = [speed.slice_seconds() for _ in range(SETUP_SLICES)]
    return pairs, seconds / speed.slowdown(slices)


def setup_probe(workload: str, seed: int) -> float:
    """The same set-up in a fresh interpreter, so imports are paid again."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def freeze_heap() -> None:
    """Move everything allocated so far (imports, inputs) out of the
    collector's reach, so that its cost follows the verifier's own
    allocations rather than the benchmark's."""
    gc.collect()
    gc.freeze()


def run_inprocess(args: argparse.Namespace):
    from perfbench import inprocess
    from perfbench.stats import peak_rss_mb

    pairs, own_setup = timed_setup(args.workload, args.seed)
    if args.trace:
        from perfbench.layers import LayerTracer

        tracer = LayerTracer()
        freeze_heap()
        untraced, traced = inprocess.closed_loop_traced(pairs, inprocess.TRACED_PASSES, tracer)
        records = untraced + traced
        compared = inprocess.check_repeats(records)
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(tracer.metrics(len(traced)))
        metrics.update(inprocess.search_counts(traced))
        metrics.update(overhead(untraced, traced))
        shown = traced
    else:
        setups = [own_setup] + [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        passes = max(
            inprocess.REPEATS, round(args.seconds / inprocess.PASS_SECONDS[args.workload])
        )
        paths = inprocess.ReadPaths(pairs)
        freeze_heap()
        records, elapsed = inprocess.closed_loop(pairs, passes, paths)
        note("timed_s", {
            "passes": passes,
            "wall": elapsed,
            "verify_cpu": sum(r.seconds for r in records),
            "slice_p50_ms": 1000.0 * statistics.median(r.slice_seconds for r in records),
        })
        inprocess.normalise(records)
        compared = inprocess.check_repeats(records)
        metrics = inprocess.end_to_end(records)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["setup_s"] = statistics.median(setups)
        note("setup_samples_s", setups)
        shown = records
    note("checks", {
        "pairs": len(pairs),
        "verifies": len(records),
        "pairs_repeated": compared,
        "mismatches": sum(r.mismatch for r in records),
        "errors": sorted({r.error for r in records if r.error}),
        "outcome_digest": inprocess.outcome_digest(pairs, records),
    })
    note("verdict_mix", _mix(r.outcome for r in inprocess.fastest(shown)))
    note("witness_kinds", _mix(r.witness for r in inprocess.fastest(shown) if r.witness))
    for name, table in inprocess.tables(pairs, shown).items():
        for key, row in table.items():
            note(f"{name} {key}", row)
    return records, metrics


def overhead(untraced, traced) -> Dict[str, float]:
    """Tracing overhead on identical work: every pair is verified both ways,
    so this is traced over untraced verify time, minus one."""
    from perfbench.inprocess import end_to_end

    untraced_vps = end_to_end(untraced)["verdicts_per_s"]
    traced_vps = end_to_end(traced)["verdicts_per_s"]
    return {
        "trace.untraced_verdicts_per_s": untraced_vps,
        "trace.traced_verdicts_per_s": traced_vps,
        "trace.overhead_share": untraced_vps / traced_vps - 1.0,
    }


def _mix(values) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


# --------------------------------------------------------------------- HTTP


def run_http(args: argparse.Namespace):
    from perfbench import http_mixed
    from perfbench.http_mixed import ServerProcess

    pool = http_mixed.job_pool(args.seed)
    workdir = ROOT / ".perfbench-tmp"
    workdir.mkdir(exist_ok=True)
    servers: List[ServerProcess] = []

    def start(trace: bool):
        from perfbench import speed

        server = ServerProcess(ROOT, workdir, trace)
        servers.append(server)
        started = perf_counter()
        url = server.start()
        http_mixed.warm_up(url, pool)
        seconds = perf_counter() - started
        slices = [speed.slice_seconds() for _ in range(SETUP_SLICES)]
        return server, url, seconds / speed.slowdown(slices)

    try:
        if args.trace:
            server, url, _ = start(trace=False)
            untraced = http_mixed.run_phase(url, args.seed, args.seconds * UNTRACED_SHARE, pool)
            server.stop()
            server, url, _ = start(trace=True)
            traced = http_mixed.run_phase(
                url, args.seed, args.seconds * (1 - UNTRACED_SHARE), pool
            )
            layers = http_mixed.layer_metrics(url, traced)
            phases = [untraced, traced]
        else:
            setups = []
            for _ in range(HTTP_SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                server, url, seconds = start(trace=False)
                setups.append(seconds)
            phase = http_mixed.run_phase(url, args.seed, args.seconds, pool)
            rss = server.peak_rss_mb()
            phases = [phase]
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [job for phase in phases for job in phase.jobs]
    http_mixed.check_against_inprocess(jobs, pool, exact_states=not aslr_enabled())
    if args.trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(layers)
        untraced_vps = http_mixed.rate(untraced)
        traced_vps = http_mixed.rate(traced)
        metrics["trace.untraced_verdicts_per_s"] = untraced_vps
        metrics["trace.traced_verdicts_per_s"] = traced_vps
        metrics["trace.overhead_share"] = untraced_vps / traced_vps - 1.0
    else:
        metrics = http_mixed.end_to_end(phase)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss
        note("setup_samples_s", setups)
    note("checks", {
        "pool": len(pool),
        "jobs": len(jobs),
        "verdict_mismatches": sum(job.mismatch for job in jobs),
        "state_drift": sum(job.state_drift for job in jobs),
        "errors": sorted({job.error for job in jobs if job.error}),
    })
    for number, phase in enumerate(phases):
        note(f"phase{number}", http_mixed.summary(phase))
    return jobs, metrics


# --------------------------------------------------------------------- main


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    hash_seed = hash_seed_for(args.seed)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # The hash seed only takes effect when an interpreter starts: re-exec.
        # Before Python 3.12 ``hash(None)`` is the address of ``None``, so
        # sets holding the ``null`` constant change order with address-space
        # randomisation; turning it off makes the searches repeat exactly
        # across processes (the server's workers inherit it).
        disable_aslr()
        paths = [str(ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths))
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[1])
        return 0

    from perfbench.stats import environment

    env = environment(ROOT, args.workload, args.seed, hash_seed, bool(args.trace))
    env["aslr"] = aslr_enabled()
    note("env", env)
    if args.workload == "http-mixed":
        operations, metrics = run_http(args)
    else:
        operations, metrics = run_inprocess(args)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(op.failed for op in operations)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(operations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
