"""The in-process workloads: ``corpus`` and ``synthetic``.

Both run ``Verifier.verify`` in a closed loop on one thread over a seeded,
fixed list of (workflow, property) pairs.  Every verify runs under a fixed
*state* budget, so the work a pair does does not depend on how fast the
machine is; the wall-clock timeout is only a safety cap that no pair should
reach.

The timed phase makes whole passes over the list, so every run verifies
every pair the same number of times whatever its order; the number of
passes follows from ``--seconds``, not from the speed of the machine.

Times are the CPU time of the benchmark process (:data:`clock`), not wall
time.  Verification here is single-threaded and CPU-bound, so on an idle
core the two agree to within a fraction of a percent; on a shared host,
CPU time leaves out the stretches in which the scheduler runs other tenants
instead (with three busy processes beside it on two cores, a run's wall
time doubled and its CPU-time metrics moved by 4%).  What the neighbours do
to the core's speed is divided out with :mod:`perfbench.speed`.  A pair's
time to verdict is its fastest verify; the later verifies are also what
the correctness check compares against the first.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import speed
from perfbench.stats import percentile

#: Corpus: all 13 real workflows x all 12 Table 4 templates, each searched
#: up to this many product states (main search and repeated phase alike);
#: small enough that two passes over two draws fit a 30 s run or not much
#: more.
CORPUS_MAX_STATES = 80
#: Property draws per corpus run, each over every (workflow, template)
#: pair.  Which pairs are slow depends on the draw, so one draw (156 pairs)
#: left the 90th percentile moving by a seventh between seeds.
CORPUS_DRAWS = 2
#: Synthetic: a fixed suite of Appendix D workflows at scale 0.2, x all 12
#: templates.  Two tasks, two database relations of one attribute, three
#: variables and services per task and three atoms per condition keep every
#: verify well under a second while artifact relations still drive the
#: repeated-reachability phase.  Larger settings are heavy-tailed: at scale
#: 0.25 one workflow in 32 took up to 3 s on one property draw, and with
#: five atoms per condition a few verifies per draw took seconds, which the
#: state budget does not bound.  The suite is fixed, as the paper's is, and
#: the workload seed draws the properties: a suite generated per seed moved
#: a pass's time by up to a factor of two between seeds.
SYNTHETIC_WORKFLOWS = 32
SYNTHETIC_SUITE_SEED = 0
SYNTHETIC_SCALE = (0.2, 0.2)
SYNTHETIC_MAX_STATES = 40
#: Safety cap per verify; reaching it is reported as a failure.
TIMEOUT_SECONDS = 30.0
#: The least number of timed passes.
REPEATS = 2
#: Passes of the traced run, each verifying every pair untraced and traced.
TRACED_PASSES = 1
#: Nominal seconds per pass (one pass takes 17-27 s of wall time over the
#: corpus and 5-7 s over the synthetic suite on a 2-core Xeon VM, as its
#: neighbours load it).  A run makes ``round(seconds / PASS_SECONDS)``
#: passes, at least :data:`REPEATS`, so its work does not depend on the
#: speed of the machine it meets.
PASS_SECONDS = {"corpus": 15.0, "synthetic": 7.0}
#: The clock every in-process time is read from: CPU seconds of this
#: process (all its threads; work moved into child processes is not seen
#: here, only over HTTP).
clock = process_time


@dataclass
class Pair:
    """One verification input: a property of a workflow under fixed options."""

    workflow: str
    template: str
    category: str
    system: Any
    ltl_property: Any
    options: Any


@dataclass
class Record:
    """One timed verify."""

    pair: int
    seconds: float
    outcome: str
    states: int
    complete: bool
    witness: Optional[str] = None
    result: Any = None
    submit_seconds: Optional[float] = None
    cached_seconds: Optional[float] = None
    #: CPU seconds of the reference slice run right after this verify.
    slice_seconds: Optional[float] = None
    error: Optional[str] = None
    mismatch: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch


def _all_templates(
    systems: Sequence[Any], seed: int, draws: int, max_states: int
) -> List[Pair]:
    """Every (workflow, template) pair once per property draw, the draws
    ``seed * draws`` up to ``(seed + 1) * draws`` (so seeds never share a
    draw, and one draw is the workload seed itself), in a seeded order."""
    from repro import VerifierOptions
    from repro.benchmark.properties import LTL_TEMPLATES, generate_properties

    options = VerifierOptions(
        max_states=max_states,
        max_repeated_states=max_states,
        timeout_seconds=TIMEOUT_SECONDS,
    )
    pairs = []
    for draw in range(seed * draws, (seed + 1) * draws):
        for system in systems:
            properties = generate_properties(system, seed=draw)
            for template, ltl_property in zip(LTL_TEMPLATES, properties):
                pairs.append(Pair(
                    system.name, template.name, template.category, system, ltl_property, options
                ))
    random.Random(seed).shuffle(pairs)
    return pairs


def corpus_pairs(seed: int) -> List[Pair]:
    from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES

    systems = [factory() for _, factory in sorted(REAL_WORKFLOW_FACTORIES.items())]
    return _all_templates(systems, seed, CORPUS_DRAWS, CORPUS_MAX_STATES)


def synthetic_pairs(seed: int) -> List[Pair]:
    from repro.benchmark.synthetic import SyntheticConfig, synthetic_workflows

    config = SyntheticConfig(
        tasks=2, relations=2, attributes_per_relation=1, atoms_per_condition=3
    )
    systems = synthetic_workflows(
        SYNTHETIC_WORKFLOWS, config, seed=SYNTHETIC_SUITE_SEED, scale_range=SYNTHETIC_SCALE
    )
    return _all_templates(systems, seed, 1, SYNTHETIC_MAX_STATES)


PAIR_BUILDERS = {"corpus": corpus_pairs, "synthetic": synthetic_pairs}


def verify_once(index: int, pair: Pair) -> Record:
    from repro import Verifier

    start = clock()
    try:
        result = Verifier(pair.system, pair.options).verify(pair.ltl_property)
    except Exception as error:  # recorded with its type; the run goes on
        return Record(index, clock() - start, "error", 0, False,
                      error=type(error).__name__)
    seconds = clock() - start
    stats = result.stats
    outcome = result.outcome.value
    return Record(
        pair=index,
        seconds=seconds,
        outcome=outcome,
        states=stats.states_explored,
        complete=outcome != "unknown" and not stats.failed,
        witness=result.counterexample.witness if result.counterexample else None,
        result=result,
        error="Timeout" if stats.timed_out else None,
    )


def closed_loop(
    pairs: Sequence[Pair], passes: int, paths: Optional["ReadPaths"] = None
) -> Tuple[List[Record], float]:
    """*passes* whole passes over the pairs in order; with *paths*, each
    verify is followed by the read-path measurements of its pair.  Every
    verify ends with a reference slice (see :func:`normalise`).  Returns
    the records, without their results (kept, they would grow the heap the
    collector scans as the run goes on), and the wall-clock seconds of the
    loop."""
    records: List[Record] = []
    start = perf_counter()
    for _ in range(passes):
        for index, pair in enumerate(pairs):
            record = verify_once(index, pair)
            if paths is not None:
                paths.measure(record)
            record.result = None
            record.slice_seconds = speed.slice_seconds()
            records.append(record)
    return records, perf_counter() - start


def normalise(records: Sequence[Record]) -> None:
    """Divide every time of each record, in place, by the slowdown the
    reference slices around it measured."""
    factors = speed.slowdowns([record.slice_seconds for record in records])
    for record, factor in zip(records, factors):
        record.seconds /= factor
        if record.submit_seconds is not None:
            record.submit_seconds /= factor
        if record.cached_seconds is not None:
            record.cached_seconds /= factor


def closed_loop_traced(
    pairs: Sequence[Pair], passes: int, tracer: Any
) -> Tuple[List[Record], List[Record]]:
    """*passes* whole passes in which every pair is verified once untraced
    and once under *tracer*'s shims, back to back (which goes first
    alternating between pairs and passes), so that the overhead is measured
    on the same machine state; returns the untraced and the traced
    verifies."""
    untraced: List[Record] = []
    traced: List[Record] = []
    for number in range(passes):
        for index, pair in enumerate(pairs):
            for shims in ((False, True) if (number + index) % 2 == 0 else (True, False)):
                if not shims:
                    untraced.append(verify_once(index, pair))
                    continue
                tracer.install()
                try:
                    traced.append(verify_once(index, pair))
                finally:
                    tracer.uninstall()
    return untraced, traced


def fastest(records: Sequence[Record]) -> List[Record]:
    """One record per pair: its fastest verify."""
    best: Dict[int, Record] = {}
    for record in records:
        if record.pair not in best or record.seconds < best[record.pair].seconds:
            best[record.pair] = record
    return [best[pair] for pair in sorted(best)]


def check_repeats(records: Sequence[Record]) -> int:
    """Mark every verify whose verdict or state count differs from the first
    verify of the same pair; returns the number of pairs compared."""
    first: Dict[int, Record] = {}
    compared = set()
    for record in records:
        if record.error is not None:
            continue
        reference = first.setdefault(record.pair, record)
        if reference is record:
            continue
        compared.add(record.pair)
        if (record.outcome, record.states) != (reference.outcome, reference.states):
            record.mismatch = True
    return len(compared)


def outcome_digest(pairs: Sequence[Pair], records: Sequence[Record]) -> str:
    """A hash of (verdict, states explored) per pair verified: two runs with
    one seed that verified the same pairs print the same digest."""
    seen: Dict[int, Tuple[str, str, str, int]] = {}
    for record in records:
        pair = pairs[record.pair]
        seen.setdefault(
            record.pair, (pair.workflow, pair.template, record.outcome, record.states)
        )
    text = json.dumps(sorted(seen.items()))
    return f"{len(seen)}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


class ReadPaths:
    """What a caller pays besides the search, measured right after each
    verify so that both see the same machine: the work ``POST /v1/jobs``
    does before accepting a job (decode the canonical spec dicts and run the
    static-analysis gate), and getting the verdict again through the
    library's result cache (``VerificationService.verify``), primed with the
    pair's first result.  A cached verdict that differs from the verified
    one, or a cache miss, fails the verify."""

    def __init__(self, pairs: Sequence[Pair]) -> None:
        from repro.service import VerificationService
        from repro.spec.codec import dump_property, dump_system

        self.pairs = pairs
        self.payloads = [(dump_system(p.system), dump_property(p.ltl_property)) for p in pairs]
        self.service = VerificationService()
        self.primed: set = set()

    def measure(self, record: Record) -> None:
        from repro.analysis import analyze_property, analyze_system
        from repro.service import VerificationJob
        from repro.spec.codec import load_property, load_system

        pair = self.pairs[record.pair]
        system_dict, property_dict = self.payloads[record.pair]
        start = clock()
        system = load_system(system_dict)
        analyze_system(system)
        analyze_property(system, load_property(property_dict))
        record.submit_seconds = clock() - start
        if record.result is None:
            return
        if record.pair not in self.primed:
            job = VerificationJob.from_objects(pair.system, pair.ltl_property, pair.options)
            self.service.cache.put(job.fingerprint, record.result)
            self.primed.add(record.pair)
        misses = self.service.cache.misses
        start = clock()
        result = self.service.verify(pair.system, pair.ltl_property, pair.options)
        record.cached_seconds = clock() - start
        if self.service.cache.misses != misses:
            record.error = "CacheMiss"
        elif result.outcome.value != record.outcome:
            record.mismatch = True


def _fastest_of(records: Sequence[Record], field: str) -> List[float]:
    """Per pair, the least value of *field* over its verifies."""
    best: Dict[int, float] = {}
    for record in records:
        value = getattr(record, field)
        if value is not None:
            best[record.pair] = min(value, best.get(record.pair, value))
    return list(best.values())


def end_to_end(records: Sequence[Record]) -> Dict[str, float]:
    shown = fastest(records)
    times = [r.seconds for r in shown]
    return {
        "verdicts_per_s": len(shown) / sum(times),
        "submit_p50_ms": 1000.0 * percentile(_fastest_of(records, "submit_seconds"), 50),
        "repeat_verdict_p50_ms": 1000.0 * percentile(
            _fastest_of(records, "cached_seconds"), 50
        ),
        "verdict_p50_ms": 1000.0 * percentile(times, 50),
        "verdict_p90_ms": 1000.0 * percentile(times, 90),
        "complete_share": sum(r.complete for r in shown) / len(shown),
        "ok_share": 1.0 - sum(r.failed for r in records) / len(records),
    }


def search_counts(records: Sequence[Record]) -> Dict[str, float]:
    """Per-verdict counts read from the verifier's own results."""
    per = 1.0 / max(1, len(records))
    done = [r.result.stats for r in records if r.result is not None]

    def total(key: str) -> float:
        return sum(getattr(stats, key) for stats in done) * per

    return {
        "verifier.budget_hits": sum(not r.complete for r in records if r.result) * per,
        "core.karp_miller.states_explored": total("states_explored"),
        "core.karp_miller.states_pruned": total("states_pruned"),
        "core.karp_miller.states_deactivated": total("states_deactivated"),
        "core.karp_miller.accelerations": total("accelerations"),
        "core.repeated.states": total("repeated_phase_states"),
        "core.repeated.witness.omega": sum(r.witness == "omega" for r in records) * per,
        "core.repeated.witness.cycle": sum(r.witness == "cycle" for r in records) * per,
        "core.repeated.witness.terminated": sum(r.witness == "terminated" for r in records) * per,
    }


def tables(pairs: Sequence[Pair], records: Sequence[Record]) -> Dict[str, Any]:
    """The paper's table shapes for this run: Table 4 per template class and
    Table 2 totals per workflow."""
    by_class: Dict[str, List[Record]] = {}
    by_workflow: Dict[str, List[Record]] = {}
    for record in fastest(records):
        pair = pairs[record.pair]
        by_class.setdefault(pair.category, []).append(record)
        by_workflow.setdefault(pair.workflow, []).append(record)
    table4 = {
        category: {
            "verdicts": len(rows),
            "p50_ms": 1000.0 * statistics.median(r.seconds for r in rows),
            "complete_share": sum(r.complete for r in rows) / len(rows),
        }
        for category, rows in sorted(by_class.items())
    }
    table2 = {
        workflow: {
            "verdicts": len(rows),
            "total_s": sum(r.seconds for r in rows),
            "incomplete": sum(not r.complete for r in rows),
            "violated": sum(r.outcome == "violated" for r in rows),
            "satisfied": sum(r.outcome == "satisfied" for r in rows),
        }
        for workflow, rows in sorted(by_workflow.items())
    }
    return {"table4_by_class": table4, "table2_by_workflow": table2}
