"""The experiment runner behind the paper's tables and figures.

A :class:`BenchmarkRunner` verifies a suite of workflows against the Table 4
property templates under one or more verifier configurations, records one
:class:`RunRecord` per (workflow, property, verifier) triple, and aggregates
the records into the rows of Tables 1–4 and the series of Figure 9.  The
aggregation functions mirror the paper's reporting: average elapsed time and
failure counts per verifier (Table 2), mean / 5%-trimmed-mean speedups per
optimization (Table 3), average time per LTL template class (Table 4) and
average time per cyclomatic-complexity bucket (Figure 9).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.baseline.spinlike import SpinLikeVerifier
from repro.benchmark.cyclomatic import cyclomatic_complexity
from repro.benchmark.properties import LTL_TEMPLATES, LTLTemplate, generate_properties
from repro.core.options import Ablation, VerifierOptions
from repro.core.verifier import VerificationOutcome, Verifier
from repro.has.artifact_system import ArtifactSystem


@dataclass
class RunRecord:
    """One verification run: workflow × property template × verifier configuration."""

    workflow: str
    template: str
    category: str
    verifier: str
    seconds: float
    outcome: str
    failed: bool
    states_explored: int
    cyclomatic: int


@dataclass
class WorkflowSuite:
    """A named collection of workflows (the "real" or "synthetic" set)."""

    name: str
    workflows: List[ArtifactSystem]

    def statistics(self) -> Dict[str, float]:
        """The Table 1 row for this suite: average size statistics."""
        if not self.workflows:
            return {"size": 0, "relations": 0.0, "tasks": 0.0, "variables": 0.0, "services": 0.0}
        per_workflow = [workflow.statistics() for workflow in self.workflows]
        return {
            "size": len(self.workflows),
            "relations": statistics.mean(s["relations"] for s in per_workflow),
            "tasks": statistics.mean(s["tasks"] for s in per_workflow),
            "variables": statistics.mean(s["variables"] for s in per_workflow),
            "services": statistics.mean(s["services"] for s in per_workflow),
        }


def trimmed_mean(values: Sequence[float], proportion: float = 0.05) -> float:
    """The mean after removing the top and bottom ``proportion`` of the values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = int(len(ordered) * proportion)
    trimmed = ordered[cut : len(ordered) - cut] if len(ordered) > 2 * cut else ordered
    return statistics.mean(trimmed)


class BenchmarkRunner:
    """Runs verification experiments and aggregates them like the paper does."""

    def __init__(
        self,
        timeout_seconds: float = 30.0,
        max_states: int = 30_000,
        templates: Sequence[LTLTemplate] = LTL_TEMPLATES,
        property_seed: int = 0,
    ):
        self.timeout_seconds = timeout_seconds
        self.max_states = max_states
        self.templates = tuple(templates)
        self.property_seed = property_seed
        self.options = VerifierOptions(timeout_seconds=timeout_seconds, max_states=max_states)

    # ------------------------------------------------------------------ running

    def run_workflow(
        self,
        workflow: ArtifactSystem,
        verifier_label: str,
        ablation: Optional[Ablation] = None,
        use_spin_baseline: bool = False,
    ) -> List[RunRecord]:
        """Verify the 12 template properties of one workflow under one
        configuration: the runner's budgets with *ablation* (default: none)."""
        complexity = cyclomatic_complexity(workflow)
        properties = generate_properties(workflow, seed=self.property_seed, templates=self.templates)
        records: List[RunRecord] = []
        for ltl_property, template in zip(properties, self.templates):
            started = time.monotonic()
            if use_spin_baseline:
                verifier = SpinLikeVerifier(
                    workflow,
                    timeout_seconds=self.timeout_seconds,
                    max_states=self.max_states,
                )
                result = verifier.verify(ltl_property)
                outcome = result.outcome
                failed = result.failed
                states = result.states_explored
            else:
                verifier = Verifier(workflow, self.options, ablation=ablation)
                result = verifier.verify(ltl_property)
                outcome = result.outcome.value
                failed = result.stats.failed
                states = result.stats.states_explored
            elapsed = time.monotonic() - started
            records.append(
                RunRecord(
                    workflow=workflow.name,
                    template=template.name,
                    category=template.category,
                    verifier=verifier_label,
                    seconds=elapsed,
                    outcome=str(outcome),
                    failed=failed,
                    states_explored=states,
                    cyclomatic=complexity,
                )
            )
        return records

    def run_suite(
        self,
        suite: WorkflowSuite,
        configurations: Mapping[str, Optional[Ablation]],
    ) -> List[RunRecord]:
        """Run every workflow of a suite under every configuration.

        ``configurations`` maps a verifier label to its ablation; the special
        value ``None`` selects the Spin-like baseline verifier.
        """
        records: List[RunRecord] = []
        for workflow in suite.workflows:
            for label, ablation in configurations.items():
                records.extend(
                    self.run_workflow(
                        workflow,
                        verifier_label=label,
                        ablation=ablation,
                        use_spin_baseline=ablation is None,
                    )
                )
        return records

    # ------------------------------------------------------------------ aggregation

    @staticmethod
    def table2(records: Sequence[RunRecord]) -> Dict[str, Dict[str, float]]:
        """Average elapsed time and number of failed runs per verifier (Table 2)."""
        result: Dict[str, Dict[str, float]] = {}
        by_verifier: Dict[str, List[RunRecord]] = {}
        for record in records:
            by_verifier.setdefault(record.verifier, []).append(record)
        for verifier, rows in by_verifier.items():
            result[verifier] = {
                "avg_seconds": statistics.mean(r.seconds for r in rows),
                "failures": sum(1 for r in rows if r.failed),
                "runs": len(rows),
            }
        return result

    @staticmethod
    def table3(
        baseline_records: Sequence[RunRecord],
        ablated_records: Sequence[RunRecord],
    ) -> Dict[str, float]:
        """Mean and trimmed-mean speedup of an optimization (Table 3).

        Speedup of a run = time with the optimization off / time with it on,
        matched per (workflow, template).
        """
        baseline_by_key = {(r.workflow, r.template): r for r in baseline_records}
        speedups: List[float] = []
        for record in ablated_records:
            baseline = baseline_by_key.get((record.workflow, record.template))
            if baseline is None or baseline.seconds <= 0:
                continue
            speedups.append(record.seconds / max(baseline.seconds, 1e-9))
        if not speedups:
            return {"mean": 0.0, "trimmed_mean": 0.0, "runs": 0}
        return {
            "mean": statistics.mean(speedups),
            "trimmed_mean": trimmed_mean(speedups, 0.05),
            "runs": len(speedups),
        }

    @staticmethod
    def table4(records: Sequence[RunRecord]) -> Dict[str, Dict[str, float]]:
        """Average verification time per LTL template (Table 4)."""
        result: Dict[str, Dict[str, float]] = {}
        by_template: Dict[str, List[RunRecord]] = {}
        for record in records:
            by_template.setdefault(record.template, []).append(record)
        for template, rows in by_template.items():
            result[template] = {
                "category": rows[0].category,
                "avg_seconds": statistics.mean(r.seconds for r in rows),
                "runs": len(rows),
            }
        return result

    @staticmethod
    def figure9(records: Sequence[RunRecord]) -> List[Tuple[int, float, int]]:
        """(cyclomatic complexity, average seconds, #runs) series for Figure 9."""
        by_complexity: Dict[int, List[float]] = {}
        for record in records:
            by_complexity.setdefault(record.cyclomatic, []).append(record.seconds)
        series = [
            (complexity, statistics.mean(times), len(times))
            for complexity, times in sorted(by_complexity.items())
        ]
        return series

    @staticmethod
    def overhead(
        with_module: Sequence[RunRecord], without_module: Sequence[RunRecord]
    ) -> float:
        """Relative overhead (in %) of a module over the matched aggregate time.

        The paper reports the overhead of the repeated-reachability module as
        the relative increase of the *average* verification time, so the
        aggregation here compares the summed times of the matched
        (workflow, template) pairs.  Averaging per-run ratios instead would let
        sub-millisecond reachability-only runs (the property is reported
        violated as soon as any accepting state is reached) dominate the
        metric with enormous ratios.
        """
        without_by_key = {(r.workflow, r.template): r for r in without_module}
        with_total = 0.0
        without_total = 0.0
        for record in with_module:
            other = without_by_key.get((record.workflow, record.template))
            if other is None or other.seconds <= 0 or record.failed or other.failed:
                continue
            with_total += record.seconds
            without_total += other.seconds
        if without_total <= 0:
            return 0.0
        return 100.0 * (with_total - without_total) / without_total
