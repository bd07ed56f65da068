"""The top-level VERIFAS verifier.

Usage::

    from repro import Verifier, VerifierOptions
    from repro.ltl import LTLFOProperty, parse_ltl

    verifier = Verifier(artifact_system, VerifierOptions())
    result = verifier.verify(ltl_fo_property)
    if result.violated:
        print(result.counterexample.pretty())

Verification follows the pipeline of Section 3: the LTL-FO property is
negated, translated to a Büchi automaton, the product with the symbolic
transition system of the task is explored with the (optimised) Karp–Miller
search, and the property is violated iff an accepting product state is
repeatedly reachable (finite local runs are folded in via the terminal stutter
step).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.control import STOP_CANCELLED, STOP_DEADLINE, SearchControl
from repro.core.counterexample import Counterexample, build_counterexample
from repro.core.coverage import covers_leq
from repro.core.karp_miller import KarpMillerResult, KarpMillerSearch
from repro.core.options import Ablation, VerifierOptions
from repro.core.product import ProductSystem
from repro.core.repeated import RepeatedReachabilityAnalyzer
from repro.core.stats import SearchStatistics
from repro.core.transitions import SymbolicTransitionSystem
from repro.has.artifact_system import ArtifactSystem
from repro.ltl.buchi import ltl_to_buchi
from repro.ltl.ltlfo import LTLFOProperty


class VerificationOutcome(enum.Enum):
    """The verdict of a verification run."""

    SATISFIED = "satisfied"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


@dataclass
class VerificationResult:
    """Verdict, statistics and (when violated) a counterexample."""

    outcome: VerificationOutcome
    property_name: str
    task: str
    stats: SearchStatistics
    counterexample: Optional[Counterexample] = None

    @property
    def satisfied(self) -> bool:
        return self.outcome is VerificationOutcome.SATISFIED

    @property
    def violated(self) -> bool:
        return self.outcome is VerificationOutcome.VIOLATED

    @property
    def unknown(self) -> bool:
        return self.outcome is VerificationOutcome.UNKNOWN

    def summary(self) -> str:
        return (
            f"{self.property_name} on task {self.task}: {self.outcome.value} "
            f"({self.stats.states_explored} states, {self.stats.total_seconds:.3f}s)"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-compatible dict form (used by the CLI, spec tooling and the
        :mod:`repro.service` result cache)."""
        return {
            "outcome": self.outcome.value,
            "property_name": self.property_name,
            "task": self.task,
            "stats": self.stats.as_dict(),
            "counterexample": (
                self.counterexample.as_dict() if self.counterexample else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "VerificationResult":
        counterexample_data = data.get("counterexample")
        return cls(
            outcome=VerificationOutcome(data["outcome"]),
            property_name=data["property_name"],
            task=data["task"],
            stats=SearchStatistics.from_dict(data.get("stats", {})),
            counterexample=(
                Counterexample.from_dict(counterexample_data)
                if counterexample_data
                else None
            ),
        )


class Verifier:
    """Verifies LTL-FO properties of tasks of a HAS* specification under the
    budgets of *options*; *ablation* is for the benchmark harness only."""

    def __init__(
        self,
        system: ArtifactSystem,
        options: Optional[VerifierOptions] = None,
        *,
        ablation: Optional[Ablation] = None,
    ):
        self.system = system
        self.options = options or VerifierOptions()
        self.ablation = ablation or Ablation()

    # ------------------------------------------------------------------ public API

    def verify(
        self,
        ltl_property: LTLFOProperty,
        control: Optional[SearchControl] = None,
    ) -> VerificationResult:
        """Check whether every local run of the property's task satisfies the property.

        *control* (see :class:`repro.core.control.SearchControl`) carries a
        cooperative :class:`~repro.core.control.CancellationToken` and an
        event sink; a cancelled or deadline-expired run returns ``UNKNOWN``
        with the partial statistics gathered so far.  ``options.timeout_seconds``
        folds into the control's deadline, so both limits apply.
        """
        # Scope the per-verify timeout privately: a caller-owned control can
        # be reused across verify() calls, each getting the full timeout.
        control = (control if control is not None else SearchControl()).scoped(
            self.options.timeout_seconds
        )
        started = time.monotonic()
        task_name = ltl_property.task
        if not self.system.has_task(task_name):
            raise ValueError(f"property refers to unknown task {task_name!r}")

        with control.span("verify.setup", property=ltl_property.name, task=task_name):
            transition_system = SymbolicTransitionSystem(
                self.system,
                task_name,
                ltl_property,
                static_analysis=self.ablation.static_analysis,
                use_artifact_relations=self.ablation.use_artifact_relations,
            )
            ltl_property.validate_against(
                self.system.task(task_name).variable_names,
                transition_system.observable_services,
            )

            # The verifier searches for runs of the *negated* property.
            negated = ltl_property.formula.negated()
            automaton = ltl_to_buchi(
                negated, extra_propositions=transition_system.observable_services
            )

            product = ProductSystem(transition_system, automaton, ltl_property)
        control.emit_phase("search", property=ltl_property.name, task=task_name)
        search = KarpMillerSearch(
            product,
            self.options.max_states,
            covers=None if self.ablation.state_pruning else covers_leq,
            use_index=self.ablation.data_structure_support,
            control=control,
        )
        with control.span("verify.search") as search_span:
            result = search.run()
            search_span.set_attr("states_explored", search.stats.states_explored)
            search_span.set_attr("phases", control.phase_timer.snapshot())
        stats = search.stats
        stats.constraints_dropped = transition_system.constraint_filter.dropped_edge_count

        with control.span("verify.verdict"):
            outcome, counterexample = self._verdict(product, result, stats, control)
        stats.total_seconds = time.monotonic() - started
        if control.phase_timer.enabled:
            stats.phase_seconds = control.phase_timer.snapshot()
        control.emit("stats", **stats.as_dict())
        control.emit("done", outcome=outcome.value)
        return VerificationResult(
            outcome=outcome,
            property_name=ltl_property.name,
            task=task_name,
            stats=stats,
            counterexample=counterexample,
        )

    def verify_all(self, properties: Sequence[LTLFOProperty]) -> List[VerificationResult]:
        """Verify a collection of properties, one result per property."""
        return [self.verify(ltl_property) for ltl_property in properties]

    # ------------------------------------------------------------------ verdict

    def _verdict(
        self,
        product: ProductSystem,
        result: KarpMillerResult,
        stats: SearchStatistics,
        control: Optional[SearchControl] = None,
    ) -> Tuple[VerificationOutcome, Optional[Counterexample]]:
        control = control if control is not None else SearchControl()
        accepting_nodes = [
            node for node in result.nodes if product.is_accepting(node.state)
        ]

        if not self.ablation.check_repeated_reachability:
            # Reachability-only ablation (used to measure the overhead of the
            # repeated-reachability module): any reachable accepting state is
            # reported as a violation.
            if accepting_nodes:
                node = accepting_nodes[0]
                return (
                    VerificationOutcome.VIOLATED,
                    build_counterexample(result, node.node_id, "reachable"),
                )
            if not result.completed:
                return VerificationOutcome.UNKNOWN, None
            return VerificationOutcome.SATISFIED, None

        analyzer = RepeatedReachabilityAnalyzer(
            product,
            self.options.max_repeated_states,
            use_index=self.ablation.data_structure_support,
            leq_main_search=not self.ablation.state_pruning,
            stats=stats,
            control=control,
        )
        with control.span("verify.repeated", accepting=len(accepting_nodes)):
            repeated = analyzer.analyse(result)
        if repeated.found_violation:
            node_id = min(repeated.repeated_node_ids)
            witness = repeated.witnesses.get(node_id, "cycle")
            return VerificationOutcome.VIOLATED, build_counterexample(result, node_id, witness)
        if not result.completed or not repeated.completed:
            reason = control.stop_reason()
            stats.timed_out = stats.timed_out or reason == STOP_DEADLINE
            stats.cancelled = stats.cancelled or reason == STOP_CANCELLED
            return VerificationOutcome.UNKNOWN, None
        return VerificationOutcome.SATISFIED, None
