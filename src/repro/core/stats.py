"""Search statistics reported by the verifier.

The benchmark harness relies on these counters to reproduce the paper's
experiments (state-space sizes, ⪯-pruning effectiveness, optimisation
speedups).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional


@dataclass
class SearchStatistics:
    """Counters collected during one verification run."""

    #: Product states materialised as Karp-Miller tree nodes.
    states_explored: int = 0
    #: Successor states discarded because an active state already covers them.
    states_pruned: int = 0
    #: Previously active states deactivated by a newly added larger state.
    states_deactivated: int = 0
    #: Successor computations (symbolic transitions synchronised with the Büchi automaton).
    transitions_computed: int = 0
    #: Number of counter accelerations to ω.
    accelerations: int = 0
    #: States explored by the repeated-reachability phase (Section 3.8).
    repeated_phase_states: int = 0
    #: Size of the final coverability set (active states).
    coverability_set_size: int = 0
    #: Number of constraints dropped thanks to static analysis.
    constraints_dropped: int = 0
    #: Wall-clock time spent in the main search, in seconds.
    search_seconds: float = 0.0
    #: Wall-clock time spent in the repeated-reachability phase, in seconds.
    repeated_seconds: float = 0.0
    #: Total verification time, in seconds.
    total_seconds: float = 0.0
    #: Whether the search hit the timeout.
    timed_out: bool = False
    #: Whether the search hit the state budget.
    state_limit_reached: bool = False
    #: Whether the search was cooperatively cancelled (see
    #: :class:`repro.core.control.CancellationToken`).
    cancelled: bool = False
    #: Per-phase wall-time attribution from the hot-loop ``phase(name)``
    #: hooks (see :class:`repro.core.control.PhaseTimer`): maps a phase name
    #: to ``{"seconds": float, "count": int}``.  Empty unless the run was
    #: traced -- the default no-op timer records nothing.
    phase_seconds: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict view (used by the benchmark harness and EXPERIMENTS.md).

        ``phase_seconds`` is included only when non-empty, so untraced runs
        keep the historical shape byte-for-byte.
        """
        base = {
            "states_explored": self.states_explored,
            "states_pruned": self.states_pruned,
            "states_deactivated": self.states_deactivated,
            "transitions_computed": self.transitions_computed,
            "accelerations": self.accelerations,
            "repeated_phase_states": self.repeated_phase_states,
            "coverability_set_size": self.coverability_set_size,
            "constraints_dropped": self.constraints_dropped,
            "search_seconds": self.search_seconds,
            "repeated_seconds": self.repeated_seconds,
            "total_seconds": self.total_seconds,
            "timed_out": self.timed_out,
            "state_limit_reached": self.state_limit_reached,
            "cancelled": self.cancelled,
        }
        if self.phase_seconds:
            base["phase_seconds"] = {
                name: dict(entry) for name, entry in self.phase_seconds.items()
            }
        return base

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SearchStatistics":
        """Rebuild statistics from :meth:`as_dict` output; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    @property
    def failed(self) -> bool:
        """Whether the run failed to complete (timeout, cancellation or state budget)."""
        return self.timed_out or self.state_limit_reached or self.cancelled
