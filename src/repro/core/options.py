"""Configuration options of the verifier.

The options mirror the optimizations evaluated in Section 4 of the paper, so
the benchmark harness can toggle each one independently:

* ``state_pruning``          -- the novel ⪯-based pruning of Section 3.5 (SP);
  when disabled the search falls back to the classic ``≤`` coverage of the
  monotone-pruning Karp–Miller algorithm (Section 3.4).
* ``data_structure_support`` -- the candidate index of Section 3.6 (DSS), a
  bitset index returning the same candidates as the paper's Trie and inverted
  lists; when disabled every active state is a candidate (linear scan).
* ``static_analysis``        -- the constraint-graph analysis of Section 3.7 (SA).
* ``monotone_pruning``       -- the Reynier–Servais active-set pruning of
  Section 3.4; disabling it yields the plain Karp–Miller tree (Algorithm 1),
  which is only practical on tiny specifications and exists mainly for
  differential testing.
* ``check_repeated_reachability`` -- the full LTL-FO semantics over infinite
  runs (Section 3.8); when disabled a property is reported violated as soon as
  an accepting Büchi state is reachable at all (used to measure the overhead
  of the repeated-reachability module).
* ``use_artifact_relations`` -- when disabled, artifact-relation updates are
  ignored (the VERIFAS-NoSet configuration of Table 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional


class CoverageMode(enum.Enum):
    """Which coverage relation the search uses for pruning and acceleration."""

    CLASSIC_LEQ = "leq"
    PRECEQ = "preceq"


@dataclass(frozen=True)
class VerifierOptions:
    """Tunable options of :class:`repro.core.Verifier`."""

    state_pruning: bool = True
    data_structure_support: bool = True
    static_analysis: bool = True
    monotone_pruning: bool = True
    check_repeated_reachability: bool = True
    use_artifact_relations: bool = True
    #: The PR 1 violation fast path of the repeated-reachability phase: look
    #: for a ≤-coverage cycle through an accepting state on the main ⪯-pruned
    #: active set before falling back to the classic Section 3.8 re-search.
    #: Sound (the cycle argument only needs reachable states) and audited by a
    #: differential stress test against the classic re-search; the switch
    #: exists so the audit can force the classic path and so the fast path can
    #: be disabled in the field without a code change.
    repeated_violation_fast_path: bool = True

    #: Hard limit on the number of product states the search may materialise.
    max_states: int = 200_000
    #: Wall-clock timeout in seconds (``None`` disables the timeout).
    timeout_seconds: Optional[float] = None
    #: Hard limit on the states explored by the repeated-reachability phase.
    max_repeated_states: int = 100_000

    @property
    def coverage_mode(self) -> CoverageMode:
        return CoverageMode.PRECEQ if self.state_pruning else CoverageMode.CLASSIC_LEQ

    def with_(self, **changes) -> "VerifierOptions":
        """A copy of the options with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical, JSON-compatible dict form (used by spec files and the
        result cache of :mod:`repro.service`).

        Fields added after the v1 options schema are emitted only when they
        differ from their default: the canonical dict feeds the content
        fingerprint, and emitting a new always-present key would silently
        orphan every previously persisted result (readers default missing
        keys, so omission is lossless).
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if data["repeated_violation_fast_path"] is True:
            del data["repeated_violation_fast_path"]
        return data

    @classmethod
    def known_keys(cls) -> set:
        """Every accepted option key (including defaults omitted by
        :meth:`as_dict`); used by the HTTP API's unknown-key validation."""
        return {f.name for f in fields(cls)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerifierOptions":
        """Rebuild options from :meth:`as_dict` output; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    @classmethod
    def from_request(cls, data: Mapping[str, Any]) -> "VerifierOptions":
        """Strict :meth:`from_dict` for API submissions: an unknown key or an
        ill-typed value raises :class:`ValueError` instead of being dropped
        (or failing later, mid-search)."""
        unknown = set(data) - cls.known_keys()
        if unknown:
            raise ValueError(f"unknown verifier option(s): {', '.join(sorted(unknown))}")
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type == "bool":
                valid, expected = isinstance(value, bool), "a boolean"
            elif f.type == "int":
                valid = number and isinstance(value, int) and value >= 1
                expected = "an integer >= 1"
            else:  # timeout_seconds
                valid = value is None or (number and value > 0)
                expected = "null or a number > 0"
            if not valid:
                raise ValueError(f"verifier option {f.name!r} must be {expected}, got {value!r}")
        return cls.from_dict(data)

    @classmethod
    def all_optimizations(cls) -> "VerifierOptions":
        """The default, fully optimised configuration (the paper's VERIFAS)."""
        return cls()

    @classmethod
    def no_artifact_relations(cls) -> "VerifierOptions":
        """The VERIFAS-NoSet configuration of Table 2."""
        return cls(use_artifact_relations=False)
