"""Configuration of the verifier: public budgets and harness-only ablations.

:class:`VerifierOptions` holds the three budgets -- ``max_states``,
``max_repeated_states`` and ``timeout_seconds``.  They are the only settings
of the public surfaces (the HTTP API, the CLI, the service) and bound the
work, never the meaning of the answer: a search out of budget says UNKNOWN.

:class:`Ablation` holds the switches of the paper's Section 4 experiments,
all on by default.  Only ``Verifier(..., ablation=...)``,
:mod:`repro.benchmark.runner` and tests construct one; lint rule AB001 keeps
it off the public surfaces, since one of its switches changes the question.

Fingerprints: :meth:`VerifierOptions.as_dict` keeps the canonical v1 dict
that feeds every job fingerprint -- the six v1 switch keys fixed at ``true``
(the value every public job ran with), then the budgets -- so stored results
stay valid.  :meth:`VerifierOptions.from_dict` ignores unknown keys, so
stored rows and spec files with switch keys still load, as budgets only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

#: The v1 switch keys, pinned at ``true`` in the canonical dict (see above).
_V1_SWITCH_KEYS = (
    "state_pruning",
    "data_structure_support",
    "static_analysis",
    "monotone_pruning",
    "check_repeated_reachability",
    "use_artifact_relations",
)


@dataclass(frozen=True)
class VerifierOptions:
    """The budgets of :class:`repro.core.Verifier`."""

    #: Hard limit on the number of product states the search may materialise.
    max_states: int = 200_000
    #: Wall-clock timeout in seconds (``None`` disables the timeout).
    timeout_seconds: Optional[float] = None
    #: Hard limit on the states explored by the repeated-reachability phase.
    max_repeated_states: int = 100_000

    def with_(self, **changes) -> "VerifierOptions":
        """A copy of the options with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical, JSON-compatible dict form (used by spec files and the
        result cache of :mod:`repro.service`): the v1 switch keys at
        ``true``, then the budgets."""
        data: Dict[str, Any] = dict.fromkeys(_V1_SWITCH_KEYS, True)
        data.update((f.name, getattr(self, f.name)) for f in fields(self))
        return data

    @classmethod
    def known_keys(cls) -> set:
        """Every accepted option key (the API rejects any other)."""
        return {f.name for f in fields(cls)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerifierOptions":
        """Rebuild options from :meth:`as_dict` output; unknown keys are ignored."""
        known = cls.known_keys()
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
            if f.type == "int":
                valid = number and isinstance(value, int) and value >= 1
                expected = "an integer >= 1"
            else:  # timeout_seconds
                valid = value is None or (number and value > 0)
                expected = "null or a number > 0"
            if not valid:
                raise ValueError(f"verifier option {f.name!r} must be {expected}, got {value!r}")
        return cls.from_dict(data)


@dataclass(frozen=True)
class Ablation:
    """Switches of the paper's Section 4 ablation experiments (all on: VERIFAS)."""

    #: The ⪯-based pruning of Section 3.5 (Table 3 SP); off, the search
    #: prunes with the classic ``≤`` coverage of monotone pruning (Section 3.4).
    state_pruning: bool = True
    #: The candidate index of Section 3.6 (Table 3 DSS), a bitset index
    #: returning the same candidates as the paper's Trie and inverted lists;
    #: off, every active state is a candidate (linear scan).
    data_structure_support: bool = True
    #: The constraint-graph analysis of Section 3.7 (Table 3 SA).
    static_analysis: bool = True
    #: Artifact-relation updates; off, they are ignored, so the verifier
    #: checks a different system (the VERIFAS-NoSet column of Table 2).
    use_artifact_relations: bool = True
