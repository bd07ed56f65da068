"""Verification jobs: the unit of work of the batch verification service.

A :class:`VerificationJob` carries the *canonical dict forms* of its inputs
(system, property, options) rather than live model objects.  That makes jobs

* cheap to pickle across :class:`~concurrent.futures.ProcessPoolExecutor`
  process boundaries,
* content-addressable: two jobs built independently from structurally equal
  inputs share the same fingerprint and therefore one cache entry, and
* loadable straight from spec files without touching the model layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.core.options import VerifierOptions
from repro.core.verifier import VerificationResult
from repro.has.artifact_system import ArtifactSystem
from repro.ltl.ltlfo import LTLFOProperty
from repro.spec.codec import dump_property, dump_system, load_property, load_system
from repro.spec.fingerprint import canonical_json, job_fingerprint


@dataclass
class VerificationJob:
    """One (system × property × options) verification request."""

    system_dict: Dict[str, Any]
    property_dict: Dict[str, Any]
    options_dict: Dict[str, Any]
    label: Optional[str] = None
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)
    #: Canonical text of ``system_dict`` (see :attr:`system_json`).  A
    #: builder holding it already passes it in, so jobs of one system
    #: render it once.
    _system_json: Optional[str] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_objects(
        cls,
        system: ArtifactSystem,
        ltl_property: LTLFOProperty,
        options: Optional[VerifierOptions] = None,
        label: Optional[str] = None,
    ) -> "VerificationJob":
        """Build a job from live model objects (canonicalised on the spot)."""
        return cls(
            system_dict=dump_system(system),
            property_dict=dump_property(ltl_property),
            options_dict=(options or VerifierOptions()).as_dict(),
            label=label,
        )

    @property
    def fingerprint(self) -> str:
        """Content hash of the job: identical inputs -> identical fingerprint."""
        if self._fingerprint is None:
            self._fingerprint = job_fingerprint(
                self.system_json, self.property_dict, self.options_dict
            )
        return self._fingerprint

    @property
    def system_json(self) -> str:
        """The :func:`~repro.spec.fingerprint.canonical_json` text of the
        system: hashed into the fingerprint and stored as the job row's
        ``system_json``."""
        if self._system_json is None:
            self._system_json = canonical_json(self.system_dict)
        return self._system_json

    @property
    def system_name(self) -> str:
        return self.system_dict.get("name", "artifact-system")

    @property
    def property_name(self) -> str:
        return self.property_dict.get("name", "<unnamed>")

    def describe(self) -> str:
        return self.label or f"{self.system_name} × {self.property_name}"

    # -- materialisation (used by workers) ------------------------------------

    def system(self) -> ArtifactSystem:
        return load_system(self.system_dict)

    def ltl_property(self) -> LTLFOProperty:
        return load_property(self.property_dict)

    def options(self) -> VerifierOptions:
        return VerifierOptions.from_dict(self.options_dict)


@dataclass
class JobResult:
    """The outcome of one job: the verification result plus cache provenance."""

    job: VerificationJob
    result: VerificationResult
    cache_hit: bool = False

    def summary(self) -> str:
        source = "cache" if self.cache_hit else "run"
        return f"{self.job.describe()}: {self.result.outcome.value} [{source}]"


def jobs_from_bundle(
    bundle: "SpecBundle",
    options: Optional[VerifierOptions] = None,
    property_names: Optional[Sequence[str]] = None,
) -> list:
    """One job per property of a spec bundle (optionally filtered by name)."""
    from repro.spec.bundle import SpecBundle  # local import avoids a cycle at import time

    assert isinstance(bundle, SpecBundle)
    system_dict = dump_system(bundle.system)
    system_json = canonical_json(system_dict)
    options_dict = (options or VerifierOptions()).as_dict()
    selected = list(bundle.properties)
    if property_names is not None:
        selected = [bundle.property_named(name) for name in property_names]
    return [
        VerificationJob(
            system_dict=system_dict,
            property_dict=dump_property(ltl_property),
            options_dict=options_dict,
            _system_json=system_json,
        )
        for ltl_property in selected
    ]
