"""VERIFAS reproduction: a practical verifier for artifact systems.

This package re-implements the system described in

    Yuliang Li, Alin Deutsch, Victor Vianu.
    "VERIFAS: A Practical Verifier for Artifact Systems." PVLDB 10(9), 2017.

The public API is intentionally small; most users only need:

* :mod:`repro.has` -- build HAS* artifact-system specifications,
* :mod:`repro.ltl` -- build LTL-FO properties,
* :class:`repro.core.Verifier` -- verify a property against a specification,
* :mod:`repro.client` -- the stdlib HTTP client for a verification server's
  ``/v1`` API (submit / wait / cancel / iter_events),
* :mod:`repro.spec` -- save / load specifications and properties as versioned
  spec files (``SCHEMA_VERSION``-stamped JSON or YAML),
* :mod:`repro.service` -- batch verification with a worker pool and a
  content-addressed result cache (also behind the ``python -m repro`` CLI),
* :mod:`repro.benchmark` -- the real / synthetic workflow suites and the
  experiment harness that regenerates the paper's tables and figures.
"""

from repro.core.verifier import VerificationOutcome, VerificationResult, Verifier
from repro.core.options import VerifierOptions

__all__ = [
    "Verifier",
    "VerifierOptions",
    "VerificationResult",
    "VerificationOutcome",
    "__version__",
]

__version__ = "1.0.0"
