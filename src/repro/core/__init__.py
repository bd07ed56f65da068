"""The VERIFAS verifier core.

This subpackage implements Section 3 of the paper: the symbolic representation
of local runs (navigation expressions, partial isomorphism types, partial
symbolic instances), symbolic transitions, the product with the Büchi
automaton of the negated property, the Karp–Miller search with monotone
pruning, the novel ⪯-based pruning, the index data structures, the static
analysis of the constraint graph, and repeated-reachability extraction.

The top-level entry point is :class:`repro.core.Verifier`.
"""

from repro.core.options import VerifierOptions
from repro.core.verifier import VerificationOutcome, VerificationResult, Verifier

__all__ = [
    "Verifier",
    "VerifierOptions",
    "VerificationResult",
    "VerificationOutcome",
]
