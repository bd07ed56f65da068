"""Baseline verifier used for the Table 2 comparison.

The paper compares VERIFAS against a verifier built on top of the Spin model
checker [33].  Spin itself is a C tool that cannot be bundled here, so
:mod:`repro.baseline.spinlike` provides a pure-Python stand-in with the same
characteristics that the comparison rests on: it is an *explicit-state*
enumerative model checker over a bounded abstraction of the data domain, it
does not support updatable artifact relations, and its state space grows
exponentially with the number of artifact variables, which is why it scales
poorly compared to the symbolic search.  Its product with the Büchi automaton
and its lasso search live in :mod:`repro.baseline.explicit`, which the
concrete oracle of :mod:`repro.has.runs` shares.
"""

from repro.baseline.spinlike import SpinLikeResult, SpinLikeVerifier

__all__ = ["SpinLikeVerifier", "SpinLikeResult"]
