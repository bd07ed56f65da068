"""Static analysis of HAS* specifications and LTL-FO properties.

``repro.analysis`` is the cheap static front-end of the verifier (the
pre-search counterpart of the Section 3.7 constraint-graph analysis in
:mod:`repro.core.static_analysis`, which works on flattened constraints
*during* the search).  It produces

* structured, severity-ranked :class:`Diagnostic` records with stable
  ``VAxxx`` codes -- surfaced by ``python -m repro lint``, rejected at
  ``POST /v1/jobs`` submit time (HTTP 422) when error-ranked, and persisted
  on the job row when warning-ranked -- and
* a :class:`StaticFacts` summary (statically reachable tasks, constant
  bindings, trivially-decided property verdicts) and the
  :mod:`~repro.analysis.dataflow` facts, from which those diagnostics are
  derived.

The search does not consume any of these facts: they drive lint, the
diagnostics and the submit gate only.  Every fact is nonetheless *sound*:
a task is only reported statically closed when its opening guard is
unsatisfiable under plain equality reasoning (see
:func:`statically_unsatisfiable`), so a diagnostic built on it never
contradicts what the search would find.
"""

from repro.analysis.diagnostics import (
    CODE_NAMES,
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    SpecRejectedError,
    sort_diagnostics,
)
from repro.analysis.analyzer import (
    AnalysisReport,
    StaticFacts,
    analyze,
    analyze_property,
    analyze_system,
    compute_static_facts,
)
from repro.analysis.dataflow import (
    DataflowFacts,
    ServiceFootprint,
    TaskDataflow,
    compute_dataflow_facts,
)
from repro.analysis.satisfiability import (
    statically_unsatisfiable,
    statically_unsatisfiable_under,
)

__all__ = [
    "AnalysisReport",
    "CODE_NAMES",
    "DataflowFacts",
    "Diagnostic",
    "ERROR",
    "INFO",
    "ServiceFootprint",
    "SpecRejectedError",
    "StaticFacts",
    "TaskDataflow",
    "WARNING",
    "analyze",
    "analyze_property",
    "analyze_system",
    "compute_dataflow_facts",
    "compute_static_facts",
    "sort_diagnostics",
    "statically_unsatisfiable",
    "statically_unsatisfiable_under",
]
