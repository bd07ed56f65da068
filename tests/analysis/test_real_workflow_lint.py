"""Pin the lint diagnostics of the real workflow suite.

The golden suite has one minimal fixture per VA code; this pin covers the
13 systems of ``REAL_WORKFLOW_FACTORIES``, which feed every benchmark
corpus and HTTP submission.  ``real_workflow_lint.json`` maps each workflow
name to the JSON diagnostics of ``analyze(system)``.  A change to the lint
pass that moves any of them fails here.

Regenerate the expected file (only when a diagnostic change is intended)::

    PYTHONPATH=src python tests/analysis/test_real_workflow_lint.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import analyze
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES

EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "real_workflow_lint.json"
)


def _diagnostics(name):
    report = analyze(REAL_WORKFLOW_FACTORIES[name]())
    return [diagnostic.as_dict() for diagnostic in report.diagnostics]


def _expected():
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_real_workflow_is_pinned():
    assert sorted(_expected()) == sorted(REAL_WORKFLOW_FACTORIES)


@pytest.mark.parametrize("name", sorted(REAL_WORKFLOW_FACTORIES))
def test_real_workflow_diagnostics(name):
    assert _diagnostics(name) == _expected()[name]


if __name__ == "__main__":
    pinned = {name: _diagnostics(name) for name in sorted(REAL_WORKFLOW_FACTORIES)}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
