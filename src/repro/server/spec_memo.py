"""The checked-system memo of ``POST /v1/jobs``.

Every submission's system goes through the same system-side work before a
job row is written: parse and validate it (:func:`load_system`), render it
canonically (:func:`dump_system`, then :func:`canonical_json` -- the text
the fingerprint hashes and the job row stores) and lint it
(:func:`analyze_system`).  None of that depends on anything but the system,
and resubmits send the same few systems again and again, so
:class:`SpecMemo` keeps the outcome of that work for the
:data:`SPEC_MEMO_SIZE` most recently used systems, keyed by the canonical
text of the submitted ``system`` section (key order and whitespace do not
matter).

The property side -- loading, :func:`~repro.analysis.analyze_property`,
the 422 rejection -- depends on each POST's own properties and runs every
time.  A system that fails to parse is never memoised, so it raises on
every submission; one that cannot be rendered as canonical JSON (a NaN, a
non-string key) is checked without the memo, so it fails exactly as it
would without one.  This module is the only place in the server that
calls :func:`load_system` or :func:`analyze_system` (lint rule SM001).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.analysis import Diagnostic, analyze_system
from repro.has.artifact_system import ArtifactSystem
from repro.server.metrics import ServerMetrics
from repro.spec.codec import dump_system, load_system
from repro.spec.fingerprint import canonical_json

#: How many distinct systems the memo keeps; the least recently used one is
#: evicted first.
SPEC_MEMO_SIZE = 32


@dataclass(frozen=True)
class CheckedSystem:
    """One submitted system, parsed, rendered and linted.

    Shared by every POST that sends the same system, from any thread: the
    holders only read it.
    """

    system: ArtifactSystem
    #: :func:`dump_system` of :attr:`system`.
    system_dict: Dict[str, Any]
    #: :func:`canonical_json` of :attr:`system_dict`; ``None`` when it
    #: cannot be rendered, so the job renders it (and fails) as it would
    #: without the memo.
    system_json: Optional[str]
    #: The system-side diagnostics of :func:`analyze_system`, errors included.
    diagnostics: Tuple[Diagnostic, ...]


def _check(system_data: Any) -> CheckedSystem:
    system = load_system(system_data)
    system_dict = dump_system(system)
    diagnostics, _ = analyze_system(system)
    try:
        system_json: Optional[str] = canonical_json(system_dict)
    except (TypeError, ValueError):
        system_json = None
    return CheckedSystem(system, system_dict, system_json, tuple(diagnostics))


class SpecMemo:
    """A bounded, thread-safe LRU of :class:`CheckedSystem` by system text.

    Hits and misses count into ``metrics`` as ``spec_memo_hits`` and
    ``spec_memo_misses``; a miss is every check that ran the parse and the
    lint, whether it succeeded, failed or could not be memoised.
    """

    def __init__(self, metrics: ServerMetrics):
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CheckedSystem]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def check(self, system_data: Any) -> CheckedSystem:
        """The checked form of a payload's ``system`` section.

        Raises what :func:`load_system` raises for a malformed system.
        """
        try:
            key: Optional[str] = canonical_json(system_data)
        except (TypeError, ValueError):
            key = None
        if key is not None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
            if entry is not None:
                self._metrics.increment("spec_memo_hits")
                return entry
        self._metrics.increment("spec_memo_misses")
        entry = _check(system_data)
        if key is not None and entry.system_json is not None:
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > SPEC_MEMO_SIZE:
                    self._entries.popitem(last=False)
        return entry
