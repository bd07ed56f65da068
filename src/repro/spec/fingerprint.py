"""Content fingerprints of canonical spec dicts.

The verification service caches results under a fingerprint of the *content*
of a job -- the canonical dict forms of the artifact system, the property and
the verifier options -- so two jobs with structurally identical inputs share
one verification run even when the objects were built independently.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN/Infinity."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def fingerprint(data: Any) -> str:
    """Hex SHA-256 of the canonical JSON form of *data*."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def job_fingerprint(
    system_json: str,
    property_dict: Mapping[str, Any],
    options_dict: Mapping[str, Any],
) -> str:
    """The cache key of one (system, property, options) verification job.

    *system_json* is the system's :func:`canonical_json` text, which a
    caller verifying several properties of one system renders once.  The
    result equals ``fingerprint({"system": ..., "property": ...,
    "options": ...})``: the keys are spliced in sorted order around
    canonical renderings, exactly as the whole dict would be rendered.
    """
    text = (
        '{"options":' + canonical_json(options_dict)
        + ',"property":' + canonical_json(property_dict)
        + ',"system":' + system_json + "}"
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
