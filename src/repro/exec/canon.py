"""Canonical forms: hash-stable JSON for cache keys.

The evaluation engine addresses cells by *content*, which needs one
canonical rendering that is independent of dict insertion order, container
flavor (tuple vs list, set vs sorted list), and float formatting noise.
:func:`canonical` produces that rendering as plain JSON-able data,
:func:`canonical_json` serializes it deterministically, and
:func:`content_digest` hashes it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical", "canonical_json", "content_digest"]


def canonical(value: Any) -> Any:
    """A JSON-able canonical form: dicts keyed by str, sets sorted,
    tuples as lists, floats rounded past replay precision, rest repr'd."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=repr)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return round(value, 12)
    return repr(value)


def canonical_json(value: Any) -> str:
    """The deterministic JSON rendering of :func:`canonical`."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def content_digest(value: Any) -> str:
    """A sha256 hex digest of the canonical JSON rendering."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()
