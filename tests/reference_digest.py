"""Reference implementation of the event payload digest, kept as a test
oracle for :func:`asyncadmm.engine.payload_digest`.

This is the original recursive canonicalisation: one ``_canonical`` call per
value and per list element. The engine renders numeric payloads from their
JSON text without the recursion, and its digests must equal these for every
JSON payload with string keys.
Not collected as tests.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _canonical(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _canonical([float(v) for v in value])
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}" for k, v in sorted(value.items())) + "}"
    return repr(value)


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:12]
