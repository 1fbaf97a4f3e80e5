"""Deterministic content fingerprints for stage cache keys.

A stage key must change whenever anything that can change the stage's
output changes — the source text, any field of the relevant options
subtree, the component library — and must be stable across processes
so an on-disk cache survives a restart.  :func:`fingerprint` therefore
canonicalizes its inputs into a JSON-serializable structure (dataclass
fields in declaration order, dict keys sorted, floats via ``repr``)
and hashes that; it never relies on ``hash()`` (randomized per
process) or default ``repr`` (which can leak memory addresses).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def canonicalize(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serializable canonical structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; json would too, but keeping the
        # float as text makes the canonical form unambiguous.
        return f"f:{obj!r}"
    if isinstance(obj, bytes):
        return f"b:{obj.hex()}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__qualname__,
            "fields": [
                [f.name, canonicalize(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        }
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                ([str(k), canonicalize(v)] for k, v in obj.items()),
                key=lambda kv: kv[0],
            )
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(canonicalize(v), sort_keys=True) for v in obj
            )
        }
    # Duck-typed component library: name + every spec, order-independent.
    specs = getattr(obj, "specs", None)
    if callable(specs):
        return {
            "__library__": getattr(obj, "name", "?"),
            "specs": sorted(
                (
                    json.dumps(canonicalize(s), sort_keys=True)
                    for s in specs()
                ),
            ),
        }
    # Last resort: a repr with memory addresses stripped, so an exotic
    # object degrades to a stable-ish key instead of crashing the flow.
    return f"{type(obj).__qualname__}:{_ADDRESS.sub('0xX', repr(obj))}"


def fingerprint(*parts: object) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``."""
    payload = json.dumps(
        canonicalize(list(parts)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def library_fingerprint(library: object) -> str:
    """Content fingerprint of a component library (name + all specs)."""
    return fingerprint(library)
