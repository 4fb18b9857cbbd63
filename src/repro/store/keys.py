"""Deterministic artifact keys: canonical JSON in, SHA-256 hex out.

A key names the *producing configuration* of an artifact, never the
artifact itself: stage name, scale parameters, codec identity, member
selection, and a code-version salt are serialized canonically (sorted
keys, no whitespace, tuples as lists, numpy scalars as Python scalars)
and hashed.  Two processes that would compute the same thing therefore
derive the same key, and any change to an input — including bumping
:data:`STORE_SALT` after a semantic code change — derives a fresh one.

What is deliberately *not* hashed: ``ReproConfig.workers`` (parallelism
must not change results) and cosmetic labels.  Large arrays are folded
in by content via :func:`array_fingerprint` rather than embedded.

The full derivation contract is documented in ``docs/caching.md``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

__all__ = [
    "STORE_SALT",
    "array_fingerprint",
    "artifact_key",
    "canonical_json",
    "config_fingerprint",
    "jsonable",
]

#: Code-version salt mixed into every key.  Bump when a cached stage's
#: semantics change so stale artifacts miss instead of being served.
STORE_SALT = 3


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` to canonical JSON-ready primitives.

    dicts keep (stringified) keys, tuples become lists, numpy scalars
    become Python scalars, and ndarrays are replaced by their content
    fingerprint.  Anything else raises ``TypeError`` so non-deterministic
    inputs cannot silently leak into a key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__array_sha256__": array_fingerprint(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} into an artifact "
        "key; pass primitives, dicts/sequences of them, or numpy data"
    )


def canonical_json(value: Any) -> str:
    """The canonical serialization hashed by :func:`artifact_key`."""
    return json.dumps(
        jsonable(value), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def array_fingerprint(array: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and raw contents.

    ``array`` may be any dtype/shape; it is made contiguous (a copy only
    when needed) so the digest depends on values, not memory layout.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def config_fingerprint(config: Any) -> dict[str, int]:
    """The key-relevant fields of a :class:`repro.config.ReproConfig`.

    ``workers`` is excluded on purpose: results are independent of the
    process-pool width, so serial and parallel runs share artifacts.
    """
    return {
        name: int(getattr(config, name))
        for name in ("ne", "nlev", "n_members", "n_2d", "n_3d",
                     "base_seed")
    }


def artifact_key(stage: str, *, config: Any = None, **params: Any) -> str:
    """Derive the store key for one ``stage`` run with ``params``.

    ``config`` folds in :func:`config_fingerprint`; everything else is
    canonicalized verbatim.  Returns 64 hex characters.
    """
    payload: dict[str, Any] = {
        "stage": stage,
        "salt": STORE_SALT,
        "params": params,
    }
    if config is not None:
        payload["config"] = config_fingerprint(config)
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()
