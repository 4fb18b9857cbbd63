"""Content-addressed artifact store with incremental recomputation.

The pipeline's expensive stages — the dycore ensemble run, per-variable
PVT verdicts, hybrid plans, whole table rows — are pure functions of a
small producing configuration.  This package names each result by the
SHA-256 of that configuration (:mod:`repro.store.keys`), persists it as
a self-verifying file (:mod:`repro.store.artifacts`) in an LRU-capped
cache directory (:mod:`repro.store.core`), and wraps the call sites with
:func:`cached` (:mod:`repro.store.memo`) so a second run of any table
only recomputes stages whose inputs changed.

Caching is strictly opt-in: with ``REPRO_STORE`` unset and no
programmatic override, :func:`get_store` returns ``None`` and every
wrapper calls straight through.  See ``docs/caching.md`` for the key
derivation and invalidation contract and the CLI walkthrough
(``repro store ls|info|gc|clear``).
"""

from repro.store.artifacts import (
    Artifact,
    CorruptArtifact,
    KINDS,
    decode_payload,
    encode_payload,
)
from repro.store.core import (
    ArtifactStore,
    adopt_root,
    clear_override,
    current_root,
    get_store,
    set_store,
    storing,
)
from repro.store.keys import (
    STORE_SALT,
    array_fingerprint,
    artifact_key,
    canonical_json,
    config_fingerprint,
    jsonable,
)
from repro.store.memo import SkipStore, cached

__all__ = [
    "Artifact",
    "ArtifactStore",
    "CorruptArtifact",
    "adopt_root",
    "current_root",
    "KINDS",
    "STORE_SALT",
    "SkipStore",
    "array_fingerprint",
    "artifact_key",
    "cached",
    "canonical_json",
    "clear_override",
    "config_fingerprint",
    "decode_payload",
    "encode_payload",
    "get_store",
    "jsonable",
    "set_store",
    "storing",
]
