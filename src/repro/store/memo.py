"""Incremental recomputation: ``cached()``.

This is the seam the pipeline calls through (ensemble build, PVT
verdicts, hybrid plans, table rows).  With no active store it reduces
to calling the compute function — zero behavior change.  With a store,
the key is looked up first and the computation only runs on a miss; the
result is then written back so the *next* run of any stage whose config
hash is unchanged is a read, not a recompute.

A failed write-back (disk full, permissions) never fails the pipeline:
the computed value is returned and ``store.put_errors`` ticks.

A compute function can also *veto* the write-back by raising
:class:`SkipStore` around its value: ``cached()`` returns the value but
stores nothing and ticks ``store.skipped``.  The executor-integration
layers use this for partial results — a table built while some parallel
tasks failed must reach the caller (degraded, with its failure summary)
but must never be served from cache as if it were complete.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.store.core import ArtifactStore, get_store

__all__ = ["SkipStore", "cached"]

_PUT_ERRORS = obs.counter("store.put_errors")
_SKIPPED = obs.counter("store.skipped")


class SkipStore(Exception):
    """Raised by a compute function to return a value without caching it.

    ``raise SkipStore(value)`` inside ``cached()``'s compute makes the
    call behave as if no store were active for this one result.
    """

    def __init__(self, value: Any) -> None:
        super().__init__("store write suppressed for this value")
        self.value = value

#: Internal miss sentinel so a legitimately cached ``None`` still hits.
_MISSING = object()


def cached(
    key: str,
    compute: Callable[[], Any],
    *,
    kind: str = "pkl",
    stage: str = "",
    meta: dict | None = None,
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    store: ArtifactStore | None = None,
) -> Any:
    """Return the artifact for ``key``, computing and storing on miss.

    ``encode``/``decode`` map between the live value and its storable
    form (e.g. a frozen dataclass of arrays <-> an ``"npz"`` dict); omit
    them when the value is directly storable under ``kind``.  ``store``
    overrides the ambient active store (used by forked workers).
    """
    st = store if store is not None else get_store()
    if st is None:
        try:
            return compute()
        except SkipStore as skip:
            return skip.value
    found = st.get(key, _MISSING)
    if found is not _MISSING:
        return decode(found) if decode is not None else found
    try:
        value = compute()
    except SkipStore as skip:
        _SKIPPED.add(1, stage=stage)
        return skip.value
    storable = encode(value) if encode is not None else value
    try:
        st.put(key, storable, kind=kind, stage=stage, meta=meta)
    except OSError:
        _PUT_ERRORS.add(1, stage=stage)
    return value

