"""Zero-copy array transport over POSIX shared memory.

The process pool normally pickles every task payload and result
through the pool's pipes, so an N-byte array costs ~2N of serialization
plus two copies per direction.  This module moves the array *bytes* into
``multiprocessing.shared_memory`` segments and sends only pickled
:class:`ArrayRef` descriptors (segment name, shape, dtype) through the
pipe; workers attach the segment and map the array in place.

Ownership is strictly parent-side.  The :class:`ShmTransport` that a
:func:`~repro.parallel.executor.parallel_map` run creates is the single
ledger of live segments: every submitted task's segments are registered
under the task's index and released (closed + unlinked) the moment the
task settles — success, failure, pool crash, or abandoned round.  Workers only ever *attach*: they never unlink, and they detach
before returning, so a killed worker cannot leak anything the parent
does not already know about.

Two failure modes need extra care:

- **Parent death.**  A SIGKILLed parent takes the resource tracker with
  it, orphaning any in-flight segments.  Segment names embed the owner
  pid (``repro-shm-<pid>-<seq>``) so :func:`reclaim_orphans` can sweep
  ``/dev/shm`` for segments whose owner is gone and unlink them; every
  new :class:`ShmTransport` runs that sweep once, so long-lived services
  self-heal from earlier hard kills.
- **Result aliasing.**  A worker's return value may be a view into an
  attached segment (e.g. an identity transform).  Returning such a view
  after the segment closes means reading unmapped memory, so
  :meth:`Attachments.detach` copies any array that may share memory
  with an attachment before the segment is closed.

The transport is on for ``repro.stream`` parallel pipelines and for any
``parallel_map(..., shm=True)``; arrays below :data:`DEFAULT_MIN_BYTES` keep the
pickle path.  See ``docs/streaming.md``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro import obs

__all__ = [
    "ArrayRef",
    "Attachments",
    "DEFAULT_MIN_BYTES",
    "ShmTransport",
    "open_payload",
    "reclaim_orphans",
]

#: Arrays smaller than this travel by pickle: a descriptor round trip
#: (create + attach + two mmaps) costs more than copying a few KiB.
DEFAULT_MIN_BYTES = 1 << 16

#: Segment-name prefix; the embedded pid makes orphans attributable.
_PREFIX = "repro-shm"
_NAME_RE = re.compile(r"^repro-shm-(\d+)-\d+$")

_SEGMENTS = obs.counter("parallel.shm.segments")
_BYTES = obs.counter("parallel.shm.bytes")
_RECLAIMED = obs.counter("parallel.shm.reclaimed")
_LIVE = obs.gauge("parallel.shm.live")


@dataclass(frozen=True)
class ArrayRef:
    """Picklable descriptor of one array living in a shared segment."""

    segment: str
    shape: tuple[int, ...]
    dtype: str
    nbytes: int


def _walk(obj: Any, fn: Any) -> Any:
    """Rebuild ``obj`` with ``fn`` applied to every leaf.

    Containers (tuple/list/dict) are rebuilt only when a leaf actually
    changed, so pickle-transported payload parts stay identical objects.
    """
    if isinstance(obj, tuple):
        walked = [_walk(item, fn) for item in obj]
        if all(a is b for a, b in zip(walked, obj)):
            return obj
        return tuple(walked)
    if isinstance(obj, list):
        walked = [_walk(item, fn) for item in obj]
        if all(a is b for a, b in zip(walked, obj)):
            return obj
        return walked
    if isinstance(obj, dict):
        walked_d = {key: _walk(value, fn) for key, value in obj.items()}
        if all(walked_d[key] is obj[key] for key in obj):
            return obj
        return walked_d
    return fn(obj)


class ShmTransport:
    """Parent-side segment ledger for one executor map run.

    ``encode(key, payload)`` copies each large array in ``payload`` into
    a fresh segment and substitutes an :class:`ArrayRef`; the segments
    are recorded under ``key`` (the submitted task's index) and
    destroyed by ``release(key)`` when that task settles, or by
    ``release_all()`` when the run ends.  Both are idempotent, so every
    failure path can release defensively.
    """

    def __init__(self, min_bytes: int = DEFAULT_MIN_BYTES) -> None:
        self.min_bytes = min_bytes
        self._seq = 0
        self._refs: dict[Any, list[shared_memory.SharedMemory]] = {}
        reclaim_orphans()

    # -- encoding (parent) ------------------------------------------------

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        while True:
            self._seq += 1
            name = f"{_PREFIX}-{os.getpid()}-{self._seq}"
            try:
                return shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes)
            except FileExistsError:
                continue  # stale name from a recycled pid; try the next

    def _publish(self, array: np.ndarray,
                 owned: list[shared_memory.SharedMemory]) -> ArrayRef:
        data = np.ascontiguousarray(array)
        seg = self._new_segment(max(data.nbytes, 1))
        owned.append(seg)
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=seg.buf)
        view[...] = data
        _SEGMENTS.add(1)
        _BYTES.add(data.nbytes)
        return ArrayRef(segment=seg.name, shape=tuple(data.shape),
                        dtype=data.dtype.str, nbytes=data.nbytes)

    def encode(self, key: Any, payload: Any) -> Any:
        """Replace large arrays in ``payload`` with :class:`ArrayRef`\\ s.

        The created segments are registered under ``key`` until
        :meth:`release` is called with the same key.
        """
        owned: list[shared_memory.SharedMemory] = []

        def leaf(obj: Any) -> Any:
            if (isinstance(obj, np.ndarray)
                    and obj.nbytes >= self.min_bytes
                    and obj.dtype != object):
                return self._publish(obj, owned)
            return obj

        try:
            encoded = _walk(payload, leaf)
        except BaseException:
            for seg in owned:
                _destroy(seg)
            raise
        if owned:
            self._refs.setdefault(key, []).extend(owned)
            _LIVE.set(self.live_segments())
        return encoded

    # -- lifecycle (parent) -----------------------------------------------

    def live_segments(self) -> int:
        """Number of segments currently registered (for tests/obs)."""
        return sum(len(segs) for segs in self._refs.values())

    def release(self, key: Any) -> None:
        """Destroy every segment registered under ``key`` (idempotent)."""
        for seg in self._refs.pop(key, []):
            _destroy(seg)
        _LIVE.set(self.live_segments())

    def release_all(self) -> None:
        """Destroy every registered segment (end-of-run backstop)."""
        for key in list(self._refs):
            self.release(key)


def _destroy(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except OSError:  # pragma: no cover - close on a dead mapping
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass  # already reclaimed (e.g. by an orphan sweep)


# -- decoding (worker) -----------------------------------------------------


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without adopting ownership.

    ``SharedMemory(name)`` registers the segment with the attaching
    process's resource tracker, which would unlink it when the *worker*
    exits — stealing the parent's segment and spamming leak warnings.
    Python 3.13 grew ``track=False`` for exactly this; on older runtimes
    the registration call is suppressed for the duration of the attach
    (unregistering *after* the fact is wrong under the fork start
    method, where parent and worker share one tracker process and the
    worker would erase the parent's registration).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None  # type: ignore
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class Attachments:
    """A worker's open attachments for one decoded payload."""

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._views: list[np.ndarray] = []

    def attach(self, ref: ArrayRef) -> np.ndarray:
        """Map ``ref``'s segment and return the array view."""
        seg = _attach(ref.segment)
        self._segments.append(seg)
        view: np.ndarray = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
        self._views.append(view)
        return view

    def detach(self, value: Any) -> Any:
        """Copy out any part of ``value`` aliasing an attached segment.

        Results go back to the parent by pickle *after* the attachments
        close, so a view into a segment must be materialized first.
        ``np.may_share_memory`` is cheap and over-approximates — a
        needless copy is safe, a missed alias is a crash.
        """
        def leaf(obj: Any) -> Any:
            if isinstance(obj, np.ndarray) and any(
                    np.may_share_memory(obj, view)
                    for view in self._views):
                return np.array(obj, copy=True)
            return obj

        return _walk(value, leaf)

    def close(self) -> None:
        """Drop the views and close every mapping (worker-side only)."""
        self._views.clear()
        for seg in self._segments:
            try:
                seg.close()
            except OSError:  # pragma: no cover - already unmapped
                pass
        self._segments.clear()


def open_payload(payload: Any) -> tuple[Any, Attachments]:
    """Resolve every :class:`ArrayRef` in ``payload`` to a live view.

    Returns the decoded payload and the :class:`Attachments` holding the
    mappings; the caller must ``detach`` its results and ``close`` the
    attachments before returning.
    """
    atts = Attachments()

    def leaf(obj: Any) -> Any:
        if isinstance(obj, ArrayRef):
            return atts.attach(obj)
        return obj

    try:
        return _walk(payload, leaf), atts
    except BaseException:
        atts.close()
        raise


# -- orphan recovery -------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def reclaim_orphans(shm_dir: str = "/dev/shm") -> int:
    """Unlink transport segments whose owning process is dead.

    A parent killed with SIGKILL cannot release its segments and its
    resource tracker dies with it; the pid embedded in each segment name
    makes such leaks attributable, and this sweep (run by every new
    :class:`ShmTransport`) reclaims them.  Returns the number of
    segments removed.
    """
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return 0  # no POSIX shm mount (non-Linux); nothing to sweep
    reclaimed = 0
    for name in names:
        match = _NAME_RE.match(name)
        if match is None or _pid_alive(int(match.group(1))):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:
            continue  # raced with another sweep
        reclaimed += 1
    if reclaimed:
        _RECLAIMED.add(reclaimed)
    return reclaimed
