"""Spans, counters, and gauges: the tracing core.

Activation mirrors :mod:`repro.check.hooks`: a tri-state override
(:func:`set_override` / the :func:`tracing` context manager) falls back to
the ``REPRO_TRACE`` environment variable.  When tracing is *off* — the
default — every instrumentation point costs one flag check and one small
object allocation, which keeps the untraced pipeline within noise
(``benchmarks/bench_obs_overhead.py`` enforces a <2% budget).

When tracing is *on*, :class:`span` records hierarchical wall-clock
timings (name, duration, parent, depth, metadata) and :class:`Counter` /
:class:`Gauge` record the domain's hot numbers (bytes in/out, compression
ratios, PVT tallies).  Events are dispatched to the installed sinks
(:mod:`repro.obs.sinks`): by default the process-global aggregator plus
any file sinks configured via ``REPRO_TRACE_JSONL`` / ``REPRO_TRACE_CHROME``.

Span context crosses process boundaries: :class:`WorkerTask` wraps a
``parallel_map`` task so the worker buffers its own spans/metrics and the
parent merges them on return (:func:`merge_events`), preserving the
worker's pid/tid so a Chrome trace shows one lane per process.

Every span additionally carries a :class:`TraceContext` — a
``trace_id`` shared by every span in one request plus a unique
``span_id``/``parent_id`` pair — so a request whose work fans out to
executor workers reconstructs as one tree (``repro stats --trace <id>``).
Spans are the only timing record: the aggregator folds each span's
duration into its stage's quantile buckets, so no separate latency
metric exists.

This module imports nothing from :mod:`repro` beyond the stdlib-only
:mod:`repro.config` (the environment-knob seam), so every layer —
including :mod:`repro.compressors.base` — can hook into it without
import cycles.  The span naming contract (``subsystem.stage``) is
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro import config as _config
from repro.obs import memory as _memory

__all__ = [
    "Counter",
    "Gauge",
    "MetricEvent",
    "SpanRecord",
    "TraceContext",
    "WorkerTask",
    "active",
    "aggregator",
    "counter",
    "current_context",
    "current_depth",
    "current_span_name",
    "flush_sinks",
    "gauge",
    "get_override",
    "merge_events",
    "reset",
    "set_override",
    "span",
    "traced",
    "tracing",
]


# -- trace identity ----------------------------------------------------------

def _new_id() -> str:
    """A fresh 64-bit hex id (only generated while tracing is on)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The identity one span carries: which request, which parent.

    ``trace_id`` is shared by every span of one logical request — across
    threads and worker processes; ``span_id`` is unique to one span;
    ``parent_id`` points at the enclosing span (``None`` for a trace
    root).  Frozen and picklable, so it rides :class:`WorkerTask`
    unchanged.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None


# -- event records -----------------------------------------------------------

@dataclass(frozen=True)
class SpanRecord:
    """One completed span, as handed to every sink."""

    name: str          #: dotted ``subsystem.stage`` name
    ts: float          #: wall-clock start (epoch seconds)
    duration: float    #: wall-clock duration (seconds)
    parent: str | None  #: enclosing span's name, if any
    depth: int         #: nesting depth (0 = root)
    pid: int
    tid: int
    meta: dict = field(default_factory=dict, compare=False)
    trace_id: str = ""          #: request identity (empty pre-v2 traces)
    span_id: str = ""           #: this span's unique id
    parent_id: str | None = None  #: enclosing span's id, if any


@dataclass(frozen=True)
class MetricEvent:
    """One counter increment or gauge observation."""

    kind: str          #: ``"counter"`` or ``"gauge"``
    name: str
    value: float
    ts: float
    pid: int
    tid: int
    labels: dict = field(default_factory=dict, compare=False)


# -- activation --------------------------------------------------------------

#: Tri-state override; ``None`` defers to the ``REPRO_TRACE`` env var.
_override: bool | None = None


def set_override(value: bool | None) -> None:
    """Force tracing on/off (``None`` restores ``REPRO_TRACE`` control)."""
    global _override
    _override = value


def get_override() -> bool | None:
    """Current override state (``None`` means env-controlled)."""
    return _override


def active() -> bool:
    """Whether instrumentation points should record for the current call."""
    if _override is not None:
        return _override
    return _config.env_flag("REPRO_TRACE")


# -- sink routing ------------------------------------------------------------

#: Explicit sink override installed by :func:`tracing`; ``None`` routes to
#: the default sinks (global aggregator + env-configured file sinks).
_sink_override: list | None = None
_default_sinks: list | None = None


def _build_default_sinks() -> list:
    from repro.obs import sinks as _sinks

    out: list = [_sinks.Aggregator()]
    jsonl = _config.env_str("REPRO_TRACE_JSONL")
    if jsonl:
        out.append(_sinks.JsonlSink(jsonl))
    chrome = _config.env_str("REPRO_TRACE_CHROME")
    if chrome:
        out.append(_sinks.ChromeTraceSink(chrome))
    return out


def _sinks_for_emit() -> list:
    global _default_sinks
    if _sink_override is not None:
        return _sink_override
    if _default_sinks is None:
        _default_sinks = _build_default_sinks()
    return _default_sinks


def aggregator():
    """The first aggregator among the active sinks (or ``None``).

    With default routing this is the process-global aggregator that
    ``repro stats`` renders.
    """
    from repro.obs.sinks import Aggregator

    for sink in _sinks_for_emit():
        if isinstance(sink, Aggregator):
            return sink
    return None


def flush_sinks() -> None:
    """Flush/close file sinks so their output is loadable right now."""
    for sink in _sinks_for_emit():
        sink.flush()


def reset() -> None:
    """Drop all default sinks and recorded state (test isolation)."""
    global _default_sinks
    if _default_sinks is not None:
        for sink in _default_sinks:
            sink.close()
    _default_sinks = None
    _tls.stack = []
    _tls.base_parent = None
    _tls.base_depth = 0
    _tls.base_ctx = None
    _memory.reset()


def _emit_span_record(record: SpanRecord) -> None:
    for sink in _sinks_for_emit():
        sink.on_span(record)


def _emit_metric_event(event: MetricEvent) -> None:
    for sink in _sinks_for_emit():
        sink.on_metric(event)


# -- the span stack ----------------------------------------------------------

class _TlsState(threading.local):
    def __init__(self) -> None:
        self.stack: list = []
        #: parent/depth seeds for spans opened with an empty stack —
        #: set inside workers so their spans nest under the submitting span.
        self.base_parent: str | None = None
        self.base_depth: int = 0
        #: TraceContext seed: the remote/submitting span a root span
        #: opened on this thread should hang under.
        self.base_ctx: TraceContext | None = None


_tls = _TlsState()


def current_span_name() -> str | None:
    """Name of the innermost open span on this thread (or ``None``)."""
    if _tls.stack:
        return _tls.stack[-1].name
    return _tls.base_parent


def current_depth() -> int:
    """Nesting depth a child span opened right now would get."""
    return len(_tls.stack) + _tls.base_depth


def current_context() -> TraceContext | None:
    """The innermost open span's trace context (or this thread's seed)."""
    if _tls.stack:
        return _tls.stack[-1].context
    return _tls.base_ctx


class span:
    """Context manager timing one ``subsystem.stage`` region.

    ::

        with span("pvt.zscore", variable="U") as sp:
            ...
            sp.note(n_points=z.size)

    Inactive tracing makes ``__enter__``/``__exit__``/``note`` no-ops.
    The span is recorded even when the body raises (the exception type is
    added to the metadata as ``error``) and the stack is always unwound,
    so a failing codec cannot corrupt nesting for its siblings.
    """

    __slots__ = ("name", "meta", "_on", "_mem", "_ts", "_t0", "_ctx",
                 "_dur")

    def __init__(self, name: str, **meta: Any) -> None:
        self._on = active()
        self.name = name
        self.meta = meta

    @property
    def context(self) -> TraceContext | None:
        """This span's trace identity (``None`` while tracing is off)."""
        return getattr(self, "_ctx", None)

    @property
    def duration(self) -> float:
        """Wall-clock duration in seconds (0.0 until the span closes)."""
        return getattr(self, "_dur", 0.0)

    def __enter__(self) -> "span":
        if self._on:
            parent_ctx = (_tls.stack[-1].context if _tls.stack
                          else _tls.base_ctx)
            self._ctx = TraceContext(
                trace_id=(parent_ctx.trace_id if parent_ctx is not None
                          else _new_id()),
                span_id=_new_id(),
                parent_id=(parent_ctx.span_id if parent_ctx is not None
                           else None),
            )
            _tls.stack.append(self)
            self._mem = _memory.mem_active()
            if self._mem:
                _memory.on_span_enter()
            self._ts = time.time()
            self._t0 = time.perf_counter()
        return self

    def note(self, **meta: Any) -> None:
        """Attach metadata discovered mid-span (e.g. output sizes)."""
        if self._on:
            self.meta.update(meta)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._on:
            return False
        duration = self._dur = time.perf_counter() - self._t0
        if self._mem:
            self.meta.update(_memory.on_span_exit())
        stack = _tls.stack
        # Unwind through any spans the body leaked (it raised before
        # closing a child): everything above us pops with us.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        parent = stack[-1].name if stack else _tls.base_parent
        depth = len(stack) + _tls.base_depth
        if exc_type is not None:
            self.meta.setdefault("error", exc_type.__name__)
        ctx = self._ctx
        _emit_span_record(SpanRecord(
            name=self.name, ts=self._ts, duration=duration,
            parent=parent, depth=depth, pid=os.getpid(),
            tid=threading.get_ident(), meta=dict(self.meta),
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=ctx.parent_id,
        ))
        if self._mem and not stack:
            # Root spans (this thread's outermost, including a worker
            # task's root) record the process footprint as a pid-labelled
            # gauge so per-process RSS survives the aggregator's folding.
            _emit_metric_event(MetricEvent(
                kind="gauge", name="mem.rss_mb",
                value=_memory.rss_bytes() / 1e6, ts=time.time(),
                pid=os.getpid(), tid=threading.get_ident(),
                labels={"pid": os.getpid()},
            ))
        return False


def traced(name: str | None = None) -> Callable:
    """Decorator form of :func:`span`: ``@traced("subsystem.stage")``.

    Bare ``@traced`` derives the span name from the function's module tail
    and name (``repro.pvt.tool.evaluate`` -> ``tool.evaluate``); prefer an
    explicit contract name.
    """

    def decorate(fn: Callable) -> Callable:
        from functools import wraps

        span_name = name
        if span_name is None:
            tail = fn.__module__.rsplit(".", 1)[-1]
            span_name = f"{tail}.{fn.__name__}"

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(span_name):
                return fn(*args, **kwargs)

        wrapper.__traced_span__ = span_name  # type: ignore[attr-defined]
        return wrapper

    if callable(name):  # bare @traced
        fn, name = name, None
        return decorate(fn)
    return decorate


# -- counters and gauges -----------------------------------------------------

class Counter:
    """A monotonically increasing tally (bytes, members, pass/fail)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def add(self, value: float = 1, **labels: Any) -> None:
        """Add ``value`` (no-op while tracing is inactive)."""
        if not active():
            return
        _emit_metric_event(MetricEvent(
            kind="counter", name=self.name, value=float(value),
            ts=time.time(), pid=os.getpid(), tid=threading.get_ident(),
            labels=labels,
        ))


class Gauge:
    """A last-value-wins observation (current CR, queue depth)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, value: float, **labels: Any) -> None:
        """Record ``value`` (no-op while tracing is inactive)."""
        if not active():
            return
        _emit_metric_event(MetricEvent(
            kind="gauge", name=self.name, value=float(value),
            ts=time.time(), pid=os.getpid(), tid=threading.get_ident(),
            labels=labels,
        ))


_METRICS: dict[tuple[str, str], Any] = {}


def counter(name: str) -> Counter:
    """Interned :class:`Counter` for ``name``."""
    key = ("counter", name)
    got = _METRICS.get(key)
    if got is None:
        got = _METRICS[key] = Counter(name)
    return got


def gauge(name: str) -> Gauge:
    """Interned :class:`Gauge` for ``name``."""
    key = ("gauge", name)
    got = _METRICS.get(key)
    if got is None:
        got = _METRICS[key] = Gauge(name)
    return got


# -- scoped control ----------------------------------------------------------

@contextmanager
def tracing(enabled: bool = True, sinks: Iterable | None = None) -> Iterator[None]:
    """Force tracing on/off for a block, optionally to explicit sinks.

    ``tracing(sinks=[agg])`` routes every event in the block to ``agg``
    only — the default sinks (global aggregator, env file sinks) see
    nothing, which is how drivers and tests get isolated measurements.
    """
    global _sink_override
    prev_override = _override
    prev_sinks = _sink_override
    set_override(bool(enabled))
    if sinks is not None:
        _sink_override = list(sinks)
    try:
        yield
    finally:
        set_override(prev_override)
        _sink_override = prev_sinks


# -- cross-process propagation -----------------------------------------------

class WorkerTask:
    """Picklable wrapper running a task under buffered tracing in a worker.

    ``parallel_map`` wraps its task function with this when tracing is
    active.  The worker records into a private buffer (never into file
    sinks — a forked worker must not interleave writes with the parent)
    and returns ``(result, events)``; the parent replays the events into
    its own sinks via :func:`merge_events`.
    """

    def __init__(self, fn: Callable, parent: str | None = None,
                 depth: int = 0, mem: bool | None = None,
                 ctx: TraceContext | None = None) -> None:
        self.fn = fn
        self.parent = parent
        self.depth = depth
        #: Memory-profiling state captured on the parent side, so a
        #: ``profiling_memory()`` override crosses the pool the same way
        #: the tracing override does (env vars already cross via fork).
        self.mem = _memory.mem_active() if mem is None else mem
        #: Trace context captured on the parent side; worker root spans
        #: adopt it so they join the submitting request's trace.
        self.ctx = current_context() if ctx is None and active() else ctx

    def __call__(self, item: Any) -> tuple[Any, list]:
        from repro.obs.sinks import BufferSink

        global _sink_override
        buffer = BufferSink()
        prev_override = _override
        prev_sinks = _sink_override
        prev_parent = _tls.base_parent
        prev_depth = _tls.base_depth
        prev_ctx = _tls.base_ctx
        prev_mem = _memory.get_mem_override()
        # A fork-started worker inherits the parent's open span stack;
        # the submitting span is represented by parent/depth instead.
        prev_stack = _tls.stack
        set_override(True)
        _memory.set_mem_override(self.mem)
        _sink_override = [buffer]
        _tls.base_parent = self.parent
        _tls.base_depth = self.depth
        _tls.base_ctx = self.ctx
        _tls.stack = []
        try:
            result = self.fn(item)
        finally:
            set_override(prev_override)
            _memory.set_mem_override(prev_mem)
            _sink_override = prev_sinks
            _tls.base_parent = prev_parent
            _tls.base_depth = prev_depth
            _tls.base_ctx = prev_ctx
            _tls.stack = prev_stack
        return result, buffer.events


def merge_events(events: Iterable) -> None:
    """Replay a worker's buffered events into this process's sinks.

    Events keep their original pid/tid, so file sinks show one lane per
    worker process while the aggregator folds everything together.
    """
    for event in events:
        if isinstance(event, SpanRecord):
            _emit_span_record(event)
        elif isinstance(event, MetricEvent):
            _emit_metric_event(event)
        else:
            raise TypeError(
                f"cannot merge event of type {type(event).__name__}"
            )
