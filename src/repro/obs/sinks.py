"""Pluggable trace/metric sinks: aggregator, JSON-lines, Chrome trace.

Every sink consumes the :class:`repro.obs.core.SpanRecord` /
:class:`repro.obs.core.MetricEvent` stream:

- :class:`Aggregator` — in-process per-stage statistics (count, total and
  mean wall time, bytes, compression ratio, MB/s), rendered by
  ``repro stats``;
- :class:`JsonlSink` — one JSON object per event, append-only and flushed
  per write, so a trace is loadable even mid-run (and rebuildable into an
  :class:`Aggregator` via :meth:`Aggregator.from_jsonl`);
- :class:`ChromeTraceSink` — the Chrome trace-event JSON object format;
  open the file in ``chrome://tracing`` or https://ui.perfetto.dev;
- :class:`BufferSink` — an in-memory list used to ferry worker events
  across the process boundary (see :class:`repro.obs.core.WorkerTask`).

Each stage's :class:`SpanStats` also counts its span durations in fixed
log-spaced buckets (:data:`BUCKET_BOUNDS`), so ``repro stats`` shows
p50/p95 next to the mean, per stage and per codec.  Span records carry
``trace_id``/``span_id``/``parent_id``, which :func:`render_trace_tree`
reassembles into one request's call tree across processes
(``repro stats --trace <id>``).

Sinks are zero-dependency (stdlib only) like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Iterable, TextIO

from repro.obs.core import MetricEvent, SpanRecord

__all__ = [
    "Aggregator",
    "BufferSink",
    "ChromeTraceSink",
    "JsonlSink",
    "Sink",
    "SpanStats",
    "list_traces",
    "render_trace_tree",
]


class Sink:
    """Event consumer interface; subclasses override what they need."""

    def on_span(self, record: SpanRecord) -> None:
        """Consume one completed span."""

    def on_metric(self, event: MetricEvent) -> None:
        """Consume one counter/gauge event."""

    def flush(self) -> None:
        """Make output produced so far loadable (file sinks)."""

    def close(self) -> None:
        """Flush and release resources."""
        self.flush()


# -- in-process aggregation --------------------------------------------------

#: Span-duration bucket upper bounds: 4 log-spaced buckets per decade
#: from 1 µs to ~17 min (10^-6 .. 10^3 s), then an implicit overflow
#: bucket.  Fixed, so every process buckets its spans alike.
BUCKET_BOUNDS = tuple(10.0 ** (-6 + i / 4) for i in range(9 * 4 + 1))


@dataclass
class SpanStats:
    """Accumulated wall-clock/byte statistics for one span name.

    ``counts`` buckets the durations over :data:`BUCKET_BOUNDS`
    (``le`` semantics: bucket ``i`` counts durations ``<= bounds[i]``).
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    bytes: int = 0
    bytes_out: int = 0
    mem_peak: int = 0
    counts: list[int] = field(
        default_factory=lambda: [0] * (len(BUCKET_BOUNDS) + 1))

    def add(self, duration: float, n_bytes: int, n_bytes_out: int,
            mem_peak: int = 0) -> None:
        """Fold one span's duration (seconds) and byte metadata in."""
        self.count += 1
        self.total += duration
        self.min = min(self.min, duration)
        self.max = max(self.max, duration)
        self.counts[bisect_left(BUCKET_BOUNDS, duration)] += 1
        self.bytes += n_bytes
        self.bytes_out += n_bytes_out
        self.mem_peak = max(self.mem_peak, mem_peak)

    @property
    def mean(self) -> float:
        """Mean duration in seconds."""
        return self.total / self.count if self.count else 0.0

    @property
    def mb_per_s(self) -> float | None:
        """Throughput over the uncompressed payload (``None`` if unknown)."""
        if self.bytes == 0 or self.total <= 0.0:
            return None
        return self.bytes / 1e6 / self.total

    @property
    def cr(self) -> float | None:
        """Compression ratio (bytes out / bytes in, smaller is better)."""
        if self.bytes == 0 or self.bytes_out == 0:
            return None
        return self.bytes_out / self.bytes

    def quantile(self, q: float) -> float:
        """The ``q``-quantile duration (``0 <= q <= 1``).

        Interpolates linearly inside the landing bucket and clamps to
        the observed ``[min, max]``, so a small sample never reports a
        quantile beyond anything actually seen.
        """
        if not self.count:
            return 0.0
        target = q * self.count
        cum = 0.0
        for i, c in enumerate(self.counts):
            if not c:
                continue
            lo_cum = cum
            cum += c
            if cum >= target:
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else self.min
                hi = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.max
                frac = max(0.0, min((target - lo_cum) / c, 1.0))
                value = lo + (hi - lo) * frac
                return max(self.min, min(value, self.max))
        return self.max


def _metric_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    # Canonicalize label values through _jsonable so a key built from
    # live events matches one rebuilt from a JSONL trace (numpy scalars
    # keep their int-ness via .item(); tuples render as lists either way).
    inner = ",".join(f"{k}={_jsonable(labels[k])}" for k in sorted(labels))
    return f"{name}[{inner}]"


class Aggregator(Sink):
    """Per-stage statistics plus counter/gauge totals.

    Spans fold into one :class:`SpanStats` per span name, with a
    per-``codec`` breakdown (from the span's ``codec`` metadata) kept on
    the side for drivers like Table 5 that need per-variant timings.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._by_codec: dict[tuple[str, str], SpanStats] = {}

    def on_span(self, record: SpanRecord) -> None:
        """Fold one span record into the per-stage statistics."""
        n_bytes = int(record.meta.get("bytes", 0))
        n_out = int(record.meta.get("bytes_out", 0))
        mem_peak = int(record.meta.get("mem_peak", 0))
        stats = self.spans.get(record.name)
        if stats is None:
            stats = self.spans[record.name] = SpanStats()
        stats.add(record.duration, n_bytes, n_out, mem_peak)
        codec = record.meta.get("codec")
        if codec is not None:
            key = (record.name, str(codec))
            per = self._by_codec.get(key)
            if per is None:
                per = self._by_codec[key] = SpanStats()
            per.add(record.duration, n_bytes, n_out, mem_peak)

    def on_metric(self, event: MetricEvent) -> None:
        """Fold one counter increment / gauge observation in."""
        key = _metric_key(event.name, event.labels)
        if event.kind == "counter":
            self.counters[key] = self.counters.get(key, 0.0) + event.value
        else:
            self.gauges[key] = event.value

    # -- queries -----------------------------------------------------------

    def get(self, name: str) -> SpanStats | None:
        """Statistics for one span name (``None`` if never seen)."""
        return self.spans.get(name)

    def codec_stats(self, name: str, codec: str) -> SpanStats | None:
        """Per-codec breakdown of one span name."""
        return self._by_codec.get((name, codec))

    @property
    def empty(self) -> bool:
        """True when no span or metric has ever been recorded."""
        return not (self.spans or self.counters or self.gauges)

    # -- rendering ---------------------------------------------------------

    def table(self, sort: str = "stage", top: int | None = None,
              name_filter: str | None = None) -> tuple[list[str], list[list]]:
        """The ``repro stats`` per-stage table as ``(headers, rows)``.

        ``sort`` orders rows by ``"stage"`` (name, ascending) or by
        ``"time"``/``"count"``/``"bytes"`` (descending); ``top`` keeps
        only the first N rows after sorting; ``name_filter`` keeps only
        span names matching the glob (applied before sorting/``top``).
        Under ``sort="bytes"`` spans that never recorded byte counters
        list at ``0.0`` MB rather than silently blanking out.  A
        trailing ``peak MB`` column appears when any span recorded a
        tracemalloc peak (``REPRO_TRACE_MEM``).
        """
        return self._stats_table(self.spans, sort, top, name_filter)

    def codec_table(self, sort: str = "stage", top: int | None = None,
                    name_filter: str | None = None
                    ) -> tuple[list[str], list[list]]:
        """The per-codec breakdown as ``(headers, rows)``.

        One row per (span name, codec) pair, labelled
        ``name[codec=…]``, with the columns and options of
        :meth:`table`.
        """
        stats = {f"{name}[codec={codec}]": s
                 for (name, codec), s in self._by_codec.items()}
        return self._stats_table(stats, sort, top, name_filter)

    def _stats_table(self, stats: dict[str, SpanStats], sort: str,
                     top: int | None, name_filter: str | None
                     ) -> tuple[list[str], list[list]]:
        keys: dict[str, Any] = {
            "time": lambda s: s.total,
            "count": lambda s: s.count,
            "bytes": lambda s: s.bytes,
        }
        if sort != "stage" and sort not in keys:
            raise ValueError(
                f"unknown sort {sort!r}; expected one of: "
                f"stage, {', '.join(keys)}"
            )
        names = sorted(stats)
        if name_filter is not None:
            names = [n for n in names if fnmatchcase(n, name_filter)]
        if sort != "stage":
            names.sort(key=lambda n: keys[sort](stats[n]), reverse=True)
        if top is not None:
            names = names[:max(top, 0)]
        with_mem = any(s.mem_peak for s in self.spans.values())
        headers = ["stage", "count", "total (s)", "mean (s)",
                   "p50 (s)", "p95 (s)", "MB", "CR", "MB/s"]
        if with_mem:
            headers.append("peak MB")
        rows: list[list] = []
        for name in names:
            s = stats[name]
            if s.bytes:
                mb = s.bytes / 1e6
            else:
                # Listing byte-less stages at zero keeps them visible
                # when explicitly sorting by bytes (they sort last).
                mb = 0.0 if sort == "bytes" else None
            row = [
                name, s.count, s.total, s.mean,
                s.quantile(0.50), s.quantile(0.95),
                mb, s.cr, s.mb_per_s,
            ]
            if with_mem:
                row.append(s.mem_peak / 1e6 if s.mem_peak else None)
            rows.append(row)
        return headers, rows

    def metrics_table(self) -> tuple[list[str], list[list]]:
        """Counter and gauge values as rows.

        ``store.*`` counters are left to :meth:`store_table`.
        """
        headers = ["metric", "kind", "value"]
        rows: list[list] = []
        for name in sorted(self.counters):
            if not name.startswith("store."):
                rows.append([name, "counter", self.counters[name]])
        for name in sorted(self.gauges):
            rows.append([name, "gauge", self.gauges[name]])
        return headers, rows

    def store_table(self) -> tuple[list[str], list[list]]:
        """The artifact store's counters as ``(headers, rows)``.

        Each ``store.*`` counter is summed over its labels.  Lookups
        lead, then hits and misses with their share of lookups, then
        every other counter.  No rows when no lookup was recorded.
        """
        totals: dict[str, float] = {}
        for key, value in self.counters.items():
            if key.startswith("store."):
                name = key[len("store."):].split("[", 1)[0]
                totals[name] = totals.get(name, 0.0) + value
        hits = totals.pop("hits", 0.0)
        misses = totals.pop("misses", 0.0)
        lookups = hits + misses
        rows: list[list] = []
        if lookups:
            rows = [
                ["lookups", int(lookups), None],
                ["hits", int(hits), hits / lookups * 100.0],
                ["misses", int(misses), misses / lookups * 100.0],
            ]
            rows += [[name, int(value), None]
                     for name, value in sorted(totals.items())]
        return ["store", "count", "%"], rows

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Aggregator":
        """Rebuild an aggregator from a :class:`JsonlSink` trace file."""
        agg = cls()
        for event in load_jsonl(path):
            if isinstance(event, SpanRecord):
                agg.on_span(event)
            else:
                agg.on_metric(event)
        return agg


# -- buffering (worker side) -------------------------------------------------

class BufferSink(Sink):
    """Collect raw events in memory (picklable, order-preserving)."""

    def __init__(self) -> None:
        self.events: list = []

    def on_span(self, record: SpanRecord) -> None:
        """Append the span record."""
        self.events.append(record)

    def on_metric(self, event: MetricEvent) -> None:
        """Append the metric event."""
        self.events.append(event)


# -- JSON lines --------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # numpy scalars unwrap via .item() (duck-typed — this module stays
    # stdlib-only) so np.int64(2) survives a JSONL round trip as 2, not
    # 2.0; anything else exotic collapses via float/str.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            unwrapped = item()
        except (TypeError, ValueError):
            unwrapped = None
        if isinstance(unwrapped, (str, int, float, bool)):
            return unwrapped
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class JsonlSink(Sink):
    """Append one JSON object per event to ``path``, flushing per write."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: TextIO | None = None

    def _write(self, obj: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()

    def on_span(self, record: SpanRecord) -> None:
        """Write the span as a ``{"type": "span", ...}`` line."""
        self._write({
            "type": "span", "name": record.name, "ts": record.ts,
            "dur": record.duration, "parent": record.parent,
            "depth": record.depth, "pid": record.pid, "tid": record.tid,
            "meta": _jsonable(record.meta), "trace": record.trace_id,
            "span": record.span_id, "parent_span": record.parent_id,
        })

    def on_metric(self, event: MetricEvent) -> None:
        """Write the metric as a ``{"type": <kind>, ...}`` line."""
        self._write({
            "type": event.kind, "name": event.name, "value": event.value,
            "ts": event.ts, "pid": event.pid, "tid": event.tid,
            "labels": _jsonable(event.labels),
        })

    def close(self) -> None:
        """Close the file handle."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_jsonl(path: str | Path) -> list:
    """Parse a :class:`JsonlSink` file back into records/events.

    Lines of any other type (the ``"hist"`` samples older traces hold)
    are skipped.
    """
    out: list = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if obj["type"] == "span":
            out.append(SpanRecord(
                name=obj["name"], ts=obj["ts"], duration=obj["dur"],
                parent=obj["parent"], depth=obj["depth"],
                pid=obj["pid"], tid=obj["tid"], meta=obj.get("meta", {}),
                trace_id=obj.get("trace", ""),
                span_id=obj.get("span", ""),
                parent_id=obj.get("parent_span"),
            ))
        elif obj["type"] in ("counter", "gauge"):
            out.append(MetricEvent(
                kind=obj["type"], name=obj["name"], value=obj["value"],
                ts=obj["ts"], pid=obj["pid"], tid=obj["tid"],
                labels=obj.get("labels", {}),
            ))
    return out


# -- Chrome trace ------------------------------------------------------------

class ChromeTraceSink(Sink):
    """Buffer events and write a ``chrome://tracing``/Perfetto JSON file.

    Spans become ``"X"`` (complete) events, counters become ``"C"``
    events; timestamps are rebased to the earliest event so the trace
    opens at t=0.  The file is (re)written on :meth:`flush`/:meth:`close`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._spans: list[SpanRecord] = []
        self._metrics: list[MetricEvent] = []

    def on_span(self, record: SpanRecord) -> None:
        """Buffer the span for the next flush."""
        self._spans.append(record)

    def on_metric(self, event: MetricEvent) -> None:
        """Buffer counters for the next flush (gauges are skipped)."""
        if event.kind == "counter":
            self._metrics.append(event)

    def flush(self) -> None:
        """Write the full trace file (idempotent, safe mid-run)."""
        if not self._spans and not self._metrics:
            return
        t0 = min(
            [r.ts for r in self._spans] + [e.ts for e in self._metrics]
        )
        events = []
        for r in self._spans:
            events.append({
                "ph": "X", "name": r.name, "cat": "span",
                "ts": (r.ts - t0) * 1e6, "dur": r.duration * 1e6,
                "pid": r.pid, "tid": r.tid,
                "args": _jsonable(dict(r.meta, parent=r.parent,
                                       depth=r.depth, trace=r.trace_id,
                                       span=r.span_id,
                                       parent_span=r.parent_id)),
            })
        totals: dict[tuple[int, str], float] = {}
        for e in self._metrics:
            key = (e.pid, e.name)
            totals[key] = totals.get(key, 0.0) + e.value
            events.append({
                "ph": "C", "name": e.name, "cat": "metric",
                "ts": (e.ts - t0) * 1e6, "pid": e.pid, "tid": 0,
                "args": {e.name: totals[key]},
            })
        events.sort(key=lambda ev: ev["ts"])
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- trace reconstruction ----------------------------------------------------

def list_traces(events: Iterable) -> list[tuple[str, int, float]]:
    """Per-trace ``(trace_id, span_count, total_s)`` rows, longest first.

    ``total_s`` sums root-span durations only (spans whose parent is
    outside the trace), so nested spans don't double-count.
    """
    spans: dict[str, list[SpanRecord]] = {}
    for ev in events:
        if isinstance(ev, SpanRecord) and ev.trace_id:
            spans.setdefault(ev.trace_id, []).append(ev)
    out: list[tuple[str, int, float]] = []
    for trace_id, records in spans.items():
        ids = {r.span_id for r in records}
        total = sum(r.duration for r in records
                    if r.parent_id is None or r.parent_id not in ids)
        out.append((trace_id, len(records), total))
    out.sort(key=lambda row: row[2], reverse=True)
    return out


def _resolve_trace(events: Iterable, prefix: str) -> list[SpanRecord]:
    matched: dict[str, list[SpanRecord]] = {}
    for ev in events:
        if isinstance(ev, SpanRecord) and ev.trace_id.startswith(prefix):
            matched.setdefault(ev.trace_id, []).append(ev)
    if not matched:
        raise ValueError(f"no trace matching {prefix!r}")
    if len(matched) > 1:
        ids = ", ".join(sorted(matched))
        raise ValueError(f"trace prefix {prefix!r} is ambiguous: {ids}")
    return next(iter(matched.values()))


def render_trace_tree(events: Iterable, trace_id: str) -> str:
    """One request's span tree across pids, as an indented text block.

    ``trace_id`` may be a unique prefix.  Spans whose ``parent_id`` is
    missing from the trace (e.g. the parent never closed) render as
    roots.  Raises :class:`ValueError` on no match or an ambiguous
    prefix.
    """
    records = _resolve_trace(events, trace_id)
    ids = {r.span_id for r in records}
    children: dict[str | None, list[SpanRecord]] = {}
    roots: list[SpanRecord] = []
    for r in records:
        if r.parent_id is not None and r.parent_id in ids:
            children.setdefault(r.parent_id, []).append(r)
        else:
            roots.append(r)
    for sibs in children.values():
        sibs.sort(key=lambda r: r.ts)
    roots.sort(key=lambda r: r.ts)
    pids = {r.pid for r in records}
    lines = [f"trace {records[0].trace_id} — {len(records)} span(s), "
             f"{len(pids)} pid(s)"]

    def walk(record: SpanRecord, indent: int) -> None:
        pad = "  " * indent
        lines.append(f"{pad}{record.name:<{max(44 - len(pad), 1)}} "
                     f"{record.duration * 1e3:10.3f} ms  pid {record.pid}")
        for child in children.get(record.span_id, ()):
            walk(child, indent + 1)

    for root in roots:
        walk(root, 1)
    return "\n".join(lines)
