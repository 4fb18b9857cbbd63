"""Per-run observability report: one plain-text page per traced run.

``repro report`` condenses an :class:`repro.obs.sinks.Aggregator` —
either the live one from a workload the CLI just traced, or one rebuilt
from a ``REPRO_TRACE_JSONL`` file — into the questions a perf reader
actually asks:

- where did the time go? (top-N spans by total wall time);
- what did the run do? (counter totals, gauge last-values);
- how was latency distributed? (histogram quantiles — p50/p95/p99 of
  codec, executor-task, and stream-fold timings);
- did the cache help? (``store.*`` hit/miss/put rates);
- what did it cost in memory? (per-span tracemalloc peaks and per-pid
  RSS gauges, present when the run had ``REPRO_TRACE_MEM=1``).

Rendering reuses :func:`repro.harness.report.render_table`, so this is
a *leaf* module: it may import the harness and is deliberately not
re-exported from the stdlib-only ``repro.obs.__init__``.
"""

from __future__ import annotations

from repro.obs.sinks import Aggregator

__all__ = ["render_report"]

_RSS_PREFIX = "mem.rss_mb"


def _store_section(agg: Aggregator) -> str | None:
    hits = agg.counters.get("store.hits", 0.0)
    misses = agg.counters.get("store.misses", 0.0)
    lookups = hits + misses
    if lookups == 0:
        return None
    from repro.harness.report import render_table

    rows = [
        ["lookups", int(lookups), None],
        ["hits", int(hits), hits / lookups * 100.0],
        ["misses", int(misses), misses / lookups * 100.0],
    ]
    for name, label in (("store.puts", "puts"),
                        ("store.corrupt", "corrupt"),
                        ("store.evicted", "evicted"),
                        ("store.put_errors", "put errors")):
        if name in agg.counters:
            rows.append([label, int(agg.counters[name]), None])
    return render_table(["store", "count", "%"], rows,
                        title="Artifact store")


def _memory_section(agg: Aggregator, top: int) -> str | None:
    from repro.harness.report import render_table

    peaks = [(name, stats) for name, stats in agg.spans.items()
             if stats.mem_peak > 0]
    rss = {name: value for name, value in agg.gauges.items()
           if name.startswith(_RSS_PREFIX)}
    if not peaks and not rss:
        return None
    pieces: list[str] = []
    if peaks:
        peaks.sort(key=lambda item: item[1].mem_peak, reverse=True)
        rows = [[name, stats.count, stats.mem_peak / 1e6]
                for name, stats in peaks[:top]]
        pieces.append(render_table(
            ["stage", "count", "peak MB"], rows,
            title=f"Memory: top {len(rows)} span peaks (tracemalloc)",
        ))
    if rss:
        rows = [[name, value] for name, value in sorted(rss.items())]
        pieces.append(render_table(
            ["gauge", "RSS MB"], rows, title="Memory: process RSS",
        ))
    return "\n\n".join(pieces)


def render_report(agg: Aggregator, top: int = 10,
                  title: str | None = None) -> str:
    """Render the full per-run report as one plain-text page."""
    from repro.harness.report import render_table

    if agg.empty:
        return "(no spans or metrics recorded; was tracing on? " \
               "set REPRO_TRACE=1 or use repro.obs.tracing())"
    pieces: list[str] = []
    if title:
        pieces.append(title)
    if agg.spans:
        headers, rows = agg.table(sort="time", top=top)
        pieces.append(render_table(
            headers, rows,
            title=f"Top {len(rows)} stages by total time", precision=4,
        ))
    counter_rows = [[name, agg.counters[name]]
                    for name in sorted(agg.counters)
                    if not name.startswith("store.")]
    if counter_rows:
        pieces.append(render_table(["counter", "total"], counter_rows,
                                   title="Counters", precision=4))
    gauge_rows = [[name, agg.gauges[name]]
                  for name in sorted(agg.gauges)
                  if not name.startswith(_RSS_PREFIX)]
    if gauge_rows:
        pieces.append(render_table(["gauge", "last value"], gauge_rows,
                                   title="Gauges", precision=4))
    hist_rows = []
    for name in sorted(agg.hists):
        s = agg.hists[name].summary()
        if s["count"]:
            hist_rows.append([name, int(s["count"]), s["p50"],
                              s["p95"], s["p99"], s["max"]])
    if hist_rows:
        pieces.append(render_table(
            ["histogram", "count", "p50 (s)", "p95 (s)", "p99 (s)",
             "max (s)"],
            hist_rows, title="Latency distributions", precision=4))
    store = _store_section(agg)
    if store:
        pieces.append(store)
    mem = _memory_section(agg, top)
    if mem:
        pieces.append(mem)
    return "\n\n".join(pieces)
