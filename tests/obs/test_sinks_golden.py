"""Golden-file tests for the JSONL and Chrome trace sinks.

A fixed mini-workload is traced into each file sink; volatile fields
(timestamps, durations, process/thread ids) are zeroed and the result is
compared byte-for-byte against the goldens under ``golden/``.  Regenerate
them with ``python tests/obs/test_sinks_golden.py`` after an intentional
format change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.obs.sinks import load_jsonl

GOLDEN = Path(__file__).parent / "golden"


def run_workload(sinks) -> None:
    """The fixed trace every golden is generated from."""
    with obs.tracing(sinks=sinks):
        with obs.span("demo.roundtrip", codec="fpzip-24",
                      bytes=1000, bytes_out=500):
            with obs.span("demo.inner", variable="U"):
                pass
        obs.counter("demo.items").add(2, kind="a")
        obs.counter("demo.items").add(1)
        obs.gauge("demo.level").set(0.5)


def _normalize_trace_ids(obj: dict) -> None:
    """Zero the random trace ids, preserving presence and None-ness."""
    if obj.get("trace"):
        obj["trace"] = "0" * 16
    if obj.get("span"):
        obj["span"] = "0" * 16
    if obj.get("parent_span"):
        obj["parent_span"] = "0" * 16


def normalized_jsonl(path) -> list[dict]:
    """Parse a JSONL trace with volatile fields zeroed."""
    out = []
    for line in Path(path).read_text().splitlines():
        obj = json.loads(line)
        obj.update(ts=0.0, pid=0, tid=0)
        if "dur" in obj:
            obj["dur"] = 0.0
        _normalize_trace_ids(obj)
        out.append(obj)
    return out


def normalized_chrome(path) -> dict:
    """Parse a Chrome trace with volatile fields zeroed."""
    obj = json.loads(Path(path).read_text())
    for event in obj["traceEvents"]:
        event.update(ts=0.0, pid=0, tid=0)
        if "dur" in event:
            event["dur"] = 0.0
        if "args" in event:
            _normalize_trace_ids(event["args"])
    return obj


def test_jsonl_matches_golden(tmp_path):
    trace = tmp_path / "trace.jsonl"
    sink = obs.JsonlSink(trace)
    run_workload([sink])
    sink.close()
    expected = json.loads((GOLDEN / "trace_jsonl.golden.json").read_text())
    assert normalized_jsonl(trace) == expected


def test_jsonl_roundtrips_through_aggregator(tmp_path):
    trace = tmp_path / "trace.jsonl"
    sink = obs.JsonlSink(trace)
    run_workload([sink])
    sink.close()
    agg = obs.Aggregator.from_jsonl(trace)
    assert agg.get("demo.roundtrip").count == 1
    assert agg.get("demo.roundtrip").cr == 0.5
    assert agg.counters["demo.items[kind=a]"] == 2
    assert agg.counters["demo.items"] == 1
    assert agg.gauges["demo.level"] == 0.5


def test_rebuilt_aggregator_equals_live(tmp_path):
    """A JSONL round trip preserves metric keys and span stats exactly.

    Labels carrying numpy scalars or tuples used to drift through the
    round trip (np.int64(2) came back as 2.0, tuples as lists), splitting
    one live metric key into two.  Live and rebuilt aggregators must now
    agree key-for-key and value-for-value.
    """
    import numpy as np

    trace = tmp_path / "trace.jsonl"
    sink = obs.JsonlSink(trace)
    live = obs.Aggregator()
    with obs.tracing(sinks=[sink, live]):
        with obs.span("demo.work", bytes=np.int64(1000),
                      bytes_out=np.int64(500)):
            pass
        obs.counter("demo.items").add(2, kind=np.int64(2))
        obs.counter("demo.items").add(3, kind=np.int64(2))
        obs.gauge("demo.pair").set(0.5, pair=(1, 2))
        obs.gauge("mem.rss_mb").set(123.0, pid=4242)
    sink.close()
    rebuilt = obs.Aggregator.from_jsonl(trace)
    assert rebuilt.counters == live.counters == {"demo.items[kind=2]": 5.0}
    assert rebuilt.gauges == live.gauges
    assert set(live.gauges) == {"demo.pair[pair=[1, 2]]",
                                "mem.rss_mb[pid=4242]"}
    assert rebuilt.spans == live.spans  # SpanStats dataclass equality


def test_worker_events_roundtrip_with_pids(tmp_path):
    """Worker-merged spans keep their pid/tid through the JSONL sink."""
    from repro.parallel.executor import parallel_map

    from tests.obs.test_parallel_merge import traced_task

    trace = tmp_path / "trace.jsonl"
    sink = obs.JsonlSink(trace)
    buf = obs.BufferSink()
    with obs.tracing(sinks=[sink, buf]):
        parallel_map(traced_task, [1, 2, 3, 4], workers=2)
    sink.close()
    originals = {(e.name, e.pid, e.tid) for e in buf.events
                 if isinstance(e, obs.SpanRecord)}
    reloaded = {(e.name, e.pid, e.tid)
                for e in load_jsonl(trace)
                if isinstance(e, obs.SpanRecord)}
    assert reloaded == originals
    worker_pids = {pid for name, pid, _ in originals if name == "work.unit"}
    assert worker_pids and all(pid != os.getpid() for pid in worker_pids)


def test_hist_lines_of_older_traces_are_skipped(tmp_path):
    """Traces written while histogram metrics existed still load."""
    trace = tmp_path / "old.jsonl"
    sink = obs.JsonlSink(trace)
    run_workload([sink])
    sink.close()
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "hist", "name": "compressors.compress_s",
            "value": 0.002, "ts": 0.0, "pid": 1, "tid": 1,
            "labels": {"codec": "fpzip-24"},
        }) + "\n")
    events = load_jsonl(trace)
    assert all(getattr(e, "kind", "span") != "hist" for e in events)
    agg = obs.Aggregator.from_jsonl(trace)
    assert agg.gauges == {"demo.level": 0.5}
    assert not any("compress_s" in key for key in agg.counters)


def test_chrome_matches_golden(tmp_path):
    trace = tmp_path / "chrome.json"
    sink = obs.ChromeTraceSink(trace)
    run_workload([sink])
    sink.close()
    expected = json.loads((GOLDEN / "chrome.golden.json").read_text())
    assert normalized_chrome(trace) == expected


def test_chrome_is_loadable_trace_object(tmp_path):
    trace = tmp_path / "chrome.json"
    sink = obs.ChromeTraceSink(trace)
    run_workload([sink])
    sink.close()
    obj = json.loads(trace.read_text())
    assert set(obj) == {"traceEvents", "displayTimeUnit"}
    phases = {e["ph"] for e in obj["traceEvents"]}
    assert phases == {"X", "C"}
    # timestamps rebase to t=0 and are sorted
    ts = [e["ts"] for e in obj["traceEvents"]]
    assert ts[0] == 0.0 and ts == sorted(ts)


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    jsonl = GOLDEN / "_tmp.jsonl"
    chrome = GOLDEN / "_tmp_chrome.json"
    for tmp in (jsonl, chrome):
        tmp.unlink(missing_ok=True)
    jsink, csink = obs.JsonlSink(jsonl), obs.ChromeTraceSink(chrome)
    run_workload([jsink, csink])
    jsink.close()
    csink.close()
    (GOLDEN / "trace_jsonl.golden.json").write_text(
        json.dumps(normalized_jsonl(jsonl), indent=1, sort_keys=True) + "\n"
    )
    (GOLDEN / "chrome.golden.json").write_text(
        json.dumps(normalized_chrome(chrome), indent=1, sort_keys=True) + "\n"
    )
    jsonl.unlink()
    chrome.unlink()


if __name__ == "__main__":
    _regenerate()
