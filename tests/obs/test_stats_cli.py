"""The ``repro stats`` command."""

from __future__ import annotations

import pytest

from repro import obs
from repro.cli import build_parser, main

SCALE = ["--ne", "3", "--nlev", "5", "--members", "21"]


def test_parser_defaults():
    args = build_parser().parse_args(["stats"])
    assert args.variant == "fpzip-24"
    assert args.workers == 2
    assert not args.bias
    assert args.from_jsonl is None
    assert args.sort == "stage"
    assert args.top is None
    assert args.filter is None
    assert args.trace is None


def _synthetic_agg() -> obs.Aggregator:
    agg = obs.Aggregator()
    specs = [  # (name, duration, bytes, count)
        ("alpha", 5.0, 100, 1),
        ("beta", 1.0, 900, 3),
        ("gamma", 3.0, 500, 2),
    ]
    for name, dur, n_bytes, count in specs:
        for _ in range(count):
            agg.on_span(obs.SpanRecord(
                name=name, ts=0.0, duration=dur / count, parent=None,
                depth=0, pid=0, tid=0, meta={"bytes": n_bytes // count},
            ))
    return agg


def test_table_sort_orders():
    agg = _synthetic_agg()
    by = {sort: [row[0] for row in agg.table(sort=sort)[1]]
          for sort in ("stage", "time", "count", "bytes")}
    assert by["stage"] == ["alpha", "beta", "gamma"]
    assert by["time"] == ["alpha", "gamma", "beta"]
    assert by["count"] == ["beta", "gamma", "alpha"]
    assert by["bytes"] == ["beta", "gamma", "alpha"]


def test_table_top_truncates_after_sorting():
    headers, rows = _synthetic_agg().table(sort="time", top=2)
    assert [row[0] for row in rows] == ["alpha", "gamma"]
    assert _synthetic_agg().table(sort="stage", top=0)[1] == []


def test_table_rejects_unknown_sort():
    with pytest.raises(ValueError, match="unknown sort"):
        _synthetic_agg().table(sort="vibes")


def test_stats_cli_sort_and_top(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        with obs.span("demo.slow"):
            pass
        with obs.span("demo.fast"):
            pass
    sink.close()
    assert main(["stats", "--from-jsonl", str(trace),
                 "--sort", "time", "--top", "1"]) == 0
    out = capsys.readouterr().out
    stages = [ln for ln in out.splitlines() if ln.startswith("demo.")]
    assert len(stages) == 1


def test_stats_runs_traced_workload(capsys):
    assert main(["stats", "NetCDF-4", "U", "--workers", "2", *SCALE]) == 0
    out = capsys.readouterr().out
    # the per-stage table covers the compressor, PVT, and parallel seams
    for stage in ("compressors.compress", "compressors.decompress",
                  "pvt.variable", "pvt.zscore", "parallel.map",
                  "harness.context"):
        assert stage in out, f"missing stage {stage}"
    assert "CR" in out and "MB/s" in out
    assert "compressors.bytes_in" in out  # counters table
    # the run is scoped: tracing is off again afterwards
    assert not obs.active()


def test_stats_from_jsonl(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        with obs.span("compressors.compress", codec="demo",
                      bytes=100, bytes_out=50):
            pass
        obs.counter("compressors.bytes_in").add(100)
    sink.close()
    assert main(["stats", "--from-jsonl", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "compressors.compress" in out
    assert "compressors.bytes_in" in out


def test_stats_from_missing_jsonl_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["stats", "--from-jsonl", str(tmp_path / "nope.jsonl")])


def _tracefile_with_ids(tmp_path):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        with obs.span("demo.root") as root:
            with obs.span("demo.child"):
                pass
        with obs.span("other.root"):
            pass
    sink.close()
    return trace, root.context.trace_id


def test_stats_cli_filter_glob(tmp_path, capsys):
    trace, _ = _tracefile_with_ids(tmp_path)
    assert main(["stats", "--from-jsonl", str(trace),
                 "--filter", "demo.*"]) == 0
    out = capsys.readouterr().out
    stages = [ln.split()[0] for ln in out.splitlines()
              if ln.startswith(("demo.", "other."))]
    assert stages == ["demo.child", "demo.root"]


def test_stats_cli_trace_tree(tmp_path, capsys):
    trace, trace_id = _tracefile_with_ids(tmp_path)
    assert main(["stats", "--from-jsonl", str(trace),
                 "--trace", trace_id[:6]]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "demo.root" in out and "demo.child" in out
    assert "other.root" not in out


def test_stats_cli_trace_ls(tmp_path, capsys):
    trace, trace_id = _tracefile_with_ids(tmp_path)
    assert main(["stats", "--from-jsonl", str(trace),
                 "--trace", "ls"]) == 0
    out = capsys.readouterr().out
    assert trace_id in out
    assert "2 span(s)" in out  # demo.root + demo.child


def test_stats_cli_trace_ls_without_trace_ids(tmp_path, capsys):
    # Metric events carry no trace id; the listing has nothing to show.
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        obs.counter("demo.count").add(1)
    sink.close()
    assert main(["stats", "--from-jsonl", str(trace),
                 "--trace", "ls"]) == 1
    err = capsys.readouterr().err
    assert f"no trace ids in {trace} (written with tracing off?)" in err


def test_stats_cli_trace_errors(tmp_path, capsys):
    trace, _ = _tracefile_with_ids(tmp_path)
    assert main(["stats", "--from-jsonl", str(trace),
                 "--trace", "zzzz"]) == 2
    assert "no trace matching" in capsys.readouterr().err
    assert main(["stats", "--trace", "abcd"]) == 2
    assert "--from-jsonl" in capsys.readouterr().err


def _store_trace(tmp_path):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        with obs.span("compressors.compress", codec="demo",
                      bytes=1000, bytes_out=250):
            pass
        obs.counter("compressors.bytes_in").add(1000)
        obs.counter("store.hits").add(3, stage="demo")
        obs.counter("store.misses").add(1)
        obs.counter("store.puts").add(1, stage="demo")
        obs.gauge("demo.level").set(0.5)
    sink.close()
    return trace


def test_stats_cli_store_section(tmp_path, capsys):
    assert main(["stats", "--from-jsonl", str(_store_trace(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "Artifact store" in out
    store = out.split("Artifact store")[1]
    assert "75" in store and "25" in store  # hit/miss percentages
    assert "puts" in store
    # store.* counters live in their own section, not under Counters.
    counters = out.split("Counters and gauges")[1].split("Artifact store")[0]
    assert "compressors.bytes_in" in counters and "demo.level" in counters
    assert "store." not in counters


def test_stats_cli_omits_store_section_without_lookups(tmp_path, capsys):
    trace, _ = _tracefile_with_ids(tmp_path)
    assert main(["stats", "--from-jsonl", str(trace)]) == 0
    assert "Artifact store" not in capsys.readouterr().out


def test_store_table_rows():
    agg = obs.Aggregator()
    with obs.tracing(sinks=[agg]):
        obs.counter("store.hits").add(1, stage="a")
        obs.counter("store.misses").add(3)
        obs.counter("store.skipped").add(1, stage="a")
        obs.counter("store.skipped").add(1, stage="b")
    headers, rows = agg.store_table()
    assert headers == ["store", "count", "%"]
    assert rows == [["lookups", 4, None], ["hits", 1, 25.0],
                    ["misses", 3, 75.0], ["skipped", 2, None]]
    assert obs.Aggregator().store_table()[1] == []


def test_codec_stats_carry_quantiles():
    agg = obs.Aggregator()
    for codec, d in (("fast", 0.001), ("fast", 0.002), ("fast", 0.003),
                     ("slow", 0.1), ("slow", 0.2)):
        agg.on_span(obs.SpanRecord(
            name="compressors.compress", ts=0.0, duration=d, parent=None,
            depth=0, pid=0, tid=0, meta={"codec": codec},
        ))
    fast = agg.codec_stats("compressors.compress", "fast")
    slow = agg.codec_stats("compressors.compress", "slow")
    assert (fast.count, slow.count) == (3, 2)
    assert 0.001 <= fast.quantile(0.5) <= fast.quantile(0.95) <= 0.003
    assert 0.1 <= slow.quantile(0.5) <= slow.quantile(0.95) <= 0.2
    headers, rows = agg.codec_table()
    assert [r[0] for r in rows] == ["compressors.compress[codec=fast]",
                                    "compressors.compress[codec=slow]"]
    p95 = headers.index("p95 (s)")
    assert rows[0][p95] == fast.quantile(0.95)
    assert rows[1][p95] == slow.quantile(0.95)


def test_stats_cli_prints_per_codec_quantiles(tmp_path, capsys):
    import numpy as np

    from repro.compressors import get_variant

    field = np.linspace(0.0, 1.0, 4096, dtype=np.float32).reshape(8, 512)
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]):
        for variant in ("fpzip-24", "NetCDF-4"):
            codec = get_variant(variant)
            codec.decompress(codec.compress(field))
    sink.close()
    assert main(["stats", "--from-jsonl", str(trace)]) == 0
    out = capsys.readouterr().out
    section = out.split("Per-codec stages")[1].split("Counters")[0]
    header = section.strip().splitlines()[0]
    assert "p50 (s)" in header and "p95 (s)" in header
    for variant in ("fpzip-24", "NetCDF-4"):
        for stage in ("compress", "decompress"):
            assert f"compressors.{stage}[codec={variant}]" in section


def test_stats_cli_memory_columns(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    sink = obs.JsonlSink(trace)
    with obs.tracing(sinks=[sink]), obs.profiling_memory():
        with obs.span("demo.alloc"):
            blob = bytearray(4_000_000)
            del blob
    sink.close()
    assert main(["stats", "--from-jsonl", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "peak MB" in out
    assert "mem.rss_mb[pid=" in out


def test_report_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2
    assert "invalid choice: 'report'" in capsys.readouterr().err
