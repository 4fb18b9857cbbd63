"""BenchRecord schema, the regression gate, and ``repro bench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import bench

REPO_ROOT = Path(__file__).parents[2]


def make_record(name="demo", fingerprint="fp-1", **metrics):
    """A record with ``metric_name=(value, direction, threshold_pct)``."""
    record = bench.BenchRecord(name=name, fingerprint=fingerprint)
    for mname, (value, direction, threshold) in metrics.items():
        record.add(mname, value, direction=direction,
                   threshold_pct=threshold)
    return record


# -- schema ------------------------------------------------------------------

def test_metric_rejects_bad_direction():
    with pytest.raises(ValueError, match="direction"):
        bench.Metric(1.0, direction="sideways")


def test_write_load_round_trip(tmp_path):
    record = make_record(wall_s=(0.5, "lower", 50.0),
                         speedup=(30.0, "higher", None))
    record.add("cr", 0.42, unit="ratio")
    path = record.write(tmp_path)
    assert path == tmp_path / "BENCH_demo.json"
    loaded = bench.load_record(path)
    assert loaded.name == "demo"
    assert loaded.schema == bench.SCHEMA_VERSION
    assert loaded.metrics == record.metrics
    assert loaded.mem.get("peak_rss_mb", 0) > 0  # write() snapshots RSS
    assert bench.BenchRecord.from_dict(loaded.to_dict()) == loaded


COMMITTED_RECORDS = sorted(
    [*REPO_ROOT.glob("BENCH_*.json"),
     *(REPO_ROOT / "benchmarks" / "baselines").glob("BENCH_*.json")]
)


@pytest.mark.parametrize(
    "path", COMMITTED_RECORDS,
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_committed_records_still_load(path):
    # Records written before the span aggregates were dropped still carry
    # a "spans" key; they must keep loading so `repro bench compare` can
    # diff against them, and re-serialize without it.
    raw = json.loads(path.read_text(encoding="utf-8"))
    record = bench.load_record(path)
    payload = record.to_dict()
    assert "spans" not in payload
    assert payload["fingerprint"] == raw["fingerprint"]
    assert payload["metrics"] == raw["metrics"]
    assert bench.BenchRecord.from_dict(payload) == record


def test_committed_records_exist():
    assert len(COMMITTED_RECORDS) >= 2


def test_history_appends(tmp_path):
    record = make_record(wall_s=(0.5, "lower", None))
    record.append_history(tmp_path)
    record.append_history(tmp_path)
    lines = (tmp_path / "demo.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["name"] == "demo"


def test_validate_names_every_problem():
    with pytest.raises(ValueError) as err:
        bench.validate({"schema": 99,
                        "metrics": {"t": {"direction": "lower"}}})
    message = str(err.value)
    assert "missing field 'name'" in message
    assert "missing field 'fingerprint'" in message
    assert "schema 99" in message
    assert "metric 't' lacks a value" in message


def test_iter_records_skips_invalid(tmp_path, capsys):
    make_record(name="good").write(tmp_path)
    (tmp_path / "BENCH_bad.json").write_text("{not json")
    records = list(bench.iter_records(tmp_path))
    assert [r.name for _, r in records] == ["good"]
    assert "skipping" in capsys.readouterr().err


# -- the gate ----------------------------------------------------------------

def test_compare_is_direction_aware():
    baseline = make_record(wall_s=(0.5, "lower", None),
                           speedup=(30.0, "higher", None))
    current = make_record(wall_s=(1.0, "lower", None),
                          speedup=(10.0, "higher", None))
    deltas = {d.metric: d for d in bench.compare_records(current, baseline)}
    assert deltas["wall_s"].change_pct == pytest.approx(100.0)
    assert deltas["wall_s"].regressed
    # A drop in a higher-is-better metric is a positive (worse) change.
    assert deltas["speedup"].change_pct == pytest.approx(200.0 / 3.0)
    assert deltas["speedup"].regressed
    # Improvements come out negative and never regress.
    improved = {d.metric: d
                for d in bench.compare_records(baseline, current)}
    assert improved["wall_s"].change_pct == pytest.approx(-50.0)
    assert not improved["wall_s"].regressed


def test_threshold_resolution_current_then_baseline_then_default():
    baseline = make_record(a=(1.0, "lower", 10.0), b=(1.0, "lower", 10.0),
                           c=(1.0, "lower", None))
    current = make_record(a=(1.0, "lower", 5.0), b=(1.0, "lower", None),
                          c=(1.0, "lower", None))
    thresholds = {d.metric: d.threshold_pct for d in
                  bench.compare_records(current, baseline,
                                        default_threshold_pct=33.0)}
    assert thresholds == {"a": 5.0, "b": 10.0, "c": 33.0}


def test_zero_baseline_never_divides():
    baseline = make_record(a=(0.0, "lower", None), b=(0.0, "lower", None))
    current = make_record(a=(0.0, "lower", None), b=(0.1, "lower", None))
    deltas = {d.metric: d for d in bench.compare_records(current, baseline)}
    assert deltas["a"].change_pct == 0.0
    assert deltas["b"].change_pct == float("inf")


def test_new_metric_cannot_regress():
    baseline = make_record(a=(1.0, "lower", None))
    current = make_record(a=(1.0, "lower", None),
                          brand_new=(99.0, "lower", None))
    assert [d.metric for d in bench.compare_records(current, baseline)] \
        == ["a"]


def test_compare_dirs_skips_incomparable(tmp_path):
    current_dir = tmp_path / "cur"
    baseline_dir = tmp_path / "base"
    make_record(name="ok", wall_s=(0.5, "lower", None)).write(current_dir)
    make_record(name="ok", wall_s=(0.4, "lower", None)).write(baseline_dir)
    make_record(name="orphan").write(current_dir)
    make_record(name="rescaled", fingerprint="fp-old").write(baseline_dir)
    make_record(name="rescaled", fingerprint="fp-new").write(current_dir)
    deltas, skipped = bench.compare_dirs(current_dir, baseline_dir)
    assert set(deltas) == {"ok"}
    assert any("no baseline" in s for s in skipped)
    assert any("fingerprint" in s for s in skipped)


def test_config_divergence_names_differing_keys():
    current = make_record(fingerprint="fp-new")
    baseline = make_record(fingerprint="fp-old")
    current.config = {"ne": 8, "nlev": 30, "workers": 4}
    baseline.config = {"ne": 4, "nlev": 30, "members": 101}
    assert bench.config_divergence(current, baseline) == [
        "members: baseline=101 current=absent",
        "ne: baseline=4 current=8",
        "workers: baseline=absent current=4",
    ]
    baseline.config = dict(current.config)
    assert bench.config_divergence(current, baseline) == []


def test_fingerprint_skip_reason_lists_divergence(tmp_path):
    current_dir = tmp_path / "cur"
    baseline_dir = tmp_path / "base"
    cur = make_record(name="rescaled", fingerprint="fp-new")
    cur.config = {"ne": 8}
    cur.write(current_dir)
    base = make_record(name="rescaled", fingerprint="fp-old")
    base.config = {"ne": 4}
    base.write(baseline_dir)
    _, skipped = bench.compare_dirs(current_dir, baseline_dir)
    assert skipped == [
        "rescaled: config fingerprint differs from the baseline; "
        "not comparable (ne: baseline=4 current=8)"
    ]


def test_fingerprint_skip_reason_without_config_divergence(tmp_path):
    # Same config but different fingerprints: the benchmark identity
    # (name, key derivation) changed, and the reason must say so rather
    # than print an empty key list.
    current_dir = tmp_path / "cur"
    baseline_dir = tmp_path / "base"
    make_record(name="renamed", fingerprint="fp-new").write(current_dir)
    make_record(name="renamed", fingerprint="fp-old").write(baseline_dir)
    _, skipped = bench.compare_dirs(current_dir, baseline_dir)
    assert len(skipped) == 1
    assert "no config keys differ" in skipped[0]


# -- the CLI gate ------------------------------------------------------------

def _write_pair(tmp_path, base_value, cur_value):
    current_dir = tmp_path / "cur"
    baseline_dir = tmp_path / "base"
    make_record(wall_s=(base_value, "lower", 20.0)).write(baseline_dir)
    make_record(wall_s=(cur_value, "lower", 20.0)).write(current_dir)
    return current_dir, baseline_dir


def test_cli_compare_exits_nonzero_on_degradation(tmp_path, capsys):
    current_dir, baseline_dir = _write_pair(tmp_path, 0.5, 1.0)
    rc = main(["bench", "compare", "--dir", str(current_dir),
               "--baseline", str(baseline_dir)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "wall_s" in out


def test_cli_compare_passes_within_threshold(tmp_path, capsys):
    current_dir, baseline_dir = _write_pair(tmp_path, 0.5, 0.55)
    rc = main(["bench", "compare", "--dir", str(current_dir),
               "--baseline", str(baseline_dir)])
    assert rc == 0
    assert "no regressions" in capsys.readouterr().out


def test_cli_compare_threshold_flag_tightens_gate(tmp_path):
    current_dir, baseline_dir = _write_pair(tmp_path, 0.5, 0.55)
    # 10% movement: inside the per-metric 20%... unless the metric had no
    # threshold of its own.  Rewrite without per-metric thresholds.
    make_record(wall_s=(0.5, "lower", None)).write(baseline_dir)
    make_record(wall_s=(0.55, "lower", None)).write(current_dir)
    assert main(["bench", "compare", "--dir", str(current_dir),
                 "--baseline", str(baseline_dir),
                 "--threshold", "5"]) == 1


def test_cli_compare_missing_baseline_prints_commit_hint(tmp_path, capsys):
    # A record with no committed baseline must not vanish into a silent
    # skip: the gate names the exact cp command that would baseline it.
    current_dir = tmp_path / "current"
    baseline_dir = tmp_path / "baselines"
    current_dir.mkdir()
    baseline_dir.mkdir()
    make_record(name="orphan", wall_s=(0.5, "lower", None)).write(current_dir)
    rc = main(["bench", "compare", "--dir", str(current_dir),
               "--baseline", str(baseline_dir)])
    assert rc == 0  # a skip is not a regression
    err = capsys.readouterr().err
    assert "skipped orphan: no baseline" in err
    assert "hint" in err
    assert f"cp {current_dir / 'BENCH_orphan.json'} " \
           f"{baseline_dir / 'BENCH_orphan.json'}" in err


def test_cli_compare_fingerprint_skip_gets_no_copy_hint(tmp_path, capsys):
    # An incomparable-scale skip is not fixable by committing the
    # current record, so it must not get the cp hint.
    current_dir = tmp_path / "current"
    baseline_dir = tmp_path / "baselines"
    current_dir.mkdir()
    baseline_dir.mkdir()
    make_record(name="rescaled", fingerprint="fp-new",
                wall_s=(0.5, "lower", None)).write(current_dir)
    make_record(name="rescaled", fingerprint="fp-old",
                wall_s=(0.5, "lower", None)).write(baseline_dir)
    main(["bench", "compare", "--dir", str(current_dir),
          "--baseline", str(baseline_dir)])
    err = capsys.readouterr().err
    assert "skipped rescaled" in err
    assert "hint" not in err


def test_cli_ls_and_show(tmp_path, capsys):
    make_record(wall_s=(0.5, "lower", 50.0)).write(tmp_path)
    assert main(["bench", "ls", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "demo" in out and "1 bench record(s)" in out
    assert main(["bench", "show", "demo", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fp-1" in out and "wall_s" in out
    assert main(["bench", "show", "missing", "--dir", str(tmp_path)]) == 1
    assert main(["bench", "show", "--dir", str(tmp_path)]) == 2


# -- acceptance: a real benchmark emits a valid, gateable record -------------

def test_real_benchmark_emits_valid_record(tmp_path):
    """Run bench_table1_properties.py (tiny scale) end to end."""
    env = dict(
        os.environ,
        REPRO_NE="3", REPRO_NLEV="4", REPRO_MEMBERS="21",
        REPRO_BENCH_DIR=str(tmp_path),
        REPRO_BENCH_HISTORY=str(tmp_path / "history"),
        PYTHONPATH=str(REPO_ROOT / "src"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench_table1_properties.py",
         "-q", "-p", "no:cacheprovider", "--benchmark-disable"],
        cwd=REPO_ROOT / "benchmarks", env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    path = tmp_path / "BENCH_table1_properties.json"
    payload = json.loads(path.read_text())
    bench.validate(payload)  # schema-valid
    record = bench.load_record(path)
    assert record.metrics["methods"].direction == "higher"
    assert record.config.get("ne") == 3
    assert (tmp_path / "history" / "table1_properties.jsonl").is_file()

    # Artificial degradation: double every baseline expectation the wrong
    # way and the gate must trip.
    baseline_dir = tmp_path / "baselines"
    degraded = bench.load_record(path)
    for metric in degraded.metrics.values():
        if metric.direction == "higher":
            metric.value *= 3.0  # current looks much worse than this
        else:
            metric.value /= 3.0
    degraded.write(baseline_dir)
    assert main(["bench", "compare", "--dir", str(tmp_path),
                 "--baseline", str(baseline_dir)]) == 1
