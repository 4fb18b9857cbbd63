"""Selected benchmarks run end-to-end at tiny scale inside tier-1.

The ``REPRO_*`` scale knobs shrink each benchmark from minutes to
seconds — small enough to smoke-test the whole gate (timings, metrics,
tables, the ``BENCH_*.json`` record) on every test run, so a benchmark
cannot rot between baseline refreshes.  ``REPRO_RESULTS_DIR`` and
``REPRO_BENCH_DIR`` point at ``tmp_path`` so a tiny run never clobbers
the committed bench-scale artifacts; each smoke checks that
``benchmarks/results/`` is byte-for-byte unchanged afterwards.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMITTED_RESULTS = REPO / "benchmarks" / "results"

TINY = {
    "REPRO_NE": "3",
    "REPRO_NLEV": "4",
    "REPRO_MEMBERS": "21",
    "REPRO_WORKERS": "2",
}


def _digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _run_bench(bench: str, tmp_path: Path, **extra_env) -> None:
    """Run one benchmark file at tiny scale with every output in tmp_path."""
    env = dict(os.environ, **TINY, **extra_env)
    env["PYTHONPATH"] = str(REPO / "src")
    # Keep the tiny run's record, history and tables out of the real
    # gate data and the committed results.
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_BENCH_HISTORY"] = str(tmp_path / "history")
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    before = _digest(COMMITTED_RESULTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "benchmarks" / bench)],
        cwd=REPO / "benchmarks", env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"benchmark smoke failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
    assert _digest(COMMITTED_RESULTS) == before, \
        f"tiny {bench} run rewrote committed benchmarks/results/"


def test_stream_throughput_bench_smokes(tmp_path):
    _run_bench("bench_stream_throughput.py", tmp_path)
    assert (tmp_path / "BENCH_stream_throughput.json").exists(), \
        "tiny run wrote no bench record"
    for table in ("stream_throughput.csv", "stream_throughput.txt",
                  "stream_transfer.txt"):
        assert (tmp_path / "results" / table).exists(), \
            f"tiny run rendered no {table}"


def test_codec_zoo_bench_smokes(tmp_path):
    # The 101-member bias regression is not tiny.
    _run_bench("bench_codec_zoo.py", tmp_path, REPRO_SKIP_BIAS="1")
    assert (tmp_path / "BENCH_codec_zoo.json").exists(), \
        "tiny run wrote no bench record"
    assert (tmp_path / "results" / "table7_codec_zoo.txt").exists(), \
        "tiny run rendered no extended Table 7"


def test_obs_overhead_bench_smokes(tmp_path):
    _run_bench("bench_obs_overhead.py", tmp_path)
    assert (tmp_path / "BENCH_obs_overhead.json").exists(), \
        "tiny run wrote no bench record"
    assert (tmp_path / "results" / "obs_overhead.txt").exists(), \
        "tiny run rendered no overhead table"
