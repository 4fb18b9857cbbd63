"""Selected benchmarks run end-to-end at tiny scale inside tier-1.

The ``REPRO_*`` scale knobs shrink each benchmark from minutes to
seconds — small enough to smoke-test timings, inline assertions and
rendered tables on every test run, so a benchmark cannot rot between
bench-scale refreshes.  ``REPRO_RESULTS_DIR`` points at ``tmp_path`` so
a tiny run never clobbers the committed bench-scale artifacts; each
smoke checks that the run created or modified no file in the repo root
or under ``benchmarks/`` (committed ``benchmarks/results/`` included).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TINY = {
    "REPRO_NE": "3",
    "REPRO_NLEV": "4",
    "REPRO_MEMBERS": "21",
    "REPRO_WORKERS": "2",
}


def _digest() -> dict[str, str]:
    """SHA-256 of every file under ``benchmarks/`` and in the repo root.

    Root subdirectories count by name only, so a run that creates one
    (a stray cache or record directory) still shows up.
    """
    files = [p for p in sorted((REPO / "benchmarks").rglob("*"))
             if p.is_file()]
    digest = {}
    for path in sorted(REPO.iterdir()):
        if path.is_dir():
            digest[f"{path.name}/"] = "dir"
        else:
            files.append(path)
    for path in files:
        digest[str(path.relative_to(REPO))] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def _run_bench(bench: str, tmp_path: Path, **extra_env) -> None:
    """Run one benchmark file at tiny scale with every output in tmp_path."""
    env = dict(os.environ, **TINY, **extra_env)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    # Bytecode caches are the one thing a run could leave behind that
    # is no output of the benchmark.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    before = _digest()
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
    after = _digest()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k))
    assert not changed, \
        f"tiny {bench} run wrote outside REPRO_RESULTS_DIR: {changed}"


def test_stream_throughput_bench_smokes(tmp_path):
    _run_bench("bench_stream_throughput.py", tmp_path)
    for table in ("stream_throughput.csv", "stream_throughput.txt",
                  "stream_transfer.txt"):
        assert (tmp_path / "results" / table).exists(), \
            f"tiny run rendered no {table}"


def test_codec_zoo_bench_smokes(tmp_path):
    # The 101-member bias regression is not tiny.
    _run_bench("bench_codec_zoo.py", tmp_path, REPRO_SKIP_BIAS="1")
    assert (tmp_path / "results" / "table7_codec_zoo.txt").exists(), \
        "tiny run rendered no extended Table 7"


def test_obs_overhead_bench_smokes(tmp_path):
    _run_bench("bench_obs_overhead.py", tmp_path)
    assert (tmp_path / "results" / "obs_overhead.txt").exists(), \
        "tiny run rendered no overhead table"
