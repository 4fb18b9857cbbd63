"""Benchmark fixtures.

Benchmarks run at the *bench* scale (default ne=8, 10 levels, 101 members,
170 variables), tunable via ``REPRO_NE`` / ``REPRO_NLEV`` /
``REPRO_MEMBERS`` up to the paper's ne=30.  Every table/figure benchmark
writes its rendered output and CSV rows to ``benchmarks/results/`` so that
EXPERIMENTS.md can be regenerated from artifacts.

Telemetry: the module-scoped ``bench_record`` fixture opens one
:class:`repro.obs.bench.BenchRecord` per benchmark file and, when the
module finishes, writes ``BENCH_<name>.json`` to the repo root
(``REPRO_BENCH_DIR`` overrides) and appends a line to
``benchmarks/results/history/<name>.jsonl``.  Benchmark bodies route
their timings through :meth:`BenchReporter.run`/:meth:`BenchReporter.bench`
and their domain numbers through :meth:`BenchReporter.metric`, so the
regression gate (``repro bench compare``, see ``docs/benchmarks.md``)
sees every run.  The REP011 lint rule keeps new benchmark files on this
path.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.experiments import ExperimentContext
from repro.harness.report import render_table, write_csv
from repro.obs.bench import BenchRecord
from repro.parallel.executor import effective_workers

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext.bench()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    # REPRO_RESULTS_DIR redirects rendered tables/CSVs away from the
    # committed benchmarks/results/ — the tier-1 smoke runs use it so a
    # tiny-scale pass never clobbers the bench-scale artifacts.
    override = os.environ.get("REPRO_RESULTS_DIR")
    path = Path(override) if override else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def bench_workers() -> int:
    """Worker processes for the heavy sweeps ($REPRO_WORKERS caps it)."""
    return effective_workers()


class BenchReporter:
    """Per-module collector behind the ``bench_record`` fixture.

    Wraps one :class:`BenchRecord` with the pytest-benchmark glue the
    bodies need: ``run`` replaces the copy-pasted
    ``benchmark.pedantic(...)``-then-save pattern and records the median
    wall time; ``bench`` does the same for calibrated ``benchmark(...)``
    runs; ``metric`` records domain numbers (CRs, pass counts, overhead
    percentages) for the regression gate.
    """

    def __init__(self, record: BenchRecord) -> None:
        self.record = record

    def metric(self, name: str, value: float, *, unit: str = "",
               direction: str = "lower",
               threshold_pct: float | None = None) -> None:
        """Record one gate-visible metric on the module's record."""
        self.record.add(name, value, unit=unit, direction=direction,
                        threshold_pct=threshold_pct)

    def run(self, benchmark, fn, *args, metric: str,
            threshold_pct: float | None = None, rounds: int = 1,
            iterations: int = 1, **kwargs):
        """One-shot ``benchmark.pedantic`` run, timed into ``metric``."""
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                    rounds=rounds, iterations=iterations)
        self._record_time(benchmark, metric, threshold_pct)
        return result

    def bench(self, benchmark, fn, *args, metric: str,
              threshold_pct: float | None = None, **kwargs):
        """Calibrated ``benchmark(...)`` run, timed into ``metric``."""
        result = benchmark(fn, *args, **kwargs)
        self._record_time(benchmark, metric, threshold_pct)
        return result

    def _record_time(self, benchmark, metric: str,
                     threshold_pct: float | None) -> None:
        # With --benchmark-disable the fixture never collects stats;
        # the run still happened, there is just no timing to record.
        if getattr(benchmark, "stats", None) is None:
            return
        self.record.add(metric, benchmark.stats.stats.median, unit="s",
                        direction="lower", threshold_pct=threshold_pct)


@pytest.fixture(scope="module")
def bench_record(request, ctx) -> BenchReporter:
    """One :class:`BenchRecord` per benchmark module, written on teardown."""
    name = Path(request.module.__file__).stem
    name = name[len("bench_"):] if name.startswith("bench_") else name
    reporter = BenchReporter(BenchRecord.start(name, config=ctx.config))
    yield reporter
    out_dir = os.environ.get("REPRO_BENCH_DIR") or REPO_ROOT
    hist_dir = (os.environ.get("REPRO_BENCH_HISTORY")
                or REPO_ROOT / "benchmarks" / "results" / "history")
    path = reporter.record.write(out_dir)
    reporter.record.append_history(hist_dir)
    print(f"\nbench record: {path} "
          f"({len(reporter.record.metrics)} metric(s))")


def save_text(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print("\n" + text)


def save_table(results_dir: Path, stem: str, headers, rows,
               title: str | None = None, precision: int = 3) -> str:
    """Render, save (``.txt`` + ``.csv``), and echo one table."""
    text = render_table(headers, rows, title=title, precision=precision)
    save_text(results_dir, f"{stem}.txt", text)
    write_csv(results_dir / f"{stem}.csv", headers, rows)
    return text
