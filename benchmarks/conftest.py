"""Benchmark fixtures.

Benchmarks run at the *bench* scale (default ne=6, 8 levels, 101 members,
170 variables), tunable via ``REPRO_NE`` / ``REPRO_NLEV`` /
``REPRO_MEMBERS`` up to the paper's ne=30.  Every table/figure benchmark
writes its rendered output and CSV rows to ``benchmarks/results/`` so that
EXPERIMENTS.md can be regenerated from artifacts.

Timings go through pytest-benchmark directly (``benchmark.pedantic`` for
one-shot runs, ``benchmark(...)`` for calibrated ones); compare two local
runs with its ``--benchmark-json`` / ``--benchmark-compare`` options.
Each benchmark states its invariants as inline assertions.  The repo's
timing regression gate is ``benchmarks/e2e`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.harness.experiments import ExperimentContext
from repro.harness.report import render_table, write_csv
from repro.parallel.executor import effective_workers

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


def save_text(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print("\n" + text)


def median_seconds(fn, *args, repeats: int) -> float:
    """Median wall time of ``repeats`` back-to-back ``fn(*args)`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def alternating_samples(arms, repeats: int) -> list[list[float]]:
    """Wall times of each zero-argument callable in ``arms``, one per
    round.

    The arms alternate round by round, and every other round runs them
    in reverse order, so drift in the host's load (and any first-runner
    penalty) lands on every arm alike; sample ``i`` of each arm comes
    from the same round.
    """
    samples: list[list[float]] = [[] for _ in arms]
    order = list(range(len(arms)))
    for i in range(repeats):
        for j in (order if i % 2 == 0 else order[::-1]):
            t0 = time.perf_counter()
            arms[j]()
            samples[j].append(time.perf_counter() - t0)
    return samples


def alternating_medians(arms, repeats: int) -> list[float]:
    """Median wall time of each arm of :func:`alternating_samples`."""
    return [float(np.median(s))
            for s in alternating_samples(arms, repeats)]


def save_table(results_dir: Path, stem: str, headers, rows,
               title: str | None = None, precision: int = 3) -> str:
    """Render, save (``.txt`` + ``.csv``), and echo one table."""
    text = render_table(headers, rows, title=title, precision=precision)
    save_text(results_dir, f"{stem}.txt", text)
    write_csv(results_dir / f"{stem}.csv", headers, rows)
    return text
