"""Executor overhead: ``parallel_map`` must stay within 5% of a raw
``ProcessPoolExecutor`` on the no-fault path.

``parallel_map`` adds per-task outcome capture, crash bookkeeping and
worker-event merging on top of the stdlib pool, submitting one task per
future with twice as many in flight as workers.  That buys crash
recovery and structured failures, but the paper's sweeps run
overwhelmingly without faults, so the healthy path is the one that must
stay cheap.  Both sides of the A/B pay for pool creation and teardown —
that is part of what a caller of either API experiences — and run the
same picklable CPU-bound task over the same argument list, the two arms
alternating round by round.  The overhead is the median of the rounds'
executor-to-raw ratios: the two runs of a round are back to back, so a
shift in the host's load moves both, and the ratio cancels it.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
from conftest import alternating_samples, save_text

from repro.parallel.executor import parallel_map

_WORKERS = 2
_TASKS = 12
_WORK = 150_000  # inner-loop iterations per task (~10-20 ms each)
_REPEATS = 61  # paired rounds; on 2 vCPUs the median ratio spreads ~1%


def _burn(n):
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


def _raw_map(args):
    with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
        return list(pool.map(_burn, args))


def _executor_map(args):
    return parallel_map(_burn, args, workers=_WORKERS)


def test_raw_pool_baseline(benchmark):
    benchmark(_raw_map, [_WORK] * _TASKS)


def test_executor_map(benchmark):
    benchmark(_executor_map, [_WORK] * _TASKS)


def test_overhead_below_five_percent(results_dir):
    args = [_WORK] * _TASKS
    expected = [_burn(_WORK)] * _TASKS
    # Warm both paths (imports, fork machinery) before timing.
    assert _raw_map(args) == expected
    assert _executor_map(args) == expected
    raw, ours = (np.array(s) for s in alternating_samples(
        [lambda: _raw_map(args), lambda: _executor_map(args)],
        repeats=_REPEATS,
    ))
    overhead = float(np.median(ours / raw)) - 1
    save_text(
        results_dir, "executor_overhead.txt",
        f"{_TASKS} tasks x {_WORK} iterations on {_WORKERS} workers: "
        f"raw pool {np.median(raw) * 1e3:.1f} ms, executor "
        f"{np.median(ours) * 1e3:.1f} ms -> overhead "
        f"{overhead * 100:+.2f}% (median of {_REPEATS} paired rounds; "
        f"budget 5%)",
    )
    assert overhead < 0.05, (
        f"executor overhead {overhead * 100:.2f}% exceeds the 5% budget"
    )
