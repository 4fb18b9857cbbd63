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
alternating round by round.
"""

from concurrent.futures import ProcessPoolExecutor

from conftest import alternating_medians, save_text

from repro.parallel.executor import parallel_map

_WORKERS = 2
_TASKS = 12
_WORK = 150_000  # inner-loop iterations per task (~10-20 ms each)
_REPEATS = 9


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
    raw, ours = alternating_medians(
        [lambda: _raw_map(args), lambda: _executor_map(args)],
        repeats=_REPEATS,
    )
    overhead = ours / raw - 1
    save_text(
        results_dir, "executor_overhead.txt",
        f"{_TASKS} tasks x {_WORK} iterations on {_WORKERS} workers: "
        f"raw pool {raw * 1e3:.1f} ms, executor {ours * 1e3:.1f} ms "
        f"-> overhead {overhead * 100:+.2f}% (budget 5%)",
    )
    assert overhead < 0.05, (
        f"executor overhead {overhead * 100:.2f}% exceeds the 5% budget"
    )
