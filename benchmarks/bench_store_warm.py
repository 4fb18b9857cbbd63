"""Warm-cache reruns through ``repro.store`` (docs/caching.md).

Runs Table 5 twice against one scoped artifact store: the cold pass
computes every codec roundtrip and writes the table artifact; the warm
pass is served from the cache.  The acceptance bar is a >= 5x wall-clock
speedup with identical rows — in practice the warm read is a single
header+payload verification, so the observed ratio is orders of
magnitude higher.

The store is scoped to a temporary directory, so this benchmark never
touches (or benefits from) an ambient ``REPRO_STORE`` cache.
"""

import tempfile
import time

from conftest import save_text

from repro.harness.experiments import ExperimentContext
from repro.harness.tables import table5_timings
from repro.store import storing

_REPEATS = 3
_MIN_SPEEDUP = 5.0


def test_table5_warm_rerun_is_5x_faster(results_dir):
    ctx = ExperimentContext.test()
    with tempfile.TemporaryDirectory() as tmp:
        with storing(tmp) as st:
            t0 = time.perf_counter()
            cold_headers, cold_rows = table5_timings(ctx, repeats=_REPEATS)
            cold = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm_headers, warm_rows = table5_timings(ctx, repeats=_REPEATS)
            warm = time.perf_counter() - t0

            artifacts = st.ls()
        speedup = cold / warm if warm > 0 else float("inf")

    assert warm_headers == cold_headers
    assert warm_rows == cold_rows
    assert warm * _MIN_SPEEDUP <= cold, (
        f"warm rerun only {speedup:.1f}x faster (cold {cold:.3f}s, "
        f"warm {warm:.3f}s); expected >= {_MIN_SPEEDUP}x"
    )

    lines = [
        "Table 5 warm-cache rerun (repro.store)",
        f"scale: ne={ctx.config.ne}, nlev={ctx.config.nlev}, "
        f"members={ctx.config.n_members}, repeats={_REPEATS}",
        f"cold run:  {cold:.3f} s (computes, fills the store)",
        f"warm run:  {warm * 1e3:.2f} ms (served from the store)",
        f"speedup:   {speedup:.0f}x (acceptance bar: {_MIN_SPEEDUP}x)",
        f"artifacts: {len(artifacts)} "
        f"({', '.join(sorted({a.stage for a in artifacts}))})",
        "rows: warm == cold (bit-identical)",
    ]
    save_text(results_dir, "store_warm.txt", "\n".join(lines))
