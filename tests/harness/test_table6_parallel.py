"""Table 6 driver: serial/parallel equivalence and bias column."""

import functools

import pytest

from repro.harness.experiments import ExperimentContext
from repro.harness.tables import table6_passes
from repro.pvt import tool
from repro.store import storing


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.test()


def test_parallel_matches_serial(ctx):
    kwargs = dict(run_bias=False, variants=["fpzip-24", "APAX-2"])
    _, serial = table6_passes(ctx, workers=0, **kwargs)
    _, parallel = table6_passes(ctx, workers=2, **kwargs)
    assert serial == parallel


def test_bias_column_populated(ctx):
    headers, rows = table6_passes(ctx, run_bias=True,
                                  variants=["NetCDF-4"])
    rec = dict(zip(headers, rows[0]))
    n = ctx.config.n_variables
    # Lossless: every variable passes every test including bias.
    assert rec["bias"] == n and rec["all"] == n


def test_bias_skipped_shows_none(ctx):
    headers, rows = table6_passes(ctx, run_bias=False,
                                  variants=["fpzip-24"])
    rec = dict(zip(headers, rows[0]))
    assert rec["bias"] is None


_REAL_JUDGE = tool._judge_variable


def _judge_failing_for(target, item):
    """Picklable runner-task stand-in failing one variable's evaluation."""
    if item[1] == target:
        raise RuntimeError("injected evaluation failure")
    return _REAL_JUDGE(item)


def test_failed_chunks_degrade_and_skip_the_cache(ctx, monkeypatch,
                                                  tmp_path):
    names = [spec.name for spec in ctx.ensemble.catalog]
    kwargs = dict(run_bias=False, variants=["APAX-2"])
    monkeypatch.setattr(
        tool, "_judge_variable",
        functools.partial(_judge_failing_for, names[0]),
    )
    with storing(tmp_path):
        with pytest.warns(RuntimeWarning, match="table6 evaluated"):
            headers, rows = table6_passes(ctx, workers=2, **kwargs)
        rec = dict(zip(headers, rows[0]))
        # The failed variable drops out of the tallies and the n_vars
        # column owns up to it.
        assert rec["n_vars"] == len(names) - 1
        assert rec["all"] <= rec["n_vars"]
        # The partial table was never cached: with the fault gone, the
        # same key computes the full table instead of replaying it.
        monkeypatch.setattr(tool, "_judge_variable", _REAL_JUDGE)
        headers, rows = table6_passes(ctx, workers=2, **kwargs)
        rec = dict(zip(headers, rows[0]))
        assert rec["n_vars"] == len(names)
