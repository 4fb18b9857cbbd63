"""Pipeline integration: cold and warm runs agree, warm runs hit the cache.

These tests exercise the seams the store hooks into — ensemble builds,
PVT verdicts, hybrid plans, table drivers — with a scoped temporary
store, comparing the warm (cache-served) results against the cold run.
"""

import numpy as np
import pytest

from repro import obs
from repro.compressors import get_variant
from repro.harness.experiments import ExperimentContext
from repro.harness.tables import table6_passes
from repro.hybrid.selector import build_hybrid
from repro.model.ensemble import CAMEnsemble
from repro.obs.sinks import Aggregator
from repro.pvt.acceptance import evaluate_variable
from repro.store import storing


def _counter_total(agg, name):
    prefix = f"{name}["
    return sum(
        v for k, v in agg.counters.items()
        if k == name or k.startswith(prefix)
    )


@pytest.fixture()
def u_fields(ensemble):
    return ensemble.ensemble_field("U")


class TestVerdictCaching:
    def test_cold_warm_verdicts_agree(self, u_fields, tmp_path):
        codec = get_variant("fpzip-24")
        with storing(tmp_path / "cache"):
            agg_cold = Aggregator()
            with obs.tracing(sinks=[agg_cold]):
                cold = evaluate_variable(
                    u_fields, codec, [0, 1], variable="U", run_bias=False
                )
            agg_warm = Aggregator()
            with obs.tracing(sinks=[agg_warm]):
                warm = evaluate_variable(
                    u_fields, codec, [0, 1], variable="U", run_bias=False
                )
        assert _counter_total(agg_cold, "store.hits") == 0
        assert _counter_total(agg_cold, "store.misses") == 1
        assert _counter_total(agg_cold, "store.puts") == 1
        assert _counter_total(agg_warm, "store.hits") == 1
        # The warm verdict is the cold verdict, byte-for-byte.
        assert warm.all_passed == cold.all_passed
        assert warm.as_row() == cold.as_row()
        assert warm.errors == cold.errors
        for name in ("rho", "rmsz", "enmax"):
            assert getattr(warm, name).passed == getattr(cold, name).passed
        assert warm.rmsz.detail["members"] == cold.rmsz.detail["members"]

    def test_key_separates_codecs_and_members(self, u_fields, tmp_path):
        with storing(tmp_path / "cache"):
            a = evaluate_variable(
                u_fields, get_variant("fpzip-24"), [0], variable="U",
                run_bias=False,
            )
            b = evaluate_variable(
                u_fields, get_variant("fpzip-16"), [0], variable="U",
                run_bias=False,
            )
        # Distinct artifacts, not collisions.
        assert a.as_row() != b.as_row()
        assert a.errors != b.errors

    def test_store_off_path_unchanged(self, u_fields, tmp_path):
        """Enabling the store must not perturb the computed verdict."""
        codec = get_variant("fpzip-24")
        with storing(None):
            off = evaluate_variable(
                u_fields, codec, [0, 1], variable="U", run_bias=False
            )
        with storing(tmp_path / "cache"):
            cold = evaluate_variable(
                u_fields, codec, [0, 1], variable="U", run_bias=False
            )
        assert off.all_passed == cold.all_passed
        assert off.as_row() == cold.as_row()
        assert off.errors == cold.errors
        assert off.rmsz.detail["members"] == cold.rmsz.detail["members"]


class TestEnsembleCaching:
    def test_warm_ensemble_is_bit_identical(self, config, tmp_path):
        with storing(tmp_path / "cache"):
            agg = Aggregator()
            with obs.tracing(sinks=[agg]):
                cold = CAMEnsemble(config)
            assert _counter_total(agg, "store.hits") == 0
            agg = Aggregator()
            with obs.tracing(sinks=[agg]):
                warm = CAMEnsemble(config)
            assert _counter_total(agg, "store.hits") == 1
        np.testing.assert_array_equal(
            cold.member_field("U", 0), warm.member_field("U", 0)
        )
        np.testing.assert_array_equal(
            cold.ensemble_field("FSDSC"), warm.ensemble_field("FSDSC")
        )

    def test_warm_matches_uncached_build(self, config, ensemble, tmp_path):
        """Cache-served ensembles equal the store-off build exactly."""
        with storing(tmp_path / "cache"):
            CAMEnsemble(config)          # cold fill
            warm = CAMEnsemble(config)   # warm read
        np.testing.assert_array_equal(
            warm.member_field("U", 1), ensemble.member_field("U", 1)
        )


class TestHybridCaching:
    def test_warm_hybrid_plan_agrees(self, ensemble, tmp_path):
        with storing(tmp_path / "cache"):
            cold = build_hybrid(ensemble, "fpzip", run_bias=False)
            agg = Aggregator()
            with obs.tracing(sinks=[agg]):
                warm = build_hybrid(ensemble, "fpzip", run_bias=False)
            assert _counter_total(agg, "store.hits") >= 1
        assert warm.family == cold.family
        assert warm.summary() == cold.summary()
        assert {
            name: c.variant for name, c in warm.choices.items()
        } == {
            name: c.variant for name, c in cold.choices.items()
        }

    def test_plan_key_holds_the_perturbation(self, ensemble, config,
                                             tmp_path):
        # Two ensembles at one scale differ by their perturbation alone;
        # the second plan must not be served from the first's artifact.
        perturbed = CAMEnsemble(config, perturbation=3e-14)
        kwargs = dict(variables=["U"], run_bias=False)
        with storing(None):
            expected = build_hybrid(perturbed, "fpzip", **kwargs)
        with storing(tmp_path / "cache"):
            build_hybrid(ensemble, "fpzip", **kwargs)
            served = build_hybrid(perturbed, "fpzip", **kwargs)
        assert served.choices == expected.choices


class TestTableCaching:
    def test_table6_cold_equals_warm(self, tmp_path):
        ctx = ExperimentContext.test()
        kwargs = dict(run_bias=False, variants=["fpzip-24", "NetCDF-4"])
        with storing(tmp_path / "cache"):
            cold_headers, cold_rows = table6_passes(ctx, **kwargs)
            agg = Aggregator()
            with obs.tracing(sinks=[agg]):
                warm_headers, warm_rows = table6_passes(ctx, **kwargs)
            assert _counter_total(agg, "store.hits") >= 1
        assert warm_headers == cold_headers
        assert warm_rows == cold_rows

    def test_table6_store_off_matches_cached(self, tmp_path):
        """REPRO_STORE unset stays bit-identical: cached rows agree with
        the plain computation."""
        ctx = ExperimentContext.test()
        kwargs = dict(run_bias=False, variants=["fpzip-24"])
        with storing(None):
            plain_headers, plain_rows = table6_passes(ctx, **kwargs)
        with storing(tmp_path / "cache"):
            cached_headers, cached_rows = table6_passes(ctx, **kwargs)
        assert cached_headers == list(plain_headers)
        assert [[c for c in row] for row in cached_rows] == \
            [[c for c in row] for row in plain_rows]
