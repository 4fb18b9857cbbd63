"""Hybrid method construction (Section 5.4)."""

from collections import Counter

import numpy as np
import pytest

from repro.check import sanitized
from repro.compressors import get_variant
from repro.hybrid.selector import build_all_hybrids, build_hybrid
from repro.pvt.acceptance import VariableContext


@pytest.fixture(scope="module")
def fpzip_hybrid(ensemble):
    return build_hybrid(ensemble, "fpzip", run_bias=False)


class TestBuildHybrid:
    def test_every_variable_gets_a_choice(self, fpzip_hybrid, config):
        assert len(fpzip_hybrid.choices) == config.n_variables

    def test_choices_come_from_the_ladder(self, fpzip_hybrid):
        allowed = {"fpzip-16", "fpzip-24", "fpzip-32"}
        assert {c.variant for c in fpzip_hybrid.choices.values()} <= allowed

    def test_chosen_variant_actually_passes(self, ensemble, fpzip_hybrid):
        # Spot-check: re-run the acceptance test for a lossy choice.
        from repro.pvt.acceptance import evaluate_variable

        lossy = [c for c in fpzip_hybrid.choices.values() if not c.lossless]
        assert lossy, "expected at least one lossy selection"
        choice = lossy[0]
        fields = ensemble.ensemble_field(choice.variable)
        verdict = evaluate_variable(
            fields, get_variant(choice.variant),
            ensemble.pick_members(3), run_bias=False,
        )
        assert verdict.all_passed

    def test_passing_lossy_rung_reuses_its_verdict(self, ensemble,
                                                   compress_calls,
                                                   reconstruct_calls):
        members = ensemble.pick_members(3)
        with sanitized(False):
            result = build_hybrid(ensemble, "fpzip", variables=["U"],
                                  test_members=members, run_bias=True)
        choice = result.choices["U"]
        assert not choice.lossless
        # The screen reconstructs the three test members, the bias test
        # every member; the quality numbers come from the verdict, and
        # the ratio from one compress of the first test member.
        assert compress_calls[choice.variant] == 1
        assert reconstruct_calls[choice.variant] == \
            len(members) + ensemble.config.n_members
        from repro.metrics.streaming import ErrorSummary

        field = ensemble.member_field("U", int(members[0]))
        outcome = get_variant(choice.variant).roundtrip(field)
        errors = ErrorSummary.of(field, outcome.reconstructed)
        assert (choice.cr, choice.rho, choice.nrmse, choice.e_nmax) == (
            outcome.cr, errors.pearson, errors.nrmse, errors.e_nmax)

    @pytest.mark.parametrize("family", ["fpzip", "SZ+BR", "NetCDF-4"])
    def test_one_compress_per_variable(self, ensemble, compress_calls,
                                       family):
        # Acceptance makes no blob: the only one a plan needs is the
        # chosen codec's, for its ratio.
        names = ["U", "FSDSC", "Z3"]
        with sanitized(False):
            result = build_hybrid(ensemble, family, variables=names,
                                  run_bias=True)
        assert sum(compress_calls.values()) == len(names)
        for name in names:
            assert compress_calls[result.choices[name].variant] >= 1

    def test_variables_subset(self, ensemble):
        result = build_hybrid(ensemble, "fpzip", variables=["U", "Z3"],
                              run_bias=False)
        assert set(result.choices) == {"U", "Z3"}

    def test_isabela_falls_back_to_netcdf(self, ensemble):
        result = build_hybrid(ensemble, "ISABELA", run_bias=False)
        variants = {c.variant for c in result.choices.values()}
        assert variants <= {"ISA-1.0", "ISA-0.5", "ISA-0.1", "NetCDF-4"}

    def test_unknown_family(self, ensemble):
        with pytest.raises(KeyError, match="unknown family"):
            build_hybrid(ensemble, "zfp")

    def test_sz_family(self, ensemble):
        from repro.compressors import method_families

        result = build_hybrid(ensemble, "SZ", variables=["U", "FSDSC"],
                              run_bias=False)
        variants = {c.variant for c in result.choices.values()}
        assert variants <= set(method_families(include_modern=True)["SZ"])

    def test_bitround_family(self, ensemble):
        result = build_hybrid(ensemble, "BitRound",
                              variables=["U", "FSDSC"], run_bias=False)
        variants = {c.variant for c in result.choices.values()}
        assert variants <= {"BR-4", "BR-6", "BR-8", "BR-10", "BR-12",
                            "NetCDF-4"}

    def test_mixed_family_draws_from_both_codecs(self, ensemble):
        from repro.compressors import method_families

        ladder = method_families(include_modern=True)["SZ+BR"]
        assert {v for v in ladder if v.startswith("SZ-")}
        assert {v for v in ladder if v.startswith("BR-")}
        result = build_hybrid(ensemble, "SZ+BR", variables=["U", "FSDSC"],
                              run_bias=False)
        variants = {c.variant for c in result.choices.values()}
        assert variants <= set(ladder)

    def test_lossless_choices_marked(self, ensemble):
        result = build_hybrid(ensemble, "NetCDF-4", run_bias=False)
        assert all(c.lossless for c in result.choices.values())
        assert all(c.rho == 1.0 and c.nrmse == 0.0
                   for c in result.choices.values())


class TestSummaryAndComposition:
    def test_summary_fields(self, fpzip_hybrid):
        s = fpzip_hybrid.summary()
        assert set(s) == {"avg_cr", "total_cr", "best_cr", "worst_cr",
                          "avg_rho", "avg_nrmse", "avg_enmax"}
        assert 0 < s["best_cr"] <= s["avg_cr"] <= s["worst_cr"] <= 1.05
        assert s["best_cr"] <= s["total_cr"] <= s["worst_cr"]
        assert s["avg_rho"] > 0.999

    def test_total_cr_weights_by_volume(self, fpzip_hybrid):
        # Recompute the volume-weighted ratio by hand from the choices.
        choices = fpzip_hybrid.choices.values()
        assert all(c.n_points > 0 for c in choices)
        expected = sum(c.cr * c.n_points for c in choices) / \
            sum(c.n_points for c in choices)
        assert fpzip_hybrid.summary()["total_cr"] == \
            pytest.approx(expected, rel=1e-12)

    def test_composition_sums_to_catalog(self, fpzip_hybrid, config):
        assert sum(fpzip_hybrid.composition().values()) == config.n_variables

    def test_plan_maps_to_codecs(self, fpzip_hybrid, config):
        plan = fpzip_hybrid.plan()
        assert len(plan) == config.n_variables
        for name, codec in plan.items():
            assert codec.variant == fpzip_hybrid.choices[name].variant


class TestAllHybrids:
    def test_table7_families(self, ensemble):
        hybrids = build_all_hybrids(ensemble, variables=["U", "FSDSC"],
                                    run_bias=False)
        assert set(hybrids) == {"GRIB2", "ISABELA", "fpzip", "APAX",
                                "NetCDF-4"}

    def test_modern_families_opt_in(self, ensemble):
        hybrids = build_all_hybrids(ensemble, variables=["U", "FSDSC"],
                                    run_bias=False, include_modern=True)
        assert {"SZ", "BitRound"} <= set(hybrids)
        assert len(hybrids["SZ"].choices) == 2

    def test_hybrid_beats_pure_lossless(self, ensemble):
        # The entire point of Section 5.4: the hybrid fpzip CR must be
        # better (smaller) than lossless-everything.
        hybrids = build_all_hybrids(ensemble, run_bias=False)
        assert hybrids["fpzip"].summary()["avg_cr"] < \
            hybrids["NetCDF-4"].summary()["avg_cr"]

    def test_each_variable_judged_once(self, config, monkeypatch):
        # Variables outer: one field synthesis and at most one context
        # per variable, and no (variable, variant) judged or compressed
        # twice, however many ladders share the rung.
        import hashlib

        import repro.pvt.acceptance as acceptance
        from repro.compressors.base import Compressor
        from repro.model.cam import CAMModel
        from repro.model.ensemble import CAMEnsemble

        fresh = CAMEnsemble(config)
        counts = Counter()
        evaluated = Counter()
        compressed = Counter()

        def wrap(owner, attr, record):
            real = getattr(owner, attr)

            def counting(*args, **kwargs):
                record(*args, **kwargs)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        wrap(CAMModel, "fields_for",
             lambda *a, **k: counts.update(["fields_for"]))
        wrap(VariableContext, "from_ensemble",
             lambda *a, **k: counts.update(["context"]))
        wrap(acceptance, "evaluate_variable",
             lambda fields, codec, members, variable="?", run_bias=True,
             **k: evaluated.update([(variable, codec.variant, run_bias)]))
        wrap(Compressor, "compress",
             lambda self, data: compressed.update([(
                 self.variant,
                 hashlib.sha256(np.ascontiguousarray(data)).hexdigest())]))
        with sanitized(False):
            hybrids = build_all_hybrids(fresh, include_modern=True,
                                        run_bias=True)
        assert counts["fields_for"] == config.n_variables
        assert counts["context"] <= config.n_variables
        assert evaluated and max(evaluated.values()) == 1
        assert compressed and max(compressed.values()) == 1
        # Every lossy choice still earned its one bias evaluation.
        assert {(name, c.variant) for result in hybrids.values()
                for name, c in result.choices.items() if not c.lossless} \
            <= {(name, variant) for name, variant, bias in evaluated if bias}
