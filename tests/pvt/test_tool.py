"""CesmPvt orchestrator, and the PVT's port check against a summary."""

import functools
import pickle

import numpy as np
import pytest

from repro.check import sanitized
from repro.compressors import get_variant
from repro.model.ensemble import CAMEnsemble
from repro.pvt import tool
from repro.pvt.tool import CesmPvt
from repro.pvt.summary import EnsembleSummary


class TestEvaluateCodec:
    def test_report_structure(self, pvt):
        report = pvt.evaluate_codec(
            get_variant("fpzip-24"), variables=["U", "FSDSC"],
            run_bias=False,
        )
        assert report.codec == "fpzip-24"
        assert set(report.verdicts) == {"U", "FSDSC"}
        counts = report.pass_counts()
        assert set(counts) == {"rho", "rmsz", "enmax", "bias", "all"}
        assert report.n_variables == 2

    def test_all_variables_default(self, pvt, config):
        report = pvt.evaluate_codec(
            get_variant("NetCDF-4"), run_bias=False
        )
        assert report.n_variables == config.n_variables
        assert report.pass_counts()["all"] == config.n_variables

    def test_spec_objects_accepted(self, pvt, ensemble):
        spec = ensemble.spec("U")
        report = pvt.evaluate_codec(
            get_variant("NetCDF-4"), variables=[spec], run_bias=False
        )
        assert "U" in report.verdicts

    def test_evaluate_codecs_is_evaluate_codec_per_codec(self, pvt):
        codecs = [get_variant("fpzip-24"), get_variant("APAX-5")]
        reports = pvt.evaluate_codecs(codecs, variables=["U", "FSDSC"],
                                      run_bias=False)
        assert list(reports) == ["fpzip-24", "APAX-5"]
        for codec in codecs:
            single = pvt.evaluate_codec(codec, variables=["U", "FSDSC"],
                                        run_bias=False)
            report = reports[codec.variant]
            assert report.codec == codec.variant
            assert {n: v.as_row() for n, v in report.verdicts.items()} == \
                {n: v.as_row() for n, v in single.verdicts.items()}
            assert {n: v.errors for n, v in report.verdicts.items()} == \
                {n: v.errors for n, v in single.verdicts.items()}

    def test_members_are_fixed_random_triple(self, pvt, config):
        assert len(pvt.test_members) == 3
        assert all(0 <= m < config.n_members for m in pvt.test_members)


class TestPortVerification:
    """The PVT's port check is the summary's: `verify_runs`."""

    @pytest.fixture(scope="class")
    def summary(self, ensemble):
        return EnsembleSummary.from_ensemble(ensemble, variables=["U"])

    def test_members_of_same_climate_pass(self, summary, ensemble):
        # Runs drawn from the same model must not be flagged.
        new = {"U": ensemble.ensemble_field("U")[:2]}
        runs = summary.verify_runs(new)["U"]
        assert len(runs) == 2
        assert all(r["passed"] for r in runs)

    def test_shifted_climate_fails_global_mean(self, summary, ensemble):
        fields = ensemble.ensemble_field("U")[:2].astype(np.float64)
        shifted = fields + 5.0  # half a standard deviation shift
        runs = summary.verify_runs({"U": shifted})["U"]
        assert not any(r["mean_ok"] for r in runs)
        assert not any(r["passed"] for r in runs)

    def test_noisy_run_fails_rmsz(self, summary, ensemble, rng):
        fields = ensemble.ensemble_field("U")[:1].astype(np.float64)
        # Per-point noise at 5x the ensemble spread blows up the Z-scores
        # without moving the global mean.
        spread = ensemble.ensemble_field("U").std(axis=0)
        noisy = fields + 5.0 * spread[None] * rng.standard_normal(
            fields.shape
        )
        runs = summary.verify_runs({"U": noisy},
                                   mean_tolerance_factor=10.0)["U"]
        assert not runs[0]["rmsz_ok"]

    def test_rmsz_a_rounding_error_above_the_range_passes(self, summary,
                                                          ensemble):
        s = summary.variables["U"]
        edge = s.rmsz_dist.max()
        base = ensemble.member_field("U", 1).astype(np.float64).reshape(-1)
        # Z-scores are linear in the deviation from the summary's mean,
        # so scaling it sets the run's RMSZ.
        scale = edge / s.rmsz_of(base)

        def run_at(factor):
            run = base.copy()
            run[s.valid] = s.mean + scale * factor * (base[s.valid] - s.mean)
            return run.reshape((1,) + s.shape)

        near = summary.verify_runs({"U": run_at(1 + 1e-12)})["U"][0]
        assert near["rmsz"] > edge
        assert near["rmsz_ok"]
        far = summary.verify_runs({"U": run_at(1 + 1e-6)})["U"][0]
        assert not far["rmsz_ok"]

    def test_detail_payload(self, summary, ensemble):
        runs = summary.verify_runs({"U": ensemble.ensemble_field("U")[:1]})
        assert set(runs["U"][0]) == {"rmsz", "rmsz_ok", "mean", "mean_ok",
                                     "passed"}


class TestParallelEvaluation:
    def test_parallel_matches_serial(self, config):
        # A fresh ensemble: pool workers rebuild it from its config and
        # perturbation, inline tasks use this one.
        ensemble = CAMEnsemble(config)
        pvt = CesmPvt(ensemble)
        serial = pvt.evaluate_codec(
            get_variant("fpzip-24"), variables=["U", "FSDSC"],
            run_bias=False, workers=0,
        )
        parallel = pvt.evaluate_codec(
            get_variant("fpzip-24"), variables=["U", "FSDSC"],
            run_bias=False, workers=2,
        )
        for name in ("U", "FSDSC"):
            assert serial.verdicts[name].as_row() == \
                parallel.verdicts[name].as_row()
            assert serial.verdicts[name].errors == \
                parallel.verdicts[name].errors

    def test_pool_workers_judge_the_callers_perturbation(self, config):
        # A worker that rebuilt a default-perturbation ensemble would
        # score other fields: same verdict rows, different errors.
        pvt = CesmPvt(CAMEnsemble(config, perturbation=3e-14))
        kwargs = dict(variables=["U", "FSDSC"], run_bias=False)
        codec = get_variant("fpzip-24")
        serial = pvt.evaluate_codec(codec, workers=0, **kwargs)
        parallel = pvt.evaluate_codec(codec, workers=2, **kwargs)
        for name in ("U", "FSDSC"):
            assert serial.verdicts[name].errors == \
                parallel.verdicts[name].errors


class TestOneRunner:
    def test_inline_sweep_builds_no_ensemble(self, pvt, monkeypatch):
        built = []
        real = CAMEnsemble.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(CAMEnsemble, "__init__", counting)
        report = pvt.evaluate_codec(get_variant("NetCDF-4"),
                                    variables=["U", "FSDSC"],
                                    run_bias=False, workers=0)
        assert report.complete and built == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_unknown_variable_raises_before_the_map(self, pvt, workers,
                                                    monkeypatch):
        monkeypatch.setattr(tool, "parallel_map", None)  # never reached
        with pytest.raises(KeyError, match="NOPE"):
            pvt.evaluate_codec(get_variant("NetCDF-4"),
                               variables=["U", "NOPE"], run_bias=False,
                               workers=workers)

    def test_ensemble_pickles_as_its_identity(self, config):
        ensemble = CAMEnsemble(config, perturbation=3e-14)
        first = pickle.loads(pickle.dumps(ensemble))
        again = pickle.loads(pickle.dumps(ensemble))
        assert first is again  # rebuilt once per process
        assert (first.config, first.perturbation) == (config, 3e-14)
        np.testing.assert_array_equal(first.ensemble_field("U"),
                                      ensemble.ensemble_field("U"))

    def test_sanitized_serial_sweep_completes(self, pvt):
        with sanitized():
            report = pvt.evaluate_codec(get_variant("fpzip-24"),
                                        variables=["U", "FSDSC"],
                                        run_bias=False, workers=0)
        assert report.complete and set(report.verdicts) == {"U", "FSDSC"}


_REAL_JUDGE = tool._judge_variable


def _judge_failing_for(target, item):
    """Picklable runner-task stand-in failing one variable's evaluation."""
    if item[1] == target:
        raise RuntimeError("injected evaluation failure")
    return _REAL_JUDGE(item)


class TestDegradedEvaluation:
    def test_failed_variable_costs_its_verdict_not_the_report(
        self, pvt, monkeypatch
    ):
        monkeypatch.setattr(
            tool, "_judge_variable",
            functools.partial(_judge_failing_for, "U"),
        )
        report = pvt.evaluate_codec(
            get_variant("NetCDF-4"), variables=["U", "FSDSC"],
            run_bias=False, workers=2,
        )
        assert set(report.verdicts) == {"FSDSC"}
        assert set(report.failures) == {"U"}
        assert not report.complete
        failure = report.failures["U"]
        assert failure.kind == "exception"
        assert failure.error_type == "RuntimeError"

    def test_serial_sweep_degrades_like_a_parallel_one(self, pvt,
                                                       monkeypatch):
        monkeypatch.setattr(
            tool, "_judge_variable",
            functools.partial(_judge_failing_for, "FSDSC"),
        )
        kwargs = dict(variables=["U", "FSDSC", "T"], run_bias=False)
        codec = get_variant("fpzip-24")
        serial = pvt.evaluate_codec(codec, workers=0, **kwargs)
        parallel = pvt.evaluate_codec(codec, workers=2, **kwargs)
        assert serial.pass_counts() == parallel.pass_counts()
        assert {n: v.as_row() for n, v in serial.verdicts.items()} == \
            {n: v.as_row() for n, v in parallel.verdicts.items()}
        assert set(serial.failures) == set(parallel.failures) == {"FSDSC"}
        for mine, theirs in zip(serial.failures.values(),
                                parallel.failures.values()):
            assert (mine.index, mine.kind, mine.error_type, mine.message) \
                == (theirs.index, theirs.kind, theirs.error_type,
                    theirs.message)

    def test_clean_parallel_report_is_complete(self, pvt):
        report = pvt.evaluate_codec(
            get_variant("NetCDF-4"), variables=["U", "FSDSC"],
            run_bias=False, workers=2,
        )
        assert report.complete and report.failures == {}
