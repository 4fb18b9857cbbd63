"""Acceptance on reconstructions gives what the sized path gave.

Before acceptance stopped making blobs, every test member took a full
``roundtrip``: its verdict was scored on the decompressed blob, and the
hybrid's ratio and quality numbers came from member 0's round trip.
That path is kept here as the oracle: ``build_hybrid`` must reproduce
its choices field for field, and a Table 6 row must read the same with
the sanitizer comparing every ``reconstruct`` against its round trip.
"""

import numpy as np
import pytest

from repro.check import sanitized
from repro.compressors import get_variant, method_families
from repro.compressors.base import Compressor
from repro.hybrid.selector import HybridChoice, build_hybrid
from repro.metrics.streaming import ErrorSummary
from repro.pvt.acceptance import VariableContext, evaluate_variable

FAMILIES = {**method_families(include_modern=True),
            "NetCDF-4": ("NetCDF-4",)}

#: One rung from each family's ladder (SZ-pw-0.005 for SZ+BR).
TABLE6_ROWS = ("GRIB2", "ISA-0.5", "fpzip-16", "APAX-4", "SZ-rel-0.001",
               "SZ-pw-0.005", "BR-6", "NetCDF-4")


def _sized_choice(fields, name, ladder, members, run_bias):
    """The sized path's walk: scores from full round trips, and the CR
    and quality numbers of a round trip of the first test member."""
    member = int(members[0])
    context = None
    for variant in ladder:
        codec = get_variant(variant)
        outcome = codec.roundtrip(np.ascontiguousarray(fields[member]))
        if codec.is_lossless:
            assert np.array_equal(outcome.reconstructed, fields[member])
            return HybridChoice(
                variable=name, variant=variant, cr=outcome.cr, rho=1.0,
                nrmse=0.0, e_nmax=0.0, lossless=True,
                n_points=int(fields[member].size),
            )
        if context is None:
            context = VariableContext.from_ensemble(fields)
        verdict = evaluate_variable(fields, codec, members, variable=name,
                                    run_bias=False, context=context)
        if verdict.all_passed and run_bias:
            verdict = evaluate_variable(fields, codec, members,
                                        variable=name, run_bias=True,
                                        context=context)
        if verdict.all_passed:
            errors = ErrorSummary.of(fields[member], outcome.reconstructed)
            return HybridChoice(
                variable=name, variant=variant, cr=outcome.cr,
                rho=errors.pearson, nrmse=errors.nrmse,
                e_nmax=errors.e_nmax, lossless=False,
                n_points=int(fields[member].size),
            )
    raise AssertionError(f"no rung passed for {name!r}")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_build_hybrid_matches_sized_path(ensemble, monkeypatch, family):
    members = ensemble.pick_members(3)
    got = build_hybrid(ensemble, family, test_members=members,
                       run_bias=True)
    with monkeypatch.context() as patch:
        patch.setattr(Compressor, "reconstruct",
                      lambda self, data: self.roundtrip(data).reconstructed)
        oracle = {
            spec.name: _sized_choice(ensemble.ensemble_field(spec.name),
                                     spec.name, FAMILIES[family], members,
                                     run_bias=True)
            for spec in ensemble.catalog
        }
    assert got.choices == oracle


def test_table6_rows_agree_under_sanitizer(pvt, monkeypatch):
    # One row per family, bias test on: with REPRO_SANITIZE=1 every
    # reconstruct is checked byte for byte against its round trip.
    codecs = [get_variant(v) for v in TABLE6_ROWS]
    with sanitized(False):
        plain = pvt.evaluate_codecs(codecs, run_bias=True)
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SANITIZE", "1")
        guarded = pvt.evaluate_codecs(codecs, run_bias=True)
    for codec in codecs:
        a, b = plain[codec.variant], guarded[codec.variant]
        assert a.pass_counts() == b.pass_counts()
        assert a.verdicts == b.verdicts
        assert {n: v.errors for n, v in a.verdicts.items()} == \
            {n: v.errors for n, v in b.verdicts.items()}
