"""The variable-outer driver chooses what the family-outer walk chose.

Before Tables 7-8 shared one per-variable driver, every family walked
its own ladder over every variable, fetching the fields and building a
fresh context per (family, variable) and judging each rung anew.  That
walk is kept here as the oracle: ``build_all_hybrids`` must reproduce
its choices field for field, with the bias test on and off.
"""

import numpy as np
import pytest

from repro.compressors import get_variant, method_families
from repro.compressors.base import compression_ratio
from repro.hybrid.selector import HybridChoice, build_all_hybrids
from repro.pvt.acceptance import VariableContext, evaluate_variable

LADDERS = {**method_families(extended_apax=True, include_modern=True),
           "NetCDF-4": ("NetCDF-4",)}


def _family_outer_choice(fields, name, ladder, members, run_bias):
    """One family's walk for one variable, with its own context."""
    member = int(members[0])
    x = np.ascontiguousarray(fields[member])
    context = None
    for variant in ladder:
        codec = get_variant(variant)
        if codec.is_lossless:
            outcome = codec.roundtrip(x)
            assert np.array_equal(outcome.reconstructed, x)
            return HybridChoice(
                variable=name, variant=variant, cr=outcome.cr, rho=1.0,
                nrmse=0.0, e_nmax=0.0, lossless=True, n_points=int(x.size),
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
            errors = verdict.errors[member]
            return HybridChoice(
                variable=name, variant=variant,
                cr=compression_ratio(x.nbytes, len(codec.compress(x))),
                rho=errors.pearson, nrmse=errors.nrmse,
                e_nmax=errors.e_nmax, lossless=False, n_points=int(x.size),
            )
    raise AssertionError(f"no rung passed for {name!r}")


@pytest.mark.parametrize("run_bias", [True, False])
def test_all_hybrids_match_family_outer_walk(ensemble, run_bias):
    got = build_all_hybrids(ensemble, run_bias=run_bias,
                            extended_apax=True, include_modern=True)
    members = ensemble.pick_members(3)
    oracle = {
        family: {
            spec.name: _family_outer_choice(
                ensemble.ensemble_field(spec.name), spec.name, ladder,
                members, run_bias)
            for spec in ensemble.catalog
        }
        for family, ladder in LADDERS.items()
    }
    assert list(got) == list(oracle)
    for family, result in got.items():
        assert result.family == family
        assert list(result.choices) == list(oracle[family])
        assert result.choices == oracle[family], family
