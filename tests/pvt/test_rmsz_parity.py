"""`EnsembleStats.rmsz`, the one-chunk RMSZ fold, equals the batch
formula it replaced, bit for bit, on finite data.

The oracle is that formula, kept here: Z-scores over the valid points,
NaN where the leave-one-out spread is zero, then the root of the mean of
the finite squares.
"""

import numpy as np
from repro.compressors import get_variant, method_families
from repro.pvt.zscore import EnsembleStats

#: One reconstruction per family: its most compressive rung.
FAMILY_VARIANTS = [ladder[0] for ladder in
                   method_families(include_modern=True).values()]


def oracle_rmsz(stats, values, member):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    mean, std = stats.loo_mean_std(member)
    v = values[stats.valid]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (v - mean) / std
    z[std == 0.0] = np.nan
    ok = np.isfinite(z)
    return float(np.sqrt(np.mean(z[ok] ** 2)))


def test_rmsz_matches_batch_formula(ensemble):
    """Every catalog variable: each original member, and each test
    member's reconstruction by one variant per family."""
    checked = 0
    for spec in ensemble.catalog:
        fields = ensemble.ensemble_field(spec.name)
        stats = EnsembleStats(fields)
        for m in range(ensemble.n_members):
            assert stats.rmsz(fields[m], m) == \
                oracle_rmsz(stats, fields[m], m), (spec.name, m)
        for m in ensemble.pick_members(3):
            for variant in FAMILY_VARIANTS:
                recon = get_variant(variant).reconstruct(fields[m])
                assert np.isfinite(recon).all()
                assert stats.rmsz(recon, m) == \
                    oracle_rmsz(stats, recon, m), (spec.name, variant, m)
                checked += 1
    assert checked == len(ensemble.catalog) * 3 * len(FAMILY_VARIANTS)
