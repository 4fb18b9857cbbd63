#!/usr/bin/env python
"""Ensemble verification: is compression climate-changing?

Reproduces the paper's Section 4.3 workflow end-to-end:

1. run a perturbed-initial-condition ensemble (O(1e-14) perturbations on
   a chaotic dycore — the CESM-PVT setup);
2. pick three random members, compress and reconstruct them with a codec;
3. check the reconstructed members against the ensemble's natural
   variability: RMSZ distribution + eq. 8 closeness, E_nmax distribution +
   eq. 11 ratio, Pearson rho >= 0.99999, and the whole-ensemble bias
   regression with 95% confidence rectangles (eq. 9).

Run:  python examples/ensemble_verification.py [variant] [variable]
      e.g. python examples/ensemble_verification.py fpzip-16 Z3
"""

import sys

import numpy as np

from repro.compressors import get_variant
from repro.compressors.base import compression_ratio
from repro.config import example_scale
from repro.model import CAMEnsemble
from repro.pvt import CesmPvt


def main() -> None:
    variant = sys.argv[1] if len(sys.argv) > 1 else "fpzip-24"
    variable = sys.argv[2] if len(sys.argv) > 2 else "U"

    config = example_scale(ne=6, nlev=8, n_members=41, n_2d=10, n_3d=10)
    print(f"Running a {config.n_members}-member ensemble "
          f"(ne={config.ne}, {config.ncol} columns) ...")
    ensemble = CAMEnsemble(config)
    pvt = CesmPvt(ensemble)
    codec = get_variant(variant)

    print(f"Verifying {variant} on variable {variable} "
          f"(test members {pvt.test_members.tolist()})\n")
    report = pvt.evaluate_codec(codec, variables=[variable], run_bias=True)
    verdict = report.verdicts[variable]

    dist = verdict.rmsz.detail["distribution"]
    print(f"RMSZ ensemble distribution: [{dist.min():.3f}, {dist.max():.3f}]")
    for member, d in verdict.rmsz.detail["members"].items():
        print(
            f"  member {member:3d}: original RMSZ {d['original']:.3f} -> "
            f"reconstructed {d['reconstructed']:.3f} "
            f"(within={d['within']}, |diff|<=0.1: {d['close']})"
        )
    print(f"  => RMSZ ensemble test: "
          f"{'PASS' if verdict.rmsz.passed else 'FAIL'}\n")

    edist = verdict.enmax.detail["distribution"]
    print(f"E_nmax ensemble range: {edist.max() - edist.min():.3e}")
    for member, d in verdict.enmax.detail["members"].items():
        print(f"  member {member:3d}: e_nmax {d['e_nmax']:.3e} "
              f"(within={d['within']}, ratio<=1/10: {d['small']})")
    print(f"  => E_nmax ensemble test: "
          f"{'PASS' if verdict.enmax.passed else 'FAIL'}\n")

    rho_values = verdict.rho.detail["values"]
    worst_rho = min(rho_values.values())
    print(f"Pearson rho (worst of {len(rho_values)} members): "
          f"{worst_rho:.8f} => "
          f"{'PASS' if verdict.rho.passed else 'FAIL'}\n")

    fit = verdict.bias.detail["regression"]
    print(
        f"Bias regression over all {fit.n} members: slope={fit.slope:.5f} "
        f"in [{fit.slope_ci[0]:.5f}, {fit.slope_ci[1]:.5f}], "
        f"intercept={fit.intercept:.5f}\n"
        f"  rectangle contains (1,0): {fit.contains_ideal()}; "
        f"eq. 9 |s_I - s_WC| = {fit.slope_distance:.4f} <= 0.05: "
        f"{fit.passes()}\n"
    )

    # The tests score reconstructions only; the CR needs the blobs.
    fields = ensemble.ensemble_field(variable)
    mean_cr = np.mean([
        compression_ratio(fields[m].nbytes, len(codec.compress(fields[m])))
        for m in pvt.test_members
    ])
    print(f"OVERALL: {variant} on {variable}: "
          f"{'ACCEPTED' if verdict.all_passed else 'REJECTED'} "
          f"(mean CR {mean_cr:.2f})")
    if not verdict.all_passed:
        print("Try a finer variant (e.g. fpzip-24, APAX-2) or the "
              "lossless fallback.")


if __name__ == "__main__":
    main()
