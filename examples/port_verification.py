#!/usr/bin/env python
"""The CESM-PVT's original job: port verification.

Before the paper repurposed it for compression, the PVT answered: "we
ported the model to a new machine and the results are no longer
bit-for-bit — did we change the climate?"  (Section 4.3.)

This example builds the trusted-machine ensemble, reduces it to its PVT
summary (per-point statistics, the RMSZ distribution and the mean
range), then plays two 'new machines':

- a benign port: the same model with a different O(1e-14) perturbation
  stream (bit-level differences only) — must PASS;
- a buggy port: the same model with a biased surface field (a sign error
  in some increment, say) — must FAIL the mean range-shift check.

Each run is scored as ``repro check`` scores a history file: its RMSZ
against the summary must fall within the ensemble's RMSZ distribution,
and its mean over valid points within the members' range.  Both are
range tests over a finite ensemble, so a same-climate run lands outside
one with probability about 2/(n_members + 1) per check: the benign port
passes at this example's scale (and at ne=3, nlev=4), but a 41-member
ensemble can flag it at other scales (it does at ne=4, nlev=6).

Run:  python examples/port_verification.py
"""

from repro.config import example_scale
from repro.model import CAMEnsemble
from repro.pvt import EnsembleSummary


def main() -> None:
    config = example_scale(ne=5, nlev=8, n_members=41, n_2d=8, n_3d=8)
    print(f"Trusted machine: running the {config.n_members}-member "
          "ensemble ...")
    trusted = CAMEnsemble(config)
    summary = EnsembleSummary.from_ensemble(
        trusted, variables=["U", "FSDSC", "T", "PS"])

    # "New machine": same climate, different bit-level perturbations.
    # Three runs is generally sufficient (Section 4.3).
    print("New machine: running 3 verification members ...")
    ported = CAMEnsemble(config, perturbation=3.0e-14)
    new_runs = {
        name: ported.ensemble_field(name)[:3]
        for name in ("U", "FSDSC", "T", "PS")
    }

    verdicts = summary.verify_runs(new_runs)
    print("\nBenign port verdicts (expected: all PASS):")
    for name, runs in verdicts.items():
        lo, hi = summary.variables[name].gmean_range
        passed = all(r["passed"] for r in runs)
        print(f"  {name:6s} mean ok={all(r['mean_ok'] for r in runs)} "
              f"(range [{lo:.7g}, {hi:.7g}], "
              f"new={[round(r['mean'], 4) for r in runs]}) "
              f"rmsz ok={all(r['rmsz_ok'] for r in runs)} -> "
              f"{'PASS' if passed else 'FAIL'}")
    assert all(r["passed"] for runs in verdicts.values() for r in runs)

    # "Buggy port": a biased temperature field.
    print("\nBuggy port: biasing T by +0.5 K everywhere ...")
    buggy = {"T": ported.ensemble_field("T")[:3].astype(float) + 0.5}
    runs = summary.verify_runs(buggy)["T"]
    passed = all(r["passed"] for r in runs)
    print(f"  T      mean ok={[r['mean_ok'] for r in runs]} "
          f"rmsz ok={[r['rmsz_ok'] for r in runs]} -> "
          f"{'PASS' if passed else 'FAIL'}")
    assert not passed
    print("\nThe PVT caught the climate-changing port, as designed.")


if __name__ == "__main__":
    main()
