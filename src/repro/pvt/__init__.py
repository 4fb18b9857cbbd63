"""The CESM port-verification tool (CESM-PVT), repurposed for compression
verification (paper Section 4.3).

Workflow:

1. an ensemble of perturbed-initial-condition runs provides the natural
   variability baseline (:mod:`repro.model.ensemble`);
2. :mod:`zscore` computes leave-one-out Z-scores and RMSZ (eqs. 6-7) and
   the eq. 8 closeness test; eq. 7 against per-point statistics is one
   fold, :class:`~repro.pvt.zscore.StreamingRMSZ`, whose one-chunk case
   scores a member;
3. :mod:`enmax` builds the E_nmax distribution (eq. 10) and the eq. 11
   ratio test;
4. :mod:`bias` regresses reconstructed RMSZ on original RMSZ, with 95%
   confidence rectangles and the eq. 9 slope-uncertainty test;
5. :mod:`acceptance` reconstructs each member an evaluation needs once
   (the whole ensemble when the bias test runs) and combines the four
   per-variable pass/fail verdicts (the columns of Table 6);
6. :mod:`tool` orchestrates everything — one fan-out of codecs over
   variables;
7. :mod:`summary` reduces the ensemble to per-point statistics and
   distributions, and is the PVT's original purpose, the port check:
   new runs' RMSZ and mean-range tests against the summary;
8. :mod:`budget` adds the global energy-budget conservation check from the
   paper's future work.
"""

from repro.pvt.zscore import EnsembleStats, rmsz_distribution
from repro.pvt.enmax import enmax_distribution, enmax_for_member
from repro.pvt.bias import BiasResult, bias_regression
from repro.pvt.acceptance import (
    TestVerdict,
    VariableVerdict,
    evaluate_variable,
    reconstruct_ensemble,
)
from repro.pvt.tool import CesmPvt, PvtReport
from repro.pvt.budget import global_mean_shift, energy_budget_residual
from repro.pvt.distribution_tests import (
    KsResult,
    ks_test,
    rmsz_distribution_test,
)
from repro.pvt.summary import EnsembleSummary, VariableSummary

__all__ = [
    "EnsembleStats",
    "rmsz_distribution",
    "enmax_distribution",
    "enmax_for_member",
    "BiasResult",
    "bias_regression",
    "TestVerdict",
    "VariableVerdict",
    "evaluate_variable",
    "reconstruct_ensemble",
    "CesmPvt",
    "PvtReport",
    "global_mean_shift",
    "energy_budget_residual",
    "KsResult",
    "ks_test",
    "rmsz_distribution_test",
    "EnsembleSummary",
    "VariableSummary",
]
