"""Drivers regenerating the data behind the paper's Figures 1-4.

Figures are returned as structured data (box-plot samples, histogram
distributions with markers, scatter points with confidence rectangles);
the benchmark harness renders them with
:func:`repro.harness.report.render_boxplot` / :func:`render_table` and can
archive them as CSV.
"""

from __future__ import annotations

import numpy as np

from repro.compressors import get_variant, paper_variants
from repro.harness.experiments import ExperimentContext
from repro.metrics.streaming import ErrorSummary
from repro.pvt.acceptance import VerdictMemo

__all__ = [
    "figure1_error_boxplots",
    "figure2_rmsz_ensemble",
    "figure3_enmax_ensemble",
    "figure4_bias",
]


def figure1_error_boxplots(ctx: ExperimentContext, variants=None):
    """Figure 1: e_nmax (a) and NRMSE (b) over ALL variables, per variant.

    Returns ``{"enmax": {variant: values}, "nrmse": {variant: values}}``
    with one value per catalog variable.
    """
    variants = list(variants) if variants is not None else list(paper_variants())
    member = int(ctx.test_members[0])
    enmax_cols: dict[str, list[float]] = {v: [] for v in variants}
    nrmse_cols: dict[str, list[float]] = {v: [] for v in variants}
    for spec in ctx.ensemble.catalog:
        field = ctx.ensemble.member_field(spec.name, member)
        for variant in variants:
            recon = get_variant(variant).reconstruct(field)
            errors = ErrorSummary.of(field, recon)
            enmax_cols[variant].append(errors.e_nmax)
            nrmse_cols[variant].append(errors.nrmse)
    return {
        "enmax": {v: np.asarray(vals) for v, vals in enmax_cols.items()},
        "nrmse": {v: np.asarray(vals) for v, vals in nrmse_cols.items()},
    }


def _member_verdicts(ctx: ExperimentContext, variables, variants,
                     run_bias: bool):
    """Yield ``(name, context, {variant: verdict})`` per variable.

    Figures 2-4 read their markers from one :class:`VerdictMemo` per
    variable, judged on the first test member, so they plot exactly
    what the acceptance tests score.
    """
    variables = list(variables) if variables is not None else list(ctx.featured)
    variants = list(variants) if variants is not None else list(paper_variants())
    member = int(ctx.test_members[0])
    for name in variables:
        memo = VerdictMemo(ctx.ensemble.ensemble_field(name), [member], name)
        verdicts = memo.verdicts([get_variant(v) for v in variants],
                                 run_bias)
        yield name, memo.context, verdicts


def figure2_rmsz_ensemble(ctx: ExperimentContext, variables=None,
                          variants=None):
    """Figure 2: RMSZ distributions with reconstructed-member markers.

    For each variable: the ensemble RMSZ distribution (histogram source),
    the original RMSZ of one test member (the black circle), and each
    variant's reconstructed RMSZ (the markers).
    """
    member = int(ctx.test_members[0])
    out = {}
    for name, context, verdicts in _member_verdicts(
        ctx, variables, variants, run_bias=False
    ):
        out[name] = {
            "distribution": context.rmsz_dist,
            "original": context.stats.member_rmsz(member),
            "markers": {
                v: verdict.rmsz.detail["members"][member]["reconstructed"]
                for v, verdict in verdicts.items()
            },
        }
    return out


def figure3_enmax_ensemble(ctx: ExperimentContext, variables=None,
                           variants=None):
    """Figure 3: ensemble E_nmax box plots plus per-variant e_nmax markers."""
    member = int(ctx.test_members[0])
    return {
        name: {
            "distribution": context.enmax_dist,
            "markers": {
                v: verdict.enmax.detail["members"][member]["e_nmax"]
                for v, verdict in verdicts.items()
            },
        }
        for name, context, verdicts in _member_verdicts(
            ctx, variables, variants, run_bias=False
        )
    }


def figure4_bias(ctx: ExperimentContext, variables=None, variants=None):
    """Figure 4: slope-vs-intercept with 95% confidence rectangles.

    For each variable and variant: the bias test's fit of reconstructed
    on original RMSZ over the whole ensemble, with its rectangle.  A
    variant whose bias test has no fit (its reconstructed ensemble has
    no spread, or lost valid points: the verdict gives a
    ``detail["reason"]`` instead) is left out of that variable's points.
    """
    return {
        name: {v: verdict.bias.detail["regression"]
               for v, verdict in verdicts.items()
               if "regression" in verdict.bias.detail}
        for name, _, verdicts in _member_verdicts(
            ctx, variables, variants, run_bias=True
        )
    }
