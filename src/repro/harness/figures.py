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
from repro.metrics.pointwise import normalized_max_error
from repro.metrics.streaming import ErrorSummary
from repro.pvt.acceptance import VariableContext
from repro.pvt.bias import bias_regression
from repro.pvt.zscore import EnsembleStats

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
            codec = get_variant(variant)
            errors = ErrorSummary.of(
                field, codec.decompress(codec.compress(field)))
            enmax_cols[variant].append(errors.e_nmax)
            nrmse_cols[variant].append(errors.nrmse)
    return {
        "enmax": {v: np.asarray(vals) for v, vals in enmax_cols.items()},
        "nrmse": {v: np.asarray(vals) for v, vals in nrmse_cols.items()},
    }


def figure2_rmsz_ensemble(ctx: ExperimentContext, variables=None,
                          variants=None):
    """Figure 2: RMSZ distributions with reconstructed-member markers.

    For each variable: the ensemble RMSZ distribution (histogram source),
    the original RMSZ of one test member (the black circle), and each
    variant's reconstructed RMSZ (the markers).
    """
    variables = list(variables) if variables is not None else list(ctx.featured)
    variants = list(variants) if variants is not None else list(paper_variants())
    member = int(ctx.test_members[0])
    out = {}
    for name in variables:
        fields = ctx.ensemble.ensemble_field(name)
        stats = EnsembleStats(fields)
        dist = stats.distribution()
        original = stats.member_rmsz(member)
        markers = {}
        for variant in variants:
            codec = get_variant(variant)
            recon = codec.decompress(codec.compress(fields[member]))
            markers[variant] = stats.rmsz(
                recon.astype(np.float64).reshape(-1), member
            )
        out[name] = {
            "distribution": dist,
            "original": original,
            "markers": markers,
        }
    return out


def figure3_enmax_ensemble(ctx: ExperimentContext, variables=None,
                           variants=None):
    """Figure 3: ensemble E_nmax box plots plus per-variant e_nmax markers."""
    variables = list(variables) if variables is not None else list(ctx.featured)
    variants = list(variants) if variants is not None else list(paper_variants())
    member = int(ctx.test_members[0])
    out = {}
    for name in variables:
        fields = ctx.ensemble.ensemble_field(name)
        context = VariableContext.from_ensemble(fields)
        markers = {}
        for variant in variants:
            codec = get_variant(variant)
            recon = codec.decompress(codec.compress(fields[member]))
            markers[variant] = normalized_max_error(fields[member], recon)
        out[name] = {
            "distribution": context.enmax_dist,
            "markers": markers,
        }
    return out


def figure4_bias(ctx: ExperimentContext, variables=None, variants=None):
    """Figure 4: slope-vs-intercept with 95% confidence rectangles.

    For each variable and variant: compress the whole ensemble, regress
    reconstructed RMSZ on original RMSZ, return the fit and rectangle.
    """
    variables = list(variables) if variables is not None else list(ctx.featured)
    variants = list(variants) if variants is not None else list(paper_variants())
    out = {}
    for name in variables:
        fields = ctx.ensemble.ensemble_field(name)
        stats = EnsembleStats(fields)
        rmsz_orig = stats.distribution()
        points = {}
        for variant in variants:
            codec = get_variant(variant)
            recon = np.empty_like(fields)
            for m in range(fields.shape[0]):
                recon[m] = codec.decompress(
                    codec.compress(np.ascontiguousarray(fields[m]))
                )
            rmsz_rec = EnsembleStats(recon).distribution()
            points[variant] = bias_regression(rmsz_orig, rmsz_rec)
        out[name] = points
    return out
