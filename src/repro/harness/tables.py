"""Drivers regenerating the paper's Tables 1-8.

Each function returns ``(headers, rows)`` ready for
:func:`repro.harness.report.render_table` / :func:`write_csv`, so the
benchmark harness can both print the table and archive it.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import obs, store
from repro.compressors import (
    Apax,
    Fpzip,
    Grib2Jpeg2000,
    Isabela,
    NetCDF4Zlib,
    get_variant,
    paper_variants,
)
from repro.harness.experiments import ExperimentContext
from repro.hybrid.selector import build_all_hybrids
from repro.metrics.average import nrmse
from repro.metrics.characterize import characterize
from repro.metrics.pointwise import normalized_max_error

__all__ = [
    "table1_properties",
    "table2_characteristics",
    "table3_nrmse",
    "table4_enmax",
    "table5_timings",
    "table6_passes",
    "table7_hybrid_summary",
    "table8_hybrid_composition",
]


def _plain(cell):
    """JSON-ready cell: numpy scalars to Python, everything else as-is."""
    if isinstance(cell, np.generic):
        return cell.item()
    return cell


def _cached_table(stage, ctx, build, **params):
    """Memoize one table's ``(headers, rows)`` as a ``json`` artifact.

    The key folds in the context's scale config plus the driver's own
    parameters; rows pass through :func:`_plain` so the cold result is
    byte-identical to a warm read.  With no active store this is just
    ``build()``.
    """
    if store.get_store() is None:
        try:
            return build()
        except store.SkipStore as skip:
            return skip.value
    key = store.artifact_key(stage, config=ctx.config, **params)

    def compute():
        try:
            return _pack_table(build())
        except store.SkipStore as skip:
            # Partial table (some parallel tasks failed): deliver it to
            # the caller but keep it out of the cache.
            raise store.SkipStore(_pack_table(skip.value)) from None

    packed = store.cached(key, compute, kind="json", stage=stage)
    return packed["headers"], packed["rows"]


def _pack_table(table):
    headers, rows = table
    return {
        "headers": list(headers),
        "rows": [[_plain(cell) for cell in row] for row in rows],
    }


def table1_properties():
    """Table 1: the algorithm property matrix."""
    headers = [
        "Method", "lossless mode", "special values", "freely avail.",
        "fixed quality", "fixed CR", "32- & 64-bit",
    ]
    rows = []
    for cls in (Grib2Jpeg2000, Apax, Fpzip, Isabela):
        row = cls.properties().as_row()
        rows.append([row[h] for h in headers])
    return headers, rows


def table2_characteristics(ctx: ExperimentContext):
    """Table 2: characteristics (and lossless CR) of the featured datasets."""
    return _cached_table(
        "harness.table2", ctx, lambda: _table2_impl(ctx)
    )


def _table2_impl(ctx: ExperimentContext):
    headers = ["Variable", "units", "x_min", "x_max", "mean", "std", "CR"]
    rows = []
    for name in ctx.featured:
        spec = ctx.ensemble.spec(name)
        field = ctx.member_field(name)
        c = characterize(field, with_lossless_cr=True)
        rows.append(
            [name, spec.units, c.x_min, c.x_max, c.mean, c.std,
             c.lossless_cr]
        )
    return headers, rows


def _per_variant_metric(ctx: ExperimentContext, metric):
    headers = ["Comp. Method"] + [
        f"{name}" for name in ctx.featured
    ]
    rows = []
    for variant in paper_variants():
        codec = get_variant(variant)
        cells = [variant]
        for name in ctx.featured:
            field = ctx.member_field(name)
            outcome = codec.roundtrip(field)
            value = metric(field, outcome.reconstructed)
            cells.append(f"{value:.1e} ({outcome.cr:.2f})")
        rows.append(cells)
    return headers, rows


def table3_nrmse(ctx: ExperimentContext):
    """Table 3: NRMSE (and CR) for every variant on the featured variables."""
    return _cached_table(
        "harness.table3", ctx, lambda: _per_variant_metric(ctx, nrmse)
    )


def table4_enmax(ctx: ExperimentContext):
    """Table 4: e_nmax (and CR) for every variant on the featured variables."""
    return _cached_table(
        "harness.table4", ctx,
        lambda: _per_variant_metric(ctx, normalized_max_error),
    )


def table5_timings(ctx: ExperimentContext, repeats: int = 3):
    """Table 5: compression/reconstruction wall-clock and CR for U, FSDSC.

    Timings come from the ``repro.obs`` spans the codecs already emit
    (``compressors.compress`` / ``compressors.decompress``): each
    (variant, variable) cell runs ``repeats`` warm round trips into a
    private aggregator and reads back the minimum span duration.  (The
    pytest-benchmark variant in ``benchmarks/`` gives calibrated timings;
    this driver produces the full table in one call.)

    With an active store a warm rerun serves the *recorded* timings of
    the cold run (the warm-run speedup demonstrated by
    ``benchmarks/bench_store_warm.py``); clear or disable the store for
    fresh wall-clock numbers.
    """
    return _cached_table(
        "harness.table5", ctx, lambda: _table5_impl(ctx, repeats),
        repeats=repeats, variants=list(paper_variants()),
    )


def _table5_impl(ctx: ExperimentContext, repeats: int):
    headers = []
    for name in ("U", "FSDSC"):
        headers += [f"{name} comp. (s)", f"{name} reconst. (s)", f"{name} CR"]
    headers = ["Comp. Method"] + headers
    rows = []
    for variant in paper_variants():
        codec = get_variant(variant)
        cells = [variant]
        for name in ("U", "FSDSC"):
            field = ctx.member_field(name)
            blob = codec.compress(field)  # warm imports/caches, untraced
            agg = obs.Aggregator()
            with obs.tracing(sinks=[agg]):
                for _ in range(repeats):
                    blob = codec.compress(field)
                    codec.decompress(blob)
            comp = agg.codec_stats("compressors.compress", variant)
            rec = agg.codec_stats("compressors.decompress", variant)
            cells += [comp.min, rec.min, len(blob) / field.nbytes]
        rows.append(cells)
    return headers, rows


def table6_passes(
    ctx: ExperimentContext,
    run_bias: bool = True,
    variants=None,
    workers: int = 0,
):
    """Table 6: number of passes (out of all variables) per method/test.

    One :meth:`~repro.pvt.tool.CesmPvt.evaluate_codecs` sweep: variables
    in the outer loop, so each variable's ensemble statistics (the
    expensive part) are computed once and shared by all nine variants;
    ``workers > 1`` distributes variables over processes.
    """
    variants = (
        list(variants) if variants is not None else list(paper_variants())
    )
    return _cached_table(
        "harness.table6", ctx,
        lambda: _table6_impl(ctx, run_bias, variants, workers),
        run_bias=run_bias, variants=variants,
    )


def _table6_impl(ctx, run_bias, variants, workers):
    headers = ["Comp. Method", "rho", "RMSZ ens.", "E_nmax ens.", "bias",
               "all", "n_vars"]
    reports = ctx.pvt.evaluate_codecs(
        [get_variant(v) for v in variants], run_bias=run_bias,
        workers=workers,
    )
    rows = []
    for variant in variants:
        report = reports[variant]
        c = report.pass_counts()
        rows.append(
            [variant, c["rho"], c["rmsz"], c["enmax"],
             c["bias"] if run_bias else None, c["all"], report.n_variables]
        )
    # A failed variable is missing from every codec's report alike.
    failures = {name: f for report in reports.values()
                for name, f in report.failures.items()}
    if failures:
        # Degraded run: report the partial table (n_vars says how
        # partial) but never let it masquerade as the cached full one.
        n_names = len(ctx.ensemble.catalog)
        warnings.warn(
            f"table6 evaluated {n_names - len(failures)}/{n_names} "
            "variables; " + "; ".join(str(f) for f in failures.values()),
            RuntimeWarning, stacklevel=2,
        )
        raise store.SkipStore((headers, rows))
    return headers, rows


def table7_hybrid_summary(ctx: ExperimentContext, run_bias: bool = True,
                          extended_apax: bool = False,
                          include_modern: bool = False):
    """Table 7: per-family hybrid statistics plus the NC column.

    ``include_modern=True`` appends the post-paper SZ, BitRound, and
    mixed SZ+BR hybrid columns between APAX and NC
    (docs/compressors.md).
    """
    hybrids = build_all_hybrids(
        ctx.ensemble, run_bias=run_bias, extended_apax=extended_apax,
        include_modern=include_modern,
    )
    order = ["GRIB2", "ISABELA", "fpzip", "APAX", "NetCDF-4"]
    labels = [
        ("avg_cr", "avg. CR"), ("best_cr", "best CR"),
        ("worst_cr", "worst CR"), ("avg_rho", "avg. rho"),
        ("avg_nrmse", "avg. nrmse"), ("avg_enmax", "avg. e_nmax"),
    ]
    if include_modern:
        order[4:4] = ["SZ", "BitRound", "SZ+BR"]
        # The volume-weighted ratio only joins the extended table: the
        # paper's Table 7 reports the unweighted per-variable average.
        labels.insert(1, ("total_cr", "total CR"))
    headers = ["statistic"] + [f if f != "NetCDF-4" else "NC" for f in order]
    stats = {f: hybrids[f].summary() for f in order}
    rows = []
    for key, label in labels:
        rows.append([label] + [stats[f][key] for f in order])
    return headers, rows, hybrids


def table8_hybrid_composition(hybrids):
    """Table 8: number of variables per variant in each hybrid method."""
    headers = ["Method", "Variant", "Number of Variables"]
    rows = []
    order = ("GRIB2", "ISABELA", "fpzip", "APAX", "SZ", "BitRound",
             "SZ+BR")
    for family in (f for f in order if f in hybrids):
        comp = hybrids[family].composition()
        for variant, count in sorted(
            comp.items(), key=lambda kv: -kv[1]
        ):
            rows.append([family, variant, count])
    return headers, rows
