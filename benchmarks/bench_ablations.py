"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **ISABELA window size** — the paper uses the recommended 1024; sweep
   windows and show the CR/error trade-off (the sort index costs
   log2(window) bits/value, but bigger windows amortize coefficients).
2. **GRIB2 decimal scale: global vs per-variable** — the paper reports
   that a single D for all variables "were quite poor" and per-variable
   tuning fixed it (Section 5.4).  Quantify that.
3. **APAX rates 6 and 7** — the paper's untried follow-up ("may lower the
   average CR for APAX"); run the extended hybrid ladder.
4. **fpzip entropy stage** — Rice vs DEFLATE on real residual streams.
"""

import numpy as np
import pytest
from conftest import save_table, save_text

from repro.compressors import Isabela, get_variant
from repro.compressors.quantize import decimal_scale_for
from repro.compressors.grib2 import Grib2Jpeg2000
from repro.harness.report import render_table
from repro.hybrid.selector import build_hybrid
from repro.metrics import nrmse, pearson
from repro.pvt.acceptance import VariableContext, evaluate_variable


def test_isabela_window_sweep(benchmark, ctx, results_dir, bench_record):
    field = ctx.member_field("U")

    def sweep():
        rows = []
        for window in (128, 256, 512, 1024, 2048):
            codec = Isabela(rel_error_pct=1.0, window=window)
            out = codec.roundtrip(field)
            rows.append([window, out.cr, nrmse(field, out.reconstructed)])
        return rows

    rows = bench_record.run(benchmark, sweep, metric="isabela_window_s",
                            threshold_pct=50.0)
    save_table(results_dir, "ablation_isabela_window",
               ["window", "CR", "NRMSE"], rows,
               title="Ablation: ISABELA window size (U)")
    # Larger windows must shrink the per-value index+coefficient overhead
    # monotonically is too strong (index width grows); but 1024 must beat
    # tiny windows, which drown in spline coefficients.
    crs = {w: cr for w, cr, _ in rows}
    assert crs[1024] < crs[128]


def test_grib2_global_vs_per_variable_scale(benchmark, ctx, results_dir,
                                            bench_record):
    """The paper's Section 5.4 anecdote, quantified."""
    names = [s.name for s in ctx.ensemble.catalog if s.fill_mask == "none"]
    names = names[:24]
    member = int(ctx.test_members[0])

    def run():
        global_bad = per_var_ok = 0
        rows = []
        for name in names:
            field = ctx.ensemble.member_field(name, member)
            # Global D: one setting for every variable (D = 2).
            g = Grib2Jpeg2000(decimal_scale=2)
            r_g = g.decompress(g.compress(field))
            # Per-variable D from the variable's magnitude.
            p = Grib2Jpeg2000(decimal_scale="auto")
            r_p = p.decompress(p.compress(field))
            rho_g = pearson(field, r_g)
            rho_p = pearson(field, r_p)
            global_bad += rho_g < 0.99999
            per_var_ok += rho_p >= 0.99999
            rows.append([name, rho_g, rho_p])
        return global_bad, per_var_ok, rows

    global_bad, per_var_ok, rows = bench_record.run(
        benchmark, run, metric="grib2_scale_s", threshold_pct=50.0
    )
    save_table(
        results_dir, "ablation_grib2_scale",
        ["variable", "rho (global D=2)", "rho (per-variable D)"], rows,
        title=f"Ablation: GRIB2 decimal scale — global D fails "
              f"{global_bad}/{len(rows)}, per-variable passes "
              f"{per_var_ok}/{len(rows)}",
        precision=7,
    )
    bench_record.metric("grib2_pervar_passes", per_var_ok,
                        direction="higher", threshold_pct=10.0)
    # Per-variable D must dominate the single global setting.
    assert per_var_ok > len(rows) - global_bad
    assert global_bad > len(rows) // 4


def test_apax_extended_rates(benchmark, ctx, results_dir, bench_record):
    """APAX rates 6/7 in the hybrid (the paper's proposed experiment)."""
    variables = [s.name for s in ctx.ensemble.catalog][:30]

    def run():
        base = build_hybrid(ctx.ensemble, "APAX", variables=variables,
                            run_bias=False)
        extended = build_hybrid(ctx.ensemble, "APAX", variables=variables,
                                run_bias=False, extended_apax=True)
        return base.summary(), extended.summary(), extended.composition()

    base, extended, comp = bench_record.run(
        benchmark, run, metric="apax_rates_s", threshold_pct=50.0
    )
    bench_record.metric("apax_extended_avg_cr", extended["avg_cr"],
                        threshold_pct=5.0)
    text = render_table(
        ["ladder", "avg CR", "best CR", "worst CR"],
        [["APAX-5/4/2", base["avg_cr"], base["best_cr"], base["worst_cr"]],
         ["APAX-7/6/5/4/2", extended["avg_cr"], extended["best_cr"],
          extended["worst_cr"]]],
        title=f"Ablation: extended APAX rates (composition: {comp})",
    )
    save_text(results_dir, "ablation_apax_rates.txt", text)
    # The paper's conjecture: adding rates 6 and 7 can only improve
    # (weakly) the average CR.
    assert extended["avg_cr"] <= base["avg_cr"] + 1e-9


def test_fpzip_predictor_ablation(benchmark, ctx, results_dir,
                                  bench_record):
    """fpzip predictor: 1-D delta vs 2-D Lorenzo (the real fpzip's
    dimensional predictor).  Same reconstruction, different CR."""
    from repro.compressors import Fpzip

    def run():
        rows = []
        for name in ("U", "T", "Z3", "CCN3"):
            field = ctx.member_field(name)
            delta = Fpzip(precision=16).roundtrip(field)
            lorenzo = Fpzip(precision=16,
                            predictor="lorenzo").roundtrip(field)
            assert np.array_equal(delta.reconstructed,
                                  lorenzo.reconstructed)
            rows.append([name, delta.cr, lorenzo.cr])
        return rows

    rows = bench_record.run(benchmark, run, metric="fpzip_predictor_s",
                            threshold_pct=50.0)
    save_table(
        results_dir, "ablation_fpzip_predictor",
        ["variable", "CR (delta)", "CR (Lorenzo 2-D)"], rows,
        title="Ablation: fpzip predictor (identical reconstructions)",
    )
    # Lorenzo wins on at least one strongly 2-D-correlated field.
    assert any(lor < dlt for _, dlt, lor in rows)


@pytest.mark.parametrize("variant", ["fpzip-16", "fpzip-24"])
def test_fpzip_entropy_stage(benchmark, ctx, results_dir, variant,
                             bench_record):
    """Rice vs DEFLATE on fpzip residual streams.

    This ablation motivates fpzip's adaptive entropy stage: neither coder
    dominates (Rice is near-optimal on geometric residuals, DEFLATE
    exploits repeats/short-range structure on real climate residuals), so
    the codec measures both and keeps the smaller — the emitted payload
    must never exceed min(rice, deflate) plus the 3-byte mode header.
    """
    from repro.compressors.prediction import (
        delta_encode, float_to_ordered_int, truncate_precision,
    )
    from repro.encoding.deflate import deflate
    from repro.encoding.residuals import narrow
    from repro.encoding.rice import rice_encode
    from repro.encoding.zigzag import zigzag_encode

    field = ctx.member_field("U").reshape(-1)
    precision = int(variant.split("-")[1])
    truncated = truncate_precision(field, precision)
    codes = float_to_ordered_int(truncated) >> (32 - precision)
    residuals = zigzag_encode(delta_encode(codes))

    rice_size = len(bench_record.bench(
        benchmark, rice_encode, residuals,
        metric=f"rice_encode.{variant}_s", threshold_pct=50.0,
    ))
    width, narrowed = narrow(residuals)
    deflate_size = len(deflate(narrowed.tobytes(), 4, itemsize=width))
    codec = get_variant(variant)
    actual = len(codec._encode_values(field))
    save_text(
        results_dir, f"ablation_fpzip_entropy_{variant}.txt",
        f"fpzip residual entropy coding ({variant}, U): "
        f"Rice {rice_size} B vs DEFLATE(u{width}) {deflate_size} B; "
        f"codec payload {actual} B (adaptive pick)",
    )
    # The payload is min(rice, deflate) plus fpzip's 7-byte mode header.
    assert actual <= min(rice_size, deflate_size) + 7
