"""Benchmarks for the Section 6 future-work extensions we implemented.

- SSIM of reconstructed lat/lon images per codec (visualization quality);
- global energy-budget shift per codec;
- gradient-impact amplification per codec;
- time-slice -> time-series conversion throughput with a hybrid plan.
"""

import numpy as np
from conftest import save_table, save_text

from repro.compressors import get_variant, paper_variants
from repro.metrics.gradient import gradient_impact
from repro.metrics.ssim import rasterize, ssim
from repro.pvt.budget import energy_budget_residual


def test_analysis_quality_metrics(benchmark, ctx, results_dir):
    grid = ctx.ensemble.model.grid
    fsdsc = ctx.member_field("FSDSC")
    fsnt = ctx.ensemble.member_field("FSNT", int(ctx.test_members[0]))
    flnt = ctx.ensemble.member_field("FLNT", int(ctx.test_members[0]))
    img_orig = rasterize(grid, fsdsc.astype(np.float64), 32, 64)

    def run():
        rows = []
        for variant in paper_variants():
            codec = get_variant(variant)
            r_fsdsc = codec.decompress(codec.compress(fsdsc))
            r_fsnt = codec.decompress(codec.compress(fsnt))
            r_flnt = codec.decompress(codec.compress(flnt))
            budget = energy_budget_residual(grid, fsnt, flnt, r_fsnt,
                                            r_flnt)
            img_rec = rasterize(grid, r_fsdsc.astype(np.float64), 32, 64)
            rows.append([
                variant,
                ssim(img_orig, img_rec),
                gradient_impact(grid, fsdsc, r_fsdsc),
                budget["budget_shift"],
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        results_dir, "extensions",
        ["method", "SSIM (FSDSC)", "gradient impact", "budget shift W/m2"],
        rows, title="Extension metrics (paper Section 6 future work)",
        precision=5,
    )

    rec = {r[0]: r for r in rows}
    # Near-lossless codecs keep visualization-quality images.
    assert rec["APAX-2"][1] > 0.9999
    assert rec["fpzip-24"][1] > 0.9999
    # Gradients amplify error: coarser codecs degrade gradients more.
    assert rec["APAX-5"][2] > rec["APAX-2"][2]
    # Energy budget stays far below the 1 W/m2 signal for fine codecs.
    assert rec["fpzip-24"][3] < 0.1
    assert rec["APAX-2"][3] < 0.1


def test_rmsz_distribution_ks(benchmark, ctx, results_dir):
    """KS-test extension: is the RMSZ score distribution itself unchanged?

    Strengthens the paper's "statistically indistinguishable" claim from a
    3-member spot check into a whole-distribution two-sample test.
    """
    from repro.pvt.distribution_tests import rmsz_distribution_test

    fields = ctx.ensemble.ensemble_field("U")

    def run():
        rows = []
        for variant in ("fpzip-24", "APAX-2", "fpzip-16", "APAX-5",
                        "fpzip-8"):
            result = rmsz_distribution_test(fields, get_variant(variant))
            rows.append([variant, result.statistic, result.p_value,
                         result.indistinguishable()])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        results_dir, "extension_ks",
        ["variant", "KS statistic", "p-value", "indistinguishable"],
        rows, title="Extension: KS test on the RMSZ distribution (U)",
        precision=4,
    )

    rec = {r[0]: r for r in rows}
    assert rec["fpzip-24"][3] is True
    assert rec["fpzip-8"][3] is False
    # p-values ordered with quality within the fpzip family.
    assert rec["fpzip-24"][2] >= rec["fpzip-8"][2]


def test_timeseries_conversion_throughput(benchmark, ctx, results_dir,
                                          tmp_path_factory):
    from repro.hybrid.selector import build_hybrid
    from repro.ncio import convert_to_timeseries, write_history

    tmp = tmp_path_factory.mktemp("bench-ts")
    names = ["U", "FSDSC", "T", "PS"]
    paths = []
    for step in range(3):
        snap = {n: ctx.ensemble.member_field(n, step) for n in names}
        paths.append(write_history(tmp / f"h{step}.nch", snap,
                                   nlev=ctx.config.nlev))
    hybrid = build_hybrid(ctx.ensemble, "fpzip", variables=names,
                          run_bias=False)
    plan = hybrid.plan()

    result = benchmark.pedantic(
        convert_to_timeseries, args=(paths, tmp / "out"),
        kwargs={"plan": plan, "variables": names}, rounds=1, iterations=1,
    )
    total = sum(p.stat().st_size for p in result.values())
    raw = sum(ctx.ensemble.member_field(n, 0).nbytes for n in names) * 3
    save_text(
        results_dir, "conversion.txt",
        f"time-series conversion: {len(names)} variables x 3 steps, "
        f"hybrid fpzip plan -> CR {total / raw:.3f}",
    )
    assert total < raw
