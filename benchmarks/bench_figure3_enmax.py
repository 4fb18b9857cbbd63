"""Figure 3: E_nmax ensemble distribution box plots with per-method
markers for U, FSDSC, Z3, CCN3.

Paper shape: all methods comfortably inside for U; ISABELA shows larger
errors on FSDSC; Z3 is difficult for several methods; GRIB2 is much worse
than everyone else on CCN3.
"""

from conftest import save_text

from repro.harness.figures import figure3_enmax_ensemble
from repro.harness.report import format_value, render_boxplot, write_csv


def test_figure3(benchmark, ctx, results_dir):
    data = benchmark.pedantic(figure3_enmax_ensemble, args=(ctx,), rounds=1,
                              iterations=1)
    pieces = []
    rows = []
    for name, entry in data.items():
        d = entry["distribution"]
        pieces.append(render_boxplot(
            {"ensemble": d}, title=f"Figure 3 — {name}: ensemble E_nmax "
            "distribution", log=False,
        ))
        marker_lines = []
        spread = d.max() - d.min()
        for variant, value in entry["markers"].items():
            ratio = value / spread
            flag = "PASS" if ratio <= 0.1 else (
                "within" if value <= spread else "OUTSIDE"
            )
            marker_lines.append(
                f"  {variant:9s} e_nmax={format_value(value, 4):>10s} "
                f"ratio={ratio:.3f} [{flag}]"
            )
            rows.append([name, variant, value, float(d.min()),
                         float(d.max())])
        pieces.append("\n".join(marker_lines))
    save_text(results_dir, "figure3.txt", "\n\n".join(pieces))
    write_csv(results_dir / "figure3.csv",
              ["variable", "variant", "e_nmax", "dist_min", "dist_max"],
              rows)

    # Shape assertions.
    u = data["U"]
    spread_u = u["distribution"].max() - u["distribution"].min()
    for variant in ("GRIB2", "APAX-2", "fpzip-24", "ISA-0.1"):
        assert u["markers"][variant] / spread_u <= 0.1, variant
    # ISABELA's errors on FSDSC exceed the finer methods' (paper Fig 3).
    f = data["FSDSC"]["markers"]
    assert f["ISA-1.0"] > f["fpzip-24"]
    assert f["ISA-1.0"] > f["APAX-2"]
    # CCN3: GRIB2's absolute quantization error is small relative to the
    # range (paper Table 4 lists it as the SMALLEST e_nmax, 4.9e-8, and
    # Table 6 has GRIB2 passing the E_nmax test 170/170) — its CCN3
    # failure is a *relative*-error effect that only the RMSZ and bias
    # tests catch (benchmarked in figures 2 and 4).
    c = data["CCN3"]["markers"]
    spread_c = (data["CCN3"]["distribution"].max()
                - data["CCN3"]["distribution"].min())
    assert c["GRIB2"] <= spread_c
