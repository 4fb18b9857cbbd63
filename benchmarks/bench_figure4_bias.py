"""Figure 4: bias plots — slope vs intercept of the reconstructed-RMSZ
regression, with 95% confidence rectangles, for U, Z3, FSDSC, CCN3.

Paper shape: most rectangles sit extremely close to (1, 0) even when they
exclude it (the bias is real but insignificant); GRIB2's slope on CCN3 is
far off (.93-.97, off the plot in the paper); eq. 9 separates acceptable
from unacceptable uncertainty.
"""

from conftest import save_table

from repro.harness.figures import figure4_bias


def test_figure4(benchmark, ctx, results_dir):
    data = benchmark.pedantic(figure4_bias, args=(ctx,), rounds=1,
                              iterations=1)
    headers = ["variable", "variant", "slope", "intercept", "slope_lo",
               "slope_hi", "int_lo", "int_hi", "eq9_pass"]
    rows = []
    for name, fits in data.items():
        for variant, fit in fits.items():
            rows.append([
                name, variant, fit.slope, fit.intercept,
                fit.slope_ci[0], fit.slope_ci[1],
                fit.intercept_ci[0], fit.intercept_ci[1],
                fit.passes(),
            ])
    save_table(results_dir, "figure4", headers, rows,
               title="Figure 4: bias regressions (ideal = slope 1,"
                     " intercept 0)", precision=4)

    # Near-lossless codecs regress onto the identity for every variable.
    for name in data:
        fit = data[name]["APAX-2"]
        assert abs(fit.slope - 1.0) < 0.05, name
        fit = data[name]["fpzip-24"]
        assert abs(fit.slope - 1.0) < 0.05, name

    # GRIB2 on CCN3: visibly biased slope, failing eq. 9 (paper: its CCN3
    # rectangle is off the plot).
    grib2_ccn3 = data["CCN3"]["GRIB2"]
    assert not grib2_ccn3.passes()
    assert abs(grib2_ccn3.slope - 1.0) > abs(
        data["CCN3"]["fpzip-24"].slope - 1.0
    )
