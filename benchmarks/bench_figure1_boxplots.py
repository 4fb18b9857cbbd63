"""Figure 1: box plots of e_nmax (a) and NRMSE (b) across all 170
variables, per compression method.

Paper shape: errors span many orders of magnitude across variables;
higher-compression variants sit higher; NRMSE sits roughly an order of
magnitude below e_nmax.
"""

import numpy as np
from conftest import save_text

from repro.harness.figures import figure1_error_boxplots
from repro.harness.report import boxplot_stats, render_boxplot, write_csv


def test_figure1(benchmark, ctx, results_dir):
    data = benchmark.pedantic(figure1_error_boxplots, args=(ctx,), rounds=1,
                              iterations=1)
    pieces = []
    for key, title in [("enmax", "Figure 1(a): normalized max pointwise "
                        "error"), ("nrmse", "Figure 1(b): normalized RMSE")]:
        cols = {v: np.maximum(vals, 1e-12)
                for v, vals in data[key].items()}
        pieces.append(render_boxplot(cols, title=title, log=True))
        rows = [
            [v] + [s[k] for k in ("min", "q1", "median", "q3", "max")]
            for v, s in ((v, boxplot_stats(vals))
                         for v, vals in data[key].items())
        ]
        write_csv(results_dir / f"figure1_{key}.csv",
                  ["variant", "min", "q1", "median", "q3", "max"], rows)
    text = "\n\n".join(pieces)
    save_text(results_dir, "figure1.txt", text)

    # Shape assertions: error medians ordered by compression level.
    med = {v: np.median(vals) for v, vals in data["nrmse"].items()}
    assert med["APAX-2"] < med["APAX-4"] < med["APAX-5"]
    assert med["fpzip-24"] < med["fpzip-16"]
    assert med["ISA-0.1"] < med["ISA-1.0"]
    # Wide spread across the diverse catalog (paper: APAX-4 spans
    # O(1e-10)..O(1e-3) in NRMSE).
    for v, vals in data["nrmse"].items():
        positive = vals[vals > 0]
        assert positive.max() / positive.min() > 1e2, v
    # NRMSE <= e_nmax per variable/variant.
    for v in data["nrmse"]:
        assert (data["nrmse"][v] <= data["enmax"][v] + 1e-15).all()
