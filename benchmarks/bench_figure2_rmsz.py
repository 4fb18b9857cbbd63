"""Figure 2: RMSZ ensemble distributions for U, Z3, FSDSC, CCN3 with the
reconstructed members' scores marked.

Paper shape: all methods do well on U; ISABELA and fpzip-16 drift on
FSDSC; everyone struggles on Z3; GRIB2 fails on CCN3.
"""

import numpy as np
from conftest import save_text

from repro.harness.figures import figure2_rmsz_ensemble
from repro.harness.report import format_value, write_csv


def _render(name, entry) -> str:
    d = entry["distribution"]
    lines = [
        f"RMSZ-Ensemble test: {name}",
        f"  ensemble distribution: min={d.min():.3f} q1="
        f"{np.quantile(d, .25):.3f} med={np.median(d):.3f} "
        f"q3={np.quantile(d, .75):.3f} max={d.max():.3f}",
        f"  original member RMSZ : {entry['original']:.3f}",
    ]
    for variant, score in entry["markers"].items():
        within = d.min() <= score <= d.max()
        close = abs(score - entry["original"]) <= 0.1
        flag = "PASS" if within and close else (
            "within" if within else "OUTSIDE"
        )
        lines.append(
            f"  {variant:9s} -> {format_value(score, 4):>10s}  [{flag}]"
        )
    return "\n".join(lines)


def test_figure2(benchmark, ctx, results_dir):
    data = benchmark.pedantic(figure2_rmsz_ensemble, args=(ctx,), rounds=1,
                              iterations=1)
    text = "\n\n".join(_render(name, entry) for name, entry in data.items())
    save_text(results_dir, "figure2.txt", text)
    rows = []
    for name, entry in data.items():
        for variant, score in entry["markers"].items():
            rows.append([name, variant, entry["original"], score,
                         entry["distribution"].min(),
                         entry["distribution"].max()])
    write_csv(results_dir / "figure2.csv",
              ["variable", "variant", "rmsz_original", "rmsz_recon",
               "dist_min", "dist_max"], rows)

    def diff(var, variant):
        e = data[var]
        return abs(e["markers"][variant] - e["original"])

    # U: every method's marker stays near the original (paper Fig 2a).
    for variant in data["U"]["markers"]:
        if variant.startswith(("fpzip-24", "APAX-2", "GRIB2", "ISA")):
            assert diff("U", variant) < 0.3, variant
    # FSDSC: fpzip-16 drifts much further than fpzip-24 (paper Fig 2c).
    assert diff("FSDSC", "fpzip-16") > 3 * diff("FSDSC", "fpzip-24")
    # Z3: the hardest variable — coarse variants leave the distribution.
    d_z3 = data["Z3"]["distribution"]
    assert data["Z3"]["markers"]["fpzip-16"] > d_z3.max()
    # CCN3: GRIB2 is the odd one out (paper Fig 2d).
    assert diff("CCN3", "GRIB2") > diff("CCN3", "fpzip-24")
    assert diff("CCN3", "GRIB2") > diff("CCN3", "APAX-2")
