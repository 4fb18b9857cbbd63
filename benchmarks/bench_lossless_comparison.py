"""Lossless-method comparison (the paper's Section 2.1, quantified).

The paper's premise: "losslessly compressing floating-point scientific
data is difficult ... primarily due to the almost random (highly entropic)
nature of the floating-point data", which is why lossy methods are needed
at all.  This benchmark compares every lossless path in the repository —
NetCDF-4 shuffle+DEFLATE, plain LZMA, the MAFISC filter stack, the ISOBAR
byte-plane preconditioner, and predictive fpzip-32 (delta and Lorenzo) —
over a slice of the catalog.
"""

import numpy as np
from conftest import save_table

from repro.compressors import get_variant

_METHODS = ("NetCDF-4", "LZMA", "MAFISC", "ISOBAR", "fpzip-32",
            "fpzip-32-lorenzo")


def test_lossless_comparison(benchmark, ctx, results_dir):
    specs = [s for s in ctx.ensemble.catalog if s.fill_mask == "none"][:16]
    member = int(ctx.test_members[0])

    def run():
        rows = []
        for spec in specs:
            field = ctx.ensemble.member_field(spec.name, member)
            crs = []
            for method in _METHODS:
                codec = get_variant(method)
                outcome = codec.roundtrip(field)
                assert np.array_equal(outcome.reconstructed, field), (
                    spec.name, method,
                )
                crs.append(outcome.cr)
            rows.append([spec.name] + crs)
        means = ["(mean)"] + [
            float(np.mean([r[i + 1] for r in rows]))
            for i in range(len(_METHODS))
        ]
        return rows + [means]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        results_dir, "lossless_comparison", ["variable"] + list(_METHODS),
        rows, title="Lossless comparison (CR, bit-exact; paper Section 2.1)",
    )

    means = dict(zip(_METHODS, rows[-1][1:]))
    # MAFISC's adaptive filters never do worse than plain LZMA (the
    # paper's "slightly improves upon lmza").
    assert means["MAFISC"] <= means["LZMA"] + 1e-9
    # Predictive coding (fpzip-32) beats the generic entropy coders on
    # climate data.
    assert means["fpzip-32"] < means["NetCDF-4"]
    # The paper's premise: no lossless method gets anywhere near the 5:1
    # that the lossy pipeline reaches — everything stays above CR 0.3.
    assert all(v > 0.3 for v in means.values())
