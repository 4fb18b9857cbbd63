"""repro — reproduction of Baker et al. (HPDC 2014), "A Methodology for
Evaluating the Impact of Data Compression on Climate Simulation Data".

Public API tour:

- :mod:`repro.model` — the synthetic CESM/CAM substrate and the 101-member
  perturbed-initial-condition ensemble;
- :mod:`repro.compressors` — fpzip / ISABELA / GRIB2+JPEG2000 / APAX
  re-implementations plus the lossless NetCDF-4 baseline
  (``get_variant("fpzip-24")`` resolves any label from the paper's tables);
- :mod:`repro.metrics` — the Section 4 error metrics;
- :mod:`repro.pvt` — the CESM-PVT ensemble verification tool (RMSZ,
  E_nmax, bias regression, acceptance tests);
- :mod:`repro.hybrid` — per-variable hybrid codec selection (Section 5.4);
- :mod:`repro.ncio` — history files and time-series conversion;
- :mod:`repro.harness` — drivers regenerating every paper table/figure;
- :mod:`repro.cli` — the ``repro`` command
  (``characterize``/``verify``/``hybrid``/``table``/``summary``/``check``).

Quick start::

    from repro.config import ReproConfig
    from repro.model import CAMEnsemble
    from repro.pvt import CesmPvt
    from repro.compressors import get_variant

    ensemble = CAMEnsemble(ReproConfig(ne=6, nlev=8, n_members=41,
                                       n_2d=10, n_3d=10))
    pvt = CesmPvt(ensemble)
    report = pvt.evaluate_codec(get_variant("fpzip-24"), variables=["U"])
    assert report.pass_counts()["all"] == 1
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
