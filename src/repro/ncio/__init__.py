"""History-file I/O substrate: a NetCDF-4-like container format.

CESM writes "history files" — NetCDF files holding time slices of every
variable, truncated to single precision — and the paper's target workflow
is "a post-processing step that converts the CESM time-slice data history
files to time series data files for each variable" (Section 1), with
compression applied during that conversion.

netCDF4/h5py are not available offline, so this package implements a
self-describing chunked binary container (the NCH format) with the same
essential features: named dimensions, per-variable attributes, optional
shuffle+DEFLATE chunk compression (NetCDF-4's lossless scheme), and partial
reads.  :mod:`repro.ncio.timeseries` implements the time-slice to
time-series conversion with per-variable compression plans.
"""

from repro.ncio.format import (
    HistoryFileWriter,
    HistoryFile,
    VariableInfo,
    write_history,
)
from repro.ncio.timeseries import convert_to_timeseries, TimeSeriesFile

__all__ = [
    "HistoryFileWriter",
    "HistoryFile",
    "VariableInfo",
    "write_history",
    "convert_to_timeseries",
    "TimeSeriesFile",
]
