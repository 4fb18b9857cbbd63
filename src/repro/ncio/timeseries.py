"""Time-slice to time-series conversion — the paper's target workflow.

CESM writes one history file per time slice holding *all* variables;
post-processing analysis wants one file per *variable* holding all time
steps.  The paper's plan (Section 1) is to fold compression into exactly
this conversion step, with a per-variable choice of codec (the hybrid
methods of Section 5.4).

:func:`convert_to_timeseries` reads a sequence of NCH history files and
writes one NCH time-series file per variable, applying the compression
plan (variable name -> codec, defaulting to lossless zlib).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.compressors.base import Compressor
from repro.ncio.format import HistoryFile, HistoryFileWriter
from repro.parallel.executor import parallel_map

__all__ = ["convert_to_timeseries", "TimeSeriesFile"]


class TimeSeriesFile(HistoryFile):
    """An NCH file holding one variable across time steps.

    The variable's first axis is time; chunking is per time step, so a
    single step decodes independently (the access pattern of analysis
    tools — and of ISABELA's random-access selling point).
    """

    @property
    def variable_name(self) -> str:
        """The single data variable stored in this file."""
        names = [n for n in self._records if n != "time"]
        if len(names) != 1:
            raise ValueError(
                f"{self.path} is not a time-series file "
                f"(holds {len(names)} variables)"
            )
        return names[0]

    def n_steps(self) -> int:
        """Number of stored time steps."""
        return self.info(self.variable_name).shape[0]

    def read_step(self, step: int, codec: Compressor | None = None):
        """Decode a single time step (one chunk) independently."""
        return self.get(self.variable_name, first_axis=step, codec=codec)


def convert_to_timeseries(
    history_paths: Sequence,
    out_dir,
    plan: Mapping[str, Compressor] | None = None,
    variables: Sequence[str] | None = None,
    default_compression: str | Compressor | None = "zlib",
    workers: int = 0,
) -> dict[str, Path]:
    """Convert time-slice history files into per-variable time-series files.

    Parameters
    ----------
    history_paths:
        NCH history files, one per time step, in time order.  All files
        must share the same schema.
    out_dir:
        Output directory; one ``<variable>.nch`` file is written per
        variable.
    plan:
        Per-variable codec overrides (a hybrid compression plan).
    variables:
        Subset of variables to convert (default: all).
    default_compression:
        Codec for variables not named in ``plan``.
    workers:
        Handed to :func:`~repro.parallel.parallel_map`: with
        ``workers > 1`` variables are converted in worker processes (the
        conversion is embarrassingly parallel across variables — each
        output file is independent), otherwise inline.

    Returns the mapping variable name -> written path.
    """
    if not history_paths:
        raise ValueError("need at least one history file")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = dict(plan or {})

    with HistoryFile(history_paths[0]) as first:
        all_names = list(first.variables)
    names = list(variables) if variables is not None else all_names
    unknown = set(names) - set(all_names)
    if unknown:
        raise KeyError(f"variables not in history files: {sorted(unknown)}")

    paths = [Path(p) for p in history_paths]
    args = [
        (paths, out_dir, name, plan.get(name, default_compression))
        for name in names
    ]
    return dict(zip(names, parallel_map(_convert_one, args,
                                         workers=workers)))


def _convert_one(args: tuple) -> Path:
    """Convert a single variable (the per-worker unit of work)."""
    history_paths, out_dir, name, codec = args
    handles = [HistoryFile(p) for p in history_paths]
    try:
        info = handles[0].info(name)
        out_path = Path(out_dir) / f"{name}.nch"
        with HistoryFileWriter(out_path, compression=codec) as writer:
            writer.set_attr("source_variable", name)
            writer.set_attr("n_steps", len(handles))
            # Stream one step at a time: peak memory is a single time
            # slice, not the whole (n_steps, ...) stack, and the on-disk
            # layout (one chunk per step) is unchanged.
            writer.put_var_stream(
                name,
                (h.get(name)[None] for h in handles),
                dims=("time",) + info.dims,
                attrs=dict(info.attrs),
            )
            writer.put_var(
                "time",
                np.arange(len(handles), dtype=np.float64),
                dims=("time",),
                compression=None,
            )
        return out_path
    finally:
        for h in handles:
            h.close()

