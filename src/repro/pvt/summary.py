"""Persisted ensemble summaries — the production PVT workflow.

In practice (and in NCAR's later PyCECT tooling, which grew from this
paper's methodology) the 101-member trusted ensemble is run *once*, reduced
to a summary file, and every subsequent verification — new machine, new
compiler, new compressor — checks its handful of runs against that file
without touching the original ensemble.

An :class:`EnsembleSummary` stores, per variable:

- the per-grid-point ensemble mean and standard deviation (what Z-scores
  of new runs are computed against);
- the RMSZ distribution (eq. 7 over all members);
- the E_nmax distribution (eq. 10);
- the mean range (plain mean over valid points, the statistic the new
  runs are scored with too).

Summaries serialize to the NCH container, so they are themselves ordinary
(compressed) data files.  A summary, built in memory by
:meth:`EnsembleSummary.from_ensemble` or read from the file
``repro summary`` writes, is the PVT's one port check: new runs are
scored by :meth:`EnsembleSummary.verify_runs` (``repro check`` streams
history files through :meth:`VariableSummary.verify_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.model.ensemble import CAMEnsemble
from repro.ncio.format import HistoryFile, HistoryFileWriter
from repro.pvt.zscore import (EnsembleStats, StreamingRMSZ,
                              rmsz_within_distribution)

__all__ = ["VariableSummary", "EnsembleSummary"]


@dataclass(frozen=True)
class VariableSummary:
    """Reduced statistics for one variable."""

    name: str
    shape: tuple[int, ...]
    mean: np.ndarray  # per valid grid point
    std: np.ndarray
    valid: np.ndarray  # boolean mask over the flattened field
    rmsz_dist: np.ndarray
    enmax_dist: np.ndarray
    gmean_range: tuple[float, float]

    def rmsz_of(self, field: np.ndarray) -> float:
        """RMSZ of a new run's field against the stored statistics."""
        return self.verify(field)["rmsz"]

    def verify(self, field: np.ndarray,
               mean_tolerance_factor: float = 1.0) -> dict:
        """Check one new run: RMSZ within distribution + mean-range test.

        The one-chunk case of :meth:`verify_stream`.
        """
        return self.verify_stream([field], mean_tolerance_factor)

    def verify_stream(self, chunks,
                      mean_tolerance_factor: float = 1.0) -> dict:
        """Check one streamed run: the verdict dict of :meth:`verify`.

        ``chunks`` must be consecutive in-order pieces of the flattened
        field (any chunk sizes); see :mod:`repro.stream.chunks`.
        """
        fold = StreamingRMSZ(self.mean, self.std, self.valid)
        try:
            for chunk in chunks:
                fold.update(chunk)
            score = fold.finalize()
        except ValueError as exc:
            raise ValueError(f"{self.name}: {exc}") from None
        new_mean = fold.mean_valid
        rmsz_ok = rmsz_within_distribution(score, self.rmsz_dist)
        g_lo, g_hi = self.gmean_range
        center = (g_lo + g_hi) / 2.0
        half = (g_hi - g_lo) / 2.0 * mean_tolerance_factor
        mean_ok = center - half <= new_mean <= center + half
        return {
            "rmsz": score,
            "rmsz_ok": rmsz_ok,
            "mean": new_mean,
            "mean_ok": bool(mean_ok),
            "passed": bool(rmsz_ok and mean_ok),
        }


class EnsembleSummary:
    """A set of per-variable summaries with NCH (de)serialization."""

    FORMAT_VERSION = 1

    def __init__(self, variables: dict[str, VariableSummary],
                 n_members: int):
        if not variables:
            raise ValueError("summary needs at least one variable")
        self.variables = variables
        self.n_members = n_members

    # -- construction -------------------------------------------------------

    @classmethod
    def from_ensemble(cls, ensemble: CAMEnsemble,
                      variables=None) -> "EnsembleSummary":
        """Reduce a generated ensemble to its verification summary."""
        names = (
            [spec.name for spec in ensemble.catalog]
            if variables is None
            else [v if isinstance(v, str) else v.name for v in variables]
        )
        out: dict[str, VariableSummary] = {}
        for name in names:
            fields = ensemble.ensemble_field(name)
            # One sweep gives the valid points and both distributions.
            stats = EnsembleStats(fields)
            m = fields.shape[0]
            # The stored mean/std and member means are taken from one
            # float64 copy of the valid columns, so they keep that copy's
            # summation order (not the sweep's).
            kept = fields.reshape(m, -1)[:, stats.valid]
            kept = kept.astype(np.float64, copy=False)
            gmeans = kept.mean(axis=1)
            out[name] = VariableSummary(
                name=name,
                shape=fields.shape[1:],
                mean=kept.mean(axis=0),
                std=kept.std(axis=0, ddof=1),
                valid=stats.valid,
                rmsz_dist=stats.distribution(),
                enmax_dist=stats.enmax_distribution(),
                gmean_range=(float(gmeans.min()), float(gmeans.max())),
            )
        return cls(out, n_members=ensemble.n_members)

    # -- persistence ---------------------------------------------------------

    def write(self, path) -> Path:
        """Serialize to an NCH summary file (zlib-compressed)."""
        path = Path(path)
        with HistoryFileWriter(path, compression="zlib") as writer:
            writer.set_attr("format", "repro-pvt-summary")
            writer.set_attr("version", self.FORMAT_VERSION)
            writer.set_attr("n_members", self.n_members)
            writer.set_attr(
                "variables",
                {
                    name: {"shape": list(s.shape),
                           "gmean_range": list(s.gmean_range)}
                    for name, s in self.variables.items()
                },
            )
            for name, s in self.variables.items():
                writer.put_var(f"{name}.mean", s.mean, (f"{name}.nvalid",))
                writer.put_var(f"{name}.std", s.std, (f"{name}.nvalid",))
                writer.put_var(
                    f"{name}.valid", s.valid.astype(np.float32),
                    (f"{name}.npoints",),
                )
                writer.put_var(f"{name}.rmsz", s.rmsz_dist, ("member",))
                writer.put_var(f"{name}.enmax", s.enmax_dist, ("member",))
        return path

    @classmethod
    def read(cls, path) -> "EnsembleSummary":
        """Load a summary produced by :meth:`write`."""
        with HistoryFile(path) as fh:
            if fh.attrs.get("format") != "repro-pvt-summary":
                raise ValueError(f"{path} is not a PVT summary file")
            if fh.attrs.get("version") != cls.FORMAT_VERSION:
                raise ValueError(
                    f"unsupported summary version {fh.attrs.get('version')}"
                )
            meta = fh.attrs["variables"]
            out: dict[str, VariableSummary] = {}
            for name, info in meta.items():
                out[name] = VariableSummary(
                    name=name,
                    shape=tuple(info["shape"]),
                    mean=fh.get(f"{name}.mean"),
                    std=fh.get(f"{name}.std"),
                    valid=fh.get(f"{name}.valid").astype(bool),
                    rmsz_dist=fh.get(f"{name}.rmsz"),
                    enmax_dist=fh.get(f"{name}.enmax"),
                    gmean_range=tuple(info["gmean_range"]),
                )
            return cls(out, n_members=int(fh.attrs["n_members"]))

    # -- verification ---------------------------------------------------------

    def verify_runs(
        self,
        new_fields: dict[str, np.ndarray],
        mean_tolerance_factor: float = 1.0,
    ) -> dict[str, list[dict]]:
        """Verify new runs against the stored summary.

        ``new_fields`` maps variable name to ``(k, ...)`` arrays of k runs;
        returns per variable a list of per-run verdict dicts.
        """
        results: dict[str, list[dict]] = {}
        for name, runs in new_fields.items():
            try:
                summary = self.variables[name]
            except KeyError:
                raise KeyError(
                    f"summary has no variable {name!r}"
                ) from None
            runs = np.asarray(runs)
            results[name] = [
                summary.verify(run, mean_tolerance_factor) for run in runs
            ]
        return results
