"""Hybrid method construction: most-compressive passing variant per variable.

For each variable the selector tries the family's variants from most to
least compressive (e.g. fpzip-16 -> fpzip-24 -> fpzip-32); the first one
whose reconstruction passes all four acceptance tests wins.  The ladder
always ends in a lossless option (fpzip-32 or NetCDF-4), which passes by
construction, so every variable gets a choice.

One variable-outer driver serves :func:`build_hybrid` (one family) and
:func:`build_all_hybrids` (every family): each variable is one inline
task of :func:`repro.pvt.tool.map_variables`, judged through one
:class:`~repro.pvt.acceptance.VerdictMemo`, and each rung is judged,
and compressed if chosen, at most once per variable, whichever ladders
share it (SZ+BR's SZ and BR rungs, every NetCDF-4 fallback).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro import store
from repro.compressors.base import Compressor, compression_ratio
from repro.compressors.registry import get_variant, method_families
from repro.model.ensemble import CAMEnsemble
from repro.pvt.acceptance import VerdictMemo
from repro.pvt.tool import map_variables, variable_names

__all__ = ["HybridChoice", "HybridResult", "build_hybrid", "build_all_hybrids"]


@dataclass(frozen=True)
class HybridChoice:
    """The selected variant and its quality numbers for one variable."""

    variable: str
    variant: str
    cr: float
    rho: float
    nrmse: float
    e_nmax: float
    lossless: bool
    #: Points per member field, so summaries can weight by data volume.
    n_points: int


@dataclass
class HybridResult:
    """One hybrid method (a column of Table 7 / a block of Table 8)."""

    family: str
    choices: dict[str, HybridChoice]

    def summary(self) -> dict[str, float]:
        """Table 7 column: avg/best/worst CR and average quality metrics.

        ``avg_cr`` is the paper's convention (unweighted mean of the
        per-variable ratios); ``total_cr`` weights each ratio by the
        variable's points per member, i.e. total compressed bytes over
        total original bytes — the honest "how much smaller is the whole
        data set" number (3-D fields dominate it, as they do the data
        volume).
        """
        crs = np.asarray([c.cr for c in self.choices.values()])
        sizes = np.asarray([c.n_points for c in self.choices.values()],
                           dtype=np.float64)
        return {
            "avg_cr": float(crs.mean()),
            "total_cr": float((crs * sizes).sum() / sizes.sum()),
            "best_cr": float(crs.min()),
            "worst_cr": float(crs.max()),
            "avg_rho": float(np.mean([c.rho for c in self.choices.values()])),
            "avg_nrmse": float(
                np.mean([c.nrmse for c in self.choices.values()])
            ),
            "avg_enmax": float(
                np.mean([c.e_nmax for c in self.choices.values()])
            ),
        }

    def composition(self) -> dict[str, int]:
        """Table 8 block: how many variables use each variant."""
        counts: dict[str, int] = {}
        for choice in self.choices.values():
            counts[choice.variant] = counts.get(choice.variant, 0) + 1
        return counts

    def plan(self) -> dict[str, Compressor]:
        """A per-variable codec mapping for the time-series converter."""
        return {
            name: get_variant(choice.variant)
            for name, choice in self.choices.items()
        }


def _ladders(extended_apax: bool, include_modern: bool = True,
             include_nc: bool = True) -> dict[str, tuple[str, ...]]:
    """Every family's ladder, plus the paper's lossless "NC" column."""
    ladders = method_families(extended_apax=extended_apax,
                              include_modern=include_modern)
    if include_nc:
        ladders["NetCDF-4"] = ("NetCDF-4",)
    return ladders


def build_hybrid(
    ensemble: CAMEnsemble,
    family: str,
    variables=None,
    test_members=None,
    run_bias: bool = True,
    extended_apax: bool = False,
) -> HybridResult:
    """Construct the hybrid method for one family (Section 5.4).

    Parameters
    ----------
    ensemble:
        The generated PVT ensemble.
    family:
        ``"GRIB2"``, ``"ISABELA"``, ``"fpzip"``, ``"APAX"``, the modern
        ``"SZ"`` / ``"BitRound"`` ladders, or ``"NetCDF-4"`` (the
        paper's "NC" lossless-everything column).
    test_members:
        Member indices for the acceptance tests (default: 3 random).
    extended_apax:
        Include APAX rates 6 and 7 (the paper's proposed follow-up).

    With an active artifact store (:mod:`repro.store`) the result is
    cached per (config, perturbation, ladders, variables, members,
    bias) — Tables 7/8 and ``repro hybrid`` reruns become reads.
    """
    ladders = _ladders(extended_apax)
    if family not in ladders:
        raise KeyError(
            f"unknown family {family!r}; known: {sorted(ladders)}"
        )
    return _plan(ensemble, {family: ladders[family]}, variables,
                 test_members, run_bias)[family]


def build_all_hybrids(
    ensemble: CAMEnsemble,
    variables=None,
    run_bias: bool = True,
    extended_apax: bool = False,
    include_nc: bool = True,
    include_modern: bool = False,
) -> dict[str, HybridResult]:
    """Table 7: hybrids for all four families plus the NC baseline.

    ``include_modern=True`` adds the post-paper SZ, BitRound, and mixed
    SZ+BR families (extended Table 7 rows, ``bench_codec_zoo``).
    """
    ladders = _ladders(extended_apax, include_modern, include_nc)
    return _plan(ensemble, ladders, variables, None, run_bias)


def _plan(ensemble: CAMEnsemble, ladders: dict, variables, test_members,
          run_bias: bool) -> dict[str, HybridResult]:
    """Every family in ``ladders`` over ``variables``, through the store."""
    if test_members is None:
        test_members = ensemble.pick_members(3)
    members = [int(m) for m in test_members]
    names = variable_names(ensemble, variables)

    def walk() -> dict[str, HybridResult]:
        per_variable = map_variables(
            ensemble, names, members,
            functools.partial(_walk_variable, ladders=ladders,
                              run_bias=run_bias),
        )
        return {
            family: HybridResult(family=family, choices={
                name: choices[family]
                for name, choices in zip(names, per_variable)
            })
            for family in ladders
        }

    key = store.artifact_key(
        "hybrid.plan", config=ensemble.config,
        perturbation=ensemble.perturbation, ladders=ladders,
        variables=names, members=members, run_bias=run_bias,
    )
    return store.cached(key, walk, kind="pkl", stage="hybrid.plan",
                        meta={"families": list(ladders)})


def _walk_variable(memo: VerdictMemo, ladders: dict,
                   run_bias: bool) -> dict[str, HybridChoice]:
    """One variable's choice per family: each ladder's first passing rung."""
    # Each rung's choice (None: it failed), shared by every ladder it
    # sits on.
    rungs: dict[str, HybridChoice | None] = {}
    choices: dict[str, HybridChoice] = {}
    for family, ladder in ladders.items():
        for variant in ladder:
            if variant not in rungs:
                rungs[variant] = _judge_rung(memo, variant, run_bias)
            if rungs[variant] is not None:
                choices[family] = rungs[variant]
                break
        else:
            raise AssertionError(
                f"ladder for {family!r} has no lossless fallback "
                f"and no variant passed for {memo.variable!r}"
            )
    return choices


def _judge_rung(memo: VerdictMemo, variant: str,
                run_bias: bool) -> HybridChoice | None:
    """``variant``'s choice for the memo's variable, or None if it fails."""
    codec = get_variant(variant)
    member = memo.members[0]
    x = np.ascontiguousarray(memo.fields[member])
    if codec.is_lossless:
        # Passes by construction: verify exactness, record the CR.
        outcome = codec.roundtrip(x)
        if not np.array_equal(outcome.reconstructed, x):
            raise AssertionError(
                f"{variant} claims losslessness but altered {memo.variable}"
            )
        return HybridChoice(
            variable=memo.variable, variant=variant, cr=outcome.cr,
            rho=1.0, nrmse=0.0, e_nmax=0.0, lossless=True,
            n_points=int(x.size),
        )
    # Screen with the three cheap tests first: the bias test reconstructs
    # every member and builds a second ensemble context, so on a deep
    # ladder paying it for rungs that already fail rho/RMSZ/e_nmax
    # dominates the build.  Only a rung that survives the screen earns
    # the full four-test evaluation.
    verdict = memo.verdict(codec, run_bias=False)
    if verdict.all_passed and run_bias:
        verdict = memo.verdict(codec, run_bias=True)
    if not verdict.all_passed:
        return None
    # The verdict already scored this member's reconstruction; only the
    # chosen rung's ratio needs a blob.
    errors = verdict.errors[member]
    return HybridChoice(
        variable=memo.variable, variant=variant,
        cr=compression_ratio(x.nbytes, len(codec.compress(x))),
        rho=errors.pearson, nrmse=errors.nrmse, e_nmax=errors.e_nmax,
        lossless=False, n_points=int(x.size),
    )
