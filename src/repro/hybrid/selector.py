"""Hybrid method construction: most-compressive passing variant per variable.

For each variable the selector tries the family's variants from most to
least compressive (e.g. fpzip-16 -> fpzip-24 -> fpzip-32); the first one
whose reconstruction passes all four acceptance tests wins.  The ladder
always ends in a lossless option (fpzip-32 or NetCDF-4), which passes by
construction, so every variable gets a choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import store
from repro.compressors.base import Compressor, compression_ratio
from repro.compressors.registry import get_variant, method_families
from repro.model.ensemble import CAMEnsemble
from repro.pvt.acceptance import VariableContext, evaluate_variable

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


def _lossless_choice(
    variable: str, variant: str, codec: Compressor, sample: np.ndarray
) -> HybridChoice:
    """Fast path for bit-exact codecs: verify exactness, record the CR."""
    outcome = codec.roundtrip(np.ascontiguousarray(sample))
    if not np.array_equal(outcome.reconstructed, sample):
        raise AssertionError(
            f"{variant} claims losslessness but altered {variable}"
        )
    return HybridChoice(
        variable=variable,
        variant=variant,
        cr=outcome.cr,
        rho=1.0,
        nrmse=0.0,
        e_nmax=0.0,
        lossless=True,
        n_points=int(sample.size),
    )


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

    With an active artifact store (:mod:`repro.store`) the whole
    :class:`HybridResult` is cached per (config, family, ladder,
    members) — Tables 7/8 and ``repro hybrid`` reruns become reads.
    """
    families = method_families(extended_apax=extended_apax,
                               include_modern=True)
    families["NetCDF-4"] = ("NetCDF-4",)
    if family not in families:
        raise KeyError(
            f"unknown family {family!r}; known: {sorted(families)}"
        )
    ladder = families[family]
    if test_members is None:
        test_members = ensemble.pick_members(3)
    names = (
        [spec.name for spec in ensemble.catalog]
        if variables is None
        else [v if isinstance(v, str) else v.name for v in variables]
    )
    key = store.artifact_key(
        "hybrid.plan",
        config=ensemble.config,
        family=family,
        ladder=list(ladder),
        variables=names,
        members=[int(m) for m in test_members],
        run_bias=run_bias,
    )
    return store.cached(
        key,
        lambda: _build_hybrid_impl(
            ensemble, family, ladder, names, test_members, run_bias
        ),
        kind="pkl",
        stage="hybrid.plan",
        meta={"family": family},
    )


def _build_hybrid_impl(
    ensemble: CAMEnsemble,
    family: str,
    ladder,
    names: list[str],
    test_members,
    run_bias: bool,
) -> HybridResult:
    choices: dict[str, HybridChoice] = {}
    for name in names:
        fields = ensemble.ensemble_field(name)
        context = None
        chosen: HybridChoice | None = None
        for variant in ladder:
            codec = get_variant(variant)
            if codec.is_lossless:
                chosen = _lossless_choice(name, variant, codec,
                                          fields[int(test_members[0])])
                break
            if context is None:
                context = VariableContext.from_ensemble(fields)
            # Screen with the three cheap tests first: the bias test
            # reconstructs every member and builds a second ensemble
            # context, so on a deep ladder paying it for rungs that
            # already fail rho/RMSZ/e_nmax dominates the build.  Only a
            # rung that survives the screen earns the full four-test
            # evaluation.
            verdict = evaluate_variable(
                fields, codec, test_members, variable=name,
                run_bias=False, context=context,
            )
            if verdict.all_passed and run_bias:
                verdict = evaluate_variable(
                    fields, codec, test_members, variable=name,
                    run_bias=True, context=context,
                )
            if verdict.all_passed:
                # The verdict already scored this member's reconstruction;
                # only the chosen rung's ratio needs a blob.
                member = int(test_members[0])
                errors = verdict.errors[member]
                x = np.ascontiguousarray(fields[member])
                chosen = HybridChoice(
                    variable=name, variant=variant,
                    cr=compression_ratio(x.nbytes, len(codec.compress(x))),
                    rho=errors.pearson, nrmse=errors.nrmse,
                    e_nmax=errors.e_nmax, lossless=False,
                    n_points=int(x.size),
                )
                break
        if chosen is None:
            raise AssertionError(
                f"ladder for {family!r} has no lossless fallback and no "
                f"variant passed for {name!r}"
            )
        choices[name] = chosen
    return HybridResult(family=family, choices=choices)


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
    families = list(method_families(extended_apax=extended_apax,
                                    include_modern=include_modern))
    if include_nc:
        families.append("NetCDF-4")
    test_members = ensemble.pick_members(3)
    return {
        family: build_hybrid(
            ensemble, family, variables=variables,
            test_members=test_members, run_bias=run_bias,
            extended_apax=extended_apax,
        )
        for family in families
    }
