"""Per-variable acceptance testing: the four columns of Table 6.

A (variable, codec) pair is evaluated by:

1. **rho**     — Pearson correlation >= 0.99999 (eq. 5) for each of the
   randomly chosen test members;
2. **RMSZ ens.** — the reconstructed member's RMSZ falls within the
   ensemble distribution *and* within 1/10 of the original's (eq. 8);
3. **E_nmax ens.** — the original-vs-reconstructed e_nmax (eq. 2) is within
   the ensemble's E_nmax range and at most 1/10 of it (eq. 11);
4. **bias**    — reconstructed RMSZ of every member is regressed on
   original RMSZ, and the 95% worst-case slope is within 0.05 of 1
   (eq. 9).

"all" (the right-most Table 6 column) requires every test to pass.

:func:`reconstruct_ensemble` is the only place the PVT runs a codec:
each evaluation reconstructs every member it needs once — the test
members alone, or the whole ensemble when the bias test runs, whose
stack the other three tests then read their members' rows from.  Every
test is a function of the reconstructions alone, so every member is
rebuilt by :meth:`~repro.compressors.base.Compressor.reconstruct`, which
skips the lossless coder and returns the same bytes as a round trip; no
blob is made.  A compression ratio is the caller's to measure, where one
is reported (the hybrid selector, ``repro verify``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import obs, store
from repro.compressors.base import Compressor
from repro.config import (
    BIAS_SLOPE_LIMIT,
    ENMAX_RATIO_LIMIT,
    RHO_THRESHOLD,
    RMSZ_DIFF_LIMIT,
)
from repro.metrics.streaming import ErrorSummary
from repro.pvt.bias import bias_regression
from repro.pvt.enmax import enmax_ratio_test
from repro.pvt.zscore import (EnsembleStats, ZeroSpreadError,
                              rmsz_closeness_test)

__all__ = [
    "TestVerdict",
    "VariableContext",
    "VariableVerdict",
    "VerdictMemo",
    "evaluate_variable",
    "reconstruct_ensemble",
]

# PVT pass/fail tallies (docs/observability.md), labelled per test.
_PASSED = obs.counter("pvt.tests_passed")
_FAILED = obs.counter("pvt.tests_failed")
_VARIABLES = obs.counter("pvt.variables_evaluated")


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one acceptance test, with its diagnostics."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class VariableContext:
    """Per-variable ensemble statistics shared across codec evaluations.

    Building these is O(n_members x n_points), so a
    :class:`VerdictMemo` builds them once per variable.
    """

    stats: EnsembleStats
    rmsz_dist: np.ndarray
    enmax_dist: np.ndarray

    @classmethod
    def from_ensemble(cls, ensemble: np.ndarray) -> "VariableContext":
        """Build the sufficient statistics and both distributions in one
        sweep over the ensemble."""
        with obs.span("pvt.context", members=int(ensemble.shape[0])):
            stats = EnsembleStats(ensemble)
            return cls(
                stats=stats,
                rmsz_dist=stats.distribution(),
                enmax_dist=stats.enmax_distribution(),
            )


class VerdictMemo:
    """One variable's verdicts, each (variant, bias) pair judged once.

    Tables 6-8 judge a variable through one memo over its ``fields``,
    which the caller fetches once; the :class:`VariableContext` is built
    on first use.  A bias verdict also answers a later screen of the
    same variant: its rho, RMSZ and E_nmax rows are the screen's.
    """

    def __init__(self, fields: np.ndarray, members, variable: str = "?"):
        self.fields = fields
        self.members = [int(m) for m in members]
        self.variable = variable
        self._verdicts: dict[str, VariableVerdict] = {}

    @cached_property
    def context(self) -> VariableContext:
        """The variable's ensemble statistics, built on first use."""
        return VariableContext.from_ensemble(self.fields)

    def verdict(self, codec: Compressor, run_bias: bool) -> VariableVerdict:
        """``codec``'s screen, or its four-test verdict with ``run_bias``."""
        known = self._verdicts.get(codec.variant)
        if known is None or (run_bias and known.bias is None):
            known = self._verdicts[codec.variant] = evaluate_variable(
                self.fields, codec, self.members, variable=self.variable,
                run_bias=run_bias, context=self.context,
            )
        return known

    def verdicts(self, codecs, run_bias: bool) -> dict[str, VariableVerdict]:
        """The eager case: every codec's verdict, keyed by variant."""
        return {c.variant: self.verdict(c, run_bias) for c in codecs}


@dataclass(frozen=True)
class VariableVerdict:
    """All four verdicts for one (variable, codec) pair.

    ``errors`` holds each test member's
    :class:`~repro.metrics.streaming.ErrorSummary`, so callers needing a
    member's quality numbers (the hybrid selector) read them here
    instead of running the codec again.  No compression ratio is kept:
    the tests never read one.
    """

    variable: str
    codec: str
    rho: TestVerdict
    rmsz: TestVerdict
    enmax: TestVerdict
    bias: TestVerdict | None
    errors: dict[int, ErrorSummary]

    @property
    def all_passed(self) -> bool:
        """The Table 6 'all' column: every run test passed."""
        verdicts = [self.rho, self.rmsz, self.enmax]
        if self.bias is not None:
            verdicts.append(self.bias)
        return all(v.passed for v in verdicts)

    def as_row(self) -> dict:
        """Flatten into a pass/fail row for reporting."""
        row = {
            "variable": self.variable,
            "codec": self.codec,
            "rho": self.rho.passed,
            "rmsz": self.rmsz.passed,
            "enmax": self.enmax.passed,
            "all": self.all_passed,
        }
        row["bias"] = self.bias.passed if self.bias is not None else None
        return row


def reconstruct_ensemble(
    ensemble: np.ndarray, codec: Compressor, members=None
) -> np.ndarray:
    """Reconstruct ``members`` (default: every member) through ``codec``.

    Returns the ``(len(members), ...)`` stack of reconstructions in the
    ensemble's dtype, in ``members`` order.  Each member takes
    :meth:`Compressor.reconstruct`, which returns the values of a full
    round trip without running the lossless coder.
    """
    ensemble = np.asarray(ensemble)
    if members is None:
        members = range(ensemble.shape[0])
    members = [int(m) for m in members]
    stack = np.empty((len(members),) + ensemble.shape[1:],
                     dtype=ensemble.dtype)
    for i, m in enumerate(members):
        stack[i] = codec.reconstruct(np.ascontiguousarray(ensemble[m]))
    return stack


def evaluate_variable(
    ensemble: np.ndarray,
    codec: Compressor,
    members,
    variable: str = "?",
    run_bias: bool = True,
    rho_threshold: float = RHO_THRESHOLD,
    rmsz_limit: float = RMSZ_DIFF_LIMIT,
    enmax_limit: float = ENMAX_RATIO_LIMIT,
    bias_limit: float = BIAS_SLOPE_LIMIT,
    context: VariableContext | None = None,
) -> VariableVerdict:
    """Run the four acceptance tests for one variable and one codec.

    Parameters
    ----------
    ensemble:
        ``(n_members, ...)`` float32 member fields for this variable.
    codec:
        Configured compressor variant.
    members:
        The randomly chosen test member indices (the PVT uses 3).
    run_bias:
        The bias test reconstructs *all* members (Section 4.3), instead
        of only the test members; disable to skip that cost when only
        the first three columns are needed.

    When an artifact store is active (:mod:`repro.store`), the verdict
    is cached keyed on the ensemble's content hash, the codec
    fingerprint, the member draw, and the limits — a repeated sweep
    (Table 6, hybrid selection) reads instead of recomputing.
    """
    ensemble = np.asarray(ensemble)
    members = [int(m) for m in members]
    if not members:
        raise ValueError("need at least one test member")
    def compute() -> VariableVerdict:
        return _evaluate_impl(
            ensemble, codec, members, variable, run_bias, rho_threshold,
            rmsz_limit, enmax_limit, bias_limit, context,
        )

    st = store.get_store()
    if st is None:
        return compute()
    # The verdict is a pure function of the ensemble bytes, the codec
    # configuration, the member draw, and the limits; ``context`` is
    # derived from the ensemble, so it stays out of the key.
    key = store.artifact_key(
        "pvt.verdict",
        ensemble=store.array_fingerprint(ensemble),
        codec=codec.fingerprint(),
        members=members,
        variable=variable,
        run_bias=run_bias,
        limits=[rho_threshold, rmsz_limit, enmax_limit, bias_limit],
    )
    return store.cached(
        key, compute, kind="pkl", stage="pvt.verdict",
        meta={"variable": variable, "codec": codec.variant}, store=st,
    )


def _evaluate_impl(
    ensemble: np.ndarray,
    codec: Compressor,
    members: list[int],
    variable: str,
    run_bias: bool,
    rho_threshold: float,
    rmsz_limit: float,
    enmax_limit: float,
    bias_limit: float,
    context: VariableContext | None,
) -> VariableVerdict:
    with obs.span("pvt.variable", variable=variable, codec=codec.variant):
        if context is None:
            context = VariableContext.from_ensemble(ensemble)
        stats = context.stats
        rmsz_dist = context.rmsz_dist
        enmax_dist = context.enmax_dist

        rows = list(range(ensemble.shape[0])) if run_bias else members
        with obs.span("pvt.reconstruct", variable=variable,
                      members=len(rows)):
            stack = reconstruct_ensemble(ensemble, codec, rows)
        recon = dict(zip(rows, stack))

        with obs.span("pvt.rho", variable=variable):
            # One fold per member gives both its rho and its E_nmax.
            errors = {m: ErrorSummary.of(ensemble[m], recon[m])
                      for m in members}
            rho_values = {m: errors[m].pearson for m in members}
            rho_verdict = TestVerdict(
                name="rho",
                passed=all(r >= rho_threshold for r in rho_values.values()),
                detail={"values": rho_values, "threshold": rho_threshold},
            )

        with obs.span("pvt.zscore", variable=variable):
            rmsz_detail: dict[int, dict] = {}
            rmsz_ok = True
            for m in members:
                orig_score = stats.member_rmsz(m)
                recon_score = stats.rmsz(recon[m].reshape(-1), m)
                within, close = rmsz_closeness_test(
                    orig_score, recon_score, rmsz_dist, rmsz_limit
                )
                rmsz_detail[m] = {
                    "original": orig_score,
                    "reconstructed": recon_score,
                    "within": within,
                    "close": close,
                }
                rmsz_ok &= within and close
            rmsz_verdict = TestVerdict(
                name="rmsz", passed=rmsz_ok,
                detail={"members": rmsz_detail, "distribution": rmsz_dist},
            )

        with obs.span("pvt.enmax", variable=variable):
            enmax_detail: dict[int, dict] = {}
            enmax_ok = True
            for m in members:
                e_nmax = errors[m].e_nmax
                within, small = enmax_ratio_test(
                    e_nmax, enmax_dist, enmax_limit
                )
                enmax_detail[m] = {
                    "e_nmax": e_nmax, "within": within, "small": small,
                }
                enmax_ok &= within and small
            enmax_verdict = TestVerdict(
                name="enmax", passed=enmax_ok,
                detail={"members": enmax_detail, "distribution": enmax_dist},
            )

        bias_verdict: TestVerdict | None = None
        if run_bias:
            with obs.span("pvt.bias", variable=variable,
                          members=int(ensemble.shape[0])):
                bias_verdict = _bias_verdict(stack, stats.valid, rmsz_dist,
                                             bias_limit)

        verdict = VariableVerdict(
            variable=variable,
            codec=codec.variant,
            rho=rho_verdict,
            rmsz=rmsz_verdict,
            enmax=enmax_verdict,
            bias=bias_verdict,
            errors=errors,
        )
        if obs.active():
            _VARIABLES.add(1)
            for test in (verdict.rho, verdict.rmsz, verdict.enmax,
                         verdict.bias):
                if test is not None:
                    tally = _PASSED if test.passed else _FAILED
                    tally.add(1, test=test.name)
        return verdict


def _bias_verdict(stack: np.ndarray, valid: np.ndarray,
                  rmsz_dist: np.ndarray, limit: float) -> TestVerdict:
    """Eq. (9) over the reconstructed ensemble E~ (the ``(n_members,
    ...)`` stack), or a failing verdict saying why E~ has no RMSZ
    distribution to regress."""
    def fail(reason) -> TestVerdict:
        return TestVerdict(name="bias", passed=False, detail={
            "reason": f"reconstructed ensemble: {reason}"})

    # E~'s own statistics would skip a point the codec made non-finite
    # as if it were a fill value.
    lost = int(np.count_nonzero(
        valid & ~np.isfinite(stack.reshape(len(stack), -1)).all(axis=0)))
    if lost:
        return fail(f"non-finite at {lost} points the original holds valid")
    try:
        # Each reconstructed member's RMSZ within E~'s own
        # sub-ensembles, at float32 whatever the ensemble dtype.
        rmsz_recon = EnsembleStats(
            stack.astype(np.float32, copy=False)
        ).distribution()
    except ZeroSpreadError as exc:
        # The codec flattened E~: no variability to regress.
        return fail(exc)
    result = bias_regression(rmsz_dist, rmsz_recon)
    return TestVerdict(name="bias", passed=result.passes(limit),
                       detail={"regression": result})
