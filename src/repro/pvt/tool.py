"""The CESM-PVT orchestrator for compression verification.

:meth:`CesmPvt.evaluate_codecs` is the paper's repurposing of the tool
(Section 4.3): run the four acceptance tests of
:mod:`repro.pvt.acceptance` for every requested (variable, codec) pair,
one eagerly filled :class:`~repro.pvt.acceptance.VerdictMemo` per
variable (the hybrid selector walks the same memo lazily), optionally in
parallel across variables.  :meth:`CesmPvt.evaluate_codec` is its
one-codec case.

The tool's original purpose, deciding whether runs from a "new machine"
are climate-changing, is :class:`repro.pvt.summary.EnsembleSummary`:
``EnsembleSummary.from_ensemble(trusted).verify_runs(new_runs)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro import obs, store
from repro.compressors.base import Compressor
from repro.parallel.failures import TaskFailure
from repro.model.ensemble import CAMEnsemble
from repro.pvt.acceptance import VariableVerdict, VerdictMemo

__all__ = ["CesmPvt", "PvtReport"]


@dataclass
class PvtReport:
    """Aggregated acceptance results for one codec over many variables.

    ``failures`` records variables whose parallel evaluation failed
    (:class:`repro.parallel.TaskFailure` per variable name);
    their verdicts are absent and every tally is over the evaluated
    variables only, so a degraded report stays usable and honest.
    """

    codec: str
    verdicts: dict[str, VariableVerdict]
    failures: dict[str, TaskFailure] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when no variable's evaluation failed."""
        return not self.failures

    def pass_counts(self) -> dict[str, int]:
        """A Table 6 row: passes per test plus the "all" column.

        Values are plain ``int`` even when a verdict carries numpy bools,
        so the mapping prints exactly as documented.
        """
        counts = {"rho": 0, "rmsz": 0, "enmax": 0, "bias": 0, "all": 0}
        for v in self.verdicts.values():
            counts["rho"] += int(v.rho.passed)
            counts["rmsz"] += int(v.rmsz.passed)
            counts["enmax"] += int(v.enmax.passed)
            if v.bias is not None:
                counts["bias"] += int(v.bias.passed)
            counts["all"] += int(v.all_passed)
        return counts

    @property
    def n_variables(self) -> int:
        """Number of variables evaluated."""
        return len(self.verdicts)


class CesmPvt:
    """Verification tool bound to a generated ensemble."""

    def __init__(self, ensemble: CAMEnsemble, n_test_members: int = 3,
                 selection_seed: int = 0):
        self.ensemble = ensemble
        self.test_members = ensemble.pick_members(
            n_test_members, seed=selection_seed
        )

    def evaluate_codec(
        self,
        codec: Compressor,
        variables=None,
        run_bias: bool = True,
        workers: int = 0,
    ) -> PvtReport:
        """Run the acceptance tests for ``codec`` over ``variables``: the
        one-codec case of :meth:`evaluate_codecs`."""
        return self.evaluate_codecs([codec], variables, run_bias,
                                    workers)[codec.variant]

    def evaluate_codecs(
        self,
        codecs,
        variables=None,
        run_bias: bool = True,
        workers: int = 0,
    ) -> dict[str, PvtReport]:
        """Run the acceptance tests for every codec over ``variables``.

        Returns one :class:`PvtReport` per codec variant.  Each variable's
        fields and :class:`VariableContext` are built once and shared by
        all codecs.  ``workers > 1`` distributes variables across
        processes via :mod:`repro.parallel` (each worker regenerates its
        fields from the shared dycore coefficients, so nothing large is
        pickled); a variable whose task fails is recorded in every
        report's ``failures`` instead of aborting the sweep.
        """
        codecs = tuple(codecs)
        names = self._variable_names(variables)
        members = tuple(int(m) for m in self.test_members)
        with obs.span("pvt.evaluate_codecs", codecs=len(codecs),
                      variables=len(names)):
            if workers and workers > 1:
                from repro.parallel.executor import parallel_map

                result = parallel_map(
                    _evaluate_one_remote,
                    [
                        (self.ensemble.config, codecs, name, members,
                         run_bias, store.current_root())
                        for name in names
                    ],
                    workers=workers,
                    on_failure="collect",
                )
                # Degrade per variable: a failed evaluation costs its
                # verdicts, never the reports.
                per_variable = {
                    name: slot for name, slot in zip(names, result)
                    if not isinstance(slot, TaskFailure)
                }
                failures = {names[f.index]: f for f in result.failures}
            else:
                per_variable = {
                    name: VerdictMemo(
                        self.ensemble.ensemble_field(name), members, name,
                    ).verdicts(codecs, run_bias)
                    for name in names
                }
                failures = {}
        return {
            codec.variant: PvtReport(
                codec=codec.variant,
                verdicts={name: verdicts[codec.variant]
                          for name, verdicts in per_variable.items()},
                failures=dict(failures),
            )
            for codec in codecs
        }

    def _variable_names(self, variables) -> list[str]:
        if variables is None:
            return [spec.name for spec in self.ensemble.catalog]
        return [
            v if isinstance(v, str) else v.name for v in variables
        ]


def _evaluate_one_remote(args) -> dict[str, VariableVerdict]:
    """Process-pool entry point: rebuild one variable's fields, evaluate."""
    config, codecs, name, members, run_bias, store_root = args
    store.adopt_root(store_root)
    fields = _ensemble_for_config(config).ensemble_field(name)
    return VerdictMemo(fields, members, name).verdicts(codecs, run_bias)


@lru_cache(maxsize=1)
def _ensemble_for_config(config) -> CAMEnsemble:
    # Per-process memo (ReproConfig is frozen, hence hashable): each
    # pool worker rebuilds the ensemble once, not once per variable.
    return CAMEnsemble(config)
