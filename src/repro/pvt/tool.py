"""The CESM-PVT orchestrator for compression verification.

:meth:`CesmPvt.evaluate_codecs` is the paper's repurposing of the tool
(Section 4.3): run the four acceptance tests of
:mod:`repro.pvt.acceptance` for every requested (variable, codec) pair,
one eagerly filled :class:`~repro.pvt.acceptance.VerdictMemo` per
variable (the hybrid selector walks the same memo lazily), both through
:func:`map_variables`, the one per-variable runner of Tables 6-8.
:meth:`CesmPvt.evaluate_codec` is its one-codec case.

The tool's original purpose, deciding whether runs from a "new machine"
are climate-changing, is :class:`repro.pvt.summary.EnsembleSummary`:
``EnsembleSummary.from_ensemble(trusted).verify_runs(new_runs)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable

from repro import obs, store
from repro.compressors.base import Compressor
from repro.model.ensemble import CAMEnsemble
from repro.parallel.executor import parallel_map
from repro.parallel.failures import MapResult, TaskFailure
from repro.pvt.acceptance import VariableVerdict, VerdictMemo

__all__ = ["CesmPvt", "PvtReport", "map_variables", "variable_names"]


@dataclass
class PvtReport:
    """Aggregated acceptance results for one codec over many variables.

    ``failures`` records variables whose evaluation failed
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
        all codecs.  ``workers > 1`` spreads the variables over processes;
        on either path a variable whose task fails is recorded in every
        report's ``failures`` instead of aborting the sweep.
        """
        codecs = tuple(codecs)
        names = variable_names(self.ensemble, variables)
        with obs.span("pvt.evaluate_codecs", codecs=len(codecs),
                      variables=len(names)):
            result = map_variables(
                self.ensemble, names, self.test_members,
                methodcaller("verdicts", codecs, run_bias),
                workers=workers, on_failure="collect",
            )
        # Degrade per variable: a failed evaluation costs its verdicts,
        # never the reports.
        failures = {names[f.index]: f for f in result.failures}
        return {
            codec.variant: PvtReport(
                codec=codec.variant,
                verdicts={name: verdicts[codec.variant]
                          for name, verdicts in zip(names, result)
                          if name not in failures},
                failures=dict(failures),
            )
            for codec in codecs
        }


def variable_names(ensemble: CAMEnsemble, variables=None) -> list[str]:
    """Names of ``variables`` (names or specs; default: the catalog);
    an unknown one raises :class:`KeyError` before any array is made."""
    if variables is None:
        return [spec.name for spec in ensemble.catalog]
    names = [v if isinstance(v, str) else v.name for v in variables]
    for name in names:
        ensemble.spec(name)
    return names


def map_variables(ensemble: CAMEnsemble, names, members,
                  task: Callable[[VerdictMemo], Any], *, workers: int = 0,
                  on_failure: str = "raise") -> "list | MapResult":
    """``task(memo)`` per variable, one :class:`VerdictMemo` apiece, as
    the tasks of one :func:`~repro.parallel.parallel_map` call.

    ``task`` must be picklable for ``workers > 1``: the ensemble crosses
    to pool workers as its identity, while inline tasks share the
    caller's ensemble and its field cache.
    """
    root = store.current_root()
    return parallel_map(
        _judge_variable,
        [(ensemble, name, members, task, root) for name in names],
        workers=workers, on_failure=on_failure,
    )


def _judge_variable(item: tuple):
    """One :func:`map_variables` task: one variable's memo, judged."""
    ensemble, name, members, task, store_root = item
    store.adopt_root(store_root)
    return task(VerdictMemo(ensemble.ensemble_field(name), members, name))
