"""The CESM-PVT ensemble: 101 one-year members from perturbed initials.

:class:`CAMEnsemble` runs the dycore once and serves per-variable ensemble
arrays on demand (with a small LRU cache — at paper scale a single 3-D
variable's ensemble is ~600 MB, so only a few are kept resident).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro import store
from repro.config import ReproConfig, get_config
from repro.model.cam import CAMModel
from repro.model.dycore import DycoreRun, PERTURBATION_SCALE
from repro.model.variables import VariableSpec

__all__ = ["CAMEnsemble"]

_CACHE_SLOTS = 8


class CAMEnsemble:
    """Ensemble E = {E_1, ..., E_M} of perturbed-initial-condition runs.

    Parameters
    ----------
    config:
        Scale parameters; defaults to the process-wide configuration.
    perturbation:
        Initial-condition perturbation scale (paper: O(1e-14)).
    """

    def __init__(
        self,
        config: ReproConfig | None = None,
        perturbation: float = PERTURBATION_SCALE,
    ):
        self.config = config if config is not None else get_config()
        self.perturbation = perturbation
        self.model = CAMModel.from_config(self.config)
        self._run: DycoreRun = self._run_dycore(perturbation)
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()

    def __reduce__(self):
        """Pickle as the identity ``(config, perturbation)``, no arrays."""
        return _rebuilt, (self.config, self.perturbation)

    def _run_dycore(self, perturbation: float) -> DycoreRun:
        """Integrate the ensemble, through the artifact cache when active.

        The run is a pure function of the scale config plus the dycore's
        own parameters, so its coefficient/state arrays are stored as an
        ``npz`` artifact and a second construction at the same scale is
        a read instead of an integration.
        """
        dycore = self.model.dycore
        key = store.artifact_key(
            "model.dycore_run",
            config=self.config,
            perturbation=perturbation,
            n_modes=dycore.n_modes,
            forcing=dycore.forcing,
        )
        return store.cached(
            key,
            lambda: dycore.run_ensemble(
                self.config.n_members, perturbation
            ),
            kind="npz",
            stage="model.dycore_run",
            meta={"members": self.config.n_members},
            encode=lambda run: {
                "coefficients": run.coefficients,
                "final_states": run.final_states,
            },
            decode=lambda data: DycoreRun(
                coefficients=data["coefficients"],
                final_states=data["final_states"],
            ),
        )

    @property
    def n_members(self) -> int:
        """Ensemble size (paper: 101)."""
        return self.config.n_members

    @property
    def dycore_run(self) -> DycoreRun:
        """The underlying chaotic-dycore integration result."""
        return self._run

    @property
    def catalog(self) -> tuple[VariableSpec, ...]:
        """The variable catalog this ensemble synthesizes."""
        return self.model.catalog

    def spec(self, name: str) -> VariableSpec:
        """Look up a catalog variable by name."""
        return self.model.spec(name)

    def ensemble_field(self, variable: VariableSpec | str) -> np.ndarray:
        """All members' fields for one variable.

        Returns ``(n_members, nlev, ncol)`` float32 for 3-D variables,
        ``(n_members, ncol)`` for 2-D.  The result is cached (LRU) and
        read-only: PVT contexts reference it instead of copying it.
        """
        spec = self.model.spec(variable) if isinstance(variable, str) else variable
        cached = self._cache.get(spec.name)
        if cached is not None:
            self._cache.move_to_end(spec.name)
            return cached
        fields = self.model.fields_for(
            spec, self._run.coefficients, np.arange(self.n_members)
        )
        fields.flags.writeable = False
        self._cache[spec.name] = fields
        if len(self._cache) > _CACHE_SLOTS:
            self._cache.popitem(last=False)
        return fields

    def member_field(self, variable: VariableSpec | str,
                     member: int) -> np.ndarray:
        """One member's field (a view into the cached ensemble array)."""
        if not 0 <= member < self.n_members:
            raise IndexError(
                f"member {member} out of range 0..{self.n_members - 1}"
            )
        return self.ensemble_field(variable)[member]

    def history_snapshot(self, member: int) -> dict[str, np.ndarray]:
        """All variables for one member (a history-file time slice)."""
        if not 0 <= member < self.n_members:
            raise IndexError(
                f"member {member} out of range 0..{self.n_members - 1}"
            )
        return self.model.history_snapshot(
            self._run.coefficients[member], member
        )

    def pick_members(self, k: int = 3, seed: int = 0) -> np.ndarray:
        """Randomly select ``k`` distinct members (the PVT draws 3)."""
        if not 1 <= k <= self.n_members:
            raise ValueError(f"k must be in 1..{self.n_members}, got {k}")
        rng = np.random.default_rng((self.config.base_seed, 0x504B, seed))
        return np.sort(rng.choice(self.n_members, size=k, replace=False))


@lru_cache(maxsize=1)
def _rebuilt(config: ReproConfig, perturbation: float) -> CAMEnsemble:
    """An unpickled ensemble, rebuilt once per process, not per task."""
    return CAMEnsemble(config, perturbation)
