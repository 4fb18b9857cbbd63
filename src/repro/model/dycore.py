"""Chaotic dynamical core: the Lorenz-96 system.

The CESM-PVT rests on one dynamical fact (paper Section 4.3): an O(1e-14)
perturbation of the initial state is *not* climate-changing, yet "due to
the nonlinear properties of this model, the trajectories of the ensemble
members will rapidly diverge" while "the statistical properties of the
ensemble members are expected to be the same".

The Lorenz-96 system

    dX_j/dt = (X_{j+1} - X_{j-2}) X_{j-1} - X_j + F

with ``F = 8`` is the canonical minimal model with exactly that behaviour
(leading Lyapunov exponent ~1.67 per model time unit, so 1e-14 errors
saturate after ~20 units).  We integrate all ensemble members at once with
a vectorized RK4 scheme, spin the base state onto the attractor, perturb
member ``m``'s state by ``1e-14 * N(0,1)`` (seeded by ``m``), integrate a
"model year", and summarize each member by a vector of *windowed time
statistics* (means, variances, lag covariances of the modes).  Those
coefficient vectors drive the spatial field synthesis in
:mod:`repro.model.physics`.

Cost.  The cyclic neighbours ``X_{j+1}``, ``X_{j-2}`` and ``X_{j-1}`` are
read through one precomputed ring index per ``n_modes`` (:func:`_halo`):
a single gather per tendency, then three slices of it, where
``np.roll`` would copy the state three times.  Gathering only moves
elements, and every arithmetic expression keeps its order, so the
results are bit for bit those of the roll formulation.  The spun-up base
state and the control climatology are each computed once per process
and ``(n_modes, forcing, base_seed)`` key.  The control run (200 +
24 x 1,460 serial steps on one state vector) is then a fixed cost that
depends on neither the grid, the level count nor the member count, and
it still leads the time of a cold :meth:`Lorenz96.run_ensemble`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Lorenz96", "DycoreRun", "PERTURBATION_SCALE"]

#: Magnitude of the initial-condition perturbation (paper: O(1e-14) on the
#: initial atmospheric temperature).
PERTURBATION_SCALE = 1.0e-14

_FORCING = 8.0
_DT = 0.05  # ~6 simulated hours per step in the usual L96 analogy
_SPINUP_STEPS = 2000
#: One "model year": 73 time units; statistics are windowed over the final
#: 40 units, well after 1e-14 perturbations have saturated (~20 units).
_YEAR_STEPS = 1460
_WINDOW_STEPS = 800


@lru_cache(maxsize=8)
def _halo(n_modes: int) -> np.ndarray:
    """Ring index ``[n-2, n-1, 0, 1, ..., n-1, 0]`` of length ``n + 3``.

    ``x[..., _halo(n)]`` holds mode ``j``'s neighbours at fixed offsets:
    ``X_{j-2}`` at ``j``, ``X_{j-1}`` at ``j + 1`` and ``X_{j+1}`` at
    ``j + 3``, so ``_halo(n)[3:]`` alone is the ``j + 1`` index.
    """
    index = np.arange(-2, n_modes + 1) % n_modes
    index.flags.writeable = False
    return index


def _rhs(x: np.ndarray, forcing: float) -> np.ndarray:
    """Lorenz-96 tendency, vectorized over leading axes."""
    n = x.shape[-1]
    ring = x[..., _halo(n)]
    left2, left1, right1 = ring[..., :n], ring[..., 1:n + 1], ring[..., 3:]
    return ((right1 - left2) * left1 - x) + forcing


@dataclass(frozen=True)
class DycoreRun:
    """Outcome of integrating the ensemble.

    Attributes
    ----------
    coefficients:
        ``(n_members, n_coefficients)`` standardized member statistics;
        row ``m`` drives member ``m``'s fields.
    final_states:
        ``(n_members, n_modes)`` end-of-year states (for divergence tests).
    """

    coefficients: np.ndarray
    final_states: np.ndarray

    @property
    def n_members(self) -> int:
        """Number of ensemble members integrated."""
        return self.coefficients.shape[0]

    @property
    def n_coefficients(self) -> int:
        """Standardized statistics per member (3 x n_modes)."""
        return self.coefficients.shape[1]


class Lorenz96:
    """Vectorized Lorenz-96 integrator and ensemble statistic extractor.

    Parameters
    ----------
    n_modes:
        State dimension K (default 40, the classic configuration).
    forcing:
        Forcing constant F (default 8.0, chaotic regime).
    base_seed:
        Seed for the deterministic base initial condition and member
        perturbations.
    """

    def __init__(self, n_modes: int = 40, forcing: float = _FORCING,
                 base_seed: int = 0):
        if n_modes < 4:
            raise ValueError(f"Lorenz-96 needs at least 4 modes, got {n_modes}")
        self.n_modes = n_modes
        self.forcing = float(forcing)
        self.base_seed = base_seed

    # -- integration ------------------------------------------------------

    def step(self, x: np.ndarray, dt: float = _DT) -> np.ndarray:
        """One RK4 step for state array ``x`` (vectorized over members)."""
        k1 = _rhs(x, self.forcing)
        k2 = _rhs(x + 0.5 * dt * k1, self.forcing)
        k3 = _rhs(x + 0.5 * dt * k2, self.forcing)
        k4 = _rhs(x + dt * k3, self.forcing)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def integrate(self, x: np.ndarray, n_steps: int,
                  dt: float = _DT) -> np.ndarray:
        """Integrate ``n_steps`` and return the final state."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        for _ in range(n_steps):
            x = self.step(x, dt)
        return x

    def base_state(self) -> np.ndarray:
        """Deterministic on-attractor base initial condition.

        Spun up once per process and ``(n_modes, forcing, base_seed)``;
        each call returns a fresh copy, so callers may write to it.
        """
        return _spun_up_cached(
            self.n_modes, self.forcing, self.base_seed
        ).copy()

    def perturbed_states(self, n_members: int,
                         scale: float = PERTURBATION_SCALE) -> np.ndarray:
        """Base state plus per-member O(``scale``) perturbations."""
        if n_members < 1:
            raise ValueError(f"n_members must be positive, got {n_members}")
        base = self.base_state()
        states = np.tile(base, (n_members, 1))
        for m in range(n_members):
            rng = np.random.default_rng((self.base_seed, 7919, m))
            states[m] += scale * rng.standard_normal(self.n_modes)
        return states

    # -- member statistics --------------------------------------------------

    def _windowed_stats(self, x: np.ndarray,
                        dt: float = _DT) -> tuple[np.ndarray, np.ndarray]:
        """Integrate a model year and summarize the statistics window.

        ``x`` is ``(..., n_modes)``.  Returns ``(stats, final_state)`` with
        stats of shape ``(..., 3 * n_modes)``: per-mode time mean, time
        variance, and lag-1-mode covariance over the final window.  These
        are the "annual averages of output" the PVT works from.
        """
        x = self.integrate(x, _YEAR_STEPS - _WINDOW_STEPS, dt)
        n = _WINDOW_STEPS
        right = _halo(self.n_modes)[3:]  # j + 1
        s1 = np.zeros_like(x)
        s2 = np.zeros_like(x)
        s_cov = np.zeros_like(x)
        for _ in range(n):
            x = self.step(x, dt)
            s1 += x
            s2 += x * x
            s_cov += x * x[..., right]
        mean = s1 / n
        var = s2 / n - mean**2
        cov = s_cov / n - mean * mean[..., right]
        return np.concatenate([mean, var, cov], axis=-1), x

    def _reference_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Climatological mean/std of the windowed statistics.

        Estimated once from a long control integration chopped into
        disjoint windows; used to standardize member coefficients so the
        field synthesis receives O(1) inputs with member-independent
        normalization.  Cached process-wide: the control run is identical
        for every ensemble with the same (n_modes, forcing, base_seed).
        """
        return _reference_moments_cached(
            self.n_modes, self.forcing, self.base_seed
        )

    def run_ensemble(self, n_members: int,
                     scale: float = PERTURBATION_SCALE) -> DycoreRun:
        """Integrate ``n_members`` perturbed members for one model year.

        Returns standardized coefficient vectors (mean 0, std ~1 w.r.t. the
        control climatology) and final states.
        """
        states = self.perturbed_states(n_members, scale)
        stats, final = self._windowed_stats(states)
        ref_mean, ref_std = self._reference_moments()
        coefficients = (stats - ref_mean) / ref_std
        return DycoreRun(coefficients=coefficients, final_states=final)


@lru_cache(maxsize=8)
def _spun_up_cached(n_modes: int, forcing: float,
                    base_seed: int) -> np.ndarray:
    """The base state after spin-up, read-only (see ``base_state``)."""
    model = Lorenz96(n_modes=n_modes, forcing=forcing, base_seed=base_seed)
    rng = np.random.default_rng(base_seed)
    x = model.integrate(forcing + 0.01 * rng.standard_normal(n_modes),
                        _SPINUP_STEPS)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=8)
def _reference_moments_cached(
    n_modes: int, forcing: float, base_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    model = Lorenz96(n_modes=n_modes, forcing=forcing, base_seed=base_seed)
    n_windows = 24
    x = model.base_state()
    # Decorrelate the control run from the ensemble start.
    x = model.integrate(x, 200)
    samples = np.empty((n_windows, 3 * n_modes))
    for w in range(n_windows):
        samples[w], x = model._windowed_stats(x)
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    std = np.where(std > 0, std, 1.0)
    return mean, std
