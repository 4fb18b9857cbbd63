"""Spatial field synthesis: dycore statistics -> gridded CAM variables.

Each variable's field is built from three member-independent ingredients —
a fixed climatology pattern, a fixed set of spatial anomaly modes, and the
variable's magnitude mapping — plus two member-dependent ones: the
standardized dycore coefficients (chaotic, shared climatology) and seeded
grid-scale noise (guaranteeing nonzero ensemble variance at every point,
which the PVT's Z-scores require).

    raw_m(x)  = climatology(x)
              + variability * sum_k w_k c_{m,sigma(k)} Phi_k(x)
              + noise * eta_m(x)

    field_m   = loc + scale * raw_m               (kind = "linear")
              = exp(loc + scale * raw_m)          (kind = "lognormal")
              = height(z) + scale * raw_m         (kind = "height")

The anomaly modes ``Phi_k`` are smooth spherical wave products whose
spectral decay follows the variable's ``smoothness``; ``sigma`` is a
variable-specific permutation of the dycore coefficient vector, so
different variables respond to different facets of the chaotic state.
Members are synthesized in blocks of at most 11, each written straight
into the float32 output, so no float64 array of every member exists.  A
block's anomalies are one matrix product; each member's noise modes
come from per-grid ``cos``/``sin`` tables of the integer wavenumbers
(angle addition supplies the random phases) and one more product over
the modes, so synthesis runs at BLAS speed.
"""

from __future__ import annotations

import zlib
from functools import cached_property

import numpy as np

from repro.config import FILL_VALUE
from repro.grid.cubed_sphere import CubedSphereGrid
from repro.grid.levels import HybridLevels
from repro.model.variables import VariableSpec

__all__ = ["FieldSynthesizer"]

_MAX_MODES = 48
# Members per synthesis block (see FieldSynthesizer.synthesize).
_BLOCK = 11
_MASK_FRACTION = {"land": 0.3, "ocean": 0.65}


def _name_seed(name: str) -> int:
    """Stable integer tag for a variable name (used in seed tuples)."""
    return zlib.crc32(name.encode("utf-8"))


def _shifted_waves(table: np.ndarray, wavenumbers: np.ndarray,
                   phases: np.ndarray) -> np.ndarray:
    """``cos(l * angle + phase)`` per row, by angle addition from ``table``.

    ``table`` holds ``cos``/``sin`` of ``l * angle`` (see
    :attr:`FieldSynthesizer._trig_tables`); ``phases`` is a column.  The
    products are formed in place to spare temporaries.
    """
    waves = table[0, wavenumbers]
    waves *= np.cos(phases)
    sines = table[1, wavenumbers]
    sines *= np.sin(phases)
    waves -= sines
    return waves


class FieldSynthesizer:
    """Builds gridded fields for every variable from member coefficients."""

    def __init__(
        self,
        grid: CubedSphereGrid,
        levels: HybridLevels,
        n_coefficients: int,
        base_seed: int = 0,
    ):
        if n_coefficients < 1:
            raise ValueError("n_coefficients must be positive")
        self.grid = grid
        self.levels = levels
        self.n_coefficients = n_coefficients
        self.base_seed = base_seed
        self._latr = np.deg2rad(grid.lat)
        self._lonr = np.deg2rad(grid.lon)
        self._z_norm = (
            np.arange(levels.nlev, dtype=np.float64) / max(levels.nlev - 1, 1)
        )
        self._height = levels.height_profile()
        # Wavenumber cap: absolute content up to 32, but at most a third of
        # the zonal Nyquist so coarse grids do not alias (see _modes).
        nyquist = 2 * grid.ne * (grid.np_ - 1)
        self._l_cap = min(32, max(3, nyquist // 3))
        self._var_cache: dict[str, dict] = {}

    # -- per-variable machinery ------------------------------------------

    def _modes(self, spec: VariableSpec) -> dict:
        """Deterministic per-variable mode set (cached)."""
        cached = self._var_cache.get(spec.name)
        if cached is not None:
            return cached

        rng = np.random.default_rng(
            (self.base_seed, 0x5059, _name_seed(spec.name))
        )
        k = min(_MAX_MODES, self.n_coefficients)
        decay_power = 1.0 + 3.0 * spec.smoothness
        # Wavenumber content is *absolute* (planetary through synoptic
        # scales, as in real CAM output), capped at 32; at coarse bench
        # grids the cap drops to a third of the zonal Nyquist so the high
        # modes do not alias into grid-scale noise.  Consequence: at the
        # paper's ne=30 the fields are genuinely smooth at grid scale
        # (adjacent-point differences ~1% of range, like 1-degree CAM),
        # while coarse grids under-resolve the same spectrum — predictive
        # codecs gain with resolution exactly as they do on real data.
        l_cap = self._l_cap

        def wave_bank(n: int) -> tuple[np.ndarray, np.ndarray]:
            """n horizontal modes (n, ncol) and vertical factors (n, nlev)."""
            # Total wavenumber grows with mode index; smooth variables put
            # almost all weight on the first (planetary) modes.
            ramp = np.minimum(1 + (np.arange(n) * l_cap) // n, l_cap)
            l_lon = ramp + rng.integers(0, 2, n)
            m_lat = np.maximum(ramp // 2, 1) + rng.integers(0, 2, n)
            ph_lon = rng.uniform(0, 2 * np.pi, n)
            ph_lat = rng.uniform(0, 2 * np.pi, n)
            horiz = np.cos(
                l_lon[:, None] * self._lonr[None, :] + ph_lon[:, None]
            ) * np.cos(m_lat[:, None] * self._latr[None, :] + ph_lat[:, None])
            v_num = rng.integers(0, 4, n)
            ph_v = rng.uniform(0, 2 * np.pi, n)
            vert = np.cos(
                np.pi * v_num[:, None] * self._z_norm[None, :] + ph_v[:, None]
            )
            return horiz, vert

        # Climatology: fixed pattern with unit spatial standard deviation.
        clim_h, clim_v = wave_bank(k)
        w0 = (np.arange(k) + 1.0) ** (-decay_power) * rng.standard_normal(k)
        if spec.is_3d:
            clim = np.einsum("k,kz,kx->zx", w0, clim_v, clim_h)
        else:
            clim = w0 @ clim_h
        clim_std = float(clim.std())
        if clim_std == 0.0:
            raise AssertionError(f"{spec.name}: degenerate climatology")
        clim = clim / clim_std

        # Anomaly modes, normalized so the member anomaly has unit variance
        # when the coefficients are standardized.
        anom_h, anom_v = wave_bank(k)
        w = (np.arange(k) + 1.0) ** (-decay_power) * rng.standard_normal(k)
        if spec.is_3d:
            mode_ms = np.mean((anom_v[:, :, None] * anom_h[:, None, :]) ** 2,
                              axis=(1, 2))
        else:
            mode_ms = np.mean(anom_h**2, axis=1)
        norm = float(np.sqrt(np.sum(w**2 * mode_ms)))
        if norm == 0.0:
            raise AssertionError(f"{spec.name}: degenerate anomaly modes")
        w = w / norm
        sigma = rng.permutation(self.n_coefficients)[:k]

        mask = None
        if spec.fill_mask != "none":
            mask = self._fill_mask(spec, rng)

        cached = {
            "clim": clim,
            "w": w,
            "anom_h": anom_h,
            "anom_v": anom_v,
            "sigma": sigma,
            "mask": mask,
        }
        self._var_cache[spec.name] = cached
        return cached

    def _fill_mask(self, spec: VariableSpec,
                   rng: np.random.Generator) -> np.ndarray:
        """Fixed horizontal fill mask (a smooth 'continent' pattern)."""
        pattern = np.zeros(self.grid.ncol)
        for _ in range(6):
            l, m = rng.integers(1, 4, 2)
            a, b = rng.uniform(0, 2 * np.pi, 2)
            pattern += np.cos(l * self._lonr + a) * np.cos(m * self._latr + b)
        frac = _MASK_FRACTION[spec.fill_mask]
        threshold = np.quantile(pattern, 1.0 - frac)
        return pattern > threshold

    # -- synthesis ---------------------------------------------------------

    def synthesize(
        self,
        spec: VariableSpec,
        coefficients: np.ndarray,
        member_ids: np.ndarray | list[int],
    ) -> np.ndarray:
        """Fields for the given members.

        Parameters
        ----------
        spec:
            Variable to synthesize.
        coefficients:
            ``(n_members, n_coefficients)`` standardized dycore statistics.
        member_ids:
            Global member indices (seed the per-member noise); length must
            match ``coefficients``.

        Returns
        -------
        ``(n_members, nlev, ncol)`` float32 for 3-D variables,
        ``(n_members, ncol)`` for 2-D.
        """
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
        member_ids = np.asarray(member_ids, dtype=np.int64)
        if coefficients.shape[0] != member_ids.shape[0]:
            raise ValueError(
                f"{coefficients.shape[0]} coefficient rows vs "
                f"{member_ids.shape[0]} member ids"
            )
        if coefficients.shape[1] != self.n_coefficients:
            raise ValueError(
                f"expected {self.n_coefficients} coefficients per member, "
                f"got {coefficients.shape[1]}"
            )
        modes = self._modes(spec)
        g = coefficients[:, modes["sigma"]] * modes["w"][None, :]
        m = g.shape[0]
        out = np.empty((m,) + modes["clim"].shape, dtype=np.float32)
        # Near-equal blocks of at most _BLOCK members: a block holds one
        # member only when the call does, since a one-row product may take
        # a different BLAS path than a multi-row one.
        for rows in np.array_split(np.arange(m), max(-(-m // _BLOCK), 1)):
            out[rows] = self._synthesize_block(spec, modes, g[rows],
                                               member_ids[rows])
        return out

    def _synthesize_block(self, spec: VariableSpec, modes: dict,
                          g: np.ndarray, member_ids: np.ndarray) -> np.ndarray:
        """float64 fields of one member block; ``g`` holds its weighted
        coefficients.  Its temporaries are freed before the next block."""
        if spec.is_3d:
            # One GEMM: fold each member's weights into the vertical
            # factors, (b * nlev, k) @ (k, ncol).
            b, k = g.shape
            gv = (g[:, None, :] * modes["anom_v"].T).reshape(-1, k)
            raw = (gv @ modes["anom_h"]).reshape(b, self.levels.nlev, -1)
        else:
            raw = g @ modes["anom_h"]
        raw *= spec.variability
        raw += modes["clim"]
        for i, member in enumerate(member_ids):
            rng = np.random.default_rng(
                (self.base_seed, 0x4E5A, _name_seed(spec.name), int(member))
            )
            raw[i] += spec.noise * self._member_noise(spec, rng)
        field = self._apply_kind(spec, raw)
        if modes["mask"] is not None:
            field[..., modes["mask"]] = FILL_VALUE
        return field

    def _member_noise(self, spec: VariableSpec,
                      rng: np.random.Generator) -> np.ndarray:
        """Member-specific internal-variability field, unit variance.

        Annual-mean climate fields carry *spatially correlated* internal
        variability, not white grid-scale noise: each member gets its own
        random superposition of smooth modes (random wavenumbers up to the
        grid-appropriate cap, random phases).  This keeps the ensemble
        spread nonzero at every grid point — what the PVT's Z-scores need
        — while staying smooth at grid scale like real CAM output.

        The wavenumbers are integers up to ``l_cap``, so the modes come
        from :attr:`_trig_tables` by angle addition instead of per-point
        ``cos`` calls.  The rng draws keep the order of the direct
        evaluation, whose float32 fields this matches bit for bit except
        where a float64 rounding difference survives the cast (2 of
        153.1M values at bench scale).
        """
        n_modes = 16
        l_cap = self._l_cap
        l_lon = rng.integers(1, l_cap + 1, n_modes)
        m_lat = rng.integers(1, max(l_cap // 2, 2), n_modes)
        ph_lon = rng.uniform(0, 2 * np.pi, n_modes)[:, None]
        ph_lat = rng.uniform(0, 2 * np.pi, n_modes)[:, None]
        w = rng.standard_normal(n_modes)
        lon_table, lat_table = self._trig_tables
        horiz = _shifted_waves(lon_table, l_lon, ph_lon)
        horiz *= _shifted_waves(lat_table, m_lat, ph_lat)
        if spec.is_3d:
            v_num = rng.integers(0, 4, n_modes)
            ph_v = rng.uniform(0, 2 * np.pi, n_modes)
            vert = np.cos(
                np.pi * v_num[:, None] * self._z_norm[None, :]
                + ph_v[:, None]
            )
            field = (vert.T * w) @ horiz
        else:
            field = w @ horiz
        std = float(field.std())
        if std == 0.0:  # vanishingly unlikely; keep the variance floor
            return rng.standard_normal(field.shape)
        return field / std

    @cached_property
    def _trig_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``cos``/``sin`` of ``l * lon`` and of ``l * lat``, ``l = 0..l_cap``.

        Each table is ``(2, l_cap + 1, ncol)`` (cos first), built on first
        use: every member's noise modes index into them.
        """
        wavenumber = np.arange(self._l_cap + 1)[:, None]
        lon = wavenumber * self._lonr[None, :]
        lat = wavenumber * self._latr[None, :]
        return (np.stack([np.cos(lon), np.sin(lon)]),
                np.stack([np.cos(lat), np.sin(lat)]))

    def _apply_kind(self, spec: VariableSpec, raw: np.ndarray) -> np.ndarray:
        """Map ``raw`` to the variable's magnitudes in place (the module
        docstring's formulas, ``VariableSpec`` checks the kind); returns
        ``raw``."""
        if spec.kind == "height" and not spec.is_3d:
            raise ValueError(f"{spec.name}: 'height' requires a 3D variable")
        raw *= spec.scale
        if spec.kind == "height":
            raw += self._height[None, :, None]
            return raw
        raw += spec.loc
        if spec.kind == "lognormal":
            if spec.vert_decay and spec.is_3d:
                # Levels are ordered top-of-model first (z_norm = 0 at the
                # top): tracers decay away from the surface.
                raw -= spec.vert_decay * (1.0 - self._z_norm[None, :, None])
            np.exp(raw, out=raw)
        return raw
