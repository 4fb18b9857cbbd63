"""Global configuration for the repro library.

Resolution, ensemble size, and parallelism are configurable so the same
code paths run at laptop scale (tests), bench scale (default benchmarks),
or paper scale (``ne=30``, 101 members, 170 variables).

Environment knobs
-----------------
``REPRO_NE``
    Spectral-element resolution parameter (paper: 30).  The number of
    horizontal grid points is ``6*ne**2*(np-1)**2 + 2`` with ``np = 4``.
``REPRO_NLEV``
    Number of vertical levels (paper: 30).
``REPRO_MEMBERS``
    Ensemble size (paper: 101).
``REPRO_2D`` / ``REPRO_3D``
    Number of 2-D/3-D catalog variables for :func:`example_scale` (the
    examples' configs), so ``tests/test_examples.py`` can shrink the
    scripts without editing them.
``REPRO_WORKERS``
    Worker processes used by :mod:`repro.parallel` (default: CPU count).
``REPRO_SANITIZE``
    Set to ``1`` to activate the runtime numeric sanitizer
    (:mod:`repro.check.sanitize`): codec round trips, the PVT z-score and
    E_nmax paths, and ``parallel_map`` then verify dtype/shape/NaN
    invariants on every call and raise ``SanitizerError`` on violation.
``REPRO_TRACE``
    Set to ``1`` to activate the observability layer (:mod:`repro.obs`):
    codec, PVT, parallel, and harness stages then record hierarchical
    wall-clock spans (the one timing record: ``repro stats`` reads
    per-stage and per-codec p50/p95 from them) plus counters and gauges.
``REPRO_TRACE_JSONL`` / ``REPRO_TRACE_CHROME``
    Optional trace output paths: a JSON-lines event stream and a
    Chrome-trace/Perfetto file (see ``docs/observability.md``).
``REPRO_TRACE_MEM``
    Set to ``1`` (with tracing on) to add tracemalloc peaks to every
    span and per-pid RSS gauges: the ``peak MB`` column of
    ``repro stats``.
``REPRO_STORE``
    Artifact-cache directory for :mod:`repro.store`.  When set, the
    expensive stages (ensemble run, PVT verdicts, hybrid plans, table
    rows) are cached content-addressed on disk and reruns only
    recompute stages whose inputs changed; unset (the default)
    disables caching entirely.  See ``docs/caching.md``.
``REPRO_STORE_MAX_MB``
    LRU size cap for the ``REPRO_STORE`` cache (least recently used
    artifacts are evicted above it); unset means unbounded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

__all__ = [
    "FILL_VALUE",
    "SPECIAL_THRESHOLD",
    "ReproConfig",
    "env_flag",
    "env_float_opt",
    "env_int_opt",
    "env_str",
    "get_config",
    "set_config",
    "paper_scale",
    "bench_scale",
    "test_scale",
    "example_scale",
]

#: Fill value used by CESM/POP2 for undefined points (e.g. sea-surface
#: temperature over land), see paper Section 3.1.
FILL_VALUE = 1.0e35

#: Magnitudes at or above this are treated as special/missing values
#: everywhere (metrics, codecs, sanitizer); the paper excludes such points
#: from every statistic.  Exactly one definition exists — the REP007 lint
#: rule rejects re-spelled copies.
SPECIAL_THRESHOLD = 1.0e34

#: Acceptance threshold for the Pearson correlation coefficient between
#: original and reconstructed data (paper Section 4.2, APAX profiler
#: recommendation).
RHO_THRESHOLD = 0.99999

#: Maximum allowed |RMSZ_orig - RMSZ_recon| (paper eq. 8).
RMSZ_DIFF_LIMIT = 0.1

#: Maximum allowed e_nmax / range(E_nmax distribution) (paper eq. 11).
ENMAX_RATIO_LIMIT = 0.1

#: Maximum allowed |s_ideal - s_worst_case| for the bias slope based on the
#: 95% confidence region (paper eq. 9).
BIAS_SLOPE_LIMIT = 0.05


# -- environment accessors ----------------------------------------------------
#
# Every REPRO_* read in the library goes through these functions, so
# config is the single module that touches ``os.environ``.  That makes
# the knob surface auditable in one place; lint rule REP015 flags any
# other ``os.environ``/``os.getenv`` read outside the trusted obs,
# check and testing packages.


def env_str(name: str, default: str = "") -> str:
    """The raw string value of the ``name`` knob (``default`` if unset)."""
    return os.environ.get(name, default)


def env_flag(name: str) -> bool:
    """Tri-state knob collapsed to a bool: unset/``""``/``"0"`` is off."""
    return os.environ.get(name, "") not in ("", "0")


def env_int_opt(name: str) -> int | None:
    """Optional integer knob; unset or blank means ``None``.

    Raises :class:`ValueError` naming the knob on a non-integer value,
    so a typo'd setting fails loudly instead of being silently dropped.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r} is not an integer") from exc


def env_float_opt(name: str) -> float | None:
    """Optional float knob; unset or blank means ``None``.

    Raises :class:`ValueError` naming the knob on a non-numeric value.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r} is not a number") from exc


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ReproConfig:
    """Immutable bundle of run-scale parameters.

    Parameters mirror the paper's experimental setup (Section 5.1): a
    spectral-element CAM grid at ``ne = 30`` (48,602 horizontal points),
    30 vertical levels, 101 ensemble members, and 170 CAM variables
    (83 two-dimensional + 87 three-dimensional).
    """

    ne: int = 30
    nlev: int = 30
    n_members: int = 101
    n_2d: int = 83
    n_3d: int = 87
    base_seed: int = 20140623  # HPDC'14 started June 23, 2014
    #: Read by no code: pool width is each call's ``workers`` argument.
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)

    def __post_init__(self) -> None:
        for name in ("ne", "nlev", "n_members", "n_2d", "n_3d", "workers"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_members < 3:
            raise ValueError("n_members must be at least 3 (PVT draws 3 members)")

    @property
    def n_variables(self) -> int:
        """Total variable count (paper: 170)."""
        return self.n_2d + self.n_3d

    @property
    def ncol(self) -> int:
        """Number of horizontal grid points for the cubed-sphere grid."""
        from repro.grid.cubed_sphere import ncol_for_ne

        return ncol_for_ne(self.ne)

    def with_scale(self, *, ne: int | None = None, nlev: int | None = None,
                   n_members: int | None = None) -> "ReproConfig":
        """Return a copy with the given scale parameters replaced."""
        kwargs = {}
        if ne is not None:
            kwargs["ne"] = ne
        if nlev is not None:
            kwargs["nlev"] = nlev
        if n_members is not None:
            kwargs["n_members"] = n_members
        return replace(self, **kwargs)


def paper_scale() -> ReproConfig:
    """The paper's full experimental scale (ne=30, 30 levels, 101 members)."""
    return ReproConfig()


def bench_scale() -> ReproConfig:
    """Default benchmark scale: honours env knobs.

    The defaults (ne=6, 8 levels, 101 members, all 170 variables) keep a
    full single-core benchmark run tractable; raise ``REPRO_NE`` /
    ``REPRO_NLEV`` toward the paper's 30/30 on bigger machines.
    """
    return ReproConfig(
        ne=_env_int("REPRO_NE", 6),
        nlev=_env_int("REPRO_NLEV", 8),
        n_members=_env_int("REPRO_MEMBERS", 101),
    )


def example_scale(*, ne: int, nlev: int, n_members: int, n_2d: int,
                  n_3d: int) -> ReproConfig:
    """A demo scale with env overrides: used by the ``examples/`` scripts.

    Each example passes its own readable defaults; the ``REPRO_NE`` /
    ``REPRO_NLEV`` / ``REPRO_MEMBERS`` / ``REPRO_2D`` / ``REPRO_3D``
    knobs shrink (or grow) them without editing the script — which is
    how the test suite runs every example on a tiny grid.
    """
    return ReproConfig(
        ne=_env_int("REPRO_NE", ne),
        nlev=_env_int("REPRO_NLEV", nlev),
        n_members=_env_int("REPRO_MEMBERS", n_members),
        n_2d=_env_int("REPRO_2D", n_2d),
        n_3d=_env_int("REPRO_3D", n_3d),
    )


def test_scale() -> ReproConfig:
    """Small scale used by the test suite (ne=3, 5 levels, 21 members)."""
    return ReproConfig(ne=3, nlev=5, n_members=21, n_2d=6, n_3d=6)


_config: ReproConfig | None = None


def get_config() -> ReproConfig:
    """Return the process-wide configuration (bench scale by default)."""
    global _config
    if _config is None:
        _config = bench_scale()
    return _config


def set_config(config: ReproConfig) -> None:
    """Install ``config`` as the process-wide configuration."""
    global _config
    if not isinstance(config, ReproConfig):
        raise TypeError(f"expected ReproConfig, got {type(config).__name__}")
    _config = config
