"""Shared experiment context: config + ensemble + PVT, cached per scale.

Every table/figure driver takes an :class:`ExperimentContext`.  Building
the ensemble is the expensive step (the dycore run plus field synthesis),
so contexts are cached process-wide by their configuration; the benchmark
suite and the examples share one context per scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro import obs
from repro.config import ReproConfig, bench_scale, test_scale
from repro.model.ensemble import CAMEnsemble
from repro.model.variables import FEATURED
from repro.pvt.tool import CesmPvt

__all__ = ["ExperimentContext", "FEATURED_NAMES"]

#: The paper's four case-study variables, in its column order.
FEATURED_NAMES = ("U", "FSDSC", "Z3", "CCN3")


@dataclass
class ExperimentContext:
    """Everything an experiment needs: config, ensemble, PVT, members."""

    config: ReproConfig
    ensemble: CAMEnsemble
    pvt: CesmPvt

    @classmethod
    def create(cls, config: ReproConfig) -> "ExperimentContext":
        """Build (or fetch the cached) context for ``config``.

        Contexts are cached per process by everything the artifact
        store fingerprints: ``workers`` changes no result, so it is
        normalized away and "same context" here and "same artifacts"
        on disk agree by construction.
        """
        with obs.span("harness.context", ne=config.ne,
                      members=config.n_members) as sp:
            hits = _context_for.cache_info().hits
            ctx = _context_for(replace(config, workers=1))
            sp.note(cache_hit=_context_for.cache_info().hits > hits)
        return ctx

    @classmethod
    def bench(cls) -> "ExperimentContext":
        """The benchmark-scale context (env-tunable; ne=6, 8 levels)."""
        return cls.create(bench_scale())

    @classmethod
    def test(cls) -> "ExperimentContext":
        """The small test-scale context."""
        return cls.create(test_scale())

    @property
    def test_members(self):
        """The 3 randomly selected PVT members."""
        return self.pvt.test_members

    @property
    def featured(self) -> tuple[str, ...]:
        """Featured variables present in this catalog (all, at any scale
        with the default catalog prefix)."""
        have = {spec.name for spec in self.ensemble.catalog}
        return tuple(n for n in FEATURED_NAMES if n in have)

    def member_field(self, variable: str, which: int = 0):
        """Field of the ``which``-th selected test member."""
        return self.ensemble.member_field(
            variable, int(self.test_members[which])
        )

    def member_chunks(self, variable: str, which: int = 0,
                      chunk_mb: float | None = None):
        """A test member's field as a chunk stream.

        The streaming front ends (``repro stream --variable``, the
        throughput benchmark) use this to run the chunked pipeline over
        real ensemble fields at the context's scale instead of purely
        synthetic data.
        """
        from repro.stream.chunks import iter_array_chunks

        return iter_array_chunks(self.member_field(variable, which),
                                 chunk_mb=chunk_mb)


# Re-export for callers that want spec details of the featured variables.
FEATURED_SPECS = FEATURED


@lru_cache(maxsize=None)
def _context_for(config: ReproConfig) -> ExperimentContext:
    ensemble = CAMEnsemble(config)
    obs.counter("harness.members_built").add(config.n_members)
    return ExperimentContext(config=config, ensemble=ensemble,
                             pvt=CesmPvt(ensemble))
