"""CAMEnsemble and CAMModel."""

import numpy as np
import pytest

from repro.metrics.characterize import valid_mask
from repro.model.cam import CAMModel


class TestEnsembleFields:
    def test_shapes(self, ensemble, config):
        u = ensemble.ensemble_field("U")
        assert u.shape == (config.n_members, config.nlev, config.ncol)
        fsdsc = ensemble.ensemble_field("FSDSC")
        assert fsdsc.shape == (config.n_members, config.ncol)

    def test_float32(self, ensemble):
        assert ensemble.ensemble_field("U").dtype == np.float32

    def test_cached(self, ensemble):
        assert ensemble.ensemble_field("U") is ensemble.ensemble_field("U")

    def test_member_field_view(self, ensemble):
        m = ensemble.member_field("U", 2)
        assert np.array_equal(m, ensemble.ensemble_field("U")[2])

    def test_cached_fields_are_read_only(self, ensemble):
        # PVT contexts reference the cached array instead of copying it,
        # so a write must not silently change their statistics.
        fields = ensemble.ensemble_field("U")
        with pytest.raises(ValueError, match="read-only"):
            fields[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ensemble.member_field("FSDSC", 1)[:] = 0.0

    def test_member_out_of_range(self, ensemble):
        with pytest.raises(IndexError):
            ensemble.member_field("U", 10_000)

    def test_unknown_variable(self, ensemble):
        with pytest.raises(KeyError, match="not in catalog"):
            ensemble.ensemble_field("NOPE")

    def test_featured_statistics_roughly_table2(self, ensemble):
        u = ensemble.ensemble_field("U").astype(np.float64)
        assert abs(u.mean() - 6.39) < 2.0
        assert 8 < u.std() < 18
        ccn3 = ensemble.ensemble_field("CCN3").astype(np.float64)
        vals = ccn3[valid_mask(ccn3)]
        assert vals.min() < 1e-2 and vals.max() > 50  # huge dynamic range

    def test_members_differ_but_share_climate(self, ensemble):
        u = ensemble.ensemble_field("U").astype(np.float64)
        assert np.abs(u[0] - u[1]).max() > 0.1  # diverged
        # Member means cluster tightly around the shared climatology.
        member_means = u.mean(axis=(1, 2))
        assert member_means.std() < 0.5


class TestSnapshots:
    def test_history_snapshot_complete(self, ensemble, config):
        snap = ensemble.history_snapshot(0)
        assert len(snap) == config.n_variables
        assert snap["U"].shape == (config.nlev, config.ncol)
        assert snap["FSDSC"].shape == (config.ncol,)

    def test_snapshot_matches_ensemble_field(self, ensemble):
        snap = ensemble.history_snapshot(1)
        assert np.array_equal(snap["U"], ensemble.member_field("U", 1))

    def test_snapshot_bad_member(self, ensemble):
        with pytest.raises(IndexError):
            ensemble.history_snapshot(-1)


class TestPickMembers:
    def test_three_distinct(self, ensemble):
        members = ensemble.pick_members(3)
        assert len(set(members.tolist())) == 3
        assert (members >= 0).all() and (members < ensemble.n_members).all()

    def test_deterministic_per_seed(self, ensemble):
        assert np.array_equal(
            ensemble.pick_members(3, seed=1), ensemble.pick_members(3, seed=1)
        )
        assert not np.array_equal(
            ensemble.pick_members(3, seed=1), ensemble.pick_members(3, seed=2)
        )

    def test_bad_k(self, ensemble):
        with pytest.raises(ValueError):
            ensemble.pick_members(0)
        with pytest.raises(ValueError):
            ensemble.pick_members(ensemble.n_members + 1)


class TestCAMModel:
    def test_from_config(self, config):
        model = CAMModel.from_config(config)
        assert model.grid.ncol == config.ncol
        assert model.levels.nlev == config.nlev
        assert len(model.catalog) == config.n_variables

    def test_spec_lookup(self, ensemble):
        spec = ensemble.model.spec("Z3")
        assert spec.kind == "height"
        with pytest.raises(KeyError):
            ensemble.model.spec("MISSING")

    def test_variable_names(self, ensemble, config):
        names = ensemble.model.variable_names
        assert len(names) == config.n_variables
        assert "U" in names
