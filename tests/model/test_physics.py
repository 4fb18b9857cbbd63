"""Field synthesis."""

import tracemalloc

import numpy as np
import pytest

from repro.config import FILL_VALUE, ReproConfig
from repro.grid.cubed_sphere import CubedSphereGrid
from repro.grid.levels import HybridLevels
from repro.model.cam import CAMModel
from repro.model.physics import FieldSynthesizer, _name_seed
from repro.model.variables import VariableSpec


@pytest.fixture(scope="module")
def synth():
    return FieldSynthesizer(
        grid=CubedSphereGrid.create(2),
        levels=HybridLevels.create(4),
        n_coefficients=48,
        base_seed=11,
    )


def spec_2d(**kw):
    defaults = dict(name="TEST2D", long_name="t", units="1", dims="2D",
                    loc=10.0, scale=2.0)
    defaults.update(kw)
    return VariableSpec(**defaults)


def coeffs(rng, n_members=3, n=48):
    return rng.standard_normal((n_members, n))


class TestShapes:
    def test_2d_shape(self, synth, rng):
        out = synth.synthesize(spec_2d(), coeffs(rng), [0, 1, 2])
        assert out.shape == (3, synth.grid.ncol)
        assert out.dtype == np.float32

    def test_3d_shape(self, synth, rng):
        spec = spec_2d(name="TEST3D", dims="3D")
        out = synth.synthesize(spec, coeffs(rng), [0, 1, 2])
        assert out.shape == (3, 4, synth.grid.ncol)

    def test_mismatched_members_rejected(self, synth, rng):
        with pytest.raises(ValueError, match="member ids"):
            synth.synthesize(spec_2d(), coeffs(rng, 3), [0, 1])

    def test_wrong_coefficient_count_rejected(self, synth, rng):
        with pytest.raises(ValueError, match="coefficients"):
            synth.synthesize(spec_2d(), coeffs(rng, 2, 10), [0, 1])


class TestStatisticalTargets:
    def test_linear_location_scale(self, synth, rng):
        spec = spec_2d(loc=100.0, scale=5.0, variability=0.05, noise=0.01)
        out = synth.synthesize(spec, coeffs(rng, 8), range(8)).astype(
            np.float64
        )
        assert abs(out.mean() - 100.0) < 5.0
        assert 2.0 < out.std() < 10.0

    def test_lognormal_positive(self, synth, rng):
        spec = spec_2d(name="LOG", kind="lognormal", loc=0.0, scale=1.5)
        out = synth.synthesize(spec, coeffs(rng, 4), range(4))
        assert (out > 0).all()

    def test_height_kind_tracks_profile(self, synth, rng):
        spec = spec_2d(name="ZZ", dims="3D", kind="height", scale=5.0,
                       variability=0.01, noise=0.01)
        out = synth.synthesize(spec, coeffs(rng, 2), [0, 1])
        profile = synth.levels.height_profile()
        level_means = out.mean(axis=(0, 2))
        np.testing.assert_allclose(level_means, profile, atol=30.0)

    def test_height_requires_3d(self, synth, rng):
        spec = spec_2d(name="ZBAD", kind="height")
        with pytest.raises(ValueError, match="3D"):
            synth.synthesize(spec, coeffs(rng, 1), [0])

    def test_vert_decay_reduces_upper_levels(self, synth, rng):
        spec = spec_2d(name="TRC", dims="3D", kind="lognormal", loc=0.0,
                       scale=1.0, vert_decay=8.0)
        out = synth.synthesize(spec, coeffs(rng, 2), [0, 1]).astype(
            np.float64
        )
        top = np.median(out[:, 0, :])
        surface = np.median(out[:, -1, :])
        assert top < surface / 100.0


class TestDeterminismAndVariability:
    def test_same_member_same_field(self, synth, rng):
        c = coeffs(rng, 1)
        a = synth.synthesize(spec_2d(), c, [5])
        b = synth.synthesize(spec_2d(), c, [5])
        assert np.array_equal(a, b)

    def test_noise_differs_across_members(self, synth, rng):
        c = coeffs(rng, 1)
        a = synth.synthesize(spec_2d(), c, [0])
        b = synth.synthesize(spec_2d(), c, [1])
        # Same coefficients, different member id -> noise differs.
        assert not np.array_equal(a, b)

    def test_different_variables_decorrelated(self, synth, rng):
        c = coeffs(rng, 1)
        a = synth.synthesize(spec_2d(name="VARA"), c, [0]).ravel()
        b = synth.synthesize(spec_2d(name="VARB"), c, [0]).ravel()
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.9

    def test_every_point_has_ensemble_spread(self, synth, rng):
        spec = spec_2d(noise=0.01)
        out = synth.synthesize(spec, coeffs(rng, 6), range(6))
        assert (out.std(axis=0) > 0).all()


class TestFillMasks:
    def test_land_mask_fraction(self, synth, rng):
        spec = spec_2d(name="SSTX", fill_mask="land")
        out = synth.synthesize(spec, coeffs(rng, 2), [0, 1])
        frac = (out[0] == np.float32(FILL_VALUE)).mean()
        assert 0.1 < frac < 0.5

    def test_mask_identical_across_members(self, synth, rng):
        spec = spec_2d(name="SSTY", fill_mask="ocean")
        out = synth.synthesize(spec, coeffs(rng, 3), range(3))
        masks = out == np.float32(FILL_VALUE)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], masks[2])

    def test_3d_mask_is_columnar(self, synth, rng):
        spec = spec_2d(name="SSTZ", dims="3D", fill_mask="land")
        out = synth.synthesize(spec, coeffs(rng, 1), [0])
        mask = out[0] == np.float32(FILL_VALUE)
        # Same horizontal mask at every level.
        assert np.array_equal(mask[0], mask[-1])


# -- parity with the direct evaluation ---------------------------------------
#
# The oracle below is the synthesis as first written: the anomaly as one
# unoptimized einsum and every noise mode evaluated with per-point ``cos``.
# The production code forms the same sums with matrix products and
# trig-table angle addition; its float32 output must match bit for bit.


def _oracle_member_noise(synth, spec, rng):
    n_modes = 16
    nyquist = 2 * synth.grid.ne * (synth.grid.np_ - 1)
    l_cap = min(32, max(3, nyquist // 3))
    l_lon = rng.integers(1, l_cap + 1, n_modes)
    m_lat = rng.integers(1, max(l_cap // 2, 2), n_modes)
    ph_lon = rng.uniform(0, 2 * np.pi, n_modes)
    ph_lat = rng.uniform(0, 2 * np.pi, n_modes)
    w = rng.standard_normal(n_modes)
    horiz = np.cos(
        l_lon[:, None] * synth._lonr[None, :] + ph_lon[:, None]
    ) * np.cos(m_lat[:, None] * synth._latr[None, :] + ph_lat[:, None])
    if spec.is_3d:
        v_num = rng.integers(0, 4, n_modes)
        ph_v = rng.uniform(0, 2 * np.pi, n_modes)
        vert = np.cos(
            np.pi * v_num[:, None] * synth._z_norm[None, :] + ph_v[:, None]
        )
        field = np.einsum("k,kz,kx->zx", w, vert, horiz)
    else:
        field = w @ horiz
    std = float(field.std())
    if std == 0.0:
        return rng.standard_normal(field.shape)
    return field / std


def _oracle_apply_kind(synth, spec, raw):
    if spec.kind == "linear":
        return spec.loc + spec.scale * raw
    if spec.kind == "lognormal":
        exponent = spec.loc + spec.scale * raw
        if spec.vert_decay and spec.is_3d:
            exponent = exponent - spec.vert_decay * (
                1.0 - synth._z_norm[None, :, None]
            )
        return np.exp(exponent)
    return synth._height[None, :, None] + spec.scale * raw


def _oracle_synthesize(synth, spec, coefficients, member_ids):
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    modes = synth._modes(spec)
    g = coefficients[:, modes["sigma"]] * modes["w"][None, :]
    if spec.is_3d:
        anomaly = np.einsum("mk,kz,kx->mzx", g, modes["anom_v"],
                            modes["anom_h"])
    else:
        anomaly = g @ modes["anom_h"]
    raw = modes["clim"][None, ...] + spec.variability * anomaly
    for i, member in enumerate(member_ids):
        rng = np.random.default_rng(
            (synth.base_seed, 0x4E5A, _name_seed(spec.name), int(member))
        )
        raw[i] += spec.noise * _oracle_member_noise(synth, spec, rng)
    field = _oracle_apply_kind(synth, spec, raw)
    if modes["mask"] is not None:
        field[..., modes["mask"]] = FILL_VALUE
    return field.astype(np.float32)


@pytest.fixture(scope="module", params=[20140623, 7])
def full_model(request):
    """The full 170-variable catalog on the test-scale grid."""
    return CAMModel.from_config(
        ReproConfig(ne=3, nlev=5, n_members=21, base_seed=request.param)
    )


def _coefficients(model, n_members):
    rng = np.random.default_rng((model.config.base_seed, n_members))
    return rng.standard_normal((n_members, model.synthesizer.n_coefficients))


class TestOracleParity:
    def test_catalog_covers_every_branch(self, full_model):
        kinds = {(s.is_3d, s.kind) for s in full_model.catalog}
        assert {(False, "linear"), (False, "lognormal"), (True, "linear"),
                (True, "lognormal"), (True, "height")} <= kinds
        masks = {s.fill_mask for s in full_model.catalog}
        assert {"land", "ocean"} <= masks

    @pytest.mark.parametrize(
        "member_ids", [list(range(6)), [17, 2, 9], list(range(13))],
        ids=["contiguous", "subset", "two-blocks"])
    def test_every_variable_bit_identical(self, full_model, member_ids):
        synth = full_model.synthesizer
        c = _coefficients(full_model, len(member_ids))
        for spec in full_model.catalog:
            got = synth.synthesize(spec, c, member_ids)
            want = _oracle_synthesize(synth, spec, c, member_ids)
            assert got.tobytes() == want.tobytes(), spec.name

    def test_history_snapshot_bit_identical(self, full_model):
        synth = full_model.synthesizer
        row = _coefficients(full_model, 1)[0]
        snapshot = full_model.history_snapshot(row, 13)
        assert list(snapshot) == list(full_model.variable_names)
        for spec in full_model.catalog:
            want = _oracle_synthesize(synth, spec, row, [13])[0]
            assert snapshot[spec.name].tobytes() == want.tobytes(), spec.name


class TestMemory:
    def test_3d_peak_is_output_plus_one_block(self):
        """A 3-D call holds its float32 output and one member block's
        float64 temporaries, never a float64 copy of every member."""
        model = CAMModel.from_config(
            ReproConfig(ne=3, nlev=20, n_members=23)
        )
        synth = model.synthesizer
        c = _coefficients(model, 23)
        ids = np.arange(23)
        for kind in ("linear", "lognormal", "height"):
            spec = next(s for s in model.catalog
                        if s.is_3d and s.kind == kind)
            synth.synthesize(spec, c[:2], ids[:2])  # build the mode caches
            tracemalloc.start()
            try:
                out = synth.synthesize(spec, c, ids)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 23 members split 8 + 8 + 7: one 8-member float64 field,
            # plus member-noise workspace smaller than a second one.
            block = 8 * out[0].size * 8
            assert peak < out.nbytes + 2 * block, kind
