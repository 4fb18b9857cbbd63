"""Numerical properties of the RK4 integrator."""

import numpy as np
import pytest

from repro.model import dycore
from repro.model.dycore import Lorenz96


class TestRK4Convergence:
    def test_fourth_order_in_dt(self):
        # Halving dt should shrink the one-unit integration error by
        # ~2^4; allow a generous band around the theoretical order.
        model = Lorenz96(n_modes=8, base_seed=2)
        x0 = model.base_state()

        def solve(dt):
            x = x0.copy()
            for _ in range(int(round(1.0 / dt))):
                x = model.step(x, dt)
            return x

        reference = solve(0.0005)
        err_coarse = np.abs(solve(0.02) - reference).max()
        err_fine = np.abs(solve(0.01) - reference).max()
        order = np.log2(err_coarse / err_fine)
        assert 3.0 < order < 5.0

    def test_zero_dt_is_identity(self):
        model = Lorenz96(n_modes=8)
        x = model.base_state()
        assert np.array_equal(model.step(x, 0.0), x)

    def test_equilibrium_is_stationary(self):
        # x_j = F for all j is an (unstable) fixed point of Lorenz-96.
        model = Lorenz96(n_modes=8, forcing=8.0)
        x = np.full(8, 8.0)
        out = model.step(x, 0.01)
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestReferenceMomentsCache:
    def test_shared_across_instances(self):
        a = Lorenz96(n_modes=10, base_seed=9)
        b = Lorenz96(n_modes=10, base_seed=9)
        ma, sa = a._reference_moments()
        mb, sb = b._reference_moments()
        assert ma is mb and sa is sb  # process-wide cache

    def test_distinct_for_different_seeds(self):
        a = Lorenz96(n_modes=10, base_seed=1)
        b = Lorenz96(n_modes=10, base_seed=2)
        ma, _ = a._reference_moments()
        mb, _ = b._reference_moments()
        assert not np.array_equal(ma, mb)

    def test_moments_standardize_to_unit_scale(self):
        model = Lorenz96(n_modes=10, base_seed=3)
        run = model.run_ensemble(6)
        # Standardized coefficients: spread of order one across members.
        assert 0.05 < run.coefficients.std() < 5.0


# -- parity with the np.roll formulation ----------------------------------
#
# The integrator reads cyclic neighbours through gathers; these oracles
# are the original np.roll formulation, and every comparison is on raw
# bytes so that signed zeros and the last ulp count.

def _oracle_rhs(x, forcing):
    return (np.roll(x, -1, axis=-1) - np.roll(x, 2, axis=-1)) * np.roll(
        x, 1, axis=-1
    ) - x + forcing


def _oracle_step(self, x, dt=dycore._DT):
    k1 = _oracle_rhs(x, self.forcing)
    k2 = _oracle_rhs(x + 0.5 * dt * k1, self.forcing)
    k3 = _oracle_rhs(x + 0.5 * dt * k2, self.forcing)
    k4 = _oracle_rhs(x + dt * k3, self.forcing)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _oracle_windowed_stats(self, x, dt=dycore._DT):
    x = self.integrate(x, dycore._YEAR_STEPS - dycore._WINDOW_STEPS, dt)
    n = dycore._WINDOW_STEPS
    s1 = np.zeros_like(x)
    s2 = np.zeros_like(x)
    s_cov = np.zeros_like(x)
    for _ in range(n):
        x = self.step(x, dt)
        s1 += x
        s2 += x * x
        s_cov += x * np.roll(x, -1, axis=-1)
    mean = s1 / n
    var = s2 / n - mean**2
    cov = s_cov / n - mean * np.roll(mean, -1, axis=-1)
    return np.concatenate([mean, var, cov], axis=-1), x


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


class TestRollParity:
    @pytest.mark.parametrize("n_modes", [4, 5, 8, 40])
    @pytest.mark.parametrize("dt", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_step(self, n_modes, dt, lead):
        model = Lorenz96(n_modes=n_modes, base_seed=1)
        rng = np.random.default_rng((n_modes, len(lead)))
        x = 8.0 + 3.0 * rng.standard_normal(lead + (n_modes,))
        x.flat[0] = -0.0  # a signed zero must survive as-is
        assert _same_bytes(model.step(x, dt), _oracle_step(model, x, dt))

    def test_windowed_stats(self):
        model = Lorenz96(n_modes=8, base_seed=4)
        x = 8.0 + np.random.default_rng(4).standard_normal((3, 8))
        stats, final = model._windowed_stats(x)
        want_stats, want_final = _oracle_windowed_stats(model, x)
        assert _same_bytes(stats, want_stats)
        assert _same_bytes(final, want_final)

    def test_run_ensemble(self, monkeypatch):
        got = Lorenz96(base_seed=3).run_ensemble(4)
        # Re-run through the oracle with both process-wide memos
        # bypassed, so nothing computed by the new code is reused.
        monkeypatch.setattr(Lorenz96, "step", _oracle_step)
        monkeypatch.setattr(Lorenz96, "_windowed_stats",
                            _oracle_windowed_stats)
        monkeypatch.setattr(dycore, "_spun_up_cached",
                            dycore._spun_up_cached.__wrapped__)
        monkeypatch.setattr(dycore, "_reference_moments_cached",
                            dycore._reference_moments_cached.__wrapped__)
        want = Lorenz96(base_seed=3).run_ensemble(4)
        assert _same_bytes(got.coefficients, want.coefficients)
        assert _same_bytes(got.final_states, want.final_states)


class TestSpinUpMemo:
    def test_one_spin_up_per_key(self, monkeypatch):
        spins = []
        integrate = Lorenz96.integrate

        def counting(self, x, n_steps, dt=dycore._DT):
            if n_steps == dycore._SPINUP_STEPS:
                spins.append((self.n_modes, self.base_seed))
            return integrate(self, x, n_steps, dt)

        monkeypatch.setattr(Lorenz96, "integrate", counting)
        # A key no other test uses, so the memo starts cold: the
        # ensemble's perturbed states and its control run share one
        # spin-up, and a second instance reuses it.
        Lorenz96(n_modes=6, base_seed=9151).run_ensemble(2)
        Lorenz96(n_modes=6, base_seed=9151).base_state()
        assert spins == [(6, 9151)]
        Lorenz96(n_modes=6, base_seed=9152).base_state()
        assert spins == [(6, 9151), (6, 9152)]

    def test_caller_write_cannot_reach_memo(self):
        model = Lorenz96(n_modes=8, base_seed=5)
        first = model.base_state()
        kept = first.copy()
        first[:] = 0.0
        assert _same_bytes(model.base_state(), kept)
        assert _same_bytes(Lorenz96(n_modes=8, base_seed=5).base_state(),
                           kept)
