from dataclasses import replace

import numpy as np
import pytest

import oracles
from pilothop import simulator, sysmodel


def small_system(seed=0, **kw):
    defaults = dict(K=16, grid_side=4, L=4, M=4, tau_p=3, T=4, sigma_e2=0.02, r=0.3)
    defaults.update(kw)
    cfg = sysmodel.SystemConfig(**defaults)
    rng = np.random.default_rng(seed)
    topo, fad, code, a = sysmodel.build_system(cfg, rng)
    return cfg, topo, fad, code, a


class TestEvents:
    def test_zero_events(self):
        cfg, *_ = small_system(E=0)
        ev = simulator.sample_events(cfg, np.random.default_rng(1))
        assert ev.shape == (0, 2)

    def test_three_events_in_unit_square(self):
        cfg, *_ = small_system(E=3)
        ev = simulator.sample_events(cfg, np.random.default_rng(1))
        assert ev.shape == (3, 2)
        assert np.all(ev >= 0) and np.all(ev <= 1)

    def test_mean_position_is_center(self):
        cfg, *_ = small_system(E=1)
        rng = np.random.default_rng(2)
        n = 100_000
        draws = np.vstack([simulator.sample_events(cfg, rng) for _ in range(n)])
        # mean of U(0,1) per coordinate, 3 sigma band
        se = np.sqrt(1.0 / 12.0 / n)
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 3 * se)


class TestActivationProbability:
    def test_user_on_event(self):
        assert simulator.activation_probability([0.3, 0.3], [0.3, 0.3], 0.001) == 1.0

    def test_analytic_point(self):
        # squared distance of 2*sigma_e2 gives exp(-1)
        s2 = 0.003
        d = np.sqrt(2 * s2)
        p = simulator.activation_probability([0.0, 0.0], [d, 0.0], s2)
        assert p == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_paper_scale_value(self):
        p = simulator.activation_probability([0.0, 0.0], [0.05, 0.0], 0.001)
        assert p == pytest.approx(0.2865047968601901, rel=1e-12)


class TestActivity:
    def test_no_events_no_activity(self):
        cfg, topo, *_ = small_system(E=0)
        act = simulator.sample_activity(topo, np.empty((0, 2)), cfg, np.random.default_rng(3))
        assert act.shape == (cfg.K,) and act.dtype == np.int64
        assert act.sum() == 0

    def test_event_on_user_always_fires(self):
        cfg, topo, *_ = small_system(E=1)
        ev = topo.user_positions[[5]]
        for seed in range(20):
            act = simulator.sample_activity(topo, ev, cfg, np.random.default_rng(seed))
            assert act[5] == 1

    def test_marginals_match_union_rule(self):
        cfg, topo, *_ = small_system(E=2)
        ev = np.array([[0.3, 0.4], [0.6, 0.7]])
        probs = simulator.activation_probability(
            topo.user_positions[:, None, :], ev[None, :, :], cfg.sigma_e2
        )
        target = 1.0 - np.prod(1.0 - probs, axis=1)
        rng = np.random.default_rng(4)
        n = 20_000
        freq = np.zeros(cfg.K)
        for _ in range(n):
            freq += simulator.sample_activity(topo, ev, cfg, rng)
        freq /= n
        se = np.sqrt(target * (1 - target) / n)
        check = se > 0
        assert np.all(np.abs(freq - target)[check] < 4 * se[check])


class TestChannels:
    def test_zero_beta_zero_channel(self):
        cfg, topo, fad, *_ = small_system()
        fad0 = sysmodel.FadingProfile(
            np.zeros_like(fad.beta_per_bs), np.zeros_like(fad.beta), 0.0, 1.0, fad.powers
        )
        g = simulator.sample_channels(fad0, cfg, np.random.default_rng(5), np.arange(cfg.K))
        assert g.shape == (cfg.T, cfg.ml, cfg.K) and np.all(g == 0)

    def test_energy_concentrates_at_beta(self):
        cfg, topo, fad, *_ = small_system()
        rng = np.random.default_rng(6)
        k = 3
        n = 4000
        vals = []
        for _ in range(n):
            g = simulator.sample_channels(fad, cfg, rng, np.array([k]))
            vals.append(np.sum(np.abs(g[0][:, 0]) ** 2) / cfg.ml)
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - fad.beta[k]) < 4 * se

    def test_hardening_variance_scales_inverse_ml(self):
        # ratio of var(||g||^2/ML) at ML and 4*ML should be ~4
        cfg_small, _, fad_small, *_ = small_system(M=8)
        cfg_big, _, fad_big, *_ = small_system(M=32)
        rng = np.random.default_rng(7)
        out = []
        for cfg, fad in [(cfg_small, fad_small), (cfg_big, fad_big)]:
            vals = []
            for _ in range(4000):
                g = simulator.sample_channels(fad, cfg, rng, np.array([0]))
                vals.append(np.sum(np.abs(g[0][:, 0]) ** 2) / cfg.ml)
            out.append(np.var(vals))
        ratio = out[0] / out[1]
        assert 3.0 < ratio < 5.0


class ZeroDraws:
    """Generator stand-in whose every Gaussian draw is 0: no fading, no noise."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestReceivedSignal:
    """The pilot-phase signal model, read through the energies y."""

    def test_silent_and_noiseless_is_zero(self):
        cfg, topo, fad, code, _ = small_system(sigma2=1.0)
        cfg0 = replace(cfg, sigma2=1e-300)
        silent = np.zeros(cfg.K, dtype=np.int64)
        y = simulator.monte_carlo_energy(code, silent, fad, cfg0, np.random.default_rng(8))
        assert y.shape == (cfg.tau_p * cfg.T,)
        assert np.max(np.abs(y)) < 1e-280

    def test_single_active_user_column(self):
        cfg, topo, fad, code, _ = small_system()
        cfg0 = replace(cfg, sigma2=1e-300)
        alpha = np.zeros(cfg.K, dtype=np.int64)
        alpha[7] = 1
        y = simulator.monte_carlo_energy(code, alpha, fad, cfg0, np.random.default_rng(10))
        # channels are drawn first, so the same seed gives the same channel
        g = simulator.sample_channels(fad, cfg0, np.random.default_rng(10), np.array([7]))
        expected = np.zeros((cfg.T, cfg.tau_p))
        for t in range(cfg.T):
            energy = cfg.tau_p * fad.powers[7] * np.sum(np.abs(g[t][:, 0]) ** 2) / cfg.ml
            expected[t, code[7, t] - 1] = energy
        assert np.allclose(y, expected.ravel(), rtol=1e-12, atol=1e-250)

    def test_column_energy_expectation(self):
        cfg, topo, fad, code, _ = small_system()
        rng = np.random.default_rng(12)
        alpha = np.zeros(cfg.K, dtype=np.int64)
        alpha[[1, 4, 9]] = 1
        t, j = 1, 1
        on_j = [k for k in (1, 4, 9) if code[k, t - 1] - 1 == j]
        expected = cfg.ml * (
            sum(cfg.tau_p * fad.powers[k] * fad.beta[k] for k in on_j) + cfg.sigma2
        )
        n = 3000
        vals = np.empty(n)
        for i in range(n):
            y = simulator.monte_carlo_energy(code, alpha, fad, cfg, rng)
            vals[i] = cfg.ml * (y[(t - 1) * cfg.tau_p + j] + cfg.sigma2)  # ||Y^t e_j||^2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) < 4 * se


class TestEnergyMeasurement:
    def test_pure_noise_subtraction(self):
        cfg, topo, fad, code, _ = small_system(sigma2=2.5)
        alpha = np.zeros(cfg.K, dtype=np.int64)
        alpha[[0, 5]] = 1
        y = simulator.monte_carlo_energy(code, alpha, fad, cfg, ZeroDraws())
        assert np.array_equal(y, np.full(cfg.tau_p * cfg.T, -2.5))

    @pytest.mark.parametrize("users", [[], [3], [0, 5, 11], list(range(16))],
                             ids=["silent", "one", "three", "all"])
    def test_matches_interval_loop(self, users):
        cfg, topo, fad, code, _ = small_system(sigma2=0.7)
        alpha = np.zeros(cfg.K, dtype=np.int64)
        alpha[users] = 1  # all 16 users share 3 pilots, so pilots collide
        y = simulator.monte_carlo_energy(code, alpha, fad, cfg, np.random.default_rng(21),
                                         noise_rng=np.random.default_rng(22))
        ref = oracles.monte_carlo_energy_loop(code, alpha, fad, cfg, np.random.default_rng(21),
                                              np.random.default_rng(22))
        assert np.array_equal(y, ref)

    def test_monte_carlo_mean_converges_to_linear_model(self):
        cfg, topo, fad, code, a = small_system(M=16)
        alpha = np.zeros(cfg.K, dtype=np.int64)
        alpha[[0, 5, 11]] = 1
        target = a @ alpha.astype(float)
        rng = np.random.default_rng(17)
        n = 4000
        ys = np.empty((n, cfg.tau_p * cfg.T))
        for i in range(n):
            ys[i] = simulator.monte_carlo_energy(code, alpha, fad, cfg, rng)
        se = ys.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(ys.mean(axis=0) - target) < 4 * se + 1e-12)

    def test_relative_error_decreases_with_antennas(self):
        base = dict(K=16, grid_side=4, L=4, tau_p=3, T=4, sigma_e2=0.02, r=0.3)
        alpha = np.zeros(16, dtype=np.int64)
        alpha[[2, 7, 12]] = 1
        errs = []
        for M in (8, 32, 128):
            cfg, topo, fad, code, a = small_system(M=M, **{k: v for k, v in base.items() if k != "M"})
            target = a @ alpha.astype(float)
            rng = np.random.default_rng(18)
            rel = [
                np.linalg.norm(simulator.monte_carlo_energy(code, alpha, fad, cfg, rng) - target)
                / np.linalg.norm(target)
                for _ in range(60)
            ]
            errs.append(np.mean(rel))
        assert errs[0] > errs[1] > errs[2]

