from dataclasses import replace

import numpy as np
import pytest

from oracles import load_system
from pilothop import sysmodel
from pilothop.errors import ConfigurationError


def tiny_config(**kw):
    # one event: E may not exceed K
    defaults = dict(K=1, L=4, M=2, tau_p=2, T=2, grid_side=1, E=1)
    defaults.update(kw)
    return sysmodel.SystemConfig(**defaults)


@pytest.fixture(scope="module")
def paper_system():
    cfg = sysmodel.SystemConfig()
    rng = np.random.default_rng(12345)
    topo, fad, code, a = sysmodel.build_system(cfg, rng)
    return cfg, topo, fad, code, a


class TestConfig:
    def test_rejects_infeasible_code_space(self):
        with pytest.raises(ConfigurationError):
            sysmodel.SystemConfig(K=9, grid_side=3, tau_p=2, T=3)  # 2**3 = 8 < 9

    def test_warns_on_tall_matrix(self):
        with pytest.warns(UserWarning):
            tiny_config(K=4, grid_side=2, tau_p=3, T=3)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ConfigurationError):
            tiny_config(sigma2=0.0)
        with pytest.raises(ConfigurationError):
            tiny_config(r=-1.0)


class TestTopology:
    def test_single_user_is_centered(self):
        topo = sysmodel.build_topology(tiny_config())
        assert np.allclose(topo.user_positions, [[0.5, 0.5]])
        # symmetric to all four edge midpoints
        assert np.allclose(topo.distances, 0.5)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            sysmodel.build_topology(tiny_config(K=2, grid_side=1, tau_p=2, T=2))

    def test_row_major_cell_centers(self):
        topo = sysmodel.build_topology(tiny_config(K=4, grid_side=2))
        assert np.allclose(
            topo.user_positions,
            [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]],
        )

    def test_paper_grid_min_spacing(self, paper_system):
        _, topo, _, _, _ = paper_system
        pos = topo.user_positions
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() == pytest.approx(1.0 / 36.0, rel=1e-12)

    def test_interior_users_have_nine_neighbors(self, paper_system):
        cfg, topo, _, _, _ = paper_system
        sets = sysmodel.neighbor_sets(topo, cfg.r)
        sizes = np.array([len(s) for s in sets])
        interior = (
            (topo.user_positions[:, 0] > 1.5 / 36)
            & (topo.user_positions[:, 0] < 1 - 1.5 / 36)
            & (topo.user_positions[:, 1] > 1.5 / 36)
            & (topo.user_positions[:, 1] < 1 - 1.5 / 36)
        )
        assert np.all(sizes[interior] == 9)

    @pytest.mark.parametrize(
        "grid_side, r",
        [(36, 0.05), (18, 0.1), (36, 0.07)],
        ids=["default", "quick", "non-grid-radius"],
    )
    def test_neighbor_sets_match_brute_force(self, grid_side, r):
        topo = sysmodel.build_topology(
            sysmodel.SystemConfig(K=grid_side**2, grid_side=grid_side, tau_p=6, T=6)
        )
        pos = topo.user_positions
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
        expected = [np.flatnonzero(row < r * r) for row in d2]
        sets = sysmodel.neighbor_sets(topo, r)
        assert len(sets) == len(expected)
        for got, want in zip(sets, expected):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [0.0, -0.05, float("nan")])
    def test_neighbor_sets_reject_bad_radius(self, paper_system, r):
        _, topo, _, _, _ = paper_system
        with pytest.raises(ConfigurationError, match="r must be"):
            sysmodel.neighbor_sets(topo, r)


class TestGammaCalibration:
    def _one_user_topology(self, dist):
        cfg = tiny_config()
        topo = sysmodel.build_topology(cfg)
        # rescale so (1/L) sum d^-eta == 1
        return cfg, sysmodel.Topology(
            topo.user_positions, topo.bs_positions, np.full((1, 4), dist)
        )

    def test_identity_calibration(self):
        cfg, topo = self._one_user_topology(1.0)
        cfg0 = replace(cfg, snr_db=0.0)
        assert sysmodel.calibrate_gamma(cfg0, topo) == pytest.approx(1.0)

    def test_ten_db_is_times_ten(self):
        cfg, topo = self._one_user_topology(1.0)
        cfg10 = replace(cfg, snr_db=10.0)
        assert sysmodel.calibrate_gamma(cfg10, topo) == pytest.approx(10.0)

    def test_snr_round_trip_on_paper_grid(self, paper_system):
        cfg, _, fad, _, _ = paper_system
        snr_db = 10.0 * np.log10(cfg.p * fad.beta_min / cfg.sigma2)
        assert snr_db == pytest.approx(cfg.snr_db, abs=1e-9)


class TestFading:
    def test_equidistant_users_get_full_power(self):
        cfg = tiny_config(K=4, grid_side=2)
        topo = sysmodel.build_topology(cfg)
        # by symmetry the 2x2 grid users are all equivalent
        fad = sysmodel.build_fading(cfg, topo, gamma=2.0)
        assert np.allclose(fad.powers, cfg.p)

    def test_gamma_scale_invariance_of_inversion(self, paper_system):
        cfg, topo, fad, _, _ = paper_system
        fad2 = sysmodel.build_fading(cfg, topo, fad.gamma * 2.0)
        assert np.allclose(fad2.beta, 2.0 * fad.beta)
        assert np.allclose(fad2.powers * fad2.beta, cfg.p * fad2.beta_min, rtol=1e-12)

    def test_power_control_identity(self, paper_system):
        cfg, _, fad, _, _ = paper_system
        rel = np.abs(fad.powers * fad.beta - cfg.p * fad.beta_min) / (cfg.p * fad.beta_min)
        assert rel.max() < 1e-12
        assert np.all(fad.powers > 0) and np.all(fad.powers <= cfg.p * (1 + 1e-12))

    def test_beta_min_argmin_matches_brute_force(self, paper_system):
        cfg, topo, fad, _, _ = paper_system
        brute = np.array(
            [np.mean(topo.distances[k] ** (-cfg.eta)) for k in range(cfg.K)]
        )
        assert np.argmin(fad.beta) == np.argmin(brute)
        assert fad.beta_min == pytest.approx(fad.gamma * brute.min())


class TestPilotHopCode:
    def test_single_sequence_case(self):
        cfg = tiny_config(tau_p=1, T=3)
        code = sysmodel.generate_code(cfg, np.random.default_rng(0))
        assert np.array_equal(code.hops, [[1, 1, 1]])

    def test_paper_scale_rows_distinct(self, paper_system):
        cfg, _, _, code, _ = paper_system
        assert code.hops.shape == (1296, 10)
        assert code.hops.min() >= 1 and code.hops.max() <= 10
        assert len({row.tobytes() for row in code.hops}) == 1296

    def test_distinct_for_many_seeds(self):
        cfg = tiny_config(K=4, grid_side=2, tau_p=2, T=3)
        for seed in range(50):
            code = sysmodel.generate_code(cfg, np.random.default_rng(seed))
            assert len({row.tobytes() for row in code.hops}) == 4

    def test_per_slot_occupancy_uniform(self):
        # chi-square against uniform 1/tau_p per pilot over many draws
        cfg = sysmodel.SystemConfig(K=16, grid_side=4, tau_p=4, T=4)
        rng = np.random.default_rng(99)
        counts = np.zeros(cfg.tau_p)
        n_draws = 0
        for _ in range(200):
            code = sysmodel.generate_code(cfg, rng)
            counts += np.bincount(code.hops.ravel() - 1, minlength=cfg.tau_p)
            n_draws += code.hops.size
        expected = n_draws / cfg.tau_p
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # 3 dof, p=1e-4 cutoff ~ 21
        assert chi2 < 21.0


class TestMeasurementMatrix:
    def test_unit_scalar_case(self):
        cfg = tiny_config(K=1, tau_p=1, T=1)
        code = sysmodel.PilotHopCode(np.array([[1]]))
        fad = sysmodel.FadingProfile(
            np.full((1, 4), 1.0), np.array([1.0]), 1.0, 1.0, np.array([1.0])
        )
        a = sysmodel.build_measurement_matrix(code, fad, cfg)
        assert np.array_equal(a.a, [[1.0]])

    def test_two_user_layout(self):
        cfg = sysmodel.SystemConfig(K=2, grid_side=1, L=4, M=2, tau_p=2, T=2, E=1)
        code = sysmodel.PilotHopCode(np.array([[1, 2], [2, 2]]))
        c = 0.5
        fad = sysmodel.FadingProfile(
            np.full((2, 4), c / 2.0), np.full(2, c / 2.0), c / 2.0, 1.0, np.full(2, 1.0)
        )
        a = sysmodel.build_measurement_matrix(code, fad, cfg)
        expected = np.array([[c, 0.0], [0.0, c], [0.0, 0.0], [c, c]])
        assert np.allclose(a.a, expected)

    def test_paper_scale_structure(self, paper_system):
        cfg, _, fad, _, a = paper_system
        assert a.a.shape == (100, 1296)
        assert np.all((a.a != 0).sum(axis=0) == cfg.T)
        norms = np.linalg.norm(a.a, axis=0)
        target = np.sqrt(cfg.T) * cfg.tau_p * cfg.p * fad.beta_min
        assert np.allclose(norms, target, rtol=1e-12)
        # column-norm equality to machine precision
        assert np.ptp(norms) / norms.mean() < 1e-12


class TestSerialization:
    def test_system_round_trip(self, tmp_path):
        cfg = sysmodel.SystemConfig(K=9, grid_side=3, tau_p=3, T=3)
        rng = np.random.default_rng(5)
        topo, fad, code, a = sysmodel.build_system(cfg, rng)
        path = tmp_path / "system.json"
        sysmodel.save_system(path, cfg, topo, fad, code, a)
        cfg2, topo2, fad2, code2, a2 = load_system(path)
        assert cfg2 == cfg
        assert np.array_equal(topo2.user_positions, topo.user_positions)
        assert np.array_equal(topo2.distances, topo.distances)
        assert np.array_equal(fad2.powers, fad.powers)
        assert np.array_equal(code2.hops, code.hops)
        assert np.array_equal(a2.a, a.a)
