import itertools

import numpy as np
import pytest

from pilothop import detection


class TestThresholdDetect:
    def test_strict_inequality(self):
        res = detection.threshold_detect(np.array([0.0, 0.5, 0.5001, 1.0]), 0.5)
        assert np.array_equal(res.detected, [0, 0, 1, 1])

    def test_negative_threshold_detects_zeros(self):
        res = detection.threshold_detect(np.zeros(3), -1.0)
        assert np.array_equal(res.detected, [1, 1, 1])

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError):
            detection.threshold_detect(np.zeros(2), float("nan"))


class TestConfusionMetrics:
    def test_perfect_detection(self):
        cm = detection.confusion_metrics(np.array([1, 1, 0, 0]), np.array([1, 1, 0, 0]))
        assert cm.p_m == 0.0 and cm.p_fa == 0.0
        assert cm.n_active == 2 and cm.n_inactive == 2

    def test_half_missed_half_false(self):
        cm = detection.confusion_metrics(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
        assert cm.p_m == pytest.approx(0.5)
        assert cm.p_fa == pytest.approx(0.5)
        assert cm.n_missed == 1 and cm.n_false == 1

    def test_undefined_rates_are_nan(self):
        cm = detection.confusion_metrics(np.array([0, 0]), np.array([0, 0]))
        assert np.isnan(cm.p_m) and cm.p_fa == 0.0
        cm = detection.confusion_metrics(np.array([1, 1]), np.array([1, 1]))
        assert cm.p_m == 0.0 and np.isnan(cm.p_fa)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            detection.confusion_metrics(np.zeros(3), np.zeros(4))


class TestRocSweep:
    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        alpha_hat = rng.random(100)
        truth = (rng.random(100) < 0.3).astype(np.int64)
        sweep = detection.roc_sweep(alpha_hat, truth, np.linspace(0, 1.2, 30))
        p_m = [cm.p_m for _, cm in sweep]
        p_fa = [cm.p_fa for _, cm in sweep]
        assert all(a <= b + 1e-15 for a, b in zip(p_m, p_m[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(p_fa, p_fa[1:]))

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError):
            detection.roc_sweep(np.zeros(2), np.zeros(2, dtype=np.int64), [0.5, 0.1])


class TestKmeans:
    def test_no_points_all_centroids_at_center(self):
        c = detection.kmeans_cluster(np.empty((0, 2)), 3, np.random.default_rng(1))
        assert np.array_equal(c, np.tile([0.5, 0.5], (3, 1)))

    def test_fewer_points_than_clusters(self):
        pts = np.array([[0.1, 0.2]])
        c = detection.kmeans_cluster(pts, 3, np.random.default_rng(2))
        assert np.array_equal(c[0], pts[0])
        assert np.array_equal(c[1:], np.tile([0.5, 0.5], (2, 1)))

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.2, 0.2], [0.8, 0.3], [0.5, 0.9]])
        pts = np.vstack([c + 0.02 * rng.standard_normal((40, 2)) for c in centers])
        c = detection.kmeans_cluster(pts, 3, np.random.default_rng(4))
        # each true center has one centroid within the blob radius
        d = np.linalg.norm(centers[:, None, :] - c[None, :, :], axis=2)
        assert np.all(d.min(axis=1) < 0.02)
        assert len(set(d.argmin(axis=1))) == 3

    def test_deterministic_given_rng_state(self):
        rng_pts = np.random.default_rng(5)
        pts = rng_pts.random((50, 2))
        c1 = detection.kmeans_cluster(pts, 3, np.random.default_rng(6))
        c2 = detection.kmeans_cluster(pts, 3, np.random.default_rng(6))
        assert np.array_equal(c1, c2)

    def test_duplicate_points_collapse(self):
        pts = np.tile([0.3, 0.7], (10, 1))
        c = detection.kmeans_cluster(pts, 2, np.random.default_rng(7))
        assert np.allclose(c, [0.3, 0.7])


class TestMatchEvents:
    def test_crossed_pairing_resolved(self):
        true_ev = np.array([[0.0, 0.0], [1.0, 0.0]])
        est = np.array([[1.0, 0.1], [0.0, 0.1]])  # given in swapped order
        out = detection.match_events(true_ev, est)
        assert out.pairing == (1, 0)
        assert out.rmsd == pytest.approx(0.1)

    def test_exact_match_zero_rmsd(self):
        ev = np.random.default_rng(8).random((4, 2))
        out = detection.match_events(ev, ev[::-1])
        assert out.rmsd == pytest.approx(0.0, abs=1e-15)

    def test_matches_brute_force_cost(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            true_ev = rng.random((4, 2))
            est = rng.random((4, 2))
            out = detection.match_events(true_ev, est)
            best = min(
                np.sum(np.sum((true_ev - est[list(p)]) ** 2, axis=1))
                for p in itertools.permutations(range(4))
            )
            assert out.rmsd == pytest.approx(np.sqrt(best / 4))

    @pytest.mark.parametrize("n_events", range(1, 7))
    def test_pairing_is_a_brute_force_optimum(self, n_events):
        rng = np.random.default_rng(20 + n_events)
        for draw in range(30):
            true_ev = rng.random((n_events, 2))
            est = rng.random((n_events, 2))
            if draw % 3 == 0:
                # surplus centroids parked at the plane center tie exactly
                est[n_events // 2:] = detection.PLANE_CENTER
            out = detection.match_events(true_ev, est)
            cost = np.sum((true_ev[:, None, :] - est[None, :, :]) ** 2, axis=2)
            best = min(
                cost[np.arange(n_events), list(p)].sum()
                for p in itertools.permutations(range(n_events))
            )
            assert sorted(out.pairing) == list(range(n_events))
            paired = cost[np.arange(n_events), list(out.pairing)].sum()
            assert paired == pytest.approx(best, rel=1e-12, abs=1e-15)
            assert out.rmsd == pytest.approx(np.sqrt(best / n_events), rel=1e-12, abs=1e-15)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            detection.match_events(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_zero_events(self):
        out = detection.match_events(np.empty((0, 2)), np.empty((0, 2)))
        assert out.rmsd == 0.0


class TestLocalizeEvents:
    def test_no_detections_rmsd_to_center(self):
        user_pos = np.random.default_rng(10).random((20, 2))
        true_ev = np.array([[0.1, 0.1]])
        out = detection.localize_events(
            user_pos, np.zeros(20, dtype=np.int64), true_ev, np.random.default_rng(11)
        )
        assert np.array_equal(out.centroids, [[0.5, 0.5]])
        assert out.rmsd == pytest.approx(np.linalg.norm([0.4, 0.4]))

    def test_detections_on_events_give_small_rmsd(self):
        rng = np.random.default_rng(12)
        true_ev = np.array([[0.25, 0.25], [0.75, 0.75]])
        user_pos = np.vstack([
            true_ev[0] + 0.01 * rng.standard_normal((15, 2)),
            true_ev[1] + 0.01 * rng.standard_normal((15, 2)),
        ])
        detected = np.ones(30, dtype=np.int64)
        out = detection.localize_events(user_pos, detected, true_ev, np.random.default_rng(13))
        assert out.rmsd < 0.02
