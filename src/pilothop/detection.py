"""Decisions and scores on top of the relaxed solver outputs.

Thresholding (strict >), miss/false-alarm probabilities, ROC sweeps,
K-means event localization with optimal event pairing, and RMSD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PLANE_CENTER = np.array([0.5, 0.5])


@dataclass(frozen=True)
class ConfusionMetrics:
    p_m: float    # NaN when no active users
    p_fa: float   # NaN when no inactive users
    n_active: int
    n_inactive: int
    n_missed: int
    n_false: int


@dataclass(frozen=True)
class EventEstimate:
    centroids: np.ndarray  # (E, 2)
    pairing: tuple         # pairing[i] = centroid index matched to true event i
    rmsd: float


def threshold_detect(alpha_hat: np.ndarray, threshold: float) -> np.ndarray:
    """(K,) 0/1 mask by the strict rule: user k detected iff alpha_hat[k] > threshold."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    return (np.asarray(alpha_hat) > threshold).astype(np.int64)


def confusion_metrics(detected: np.ndarray, truth: np.ndarray) -> ConfusionMetrics:
    detected = np.asarray(detected)
    truth = np.asarray(truth)
    if detected.shape != truth.shape:
        raise ValueError(f"length mismatch: {detected.shape} vs {truth.shape}")
    active = truth == 1
    n_active = int(active.sum())
    n_inactive = int(truth.size - n_active)
    n_missed = int(np.sum(active & (detected == 0)))
    n_false = int(np.sum(~active & (detected == 1)))
    p_m = n_missed / n_active if n_active else float("nan")
    p_fa = n_false / n_inactive if n_inactive else float("nan")
    return ConfusionMetrics(p_m, p_fa, n_active, n_inactive, n_missed, n_false)


def roc_sweep(alpha_hat: np.ndarray, truth: np.ndarray, thresholds) -> list:
    """One (detection mask, ConfusionMetrics) pair per threshold, ascending.

    The one threshold sweep: campaigns read the miss / false-alarm rates
    and localize each detection mask, ``detect`` writes the rates.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise ValueError("thresholds must be sorted ascending")
    sweep = []
    for thr in thresholds:
        mask = threshold_detect(alpha_hat, thr)
        sweep.append((mask, confusion_metrics(mask, truth)))
    return sweep


def _kmeans_pp_init(points, n_clusters, rng):
    n = points.shape[0]
    centroids = np.empty((n_clusters, 2))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centroids[j:] = centroids[0]
            break
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _kmeans_once(points, n_clusters, rng, max_iter, tol):
    centroids = _kmeans_pp_init(points, n_clusters, rng)
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        for j in range(n_clusters):
            mask = labels == j
            if np.any(mask):
                new_centroids[j] = points[mask].mean(axis=0)
            else:
                # deterministic: re-seed an empty cluster at the worst-fit point
                new_centroids[j] = points[np.argmax(np.min(d2, axis=1))]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    wcss = float(np.min(d2, axis=1).sum())
    return centroids, wcss


def kmeans_cluster(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    n_restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-9,
) -> np.ndarray:
    """K-means centroids with k-means++ init and restarts (best WCSS kept).

    Degenerate inputs follow the localization convention: with no points
    every centroid sits at the plane center, and with fewer points than
    clusters the points themselves are centroids and the surplus sits at
    the center.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return np.tile(PLANE_CENTER, (n_clusters, 1))
    if n < n_clusters:
        return np.vstack([points, np.tile(PLANE_CENTER, (n_clusters - n, 1))])
    best = None
    best_wcss = np.inf
    for _ in range(n_restarts):
        centroids, wcss = _kmeans_once(points, n_clusters, rng, max_iter, tol)
        if wcss < best_wcss:
            best, best_wcss = centroids, wcss
    return best


def _min_cost_assignment(cost: np.ndarray) -> list:
    """Column assigned to each row of a square cost matrix, least total cost.

    Hungarian method with row/column potentials and shortest augmenting
    paths (Kuhn-Munkres), O(E^3). Kept local rather than importing
    ``scipy.optimize``, which adds ~19 MB of resident memory to a run; plain
    Python lists beat numpy at the handful of events a trial has.
    Rows and columns are 1-based; column 0 is a virtual start column.
    """
    n = cost.shape[0]
    a = cost.tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    row_of = [0] * (n + 1)  # row matched to column j, 0 if none
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row = a[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        perm[row_of[j] - 1] = j - 1
    return perm


def match_events(true_events: np.ndarray, centroids: np.ndarray) -> EventEstimate:
    """Optimal bijective pairing of estimated to true events.

    Minimizes (1/E) sum ||e_i - e_hat_{pi(i)}||^2 over permutations pi.
    """
    true_events = np.asarray(true_events, dtype=float).reshape(-1, 2)
    centroids = np.asarray(centroids, dtype=float).reshape(-1, 2)
    n_events = true_events.shape[0]
    if centroids.shape[0] != n_events:
        raise ValueError(
            f"event count mismatch: {n_events} true vs {centroids.shape[0]} estimated"
        )
    if n_events == 0:
        return EventEstimate(centroids, (), 0.0)
    cost = np.sum((true_events[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    perm = _min_cost_assignment(cost)
    best_cost = cost[np.arange(n_events), perm].sum()
    return EventEstimate(
        centroids, tuple(perm), float(np.sqrt(best_cost / n_events))
    )


def localize_events(
    user_positions: np.ndarray,
    detected: np.ndarray,
    true_events: np.ndarray,
    rng: np.random.Generator,
    n_restarts: int = 10,
) -> EventEstimate:
    """Cluster detected users' positions and pair centroids to true events."""
    n_events = np.asarray(true_events).reshape(-1, 2).shape[0]
    if n_events == 0:
        return EventEstimate(np.empty((0, 2)), (), 0.0)
    pts = user_positions[np.asarray(detected) == 1]
    centroids = kmeans_cluster(pts, n_events, rng, n_restarts=n_restarts)
    return match_events(true_events, centroids)
