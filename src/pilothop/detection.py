"""Decisions and scores on top of the relaxed solver outputs.

Thresholding (strict >), miss/false-alarm probabilities, ROC sweeps,
K-means event localization with optimal event pairing, and RMSD.

K-means batches its restarts: all of them are seeded by k-means++ first,
one after the other in the order the stream has always drawn them, and
Lloyd then updates every restart at once on a (restarts, points,
clusters) distance array, dropping each restart from the batch on the
step it converges. Lloyd draws nothing, so the centroids are bit for bit
those of running the restarts one at a time (``tests/oracles.py`` keeps
that loop as the reference).
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


def kmeans_cluster(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    n_restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-9,
) -> np.ndarray:
    """K-means centroids with k-means++ init and restarts (best WCSS kept).

    The restarts run as one batch (see the module docstring); a restart
    stops on the Lloyd step whose centroids move less than ``tol``.

    Degenerate inputs follow the localization convention: with no points
    every centroid sits at the plane center, and with fewer points than
    clusters the points themselves are centroids and the surplus sits at
    the center.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return np.tile(PLANE_CENTER, (n_clusters, 1))
    if n < n_clusters:
        return np.vstack([points, np.tile(PLANE_CENTER, (n_clusters - n, 1))])
    coords = points.T.copy()
    px, py = coords

    centroids = np.empty((n_restarts, n_clusters, 2))
    for c in centroids:
        c[0] = points[rng.integers(n)]
        d2 = (px - c[0, 0]) ** 2 + (py - c[0, 1]) ** 2
        for j in range(1, n_clusters):
            total = d2.sum()
            if total <= 0:
                c[j:] = c[0]
                break
            # one draw of Generator.choice(n, p=d2 / total), without its checks
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            c[j] = points[cdf.searchsorted(rng.random(), side="right")]
            d2 = np.minimum(d2, (px - c[j, 0]) ** 2 + (py - c[j, 1]) ** 2)

    def sq_dists(c):  # (restarts, n, n_clusters)
        return ((px[:, None] - c[:, None, :, 0]) ** 2
                + (py[:, None] - c[:, None, :, 1]) ** 2)

    # bincount weights: each coordinate repeated once per restart
    tiled = np.tile(coords, n_restarts)
    offsets = n_clusters * np.arange(n_restarts)[:, None]
    active = np.arange(n_restarts)
    for _ in range(max_iter):
        if not active.size:
            break
        c = centroids[active]
        d2 = sq_dists(c)
        n_bins = active.size * n_clusters
        # per-cluster means; bincount adds in point order, as a mean over the cluster does
        bins = (d2.argmin(axis=2) + offsets[:active.size]).ravel()
        counts = np.bincount(bins, minlength=n_bins).reshape(-1, n_clusters, 1)
        sums = [np.bincount(bins, w[:bins.size], n_bins) for w in tiled]
        new = np.stack(sums, axis=-1).reshape(c.shape) / np.maximum(counts, 1)
        empty = counts[..., 0] == 0
        if empty.any():
            # deterministic: re-seed an empty cluster at its restart's worst-fit point
            worst = points[d2.min(axis=2).argmax(axis=1)]
            new[empty] = np.broadcast_to(worst[:, None], new.shape)[empty]
        shift = np.linalg.norm(new - c, axis=2).max(axis=1)
        centroids[active] = new
        active = active[shift >= tol]
    wcss = sq_dists(centroids).min(axis=2).sum(axis=1)
    return centroids[np.argmin(wcss)]


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
