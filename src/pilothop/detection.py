"""Decisions and scores on top of the relaxed solver outputs, on plain arrays.

A threshold sweep is one broadcast comparison: ``roc_sweep`` gives the
(n_thr, K) bool detection masks (strict >) and the (n_thr,) miss and
false-alarm probabilities, NaN where the active or inactive set is
empty. Localization clusters the positions under one mask with K-means,
pairs the centroids to the true events optimally and returns the RMSD as
a float.

K-means batches its restarts. k-means++ (Arthur & Vassilvitskii, SODA
2007) seeds them in lockstep: every restart's draws are taken up front in
the order the stream has always given them, restart after restart, and
then all restarts pick their next centre at once on (restarts, points)
arrays. Lloyd then updates every restart at once on a (restarts, points,
clusters) distance array, dropping each restart from the batch on the
step it converges. Lloyd draws nothing, so the centroids are bit for bit
those of running the restarts one at a time (``tests/oracles.py`` keeps
that loop as the reference).
"""
from __future__ import annotations

import numpy as np

PLANE_CENTER = np.array([0.5, 0.5])


def threshold_detect(alpha_hat: np.ndarray, threshold) -> np.ndarray:
    """Bool detection masks by the strict rule: user k is detected iff
    alpha_hat[k] > threshold. A scalar threshold gives a (K,) mask, a 1-D
    array of thresholds one (K,) row per threshold."""
    threshold = np.asarray(threshold, dtype=float)
    if not np.all(np.isfinite(threshold)):
        raise ValueError("threshold must be finite")
    return np.asarray(alpha_hat) > threshold[..., None]


def confusion_metrics(detected: np.ndarray, truth: np.ndarray):
    """(p_m, p_fa) of bool masks against 0/1 truth, counted along the last
    axis: p_m is NaN when truth has no active user, p_fa when it has no
    inactive one."""
    detected = np.asarray(detected, dtype=bool)
    active = np.asarray(truth) == 1
    if detected.shape[-1:] != active.shape:
        raise ValueError(f"length mismatch: {detected.shape} vs {active.shape}")
    n_active = np.count_nonzero(active)
    n_missed = np.count_nonzero(active & ~detected, axis=-1)
    n_false = np.count_nonzero(~active & detected, axis=-1)
    with np.errstate(invalid="ignore"):  # 0/0: the rate of an empty set
        return n_missed / n_active, n_false / (active.size - n_active)


def roc_sweep(alpha_hat: np.ndarray, truth: np.ndarray, thresholds):
    """(masks, p_m, p_fa) at ascending thresholds: masks (n_thr, K), rates (n_thr,).

    The one threshold sweep: campaigns read the miss / false-alarm rates
    and localize each detection mask, ``detect`` writes the rates.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise ValueError("thresholds must be sorted ascending")
    masks = threshold_detect(alpha_hat, thresholds)
    return (masks, *confusion_metrics(masks, truth))


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

    Degenerate inputs follow the localization convention: with fewer
    distinct positions than clusters (none at all, say), those positions,
    in order of first appearance, are centroids, the surplus sits at the
    plane center, and nothing is drawn from ``rng``.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    points = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    # a complex view compares both coordinates at once
    _, first_seen = np.unique(points.view(complex).ravel(), return_index=True)
    if first_seen.size < n_clusters:
        surplus = np.tile(PLANE_CENTER, (n_clusters - first_seen.size, 1))
        return np.vstack([points[np.sort(first_seen)], surplus])
    coords = points.T.copy()
    px, py = coords

    # k-means++ in lockstep. With at least n_clusters distinct positions no
    # restart runs out of positive distances, so each draws integers(n) and
    # then one uniform per further centre; drawn up front in restart order,
    # they leave the stream where drawing them one restart at a time does.
    # Positions closer than about 1e-154 are the exception: their squared
    # distances underflow to 0, and a restart whose distances sum to 0
    # takes its first centre for every further centre, as the per-restart
    # loop does when it stops drawing.
    first = np.empty(n_restarts, dtype=np.int64)
    u = np.empty((n_restarts, n_clusters - 1))
    for r in range(n_restarts):
        first[r] = rng.integers(n)
        u[r] = rng.random(n_clusters - 1)
    centroids = np.empty((n_restarts, n_clusters, 2))
    centroids[:, 0] = points[first]
    d2 = (px - centroids[:, :1, 0]) ** 2 + (py - centroids[:, :1, 1]) ** 2
    for j in range(1, n_clusters):
        # per restart, one draw of Generator.choice(n, p=d2 / total) without
        # its checks; counting the cdf entries <= u is searchsorted(side="right")
        total = d2.sum(axis=1, keepdims=True)
        spent = total[:, 0] <= 0
        cdf = (d2 / np.where(spent[:, None], 1.0, total)).cumsum(axis=1)
        cdf[spent] = 1.0
        cdf /= cdf[:, -1:]
        c = centroids[:, j]
        c[:] = points[(cdf <= u[:, j - 1, None]).sum(axis=1)]
        c[spent] = centroids[spent, 0]
        np.minimum(d2, (px - c[:, :1]) ** 2 + (py - c[:, 1:]) ** 2, out=d2)

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


def match_events(true_events: np.ndarray, centroids: np.ndarray) -> float:
    """RMSD of the optimal bijective pairing of estimated to true events:
    the square root of min over permutations pi of
    (1/E) sum ||e_i - e_hat_{pi(i)}||^2.
    """
    true_events = np.asarray(true_events, dtype=float).reshape(-1, 2)
    centroids = np.asarray(centroids, dtype=float).reshape(-1, 2)
    n_events = true_events.shape[0]
    if centroids.shape[0] != n_events:
        raise ValueError(
            f"event count mismatch: {n_events} true vs {centroids.shape[0]} estimated"
        )
    if n_events == 0:
        return 0.0
    cost = np.sum((true_events[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    perm = _min_cost_assignment(cost)
    return float(np.sqrt(cost[np.arange(n_events), perm].sum() / n_events))


def localize_events(
    user_positions: np.ndarray,
    detected: np.ndarray,
    true_events: np.ndarray,
    rng: np.random.Generator,
    n_restarts: int = 10,
) -> float:
    """RMSD of the K-means centroids of the detected users' positions,
    paired to the true events; ``detected`` is a (K,) bool mask."""
    n_events = np.asarray(true_events).reshape(-1, 2).shape[0]
    if n_events == 0:
        return 0.0
    pts = user_positions[np.asarray(detected, dtype=bool)]
    centroids = kmeans_cluster(pts, n_events, rng, n_restarts=n_restarts)
    return match_events(true_events, centroids)
