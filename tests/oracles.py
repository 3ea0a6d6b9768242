"""Reference values and solvers for the tests, independent of the production paths."""
import json

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from pilothop import detection, simulator, solvers, sysmodel
from pilothop.errors import ConfigurationError


def pack(groups):
    """(indptr, members) of a list of int groups: the packing that
    sysmodel.neighbor_sets returns and solvers.RegularizerSpec holds."""
    indptr = np.zeros(len(groups) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(g) for g in groups])
    members = np.array([i for g in groups for i in g], dtype=np.int64)
    return indptr, members


def unpack(reg: solvers.RegularizerSpec) -> list[np.ndarray]:
    """reg's groups as a list of member arrays, for references that loop
    over the groups one at a time."""
    return np.split(reg.members, reg.indptr[1:-1])


def chain_neighbors(n):
    """Each coordinate grouped with its lattice neighbors, self included."""
    return pack([sorted({j, max(j - 1, 0), min(j + 1, n - 1)}) for j in range(n)])


def contiguous_groups(n, size):
    return pack([range(i, min(i + size, n)) for i in range(0, n, size)])


def regularizer_value(reg: solvers.RegularizerSpec | None, x: np.ndarray) -> float:
    """lambda * sum_j ||B_j x||_2 for the given regularizer; 0 for None (NNLS)."""
    if reg is None or reg.lam == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    Bx = solvers.build_group_operator(reg, x.shape[0]) @ x
    return reg.lam * float(np.linalg.norm(Bx.reshape(-1, reg.indptr.size - 1), axis=0).sum())


def objective_value(A, y, reg: solvers.RegularizerSpec | None, x) -> float:
    r = A @ x - y
    return float(r @ r + regularizer_value(reg, x))


def measurement_matrix_loop(hops, fading, config):
    """Column-by-column reference of sysmodel.build_measurement_matrix."""
    K, T = hops.shape
    a = np.zeros((config.tau_p * T, K))
    rows = np.arange(T) * config.tau_p
    for k in range(K):
        a[rows + hops[k] - 1, k] = config.tau_p * fading.powers[k] * fading.beta[k]
    return a


def generate_code_loop(config, rng):
    """Row-by-row reference of sysmodel.generate_code: draw one sequence at
    a time and keep it when no kept row equals it, until K rows are kept."""
    hops = np.empty((config.K, config.T), dtype=np.int64)
    seen = set()
    k = 0
    while k < config.K:
        row = rng.integers(1, config.tau_p + 1, size=config.T)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        hops[k] = row
        k += 1
    return hops


def kmeans_cluster_loop(points, n_clusters, rng, n_restarts=10, max_iter=300, tol=1e-9):
    """Restart-by-restart reference of detection.kmeans_cluster: k-means++
    seeding through ``rng.choice``, then Lloyd with a loop over clusters, one
    restart after the other; the same draws in the same order. With fewer
    distinct positions than clusters it draws nothing and returns them, in
    order of first appearance, with the surplus at the plane center."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    distinct = []
    for p in points.tolist():
        if p not in distinct:
            distinct.append(p)
    if len(distinct) < n_clusters:
        surplus = [detection.PLANE_CENTER.tolist()] * (n_clusters - len(distinct))
        return np.array(distinct + surplus).reshape(-1, 2)
    best = None
    best_wcss = np.inf
    for _ in range(n_restarts):
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
        for _ in range(max_iter):
            d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            labels = np.argmin(d2, axis=1)
            new_centroids = centroids.copy()
            for j in range(n_clusters):
                mask = labels == j
                if np.any(mask):
                    new_centroids[j] = points[mask].mean(axis=0)
                else:
                    new_centroids[j] = points[np.argmax(np.min(d2, axis=1))]
            shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
            centroids = new_centroids
            if shift < tol:
                break
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        wcss = float(np.min(d2, axis=1).sum())
        if wcss < best_wcss:
            best, best_wcss = centroids, wcss
    return best


def roc_sweep_loop(alpha_hat, truth, thresholds):
    """Threshold-by-threshold reference of detection.roc_sweep: per threshold
    a 0/1 mask by the strict rule, its miss and false-alarm counts, and each
    rate as a Python division of two counts, NaN for an empty set.
    Returns (masks as bool (n_thr, K), p_m, p_fa)."""
    alpha_hat = np.asarray(alpha_hat)
    truth = np.asarray(truth)
    active = truth == 1
    n_active = int(active.sum())
    n_inactive = int(truth.size - n_active)
    masks, p_m, p_fa = [], [], []
    for thr in np.asarray(thresholds, dtype=float):
        mask = (alpha_hat > thr).astype(np.int64)
        n_missed = int(np.sum(active & (mask == 0)))
        n_false = int(np.sum(~active & (mask == 1)))
        masks.append(mask == 1)
        p_m.append(n_missed / n_active if n_active else float("nan"))
        p_fa.append(n_false / n_inactive if n_inactive else float("nan"))
    return np.array(masks).reshape(len(masks), truth.size), np.array(p_m), np.array(p_fa)


def lipschitz_dense(A, iters=20, tol=1e-6):
    """2*sigma_max(A)^2 by power iteration on the dense A^T A."""
    n = A.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v_new = w / nrm
        lam_new = nrm
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        v, lam = v_new, lam_new
    return 2.0 * lam


def nnls_fista_dense(A, y, options=None):
    """Dense-product reference of solvers.nnls_solve: the same FISTA
    iteration, restart rule and KKT stopping rule, with a fresh array for
    every vector. Returns a solvers.SolverResult."""
    A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    options = options or solvers.SolverOptions()
    n = A.shape[1]
    L = lipschitz_dense(A)
    if L == 0.0:
        return solvers.SolverResult(np.zeros(n), 0, True)
    step = 1.0 / L
    scale = max(np.linalg.norm(2.0 * A.T @ y), options.abs_tol)
    x = np.zeros(n)
    z = x.copy()
    t_mom = 1.0
    converged = False
    it = 0
    for it in range(1, options.max_iters + 1):
        grad_z = 2.0 * (A.T @ (A @ z - y))
        x_new = np.maximum(0.0, z - step * grad_z)
        # adaptive restart on momentum pointing uphill
        if (z - x_new) @ (x_new - x) > 0.0:
            t_mom = 1.0
            z = x_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            z = x_new + ((t_mom - 1.0) / t_new) * (x_new - x)
            t_mom = t_new
        x = x_new
        if it % solvers.CHECK_EVERY == 0 or it == options.max_iters:
            g = 2.0 * (A.T @ (A @ x - y))
            res = np.where(x > 0.0, g, np.minimum(g, 0.0))
            if np.linalg.norm(res) <= options.rel_tol * scale:
                converged = True
                break
    return solvers.SolverResult(x, it, converged)


def monte_carlo_energy_loop(code, activity, fading, config, rng, noise_rng):
    """Interval-by-interval reference of simulator.monte_carlo_energy: the
    received signal Y^t of each coherence interval, then its per-pilot
    energies, with the same draws and the same arithmetic."""
    active = np.flatnonzero(activity == 1)
    g = simulator.sample_channels(fading, config, rng, active)
    amp = np.sqrt(config.tau_p * fading.powers[active])
    y = np.empty((config.T, config.tau_p))
    for t in range(config.T):
        Y = np.zeros((config.ml, config.tau_p), dtype=complex)
        np.add.at(Y.T, code[active, t] - 1, (g[t] * amp).T)
        shape = (config.ml, config.tau_p)
        noise = (noise_rng.standard_normal(shape)
                 + 1j * noise_rng.standard_normal(shape)) / np.sqrt(2.0)
        Y = Y + np.sqrt(config.sigma2) * noise
        y[t] = np.sum(np.abs(Y) ** 2, axis=0) / config.ml - config.sigma2
    return y.ravel()


def load_system(path):
    """Read back the system.json that sysmodel.save_system writes."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "pilothop-system-v1":
        raise ConfigurationError(f"unexpected system schema in {path}")
    config = sysmodel.SystemConfig(**doc["config"])
    topo = sysmodel.Topology(
        np.array(doc["topology"]["user_positions"]),
        np.array(doc["topology"]["bs_positions"]),
        np.array(doc["topology"]["distances"]),
    )
    fad = doc["fading"]
    fading = sysmodel.FadingProfile(
        np.array(fad["beta_per_bs"]), np.array(fad["beta"]),
        fad["beta_min"], fad["gamma"], np.array(fad["powers"]),
    )
    hops = np.array(doc["code"]["hops"], dtype=np.int64)
    a = np.array(doc["measurement_matrix"]["a"])
    return config, topo, fading, hops, a


def random_instance(rng, m=12, n=8, k=3, noise=0.05):
    """(A, y, x): non-negative A, sparse non-negative x, y = Ax + noise."""
    A = np.abs(rng.standard_normal((m, n)))
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.uniform(0.5, 1.5, k)
    return A, A @ x + noise * rng.standard_normal(m), x


def duality_gap(A, y, reg: solvers.RegularizerSpec, x) -> float:
    """f(x) - d(v) >= f(x) - min f over x >= 0, for f(x) = ||Ax - y||^2 +
    lam sum_j ||B_j x|| and A of full column rank.

    By weak duality d(v) = min_{x >= 0} ||Ax - y||^2 + (sum_j B_j^T v_j).x is
    at most min f whenever every ||v_j|| <= lam (Ndiaye et al., JMLR 2017).
    v_j = lam B_j x / ||B_j x|| where ||B_j x|| is above rounding noise, whose
    direction would add O(lam) to the gap. The other v_j minimize the
    orthant-restricted subgradient norm at x by projected FISTA with adaptive
    restart. d(v) is one NNLS solve after completing the square.
    """
    eye = np.eye(A.shape[1])
    if reg.kind == solvers.GLASSO:
        blocks = [eye[g] for g in unpack(reg)]
    else:
        blocks = [eye[j] - eye[g[g != j]] for j, g in enumerate(unpack(reg))]
    norms = np.array([np.linalg.norm(B @ x) for B in blocks])
    active = norms > 1e-8 * max(1.0, x.max(initial=0.0))
    c = sum(reg.lam * B.T @ (B @ x) / nrm for B, nrm, a in zip(blocks, norms, active) if a)
    free = np.flatnonzero(~active)
    Bf = np.vstack([eye[:0]] + [blocks[j] for j in free])
    owner = np.repeat(free, [blocks[j].shape[0] for j in free])
    g_fixed = 2.0 * A.T @ (A @ x - y) + c
    step = 1.0 / max((Bf * Bf).sum(), 1e-300)  # ||Bf||_F^2 >= sigma_max^2
    v = z = np.zeros(Bf.shape[0])
    t = 1.0
    for _ in range(1000):
        s = g_fixed + Bf.T @ z
        v_new = z - step * (Bf @ np.where(x > 0.0, s, np.minimum(s, 0.0)))
        nrm = np.sqrt(np.bincount(owner, v_new * v_new, len(blocks)))[owner]
        v_new *= np.minimum(1.0, reg.lam / np.maximum(nrm, 1e-300))
        if (z - v_new) @ (v_new - v) > 0.0:  # momentum points uphill: restart
            t, z = 1.0, v_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z, t = v_new + ((t - 1.0) / t_new) * (v_new - v), t_new
        v = v_new
    Aw = A @ np.linalg.solve(A.T @ A, c + Bf.T @ v)
    _, r = scipy.optimize.nnls(A, y - 0.5 * Aw)
    f = objective_value(A, y, None, x) + reg.lam * norms.sum()
    return float(f - (r * r + y @ Aw - 0.25 * Aw @ Aw))
