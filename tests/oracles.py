"""Reference values and solvers for the tests, independent of the production paths."""
import numpy as np

from pilothop import serialize, simulator, solvers, sysmodel
from pilothop.errors import ConfigurationError


def regularizer_value(reg: solvers.RegularizerSpec | None, x: np.ndarray) -> float:
    """lambda * sum_j ||B_j x||_2 for the given regularizer; 0 for None (NNLS)."""
    if reg is None or reg.lam == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    B, starts = solvers.build_group_operator(reg, x.shape[0])
    return reg.lam * float(solvers._group_norms(B @ x, starts).sum())


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
    doc = serialize.load(path)
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


def subgradient_oracle(
    A,
    y,
    reg: solvers.RegularizerSpec,
    iters: int,
    x0: np.ndarray | None = None,
):
    """Slow projected-subgradient reference, independent of the ADMM path.

    Polyak-style steps with a decaying slack target; tracks and returns the
    best feasible iterate and its objective, (x_best, f_best).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[1]
    x = np.zeros(n) if x0 is None else np.maximum(0.0, np.asarray(x0, dtype=float))
    B, starts = solvers.build_group_operator(reg, n)

    def full_objective(v):
        return objective_value(A, y, reg, v)

    def subgrad(v):
        g = 2.0 * (A.T @ (A @ v - y))
        if reg.lam > 0.0 and B.shape[0]:
            Bv = B @ v
            sizes = np.diff(starts)
            ne = sizes > 0
            norms = np.zeros(len(sizes))
            norms[ne] = np.sqrt(np.add.reduceat(Bv * Bv, starts[:-1][ne]))
            scale = np.zeros(B.shape[0])
            row_group = np.repeat(np.arange(len(sizes)), sizes)
            sel = (norms > 0.0)[row_group]
            scale[sel] = reg.lam / norms[row_group[sel]]
            g = g + B.T @ (scale * Bv)
        return g

    f_best = full_objective(x)
    x_best = x.copy()
    f_x = f_best
    delta0 = 0.1 * max(f_best, 1e-12)
    for t in range(1, iters + 1):
        g = subgrad(x)
        gn2 = float(g @ g)
        if gn2 == 0.0:
            break
        delta = delta0 / np.sqrt(t)
        step = (f_x - f_best + delta) / gn2
        x = np.maximum(0.0, x - step * g)
        f_x = full_objective(x)
        if f_x < f_best:
            f_best = f_x
            x_best = x.copy()
    return x_best, float(f_best)
