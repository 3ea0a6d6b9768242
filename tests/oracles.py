"""Reference values and solvers for the tests, independent of the production paths."""
import numpy as np

from pilothop import serialize, solvers, sysmodel
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
    code = sysmodel.PilotHopCode(np.array(doc["code"]["hops"], dtype=np.int64))
    a = sysmodel.MeasurementMatrix(np.array(doc["measurement_matrix"]["a"]))
    return config, topo, fading, code, a


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
