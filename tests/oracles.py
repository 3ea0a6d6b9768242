"""Reference solvers for the tests, independent of the production paths."""
import numpy as np

from pilothop import solvers


def subgradient_oracle(
    A,
    y,
    reg: solvers.RegularizerSpec,
    iters: int,
    x0: np.ndarray | None = None,
) -> solvers.SolverResult:
    """Slow projected-subgradient reference, independent of the ADMM path.

    Polyak-style steps with a decaying slack target; tracks and returns the
    best feasible iterate.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n = A.shape[1]
    x = np.zeros(n) if x0 is None else np.maximum(0.0, np.asarray(x0, dtype=float))
    B, starts = solvers.build_group_operator(reg, n)
    w = reg.weight_vector()

    def full_objective(v):
        return solvers.objective_value(A, y, reg, v)

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
            scale[sel] = reg.lam * w[row_group[sel]] / norms[row_group[sel]]
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
    return solvers.SolverResult(x_best, float(f_best), iters, True)
