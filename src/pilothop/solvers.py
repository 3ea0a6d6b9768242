"""Non-negative least squares and group-norm regularized variants.

Two production paths:

* ``nnls_solve`` — accelerated projected gradient (FISTA with adaptive
  restart) for min_{x>=0} ||Ax - y||^2.
* ``regularized_solve`` — ADMM operator splitting for
  min_{x>=0} ||Ax - y||^2 + lambda * sum_j c_j ||B_j x||_2,
  where B_j either selects a (possibly overlapping) group of coordinates
  or forms the differences of a coordinate against its neighbors.
  Overlap rules out a one-shot prox, hence the splitting.

The ADMM x-update solves (2 A^T A + rho M) x = rhs with M = B^T B + I.
M is sparse and independent of rho (diagonal for group-LASSO, a graph
Laplacian plus I for TV), and A^T A has rank at most m, the number of
measurements. The matrix inversion lemma (Boyd et al., "Distributed
Optimization and Statistical Learning via ADMM", 2011, sec. 4.2.4) gives

    x = (s - W (G + rho/2 I)^-1 A s) / rho,   s = M^-1 rhs,

with W = M^-1 A^T and G = A W computed once. Each x-update is one sparse
solve plus an m x m solve, and a new rho refactors only the m x m
capacitance G + rho/2 I; no n x n dense matrix is ever formed.

Plus two independent certificates used by the tests: a projected
subgradient reference (`subgradient_oracle`) and a minimal-norm
subgradient residual (`kkt_residual`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ConfigurationError

NONE = "none"
GLASSO = "glasso"
TV = "tv"


@dataclass(frozen=True)
class RegularizerSpec:
    """Group structure, weights and strength of the activity regularizer.

    kind=GLASSO: B_j selects the coordinates in groups[j].
    kind=TV: groups[j] is the neighbor set of user j and B_j stacks the
    differences x_j - x_i for i in groups[j], i != j (the self-difference
    is identically zero and excluded).
    """

    kind: str
    groups: tuple = ()
    weights: np.ndarray | None = None
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in (NONE, GLASSO, TV):
            raise ConfigurationError(f"unknown regularizer kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigurationError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.kind != NONE:
            if not self.groups:
                raise ConfigurationError("regularizer needs at least one group")
            for j, g in enumerate(self.groups):
                if len(g) == 0:
                    raise ConfigurationError(f"group {j} is empty")
            w = self.weights
            if w is not None and np.any(np.asarray(w) <= 0):
                raise ConfigurationError("weights must be > 0")

    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(len(self.groups))
        return np.asarray(self.weights, dtype=float)


def no_regularizer() -> RegularizerSpec:
    return RegularizerSpec(NONE)


def glasso_spec(groups, lam: float, weights=None) -> RegularizerSpec:
    return RegularizerSpec(GLASSO, tuple(np.asarray(g, dtype=np.int64) for g in groups),
                           weights, lam)


def tv_spec(neighbor_sets, lam: float, weights=None) -> RegularizerSpec:
    return RegularizerSpec(TV, tuple(np.asarray(g, dtype=np.int64) for g in neighbor_sets),
                           weights, lam)


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 50_000
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    rho: float = 1.0            # initial ADMM penalty
    adapt_rho: bool = True      # residual balancing (x2 / /2, ratio 10)
    over_relax: float = 1.8     # ADMM relaxation parameter in (0, 2)
    check_every: int = 10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigurationError("tolerances must be > 0")
        # the x-update divides by rho
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ConfigurationError(f"rho must be finite and > 0, got {self.rho}")
        if not 0 < self.over_relax < 2:
            raise ConfigurationError(f"over_relax must be in (0, 2), got {self.over_relax}")


@dataclass
class SolverResult:
    alpha_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    residual_history: list = field(default_factory=list)


def prox_group_l2(v: np.ndarray, theta: float) -> np.ndarray:
    """Block soft threshold: v * max(0, 1 - theta/||v||), 0 at v = 0."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    nrm = np.linalg.norm(v)
    if nrm <= theta:
        return np.zeros_like(v)
    return v * (1.0 - theta / nrm)


def _check_problem(A: np.ndarray, y: np.ndarray):
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ConfigurationError(f"incompatible shapes A{A.shape}, y{y.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ConfigurationError("non-finite entries in A or y")
    return A, y


def _lipschitz(A: np.ndarray, iters: int = 20, tol: float = 1e-6) -> float:
    """2*sigma_max(A)^2 via power iteration on A^T A (deterministic start)."""
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


def regularizer_value(reg: RegularizerSpec, x: np.ndarray) -> float:
    """lambda * sum_j c_j ||B_j x||_2 for the given regularizer."""
    if reg.kind == NONE or reg.lam == 0.0:
        return 0.0
    w = reg.weight_vector()
    total = 0.0
    if reg.kind == GLASSO:
        for c, g in zip(w, reg.groups):
            total += c * np.linalg.norm(x[g])
    else:
        for k, (c, g) in enumerate(zip(w, reg.groups)):
            others = g[g != k]
            if others.size:
                total += c * np.linalg.norm(x[k] - x[others])
    return reg.lam * total


def objective_value(A, y, reg: RegularizerSpec, x) -> float:
    r = A @ x - y
    return float(r @ r + regularizer_value(reg, x))


def build_group_operator(reg: RegularizerSpec, n: int):
    """Sparse stacked operator B and per-group row slices.

    Returns (B, starts) where B is CSR of shape (m, n) and group j owns
    rows starts[j]:starts[j+1].
    """
    rows, cols, vals = [], [], []
    starts = [0]
    row = 0
    for j, g in enumerate(reg.groups):
        if reg.kind == GLASSO:
            for i in g:
                rows.append(row)
                cols.append(int(i))
                vals.append(1.0)
                row += 1
        elif reg.kind == TV:
            for i in g:
                if i == j:
                    continue
                rows.append(row)
                cols.append(j)
                vals.append(1.0)
                rows.append(row)
                cols.append(int(i))
                vals.append(-1.0)
                row += 1
        starts.append(row)
    B = sp.csr_matrix((vals, (rows, cols)), shape=(row, n))
    return B, np.asarray(starts, dtype=np.int64)


class _GroupProx:
    """Vectorized block soft threshold over the stacked group rows."""

    def __init__(self, starts: np.ndarray):
        self.starts = starts[:-1]
        self.sizes = np.diff(starts)
        self.nonempty = self.sizes > 0
        self.expand = np.repeat(np.arange(len(self.sizes)), self.sizes)

    def __call__(self, z: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        if z.size == 0:
            return z
        norms = np.sqrt(np.add.reduceat(z * z, self.starts[self.nonempty]))
        scale_ne = np.maximum(0.0, 1.0 - thetas[self.nonempty] / np.maximum(norms, 1e-300))
        scale = np.zeros(len(self.sizes))
        scale[self.nonempty] = scale_ne
        return z * scale[self.expand]


class RegularizedWorkspace:
    """Factorized x-update state reusable across right-hand sides.

    The measurement matrix and group structure are trial-invariant in the
    experiment harness, so the stacked B operator, the sparse LU of
    M = B^T B + I, W = M^-1 A^T, G = A W and the Cholesky factors of the
    m x m capacitance G + rho/2 I (one per visited penalty value) are
    computed once and shared by every solve.
    """

    def __init__(self, A: np.ndarray, reg: RegularizerSpec, options: SolverOptions):
        A, _ = _check_problem(A, np.zeros(A.shape[0]))
        self.A = A
        self.reg = reg
        self.options = options
        self.n = A.shape[1]
        self.B, self.starts = build_group_operator(reg, self.n)
        self.m_groups = self.B.shape[0]
        self.Bt = self.B.T.tocsr()
        # identity block appends the non-negativity copy u = x
        M = (self.Bt @ self.B + sp.identity(self.n, format="csr")).tocsc()
        # scipy loads sp.linalg on first access, so NNLS-only runs never pay
        # its ~2 MB of resident memory
        self.solve_M = sp.linalg.splu(M).solve
        self.W = self.solve_M(A.T)
        self.G = A @ self.W
        self.weights = reg.weight_vector()
        self.prox = _GroupProx(self.starts)
        self._factors: dict[float, tuple] = {}

    def factor(self, rho: float):
        """Cholesky factor of the capacitance G + rho/2 I, cached per rho."""
        f = self._factors.get(rho)
        if f is None:
            cap = self.G + 0.5 * rho * np.eye(self.G.shape[0])
            f = scipy.linalg.cho_factor(cap, lower=True, check_finite=False)
            self._factors[rho] = f
        return f

    def x_update(self, rhs: np.ndarray, rho: float) -> np.ndarray:
        """Solve (2 A^T A + rho (B^T B + I)) x = rhs by the Woodbury identity."""
        s = self.solve_M(rhs)
        c = scipy.linalg.cho_solve(self.factor(rho), self.A @ s, check_finite=False)
        return (s - self.W @ c) / rho


def nnls_solve(A, y, options: SolverOptions | None = None) -> SolverResult:
    """min_{x>=0} ||Ax - y||^2 by FISTA with orthant projection and restart.

    Convergence is certified by the projected-gradient KKT residual
    relative to ||2 A^T y||.
    """
    A, y = _check_problem(A, y)
    options = options or SolverOptions()
    n = A.shape[1]
    L = _lipschitz(A)
    if L == 0.0:  # A == 0: any feasible point is optimal
        return SolverResult(np.zeros(n), float(y @ y), 0, True)
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
        if it % options.check_every == 0 or it == options.max_iters:
            g = 2.0 * (A.T @ (A @ x - y))
            res = np.where(x > 0.0, g, np.minimum(g, 0.0))
            if np.linalg.norm(res) <= options.rel_tol * scale:
                converged = True
                break
    r = A @ x - y
    return SolverResult(x, float(r @ r), it, converged)


def regularized_solve(
    A,
    y,
    reg: RegularizerSpec,
    options: SolverOptions | None = None,
    workspace: RegularizedWorkspace | None = None,
) -> SolverResult:
    """ADMM for min_{x>=0} ||Ax - y||^2 + lambda sum_j c_j ||B_j x||_2.

    Splitting: z = [B x; x] with the block soft threshold on the group
    rows and the orthant projection on the identity block. The x-update
    solves (2 A^T A + rho (B^T B + I)) x = rhs through the workspace's
    Woodbury form: one sparse solve with B^T B + I and one m x m solve
    with the capacitance factor cached for the current penalty value.
    """
    A, y = _check_problem(A, y)
    options = options or SolverOptions()
    if workspace is None:
        workspace = RegularizedWorkspace(A, reg, options)
    ws = workspace
    n = ws.n
    Aty2 = 2.0 * (A.T @ y)
    rho = options.rho
    thetas_base = reg.lam * ws.weights  # theta_j = lam*c_j / rho at prox time
    m_total = ws.m_groups + n

    x = np.zeros(n)
    z = np.zeros(m_total)
    u = np.zeros(m_total)  # scaled dual
    converged = False
    it = 0
    history = []
    relax = options.over_relax
    for it in range(1, options.max_iters + 1):
        # x-update
        v = z - u
        rhs = Aty2 + rho * (ws.Bt @ v[: ws.m_groups] + v[ws.m_groups :])
        x = ws.x_update(rhs, rho)
        Bx = np.concatenate([ws.B @ x, x])
        # z-update with over-relaxation
        Bx_hat = relax * Bx + (1.0 - relax) * z
        w = Bx_hat + u
        z_old = z
        z = np.concatenate(
            [ws.prox(w[: ws.m_groups], thetas_base / rho), np.maximum(0.0, w[ws.m_groups :])]
        )
        # dual update
        u = u + Bx_hat - z
        if it % options.check_every == 0 or it == options.max_iters:
            r_pri = np.linalg.norm(Bx - z)
            dz = z - z_old
            r_dual = rho * np.linalg.norm(ws.Bt @ dz[: ws.m_groups] + dz[ws.m_groups :])
            eps_pri = np.sqrt(m_total) * options.abs_tol + options.rel_tol * max(
                np.linalg.norm(Bx), np.linalg.norm(z)
            )
            dual_ref = rho * np.linalg.norm(ws.Bt @ u[: ws.m_groups] + u[ws.m_groups :])
            eps_dual = np.sqrt(n) * options.abs_tol + options.rel_tol * max(dual_ref, np.linalg.norm(Aty2))
            history.append((it, r_pri, r_dual))
            if r_pri <= eps_pri and r_dual <= eps_dual:
                converged = True
                break
            if options.adapt_rho:
                if r_pri > 10.0 * r_dual:
                    rho *= 2.0
                    u /= 2.0
                elif r_dual > 10.0 * r_pri:
                    rho /= 2.0
                    u *= 2.0
    alpha = np.maximum(0.0, x)
    # snap sub-tolerance residue to exact zeros so the sparsity pattern and
    # the KKT certificate see the identified active set
    snap = max(1e-12, 10.0 * options.rel_tol) * max(1.0, alpha.max(initial=0.0))
    alpha[alpha < snap] = 0.0
    return SolverResult(alpha, objective_value(A, y, reg, alpha), it, converged, history)


def _min_norm_subgradient(A, y, reg: RegularizerSpec, x, inner_iters: int):
    """Minimal-norm orthant-restricted subgradient via projected gradient.

    The smooth and active-group parts of the subgradient are fixed; for
    groups with B_j x = 0 the subgradient contribution B_j^T v_j ranges
    over the ball ||v_j|| <= lam*c_j, and we minimize the restricted
    residual norm over those v_j.
    """
    g0 = 2.0 * (A.T @ (A @ x - y))
    pos = x > 0.0

    def restricted(s):
        return np.where(pos, s, np.minimum(s, 0.0))

    if reg.kind == NONE or reg.lam == 0.0:
        return np.linalg.norm(restricted(g0))

    B, starts = build_group_operator(reg, x.shape[0])
    if B.shape[0] == 0:
        return np.linalg.norm(restricted(g0))
    w = reg.weight_vector()
    Bx = B @ x
    sizes = np.diff(starts)
    norms = np.zeros(len(sizes))
    ne = sizes > 0
    norms[ne] = np.sqrt(np.add.reduceat(Bx * Bx, starts[:-1][ne]))
    # groups whose difference norm is at numerical-noise level are treated
    # as inactive (ball-constrained); fixing a direction from noise would
    # inject an O(lambda) phantom subgradient
    active = norms > 1e-7 * max(1.0, float(np.abs(Bx).max(initial=0.0)))
    radii_rows = np.zeros(B.shape[0])  # per-row ball radius of its group
    fixed = np.zeros(B.shape[0])
    for j in range(len(sizes)):
        sl = slice(starts[j], starts[j + 1])
        if sizes[j] == 0:
            continue
        if active[j]:
            fixed[sl] = reg.lam * w[j] * Bx[sl] / norms[j]
        else:
            radii_rows[sl] = reg.lam * w[j]
    g_fixed = g0 + B.T @ fixed

    free = radii_rows > 0.0
    if not np.any(free):
        return np.linalg.norm(restricted(g_fixed))

    Bf = B[free]
    # group membership over the free rows
    free_idx = np.flatnonzero(free)
    group_of_row = np.repeat(np.arange(len(sizes)), sizes)
    free_groups = group_of_row[free_idx]
    radii_free = radii_rows[free_idx]
    # projected gradient on h(v) = 0.5*||restricted(g_fixed + Bf^T v)||^2
    L = float(Bf.multiply(Bf).sum())  # Frobenius bound on sigma_max^2
    eta = 1.0 / max(L, 1e-12)
    v = np.zeros(Bf.shape[0])
    uniq, inv = np.unique(free_groups, return_inverse=True)
    for _ in range(inner_iters):
        s = g_fixed + Bf.T @ v
        grad = Bf @ restricted(s)
        v = v - eta * grad
        # project each group's v back into its ball
        sq = np.zeros(len(uniq))
        np.add.at(sq, inv, v * v)
        gn = np.sqrt(sq)[inv]
        rad = radii_free
        over = gn > rad
        if np.any(over):
            v = np.where(over, v * (rad / np.maximum(gn, 1e-300)), v)
    return np.linalg.norm(restricted(g_fixed + Bf.T @ v))


def kkt_residual(A, y, reg: RegularizerSpec | None, alpha_hat, inner_iters: int = 4000) -> float:
    """Norm of the minimal orthant-restricted subgradient at alpha_hat.

    Zero iff alpha_hat is optimal: coordinates with alpha>0 need a zero
    subgradient component, coordinates at zero need a non-negative one.
    """
    A, y = _check_problem(A, y)
    x = np.asarray(alpha_hat, dtype=float)
    if np.any(x < 0):
        raise ValueError("alpha_hat must be non-negative")
    if reg is None:
        reg = no_regularizer()
    return float(_min_norm_subgradient(A, y, reg, x, inner_iters))


def subgradient_oracle(
    A,
    y,
    reg: RegularizerSpec | None,
    iters: int,
    rng: np.random.Generator | None = None,
    x0: np.ndarray | None = None,
) -> SolverResult:
    """Slow projected-subgradient reference, independent of the ADMM path.

    Polyak-style steps with a decaying slack target; tracks and returns the
    best feasible iterate. Intended for tests only.
    """
    A, y = _check_problem(A, y)
    if reg is None:
        reg = no_regularizer()
    n = A.shape[1]
    x = np.zeros(n) if x0 is None else np.maximum(0.0, np.asarray(x0, dtype=float))
    B, starts = build_group_operator(reg, n) if reg.kind != NONE else (None, None)
    w = reg.weight_vector() if reg.kind != NONE else None

    def full_objective(v):
        return objective_value(A, y, reg, v)

    def subgrad(v):
        g = 2.0 * (A.T @ (A @ v - y))
        if reg.kind != NONE and reg.lam > 0.0 and B is not None and B.shape[0]:
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
    return SolverResult(x_best, float(f_best), iters, True)
