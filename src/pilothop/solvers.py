"""Non-negative least squares and group-norm regularized variants.

Two production paths:

* ``nnls_solve`` — accelerated projected gradient (FISTA with adaptive
  restart) for min_{x>=0} ||Ax - y||^2.
* ``regularized_solve`` — ADMM operator splitting for
  min_{x>=0} ||Ax - y||^2 + lambda * sum_j ||B_j x||_2,
  where B_j either selects a (possibly overlapping) group of coordinates
  or forms the differences of a coordinate against its neighbors.
  Overlap rules out a one-shot prox, hence the splitting.

The ADMM x-update solves (2 A^T A + rho M) x = rhs with M = B^T B + I.
M is sparse and independent of rho (diagonal for group-LASSO, a graph
Laplacian plus I for TV), and A^T A has rank at most m, the number of
measurements. The matrix inversion lemma (Boyd et al., "Distributed
Optimization and Statistical Learning via ADMM", 2011, sec. 4.2.4) gives

    x = (s - W (G + rho/2 I)^-1 A s) / rho,   s = M^-1 rhs,

with W = M^-1 A^T and G = A W computed once. Users sit on a row-major
grid, so M is banded; it is factored once by a banded Cholesky and each
x-update is one banded solve, an m x m triangular solve pair, and the
products with A and W, each kept as CSR when it is sparse. A new rho
refactors only the m x m capacitance G + rho/2 I; no n x n dense matrix
is ever formed. The ADMM state lives in buffers allocated once per solve
and updated in place.

ADMM is run as a fixed-point iteration on its pre-prox point and sped up
by type-II Anderson acceleration (Walker & Ni, "Anderson acceleration for
fixed-point iterations", SIAM J. Numer. Anal. 2011) with the safeguard of
Zhang, O'Donoghue & Boyd, "Globally convergent type-I Anderson
acceleration for nonsmooth fixed-point iterations" (SIAM J. Optim. 2020),
the scheme SCS 3 uses: an extrapolated step whose fixed-point residual
grows is undone and the history cleared. At paper scale this takes about
2.8x fewer iterations than plain ADMM; there is no unaccelerated path.

Plus an optimality certificate independent of both solvers, the
minimal-norm subgradient residual (`kkt_residual`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ConfigurationError

GLASSO = "glasso"
TV = "tv"

# iterations between convergence checks (and ADMM penalty updates)
CHECK_EVERY = 10
# difference pairs kept by the Anderson-accelerated ADMM
ANDERSON_MEMORY = 10

_posv = scipy.linalg.lapack.dposv
_gemv = scipy.linalg.blas.dgemv


@dataclass(frozen=True)
class RegularizerSpec:
    """Group structure and strength of the activity regularizer.

    kind=GLASSO: B_j selects the coordinates in groups[j].
    kind=TV: groups[j] is the neighbor set of user j and B_j stacks the
    differences x_j - x_i for i in groups[j], i != j (the self-difference
    is identically zero and excluded).
    """

    kind: str
    groups: tuple = ()
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in (GLASSO, TV):
            raise ConfigurationError(f"unknown regularizer kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigurationError(f"lambda must be finite and >= 0, got {self.lam}")
        if not self.groups:
            raise ConfigurationError("regularizer needs at least one group")
        for j, g in enumerate(self.groups):
            if len(g) == 0:
                raise ConfigurationError(f"group {j} is empty")


def glasso_spec(groups, lam: float) -> RegularizerSpec:
    return RegularizerSpec(GLASSO, tuple(np.asarray(g, dtype=np.int64) for g in groups), lam)


def tv_spec(neighbor_sets, lam: float) -> RegularizerSpec:
    return RegularizerSpec(TV, tuple(np.asarray(g, dtype=np.int64) for g in neighbor_sets), lam)


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 50_000
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    rho: float = 1.0            # initial ADMM penalty; residual balancing doubles or halves it
    over_relax: float = 1.8     # ADMM relaxation parameter in (0, 2)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not (np.isfinite(tol) and tol > 0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {tol}")
        # the x-update divides by rho
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ConfigurationError(f"rho must be finite and > 0, got {self.rho}")
        if not 0 < self.over_relax < 2:
            raise ConfigurationError(f"over_relax must be in (0, 2), got {self.over_relax}")


@dataclass
class SolverResult:
    alpha_hat: np.ndarray
    iterations: int
    converged: bool
    rejected_steps: int = 0  # accelerated ADMM steps undone by the safeguard
    rho_changes: int = 0     # ADMM penalty updates by residual balancing


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


def _group_norms(Bx: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """||B_j x|| per group from the stacked B x; 0 for groups without rows."""
    nonempty = np.diff(starts) > 0
    norms = np.zeros(nonempty.size)
    if Bx.size:
        norms[nonempty] = np.sqrt(np.add.reduceat(Bx * Bx, starts[:-1][nonempty]))
    return norms


def build_group_operator(reg: RegularizerSpec, n: int):
    """Sparse stacked operator B and per-group row slices.

    Returns (B, starts) where B is CSR of shape (m, n) and group j owns
    rows starts[j]:starts[j+1]. A group-LASSO row selects one member of
    its group; a TV row of group j is e_j - e_i for a member i != j.
    Column indices are sorted within each row.
    """
    members = np.concatenate(reg.groups)
    owner = np.repeat(np.arange(len(reg.groups)), [len(g) for g in reg.groups])
    if reg.kind == GLASSO:
        row_owner, indices, data, per_row = owner, members, np.ones(members.size), 1
    else:
        keep = members != owner
        row_owner, other = owner[keep], members[keep]
        indices = np.column_stack([np.minimum(row_owner, other),
                                   np.maximum(row_owner, other)]).ravel()
        first = np.where(row_owner < other, 1.0, -1.0)
        data = np.column_stack([first, -first]).ravel()
        per_row = 2
    rows = row_owner.size
    indptr = np.arange(rows + 1) * per_row
    starts = np.zeros(len(reg.groups) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_owner, minlength=len(reg.groups)), out=starts[1:])
    B = sp.csr_matrix((data, indices, indptr), shape=(rows, n))
    return B, starts


def _banded_cholesky(M) -> np.ndarray:
    """Lower banded Cholesky factor of the sparse SPD matrix M.

    The bandwidth is read from M's entries; on the row-major user grid a
    neighbor graph couples only nearby rows, so the band is narrow (zero
    when M is diagonal).
    """
    M = M.tocoo()
    below = M.row >= M.col
    diag = (M.row - M.col)[below]
    ab = np.zeros((int(diag.max(initial=0)) + 1, M.shape[0]))
    ab[diag, M.col[below]] = M.data[below]
    return scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)


def _csr_if_sparse(X: np.ndarray):
    """X as CSR when at most a quarter of its entries are nonzero, else X.

    A CSR product reads a 4-byte index with every 8-byte value, so at a
    quarter density it reads under half the bytes of a dense product.
    """
    if np.count_nonzero(X) <= X.size // 4:
        return sp.csr_matrix(X)
    return X


class RegularizedWorkspace:
    """Factorized x-update state reusable across right-hand sides.

    The measurement matrix and group structure are trial-invariant in the
    experiment harness, so everything that does not depend on y or rho is
    built once and shared by every solve:

    * the stacked operator C = [B; I] (CSR) and its transpose, with row s
      of group j at padded row s*groups + j for s < width, width being the
      largest group's row count; rows past a group's own are empty, so a
      group's block is one column of a (width, groups) view, and the block
      soft threshold runs along contiguous rows;
    * the banded Cholesky factor of M = B^T B + I, solved with LAPACK
      ``pbtrs`` (the band is read from M: 37 for TV on the 36x36 grid at
      r = 0.05, 0 for group-LASSO, whose M is diagonal);
    * W = M^-1 A^T and G = A W, with A and W kept as CSR when sparse (A
      has 10 nonzeros per column; W has A^T's sparsity when M is
      diagonal);
    * the Cholesky factors of the m x m capacitance G + rho/2 I, one per
      visited penalty value, solved with LAPACK ``potrs``.
    """

    def __init__(self, A: np.ndarray, reg: RegularizerSpec, options: SolverOptions):
        A, _ = _check_problem(A, np.zeros(A.shape[0]))
        self.n = n = A.shape[1]
        B, starts = build_group_operator(reg, n)
        sizes = np.diff(starts)
        self.m_groups = B.shape[0]
        self.n_groups = len(sizes)
        self.width = int(sizes.max(initial=0))
        group = np.repeat(np.arange(self.n_groups), sizes)
        padded = (np.arange(self.m_groups) - starts[group]) * self.n_groups + group
        B = B.tocoo()
        B = sp.csr_matrix(
            (B.data, (padded[B.row], B.col)), shape=(self.n_groups * self.width, n)
        )
        # the identity block appends the non-negativity copy u = x
        self.C = sp.vstack([B, sp.identity(n)], format="csr")
        self.Ct = self.C.T.tocsr()
        self._chol_M = _banded_cholesky(self.Ct @ self.C)
        self._pbtrs, self._potrs = scipy.linalg.get_lapack_funcs(
            ("pbtrs", "potrs"), (self._chol_M,)
        )
        W, _ = self._pbtrs(self._chol_M, A.T, lower=1)
        self.G = A @ W
        self.A = _csr_if_sparse(A)
        self.W = _csr_if_sparse(W)
        self._factors: dict[float, np.ndarray] = {}

    def factor(self, rho: float) -> np.ndarray:
        """Lower Cholesky factor of the capacitance G + rho/2 I, cached per rho."""
        f = self._factors.get(rho)
        if f is None:
            cap = self.G + 0.5 * rho * np.eye(self.G.shape[0])
            f, _ = scipy.linalg.cho_factor(cap, lower=True, check_finite=False)
            self._factors[rho] = f
        return f

    def x_update(self, rhs: np.ndarray, rho: float) -> np.ndarray:
        """Solve (2 A^T A + rho (B^T B + I)) x = rhs by the Woodbury identity."""
        s, _ = self._pbtrs(self._chol_M, rhs, lower=1)
        c, _ = self._potrs(self.factor(rho), self.A @ s, lower=1, overwrite_b=1)
        s -= self.W @ c
        s /= rho
        return s


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
        return SolverResult(np.zeros(n), 0, True)
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
        if it % CHECK_EVERY == 0 or it == options.max_iters:
            g = 2.0 * (A.T @ (A @ x - y))
            res = np.where(x > 0.0, g, np.minimum(g, 0.0))
            if np.linalg.norm(res) <= options.rel_tol * scale:
                converged = True
                break
    return SolverResult(x, it, converged)


def regularized_solve(
    A,
    y,
    reg: RegularizerSpec,
    options: SolverOptions | None = None,
    workspace: RegularizedWorkspace | None = None,
) -> SolverResult:
    """ADMM for min_{x>=0} ||Ax - y||^2 + lambda sum_j ||B_j x||_2,
    with safeguarded type-II Anderson acceleration.

    Splitting: z = [B x; x] with the block soft threshold on the group
    rows and the orthant projection on the identity block. The x-update
    solves (2 A^T A + rho (B^T B + I)) x = rhs through the workspace's
    Woodbury form: one banded solve with B^T B + I and one m x m solve
    with the capacitance factor cached for the current penalty value.

    The iteration is run on the pre-prox point w = relax C x + (1 - relax) z
    + u. Both z = prox(w) and the scaled dual u = w - z are functions of w,
    so one ADMM iteration is a map w -> T(w) = w + relax (C x - z), and its
    fixed points are the ADMM solutions. Type-II Anderson acceleration
    (Walker & Ni, "Anderson acceleration for fixed-point iterations", SIAM
    J. Numer. Anal. 2011) extrapolates from the last ANDERSON_MEMORY
    differences of the residual f = C x - z = (T(w) - w) / relax and of
    T(w): it solves the small least-squares problem min ||f - dF gamma||
    by its normal equations (Tikhonov regularized; scaling f does not
    change gamma) and steps to T(w) - dG gamma. The safeguard follows Zhang,
    O'Donoghue & Boyd, "Globally convergent type-I Anderson acceleration
    for nonsmooth fixed-point iterations" (SIAM J. Optim. 2020): when the
    fixed-point residual at an accelerated point exceeds the one at the
    point before it, the step is rejected, the iteration resumes from the
    saved plain step and the history is cleared. A rho change by residual
    balancing changes the map, so it also clears the history.

    Convergence and residual balancing are judged, every CHECK_EVERY
    iterations, on the plain ADMM step from the current point. All vectors
    live in buffers allocated once per solve; group j's rows are column j
    of a (width, groups) view, so the block soft threshold is a column norm
    and a broadcast multiply.
    """
    A, y = _check_problem(A, y)
    options = options or SolverOptions()
    if workspace is None:
        workspace = RegularizedWorkspace(A, reg, options)
    ws = workspace
    n = ws.n
    Aty2 = 2.0 * (A.T @ y)
    eps_dual_floor = np.sqrt(n) * options.abs_tol
    Aty2_norm = np.linalg.norm(Aty2)
    rho = options.rho
    relax = options.over_relax
    theta = reg.lam / rho  # block soft-threshold radius
    m_total = ws.m_groups + n  # real stacked rows; the padding is not counted
    eps_pri_floor = np.sqrt(m_total) * options.abs_tol
    n_stack = ws.C.shape[0]
    pad = ws.n_groups * ws.width
    shape = (ws.width, ws.n_groups)
    norms = np.empty(ws.n_groups)

    def prox(src, dst):
        """dst = block soft threshold of src's group rows, orthant projection of the rest."""
        groups = src[:pad].reshape(shape)
        np.einsum("ij,ij->j", groups, groups, out=norms)
        np.sqrt(norms, out=norms)
        np.maximum(norms, 1e-300, out=norms)
        np.divide(theta, norms, out=norms)
        np.subtract(1.0, norms, out=norms)
        np.maximum(norms, 0.0, out=norms)
        np.multiply(groups, norms, out=dst[:pad].reshape(shape))
        np.maximum(src[pad:], 0.0, out=dst[pad:])

    # stacked [group rows; identity rows] buffers, updated in place
    w, z, z_new, scratch, g, g_prev = (np.zeros(n_stack) for _ in range(6))
    # Anderson history: ring buffers of the residual and plain-step
    # differences, their Gram matrix, and dF f of the previous step
    dF = np.empty((ANDERSON_MEMORY, n_stack))
    dG = np.empty((ANDERSON_MEMORY, n_stack))
    gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
    Ff_prev = np.zeros(ANDERSON_MEMORY)
    diag = [0.0] * ANDERSON_MEMORY  # Gram diagonal, for the regularization
    eye = np.eye(ANDERSON_MEMORY)
    stored = 0           # difference pairs written since the last reset
    f_prev = None        # residual of the previous point; g_prev is its plain step
    accelerated = False  # w is an extrapolated point
    res_prev = 0.0
    rejected = 0
    rho_changes = 0
    x = np.zeros(n)
    converged = False
    it = 0
    for it in range(1, options.max_iters + 1):
        check = it % CHECK_EVERY == 0 or it == options.max_iters
        prox(w, z)
        # x-update: rhs = 2 A^T y + rho C^T (z - u) with u = w - z
        np.multiply(z, 2.0, out=scratch)
        scratch -= w
        rhs = ws.Ct @ scratch
        rhs *= rho
        rhs += Aty2
        x = ws.x_update(rhs, rho)
        # residual f = C x - z, in place in the fresh product; the plain
        # step is g = T(w) = w + relax f
        f = ws.C @ x
        if check:
            cx_norm = np.linalg.norm(f)
        f -= z
        np.multiply(f, relax, out=g)
        g += w
        if check:
            prox(g, z_new)
            np.subtract(z, z_new, out=scratch)
            r_dual = rho * np.linalg.norm(ws.Ct @ scratch)
            scratch += f  # C x - z_new
            r_pri = np.linalg.norm(scratch)
            eps_pri = eps_pri_floor + options.rel_tol * max(cx_norm, np.linalg.norm(z_new))
            np.subtract(g, z_new, out=scratch)  # the plain step's u
            dual_ref = rho * np.linalg.norm(ws.Ct @ scratch)
            eps_dual = eps_dual_floor + options.rel_tol * max(dual_ref, Aty2_norm)
            if r_pri <= eps_pri and r_dual <= eps_dual:
                converged = True
                break
            if r_pri > 10.0 * r_dual or r_dual > 10.0 * r_pri:
                # residual balancing: rescale u with rho and restart the
                # history from the plain step's (z, u)
                factor = 2.0 if r_pri > r_dual else 0.5
                rho *= factor
                rho_changes += 1
                theta = reg.lam / rho
                scratch /= factor
                np.add(z_new, scratch, out=w)
                stored, f_prev, accelerated = 0, None, False
                continue
        res = f @ f
        if accelerated and res > res_prev:
            # safeguard: resume from the plain step saved before the
            # extrapolation and drop the history
            rejected += 1
            w, g_prev = g_prev, w
            stored, f_prev, accelerated = 0, None, False
            continue
        np.copyto(w, g)
        accelerated = False
        if f_prev is not None:
            slot = stored % ANDERSON_MEMORY
            d = dF[slot]
            np.subtract(f, f_prev, out=d)
            np.subtract(g, g_prev, out=dG[slot])
            stored += 1
            k = min(stored, ANDERSON_MEMORY)
            # one pass over dF: the right-hand side dF f, and the new Gram
            # row dF d = dF f - dF f_prev (rows other than slot unchanged)
            Ff = dF[:k] @ f
            row = Ff - Ff_prev[:k]
            row[slot] = diag[slot] = d @ d
            gram[slot, :k] = row
            gram[:k, slot] = row
            Ff_prev[:k] = Ff
            H = gram[:k, :k] + eye[:k, :k] * (1e-10 * sum(diag[:k]))
            _, gamma, info = _posv(H, Ff, lower=1, overwrite_a=1, overwrite_b=1)
            if info == 0:
                # w = g - dG^T gamma; dG[:k].T is Fortran-ordered, so no copy
                _gemv(-1.0, dG[:k].T, gamma, beta=1.0, y=w, overwrite_y=1)
                accelerated = True
        f_prev = f
        g, g_prev = g_prev, g
        res_prev = res
    alpha = np.maximum(0.0, x)
    # snap sub-tolerance residue to exact zeros so the sparsity pattern and
    # the KKT certificate see the identified active set
    snap = max(1e-12, 10.0 * options.rel_tol) * max(1.0, alpha.max(initial=0.0))
    alpha[alpha < snap] = 0.0
    return SolverResult(alpha, it, converged, rejected, rho_changes)


def _min_norm_subgradient(A, y, reg: RegularizerSpec | None, x, inner_iters: int):
    """Minimal-norm orthant-restricted subgradient via projected gradient.

    The smooth and active-group parts of the subgradient are fixed; for
    groups with B_j x = 0 the subgradient contribution B_j^T v_j ranges
    over the ball ||v_j|| <= lam, and we minimize the restricted
    residual norm over those v_j. reg=None is plain NNLS.
    """
    g0 = 2.0 * (A.T @ (A @ x - y))
    pos = x > 0.0

    def restricted(s):
        return np.where(pos, s, np.minimum(s, 0.0))

    if reg is None or reg.lam == 0.0:
        return np.linalg.norm(restricted(g0))

    B, starts = build_group_operator(reg, x.shape[0])
    if B.shape[0] == 0:
        return np.linalg.norm(restricted(g0))
    Bx = B @ x
    sizes = np.diff(starts)
    norms = _group_norms(Bx, starts)
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
            fixed[sl] = reg.lam * Bx[sl] / norms[j]
        else:
            radii_rows[sl] = reg.lam
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
    return float(_min_norm_subgradient(A, y, reg, x, inner_iters))

