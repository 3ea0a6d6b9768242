"""Non-negative least squares and group-norm regularized variants.

Two production paths, both on A as the CSC matrix that ``sysmodel`` builds
(10 nonzeros per column at paper scale; any other A is converted once on
entry), so A^T is CSR for free and every product with A or A^T is sparse:

* ``nnls_solve`` — accelerated projected gradient (FISTA with adaptive
  restart; Beck & Teboulle, SIAM J. Imaging Sci. 2009) for
  min_{x>=0} ||Ax - y||^2. An iteration is one product with a CSR copy
  of A, made once per solve, and one with A^T, and the iterates are
  updated in place.
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
products with A and W (sparse when M is diagonal). A new rho
refactors only the m x m capacitance G + rho/2 I; no n x n dense matrix
is ever formed. The ADMM state lives in buffers allocated once per solve
and updated in place.

ADMM is run as a fixed-point iteration on its pre-prox point and sped up
by type-II Anderson acceleration (Walker & Ni, "Anderson acceleration for
fixed-point iterations", SIAM J. Numer. Anal. 2011) with memory
ANDERSON_MEMORY = 20, behind a relaxed monotone safeguard in the spirit
of Zhang, O'Donoghue & Boyd, "Globally convergent type-I Anderson
acceleration for nonsmooth fixed-point iterations" (SIAM J. Optim. 2020):
an extrapolated step is undone and the history cleared only when its
squared fixed-point residual exceeds SAFEGUARD_GROWTH = 4 times the
previous point's (its residual norm more than doubles). Extrapolation is
periodic, as in the periodic Pulay method (Banerjee, Suryanarayana &
Pask, Chem. Phys. Lett. 2016): one iteration in ANDERSON_PERIOD = 3
records a history pair and extrapolates, and the others are plain ADMM
steps, so the history is streamed once per three iterations rather than
every one. There is no unaccelerated path. The history's difference rows
are float32, which halves the largest allocation of a solve and the
largest memory traffic of a step; every iterate, the Gram matrix and
every test the solve decides on stay float64. Each solve runs on its
problem divided by a power of two, exact in binary floating point, so the
float32 rows stay in range at any scale of y and lambda.

In both solvers the reductions a decision rests on run in numpy's own
loop, not BLAS, so results do not depend on the BLAS thread count.
LAPACK and BLAS come from ``scipy.linalg``, imported and bound only by
the ``RegularizedWorkspace`` constructor, so an NNLS-only run never
loads it.

Plus an optimality certificate independent of both solvers,
``kkt_residual``: the norm of the minimal orthant-restricted subgradient,
its free part found by projected FISTA run until it stalls. On tight
full-scale solves it reads 1e-11 to 5e-9 of ||2 A^T y||.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

GLASSO = "glasso"
TV = "tv"

# iterations between convergence checks (and ADMM penalty updates)
CHECK_EVERY = 10
# difference pairs kept by the Anderson-accelerated ADMM
ANDERSON_MEMORY = 20
# iterations per Anderson step: the others are plain ADMM steps
ANDERSON_PERIOD = 3
# an extrapolated ADMM step is undone when its squared fixed-point residual
# exceeds this factor times the previous point's
SAFEGUARD_GROWTH = 4.0
# ADMM relaxation parameter, in (0, 2)
OVER_RELAX = 1.8
# the KKT certificate's inner solve stops when KKT_STALL_STEPS steps lower
# its objective by at most KKT_STALL_GAIN relative, or after KKT_MAX_STEPS
KKT_STALL_STEPS = 50
KKT_STALL_GAIN = 1e-10
KKT_MAX_STEPS = 3000


def _dot(u, v) -> float:
    """u . v in numpy's own loop. BLAS splits a long dot product across
    threads, so its rounding, and every solver decision taken on it, would
    depend on the BLAS thread count."""
    return float(np.einsum("i,i->", u, v))


@dataclass(frozen=True, eq=False)
class RegularizerSpec:
    """Group structure and strength of the activity regularizer.

    Group j is the int64 slice members[indptr[j]:indptr[j + 1]], the
    packing ``sysmodel.neighbor_sets`` returns.
    kind=GLASSO: B_j selects the coordinates of group j.
    kind=TV: group j is the neighbor set of user j and B_j stacks the
    differences x_j - x_i for i in it, i != j (the self-difference is
    identically zero and excluded).
    Specs compare and hash by identity: arrays have no single truth value.
    """

    kind: str
    indptr: np.ndarray
    members: np.ndarray
    lam: float

    def __post_init__(self):
        if self.kind not in (GLASSO, TV):
            raise ConfigurationError(f"unknown regularizer kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigurationError(f"lambda must be finite and >= 0, got {self.lam}")
        for name in ("indptr", "members"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.int64):
                raise ConfigurationError(f"{name} must be a 1-D int64 array")
        if self.indptr.size < 2:
            raise ConfigurationError("regularizer needs at least one group")
        if self.indptr[0] != 0 or self.indptr[-1] != self.members.size:
            raise ConfigurationError("indptr must run from 0 to members.size")
        if np.any(np.diff(self.indptr) <= 0):
            raise ConfigurationError("indptr must increase strictly: no group may be empty")


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 50_000
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    # initial ADMM penalty, the same for every solve (not a field): residual
    # balancing doubles or halves it
    rho: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not (np.isfinite(tol) and tol > 0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {tol}")


@dataclass
class SolverResult:
    alpha_hat: np.ndarray
    iterations: int
    converged: bool
    rejected_steps: int = 0  # accelerated ADMM steps undone by the safeguard
    rho_changes: int = 0     # ADMM penalty updates by residual balancing


def _check_problem(A, y: np.ndarray):
    """A as a float CSC matrix (A itself when it is one), y as a float vector."""
    A = A if sp.issparse(A) else np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ConfigurationError(f"incompatible shapes A{A.shape}, y{y.shape}")
    A = A if sp.isspmatrix_csc(A) and A.dtype == float else sp.csc_matrix(A, dtype=float)
    if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(y))):
        raise ConfigurationError("non-finite entries in A or y")
    return A, y


def _lipschitz(A, At, iters: int = 20, tol: float = 1e-6) -> float:
    """2*sigma_max(A)^2 via power iteration on A^T A (deterministic start);
    At is A^T."""
    n = A.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(iters):
        w = At @ (A @ v)
        nrm = math.sqrt(_dot(w, w))
        if nrm == 0.0:
            return 0.0
        v_new = w / nrm
        lam_new = nrm
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        v, lam = v_new, lam_new
    return 2.0 * lam


def build_group_operator(reg: RegularizerSpec, n: int):
    """Sparse stacked operator B of the regularizer, CSR of shape
    (groups * width, n), width being the largest group's row count.

    Row s of group j is row s*groups + j, so group j's rows are column j
    of a (width, groups) view of B x; rows past a group's own are empty.
    A group-LASSO row selects one member of its group; a TV row of group
    j is e_j - e_i for a member i != j. Column indices are sorted within
    each row. The rows come from reg.members in order, with no loop over groups.
    """
    groups = reg.indptr.size - 1
    members = reg.members
    owner = np.repeat(np.arange(groups), np.diff(reg.indptr))
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
    # rows come grouped by owner; a row's rank within its group picks its slot
    sizes = np.bincount(row_owner, minlength=groups)
    rank = np.arange(row_owner.size) - (np.cumsum(sizes) - sizes)[row_owner]
    row = np.repeat(rank * groups + row_owner, per_row)
    return sp.csr_matrix(
        (data, (row, indices)), shape=(groups * int(sizes.max(initial=0)), n)
    )


def _lower_band(M) -> np.ndarray:
    """The lower band of the sparse symmetric matrix M in LAPACK's banded
    storage: row d holds the d-th subdiagonal.

    The bandwidth is read from M's entries; on the row-major user grid a
    neighbor graph couples only nearby rows, so the band is narrow (zero
    when M is diagonal).
    """
    M = M.tocoo()
    below = M.row >= M.col
    diag = (M.row - M.col)[below]
    ab = np.zeros((int(diag.max(initial=0)) + 1, M.shape[0]))
    ab[diag, M.col[below]] = M.data[below]
    return ab


class RegularizedWorkspace:
    """Factorized x-update state reusable across right-hand sides.

    The measurement matrix and group structure are trial-invariant in the
    experiment harness, so everything that does not depend on y or rho is
    built once and shared by every solve:

    * the stacked operator C = [B; I] (CSR) and its transpose, B in the
      padded layout of ``build_group_operator``, so a group's block is one
      column of a (width, groups) view and the block soft threshold runs
      along contiguous rows;
    * the banded Cholesky factor of M = B^T B + I, solved with LAPACK
      ``pbtrs`` (the band is read from M: 37 for TV on the 36x36 grid at
      r = 0.05, 0 for group-LASSO, whose M is diagonal);
    * W = M^-1 A^T and G = A W, a sparse product; when M is diagonal (its
      banded factor has one row) W is the CSR A^T with its rows scaled, so
      it has A^T's sparsity, and otherwise it is dense, solved by ``pbtrs``
      from the dense A^T;
    * the Cholesky factors of the m x m capacitance G + rho/2 I, one per
      visited penalty value, solved with LAPACK ``potrs``.

    The constructor binds every LAPACK and BLAS routine of the x-update
    and of ``regularized_solve``'s Anderson step.
    """

    def __init__(self, A, reg: RegularizerSpec, options: SolverOptions):
        # the package's one import of scipy.linalg: a run without ADMM never loads it
        import scipy.linalg

        A, _ = _check_problem(A, np.zeros(A.shape[0]))
        self.n = n = A.shape[1]
        B = build_group_operator(reg, n)
        self.n_groups = reg.indptr.size - 1
        self.width = B.shape[0] // self.n_groups
        self.m_groups = int(np.count_nonzero(np.diff(B.indptr)))
        # the identity block appends the non-negativity copy u = x
        self.C = sp.vstack([B, sp.identity(n)], format="csr")
        self.Ct = self.C.T.tocsr()
        self._chol_M = scipy.linalg.cholesky_banded(
            _lower_band(self.Ct @ self.C), lower=True, check_finite=False)
        self._pbtrs, self._potrs = scipy.linalg.get_lapack_funcs(
            ("pbtrs", "potrs"), (self._chol_M,)
        )
        self._cho_factor = scipy.linalg.cho_factor
        # the Anderson step's float64 normal equations and float32 products
        self._posv = scipy.linalg.lapack.dposv
        self._sgemv = scipy.linalg.blas.sgemv
        if self._chol_M.shape[0] == 1:
            # M diagonal: W is A^T with row i divided twice by the factor's
            # L_ii, as pbtrs divides, so it keeps A^T's sparsity
            W = A.T.tocsr(copy=True)
            l_ii = np.repeat(self._chol_M[0], np.diff(W.indptr))
            W.data /= l_ii
            W.data /= l_ii
            self.G = (A @ W).toarray()
        else:
            W, _ = self._pbtrs(self._chol_M, A.T.toarray(), lower=1)
            self.G = A @ W
        self.A = A
        self.W = W
        self.kind, self.indptr, self.members = reg.kind, reg.indptr, reg.members
        self._factors: dict[float, np.ndarray] = {}

    def factor(self, rho: float) -> np.ndarray:
        """Lower Cholesky factor of the capacitance G + rho/2 I, cached per rho."""
        f = self._factors.get(rho)
        if f is None:
            cap = self.G + 0.5 * rho * np.eye(self.G.shape[0])
            f, _ = self._cho_factor(cap, lower=True, check_finite=False)
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
    relative to ||2 A^T y||. An iteration is one product with A and one
    with A^T, both row-wise CSR products; the iterates live in buffers
    allocated once per solve. The step size, restart test and stopping
    norm are `_dot`s, so no BLAS reduction reaches a decision.
    """
    A, y = _check_problem(A, y)
    options = options or SolverOptions()
    n = A.shape[1]
    # both products row by row: A^T is CSR for free, and a CSR copy of A
    # turns the scatter-add of A z into gathers, with the same sums in the
    # same order
    At = A.T
    A = A.tocsr()
    L = _lipschitz(A, At)
    if L == 0.0:  # A == 0: any feasible point is optimal
        return SolverResult(np.zeros(n), 0, True)
    step2 = 2.0 / L  # the step 1/L times the 2 of the gradient 2 A^T (A z - y)
    Aty2 = 2.0 * (At @ y)
    scale = max(math.sqrt(_dot(Aty2, Aty2)), options.abs_tol)
    x, x_new, z, dx = (np.zeros(n) for _ in range(4))
    t_mom = 1.0
    converged = False
    it = 0
    for it in range(1, options.max_iters + 1):
        r = A @ z
        r -= y
        grad = At @ r
        grad *= step2
        np.subtract(z, grad, out=x_new)
        np.maximum(0.0, x_new, out=x_new)
        np.subtract(x_new, x, out=dx)
        z -= x_new
        # adaptive restart on momentum pointing uphill: (z - x_new) . (x_new - x) > 0
        if _dot(z, dx) > 0.0:
            t_mom = 1.0
            np.copyto(z, x_new)
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            dx *= (t_mom - 1.0) / t_new
            np.add(x_new, dx, out=z)
            t_mom = t_new
        x, x_new = x_new, x
        if it % CHECK_EVERY == 0 or it == options.max_iters:
            r = A @ x
            r -= y
            g = At @ r
            g *= 2.0
            # projected gradient: at x = 0 only a negative component violates KKT
            np.minimum(g, 0.0, out=g, where=x <= 0.0)
            if math.sqrt(_dot(g, g)) <= options.rel_tol * scale:
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
    with safeguarded type-II Anderson acceleration (module docstring).

    Splitting: z = [B x; x] with the block soft threshold on the group
    rows and the orthant projection on the identity block; the x-update
    is the workspace's Woodbury solve at the current penalty. The
    iteration runs on the pre-prox point w = relax C x + (1 - relax) z + u:
    z = prox(w) and the scaled dual u = w - z are functions of w, so one
    ADMM iteration is a map w -> T(w) = w + relax (C x - z) whose fixed
    points are the ADMM solutions.

    Every ANDERSON_PERIOD-th iteration records the pair (f, T(w)), with
    f = C x - z, and extrapolates from the last ANDERSON_MEMORY differences
    of both: it solves min ||f - dF gamma|| by its Tikhonov-regularized
    normal equations (float64 Gram matrix and solve, float32 history rows
    and gemv products) and steps to T(w) - dG gamma. The iterations in
    between are plain steps w = T(w) that touch no history. An
    accelerated point whose ||f||^2 exceeds SAFEGUARD_GROWTH times the
    previous point's is undone: the iteration resumes from the saved plain
    step and the history is cleared, as it is when residual balancing
    changes rho. On the 8 full-scale problems of master seeds 1000-1003
    and 7919000-7919003 (trial 0) the period of 3 takes TV 7210
    iterations in all against 6530 with a step every iteration, and
    group-LASSO 4120 against 4370, at 0.67 of the median solve time.

    A workspace passed in must have been built for reg's kind, its groups
    (indptr and members) and A (shape, indptr, indices and data);
    otherwise ConfigurationError is raised.

    The solve runs on y and lambda divided by unit, the power of two that
    brings max(|2 A^T y|, lambda) into [1, 2), and so do the abs_tol floors
    of the stopping rule: the float64 arithmetic is that of the unscaled
    problem, and the float32 history cannot overflow or underflow.
    alpha_hat is scaled back before the snap to zero.

    Convergence and residual balancing are judged every CHECK_EVERY
    iterations on the plain ADMM step from the current point, with every
    norm a `_dot`. All vectors live in buffers allocated once per solve;
    group j's rows are column j of a (width, groups) view, so the block
    soft threshold is a column norm and a broadcast multiply.
    """
    A, y = _check_problem(A, y)
    options = options or SolverOptions()
    if workspace is None:
        workspace = RegularizedWorkspace(A, reg, options)
    ws = workspace
    built = (ws.indptr, ws.members, ws.A.indptr, ws.A.indices, ws.A.data)
    given = (reg.indptr, reg.members, A.indptr, A.indices, A.data)
    if (ws.kind, ws.A.shape) != (reg.kind, A.shape) or not all(map(np.array_equal, built, given)):
        raise ConfigurationError(
            f"workspace built for {ws.kind} with {ws.n_groups} groups and A{ws.A.shape}, "
            f"solving {reg.kind} with {reg.indptr.size - 1} groups and A{A.shape}: "
            "the kind, the groups and the entries of A must all be equal"
        )
    n = ws.n
    posv, sgemv = ws._posv, ws._sgemv
    Aty2 = 2.0 * (A.T @ y)
    # the problem divided by unit, a power of two (see the docstring)
    top = max(float(np.abs(Aty2).max(initial=0.0)), reg.lam)
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < math.inf else 1.0
    Aty2 /= unit
    lam = reg.lam / unit
    eps_dual_floor = np.sqrt(n) * options.abs_tol / unit
    Aty2_norm = math.sqrt(_dot(Aty2, Aty2))
    rho = options.rho
    relax = OVER_RELAX
    theta = lam / rho  # block soft-threshold radius
    m_total = ws.m_groups + n  # real stacked rows; the padding is not counted
    eps_pri_floor = np.sqrt(m_total) * options.abs_tol / unit
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
    # differences, each row the float32 rounding of a float64 difference,
    # their Gram matrix, and dF f at the previous recorded point
    dF = np.empty((ANDERSON_MEMORY, n_stack), dtype=np.float32)
    dG = np.empty((ANDERSON_MEMORY, n_stack), dtype=np.float32)
    gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
    Ff_prev = np.zeros(ANDERSON_MEMORY)
    diag = [0.0] * ANDERSON_MEMORY  # Gram diagonal, for the regularization
    eye = np.eye(ANDERSON_MEMORY)
    stored = 0           # difference pairs written since the last reset
    f_prev = None        # residual of the last recorded point; g_prev is its plain step
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
            cx_norm = math.sqrt(_dot(f, f))
        f -= z
        np.multiply(f, relax, out=g)
        g += w
        if check:
            prox(g, z_new)
            np.subtract(z, z_new, out=scratch)
            dual = ws.Ct @ scratch
            r_dual = rho * math.sqrt(_dot(dual, dual))
            scratch += f  # C x - z_new
            r_pri = math.sqrt(_dot(scratch, scratch))
            eps_pri = eps_pri_floor + options.rel_tol * max(
                cx_norm, math.sqrt(_dot(z_new, z_new)))
            np.subtract(g, z_new, out=scratch)  # the plain step's u
            dual = ws.Ct @ scratch
            dual_ref = rho * math.sqrt(_dot(dual, dual))
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
                theta = lam / rho
                scratch /= factor
                np.add(z_new, scratch, out=w)
                stored, f_prev, accelerated = 0, None, False
                continue
        extrapolate = it % ANDERSON_PERIOD == 0
        if accelerated or extrapolate:
            res = _dot(f, f)
        if accelerated and res > SAFEGUARD_GROWTH * res_prev:
            # safeguard: resume from the plain step saved before the
            # extrapolation and drop the history
            rejected += 1
            w, g_prev = g_prev, w
            stored, f_prev, accelerated = 0, None, False
            continue
        accelerated = False
        if not extrapolate:
            w, g = g, w  # plain step
            continue
        np.copyto(w, g)
        if f_prev is not None:
            slot = stored % ANDERSON_MEMORY
            d = dF[slot]
            np.subtract(f, f_prev, out=d)
            np.subtract(g, g_prev, out=dG[slot])
            stored += 1
            k = min(stored, ANDERSON_MEMORY)
            # one pass over dF: the right-hand side dF f, and the new Gram
            # row dF d = dF f - dF f_prev (rows other than slot unchanged).
            # dF[:k].T is Fortran-ordered, so no copy, and trans=1 keeps a
            # single row off numpy's dot path
            Ff = sgemv(1.0, dF[:k].T, f, trans=1)
            row = Ff - Ff_prev[:k]
            row[slot] = diag[slot] = _dot(d, d)
            gram[slot, :k] = row
            gram[:k, slot] = row
            Ff_prev[:k] = Ff
            H = gram[:k, :k] + eye[:k, :k] * (1e-10 * sum(diag[:k]))
            _, gamma, info = posv(H, Ff, lower=1, overwrite_a=1, overwrite_b=1)
            if info == 0:
                np.subtract(g, sgemv(1.0, dG[:k].T, gamma), out=w)
                accelerated = True
        f_prev = f
        g, g_prev = g_prev, g
        res_prev = res
    alpha = np.maximum(0.0, x)
    alpha *= unit
    # snap sub-tolerance residue to exact zeros so the sparsity pattern and
    # the KKT certificate see the identified active set
    snap = max(1e-12, 10.0 * options.rel_tol) * max(1.0, alpha.max(initial=0.0))
    alpha[alpha < snap] = 0.0
    return SolverResult(alpha, it, converged, rejected, rho_changes)


def _min_norm_subgradient(A, y, reg: RegularizerSpec | None, x):
    """Minimal-norm orthant-restricted subgradient, by projected FISTA.

    The smooth and active-group parts of the subgradient are fixed; for
    groups with B_j x = 0 the subgradient contribution B_j^T v_j ranges
    over the ball ||v_j|| <= lam, and the restricted residual norm is
    minimized over those v_j: h(v) = 0.5 ||restricted(g_fixed + Bf^T v)||^2
    by projected FISTA with adaptive restart (Beck & Teboulle, SIAM J.
    Imaging Sci. 2009; O'Donoghue & Candes, Found. Comput. Math. 2015).
    The step is 1 / (||Bf||_1 ||Bf||_inf), which bounds ||Bf||_2^2 and so
    the Lipschitz constant of h's gradient. The loop stops when
    KKT_STALL_STEPS steps lower the least h met by at most KKT_STALL_GAIN
    relative, or after KKT_MAX_STEPS steps. Every v met is feasible, so
    the norm at the least h is an upper bound on the minimal norm.
    reg=None is plain NNLS.
    """
    g0 = 2.0 * (A.T @ (A @ x - y))
    pos = x > 0.0

    def restricted(s):
        return np.where(pos, s, np.minimum(s, 0.0))

    if reg is None or reg.lam == 0.0:
        return np.linalg.norm(restricted(g0))

    B = build_group_operator(reg, x.shape[0])
    Bx = B @ x
    groups = reg.indptr.size - 1
    norms = np.linalg.norm(Bx.reshape(-1, groups), axis=0)
    # groups whose difference norm is at numerical-noise level are treated
    # as inactive (ball-constrained); fixing a direction from noise would
    # inject an O(lambda) phantom subgradient
    active = norms > 1e-7 * max(1.0, float(np.abs(Bx).max(initial=0.0)))
    group_of_row = np.arange(B.shape[0]) % groups
    fixed_rows = active[group_of_row]
    fixed = np.zeros(B.shape[0])
    fixed[fixed_rows] = reg.lam * Bx[fixed_rows] / norms[group_of_row[fixed_rows]]
    g_fixed = g0 + B.T @ fixed

    # the rows of the inactive groups, each group's v_j in the ball of radius lam
    free = ~fixed_rows
    if not np.any(free):
        return np.linalg.norm(restricted(g_fixed))

    Bf = B[free]
    Bft = Bf.T.tocsr()
    absolute = abs(Bf)
    step = 1.0 / max(float(absolute.sum(axis=0).max()) * float(absolute.sum(axis=1).max()), 1e-300)
    free_group = group_of_row[free]
    # s is affine in v, so s at the extrapolated point z is the same
    # combination of the s at v_new and v: one product with Bf^T per step
    v = z = np.zeros(Bf.shape[0])
    s_v = s_z = g_fixed
    t, r = 1.0, restricted(g_fixed)
    best = mark = _dot(r, r)  # 2 h
    for k in range(1, KKT_MAX_STEPS + 1):
        v_new = z - step * (Bf @ restricted(s_z))
        gn = np.sqrt(np.bincount(free_group, v_new * v_new, groups))[free_group]
        v_new *= np.minimum(1.0, reg.lam / np.maximum(gn, 1e-300))
        s_new = g_fixed + Bft @ v_new
        r = restricted(s_new)
        best = min(best, _dot(r, r))
        if (z - v_new) @ (v_new - v) > 0.0:  # momentum points uphill: restart
            t, z, s_z = 1.0, v_new, s_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            z = v_new + beta * (v_new - v)
            s_z = s_new + beta * (s_new - s_v)
            t = t_new
        v, s_v = v_new, s_new
        if k % KKT_STALL_STEPS == 0:
            if mark - best <= KKT_STALL_GAIN * mark:
                break
            mark = best
    return math.sqrt(best)


def kkt_residual(A, y, reg: RegularizerSpec | None, alpha_hat) -> float:
    """Norm of the minimal orthant-restricted subgradient at alpha_hat.

    Zero iff alpha_hat is optimal: coordinates with alpha>0 need a zero
    subgradient component, coordinates at zero need a non-negative one.
    """
    A, y = _check_problem(A, y)
    x = np.asarray(alpha_hat, dtype=float)
    if np.any(x < 0):
        raise ValueError("alpha_hat must be non-negative")
    return float(_min_norm_subgradient(A, y, reg, x))

