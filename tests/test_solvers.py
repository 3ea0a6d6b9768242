import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp

from oracles import (
    chain_neighbors, contiguous_groups, duality_gap, nnls_fista_dense, objective_value, pack,
    random_instance, regularizer_value, unpack,
)
from pilothop import harness, solvers, sysmodel
from pilothop.errors import ConfigurationError


TIGHT = solvers.SolverOptions(rel_tol=1e-9, abs_tol=1e-12)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            solvers.RegularizerSpec("ridge", *contiguous_groups(2, 1), 0.1)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            solvers.RegularizerSpec("glasso", *pack([[0]]), -0.1)

    @pytest.mark.parametrize(
        "indptr, members",
        [
            (np.arange(1, 4), np.arange(3)),
            (np.arange(3), np.arange(3)),
            (np.array([0, 2, 1, 3]), np.arange(3)),
            (np.array([0, 1, 1, 3]), np.arange(3)),
            (np.zeros(1, dtype=np.int64), np.arange(0)),
            (np.array([0, 2]), np.arange(2).reshape(2, 1)),
            (np.array([0, 2]), np.arange(2.0)),
        ],
        ids=["start", "end", "decreasing", "empty-group", "no-group", "2d-members",
             "float-members"],
    )
    def test_rejects_malformed_groups(self, indptr, members):
        with pytest.raises(ConfigurationError):
            solvers.RegularizerSpec("glasso", indptr, members, 0.1)

    def test_compares_and_hashes_by_identity(self):
        a, b = (solvers.RegularizerSpec("tv", *chain_neighbors(4), 0.1) for _ in range(2))
        assert a == a and a != b
        assert {a, b, a} == {a, b}

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            solvers.nnls_solve(np.ones((3, 2)), np.ones(4))

    def test_rejects_stored_nan_in_sparse_a(self):
        A = sp.csc_matrix(np.eye(3))
        A.data[1] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            solvers.nnls_solve(A, np.ones(3))


class TestOptionsValidation:
    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ConfigurationError, match="rho"):
            solvers.SolverOptions(rho=rho)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, name, tol):
        with pytest.raises(ConfigurationError, match=name):
            solvers.SolverOptions(**{name: tol})

    def test_accepts_interior_values(self):
        opts = solvers.SolverOptions(rho=1e-3)
        assert opts.rho == 1e-3

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_spec_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ConfigurationError, match="lambda"):
            solvers.RegularizerSpec("tv", *chain_neighbors(4), lam)
        with pytest.raises(ConfigurationError, match="lambda"):
            solvers.RegularizerSpec("glasso", *contiguous_groups(4, 2), lam)


def dense_penalty_gram(reg, n):
    """B^T B built entry by entry from the group definition."""
    BtB = np.zeros((n, n))
    for j, g in enumerate(unpack(reg)):
        for i in g:
            if reg.kind == solvers.GLASSO:
                BtB[i, i] += 1.0
            elif i != j:
                d = np.zeros(n)
                d[j], d[i] = 1.0, -1.0
                BtB += np.outer(d, d)
    return BtB


def loop_group_operator(reg, n):
    """build_group_operator written as a loop over the stacked rows."""
    rows, cols, vals = [], [], []
    sets = unpack(reg)
    groups = len(sets)
    width = 0
    for j, g in enumerate(sets):
        s = 0  # the group's next row is padded row s*groups + j
        for i in g:
            row = s * groups + j
            if reg.kind == solvers.GLASSO:
                rows.append(row)
                cols.append(int(i))
                vals.append(1.0)
            elif i != j:
                rows += [row, row]
                cols += [j, int(i)]
                vals += [1.0, -1.0]
            else:
                continue
            s += 1
        width = max(width, s)
    return sp.csr_matrix((vals, (rows, cols)), shape=(groups * width, n))


class TestGroupOperator:
    @pytest.mark.parametrize("kind", ["tv", "glasso"])
    @pytest.mark.parametrize(
        "side, r",
        [(36, 0.05), (18, 0.1), (8, 0.1)],
        ids=["36x36", "18x18", "singletons"],
    )
    def test_matches_loop(self, kind, side, r):
        cfg = sysmodel.SystemConfig(K=side * side, grid_side=side, T=6)
        topo = sysmodel.build_topology(cfg)
        reg = solvers.RegularizerSpec(kind, *sysmodel.neighbor_sets(topo, r), 0.06)
        B = solvers.build_group_operator(reg, side * side)
        B_ref = loop_group_operator(reg, side * side)
        assert B.shape == B_ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(B, name), getattr(B_ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def grid_neighbors(side):
    """3x3 lattice neighborhoods on a side x side grid, self included."""
    sets = []
    for k in range(side * side):
        r, c = divmod(k, side)
        sets.append(sorted(
            rr * side + cc
            for rr in range(max(r - 1, 0), min(r + 2, side))
            for cc in range(max(c - 1, 0), min(c + 2, side))
        ))
    return pack(sets)


class TestXUpdate:
    @pytest.mark.parametrize(
        "kind, groups, m, n",
        [
            ("tv", chain_neighbors(8), 12, 8),
            ("glasso", contiguous_groups(8, 3), 12, 8),
            ("tv", grid_neighbors(6), 10, 36),
            ("glasso", grid_neighbors(6), 10, 36),
            # B has no rows, so B^T B + I = I
            ("tv", pack([[j] for j in range(20)]), 10, 20),
        ],
        ids=["tv-tall", "glasso-tall", "tv-wide", "glasso-wide", "tv-singletons"],
    )
    def test_matches_dense_solve(self, kind, groups, m, n):
        rng = np.random.default_rng(m * n)
        A = np.abs(rng.standard_normal((m, n)))
        reg = solvers.RegularizerSpec(kind, *groups, 0.1)
        ws = solvers.RegularizedWorkspace(A, reg, solvers.SolverOptions())
        M = dense_penalty_gram(reg, n) + np.eye(n)
        for k in range(-6, 7):
            rho = 2.0**k
            rhs = rng.standard_normal(n)
            x = ws.x_update(rhs, rho)
            x_ref = np.linalg.solve(2.0 * A.T @ A + rho * M, rhs)
            assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref), rho

    def test_paper_scale_memory(self):
        # a dense x-update (n x n Gram, penalty matrix, one n x n Cholesky
        # factor per rho) peaks at 81 MB here
        cfg = sysmodel.SystemConfig()
        topo, _, _, a = sysmodel.build_system(cfg, np.random.default_rng(0))
        reg = solvers.RegularizerSpec("tv", *sysmodel.neighbor_sets(topo, cfg.r), 0.06)
        A = a / a.max()
        tracemalloc.start()
        try:
            ws = solvers.RegularizedWorkspace(A, reg, solvers.SolverOptions())
            for rho in (0.5, 1.0, 2.0):
                ws.factor(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"workspace peak {peak / 1e6:.1f} MB"

    def test_paper_scale_solve_memory(self):
        # one full-scale group-LASSO solve on a built and factored workspace:
        # a float64 Anderson history (2 x 20 stacked rows) peaks at 5.1 MB
        config = harness.ExperimentConfig(master_seed=1000)
        ctx = harness.build_context(config)
        _, _, y = harness.simulate_trial(ctx, 0)
        reg = solvers.RegularizerSpec(
            "glasso", *sysmodel.neighbor_sets(ctx.topology, config.system.r), 0.06)
        options = config.solver_options()
        ws = solvers.RegularizedWorkspace(ctx.a_norm, reg, options)
        ws.factor(options.rho)
        tracemalloc.start()
        try:
            res = solvers.regularized_solve(ctx.a_norm, y, reg, options, workspace=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 3.5e6, f"solve peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_glasso_w_is_scaled_a_transpose(self, quick):
        # M = B^T B + I is diagonal for group-LASSO, so W = M^-1 A^T is A^T
        # with its rows scaled: the pbtrs solve on the dense A^T, without it
        cfg = sysmodel.SystemConfig(**(harness.QUICK_SYSTEM if quick else {}))
        topo, _, _, a = sysmodel.build_system(cfg, np.random.default_rng(0))
        A = a / a.max()
        reg = solvers.RegularizerSpec("glasso", *sysmodel.neighbor_sets(topo, cfg.r), 0.06)
        ws = solvers.RegularizedWorkspace(A, reg, solvers.SolverOptions())
        m_diag = np.diag(dense_penalty_gram(reg, cfg.K)) + 1.0
        chol = scipy.linalg.cholesky_banded(m_diag[None, :], lower=True)
        w_ref, info = scipy.linalg.lapack.dpbtrs(chol, A.T.toarray(), lower=1)
        assert info == 0
        At = A.T.tocsr()
        assert sp.isspmatrix_csr(ws.W)
        assert np.array_equal(ws.W.indptr, At.indptr)
        assert np.array_equal(ws.W.indices, At.indices)
        np.testing.assert_allclose(ws.W.toarray(), w_ref, rtol=1e-15, atol=0)
        np.testing.assert_allclose(ws.G, A @ w_ref, rtol=1e-13, atol=0)


def reference_admm(A, y, reg, options):
    """The plain ADMM of regularized_solve, without acceleration, as a reference.

    Dense stacked operator C = [B; I] built from the group definition, a
    dense Cholesky solve of (2 A^T A + rho C^T C) x = rhs at every iteration
    (factored once per penalty value) and the block soft threshold by group
    index; same splitting, over-relaxation, residual-balancing rho policy,
    stopping rule and snapping.
    Returns (alpha_hat, iterations, converged, rho_changes).
    """
    A = A.toarray() if sp.issparse(A) else A
    n = A.shape[1]
    rows, owner = [], []
    groups = unpack(reg)
    for j, g in enumerate(groups):
        for i in g:
            row = np.zeros(n)
            if reg.kind == solvers.GLASSO:
                row[i] = 1.0
            elif i != j:
                row[j], row[i] = 1.0, -1.0
            else:
                continue
            rows.append(row)
            owner.append(j)
    m_groups = len(rows)
    owner = np.array(owner, dtype=np.int64)
    C = np.vstack(rows + [np.eye(n)])
    AtA2 = 2.0 * A.T @ A
    CtC = C.T @ C
    Aty2 = 2.0 * A.T @ y
    theta = reg.lam
    relax = solvers.OVER_RELAX
    rho = options.rho
    factors = {}
    rho_changes = 0
    m_total = m_groups + n
    x = np.zeros(n)
    z = np.zeros(m_total)
    u = np.zeros(m_total)
    converged = False
    for it in range(1, options.max_iters + 1):
        if rho not in factors:
            factors[rho] = scipy.linalg.cho_factor(AtA2 + rho * CtC)
        x = scipy.linalg.cho_solve(factors[rho], Aty2 + rho * C.T @ (z - u))
        Cx = C @ x
        relaxed = relax * Cx + (1.0 - relax) * z
        w = relaxed + u
        z_old = z
        z = np.maximum(0.0, w)
        wg = w[:m_groups]
        norms = np.sqrt(np.bincount(owner, wg * wg, minlength=len(groups)))
        scale = np.maximum(0.0, 1.0 - (theta / rho) / np.maximum(norms, 1e-300))
        z[:m_groups] = wg * scale[owner]
        u = u + relaxed - z
        if it % solvers.CHECK_EVERY == 0 or it == options.max_iters:
            r_pri = np.linalg.norm(Cx - z)
            r_dual = rho * np.linalg.norm(C.T @ (z - z_old))
            eps_pri = np.sqrt(m_total) * options.abs_tol + options.rel_tol * max(
                np.linalg.norm(Cx), np.linalg.norm(z))
            eps_dual = np.sqrt(n) * options.abs_tol + options.rel_tol * max(
                rho * np.linalg.norm(C.T @ u), np.linalg.norm(Aty2))
            if r_pri <= eps_pri and r_dual <= eps_dual:
                converged = True
                break
            if r_pri > 10.0 * r_dual:
                rho, u = 2.0 * rho, u / 2.0
                rho_changes += 1
            elif r_dual > 10.0 * r_pri:
                rho, u = rho / 2.0, 2.0 * u
                rho_changes += 1
    alpha = np.maximum(0.0, x)
    snap = max(1e-12, 10.0 * options.rel_tol) * max(1.0, alpha.max(initial=0.0))
    alpha[alpha < snap] = 0.0
    return alpha, it, converged, rho_changes


# a plain solve tight enough to stand for the optimum: the default abs_tol
# (1e-9) would stop it before rel_tol is reached
TIGHT_REFERENCE = solvers.SolverOptions(rel_tol=1e-10, abs_tol=1e-15, max_iters=200_000)


def relative_kkt(A, y, reg, alpha):
    return solvers.kkt_residual(A, y, reg, alpha) / np.linalg.norm(2.0 * A.T @ y)


def quick_scale_problem(kind, lam):
    """A, y' and the regularizer of trial 0 of the --quick preset at seed 1."""
    config = harness.quick_preset(harness.ExperimentConfig(master_seed=1))
    ctx = harness.build_context(config)
    _, _, y = harness.simulate_trial(ctx, 0)
    groups = sysmodel.neighbor_sets(ctx.topology, config.system.r)
    return ctx.a_norm, y, solvers.RegularizerSpec(kind, *groups, lam)


class TestReferenceLoop:
    """The Anderson-accelerated regularized_solve against reference_admm, the
    plain loop, compared at the optimum rather than step by step: the
    accelerated solve converges in no more iterations than the plain one
    and its relative KKT residual is at most 10x the plain solve's. On the
    8x8 grid its objective is also within 1e-9 of a tight plain solve."""

    @staticmethod
    def check_optimum(A, y, reg, options, tight=True, unique=True):
        """Returns (result, plain iterations, plain rho changes)."""
        res = solvers.regularized_solve(A, y, reg, options)
        plain_alpha, plain_iters, plain_converged, plain_rho_changes = reference_admm(
            A, y, reg, options)
        assert res.converged and plain_converged
        assert res.iterations <= plain_iters, (res.iterations, plain_iters)
        kkt, kkt_plain = (relative_kkt(A, y, reg, a) for a in (res.alpha_hat, plain_alpha))
        assert kkt <= 10.0 * kkt_plain, (kkt, kkt_plain)
        f = objective_value(A, y, reg, res.alpha_hat)
        if tight:
            optimum, _, converged, _ = reference_admm(A, y, reg, TIGHT_REFERENCE)
            assert converged
            f_opt = objective_value(A, y, reg, optimum)
            assert abs(f - f_opt) <= 1e-9, f - f_opt
        else:
            # a tight plain solve takes 17k-34k iterations at quick scale;
            # compare with the plain solve, which stops at the same tolerance
            optimum = plain_alpha
            f_opt = objective_value(A, y, reg, optimum)
            assert abs(f - f_opt) <= 1e-7 * f_opt, (f - f_opt) / f_opt
        if unique:
            assert np.max(np.abs(res.alpha_hat - optimum)) <= 1e-4
        return res, plain_iters, plain_rho_changes

    @pytest.mark.parametrize(
        "kind, r, dense_a",
        [
            ("tv", 0.2, False),      # 3x3 neighborhoods: 3, 5 or 8 rows per group
            ("glasso", 0.2, False),  # M diagonal, W as sparse as A^T
            ("tv", 0.3, False),      # 5x5 minus corners: wider band of M
            ("glasso", 0.3, False),
            ("tv", 0.1, False),      # singleton neighbor sets: B has no rows
            ("tv", 0.2, True),       # dense A and W
        ],
        ids=["tv", "glasso", "tv-wide", "glasso-wide", "tv-singletons", "tv-dense-a"],
    )
    def test_matches_reference(self, kind, r, dense_a):
        cfg = sysmodel.SystemConfig(K=64, grid_side=8, M=8, tau_p=4, T=4, r=r)
        topo, _, _, a = sysmodel.build_system(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        A = np.abs(rng.standard_normal(a.shape)) if dense_a else a / a.max()
        alpha = np.zeros(cfg.K)
        alpha[[18, 19, 26, 27, 45]] = 1.0
        y = A @ alpha + 0.05 * rng.standard_normal(A.shape[0])
        reg = solvers.RegularizerSpec(kind, *sysmodel.neighbor_sets(topo, r), 0.06)
        # with singleton sets the problem is NNLS with 16 rows and 64
        # columns: its minimizer is not unique, so alpha_hat is not compared
        self.check_optimum(A, y, reg, solvers.SolverOptions(), unique=r > 0.1)

    def test_safeguard_fires(self):
        # quick-scale TV at lambda = 0.2: the fixed-point residual grows
        # after some extrapolated steps, and the safeguard undoes them
        A, y, reg = quick_scale_problem("tv", 0.2)
        res, _, _ = self.check_optimum(A, y, reg, solvers.SolverOptions(), tight=False)
        assert res.rejected_steps > 0

    def test_rho_changes_mid_solve(self):
        # a far-off initial penalty: residual balancing halves rho several
        # times, and each change clears the history. Differences kept from
        # the old penalty would be extrapolated and then rejected one by one
        # by the safeguard, costing most of the saving over the plain loop
        A, y, reg = quick_scale_problem("tv", 0.06)
        res, plain_iters, plain_rho_changes = self.check_optimum(
            A, y, reg, solvers.SolverOptions(rho=1000.0), tight=False)
        assert res.rho_changes > 0 and plain_rho_changes > 0
        assert res.iterations <= 0.6 * plain_iters, (res.iterations, plain_iters)


class TestIterationBudget:
    """Regression gate on the accelerated solve's work: trial 0 of the
    --quick preset at seed 1, lambda = 0.06. With Anderson memory 20, a
    safeguard growth factor of 4 and an Anderson step every third
    iteration, TV takes 780 iterations and group-LASSO 250 (750 and 230
    with a step every iteration, 1220 and 240 with memory 10 and a factor
    of 1); the bounds were set for the every-iteration schedule with about
    10% for BLAS-dependent rounding. The solve must still meet the
    relative KKT bound that converged solves meet."""

    @pytest.mark.parametrize("kind, bound", [("tv", 810), ("glasso", 250)])
    def test_quick_scale_iterations(self, kind, bound):
        A, y, reg = quick_scale_problem(kind, 0.06)
        res = solvers.regularized_solve(A, y, reg)
        assert res.converged
        assert res.iterations <= bound, res.iterations
        assert relative_kkt(A, y, reg, res.alpha_hat) <= 4e-4

    @pytest.mark.parametrize("kind", ["tv", "glasso"])
    def test_history_is_read_once_per_period(self, kind):
        """An Anderson step reads the float32 history with two sgemv
        products, dF f and dG^T gamma, and runs once per ANDERSON_PERIOD
        iterations; the plain steps between touch no history. A step on
        every iteration makes about two calls per iteration."""
        A, y, reg = quick_scale_problem(kind, 0.06)
        ws = solvers.RegularizedWorkspace(A, reg, solvers.SolverOptions())
        sgemv, calls = ws._sgemv, []

        def counted(*args, **kwargs):
            calls.append(args)
            return sgemv(*args, **kwargs)

        ws._sgemv = counted
        res = solvers.regularized_solve(A, y, reg, workspace=ws)
        assert res.converged
        assert len(calls) <= 2 * -(-res.iterations // solvers.ANDERSON_PERIOD) + 2, (
            len(calls), res.iterations)


@pytest.mark.parametrize("kind", ["tv", "glasso"])
class TestScaleCovariance:
    """y and lambda times c scale the minimizer by c. The solve runs on the
    problem divided by a power of two, so a power-of-two c changes no
    rounding, and at any c the float32 Anderson history stays in range:
    unnormalized, it overflows at c = 1e20."""

    def test_power_of_two_is_bit_exact(self, kind):
        # abs_tol scales with c too: its floors in the stopping rule are
        # absolute, and at c = 1 they decide the TV solve's last check
        A, y, reg = quick_scale_problem(kind, 0.06)
        c = 2.0**70
        options = solvers.SolverOptions()
        base = solvers.regularized_solve(A, y, reg, options)
        res = solvers.regularized_solve(A, c * y, replace(reg, lam=c * reg.lam),
                                        replace(options, abs_tol=c * options.abs_tol))
        assert res.iterations == base.iterations
        assert np.array_equal(res.alpha_hat, c * base.alpha_hat)

    @pytest.mark.parametrize("c", [1e20, 1e40, 1e150])
    def test_far_scales_converge_to_the_scaled_solution(self, kind, c):
        A, y, reg = quick_scale_problem(kind, 0.06)
        base = solvers.regularized_solve(A, y, reg)
        res = solvers.regularized_solve(A, c * y, replace(reg, lam=c * reg.lam))
        assert base.converged and res.converged
        assert np.max(np.abs(res.alpha_hat / c - base.alpha_hat)) <= 1e-5
        assert abs(res.iterations - base.iterations) <= 0.1 * base.iterations, (
            res.iterations, base.iterations)


ROOT = Path(__file__).resolve().parent.parent

# Each probe prints, per solve, the trial, the method, the iterations,
# convergence and a hash of alpha_hat's bytes.
# The full-scale TV and group-LASSO solves of trials 0 and 1 at master
# seed 1000, as a campaign runs them.
ADMM_PROBE = """
import hashlib
from pilothop import harness
ctx = harness.build_context(harness.ExperimentConfig(master_seed=1000))
workspaces = {}
for trial in (0, 1):
    _, _, y = harness.simulate_trial(ctx, trial)
    for mi, reg in enumerate(ctx.reg_specs):
        if reg is not None:
            res = harness.solve_method(ctx, mi, y, workspaces)
            digest = hashlib.sha256(res.alpha_hat.tobytes()).hexdigest()
            print(trial, reg.kind, res.iterations, res.converged, digest)
"""
# The NNLS solve of trial 0 at master seed 1000 on a 102 x 102 grid, cut at
# 50 iterations (it converges at the 50th): K = 10404 is past the 10000
# entries above which OpenBLAS splits a dot product
NNLS_PROBE = """
import hashlib
from pilothop import harness, sysmodel
config = harness.ExperimentConfig(
    system=sysmodel.SystemConfig(K=102 * 102, grid_side=102),
    methods=(harness.MethodSpec("nnls"),), master_seed=1000, solver_max_iters=50)
ctx = harness.build_context(config)
_, _, y = harness.simulate_trial(ctx, 0)
res = harness.solve_method(ctx, 0, y, {})
print(0, "nnls", res.iterations, res.converged, hashlib.sha256(res.alpha_hat.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("probe, solves", [(ADMM_PROBE, 4), (NNLS_PROBE, 1)],
                         ids=["admm", "nnls"])
def test_solves_do_not_depend_on_the_blas_thread_count(probe, solves):
    """The same solves under OPENBLAS_NUM_THREADS=1 and =2 give the same
    alpha_hat bytes and iteration counts. OpenBLAS splits a long dot
    product across threads, which changes its rounding, so no BLAS
    reduction may reach a solver decision. OpenBLAS caps its threads at
    the CPUs it finds, so on a 1-CPU runner both runs may use one thread,
    and there the test cannot fail."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert [line.split()[3] for line in outputs[0]] == ["True"] * solves
    assert outputs[0] == outputs[1]


class TestNnls:
    def test_identity_nonnegative_target(self):
        y = np.array([1.0, 0.5, 2.0])
        res = solvers.nnls_solve(np.eye(3), y, TIGHT)
        assert res.converged
        assert np.allclose(res.alpha_hat, y, atol=1e-8)

    def test_identity_clips_negative_target(self):
        y = np.array([1.0, -2.0, 0.5])
        res = solvers.nnls_solve(np.eye(3), y, TIGHT)
        assert np.allclose(res.alpha_hat, [1.0, 0.0, 0.5], atol=1e-8)
        assert objective_value(np.eye(3), y, None, res.alpha_hat) == pytest.approx(4.0, rel=1e-8)

    def test_zero_matrix(self):
        res = solvers.nnls_solve(np.zeros((3, 2)), np.ones(3))
        assert np.array_equal(res.alpha_hat, np.zeros(2))
        assert res.converged and res.iterations == 0

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            A, y, _ = random_instance(rng)
            res = solvers.nnls_solve(A, y, TIGHT)
            x_ref, r_ref = scipy.optimize.nnls(A, y)
            f = objective_value(A, y, None, res.alpha_hat)
            assert f == pytest.approx(r_ref**2, rel=1e-6, abs=1e-10)
            assert np.all(res.alpha_hat >= 0)

    def test_output_scales_with_target(self):
        rng = np.random.default_rng(1)
        A, y, _ = random_instance(rng)
        a1 = solvers.nnls_solve(A, y, TIGHT).alpha_hat
        a3 = solvers.nnls_solve(A, 3.0 * y, TIGHT).alpha_hat
        assert np.allclose(a3, 3.0 * a1, atol=1e-6)

    def test_kkt_certificate_small_at_solution(self):
        rng = np.random.default_rng(2)
        A, y, _ = random_instance(rng)
        res = solvers.nnls_solve(A, y, TIGHT)
        assert solvers.kkt_residual(A, y, None, res.alpha_hat) < 1e-6


def assert_matches_dense(A, y, options, atol=1e-9):
    res = solvers.nnls_solve(A, y, options)
    ref = nnls_fista_dense(A, y, options)
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert np.abs(res.alpha_hat - ref.alpha_hat).max() <= atol
    return res, ref


class TestNnlsMatchesDense:
    """The sparse products of nnls_solve against the dense FISTA loop."""

    def test_full_scale_trials(self):
        # the solves of roc --config perfbench/configs/full_nnls.json --trials 3 --seed 1000
        config = harness.ExperimentConfig(
            methods=(harness.MethodSpec("nnls"),), n_trials=3, master_seed=1000)
        ctx = harness.build_context(config)
        for trial in range(3):
            _, _, y = harness.simulate_trial(ctx, trial)
            res, _ = assert_matches_dense(ctx.a_norm, y, config.solver_options())
            assert res.converged and res.iterations > 100

    def test_random_sparse(self):
        rng = np.random.default_rng(40)
        problems = []
        for _ in range(10):
            A = sp.random(30, 200, density=0.05, random_state=rng).toarray()
            x = np.zeros(200)
            x[rng.choice(200, 10, replace=False)] = rng.uniform(0.5, 1.5, 10)
            problems.append((A, A @ x + 0.01 * rng.standard_normal(30)))
        # and one with more than a quarter of its entries nonzero
        A, y, _ = random_instance(np.random.default_rng(41), m=20, n=40, k=5)
        A[A < 0.5] = 0.0
        problems.append((A, y))
        for A, y in problems:
            assert_matches_dense(A, y, TIGHT)


class TestRegularizedSolve:
    def test_lambda_zero_reduces_to_nnls(self):
        rng = np.random.default_rng(3)
        A, y, _ = random_instance(rng)
        reg = solvers.RegularizerSpec("tv", *chain_neighbors(A.shape[1]), 0.0)
        res_r = solvers.regularized_solve(A, y, reg, TIGHT)
        res_n = solvers.nnls_solve(A, y, TIGHT)
        f_r, f_n = (objective_value(A, y, None, r.alpha_hat) for r in (res_r, res_n))
        assert f_r == pytest.approx(f_n, rel=1e-6)

    def test_huge_glasso_lambda_gives_zero(self):
        rng = np.random.default_rng(4)
        A, y, _ = random_instance(rng)
        lam = 100.0 * np.linalg.norm(2.0 * A.T @ y)
        reg = solvers.RegularizerSpec("glasso", *contiguous_groups(A.shape[1], 2), lam)
        res = solvers.regularized_solve(A, y, reg, TIGHT)
        assert np.array_equal(res.alpha_hat, np.zeros(A.shape[1]))

    def test_huge_tv_lambda_gives_constant(self):
        # differences fully penalized: solution is c*1 with the closed-form c
        rng = np.random.default_rng(5)
        A, y, _ = random_instance(rng, noise=0.0)
        n = A.shape[1]
        reg = solvers.RegularizerSpec("tv", *chain_neighbors(n), 1e6)
        res = solvers.regularized_solve(A, y, reg, TIGHT)
        ones = np.ones(n)
        c = max(0.0, float((A @ ones) @ y) / float((A @ ones) @ (A @ ones)))
        assert np.allclose(res.alpha_hat, c * ones, atol=1e-4)

    def test_duality_gap_certifies_the_objective(self):
        # the gap is an upper bound on f - min f: tiny at the solution, and
        # at least f(1.01 alpha_hat) - min f one percent away from it
        rng = np.random.default_rng(6)
        for kind in ("tv", "glasso"):
            A, y, _ = random_instance(rng)
            n = A.shape[1]
            groups = chain_neighbors(n) if kind == "tv" else contiguous_groups(n, 2)
            reg = solvers.RegularizerSpec(kind, *groups, 0.3)
            alpha = solvers.regularized_solve(A, y, reg, TIGHT).alpha_hat
            assert duality_gap(A, y, reg, alpha) <= 1e-8 * objective_value(A, y, reg, alpha)
            off = 1.01 * alpha
            assert duality_gap(A, y, reg, off) >= 1e-4 * objective_value(A, y, reg, off)

    def test_kkt_residual_small_at_solution(self):
        rng = np.random.default_rng(7)
        A, y, _ = random_instance(rng)
        reg = solvers.RegularizerSpec("tv", *chain_neighbors(A.shape[1]), 0.2)
        res = solvers.regularized_solve(A, y, reg, TIGHT)
        scale = np.linalg.norm(2.0 * A.T @ y)
        assert solvers.kkt_residual(A, y, reg, res.alpha_hat) < 1e-5 * scale

    def test_kkt_residual_large_off_solution(self):
        rng = np.random.default_rng(8)
        A, y, x = random_instance(rng)
        reg = solvers.RegularizerSpec("tv", *chain_neighbors(A.shape[1]), 0.2)
        bad = np.abs(x) + 1.0
        scale = np.linalg.norm(2.0 * A.T @ y)
        assert solvers.kkt_residual(A, y, reg, bad) > 1e-3 * scale

    def test_penalty_value_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        A, y, _ = random_instance(rng, noise=0.1)
        groups = chain_neighbors(A.shape[1])
        prev = np.inf
        for lam in (0.05, 0.2, 0.8, 3.2):
            reg = solvers.RegularizerSpec("tv", *groups, lam)
            res = solvers.regularized_solve(A, y, reg, TIGHT)
            # penalty measured at unit strength for comparability
            unit = regularizer_value(solvers.RegularizerSpec("tv", *groups, 1.0), res.alpha_hat)
            assert unit <= prev + 1e-7
            prev = unit

    def test_workspace_reuse_is_bit_identical(self):
        rng = np.random.default_rng(10)
        A, y1, _ = random_instance(rng)
        _, y2, _ = random_instance(rng)
        reg = solvers.RegularizerSpec("glasso", *contiguous_groups(A.shape[1], 2), 0.3)
        ws = solvers.RegularizedWorkspace(A, reg, TIGHT)
        a_shared = [
            solvers.regularized_solve(A, y, reg, TIGHT, workspace=ws).alpha_hat
            for y in (y1, y2)
        ]
        a_fresh = [
            solvers.regularized_solve(A, y, reg, TIGHT).alpha_hat for y in (y1, y2)
        ]
        for s, f in zip(a_shared, a_fresh):
            assert np.array_equal(s, f)

    @pytest.mark.parametrize(
        "ws_kind, ws_groups, ws_n, ws_scale, kind, groups, n",
        [
            ("glasso", chain_neighbors(8), 8, 1.0, "tv", chain_neighbors(8), 8),
            ("glasso", contiguous_groups(8, 2), 8, 1.0, "glasso", contiguous_groups(8, 4), 8),
            ("glasso", contiguous_groups(8, 2), 8, 1.0, "glasso", contiguous_groups(10, 3), 10),
            # chain_neighbors(8) with group 3's member 4 swapped for 5
            ("tv", chain_neighbors(8), 8, 1.0, "tv", pack(
                [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 5], [3, 4, 5], [4, 5, 6], [5, 6, 7], [6, 7]]
            ), 8),
            ("tv", chain_neighbors(8), 8, 2.0, "tv", chain_neighbors(8), 8),
        ],
        ids=["kind", "group-count", "width", "members", "entries-of-a"],
    )
    def test_rejects_a_workspace_built_for_another_problem(
        self, ws_kind, ws_groups, ws_n, ws_scale, kind, groups, n
    ):
        rng = np.random.default_rng(12)
        A = np.abs(rng.standard_normal((12, max(ws_n, n))))
        ws = solvers.RegularizedWorkspace(
            ws_scale * A[:, :ws_n], solvers.RegularizerSpec(ws_kind, *ws_groups, 0.1), TIGHT)
        y = rng.standard_normal(12)
        reg = solvers.RegularizerSpec(kind, *groups, 0.1)
        with pytest.raises(ConfigurationError, match="workspace built for"):
            solvers.regularized_solve(A[:, :n], y, reg, TIGHT, workspace=ws)

    def test_outputs_exactly_nonnegative_and_snapped(self):
        rng = np.random.default_rng(11)
        A, y, _ = random_instance(rng)
        reg = solvers.RegularizerSpec("tv", *chain_neighbors(A.shape[1]), 0.1)
        res = solvers.regularized_solve(A, y, reg)
        assert np.all(res.alpha_hat >= 0.0)
        nz = res.alpha_hat[res.alpha_hat > 0]
        if nz.size:
            # the snap rule leaves no sub-tolerance residue behind
            assert nz.min() >= 1e-12 * max(1.0, res.alpha_hat.max())


def loop_regularizer_value(reg, x):
    """regularizer_value written as a loop over the groups."""
    total = 0.0
    for k, g in enumerate(unpack(reg)):
        if reg.kind == solvers.GLASSO:
            total += np.linalg.norm(x[g])
        else:
            others = g[g != k]
            if others.size:
                total += np.linalg.norm(x[k] - x[others])
    return reg.lam * total


class TestRegularizerValue:
    @pytest.mark.parametrize("kind", ["tv", "glasso"])
    @pytest.mark.parametrize(
        "side, r",
        [(36, 0.05), (18, 0.1), (8, 0.1)],
        ids=["36x36", "18x18", "singletons"],
    )
    def test_matches_loop(self, kind, side, r):
        cfg = sysmodel.SystemConfig(K=side * side, grid_side=side, T=6)
        topo = sysmodel.build_topology(cfg)
        rng = np.random.default_rng(side)
        reg = solvers.RegularizerSpec(kind, *sysmodel.neighbor_sets(topo, r), 0.06)
        x = np.where(rng.random(side * side) < 0.2, rng.uniform(0.0, 1.5, side * side), 0.0)
        got = regularizer_value(reg, x)
        want = loop_regularizer_value(reg, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        if r == 0.1 and side == 8:
            assert (got == 0.0) == (kind == "tv")  # singleton TV has no differences

    def test_glasso_by_hand(self):
        x = np.array([3.0, 4.0, 1.0])
        reg = solvers.RegularizerSpec("glasso", *pack([[0, 1], [2]]), 2.0)
        assert regularizer_value(reg, x) == pytest.approx(2.0 * (5.0 + 1.0))

    def test_tv_by_hand(self):
        # neighbors {j-1, j, j+1}: sqrt sums of squared forward/backward gaps
        x = np.array([1.0, 2.0, 4.0])
        reg = solvers.RegularizerSpec("tv", *chain_neighbors(3), 1.0)
        expected = 1.0 + np.sqrt(1.0 + 4.0) + 2.0
        assert regularizer_value(reg, x) == pytest.approx(expected)
