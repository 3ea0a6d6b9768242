import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp

from oracles import objective_value, regularizer_value, subgradient_oracle
from pilothop import harness, solvers, sysmodel
from pilothop.errors import ConfigurationError


def random_instance(rng, m=12, n=8, k=3, noise=0.05):
    """Non-negative sensing matrix and a noisy sparse non-negative target."""
    A = np.abs(rng.standard_normal((m, n)))
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.uniform(0.5, 1.5, k)
    y = A @ x + noise * rng.standard_normal(m)
    return A, y, x


def chain_neighbors(n):
    """Each coordinate grouped with its lattice neighbors, self included."""
    return [
        np.array(sorted({j, max(j - 1, 0), min(j + 1, n - 1)}))
        for j in range(n)
    ]


def contiguous_groups(n, size):
    return [np.arange(i, min(i + size, n)) for i in range(0, n, size)]


TIGHT = solvers.SolverOptions(rel_tol=1e-9, abs_tol=1e-12)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            solvers.RegularizerSpec("ridge")

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            solvers.glasso_spec([np.array([0])], -0.1)

    def test_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            solvers.glasso_spec([np.array([], dtype=np.int64)], 0.1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            solvers.nnls_solve(np.ones((3, 2)), np.ones(4))


class TestOptionsValidation:
    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ConfigurationError, match="rho"):
            solvers.SolverOptions(rho=rho)

    @pytest.mark.parametrize("relax", [0.0, 2.0, -0.5, 2.5, float("nan")])
    def test_rejects_bad_over_relax(self, relax):
        with pytest.raises(ConfigurationError, match="over_relax"):
            solvers.SolverOptions(over_relax=relax)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, name, tol):
        with pytest.raises(ConfigurationError, match=name):
            solvers.SolverOptions(**{name: tol})

    def test_accepts_interior_values(self):
        opts = solvers.SolverOptions(rho=1e-3, over_relax=1.0)
        assert opts.rho == 1e-3 and opts.over_relax == 1.0

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_spec_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ConfigurationError, match="lambda"):
            solvers.tv_spec(chain_neighbors(4), lam)
        with pytest.raises(ConfigurationError, match="lambda"):
            solvers.glasso_spec(contiguous_groups(4, 2), lam)


def dense_penalty_gram(reg, n):
    """B^T B built entry by entry from the group definition."""
    BtB = np.zeros((n, n))
    for j, g in enumerate(reg.groups):
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
    starts = [0]
    row = 0
    for j, g in enumerate(reg.groups):
        for i in g:
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
            row += 1
        starts.append(row)
    B = sp.csr_matrix((vals, (rows, cols)), shape=(row, n))
    return B, np.asarray(starts, dtype=np.int64)


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
        reg = (solvers.tv_spec if kind == "tv" else solvers.glasso_spec)(
            sysmodel.neighbor_sets(topo, r), 0.06)
        B, starts = solvers.build_group_operator(reg, side * side)
        B_ref, starts_ref = loop_group_operator(reg, side * side)
        assert B.shape == B_ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(B, name), getattr(B_ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert starts.dtype == starts_ref.dtype and np.array_equal(starts, starts_ref)


def grid_neighbors(side):
    """3x3 lattice neighborhoods on a side x side grid, self included."""
    sets = []
    for k in range(side * side):
        r, c = divmod(k, side)
        sets.append(np.array(sorted(
            rr * side + cc
            for rr in range(max(r - 1, 0), min(r + 2, side))
            for cc in range(max(c - 1, 0), min(c + 2, side))
        )))
    return sets


class TestXUpdate:
    @pytest.mark.parametrize(
        "kind, groups, m, n",
        [
            ("tv", chain_neighbors(8), 12, 8),
            ("glasso", contiguous_groups(8, 3), 12, 8),
            ("tv", grid_neighbors(6), 10, 36),
            ("glasso", grid_neighbors(6), 10, 36),
            # B has no rows, so B^T B + I = I
            ("tv", [np.array([j]) for j in range(20)], 10, 20),
        ],
        ids=["tv-tall", "glasso-tall", "tv-wide", "glasso-wide", "tv-singletons"],
    )
    def test_matches_dense_solve(self, kind, groups, m, n):
        rng = np.random.default_rng(m * n)
        A = np.abs(rng.standard_normal((m, n)))
        reg = (solvers.tv_spec if kind == "tv" else solvers.glasso_spec)(groups, 0.1)
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
        reg = solvers.tv_spec(sysmodel.neighbor_sets(topo, cfg.r), 0.06)
        A = a.a / a.a.max()
        tracemalloc.start()
        try:
            ws = solvers.RegularizedWorkspace(A, reg, solvers.SolverOptions())
            for rho in (0.5, 1.0, 2.0):
                ws.factor(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"workspace peak {peak / 1e6:.1f} MB"


def reference_admm(A, y, reg, options):
    """The plain ADMM of regularized_solve, without acceleration, as a reference.

    Dense stacked operator C = [B; I] built from the group definition, a
    dense Cholesky solve of (2 A^T A + rho C^T C) x = rhs at every iteration
    (factored once per penalty value) and the block soft threshold by group
    index; same splitting, over-relaxation, residual-balancing rho policy,
    stopping rule and snapping.
    Returns (alpha_hat, iterations, converged, rho_changes).
    """
    n = A.shape[1]
    rows, owner = [], []
    for j, g in enumerate(reg.groups):
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
    relax = options.over_relax
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
        norms = np.sqrt(np.bincount(owner, wg * wg, minlength=len(reg.groups)))
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
    reg = (solvers.tv_spec if kind == "tv" else solvers.glasso_spec)(groups, lam)
    return ctx.a_norm, y, reg


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
        A = np.abs(rng.standard_normal(a.a.shape)) if dense_a else a.a / a.a.max()
        alpha = np.zeros(cfg.K)
        alpha[[18, 19, 26, 27, 45]] = 1.0
        y = A @ alpha + 0.05 * rng.standard_normal(A.shape[0])
        groups = sysmodel.neighbor_sets(topo, r)
        reg = (solvers.tv_spec if kind == "tv" else solvers.glasso_spec)(groups, 0.06)
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


class TestRegularizedSolve:
    def test_lambda_zero_reduces_to_nnls(self):
        rng = np.random.default_rng(3)
        A, y, _ = random_instance(rng)
        reg = solvers.tv_spec(chain_neighbors(A.shape[1]), 0.0)
        res_r = solvers.regularized_solve(A, y, reg, TIGHT)
        res_n = solvers.nnls_solve(A, y, TIGHT)
        f_r, f_n = (objective_value(A, y, None, r.alpha_hat) for r in (res_r, res_n))
        assert f_r == pytest.approx(f_n, rel=1e-6)

    def test_huge_glasso_lambda_gives_zero(self):
        rng = np.random.default_rng(4)
        A, y, _ = random_instance(rng)
        lam = 100.0 * np.linalg.norm(2.0 * A.T @ y)
        reg = solvers.glasso_spec(contiguous_groups(A.shape[1], 2), lam)
        res = solvers.regularized_solve(A, y, reg, TIGHT)
        assert np.array_equal(res.alpha_hat, np.zeros(A.shape[1]))

    def test_huge_tv_lambda_gives_constant(self):
        # differences fully penalized: solution is c*1 with the closed-form c
        rng = np.random.default_rng(5)
        A, y, _ = random_instance(rng, noise=0.0)
        n = A.shape[1]
        reg = solvers.tv_spec(chain_neighbors(n), 1e6)
        res = solvers.regularized_solve(A, y, reg, TIGHT)
        ones = np.ones(n)
        c = max(0.0, float((A @ ones) @ y) / float((A @ ones) @ (A @ ones)))
        assert np.allclose(res.alpha_hat, c * ones, atol=1e-4)

    def test_objective_matches_subgradient_oracle(self):
        rng = np.random.default_rng(6)
        for kind in ("tv", "glasso"):
            A, y, _ = random_instance(rng)
            n = A.shape[1]
            if kind == "tv":
                reg = solvers.tv_spec(chain_neighbors(n), 0.3)
            else:
                reg = solvers.glasso_spec(contiguous_groups(n, 2), 0.3)
            res = solvers.regularized_solve(A, y, reg, TIGHT)
            _, f_oracle = subgradient_oracle(A, y, reg, 20_000, x0=res.alpha_hat * 0)
            f_admm = objective_value(A, y, reg, res.alpha_hat)
            assert f_admm <= f_oracle * (1 + 1e-3) + 1e-9
            assert abs(f_admm - f_oracle) / max(f_oracle, 1e-9) < 1e-2

    def test_kkt_residual_small_at_solution(self):
        rng = np.random.default_rng(7)
        A, y, _ = random_instance(rng)
        reg = solvers.tv_spec(chain_neighbors(A.shape[1]), 0.2)
        res = solvers.regularized_solve(A, y, reg, TIGHT)
        scale = np.linalg.norm(2.0 * A.T @ y)
        assert solvers.kkt_residual(A, y, reg, res.alpha_hat) < 1e-5 * scale

    def test_kkt_residual_large_off_solution(self):
        rng = np.random.default_rng(8)
        A, y, x = random_instance(rng)
        reg = solvers.tv_spec(chain_neighbors(A.shape[1]), 0.2)
        bad = np.abs(x) + 1.0
        scale = np.linalg.norm(2.0 * A.T @ y)
        assert solvers.kkt_residual(A, y, reg, bad) > 1e-3 * scale

    def test_penalty_value_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        A, y, _ = random_instance(rng, noise=0.1)
        groups = chain_neighbors(A.shape[1])
        prev = np.inf
        for lam in (0.05, 0.2, 0.8, 3.2):
            reg = solvers.tv_spec(groups, lam)
            res = solvers.regularized_solve(A, y, reg, TIGHT)
            # penalty measured at unit strength for comparability
            unit = regularizer_value(solvers.tv_spec(groups, 1.0), res.alpha_hat)
            assert unit <= prev + 1e-7
            prev = unit

    def test_workspace_reuse_is_bit_identical(self):
        rng = np.random.default_rng(10)
        A, y1, _ = random_instance(rng)
        _, y2, _ = random_instance(rng)
        reg = solvers.glasso_spec(contiguous_groups(A.shape[1], 2), 0.3)
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

    def test_outputs_exactly_nonnegative_and_snapped(self):
        rng = np.random.default_rng(11)
        A, y, _ = random_instance(rng)
        reg = solvers.tv_spec(chain_neighbors(A.shape[1]), 0.1)
        res = solvers.regularized_solve(A, y, reg)
        assert np.all(res.alpha_hat >= 0.0)
        nz = res.alpha_hat[res.alpha_hat > 0]
        if nz.size:
            # the snap rule leaves no sub-tolerance residue behind
            assert nz.min() >= 1e-12 * max(1.0, res.alpha_hat.max())


def loop_regularizer_value(reg, x):
    """regularizer_value written as a loop over the groups."""
    total = 0.0
    for k, g in enumerate(reg.groups):
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
        reg = (solvers.tv_spec if kind == "tv" else solvers.glasso_spec)(
            sysmodel.neighbor_sets(topo, r), 0.06)
        x = np.where(rng.random(side * side) < 0.2, rng.uniform(0.0, 1.5, side * side), 0.0)
        got = regularizer_value(reg, x)
        want = loop_regularizer_value(reg, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        if r == 0.1 and side == 8:
            assert (got == 0.0) == (kind == "tv")  # singleton TV has no differences

    def test_glasso_by_hand(self):
        x = np.array([3.0, 4.0, 1.0])
        reg = solvers.glasso_spec([np.array([0, 1]), np.array([2])], 2.0)
        assert regularizer_value(reg, x) == pytest.approx(2.0 * (5.0 + 1.0))

    def test_tv_by_hand(self):
        # neighbors {j-1, j, j+1}: sqrt sums of squared forward/backward gaps
        x = np.array([1.0, 2.0, 4.0])
        reg = solvers.tv_spec(chain_neighbors(3), 1.0)
        expected = 1.0 + np.sqrt(1.0 + 4.0) + 2.0
        assert regularizer_value(reg, x) == pytest.approx(expected)
