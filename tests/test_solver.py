import itertools
from dataclasses import replace

import numpy as np
import pytest

import adakern.solver as solver
from adakern.data import apply_minmax, fit_minmax, gen_step, gen_two_class_toy
from adakern.errors import DataError, ParameterError
from adakern.kernel import gaussian_gram
from adakern.linalg import SpectralProx
from adakern.solver import (
    DualState,
    SolverConfig,
    dual_gradient,
    dual_objective,
    lipschitz_svm,
    lipschitz_svr,
    project_exact,
    resolve_eta,
    solve,
)

from adakern.scale import train_scalable
from adakern.svm import train
from adakern.svr import solve_svr, svr_gradients, svr_objective, train_svr

from conftest import (
    adaptive_matrix,
    convergence_bound,
    dense_soft_threshold,
    lipschitz_pgd,
    lipschitz_svr_pgd,
    oracle_project,
    random_feasible,
    reference_pgd_qp,
    two_blobs,
)


def labels(n):
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def toy_kernel(rng, n, sigma=0.8):
    X = rng.normal(size=(n, 2))
    return gaussian_gram(X, sigma)


def adaptive_spectral_bound(n, C, tau, eta, lam_max_K):
    """Upper bound on lambda_max of any adaptive matrix produced for feasible duals."""
    return n - 0.5 * tau + n * C * C * lam_max_K / (4.0 * eta)


def frozen_oracle(K, y, cfg, epsilon=None):
    """The dual's oracle with F frozen at 11', built as the solver's frozen solves build it."""
    term = solver._adaptive_term(K, cfg.tau, cfg.eta, 0.0, solver.SolveTrace(), freeze_f=True)[0]
    return solver._dual_oracle(*solver._dual_form(y, epsilon, both_classes=False), term)


def saddle_value(alpha, y, K, F, eta, tau=0.0):
    """H(a, F) for an arbitrary (not necessarily optimal) adaptive matrix."""
    w = y * alpha
    dev = F - 1.0
    value = alpha.sum() - 0.5 * w @ ((F * K) @ w) + eta * (dev * dev).sum()
    if tau > 0:
        value += tau * eta * np.abs(np.linalg.eigvalsh(0.5 * (F + F.T))).sum()
    return value


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig(C=1.0, eta=2.0)
        assert cfg.t_max == 2000 and cfg.tol == 1e-4 and cfg.variant == "nesterov"

    @pytest.mark.parametrize("kwargs", [
        dict(C=0.0, eta=1.0),
        dict(C=1.0, tau=-0.1, eta=1.0),
        dict(C=1.0, eta=-1.0),
        dict(C=1.0, eta=1.0, t_max=0),
        dict(C=1.0, eta=1.0, tol=0.0),
        dict(C=1.0, eta=1.0, tol=float("nan")),
        dict(C=1.0, eta=1.0, variant="bogus"),
        dict(C=float("inf"), eta=1.0),
        dict(C=1.0, tau=float("inf"), eta=1.0),
        dict(C=1.0, tau=float("nan"), eta=1.0),
        dict(C=1.0, eta=float("inf")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)


def weighted_gram(alpha, y, K, eta):
    """G(a) = diag(a o y) K diag(a o y) / (4 eta), read off the tau = 0 adaptive matrix 11' + G(a)."""
    return adaptive_matrix(alpha * y, K, 0.0, eta) - 1.0


class TestWeightedGram:
    def test_zero_alpha(self, rng):
        K = toy_kernel(rng, 4)
        assert np.allclose(weighted_gram(np.zeros(4), labels(4), K, 1.0), 0.0)

    def test_scalar_case(self):
        G = weighted_gram(np.array([2.0]), np.array([1.0]), np.array([[1.0]]), 1.0)
        assert np.isclose(G[0, 0], 1.0)

    def test_entrywise_brute_force(self, rng):
        K = toy_kernel(rng, 2)
        y = labels(2)
        a = random_feasible(rng, y, 1.0)
        eta = 0.7
        G = weighted_gram(a, y, K, eta)
        for i in range(2):
            for j in range(2):
                assert np.isclose(G[i, j], a[i] * y[i] * K[i, j] * a[j] * y[j] / (4 * eta))

    def test_shape_mismatch(self, rng):
        for tau in (0.0, 0.01):
            with pytest.raises(DataError):
                dual_objective(np.zeros(3), labels(3), toy_kernel(rng, 4),
                               SolverConfig(C=1.0, tau=tau, eta=1.0))
        with pytest.raises(DataError):
            solver._adaptive_prox(np.zeros(3), toy_kernel(rng, 4), 0.01, 1.0)
        with pytest.raises(DataError):
            solve(toy_kernel(rng, 4), labels(3), SolverConfig(C=1.0, eta=1.0))


class TestAdaptiveMatrix:
    def test_zero_alpha_small_tau(self):
        n, tau = 3, 0.01
        F = adaptive_matrix(np.zeros(n), np.eye(n), tau, 1.0)
        assert np.allclose(F, ((n - tau / 2) / n) * np.ones((n, n)), atol=1e-12)

    def test_zero_alpha_zero_tau_degenerates_to_all_ones(self):
        F = adaptive_matrix(np.zeros(3), np.eye(3), 0.0, 1.0)
        assert np.allclose(F, 1.0, atol=1e-12)

    def test_minimizes_proximal_objective(self, rng):
        n, tau, eta = 4, 0.3, 0.5
        K = toy_kernel(rng, n)
        y = labels(n)
        a = random_feasible(rng, y, 1.0)
        target = adaptive_matrix(a * y, K, 0.0, eta)

        def prox_objective(F):
            dev = F - target
            return (dev * dev).sum() + tau * np.abs(np.linalg.eigvalsh(F)).sum()

        F = adaptive_matrix(a * y, K, tau, eta)
        base = prox_objective(F)
        for _ in range(500):
            R = rng.normal(size=(n, n))
            P = R @ R.T
            eps = rng.uniform(1e-4, 1e-2)
            assert prox_objective(F + eps * P / np.linalg.norm(P)) >= base - 1e-12

    def test_lemma_spectral_bound_sampled(self, rng):
        n, C, tau, eta = 12, 1.5, 0.05, 2.0
        K = toy_kernel(rng, n)
        y = labels(n)
        lam_max = np.linalg.eigvalsh(K)[-1]
        bound = adaptive_spectral_bound(n, C, tau, eta, lam_max)
        for _ in range(50):
            a = random_feasible(rng, y, C)
            F = adaptive_matrix(a * y, K, tau, eta)
            assert np.linalg.eigvalsh(F)[-1] <= bound + 1e-6

    def test_map_continuity(self, rng):
        # ||F(a1) - F(a2)||_F <= ||K||_F / (4 eta) * ||a1 + a2|| * ||a1 - a2||
        n, C, eta = 8, 1.0, 0.9
        K = toy_kernel(rng, n)
        y = labels(n)
        fro = np.linalg.norm(K)
        for _ in range(50):
            a1 = random_feasible(rng, y, C)
            a2 = random_feasible(rng, y, C)
            lhs = np.linalg.norm(adaptive_matrix(a1 * y, K, 0.1, eta)
                                 - adaptive_matrix(a2 * y, K, 0.1, eta))
            rhs = fro / (4 * eta) * np.linalg.norm(a1 + a2) * np.linalg.norm(a1 - a2)
            assert lhs <= rhs + 1e-10


class TestObjectiveAndGradient:
    def test_value_functions_check_their_data(self):
        # the solves' own checks, less the two classes: a block of the
        # decomposition mode may hold one
        K, cfg, a = np.eye(3), SolverConfig(C=1.0, tau=0.0, eta=1.0), np.full(3, 0.5)
        assert np.all(np.isfinite(dual_gradient(a, np.ones(3), K, cfg)))
        with pytest.raises(DataError, match="labels"):
            dual_objective(a, np.array([1.0, 0.5, -1.0]), K, cfg)
        with pytest.raises(DataError, match="targets"):
            svr_gradients(a, a, K, np.array([0.0, np.nan, 1.0]), 0.1, cfg)
        with pytest.raises(ParameterError, match="epsilon"):
            svr_gradients(a, a, K, np.zeros(3), -0.1, cfg)

    def test_zero_alpha_zero_tau(self, rng):
        K = toy_kernel(rng, 5)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=1.0)
        assert dual_objective(np.zeros(5), labels(5), K, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_zero_alpha_positive_tau(self, rng):
        n, tau, eta = 5, 0.2, 1.5
        K = toy_kernel(rng, n)
        cfg = SolverConfig(C=1.0, tau=tau, eta=eta)
        F = adaptive_matrix(np.zeros(n), K, tau, eta)
        expected = (eta * ((F - 1.0) ** 2).sum()
                    + tau * eta * np.abs(np.linalg.eigvalsh(F)).sum())
        assert np.isclose(dual_objective(np.zeros(n), labels(n), K, cfg), expected)

    def test_term_by_term_assembly(self, rng):
        n, tau, eta, C = 3, 0.05, 0.8, 1.0
        K = toy_kernel(rng, n)
        y = labels(n)
        a = random_feasible(rng, y, C)
        cfg = SolverConfig(C=C, tau=tau, eta=eta)
        F = adaptive_matrix(a * y, K, tau, eta)
        w = a * y
        expected = (a.sum() - 0.5 * w @ ((F * K) @ w)
                    + eta * ((F - 1.0) ** 2).sum()
                    + tau * eta * np.abs(np.linalg.eigvalsh(F)).sum())
        assert np.isclose(dual_objective(a, y, K, cfg), expected, atol=1e-10)

    def test_gradient_at_zero_is_ones(self, rng):
        K = toy_kernel(rng, 6)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0)
        assert np.allclose(dual_gradient(np.zeros(6), labels(6), K, cfg), 1.0)

    def test_gradient_matches_finite_differences(self, rng):
        n = 3
        K = toy_kernel(rng, n)
        y = labels(n)
        cfg = SolverConfig(C=1.0, tau=0.05, eta=1.2)
        a = random_feasible(rng, y, 1.0)
        g = dual_gradient(a, y, K, cfg)
        step = 1e-5
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd = (dual_objective(a + e, y, K, cfg)
                  - dual_objective(a - e, y, K, cfg)) / (2 * step)
            assert abs(g[i] - fd) < 1e-5

    def test_frozen_gradient_is_standard_svm(self, rng):
        n = 5
        K = toy_kernel(rng, n)
        y = labels(n)
        a = random_feasible(rng, y, 1.0)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=1.0)
        g = frozen_oracle(K, y, cfg)(a)[0]
        assert np.allclose(g, 1.0 - y * (K @ (y * a)), atol=1e-14)

    def test_saddle_value_matches_objective_at_optimal_F(self, rng):
        n, tau, eta = 4, 0.1, 1.0
        K = toy_kernel(rng, n)
        y = labels(n)
        a = random_feasible(rng, y, 1.0)
        cfg = SolverConfig(C=1.0, tau=tau, eta=eta)
        F = adaptive_matrix(a * y, K, tau, eta)
        assert np.isclose(saddle_value(a, y, K, F, eta, tau),
                          dual_objective(a, y, K, cfg), atol=1e-10)


class TestLipschitz:
    def test_formula_arithmetic(self):
        # n=2, C=1, ||K||_F^2 = 2, eta=1 -> 2 + 3 = 5
        K = np.eye(2)
        assert np.isclose(lipschitz_svm(2, 1.0, K, 1.0), 5.0)

    def test_large_eta_limit(self):
        K = np.eye(4)
        assert np.isclose(lipschitz_svm(4, 1.0, K, 1e12), 4.0, atol=1e-9)

    def test_matches_recomputed_frobenius(self, rng):
        n, C, eta = 135, 2.0, 3.0
        K = toy_kernel(rng, n, sigma=0.5)
        fro_sq = sum(K[i, j] ** 2 for i in range(n) for j in range(n))
        assert np.isclose(lipschitz_svm(n, C, K, eta),
                          n + 3 * n * C * C * fro_sq / (4 * eta), rtol=1e-12)

    @pytest.mark.parametrize("constant", [lipschitz_svm, lipschitz_svr])
    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_nonpositive_eta_rejected(self, constant, eta):
        with pytest.raises(ParameterError, match=f"^eta must be positive, got {eta}$"):
            constant(2, 1.0, np.eye(2), eta)

    def test_pgd_formula(self):
        assert np.isclose(lipschitz_pgd(2, 1.0, np.eye(2), 1.0, 0.5),
                          2 - 0.25 + 2 * 1 / 4)

    def test_pgd_large_eta_limit(self):
        assert np.isclose(lipschitz_pgd(3, 1.0, np.eye(3), 1e12, 0.0), 3.0, atol=1e-9)

    def test_pgd_uses_top_eigenvalue(self, rng):
        n, C, eta, tau = 7, 1.0, 2.0, 0.1
        K = toy_kernel(rng, n)
        lam = np.linalg.eigvalsh(K)[-1]
        assert np.isclose(lipschitz_pgd(n, C, K, eta, tau),
                          n - tau / 2 + n * C * C * lam / (4 * eta))

    def test_gradient_difference_inequality(self, rng):
        n, C, eta = 10, 1.0, 1.5
        K = toy_kernel(rng, n)
        y = labels(n)
        cfg = SolverConfig(C=C, tau=0.05, eta=eta)
        L = lipschitz_svm(n, C, K, eta)
        for _ in range(100):
            a1 = random_feasible(rng, y, C)
            a2 = random_feasible(rng, y, C)
            lhs = np.linalg.norm(dual_gradient(a1, y, K, cfg)
                                 - dual_gradient(a2, y, K, cfg))
            assert lhs <= L * np.linalg.norm(a1 - a2) + 1e-10


def brute_force_projection(z, y, C):
    """Exact projection onto {0 <= a <= C, a.y = 0} by active-set enumeration."""
    n = len(z)
    best, best_dist = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        a = np.empty(n)
        free = [i for i, p in enumerate(pattern) if p == 0]
        for i, p in enumerate(pattern):
            if p == 1:
                a[i] = 0.0
            elif p == 2:
                a[i] = C
        residual = -sum(a[i] * y[i] for i in range(n) if pattern[i] != 0)
        if free:
            lam = (sum(z[i] * y[i] for i in free) - residual) / len(free)
            for i in free:
                a[i] = z[i] - lam * y[i]
        elif abs(residual) > 1e-12:
            continue
        if np.any(a < -1e-12) or np.any(a > C + 1e-12):
            continue
        if abs(a @ y) > 1e-9:
            continue
        dist = np.linalg.norm(a - z)
        if dist < best_dist:
            best, best_dist = a, dist
    return best


class TestProjection:
    def test_feasible_point_unchanged(self, rng):
        y = labels(6)
        a = random_feasible(rng, y, 1.0)
        out = project_exact(a, y, 1.0)
        assert np.allclose(out, a, atol=1e-12)

    def test_two_step_hand_trace(self):
        # (2C, -C) is nearest to (C/2, C/2) on the line a1 = a2, inside the box.
        C = 1.0
        y = np.array([1.0, -1.0])
        out = project_exact(np.array([2 * C, -C]), y, C)
        assert np.allclose(out, [C / 2, C / 2], atol=1e-15)

    def test_exact_projection_matches_oracle(self, rng):
        C = 1.0
        y = labels(6)
        for _ in range(20):
            z = rng.uniform(-1.0, 2.0, 6)
            exact = project_exact(z, y, C)
            oracle = brute_force_projection(z, y, C)
            assert np.linalg.norm(exact - oracle) < 1e-9
            assert np.all(exact >= 0.0) and np.all(exact <= C)
            assert abs(exact @ y) < 1e-9

    def test_exact_projection_matches_sort_oracle(self, rng):
        for trial in range(300):
            n = int(rng.integers(2, 40))
            y = rng.choice([-1.0, 1.0], n)
            y[:2] = (1.0, -1.0)
            C = float(rng.uniform(0.2, 3.0))
            z = rng.normal(0.0, 2.0, n)
            if trial % 2:
                # ties: repeated coordinates and breakpoints one C apart
                z = np.round(z, 1)
                z[n // 2:] = z[:n - n // 2]
            np.testing.assert_allclose(project_exact(z, y, C), oracle_project(z, y, C),
                                       rtol=0.0, atol=1e-12)

    def test_exact_projection_with_every_coordinate_clipped(self, rng):
        # +1/-1 pairs share a value far outside [0, C]: the hyperplane
        # residual is zero on a whole interval and every coordinate clips.
        C = 1.0
        y = labels(20)
        z = np.repeat(rng.choice([-3.0, 3.0 + C], 10), 2)
        out = project_exact(z, y, C)
        assert np.array_equal(out, np.clip(z, 0.0, C))
        np.testing.assert_allclose(out, oracle_project(z, y, C), rtol=0.0, atol=1e-12)

    def test_one_class_projects_to_zero(self, rng):
        # With every label +1, a = 0 is the one point with a.y = 0 in the box.
        z = rng.uniform(-1.0, 2.0, 8)
        assert np.array_equal(project_exact(z, np.ones(8), 1.0), np.zeros(8))

    def test_output_feasibility(self, rng):
        C = 0.7
        y = labels(9)[:9]
        out = project_exact(rng.uniform(-2, 2, 9), y, C)
        assert np.all(out >= 0.0) and np.all(out <= C)
        assert abs(out @ y) < 1e-12


class TestSolve:
    @pytest.mark.parametrize("frozen", [False, True], ids=["adaptive", "frozen"])
    @pytest.mark.parametrize("tau", [0.0, 0.01])
    @pytest.mark.parametrize("variant", solver.VARIANTS)
    def test_trace_gradient_is_the_gradient_at_the_returned_duals(self, variant, tau, frozen):
        X, y = two_blobs(50, seed=8)
        K = gaussian_gram(X, 0.7)
        cfg = SolverConfig(C=1.0, tau=tau, eta=2.0, t_max=60, variant=variant)
        state, _, trace = solve(K, y, cfg, freeze_f=frozen)
        if frozen:
            g = frozen_oracle(K, y, cfg)(state.alpha)[0]
        else:
            g = dual_gradient(state.alpha, y, K, cfg)
        assert np.max(np.abs(trace.gradient - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))
        state, _, trace = solve_svr(K, X[:, 0], cfg, epsilon=0.05, freeze_f=frozen)
        if frozen:
            z = np.concatenate([state.alpha_hat, state.alpha_check])
            g = frozen_oracle(K, X[:, 0], cfg, 0.05)(z)[0]
        else:
            g = np.concatenate(svr_gradients(state.alpha_hat, state.alpha_check, K, X[:, 0],
                                             0.05, cfg))
        assert np.max(np.abs(trace.gradient - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))

    @pytest.mark.parametrize("task", ["svm", "svr"])
    @pytest.mark.parametrize("variant", solver.VARIANTS)
    def test_meta_objective_is_the_value_at_the_returned_duals(self, variant, task):
        # monotone-nesterov returns its last iterate or the carried theta,
        # with the value its history carries.
        cfg = SolverConfig(C=1.0, tau=0.01, t_max=100, variant=variant)
        if task == "svm":
            ds = gen_two_class_toy(80, seed=6, noise=0.3)
            model = train(ds.X, ds.y, 0.3, cfg)
            K = gaussian_gram(model.X, model.sigma)
            value = dual_objective(model.alpha, model.y, K, model.config)
        else:
            ds = gen_step(np.linspace(-5.0, 5.0, 60))
            model = train_svr(ds.X, ds.y, 0.1, cfg, epsilon=0.02)
            K = gaussian_gram(model.X, model.sigma)
            value = svr_objective(model.alpha_hat, model.alpha_check, model.y, K, model.epsilon,
                                  model.config)
        assert abs(model.meta["objective"] - value) <= 1e-12 * abs(value)

    def test_two_point_closed_form(self):
        # K = I, opposite labels: max 2a - a^2 over [0, 1] under a1 = a2 -> (1, 1)
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        cfg = SolverConfig(C=1.0, tau=0.0, eta=1e8, t_max=5000, tol=1e-12)
        state, F, trace = solve(K, y, cfg)
        assert np.allclose(state.alpha, [1.0, 1.0], atol=1e-6)

    def test_frozen_matches_reference_qp(self, rng):
        X, y = two_blobs(20, seed=5)
        K = gaussian_gram(X, 1.0)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=1.0, t_max=4000, tol=1e-14)
        state, _, _ = solve(K, y, cfg, freeze_f=True)
        # independent long-run projected gradient with exact projection
        L = float(np.linalg.eigvalsh(K)[-1])
        M = K * np.outer(y, y)
        a = np.zeros(20)
        for _ in range(20000):
            a = project_exact(a + (1.0 - M @ a) / L, y, 1.0)
        obj = lambda v: v.sum() - 0.5 * v @ M @ v
        assert abs(obj(state.alpha) - obj(a)) < 1e-6

    def test_reference_qp_cycle_shortcut_matches_plain_loop(self):
        # The c01 problem: its iterates repeat from step 6037 with period 117.
        X, y = two_blobs(40, separation=2.2, seed=101, spread=0.5)
        K = gaussian_gram(apply_minmax(fit_minmax(X), X), 0.7)
        for iterations in (6400, 6444):
            plain = reference_pgd_qp(K, y, 1.0, iterations, detect_cycle=False)
            assert np.array_equal(reference_pgd_qp(K, y, 1.0, iterations), plain)
        # the runs end inside the cycle
        earlier = reference_pgd_qp(K, y, 1.0, 6444 - 117, detect_cycle=False)
        assert np.array_equal(earlier, plain)

    def test_monotone_history_non_decreasing(self, rng):
        X, y = two_blobs(24, seed=2)
        K = gaussian_gram(X, 0.8)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=2.0, t_max=300, tol=1e-12,
                           variant="monotone-nesterov")
        _, _, trace = solve(K, y, cfg)
        hist = np.asarray(trace.objective_history)
        assert len(hist) == trace.iterations + 1
        assert np.all(np.diff(hist) >= 0.0)

    @pytest.mark.parametrize("t_max", [100, 1])
    def test_monotone_returns_no_worse_than_its_last_iterate(self, recorded, t_max):
        # On c06's fixture the last iterate z^(100) is better than every
        # theta the loop carries at t_max 100, so the solve returns it; at
        # t_max 1 the carried theta is better than z^(1) and is returned.
        # A run one iteration longer evaluates z^(t_max) first in its last
        # iteration.  F, the gradient and the last history entry are those
        # of the returned point either way.
        K, y, cfg = criteria_fixtures()[1]
        cfg = replace(cfg, t_max=t_max, variant="monotone-nesterov")
        points = recorded[0]
        points.clear()
        solve(K, y, replace(cfg, t_max=t_max + 1))
        last = points[2 * t_max]
        state, F, trace = solve(K, y, cfg)
        h = dual_objective(state.alpha, y, K, cfg)
        assert np.array_equal(state.alpha, last) == (t_max == 100)
        assert h >= dual_objective(last, y, K, cfg)
        assert np.array_equal(trace.gradient, dual_gradient(state.alpha, y, K, cfg))
        assert abs(trace.objective_history[-1] - h) <= 1e-15 * abs(h)
        w = state.alpha * y
        assert np.max(np.abs(F - adaptive_matrix(w, K, cfg.tau, cfg.eta))) <= 1e-10

    def test_iterate_feasibility(self, rng, recorded):
        X, y = two_blobs(16, seed=7)
        K = gaussian_gram(X, 0.8)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=100, tol=1e-12)
        trace = solve(K, y, cfg)[2]
        points, projections = recorded
        # every iterate alpha, then theta and beta of each iteration
        assert len(points) == trace.iterations + 1
        assert len(projections) == 2 * trace.iterations
        for v in points + projections:
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
            assert abs(v @ y) <= 1e-6 * max(1.0, np.linalg.norm(v))

    def test_saddle_inequalities_at_solution(self, rng):
        n = 10
        X, y = two_blobs(n, seed=11)
        K = gaussian_gram(X, 0.8)
        eta, tau, C = 2.0, 0.05, 1.0
        cfg = SolverConfig(C=C, tau=tau, eta=eta, t_max=4000, tol=1e-10)
        state, F_star, trace = solve(K, y, cfg)
        h_star = dual_objective(state.alpha, y, K, cfg)
        base = saddle_value(state.alpha, y, K, F_star, eta, tau)
        L = lipschitz_svm(n, C, K, eta)
        for _ in range(100):
            R = rng.normal(size=(n, n))
            P = R @ R.T
            F_pert = F_star + rng.uniform(1e-4, 1e-2) * P / np.linalg.norm(P)
            assert saddle_value(state.alpha, y, K, F_pert, eta, tau) >= base - 1e-9
        for _ in range(100):
            a = project_exact(state.alpha + rng.normal(0, 1e-3, n), y, C)
            assert dual_objective(a, y, K, cfg) <= h_star + cfg.tol * L

    def test_trace_lengths_and_termination(self, rng, recorded):
        # The step is ||w^(t+1) - w^(t)|| between the points evaluated in
        # turn, the returned one last.
        points = recorded[0]

        def steps():
            return [float(np.linalg.norm(y * b - y * a)) for a, b in zip(points, points[1:])]

        X, y = two_blobs(12, seed=3)
        K = gaussian_gram(X, 1.0)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=50, tol=1e-14)
        state, _, trace = solve(K, y, cfg)
        assert trace.iterations == 50
        assert trace.terminated_by == "max_iter"
        assert len(steps()) == 50
        assert len(trace.objective_history) == 51
        points.clear()
        cfg2 = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=5000, tol=1e-3)
        _, _, trace2 = solve(K, y, cfg2)
        assert trace2.terminated_by == "tolerance"
        assert steps()[-1] <= 1e-3

    def test_degenerate_tau_warns(self, rng):
        X, y = two_blobs(6, seed=1)
        K = gaussian_gram(X, 1.0)
        cfg = SolverConfig(C=1.0, tau=20.0, eta=1.0, t_max=5, tol=1e-8)
        _, _, trace = solve(K, y, cfg)
        assert any("collapse" in w for w in trace.warnings)

    @pytest.mark.parametrize("entry", ["solve", "resolve_eta", "train", "train_scalable"])
    def test_single_class_rejected(self, entry):
        # One check (solver._dual_form), so one exception and one message from every entry.
        X, y, K, cfg = np.arange(8.0).reshape(4, 2), np.ones(4), np.eye(4), SolverConfig(C=1.0)
        run = {"solve": lambda: solve(K, y, replace(cfg, eta=1.0)),
               "resolve_eta": lambda: resolve_eta(K, y, cfg),
               "train": lambda: train(X, y, 1.0, cfg),
               "train_scalable": lambda: train_scalable(X, y, 1.0, cfg, 1, 0)}[entry]
        with pytest.raises(DataError, match="^training labels contain a single class$"):
            run()

    def test_non_psd_rejected(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(DataError):
            solve(K, np.array([1.0, -1.0]), SolverConfig(C=1.0, eta=1.0))

    def test_non_square_kernel_rejected(self):
        with pytest.raises(DataError):
            solve(np.ones((2, 3)), np.array([1.0, -1.0]), SolverConfig(C=1.0, eta=1.0))

    def test_asymmetric_kernel_rejected_on_both_prox_paths(self):
        # K = I at tau = 0.6: with eta = 1 the prox falls back to the dense
        # path on later iterates, with eta = 1e4 it never does.  One entry
        # off by 1e-9, above the 1e-12 ||K||_F tolerance, is rejected on both.
        n = 40
        y = labels(n)
        skewed = np.eye(n)
        skewed[0, 1] = 1e-9
        for eta, falls_back in ((1.0, True), (1e4, False)):
            cfg = SolverConfig(C=1.0, tau=0.6, eta=eta, t_max=60, tol=1e-300)
            assert (solve(np.eye(n), y, cfg)[2].prox_fallbacks > 0) == falls_back
            with pytest.raises(DataError, match="not symmetric"):
                solve(skewed, y, cfg)
            with pytest.raises(DataError, match="not symmetric"):
                solve_svr(skewed, y, cfg, epsilon=0.1)

    def test_deterministic(self, rng):
        X, y = two_blobs(14, seed=9)
        K = gaussian_gram(X, 0.9)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=80, tol=1e-14)
        s1, F1, t1 = solve(K, y, cfg)
        s2, F2, t2 = solve(K, y, cfg)
        assert np.array_equal(s1.alpha, s2.alpha)
        assert np.array_equal(F1, F2)
        assert t1.objective_history == t2.objective_history

    def test_box_only_mode(self, rng):
        X, y = two_blobs(10, seed=4)
        K = gaussian_gram(X, 0.8)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=1.0, t_max=2000, tol=1e-10)
        state, _, _ = solve(K, y, cfg, with_equality=False)
        assert np.all(state.alpha >= 0.0) and np.all(state.alpha <= 1.0)
        # gradient must vanish on the interior coordinates at the optimum
        g = dual_gradient(state.alpha, y, K, cfg)
        interior = (state.alpha > 1e-6) & (state.alpha < 1.0 - 1e-6)
        assert np.all(np.abs(g[interior]) < 1e-2)


class TestConvergenceBound:
    def test_zero_at_optimum(self):
        assert convergence_bound(10.0, np.ones(3), np.ones(3), 5) == 0.0

    def test_vanishes_in_t(self):
        early = convergence_bound(10.0, np.zeros(3), np.ones(3), 10)
        late = convergence_bound(10.0, np.zeros(3), np.ones(3), 10**6)
        assert late < early and late < 1e-9

    def test_negative_t_rejected(self):
        with pytest.raises(ParameterError):
            convergence_bound(1.0, np.zeros(2), np.ones(2), -1)


class TestResolveEta:
    def test_fills_alpha_norm(self, rng):
        X, y = two_blobs(20, seed=6)
        K = gaussian_gram(X, 1.0)
        cfg = resolve_eta(K, y, SolverConfig(C=1.0, tau=0.01))
        assert cfg.eta is not None and cfg.eta > 0
        state, _, _ = solve(K, y, SolverConfig(C=1.0, tau=0.0, eta=1.0), freeze_f=True)
        assert np.isclose(cfg.eta, state.alpha @ state.alpha, rtol=1e-10)

    def test_keeps_explicit_eta(self, rng):
        K = np.eye(4)
        cfg = SolverConfig(C=1.0, eta=3.0)
        assert resolve_eta(K, labels(4), cfg) is cfg

    def test_requires_eta_in_solver(self, rng):
        K = np.eye(4)
        with pytest.raises(ParameterError):
            solve(K, labels(4), SolverConfig(C=1.0, tau=0.01, eta=None))

    def test_zero_alpha_fallback(self):
        # a vanishing box forces the preliminary duals to ~0, triggering the
        # 0.1 C^2 fallback
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        C = 1e-18
        cfg = resolve_eta(K, y, SolverConfig(C=C, tau=0.01, tol=1e-30))
        assert cfg.eta == 0.1 * C * C

    def test_svr_fills_difference_norm(self):
        # w'w for w = hat - check of a frozen SVR solve at the preliminary config
        X = np.linspace(-1.0, 1.0, 25)[:, None]
        y = np.sin(3.0 * X[:, 0])
        K = gaussian_gram(X, 0.3)
        cfg = SolverConfig(C=2.0, tau=0.01, t_max=300, variant="pgd")
        prelim = replace(cfg, tau=0.0, variant="nesterov")
        w = solve_svr(K, y, prelim, epsilon=0.05, freeze_f=True)[0].difference
        assert resolve_eta(K, y, cfg, epsilon=0.05).eta == float(w @ w) > 0.0

    def test_svr_constant_targets_fall_back(self):
        # constant targets leave every SVR dual at 0: the bias fits them
        X = np.linspace(0.0, 1.0, 8)[:, None]
        C = 2.0
        cfg = resolve_eta(gaussian_gram(X, 0.5), np.zeros(8), SolverConfig(C=C), epsilon=0.1)
        assert cfg.eta == 0.1 * C * C
        # train_svr scales constant targets to 0
        model = train_svr(X, np.full(8, 3.5), 0.5, SolverConfig(C=C, t_max=50), epsilon=0.1)
        assert model.config.eta == 0.1 * C * C

    @pytest.mark.parametrize("targets, epsilon, error", [
        ([0.0, np.nan, 1.0], 0.1, DataError),
        ([0.0, 0.5, 1.0], -0.1, ParameterError),
        ([0.0, 0.5, 1.0], np.inf, ParameterError),
    ], ids=["nan-target", "negative-epsilon", "infinite-epsilon"])
    def test_svr_checks_its_inputs(self, targets, epsilon, error):
        with pytest.raises(error):
            resolve_eta(np.eye(3), np.array(targets), SolverConfig(C=1.0), epsilon=epsilon)


def test_dual_state_validation(rng):
    y = labels(6)
    good = DualState(alpha=random_feasible(rng, y, 1.0), y=y)
    good.validate(1.0)
    with pytest.raises(DataError):
        DualState(alpha=np.full(6, 2.0), y=y).validate(1.0)
    bad = DualState(alpha=(y + 1.0) / 2.0, y=y)  # box ok, hyperplane violated
    with pytest.raises(DataError):
        bad.validate(1.5)


def dense_prox(A, threshold):
    """A full eigendecomposition on every call: the reference for the certified prox.

    A is PSD, so F = W W' with W = V sqrt(shrunk) over the eigenpairs above
    the threshold.
    """
    values, vectors = np.linalg.eigh(0.5 * (A + A.T))
    kept = values > threshold
    shrunk = values[kept] - threshold
    return SpectralProx(vectors[:, kept] * np.sqrt(shrunk), float(np.sum(shrunk)),
                        int(np.count_nonzero(kept)), True)


def dense_gram_prox(K, w, scale, threshold, floor=0.0, start=None):
    """dense_prox in place of the solvers' matrix-free prox: forms A on every call."""
    return dense_prox(1.0 + K * np.outer(w, w) * scale, threshold)


def criteria_fixtures():
    """(K, y, config) of the c05, c06 and c11 classification criteria, shortened."""
    cases = []
    for n, seed, noise, sigma, eta in ((60, 205, 0.2, 0.4, 8.0), (135, 306, 0.35, 0.1, None),
                                       (200, 42, 0.2, 0.3, None)):
        ds = gen_two_class_toy(n, seed=seed, noise=noise)
        K = gaussian_gram(apply_minmax(fit_minmax(ds.X), ds.X), sigma)
        cfg = resolve_eta(K, ds.y, SolverConfig(C=1.0, tau=0.01, eta=eta, t_max=120,
                                                tol=1e-300))
        cases.append((K, ds.y, cfg))
    return cases


class TestCertifiedProx:
    def test_matches_dense_on_random_duals(self, rng):
        # c04's problem: random feasible duals on a 50-point Gaussian kernel.
        # At its eta = 3 the weighted Gram matrix is too heavy for the trace
        # test and the dense fallback runs; at eta = 3000 the low-rank path does.
        n, C, tau = 50, 1.5, 0.05
        K = gaussian_gram(rng.normal(size=(n, 3)), 1.0)
        y = labels(n)
        paths = set()
        for eta in (3.0, 3000.0):
            for _ in range(10):
                a = random_feasible(rng, y, C)
                prox = solver._adaptive_prox(a * y, K, tau, eta)
                reference = dense_prox(adaptive_matrix(a * y, K, 0.0, eta), tau / 2)
                paths.add((eta, prox.dense))
                assert prox.rank == reference.rank
                assert np.max(np.abs(prox.matrix - reference.matrix)) <= 1e-10
                assert abs(prox.nuclear - reference.nuclear) <= 1e-10 * reference.nuclear
        assert paths == {(3.0, True), (3000.0, False)}

    def test_solves_match_dense_path_on_criteria_fixtures(self, monkeypatch):
        for K, y, cfg in criteria_fixtures():
            state, F, trace = solve(K, y, cfg)
            with monkeypatch.context() as m:
                m.setattr(solver, "gram_soft_threshold", dense_gram_prox)
                ref_state, ref_F, ref_trace = solve(K, y, cfg)
            # c06's narrow kernel may fall back now and then, never mostly
            assert ref_trace.prox_fallbacks == trace.iterations + 1
            assert 2 * trace.prox_fallbacks < trace.iterations
            assert trace.prox_rank == ref_trace.prox_rank >= 1
            assert np.max(np.abs(state.alpha - ref_state.alpha)) <= 1e-12
            assert np.max(np.abs(F - ref_F)) <= 1e-10

    def test_svr_solve_matches_dense_path(self, monkeypatch):
        # c09's step function, shortened
        ds = gen_step(np.random.default_rng(909).uniform(-5.0, 5.0, 150))
        Xs = apply_minmax(fit_minmax(ds.X), ds.X)
        ys = apply_minmax(fit_minmax(ds.y[:, None]), ds.y[:, None])[:, 0]
        K = gaussian_gram(Xs, 0.05)
        cfg = SolverConfig(C=2.0, tau=0.01, eta=20.0, t_max=300, tol=1e-300)
        state, F, trace = solve_svr(K, ys, cfg, epsilon=0.02)
        with monkeypatch.context() as m:
            m.setattr(solver, "gram_soft_threshold", dense_gram_prox)
            ref_state, ref_F, _ = solve_svr(K, ys, cfg, epsilon=0.02)
        assert trace.prox_fallbacks == 0 and trace.prox_rank >= 1
        assert np.max(np.abs(state.alpha_hat - ref_state.alpha_hat)) <= 1e-12
        assert np.max(np.abs(state.alpha_check - ref_state.alpha_check)) <= 1e-12
        assert np.max(np.abs(F - ref_F)) <= 1e-10
        assert np.array_equal(adaptive_matrix(state.difference, K, cfg.tau, cfg.eta), F)

    def test_heavy_tail_counts_fallbacks(self, monkeypatch):
        # K = I: every weighted diagonal entry a_i^2 / (4 eta) <= 1/4 stays
        # below tau/2 = 0.3, while their sum exceeds it once the duals grow.
        n = 40
        K, y = np.eye(n), labels(n)
        cfg = SolverConfig(C=1.0, tau=0.6, eta=1.0, t_max=60, tol=1e-300)
        state, F, trace = solve(K, y, cfg)
        with monkeypatch.context() as m:
            m.setattr(solver, "gram_soft_threshold", dense_gram_prox)
            ref_state, ref_F, _ = solve(K, y, cfg)
        assert trace.prox_fallbacks > 0
        assert np.max(np.abs(state.alpha - ref_state.alpha)) <= 1e-12
        assert np.max(np.abs(F - ref_F)) <= 1e-10

    def test_two_solves_bit_identical(self):
        X, y = two_blobs(80, seed=9)
        K = gaussian_gram(X, 0.9)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=80, tol=1e-14)
        s1, F1, t1 = solve(K, y, cfg)
        s2, F2, t2 = solve(K, y, cfg)
        assert t1.prox_fallbacks == 0
        assert np.array_equal(s1.alpha, s2.alpha)
        assert np.array_equal(F1, F2)

    def test_zero_tau_factors_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("no eigendecomposition expected at tau = 0")

        X, y = two_blobs(40, seed=6)
        K = gaussian_gram(X, 0.8)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=2.0, t_max=30, tol=1e-300)
        _, F, trace = solve(K, y, cfg)
        _, F_svr, svr_trace = solve_svr(K, y, cfg, epsilon=0.1)
        assert (trace.prox_fallbacks, trace.prox_rank) == (0, 0)
        assert (svr_trace.prox_fallbacks, svr_trace.prox_rank) == (0, 0)
        assert np.all(np.isfinite(F)) and np.all(np.isfinite(F_svr))

    def test_zero_tau_forms_the_adaptive_matrix_once(self, monkeypatch):
        # The closed form needs no n x n adaptive matrix inside the loop:
        # F = 11' + diag(w) K diag(w) / (4 eta) is formed once, for the result.
        calls = [0]
        original = np.outer

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        X, y = two_blobs(40, seed=6)
        K = gaussian_gram(X, 0.8)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=2.0, t_max=50, tol=1e-300)
        runs = ((lambda: solve(K, y, cfg), lambda state: state.alpha * y),
                (lambda: solve_svr(K, y, cfg, epsilon=0.1), lambda state: state.difference))
        for run, weights in runs:
            calls[0] = 0
            with monkeypatch.context() as m:
                m.setattr(np, "outer", counted)
                state, F, trace = run()
            assert (trace.iterations, calls[0]) == (50, 1)
            assert np.array_equal(F, adaptive_matrix(weights(state), K, 0.0, cfg.eta))


class TestZeroTauClosedForm:
    def test_value_functions_match_dense_reference(self, rng):
        # 1 - Y(F o K)Ya and h(a) against F = 11' + diag(a o y) K diag(a o y) / (4 eta).
        n, eta = 60, 0.7
        K = toy_kernel(rng, n)
        y = labels(n)
        cfg = SolverConfig(C=10.0, tau=0.0, eta=eta)
        for C in (0.1, 1.0, 10.0):
            a = random_feasible(rng, y, C)
            w = a * y
            F = adaptive_matrix(w, K, 0.0, eta)
            q = (F * K) @ w
            g_ref = 1.0 - y * q
            h_ref = a.sum() - 0.5 * w @ q + eta * np.sum((F - 1.0) ** 2)
            g = dual_gradient(a, y, K, cfg)
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
            assert abs(dual_objective(a, y, K, cfg) - h_ref) <= 1e-12 * abs(h_ref)

    def test_gradients_keep_the_bits_of_their_closed_forms(self, rng):
        # The one dual oracle forms each task's gradient in the order of its
        # own closed form, so trained duals keep their bits.
        n, eta, eps = 40, 0.7, 0.05
        K = toy_kernel(rng, n)
        K2 = K * K
        cfg = SolverConfig(C=1.0, tau=0.0, eta=eta)

        def q_of(w):
            return K @ w + w * (K2 @ (w * w)) / (4.0 * eta)

        y, targets = labels(n), rng.normal(size=n)
        a, hat, check = rng.uniform(0.0, 1.0, (3, n))
        assert dual_gradient(a, y, K, cfg).tobytes() == (1.0 - y * q_of(y * a)).tobytes()
        q = q_of(hat - check)
        g_hat, g_check = svr_gradients(hat, check, K, targets, eps, cfg)
        assert g_hat.tobytes() == (-eps - q + targets).tobytes()
        assert g_check.tobytes() == (-eps + q - targets).tobytes()


def exact_deviation_sq(W):
    """||W W' - 11'||_F^2 in exact rational arithmetic on the float entries of W."""
    from fractions import Fraction

    rows = [[Fraction(float(x)) for x in row] for row in W]
    total = Fraction(0)
    for wi in rows:
        for wj in rows:
            entry = sum((a * b for a, b in zip(wi, wj)), Fraction(0)) - 1
            total += entry * entry
    return total


def factored_term(monkeypatch, prox, K, tau, eta):
    """The solvers' adaptive term at tau > 0 with the prox pinned to ``prox``."""
    monkeypatch.setattr(solver, "gram_soft_threshold", lambda *args: prox)
    return solver._adaptive_term(K, tau, eta, 0.0, solver.SolveTrace(), False)[0]


class TestFactoredEvaluation:
    """The solvers' gradient and value from the factor W against the dense formulas."""

    @pytest.mark.parametrize("r", [0, 1, 3, 8])
    def test_matches_dense_formulas(self, rng, monkeypatch, r):
        n, tau, eta = 60, 0.05, 1.7
        K = toy_kernel(rng, n)
        for scale in (1.0, 0.05):
            W = scale * rng.normal(size=(n, r))
            F = np.dot(W, W.T)
            nuclear = float(np.sum(W * W))
            w = rng.uniform(-1.0, 1.0, n)
            base = float(rng.uniform(-5.0, 5.0))
            q, value = factored_term(monkeypatch, SpectralProx(W, nuclear, r, False),
                                     K, tau, eta)(w, base)
            q_dense = (F * K) @ w
            value_dense = (base - 0.5 * w @ q_dense + eta * np.sum((F - 1.0) ** 2)
                           + tau * eta * nuclear)
            assert np.max(np.abs(q - q_dense)) <= 1e-12 * max(1.0, np.max(np.abs(q_dense)))
            assert abs(value - value_dense) <= 1e-12 * abs(value_dense)

    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_deviation_near_all_ones_is_exact(self, rng, r):
        # F within 1e-6 of 11': the naive ||W'W||^2 - 2||W'1||^2 + n^2 and
        # the plain c'c - 1 both cancel here (errors near 1e-4 and 1e-11).
        n = 30
        for sign in (1.0, -1.0):
            W = 1e-6 * rng.normal(size=(n, r))
            W[:, 0] += sign
            exact = exact_deviation_sq(W)
            value = solver._deviation_sq(W)
            assert abs(value - float(exact)) <= 1e-12 * float(exact)

    def test_frozen_factor_gives_standard_svm_bits(self, rng):
        # W = 1 reproduces the plain SVM gradient and a zero deviation exactly.
        n = 40
        K = toy_kernel(rng, n)
        y = labels(n)
        a = random_feasible(rng, y, 1.0)
        trace = solver.SolveTrace()
        term, final = solver._adaptive_term(K, 0.0, 1.0, 0.0, trace, True)
        q, value = term(y * a, float(np.sum(a)))
        assert np.array_equal(1.0 - y * q, 1.0 - y * (K @ (y * a)))
        assert value == float(np.sum(a)) - 0.5 * float((y * a) @ q)
        assert np.array_equal(final(), np.ones((n, n)))
        assert np.array_equal(trace.factor, np.ones((n, 1)))
        assert (trace.prox_fallbacks, trace.prox_rank) == (0, 0)

    def test_warm_started_prox_matches_cold_along_a_solve(self, monkeypatch, recorded):
        # Rayleigh-Ritz steps are counted by the small eigh calls they make.
        count = [0]
        original = np.linalg.eigh

        def counted(A, *args, **kwargs):
            count[0] += 1
            return original(A, *args, **kwargs)

        def steps(*args):
            before = count[0]
            prox = solver._adaptive_prox(*args)
            return prox, count[0] - before

        # c06 (rank up to 6), c11 (rank 1), and an SVR problem of rank 1 whose
        # later iterates need a second step from the fixed start block.
        ds = gen_step(np.random.default_rng(909).uniform(-5.0, 5.0, 120))
        Xs = apply_minmax(fit_minmax(ds.X), ds.X)
        ys = apply_minmax(fit_minmax(ds.y[:, None]), ds.y[:, None])[:, 0]
        K_svr = gaussian_gram(Xs, 0.05)
        cfg_svr = SolverConfig(C=2.0, tau=0.01, eta=20.0, t_max=600, tol=1e-300)
        # The iterates z^(1), ..., z^(t_max): every evaluated point but z^(0) = 0.
        points = recorded[0]
        cases = []
        for K, y, cfg in criteria_fixtures()[1:]:
            points.clear()
            solve(K, y, cfg)
            cases.append((K, cfg, np.array(points[1:]) * y))
        monkeypatch.setattr(np.linalg, "eigh", counted)
        points.clear()
        solve_svr(K_svr, ys, cfg_svr, epsilon=0.02)
        solve_steps = count[0]
        z = np.array(points[1:])
        cases.append((K_svr, cfg_svr, z[:, :120] - z[:, 120:]))
        for K, cfg, weights in cases:
            _, lam_min_K, _ = solver._check_psd_gram(K)
            basis, totals, repeated = None, np.zeros(2, int), np.zeros(2, int)
            for w in weights:
                warm, warm_steps = steps(w, K, cfg.tau, cfg.eta, lam_min_K, basis)
                cold, cold_steps = steps(w, K, cfg.tau, cfg.eta, lam_min_K)
                assert (warm.rank, warm.dense) == (cold.rank, cold.dense)
                assert np.max(np.abs(warm.matrix - cold.matrix)) <= 1e-10
                assert abs(warm.nuclear - cold.nuclear) <= 1e-10 * cold.nuclear
                assert warm.basis is not None
                basis = warm.basis
                totals += (warm_steps, cold_steps)
                repeated += (warm_steps > 1, cold_steps > 1)
            assert totals[0] < totals[1] or totals[0] == len(weights) == totals[1]
        # On the SVR problem a cold start takes a second step on over a
        # hundred calls; a warm start on almost none, also inside the solve.
        assert repeated[1] > 100 and repeated[0] <= repeated[1] // 10, repeated
        assert solve_steps < totals[1]

    def test_prox_steps_count_every_eigendecomposition_of_a_solve(self, monkeypatch):
        # Rayleigh-Ritz steps and dense fallbacks alike: the c06 fixture, the
        # heavy tail of K = I (which falls back), and an SVR solve.
        count = [0]
        original = np.linalg.eigh

        def counted(A, *args, **kwargs):
            count[0] += 1
            return original(A, *args, **kwargs)

        K6, y6, cfg6 = criteria_fixtures()[1]
        X, y = two_blobs(60, seed=2)
        K = gaussian_gram(X, 0.7)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=40)
        runs = [lambda: solve(K6, y6, cfg6),
                lambda: solve(np.eye(40), labels(40),
                              SolverConfig(C=1.0, tau=0.6, eta=1.0, t_max=60, tol=1e-300)),
                lambda: solve_svr(K, y, cfg, epsilon=0.1)]
        monkeypatch.setattr(np.linalg, "eigh", counted)
        fallbacks = 0
        for run in runs:
            before = count[0]
            trace = run()[2]
            assert trace.prox_steps == count[0] - before > trace.iterations
            fallbacks += trace.prox_fallbacks
        assert fallbacks > 0
        # No prox runs with F frozen or at tau = 0.
        for run in (lambda: solve(K, y, cfg, freeze_f=True),
                    lambda: solve(K, y, replace(cfg, tau=0.0)),
                    lambda: solve_svr(K, y, replace(cfg, tau=0.0), epsilon=0.1)):
            assert run()[2].prox_steps == 0

    def test_solves_keep_the_factor_of_the_returned_matrix(self):
        X, y = two_blobs(60, seed=2)
        K = gaussian_gram(X, 0.7)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=40)
        for run in (lambda: solve(K, y, cfg), lambda: solve_svr(K, y, cfg, epsilon=0.1),
                    lambda: solve(K, y, cfg, freeze_f=True)):
            _, F, trace = run()
            assert np.array_equal(np.dot(trace.factor, trace.factor.T), F)
        _, F, trace = solve(K, y, replace(cfg, tau=0.0))
        assert trace.factor is None

    @pytest.mark.parametrize("task", ["svm", "svr"])
    @pytest.mark.parametrize("step", ["frozen", "pgd", "nesterov"])
    def test_step_constant_reuses_the_psd_check(self, task, step, monkeypatch):
        # One eigvalsh of K per solve: the PSD check's.  The first projection
        # takes g^(0) / L, which gives the step constant L bit for bit against
        # the tests' formulas: ||K||_F with F frozen, lipschitz_pgd for pgd,
        # lipschitz_svm for nesterov.  The paired SVR dual steps by 1/(2L) for
        # its stacked L: 4 ||K||_F frozen, 2 lipschitz_svr for nesterov; for
        # pgd it steps by 1/L for its stacked constant lipschitz_svr_pgd.
        X, y = two_blobs(30, seed=3)
        K = gaussian_gram(X, 0.8)
        n, C, eta, tau, epsilon = 30, 1.0, 2.0, 0.01, 0.1
        cfg = SolverConfig(C=C, tau=tau, eta=eta, t_max=5,
                           variant="pgd" if step == "pgd" else "nesterov")
        frozen = step == "frozen"
        if task == "svm":
            L = {"frozen": float(np.linalg.norm(K)), "pgd": lipschitz_pgd(n, C, K, eta, tau),
                 "nesterov": lipschitz_svm(n, C, K, eta)}[step]
            g0 = np.ones(n)
            run = lambda: solve(K, y, cfg, freeze_f=frozen)  # noqa: E731
        else:
            L = {"frozen": 4.0 * float(np.linalg.norm(K)),
                 "pgd": lipschitz_svr_pgd(n, C, K, eta, tau),
                 "nesterov": 2.0 * lipschitz_svr(n, C, K, eta)}[step]
            g0 = np.concatenate([y - epsilon, -y - epsilon])
            run = lambda: solve_svr(K, y, cfg, epsilon, freeze_f=frozen)  # noqa: E731
        calls, seen = [], []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(1) or original(A))
        monkeypatch.setattr(solver, "project_exact",
                            lambda v, y_, C: seen.append(v) or project_exact(v, y_, C))
        run()
        assert len(calls) == 1
        assert np.array_equal(seen[0], g0 / L)
