import numpy as np
import pytest

import adakern.solver as solver
from adakern.errors import DataError, ParameterError
from adakern.kernel import gaussian_gram
from adakern.solver import SolverConfig
from adakern.svm import _kkt_bias
from adakern.svr import (
    lipschitz_svr,
    rmse,
    solve_svr,
    svr_gradients,
    svr_objective,
    train_svr,
)

from conftest import adaptive_matrix


def config(**kwargs):
    defaults = dict(C=1.0, tau=0.01, eta=1.0, t_max=2000, tol=1e-6)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def box_pair(rng, n, C=1.0):
    return rng.uniform(0.0, C, n), rng.uniform(0.0, C, n)


def svr_weighted_gram(alpha_hat, alpha_check, K, eta):
    """diag(hat - check) K diag(hat - check) / (4 eta), read off the tau = 0 adaptive matrix."""
    return adaptive_matrix(alpha_hat - alpha_check, K, 0.0, eta) - 1.0


def lipschitz_svr_pgd(n, C, K, eta, tau):
    """The stacked pgd step constant: twice the classifier's, from lam_max of K."""
    return 2.0 * solver._pgd_constant(n, C, float(np.linalg.eigvalsh(K)[-1]), eta, tau)


class TestWeightedGram:
    def test_equal_duals_give_zero(self, rng):
        a = rng.uniform(0, 1, 4)
        K = np.eye(4)
        assert np.allclose(svr_weighted_gram(a, a, K, 1.0), 0.0)

    def test_scalar_case(self):
        G = svr_weighted_gram(np.array([2.0]), np.array([0.0]), np.array([[1.0]]), 1.0)
        assert np.isclose(G[0, 0], 1.0)

    def test_entrywise_brute_force(self, rng):
        n, eta = 3, 0.8
        ah, ac = box_pair(rng, n)
        K = gaussian_gram(rng.normal(size=(n, 2)), 1.0)
        G = svr_weighted_gram(ah, ac, K, eta)
        w = ah - ac
        for i in range(n):
            for j in range(n):
                assert np.isclose(G[i, j], w[i] * K[i, j] * w[j] / (4 * eta))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            svr_objective(np.zeros(3), np.zeros(2), np.zeros(3), np.eye(3), 0.1, config())
        with pytest.raises(DataError):
            svr_gradients(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(2), 0.1, config())


class TestAdaptiveMatrix:
    def test_zero_duals_small_tau(self):
        n, tau = 3, 0.01
        F = adaptive_matrix(np.zeros(n), np.eye(n), tau, 1.0)
        assert np.allclose(F, ((n - tau / 2) / n) * np.ones((n, n)), atol=1e-12)

    def test_zero_tau_all_ones(self):
        F = adaptive_matrix(np.zeros(3), np.eye(3), 0.0, 1.0)
        assert np.allclose(F, 1.0, atol=1e-12)

    def test_minimizes_proximal_objective(self, rng):
        n, tau, eta = 4, 0.2, 0.7
        ah, ac = box_pair(rng, n)
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.9)
        target = adaptive_matrix(ah - ac, K, 0.0, eta)

        def prox_objective(F):
            dev = F - target
            return (dev * dev).sum() + tau * np.abs(np.linalg.eigvalsh(F)).sum()

        F = adaptive_matrix(ah - ac, K, tau, eta)
        base = prox_objective(F)
        for _ in range(200):
            R = rng.normal(size=(n, n))
            P = R @ R.T
            eps = rng.uniform(1e-4, 1e-2)
            assert prox_objective(F + eps * P / np.linalg.norm(P)) >= base - 1e-12

    def test_lemma_continuity(self, rng):
        n, eta = 6, 1.1
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.8)
        fro = np.linalg.norm(K)
        for _ in range(50):
            a1h, a1c = box_pair(rng, n)
            a2h, a2c = box_pair(rng, n)
            lhs = np.linalg.norm(adaptive_matrix(a1h - a1c, K, 0.1, eta)
                                 - adaptive_matrix(a2h - a2c, K, 0.1, eta))
            w1, w2 = a1h - a1c, a2h - a2c
            rhs = fro / (4 * eta) * np.linalg.norm(w1 + w2) * np.linalg.norm(w1 - w2)
            assert lhs <= rhs + 1e-10


class TestGradients:
    def test_zero_point(self, rng):
        n = 5
        y = rng.normal(size=n)
        K = np.eye(n)
        eps = 0.2
        gh, gc = svr_gradients(np.zeros(n), np.zeros(n), K, y, eps, config())
        assert np.allclose(gh, y - eps)
        assert np.allclose(gc, -y - eps)

    def test_block_sum_identity(self, rng):
        n, eps = 4, 0.15
        ah, ac = box_pair(rng, n)
        y = rng.normal(size=n)
        K = gaussian_gram(rng.normal(size=(n, 2)), 1.0)
        gh, gc = svr_gradients(ah, ac, K, y, eps, config())
        assert np.allclose(gh + gc, -2.0 * eps, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        n, eps = 3, 0.1
        cfg = config(tau=0.05, eta=1.3)
        ah, ac = box_pair(rng, n)
        y = rng.normal(size=n)
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.9)
        gh, gc = svr_gradients(ah, ac, K, y, eps, cfg)
        step = 1e-5
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd_h = (svr_objective(ah + e, ac, y, K, eps, cfg)
                    - svr_objective(ah - e, ac, y, K, eps, cfg)) / (2 * step)
            fd_c = (svr_objective(ah, ac + e, y, K, eps, cfg)
                    - svr_objective(ah, ac - e, y, K, eps, cfg)) / (2 * step)
            assert abs(gh[i] - fd_h) < 1e-5
            assert abs(gc[i] - fd_c) < 1e-5


    def test_zero_tau_matches_dense_reference(self, rng):
        # Against F = 11' + diag(hat - check) K diag(hat - check) / (4 eta).
        n, eta, eps = 50, 0.6, 0.05
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.7)
        y = rng.uniform(0.0, 1.0, n)
        cfg = config(C=5.0, tau=0.0, eta=eta)
        for C in (0.1, 1.0, 5.0):
            ah, ac = box_pair(rng, n, C)
            w = ah - ac
            F = adaptive_matrix(w, K, 0.0, eta)
            q = (F * K) @ w
            h_ref = (w @ y - eps * np.sum(ah + ac) - 0.5 * w @ q
                     + eta * np.sum((F - 1.0) ** 2))
            for g, g_ref in zip(svr_gradients(ah, ac, K, y, eps, cfg),
                                (-eps - q + y, -eps + q - y)):
                assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
            assert abs(svr_objective(ah, ac, y, K, eps, cfg) - h_ref) <= 1e-12 * abs(h_ref)


class TestLipschitz:
    def test_formula_value(self):
        # n=2, C=1, ||K||_F^2 = 2, eta=1 -> 2 (2 + 9*2*2/4) = 22
        assert np.isclose(lipschitz_svr(2, 1.0, np.eye(2), 1.0), 22.0)

    def test_large_eta_limit(self):
        assert np.isclose(lipschitz_svr(3, 1.0, np.eye(3), 1e12), 6.0, atol=1e-9)

    def test_pgd_constant_uses_top_eigenvalue(self, rng):
        n, C, eta, tau = 6, 1.5, 2.0, 0.1
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.9)
        lam = float(np.linalg.eigvalsh(K)[-1])
        expected = 2.0 * (n - tau / 2 + n * C * C * lam / (4 * eta))
        assert np.isclose(lipschitz_svr_pgd(n, C, K, eta, tau), expected)

    def test_pgd_constant_bounds_stacked_hessian(self, rng):
        # 2 lam_max(F o K) <= lipschitz_svr_pgd for feasible duals
        n, C, eta, tau = 7, 1.0, 1.2, 0.05
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.8)
        limit = lipschitz_svr_pgd(n, C, K, eta, tau)
        for _ in range(25):
            ah, ac = box_pair(rng, n, C)
            F = adaptive_matrix(ah - ac, K, tau, eta)
            assert 2.0 * float(np.linalg.eigvalsh(F * K)[-1]) <= limit + 1e-9

    def test_pgd_variant_converges_on_small_problem(self, rng):
        n = 10
        X = np.linspace(0, 1, n)[:, None]
        y = np.sin(4.0 * X[:, 0])
        K = gaussian_gram(X, 0.3)
        cfg = config(C=2.0, eta=5.0, variant="pgd", t_max=4000, tol=1e-10)
        state, _, trace = solve_svr(K, y, cfg, epsilon=0.05)
        nest = solve_svr(K, y, config(C=2.0, eta=5.0, t_max=4000, tol=1e-10),
                         epsilon=0.05)[0]
        # both reach the same optimum of the same concave problem
        got = svr_objective(state.alpha_hat, state.alpha_check, y, K, 0.05,
                            config(C=2.0, eta=5.0))
        ref = svr_objective(nest.alpha_hat, nest.alpha_check, y, K, 0.05,
                            config(C=2.0, eta=5.0))
        assert abs(got - ref) < 1e-4 * max(1.0, abs(ref))

    def test_sampled_pair_inequality(self, rng):
        n, C, eta = 8, 1.0, 1.4
        K = gaussian_gram(rng.normal(size=(n, 2)), 0.8)
        y = rng.normal(size=n)
        cfg = config(C=C, tau=0.05, eta=eta)
        L = lipschitz_svr(n, C, K, eta)
        eps = 0.1
        for _ in range(100):
            a1h, a1c = box_pair(rng, n, C)
            a2h, a2c = box_pair(rng, n, C)
            g1 = np.concatenate(svr_gradients(a1h, a1c, K, y, eps, cfg))
            g2 = np.concatenate(svr_gradients(a2h, a2c, K, y, eps, cfg))
            rhs = 2 * L * (np.linalg.norm(a2h - a1h) + np.linalg.norm(a2c - a1c))
            assert np.linalg.norm(g1 - g2) <= rhs + 1e-10


class TestSolve:
    def test_constant_targets_stay_at_zero(self):
        n = 6
        K = np.eye(n)
        y = np.full(n, 3.5)
        # constant targets scale to 0; the tube then covers every residual
        state, _, _ = solve_svr(K, np.zeros(n), config(tau=0.0), epsilon=0.1)
        assert np.allclose(state.alpha_hat, 0.0, atol=1e-10)
        assert np.allclose(state.alpha_check, 0.0, atol=1e-10)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.1])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ParameterError):
            solve_svr(np.eye(4), np.zeros(4), config(), epsilon=epsilon)

    def test_indefinite_kernel_rejected(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(DataError):
            solve_svr(K, np.array([0.0, 1.0]), config(), epsilon=0.1)

    def test_iterate_feasibility(self, rng, recorded):
        n = 8
        K = gaussian_gram(rng.normal(size=(n, 1)), 0.8)
        y = rng.normal(size=n)
        trace = solve_svr(K, y, config(t_max=60, tol=1e-14), epsilon=0.05)[2]
        points, projections = recorded
        # every iterate [hat; check], then theta and beta of each iteration
        assert len(points) == trace.iterations + 1
        assert len(projections) == 2 * trace.iterations
        for z in points + projections:
            assert np.all(z >= 0.0) and np.all(z <= 1.0)
            w = z[:n] - z[n:]
            assert abs(w.sum()) <= 1e-6 * max(1.0, np.linalg.norm(w))

    def test_frozen_matches_reference_epsilon_svr(self, rng):
        # 5-point linear data, F frozen: compare with a long-run projected
        # gradient reference on the same dual
        n = 5
        X = np.linspace(0.0, 1.0, n)[:, None]
        y = 2.0 * X[:, 0] - 0.3
        K = gaussian_gram(X, 0.7)
        eps = 0.05
        cfg = config(C=10.0, tau=0.0, t_max=6000, tol=1e-14)
        state, _, _ = solve_svr(K, y, cfg, epsilon=eps, freeze_f=True)

        from adakern.solver import project_exact
        u = np.concatenate([np.ones(n), -np.ones(n)])
        L = 2.0 * float(np.linalg.eigvalsh(K)[-1])
        z = np.zeros(2 * n)
        for _ in range(60000):
            w = z[:n] - z[n:]
            q = K @ w
            g = np.concatenate([-eps - q + y, -eps + q - y])
            z = project_exact(z + g / L, u, 10.0)
        predictions_ref = K @ (z[:n] - z[n:])
        predictions_got = K @ state.difference
        assert np.max(np.abs(predictions_got - predictions_ref)) < 2 * eps

    def test_monotone_variant_history(self, rng):
        n = 8
        K = gaussian_gram(rng.normal(size=(n, 1)), 0.9)
        y = rng.normal(size=n)
        _, _, trace = solve_svr(K, y, config(variant="monotone-nesterov",
                                             t_max=150, tol=1e-14), epsilon=0.05)
        hist = np.asarray(trace.objective_history)
        assert np.all(np.diff(hist) >= 0.0)

    def test_residuals_shrink_with_capacity(self):
        # epsilon -> 0, frozen F: training residuals on interpolable data fall
        # monotonically as C grows
        n = 10
        X = np.linspace(0.0, 1.0, n)[:, None]
        y = np.sin(3.0 * X[:, 0])
        K = gaussian_gram(X, 0.4)
        worst = []
        for C in (1.0, 10.0, 100.0):
            cfg = config(C=C, tau=0.0, t_max=8000, tol=1e-12)
            state, _, trace = solve_svr(K, y, cfg, epsilon=0.0, freeze_f=True)
            u = np.repeat([1.0, -1.0], n)
            bias = _kkt_bias(u * trace.gradient, u,
                             np.concatenate([state.alpha_hat, state.alpha_check]), C)
            resid = np.max(np.abs(K @ state.difference + bias - y))
            worst.append(resid)
        assert worst[2] <= worst[1] + 1e-6 <= worst[0] + 2e-6
        assert worst[2] < 0.05


class TestTrainPredict:
    def test_empty_batch_gives_empty_predictions(self):
        X = np.linspace(0, 1, 6)[:, None]
        model = train_svr(X, X[:, 0] ** 2, 1.0, config(eta=None), epsilon=0.1)
        assert model.predict(np.empty((0, 1))).shape == (0,)

    def test_constant_targets_predict_constant(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = np.full(6, 4.2)
        model = train_svr(X, y, 1.0, config(tau=0.0, eta=None), epsilon=0.1)
        assert np.allclose(model.predict(X), 4.2, atol=1e-9)

    def test_self_prediction_within_tube(self):
        n = 16
        X = np.linspace(0.0, 1.0, n)[:, None]
        y = np.sin(2.5 * X[:, 0]) + 0.5 * X[:, 0]
        eps = 0.05
        model = train_svr(X, y, 0.5, config(C=50.0, tau=0.0, eta=1e9, t_max=8000,
                                            tol=1e-12), epsilon=eps)
        # tube holds in scaled target space
        span = model.y_scaler.maxs[0] - model.y_scaler.mins[0]
        assert np.max(np.abs(model.predict(X) - y)) <= (eps + 1e-3) * span

    def test_frozen_flag_gives_all_one_adaptive(self):
        X = np.linspace(0, 1, 8)[:, None]
        y = X[:, 0] ** 2
        model = train_svr(X, y, 0.8, config(tau=0.0), epsilon=0.1, freeze_f=True)
        assert np.all(model.F == 1.0)

    @pytest.mark.parametrize("tau, eta, freeze_f, rank", [
        (0.0, 0.01, False, 12), (0.01, 0.1, False, 8), (0.01, None, True, 1),
    ], ids=["tau-0", "factor", "frozen"])
    def test_f_rank_matches_dense_count(self, tau, eta, freeze_f, rank):
        X = np.linspace(-3, 3, 40)[:, None]
        model = train_svr(X, np.sin(3 * X[:, 0]), 0.1,
                          config(C=2.0, tau=tau, eta=eta, t_max=1500, variant="pgd"),
                          epsilon=0.02, freeze_f=freeze_f)
        evals = np.linalg.eigvalsh(model.F)
        assert model.meta["f_rank"] == np.sum(evals > 1e-6 * evals[-1]) == rank
        assert (model.meta["f_min"], model.meta["f_max"]) == (model.F.min(), model.F.max())

    def test_bad_epsilon_builds_no_kernel(self, monkeypatch):
        import adakern.svr as svr
        built = []
        for name in ("gaussian_gram", "_check_psd_gram"):
            monkeypatch.setattr(svr, name, lambda *args, name=name: built.append(name))
        X = np.linspace(0.0, 1.0, 8)[:, None]
        with pytest.raises(ParameterError, match="epsilon must be nonnegative and finite"):
            train_svr(X, X[:, 0], 0.5, config(), epsilon=-1.0)
        assert built == []

    def test_dual_state_validates(self):
        X = np.linspace(0, 1, 10)[:, None]
        y = np.cos(2 * X[:, 0])
        model = train_svr(X, y, 0.6, config(eta=None), epsilon=0.08)
        assert model.config.eta is not None and model.config.eta > 0
        assert model.meta["complementarity_gap"] < 0.5
        # ten points are too few for the low-rank path: every call is dense
        assert model.meta["prox_fallbacks"] > model.meta["iterations"]
        assert model.meta["prox_rank"] >= 1


class TestRmse:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_mean_predictor_scores_one(self, rng):
        y = rng.normal(size=10)
        assert np.isclose(rmse(np.full(10, y.mean()), y), 1.0)

    def test_hand_case(self):
        # predictions (1,2,3) against targets (1,2,5): residual energy 4,
        # centered target energy 25/9 + 4/9 + 49/9 = 78/9
        value = rmse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0]))
        assert np.isclose(value, 4.0 / (78.0 / 9.0))
        assert np.isclose(value, 6.0 / 13.0)

    def test_constant_targets_rejected(self):
        with pytest.raises(DataError):
            rmse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rmse(np.zeros(3), np.zeros(4))
