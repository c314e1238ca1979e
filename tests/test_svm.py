import numpy as np
import pytest

from adakern import kernel, svm, svr
from adakern.adaptive import ClosedForm, Dense
from adakern.data import apply_minmax, fit_minmax, gen_two_class_toy, inverse_minmax
from adakern.errors import DataError, ParameterError
from adakern.kernel import gaussian_gram, pairwise_sq_dists
from adakern.scale import train_scalable
from adakern.solver import SolverConfig, SolveTrace, project_exact
from adakern.svm import _kkt_bias, accuracy, reciprocal_match, train
from adakern.svr import train_svr

from conftest import (decision_values_insample, dense_kkt_bias, oracle_reciprocal_similarity,
                      two_blobs)
from test_adaptive import bulk_batch


def small_config(**kwargs):
    defaults = dict(C=1.0, tau=0.01, eta=None, t_max=2000, tol=1e-6)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


class TestTrain:
    def test_two_point_toy(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train(X, y, 1.0, small_config(tau=0.0))
        assert np.array_equal(model.predict(X), y)

    def test_frozen_limit_matches_plain_svm(self, rng):
        X, y = two_blobs(30, seed=21)
        cfg = small_config(tau=0.0, eta=1e8)
        adaptive = train(X, y, 0.8, cfg)
        frozen = train(X, y, 0.8, cfg, freeze_f=True)
        probe = rng.normal(0.0, 1.5, (40, 2))
        assert np.array_equal(np.sign(adaptive.decision_function(probe)),
                              np.sign(frozen.decision_function(probe)))

    def test_model_invariants(self):
        X, y = two_blobs(26, seed=8)
        model = train(X, y, 0.9, small_config())
        from adakern.solver import DualState
        DualState(alpha=model.alpha, y=model.y).validate(model.config.C)
        evals = np.linalg.eigvalsh(model.F)
        assert evals[0] >= -1e-8 * max(1.0, evals[-1])
        assert np.any(model.alpha > 1e-8)
        assert model.config.eta is not None

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train(np.ones((4, 1)), np.ones(4), 1.0, small_config())

    def test_bad_sigma_rejected(self):
        X, y = two_blobs(6, seed=0)
        with pytest.raises(ParameterError):
            train(X, y, -1.0, small_config())

    def test_too_few_points_rejected(self):
        with pytest.raises(DataError):
            train(np.ones((1, 2)), np.array([1.0]), 1.0, small_config())

    @pytest.mark.parametrize("trainer", ["svm", "svr", "scalable"])
    @pytest.mark.parametrize("defect", ["nan-feature", "nan-label", "shape-mismatch",
                                        "no-rows", "one-point", "single-class", "sigma-zero"])
    def test_every_trainer_rejects_malformed_input(self, trainer, defect):
        error, message = {
            "nan-feature": (DataError, "non-finite"),
            "nan-label": (DataError, "non-finite|labels"),
            "shape-mismatch": (DataError, "inconsistent shapes"),
            "no-rows": (DataError, "dataset is empty"),
            "one-point": (DataError, "at least 2"),
            "single-class": (DataError, "single class"),
            "sigma-zero": (ParameterError, "sigma"),
        }[defect]
        X, y = two_blobs(6, seed=0)
        sigma = 0.5
        if defect == "nan-feature":
            X[2, 1] = np.nan
        elif defect == "nan-label":
            y[3] = np.nan
        elif defect == "shape-mismatch":
            y = y[:-1]
        elif defect == "no-rows":
            X, y = X[:0], y[:0]
        elif defect == "one-point":
            X, y = X[:1], y[:1]
        elif defect == "single-class":
            y = np.ones_like(y)
        else:
            sigma = 0.0
        fit = {"svm": lambda: train(X, y, sigma, small_config(t_max=5)),
               "svr": lambda: train_svr(X, y, sigma, small_config(t_max=5)),
               "scalable": lambda: train_scalable(X, y, sigma, small_config(t_max=5), 1, 0)}
        if trainer == "svr" and defect == "single-class":
            fit[trainer]()  # constant targets are a valid regression problem
            return
        with pytest.raises(error, match=message):
            fit[trainer]()

    def test_mini_toy_f_structure(self):
        ds = gen_two_class_toy(80, seed=42)
        model = train(ds.X, ds.y, 0.25, small_config())
        assert 0.8 <= model.meta["f_min"] and model.meta["f_max"] <= 1.2
        assert model.meta["f_rank"] <= 15
        assert model.meta["prox_fallbacks"] == 0 and model.meta["prox_rank"] >= 1

    def test_f_rank_from_the_factor(self, monkeypatch):
        # One eigvalsh of K per train (its check serves the eta solve and the
        # adaptive solve) and none of F: the rank is read off the factor's
        # column norms, with the same cut.
        ds = gen_two_class_toy(80, seed=5)
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(1) or original(A))
        for sigma in (0.25, 0.05):
            calls.clear()
            model = train(ds.X, ds.y, sigma, small_config())
            assert len(calls) == 1
            evals = original(model.F)
            assert model.meta["f_rank"] == np.sum(evals > 1e-6 * evals[-1]) >= 1
            assert model.meta["f_rank"] == model.adaptive.W.shape[1]
        frozen = train(ds.X, ds.y, 0.25, small_config(), freeze_f=True)
        assert frozen.meta["f_rank"] == 1 and np.array_equal(frozen.F, np.ones((80, 80)))

    @pytest.mark.parametrize("tau", [0.0, 0.01])
    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_one_kernel_check_per_train(self, task, tau, monkeypatch):
        # With eta unset the eta solve and the main solve share one check of
        # K: one eigvalsh of K per train.  At tau = 0 the classifier's rank
        # takes one more, of the compressed (s + 1) x (s + 1) matrix, which
        # is n x n here since every point is a support vector.
        ds = gen_two_class_toy(60, seed=8)
        K = gaussian_gram(apply_minmax(fit_minmax(ds.X), ds.X), 0.3)
        inputs = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: inputs.append(A) or original(A))
        config = small_config(tau=tau, t_max=200)
        if task == "svm":
            train(ds.X, ds.y, 0.3, config)
        else:
            train_svr(ds.X, ds.X[:, 0], 0.3, config, epsilon=0.05)
        assert sum(A.shape == K.shape and np.array_equal(A, K) for A in inputs) == 1
        rank_calls = 1 if (task, tau) == ("svm", 0.0) else 0
        assert sum(A.shape == K.shape for A in inputs) == 1 + rank_calls

    @pytest.mark.parametrize("defect, message", [
        ("asymmetric", "not symmetric"), ("indefinite", "not PSD"), ("non-square", "square"),
    ])
    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_one_kernel_check_keeps_every_rejection(self, task, defect, message, monkeypatch):
        ds = gen_two_class_toy(20, seed=8)

        def bad_gram(X, sigma):
            K = gaussian_gram(X, sigma)
            if defect == "asymmetric":
                K[0, 1] += 1e-3
            elif defect == "indefinite":
                K -= 2.0 * np.eye(len(K))
            else:
                K = np.hstack([K, K[:, :1]])
            return K

        # Each trainer builds its own Gram matrix.
        monkeypatch.setattr(svm if task == "svm" else svr, "gaussian_gram", bad_gram)
        for eta in (None, 1.0):
            with pytest.raises(DataError, match=message):
                if task == "svm":
                    train(ds.X, ds.y, 0.3, small_config(eta=eta))
                else:
                    train_svr(ds.X, ds.X[:, 0], 0.3, small_config(eta=eta), epsilon=0.05)

    @pytest.mark.parametrize("rank", [1, 2, 7, 10])
    def test_compressed_rank_matches_dense_count(self, rank, rng):
        # F = 11' + diag(w) K diag(w) / (4 eta) with K of rank r - 1 has rank
        # min(r - 1, s) + 1 for s nonzero weights; s runs over 0 (F = 11'),
        # fewer than r - 1, some, n - 1 and n (no border).
        n, eta = 40, 0.5
        Z = rng.normal(size=(n, rank - 1))
        K = Z @ Z.T
        for s in sorted({0, rank // 2, 12, n - 1, n}):
            w = np.zeros(n)
            w[rng.permutation(n)[:s]] = rng.uniform(0.2, 1.0, s) * rng.choice([-1.0, 1.0], s)
            F = (K * np.outer(w, w)) / (4.0 * eta) + 1.0
            evals = np.linalg.eigvalsh(F)
            dense = int(np.sum(evals > 1e-6 * evals[-1]))
            assert svm._f_rank(F, None, w) == dense == min(rank - 1, s) + 1

    @pytest.mark.parametrize("eta", [1e4, 100.0, 1.0])
    def test_zero_tau_f_rank_matches_dense_count(self, eta):
        ds = gen_two_class_toy(80, seed=5)
        model = train(ds.X, ds.y, 0.25, small_config(tau=0.0, eta=eta, t_max=300))
        assert isinstance(model.adaptive, ClosedForm)
        evals = np.linalg.eigvalsh(model.F)
        assert model.meta["f_rank"] == np.sum(evals > 1e-6 * evals[-1]) >= 1

    def test_model_meta_combines_the_solves(self):
        traces = [SolveTrace(iterations=3, terminated_by="tolerance", warnings=["a"],
                             prox_fallbacks=1, prox_rank=2, prox_steps=7),
                  SolveTrace(iterations=5, terminated_by="max_iter", warnings=["b", "c"],
                             prox_rank=4, prox_steps=11),
                  SolveTrace(iterations=2, terminated_by="tolerance", prox_fallbacks=2)]
        F = np.array([[2.0, 1.0], [1.0, 0.5]])
        meta = svm._model_meta(traces, F, None, np.array([1.0, 0.0]), -1.5)
        assert meta == {"iterations": 10, "objective": -1.5, "terminated_by": "max_iter",
                        "prox_fallbacks": 3, "prox_rank": 4, "prox_steps": 18,
                        "warnings": ["a", "b", "c"], "f_min": 0.5, "f_max": 2.0, "f_rank": 2}
        meta = svm._model_meta(traces[::2], F, np.ones((2, 1)), np.zeros(2), 0.0)
        assert (meta["terminated_by"], meta["f_rank"]) == ("tolerance", 1)

    def test_label_symmetry(self):
        X, y = two_blobs(20, seed=13)
        m_pos = train(X, y, 0.8, small_config(eta=3.0))
        m_neg = train(X, -y, 0.8, small_config(eta=3.0))
        probe = X[:5] + 0.05
        assert np.allclose(m_pos.decision_function(probe),
                           -m_neg.decision_function(probe), atol=1e-8)

    def test_predictions_are_finite_pm_one(self, rng):
        X, y = two_blobs(18, seed=30)
        model = train(X, y, 0.7, small_config())
        probe = rng.normal(size=(25, 2))
        labels = model.predict(probe)
        assert set(np.unique(labels)) <= {-1.0, 1.0}
        assert np.all(np.isfinite(model.decision_function(probe)))

    def test_dimension_mismatch_on_predict(self):
        X, y = two_blobs(10, seed=1)
        model = train(X, y, 1.0, small_config())
        with pytest.raises(DataError):
            model.predict(np.ones((3, 5)))


class TestRecoverBias:
    def test_symmetric_two_point_problem(self):
        # mirror-image classes; by symmetry the separator passes through 0
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train(X, y, 1.0, small_config(tau=0.0))
        assert abs(model.bias) < 1e-8

    def test_matches_reference_qp_bias(self):
        X, y = two_blobs(40, seed=17, separation=1.5)
        model = train(X, y, 0.6, small_config(tau=0.0, eta=1e9, tol=1e-10),
                      freeze_f=True)
        K = gaussian_gram(model.X, model.sigma)
        M = K * np.outer(y, y)
        L = float(np.linalg.eigvalsh(K)[-1])
        a = np.zeros(40)
        for _ in range(30000):
            a = project_exact(a + (1.0 - M @ a) / L, y, 1.0)
        margins = K @ (a * y)
        sv = (a > 1e-6) & (a < 1.0 - 1e-6)
        assert np.any(sv)
        ref_bias = np.median(y[sv] - margins[sv])
        assert abs(model.bias - ref_bias) < 1e-3

    def test_all_at_bound_interval_fallback(self):
        # tiny C forces every dual to the cap; bias comes from the KKT interval
        X, y = two_blobs(12, seed=23)
        C = 1e-4
        model = train(X, y, 1.0, small_config(C=C, tau=0.0, eta=1e8, tol=1e-12),
                      freeze_f=True)
        assert np.all(model.alpha >= (1.0 - 1e-5) * C)
        K = gaussian_gram(model.X, model.sigma)
        margins = (model.F * K) @ (model.alpha * y)
        lowers = [-1.0 - margins[i] for i in range(12) if y[i] < 0]
        uppers = [1.0 - margins[i] for i in range(12) if y[i] > 0]
        assert max(lowers) - 1e-12 <= model.bias <= min(uppers) + 1e-12

    @pytest.mark.parametrize("label, at_cap, side", [
        (1.0, False, "lower"), (1.0, True, "upper"), (-1.0, False, "upper"),
        (-1.0, True, "lower"),
    ], ids=["pos-at-zero", "pos-at-cap", "neg-at-zero", "neg-at-cap"])
    def test_one_sided_fallback(self, label, at_cap, side, rng):
        # One class and no interior dual bound the bias from one side only:
        # it sits at that bound, the largest lower or the smallest upper one.
        n, C = 7, 0.5
        y = np.full(n, label)
        alpha = np.full(n, C if at_cap else 0.0)
        A = rng.normal(size=(n, n))
        K, F = A @ A.T, 1.0 + 0.1 * rng.uniform(size=(n, n))
        values = y - (F * K) @ (alpha * y)
        expected = values.max() if side == "lower" else values.min()
        assert _kkt_bias(values, y, alpha, C) == expected

    def test_no_points_give_zero_bias(self):
        empty = np.zeros(0)
        assert _kkt_bias(empty, empty, empty, 1.0) == 0.0

    @pytest.mark.parametrize("tau", [0.0, 0.01])
    @pytest.mark.parametrize("variant", ["nesterov", "pgd", "monotone-nesterov"])
    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_matches_dense_kkt_formula(self, task, variant, tau):
        # The trainers read (F o K)w off the solve's gradient; the dense
        # formula forms F o K from the model's F.
        ds = gen_two_class_toy(60, seed=4, noise=0.2)
        cfg = small_config(tau=tau, t_max=120, variant=variant)
        if task == "svm":
            model = train(ds.X, ds.y, 0.3, cfg)
        else:
            model = train_svr(ds.X, ds.X[:, 0] ** 2 + ds.X[:, 1], 0.3, cfg, epsilon=0.02)
        assert abs(model.bias - dense_kkt_bias(model)) <= 1e-12 * max(1.0, abs(model.bias))


def match(X_train, X_test):
    return reciprocal_match(pairwise_sq_dists(X_train, X_test))


def oracle_match(X_train, X_test):
    """argmax over training points of the oracle similarity, ties to the first."""
    return np.argmax(oracle_reciprocal_similarity(X_train, X_test), axis=0)


def oracle_expansion(model, coef, X_test):
    """The expansion from the oracle match and the whole n x m F extension and kernel."""
    Xs = apply_minmax(model.scaler, X_test)
    F_ext = model.adaptive.columns(oracle_match(model.X, Xs))
    Kx = np.exp(-pairwise_sq_dists(model.X, Xs) / (2.0 * model.sigma * model.sigma))
    return coef @ (F_ext * Kx) + model.bias


class TestReciprocalSimilarity:
    """The reciprocal-rank rule, through reciprocal_match."""

    def test_self_match_is_one(self, rng):
        X = rng.normal(size=(7, 2))
        assert np.array_equal(match(X, X), np.arange(7))

    def test_hand_enumerated_ranks(self):
        X_train = np.array([[0.0], [10.0]])
        X_test = np.array([[1.0]])
        # train 0: test 0 is its 1st test neighbor, and train 0 is the 1st
        # train neighbor of the test point -> r s = 1 * 1
        # train 1: r = 1, but it is the 2nd train neighbor -> 1 * 2
        assert np.array_equal(match(X_train, X_test), [0])

    def test_indices_in_range(self, rng):
        best = match(rng.normal(size=(6, 3)), rng.normal(size=(4, 3)))
        assert best.dtype == np.int64 and best.shape == (4,)
        assert np.all((best >= 0) & (best < 6))

    def test_column_permutation_equivariance(self, rng):
        X_train = rng.normal(size=(5, 2))
        X_test = rng.normal(size=(4, 2))
        perm = rng.permutation(4)
        assert np.array_equal(match(X_train, X_test[perm]), match(X_train, X_test)[perm])

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 3, 1)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(DataError, match="n x m"):
            reciprocal_match(np.zeros(shape))

    def test_negative_distances_rejected(self):
        # The ranks sort the bits of the distances, which order only
        # nonnegative floats.
        with pytest.raises(DataError, match="nonnegative"):
            reciprocal_match(np.array([[-1.0], [-2.0]]))


def _oracle_cases():
    """(X_train, X_test) pairs, many of them rich in equal or near-equal distances."""
    rng = np.random.default_rng(7)
    cases = {}
    for n, m, d in [(2, 1, 1), (1, 5, 2), (7, 1, 2), (2, 9, 3), (30, 200, 2),
                    (120, 500, 1), (40, 60, 5)]:
        cases[f"random-{n}x{m}x{d}"] = (rng.normal(size=(n, d)), rng.normal(size=(m, d)))
    cases["quantized"] = (np.round(rng.uniform(0, 4, (50, 2))) / 4,
                          np.round(rng.uniform(0, 4, (300, 2))) / 4)
    # the test points of `adakern grid`
    xs = np.linspace(-1.0, 1.0, 25)
    uu, vv = np.meshgrid(xs, xs, indexing="ij")
    grid = np.column_stack([uu.ravel(), vv.ravel()])
    cases["grid"] = (np.round(rng.uniform(-5, 5, (40, 2))) / 5, grid)
    base = rng.normal(size=(10, 2))
    cases["repeated-test-rows"] = (rng.normal(size=(15, 2)), np.repeat(base, 20, axis=0))
    cases["repeated-train-rows"] = (np.tile(base, (3, 1)), rng.normal(size=(80, 2)))
    X = rng.normal(size=(25, 3))
    cases["test-equals-train"] = (X, X)
    # test points mirrored around training point 0, so distances pair up
    # exactly or up to round-off
    center, offsets = 0.3, rng.uniform(0.0, 1.0, 40)
    cases["mirror-1d"] = (np.array([[center], [center + 0.5], [center - 0.5]]),
                          np.concatenate([center + offsets, center - offsets])[:, None])
    # every test point far off: a small cloud high above the training plane,
    # seen from each training point in another order, so some columns have
    # many candidates; and that cloud beside as many points near the plane
    X = np.column_stack([rng.normal(size=(60, 2)), np.zeros(60)])
    far = np.column_stack([0.1 * rng.normal(size=(300, 2)), np.full(300, 10.0)])
    near = np.column_stack([rng.normal(size=(300, 2)), np.zeros(300)])
    cases["far-off"] = (X, far)
    cases["half-far-off"] = (X, np.vstack([far, near]))
    cases["duplicated-train-rows"] = (np.repeat(base, 2, axis=0), np.repeat(base, 3, axis=0))
    cases["one-train-point"] = (rng.normal(size=(1, 2)), rng.normal(size=(50, 2)))
    cases["one-test-point"] = (rng.normal(size=(50, 2)), rng.normal(size=(1, 2)))
    cases["no-test-points"] = (rng.normal(size=(5, 2)), np.empty((0, 2)))
    return cases


ORACLE_CASES = _oracle_cases()


class TestReciprocalOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_matches_stable_argsort_oracle(self, name):
        X_train, X_test = ORACLE_CASES[name]
        assert np.array_equal(match(X_train, X_test), oracle_match(X_train, X_test))

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_chunks_do_not_matter(self, name, monkeypatch):
        # Chunks of one row or column, of three, and one chunk for all.
        X_train, X_test = ORACLE_CASES[name]
        D = pairwise_sq_dists(X_train, X_test)
        n, m = D.shape
        expected = oracle_match(X_train, X_test)
        for entries in (1, 3 * max(n, m), max(n * m, 1)):
            monkeypatch.setattr(kernel, "_CHUNK_ENTRIES", entries)
            assert np.array_equal(reciprocal_match(D), expected), entries

    def test_only_columns_with_a_candidate_sort(self, monkeypatch):
        # A column sorts its training points (a row of n entries) only when
        # some row other than its nearest could beat or tie that nearest.
        sorted_rows = []
        original = svm._stable_ranks

        def recording(V):
            if V.shape[1] == len(X_train):
                sorted_rows.append(len(V))
            return original(V)

        monkeypatch.setattr(svm, "_stable_ranks", recording)
        X_train, X_test = ORACLE_CASES["far-off"]
        match(X_train, X_test)
        assert 0 < sum(sorted_rows) < len(X_test)

    def test_grid_takes_the_near_tie_path(self, monkeypatch):
        # A row whose packed-key sort shows a descent is ranked again by a
        # stable argsort: the grid case holds such rows, the two-arc batch
        # none.
        fallback_rows = []
        original = np.argsort

        def recording(a, *args, **kwargs):
            fallback_rows.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        match(*ORACLE_CASES["grid"])
        assert sum(fallback_rows) > 0
        fallback_rows.clear()
        model, probe = bulk_batch("two-arc")
        model.decision_function(probe)
        assert fallback_rows == []

    def test_nan_distances_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(DataError, match="NaN"):
            match(np.array([[0.0], [1.0]]), np.array([[np.inf]]))

    def test_svm_decisions_match_oracle_expansion(self):
        X, y = two_blobs(30, seed=5)
        model = train(X, y, 0.6, small_config(tau=0.1))
        probe = ORACLE_CASES["grid"][1] * 3.0
        expected = oracle_expansion(model, model.alpha * model.y, probe)
        assert np.array_equal(model.decision_function(probe), expected)

    def test_svr_predictions_match_oracle_expansion(self):
        X = np.linspace(-1.0, 1.0, 21)[:, None]
        model = train_svr(X, np.sign(X[:, 0]), 0.2,
                          SolverConfig(C=2.0, tau=0.01, eta=5.0, t_max=300), epsilon=0.05)
        probe = np.concatenate([0.1 + np.linspace(0, 1, 30), 0.1 - np.linspace(0, 1, 30)])[:, None]
        scaled = oracle_expansion(model, model.alpha_hat - model.alpha_check, probe)
        expected = inverse_minmax(model.y_scaler, scaled[:, None])[:, 0]
        assert np.array_equal(model.predict(probe), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_test_features_rejected(self, bad):
        X, y = two_blobs(12, seed=2)
        model = train(X, y, 0.6, small_config(tau=0.0))
        probe = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(DataError, match="non-finite"):
            model.decision_function(probe)
        regressor = train_svr(X, X[:, 0], 0.6, SolverConfig(C=1.0, eta=1.0, t_max=50))
        with pytest.raises(DataError, match="non-finite"):
            regressor.predict(probe)

    def test_one_dimensional_test_features_rejected(self):
        X, y = two_blobs(12, seed=2)
        model = train(X, y, 0.6, small_config(tau=0.0))
        with pytest.raises(DataError, match="^test features must form a 2-D array, got 1 "):
            model.decision_function(np.zeros(2))


class TestExtendAdaptive:
    """F extended to test points: its columns at the rows reciprocal_match picks."""

    def test_identity_on_training_points(self, rng):
        X = rng.normal(size=(8, 2))
        F = rng.uniform(0.9, 1.1, (8, 8))
        assert np.array_equal(Dense(F).columns(match(X, X)), F)

    def test_single_column_argmax(self):
        # One test point ranks first for every training point (r = 1), so
        # the nearest training point wins.
        F = np.arange(16.0).reshape(4, 4)
        D = np.array([[4.0], [3.0], [0.5], [2.0]])
        assert np.array_equal(Dense(F).columns(reciprocal_match(D)), F[:, [2]])

    def test_hand_example_column(self, rng):
        X_train = np.array([[0.0], [10.0]])
        X_test = np.array([[1.0]])
        F = rng.uniform(0.9, 1.1, (2, 2))
        assert np.array_equal(Dense(F).columns(match(X_train, X_test)), F[:, [0]])

    def test_tie_breaks_to_smallest_index(self):
        # Test point 0 at 2: training point 0.0 has r = 1, s = 2, and 3.0 has
        # r = 2 (test point 1 at 3.5 is nearer) and s = 1; both products are
        # 2, so the first listed wins in either order.
        X_test = np.array([[2.0], [3.5]])
        for X_train in (np.array([[0.0], [3.0]]), np.array([[3.0], [0.0]])):
            assert np.array_equal(oracle_reciprocal_similarity(X_train, X_test)[:, 0],
                                  [0.5, 0.5])
            assert match(X_train, X_test)[0] == 0


class TestScalingFidelity:
    def test_training_set_routes_through_self_match(self):
        X, y = two_blobs(22, seed=14)
        model = train(X, y, 0.8, small_config())
        via_predict = model.decision_function(X)
        direct = decision_values_insample(model)
        assert np.max(np.abs(via_predict - direct)) < 1e-12

    def test_scaler_fitted_on_train_only(self):
        X, y = two_blobs(16, seed=3)
        model = train(X, y, 0.9, small_config())
        outside = X.max(axis=0) + 5.0
        from adakern.data import apply_minmax
        scaled = apply_minmax(model.scaler, outside[None, :])
        assert np.all(scaled > 1.0)  # values may leave [0, 1] at predict time
        assert np.isfinite(model.decision_function(outside[None, :])).all()

    def test_empty_batch_gives_empty_results(self):
        X, y = two_blobs(16, seed=3)
        model = train(X, y, 0.9, small_config())
        for result in (model.decision_function(np.empty((0, 2))), model.predict(np.empty((0, 2)))):
            assert result.shape == (0,)


def test_accuracy_beats_frozen_on_toy():
    ds = gen_two_class_toy(120, seed=7)
    train_idx = np.arange(0, 120, 2)
    test_idx = np.arange(1, 120, 2)
    cfg = small_config()
    adaptive = train(ds.X[train_idx], ds.y[train_idx], 0.3, cfg)
    frozen = train(ds.X[train_idx], ds.y[train_idx], 0.3, cfg, freeze_f=True)
    acc_adaptive = accuracy(adaptive, ds.X[test_idx], ds.y[test_idx])
    acc_frozen = accuracy(frozen, ds.X[test_idx], ds.y[test_idx])
    assert acc_adaptive >= acc_frozen
