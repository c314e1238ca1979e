import time

import numpy as np
import pytest

from adakern.adaptive import ClosedForm, Dense, Partition
from adakern.data import apply_minmax, fit_minmax, gen_two_class_toy
from adakern.errors import DataError, ParameterError
from adakern.kernel import gaussian_gram
from adakern.scale import (
    BlockSolution,
    bound_report,
    cross_cluster_mass,
    decomposition_objective,
    exact_reference,
    kmeans_partition,
    screen_nonsupport,
    solve_blocks,
    train_scalable,
)
from adakern.solver import SolverConfig, SolveTrace, solve
from adakern.svm import train

from conftest import block_kernel, two_blobs


def config(**kwargs):
    defaults = dict(C=1.0, tau=0.0, eta=2.0, t_max=2000, tol=1e-6)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


class TestKmeans:
    def test_single_cluster(self, rng):
        X = rng.normal(size=(10, 2))
        p = kmeans_partition(X, 1, seed=0)
        assert np.all(p.assignment == 0)

    def test_singletons(self, rng):
        X = rng.normal(size=(6, 2))
        p = kmeans_partition(X, 6, seed=0)
        assert sorted(np.bincount(p.assignment)) == [1] * 6

    def test_recovers_separated_blobs(self):
        X, y = two_blobs(60, separation=8.0, seed=4, spread=0.3)
        p = kmeans_partition(X, 2, seed=1)
        side = X[:, 0] > 0
        # one cluster per blob (label of each cluster is arbitrary)
        first = p.assignment[side]
        second = p.assignment[~side]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 3))
        p1 = kmeans_partition(X, 4, seed=7)
        p2 = kmeans_partition(X, 4, seed=7)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_no_empty_clusters_under_duplicates(self):
        X = np.vstack([np.zeros((8, 2)), np.ones((2, 2))])
        p = kmeans_partition(X, 4, seed=3)
        assert np.bincount(p.assignment, minlength=4).min() >= 1

    def test_too_many_clusters(self, rng):
        with pytest.raises(ParameterError):
            kmeans_partition(rng.normal(size=(3, 2)), 4, seed=0)


class TestPartitionType:
    def test_validates_cover(self):
        with pytest.raises(DataError):
            Partition(assignment=np.array([0, 0, 2]), n_clusters=3)  # cluster 1 empty

    def test_clusters_listing(self):
        p = Partition(assignment=np.array([1, 0, 1, 0]), n_clusters=2)
        groups = p.clusters()
        assert np.array_equal(groups[0], [1, 3])
        assert np.array_equal(groups[1], [0, 2])

    @pytest.mark.parametrize("assignment, n_clusters, message", [
        ([0, 10**12], 2, "out of range"),
        ([0, -1], 2, "out of range"),
        ([0, 10**12], 10**12, "cluster count"),
        ([0, 1], 0, "cluster count"),
        ([0, 1], 3, "cluster count"),
    ], ids=["huge-index", "negative-index", "huge-count", "zero-count", "count-above-n"])
    def test_rejects_before_counting(self, assignment, n_clusters, message):
        start = time.perf_counter()
        with pytest.raises(DataError, match=message):
            Partition(np.array(assignment), n_clusters)
        assert time.perf_counter() - start < 0.1

    def test_block_diagonal(self):
        p = Partition(assignment=np.array([1, 0, 1, 0]), n_clusters=2)
        M = p.block_diagonal(np.full((2, 2), 10.0 * (c + 1)) for c in range(2))
        assert np.array_equal(M, [[20, 1, 20, 1], [1, 10, 1, 10],
                                  [20, 1, 20, 1], [1, 10, 1, 10]])


class TestSolveBlocks:
    def test_single_block_equals_whole_problem(self):
        X, y = two_blobs(24, seed=2)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config()
        p = kmeans_partition(Xs, 1, seed=0)
        blocks = solve_blocks(Xs, y, p, 0.8, cfg)
        K = gaussian_gram(Xs, 0.8)
        state, F, _ = solve(K, y, cfg, with_equality=False)
        assert np.array_equal(blocks.alpha_bar, state.alpha)
        assert np.array_equal(blocks.partition.block_diagonal(blocks.blocks), F)

    def test_box_respected_per_block(self):
        X, y = two_blobs(30, seed=9)
        p = kmeans_partition(X, 3, seed=5)
        blocks = solve_blocks(X, y, p, 0.7, config(C=0.5))
        assert np.all(blocks.alpha_bar >= 0.0)
        assert np.all(blocks.alpha_bar <= 0.5)

    def test_separated_blobs_reach_whole_objective(self):
        # block-diagonal-ish kernel: the v=2 objective matches the exact one
        X, y = two_blobs(40, separation=12.0, seed=6, spread=0.3)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=4.0, tol=1e-8)
        K = gaussian_gram(Xs, 0.1)
        p = kmeans_partition(Xs, 2, seed=1)
        blocks = solve_blocks(Xs, y, p, 0.1, cfg)
        H_bar = decomposition_objective(blocks.alpha_bar, y, K,
                                        blocks.partition.block_diagonal(blocks.blocks), cfg.eta)
        _, _, H_star = exact_reference(K, y, cfg)
        assert abs(H_star - H_bar) < 1e-4 * max(1.0, abs(H_star))

    def test_single_class_blocks_solved_and_counted(self):
        # labels aligned with blobs: each cluster sees one class only; the
        # box-only subproblem is still well-posed and must actually be solved
        X, y = two_blobs(20, separation=9.0, seed=3, spread=0.3)
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        p = kmeans_partition(X, 2, seed=2)
        cfg = config()
        blocks = solve_blocks(X, y, p, 0.5, cfg)
        assert blocks.single_class_blocks == 2
        K = gaussian_gram(X, 0.5)
        solved = decomposition_objective(blocks.alpha_bar, y, K,
                                         blocks.partition.block_diagonal(blocks.blocks), cfg.eta)
        zeroed = decomposition_objective(np.zeros(20), y, K,
                                         np.ones((20, 20)), cfg.eta)
        assert solved > zeroed

    def test_requires_resolved_eta(self):
        X, y = two_blobs(10, seed=0)
        p = kmeans_partition(X, 2, seed=0)
        with pytest.raises(ParameterError):
            solve_blocks(X, y, p, 1.0, SolverConfig(C=1.0, tau=0.0, eta=None))


class TestLemmaEquivalence:
    def test_masked_kernel_solve_matches_blocks(self):
        # whole-problem solve with the cross-cluster entries zeroed equals the
        # concatenated block solves, in duals, blocks and objective; both
        # sides are run to deep convergence so the 1e-6 match is meaningful
        X, y = two_blobs(20, seed=12)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=20.0, tol=1e-12, t_max=50000)
        K = gaussian_gram(Xs, 0.6)
        p = kmeans_partition(Xs, 2, seed=4)
        K_bar = block_kernel(K, p)
        state, F_masked, _ = solve(K_bar, y, cfg, with_equality=False)
        blocks = solve_blocks(Xs, y, p, 0.6, cfg)
        F_ext = blocks.partition.block_diagonal(blocks.blocks)
        H_masked = decomposition_objective(state.alpha, y, K_bar, F_masked, cfg.eta)
        H_blocks = decomposition_objective(blocks.alpha_bar, y, K_bar, F_ext, cfg.eta)
        assert abs(H_masked - H_blocks) < 1e-6 * max(1.0, abs(H_masked))
        assert np.allclose(state.alpha, blocks.alpha_bar, atol=1e-4)
        # with tau = 0 the masked-kernel adaptive matrix has exactly 1
        # off-block and the block solution in-block
        for idx, block in zip(p.clusters(), blocks.blocks):
            assert np.allclose(F_masked[np.ix_(idx, idx)], block, atol=1e-4)
        off = p.assignment[:, None] != p.assignment[None, :]
        assert np.allclose(F_masked[off], 1.0, atol=1e-12)


class TestCrossClusterMass:
    def test_single_cluster_is_zero(self, rng):
        K = gaussian_gram(rng.normal(size=(8, 2)), 1.0)
        p = Partition(assignment=np.zeros(8, dtype=int), n_clusters=1)
        assert cross_cluster_mass(K, p) == 0.0

    def test_singletons_total_off_diagonal(self, rng):
        K = gaussian_gram(rng.normal(size=(6, 2)), 1.0)
        p = Partition(assignment=np.arange(6), n_clusters=6)
        q = cross_cluster_mass(K, p)
        manhattan = np.abs(K).sum()
        assert np.isclose(q, manhattan - np.abs(np.diag(K)).sum())
        c_prime = manhattan / (np.sqrt(6) * np.linalg.norm(K))
        assert q <= c_prime * np.sqrt(6) * np.linalg.norm(K) + 1e-12

    def test_hand_sum_four_points(self):
        K = np.array([
            [1.0, 0.5, 0.2, 0.1],
            [0.5, 1.0, 0.3, 0.4],
            [0.2, 0.3, 1.0, 0.6],
            [0.1, 0.4, 0.6, 1.0],
        ])
        p = Partition(assignment=np.array([0, 0, 1, 1]), n_clusters=2)
        # cross pairs: (0,2) (0,3) (1,2) (1,3) in both orders
        assert np.isclose(cross_cluster_mass(K, p), 2 * (0.2 + 0.1 + 0.3 + 0.4))


class TestBoundReport:
    def test_single_cluster_zero_bounds(self):
        X, y = two_blobs(20, seed=5)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=3.0, tol=1e-8)
        K = gaussian_gram(Xs, 0.7)
        p = kmeans_partition(Xs, 1, seed=0)
        blocks = solve_blocks(Xs, y, p, 0.7, cfg)
        exact = exact_reference(K, y, cfg)
        report = bound_report(blocks, K, p, cfg, y, exact=exact)
        assert report.Q_pi == 0.0
        assert report.objective_gap_bound == 0.0
        assert report.measured_objective_gap < 1e-6

    def test_theorem_bounds_hold_on_paired_blobs(self):
        from conftest import paired_blobs

        X, y = paired_blobs(120, seed=77)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=60.0, tol=1e-7, t_max=4000)
        K = gaussian_gram(Xs, 0.04)
        exact = exact_reference(K, y, cfg)
        for v in (2, 5):
            p = kmeans_partition(Xs, v, seed=11)
            blocks = solve_blocks(Xs, y, p, 0.04, cfg)
            report = bound_report(blocks, K, p, cfg, y, exact=exact)
            assert report.measured_objective_gap <= report.objective_gap_bound
            assert report.measured_alpha_gap_sq <= report.alpha_gap_bound
            assert report.measured_F_gap <= report.F_gap_bound
            assert report.F_gap_bound <= report.exact_F_bound

    def test_warns_on_nonpositive_entries(self):
        # hand-built block solution with a negative entry in one block
        p = Partition(assignment=np.array([0, 0, 1, 1]), n_clusters=2)
        blocks = BlockSolution(
            partition=p, alpha_bar=np.zeros(4),
            blocks=[np.array([[1.0, -0.2], [-0.2, 1.0]]), np.eye(2)],
            traces=[SolveTrace(gradient=np.ones(2))] * 2)
        K = np.eye(4)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        report = bound_report(blocks, K, p, config(eta=1.0), y)
        assert report.warnings

    def test_no_positive_entry_rejected(self):
        p = Partition(assignment=np.zeros(2, dtype=int), n_clusters=1)
        blocks = BlockSolution(partition=p, alpha_bar=np.zeros(2), blocks=[np.zeros((2, 2))],
                               traces=[SolveTrace(gradient=np.ones(2))])
        with pytest.raises(DataError, match="^no positive adaptive-matrix entries"):
            bound_report(blocks, np.eye(2), p, config(eta=1.0), np.array([1.0, -1.0]))


def dense_screen(blocks, K, partition, y, B, B2, C, kappa=1.0):
    """The screening sets from the assembled F_bar and the masked K_bar."""
    K_bar = block_kernel(K, partition)
    alpha = blocks.alpha_bar
    grad = 1.0 - y * ((blocks.partition.block_diagonal(blocks.blocks) * K_bar) @ (y * alpha))
    threshold = (B + B2) * C * (np.abs(K_bar).sum(axis=0) + kappa)
    return (np.flatnonzero((alpha == 0.0) & (grad <= -threshold)),
            np.flatnonzero((alpha == 0.0) & (grad <= threshold)))


class TestScreening:
    def test_gradient_one_yields_empty_set(self):
        p = Partition(assignment=np.array([0, 0, 1, 1]), n_clusters=2)
        blocks = BlockSolution(partition=p, alpha_bar=np.zeros(4),
                               blocks=[np.ones((2, 2))] * 2,
                               traces=[SolveTrace(gradient=np.ones(2))] * 2)
        K = np.eye(4)
        strict, positive = screen_nonsupport(blocks, K, B=0.1, B2=1.1, C=1.0)
        assert strict.size == 0
        # the positive threshold 1.2 (1 + 1) lies above the gradient 1
        assert np.array_equal(positive, np.arange(4))

    def test_blockwise_sets_match_dense_assembly(self):
        X, y = two_blobs(80, separation=3.0, seed=31)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=10.0)
        K = gaussian_gram(Xs, 0.4)
        for v, B, B2 in ((3, 0.0, 1e-3), (4, 1e-4, 1e-3), (8, 0.0, 1e-2)):
            p = kmeans_partition(Xs, v, seed=7)
            blocks = solve_blocks(Xs, y, p, 0.4, cfg)
            sets = screen_nonsupport(blocks, K, B, B2, 1.0, kappa=0.5)
            reference = dense_screen(blocks, K, p, y, B, B2, 1.0, kappa=0.5)
            assert sets[0].size and sets[1].size > sets[0].size
            for got, want in zip(sets, reference):
                assert np.array_equal(got, want)

    def test_strict_set_has_no_false_positives(self):
        X, y = two_blobs(80, separation=3.0, seed=31)
        from adakern.data import apply_minmax, fit_minmax
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=10.0)
        K = gaussian_gram(Xs, 0.4)
        p = kmeans_partition(Xs, 4, seed=7)
        blocks = solve_blocks(Xs, y, p, 0.4, cfg)
        exact = exact_reference(K, y, cfg)
        report = bound_report(blocks, K, p, cfg, y, exact=exact)
        alpha_star = exact[0]
        for i in report.screened_indices:
            assert alpha_star[i] <= 1e-8
        # the positive-threshold variant is the diagnostic superset
        assert set(report.screened_indices) <= set(report.screened_positive_indices)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -5.0])
    def test_bad_kappa_rejected(self, kappa):
        p = Partition(assignment=np.array([0, 0, 1, 1]), n_clusters=2)
        blocks = BlockSolution(partition=p, alpha_bar=np.zeros(4),
                               blocks=[np.ones((2, 2))] * 2,
                               traces=[SolveTrace(gradient=np.ones(2))] * 2)
        with pytest.raises(ParameterError):
            bound_report(blocks, np.eye(4), p, config(), np.array([1.0, -1.0, 1.0, -1.0]),
                         kappa=kappa)


class TestTrainScalable:
    def test_model_predicts_and_has_zero_bias(self):
        X, y = two_blobs(40, seed=15)
        model = train_scalable(X, y, 0.6, SolverConfig(C=1.0, tau=0.01, eta=None),
                               v=3, seed=2)
        assert model.bias == 0.0
        assert model.mode == "scalable"
        assert model.assignment is not None
        # blocks drop the nuclear term, so the prox is the identity
        assert (model.meta["prox_fallbacks"], model.meta["prox_rank"]) == (0, 0)
        labels = model.predict(X)
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_empty_batch_gives_empty_decisions(self):
        X, y = two_blobs(40, seed=15)
        model = train_scalable(X, y, 0.6, SolverConfig(C=1.0, tau=0.0, eta=None), v=3, seed=2)
        for result in (model.decision_function(np.empty((0, 2))), model.predict(np.empty((0, 2)))):
            assert result.shape == (0,)

    @pytest.mark.parametrize("t_max", [3, 2000])
    def test_meta_summarises_the_block_solves(self, t_max):
        X, y = two_blobs(40, seed=15)
        cfg = SolverConfig(C=1.0, tau=0.01, eta=2.0, t_max=t_max, tol=1e-3)
        model = train_scalable(X, y, 0.6, cfg, v=3, seed=2)
        p = kmeans_partition(model.X, 3, seed=2)
        traces = solve_blocks(model.X, model.y, p, 0.6, cfg).traces
        stops = {t.terminated_by for t in traces}
        assert model.meta["terminated_by"] == ("max_iter" if "max_iter" in stops
                                               else "tolerance")
        assert model.meta["terminated_by"] == ("max_iter" if t_max == 3 else "tolerance")
        assert model.meta["iterations"] == sum(t.iterations for t in traces)
        assert model.meta["warnings"] == []
        # The blocks solve at tau = 0, and the model's config says so.
        assert model.config.tau == 0.0 and model.config.eta == 2.0

    def test_single_cluster_matches_plain_box_solve(self):
        from dataclasses import replace

        from adakern.data import apply_minmax, fit_minmax
        from adakern.solver import resolve_eta
        from adakern.svm import SvmModel

        X, y = two_blobs(30, seed=18)
        model = train_scalable(X, y, 0.7, SolverConfig(C=1.0, tau=0.01, eta=None),
                               v=1, seed=0)
        # reference: exact mode without bias or nuclear terms, wrapped as a
        # zero-bias model so prediction goes through the identical path
        scaler = fit_minmax(X)
        Xs = apply_minmax(scaler, X)
        K = gaussian_gram(Xs, 0.7)
        cfg = resolve_eta(K, y, SolverConfig(C=1.0, tau=0.01, eta=None))
        state, F, _ = solve(K, y, replace(cfg, tau=0.0), with_equality=False)
        reference = SvmModel(X=Xs, y=y, alpha=state.alpha, adaptive=Dense(F), bias=0.0,
                             sigma=0.7, config=cfg, scaler=scaler)
        probe = X + 0.03
        assert np.array_equal(model.alpha, state.alpha)
        assert np.array_equal(model.F, F)
        assert np.array_equal(model.decision_function(probe),
                              reference.decision_function(probe))


class TestCrossValidateScalable:
    def test_scores_decomposition_models_and_skips_a_fold_it_cannot_cluster(self):
        # 10 points in 3 folds leave training folds of 6, 7 and 7 points, so
        # 7 clusters fit two of them; 11 clusters fit none.
        from dataclasses import replace

        from adakern.data import kfold
        from adakern.svm import accuracy, grid_search

        X, y = two_blobs(10, seed=4)
        cfg = SolverConfig(C=1.0, tau=0.0, eta=None, t_max=30)
        expected = []
        for held in kfold(10, 3, 1):
            rows = np.ones(10, dtype=bool)
            rows[held] = False
            if rows.sum() >= 7:
                model = train_scalable(X[rows], y[rows], 0.5, replace(cfg, C=2.0), 7, 1)
                expected.append(accuracy(model, X[held], y[held]))
        assert len(expected) == 2

        def table(v):
            def fit(X, y, sigma, config):
                return train_scalable(X, y, sigma, config, v, 1)

            return grid_search(X, y, [0.5], [2.0], 3, 1, cfg, fit, accuracy)[2]

        assert table(7) == [(0.5, 2.0, float(np.mean(expected)))]
        assert table(11) == [(0.5, 2.0, 0.0)]
        with pytest.raises(DataError, match="10 training points cannot form 11 clusters"):
            train_scalable(X, y, 0.5, cfg, 11, 1)


class TestClosedFormModel:
    """The decomposition model's F, rank and objective come from its blocks."""

    @staticmethod
    def scalable(eta, v=5, n=400):
        ds = gen_two_class_toy(n, seed=1)
        return train_scalable(ds.X, ds.y, 0.05, SolverConfig(C=1.0, tau=0.0, eta=eta, t_max=100),
                              v, 1)

    def test_closed_form_equals_the_block_solves(self):
        X, y = two_blobs(40, seed=15)
        Xs = apply_minmax(fit_minmax(X), X)
        cfg = config(eta=0.5, t_max=200)
        for v in (1, 3):
            p = kmeans_partition(Xs, v, seed=2)
            blocks = solve_blocks(Xs, y, p, 0.6, cfg)
            F = ClosedForm(Xs, y * blocks.alpha_bar, 0.6, cfg.eta, p).dense()
            assert np.array_equal(F, blocks.partition.block_diagonal(blocks.blocks))
            model = train_scalable(X, y, 0.6, cfg, v, 2)
            assert np.array_equal(model.F, F) and np.array_equal(model.alpha, blocks.alpha_bar)
        # One cluster: the exact-mode tau = 0 F of the whole problem.
        K = gaussian_gram(Xs, 0.6)
        state, F, _ = solve(K, y, cfg)
        one = Partition(np.zeros(y.size, dtype=int), 1)
        assert np.array_equal(ClosedForm(Xs, y * state.alpha, 0.6, cfg.eta, one).dense(), F)

    def test_no_n_by_n_eigendecomposition(self, monkeypatch):
        shapes = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda A, *a, f=original, **k: shapes.append(A.shape) or f(A, *a, **k))
        model = self.scalable(1e4)
        support = np.count_nonzero(model.alpha)
        assert 0 < support < 399 and (support + 1, support + 1) in shapes
        assert max(shape[0] for shape in shapes) < 400

    @pytest.mark.parametrize("eta, rank", [(1e4, 1), (0.015, 2), (0.09, 10)])
    def test_f_rank_and_objective_match_the_dense_formulas(self, eta, rank):
        model = self.scalable(eta)
        evals = np.linalg.eigvalsh(model.F)
        assert model.meta["f_rank"] == np.sum(evals > 1e-6 * evals[-1]) == rank
        K = gaussian_gram(model.X, model.sigma)
        dense = decomposition_objective(model.alpha, model.y, K, model.F, eta)
        assert abs(model.meta["objective"] - dense) <= 1e-12 * abs(dense)
        assert model.meta["f_min"] == model.F.min() and model.meta["f_max"] == model.F.max()
