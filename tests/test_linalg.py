from typing import NamedTuple

import numpy as np
import pytest

import adakern.linalg as linalg
import adakern.solver as solver
from adakern.errors import DataError, NumericalError, ParameterError
from adakern.kernel import gaussian_gram

from conftest import dense_soft_threshold


class MatrixNorms(NamedTuple):
    frobenius: float
    spectral: float
    nuclear: float
    manhattan: float


def matrix_norms(A) -> MatrixNorms:
    """Frobenius, spectral, nuclear and Manhattan (entry-wise l1) norms."""
    A = np.asarray(A, dtype=float)
    singulars = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0)
    return MatrixNorms(
        frobenius=float(np.sqrt((A * A).sum())),
        spectral=float(singulars[0]) if singulars.size else 0.0,
        nuclear=float(singulars.sum()),
        manhattan=float(np.abs(A).sum()),
    )


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(0.0, scale, (n, n))
    return 0.5 * (A + A.T)


class TestSymEig:
    """The eigendecomposition under the dense reference: its spectrum at threshold 0."""

    def test_identity(self):
        _, values = dense_soft_threshold(np.eye(3), 0.0)
        assert np.allclose(values, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        B, values = dense_soft_threshold(np.diag([3.0, 1.0]), 0.0)
        assert np.allclose(values, [3.0, 1.0])
        assert np.allclose(B, np.diag([3.0, 1.0]), atol=1e-12)

    def test_reconstruction_random(self, rng):
        A = random_symmetric(rng, 5)
        B, values = dense_soft_threshold(A, 0.0)
        assert np.linalg.norm(A - B) < 1e-10
        assert np.isclose(values.sum(), np.trace(A))

    def test_sorted_non_increasing(self, rng):
        _, values = dense_soft_threshold(random_symmetric(rng, 8), 0.0)
        assert np.all(np.diff(values) <= 1e-12)

    def test_deterministic(self, rng):
        A = random_symmetric(rng, 6)
        B1, v1 = dense_soft_threshold(A, 0.3)
        B2, v2 = dense_soft_threshold(A, 0.3)
        assert np.array_equal(v1, v2)
        assert np.array_equal(B1, B2)


def soft_threshold(A, threshold):
    return dense_soft_threshold(A, threshold)[0]


class TestSoftThreshold:
    """The soft-threshold operator: the dense reference on any symmetric input,
    the certified prox on 11' + scale diag(w) K diag(w)."""

    def test_zero_matrix(self):
        assert np.allclose(soft_threshold(np.zeros((4, 4)), 0.005), 0.0)

    def test_rank_one_all_ones(self):
        ones = np.ones((3, 3))
        # eigenvalues {3, 0, 0} -> {2.5, 0, 0}
        assert np.allclose(soft_threshold(ones, 0.5), (2.5 / 3.0) * ones)
        # the same matrix through the prox: zero weights leave 11'
        prox = linalg.gram_soft_threshold(np.eye(3), np.zeros(3), 1.0, 0.5)
        assert np.allclose(prox.matrix, (2.5 / 3.0) * ones)

    def test_diagonal_shift(self):
        out = soft_threshold(np.diag([2.0, 0.3]), 0.5)
        assert np.allclose(out, np.diag([1.5, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self, rng):
        A = random_symmetric(rng, 6)
        assert np.linalg.norm(soft_threshold(A, 0.0) - A) <= 1e-8 * np.linalg.norm(A)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            linalg.gram_soft_threshold(np.eye(2), np.ones(2), 1.0, -0.1)

    def test_non_expansive(self, rng):
        for _ in range(20):
            A = random_symmetric(rng, 5)
            B = random_symmetric(rng, 5)
            lhs = np.linalg.norm(soft_threshold(A, 0.3) - soft_threshold(B, 0.3))
            assert lhs <= np.linalg.norm(A - B) + 1e-12
        # and the certified prox, on both of its paths
        K = gaussian_gram(rng.normal(size=(60, 2)), 1.0)
        for scale in (1e-2, 1.0):
            w1, w2 = rng.uniform(-1.0, 1.0, (2, 60))
            A1, A2 = (1.0 + K * np.outer(w, w) * scale for w in (w1, w2))
            F1, F2 = (linalg.gram_soft_threshold(K, w, scale, 0.3).matrix for w in (w1, w2))
            assert np.linalg.norm(F1 - F2) <= np.linalg.norm(A1 - A2) + 1e-10

    def test_psd_input_stays_psd(self, rng):
        for _ in range(10):
            R = rng.normal(size=(5, 5))
            A = R @ R.T
            t = rng.uniform(0.0, 2.0)
            out = soft_threshold(A, t)
            evals = np.linalg.eigvalsh(out)
            lam_max_in = np.linalg.eigvalsh(A)[-1]
            assert evals[0] >= -1e-10
            assert np.isclose(evals[-1], max(0.0, lam_max_in - t), atol=1e-9)


def adaptive_input(rng, n, sigma, scale):
    """K, w and A = 11' + scale diag(w) K diag(w) for a Gaussian K and random weights w."""
    K = gaussian_gram(rng.normal(size=(n, 2)), sigma)
    w = rng.uniform(-1.0, 1.0, n)
    return K, w, 1.0 + K * np.outer(w, w) * scale


def high_rank_input(rng, n):
    """K and w whose adaptive matrix has rank 20 at n = 360 and scale 2e-3 (seed 5)."""
    return gaussian_gram(rng.uniform(size=(n, 2)), 0.1), rng.uniform(-1.0, 1.0, n)


def trace_test(K, w, scale, threshold, V, r):
    """Whether the prox's trace test passes with p = r..m of the m Ritz vectors V.

    tr(A) - sum_{k<=p} theta_k and theta_{r+1} (for p > r), plus the
    residual norm of pairs r+1..p, against the threshold less the
    round-off margin of an exactly PSD K.
    """
    n = w.size
    AV = (1.0 + K * np.outer(w, w) * scale) @ V
    theta = np.einsum("ij,ij->j", V, AV)
    residual = np.linalg.norm(AV - V * theta, axis=0)
    trace = n + scale * float((w * w) @ np.diagonal(K))
    margin = 16.0 * n * np.finfo(float).eps * trace
    passes = []
    for p in range(r, V.shape[1] + 1):
        lead = theta[r] if p > r else 0.0
        tail = trace - theta[:p].sum() + margin
        passes.append(max(lead, tail) + np.sqrt(np.sum(residual[r:p] ** 2)) < threshold)
    return np.array(passes)


def assert_matches_dense(prox, A, threshold):
    F, shrunk = dense_soft_threshold(A, threshold)
    nuclear = np.abs(shrunk).sum()
    assert np.max(np.abs(prox.matrix - F)) <= 1e-10
    assert abs(prox.nuclear - nuclear) <= 1e-10 * nuclear
    assert prox.rank == np.count_nonzero(shrunk)


class TestPsdSoftThreshold:
    """The prox of 11' + scale diag(w) K diag(w) against the dense reference."""

    @pytest.mark.parametrize("n, sigma, scale", [
        (40, 2.0, 1e-3), (120, 0.3, 1e-4), (120, 2.0, 1e-2), (200, 0.8, 1e-3),
        (200, 1.0, 1e-2),
    ])
    def test_low_rank_path_matches_dense(self, rng, n, sigma, scale):
        ranks = set()
        for _ in range(5):
            K, w, A = adaptive_input(rng, n, sigma, scale)
            prox = linalg.gram_soft_threshold(K, w, scale, 0.005)
            assert not prox.dense
            assert_matches_dense(prox, A, 0.005)
            ranks.add(prox.rank)
        assert max(ranks) >= (1 if scale < 1e-3 else 2)

    def test_heavy_tail_falls_back_to_dense(self):
        # K = I with the weighted diagonal just below the threshold: every
        # tail eigenvalue is below it, but their sum is far above.
        n, threshold = 64, 0.005
        prox = linalg.gram_soft_threshold(np.eye(n), np.ones(n), 0.9 * threshold, threshold)
        assert prox.dense
        assert_matches_dense(prox, np.ones((n, n)) + 0.9 * threshold * np.eye(n), threshold)

    def test_zero_threshold_returns_input_unfactored(self, rng, monkeypatch):
        # tau = 0 in the solvers: F is 11' + diag(w) K diag(w) / (4 eta)
        # itself, formed only for the solve's result and never factored; the
        # loop's gradient and value take the closed form.
        def forbidden(*args, **kwargs):
            raise AssertionError("no factorization expected at threshold 0")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        K, w, _ = adaptive_input(rng, 50, 0.5, 0.1)
        trace = solver.SolveTrace()
        term, final = solver._adaptive_term(K, 0.0, 2.5, 0.0, trace, False)
        A = (K * np.outer(w, w)) / (4.0 * 2.5) + 1.0
        q, value = term(w, 0.0)
        q_dense = (A * K) @ w
        value_dense = -0.5 * w @ q_dense + 2.5 * np.sum((A - 1.0) ** 2)
        assert np.max(np.abs(q - q_dense)) <= 1e-12 * np.max(np.abs(q_dense))
        assert value == pytest.approx(value_dense, rel=1e-12)
        assert np.array_equal(final(), A)
        assert trace.factor is None and (trace.prox_rank, trace.prox_fallbacks) == (0, 0)

    @pytest.mark.parametrize("scale", [1e-4, 1e-2])
    def test_output_exactly_symmetric_and_deterministic(self, rng, scale):
        K, w, _ = adaptive_input(rng, 120, 2.0, scale)
        first = linalg.gram_soft_threshold(K, w, scale, 0.005)
        second = linalg.gram_soft_threshold(K, w, scale, 0.005)
        assert not first.dense and first.rank == (1 if scale < 1e-3 else 7)
        assert np.array_equal(first.matrix, first.matrix.T)
        assert np.array_equal(first.matrix, second.matrix)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            linalg.gram_soft_threshold(np.eye(40), np.ones(40), 1.0, -0.1)


class TestGramSoftThreshold:
    """The matrix-free prox of 11' + scale diag(w) K diag(w)."""

    @pytest.mark.parametrize("n, sigma, scale", [(40, 2.0, 1e-3), (120, 0.3, 1e-4),
                                                 (200, 1.0, 1e-2)])
    def test_matches_the_formed_matrix(self, rng, n, sigma, scale):
        for _ in range(3):
            K = gaussian_gram(rng.normal(size=(n, 2)), sigma)
            w = rng.uniform(-1.0, 1.0, n)
            prox = linalg.gram_soft_threshold(K, w, scale, 0.005)
            assert not prox.dense and prox.basis.shape[0] == n
            assert_matches_dense(prox, 1.0 + K * np.outer(w, w) * scale, 0.005)
            W = prox.factor
            assert np.allclose(W.T @ W, np.diag(np.sum(W * W, axis=0)), atol=1e-10)
            assert np.isclose(np.sum(W * W), prox.nuclear, rtol=1e-12)

    def test_warm_start_from_a_nearby_basis(self, rng):
        n, scale = 120, 1e-2
        K = gaussian_gram(rng.normal(size=(n, 2)), 1.0)
        w = rng.uniform(-1.0, 1.0, n)
        previous = linalg.gram_soft_threshold(K, w, scale, 0.005)
        for step in (1e-6, 1e-3, 1e-1):
            moved = w + step * rng.normal(size=n)
            warm = linalg.gram_soft_threshold(K, moved, scale, 0.005, start=previous.basis)
            cold = linalg.gram_soft_threshold(K, moved, scale, 0.005)
            assert not warm.dense and warm.rank == cold.rank >= 2
            assert np.max(np.abs(warm.matrix - cold.matrix)) <= 1e-10
            assert_matches_dense(warm, 1.0 + K * np.outer(moved, moved) * scale, 0.005)

    def test_warm_call_at_rank_20_takes_fewer_steps(self):
        # n = 360 and sigma = 0.1: rank 20, where a warm start from 8 Ritz
        # vectors regrew its block and took as long as a cold call.
        rng = np.random.default_rng(5)
        n, scale = 360, 2e-3
        K, w = high_rank_input(rng, n)
        previous = linalg.gram_soft_threshold(K, w, scale, 0.005)
        assert previous.rank == 20 and previous.basis.shape[1] > 20
        moved = w + 1e-3 * rng.normal(size=n)
        warm = linalg.gram_soft_threshold(K, moved, scale, 0.005, start=previous.basis)
        cold = linalg.gram_soft_threshold(K, moved, scale, 0.005)
        assert warm.steps < cold.steps
        assert (warm.rank, warm.dense) == (cold.rank, cold.dense) == (20, False)
        assert np.max(np.abs(warm.matrix - cold.matrix)) <= 1e-10

    @pytest.mark.parametrize("n, scale", [(120, 5e-3), (360, 1e-3), (360, 2e-3)])
    def test_rank_jump_from_a_two_column_basis(self, n, scale):
        rng = np.random.default_rng(5)
        K, w = high_rank_input(rng, n)
        low = linalg.gram_soft_threshold(K, w, 1e-5, 0.005)
        assert low.rank == 1 and low.basis.shape[1] == 2
        warm = linalg.gram_soft_threshold(K, w, scale, 0.005, start=low.basis)
        cold = linalg.gram_soft_threshold(K, w, scale, 0.005)
        assert (warm.rank, warm.dense) == (cold.rank, cold.dense) and cold.rank >= 8
        assert np.max(np.abs(warm.matrix - cold.matrix)) <= 1e-10
        assert_matches_dense(warm, 1.0 + K * np.outer(w, w) * scale, 0.005)

    @pytest.mark.parametrize("n, sigma, scale", [(40, 2.0, 1e-3), (120, 0.3, 1e-4),
                                                 (200, 1.0, 1e-2), (360, 0.1, 1e-4),
                                                 (360, 0.1, 2e-3)])
    def test_basis_holds_the_vectors_the_trace_test_needed(self, rng, n, sigma, scale):
        # The basis is the first p* + 1 Ritz vectors (at least 2), p* the
        # smallest count with which the trace test passed, or all of them
        # when p* is the whole block (a cold block holds 8, 16, ... or n/4
        # vectors); the test is redone here from those vectors alone.
        blocks = {min(8 * 2 ** k, n // 4) for k in range(8)}
        for _ in range(3):
            K = gaussian_gram(rng.uniform(size=(n, 2)), sigma)
            w = rng.uniform(-1.0, 1.0, n)
            prox = linalg.gram_soft_threshold(K, w, scale, 0.005)
            assert not prox.dense
            m = prox.basis.shape[1]
            passes = trace_test(K, w, scale, 0.005, prox.basis, prox.rank)
            assert passes.any() and m > prox.rank
            first = prox.rank + int(np.argmax(passes))
            if m == 2:
                assert first <= 1
            else:
                assert first == m - 1 or (first == m and m in blocks), (first, m)

    def test_fallback_returns_the_factor_and_no_basis(self):
        # K = I with the weighted diagonal just below the threshold (as in
        # the heavy-tail case above): the dense path runs, also from a start.
        n, threshold = 64, 0.005
        w = np.full(n, np.sqrt(0.9 * threshold))
        start = np.linalg.qr(np.random.default_rng(1).normal(size=(n, 8)))[0]
        for begin in (None, start):
            prox = linalg.gram_soft_threshold(np.eye(n), w, 1.0, threshold, start=begin)
            assert prox.dense and prox.basis is None
            assert_matches_dense(prox, np.ones((n, n)) + 0.9 * threshold * np.eye(n), threshold)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            linalg.gram_soft_threshold(np.eye(40), np.ones(40), 1.0, 0.0)
        with pytest.raises(DataError):
            linalg.gram_soft_threshold(np.eye(40), np.ones(39), 1.0, 0.1)

    def test_fallback_that_does_not_converge_is_a_numerical_error(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericalError):
            linalg.gram_soft_threshold(np.eye(8), np.ones(8), 0.9, 1.0)


class TestMatrixNorms:
    def test_identity(self):
        norms = matrix_norms(np.eye(3))
        assert np.allclose(norms, (np.sqrt(3.0), 1.0, 3.0, 3.0))

    def test_rank_one(self):
        norms = matrix_norms(np.ones((2, 2)))
        assert np.allclose(norms, (2.0, 2.0, 2.0, 4.0))

    def test_nuclear_vs_trace(self, rng):
        A = random_symmetric(rng, 4)
        norms = matrix_norms(A)
        assert np.trace(A) <= norms.nuclear + 1e-10
        R = rng.normal(size=(4, 4))
        P = R @ R.T
        assert np.isclose(matrix_norms(P).nuclear, np.trace(P), atol=1e-9)

    def test_spectral_matches_eig_for_symmetric(self, rng):
        A = random_symmetric(rng, 5)
        values = np.linalg.eigvalsh(A)
        assert np.isclose(matrix_norms(A).spectral, np.max(np.abs(values)))
