import numpy as np
import pytest

from adakern.errors import DataError, ParameterError
from adakern import kernel
from adakern.kernel import gaussian_from_sq_dists, gaussian_gram, pairwise_sq_dists


class TestGaussianGram:
    def test_unit_diagonal(self, rng):
        X = rng.normal(size=(7, 3))
        K = gaussian_gram(X, 0.8)
        assert np.array_equal(np.diag(K), np.ones(7))

    def test_identical_rows(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        K = gaussian_gram(X, 1.0)
        assert K[0, 1] == 1.0

    def test_analytic_entry(self):
        X = np.array([[0.0], [np.sqrt(2.0)]])
        K = gaussian_gram(X, 1.0)
        assert np.isclose(K[0, 1], np.exp(-1.0), atol=1e-12)

    def test_entries_in_unit_interval(self, rng):
        K = gaussian_gram(rng.normal(size=(10, 4)), 1.3)
        assert np.all(K > 0.0) and np.all(K <= 1.0)

    def test_psd(self, rng):
        K = gaussian_gram(rng.normal(size=(15, 3)), 0.7)
        evals = np.linalg.eigvalsh(K)
        assert evals[0] >= -1e-8 * evals[-1]

    def test_permutation_invariance(self, rng):
        X = rng.normal(size=(8, 2))
        perm = rng.permutation(8)
        K = gaussian_gram(X, 1.1)
        K_perm = gaussian_gram(X[perm], 1.1)
        assert np.allclose(K_perm, K[np.ix_(perm, perm)], atol=1e-14)

    def test_monotone_in_distance(self):
        X = np.array([[0.0], [1.0], [2.5]])
        K = gaussian_gram(X, 1.0)
        assert K[0, 1] > K[0, 2]

    def test_bad_sigma(self):
        with pytest.raises(ParameterError):
            gaussian_gram(np.ones((2, 1)), 0.0)
        with pytest.raises(ParameterError):
            gaussian_gram(np.ones((2, 1)), -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            gaussian_gram(np.array([[np.nan], [0.0]]), 1.0)


def cross_gram(A, B, sigma):
    return gaussian_from_sq_dists(pairwise_sq_dists(A, B), sigma)


class TestCrossGram:
    """The train-by-test kernel as prediction forms it: distances, then the kernel in place."""

    def test_matches_gram_on_same_points(self, rng):
        X = rng.normal(size=(6, 2))
        K = gaussian_gram(X, 0.9)
        Kx = cross_gram(X, X, 0.9)
        assert np.allclose(K, Kx, atol=1e-13)

    def test_matching_point_column(self, rng):
        X = rng.normal(size=(5, 3))
        Kx = cross_gram(X, X[2:3], 1.2)
        assert Kx[2, 0] == 1.0

    def test_brute_force(self, rng):
        A = rng.normal(size=(3, 2))
        B = rng.normal(size=(2, 2))
        sigma = 0.75
        Kx = cross_gram(A, B, sigma)
        for i in range(3):
            for j in range(2):
                expected = np.exp(-np.sum((A[i] - B[j]) ** 2) / (2 * sigma ** 2))
                assert np.isclose(Kx[i, j], expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            cross_gram(np.ones((3, 2)), np.ones((2, 3)), 1.0)

    def test_in_place_with_the_bits_of_the_plain_formula(self, rng):
        D = pairwise_sq_dists(rng.normal(size=(9, 2)), rng.normal(size=(13, 2)))
        expected = np.exp(-D / (2.0 * 0.7 * 0.7))
        assert gaussian_from_sq_dists(D, 0.7) is D
        assert D.tobytes() == expected.tobytes()

    def test_bad_sigma(self):
        with pytest.raises(ParameterError):
            gaussian_from_sq_dists(np.ones((2, 2)), 0.0)


def test_pairwise_clamps_roundoff(rng):
    X = rng.normal(size=(4, 3))
    D = pairwise_sq_dists(X, X)
    assert np.all(D >= 0.0)
    assert np.allclose(np.diag(D), 0.0)


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_pairwise_row_blocks_keep_the_expanded_form_bits(rng, block, monkeypatch):
    A, B = rng.normal(size=(30, 3)), rng.uniform(size=(11, 3))
    a, b = (A * A).sum(axis=1), (B * B).sum(axis=1)
    expected = np.maximum(a[:, None] + b[None, :] - 2.0 * (A @ B.T), 0.0)
    monkeypatch.setattr(kernel, "_CHUNK_ENTRIES", block)
    assert pairwise_sq_dists(A, B).tobytes() == expected.tobytes()
