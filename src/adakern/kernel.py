"""Gaussian Gram matrices for training and train-by-test evaluation."""

import numpy as np

from .errors import DataError, ParameterError

# Entries of the chunks in which an n x m array is worked through: the row
# blocks of pairwise_sq_dists, and the rows and columns of svm's
# reciprocal-rank match.
_CHUNK_ENTRIES = 1 << 16


def chunk_length(length: int) -> int:
    """Rows or columns per chunk, for rows or columns of ``length`` entries."""
    return max(1, _CHUNK_ENTRIES // max(length, 1))


def pairwise_sq_dists(A, B) -> np.ndarray:
    """Squared Euclidean distances between rows of A and rows of B.

    Uses the expanded form ||a||^2 + ||b||^2 - 2 a.b with negative
    round-off clamped to zero.  The result is the one n x m array it
    allocates: the norms are added to -2 a.b in row blocks.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise DataError("feature matrices must be 2-D")
    if A.shape[1] != B.shape[1]:
        raise DataError(
            f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    sq = A @ B.T
    sq *= -2.0
    a_norms, b_norms = (A * A).sum(axis=1), (B * B).sum(axis=1)
    step = chunk_length(b_norms.size)
    for lo in range(0, a_norms.size, step):
        sq[lo:lo + step] += a_norms[lo:lo + step, None] + b_norms
    np.maximum(sq, 0.0, out=sq)
    return sq


def _check_sigma(sigma: float) -> float:
    if not np.isfinite(sigma) or sigma <= 0:
        raise ParameterError(f"kernel width sigma must be positive, got {sigma}")
    return float(sigma)


def gaussian_from_sq_dists(D, sigma: float) -> np.ndarray:
    """exp(-D / (2 sigma^2)), in place in the float64 array D, which it returns.

    The one squared-distance-to-kernel step: the Gram matrix of training
    and the train-by-test kernel of prediction have the same bits.
    """
    sigma = _check_sigma(sigma)
    np.negative(D, out=D)
    D /= 2.0 * sigma * sigma
    return np.exp(D, out=D)


def gaussian_gram(X, sigma: float) -> np.ndarray:
    """n x n Gaussian kernel matrix K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)).

    Unit diagonal, symmetric, PSD up to round-off; entries in (0, 1].
    """
    sigma = _check_sigma(sigma)
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    K = gaussian_from_sq_dists(pairwise_sq_dists(X, X), sigma)
    return 0.5 * (K + K.T)
