"""Symmetric linear algebra used throughout the package.

Provides the eigendecomposition, the eigenvalue soft-thresholding operator
(the proximal map of the nuclear norm restricted to symmetric matrices),
its certified low-rank form for PSD input, kept as a factor, with the
matrix-free variant the solvers call every iteration.
"""

from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError, ParameterError

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12

# Subspace iteration in psd_soft_threshold: the first block holds the ones
# vector and _START_BLOCK - 1 fixed vectors, or the leading _START_BLOCK Ritz
# vectors of an earlier call; after _BLOCK_STEPS steps at one size the block
# doubles, up to a quarter of the dimension.
_START_BLOCK = 8
_BLOCK_STEPS = 4


class EigenPair(NamedTuple):
    """Eigendecomposition with eigenvalues sorted non-increasing."""

    values: np.ndarray
    vectors: np.ndarray


class SpectralProx(NamedTuple):
    """Soft-thresholded PSD matrix F, kept as its factor.

    ``factor`` is W (n x rank) with F = W W'; its columns are orthogonal
    and their squared norms are the shrunk spectrum.  At threshold 0 the
    map is the identity: nothing is factored, ``factor`` is None and
    ``unfactored`` holds F itself.  ``nuclear`` is the sum of the shrunk
    spectrum, the nuclear norm of F.  ``rank`` counts the eigenpairs kept
    above the threshold; it is 0 at threshold 0.  ``dense`` is True when
    the dense fallback ran.  ``basis`` holds the leading Ritz vectors a
    certified subspace iteration ended on, to start the next call from;
    it is None after the dense fallback.
    """

    factor: np.ndarray | None
    nuclear: float
    rank: int
    dense: bool
    basis: np.ndarray | None = None
    unfactored: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        """F itself; formed from the factor (exactly symmetric) on each access."""
        if self.factor is None:
            return self.unfactored
        # np.dot uses a symmetric BLAS product for W W', also at rank one.
        return np.dot(self.factor, self.factor.T)


def check_symmetric(A, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate that A is square and symmetric within ``rtol * max(1, ||A||_F)``."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError(f"expected a square matrix, got shape {A.shape}")
    if A.size:
        scale = max(1.0, float(np.linalg.norm(A)))
        skew = float(np.max(np.abs(A - A.T)))
        if skew > rtol * scale:
            raise DataError(
                f"matrix is not symmetric: max |A - A^T| = {skew:.3e} "
                f"exceeds tolerance {rtol * scale:.3e}"
            )
    return A


def sym_eig(A) -> EigenPair:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in non-increasing order and the matching
    orthonormal eigenvectors as columns, so that ``A == V @ diag(w) @ V.T``
    up to round-off.  Rejects non-symmetric input.
    """
    A = check_symmetric(A)
    A = 0.5 * (A + A.T)
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; reverse for a non-increasing spectrum.
    return EigenPair(values[::-1].copy(), vectors[:, ::-1].copy())


def soft_threshold_spectrum(A, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue soft-thresholding, also returning the shrunk spectrum.

    Each eigenvalue w maps to sign(w) * max(0, |w| - threshold).  For PSD
    input the sum of the returned spectrum equals the nuclear norm of the
    result, which lets callers avoid a second factorization.
    """
    if threshold < 0:
        raise ParameterError(f"threshold must be nonnegative, got {threshold}")
    values, vectors = sym_eig(A)
    shrunk = np.sign(values) * np.maximum(0.0, np.abs(values) - threshold)
    B = (vectors * shrunk) @ vectors.T
    return 0.5 * (B + B.T), shrunk


def soft_threshold(A, threshold: float) -> np.ndarray:
    """Proximal map of ``threshold * ||.||_*`` on symmetric matrices."""
    B, _ = soft_threshold_spectrum(A, threshold)
    return B


def psd_soft_threshold(A, threshold: float, floor: float = 0.0) -> SpectralProx:
    """Eigenvalue soft-thresholding of a PSD matrix, factoring only its top.

    ``floor`` is a lower bound on the smallest eigenvalue of A: zero for an
    exactly PSD matrix, slightly negative when round-off leaves the Gram
    matrix behind A a little indefinite.  The input is not checked for
    symmetry.

    At threshold 0 the map is the identity and A itself is returned.  For
    a threshold t > 0, block subspace iteration with Rayleigh-Ritz runs
    from the ones vector and fixed vectors made per call.  The r Ritz pairs
    (theta_k, v_k) with theta_k > t are accepted when their residuals are
    at round-off (n eps theta_1) and a trace test holds for some p >= r:
    max(theta_{r+1}, tr(A) - sum_{k<=p} theta_k), plus the residual norm
    of pairs r+1..p, is below t by a round-off margin.  By Ky Fan's
    inequality tr(A) - sum_{k<=p} theta_k is the sum of A's spectrum off
    the top p Ritz vectors, which for PSD A bounds its largest eigenvalue
    there; so no eigenvalue outside the r kept pairs exceeds t, and the
    factor is W = V_r sqrt(theta_r - t).  When no block up to a quarter of
    the dimension passes after a few steps, or the Ritz values already
    show that none would, a dense eigendecomposition gives the factor, so
    both paths agree to round-off everywhere.
    """
    if threshold < 0:
        raise ParameterError(f"threshold must be nonnegative, got {threshold}")
    A = np.asarray(A, dtype=float)
    trace = float(np.trace(A))
    if threshold == 0:
        return SpectralProx(None, trace, 0, False, unfactored=A)
    return _factored_soft_threshold(A.__matmul__, trace, lambda: A, A.shape[0],
                                    threshold, floor)


def gram_soft_threshold(K, w, scale: float, threshold: float, floor: float = 0.0,
                        start=None) -> SpectralProx:
    """:func:`psd_soft_threshold` of A = 11' + scale diag(w) K diag(w), without forming A.

    K is PSD (up to ``floor``) and the threshold positive.  The subspace
    iteration applies A to a block V as 1(1'V) + scale w o (K (w o V)), one
    product with K, and takes tr(A) = n + scale sum_i w_i^2 K_ii.  The
    acceptance test is that of :func:`psd_soft_threshold`; only the dense
    fallback forms A.  ``start``, the ``basis`` of an earlier call on a
    nearby A, replaces the fixed start block: the test is the same, so it
    only changes how soon the test passes.
    """
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    K = np.asarray(K, dtype=float)
    w = np.asarray(w, dtype=float)
    if K.ndim != 2 or K.shape != (w.size, w.size):
        raise DataError("weights and kernel matrix have inconsistent sizes")
    col = w[:, None]

    def apply(V):
        AV = K @ (col * V)
        AV *= col * scale
        AV += V.sum(axis=0)
        return AV

    trace = w.size + scale * float((w * w) @ np.diagonal(K))
    return _factored_soft_threshold(apply, trace, lambda: K * np.outer(w, w) * scale + 1.0,
                                    w.size, threshold, floor, start)


def _factored_soft_threshold(apply, trace, dense, n, threshold, floor,
                             start=None) -> SpectralProx:
    """Certified subspace result, else the factor from a dense eigendecomposition."""
    prox = _subspace_soft_threshold(apply, trace, n, threshold, floor, start)
    if prox is None:
        values, vectors = sym_eig(dense())
        r = int(np.count_nonzero(values > threshold))
        shrunk = values[:r] - threshold
        prox = SpectralProx(vectors[:, :r] * np.sqrt(shrunk), float(np.sum(shrunk)), r, True)
    return prox


def _subspace_soft_threshold(apply, trace, n, threshold, floor, start):
    """Certified low-rank soft-threshold, or None when the test never passes."""
    block = _START_BLOCK if start is None else start.shape[1]
    if block > n // 4 or -floor >= threshold:
        return None
    eps = np.finfo(float).eps
    # Past the p-th Ritz pair, n - p - 1 eigenvalues other than the largest
    # are each at least ``floor``, so they can hide up to (n - p) |floor| of
    # the tail; the last term covers round-off in tr(A) and the Ritz values.
    slack = max(0.0, -floor) * (n - np.arange(n + 1)) + 16.0 * n * eps * abs(trace)
    rng = np.random.default_rng(0)
    # Each step orthonormalizes A times the previous Ritz vectors (at first,
    # the start block) and runs Rayleigh-Ritz on that subspace.
    if start is None:
        start = np.column_stack([np.ones(n), rng.standard_normal((n, block - 1))])
    AV = apply(start)
    while True:
        for _ in range(_BLOCK_STEPS):
            Q = np.linalg.qr(AV)[0]
            AQ = apply(Q)
            theta, U = np.linalg.eigh(Q.T @ AQ)
            theta, U = theta[::-1], U[:, ::-1]
            V = Q @ U
            AV = AQ @ U
            residual = np.linalg.norm(AV - V * theta, axis=0)
            r = int(np.count_nonzero(theta > threshold))
            if residual[:r].max(initial=0.0) <= n * eps * max(theta[0], 0.0):
                # Candidates p = r..block: the pairs r+1..p, coupled to the
                # rest by at most their residual norm, and the tail past p.
                p = np.arange(r, block + 1)
                tail = trace - np.concatenate([[0.0], np.cumsum(theta)])[p] + slack[p]
                lead = np.where(p > r, theta[min(r, block - 1)], 0.0)
                coupling = np.sqrt(np.concatenate([[0.0], np.cumsum(residual[r:] ** 2)]))
                if np.any(np.maximum(lead, tail) + coupling < threshold):
                    shrunk = theta[:r] - threshold
                    return SpectralProx(V[:, :r] * np.sqrt(shrunk), float(np.sum(shrunk)),
                                        r, False, basis=V[:, :_START_BLOCK])
            # Give up early when even n/4 vectors, each as large as the
            # smallest Ritz value, could not bring the tail below the threshold.
            if trace - theta.sum() - (n // 4 - block) * max(theta[-1], 0.0) >= threshold:
                return None
        if block == n // 4:
            return None
        grown = min(2 * block, n // 4)
        AV = np.column_stack([AV, apply(rng.standard_normal((n, grown - block)))])
        block = grown
