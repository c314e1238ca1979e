"""The spectral prox of the adaptive matrix: 11' + scale diag(w) K diag(w) soft-thresholded.

The eigenvalue soft-threshold at t > 0 is the proximal map of t ||.||_* on
symmetric matrices.  :func:`gram_soft_threshold` computes it for the PSD
matrix A = 11' + scale diag(w) K diag(w) by a certified block subspace
iteration that applies A through products with K alone, and keeps the
result as its factor; a dense eigendecomposition of A is the fallback.
A certified call hands on as many leading Ritz vectors as its trace test
needed, so the next call on a nearby A starts from a block that fits the
rank: as few as 2 columns at rank 1, and every vector the test used at
higher rank.  :func:`factor_columns` forms columns of F = W W' from the
factor, with the same bits in every batch.
"""

from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError, ParameterError

# Subspace iteration in gram_soft_threshold: a cold first block holds the
# ones vector and _START_BLOCK - 1 fixed vectors; a warm one is the basis of
# an earlier call.  After _BLOCK_STEPS steps at one size the block doubles,
# up to a quarter of the dimension.
_START_BLOCK = 8
_BLOCK_STEPS = 4


class SpectralProx(NamedTuple):
    """Soft-thresholded PSD matrix F, kept as its factor.

    ``factor`` is W (n x rank) with F = W W'; its columns are orthogonal
    and their squared norms are the shrunk spectrum.  ``nuclear`` is the
    sum of the shrunk spectrum, the nuclear norm of F.  ``rank`` counts the
    eigenpairs kept above the threshold.  ``dense`` is True when the dense
    fallback ran.  ``basis`` holds the leading Ritz vectors a certified
    subspace iteration ended on, to start the next call from: the first
    p + 1 of them (at least 2, at most the whole block), where p is the
    smallest count of Ritz pairs with which the trace test passed.  It is
    None after the dense fallback.  ``steps`` counts the eigendecompositions
    the call ran: one per Rayleigh-Ritz step, and one more when the dense
    fallback ran.
    """

    factor: np.ndarray
    nuclear: float
    rank: int
    dense: bool
    basis: np.ndarray | None = None
    steps: int = 0

    @property
    def matrix(self) -> np.ndarray:
        """F itself; formed from the factor (exactly symmetric) on each access."""
        return factor_columns(self.factor, np.arange(len(self.factor)))


# Width of the column blocks of factor_columns.
_COLUMN_BLOCK = 256


def factor_columns(W, idx) -> np.ndarray:
    """Columns idx of F = W W' (n x len(idx)), the same bits whatever idx holds.

    A BLAS product sums in an order that depends on its shape (a single
    column goes through gemv), so W W[idx]' would give an entry of F other
    bits in another batch.  Here every product has one shape: idx is
    repeated to whole blocks of _COLUMN_BLOCK columns.
    """
    k = len(idx)
    V = W[np.resize(idx, -(-k // _COLUMN_BLOCK) * _COLUMN_BLOCK)]
    F = np.empty((len(W), len(V)))
    for s in range(0, len(V), _COLUMN_BLOCK):
        np.matmul(W, V[s:s + _COLUMN_BLOCK].T, out=F[:, s:s + _COLUMN_BLOCK])
    return F[:, :k]


def gram_soft_threshold(K, w, scale: float, threshold: float, floor: float = 0.0,
                        start=None) -> SpectralProx:
    """Eigenvalue soft-threshold of A = 11' + scale diag(w) K diag(w), factoring only its top.

    K is symmetric and PSD up to ``floor``, a lower bound on the smallest
    eigenvalue of A: zero for an exactly PSD K, slightly negative when
    round-off leaves K a little indefinite.  The threshold t is positive.

    Block subspace iteration with Rayleigh-Ritz applies A to a block V as
    1(1'V) + scale w o (K (w o V)), one product with K, and takes
    tr(A) = n + scale sum_i w_i^2 K_ii, so A is not formed.  It runs from
    the ones vector and fixed vectors, or from ``start``, the ``basis`` of
    an earlier call on a nearby A, which only changes how soon the test
    below passes.  The r Ritz pairs (theta_k, v_k) with theta_k > t are
    accepted when their residuals are at round-off (n eps theta_1) and a
    trace test holds for some p >= r: max(theta_{r+1}, tr(A) -
    sum_{k<=p} theta_k), plus the residual norm of pairs r+1..p, is below
    t by a round-off margin.  By Ky Fan's inequality tr(A) -
    sum_{k<=p} theta_k is the sum of A's spectrum off the top p Ritz
    vectors, which for PSD A bounds its largest eigenvalue there; so no
    eigenvalue outside the r kept pairs exceeds t, and the factor is
    W = V_r sqrt(theta_r - t).  The returned ``basis`` is the first p + 1
    Ritz vectors (at least 2, at most all) for the smallest such p.  When
    no block up to a quarter of the dimension passes after a few steps, or
    the Ritz values already show that none would, a dense eigendecomposition
    of the formed A gives the factor, so both paths agree to round-off
    everywhere; it raises NumericalError when it does not converge.
    """
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    K = np.asarray(K, dtype=float)
    w = np.asarray(w, dtype=float)
    n = w.size
    if K.ndim != 2 or K.shape != (n, n):
        raise DataError("weights and kernel matrix have inconsistent sizes")
    col = w[:, None]

    def apply(V):
        AV = K @ (col * V)
        AV *= col * scale
        AV += V.sum(axis=0)
        return AV

    trace = n + scale * float((w * w) @ np.diagonal(K))
    prox, steps = _subspace_soft_threshold(apply, trace, n, threshold, floor, start)
    if prox is not None:
        return prox
    try:
        values, vectors = np.linalg.eigh(K * np.outer(w, w) * scale + 1.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    # eigh returns ascending order; the kept pairs are the last r.
    r = int(np.count_nonzero(values > threshold))
    shrunk = values[::-1][:r] - threshold
    return SpectralProx(vectors[:, ::-1][:, :r] * np.sqrt(shrunk), float(np.sum(shrunk)), r, True,
                        steps=steps + 1)


def _subspace_soft_threshold(apply, trace, n, threshold, floor, start):
    """(certified low-rank soft-threshold, or None when the test never passes; steps run)."""
    block = _START_BLOCK if start is None else start.shape[1]
    if block > n // 4 or -floor >= threshold:
        return None, 0
    eps = np.finfo(float).eps
    rng = None
    if start is None:
        rng = np.random.default_rng(0)
        start = np.column_stack([np.ones(n), rng.standard_normal((n, block - 1))])
    # Each step orthonormalizes A times the previous Ritz vectors (at first,
    # the start block) and runs Rayleigh-Ritz on that subspace.
    AV = apply(start)
    steps = 0
    while True:
        for _ in range(_BLOCK_STEPS):
            Q = np.linalg.qr(AV)[0]
            AQ = apply(Q)
            theta, U = np.linalg.eigh(Q.T @ AQ)
            steps += 1
            theta, U = theta[::-1], U[:, ::-1]
            V = Q @ U
            AV = AQ @ U
            residual = np.linalg.norm(AV - V * theta, axis=0)
            r = int(np.count_nonzero(theta > threshold))
            if residual[:r].max(initial=0.0) <= n * eps * max(theta[0], 0.0):
                # Candidates p = r..block: the pairs r+1..p, coupled to the
                # rest by at most their residual norm, and the tail past p.
                # Past the p-th Ritz pair, n - p - 1 eigenvalues other than
                # the largest are each at least ``floor``, so they can hide
                # up to (n - p) |floor| of the tail; the last term covers
                # round-off in tr(A) and the Ritz values.
                p = np.arange(r, block + 1)
                slack = max(0.0, -floor) * (n - p) + 16.0 * n * eps * abs(trace)
                tail = trace - np.concatenate([[0.0], np.cumsum(theta)])[p] + slack
                lead = np.where(p > r, theta[min(r, block - 1)], 0.0)
                coupling = np.sqrt(np.concatenate([[0.0], np.cumsum(residual[r:] ** 2)]))
                passed = np.flatnonzero(np.maximum(lead, tail) + coupling < threshold)
                if passed.size:
                    shrunk = theta[:r] - threshold
                    keep = max(2, r + int(passed[0]) + 1)
                    return SpectralProx(V[:, :r] * np.sqrt(shrunk), float(np.sum(shrunk)), r,
                                        False, basis=V[:, :keep], steps=steps), steps
            # Give up early when even n/4 vectors, each as large as the
            # smallest Ritz value, could not bring the tail below the threshold.
            if trace - theta.sum() - (n // 4 - block) * max(theta[-1], 0.0) >= threshold:
                return None, steps
        if block == n // 4:
            return None, steps
        if rng is None:
            rng = np.random.default_rng(0)
        grown = min(2 * block, n // 4)
        AV = np.column_stack([AV, apply(rng.standard_normal((n, grown - block)))])
        block = grown
