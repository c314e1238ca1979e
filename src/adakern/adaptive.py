"""The adaptive matrix F of a trained model, in the form training left it.

:class:`Factor` (F = W W'), :class:`ClosedForm` (tau = 0, per cluster) and
:class:`Dense` (F itself) each answer ``dense()``, F as an n x n array, and
``columns(idx)``, F[:, idx] without forming F.  Prediction reads columns,
and a model file stores the form (:mod:`persist`).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .kernel import gaussian_gram
from .linalg import factor_columns
from .solver import _zero_tau_matrix


@dataclass
class Partition:
    """Cluster assignment over range(n), the one cluster type of the decomposition mode.

    A count outside [1, n], an index out of range (both checked first) or
    an empty cluster raises DataError.
    """

    assignment: np.ndarray
    n_clusters: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        if not 1 <= self.n_clusters <= self.assignment.size:
            raise DataError(f"cluster count {self.n_clusters} not in [1, {self.assignment.size}]")
        if self.assignment.min() < 0 or self.assignment.max() >= self.n_clusters:
            raise DataError("cluster indices out of range")
        if np.any(np.bincount(self.assignment, minlength=self.n_clusters) == 0):
            raise DataError("partition contains an empty cluster")

    def clusters(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.assignment == c) for c in range(self.n_clusters)]

    def block_diagonal(self, blocks) -> np.ndarray:
        """n x n: blocks[c] (an iterable) on cluster c's rows and columns, 1 elsewhere."""
        n = self.assignment.size
        M = np.ones((n, n))
        for idx, block in zip(self.clusters(), blocks):
            M[np.ix_(idx, idx)] = block
        return M


class AdaptiveMatrix:
    """What every form answers; each form implements ``_dense`` and ``_columns``."""

    def dense(self) -> np.ndarray:
        """F as an n x n array."""
        return self._dense()

    def columns(self, idx) -> np.ndarray:
        """F[:, idx] (n x len(idx), indices may repeat), bit for bit, without forming F."""
        return self._columns(np.asarray(idx, dtype=int))


@dataclass
class Factor(AdaptiveMatrix):
    """F = W W', from the n x r factor W."""

    W: np.ndarray

    def _dense(self):
        return factor_columns(self.W, np.arange(len(self.W)))

    def _columns(self, idx):
        return factor_columns(self.W, idx)


@dataclass
class ClosedForm(AdaptiveMatrix):
    """The tau = 0 F, from X, the prox weights w (y o alpha, or hat - check), sigma and eta.

    Per cluster c of ``partition`` (one in exact mode), the block
    :func:`solver._zero_tau_matrix` of K_c = gaussian_gram(X[c], sigma),
    as the solves form it, so F is the trained one bit for bit; 1 across
    clusters.  Each block is formed the first time it is used and kept.
    """

    X: np.ndarray
    w: np.ndarray
    sigma: float
    eta: float
    partition: Partition
    _blocks: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def _block(self, c, members):
        if c not in self._blocks:
            K = gaussian_gram(self.X[members], self.sigma)
            self._blocks[c] = _zero_tau_matrix(K, self.w[members], self.eta)
        return self._blocks[c]

    def _dense(self):
        clusters = self.partition.clusters()
        return self.partition.block_diagonal(map(self._block, range(len(clusters)), clusters))

    def _columns(self, idx):
        # Only the blocks of the clusters that idx reaches are formed.
        labels = self.partition.assignment[idx]
        F = np.ones((self.w.size, idx.size))
        for c, members in enumerate(self.partition.clusters()):
            picked = np.flatnonzero(labels == c)
            if picked.size:
                local = np.searchsorted(members, idx[picked])
                F[np.ix_(members, picked)] = self._block(c, members)[:, local]
        return F


@dataclass
class Dense(AdaptiveMatrix):
    """F itself, n x n."""

    F: np.ndarray

    def _dense(self):
        return self.F

    def _columns(self, idx):
        return self.F[:, idx]
