"""Decomposition-based large-scale mode.

Partitions the data with k-means, solves the per-cluster subproblems
independently (nuclear-norm weight and bias both dropped), and assembles a
block-diagonal approximation.  Also computes the approximation-error
quantities that bound the gap to the exact solution and the
non-support-vector screening condition.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .adaptive import ClosedForm, Partition
from .errors import DataError, ParameterError
from .kernel import gaussian_gram, pairwise_sq_dists
from .solver import SolverConfig, _require_eta, resolve_eta, solve
from .svm import SvmModel, _model_meta, _training_inputs


@dataclass
class BlockSolution:
    """Concatenated block solves; ``alpha_bar`` is kept in original index order."""

    partition: Partition
    alpha_bar: np.ndarray
    blocks: list
    traces: list
    single_class_blocks: int = 0


@dataclass
class BoundReport:
    v: int
    Q_pi: float
    B1: float
    B2: float
    B: float
    objective_gap_bound: float
    alpha_gap_bound: float
    F_gap_bound: float
    exact_F_bound: float
    screened_indices: np.ndarray
    screened_positive_indices: np.ndarray
    measured_objective_gap: float | None = None
    measured_alpha_gap_sq: float | None = None
    measured_F_gap: float | None = None
    warnings: list = field(default_factory=list)


def kmeans_partition(X, v: int, seed: int) -> Partition:
    """Lloyd's k-means from k-means++ seeding; deterministic per seed.

    At most 100 iterations or a centroid shift below 1e-8; empty clusters
    are repaired by splitting the largest cluster at its farthest point.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= v <= n:
        raise ParameterError(f"need 1 <= v <= n, got v={v}, n={n}")
    rng = np.random.default_rng(seed)

    centers = np.empty((v, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = pairwise_sq_dists(X, centers[:1])[:, 0]
    for c in range(1, v):
        total = closest.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centers[c] = X[pick]
        closest = np.minimum(closest, pairwise_sq_dists(X, centers[c:c + 1])[:, 0])

    for _ in range(100):
        dists = pairwise_sq_dists(X, centers)
        assignment = np.argmin(dists, axis=1)
        counts = np.bincount(assignment, minlength=v)
        for empty in np.flatnonzero(counts == 0):
            largest = int(np.argmax(counts))
            members = np.flatnonzero(assignment == largest)
            far = members[int(np.argmax(dists[members, largest]))]
            assignment[far] = empty
            counts = np.bincount(assignment, minlength=v)
        new_centers = np.vstack([X[assignment == c].mean(axis=0) for c in range(v)])
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < 1e-8:
            break
    return Partition(assignment=assignment, n_clusters=v)


def solve_blocks(X, y, partition: Partition, sigma: float,
                 config: SolverConfig) -> BlockSolution:
    """Solve the per-cluster subproblems and concatenate.

    Each block runs the SVM-mode solver with the nuclear weight forced to
    zero and no hyperplane constraint (box clip only).  Single-class blocks
    are still well-posed (the hyperplane constraint is gone) and are solved
    like any other; a diagnostic counts them.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_eta(config)
    block_config = replace(config, tau=0.0)
    alpha = np.zeros(y.size)
    blocks = []
    traces = []
    single_class = 0
    for idx in partition.clusters():
        yc = y[idx]
        if np.all(yc == yc[0]):
            single_class += 1
        Kc = gaussian_gram(X[idx], sigma)
        state, Fc, trace = solve(Kc, yc, block_config, with_equality=False)
        blocks.append(Fc)
        traces.append(trace)
        alpha[idx] = state.alpha
    return BlockSolution(partition=partition, alpha_bar=alpha, blocks=blocks,
                         traces=traces, single_class_blocks=single_class)


def cross_cluster_mass(K, partition: Partition) -> float:
    """Q(pi): total absolute kernel mass across cluster boundaries."""
    K = np.asarray(K, dtype=float)
    assign = partition.assignment
    mask = assign[:, None] != assign[None, :]
    return float(np.abs(K[mask]).sum())


def decomposition_objective(alpha, y, K, F, eta: float) -> float:
    """Objective of the no-bias, no-nuclear problem at an arbitrary (alpha, F)."""
    w = np.asarray(y, dtype=float) * np.asarray(alpha, dtype=float)
    dev = np.asarray(F, dtype=float) - 1.0
    return (float(np.sum(alpha)) - 0.5 * float(w @ ((F * K) @ w))
            + eta * float((dev * dev).sum()))


def screen_nonsupport(block_solution: BlockSolution, K, B: float, B2: float,
                      C: float, kappa: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Indices safely identifiable as non-support vectors of the whole problem.

    Candidates have zero block duals; index i qualifies when the gradient
    component 1 - sum_j y_i y_j F_ij K_ij a_j over i's block falls at or
    below the threshold -(B + B2) C (||K_bar_i||_1 + kappa), where K_bar is
    K with the cross-cluster entries zeroed.  The gradient is each block
    solve's own, at its returned duals (``SolveTrace.gradient``); the
    threshold comes block by block from the diagonal blocks of K.  Returns
    that strict set and the positive-threshold variant reported alongside
    for diagnostics.
    """
    K = np.asarray(K, dtype=float)
    alpha = block_solution.alpha_bar
    grad = np.empty_like(alpha)
    mass = np.empty_like(alpha)
    for idx, trace in zip(block_solution.partition.clusters(), block_solution.traces):
        grad[idx] = trace.gradient
        mass[idx] = np.abs(K[np.ix_(idx, idx)]).sum(axis=0)
    threshold = (B + B2) * C * (mass + kappa)
    candidate = alpha == 0.0
    return (np.flatnonzero(candidate & (grad <= -threshold)),
            np.flatnonzero(candidate & (grad <= threshold)))


def check_kappa(kappa: float) -> None:
    """Reject a screening kernel bound that is negative or not finite (ParameterError)."""
    if not 0 <= kappa < np.inf:
        raise ParameterError(f"kappa must be nonnegative and finite, got {kappa}")


def bound_report(approx: BlockSolution, K, partition: Partition,
                 config: SolverConfig, y, exact=None,
                 kappa: float = 1.0) -> BoundReport:
    """Approximation-error bounds, with measured gaps when ``exact`` is given.

    ``exact`` is an optional (alpha_star, F_star, H_star) triple from a
    whole-problem solve of the same no-bias, no-nuclear objective.  The
    entry range [B1, B2] is measured over the exact adaptive matrix (when
    supplied) and the diagonal blocks of the approximate one; nonpositive
    entries violate the bounds' hypothesis and are reported as a warning.
    Off-block entries count as 1 for the measured gaps.  ``kappa``, the
    kernel bound in the screening threshold, must be nonnegative and
    finite (ParameterError otherwise).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    eta = _require_eta(config)
    check_kappa(kappa)
    C = config.C
    n = y.size

    entries = [block.ravel() for block in approx.blocks]
    if exact is not None:
        entries.append(np.asarray(exact[1], dtype=float).ravel())
    entries = np.concatenate(entries)
    warnings = []
    positive = entries[entries > 0]
    if positive.size < entries.size:
        warnings.append(
            "adaptive matrices contain nonpositive entries; "
            "the bound hypothesis 0 < B1 is violated"
        )
    if positive.size == 0:
        raise DataError("no positive adaptive-matrix entries; bounds undefined")
    B1 = float(positive.min())
    B2 = float(entries.max())
    B = B2 - B1

    Q = cross_cluster_mass(K, partition)
    fro = float(np.linalg.norm(K))
    objective_gap_bound = 0.5 * B * C * C * Q
    alpha_gap_bound = B2 * C * C * Q / (B1 * fro) + 2.0 * B * C * C / B1
    F_gap_bound = (fro / (2.0 * eta)) * np.sqrt(
        n * B2 * Q / (B1 * fro) + 2.0 * n * B / B1
    ) * C * C + C * C * Q / (4.0 * eta)
    exact_F_bound = n * max(np.sqrt(B), B)

    screened, screened_pos = screen_nonsupport(approx, K, B, B2, C, kappa)

    report = BoundReport(
        v=partition.n_clusters, Q_pi=Q, B1=B1, B2=B2, B=B,
        objective_gap_bound=objective_gap_bound,
        alpha_gap_bound=alpha_gap_bound,
        F_gap_bound=float(F_gap_bound),
        exact_F_bound=float(exact_F_bound),
        screened_indices=screened,
        screened_positive_indices=screened_pos,
        warnings=warnings,
    )
    if exact is not None:
        alpha_star, F_star, H_star = exact
        F_bar = approx.partition.block_diagonal(approx.blocks)
        H_bar = decomposition_objective(approx.alpha_bar, y, K, F_bar, eta)
        diff = np.asarray(alpha_star, dtype=float) - approx.alpha_bar
        report.measured_objective_gap = abs(float(H_star) - H_bar)
        report.measured_alpha_gap_sq = float(diff @ diff)
        report.measured_F_gap = float(np.linalg.norm(np.asarray(F_star) - F_bar))
    return report


def exact_reference(K, y, config: SolverConfig):
    """Whole-problem solve of the no-bias, no-nuclear objective.

    K may be the :class:`solver._PsdGram` of a kernel checked before, which
    the solve does not check again.  Returns the (alpha_star, F_star,
    H_star) triple that ``bound_report`` accepts as its ``exact`` argument;
    H_star is the solve's own value at alpha_star, the last entry of its
    ``objective_history``.
    """
    _require_eta(config)
    state, F, trace = solve(K, y, replace(config, tau=0.0), with_equality=False)
    return state.alpha, F, trace.objective_history[-1]


def train_scalable(X, y, sigma: float, config: SolverConfig, v: int,
                   seed: int) -> SvmModel:
    """Decomposition-mode training; returns a model with zero bias.

    eta resolution uses the standard whole-data SVM protocol, then each
    k-means block is solved independently at tau = 0, which the model's
    config records.  The model holds the adaptive matrix as its closed form
    (:class:`adaptive.ClosedForm`: the blocks, with off-block entries at
    the neutral value 1); the assembled n x n F serves ``meta`` only, and
    its rank is read off the block duals, with no n x n eigendecomposition.
    Only an unset eta builds the whole-data Gram matrix: the objective needs
    K on the support alone, since off it alpha is 0 and F's rows are 1.
    Fewer than v points raise DataError before any solve.
    """
    y, _, scaler, Xs = _training_inputs(X, y, sigma)
    if y.size < v:
        raise DataError(f"{y.size} training points cannot form {v} clusters")
    if config.eta is None:
        config = resolve_eta(gaussian_gram(Xs, sigma), y, config)
    config = replace(config, tau=0.0)
    partition = kmeans_partition(Xs, v, seed)
    blocks = solve_blocks(Xs, y, partition, sigma, config)
    w = y * blocks.alpha_bar
    F = partition.block_diagonal(blocks.blocks)
    S = np.flatnonzero(w)
    objective = decomposition_objective(blocks.alpha_bar[S], y[S], gaussian_gram(Xs[S], sigma),
                                        F[np.ix_(S, S)], config.eta)
    meta = {**_model_meta(blocks.traces, F, None, w, objective),
            "clusters": v, "seed": seed, "single_class_blocks": blocks.single_class_blocks}
    return SvmModel(
        X=Xs, y=y, alpha=blocks.alpha_bar, adaptive=ClosedForm(Xs, w, sigma, config.eta, partition),
        bias=0.0, sigma=sigma, config=config, scaler=scaler,
        assignment=partition.assignment.copy(), meta=meta,
    )
