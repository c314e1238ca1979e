import numpy as np
import pytest

from adakern import solver, svm
from adakern.errors import ParameterError
from adakern.kernel import gaussian_gram, pairwise_sq_dists
from adakern.solver import project_exact


def two_blobs(n, separation=3.0, seed=0, spread=0.6):
    """Two Gaussian blobs with +-1 labels; returns (X, y)."""
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    n_neg = n - n_pos
    pos = rng.normal(0.0, spread, (n_pos, 2)) + np.array([separation / 2, 0.0])
    neg = rng.normal(0.0, spread, (n_neg, 2)) + np.array([-separation / 2, 0.0])
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(n)
    return X[order], y[order]


def paired_blobs(n, modes=10, spread=0.05, pair_offset=0.01, seed=0):
    """1-D chain of compact blobs; every site hosts a +1/-1 pair of points.

    The per-site label pairing makes the dual mass cancel almost exactly
    across clusters, which keeps the decomposition-approximation gaps far
    inside their theoretical bounds.  Returns (X, y) with X of shape (n, 1).
    """
    rng = np.random.default_rng(seed)
    sites_per_mode = n // (2 * modes)
    X, y = [], []
    for c in range(modes):
        sites = rng.normal(0.0, spread, sites_per_mode) + float(c)
        shift = rng.normal(0.0, pair_offset, sites_per_mode)
        X.append(sites)
        y.append(np.ones(sites_per_mode))
        X.append(sites + shift)
        y.append(-np.ones(sites_per_mode))
    X = np.concatenate(X)[:, None]
    y = np.concatenate(y)
    order = rng.permutation(len(y))
    return X[order], y[order]


def write_libsvm(dataset, stream) -> None:
    """Emit a Dataset in sparse libsvm text (nonzero features only).

    Labels that are all +-1 are written as class labels, others in full precision.
    """
    classes = bool(np.all(np.isin(dataset.y, (-1.0, 1.0))))
    for xi, yi in zip(dataset.X, dataset.y):
        parts = [f"{int(yi):+d}" if classes else f"{yi:.17e}"]
        parts.extend(
            f"{j + 1}:{v:.17e}" for j, v in enumerate(xi) if v != 0.0
        )
        stream.write(" ".join(parts) + "\n")


def random_feasible(rng, y, C):
    """Random point of {0 <= a <= C, a.y = 0} via the exact projection."""
    return project_exact(rng.uniform(0.0, C, y.size), y, C)


def oracle_project(z, y, C):
    """Independent exact projection onto {0 <= a <= C, a.y = 0}.

    Sweep-line root finding on the nondecreasing piecewise-linear map
    lam -> y . clip(z + lam y, 0, C); distinct implementation from the
    production breakpoint search, used by the reference QP solvers.
    """
    starts = np.where(y > 0, -z, z - C)
    events = np.concatenate([starts, starts + C])
    order = np.argsort(events, kind="stable")
    bps = events[order]
    deltas = np.concatenate([np.ones(len(z)), -np.ones(len(z))])[order]
    slopes = np.cumsum(deltas)
    f0 = -C * float((y < 0).sum())
    fvals = f0 + np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(bps))])
    k = int(np.searchsorted(fvals, 0.0))
    if k == 0:
        lam = bps[0]
    elif k == len(bps):
        lam = bps[-1]
    else:
        slope = slopes[k - 1]
        lam = bps[k - 1] + (-fvals[k - 1] / slope if slope > 0 else 0.0)
    return np.clip(z + lam * y, 0.0, C)


def reference_pgd_qp(K, y, C, iterations, detect_cycle=True):
    """Long-run projected-gradient solve of the frozen-F SVM dual.

    Returns the iterate after ``iterations`` steps from a = 0.  Each step is
    a fixed function of the iterate's bits, so once an iterate repeats the
    sequence is periodic; with ``detect_cycle`` the loop stops at the first
    repeat and returns the iterate the full loop would end on, bit for bit.
    """
    M = K * np.outer(y, y)
    L = float(np.linalg.eigvalsh(K)[-1])
    n = len(y)
    pos = y > 0
    f0 = -C * float((~pos).sum())
    deltas_base = np.concatenate([np.ones(n), -np.ones(n)])
    a = np.zeros(n)
    history = [a]
    seen = {a.tobytes(): 0}
    for step in range(1, iterations + 1):
        z = a + (1.0 - M @ a) / L
        starts = np.where(pos, -z, z - C)
        events = np.concatenate([starts, starts + C])
        order = np.argsort(events)
        bps = events[order]
        slopes = np.cumsum(deltas_base[order])
        fvals = f0 + np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(bps))])
        k = int(np.searchsorted(fvals, 0.0))
        if k == 0:
            lam = bps[0]
        elif k == 2 * n:
            lam = bps[-1]
        else:
            slope = slopes[k - 1]
            lam = bps[k - 1] + (-fvals[k - 1] / slope if slope > 0 else 0.0)
        a = np.clip(z + lam * y, 0.0, C)
        if detect_cycle:
            first = seen.setdefault(a.tobytes(), step)
            if first != step:
                return history[first + (iterations - first) % (step - first)]
            history.append(a)
    return a


def oracle_reciprocal_similarity(X_train, X_test):
    """Reciprocal-rank similarity from two stable argsorts.

    The straightforward form of the rule, kept as the reference for the
    sort-key implementation in ``adakern.svm``.
    """
    D = pairwise_sq_dists(X_train, X_test)
    n, m = D.shape
    r = np.empty((n, m), dtype=float)
    order_rows = np.argsort(D, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    r[rows, order_rows] = np.arange(1, m + 1)[None, :]
    s = np.empty((n, m), dtype=float)
    order_cols = np.argsort(D, axis=0, kind="stable")
    cols = np.arange(m)[None, :]
    s[order_cols, cols] = np.arange(1, n + 1)[:, None]
    return 1.0 / (r * s)


def convergence_bound(L: float, alpha0, alpha_star, t: int) -> float:
    """Accelerated-method gap bound 8 L ||a0 - a*||^2 / ((t+1)(t+2))."""
    if t < 0:
        raise ParameterError(f"t must be nonnegative, got {t}")
    diff = np.asarray(alpha0, dtype=float) - np.asarray(alpha_star, dtype=float)
    return 8.0 * L * float(diff @ diff) / ((t + 1.0) * (t + 2.0))


def dense_soft_threshold(A, threshold):
    """Eigenvalue soft-threshold of a symmetric A from one full ``np.linalg.eigh``.

    The reference for the certified prox.  Each eigenvalue w maps to
    sign(w) max(0, |w| - threshold); returns the result, made exactly
    symmetric, and that shrunk spectrum in non-increasing order.
    """
    A = np.asarray(A, dtype=float)
    values, vectors = np.linalg.eigh(0.5 * (A + A.T))
    values, vectors = values[::-1], vectors[:, ::-1]
    shrunk = np.sign(values) * np.maximum(0.0, np.abs(values) - threshold)
    B = (vectors * shrunk) @ vectors.T
    return 0.5 * (B + B.T), shrunk


def adaptive_matrix(w, K, tau: float, eta: float) -> np.ndarray:
    """The solvers' adaptive matrix at dual weights w (a o y, or hat - check).

    At tau = 0 it is 11' + diag(w) K diag(w) / (4 eta), formed here; for
    tau > 0, the soft-threshold of that matrix at tau/2 from a cold
    ``solver._adaptive_prox``.
    """
    w = np.asarray(w, dtype=float)
    if tau == 0:
        return 1.0 + np.asarray(K, dtype=float) * np.outer(w, w) / (4.0 * eta)
    return solver._adaptive_prox(w, K, tau, eta).matrix


def lipschitz_pgd(n, C, K, eta, tau):
    """The pgd step constant n - tau/2 + n C^2 lam_max(K) / (4 eta), from lam_max of K."""
    return solver._pgd_constant(n, C, float(np.linalg.eigvalsh(K)[-1]), eta, tau)


def lipschitz_svr_pgd(n, C, K, eta, tau):
    """The stacked pgd step constant of the SVR: twice the classifier's, from lam_max of K."""
    return 2.0 * lipschitz_pgd(n, C, K, eta, tau)


def block_kernel(K, partition) -> np.ndarray:
    """Copy of K with cross-cluster entries zeroed."""
    K = np.asarray(K, dtype=float)
    assign = partition.assignment
    return np.where(assign[:, None] == assign[None, :], K, 0.0)


def dense_kkt_bias(model) -> float:
    """A trained model's bias from the dense KKT formula, with F o K formed.

    The reference for the trainers, which read (F o K)w off the solve's
    gradient.  For the classifier, y - (F o K)(a o y) on the duals a; for
    the SVR, y - g0 -+ epsilon on [hat; check] with g0 = (F o K)(hat - check),
    whose blocks bound the bias as labels +1 and -1 do.
    """
    FK = model.F * gaussian_gram(model.X, model.sigma)
    if hasattr(model, "alpha_hat"):
        g0 = FK @ (model.alpha_hat - model.alpha_check)
        values = np.concatenate([model.y - g0 - model.epsilon, model.y - g0 + model.epsilon])
        signs = np.repeat([1.0, -1.0], model.y.size)
        duals = np.concatenate([model.alpha_hat, model.alpha_check])
        return svm._kkt_bias(values, signs, duals, model.config.C)
    values = model.y - FK @ (model.alpha * model.y)
    return svm._kkt_bias(values, model.y, model.alpha, model.config.C)


def decision_values_insample(model) -> np.ndarray:
    """Training-set decision values from the in-sample expansion (F o K)."""
    K = gaussian_gram(model.X, model.sigma)
    return (model.alpha * model.y) @ (model.F * K) + model.bias


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def recorded(monkeypatch):
    """What the solves of a test evaluate and project: (points, projections).

    ``points`` gets each point at which a dual oracle is evaluated, in
    order: for nesterov and pgd z^(0) = 0, then z^(1), ..., and the
    returned point last.  ``projections`` gets each exact projection a
    solve takes: theta~ and beta per iteration in the accelerated
    variants, the next iterate in pgd.  Both lists are copies.
    """
    points, projections = [], []
    oracle, project = solver._dual_oracle, solver.project_exact

    def recording_oracle(*args):
        evaluate = oracle(*args)

        def recording_evaluate(z, warm=True):
            points.append(z.copy())
            return evaluate(z, warm)

        return recording_evaluate

    def recording_project(*args):
        result = project(*args)
        projections.append(result.copy())
        return result

    monkeypatch.setattr(solver, "_dual_oracle", recording_oracle)
    monkeypatch.setattr(solver, "project_exact", recording_project)
    return points, projections
