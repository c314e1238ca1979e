"""Classification wrapper: training, bias recovery, out-of-sample extension."""

from dataclasses import dataclass, field

import numpy as np

from .data import Scaler, apply_minmax, fit_minmax
from .errors import DataError, ParameterError
from .kernel import cross_gram, gaussian_gram, pairwise_sq_dists
from .solver import SolverConfig, SolveTrace, resolve_eta, solve

# Relative margin for calling a dual coordinate interior to (0, C).
_MARGIN_RTOL = 1e-6


@dataclass
class SvmModel:
    """Everything prediction needs.  ``X`` is stored in scaled space."""

    X: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    F: np.ndarray
    bias: float
    sigma: float
    config: SolverConfig
    scaler: Scaler
    mode: str = "exact"
    assignment: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def decision_function(self, X_test) -> np.ndarray:
        X_test = np.asarray(X_test, dtype=float)
        if X_test.ndim != 2 or X_test.shape[1] != self.X.shape[1]:
            raise DataError(
                f"feature dimension mismatch: model has {self.X.shape[1]}, "
                f"got {X_test.shape[1:]}"
            )
        Xs = apply_minmax(self.scaler, X_test)
        M = reciprocal_similarity(self.X, Xs)
        F_ext = extend_adaptive(self.F, M)
        Kx = cross_gram(self.X, Xs, self.sigma)
        return (self.alpha * self.y) @ (F_ext * Kx) + self.bias

    def predict(self, X_test) -> np.ndarray:
        decisions = self.decision_function(X_test)
        return np.where(decisions >= 0.0, 1.0, -1.0)


def _validate_training_inputs(X, y, sigma):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError("X and y have inconsistent shapes")
    if X.shape[0] < 2:
        raise DataError("need at least 2 training points")
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be in {-1, +1}")
    if np.all(y == y[0]):
        raise DataError("training labels contain a single class")
    if not sigma > 0:
        raise ParameterError(f"kernel width sigma must be positive, got {sigma}")
    return X, y


def train(X, y, sigma: float, config: SolverConfig,
          freeze_f: bool = False) -> SvmModel:
    """Fit the adaptive-kernel SVM.

    Min-max scales the features, builds the Gaussian Gram matrix, resolves
    eta when unset (||alpha||^2 of a preliminary standard-SVM solve), runs
    the saddle solver, and recovers the decision bias from the KKT
    conditions.  ``freeze_f`` keeps F at the all-one matrix, which is the
    plain SVM baseline.
    """
    X, y = _validate_training_inputs(X, y, sigma)
    scaler = fit_minmax(X)
    Xs = apply_minmax(scaler, X)
    K = gaussian_gram(Xs, sigma)
    if not freeze_f:
        config = resolve_eta(K, y, config)
    state, F, trace = solve(K, y, config, freeze_f=freeze_f)
    state.validate(config.C)
    bias = recover_bias(state.alpha, y, F, K, config.C)
    return SvmModel(
        X=Xs, y=y, alpha=state.alpha, F=F, bias=bias, sigma=sigma,
        config=config, scaler=scaler, meta=_training_meta(F, trace),
    )


def _training_meta(F: np.ndarray, trace: SolveTrace) -> dict:
    evals = np.linalg.eigvalsh(0.5 * (F + F.T))
    lam_max = float(evals[-1])
    rank = int(np.sum(evals > 1e-6 * max(lam_max, 0.0))) if lam_max > 0 else 0
    return {
        "iterations": trace.iterations,
        "objective": trace.objective_history[-1] if trace.objective_history else float("nan"),
        "terminated_by": trace.terminated_by,
        "f_min": float(F.min()),
        "f_max": float(F.max()),
        "f_rank": rank,
        "prox_fallbacks": trace.prox_fallbacks,
        "prox_rank": trace.prox_rank,
        "warnings": list(trace.warnings),
    }


def recover_bias(alpha, y, F, K, C: float) -> float:
    """Decision bias from the KKT conditions.

    Uses the median of y_i - sum_j a_j y_j F_ij K_ij over margin support
    vectors (0 < a_i < C up to a relative slack); when none exist, falls
    back to the midpoint of the feasible interval implied by the
    bound-active points.
    """
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    margins = (np.asarray(F) * np.asarray(K)) @ (alpha * y)
    lo_cut, hi_cut = _MARGIN_RTOL * C, (1.0 - _MARGIN_RTOL) * C
    interior = (alpha > lo_cut) & (alpha < hi_cut)
    if np.any(interior):
        return float(np.median(y[interior] - margins[interior]))

    lowers, uppers = [], []
    at_zero = alpha <= lo_cut
    at_cap = alpha >= hi_cut
    for i in np.flatnonzero(at_zero):
        # y_i (margin_i + b) >= 1
        if y[i] > 0:
            lowers.append(1.0 - margins[i])
        else:
            uppers.append(-1.0 - margins[i])
    for i in np.flatnonzero(at_cap):
        # y_i (margin_i + b) <= 1
        if y[i] > 0:
            uppers.append(1.0 - margins[i])
        else:
            lowers.append(-1.0 - margins[i])
    if lowers and uppers:
        return 0.5 * (max(lowers) + min(uppers))
    if lowers:
        return float(max(lowers))
    if uppers:
        return float(min(uppers))
    return 0.0


def reciprocal_similarity(X_train, X_test) -> np.ndarray:
    """Reciprocal nearest-neighbor similarity M_ij = 1 / (r s).

    r is the rank of test point j among all test points sorted by distance
    to training point i; s is the rank of training point i among all
    training points sorted by distance to test point j.  Ranks are 1-based
    over the full opposite set, so every entry is positive.  Distance ties
    break by index order.
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


def extend_adaptive(F, M) -> np.ndarray:
    """Extend the trained adaptive matrix to test columns.

    Column j of the result is column argmax_i M_ij of F; ties break toward
    the smallest index.
    """
    F = np.asarray(F, dtype=float)
    M = np.asarray(M, dtype=float)
    if M.shape[0] != F.shape[0]:
        raise DataError("similarity matrix rows must match the training size")
    best = np.argmax(M, axis=0)
    return F[:, best]


def decision_values_insample(model: SvmModel) -> np.ndarray:
    """Training-set decision values from the in-sample expansion."""
    K = gaussian_gram(model.X, model.sigma)
    return (model.alpha * model.y) @ (model.F * K) + model.bias


def accuracy(model: SvmModel, X, y) -> float:
    predictions = model.predict(X)
    return float(np.mean(predictions == np.asarray(y, dtype=float)))


def cross_validate(X, y, sigma_grid, C_grid, folds: int, seed: int,
                   config_template: SolverConfig, freeze_f: bool = False):
    """Grid-search (sigma, C) by mean k-fold accuracy.

    Ties break toward smaller C, then larger sigma (the smoother model).
    Returns (best_sigma, best_C, table) where table rows are
    (sigma, C, mean_accuracy).
    """
    from dataclasses import replace

    from .data import kfold

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fold_indices = kfold(len(y), folds, seed)
    table = []
    best = None
    for sigma in sigma_grid:
        for C in C_grid:
            scores = []
            for held in fold_indices:
                mask = np.ones(len(y), dtype=bool)
                mask[held] = False
                if np.all(y[mask] == y[mask][0]) or np.all(~mask):
                    continue
                cfg = replace(config_template, C=float(C), eta=None)
                model = train(X[mask], y[mask], float(sigma), cfg, freeze_f=freeze_f)
                scores.append(accuracy(model, X[held], y[held]))
            mean_score = float(np.mean(scores)) if scores else 0.0
            table.append((float(sigma), float(C), mean_score))
            key = (mean_score, -float(C), float(sigma))
            if best is None or key > best[0]:
                best = (key, float(sigma), float(C))
    return best[1], best[2], table


