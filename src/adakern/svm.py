"""Classification wrapper: training, bias recovery, out-of-sample extension."""

from dataclasses import dataclass, field, replace

import numpy as np

from .adaptive import AdaptiveMatrix, ClosedForm, Factor, Partition
from .data import Scaler, apply_minmax, fit_minmax, kfold
from .errors import DataError
from .kernel import chunk_length, gaussian_from_sq_dists, gaussian_gram, pairwise_sq_dists
from .solver import SolverConfig, SolveTrace, _check_labels, _check_psd_gram, resolve_eta, solve

# Relative margin for calling a dual coordinate interior to (0, C).
_MARGIN_RTOL = 1e-6
# Columns of F that prediction forms at a time: n x 256 floats, whatever
# the batch size.
_F_COLUMNS = 256


@dataclass
class SvmModel:
    """Everything prediction needs.  ``X`` is stored in scaled space.

    ``adaptive`` is F in the form training left it (:mod:`adaptive`);
    ``F`` forms the n x n array on each access.  A decomposition model
    (mode "scalable") has its cluster ``assignment``.
    """

    X: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    adaptive: AdaptiveMatrix
    bias: float
    sigma: float
    config: SolverConfig
    scaler: Scaler
    assignment: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def F(self) -> np.ndarray:
        return self.adaptive.dense()

    @property
    def mode(self) -> str:
        return "exact" if self.assignment is None else "scalable"

    def decision_function(self, X_test) -> np.ndarray:
        return _expansion(self, self.alpha * self.y, X_test)

    def predict(self, X_test) -> np.ndarray:
        decisions = self.decision_function(X_test)
        return np.where(decisions >= 0.0, 1.0, -1.0)


def _expansion(model, coef, X_test) -> np.ndarray:
    """sum_i coef_i F[i, best_j] K(x_i, x_j) + bias for each test row j.

    The one prediction body of the SVM and SVR models, in the model's
    scaled target space: checks the test features, min-max scales them and
    extends the trained adaptive matrix to them by reciprocal rank (column
    best_j of F, :func:`reciprocal_match`).  The distances turn into the
    kernel in place, and F's columns multiply into it chunk by chunk, so
    no other n x m float array is formed.
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != model.X.shape[1]:
        raise DataError(
            f"feature dimension mismatch: model has {model.X.shape[1]}, "
            f"got {X_test.shape[1:]}"
        )
    if not np.all(np.isfinite(X_test)):
        raise DataError("test features contain non-finite values")
    Xs = apply_minmax(model.scaler, X_test)
    Kx = pairwise_sq_dists(model.X, Xs)
    best = reciprocal_match(Kx)
    gaussian_from_sq_dists(Kx, model.sigma)
    for lo in range(0, best.size, _F_COLUMNS):
        Kx[:, lo:lo + _F_COLUMNS] *= model.adaptive.columns(best[lo:lo + _F_COLUMNS])
    # One product over the whole C-ordered matrix: its summation order, and
    # so its bits, are those of the unchunked expansion.
    return coef @ Kx + model.bias


def _training_inputs(X, y, sigma: float, classes: bool = True):
    """Check the training inputs, min-max scale X and build its Gram matrix.

    The one input check of the three trainers.  X must be a finite n x d
    array with n >= 2 and y n values: +-1 labels of both classes when
    ``classes``, finite regression targets otherwise.  A defect raises
    DataError; sigma <= 0 raises ParameterError.  Returns y, the scaler,
    the scaled X and its Gaussian Gram matrix K.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError("X and y have inconsistent shapes")
    if X.shape[0] < 2:
        raise DataError("need at least 2 training points")
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    if classes:
        _check_labels(y, require_both_classes=False)
        if np.all(y == y[0]):
            raise DataError("training labels contain a single class")
    elif not np.all(np.isfinite(y)):
        raise DataError("targets contain non-finite values")
    scaler = fit_minmax(X)
    Xs = apply_minmax(scaler, X)
    # gaussian_gram rejects sigma <= 0 with a ParameterError.
    return y, scaler, Xs, gaussian_gram(Xs, sigma)


def train(X, y, sigma: float, config: SolverConfig,
          freeze_f: bool = False) -> SvmModel:
    """Fit the adaptive-kernel SVM.

    Min-max scales the features, builds the Gaussian Gram matrix, resolves
    eta when unset (:func:`solver.resolve_eta`), runs the saddle solver,
    and recovers the decision bias from the KKT conditions.  ``freeze_f``
    keeps F at the all-one matrix, which is the plain SVM baseline.
    """
    y, scaler, Xs, K = _training_inputs(X, y, sigma)
    gram = _check_psd_gram(K)
    if not freeze_f:
        config = resolve_eta(gram, y, config)
    state, F, trace = solve(gram, y, config, freeze_f=freeze_f)
    state.validate(config.C)
    bias = recover_bias(state.alpha, y, F, K, config.C)
    w = y * state.alpha
    meta = _model_meta([trace], F, trace.factor, w, trace.objective_history[-1])
    return SvmModel(
        X=Xs, y=y, alpha=state.alpha, adaptive=_solved_form(trace, Xs, w, sigma, config.eta),
        bias=bias, sigma=sigma, config=config, scaler=scaler, meta=meta,
    )


def _solved_form(trace: SolveTrace, X, w, sigma: float, eta: float | None) -> AdaptiveMatrix:
    """F as a whole-data solve left it: its factor, or at tau = 0 the one-cluster closed form."""
    if trace.factor is not None:
        return Factor(trace.factor)
    return ClosedForm(X, w, sigma, eta, Partition(np.zeros(w.size, dtype=int), 1))


def _model_meta(traces: list[SolveTrace], F: np.ndarray, factor: np.ndarray | None,
                w: np.ndarray, objective: float) -> dict:
    """The ``meta`` of every trained model: its solves' diagnostics, F's range and rank.

    Iterations, prox fallbacks and prox steps are summed, ``prox_rank`` is
    the largest, ``warnings`` holds every solve's; ``terminated_by`` is
    max_iter if any is.
    """
    stops = [t.terminated_by for t in traces]
    return {
        "iterations": sum(t.iterations for t in traces),
        "objective": objective,
        "terminated_by": "max_iter" if "max_iter" in stops else stops[0],
        "prox_fallbacks": sum(t.prox_fallbacks for t in traces),
        "prox_rank": max(t.prox_rank for t in traces),
        "prox_steps": sum(t.prox_steps for t in traces),
        "warnings": [text for t in traces for text in t.warnings],
        "f_min": float(F.min()),
        "f_max": float(F.max()),
        "f_rank": _f_rank(F, factor, w),
    }


def _f_rank(F: np.ndarray, factor: np.ndarray | None, w: np.ndarray) -> int:
    """Numerical rank of F: its eigenvalues above 1e-6 of the largest.

    The squared column norms of a factor W (F = W W') are F's nonzero
    spectrum, so with W given no eigendecomposition runs.  Without one, F
    is the tau = 0 closed form 11' + G, where G is zero outside the rows
    and columns S at which the prox weights w are nonzero (s of them).
    F's range then lies in that of Q = [e_S, 1_{S^c} / sqrt(n - s)], whose
    columns are orthonormal, so F's nonzero spectrum is that of the
    (s + 1) x (s + 1) matrix Q'FQ: F_SS bordered by sqrt(n - s) 1, with
    n - s in the corner (no border when s = n; just [n] when s = 0).
    """
    if factor is None:
        S = np.flatnonzero(w)
        rest = w.size - S.size
        compressed = np.full((S.size + 1, S.size + 1), np.sqrt(rest))
        compressed[:-1, :-1] = F[np.ix_(S, S)]
        compressed[-1, -1] = rest
        spectrum = np.linalg.eigvalsh(compressed if rest else compressed[:-1, :-1])
    else:
        spectrum = np.einsum("ij,ij->j", factor, factor)
    top = float(spectrum.max(initial=0.0))
    return int(np.sum(spectrum > 1e-6 * top)) if top > 0 else 0


def recover_bias(alpha, y, F, K, C: float) -> float:
    """Decision bias from the KKT conditions (see :func:`_kkt_bias`).

    Uses the median of y_i - sum_j a_j y_j F_ij K_ij over margin support
    vectors (0 < a_i < C up to a relative slack); when none exist, falls
    back to the midpoint of the feasible interval implied by the
    bound-active points: y_i (margin_i + b) >= 1 at a_i = 0 and <= 1 at
    a_i = C.
    """
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    margins = (np.asarray(F) * np.asarray(K)) @ (alpha * y)
    return _kkt_bias(y - margins, y, alpha, C)


def _kkt_bias(values, signs, duals, C: float) -> float:
    """Bias from the KKT conditions of a dual on the box [0, C].

    Dual coordinate i fixes the bias at values_i when it lies inside
    (0, C) up to a relative slack.  At 0 it bounds the bias from below when
    signs_i > 0 and from above when signs_i < 0; at C the other way round.
    Returns the median over the inside coordinates; with none, the
    midpoint of the interval the bounds leave, its one finite end, or 0.
    """
    lo_cut, hi_cut = _MARGIN_RTOL * C, (1.0 - _MARGIN_RTOL) * C
    interior = (duals > lo_cut) & (duals < hi_cut)
    if np.any(interior):
        return float(np.median(values[interior]))
    at_zero, at_cap = duals <= lo_cut, duals >= hi_cut
    lowers = values[(at_zero & (signs > 0)) | (at_cap & (signs < 0))]
    uppers = values[(at_zero & (signs < 0)) | (at_cap & (signs > 0))]
    if lowers.size and uppers.size:
        return 0.5 * (lowers.max() + uppers.min())
    if lowers.size:
        return float(lowers.max())
    if uppers.size:
        return float(uppers.min())
    return 0.0


def reciprocal_match(D) -> np.ndarray:
    """For each column j of the n x m squared distances D, the row of best reciprocal rank.

    r_ij is the rank of column j among all columns of row i, s_ij the rank
    of row i among all rows of column j: 1-based, distance ties by index.
    Returns (int64, length m) for each j the i with the least r_ij s_ij,
    ties to the smallest i: the argmax over i of the reciprocal
    nearest-neighbor similarity M_ij = 1 / (r s), which is never formed:
    the products are exact integers, and 1/p falls strictly with p in
    float64 for every n m that fits in memory.  Distances must be
    nonnegative (the ranks sort their bits); NaN or negative ones raise
    ``DataError``.

    The row ranks r are sorted in row chunks (int32, O(nm log m)).  Each
    column j then has its nearest row near_j (s = 1), whose product bounds
    the best, r[near_j, j]; since s >= 2 elsewhere, only rows with
    2 r_ij <= r[near_j, j] can beat or tie it.  Most columns have none;
    the others rank their rows by a sort.  Peak memory is the int32 r,
    4 bytes per n x m entry, plus chunks of about 2^16 entries
    (:func:`kernel.chunk_length`).
    """
    D = np.ascontiguousarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] == 0:
        raise DataError("distances must form an n x m array with n >= 1")
    n, m = D.shape
    r = np.empty((n, m), dtype=np.int32)
    step = chunk_length(m)
    for lo in range(0, n, step):
        rows = D[lo:lo + step]
        if not (rows >= 0.0).all():
            raise DataError("distances must be nonnegative and not NaN; features must be finite")
        r[lo:lo + step] = _stable_ranks(rows)
    best = np.empty(m, dtype=np.int64)
    step = chunk_length(n)
    for lo in range(0, m, step):
        best[lo:lo + step] = _match_columns(D[:, lo:lo + step], r[:, lo:lo + step])
    return best


def _match_columns(D, r) -> np.ndarray:
    """reciprocal_match of an n x w column chunk of D, given its row ranks r."""
    Dt = np.ascontiguousarray(D.T)
    best = Dt.argmin(axis=1)
    bound = r[best, np.arange(len(best))]
    # The columns in which some row could beat or tie the nearest one.
    open_ = np.flatnonzero((r <= bound // 2).any(axis=0))
    if open_.size:
        product = r[:, open_].T.astype(np.int64) * _stable_ranks(Dt[open_])
        best[open_] = product.argmin(axis=1)
    return best


# Width of the packed int64 keys in the near-tie re-sort.  Blocks beyond
# what one key can number are sorted in several parts.
_KEY_BITS = 63


def _stable_ranks(V) -> np.ndarray:
    """1-based rank of each entry within its row of V, ties by column (int32)."""
    order = _stable_row_order(V)
    ranks = np.empty(V.shape, dtype=np.int32)
    ranks.ravel()[order] = np.arange(1, V.shape[1] + 1, dtype=np.int32)
    return ranks


def _stable_row_order(V) -> np.ndarray:
    """Flat indices of V that list each row in stable ascending order.

    V is C-contiguous, non-negative and NaN-free, so the int64 view of a
    value orders like the value.  Each row is sorted once as int64 keys:
    the value's bits with the low b bits replaced by the column index
    (m <= 2**b).  Equal values share every kept bit, so exact ties come
    out in column order.  Values that differ only in the dropped bits
    form a block of equal keys' high bits and come out in column order
    too, which can put a larger value first; only blocks that show such
    a descent are sorted again.
    """
    n, m = V.shape
    b = (m - 1).bit_length()
    low = (1 << b) - 1
    order = V.view(np.int64) & ~low
    order |= np.arange(m)
    order.sort(axis=1)
    order &= low
    order += (np.arange(n) * m)[:, None]
    values = V.ravel()[order]
    descent = np.zeros((n, m), dtype=bool)
    np.less(values[:, 1:], values[:, :-1], out=descent[:, 1:])
    rows = np.flatnonzero(descent.any(axis=1))
    if rows.size:
        values, descent = values[rows], descent[rows]
        _resort_near_ties(order, values, descent, rows, b)
    return order


def _resort_near_ties(order, values, descent, rows, b) -> None:
    """Sort by (value, column), in place in ``order``, each key block with a descent.

    ``values`` and ``descent`` hold the listed ``rows`` of the sorted
    values and of their descent flags.  Within a block the values agree
    above the low b bits, so the packed key (block number, low bits,
    column) orders it exactly.
    """
    k, m = values.shape
    low = (1 << b) - 1
    bits = values.view(np.int64).ravel()
    # Block bounds: row starts, changes above the low bits, and the end.
    start = np.ones(k * m + 1, dtype=bool)
    np.greater(bits[1:] ^ bits[:-1], low, out=start[1:-1])
    start[:-1:m] = True
    bounds = np.flatnonzero(start)
    block = np.searchsorted(bounds, np.flatnonzero(descent), side="right") - 1
    block = block[np.diff(block, prepend=-1) > 0]
    # Positions of every entry of those blocks, each labelled 0, 1, ... by block.
    first, sizes = bounds[block], bounds[block + 1] - bounds[block]
    label = np.repeat(np.arange(block.size), sizes)
    pos = np.arange(label.size) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
    row_start = rows[pos // m] * m
    where = row_start + pos % m
    span = 1 << (_KEY_BITS - 2 * b)
    key = (label & (span - 1)) << (2 * b)
    key |= (bits[pos] & low) << b
    key |= order.ravel()[where] - row_start
    for part in np.split(key, np.searchsorted(label, np.arange(span, block.size, span))):
        part.sort()
    key &= low
    key += row_start
    order.ravel()[where] = key


def accuracy(model: SvmModel, X, y) -> float:
    predictions = model.predict(X)
    return float(np.mean(predictions == np.asarray(y, dtype=float)))


def cross_validate(X, y, sigma_grid, C_grid, folds: int, seed: int,
                   config_template: SolverConfig, freeze_f: bool = False):
    """Grid-search (sigma, C) by mean k-fold accuracy (see :func:`_grid_search`).

    Returns (best_sigma, best_C, table) where table rows are
    (sigma, C, mean_accuracy).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def fit_score(rows, held, sigma, C):
        model = train(X[rows], y[rows], sigma, replace(config_template, C=C, eta=None),
                      freeze_f=freeze_f)
        return accuracy(model, X[held], y[held])

    return _grid_search(len(y), sigma_grid, C_grid, folds, seed, fit_score)


def _grid_search(n: int, sigma_grid, C_grid, folds: int, seed: int, fit_score,
                 lower_is_better: bool = False):
    """Grid-search (sigma, C) by the mean score over k folds of range(n).

    ``fit_score(rows, held, sigma, C)`` fits a model on the rows where the
    boolean mask ``rows`` is set and scores it on the indices ``held``.  A
    fold that raises DataError (a single-class training fold, or constant
    held-out targets) is skipped; a cell with no fold left scores 0, or
    +inf when lower is better.  Ties break toward smaller C, then larger
    sigma (the smoother model).  Returns (best_sigma, best_C, table) where
    table rows are (sigma, C, mean score).
    """
    sign = -1.0 if lower_is_better else 1.0
    fold_indices = kfold(n, folds, seed)
    table = []
    for sigma in sigma_grid:
        for C in C_grid:
            scores = []
            for held in fold_indices:
                rows = np.ones(n, dtype=bool)
                rows[held] = False
                try:
                    scores.append(fit_score(rows, held, float(sigma), float(C)))
                except DataError:
                    continue
            worst = np.inf if lower_is_better else 0.0
            table.append((float(sigma), float(C), float(np.mean(scores)) if scores else worst))
    best = max(table, key=lambda row: (sign * row[2], -row[1], row[0]))
    return best[0], best[1], table
