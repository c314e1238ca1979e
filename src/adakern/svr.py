"""Regression wrapper: the adaptive kernel inside epsilon-insensitive SVR."""

from dataclasses import dataclass, field

import numpy as np

from .adaptive import AdaptiveMatrix
from .data import Scaler, apply_minmax, fit_minmax, inverse_minmax
from .errors import DataError, ParameterError
from .kernel import gaussian_gram
from .solver import (
    SolverConfig,
    _ascend,
    _at_point,
    _check_psd_gram,
    _setup,
    project_exact,
    resolve_eta,
)
from .svm import _expansion, _kkt_bias, _model_meta, _solved_form, _training_inputs

DEFAULT_EPSILON = 0.1


@dataclass
class SvrDualState:
    """Paired dual vectors with the tube width."""

    alpha_hat: np.ndarray
    alpha_check: np.ndarray
    epsilon: float

    @property
    def difference(self) -> np.ndarray:
        return self.alpha_hat - self.alpha_check

    def validate(self, C: float) -> None:
        for name, a in (("alpha_hat", self.alpha_hat), ("alpha_check", self.alpha_check)):
            if np.any(a < 0) or np.any(a > C):
                raise DataError(f"{name} violates the box [0, C]")
        w = self.difference
        residual = abs(float(w.sum()))
        if residual > 1e-6 * max(1.0, float(np.linalg.norm(w))):
            raise DataError(
                f"dual pair violates the equality constraint: |1'(hat-check)| = {residual:.3e}"
            )

    def complementarity_gap(self) -> float:
        """max_i min(hat_i, check_i); encouraged small, not enforced."""
        both = np.minimum(self.alpha_hat, self.alpha_check)
        return float(both.max()) if both.size else 0.0


@dataclass
class SvrModel:
    """As :class:`svm.SvmModel`, with the paired duals and the target scaler."""

    X: np.ndarray
    y: np.ndarray
    alpha_hat: np.ndarray
    alpha_check: np.ndarray
    adaptive: AdaptiveMatrix
    bias: float
    sigma: float
    epsilon: float
    config: SolverConfig
    scaler: Scaler
    y_scaler: Scaler
    meta: dict = field(default_factory=dict)

    @property
    def F(self) -> np.ndarray:
        return self.adaptive.dense()

    def predict(self, X_test) -> np.ndarray:
        scaled = _expansion(self, self.alpha_hat - self.alpha_check, X_test)
        return inverse_minmax(self.y_scaler, scaled[:, None])[:, 0]


def _svr_oracle(y, epsilon: float, term):
    """The paired dual's oracle on the stacked z = [hat; check], from one adaptive term.

    z -> (gradient, value); the gradient blocks are -eps 1 - q + y and
    -eps 1 + q - y with q = (F o K)(hat - check), which ``term`` gives at
    the prox weights hat - check.
    """
    n = y.size

    def evaluate(z, warm=True):
        ah, ac = z[:n], z[n:]
        w = ah - ac
        base = float(w @ y) - epsilon * float(np.sum(ah + ac))
        q, h = term(w, base, warm)
        return np.concatenate([-epsilon - q + y, -epsilon + q - y]), h

    return evaluate


def _stacked(alpha_hat, alpha_check, y) -> np.ndarray:
    """[hat; check] for the public value functions, which check the lengths."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    alpha_check = np.asarray(alpha_check, dtype=float)
    if not alpha_hat.shape == alpha_check.shape == y.shape:
        raise DataError("dual vectors and targets must have equal lengths")
    return np.concatenate([alpha_hat, alpha_check])


def svr_objective(alpha_hat, alpha_check, y, K, epsilon: float,
                  config: SolverConfig, freeze_f: bool = False) -> float:
    """Value function of the outer maximization at the optimal F."""
    y = np.asarray(y, dtype=float)
    z = _stacked(alpha_hat, alpha_check, y)
    return _at_point(_svr_oracle, z, K, config, freeze_f, y, epsilon)[1]


def svr_gradients(alpha_hat, alpha_check, K, y, epsilon: float,
                  config: SolverConfig, freeze_f: bool = False):
    """Partial derivatives of the value function in both dual blocks.

    g_hat = -eps 1 - (F o K)(hat - check) + y and g_check = -g_hat - 2 eps 1,
    with F held at its optimum for the current point.
    """
    y = np.asarray(y, dtype=float)
    z = _stacked(alpha_hat, alpha_check, y)
    g = _at_point(_svr_oracle, z, K, config, freeze_f, y, epsilon)[0]
    return g[:y.size], g[y.size:]


def lipschitz_svr(n: int, C: float, K, eta: float) -> float:
    """Gradient-Lipschitz constant 2 (n + 9 n C^2 ||K||_F^2 / (4 eta))."""
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    K = np.asarray(K, dtype=float)
    fro_sq = float((K * K).sum())
    return 2.0 * (n + 9.0 * n * C * C * fro_sq / (4.0 * eta))


def solve_svr(K, y, config: SolverConfig, epsilon: float,
              freeze_f: bool = False, record_iterates: bool = False):
    """Accelerated projected-gradient solve of the paired SVR dual.

    Runs the classifier's loop (:func:`solver._ascend`) on the concatenated
    state [hat; check] with ascent step 1/(2L) and dual-averaging step
    1/(4L); the feasible set is the box on both blocks plus the equality
    constraint on the difference.  Stops when the step of hat - check
    drops to ``tol`` or at t_max.  K must be symmetric and PSD, or the
    :class:`solver._PsdGram` of such a K, as for the classifier solver
    (DataError otherwise); the adaptive matrix comes
    from the same adaptive term (:func:`solver._adaptive_term`).  epsilon
    must be nonnegative and finite (ParameterError otherwise).  Returns
    (SvrDualState, F, SolveTrace).
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DataError("targets contain non-finite values")
    if not 0 <= epsilon < np.inf:
        raise ParameterError(f"epsilon must be nonnegative and finite, got {epsilon}")
    n = y.size
    L, trace, term, final = _setup(K, n, config, freeze_f, lipschitz_svr)
    # The loop steps by 1/L and the paired dual by 1/(2L), for its stacked
    # constant L: lipschitz_svr, the pgd constant, or 2 ||K||_F with F frozen.
    L *= 4.0 if freeze_f else 2.0
    # +-1 constraint vector: equality 1'(hat - check) = 0 on the stacked state.
    u = np.concatenate([np.ones(n), -np.ones(n)])
    evaluate = _svr_oracle(y, epsilon, term)

    def proj(z):
        return project_exact(z, u, config.C)

    def weights(z):
        return z[:n] - z[n:]

    z = _ascend(evaluate, proj, L, weights, 2 * n, config, trace, record_iterates)
    state = SvrDualState(alpha_hat=z[:n], alpha_check=z[n:], epsilon=epsilon)
    return state, final(), trace


def train_svr(X, y, sigma: float, config: SolverConfig, epsilon: float = DEFAULT_EPSILON,
              freeze_f: bool = False) -> SvrModel:
    """Fit the adaptive-kernel SVR.

    Features and targets are both min-max scaled to [0, 1]; the tube width
    epsilon applies in the scaled target space.  eta is resolved as for
    the classifier (:func:`solver.resolve_eta` on the SVR dual).
    """
    y, scaler, Xs = _training_inputs(X, y, sigma, classes=False)
    y_scaler = fit_minmax(y[:, None])
    ys = apply_minmax(y_scaler, y[:, None])[:, 0]
    gram = _check_psd_gram(gaussian_gram(Xs, sigma))
    if not freeze_f:
        config = resolve_eta(gram, ys, config, epsilon=epsilon)

    state, F, trace = solve_svr(gram, ys, config, epsilon, freeze_f=freeze_f)
    state.validate(config.C)
    # u o g = [y - g0 - eps; y - g0 + eps] with g0 = (F o K)(hat - check):
    # the hat and check blocks bound the bias as labels +1 and -1 do.
    u = np.repeat([1.0, -1.0], ys.size)
    bias = _kkt_bias(u * trace.gradient, u, np.concatenate([state.alpha_hat, state.alpha_check]),
                     config.C)
    w = state.difference
    meta = _model_meta([trace], F, trace.factor, w, trace.objective_history[-1])
    meta["complementarity_gap"] = state.complementarity_gap()
    return SvrModel(
        X=Xs, y=ys, alpha_hat=state.alpha_hat, alpha_check=state.alpha_check,
        adaptive=_solved_form(trace, Xs, w, sigma, config.eta), bias=bias, sigma=sigma,
        epsilon=epsilon, config=config, scaler=scaler, y_scaler=y_scaler, meta=meta,
    )


def rmse(predictions, targets) -> float:
    """Relative mean square error: residual energy over centered target energy."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise DataError("predictions and targets have different lengths")
    centered = targets - targets.mean()
    denom = float(centered @ centered)
    if denom <= 0.0:
        raise DataError("relative error is undefined for constant targets")
    residual = predictions - targets
    return float(residual @ residual) / denom
