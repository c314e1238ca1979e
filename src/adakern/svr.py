"""Regression wrapper: the adaptive kernel inside epsilon-insensitive SVR.

The SVR dual is the two-block case of the solver's one dual form: signs
u = [1; -1] on z = [hat; check], offset -epsilon and targets y.
"""

from dataclasses import dataclass, field

import numpy as np

from .adaptive import AdaptiveMatrix
from .data import Scaler, apply_minmax, fit_minmax, inverse_minmax
from .errors import DataError, ParameterError
from .kernel import gaussian_gram
from .solver import (
    SolverConfig,
    _at_point,
    _check_feasible,
    _check_psd_gram,
    _dual_form,
    _solve,
    resolve_eta,
)
from .svm import _expansion, _solved_model, _training_inputs

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
        z = np.concatenate([self.alpha_hat, self.alpha_check])
        _check_feasible(z, self.difference, C, "dual pair")

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


def _stacked(alpha_hat, alpha_check, y):
    """([hat; check], y) for the public value functions, which check the lengths."""
    alpha_hat, alpha_check, y = (np.asarray(v, dtype=float) for v in (alpha_hat, alpha_check, y))
    if not alpha_hat.shape == alpha_check.shape == y.shape:
        raise DataError("dual vectors and targets must have equal lengths")
    return np.concatenate([alpha_hat, alpha_check]), y


def svr_objective(alpha_hat, alpha_check, y, K, epsilon: float, config: SolverConfig) -> float:
    """Value function of the outer maximization at the optimal F."""
    z, y = _stacked(alpha_hat, alpha_check, y)
    return _at_point(z, K, config, y, epsilon)[1]


def svr_gradients(alpha_hat, alpha_check, K, y, epsilon: float, config: SolverConfig):
    """Partial derivatives of the value function in both dual blocks.

    g_hat = -eps 1 - (F o K)(hat - check) + y and g_check = -g_hat - 2 eps 1,
    with F held at its optimum for the current point.
    """
    z, y = _stacked(alpha_hat, alpha_check, y)
    g = _at_point(z, K, config, y, epsilon)[0]
    return g[:y.size], g[y.size:]


def lipschitz_svr(n: int, C: float, K, eta: float) -> float:
    """Gradient-Lipschitz constant 2 (n + 9 n C^2 ||K||_F^2 / (4 eta))."""
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    K = np.asarray(K, dtype=float)
    fro_sq = float((K * K).sum())
    return 2.0 * (n + 9.0 * n * C * C * fro_sq / (4.0 * eta))


def solve_svr(K, y, config: SolverConfig, epsilon: float, freeze_f: bool = False):
    """Accelerated projected-gradient solve of the paired SVR dual.

    The classifier's solve (:func:`solver._solve`) on [hat; check], with
    ascent step 1/(2L) and dual-averaging step 1/(4L), stopping when the
    step of hat - check drops to ``tol`` or at t_max.  K is as for
    :func:`solver.solve` (DataError otherwise); epsilon must be nonnegative
    and finite (ParameterError otherwise).  Returns (SvrDualState, F,
    SolveTrace).
    """
    z, F, trace = _solve(K, *_dual_form(y, epsilon), config, freeze_f, lipschitz_svr)
    n = z.size // 2
    return SvrDualState(alpha_hat=z[:n], alpha_check=z[n:], epsilon=epsilon), F, trace


def train_svr(X, y, sigma: float, config: SolverConfig, epsilon: float = DEFAULT_EPSILON,
              freeze_f: bool = False) -> SvrModel:
    """Fit the adaptive-kernel SVR.

    Features and targets are both min-max scaled to [0, 1]; the tube width
    epsilon applies in the scaled target space.  eta is resolved as for
    the classifier (:func:`solver.resolve_eta` on the SVR dual), and the
    bias, F and ``meta`` are kept as the classifier keeps them
    (:func:`svm._solved_model`, with u = [1; -1] on z = [hat; check]).
    """
    y, scaler, Xs = _training_inputs(X, y, sigma, classes=False)
    y_scaler = fit_minmax(y[:, None])
    ys = apply_minmax(y_scaler, y[:, None])[:, 0]
    u = _dual_form(ys, epsilon)[0]  # checks epsilon before the kernel is built
    gram = _check_psd_gram(gaussian_gram(Xs, sigma))
    if not freeze_f:
        config = resolve_eta(gram, ys, config, epsilon=epsilon)

    state, F, trace = solve_svr(gram, ys, config, epsilon, freeze_f=freeze_f)
    z = np.concatenate([state.alpha_hat, state.alpha_check])
    bias, adaptive, meta = _solved_model(state, F, trace, u, z, Xs, sigma, config)
    meta["complementarity_gap"] = state.complementarity_gap()
    return SvrModel(
        X=Xs, y=ys, alpha_hat=state.alpha_hat, alpha_check=state.alpha_check,
        adaptive=adaptive, bias=bias, sigma=sigma, epsilon=epsilon, config=config,
        scaler=scaler, y_scaler=y_scaler, meta=meta,
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
