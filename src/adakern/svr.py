"""Regression wrapper: the adaptive kernel inside epsilon-insensitive SVR."""

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Scaler, apply_minmax, fit_minmax, inverse_minmax
from .errors import DataError, ParameterError
from .kernel import gaussian_gram
from .linalg import SpectralProx
from .solver import (
    SolverConfig,
    SolveTrace,
    _adaptive_prox,
    _check_psd_gram,
    _eta_for_frozen,
    _evaluate,
    _final_matrix,
    _pgd_constant,
    _prox_for,
    _prox_sequence,
    _require_eta,
    project_exact,
)
from .svm import _expansion

_MARGIN_RTOL = 1e-6


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
    X: np.ndarray
    y: np.ndarray
    alpha_hat: np.ndarray
    alpha_check: np.ndarray
    F: np.ndarray
    bias: float
    sigma: float
    epsilon: float
    config: SolverConfig
    scaler: Scaler
    y_scaler: Scaler
    meta: dict = field(default_factory=dict)
    W: np.ndarray | None = None

    def predict(self, X_test) -> np.ndarray:
        scaled = _expansion(self, self.alpha_hat - self.alpha_check, X_test)
        return inverse_minmax(self.y_scaler, scaled[:, None])[:, 0]


def svr_weighted_gram(alpha_hat, alpha_check, K, eta: float) -> np.ndarray:
    """diag(hat - check) K diag(hat - check) / (4 eta)."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    alpha_check = np.asarray(alpha_check, dtype=float)
    if alpha_hat.shape != alpha_check.shape:
        raise DataError("dual vectors must have equal lengths")
    K = np.asarray(K, dtype=float)
    if K.shape[0] != alpha_hat.shape[0]:
        raise DataError("dual vectors and kernel matrix have inconsistent sizes")
    w = alpha_hat - alpha_check
    return (K * np.outer(w, w)) / (4.0 * eta)


def svr_adaptive_matrix(alpha_hat, alpha_check, K, tau: float, eta: float) -> np.ndarray:
    return svr_adaptive_spectrum(alpha_hat, alpha_check, K, tau, eta).matrix


def svr_adaptive_spectrum(alpha_hat, alpha_check, K, tau, eta,
                          lam_min_K: float = 0.0) -> SpectralProx:
    """Soft-threshold of 11' + svr_weighted_gram at tau/2; K must be PSD.

    ``lam_min_K`` is the smallest eigenvalue of K when round-off puts it
    slightly below zero.
    """
    return _adaptive_prox(_weights(alpha_hat, alpha_check), K, tau, eta, lam_min_K)


def _weights(alpha_hat, alpha_check) -> np.ndarray:
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    alpha_check = np.asarray(alpha_check, dtype=float)
    if alpha_hat.shape != alpha_check.shape:
        raise DataError("dual vectors must have equal lengths")
    return alpha_hat - alpha_check


def _svr_terms(alpha_hat, alpha_check, y, K, epsilon, config, freeze_f):
    """(F o K)(hat - check) and the value, from one prox."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    alpha_check = np.asarray(alpha_check, dtype=float)
    y = np.asarray(y, dtype=float)
    K = np.asarray(K, dtype=float)
    w = _weights(alpha_hat, alpha_check)
    prox, eta = _prox_for(w, K, config, freeze_f)
    base = float(w @ y) - epsilon * float(np.sum(alpha_hat + alpha_check))
    return _evaluate(prox, K, w, base, config.tau, eta)


def svr_objective(alpha_hat, alpha_check, y, K, epsilon: float,
                  config: SolverConfig, freeze_f: bool = False) -> float:
    """Value function of the outer maximization at the optimal F."""
    return _svr_terms(alpha_hat, alpha_check, y, K, epsilon, config, freeze_f)[1]


def svr_gradients(alpha_hat, alpha_check, K, y, epsilon: float,
                  config: SolverConfig, freeze_f: bool = False):
    """Partial derivatives of the value function in both dual blocks.

    g_hat = -eps 1 - (F o K)(hat - check) + y and g_check = -g_hat - 2 eps 1,
    with F held at its optimum for the current point.
    """
    q = _svr_terms(alpha_hat, alpha_check, y, K, epsilon, config, freeze_f)[0]
    y = np.asarray(y, dtype=float)
    return -epsilon - q + y, -epsilon + q - y


def lipschitz_svr(n: int, C: float, K, eta: float) -> float:
    """Gradient-Lipschitz constant 2 (n + 9 n C^2 ||K||_F^2 / (4 eta))."""
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    K = np.asarray(K, dtype=float)
    fro_sq = float((K * K).sum())
    return 2.0 * (n + 9.0 * n * C * C * fro_sq / (4.0 * eta))


def lipschitz_svr_pgd(n: int, C: float, K, eta: float, tau: float) -> float:
    """Step constant for the plain projected-gradient variant.

    The stacked-dual Hessian is [[Q, -Q], [-Q, Q]] with Q = F o K, whose
    norm is 2 lam_max(Q) <= 2 lam_max(F) (unit-diagonal K), so the spectral
    bound on the adaptive matrix doubles into a valid step constant.
    """
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    lam_max = float(np.linalg.eigvalsh(np.asarray(K, dtype=float))[-1])
    return 2.0 * _pgd_constant(n, C, lam_max, eta, tau)


def solve_svr(K, y, config: SolverConfig, epsilon: float,
              freeze_f: bool = False, record_iterates: bool = False):
    """Accelerated projected-gradient solve of the paired SVR dual.

    Works on the concatenated state [hat; check] with ascent step 1/(2L)
    and dual-averaging step 1/(4L); the feasible set is the box on both
    blocks plus the equality constraint on the difference.  Stops when the
    step of hat - check drops to ``tol`` or at t_max.  K must be PSD, as
    for the classifier solver (DataError otherwise); the adaptive matrix
    comes from the same spectral prox.  Returns (SvrDualState, F,
    SolveTrace).
    """
    K, lam_min_K, lam_max_K = _check_psd_gram(K)
    y = np.asarray(y, dtype=float)
    n = y.size
    if K.shape != (n, n):
        raise DataError("kernel matrix and targets have inconsistent sizes")
    if not np.all(np.isfinite(y)):
        raise DataError("targets contain non-finite values")
    if epsilon < 0:
        raise ParameterError(f"epsilon must be nonnegative, got {epsilon}")
    C, tau = config.C, config.tau

    trace = SolveTrace()
    if tau >= 2 * n:
        trace.warnings.append(
            f"tau = {tau} >= 2n = {2 * n}: the adaptive matrix may collapse to zero"
        )

    if freeze_f:
        L = 2.0 * float(np.linalg.norm(K))
        eta = _eta_for_frozen(config)
    elif config.variant == "pgd":
        L = _pgd_constant(n, C, lam_max_K, _require_eta(config), tau)
        eta = config.eta
    else:
        L = lipschitz_svr(n, C, K, _require_eta(config))
        eta = config.eta

    # +-1 constraint vector: equality 1'(hat - check) = 0 on the stacked state.
    u = np.concatenate([np.ones(n), -np.ones(n)])

    def proj(z):
        return project_exact(z, u, C)

    prox_at = _prox_sequence(K, tau, eta, lam_min_K, trace, freeze_f)

    def evaluate(z):
        ah, ac = z[:n], z[n:]
        w = ah - ac
        base = float(w @ y) - epsilon * float(np.sum(ah + ac))
        q, h = _evaluate(prox_at(w), K, w, base, tau, eta)
        g = np.concatenate([-epsilon - q + y, -epsilon + q - y])
        return g, h

    def objective(z):
        return evaluate(z)[1]

    if record_iterates:
        trace.iterates = {"alpha": [], "theta": [], "beta": []}

    z = np.zeros(2 * n)
    z0 = z.copy()
    grad_sum = np.zeros(2 * n)
    beta = None
    theta = None
    h_theta = -np.inf
    diff_prev = np.zeros(n)
    moved = False

    for t in range(config.t_max):
        g, h_here = evaluate(z)

        if config.variant == "pgd":
            trace.objective_history.append(h_here)
            z_next = proj(z + g / (2.0 * L))
        else:
            theta_tilde = proj(z + g / (2.0 * L))
            if config.variant == "monotone-nesterov":
                h_tilde = objective(theta_tilde)
                candidates = [(h_tilde, theta_tilde), (h_here, z)]
                if theta is not None:
                    candidates.append((h_theta, theta))
                h_theta, theta = max(candidates, key=lambda c: c[0])
                trace.objective_history.append(h_theta)
            else:
                theta = theta_tilde
                trace.objective_history.append(h_here)
            grad_sum += (t + 1) * g
            beta = proj(z0 + grad_sum / (4.0 * L))
            z_next = ((t + 1) * theta + 2.0 * beta) / (t + 3.0)

        diff = z_next[:n] - z_next[n:]
        step = float(np.linalg.norm(diff - diff_prev))
        trace.alpha_step_history.append(step)
        if record_iterates:
            trace.iterates["alpha"].append(z_next.copy())
            if config.variant != "pgd":
                trace.iterates["theta"].append(np.asarray(theta).copy())
                trace.iterates["beta"].append(beta.copy())
        diff_prev = diff
        z = z_next
        trace.iterations = t + 1
        # Warmup steps can sit far below tol; see the classifier loop.
        moved = moved or step > config.tol
        if moved and step <= config.tol:
            trace.terminated_by = "tolerance"
            break
    else:
        trace.terminated_by = "max_iter"

    if config.variant != "monotone-nesterov":
        trace.objective_history.append(objective(z))
    trace.final_beta = None if beta is None else beta.copy()

    ah, ac = z[:n], z[n:]
    state = SvrDualState(alpha_hat=ah, alpha_check=ac, epsilon=epsilon)
    return state, _final_matrix(prox_at, ah - ac, trace), trace


def recover_bias_svr(alpha_hat, alpha_check, y, F, K, C: float, epsilon: float) -> float:
    """Bias from tube-edge support points; interval midpoint as fallback."""
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    alpha_check = np.asarray(alpha_check, dtype=float)
    y = np.asarray(y, dtype=float)
    g0 = (np.asarray(F) * np.asarray(K)) @ (alpha_hat - alpha_check)
    lo_cut, hi_cut = _MARGIN_RTOL * C, (1.0 - _MARGIN_RTOL) * C

    estimates = []
    up = (alpha_hat > lo_cut) & (alpha_hat < hi_cut)
    dn = (alpha_check > lo_cut) & (alpha_check < hi_cut)
    estimates.extend(y[up] - g0[up] - epsilon)
    estimates.extend(y[dn] - g0[dn] + epsilon)
    if estimates:
        return float(np.median(estimates))

    lowers, uppers = [], []
    for i in range(len(y)):
        if alpha_hat[i] <= lo_cut:
            lowers.append(y[i] - g0[i] - epsilon)
        if alpha_hat[i] >= hi_cut:
            uppers.append(y[i] - g0[i] - epsilon)
        if alpha_check[i] <= lo_cut:
            uppers.append(y[i] - g0[i] + epsilon)
        if alpha_check[i] >= hi_cut:
            lowers.append(y[i] - g0[i] + epsilon)
    if lowers and uppers:
        return 0.5 * (max(lowers) + min(uppers))
    if lowers:
        return float(max(lowers))
    if uppers:
        return float(min(uppers))
    return 0.0


def train_svr(X, y, sigma: float, config: SolverConfig, epsilon: float = 0.1,
              freeze_f: bool = False) -> SvrModel:
    """Fit the adaptive-kernel SVR.

    Features and targets are both min-max scaled to [0, 1]; the tube width
    epsilon applies in the scaled target space.  eta resolution mirrors the
    classifier: ||hat - check||^2 of a preliminary frozen-F solve, with
    0.1 C^2 as the degenerate fallback.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError("X and y have inconsistent shapes")
    if X.shape[0] < 2:
        raise DataError("need at least 2 training points")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("training data contain non-finite values")
    if not sigma > 0:
        raise ParameterError(f"kernel width sigma must be positive, got {sigma}")

    scaler = fit_minmax(X)
    Xs = apply_minmax(scaler, X)
    y_scaler = fit_minmax(y[:, None])
    ys = apply_minmax(y_scaler, y[:, None])[:, 0]
    K = gaussian_gram(Xs, sigma)

    if not freeze_f and config.eta is None:
        prelim = replace(config, tau=0.0, eta=None, variant="nesterov")
        state, _, _ = solve_svr(K, ys, prelim, epsilon, freeze_f=True)
        w = state.difference
        eta = float(w @ w)
        if eta <= 1e-12:
            eta = 0.1 * config.C * config.C
        config = replace(config, eta=eta)

    state, F, trace = solve_svr(K, ys, config, epsilon, freeze_f=freeze_f)
    state.validate(config.C)
    bias = recover_bias_svr(state.alpha_hat, state.alpha_check, ys, F, K,
                            config.C, epsilon)
    meta = {
        "iterations": trace.iterations,
        "objective": trace.objective_history[-1] if trace.objective_history else float("nan"),
        "terminated_by": trace.terminated_by,
        "complementarity_gap": state.complementarity_gap(),
        "prox_fallbacks": trace.prox_fallbacks,
        "prox_rank": trace.prox_rank,
        "warnings": list(trace.warnings),
    }
    return SvrModel(
        X=Xs, y=ys, alpha_hat=state.alpha_hat, alpha_check=state.alpha_check,
        F=F, bias=bias, sigma=sigma, epsilon=epsilon, config=config,
        scaler=scaler, y_scaler=y_scaler, meta=meta, W=trace.factor,
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
