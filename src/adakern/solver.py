"""Saddle-point solver for the adaptive-kernel SVM and SVR duals.

The model learns an entry-wise multiplier F on a fixed Gram matrix K by
solving one dual form for both tasks:

    max_{z in Z} min_{F PSD}  offset 1'(block sum of z) + w'targets
                              - 1/2 w'(F o K)w + eta ||F - 11'||_F^2 + tau*eta ||F||_*

z holds one block of n duals per sign block of u, the prox weights w
are the block sum of u o z, and Z is the box [0, C] with u'z = 0.  The
classifier has u = y, offset 1, targets 0 and one block (w = y o a);
the SVR has u = [1; -1], offset -epsilon, targets y and the blocks
[hat; check] (w = hat - check).  F(w), the inner minimizer, is the
eigenvalue soft-threshold of 11' + G(w), G(w) = diag(w) K diag(w)/(4 eta).
The outer problem maximizes the concave value function h(z), whose
envelope gradient is offset - u o [q; ...] + u o [targets; ...] with
q = (F(w) o K) w, by projected gradient ascent with optional Nesterov
acceleration: one oracle (:func:`_dual_oracle`) and one solve
(:func:`_solve`) for both tasks.  The solve owns the loop and the step
rule, 1/L for L from :func:`lipschitz_svm`, :func:`lipschitz_svr` or the
pgd constant.

11' + G(w) is PSD.  At tau = 0 the threshold is the identity and F(w) is
11' + G(w) itself; the gradient and value then come in closed form from
two products with K and K o K, and F is formed once, after the loop.  For
tau > 0, F(w) is kept as its factor W (n x r, F = W W') from
:func:`linalg.gram_soft_threshold`, which computes only the eigenpairs
above tau/2, after a trace test certifies that no others exceed it, by
products with K alone; each call starts from the leading Ritz vectors
that the test of the call before needed, and a dense eigendecomposition
is the fallback when the test does not pass.  The gradient and value
then come from W in O(n^2 r), so neither G(w) nor F(w) is formed inside
the loop; the solve returns F = W W' once, at the end.  The eigenvalues
of K, taken once per solve by the check that K is symmetric and PSD,
give the test's margin and the pgd step constant.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParameterError
from .linalg import SpectralProx, gram_soft_threshold

VARIANTS = ("nesterov", "pgd", "monotone-nesterov")


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of one solve.

    ``eta=None`` means "resolve automatically"; the training wrappers
    replace it by :func:`resolve_eta` before the solver itself runs.
    """

    C: float
    tau: float = 0.01
    eta: float | None = None
    t_max: int = 2000
    tol: float = 1e-4
    variant: str = "nesterov"

    def __post_init__(self):
        if not 0 < self.C < np.inf:
            raise ParameterError(f"C must be positive and finite, got {self.C}")
        if not 0 <= self.tau < np.inf:
            raise ParameterError(f"tau must be nonnegative and finite, got {self.tau}")
        if self.eta is not None and not 0 < self.eta < np.inf:
            raise ParameterError(f"eta must be positive and finite, got {self.eta}")
        if self.t_max < 1:
            raise ParameterError(f"t_max must be at least 1, got {self.t_max}")
        if not self.tol > 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if self.variant not in VARIANTS:
            raise ParameterError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )


@dataclass
class DualState:
    """Dual vector with its labels and feasibility checks."""

    alpha: np.ndarray
    y: np.ndarray

    def validate(self, C: float) -> None:
        _check_feasible(self.alpha, self.y * self.alpha, C, "dual vector")


def _check_feasible(z, w, C: float, what: str) -> None:
    """Raise DataError unless the duals z lie in the box [0, C] and their prox weights w sum to 0.

    The one check of both dual states: w is y o a, or hat - check.
    """
    if np.any(z < 0) or np.any(z > C):
        raise DataError(f"{what} violates the box [0, C]")
    residual = abs(float(w.sum()))
    if residual > 1e-6 * max(1.0, float(np.linalg.norm(w))):
        raise DataError(f"{what} violates the equality constraint: |1'w| = {residual:.3e}")


@dataclass
class SolveTrace:
    """Per-solve diagnostics.

    ``objective_history`` has ``iterations + 1`` entries, the value at the
    returned duals last.  For the nesterov and pgd variants they are
    h(z^(t)) for t = 0..iterations; for the monotone variant, the carried
    h(theta^(t)) for t < iterations, then the larger of the last carried
    value and h(z^(T)) at the last iterate: the value of the point returned.
    ``prox_fallbacks`` counts the spectral prox calls that fell back to
    the dense eigendecomposition, ``prox_rank`` is the largest number of
    eigenpairs one call kept, and ``prox_steps`` sums the calls'
    eigendecompositions (:attr:`linalg.SpectralProx.steps`); all three
    stay 0 at tau = 0 and with F frozen.  ``factor`` is W with F = W W'
    for the returned F, None when F is not factored (tau = 0).
    ``gradient`` is the envelope gradient at the returned duals, from the
    solve's last evaluation, which also gives the returned F and, unless
    monotone-nesterov returns its carried theta, the last entry of
    ``objective_history``.
    """

    iterations: int = 0
    objective_history: list = field(default_factory=list)
    terminated_by: str = "max_iter"
    warnings: list = field(default_factory=list)
    prox_fallbacks: int = 0
    prox_rank: int = 0
    prox_steps: int = 0
    factor: np.ndarray | None = None
    gradient: np.ndarray | None = None

    def record_prox(self, prox: SpectralProx) -> None:
        self.prox_fallbacks += int(prox.dense)
        self.prox_rank = max(self.prox_rank, prox.rank)
        self.prox_steps += prox.steps


def _adaptive_prox(w, K, tau: float, eta: float, lam_min_K: float = 0.0,
                   start=None) -> SpectralProx:
    """Soft-threshold of 11' + diag(w) K diag(w) / (4 eta) at tau/2 > 0, as its factor.

    The factor comes from :func:`linalg.gram_soft_threshold`, which never
    forms the matrix on its certified path and starts from ``start`` when
    it is given.  The smallest eigenvalue of the weighted Gram part is at
    least min(0, lam_min(K)) max_i w_i^2 / (4 eta), the floor its test
    needs.
    """
    floor = min(0.0, lam_min_K) * float(np.max(w * w, initial=0.0)) / (4.0 * eta)
    return gram_soft_threshold(K, w, 1.0 / (4.0 * eta), 0.5 * tau, floor, start)


def _adaptive_term(K, tau: float, eta: float, lam_min_K: float, trace: SolveTrace,
                   freeze_f: bool):
    """The adaptive part of one solve's oracle, and F at its end: (term, final).

    ``term(w, base, warm=True)`` gives (F(w) o K) w and the value
    base - w'(F o K)w / 2 + eta ||F - 11'||_F^2 + tau eta ||F||_* at the
    dual weights w (a o y, or hat - check); ``final()`` gives the F of the
    last call, with its factor put on ``trace``.  Three regimes:

    - ``freeze_f``: F = 11', kept as its factor W = 1.
    - tau = 0: F = 11' + diag(w) K diag(w) / (4 eta) in closed form, with
      K2 = K o K formed once: (F o K) w = K w + w o (K2 (w o w)) / (4 eta)
      and ||F - 11'||_F^2 = (w o w)' K2 (w o w) / (16 eta^2).  F itself is
      formed only by ``final``.
    - tau > 0: the certified prox's factor W, from which (F o K) w is
      sum_k W_k o (K (W_k o w)), O(n^2 r), and the deviation term comes
      from :func:`_deviation_sq`.  A warm call starts from the ``basis`` of
      the call before, the leading Ritz vectors its trace test needed (as
      few as 2 at rank 1), so it needs fewer and cheaper subspace steps
      when the duals move little; a cold call starts from the fixed block,
      so its F is that of a cold :func:`_adaptive_prox` call, bit for bit,
      whatever path the iterates took.  Calls, fallbacks and steps are
      counted in ``trace``.
    """
    if tau == 0 and not freeze_f:
        K2 = K * K
        last_w = None

        def closed_term(w, base, warm=True):
            nonlocal last_w
            last_w = w
            u = K2 @ (w * w)
            q = K @ w + w * u / (4.0 * eta)
            # eta ||F - 11'||_F^2 = (w o w)' K2 (w o w) / (16 eta).
            return q, base - 0.5 * float(w @ q) + float((w * w) @ u) / (16.0 * eta)

        return closed_term, lambda: _zero_tau_matrix(K, last_w, eta)

    n = K.shape[0]
    last = SpectralProx(np.ones((n, 1)), float(n), 1, False) if freeze_f else None

    def term(w, base, warm=True):
        nonlocal last
        if not freeze_f:
            last = _adaptive_prox(w, K, tau, eta, lam_min_K,
                                  last.basis if warm and last is not None else None)
            trace.record_prox(last)
        W = last.factor
        q = np.sum(W * (K @ (W * w[:, None])), axis=1)
        value = base - 0.5 * float(w @ q) + eta * _deviation_sq(W)
        if tau > 0:
            value += tau * eta * last.nuclear
        return q, value

    def final():
        trace.factor = last.factor
        return last.matrix

    return term, final


def _zero_tau_matrix(K, w, eta: float) -> np.ndarray:
    """F(w) = 11' + diag(w) K diag(w) / (4 eta), the adaptive matrix at tau = 0.

    The one expression of it: the solve's final F at tau = 0 and the
    closed-form rebuild of a trained model (:class:`adaptive.ClosedForm`)
    both call this, so they agree bit for bit on the same K, w and eta.
    Where w_i = 0, row and column i are exactly 1.
    """
    F = (K * np.outer(w, w)) / (4.0 * eta)
    F += 1.0
    return F


def _deviation_sq(W) -> float:
    """||W W' - 11'||_F^2 from the n x r factor, in O(n r^2).

    With c = W'1 / n and E = W - 1c' (so 1'E = 0), the four terms of
    W W' - 11' = (c'c - 1) 11' + 1(Ec)' + (Ec)1' + EE' are orthogonal, so
    the square is n^2 (c'c - 1)^2 + 2n ||Ec||^2 + ||E'E||_F^2, a sum of
    non-negative terms.  c'c - 1 is d (d + 2) plus the other squares of c,
    where d = |c_k| - 1 for the largest |c_k| is the mean of +-W_k - 1:
    near F = 11' those differences are exact, so nothing cancels.
    """
    n, r = W.shape
    c = W.sum(axis=0) / n
    E = W - c
    Ec = E @ c
    excess = -1.0
    if r:
        k = int(np.argmax(np.abs(c)))
        d = float(np.sum(np.copysign(1.0, c[k]) * W[:, k] - 1.0)) / n
        others = c * c
        others[k] = 0.0
        excess = d * (d + 2.0) + float(others.sum())
    return n * n * excess ** 2 + 2.0 * n * float(Ec @ Ec) + float(np.sum(np.square(E.T @ E)))


def _block_sum(v, n: int) -> np.ndarray:
    """The sum of v's consecutive blocks of n entries: v itself for one block."""
    return v if v.size == n else v.reshape(-1, n).sum(axis=0)


def _check_epsilon(epsilon: float) -> None:
    """Reject an SVR tube width that is negative or not finite (ParameterError)."""
    if not 0 <= epsilon < np.inf:
        raise ParameterError(f"epsilon must be nonnegative and finite, got {epsilon}")


def _dual_form(y, epsilon: float | None = None, both_classes: bool = True):
    """The checked (u, offset, targets) of a dual, in the module docstring's one form.

    The one check of labels, targets and epsilon, for every solve, value
    function and trainer.  Labels y in {-1, +1} give the classifier's, of
    both classes when ``both_classes``; with ``epsilon`` the finite targets
    y give the SVR's.  A defect or a single class raises DataError, a bad
    epsilon (:func:`_check_epsilon`) ParameterError.
    """
    y = np.asarray(y, dtype=float)
    if epsilon is None:
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DataError("labels must be in {-1, +1}")
        if both_classes and (np.all(y == 1.0) or np.all(y == -1.0)):
            raise DataError("training labels contain a single class")
        return y, 1.0, np.zeros(y.size)
    if not np.all(np.isfinite(y)):
        raise DataError("targets contain non-finite values")
    _check_epsilon(epsilon)
    return np.repeat([1.0, -1.0], y.size), -epsilon, y


def _dual_oracle(u, offset: float, targets, term):
    """The dual's oracle z -> (gradient, value), from one adaptive term.

    ``term`` gives q = (F(w) o K) w at the prox weights w.  The gradient is
    offset - u o [q; ...], then plus u o [targets; ...] (taken once), so
    each task's has the bits of its own closed form: 1 - y o q, and
    -eps - q + y, -eps + q - y.  The value adds
    offset 1'(block sum of z) + w'targets to the term's part.
    """
    n = targets.size
    per_block = u.reshape(-1, n)
    shift = (per_block * targets).ravel()

    def evaluate(z, warm=True):
        w = _block_sum(u * z, n)
        base = offset * float(_block_sum(z, n).sum()) + float(w @ targets)
        q, h = term(w, base, warm)
        g = (offset - per_block * q).ravel()
        g += shift
        return g, h

    return evaluate


def _at_point(z, K, config: SolverConfig, y, epsilon: float | None = None):
    """The gradient and value at z of the classifier dual, or with ``epsilon`` the SVR's.

    The one body of the public value functions: the prox starts from the
    fixed block and takes K as PSD without the solver's check.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (y.size, y.size):
        raise DataError("dual weights and kernel matrix have inconsistent sizes")
    term = _adaptive_term(K, config.tau, _require_eta(config), 0.0, SolveTrace(), False)[0]
    return _dual_oracle(*_dual_form(y, epsilon, False), term)(np.asarray(z, dtype=float))


def dual_objective(alpha, y, K, config: SolverConfig) -> float:
    """Value function h(a) = H(a, F(a)) of the outer maximization."""
    return _at_point(alpha, K, config, np.asarray(y, dtype=float))[1]


def dual_gradient(alpha, y, K, config: SolverConfig) -> np.ndarray:
    """Envelope gradient of h: 1 - Y(F(a) o K)Ya with F(a) held at its optimum."""
    return _at_point(alpha, K, config, np.asarray(y, dtype=float))[0]


def lipschitz_svm(n: int, C: float, K, eta: float) -> float:
    """Gradient-Lipschitz constant of h: n + 3 n C^2 ||K||_F^2 / (4 eta)."""
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    K = np.asarray(K, dtype=float)
    fro_sq = float((K * K).sum())
    return n + 3.0 * n * C * C * fro_sq / (4.0 * eta)


def lipschitz_svr(n: int, C: float, K, eta: float) -> float:
    """Gradient-Lipschitz constant of the SVR's h: 2 (n + 9 n C^2 ||K||_F^2 / (4 eta))."""
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    K = np.asarray(K, dtype=float)
    fro_sq = float((K * K).sum())
    return 2.0 * (n + 9.0 * n * C * C * fro_sq / (4.0 * eta))


def _pgd_constant(n: int, C: float, lam_max_K: float, eta: float, tau: float) -> float:
    return n - 0.5 * tau + n * C * C * lam_max_K / (4.0 * eta)


def project_exact(z, y, C: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= a <= C, a.y = 0} for +-1 labels.

    The projection is clip(z + lam * y, 0, C) where lam is the root of the
    nondecreasing piecewise-linear map f(lam) = y . clip(z + lam * y, 0, C).
    Coordinate i adds slope 1 to f while lam lies in [s_i, s_i + C], with
    s_i = -z_i for y_i = +1 and z_i - C for y_i = -1.  One sort of the 2n
    breakpoints gives the slope of every segment, a cumulative sum gives f
    at every breakpoint, and the root is interpolated in the first segment
    where f reaches zero: O(n log n) time and O(n) memory.  Both classes
    must be present for a root to exist.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    n = z.size
    starts = np.where(y > 0, -z, z - C)
    events = np.concatenate([starts, starts + C])
    order = np.argsort(events, kind="stable")
    bps = events[order]
    slopes = np.cumsum(np.where(order < n, 1.0, -1.0))
    # Left of every breakpoint the +1 coordinates sit at 0 and the -1 at C.
    f = np.empty(2 * n)
    f[0] = -C * float(np.count_nonzero(y < 0))
    np.cumsum(slopes[:-1] * np.diff(bps), out=f[1:])
    f[1:] += f[0]
    k = int(np.searchsorted(f, 0.0))
    if k == 0:
        lam = bps[0]
    elif k == 2 * n:
        lam = bps[-1]
    else:
        # f rises from f[k-1] < 0, so the segment's slope is positive.
        lam = bps[k - 1] - f[k - 1] / slopes[k - 1]
    return np.clip(z + lam * y, 0.0, C)


def _require_eta(config: SolverConfig) -> float:
    if config.eta is None:
        raise ParameterError(
            "eta is unresolved; run through a training wrapper or set it explicitly"
        )
    return config.eta


class _PsdGram(NamedTuple):
    """A kernel matrix that passed :func:`_check_psd_gram`, with its extreme eigenvalues."""

    K: np.ndarray
    lam_min: float
    lam_max: float


def _check_psd_gram(K) -> _PsdGram:
    """Reject a K that is not square, symmetric and PSD; returns K, lambda_min(K) and lambda_max(K).

    Symmetric means max |K - K'| <= 1e-12 max(1, ||K||_F).  A K that is
    already a :class:`_PsdGram` is returned as it is, so a trainer checks
    its kernel once and passes the result to both the eta solve and the
    main solve.
    """
    if isinstance(K, _PsdGram):
        return K
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DataError(f"kernel matrix must be square, got shape {K.shape}")
    skew = K - K.T
    np.abs(skew, out=skew)
    skew = float(skew.max(initial=0.0))
    limit = 1e-12 * max(1.0, float(np.linalg.norm(K)))
    if skew > limit:
        raise DataError(f"kernel matrix is not symmetric: max |K - K'| = {skew:.3e} "
                        f"exceeds tolerance {limit:.3e}")
    evals = np.linalg.eigvalsh(0.5 * (K + K.T))
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    if lam_min < -1e-8 * max(1.0, lam_max):
        raise DataError(f"kernel matrix is not PSD: lambda_min = {lam_min:.3e}")
    return _PsdGram(K, lam_min, lam_max)


def solve(K, y, config: SolverConfig, freeze_f: bool = False,
          with_equality: bool = True):
    """Run the accelerated projected-gradient saddle solver (:func:`_solve`) on the classifier.

    Iterates from a^(0) = 0 with envelope gradient 1 - Y(F(a) o K)Ya and
    step 1/:func:`lipschitz_svm` (pgd: the pgd constant), and stops at
    t_max or when the iterate step drops to ``tol``.

    K is a symmetric PSD n x n matrix, or the :class:`_PsdGram` of one
    that passed the check before.  ``freeze_f`` pins F to the all-one
    matrix (standard SVM dual; step constant ||K||_F).
    ``with_equality=False`` drops the hyperplane constraint so the
    projection is a plain box clip (used by the block-decomposition mode).
    y is checked by :func:`_dual_form`: labels outside {-1, +1}, or a
    single class when ``with_equality``, raise DataError.  Returns
    (DualState, F, SolveTrace).
    """
    y, offset, targets = _dual_form(y, both_classes=with_equality)
    a, F, trace = _solve(K, y, offset, targets, config, freeze_f, with_equality)
    return DualState(alpha=a, y=y), F, trace


def _solve(K, u, offset: float, targets, config: SolverConfig, freeze_f: bool,
           with_equality: bool = True):
    """The one solve of both duals (:func:`_dual_form`), and its step rule; returns (z, F, SolveTrace).

    Checks K once (a :class:`_PsdGram` has passed already) and warns when
    tau >= 2n.  The step constant L is ||K||_F with F frozen, the pgd
    constant from lambda_max(K) for pgd, else :func:`lipschitz_svm`, or
    :func:`lipschitz_svr` for the paired dual (u.size > n), which doubles
    it (quadruples it with F frozen).  From z^(0) = 0, each iteration takes
    theta~ = proj(z + g / L) at the gradient g of z.  pgd steps to theta~;
    the others take theta = theta~ (monotone-nesterov: the best of theta~, z
    and the theta before) and the dual-averaging step beta, and step to
    ((t+1) theta + 2 beta) / (t+3).  The projection is exact
    (:func:`project_exact`) onto {0 <= z <= C, u'z = 0}, as clip-then-shift
    stalls the dual-averaging step, whose points lie far outside the set;
    without ``with_equality`` it is a box clip.  The loop stops at t_max or
    when the step of the prox weights (block sum of u o z) drops to
    ``tol``; the returned point, the last iterate or a better carried
    theta, is then evaluated once more, cold, so that F is its F.
    """
    K, lam_min_K, lam_max_K = _check_psd_gram(K)
    n = targets.size
    if K.shape[0] != n:
        raise DataError(f"kernel matrix has {K.shape[0]} rows for {n} training points")
    trace = SolveTrace()
    if config.tau >= 2 * n:
        trace.warnings.append(
            f"tau = {config.tau} >= 2n = {2 * n}: the adaptive matrix may collapse to zero"
        )
    C, paired = config.C, u.size > n
    if freeze_f:
        # eta enters the frozen value only in its constant tau eta n term;
        # unresolved, the constant is dropped (the plain SVM dual value).
        L, eta = float(np.linalg.norm(K)), config.eta if config.eta is not None else 0.0
    else:
        eta = _require_eta(config)
        if config.variant == "pgd":
            L = _pgd_constant(n, C, lam_max_K, eta, config.tau)
        else:
            L = (lipschitz_svr if paired else lipschitz_svm)(n, C, K, eta)
    if paired:  # twice its stacked constant
        L *= 4.0 if freeze_f else 2.0
    term, final = _adaptive_term(K, config.tau, eta, lam_min_K, trace, freeze_f)
    evaluate = _dual_oracle(u, offset, targets, term)
    monotone = config.variant == "monotone-nesterov"

    z = np.zeros(u.size)
    z0 = z.copy()
    grad_sum = np.zeros(u.size)
    theta = None
    h_theta = -np.inf
    w_prev = np.zeros(n)
    moved = False

    for t in range(config.t_max):
        g, h_here = evaluate(z)
        v = z + g / L
        theta_tilde = project_exact(v, u, C) if with_equality else np.clip(v, 0.0, C)
        if monotone:
            h_tilde = evaluate(theta_tilde)[1]
            # Carry the stored h(theta) so the sequence is exactly monotone.
            candidates = [(h_tilde, theta_tilde), (h_here, z)]
            if theta is not None:
                candidates.append((h_theta, theta))
            h_theta, theta = max(candidates, key=lambda c: c[0])
            trace.objective_history.append(h_theta)
        else:
            theta = theta_tilde
            trace.objective_history.append(h_here)

        if config.variant == "pgd":
            z_next = theta
        else:
            grad_sum += (t + 1) * g
            # Ascent form of the dual-averaging step; see the solver notes.
            v = z0 + grad_sum / (2.0 * L)
            beta = project_exact(v, u, C) if with_equality else np.clip(v, 0.0, C)
            z_next = ((t + 1) * theta + 2.0 * beta) / (t + 3.0)

        w_next = _block_sum(u * z_next, n)
        step = float(np.linalg.norm(w_next - w_prev))
        z, w_prev = z_next, w_next
        trace.iterations = t + 1
        # The accelerated warmup can take steps far below tol before the
        # weighted gradient average builds up; only a drop back below tol
        # after real movement counts as convergence.
        moved = moved or step > config.tol
        if moved and step <= config.tol:
            trace.terminated_by = "tolerance"
            break

    # One cold evaluation at the returned point: its F is the one returned.
    # monotone-nesterov returns z^(T) unless the carried theta is better.
    trace.gradient, h_end = evaluate(z, warm=False)
    if monotone and h_end < h_theta:
        z, h_end = theta, h_theta
        trace.gradient = evaluate(z, warm=False)[0]
    trace.objective_history.append(h_end)
    return z, final(), trace


def resolve_eta(K, y, config: SolverConfig, epsilon: float | None = None) -> SolverConfig:
    """Fill in ``eta`` from a preliminary standard (frozen-F) solve when unset.

    The classifier's dual is solved, or with ``epsilon`` given the SVR dual
    on targets y; K may be the :class:`_PsdGram` of a kernel checked
    before, which that solve does not check again.  eta is w'w for the
    solve's prox weights w (y o alpha, or hat - check); when they vanish it
    falls back to 0.1 C^2.  An unset eta checks y and epsilon as the solves
    do (:func:`_dual_form`), so a single class raises DataError.
    """
    if config.eta is not None:
        return config
    prelim = replace(config, tau=0.0, eta=None, variant="nesterov")
    u, offset, targets = _dual_form(y, epsilon)
    z = _solve(K, u, offset, targets, prelim, True)[0]
    w = _block_sum(u * z, targets.size)
    eta = float(w @ w)
    if eta <= 1e-12:
        eta = 0.1 * config.C * config.C
    return replace(config, eta=eta)
