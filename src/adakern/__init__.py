"""Adaptive-kernel SVM/SVR with an accelerated saddle-point solver."""

from .errors import AdakernError, DataError, NumericalError, ParameterError
from .kernel import cross_gram, gaussian_gram
from .linalg import soft_threshold, sym_eig
from .solver import (
    DualState,
    SolverConfig,
    SolveTrace,
    adaptive_matrix,
    convergence_bound,
    dual_gradient,
    dual_objective,
    lipschitz_pgd,
    lipschitz_svm,
    solve,
    weighted_gram,
)
from .svm import SvmModel, extend_adaptive, reciprocal_similarity, recover_bias, train
from .svr import SvrModel, lipschitz_svr, rmse, solve_svr, svr_objective, train_svr

__all__ = [
    "AdakernError",
    "DataError",
    "DualState",
    "NumericalError",
    "ParameterError",
    "SolveTrace",
    "SolverConfig",
    "SvmModel",
    "SvrModel",
    "adaptive_matrix",
    "convergence_bound",
    "cross_gram",
    "dual_gradient",
    "dual_objective",
    "extend_adaptive",
    "gaussian_gram",
    "lipschitz_pgd",
    "lipschitz_svm",
    "lipschitz_svr",
    "reciprocal_similarity",
    "recover_bias",
    "rmse",
    "soft_threshold",
    "solve",
    "solve_svr",
    "svr_objective",
    "sym_eig",
    "train",
    "train_svr",
    "weighted_gram",
]
