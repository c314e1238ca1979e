"""Adaptive-kernel SVM/SVR with an accelerated saddle-point solver."""

from .errors import AdakernError, DataError, NumericalError, ParameterError
from .kernel import gaussian_gram, pairwise_sq_dists
from .solver import (
    DualState,
    SolverConfig,
    SolveTrace,
    dual_gradient,
    dual_objective,
    lipschitz_svm,
    solve,
)
from .svm import SvmModel, reciprocal_match, train
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
    "dual_gradient",
    "dual_objective",
    "gaussian_gram",
    "lipschitz_svm",
    "lipschitz_svr",
    "pairwise_sq_dists",
    "reciprocal_match",
    "rmse",
    "solve",
    "solve_svr",
    "svr_objective",
    "train",
    "train_svr",
]
