"""Adaptive-kernel SVM/SVR with an accelerated saddle-point solver."""

from .errors import AdakernError, DataError, NumericalError, ParameterError
from .kernel import cross_gram, gaussian_gram
from .solver import (
    DualState,
    SolverConfig,
    SolveTrace,
    dual_gradient,
    dual_objective,
    lipschitz_svm,
    solve,
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
    "cross_gram",
    "dual_gradient",
    "dual_objective",
    "extend_adaptive",
    "gaussian_gram",
    "lipschitz_svm",
    "lipschitz_svr",
    "reciprocal_similarity",
    "recover_bias",
    "rmse",
    "solve",
    "solve_svr",
    "svr_objective",
    "train",
    "train_svr",
]
