"""Command-line surface: train, predict, eval, bounds, grid.

All tabular output is CSV on standard output.  Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import data as dataio
from . import scale, svm, svr
from .errors import DataError, NumericalError, ParameterError
from .kernel import gaussian_gram
from .persist import load_model, save_model
from .solver import SolverConfig, _check_psd_gram, resolve_eta
from .svr import SvrModel

CV_GRID = [2.0 ** p for p in range(-5, 6)]
CV_FOLDS = 5
# --tau when unset; bounds and train --mode scalable solve at tau = 0 and take no other.
EXACT_TAU = 0.01


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _seed(text: str) -> int:
    """--seed: a nonnegative integer, as numpy's random generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_solver_flags(p):
    """The flags ``train`` and ``bounds`` share: input, kernel and solver settings, seed."""
    p.add_argument("--data", required=True, help="input path, or - for stdin")
    p.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--tau", type=float, help=f"default {EXACT_TAU}; decomposition mode: 0 only")
    p.add_argument("--eta", default="auto", help="auto or a positive number")
    p.add_argument("--variant", choices=("nesterov", "pgd", "monotone"),
                   default="nesterov")
    p.add_argument("--t-max", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=_seed, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="adakern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it to disk")
    _add_solver_flags(p)
    p.add_argument("--task", choices=("svm", "svr"), default="svm")
    p.add_argument("--epsilon", type=float,
                   help=f"--task svr only (default {svr.DEFAULT_EPSILON})")
    p.add_argument("--mode", choices=("exact", "scalable"), default="exact")
    p.add_argument("--clusters", help="cluster count (--mode scalable only; default 1)")
    p.add_argument("--cv", action="store_true")
    p.add_argument("--folds", type=int, help=f"--cv only (default {CV_FOLDS})")
    p.add_argument("--model", required=True, help="output model path")

    p = sub.add_parser("predict", help="predict labels/values for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")

    p = sub.add_parser("eval", help="accuracy (svm) or relative error (svr)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")
    p.add_argument("--repeats", type=int, default=1,
                   help="report mean/std over this many seeded splits")
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("bounds", help="decomposition error bounds and screening")
    _add_solver_flags(p)
    p.add_argument("--clusters", default="1", help="cluster counts, comma separated")
    p.add_argument("--kappa", type=float, default=1.0)

    p = sub.add_parser("grid", help="decision values on a 2-D grid for plotting")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, help="x0,x1,y0,y1,res")
    return parser


def _read_dataset(path: str, fmt: str, mode: str) -> dataio.Dataset:
    parser = dataio.parse_libsvm if fmt == "libsvm" else dataio.parse_csv
    try:
        if path == "-":
            # The bytes, so that stdin is UTF-8 whatever the locale, as files are.
            return parser(sys.stdin.buffer.read().decode("utf-8"), mode)
        with open(path, encoding="utf-8") as stream:
            return parser(stream, mode)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{'standard input' if path == '-' else path} is not UTF-8 "
                        f"text: {exc}") from exc


def _read_test_set(args, model) -> dataio.Dataset:
    """The data of ``predict`` and ``eval``: a libsvm file leaves out zero features,
    so the model's trailing feature indices that no row uses are zero columns."""
    mode = dataio.REGRESSION if isinstance(model, SvrModel) else dataio.CLASSIFICATION
    ds = _read_dataset(args.data, args.format, mode)
    missing = model.X.shape[1] - ds.X.shape[1]
    if args.format == "libsvm" and missing > 0:
        ds.X = np.pad(ds.X, ((0, 0), (0, missing)))
    return ds


def _resolve_eta_flag(value):
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise ParameterError(f"--eta must be 'auto' or a number, got {value!r}") from exc


def _config_from_args(args) -> SolverConfig:
    variant = "monotone-nesterov" if args.variant == "monotone" else args.variant
    return SolverConfig(
        C=args.C, tau=EXACT_TAU if args.tau is None else args.tau,
        eta=_resolve_eta_flag(args.eta), t_max=args.t_max, tol=args.tol, variant=variant,
    )


def _check_zero_tau(args, command: str) -> None:
    """Reject a nonzero --tau for a command of the decomposition mode, which solves at tau = 0."""
    if args.tau:
        raise ParameterError(f"{command} solves at tau = 0, got --tau {args.tau}")


def _cluster_counts(text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"--clusters expects integers separated by commas, "
                             f"got {text!r}") from exc


def _check_cluster_counts(counts: list[int], n: int) -> None:
    """Reject, before any solve, a --clusters count outside [1, n] (a usage error)."""
    for v in counts:
        if not 1 <= v <= n:
            raise ParameterError(f"--clusters must lie between 1 and the {n} "
                                 f"training points, got {v}")


def _emit(rows) -> None:
    for row in rows:
        print(",".join(str(item) for item in row))


def _score(model, X, y) -> float:
    """The held-out score of ``eval`` and ``train --cv``: accuracy, or the SVR's relative error."""
    if isinstance(model, SvrModel):
        return svr.rmse(model.predict(X), y)
    return svm.accuracy(model, X, y)


def cmd_train(args) -> int:
    if args.mode == "scalable":
        if args.task != "svm":
            raise ParameterError("scalable mode applies to the svm task only")
        counts = _cluster_counts("1" if args.clusters is None else args.clusters)
        if len(counts) != 1:
            raise ParameterError(f"train takes one --clusters count, got {args.clusters!r}")
        v = counts[0]
        _check_zero_tau(args, "train --mode scalable")
    elif args.clusters is not None:
        raise ParameterError("--clusters applies to --mode scalable only")
    if args.epsilon is not None and args.task != "svr":
        raise ParameterError("--epsilon applies to --task svr only")
    if args.folds is not None and not args.cv:
        raise ParameterError("--folds applies to --cv only")
    epsilon = svr.DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    folds = CV_FOLDS if args.folds is None else args.folds
    config = _config_from_args(args)
    mode = dataio.CLASSIFICATION if args.task == "svm" else dataio.REGRESSION
    ds = _read_dataset(args.data, args.format, mode)
    if args.mode == "scalable":
        _check_cluster_counts(counts, len(ds.y))

        def fit(X, y, sigma, config):
            return scale.train_scalable(X, y, sigma, config, v, args.seed)
    elif args.task == "svm":
        fit = svm.train
    else:
        def fit(X, y, sigma, config):
            return svr.train_svr(X, y, sigma, config, epsilon=epsilon)

    sigma = args.sigma
    if args.cv:
        sigma, C, _ = svm.grid_search(ds.X, ds.y, CV_GRID, CV_GRID, folds, args.seed, config,
                                      fit, _score, lower_is_better=args.task == "svr")
        config = replace(config, C=C)
    model = fit(ds.X, ds.y, sigma, config)
    model.meta["seed"] = args.seed
    save_model(model, args.model)

    rows = [("key", "value"), ("task", args.task), ("sigma", sigma),
            ("C", model.config.C), ("eta", model.config.eta)]
    rows += [(key, model.meta[key]) for key in ("iterations", "terminated_by", "objective",
                                                 "prox_fallbacks", "prox_rank", "prox_steps",
                                                 "f_min", "f_max", "f_rank")]
    _emit(rows)
    for text in model.meta["warnings"]:
        print(f"warning: {text}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = _read_test_set(args, model)
    if isinstance(model, SvrModel):
        values = model.predict(ds.X)
        _emit([("index", "prediction")])
        _emit(enumerate(values))
    else:
        decisions = model.decision_function(ds.X)
        labels = np.where(decisions >= 0.0, 1, -1)
        _emit([("index", "label", "decision")])
        _emit((i, labels[i], decisions[i]) for i in range(len(labels)))
    return 0


def cmd_eval(args) -> int:
    if args.repeats < 1:
        raise ParameterError(f"--repeats must be at least 1, got {args.repeats}")
    model = load_model(args.model)
    ds = _read_test_set(args, model)
    name = "rmse" if isinstance(model, SvrModel) else "accuracy"
    if args.repeats == 1:
        _emit([("metric", "value"), (name, _score(model, ds.X, ds.y))])
    else:
        folds = dataio.kfold(len(ds.y), args.repeats, args.seed)
        scores = [_score(model, ds.X[f], ds.y[f]) for f in folds]
        _emit([("metric", "mean", "std"),
               (name, float(np.mean(scores)), float(np.std(scores)))])
    return 0


def cmd_bounds(args) -> int:
    scale.check_kappa(args.kappa)
    counts = _cluster_counts(args.clusters)
    _check_zero_tau(args, "bounds")
    config = _config_from_args(args)
    ds = _read_dataset(args.data, args.format, dataio.CLASSIFICATION)
    _check_cluster_counts(counts, len(ds.y))
    y, _, Xs = svm._training_inputs(ds.X, ds.y, args.sigma)
    # Checked once for the eta solve and the exact reference.
    gram = _check_psd_gram(gaussian_gram(Xs, args.sigma))
    config = resolve_eta(gram, y, config)
    exact = scale.exact_reference(gram, y, config)
    header = ("v", "Q_pi", "B1", "B2", "B",
              "measured_obj_gap", "obj_gap_bound",
              "measured_alpha_gap_sq", "alpha_gap_bound",
              "measured_F_gap", "F_gap_bound", "exact_F_bound",
              "screened_strict", "screened_positive", "single_class_blocks")
    rows = [header]
    for v in counts:
        partition = scale.kmeans_partition(Xs, v, args.seed)
        blocks = scale.solve_blocks(Xs, y, partition, args.sigma, config)
        report = scale.bound_report(blocks, gram.K, partition, config, y,
                                    exact=exact, kappa=args.kappa)
        rows.append((v, report.Q_pi, report.B1, report.B2, report.B,
                     report.measured_objective_gap, report.objective_gap_bound,
                     report.measured_alpha_gap_sq, report.alpha_gap_bound,
                     report.measured_F_gap, report.F_gap_bound,
                     report.exact_F_bound,
                     len(report.screened_indices),
                     len(report.screened_positive_indices),
                     blocks.single_class_blocks))
        for text in report.warnings:
            print(f"warning: v = {v}: {text}", file=sys.stderr)
    _emit(rows)
    return 0


def cmd_grid(args) -> int:
    model = load_model(args.model)
    try:
        x0, x1, y0, y1, res = (float(t) for t in args.grid.split(","))
    except ValueError as exc:
        raise ParameterError(f"--grid expects x0,x1,y0,y1,res, got {args.grid!r}") from exc
    if not (res >= 1 and res.is_integer()):
        raise ParameterError(f"--grid resolution must be a positive integer, got {res:g}")
    res = int(res)
    if model.X.shape[1] != 2:
        raise DataError("grid emission requires a 2-feature model")
    try:
        xs = np.linspace(x0, x1, res)
        ys = np.linspace(y0, y1, res)
        uu, vv = np.meshgrid(xs, ys, indexing="ij")
        points = np.column_stack([uu.ravel(), vv.ravel()])
        if isinstance(model, SvrModel):
            values = model.predict(points)
        else:
            values = model.decision_function(points)
    except MemoryError as exc:
        raise ParameterError(f"--grid resolution {res} gives a grid too large to "
                             f"evaluate: {exc}") from exc
    _emit([("x", "y", "value")])
    _emit((p[0], p[1], v) for p, v in zip(points, values))
    return 0


COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "bounds": cmd_bounds,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
