"""Print one ``name digest`` line per output of a fixed set of fixtures.

The fixtures run the solvers, the trainers and the command line on small
fixed inputs, and each line is the sha256 of one output's bytes.  A change
that must keep every output bit for bit is checked by running this in the
tree before the change and in the tree after it, on the same machine, and
diffing the two outputs::

    PYTHONPATH=src python tools/fixture_digests.py > digests.txt

The bits depend on the numpy build and the BLAS, so digests from different
machines do not compare.  BLAS runs on one thread unless the environment
sets otherwise.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from adakern import cli  # noqa: E402
from adakern.data import apply_minmax, fit_minmax, gen_step, gen_two_class_toy  # noqa: E402
from adakern.kernel import gaussian_gram  # noqa: E402
from adakern.scale import train_scalable  # noqa: E402
from adakern.solver import VARIANTS, SolverConfig, solve  # noqa: E402
from adakern.svm import train  # noqa: E402
from adakern.svr import solve_svr, train_svr  # noqa: E402

TAUS = (0.0, 0.01)
SIGMA = 0.3
EPSILON = 0.05


def digest(value) -> str:
    """sha256 of an array's float64 bytes, or of the repr of anything else."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype=float).tobytes()
    elif isinstance(value, (str, bytes)):
        data = value.encode() if isinstance(value, str) else value
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def classes():
    ds = gen_two_class_toy(40, seed=3, noise=0.2)
    return ds.X, ds.y


def targets():
    ds = gen_step(np.linspace(-5.0, 5.0, 40))
    return ds.X, ds.y


def solve_cases():
    """solve and solve_svr: every variant, tau in TAUS, F frozen and adaptive."""
    X, y = classes()
    Xr, yr = targets()
    K = gaussian_gram(apply_minmax(fit_minmax(X), X), SIGMA)
    Kr = gaussian_gram(apply_minmax(fit_minmax(Xr), Xr), SIGMA)
    yr = apply_minmax(fit_minmax(yr[:, None]), yr[:, None])[:, 0]
    solvers = {
        "solve": lambda cfg, frozen: solve(K, y, cfg, freeze_f=frozen),
        "solve_svr": lambda cfg, frozen: solve_svr(Kr, yr, cfg, EPSILON, freeze_f=frozen),
    }
    for task, run in solvers.items():
        for variant in VARIANTS:
            for tau in TAUS:
                for frozen in (True, False):
                    cfg = SolverConfig(C=1.0, tau=tau, eta=2.0, t_max=150, variant=variant)
                    state, F, trace = run(cfg, frozen)
                    duals = (state.alpha if task == "solve"
                             else np.concatenate([state.alpha_hat, state.alpha_check]))
                    name = f"{task}/{variant}/tau={tau}/{'frozen' if frozen else 'adaptive'}"
                    yield from (
                        (f"{name}/duals", duals), (f"{name}/F", F),
                        (f"{name}/gradient", trace.gradient),
                        (f"{name}/history", np.asarray(trace.objective_history)),
                        (f"{name}/iterations", trace.iterations),
                        (f"{name}/terminated_by", trace.terminated_by),
                        (f"{name}/factor", trace.factor),
                    )


def train_cases():
    """train, train_svr and train_scalable with eta resolved from the data."""
    X, y = classes()
    Xr, yr = targets()
    X_test = np.linspace(-1.0, 2.0, 30)[:, None] * np.array([[1.0, 0.5]])
    Xr_test = np.linspace(-5.5, 5.5, 30)[:, None]
    for variant in VARIANTS:
        for tau in TAUS:
            cfg = SolverConfig(C=1.0, tau=tau, t_max=150, variant=variant)
            models = {"train": (train(X, y, SIGMA, cfg), X_test),
                      "train_svr": (train_svr(Xr, yr, SIGMA, cfg, epsilon=EPSILON), Xr_test)}
            for trainer, (model, points) in models.items():
                name = f"{trainer}/{variant}/tau={tau}"
                decisions = (model.decision_function(points) if trainer == "train"
                             else model.predict(points))
                yield from model_outputs(name, model, decisions)
    model = train_scalable(X, y, SIGMA, SolverConfig(C=1.0, tau=0.0, t_max=150), 2, 0)
    yield from model_outputs("train_scalable", model, model.decision_function(X_test))


def model_outputs(name, model, decisions):
    yield from ((f"{name}/bias", model.bias), (f"{name}/meta", sorted(model.meta.items())),
                (f"{name}/eta", model.config.eta), (f"{name}/F", model.F),
                (f"{name}/decisions", decisions))


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"adakern {' '.join(argv)} exited with {code}")
    return out.getvalue()


def cli_cases():
    """train and predict for both tasks, and bounds, through the command line."""
    X, y = classes()
    Xr, yr = targets()
    with tempfile.TemporaryDirectory() as tmp:
        files = {"svm": os.path.join(tmp, "svm.libsvm"), "svr": os.path.join(tmp, "svr.libsvm")}
        for path, (features, labels) in zip(files.values(), ((X, y), (Xr, yr))):
            with open(path, "w") as stream:
                for xi, yi in zip(features, labels):
                    cells = " ".join(f"{j + 1}:{v:.17e}" for j, v in enumerate(xi))
                    stream.write(f"{yi:.17e} {cells}\n")
        for task, path in files.items():
            model = os.path.join(tmp, f"{task}.model")
            yield f"cli/train-{task}/stdout", run_cli(
                ["train", "--task", task, "--data", path, "--sigma", str(SIGMA),
                 "--t-max", "150", "--model", model])
            with open(model, "rb") as stream:
                yield f"cli/train-{task}/model", stream.read()
            yield f"cli/predict-{task}/stdout", run_cli(
                ["predict", "--model", model, "--data", path])
        yield "cli/bounds/stdout", run_cli(
            ["bounds", "--data", files["svm"], "--sigma", str(SIGMA), "--tau", "0",
             "--t-max", "150", "--clusters", "2,4"])


def main() -> int:
    for cases in (solve_cases, train_cases, cli_cases):
        for name, value in cases():
            print(name, digest(value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
