"""The three benchmark workloads: inputs from a seed, one timed repetition,
and the correctness checks.  Why each workload exists is in README.md.

A workload makes problem instances (``make``), runs one repetition on an
instance through a recorder that times its operations (``rep``), and
evaluates the gap and the checks on the result outside the timed region
(``finish``).

Every workload generates its own inputs (the two-arc toy and the step
function are re-implemented here), so the package receives only data.
"""

import contextlib
import hashlib
import io
import os
from types import SimpleNamespace

import numpy as np

from adakern import cli, kernel, persist, scale, svr
from adakern import data as dataio
from adakern.errors import DataError
from adakern.solver import DualState, SolverConfig
from adakern.svr import SvrDualState

import gap

# Relative slack for calling a dual coordinate positive or at its cap.
MARGIN_RTOL = 1e-6
# Test points predicted one at a time for svm.batch_shift_max.
SHIFT_SAMPLE = 20


def two_arcs(rng, n, noise=0.08):
    """Two interleaved noisy arcs with balanced +-1 labels, shuffled.

    Arc positions are stratified (one uniform draw per equal slice of the
    arc), so instances from different seeds are alike in layout and differ
    in detail; that keeps per-seed spread of the gap and timings small.
    """
    n_pos, n_neg = n // 2, n - n // 2
    t_pos = np.pi * (np.arange(n_pos) + rng.uniform(0.0, 1.0, n_pos)) / n_pos
    t_neg = np.pi * (np.arange(n_neg) + rng.uniform(0.0, 1.0, n_neg)) / n_neg
    pos = np.column_stack([np.cos(t_pos), np.sin(t_pos)])
    neg = np.column_stack([1.0 - np.cos(t_neg), 0.5 - np.sin(t_neg)])
    X = np.vstack([pos, neg]) + rng.normal(0.0, noise, (n, 2))
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(n)
    return X[order], y[order]


def stratified(rng, n, lo, hi):
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def step_function(x, s=3.0, w=2.0, a=0.05):
    """Smoothed staircase of height s, period w and smoothness a."""
    steps = np.floor(x / w)
    core = np.tanh(a * x / w - a * steps - 0.5 * a) / (2.0 * np.tanh(0.5 * a))
    return (core + 0.5 + steps) * s


def write_libsvm(path, X, y):
    with open(path, "w") as stream:
        for xi, yi in zip(X, y):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(xi.tolist()))
            stream.write(f"{int(yi):+d} {feats}\n")


def numerical_rank(F):
    evals = np.linalg.eigvalsh(0.5 * (F + F.T))
    top = float(evals[-1])
    return int(np.sum(evals > 1e-6 * top)) if top > 0 else 0


def passes(validate, C):
    try:
        validate(C)
    except DataError:
        return False
    return True


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def quiet_cli(argv):
    """Run ``adakern.cli.main`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class SvmLarge:
    """CLI train (eta auto) and eval of the adaptive classifier."""

    name = "svm-large"
    sigma, C, tau = 0.3, 1.0, 0.01
    accuracy_floor = 0.8
    # eval takes a few tenths of a second, so each repetition runs it
    # several times and reports the median.
    evals = 3

    # Sizes of the warm-up repetition each set-up runs.
    tiny = dict(n=40, m=40, t_max=10)

    def __init__(self, n=360, m=2000, t_max=150):
        self.n, self.m, self.t_max = n, m, t_max

    def make(self, seed, k, workdir):
        rng = np.random.default_rng([seed, k])
        X, y = two_arcs(rng, self.n + self.m)
        stem = workdir / f"{self.name}-{self.n}-{k}"
        inst = SimpleNamespace(X_test=X[self.n:], seed=seed,
                               train_path=f"{stem}.train", test_path=f"{stem}.test",
                               model_path=f"{stem}.model")
        write_libsvm(inst.train_path, X[:self.n], y[:self.n])
        write_libsvm(inst.test_path, inst.X_test, y[self.n:])
        return inst

    def rep(self, inst, rec):
        train = ["train", "--task", "svm", "--data", inst.train_path,
                 "--sigma", str(self.sigma), "--C", str(self.C), "--tau", str(self.tau),
                 "--eta", "auto", "--t-max", str(self.t_max),
                 "--model", inst.model_path, "--seed", str(inst.seed)]
        with rec.op("train"):
            code, _ = quiet_cli(train)
        rec.check("train_exit_0", code == 0)
        for _ in range(self.evals):
            with rec.op("predict"):
                code, out = quiet_cli(["eval", "--model", inst.model_path,
                                       "--data", inst.test_path])
            rec.check("eval_exit_0", code == 0)
        accuracy = float(out.split()[-1].split(",")[1]) if code == 0 else float("nan")
        rec.check("accuracy_floor", accuracy >= self.accuracy_floor)
        with open(inst.model_path, "rb") as stream:
            return {"digest": hashlib.sha256(stream.read()).hexdigest()}

    def finish(self, inst, out, rec, layers):
        model = persist.load_model(inst.model_path)
        K = kernel.gaussian_gram(model.X, model.sigma)
        gap_value, h = gap.svm_gap(model.alpha, model.y, K, model.config)
        rec.check("duals_valid", passes(DualState(model.alpha, model.y).validate, self.C))
        decisions = model.decision_function(inst.X_test)
        rec.check("decisions_finite", np.all(np.isfinite(decisions)))
        if layers is not None:
            layers.update(svm_layers(model, inst.X_test, decisions))
        return gap.relative(gap_value, h), os.path.getsize(inst.model_path)


class SvrLong:
    """Library train_svr on the step function, then bulk predict."""

    name = "svr-long"
    sigma, C, tau, eta, epsilon = 0.05, 2.0, 0.01, 20.0, 0.02
    rmse_ceiling = 0.01

    # Sizes of the warm-up repetition each set-up runs.
    tiny = dict(n=30, m=200, t_max=20)

    def __init__(self, n=120, m=20000, t_max=1500):
        self.n, self.m, self.t_max = n, m, t_max
        self.config = SolverConfig(C=self.C, tau=self.tau, eta=self.eta,
                                   t_max=self.t_max, tol=1e-6)

    def make(self, seed, k, workdir):
        rng = np.random.default_rng([seed, k])
        X = stratified(rng, self.n, -5.0, 5.0)[:, None]
        X_test = rng.uniform(-5.0, 5.0, (self.m, 1))
        return SimpleNamespace(X=X, y=step_function(X[:, 0]), X_test=X_test,
                               y_test=step_function(X_test[:, 0]),
                               model_path=str(workdir / f"{self.name}-{self.n}-{k}.model"))

    def rep(self, inst, rec):
        with rec.op("train"):
            model = svr.train_svr(inst.X, inst.y, self.sigma, self.config,
                                  epsilon=self.epsilon)
        with rec.op("predict"):
            predictions = model.predict(inst.X_test)
        rec.check("predictions_finite", np.all(np.isfinite(predictions)))
        rec.check("rmse_ceiling", svr.rmse(predictions, inst.y_test) <= self.rmse_ceiling)
        return {"digest": digest(model.alpha_hat, model.alpha_check, [model.bias]),
                "model": model}

    def finish(self, inst, out, rec, layers):
        model = out["model"]
        state = SvrDualState(model.alpha_hat, model.alpha_check, model.epsilon)
        rec.check("duals_valid", passes(state.validate, self.C))
        K = kernel.gaussian_gram(model.X, model.sigma)
        gap_value, h = gap.svr_gap(model.alpha_hat, model.alpha_check, model.y, K,
                                   model.epsilon, model.config)
        persist.save_model(model, inst.model_path)
        if layers is not None:
            duals = np.concatenate([model.alpha_hat, model.alpha_check])
            full = model.predict(inst.X_test)[:SHIFT_SAMPLE]
            single = [model.predict(inst.X_test[i:i + 1])[0] for i in range(SHIFT_SAMPLE)]
            layers.update(dual_layers(duals, self.C, model.F))
            layers["svm.batch_shift_max"] = float(np.max(np.abs(full - single)))
        return gap.relative(gap_value, h), os.path.getsize(inst.model_path)


class ScalableBulk:
    """Bounds sweep, decomposition training and bulk prediction."""

    name = "scalable-bulk"
    # A narrow kernel and a large eta keep the cross-cluster kernel mass
    # small, the regime where the F-gap bound is tighter than the trivial
    # n * max(sqrt(B), B) bound that the check compares it with.
    sigma, C, eta = 0.05, 1.0, 10000.0
    accuracy_floor = 0.95

    # Sizes of the warm-up repetition each set-up runs.
    tiny = dict(n=120, m=200, t_max=10, sweep=(2, 4), v=2)

    def __init__(self, n=1000, m=4000, t_max=100, sweep=(10, 20), v=10):
        self.n, self.m, self.sweep, self.v = n, m, sweep, v
        self.config = SolverConfig(C=self.C, tau=0.0, eta=self.eta, t_max=t_max)

    def make(self, seed, k, workdir):
        rng = np.random.default_rng([seed, k])
        X, y = two_arcs(rng, self.n + self.m)
        return SimpleNamespace(X=X[:self.n], y=y[:self.n], X_test=X[self.n:],
                               y_test=y[self.n:], seed=int(rng.integers(2 ** 31)),
                               model_path=str(workdir / f"{self.name}-{self.n}-{k}.model"))

    def rep(self, inst, rec):
        with rec.op("bounds"):
            Xs = dataio.apply_minmax(dataio.fit_minmax(inst.X), inst.X)
            K = kernel.gaussian_gram(Xs, self.sigma)
            reports = []
            for v in self.sweep:
                partition = scale.kmeans_partition(Xs, v, inst.seed)
                blocks = scale.solve_blocks(Xs, inst.y, partition, self.sigma, self.config)
                reports.append(scale.bound_report(blocks, K, partition, self.config, inst.y))
        for r in reports:
            rec.check(f"B1_positive_v{r.v}", r.B1 > 0)
            rec.check(f"F_gap_chain_v{r.v}", r.F_gap_bound <= r.exact_F_bound)
        with rec.op("train"):
            model = scale.train_scalable(inst.X, inst.y, self.sigma, self.config,
                                         self.v, inst.seed)
        with rec.op("predict"):
            decisions = model.decision_function(inst.X_test)
        rec.check("decisions_finite", np.all(np.isfinite(decisions)))
        accuracy = float(np.mean(np.where(decisions >= 0.0, 1.0, -1.0) == inst.y_test))
        rec.check("accuracy_floor", accuracy >= self.accuracy_floor)
        return {"digest": digest(model.alpha, decisions), "model": model,
                "decisions": decisions}

    def finish(self, inst, out, rec, layers):
        model = out["model"]
        # Block duals carry no hyperplane constraint, so only the box applies.
        rec.check("duals_in_box", np.all((model.alpha >= 0) & (model.alpha <= self.C)))
        gap_value, h = gap.block_gap(model)
        persist.save_model(model, inst.model_path)
        if layers is not None:
            layers.update(svm_layers(model, inst.X_test, out["decisions"]))
        return gap.relative(gap_value, h), os.path.getsize(inst.model_path)


def dual_layers(duals, C, F):
    return {
        "solver.f_rank": numerical_rank(F),
        "solver.support_vectors": int(np.sum(duals > MARGIN_RTOL * C)),
        "solver.bound_vectors": int(np.sum(duals >= (1.0 - MARGIN_RTOL) * C)),
    }


def svm_layers(model, X_test, decisions):
    single = [model.decision_function(X_test[i:i + 1])[0] for i in range(SHIFT_SAMPLE)]
    layers = dual_layers(model.alpha, model.config.C, model.F)
    layers["svm.batch_shift_max"] = float(np.max(np.abs(decisions[:SHIFT_SAMPLE] - single)))
    return layers


WORKLOADS = {w.name: w for w in (SvmLarge, SvrLong, ScalableBulk)}

