import io
import os
import re

import numpy as np
import pytest

from adakern.cli import main
from adakern.data import Dataset, gen_two_class_toy, write_libsvm
from adakern.errors import DataError
from adakern.persist import load_model, save_model

from conftest import two_blobs


def write_dataset(path, ds):
    with open(path, "w") as stream:
        write_libsvm(ds, stream)


@pytest.fixture
def toy_file(tmp_path):
    ds = gen_two_class_toy(40, seed=3)
    path = tmp_path / "toy.libsvm"
    write_dataset(path, ds)
    return str(path), ds


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTrainPredictEval:
    def test_full_cycle(self, toy_file, tmp_path, capsys):
        path, ds = toy_file
        model_path = str(tmp_path / "model.txt")
        code, out, _ = run(["train", "--data", path, "--sigma", "0.4",
                            "--model", model_path, "--tol", "1e-5"], capsys)
        assert code == 0
        assert os.path.exists(model_path)
        keys = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert {"iterations", "f_rank", "prox_fallbacks", "prox_rank"} <= keys.keys()

        code, out, _ = run(["predict", "--model", model_path, "--data", path], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,label,decision"
        assert len(lines) == 41

        code, out, _ = run(["eval", "--model", model_path, "--data", path], capsys)
        assert code == 0
        assert out.startswith("metric,value")
        accuracy = float(out.strip().splitlines()[1].split(",")[1])
        assert accuracy >= 0.9

    def test_eval_repeats_reports_mean_std(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--sigma", "0.4",
                    "--model", model_path], capsys)[0] == 0
        code, out, _ = run(["eval", "--model", model_path, "--data", path,
                            "--repeats", "4"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "metric,mean,std"
        assert len(row.split(",")) == 3

    def test_svr_cycle(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = np.linspace(0, 1, 30)[:, None]
        y = np.sin(3 * X[:, 0])
        from adakern.data import REGRESSION
        ds = Dataset(X=X, y=y, mode=REGRESSION)
        path = str(tmp_path / "reg.libsvm")
        write_dataset(path, ds)
        model_path = str(tmp_path / "reg_model.txt")
        code, out, _ = run(["train", "--task", "svr", "--data", path,
                            "--sigma", "0.5", "--C", "2", "--epsilon", "0.05",
                            "--model", model_path], capsys)
        assert code == 0
        code, out, _ = run(["eval", "--model", model_path, "--data", path], capsys)
        assert code == 0
        assert out.startswith("metric,value")
        assert float(out.strip().splitlines()[1].split(",")[1]) < 0.5

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        ds = gen_two_class_toy(20, seed=2)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
        model_path = str(tmp_path / "m.txt")
        code, _, _ = run(["train", "--data", "-", "--sigma", "0.5",
                          "--model", model_path], capsys)
        assert code == 0


class TestPersistence:
    def test_roundtrip_bit_identical_predictions(self, toy_file, tmp_path):
        path, ds = toy_file
        from adakern.solver import SolverConfig
        from adakern.svm import train
        model = train(ds.X, ds.y, 0.5, SolverConfig(C=1.0, tau=0.01, eta=None))
        model_path = str(tmp_path / "m.txt")
        save_model(model, model_path)
        loaded = load_model(model_path)
        probe = ds.X + 0.01
        assert np.array_equal(model.decision_function(probe),
                              loaded.decision_function(probe))
        assert np.array_equal(model.F, loaded.F)
        assert np.array_equal(model.alpha, loaded.alpha)

    def test_two_identical_runs_identical_files(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for target in (p1, p2):
            assert run(["train", "--data", path, "--sigma", "0.4", "--seed", "7",
                        "--model", target], capsys)[0] == 0
        assert open(p1).read() == open(p2).read()

    def test_scalable_model_roundtrip(self, tmp_path, capsys):
        X, y = two_blobs(40, seed=4)
        from adakern.data import CLASSIFICATION
        ds = Dataset(X=X, y=y, mode=CLASSIFICATION)
        path = str(tmp_path / "blobs.libsvm")
        write_dataset(path, ds)
        model_path = str(tmp_path / "m.txt")
        code, _, _ = run(["train", "--data", path, "--sigma", "0.5",
                          "--mode", "scalable", "--clusters", "3",
                          "--model", model_path], capsys)
        assert code == 0
        loaded = load_model(model_path)
        assert loaded.mode == "scalable"
        assert loaded.bias == 0.0
        direct = loaded.predict(X)
        assert set(np.unique(direct)) <= {-1.0, 1.0}

    def test_svr_model_roundtrip(self, tmp_path):
        from adakern.solver import SolverConfig
        from adakern.svr import train_svr
        X = np.linspace(0, 1, 12)[:, None]
        y = X[:, 0] ** 2
        model = train_svr(X, y, 0.6, SolverConfig(C=5.0, tau=0.01, eta=None),
                          epsilon=0.05)
        mp = "/tmp/adakern_svr_roundtrip.txt"
        save_model(model, mp)
        loaded = load_model(mp)
        assert np.array_equal(model.predict(X), loaded.predict(X))
        os.unlink(mp)

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("adakern-model 999\n")
        from adakern.errors import DataError
        with pytest.raises(DataError, match="version"):
            load_model(str(bad))

    def test_not_a_model_file(self, tmp_path):
        bad = tmp_path / "junk.txt"
        bad.write_text("hello world\n")
        from adakern.errors import DataError
        with pytest.raises(DataError):
            load_model(str(bad))


class TestScalableVsExact:
    def test_single_cluster_matches_no_bias_reference(self, tmp_path, capsys):
        # --mode scalable --clusters 1 must predict exactly like the exact
        # solver run without bias or nuclear terms
        X, y = two_blobs(30, seed=10)
        from adakern.data import CLASSIFICATION
        ds = Dataset(X=X, y=y, mode=CLASSIFICATION)
        path = str(tmp_path / "d.libsvm")
        write_dataset(path, ds)
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--sigma", "0.6",
                    "--mode", "scalable", "--clusters", "1",
                    "--model", model_path], capsys)[0] == 0
        loaded = load_model(model_path)

        from dataclasses import replace

        from adakern.data import apply_minmax, fit_minmax
        from adakern.kernel import gaussian_gram
        from adakern.solver import SolverConfig, resolve_eta, solve
        from adakern.svm import SvmModel
        scaler = fit_minmax(X)
        Xs = apply_minmax(scaler, X)
        K = gaussian_gram(Xs, 0.6)
        cfg = resolve_eta(K, y, SolverConfig(C=1.0, tau=0.01, eta=None))
        state, F, _ = solve(K, y, replace(cfg, tau=0.0), with_equality=False)
        reference = SvmModel(X=Xs, y=y, alpha=state.alpha, F=F, bias=0.0,
                             sigma=0.6, config=cfg, scaler=scaler)
        probe = X + 0.02
        assert np.array_equal(loaded.predict(probe), reference.predict(probe))


class TestBoundsCommand:
    def test_emits_full_table(self, tmp_path, capsys):
        from conftest import paired_blobs
        X, y = paired_blobs(60, seed=5)
        from adakern.data import CLASSIFICATION
        ds = Dataset(X=X, y=y, mode=CLASSIFICATION)
        path = str(tmp_path / "d.libsvm")
        write_dataset(path, ds)
        code, out, _ = run(["bounds", "--data", path, "--sigma", "0.04",
                            "--eta", "30", "--tau", "0", "--clusters", "2,3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("v,Q_pi,B1,B2,B,measured_obj_gap")
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert int(cells[0]) in (2, 3)
            measured, bound = float(cells[5]), float(cells[6])
            assert measured <= bound


class TestGridCommand:
    def test_grid_csv(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--sigma", "0.4",
                    "--model", model_path], capsys)[0] == 0
        code, out, _ = run(["grid", "--model", model_path,
                            "--grid=-2,3,-1,2,5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 26

    def test_grid_requires_2d_model(self, tmp_path, capsys):
        X = np.linspace(0, 1, 10)[:, None]
        y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        from adakern.data import CLASSIFICATION
        ds = Dataset(X=X, y=y, mode=CLASSIFICATION)
        path = str(tmp_path / "d1.libsvm")
        write_dataset(path, ds)
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--sigma", "0.3",
                    "--model", model_path], capsys)[0] == 0
        code, _, err = run(["grid", "--model", model_path,
                            "--grid", "0,1,0,1,4"], capsys)
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(["train", "--data", str(tmp_path / "nope"),
                            "--model", str(tmp_path / "m.txt")], capsys)
        assert code == 2

    def test_bad_sigma_is_usage_error(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        code, _, err = run(["train", "--data", path, "--sigma", "-1",
                            "--model", str(tmp_path / "m.txt")], capsys)
        assert code == 1

    def test_single_class_is_data_error(self, tmp_path, capsys):
        path = str(tmp_path / "single.libsvm")
        with open(path, "w") as stream:
            stream.write("+1 1:0.1\n+1 1:0.4\n+1 1:0.9\n")
        code, _, _ = run(["train", "--data", path,
                          "--model", str(tmp_path / "m.txt")], capsys)
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(["train", "--bogus"], capsys)
        assert code == 1

    def test_bad_eta_string(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        code, _, _ = run(["train", "--data", path, "--eta", "soon",
                          "--model", str(tmp_path / "m.txt")], capsys)
        assert code == 1


def test_cv_selects_from_grid(tmp_path, capsys):
    # tiny grid exercise of the --cv path through the library API
    ds = gen_two_class_toy(40, seed=9)
    from adakern.solver import SolverConfig
    from adakern.svm import cross_validate
    sigma, C, table = cross_validate(ds.X, ds.y, [0.25, 1.0], [1.0], folds=4,
                                     seed=0, config_template=SolverConfig(C=1.0, tau=0.01))
    assert sigma in (0.25, 1.0) and C == 1.0
    assert len(table) == 2
    best_row = max(table, key=lambda r: r[2])
    assert best_row[0] == sigma


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """(model text, data path) for an exact SVM, a scalable SVM and an SVR model."""
    from adakern.data import CLASSIFICATION, REGRESSION
    from adakern.scale import train_scalable
    from adakern.solver import SolverConfig
    from adakern.svm import train
    from adakern.svr import train_svr

    root = tmp_path_factory.mktemp("models")
    X, y = two_blobs(12, seed=8)
    config = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=30)
    classes = str(root / "classes.libsvm")
    write_dataset(classes, Dataset(X=X, y=y, mode=CLASSIFICATION))
    targets = str(root / "targets.libsvm")
    write_dataset(targets, Dataset(X=X, y=X[:, 0], mode=REGRESSION))
    cases = {}
    for name, model, data in [
        ("svm", train(X, y, 0.6, config), classes),
        ("scalable", train_scalable(X, y, 0.6, config, 3, 0), classes),
        ("svr", train_svr(X, X[:, 0], 0.6, config, epsilon=0.05), targets),
    ]:
        path = str(root / f"{name}.model")
        save_model(model, path)
        with open(path) as stream:
            cases[name] = (stream.read(), data)
    return cases


def _mutations(text, rng):
    """Truncated and mutated copies of a model file; none of them is a valid model."""
    for cut in sorted(set(rng.integers(0, len(text) - 1, 30).tolist())):
        yield f"truncated at byte {cut}", text[:cut]
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        t = int(rng.integers(len(tokens)))
        edits = {
            "deleted": lines[:i] + lines[i + 1:],
            "duplicated": lines[:i + 1] + lines[i:],
            f"token {t} garbled": lines[:i] + [" ".join(tokens[:t] + ["x1"] + tokens[t + 1:])]
            + lines[i + 1:],
            "token appended": lines[:i] + [line + " 0.5"] + lines[i + 1:],
            "last token dropped": lines[:i] + [" ".join(tokens[:-1])] + lines[i + 1:],
        }
        for what, mutated in edits.items():
            yield f"line {i} ({line[:20]!r}) {what}", "\n".join(mutated) + "\n"
    # a key of the other task, or a second one of this task's
    for line in ("epsilon 1.0", "alpha_hat 0.5"):
        yield f"{line!r} added", "\n".join(lines[:-1] + [line, lines[-1]]) + "\n"


class TestMalformedModelFiles:
    @pytest.mark.parametrize("name", ["svm", "scalable", "svr"])
    def test_every_mutation_is_a_data_error(self, name, saved_models, tmp_path, capsys):
        text, data = saved_models[name]
        path = str(tmp_path / "mutated.model")
        assert run(["predict", "--model", _write(path, text), "--data", data], capsys)[0] == 0
        rng = np.random.default_rng(11)
        for what, mutated in _mutations(text, rng):
            code, _, err = run(["predict", "--model", _write(path, mutated), "--data", data],
                               capsys)
            assert (code, err.startswith("data error")) == (2, True), what

    @pytest.mark.parametrize("mutate", [
        lambda t: t.replace("adakern-model 1", "adakern-model x", 1),
        lambda t: t.replace("\nalpha ", "\nalpha 0.5 ", 1),
        lambda t: re.sub(r"\ny \S+ ", "\ny ", t, count=1),
        lambda t: t.replace("\nscaler_min ", "\nscaler_min 0.5 ", 1),
    ], ids=["version-x", "alpha-longer-than-n", "y-shorter-than-n", "scaler-longer-than-d"])
    def test_reported_defects_raise_data_error(self, mutate, saved_models, tmp_path):
        text, _ = saved_models["svm"]
        mutated = mutate(text)
        assert mutated != text
        with pytest.raises(DataError):
            load_model(_write(str(tmp_path / "bad.model"), mutated))


def _write(path, text):
    with open(path, "w") as stream:
        stream.write(text)
    return path
