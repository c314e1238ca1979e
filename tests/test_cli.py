import io
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from adakern.adaptive import ClosedForm, Dense
from adakern.cli import main
from adakern.data import Dataset, gen_two_class_toy
from adakern.errors import DataError
from adakern.persist import FORMAT_VERSION, load_model, save_model

from conftest import two_blobs, write_libsvm


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

    def test_train_prints_the_same_keys_for_svm_and_svr(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        keys = {}
        for task in ("svm", "svr"):
            code, out, err = run(["train", "--task", task, "--data", path, "--t-max", "20",
                                  "--model", str(tmp_path / f"{task}.model")], capsys)
            assert (code, err) == (0, "")
            keys[task] = [line.split(",", 1)[0] for line in out.splitlines()]
        assert keys["svm"] == keys["svr"]
        assert {"iterations", "prox_rank", "prox_steps", "f_min", "f_max",
                "f_rank"} <= set(keys["svr"])

    @pytest.mark.parametrize("t_max, stop", [("3", "max_iter"), ("2000", "tolerance")])
    def test_train_prints_why_the_solve_stopped(self, t_max, stop, toy_file, tmp_path, capsys):
        path, _ = toy_file
        code, out, _ = run(["train", "--data", path, "--t-max", t_max,
                            "--model", str(tmp_path / "m.txt")], capsys)
        assert code == 0
        assert dict(line.split(",", 1) for line in out.splitlines())["terminated_by"] == stop

    @pytest.mark.parametrize("flags, tau", [
        (["--mode", "scalable"], 0.0),
        (["--mode", "scalable", "--tau", "0"], 0.0),
        ([], 0.01),
    ], ids=["scalable", "scalable-tau-0", "exact"])
    def test_default_tau_per_mode(self, flags, tau, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        code, _, err = run(["train", "--data", path, "--t-max", "5", "--model", model_path]
                           + flags, capsys)
        assert (code, err) == (0, "")
        assert load_model(model_path).config.tau == tau

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
        ds = Dataset(X=X, y=y)
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
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(buf.getvalue().encode())))
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
        ds = Dataset(X=X, y=y)
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

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_frozen_model_without_eta_roundtrip(self, task, tmp_path):
        from adakern.solver import SolverConfig
        from adakern.svm import train
        from adakern.svr import train_svr
        X, y = two_blobs(30, seed=6)
        config = SolverConfig(C=1.0, tau=0.01, eta=None, t_max=50)
        if task == "svm":
            model, predict = train(X, y, 0.6, config, freeze_f=True), "decision_function"
        else:
            model, predict = train_svr(X, X[:, 0], 0.6, config, freeze_f=True), "predict"
        assert model.config.eta is None
        path = str(tmp_path / "frozen.model")
        save_model(model, path)
        with open(path) as stream:
            text = stream.read()
        assert "\neta none\n" in text and "\nrank 1\n" in text
        loaded = load_model(path)
        assert loaded.config.eta is None and np.array_equal(loaded.F, np.ones((30, 30)))
        probe = X + 0.05
        assert np.array_equal(getattr(loaded, predict)(probe), getattr(model, predict)(probe))

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


# A format 1 file as the format 1 writer saved it: an SVM trained on four
# points (sigma 0.5, C 1, tau 0.01, eta 2, t_max 20), with the decision
# values that model gave in memory at (0.5, 0.5) and (0.1, 0.9).
FORMAT_1_SVM = """\
adakern-model 1
task svm
mode exact
variant nesterov
sigma 5.00000000000000000e-01
bias 1.49574409595715663e-01
C 1.00000000000000000e+00
tau 1.00000000000000002e-02
eta 2.00000000000000000e+00
t_max 20
tol 1.00000000000000005e-04
projection_rounds 10
clusters 1
seed 0
n 4
d 2
scaler_min 0.00000000000000000e+00 2.00000000000000011e-01
scaler_max 1.00000000000000000e+00 1.00000000000000000e+00
y 1.00000000000000000e+00 1.00000000000000000e+00 -1.00000000000000000e+00 -1.00000000000000000e+00
alpha 9.56400699840425972e-01 1.00000000000000000e+00 9.74269307144850605e-01 9.82131392695575367e-01
X 0.00000000000000000e+00 1.00000000000000000e+00
X 2.99999999999999989e-01 0.00000000000000000e+00
X 1.00000000000000000e+00 2.50000000000000000e-01
X 8.00000000000000044e-01 8.74999999999999889e-01
F 1.10933778733190791e+00 1.01351412487694459e+00 9.94882490432417721e-01 9.68358952563037390e-01
F 1.01351412487694459e+00 1.12000000000000099e+00 9.59663925404909524e-01 9.83896549612053528e-01
F 9.94882490432417721e-01 9.59663925404909524e-01 1.11365008535556398e+00 1.05055015649584416e+00
F 9.68358952563037390e-01 9.83896549612053528e-01 1.05055015649584416e+00 1.11557275906476905e+00
meta_iterations 20
meta_objective 2.18376650620198243e+00
end
"""
FORMAT_1_DECISIONS = [0.1599746536868143, 0.9151134173694319]


class TestFormatV2:
    def test_factor_roundtrip_is_bit_identical(self, tmp_path):
        from adakern.solver import SolverConfig
        from adakern.svm import train
        from adakern.svr import train_svr
        X, y = two_blobs(50, seed=12)
        config = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=60)
        probe = X[:20] + 0.05
        for model in (train(X, y, 0.6, config),
                      train_svr(X, X[:, 0], 0.6, config, epsilon=0.05)):
            path = str(tmp_path / "m.txt")
            save_model(model, path)
            with open(path) as stream:
                text = stream.read()
            assert text.startswith(f"adakern-model {FORMAT_VERSION}\n")
            assert f"\nrank {model.adaptive.W.shape[1]}\n" in text and "\nF " not in text
            assert text.count("\nW ") == 50
            loaded = load_model(path)
            assert np.array_equal(loaded.adaptive.W, model.adaptive.W)
            assert np.array_equal(loaded.F, model.F)
            predict = "decision_function" if hasattr(model, "alpha") else "predict"
            assert np.array_equal(getattr(loaded, predict)(probe), getattr(model, predict)(probe))

    def test_format_1_file_still_loads(self, tmp_path):
        loaded = load_model(_write(str(tmp_path / "v1.model"), FORMAT_1_SVM))
        assert isinstance(loaded.adaptive, Dense) and loaded.F.shape == (4, 4)
        probe = np.array([[0.5, 0.5], [0.1, 0.9]])
        decisions = loaded.decision_function(probe)
        assert decisions.tolist() == pytest.approx(FORMAT_1_DECISIONS, rel=1e-12, abs=0)
        # saved again, it keeps its F rows under the new header
        path = str(tmp_path / "again.model")
        save_model(loaded, path)
        again = load_model(path)
        assert np.array_equal(again.F, loaded.F) and isinstance(again.adaptive, Dense)
        assert np.array_equal(again.decision_function(probe), decisions)

    def test_format_2_file_still_loads(self, saved_models, tmp_path):
        text, _ = saved_models["svm"]
        current = load_model(_write(str(tmp_path / "v3.model"), text))
        # A format 2 file is a format 3 file with the projection_rounds line.
        v2 = text.replace(f"adakern-model {FORMAT_VERSION}\n", "adakern-model 2\n", 1)
        v2 = re.sub(r"(\ntol [^\n]*\n)", r"\1projection_rounds 10\n", v2, count=1)
        loaded = load_model(_write(str(tmp_path / "v2.model"), v2))
        assert np.array_equal(loaded.F, current.F)
        assert np.array_equal(loaded.adaptive.W, current.adaptive.W)
        probe = current.X + 0.05
        assert np.array_equal(loaded.decision_function(probe), current.decision_function(probe))

    @pytest.mark.parametrize("version, line", [
        ("2", None), ("2", "projection_rounds 0"), ("2", "projection_rounds x"),
        ("3", "projection_rounds 10"),
    ], ids=["v2-missing", "v2-zero", "v2-not-a-number", "v3-present"])
    def test_projection_rounds_line_is_checked(self, version, line, saved_models, tmp_path):
        text, _ = saved_models["svm"]
        text = text.replace(f"adakern-model {FORMAT_VERSION}\n", f"adakern-model {version}\n", 1)
        if line is not None:
            text = re.sub(r"(\ntol [^\n]*\n)", rf"\1{line}\n", text, count=1)
        with pytest.raises(DataError):
            load_model(_write(str(tmp_path / "bad.model"), text))

    def test_rank_zero_roundtrip(self, tmp_path):
        from adakern.solver import SolverConfig
        from adakern.svm import train
        X, y = two_blobs(20, seed=3)
        # tau/2 above every eigenvalue of 11' + G: F collapses to zero.
        model = train(X, y, 0.6, SolverConfig(C=1.0, tau=100.0, eta=1.0, t_max=20))
        assert model.adaptive.W.shape == (20, 0) and not model.F.any()
        path = str(tmp_path / "m.txt")
        save_model(model, path)
        with open(path) as stream:
            text = stream.read()
        assert "\nrank 0\n" in text and "\nW " not in text and "\nF " not in text
        loaded = load_model(path)
        assert np.array_equal(loaded.F, model.F) and loaded.adaptive.W.shape == (20, 0)
        assert np.array_equal(loaded.decision_function(X), model.decision_function(X))

    def test_factor_that_does_not_give_F_is_not_written(self, tmp_path):
        from dataclasses import replace

        from adakern.solver import SolverConfig
        from adakern.svm import train
        X, y = two_blobs(30, seed=5)
        model = train(X, y, 0.6, SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=20))
        edited = replace(model, adaptive=Dense(model.F + 1e-3))
        path = str(tmp_path / "m.txt")
        save_model(edited, path)
        loaded = load_model(path)
        assert isinstance(loaded.adaptive, Dense) and np.array_equal(loaded.F, edited.F)


def _format_3_blocks(text, model):
    """The format 3 file of a decomposition model saved as format 4: its F blocks added."""
    lines = text.replace(f"adakern-model {FORMAT_VERSION}\n", "adakern-model 3\n", 1).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("assignment ")) + 1
    blocks = []
    for c in range(int(model.assignment.max()) + 1):
        idx = np.flatnonzero(model.assignment == c)
        blocks.append(f"block {c} {idx.size}")
        blocks.extend("B " + " ".join(f"{v:.17e}" for v in row)
                      for row in model.F[np.ix_(idx, idx)])
    return "\n".join(lines[:at] + blocks + lines[at:]) + "\n"


class TestFormatV4:
    @staticmethod
    def closed_form_models():
        from adakern.scale import train_scalable
        from adakern.solver import SolverConfig
        from adakern.svm import train
        from adakern.svr import train_svr
        X, y = two_blobs(40, seed=21)
        config = SolverConfig(C=1.0, tau=0.0, eta=0.5, t_max=80)
        return X, {
            "scalable-v1": train_scalable(X, y, 0.6, replace(config, tau=0.01), 1, 0),
            "scalable-v3": train_scalable(X, y, 0.6, replace(config, tau=0.01), 3, 0),
            "exact-svm": train(X, y, 0.6, config),
            "exact-svr": train_svr(X, X[:, 0], 0.6, config, epsilon=0.05),
        }

    def test_closed_form_models_store_no_F(self, tmp_path):
        X, models = self.closed_form_models()
        probe = X[:15] + 0.05
        for name, model in models.items():
            path = str(tmp_path / f"{name}.model")
            save_model(model, path)
            with open(path) as stream:
                keys = {line.split(" ", 1)[0] for line in stream}
            assert not keys & {"F", "B", "block", "W", "rank"}, name
            loaded = load_model(path)
            assert np.array_equal(loaded.F, model.F), name
            assert isinstance(loaded.adaptive, ClosedForm) and np.array_equal(loaded.X, model.X)
            predict = "decision_function" if hasattr(model, "alpha") else "predict"
            assert np.array_equal(getattr(loaded, predict)(probe),
                                  getattr(model, predict)(probe)), name

    def test_format_3_scalable_file_still_loads(self, tmp_path):
        X, models = self.closed_form_models()
        model = models["scalable-v3"]
        path = str(tmp_path / "v4.model")
        save_model(model, path)
        with open(path) as stream:
            v3 = _format_3_blocks(stream.read(), model)
        assert v3.count("\nblock ") == 3
        loaded = load_model(_write(str(tmp_path / "v3.model"), v3))
        assert np.array_equal(loaded.F, model.F) and loaded.mode == "scalable"
        # A format 3 file must hold its blocks.
        bare = re.sub(r"\n(block|B) [^\n]*", "", v3)
        with pytest.raises(DataError, match="blocks"):
            load_model(_write(str(tmp_path / "bare.model"), bare))

    def test_edited_F_keeps_its_rows(self, tmp_path):
        X, models = self.closed_form_models()
        for name, key, i in (("scalable-v3", "B", 5), ("exact-svm", "F", 3),
                             ("exact-svr", "F", 3)):
            model = models[name]
            F = model.F.copy()
            F[i, i] += 1e-3
            edited = replace(model, adaptive=Dense(F))
            path = str(tmp_path / "edited.model")
            save_model(edited, path)
            with open(path) as stream:
                assert f"\n{key} " in stream.read()
            assert np.array_equal(load_model(path).F, F)

    @pytest.mark.parametrize("mutate", [
        lambda t: t.replace("\nmeta_iterations", "\nB" + " 1.0" * 14 + "\nmeta_iterations"),
        lambda t: re.sub(r"(\nassignment [^\n]*)", r"\1 0", t, count=1),
        lambda t: re.sub(r"(\nassignment [^\n]*) \d+\n", r"\1\n", t, count=1),
        lambda t: t.replace(f"adakern-model {FORMAT_VERSION}", "adakern-model 3", 1),
    ], ids=["stray-B-line", "assignment-too-long", "assignment-too-short", "no-blocks-in-v3"])
    def test_scalable_defects_exit_2(self, mutate, saved_models, tmp_path, capsys):
        text, data = saved_models["scalable"]
        assert "\nassignment " in text and "\nblock " not in text
        mutated = mutate(text)
        assert mutated != text
        code, _, err = run(["predict", "--model", _write(str(tmp_path / "bad.model"), mutated),
                            "--data", data], capsys)
        assert (code, err.startswith("data error")) == (2, True)

    @pytest.mark.parametrize("tau", ["1.00000000000000002e-02", None])
    def test_exact_file_without_F_needs_tau_zero_and_format_4(self, tau, tmp_path):
        X, models = self.closed_form_models()
        path = str(tmp_path / "m.model")
        save_model(models["exact-svm"], path)
        with open(path) as stream:
            text = stream.read()
        if tau is None:
            text = text.replace(f"adakern-model {FORMAT_VERSION}", "adakern-model 3", 1)
        else:
            text = re.sub(r"\ntau \S+", f"\ntau {tau}", text, count=1)
        with pytest.raises(DataError, match="stored F"):
            load_model(_write(path, text))


    @pytest.mark.parametrize("name", ["scalable", "svm-tau0"])
    def test_eta_none_needs_a_stored_F(self, name, saved_models, tmp_path):
        text, _ = saved_models[name]
        mutated = re.sub(r"\neta \S+", "\neta none", text, count=1)
        assert mutated != text
        with pytest.raises(DataError, match="eta none"):
            load_model(_write(str(tmp_path / "m.model"), mutated))


def _with_assignment(text, edit):
    """The model text with its assignment entries (strings) replaced by edit(entries)."""
    match = re.search(r"\nassignment ([^\n]*)", text)
    return text[:match.start(1)] + " ".join(edit(match.group(1).split())) + text[match.end(1):]


class TestClusterLines:
    """load_model checks a decomposition file's assignment against its clusters line first."""

    @pytest.mark.parametrize("name", ["scalable", "scalable-v3"])
    @pytest.mark.parametrize("mutate", [
        lambda t: _with_assignment(t, lambda a: ["-1"] + a[1:]),
        lambda t: _with_assignment(t, lambda a: [str(10**12)] + a[1:]),
        lambda t: _with_assignment(t, lambda a: ["0" if c == "2" else c for c in a]),
        lambda t: t.replace("\nclusters 3\n", "\nclusters 4\n"),
        lambda t: t.replace("\nclusters 3\n", "\nclusters 2\n"),
        lambda t: t.replace("\nclusters 3\n", f"\nclusters {10**12}\n"),
    ], ids=["negative-index", "huge-index", "empty-cluster", "clusters-above",
            "clusters-below", "clusters-huge"])
    def test_defect_exits_2_at_once(self, mutate, name, saved_models, tmp_path, capsys):
        text, data = saved_models[name]
        assert "\nclusters 3\n" in text
        mutated = mutate(text)
        assert mutated != text
        path = _write(str(tmp_path / "bad.model"), mutated)
        start = time.perf_counter()
        code, _, err = run(["predict", "--model", path, "--data", data], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, err.startswith("data error")) == (2, True)


class TestScalableVsExact:
    def test_single_cluster_matches_no_bias_reference(self, tmp_path, capsys):
        # --mode scalable --clusters 1 must predict exactly like the exact
        # solver run without bias or nuclear terms
        X, y = two_blobs(30, seed=10)
        ds = Dataset(X=X, y=y)
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
        reference = SvmModel(X=Xs, y=y, alpha=state.alpha, adaptive=Dense(F), bias=0.0,
                             sigma=0.6, config=cfg, scaler=scaler)
        probe = X + 0.02
        assert np.array_equal(loaded.predict(probe), reference.predict(probe))


class TestBoundsCommand:
    def test_emits_full_table(self, tmp_path, capsys):
        from conftest import paired_blobs
        X, y = paired_blobs(60, seed=5)
        ds = Dataset(X=X, y=y)
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

    @pytest.mark.parametrize("eta", ["auto", "50"])
    def test_checks_the_whole_data_kernel_once(self, eta, toy_file, monkeypatch, capsys):
        # The eta solve and the exact reference share one PSD check of K:
        # one n x n eigvalsh, the blocks' checks aside.
        path, ds = toy_file
        n = len(ds.y)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        code, _, _ = run(["bounds", "--data", path, "--sigma", "0.3", "--tau", "0",
                          "--eta", eta, "--clusters", "2", "--t-max", "20"], capsys)
        assert code == 0
        assert sizes.count((n, n)) == 1

    @pytest.mark.parametrize("counts, bad", [("2,41", 41), ("0,2", 0), ("41,2", 41)],
                             ids=["last", "zero", "first"])
    def test_cluster_count_outside_the_data_solves_nothing(self, counts, bad, toy_file,
                                                           monkeypatch, capsys):
        # Every count is checked against the 40 points before any solve: the
        # eta solve, the exact reference and the block solves all run
        # solver._solve.
        from adakern import solver
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        original = solver._solve
        monkeypatch.setattr(solver, "_solve", spy)
        path, ds = toy_file
        assert len(ds.y) == 40
        code, out, err = run(["bounds", "--data", path, "--eta", "50", "--tau", "0",
                              "--clusters", counts], capsys)
        assert (code, out, calls) == (1, "", [])
        assert err == (f"usage error: --clusters must lie between 1 and the 40 training "
                       f"points, got {bad}\n")


class TestWarnings:
    """bounds and train print the warnings of their reports and solves to stderr."""

    def test_bounds_prints_the_nonpositive_entry_warning(self, tmp_path, capsys):
        # Two sites, each holding a +1 and a -1 point.  At a small eta the
        # duals of a pair make its cross entry of F negative.
        path = _write(str(tmp_path / "pairs.libsvm"), "+1 1:0\n-1 1:0\n+1 1:1\n-1 1:1\n")
        code, out, err = run(["bounds", "--data", path, "--eta", "0.001", "--t-max", "2000",
                              "--clusters", "1,2"], capsys)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3 and lines[0].startswith("v,Q_pi,B1,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
        assert err == "".join(f"warning: v = {v}: adaptive matrices contain nonpositive "
                              "entries; the bound hypothesis 0 < B1 is violated\n"
                              for v in (1, 2))

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_train_prints_the_solve_warning(self, task, toy_file, tmp_path, capsys):
        path, _ = toy_file
        argv = ["train", "--task", task, "--data", path, "--t-max", "5",
                "--model", str(tmp_path / "m.txt")]
        code, out, err = run(argv + ["--tau", "80"], capsys)
        assert code == 0
        assert err == ("warning: tau = 80.0 >= 2n = 80: the adaptive matrix may collapse "
                       "to zero\n")
        quiet = run(argv + ["--tau", "79"], capsys)
        assert quiet[0] == 0 and quiet[2] == ""
        assert ([line.split(",")[0] for line in quiet[1].splitlines()]
                == [line.split(",")[0] for line in out.splitlines()])


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
        ds = Dataset(X=X, y=y)
        path = str(tmp_path / "d1.libsvm")
        write_dataset(path, ds)
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--sigma", "0.3",
                    "--model", model_path], capsys)[0] == 0
        code, _, err = run(["grid", "--model", model_path,
                            "--grid", "0,1,0,1,4"], capsys)
        assert code == 2

    def test_bad_resolution_is_usage_error(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--sigma", "0.4", "--t-max", "5",
                    "--model", model_path], capsys)[0] == 0
        for res in ("-3", "0", "2.5", "nan"):
            code, out, err = run(["grid", "--model", model_path,
                                  f"--grid=0,1,0,1,{res}"], capsys)
            assert (code, out) == (1, "")
            assert err.startswith("usage error: --grid resolution must be a positive integer")
        # 1e12 points per axis: numpy refuses the 8 TB axis at once.
        code, out, err = run(["grid", "--model", model_path, "--grid=0,1,0,1,1e12"], capsys)
        assert (code, out) == (1, "") and "too large" in err
        for grid in ("1,2,3", "0,1,0,1,x"):
            code, out, err = run(["grid", "--model", model_path, f"--grid={grid}"], capsys)
            assert (code, out) == (1, "")
            assert err.startswith("usage error: --grid expects x0,x1,y0,y1,res")

    def test_svr_grid_writes_predictions(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--task", "svr", "--data", path, "--t-max", "5",
                    "--model", model_path], capsys)[0] == 0
        code, out, _ = run(["grid", "--model", model_path, "--grid=-2,3,-1,2,3"], capsys)
        assert code == 0
        table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        assert table.shape == (9, 3)
        assert np.array_equal(table[:, 2], load_model(model_path).predict(table[:, :2]))


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

    @pytest.mark.parametrize("text", ["# a comment\n# another\n", "\n   \n"],
                             ids=["comments-only", "blank-only"])
    def test_file_without_data_rows_is_data_error(self, text, tmp_path, capsys):
        path = _write(str(tmp_path / "empty.libsvm"), text)
        code, out, err = run(["train", "--data", path, "--model", str(tmp_path / "m.txt")],
                             capsys)
        assert (code, out, err) == (2, "", "data error: no data rows found\n")

    @pytest.mark.parametrize("flags", [["--eta", "auto"], ["--tau", "0", "--eta", "10"]],
                             ids=["eta-auto", "tau-0-eta-10"])
    def test_bounds_single_class_is_data_error(self, flags, tmp_path, capsys):
        path = _write(str(tmp_path / "single.libsvm"), "+1 1:0.1\n+1 1:0.4\n+1 1:0.9\n")
        code, _, err = run(["bounds", "--data", path, "--clusters", "2"] + flags, capsys)
        assert (code, err) == (2, "data error: training labels contain a single class\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--mode", "scalable", "--clusters", "abc"],
        ["bounds", "--clusters", "2,x"],
    ], ids=["train-scalable", "bounds"])
    def test_non_integer_clusters_is_usage_error(self, argv, toy_file, tmp_path, capsys):
        path, _ = toy_file
        if argv[0] == "train":
            argv = argv + ["--model", str(tmp_path / "m.txt")]
        code, _, err = run(argv + ["--data", path], capsys)
        assert code == 1 and err.startswith("usage error: --clusters expects integers")

    @pytest.mark.parametrize("argv", [
        ["train", "--clusters", "3"],
        ["train", "--clusters", "abc"],
        ["train", "--task", "svr", "--clusters", "2"],
    ], ids=["exact", "exact-non-integer", "svr"])
    def test_clusters_without_scalable_mode_is_usage_error(self, argv, toy_file, tmp_path,
                                                           capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        code, out, err = run(argv + ["--data", path, "--model", model_path], capsys)
        assert (code, out) == (1, "")
        assert err == "usage error: --clusters applies to --mode scalable only\n"
        assert not os.path.exists(model_path)

    def test_train_with_several_cluster_counts_is_usage_error(self, toy_file, tmp_path,
                                                              capsys):
        # bounds sweeps a comma list of counts; train fits one model.
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        code, out, err = run(["train", "--mode", "scalable", "--clusters", "3,5",
                              "--data", path, "--model", model_path], capsys)
        assert (code, out) == (1, "")
        assert err == "usage error: train takes one --clusters count, got '3,5'\n"
        assert not os.path.exists(model_path)

    @pytest.mark.parametrize("argv", [
        ["train", "--mode", "scalable", "--clusters", "2", "--seed", "-1"],
        ["train", "--cv", "--folds", "2", "--seed", "-1"],
        ["bounds", "--clusters", "2", "--seed", "-1"],
        ["eval", "--repeats", "3", "--seed", "-2"],
    ], ids=["train-scalable", "train-cv", "bounds", "eval"])
    def test_negative_seed_is_usage_error(self, argv, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        if argv[0] == "eval":
            assert run(["train", "--data", path, "--t-max", "5", "--model", model_path],
                       capsys)[0] == 0
        if argv[0] != "bounds":
            argv = argv + ["--model", model_path]
        code, out, err = run(argv + ["--data", path], capsys)
        assert (code, out) == (1, "")
        assert err == (f"usage error: argument --seed: must be a nonnegative integer, "
                       f"got '{argv[argv.index('--seed') + 1]}'\n")
        assert os.path.exists(model_path) == (argv[0] == "eval")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--data", "d", "--task", "svm"],
        ["bounds", "--data", "d", "--mode", "exact"],
        ["bounds", "--data", "d", "--cv"],
        ["bounds", "--data", "d", "--folds", "3"],
        ["bounds", "--data", "d", "--epsilon", "7"],
        ["bounds", "--data", "d", "--task", "svr", "--cv", "--folds", "1", "--epsilon", "7"],
        ["predict", "--model", "m", "--data", "d", "--seed", "1"],
        ["grid", "--model", "m", "--grid", "0,1,0,1,4", "--seed", "1"],
    ], ids=["bounds-task", "bounds-mode", "bounds-cv", "bounds-folds", "bounds-epsilon",
            "bounds-svr-cv", "predict-seed", "grid-seed"])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: unrecognized arguments: --")

    @pytest.mark.parametrize("argv, command", [
        (["bounds", "--clusters", "2"], "bounds"),
        (["train", "--mode", "scalable", "--clusters", "2"], "train --mode scalable"),
    ], ids=["bounds", "train-scalable"])
    def test_decomposition_nonzero_tau_is_usage_error(self, argv, command, toy_file,
                                                      tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        if argv[0] == "train":
            argv = argv + ["--model", model_path]
        code, out, err = run(argv + ["--data", path, "--tau", "0.01"], capsys)
        assert (code, out) == (1, "")
        assert err == f"usage error: {command} solves at tau = 0, got --tau 0.01\n"
        assert not os.path.exists(model_path)

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_eval_repeats_below_one_is_usage_error(self, repeats, toy_file, tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        assert run(["train", "--data", path, "--t-max", "5", "--model", model_path],
                   capsys)[0] == 0
        code, out, err = run(["eval", "--model", model_path, "--data", path,
                              "--repeats", repeats], capsys)
        assert (code, out) == (1, "")
        assert err == f"usage error: --repeats must be at least 1, got {repeats}\n"

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_svr_non_finite_epsilon_is_usage_error(self, epsilon, toy_file, tmp_path,
                                                   monkeypatch, capsys):
        # The check comes before the kernel is built and checked.
        from adakern import svr
        built = []
        for name in ("gaussian_gram", "_check_psd_gram"):
            monkeypatch.setattr(svr, name, lambda *args, name=name: built.append(name))
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        code, out, err = run(["train", "--task", "svr", "--data", path, "--t-max", "5",
                              "--epsilon", epsilon, "--model", model_path], capsys)
        assert (code, out, built) == (1, "", [])
        assert err.startswith("usage error: epsilon must be nonnegative and finite")
        assert not os.path.exists(model_path)

    @pytest.mark.parametrize("command", ["train", "bounds"])
    def test_solver_flags_are_checked_before_the_data_is_read(self, command, tmp_path, capsys):
        argv = [command, "--data", str(tmp_path / "nonexistent"), "--C", "-1"]
        if command == "train":
            argv += ["--model", str(tmp_path / "m.txt")]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", "usage error: C must be positive and finite, got -1.0\n")

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-5"])
    def test_bounds_bad_kappa_is_usage_error(self, kappa, toy_file, capsys):
        path, _ = toy_file
        code, out, err = run(["bounds", "--data", path, "--tau", "0", "--eta", "10",
                              "--t-max", "5", "--clusters", "2", "--kappa", kappa], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: kappa must be nonnegative and finite")

    @pytest.mark.parametrize("kappa", ["nan", "-1"])
    def test_bounds_bad_kappa_stops_before_any_solve(self, kappa, toy_file, monkeypatch,
                                                     capsys):
        from adakern import scale

        def fail(*args, **kwargs):
            raise AssertionError("solved before the kappa check")

        for name in ("exact_reference", "solve_blocks", "kmeans_partition"):
            monkeypatch.setattr(scale, name, fail)
        monkeypatch.setattr("adakern.cli.resolve_eta", fail)
        path, _ = toy_file
        code, out, err = run(["bounds", "--data", path, "--clusters", "2",
                              "--kappa", kappa], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: kappa must be nonnegative and finite")

    @pytest.mark.parametrize("argv, message", [
        (["--epsilon", "7"], "--epsilon applies to --task svr only"),
        (["--task", "svm", "--epsilon", "0.1"], "--epsilon applies to --task svr only"),
        (["--folds", "3"], "--folds applies to --cv only"),
        (["--task", "svr", "--folds", "3"], "--folds applies to --cv only"),
        (["--mode", "scalable", "--task", "svr"], "scalable mode applies to the svm task only"),
    ], ids=["svm-epsilon", "explicit-svm-epsilon", "folds-without-cv", "svr-folds-without-cv",
            "scalable-svr"])
    def test_train_flag_that_is_not_read_is_usage_error(self, argv, message, toy_file,
                                                        tmp_path, capsys):
        path, _ = toy_file
        model_path = str(tmp_path / "m.txt")
        code, out, err = run(["train", "--data", path, "--model", model_path] + argv, capsys)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert not os.path.exists(model_path)

    def test_unwritable_model_path_is_data_error(self, toy_file, tmp_path, capsys):
        path, _ = toy_file
        code, _, err = run(["train", "--data", path, "--t-max", "5",
                            "--model", str(tmp_path / "missing" / "m.txt")], capsys)
        assert code == 2 and err.startswith("data error: cannot write model")

    def test_numerical_error_exits_3(self, monkeypatch, capsys):
        import adakern.cli as cli
        from adakern.errors import NumericalError

        def failing(args):
            raise NumericalError("the solve diverged")

        monkeypatch.setitem(cli.COMMANDS, "predict", failing)
        code, out, err = run(["predict", "--model", "m", "--data", "d"], capsys)
        assert (code, out, err) == (3, "", "numerical error: the solve diverged\n")

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
    from adakern.svm import accuracy, grid_search, train
    sigma, C, table = grid_search(ds.X, ds.y, [0.25, 1.0], [1.0], folds=4, seed=0,
                                  config=SolverConfig(C=1.0, tau=0.01), fit=train,
                                  score=accuracy)
    assert sigma in (0.25, 1.0) and C == 1.0
    assert len(table) == 2
    best_row = max(table, key=lambda r: r[2])
    assert best_row[0] == sigma


def test_scalable_cv_scores_decomposition_models(toy_file, tmp_path, capsys, monkeypatch):
    # --mode scalable --cv scores train_scalable models, with the run's
    # --clusters and --seed, never exact-mode ones.
    import adakern.cli as cli
    from adakern import scale, svm

    calls = []
    original = scale.train_scalable

    def recording(X, y, sigma, config, v, seed):
        calls.append((X.shape[0], v, seed))
        return original(X, y, sigma, config, v, seed)

    def forbidden(*args, **kwargs):
        raise AssertionError("the grid trained an exact-mode model")

    monkeypatch.setattr(scale, "train_scalable", recording)
    monkeypatch.setattr(svm, "train", forbidden)
    monkeypatch.setattr(cli, "CV_GRID", [0.5, 1.0])
    path, _ = toy_file
    code, out, _ = run(["train", "--data", path, "--mode", "scalable", "--clusters", "2",
                        "--seed", "3", "--cv", "--folds", "2", "--t-max", "30",
                        "--model", str(tmp_path / "m.model")], capsys)
    assert code == 0
    # 2 sigmas x 2 Cs x 2 folds on 20 points each, then the model on all 40
    assert calls == [(20, 2, 3)] * 8 + [(40, 2, 3)]
    assert "\nprox_steps,0\n" in out


class TestCrossValidation:
    """train --cv runs svm.grid_search with the run's trainer, config and score."""

    @pytest.mark.parametrize("task", ["svm", "svr", "scalable"])
    def test_selects_what_grid_search_selects(self, task, tmp_path, capsys, monkeypatch):
        import adakern.cli as cli
        from adakern import scale, svr
        from adakern.data import gen_step
        from adakern.svm import grid_search, train

        def svr_fit(X, y, sigma, config):
            return svr.train_svr(X, y, sigma, config, epsilon=0.05)

        def scalable_fit(X, y, sigma, config):
            return scale.train_scalable(X, y, sigma, config, 2, 1)

        flags, fit = {
            "svm": ([], train),
            "svr": (["--task", "svr", "--epsilon", "0.05"], svr_fit),
            "scalable": (["--mode", "scalable", "--clusters", "2"], scalable_fit),
        }[task]
        ds = gen_step(np.linspace(-5.0, 5.0, 30)) if task == "svr" else gen_two_class_toy(40, 3)
        path = str(tmp_path / "d.libsvm")
        write_dataset(path, ds)
        grid = [0.25, 1.0]
        monkeypatch.setattr(cli, "CV_GRID", grid)
        argv = ["train", "--data", path, "--cv", "--folds", "3", "--t-max", "30", "--seed", "1",
                "--model", str(tmp_path / "m.model")] + flags
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines())
        config = cli._config_from_args(cli.build_parser().parse_args(argv))
        sigma, C, _ = grid_search(ds.X, ds.y, grid, grid, 3, 1, config, fit, cli._score,
                                  lower_is_better=task == "svr")
        assert (float(rows["sigma"]), float(rows["C"])) == (sigma, C)

    def test_cells_train_at_the_run_eta(self, toy_file, tmp_path, capsys, monkeypatch):
        import adakern.cli as cli
        from adakern import svm

        etas = []
        original = svm.train

        def recording(X, y, sigma, config):
            etas.append(config.eta)
            return original(X, y, sigma, config)

        monkeypatch.setattr(svm, "train", recording)
        monkeypatch.setattr(cli, "CV_GRID", [0.5, 1.0])
        path, _ = toy_file
        code, out, _ = run(["train", "--data", path, "--cv", "--folds", "2", "--t-max", "20",
                            "--eta", "5", "--model", str(tmp_path / "m.model")], capsys)
        assert code == 0 and "\neta,5.0\n" in out
        # 2 sigmas x 2 Cs x 2 folds, then the model on all points
        assert etas == [5.0] * 9

    @pytest.mark.parametrize("cv", [[], ["--cv", "--folds", "2"]], ids=["fit", "cv"])
    def test_more_clusters_than_points_trains_nothing(self, cv, toy_file, tmp_path, capsys,
                                                      monkeypatch):
        from adakern import scale

        def forbidden(*args, **kwargs):
            raise AssertionError("a decomposition model was trained")

        monkeypatch.setattr(scale, "train_scalable", forbidden)
        path, ds = toy_file
        n = len(ds.y)
        model_path = str(tmp_path / "m.model")
        code, out, err = run(["train", "--data", path, "--mode", "scalable", "--clusters",
                              str(n + 1), "--model", model_path] + cv, capsys)
        assert (code, out) == (1, "")
        assert err == (f"usage error: --clusters must lie between 1 and the {n} training "
                       f"points, got {n + 1}\n")
        assert not os.path.exists(model_path)


def test_svr_cv_selects_from_grid():
    # tiny grid exercise of the --task svr --cv path through the library API
    from adakern.data import gen_step
    from adakern.solver import SolverConfig
    from adakern.svm import grid_search
    from adakern.svr import rmse, train_svr
    ds = gen_step(np.linspace(-5.0, 5.0, 30))

    def fit(X, y, sigma, config):
        return train_svr(X, y, sigma, config, epsilon=0.02)

    def score(model, X, y):
        return rmse(model.predict(X), y)

    sigma, C, table = grid_search(ds.X, ds.y, [0.05, 2.0], [0.5, 2.0], folds=3, seed=0,
                                  config=SolverConfig(C=1.0, t_max=100), fit=fit, score=score,
                                  lower_is_better=True)
    assert [row[:2] for row in table] == [(0.05, 0.5), (0.05, 2.0), (2.0, 0.5), (2.0, 2.0)]
    assert all(np.isfinite(row[2]) and row[2] > 0 for row in table)
    # the narrow kernel fits the step; the smallest mean error wins
    best_row = min(table, key=lambda r: r[2])
    assert (sigma, C) == best_row[:2] and sigma == 0.05


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """(model text, data path) for an exact SVM, a scalable SVM and an SVR model.

    Also the scalable model as a format 3 file with its F blocks, and an
    exact SVM trained at tau = 0, whose format 4 file holds no F.
    """
    from adakern.scale import train_scalable
    from adakern.solver import SolverConfig
    from adakern.svm import train
    from adakern.svr import train_svr

    root = tmp_path_factory.mktemp("models")
    X, y = two_blobs(12, seed=8)
    config = SolverConfig(C=1.0, tau=0.01, eta=1.0, t_max=30)
    classes = str(root / "classes.libsvm")
    write_dataset(classes, Dataset(X=X, y=y))
    targets = str(root / "targets.libsvm")
    write_dataset(targets, Dataset(X=X, y=X[:, 0]))
    cases = {}
    scalable = train_scalable(X, y, 0.6, config, 3, 0)
    for name, model, data in [
        ("svm", train(X, y, 0.6, config), classes),
        ("scalable", scalable, classes),
        ("svr", train_svr(X, X[:, 0], 0.6, config, epsilon=0.05), targets),
        ("svm-tau0", train(X, y, 0.6, replace(config, tau=0.0)), classes),
    ]:
        path = str(root / f"{name}.model")
        save_model(model, path)
        with open(path) as stream:
            cases[name] = (stream.read(), data)
    cases["scalable-v3"] = (_format_3_blocks(cases["scalable"][0], scalable), classes)
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
    @pytest.mark.parametrize("name", ["svm", "scalable", "svr", "scalable-v3", "svm-tau0"])
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
        lambda t: t.replace(f"adakern-model {FORMAT_VERSION}", "adakern-model x", 1),
        lambda t: t.replace("\nalpha ", "\nalpha 0.5 ", 1),
        lambda t: re.sub(r"\ny \S+ ", "\ny ", t, count=1),
        lambda t: t.replace("\nscaler_min ", "\nscaler_min 0.5 ", 1),
        lambda t: re.sub(r"\neta \S+", "\neta inf", t, count=1),
        lambda t: t.replace("\nclusters 1\n", "\nclusters 7\n"),
    ], ids=["version-x", "alpha-longer-than-n", "y-shorter-than-n", "scaler-longer-than-d",
            "eta-inf", "exact-mode-clusters-7"])
    def test_reported_defects_raise_data_error(self, mutate, saved_models, tmp_path):
        text, _ = saved_models["svm"]
        mutated = mutate(text)
        assert mutated != text
        with pytest.raises(DataError):
            load_model(_write(str(tmp_path / "bad.model"), mutated))


    @pytest.mark.parametrize("mutate", [
        lambda t: re.sub(r"\nW [^\n]*", "", t, count=1),
        lambda t: re.sub(r"(\nW [^\n]*) \S+\n", r"\1\n", t, count=1),
        lambda t: re.sub(r"(\nW [^\n]*)\n", r"\1 0.5\n", t, count=1),
        lambda t: re.sub(r"\nrank \d+", "", t),
        lambda t: re.sub(r"(\nrank \d+)", r"\1\1", t),
        lambda t: re.sub(r"\nrank \d+", "\nrank 0", t),
        lambda t: re.sub(r"\nrank \d+", "\nrank -1", t),
        lambda t: t.replace("\nmeta_iterations", "\nF" + " 1.0" * 12 + "\nmeta_iterations"),
        lambda t: t.replace(f"adakern-model {FORMAT_VERSION}", "adakern-model 1", 1),
    ], ids=["W-row-missing", "W-row-truncated", "W-row-too-wide", "rank-missing",
            "rank-repeated", "rank-zero-with-rows", "rank-negative", "W-and-F-rows",
            "factor-in-format-1"])
    def test_factor_defects_exit_2(self, mutate, saved_models, tmp_path, capsys):
        text, data = saved_models["svm"]
        assert "\nrank 3\n" in text
        mutated = mutate(text)
        assert mutated != text
        code, _, err = run(["predict", "--model", _write(str(tmp_path / "bad.model"), mutated),
                            "--data", data], capsys)
        assert (code, err.startswith("data error")) == (2, True)

    @pytest.mark.parametrize("name, mutate, message", [
        ("svm", lambda t: "\n\n\n", "empty model file"),
        ("svm", lambda t: re.sub(r"\nn \d+", "\nn 0", t, count=1), "bad sizes n = 0"),
        ("svm", lambda t: re.sub(r"\nsigma \S+", "\nsigma 0", t, count=1), "sigma positive"),
        ("svm", lambda t: re.sub(r"\nbias \S+", "\nbias inf", t, count=1), "must be finite"),
        ("svm", lambda t: re.sub(r"\nalpha \S+", "\nalpha nan", t, count=1),
         "stored arrays contain non-finite values"),
        ("svm", lambda t: re.sub(r"\nX \S+", "\nX nan", t, count=1),
         "stored X contains non-finite values"),
        ("svr", lambda t: t.replace("\nmode exact\n", "\nmode scalable\nassignment"
                                    + " 0" * 12 + "\n"), "needs an SVM model"),
        ("svm", lambda t: t.replace("\nmeta_iterations", "\nblock 0 12\nmeta_iterations"),
         "F blocks without a cluster assignment"),
        ("scalable-v3", lambda t: re.sub(r"\nblock 0 (\d+)",
                                         lambda m: f"\nblock 0 {int(m.group(1)) + 1}", t),
         "block 0 declares"),
        ("svr", lambda t: re.sub(r"\nepsilon \S+", "\nepsilon -1.0", t, count=1),
         "bad scalar value: epsilon must be nonnegative and finite, got -1.0"),
    ], ids=["blank-lines", "n-zero", "sigma-zero", "bias-inf", "alpha-nan", "X-nan",
            "svr-assignment", "block-without-assignment", "block-size-mismatch",
            "epsilon-negative"])
    def test_rejected_values_exit_2(self, name, mutate, message, saved_models, tmp_path,
                                    capsys):
        text, data = saved_models[name]
        mutated = mutate(text)
        assert mutated != text
        code, out, err = run(["predict", "--model", _write(str(tmp_path / "bad.model"), mutated),
                              "--data", data], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("data error:") and message in err and "Traceback" not in err

    def test_unreadable_model_file_exits_2(self, saved_models, tmp_path, capsys):
        text, data = saved_models["svm"]
        binary = str(tmp_path / "binary.model")
        with open(binary, "wb") as stream:
            stream.write(text.encode()[:200] + b"\xff\xfe" + text.encode()[200:])
        for path in (binary, str(tmp_path / "missing.model")):
            code, _, err = run(["predict", "--model", path, "--data", data], capsys)
            assert (code, err.startswith("data error")) == (2, True)


def _data_mutations(text, fmt, rng):
    """Mutated copies (bytes) of a libsvm or CSV data file; none of them parses."""
    sep = ":" if fmt == "libsvm" else ","
    first = 0 if fmt == "libsvm" else text.index("\n") + 1  # past the CSV header
    cuts = [i for i, ch in enumerate(text) if ch == sep and i >= first]
    for cut in sorted(set(rng.choice(cuts, 10).tolist())):
        yield f"truncated after byte {cut}", text[:cut + 1].encode()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(" " if fmt == "libsvm" else ",")
        join = " ".join if fmt == "libsvm" else ",".join
        pos = int(rng.integers(len(line) + 1))
        edits = {"non-UTF-8 byte": (line[:pos].encode() + b"\xff" + line[pos:].encode()),
                 "cell appended": join(cells + ["0.5"]).encode()}
        if fmt == "libsvm" or i > 0:
            k = int(rng.integers(len(cells)))
            infinite = cells[k].split(":")[0] + ":nan" if fmt == "libsvm" and k else "inf"
            for name, bad in (("garbled", "x1"), ("not finite", infinite)):
                edits[f"cell {k} {name}"] = join(cells[:k] + [bad] + cells[k + 1:]).encode()
        if fmt == "libsvm" and len(cells) > 2:
            edits["features swapped"] = join([cells[0], cells[2], cells[1]] + cells[3:]).encode()
        if fmt == "csv" and i > 0:
            edits["last cell dropped"] = join(cells[:-1]).encode()
        for what, edited in edits.items():
            mutated = [ln.encode() for ln in lines[:i]] + [edited] + [
                ln.encode() for ln in lines[i + 1:]]
            yield f"line {i} {what}", b"\n".join(mutated) + b"\n"
    if fmt == "libsvm":
        # A dense matrix with 1e11 columns cannot be allocated.
        yield "huge feature index", (lines[0] + " 99999999999:1\n" + "\n".join(lines[1:])).encode()


class TestMalformedDataFiles:
    @pytest.mark.parametrize("fmt", ["libsvm", "csv"])
    def test_every_mutation_exits_2(self, fmt, saved_models, tmp_path, capsys):
        X, y = two_blobs(12, seed=8)
        if fmt == "libsvm":
            text = "".join(f"{int(label):+d} 1:{a:.17e} 2:{b:.17e}\n"
                           for (a, b), label in zip(X, y))
        else:
            text = "x0,x1,label\n" + "".join(f"{a:.17e},{b:.17e},{int(label)}\n"
                                               for (a, b), label in zip(X, y))
        model = saved_models["svm"][0]
        model_path = _write(str(tmp_path / "svm.model"), model)
        data = str(tmp_path / f"data.{fmt}")
        commands = (["train", "--data", data, "--format", fmt,
                     "--model", str(tmp_path / "out.model")],
                    ["predict", "--model", model_path, "--data", data, "--format", fmt])
        _write(data, text)
        assert [run(argv, capsys)[0] for argv in commands] == [0, 0]
        rng = np.random.default_rng(17)
        count = 0
        for what, mutated in _data_mutations(text, fmt, rng):
            with open(data, "wb") as stream:
                stream.write(mutated)
            for argv in commands:
                code, _, err = run(argv, capsys)
                assert (code, err.startswith("data error")) == (2, True), (argv[0], what)
            count += 1
        assert count > 50

    def test_non_utf8_stdin_exits_2(self, tmp_path, capsys, monkeypatch):
        # Read as bytes and decoded as UTF-8, whatever the locale's encoding.
        text = "+1 1:0.5 2:\xff\n-1 1:0.1 2:0.2\n"
        stdin = io.TextIOWrapper(io.BytesIO(text.encode("latin-1")),
                                 encoding="latin-1", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run(["train", "--data", "-", "--model", str(tmp_path / "m.txt")],
                           capsys)
        assert (code, err.startswith("data error"), "not UTF-8" in err) == (2, True, True)


def _write(path, text):
    with open(path, "w") as stream:
        stream.write(text)
    return path


class TestPredictionInputWidth:
    """predict and eval read a libsvm test file's absent trailing features as zeros."""

    @pytest.fixture(params=["svm", "svr"])
    def model_path(self, request, tmp_path, capsys):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1.0, 1.0, (30, 3))
        if request.param == "svm":
            ds = Dataset(X, np.where(X[:, 0] + X[:, 2] > 0, 1.0, -1.0))
        else:
            ds = Dataset(X, X[:, 0] - X[:, 2])
        data = str(tmp_path / "train.libsvm")
        write_dataset(data, ds)
        path = str(tmp_path / "m.txt")
        code, _, _ = run(["train", "--task", request.param, "--data", data, "--t-max", "30",
                          "--model", path], capsys)
        assert code == 0
        return path

    ROWS = [(1, 0.3, -0.2), (-1, -0.7, 0.5), (1, 0.1, 0.9)]

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_rows_without_the_last_index_read_it_as_zero(self, command, model_path, tmp_path,
                                                         capsys):
        sparse = _write(str(tmp_path / "sparse.libsvm"),
                        "".join(f"{y:+d} 1:{a} 2:{b}\n" for y, a, b in self.ROWS))
        dense = _write(str(tmp_path / "dense.libsvm"),
                       "".join(f"{y:+d} 1:{a} 2:{b} 3:0\n" for y, a, b in self.ROWS))
        code, out, err = run([command, "--model", model_path, "--data", sparse], capsys)
        assert (code, err) == (0, "")
        assert run([command, "--model", model_path, "--data", dense], capsys) == (0, out, "")

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("fmt, text, got", [
        ("libsvm", "+1 1:0.3 4:0.5\n-1 2:0.1\n", 4),
        ("csv", "0.3,0.5,1\n0.1,0.2,-1\n", 2),
    ], ids=["libsvm-larger-index", "csv-fewer-columns"])
    def test_other_widths_exit_2(self, command, fmt, text, got, model_path, tmp_path, capsys):
        path = _write(str(tmp_path / f"test.{fmt}"), text)
        code, out, err = run([command, "--model", model_path, "--data", path,
                              "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"data error: feature dimension mismatch: model has 3, got {got}\n"
