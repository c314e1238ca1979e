"""The forms of the adaptive matrix: columns equal the dense matrix's bit for
bit, blocks are formed once, and saving, loading or predicting forms no
n x n array; bulk prediction holds no more than 16 bytes per n x m entry."""

import tracemalloc

import numpy as np
import pytest

from adakern import adaptive
from adakern.adaptive import ClosedForm, Dense, Factor, Partition
from adakern.data import fit_minmax, gen_two_class_toy
from adakern.persist import load_model, save_model
from adakern.scale import train_scalable
from adakern.solver import SolverConfig
from adakern.svm import SvmModel, train

from conftest import two_blobs
from test_cli import FORMAT_1_SVM, _format_3_blocks, _write


def assert_columns_match(form):
    """columns(idx) against dense()[:, idx]: empty, repeated, past one block of 256, reversed."""
    F = form.dense()
    n = F.shape[0]
    rng = np.random.default_rng(0)
    for idx in ([], [n - 1], [n - 1, n - 1, 0], list(rng.integers(0, n, 600)),
                list(range(n))[::-1]):
        columns = form.columns(idx)
        expected = np.ascontiguousarray(F[:, idx])
        assert columns.shape == expected.shape == (n, len(idx))
        assert np.ascontiguousarray(columns).tobytes() == expected.tobytes()


class TestColumns:
    # n = 100 and rank 40 are shapes at which BLAS computes W W[idx]' with
    # other bits than W W' for a few columns.
    @pytest.mark.parametrize("rank", [0, 1, 5, 40])
    def test_factor(self, rank):
        W = np.random.default_rng(rank).normal(size=(100, rank))
        assert_columns_match(Factor(W))

    def test_frozen_factor(self):
        form = Factor(np.ones((100, 1)))
        assert_columns_match(form)
        assert np.array_equal(form.dense(), np.ones((100, 100)))

    @pytest.mark.parametrize("v", [1, 3])
    def test_closed_form(self, v):
        X, y = two_blobs(40, seed=21)
        model = train_scalable(X, y, 0.6, SolverConfig(C=1.0, tau=0.0, eta=0.5, t_max=80), v, 0)
        assert isinstance(model.adaptive, ClosedForm)
        assert_columns_match(model.adaptive)

    def test_dense_from_a_format_1_file(self, tmp_path):
        form = load_model(_write(str(tmp_path / "v1.model"), FORMAT_1_SVM)).adaptive
        assert isinstance(form, Dense)
        assert_columns_match(form)

    def test_dense_from_a_format_3_block_file(self, tmp_path):
        X, y = two_blobs(40, seed=21)
        model = train_scalable(X, y, 0.6, SolverConfig(C=1.0, tau=0.0, eta=0.5, t_max=80), 3, 0)
        path = str(tmp_path / "v4.model")
        save_model(model, path)
        with open(path) as stream:
            v3 = _format_3_blocks(stream.read(), model)
        form = load_model(_write(str(tmp_path / "v3.model"), v3)).adaptive
        assert isinstance(form, Dense) and np.array_equal(form.dense(), model.F)
        assert_columns_match(form)


class TestBlocksFormedOnce:
    """A closed form forms each cluster's Gram block once, on first use."""

    def count_grams(self, model, probe, monkeypatch):
        """Blocks formed by a first decision_function, and by it and two more."""
        calls = []
        original = adaptive.gaussian_gram

        def counting(X, sigma):
            calls.append(len(X))
            return original(X, sigma)

        monkeypatch.setattr(adaptive, "gaussian_gram", counting)
        first = model.decision_function(probe)
        formed = len(calls)
        assert np.array_equal(model.decision_function(probe), first)
        model.decision_function(probe[:1])
        return formed, len(calls)

    def test_three_clusters(self, monkeypatch):
        X, y = two_blobs(40, seed=21)
        model = train_scalable(X, y, 0.6, SolverConfig(C=1.0, tau=0.0, eta=0.5, t_max=80), 3, 0)
        assert self.count_grams(model, X, monkeypatch) == (3, 3)

    def test_exact_mode_at_tau_zero(self, monkeypatch):
        X, y = two_blobs(40, seed=21)
        model = train(X, y, 0.6, SolverConfig(C=1.0, tau=0.0, eta=0.5, t_max=80))
        assert isinstance(model.adaptive, ClosedForm)
        assert self.count_grams(model, X, monkeypatch) == (1, 1)

    def test_dense_reuses_the_blocks(self, monkeypatch):
        X, y = two_blobs(40, seed=21)
        model = train_scalable(X, y, 0.6, SolverConfig(C=1.0, tau=0.0, eta=0.5, t_max=80), 3, 0)
        form = model.adaptive
        expected = ClosedForm(form.X, form.w, form.sigma, form.eta, form.partition).dense()
        assert self.count_grams(model, X, monkeypatch) == (3, 3)
        # Forming a block again would call None.
        monkeypatch.setattr(adaptive, "gaussian_gram", None)
        assert np.array_equal(model.F, expected)


N = 2000
# A quarter of one n x n float64 array.
BUDGET = 2 * N * N


def large_model(form_name):
    """An SVM model of N training points holding F as a factor or in closed form."""
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(N, 2))
    y = np.where(rng.uniform(size=N) < 0.5, 1.0, -1.0)
    alpha = rng.uniform(size=N)
    fields = dict(X=X, y=y, alpha=alpha, bias=0.1, sigma=0.3, scaler=fit_minmax(X))
    if form_name == "factor":
        return SvmModel(adaptive=Factor(rng.normal(size=(N, 3))),
                        config=SolverConfig(C=1.0, tau=0.01, eta=2.0), **fields)
    partition = Partition(np.arange(N) % 20, 20)
    return SvmModel(adaptive=ClosedForm(X, y * alpha, 0.3, 2.0, partition),
                    config=SolverConfig(C=1.0, tau=0.0, eta=2.0),
                    assignment=partition.assignment, **fields)


def peak_bytes(call):
    """The peak of traced allocations while ``call`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("form_name", ["factor", "closed-form"])
def test_save_and_load_form_no_n_by_n_array(form_name, tmp_path):
    model = large_model(form_name)
    path = str(tmp_path / "m.model")
    assert peak_bytes(lambda: save_model(model, path))[0] < BUDGET
    peak, loaded = peak_bytes(lambda: load_model(path))
    assert peak < BUDGET and type(loaded.adaptive) is type(model.adaptive)
    probe = model.X[:5] + 0.01
    assert np.array_equal(loaded.decision_function(probe), model.decision_function(probe))


@pytest.mark.parametrize("form_name", ["factor", "closed-form"])
def test_predicting_five_points_forms_no_n_by_n_array(form_name):
    model = large_model(form_name)
    probe = model.X[:5] + 0.01
    peak, decisions = peak_bytes(lambda: model.decision_function(probe))
    assert peak < BUDGET and decisions.shape == (5,)


# Bulk prediction holds the n x m distances (8 bytes an entry), their int32
# row ranks (4) and chunks.
BULK_N = 1000
BYTES_PER_ENTRY = 16


def bulk_batch(name):
    """A 1000-point model and a batch: 4000 points off two arcs, or the
    oracle's grid case scaled up, a 61 x 61 lattice over points quantized
    to a step of 0.2 that lies on it (rich in equal and near-equal
    distances)."""
    rng = np.random.default_rng(5)
    if name == "two-arc":
        data = gen_two_class_toy(BULK_N + 4000, seed=5)
        X, probe = data.X[:BULK_N], data.X[BULK_N:]
    else:
        X = np.round(rng.uniform(-5, 5, (BULK_N, 2))) / 5
        uu, vv = np.meshgrid(np.linspace(-1.0, 1.0, 61), np.linspace(-1.0, 1.0, 61), indexing="ij")
        probe = np.column_stack([uu.ravel(), vv.ravel()])
    y = np.where(rng.uniform(size=BULK_N) < 0.5, 1.0, -1.0)
    model = SvmModel(X=X, y=y, alpha=rng.uniform(size=BULK_N), bias=0.1, sigma=0.3,
                     scaler=fit_minmax(X), adaptive=Factor(rng.normal(size=(BULK_N, 3))),
                     config=SolverConfig(C=1.0, tau=0.01, eta=2.0))
    return model, probe


@pytest.mark.parametrize("name", ["two-arc", "lattice"])
def test_bulk_prediction_peaks_below_16_bytes_per_entry(name):
    model, probe = bulk_batch(name)
    entries = BULK_N * len(probe)
    peak, decisions = peak_bytes(lambda: model.decision_function(probe))
    assert decisions.shape == (len(probe),)
    assert peak < BYTES_PER_ENTRY * entries, peak / entries
