import io

import numpy as np
import pytest

from adakern.data import (
    REGRESSION,
    Dataset,
    apply_minmax,
    fit_minmax,
    gen_2d,
    gen_step,
    gen_two_class_toy,
    inverse_minmax,
    kfold,
    parse_csv,
    parse_libsvm,
    step_value,
    surface_value,
)
from adakern.errors import DataError, ParameterError

from conftest import write_libsvm


class TestLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:2\n-1 2:1")
        assert np.allclose(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(ds.y, [1.0, -1.0])

    def test_empty_feature_list_is_zero_row(self):
        ds = parse_libsvm("+1 1:1\n-1\n")
        assert np.allclose(ds.X[1], 0.0)

    def test_round_trip(self, rng):
        X = rng.normal(size=(5, 4))
        X[1, 2] = 0.0
        y = np.where(rng.uniform(size=5) > 0.5, 1.0, -1.0)
        y[0] = 1.0
        y[1] = -1.0
        ds = Dataset(X=X, y=y)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        again = parse_libsvm(buf.getvalue())
        assert np.max(np.abs(again.X - X)) < 1e-12
        assert np.array_equal(again.y, y)

    def test_regression_round_trip(self, rng):
        ds = Dataset(X=rng.normal(size=(4, 2)), y=rng.normal(size=4))
        buf = io.StringIO()
        write_libsvm(ds, buf)
        again = parse_libsvm(buf.getvalue(), mode=REGRESSION)
        assert np.max(np.abs(again.y - ds.y)) < 1e-12

    def test_malformed_token_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 2:oops\n")

    def test_non_ascending_indices(self):
        with pytest.raises(DataError, match="ascending"):
            parse_libsvm("+1 3:1 2:1")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_libsvm("+1 1:inf")

    def test_bad_classification_labels(self):
        with pytest.raises(DataError):
            parse_libsvm("3 1:1\n-1 1:2")

    def test_comment_and_blank_lines_between_rows_skipped(self):
        ds = parse_libsvm("# header\n+1 1:0.5 3:2\n\n   \n  # note\n-1 2:1\n")
        assert np.allclose(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(ds.y, [1.0, -1.0])

    def test_zero_one_labels_coerced_with_warning(self):
        with pytest.warns(UserWarning, match="coercing"):
            ds = parse_libsvm("1 1:1\n0 1:2")
        assert np.array_equal(ds.y, [1.0, -1.0])


class TestCsv:
    def test_basic(self):
        ds = parse_csv("1.0,2.0,1\n3.0,4.0,-1\n")
        assert np.allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.y, [1.0, -1.0])

    def test_header_detected(self):
        ds = parse_csv("a,b,label\n1,2,1\n3,4,-1\n")
        assert np.array_equal(ds.y, [1.0, -1.0])
        assert ds.X.shape == (2, 2)

    def test_blank_lines_skipped(self):
        ds = parse_csv("\na,b,label\n\n1.0,2.0,1\n   \n3.0,4.0,-1\n\n")
        assert np.allclose(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.y, [1.0, -1.0])

    def test_ragged_row_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_csv("1,2,1\n3,4,-1\n5,6\n")

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="line 2"):
            parse_csv("1,2,1\n1,nan,-1\n")

    @pytest.mark.parametrize("text, line", [("1,nan,1\n2,3,-1\n", 1),
                                            ("a,b,label\n1,nan,1\n2,3,-1\n", 2)])
    def test_first_data_row_is_checked_like_the_others(self, text, line):
        with pytest.raises(DataError, match=f"^line {line}: non-finite value$"):
            parse_csv(text)


class TestMinMax:
    def test_training_output_in_unit_box(self, rng):
        X = rng.normal(0, 5, (20, 3))
        scaler = fit_minmax(X)
        Xs = apply_minmax(scaler, X)
        assert Xs.min() >= 0.0 and Xs.max() <= 1.0

    def test_constant_feature_maps_to_zero(self):
        X = np.array([[1.0, 7.0], [2.0, 7.0]])
        Xs = apply_minmax(fit_minmax(X), X)
        assert np.allclose(Xs[:, 1], 0.0)

    def test_inverse_round_trip(self, rng):
        X = rng.normal(0, 3, (10, 2))
        scaler = fit_minmax(X)
        back = inverse_minmax(scaler, apply_minmax(scaler, X))
        assert np.max(np.abs(back - X)) < 1e-12

    def test_test_data_not_refit(self):
        X = np.array([[0.0], [1.0]])
        scaler = fit_minmax(X)
        assert apply_minmax(scaler, np.array([[2.0]]))[0, 0] == 2.0


class TestKfold:
    def test_partition_properties(self):
        folds = kfold(23, 5, seed=3)
        sizes = sorted(len(f) for f in folds)
        assert max(sizes) - min(sizes) <= 1
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(23))

    def test_deterministic(self):
        a = kfold(40, 4, seed=9)
        b = kfold(40, 4, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            kfold(5, 1, seed=0)
        with pytest.raises(ParameterError):
            kfold(5, 6, seed=0)


class TestStepFunction:
    def test_zero_at_origin(self):
        assert step_value(np.array([0.0]))[0] == 0.0

    def test_full_step_at_period(self):
        assert step_value(np.array([2.0]), s=3.0, w=2.0)[0] == 3.0

    def test_matches_alternative_association(self, rng):
        x = rng.uniform(-5, 5, 50)
        s, w, a = 3.0, 2.0, 0.05
        direct = step_value(x, s, w, a)
        steps = np.floor(x / w)
        other = (np.tanh(a * (x / w - steps - 0.5)) / (2.0 * np.tanh(a / 2.0))
                 + 0.5 + steps) * s
        assert np.max(np.abs(direct - other)) < 1e-12

    def test_default_grid(self):
        ds = gen_step()
        assert ds.X.min() == -5.0 and ds.X.max() == 5.0


class TestSurface:
    def test_constant_slice_at_half(self):
        for v in (-0.5, 0.0, 0.37):
            assert np.isclose(surface_value(0.5, v), 4.2659, atol=1e-12)

    def test_hand_value_at_origin(self):
        # g1(0,0) = 0.0625 - 0.625 + 0.3125 = -0.25
        assert np.isclose(surface_value(0.0, 0.0), 42.659 * 0.2, atol=1e-12)

    def test_reflection_symmetry_of_quartic(self, rng):
        u = rng.uniform(-0.5, 0.5, 20)
        v = rng.uniform(-0.5, 0.5, 20)

        def quartic(u, v):
            du, dv = u - 0.5, v - 0.5
            return du ** 4 - 10 * du ** 2 * dv ** 2 + 5 * dv ** 4

        assert np.allclose(quartic(u, v), quartic(u, 1.0 - v), atol=1e-10)

    def test_grid_size(self):
        ds = gen_2d()
        assert ds.X.shape == (400, 2)
        assert ds.X.min() == -0.5 and ds.X.max() == 0.5


class TestTwoClassToy:
    def test_balanced_and_deterministic(self):
        a = gen_two_class_toy(101, seed=5)
        b = gen_two_class_toy(101, seed=5)
        assert np.array_equal(a.X, b.X)
        assert abs(int(a.y.sum())) <= 1
        assert set(np.unique(a.y)) == {-1.0, 1.0}

    def test_points_distinct(self):
        ds = gen_two_class_toy(200, seed=1)
        from adakern.kernel import pairwise_sq_dists
        D = pairwise_sq_dists(ds.X, ds.X)
        np.fill_diagonal(D, np.inf)
        assert D.min() > 0.0

    def test_different_seeds_differ(self):
        a = gen_two_class_toy(50, seed=1)
        b = gen_two_class_toy(50, seed=2)
        assert not np.array_equal(a.X, b.X)

    def test_one_point_rejected(self):
        with pytest.raises(ParameterError, match="need at least 2 points, got 1"):
            gen_two_class_toy(1, seed=0)


def test_dataset_validates():
    with pytest.raises(DataError):
        Dataset(X=np.ones((2, 2)), y=np.ones(3))
    with pytest.raises(DataError):
        Dataset(X=np.array([[np.inf]]), y=np.ones(1))


@pytest.mark.parametrize("parse, text", [(parse_libsvm, "1 1:1\n"), (parse_csv, "1,1\n")])
def test_parsers_reject_an_unknown_label_mode(parse, text):
    with pytest.raises(DataError, match="unknown label mode 'other'"):
        parse(text, mode="other")


@pytest.mark.parametrize("parse, text, message", [
    (parse_libsvm, "# only a comment\n", "no data rows found"),
    (parse_libsvm, "\n   \n", "no data rows found"),
    (parse_csv, "a,b,label\n", "no data rows found"),
    (parse_csv, "1\n-1\n", "no feature columns remain after removing the label column"),
], ids=["libsvm-comments-only", "libsvm-blank-only", "csv-header-only", "csv-one-column"])
def test_parsers_reject_text_without_a_dataset(parse, text, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        parse(text)
