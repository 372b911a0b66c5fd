import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcca.datamodel import (
    DataError,
    PairedDataset,
    center_and_covariance,
    load_two_view_csv,
    make_folds,
    read_csv_table,
    save_two_view_csv,
    split_fold,
    write_csv_table,
    write_json,
)


def _toy(rng, n=20, p=3, q=2):
    return PairedDataset(x=rng.standard_normal((n, p)), y=rng.standard_normal((n, q)))


class TestCenterAndCovariance:
    def test_constant_column_gives_zero_covariance(self, rng):
        x = rng.standard_normal((30, 3))
        x[:, 1] = 4.2
        data = PairedDataset(x=x, y=rng.standard_normal((30, 2)))
        _, cov = center_and_covariance(data)
        np.testing.assert_allclose(cov.sxx[1, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(cov.sxx[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(cov.sxy[1, :], 0.0, atol=1e-12)

    def test_duplicated_view_gives_sxy_equal_sxx(self, rng):
        x = rng.standard_normal((25, 3))
        _, cov = center_and_covariance(PairedDataset(x=x, y=x.copy()))
        np.testing.assert_allclose(cov.sxy, cov.sxx, atol=1e-14)

    def test_against_double_loop_oracle(self, rng):
        data = _toy(rng, n=50, p=3, q=2)
        centred, cov = center_and_covariance(data)
        # naive two-loop covariance oracle, divisor n
        xc, yc = centred.x, centred.y
        n = 50
        for blk, a, b in ((cov.sxx, xc, xc), (cov.sxy, xc, yc), (cov.syy, yc, yc)):
            oracle = np.zeros((a.shape[1], b.shape[1]))
            for i in range(a.shape[1]):
                for j in range(b.shape[1]):
                    s = 0.0
                    for t in range(n):
                        s += a[t, i] * b[t, j]
                    oracle[i, j] = s / n
            np.testing.assert_allclose(blk, oracle, atol=1e-12)

    def test_centred_flag_and_means(self, rng):
        data = _toy(rng)
        centred, _ = center_and_covariance(data)
        assert centred.centred
        assert np.max(np.abs(centred.x.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(centred.y.mean(axis=0))) <= 1e-10
        np.testing.assert_allclose(centred.centring_means[0], data.x.mean(axis=0))

    def test_shift_invariance(self, rng):
        data = _toy(rng)
        _, cov1 = center_and_covariance(data)
        shifted = PairedDataset(x=data.x + 7.0, y=data.y - 3.5)
        _, cov2 = center_and_covariance(shifted)
        np.testing.assert_allclose(cov1.sxx, cov2.sxx, atol=1e-10)
        np.testing.assert_allclose(cov1.sxy, cov2.sxy, atol=1e-10)
        np.testing.assert_allclose(cov1.syy, cov2.syy, atol=1e-10)

    def test_too_few_samples_rejected(self, rng):
        data = PairedDataset(x=np.ones((1, 2)), y=np.ones((1, 2)))
        with pytest.raises(DataError):
            center_and_covariance(data)

    def test_row_count_mismatch_rejected(self, rng):
        with pytest.raises(DataError):
            PairedDataset(x=np.ones((5, 2)), y=np.ones((4, 2)))


class TestFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, seed=0)
        sizes = np.bincount(plan.assignments)
        np.testing.assert_array_equal(sizes, [2, 2, 2, 2, 2])

    def test_balanced_remainder(self):
        plan = make_folds(11, 5, seed=0)
        sizes = sorted(np.bincount(plan.assignments), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        a = make_folds(37, 4, seed=9).assignments
        b = make_folds(37, 4, seed=9).assignments
        np.testing.assert_array_equal(a, b)

    def test_too_many_folds_rejected(self):
        with pytest.raises(DataError):
            make_folds(3, 4)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 60), v=st.integers(2, 6), seed=st.integers(0, 999))
    def test_folds_partition_samples(self, n, v, seed):
        if v > n:
            return
        plan = make_folds(n, v, seed=seed)
        cover = np.concatenate([plan.validation_rows(i) for i in range(v)])
        assert sorted(cover.tolist()) == list(range(n))
        sizes = np.bincount(plan.assignments, minlength=v)
        assert sizes.max() - sizes.min() <= 1


class TestSplitFold:
    def test_train_centred_val_shifted_by_train_means(self, rng):
        data = _toy(rng, n=23)
        plan = make_folds(23, 4, seed=1)
        train, val = split_fold(data, plan, 0)
        assert np.max(np.abs(train.x.mean(axis=0))) <= 1e-10
        # validation columns are shifted by training means, so their own
        # means are nonzero in general
        assert np.max(np.abs(val.x.mean(axis=0))) > 1e-6
        assert not val.centred
        np.testing.assert_allclose(
            val.x, data.x[plan.validation_rows(0)] - data.x[plan.training_rows(0)].mean(axis=0)
        )

    def test_rows_disjoint_and_covering(self, rng):
        data = _toy(rng, n=17)
        plan = make_folds(17, 3, seed=2)
        for v in range(3):
            tr = set(plan.training_rows(v).tolist())
            va = set(plan.validation_rows(v).tolist())
            assert tr.isdisjoint(va)
            assert tr | va == set(range(17))


class TestCsv:
    def test_round_trip(self, rng, tmp_path):
        data = _toy(rng, n=8, p=3, q=2)
        save_two_view_csv(data, tmp_path / "x.csv", tmp_path / "y.csv")
        back = load_two_view_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        np.testing.assert_allclose(back.x, data.x, atol=0)
        np.testing.assert_allclose(back.y, data.y, atol=0)
        assert back.x_names == data.x_names

    def test_row_count_mismatch_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b\n1,2\n3,4\n")
        (tmp_path / "y.csv").write_text("c\n1\n")
        with pytest.raises(DataError, match="row-count mismatch"):
            load_two_view_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_missing_value_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b\n1,\n")
        (tmp_path / "y.csv").write_text("c\n1\n")
        with pytest.raises(DataError, match="missing value"):
            load_two_view_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_non_numeric_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("a\noops\n")
        (tmp_path / "y.csv").write_text("c\n1\n")
        with pytest.raises(DataError, match="bad value"):
            load_two_view_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = [[" 1.5 ", "+2", "1_000"], ["\uff11\uff12", "-.25e1", "\t7\t"]]
        (tmp_path / "x.csv").write_text("a,b,c\n" + "\n".join(",".join(r) for r in cells) + "\n")
        (tmp_path / "y.csv").write_text("d\n1\n2\n")
        data = load_two_view_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        expected = np.array([[float(c) for c in row] for row in cells])
        assert np.array_equal(data.x, expected)
        assert data.x_names == ["a", "b", "c"]

    @pytest.mark.parametrize("body, message", [
        ("1,2\n3\n", "row 3 has 1 fields, expected 2"),
        ("1,2\n3, \n", "missing value at row 3, column 'b'"),
        ("1,2\n3,4x\n", "bad value '4x' at row 3"),
        ("1,2\n3,inf\n", "non-finite value at row 3, column 'b'"),
        ("1,2\nnan,4\n", "non-finite value at row 3, column 'a'"),
    ])
    def test_bad_body_error_names_the_cell(self, tmp_path, body, message):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n" + body)
        (tmp_path / "y.csv").write_text("c\n1\n2\n")
        with pytest.raises(DataError) as info:
            load_two_view_csv(path, tmp_path / "y.csv")
        assert str(info.value) == f"{path}: {message}"


def test_write_json_layout(tmp_path):
    # indent 2, sorted keys, a trailing newline: the bytes the CLI's
    # manifests and the saved estimates have always had
    path = tmp_path / "m.json"
    write_json(path, {"b": [1.5, None], "a": {"z": True, "y": "s"}})
    assert path.read_text() == (
        '{\n  "a": {\n    "y": "s",\n    "z": true\n  },\n  "b": [\n    1.5,\n    null\n  ]\n}\n')


# rows of every cell type a table may hold, and rows csv must quote
WRITER_ROWS = [
    ["variable", "comp_1", "comp_2"],
    ["x1", 0.1, -2.5e-300],
    [1.0, 2, -3, float("inf"), float("-inf"), float("nan"), 1e16, 0.0, -0.0],
    ["name, with a comma", 1.0],
    ['a "quoted" name', 2.0],
    ["two\nlines", 3.0],
    ["carriage\rreturn", 4.0],
    [""],
    ["", ""],
    ["", 5.0],
    [None],
    [None, 6.0],
    [True, False, 7.0],
    [np.float64(0.1), np.float64(float("nan")), 8],
    [np.int64(3), 9.0],
    ("a", "tuple", 10.0),
    [],
    ["plain"],
]


def csv_writer_bytes(rows):
    ref = io.StringIO(newline="")
    csv.writer(ref).writerows(rows)
    return ref.getvalue().encode()


@pytest.mark.parametrize("table", [WRITER_ROWS] + [[row] for row in WRITER_ROWS]
                         + [[WRITER_ROWS[1], row] for row in WRITER_ROWS])
def test_csv_table_bytes_are_those_of_csv_writer(tmp_path, table):
    path = tmp_path / "t.csv"
    write_csv_table(path, table[0], table[1:])
    assert path.read_bytes() == csv_writer_bytes(table)


def test_csv_table_reads_back_the_strings_written(tmp_path):
    # a float's repr reads back to the same float
    path = tmp_path / "t.csv"
    rows = [["x1", 0.1, -2.5e-300], ['a "quoted",\r\nname', 1e16, 5e-324]]
    write_csv_table(path, ["variable", "comp_1", "comp_2"], rows)
    table = read_csv_table(path)
    assert table == [["variable", "comp_1", "comp_2"]] + [[str(c) for c in row] for row in rows]
    assert [float(c) for row in table[1:] for c in row[1:]] == [0.1, -2.5e-300, 1e16, 5e-324]


def test_json_bytes_are_those_of_json_dump(tmp_path):
    obj = {"rho": [0.1, float("inf")], "fold": "full", "seed": None, "degenerate": False,
           "info": {"name, \"quoted\"\n": [1, 2.5e-300]}, "K": 3}
    path = tmp_path / "m.json"
    write_json(path, obj)
    ref = io.StringIO()
    json.dump(obj, ref, indent=2, sort_keys=True)
    assert path.read_text() == ref.getvalue() + "\n"
