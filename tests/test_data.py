import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mksvdd import cli, data
from mksvdd.data import (
    ParseError,
    SampleMatrix,
    SplitPlan,
    blob_parameters,
    gen_2d_target,
    load_csv,
    membership,
    sample_inside_outside,
    split,
)
from oracles import kmeans


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestLoadCsv:
    def test_three_line_file(self, tmp_path):
        path = write(tmp_path, "1.0,2.0\n3.0,4.0\n5.5,6.5\n")
        m = load_csv(path)
        assert m.n_examples == 3
        assert m.n_features == 2
        assert m.labels is None
        np.testing.assert_allclose(m.features[2], [5.5, 6.5])

    def test_header_and_label_by_name(self, tmp_path):
        path = write(tmp_path, "a,b,y\n0.0,1.0,1\n2.0,3.0,-1\n")
        m = load_csv(path, label_column="y")
        assert m.n_features == 2
        assert m.labels.tolist() == [1, -1]

    def test_label_by_index(self, tmp_path):
        path = write(tmp_path, "1,0.5,0.25\n-1,1.5,2.5\n")
        m = load_csv(path, label_column=0)
        assert m.labels.tolist() == [1, -1]
        np.testing.assert_allclose(m.features, [[0.5, 0.25], [1.5, 2.5]])

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "1,2\n3,inf\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ParseError, match="empty"):
            load_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = write(tmp_path, "2,0.5\n1,1.5\n")
        with pytest.raises(ParseError, match="label"):
            load_csv(path, label_column=0)

    def test_comment_lines_skipped(self, tmp_path):
        path = write(tmp_path, "# tool comment\nx1,x2\n1,2\n")
        m = load_csv(path)
        assert m.n_examples == 1

    def test_standardize_flag(self, tmp_path):
        path = write(tmp_path, "0,10\n2,30\n4,50\n")
        m = load_csv(path, standardize=True)
        np.testing.assert_allclose(m.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(m.features.std(axis=0), 1.0, atol=1e-12)

    def test_outlier_file_shape(self, tmp_path):
        # same shape contract as the public outlier benchmarks:
        # rows x attributes with a +-1 label column
        rng = np.random.default_rng(0)
        lines = []
        for i in range(40):
            label = -1 if i < 4 else 1
            feats = rng.standard_normal(6)
            lines.append(",".join([str(label)] + [f"{v:.6f}" for v in feats]))
        path = write(tmp_path, "\n".join(lines) + "\n")
        m = load_csv(path, label_column=0)
        assert m.n_examples == 40
        assert m.n_features == 6
        assert int((m.labels == -1).sum()) == 4

    BENCHMARKS = [
        # externally modified outlier benchmarks, checked when present:
        # (filename, rows, attributes, outliers)
        ("breast-cancer-unsupervised-ad.csv", 367, 30, 10),
        ("pen-local-unsupervised-ad.csv", 809, 16, 90),
    ]

    def test_known_benchmark_shapes_if_available(self):
        data_dir = Path(__file__).parent.parent / "data"
        found = [b for b in self.BENCHMARKS if (data_dir / b[0]).exists()]
        if not found:
            pytest.skip("benchmark files not present")
        for name, rows, dims, outliers in found:
            m = load_csv(data_dir / name, label_column=0)
            assert m.n_examples == rows
            assert m.n_features == dims
            assert int((m.labels == -1).sum()) == outliers



def per_cell_table(rows, label_idx):
    """Features and labels of data rows parsed cell by cell with the rule
    float(cell.strip()), as load_csv did before it parsed whole tables."""
    features, labels = [], []
    for cells in rows:
        values = [float(c.strip()) for c in cells]
        if label_idx is not None:
            labels.append(int(values.pop(label_idx % len(values))))
        features.append(values)
    return np.asarray(features, dtype=float), labels


def format_cell(rng, value):
    """One of several spellings of value that float(text.strip()) reads back."""
    kind = int(rng.integers(6))
    if kind == 0:
        return repr(value)
    if kind == 1:
        return f"{value:.6e}"
    if kind == 2:
        return f" {value!r}\t"
    if kind == 3:
        return "\x1f" + repr(value)
    if kind == 4:
        return f"{value:.17g}"
    return "1_0" if value == 10.0 else repr(value)


def read_both(monkeypatch, path, **kwargs):
    """load_csv(path, **kwargs) as it reads by default and with numpy's C
    reader switched off, each as its features' shape and bytes and its
    labels, or its ParseError text; and whether the default read took the
    C reader."""
    plain = data._plain_table
    took = []

    def spy(*args):
        got = plain(*args)
        took.append(got is not None)
        return got

    outcomes = []
    for reader in (spy, lambda *args: None):
        monkeypatch.setattr(data, "_plain_table", reader)
        try:
            m = load_csv(path, **kwargs)
        except ParseError as error:
            outcomes.append(str(error))
        else:
            labels = None if m.labels is None else (m.labels.dtype, m.labels.tolist())
            outcomes.append((m.features.shape, m.features.tobytes(), labels))
    monkeypatch.setattr(data, "_plain_table", plain)
    return outcomes[0], outcomes[1], took == [True]


def bench_file(tmp_path):
    """A test file as the bench writes it: a label,x1,x2 header over 1,000
    rows of repr floats with about 10% outliers; with its features and
    labels."""
    rng = np.random.default_rng(5)
    features = rng.standard_normal((1000, 2))
    labels = np.where(rng.random(1000) < 0.1, -1, 1)
    lines = ["label,x1,x2"] + [f"{l},{a!r},{b!r}" for (a, b), l in zip(features.tolist(), labels)]
    return write(tmp_path, "\n".join(lines) + "\n", "bench.csv"), features, labels


def random_file(rng, plain):
    """A random labelled or unlabelled CSV text and its load_csv keywords:
    a valid plain file (see data._plain_table), or one with a cell a plain
    body cannot hold."""
    n, width = int(rng.integers(1, 30)), int(rng.integers(1, 6))
    values = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-3, 4, size=width)
    spell = [repr, lambda v: f"{v:.6e}", lambda v: f"{v:.17g}", lambda v: f"{v:+.3f}"]
    rows = [[spell[int(rng.integers(4))](float(v)) for v in row] for row in values]
    label_idx = None if rng.random() < 0.3 else int(rng.integers(width + 1))
    if label_idx is not None:
        for row in rows:
            row.insert(label_idx, str(rng.choice(["1", "-1", "1.0", "+1", "-1e0"])))
    if not plain:
        i, j = int(rng.integers(n)), int(rng.integers(len(rows[0])))
        rows[i][j] = str(rng.choice([
            f" {rows[i][j]}", f"{rows[i][j]}\t", f'"{rows[i][j]}"', "1_0", "\x1f1.5",
            # a CR splits a row alike for both tiers; at a row's end alone it is plain
            f"{rows[i][j]}\r ", f"{rows[i][j]}\r\n# comment",
        ]))
    names = [f"c{j}" for j in range(len(rows[0]))]
    has_header = rng.random() < 0.6
    lines = ["# written by a tool"] * int(rng.integers(3)) + [",".join(names)] * has_header
    for row in rows:
        if rng.random() < 0.1:
            lines.append("")
        lines.append(",".join(row))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    column = None
    if label_idx is not None:
        column = [label_idx, label_idx - len(names), str(label_idx), names[label_idx]][
            int(rng.integers(3 + has_header))
        ]
    return text, {"label_column": column, "standardize": bool(rng.random() < 0.3)}


class TestLoadCsvMatchesPerCellParse:
    """load_csv parses whole tables in one conversion; values, labels and
    every error must be those of the cell-by-cell rule."""

    @pytest.mark.parametrize("trial", range(40))
    def test_random_valid_files(self, tmp_path, trial):
        rng = np.random.default_rng(trial)
        n, width = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        values = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-3, 4, size=width)
        values[rng.random((n, width)) < 0.1] = 10.0
        has_header = bool(rng.integers(2))
        label_mode = ["none", "index", "negative", "string"][trial % 4]
        if has_header and trial % 8 == 1:
            label_mode = "name"
        label_idx = None if label_mode == "none" else int(rng.integers(width + 1))
        rows = [[format_cell(rng, float(v)) for v in row] for row in values]
        if label_idx is not None:
            for row in rows:
                row.insert(label_idx, str(rng.choice(["1", "-1", "1.0", " -1 ", "+1"])))
        names = [f"c{j}" for j in range(len(rows[0]))]
        lines = [",".join(names)] if has_header else []
        for row in rows:
            if rng.random() < 0.2:
                lines.append("# comment")
            if rng.random() < 0.2:
                lines.append("")
            lines.append(",".join(row))
        path = write(tmp_path, "\n".join(lines) + "\n")
        column = {
            "none": None,
            "index": label_idx,
            "negative": None if label_idx is None else label_idx - len(names),
            "string": None if label_idx is None else str(label_idx),
            "name": None if label_idx is None else names[label_idx],
        }[label_mode]
        standardize = bool(trial % 3 == 0)
        m = load_csv(path, label_column=column, standardize=standardize)

        expected, labels = per_cell_table(rows, label_idx)
        if standardize:
            std = expected.std(axis=0)
            std[std == 0.0] = 1.0
            expected = (expected - expected.mean(axis=0)) / std
        assert m.features.shape == expected.shape
        assert m.features.tobytes() == expected.tobytes()
        if label_idx is None:
            assert m.labels is None
        else:
            assert m.labels.dtype == np.asarray(labels).astype(int).dtype
            assert m.labels.tolist() == labels

    @pytest.mark.parametrize("text, column, message", [
        ("1,2\n3,4,5\n", None, "line 2: expected 2 fields, got 3"),
        ("1,2\n3,oops\n", None, "line 2: cell 1 ('oops') is not numeric"),
        ("1,2\n3,inf\n", None, "line 2: cell 1 ('inf') is not finite"),
        ("2,0.5\n1,1.5\n", 0, "line 1: label must be +1 or -1, got '2'"),
        ("1,2\n3,nan\n", None, "line 2: cell 1 ('nan') is not finite"),
        ("1,2\n3,-inf\n", None, "line 2: cell 1 ('-inf') is not finite"),
        ("1,2\n3,1e999\n", None, "line 2: cell 1 ('1e999') is not finite"),
        ("1,2\n3,\n", None, "line 2: cell 1 ('') is not numeric"),
        # \x1c ends a line for str.splitlines, so the row is cut short
        ("1,2\n3,\x1c1.5\n", None, "line 2: cell 1 ('') is not numeric"),
        ("1,2\n3,x\n4,5,6\n", None, "line 2: cell 1 ('x') is not numeric"),
        ("1,2\n4,5,6\n3,x\n", None, "line 2: expected 2 fields, got 3"),
        ("1,0.5\n0,1.5\n", 0, "line 2: label must be +1 or -1, got '0'"),
        ("1,0.5\n-1,1.5\n2,3\n", "0", "line 3: label must be +1 or -1, got '2'"),
        ("1,2\n3,4\n", 0, "line 2: label must be +1 or -1, got '3'"),
        ("0.5,1\n1.5,nan\n", 1, "line 2: cell 1 ('nan') is not finite"),
        ("0.5,1\n1.5,x\n", -1, "line 2: cell 1 ('x') is not numeric"),
        ("1,0.5\n-1,1.5\n", 5, "label column 5 out of range"),
        ("1,0.5\n-1,1.5\n", -3, "label column -3 out of range"),
        ("1,0.5\n-1,1.5\n", "2", "label column 2 out of range"),
        ("y,x\n1,oops\n", "y", "line 2: cell 0 ('oops') is not numeric"),
        ("y,x\n1,2\n-1,3,4\n", "y", "line 3: expected 2 fields, got 3"),
    ])
    def test_error_messages(self, tmp_path, text, column, message):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_csv(path, label_column=column)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, column", [
        ("a,y\n1,1\n", "z"),
        ("1,0.5\n-1,1.5\n", "y"),
    ])
    def test_unknown_column_name(self, tmp_path, text, column):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_csv(path, label_column=column)
        assert str(info.value) == f"{path}: no column named {column!r}"

    @pytest.mark.parametrize("column", [True, False, 1.0, [1], b"0"])
    def test_label_column_is_a_name_or_an_index(self, tmp_path, column):
        # int(True) selected column 1 and int(1.0) column 1
        path = write(tmp_path, "1,0.5,2\n-1,1.5,3\n")
        with pytest.raises(ParseError, match="label_column must be a column name or an integer"):
            load_csv(path, label_column=column)
        assert load_csv(path, label_column=np.int64(0)).labels.tolist() == [1, -1]

    def test_cells_float_accepts_after_stripping(self, tmp_path):
        path = write(tmp_path, "1_0,2\n 1.5 ,\x1f1.5\n")
        m = load_csv(path)
        assert m.features.tolist() == [[10.0, 2.0], [1.5, 1.5]]

    def test_padded_first_row_is_data(self, tmp_path):
        # str.strip removes \x1f but float() alone rejects it: header
        # detection must use the cell rule, or this row is lost as a header
        path = write(tmp_path, "\x1f1.0,2.0\n3.0,4.0\n")
        m = load_csv(path)
        assert m.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_label_one_point_zero_and_plus_one(self, tmp_path):
        path = write(tmp_path, "1,0.5\n1.0,1.5\n-1,2\n+1,3\n")
        m = load_csv(path, label_column=0)
        assert m.labels.tolist() == [1, 1, -1, 1]
        assert m.features.tolist() == [[0.5], [1.5], [2.0], [3.0]]

    def test_label_string_is_a_name_before_an_index(self, tmp_path):
        path = write(tmp_path, "x1,0\n-1,1\n1,-1\n")
        m = load_csv(path, label_column="0")
        assert m.labels.tolist() == [1, -1]
        assert m.features.tolist() == [[-1.0], [1.0]]
        m = load_csv(path, label_column=0)
        assert m.labels.tolist() == [-1, 1]
        assert m.features.tolist() == [[1.0], [-1.0]]

    @pytest.mark.parametrize("trial", range(60))
    def test_random_files_read_the_same_by_both_readers(self, tmp_path, monkeypatch, trial):
        rng = np.random.default_rng([trial, 42])
        plain = trial % 2 == 0
        text, kwargs = random_file(rng, plain)
        path = write(tmp_path, text)
        fast, rows, took_c = read_both(monkeypatch, path, **kwargs)
        assert fast == rows
        assert took_c == plain

    @pytest.mark.parametrize("text, column, standardize, takes_c", [
        # bytes a plain body cannot hold
        ("a,b\n1,2#x\n", None, False, False),
        ("1,2#x\n3,4\n", None, False, True),
        ('a,b\n"1",2\n"3","4"\n', None, False, False),
        # a quoted field in a comment row runs on into the next line
        ('#x,"abc\n1,2\n3,4\n', None, False, False),
        ("x\x1cy,z\n1,2\n", None, False, False),
        ("a,b\n1_0,2\n", None, False, False),
        ("a,b\n 1.5 ,2\n3,\t4\n", None, False, False),
        ("1,2\n3,\x1c1.5\n", None, False, False),
        ("a,b\n1,\x1f2\n", None, False, False),
        ("a,b\n1,2\n3,é\n", None, False, False),
        ("a,b\n1,2\n# a comment\n3,4\n", None, False, False),
        # values numpy reads but load_csv refuses, and cells it cannot read
        ("1,2\n3,inf\n", None, False, False),
        ("1,2\n3,nan\n", None, False, False),
        ("1,2\n3,1e999\n", None, False, False),
        ("1,2\n3,-1e999\n", None, False, False),
        ("1,2\n3,\n", None, False, False),
        ("1,2,\n3,4,\n", None, False, False),
        ("1,2\n,\n", None, False, False),
        ("1,2\n3,1e\n", None, False, False),
        ("1,2\n3,--4\n", None, False, False),
        ("1,2\n3,4,5\n", None, False, False),
        ("2,0.5\n1,1.5\n", 0, False, False),
        ("1,0.5\n-1,1.5\n", 5, False, False),
        ("1,0.5\n-1,1.5\n", "y", False, False),
        ("1,0.5\n-1,1.5\n", True, False, False),
        # files with no body
        ("", None, False, False),
        ("\n\n", None, False, False),
        ("# only a comment\n", None, False, False),
        ("a,b\n", None, False, False),
        ("a,b", None, False, False),
        ("a,b\n\n\n", None, False, False),
        # plain bodies; a quoted head row and CR line breaks split off
        # before either tier reads a line
        ("1,2\n3,4\n", None, False, True),
        ('"a",b\n1,2\n', None, False, True),
        ('# say "hi\na,b\n1,2\n', None, False, True),
        ("a,b\r1,2\n3,4\n", None, False, True),
        ("a,b\r\n1,2\r\n3,4\r\n", None, False, True),
        ("a,b\n1,2\r\n", None, False, True),
        ("1,2\n3,4", None, False, True),
        ("a,b\n\n1,2\n\n3,4\n\n", None, False, True),
        ("\n# c\n\na,b\n1,2\n", None, False, True),
        ("x\n1\n2\n", None, False, True),
        ("x\n1\n", None, True, True),
        ("7\n", None, False, True),
        (" # indented comment\nx,y\n1,2\n", None, False, True),
        ("é,b\n1,2\n", None, False, True),
        ("a, b ,\t\n1,2,3\n", None, False, True),
        ("a,b,c\n1,2\n3,4\n", None, False, True),
        ("a,b,c\n1,2\n3,4\n", "c", False, False),
        ("# c\nx,y\n0.5,1\n1.5,-1\n", "y", False, True),
        ("1,0.5,+1e0\n-1,1.5,-2.5e-3\n", 0, True, True),
        ("1,0.5\n-1,1.5\n", -2, False, True),
        ("0.5,1\n1.5,-1.0\n", "1", True, True),
        ("x1,0\n-1,1\n1,-1\n", "0", False, True),
        ("-0,0.1\n+.5,5.\n1E3,-0.0\n", None, True, True),
        ("0.1000000000000000055511151231257827,1\n3.0000000000000004,2\n", None, False, True),
        ("1.7976931348623157e308,4.9e-324\n2.2250738585072014e-308,1e-400\n", None, False, True),
    ])
    def test_adversarial_files_read_the_same_by_both_readers(
        self, tmp_path, monkeypatch, text, column, standardize, takes_c
    ):
        path = write(tmp_path, text)
        fast, rows, took_c = read_both(
            monkeypatch, path, label_column=column, standardize=standardize
        )
        assert fast == rows
        assert took_c == takes_c

    @pytest.mark.parametrize("text, position", [("1,2\n\xff,3\n", 4), ("\xff,b\n1,2\n", 0)])
    def test_undecodable_bytes_are_a_parse_error_naming_the_file(self, tmp_path, text, position):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position {position}: "
            "invalid start byte"
        )

    def test_a_field_over_the_csv_limit_is_left_to_the_python_reader(self, tmp_path, monkeypatch):
        limit = csv.field_size_limit()
        for text, line in (("x\n" + "1" * (limit + 1) + "\n", 2),
                           ("x,y\n1,2\n3," + "0" * (limit + 1), 3),
                           ("1" * (limit + 1) + ",2\n", 1)):
            path = write(tmp_path, text)
            fast, rows, took_c = read_both(monkeypatch, path)
            assert fast == rows == f"{path}: line {line}: field larger than field limit ({limit})"
            assert not took_c
        path = write(tmp_path, "x\n" + "0" * limit + "\n" + "2\n" * limit)
        fast, rows, took_c = read_both(monkeypatch, path)
        assert fast == rows and took_c

    @pytest.mark.parametrize("text, column, rows", [
        ("\ufeff1.0,2.0\n3.0,4.0\n5.0,6.0\n", None, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("\ufefflabel,x\n1,2.5\n-1,3.5\n", "label", [[2.5], [3.5]]),
        ("\ufeff 1.0,2.0\n3.0,4.0\n", None, [[1.0, 2.0], [3.0, 4.0]]),
        ("\ufefflabel,x\n1, 2.5\n-1,3.5\n", "label", [[2.5], [3.5]]),
    ])
    def test_a_byte_order_mark_is_ignored(self, tmp_path, monkeypatch, text, column, rows):
        # the BOM once made 1.0 fail float(), so the first data row was
        # taken for a header, and hid the name of the label column
        path = write(tmp_path, text)
        fast, by_rows, took_c = read_both(monkeypatch, path, label_column=column)
        assert fast == by_rows
        assert took_c == (" " not in text)
        m = load_csv(path, label_column=column)
        assert m.features.tolist() == rows
        assert (m.labels is None) == (column is None)

    def test_bench_and_gen2d_files_take_the_c_reader(self, tmp_path, monkeypatch):
        # csv.reader reads each file's head rows and first data row only,
        # and numpy's C reader returns the table
        bench_path, features, labels = bench_file(tmp_path)
        gen2d_path = tmp_path / "gen2d.csv"
        assert cli.main(["gen2d", "--seed", "3", "--n-areas", "2", "--n-points", "300",
                         "--out", str(gen2d_path)]) == 0
        reader, plain = csv.reader, data._plain_table
        readers, took = [], []

        def spy_reader(*args, **kwargs):
            readers.append(reader(*args, **kwargs))
            return readers[-1]

        def spy_plain(*args):
            table = plain(*args)
            took.append(table is not None)
            return table

        monkeypatch.setattr(csv, "reader", spy_reader)
        monkeypatch.setattr(data, "_plain_table", spy_plain)
        m = load_csv(bench_path, label_column="label")
        assert [r.line_num for r in readers] == [2] and took == [True]
        assert m.features.tobytes() == features.tobytes()
        assert m.labels.tolist() == labels.tolist()
        readers.clear()
        took.clear()
        m = load_csv(gen2d_path, label_column="label")
        head = gen2d_path.read_text().splitlines()[:2]
        assert head[0].startswith("# mksvdd ") and head[1] == "x1,x2,label"
        assert [r.line_num for r in readers] == [3] and took == [True]
        assert m.features.tobytes() == gen_2d_target(3, 2, 300).features.tobytes()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_bench_files_read_as_the_lf_file(self, tmp_path, monkeypatch, newline):
        lf_path, features, labels = bench_file(tmp_path)
        path = write(tmp_path, lf_path.read_text().replace("\n", newline), "cr.csv")
        fast, rows, took_c = read_both(monkeypatch, path, label_column="label")
        assert fast == rows and took_c
        assert fast == read_both(monkeypatch, lf_path, label_column="label")[0]
        assert fast[1] == features.tobytes()


class TestSampleMatrix:
    def test_label_values_validated(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.zeros((2, 2)), labels=[0, 1])



class TestGen2d:
    def test_contract(self):
        m = gen_2d_target(7, 1, 50)
        assert m.n_examples == 50
        assert m.n_features == 2
        assert (m.labels == 1).all()

    def test_deterministic(self):
        a = gen_2d_target(123, 3, 40)
        b = gen_2d_target(123, 3, 40)
        assert (a.features == b.features).all()

    def test_seed_changes_output(self):
        a = gen_2d_target(1, 2, 40)
        b = gen_2d_target(2, 2, 40)
        assert not (a.features == b.features).all()

    def test_n_areas_out_of_range(self):
        with pytest.raises(ValueError):
            gen_2d_target(0, 4, 10)
        with pytest.raises(ValueError):
            gen_2d_target(0, 0, 10)

    def test_points_at_least_areas(self):
        with pytest.raises(ValueError):
            gen_2d_target(0, 3, 2)

    def test_three_areas_recovered_by_kmeans(self):
        # oracle: 3-cluster inertia clearly below 1-cluster inertia when
        # the blobs are separated; try seeds until blob centers are apart
        for seed in range(20):
            centers, stds = blob_parameters(seed, 3)
            gaps = [
                np.linalg.norm(centers[i] - centers[j])
                for i in range(3)
                for j in range(i + 1, 3)
            ]
            if min(gaps) > 0.7:
                break
        m = gen_2d_target(seed, 3, 90)
        inertia3 = kmeans(m.features, 3, seed=0)
        inertia1 = kmeans(m.features, 1, seed=0)
        assert inertia3 < 0.5 * inertia1

    def test_blob_parameters_match_generator(self):
        centers, stds = blob_parameters(11, 2)
        m = gen_2d_target(11, 2, 400)
        # points ordered blob by blob; first chunk should hug center 0
        first = m.features[:200].mean(axis=0)
        assert np.linalg.norm(first - centers[0]) < 4 * stds[0] / np.sqrt(200) * 3 + 0.05


class TestMembership:
    def test_center_inside_far_outside(self):
        centers = [[0.0, 0.0]]
        stds = [0.1]
        flags = membership([[0.0, 0.0], [5.0, 5.0]], centers, stds)
        assert flags.tolist() == [True, False]

    def test_balanced_sample(self):
        centers, stds = blob_parameters(3, 2)
        m = sample_inside_outside(5, centers, stds, n_each=30)
        assert m.n_examples == 60
        assert int((m.labels == 1).sum()) == 30
        inside = membership(m.features, centers, stds)
        assert (inside == (m.labels == 1)).all()


class TestSplit:
    def make_labeled(self, n_pos=20, n_neg=5):
        feats = np.arange((n_pos + n_neg) * 2, dtype=float).reshape(-1, 2)
        labels = np.array([1] * n_pos + [-1] * n_neg)
        return SampleMatrix(feats, labels)

    def test_supervised_count(self):
        m = self.make_labeled()
        plan = split(m, "supervised", seed=1, train_count=5)
        assert plan.train_ids.size == 5
        assert (m.labels[plan.train_ids] == 1).all()

    def test_unsupervised_all(self):
        m = self.make_labeled(300, 67)
        plan = split(m, "unsupervised", seed=0)
        assert plan.train_ids.size == 367
        assert (plan.train_ids == plan.test_ids).all()

    def test_fraction(self):
        m = self.make_labeled(10, 3)
        plan = split(m, "supervised", seed=2, train_fraction=0.8)
        assert plan.train_ids.size == 8
        assert int((m.labels[plan.test_ids] == 1).sum()) == 2

    def test_oversized_request(self):
        m = self.make_labeled(4, 1)
        with pytest.raises(ValueError):
            split(m, "supervised", seed=0, train_count=5)

    def test_no_test_positive_in_train(self):
        for seed in range(25):
            m = self.make_labeled(17, 6)
            plan = split(m, "supervised", seed=seed, train_count=9)
            assert not set(plan.train_ids.tolist()) & set(plan.test_ids.tolist())

    def test_validation_disjoint_and_positive(self):
        m = self.make_labeled(12, 4)
        plan = split(m, "supervised", seed=5, train_count=6, validation_count=3)
        assert plan.validation_ids.size == 3
        assert (m.labels[plan.validation_ids] == 1).all()
        assert not set(plan.train_ids.tolist()) & set(plan.validation_ids.tolist())

    def test_json_round_trip(self):
        m = self.make_labeled()
        plan = split(m, "supervised", seed=9, train_count=4, validation_count=2)
        back = json.loads(plan.to_json())
        assert back["seed"] == 9 and back["mode"] == "supervised"
        assert back["train_ids"] == plan.train_ids.tolist()
        assert back["validation_ids"] == plan.validation_ids.tolist()
        assert back["test_ids"] == plan.test_ids.tolist()

    def test_disjointness_enforced_supervised(self):
        with pytest.raises(ValueError):
            SplitPlan([1, 2], [2], [3], seed=0, mode="supervised")

    def test_deterministic(self):
        m = self.make_labeled()
        a = split(m, "supervised", seed=4, train_count=7)
        b = split(m, "supervised", seed=4, train_count=7)
        assert a.train_ids.tolist() == b.train_ids.tolist()
