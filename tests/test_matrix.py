import builtins
import os
import re
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodcoef.matrix as matrix_module
from prodcoef.errors import FormatError, ProdcoefError, ValidationError
from prodcoef.matrix import FeatureMatrix, read_feature_csv, write_feature_csv
from prodcoef.pointcloud import read_csv
from prodcoef.workers import worker_count

from conftest import assert_no_child_left


def test_basic_shape_and_names():
    fm = FeatureMatrix([[1.0, 2.0], [3.0, 4.0]], ("a", "b"))
    assert fm.n_rows == 2
    assert fm.n_cols == 2
    assert fm.labels is None


def test_values_are_locked():
    fm = FeatureMatrix([[1.0, 2.0]], ("a", "b"))
    with pytest.raises(ValueError):
        fm.values[0, 0] = 9.0


def test_take_rows_carries_labels():
    fm = FeatureMatrix(np.arange(12.0).reshape(4, 3), ("a", "b", "c"), [5, 6, 7, 8])
    sub = fm.take_rows([2, 0])
    np.testing.assert_array_equal(sub.values, [[6, 7, 8], [0, 1, 2]])
    assert sub.labels.tolist() == [7, 5]


def test_select_columns():
    fm = FeatureMatrix([[1.0, 2.0, 3.0]], ("x", "y", "z"), [4])
    sub = fm.select_columns(("z", "x"))
    assert sub.column_names == ("z", "x")
    np.testing.assert_array_equal(sub.values, [[3.0, 1.0]])
    assert sub.labels.tolist() == [4]
    with pytest.raises(ValidationError):
        fm.select_columns(("w",))


def test_validation_errors():
    with pytest.raises(ValidationError):
        FeatureMatrix([[np.inf]], ("a",))
    with pytest.raises(ValidationError):
        FeatureMatrix([[1.0]], ("a", "b"))
    with pytest.raises(ValidationError):
        FeatureMatrix([[1.0]], ("a",), labels=[1, 2])
    with pytest.raises(ValidationError):
        FeatureMatrix([[1.0]], ("label",))  # reserved name


def test_csv_round_trip_labeled(tmp_path):
    fm = FeatureMatrix(
        [[0.1, 0.25, 1e-17], [7.5, -3.0, 0.0]], ("a", "b", "c"), [2, 19]
    )
    path = tmp_path / "m.csv"
    write_feature_csv(fm, path)
    back = read_feature_csv(path)
    np.testing.assert_array_equal(back.values, fm.values)
    assert back.column_names == fm.column_names
    assert back.labels.tolist() == [2, 19]


def test_csv_round_trip_without_labels(tmp_path):
    fm = FeatureMatrix([[1.5, 2.5]], ("p", "q"))
    path = tmp_path / "m.csv"
    write_feature_csv(fm, path)
    back = read_feature_csv(path)
    assert back.labels is None
    np.testing.assert_array_equal(back.values, fm.values)


def test_csv_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y,label\n1.5,2.5,3\n")
    back = read_feature_csv(path)
    assert back.column_names == ("x", "y")
    assert back.values.tolist() == [[1.5, 2.5]] and back.labels.tolist() == [3]


@pytest.mark.parametrize("batch", [4096, 2])
def test_write_csv_extreme_values_exact_text(tmp_path, monkeypatch, batch):
    monkeypatch.setattr("prodcoef.matrix._WRITE_ROWS", batch)
    biggest = float(np.finfo(np.float64).max)
    values = [[-0.0, 5e-324, 1e16], [0.1 + 0.2, biggest, 1.0], [0.5, -biggest, 1e-17]]
    path = tmp_path / "m.csv"
    write_feature_csv(FeatureMatrix(values, ("a", "b", "c"), [-2**63, 2**63 - 1, 0]), path)
    assert path.read_text() == (
        "a,b,c,label\n"
        "-0.0,5e-324,1e+16,-9223372036854775808\n"
        "0.30000000000000004,1.7976931348623157e+308,1.0,9223372036854775807\n"
        "0.5,-1.7976931348623157e+308,1e-17,0\n"
    )
    write_feature_csv(FeatureMatrix(values, ("a", "b", "c")), path)
    assert path.read_text() == (
        "a,b,c\n"
        "-0.0,5e-324,1e+16\n"
        "0.30000000000000004,1.7976931348623157e+308,1.0\n"
        "0.5,-1.7976931348623157e+308,1e-17\n"
    )


@pytest.mark.parametrize("n_rows", [7, 8, 11, 13, 15, 26])
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "no labels"])
def test_forked_write_has_the_same_bytes_for_any_workers(tmp_path, monkeypatch, spools,
                                                         n_rows, labelled):
    # Parts have at least _WRITE_ROWS = 4 rows and are formatted 4 rows at
    # a time, so a part ends before a batch boundary (15 rows on 2
    # workers: 7 + 8), on one (13 rows on 3: 4 + 4 + 5) and past one (11
    # rows on 2: 5 + 6); 7 rows stay one part.
    monkeypatch.setattr(matrix_module, "_WRITE_ROWS", 4)
    forks = []
    fork_part = matrix_module._fork_part

    def counting_fork_part(*args):
        forks.append(args[1:3])
        return fork_part(*args)

    monkeypatch.setattr(matrix_module, "_fork_part", counting_fork_part)
    rng = np.random.default_rng(n_rows)
    values = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 3))
    labels = rng.integers(-2**63, 2**63 - 1, size=n_rows) if labelled else None
    rows = [[repr(v) for v in row] for row in values.tolist()]
    if labelled:
        for row, label in zip(rows, labels.tolist()):
            row.append(str(label))
    expected = ("a,b,c,label\n" if labelled else "a,b,c\n") + "".join(
        ",".join(row) + "\n" for row in rows)
    matrix = FeatureMatrix(values, ("a", "b", "c"), labels)
    for workers in (1, 2, 3, 0):
        forks.clear()
        path = tmp_path / f"w{workers}.csv"
        write_feature_csv(matrix, path, workers)
        assert path.read_bytes() == expected.encode(), workers
        parts = worker_count(workers, n_rows // 4)
        assert len(forks) == parts - 1
        assert [lo for lo, _ in forks] == [n_rows * k // parts for k in range(1, parts)]
        assert_no_child_left()
    assert len(spools) == sum(worker_count(w, n_rows // 4) - 1 for w in (1, 2, 3, 0))
    assert all(spool.closed for spool in spools)


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_formatter_process_names_file_and_leaves_nothing(tmp_path, monkeypatch, capfd,
                                                                spools, how):
    monkeypatch.setattr(matrix_module, "_WRITE_ROWS", 4)
    parent = os.getpid()
    write_rows = matrix_module._write_rows

    def write_rows_failing_in_children(matrix, lo, hi, out):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(28, "No space left on device")
        write_rows(matrix, lo, hi, out)

    monkeypatch.setattr(matrix_module, "_write_rows", write_rows_failing_in_children)
    path = tmp_path / "m.csv"
    detail = "exit status 1" if how == "raises" else "killed by signal 9"
    with pytest.raises(ProdcoefError, match=f"process writing rows 4..7 of .* died .*{detail}"
                       ) as failure:
        write_feature_csv(FeatureMatrix(np.ones((12, 2)), ("a", "b")), path, workers=3)
    assert str(path) in str(failure.value)
    assert_no_child_left()
    assert len(spools) == 2 and all(spool.closed for spool in spools)
    if how == "raises":
        assert "formatting rows 4..7: OSError" in capfd.readouterr().err


def test_failed_write_in_parent_stops_and_reaps_children(tmp_path, monkeypatch, spools):
    # The file cannot be opened after the children are forked: that is an
    # I/O error naming the file, and each child is killed and reaped, and
    # its temporary file closed.
    monkeypatch.setattr(matrix_module, "_WRITE_ROWS", 4)
    with pytest.raises(FormatError, match=f"^cannot write {re.escape(str(tmp_path))}: IsADirectoryError"):
        write_feature_csv(FeatureMatrix(np.ones((12, 2)), ("a", "b")), tmp_path, workers=3)
    assert_no_child_left()
    assert len(spools) == 2 and all(spool.closed for spool in spools)


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        read_feature_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0\n")
    with pytest.raises(FormatError, match="row 2"):
        read_feature_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,oops\n")
    with pytest.raises(FormatError, match="row 2"):
        read_feature_csv(bad)

    with pytest.raises(FormatError):
        read_feature_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe" + "a,label\n0.1,1\n".encode("utf-16-le"), "can't decode"),
    (b"a,label\n" + b"1" * 200_000 + b",1\n", "field limit"),
], ids=["utf-16", "long field"])
def test_csv_unreadable_text_names_file(tmp_path, content, reason):
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=f"m.csv: .*{reason}"):
        read_feature_csv(path)


@pytest.mark.parametrize("header", ["label,a", "a,label,b", "a,label,label"])
def test_label_column_not_last_names_file(tmp_path, header):
    path = tmp_path / "m.csv"
    path.write_text(f"{header}\n" + ",".join(["1"] * len(header.split(","))) + "\n")
    with pytest.raises(FormatError, match="m.csv: 'label' must be the last column"):
        read_feature_csv(path)


def test_repeated_column_name_is_refused():
    with pytest.raises(ValidationError, match="column 'x' is named twice"):
        FeatureMatrix([[1.0, 2.0, 3.0]], ("x", "y", "x"))


@pytest.mark.parametrize("header", ["x,y,x,label", "y,x,z,x"])
def test_repeated_column_names_file(tmp_path, monkeypatch, header):
    # The header is refused before any row is parsed.
    path = tmp_path / "m.csv"
    path.write_text(f"{header}\n" + ",".join(["1"] * len(header.split(","))) + "\n")
    monkeypatch.setattr(matrix_module, "_load_rows", None)
    with pytest.raises(FormatError, match="m.csv: column 'x' is named twice"):
        read_feature_csv(path)


@pytest.mark.parametrize("read", [lambda p: read_csv(p, has_label=True).xyz,
                                  lambda p: read_feature_csv(p).values],
                         ids=["points", "features"])
def test_declined_csv_is_opened_once(tmp_path, monkeypatch, read):
    # np.loadtxt refuses the quoted cell and the 3.0 label, so the rows
    # are parsed again, from the lines already read.
    path = tmp_path / "m.csv"
    path.write_text('x,y,z,label\n"0.5",1,2,3.0\n0.25,1,2,4\n')
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert read(path).tolist() == [[0.5, 1.0, 2.0], [0.25, 1.0, 2.0]]
    assert opened.count(path) == 1


def test_release_drops_each_line_once_yielded():
    # The reference parse of a declined file must not hold every line
    # next to every parsed row.
    lines = ["a\n", "b\n", "c\n"]
    seen = []
    for line in matrix_module._release(lines):
        seen.append((line, lines.count(None)))
    assert seen == [("a\n", 1), ("b\n", 2), ("c\n", 3)]


@pytest.mark.parametrize("feature, label, reason", [
    ("nan", "1", "non-finite feature value"),
    ("-inf", "1", "non-finite feature value"),
    ("0.5", "99999999999999999999", "int64"),
    ("0.5", "1e30", "int64"),
    ("0.5", "nan", "non-finite label"),
    ("0.5", "2.5", "not an integer"),
])
def test_csv_bad_value_names_first_bad_row(tmp_path, feature, label, reason):
    # Row 3 is blank and skipped; rows 4 and 5 are both bad.
    path = tmp_path / "m.csv"
    path.write_text(f"a,b,label\n0.1,0.2,1\n\n0.3,{feature},{label}\n0.4,nan,1\n")
    with pytest.raises(FormatError, match=f"row 4: .*{reason}"):
        read_feature_csv(path)


def test_csv_labels_parse_like_point_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "a,label\n0.1,3.0\n0.2,-4.0\n0.3,-9223372036854775808\n0.4,9223372036854775807\n"
    )
    assert read_feature_csv(path).labels.tolist() == [3, -4, -2**63, 2**63 - 1]


@pytest.mark.parametrize("body, bad_row", [
    ("0.1,0.2,0.3,1\n0.3,0.4,0.5,2\n", None),
    ("0.1,0.2,0.3,1\n   \n0.3,0.4,0.5,2\n", None),
    ("0.1,0.2,0.3,1\n   \n0.3,0.4,2\n", 4),
    ("0.1,0.2,0.3,1\n0.3,oops,0.5,2\n", 3),
    ("0.1,0.2,0.3,1\nnan,0.4,0.5,2\n", 3),
    ("0.1,0.2,0.3,1\n0.3,0.4,0.5,1e30\n", 3),
], ids=["plain", "whitespace-only line", "ragged row after whitespace line",
        "non-numeric cell", "NaN", "1e30 label"])
def test_point_and_feature_readers_share_row_rules(tmp_path, body, bad_row):
    path = tmp_path / "p.csv"
    path.write_text("x,y,z,label\n" + body)
    if bad_row is None:
        cloud, matrix = read_csv(path, has_label=True), read_feature_csv(path)
        np.testing.assert_array_equal(cloud.xyz, matrix.values)
        np.testing.assert_array_equal(cloud.labels, matrix.labels)
        assert len(cloud) == 2
        return
    for read in (lambda: read_csv(path, has_label=True), lambda: read_feature_csv(path)):
        with pytest.raises(FormatError, match=f"p.csv row {bad_row}: "):
            read()


# Cells that np.loadtxt reads exactly as float() does.
_EDGE_FLOATS = ["-0.0", "5e-324", "1.7976931348623157e+308", "-1.7976931348623157e+308",
                "1e+16", "0.30000000000000004", " 0.5", "0.25 ", "\t2.0\t"]
_PLAIN_LABELS = ["0", "7", "-4", "+5", " 3 ", str(2**63 - 1), str(-2**63)]
# Cells that one reader or the other refuses, or reads only through
# _parse_rows: each gives the reference result or error either way.
_ODD_CELLS = ["nan", "-inf", "1e400", "1_0", '"0.5"', "oops", "", "0x10",
              "0" * 199_999 + "1"]
_ODD_LABELS = ["3.0", "1_0", str(2**63), str(-2**63 - 1), "1e30", "nan", "2.5", '"4"', ""]


@st.composite
def numeric_csvs(draw):
    """(text, kind, has_label, fast): a point or feature CSV text, and
    whether np.loadtxt is expected to read all of it."""
    kind = draw(st.sampled_from(["points", "features"]))
    n_values = 3 if kind == "points" else draw(st.integers(1, 4))
    has_label = draw(st.booleans())
    names = ["x", "y", "z"] if kind == "points" else [f"f{i}" for i in range(n_values)]
    header = kind == "features" or draw(st.booleans())
    lines = [",".join(names + ["label"] * has_label)] if header else []
    odd = False
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "long"]))
        if shape == "blank":
            lines.append("")
            continue
        if shape == "spaces":
            lines.append("   ")
            odd = True
            continue
        cells = [draw(floats | st.sampled_from(_EDGE_FLOATS)) for _ in range(n_values)]
        if has_label:
            cells.append(draw(st.integers(-2**63, 2**63 - 1).map(str)
                              | st.sampled_from(_PLAIN_LABELS)))
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(cells) - 1))
            labelled = has_label and at == len(cells) - 1
            cells[at] = draw(st.sampled_from(_ODD_LABELS if labelled else _ODD_CELLS))
            odd = True
        if shape == "short":
            cells.pop()
            odd = True
        elif shape == "long":
            cells.append("0.5")
            odd = True
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + eol for line in lines)
    has_data = any(lines[header:])
    return text, kind, has_label, has_data and not odd


def _read_outcome(path, kind, has_label):
    """The arrays a reader returns, bit for bit, or its error."""
    try:
        if kind == "points":
            cloud = read_csv(path, has_label=has_label)
            values, labels, names = cloud.xyz, cloud.labels, None
        else:
            matrix = read_feature_csv(path)
            values, labels, names = matrix.values, matrix.labels, matrix.column_names
    except ProdcoefError as exc:
        return type(exc), str(exc)
    return (values.shape, values.tobytes(), names,
            None if labels is None else labels.tolist())


@settings(max_examples=400, deadline=None)
@given(case=numeric_csvs())
def test_loadtxt_reader_equals_reference_rows(tmp_path_factory, case):
    text, kind, has_label, fast = case
    path = tmp_path_factory.getbasetemp() / "numeric.csv"
    path.write_bytes(text.encode())
    loaded = []
    load_rows = matrix_module._load_rows

    def spy(*args):
        table = load_rows(*args)
        loaded.append(table is not None)
        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_module, "_load_rows", spy)
        got = _read_outcome(path, kind, has_label)
        patch.setattr(matrix_module, "_load_rows", lambda *args: None)
        expected = _read_outcome(path, kind, has_label)
    assert got == expected
    if fast:
        assert loaded == [True]


def test_header_only_bodies_read_without_warning(tmp_path):
    # np.loadtxt warns about a body without data; the readers must not
    # let that warning out, and read such a body as no rows.
    path = tmp_path / "m.csv"
    for body in ("", "\n", "\r\n\n"):
        path.write_text("x,y,z,label\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            matrix = read_feature_csv(path)
            cloud = read_csv(path, has_label=True)
        assert [str(w.message) for w in caught] == []
        assert matrix.values.shape == (0, 3) and matrix.labels.tolist() == []
        assert cloud.xyz.shape == (0, 3) and cloud.labels.tolist() == []
