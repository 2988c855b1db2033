"""Row-per-point numeric table with column provenance; `FeatureMatrix`
holds the one table rule for points and features."""

from __future__ import annotations

import csv
import shutil
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError, output_file
from .workers import ForkedChildren, worker_count

LABEL_COLUMN = "label"

# Labels are stored as int64.
_LABEL_MIN, _LABEL_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

# Rows formatted per write: batching saves a call per row while the
# batch's text and Python floats stay a few MB at most. Also the fewest
# rows that write_feature_csv gives a forked formatter.
_WRITE_ROWS = 4096


@dataclass(frozen=True)
class FeatureMatrix:
    """Immutable (rows x cols) float64 copy of finite values under
    distinct column names, `label` reserved.

    `labels`, when present, aligns one integer class code to each row
    and rides along through transforms and CSV round trips.
    """

    values: np.ndarray
    column_names: tuple[str, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 2:
            raise ValidationError(f"expected a 2-D table, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValidationError("values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

        names = tuple(str(n) for n in self.column_names)
        if len(names) != values.shape[1]:
            raise ValidationError(
                f"{len(names)} column names for {values.shape[1]} columns"
            )
        if LABEL_COLUMN in names:
            raise ValidationError(f"{LABEL_COLUMN!r} is reserved for the label vector")
        if len(set(names)) < len(names):
            repeated = next(n for n, count in Counter(names).items() if count > 1)
            raise ValidationError(f"column {repeated!r} is named twice")
        object.__setattr__(self, "column_names", names)

        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64, copy=True)
            if labels.shape != (values.shape[0],):
                raise ValidationError("labels must align one-to-one with rows")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def take_rows(self, index) -> "FeatureMatrix":
        index = np.asarray(index)
        return FeatureMatrix(
            values=self.values[index],
            column_names=self.column_names,
            labels=None if self.labels is None else self.labels[index],
        )

    def select_columns(self, names) -> "FeatureMatrix":
        missing = [n for n in names if n not in self.column_names]
        if missing:
            raise ValidationError(f"unknown columns {missing}")
        cols = [self.column_names.index(n) for n in names]
        return FeatureMatrix(
            values=self.values[:, cols],
            column_names=tuple(names),
            labels=self.labels,
        )

    def with_labels(self, labels) -> "FeatureMatrix":
        return FeatureMatrix(self.values, self.column_names, labels)


def _write_rows(matrix: FeatureMatrix, lo: int, hi: int, out) -> None:
    """Write rows lo..hi-1 of `matrix` to the binary file `out`, floats
    in repr (round-trip) form, _WRITE_ROWS rows of text at a time."""
    for start in range(lo, hi, _WRITE_ROWS):
        stop = min(start + _WRITE_ROWS, hi)
        rows = matrix.values[start:stop].tolist()
        if matrix.labels is not None:
            for row, label in zip(rows, matrix.labels[start:stop].tolist()):
                row.append(label)
        out.write("".join([",".join(map(repr, row)) + "\n" for row in rows]).encode("ascii"))


def _fork_part(matrix: FeatureMatrix, lo: int, hi: int, children: ForkedChildren) -> None:
    """Fork a child of `children` that writes rows lo..hi-1 of `matrix` into its file."""
    children.fork(lambda spool: _write_rows(matrix, lo, hi, spool),
                  f"formatting rows {lo}..{hi - 1}")


def write_feature_csv(matrix: FeatureMatrix, path, workers: int = 1) -> None:
    """Write header + rows; floats in repr (round-trip) form.

    The rows are split into worker_count(workers, n_rows // _WRITE_ROWS)
    contiguous parts, so a part has at least _WRITE_ROWS rows. Before
    the file is opened, each part after the first gets a child made by
    POSIX fork (`workers.ForkedChildren`), which formats it into its own
    unlinked temporary file. This process writes the header and the
    first part, then copies in each child's file in row order. So the
    file has the same bytes for any `workers`; with `workers` 1, or
    under 2 * _WRITE_ROWS rows, no child is made. Forking needs POSIX
    fork and a caller with no other threads running. A file that cannot
    be written is a FormatError, and a child that fails or is killed a
    ProdcoefError, each naming the file; no child outlives the call.
    """
    names = list(matrix.column_names)
    if matrix.labels is not None:
        names.append(LABEL_COLUMN)
    parts = worker_count(workers, matrix.n_rows // _WRITE_ROWS)
    bounds = [matrix.n_rows * k // parts for k in range(parts + 1)]
    forked = list(zip(bounds[1:-1], bounds[2:]))  # the ranges after the first
    with ForkedChildren() as children:
        for lo, hi in forked:
            _fork_part(matrix, lo, hi, children)
        with output_file(path) as handle:
            handle.write(",".join(names) + "\n")
            handle.flush()  # the rows go to the byte stream under the text layer
            _write_rows(matrix, bounds[0], bounds[1], handle.buffer)
            for lo, hi in forked:
                spool = children.wait(f"a formatter process writing rows {lo}..{hi - 1} "
                                      f"of {path}")
                shutil.copyfileobj(spool, handle.buffer)


def _parse_label(cell: str, path, row_num: int) -> int:
    """Integer class code of a CSV cell; `3` and `3.0` both read as 3.

    Anything that is not a finite whole number inside int64 is a
    FormatError naming the file and row.
    """
    try:
        label = int(cell)
    except ValueError:
        try:
            value = float(cell)
        except ValueError:
            raise FormatError(f"{path} row {row_num}: non-numeric label {cell!r}") from None
        if not np.isfinite(value):
            raise FormatError(f"{path} row {row_num}: non-finite label {cell!r}")
        if value != int(value):
            raise FormatError(f"{path} row {row_num}: label {cell!r} is not an integer")
        label = int(value)
    if not _LABEL_MIN <= label <= _LABEL_MAX:
        raise FormatError(f"{path} row {row_num}: label {cell!r} does not fit in int64")
    return label


def _parse_rows(rows, first_row: int, path, n_values: int, has_label: bool, what: str):
    """(values, labels) of the CSV rows after a header; `rows` yields
    file row `first_row` first. This is the reference reading, and the
    one that names a bad row.

    An empty row, or one whose only cell is whitespace, is skipped. Every
    other row holds `n_values` floats, then an integer label when
    `has_label`. A row of another width, a cell that is not a number,
    a NaN or infinity, or a bad label is a FormatError naming the file
    row; `what` names the value columns in the message.
    """
    width = n_values + has_label
    values: list[tuple[float, ...]] = []
    row_nums: list[int] = []
    labels: list[int] = []
    for row_num, row in enumerate(rows, start=first_row):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise FormatError(f"{path} row {row_num}: expected {width} fields, got {len(row)}")
        try:
            values.append(tuple(map(float, row[:n_values])))
        except ValueError:
            raise FormatError(f"{path} row {row_num}: non-numeric {what}") from None
        row_nums.append(row_num)
        if has_label:
            labels.append(_parse_label(row[-1], path, row_num))
    table = np.array(values, dtype=np.float64).reshape(len(values), n_values)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path} row {row_nums[int(np.argmin(finite))]}: non-finite {what}")
    return table, np.array(labels, dtype=np.int64) if has_label else None


def _load_rows(lines, n_values: int, has_label: bool):
    """`_parse_rows`' (values, labels) of `lines` by one np.loadtxt call,
    or None where that call could read them differently.

    loadtxt splits the lines at commas and reads each cell with the
    parser behind Python's float() and each label as a plain integer,
    so a body it accepts reads as `_parse_rows` reads it. Everything it
    refuses goes to `_parse_rows`: a quoted cell, a `3.0` or `1_0` cell,
    a whitespace-only row, a row of another width, an empty body. So do
    NaN or infinite values, and a line over the csv module's field
    limit, which csv.reader may refuse.
    """
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    dtype = [("values", np.float64, (n_values,))] + [("label", np.int64)] * has_label
    with warnings.catch_warnings():
        # An empty body warns and returns no rows; _parse_rows reads it.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
        except (ValueError, Warning):
            return None
    values = table["values"]
    if not np.isfinite(values).all():
        return None
    return values, table["label"] if has_label else None


def rescale_unit_columns(values: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Min-max each column onto [0,1] as (v - min) / (max - min), given
    the columns' finite `mins` and `maxs`; a constant column becomes 0.5."""
    span = maxs - mins
    constant = span == 0.0
    out = values - mins
    out /= np.where(constant, 1.0, span)
    out[:, constant] = 0.5
    return out


def _release(lines):
    """Yield `lines` in order, dropping each from the list once yielded."""
    for i, line in enumerate(lines):
        lines[i] = None
        yield line


def read_numeric_csv(path, layout, what: str):
    """(value column names, values, labels) of the numeric CSV at `path`.

    The file is opened and decoded once, into a list of lines. `layout`
    reads the first CSV record (None in an empty file) and returns
    (value column names, has_label, file row of the first data row: 1
    when that record is data, 2 after a header). The body is read by
    `_load_rows` and, where it declines, by `_parse_rows` from the same
    lines, each released once parsed so that the lines and the parsed
    rows are never all held at once. So every accepted file gives the
    reference arrays and every rejected one its error; `what` names the
    value columns in row errors. A file that cannot be opened, cannot be
    decoded as text (checked before any row is read) or breaks the CSV
    reader (a field over its size limit, say) is a FormatError naming
    the file.
    """
    try:
        with open(path, "r", newline="") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a readable CSV file: {exc}") from None
    reader = csv.reader(lines)
    try:
        names, has_label, first_row = layout(next(reader, None))
        if first_row == 2:
            del lines[:reader.line_num]
        table = _load_rows(lines, len(names), has_label)
        if table is None:
            table = _parse_rows(csv.reader(_release(lines)), first_row, path, len(names),
                                has_label, what)
    except csv.Error as exc:
        raise FormatError(f"{path}: not a readable CSV file: {exc}") from None
    return names, *table


def read_feature_csv(path) -> FeatureMatrix:
    """Read a feature CSV written by `write_feature_csv`.

    The header names the columns; a `label` column, when present, must
    be the last and is parsed as the integer label vector; a name given
    twice is a FormatError. Rows are read by `read_numeric_csv`, and
    errors count the header as row 1.
    """
    def layout(header):
        if header is None:
            raise FormatError(f"{path}: empty feature file")
        has_label = bool(header) and header[-1] == LABEL_COLUMN
        names = tuple(header[:-1] if has_label else header)
        if not names:
            raise FormatError(f"{path}: header has no feature columns")
        if LABEL_COLUMN in names:
            raise FormatError(f"{path}: {LABEL_COLUMN!r} must be the last column")
        try:
            FeatureMatrix(np.empty((0, len(names))), names)  # the column rules
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from None
        return names, has_label, 2

    names, values, labels = read_numeric_csv(path, layout, "feature value")
    return FeatureMatrix(values=values, column_names=names, labels=labels)
