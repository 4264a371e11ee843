"""CSV ingestion: one (p, n) feature matrix with its missing mask, plus a
binary label."""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParseError
from .midrank import VariableColumn

DEFAULT_MISSING_TOKENS = ("NA", "", "?")
# Cells that the plain-file path splits and converts at a time.
CHUNK_CELLS = 2**16
# The bytes of a plain file: LF and printable ASCII other than space and '"'.
_PLAIN_BYTES = b"\n" + bytes(range(0x21, 0x7F)).replace(b'"', b"")
# Line ends as Python's universal newlines read them.
_LINE_END = re.compile(rb"\r\n?|\n")


@dataclass(frozen=True, eq=False)
class ColumnMatrix(Sequence):
    """Feature columns held as the rows of one (p, n) value matrix and its
    missing mask.  Item i is a ``VariableColumn`` of row views; a slice is
    a ColumnMatrix of views, and a list of indices one of copied rows."""

    values: np.ndarray  # (p, n)
    missing: np.ndarray  # (p, n) bool
    names: list

    def __len__(self):
        return len(self.names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ColumnMatrix(self.values[i], self.missing[i], self.names[i])
        if isinstance(i, list):
            return ColumnMatrix(self.values[i], self.missing[i], [self.names[j] for j in i])
        return VariableColumn(values=self.values[i], missing=self.missing[i], name=self.names[i])

    @classmethod
    def stack(cls, cols, n: int):
        """Equal-length ``VariableColumn``s copied into one matrix, (0, n) if
        empty; unequal lengths are a ValueError naming the first column whose
        length is not n."""
        if len({len(c.values) for c in cols}) > 1:
            bad = next(c for c in cols if len(c.values) != n)
            raise ValueError(f"column {bad.name!r} has {len(bad.values)} values, not n = {n}")
        values = np.array([c.values for c in cols] or np.empty((0, n)))
        missing = np.array([c.missing for c in cols] or np.empty((0, n), dtype=bool))
        return cls(values, missing, [c.name for c in cols])


@dataclass(frozen=True)
class Dataset:
    """Feature columns in header order and a 0/1 label per row.

    ``variables`` is a ColumnMatrix, which ``load_csv`` gives; a sequence
    of ``VariableColumn``s is stacked into one when the Dataset is built.
    n, p and the labels must agree with that matrix.
    """

    variables: ColumnMatrix
    labels: np.ndarray  # 0/1, length n
    positive_label: str
    n: int
    p: int

    def __post_init__(self):
        if not isinstance(self.variables, ColumnMatrix):
            object.__setattr__(self, "variables", ColumnMatrix.stack(self.variables, self.n))
        p, n = self.variables.values.shape
        if (self.n, self.p, len(self.labels)) != (n, p, n):
            raise ValueError(f"n = {self.n}, p = {self.p} and {len(self.labels)} labels, "
                             f"but the matrix is p x n = {p} x {n}")

    @property
    def names(self) -> list:
        """Variable names in header order."""
        return self.variables.names


def load_csv(
    path,
    label_column: str,
    positive_label: str | None = None,
    missing_tokens=DEFAULT_MISSING_TOKENS,
) -> Dataset:
    """Parse a header-bearing CSV into feature columns and a binary label.

    A feature cell that matches a missing token, as written or stripped, or
    that reads as NaN is missing; any other feature cell is read as
    ``float()`` reads it.  Every feature cell goes into one (p, n) matrix,
    returned as a ColumnMatrix with its missing mask.  A file of plain ASCII
    cells (see ``_parse_plain``) is parsed by numpy's C parser, one chunk of
    rows at a time, straight into that matrix.  Any other file, and any
    plain file that parser rejects, is read by ``csv.reader`` instead, which
    gives the same matrix or locates the fault.  A ragged row, a
    non-numeric cell, an infinite value, a repeated header name and a field
    longer than ``csv.field_size_limit()`` are each a ParseError with its
    location; the first bad row or cell in file order wins, and an infinite
    value is reported only when every cell parses, from the lowest column
    and then the lowest row.
    """
    missing = set(missing_tokens)
    parsed = _parse_plain(path, label_column, missing)
    names, X, raw_labels = parsed or _parse_rows(path, label_column, missing)

    distinct_labels = sorted(set(raw_labels))
    if len(distinct_labels) != 2:
        raise LabelError(
            f"label column must take exactly 2 values, got {distinct_labels}"
        )
    if positive_label is None:
        positive_label = distinct_labels[-1]
    elif positive_label not in distinct_labels:
        raise LabelError(
            f"positive label {positive_label!r} not among {distinct_labels}"
        )
    labels = np.array([1 if v == positive_label else 0 for v in raw_labels])
    return Dataset(
        variables=ColumnMatrix(X, np.isnan(X), names),
        labels=labels,
        positive_label=positive_label,
        n=X.shape[1],
        p=X.shape[0],
    )


def _parse_plain(path, label_column, missing):
    """(names, values (p, n), labels) of a plain file, else None.

    A plain file holds only LF line ends and printable ASCII other than
    space and ``"``, so ``csv.reader`` would split each line on commas and
    ``str.strip`` would change no cell.  Its lines are non-empty and hold
    the header's comma count, and its fields fit within
    ``csv.field_size_limit()``; its header holds the label column once and
    no name twice.  Data lines are parsed CHUNK_CELLS cells at a time: a
    scan of the chunk's comma and LF bytes gives every cell's bounds, the
    label cells are read from them, each missing-token cell is replaced by
    ``nan``, and numpy's C ``loadtxt`` parses the feature columns straight
    into the matrix.  That parser reads a cell as ``float()`` does, bit for
    bit, but it rejects what ``float()`` alone accepts, such as ``1_0``.  A
    cell it rejects, or an infinite value, returns None, and the file is
    then read by ``_parse_rows``.  ``comments=None`` keeps ``#`` a plain
    byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _PLAIN_BYTES):
        return None
    lines = data.split(b"\n")
    del data
    if lines[-1] == b"":
        lines.pop()
    if len(lines) < 2 or not all(lines):
        return None
    header = lines[0].decode("ascii").split(",")
    w = len(header)
    if len(set(header)) < w or label_column not in header:
        return None
    # Only a line over csv.reader's field limit can hold a field over it.
    limit = csv.field_size_limit()
    wide = max(map(len, lines)) > limit
    if wide and max(map(len, header)) > limit:
        return None
    label_idx = header.index(label_column)
    features = [j for j in range(w) if j != label_idx]
    # Only an ASCII token can equal a cell of a plain file.
    tokens = [t.encode("ascii") for t in missing if t.isascii()]
    n, p = len(lines) - 1, w - 1
    X = np.empty((p, n))
    labels = []
    step = max(1, CHUNK_CELLS // w)
    for a in range(0, n, step):
        rows = lines[1 + a : 1 + a + step]
        chunk = b"\n".join([*rows, b""])
        raw = np.frombuffer(chunk, np.uint8)
        ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
        # Each line holds the header's comma count when every w-th bound is an LF.
        if ends.size != len(rows) * w or (raw[ends[w - 1 :: w]] != ord("\n")).any():
            return None
        starts = np.concatenate(([0], ends[:-1] + 1))
        sizes = ends - starts
        if wide and sizes.max() > limit:
            return None
        labels += [chunk[s:e].decode("ascii") for s, e in
                   zip(starts[label_idx::w].tolist(), ends[label_idx::w].tolist())]
        is_token = np.zeros(sizes.size, dtype=bool)
        for t in tokens:
            hits = np.flatnonzero(sizes == len(t))
            for i, byte in enumerate(t):
                hits = hits[raw[starts[hits] + i] == byte]
            is_token[hits] = True
        cells = np.flatnonzero(is_token)
        if cells.size:
            # The bytes between token cells, joined by "nan" in their place.
            kept = zip([0, *ends[cells].tolist()], [*starts[cells].tolist(), len(chunk)])
            chunk = b"nan".join([chunk[s:e] for s, e in kept])
        try:
            block = np.loadtxt(io.BytesIO(chunk), delimiter=",", comments=None,
                               usecols=features, ndmin=2)
        except ValueError:
            return None
        X[:, a : a + len(rows)] = block.T
    if np.isinf(X).any():
        return None
    return header[:label_idx] + header[label_idx + 1 :], X, labels


def _parse_rows(path, label_column, missing):
    """(names, values (p, n), labels) of any file, read by ``csv_rows``; each
    fault is a located ParseError or a LabelError, in the order ``load_csv``
    gives.  The rows stay as read: labels come from the cell list by stride."""
    records = csv_rows(path)
    header = next(records, None)
    if header is None:
        raise ParseError("empty file", row=1)
    seen = set()
    for name in header:
        if name in seen:
            raise ParseError(f"duplicate column name {name!r}", row=1, column=name)
        seen.add(name)
    if label_column not in header:
        raise LabelError(f"label column {label_column!r} not in header")
    label_idx = header.index(label_column)
    names = header[:label_idx] + header[label_idx + 1 :]
    rows = []
    try:
        for record in records:
            rows.append(record)
    except ParseError:  # a record csv_rows cannot read loses to an earlier fault
        _raise_first_fault(rows, header, label_idx, missing)
        raise

    n, p, w = len(rows), len(names), len(header)
    if n == 0:
        raise ParseError("no data rows", row=2)
    if any(len(row) != w for row in rows):
        _raise_first_fault(rows, header, label_idx, missing)
    raw = list(itertools.chain.from_iterable(rows))
    raw_labels = list(map(str.strip, raw[label_idx::w]))
    del raw[label_idx::w]
    # A missing cell becomes "nan": first where its stripped form is a token,
    # then, if some token has surrounding whitespace, where it is one as written.
    to_nan = dict.fromkeys(missing, "nan")
    cells = list(map(to_nan.get, map(str.strip, raw), raw))
    if any(t != t.strip() for t in missing):
        cells = list(map(to_nan.get, raw, cells))
    del raw
    try:
        flat = np.fromiter(map(float, cells), dtype=float, count=n * p)
    except ValueError:
        _raise_first_fault(rows, header, label_idx, missing)
        raise
    X = np.ascontiguousarray(flat.reshape(n, p).T)
    isinf = np.isinf(X)
    if isinf.any():
        j, i = np.argwhere(isinf)[0]
        cell = rows[i][j + (j >= label_idx)]
        raise ParseError(f"infinite value {cell.strip()!r}", row=int(i) + 2, column=names[j])
    return names, X, raw_labels


def _raise_first_fault(rows, header, label_idx, missing):
    """Raise a located ParseError at the first fault of ``rows`` in file
    order: a row whose field count is not the header's, or else one of its
    feature cells that is neither missing nor a number."""
    for i, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise ParseError(f"row has {len(row)} fields, expected {len(header)}", row=i)
        for j, cell in enumerate(row):
            if j == label_idx or cell in missing or cell.strip() in missing:
                continue
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse {cell!r} as a number", row=i, column=header[j]
                ) from None


def csv_rows(path):
    """The records of the CSV file at ``path``, read as UTF-8 by ``csv.reader``
    up to its first fault; a leading byte order mark is dropped.  A record
    the reader cannot read, such as one with a field over
    ``csv.field_size_limit()``, is a ParseError at its row; a byte that is
    not UTF-8 is one at the line that holds it (``utf8_fault``)."""
    row = 0
    for text in (True, False):
        # Text mode decodes 8 KB ahead of the reader.  After its fault, each line
        # is decoded as the reader reaches it, past the ``row`` records given.
        try:
            with open(path, "rb") as fh:
                lines = (io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") if text else
                         codecs.iterdecode((s for line in fh for s in line.splitlines(True)),
                                           "utf-8-sig"))
                records = itertools.islice(csv.reader(lines), row, None)
                for row, record in enumerate(records, row + 1):
                    yield record
            return
        except csv.Error as exc:
            raise ParseError(str(exc), row=row + 1) from None
        except UnicodeDecodeError:
            pass
    raise utf8_fault(path)


def utf8_fault(path) -> ParseError:
    """The ParseError for a file that does not decode as UTF-8: its row is
    the line that holds the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(_LINE_END.findall(data, 0, exc.start))
        return ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", row=line)
    return ParseError("file changed while it was read")
