"""CSV ingestion: feature columns with missing-value masks plus a binary label."""

from __future__ import annotations

import contextlib
import csv
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParseError
from .midrank import VariableColumn

DEFAULT_MISSING_TOKENS = ("NA", "", "?")
# Line ends as Python's universal newlines read them.
_LINE_END = re.compile(rb"\r\n?|\n")


@contextlib.contextmanager
def open_text(path, newline=None):
    """``path`` opened for reading as UTF-8.  A byte that does not decode,
    met anywhere in the ``with`` block, is a ParseError whose row is the line
    of the file that holds it."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = 1 + len(_LINE_END.findall(data, 0, exc.start))
                raise ParseError(
                    f"byte 0x{data[exc.start]:02x} is not valid UTF-8", row=line
                ) from None
            raise


@dataclass(frozen=True)
class Dataset:
    """Feature columns in header order and a 0/1 label per row.  Columns
    from ``load_csv`` are row views of one (p, n) matrix."""

    variables: list  # VariableColumn
    labels: np.ndarray  # 0/1, length n
    positive_label: str
    n: int
    p: int


def load_csv(
    path,
    label_column: str,
    positive_label: str | None = None,
    missing_tokens=DEFAULT_MISSING_TOKENS,
) -> Dataset:
    """Parse a header-bearing CSV into feature columns and a binary label.

    A feature cell that matches a missing token, as written or stripped, or
    that reads as NaN is missing.  All feature cells are parsed in one pass
    into a single (p, n) array, and each returned ``VariableColumn`` is a row
    view of it and of its missing mask.  A ragged row, a non-numeric cell,
    an infinite value and a repeated header name are each a ParseError with
    its location; the first bad row or cell in file order wins, and an
    infinite value is reported only when every cell parses, from the lowest
    column and then the lowest row.
    """
    missing = set(missing_tokens)
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", row=1) from None
        rows = list(reader)
    seen = set()
    for name in header:
        if name in seen:
            raise ParseError(f"duplicate column name {name!r}", row=1, column=name)
        seen.add(name)
    if label_column not in header:
        raise LabelError(f"label column {label_column!r} not in header")
    label_idx = header.index(label_column)
    names = header[:label_idx] + header[label_idx + 1 :]

    n, p = len(rows), len(names)
    if n == 0:
        raise ParseError("no data rows", row=2)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            _raise_first_bad_cell(
                [r[:label_idx] + r[label_idx + 1 :] for r in rows[:i]], names, missing
            )
            raise ParseError(
                f"row has {len(row)} fields, expected {len(header)}", row=i + 2
            )
    raw_labels = [row.pop(label_idx).strip() for row in rows]
    # A missing cell becomes "nan": first where its stripped form is a token,
    # then, if some token has surrounding whitespace, where it is one as written.
    cells = list(itertools.chain.from_iterable(rows))
    to_nan = dict.fromkeys(missing, "nan")
    cells = list(map(to_nan.get, map(str.strip, cells), cells))
    if any(t != t.strip() for t in missing):
        cells = list(map(to_nan.get, itertools.chain.from_iterable(rows), cells))
    try:
        flat = np.fromiter(map(float, cells), dtype=float, count=n * p)
    except ValueError:
        _raise_first_bad_cell(rows, names, missing)
        raise
    X = np.ascontiguousarray(flat.reshape(n, p).T)
    isinf = np.isinf(X)
    if isinf.any():
        j, i = np.argwhere(isinf)[0]
        raise ParseError(
            f"infinite value {rows[i][j].strip()!r}", row=int(i) + 2, column=names[j]
        )
    mask = np.isnan(X)
    variables = [
        VariableColumn(values=X[j], missing=mask[j], name=names[j]) for j in range(p)
    ]

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
        variables=variables,
        labels=labels,
        positive_label=positive_label,
        n=n,
        p=p,
    )


def _raise_first_bad_cell(rows, names, missing):
    """Raise a located ParseError at the first feature cell, in file order,
    that is neither missing nor a number; ``rows`` hold feature cells only."""
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell in missing or cell.strip() in missing:
                continue
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse {cell.strip()!r} as a number",
                    row=i + 2,
                    column=names[j],
                ) from None
