"""CSV ingestion: feature columns with missing-value masks plus a binary label."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParseError
from .midrank import VariableColumn

DEFAULT_MISSING_TOKENS = ("NA", "", "?")


@dataclass(frozen=True)
class Dataset:
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

    Feature cells matching a missing token, or reading as NaN, get masked;
    any other non-numeric cell, an infinite value and a repeated header name
    are each a ParseError with its location.
    """
    missing = set(missing_tokens)
    with open(path, "r", encoding="utf-8", newline="") as fh:
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

    n = len(rows)
    if n == 0:
        raise ParseError("no data rows", row=2)
    raw_labels = []
    columns = {j: [] for j in range(len(header)) if j != label_idx}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"row has {len(row)} fields, expected {len(header)}", row=i + 2
            )
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            cell = cell.strip()
            if cell in missing:
                columns[j].append(np.nan)
                continue
            try:
                columns[j].append(float(cell))
            except ValueError:
                raise ParseError(
                    f"cannot parse {cell!r} as a number",
                    row=i + 2,
                    column=header[j],
                ) from None

    variables = []
    for j in sorted(columns):
        values = np.array(columns[j])
        inf = np.flatnonzero(np.isinf(values))
        if inf.size:
            i = int(inf[0])
            raise ParseError(
                f"infinite value {rows[i][j].strip()!r}", row=i + 2, column=header[j]
            )
        variables.append(VariableColumn.from_values(values, name=header[j]))

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
        p=len(variables),
    )
