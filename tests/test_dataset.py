import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine.dataset import load_csv
from cdmine.errors import LabelError, ParseError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_small_file_with_missing(tmp_path):
    path = write(tmp_path, "a,b,cls\n1,2,0\nNA,4,1\n5,6,0\n")
    ds = load_csv(path, label_column="cls")
    assert ds.n == 3 and ds.p == 2
    a = ds.variables[0]
    assert a.name == "a"
    np.testing.assert_array_equal(a.missing, [False, True, False])
    np.testing.assert_array_equal(a.values[~a.missing], [1.0, 5.0])
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])


def test_three_label_values_rejected(tmp_path):
    path = write(tmp_path, "a,cls\n1,x\n2,y\n3,z\n")
    with pytest.raises(LabelError):
        load_csv(path, label_column="cls")


def test_missing_label_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(LabelError):
        load_csv(path, label_column="cls")


def test_parse_error_carries_location(tmp_path):
    path = write(tmp_path, "a,b,cls\n1,2,0\n1,oops,1\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert err.value.row == 3
    assert err.value.column == "b"


@pytest.mark.parametrize("header", ["a,b,a,cls", "a,cls,b,cls"])
def test_duplicate_header_name_rejected(tmp_path, header):
    path = write(tmp_path, header + "\n1,2,3,0\n4,5,6,1\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert err.value.row == 1
    assert err.value.column == header.split(",")[2 if header.startswith("a,b") else 3]


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "a,b,cls\n1,2\n")
    with pytest.raises(ParseError):
        load_csv(path, label_column="cls")


def test_custom_missing_tokens(tmp_path):
    path = write(tmp_path, "a,cls\n-999,0\n1,1\n2,0\n3,1\n")
    ds = load_csv(path, label_column="cls", missing_tokens=("-999",))
    assert ds.variables[0].missing[0]


def test_positive_label_choice(tmp_path):
    path = write(tmp_path, "a,cls\n1,alive\n2,dead\n3,alive\n")
    ds = load_csv(path, label_column="cls", positive_label="dead")
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    # default is the lexicographically larger label
    ds = load_csv(path, label_column="cls")
    assert ds.positive_label == "dead"
    with pytest.raises(LabelError):
        load_csv(path, label_column="cls", positive_label="zombie")


def test_nan_cell_is_missing(tmp_path):
    path = write(tmp_path, "a,cls\n1,0\nnan,1\n2,0\nNaN,1\n3,0\n")
    ds = load_csv(path, label_column="cls")
    np.testing.assert_array_equal(ds.variables[0].missing, [0, 1, 0, 1, 0])
    np.testing.assert_array_equal(ds.variables[0].present(), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e999"])
def test_infinite_cell_is_a_located_parse_error(tmp_path, cell):
    path = write(tmp_path, f"a,b,cls\n1,2,0\n3,4,1\n5,{cell},0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert (err.value.row, err.value.column) == (4, "b")
    assert str(err.value).startswith("row 4, column 'b': ")


def test_hepatitis_shaped_file(tmp_path):
    # 155 rows, 19 mixed-kind columns with scattered missing cells
    rng = np.random.default_rng(42)
    names = [f"v{j}" for j in range(19)]
    rows = [",".join(names + ["cls"])]
    for i in range(155):
        cells = []
        for j in range(19):
            if rng.uniform() < 0.08:
                cells.append("?" if j % 2 else "NA")
            elif j < 10:
                cells.append(f"{rng.normal(50, 20):.3f}")
            else:
                cells.append(str(rng.integers(1, 4)))
        rows.append(",".join(cells + [str(rng.integers(0, 2))]))
    ds = load_csv(write(tmp_path, "\n".join(rows) + "\n"), label_column="cls")
    assert ds.n == 155 and ds.p == 19
    assert any(v.missing.any() for v in ds.variables)


def test_empty_file(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, ""), label_column="cls")


# Cell texts for the parse-equality property: float() accepts signs,
# exponents, underscores between digits and surrounding whitespace.
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: f"{x:+.4e}"),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: f"{x:.3f}"),
    st.integers(-(10**6), 10**6).map(str),
    st.tuples(st.integers(1, 999), st.integers(0, 999)).map(lambda t: f"{t[0]}_{t[1]:03d}"),
    st.sampled_from(["+1.5", "-0", "+0.0", "1E5", "-2.5e-3", "1_0.2_5", "1e1_0", ".5", "5.",
                     "-.5E+2", "0x10", "1__0", "_1", "abc", "inf", "-Infinity", "1e999"]),
)
NAN_CELLS = st.sampled_from(["nan", "NaN", "-nan", "+NAN"])
PADS = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", " "])
TOKEN_SETS = st.sampled_from(
    [("NA", "", "?"), ("-999",), ("NA", " NA "), (" NA ",), ("?", "-999", ""), ("none",)]
)


def reference_load(grid, tokens):
    """Expected outcome of load_csv on feature cells ``grid`` (rows of
    cells), from the row-by-row rules: ("parse", row, col) for the first
    cell in file order that is neither missing nor a number, else ("inf",
    row, col) for the lowest column and then row holding an infinity, else
    ("ok", values, mask) with values (p, n) from float(cell.strip())."""
    values = np.full((len(grid[0]), len(grid)), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if cell in tokens or cell.strip() in tokens:
                mask[j, i] = True
                continue
            try:
                values[j, i] = float(cell.strip())
            except ValueError:
                return ("parse", i, j)
            mask[j, i] = math.isnan(values[j, i])
    inf = np.argwhere(np.isinf(values))
    if inf.size:
        return ("inf", int(inf[0][1]), int(inf[0][0]))
    return ("ok", values, mask)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsed_values_equal_float_of_the_stripped_cell(data):
    tokens = data.draw(TOKEN_SETS)
    n = data.draw(st.integers(2, 6))
    p = data.draw(st.integers(1, 4))
    core = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NAN_CELLS, st.sampled_from(tokens))
    cell = st.tuples(PADS, core, PADS).map("".join)
    grid = data.draw(st.lists(st.lists(cell, min_size=p, max_size=p), min_size=n, max_size=n))
    label_idx = data.draw(st.integers(0, p))
    names = [f"v{j}" for j in range(p)]
    header = names[:label_idx] + ["cls"] + names[label_idx:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cells.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, row in enumerate(grid):
                writer.writerow(row[:label_idx] + [str(i % 2)] + row[label_idx:])
        want = reference_load(grid, tokens)
        if want[0] != "ok":
            with pytest.raises(ParseError) as err:
                load_csv(path, label_column="cls", missing_tokens=tokens)
            assert (err.value.row, err.value.column) == (want[1] + 2, names[want[2]])
            assert ("infinite" in str(err.value)) == (want[0] == "inf")
            return
        ds = load_csv(path, label_column="cls", missing_tokens=tokens)
    _, values, mask = want
    assert [v.name for v in ds.variables] == names
    got = np.array([v.values for v in ds.variables])
    np.testing.assert_array_equal(np.array([v.missing for v in ds.variables]), mask)
    assert np.isnan(got[mask]).all()
    np.testing.assert_array_equal(got[~mask].view(np.uint64), values[~mask].view(np.uint64))


@pytest.mark.parametrize(
    "text, row, column",
    [
        # an unparseable cell before a ragged row wins, and vice versa
        ("a,b,cls\n1,x,0\n1,2\n", 2, "b"),
        ("a,b,cls\n1,2\n1,x,0\n", 2, None),
        ("a,b,cls\n1,2,0\nx,2\n", 3, None),
        # an unparseable cell beats an earlier infinite one
        ("a,b,cls\n1,inf,0\nx,2,1\n", 3, "a"),
        # among infinite cells the lowest column wins, then the lowest row
        ("a,b,cls\n1,inf,0\n-inf,2,1\n", 3, "a"),
        ("a,cls,b\n1,0,1e999\n2,1,-inf\n", 2, "b"),
        ("a,cls,b\n1,0,2\n2,1,inf\n", 3, "b"),
    ],
)
def test_error_precedence_on_two_faults(tmp_path, text, row, column):
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text), label_column="cls")
    assert (err.value.row, err.value.column) == (row, column)


def test_columns_are_row_views_of_one_matrix(tmp_path):
    path = write(tmp_path, "a,cls,b\n1,0,NA\n2,1,3\n4,0,5\n")
    ds = load_csv(path, label_column="cls")
    a, b = ds.variables
    assert a.values.base is not None and a.values.base is b.values.base
    assert a.values.flags.c_contiguous and b.missing.tolist() == [True, False, False]


def test_a_token_with_surrounding_spaces_matches_as_written(tmp_path):
    path = write(tmp_path, "a,cls\n NA ,0\n1,1\n2,0\n")
    ds = load_csv(path, label_column="cls", missing_tokens=(" NA ",))
    np.testing.assert_array_equal(ds.variables[0].missing, [True, False, False])
