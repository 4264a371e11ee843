import csv
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine import dataset
from cdmine.dataset import ColumnMatrix, Dataset, load_csv
from cdmine.errors import LabelError, ParseError
from cdmine.midrank import VariableColumn


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


@pytest.mark.parametrize("cell", ["\x1c1", "\x1f2.5", " 1 x"])
def test_a_cell_that_does_not_parse_is_quoted_as_written(tmp_path, cell):
    # str.strip removes the separators \x1c-\x1f, which float() rejects.
    path = write(tmp_path, f"a,cls\n1,0\n{cell},1\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert f"cannot parse {cell!r} as a number" in str(err.value)
    assert (err.value.row, err.value.column) == (3, "a")


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


@pytest.mark.parametrize(
    "cell", ["inf", "-inf", "Infinity", "1e999", "infinity", "-Infinity", "-1e999", "1" * 400]
)
def test_infinite_cell_is_a_located_parse_error(tmp_path, cell):
    path = write(tmp_path, f"a,b,cls\n1,2,0\n3,4,1\n5,{cell},0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert (err.value.row, err.value.column) == (4, "b")
    assert str(err.value) == f"row 4, column 'b': infinite value {cell!r}"


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
        # one field too many, then one too few: the cell count is right
        ("a,b,cls\n1,2,3,0\n4,1\n", 2, None),
        ("a,b,cls\n1,2,0\n1,2\n3,4,5,1\n", 3, None),
        # an unparseable cell beats an earlier infinite one
        ("a,b,cls\n1,inf,0\nx,2,1\n", 3, "a"),
        # among infinite cells the lowest column wins, then the lowest row
        ("a,b,cls\n1,inf,0\n-inf,2,1\n", 3, "a"),
        ("a,cls,b\n1,0,1e999\n2,1,-inf\n", 2, "b"),
        ("a,cls,b\n1,0,2\n2,1,inf\n", 3, "b"),
        # the label cell is never read as a number, wherever its column is
        ("a,cls,b\n1,x,2\n3,y,z\n", 3, "b"),
        ("a,cls,b\n1,0,2\n3,1\n4,z,w\n", 3, None),
        ('"a","cls","b"\r\n"1","0","x"\r\n"2","1"\r\n', 2, "b"),
        ('"a","cls","b"\r\n"1","0"\r\n"2","1","x"\r\n', 2, None),
    ],
)
def test_error_precedence_on_two_faults(tmp_path, text, row, column):
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text), label_column="cls")
    assert (err.value.row, err.value.column) == (row, column)


def test_an_infinite_cell_is_quoted_from_its_own_column(tmp_path):
    path = write(tmp_path, '"cls","a"\r\n"0"," inf"\r\n"1","2"\r\n')
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert str(err.value) == "row 2, column 'a': infinite value 'inf'"


def test_csv_rows_locates_a_byte_that_is_not_utf8_by_physical_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b'a,b\r\n"1\r\n2",3\r\ncaf\xe9,4\r\n')
    with pytest.raises(ParseError, match=r"^row 4: byte 0xe9 is not valid UTF-8$"):
        list(dataset.csv_rows(path))


def test_csv_rows_yields_every_record_before_a_bad_byte(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b'a,b\r"1\r\n2",3\ncaf\xe9,4\n5,6\n')
    rows = dataset.csv_rows(path)
    assert [next(rows), next(rows)] == [["a", "b"], ["1\r\n2", "3"]]
    with pytest.raises(ParseError, match=r"^row 4: byte 0xe9 is not valid UTF-8$"):
        next(rows)


def test_csv_rows_yields_each_record_once_when_the_bad_byte_is_chunks_in(tmp_path):
    # Far past text mode's first decoded chunk, so some records come from
    # the text read and the rest from the line-by-line one.
    path = tmp_path / "latin1.csv"
    good = [f"{i},{i * 7}" for i in range(3000)]
    path.write_bytes(("\n".join(good) + "\ncaf\xe9,4\n5,6\n").encode("latin-1"))
    rows = dataset.csv_rows(path)
    assert [next(rows) for _ in good] == [line.split(",") for line in good]
    with pytest.raises(ParseError, match=r"^row 3001: byte 0xe9 is not valid UTF-8$"):
        next(rows)


def test_csv_rows_field_over_the_limit_beats_a_later_bad_byte(tmp_path):
    path = tmp_path / "latin1.csv"
    big = "1" * (csv.field_size_limit() + 1)
    path.write_bytes(f"a,b\n1,2\n{big},3\ncaf\xe9,4\n".encode("latin-1"))
    with pytest.raises(ParseError, match=r"^row 3: field larger than field limit"):
        list(dataset.csv_rows(path))


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


def reference_csv_load(path, label_column, tokens):
    """load_csv by its rules, row by row, from csv.reader, str.strip and
    float(): (names, values (p, n), missing mask, labels), or the error
    load_csv raises."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise ParseError("empty file", row=1)
    header, rows = records[0], records[1:]
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ParseError(f"duplicate column name {name!r}", row=1, column=name)
    if label_column not in header:
        raise LabelError(f"label column {label_column!r} not in header")
    k = header.index(label_column)
    names = header[:k] + header[k + 1 :]
    if not rows:
        raise ParseError("no data rows", row=2)
    values = np.full((len(names), len(rows)), np.nan)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row has {len(row)} fields, expected {len(header)}", row=i + 2)
        for j, cell in enumerate(row[:k] + row[k + 1 :]):
            if cell in tokens or cell.strip() in tokens:
                continue
            try:
                values[j, i] = float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse {cell!r} as a number", row=i + 2, column=names[j]
                ) from None
    for j, i in np.argwhere(np.isinf(values)):
        cell = (rows[i][:k] + rows[i][k + 1 :])[j]
        raise ParseError(f"infinite value {cell.strip()!r}", row=int(i) + 2, column=names[j])
    labels = [row[k].strip() for row in rows]
    distinct = sorted(set(labels))
    if len(distinct) != 2:
        raise LabelError(f"label column must take exactly 2 values, got {distinct}")
    return names, values, np.isnan(values), [int(v == distinct[-1]) for v in labels]


# Cells of generated files: numbers in the forms float() reads and NaN
# spellings, beside the file's missing tokens.  A "junk" fault puts in one
# cell that does not parse or is infinite.
NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: f"{x:+.4e}"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["nan", "NaN", "-1.5E-3", "+2", "1_0", ".5", "5.", "-999"]),
)
JUNK_CELLS = st.sampled_from(
    ["x", "0x10", "1__0", "_1", "\x1c1", "inf", "-Infinity", "1e999"]
)


@st.composite
def csv_files(draw):
    """(text, tokens): a CSV with a cls column, or with one fault, written
    plain (LF, no quotes or spaces) or not (quotes, CRLF, spaces, non-ASCII)."""
    tokens = draw(st.sampled_from([("NA", "", "?"), ("NA", "", "?", "-999"), ("-999",)]))
    p = draw(st.integers(0, 4))
    n = draw(st.integers(2, 6))
    names = [f"v{j}" for j in range(p)]
    label_idx = draw(st.integers(0, p))
    header = names[:label_idx] + ["cls"] + names[label_idx:]
    fault = draw(st.sampled_from(
        ["none"] * 8 + ["duplicate", "no-label", "ragged", "labels", "junk", "junk"]
    ))
    if fault == "duplicate" and p:
        header[-1] = header[0]
    elif fault == "no-label":
        header[label_idx] = "class"
    rows = [header]
    for i in range(n):
        cell = st.one_of(NUMBER_TEXTS, NUMBER_TEXTS, st.sampled_from(tokens))
        row = draw(st.lists(cell, min_size=p, max_size=p))
        label = draw(st.sampled_from("012")) if fault == "labels" else str(i % 2)
        rows.append(row[:label_idx] + [label] + row[label_idx:])
    if fault == "ragged":
        i = draw(st.integers(1, n))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    elif fault == "junk" and p:
        i, j = draw(st.integers(1, n)), draw(st.sampled_from(range(p + 1)))
        if j != label_idx:
            rows[i][j] = draw(JUNK_CELLS)

    plain = draw(st.booleans())
    pad = st.sampled_from([""] * 4 + [" ", "\t", "\xa0"])
    quote = st.booleans()
    lines = []
    for i, row in enumerate(rows):
        if not plain:
            if i:
                row = [draw(pad) + c + draw(pad) for c in row]
            elif draw(st.booleans()):
                row = [c if c == "cls" else c + "é" for c in row]
            row = ['"%s"' % c if draw(quote) else c for c in row]
        lines.append(",".join(row))
    if draw(st.sampled_from([False] * 7 + [True])):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else ""), tokens


@settings(max_examples=400, deadline=None)
@given(case=csv_files())
def test_load_csv_equals_the_row_by_row_reference(case):
    text, tokens = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = reference_csv_load(path, "cls", tokens)
        except (ParseError, LabelError) as exc:
            with pytest.raises(type(exc)) as err:
                load_csv(path, label_column="cls", missing_tokens=tokens)
            assert str(err.value) == str(exc)
            return
        ds = load_csv(path, label_column="cls", missing_tokens=tokens)
        plain = dataset._parse_plain(path, "cls", set(tokens))
    names, values, mask, labels = want
    assert ds.names == names and (ds.n, ds.p) == values.shape[::-1]
    np.testing.assert_array_equal(ds.variables.missing, mask)
    np.testing.assert_array_equal(ds.labels, labels)
    got = ds.variables.values
    np.testing.assert_array_equal(got[~mask].view(np.uint64), values[~mask].view(np.uint64))
    assert np.isnan(got[mask]).all()
    # A valid file without quotes, CR, spaces or non-ASCII takes the plain path.
    if (text.isascii() and not set(' "\r\t') & set(text) and "\n\n" not in text
            and "_" not in text.partition("\n")[2]):
        assert plain is not None


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls load_csv makes to its csv.reader path."""
    calls = []
    real = dataset._parse_rows
    monkeypatch.setattr(dataset, "_parse_rows", lambda *a: calls.append(a) or real(*a))
    return calls


def test_files_that_are_not_plain_take_the_csv_reader(tmp_path, fallbacks):
    plain = "a,cls\n1,0\n2,1\n"
    for text in [plain, plain.replace("\n", "\r\n"), plain.replace("a,", '"a",'),
                 plain.replace("1,0", " 1,0"), plain.replace("a,", "a\xa0,")]:
        ds = load_csv(write(tmp_path, text), label_column="cls")
        assert ds.names == [text.split(",")[0].strip('"')]
        assert ds.variables.values.tolist() == [[1.0, 2.0]]
    assert len(fallbacks) == 4


def test_chunks_fill_the_whole_matrix(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "CHUNK_CELLS", 7)  # 2 rows of 3 cells a chunk
    rows = [f"{i},{i * 10},{i % 2}" for i in range(9)]
    ds = load_csv(write(tmp_path, "a,b,cls\n" + "\n".join(rows)), label_column="cls")
    assert ds.variables.values.tolist() == [list(range(9)), list(range(0, 90, 10))]
    assert ds.labels.tolist() == [i % 2 for i in range(9)]


def test_a_plain_cell_that_only_float_reads_takes_the_csv_reader(tmp_path, fallbacks):
    """numpy's parser rejects the digit separator that float() accepts."""
    path = write(tmp_path, "a,cls\n1_0,0\n2,1\n")
    assert dataset._parse_plain(path, "cls", {"NA"}) is None
    ds = load_csv(path, label_column="cls")
    assert ds.variables.values.tolist() == [[10.0, 2.0]]
    assert len(fallbacks) == 1


# Finite number spellings of plain cells: signed zero, the least subnormal
# and cells that round to it or to zero, NaN spellings, bare points, and
# 400-digit mantissas, two of them at and just past the halfway point
# between 2**53 and 2**53 + 2.  Infinite spellings are in
# test_infinite_cell_is_a_located_parse_error.
FINITE_CELLS = [
    "-0", "0", "4.9e-324", "2e-324", "1e-400", "2.2250738585072011e-308",
    "1.7976931348623157e308", ".5", "5.", "+.5e+3", "-1.5E-3", "+2",
    "nan", "-nan", "NAN", "+nan", "NaN",
    "1" * 400 + "e-390",
    "9007199254740993" + "0" * 384 + "e-384",
    "9007199254740993" + "0" * 383 + "1e-384",
    "0." + "0" * 320 + "7" * 79,
]


@pytest.mark.parametrize("cell", FINITE_CELLS)
def test_a_plain_cell_reads_as_float_reads_it_bit_for_bit(tmp_path, fallbacks, cell):
    """The cell sits first in one row and last in another."""
    path = write(tmp_path, f"a,cls,b\n1,0,{cell}\n{cell},1,2\n")
    ds = load_csv(path, label_column="cls")
    assert not fallbacks
    want = np.float64(float(cell)).view(np.uint64)
    got = ds.variables.values.view(np.uint64)
    assert got[1, 0] == got[0, 1] == want
    assert ds.variables.missing[1, 0] == math.isnan(float(cell))


# Tokens first and last in a row, side by side, and the empty token; the
# label column holds a token too, and -9990 is not -999.
TOKEN_TEXT = "a,b,cls,c\nNA,1,NA,-999\n?,,ok,2\n3,-999,NA,\n,?,ok,-9990\n"


@pytest.mark.parametrize("chunk_cells", [dataset.CHUNK_CELLS, 4, 8])
@pytest.mark.parametrize("tokens", [("NA", "", "?"), ("-999", "NA", "", "?")])
def test_missing_tokens_anywhere_in_a_row_are_missing_cells(
    tmp_path, monkeypatch, fallbacks, chunk_cells, tokens
):
    monkeypatch.setattr(dataset, "CHUNK_CELLS", chunk_cells)  # 1 or 2 rows a chunk
    ds = load_csv(write(tmp_path, TOKEN_TEXT), label_column="cls", missing_tokens=tokens)
    assert not fallbacks
    nan = float("nan")
    m999 = nan if "-999" in tokens else -999.0
    want = np.array([[nan, nan, 3.0, nan], [1.0, nan, m999, nan], [m999, 2.0, nan, -9990.0]])
    np.testing.assert_array_equal(ds.variables.values, want)
    np.testing.assert_array_equal(ds.variables.missing, np.isnan(want))
    assert (ds.positive_label, ds.labels.tolist()) == ("ok", [0, 1, 0, 1])


@pytest.mark.parametrize(
    "text, row, column, cell",
    [
        ("a,cls,b\n1,0,2#x\n3,1,4\n", 2, "b", "2#x"),
        ("a,cls,b\n1,0,2\n#3,1,4\n", 3, "a", "#3"),
        ("a,cls,b\n1,0,#\n3,1,4\n", 2, "b", "#"),
    ],
)
def test_a_hash_in_a_cell_starts_no_comment(tmp_path, text, row, column, cell):
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text), label_column="cls")
    assert str(err.value) == f"row {row}, column {column!r}: cannot parse {cell!r} as a number"


def test_a_label_column_alone_takes_the_plain_path(tmp_path, fallbacks):
    ds = load_csv(write(tmp_path, "cls\n#\nNA\n#\n"), label_column="cls")
    assert not fallbacks
    assert (ds.n, ds.p, ds.names) == (3, 0, [])
    assert ds.variables.values.shape == (0, 3)
    assert (ds.positive_label, ds.labels.tolist()) == ("NA", [0, 1, 0])


@pytest.mark.parametrize("where", ["header", "cell", "label"])
def test_field_over_the_csv_limit_is_a_located_parse_error(tmp_path, where):
    big = "1" * (csv.field_size_limit() + 1)
    lines = ["a,b,cls", "1,2,0", "3,4,1"]
    if where == "header":
        lines[0] = f"a,{big},cls"
    elif where == "cell":
        lines[2] = f"3,{big},1"
    else:
        lines[1] = f"1,2,{big}"
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, "\n".join(lines) + "\n"), label_column="cls")
    assert err.value.row == {"header": 1, "cell": 3, "label": 2}[where]
    assert "field larger than field limit" in str(err.value)


@pytest.mark.parametrize(
    "header, row2, row4, message",
    [
        ("a,a,cls", "1,2,0", "big", "row 1, column 'a': duplicate column name 'a'"),
        ("a,b,cls", "1,2", "big", "row 2: row has 2 fields, expected 3"),
        ("a,b,cls", "1,x,0", "big", "row 2, column 'b': cannot parse 'x' as a number"),
        ("a,b,cls", "1,x,0", "latin-1", "row 2, column 'b': cannot parse 'x' as a number"),
    ],
    ids=["duplicate-name", "ragged-row", "non-numeric-cell", "non-numeric-before-non-utf8"],
)
def test_an_earlier_fault_beats_a_record_csv_reader_cannot_read(
    tmp_path, header, row2, row4, message
):
    """A later field over ``csv.field_size_limit()``, or a later byte that
    is not UTF-8, loses to a fault in the header or an earlier row."""
    if row4 == "big":
        row4 = ("1" * (csv.field_size_limit() + 1) + ",2,1").encode()
    else:
        row4 = "caf\xe9,2,1".encode("latin-1")
    path = tmp_path / "data.csv"
    path.write_bytes(f"{header}\n{row2}\n3,4,1\n".encode() + row4 + b"\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, label_column="cls")
    assert str(err.value) == message


@pytest.fixture
def field_limit_50():
    old = csv.field_size_limit(50)
    yield 50
    csv.field_size_limit(old)


def test_a_line_over_the_csv_limit_with_short_fields_takes_the_plain_path(
    tmp_path, fallbacks, field_limit_50
):
    names = [f"g{j}" for j in range(30)]
    rows = [[f"{i}.{j}" for j in range(30)] + [str(i % 2)] for i in range(4)]
    text = "\n".join(",".join(r) for r in [names + ["cls"], *rows]) + "\n"
    assert min(map(len, text.splitlines())) > field_limit_50
    ds = load_csv(write(tmp_path, text), label_column="cls")
    assert not fallbacks
    assert ds.names == names
    assert ds.variables.values.T.tolist() == [[float(c) for c in r[:-1]] for r in rows]

    big = "1" * (field_limit_50 + 1)
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text.replace("2.7,", big + ",")), label_column="cls")
    assert (err.value.row, str(err.value)) == (4, "row 4: field larger than field limit (50)")
    assert len(fallbacks) == 1


def test_a_list_of_columns_and_the_matrix_give_the_same_dataset_api(tmp_path):
    path = write(tmp_path, "a,cls,b\n1,0,NA\n2,1,3\n4,0,5\n")
    ds = load_csv(path, label_column="cls")
    listed = Dataset(variables=list(ds.variables), labels=ds.labels,
                     positive_label=ds.positive_label, n=ds.n, p=ds.p)
    assert ds.names == listed.names == ["a", "b"]
    assert listed.names is listed.variables.names
    assert [c.name for c in ds.variables[1:]] == ["b"]
    assert isinstance(listed.variables, ColumnMatrix)
    np.testing.assert_array_equal(listed.variables.values, ds.variables.values)
    np.testing.assert_array_equal(listed.variables.missing, ds.variables.missing)
    empty = Dataset(variables=[], labels=ds.labels, positive_label="1", n=ds.n, p=0)
    assert empty.variables.values.shape == empty.variables.missing.shape == (0, ds.n)


def gaussian_columns(n, p):
    rng = np.random.default_rng(3)
    return [VariableColumn.from_values(rng.normal(size=n), name=f"v{j}") for j in range(p)]


@pytest.mark.parametrize("variables", [list, lambda cols: ColumnMatrix.stack(cols, 40)])
@pytest.mark.parametrize(
    "n, p, k",
    [(999, 3, 999), (999, 25, 999), (40, 3, 40), (39, 25, 39), (40, 25, 39), (40, 25, 41)],
)
def test_sizes_or_labels_that_disagree_with_the_columns_are_rejected(variables, n, p, k):
    """The columns are 40 long and there are 25 of them; k is the label count."""
    cols = variables(gaussian_columns(40, 25))
    message = rf"^n = {n}, p = {p} and {k} labels, but the matrix is p x n = 25 x 40$"
    with pytest.raises(ValueError, match=message):
        Dataset(variables=cols, labels=np.arange(k) % 2, positive_label="1", n=n, p=p)


@pytest.mark.parametrize("n, name", [(5, "b"), (4, "a")])
def test_columns_of_unequal_length_are_rejected_by_name(n, name):
    cols = [VariableColumn.from_values(np.arange(5.0), name="a"),
            VariableColumn.from_values(np.arange(4.0), name="b")]
    length = {"a": 5, "b": 4}[name]
    message = rf"^column '{name}' has {length} values, not n = {n}$"
    with pytest.raises(ValueError, match=message):
        Dataset(variables=cols, labels=np.arange(n) % 2, positive_label="1", n=n, p=2)
    with pytest.raises(ValueError, match=message):
        ColumnMatrix.stack(cols, n)


def test_load_peak_memory_stays_near_the_value_matrix(tmp_path):
    rng = np.random.default_rng(0)
    n, p = 100, 5000
    X = rng.normal(size=(n, p))
    header = ",".join(f"g{j}" for j in range(p)) + ",cls\n"
    body = "".join(",".join(map("{:.5f}".format, row)) + f",{i % 2}\n" for i, row in enumerate(X))
    path = write(tmp_path, header + body)
    tracemalloc.start()
    try:
        ds = load_csv(path, label_column="cls")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ds.variables.values.nbytes


def test_a_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    text = "a,cls,b\n1,0,NA\n2,1,3\n4,0,5\n5,1,6\n"
    plain = load_csv(write(tmp_path, text, "plain.csv"), "cls")
    marked = load_csv(write(tmp_path, "\ufeff" + text, "marked.csv"), "cls")
    assert marked.names == plain.names == ["a", "b"]
    np.testing.assert_array_equal(marked.variables.values, plain.variables.values)
    np.testing.assert_array_equal(marked.labels, plain.labels)


def test_csv_rows_drops_a_byte_order_mark_when_it_reads_line_by_line(tmp_path):
    # The bad byte fails the text read at once, so every record comes from
    # the line-by-line read.
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\ncaf\xe9,4\n")
    rows = dataset.csv_rows(path)
    assert [next(rows), next(rows)] == [["a", "b"], ["1", "2"]]
    with pytest.raises(ParseError, match=r"^row 3: byte 0xe9 is not valid UTF-8$"):
        next(rows)
