import numpy as np
import pytest

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
