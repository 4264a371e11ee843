import contextlib
import csv
import io
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine import cdfdr, cli
from cdmine.cdfdr import FdrConfig
from cdmine.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, main
from cdmine.comp_density import TwoSampleData, pp_plot_points
from cdmine.midrank import mid_rank_transform
from cdmine.pipeline import DEFAULT_TOP_K
from cdmine.score_basis import DEFAULT_M
from cdmine.simulate import SimConfig


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(7)
    n, p = 120, 25
    labels = rng.integers(0, 2, n)
    path = tmp_path / "toy.csv"
    with open(path, "w") as fh:
        fh.write(",".join([f"v{j}" for j in range(p)] + ["cls"]) + "\n")
        for i in range(n):
            vals = rng.normal(size=p)
            vals[0] += 2.0 * labels[i]
            cells = [f"{v:.6f}" for v in vals]
            if i == 5:
                cells[3] = "NA"
            fh.write(",".join(cells + [str(labels[i])]) + "\n")
    return path


def test_rank_end_to_end(toy_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["rank", str(toy_csv), "--label", "cls", "--out", str(out), "--svg"]
    )
    assert code == EXIT_OK
    assert (out / "ranked.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "sorted_cr.csv").exists()
    assert (out / "sorted_cr.svg").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "v0" in summary["selected"]
    first = (out / "ranked.csv").read_text().splitlines()[1]
    assert first.startswith("v0,")


def test_cd_subcommand(toy_csv, tmp_path):
    out = tmp_path / "cd"
    code = main(
        ["cd", str(toy_csv), "--label", "cls", "--vars", "v0", "v1", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert sorted(os.listdir(out)) == ["cd_v0.csv", "cd_v1.csv", "pp_v0.csv", "pp_v1.csv"]


@pytest.mark.parametrize("command", [["rank"], ["cd", "--vars", "v0"]])
def test_m_below_one_exit_code(toy_csv, tmp_path, capsys, command):
    code = main([command[0], str(toy_csv), "--label", "cls", *command[1:], "--M", "0",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "m must be >= 1" in capsys.readouterr().err


def test_cd_unknown_variable(toy_csv, tmp_path):
    code = main(
        ["cd", str(toy_csv), "--label", "cls", "--vars", "nope", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG


def test_fdr_subcommand(tmp_path):
    rng = np.random.default_rng(8)
    z = np.concatenate([rng.normal(4.5, 1.0, 20), rng.standard_normal(980)])
    path = tmp_path / "z.csv"
    with open(path, "w") as fh:
        fh.write("id,z\n")
        for i, v in enumerate(z):
            fh.write(f"g{i},{v:.6f}\n")
    out = tmp_path / "fdr.csv"
    code = main(["fdr", str(path), "--col", "z", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "item_id,z,u_flat,inverse_fdr,selected"
    selected = sum(line.endswith(",1") for line in lines[1:])
    assert 10 <= selected <= 40


def test_fdr_missing_column(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("id,z\ng0,1.0\n")
    assert main(["fdr", str(path), "--col", "w"]) == EXIT_CONFIG


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,cls\n1,0\nbroken,1\n")
    assert main(["rank", str(path), "--label", "cls", "--out", str(tmp_path / "o")]) == EXIT_PARSE


def test_parse_error_quotes_the_cell_as_written(tmp_path, capsys):
    path = tmp_path / "ctl.csv"
    path.write_text("a,cls\n1,0\n\x1c1,1\n2,0\n3,1\n")
    out = tmp_path / "o"
    assert main(["rank", str(path), "--label", "cls", "--out", str(out)]) == EXIT_PARSE
    assert "row 3, column 'a': cannot parse '\\x1c1' as a number" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_header_exit_code(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("g1,g1,cls\n1,2,0\n3,4,1\n")
    assert main(["rank", str(path), "--label", "cls", "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert "'g1'" in capsys.readouterr().err


def test_cd_sanitises_variable_names(tmp_path):
    rng = np.random.default_rng(8)
    n = 40
    labels = np.arange(n) % 2
    path = tmp_path / "in.csv"
    rows = [f"{v:.6f},{c}" for v, c in zip(rng.normal(size=n) + labels, labels)]
    path.write_text("../x,cls\n" + "\n".join(rows) + "\n")
    out = tmp_path / "deep" / "D"
    code = main(["cd", str(path), "--label", "cls", "--vars", "../x", "--out", str(out)])
    assert code == EXIT_OK
    assert sorted(os.listdir(out)) == ["cd_.._x.csv", "pp_.._x.csv"]
    assert sorted(os.listdir(out.parent)) == ["D"]


def test_label_error_exit_code(toy_csv, tmp_path):
    code = main(["rank", str(toy_csv), "--label", "missing", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_missing_file_exit_code(tmp_path):
    assert main(["rank", str(tmp_path / "no.csv"), "--label", "cls"]) == EXIT_CONFIG


def test_out_under_a_file_exit_code(toy_csv, tmp_path, capsys):
    out = str(toy_csv / "cd")
    code = main(["cd", str(toy_csv), "--label", "cls", "--vars", "v0", "--out", out])
    assert code == EXIT_CONFIG
    assert "Not a directory" in capsys.readouterr().err


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate", "--p", "200", "--signals", "10", "--runs", "3",
            "--seed", "4", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "runs.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["runs"] == 3
    assert set(payload["summary"]) == {"cdfdr", "bh", "naive-two-step"}


def test_simulate_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("p=150\nsignals=5\nruns=2\nseed=9\nmethods=bh\n")
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "summary.json").read_text())
    assert payload["p"] == 150
    assert list(payload["summary"]) == ["bh"]


def test_simulate_bad_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("this is not key value\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG


def test_rank_has_no_seed_flag(toy_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rank", str(toy_csv), "--label", "cls", "--seed", "1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["rank", "--label", "cls", "--null-method", "robust-median-mad"],
    ["fdr", "--col", "z", "--null-method", "pooled-moments"],
    ["fdr", "--col", "z", "--weight-mode", "theoretical"],
])
def test_removed_selection_options_are_usage_errors(toy_csv, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(toy_csv), *argv[1:], "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def write_scores(path, values, col="z"):
    lines = [f"id,{col}"] + [f"g{i},{v}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fdr_cr_input_needs_n(tmp_path, capsys):
    path = write_scores(tmp_path / "cr.csv", np.linspace(0, 1, 30), col="cr")
    code = main(["fdr", str(path), "--col", "cr", "--input-kind", "cr",
                 "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["--n", "0"], ["--n", "50", "--M", "0"]])
def test_fdr_cr_input_rejects_bad_n_or_m(tmp_path, bad):
    path = write_scores(tmp_path / "cr.csv", np.linspace(0, 1, 30), col="cr")
    code = main(["fdr", str(path), "--col", "cr", "--input-kind", "cr", *bad,
                 "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("m", ["4", "1000000000000"])
def test_fdr_cr_m_above_n_minus_2_is_rejected_before_reading(tmp_path, capsys, m):
    """No variable of n rows has more than n - 2 scores.  The input does not
    exist, so the rule must run before the file is opened; a huge M must
    not reach the chi-square tail, whose cost grows with M."""
    out = tmp_path / "o.csv"
    code = main(["fdr", str(tmp_path / "absent.csv"), "--col", "cr", "--input-kind", "cr",
                 "--n", "5", "--M", m, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("configuration error: m must be <= n - 2 = 3, the most scores a variable "
                   "of n = 5 rows has\n")
    assert not out.exists()


def test_fdr_cr_m_of_n_minus_2_is_accepted(tmp_path):
    path = write_scores(tmp_path / "cr.csv", np.linspace(0, 1, 30), col="cr")
    code = main(["fdr", str(path), "--col", "cr", "--input-kind", "cr", "--n", "5",
                 "--M", "3", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK


@pytest.mark.parametrize("cell", ["nan", "inf", ""])
def test_fdr_non_finite_score_is_located(tmp_path, capsys, cell):
    values = [f"{v:.3f}" for v in np.linspace(-2, 2, 30)]
    values[2] = cell
    path = write_scores(tmp_path / "z.csv", values)
    out = tmp_path / "o.csv"
    assert main(["fdr", str(path), "--col", "z", "--out", str(out)]) == EXIT_PARSE
    assert "row 4, column 'z'" in capsys.readouterr().err
    assert not out.exists()


def test_fdr_negative_cr_is_located_and_silent(tmp_path, capsys):
    values = [f"{v:.3f}" for v in np.linspace(0, 0.5, 30)]
    values[2] = "-0.1"
    path = write_scores(tmp_path / "cr.csv", values, col="cr")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fdr", str(path), "--col", "cr", "--input-kind", "cr", "--n", "50",
                     "--out", str(out)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "parse error: row 4, column 'cr': CR '-0.1' is negative\n"
    assert not out.exists()


def extreme_scores(extremes):
    """0, 0.1, ..., 2.8, then the given cells: the first extreme one is on
    row 31."""
    return [f"{v:.1f}" for v in np.arange(29) * 0.1] + list(extremes)


def run_silently(argv):
    """``main(argv)``, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.mark.parametrize("extremes", [["1e160"], ["1e200", "-1e200"]])
def test_fdr_z_past_the_bound_is_located_and_silent(tmp_path, capsys, extremes):
    """Past Z_MAX, z**2 overflows: the pooled spread would be inf, and the
    weights inf - inf = nan."""
    path = write_scores(tmp_path / "z.csv", extreme_scores(extremes))
    out = tmp_path / "o.csv"
    code = run_silently(["fdr", str(path), "--col", "z", "--out", str(out)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == (f"parse error: row 31, column 'z': score {extremes[0]!r} is beyond "
                   f"{cdfdr.Z_MAX:g} in absolute value\n")
    assert "Warning" not in err
    assert not out.exists()


def test_fdr_cr_whose_z_would_pass_the_bound_is_located_and_silent(tmp_path, capsys):
    path = write_scores(tmp_path / "cr.csv", extreme_scores(["1e308"]), col="cr")
    out = tmp_path / "o.csv"
    code = run_silently(["fdr", str(path), "--col", "cr", "--input-kind", "cr", "--n", "100",
                         "--out", str(out)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == (f"parse error: row 31, column 'cr': score '1e308' is beyond "
                   f"{cdfdr.Z_MAX**2 / 100:g} in absolute value\n")
    assert not out.exists()


def test_fdr_scores_at_the_bound_give_finite_output(tmp_path):
    path = write_scores(tmp_path / "z.csv",
                        extreme_scores([repr(cdfdr.Z_MAX), repr(-cdfdr.Z_MAX)]))
    out = tmp_path / "o.csv"
    assert run_silently(["fdr", str(path), "--col", "z", "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 31
    for field in ("z", "u_flat", "inverse_fdr"):
        assert np.isfinite([float(r[field]) for r in rows]).all(), field


def test_fdr_cr_at_the_bound_gives_finite_output(tmp_path):
    n = 100
    path = write_scores(tmp_path / "cr.csv", extreme_scores([repr(cdfdr.Z_MAX**2 / n)]),
                        col="cr")
    out = tmp_path / "o.csv"
    assert run_silently(["fdr", str(path), "--col", "cr", "--input-kind", "cr", "--n", str(n),
                         "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["z"]) == pytest.approx(cdfdr.Z_MAX, rel=1e-3)
    for field in ("z", "u_flat", "inverse_fdr"):
        assert np.isfinite([float(r[field]) for r in rows]).all(), field


# Finite doubles of every magnitude, with small ones common enough that a
# null can be fit.
any_double = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def finite_cells(path, fields):
    """Whether every cell of the named CSV columns is a finite number or empty."""
    with open(path) as fh:
        cells = [row[f] for row in csv.DictReader(fh) for f in fields]
    return all(c == "" or np.isfinite(float(c)) for c in cells)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(any_double, min_size=20, max_size=40),
    st.sampled_from(["z", "cr"]),
)
def test_fdr_on_any_finite_scores_ends_in_output_or_a_located_error(
    tmp_path_factory, scores, kind
):
    """Every finite input gives finite output or a documented exit code,
    and no warning."""
    tmp = tmp_path_factory.mktemp("fdr")
    path = write_scores(tmp / "s.csv", [repr(v) for v in scores])
    out = tmp / "o.csv"
    code = run_silently(["fdr", str(path), "--col", "z", "--input-kind", kind, "--n", "50",
                         "--out", str(out)])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_CONFIG)
    if code == EXIT_OK:
        assert finite_cells(out, ["z", "u_flat", "inverse_fdr"])


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 12).flatmap(lambda n: st.lists(
    st.lists(any_double, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_rank_on_any_finite_cells_ends_in_output_or_a_located_error(tmp_path_factory, columns):
    tmp = tmp_path_factory.mktemp("rank")
    n = len(columns[0])
    cells = np.array([[repr(v) for v in col] for col in columns]).T
    path = tmp / "panel.csv"
    write_cells(path, [f"v{j}" for j in range(len(columns))], cells, np.arange(n) % 2)
    out = tmp / "o"
    code = run_silently(["rank", str(path), "--label", "cls", "--M", "2", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        with open(out / "ranked.csv") as fh:
            fields = next(csv.reader(fh))[2:]
        assert finite_cells(out / "ranked.csv", [f for f in fields if f not in
                                                 ("category", "flag")])


# The first words of stderr for each documented non-zero exit code.
LOCATED_ERRORS = {
    EXIT_PARSE: ("parse error: row ",),
    EXIT_CONFIG: ("configuration error: ", "cannot analyze input: "),
}


def run_to_an_end(argv):
    """``main(argv)`` with any warning raised as an error: its exit code must
    be documented, and its stderr empty or one located error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_silently(argv)
    err = err.getvalue()
    assert "Warning" not in err and "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith(LOCATED_ERRORS[code]) and err.count("\n") == 1, err
    return code


def reject_constant(name):
    raise AssertionError(f"non-finite number {name} in summary.json")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(any_double, min_size=20, max_size=40),
    st.sampled_from(["z", "cr"]),
    st.integers(1, 500),
    st.integers(1, 4),
    st.integers(1, 9),
    st.sampled_from(["two", "left", "right"]),
)
def test_fdr_property_any_finite_magnitude(
    tmp_path_factory, scores, kind, n, m, series, sides
):
    """fdr on finite scores up to the largest double, under every setting,
    ends in a full table of finite numbers or a located error."""
    tmp = tmp_path_factory.mktemp("fdr")
    if kind == "cr":
        scores = [abs(v) for v in scores]
    path = write_scores(tmp / "s.csv", [repr(v) for v in scores])
    out = tmp / "o.csv"
    code = run_to_an_end(["fdr", str(path), "--col", "z", "--input-kind", kind, "--n", str(n),
                          "--M", str(m), "--L", str(series), "--sides", sides,
                          "--out", str(out)])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_CONFIG)
    if code != EXIT_OK:
        assert not out.exists()
        return
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(scores)
    for field in ("z", "u_flat", "inverse_fdr"):
        assert np.isfinite([float(r[field]) for r in rows]).all(), field
    assert {r["selected"] for r in rows} <= {"0", "1"}


@st.composite
def extreme_panels(draw):
    """(cells, labels) of a small panel: normal columns, some rounded to
    ties, some scaled to any magnitude up to the largest double, and single
    cells set to any finite double."""
    n = draw(st.integers(6, 14))
    p = draw(st.sampled_from([1, 3, cdfdr.MIN_FDR_ITEMS - 1, cdfdr.MIN_FDR_ITEMS, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p))
    top = np.finfo(float).max
    for j, scale in draw(st.lists(st.tuples(st.integers(0, p - 1), st.sampled_from(
            [0.0, 1e-300, 1e150, 1e300, top])), max_size=4)):
        with np.errstate(over="ignore"):
            X[:, j] = np.clip(X[:, j] * scale, -top, top)
    for j in draw(st.lists(st.integers(0, p - 1), max_size=3)):
        X[:, j] = np.round(X[:, j])
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, p - 1),
                                           any_double), max_size=6)):
        X[i, j] = v
    labels = draw(st.sampled_from([np.arange(n) % 2, (np.arange(n) < 3).astype(int)]))
    return np.vectorize(repr, otypes=[object])(X).astype(str), labels


@settings(max_examples=40, deadline=None)
@given(extreme_panels(), st.integers(1, 4))
def test_rank_property_any_finite_magnitude(tmp_path_factory, panel, m):
    """rank on finite cells up to the largest double ends in finite outputs,
    with z and inverse_fdr empty only below the CDfdr minimum of variables,
    or in a located error."""
    tmp = tmp_path_factory.mktemp("rank")
    cells, labels = panel
    p = cells.shape[1]
    path = tmp / "panel.csv"
    write_cells(path, [f"v{j}" for j in range(p)], cells, labels)
    out = tmp / "o"
    code = run_to_an_end(["rank", str(path), "--label", "cls", "--M", str(m),
                          "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code != EXIT_OK:
        return
    with open(out / "ranked.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == p
    skipped = p < cdfdr.MIN_FDR_ITEMS
    for field in rows[0]:
        if field in ("variable_id", "category", "flag"):
            continue
        cells = [r[field] for r in rows]
        if skipped and field in ("z", "inverse_fdr"):
            assert set(cells) == {""}, field
        else:
            assert np.isfinite([float(c) for c in cells]).all(), field
    json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize("command", [["rank"], ["cd", "--vars", "v0"]])
@pytest.mark.parametrize("m", ["119", "1000000000000"])
def test_m_above_n_minus_2_is_rejected_before_the_engine(toy_csv, tmp_path, capsys,
                                                          command, m):
    """No variable of the toy panel's 120 rows has more than 118 scores; a
    huge M must not reach the engine's (p, M) allocation."""
    out = tmp_path / "o"
    with mock.patch.object(cli, "panel_cr") as engine, mock.patch.object(cli, "analyze") as run:
        code = main([command[0], str(toy_csv), "--label", "cls", *command[1:], "--M", m,
                     "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not engine.called and not run.called
    assert capsys.readouterr().err == (
        "configuration error: m must be <= n - 2 = 118, the most scores a variable "
        "of n = 120 rows has\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", [["rank"], ["cd", "--vars", "v0"]])
def test_m_of_n_minus_2_is_accepted(toy_csv, tmp_path, command):
    assert main([command[0], str(toy_csv), "--label", "cls", *command[1:], "--M", "118",
                 "--out", str(tmp_path / "o")]) == EXIT_OK


def test_rank_inf_cell_is_a_located_parse_error(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("a,b,cls\n1,2,0\n3,inf,1\n5,6,0\n7,8,1\n")
    code = main(["rank", str(path), "--label", "cls", "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    assert "row 3, column 'b'" in capsys.readouterr().err


def assert_data_error(capsys, text):
    err = capsys.readouterr().err
    assert text in err
    assert "configuration error" not in err
    assert "Traceback" not in err


def test_fdr_too_few_items_exit_code(tmp_path, capsys):
    path = write_scores(tmp_path / "z.csv", np.linspace(-1, 1, 19))
    code = main(["fdr", str(path), "--col", "z", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert_data_error(capsys, "need at least 20 scores")


def test_fdr_constant_scores_exit_code(tmp_path, capsys):
    path = write_scores(tmp_path / "z.csv", [1.5] * 30)
    code = main(["fdr", str(path), "--col", "z", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert_data_error(capsys, "null scale estimate is zero")


def test_fdr_null_scale_at_the_scores_resolution_exit_code(tmp_path, capsys):
    # Deviations of 1.6e-265 square to 0: a pooled scale of 0 against an
    # interquartile range of 3.29e-265.
    path = write_scores(tmp_path / "z.csv", [0.0] * 10 + [3.29e-265] * 10)
    out = tmp_path / "o.csv"
    code = main(["fdr", str(path), "--col", "z", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert_data_error(capsys, "null scale estimate is zero")
    assert not out.exists()


def test_rank_all_constant_columns_exit_code(tmp_path, capsys):
    p = 25
    rows = [",".join([f"c{j}" for j in range(p)] + ["cls"])]
    rows += [",".join(["7"] * p + [str(i % 2)]) for i in range(10)]
    path = tmp_path / "const.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["rank", str(path), "--label", "cls", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert_data_error(capsys, "null scale estimate is zero")


def test_simulate_config_keys_reach_their_settings(tmp_path, monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return real(cfg)

    real = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", capture)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "p=80\nsignals=5\nmodel=uniform-band\nmu=3.5\nlo=1.5\nhi=2.5\n"
        "runs=2\nseed=9\nmethods=bh,cdfdr\nfdr_level=0.05\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_OK
    assert seen == [
        SimConfig(m_signals=5, p=80, signal_model="uniform-band", mu=3.5, lo=1.5,
                  hi=2.5, runs=2, seed=9, methods=("bh", "cdfdr"), fdr_level=0.05)
    ]


# A value other than the default for each simulate setting, as flag words.
SIM_VALUES = {
    "p": ["80"], "signals": ["5"], "model": ["uniform-band"], "mu": ["3.5"], "lo": ["1.5"],
    "hi": ["2.5"], "runs": ["2"], "seed": ["9"], "methods": ["bh", "cdfdr"],
    "fdr_level": ["0.05"],
}


@pytest.mark.parametrize("key", list(cli.CONFIG_KEYS))
def test_simulate_flag_and_config_line_set_the_same_field(tmp_path, monkeypatch, key):
    class Stop(Exception):
        pass

    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise Stop

    monkeypatch.setattr(cli, "run_experiment", capture)
    values = SIM_VALUES[key]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{key}={','.join(values)}\n")
    for argv in (["--" + key.replace("_", "-"), *values], ["--config", str(cfg)]):
        with pytest.raises(Stop):
            main(["simulate", *argv, "--out", str(tmp_path / "s")])
    by_flag, by_line = seen
    assert by_flag == by_line
    # The value reached its field: it is not the field's default.
    field = cli.CONFIG_KEYS[key][0]
    default = SimConfig(m_signals=cli.build_parser().parse_args(["simulate"]).signals)
    assert getattr(by_flag, field) != getattr(default, field)
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("p=80\nm_signals=5\n", "sim.cfg:2: unknown key 'm_signals'"),
        ("fdr-level=0.05\n", "sim.cfg:1: unknown key 'fdr-level'"),
        ("# runs\n\nruns=abc\n", "sim.cfg:3: runs: cannot read 'abc'"),
        ("model=foo\n", "sim.cfg:1: model: 'foo' is not one of gaussian-shift, uniform-band"),
        ("p=80\nmethods=bh,xyz\n", "sim.cfg:2: methods: 'xyz' is not one of cdfdr, bh,"),
        ("fdr_level=1.5\n", "sim.cfg:1: fdr_level must be in (0, 1)"),
        ("p=80\n\nruns=0\n", "sim.cfg:3: runs must be >= 1"),
        ("signals=5\np=3\n", "sim.cfg:2: m_signals must lie in [0, p]"),
        ("p=10\nsignals=2\n", "sim.cfg:1: p must be >= 20 for the cdfdr method"),
        ("methods=bh,cdfdr\np=19\nsignals=0\n",
         "sim.cfg:2: p must be >= 20 for the cdfdr method"),
        ("methods=bh\nsignals=0\np=0\n", "sim.cfg:3: p must be >= 1"),
        ("runs=2\nseed=-3\n", "sim.cfg:2: seed must be >= 0"),
    ],
)
def test_simulate_config_rejects_what_it_cannot_apply(tmp_path, capsys, text, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("model=foo\nruns=abc\n", "sim.cfg:2: runs: cannot read 'abc'"),
        ("methods=xyz\nruns=0\n", "sim.cfg:2: runs must be >= 1"),
        ("runs=0\nmodel=foo\n", "sim.cfg:1: runs must be >= 1"),
    ],
)
def test_simulate_config_bad_name_is_checked_after_every_line(tmp_path, capsys, text, message):
    """SimConfig checks a model or method name with its other value rules,
    after every line is read and cast."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {cfg.parent / message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mu", "nan"], "mu must be finite, got nan"),
        (["--mu", "inf"], "mu must be finite, got inf"),
        (["--model", "uniform-band", "--lo", "4", "--hi", "2"],
         "lo = 4.0 and hi = 2.0 must be finite, with lo <= hi"),
        (["--model", "uniform-band", "--lo", "nan"],
         "lo = nan and hi = 4.0 must be finite, with lo <= hi"),
        (["--model", "uniform-band", "--hi", "inf"],
         "lo = 2.0 and hi = inf must be finite, with lo <= hi"),
        (["--seed", "-1"], "seed must be >= 0"),
    ],
)
def test_simulate_signal_settings_out_of_range(tmp_path, capsys, flags, message):
    out = tmp_path / "s"
    code = main(["simulate", *flags, "--runs", "2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("runs=2\nmu=nan\n", "sim.cfg:2: mu must be finite"),
        ("model=uniform-band\nlo=4\nhi=2\nruns=2\n", "sim.cfg:3: lo = 4.0 and hi = 2.0"),
        ("hi=inf\nmodel=uniform-band\n", "sim.cfg:1: lo = 2.0 and hi = inf"),
    ],
)
def test_simulate_config_signal_settings_name_their_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_rank_at_extreme_signal_is_finite_and_silent(tmp_path):
    # n * CR of the shifted column is about 2000; its z is about 41, where
    # the theoretical weight exp(z^2/2 - zs^2/2) overflows a double.
    rng = np.random.default_rng(8)
    n, p = 2000, 40
    y = np.arange(n) % 2
    X = rng.normal(size=(n, p))
    X[:, 0] += 8.0 * y
    path = tmp_path / "strong.csv"
    rows = [",".join([f"g{j}" for j in range(p)] + ["cls"])]
    rows += [",".join([f"{v:.6f}" for v in X[i]] + [str(y[i])]) for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rank", str(path), "--label", "cls", "--out", str(out)])
    assert code == EXIT_OK
    with open(out / "ranked.csv") as fh:
        top = next(csv.DictReader(fh))
    assert top["variable_id"] == "g0"
    assert top["inverse_fdr"] == "1.7976931348623157e+308"
    assert top["selected"] == "1"
    # pvalue underflows, and log10_pvalue does not: at 4 df the tail is
    # exp(-x/2) (1 + x/2).
    assert top["pvalue"] == "0" and top["flag"] == ""
    half = n * float(top["CR"]) / 2.0
    log10_p = float(top["log10_pvalue"])
    assert np.isfinite(log10_p) and log10_p < -320
    assert log10_p == pytest.approx((np.log1p(half) - half) / np.log(10.0), rel=1e-12)


def test_rank_selects_a_column_shifted_by_five_sigma(tmp_path, capsys):
    # 400 rows, 25 columns: g0's class-1 half is shifted by 5 sd; the other
    # 24 are noise.
    rng = np.random.default_rng(0)
    n, p = 400, 25
    y = np.arange(n) % 2
    X = rng.normal(size=(n, p))
    X[:, 0] += 5.0 * y
    path = tmp_path / "shifted.csv"
    write_cells(path, [f"g{j}" for j in range(p)], np.char.mod("%.6f", X), y)
    out = tmp_path / "o"
    assert main(["rank", str(path), "--label", "cls", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"ranked {p} variables; selected 1\n"
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["selected"] == ["g0"]
    assert summary["null"]["method"] == "pooled-moments"


def write_named_panel(path, names, shifted, n=80, seed=9):
    """A CSV panel with the given column names (written with csv quoting) and
    a class shift on the columns at the positions in ``shifted``."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, len(names)))
    X[:, shifted] += 2.5 * y[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["cls"])
        writer.writerows([f"{v:.6f}" for v in X[i]] + [str(y[i])] for i in range(n))


def test_names_needing_quotes_round_trip_through_rank_and_fdr(tmp_path):
    odd = ['gene "a,b"', "two\nlines"]
    names = odd + [f"g{j}" for j in range(22)]
    path = tmp_path / "odd.csv"
    write_named_panel(path, names, shifted=[0, 1])
    out = tmp_path / "o"
    assert main(["rank", str(path), "--label", "cls", "--out", str(out)]) == EXIT_OK
    for table, column in (("ranked.csv", 0), ("sorted_cr.csv", 1)):
        with open(out / table, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in rows)
        assert sorted(row[column] for row in rows) == sorted(names)
    assert main(["fdr", str(out / "ranked.csv"), "--col", "z",
                 "--out", str(tmp_path / "fdr.csv")]) == EXIT_OK
    with open(tmp_path / "fdr.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert all(len(row) == len(header) for row in rows)
    assert set(odd) <= {row[0] for row in rows}


def test_cd_names_that_sanitise_alike_keep_their_own_files(tmp_path, capsys):
    names = ["a b", "a_b"] + [f"g{j}" for j in range(3)]
    path = tmp_path / "alike.csv"
    write_named_panel(path, names, shifted=[0])
    out = tmp_path / "cd"
    code = main(["cd", str(path), "--label", "cls", "--vars", "a b", "a_b", "a b",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "a b: wrote cd_a_b.csv, pp_a_b.csv",
        "a_b: wrote cd_a_b_2.csv, pp_a_b_2.csv",
    ]
    assert sorted(os.listdir(out)) == ["cd_a_b.csv", "cd_a_b_2.csv", "pp_a_b.csv",
                                       "pp_a_b_2.csv"]
    dataset = cli.load_csv(str(path), label_column="cls")
    for col, stem in zip(dataset.variables, ["a_b", "a_b_2"]):
        mid = mid_rank_transform(col)
        data = TwoSampleData.from_arrays(mid.u, dataset.labels[~col.missing])
        got = np.loadtxt(out / f"pp_{stem}.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got, pp_plot_points(data))


def write_cells(path, names, cells, y):
    """A CSV of the given (n, p) string cells and the label column cls."""
    rows = [",".join(list(names) + ["cls"])]
    rows += [",".join(list(row) + [str(label)]) for row, label in zip(cells, y)]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("m", ["4", "8"])
def test_rank_and_cd_write_the_same_curves(tmp_path, m):
    """Both commands draw a variable from the engine's score count, so its
    curve files do not depend on which one wrote them: a tied column (reduced
    to fewer scores at M = 8) and a column with NA cells included."""
    rng = np.random.default_rng(12)
    n, p = 80, 25
    y = np.arange(n) % 2
    X = rng.normal(size=(n, p))
    X[:, :3] += 2.5 * y[:, None]
    X[:, 0] = np.round(X[:, 0])
    cells = np.char.mod("%.4f", X)
    cells[::6, 1] = "NA"
    names = [f"g{j}" for j in range(p)]
    path = tmp_path / "panel.csv"
    write_cells(path, names, cells, y)
    ranked, drawn = tmp_path / "rank", tmp_path / "cd"
    assert main(["rank", str(path), "--label", "cls", "--M", m, "--top-k", str(p),
                 "--out", str(ranked)]) == EXIT_OK
    selected = json.loads((ranked / "summary.json").read_text())["selected"]
    assert {"g0", "g1"} <= set(selected)
    with open(ranked / "ranked.csv") as fh:
        flags = {row["variable_id"]: row["flag"] for row in csv.DictReader(fh)}
    assert (flags["g0"] != "") == (m == "8")
    assert main(["cd", str(path), "--label", "cls", "--M", m, "--vars", *selected,
                 "--out", str(drawn)]) == EXIT_OK
    curves = sorted(f"{kind}_{name}.csv" for name in selected for kind in ("cd", "pp"))
    assert sorted(os.listdir(drawn)) == curves
    for name in curves:
        assert (drawn / name).read_bytes() == (ranked / name).read_bytes(), name


def test_cd_skips_a_flagged_variable_with_the_engine_s_flag(tmp_path, capsys):
    rng = np.random.default_rng(13)
    n = 40
    y = np.arange(n) % 2
    cells = np.char.mod("%.4f", rng.normal(size=(n, 5)))
    cells[:, 1] = "7.25"
    cells[:, 2] = "NA"
    cells[y == 1, 3] = "NA"
    cells[1, 3] = "1.5"
    names = ["fine", "flat", "empty", "lopsided", "other"]
    path = tmp_path / "panel.csv"
    write_cells(path, names, cells, y)
    assert main(["rank", str(path), "--label", "cls", "--out", str(tmp_path / "r")]) == EXIT_OK
    with open(tmp_path / "r" / "ranked.csv") as fh:
        flags = {row["variable_id"]: row["flag"] for row in csv.DictReader(fh)}
    assert [flags[name] for name in names[1:4]] == ["constant", "all-missing",
                                                     "class-too-small"]
    capsys.readouterr()
    code = main(["cd", str(path), "--label", "cls", "--vars", *names[:4],
                 "--out", str(tmp_path / "cd")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "fine: wrote cd_fine.csv, pp_fine.csv",
        *(f"{name}: skipped ({flags[name]})" for name in names[1:4]),
    ]
    assert sorted(os.listdir(tmp_path / "cd")) == ["cd_fine.csv", "pp_fine.csv"]


def test_every_flag_defaults_to_its_setting():
    parser = cli.build_parser()
    rank = parser.parse_args(["rank", "x.csv", "--label", "cls"])
    cd = parser.parse_args(["cd", "x.csv", "--label", "cls", "--vars", "a"])
    fdr = parser.parse_args(["fdr", "x.csv", "--col", "z"])
    sim = parser.parse_args(["simulate"])
    cfg = FdrConfig()
    assert rank.M == cd.M == fdr.M == DEFAULT_M
    assert rank.top_k == DEFAULT_TOP_K
    for args in (rank, fdr):
        assert args.fdr_level == cfg.fdr_level
    assert (fdr.L, fdr.sides) == (cfg.n_coeffs, cfg.sides)
    # Every simulate setting but the signal count, which SimConfig leaves
    # to its caller, is a config-file key as well.
    sim_cfg = SimConfig(m_signals=sim.signals)
    for key, (field, _) in cli.CONFIG_KEYS.items():
        if key == "signals":
            continue
        want = getattr(sim_cfg, field)
        got = getattr(sim, key)
        assert (tuple(got) if key == "methods" else got) == want, key


def write_panel(path, p, n=40):
    rng = np.random.default_rng(3)
    rows = [",".join([f"v{j}" for j in range(p)] + ["cls"])]
    rows += [",".join([f"{v:.4f}" for v in rng.normal(size=p)] + [str(i % 2)])
             for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank", "--fdr-level", "1.5"], "fdr_level must be in (0, 1)"),
        (["rank", "--top-k", "-1"], "top_k must be >= 0"),
        (["cd", "--vars", "v0", "--M", "0"], "m must be >= 1"),
    ],
    ids=["rank-fdr-level", "rank-top-k", "cd-M"],
)
def test_out_of_range_flag_fails_before_any_output(tmp_path, capsys, argv, message):
    path = write_panel(tmp_path / "ten.csv", p=10)
    out = tmp_path / "o"
    code = main([argv[0], str(path), "--label", "cls", *argv[1:], "--out", str(out)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rank_label_only_csv_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "labels.csv"
    path.write_text("cls\n0\n1\n0\n1\n")
    out = tmp_path / "o"
    assert main(["rank", str(path), "--label", "cls", "--out", str(out)]) == EXIT_CONFIG
    assert_data_error(capsys, "cannot analyze input: no variables to analyze")
    assert not out.exists()


@pytest.mark.parametrize("command", [["rank"], ["cd", "--vars", "v0"], ["fdr"]])
def test_non_utf8_csv_is_a_located_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.csv"
    if command[0] == "fdr":
        lines = ["id,z"] + [f"g{i},{v:.3f}" for i, v in enumerate(np.linspace(-2, 2, 30))]
        lines[3] = "caf\xe9,0.5"
        argv = ["fdr", str(path), "--col", "z"]
    else:
        write_panel(path, p=3)
        lines = path.read_text().splitlines()
        lines[3] = "caf\xe9," + lines[3].split(",", 1)[1]
        argv = [command[0], str(path), "--label", "cls", *command[1:]]
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error: row 4: byte 0xe9 is not valid UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_config_not_utf8_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes("p=80\r\n# caf\xe9\r\nruns=2\r\n".encode("latin-1"))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG
    assert f"{cfg}:2: byte 0xe9 is not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("row, fields", [("a1,0.1,extra", 3), ("a1", 1)])
def test_fdr_ragged_row_is_located(tmp_path, capsys, row, fields):
    values = [f"{v:.3f}" for v in np.linspace(-2, 2, 30)]
    path = write_scores(tmp_path / "z.csv", values)
    lines = path.read_text().splitlines()
    lines[5] = row
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o.csv"
    assert main(["fdr", str(path), "--col", "z", "--out", str(out)]) == EXIT_PARSE
    assert f"row 6: row has {fields} fields, expected 2" in capsys.readouterr().err
    assert not out.exists()


def test_fdr_ragged_row_beats_a_later_byte_that_is_not_utf8(tmp_path, capsys):
    values = [f"{v:.3f}" for v in np.linspace(-2, 2, 30)]
    lines = write_scores(tmp_path / "z.csv", values).read_text().splitlines()
    lines[5], lines[9] = "a1", "caf\xe9,0.5"
    path = tmp_path / "z.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    out = tmp_path / "o.csv"
    assert main(["fdr", str(path), "--col", "z", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == "parse error: row 6: row has 1 fields, expected 2\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "cd", "fdr"])
def test_field_over_the_csv_limit_is_a_located_parse_error(tmp_path, capsys, command):
    path = tmp_path / "big.csv"
    path.write_text("a,cls\n" + "1" * 200000 + ",0\n")
    argv = {
        "rank": ["rank", str(path), "--label", "cls"],
        "cd": ["cd", str(path), "--label", "cls", "--vars", "a"],
        "fdr": ["fdr", str(path), "--col", "a"],
    }[command]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error: row 2: field larger than field limit" in err
    assert not out.exists()


def test_fdr_series_length_is_checked_before_the_input_is_read(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    code = main(["fdr", str(missing), "--col", "z", "--L", "0", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_coeffs must be >= 1" in err and "absent.csv" not in err


def test_simulate_with_no_items_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "s"
    code = main(["simulate", "--p", "0", "--signals", "0", "--methods", "bh", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "p must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


# A UTF-8 byte order mark, as Excel's "CSV UTF-8" writes at the start of a file.
BOM = "\ufeff"


def same_tree(a, b):
    """Whether two output directories hold the same files, byte for byte."""
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in names
    )


@pytest.mark.parametrize("label_first", [True, False])
def test_rank_reads_a_file_with_a_byte_order_mark_as_the_file_without(
    tmp_path, toy_csv, label_first
):
    """The mark is not part of the first header name, whether that is the
    label column or the first variable."""
    lines = toy_csv.read_text().splitlines()
    if label_first:
        lines = [",".join(line.split(",")[-1:] + line.split(",")[:-1]) for line in lines]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("\n".join(lines) + "\n")
    marked.write_text(BOM + "\n".join(lines) + "\n")
    for path in (plain, marked):
        argv = ["rank", str(path), "--label", "cls", "--svg", "--out", str(tmp_path / path.stem)]
        assert main(argv) == EXIT_OK
    with open(tmp_path / "marked" / "ranked.csv", encoding="utf-8") as fh:
        names = [row["variable_id"] for row in csv.DictReader(fh)]
    assert sorted(names) == sorted(f"v{j}" for j in range(25))
    assert same_tree(tmp_path / "plain", tmp_path / "marked")


def test_fdr_finds_a_first_column_behind_a_byte_order_mark(tmp_path):
    values = [f"{v:.3f}" for v in np.linspace(-2, 3, 30)]
    text = "z,id\n" + "".join(f"{v},g{i}\n" for i, v in enumerate(values))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_text(BOM + text)
    for path in (plain, marked):
        argv = ["fdr", str(path), "--col", "z", "--out", str(tmp_path / f"{path.stem}-o.csv")]
        assert main(argv) == EXIT_OK
    assert (tmp_path / "plain-o.csv").read_bytes() == (tmp_path / "marked-o.csv").read_bytes()


def test_simulate_config_with_a_byte_order_mark_sets_its_first_key(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(BOM + "p=150\nsignals=5\nruns=2\nmethods=bh\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["p"] == 150
