"""Command line interface.

Subcommands:
  rank      full pipeline on a CSV: transform, CR ranking, CDfdr selection
  cd        comparison-density and PP curves for named variables
  fdr       threshold an externally supplied z or CR column
  simulate  contamination experiments against the baselines
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .cdfdr import Z_MAX, FdrConfig, cdfdr_pipeline, check_fdr_level, cr_to_z
from .dataset import DEFAULT_MISSING_TOKENS, csv_rows, load_csv, utf8_fault
from .errors import CdmineError, ConfigError, LabelError, ParseError
from .panel import panel_cr
from .pipeline import (
    DEFAULT_TOP_K,
    NUMBER_FORMAT,
    analyze,
    check_top_k,
    export_plots,
    write_curves,
    write_ranked_csv,
    write_summary_json,
    write_table,
)
from .score_basis import DEFAULT_M, check_m
from .simulate import (
    METHODS,
    SIGNAL_MODELS,
    SimConfig,
    run_experiment,
    write_report_csv,
    write_report_json,
)

EXIT_OK = 0
EXIT_PARSE = 2  # ParseError: an input cell or header, reported with its location
EXIT_CONFIG = 3  # any other CdmineError, and a file that cannot be read or written


# simulate --config keys, each the flag it overrides with "_" for "-": the
# SimConfig field it sets and the cast of its value.
CONFIG_KEYS = {
    "p": ("p", int), "signals": ("m_signals", int), "model": ("signal_model", str),
    "mu": ("mu", float), "lo": ("lo", float), "hi": ("hi", float), "runs": ("runs", int),
    "seed": ("seed", int), "methods": ("methods", lambda value: value.split(",")),
    "fdr_level": ("fdr_level", float),
}


def build_parser() -> argparse.ArgumentParser:
    """The four subcommands; each default comes from FdrConfig, SimConfig or a
    module constant."""
    parser = argparse.ArgumentParser(prog="cdmine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("csv", help="input CSV with a header row")
        p.add_argument("--label", required=True, help="name of the label column")
        p.add_argument("--positive", default=None, help="label value coded as class 1")
        p.add_argument(
            "--missing-token",
            action="append",
            default=None,
            help="cell value treated as missing (repeatable; default NA, empty, ?)",
        )
        p.add_argument("--M", type=int, default=DEFAULT_M, help="number of score functions")
        p.add_argument("--out", default="cdmine_out")

    p = sub.add_parser("rank", help="rank all variables and select by CDfdr")
    add_dataset_args(p)
    p.add_argument("--fdr-level", type=float, default=FdrConfig.fdr_level)
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--svg", action="store_true", help="also write SVG renderings")

    p = sub.add_parser("cd", help="export density and PP curves for variables")
    add_dataset_args(p)
    p.add_argument("--vars", nargs="+", required=True, help="variable names")

    p = sub.add_parser("fdr", help="CDfdr selection on an external score column")
    p.add_argument("csv", help="input CSV with a header row")
    p.add_argument("--col", required=True, help="name of the score column")
    p.add_argument("--input-kind", choices=["z", "cr"], default="z")
    p.add_argument("--n", type=int, default=None, help="sample size behind CR values")
    p.add_argument("--M", type=int, default=DEFAULT_M)
    p.add_argument("--fdr-level", type=float, default=FdrConfig.fdr_level)
    p.add_argument("--L", type=int, default=FdrConfig.n_coeffs, help="residual series length")
    p.add_argument("--sides", choices=["two", "left", "right"], default=FdrConfig.sides)
    p.add_argument("--out", default="cdmine_fdr.csv")

    p = sub.add_parser("simulate", help="run a contamination experiment")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--p", type=int, default=SimConfig.p)
    p.add_argument("--signals", type=int, default=25)
    p.add_argument("--model", choices=SIGNAL_MODELS, default=SimConfig.signal_model)
    p.add_argument("--mu", type=float, default=SimConfig.mu)
    p.add_argument("--lo", type=float, default=SimConfig.lo)
    p.add_argument("--hi", type=float, default=SimConfig.hi)
    p.add_argument("--runs", type=int, default=SimConfig.runs)
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--methods", nargs="+", default=list(SimConfig.methods), choices=METHODS)
    p.add_argument("--fdr-level", type=float, default=SimConfig.fdr_level)
    p.add_argument("--out", default="cdmine_sim")
    return parser


def load_dataset(args):
    """The dataset named by the arguments that ``add_dataset_args`` defines."""
    return load_csv(
        args.csv,
        label_column=args.label,
        positive_label=args.positive,
        missing_tokens=tuple(args.missing_token or DEFAULT_MISSING_TOKENS),
    )


def cmd_rank(args) -> int:
    check_m(args.M)
    check_fdr_level(args.fdr_level)
    check_top_k(args.top_k)
    dataset = load_dataset(args)
    if dataset.p:  # else analyze reports that there is nothing to analyze
        check_m(args.M, dataset.n)
    report = analyze(dataset, m=args.M, fdr_level=args.fdr_level)
    os.makedirs(args.out, exist_ok=True)
    write_ranked_csv(report, os.path.join(args.out, "ranked.csv"))
    write_summary_json(report, os.path.join(args.out, "summary.json"))
    export_plots(report, args.out, top_k=args.top_k, svg=args.svg)
    print(f"ranked {dataset.p} variables; selected {len(report.selected_names())}")
    return EXIT_OK


def cmd_cd(args) -> int:
    check_m(args.M)
    dataset = load_dataset(args)
    position = {name: i for i, name in enumerate(dataset.names)}
    unknown = [v for v in args.vars if v not in position]
    if unknown:
        raise ConfigError(f"unknown variables: {unknown}")
    check_m(args.M, dataset.n)
    os.makedirs(args.out, exist_ok=True)
    # A column's flag and score count do not depend on the other columns.
    names = list(dict.fromkeys(args.vars))
    panel = panel_cr(dataset.variables[[position[v] for v in names]], dataset.labels, args.M)
    stems = set()
    for k, name in enumerate(names):
        if not panel.m_used[k]:
            print(f"{name}: skipped ({panel.flags[k]})")
            continue
        written = write_curves(dataset, position[name], panel, k, args.out, stems)
        print(f"{name}: wrote {', '.join(os.path.basename(p) for p in written)}")
    return EXIT_OK


def cmd_fdr(args) -> int:
    check_m(args.M)
    # The largest |score|: a CR past it has n * CR past Z_MAX**2, and so a z
    # past Z_MAX.
    bound = Z_MAX
    if args.input_kind == "cr":
        if args.n is None or args.n < 1:
            raise ConfigError("--input-kind cr needs a sample size --n >= 1")
        check_m(args.M, args.n)
        bound = Z_MAX**2 / args.n
    cfg = FdrConfig(fdr_level=args.fdr_level, n_coeffs=args.L, sides=args.sides)
    rows = csv_rows(args.csv)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty file", row=1)
    if args.col not in header:
        raise ConfigError(f"column {args.col!r} not in header")
    idx = header.index(args.col)
    id_idx = 0 if idx != 0 else None
    ids, scores = [], []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row has {len(row)} fields, expected {len(header)}", row=i + 2)
        try:
            score = float(row[idx])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ParseError(
                f"score {row[idx]!r} is not a finite number", row=i + 2, column=args.col
            )
        if args.input_kind == "cr" and score < 0:
            # A CR is a sum of squares.
            raise ParseError(f"CR {row[idx]!r} is negative", row=i + 2, column=args.col)
        if abs(score) > bound:
            raise ParseError(f"score {row[idx]!r} is beyond {bound:g} in absolute value",
                             row=i + 2, column=args.col)
        scores.append(score)
        ids.append(row[id_idx] if id_idx is not None else str(i))
    z = np.array(scores)
    if args.input_kind == "cr":
        z = cr_to_z(z, args.n, args.M)
    result = cdfdr_pipeline(z, cfg)
    write_table(
        args.out,
        ["item_id", "z", "u_flat", "inverse_fdr", "selected"],
        [ids, result.z.tolist(), result.u_flat.tolist(),
         result.inverse_fdr.tolist(), result.selected.tolist()],
        ["%s"] + [NUMBER_FORMAT] * 3 + ["%d"],
    )
    print(f"selected {int(result.selected.sum())} of {len(ids)} items")
    return EXIT_OK


def apply_config_file(args, path) -> dict:
    """Override ``args`` with the key=value lines of a config file; an
    unknown key, a value that does not read as its type, or a byte that is
    not UTF-8 is a ConfigError naming path:line.  A leading byte order mark
    is dropped.

    Returns the line number of each key the file set.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.readlines()
    except UnicodeDecodeError:
        fault = utf8_fault(path)
        raise ConfigError(f"{path}:{fault.row}: {fault.reason}") from None
    lines = {}
    for lineno, line in enumerate(text, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        where = f"{path}:{lineno}"
        if not sep:
            raise ConfigError(f"{where}: expected key=value")
        if key not in CONFIG_KEYS:
            known = ", ".join(CONFIG_KEYS)
            raise ConfigError(f"{where}: unknown key {key!r} (known: {known})")
        try:
            setattr(args, key, CONFIG_KEYS[key][1](value))
        except ValueError:
            raise ConfigError(f"{where}: {key}: cannot read {value!r}") from None
        lines[key] = lineno
    return lines


def cmd_simulate(args) -> int:
    lines = apply_config_file(args, args.config) if args.config else {}
    settings = {field: getattr(args, key) for key, (field, _) in CONFIG_KEYS.items()}
    cfg = SimConfig(**{**settings, "methods": tuple(settings["methods"])})
    try:
        cfg.validate()
    except ConfigError as exc:
        # Name the last config line that set a field the failed rule read.
        set_at = [n for k, n in lines.items() if CONFIG_KEYS[k][0] in exc.fields]
        if set_at:
            raise ConfigError(f"{args.config}:{max(set_at)}: {exc}") from None
        raise
    report = run_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    write_report_csv(report, os.path.join(args.out, "runs.csv"))
    write_report_json(report, os.path.join(args.out, "summary.json"))
    print(json.dumps(report.summary, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "rank": cmd_rank,
        "cd": cmd_cd,
        "fdr": cmd_fdr,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, LabelError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CdmineError as exc:
        print(f"cannot analyze input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
