"""Every ``cdmine`` command in the README's CLI section runs as written.

Input file names in the commands map to small generated fixtures; each
command runs through ``cli.main`` in a scratch working directory, so its
relative output paths land there too.
"""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cdmine.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_commands():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("cdmine "):
                commands.append(shlex.split(line)[1:])
    return commands


def write_panel(path):
    """60 rows x 30 genes with a 0/1 label; gene7 shifts with the label."""
    rng = np.random.default_rng(1)
    n, p = 60, 30
    y = np.arange(n) % 2
    X = rng.normal(size=(n, p))
    X[:, 6] += 2.0 * y
    rows = [",".join([f"gene{j}" for j in range(1, p + 1)] + ["cls"])]
    rows += [",".join([f"{v:.4f}" for v in X[i]] + [str(y[i])]) for i in range(n)]
    path.write_text("\n".join(rows) + "\n")


def write_scores(path):
    """200 z-scores: 10 signals near 4 among standard-normal nulls."""
    rng = np.random.default_rng(2)
    z = np.concatenate([rng.normal(4.0, 1.0, 10), rng.standard_normal(190)])
    path.write_text("id,z\n" + "".join(f"g{i},{v:.4f}\n" for i, v in enumerate(z)))


def command_ids(commands):
    """Each command's subcommand, with a count from its second use on."""
    ids = [argv[0] for argv in commands]
    return [c if ids[:i].count(c) == 0 else f"{c}-{ids[:i].count(c) + 1}"
            for i, c in enumerate(ids)]


FIXTURES = {"data.csv": write_panel, "zscores.csv": write_scores}
COMMANDS = cli_commands()


def test_cli_section_shows_every_subcommand():
    assert sorted({argv[0] for argv in COMMANDS}) == ["cd", "fdr", "rank", "simulate"]


@pytest.mark.parametrize("argv", COMMANDS, ids=command_ids(COMMANDS))
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in argv:
        if name.endswith(".csv"):
            FIXTURES[name](tmp_path / name)
    assert main(argv) == EXIT_OK
