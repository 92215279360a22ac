"""README's examples run: the library quick start and every line of the CLI block."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import blochstrata.cli as cli
from blochstrata.serialize import matrix_to_dict

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first ```language block of the README section under heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [
    line for line in _block("CLI", "sh").splitlines() if line.startswith("blochstrata ")
]


def test_the_library_quick_start_runs(capsys):
    exec(_block("Library quick start", "python"), {})
    assert "on_sphere=True" in capsys.readouterr().out


def test_the_cli_block_shows_every_command():
    commands = {shlex.split(line)[1] for line in CLI_LINES}
    assert commands == {
        "basis", "convert", "classify", "strata-scan", "direction", "antipode", "lemma", "sample",
    }


@pytest.mark.parametrize("line", CLI_LINES)
def test_each_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    # the state.json that convert and classify read: R(2) = diag(1/2, 1/2, 0)
    (tmp_path / "state.json").write_text(cli._json_text(matrix_to_dict(np.diag([0.5, 0.5, 0]))))
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0
    assert capsys.readouterr().err == ""
