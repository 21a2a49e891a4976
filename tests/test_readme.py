"""The README's commands hold to the code.

Every `--flag` shown for a subcommand in the `## CLI` shell block must be an
option of that subcommand in `cli.build_parser()`, and every subcommand must
appear there. The commands that need only the bundled caption corpus run as
written. Every `python3 scripts/<name>` names a script, and every
`pytest <file> -k <expr>` selects at least one test.
"""

import argparse
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mpe.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CAPTIONS = Path(__file__).parent / "fixtures" / "captions.tsv"

# Commands whose inputs the caption corpus alone provides.
RUNNABLE = ("build-graph", "build-dataset", "gradcheck")


def cli_block() -> str:
    """The first `sh` block after the `## CLI` heading."""
    section = README.split("\n## CLI\n", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1)


def cli_commands() -> dict[str, str]:
    """Each `mpe <subcommand>` line of the CLI block, `\\`-continued lines joined,
    by subcommand."""
    joined = cli_block().replace("\\\n", " ")
    commands = {}
    for line in joined.splitlines():
        if line.startswith("mpe "):
            subcommand = line.split()[1]
            assert subcommand not in commands, f"{subcommand} shown twice"
            commands[subcommand] = " ".join(line.split())
    return commands


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


COMMANDS = cli_commands()


def test_every_subcommand_is_shown():
    assert sorted(COMMANDS) == sorted(subparsers())


@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_every_flag_shown_is_an_option(subcommand):
    options = subparsers()[subcommand]._option_string_actions
    shown = re.findall(r"--[a-z][a-z-]*", COMMANDS[subcommand])
    assert shown, COMMANDS[subcommand]
    assert [flag for flag in shown if flag not in options] == []


@pytest.mark.parametrize("subcommand", RUNNABLE)
def test_command_runs_as_written(subcommand, tmp_path, monkeypatch, capsys):
    shutil.copy(CAPTIONS, tmp_path / "corpus.tsv")
    monkeypatch.setenv("MPE_DATA_DIR", str(tmp_path))
    argv = shlex.split(COMMANDS[subcommand].replace("[", "").replace("]", ""))
    assert argv[0] == "mpe"
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_every_script_named_exists():
    names = re.findall(r"python3 scripts/([\w.-]+)", README)
    assert names
    assert [name for name in names if not (ROOT / "scripts" / name).is_file()] == []


@pytest.mark.parametrize(
    "path, expr", sorted(set(re.findall(r"pytest (\S+) -k (\S+)", README)))
)
def test_every_selection_selects_a_test(path, expr):
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "--collect-only",
         path, "-k", expr],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(rf"^{re.escape(path)}::", run.stdout, re.M), run.stdout
