"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the demo's stdout at its default flags: the stats lines and the
# final evaluation report, both printed by the library's own code.
DEMO_STDOUT_SHA256 = "1a08e896e8a46e535b7f10473aa5a5e957ff4b5e4e4e1f0fe8b871d0e80bcf62"


def run_script(name, *args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_demo_pipeline_output_is_repeatable(tmp_path):
    runs = [run_script("demo_pipeline.py", "--workdir", str(tmp_path)) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    assert (tmp_path / "demo.items.jsonl").exists()


def test_demo_pipeline_stdout_pinned(tmp_path):
    run = run_script("demo_pipeline.py", "--workdir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256


def test_demo_pipeline_without_workdir_is_repeatable_and_cleans_up(tmp_path):
    runs = [run_script("demo_pipeline.py", TMPDIR=str(tmp_path)) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
)
def test_script_help_exits_0(script):
    run = run_script(script, "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage:")
