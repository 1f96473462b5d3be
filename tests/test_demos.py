"""Smoke test: every demo script runs to completion from this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import factoralign

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(factoralign.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "command",
    [
        [sys.executable, "01_end_to_end_alignment.py"],
        # Asserts that the assignment solver attains the exhaustive optimum.
        [sys.executable, "02_matching_oracles.py"],
        [sys.executable, "03_diagnostics_calibration.py"],
        ["bash", "04_cli_pipeline.sh"],
    ],
    ids=lambda command: command[-1],
)
def test_demo_exits_0(tmp_path, command):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [command[0], str(DEMOS / command[1])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
