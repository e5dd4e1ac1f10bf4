"""Run a piece of code in a fresh interpreter on src/, for the tests that
check what a new process imports, frees or spawns."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_fresh(code):
    """The stdout of `code` run by a new interpreter in the repository root
    with src/ on its path; fails the test if it exits nonzero."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
