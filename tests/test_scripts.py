"""Smoke runs of the scripts the README points to, in subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run scripts/<name>, assert exit 0 and a final PASS line."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].endswith("PASS")


def test_reproduce_examples_passes(tmp_path):
    run_script("reproduce_examples.py", "--outdir", str(tmp_path))


def test_oracle_sweep_passes():
    run_script("oracle_sweep.py", "--count", "20")
