"""Every script in scripts/ still starts: its imports resolve and its
argument parser builds, so deleting a library name cannot leave a script
broken without a failing test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPTS = sorted((_ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert _SCRIPTS


@pytest.mark.parametrize("script", _SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
