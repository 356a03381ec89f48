"""Every script in scripts/ still starts: its imports resolve and its
argument parser builds, so deleting a library name cannot leave a script
broken without a failing test; the round-trip demo also runs end to end
on a short stream."""

import os
import re
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


def test_stream_roundtrip_agrees_with_chunked_encode():
    # a short run end to end: the live server's frame against the chunked
    # per-patch encode, within the script's bound
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, str(_ROOT / "scripts" / "stream_roundtrip.py"),
                           "--events", "2000"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rel = re.search(r"max relative deviation (\S+) \(bound (\S+)\)", proc.stdout)
    assert rel and float(rel[1]) <= float(rel[2]) == 1e-3
