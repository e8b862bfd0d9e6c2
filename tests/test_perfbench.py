"""The benchmark under perfbench/ still runs against the package: every
name it calls or traces exists, and its oracles accept real outputs."""

import subprocess
import sys
from pathlib import Path

import zsig

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_public_names_resolve():
    missing = [name for name in zsig.__all__ if not hasattr(zsig, name)]
    assert missing == []
