"""The benchmark under perfbench/ still runs against the package: every
name it calls or traces exists, and its oracles accept real outputs."""

import importlib.util
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


def test_traced_names_resolve(monkeypatch):
    # spans.py is loaded, not changed: no bytecode is written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [*spans.TRACED, ("arith", "factorize"), ("arith", "Factorization")]
    missing = [
        (m, f) for m, f in names if not hasattr(importlib.import_module(f"zsig.{m}"), f)
    ]
    assert spans.TRACED and missing == []
