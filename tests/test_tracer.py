"""The benchmark's traced suite runs clean: every library name that
bench/tracer.py wraps still resolves and every workload it attempts succeeds."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_tiny_suite_has_no_failures(tmp_path):
    path = os.pathsep.join(filter(None, ["src", "bench", os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "bench/tracer.py", "--mode", "traced", "--tmp", str(tmp_path), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failures"] == []
    assert report["attempted"] > 0
