import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name,last_line", [
    ("rr_demo.py", None),
    ("run_verify_matrix.py", "all suites clean"),
])
def test_script_runs_clean(name, last_line):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    if last_line is not None:
        assert proc.stdout.splitlines()[-1] == last_line


def test_benchmark_selftest_passes():
    # the benchmark reads package internals (aliases, cached functions,
    # module caches, per-layer metric names); its self-test checks them
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
