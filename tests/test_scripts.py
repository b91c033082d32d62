import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@cache
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


# the sha256 column of run_verify_matrix.py, by suite and bounds: a digest
# of every report the suite prints, so a change to any report of any suite
# shows here
VERIFY_DIGESTS = {
    "rr n=1 L<=20 ell=1": "98d8c42ea726",
    "typeA n=1 L<=16 ell=1": "fb1cd29d0f36",
    "typeA n=2 L<=13 ell=1": "d7c9a51677bf",
    "typeC n=2 L<=8 ell=1": "56b084507c19",
    "typeC n=3 L<=9 ell=1": "3216244e3b96",
    "level n=1 L<=6 ell=1": "7e9a8b512872",
    "level n=1 L<=5 ell=2": "a3562097ba9e",
    "level n=2 L<=14 ell=1": "ffe7a4798009",
    "levelC n=2 L<=10 ell=1": "fff6919a99eb",
    "levelC n=2 L<=8 ell=2": "3096a86c775e",
    "levelC n=3 L<=10 ell=2": "9ae832758ab6",
    "involution n=1 L<=4 ell=1": "510f8c5b2cbd",
    "involution n=2 L<=5 ell=1": "0f3e9fbeb28d",
    "involution n=3 L<=5 ell=2": "83382dd8430d",
}


def test_verify_matrix_reports_are_unchanged():
    proc = run_script("run_verify_matrix.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]
    got = {" ".join(row[:4]): row[-2] for row in rows}
    assert got == VERIFY_DIGESTS


def test_benchmark_selftest_passes():
    # the benchmark reads package internals (aliases, cached functions,
    # module caches, per-layer metric names); its self-test checks them
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
