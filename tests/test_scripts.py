import importlib.util
import json
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_of_recorded_runs():
    # the pair runner's summary, recomputed from the runs of a recorded
    # benchmark file, is the one recorded with them
    bench = json.loads((ROOT / "BENCH_27.json").read_text())
    bp = _bench_pairs()
    summary = bp.summarize(bench["runs"], ["wall_cal", "setup_s",
                                           "peak_rss_mb"])
    assert summary == bench["summary"]
    assert bp.claimed(summary, "hardhex", "wall_cal") == bench["claimed"]


def test_bench_pairs_summary_of_fixed_runs():
    # ties count for neither side; a pair missing one side is left out of
    # the metrics but not of the failed share
    def run(pair, side, wall, failed=0):
        return {"pair": pair, "workload": "w", "seed": pair, "side": side,
                "metrics": {"wall_cal": wall}, "failed": failed,
                "attempted": 10}

    runs = [run(1, "parent", 10.0), run(1, "change", 8.0),
            run(2, "change", 9.0), run(2, "parent", 9.0),
            run(3, "parent", 12.0, failed=1), run(3, "change", 7.0),
            run(4, "parent", 11.0), run(4, "change", 12.0),
            run(5, "change", 1.0, failed=2)]
    bp = _bench_pairs()
    summary = bp.summarize(runs, ["wall_cal"])["w"]
    assert summary["wall_cal"] == {
        "pairs": 4, "parent_median": 10.5, "parent_quartiles": [9.25, 11.75],
        "change_median": 8.5, "change_quartiles": [7.25, 11.25],
        "change_lower_in": 2, "median_change_frac": round(8.5 / 10.5 - 1, 4)}
    assert summary["fail_frac"] == {"parent": 0.025, "change": 0.04}
    assert bp.claimed({"w": summary}, "w", "wall_cal") == {
        "workload": "w", "metric": "wall_cal", "change_lower_in": 2,
        "pairs": 4, "median_change_frac": round(8.5 / 10.5 - 1, 4),
        "parent_iqr": 2.5, "median_gap": 2.0}
