#!/usr/bin/env python3
"""The crystalsums benchmark.

    python3 perfbench/run.py --workload hardhex --seed 1 --seconds 30 --trace 0

Runs rounds of one workload, each in a fresh single-threaded process
(worker.py), one after another until ``--seconds`` have passed, and prints
every metric by name with its unit.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, as medians over the rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (medians), plus the tracing overhead.
Each traced round writes its spans to .perfbench-out/ (the last one stays).

The benchmark exits non-zero without a result when it cannot measure: the
package is missing, a round crashes or the time limit runs out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# every run must end within this many seconds
HARD_LIMIT_S = 170


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json names,
    which are exactly the metrics a run reports."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class RoundFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed("round did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"round exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_bytecode(deadline: float) -> None:
    """Import the package once, untimed, so that no round pays for writing
    the bytecode cache of a fresh checkout."""
    try:
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src');"
                        " import crystalsums.cli"],
                       cwd=ROOT, capture_output=True, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise RoundFailed("cannot import crystalsums from src/") from exc


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def report(plain: list[dict], traced: list[dict], workload: str, seed: int,
           end_to_end: dict[str, str]) -> None:
    """Human-readable lines: every metric with its unit, then the
    report-only section (not gated)."""
    n = len(plain)
    failed = sum(r["failed"] for r in plain + traced)
    attempted = sum(r["attempted"] for r in plain + traced)
    print(f"# workload {workload}, seed {seed}: {n} untraced and "
          f"{len(traced)} traced rounds")
    for key, unit in end_to_end.items():
        print(f"{key} {median_of(plain, key):.6g} {unit} (median of {n})")
    for key in end_to_end:
        vals = [r[key] for r in plain]
        print(f"  {key} range {min(vals):.6g} .. {max(vals):.6g}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations)")
    for r in plain + traced:
        for f in r["failures"]:
            print(f"FAILED {f['key']}: {'; '.join(f['why'])}")
    print("# report only: raw time of the operations, not machine-normalised")
    print(f"wall_s {median_of(plain, 'wall_s'):.6g} s (median of {n}), "
          f"calibration samples per round {plain[0]['cal_samples']}")
    print("# report only: environment")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"git {git_sha()}")
    print("# report only: seconds per verify tier (median over untraced rounds)")
    for tier in plain[0]["tiers"]:
        print(f"  {tier:32s} {median_of([r['tiers'] for r in plain], tier):.4f}")
    last = (traced or plain)[-1]["caches"]
    print("# report only: cache entries at the end of a round")
    for name, size in sorted(last.items()):
        print(f"  {name:44s} {size}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="crystalsums benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        end_to_end, per_layer = declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        warm_bytecode(deadline)
        while True:
            plain.append(run_worker(args.workload, args.seed, False, deadline))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, True,
                                         deadline))
            if time.monotonic() - start >= args.seconds:
                break
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report(plain, traced, args.workload, args.seed, end_to_end)
    if args.trace:
        for r in traced:
            r["layers"]["trace.overhead_frac"] = (
                r["wall_cal"] / median_of(plain, "wall_cal") - 1)
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in traced),
                       "unit": u} for k, u in per_layer.items()}
        print("# per layer (median over traced rounds)")
        for k, m in metrics.items():
            print(f"  {k:44s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": median_of(plain, k), "unit": u}
                   for k, u in end_to_end.items()}
    failed = sum(r["failed"] for r in plain + traced)
    attempted = sum(r["attempted"] for r in plain + traced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
